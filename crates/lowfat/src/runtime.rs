//! The redzone-check runtime as real x86-64 guest code.
//!
//! Every instrumented heap-write trampoline does
//! `lea <operand>, %rdi; call check_fn` (see
//! `e9patch::Template::CheckCall`). The check function implements
//!
//! ```text
//! if region(p) is a low-fat region and (p & (size-1)) < 16 {
//!     violations += 1;
//! }
//! ```
//!
//! entirely with guest instructions (two table lookups and a mask — no
//! division, because size classes are powers of two). It preserves every
//! register except `%rax`/`%rdi` (saved by the trampoline) and clobbers
//! flags (saved by the trampoline's `pushfq`/`popfq`).

use crate::{LowFatAllocator, NUM_CLASSES, REDZONE, REGION_BASE};
use e9x86::asm::{Asm, Mem};
use e9x86::insn::Cond;
use e9x86::reg::{Reg, Width};

/// The assembled runtime: one executable blob and one writable data blob.
#[derive(Debug, Clone)]
pub struct LowFatRuntime {
    /// Address of the check function (pass to
    /// `e9patch::Template::CheckCall`).
    pub check_fn: u64,
    /// Address of the 64-bit violation counter.
    pub violations_addr: u64,
    /// Executable code (map at `code_vaddr`).
    pub code: Vec<u8>,
    /// Data: masks table then counter (map writable at `data_vaddr`).
    pub data: Vec<u8>,
    /// Where `code` must be mapped.
    pub code_vaddr: u64,
    /// Where `data` must be mapped.
    pub data_vaddr: u64,
}

/// Assemble the runtime for the given load addresses.
pub fn build(code_vaddr: u64, data_vaddr: u64) -> LowFatRuntime {
    let masks_addr = data_vaddr;
    let violations_addr = data_vaddr + (NUM_CLASSES as u64) * 8;

    let mut a = Asm::new(code_vaddr);
    let ok = a.fresh_label();
    // rdi = p (argument). Scratch: rax, rdi free; rcx/rdx callee-saved here.
    a.push_r(Reg::Rcx);
    a.push_r(Reg::Rdx);
    // rcx = (p - REGION_BASE) >> 32  — the region index.
    a.mov_rr(Width::Q, Reg::Rax, Reg::Rdi);
    a.mov_ri64(Reg::Rdx, REGION_BASE as i64);
    a.sub_rr(Width::Q, Reg::Rax, Reg::Rdx);
    a.mov_rr(Width::Q, Reg::Rcx, Reg::Rax);
    a.shr_ri(Width::Q, Reg::Rcx, 32);
    a.cmp_ri(Width::Q, Reg::Rcx, NUM_CLASSES as i32);
    a.jcc(Cond::Ae, ok); // not a low-fat pointer
                         // rdx = masks[region]; rax = p & mask (offset within the slot).
    a.mov_ri64(Reg::Rdx, masks_addr as i64);
    a.mov_rm(
        Width::Q,
        Reg::Rdx,
        Mem::base_index(Reg::Rdx, Reg::Rcx, 8, 0),
    );
    a.mov_rr(Width::Q, Reg::Rax, Reg::Rdi);
    a.and_rr(Width::Q, Reg::Rax, Reg::Rdx);
    a.cmp_ri(Width::Q, Reg::Rax, REDZONE as i32);
    a.jcc(Cond::Ae, ok); // p − base(p) ≥ 16: fine
                         // Violation: bump the counter.
    a.mov_ri64(Reg::Rdx, violations_addr as i64);
    a.inc_m(Width::Q, Mem::base(Reg::Rdx));
    a.bind(ok);
    a.pop_r(Reg::Rdx);
    a.pop_r(Reg::Rcx);
    a.ret();
    let code = a.finish().expect("runtime assembly");

    let mut data = Vec::with_capacity((NUM_CLASSES + 1) * 8);
    for m in LowFatAllocator::masks() {
        data.extend_from_slice(&m.to_le_bytes());
    }
    data.extend_from_slice(&0u64.to_le_bytes()); // violations counter

    LowFatRuntime {
        check_fn: code_vaddr,
        violations_addr,
        code,
        data,
        code_vaddr,
        data_vaddr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violates_redzone;
    use e9vm::{load_elf, HeapAllocator, Vm};

    /// Drive the real x86 check function in the emulator for pointer `p`
    /// and return the violation count afterwards.
    fn run_check(pointers: &[u64]) -> u64 {
        let code_vaddr = 0x10400000u64;
        let data_vaddr = 0x10500000u64;
        let rt = build(code_vaddr, data_vaddr);

        // Caller: call check for each pointer, then exit(0).
        let mut a = Asm::new(0x401000);
        for &p in pointers {
            a.mov_ri64(Reg::Rdi, p as i64);
            a.mov_ri64(Reg::Rax, rt.check_fn as i64);
            a.call_ind_r(Reg::Rax);
        }
        a.mov_ri32(Reg::Rax, 60);
        a.mov_ri32(Reg::Rdi, 0);
        a.syscall();
        let main = a.finish().unwrap();

        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(main, 0x401000);
        b.section(".lfcode", rt.code.clone(), code_vaddr, true, false);
        b.section(".lfdata", rt.data.clone(), data_vaddr, false, true);
        b.entry(0x401000);

        let mut vm = Vm::new();
        load_elf(&mut vm, &b.build()).unwrap();
        vm.run(1_000_000).unwrap();
        vm.mem.read_le(rt.violations_addr, 8).unwrap()
    }

    #[test]
    fn check_passes_clean_pointers() {
        let mut alloc = LowFatAllocator::new();
        let p = alloc.malloc(100);
        assert_eq!(run_check(&[p, p + 50, 0x400000, 0, u64::MAX]), 0);
    }

    #[test]
    fn check_catches_redzone_writes() {
        let mut alloc = LowFatAllocator::new();
        let p = alloc.malloc(100);
        let base = crate::base_of(p).unwrap();
        assert_eq!(run_check(&[base, base + 15, p - 1]), 3);
    }

    #[test]
    fn check_catches_overflow_into_next_slot() {
        let mut alloc = LowFatAllocator::new();
        let p = alloc.malloc(100); // 128-byte slot
        let slot_end = crate::base_of(p).unwrap() + 128;
        assert_eq!(run_check(&[slot_end]), 1);
    }

    #[test]
    fn x86_check_agrees_with_rust_model() {
        // Differential test: the guest code and the Rust oracle must agree
        // across a spread of pointers.
        let mut alloc = LowFatAllocator::new();
        let mut ptrs = vec![0u64, 0x400000, REGION_BASE - 1, u64::MAX];
        for size in [1u64, 20, 100, 1000, 100_000] {
            let p = alloc.malloc(size);
            let b = crate::base_of(p).unwrap();
            ptrs.extend([p, b, b + 1, b + 15, b + 16, p + size]);
        }
        let expected: u64 = ptrs.iter().map(|&p| violates_redzone(p) as u64).sum();
        assert_eq!(run_check(&ptrs), expected);
    }

    #[test]
    fn check_preserves_callee_registers() {
        let code_vaddr = 0x10400000u64;
        let data_vaddr = 0x10500000u64;
        let rt = build(code_vaddr, data_vaddr);
        let mut a = Asm::new(0x401000);
        a.mov_ri64(Reg::Rcx, 0x1111_2222);
        a.mov_ri64(Reg::Rdx, 0x3333_4444);
        a.mov_ri64(Reg::Rdi, REGION_BASE as i64); // a violating pointer
        a.mov_ri64(Reg::Rax, rt.check_fn as i64);
        a.call_ind_r(Reg::Rax);
        // exit(rcx == 0x11112222 && rdx == 0x33334444 ? 7 : 1)
        let bad = a.fresh_label();
        a.cmp_ri(Width::Q, Reg::Rcx, 0x1111_2222);
        a.jcc(Cond::Ne, bad);
        a.cmp_ri(Width::Q, Reg::Rdx, 0x3333_4444);
        a.jcc(Cond::Ne, bad);
        a.mov_ri32(Reg::Rdi, 7);
        a.mov_ri32(Reg::Rax, 60);
        a.syscall();
        a.bind(bad);
        a.mov_ri32(Reg::Rdi, 1);
        a.mov_ri32(Reg::Rax, 60);
        a.syscall();
        let main = a.finish().unwrap();
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(main, 0x401000);
        b.section(".lfcode", rt.code.clone(), code_vaddr, true, false);
        b.section(".lfdata", rt.data.clone(), data_vaddr, false, true);
        b.entry(0x401000);
        let r = e9vm::run_binary(&b.build(), 100_000).unwrap();
        assert_eq!(r.exit_code, 7);
    }
}
