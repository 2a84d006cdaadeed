//! Injected loader (§5.1).
//!
//! The patched binary's trampoline blocks are appended to the file but are
//! *not* ordinary `PT_LOAD` segments — one physical block may need to be
//! mapped at many virtual addresses (physical page grouping). E9Patch
//! solves this by replacing the entry point with a small loader that
//! `mmap`s each (virtual base ← file extent) pair before tail-jumping to
//! the real entry point. We emit the same thing: real x86-64 code driving
//! `SYS_mmap` over an embedded mapping table.
//!
//! The file descriptor of the binary itself is assumed to be available as
//! fd [`SELF_FD`] (the emulator pre-opens it; real E9Patch opens
//! `/proc/self/exe` with a handful of extra syscalls — a substitution
//! documented in DESIGN.md).

use e9x86::asm::{Asm, Mem};
use e9x86::insn::Cond;
use e9x86::reg::{Reg, Width};

/// File descriptor the loader uses to map the binary's own file.
pub const SELF_FD: u32 = 100;

/// `SYS_mmap` number on x86-64 Linux.
pub const SYS_MMAP: u32 = 9;

/// `PROT_READ | PROT_EXEC`.
pub const PROT_READ_EXEC: u32 = 0x5;
/// `MAP_PRIVATE | MAP_FIXED`.
pub const MAP_PRIVATE_FIXED: u32 = 0x12;

/// One loader mapping: map `len` bytes of the file at `file_off` to
/// virtual address `vaddr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Page-aligned virtual destination.
    pub vaddr: u64,
    /// Page-aligned file offset of the (merged) physical block.
    pub file_off: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Emit the loader: mapping loop + embedded table + tail jump to
/// `orig_entry`. The code is assembled for absolute address `base`.
///
/// Register use is unconstrained: the System-V ABI leaves every register
/// except `%rsp` undefined at the ELF entry point.
///
/// # Panics
///
/// Panics on internal assembler failure (label misuse), which would be a
/// bug, not an input condition.
pub fn emit_loader(base: u64, orig_entry: u64, mappings: &[Mapping]) -> Vec<u8> {
    let mut a = Asm::new(base);
    let table = a.fresh_label();
    let top = a.fresh_label();
    let done = a.fresh_label();

    a.lea(Reg::R14, Mem::rip(table));
    a.bind(top);
    a.mov_rm(Width::Q, Reg::Rdi, Mem::base_disp(Reg::R14, 0)); // vaddr
    a.test_rr(Width::Q, Reg::Rdi, Reg::Rdi);
    a.jcc(Cond::E, done);
    a.mov_rm(Width::Q, Reg::Rsi, Mem::base_disp(Reg::R14, 8)); // len
    a.mov_rm(Width::Q, Reg::R9, Mem::base_disp(Reg::R14, 16)); // file offset
    a.mov_ri32(Reg::Rdx, PROT_READ_EXEC);
    a.mov_ri32(Reg::R10, MAP_PRIVATE_FIXED);
    a.mov_ri32(Reg::R8, SELF_FD);
    a.mov_ri32(Reg::Rax, SYS_MMAP);
    a.syscall();
    a.add_ri(Width::Q, Reg::R14, 24);
    a.jmp(top);
    a.bind(done);
    // Transparency: scrub every register the loader touched so the
    // original entry point observes the same (zeroed) state it would in a
    // fresh emulator run. The entry target is parked on the stack and
    // consumed by `ret`, so even the jump register is clean.
    a.mov_ri64(Reg::Rax, orig_entry as i64);
    a.push_r(Reg::Rax);
    for r in [
        Reg::Rax,
        Reg::Rdi,
        Reg::Rsi,
        Reg::Rdx,
        Reg::Rcx,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R14,
    ] {
        a.xor_rr(Width::D, r, r);
    }
    // ... and scrub the flags the xors just set (push $2; popfq loads the
    // all-clear RFLAGS image).
    a.raw(&[0x6A, 0x02]);
    a.popfq();
    a.ret();

    // Mapping table: (vaddr, len, file_off) triples, zero-terminated.
    while !a.len().is_multiple_of(8) {
        a.raw(&[0]);
    }
    a.bind(table);
    for m in mappings {
        a.dq(m.vaddr);
        a.dq(m.len);
        a.dq(m.file_off);
    }
    a.dq(0);
    a.dq(0);
    a.dq(0);

    a.finish().expect("loader assembly cannot fail")
}

/// Size in bytes [`emit_loader`] will produce for `n` mappings (needed to
/// reserve address space before the final base is known). The code part is
/// fixed-size; the table is `24 * (n + 1)` plus ≤ 7 bytes of alignment.
pub fn loader_size(n_mappings: usize) -> usize {
    LOADER_CODE_SIZE + 7 + 24 * (n_mappings + 1)
}

/// Fixed size of the loader's code portion (validated by a unit test).
const LOADER_CODE_SIZE: usize = 100;

#[cfg(test)]
mod tests {
    use super::*;
    use e9x86::decode::linear_sweep;

    #[test]
    fn loader_decodes_fully() {
        let maps = [
            Mapping {
                vaddr: 0x70000000,
                file_off: 0x5000,
                len: 0x1000,
            },
            Mapping {
                vaddr: 0x70010000,
                file_off: 0x5000,
                len: 0x1000,
            },
        ];
        let code = emit_loader(0x60000000, 0x401000, &maps);
        // The code part (before the table) must decode as a linear stream.
        let insns = linear_sweep(&code[..LOADER_CODE_SIZE], 0x60000000);
        let decoded: usize = insns.iter().map(|i| i.len()).sum();
        assert_eq!(
            decoded, LOADER_CODE_SIZE,
            "loader code has undecodable gaps"
        );
        // It must contain exactly one syscall.
        assert_eq!(
            insns
                .iter()
                .filter(|i| i.kind == e9x86::Kind::Syscall)
                .count(),
            1
        );
    }

    #[test]
    fn code_size_constant_is_accurate() {
        let empty = emit_loader(0x60000000, 0x401000, &[]);
        // code + padding + terminator triple.
        assert!(empty.len() >= LOADER_CODE_SIZE + 24);
        // Table starts 8-aligned right after code: locate the terminator.
        let table_off = (LOADER_CODE_SIZE + 7) & !7;
        assert_eq!(&empty[table_off..table_off + 24], &[0u8; 24]);
    }

    #[test]
    fn size_estimate_is_an_upper_bound() {
        for n in [0usize, 1, 5, 100] {
            let maps: Vec<Mapping> = (0..n)
                .map(|i| Mapping {
                    vaddr: 0x70000000 + i as u64 * 0x1000,
                    file_off: 0x5000,
                    len: 0x1000,
                })
                .collect();
            let code = emit_loader(0x60000000, 0x401000, &maps);
            assert!(code.len() <= loader_size(n), "n={n}");
        }
    }

    #[test]
    fn table_contents() {
        let maps = [Mapping {
            vaddr: 0xAAAA000,
            file_off: 0xBBB000,
            len: 0x2000,
        }];
        let code = emit_loader(0x60000000, 0x401000, &maps);
        let table_off = (LOADER_CODE_SIZE + 7) & !7;
        let q = |i: usize| {
            u64::from_le_bytes(
                code[table_off + i * 8..table_off + (i + 1) * 8]
                    .try_into()
                    .unwrap(),
            )
        };
        assert_eq!(q(0), 0xAAAA000);
        assert_eq!(q(1), 0x2000);
        assert_eq!(q(2), 0xBBB000);
        assert_eq!(q(3), 0);
    }
}
