//! ELF loading into the emulator.
//!
//! Mirrors the kernel loader closely enough for the reproduction:
//! `PT_LOAD` segments are mapped in table order (read-only/executable
//! segments *alias* the file image — so a grouped physical block really is
//! shared; writable segments get private copies, i.e. `MAP_PRIVATE` copy
//! semantics), the `.bss` tail is zero-filled, a stack is mapped, and the
//! file image is registered as fd [`SELF_FD`] for the injected loader's
//! `mmap` calls. `PT_NOTE` segments are scanned for the B0 trap manifest.
//!
//! The segment table is trusted as [`Elf::parse`] accepted it (the rules
//! in [`e9elf::image`]), so mapping in table order shows each file-backed
//! byte [`Elf::slice_at`] reads, and what Linux would not map is refused
//! too. The loader adds only the caps [`MAX_SEGMENT_MEMSZ`] and
//! [`MAX_TOTAL_MEMSZ`].

use crate::exec::{Vm, STACK_SIZE, STACK_TOP};
use crate::mem::{Perms, PAGE_SIZE};
use e9elf::types::{Phdr, PF_W, PF_X, PT_LOAD, PT_NOTE};
use e9elf::{Elf, ElfError};
use std::fmt;

/// File descriptor the injected loader maps the binary through.
pub const SELF_FD: u32 = 100;

/// Largest memory image one `PT_LOAD` segment may request. A hostile
/// `p_memsz` otherwise turns the per-page mapping loop into an OOM (one
/// page-table entry per page, plus a zeroed private buffer for writable
/// segments). Real workloads — chrome-scale profiles included — stay well
/// under this.
pub const MAX_SEGMENT_MEMSZ: u64 = 1 << 30;

/// Largest combined memory image across all `PT_LOAD` segments.
pub const MAX_TOTAL_MEMSZ: u64 = 1 << 32;

/// Loading error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Malformed ELF, including a segment table [`Elf::parse`] refuses.
    Elf(ElfError),
    /// A segment (or the whole image) asks for an implausible amount of
    /// memory — see [`MAX_SEGMENT_MEMSZ`] / [`MAX_TOTAL_MEMSZ`].
    SegmentTooBig {
        /// The offending segment's virtual address.
        vaddr: u64,
        /// Its requested memory size.
        memsz: u64,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Elf(e) => write!(f, "load failed: {e}"),
            LoadError::SegmentTooBig { vaddr, memsz } => write!(
                f,
                "load failed: segment at {vaddr:#x} requests {memsz:#x} bytes of memory"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<ElfError> for LoadError {
    fn from(e: ElfError) -> Self {
        LoadError::Elf(e)
    }
}

/// Load `binary` into `vm` and point `rip` at the entry point.
///
/// # Errors
///
/// Fails on input [`Elf::parse`] refuses and on segments that exceed the
/// memory caps — never panics and never maps anything for a rejected
/// image.
pub fn load_elf(vm: &mut Vm, binary: &[u8]) -> Result<(), LoadError> {
    let elf = Elf::parse(binary)?;
    // Check the memory caps up front: rejection must be atomic (no
    // partially-mapped VM).
    let mem_len =
        |ph: &Phdr| e9elf::page_ceil(ph.p_vaddr + ph.p_memsz) - e9elf::page_floor(ph.p_vaddr);
    let mut total = 0u64;
    for ph in elf.load_segments() {
        total = total.saturating_add(mem_len(ph));
        if ph.p_memsz > MAX_SEGMENT_MEMSZ || total > MAX_TOTAL_MEMSZ {
            return Err(LoadError::SegmentTooBig {
                vaddr: ph.p_vaddr,
                memsz: ph.p_memsz,
            });
        }
    }
    let file_phys = vm.mem.add_phys(binary.to_vec());
    vm.self_fd_phys = Some(file_phys);

    for ph in &elf.phdrs {
        match ph.p_type {
            PT_LOAD => {
                let perms = Perms {
                    r: true,
                    w: ph.p_flags & PF_W != 0,
                    x: ph.p_flags & PF_X != 0,
                };
                let vbase = e9elf::page_floor(ph.p_vaddr);
                let head = ph.p_vaddr - vbase;
                let mem_len = mem_len(ph);
                if perms.w {
                    // Private copy: file bytes + zero-filled bss tail.
                    let mut buf = vec![0u8; mem_len as usize];
                    let file = &binary[ph.p_offset as usize..][..ph.p_filesz as usize];
                    buf[head as usize..][..file.len()].copy_from_slice(file);
                    let phys = vm.mem.add_phys(buf);
                    vm.mem.map_file(vbase, phys, 0, mem_len, perms);
                } else {
                    // Alias the file image directly (shared, like the
                    // kernel's page-cache mapping).
                    let off = e9elf::page_floor(ph.p_offset);
                    let file_len = e9elf::page_ceil(ph.p_offset + ph.p_filesz) - off;
                    vm.mem.map_file(vbase, file_phys, off, file_len, perms);
                    // Zero tail beyond the file-backed pages (rare for R/X
                    // segments; map anon zero pages).
                    if mem_len > file_len {
                        vm.mem.map_anon(vbase + file_len, mem_len - file_len, perms);
                    }
                }
            }
            PT_NOTE => {
                // Untrusted offsets: a wrapped or out-of-file note range is
                // silently skipped (notes are advisory, not loadable).
                let note = usize::try_from(ph.p_offset)
                    .ok()
                    .zip(usize::try_from(ph.p_filesz).ok())
                    .and_then(|(lo, sz)| binary.get(lo..lo.checked_add(sz)?));
                if let Some(traps) = note.and_then(e9patch::rewriter::manifest::decode) {
                    vm.traps.extend(traps);
                }
            }
            _ => {}
        }
    }

    // Stack.
    vm.mem
        .map_anon(STACK_TOP - STACK_SIZE, STACK_SIZE, Perms::RW);
    vm.cpu.set(e9x86::Reg::Rsp, STACK_TOP - PAGE_SIZE);
    vm.cpu.rip = elf.entry();
    Ok(())
}

/// Convenience: load and run a binary, returning the run result.
///
/// # Errors
///
/// Propagates load and execution errors (boxed, since they are different
/// types).
pub fn run_binary(
    binary: &[u8],
    max_steps: u64,
) -> Result<crate::exec::RunResult, Box<dyn std::error::Error>> {
    let mut vm = Vm::new();
    load_elf(&mut vm, binary)?;
    Ok(vm.run(max_steps)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9elf::build::ElfBuilder;
    use e9x86::asm::{Asm, Mem};
    use e9x86::reg::{Reg, Width};

    /// Assemble a tiny program: exit(42).
    fn exit42() -> Vec<u8> {
        let mut a = Asm::new(0x401000);
        a.mov_ri32(Reg::Rax, 60);
        a.mov_ri32(Reg::Rdi, 42);
        a.syscall();
        let code = a.finish().unwrap();
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.entry(0x401000);
        b.build()
    }

    #[test]
    fn run_exit42() {
        let r = run_binary(&exit42(), 1000).unwrap();
        assert_eq!(r.exit_code, 42);
        assert_eq!(r.insns, 3);
    }

    #[test]
    fn write_syscall_captures_output() {
        let mut a = Asm::new(0x401000);
        let msg = a.fresh_label();
        a.lea(Reg::Rsi, Mem::rip(msg));
        a.mov_ri32(Reg::Rax, 1);
        a.mov_ri32(Reg::Rdi, 1);
        a.mov_ri32(Reg::Rdx, 5);
        a.syscall();
        a.mov_ri32(Reg::Rax, 60);
        a.mov_ri32(Reg::Rdi, 0);
        a.syscall();
        a.bind(msg);
        a.raw(b"hello");
        let code = a.finish().unwrap();
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.entry(0x401000);
        let r = run_binary(&b.build(), 1000).unwrap();
        assert_eq!(r.output, b"hello");
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn writable_data_is_private() {
        // Store to .data, read back, exit with the value.
        let mut a = Asm::new(0x401000);
        a.mov_ri64(Reg::Rbx, 0x403000);
        a.mov_mi(Width::Q, Mem::base(Reg::Rbx), 7);
        a.add_mr(Width::Q, Mem::base(Reg::Rbx), Reg::Rbx); // data += rbx
        a.mov_rm(Width::Q, Reg::Rdi, Mem::base(Reg::Rbx));
        a.sub_ri(Width::Q, Reg::Rdi, 0x403000);
        a.mov_ri32(Reg::Rax, 60);
        a.syscall();
        let code = a.finish().unwrap();
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.data(vec![0; 16], 0x403000);
        b.entry(0x401000);
        let r = run_binary(&b.build(), 1000).unwrap();
        assert_eq!(r.exit_code, 7);
    }

    #[test]
    fn bss_is_zeroed() {
        let mut a = Asm::new(0x401000);
        a.mov_ri64(Reg::Rbx, 0x500000);
        a.mov_rm(Width::Q, Reg::Rdi, Mem::base(Reg::Rbx));
        a.mov_ri32(Reg::Rax, 60);
        a.syscall();
        let code = a.finish().unwrap();
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.bss(0x2000, 0x500000);
        b.entry(0x401000);
        let r = run_binary(&b.build(), 1000).unwrap();
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn stack_works() {
        let mut a = Asm::new(0x401000);
        let f = a.fresh_label();
        a.mov_ri32(Reg::Rdi, 5);
        a.call(f);
        a.mov_ri32(Reg::Rax, 60);
        a.syscall();
        a.bind(f);
        a.push_r(Reg::Rdi);
        a.pop_r(Reg::Rdi);
        a.add_ri(Width::Q, Reg::Rdi, 1);
        a.ret();
        let code = a.finish().unwrap();
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.entry(0x401000);
        let r = run_binary(&b.build(), 1000).unwrap();
        assert_eq!(r.exit_code, 6);
    }

    #[test]
    fn heap_pseudo_syscalls() {
        // p = malloc(64); *p = 9; exit(*p).
        let mut a = Asm::new(0x401000);
        a.mov_ri64(Reg::Rax, crate::exec::SYS_MALLOC as i64);
        a.mov_ri32(Reg::Rdi, 64);
        a.syscall();
        a.mov_rr(Width::Q, Reg::Rbx, Reg::Rax);
        a.mov_mi(Width::Q, Mem::base(Reg::Rbx), 9);
        a.mov_rm(Width::Q, Reg::Rdi, Mem::base(Reg::Rbx));
        a.mov_ri64(Reg::Rax, crate::exec::SYS_FREE as i64);
        a.mov_rr(Width::Q, Reg::Rdi, Reg::Rbx); // free(p) — clobbers rdi
        a.syscall();
        a.mov_rm(Width::Q, Reg::Rdi, Mem::base(Reg::Rbx));
        a.mov_ri32(Reg::Rax, 60);
        a.syscall();
        let code = a.finish().unwrap();
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.entry(0x401000);
        let r = run_binary(&b.build(), 1000).unwrap();
        assert_eq!(r.exit_code, 9);
    }

    #[test]
    fn step_limit_enforced() {
        // Infinite loop.
        let mut a = Asm::new(0x401000);
        let top = a.fresh_label();
        a.bind(top);
        a.jmp(top);
        let code = a.finish().unwrap();
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.entry(0x401000);
        let mut vm = Vm::new();
        load_elf(&mut vm, &b.build()).unwrap();
        assert!(matches!(
            vm.run(100),
            Err(crate::exec::VmError::StepLimit(_))
        ));
    }
}
