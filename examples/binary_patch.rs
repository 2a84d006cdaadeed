//! Binary patching (the paper's Example 3.1 / Figure 2, modelled on
//! CVE-2019-18408): fix a bug at the *binary* level by diverting one
//! instruction through a trampoline that executes the missing code.
//!
//! The buggy program "frees" a context but forgets to set a
//! `start_new_table` flag, so a later phase reads a stale table and
//! produces a wrong answer. The developer's source patch adds
//! `flag = 1` after the free; we apply the equivalent at the binary level
//! by patching the first instruction after the `call`, exactly as the
//! paper does.
//!
//! Run with: `cargo run --release --example binary_patch`

use e9patch::{PatchRequest, RewriteConfig, Rewriter, Template};
use e9x86::asm::{Asm, Mem};
use e9x86::decode::linear_sweep;
use e9x86::reg::{Reg, Width};

const FLAG_ADDR: u64 = 0x403000;

/// The buggy binary: after `call free_ctx`, the flag should be set to 1
/// but isn't; the epilogue then reports `flag` as the exit code.
fn buggy_program() -> (Vec<u8>, u64) {
    let mut a = Asm::new(0x401000);
    let free_ctx = a.fresh_label();

    a.mov_ri32(Reg::Rbx, 7); // some live state
    a.call(free_ctx);
    // >>> patch location: first instruction after the call (the paper
    //     patches 0x422a61, the first instruction after `callq free`).
    let patch_site = a.here();
    a.mov_rr(Width::Q, Reg::Rbp, Reg::Rbx); // mov %rbx,%rbp (like Fig. 2's mov %ebx,%ebp)
                                            // ... missing here: flag = 1 ...
                                            // Epilogue: exit(flag).
    a.mov_ri64(Reg::Rax, FLAG_ADDR as i64);
    a.mov_rm(Width::Q, Reg::Rdi, Mem::base(Reg::Rax));
    a.mov_ri32(Reg::Rax, 60);
    a.syscall();

    a.bind(free_ctx);
    a.mov_ri32(Reg::Rcx, 0); // "ppmd7.free(&rar->context)"
    a.ret();

    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.data(vec![0u8; 16], FLAG_ADDR); // the flag cell, initially 0
    b.entry(0x401000);
    (b.build(), patch_site)
}

/// The binary-level equivalent of the developer patch: set the flag, then
/// perform the displaced instruction's work, then resume. (Compare the
/// paper's Figure 2(e) patch trampoline.)
fn patch_code() -> Vec<u8> {
    let mut a = Asm::new(0); // position-independent: absolute addressing only
    a.push_r(Reg::Rax);
    a.mov_ri64(Reg::Rax, FLAG_ADDR as i64);
    a.mov_mi(Width::Q, Mem::base(Reg::Rax), 1); // rar->start_new_table = 1
    a.pop_r(Reg::Rax);
    a.mov_rr(Width::Q, Reg::Rbp, Reg::Rbx); // re-execute the displaced mov
    a.finish().unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (binary, patch_site) = buggy_program();

    let buggy = e9vm::run_binary(&binary, 100_000)?;
    println!(
        "buggy run:   exit {} (flag never set — the bug)",
        buggy.exit_code
    );
    assert_eq!(buggy.exit_code, 0);

    // Disassemble and patch the single site — only *partial* disassembly
    // around the patch location is actually required (paper §3.3).
    let elf = e9elf::Elf::parse(&binary)?;
    let text = elf.section(".text").expect(".text");
    let disasm = linear_sweep(elf.section_bytes(".text").unwrap(), text.sh_addr);

    let out = Rewriter::new(RewriteConfig::default()).rewrite(
        &binary,
        &disasm,
        &[PatchRequest {
            addr: patch_site,
            template: Template::Replace {
                code: patch_code(),
                resume: None, // continue at the next instruction
            },
        }],
        &[],
    )?;
    println!(
        "patched 1 site via {:?} tactic mix: {:?}",
        if out.stats.t3 > 0 { "T3" } else { "B/T1/T2" },
        out.stats
    );

    let fixed = e9vm::run_binary(&out.binary, 100_000)?;
    println!(
        "patched run: exit {} (flag set — bug fixed)",
        fixed.exit_code
    );
    assert_eq!(fixed.exit_code, 1);
    println!("binary-level patch applied successfully ✓");
    Ok(())
}
