//! Binary heap-write hardening (the paper's §6.3 application).
//!
//! Builds a program containing a deliberate heap buffer overflow, then
//! hardens the *binary* (no source!) by instrumenting every heap-write
//! instruction with a low-fat-pointer redzone check
//! (`p − base(p) ≥ 16`). Running under the low-fat allocator, the
//! overflow writes land in the next slot's redzone and are detected.
//!
//! Run with: `cargo run --release --example harden_heap`

use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9x86::asm::{Asm, Mem};
use e9x86::decode::linear_sweep;
use e9x86::reg::{Reg, Width};

/// A program that mallocs a 100-byte object and writes 0..=N bytes — the
/// last writes run off the end of the object (a classic overflow).
fn buggy_program() -> Vec<u8> {
    let mut a = Asm::new(0x401000);
    // rbx = malloc(100)  (low-fat slot = 128 bytes ⇒ 112 usable after the
    // 16-byte front redzone; we write 120 qwords of garbage → overflow).
    a.mov_ri64(Reg::Rax, e9vm::SYS_MALLOC as i64);
    a.mov_ri32(Reg::Rdi, 100);
    a.syscall();
    a.mov_rr(Width::Q, Reg::Rbx, Reg::Rax);
    // for i in 0..120 { p[i] = i }  (byte stores)
    let top = a.fresh_label();
    a.mov_ri32(Reg::Rcx, 0);
    a.bind(top);
    a.mov_mr(
        Width::B,
        Mem::base_index(Reg::Rbx, Reg::Rcx, 1, 0),
        Reg::Rcx,
    );
    a.add_ri(Width::Q, Reg::Rcx, 1);
    a.cmp_ri(Width::Q, Reg::Rcx, 120);
    a.jcc(e9x86::Cond::Ne, top);
    a.mov_ri32(Reg::Rax, 60);
    a.mov_ri32(Reg::Rdi, 0);
    a.syscall();
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.entry(0x401000);
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let binary = buggy_program();
    let elf = e9elf::Elf::parse(&binary)?;
    let text = elf.section(".text").expect(".text");
    let disasm = linear_sweep(elf.section_bytes(".text").unwrap(), text.sh_addr);

    // The overflow is invisible without instrumentation:
    let plain = e9vm::run_binary(&binary, 1_000_000)?;
    println!(
        "un-hardened run: exit {} — overflow goes unnoticed",
        plain.exit_code
    );

    // Harden all heap writes with the low-fat redzone check.
    let out = instrument_with_disasm(
        &binary,
        &disasm,
        &Options::new(Application::A2HeapWrites, Payload::LowFat),
    )?;
    println!(
        "hardened {} heap-write sites (coverage {:.1}%)",
        out.sites,
        out.rewrite.stats.succ_pct()
    );

    // Run under the low-fat allocator and read the violation counter.
    let mut vm = e9vm::Vm::new();
    vm.set_heap(Box::new(e9lowfat::LowFatAllocator::new()));
    e9vm::load_elf(&mut vm, &out.rewrite.binary)?;
    let r = vm.run(10_000_000)?;
    let violations = vm.mem.read_le(out.violations_addr.unwrap(), 8)?;
    println!(
        "hardened run: exit {}, redzone violations detected: {violations}",
        r.exit_code
    );

    // 100-byte object in a 128-byte slot: usable bytes = 112 (128 − 16
    // redzone); indices 112..120 fall into the next slot's redzone.
    assert_eq!(violations, 8, "expected exactly the 8 overflow writes");
    println!("the 8 out-of-bounds writes were caught ✓");
    Ok(())
}
