//! Execution tracing through binary rewriting: instrument every jump with
//! a hook that records the site address into a ring buffer, then read the
//! trace back — the building block of coverage-guided fuzzing on stripped
//! binaries (one of the paper's §1 motivating applications).
//!
//! Run with: `cargo run --release --example trace_sites`

use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9synth::{generate, Profile};
use e9x86::fmt::format_insn;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prog = generate(&Profile::tiny("trace-demo", false));
    let out = instrument_with_disasm(
        &prog.binary,
        &prog.disasm,
        &Options::new(Application::A1Jumps, Payload::Trace),
    )?;
    println!(
        "instrumented {} jump sites with the trace hook ({:.1}% coverage)",
        out.sites,
        out.rewrite.stats.succ_pct()
    );

    let mut vm = e9vm::Vm::new();
    e9vm::load_elf(&mut vm, &out.rewrite.binary)?;
    vm.run(200_000_000)?;

    let hdr = out.trace_addr.unwrap();
    let events = vm.mem.read_le(hdr, 8)?;
    let cap = vm.mem.read_le(hdr + 8, 8)?;
    println!("trace recorded {events} control-flow events (ring capacity {cap})");

    // Histogram of the hottest sites, annotated with their disassembly.
    let by_addr: HashMap<u64, &e9x86::Insn> = prog.disasm.iter().map(|i| (i.addr, i)).collect();
    let mut hist: HashMap<u64, u64> = HashMap::new();
    for i in 0..events.min(cap) {
        let site = vm.mem.read_le(hdr + 16 + i * 8, 8)?;
        *hist.entry(site).or_default() += 1;
    }
    let mut hottest: Vec<(u64, u64)> = hist.into_iter().collect();
    hottest.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\nhottest traced jump sites:");
    for (site, n) in hottest.into_iter().take(8) {
        let what = by_addr
            .get(&site)
            .map(|i| format_insn(i))
            .unwrap_or_else(|| "?".into());
        println!("  {site:#x}  ×{n:<6} {what}");
    }
    Ok(())
}
