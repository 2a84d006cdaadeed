//! Coverage anatomy: which tactic patches which site, and why coverage
//! differs between a non-PIE binary (negative punned offsets invalid) and
//! a PIE binary loaded high (both directions valid) — the paper's §5.1
//! PIE discussion.
//!
//! Run with: `cargo run --release --example coverage_report`

use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9patch::{RewriteConfig, Tactics};
use e9synth::{generate, Profile};

fn report(name: &str, pie: bool) {
    let prog = generate(&Profile::tiny(name, pie));
    println!(
        "\n=== {name} ({}) — {} instructions ===",
        if pie {
            "PIE, high base"
        } else {
            "non-PIE @0x400000"
        },
        prog.disasm.len()
    );
    println!(
        "{:<26} {:>6} {:>7} {:>6} {:>6} {:>6} {:>8}",
        "tactic set", "#Loc", "Base%", "T1%", "T2%", "T3%", "Succ%"
    );
    for (label, tactics) in [
        ("B1/B2 only", Tactics::base_only()),
        ("all tactics", Tactics::all()),
    ] {
        let out = instrument_with_disasm(
            &prog.binary,
            &prog.disasm,
            &Options {
                app: Application::A1Jumps,
                payload: Payload::Empty,
                config: RewriteConfig {
                    tactics,
                    ..RewriteConfig::default()
                },
            },
        )
        .expect("instrument");
        let s = out.rewrite.stats;
        println!(
            "{:<26} {:>6} {:>7.2} {:>6.2} {:>6.2} {:>6.2} {:>8.2}",
            label,
            s.total(),
            s.base_pct(),
            s.t1_pct(),
            s.t2_pct(),
            s.t3_pct(),
            s.succ_pct()
        );
    }
}

fn main() {
    println!("Why PIE binaries are easier to patch (paper §5.1):");
    println!("non-PIE code sits at 0x400000, so punned rel32 values with the");
    println!("sign bit set point below zero — invalid. PIE code loads high,");
    println!("doubling the valid offsets.");
    report("coverage-demo", false);
    report("coverage-demo", true);
}
