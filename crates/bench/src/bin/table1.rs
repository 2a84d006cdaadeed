//! Experiment E1 — regenerate **Table 1** (patching statistics).
//!
//! For every benchmark row: #Loc, Base%, T1%, T2%, T3%, Succ%, Time%,
//! Size% for applications A1 (all jmp/jcc) and A2 (heap writes), on
//! synthetic stand-ins scaled by `E9_SCALE` (default 50).
//!
//! Usage: `cargo run --release -p e9bench --bin table1 [--quick]`

use e9bench::{measure, quick_from_args, scale_from_env, table1_header, table1_row};
use e9front::{Application, Payload};
use e9patch::RewriteConfig;

fn main() {
    let scale = scale_from_env();
    let quick = quick_from_args();
    let mut profiles = e9synth::all_profiles(scale);
    if quick {
        let keep = [
            "perlbench",
            "bzip2",
            "gamess",
            "mcf",
            "lbm",
            "vim",
            "chrome",
            "libxul.so",
        ];
        profiles.retain(|p| keep.contains(&p.name.as_str()));
    }

    println!(
        "Table 1 reproduction (scale 1/{scale}{})",
        if quick { ", --quick" } else { "" }
    );
    println!("PIE rows: inkscape, vim, evince, chrome, firefox\n");

    for (app, app_name, payload) in [
        (
            Application::A1Jumps,
            "A1: jmp/jcc instructions",
            Payload::Empty,
        ),
        (
            Application::A2HeapWrites,
            "A2: heap write instructions",
            Payload::Empty,
        ),
    ] {
        println!("{}", table1_header(app_name));
        let mut total_sites = 0usize;
        let mut total_succ = 0usize;
        let mut time_pcts = Vec::new();
        let mut size_pcts = Vec::new();
        for p in &profiles {
            let row = measure(p, app, payload, RewriteConfig::default());
            println!("{}", table1_row(&row));
            total_sites += row.stats.total();
            total_succ += row.stats.succeeded();
            time_pcts.push(row.time_pct);
            size_pcts.push(row.size.size_pct());
        }
        let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:<14} {:>8} {:>38.2}% {:>8.2} {:>8.2}   (totals)",
            "#Total/Avg",
            total_sites,
            100.0 * total_succ as f64 / total_sites.max(1) as f64,
            avg(&time_pcts),
            avg(&size_pcts)
        );
        println!();
    }
    println!("paper reference: A1 avg Succ 99.94%, Time +110.81%, Size +57.43%");
    println!("                 A2 avg Succ 99.99%, Time +64.71%, Size +30.90%");
}
