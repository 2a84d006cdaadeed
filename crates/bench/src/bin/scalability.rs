//! Scalability curve: rewriting wall-clock and peak memory versus
//! patch-site count.
//!
//! The paper's central systems claim is that E9Patch's *local* patching
//! methodology scales to very large binaries — cost should grow roughly
//! linearly with the number of sites, with no global-analysis blow-up.
//!
//! Each row runs in its own process (this binary, re-run with
//! `--row SCALE`), so its `VmHWM` from `/proc/self/status` is the peak
//! resident set of that row alone: generating the input, decoding it,
//! and three rewrites. The rewrite time is the median of the three.
//!
//! Usage: `cargo run --release -p e9bench --bin scalability`

use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9patch::RewriteConfig;
use e9synth::{generate, PaperRow, Preset, Profile};
use std::process::Command;
use std::time::Instant;

/// Synthetic scales swept, smallest input first (paper Chrome ≈ 3.8M
/// sites at scale 1).
const SCALES: [u64; 5] = [2000, 500, 100, 25, 10];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--row") {
        let scale = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--row SCALE");
        row(scale);
        return;
    }
    println!("Rewrite cost vs. site count (A1, empty payload; one process per row)\n");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "sites", "gen(ms)", "rewrite(ms)", "sites/sec", "Succ%", "VmHWM(MiB)"
    );
    let exe = std::env::current_exe().expect("locate this binary");
    for scale in SCALES {
        let out = Command::new(&exe)
            .args(["--row", &scale.to_string()])
            .output()
            .expect("run a row");
        assert!(out.status.success(), "row at scale {scale} failed");
        print!("{}", String::from_utf8_lossy(&out.stdout));
    }
}

/// Generate, decode and rewrite the browser-mix row at `scale` three
/// times, then print its line of the table.
fn row(scale: u64) {
    let profile = Profile::scaled(
        &format!("scal-{scale}"),
        true, // PIE, like the browsers
        Preset::Browser,
        PaperRow {
            size_mb: 152.0,
            a1_loc: 3_800_565,
            a2_loc: 2_624_800,
            a1_succ: 100.0,
            a2_succ: 100.0,
        },
        scale,
        0,
        1,
    );
    let t0 = Instant::now();
    let sb = generate(&profile);
    let gen_ms = t0.elapsed().as_millis();
    let sites = sb.disasm.iter().filter(|i| i.kind.is_jump()).count();

    let opts = Options {
        app: Application::A1Jumps,
        payload: Payload::Empty,
        config: RewriteConfig::default(),
    };
    let mut times = Vec::new();
    let mut succ = 0.0;
    for _ in 0..3 {
        let t1 = Instant::now();
        let out = instrument_with_disasm(&sb.binary, &sb.disasm, &opts).expect("instrument");
        times.push(t1.elapsed().as_secs_f64() * 1e3);
        succ = out.rewrite.stats.succ_pct();
    }
    times.sort_by(f64::total_cmp);
    let rw_ms = times[1];
    println!(
        "{:>10} {:>12} {:>12.0} {:>14.0} {:>11.2}% {:>12.1}",
        sites,
        gen_ms,
        rw_ms,
        sites as f64 / (rw_ms / 1000.0),
        succ,
        vm_hwm_kib() as f64 / 1024.0
    );
}

/// This process's peak resident set (`VmHWM`), in KiB; 0 where
/// `/proc/self/status` does not report it.
fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
