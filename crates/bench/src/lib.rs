//! # e9bench — measurement harness for the paper's evaluation
//!
//! Shared machinery for the table/figure generator binaries (`table1`,
//! `fig4`, `fig5`, `ablation_grouping`, `ablation_tactics`, `b0_cost`,
//! `granularity`) and the in-tree micro-benchmarks (see [`harness`]). See DESIGN.md §3 for
//! the experiment index and EXPERIMENTS.md for recorded results.
//!
//! Every measurement *also* verifies correctness: the patched binary must
//! produce byte-identical output and exit code to the original, or the
//! harness panics — a rewritten benchmark that silently misbehaves would
//! invalidate the numbers.

use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9patch::{PatchStats, RewriteConfig, SizeStats};
use e9synth::{generate, Profile};
use e9vm::{load_elf, RunResult, Vm};

pub mod harness;

/// Upper bound on emulated cost units per run.
pub const MAX_STEPS: u64 = 2_000_000_000;

/// Run `binary`, optionally with the low-fat heap backend. Returns the run
/// result plus the low-fat violation count read from `violations_addr`.
///
/// When `main_entry` is given, cost units spent *before* control first
/// reaches that address (the injected loader's startup `mmap` loop) are
/// subtracted from the reported steps — the paper measures steady-state
/// benchmark time, and startup mapping cost is a one-off. The raw startup
/// cost is returned separately.
///
/// # Panics
///
/// Panics on guest errors — benchmark binaries are expected to be correct.
pub fn run_guest(
    binary: &[u8],
    lowfat: bool,
    violations_addr: Option<u64>,
    main_entry: Option<u64>,
) -> (RunResult, u64, u64) {
    let mut vm = Vm::new();
    if lowfat {
        vm.set_heap(Box::new(e9lowfat::LowFatAllocator::new()));
    }
    load_elf(&mut vm, binary).expect("load benchmark binary");
    let mut startup = 0u64;
    if let Some(entry) = main_entry {
        while vm.cpu.rip != entry {
            vm.step().expect("loader step");
            assert!(vm.steps < MAX_STEPS, "loader never reached the entry");
        }
        startup = vm.steps;
    }
    let mut r = vm.run(MAX_STEPS).expect("run benchmark binary");
    r.steps -= startup;
    r.insns -= startup;
    let v = violations_addr
        .map(|a| vm.mem.read_le(a, 8).unwrap_or(0))
        .unwrap_or(0);
    (r, v, startup)
}

/// One measured table row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Number of selected patch sites (#Loc).
    pub sites: usize,
    /// Tactic outcome counters.
    pub stats: PatchStats,
    /// File-size statistics.
    pub size: SizeStats,
    /// Patched/original cost ratio × 100 (the paper's Time% column).
    pub time_pct: f64,
    /// Original run cost (diagnostics).
    pub orig_steps: u64,
    /// Patched run cost (diagnostics).
    pub patched_steps: u64,
    /// Low-fat violations observed (0 for clean programs).
    pub violations: u64,
    /// One-off startup cost of the injected loader (mapping loop).
    pub loader_steps: u64,
    /// Paper reference values, when the profile has them.
    pub paper: Option<e9synth::PaperRow>,
}

/// Generate, instrument, and measure one profile under one application.
///
/// # Panics
///
/// Panics if the patched binary diverges from the original — correctness
/// is a precondition for reporting performance.
pub fn measure(profile: &Profile, app: Application, payload: Payload, cfg: RewriteConfig) -> Row {
    let sb = generate(profile);
    let lowfat = payload == Payload::LowFat;
    let (orig, _, _) = run_guest(&sb.binary, lowfat, None, None);

    let opts = Options {
        app,
        payload,
        config: cfg,
    };
    let out = instrument_with_disasm(&sb.binary, &sb.disasm, &opts)
        .expect("instrumentation must not error");
    let (patched, violations, loader_steps) = run_guest(
        &out.rewrite.binary,
        lowfat,
        out.violations_addr,
        Some(sb.entry),
    );

    assert_eq!(
        patched.output, orig.output,
        "{}: patched output diverged",
        profile.name
    );
    assert_eq!(
        patched.exit_code, orig.exit_code,
        "{}: patched exit code diverged",
        profile.name
    );

    Row {
        name: profile.name.clone(),
        sites: out.sites,
        stats: out.rewrite.stats,
        size: out.rewrite.size,
        time_pct: 100.0 * patched.steps as f64 / orig.steps.max(1) as f64,
        orig_steps: orig.steps,
        patched_steps: patched.steps,
        violations,
        loader_steps,
        paper: profile.paper,
    }
}

/// Format a Table-1-style header.
pub fn table1_header(app: &str) -> String {
    format!(
        "{:<14} {:>8} {:>7} {:>6} {:>6} {:>6} {:>7} {:>8} {:>8}   [{app}]",
        "Binary", "#Loc", "Base%", "T1%", "T2%", "T3%", "Succ%", "Time%", "Size%"
    )
}

/// Format one Table-1-style row.
pub fn table1_row(r: &Row) -> String {
    format!(
        "{:<14} {} {:>8.2} {:>8.2}",
        r.name,
        r.stats.table_row(),
        r.time_pct,
        r.size.size_pct()
    )
}

/// Scale factor from the `E9_SCALE` environment variable (default
/// [`e9synth::DEFAULT_SCALE`]). Larger = smaller/faster benchmarks.
pub fn scale_from_env() -> u64 {
    std::env::var("E9_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(e9synth::DEFAULT_SCALE)
}

/// `--quick` flag or `E9_QUICK=1`: run a representative subset.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("E9_QUICK").is_ok_and(|v| v == "1")
}

/// Geometric mean helper (the paper reports geo-means for Figure 4).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9patch::Tactics;

    #[test]
    fn measure_tiny_a1() {
        let p = Profile::tiny("benchtest", false);
        let row = measure(
            &p,
            Application::A1Jumps,
            Payload::Empty,
            RewriteConfig::default(),
        );
        assert!(row.sites > 0);
        assert!(row.time_pct > 100.0, "instrumentation must cost something");
        assert_eq!(row.stats.total(), row.sites);
    }

    #[test]
    fn measure_tiny_a2_lowfat() {
        let p = Profile::tiny("benchlf", false);
        let row = measure(
            &p,
            Application::A2HeapWrites,
            Payload::LowFat,
            RewriteConfig::default(),
        );
        assert_eq!(row.violations, 0);
        assert!(row.time_pct >= 100.0);
    }

    #[test]
    fn ablation_config_reduces_coverage() {
        let p = Profile::tiny("benchabl", false);
        let full = measure(
            &p,
            Application::A1Jumps,
            Payload::Empty,
            RewriteConfig::default(),
        );
        let base = measure(
            &p,
            Application::A1Jumps,
            Payload::Empty,
            RewriteConfig {
                tactics: Tactics::base_only(),
                ..RewriteConfig::default()
            },
        );
        assert!(base.stats.succ_pct() <= full.stats.succ_pct());
    }

    #[test]
    fn geomean_sane() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn formatting_contains_columns() {
        let h = table1_header("A1");
        assert!(h.contains("Base%"));
        assert!(h.contains("Succ%"));
    }
}
