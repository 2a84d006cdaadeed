//! Seed-pinned determinism: the whole pipeline — synthesis, disassembly,
//! tactic planning, grouping, emission — must be a pure function of the
//! seed. Two runs with the same `E9_SEED` produce byte-identical binaries
//! and identical stats summaries; reproduction claims rest on this.
//!
//! The seed defaults to 42 and can be pinned externally:
//! `E9_SEED=7 cargo test --test determinism`.

use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9synth::{generate, Profile};

fn seed_from_env() -> u64 {
    std::env::var("E9_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(42)
}

/// One full synth + rewrite run: returns (input ELF, patched ELF, stats
/// summary line).
fn full_run(
    seed: u64,
    pie: bool,
    app: Application,
    payload: Payload,
) -> (Vec<u8>, Vec<u8>, String) {
    let mut p = Profile::tiny("determinism", pie);
    p.seed = seed;
    p.funcs = 6;
    p.switch_pct = 60;
    let sb = generate(&p);
    let out = instrument_with_disasm(&sb.binary, &sb.disasm, &Options::new(app, payload))
        .expect("instrument");
    let summary = format!("sites={} stats={:?}", out.sites, out.rewrite.stats);
    (sb.binary, out.rewrite.binary, summary)
}

#[test]
fn same_seed_same_bytes() {
    let seed = seed_from_env();
    for (pie, app, payload) in [
        (false, Application::A1Jumps, Payload::Empty),
        (true, Application::A1Jumps, Payload::Empty),
        (false, Application::A2HeapWrites, Payload::Counter),
    ] {
        let a = full_run(seed, pie, app, payload);
        let b = full_run(seed, pie, app, payload);
        assert_eq!(a.0, b.0, "synthesized ELF differs (pie={pie})");
        assert_eq!(a.1, b.1, "patched ELF differs (pie={pie})");
        assert_eq!(a.2, b.2, "stats summary differs (pie={pie})");
    }
}

#[cfg(unix)]
#[test]
fn backend_matches_in_process() {
    // A third run driven through the e9patchd wire protocol: under the
    // same seed the backend path must reproduce the in-process bytes
    // exactly — the frontend/backend split adds no nondeterminism.
    let seed = seed_from_env();
    let (_, in_process, summary) = full_run(seed, false, Application::A1Jumps, Payload::Empty);

    let mut p = Profile::tiny("determinism", false);
    p.seed = seed;
    p.funcs = 6;
    p.switch_pct = 60;
    let sb = generate(&p);
    let opts = Options::new(Application::A1Jumps, Payload::Empty);
    let mut client = e9proto::ProtoClient::in_process().expect("loopback backend");
    let out = e9front::instrument_via_backend(&sb.binary, &sb.disasm, &opts, &mut client)
        .expect("backend instrument");
    assert_eq!(
        out.rewrite.binary, in_process,
        "backend output diverged from in-process output"
    );
    assert_eq!(
        format!("sites={} stats={:?}", out.sites, out.rewrite.stats),
        summary
    );
}

#[test]
fn different_seeds_different_bytes() {
    let seed = seed_from_env();
    let a = full_run(seed, false, Application::A1Jumps, Payload::Empty);
    let b = full_run(
        seed ^ 0x5DEECE66D,
        false,
        Application::A1Jumps,
        Payload::Empty,
    );
    assert_ne!(a.0, b.0, "seed does not steer the generator");
}

#[test]
fn patched_binary_still_runs_deterministically() {
    let seed = seed_from_env();
    let (orig, patched, _) = full_run(seed, false, Application::A1Jumps, Payload::Empty);
    let ro = e9vm::run_binary(&orig, 400_000_000).expect("orig run");
    let rp1 = e9vm::run_binary(&patched, 2_000_000_000).expect("patched run");
    let rp2 = e9vm::run_binary(&patched, 2_000_000_000).expect("patched rerun");
    assert_eq!(ro.output, rp1.output, "rewriting changed behaviour");
    assert_eq!(rp1.output, rp2.output);
    assert_eq!(rp1.insns, rp2.insns, "emulation is not deterministic");
}
