//! Campaign smoke: a bounded seeded run of both fault surfaces must be
//! panic-free and bit-for-bit reproducible.
//!
//! The seed is taken from `E9FAULT_SEED` (default 42) so a CI failure log
//! carries everything needed to replay it locally:
//!
//! ```console
//! $ E9FAULT_SEED=<seed> cargo run -p e9faultgen --bin e9fault -- \
//!       --surface <elf|wire> --case <index>
//! ```

use e9faultgen::{case_rng, elf, seed_from_env, wire, Outcome, Surface};

#[test]
fn elf_campaign_is_panic_free() {
    let seed = seed_from_env();
    let report = e9faultgen::run_elf_campaign(seed, 300);
    assert!(
        report.is_clean(),
        "elf campaign panicked; replay with:\n{}",
        report.replay_lines()
    );
    // A campaign that rejects nothing is not exercising the error paths.
    assert!(report.rejected > 0, "no mutant was rejected: {}", report.summary());
}

#[test]
fn wire_campaign_is_panic_free() {
    let seed = seed_from_env();
    let report = e9faultgen::run_wire_campaign(seed, 200);
    assert!(
        report.is_clean(),
        "wire campaign panicked; replay with:\n{}",
        report.replay_lines()
    );
    assert!(report.rejected > 0, "no mutant was rejected: {}", report.summary());
}

#[test]
fn cache_campaign_is_panic_free() {
    // Damaged on-disk cache entries must be refused with typed errors,
    // quarantined, and recoverable through the cold path — never served
    // as wrong bytes and never a panic (cache_case folds contract
    // violations into the panic count).
    let seed = seed_from_env();
    let report = e9faultgen::run_cache_campaign(seed, 80);
    assert!(
        report.is_clean(),
        "cache campaign panicked; replay with:\n{}",
        report.replay_lines()
    );
    assert!(report.rejected > 0, "no mutant was rejected: {}", report.summary());
}

#[cfg(target_os = "linux")]
#[test]
fn loop_campaign_is_panic_free() {
    // Hostile client *behaviors* (slow-loris, partial lines, mid-poll
    // disconnects, never-reading queue-fillers) against a live reactor:
    // the loop must never panic and must keep serving a healthy
    // connection while hostile ones are parked or shed. loop_case folds
    // a stalled healthy probe into the panic count.
    let seed = seed_from_env();
    let report = e9faultgen::run_loop_campaign(seed, 8);
    assert!(
        report.is_clean(),
        "loop campaign panicked; replay with:\n{}",
        report.replay_lines()
    );
    assert!(
        report.rejected > 0,
        "no behavior was shed or answered with a typed error: {}",
        report.summary()
    );
}

#[test]
fn cache_campaign_is_deterministic() {
    let a = e9faultgen::run_cache_campaign(9, 30);
    let b = e9faultgen::run_cache_campaign(9, 30);
    assert_eq!((a.accepted, a.rejected), (b.accepted, b.rejected));
    assert!(a.is_clean() && b.is_clean());
}

#[test]
fn campaigns_are_deterministic() {
    let a = e9faultgen::run_elf_campaign(7, 40);
    let b = e9faultgen::run_elf_campaign(7, 40);
    assert_eq!((a.accepted, a.rejected), (b.accepted, b.rejected));
    let a = e9faultgen::run_wire_campaign(7, 40);
    let b = e9faultgen::run_wire_campaign(7, 40);
    assert_eq!((a.accepted, a.rejected), (b.accepted, b.rejected));
}

#[test]
fn case_generation_is_index_addressable() {
    // Case i regenerated in isolation must equal case i from a sweep:
    // that's what makes `--case N` replay trustworthy.
    let base = elf::baseline_elf();
    let sweep: Vec<Vec<u8>> = (0..10)
        .map(|i| elf::mutate(&mut case_rng(42, Surface::Elf, i), &base))
        .collect();
    let replayed = elf::mutate(&mut case_rng(42, Surface::Elf, 7), &base);
    assert_eq!(sweep[7], replayed);

    let script = wire::baseline_script();
    let sweep: Vec<Vec<u8>> = (0..10)
        .map(|i| wire::mutate(&mut case_rng(42, Surface::Wire, i), &script))
        .collect();
    let replayed = wire::mutate(&mut case_rng(42, Surface::Wire, 3), &script);
    assert_eq!(sweep[3], replayed);
}

#[test]
fn mutants_actually_differ_from_baseline() {
    // Mutation must not be the identity function, or the campaign is a
    // very expensive no-op. (A rare fixed-point for one index is fine;
    // all-identical would mean a broken generator.)
    let base = elf::baseline_elf();
    let changed = (0..20)
        .filter(|&i| elf::mutate(&mut case_rng(1, Surface::Elf, i), &base) != base)
        .count();
    assert!(changed >= 15, "only {changed}/20 elf mutants differed");

    let script = wire::baseline_script();
    let changed = (0..20)
        .filter(|&i| wire::mutate(&mut case_rng(1, Surface::Wire, i), &script) != script)
        .count();
    assert!(changed >= 15, "only {changed}/20 wire mutants differed");
}

#[test]
fn inflated_granularity_is_rejected_not_panicked() {
    // The baseline carries an `option granularity` line so numeric
    // inflation reaches the config decoder; these values would panic the
    // rewriter at `emit` if the decoder let them through.
    let script = String::from_utf8(wire::baseline_script()).unwrap();
    let line = r#""params":{"name":"granularity","value":"1"}"#;
    assert!(script.contains(line), "no option granularity line in:\n{script}");
    for m in ["34359738367", "4503599627370496"] {
        let inflated = format!(r#""params":{{"name":"granularity","value":"{m}"}}"#);
        let mutant = script.replace(line, &inflated);
        assert_eq!(wire::wire_case(mutant.as_bytes()), Outcome::Rejected, "granularity {m}");
    }
}
