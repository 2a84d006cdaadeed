//! Cross-crate acceptance tests for the rewrite cache (PR 5): a cold run
//! populates the store, a warm run hits byte-identically — including from
//! a fresh process-like cache over the same directory — and a corrupted
//! disk entry degrades to a recomputed, still byte-identical result with
//! the verification-failure counter ticking.

use e9cache::{Cache, CacheConfig};
use e9front::{disassemble_text, instrument_cached, instrument_with_disasm};
use e9front::{Application, Options, Payload};
use e9proto::CacheDisposition;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("e9suite-cache-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn workload() -> (Vec<u8>, Vec<e9x86::insn::Insn>, Options) {
    let sb = e9synth::generate(&e9synth::Profile::tiny("suite-cache", false));
    let disasm = disassemble_text(&sb.binary).unwrap();
    (
        sb.binary,
        disasm,
        Options::new(Application::A1Jumps, Payload::Counter),
    )
}

/// The on-disk object file for `hex` under `root` (CAS fan-out layout).
fn object_path(root: &std::path::Path, hex: &str) -> std::path::PathBuf {
    root.join("objects").join(&hex[..2]).join(&hex[2..])
}

#[test]
fn cold_run_stores_warm_run_hits_byte_identically() {
    let dir = tmpdir("warm");
    // The synth workload is tiny, far below the default bypass threshold;
    // these tests exercise the cache mechanics, so disable the bypass.
    let config = CacheConfig {
        dir: Some(dir.clone()),
        bypass_bytes: 0,
        ..CacheConfig::default()
    };
    let (bin, disasm, opts) = workload();
    let baseline = instrument_with_disasm(&bin, &disasm, &opts).unwrap();

    // Cold: miss, stored, and exactly the uncached pipeline's bytes.
    let cache = Cache::open(&config).unwrap();
    let cold = instrument_cached(&bin, &disasm, &opts, &cache).unwrap();
    let outcome = cold
        .cache
        .clone()
        .expect("cached path must report an outcome");
    assert_eq!(outcome.disposition, CacheDisposition::Miss);
    assert_eq!(cold.rewrite.binary, baseline.rewrite.binary);
    assert_eq!(cache.stats().stores, 1);

    // Warm, same cache object: memory-tier hit.
    let warm = instrument_cached(&bin, &disasm, &opts, &cache).unwrap();
    let warm_outcome = warm.cache.clone().unwrap();
    assert_eq!(warm_outcome.disposition, CacheDisposition::Hit);
    assert_eq!(warm_outcome.digest, outcome.digest);
    assert_eq!(warm.rewrite.binary, baseline.rewrite.binary);
    assert_eq!(warm.rewrite.stats, baseline.rewrite.stats);
    assert_eq!(warm.rewrite.reports, baseline.rewrite.reports);
    assert_eq!(warm.rewrite.mappings, baseline.rewrite.mappings);
    assert!(cache.stats().mem_hits >= 1, "{:?}", cache.stats());

    // Warm, fresh cache over the same directory (a new `e9tool patch`
    // process): disk-tier hit, still byte-identical.
    let fresh = Cache::open(&config).unwrap();
    let disk_warm = instrument_cached(&bin, &disasm, &opts, &fresh).unwrap();
    assert_eq!(
        disk_warm.cache.clone().unwrap().disposition,
        CacheDisposition::Hit
    );
    assert_eq!(disk_warm.rewrite.binary, baseline.rewrite.binary);
    assert_eq!(fresh.stats().disk_hits, 1, "{:?}", fresh.stats());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiny_input_bypasses_an_untuned_cache() {
    // Under the DEFAULT config (bypass threshold engaged) the same tiny
    // workload must skip the cache: correct bytes, `Bypass` disposition,
    // bypass counter ticking, and nothing keyed or stored.
    let dir = tmpdir("bypass");
    let config = CacheConfig {
        dir: Some(dir.clone()),
        ..CacheConfig::default()
    };
    let (bin, disasm, opts) = workload();
    let baseline = instrument_with_disasm(&bin, &disasm, &opts).unwrap();

    let cache = Cache::open(&config).unwrap();
    let res = instrument_cached(&bin, &disasm, &opts, &cache).unwrap();
    let outcome = res
        .cache
        .clone()
        .expect("cached path must report an outcome");
    assert_eq!(outcome.disposition, CacheDisposition::Bypass);
    assert_eq!(outcome.digest, None, "bypassed runs are never keyed");
    assert_eq!(res.rewrite.binary, baseline.rewrite.binary);

    let stats = cache.stats();
    assert_eq!(stats.bypasses, 1, "{stats:?}");
    assert_eq!(stats.stores, 0, "{stats:?}");
    assert_eq!(stats.misses, 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_disk_entry_degrades_to_recomputed_identical_output() {
    let dir = tmpdir("corrupt");
    let config = CacheConfig {
        dir: Some(dir.clone()),
        bypass_bytes: 0,
        ..CacheConfig::default()
    };
    let (bin, disasm, opts) = workload();

    // Prime the disk tier, then flip a byte in the stored object.
    let digest_hex = {
        let cache = Cache::open(&config).unwrap();
        let cold = instrument_cached(&bin, &disasm, &opts, &cache).unwrap();
        cold.cache.unwrap().digest.expect("miss carries the digest")
    };
    let object = object_path(&dir, &digest_hex);
    let mut stored = std::fs::read(&object).unwrap();
    let mid = stored.len() / 2;
    stored[mid] ^= 0x40;
    std::fs::write(&object, &stored).unwrap();

    // A fresh cache must detect the damage (verify-failure counter), fall
    // back to a cold rewrite with byte-identical output, quarantine the
    // bad entry, and leave the store serviceable (re-stored on miss).
    let baseline = instrument_with_disasm(&bin, &disasm, &opts).unwrap();
    let cache = Cache::open(&config).unwrap();
    let res = instrument_cached(&bin, &disasm, &opts, &cache).unwrap();
    assert_eq!(
        res.cache.clone().unwrap().disposition,
        CacheDisposition::Miss
    );
    assert_eq!(res.rewrite.binary, baseline.rewrite.binary);
    let stats = cache.stats();
    assert_eq!(stats.verify_failures, 1, "{stats:?}");
    assert_eq!(stats.stores, 1, "{stats:?}");
    assert!(
        dir.join("corrupt").join(&digest_hex).is_file(),
        "damaged entry must be quarantined"
    );

    // And the re-stored entry hits again, identically.
    let again = instrument_cached(&bin, &disasm, &opts, &cache).unwrap();
    assert_eq!(
        again.cache.clone().unwrap().disposition,
        CacheDisposition::Hit
    );
    assert_eq!(again.rewrite.binary, baseline.rewrite.binary);

    std::fs::remove_dir_all(&dir).ok();
}
