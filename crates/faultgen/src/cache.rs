//! Structured mutations for the on-disk rewrite-cache surface, and the
//! recovery check each mutant is judged by.
//!
//! The cache directory is the third place untrusted bytes enter the
//! system: anything — a crashed writer, a disk error, another tool — may
//! have scribbled on `objects/` between runs. The contract under test
//! (see `e9cache`): a damaged entry is refused with a typed error and
//! quarantined, **never** a panic and never wrong bytes; the store stays
//! serviceable (a cold re-put of the same key works and is read back
//! verbatim); and an unrelated damaged file cannot poison other keys.
//!
//! A case primes a fresh store with known entries, applies 1–3 seeded
//! mutations (truncation, byte flips, zero-length clobber) to the object
//! files, then re-reads everything through both the raw `DiskStore` API
//! (asserting typed errors + quarantine) and a fresh two-tier `Cache`
//! (asserting the cold-path fallback re-populates the damaged keys
//! byte-identically).

use crate::Outcome;
use e9cache::disk::DiskStore;
use e9cache::{digest, Cache, CacheConfig, CacheError, Digest, Entry};
use e9rng::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The known-good entries every case's store is primed with: three
/// positive payloads of seed-dependent size and one negative (cached
/// rewrite failure), so mutation damage lands on realistic shapes.
pub fn baseline_entries(rng: &mut StdRng) -> Vec<(Digest, Entry)> {
    let mut entries = Vec::new();
    for i in 0..3u32 {
        let len = rng.gen_range(64..4096u32) as usize;
        let mut payload = Vec::with_capacity(len);
        for j in 0..len {
            payload.push((rng.next_u32() as u8) ^ (j as u8));
        }
        entries.push((digest(format!("job-{i}").as_bytes()), Entry::Ok(payload)));
    }
    entries.push((
        digest(b"job-negative"),
        Entry::Negative {
            code: -2,
            message: "no tactic admits site 0x401000".into(),
        },
    ));
    entries
}

/// Every file a mutation may target, in deterministic (sorted) order:
/// every CAS object file.
fn target_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let objects = root.join("objects");
    if let Ok(fanout) = std::fs::read_dir(&objects) {
        for shard in fanout.flatten() {
            if let Ok(inner) = std::fs::read_dir(shard.path()) {
                for f in inner.flatten() {
                    files.push(f.path());
                }
            }
        }
    }
    files.sort();
    files
}

/// Apply one seeded mutation to `path`: truncate at a random offset,
/// flip 1–16 random bytes, or clobber to zero length.
fn mutate_file(rng: &mut StdRng, path: &Path) {
    let Ok(mut bytes) = std::fs::read(path) else {
        return;
    };
    match rng.gen_range(0..3u32) {
        0 => {
            // Truncation: a writer that died mid-entry (the atomic
            // publish protocol makes this unreachable in-process, but a
            // disk can still lose tail pages).
            let cut = if bytes.is_empty() {
                0
            } else {
                rng.gen_range(0..bytes.len())
            };
            bytes.truncate(cut);
        }
        1 => {
            // Byte flips: silent media corruption.
            if !bytes.is_empty() {
                let n = rng.gen_range(1..=16u32);
                for _ in 0..n {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] ^= ((rng.next_u32() % 255) + 1) as u8;
                }
            }
        }
        _ => bytes.clear(), // zero-length clobber
    }
    let _ = std::fs::write(path, &bytes);
}

/// Run one cache-surface case rooted at `root` (created fresh, removed on
/// exit). See the module docs for the phases; any unwind *or any contract
/// violation* (wrong bytes served, quarantine evidence missing, store not
/// serviceable after damage) is reported as [`Outcome::Panicked`].
pub fn cache_case(rng: &mut StdRng, root: &Path) -> Outcome {
    let _ = std::fs::remove_dir_all(root);
    let outcome =
        catch_unwind(AssertUnwindSafe(|| cache_case_inner(rng, root))).unwrap_or(Outcome::Panicked);
    let _ = std::fs::remove_dir_all(root);
    outcome
}

fn cache_case_inner(rng: &mut StdRng, root: &Path) -> Outcome {
    // Phase 1: prime a healthy store.
    let entries = baseline_entries(rng);
    {
        let cache = Cache::open(&CacheConfig {
            dir: Some(root.to_path_buf()),
            ..CacheConfig::default()
        })
        .expect("prime: cache must open on a fresh directory");
        for (key, entry) in &entries {
            cache.put(key, entry);
        }
        for (key, _) in &entries {
            assert!(cache.lookup(key).is_some(), "prime: entry must be readable");
        }
    }

    // Phase 2: damage 1-3 object files.
    let files = target_files(root);
    assert!(!files.is_empty(), "prime must have produced files");
    let moves = rng.gen_range(1..=3u32);
    for _ in 0..moves {
        let i = rng.gen_range(0..files.len());
        mutate_file(rng, &files[i]);
    }

    // Phase 3: raw-store read-back. Every damaged entry must surface as a
    // typed error (with quarantine evidence) or a clean miss — and an
    // intact one must come back byte-identical. Wrong bytes are a
    // contract violation of the same severity as a panic.
    let store = DiskStore::open(root, None).expect("store must reopen after damage");
    let mut damaged = 0u32;
    for (key, entry) in &entries {
        match store.get(key) {
            Ok(Some(payload)) => {
                if payload[..] != entry.encode()[..] {
                    return Outcome::Panicked; // digest check failed us: wrong bytes served
                }
            }
            Ok(None) => damaged += 1, // entry vanished
            Err(CacheError::Corrupt { quarantined, .. }) => {
                damaged += 1;
                let hex = e9cache::sha256::hex(key);
                let object = root.join("objects").join(&hex[..2]).join(&hex[2..]);
                if object.exists() {
                    return Outcome::Panicked; // refused entry left in place
                }
                if quarantined && !root.join("corrupt").join(&hex).is_file() {
                    return Outcome::Panicked; // claimed quarantine, no evidence
                }
            }
            Err(CacheError::Io { .. }) => damaged += 1,
        }
    }

    // Phase 4: serviceability probe — the cold path must be able to
    // re-populate every damaged key, and a fresh two-tier cache over the
    // same directory must then serve all of them verbatim.
    let cache = Cache::open(&CacheConfig {
        dir: Some(root.to_path_buf()),
        ..CacheConfig::default()
    })
    .expect("probe: cache must reopen after damage");
    for (key, entry) in &entries {
        match cache.lookup_entry(key) {
            Some(found) => {
                if found != *entry {
                    return Outcome::Panicked;
                }
            }
            None => {
                // Cold-path fallback: recompute (simulated) and store.
                cache.put(key, entry);
                if cache.lookup_entry(key).as_ref() != Some(entry) {
                    return Outcome::Panicked; // store died: not serviceable
                }
            }
        }
    }
    let probe_key = digest(b"post-damage probe");
    cache.put(&probe_key, &Entry::Ok(b"probe".to_vec()));
    if !matches!(cache.lookup_entry(&probe_key), Some(Entry::Ok(p)) if p == b"probe") {
        return Outcome::Panicked;
    }

    if damaged == 0 {
        Outcome::Accepted
    } else {
        Outcome::Rejected
    }
}
