//! `e9cache` — content-addressed cache for finished rewrite artifacts.
//!
//! The rewrite pipeline is deterministic (byte-identical output for a
//! given input), which makes finished rewrites safely addressable by a
//! digest of their inputs: `(input ELF bytes, patch batch, RewriteConfig,
//! protocol/format version)`. This crate provides the storage half of
//! that bargain — the key derivation lives in `e9proto::cachekey`, next to
//! the wire codec it reuses.
//!
//! Two tiers, checked in order:
//!
//! 1. **Memory** ([`mem::MemLru`]): a bytes-capped LRU behind an interior
//!    lock, shared by every daemon connection.
//! 2. **Disk** ([`disk::DiskStore`]): a `objects/ab/cdef…` CAS with
//!    atomic publish, read-time checksum verification, quarantine of
//!    corrupt entries, and crash-tolerant size-budgeted eviction.
//!
//! Failures in either tier *degrade* — a corrupt or unreadable entry is
//! counted and treated as a miss so the caller falls back to a cold
//! rewrite — they never panic and never serve wrong bytes.
//!
//! Entries are either positive (encoded emit-reply bytes) or *negative*:
//! a request that deterministically fails keeps failing, so the original
//! typed error is cached and replayed without re-running the rewriter.
//!
//! # The warm path is copy-free
//!
//! A warm hit is only worth taking when `lookup` is strictly cheaper than
//! recomputing, so payload bytes are never copied on the read path: both
//! tiers traffic in [`Blob`] — a reference-counted buffer plus a range —
//! and a hit hands the caller a view into the very allocation the entry
//! already lives in (the LRU's buffer, or the single `fs::read` buffer a
//! disk promotion produced). `tests/alloc.rs` pins this with a counting
//! allocator.
//!
//! # Bypass: tiny rewrites skip the cache
//!
//! [`Cache::should_bypass`] implements a size threshold below which
//! callers skip the cache entirely — no key is derived, nothing is
//! stored, not even negative entries. The threshold is
//! [`CacheConfig::bypass_bytes`] (default [`DEFAULT_BYPASS_BYTES`],
//! 64 KiB: the smallest measured input where a warm hit beats the
//! uncached rewrite, see `results/bench_cache.json`) and stays fixed for
//! the cache's lifetime. Decisions are counted in [`CacheStats::bypasses`] and the
//! threshold is reported as [`CacheStats::bypass_threshold`].

pub mod breaker;
pub mod disk;
pub mod mem;
pub mod sha256;
pub mod tree;

pub use breaker::{Breaker, BreakerStats};
pub use sha256::{digest, Digest, Sha256};

use std::fmt;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Version of the entry payload encoding *and* of the key derivation —
/// bumped together whenever either changes, so stale stores can never be
/// misread (a bump changes every key; old objects simply age out).
///
/// v2: positive payloads switched from canonical-JSON emit replies to the
/// compact binary codec (`EmitReply::encode_bin`), and the key's batch
/// part from canonical JSON to the same binary framing.
///
/// v3: the key material is one compact binary framing throughout:
/// instruction addresses are elided where contiguous, and templates and
/// the rewriter config are tagged fixed-width bytes instead of canonical
/// JSON. Payloads are unchanged.
pub const FORMAT_VERSION: u64 = 3;

/// Default bypass threshold: inputs smaller than this skip the cache.
/// The smallest rung of the bench size ladder where a warm memory hit
/// beats the uncached rewrite (`break_even_bytes` in
/// `results/bench_cache.json`): at 64 KiB the hit, which pays ~1 GiB/s
/// hashing plus a lookup, already takes well under half the rewrite's
/// time. No smaller input is measured, so below it the cache stays out.
pub const DEFAULT_BYPASS_BYTES: u64 = 64 << 10;

/// A typed cache failure. The cache is an accelerator, so callers treat
/// every variant as "fall back to a cold rewrite" — but the variants are
/// distinct so fault campaigns can assert *which* degradation happened.
#[derive(Debug)]
pub enum CacheError {
    /// Transport-level I/O failure (permissions, disk full, …).
    Io {
        /// What the store was doing when it failed.
        context: &'static str,
        source: std::io::Error,
    },
    /// An on-disk entry failed verification and was quarantined.
    Corrupt {
        /// Hex digest of the *key* (the CAS name), not of the payload.
        digest: String,
        reason: String,
        /// Whether the evidence was preserved under `corrupt/` (`false`
        /// means the rename failed and the entry was deleted instead).
        quarantined: bool,
    },
}

impl CacheError {
    fn io(context: &'static str, source: std::io::Error) -> CacheError {
        CacheError::Io { context, source }
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { context, source } => write!(f, "cache I/O: {context}: {source}"),
            CacheError::Corrupt {
                digest,
                reason,
                quarantined,
            } => write!(
                f,
                "cache entry {digest} corrupt ({reason}){}",
                if *quarantined {
                    ", quarantined"
                } else {
                    ", removed"
                }
            ),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io { source, .. } => Some(source),
            CacheError::Corrupt { .. } => None,
        }
    }
}

/// A shared, immutable byte range: a reference-counted backing buffer
/// plus `[start, end)`. Cloning or re-slicing is O(1) and never copies
/// the payload, which is what keeps the warm hit path allocation-free —
/// the disk tier hands out a `Blob` over its single `fs::read` buffer,
/// and the memory tier shares that same buffer across every future hit.
///
/// (Deliberately backed by `Arc<Vec<u8>>` rather than `Arc<[u8]>`:
/// converting a `Vec` into an `Arc<[u8]>` *copies* the bytes to inline
/// them next to the refcounts, exactly the reallocation this type
/// exists to avoid.)
#[derive(Clone)]
pub struct Blob {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Blob {
    /// Take ownership of `data` (no copy) as a full-range blob.
    pub fn from_vec(data: Vec<u8>) -> Blob {
        let end = data.len();
        Blob {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }

    /// A sub-range of this blob (relative to it); panics if out of range.
    pub fn slice(&self, start: usize, end: usize) -> Blob {
        assert!(start <= end && self.start + end <= self.end);
        Blob {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Everything from `offset` (relative) to the end.
    pub fn tail(&self, offset: usize) -> Blob {
        self.slice(offset, self.len())
    }

    /// Bytes in the visible range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the visible range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl Deref for Blob {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Blob {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Blob({} bytes)", self.len())
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Blob) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Blob {}

/// A decoded cache entry, as written: owned payload bytes. This is the
/// *store*-side type; the read path returns [`Hit`] so positive payloads
/// stay inside their original allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A finished rewrite: encoded emit-reply bytes.
    Ok(Vec<u8>),
    /// A deterministic failure: the typed error the rewrite produced,
    /// replayed on every hit so known-bad requests short-circuit.
    Negative {
        /// JSON-RPC error code (e.g. `e9proto::msg::code::REWRITE`).
        code: i64,
        message: String,
    },
}

impl Entry {
    /// Serialize to the stored payload form: `b'P' ‖ bytes` for a
    /// positive entry, `b'N' ‖ code(LE) ‖ message(UTF-8)` for a negative.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Entry::Ok(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(b'P');
                out.extend_from_slice(bytes);
                out
            }
            Entry::Negative { code, message } => {
                let mut out = Vec::with_capacity(9 + message.len());
                out.push(b'N');
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(message.as_bytes());
                out
            }
        }
    }
}

/// The read-path view of a cache hit. A positive hit is a zero-copy
/// [`Blob`] over the stored payload (tag byte already stripped); a
/// negative hit decodes the (small) replayed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hit {
    /// A finished rewrite's encoded emit-reply bytes, in place.
    Payload(Blob),
    /// A replayed deterministic failure.
    Negative { code: i64, message: String },
}

impl Hit {
    /// Decode the tagged payload `blob` (the inverse of
    /// [`Entry::encode`]) without copying positive bytes; `None` on any
    /// malformed payload, which the caller treats as a corrupt entry.
    fn decode(blob: &Blob) -> Option<Hit> {
        match blob.first()? {
            b'P' => Some(Hit::Payload(blob.tail(1))),
            b'N' if blob.len() >= 9 => {
                let code = i64::from_le_bytes(blob[1..9].try_into().ok()?);
                let message = std::str::from_utf8(&blob[9..]).ok()?.to_string();
                Some(Hit::Negative { code, message })
            }
            _ => None,
        }
    }

    /// Copy out into an owned [`Entry`] (tests, fault campaigns).
    pub fn to_entry(&self) -> Entry {
        match self {
            Hit::Payload(blob) => Entry::Ok(blob.to_vec()),
            Hit::Negative { code, message } => Entry::Negative {
                code: *code,
                message: message.clone(),
            },
        }
    }
}

/// How to build a [`Cache`]. [`CacheConfig::default`] holds the one
/// default of every knob.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Root of the on-disk tier; `None` = memory-only.
    pub dir: Option<PathBuf>,
    /// Memory-tier byte budget (default 64 MiB).
    pub mem_bytes: usize,
    /// Disk-tier byte budget; `None` = unbounded.
    pub disk_bytes: Option<u64>,
    /// Bypass threshold in input bytes (default
    /// [`DEFAULT_BYPASS_BYTES`]); 0 disables bypassing (every input
    /// engages the cache — tests and benchmarks of the engaged path use
    /// this).
    pub bypass_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            dir: None,
            mem_bytes: 64 << 20,
            disk_bytes: None,
            bypass_bytes: DEFAULT_BYPASS_BYTES,
        }
    }
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `mem_hits + disk_hits`.
    pub hits: u64,
    pub mem_hits: u64,
    pub disk_hits: u64,
    pub negative_hits: u64,
    pub misses: u64,
    pub stores: u64,
    pub mem_evictions: u64,
    pub disk_evictions: u64,
    pub verify_failures: u64,
    /// Degradations other than verification failures (I/O errors,
    /// undecodable payloads) — every one fell back to a cold rewrite.
    pub errors: u64,
    pub mem_entries: u64,
    pub mem_bytes: u64,
    /// Requests that skipped the cache because the input was below the
    /// bypass threshold.
    pub bypasses: u64,
    /// The configured bypass threshold, in input bytes; 0 means
    /// bypassing is disabled.
    pub bypass_threshold: u64,
    /// True while the disk tier's circuit breaker is open (the tier is
    /// being skipped and the cache is effectively memory-only).
    pub disk_breaker_open: bool,
    /// Closed → open transitions of the disk-tier breaker.
    pub disk_breaker_trips: u64,
    /// Disk operations skipped while the breaker was open.
    pub disk_breaker_fast_fails: u64,
    /// Probe writes admitted while the breaker was open.
    pub disk_breaker_probes: u64,
    /// Open → closed transitions (successful probes).
    pub disk_breaker_recoveries: u64,
}

impl CacheStats {
    /// One-line human summary, in the `PatchStats::summary` style.
    pub fn summary(&self) -> String {
        format!(
            "cache: {} hits ({} mem, {} disk, {} negative), {} misses, {} bypasses (threshold {} B), {} stores, {} evictions ({} mem, {} disk), {} verify failures, {} errors, breaker {} ({} trips, {} fast-fails, {} probes, {} recoveries)",
            self.hits,
            self.mem_hits,
            self.disk_hits,
            self.negative_hits,
            self.misses,
            self.bypasses,
            self.bypass_threshold,
            self.stores,
            self.mem_evictions + self.disk_evictions,
            self.mem_evictions,
            self.disk_evictions,
            self.verify_failures,
            self.errors,
            if self.disk_breaker_open { "open" } else { "closed" },
            self.disk_breaker_trips,
            self.disk_breaker_fast_fails,
            self.disk_breaker_probes,
            self.disk_breaker_recoveries,
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    negative_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    disk_evictions: AtomicU64,
    verify_failures: AtomicU64,
    errors: AtomicU64,
    bypasses: AtomicU64,
}

fn tick(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// The two-tier cache. Interior-locked: one instance (usually in an
/// [`Arc`]) serves every connection thread of a daemon concurrently.
#[derive(Debug)]
pub struct Cache {
    mem: Mutex<mem::MemLru>,
    disk: Option<disk::DiskStore>,
    counters: Counters,
    /// Bypass threshold (0 = bypassing disabled).
    bypass_bytes: u64,
    /// Disk-tier circuit breaker (only consulted when `disk` exists).
    breaker: breaker::Breaker,
}

impl Cache {
    /// Build a cache per `config`.
    ///
    /// # Errors
    ///
    /// Disk-tier directory creation failures.
    pub fn open(config: &CacheConfig) -> Result<Cache, CacheError> {
        let disk = match &config.dir {
            Some(dir) => Some(disk::DiskStore::open(dir, config.disk_bytes)?),
            None => None,
        };
        Ok(Cache {
            mem: Mutex::new(mem::MemLru::new(config.mem_bytes)),
            disk,
            counters: Counters::default(),
            bypass_bytes: config.bypass_bytes,
            breaker: breaker::Breaker::new(),
        })
    }

    /// A memory-only cache with the default budget and bypass threshold
    /// (`--cache-dir` omitted on the daemon).
    pub fn in_memory() -> Cache {
        Cache::open(&CacheConfig::default()).expect("memory-only cache cannot fail")
    }

    /// A memory-only cache with bypassing disabled — tests and benches
    /// that drive tiny synthetic inputs through the engaged path.
    pub fn in_memory_no_bypass() -> Cache {
        Cache::open(&CacheConfig {
            bypass_bytes: 0,
            ..CacheConfig::default()
        })
        .expect("memory-only cache cannot fail")
    }

    /// The cache must stay serviceable even if a connection thread
    /// panicked while holding the lock — entries are immutable once
    /// inserted, so the map is never observably half-written.
    fn mem(&self) -> MutexGuard<'_, mem::MemLru> {
        self.mem
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Should a request over `input_len` bytes skip the cache entirely?
    ///
    /// Below the threshold recomputing is cheaper than keying, so the
    /// caller runs cold without deriving a key or storing anything
    /// (including negative entries). A `true` answer is counted.
    pub fn should_bypass(&self, input_len: u64) -> bool {
        let bypass = input_len < self.bypass_bytes;
        if bypass {
            tick(&self.counters.bypasses);
        }
        bypass
    }

    /// The configured bypass threshold; 0 when bypassing is disabled.
    pub fn bypass_threshold(&self) -> u64 {
        self.bypass_bytes
    }

    /// Look up `key`, promoting disk hits into the memory tier.
    ///
    /// Positive hits are returned as a zero-copy [`Blob`] view of the
    /// stored payload. Never fails: corrupt entries (already quarantined
    /// by the disk tier) and I/O errors are counted and reported as a
    /// miss so the caller runs the rewrite cold.
    pub fn lookup(&self, key: &Digest) -> Option<Hit> {
        if let Some(payload) = self.mem().get(key) {
            return self.decoded_hit(key, &payload, true);
        }
        let Some(disk) = self.disk.as_ref() else {
            tick(&self.counters.misses);
            return None;
        };
        if self.breaker.admit(breaker::OpKind::Read) == breaker::Admit::Skip {
            // Breaker open: memory-only mode, fast miss without a
            // syscall. (Reads never probe — only a write success is
            // evidence of recovery; see the breaker module docs.)
            tick(&self.counters.misses);
            return None;
        }
        match disk.get(key) {
            Ok(Some(payload)) => {
                self.breaker.record_ok(breaker::OpKind::Read);
                // Promotion shares the read buffer: the LRU clone below
                // is a refcount bump, not a copy.
                self.mem().insert(*key, payload.clone());
                self.decoded_hit(key, &payload, false)
            }
            Ok(None) => {
                self.breaker.record_ok(breaker::OpKind::Read);
                tick(&self.counters.misses);
                None
            }
            Err(CacheError::Corrupt { .. }) => {
                // Data damage, not environment damage: the read itself
                // worked, so the breaker is not fed.
                tick(&self.counters.verify_failures);
                tick(&self.counters.misses);
                None
            }
            Err(CacheError::Io { .. }) => {
                self.breaker.record_io_error();
                tick(&self.counters.errors);
                tick(&self.counters.misses);
                None
            }
        }
    }

    /// [`lookup`](Cache::lookup), copied out into an owned [`Entry`] —
    /// for tests and fault campaigns that want value semantics.
    pub fn lookup_entry(&self, key: &Digest) -> Option<Entry> {
        self.lookup(key).map(|hit| hit.to_entry())
    }

    /// Decode a checksum-verified payload; an undecodable one (possible
    /// only if encoder and decoder disagree) is purged from memory and
    /// counted as an error-miss so the caller recomputes cold.
    fn decoded_hit(&self, key: &Digest, payload: &Blob, from_mem: bool) -> Option<Hit> {
        match Hit::decode(payload) {
            Some(hit) => {
                if from_mem {
                    tick(&self.counters.mem_hits);
                } else {
                    tick(&self.counters.disk_hits);
                }
                if matches!(hit, Hit::Negative { .. }) {
                    tick(&self.counters.negative_hits);
                }
                Some(hit)
            }
            None => {
                self.mem().remove(key);
                tick(&self.counters.errors);
                tick(&self.counters.misses);
                None
            }
        }
    }

    /// Store `entry` under `key` in both tiers. Disk failures are
    /// counted, not propagated — a cache store must never fail a rewrite
    /// that already succeeded.
    pub fn put(&self, key: &Digest, entry: &Entry) {
        let payload = Blob::from_vec(entry.encode());
        self.mem().insert(*key, payload.clone());
        tick(&self.counters.stores);
        if let Some(disk) = &self.disk {
            if self.breaker.admit(breaker::OpKind::Write) == breaker::Admit::Skip {
                return; // memory-only mode; the probe cadence lets one through
            }
            match disk.put(key, &payload) {
                Ok(evicted) => {
                    self.breaker.record_ok(breaker::OpKind::Write);
                    self.counters
                        .disk_evictions
                        .fetch_add(evicted, Ordering::Relaxed);
                }
                Err(CacheError::Io { .. }) => {
                    self.breaker.record_io_error();
                    tick(&self.counters.errors);
                }
                Err(_) => tick(&self.counters.errors),
            }
        }
    }

    /// Drop every entry in both tiers; returns disk entries removed.
    pub fn clear(&self) -> u64 {
        self.mem().clear();
        match &self.disk {
            Some(disk) => disk.clear().unwrap_or_else(|_| {
                tick(&self.counters.errors);
                0
            }),
            None => 0,
        }
    }

    /// Whether a disk tier is configured.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// The disk tier's circuit breaker (closed and idle when no disk
    /// tier is configured). Exposed so tests and fault campaigns can
    /// assert the trip/probe/recover cycle directly.
    pub fn disk_breaker(&self) -> &breaker::Breaker {
        &self.breaker
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        let (mem_entries, mem_bytes, mem_evictions) = {
            let mem = self.mem();
            (mem.len() as u64, mem.bytes() as u64, mem.evictions())
        };
        let breaker = self.breaker.stats();
        let (mem_hits, disk_hits) = (
            c.mem_hits.load(Ordering::Relaxed),
            c.disk_hits.load(Ordering::Relaxed),
        );
        CacheStats {
            hits: mem_hits + disk_hits,
            mem_hits,
            disk_hits,
            negative_hits: c.negative_hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            stores: c.stores.load(Ordering::Relaxed),
            mem_evictions,
            disk_evictions: c.disk_evictions.load(Ordering::Relaxed),
            verify_failures: c.verify_failures.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            mem_entries,
            mem_bytes,
            bypasses: c.bypasses.load(Ordering::Relaxed),
            bypass_threshold: self.bypass_bytes,
            disk_breaker_open: breaker.open,
            disk_breaker_trips: breaker.trips,
            disk_breaker_fast_fails: breaker.fast_fails,
            disk_breaker_probes: breaker.probes,
            disk_breaker_recoveries: breaker.recoveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("e9cache-lib-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn entry_encoding_round_trips() {
        let decode = |raw: &[u8]| Hit::decode(&Blob::from_vec(raw.to_vec())).map(|h| h.to_entry());
        let pos = Entry::Ok(b"reply bytes".to_vec());
        assert_eq!(decode(&pos.encode()), Some(pos));
        let neg = Entry::Negative {
            code: -2,
            message: "no tactic admits site".into(),
        };
        assert_eq!(decode(&neg.encode()), Some(neg));
        assert_eq!(decode(b""), None);
        assert_eq!(decode(b"X???"), None);
        assert_eq!(decode(b"N\x01\x02"), None); // short code
    }

    #[test]
    fn blob_slicing_is_views_not_copies() {
        let blob = Blob::from_vec(b"0123456789".to_vec());
        let mid = blob.slice(2, 7);
        assert_eq!(&mid[..], b"23456");
        assert_eq!(&mid.tail(3)[..], b"56");
        assert_eq!(mid.len(), 5);
        // The backing Arc is shared, not duplicated.
        assert!(Arc::ptr_eq(&blob.data, &mid.data));
    }

    #[test]
    fn memory_only_lookup_put_cycle() {
        let cache = Cache::in_memory();
        let key = digest(b"job");
        assert_eq!(cache.lookup(&key), None);
        cache.put(&key, &Entry::Ok(b"artifact".to_vec()));
        match cache.lookup(&key) {
            Some(Hit::Payload(blob)) => assert_eq!(&blob[..], b"artifact"),
            other => panic!("expected payload hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.mem_entries, 1);
    }

    #[test]
    fn disk_tier_survives_memory_clear() {
        let dir = tmpdir("survive");
        let cache = Cache::open(&CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        let key = digest(b"job");
        cache.put(&key, &Entry::Ok(b"artifact".to_vec()));
        cache.mem().clear();
        // Disk hit, promoted back into memory.
        assert_eq!(
            cache.lookup_entry(&key),
            Some(Entry::Ok(b"artifact".to_vec()))
        );
        assert_eq!(cache.stats().disk_hits, 1);
        assert_eq!(
            cache.lookup_entry(&key),
            Some(Entry::Ok(b"artifact".to_vec()))
        );
        assert_eq!(cache.stats().mem_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_entry_counts_verify_failure_and_misses() {
        let dir = tmpdir("corrupt");
        let cache = Cache::open(&CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        let key = digest(b"job");
        cache.put(&key, &Entry::Ok(b"artifact".to_vec()));
        cache.mem().clear();
        let path = cache.disk.as_ref().unwrap().object_path(&key);
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(cache.lookup(&key), None);
        let stats = cache.stats();
        assert_eq!(stats.verify_failures, 1);
        assert_eq!(stats.misses, 1);
        assert!(dir.join("corrupt").exists());
        // Serviceable afterwards: re-put and hit.
        cache.put(&key, &Entry::Ok(b"artifact".to_vec()));
        cache.mem().clear();
        assert_eq!(
            cache.lookup_entry(&key),
            Some(Entry::Ok(b"artifact".to_vec()))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn negative_entries_replay_the_error() {
        let cache = Cache::in_memory();
        let key = digest(b"bad job");
        cache.put(
            &key,
            &Entry::Negative {
                code: -2,
                message: "mapping conflict".into(),
            },
        );
        match cache.lookup(&key) {
            Some(Hit::Negative { code, message }) => {
                assert_eq!(code, -2);
                assert_eq!(message, "mapping conflict");
            }
            other => panic!("expected negative hit, got {other:?}"),
        }
        assert_eq!(cache.stats().negative_hits, 1);
    }

    #[test]
    fn clear_empties_both_tiers() {
        let dir = tmpdir("clear");
        let cache = Cache::open(&CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        cache.put(&digest(b"a"), &Entry::Ok(vec![1]));
        cache.put(&digest(b"b"), &Entry::Ok(vec![2]));
        assert_eq!(cache.clear(), 2);
        assert_eq!(cache.lookup(&digest(b"a")), None);
        assert_eq!(cache.stats().mem_entries, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bypass_threshold_defaults_and_disables() {
        let cache = Cache::in_memory();
        assert_eq!(cache.bypass_threshold(), DEFAULT_BYPASS_BYTES);
        assert!(cache.should_bypass(DEFAULT_BYPASS_BYTES - 1));
        assert!(!cache.should_bypass(DEFAULT_BYPASS_BYTES));
        assert_eq!(cache.stats().bypasses, 1);
        // Traffic never moves the threshold: all misses, then all hits.
        for i in 0..64u64 {
            assert!(cache.lookup(&digest(&i.to_le_bytes())).is_none());
        }
        assert_eq!(cache.bypass_threshold(), DEFAULT_BYPASS_BYTES);
        let key = digest(b"hot");
        cache.put(&key, &Entry::Ok(vec![1]));
        for _ in 0..256 {
            assert!(cache.lookup(&key).is_some());
        }
        assert_eq!(cache.stats().bypass_threshold, DEFAULT_BYPASS_BYTES);

        let off = Cache::in_memory_no_bypass();
        assert_eq!(off.bypass_threshold(), 0);
        assert!(!off.should_bypass(0));
        assert!(!off.should_bypass(1));
        assert_eq!(off.stats().bypasses, 0);
    }

    #[test]
    fn stats_summary_mentions_every_counter_family() {
        let s = CacheStats {
            hits: 3,
            mem_hits: 2,
            disk_hits: 1,
            ..CacheStats::default()
        }
        .summary();
        for needle in [
            "hits",
            "misses",
            "bypasses",
            "stores",
            "evictions",
            "verify failures",
        ] {
            assert!(s.contains(needle), "summary missing {needle}: {s}");
        }
    }
}
