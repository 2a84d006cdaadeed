//! Warm-path allocation budget, pinned with a counting allocator.
//!
//! The whole point of the `Blob` plumbing is that a cache hit never
//! copies the artifact: a memory-tier hit allocates nothing
//! payload-sized, and a disk-tier hit allocates exactly one buffer — the
//! `fs::read` of the entry file — which is then sliced in place and
//! *shared* with the memory tier on promotion. This test would have
//! failed loudly against the PR 5 read path (read buffer + `to_vec()` +
//! `Arc<[u8]>` promotion ≈ 3× the artifact).
//!
//! A `#[global_allocator]` shim counts bytes requested while a tracking
//! flag is set. Everything runs in ONE `#[test]` so no concurrent test
//! thread can allocate into our window.

use e9cache::{Cache, CacheConfig, Entry, Hit};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) && new_size > layout.size() {
            ALLOCATED.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated while running `f`.
fn allocated_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATED.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let result = f();
    TRACKING.store(false, Ordering::SeqCst);
    (ALLOCATED.load(Ordering::SeqCst), result)
}

#[test]
fn lookup_does_not_allocate_beyond_the_artifact() {
    const PAYLOAD: usize = 1 << 20; // 1 MiB artifact
                                    // Generous fixed overhead for the lookup's bookkeeping (PathBuf
                                    // construction, the hex object name, LRU map growth): an order of
                                    // magnitude below the payload, so a single extra payload copy —
                                    // 1 MiB — cannot hide under it.
    const SLACK: u64 = 128 << 10;

    let dir = std::env::temp_dir().join(format!("e9cache-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Cache::open(&CacheConfig {
        dir: Some(dir.clone()),
        bypass_bytes: 0,
        ..CacheConfig::default()
    })
    .unwrap();

    let key = e9cache::digest(b"alloc probe");
    let artifact: Vec<u8> = (0..PAYLOAD).map(|i| (i % 251) as u8).collect();
    cache.put(&key, &Entry::Ok(artifact.clone()));

    // Memory-tier hit: no payload-sized allocation at all.
    let (mem_bytes, hit) = allocated_during(|| cache.lookup(&key));
    match hit {
        Some(Hit::Payload(blob)) => assert_eq!(&blob[..], &artifact[..]),
        other => panic!("expected payload hit, got {other:?}"),
    }
    assert!(
        mem_bytes < SLACK,
        "memory hit allocated {mem_bytes} bytes (payload is {PAYLOAD})"
    );

    // Disk-tier hit (fresh cache, empty memory tier): exactly one
    // artifact-sized buffer — the entry-file read — plus slack. The
    // promotion into the memory tier must share that buffer, not copy.
    let fresh = Cache::open(&CacheConfig {
        dir: Some(dir.clone()),
        bypass_bytes: 0,
        ..CacheConfig::default()
    })
    .unwrap();
    let (disk_bytes, hit) = allocated_during(|| fresh.lookup(&key));
    match hit {
        Some(Hit::Payload(blob)) => assert_eq!(&blob[..], &artifact[..]),
        other => panic!("expected payload hit, got {other:?}"),
    }
    let read_buffer = (PAYLOAD + 4096) as u64; // entry file + header, rounded up
    assert!(
        disk_bytes < read_buffer + SLACK,
        "disk hit allocated {disk_bytes} bytes — more than one artifact-sized read \
         (payload is {PAYLOAD}); the warm path is copying again"
    );

    // And the promoted entry now hits memory allocation-free too.
    let (promoted_bytes, hit) = allocated_during(|| fresh.lookup(&key));
    assert!(matches!(hit, Some(Hit::Payload(_))));
    assert!(
        promoted_bytes < SLACK,
        "post-promotion memory hit allocated {promoted_bytes} bytes"
    );

    std::fs::remove_dir_all(&dir).ok();
}
