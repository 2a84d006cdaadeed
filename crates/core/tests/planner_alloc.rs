//! Rewriting costs well under one heap allocation per patch site, pinned
//! with a counting allocator.
//!
//! Every trampoline of a rewrite is built into one arena, relocation
//! writes into the caller's buffer and a punned jump is encoded on the
//! stack, so the tactic loop allocates nothing per site. About 0.55
//! allocations per site are left over these rows, over half of them in
//! grouping's per-block vectors; the gate allows one.
//!
//! A `#[global_allocator]` shim counts `alloc` and `realloc` calls while
//! a tracking flag is set. Everything runs in ONE `#[test]` so no
//! concurrent test thread can allocate into the window.

use e9elf::Elf;
use e9patch::{ExtraSegment, PatchRequest, RewriteConfig, Rewriter, Template};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `alloc` and `realloc` calls made while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    CALLS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let result = f();
    TRACKING.store(false, Ordering::SeqCst);
    (CALLS.load(Ordering::SeqCst), result)
}

#[test]
fn rewriting_allocates_less_than_once_per_site() {
    let mut profiles = e9synth::spec_profiles(50);
    profiles.extend(e9synth::system_profiles(50));
    assert_eq!(profiles.len(), 38, "the Table 1 SPEC and system rows");

    let (mut sites, mut calls) = (0u64, 0u64);
    let mut worst = (0.0f64, String::new());
    for profile in &profiles {
        let sb = e9synth::generate(profile);
        // A1/empty: every jmp/jcc. A2/counter: every heap write, bumping
        // one counter cell in a writable page above the image.
        let (_, hi) = Elf::parse(&sb.binary).expect("parse").vaddr_extent();
        let counter_addr = hi.next_multiple_of(0x1000) + 0x110_0000;
        let counters = [ExtraSegment {
            vaddr: counter_addr,
            bytes: vec![0; 4096],
            exec: false,
            write: true,
        }];
        let jobs: [(&str, Template, &[ExtraSegment]); 2] = [
            ("a1", Template::Empty, &[]),
            ("a2", Template::Counter { counter_addr }, &counters),
        ];
        for (kind, template, extra) in jobs {
            let requests: Vec<PatchRequest> = sb
                .disasm
                .iter()
                .filter(|i| match kind {
                    "a1" => i.kind.is_jump(),
                    _ => i.is_heap_write(),
                })
                .map(|i| PatchRequest {
                    addr: i.addr,
                    template: template.clone(),
                })
                .collect();
            let rewriter = Rewriter::new(RewriteConfig::default());
            let (n, out) =
                allocations_during(|| rewriter.rewrite(&sb.binary, &sb.disasm, &requests, extra));
            let out = out.expect("rewrite");
            assert_eq!(out.stats.total(), requests.len());
            sites += requests.len() as u64;
            calls += n;
            let per_site = n as f64 / requests.len().max(1) as f64;
            if per_site > worst.0 {
                worst = (per_site, format!("{}/{kind}", profile.name));
            }
        }
    }
    assert!(sites > 30_000, "{sites} sites requested");
    assert!(
        calls <= sites,
        "{calls} allocations for {sites} sites ({:.2} per site; worst row {} at {:.2})",
        calls as f64 / sites as f64,
        worst.1,
        worst.0
    );
}
