//! Physical page grouping micro-benchmark: the greedy partitioning pass
//! over scattered trampolines (§4). It measures partitioning only: `group`
//! lends each block's extents and writes no block bytes, which the
//! rewriter's emit writes straight into the output file. The trampolines
//! lie back to back in one arena, as the planner builds them.

use e9bench::harness::{Harness, Throughput};
use e9rng::StdRng;

/// `n` placed trampolines as `(vaddr, start, len)` records over one
/// arena of their bytes.
fn scattered_trampolines(n: usize) -> (Vec<u8>, Vec<(u64, usize, usize)>) {
    // Mimic punned placement: uniform over a 256 MB window, 16–40 bytes
    // each, non-overlapping by construction.
    let mut rng = StdRng::seed_from_u64(7);
    let mut arena = Vec::new();
    let mut v = Vec::with_capacity(n);
    let mut used = std::collections::BTreeSet::new();
    while v.len() < n {
        let slot = rng.gen_range(0..(256u64 << 20) / 64);
        if used.insert(slot) {
            let addr = 0x1000_0000 + slot * 64;
            let len = rng.gen_range(16..40);
            v.push((addr, arena.len(), len));
            arena.resize(arena.len() + len, 0xCC);
        }
    }
    (arena, v)
}

fn main() {
    let mut h = Harness::from_args("grouping");
    for n in [1_000usize, 10_000] {
        let (arena, ts) = scattered_trampolines(n);
        for m in [1u64, 16] {
            h.throughput(Throughput::Elements(n as u64));
            h.bench(&format!("greedy_m{m}/{n}"), || {
                let extents = std::hint::black_box(&ts)
                    .iter()
                    .map(|&(vaddr, start, len)| (vaddr, &arena[start..start + len]));
                e9patch::group::group(extents, m, true)
            });
        }
    }
    h.finish();
}
