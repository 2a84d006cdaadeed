//! Parallel tree hashing for cache keying.
//!
//! Keying a rewrite request starts with a digest of the whole input
//! binary — often the largest single hashing job in the pipeline. A plain
//! sequential SHA-256 keys at single-core speed; the tree digest hashes
//! 1 MiB leaves on `--jobs N` threads while staying **jobs-invariant**:
//! the result depends only on the bytes, never on how many workers
//! computed it, so a key produced with `--jobs 8` matches one produced
//! with `--jobs 1`.
//!
//! Construction:
//!
//! * `len(data) ≤ CHUNK` (1 MiB): the tree digest **is** the plain
//!   `sha256(data)`. Small inputs pay zero framing overhead and the
//!   equality `tree_digest(d, jobs) == digest(d)` holds literally — the
//!   property `tests/sha_props.rs` pins.
//! * larger inputs: the data is split into fixed 1 MiB leaves, each leaf
//!   hashed independently (in parallel across `jobs` threads, one
//!   contiguous run of leaves per worker), and the root is
//!   `sha256(DOMAIN ‖ le64(len) ‖ leaf₀ ‖ leaf₁ ‖ …)`.
//!
//! The domain string and the length prefix keep the root from colliding
//! with any plain digest of attacker-chosen bytes: a plain digest over a
//! buffer that happens to spell `DOMAIN ‖ len ‖ leaves` is only reachable
//! for inputs ≤ 1 MiB, and `DOMAIN` contains a NUL so it is never a
//! prefix of ELF magic. Deterministic by construction; no locks, no
//! shared mutable state — each worker writes disjoint leaf slots.

use crate::sha256::{digest, Digest, Sha256};

/// Leaf size. Also the engagement threshold below which the tree digest
/// degenerates to the plain digest.
pub const CHUNK: usize = 1 << 20;

/// Domain separator for the root hash (NUL-terminated so it can never be
/// a prefix of a leaf's content or of an ELF header).
const DOMAIN: &[u8] = b"e9cache/tree-v1\0";

/// Digest `data` with up to `jobs` worker threads. Jobs-invariant: the
/// result depends only on `data`. `jobs == 0` is treated as 1.
pub fn tree_digest(data: &[u8], jobs: usize) -> Digest {
    if data.len() <= CHUNK {
        return digest(data);
    }

    let chunks: Vec<&[u8]> = data.chunks(CHUNK).collect();
    let mut leaves = vec![[0u8; 32]; chunks.len()];
    let workers = jobs.max(1).min(chunks.len());

    if workers <= 1 {
        for (leaf, chunk) in leaves.iter_mut().zip(&chunks) {
            *leaf = digest(chunk);
        }
    } else {
        // Contiguous shards, one per worker; the split is a function of
        // (len, workers) only and every slot is written exactly once.
        let per = chunks.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (leaf_shard, chunk_shard) in
                leaves.chunks_mut(per).zip(chunks.chunks(per))
            {
                scope.spawn(move || {
                    for (leaf, chunk) in leaf_shard.iter_mut().zip(chunk_shard) {
                        *leaf = digest(chunk);
                    }
                });
            }
        });
    }

    let mut root = Sha256::new();
    root.update(DOMAIN);
    root.update(&(data.len() as u64).to_le_bytes());
    for leaf in &leaves {
        root.update(leaf);
    }
    root.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_input_is_the_plain_digest() {
        for len in [0usize, 1, 63, 64, 4096, CHUNK] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(tree_digest(&data, 1), digest(&data), "len={len}");
            assert_eq!(tree_digest(&data, 7), digest(&data), "len={len}");
        }
    }

    #[test]
    fn large_input_is_jobs_invariant() {
        let data: Vec<u8> = (0..3 * CHUNK + 777)
            .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
            .collect();
        let reference = tree_digest(&data, 1);
        for jobs in [0usize, 2, 3, 4, 16, 1000] {
            assert_eq!(tree_digest(&data, jobs), reference, "jobs={jobs}");
        }
        // And it is NOT the plain digest: the tree is a different domain.
        assert_ne!(reference, digest(&data));
    }

    #[test]
    fn chunk_boundary_lengths_are_distinct() {
        let a = vec![0u8; CHUNK + 1];
        let b = vec![0u8; CHUNK + 2];
        assert_ne!(tree_digest(&a, 2), tree_digest(&b, 2));
        // One byte past the threshold engages the tree.
        assert_ne!(tree_digest(&a, 1), digest(&a));
    }
}
