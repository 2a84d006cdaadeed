//! Tree hashing for cache keying.
//!
//! Keying a rewrite request starts with a digest of the whole input
//! binary. The tree digest hashes it in fixed 1 MiB leaves, one after
//! another, and then hashes the leaf digests. The format is part of every
//! cache key, so it must not change, or existing cache directories stop
//! hitting.
//!
//! Construction:
//!
//! * `len(data) ≤ CHUNK` (1 MiB): the tree digest **is** the plain
//!   `sha256(data)`. Small inputs pay zero framing overhead and the
//!   equality `tree_digest(d, _) == digest(d)` holds literally — the
//!   property `tests/sha_props.rs` pins.
//! * larger inputs: the data is split into fixed 1 MiB leaves, each leaf
//!   hashed on its own, and the root is
//!   `sha256(DOMAIN ‖ le64(len) ‖ leaf₀ ‖ leaf₁ ‖ …)`.
//!
//! The domain string and the length prefix keep the root from colliding
//! with any plain digest of attacker-chosen bytes: a plain digest over a
//! buffer that happens to spell `DOMAIN ‖ len ‖ leaves` is only reachable
//! for inputs ≤ 1 MiB, and `DOMAIN` contains a NUL so it is never a
//! prefix of ELF magic.

use crate::sha256::{digest, Digest, Sha256};

/// Leaf size. Also the engagement threshold below which the tree digest
/// degenerates to the plain digest.
pub const CHUNK: usize = 1 << 20;

/// Domain separator for the root hash (NUL-terminated so it can never be
/// a prefix of a leaf's content or of an ELF header).
const DOMAIN: &[u8] = b"e9cache/tree-v1\0";

/// The tree digest of `data`. The second argument is ignored: no product
/// path passes anything but 1, and it stays only because the end-to-end
/// benchmark passes it.
pub fn tree_digest(data: &[u8], _jobs: usize) -> Digest {
    if data.len() <= CHUNK {
        return digest(data);
    }
    let mut root = Sha256::new();
    root.update(DOMAIN);
    root.update(&(data.len() as u64).to_le_bytes());
    for chunk in data.chunks(CHUNK) {
        root.update(&digest(chunk));
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
        }
    }

    #[test]
    fn three_chunk_tree_digest_known_answer() {
        // Every cache key built on a multi-chunk input depends on this
        // format, so it may never move.
        let data: Vec<u8> = (0..3 * CHUNK + 777)
            .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
            .collect();
        assert_eq!(
            crate::sha256::hex(&tree_digest(&data, 1)),
            "aac74febb0bd64ac32d235102cd2ac9bae82d4747f759d5884651bae4fc47fe6"
        );
        // And it is NOT the plain digest: the tree is a different domain.
        assert_ne!(tree_digest(&data, 1), digest(&data));
    }

    #[test]
    fn chunk_boundary_lengths_are_distinct() {
        let a = vec![0u8; CHUNK + 1];
        let b = vec![0u8; CHUNK + 2];
        assert_ne!(tree_digest(&a, 1), tree_digest(&b, 1));
        // One byte past the threshold engages the tree.
        assert_ne!(tree_digest(&a, 1), digest(&a));
    }
}
