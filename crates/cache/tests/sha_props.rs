//! SHA-256 correctness properties: the incremental hasher must be
//! chunking-invariant (any split of a message yields the one-shot
//! digest), and the hex codec must round-trip. Together with the NIST
//! FIPS 180-4 vectors pinned as unit tests, this fixes the hash — and
//! therefore every cache key — against accidental drift.
//!
//! The tree-digest properties pin the keying contract on top: below the
//! 1 MiB chunk the tree digest IS the one-shot digest (so small keys are
//! free), and above it the tree is a different domain from the flat hash.

use e9cache::sha256::{self, Sha256};
use e9cache::tree::{self, tree_digest};
use e9qcheck::prelude::*;

props! {
    #[test]
    fn random_chunking_equals_one_shot(
        data in vec(any::<u8>(), 0..4096),
        cuts in vec(any::<u16>(), 0..16),
    ) {
        let one_shot = sha256::digest(&data);
        // Turn the drawn cut points into a partition of `data`.
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|&c| if data.is_empty() { 0 } else { c as usize % data.len() })
            .collect();
        bounds.push(0);
        bounds.push(data.len());
        bounds.sort_unstable();
        let mut h = Sha256::new();
        for pair in bounds.windows(2) {
            h.update(&data[pair[0]..pair[1]]);
        }
        prop_assert_eq!(h.finish(), one_shot);
    }

    #[test]
    fn byte_at_a_time_equals_one_shot(data in vec(any::<u8>(), 0..300)) {
        // The pathological chunking: every byte its own update call.
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        prop_assert_eq!(h.finish(), sha256::digest(&data));
    }

    #[test]
    fn distinct_messages_get_distinct_digests(
        a in vec(any::<u8>(), 0..128),
        b in vec(any::<u8>(), 0..128),
    ) {
        // Not a collision search — just pins that the digest actually
        // depends on the input (a constant function would pass the
        // chunking property).
        if a != b {
            prop_assert_ne!(sha256::digest(&a), sha256::digest(&b));
        }
    }

    #[test]
    fn hex_round_trips_all_digests(data in vec(any::<u8>(), 0..64)) {
        let d = sha256::digest(&data);
        let text = sha256::hex(&d);
        prop_assert_eq!(text.len(), 64);
        prop_assert_eq!(sha256::from_hex(&text), Some(d));
    }

    #[test]
    fn tree_digest_of_small_input_is_the_one_shot_digest(data in vec(any::<u8>(), 0..4096)) {
        // Below the chunk size the tree construction must degenerate to
        // the plain digest.
        prop_assert_eq!(tree_digest(&data, 1), sha256::digest(&data));
    }

    #[test]
    fn tree_digest_differs_from_flat_above_the_chunk(
        seed in any::<u64>(),
        extra in 0usize..2048,
    ) {
        // A cheap deterministic filler: real multi-chunk data without
        // drawing megabytes from the generator. Kept just past the chunk
        // boundary (2 leaves) so the whole property suite stays fast;
        // the 3-chunk shape is pinned by a known answer in `tree.rs`.
        let len = tree::CHUNK + extra + 1;
        let mut state = seed | 1;
        let mut data = vec![0u8; len];
        for chunk in data.chunks_mut(8) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
        }
        prop_assert_ne!(tree_digest(&data, 1), sha256::digest(&data));
    }
}
