//! MemLru byte-accounting property: under any random sequence of
//! `insert` (including update-in-place with a different size), `get`,
//! `remove` and `clear`, the tracked byte count must equal the sum of the
//! live entries' lengths, never exceed the cap, and the entry/index maps
//! must stay in lockstep. This pins the update-in-place case in
//! particular — putting a smaller payload under an existing key must
//! release the old size from the budget, or the tier slowly strangles
//! itself.

use e9cache::mem::MemLru;
use e9cache::{digest, Blob, Digest};
use e9qcheck::prelude::*;

/// One scripted operation, decoded from three drawn bytes.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert payload of `len` bytes under key id `k` (small key space so
    /// update-in-place happens constantly).
    Insert {
        k: u8,
        len: usize,
    },
    Get {
        k: u8,
    },
    Remove {
        k: u8,
    },
    Clear,
}

fn decode(op: u8, k: u8, len: u16) -> Op {
    let k = k % 8;
    match op % 16 {
        0..=9 => Op::Insert {
            k,
            len: len as usize % 300,
        },
        10..=12 => Op::Get { k },
        13..=14 => Op::Remove { k },
        _ => Op::Clear,
    }
}

fn key(k: u8) -> Digest {
    digest(&[k])
}

props! {
    #[test]
    fn tracked_bytes_equal_sum_of_live_entries(
        cap in 0u16..600,
        script in vec((any::<u8>(), any::<u8>(), any::<u16>()), 0..64),
    ) {
        let cap = cap as usize;
        let mut lru = MemLru::new(cap);
        // The model: what each live key's payload length must be
        // (BTreeMap so resync iteration — which touches recency — is
        // deterministic and failures replay).
        let mut model: std::collections::BTreeMap<u8, usize> =
            std::collections::BTreeMap::new();

        for &(op, k, len) in &script {
            match decode(op, k, len) {
                Op::Insert { k, len } => {
                    lru.insert(key(k), Blob::from_vec(vec![k; len]));
                    if len <= cap {
                        model.insert(k, len);
                        // The insert may have evicted other model keys;
                        // resync below from the LRU's own view.
                    }
                    // Oversized payloads are not admitted and the
                    // previous entry (if any) is left in place.
                }
                Op::Get { k } => {
                    let hit = lru.get(&key(k));
                    prop_assert_eq!(
                        hit.as_ref().map(|b| b.len()),
                        model.get(&k).copied(),
                        "get({k}) disagrees with model"
                    );
                }
                Op::Remove { k } => {
                    lru.remove(&key(k));
                    model.remove(&k);
                }
                Op::Clear => {
                    lru.clear();
                    model.clear();
                }
            }
            // Resync evictions: any model key the LRU no longer holds
            // was evicted by the last insert. Surviving entries must
            // still have their modeled length.
            let mut survivors = std::collections::BTreeMap::new();
            for (&k, &len) in &model {
                if let Some(blob) = lru.get(&key(k)) {
                    prop_assert_eq!(blob.len(), len, "survivor {k} changed length");
                    survivors.insert(k, len);
                }
            }
            model = survivors;

            // The invariants under test.
            let live: usize = model.values().sum();
            prop_assert_eq!(lru.bytes(), live, "tracked bytes drifted from live sum");
            prop_assert_eq!(lru.len(), model.len(), "entry count drifted");
            prop_assert!(lru.bytes() <= cap, "budget exceeded: {} > {cap}", lru.bytes());
        }
    }
}
