//! Physical page grouping (§4).
//!
//! Punned trampolines end up scattered across the virtual address space
//! (each pun window dictates its own neighbourhood), so virtual utilisation
//! is poor — in the worst case ~1 trampoline per page. A naïve one-to-one
//! physical backing would bloat the output file proportionally.
//!
//! Physical page grouping divides the address space into blocks of `M`
//! pages and *merges* blocks whose trampoline extents do not overlap
//! relative to the block base. Each merged physical block is emitted once
//! and mapped at every member block's virtual base (a one-to-many,
//! file-backed mapping), as in the paper's Figure 3.
//!
//! Grouping only partitions. It takes each trampoline as a
//! `(vaddr, &[u8])` extent borrowed from the planner's trampoline arena,
//! a [`PhysBlock`] lends those bytes on as `(offset, &[u8])` extents, and
//! the rewriter writes them straight into the output file. No trampoline
//! byte is copied before that write.
//!
//! Partitioning is a combinatorial optimisation; like E9Patch we use a
//! greedy algorithm (first-fit over groups, densest block first). To keep
//! very large binaries near-linear, each block's occupancy is summarised
//! as a 64-bucket bitmap: bucket-disjointness is a *sufficient* condition
//! for byte-disjointness, so a single `u64 & u64` test decides mergability
//! (at a small optimality cost). At most [`MAX_GROUP_SCAN`] groups are
//! examined per block.

use e9elf::PAGE_SIZE;

/// Cap on how many existing groups greedy placement examines per block.
pub const MAX_GROUP_SCAN: usize = 8192;

/// Linux's default `vm.max_map_count` — the mapping budget the paper
/// discusses for granularity `M ≥ 64`.
pub const DEFAULT_MAX_MAP_COUNT: u64 = 65536;

/// One merged physical block and the virtual bases it is mapped at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysBlock<'t> {
    /// Disjoint `(offset, bytes)` extents within the block, borrowed from
    /// the trampolines; every other byte of the block is zero.
    pub extents: Vec<(u64, &'t [u8])>,
    /// Virtual base addresses this physical block must be mapped at.
    pub mapped_at: Vec<u64>,
}

/// Result of the grouping pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping<'t> {
    /// Block size in bytes (`M * PAGE_SIZE`).
    pub block_size: u64,
    /// Merged physical blocks.
    pub groups: Vec<PhysBlock<'t>>,
    /// Number of virtual blocks that contained trampoline bytes.
    pub virtual_blocks: u64,
}

impl Grouping<'_> {
    /// Total mappings the loader must create.
    pub fn mapping_count(&self) -> u64 {
        self.groups.iter().map(|g| g.mapped_at.len() as u64).sum()
    }
}

#[derive(Debug)]
struct BlockOcc<'t> {
    base: u64,
    /// Sorted, disjoint (offset, bytes) extents within the block.
    extents: Vec<(u64, &'t [u8])>,
    occupied: u64,
    /// 64-bucket coarse occupancy bitmap (bit i set ⇔ some byte in bucket
    /// i is used). Bucket-disjoint blocks are byte-disjoint.
    bits: u64,
}

fn occupancy_bits(extents: &[(u64, &[u8])], block_size: u64) -> u64 {
    let bucket = (block_size / 64).max(1);
    let mut bits = 0u64;
    for (off, bytes) in extents {
        let lo = off / bucket;
        let hi = (off + bytes.len() as u64 - 1) / bucket;
        for b in lo..=hi.min(63) {
            bits |= 1 << b;
        }
    }
    bits
}

/// Group trampoline blobs into merged physical blocks.
///
/// `trampolines` are `(vaddr, bytes)` extents (arbitrary order, arbitrary
/// sizes; extents spanning block boundaries are split into
/// mini-trampolines, as in the paper), whose bytes the result borrows. `granularity` is the paper's `M`
/// (pages per block). With `enable == false` the naïve one-to-one mapping
/// is produced (each virtual block backed by its own physical block) — the
/// ablation baseline for experiment E4.
///
/// # Panics
///
/// Panics if two trampolines overlap in virtual memory (allocator
/// invariant).
pub fn group<'t>(
    trampolines: impl IntoIterator<Item = (u64, &'t [u8])>,
    granularity: u64,
    enable: bool,
) -> Grouping<'t> {
    let bs = granularity.max(1) * PAGE_SIZE;

    // Split extents at block boundaries into (block base, offset, bytes)
    // pieces, sorted by block base then offset.
    let trampolines = trampolines.into_iter();
    let mut pieces: Vec<(u64, u64, &[u8])> = Vec::with_capacity(trampolines.size_hint().0);
    for (vaddr, bytes) in trampolines {
        let mut va = vaddr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let base = va / bs * bs;
            let off = va - base;
            let take = ((bs - off) as usize).min(rest.len());
            pieces.push((base, off, &rest[..take]));
            va += take as u64;
            rest = &rest[take..];
        }
    }
    pieces.sort_by_key(|&(base, off, _)| (base, off));

    let mut occs: Vec<BlockOcc> = pieces
        .chunk_by(|a, b| a.0 == b.0)
        .map(|block| {
            let base = block[0].0;
            let extents: Vec<(u64, &[u8])> = block.iter().map(|&(_, o, b)| (o, b)).collect();
            for w in extents.windows(2) {
                assert!(
                    w[0].0 + w[0].1.len() as u64 <= w[1].0,
                    "overlapping trampolines within block {base:#x}"
                );
            }
            let occupied = extents.iter().map(|(_, b)| b.len() as u64).sum();
            let bits = occupancy_bits(&extents, bs);
            BlockOcc {
                base,
                extents,
                occupied,
                bits,
            }
        })
        .collect();
    let virtual_blocks = occs.len() as u64;

    // First-fit decreasing by occupancy; mergability decided by the
    // coarse bitmaps (sufficient for byte-disjointness). The naïve layout
    // scans no group, so every block starts its own.
    let scan = if enable { MAX_GROUP_SCAN } else { 0 };
    if enable {
        occs.sort_by(|a, b| b.occupied.cmp(&a.occupied).then(a.base.cmp(&b.base)));
    }
    // Each group keeps its coarse bitmap beside the block it grows.
    let mut groups: Vec<(u64, PhysBlock)> = Vec::new();
    for blk in occs {
        let fit = groups
            .iter_mut()
            .take(scan)
            .find(|(bits, _)| *bits & blk.bits == 0);
        match fit {
            Some((bits, g)) => {
                *bits |= blk.bits;
                g.extents.extend_from_slice(&blk.extents);
                g.mapped_at.push(blk.base);
            }
            None => groups.push((
                blk.bits,
                PhysBlock {
                    extents: blk.extents,
                    mapped_at: vec![blk.base],
                },
            )),
        }
    }

    Grouping {
        block_size: bs,
        groups: groups
            .into_iter()
            .map(|(_, mut g)| {
                g.mapped_at.sort_unstable();
                g
            })
            .collect(),
        virtual_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vaddr: u64, len: usize, fill: u8) -> (u64, Vec<u8>) {
        (vaddr, vec![fill; len])
    }

    /// [`group`] over owned trampolines.
    fn grouped(ts: &[(u64, Vec<u8>)], granularity: u64, enable: bool) -> Grouping<'_> {
        group(ts.iter().map(|(v, b)| (*v, &b[..])), granularity, enable)
    }

    /// The byte at `off` in `blk`, read through its extents (`None` where
    /// the block is zero).
    fn byte_at(blk: &PhysBlock, off: u64) -> Option<u8> {
        blk.extents
            .iter()
            .find(|(o, b)| (*o..*o + b.len() as u64).contains(&off))
            .map(|(o, b)| b[(off - o) as usize])
    }

    #[test]
    fn figure3_style_merge() {
        // Five trampolines over three pages with disjoint in-page offsets
        // merge into a single physical page (the paper's Figure 3).
        let ts = vec![
            t(0x10000, 0x100, 1), // page 1, offset 0x000
            t(0x10400, 0x100, 2), // page 1, offset 0x400
            t(0x11800, 0x100, 3), // page 2, offset 0x800
            t(0x12200, 0x100, 4), // page 3, offset 0x200
            t(0x12C00, 0x100, 5), // page 3, offset 0xC00
        ];
        let g = grouped(&ts, 1, true);
        assert_eq!(g.virtual_blocks, 3);
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.mapping_count(), 3);
        let blk = &g.groups[0];
        assert_eq!(blk.mapped_at, vec![0x10000, 0x11000, 0x12000]);
        assert_eq!(byte_at(blk, 0x000), Some(1));
        assert_eq!(byte_at(blk, 0x400), Some(2));
        assert_eq!(byte_at(blk, 0x800), Some(3));
        assert_eq!(byte_at(blk, 0x200), Some(4));
        assert_eq!(byte_at(blk, 0xC00), Some(5));
    }

    #[test]
    fn naive_mode_one_to_one() {
        let ts = vec![
            t(0x10000, 0x10, 1),
            t(0x11000, 0x10, 2),
            t(0x12000, 0x10, 3),
        ];
        let g = grouped(&ts, 1, false);
        assert_eq!(g.groups.len(), 3);
        assert_eq!(g.mapping_count(), 3);
    }

    #[test]
    fn conflicting_offsets_stay_separate() {
        // Same in-page offset → cannot merge.
        let ts = vec![t(0x10000, 0x10, 1), t(0x11000, 0x10, 2)];
        let g = grouped(&ts, 1, true);
        assert_eq!(g.groups.len(), 2);
    }

    #[test]
    fn spanning_trampoline_splits() {
        // A trampoline crossing a page boundary becomes two
        // mini-trampolines in two blocks.
        let ts = vec![t(0x10FF0, 0x20, 7)];
        let g = grouped(&ts, 1, true);
        assert_eq!(g.virtual_blocks, 2);
        // Bytes land at offsets 0xFF0 (page 1) and 0x000 (page 2) — those
        // two blocks conflict-freely merge into one physical page? No:
        // offsets 0xFF0..0x1000 and 0x000..0x010 are disjoint, so yes.
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.mapping_count(), 2);
        let b = &g.groups[0];
        assert_eq!(byte_at(b, 0xFF0), Some(7));
        assert_eq!(byte_at(b, 0x00F), Some(7));
    }

    #[test]
    fn coarser_granularity_reduces_mappings() {
        // 16 trampolines spread over 16 pages.
        let ts: Vec<_> = (0..16)
            .map(|i| t(0x10000 + i * 0x1000 + (i % 4) * 0x400, 0x40, i as u8 + 1))
            .collect();
        let g1 = grouped(&ts, 1, true);
        let g4 = grouped(&ts, 4, true);
        assert!(g4.mapping_count() <= g1.mapping_count());
        assert_eq!(g4.block_size, 4 * PAGE_SIZE);
    }

    #[test]
    fn grouping_reduces_physical_bytes() {
        // 64 single-trampoline pages with distinct offsets — grouping should
        // collapse them dramatically; naive stays at 64 pages.
        let ts: Vec<_> = (0..64)
            .map(|i| t(0x100000 + i * 0x1000 + i * 0x40, 0x40, (i % 250) as u8 + 1))
            .collect();
        let naive = grouped(&ts, 1, false);
        let grouped = grouped(&ts, 1, true);
        assert_eq!(naive.groups.len(), 64);
        assert!(grouped.groups.len() <= 2);
        assert_eq!(grouped.mapping_count(), 64); // mappings unchanged
    }

    #[test]
    #[should_panic(expected = "overlapping trampolines")]
    fn overlap_detected() {
        let ts = vec![t(0x10000, 0x20, 1), t(0x10010, 0x20, 2)];
        grouped(&ts, 1, true);
    }

    #[test]
    fn bucket_conservatism_keeps_correctness() {
        // Two byte-disjoint trampolines sharing a 64-byte bucket: the
        // coarse bitmap may refuse to merge them (optimality loss), but
        // byte conservation must hold either way.
        let ts = vec![t(0x10000, 0x10, 1), t(0x11020, 0x10, 2)];
        let g = grouped(&ts, 1, true);
        // Offsets 0x000 and 0x020 are in the same bucket (bucket = 64 B).
        assert!(g.groups.len() <= 2);
        let mut found = 0;
        for blk in &g.groups {
            for &vbase in &blk.mapped_at {
                for (va, bytes) in &ts {
                    if *va >= vbase && *va + bytes.len() as u64 <= vbase + g.block_size {
                        let off = *va - vbase;
                        if (off..).zip(bytes).all(|(o, &b)| byte_at(blk, o) == Some(b)) {
                            found += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(found, 2, "every trampoline present at its offset");
    }

    #[test]
    fn boundary_straddling_bucket_bits() {
        // An extent ending exactly at the block edge must not overflow the
        // 64-bit occupancy bitmap (bucket index 63).
        let ts = vec![t(0x10000 + 4096 - 8, 8, 9)];
        let g = grouped(&ts, 1, true);
        assert_eq!(g.groups.len(), 1);
        assert_eq!(byte_at(&g.groups[0], 4088), Some(9));
    }

    #[test]
    fn empty_input() {
        let g = grouped(&[], 1, true);
        assert_eq!(g.groups.len(), 0);
        assert_eq!(g.mapping_count(), 0);
        assert_eq!(g.virtual_blocks, 0);
    }
}
