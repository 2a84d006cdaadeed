//! Property-based tests for the rewriter core data structures.

use crate::layout::{AddressSpace, Window, MAX_ADDR, MIN_ADDR};
use crate::lock::LockMap;
use crate::pun::PunJump;
use e9qcheck::prelude::*;

props! {
    /// Every target inside a pun's window must encode, and the encoded
    /// jump, spliced over the image, must decode to exactly that target.
    #[test]
    fn pun_window_targets_all_encode(
        image in vec(any::<u8>(), 10..16),
        writable in 1u8..8,
        padding in 0u8..4,
        addr in MIN_ADDR..(1u64 << 40),
        pick in any::<u64>(),
    ) {
        let Some(pun) = PunJump::new(&image, addr, writable, padding) else {
            return Ok(());
        };
        let Some(w) = pun.target_window() else { return Ok(()) };
        let target = w.lo + pick % w.len();
        let written = pun.encode(target).expect("target inside window must encode");
        // Written bytes stay within the writable region.
        let (ws, we) = pun.written_range();
        prop_assert_eq!(we - ws, written.len() as u64);
        prop_assert!(we - addr <= writable as u64);
        // Splice and decode.
        let mut img = image.clone();
        img[..written.len()].copy_from_slice(&written);
        let insn = e9x86::decode(&img, addr).expect("punned jump must decode");
        prop_assert_eq!(insn.kind, e9x86::Kind::JmpRel32);
        prop_assert_eq!(insn.branch_target(), Some(target));
        prop_assert_eq!(insn.len(), pun.jump_len() as usize);
    }

    /// Targets outside the window must be rejected.
    #[test]
    fn pun_rejects_out_of_window(
        image in vec(any::<u8>(), 10..16),
        writable in 1u8..8,
        addr in MIN_ADDR..(1u64 << 40),
        offset in 1u64..(1u64 << 33),
    ) {
        let Some(pun) = PunJump::new(&image, addr, writable, 0) else {
            return Ok(());
        };
        let Some(w) = pun.target_window() else { return Ok(()) };
        if pun.free >= 4 {
            return Ok(()); // fully-free rel32 reaches (almost) everywhere
        }
        prop_assert!(pun.encode(w.hi - 1 + offset).is_none() || w.hi - 1 + offset < w.hi);
        if w.lo >= offset {
            prop_assert!(pun.encode(w.lo - offset).is_none());
        }
    }

    /// Placements (a search, then a reservation of what it found) never
    /// overlap and respect their windows.
    #[test]
    fn allocator_disjointness(
        reqs in vec((0u64..1u64 << 24, 1u64..512, 0u64..3), 1..60),
    ) {
        let mut space = AddressSpace::new();
        let mut taken: Vec<(u64, u64)> = Vec::new();
        for (lo_off, size, align_exp) in reqs {
            let lo = MIN_ADDR + lo_off;
            let window = Window { lo, hi: lo + (1 << 20) };
            let align = 1u64 << (align_exp * 4);
            if let Some(a) = space.find_in(window, size, align, None) {
                space.reserve(a, a + size);
                prop_assert!(a >= window.lo && a < window.hi, "start inside window");
                prop_assert_eq!(a % align, 0);
                prop_assert!(a + size <= MAX_ADDR);
                for &(s, e) in &taken {
                    prop_assert!(a + size <= s || a >= e, "overlap with [{s:#x},{e:#x})");
                }
                taken.push((a, a + size));
            }
        }
    }

    /// Lock-map writes over file-backed instruction bytes are refused iff
    /// any byte is locked.
    #[test]
    fn lockmap_refuses_locked(
        locks in vec((0u64..256, 1u64..8, any::<bool>()), 0..32),
        probe in (0u64..256, 1u64..8),
    ) {
        let nops: Vec<_> = (0..264).step_by(16).map(|a| e9x86::decode(&[0x90], a).unwrap()).collect();
        let mut map = LockMap::over(&nops, &[(0, 264)]);
        let mut locked = std::collections::HashSet::new();
        for (addr, len, modified) in locks {
            // Only lock-modify genuinely free ranges (the planner's
            // contract); punning may overlap.
            if modified {
                if map.can_write(addr, len) {
                    map.lock_modified(addr, len);
                    locked.extend(addr..addr + len);
                }
            } else {
                map.lock_punned(addr, len);
                locked.extend(addr..addr + len);
            }
        }
        let (pa, pl) = probe;
        let expect = (pa..pa + pl).all(|a| !locked.contains(&a));
        prop_assert_eq!(map.can_write(pa, pl), expect);
    }

    /// Grouping conserves every trampoline byte at its in-block offset,
    /// produces one mapping per virtual block, and never more physical
    /// blocks than the naive scheme.
    #[test]
    fn grouping_conserves_bytes(
        tramps in vec((0u64..1u64 << 16, 1usize..64), 1..40),
        granularity in 1u64..4,
    ) {
        // Make trampolines disjoint by spacing them out.
        let mut ts: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut cursor = 0x10000u64;
        for (i, (gap, len)) in tramps.into_iter().enumerate() {
            cursor += gap + 1;
            ts.push((cursor, vec![(i % 251 + 1) as u8; len]));
            cursor += len as u64;
        }
        let extents = || ts.iter().map(|(v, b)| (*v, &b[..]));
        let grouped = crate::group::group(extents(), granularity, true);
        let naive = crate::group::group(extents(), granularity, false);
        prop_assert_eq!(grouped.mapping_count(), grouped.virtual_blocks);
        prop_assert_eq!(naive.mapping_count(), naive.virtual_blocks);
        prop_assert!(grouped.groups.len() <= naive.groups.len());

        // Each group's extents are disjoint, so writing them into one
        // physical block loses nothing.
        for g in &grouped.groups {
            let mut extents = g.extents.clone();
            extents.sort_unstable_by_key(|&(off, _)| off);
            for w in extents.windows(2) {
                prop_assert!(w[0].0 + w[0].1.len() as u64 <= w[1].0);
            }
        }

        // Reconstruct a virtual view and verify every trampoline byte.
        let mut view = std::collections::HashMap::new();
        for g in &grouped.groups {
            for &vbase in &g.mapped_at {
                for &(off, bytes) in &g.extents {
                    for (i, &b) in bytes.iter().enumerate() {
                        view.insert(vbase + off + i as u64, b);
                    }
                }
            }
        }
        for (vaddr, bytes) in &ts {
            for (i, &b) in bytes.iter().enumerate() {
                prop_assert_eq!(
                    view.get(&(vaddr + i as u64)).copied(),
                    Some(b),
                    "byte {} of trampoline at {:#x} lost",
                    i,
                    vaddr
                );
            }
        }
    }
}
