//! Property tests for address-space boundary arithmetic.
//!
//! The planner feeds the allocator windows computed from `lo/hi ± REACH`
//! i128 math; near the guard pages, the 47-bit ceiling, and `u64::MAX`
//! that arithmetic must clamp — never wrap, panic, or misclassify an
//! empty window as usable. These properties drive the searches with
//! hostile windows, sizes and alignments (including the overflow shapes
//! fixed earlier: exact placement's end arithmetic, the top-down
//! search's under-the-ceiling stepping, and cursor rounding at
//! `u64::MAX`).
//!
//! Equivalence properties pin the planner's flat state to simple models.
//! Random find-and-reserve sequences on [`AddressSpace`] must give the
//! results of a probe-per-interval first fit ([`RefSpace`]); so must the
//! planner's search-then-commit placement, against reserving each size
//! bound and freeing the slack. Random lock sequences on a dense
//! [`LockMap`] must read like a `HashMap` of per-byte states over the
//! file-backed bytes of its runs, at addresses inside and outside them.
//!
//! The plain tests at the end pin the planner's side of the same
//! arithmetic: degenerate reach windows are typed errors, never panics,
//! and a disassembly with far-apart instructions costs memory by its
//! bytes, not by the span between them.

use e9patch::layout::{AddressSpace, Window, MAX_ADDR, MIN_ADDR};
use e9patch::lock::{LockMap, LockState, RUN_TAIL};
use e9patch::planner::{PatchRequest, Planner, RewriteConfig};
use e9patch::trampoline::Template;
use e9patch::{Error, Rewriter};
use e9qcheck::prelude::*;
use e9x86::decode::linear_sweep;
use e9x86::insn::Insn;
use std::collections::{BTreeMap, HashMap};

/// Mirror of the planner's rel32 reach margin (kept private there).
const REACH: i128 = 0x7FFF_0000;

props! {
    #[test]
    fn from_i128_always_in_bounds(t in any::<u64>(), neg in any::<bool>()) {
        let centre = if neg { -(t as i128) } else { t as i128 };
        if let Some(w) = Window::from_i128(centre - REACH, centre + REACH) {
            prop_assert!(w.lo >= MIN_ADDR);
            prop_assert!(w.hi <= MAX_ADDR);
            prop_assert!(w.lo < w.hi);
        }
    }

    #[test]
    fn from_i128_near_reach_edges(jitter in 0i64..8192) {
        // Sites whose targets sit near ±REACH of the clamp boundaries —
        // the i32::MIN/MAX-reach shapes from the planner's reach_window.
        for edge in [MIN_ADDR as i128, MAX_ADDR as i128, 0, i32::MIN as i128, i32::MAX as i128] {
            let lo = edge - REACH + jitter as i128;
            let hi = edge + REACH - jitter as i128;
            if let Some(w) = Window::from_i128(lo, hi) {
                prop_assert!(w.lo >= MIN_ADDR && w.hi <= MAX_ADDR && w.lo < w.hi);
            }
        }
    }

    #[test]
    fn alloc_at_never_panics(
        addr in any::<u64>(),
        size in any::<u64>(),
        resv in vec((any::<u64>(), any::<u64>()), 0..6),
    ) {
        // An exact placement searches the one-address window at `addr`.
        let mut a = AddressSpace::new();
        for (s, e) in resv {
            a.reserve(s, e);
        }
        let w = Window { lo: addr, hi: addr.saturating_add(1) };
        for x in [a.find_in(w, size, 1, None), a.find_in_high(w, size, 1, None)]
            .into_iter()
            .flatten()
        {
            prop_assert_eq!(x, addr);
            prop_assert!(addr >= MIN_ADDR);
            prop_assert!(addr.checked_add(size).is_some_and(|e| e <= MAX_ADDR));
        }
    }

    #[test]
    fn alloc_in_hostile_inputs_never_panic(
        lo in any::<u64>(),
        len in any::<u64>(),
        size in any::<u64>(),
        align in any::<u64>(),
    ) {
        let w = Window { lo, hi: lo.saturating_add(len) };
        let mut a = AddressSpace::new();
        if let Some(x) = a.find_in(w, size, align, None) {
            prop_assert!(x >= w.lo && x < w.hi);
            prop_assert!(x.checked_add(size).is_some_and(|e| e <= MAX_ADDR));
        }
        if let Some(x) = a.find_in_high(w, size, align, None) {
            prop_assert!(x >= w.lo && x < w.hi);
            prop_assert!(x.checked_add(size).is_some_and(|e| e <= MAX_ADDR));
        }
    }

    #[test]
    fn alloc_near_ceiling_respects_bounds(
        back in 0u64..0x4000,
        size in 1u64..0x2000,
        align in 1u64..64,
        resv_back in 0u64..0x1000,
        resv_len in 0u64..0x800,
    ) {
        // Windows hugging the 47-bit ceiling, with a reservation nearby.
        let w = Window { lo: MAX_ADDR - back.min(MAX_ADDR - MIN_ADDR), hi: u64::MAX };
        let mut a = AddressSpace::new();
        a.reserve(MAX_ADDR - resv_back, MAX_ADDR - resv_back + resv_len);
        for x in [a.find_in(w, size, align, None), a.find_in_high(w, size, align, None)]
            .into_iter()
            .flatten()
        {
            prop_assert!(x >= w.lo);
            prop_assert!(x + size <= MAX_ADDR);
            prop_assert_eq!(x % align, 0);
        }
    }
}

/// The allocator before its intervals were keyed by end: a `BTreeMap`
/// from start to end, and first fit by one probe per skipped interval.
/// The equivalence property checks the product against it.
#[derive(Debug, Clone, Default)]
struct RefSpace {
    occupied: BTreeMap<u64, u64>,
}

impl RefSpace {
    fn reserve(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let (mut new_start, mut new_end) = (start, end);
        let overlapping: Vec<u64> = self
            .occupied
            .range(..=end)
            .rev()
            .take_while(|(_, &e)| e >= new_start)
            .filter(|(&s, &e)| e >= start && s <= end)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let e = self.occupied.remove(&s).unwrap();
            new_start = new_start.min(s);
            new_end = new_end.max(e);
        }
        self.occupied.insert(new_start, new_end);
    }

    fn free(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let affected: Vec<(u64, u64)> = self
            .occupied
            .range(..end)
            .rev()
            .take_while(|(_, &e)| e > start)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in affected {
            self.occupied.remove(&s);
            if s < start {
                self.occupied.insert(s, start);
            }
            if e > end {
                self.occupied.insert(end, e);
            }
        }
    }

    fn is_free(&self, start: u64, end: u64) -> bool {
        start >= end
            || self
                .occupied
                .range(..end)
                .next_back()
                .is_none_or(|(_, &e)| e <= start)
    }

    /// Could `size` bytes be placed at `addr`?
    fn fits(&self, addr: u64, size: u64) -> bool {
        addr >= MIN_ADDR
            && size > 0
            && addr
                .checked_add(size)
                .is_some_and(|end| end <= MAX_ADDR && self.is_free(addr, end))
    }

    fn alloc_in(&mut self, window: Window, size: u64, align: u64) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let align = align.max(1);
        let mut cursor = window.lo.checked_next_multiple_of(align)?;
        while cursor < window.hi {
            let end = cursor.checked_add(size)?;
            if end > MAX_ADDR {
                return None;
            }
            match self
                .occupied
                .range(..end)
                .next_back()
                .map(|(&s, &e)| (s, e))
            {
                Some((_, e)) if e > cursor => cursor = e.checked_next_multiple_of(align)?,
                _ => {
                    self.reserve(cursor, end);
                    return Some(cursor);
                }
            }
        }
        None
    }

    fn alloc_in_high(&mut self, window: Window, size: u64, align: u64) -> Option<u64> {
        if size == 0 || window.is_empty() {
            return None;
        }
        let align = align.max(1);
        let mut cursor = (window.hi - 1) / align * align;
        loop {
            if cursor < window.lo {
                return None;
            }
            let end = cursor.checked_add(size)?;
            if end > MAX_ADDR {
                cursor = MAX_ADDR.checked_sub(size)? / align * align;
                continue;
            }
            match self
                .occupied
                .range(..end)
                .next_back()
                .map(|(&s, &e)| (s, e))
            {
                Some((s, e)) if e > cursor => {
                    let next = s.checked_sub(size)? / align * align;
                    if next >= cursor {
                        return None;
                    }
                    cursor = next;
                }
                _ => {
                    self.reserve(cursor, end);
                    return Some(cursor);
                }
            }
        }
    }

    fn alloc_at(&mut self, addr: u64, size: u64) -> Option<u64> {
        if !self.fits(addr, size) {
            return None;
        }
        self.reserve(addr, addr + size);
        Some(addr)
    }
}

/// Place `size` bytes with a search, then reserve what it found: the
/// planner's find-and-reserve.
fn place(
    a: &mut AddressSpace,
    high: bool,
    w: Window,
    size: u64,
    align: u64,
    taken: Option<(u64, u64)>,
) -> Option<u64> {
    let x = if high {
        a.find_in_high(w, size, align, taken)
    } else {
        a.find_in(w, size, align, taken)
    }?;
    a.reserve(x, x + size);
    Some(x)
}

/// Are the `size` bytes at `addr` free? A search of the one-address
/// window at `addr` answers.
fn fits(a: &mut AddressSpace, addr: u64, size: u64) -> bool {
    let w = Window {
        lo: addr,
        hi: addr + 1,
    };
    a.find_in(w, size, 1, None) == Some(addr)
}

/// Trampoline size bounds for the search-then-commit property: a few,
/// so that each one's search floor is reused.
const SIZES: [u64; 4] = [8, 21, 40, 77];

/// Nops of each length 1..=5, for disassemblies with a chosen layout.
const NOPS: [&[u8]; 5] = [
    &[0x90],
    &[0x66, 0x90],
    &[0x0F, 0x1F, 0x00],
    &[0x0F, 0x1F, 0x40, 0x00],
    &[0x0F, 0x1F, 0x44, 0x00, 0x00],
];

/// The instruction `NOPS[len - 1]` decoded at `addr`.
fn nop(len: usize, addr: u64) -> Insn {
    let i = e9x86::decode(NOPS[len - 1], addr).expect("nop");
    assert_eq!(i.len(), len);
    i
}

/// Where the degenerate instruction of the hostile cases sits: far above
/// the 47-bit ceiling, near the top of the `u64` range.
const WEIRD: u64 = 0xFFFF_FFFF_FFFF_0000;

props! {
    #[test]
    fn address_space_matches_probe_per_interval_first_fit(
        high in any::<bool>(),
        ops in vec((0u8..8, 0u64..0x3000, 0u64..0x3000, 1u64..0x200, 0usize..4), 1..64),
    ) {
        // Operations land in one 12 KiB stretch, at the bottom of the
        // usable space or straddling its ceiling, so they collide often.
        let base = if high { MAX_ADDR - 0x2000 } else { MIN_ADDR };
        let mut a = AddressSpace::new();
        let mut r = RefSpace::default();
        for (op, x, y, size, k) in ops {
            let align = [1, 2, 16, e9elf::PAGE_SIZE][k];
            let lo = base + x;
            let len = y % 0x400;
            let w = Window { lo, hi: lo + y };
            let exact = Window { lo, hi: lo + 1 };
            let (got, want) = match op {
                0 => {
                    a.reserve(lo, lo + len);
                    r.reserve(lo, lo + len);
                    (None, None)
                }
                1 => (place(&mut a, false, w, size, align, None), r.alloc_in(w, size, align)),
                2 => (place(&mut a, true, w, size, align, None), r.alloc_in_high(w, size, align)),
                3 => (place(&mut a, false, exact, size, 1, None), r.alloc_at(lo, size)),
                4 => (Some(fits(&mut a, lo, size) as u64), Some(r.fits(lo, size) as u64)),
                // The loader's placement: page-aligned, anywhere.
                5 => (
                    a.find_in(Window::all(), size * 16, e9elf::PAGE_SIZE, None),
                    r.clone().alloc_in(Window::all(), size * 16, e9elf::PAGE_SIZE),
                ),
                // A trampoline that may go anywhere (a B1 jump from low
                // code), walking every interval from the bottom.
                _ => {
                    let size = size % 8 * 16 + 1;
                    (place(&mut a, false, Window::all(), size, 1, None), r.alloc_in(Window::all(), size, 1))
                }
            };
            prop_assert_eq!(got, want, "op {} at {:#x}", op, lo);
        }
        for x in (base..base + 0x3400).step_by(0x40) {
            prop_assert_eq!(fits(&mut a, x, 0x40), r.fits(x, 0x40), "{:#x}", x);
        }
    }

    #[test]
    fn search_then_commit_matches_reserve_then_roll_back(
        high in any::<bool>(),
        ops in vec((0u8..6, 0u64..0x3000, 0u64..0x3000, 0usize..4, 0usize..4, 0u64..0x100), 1..96),
    ) {
        // The planner finds every address a tactic needs, builds, and
        // then reserves exactly the built bytes. The model is placement
        // as it was before: reserve each size bound as it is found, free
        // the slack after the build, or the whole bound when a later step
        // fails. Placements search a 12 KiB stretch at the bottom of the
        // usable space, and half of their windows begin at its bottom, so
        // the search floor of each size is reused.
        let find = |a: &mut AddressSpace, w: Window, size: u64, taken: Option<(u64, u64)>| {
            if high {
                a.find_in_high(w, size, 1, taken)
            } else {
                a.find_in(w, size, 1, taken)
            }
        };
        let alloc = |r: &mut RefSpace, w: Window, size: u64| {
            if high {
                r.alloc_in_high(w, size, 1)
            } else {
                r.alloc_in(w, size, 1)
            }
        };
        let mut a = AddressSpace::new();
        let mut r = RefSpace::default();
        for (op, x, y, k, k2, z) in ops {
            let (size, size2) = (SIZES[k], SIZES[k2]);
            // What the build used: 1 to `size` bytes.
            let (built, built2) = (size - z % size, size2 - (z >> 2) % size2);
            let lo = if x % 2 == 0 { MIN_ADDR } else { MIN_ADDR + x };
            let w = Window { lo, hi: lo + y };
            match op {
                // One trampoline: B1/B2/T1, T2's evictee or B0.
                0 | 1 => {
                    let got = find(&mut a, w, size, None);
                    prop_assert_eq!(got, alloc(&mut r, w, size), "place {} in {:x?}", size, w);
                    if let Some(t) = got {
                        a.reserve(t, t + built);
                        r.free(t + built, t + size);
                    }
                }
                // T3: a patch trampoline, then an evictee clear of the
                // patch trampoline's whole bound, or a roll-back.
                2 | 3 => {
                    let Some(t) = find(&mut a, w, size, None) else {
                        prop_assert_eq!(alloc(&mut r, w, size), None);
                        continue;
                    };
                    prop_assert_eq!(alloc(&mut r, w, size), Some(t));
                    let w2 = Window { lo: t.saturating_sub(z).max(MIN_ADDR), hi: t + y % 0x200 + 1 };
                    let got = find(&mut a, w2, size2, Some((t, t + size)));
                    prop_assert_eq!(got, alloc(&mut r, w2, size2), "evictee {} in {:x?}", size2, w2);
                    match got {
                        Some(e) => {
                            a.reserve(t, t + built);
                            a.reserve(e, e + built2);
                            r.free(t + built, t + size);
                            r.free(e + built2, e + size2);
                        }
                        None => r.free(t, t + size),
                    }
                }
                // A search clear of an arbitrary taken range.
                4 => {
                    let taken = (MIN_ADDR + z * 16, MIN_ADDR + z * 16 + y % 0x100 + 1);
                    let mut model = r.clone();
                    model.reserve(taken.0, taken.1);
                    prop_assert_eq!(find(&mut a, w, size, Some(taken)), alloc(&mut model, w, size));
                }
                _ => {
                    let len = y % 0x80;
                    a.reserve(MIN_ADDR + x, MIN_ADDR + x + len);
                    r.reserve(MIN_ADDR + x, MIN_ADDR + x + len);
                }
            }
        }
        for x in (MIN_ADDR..MIN_ADDR + 0x3400).step_by(0x10) {
            prop_assert_eq!(fits(&mut a, x, 0x10), r.fits(x, 0x10), "{:#x}", x);
        }
    }

    #[test]
    fn lock_map_matches_a_hashmap_model(
        layout in vec((1usize..6, 0u64..40), 1..24),
        far in any::<bool>(),
        cuts in (0u64..0x40, 0u64..0x40),
        ops in vec((0u8..4, 0u64..0x400, 1u64..8), 1..64),
    ) {
        // Instructions with random gaps (some wider than RUN_TAIL, so
        // there are several runs), and maybe the degenerate far one. The
        // image holds the bytes from `cuts.0` past the first instruction
        // to `cuts.1` short of the last one's end, and around the far one.
        let mut insns = Vec::new();
        let mut addr = 0x401000;
        for &(len, gap) in &layout {
            addr += gap;
            insns.push(nop(len, addr));
            addr += len as u64;
        }
        let mut backed = vec![(insns[0].addr + cuts.0, addr.saturating_sub(cuts.1))];
        if far {
            insns.push(nop(3, WEIRD));
            backed.push((WEIRD - 0x10, WEIRD + 0x10));
        }
        let mut map = LockMap::over(&insns, &backed);
        let disasm_bytes: u64 = insns.iter().map(|i| i.len() as u64).sum();
        prop_assert!(map.dense_bytes() as u64 <= disasm_bytes + RUN_TAIL * insns.len() as u64);
        // The model: a byte is held when the image holds it and it lies
        // within RUN_TAIL bytes past some instruction's end.
        let held = |b: u64| {
            backed.iter().any(|&(s, e)| s <= b && b < e)
                && insns.iter().any(|i| i.addr <= b && b < i.end() + RUN_TAIL)
        };
        let mut model: HashMap<u64, LockState> = HashMap::new();
        // Probes start below the first run and end past the last; every
        // third one lands around the far instruction instead.
        let at = |x: u64| {
            if far && x.is_multiple_of(3) {
                WEIRD - 0x20 + x % 0x60
            } else {
                0x401000 - 0x20 + x
            }
        };
        for (op, x, len) in ops {
            let a = at(x);
            let free = (a..a + len).all(|b| held(b) && !model.contains_key(&b));
            prop_assert_eq!(map.can_write(a, len), free, "can_write({:#x}, {})", a, len);
            match op {
                // The planner's contract: Modified only on free bytes.
                0 if free => {
                    map.lock_modified(a, len);
                    model.extend((a..a + len).map(|b| (b, LockState::Modified)));
                }
                1 => {
                    map.lock_punned(a, len);
                    for b in (a..a + len).filter(|&b| held(b)) {
                        model.entry(b).or_insert(LockState::Punned);
                    }
                }
                _ => prop_assert_eq!(map.state(a), model.get(&a).copied(), "state({:#x})", a),
            }
            prop_assert_eq!(map.len(), model.len());
        }
        for x in 0..0x460 {
            let a = at(x);
            prop_assert_eq!(map.state(a), model.get(&a).copied(), "state({:#x})", a);
            prop_assert_eq!(map.can_write(a, 1), held(a) && !model.contains_key(&a), "{:#x}", a);
        }
    }
}

/// A one-function non-PIE binary around `code` at `0x401000`, with its
/// decoded instructions.
fn tiny(code: &[u8]) -> (Vec<u8>, Vec<Insn>) {
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code.to_vec(), 0x401000);
    b.entry(0x401000);
    (b.build(), linear_sweep(code, 0x401000))
}

#[test]
fn unreachable_targets_is_a_typed_error() {
    // Regression for the reach-window panic path: an instruction decoded
    // at a degenerate address above the 47-bit ceiling pushes its rel32
    // targets out of every window — formerly this cascaded into unwraps,
    // now it must be a typed error.
    let (input, mut insns) = tiny(&[0x48, 0x89, 0x03, 0xC3]); // mov %rax,(%rbx); ret
    let elf = e9elf::Elf::parse(&input).expect("parse");
    let weird = 0xFFFF_FFFF_FFFF_0000u64;
    insns.extend(linear_sweep(&[0x48, 0x89, 0x03], weird));
    let mut planner = Planner::new(elf, &insns, RewriteConfig::default(), &[]).unwrap();
    let err = planner.patch_site(weird, &Template::Empty).unwrap_err();
    assert_eq!(err, Error::UnreachableTargets(weird));
}

#[test]
fn empty_target_set_does_not_panic() {
    // Regression: `ret` has no rel32 targets; the old bounds code
    // special-cased this ahead of a pair of `unwrap`s — the fold must
    // yield the unconstrained window and patch normally.
    let (input, insns) = tiny(&[0xC3, 0x90, 0x90, 0x90, 0x90]); // ret; nops
    let elf = e9elf::Elf::parse(&input).expect("parse");
    let mut planner = Planner::new(elf, &insns, RewriteConfig::default(), &[]).unwrap();
    // Outcome (patched or not) is irrelevant; reaching it without a panic
    // or error is the contract.
    planner
        .patch_site(0x401000, &Template::Empty)
        .expect("ret site must not error");
}

#[test]
fn first_error_is_the_highest_bad_address() {
    // S1 processes requests highest-address-first, so of two requests
    // naming unknown instructions the higher one is reported.
    let code = [0x48, 0x89, 0x03, 0xC3];
    let (input, disasm) = tiny(&code);
    let mut reqs = vec![PatchRequest {
        addr: 0x401000,
        template: Template::Empty,
    }];
    for addr in [0x402000, 0x409000] {
        reqs.push(PatchRequest {
            addr,
            template: Template::Empty,
        });
    }
    let err = Rewriter::new(RewriteConfig::default())
        .rewrite(&input, &disasm, &reqs, &[])
        .unwrap_err();
    assert_eq!(err, Error::NoSuchInstruction(0x409000));
}

#[test]
fn far_apart_instructions_cost_their_bytes_not_their_span() {
    // A real function at 0x401000, one instruction just under the 47-bit
    // ceiling and one at WEIRD: dense lock state spanning them would need
    // 2^64 bytes. The rewrite runs (the far sites are not file-backed,
    // so they fail) and the degenerate one is a typed error.
    let code = [
        0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0xC3, 0x90, 0x90, 0x90, 0x90, 0x90,
    ];
    let (input, mut disasm) = tiny(&code);
    let near_top = MAX_ADDR - 0x10;
    disasm.push(nop(5, near_top));
    disasm.push(nop(3, WEIRD));
    let dense_bound = disasm
        .iter()
        .map(|i| i.len() as u64 + RUN_TAIL)
        .sum::<u64>();

    let elf = e9elf::Elf::parse(&input).expect("parse");
    let planner = Planner::new(elf, &disasm, RewriteConfig::default(), &[]).unwrap();
    assert!(planner.locks.dense_bytes() as u64 <= dense_bound);

    let req = |addr| PatchRequest {
        addr,
        template: Template::Empty,
    };
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(
            &input,
            &disasm,
            &[req(0x401000), req(0x401003), req(near_top)],
            &[],
        )
        .expect("rewrite");
    assert_eq!(out.stats.total(), 3);
    assert!(out.stats.succeeded() >= 1, "{:?}", out.stats);
    let top = out
        .reports
        .iter()
        .find(|r| r.addr == near_top)
        .expect("report");
    assert_eq!(top.tactic, None);
    // Shuffled, the same disassembly gives the same bytes.
    let mut shuffled = disasm.clone();
    shuffled.reverse();
    let again = Rewriter::new(RewriteConfig::default())
        .rewrite(
            &input,
            &shuffled,
            &[req(0x401000), req(0x401003), req(near_top)],
            &[],
        )
        .expect("rewrite");
    assert_eq!(again.binary, out.binary);

    let err = Rewriter::new(RewriteConfig::default())
        .rewrite(&input, &disasm, &[req(0x401000), req(WEIRD)], &[])
        .unwrap_err();
    assert_eq!(err, Error::UnreachableTargets(WEIRD));
}
