//! Virtual-address-space bookkeeping for trampoline placement.
//!
//! Instruction punning constrains where a trampoline may live: the punned
//! `rel32`'s high bytes are fixed by successor-instruction bytes, leaving a
//! window of `256^f` candidate addresses (§2.1.3). The allocator finds
//! free space *inside that window* amongst the binary's own segments, guard
//! regions and previously placed trampolines, and reserves what the
//! planner builds there. It does two things only, find and reserve:
//! nothing is ever freed, because the planner commits a tactic only once
//! every address it needs has been found. Because nothing is freed, a low
//! search starts from a floor per `(size, align)` below which no such
//! block fits; a rewrite asks for a few distinct sizes only, so the floors
//! are a small flat table.
//!
//! The model reserves:
//!
//! * the null/low guard (`0 .. 0x10000`) — jumps that pun to near-zero
//!   offsets are invalid, exactly the failing case in the paper's §2.1.3
//!   example;
//! * everything at and above the 47-bit userspace ceiling — "negative"
//!   punned offsets from a low (non-PIE) text segment wrap below zero and
//!   are likewise invalid;
//! * every `PT_LOAD` segment of the input binary (plus a guard page), which
//!   is how large `.bss` programs (gamess, zeusmp) starve the allocator —
//!   the paper's limitation **L1**.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// Lowest usable address (null-page guard).
pub const MIN_ADDR: u64 = 0x10000;
/// One past the highest usable address (47-bit userspace, minus a guard).
pub const MAX_ADDR: u64 = 0x7FFF_FFFF_E000;

/// An inclusive-exclusive interval of candidate target addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First candidate address.
    pub lo: u64,
    /// One past the last candidate address.
    pub hi: u64,
}

impl Window {
    /// The full usable address space.
    pub fn all() -> Window {
        Window {
            lo: MIN_ADDR,
            hi: MAX_ADDR,
        }
    }

    /// Construct from possibly-out-of-range signed bounds, clamping to the
    /// usable space. Returns `None` if the clamped window is empty.
    pub fn from_i128(lo: i128, hi: i128) -> Option<Window> {
        let lo = lo.max(MIN_ADDR as i128);
        let hi = hi.min(MAX_ADDR as i128);
        if lo >= hi {
            None
        } else {
            Some(Window {
                lo: lo as u64,
                hi: hi as u64,
            })
        }
    }

    /// Intersection of two windows, if non-empty.
    pub fn intersect(self, other: Window) -> Option<Window> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo >= hi {
            None
        } else {
            Some(Window { lo, hi })
        }
    }

    /// Window size in bytes.
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// Whether the window is empty (never true for a constructed window).
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// First-fit interval allocator over the userspace address range.
///
/// Occupied intervals are kept coalesced in a `BTreeMap` keyed by *end*
/// address, so the first interval that can collide with a candidate
/// start `x` is one lookup away: the first key above `x`. Free space is
/// the complement.
///
/// Searching ([`AddressSpace::find_in`], [`AddressSpace::find_in_high`])
/// reserves nothing, so a caller finds every address it needs, builds
/// what goes there, and then [`reserves`](AddressSpace::reserve) exactly
/// the bytes it built.
///
/// Low searches start from a per-`(size, align)` floor. A rewrite asks
/// for only a few distinct sizes (one per template and displaced
/// instruction length), so the floors are a small flat table scanned
/// in order.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// end → start of occupied intervals (disjoint, non-adjacent).
    occupied: BTreeMap<u64, u64>,
    /// `(size, align)` → floor: no aligned start below the floor (and at
    /// or above [`MIN_ADDR`]) has `size` free bytes that end by
    /// [`MAX_ADDR`]. A low search whose window starts at or below the
    /// floor starts at the floor instead and raises it to its result.
    /// Space is only ever taken, so a floor never has to fall. An absent
    /// entry is [`MIN_ADDR`].
    floors: Vec<((u64, u64), u64)>,
}

impl AddressSpace {
    /// Empty address space (only the implicit guards are excluded, via
    /// [`Window`] clamping).
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// The last occupied interval `(start, end)` that begins before `addr`.
    fn last_starting_before(&self, addr: u64) -> Option<(u64, u64)> {
        match self.occupied.range(addr..).next() {
            // The interval that reaches `addr` is the last to begin before it.
            Some((&e, &s)) if s < addr => Some((s, e)),
            _ => self
                .occupied
                .range(..addr)
                .next_back()
                .map(|(&e, &s)| (s, e)),
        }
    }

    /// Mark `[start, end)` occupied (idempotent; merges with neighbours).
    pub fn reserve(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let (mut new_start, mut new_end) = (start, end);
        // Absorb every interval that overlaps or touches [start, end):
        // those ending at or after `start` and starting at or before `end`.
        while let Some((&e, &s)) = self.occupied.range(start..).next() {
            if s > end {
                break;
            }
            if s <= start && e >= end {
                return; // already occupied
            }
            self.occupied.remove(&e);
            new_start = new_start.min(s);
            new_end = new_end.max(e);
        }
        self.occupied.insert(new_end, new_start);
    }

    /// The lowest aligned start in `window`, at or above [`MIN_ADDR`],
    /// whose `size` bytes are free, end by [`MAX_ADDR`] and miss the
    /// `taken` range (a tentative placement that is not reserved yet).
    /// The body may extend past `window.hi`: the window constrains the
    /// jump target (the trampoline's first byte), not its extent.
    ///
    /// Nothing is reserved; only the search floor of `(size, align)` moves
    /// (see [`AddressSpace`]). One tree descent finds the first interval
    /// that can collide; the search then walks intervals forward,
    /// skipping past each one that does.
    pub fn find_in(
        &mut self,
        window: Window,
        size: u64,
        align: u64,
        taken: Option<(u64, u64)>,
    ) -> Option<u64> {
        let x = self.first_fit(window, size, align)?;
        match taken {
            // Every start from `x` to the end of `taken` overlaps it too.
            Some((s, e)) if s < e && x < e && s < x + size => {
                self.first_fit(Window { lo: e, ..window }, size, align)
            }
            _ => Some(x),
        }
    }

    /// [`AddressSpace::find_in`] without `taken`, through the floor of
    /// `(size, align)`.
    fn first_fit(&mut self, window: Window, size: u64, align: u64) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let align = align.max(1);
        let key = (size, align);
        let at = match self.floors.iter().position(|&(k, _)| k == key) {
            Some(at) => at,
            None => {
                self.floors.push((key, MIN_ADDR));
                self.floors.len() - 1
            }
        };
        let floor = &mut self.floors[at].1;
        let found = (|| {
            // Checked rounding: a window or reservation hugging
            // `u64::MAX` must exhaust the search, not wrap (or panic the
            // debug build).
            let mut cursor = window.lo.max(*floor).checked_next_multiple_of(align)?;
            let mut ahead = self
                .occupied
                .range((Excluded(cursor), Unbounded))
                .map(|(&e, &s)| (s, e))
                .peekable();
            while cursor < window.hi {
                let end = cursor.checked_add(size)?;
                if end > MAX_ADDR {
                    return None;
                }
                // Intervals ending at or before the cursor cannot collide.
                while ahead.next_if(|&(_, e)| e <= cursor).is_some() {}
                match ahead.peek() {
                    // Conflict: skip past it.
                    Some(&(s, e)) if s < end => cursor = e.checked_next_multiple_of(align)?,
                    _ => return Some(cursor),
                }
            }
            None
        })();
        if window.lo <= *floor {
            // The search began at the floor, and every aligned start from
            // there to its result (or to the window's end) was taken.
            *floor = found.unwrap_or(window.hi).max(*floor);
        }
        found
    }

    /// Like [`AddressSpace::find_in`], but the highest aligned start —
    /// scatters trampolines toward window tops instead of packing them low
    /// (an ablation knob for the fragmentation experiments).
    pub fn find_in_high(
        &self,
        window: Window,
        size: u64,
        align: u64,
        taken: Option<(u64, u64)>,
    ) -> Option<u64> {
        let x = self.last_fit(window, size, align)?;
        match taken {
            // Every start from `x` down to `size` bytes below `taken`
            // overlaps it too.
            Some((s, e)) if s < e && x < e && s < x + size => {
                let hi = (s + 1).checked_sub(size)?;
                self.last_fit(Window { lo: window.lo, hi }, size, align)
            }
            _ => Some(x),
        }
    }

    /// [`AddressSpace::find_in_high`] without `taken`.
    fn last_fit(&self, window: Window, size: u64, align: u64) -> Option<u64> {
        if size == 0 || window.is_empty() {
            return None;
        }
        let align = align.max(1);
        let lo = window.lo.max(MIN_ADDR);
        // Highest aligned start strictly inside the window (`hi >= 1`
        // because the window is non-empty).
        let mut cursor = (window.hi - 1) / align * align;
        loop {
            if cursor < lo {
                return None;
            }
            let end = cursor.checked_add(size)?;
            if end > MAX_ADDR {
                // Step below the ceiling; `size` larger than the whole
                // space exhausts the search rather than wrapping.
                cursor = MAX_ADDR.checked_sub(size)? / align * align;
                continue;
            }
            match self.last_starting_before(end) {
                Some((s, e)) if e > cursor => {
                    // Conflict: jump below the conflicting interval.
                    let next = s.checked_sub(size)?;
                    let next = next / align * align;
                    if next >= cursor {
                        return None;
                    }
                    cursor = next;
                }
                _ => return Some(cursor),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Find a first fit and reserve it, as the planner places a trampoline.
    fn alloc(a: &mut AddressSpace, w: Window, size: u64, align: u64) -> Option<u64> {
        let x = a.find_in(w, size, align, None)?;
        a.reserve(x, x + size);
        Some(x)
    }

    /// [`alloc`] from the window's top.
    fn alloc_high(a: &mut AddressSpace, w: Window, size: u64) -> Option<u64> {
        let x = a.find_in_high(w, size, 1, None)?;
        a.reserve(x, x + size);
        Some(x)
    }

    /// Are the `size` bytes at `at` free? A search of the one-address
    /// window at `at` answers.
    fn fits(a: &mut AddressSpace, at: u64, size: u64) -> bool {
        a.find_in(Window { lo: at, hi: at + 1 }, size, 1, None) == Some(at)
    }

    #[test]
    fn window_clamps_negative() {
        // A non-PIE punned jump whose MSB is set targets "negative"
        // addresses — the §2.1.3 invalid case.
        assert_eq!(Window::from_i128(-0x8000_0000, -0x1000), None);
        let w = Window::from_i128(-0x1000, 0x20000).unwrap();
        assert_eq!(w.lo, MIN_ADDR);
    }

    #[test]
    fn window_clamps_kernel() {
        let w = Window::from_i128(0x7FFF_FFFF_0000, 0x9000_0000_0000).unwrap();
        assert_eq!(w.hi, MAX_ADDR);
    }

    #[test]
    fn reserve_and_query() {
        let mut a = AddressSpace::new();
        a.reserve(0x11000, 0x12000);
        assert!(!fits(&mut a, 0x11800, 0x100));
        assert!(fits(&mut a, 0x12000, 0x1000));
        assert!(!fits(&mut a, 0x10FFF, 2));
        assert!(fits(&mut a, 0x10FFF, 1));
    }

    #[test]
    fn reserve_merges() {
        let mut a = AddressSpace::new();
        a.reserve(0x11000, 0x12000);
        a.reserve(0x12000, 0x13000);
        a.reserve(0x11800, 0x12800);
        assert_eq!(
            a.occupied.iter().collect::<Vec<_>>(),
            [(&0x13000, &0x11000)]
        );
    }

    #[test]
    fn alloc_first_fit_low() {
        let mut a = AddressSpace::new();
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = alloc(&mut a, w, 0x100, 1).unwrap();
        assert_eq!(x, 0x10000);
        let y = alloc(&mut a, w, 0x100, 1).unwrap();
        assert_eq!(y, 0x10100);
    }

    #[test]
    fn alloc_skips_reservations() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x18000);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = alloc(&mut a, w, 0x100, 1).unwrap();
        assert_eq!(x, 0x18000);
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x10001);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = alloc(&mut a, w, 0x10, 0x1000).unwrap();
        assert_eq!(x, 0x11000);
    }

    #[test]
    fn alloc_fails_when_window_full() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x20000);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        assert_eq!(alloc(&mut a, w, 1, 1), None);
    }

    #[test]
    fn alloc_exact_address() {
        // The `f = 0` pun case: a one-address window, as in the paper's
        // Figure 1 T1(b).
        let mut a = AddressSpace::new();
        let at = |lo| Window { lo, hi: lo + 1 };
        assert_eq!(alloc(&mut a, at(0x30000), 0x20, 1), Some(0x30000));
        assert_eq!(alloc(&mut a, at(0x30010), 0x20, 1), None); // collides
        assert_eq!(alloc(&mut a, at(0x1000), 8, 1), None); // below guard
    }

    #[test]
    fn alloc_high_takes_window_top() {
        let mut a = AddressSpace::new();
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = alloc_high(&mut a, w, 0x100).unwrap();
        assert_eq!(x, 0x1FFFF); // start inside the window, body beyond
        let y = alloc_high(&mut a, w, 0x100).unwrap();
        assert!(y < x);
        assert!(fits(&mut a, 0x10000, 0x1000)); // bottom untouched
    }

    #[test]
    fn alloc_high_skips_reservations() {
        let mut a = AddressSpace::new();
        a.reserve(0x18000, 0x20100);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = alloc_high(&mut a, w, 0x100).unwrap();
        assert_eq!(x, 0x18000 - 0x100);
    }

    #[test]
    fn alloc_high_exhausts_cleanly() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x21000);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        assert_eq!(alloc_high(&mut a, w, 0x100), None);
    }

    #[test]
    fn alloc_at_near_u64_max_does_not_overflow() {
        // Regression: an exact placement's `addr + size` used to wrap
        // (panic in debug builds); searches near `u64::MAX` must not.
        let mut a = AddressSpace::new();
        for lo in [u64::MAX - 4, u64::MAX - 1] {
            let w = Window { lo, hi: lo + 1 };
            assert_eq!(a.find_in(w, 16, 1, None), None);
            assert_eq!(a.find_in_high(w, 16, 1, None), None);
        }
    }

    #[test]
    fn alloc_in_high_oversized_request_does_not_underflow() {
        // Regression: `MAX_ADDR - size` used to wrap when size exceeded
        // the whole usable space (panic in debug builds).
        let a = AddressSpace::new();
        let w = Window {
            lo: MIN_ADDR,
            hi: u64::MAX,
        };
        assert_eq!(a.find_in_high(w, MAX_ADDR + 1, 1, None), None);
    }

    #[test]
    fn alloc_in_high_empty_window() {
        // Regression: `window.hi - 1` used to underflow for `hi == 0`.
        let a = AddressSpace::new();
        assert_eq!(a.find_in_high(Window { lo: 0, hi: 0 }, 1, 1, None), None);
    }

    #[test]
    fn alloc_tail_of_window() {
        let mut a = AddressSpace::new();
        a.reserve(0x10000, 0x1FF00);
        let w = Window {
            lo: 0x10000,
            hi: 0x20000,
        };
        let x = alloc(&mut a, w, 0x100, 1).unwrap();
        assert_eq!(x, 0x1FF00);
        // Window now exactly full.
        assert_eq!(alloc(&mut a, w, 1, 1), None);
    }
}
