//! Byte lock state for reverse-order patching (strategy S1, §3.4).
//!
//! Punning "locks in" the byte values of overlapping instructions: once a
//! punned jump depends on a successor's bytes, those bytes must never change
//! again. The strategy tracks, per instruction byte:
//!
//! * **Modified** — the byte value was overwritten by a tactic;
//! * **Punned** — the byte was not overwritten but its value is read by a
//!   punned jump's `rel32` (or `rel8`) field;
//! * **Free** — neither (the default).
//!
//! Tactics may only *write* Free bytes. Punning may *read* bytes in any
//! state (a locked byte's value can no longer change, so reading it is
//! always safe).
//!
//! The state is purely local, one byte per address, so [`LockMap::over`]
//! keeps it in flat arrays: one state byte per address of each
//! contiguous run of instructions, padded by [`RUN_TAIL`] bytes for the
//! successor bytes a pun reads past a run's last instruction. Memory is
//! at most the disassembled bytes plus [`RUN_TAIL`] per instruction (a
//! gap that wide splits the run), never the address span between runs.
//! Bytes outside every run (none, for a planner over its own
//! disassembly) fall back to a sparse map.

use e9x86::insn::Insn;
use std::collections::BTreeMap;

/// Lock state of one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockState {
    /// Overwritten by a patch tactic.
    Modified,
    /// Value is load-bearing for a punned jump.
    Punned,
}

/// Bytes past a run's last instruction that the run's array also covers.
/// A padded punned jump at an instruction reads at most 19 bytes from its
/// first byte (14 prefix bytes, the opcode and a `rel32`), so at most 4
/// bytes past a 15-byte instruction; runs closer than this merge.
pub const RUN_TAIL: u64 = 20;

/// One dense run: addresses `[start, end)` own `states[base..]`.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u64,
    end: u64,
    base: usize,
}

/// Per-byte lock map: dense state arrays over instruction runs, and a
/// sparse map for any byte outside them.
#[derive(Debug, Clone, Default)]
pub struct LockMap {
    /// Disjoint runs in address order.
    runs: Vec<Run>,
    /// One state per run address, runs back to back (`None` = Free).
    states: Vec<Option<LockState>>,
    /// Locked bytes outside every run.
    sparse: BTreeMap<u64, LockState>,
    /// Number of locked bytes.
    locked: usize,
}

impl LockMap {
    /// Empty lock map with no dense runs (every byte is kept sparsely).
    pub fn new() -> LockMap {
        LockMap::default()
    }

    /// Empty lock map with dense runs over `insns`, or `None` unless
    /// `insns` is sorted by strictly increasing address (the runs are
    /// found in the pass that checks the order). Instructions that touch
    /// or overlap, or lie within [`RUN_TAIL`] bytes of the previous one's
    /// end, share a run.
    pub fn over(insns: &[Insn]) -> Option<LockMap> {
        let mut runs: Vec<Run> = Vec::new();
        let mut prev = None;
        for i in insns {
            if prev.is_some_and(|p| p >= i.addr) {
                return None;
            }
            prev = Some(i.addr);
            let end = i
                .addr
                .saturating_add(i.len() as u64)
                .saturating_add(RUN_TAIL);
            match runs.last_mut() {
                Some(r) if i.addr <= r.end => r.end = r.end.max(end),
                _ => runs.push(Run {
                    start: i.addr,
                    end,
                    base: 0,
                }),
            }
        }
        let mut base = 0;
        for r in &mut runs {
            r.base = base;
            base += (r.end - r.start) as usize;
        }
        Some(LockMap {
            runs,
            states: vec![None; base],
            ..LockMap::default()
        })
    }

    /// Bytes of dense state held (diagnostics).
    pub fn dense_bytes(&self) -> usize {
        self.states.len()
    }

    /// The dense slot of `addr`, if a run holds it.
    fn slot(&self, addr: u64) -> Option<usize> {
        let r = self.runs[..self.runs.partition_point(|r| r.start <= addr)].last()?;
        (addr < r.end).then(|| r.base + (addr - r.start) as usize)
    }

    /// State of the byte at `addr` (`None` = Free).
    pub fn state(&self, addr: u64) -> Option<LockState> {
        match self.slot(addr) {
            Some(i) => self.states[i],
            None => self.sparse.get(&addr).copied(),
        }
    }

    /// May `[addr, addr+len)` be overwritten?
    pub fn can_write(&self, addr: u64, len: u64) -> bool {
        (addr..addr + len).all(|a| self.state(a).is_none())
    }

    /// Set the byte at `addr` to `state`, returning its previous state.
    fn put(&mut self, addr: u64, state: LockState) -> Option<LockState> {
        let prev = match self.slot(addr) {
            Some(i) => self.states[i].replace(state),
            None => self.sparse.insert(addr, state),
        };
        self.locked += prev.is_none() as usize;
        prev
    }

    /// Mark `[addr, addr+len)` as Modified.
    ///
    /// Upgrades Punned bytes as well — callers must have checked
    /// [`LockMap::can_write`] first; this is enforced with a debug
    /// assertion.
    pub fn lock_modified(&mut self, addr: u64, len: u64) {
        for a in addr..addr + len {
            let prev = self.put(a, LockState::Modified);
            debug_assert!(
                prev.is_none(),
                "modifying an already-locked byte at {a:#x} ({prev:?})"
            );
        }
    }

    /// Mark `[addr, addr+len)` as Punned (no-op for already-locked bytes —
    /// their values are final either way).
    pub fn lock_punned(&mut self, addr: u64, len: u64) {
        for a in addr..addr + len {
            if self.state(a).is_none() {
                self.put(a, LockState::Punned);
            }
        }
    }

    /// Number of locked bytes (diagnostics).
    pub fn len(&self) -> usize {
        self.locked
    }

    /// Whether no byte is locked yet.
    pub fn is_empty(&self) -> bool {
        self.locked == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bytes_are_free() {
        let l = LockMap::new();
        assert!(l.can_write(0x1000, 100));
        assert_eq!(l.state(0x1000), None);
        assert!(l.is_empty());
    }

    #[test]
    fn modified_blocks_writes() {
        let mut l = LockMap::new();
        l.lock_modified(0x1000, 5);
        assert!(!l.can_write(0x1004, 1));
        assert!(l.can_write(0x1005, 1));
        assert_eq!(l.state(0x1002), Some(LockState::Modified));
    }

    #[test]
    fn punned_blocks_writes_too() {
        let mut l = LockMap::new();
        l.lock_punned(0x2000, 2);
        assert!(!l.can_write(0x2000, 1));
        assert_eq!(l.state(0x2001), Some(LockState::Punned));
    }

    #[test]
    fn punning_an_already_locked_byte_keeps_stronger_state() {
        let mut l = LockMap::new();
        l.lock_modified(0x3000, 1);
        l.lock_punned(0x3000, 1);
        assert_eq!(l.state(0x3000), Some(LockState::Modified));
    }

    #[test]
    fn punned_then_modified_interleaving() {
        // A pun locks successor bytes first; a later (lower-address) site
        // must see them as unwritable and may not upgrade them blindly.
        let mut l = LockMap::new();
        l.lock_punned(0x5000, 4);
        assert!(!l.can_write(0x5000, 4));
        assert!(!l.can_write(0x4FFE, 3)); // straddles the punned start
        assert!(l.can_write(0x4FFC, 4)); // ends exactly at the pun
                                         // Writes next to (not into) the punned range then coexist.
        l.lock_modified(0x4FFC, 4);
        assert_eq!(l.state(0x4FFF), Some(LockState::Modified));
        assert_eq!(l.state(0x5000), Some(LockState::Punned));
    }

    #[test]
    fn overlapping_can_write_ranges_at_boundary() {
        // Overlap queries around a locked run's edges: every range that
        // shares ≥ 1 byte with a locked run is rejected, adjacent ones are
        // not, regardless of which side of the boundary they start on.
        let mut l = LockMap::new();
        l.lock_modified(0x8000, 2); // e.g. a J_short at a boundary site
        l.lock_punned(0x8002, 3);
        for (start, len, want) in [
            (0x7FFE, 2, true),  // entirely below
            (0x7FFF, 2, false), // crosses into Modified
            (0x8000, 5, false), // exactly the locked run
            (0x8001, 1, false), // inside Modified
            (0x8004, 1, false), // last Punned byte
            (0x8005, 4, true),  // entirely above
            (0x7FFF, 7, false), // superset
        ] {
            assert_eq!(
                l.can_write(start, len),
                want,
                "can_write({start:#x}, {len})"
            );
        }
    }

    #[test]
    fn figure1_t3_lock_pattern() {
        // Paper §3.4: after T3 in Figure 1, bytes {0,1,7..=13} are locked
        // and byte 2 (the 0x03 of the old patch instruction) stays free.
        let base = 0x1000u64;
        let mut l = LockMap::new();
        l.lock_modified(base, 2); // J_short (eb 03)
        l.lock_modified(base + 7, 4); // J_victim + J_patch written bytes
        l.lock_punned(base + 11, 3); // pun tail into Ins4
        assert!(!l.can_write(base, 1));
        assert!(!l.can_write(base + 1, 1));
        assert!(l.can_write(base + 2, 1)); // still free for future T3
        for off in 7..14 {
            assert!(!l.can_write(base + off, 1), "byte {off} should be locked");
        }
    }
}
