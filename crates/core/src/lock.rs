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
//! Tactics may only *write* Free bytes, and only bytes the image holds.
//! Punning may *read* bytes in any state (a locked byte's value can no
//! longer change, so reading it is always safe).
//!
//! The state is purely local, one byte per address, so [`LockMap::over`]
//! keeps it in flat arrays: one state byte per address of each
//! contiguous run of instructions, padded by [`RUN_TAIL`] bytes for the
//! successor bytes a pun reads past a run's last instruction, and clipped
//! to the image's file-backed ranges. Memory is at most the disassembled
//! bytes plus [`RUN_TAIL`] per instruction (a gap that wide splits the
//! run), never the address span between runs. A byte outside every run
//! has no bytes in the file to write, so it is never writable, and
//! locking it does nothing: no write can follow.

use e9x86::insn::Insn;

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

/// Per-byte lock map: dense state arrays over the file-backed bytes of
/// instruction runs.
#[derive(Debug, Clone)]
pub struct LockMap {
    /// Disjoint runs in address order.
    runs: Vec<Run>,
    /// One state per run address, runs back to back (`None` = Free).
    states: Vec<Option<LockState>>,
    /// Number of locked bytes.
    locked: usize,
}

impl LockMap {
    /// Empty lock map over `insns`, sorted by strictly increasing address
    /// (as [`e9x86::insn::by_address`] gives them), and clipped to the
    /// file-backed `[start, end)` ranges of `backed`, in any order.
    /// Instructions that touch or overlap, or lie within [`RUN_TAIL`]
    /// bytes of the previous one's end, share a run.
    pub fn over(insns: &[Insn], backed: &[(u64, u64)]) -> LockMap {
        debug_assert!(
            insns.windows(2).all(|w| w[0].addr < w[1].addr),
            "instructions sorted and deduplicated"
        );
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for i in insns {
            let end = i
                .addr
                .saturating_add(i.len() as u64)
                .saturating_add(RUN_TAIL);
            match spans.last_mut() {
                Some(r) if i.addr <= r.1 => r.1 = r.1.max(end),
                _ => spans.push((i.addr, end)),
            }
        }
        let backed = merged(backed);
        let (mut runs, mut base, mut k) = (Vec::new(), 0, 0);
        for (start, end) in spans {
            while backed.get(k).is_some_and(|b| b.1 <= start) {
                k += 1;
            }
            for &(s, e) in backed[k..].iter().take_while(|b| b.0 < end) {
                let (start, end) = (start.max(s), end.min(e));
                runs.push(Run { start, end, base });
                base += (end - start) as usize;
            }
        }
        LockMap {
            runs,
            states: vec![None; base],
            locked: 0,
        }
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

    /// State of the byte at `addr` (`None` = Free or outside every run).
    pub fn state(&self, addr: u64) -> Option<LockState> {
        self.slot(addr).and_then(|i| self.states[i])
    }

    /// May `[addr, addr+len)` be overwritten: is every byte in a run, and
    /// Free?
    pub fn can_write(&self, addr: u64, len: u64) -> bool {
        (addr..addr + len).all(|a| self.slot(a).is_some_and(|i| self.states[i].is_none()))
    }

    /// Set every Free byte of `[addr, addr+len)` that a run holds to
    /// `state`.
    fn lock(&mut self, addr: u64, len: u64, state: LockState) {
        for a in addr..addr + len {
            if let Some(i) = self.slot(a).filter(|&i| self.states[i].is_none()) {
                self.states[i] = Some(state);
                self.locked += 1;
            }
        }
    }

    /// Mark `[addr, addr+len)` as Modified. Callers check
    /// [`LockMap::can_write`] first (a debug assertion enforces it).
    pub fn lock_modified(&mut self, addr: u64, len: u64) {
        debug_assert!(
            self.can_write(addr, len),
            "modifying a locked or unbacked byte in {addr:#x}+{len}"
        );
        self.lock(addr, len, LockState::Modified);
    }

    /// Mark `[addr, addr+len)` as Punned (no-op for already-locked bytes —
    /// their values are final either way).
    pub fn lock_punned(&mut self, addr: u64, len: u64) {
        self.lock(addr, len, LockState::Punned);
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

/// The non-empty ranges of `ranges`, sorted and merged where they overlap.
fn merged(ranges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = ranges.iter().copied().filter(|r| r.0 < r.1).collect();
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lock map whose one run covers `[lo, hi)`, all of it file-backed.
    fn over(lo: u64, hi: u64) -> LockMap {
        let nops: Vec<Insn> = (lo..hi)
            .step_by(16)
            .map(|a| e9x86::decode(&[0x90], a).unwrap())
            .collect();
        LockMap::over(&nops, &[(lo, hi)])
    }

    #[test]
    fn fresh_bytes_are_free() {
        let l = over(0x1000, 0x1100);
        assert!(l.can_write(0x1000, 100));
        assert!(l.can_write(0x1000, 0x100));
        assert_eq!(l.state(0x1000), None);
        assert!(l.is_empty());
    }

    #[test]
    fn modified_blocks_writes() {
        let mut l = over(0x1000, 0x9000);
        l.lock_modified(0x1000, 5);
        assert!(!l.can_write(0x1004, 1));
        assert!(l.can_write(0x1005, 1));
        assert_eq!(l.state(0x1002), Some(LockState::Modified));
    }

    #[test]
    fn punned_blocks_writes_too() {
        let mut l = over(0x1000, 0x9000);
        l.lock_punned(0x2000, 2);
        assert!(!l.can_write(0x2000, 1));
        assert_eq!(l.state(0x2001), Some(LockState::Punned));
    }

    #[test]
    fn punning_an_already_locked_byte_keeps_stronger_state() {
        let mut l = over(0x1000, 0x9000);
        l.lock_modified(0x3000, 1);
        l.lock_punned(0x3000, 1);
        assert_eq!(l.state(0x3000), Some(LockState::Modified));
    }

    #[test]
    fn punned_then_modified_interleaving() {
        // A pun locks successor bytes first; a later (lower-address) site
        // must see them as unwritable and may not upgrade them blindly.
        let mut l = over(0x1000, 0x9000);
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
        let mut l = over(0x1000, 0x9000);
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
        let mut l = over(0x1000, 0x9000);
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

    #[test]
    fn unbacked_bytes_are_never_writable() {
        // Two nops 0x100 apart, so two runs, and the image holds bytes
        // from 0x1004 to 0x1102 only (given unsorted and overlapping).
        let nops = [0x1000, 0x1100].map(|a| e9x86::decode(&[0x90], a).unwrap());
        let mut l = LockMap::over(
            &nops,
            &[(0x1080, 0x1102), (0x1004, 0x1010), (0x1008, 0x1020)],
        );
        assert_eq!(l.dense_bytes(), 0x1015 - 0x1004 + 2);
        assert!(l.can_write(0x1004, 0x11));
        assert!(!l.can_write(0x1003, 2)); // before the image's bytes
        assert!(!l.can_write(0x1014, 2)); // past the first run's tail
        assert!(l.can_write(0x1100, 2));
        assert!(!l.can_write(0x1101, 2)); // past the image's bytes
        assert!(!l.can_write(0x5000, 1)); // in no run
                                          // Punning outside every run locks nothing.
        l.lock_punned(0x1000, 8);
        assert_eq!(l.len(), 4);
        assert_eq!(l.state(0x1003), None);
        assert_eq!(l.state(0x1004), Some(LockState::Punned));
        assert!(!l.can_write(0x1003, 1));
    }
}
