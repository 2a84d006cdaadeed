//! Circuit breaker for the disk tier.
//!
//! A disk that starts failing (ENOSPC, EROFS after a remount, a dying
//! device) would otherwise tax every request with a doomed syscall and
//! its error handling. The breaker converts that into **memory-only
//! mode**: after [`TRIP_THRESHOLD`] consecutive `CacheError::Io`
//! failures the disk tier is skipped outright (reads fast-miss, writes
//! are dropped), and every [`PROBE_INTERVAL`]-th skipped *write*
//! opportunity is let through as a probe. A successful probe write
//! closes the breaker and the tier resumes transparently.
//!
//! Two deliberate asymmetries, both driven by how disks actually fail:
//!
//! * **Only write successes reset/close.** Every environmental failure
//!   class worth degrading for (disk full, read-only remount, failing
//!   media) keeps *reads* working while *writes* fail — so a successful
//!   read proves nothing about tier health and must neither reset the
//!   consecutive-error count nor close an open breaker. Otherwise an
//!   interleaved `lookup`-miss (a successful read) between failing
//!   `put`s would keep the count at zero forever, which is exactly the
//!   disk-full scenario the breaker exists for.
//! * **Probes are writes.** While open, reads are always skipped (pure
//!   fast path); only a write opportunity can probe, because only a
//!   write success is evidence of recovery.
//!
//! Everything is count-based — no clocks — so trip, probe and recovery
//! points are deterministic functions of the operation sequence, which
//! is what lets unit tests, `e9qcheck` properties and the `e9fault io`
//! campaign pin the cycle exactly.

use std::sync::Mutex;

/// Consecutive I/O failures that trip the breaker open.
pub const TRIP_THRESHOLD: u32 = 3;

/// While open, every `PROBE_INTERVAL`-th skipped write opportunity is
/// admitted as a probe.
pub const PROBE_INTERVAL: u64 = 4;

/// Which kind of disk operation is asking for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `get` / object reads.
    Read,
    /// `put` / publishes — the ops whose success proves tier health.
    Write,
}

/// The breaker's answer to [`Breaker::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Closed: run the operation normally.
    Allow,
    /// Open, but this write is the periodic re-probe: run it, and its
    /// outcome decides recovery.
    Probe,
    /// Open: skip the disk entirely (read → fast miss, write → drop).
    Skip,
}

/// A point-in-time snapshot of the breaker counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// True while the disk tier is being skipped.
    pub open: bool,
    /// Closed → open transitions.
    pub trips: u64,
    /// Disk operations skipped while open (the saved doomed syscalls).
    pub fast_fails: u64,
    /// Probe writes admitted while open.
    pub probes: u64,
    /// Open → closed transitions (successful probes).
    pub recoveries: u64,
}

#[derive(Debug, Default)]
struct Inner {
    open: bool,
    consecutive_errors: u32,
    skipped_writes: u64,
    stats: BreakerStats,
}

/// The interior-locked breaker; one per [`Cache`](crate::Cache),
/// shared by every connection thread. The lock is only taken around
/// operations that were about to do file I/O anyway.
#[derive(Debug, Default)]
pub struct Breaker {
    inner: Mutex<Inner>,
}

impl Breaker {
    /// A closed breaker with zeroed counters.
    #[must_use]
    pub fn new() -> Breaker {
        Breaker::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Ask whether a disk operation of `kind` may run. Call exactly once
    /// per operation, and report the admitted operation's outcome with
    /// [`record_ok`](Breaker::record_ok) /
    /// [`record_io_error`](Breaker::record_io_error).
    pub fn admit(&self, kind: OpKind) -> Admit {
        let mut s = self.lock();
        if !s.open {
            return Admit::Allow;
        }
        match kind {
            OpKind::Read => {
                s.stats.fast_fails += 1;
                Admit::Skip
            }
            OpKind::Write => {
                s.skipped_writes += 1;
                if s.skipped_writes.is_multiple_of(PROBE_INTERVAL) {
                    s.stats.probes += 1;
                    Admit::Probe
                } else {
                    s.stats.fast_fails += 1;
                    Admit::Skip
                }
            }
        }
    }

    /// An admitted operation completed without an I/O error. A write
    /// success closes an open breaker (probe recovery) and resets the
    /// consecutive-error count; a read success does neither (see the
    /// module docs for why).
    pub fn record_ok(&self, kind: OpKind) {
        if kind != OpKind::Write {
            return;
        }
        let mut s = self.lock();
        s.consecutive_errors = 0;
        if s.open {
            s.open = false;
            s.stats.open = false;
            s.stats.recoveries += 1;
            s.skipped_writes = 0;
        }
    }

    /// An admitted operation failed with `CacheError::Io`. Trips the
    /// breaker at [`TRIP_THRESHOLD`] consecutive failures; a failed
    /// probe restarts the probe pacing.
    pub fn record_io_error(&self) {
        let mut s = self.lock();
        s.consecutive_errors = s.consecutive_errors.saturating_add(1);
        if !s.open && s.consecutive_errors >= TRIP_THRESHOLD {
            s.open = true;
            s.stats.open = true;
            s.stats.trips += 1;
        }
        // Whether a pre-trip failure or a failed probe: pace the next
        // probe a full interval out.
        s.skipped_writes = 0;
    }

    /// True while the breaker is open (disk tier skipped).
    pub fn is_open(&self) -> bool {
        self.lock().open
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BreakerStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_closed_below_the_threshold() {
        let b = Breaker::new();
        for _ in 0..TRIP_THRESHOLD - 1 {
            assert_eq!(b.admit(OpKind::Write), Admit::Allow);
            b.record_io_error();
        }
        assert!(!b.is_open());
        assert_eq!(b.stats().trips, 0);
    }

    #[test]
    fn write_success_resets_the_count() {
        let b = Breaker::new();
        for _ in 0..10 {
            b.record_io_error();
            b.record_io_error();
            b.record_ok(OpKind::Write); // never three in a row
        }
        assert!(!b.is_open());
    }

    #[test]
    fn read_success_does_not_reset() {
        // The disk-full shape: put fails, interleaved lookup reads
        // succeed. The breaker must still trip.
        let b = Breaker::new();
        for _ in 0..TRIP_THRESHOLD {
            b.record_ok(OpKind::Read);
            assert_eq!(b.admit(OpKind::Write), Admit::Allow);
            b.record_io_error();
        }
        assert!(b.is_open());
        assert_eq!(b.stats().trips, 1);
    }

    #[test]
    fn open_skips_reads_and_paces_write_probes() {
        let b = Breaker::new();
        for _ in 0..TRIP_THRESHOLD {
            b.record_io_error();
        }
        assert!(b.is_open());
        // Reads never probe.
        for _ in 0..16 {
            assert_eq!(b.admit(OpKind::Read), Admit::Skip);
        }
        // Writes: PROBE_INTERVAL-1 skips, then a probe.
        for _ in 0..PROBE_INTERVAL - 1 {
            assert_eq!(b.admit(OpKind::Write), Admit::Skip);
        }
        assert_eq!(b.admit(OpKind::Write), Admit::Probe);
        assert_eq!(b.stats().probes, 1);
    }

    #[test]
    fn failed_probe_restarts_pacing_successful_probe_recovers() {
        let b = Breaker::new();
        for _ in 0..TRIP_THRESHOLD {
            b.record_io_error();
        }
        // Reach the first probe and fail it.
        for _ in 0..PROBE_INTERVAL - 1 {
            assert_eq!(b.admit(OpKind::Write), Admit::Skip);
        }
        assert_eq!(b.admit(OpKind::Write), Admit::Probe);
        b.record_io_error();
        assert!(b.is_open());
        // Pacing restarted: a full interval again before the next probe.
        for _ in 0..PROBE_INTERVAL - 1 {
            assert_eq!(b.admit(OpKind::Write), Admit::Skip);
        }
        assert_eq!(b.admit(OpKind::Write), Admit::Probe);
        b.record_ok(OpKind::Write);
        assert!(!b.is_open());
        let s = b.stats();
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.probes, 2);
        assert!(!s.open);
        // Fully recovered: writes admitted normally again.
        assert_eq!(b.admit(OpKind::Write), Admit::Allow);
    }

    #[test]
    fn retrip_after_recovery_counts_again() {
        let b = Breaker::new();
        for _ in 0..TRIP_THRESHOLD {
            b.record_io_error();
        }
        b.record_ok(OpKind::Write);
        for _ in 0..TRIP_THRESHOLD {
            b.record_io_error();
        }
        let s = b.stats();
        assert_eq!(s.trips, 2);
        assert_eq!(s.recoveries, 1);
        assert!(s.open);
    }
}
