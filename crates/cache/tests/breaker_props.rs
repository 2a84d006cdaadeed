//! Circuit-breaker property: under any random operation sequence the
//! [`e9cache::Breaker`] must agree with an independent reference model
//! of its documented state machine, and its counters must satisfy the
//! structural invariants (closed ⇔ trips == recoveries, probes only
//! while open, every admitted probe preceded by exactly
//! `PROBE_INTERVAL - 1` skipped writes since the last pacing reset).
//!
//! The model is deliberately written from the *docs*, not the code: a
//! drift between what the breaker promises (trip after
//! `TRIP_THRESHOLD` consecutive I/O errors, write-only probes every
//! `PROBE_INTERVAL`-th skipped write, write-success-only recovery,
//! read successes never resetting) and what it does is a failure here.

use e9cache::breaker::{Admit, Breaker, OpKind, PROBE_INTERVAL, TRIP_THRESHOLD};
use e9qcheck::prelude::*;

/// One scripted disk-op outcome: `(kind, fails)`.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    fails: bool,
}

fn decode(raw: u8) -> Op {
    Op {
        kind: if raw & 1 == 0 {
            OpKind::Read
        } else {
            OpKind::Write
        },
        // Bias toward failure so trips/probes/recoveries all happen
        // within short scripts.
        fails: raw & 0b110 != 0,
    }
}

/// The reference model, transcribed from the breaker module docs.
#[derive(Debug, Default)]
struct Model {
    open: bool,
    consecutive: u32,
    skipped_writes: u64,
    trips: u64,
    fast_fails: u64,
    probes: u64,
    recoveries: u64,
}

impl Model {
    /// Returns what `admit` must answer.
    fn admit(&mut self, kind: OpKind) -> Admit {
        if !self.open {
            return Admit::Allow;
        }
        match kind {
            OpKind::Read => {
                self.fast_fails += 1;
                Admit::Skip
            }
            OpKind::Write => {
                self.skipped_writes += 1;
                if self.skipped_writes.is_multiple_of(PROBE_INTERVAL) {
                    self.probes += 1;
                    Admit::Probe
                } else {
                    self.fast_fails += 1;
                    Admit::Skip
                }
            }
        }
    }

    fn record_ok(&mut self, kind: OpKind) {
        if kind != OpKind::Write {
            return; // read successes prove nothing about write health
        }
        self.consecutive = 0;
        if self.open {
            self.open = false;
            self.recoveries += 1;
            self.skipped_writes = 0;
        }
    }

    fn record_io_error(&mut self) {
        self.consecutive += 1;
        if !self.open && self.consecutive >= TRIP_THRESHOLD {
            self.open = true;
            self.trips += 1;
        }
        self.skipped_writes = 0;
    }
}

props! {
    #[test]
    fn breaker_matches_the_documented_state_machine(
        script in vec(any::<u8>(), 0..200),
    ) {
        let breaker = Breaker::new();
        let mut model = Model::default();

        for (i, &raw) in script.iter().enumerate() {
            let op = decode(raw);
            let admit = breaker.admit(op.kind);
            let expected = model.admit(op.kind);
            prop_assert_eq!(admit, expected, "admit diverged at step {i} ({op:?})");
            // Only admitted ops actually run and report an outcome.
            if admit != Admit::Skip {
                if op.fails {
                    breaker.record_io_error();
                    model.record_io_error();
                } else {
                    breaker.record_ok(op.kind);
                    model.record_ok(op.kind);
                }
            }

            let stats = breaker.stats();
            prop_assert_eq!(stats.open, model.open, "open diverged at step {i}");
            prop_assert_eq!(breaker.is_open(), model.open);
            prop_assert_eq!(stats.trips, model.trips, "trips diverged at step {i}");
            prop_assert_eq!(stats.fast_fails, model.fast_fails, "fast_fails diverged at step {i}");
            prop_assert_eq!(stats.probes, model.probes, "probes diverged at step {i}");
            prop_assert_eq!(stats.recoveries, model.recoveries, "recoveries diverged at step {i}");

            // Structural invariants, independent of the model.
            if stats.open {
                prop_assert_eq!(stats.trips, stats.recoveries + 1);
            } else {
                prop_assert_eq!(stats.trips, stats.recoveries);
            }
        }
    }
}
