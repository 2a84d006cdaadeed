//! Deterministic retry primitives: the bounded-doubling backoff
//! schedule shared by every reconnect/retry path, and a bounded EINTR
//! loop for raw syscall sites.
//!
//! Before this module existed, `ProtoClient::connect_unix_retry` and
//! `connect_tcp_retry` each hand-rolled the same 20 ms → ×2 → 1 s-cap
//! loop. The schedule now lives here once, is computable without
//! sleeping (so tests pin it exactly), and is reused by the I/O retry
//! paths the failpoint campaign drives.

use std::io;
use std::time::Duration;

/// A bounded-doubling backoff schedule.
///
/// `standard(attempts)` reproduces the wire client's historical
/// behavior: `attempts` total tries, sleeping 20 ms before the second,
/// doubling each retry, capped at 1 s. [`Backoff::next_delay`] yields
/// the sleep to take before the *next* attempt, or `None` once the
/// attempt budget is spent — so the schedule itself is a pure value,
/// testable without a clock.
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
    remaining: usize,
}

impl Backoff {
    /// First delay of the standard schedule (20 ms).
    pub const FIRST_DELAY: Duration = Duration::from_millis(20);
    /// Delay cap of the standard schedule (1 s).
    pub const MAX_DELAY: Duration = Duration::from_millis(1_000);

    /// The standard schedule for `attempts` total tries (minimum 1).
    #[must_use]
    pub fn standard(attempts: usize) -> Backoff {
        Backoff::new(attempts, Backoff::FIRST_DELAY, Backoff::MAX_DELAY)
    }

    /// A custom schedule: `attempts` total tries, starting at `first`,
    /// doubling up to `cap`.
    #[must_use]
    pub fn new(attempts: usize, first: Duration, cap: Duration) -> Backoff {
        Backoff {
            next: first,
            cap,
            remaining: attempts.max(1) - 1,
        }
    }

    /// The delay to sleep before the next attempt, or `None` when the
    /// attempt budget is exhausted (surface the last error).
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let d = self.next;
        self.next = (d * 2).min(self.cap);
        Some(d)
    }
}

/// Run `op` until it succeeds or the backoff budget is spent, sleeping
/// the schedule's delay between attempts. Returns the **last** error
/// when every attempt fails.
///
/// # Errors
///
/// The final attempt's error.
pub fn with_backoff<T, E>(
    mut backoff: Backoff,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => match backoff.next_delay() {
                Some(d) => std::thread::sleep(d),
                None => return Err(e),
            },
        }
    }
}

/// Default budget of consecutive EINTRs absorbed before giving up. A
/// real signal storm this deep means the process is being torn down;
/// surfacing the error beats looping forever.
pub const EINTR_BUDGET: usize = 16;

/// Retry `op` across up to `budget` consecutive
/// [`io::ErrorKind::Interrupted`] results; any other outcome (success
/// or a different error) is returned immediately.
///
/// # Errors
///
/// The first non-EINTR error, or EINTR itself once the budget is spent.
pub fn retry_interrupted<T>(budget: usize, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut left = budget;
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted && left > 0 => left -= 1,
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every delay `b` hands out, in order.
    fn delays(mut b: Backoff) -> Vec<Duration> {
        std::iter::from_fn(|| b.next_delay()).collect()
    }

    #[test]
    fn standard_schedule_doubles_to_the_cap() {
        let ms: Vec<u64> = delays(Backoff::standard(9))
            .iter()
            .map(|d| u64::try_from(d.as_millis()).unwrap())
            .collect();
        assert_eq!(ms, vec![20, 40, 80, 160, 320, 640, 1000, 1000]);
    }

    #[test]
    fn attempt_budget_bounds_the_delays() {
        assert!(delays(Backoff::standard(0)).is_empty());
        assert!(delays(Backoff::standard(1)).is_empty());
        assert_eq!(delays(Backoff::standard(4)).len(), 3);
    }

    #[test]
    fn with_backoff_returns_the_last_error() {
        let mut calls = 0;
        let r: Result<(), String> = with_backoff(
            Backoff::new(3, Duration::from_millis(1), Duration::from_millis(1)),
            || {
                calls += 1;
                Err(format!("attempt {calls}"))
            },
        );
        assert_eq!(calls, 3);
        assert_eq!(r.unwrap_err(), "attempt 3");
    }

    #[test]
    fn with_backoff_stops_on_first_success() {
        let mut calls = 0;
        let r: Result<u32, ()> = with_backoff(
            Backoff::new(5, Duration::from_millis(1), Duration::from_millis(1)),
            || {
                calls += 1;
                if calls == 2 {
                    Ok(7)
                } else {
                    Err(())
                }
            },
        );
        assert_eq!(r.unwrap(), 7);
        assert_eq!(calls, 2);
    }

    #[test]
    fn retry_interrupted_absorbs_eintr_within_budget() {
        let mut eintrs = 3;
        let r = retry_interrupted(EINTR_BUDGET, || {
            if eintrs > 0 {
                eintrs -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "sig"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(r.unwrap(), 42);
    }

    #[test]
    fn retry_interrupted_gives_up_past_the_budget() {
        let mut calls = 0;
        let r: io::Result<()> = retry_interrupted(2, || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::Interrupted, "sig"))
        });
        assert_eq!(calls, 3); // initial try + 2 retries
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn retry_interrupted_passes_other_errors_through() {
        let r: io::Result<()> = retry_interrupted(8, || Err(io::Error::other("real")));
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::Other);
    }
}
