//! The host's speed, measured by a fixed reference computation that does
//! not depend on the program under test.
//!
//! The reference host's speed drifts: the same binary on the same input
//! runs up to 1.7x faster or slower from one minute to the next, and this
//! reference computation drifts with it. The timing metrics are therefore
//! reported at a nominal host speed: each raw time is scaled by
//! `NOMINAL_S / reference time`, measured while the job ran.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference computation's time on the nominal host.
pub const NOMINAL_S: f64 = 0.005;

/// Take a reference sample at least this often while jobs run.
const SAMPLE_EVERY: Duration = Duration::from_millis(500);

/// Sorting 256 Ki pseudo-random 64-bit keys (2 MiB, branchy and
/// cache-heavy, like the rewriter's own work).
pub struct Reference {
    keys: Vec<u64>,
    samples: Vec<f64>,
    last: Instant,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            keys: vec![0; 1 << 18],
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Time one reference computation, in seconds.
    pub fn sample(&mut self) -> f64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        let t = Instant::now();
        black_box(&mut self.keys).sort_unstable();
        let s = t.elapsed().as_secs_f64();
        self.last = Instant::now();
        self.samples.push(s);
        s
    }

    /// Whether no sample was taken in the last `SAMPLE_EVERY`.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= SAMPLE_EVERY
    }

    /// Median of the samples taken since the last call, plus one fresh
    /// sample; clears them.
    pub fn take_median(&mut self) -> f64 {
        self.sample();
        let m = crate::median(&mut self.samples);
        self.samples.clear();
        m
    }
}
