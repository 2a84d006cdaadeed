//! Seeded inputs: Table 1 rows from `e9synth`, the job list, and the
//! Zipf request stream. Everything here is a pure function of the seed.

use e9synth::SynthBinary;

/// SplitMix64: the benchmark's own seed expander (inputs only).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One generated Table 1 row.
pub struct Row {
    pub name: String,
    pub sb: SynthBinary,
}

/// The SPEC and system rows of Table 1 at `scale` (browser rows are
/// excluded), with every profile's generator seed perturbed by `seed`.
/// `loop_iters`, when given, replaces each program's loop trip count (it
/// sets one immediate operand, so the code and its patch sites are
/// unchanged and only the emulated run gets shorter).
pub fn table1_rows(scale: u64, seed: u64, loop_iters: Option<u32>) -> Vec<Row> {
    let mut rng = Rng::new(seed ^ 0x7461_626c_6531);
    let mut profiles = e9synth::spec_profiles(scale);
    profiles.extend(e9synth::system_profiles(scale));
    profiles
        .into_iter()
        .map(|mut p| {
            p.seed ^= rng.next_u64();
            p.loop_iters = loop_iters.unwrap_or(p.loop_iters);
            Row {
                sb: e9synth::generate(&p),
                name: p.name,
            }
        })
        .collect()
}

/// The three jobs run on every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `instrument`, A1 (every jmp/jcc), empty trampolines.
    A1Empty,
    /// `instrument`, A2 (heap writes), global counter payload.
    A2Counter,
    /// `hook` every function (`*`), counter payload.
    HookAll,
}

pub const KINDS: [Kind; 3] = [Kind::A1Empty, Kind::A2Counter, Kind::HookAll];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::A1Empty => "a1-empty",
            Kind::A2Counter => "a2-counter",
            Kind::HookAll => "hook-all",
        }
    }
}

/// A distinct job: one row, one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub row: usize,
    pub kind: Kind,
}

/// Every (row, kind) pair, in seeded order.
pub fn all_jobs(rows: usize, seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..rows)
        .flat_map(|row| KINDS.map(|kind| Job { row, kind }))
        .collect();
    Rng::new(seed ^ 0x006f_7264_6572).shuffle(&mut jobs);
    jobs
}

/// `rows` x [`KINDS`] in popularity-rank order: rank `k` is row
/// `k % rows`, kind `k / rows`, so neighbouring ranks are different rows.
pub fn ranked_jobs(rows: usize) -> Vec<Job> {
    (0..rows * KINDS.len())
        .map(|k| Job {
            row: k % rows,
            kind: KINDS[k / rows],
        })
        .collect()
}

/// A Zipf(`s`) request stream over `n` ranks: every rank once, plus
/// `repeats` further requests shared out in proportion to `1 / (k + 1)^s`
/// (rounded to the nearest whole request), in seeded order. The request
/// counts are fixed and only the order depends on the seed, so every
/// seed asks the cache for the same mix of misses and hits.
pub fn zipf_requests(n: usize, repeats: usize, s: f64, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut stream: Vec<usize> = (0..n)
        .flat_map(|k| {
            let extra = (repeats as f64 * weights[k] / total).round() as usize;
            std::iter::repeat_n(k, 1 + extra)
        })
        .collect();
    Rng::new(seed ^ 0x7a69_7066).shuffle(&mut stream);
    stream
}
