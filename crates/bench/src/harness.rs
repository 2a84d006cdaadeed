//! In-tree micro-benchmark harness — the offline replacement for
//! Criterion behind the same `cargo bench` entry points.
//!
//! Each `[[bench]]` target (built with `harness = false`) constructs a
//! [`Harness`], registers timed closures, and calls [`Harness::finish`].
//! Measurement is deliberately simple and dependency-free:
//!
//! * a wall-clock **warmup** phase sizes the per-sample iteration count so
//!   one sample costs ~10 ms (amortising timer overhead);
//! * **median-of-N** samples (default 15) are reported, with min/max for
//!   spread — the median is robust against scheduler noise, which is all
//!   a CI smoke signal needs;
//! * results are appended to `results/bench_<group>.json` as hand-rolled
//!   JSON (no serde), so later PRs can diff hot-path regressions.
//!
//! ## Flags (after `cargo bench -q -- …`)
//!
//! | flag | effect |
//! |---|---|
//! | `--smoke` | 3 samples, 1 iteration each — a compile-and-run gate |
//! | `--samples N` | override the sample count |
//! | `--no-json` | skip writing `results/` |
//!
//! Unknown flags (e.g. the `--bench` cargo appends) are ignored.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Units for reporting throughput alongside time per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical items processed per iteration.
    Elements(u64),
}

/// One measured benchmark.
#[derive(Debug, Clone)]
struct Record {
    name: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
    iters_per_sample: u64,
    throughput: Option<Throughput>,
}

/// A benchmark group: collects timed closures, prints a table, writes
/// JSON. See the module docs for the measurement protocol.
pub struct Harness {
    group: String,
    smoke: bool,
    samples: usize,
    write_json: bool,
    throughput: Option<Throughput>,
    records: Vec<Record>,
    notes: Vec<(String, String)>,
}

const WARMUP: Duration = Duration::from_millis(100);
const TARGET_SAMPLE: Duration = Duration::from_millis(10);

impl Harness {
    /// Build a harness for `group`, reading flags from `std::env::args`.
    pub fn from_args(group: &str) -> Harness {
        let mut smoke = false;
        let mut samples = 15usize;
        let mut write_json = true;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => smoke = true,
                "--no-json" => write_json = false,
                "--samples" => {
                    samples = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--samples needs a number");
                }
                _ => {} // cargo appends `--bench`; tolerate anything else
            }
        }
        if smoke {
            samples = 3;
        }
        Harness {
            group: group.to_string(),
            smoke,
            samples: samples.max(1),
            write_json,
            throughput: None,
            records: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether this is a `--smoke` run (benches can shrink their inputs).
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// Median of an already-measured bench, for derived summary notes.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    }

    /// Attach a derived key/value to the JSON output (`"notes"` object).
    /// `value` is embedded verbatim — pass a bare number, or quote it
    /// yourself for a string.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Set the throughput denominator for the *next* [`Harness::bench`]
    /// call (cleared after it, mirroring Criterion's per-input style).
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Time `f`, record the median, and print one progress line.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        // Warmup: run until the budget elapses, learning the cost.
        let mut iters = 0u64;
        let warmup = if self.smoke { Duration::ZERO } else { WARMUP };
        let start = Instant::now();
        loop {
            black_box(f());
            iters += 1;
            if start.elapsed() >= warmup {
                break;
            }
        }
        let est = start.elapsed().as_secs_f64() / iters as f64;

        // Size one sample at ~10 ms (one iteration in smoke mode).
        let iters_per_sample = if self.smoke {
            1
        } else {
            ((TARGET_SAMPLE.as_secs_f64() / est.max(1e-9)) as u64).clamp(1, 1 << 24)
        };

        let mut sample_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
                t0.elapsed().as_secs_f64() * 1e9 / iters_per_sample as f64
            })
            .collect();
        sample_ns.sort_by(|a, b| a.total_cmp(b));
        let median = sample_ns[sample_ns.len() / 2];
        let rec = Record {
            name: name.to_string(),
            median_ns: median,
            min_ns: sample_ns[0],
            max_ns: *sample_ns.last().unwrap(),
            samples: self.samples,
            iters_per_sample,
            throughput: self.throughput.take(),
        };
        println!(
            "{:>28}  {}",
            format!("{}/{}", self.group, rec.name),
            summary(&rec)
        );
        self.records.push(rec);
    }

    /// Print the footer and write `results/bench_<group>.json`.
    pub fn finish(self) {
        if !self.write_json {
            return;
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("results");
        if std::fs::create_dir_all(&dir).is_err() {
            eprintln!("warning: cannot create {}", dir.display());
            return;
        }
        let path = dir.join(format!("bench_{}.json", self.group));
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"group\": {:?},\n  \"smoke\": {},\n",
            self.group, self.smoke
        ));
        if !self.notes.is_empty() {
            out.push_str("  \"notes\": {");
            for (i, (k, v)) in self.notes.iter().enumerate() {
                out.push_str(&format!("{}{:?}: {v}", if i == 0 { "" } else { ", " }, k));
            }
            out.push_str("},\n");
        }
        out.push_str("  \"benches\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let (tp_kind, tp_val) = match r.throughput {
                Some(Throughput::Bytes(n)) => ("bytes", n),
                Some(Throughput::Elements(n)) => ("elements", n),
                None => ("none", 0),
            };
            out.push_str(&format!(
                "    {{\"name\": {:?}, \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"max_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}, \
                 \"throughput_kind\": {:?}, \"throughput\": {}}}{}\n",
                r.name,
                r.median_ns,
                r.min_ns,
                r.max_ns,
                r.samples,
                r.iters_per_sample,
                tp_kind,
                tp_val,
                if i + 1 == self.records.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }
}

/// Human-readable one-liner for a record.
fn summary(r: &Record) -> String {
    let rate = match r.throughput {
        Some(Throughput::Bytes(n)) => {
            let mibs = n as f64 / (r.median_ns * 1e-9) / (1 << 20) as f64;
            format!("  {mibs:10.1} MiB/s")
        }
        Some(Throughput::Elements(n)) => {
            let eps = n as f64 / (r.median_ns * 1e-9);
            format!("  {eps:10.0} elem/s")
        }
        None => String::new(),
    };
    format!(
        "median {:>12}  (min {:>12}, max {:>12}){rate}",
        fmt_ns(r.median_ns),
        fmt_ns(r.min_ns),
        fmt_ns(r.max_ns)
    )
}

/// `1234.5 ns` / `12.3 µs` / `4.5 ms` style formatting.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.3 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn smoke_harness_measures_and_serialises() {
        let mut h = Harness {
            group: "selftest".into(),
            smoke: true,
            samples: 3,
            write_json: false,
            throughput: None,
            records: Vec::new(),
            notes: Vec::new(),
        };
        h.throughput(Throughput::Elements(100));
        let mut acc = 0u64;
        h.bench("spin", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(h.records.len(), 1);
        let r = &h.records[0];
        assert!(r.median_ns >= 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert_eq!(r.iters_per_sample, 1);
        assert!(matches!(r.throughput, Some(Throughput::Elements(100))));
        // Throughput is consumed by the bench call.
        assert!(h.throughput.is_none());
        h.finish();
    }
}
