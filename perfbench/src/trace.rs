//! In-memory span recorder for the traced run. Spans are opened around
//! calls into each layer from the benchmark's own code, kept in a vector
//! and written out once the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job this span belongs to (unique within the run).
    pub job: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
    /// Duration of every wire call, in nanoseconds.
    pub call_ns: Vec<u64>,
}

/// Handle for an open span; close it with [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            call_ns: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start the spans of a new job.
    pub fn begin_job(&mut self, job: u64) {
        self.job = job;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            job: self.job,
        });
        let i = self.spans.len() - 1;
        self.open.push(i);
        Open(i)
    }

    pub fn exit(&mut self, open: Open) {
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&open.0), "spans close in order");
        self.open.pop();
        self.spans[open.0].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    /// Time one wire call.
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.call_ns.push(t.elapsed().as_nanos() as u64);
        r
    }

    /// Self time (duration minus the time covered by child spans) summed
    /// per span name, in milliseconds, over the spans `range`.
    pub fn self_ms(&self, range: std::ops::Range<usize>) -> BTreeMap<&'static str, f64> {
        let from = range.start;
        let spans = &self.spans[range];
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child[p - from] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start - c) as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines: name, start, end, parent and job.
    pub fn to_json_lines(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 64);
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}\n",
                sp.name, sp.start, sp.end, sp.job
            ));
        }
        s
    }
}
