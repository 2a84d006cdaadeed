//! End-to-end benchmark of the E9Patch reproduction.
//!
//! `e9perfbench --workload W --seed N --seconds S --trace 0|1 --daemon PATH`
//! runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs half of the time untraced and half
//! traced, and reports the per-layer metrics. `perfbench/run.py` builds
//! this binary and `e9patchd` and is the intended entry point; see
//! `perfbench/README.md` for the workloads and every metric.

mod calib;
mod inputs;
mod jobs;
mod oracle;
mod procfs;
mod relay;
mod trace;

use inputs::{Job, Kind, Row};
use jobs::{Done, Route};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Table 1 scale for `table1_cold` and `daemon_unix` (the paper's `#Loc`
/// divided by this; the repository's default).
const COLD_SCALE: u64 = e9synth::DEFAULT_SCALE;
/// `cache_zipf` generates its rows at 1/2 scale, so that the distinct
/// outputs (about 90 MiB) overflow the 64 MiB memory tier. Its programs
/// run one loop iteration, which keeps the oracle's e9vm runs short.
const ZIPF_SCALE: u64 = 2;
/// The rows whose 1/2-scale binaries exceed 512 KiB, the largest bypass
/// threshold the cache adapts to, so every request engages the cache;
/// gamess is left out because its rewrite alone costs as much as all the
/// others together.
const ZIPF_ROWS: [&str; 11] = [
    "perlbench",
    "gcc",
    "dealII",
    "calculix",
    "tonto",
    "xalancbmk",
    "inkscape",
    "gimp",
    "vim",
    "git",
    "libc.so",
];
/// Requests beyond the first of each job, shared out by a Zipf law of
/// exponent `ZIPF_S`: two per distinct job put the hit ratio near 2/3, so
/// `job_ms_p50` falls among hits and `job_ms_p90` among misses.
const ZIPF_REPEATS: usize = 2 * ZIPF_ROWS.len() * inputs::KINDS.len();
const ZIPF_S: f64 = 1.0;
/// Untraced runs time at least this many jobs, so that at least ten lie
/// beyond `job_ms_p90`.
const MIN_JOB_SAMPLES: usize = 100;
/// ... and `daemon_unix` at least this many passes: its job times swing
/// from pass to pass with the host's round-trip cost, which the reference
/// computation does not track, and one pass is a single job per sample.
const DAEMON_MIN_PASSES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub fn instrument_options(kind: Kind) -> Option<e9front::Options> {
    use e9front::{Application, Options, Payload};
    match kind {
        Kind::A1Empty => Some(Options::new(Application::A1Jumps, Payload::Empty)),
        Kind::A2Counter => Some(Options::new(Application::A2HeapWrites, Payload::Counter)),
        Kind::HookAll => None,
    }
}

pub fn hook_spec() -> e9hook::HookSpec {
    e9hook::HookSpec::counters(&["*"])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table1Cold,
    CacheZipf,
    DaemonUnix,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("table1_cold", Workload::Table1Cold),
    ("cache_zipf", Workload::CacheZipf),
    ("daemon_unix", Workload::DaemonUnix),
];

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("", |(n, _)| n)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments: {argv:?}")),
        }
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or(format!("unknown workload {name}"))?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1) as f64,
        trace,
        daemon: PathBuf::from(get("daemon").unwrap_or_default()),
        work: PathBuf::from(get("work").unwrap_or_else(|_| ".bench_work".into())),
    })
}

/// Everything set-up produces.
struct Setup {
    rows: Vec<Row>,
    /// Distinct jobs.
    jobs: Vec<Job>,
    /// One pass: indices into `jobs`, in request order.
    requests: Vec<usize>,
    daemon: Option<Daemon>,
}

struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    fn start(bin: &Path, sock: &Path) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .arg("--socket")
            .arg(sock)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            sock: sock.to_path_buf(),
        };
        // Ready once a connection completes the version handshake.
        match e9proto::ProtoClient::connect_unix_retry(sock, 12).and_then(|mut c| c.negotiate()) {
            Ok(()) => Ok(d),
            Err(e) => {
                d.stop();
                Err(format!("e9patchd did not come up: {e}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// In-band shutdown; kill if the daemon has not exited within 10 s.
    fn stop(&mut self) {
        if let Ok(mut c) = e9proto::ProtoClient::connect_unix(&self.sock) {
            let _ = c.negotiate().and_then(|()| c.shutdown());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stop();
        }
    }
}

fn setup_once(a: &Args, run_dir: &Path) -> Result<Setup, String> {
    let (rows, jobs, requests) = match a.workload {
        Workload::Table1Cold | Workload::DaemonUnix => {
            let rows = inputs::table1_rows(COLD_SCALE, a.seed, None);
            let jobs = inputs::all_jobs(rows.len(), a.seed);
            let requests = (0..jobs.len()).collect();
            (rows, jobs, requests)
        }
        Workload::CacheZipf => {
            let mut rows = inputs::table1_rows(ZIPF_SCALE, a.seed, Some(1));
            rows.retain(|r| ZIPF_ROWS.contains(&r.name.as_str()));
            if let Some(r) = rows
                .iter()
                .find(|r| r.sb.binary.len() < 4 * e9cache::DEFAULT_BYPASS_BYTES as usize)
            {
                return Err(format!("{} is too small to engage the cache", r.name));
            }
            let jobs = inputs::ranked_jobs(rows.len());
            let requests = inputs::zipf_requests(jobs.len(), ZIPF_REPEATS, ZIPF_S, a.seed);
            (rows, jobs, requests)
        }
    };
    let daemon = match a.workload {
        Workload::DaemonUnix => Some(Daemon::start(&a.daemon, &run_dir.join("d.sock"))?),
        _ => None,
    };
    Ok(Setup {
        rows,
        jobs,
        requests,
        daemon,
    })
}

/// Counters for one pass over the request list.
#[derive(Default, Clone)]
struct Pass {
    job_ns: Vec<u64>,
    /// Per request: did the job return an output?
    returned: Vec<bool>,
    /// Requests that returned an error.
    failed: u64,
    units: u64,
    insns: u64,
    front_sites: u64,
    hooks: u64,
    /// Rewriter counters, over the jobs the rewriter ran.
    core: e9patch::PatchStats,
    core_units: u64,
    mappings: u64,
    physical_blocks: u64,
    out_bytes: u64,
    input_bytes: u64,
    cache: Option<e9cache::CacheStats>,
    /// Spans `span_from..span_to` belong to this pass (traced passes).
    traced: bool,
    span_from: usize,
    span_to: usize,
    /// This process's CPU time and faults during the pass.
    cpu: procfs::Cpu,
    /// The reference computation's median time during the pass.
    ref_s: f64,
    /// The daemon's CPU time during the pass.
    daemon_cpu: procfs::Cpu,
}

impl Pass {
    fn busy_s(&self) -> f64 {
        self.job_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Raw times times this factor give times at the nominal host speed.
    fn to_nominal(&self) -> f64 {
        calib::NOMINAL_S / self.ref_s
    }

    /// Every count that must repeat exactly from pass to pass.
    fn counts(&self) -> Vec<u64> {
        let c = &self.core;
        let mut v = vec![
            self.failed,
            self.units,
            self.insns,
            c.b1 as u64,
            c.b2 as u64,
            c.t1 as u64,
            c.t2 as u64,
            c.t3 as u64,
            c.b0 as u64,
            c.failed as u64,
            self.mappings,
            self.physical_blocks,
            self.out_bytes,
        ];
        if let Some(s) = &self.cache {
            v.extend([
                s.mem_hits,
                s.disk_hits,
                s.misses,
                s.bypasses,
                s.stores,
                s.mem_evictions,
            ]);
        }
        v
    }
}

/// What the timed phase produced for one distinct job.
#[derive(Default, Clone)]
struct Seen {
    /// Digests of its outputs.
    digests: Vec<e9cache::Digest>,
    /// Wire calls the traced daemon passes made for it.
    calls: Vec<u64>,
    /// Set when the job failed a wire check (see `measure_wire`).
    bad: bool,
}

impl Seen {
    fn output(&mut self, binary: &[u8]) {
        let digest = e9cache::digest(binary);
        if !self.digests.contains(&digest) {
            self.digests.push(digest);
        }
    }
}

/// Wait until the daemon, if there is one, is idle, so that none of its
/// work (such as tearing down the last job's session) runs beside the
/// reference computation.
fn quiesce(daemon_pid: Option<u32>) {
    if let Some(pid) = daemon_pid {
        procfs::wait_idle(pid);
    }
}

/// Run whole passes until `--seconds` have elapsed (at least
/// `MIN_JOB_SAMPLES` jobs; with a tracer, passes alternate untraced and
/// traced, at least one of each). Between jobs, untimed, each output's
/// digest is recorded for the oracle and the host's speed is sampled.
fn run_passes(
    a: &Args,
    s: &Setup,
    run_dir: &Path,
    mut tracer: Option<&mut trace::Tracer>,
    reference: &mut calib::Reference,
    seen: &mut [Seen],
    errors: &mut Vec<String>,
) -> Vec<Pass> {
    let start = Instant::now();
    let daemon_pid = s.daemon.as_ref().map(Daemon::pid);
    let mut passes: Vec<Pass> = Vec::new();
    let mut job_id = 0u64;
    loop {
        let traced = tracer.is_some() && passes.len() % 2 == 1;
        let cache_dir = run_dir.join(format!("cache{}", passes.len()));
        let cache = match a.workload {
            Workload::CacheZipf => Some(
                e9cache::Cache::open(&e9cache::CacheConfig {
                    dir: Some(cache_dir.clone()),
                    ..Default::default()
                })
                .expect("cache directory inside the run directory"),
            ),
            _ => None,
        };
        let route = match (&cache, &s.daemon) {
            (Some(c), _) => Route::Cached(c),
            (_, Some(d)) => Route::Daemon(&d.sock),
            _ => Route::Cold,
        };
        let mut p = Pass {
            traced,
            span_from: tracer.as_ref().map_or(0, |t| t.spans.len()),
            ..Default::default()
        };
        let cpu0 = procfs::Cpu::read(None);
        let dcpu0 = daemon_pid.map(|pid| procfs::Cpu::read(Some(pid)));
        for &ji in &s.requests {
            let job = s.jobs[ji];
            let row = &s.rows[job.row];
            job_id += 1;
            let t = Instant::now();
            let r = match tracer.as_deref_mut().filter(|_| traced) {
                Some(tr) => {
                    tr.begin_job(job_id);
                    jobs::run_traced(&route, row, job, tr)
                }
                None => jobs::run(&route, row, job),
            };
            p.job_ns.push(t.elapsed().as_nanos() as u64);
            p.returned.push(r.is_ok());
            if reference.due() {
                quiesce(daemon_pid);
                reference.sample();
            }
            match r {
                Ok(done) => record(&mut p, &mut seen[ji], row, job, done),
                Err(e) => {
                    p.failed += 1;
                    errors.push(format!("{} {}: {e}", row.name, job.kind.name()));
                }
            }
        }
        p.cpu = procfs::Cpu::read(None).since(cpu0);
        if let (Some(pid), Some(dcpu0)) = (daemon_pid, dcpu0) {
            p.daemon_cpu = procfs::Cpu::read(Some(pid)).since(dcpu0);
        }
        p.span_to = tracer.as_ref().map_or(0, |t| t.spans.len());
        quiesce(daemon_pid);
        p.ref_s = reference.take_median();
        p.cache = cache.as_ref().map(|c| c.stats());
        drop(cache);
        let _ = std::fs::remove_dir_all(&cache_dir);
        passes.push(p);
        let n = passes.len();
        let elapsed = start.elapsed().as_secs_f64();
        let min = match (tracer.is_some(), a.workload) {
            (true, _) => 2,
            (false, Workload::DaemonUnix) => DAEMON_MIN_PASSES,
            (false, _) => MIN_JOB_SAMPLES.div_ceil(s.requests.len()),
        };
        if n >= min && elapsed >= a.seconds {
            return passes;
        }
    }
}

fn record(p: &mut Pass, seen: &mut Seen, row: &Row, job: Job, d: Done) {
    p.units += d.units as u64;
    p.insns += d.insns as u64;
    p.input_bytes += row.sb.binary.len() as u64;
    if d.calls > 0 && !seen.calls.contains(&d.calls) {
        seen.calls.push(d.calls);
    }
    match job.kind {
        Kind::HookAll => p.hooks += d.units as u64,
        _ => p.front_sites += d.units as u64,
    }
    if d.rewrote {
        p.core.merge(&d.out.stats);
        p.core_units += d.units as u64;
        p.mappings += d.out.size.mappings;
        p.physical_blocks += d.out.size.physical_blocks;
        p.out_bytes += d.out.binary.len() as u64;
    }
    seen.output(&d.out.binary);
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
fn percentile_ms(samples: &[u64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e6
}

fn median_over(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.iter().map(f).collect::<Vec<_>>())
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e9perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e9perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(a: &Args) -> Result<String, String> {
    let run_dir = a.work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(a, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(a: &Args, run_dir: &Path) -> Result<String, String> {
    // ---- set-up, several times; the last one is kept ----
    let t_setup = Instant::now();
    let mut reference = calib::Reference::new();
    let (mut setup_raw, mut setup_s) = (Vec::new(), Vec::new());
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut old) = setup.take().and_then(|s: Setup| s.daemon) {
            old.stop();
        }
        reference.sample();
        reference.sample();
        let ref_s = reference.take_median();
        let t = Instant::now();
        let s = setup_once(a, run_dir)?;
        let raw = t.elapsed().as_secs_f64();
        setup_raw.push(raw);
        setup_s.push(raw * calib::NOMINAL_S / ref_s);
        if rep == 0 {
            let bytes: usize = s.rows.iter().map(|r| r.sb.binary.len()).sum();
            println!(
                "# {} seed {}: {} rows ({} input bytes), {} distinct jobs, {} requests per pass",
                a.workload.name(),
                a.seed,
                s.rows.len(),
                bytes,
                s.jobs.len(),
                s.requests.len()
            );
        }
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up");
    println!("# cache/work filesystem: {}", procfs::fs_type(run_dir));

    // ---- untraced warm-up on a few jobs; it leaves no state behind ----
    {
        let warm_cache = e9cache::Cache::in_memory();
        let route = match (a.workload, &s.daemon) {
            (Workload::CacheZipf, _) => Route::Cached(&warm_cache),
            (_, Some(d)) => Route::Daemon(&d.sock),
            _ => Route::Cold,
        };
        for &job in s.jobs.iter().take(6) {
            jobs::run(&route, &s.rows[job.row], job)
                .map_err(|e| format!("warm-up {}: {e}", s.rows[job.row].name))?;
        }
    }
    // `peak_rss_mb` covers the timed phase only.
    let daemon_pid = s.daemon.as_ref().map(Daemon::pid);
    procfs::reset_peak_rss(daemon_pid)?;
    println!(
        "# peak RSS reset after set-up and warm-up, at {:.1} MiB",
        procfs::peak_rss_mb(daemon_pid)
    );

    // ---- timed phase ----
    let t_timed = Instant::now();
    let mut seen = vec![Seen::default(); s.jobs.len()];
    let mut errors = Vec::new();
    let mut tracer = trace::Tracer::new();
    let passes = run_passes(
        a,
        &s,
        run_dir,
        a.trace.then_some(&mut tracer),
        &mut reference,
        &mut seen,
        &mut errors,
    );
    let peak_rss_mb = procfs::peak_rss_mb(daemon_pid);
    let shed = match &s.daemon {
        Some(d) => {
            let h = e9proto::ProtoClient::connect_unix(&d.sock)
                .and_then(|mut c| c.health())
                .map_err(|e| format!("health: {e}"))?;
            h.shed_admission + h.shed_busy
        }
        None => 0,
    };

    let timed_s = t_timed.elapsed().as_secs_f64();
    let t_oracle = Instant::now();

    // ---- oracle, untimed ----
    // The wire traffic of each distinct job, from the real driver.
    let traffic = match (&s.daemon, a.trace) {
        (Some(d), true) => Some(measure_wire(&s, d, run_dir, &mut seen, &mut errors)?),
        _ => None,
    };
    let originals: Vec<Result<e9vm::RunResult, oracle::VmFail>> = s
        .rows
        .iter()
        .map(|r| oracle::run_vm(&r.sb.binary, None).map(|(r, _)| r))
        .collect();
    let checked: Vec<oracle::Checked> = s
        .jobs
        .iter()
        .map(|&j| oracle::check(&s.rows[j.row], j, &originals[j.row]))
        .collect();
    let too_big: Vec<&str> = s
        .rows
        .iter()
        .zip(&originals)
        .filter(|(_, o)| matches!(o, Err(oracle::VmFail::TooBig(_))))
        .map(|(r, _)| r.name.as_str())
        .collect();
    println!(
        "# oracle: {} of {} distinct jobs verified and run in e9vm; rows e9vm refuses as too big (verifier only): {too_big:?}",
        checked.iter().filter(|c| c.vm.is_some()).count(),
        checked.len()
    );
    let mut job_ok = Vec::with_capacity(checked.len());
    for (i, c) in checked.iter().enumerate() {
        let job = s.jobs[i];
        let what = format!("{} {}", s.rows[job.row].name, job.kind.name());
        if let Some(e) = &c.error {
            errors.push(format!("{what}: {e}"));
        }
        let identical = seen[i].digests.iter().all(|d| *d == c.digest);
        if !identical {
            errors.push(format!(
                "{what}: output differs from the in-process rewrite"
            ));
        }
        job_ok.push(c.error.is_none() && identical && !seen[i].bad);
    }
    let attempted = passes.len() as u64 * s.requests.len() as u64;
    let failed = passes
        .iter()
        .flat_map(|p| s.requests.iter().zip(&p.returned))
        .filter(|&(&ji, &returned)| !(returned && job_ok[ji]))
        .count() as u64;
    // Counts repeat exactly from pass to pass, traced or not.
    let counts = passes[0].counts();
    if let Some(p) = passes.iter().find(|p| p.counts() != counts) {
        errors.push(format!(
            "pass counts differ: {:?} vs {:?}",
            p.counts(),
            counts
        ));
    }
    println!(
        "# phases: set-up ({SETUP_REPS}x) and warm-up {:.2} s, timed {timed_s:.2} s, oracle {:.2} s",
        t_setup.elapsed().as_secs_f64() - timed_s - t_oracle.elapsed().as_secs_f64(),
        t_oracle.elapsed().as_secs_f64()
    );
    for e in errors.iter().take(20) {
        eprintln!("e9perfbench: FAILED {e}");
    }
    let correct = errors.is_empty();

    // ---- metrics ----
    let (untraced, traced): (Vec<Pass>, Vec<Pass>) = passes.into_iter().partition(|p| !p.traced);
    let samples: Vec<u64> = untraced
        .iter()
        .flat_map(|p| p.job_ns.iter().copied())
        .collect();
    // Job times at the nominal host speed (see `calib`).
    let nominal: Vec<u64> = untraced
        .iter()
        .flat_map(|p| {
            p.job_ns
                .iter()
                .map(|&ns| (ns as f64 * p.to_nominal()) as u64)
        })
        .collect();
    let sites_per_s = |p: &Pass| p.units as f64 / p.busy_s();
    println!(
        "# {} untraced passes, {} traced; {} job samples, {} beyond p90",
        untraced.len(),
        traced.len(),
        samples.len(),
        samples.len() / 10
    );
    println!(
        "# raw (host speed as measured): setup_s {:.6}, sites_per_s {:.1}, job_ms_p50 {:.4}, job_ms_p90 {:.4}; reference computation {:.4} ms (nominal {} ms)",
        median(&mut setup_raw),
        median_over(&untraced, sites_per_s),
        percentile_ms(&samples, 0.50),
        percentile_ms(&samples, 0.90),
        median_over(&untraced, |p| p.ref_s) * 1e3,
        calib::NOMINAL_S * 1e3
    );
    let mut m = Metrics(Vec::new());
    if a.trace {
        // Wire traffic per pass: the relay's per-job figures over one
        // pass's requests.
        let mut wire = relay::Traffic::default();
        for t in traffic
            .iter()
            .flat_map(|t| s.requests.iter().map(|&ji| t[ji]))
        {
            wire.add(t);
        }
        layer_metrics(&mut m, &untraced, &traced, &tracer, &checked, wire, shed);
        let dir = a.work.join("traces");
        let file = dir.join(format!("{}-seed{}.jsonl", a.workload.name(), a.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&file, tracer.to_json_lines()))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "# {} spans written to {}",
            tracer.spans.len(),
            file.display()
        );
    } else {
        let (mut succ, mut total, mut inb, mut outb) = (0, 0, 0, 0);
        for c in &checked {
            succ += c.stats.succeeded() as u64;
            total += c.stats.total() as u64;
            inb += c.size.input_bytes;
            outb += c.size.output_bytes;
        }
        let (orig, patched, _) = vm_costs(&checked);
        m.put("setup_s", median(&mut setup_s), "s");
        m.put(
            "sites_per_s",
            median_over(&untraced, |p| sites_per_s(p) / p.to_nominal()),
            "1/s",
        );
        m.put("job_ms_p50", percentile_ms(&nominal, 0.50), "ms");
        m.put("job_ms_p90", percentile_ms(&nominal, 0.90), "ms");
        m.put(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            "1",
        );
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        m.put("succ_pct", 100.0 * succ as f64 / total.max(1) as f64, "%");
        m.put("size_pct", 100.0 * outb as f64 / inb.max(1) as f64, "%");
        m.put(
            "run_cost_pct",
            100.0 * patched as f64 / orig.max(1) as f64,
            "%",
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    ))
}

/// Run every distinct job once more through `instrument_via_backend` /
/// `hook_via_backend`, by way of a line-counting relay, and check that the
/// traced passes made the calls the real driver makes. Outputs join the
/// byte-identity check. Returns each job's traffic.
fn measure_wire(
    s: &Setup,
    d: &Daemon,
    run_dir: &Path,
    seen: &mut [Seen],
    errors: &mut Vec<String>,
) -> Result<Vec<relay::Traffic>, String> {
    let relay = relay::Relay::bind(&run_dir.join("relay.sock"), &d.sock)?;
    let mut traffic = Vec::with_capacity(s.jobs.len());
    for (ji, &job) in s.jobs.iter().enumerate() {
        let row = &s.rows[job.row];
        let what = format!("{} {}", row.name, job.kind.name());
        let (done, t) = relay.measure(|c| jobs::via_backend(row, job, c))?;
        let seen = &mut seen[ji];
        let mut problems = Vec::new();
        match done {
            Ok(done) => seen.output(&done.out.binary),
            Err(e) => problems.push(format!("through the relay: {e}")),
        }
        if t.replies != t.calls {
            problems.push(format!("{} requests but {} replies", t.calls, t.replies));
        }
        match seen.calls.as_slice() {
            [c] if *c == t.calls => {}
            traced => problems.push(format!(
                "traced passes made {traced:?} wire calls, the driver made {}",
                t.calls
            )),
        }
        seen.bad = !problems.is_empty();
        errors.extend(problems.into_iter().map(|e| format!("{what}: {e}")));
        traffic.push(t);
    }
    Ok(traffic)
}

/// Summed e9vm costs (original, patched, loader) over the jobs whose row
/// e9vm can load.
fn vm_costs(checked: &[oracle::Checked]) -> (u64, u64, u64) {
    checked
        .iter()
        .filter_map(|c| c.vm)
        .fold((0, 0, 0), |acc, (o, p, l)| {
            (acc.0 + o, acc.1 + p, acc.2 + l)
        })
}

/// The per-layer metrics: span self times are medians over traced
/// passes; counts come from one pass (they repeat exactly); process and
/// daemon counters are medians over untraced passes.
fn layer_metrics(
    m: &mut Metrics,
    untraced: &[Pass],
    traced: &[Pass],
    tracer: &trace::Tracer,
    checked: &[oracle::Checked],
    wire: relay::Traffic,
    shed: u64,
) {
    let per_pass: Vec<BTreeMap<&str, f64>> = traced
        .iter()
        .map(|p| tracer.self_ms(p.span_from..p.span_to))
        .collect();
    let self_ms = |name: &str| {
        median(
            &mut per_pass
                .iter()
                .map(|mp| mp.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let u = |f: &dyn Fn(&Pass) -> f64| median_over(untraced, f);
    let c = &traced[0];
    let core_ms = self_ms("core.rewrite");
    m.put("x86.decode_ms", self_ms("x86.decode"), "ms");
    m.put("x86.insns", c.insns as f64, "count");
    m.put("front.plan_ms", self_ms("front.plan"), "ms");
    m.put("front.sites", c.front_sites as f64, "count");
    m.put("hook.plan_ms", self_ms("hook.plan"), "ms");
    m.put("hook.hooks", c.hooks as f64, "count");
    m.put("core.rewrite_ms", core_ms, "ms");
    m.put(
        "core.ns_per_site",
        core_ms * 1e6 / c.core_units.max(1) as f64,
        "ns",
    );
    let k = &c.core;
    for (name, v) in [
        ("core.b1", k.b1),
        ("core.b2", k.b2),
        ("core.t1", k.t1),
        ("core.t2", k.t2),
        ("core.t3", k.t3),
        ("core.b0", k.b0),
        ("core.failed", k.failed),
    ] {
        m.put(name, v as f64, "count");
    }
    m.put("core.mappings", c.mappings as f64, "count");
    m.put("core.physical_blocks", c.physical_blocks as f64, "count");
    m.put("core.out_bytes", c.out_bytes as f64, "B");
    for name in ["digest", "key", "lookup", "decode", "put"] {
        m.put(
            &format!("cache.{name}_ms"),
            self_ms(&format!("cache.{name}")),
            "ms",
        );
    }
    let cs = c.cache.unwrap_or_default();
    m.put("cache.hits_mem", cs.mem_hits as f64, "count");
    m.put("cache.hits_disk", cs.disk_hits as f64, "count");
    m.put("cache.misses", cs.misses as f64, "count");
    m.put("cache.bypasses", cs.bypasses as f64, "count");
    m.put("cache.stores", cs.stores as f64, "count");
    m.put(
        "cache.evictions",
        (cs.mem_evictions + cs.disk_evictions) as f64,
        "count",
    );
    m.put(
        "cache.hit_ratio",
        cs.hits as f64 / (cs.hits + cs.misses).max(1) as f64,
        "1",
    );
    m.put("proto.calls", wire.calls as f64, "count");
    for name in ["upload", "insn", "patch", "emit"] {
        m.put(
            &format!("proto.{name}_ms"),
            self_ms(&format!("proto.{name}")),
            "ms",
        );
    }
    let call_us = if tracer.call_ns.is_empty() {
        0.0
    } else {
        percentile_ms(&tracer.call_ns, 0.5) * 1e3
    };
    m.put("proto.call_us_p50", call_us, "us");
    m.put("proto.req_bytes", wire.req_bytes as f64, "B");
    m.put("proto.reply_bytes", wire.reply_bytes as f64, "B");
    m.put(
        "proto.wire_per_input",
        (wire.req_bytes + wire.reply_bytes) as f64 / c.input_bytes as f64,
        "1",
    );
    m.put(
        "daemon.cpu_ms",
        u(&|p| p.daemon_cpu.user_ms + p.daemon_cpu.sys_ms),
        "ms",
    );
    m.put("client.cpu_ms", u(&|p| p.cpu.user_ms + p.cpu.sys_ms), "ms");
    m.put("reactor.shed", shed as f64, "count");
    let (orig, patched, loader) = vm_costs(checked);
    m.put("vm.orig_cost", orig as f64, "count");
    m.put("vm.patched_cost", patched as f64, "count");
    m.put("vm.loader_cost", loader as f64, "count");
    m.put("proc.user_ms", u(&|p| p.cpu.user_ms), "ms");
    m.put("proc.sys_ms", u(&|p| p.cpu.sys_ms), "ms");
    m.put("proc.minflt", u(&|p| p.cpu.minflt as f64), "count");
    m.put("host.ref_ms", u(&|p| p.ref_s * 1e3), "ms");
    let wall = |ps: &[Pass]| median_over(ps, |p| p.busy_s() * p.to_nominal());
    m.put(
        "trace.overhead_pct",
        100.0 * (wall(traced) / wall(untraced) - 1.0),
        "%",
    );
}
