//! Process counters read from `/proc`: peak RSS, CPU time and page
//! faults, for the benchmark process or the `e9patchd` child.

use std::path::Path;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux ABI this benchmark targets).
const TICKS_PER_S: f64 = 100.0;

fn proc_file(pid: Option<u32>, name: &str) -> String {
    let who = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{name}")).unwrap_or_default()
}

/// `VmHWM` (peak resident set) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let status = proc_file(pid, "status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or(0);
    kib as f64 / 1024.0
}

/// Reset `VmHWM` of `pid`, or of this process, to the current resident
/// set (`clear_refs` value 5), so a later peak covers only what follows.
pub fn reset_peak_rss(pid: Option<u32>) -> Result<(), String> {
    let who = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    let path = format!("/proc/{who}/clear_refs");
    std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))
}

/// Wait (at most one second) until `pid` has been seen sleeping on two
/// polls in a row: the daemon is back in its event loop with no work left.
pub fn wait_idle(pid: u32) {
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut sleeping = 0;
    while sleeping < 2 && Instant::now() < deadline {
        let stat = proc_file(Some(pid), "stat");
        // The state is the first field after the parenthesised command name.
        let state = stat
            .rsplit_once(')')
            .and_then(|(_, r)| r.split_whitespace().next());
        sleeping = if state == Some("S") { sleeping + 1 } else { 0 };
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// CPU time and minor faults from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_ms: f64,
    pub sys_ms: f64,
    pub minflt: u64,
}

impl Cpu {
    pub fn read(pid: Option<u32>) -> Cpu {
        let stat = proc_file(pid, "stat");
        // Fields after the parenthesised command name start at field 3
        // (state); minflt is field 10, utime 14, stime 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let get = |i: usize| f.get(i).copied().unwrap_or(0);
        Cpu {
            user_ms: get(11) as f64 * 1000.0 / TICKS_PER_S,
            sys_ms: get(12) as f64 * 1000.0 / TICKS_PER_S,
            minflt: get(7),
        }
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            minflt: self.minflt - earlier.minflt,
        }
    }
}

/// Filesystem type holding `dir` (longest matching mount point in
/// `/proc/self/mountinfo`), e.g. `tmpfs` or `ext4`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let info = proc_file(None, "mountinfo");
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = left.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fs) = right.split_whitespace().next() else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() >= *n) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
