//! `e9fault` — run the deterministic fault-injection campaigns.
//!
//! ```console
//! $ e9fault                                  # both surfaces, default sizes
//! $ E9FAULT_SEED=7 e9fault --elf-cases 1000  # bigger ELF campaign
//! $ e9fault --surface elf --case 123         # replay one mutant
//! $ e9fault --write-corpus tests/corpus      # regenerate the hostile corpus
//! ```
//!
//! Exit code 0 means zero panics across every executed case; 1 means at
//! least one case unwound, and a replay line (`E9FAULT_SEED=… --case N`)
//! has been printed for each.

use e9faultgen::{
    cache, case_rng, corpus, elf, seed_from_env, wire, CampaignReport, Outcome, Surface, ENV_SEED,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "e9fault — deterministic fault-injection campaigns

USAGE:
  e9fault [--seed N] [--elf-cases N] [--wire-cases N] [--cache-cases N]
          [--loop-cases N] [--io-cases N]
  e9fault --surface elf|wire|cache|loop|io --case N [--seed N]
                                                   replay one case
  e9fault --write-corpus DIR                       regenerate hostile ELFs

The cache surface damages on-disk rewrite-cache entries, asserting
typed errors, quarantine and cold-path recovery.
The loop surface runs hostile client behaviors (slow-loris, partial
lines, mid-poll disconnects, never-reading queue-fillers) against a real
reactor, asserting it never panics and healthy connections stay served.
The io surface injects environmental faults (ENOSPC, EIO, EINTR, short
writes, failed renames) at real syscall sites through e9failpt while
full rewrite jobs run against live daemons: every fault must surface as
a typed error or a byte-identical degraded result.
The seed defaults to ${ENV_SEED} (then 42). Exit 1 if any case panics."
    );
    ExitCode::from(2)
}

fn replay(seed: u64, surface: Surface, case: u32) -> ExitCode {
    let mut rng = case_rng(seed, surface, case);
    let outcome = match surface {
        Surface::Elf => {
            let mutant = elf::mutate(&mut rng, &elf::baseline_elf_with_symbols());
            eprintln!(
                "e9fault: replaying elf case {case} ({} bytes)",
                mutant.len()
            );
            e9faultgen::elf_case(&mutant)
        }
        Surface::Wire => {
            let mutant = wire::mutate(&mut rng, &wire::baseline_script());
            eprintln!(
                "e9fault: replaying wire case {case} ({} bytes)",
                mutant.len()
            );
            wire::wire_case(&mutant)
        }
        Surface::Cache => {
            let root = std::env::temp_dir().join(format!(
                "e9fault-cache-replay-{}-{case}",
                std::process::id()
            ));
            eprintln!("e9fault: replaying cache case {case} in {}", root.display());
            cache::cache_case(&mut rng, &root)
        }
        #[cfg(target_os = "linux")]
        Surface::Loop => {
            let sock = std::env::temp_dir().join(format!(
                "e9fault-loop-replay-{}-{case}.sock",
                std::process::id()
            ));
            eprintln!("e9fault: replaying loop case {case} on {}", sock.display());
            e9faultgen::loopgen::loop_case(&mut rng, &sock)
        }
        #[cfg(not(target_os = "linux"))]
        Surface::Loop => {
            eprintln!("e9fault: the loop surface needs Linux (epoll reactor)");
            return ExitCode::from(2);
        }
        #[cfg(target_os = "linux")]
        Surface::Io => {
            let root = std::env::temp_dir()
                .join(format!("e9fault-io-replay-{}-{case}", std::process::id()));
            eprintln!("e9fault: replaying io case {case} in {}", root.display());
            e9faultgen::io::io_case(&mut rng, &root)
        }
        #[cfg(not(target_os = "linux"))]
        Surface::Io => {
            eprintln!("e9fault: the io surface needs Linux (epoll reactor)");
            return ExitCode::from(2);
        }
    };
    println!(
        "{ENV_SEED}={seed} surface={} case={case}: {outcome:?}",
        surface.name()
    );
    if outcome == Outcome::Panicked {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn write_corpus(dir: &str) -> ExitCode {
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("e9fault: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (name, bytes) in corpus::all() {
        let path = dir.join(format!("{name}.bin"));
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("e9fault: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} bytes)", path.display(), bytes.len());
    }
    ExitCode::SUCCESS
}

fn finish(reports: &[CampaignReport]) -> ExitCode {
    let mut clean = true;
    for r in reports {
        println!("{}", r.summary());
        if !r.is_clean() {
            clean = false;
            eprint!("{}", r.replay_lines());
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = seed_from_env();
    let mut elf_cases = 320u32;
    let mut wire_cases = 200u32;
    let mut cache_cases = 120u32;
    // Each loop case boots a real reactor + hostile clients, so the
    // default stays modest to bound campaign wall time.
    let mut loop_cases = 24u32;
    // Io cases boot real daemons and drive whole rewrite jobs; same
    // wall-time reasoning.
    let mut io_cases = 24u32;
    let mut surface: Option<Surface> = None;
    let mut case: Option<u32> = None;
    let mut corpus_dir: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        let take = |i: usize| argv.get(i + 1).cloned();
        match argv[i].as_str() {
            "--seed" => match take(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    seed = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--elf-cases" => match take(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    elf_cases = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--wire-cases" => match take(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    wire_cases = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--cache-cases" => match take(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    cache_cases = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--loop-cases" => match take(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    loop_cases = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--io-cases" => match take(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    io_cases = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--surface" => match take(i).as_deref() {
                Some("elf") => {
                    surface = Some(Surface::Elf);
                    i += 2;
                }
                Some("wire") => {
                    surface = Some(Surface::Wire);
                    i += 2;
                }
                Some("cache") => {
                    surface = Some(Surface::Cache);
                    i += 2;
                }
                Some("loop") => {
                    surface = Some(Surface::Loop);
                    i += 2;
                }
                Some("io") => {
                    surface = Some(Surface::Io);
                    i += 2;
                }
                _ => return usage(),
            },
            "--case" => match take(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    case = Some(v);
                    i += 2;
                }
                None => return usage(),
            },
            "--write-corpus" => match take(i) {
                Some(d) => {
                    corpus_dir = Some(d);
                    i += 2;
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if let Some(dir) = corpus_dir {
        return write_corpus(&dir);
    }
    if let Some(case) = case {
        let Some(surface) = surface else {
            return usage();
        };
        return replay(seed, surface, case);
    }

    let mut reports = Vec::new();
    match surface {
        Some(Surface::Elf) => reports.push(e9faultgen::run_elf_campaign(seed, elf_cases)),
        Some(Surface::Wire) => reports.push(e9faultgen::run_wire_campaign(seed, wire_cases)),
        Some(Surface::Cache) => reports.push(e9faultgen::run_cache_campaign(seed, cache_cases)),
        #[cfg(target_os = "linux")]
        Some(Surface::Loop) => reports.push(e9faultgen::run_loop_campaign(seed, loop_cases)),
        #[cfg(target_os = "linux")]
        Some(Surface::Io) => reports.push(e9faultgen::run_io_campaign(seed, io_cases)),
        #[cfg(not(target_os = "linux"))]
        Some(Surface::Loop | Surface::Io) => {
            eprintln!("e9fault: the loop and io surfaces need Linux (epoll reactor)");
            return ExitCode::from(2);
        }
        None => {
            reports.push(e9faultgen::run_elf_campaign(seed, elf_cases));
            reports.push(e9faultgen::run_wire_campaign(seed, wire_cases));
            reports.push(e9faultgen::run_cache_campaign(seed, cache_cases));
            #[cfg(target_os = "linux")]
            {
                reports.push(e9faultgen::run_loop_campaign(seed, loop_cases));
                reports.push(e9faultgen::run_io_campaign(seed, io_cases));
            }
            #[cfg(not(target_os = "linux"))]
            let _ = (loop_cases, io_cases);
        }
    }
    finish(&reports)
}
