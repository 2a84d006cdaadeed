//! Environmental I/O faults against a *live, healthy* system.
//!
//! The other surfaces feed the rewriter hostile bytes; this one keeps
//! every byte honest and makes the **operating system** hostile instead:
//! disk writes that hit ENOSPC, reads that come back EIO, syscalls cut
//! by EINTR, short writes, failed renames — injected deterministically
//! through the `e9failpt` failpoint registry at the exact sites
//! production code crosses into the kernel.
//!
//! Each case picks one scenario, seeds a failpoint schedule, and drives
//! a **full rewrite job** end to end while the faults fire:
//!
//! * **disk-cache faults** — a real reactor daemon with a disk-backed
//!   cache serves rewrites while its CAS directory fails; every emit
//!   must stay byte-identical to a fault-free rewrite (degraded to
//!   memory-only, never wrong), and the disk circuit breaker's
//!   trip/recovery walk is checked over the wire `health` command;
//! * **client transport faults** — connect/read/write on the protocol
//!   client fail with EINTR (absorbed transparently) or EIO (a typed
//!   [`ClientError`], after which the same client still works);
//! * **output-file faults** — `write_atomic` under ENOSPC / short
//!   writes / EINTR storms / failed renames: either a typed error with
//!   the destination untouched, or a byte-exact file — never a torn
//!   one, never stage-file droppings;
//! * **session-server faults** — the read/write path of the session
//!   server that stdio `e9patchd` runs, under EINTR and EIO: interrupts
//!   are invisible, a hard error costs only that one connection and a
//!   fresh one still completes the job.
//!
//! The contract, shared by all four: every injected fault surfaces as a
//! typed error or a degraded-but-correct result — never a panic, never
//! corrupt output, never a wedged daemon.

use crate::Outcome;
use e9cache::{Cache, CacheConfig};
use e9proto::cachekey::Job;
use e9proto::reactor::{serve_reactor, Listener};
use e9proto::server::ServeConfig;
use e9proto::{ClientError, ProtoClient};
use e9rng::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Workload generator: the baseline tiny binary with one immediate byte
/// varied, so variant `i` has a distinct content digest (distinct cache
/// key) while staying a valid, rewritable program.
fn variant_binary(i: u8) -> (Vec<u8>, Vec<u8>) {
    let code = vec![
        0x48,
        0x89,
        0x03,
        0x48,
        0x83,
        0xC0,
        0x08 + i,
        0xC3, //
        0x0F,
        0x1F,
        0x44,
        0x00,
        0x00,
        0x0F,
        0x1F,
        0x44,
        0x00,
        0x00,
    ];
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code.clone(), 0x401000);
    b.entry(0x401000);
    (b.build(), code)
}

/// Drive one full rewrite job (version → options → binary →
/// instructions → patch → emit) over `client`, returning the emitted
/// binary. Everything before `emit` goes through the client's in-flight
/// window in one [`ProtoClient::stream`], as e9front streams a job, so
/// client-side faults fire mid-window.
fn drive_job(client: &mut ProtoClient, bin: &[u8], code: &[u8]) -> Result<Vec<u8>, ClientError> {
    let job = Job {
        binary: bin,
        disasm: &e9x86::decode::linear_sweep(code, 0x401000),
        requests: &[e9patch::PatchRequest {
            addr: 0x401000,
            template: e9patch::Template::Empty,
        }],
        extra: &[],
        config: e9patch::RewriteConfig::default(),
    };
    client.stream(job.commands())?;
    Ok(client.emit()?.binary)
}

/// The fault-free expected output for variant `i`, computed through an
/// in-process loopback (no cache attached, so `cache.disk.*` failpoint
/// specs cannot touch it even while active). The session ends with
/// `shutdown`, whose reply is the server thread's last act: a thread
/// still looping after the client's drop could otherwise take a
/// `proto.server.*` fault armed right after this returns.
fn expected_output(i: u8) -> Option<Vec<u8>> {
    let (bin, code) = variant_binary(i);
    let mut client = ProtoClient::in_process().ok()?;
    let out = drive_job(&mut client, &bin, &code).ok()?;
    client.shutdown().ok()?;
    Some(out)
}

/// Scenario A: a reactor daemon with a disk-backed cache whose CAS
/// directory fails underneath it. Emits must stay byte-identical
/// (degraded to memory-only, never wrong); the breaker walk is observed
/// through the wire `health` command.
fn disk_cache_case(rng: &mut StdRng, root: &Path) -> Option<Outcome> {
    let cas = root.join("cas");
    let sock = root.join("d.sock");
    let cache = Arc::new(
        Cache::open(&CacheConfig {
            dir: Some(cas),
            bypass_bytes: 0, // tiny inputs must engage the cache
            ..CacheConfig::default()
        })
        .ok()?,
    );
    let config = ServeConfig {
        cache: Some(Arc::clone(&cache)),
        serving_mode: "reactor",
        transport: e9loop::Config {
            idle_timeout: Some(Duration::from_secs(10)),
            ..e9loop::Config::default()
        },
        ..ServeConfig::default()
    };
    let _ = std::fs::remove_file(&sock);
    let listener = std::os::unix::net::UnixListener::bind(&sock).ok()?;
    let server = std::thread::spawn(move || serve_reactor(vec![Listener::Unix(listener)], &config));

    // One failpoint term against one disk-tier site. Write-side faults
    // walk the breaker; read-side faults are absorbed as misses and must
    // NOT walk it (each failed read is followed by a successful store,
    // which closes the error streak).
    let write_side = rng.gen_bool(0.67);
    let point = if write_side {
        if rng.gen_bool(0.5) {
            "cache.disk.stage"
        } else {
            "cache.disk.publish"
        }
    } else {
        "cache.disk.read"
    };
    let fault = if rng.gen_bool(0.5) { "enospc" } else { "eio" };
    let first_n = rng.gen_range(3..=6u32);
    let spec = format!("{point}={fault}@first:{first_n}");
    let before = e9failpt::injected_total();
    let guard = e9failpt::activate_scoped(&spec, rng.next_u64()).ok()?;

    let mut ok = true;
    for i in 0..10u8 {
        let Some(expected) = expected_output(i) else {
            ok = false;
            break;
        };
        let (bin, code) = variant_binary(i);
        let Ok(mut client) = ProtoClient::connect_unix_retry(&sock, 6) else {
            ok = false;
            break;
        };
        match drive_job(&mut client, &bin, &code) {
            // The cache contract: disk faults degrade, they never fail a
            // rewrite and never change its bytes.
            Ok(got) => ok &= got == expected,
            Err(_) => ok = false,
        }
    }

    // The health surface must answer over the wire mid-degradation, and
    // the breaker walk must match the schedule.
    let health = ProtoClient::connect_unix_retry(&sock, 6)
        .ok()
        .and_then(|mut c| c.health().ok());
    match health {
        Some(h) => {
            let s = &h.cache.stats;
            ok &=
                s.disk_breaker_trips == s.disk_breaker_recoveries + u64::from(s.disk_breaker_open);
            if write_side {
                // first:N with N>=3 guarantees 3 consecutive put failures.
                ok &= s.disk_breaker_trips >= 1;
                if first_n == 3 {
                    // Schedule exhausted before the first probe: the probe
                    // succeeds and the breaker closes again.
                    ok &= s.disk_breaker_recoveries >= 1 && !s.disk_breaker_open;
                }
            } else {
                // Read faults interleave with successful stores: the
                // error streak never reaches the trip threshold.
                ok &= s.disk_breaker_trips == 0;
            }
        }
        None => ok = false,
    }
    let injected = e9failpt::injected_total() - before;
    drop(guard);

    // In-band shutdown; a wedged daemon fails the join below.
    if let Ok(mut c) = ProtoClient::connect_unix_retry(&sock, 6) {
        let _ = c.negotiate();
        let _ = c.shutdown();
    }
    let served = server.join();
    let _ = std::fs::remove_file(&sock);
    ok &= matches!(served, Ok(Ok(_)));

    Some(judge(ok, injected))
}

/// Scenario B: protocol-client transport faults over an in-process
/// loopback. EINTR storms are absorbed inside the client; hard EIO is a
/// typed error after which the *same* client still completes the job.
fn client_transport_case(rng: &mut StdRng) -> Option<Outcome> {
    let mode = rng.gen_range(0..3u32);
    let (bin, code) = variant_binary(0);
    let expected = expected_output(0)?;
    let before = e9failpt::injected_total();

    let ok = match mode {
        // A burst of interrupts below the retry budget: invisible.
        0 => {
            let point = if rng.gen_bool(0.5) {
                "proto.client.write"
            } else {
                "proto.client.read"
            };
            let k = rng.gen_range(1..=8u32);
            let spec = format!("{point}=eintr@first:{k}");
            let _guard = e9failpt::activate_scoped(&spec, rng.next_u64()).ok()?;
            let mut client = ProtoClient::in_process().ok()?;
            matches!(drive_job(&mut client, &bin, &code), Ok(got) if got == expected)
        }
        // One hard EIO on the write side: the job's first window fails
        // with a typed error, and resending the job on the same client
        // completes it byte-identically. (Write-side only: the fault
        // fires before any bytes move, and the tiny job's inputs fit one
        // window, so nothing reached the server and the resend cannot
        // desync ids. A failed *read* strands the reply in the stream —
        // reconnecting, not resending, is the recovery there, which mode
        // 2 covers as a typed error.)
        1 => {
            let spec = "proto.client.write=eio@once".to_string();
            let _guard = e9failpt::activate_scoped(&spec, rng.next_u64()).ok()?;
            let mut client = ProtoClient::in_process().ok()?;
            let got = match drive_job(&mut client, &bin, &code) {
                Err(ClientError::Io(_)) => drive_job(&mut client, &bin, &code),
                first => first,
            };
            matches!(got, Ok(got) if got == expected)
        }
        // An interrupt storm past the retry budget: the client gives up
        // with a *typed* Interrupted error, not a hang and not a panic.
        _ => {
            let point = if rng.gen_bool(0.5) {
                "proto.client.write"
            } else {
                "proto.client.read"
            };
            let spec = format!("{point}=eintr@always");
            let _guard = e9failpt::activate_scoped(&spec, rng.next_u64()).ok()?;
            let mut client = ProtoClient::in_process().ok()?;
            match client.negotiate() {
                Err(ClientError::Io(e)) => e.kind() == std::io::ErrorKind::Interrupted,
                _ => false,
            }
        }
    };
    let injected = e9failpt::injected_total() - before;
    Some(judge(ok, injected))
}

/// Scenario C: `write_atomic` (the stage → fsync → rename output path)
/// under disk faults. Either a typed error with the destination
/// untouched, or a byte-exact file — never a torn write, never
/// stage-file droppings.
fn output_file_case(rng: &mut StdRng, root: &Path) -> Option<Outcome> {
    let dir = root.join("out");
    std::fs::create_dir_all(&dir).ok()?;
    let dest = dir.join("artifact.bin");
    let old: Option<Vec<u8>> = if rng.gen_bool(0.5) {
        let prior = vec![0xA5u8; rng.gen_range(1..512usize)];
        std::fs::write(&dest, &prior).ok()?;
        Some(prior)
    } else {
        None
    };
    let len = rng.gen_range(1..8192usize);
    let mut payload = vec![0u8; len];
    for b in &mut payload {
        *b = (rng.next_u32() & 0xFF) as u8;
    }

    let mode = rng.gen_range(0..4u32);
    let spec = match mode {
        0 => "front.output.write=partial@always".to_string(),
        1 => format!("front.output.write=eintr@first:{}", rng.gen_range(1..=8u32)),
        2 => "front.output.stage=enospc@once".to_string(),
        _ => "front.output.commit=rename@once".to_string(),
    };
    let before = e9failpt::injected_total();
    let guard = e9failpt::activate_scoped(&spec, rng.next_u64()).ok()?;
    let first = e9front::output::write_atomic(&dest, &payload);
    let mut ok = match mode {
        // Short writes and interrupt bursts are absorbed: one call, a
        // byte-exact file.
        0 | 1 => first.is_ok() && std::fs::read(&dest).ok()? == payload,
        // ENOSPC at stage / EXDEV at commit: a typed error, the old
        // destination intact; once the fault clears, a retry lands.
        _ => {
            let errno_ok = match &first {
                Err(e) => {
                    let want = if mode == 2 { 28 } else { 18 }; // ENOSPC / EXDEV
                    e.raw_os_error() == Some(want)
                }
                Ok(()) => false,
            };
            let preserved = match &old {
                Some(prior) => std::fs::read(&dest).ok().as_deref() == Some(&prior[..]),
                None => !dest.exists(),
            };
            let retried = e9front::output::write_atomic(&dest, &payload).is_ok()
                && std::fs::read(&dest).ok()? == payload;
            errno_ok && preserved && retried
        }
    };
    // No stage-file droppings whatever happened.
    let stray = std::fs::read_dir(&dir)
        .ok()?
        .flatten()
        .filter(|e| e.file_name() != "artifact.bin")
        .count();
    ok &= stray == 0;
    let injected = e9failpt::injected_total() - before;
    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
    Some(judge(ok, injected))
}

/// Scenario D: the session server (`serve_connection_with`, which stdio
/// `e9patchd` runs) under read / write faults, driven over the socket
/// pair of an in-process loopback. Interrupts are invisible; a hard read
/// error ends only that one session, and a fresh one completes the job.
fn session_server_case(rng: &mut StdRng) -> Option<Outcome> {
    let hard = rng.gen_bool(1.0 / 3.0);
    // Baseline first: the in-process loopback shares the server-side
    // failpoint sites, so it must run before the spec goes live.
    let (bin, code) = variant_binary(0);
    let expected = expected_output(0)?;
    let spec = if hard {
        "proto.server.read=eio@once".to_string()
    } else {
        let point = if rng.gen_bool(0.5) {
            "proto.server.read"
        } else {
            "proto.server.write"
        };
        format!("{point}=eintr@first:{}", rng.gen_range(1..=8u32))
    };
    let before = e9failpt::injected_total();
    let guard = e9failpt::activate_scoped(&spec, rng.next_u64()).ok()?;

    let mut ok = true;
    if hard {
        // The poisoned session's first read fails and the server closes
        // the connection: the client sees a typed error, not a hang.
        let mut victim = ProtoClient::in_process().ok()?;
        ok &= drive_job(&mut victim, &bin, &code).is_err();
    }
    // A fresh session completes a byte-identical job.
    let mut client = ProtoClient::in_process().ok()?;
    ok &= matches!(drive_job(&mut client, &bin, &code), Ok(got) if got == expected);
    let injected = e9failpt::injected_total() - before;
    drop(guard);
    Some(judge(ok, injected))
}

/// Map a scenario's verdict to the campaign outcome vocabulary:
/// contract held + faults fired → `Rejected` (the fault was handled);
/// contract held + schedule never triggered → `Accepted`; contract
/// broken → `Panicked` (same failure class as an unwind, for this
/// surface).
fn judge(ok: bool, injected: u64) -> Outcome {
    if !ok {
        Outcome::Panicked
    } else if injected > 0 {
        Outcome::Rejected
    } else {
        Outcome::Accepted
    }
}

/// Run one seeded environmental-I/O case in `root` (scratch space owned
/// by the case).
///
/// Panics anywhere in the scenario — including inside server threads
/// joined by it — and every broken contract (wrong bytes, missing typed
/// error, wedged daemon, torn file) are reported as
/// [`Outcome::Panicked`].
pub fn io_case(rng: &mut StdRng, root: &Path) -> Outcome {
    let _ = std::fs::create_dir_all(root);
    let scenario = rng.gen_range(0..4u32);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let out = match scenario {
            0 => disk_cache_case(rng, root),
            1 => client_transport_case(rng),
            2 => output_file_case(rng, root),
            _ => session_server_case(rng),
        };
        // Setup failures (bind, scratch dir, loopback spawn) mean the
        // case could not deliver its verdict: fail loudly rather than
        // report a hollow pass.
        out.unwrap_or(Outcome::Panicked)
    }));
    let _ = std::fs::remove_dir_all(root);
    result.unwrap_or(Outcome::Panicked)
}
