//! Hostile *client behaviors* against the reactor serving loop.
//!
//! The other surfaces mutate bytes; this one mutates **timing and
//! socket discipline**. Each case starts a real reactor (the same
//! `e9proto::reactor` glue `e9patchd` serves with, small budgets so the
//! shedding paths are reachable) and runs seeded hostile clients
//! against it:
//!
//! * **slow-loris** — a valid transcript delivered one byte per write,
//!   so every poll tick sees a partial line;
//! * **partial line + disconnect** — half a request, no newline, gone;
//! * **mid-poll disconnect** — complete requests, then the client dies
//!   without reading any reply;
//! * **never-reading client** — pipelines requests and never drains
//!   replies, filling its write queue until the loop sheds it;
//! * **oversized line** — a request past `max_line_bytes`;
//! * **garbage flood** — non-protocol noise, one line per write.
//!
//! The contract: the reactor never panics, hostile connections are
//! answered with typed errors or shed, and — judged *while* hostile
//! connections are still parked — a healthy client on the same loop
//! completes a well-formed round trip.

use crate::Outcome;
use e9proto::msg::{Command, Request};
use e9proto::reactor::{serve_reactor, Listener};
use e9proto::server::ServeConfig;
use e9rng::StdRng;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

/// Reactor budgets for campaign runs: small enough that every shedding
/// path (line cap, per-connection queue, admission) is reachable by a
/// hostile client in milliseconds.
fn campaign_config() -> ServeConfig {
    ServeConfig {
        transport: e9loop::Config {
            max_line_bytes: 2048,
            idle_timeout: Some(Duration::from_secs(10)),
            max_clients: 32,
            pending_budget_bytes: 1 << 20,
            conn_queue_bytes: 4096,
            drain_timeout: Duration::from_secs(5),
            ..e9loop::Config::default()
        },
        ..ServeConfig::default()
    }
}

fn connect(sock: &Path) -> Option<UnixStream> {
    let stream = UnixStream::connect(sock).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    Some(stream)
}

fn version_line(id: u64) -> Vec<u8> {
    let mut out = Request {
        id,
        cmd: Command::Version { version: 1 },
    }
    .encode()
    .into_bytes();
    out.push(b'\n');
    out
}

fn stats_line(id: u64) -> Vec<u8> {
    let mut out = Request {
        id,
        cmd: Command::Cache {
            action: e9proto::CacheAction::Stats,
        },
    }
    .encode()
    .into_bytes();
    out.push(b'\n');
    out
}

/// What one hostile behavior observed. `saw_typed_error` means the
/// reactor answered or cut it in a *controlled* way (typed error line,
/// shed, clean EOF on our misbehavior).
struct Hostility {
    saw_typed_error: bool,
    /// Connections deliberately kept open so the healthy probe runs
    /// *while* they are still parked on the loop.
    parked: Vec<UnixStream>,
}

/// A valid transcript delivered one byte per write: every poll tick sees
/// a partial line. The reactor must buffer patiently and answer each
/// completed request; activity keeps the idle timer at bay by design.
fn slow_loris(rng: &mut StdRng, sock: &Path) -> Option<Hostility> {
    let mut stream = connect(sock)?;
    let mut bytes = version_line(1);
    bytes.extend_from_slice(&stats_line(2));
    for chunk in bytes.chunks(1) {
        if stream.write_all(chunk).is_err() {
            break;
        }
        if rng.gen_bool(0.125) {
            std::thread::sleep(Duration::from_micros(u64::from(rng.gen_range(1..200u32))));
        }
    }
    // Both replies must arrive despite the drip-feed.
    let mut reader = BufReader::new(stream);
    let mut ok = true;
    for _ in 0..2 {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => ok &= line.contains("result"),
            _ => ok = false,
        }
    }
    Some(Hostility {
        saw_typed_error: !ok,
        parked: Vec::new(),
    })
}

/// A prefix of a request line — cut at a seeded byte, no newline — then
/// the client vanishes. The reactor must reap the connection without
/// dispatching the fragment.
fn partial_line_disconnect(rng: &mut StdRng, sock: &Path) -> Option<Hostility> {
    let mut stream = connect(sock)?;
    let line = version_line(1);
    let cut = rng.gen_range(1..line.len());
    let _ = stream.write_all(&line[..cut]);
    drop(stream); // mid-line disconnect
    Some(Hostility {
        saw_typed_error: true,
        parked: Vec::new(),
    })
}

/// Complete pipelined requests, then death without reading one reply:
/// the loop is left holding queued responses for a gone peer.
fn mid_poll_disconnect(rng: &mut StdRng, sock: &Path) -> Option<Hostility> {
    let mut stream = connect(sock)?;
    let n = rng.gen_range(1..=16u64);
    let mut blob = version_line(1);
    for id in 2..=n {
        blob.extend_from_slice(&stats_line(id));
    }
    let _ = stream.write_all(&blob);
    drop(stream);
    Some(Hostility {
        saw_typed_error: true,
        parked: Vec::new(),
    })
}

/// Pipelines replies it never reads. With the campaign's 4 KiB
/// per-connection queue cap the loop must shed it (EPIPE/ECONNRESET on
/// our side) rather than queue without bound — while other connections
/// stay serviceable.
fn never_reading(rng: &mut StdRng, sock: &Path) -> Option<Hostility> {
    let mut stream = connect(sock)?;
    let _ = stream.write_all(&version_line(1));
    let mut shed = false;
    // Enough reply volume to overflow kernel buffers + the 4 KiB cap.
    let rounds = rng.gen_range(2_000..4_000u32);
    for id in 0..rounds {
        if stream.write_all(&stats_line(u64::from(id) + 2)).is_err() {
            shed = true;
            break;
        }
    }
    if shed {
        Some(Hostility {
            saw_typed_error: true,
            parked: Vec::new(),
        })
    } else {
        // All requests fit in flight; park the connection unread so the
        // healthy probe must coexist with the backlog.
        Some(Hostility {
            saw_typed_error: false,
            parked: vec![stream],
        })
    }
}

/// One request line past `max_line_bytes`: drained and answered with a
/// typed LIMIT error, connection intact.
fn oversized_line(rng: &mut StdRng, sock: &Path) -> Option<Hostility> {
    let mut stream = connect(sock)?;
    let len = rng.gen_range(3000..8000usize);
    let mut line = vec![b'x'; len];
    line.push(b'\n');
    let _ = stream.write_all(&line);
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let typed = matches!(reader.read_line(&mut reply), Ok(n) if n > 0) && reply.contains("error");
    Some(Hostility {
        saw_typed_error: typed,
        parked: Vec::new(),
    })
}

/// Seeded non-protocol noise, one line per write: every line must come
/// back as a typed PARSE error, never kill the loop.
fn garbage_flood(rng: &mut StdRng, sock: &Path) -> Option<Hostility> {
    let mut stream = connect(sock)?;
    let lines = rng.gen_range(1..=8u32);
    for _ in 0..lines {
        let len = rng.gen_range(1..=128usize);
        let mut garbage = Vec::with_capacity(len + 1);
        for _ in 0..len {
            let mut b = (rng.next_u32() & 0xFF) as u8;
            if b == b'\n' {
                b = b' ';
            }
            garbage.push(b);
        }
        garbage.push(b'\n');
        if stream.write_all(&garbage).is_err() {
            break;
        }
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let typed = matches!(reader.read_line(&mut reply), Ok(n) if n > 0) && reply.contains("error");
    Some(Hostility {
        saw_typed_error: typed,
        parked: Vec::new(),
    })
}

/// Run one seeded campaign case against a fresh reactor bound at `sock`.
///
/// Starts the loop, launches one to three hostile behaviors, then — with
/// any parked hostile connections still open — runs the healthy probe
/// (a full version round trip) and an in-band shutdown. Outcomes:
///
/// * [`Outcome::Panicked`] — the reactor thread unwound, or the healthy
///   probe could not complete (the loop is dead or stalled: the same
///   failure class as a panic for this surface);
/// * [`Outcome::Rejected`] — at least one hostile behavior was answered
///   with a typed error or shed (the expected result);
/// * [`Outcome::Accepted`] — every behavior happened to stay within
///   protocol bounds.
pub fn loop_case(rng: &mut StdRng, sock: &Path) -> Outcome {
    let _ = std::fs::remove_file(sock);
    let Ok(listener) = UnixListener::bind(sock) else {
        return Outcome::Panicked;
    };
    let config = campaign_config();
    let server = std::thread::spawn(move || serve_reactor(vec![Listener::Unix(listener)], &config));

    let mut any_typed = false;
    let mut parked = Vec::new();
    let moves = rng.gen_range(1..=3u32);
    for _ in 0..moves {
        let hostility = match rng.gen_range(0..6u32) {
            0 => slow_loris(rng, sock),
            1 => partial_line_disconnect(rng, sock),
            2 => mid_poll_disconnect(rng, sock),
            3 => never_reading(rng, sock),
            4 => oversized_line(rng, sock),
            _ => garbage_flood(rng, sock),
        };
        match hostility {
            Some(h) => {
                any_typed |= h.saw_typed_error;
                parked.extend(h.parked);
            }
            None => {
                // Even failing to connect means the loop shed us.
                any_typed = true;
            }
        }
    }

    // Healthy probe *while* hostile connections are still parked: a
    // fresh well-formed session must complete.
    let healthy = (|| -> Option<bool> {
        let mut stream = connect(sock)?;
        stream.write_all(&version_line(1)).ok()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        Some(reader.read_line(&mut line).ok()? > 0 && line.contains("result"))
    })()
    .unwrap_or(false);

    // Release parked connections *before* the in-band shutdown so the
    // drain has nothing idle to wait out.
    drop(parked);
    let mut shutdown_sent = false;
    for _ in 0..3 {
        shutdown_sent = (|| -> Option<bool> {
            let mut stream = connect(sock)?;
            let mut blob = version_line(1);
            let mut shut = Request {
                id: 2,
                cmd: Command::Shutdown,
            }
            .encode()
            .into_bytes();
            shut.push(b'\n');
            blob.extend_from_slice(&shut);
            stream.write_all(&blob).ok()?;
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let _ = reader.read_line(&mut line); // version reply
            line.clear();
            Some(reader.read_line(&mut line).ok()? > 0)
        })()
        .unwrap_or(false);
        if shutdown_sent {
            break;
        }
    }
    if !shutdown_sent {
        // The loop is not answering at all: that is the failure this
        // surface exists to catch. Leak the server thread (joining
        // would hang the campaign) and report the dead loop.
        let _ = std::fs::remove_file(sock);
        return Outcome::Panicked;
    }
    let served = server.join();
    let _ = std::fs::remove_file(sock);
    match served {
        Err(_) => Outcome::Panicked,                // the loop itself unwound
        Ok(Err(_)) => Outcome::Panicked,            // fatal reactor error: same class
        Ok(Ok(_)) if !healthy => Outcome::Panicked, // loop stalled a healthy client
        Ok(Ok(_)) if any_typed => Outcome::Rejected,
        Ok(Ok(_)) => Outcome::Accepted,
    }
}
