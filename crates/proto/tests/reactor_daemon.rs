//! End-to-end tests of the reactor serving mode against the real
//! `e9patchd` binary: byte-identity with stdio sessions, the
//! TCP transport, request pipelining, graceful drain, and the BUSY
//! admission/backpressure contract.

#![cfg(target_os = "linux")]

use e9patch::{PatchRequest, RewriteConfig, Rewriter, Template};
use e9proto::cachekey::Job;
use e9proto::msg::{code, Command, Request};
use e9proto::ProtoClient;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};
use std::time::{Duration, Instant};

fn daemon_path() -> &'static str {
    env!("CARGO_BIN_EXE_e9patchd")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e9reactor-{tag}-{}", std::process::id()));
    // Start clean: a stale socket from an earlier process with this pid
    // would satisfy `wait_for_sock` before the daemon binds.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_for_sock(sock: &Path) {
    for _ in 0..500 {
        if sock.exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never bound {}", sock.display());
}

/// Kills the daemon on drop so a panicking test can never orphan it. An
/// orphaned daemon inherits the test runner's stdout, and any pipeline
/// reading that stream blocks on the survivor instead of seeing EOF.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn wait_for_exit(daemon: &mut Reap) {
    for _ in 0..500 {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            assert!(status.success(), "daemon exited with {status}");
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon did not exit");
}

/// A synthetic workload binary, its disassembly, and its A1 jump sites.
fn workload() -> (Vec<u8>, Vec<e9x86::insn::Insn>, Vec<u64>) {
    let sb = e9synth::generate(&e9synth::Profile::tiny("reactor-test", false));
    let sites: Vec<u64> = sb
        .disasm
        .iter()
        .filter(|i| i.kind.is_jump())
        .map(|i| i.addr)
        .collect();
    assert!(!sites.is_empty());
    (sb.binary, sb.disasm, sites)
}

/// The raw request transcript for a full patch job (shutdown excluded).
fn job_transcript(bin: &[u8], disasm: &[e9x86::insn::Insn], sites: &[u64]) -> (String, usize) {
    let mut input = String::new();
    let mut id = 0u64;
    let mut push = |cmd: Command, input: &mut String| {
        id += 1;
        input.push_str(&Request { id, cmd }.encode());
        input.push('\n');
    };
    push(Command::Version { version: 1 }, &mut input);
    push(
        Command::Binary {
            bytes: bin.to_vec(),
            digest: None,
        },
        &mut input,
    );
    for i in disasm {
        push(
            Command::Instruction {
                addr: i.addr,
                bytes: i.bytes().to_vec(),
            },
            &mut input,
        );
    }
    for &addr in sites {
        push(
            Command::Patch {
                addr,
                template: Template::Empty,
            },
            &mut input,
        );
    }
    push(Command::Emit, &mut input);
    let count = input.lines().count();
    (input, count)
}

fn read_lines<R: Read>(reader: &mut BufReader<R>, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
        out.push(line);
    }
    out
}

fn requests(sites: &[u64]) -> Vec<PatchRequest> {
    sites
        .iter()
        .map(|&addr| PatchRequest {
            addr,
            template: Template::Empty,
        })
        .collect()
}

fn reference(bin: &[u8], disasm: &[e9x86::insn::Insn], sites: &[u64]) -> Vec<u8> {
    Rewriter::new(RewriteConfig::default())
        .rewrite(bin, disasm, &requests(sites), &[])
        .unwrap()
        .binary
}

/// The whole response transcript — every reply line for a pipelined full
/// patch job, emit included — must be byte-identical between the reactor
/// and a stdio session, which runs the same `reply_line` through
/// `serve_connection_with`.
#[test]
fn reactor_replies_are_byte_identical_to_stdio() {
    let dir = temp_dir("ident");
    let (bin, disasm, sites) = workload();
    let (transcript, n) = job_transcript(&bin, &disasm, &sites);

    let mut transcripts = Vec::new();
    let sock = dir.join("reactor.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-conns", "1"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    wait_for_sock(&sock);
    let mut stream = UnixStream::connect(&sock).unwrap();
    // One write: the entire job is pipelined.
    stream.write_all(transcript.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    transcripts.push(read_lines(&mut reader, n));
    drop((stream, reader));
    wait_for_exit(&mut daemon);

    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--stdio")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    // Feed stdin from a thread so a full stdout pipe cannot deadlock us.
    let mut stdin = daemon.0.stdin.take().unwrap();
    let feeder = {
        let transcript = transcript.clone();
        std::thread::spawn(move || stdin.write_all(transcript.as_bytes()).unwrap())
    };
    let mut reader = BufReader::new(daemon.0.stdout.take().unwrap());
    transcripts.push(read_lines(&mut reader, n));
    feeder.join().unwrap();
    wait_for_exit(&mut daemon);
    assert_eq!(
        transcripts[0], transcripts[1],
        "reactor and stdio transcripts diverge"
    );
    // And the emitted binary matches the in-process rewriter.
    let last = transcripts[0].last().unwrap();
    let value = e9proto::json::parse(last.trim().as_bytes()).unwrap();
    let resp = e9proto::Response::decode(&value).unwrap();
    let reply = e9proto::EmitReply::from_json(&resp.body.unwrap()).unwrap();
    assert_eq!(reply.binary, reference(&bin, &disasm, &sites));
    std::fs::remove_dir_all(&dir).ok();
}

/// Framing parity: at a small line cap, every framing edge gets the same
/// reply bytes from a stdio session (`serve_connection_with`) and from a
/// live reactor. The transcript covers blank and whitespace-only lines,
/// a CRLF request, lines exactly at and one byte over the cap, an
/// oversized line followed by a valid request, and an oversized
/// unterminated final line.
#[test]
fn framing_edges_reply_identically_in_both_modes() {
    const CAP: usize = 256;
    let request = |id, cmd| Request { id, cmd }.encode();
    let stats = |id| {
        let action = e9proto::CacheAction::Stats;
        request(id, Command::Cache { action })
    };
    // A valid request padded with trailing blanks to `len` bytes.
    let padded = |id, len: usize| format!("{:<len$}", stats(id));
    let mut transcript = String::new();
    transcript.push_str("\n   \t\n");
    transcript.push_str(&request(1, Command::Version { version: 1 }));
    transcript.push_str("\r\n");
    transcript.push_str(&padded(2, CAP - 1)); // with its newline: exactly the cap
    transcript.push('\n');
    transcript.push_str(&padded(3, CAP)); // one byte over
    transcript.push('\n');
    transcript.push_str(&"x".repeat(4 * CAP));
    transcript.push('\n');
    transcript.push_str(&stats(4));
    transcript.push('\n');
    transcript.push_str(&padded(5, 2 * CAP)); // oversized, unterminated

    let mut config = e9proto::server::ServeConfig::default();
    config.transport.max_line_bytes = CAP;
    let mut stdio = Vec::new();
    let mut input = std::io::Cursor::new(transcript.as_bytes());
    e9proto::server::serve_connection_with(&mut input, &mut stdio, &config).unwrap();

    let dir = temp_dir("framing");
    let sock = dir.join("reactor.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-conns", "1", "--max-line-bytes", &CAP.to_string()])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    wait_for_sock(&sock);
    let mut stream = UnixStream::connect(&sock).unwrap();
    stream.write_all(transcript.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reactor = Vec::new();
    stream.read_to_end(&mut reactor).unwrap();
    wait_for_exit(&mut daemon);

    let (stdio, reactor) = (
        String::from_utf8(stdio).unwrap(),
        String::from_utf8(reactor).unwrap(),
    );
    assert_eq!(stdio, reactor, "stdio and reactor framing diverge");
    // Version, at-cap stats, over-cap LIMIT, LIMIT, stats, tail LIMIT.
    let codes: Vec<Option<i64>> = stdio
        .lines()
        .map(|l| {
            let resp = e9proto::Response::decode(&e9proto::json::parse(l.as_bytes()).unwrap());
            resp.unwrap().body.err().map(|e| e.code)
        })
        .collect();
    assert_eq!(codes.len(), 6, "{stdio}");
    for i in [2, 3, 5] {
        assert_eq!(codes[i], Some(code::LIMIT), "reply {i}: {stdio}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--listen-tcp 127.0.0.1:0`: the daemon announces the resolved address
/// on stderr; a TCP client completes a full job byte-identical to the
/// in-process rewriter, and in-band shutdown still works.
#[test]
fn tcp_transport_serves_a_full_job() {
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .args(["--listen-tcp", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let stderr = daemon.0.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        assert!(lines.read_line(&mut line).unwrap() > 0, "daemon died");
        if let Some(rest) = line.strip_prefix("e9patchd: listening on tcp ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let (bin, disasm, sites) = workload();
    let mut client = ProtoClient::connect_tcp_retry(&addr, 8).unwrap();
    let job = Job {
        binary: &bin,
        disasm: &disasm,
        requests: &requests(&sites),
        extra: &[],
        config: RewriteConfig::default(),
    };
    client.stream(job.commands()).unwrap();
    let reply = client.emit().unwrap();
    assert_eq!(reply.binary, reference(&bin, &disasm, &sites));
    client.shutdown().unwrap();
    drop(client);
    wait_for_exit(&mut daemon);
}

/// Graceful drain: after one connection's `shutdown` is acknowledged, an
/// already-connected session still gets its in-flight emit served, with
/// a reply byte-identical to the in-process rewriter — and a late
/// connection is refused cleanly instead of hanging.
#[test]
fn drain_finishes_in_flight_emit_and_refuses_late_connections() {
    let dir = temp_dir("drain");
    let sock = dir.join("e9.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--drain-ms", "10000"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    wait_for_sock(&sock);

    // Session A: everything but the emit.
    let (bin, disasm, sites) = workload();
    let mut a = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
    let job = Job {
        binary: &bin,
        disasm: &disasm,
        requests: &requests(&sites),
        extra: &[],
        config: RewriteConfig::default(),
    };
    a.stream(job.commands()).unwrap();

    // Session B requests shutdown; the reactor enters drain.
    let mut b = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
    b.negotiate().unwrap();
    b.shutdown().unwrap();
    drop(b);

    // A's emit is in-flight work: it must complete, byte-identical.
    let reply = a.emit().unwrap();
    assert_eq!(reply.binary, reference(&bin, &disasm, &sites));

    // Late connections: refused (connect error), never a hang. Poll past
    // the instant between B's reply and the listener teardown.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(&sock) {
            Err(_) => break,
            Ok(_) if Instant::now() >= deadline => {
                panic!("late connection was still accepted during drain")
            }
            Ok(stream) => {
                drop(stream);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    drop(a);
    wait_for_exit(&mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Admission control: past `--max-clients`, a new arrival gets exactly
/// one typed BUSY line and a close, while the established connection
/// stays fully serviceable.
#[test]
fn admission_cap_sheds_with_typed_busy() {
    let dir = temp_dir("busy");
    let sock = dir.join("e9.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-clients", "1"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    wait_for_sock(&sock);

    let mut keep = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
    keep.negotiate().unwrap();

    // Arrival #2: one BUSY line, then EOF.
    let over = UnixStream::connect(&sock).unwrap();
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    let value = e9proto::json::parse(line.trim().as_bytes()).unwrap();
    let resp = e9proto::Response::decode(&value).unwrap();
    assert_eq!(resp.id, None);
    assert_eq!(resp.body.unwrap_err().code, code::BUSY);
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "must close after BUSY"
    );

    // A ProtoClient sees the shed as a typed RPC error, not a protocol
    // failure.
    let mut typed = ProtoClient::connect_unix(&sock).unwrap();
    match typed.negotiate().unwrap_err() {
        e9proto::ClientError::Rpc(e) => assert_eq!(e.code, code::BUSY),
        other => panic!("expected BUSY rpc error, got {other:?}"),
    }
    drop(typed);

    // The established session never noticed.
    keep.shutdown().unwrap();
    drop(keep);
    wait_for_exit(&mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Backpressure: with a tiny `--max-pending-bytes`, a client that
/// pipelines thousands of requests without reading replies sees typed
/// BUSY errors once the daemon's reply queue passes the budget — never a
/// stall, never a dropped connection.
#[test]
fn pending_budget_answers_busy_in_band() {
    let dir = temp_dir("budget");
    let sock = dir.join("e9.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-pending-bytes", "4096", "--max-conns", "1"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    wait_for_sock(&sock);

    let mut stream = UnixStream::connect(&sock).unwrap();
    // Pipeline far more reply volume than the kernel socket buffers plus
    // the 4 KiB budget can hold, without reading any of it: one version
    // negotiation, then thousands of cache-stats queries.
    let mut blob = String::new();
    blob.push_str(
        &Request {
            id: 1,
            cmd: Command::Version { version: 1 },
        }
        .encode(),
    );
    blob.push('\n');
    let n = 20_000usize;
    for id in 2..=n as u64 {
        blob.push_str(
            &Request {
                id,
                cmd: Command::Cache {
                    action: e9proto::CacheAction::Stats,
                },
            }
            .encode(),
        );
        blob.push('\n');
    }
    // The write side may itself hit backpressure while the daemon's
    // reply queue is parked; a write timeout keeps the test bounded.
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut written_all = true;
    let mut buf = blob.as_bytes();
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                written_all = false;
                break;
            }
            Ok(k) => buf = &buf[k..],
            Err(_) => {
                written_all = false;
                break;
            }
        }
    }
    // Now drain every reply; at least one must be a typed BUSY, and the
    // stream must stay framed (one JSON object per line) throughout.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut busy = 0usize;
    let mut ok = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let value = e9proto::json::parse(line.trim().as_bytes()).unwrap();
                let resp = e9proto::Response::decode(&value).unwrap();
                match resp.body {
                    Ok(_) => ok += 1,
                    Err(e) => {
                        assert_eq!(e.code, code::BUSY, "unexpected error: {e}");
                        busy += 1;
                    }
                }
            }
            Err(e) => panic!("reply stream stalled: {e}"),
        }
    }
    assert!(
        busy > 0,
        "no BUSY replies (ok={ok}, written_all={written_all})"
    );
    assert!(ok > 0, "no successful replies at all");

    drop(reader);
    drop(stream);
    wait_for_exit(&mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Pipelining: many requests in one write come back as exactly one reply
/// per request, in order, ids matching.
#[test]
fn pipelined_requests_reply_in_order() {
    let dir = temp_dir("pipe");
    let sock = dir.join("e9.sock");
    let mut daemon = Reap(
        Proc::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .args(["--max-conns", "1"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    wait_for_sock(&sock);

    let mut stream = UnixStream::connect(&sock).unwrap();
    let mut blob = String::new();
    let n = 256u64;
    for id in 1..=n {
        let cmd = if id == 1 {
            Command::Version { version: 1 }
        } else {
            Command::Cache {
                action: e9proto::CacheAction::Stats,
            }
        };
        blob.push_str(&Request { id, cmd }.encode());
        blob.push('\n');
    }
    stream.write_all(blob.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for expect in 1..=n {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let value = e9proto::json::parse(line.trim().as_bytes()).unwrap();
        let resp = e9proto::Response::decode(&value).unwrap();
        assert_eq!(resp.id, Some(expect), "replies out of order");
        assert!(resp.body.is_ok());
    }
    drop((stream, reader));
    wait_for_exit(&mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}
