//! Serving-core throughput: N concurrent sessions against `e9patchd`'s
//! socket serving core, the epoll reactor.
//!
//! Each session runs the same full patch job (version → binary →
//! instructions → patches → emit) over a Unix socket backed by a shared
//! in-memory rewrite cache, so the fleet exercises concurrent cache
//! reuse the way a real `e9tool --backend` swarm does. Every client
//! asserts its reply stream byte-identical to an in-process reference
//! transcript, so the timing numbers double as a byte-identity check at
//! every fleet size — including the 512-connection point.
//!
//! One bench iteration = boot the server, run all N sessions to
//! completion, drain and join. Throughput is sessions per second.

fn main() {
    #[cfg(target_os = "linux")]
    linux::run();
    #[cfg(not(target_os = "linux"))]
    eprintln!("bench_serve needs Linux (the reactor serving core is epoll-based)");
}

#[cfg(target_os = "linux")]
mod linux {
    use e9bench::harness::{Harness, Throughput};
    use e9patch::Template;
    use e9proto::msg::{Command, Request};
    use e9proto::reactor::{serve_reactor, Listener};
    use e9proto::server::{serve_connection_with, ServeConfig};
    use std::io::{BufRead, BufReader, Cursor, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// The raw request transcript for one full patch job.
    fn job_transcript() -> Vec<u8> {
        let sb = e9synth::generate(&e9synth::Profile::tiny("bench-serve", false));
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
                bytes: sb.binary.clone(),
                digest: None,
            },
            &mut input,
        );
        for i in &sb.disasm {
            push(
                Command::Instruction {
                    addr: i.addr,
                    bytes: i.bytes().to_vec(),
                },
                &mut input,
            );
        }
        for i in sb.disasm.iter().filter(|i| i.kind.is_jump()) {
            push(
                Command::Patch {
                    addr: i.addr,
                    template: Template::Empty,
                },
                &mut input,
            );
        }
        push(Command::Emit, &mut input);
        input.into_bytes()
    }

    /// The reply stream every session must produce, computed through the
    /// same `reply_line` choke point the reactor funnels into.
    fn reference_replies(transcript: &[u8], config: &ServeConfig) -> Vec<u8> {
        let mut reader = Cursor::new(transcript.to_vec());
        let mut out: Vec<u8> = Vec::new();
        serve_connection_with(&mut reader, &mut out, config).unwrap();
        out
    }

    fn connect_retry(sock: &Path) -> UnixStream {
        // Backlog pressure at high fleet sizes surfaces as transient
        // connect failures; every client owns exactly one accepted slot.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(sock) {
                Ok(s) => return s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "connect to {sock:?} failed: {e}");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// One client session: send the whole job, read the whole reply
    /// stream, assert it byte-identical to the in-process reference.
    fn session(sock: &Path, transcript: &[u8], expected: &[u8]) {
        let mut stream = connect_retry(sock);
        stream.write_all(transcript).unwrap();
        let want = expected.iter().filter(|&&b| b == b'\n').count();
        let mut reader = BufReader::new(stream);
        let mut got = Vec::with_capacity(expected.len());
        for _ in 0..want {
            let n = reader.read_until(b'\n', &mut got).unwrap();
            assert!(n > 0, "early EOF after {} reply bytes", got.len());
        }
        assert!(got == expected, "reply stream diverged from reference");
    }

    fn scratch_sock() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "e9bench-serve-{}-{}.sock",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn run_clients(sock: &Path, n: usize, transcript: &[u8], expected: &[u8]) {
        let clients: Vec<_> = (0..n)
            .map(|_| {
                let sock = sock.to_path_buf();
                let transcript = transcript.to_vec();
                let expected = expected.to_vec();
                std::thread::spawn(move || session(&sock, &transcript, &expected))
            })
            .collect();
        for c in clients {
            c.join().expect("client session failed");
        }
    }

    /// Boot a reactor with an accept budget of exactly `n`, run the
    /// fleet, and let the budget-triggered drain end the loop.
    fn run_reactor(n: usize, transcript: &[u8], expected: &[u8], config: &ServeConfig) {
        let sock = scratch_sock();
        let listener = UnixListener::bind(&sock).unwrap();
        let server = {
            let mut config = config.clone();
            config.transport.accept_budget = Some(n);
            std::thread::spawn(move || serve_reactor(vec![Listener::Unix(listener)], &config))
        };
        run_clients(&sock, n, transcript, expected);
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&sock);
    }

    pub fn run() {
        let mut h = Harness::from_args("serve");
        let transcript = job_transcript();
        let config = ServeConfig {
            cache: Some(std::sync::Arc::new(e9cache::Cache::in_memory_no_bypass())),
            ..ServeConfig::default()
        };
        // The emit reply records its cache disposition (miss vs hit), so
        // prime the shared cache with one cold run and take the *warm*
        // transcript as the reference: every benched session is a cache
        // hit, which is both deterministic and the fleet steady state.
        let _prime = reference_replies(&transcript, &config);
        let expected = reference_replies(&transcript, &config);

        let sizes: &[usize] = if h.is_smoke() {
            &[1, 512]
        } else {
            &[1, 16, 128, 512]
        };
        for &n in sizes {
            h.throughput(Throughput::Elements(n as u64));
            h.bench(&format!("reactor/{n}"), || {
                run_reactor(n, &transcript, &expected, &config)
            });
        }
        h.finish();
    }
}
