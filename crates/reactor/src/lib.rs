//! # e9loop — a hermetic epoll reactor
//!
//! The multiplexed serving core under `e9patchd`: one thread, one epoll
//! instance, non-blocking accept/read/write with edge-triggered
//! readiness, and a per-connection state machine
//!
//! ```text
//! LineFramer → dispatch (replies appended to the write queue) → one flush per read
//! ```
//!
//! The crate is deliberately *generic* and *dependency-free*: it knows
//! nothing about the wire protocol. A [`Service`] turns complete request
//! lines into response bytes (in `e9patchd` that is `e9proto`'s
//! `Session`); the reactor owns fairness, admission control and
//! shutdown. The [`Service`]/[`ServiceFactory`] traits keep the protocol
//! out of this crate so its unit tests can drive the loop with a toy
//! service; the daemon, its integration tests and the `e9fault` loop
//! campaign all drive it through `e9proto::reactor` with real sessions.
//!
//! Framing is the portable [`LineFramer`], which the stdio serving loop
//! uses too. It finds each newline a `u64` word (eight bytes) at a time,
//! in std alone. [`Config`] is the one set of serving knobs. Only the
//! event loop itself ([`serve`], [`Listener`] and the raw epoll bindings
//! in `sys`) is Linux-only.
//!
//! ## Why a reactor at all
//!
//! The thread-per-connection server caps the daemon at a handful of
//! clients: every stalled reader pins a thread, and a thousand idle
//! connections cost a thousand stacks. Here a connection is ~one slab
//! slot (a socket, a framer, a write buffer, a `Service`), so thousands
//! of concurrent sessions fit in one loop, and *requests pipeline*: every
//! complete line already buffered is dispatched before the loop returns
//! to `epoll_wait`.
//!
//! Replies are batched the same way. A service appends each reply to its
//! connection's write queue, and the loop offers the queue to the kernel
//! once per read chunk, not once per reply: a 16 KiB read of pipelined
//! requests is answered in about one `write`, which wakes its client once.
//! [`Summary::writes`] counts those writes.
//!
//! ## Admission control and backpressure
//!
//! Overload is shed, never queued unboundedly and never stalled on:
//!
//! * more than [`Config::max_clients`] live connections → a new arrival
//!   is answered with the factory's one-line BUSY reply and closed;
//! * loop-wide queued reply bytes above
//!   [`Config::pending_budget_bytes`] → further requests are answered
//!   with [`Service::on_busy`] (a typed error, not a dispatch) until the
//!   queues drain;
//! * one connection's unread replies above [`Config::conn_queue_bytes`]
//!   (a client that writes requests but never reads responses) → that
//!   connection is shed: closed, queue discarded.
//!
//! Both budgets count bytes the kernel refused. A batch not yet flushed
//! does not count against them: before either budget answers BUSY or
//! sheds, the connection's queue is offered to the kernel and the budget
//! is checked again.
//!
//! ## Graceful drain
//!
//! When a service requests shutdown (or the accept budget is spent) the
//! reactor *drains*: listeners are closed immediately — late connections
//! get a clean refusal, not a hang — while live connections keep being
//! served until they finish, bounded per connection by
//! [`Config::drain_timeout`] of inactivity. In-flight work completes and
//! its replies are flushed before the loop exits.

#[cfg(target_os = "linux")]
mod epoll;
mod framer;
#[cfg(target_os = "linux")]
pub mod sys;

#[cfg(target_os = "linux")]
pub use epoll::{serve, Listener};
pub use framer::{Frame, LineFramer};

use std::time::Duration;

/// Turns complete request lines into response bytes. One instance per
/// connection, created by the [`ServiceFactory`] at accept time.
pub trait Service {
    /// Handle one complete line (newline stripped) and append its
    /// response, trailing newline included, to `out`: the connection's
    /// write queue, whose earlier bytes must be left alone. Append
    /// nothing for no response (blank lines). The loop writes the queue
    /// once per read chunk, so replies to pipelined lines share a write.
    fn on_line(&mut self, line: &[u8], out: &mut Vec<u8>);

    /// Response for a line that exceeded `max_line_bytes` (the line was
    /// read off the stream and discarded, never buffered).
    fn on_oversized(&mut self, cap: usize) -> Vec<u8>;

    /// Response for a line refused because the loop-wide pending-byte
    /// budget is exhausted. The line is *not* dispatched.
    fn on_busy(&mut self, line: &[u8]) -> Vec<u8>;

    /// Whether the last handled line asked the whole server to shut
    /// down. Checked after every dispatch; `true` stops this
    /// connection's intake and puts the reactor into drain.
    fn shutdown_requested(&self) -> bool;
}

/// Creates one [`Service`] per accepted connection, plus the one-line
/// reply sent to connections refused at admission.
pub trait ServiceFactory {
    /// The per-connection service type.
    type Svc: Service;

    /// Called once per accepted connection.
    fn connect(&mut self) -> Self::Svc;

    /// One-line reply (with newline) written best-effort to a connection
    /// refused because [`Config::max_clients`] is reached.
    fn admission_busy(&self) -> Vec<u8>;
}

/// Serving knobs, declared once. The defaults are what `e9patchd` runs
/// with; its flags override them.
#[derive(Debug, Clone)]
pub struct Config {
    /// Longest accepted request line in bytes, newline included (the
    /// [`LineFramer`] cap, in every serving mode). Longer lines are
    /// discarded and answered via [`Service::on_oversized`].
    pub max_line_bytes: usize,
    /// Most live connections; arrivals beyond this are refused with the
    /// factory's BUSY line.
    pub max_clients: usize,
    /// Loop-wide cap on queued (unwritten) reply bytes; above it,
    /// requests are answered with [`Service::on_busy`] instead of being
    /// dispatched.
    pub pending_budget_bytes: usize,
    /// Per-connection cap on queued reply bytes; above it the connection
    /// is shed (it is not reading its replies).
    pub conn_queue_bytes: usize,
    /// Close a connection after this much inactivity (no bytes in, no
    /// bytes out). `None` = never. Sockets only: stdio has no timer.
    pub idle_timeout: Option<Duration>,
    /// During drain, the per-connection inactivity bound: connections
    /// still making progress finish; idle ones are cut after this.
    pub drain_timeout: Duration,
    /// Total connections to accept before draining (`None` = unlimited).
    /// The CI serve-one-job-and-exit mode.
    pub accept_budget: Option<usize>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_line_bytes: 64 << 20,
            max_clients: 1024,
            pending_budget_bytes: 256 << 20,
            conn_queue_bytes: 256 << 20,
            idle_timeout: Some(Duration::from_millis(30_000)),
            drain_timeout: Duration::from_millis(5_000),
            accept_budget: None,
        }
    }
}

/// What the loop did, for tests, stats lines and the fault harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Connections accepted (including ones later shed).
    pub accepted: u64,
    /// Arrivals refused at admission (`max_clients`).
    pub shed_admission: u64,
    /// Connections shed for an over-budget write queue.
    pub shed_queue: u64,
    /// Requests answered with BUSY because the pending budget was spent.
    pub busy_replies: u64,
    /// Connections cut for idleness (including drain-phase cuts).
    pub closed_idle: u64,
    /// Request lines dispatched to services.
    pub dispatched: u64,
    /// Writes of queued replies that moved bytes: about one per read
    /// chunk, however many lines the chunk held.
    pub writes: u64,
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{self, BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixListener;
    use std::os::unix::net::UnixStream as ClientStream;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    /// Toy service: upper-cases each line; "die" asks for shutdown.
    struct Upper {
        shutdown: bool,
        dispatched: Arc<AtomicU64>,
    }

    impl Service for Upper {
        fn on_line(&mut self, line: &[u8], out: &mut Vec<u8>) {
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                return;
            }
            self.dispatched.fetch_add(1, Ordering::SeqCst);
            if line == b"die" {
                self.shutdown = true;
                out.extend_from_slice(b"bye\n");
                return;
            }
            out.extend_from_slice(&line.to_ascii_uppercase());
            out.push(b'\n');
        }

        fn on_oversized(&mut self, _cap: usize) -> Vec<u8> {
            b"TOOBIG\n".to_vec()
        }

        fn on_busy(&mut self, _line: &[u8]) -> Vec<u8> {
            b"BUSY\n".to_vec()
        }

        fn shutdown_requested(&self) -> bool {
            self.shutdown
        }
    }

    struct UpperFactory {
        dispatched: Arc<AtomicU64>,
    }

    impl ServiceFactory for UpperFactory {
        type Svc = Upper;

        fn connect(&mut self) -> Upper {
            Upper {
                shutdown: false,
                dispatched: Arc::clone(&self.dispatched),
            }
        }

        fn admission_busy(&self) -> Vec<u8> {
            b"BUSY\n".to_vec()
        }
    }

    fn temp_sock(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("e9loop-{tag}-{}.sock", std::process::id()))
    }

    fn start(
        tag: &str,
        config: Config,
    ) -> (
        PathBuf,
        Arc<AtomicU64>,
        std::thread::JoinHandle<io::Result<Summary>>,
    ) {
        let path = temp_sock(tag);
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let dispatched = Arc::new(AtomicU64::new(0));
        let factory = UpperFactory {
            dispatched: Arc::clone(&dispatched),
        };
        let handle =
            std::thread::spawn(move || serve(vec![Listener::Unix(listener)], factory, config));
        (path, dispatched, handle)
    }

    #[test]
    fn echo_round_trip_and_pipelining() {
        let (path, dispatched, handle) = start("echo", Config::default());
        let mut c = ClientStream::connect(&path).unwrap();
        // Three pipelined requests in one write; replies arrive in order.
        c.write_all(b"one\ntwo\nthree\ndie\n").unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut lines = Vec::new();
        for _ in 0..4 {
            let mut l = String::new();
            r.read_line(&mut l).unwrap();
            lines.push(l);
        }
        assert_eq!(lines, vec!["ONE\n", "TWO\n", "THREE\n", "bye\n"]);
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.dispatched, 4);
        assert_eq!(dispatched.load(Ordering::SeqCst), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pipelined_replies_share_a_write_per_read() {
        let (path, _, handle) = start("batch", Config::default());
        let mut c = ClientStream::connect(&path).unwrap();
        let mut req = Vec::new();
        for i in 0..1_000 {
            req.extend_from_slice(format!("l{i}\n").as_bytes());
        }
        req.extend_from_slice(b"die\n");
        c.write_all(&req).unwrap();
        let mut r = BufReader::new(c);
        let mut replies = String::new();
        r.read_to_string(&mut replies).unwrap();
        let want: String = (0..1_000).map(|i| format!("L{i}\n")).collect();
        assert_eq!(replies, want + "bye\n");
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.dispatched, 1_001);
        // About one write per 16 KiB read chunk, not one per line.
        assert!(
            summary.writes >= 1 && summary.writes <= 1 + req.len() as u64 / (16 * 1024) + 2,
            "{summary:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unterminated_final_line_is_still_served() {
        let (path, _, handle) = start(
            "eof",
            Config {
                accept_budget: Some(1),
                ..Config::default()
            },
        );
        let mut c = ClientStream::connect(&path).unwrap();
        c.write_all(b"tail-no-newline").unwrap();
        c.shutdown(std::net::Shutdown::Write).unwrap();
        let mut r = BufReader::new(c);
        let mut l = String::new();
        r.read_line(&mut l).unwrap();
        assert_eq!(l, "TAIL-NO-NEWLINE\n");
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_lines_are_drained_and_answered() {
        let (path, dispatched, handle) = start(
            "cap",
            Config {
                max_line_bytes: 16,
                accept_budget: Some(1),
                ..Config::default()
            },
        );
        let mut c = ClientStream::connect(&path).unwrap();
        let big = vec![b'x'; 1024];
        c.write_all(&big).unwrap();
        c.write_all(b"\nok\n").unwrap();
        // An oversized tail that EOF ends instead of a newline is
        // answered too.
        c.write_all(&big).unwrap();
        c.shutdown(std::net::Shutdown::Write).unwrap();
        let mut r = BufReader::new(c);
        let mut replies = String::new();
        r.read_to_string(&mut replies).unwrap();
        assert_eq!(replies, "TOOBIG\nOK\nTOOBIG\n");
        // The oversized lines were never dispatched.
        assert_eq!(dispatched.load(Ordering::SeqCst), 1);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn admission_cap_sheds_with_busy_line() {
        let (path, _, handle) = start(
            "cap2",
            Config {
                max_clients: 1,
                ..Config::default()
            },
        );
        let mut keep = ClientStream::connect(&path).unwrap();
        keep.write_all(b"hello\n").unwrap();
        let mut r = BufReader::new(keep.try_clone().unwrap());
        let mut l = String::new();
        r.read_line(&mut l).unwrap();
        assert_eq!(l, "HELLO\n");
        // Second arrival: one BUSY line, then EOF.
        let over = ClientStream::connect(&path).unwrap();
        let mut r2 = BufReader::new(over);
        let mut l2 = String::new();
        r2.read_line(&mut l2).unwrap();
        assert_eq!(l2, "BUSY\n");
        l2.clear();
        assert_eq!(r2.read_line(&mut l2).unwrap(), 0, "refused conn must close");
        // The healthy connection is still serviceable.
        keep.write_all(b"still\ndie\n").unwrap();
        l.clear();
        r.read_line(&mut l).unwrap();
        assert_eq!(l, "STILL\n");
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.shed_admission, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn never_reading_client_is_shed_while_healthy_conn_survives() {
        let (path, _, handle) = start(
            "shed",
            Config {
                conn_queue_bytes: 256,
                ..Config::default()
            },
        );
        // Hostile: pipelines replies it never reads until its queue
        // blows the cap. The kernel socket buffer absorbs some; the cap
        // is small enough that the reactor-side queue overflows anyway.
        let mut hostile = ClientStream::connect(&path).unwrap();
        let line = vec![b'a'; 128];
        let mut req = line.clone();
        req.push(b'\n');
        let mut shed = false;
        for _ in 0..10_000 {
            if hostile.write_all(&req).is_err() {
                shed = true; // EPIPE: the reactor closed us
                break;
            }
        }
        // Give the loop a moment if the write side never errored (all
        // requests fit in flight) — the shed must still have happened.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !shed && Instant::now() < deadline {
            if hostile.write_all(&req).is_err() {
                shed = true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(shed, "hostile connection was never shed");
        // Healthy client: full service.
        let mut ok = ClientStream::connect(&path).unwrap();
        ok.write_all(b"ping\ndie\n").unwrap();
        let mut r = BufReader::new(ok);
        let mut l = String::new();
        r.read_line(&mut l).unwrap();
        assert_eq!(l, "PING\n");
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.shed_queue >= 1, "{summary:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pending_budget_answers_busy_instead_of_dispatching() {
        let (path, _, handle) = start(
            "budget",
            Config {
                // Tiny loop-wide budget: once one reply is stuck in a
                // queue, further requests get BUSY.
                pending_budget_bytes: 64,
                conn_queue_bytes: 1 << 20,
                ..Config::default()
            },
        );
        // A non-reading client parks >64 queued bytes. Its own queue cap
        // is generous, so it is not shed — its backlog just poisons the
        // loop-wide budget. Socket buffers absorb the first ~200 KiB of
        // replies, so push enough to fill them AND the reactor queue.
        let mut parked = ClientStream::connect(&path).unwrap();
        let mut req = vec![b'b'; 512];
        req.push(b'\n');
        for _ in 0..2_000 {
            if parked.write_all(&req).is_err() {
                break;
            }
        }
        // Poll until a fresh request is answered BUSY (the parked
        // backlog is past the budget once the socket buffers fill).
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut saw_busy = false;
        while Instant::now() < deadline {
            let mut probe = ClientStream::connect(&path).unwrap();
            probe.write_all(b"hello\n").unwrap();
            let mut r = BufReader::new(probe);
            let mut l = String::new();
            r.read_line(&mut l).unwrap();
            if l == "BUSY\n" {
                saw_busy = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(saw_busy, "over-budget load was never answered BUSY");
        drop(parked);
        // Shut down via a fresh connection once the budget recovers.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut c = ClientStream::connect(&path).unwrap();
            c.write_all(b"die\n").unwrap();
            let mut r = BufReader::new(c);
            let mut l = String::new();
            r.read_line(&mut l).unwrap();
            if l == "bye\n" || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.busy_replies >= 1, "{summary:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn idle_connections_are_cut() {
        let (path, _, handle) = start(
            "idle",
            Config {
                idle_timeout: Some(Duration::from_millis(50)),
                accept_budget: Some(1),
                ..Config::default()
            },
        );
        let c = ClientStream::connect(&path).unwrap();
        let mut r = BufReader::new(c);
        let mut l = String::new();
        // The server cuts us without a byte; read_line sees EOF.
        assert_eq!(r.read_line(&mut l).unwrap(), 0);
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.closed_idle, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drain_refuses_late_connections_cleanly() {
        let (path, _, handle) = start("drain", Config::default());
        let mut c = ClientStream::connect(&path).unwrap();
        c.write_all(b"die\n").unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut l = String::new();
        r.read_line(&mut l).unwrap();
        assert_eq!(l, "bye\n");
        drop((c, r));
        handle.join().unwrap().unwrap();
        // The listener is gone: a late connect is refused, not parked.
        let err = ClientStream::connect(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        let _ = std::fs::remove_file(&path);
    }
}
