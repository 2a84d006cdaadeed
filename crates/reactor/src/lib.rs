//! # e9loop — a hermetic epoll reactor
//!
//! The multiplexed serving core under `e9patchd`: one thread, one epoll
//! instance, non-blocking accept/read/write with edge-triggered
//! readiness, and a per-connection state machine
//!
//! ```text
//! line-buffered read → dispatch → write-queue drain
//! ```
//!
//! The crate is deliberately *generic* and *dependency-free*: it knows
//! nothing about the wire protocol. A [`Service`] turns complete request
//! lines into response bytes (in `e9patchd` that is the existing
//! `e9proto::Session`, unchanged); the reactor owns framing, fairness,
//! admission control and shutdown. Keeping the protocol out of this
//! crate is what lets the fault-injection harness drive the loop with a
//! hostile service-free client while the daemon reuses the exact
//! `dispatch_line` choke point its stdio sessions use.
//!
//! ## Why a reactor at all
//!
//! The thread-per-connection server caps the daemon at a handful of
//! clients: every stalled reader pins a thread, and a thousand idle
//! connections cost a thousand stacks. Here a connection is ~one slab
//! slot (a socket, two byte buffers, a `Service`), so thousands of
//! concurrent sessions fit in one loop, and *requests pipeline*: every
//! complete line already buffered is dispatched before the loop returns
//! to `epoll_wait`.
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
//! ## Graceful drain
//!
//! When a service requests shutdown (or the accept budget is spent) the
//! reactor *drains*: listeners are closed immediately — late connections
//! get a clean refusal, not a hang — while live connections keep being
//! served until they finish, bounded per connection by
//! [`Config::drain_timeout`] of inactivity. In-flight work completes and
//! its replies are flushed before the loop exits.

#![cfg(target_os = "linux")]

pub mod sys;

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

/// Turns complete request lines into response bytes. One instance per
/// connection, created by the [`ServiceFactory`] at accept time.
pub trait Service {
    /// Handle one complete line (newline stripped). `None` means no
    /// response (blank lines). The returned bytes are queued verbatim —
    /// include the trailing newline.
    fn on_line(&mut self, line: &[u8]) -> Option<Vec<u8>>;

    /// Response for a line that exceeded `max_line_bytes` (the line was
    /// drained off the stream but never buffered).
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

/// Reactor tuning knobs. Defaults match `e9patchd`'s hardening posture
/// (64 MiB lines, 30 s idle cut) plus serving-scale admission bounds.
#[derive(Debug, Clone)]
pub struct Config {
    /// Longest accepted request line in bytes, newline included. Longer
    /// lines are drained and answered via [`Service::on_oversized`].
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
    /// bytes out). `None` = never.
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
            conn_queue_bytes: 64 << 20,
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
}

/// A bound, not-yet-registered accept source.
#[derive(Debug)]
pub enum Listener {
    /// A Unix-domain listener (the daemon's default transport).
    Unix(UnixListener),
    /// A TCP listener (`--listen-tcp`).
    Tcp(TcpListener),
}

impl Listener {
    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok(Stream::Unix(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                // Request/response lines are latency-bound, not
                // bandwidth-bound; never wait for a full segment.
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }
}

/// A connected non-blocking byte stream.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

/// Reading-side state of the line framer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadState {
    /// Accumulating a line into `rbuf`.
    Line,
    /// The current line blew the cap; discarding until its newline.
    Oversized,
}

struct Conn<S> {
    stream: Stream,
    svc: S,
    /// Bytes of the current (incomplete) request line.
    rbuf: Vec<u8>,
    read_state: ReadState,
    /// Queued response bytes not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written.
    wpos: usize,
    /// Last moment bytes moved in either direction.
    last_activity: Instant,
    /// EOF (or RDHUP) seen: no more requests will arrive.
    peer_eof: bool,
    /// Flush the queue, then close (EOF path, shutdown path).
    closing: bool,
}

impl<S> Conn<S> {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Token layout: listeners get the top bit + their index; connections
/// get `generation << 32 | slot`, so a slot reused within one event
/// batch cannot receive a stale event.
const LISTENER_FLAG: u64 = 1 << 63;

struct Slab<S> {
    slots: Vec<Option<Conn<S>>>,
    gens: Vec<u32>,
    free: VecDeque<usize>,
    live: usize,
}

impl<S> Slab<S> {
    fn new() -> Slab<S> {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: VecDeque::new(),
            live: 0,
        }
    }

    fn insert(&mut self, conn: Conn<S>) -> u64 {
        self.live += 1;
        let idx = match self.free.pop_front() {
            Some(i) => {
                self.slots[i] = Some(conn);
                i
            }
            None => {
                self.slots.push(Some(conn));
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        (u64::from(self.gens[idx]) << 32) | idx as u64
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn<S>> {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        if self.gens.get(idx).copied() != Some(gen) {
            return None;
        }
        self.slots.get_mut(idx).and_then(Option::as_mut)
    }

    fn remove(&mut self, token: u64) -> Option<Conn<S>> {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        if self.gens.get(idx).copied() != Some(gen) {
            return None;
        }
        let conn = self.slots.get_mut(idx).and_then(Option::take)?;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push_back(idx);
        self.live -= 1;
        Some(conn)
    }

    /// Tokens of all live connections (for timer sweeps).
    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| (u64::from(self.gens[i]) << 32) | i as u64)
            .collect()
    }
}

/// Run the event loop over `listeners` until a service requests
/// shutdown (or the accept budget is spent) and the drain completes.
///
/// # Errors
///
/// Fatal reactor failures only: epoll creation/registration and
/// listener setup. Per-connection I/O errors close that connection.
pub fn serve<F: ServiceFactory>(
    listeners: Vec<Listener>,
    factory: F,
    config: Config,
) -> io::Result<Summary> {
    Reactor::new(listeners, factory, config)?.run()
}

struct Reactor<F: ServiceFactory> {
    poller: sys::Poller,
    listeners: Vec<Listener>,
    factory: F,
    config: Config,
    slab: Slab<F::Svc>,
    /// Sum of all connections' pending reply bytes.
    total_pending: usize,
    draining: bool,
    summary: Summary,
}

const CONN_INTEREST: u32 =
    sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;

impl<F: ServiceFactory> Reactor<F> {
    fn new(listeners: Vec<Listener>, factory: F, config: Config) -> io::Result<Reactor<F>> {
        let poller = sys::Poller::new()?;
        for (i, l) in listeners.iter().enumerate() {
            l.set_nonblocking()?;
            poller.add(l.raw_fd(), LISTENER_FLAG | i as u64, sys::EPOLLIN | sys::EPOLLET)?;
        }
        Ok(Reactor {
            poller,
            listeners,
            factory,
            config,
            slab: Slab::new(),
            total_pending: 0,
            draining: false,
            summary: Summary::default(),
        })
    }

    fn run(&mut self) -> io::Result<Summary> {
        let mut events = Vec::new();
        if self.config.accept_budget == Some(0) {
            self.enter_drain();
        }
        loop {
            let timeout = self.next_timeout();
            self.poller.wait(&mut events, timeout)?;
            for ev in events.clone() {
                if ev.token & LISTENER_FLAG != 0 {
                    if !self.draining {
                        self.accept_ready((ev.token & !LISTENER_FLAG) as usize);
                    }
                } else {
                    self.conn_ready(ev.token, &ev);
                }
            }
            self.sweep_timers();
            if self.draining && self.slab.live == 0 {
                return Ok(self.summary);
            }
        }
    }

    /// The next `epoll_wait` timeout: the soonest idle/drain deadline.
    fn next_timeout(&self) -> Option<Duration> {
        let limit = self.activity_limit()?;
        let now = Instant::now();
        let mut soonest: Option<Duration> = None;
        for slot in self.slab.slots.iter().flatten() {
            let deadline = slot.last_activity + limit;
            let left = deadline.saturating_duration_since(now);
            soonest = Some(match soonest {
                Some(cur) => cur.min(left),
                None => left,
            });
        }
        soonest
    }

    /// The inactivity bound currently in force.
    fn activity_limit(&self) -> Option<Duration> {
        if self.draining {
            Some(match self.config.idle_timeout {
                Some(idle) => idle.min(self.config.drain_timeout),
                None => self.config.drain_timeout,
            })
        } else {
            self.config.idle_timeout
        }
    }

    fn sweep_timers(&mut self) {
        let Some(limit) = self.activity_limit() else {
            return;
        };
        let now = Instant::now();
        for token in self.slab.tokens() {
            let expired = self
                .slab
                .get_mut(token)
                .is_some_and(|c| now.duration_since(c.last_activity) >= limit);
            if expired {
                self.summary.closed_idle += 1;
                self.close(token);
            }
        }
    }

    /// Stop accepting: deregister and drop every listener so late
    /// connections are refused by the kernel, then let live connections
    /// finish under the drain inactivity bound.
    fn enter_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        for l in self.listeners.drain(..) {
            self.poller.del(l.raw_fd());
            // Dropping the listener closes the fd; pending backlog
            // connections are refused, not silently parked.
            drop(l);
        }
    }

    fn accept_ready(&mut self, idx: usize) {
        loop {
            if self.draining || idx >= self.listeners.len() {
                return;
            }
            let accepted = self.listeners[idx].accept();
            match accepted {
                Ok(mut stream) => {
                    self.summary.accepted += 1;
                    let budget_spent = self
                        .config
                        .accept_budget
                        .is_some_and(|max| self.summary.accepted >= max as u64);
                    if self.slab.live >= self.config.max_clients {
                        // Admission shed: one BUSY line, best effort,
                        // then the connection is gone. Never blocks.
                        self.summary.shed_admission += 1;
                        let _ = stream.write(&self.factory.admission_busy());
                    } else {
                        let svc = self.factory.connect();
                        let conn = Conn {
                            stream,
                            svc,
                            rbuf: Vec::new(),
                            read_state: ReadState::Line,
                            wbuf: Vec::new(),
                            wpos: 0,
                            last_activity: Instant::now(),
                            peer_eof: false,
                            closing: false,
                        };
                        let fd = conn.stream.raw_fd();
                        let token = self.slab.insert(conn);
                        if self.poller.add(fd, token, CONN_INTEREST).is_err() {
                            self.slab.remove(token);
                        } else {
                            // Edge-triggered: bytes that arrived before
                            // registration must be pulled now.
                            self.handle_readable(token);
                        }
                    }
                    if budget_spent {
                        self.enter_drain();
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Aborted handshakes and transient per-connection accept
                // errors must not kill the loop.
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: &sys::Event) {
        if self.slab.get_mut(token).is_none() {
            return; // stale event for a closed slot
        }
        if ev.error {
            self.close(token);
            return;
        }
        // RDHUP still implies buffered bytes may be readable; always
        // drain reads before acting on the half-close.
        if ev.readable || ev.read_closed {
            self.handle_readable(token);
        }
        if self.slab.get_mut(token).is_some() && ev.writable {
            self.handle_writable(token);
        }
    }

    fn handle_readable(&mut self, token: u64) {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            if conn.closing {
                break;
            }
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    if !self.ingest(token, &tmp[..n].to_vec()) {
                        return; // connection was shed mid-ingest
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        // EOF: a trailing unterminated line is still one request (the
        // stdio reader behaves identically), then flush-and-close.
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        if conn.peer_eof && !conn.closing {
            if conn.read_state == ReadState::Line && !conn.rbuf.is_empty() {
                let line = std::mem::take(&mut conn.rbuf);
                if !self.dispatch(token, &line) {
                    return;
                }
            }
            if let Some(conn) = self.slab.get_mut(token) {
                conn.closing = true;
            }
        }
        self.handle_writable(token);
    }

    /// Feed freshly-read bytes through the line framer, dispatching
    /// every completed line. Returns `false` if the connection went away.
    fn ingest(&mut self, token: u64, chunk: &[u8]) -> bool {
        let mut rest: &[u8] = chunk;
        while !rest.is_empty() {
            let Some(conn) = self.slab.get_mut(token) else {
                return false;
            };
            if conn.closing {
                return true; // shutdown handled: drop pipelined input
            }
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let (head, tail) = rest.split_at(pos + 1);
                    rest = tail;
                    match conn.read_state {
                        ReadState::Oversized => {
                            // The over-cap line just ended; answer it.
                            conn.read_state = ReadState::Line;
                            let cap = self.config.max_line_bytes;
                            let resp = {
                                let conn = self.slab.get_mut(token).expect("checked");
                                conn.svc.on_oversized(cap)
                            };
                            if !self.enqueue(token, resp) {
                                return false;
                            }
                        }
                        ReadState::Line => {
                            // `head` includes the newline; the cap counts
                            // it, the dispatched line excludes it.
                            if conn.rbuf.len().saturating_add(head.len())
                                > self.config.max_line_bytes
                            {
                                conn.rbuf.clear();
                                let cap = self.config.max_line_bytes;
                                let resp = {
                                    let conn = self.slab.get_mut(token).expect("checked");
                                    conn.svc.on_oversized(cap)
                                };
                                if !self.enqueue(token, resp) {
                                    return false;
                                }
                            } else {
                                let mut line = std::mem::take(&mut conn.rbuf);
                                line.extend_from_slice(&head[..head.len() - 1]);
                                if !self.dispatch(token, &line) {
                                    return false;
                                }
                            }
                        }
                    }
                }
                None => {
                    match conn.read_state {
                        ReadState::Oversized => {} // keep discarding
                        ReadState::Line => {
                            if conn.rbuf.len().saturating_add(rest.len())
                                > self.config.max_line_bytes
                            {
                                conn.rbuf.clear();
                                conn.read_state = ReadState::Oversized;
                            } else {
                                conn.rbuf.extend_from_slice(rest);
                            }
                        }
                    }
                    rest = &[];
                }
            }
        }
        true
    }

    /// Dispatch one complete line. Returns `false` if the connection was
    /// shed in the process.
    fn dispatch(&mut self, token: u64, line: &[u8]) -> bool {
        let over_budget = self.total_pending > self.config.pending_budget_bytes;
        let Some(conn) = self.slab.get_mut(token) else {
            return false;
        };
        let resp = if over_budget {
            // Load shed: a typed error instead of a stall. The request
            // is consumed but never reaches the service.
            self.summary.busy_replies += 1;
            Some(conn.svc.on_busy(line))
        } else {
            self.summary.dispatched += 1;
            conn.svc.on_line(line)
        };
        let shutdown = conn.svc.shutdown_requested();
        if let Some(resp) = resp {
            if !self.enqueue(token, resp) {
                return false;
            }
        }
        if shutdown {
            if let Some(conn) = self.slab.get_mut(token) {
                conn.closing = true; // flush replies, then close
            }
            self.enter_drain();
        }
        true
    }

    /// Queue response bytes and try to push them out. Returns `false` if
    /// the connection was shed (queue over budget) or closed on error.
    fn enqueue(&mut self, token: u64, resp: Vec<u8>) -> bool {
        let Some(conn) = self.slab.get_mut(token) else {
            return false;
        };
        if resp.is_empty() {
            return true;
        }
        // Compact the already-written prefix before growing the queue.
        if conn.wpos > 0 && conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        conn.wbuf.extend_from_slice(&resp);
        self.total_pending += resp.len();
        if self.slab.get_mut(token).expect("checked").pending() > self.config.conn_queue_bytes {
            // This client is not reading its replies; shedding it is the
            // only bounded option left.
            self.summary.shed_queue += 1;
            self.close(token);
            return false;
        }
        self.handle_writable(token);
        self.slab.get_mut(token).is_some()
    }

    fn handle_writable(&mut self, token: u64) {
        loop {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            if conn.pending() == 0 {
                break;
            }
            let wpos = conn.wpos;
            let res = {
                let buf = conn.wbuf[wpos..].to_vec();
                conn.stream.write(&buf)
            };
            match res {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    let conn = self.slab.get_mut(token).expect("checked");
                    conn.wpos += n;
                    conn.last_activity = Instant::now();
                    self.total_pending -= n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        if conn.pending() == 0 {
            conn.wbuf.clear();
            conn.wpos = 0;
            if conn.closing {
                self.close(token);
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.slab.remove(token) {
            self.total_pending -= conn.pending();
            self.poller.del(conn.stream.raw_fd());
            // Drop closes the socket.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream as ClientStream;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Toy service: upper-cases each line; "die" asks for shutdown.
    struct Upper {
        shutdown: bool,
        dispatched: Arc<AtomicU64>,
    }

    impl Service for Upper {
        fn on_line(&mut self, line: &[u8]) -> Option<Vec<u8>> {
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                return None;
            }
            self.dispatched.fetch_add(1, Ordering::SeqCst);
            if line == b"die" {
                self.shutdown = true;
                return Some(b"bye\n".to_vec());
            }
            let mut out: Vec<u8> = line.to_ascii_uppercase();
            out.push(b'\n');
            Some(out)
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
    ) -> (PathBuf, Arc<AtomicU64>, std::thread::JoinHandle<io::Result<Summary>>) {
        let path = temp_sock(tag);
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let dispatched = Arc::new(AtomicU64::new(0));
        let factory = UpperFactory {
            dispatched: Arc::clone(&dispatched),
        };
        let handle = std::thread::spawn(move || {
            serve(vec![Listener::Unix(listener)], factory, config)
        });
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
        c.shutdown(std::net::Shutdown::Write).unwrap();
        let mut r = BufReader::new(c);
        let mut l = String::new();
        r.read_line(&mut l).unwrap();
        assert_eq!(l, "TOOBIG\n");
        l.clear();
        r.read_line(&mut l).unwrap();
        assert_eq!(l, "OK\n");
        // The oversized line was never dispatched.
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
