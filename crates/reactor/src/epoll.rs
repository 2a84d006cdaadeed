//! The Linux event loop: epoll readiness over non-blocking sockets, one
//! [`LineFramer`] per connection.

use crate::{sys, Config, Frame, LineFramer, Service, ServiceFactory, Summary};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixListener;
use std::time::{Duration, Instant};

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

    fn accept(&self) -> io::Result<Box<dyn Stream>> {
        match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok(Box::new(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                // Request/response lines are latency-bound, not
                // bandwidth-bound; never wait for a full segment.
                let _ = s.set_nodelay(true);
                Ok(Box::new(s))
            }
        }
    }
}

/// A connected non-blocking byte stream: a Unix or TCP socket.
trait Stream: Read + Write + AsRawFd {}

impl<T: Read + Write + AsRawFd> Stream for T {}

struct Conn<S> {
    stream: Box<dyn Stream>,
    svc: S,
    framer: LineFramer,
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

    /// The slot `token` names, if its generation is still current.
    fn slot(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xFFFF_FFFF) as usize;
        (self.gens.get(idx).copied() == Some((token >> 32) as u32)).then_some(idx)
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn<S>> {
        let idx = self.slot(token)?;
        self.slots[idx].as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<Conn<S>> {
        let idx = self.slot(token)?;
        let conn = self.slots[idx].take()?;
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

/// A service's answer to one frame, appended to `out`; returns whether
/// the service asked for shutdown. Over the pending budget a complete
/// line gets [`Service::on_busy`] instead of a dispatch; an oversized one
/// is answered either way.
fn answer<S: Service>(
    svc: &mut S,
    frame: Frame<'_>,
    cap: usize,
    over_budget: bool,
    summary: &mut Summary,
    out: &mut Vec<u8>,
) -> bool {
    match frame {
        Frame::Oversized => out.extend_from_slice(&svc.on_oversized(cap)),
        Frame::Line(line) if over_budget => {
            // Load shed: a typed error instead of a stall. The request
            // is consumed but never reaches the service.
            summary.busy_replies += 1;
            out.extend_from_slice(&svc.on_busy(line));
        }
        Frame::Line(line) => {
            summary.dispatched += 1;
            svc.on_line(line, out);
        }
    }
    svc.shutdown_requested()
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

const CONN_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;

impl<F: ServiceFactory> Reactor<F> {
    fn new(listeners: Vec<Listener>, factory: F, config: Config) -> io::Result<Reactor<F>> {
        let poller = sys::Poller::new()?;
        for (i, l) in listeners.iter().enumerate() {
            l.set_nonblocking()?;
            poller.add(
                l.raw_fd(),
                LISTENER_FLAG | i as u64,
                sys::EPOLLIN | sys::EPOLLET,
            )?;
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
            for ev in &events {
                if ev.token & LISTENER_FLAG != 0 {
                    if !self.draining {
                        self.accept_ready((ev.token & !LISTENER_FLAG) as usize);
                    }
                } else {
                    self.conn_ready(ev.token, ev);
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
                            framer: LineFramer::new(self.config.max_line_bytes),
                            wbuf: Vec::new(),
                            wpos: 0,
                            last_activity: Instant::now(),
                            peer_eof: false,
                            closing: false,
                        };
                        let fd = conn.stream.as_raw_fd();
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
                    // One write for every reply this chunk produced.
                    if !self.ingest(token, Some(&tmp[..n])) || !self.flush(token) {
                        return; // connection was shed or closed
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
        if self.slab.get_mut(token).is_some_and(|c| c.peer_eof) && !self.ingest(token, None) {
            return;
        }
        self.handle_writable(token);
    }

    /// Feed freshly read bytes through the connection's framer, appending
    /// the answer to every frame they complete to the write queue; the
    /// caller flushes it. `None` is end of stream: it answers an
    /// unterminated tail, if any, and starts flush-and-close. Returns
    /// `false` if the connection went away.
    fn ingest(&mut self, token: u64, input: Option<&[u8]>) -> bool {
        let mut rest = input.unwrap_or_default();
        loop {
            let cap = self.config.max_line_bytes;
            let over_budget = self.over_pending_budget(token);
            let Some(conn) = self.slab.get_mut(token) else {
                return false;
            };
            if conn.closing {
                return true; // shutdown handled: drop pipelined input
            }
            let frame = match input {
                Some(_) if rest.is_empty() => return true,
                Some(_) => {
                    let (used, frame) = conn.framer.push(rest);
                    rest = &rest[used..];
                    frame
                }
                None => {
                    conn.closing = true;
                    conn.framer.finish()
                }
            };
            let Some(frame) = frame else {
                continue;
            };
            let queued = conn.wbuf.len();
            let shutdown = answer(
                &mut conn.svc,
                frame,
                cap,
                over_budget,
                &mut self.summary,
                &mut conn.wbuf,
            );
            self.total_pending += conn.wbuf.len() - queued;
            let queue_cap = self.config.conn_queue_bytes;
            if conn.pending() > queue_cap {
                // Only bytes the kernel refuses count against the cap.
                if !self.flush(token) {
                    return false;
                }
                if self
                    .slab
                    .get_mut(token)
                    .is_some_and(|c| c.pending() > queue_cap)
                {
                    // This client is not reading its replies; shedding it
                    // is the only bounded option left.
                    self.summary.shed_queue += 1;
                    self.close(token);
                    return false;
                }
            }
            if shutdown {
                if let Some(conn) = self.slab.get_mut(token) {
                    conn.closing = true; // flush replies, then close
                }
                self.enter_drain();
            }
        }
    }

    /// Whether queued reply bytes exceed the loop-wide budget once this
    /// connection's unflushed batch has been offered to the kernel: the
    /// budget counts bytes the kernel refused, not replies not yet sent.
    fn over_pending_budget(&mut self, token: u64) -> bool {
        let budget = self.config.pending_budget_bytes;
        if self.total_pending <= budget {
            return false;
        }
        self.flush(token);
        self.total_pending > budget
    }

    /// Write queued replies until the queue is empty or the kernel
    /// refuses more. Returns `false` if the connection was closed on a
    /// write error.
    fn flush(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.slab.get_mut(token) else {
                return false;
            };
            if conn.pending() == 0 {
                conn.wbuf.clear();
                conn.wpos = 0;
                return true;
            }
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.close(token);
                    return false;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_activity = Instant::now();
                    self.total_pending -= n;
                    self.summary.writes += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return false;
                }
            }
        }
    }

    /// Flush the queue; once it is empty, a closing connection closes.
    fn handle_writable(&mut self, token: u64) {
        if !self.flush(token) {
            return;
        }
        if self
            .slab
            .get_mut(token)
            .is_some_and(|c| c.closing && c.pending() == 0)
        {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.slab.remove(token) {
            self.total_pending -= conn.pending();
            self.poller.del(conn.stream.as_raw_fd());
            // Drop closes the socket.
        }
    }
}
