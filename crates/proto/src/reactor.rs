//! The reactor serving mode: `e9patchd`'s multiplexed socket transport.
//!
//! Glue between the protocol-agnostic `e9loop` event loop and this
//! crate's [`Session`] state machine. The reactor owns sockets, fairness,
//! admission control and drain. Everything else is shared with the stdio
//! loop, so replies are byte-identical between the two serving modes
//! (asserted by the `reactor_daemon` integration tests and verify.sh
//! stage 8):
//!
//! * one [`ServeConfig`], whose `transport` field is the `e9loop::Config`
//!   handed to the loop as is;
//! * one framer, `e9loop::LineFramer`, per connection in both modes;
//! * sessions from [`Session::from_config`];
//! * every complete request line answered by [`reply_line`] (blank-line
//!   skip, panic isolation, one-pass request decode, the result written
//!   with no tree) and every over-long one by [`oversized_line`].
//!
//! ## The BUSY contract
//!
//! Overload never stalls a client; it is answered in-band with a typed
//! [`code::BUSY`] error (`id: null` — the request is refused *before*
//! parsing, deliberately, so a flood of expensive lines cannot buy CPU
//! with its own volume):
//!
//! * a connection arriving past `--max-clients` gets one BUSY line and a
//!   close;
//! * a request arriving while the loop's queued replies exceed
//!   `--max-pending-bytes` gets BUSY instead of a dispatch;
//! * a connection whose own unread replies exceed the per-connection
//!   queue cap is shed outright (it is not reading; nothing can be
//!   delivered to it).

use crate::msg::{code, Response, RpcError};
use crate::server::{oversized_line, reply_line, write_line, ServeConfig, ShedCounters};
use crate::session::Session;
pub use e9loop::{Listener, Service, ServiceFactory, Summary};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The one BUSY line, shared by admission shed and budget shed.
fn busy_line() -> Vec<u8> {
    let msg = "server over capacity; request shed, retry later";
    let mut out = Vec::new();
    write_line(
        &Response::err(None, RpcError::new(code::BUSY, msg)),
        &mut out,
    );
    out
}

/// One connection's service: a [`Session`] answered through the same
/// [`reply_line`] and [`oversized_line`] the stdio loop uses.
pub struct SessionService {
    session: Session,
    shed: Arc<ShedCounters>,
}

impl Service for SessionService {
    fn on_line(&mut self, line: &[u8], out: &mut Vec<u8>) {
        reply_line(&mut self.session, line, out);
    }

    fn on_oversized(&mut self, cap: usize) -> Vec<u8> {
        let mut out = Vec::new();
        oversized_line(cap, &mut out);
        out
    }

    fn on_busy(&mut self, _line: &[u8]) -> Vec<u8> {
        self.shed.busy.fetch_add(1, Ordering::Relaxed);
        busy_line()
    }

    fn shutdown_requested(&self) -> bool {
        self.session.shutdown_requested()
    }
}

/// Creates one [`SessionService`] per accepted connection, wired to the
/// shared [`ServeConfig`] (quotas, cache).
pub struct SessionFactory {
    config: ServeConfig,
}

impl ServiceFactory for SessionFactory {
    type Svc = SessionService;

    fn connect(&mut self) -> SessionService {
        SessionService {
            session: Session::from_config(&self.config),
            shed: Arc::clone(&self.config.shed),
        }
    }

    fn admission_busy(&self) -> Vec<u8> {
        self.config.shed.admission.fetch_add(1, Ordering::Relaxed);
        busy_line()
    }
}

/// Serve the protocol over `listeners` on one reactor thread until a
/// client sends `shutdown` (or `config.transport.accept_budget` is spent)
/// and the graceful drain completes. Every loop knob comes from
/// `config.transport`.
///
/// # Errors
///
/// Listener registration and epoll failures. Per-connection I/O errors
/// only end that connection.
pub fn serve_reactor(listeners: Vec<Listener>, config: &ServeConfig) -> io::Result<Summary> {
    let factory = SessionFactory {
        config: config.clone(),
    };
    e9loop::serve(listeners, factory, config.transport.clone())
}
