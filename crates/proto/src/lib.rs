//! # e9proto — the streaming patch-command protocol and backend daemon
//!
//! The original E9Patch is two decoupled tools (paper §2, §6): an
//! **`e9tool` frontend** that disassembles and decides *what* to patch, and
//! an **`e9patch` backend** that owns the control-flow-agnostic rewriting
//! and decides *how*. They communicate over a stream of JSON-RPC patch
//! commands, which is what lets arbitrary frontends — different
//! disassemblers, different languages — drive the same rewriter.
//!
//! This crate reproduces that interface for the Rust workspace:
//!
//! * [`json`] — a hand-rolled, hermetic JSON parser and canonical
//!   serializer (u64-exact integers, depth-bounded, panic-free);
//! * [`msg`] — the typed command set (`version`, `binary`, `option`,
//!   `reserve`, `instruction`, `patch`, `hook`, `emit`, `cache`,
//!   `health`, `shutdown`), request and response envelopes, and error
//!   codes. Request lines and every reply are written directly and read
//!   in one pass, with no JSON tree: each typed reply (`emit`, `hook`,
//!   `cache stats`, `health`) has one writer and is read into its type
//!   by one reader. The scanner's cost follows the bytes it reads
//!   (strings eight bytes at a time, plain integers straight into a
//!   `u64`);
//! * [`session`] — the per-connection state machine that buffers commands
//!   and feeds the in-process [`e9patch::Rewriter`] on `emit`, preserving
//!   the paper's S1 reverse-order batch semantics;
//! * [`server`] — the serve loop over one byte stream (stdio sessions),
//!   [`server::ServeConfig`] (the one set of serving knobs, both modes)
//!   and [`server::reply_line`], the one request choke point
//!   ([`server::reference_reply`] answers as the protocol is specified,
//!   through JSON trees, with the same bytes);
//! * [`reactor`] — the socket serving core (Linux): a single-threaded
//!   epoll event loop (`e9loop`) multiplexing every connection, with
//!   admission control and graceful drain; it frames lines with the
//!   same `e9loop::LineFramer` as stdio sessions, and its replies are
//!   byte-identical to theirs;
//! * [`client`] — the frontend side, used by `e9tool patch --backend`;
//!   it streams a job's requests through one bounded in-flight window
//!   ([`client::WINDOW_BYTES`]) and matches replies to ids in order.
//!
//! The `e9patchd` binary wraps [`server`] and [`reactor`] as a standalone
//! daemon.
//!
//! ## Wire format
//!
//! One JSON object per `\n`-terminated line; requests carry
//! `{"jsonrpc","id","method","params"}`, responses echo the id with either
//! `result` or `error`. Binary payloads are lowercase hex strings. The
//! serializer is canonical (no whitespace, insertion-ordered keys), so a
//! session transcript — and therefore the emitted binary — is a pure
//! function of the commands sent: the determinism gate extends across the
//! process boundary.

pub mod cachekey;
pub mod client;
pub mod json;
pub mod msg;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod session;

pub use client::{ClientError, ProtoClient};
pub use json::{Json, JsonError};
pub use msg::{
    hex_decode, hex_encode, CacheAction, CacheDisposition, CacheStatsReply, Command, EmitReply,
    HookReply, Request, Response, RpcError, TypedReply, TypedResponse, PROTOCOL_VERSION,
};
pub use session::Session;
