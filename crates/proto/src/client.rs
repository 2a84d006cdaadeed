//! Frontend-side protocol client.
//!
//! A [`ProtoClient`] owns one request/response byte stream to a patch
//! backend and exposes the command set as typed calls. Four transports:
//!
//! * [`ProtoClient::spawn`] — launch an `e9patchd` child and talk over its
//!   stdio (the `e9tool patch --backend stdio` path);
//! * [`ProtoClient::connect_unix`] — connect to a daemon's Unix socket;
//! * [`ProtoClient::connect_tcp`] — connect to a daemon's TCP listener
//!   (the `e9tool patch --backend tcp:addr:port` path);
//! * [`ProtoClient::in_process`] — a loopback server thread over a socket
//!   pair. Full wire fidelity (every byte crosses the serializer, parser
//!   and session state machine) without process management; used by tests
//!   and benchmarks.
//!
//! Requests stream through [`ProtoClient::stream`]: they are batched into
//! one write per window of at most [`WINDOW_BYTES`] in flight, and
//! replies are read in FIFO order, each matched to its request id. A
//! backend buffers patches until `emit` (paper §6), so when a request
//! travels cannot change the output; the wire transcript is the same as
//! one call at a time. [`ProtoClient::call`] sends one request and reads
//! its reply through the same write and read.
//!
//! Request lines are written straight into the window's batch
//! ([`Request::encode_into`]). Replies are read as bytes, trimmed of
//! ASCII whitespace as the server trims requests, and decoded in one pass
//! ([`Response::decode_line`]), so no JSON tree is built for a request,
//! nor for an empty `{}` result. The typed calls (`emit`, `hook`,
//! `cache_stats`, `cache_clear`, `health`) read their result straight
//! into its reply type ([`TypedReply::decode_line`]), with no tree.

use crate::json;
use crate::msg::{
    CacheAction, CacheClearReply, CacheStatsReply, Command, EmitReply, HealthReply, HookReply,
    Request, Response, RpcError, TypedReply, TypedResponse, PROTOCOL_VERSION,
};
use e9failpt::retry::{retry_interrupted, with_backoff, Backoff, EINTR_BUDGET};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::PathBuf;

/// Request bytes a [`ProtoClient`] keeps in flight: sent, reply not yet
/// read. It stays below the 64 KiB capacity of a Linux pipe, so the
/// requests a server has not read yet always fit in its input pipe: the
/// client's write can never block against a server that is itself
/// blocked writing replies, and the stdio transport cannot deadlock.
pub const WINDOW_BYTES: usize = 32 * 1024;

/// A client-side protocol failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport I/O failed.
    Io(io::Error),
    /// The server's bytes did not parse as protocol responses.
    Protocol(String),
    /// The server answered with an in-band error.
    Rpc(RpcError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "backend i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "backend protocol: {m}"),
            ClientError::Rpc(e) => write!(f, "backend: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RpcError> for ClientError {
    fn from(e: RpcError) -> Self {
        ClientError::Rpc(e)
    }
}

/// What a client is connected to (used for teardown).
enum Transport {
    /// A spawned `e9patchd` child process.
    Child(std::process::Child),
    /// A connected stream (socket) or loopback pair.
    Stream,
}

/// A connection to a patch backend.
pub struct ProtoClient {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    transport: Transport,
    next_id: u64,
    /// The reply line being read, reused from reply to reply.
    line: Vec<u8>,
}

impl ProtoClient {
    /// Spawn `daemon` (an `e9patchd` binary) and connect over its stdio.
    ///
    /// # Errors
    ///
    /// Spawn failures.
    pub fn spawn(daemon: &std::path::Path) -> Result<ProtoClient, ClientError> {
        let mut child = std::process::Command::new(daemon)
            .arg("--stdio")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| {
                ClientError::Protocol(format!("cannot spawn {}: {e}", daemon.display()))
            })?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(ProtoClient {
            reader: BufReader::new(Box::new(stdout)),
            writer: Box::new(stdin),
            transport: Transport::Child(child),
            next_id: 0,
            line: Vec::new(),
        })
    }

    /// Spawn the default daemon: `$E9PATCHD` if set, else an `e9patchd`
    /// binary next to the current executable, else `e9patchd` on `PATH`.
    ///
    /// # Errors
    ///
    /// Spawn failures.
    pub fn spawn_default() -> Result<ProtoClient, ClientError> {
        ProtoClient::spawn(&default_daemon_path())
    }

    /// Connect to a daemon listening on a Unix socket.
    ///
    /// # Errors
    ///
    /// Connection failures.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> Result<ProtoClient, ClientError> {
        e9failpt::fail_io("proto.client.connect")?;
        ProtoClient::over(std::os::unix::net::UnixStream::connect(path)?)
    }

    /// A client over a connected Unix stream.
    #[cfg(unix)]
    fn over(stream: std::os::unix::net::UnixStream) -> Result<ProtoClient, ClientError> {
        let writer = stream.try_clone()?;
        Ok(ProtoClient {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
            transport: Transport::Stream,
            next_id: 0,
            line: Vec::new(),
        })
    }

    /// Connect to a daemon's Unix socket, retrying on the shared
    /// [`Backoff::standard`] schedule while the daemon is still starting
    /// up (socket file absent or not yet listening): roughly 20 ms,
    /// 40 ms, 80 ms, ... between attempts, capped at 1 s per wait and
    /// `attempts` tries overall, so a daemon that never comes up fails
    /// the connect in bounded time instead of hanging the frontend.
    ///
    /// # Errors
    ///
    /// The final attempt's connection failure.
    #[cfg(unix)]
    pub fn connect_unix_retry(
        path: &std::path::Path,
        attempts: u32,
    ) -> Result<ProtoClient, ClientError> {
        with_backoff(Backoff::standard(attempts as usize), || {
            ProtoClient::connect_unix(path)
        })
    }

    /// Connect to a daemon listening on TCP (`e9patchd --listen-tcp`).
    ///
    /// # Errors
    ///
    /// Address resolution or connection failures.
    pub fn connect_tcp(addr: &str) -> Result<ProtoClient, ClientError> {
        e9failpt::fail_io("proto.client.connect")?;
        let stream = std::net::TcpStream::connect(addr)?;
        // One request line, one reply line: never wait for a full segment.
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(ProtoClient {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
            transport: Transport::Stream,
            next_id: 0,
            line: Vec::new(),
        })
    }

    /// Connect to a daemon's TCP listener on the same
    /// [`Backoff::standard`] schedule as
    /// [`ProtoClient::connect_unix_retry`].
    ///
    /// # Errors
    ///
    /// The final attempt's connection failure.
    pub fn connect_tcp_retry(addr: &str, attempts: u32) -> Result<ProtoClient, ClientError> {
        with_backoff(Backoff::standard(attempts as usize), || {
            ProtoClient::connect_tcp(addr)
        })
    }

    /// A loopback backend: a server thread on the far end of a socket
    /// pair. The thread exits when the client drops (EOF on its stream).
    ///
    /// # Errors
    ///
    /// Socket-pair creation failures.
    #[cfg(unix)]
    pub fn in_process() -> Result<ProtoClient, ClientError> {
        ProtoClient::loopback(crate::server::ServeConfig::default())
    }

    /// [`ProtoClient::in_process`] with the server thread serving under
    /// `config`.
    #[cfg(unix)]
    fn loopback(config: crate::server::ServeConfig) -> Result<ProtoClient, ClientError> {
        let (ours, theirs) = std::os::unix::net::UnixStream::pair()?;
        std::thread::spawn(move || {
            let mut writer = match theirs.try_clone() {
                Ok(w) => w,
                Err(_) => return,
            };
            let mut reader = BufReader::new(theirs);
            let _ = crate::server::serve_connection_with(&mut reader, &mut writer, &config);
        });
        ProtoClient::over(ours)
    }

    /// One request/response round trip: as [`ProtoClient::stream`] with
    /// one command.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::stream`].
    pub fn call(&mut self, cmd: Command) -> Result<json::Json, ClientError> {
        self.call_with(cmd, decode_reply)
    }

    /// One round trip whose reply line is read by `decode`: a typed
    /// reply's [`TypedReply::decode_line`], or [`decode_reply`].
    fn call_with<T>(
        &mut self,
        cmd: Command,
        decode: impl FnOnce(&[u8]) -> Result<TypedResponse<T>, String>,
    ) -> Result<T, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let mut line = Vec::new();
        Request { id, cmd }.encode_into(&mut line);
        line.push(b'\n');
        self.send(&line, [id])?;
        self.read_reply(id, decode)
    }

    /// Send `cmds` in order through the in-flight window and read every
    /// reply; returns the last reply's result (`null` for no commands).
    ///
    /// Requests are batched and go out in one write when the next one
    /// would push the request bytes in flight (sent, reply unread) past
    /// [`WINDOW_BYTES`]. Replies are then read in FIFO order, each matched
    /// to its request's id, until half the window is free again, or all
    /// of it when the next request needs more: a request larger than the
    /// window (a `binary` upload) goes out alone once the window has
    /// drained.
    ///
    /// Errors are those of one call at a time: the first failing request
    /// in request order is the one reported, nothing is sent after its
    /// reply is read, and the replies still in flight behind it are
    /// drained, so the connection stays usable after an in-band error.
    /// Unlike one call at a time, the requests already in the window
    /// behind the failing one may have reached the server, which may
    /// have applied them.
    ///
    /// # Errors
    ///
    /// Transport failures, unparsable responses, id mismatches, or an
    /// in-band [`RpcError`] from the server.
    pub fn stream<I>(&mut self, cmds: I) -> Result<json::Json, ClientError>
    where
        I: IntoIterator<Item = Command>,
    {
        let mut batch = Vec::new();
        // (id, line length) of every request sent or batched whose reply
        // is unread, oldest first, and the sum of the lengths.
        let mut in_flight = VecDeque::new();
        let mut bytes = 0;
        let mut last = json::Json::Null;
        for cmd in cmds {
            self.next_id += 1;
            // The line goes straight into the batch; if it does not fit
            // the window, the requests before it go out first.
            let start = batch.len();
            Request {
                id: self.next_id,
                cmd,
            }
            .encode_into(&mut batch);
            batch.push(b'\n');
            let len = batch.len() - start;
            if bytes + len > WINDOW_BYTES && !in_flight.is_empty() {
                let sent = self.send(&batch[..start], in_flight.iter().map(|&(id, _)| id));
                batch.drain(..start);
                sent?;
                let room = (WINDOW_BYTES / 2).min(WINDOW_BYTES.saturating_sub(len));
                while bytes > room {
                    let (id, len) = in_flight.pop_front().expect("bytes in flight");
                    last = self.reply_in_window(id, &mut in_flight)?;
                    bytes -= len;
                }
            }
            bytes += len;
            in_flight.push_back((self.next_id, len));
        }
        self.send(&batch, in_flight.iter().map(|&(id, _)| id))?;
        while let Some((id, _)) = in_flight.pop_front() {
            last = self.reply_in_window(id, &mut in_flight)?;
        }
        Ok(last)
    }

    /// Write `batch` in one write. `in_flight` lists the ids of every
    /// request sent or in `batch` whose reply is unread; a failed write
    /// looks through their replies (see
    /// [`reply_for_failed_write`](Self::reply_for_failed_write)).
    fn send(
        &mut self,
        batch: &[u8],
        in_flight: impl IntoIterator<Item = u64>,
    ) -> Result<(), ClientError> {
        if batch.is_empty() {
            return Ok(());
        }
        // Injection points fire *before* any bytes move, so a retried
        // interrupt can never send half a request or splice two reads;
        // real mid-stream EINTR is already absorbed inside
        // `write_all`/`read_line`.
        retry_interrupted(EINTR_BUDGET, || {
            e9failpt::fail_io("proto.client.write")?;
            self.writer.write_all(batch)?;
            self.writer.flush()
        })
        .map_err(|err| self.reply_for_failed_write(err, in_flight))
    }

    /// The reply to request `id`, the oldest in flight. After an in-band
    /// error, first drain the replies to the requests `behind` it (all of
    /// them sent), so the next request's reply is the next one read.
    fn reply_in_window(
        &mut self,
        id: u64,
        behind: &mut VecDeque<(u64, usize)>,
    ) -> Result<json::Json, ClientError> {
        let reply = self.read_reply(id, decode_reply);
        if let Err(ClientError::Rpc(_)) = reply {
            for (id, _) in behind.drain(..) {
                if let Err(ClientError::Io(_) | ClientError::Protocol(_)) =
                    self.read_reply(id, decode_reply)
                {
                    break;
                }
            }
        }
        reply
    }

    /// Read the next reply line with `decode` and check it answers
    /// request `id`; every reply passes here. The line is read as bytes
    /// and trimmed of ASCII whitespace; the decoder checks its UTF-8. End
    /// of stream, and a `result` that `decode` cannot read, are a
    /// [`ClientError::Protocol`]. A null-id error is a refusal made
    /// before any request was parsed (an oversized line, BUSY shedding)
    /// and is the typed [`ClientError::Rpc`]; any other id mismatch is
    /// `Protocol`.
    fn read_reply<T>(
        &mut self,
        id: u64,
        decode: impl FnOnce(&[u8]) -> Result<TypedResponse<T>, String>,
    ) -> Result<T, ClientError> {
        self.line.clear();
        let n = retry_interrupted(EINTR_BUDGET, || {
            e9failpt::fail_io("proto.client.read")?;
            self.reader.read_until(b'\n', &mut self.line)
        })?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "backend closed the connection".into(),
            ));
        }
        let TypedResponse { id: reply_id, body } =
            decode(self.line.trim_ascii()).map_err(ClientError::Protocol)?;
        if reply_id != Some(id) {
            if reply_id.is_none() {
                if let Err(e) = body {
                    return Err(ClientError::Rpc(e));
                }
            }
            return Err(ClientError::Protocol(format!(
                "response id {reply_id:?} for request {id}"
            )));
        }
        body.map_err(ClientError::Rpc)?
            .map_err(ClientError::Protocol)
    }

    /// A write that dies because the peer closed often races typed
    /// in-band replies: the server answered (an error for a request in
    /// flight, BUSY shedding, an oversized LIMIT) and closed before our
    /// batch landed, so the send fails while those replies sit unread in
    /// our receive buffer. A closed peer can never block a read —
    /// buffered bytes drain, then EOF (or the reset surfaces as an
    /// error) — so read the replies to `in_flight` in order and return
    /// the first in-band error among them, the one a call at a time
    /// would have met. If none turns up, the transport failure stands.
    fn reply_for_failed_write(
        &mut self,
        err: io::Error,
        in_flight: impl IntoIterator<Item = u64>,
    ) -> ClientError {
        use std::io::ErrorKind;
        if !matches!(
            err.kind(),
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
        ) {
            return ClientError::Io(err);
        }
        for id in in_flight {
            match self.read_reply(id, decode_reply) {
                Ok(_) => {}
                Err(ClientError::Rpc(e)) => return ClientError::Rpc(e),
                Err(_) => break,
            }
        }
        ClientError::Io(err)
    }

    /// Negotiate the protocol version (must be the first call).
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`].
    pub fn negotiate(&mut self) -> Result<(), ClientError> {
        self.call(Command::Version {
            version: PROTOCOL_VERSION,
        })?;
        Ok(())
    }

    /// Plan a hook batch server-side from `spec`. The server resolves
    /// symbols against the loaded binary, buffers the resulting patch
    /// batch, and returns the planned hook records; a following
    /// [`emit`](ProtoClient::emit) runs the rewrite.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`], plus reply-decoding failures.
    pub fn hook(&mut self, spec: &e9hook::HookSpec) -> Result<HookReply, ClientError> {
        let cmd = Command::Hook {
            funcs: spec.funcs.clone(),
            addrs: spec.addrs.clone(),
            call_original: spec.call_original,
            payload: spec.payload.clone(),
        };
        self.call_with(cmd, HookReply::decode_line)
    }

    /// Run the rewrite and fetch the patched binary + statistics.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`], plus reply-decoding failures.
    pub fn emit(&mut self) -> Result<EmitReply, ClientError> {
        self.call_with(Command::Emit, EmitReply::decode_line)
    }

    /// Fetch the server's rewrite-cache counters.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`], plus reply-decoding failures.
    pub fn cache_stats(&mut self) -> Result<CacheStatsReply, ClientError> {
        let cmd = Command::Cache {
            action: CacheAction::Stats,
        };
        self.call_with(cmd, CacheStatsReply::decode_line)
    }

    /// Drop every entry from the server's rewrite cache. Returns whether
    /// a cache was configured at all.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`], plus a reply without a boolean
    /// `cleared`.
    pub fn cache_clear(&mut self) -> Result<bool, ClientError> {
        let cmd = Command::Cache {
            action: CacheAction::Clear,
        };
        Ok(self.call_with(cmd, CacheClearReply::decode_line)?.0)
    }

    /// Fetch the server's per-subsystem health snapshot (serving mode,
    /// shed counters, fault injection, cache/breaker state). Works even
    /// before [`negotiate`](ProtoClient::negotiate).
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`], plus reply-decoding failures.
    pub fn health(&mut self) -> Result<HealthReply, ClientError> {
        self.call_with(Command::Health, HealthReply::decode_line)
    }

    /// Ask the backend to shut down.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Command::Shutdown)?;
        Ok(())
    }
}

impl Drop for ProtoClient {
    fn drop(&mut self) {
        if let Transport::Child(child) = &mut self.transport {
            // Closing stdin (dropping the writer would do it too, but we
            // can't partially move out of self) lets the child exit on
            // EOF; reap it so no zombie outlives the client.
            let _ = self.writer.flush();
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A reply line with its `result` read as a [`json::Json`] value.
fn decode_reply(line: &[u8]) -> Result<TypedResponse<json::Json>, String> {
    let r = Response::decode_line(line)?;
    Ok(TypedResponse {
        id: r.id,
        body: r.body.map(Ok),
    })
}

/// Where `e9tool patch --backend stdio` finds the daemon: `$E9PATCHD`,
/// else `e9patchd` next to the current executable, else `$PATH`.
pub fn default_daemon_path() -> PathBuf {
    if let Ok(p) = std::env::var("E9PATCHD") {
        return PathBuf::from(p);
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            let sibling = dir.join("e9patchd");
            if sibling.exists() {
                return sibling;
            }
        }
    }
    PathBuf::from("e9patchd")
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use e9patch::Template;

    #[test]
    fn in_process_loopback_negotiates_and_errors() {
        let mut c = ProtoClient::in_process().unwrap();
        c.negotiate().unwrap();
        // State violation travels back as a typed error.
        let err = c
            .call(Command::Patch {
                addr: 0x401000,
                template: Template::Empty,
            })
            .unwrap_err();
        match err {
            ClientError::Rpc(e) => assert_eq!(e.code, crate::msg::code::STATE),
            other => panic!("expected rpc error, got {other:?}"),
        }
    }

    #[test]
    fn health_answers_before_negotiation() {
        let mut c = ProtoClient::in_process().unwrap();
        // No negotiate(): health is the always-available probe.
        let h = c.health().unwrap();
        assert_eq!(h.serving_mode, "in-process");
        assert!(!h.cache.enabled);
        assert!(h.summary().starts_with("health: serving in-process"));
        // The connection is still fresh enough to negotiate and work.
        c.negotiate().unwrap();
        c.health().unwrap();
    }

    /// A peer that refuses in-band and slams the connection shut before
    /// the request even lands must still surface as the typed refusal,
    /// not as the EPIPE the race produces. This is the admission-shed
    /// race: the daemon writes one BUSY line and closes; whether our
    /// version request wins or loses the write race, the caller sees
    /// `Rpc(BUSY)`.
    #[test]
    #[cfg(unix)]
    fn write_failure_drains_pending_typed_refusal() {
        use std::os::unix::net::UnixStream;

        let (ours, theirs) = UnixStream::pair().unwrap();
        let refusal = Response::err(
            None,
            RpcError::new(crate::msg::code::BUSY, "server over capacity"),
        );
        {
            let mut w = theirs.try_clone().unwrap();
            let mut line = refusal.encode().into_bytes();
            line.push(b'\n');
            w.write_all(&line).unwrap();
        }
        drop(theirs); // guarantee the client's write hits a closed peer
        let mut c = ProtoClient::over(ours).unwrap();
        match c.negotiate().unwrap_err() {
            ClientError::Rpc(e) => assert_eq!(e.code, crate::msg::code::BUSY),
            other => panic!("expected typed BUSY, got {other:?}"),
        }
        // With nothing left to drain, the raw transport error survives.
        match c.negotiate().unwrap_err() {
            ClientError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
            other => panic!("expected io error, got {other:?}"),
        }
    }

    use crate::msg::code;
    use std::os::unix::net::UnixStream;
    use std::thread::JoinHandle;

    /// `n` one-byte `instruction` requests: enough for several windows.
    fn nops(n: u64) -> impl Iterator<Item = Command> {
        (0..n).map(|i| Command::Instruction {
            addr: 0x401000 + i,
            bytes: vec![0x90],
        })
    }

    /// A client whose peer is `script`, run on its own thread over the
    /// other end of a socket pair.
    fn scripted<T: Send + 'static>(
        script: impl FnOnce(BufReader<UnixStream>, UnixStream) -> T + Send + 'static,
    ) -> (ProtoClient, JoinHandle<T>) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let writer = theirs.try_clone().unwrap();
        let peer = std::thread::spawn(move || script(BufReader::new(theirs), writer));
        (ProtoClient::over(ours).unwrap(), peer)
    }

    /// The next request line from the client, `None` at end of stream.
    fn next_request(r: &mut BufReader<UnixStream>) -> Option<(Request, usize)> {
        let mut line = String::new();
        match r.read_line(&mut line).unwrap() {
            0 => None,
            n => Some((
                Request::decode(&json::parse(line.trim().as_bytes()).unwrap()).unwrap(),
                n,
            )),
        }
    }

    fn answer(w: &mut UnixStream, resp: &Response) {
        let mut line = resp.encode().into_bytes();
        line.push(b'\n');
        w.write_all(&line).unwrap();
    }

    fn busy() -> Response {
        Response::err(None, RpcError::new(code::BUSY, "server over capacity"))
    }

    /// An in-band error on the k-th request of a window is reported for
    /// that request, not for a later failing one; nothing is sent after
    /// it, and the replies in flight are drained so the connection stays
    /// in step.
    #[test]
    fn window_reports_the_first_error_and_sends_nothing_after_it() {
        const K: u64 = 10;
        let (mut c, peer) = scripted(|mut r, mut w| {
            let mut ids = Vec::new();
            while let Some((req, _)) = next_request(&mut r) {
                ids.push(req.id);
                let resp = match req.cmd {
                    // Every instruction from the k-th on is refused.
                    Command::Instruction { .. } if req.id >= K => Response::err(
                        Some(req.id),
                        RpcError::new(code::STATE, format!("refused request {}", req.id)),
                    ),
                    _ => Response::ok(req.id, json::Json::Null),
                };
                answer(&mut w, &resp);
            }
            ids
        });
        match c.stream(nops(2000)).unwrap_err() {
            ClientError::Rpc(e) => assert_eq!(e.message, format!("refused request {K}")),
            other => panic!("expected the k-th request's error, got {other:?}"),
        }
        // The replies in flight were drained: the next call's reply is
        // its own.
        c.call(Command::Health).unwrap();
        let health_id = c.next_id;
        drop(c);
        let ids = peer.join().unwrap();
        let (last, window) = ids.split_last().unwrap();
        assert_eq!(*last, health_id);
        // Only the first window went out, in order.
        assert!(
            window.len() as u64 >= K && window.len() < 2000,
            "{} sent",
            window.len()
        );
        assert!(window.iter().copied().eq(1..=window.len() as u64));
    }

    /// The same rule against a real session: a quota refusal mid-window
    /// is the typed LIMIT error, and the session answers the next call.
    #[test]
    fn quota_refusal_mid_window_is_typed_and_the_session_stays_usable() {
        let config = crate::server::ServeConfig {
            limits: crate::session::SessionLimits {
                max_insns: 50,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(vec![0x90; 1000], 0x401000);
        b.entry(0x401000);
        let mut c = ProtoClient::loopback(config).unwrap();
        let head = [
            Command::Version {
                version: PROTOCOL_VERSION,
            },
            Command::Binary {
                bytes: b.build(),
                digest: None,
            },
        ];
        match c.stream(head.into_iter().chain(nops(1000))).unwrap_err() {
            ClientError::Rpc(e) => assert_eq!(e.code, code::LIMIT, "{e}"),
            other => panic!("expected LIMIT, got {other:?}"),
        }
        assert_eq!(c.health().unwrap().serving_mode, "in-process");
    }

    /// A null-id BUSY in the middle of a window is the typed refusal.
    #[test]
    fn null_id_busy_mid_window_is_typed() {
        let (mut c, peer) = scripted(|mut r, mut w| {
            while let Some((req, _)) = next_request(&mut r) {
                let resp = if req.id == 7 {
                    busy()
                } else {
                    Response::ok(req.id, json::Json::Null)
                };
                answer(&mut w, &resp);
            }
        });
        match c.stream(nops(2000)).unwrap_err() {
            ClientError::Rpc(e) => assert_eq!(e.code, code::BUSY),
            other => panic!("expected typed BUSY, got {other:?}"),
        }
        c.call(Command::Health).unwrap();
        drop(c);
        peer.join().unwrap();
    }

    /// Replies are matched to ids in FIFO order; a reply out of order is
    /// a protocol failure, not a silent mismatch.
    #[test]
    fn out_of_order_reply_is_a_protocol_error() {
        let (mut c, peer) = scripted(|mut r, mut w| {
            let (first, _) = next_request(&mut r).unwrap();
            let (second, _) = next_request(&mut r).unwrap();
            answer(&mut w, &Response::ok(second.id, json::Json::Null));
            answer(&mut w, &Response::ok(first.id, json::Json::Null));
        });
        match c.stream(nops(2)).unwrap_err() {
            ClientError::Protocol(m) => assert!(m.contains("for request 1"), "{m}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        peer.join().unwrap();
    }

    /// A peer that reads three quarters of the first window, stops
    /// reading, answers what it read and closes. The client's next
    /// window write fails, and the failure surfaces through
    /// `reply_for_failed_write`: the refusal the peer left behind when it
    /// leaves one, the transport error when it does not.
    #[test]
    fn peer_closing_mid_window_surfaces_through_the_failed_write() {
        for refuse in [false, true] {
            let (mut c, peer) = scripted(move |mut r, mut w| {
                let mut ids = Vec::new();
                let mut read = 0;
                while read < WINDOW_BYTES * 3 / 4 {
                    let (req, n) = next_request(&mut r).unwrap();
                    ids.push(req.id);
                    read += n;
                }
                // Every later client write now fails.
                w.shutdown(std::net::Shutdown::Read).unwrap();
                for id in ids {
                    answer(&mut w, &Response::ok(id, json::Json::Null));
                }
                if refuse {
                    answer(&mut w, &busy());
                }
            });
            match (refuse, c.stream(nops(2000)).unwrap_err()) {
                (true, ClientError::Rpc(e)) => assert_eq!(e.code, code::BUSY),
                (false, ClientError::Io(e)) => assert!(
                    matches!(
                        e.kind(),
                        io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
                    ),
                    "{e}"
                ),
                (_, other) => panic!("refuse={refuse}: unexpected {other:?}"),
            }
            peer.join().unwrap();
        }
    }

    /// A `cache clear` reply whose `cleared` is missing or not a boolean
    /// is a protocol error, not the `false` of a server with no cache.
    #[test]
    fn cache_clear_without_a_boolean_cleared_is_a_protocol_error() {
        for (result, want) in [
            ("{}", None),
            (r#"{"cleared":1}"#, None),
            (r#"{"cleared":false,"disk_removed":0}"#, Some(false)),
            (r#"{"cleared":true,"disk_removed":3}"#, Some(true)),
        ] {
            let (mut c, peer) = scripted(move |mut r, mut w| {
                let (req, _) = next_request(&mut r).unwrap();
                let result = json::parse(result.as_bytes()).unwrap();
                answer(&mut w, &Response::ok(req.id, result));
            });
            match (c.cache_clear(), want) {
                (Ok(cleared), Some(want)) => assert_eq!(cleared, want, "{result}"),
                (Err(ClientError::Protocol(m)), None) => assert!(m.contains("cleared"), "{m}"),
                (got, _) => panic!("{result}: unexpected {got:?}"),
            }
            peer.join().unwrap();
        }
    }

    #[test]
    fn loopback_full_patch_job() {
        let code = vec![
            0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0xC3, //
            0x0F, 0x1F, 0x44, 0x00, 0x00, 0x0F, 0x1F, 0x44, 0x00, 0x00,
        ];
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code.clone(), 0x401000);
        b.entry(0x401000);
        let bin = b.build();
        let disasm = e9x86::decode::linear_sweep(&code, 0x401000);

        let mut c = ProtoClient::in_process().unwrap();
        let job = crate::cachekey::Job {
            binary: &bin,
            disasm: &disasm,
            requests: &[e9patch::PatchRequest {
                addr: 0x401000,
                template: Template::Empty,
            }],
            extra: &[],
            config: e9patch::RewriteConfig::default(),
        };
        c.stream(job.commands()).unwrap();
        let reply = c.emit().unwrap();
        assert_eq!(reply.stats.succeeded(), 1);
        c.shutdown().unwrap();
    }
}
