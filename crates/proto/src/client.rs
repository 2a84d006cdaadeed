//! Frontend-side protocol client.
//!
//! A [`ProtoClient`] owns one request/response byte stream to a patch
//! backend and exposes the command set as typed calls. Three transports:
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

use crate::json;
use crate::msg::{config_options, CacheAction, CacheStatsReply, Command, EmitReply, HealthReply,
                 HookReply, Request, Response, RpcError, PROTOCOL_VERSION};
use e9failpt::retry::{retry_interrupted, with_backoff, Backoff, EINTR_BUDGET};
use e9patch::{ExtraSegment, RewriteConfig, Template};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::PathBuf;

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
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        let writer = stream.try_clone()?;
        Ok(ProtoClient {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
            transport: Transport::Stream,
            next_id: 0,
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
        let (ours, theirs) = std::os::unix::net::UnixStream::pair()?;
        std::thread::spawn(move || {
            let mut writer = match theirs.try_clone() {
                Ok(w) => w,
                Err(_) => return,
            };
            let mut reader = BufReader::new(theirs);
            let _ = crate::server::serve_connection(&mut reader, &mut writer);
        });
        let writer = ours.try_clone()?;
        Ok(ProtoClient {
            reader: BufReader::new(Box::new(ours)),
            writer: Box::new(writer),
            transport: Transport::Stream,
            next_id: 0,
        })
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// Transport failures, unparsable responses, id mismatches, or an
    /// in-band [`RpcError`] from the server.
    pub fn call(&mut self, cmd: Command) -> Result<json::Json, ClientError> {
        self.next_id += 1;
        let req = Request {
            id: self.next_id,
            cmd,
        };
        let text = req.encode();
        // Injection points fire *before* any bytes move, so a retried
        // interrupt can never send half a request or splice two reads;
        // real mid-stream EINTR is already absorbed inside
        // `write_all`/`read_line`.
        if let Err(err) = retry_interrupted(EINTR_BUDGET, || {
            e9failpt::fail_io("proto.client.write")?;
            self.writer.write_all(text.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.writer.flush()
        }) {
            return Err(self.reply_for_failed_write(err));
        }
        let mut line = String::new();
        let n = retry_interrupted(EINTR_BUDGET, || {
            e9failpt::fail_io("proto.client.read")?;
            self.reader.read_line(&mut line)
        })?;
        if n == 0 {
            return Err(ClientError::Protocol("backend closed the connection".into()));
        }
        let value = json::parse(line.trim().as_bytes())
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        let resp = Response::decode(&value).map_err(ClientError::Protocol)?;
        if resp.id != Some(req.id) {
            // Errors refused before parsing (oversized lines, BUSY load
            // shedding) carry a null id; surface them as typed RPC
            // errors, not a framing failure.
            if resp.id.is_none() {
                if let Err(e) = resp.body {
                    return Err(ClientError::Rpc(e));
                }
            }
            return Err(ClientError::Protocol(format!(
                "response id {:?} for request {}",
                resp.id, req.id
            )));
        }
        resp.body.map_err(ClientError::Rpc)
    }

    /// A write that dies because the peer closed often races a typed
    /// in-band refusal: the server answers (BUSY shedding, oversized
    /// LIMIT) and closes the connection before our request lands, so the
    /// send fails while the refusal sits unread in our receive buffer. A
    /// closed peer can never block a read — buffered bytes drain, then
    /// EOF (or the reset surfaces as an error) — so pull one line and
    /// return the typed error instead of the raw transport failure.
    /// Anything other than a null-id error reply keeps the original
    /// error: only pre-parse refusals are ownerless by design.
    fn reply_for_failed_write(&mut self, err: std::io::Error) -> ClientError {
        use std::io::ErrorKind;
        if !matches!(
            err.kind(),
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
        ) {
            return ClientError::Io(err);
        }
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return ClientError::Io(err),
        }
        let Ok(value) = json::parse(line.trim().as_bytes()) else {
            return ClientError::Io(err);
        };
        let Ok(resp) = Response::decode(&value) else {
            return ClientError::Io(err);
        };
        match resp {
            Response {
                id: None,
                body: Err(e),
            } => ClientError::Rpc(e),
            _ => ClientError::Io(err),
        }
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

    /// Send the input binary.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`].
    pub fn binary(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.call(Command::Binary {
            bytes: bytes.to_vec(),
            digest: None,
        })?;
        Ok(())
    }

    /// Send the input binary together with its pre-computed tree digest.
    /// The server verifies the digest once at intake and reuses it for
    /// cache keying on every `emit`, so the input is hashed exactly once
    /// end to end.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`] — a mismatched digest is rejected with
    /// `INVALID_PARAMS`.
    pub fn binary_with_digest(
        &mut self,
        bytes: &[u8],
        digest: &e9cache::Digest,
    ) -> Result<(), ClientError> {
        self.call(Command::Binary {
            bytes: bytes.to_vec(),
            digest: Some(*digest),
        })?;
        Ok(())
    }

    /// Send `cfg` as its `option` commands, one per pair of
    /// [`config_options`].
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`].
    pub fn configure(&mut self, cfg: &RewriteConfig) -> Result<(), ClientError> {
        for (name, value) in config_options(cfg) {
            self.call(Command::Option {
                name: name.to_string(),
                value,
            })?;
        }
        Ok(())
    }

    /// Reserve an extra output segment.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`].
    pub fn reserve(&mut self, seg: &ExtraSegment) -> Result<(), ClientError> {
        self.call(Command::Reserve {
            vaddr: seg.vaddr,
            bytes: seg.bytes.clone(),
            exec: seg.exec,
            write: seg.write,
        })?;
        Ok(())
    }

    /// Declare one instruction of disassembly info.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`].
    pub fn instruction(&mut self, addr: u64, bytes: &[u8]) -> Result<(), ClientError> {
        self.call(Command::Instruction {
            addr,
            bytes: bytes.to_vec(),
        })?;
        Ok(())
    }

    /// Request a patch (buffered server-side until emit).
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`].
    pub fn patch(&mut self, addr: u64, template: Template) -> Result<(), ClientError> {
        self.call(Command::Patch { addr, template })?;
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
        let v = self.call(Command::Hook {
            funcs: spec.funcs.clone(),
            addrs: spec.addrs.clone(),
            call_original: spec.call_original,
            payload: spec.payload.clone(),
        })?;
        HookReply::from_json(&v).map_err(ClientError::Protocol)
    }

    /// Run the rewrite and fetch the patched binary + statistics.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`], plus reply-decoding failures.
    pub fn emit(&mut self) -> Result<EmitReply, ClientError> {
        let v = self.call(Command::Emit)?;
        EmitReply::from_json(&v).map_err(ClientError::Protocol)
    }

    /// Fetch the server's rewrite-cache counters.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`], plus reply-decoding failures.
    pub fn cache_stats(&mut self) -> Result<CacheStatsReply, ClientError> {
        let v = self.call(Command::Cache {
            action: CacheAction::Stats,
        })?;
        CacheStatsReply::from_json(&v).map_err(ClientError::Protocol)
    }

    /// Drop every entry from the server's rewrite cache. Returns whether
    /// a cache was configured at all.
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`].
    pub fn cache_clear(&mut self) -> Result<bool, ClientError> {
        let v = self.call(Command::Cache {
            action: CacheAction::Clear,
        })?;
        Ok(v.get("cleared").and_then(json::Json::as_bool).unwrap_or(false))
    }

    /// Fetch the server's per-subsystem health snapshot (serving mode,
    /// shed counters, fault injection, cache/breaker state). Works even
    /// before [`negotiate`](ProtoClient::negotiate).
    ///
    /// # Errors
    ///
    /// As [`ProtoClient::call`], plus reply-decoding failures.
    pub fn health(&mut self) -> Result<HealthReply, ClientError> {
        let v = self.call(Command::Health)?;
        HealthReply::from_json(&v).map_err(ClientError::Protocol)
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

    #[test]
    fn in_process_loopback_negotiates_and_errors() {
        let mut c = ProtoClient::in_process().unwrap();
        c.negotiate().unwrap();
        // State violation travels back as a typed error.
        let err = c.patch(0x401000, Template::Empty).unwrap_err();
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
        let writer = ours.try_clone().unwrap();
        let mut c = ProtoClient {
            reader: BufReader::new(Box::new(ours)),
            writer: Box::new(writer),
            transport: Transport::Stream,
            next_id: 0,
        };
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
        c.negotiate().unwrap();
        c.binary(&bin).unwrap();
        for i in &disasm {
            c.instruction(i.addr, i.bytes()).unwrap();
        }
        c.patch(0x401000, Template::Empty).unwrap();
        let reply = c.emit().unwrap();
        assert_eq!(reply.stats.succeeded(), 1);
        c.shutdown().unwrap();
    }
}
