//! The server loop: line-delimited JSON-RPC sessions over arbitrary byte
//! streams and stdio. Socket transports are served by the reactor
//! ([`crate::reactor`]), which shares this module's glue: one
//! [`ServeConfig`], request lines split by `e9loop`'s [`LineFramer`],
//! sessions from [`Session::from_config`], complete lines answered by
//! [`reply_line`] (through [`dispatch_line`]) and over-long ones by
//! [`oversized_line`].
//!
//! Each connection gets its own [`Session`]; a `shutdown` command ends the
//! connection.

use crate::json;
use crate::msg::{code, Request, Response, RpcError};
use crate::session::{Session, SessionLimits};
use e9loop::{Frame, LineFramer};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Load-shedding counters, shared by every connection of one server so
/// the `health` command can report how much work was refused. Both
/// counters only ever grow.
#[derive(Debug, Default)]
pub struct ShedCounters {
    /// Connections refused at accept time (admission control — the
    /// reactor's `max_clients` cap).
    pub admission: AtomicU64,
    /// Requests rejected with [`code::BUSY`] after admission.
    pub busy: AtomicU64,
}

impl ShedCounters {
    /// Snapshot `(admission, busy)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.admission.load(Ordering::Relaxed),
            self.busy.load(Ordering::Relaxed),
        )
    }
}

/// Serving-path hardening knobs: everything a hostile or broken client can
/// exhaust is bounded here, not in the session state machine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Framing and socket knobs, each with the one default `e9patchd`
    /// runs with. The line cap (`max_line_bytes`, newline included)
    /// applies in every mode: binaries travel hex-encoded on one line, so
    /// it caps the largest `binary` payload at roughly half its value;
    /// raise it (or `e9patchd --max-line-bytes`) for very large inputs.
    /// Oversized lines are discarded and answered with a [`code::LIMIT`]
    /// error; the connection stays up. The rest (idle timeout, admission,
    /// queues, drain, accept budget) drive the reactor; stdio ignores them.
    pub transport: e9loop::Config,
    /// Per-session resource quotas, enforced by [`Session`].
    pub limits: SessionLimits,
    /// Shared rewrite cache (`e9patchd --cache-dir` / `--cache-mem-bytes`).
    /// One [`Arc`](std::sync::Arc) handed to every connection's session,
    /// so all clients pool artifacts; `None` disables caching.
    pub cache: Option<std::sync::Arc<e9cache::Cache>>,
    /// Which serving core this config drives, as reported by the `health`
    /// command: `stdio`, `reactor`, or `in-process`.
    pub serving_mode: &'static str,
    /// Shared load-shedding counters, reported by `health`.
    pub shed: Arc<ShedCounters>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            transport: e9loop::Config::default(),
            limits: SessionLimits::default(),
            cache: None,
            serving_mode: "in-process",
            shed: Arc::new(ShedCounters::default()),
        }
    }
}

/// Serve one session: read request lines from `reader`, write response
/// lines to `writer`, until EOF or `shutdown`. Uses [`ServeConfig`]
/// defaults; see [`serve_connection_with`].
///
/// Returns `true` if the session ended because of a `shutdown` command.
///
/// # Errors
///
/// Only transport-level I/O failures; protocol errors are reported to the
/// client in-band and never tear down the loop.
pub fn serve_connection<R: BufRead, W: Write>(reader: &mut R, writer: &mut W) -> io::Result<bool> {
    serve_connection_with(reader, writer, &ServeConfig::default())
}

/// [`serve_connection`] with explicit hardening knobs.
///
/// Three classes of bad input are survived in-band, keeping the
/// connection (and the daemon) alive:
///
/// * request lines longer than `config.transport.max_line_bytes` →
///   discarded by the shared [`LineFramer`], answered with
///   [`code::LIMIT`];
/// * malformed or over-quota requests → typed errors from
///   [`dispatch_line`] / [`Session`];
/// * a panic inside request handling → caught by [`reply_line`],
///   answered with [`code::INTERNAL`]. [`dispatch_line`] itself stays
///   panic-free by construction (the fault-injection campaign drives it
///   directly and treats any unwind as a bug); this catch is defence in
///   depth so one connection's bug can never take the daemon down.
///
/// # Errors
///
/// Only transport-level I/O failures (including read timeouts configured
/// on the underlying stream).
pub fn serve_connection_with<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    config: &ServeConfig,
) -> io::Result<bool> {
    let mut session = Session::from_config(config);
    let cap = config.transport.max_line_bytes;
    let mut framer = LineFramer::new(cap);
    loop {
        // EINTR during a socket read is not end-of-session: `fill_buf`
        // propagates it raw (unlike `write_all`, which retries
        // internally), so without this retry a signal delivered to a
        // serving thread — profiler, debugger attach, SIGCHLD — would
        // tear down an innocent connection.
        let chunk = match e9failpt::fail_io("proto.server.read").and_then(|()| reader.fill_buf()) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => other?,
        };
        let eof = chunk.is_empty();
        let (used, frame) = if eof {
            (0, framer.finish())
        } else {
            framer.push(chunk)
        };
        let reply = match frame {
            None => None,
            Some(Frame::Oversized) => Some(oversized_line(cap)),
            Some(Frame::Line(line)) => reply_line(&mut session, line),
        };
        reader.consume(used);
        if let Some(reply) = reply {
            // The injection point sits *before* any bytes land, so a
            // retried interrupt can never duplicate a partial response.
            // (Real EINTR mid-write is already absorbed inside
            // `write_all`.)
            e9failpt::retry::retry_interrupted(e9failpt::retry::EINTR_BUDGET, || {
                e9failpt::fail_io("proto.server.write")?;
                writer.write_all(&reply)?;
                writer.flush()
            })?;
            if session.shutdown_requested() {
                return Ok(true);
            }
        }
        if eof {
            return Ok(false);
        }
    }
}

/// The newline-terminated reply to one complete request line, shared by
/// the stdio loop and the reactor: `None` for a blank line (skipped, no
/// reply), otherwise [`dispatch_line`]'s response, or [`code::INTERNAL`]
/// if handling panicked.
pub fn reply_line(session: &mut Session, line: &[u8]) -> Option<Vec<u8>> {
    if line.iter().all(u8::is_ascii_whitespace) {
        return None;
    }
    let resp = catch_unwind(AssertUnwindSafe(|| dispatch_line(session, line))).unwrap_or_else(|_| {
        Response::err(None, RpcError::new(code::INTERNAL, "internal error while handling request"))
    });
    Some(encode_line(&resp))
}

/// The newline-terminated [`code::LIMIT`] reply to a request line longer
/// than `cap` bytes, shared by the stdio loop and the reactor.
pub fn oversized_line(cap: usize) -> Vec<u8> {
    let msg = format!("request line exceeds {cap} bytes; see --max-line-bytes");
    encode_line(&Response::err(None, RpcError::new(code::LIMIT, msg)))
}

/// A response as one wire line.
pub(crate) fn encode_line(resp: &Response) -> Vec<u8> {
    let mut out = resp.encode().into_bytes();
    out.push(b'\n');
    out
}

/// Parse and execute one raw request line against `session`.
///
/// This is the protocol's single choke point: malformed JSON becomes a
/// [`code::PARSE`] error with a `null` id, a bad envelope or unknown
/// method keeps its id when one is recoverable, and session errors are
/// forwarded verbatim.
pub fn dispatch_line(session: &mut Session, line: &[u8]) -> Response {
    let value = match json::parse(line.trim_ascii()) {
        Ok(v) => v,
        Err(e) => {
            return Response::err(None, RpcError::new(code::PARSE, e.to_string()));
        }
    };
    match Request::decode(&value) {
        Ok(req) => {
            let body = session.handle(req.cmd);
            Response { id: Some(req.id), body }
        }
        Err(e) => {
            // Salvage the id when the envelope carried one.
            let id = value.get("id").and_then(json::Json::as_u64);
            Response::err(id, e)
        }
    }
}

/// Serve one session over the process's stdin/stdout (the `e9patchd`
/// default mode: the client owns the process and its pipes). Only the
/// line cap of `config.transport` applies: pipes have no portable read
/// timeout, and the client owns the process anyway.
///
/// # Errors
///
/// Transport-level I/O failures.
pub fn serve_stdio_with(config: &ServeConfig) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    serve_connection_with(&mut reader, &mut writer, config)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Command, EmitReply};

    fn run_lines(input: &str) -> Vec<Response> {
        let mut reader = io::Cursor::new(input.as_bytes().to_vec());
        let mut out: Vec<u8> = Vec::new();
        serve_connection(&mut reader, &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Response::decode(&json::parse(l.as_bytes()).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn parse_errors_get_null_id_and_continue() {
        let responses = run_lines(
            "this is not json\n\
             {\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"version\",\"params\":{\"version\":1}}\n",
        );
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].id, None);
        assert_eq!(responses[0].body.as_ref().unwrap_err().code, code::PARSE);
        assert_eq!(responses[1].id, Some(3));
        assert!(responses[1].body.is_ok());
    }

    #[test]
    fn unknown_method_keeps_its_id() {
        let responses = run_lines("{\"jsonrpc\":\"2.0\",\"id\":9,\"method\":\"frobnicate\"}\n");
        assert_eq!(responses[0].id, Some(9));
        assert_eq!(
            responses[0].body.as_ref().unwrap_err().code,
            code::METHOD_NOT_FOUND
        );
    }

    #[test]
    fn oversized_lines_get_limit_error_and_continue() {
        let config = ServeConfig {
            transport: e9loop::Config {
                max_line_bytes: 128,
                ..e9loop::Config::default()
            },
            ..ServeConfig::default()
        };
        let big = "x".repeat(4096);
        let input = format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"{big}\"}}\n\
             {{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"version\",\"params\":{{\"version\":1}}}}\n"
        );
        let mut reader = io::Cursor::new(input.into_bytes());
        let mut out: Vec<u8> = Vec::new();
        serve_connection_with(&mut reader, &mut out, &config).unwrap();
        let responses: Vec<Response> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Response::decode(&json::parse(l.as_bytes()).unwrap()).unwrap())
            .collect();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].id, None);
        assert_eq!(responses[0].body.as_ref().unwrap_err().code, code::LIMIT);
        // The stream stayed framed: the next request still succeeds.
        assert_eq!(responses[1].id, Some(2));
        assert!(responses[1].body.is_ok());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let responses = run_lines(
            "\n  \n{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"version\",\"params\":{\"version\":1}}\n\n",
        );
        assert_eq!(responses.len(), 1);
    }

    #[test]
    fn shutdown_ends_the_connection() {
        let input = "\
            {\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"version\",\"params\":{\"version\":1}}\n\
            {\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"shutdown\",\"params\":{}}\n\
            {\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"emit\",\"params\":{}}\n";
        let mut reader = io::Cursor::new(input.as_bytes().to_vec());
        let mut out: Vec<u8> = Vec::new();
        let shut = serve_connection(&mut reader, &mut out).unwrap();
        assert!(shut);
        // The post-shutdown request was never processed.
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }

    #[test]
    fn full_wire_session_round_trips() {
        // Drive a complete patch job purely through the byte-stream
        // interface and check the reply decodes.
        let code_bytes = vec![
            0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0xC3, //
            0x0F, 0x1F, 0x44, 0x00, 0x00, 0x0F, 0x1F, 0x44, 0x00, 0x00,
        ];
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code_bytes.clone(), 0x401000);
        b.entry(0x401000);
        let bin = b.build();
        let disasm = e9x86::decode::linear_sweep(&code_bytes, 0x401000);

        let mut input = String::new();
        let mut id = 0u64;
        let mut push = |cmd: Command, input: &mut String| {
            id += 1;
            input.push_str(&Request { id, cmd }.encode());
            input.push('\n');
        };
        push(Command::Version { version: 1 }, &mut input);
        push(Command::Binary { bytes: bin, digest: None }, &mut input);
        for i in &disasm {
            push(
                Command::Instruction {
                    addr: i.addr,
                    bytes: i.bytes().to_vec(),
                },
                &mut input,
            );
        }
        push(
            Command::Patch {
                addr: 0x401000,
                template: e9patch::Template::Empty,
            },
            &mut input,
        );
        push(Command::Emit, &mut input);

        let responses = run_lines(&input);
        let last = responses.last().unwrap();
        let reply = EmitReply::from_json(last.body.as_ref().unwrap()).unwrap();
        assert_eq!(reply.stats.succeeded(), 1);
        assert!(reply.binary.len() > 0x1000);
    }
}
