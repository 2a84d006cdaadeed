//! The server loop: line-delimited JSON-RPC sessions over arbitrary byte
//! streams and stdio. Socket transports are served by the reactor
//! ([`crate::reactor`]), which shares this module's glue: one
//! [`ServeConfig`], request lines split by `e9loop`'s [`LineFramer`],
//! sessions from [`Session::from_config`], complete lines answered by
//! [`reply_line`] (the request read in one pass, and its result written
//! straight into the reply) and over-long ones by [`oversized_line`].
//! [`reference_reply`] answers a line the way the protocol is specified,
//! through JSON trees, and gives the same bytes.
//!
//! Each connection gets its own [`Session`]; a `shutdown` command ends the
//! connection.
//!
//! Both loops batch replies per read: a reply is appended to the
//! connection's pending output, and the output is written once the input
//! that produced it has been used up. The stdio loop writes after each
//! `fill_buf` chunk, the reactor after each socket read. Neither waits
//! for input while it holds a reply, so a client that sends one request
//! and waits for its answer is never stalled.

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
    /// One [`Arc`] handed to every connection's session,
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
/// Replies to the lines of one `fill_buf` chunk are written together, in
/// one `write_all` + `flush` through the `proto.server.write` failpoint,
/// once the chunk is used up: before the next read that can block, and
/// before returning on `shutdown` or EOF. This loop serves `e9patchd
/// --stdio`, `e9tool --backend stdio` and [`crate::ProtoClient::in_process`].
///
/// Three classes of bad input are survived in-band, keeping the
/// connection (and the daemon) alive:
///
/// * request lines longer than `config.transport.max_line_bytes` →
///   discarded by the shared [`LineFramer`], answered with
///   [`code::LIMIT`];
/// * malformed or over-quota requests → typed errors from
///   [`Request::decode_line`] / [`Session`];
/// * a panic inside request handling → caught by [`reply_line`],
///   answered with [`code::INTERNAL`]. Decoding and handling stay
///   panic-free by construction (the fault-injection campaign runs them
///   without a catch through [`reference_reply`] on a twin session and
///   treats any unwind as a bug); this catch is defence in depth so one
///   connection's bug can never take the daemon down.
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
    // Replies not yet written. They are written once the chunk that
    // produced them is used up, before any read that can block, so the
    // client never waits on a reply held back while the server waits on
    // the client.
    let mut replies = Vec::new();
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
        let drained = used == chunk.len();
        match frame {
            None => {}
            Some(Frame::Oversized) => oversized_line(cap, &mut replies),
            Some(Frame::Line(line)) => reply_line(&mut session, line, &mut replies),
        }
        reader.consume(used);
        let shutdown = session.shutdown_requested();
        if (drained || shutdown) && !replies.is_empty() {
            // The injection point sits *before* any bytes land, so a
            // retried interrupt can never duplicate a partial response.
            // (Real EINTR mid-write is already absorbed inside
            // `write_all`.)
            e9failpt::retry::retry_interrupted(e9failpt::retry::EINTR_BUDGET, || {
                e9failpt::fail_io("proto.server.write")?;
                writer.write_all(&replies)?;
                writer.flush()
            })?;
            replies.clear();
        }
        if shutdown {
            return Ok(true);
        }
        if eof {
            return Ok(false);
        }
    }
}

/// Append the newline-terminated reply to one complete request line to
/// `out`, shared by the stdio loop and the reactor: nothing for a blank
/// line (skipped, no reply), otherwise the reply to the request read in
/// one pass ([`Request::decode_line`]) and handled by [`Session`], its
/// result written straight into `out` with no tree, or
/// [`code::INTERNAL`] if handling panicked.
pub fn reply_line(session: &mut Session, line: &[u8], out: &mut Vec<u8>) {
    if line.iter().all(u8::is_ascii_whitespace) {
        return;
    }
    let start = out.len();
    let answered = catch_unwind(AssertUnwindSafe(|| {
        match Request::decode_line(line.trim_ascii()) {
            Ok(req) => match session.answer(req.cmd) {
                Ok(answer) => {
                    Response::write_ok(out, req.id, |out| answer.write_to(out));
                    out.push(b'\n');
                }
                Err(e) => write_line(&Response::err(Some(req.id), e), out),
            },
            Err(refusal) => write_line(&refusal, out),
        }
    }));
    if answered.is_err() {
        out.truncate(start);
        let e = RpcError::new(code::INTERNAL, "internal error while handling request");
        write_line(&Response::err(None, e), out);
    }
}

/// Append the newline-terminated [`code::LIMIT`] reply to a request line
/// longer than `cap` bytes to `out`, shared by the stdio loop and the
/// reactor.
pub fn oversized_line(cap: usize, out: &mut Vec<u8>) {
    let msg = format!("request line exceeds {cap} bytes; see --max-line-bytes");
    write_line(&Response::err(None, RpcError::new(code::LIMIT, msg)), out);
}

/// Append a response as one wire line to `out`, encoded in place.
pub(crate) fn write_line(resp: &Response, out: &mut Vec<u8>) {
    resp.encode_into(out);
    out.push(b'\n');
}

/// The reference serving path for one request line, the one the wire
/// protocol is specified by: [`crate::json::parse`], the tree decoder
/// [`Request::decode`], [`Session::handle`], and the reply serialized
/// from its tree ([`Response::to_json`]); no newline. `None` for a blank
/// line. On the same session state, [`reply_line`] writes the same bytes
/// (and a newline); the `e9fault` wire campaign checks that on twin
/// sessions.
pub fn reference_reply(session: &mut Session, line: &[u8]) -> Option<String> {
    if line.iter().all(u8::is_ascii_whitespace) {
        return None;
    }
    let resp = match Request::decode_line_via_tree(line.trim_ascii()) {
        Ok(req) => Response {
            id: Some(req.id),
            body: session.handle(req.cmd),
        },
        Err(refusal) => refusal,
    };
    Some(resp.to_json().serialize())
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
            .map(|l| Response::decode_line(l.as_bytes()).unwrap())
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
            .map(|l| Response::decode_line(l.as_bytes()).unwrap())
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
        push(
            Command::Binary {
                bytes: bin,
                digest: None,
            },
            &mut input,
        );
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

    /// A write sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// 1,000 request lines: a version handshake, a binary, 994
    /// instructions, two patches, one malformed line and an emit, with a
    /// blank line among them.
    fn thousand_line_session() -> Vec<u8> {
        let mut code = Vec::new();
        while code.len() < 994 * 7 / 2 {
            code.extend_from_slice(&[0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20]);
        }
        code.push(0xC3);
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code.clone(), 0x401000);
        b.entry(0x401000);
        let disasm = e9x86::decode::linear_sweep(&code, 0x401000);
        let mut cmds = vec![
            Command::Version { version: 1 },
            Command::Binary {
                bytes: b.build(),
                digest: None,
            },
        ];
        cmds.extend(disasm.iter().take(994).map(|i| Command::Instruction {
            addr: i.addr,
            bytes: i.bytes().to_vec(),
        }));
        for addr in [0x401000, 0x401007] {
            cmds.push(Command::Patch {
                addr,
                template: e9patch::Template::Empty,
            });
        }
        let mut input = Vec::new();
        for (i, cmd) in cmds.into_iter().enumerate() {
            input.extend_from_slice(
                Request {
                    id: i as u64 + 1,
                    cmd,
                }
                .encode()
                .as_bytes(),
            );
            input.push(b'\n');
            if i == 500 {
                input.extend_from_slice(b"{\"jsonrpc\":\"2.0\",\"id\":\n\n");
            }
        }
        input.extend_from_slice(
            Request {
                id: 999,
                cmd: Command::Emit,
            }
            .encode()
            .as_bytes(),
        );
        input.push(b'\n');
        assert_eq!(input.iter().filter(|&&b| b == b'\n').count(), 1001);
        input
    }

    #[test]
    fn replies_are_written_once_per_read_chunk() {
        let input = thousand_line_session();
        let mut reader = io::BufReader::with_capacity(256, io::Cursor::new(&input));
        let mut out = CountingWriter::default();
        serve_connection(&mut reader, &mut out).unwrap();
        // Batching leaves the bytes alone: this known answer was captured
        // from the loop that wrote each reply on its own.
        assert_eq!(out.bytes.iter().filter(|&&b| b == b'\n').count(), 1000);
        assert_eq!(
            e9cache::sha256::hex(&e9cache::digest(&out.bytes)),
            "b136807a60408c5e5b7b65dac7aa1fa80335719de4f78a9117513183894c203d"
        );
        let last = out.bytes[..out.bytes.len() - 1]
            .rsplit(|&b| b == b'\n')
            .next()
            .unwrap();
        let emit = Response::decode_line(last).unwrap();
        assert_eq!(emit.id, Some(999));
        assert_eq!(
            EmitReply::from_json(emit.body.as_ref().unwrap())
                .unwrap()
                .stats
                .succeeded(),
            2
        );
        // At most one write per 256-byte read, plus the last read's.
        assert!(
            out.writes <= input.len() / 256 + 2,
            "{} writes for {} input bytes",
            out.writes,
            input.len()
        );
    }
}
