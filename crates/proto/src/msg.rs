//! Typed protocol messages: the paper's patch-command set as line-delimited
//! JSON-RPC requests and responses.
//!
//! The original E9Patch frontend/backend split (§2, §6) streams commands —
//! `binary`, `option`, `reserve`, `instruction`, `patch`, `emit` — from any
//! frontend to the rewriter backend. This module defines the wire grammar:
//!
//! ```text
//! request  := {"jsonrpc":"2.0","id":N,"method":M,"params":{...}} "\n"
//! response := {"jsonrpc":"2.0","id":N,"result":{...}} "\n"
//!           | {"jsonrpc":"2.0","id":N|null,"error":{"code":C,"message":S}} "\n"
//! ```
//!
//! Binary payloads (ELF images, instruction bytes, extra-segment contents,
//! replacement code) travel as lowercase hex strings. Addresses are JSON
//! integers (the codec is `u64`-exact; see [`crate::json`]).
//!
//! Every message type round-trips `encode → parse → decode` losslessly and
//! — because the serializer is canonical — byte-identically, which the
//! `codec_props` suite checks for arbitrary messages.
//!
//! The serving path builds no JSON tree for a protocol line: requests and
//! replies are written directly in canonical form
//! ([`Request::encode_into`], [`Response::encode_into`]) and read in one
//! pass ([`Request::decode_line`], [`Response::decode_line`]). Each typed
//! result has one writer (such as [`EmitReply::write_json`]) and is read
//! back into its type in the same pass ([`TypedReply::decode_line`]).
//! The tree forms are the reference those are tested against: the tree
//! writers ([`Response::to_json`], [`EmitReply::to_json`]) build a tree,
//! and the tree decoders ([`Request::decode`], [`Response::decode`] and
//! every typed `from_json`, such as [`EmitReply::from_json`]) are the
//! tree *reader* run through the single pass's tables, not a second
//! assembly.
//! Both readers fill one table per wire value, and one assembly builds
//! the message or words its error, so they differ only in how they read
//! bytes. The tree still words the error for a line that is not JSON.
//! Two canonical lines skip even the single pass and are read by
//! comparing bytes: an `instruction` request exactly as
//! [`Request::encode_into`] writes it, and the empty `{}` success reply.

use crate::json::{self, obj, Json, JsonError, Number, Scanner, Text};
use e9patch::{
    AllocPolicy, PatchStats, RewriteConfig, RewriteOutput, SiteReport, SizeStats, TacticKind,
    Template,
};
use std::borrow::Cow;
use std::convert::Infallible;
use std::fmt;

/// The protocol version this crate speaks. Negotiated by the mandatory
/// leading `version` request; mismatches are rejected with
/// [`code::VERSION`].
pub const PROTOCOL_VERSION: u64 = 1;

/// JSON-RPC and application error codes.
pub mod code {
    /// Malformed JSON (unparsable request line).
    pub const PARSE: i64 = -32700;
    /// Structurally invalid request envelope.
    pub const INVALID_REQUEST: i64 = -32600;
    /// Unknown method name.
    pub const METHOD_NOT_FOUND: i64 = -32601;
    /// Parameters missing or of the wrong type.
    pub const INVALID_PARAMS: i64 = -32602;
    /// Command arrived in the wrong session state (e.g. `patch` before
    /// `binary`).
    pub const STATE: i64 = -1;
    /// The rewrite itself failed (duplicate patch, unknown instruction,
    /// malformed ELF, ...).
    pub const REWRITE: i64 = -2;
    /// Unsupported protocol version.
    pub const VERSION: i64 = -3;
    /// Instruction bytes did not decode (or decoded to a different length).
    pub const DECODE: i64 = -4;
    /// A per-session resource quota was exceeded (request line too long,
    /// too many patches/instructions, binary too big, ...). The offending
    /// command is rejected; the session itself stays serviceable.
    pub const LIMIT: i64 = -5;
    /// The server recovered from an internal fault while handling the
    /// command (panic isolation). The session survives; the command did
    /// not take effect.
    pub const INTERNAL: i64 = -6;
    /// The server is over its admission or pending-byte budget and shed
    /// this request (or this whole connection) instead of stalling. The
    /// command did not take effect; retry against a less loaded server.
    pub const BUSY: i64 = -7;
}

/// Lowercase hex encoding for binary payloads.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    hex_encode_into(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Append the lowercase hex of `bytes` to `out`, two digits per byte from
/// a table.
fn hex_encode_into(out: &mut Vec<u8>, bytes: &[u8]) {
    const PAIRS: [[u8; 2]; 256] = {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut pairs = [[0u8; 2]; 256];
        let mut b = 0;
        while b < 256 {
            pairs[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
            b += 1;
        }
        pairs
    };
    let start = out.len();
    out.resize(start + 2 * bytes.len(), 0);
    for (pair, &b) in out[start..].chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&PAIRS[usize::from(b)]);
    }
}

/// Inverse of [`hex_encode`]; accepts upper- and lowercase digits.
///
/// # Errors
///
/// Odd length or non-hex characters (the first one is named).
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    hex_decode_bytes(s.as_bytes())
}

/// [`hex_decode`] over the bytes of the text.
fn hex_decode_bytes(s: &[u8]) -> Result<Vec<u8>, String> {
    /// Each byte's digit value, or `BAD`.
    const BAD: u8 = 0xff;
    const NIBBLES: [u8; 256] = {
        let mut t = [BAD; 256];
        let mut d = 0;
        while d < 10 {
            t[b'0' as usize + d] = d as u8;
            d += 1;
        }
        let mut d = 0;
        while d < 6 {
            t[b'a' as usize + d] = 10 + d as u8;
            t[b'A' as usize + d] = 10 + d as u8;
            d += 1;
        }
        t
    };
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", s.len()));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        let (hi, lo) = (NIBBLES[usize::from(pair[0])], NIBBLES[usize::from(pair[1])]);
        // A digit's value is below 16; `BAD` is not.
        if (hi | lo) > 0xf {
            let bad = if hi == BAD { pair[0] } else { pair[1] };
            return Err(format!("bad hex byte {bad:#04x}"));
        }
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

/// One patch-protocol command (the `method` + `params` of a request).
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Protocol-version negotiation; must be the session's first command.
    Version {
        /// Version the client speaks.
        version: u64,
    },
    /// Deliver the input binary image.
    Binary {
        /// Raw ELF bytes.
        bytes: Vec<u8>,
        /// Optional client-computed tree digest of `bytes`
        /// (`e9cache::tree::tree_digest`). The server *verifies* it once
        /// at intake — never trusts it blindly (a forged digest would
        /// poison the shared cache for every other client) — and then
        /// reuses it for every emit in the session, so the binary is
        /// hashed exactly once end to end instead of once per request.
        digest: Option<e9cache::Digest>,
    },
    /// Set one rewriter option. [`config_options`] spells the pairs a
    /// frontend sends and [`apply_option`] is the one decoder.
    Option {
        /// Option name.
        name: String,
        /// Option value, as text.
        value: String,
    },
    /// Reserve an address range with contents (an instrumentation-runtime
    /// segment the frontend wants in the output).
    Reserve {
        /// Virtual load address.
        vaddr: u64,
        /// Segment contents.
        bytes: Vec<u8>,
        /// Executable?
        exec: bool,
        /// Writable?
        write: bool,
    },
    /// Declare one instruction of disassembly info (address + raw bytes;
    /// the backend re-decodes — locations and sizes are a tool *input*,
    /// paper §2.2).
    Instruction {
        /// Instruction address.
        addr: u64,
        /// The instruction's exact bytes.
        bytes: Vec<u8>,
    },
    /// Request a patch at `addr`. Buffered server-side until `emit` so the
    /// planner sees the whole batch and S1 reverse-order semantics hold.
    Patch {
        /// Patch-location address (must match a declared instruction).
        addr: u64,
        /// Trampoline payload.
        template: Template,
    },
    /// Plan a symbol-driven hook batch server-side (`e9hook`): resolve
    /// the spec against the session's binary and buffered disassembly,
    /// and buffer the resulting reserve/patch batch exactly as if the
    /// client had streamed it. Must arrive after `binary` and the
    /// `instruction` stream; a following `emit` runs the rewrite. Because
    /// planning is deterministic, the buffered batch — and therefore the
    /// emitted binary and its cache key — is byte-identical to a client
    /// planning the same spec locally.
    Hook {
        /// Function name patterns (exact or glob).
        funcs: Vec<String>,
        /// Explicit entry addresses (stripped-binary fallback).
        addrs: Vec<u64>,
        /// Build call-original thunks.
        call_original: bool,
        /// Payload body.
        payload: e9hook::PayloadKind,
    },
    /// Run the rewrite over everything buffered and return the patched
    /// binary plus statistics.
    Emit,
    /// Query or manage the server's rewrite cache (PR 5). Allowed in any
    /// session state — it touches no per-session rewrite state.
    Cache {
        /// What to do.
        action: CacheAction,
    },
    /// Report per-subsystem daemon health (serving mode, cache tiers and
    /// breaker, shed counters, fault injection). Allowed in any session
    /// state, including before `version` — an operator probing a wedged
    /// or mid-upgrade daemon must not need a handshake first.
    Health,
    /// Ask the server to stop accepting connections (daemon) or end the
    /// session (stdio).
    Shutdown,
}

/// The values of a wire enum beside the one spelling of each, in code
/// order: a value's compact code is its position plus one.
struct Names<T: 'static>(&'static [(T, &'static str)]);

impl<T: Copy + PartialEq> Names<T> {
    fn position(&self, v: T) -> usize {
        self.0
            .iter()
            .position(|&(x, _)| x == v)
            .expect("every value has a name")
    }

    fn name(&self, v: T) -> &'static str {
        self.0[self.position(v)].1
    }

    fn named(&self, name: &str) -> Option<T> {
        self.0.iter().find(|&&(_, n)| n == name).map(|&(v, _)| v)
    }

    fn code(&self, v: T) -> u8 {
        self.position(v) as u8 + 1
    }

    fn with_code(&self, code: u8) -> Option<T> {
        let i = usize::from(code).checked_sub(1)?;
        self.0.get(i).map(|&(v, _)| v)
    }
}

/// Actions of the `cache` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Return counters and tier occupancy.
    Stats,
    /// Drop every entry from both tiers.
    Clear,
}

const CACHE_ACTIONS: Names<CacheAction> =
    Names(&[(CacheAction::Stats, "stats"), (CacheAction::Clear, "clear")]);

impl CacheAction {
    /// The wire name of the action.
    pub fn name(self) -> &'static str {
        CACHE_ACTIONS.name(self)
    }

    /// Inverse of [`name`](CacheAction::name).
    pub fn from_name(s: &str) -> Option<CacheAction> {
        CACHE_ACTIONS.named(s)
    }
}

impl Command {
    /// The wire method name.
    pub fn method(&self) -> &'static str {
        match self {
            Command::Version { .. } => "version",
            Command::Binary { .. } => "binary",
            Command::Option { .. } => "option",
            Command::Reserve { .. } => "reserve",
            Command::Instruction { .. } => "instruction",
            Command::Patch { .. } => "patch",
            Command::Hook { .. } => "hook",
            Command::Emit => "emit",
            Command::Cache { .. } => "cache",
            Command::Health => "health",
            Command::Shutdown => "shutdown",
        }
    }

    /// Append the canonical `params` object to `out`.
    fn write_params(&self, out: &mut Vec<u8>) {
        let o = ObjWriter::new(out);
        match self {
            Command::Version { version } => o.u64("version", *version),
            Command::Binary { bytes, digest } => {
                let o = o.hex("bytes", bytes);
                match digest {
                    Some(d) => o.hex("digest", d),
                    None => o,
                }
            }
            Command::Option { name, value } => o.str("name", name).str("value", value),
            Command::Reserve {
                vaddr,
                bytes,
                exec,
                write,
            } => o
                .u64("vaddr", *vaddr)
                .hex("bytes", bytes)
                .bool("exec", *exec)
                .bool("write", *write),
            Command::Instruction { addr, bytes } => o.u64("addr", *addr).hex("bytes", bytes),
            Command::Patch { addr, template } => o
                .u64("addr", *addr)
                .with("template", |out| write_template(out, template)),
            Command::Hook {
                funcs,
                addrs,
                call_original,
                payload,
            } => o
                .with("funcs", |out| {
                    write_array(out, funcs, |out, f| json::write_str(out, f))
                })
                .with("addrs", |out| {
                    write_array(out, addrs, |out, &a| json::write_u64(out, a))
                })
                .bool("call_original", *call_original)
                .with("payload", |out| write_payload(out, payload)),
            Command::Cache { action } => o.str("action", action.name()),
            Command::Emit | Command::Health | Command::Shutdown => o,
        }
        .end();
    }
}

/// Writes one canonical JSON object straight into a line buffer, member
/// by member. Keys are plain ASCII and written as they are.
struct ObjWriter<'o> {
    out: &'o mut Vec<u8>,
    first: bool,
}

impl<'o> ObjWriter<'o> {
    fn new(out: &'o mut Vec<u8>) -> ObjWriter<'o> {
        out.push(b'{');
        ObjWriter { out, first: true }
    }

    /// Member `key`, its value written by `value`.
    fn with(mut self, key: &str, value: impl FnOnce(&mut Vec<u8>)) -> Self {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
        value(self.out);
        self
    }

    fn u64(self, key: &str, v: u64) -> Self {
        self.with(key, |out| json::write_u64(out, v))
    }

    fn opt_u64(self, key: &str, v: Option<u64>) -> Self {
        self.with(key, |out| match v {
            Some(n) => json::write_u64(out, n),
            None => out.extend_from_slice(b"null"),
        })
    }

    fn str(self, key: &str, v: &str) -> Self {
        self.with(key, |out| json::write_str(out, v))
    }

    fn hex(self, key: &str, bytes: &[u8]) -> Self {
        self.with(key, |out| {
            out.push(b'"');
            hex_encode_into(out, bytes);
            out.push(b'"');
        })
    }

    fn bool(self, key: &str, v: bool) -> Self {
        self.with(key, |out| {
            out.extend_from_slice(if v { b"true" } else { b"false" })
        })
    }

    fn end(self) {
        self.out.push(b'}');
    }
}

/// Append `items` as a JSON array, each written by `item`.
fn write_array<T>(out: &mut Vec<u8>, items: &[T], item: impl Fn(&mut Vec<u8>, &T)) {
    out.push(b'[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        item(out, v);
    }
    out.push(b']');
}

/// Hook payloads on the wire: `{"kind":K, ...}`.
fn write_payload(out: &mut Vec<u8>, p: &e9hook::PayloadKind) {
    let o = ObjWriter::new(out);
    match p {
        e9hook::PayloadKind::Counter => o.str("kind", "counter"),
        e9hook::PayloadKind::Nop => o.str("kind", "nop"),
        e9hook::PayloadKind::Raw(code) => o.str("kind", "raw").hex("code", code),
    }
    .end();
}

/// Trampoline templates on the wire: `{"kind":K, ...}`.
fn write_template(out: &mut Vec<u8>, t: &Template) {
    let o = ObjWriter::new(out);
    match t {
        Template::Empty => o.str("kind", "empty"),
        Template::Counter { counter_addr } => {
            o.str("kind", "counter").u64("counter_addr", *counter_addr)
        }
        Template::CheckCall { func_addr } => {
            o.str("kind", "checkcall").u64("func_addr", *func_addr)
        }
        Template::HookCall { func_addr } => o.str("kind", "hookcall").u64("func_addr", *func_addr),
        Template::HookSave { func_addr } => o.str("kind", "hooksave").u64("func_addr", *func_addr),
        Template::HookOriginal {
            func_addr,
            thunk_addr,
        } => o
            .str("kind", "hookoriginal")
            .u64("func_addr", *func_addr)
            .u64("thunk_addr", *thunk_addr),
        Template::Replace { code, resume } => o
            .str("kind", "replace")
            .hex("code", code)
            .opt_u64("resume", *resume),
    }
    .end();
}

/// A request envelope: an id plus a [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// The command.
    pub cmd: Command,
}

impl Request {
    /// Serialize to one canonical JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        String::from_utf8(out).expect("request lines are UTF-8")
    }

    /// Append the canonical line (no trailing newline) to `out`, written
    /// directly, with no [`Json`] tree.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"jsonrpc\":\"2.0\",\"id\":");
        json::write_u64(out, self.id);
        out.extend_from_slice(b",\"method\":\"");
        out.extend_from_slice(self.cmd.method().as_bytes());
        out.extend_from_slice(b"\",\"params\":");
        self.cmd.write_params(out);
        out.push(b'}');
    }

    /// Decode one request line in a single pass, with no [`Json`] tree:
    /// any member order, whitespace and escapes, the first occurrence of
    /// a repeated key, unknown members ignored.
    ///
    /// The result is always [`Request::decode_line_via_tree`]'s: the two
    /// readers fill the same table, and one assembly words the reply. A
    /// line the single pass reads to its end gets its reply, error or
    /// not, from that assembly. A line the pass stops on is one that is
    /// not JSON: [`json::check`] words its [`code::PARSE`] error as
    /// [`json::parse`] would, without building a tree, and only a line
    /// that passes the check goes on to the tree.
    ///
    /// Before the pass, the exact line [`Request::encode_into`] writes for
    /// an `instruction`, the bulk of every job, is read by comparing bytes
    /// into the same request. Any other spelling of it goes to the pass.
    ///
    /// # Errors
    ///
    /// The error reply, as [`Request::decode_line_via_tree`] gives it.
    pub fn decode_line(line: &[u8]) -> Result<Request, Response> {
        if let Some(req) = instruction_line(line) {
            return Ok(req);
        }
        scan_request(line).unwrap_or_else(|_| match json::check(line) {
            Err(e) => Err(Response::err(
                None,
                RpcError::new(code::PARSE, e.to_string()),
            )),
            Ok(()) => Request::decode_line_via_tree(line),
        })
    }

    /// The reference line decoder: [`json::parse`], then the tree reader
    /// and the assembly of [`Request::decode`]. [`Request::decode_line`]
    /// must agree with it on every line; tests and the `e9fault` wire
    /// campaign compare the two.
    ///
    /// # Errors
    ///
    /// The error reply: [`code::PARSE`] with a `null` id for a line that
    /// is not JSON; otherwise [`Request::decode`]'s error, with the id
    /// kept when the envelope carried a valid one.
    pub fn decode_line_via_tree(line: &[u8]) -> Result<Request, Response> {
        let value = json::parse(line)
            .map_err(|e| Response::err(None, RpcError::new(code::PARSE, e.to_string())))?;
        let mut envelope = Envelope::default();
        let Ok(()) = envelope.read(&mut &value);
        envelope.request()
    }

    /// Decode a parsed JSON value into a typed request: the tree reader
    /// fills the table that the single pass fills, and the same assembly
    /// builds the request or words its error.
    ///
    /// # Errors
    ///
    /// [`code::INVALID_REQUEST`] for a broken envelope,
    /// [`code::METHOD_NOT_FOUND`] for an unknown method and
    /// [`code::INVALID_PARAMS`] for missing or mistyped parameters.
    pub fn decode(v: &Json) -> Result<Request, RpcError> {
        let mut envelope = Envelope::default();
        let Ok(()) = envelope.read(&mut &*v);
        envelope.decode()
    }
}

/// A protocol-level error (the `error` member of a response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcError {
    /// One of the [`code`] constants.
    pub code: i64,
    /// Human-readable description.
    pub message: String,
}

impl RpcError {
    /// An error with `code` and `message`.
    pub fn new<S: Into<String>>(code: i64, message: S) -> RpcError {
        RpcError {
            code,
            message: message.into(),
        }
    }

    /// An [`code::INVALID_PARAMS`] error.
    pub fn invalid_params<S: Into<String>>(message: S) -> RpcError {
        RpcError::new(code::INVALID_PARAMS, message)
    }

    /// An [`code::STATE`] error.
    pub fn state<S: Into<String>>(message: S) -> RpcError {
        RpcError::new(code::STATE, message)
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rpc error {}: {}", self.code, self.message)
    }
}

impl std::error::Error for RpcError {}

/// A response envelope: the echoed id plus result-or-error.
///
/// `id` is `None` when the request line could not be parsed at all
/// (JSON-RPC's `"id":null` convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id; `None` → `null` (parse errors).
    pub id: Option<u64>,
    /// Result payload or error.
    pub body: Result<Json, RpcError>,
}

impl Response {
    /// A success response.
    pub fn ok(id: u64, result: Json) -> Response {
        Response {
            id: Some(id),
            body: Ok(result),
        }
    }

    /// An error response.
    pub fn err(id: Option<u64>, e: RpcError) -> Response {
        Response { id, body: Err(e) }
    }

    /// Serialize to one canonical JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        String::from_utf8(out).expect("reply lines are UTF-8")
    }

    /// Append the canonical line (no trailing newline) to `out`: the
    /// envelope is written directly and the `result` by reference, with
    /// no tree built around it. The bytes are those of
    /// [`to_json`](Response::to_json)`().serialize()`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"jsonrpc\":\"2.0\",\"id\":");
        match self.id {
            Some(n) => json::write_u64(out, n),
            None => out.extend_from_slice(b"null"),
        }
        match &self.body {
            Ok(result) => {
                out.extend_from_slice(b",\"result\":");
                result.write_to(out);
            }
            Err(e) => {
                out.extend_from_slice(b",\"error\":{\"code\":");
                json::write_int(out, i128::from(e.code));
                out.extend_from_slice(b",\"message\":");
                json::write_str(out, &e.message);
                out.push(b'}');
            }
        }
        out.push(b'}');
    }

    /// The response as a tree: the reference form whose serialization
    /// [`encode`](Response::encode) must match byte for byte.
    pub fn to_json(&self) -> Json {
        let id = match self.id {
            Some(n) => Json::Int(n as i128),
            None => Json::Null,
        };
        let mut members = vec![("jsonrpc", Json::Str("2.0".into())), ("id", id)];
        match &self.body {
            Ok(result) => members.push(("result", result.clone())),
            Err(e) => members.push((
                "error",
                obj(vec![
                    ("code", Json::Int(e.code as i128)),
                    ("message", Json::Str(e.message.clone())),
                ]),
            )),
        }
        obj(members)
    }

    /// Decode one reply line in a single pass: the envelope is read with
    /// the request decoder's scanner, and `result` becomes a [`Json`]
    /// value as it is read (an empty `{}` allocates nothing). The result
    /// is always [`Response::decode`]'s after [`json::parse`]: both
    /// readers feed one envelope rule. A line the pass stops on is not
    /// JSON: [`json::check`] words the parse error without a tree, and
    /// only a line that passes it is parsed.
    ///
    /// # Errors
    ///
    /// As [`Response::decode`], or the parse error.
    pub fn decode_line(line: &[u8]) -> Result<Response, String> {
        if let Some(id) = empty_result_id(line) {
            return Ok(Response::ok(id, Json::Obj(Vec::new())));
        }
        scan_response(line).unwrap_or_else(|_| Response::decode(&parse_checked(line)?))
    }

    /// Decode a parsed JSON value into a typed response: the reference
    /// for [`Response::decode_line`].
    ///
    /// # Errors
    ///
    /// Returns a string description when the envelope is malformed.
    pub fn decode(v: &Json) -> Result<Response, String> {
        let Ok(envelope) = ReplyEnvelope::read(&mut &*v, |r| r.value(1));
        let (id, body) = envelope.response()?;
        Ok(Response { id, body })
    }

    /// Append the success reply to request `id` to `out`, its `result`
    /// written by `result`: the bytes of [`Response::ok`]`(id,
    /// ..)`[`.encode_into`](Response::encode_into) with no tree needed.
    pub fn write_ok(out: &mut Vec<u8>, id: u64, result: impl FnOnce(&mut Vec<u8>)) {
        out.extend_from_slice(b"{\"jsonrpc\":\"2.0\",\"id\":");
        json::write_u64(out, id);
        out.extend_from_slice(b",\"result\":");
        result(out);
        out.push(b'}');
    }
}

/// The id of `line` if it is exactly the canonical `{}` success reply,
/// `{"jsonrpc":"2.0","id":N,"result":{}}` with `N` of at most 19 digits
/// and no leading zero: the reply to every `instruction`, `patch`,
/// `reserve` and `option`, read by comparing bytes. Any other spelling
/// is read by the single pass.
fn empty_result_id(line: &[u8]) -> Option<u64> {
    let (id, rest) = plain_u64(line.strip_prefix(b"{\"jsonrpc\":\"2.0\",\"id\":")?)?;
    (rest == b",\"result\":{}}").then_some(id)
}

/// The request of `line` if it is exactly the line [`Request::encode_into`]
/// writes for [`Command::Instruction`]:
/// `{"jsonrpc":"2.0","id":N,"method":"instruction","params":{"addr":A,"bytes":"H"}}`
/// with `N` and `A` as [`plain_u64`] reads them and `H` one to fifteen
/// bytes in lowercase hex. It is read by comparing bytes, and gives the
/// request the single pass would; any other spelling is left to the
/// single pass.
fn instruction_line(line: &[u8]) -> Option<Request> {
    let (id, rest) = plain_u64(line.strip_prefix(b"{\"jsonrpc\":\"2.0\",\"id\":")?)?;
    let rest = rest.strip_prefix(b",\"method\":\"instruction\",\"params\":{\"addr\":")?;
    let (addr, rest) = plain_u64(rest)?;
    let hex = rest.strip_prefix(b",\"bytes\":\"")?.strip_suffix(b"\"}}")?;
    if !matches!(hex.len(), 2..=30) || hex.iter().any(u8::is_ascii_uppercase) {
        return None;
    }
    let bytes = hex_decode_bytes(hex).ok()?;
    Some(Request {
        id,
        cmd: Command::Instruction { addr, bytes },
    })
}

/// The integer at the start of `text` and the bytes after it, if it is
/// written as [`json::Scanner`]'s fast rule reads one: `0`, or one to
/// nineteen digits without a leading zero, followed by no further digit.
/// Nineteen digits always fit a `u64`.
fn plain_u64(text: &[u8]) -> Option<(u64, &[u8])> {
    let len = text
        .iter()
        .take(20)
        .take_while(|b| b.is_ascii_digit())
        .count();
    let (digits, rest) = text.split_at(len);
    if len > 19 || !matches!(digits, [b'0'] | [b'1'..=b'9', ..]) {
        return None;
    }
    Some((
        digits.iter().fold(0, |n, &d| n * 10 + u64::from(d - b'0')),
        rest,
    ))
}

/// A line that the single pass stopped on, parsed for its tree: the
/// parse error is worded by [`json::check`] first, without a tree.
fn parse_checked(line: &[u8]) -> Result<Json, String> {
    json::check(line).map_err(|e| e.to_string())?;
    json::parse(line).map_err(|e| e.to_string())
}

/// A reply line with its `result` read in the same pass as the envelope
/// into a typed reply `T`, through its member table and with no tree:
/// what [`TypedReply::decode_line`] gives. The value or error is the one
/// `T::from_json` gives for the `result` of [`Response::decode`]. A reply
/// whose `error` wins has none.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedResponse<T> {
    /// As [`Response::id`].
    pub id: Option<u64>,
    /// The in-band error, or the `result` decoded.
    pub body: Result<Result<T, String>, RpcError>,
}

/// A reply whose `result` has a type: [`EmitReply`], [`HookReply`],
/// [`CacheStatsReply`], [`HealthReply`] and the `cache clear` reply's
/// `cleared`.
pub trait TypedReply: Sized {
    /// Decode one reply line in a single pass, its `result` into `Self`.
    /// Only a line the pass stops on is parsed, once [`json::check`]
    /// finds it is JSON, and its tree read through the same table.
    ///
    /// # Errors
    ///
    /// As [`Response::decode_line`].
    fn decode_line(line: &[u8]) -> Result<TypedResponse<Self>, String>;
}

impl<T: ReadResult> TypedReply for T {
    fn decode_line(line: &[u8]) -> Result<TypedResponse<T>, String> {
        let (id, body) = match scan(line, |s| ReplyEnvelope::read(s, |s| T::read(s, 1))) {
            Ok(envelope) => envelope.response()?,
            Err(_) => {
                let tree = parse_checked(line)?;
                let Ok(envelope) = ReplyEnvelope::read(&mut &tree, |r| T::read(r, 1));
                envelope.response()?
            }
        };
        Ok(TypedResponse { id, body })
    }
}

/// A typed reply's `result` at `depth`, read by either reader into its
/// member table and built by its one assembly.
trait ReadResult: Sized {
    fn read<'a, R: Reader<'a>>(r: &mut R, depth: usize) -> Result<Result<Self, String>, R::Error>;
}

/// A typed reply's `result` read from its tree: `T`'s `from_json`.
fn from_tree<T: ReadResult>(v: &Json) -> Result<T, String> {
    let Ok(reply) = T::read(&mut &*v, 0);
    reply
}

// ---- line decoding: two readers, one table ------------------------------

/// A scalar member as it was spelled, before a type rule looks at it. An
/// array or an object is `Other`. A string stays borrowed, its escapes
/// undecoded until a rule reads it, so an atom owns nothing.
#[derive(Clone, Copy)]
enum Atom<'a> {
    Null,
    Bool(bool),
    Int(i128),
    Str(Text<'a>),
    Other,
}

impl<'a> Atom<'a> {
    fn u64(&self) -> Option<u64> {
        match self {
            Atom::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    fn bool(&self) -> Option<bool> {
        match self {
            Atom::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn str(&self) -> Option<Cow<'a, str>> {
        match self {
            Atom::Str(s) => Some(s.get()),
            _ => None,
        }
    }
}

/// One JSON value as the decoding tables read it. Two readers implement
/// it: the [`Scanner`] walks a line once and builds no tree but the
/// values asked for (the serving path), and a parsed [`Json`] tree is
/// the reference. Every method consumes the value, whatever its type;
/// `depth` is its nesting depth.
trait Reader<'a> {
    /// What stops the reader: a syntax error for the scanner, nothing
    /// for a tree.
    type Error;

    /// The value as an [`Atom`].
    fn atom(&mut self, depth: usize) -> Result<Atom<'a>, Self::Error>;

    /// The value as a tree.
    fn value(&mut self, depth: usize) -> Result<Json, Self::Error>;

    /// The value kept whole, for the assembly to read as a tree.
    fn subtree(&mut self, depth: usize) -> Result<Subtree<'a>, Self::Error>;

    /// Step over the value.
    fn skip(&mut self, depth: usize) -> Result<(), Self::Error>;

    /// Call `member` with the reader on each member of an object, and its
    /// key, in order. A value of another type has no members.
    fn members(
        &mut self,
        depth: usize,
        member: impl FnMut(&mut Self, &str) -> Result<(), Self::Error>,
    ) -> Result<(), Self::Error>;

    /// Call `element` with the reader on each element of an array, in
    /// order, and answer `true`. A value of another type is stepped over
    /// and answers `false`.
    fn elements(
        &mut self,
        depth: usize,
        element: impl FnMut(&mut Self) -> Result<(), Self::Error>,
    ) -> Result<bool, Self::Error>;
}

impl<'a> Reader<'a> for Scanner<'a> {
    type Error = JsonError;

    fn atom(&mut self, depth: usize) -> Result<Atom<'a>, JsonError> {
        Ok(match self.peek() {
            Some(b'"') => Atom::Str(self.text()?),
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::Int(i) => Atom::Int(i),
                Number::Float(_) => Atom::Other,
            },
            Some(b'[' | b'{') => {
                self.skip(depth)?;
                Atom::Other
            }
            _ => match self.value(depth)? {
                Json::Null => Atom::Null,
                Json::Bool(b) => Atom::Bool(b),
                _ => Atom::Other,
            },
        })
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        Scanner::value(self, depth)
    }

    fn subtree(&mut self, depth: usize) -> Result<Subtree<'a>, JsonError> {
        self.skip_span(depth).map(Subtree::Text)
    }

    fn skip(&mut self, depth: usize) -> Result<(), JsonError> {
        Scanner::skip(self, depth)
    }

    fn members(
        &mut self,
        depth: usize,
        member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() == Some(b'{') {
            self.object(member)
        } else {
            self.skip(depth)
        }
    }

    fn elements(
        &mut self,
        depth: usize,
        element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.peek() == Some(b'[') {
            self.array(element).map(|()| true)
        } else {
            self.skip(depth).map(|()| false)
        }
    }
}

impl<'a> Reader<'a> for &'a Json {
    type Error = Infallible;

    fn atom(&mut self, _: usize) -> Result<Atom<'a>, Infallible> {
        Ok(match *self {
            Json::Null => Atom::Null,
            Json::Bool(b) => Atom::Bool(*b),
            Json::Int(i) => Atom::Int(*i),
            Json::Str(s) => Atom::Str(Text::plain(s)),
            _ => Atom::Other,
        })
    }

    fn value(&mut self, _: usize) -> Result<Json, Infallible> {
        Ok(Json::clone(self))
    }

    fn subtree(&mut self, _: usize) -> Result<Subtree<'a>, Infallible> {
        Ok(Subtree::Tree(self))
    }

    fn skip(&mut self, _: usize) -> Result<(), Infallible> {
        Ok(())
    }

    fn members(
        &mut self,
        _: usize,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), Infallible>,
    ) -> Result<(), Infallible> {
        if let Json::Obj(members) = *self {
            for (key, value) in members {
                member(&mut &*value, key)?;
            }
        }
        Ok(())
    }

    fn elements(
        &mut self,
        _: usize,
        mut element: impl FnMut(&mut Self) -> Result<(), Infallible>,
    ) -> Result<bool, Infallible> {
        let Json::Arr(items) = *self else {
            return Ok(false);
        };
        for item in items {
            element(&mut &*item)?;
        }
        Ok(true)
    }
}

/// A member kept whole and read as a tree only by the assembly: the
/// scanner's span of checked text, or the reference reader's subtree.
#[derive(Clone, Copy)]
enum Subtree<'a> {
    Text(&'a [u8]),
    Tree(&'a Json),
}

impl<'a> Subtree<'a> {
    fn tree(self) -> Cow<'a, Json> {
        match self {
            Subtree::Text(text) => {
                Cow::Owned(json::parse(text).expect("the scanner checked the span it skipped"))
            }
            Subtree::Tree(v) => Cow::Borrowed(v),
        }
    }
}

/// Read a member into `slot` at its key's first occurrence, with `read`,
/// and step over a repeat, as [`Json::get`] finds the first.
fn first<'a, R: Reader<'a>, T>(
    slot: &mut Option<T>,
    r: &mut R,
    depth: usize,
    read: impl FnOnce(&mut R) -> Result<T, R::Error>,
) -> Result<(), R::Error> {
    if slot.is_some() {
        r.skip(depth)
    } else {
        *slot = Some(read(r)?);
        Ok(())
    }
}

/// Read a whole line in one pass; a syntax error anywhere stops it.
fn scan<'a, T>(
    line: &'a [u8],
    read: impl FnOnce(&mut Scanner<'a>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut s = Scanner::new(line);
    let read = read(&mut s)?;
    s.end()?;
    Ok(read)
}

/// A request line in one pass: its request or error reply, or the
/// syntax error that stopped the pass.
fn scan_request(line: &[u8]) -> Result<Result<Request, Response>, JsonError> {
    let mut envelope = Envelope::default();
    scan(line, |s| envelope.read(s))?;
    Ok(envelope.request())
}

/// A reply line in one pass: its response or envelope error, or the
/// syntax error that stopped the pass.
fn scan_response(line: &[u8]) -> Result<Result<Response, String>, JsonError> {
    let envelope = scan(line, |s| ReplyEnvelope::read(s, |s| s.value(1)))?;
    Ok(envelope.response().map(|(id, body)| Response { id, body }))
}

/// A table slot and its wire name, which is the field's name.
macro_rules! slot {
    ($table:ident . $field:ident) => {
        (&$table.$field, stringify!($field))
    };
}

/// A request's envelope members, each at its first occurrence. The
/// readers fill it in place, so a line costs no copy of the table.
#[derive(Default)]
struct Envelope<'a> {
    id: Option<Atom<'a>>,
    method: Option<Atom<'a>>,
    /// Whether `params` was read; a value that is not an object has no
    /// members.
    has_params: bool,
    params: Params<'a>,
}

/// The `params` members the methods read, each at its first occurrence
/// and as it was spelled.
#[derive(Default)]
struct Params<'a> {
    version: Option<Atom<'a>>,
    bytes: Option<Atom<'a>>,
    digest: Option<Atom<'a>>,
    name: Option<Atom<'a>>,
    value: Option<Atom<'a>>,
    vaddr: Option<Atom<'a>>,
    exec: Option<Atom<'a>>,
    write: Option<Atom<'a>>,
    addr: Option<Atom<'a>>,
    template: Option<Kinded<'a>>,
    /// Read as trees by the assembly: only `hook` has arrays, once per
    /// job.
    funcs: Option<Subtree<'a>>,
    addrs: Option<Subtree<'a>>,
    call_original: Option<Atom<'a>>,
    payload: Option<Kinded<'a>>,
    action: Option<Atom<'a>>,
}

/// The members of a template or a hook payload: its `kind` and the
/// fields the kinds use.
#[derive(Default)]
struct Kinded<'a> {
    kind: Option<Atom<'a>>,
    counter_addr: Option<Atom<'a>>,
    func_addr: Option<Atom<'a>>,
    thunk_addr: Option<Atom<'a>>,
    code: Option<Atom<'a>>,
    resume: Option<Atom<'a>>,
}

impl<'a> Envelope<'a> {
    /// Read the request object (a value of another type has no members).
    fn read<R: Reader<'a>>(&mut self, r: &mut R) -> Result<(), R::Error> {
        r.members(0, |r, key| match key {
            "id" => first(&mut self.id, r, 1, |r| r.atom(1)),
            "method" => first(&mut self.method, r, 1, |r| r.atom(1)),
            "params" if !self.has_params => {
                self.has_params = true;
                self.params.read(r, 1)
            }
            _ => r.skip(1),
        })
    }

    /// The request, or the error reply to it, which keeps the id when the
    /// envelope carried a valid one.
    fn request(&self) -> Result<Request, Response> {
        let id = self.id.as_ref().and_then(Atom::u64);
        self.decode().map_err(|e| Response::err(id, e))
    }

    /// The one assembly of a request: each method's members in order, the
    /// type rules, and every error's code and wording. A member that is
    /// absent or mistyped is missing, as with [`Json::get`] then `as_u64`.
    fn decode(&self) -> Result<Request, RpcError> {
        let invalid = |m: &str| RpcError::new(code::INVALID_REQUEST, m);
        let id = self
            .id
            .as_ref()
            .and_then(Atom::u64)
            .ok_or_else(|| invalid("missing integer id"))?;
        let method = self
            .method
            .as_ref()
            .and_then(Atom::str)
            .ok_or_else(|| invalid("missing method"))?;
        let p = &self.params;
        let at = Wording("");
        let cmd = match &*method {
            "version" => Command::Version {
                version: at.get(slot!(p.version), Atom::u64)?,
            },
            "binary" => Command::Binary {
                bytes: at.hex(slot!(p.bytes))?,
                digest: match &p.digest {
                    None | Some(Atom::Null) => None,
                    Some(Atom::Str(s)) => Some(
                        e9cache::sha256::from_hex(&s.get())
                            .ok_or_else(|| at.error("digest: expected 64 hex chars"))?,
                    ),
                    Some(_) => return Err(at.error("digest: expected a string")),
                },
            },
            "option" => Command::Option {
                name: at.get(slot!(p.name), Atom::str)?.into_owned(),
                value: at.get(slot!(p.value), Atom::str)?.into_owned(),
            },
            "reserve" => Command::Reserve {
                vaddr: at.get(slot!(p.vaddr), Atom::u64)?,
                bytes: at.hex(slot!(p.bytes))?,
                exec: at.get(slot!(p.exec), Atom::bool)?,
                write: at.get(slot!(p.write), Atom::bool)?,
            },
            "instruction" => Command::Instruction {
                addr: at.get(slot!(p.addr), Atom::u64)?,
                bytes: at.hex(slot!(p.bytes))?,
            },
            "patch" => Command::Patch {
                addr: at.get(slot!(p.addr), Atom::u64)?,
                template: at.get(slot!(p.template), Some)?.template()?,
            },
            "hook" => Command::Hook {
                funcs: at.each(
                    slot!(p.funcs),
                    |f| f.as_str().map(str::to_string),
                    "strings",
                )?,
                addrs: at.each(slot!(p.addrs), Json::as_u64, "integers")?,
                call_original: at.get(slot!(p.call_original), Atom::bool)?,
                payload: at.get(slot!(p.payload), Some)?.payload()?,
            },
            "emit" => Command::Emit,
            "cache" => {
                let action = at.get(slot!(p.action), Atom::str)?;
                Command::Cache {
                    action: CacheAction::from_name(&action)
                        .ok_or_else(|| at.error(format_args!("unknown cache action {action:?}")))?,
                }
            }
            "health" => Command::Health,
            "shutdown" => Command::Shutdown,
            other => {
                return Err(RpcError::new(
                    code::METHOD_NOT_FOUND,
                    format!("unknown method {other:?}"),
                ))
            }
        };
        Ok(Request { id, cmd })
    }
}

impl<'a> Params<'a> {
    /// Read the `params` value at `depth`.
    fn read<R: Reader<'a>>(&mut self, r: &mut R, depth: usize) -> Result<(), R::Error> {
        let d = depth + 1;
        r.members(depth, |r, key| {
            let slot = match key {
                "version" => &mut self.version,
                "bytes" => &mut self.bytes,
                "digest" => &mut self.digest,
                "name" => &mut self.name,
                "value" => &mut self.value,
                "vaddr" => &mut self.vaddr,
                "exec" => &mut self.exec,
                "write" => &mut self.write,
                "addr" => &mut self.addr,
                "call_original" => &mut self.call_original,
                "action" => &mut self.action,
                "template" => return first(&mut self.template, r, d, |r| Kinded::read(r, d)),
                "payload" => return first(&mut self.payload, r, d, |r| Kinded::read(r, d)),
                "funcs" => return first(&mut self.funcs, r, d, |r| r.subtree(d)),
                "addrs" => return first(&mut self.addrs, r, d, |r| r.subtree(d)),
                _ => return r.skip(d),
            };
            first(slot, r, d, |r| r.atom(d))
        })
    }
}

impl<'a> Kinded<'a> {
    /// Read a template or payload value at `depth`.
    #[inline(never)]
    fn read<R: Reader<'a>>(r: &mut R, depth: usize) -> Result<Kinded<'a>, R::Error> {
        let mut k = Kinded::default();
        let d = depth + 1;
        r.members(depth, |r, key| {
            let slot = match key {
                "kind" => &mut k.kind,
                "counter_addr" => &mut k.counter_addr,
                "func_addr" => &mut k.func_addr,
                "thunk_addr" => &mut k.thunk_addr,
                "code" => &mut k.code,
                "resume" => &mut k.resume,
                _ => return r.skip(d),
            };
            first(slot, r, d, |r| r.atom(d))
        })?;
        Ok(k)
    }

    /// The one assembly of a trampoline template.
    fn template(&self) -> Result<Template, RpcError> {
        let at = Wording("template: ");
        Ok(match &*at.get(slot!(self.kind), Atom::str)? {
            "empty" => Template::Empty,
            "counter" => Template::Counter {
                counter_addr: at.get(slot!(self.counter_addr), Atom::u64)?,
            },
            "checkcall" => Template::CheckCall {
                func_addr: at.get(slot!(self.func_addr), Atom::u64)?,
            },
            "hookcall" => Template::HookCall {
                func_addr: at.get(slot!(self.func_addr), Atom::u64)?,
            },
            "hooksave" => Template::HookSave {
                func_addr: at.get(slot!(self.func_addr), Atom::u64)?,
            },
            "hookoriginal" => Template::HookOriginal {
                func_addr: at.get(slot!(self.func_addr), Atom::u64)?,
                thunk_addr: at.get(slot!(self.thunk_addr), Atom::u64)?,
            },
            "replace" => Template::Replace {
                code: at.hex(slot!(self.code))?,
                resume: match &self.resume {
                    None | Some(Atom::Null) => None,
                    Some(a) => Some(a.u64().ok_or_else(|| at.error("bad resume"))?),
                },
            },
            other => return Err(at.error(format_args!("unknown kind {other:?}"))),
        })
    }

    /// The one assembly of a hook payload.
    fn payload(&self) -> Result<e9hook::PayloadKind, RpcError> {
        let at = Wording("payload: ");
        Ok(match &*at.get(slot!(self.kind), Atom::str)? {
            "counter" => e9hook::PayloadKind::Counter,
            "nop" => e9hook::PayloadKind::Nop,
            "raw" => e9hook::PayloadKind::Raw(at.hex(slot!(self.code))?),
            other => return Err(at.error(format_args!("unknown kind {other:?}"))),
        })
    }
}

/// Words the [`code::INVALID_PARAMS`] errors of one object's members,
/// after a prefix: none for `params`, the value's name for a template or
/// payload.
#[derive(Clone, Copy)]
struct Wording(&'static str);

impl Wording {
    fn error(self, message: impl fmt::Display) -> RpcError {
        RpcError::invalid_params(format!("{}{message}", self.0))
    }

    /// The member in the named slot under the type rule `rule`; one that
    /// is absent or that `rule` refuses is missing.
    fn get<'s, S, T>(
        self,
        (slot, name): (&'s Option<S>, &str),
        rule: impl FnOnce(&'s S) -> Option<T>,
    ) -> Result<T, RpcError> {
        slot.as_ref()
            .and_then(rule)
            .ok_or_else(|| self.error(format_args!("missing {name}")))
    }

    /// A hex string member, decoded.
    fn hex(self, (slot, name): (&Option<Atom>, &str)) -> Result<Vec<u8>, RpcError> {
        hex_decode(&self.get((slot, name), Atom::str)?).map_err(|e| self.error(e))
    }

    /// An array member, each element under `rule`; an element that
    /// `rule` refuses is `{name}: expected {kinds}`.
    fn each<T>(
        self,
        (slot, name): (&Option<Subtree>, &str),
        rule: impl Fn(&Json) -> Option<T>,
        kinds: &str,
    ) -> Result<Vec<T>, RpcError> {
        let tree = slot.map(Subtree::tree);
        self.get((&tree, name), |v| v.as_arr())?
            .iter()
            .map(|v| rule(v).ok_or_else(|| self.error(format_args!("{name}: expected {kinds}"))))
            .collect()
    }
}

/// A reply's envelope members, each at its first occurrence; `T` is the
/// `result` as its reader reads it.
struct ReplyEnvelope<'a, T> {
    id: Option<Atom<'a>>,
    result: Option<T>,
    /// The `error` object's `code` and `message`.
    error: Option<(Option<Atom<'a>>, Option<Atom<'a>>)>,
}

impl<'a, T> ReplyEnvelope<'a, T> {
    /// Read the reply object (a value of another type has no members),
    /// its `result` with `result`.
    fn read<R: Reader<'a>>(
        r: &mut R,
        mut result: impl FnMut(&mut R) -> Result<T, R::Error>,
    ) -> Result<ReplyEnvelope<'a, T>, R::Error> {
        let mut e = ReplyEnvelope {
            id: None,
            result: None,
            error: None,
        };
        r.members(0, |r, key| match key {
            "id" => first(&mut e.id, r, 1, |r| r.atom(1)),
            "result" => first(&mut e.result, r, 1, &mut result),
            "error" => first(&mut e.error, r, 1, |r| {
                let (mut code, mut message) = (None, None);
                r.members(1, |r, key| match key {
                    "code" => first(&mut code, r, 2, |r| r.atom(2)),
                    "message" => first(&mut message, r, 2, |r| r.atom(2)),
                    _ => r.skip(2),
                })?;
                Ok((code, message))
            }),
            _ => r.skip(1),
        })?;
        Ok(e)
    }

    /// The one envelope rule: an error wins over a result, whatever their
    /// order; its code must fit an `i64`; a message that is not a string
    /// reads as empty. The id and the body.
    fn response(self) -> Result<(Option<u64>, Result<T, RpcError>), String> {
        let id = match self.id {
            None | Some(Atom::Null) => None,
            Some(a) => Some(a.u64().ok_or("non-integer response id")?),
        };
        let body = match (self.error, self.result) {
            (Some((code, message)), _) => Err(RpcError {
                code: match code {
                    Some(Atom::Int(c)) => {
                        i64::try_from(c).map_err(|_| format!("error code {c} out of range"))?
                    }
                    _ => return Err("error without integer code".into()),
                },
                message: match message {
                    Some(Atom::Str(s)) => s.get().into_owned(),
                    _ => String::new(),
                },
            }),
            (None, Some(result)) => Ok(result),
            (None, None) => return Err("response with neither result nor error".into()),
        };
        Ok((id, body))
    }
}

// ---- rewriter options ---------------------------------------------------

/// The wire name of a trampoline allocation policy (`low` or `high`).
pub fn alloc_name(policy: AllocPolicy) -> &'static str {
    match policy {
        AllocPolicy::FirstFitLow => "low",
        AllocPolicy::FirstFitHigh => "high",
    }
}

/// The `option` pairs that carry `cfg` to a backend, in the order a
/// frontend sends them. [`apply_option`] is their inverse.
/// [`RewriteConfig::jobs`] is not sent: nothing reads it.
pub fn config_options(cfg: &RewriteConfig) -> [(&'static str, String); 7] {
    [
        ("t1", cfg.tactics.t1.to_string()),
        ("t2", cfg.tactics.t2.to_string()),
        ("t3", cfg.tactics.t3.to_string()),
        ("b0", cfg.b0_fallback.to_string()),
        ("grouping", cfg.grouping.to_string()),
        ("granularity", cfg.granularity.to_string()),
        ("alloc", alloc_name(cfg.alloc_policy).to_string()),
    ]
}

/// Apply one `option` pair to `cfg`; a rejected pair leaves `cfg` as it
/// was. `jobs` is accepted (an integer ≥ 1) and ignored, so older
/// clients that send it keep working.
///
/// # Errors
///
/// [`code::INVALID_PARAMS`] for an unknown name, a malformed value, or a
/// granularity that [`RewriteConfig::check`] rejects.
pub fn apply_option(cfg: &mut RewriteConfig, name: &str, value: &str) -> Result<(), RpcError> {
    let want =
        |what: &str| RpcError::invalid_params(format!("option {name}: want {what}, got {value:?}"));
    let flag = || match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(want("true|false")),
    };
    let count = || {
        value
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| want("an integer >= 1"))
    };
    match name {
        "t1" => cfg.tactics.t1 = flag()?,
        "t2" => cfg.tactics.t2 = flag()?,
        "t3" => cfg.tactics.t3 = flag()?,
        "b0" => cfg.b0_fallback = flag()?,
        "grouping" => cfg.grouping = flag()?,
        "granularity" => {
            let next = RewriteConfig {
                granularity: count()?,
                ..*cfg
            };
            next.check()
                .map_err(|e| RpcError::invalid_params(format!("option granularity: {e}")))?;
            *cfg = next;
        }
        "alloc" => {
            cfg.alloc_policy = [AllocPolicy::FirstFitLow, AllocPolicy::FirstFitHigh]
                .into_iter()
                .find(|&p| alloc_name(p) == value)
                .ok_or_else(|| want("low|high"))?;
        }
        "jobs" => {
            count()?;
        }
        _ => return Err(RpcError::invalid_params(format!("unknown option {name:?}"))),
    }
    Ok(())
}

// ---- typed emit reply ---------------------------------------------------

/// One loader mapping in an [`EmitReply`]: the rewriter's own
/// [`Mapping`](e9patch::loader::Mapping), so converting between a reply
/// and a [`RewriteOutput`] moves the table instead of copying it.
pub use e9patch::loader::Mapping as WireMapping;

/// How the rewrite cache participated in an `emit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheDisposition {
    /// No cache configured.
    #[default]
    Off,
    /// Served from the cache — the reply bytes were NOT recomputed.
    Hit,
    /// Computed cold and stored for next time.
    Miss,
    /// A cache was configured but the input was below the bypass
    /// threshold: computed cold, nothing keyed, nothing stored.
    Bypass,
}

const DISPOSITIONS: Names<CacheDisposition> = Names(&[
    (CacheDisposition::Off, "off"),
    (CacheDisposition::Hit, "hit"),
    (CacheDisposition::Miss, "miss"),
    (CacheDisposition::Bypass, "bypass"),
]);

impl CacheDisposition {
    /// The wire name.
    pub fn name(self) -> &'static str {
        DISPOSITIONS.name(self)
    }

    /// Inverse of [`name`](CacheDisposition::name).
    pub fn from_name(s: &str) -> Option<CacheDisposition> {
        DISPOSITIONS.named(s)
    }
}

/// The fully-typed payload of a successful `emit` response: the patched
/// binary plus everything [`e9patch::RewriteOutput`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct EmitReply {
    /// The patched output binary.
    pub binary: Vec<u8>,
    /// Tactic outcome counters.
    pub stats: PatchStats,
    /// File-size / mapping statistics.
    pub size: SizeStats,
    /// Virtual address of the injected loader.
    pub loader_addr: u64,
    /// Number of B0 trap registrations.
    pub trap_count: u64,
    /// Per-site outcome reports, in processing order.
    pub reports: Vec<SiteReport>,
    /// The loader's mapping table.
    pub mappings: Vec<WireMapping>,
    /// Whether this reply came from the rewrite cache.
    ///
    /// *Not* part of the cached payload semantics: the server overrides
    /// it per-response, and the cache key covers only rewrite inputs.
    pub cache: CacheDisposition,
    /// Hex cache key of the request, when a cache was consulted.
    pub digest: Option<String>,
}

/// The tactics in code order, each with its wire name.
const TACTICS: Names<TacticKind> = Names(&[
    (TacticKind::B0, "B0"),
    (TacticKind::B1, "B1"),
    (TacticKind::B2, "B2"),
    (TacticKind::T1, "T1"),
    (TacticKind::T2, "T2"),
    (TacticKind::T3, "T3"),
]);

impl EmitReply {
    /// Serialize to the `result` object of an `emit` response.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(v.into());
        let or_null = |v: Option<Json>| v.unwrap_or(Json::Null);
        let (s, z) = (&self.stats, &self.size);
        let report = |r: &SiteReport| {
            obj(vec![
                ("addr", int(r.addr)),
                ("insn_len", int(r.insn_len.into())),
                (
                    "tactic",
                    or_null(r.tactic.map(|t| Json::Str(TACTICS.name(t).into()))),
                ),
                ("trampoline", or_null(r.trampoline.map(int))),
            ])
        };
        let mapping = |m: &WireMapping| {
            obj(vec![
                ("vaddr", int(m.vaddr)),
                ("file_off", int(m.file_off)),
                ("len", int(m.len)),
            ])
        };
        obj(vec![
            ("binary", Json::Str(hex_encode(&self.binary))),
            (
                "stats",
                obj(vec![
                    ("b1", int(s.b1 as u64)),
                    ("b2", int(s.b2 as u64)),
                    ("t1", int(s.t1 as u64)),
                    ("t2", int(s.t2 as u64)),
                    ("t3", int(s.t3 as u64)),
                    ("b0", int(s.b0 as u64)),
                    ("failed", int(s.failed as u64)),
                ]),
            ),
            (
                "size",
                obj(vec![
                    ("input_bytes", int(z.input_bytes)),
                    ("output_bytes", int(z.output_bytes)),
                    ("virtual_blocks", int(z.virtual_blocks)),
                    ("physical_blocks", int(z.physical_blocks)),
                    ("mappings", int(z.mappings)),
                    ("granularity", int(z.granularity)),
                ]),
            ),
            ("loader_addr", int(self.loader_addr)),
            ("trap_count", int(self.trap_count)),
            (
                "reports",
                Json::Arr(self.reports.iter().map(report).collect()),
            ),
            (
                "mappings",
                Json::Arr(self.mappings.iter().map(mapping).collect()),
            ),
            ("cache", Json::Str(self.cache.name().into())),
            ("digest", or_null(self.digest.clone().map(Json::Str))),
        ])
    }

    /// Append the `result` object of an `emit` response to `out`, written
    /// directly from the reply: the bytes of
    /// [`to_json`](EmitReply::to_json)`().serialize()`, with the binary's
    /// hex written from its bytes and no object built per report.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        let s = &self.stats;
        let z = &self.size;
        out.reserve(
            2 * self.binary.len() + 80 * self.reports.len() + 60 * self.mappings.len() + 512,
        );
        ObjWriter::new(out)
            .hex("binary", &self.binary)
            .with("stats", |out| {
                ObjWriter::new(out)
                    .u64("b1", s.b1 as u64)
                    .u64("b2", s.b2 as u64)
                    .u64("t1", s.t1 as u64)
                    .u64("t2", s.t2 as u64)
                    .u64("t3", s.t3 as u64)
                    .u64("b0", s.b0 as u64)
                    .u64("failed", s.failed as u64)
                    .end()
            })
            .with("size", |out| {
                ObjWriter::new(out)
                    .u64("input_bytes", z.input_bytes)
                    .u64("output_bytes", z.output_bytes)
                    .u64("virtual_blocks", z.virtual_blocks)
                    .u64("physical_blocks", z.physical_blocks)
                    .u64("mappings", z.mappings)
                    .u64("granularity", z.granularity)
                    .end()
            })
            .u64("loader_addr", self.loader_addr)
            .u64("trap_count", self.trap_count)
            .with("reports", |out| {
                write_array(out, &self.reports, |out, r| {
                    ObjWriter::new(out)
                        .u64("addr", r.addr)
                        .u64("insn_len", u64::from(r.insn_len))
                        .with("tactic", |out| match r.tactic {
                            Some(t) => json::write_str(out, TACTICS.name(t)),
                            None => out.extend_from_slice(b"null"),
                        })
                        .opt_u64("trampoline", r.trampoline)
                        .end()
                })
            })
            .with("mappings", |out| {
                write_array(out, &self.mappings, |out, m| {
                    ObjWriter::new(out)
                        .u64("vaddr", m.vaddr)
                        .u64("file_off", m.file_off)
                        .u64("len", m.len)
                        .end()
                })
            })
            .str("cache", self.cache.name())
            .with("digest", |out| match &self.digest {
                Some(d) => json::write_str(out, d),
                None => out.extend_from_slice(b"null"),
            })
            .end();
    }

    /// Decode the `result` object of an `emit` response: the tree read
    /// through the table that the one-pass reader fills.
    ///
    /// # Errors
    ///
    /// A string description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<EmitReply, String> {
        from_tree(v)
    }

    /// The one assembly of an `emit` result from the members that
    /// [`EmitReply::read`] read: each member in order, its type rule and the
    /// wording of its error.
    fn assemble(m: EmitMembers<'_>) -> Result<EmitReply, String> {
        let top = &m.top;
        let binary = hex_decode(&top.need("binary", Atom::str)?)?;
        let s = m.stats.ok_or_else(|| top.missing("stats"))?;
        let stats = PatchStats {
            b1: s.u64("b1")? as usize,
            b2: s.u64("b2")? as usize,
            t1: s.u64("t1")? as usize,
            t2: s.u64("t2")? as usize,
            t3: s.u64("t3")? as usize,
            b0: s.u64("b0")? as usize,
            failed: s.u64("failed")? as usize,
        };
        let z = m.size.ok_or_else(|| top.missing("size"))?;
        let size = SizeStats {
            input_bytes: z.u64("input_bytes")?,
            output_bytes: z.u64("output_bytes")?,
            virtual_blocks: z.u64("virtual_blocks")?,
            physical_blocks: z.u64("physical_blocks")?,
            mappings: z.u64("mappings")?,
            granularity: z.u64("granularity")?,
        };
        let reports = m.reports.unwrap_or_else(|| Err(top.missing("reports")))?;
        let mappings = m.mappings.unwrap_or_else(|| Err(top.missing("mappings")))?;
        // Replies from servers older than the cache omit both fields.
        let cache = top
            .opt("cache", Atom::str, "bad cache field")?
            .map(|name| {
                CacheDisposition::from_name(&name)
                    .ok_or_else(|| format!("bad cache disposition {name:?}"))
            })
            .transpose()?
            .unwrap_or_default();
        let digest = top
            .opt("digest", Atom::str, "bad digest field")?
            .map(Cow::into_owned);
        Ok(EmitReply {
            binary,
            stats,
            size,
            loader_addr: top.u64("loader_addr")?,
            trap_count: top.u64("trap_count")?,
            reports,
            mappings,
            cache,
            digest,
        })
    }

    /// Serialize to the compact binary form the rewrite cache stores.
    ///
    /// The canonical-JSON form hex-encodes the patched binary (2 bytes
    /// per byte plus framing) and costs a full JSON parse on every warm
    /// hit; this codec stores the artifact verbatim — the payload is
    /// within ~1% of the binary's own size and a hit decodes with a
    /// handful of bounds checks. Fixed little-endian framing, fully
    /// length-checked on decode. The per-response `cache`/`digest` fields
    /// are deliberately NOT encoded: the server stamps them on each
    /// reply, they are not part of the cached artifact.
    pub fn encode_bin(&self) -> Vec<u8> {
        fn put(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut out = Vec::with_capacity(
            1 + 8
                + self.binary.len()
                + 15 * 8
                + 8
                + self.reports.len() * 19
                + 8
                + self.mappings.len() * 24,
        );
        out.push(EMIT_BIN_VERSION);
        put(&mut out, self.binary.len() as u64);
        out.extend_from_slice(&self.binary);
        let s = &self.stats;
        for v in [s.b1, s.b2, s.t1, s.t2, s.t3, s.b0, s.failed] {
            put(&mut out, v as u64);
        }
        let z = &self.size;
        for v in [
            z.input_bytes,
            z.output_bytes,
            z.virtual_blocks,
            z.physical_blocks,
            z.mappings,
            z.granularity,
        ] {
            put(&mut out, v);
        }
        put(&mut out, self.loader_addr);
        put(&mut out, self.trap_count);
        put(&mut out, self.reports.len() as u64);
        for r in &self.reports {
            put(&mut out, r.addr);
            out.push(r.insn_len);
            out.push(match r.tactic {
                None => 0,
                Some(t) => TACTICS.code(t),
            });
            match r.trampoline {
                None => out.push(0),
                Some(addr) => {
                    out.push(1);
                    put(&mut out, addr);
                }
            }
        }
        put(&mut out, self.mappings.len() as u64);
        for m in &self.mappings {
            put(&mut out, m.vaddr);
            put(&mut out, m.file_off);
            put(&mut out, m.len);
        }
        out
    }

    /// Decode the compact binary form ([`encode_bin`](EmitReply::encode_bin)).
    /// `cache` comes back [`CacheDisposition::Off`] and `digest` `None` —
    /// the server stamps both per response.
    ///
    /// # Errors
    ///
    /// A string description of the first malformed field; cache payloads
    /// are integrity-checked by the store, so an error here means encoder
    /// and decoder disagree and the caller recomputes cold.
    pub fn decode_bin(raw: &[u8]) -> Result<EmitReply, String> {
        let mut r = BinReader { raw, pos: 0 };
        let version = r.u8()?;
        if version != EMIT_BIN_VERSION {
            return Err(format!(
                "emit reply: unknown binary codec version {version}"
            ));
        }
        let binary = r.bytes_with_len()?;
        let stats = PatchStats {
            b1: r.u64()? as usize,
            b2: r.u64()? as usize,
            t1: r.u64()? as usize,
            t2: r.u64()? as usize,
            t3: r.u64()? as usize,
            b0: r.u64()? as usize,
            failed: r.u64()? as usize,
        };
        let size = SizeStats {
            input_bytes: r.u64()?,
            output_bytes: r.u64()?,
            virtual_blocks: r.u64()?,
            physical_blocks: r.u64()?,
            mappings: r.u64()?,
            granularity: r.u64()?,
        };
        let loader_addr = r.u64()?;
        let trap_count = r.u64()?;
        let n_reports = r.count()?;
        let mut reports = Vec::with_capacity(n_reports);
        for _ in 0..n_reports {
            let addr = r.u64()?;
            let insn_len = r.u8()?;
            let tactic = match r.u8()? {
                0 => None,
                code => Some(
                    TACTICS
                        .with_code(code)
                        .ok_or("emit reply: bad tactic code")?,
                ),
            };
            let trampoline = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err("emit reply: bad trampoline flag".into()),
            };
            reports.push(SiteReport {
                addr,
                insn_len,
                tactic,
                trampoline,
            });
        }
        let n_mappings = r.count()?;
        let mut mappings = Vec::with_capacity(n_mappings);
        for _ in 0..n_mappings {
            mappings.push(WireMapping {
                vaddr: r.u64()?,
                file_off: r.u64()?,
                len: r.u64()?,
            });
        }
        if r.pos != raw.len() {
            return Err("emit reply: trailing bytes".into());
        }
        Ok(EmitReply {
            binary,
            stats,
            size,
            loader_addr,
            trap_count,
            reports,
            mappings,
            cache: CacheDisposition::Off,
            digest: None,
        })
    }
}

/// The one conversion from the rewriter's output to its reply form
/// (what a session sends and what the cache stores). Both directions
/// move every buffer; the cache fields start unset.
impl From<RewriteOutput> for EmitReply {
    fn from(out: RewriteOutput) -> EmitReply {
        EmitReply {
            binary: out.binary,
            stats: out.stats,
            size: out.size,
            loader_addr: out.loader_addr,
            trap_count: out.trap_count as u64,
            reports: out.reports,
            mappings: out.mappings,
            cache: CacheDisposition::Off,
            digest: None,
        }
    }
}

/// Inverse of `From<RewriteOutput>`; drops the per-response cache fields.
impl From<EmitReply> for RewriteOutput {
    fn from(reply: EmitReply) -> RewriteOutput {
        RewriteOutput {
            binary: reply.binary,
            stats: reply.stats,
            size: reply.size,
            loader_addr: reply.loader_addr,
            trap_count: reply.trap_count as usize,
            reports: reply.reports,
            mappings: reply.mappings,
        }
    }
}

/// The members of an `emit` result, each at its first occurrence, as
/// [`EmitReply::read`] reads them.
struct EmitMembers<'a> {
    /// `binary`, `loader_addr`, `trap_count`, `cache` and `digest`.
    top: Fields<'a, 5>,
    stats: Option<Fields<'a, 7>>,
    size: Option<Fields<'a, 6>>,
    /// Each array's elements, built as they are read; the first element
    /// that does not build is the error, as is a value that is not an
    /// array.
    reports: Option<Result<Vec<SiteReport>, String>>,
    mappings: Option<Result<Vec<WireMapping>, String>>,
}

impl ReadResult for EmitReply {
    fn read<'a, R: Reader<'a>>(r: &mut R, depth: usize) -> Result<Result<Self, String>, R::Error> {
        const WHAT: &str = "emit reply";
        let d = depth + 1;
        let mut m = EmitMembers {
            top: Fields::new(WHAT, EMIT),
            stats: None,
            size: None,
            reports: None,
            mappings: None,
        };
        r.members(depth, |r, key| match key {
            "stats" => first(&mut m.stats, r, d, |r| Fields::new(WHAT, STATS).read(r, d)),
            "size" => first(&mut m.size, r, d, |r| Fields::new(WHAT, SIZE).read(r, d)),
            "reports" => first(&mut m.reports, r, d, |r| {
                each(r, d, "reports", Fields::new(WHAT, REPORT), |r| {
                    Ok(SiteReport {
                        tactic: r
                            .opt("tactic", Atom::str, "bad tactic field")?
                            .map(|name| {
                                TACTICS
                                    .named(&name)
                                    .ok_or_else(|| format!("bad tactic {name:?}"))
                            })
                            .transpose()?,
                        trampoline: r.opt("trampoline", Atom::u64, "bad trampoline field")?,
                        addr: r.u64("addr")?,
                        insn_len: r.narrow("insn_len")?,
                    })
                })
            }),
            "mappings" => first(&mut m.mappings, r, d, |r| {
                each(r, d, "mappings", Fields::new(WHAT, MAPPING), |m| {
                    Ok(WireMapping {
                        vaddr: m.u64("vaddr")?,
                        file_off: m.u64("file_off")?,
                        len: m.u64("len")?,
                    })
                })
            }),
            _ => m.top.member(r, d, key),
        })?;
        Ok(EmitReply::assemble(m))
    }
}

const EMIT: [&str; 5] = ["binary", "loader_addr", "trap_count", "cache", "digest"];
const STATS: [&str; 7] = ["b1", "b2", "t1", "t2", "t3", "b0", "failed"];
const SIZE: [&str; 6] = [
    "input_bytes",
    "output_bytes",
    "virtual_blocks",
    "physical_blocks",
    "mappings",
    "granularity",
];
const REPORT: [&str; 4] = ["tactic", "trampoline", "addr", "insn_len"];
const MAPPING: [&str; 3] = ["vaddr", "file_off", "len"];

/// The array at `depth`, each element read into a copy of `table` and
/// built by `build`. After the first element that does not build, the
/// rest are only stepped over. A value that is not an array is
/// `table`'s `{what}: missing {name}`.
fn each<'a, R: Reader<'a>, T, const N: usize>(
    r: &mut R,
    depth: usize,
    name: &str,
    table: Fields<'a, N>,
    mut build: impl FnMut(Fields<'a, N>) -> Result<T, String>,
) -> Result<Result<Vec<T>, String>, R::Error> {
    let mut items = Ok(Vec::new());
    let array = r.elements(depth, |r| match &mut items {
        Ok(v) => {
            match build(table.read(r, depth + 1)?) {
                Ok(item) => v.push(item),
                Err(e) => items = Err(e),
            }
            Ok(())
        }
        Err(_) => r.skip(depth + 1),
    })?;
    Ok(if array {
        items
    } else {
        Err(table.missing(name))
    })
}

/// The members `names` of one reply object, each at its first
/// occurrence and as it was spelled: the one member table of every typed
/// reply, filled by either reader. The type rules word an error
/// `{what}: missing {name}`, `what` being the reply's name. A value that
/// is not an object has none of the members.
#[derive(Clone, Copy)]
struct Fields<'a, const N: usize> {
    what: &'static str,
    names: [&'static str; N],
    atoms: [Option<Atom<'a>>; N],
}

impl<'a, const N: usize> Fields<'a, N> {
    fn new(what: &'static str, names: [&'static str; N]) -> Fields<'a, N> {
        Fields {
            what,
            names,
            atoms: [None; N],
        }
    }

    /// The table filled from the object at `depth`.
    fn read<R: Reader<'a>>(mut self, r: &mut R, depth: usize) -> Result<Fields<'a, N>, R::Error> {
        r.members(depth, |r, key| self.member(r, depth + 1, key))?;
        Ok(self)
    }

    /// Read the member `key` at `depth` into its slot, or step over it
    /// when the table does not name it.
    fn member<R: Reader<'a>>(
        &mut self,
        r: &mut R,
        depth: usize,
        key: &str,
    ) -> Result<(), R::Error> {
        match self.names.iter().position(|&n| n == key) {
            Some(i) => first(&mut self.atoms[i], r, depth, |r| r.atom(depth)),
            None => r.skip(depth),
        }
    }

    fn get(&self, name: &str) -> Option<Atom<'a>> {
        let i = self.names.iter().position(|&n| n == name)?;
        self.atoms[i]
    }

    fn missing(&self, name: &str) -> String {
        format!("{}: missing {name}", self.what)
    }

    /// The member `name` under the type rule `rule`; one that is absent
    /// or that `rule` refuses is missing.
    fn need<T>(&self, name: &str, rule: impl FnOnce(&Atom<'a>) -> Option<T>) -> Result<T, String> {
        self.get(name)
            .as_ref()
            .and_then(rule)
            .ok_or_else(|| self.missing(name))
    }

    fn u64(&self, name: &str) -> Result<u64, String> {
        self.need(name, Atom::u64)
    }

    /// An integer member narrowed to `T`, or `{what}: {name} {v} out of
    /// range`.
    fn narrow<T: TryFrom<u64>>(&self, name: &str) -> Result<T, String> {
        let v = self.u64(name)?;
        T::try_from(v).map_err(|_| format!("{}: {name} {v} out of range", self.what))
    }

    /// An optional member: absent or `null` is `None`, and one that
    /// `rule` refuses is the error `bad`.
    fn opt<T>(
        &self,
        name: &str,
        rule: impl FnOnce(&Atom<'a>) -> Option<T>,
        bad: &str,
    ) -> Result<Option<T>, String> {
        match self.get(name) {
            None | Some(Atom::Null) => Ok(None),
            Some(a) => rule(&a).map(Some).ok_or_else(|| bad.to_string()),
        }
    }

    /// A tolerant member: absent, or one that `rule` refuses, is
    /// `default`.
    fn or<T>(&self, name: &str, rule: impl FnOnce(&Atom<'a>) -> Option<T>, default: T) -> T {
        self.get(name).as_ref().and_then(rule).unwrap_or(default)
    }
}

/// Version byte of the compact binary emit-reply codec.
const EMIT_BIN_VERSION: u8 = 1;

/// Bounds-checked little-endian reader for the binary emit-reply codec.
struct BinReader<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl BinReader<'_> {
    fn u8(&mut self) -> Result<u8, String> {
        let b = *self.raw.get(self.pos).ok_or("emit reply: truncated (u8)")?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.raw.len())
            .ok_or("emit reply: truncated (u64)")?;
        let v = u64::from_le_bytes(self.raw[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }

    /// A collection count, sanity-bounded by the remaining bytes so a
    /// corrupt count cannot drive a huge `Vec::with_capacity`.
    fn count(&mut self) -> Result<usize, String> {
        let n = self.u64()? as usize;
        if n > self.raw.len() - self.pos {
            return Err("emit reply: count exceeds remaining bytes".into());
        }
        Ok(n)
    }

    fn bytes_with_len(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u64()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.raw.len())
            .ok_or("emit reply: truncated (bytes)")?;
        let out = self.raw[self.pos..end].to_vec();
        self.pos = end;
        Ok(out)
    }
}

// ---- typed hook reply ----------------------------------------------------

/// The fully-typed payload of a successful `hook` response: the planned
/// hook records (the same data the manifest segment will carry) plus the
/// runtime addresses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HookReply {
    /// Planned hooks in function-address order (dense ids from 0).
    pub hooks: Vec<e9hook::HookRecord>,
    /// Base of the counter-cell table (counter payloads only).
    pub counters_addr: Option<u64>,
    /// Address of the manifest segment.
    pub manifest_addr: u64,
}

impl HookReply {
    /// Append the `result` object of a `hook` response to `out`.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        ObjWriter::new(out)
            .with("hooks", |out| {
                write_array(out, &self.hooks, |out, h| {
                    ObjWriter::new(out)
                        .u64("id", u64::from(h.id))
                        .u64("flags", u64::from(h.flags))
                        .u64("func_addr", h.func_addr)
                        .u64("payload_addr", h.payload_addr)
                        .u64("thunk_addr", h.thunk_addr)
                        .u64("counter_addr", h.counter_addr)
                        .str("name", &h.name)
                        .end()
                })
            })
            .opt_u64("counters_addr", self.counters_addr)
            .u64("manifest_addr", self.manifest_addr)
            .end();
    }

    /// Decode the `result` object of a `hook` response: the tree read
    /// through the reply's table.
    ///
    /// # Errors
    ///
    /// A string description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<HookReply, String> {
        from_tree(v)
    }
}

impl ReadResult for HookReply {
    fn read<'a, R: Reader<'a>>(r: &mut R, depth: usize) -> Result<Result<Self, String>, R::Error> {
        const WHAT: &str = "hook reply";
        let d = depth + 1;
        let mut top = Fields::new(WHAT, ["counters_addr", "manifest_addr"]);
        let mut hooks = None;
        r.members(depth, |r, key| match key {
            "hooks" => first(&mut hooks, r, d, |r| {
                each(r, d, "hooks", Fields::new(WHAT, HOOK), |h| {
                    Ok(e9hook::HookRecord {
                        id: h.narrow("id")?,
                        flags: h.narrow("flags")?,
                        func_addr: h.u64("func_addr")?,
                        payload_addr: h.u64("payload_addr")?,
                        thunk_addr: h.u64("thunk_addr")?,
                        counter_addr: h.u64("counter_addr")?,
                        name: h.need("name", Atom::str)?.into_owned(),
                    })
                })
            }),
            _ => top.member(r, d, key),
        })?;
        let hooks = hooks.unwrap_or_else(|| Err(top.missing("hooks")));
        Ok(hooks.and_then(|hooks| {
            let bad = "hook reply: bad counters_addr";
            Ok(HookReply {
                hooks,
                counters_addr: top.opt("counters_addr", Atom::u64, bad)?,
                manifest_addr: top.u64("manifest_addr")?,
            })
        }))
    }
}

const HOOK: [&str; 7] = [
    "id",
    "flags",
    "func_addr",
    "payload_addr",
    "thunk_addr",
    "counter_addr",
    "name",
];

// ---- typed cache-stats reply --------------------------------------------

/// The fully-typed payload of a successful `cache stats` response: a
/// snapshot of the server's [`e9cache::CacheStats`] plus whether a cache
/// is configured at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsReply {
    /// Whether the server has a cache at all (`false` → counters are 0).
    pub enabled: bool,
    /// Whether a disk tier is configured.
    pub disk: bool,
    /// Counter snapshot.
    pub stats: e9cache::CacheStats,
}

impl CacheStatsReply {
    /// Append the `result` object of a `cache stats` response to `out`.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        let s = &self.stats;
        ObjWriter::new(out)
            .bool("enabled", self.enabled)
            .bool("disk", self.disk)
            .u64("hits", s.hits)
            .u64("mem_hits", s.mem_hits)
            .u64("disk_hits", s.disk_hits)
            .u64("negative_hits", s.negative_hits)
            .u64("misses", s.misses)
            .u64("stores", s.stores)
            .u64("mem_evictions", s.mem_evictions)
            .u64("disk_evictions", s.disk_evictions)
            .u64("verify_failures", s.verify_failures)
            .u64("errors", s.errors)
            .u64("mem_entries", s.mem_entries)
            .u64("mem_bytes", s.mem_bytes)
            .u64("bypasses", s.bypasses)
            .u64("bypass_threshold", s.bypass_threshold)
            .bool("disk_breaker_open", s.disk_breaker_open)
            .u64("disk_breaker_trips", s.disk_breaker_trips)
            .u64("disk_breaker_fast_fails", s.disk_breaker_fast_fails)
            .u64("disk_breaker_probes", s.disk_breaker_probes)
            .u64("disk_breaker_recoveries", s.disk_breaker_recoveries)
            .end();
    }

    /// Decode the `result` object of a `cache stats` response: the tree
    /// read through the reply's table.
    ///
    /// # Errors
    ///
    /// A string description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<CacheStatsReply, String> {
        from_tree(v)
    }

    /// The one assembly of a `cache stats` result.
    fn assemble(m: &Fields<'_, 21>) -> Result<CacheStatsReply, String> {
        Ok(CacheStatsReply {
            enabled: m.need("enabled", Atom::bool)?,
            disk: m.need("disk", Atom::bool)?,
            stats: e9cache::CacheStats {
                hits: m.u64("hits")?,
                mem_hits: m.u64("mem_hits")?,
                disk_hits: m.u64("disk_hits")?,
                negative_hits: m.u64("negative_hits")?,
                misses: m.u64("misses")?,
                stores: m.u64("stores")?,
                mem_evictions: m.u64("mem_evictions")?,
                disk_evictions: m.u64("disk_evictions")?,
                verify_failures: m.u64("verify_failures")?,
                errors: m.u64("errors")?,
                mem_entries: m.u64("mem_entries")?,
                mem_bytes: m.u64("mem_bytes")?,
                // Tolerant: absent on pre-bypass servers.
                bypasses: m.or("bypasses", Atom::u64, 0),
                bypass_threshold: m.or("bypass_threshold", Atom::u64, 0),
                // Tolerant: absent on pre-breaker servers.
                disk_breaker_open: m.or("disk_breaker_open", Atom::bool, false),
                disk_breaker_trips: m.or("disk_breaker_trips", Atom::u64, 0),
                disk_breaker_fast_fails: m.or("disk_breaker_fast_fails", Atom::u64, 0),
                disk_breaker_probes: m.or("disk_breaker_probes", Atom::u64, 0),
                disk_breaker_recoveries: m.or("disk_breaker_recoveries", Atom::u64, 0),
            },
        })
    }
}

impl ReadResult for CacheStatsReply {
    fn read<'a, R: Reader<'a>>(r: &mut R, depth: usize) -> Result<Result<Self, String>, R::Error> {
        let m = Fields::new("cache stats", CACHE_STATS).read(r, depth)?;
        Ok(CacheStatsReply::assemble(&m))
    }
}

/// The `cleared` member of a successful `cache clear` response: whether
/// the server has a cache at all. A reply without a boolean `cleared` is
/// an error, never the `false` of a server with no cache.
pub(crate) struct CacheClearReply(pub(crate) bool);

impl ReadResult for CacheClearReply {
    fn read<'a, R: Reader<'a>>(r: &mut R, depth: usize) -> Result<Result<Self, String>, R::Error> {
        let m = Fields::new("cache clear", ["cleared"]).read(r, depth)?;
        Ok(m.need("cleared", Atom::bool).map(CacheClearReply))
    }
}

const CACHE_STATS: [&str; 21] = [
    "enabled",
    "disk",
    "hits",
    "mem_hits",
    "disk_hits",
    "negative_hits",
    "misses",
    "stores",
    "mem_evictions",
    "disk_evictions",
    "verify_failures",
    "errors",
    "mem_entries",
    "mem_bytes",
    "bypasses",
    "bypass_threshold",
    "disk_breaker_open",
    "disk_breaker_trips",
    "disk_breaker_fast_fails",
    "disk_breaker_probes",
    "disk_breaker_recoveries",
];

// ---- typed health reply --------------------------------------------------

/// The fully-typed payload of a successful `health` response: which
/// serving core is running, how much load it has shed, whether fault
/// injection is active, and the cache/breaker snapshot. This is the
/// operator's one-call view of every degradation the daemon can be in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReply {
    /// Which serving core answered: `stdio`, `reactor`, or
    /// `in-process` (no daemon at all).
    pub serving_mode: String,
    /// Connections refused at accept time (admission control).
    pub shed_admission: u64,
    /// Requests rejected with `BUSY` after admission.
    pub shed_busy: u64,
    /// Whether `e9failpt` fault injection is compiled-in *and* active.
    pub faults_enabled: bool,
    /// The active failpoint spec (empty when injection is inactive).
    pub fault_spec: String,
    /// Total faults injected since activation.
    pub faults_injected: u64,
    /// Cache + disk-breaker snapshot (same shape as `cache stats`).
    pub cache: CacheStatsReply,
}

impl HealthReply {
    /// Append the `result` object of a `health` response to `out`.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        ObjWriter::new(out)
            .with("cache", |out| self.cache.write_json(out))
            .with("faults", |out| {
                ObjWriter::new(out)
                    .bool("enabled", self.faults_enabled)
                    .u64("injected", self.faults_injected)
                    .str("spec", &self.fault_spec)
                    .end()
            })
            .str("serving_mode", &self.serving_mode)
            .with("shed", |out| {
                ObjWriter::new(out)
                    .u64("admission", self.shed_admission)
                    .u64("busy", self.shed_busy)
                    .end()
            })
            .end();
    }

    /// Decode the `result` object of a `health` response. Tolerant in
    /// the same way as [`CacheStatsReply::from_json`]: unknown servers
    /// may omit sections, which decode to their zero values — but a
    /// malformed `cache` section is an error.
    ///
    /// # Errors
    ///
    /// A string description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<HealthReply, String> {
        from_tree(v)
    }

    /// One-line human summary, in the `CacheStats::summary` style.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "health: serving {}, shed {} admission + {} busy, faults {}",
            self.serving_mode,
            self.shed_admission,
            self.shed_busy,
            if self.faults_enabled {
                format!(
                    "on ({} injected, spec {:?})",
                    self.faults_injected, self.fault_spec
                )
            } else {
                "off".to_string()
            },
        );
        if self.cache.enabled {
            line.push_str("; ");
            line.push_str(&self.cache.stats.summary());
        } else {
            line.push_str("; cache: disabled");
        }
        line
    }
}

impl ReadResult for HealthReply {
    fn read<'a, R: Reader<'a>>(r: &mut R, depth: usize) -> Result<Result<Self, String>, R::Error> {
        let d = depth + 1;
        let mut top = Fields::new("health", ["serving_mode"]);
        // A section that is absent has none of its members.
        let no_shed = Fields::new("health", ["admission", "busy"]);
        let no_faults = Fields::new("health", ["enabled", "spec", "injected"]);
        let (mut cache, mut shed, mut faults) = (None, None, None);
        r.members(depth, |r, key| match key {
            "cache" => first(&mut cache, r, d, |r| CacheStatsReply::read(r, d)),
            "shed" => first(&mut shed, r, d, |r| no_shed.read(r, d)),
            "faults" => first(&mut faults, r, d, |r| no_faults.read(r, d)),
            _ => top.member(r, d, key),
        })?;
        let (shed, faults) = (shed.unwrap_or(no_shed), faults.unwrap_or(no_faults));
        let cache = cache.unwrap_or(Ok(CacheStatsReply::default()));
        Ok(cache.map(|cache| HealthReply {
            serving_mode: top
                .or("serving_mode", Atom::str, "unknown".into())
                .into_owned(),
            shed_admission: shed.or("admission", Atom::u64, 0),
            shed_busy: shed.or("busy", Atom::u64, 0),
            faults_enabled: faults.or("enabled", Atom::bool, false),
            fault_spec: faults.or("spec", Atom::str, "".into()).into_owned(),
            faults_injected: faults.or("injected", Atom::u64, 0),
            cache,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use e9qcheck::prelude::*;

    /// The text a writer appends.
    fn written(write: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        write(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn hex_roundtrip() {
        let data = [0x00u8, 0x7f, 0x80, 0xff, 0xde, 0xad];
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(
            hex_decode("DEADbeef").unwrap(),
            vec![0xde, 0xad, 0xbe, 0xef]
        );
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    /// Wire bytes carry this encoding: every byte
    /// value must encode exactly as the `format!("{b:02x}")` reference.
    #[test]
    fn hex_encode_matches_format_reference_for_every_byte() {
        let all: Vec<u8> = (0..=255u8).collect();
        let reference: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_encode(&all), reference);
        assert_eq!(hex_encode(&[]), "");
    }

    #[test]
    fn request_roundtrip_all_methods() {
        let cmds = vec![
            Command::Version { version: 1 },
            Command::Binary {
                bytes: vec![0x7f, b'E', b'L', b'F'],
                digest: None,
            },
            Command::Binary {
                bytes: vec![0x7f, b'E', b'L', b'F'],
                digest: Some(e9cache::digest(b"roundtrip")),
            },
            Command::Option {
                name: "granularity".into(),
                value: "8".into(),
            },
            Command::Reserve {
                vaddr: 0x3000_0000,
                bytes: vec![0; 16],
                exec: false,
                write: true,
            },
            Command::Instruction {
                addr: u64::MAX - 4096,
                bytes: vec![0x48, 0x89, 0x03],
            },
            Command::Patch {
                addr: 0x401000,
                template: Template::Counter {
                    counter_addr: 0x30000000,
                },
            },
            Command::Patch {
                addr: 0x401003,
                template: Template::Replace {
                    code: vec![0x90, 0x90],
                    resume: Some(0x401010),
                },
            },
            Command::Emit,
            Command::Shutdown,
        ];
        for (i, cmd) in cmds.into_iter().enumerate() {
            let req = Request { id: i as u64, cmd };
            let line = req.encode();
            let back = Request::decode(&parse(line.as_bytes()).unwrap()).unwrap();
            assert_eq!(back, req);
            assert_eq!(back.encode(), line, "canonical encoding must be stable");
        }
    }

    /// The single pass reads canonical lines of every command, the usual
    /// non-canonical spellings, and well-formed lines with an error
    /// reply, itself, with the tree's result; it refuses only lines that
    /// are not JSON, whose error the parser words.
    #[test]
    fn single_pass_reads_well_formed_lines_itself() {
        let cmds = [
            Command::Version { version: 1 },
            Command::Binary {
                bytes: vec![0x7f, b'E'],
                digest: Some(e9cache::digest(b"x")),
            },
            Command::Option {
                name: "a\"b\\c\u{1}λ".into(),
                value: "8".into(),
            },
            Command::Reserve {
                vaddr: 1,
                bytes: vec![0; 3],
                exec: true,
                write: false,
            },
            Command::Instruction {
                addr: u64::MAX,
                bytes: vec![0x90],
            },
            Command::Patch {
                addr: 2,
                template: Template::HookOriginal {
                    func_addr: 3,
                    thunk_addr: 4,
                },
            },
            Command::Patch {
                addr: 2,
                template: Template::Replace {
                    code: vec![0xc3],
                    resume: None,
                },
            },
            Command::Hook {
                funcs: vec!["f*".into()],
                addrs: vec![5],
                call_original: true,
                payload: e9hook::PayloadKind::Raw(vec![0x90]),
            },
            Command::Emit,
            Command::Cache {
                action: CacheAction::Clear,
            },
            Command::Health,
            Command::Shutdown,
        ];
        let mut lines: Vec<String> = cmds
            .into_iter()
            .enumerate()
            .map(|(i, cmd)| Request { id: i as u64, cmd }.encode())
            .collect();
        lines.extend(
            [
                r#"{"params":{"bytes":"90","addr":7},"method":"instruction","id":1}"#,
                " {\t\"id\" : 1 ,\r\n\"method\":\"instr\\u0075ction\", \"params\":{\"addr\":7,\"bytes\":\"9\\u0030\"} } ",
                r#"{"id":1,"id":"x","method":"emit","method":7,"params":{},"params":9}"#,
                r#"{"id":1,"method":"patch","params":{"addr":7,"addr":[],"template":{"resume":null,"kind":"replace","code":"","kind":1}}}"#,
                r#"{"id":-0,"method":"health","params":5,"x":[{"y":[1.5e3,null,"\ud83d\ude00"]}]}"#,
            ]
            .map(String::from),
        );
        lines.extend(
            [
                r#"{"id":18446744073709551616,"method":"emit"}"#,
                r#"{"id":1,"method":"nope"}"#,
                r#"{"id":1,"method":"instruction","params":{"addr":7,"bytes":"9"}}"#,
                r#"["not","an","object"]"#,
            ]
            .map(String::from),
        );
        for line in &lines {
            let direct =
                scan_request(line.as_bytes()).unwrap_or_else(|e| panic!("refused {line}: {e}"));
            assert_eq!(
                direct,
                Request::decode_line_via_tree(line.as_bytes()),
                "{line}"
            );
        }
        let deep = format!(
            r#"{{"id":1,"method":"emit","params":{}1{}}}"#,
            "[".repeat(64),
            "]".repeat(64)
        );
        for bad in [
            r#"{"id":1,"method":"emit","params":{}"#,
            r#"{"id":1,"method":"emit"} x"#,
            r#"{"id":01,"method":"emit"}"#,
            &deep,
        ] {
            assert!(scan_request(bad.as_bytes()).is_err(), "{bad}");
            let reply = Request::decode_line(bad.as_bytes()).unwrap_err();
            assert_eq!(
                Err(reply),
                Request::decode_line_via_tree(bad.as_bytes()),
                "{bad}"
            );
        }
    }

    /// Reply lines: the single pass reads them itself, an empty result
    /// included, with the tree decoder's result.
    #[test]
    fn empty_result_replies_read_by_bytes_agree_with_the_tree() {
        let ids = [
            "0",
            "7",
            "01",
            "-1",
            "1.0",
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "",
        ];
        for id in ids {
            for line in [
                format!(r#"{{"jsonrpc":"2.0","id":{id},"result":{{}}}}"#),
                format!(r#"{{"jsonrpc":"2.0","id":{id},"result":{{ }}}}"#),
                format!(r#"{{"jsonrpc":"2.0","id":{id},"result":{{}}}} "#),
            ] {
                let via_tree = parse(line.as_bytes())
                    .map_err(|e| e.to_string())
                    .and_then(|v| Response::decode(&v));
                assert_eq!(Response::decode_line(line.as_bytes()), via_tree, "{line}");
            }
        }
        assert_eq!(
            empty_result_id(br#"{"jsonrpc":"2.0","id":9999999999999999999,"result":{}}"#),
            Some(9_999_999_999_999_999_999)
        );
        assert_eq!(
            empty_result_id(br#"{"jsonrpc":"2.0","id":01,"result":{}}"#),
            None
        );
    }

    props! {
        /// Every line `encode_into` writes for an instruction of 1 to 15
        /// bytes, with an id and an address below 10^19, is read by
        /// comparing bytes: a byte path that never fired would pass the
        /// equivalence property in `codec_props` all the same.
        #[test]
        fn encoded_instruction_lines_take_the_byte_path(
            id in (1u32..=19, any::<u64>()),
            addr in (1u32..=19, any::<u64>()),
            bytes in vec(any::<u8>(), 1..16),
        ) {
            let below = |(digits, raw): (u32, u64)| raw % 10u64.pow(digits);
            let req = Request {
                id: below(id),
                cmd: Command::Instruction {
                    addr: below(addr),
                    bytes,
                },
            };
            let mut line = Vec::new();
            req.encode_into(&mut line);
            prop_assert_eq!(instruction_line(&line), Some(req));
        }
    }

    #[test]
    fn single_pass_reads_reply_lines_itself() {
        for resp in [
            Response::ok(1, Json::Obj(Vec::new())),
            Response::ok(
                2,
                obj(vec![(
                    "a",
                    Json::Arr(vec![Json::Int(-1), Json::Str("\n".into())]),
                )]),
            ),
            Response::err(None, RpcError::new(code::PARSE, "bad \"json\"")),
        ] {
            let line = resp.encode();
            assert_eq!(line, resp.to_json().serialize());
            let direct =
                scan_response(line.as_bytes()).unwrap_or_else(|e| panic!("refused {line}: {e}"));
            assert_eq!(direct, Ok(resp));
        }
        let reordered = r#"{"error":{"message":7,"code":-5},"result":{},"id":null}"#;
        let direct = scan_response(reordered.as_bytes()).unwrap_or_else(|e| panic!("refused: {e}"));
        assert_eq!(
            direct,
            Ok(Response::err(None, RpcError::new(code::LIMIT, "")))
        );
        assert_eq!(
            direct,
            Response::decode(&parse(reordered.as_bytes()).unwrap())
        );
    }

    #[test]
    fn hook_command_and_templates_roundtrip() {
        let cmds = vec![
            Command::Hook {
                funcs: vec!["f*".into(), "main".into()],
                addrs: vec![0x401000, u64::MAX - 1],
                call_original: true,
                payload: e9hook::PayloadKind::Counter,
            },
            Command::Hook {
                funcs: vec![],
                addrs: vec![0x401000],
                call_original: false,
                payload: e9hook::PayloadKind::Raw(vec![0x90, 0xC3]),
            },
            Command::Hook {
                funcs: vec!["g".into()],
                addrs: vec![],
                call_original: false,
                payload: e9hook::PayloadKind::Nop,
            },
            Command::Patch {
                addr: 0x401000,
                template: Template::HookSave {
                    func_addr: 0x70000000,
                },
            },
            Command::Patch {
                addr: 0x401000,
                template: Template::HookOriginal {
                    func_addr: 0x70000000,
                    thunk_addr: 0x70000040,
                },
            },
        ];
        for (i, cmd) in cmds.into_iter().enumerate() {
            let req = Request { id: i as u64, cmd };
            let line = req.encode();
            let back = Request::decode(&parse(line.as_bytes()).unwrap()).unwrap();
            assert_eq!(back, req);
            assert_eq!(back.encode(), line, "canonical encoding must be stable");
        }
        let bad = Request::decode(
            &parse(br#"{"id":1,"method":"hook","params":{"funcs":["f"],"addrs":[],"call_original":false,"payload":{"kind":"defrag"}}}"#)
                .unwrap(),
        )
        .unwrap_err();
        assert_eq!(bad.code, code::INVALID_PARAMS);
    }

    #[test]
    fn hook_reply_roundtrip() {
        let reply = HookReply {
            hooks: vec![
                e9hook::HookRecord {
                    id: 0,
                    flags: 0,
                    func_addr: 0x401000,
                    payload_addr: 0x70000000,
                    thunk_addr: 0,
                    counter_addr: 0x70100000,
                    name: "f0000".into(),
                },
                e9hook::HookRecord {
                    id: 1,
                    flags: e9hook::FLAG_CALL_ORIGINAL,
                    func_addr: 0x401100,
                    payload_addr: 0x70000020,
                    thunk_addr: 0x70000040,
                    counter_addr: 0x70100008,
                    name: "f0001".into(),
                },
            ],
            counters_addr: Some(0x70100000),
            manifest_addr: 0x70200000,
        };
        let text = written(|out| reply.write_json(out));
        let back = HookReply::from_json(&parse(text.as_bytes()).unwrap()).unwrap();
        assert_eq!(back, reply);
        // No counters: null round-trips to None.
        let none = HookReply {
            counters_addr: None,
            ..reply
        };
        let text = written(|out| none.write_json(out));
        assert_eq!(
            HookReply::from_json(&parse(text.as_bytes()).unwrap()).unwrap(),
            none
        );
    }

    #[test]
    fn reply_decoders_reject_out_of_range_integers() {
        // Each field is set one past its type's range; a wrapping cast
        // would decode 300 as insn_len 44.
        let set = |v: &mut Json, path: &[&str], n: i128| {
            let mut at = v;
            for (i, key) in path.iter().enumerate() {
                let next = match at {
                    Json::Obj(members) => {
                        members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
                    }
                    Json::Arr(items) => key.parse::<usize>().ok().and_then(|i| items.get_mut(i)),
                    _ => None,
                };
                at = next.unwrap_or_else(|| panic!("no {:?}", &path[..=i]));
            }
            *at = Json::Int(n);
        };
        let reply = EmitReply {
            binary: vec![1],
            stats: PatchStats::default(),
            size: SizeStats::default(),
            loader_addr: 0,
            trap_count: 0,
            reports: vec![SiteReport {
                addr: 0x401000,
                insn_len: 3,
                tactic: None,
                trampoline: None,
            }],
            mappings: vec![],
            cache: CacheDisposition::Off,
            digest: None,
        };
        let mut v = reply.to_json();
        set(&mut v, &["reports", "0", "insn_len"], 300);
        let e = EmitReply::from_json(&v).unwrap_err();
        assert_eq!(e, "emit reply: insn_len 300 out of range");

        let hooks = HookReply {
            hooks: vec![e9hook::HookRecord {
                id: 0,
                flags: 0,
                func_addr: 0x401000,
                payload_addr: 0x70000000,
                thunk_addr: 0,
                counter_addr: 0x70100000,
                name: "f".into(),
            }],
            counters_addr: None,
            manifest_addr: 0x70200000,
        };
        for (field, what) in [("id", "hook reply: id"), ("flags", "hook reply: flags")] {
            let mut v = parse(written(|out| hooks.write_json(out)).as_bytes()).unwrap();
            set(&mut v, &["hooks", "0", field], 1 << 32);
            let e = HookReply::from_json(&v).unwrap_err();
            assert_eq!(e, format!("{what} 4294967296 out of range"));
        }

        let mut v = parse(
            Response::err(Some(1), RpcError::state("x"))
                .encode()
                .as_bytes(),
        )
        .unwrap();
        for code in [i64::MAX as i128 + 1, i64::MIN as i128 - 1] {
            set(&mut v, &["error", "code"], code);
            let e = Response::decode(&v).unwrap_err();
            assert_eq!(e, format!("error code {code} out of range"));
        }
    }

    #[test]
    fn default_config_options_are_the_seven_pairs_in_wire_order() {
        // The frontend sends exactly these `option` lines, in this order;
        // the traced benchmark checks its call counts against them.
        let pairs = config_options(&RewriteConfig::default());
        let text: Vec<(&str, &str)> = pairs.iter().map(|(n, v)| (*n, v.as_str())).collect();
        assert_eq!(
            text,
            [
                ("t1", "true"),
                ("t2", "true"),
                ("t3", "true"),
                ("b0", "false"),
                ("grouping", "true"),
                ("granularity", "1"),
                ("alloc", "low"),
            ]
        );
    }

    #[test]
    fn apply_option_keeps_todays_errors_and_ignores_jobs() {
        let mut cfg = RewriteConfig::default();
        let before = cfg;
        let err = |cfg: &mut RewriteConfig, name: &str, value: &str| {
            let e = apply_option(cfg, name, value).unwrap_err();
            assert_eq!(e.code, code::INVALID_PARAMS, "{name}={value}");
            e.message
        };
        assert_eq!(
            err(&mut cfg, "t2", "yes"),
            "option t2: want true|false, got \"yes\""
        );
        assert_eq!(
            err(&mut cfg, "granularity", "0"),
            "option granularity: want an integer >= 1, got \"0\""
        );
        assert_eq!(
            err(&mut cfg, "alloc", "mid"),
            "option alloc: want low|high, got \"mid\""
        );
        assert_eq!(
            err(&mut cfg, "jobs", "0"),
            "option jobs: want an integer >= 1, got \"0\""
        );
        assert_eq!(err(&mut cfg, "turbo", "on"), "unknown option \"turbo\"");
        // Granularities the rewriter cannot run are refused up front.
        for m in [(1u64 << 35) - 1, 1 << 52] {
            let msg = err(&mut cfg, "granularity", &m.to_string());
            assert!(
                msg.starts_with(&format!("option granularity: granularity {m} out of range")),
                "{msg}"
            );
        }
        // `jobs` is accepted and changes nothing; so far nothing changed.
        apply_option(&mut cfg, "jobs", "4").unwrap();
        assert_eq!(cfg, before);
        apply_option(&mut cfg, "alloc", "high").unwrap();
        apply_option(&mut cfg, "granularity", "8").unwrap();
        assert_eq!(cfg.alloc_policy, AllocPolicy::FirstFitHigh);
        assert_eq!(cfg.granularity, 8);
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::ok(7, obj(vec![("version", Json::Int(1))])),
            Response::err(Some(9), RpcError::state("binary not loaded")),
            Response::err(None, RpcError::new(code::PARSE, "bad json")),
        ] {
            let line = resp.encode();
            let back = Response::decode(&parse(line.as_bytes()).unwrap()).unwrap();
            assert_eq!(back, resp);
            assert_eq!(back.encode(), line);
        }
    }

    #[test]
    fn decode_rejects_malformed_envelopes() {
        let bad = |s: &str| Request::decode(&parse(s.as_bytes()).unwrap()).unwrap_err();
        assert_eq!(bad(r#"{"method":"emit"}"#).code, code::INVALID_REQUEST);
        assert_eq!(bad(r#"{"id":1}"#).code, code::INVALID_REQUEST);
        assert_eq!(
            bad(r#"{"id":1,"method":"nope"}"#).code,
            code::METHOD_NOT_FOUND
        );
        assert_eq!(
            bad(r#"{"id":1,"method":"patch","params":{}}"#).code,
            code::INVALID_PARAMS
        );
        assert_eq!(
            bad(r#"{"id":1,"method":"binary","params":{"bytes":"xyz"}}"#).code,
            code::INVALID_PARAMS
        );
    }

    #[test]
    fn emit_reply_roundtrip() {
        let reply = EmitReply {
            binary: vec![1, 2, 3, 4, 5],
            stats: PatchStats {
                b1: 1,
                b2: 2,
                t1: 3,
                t2: 0,
                t3: 1,
                b0: 0,
                failed: 1,
            },
            size: SizeStats {
                input_bytes: 4096,
                output_bytes: 8192,
                virtual_blocks: 3,
                physical_blocks: 1,
                mappings: 3,
                granularity: 1,
            },
            loader_addr: 0x7000_0000,
            trap_count: 0,
            reports: vec![
                SiteReport {
                    addr: 0x401000,
                    insn_len: 3,
                    tactic: Some(TacticKind::T2),
                    trampoline: Some(0x68000000),
                },
                SiteReport {
                    addr: 0x401003,
                    insn_len: 4,
                    tactic: None,
                    trampoline: None,
                },
            ],
            mappings: vec![WireMapping {
                vaddr: 0x68000000,
                file_off: 0x2000,
                len: 4096,
            }],
            cache: CacheDisposition::Hit,
            digest: Some("ab".repeat(32)),
        };
        let v = reply.to_json();
        let text = v.serialize();
        let back = EmitReply::from_json(&parse(text.as_bytes()).unwrap()).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn emit_reply_without_cache_fields_decodes_as_off() {
        // Replies from servers older than the cache omit the
        // disposition fields; they must decode, not error.
        let reply = EmitReply {
            binary: vec![1],
            stats: PatchStats::default(),
            size: SizeStats::default(),
            loader_addr: 0,
            trap_count: 0,
            reports: vec![],
            mappings: vec![],
            cache: CacheDisposition::Off,
            digest: None,
        };
        let mut v = reply.to_json();
        if let Json::Obj(members) = &mut v {
            members.retain(|(k, _)| k != "cache" && k != "digest");
        }
        let back = EmitReply::from_json(&v).unwrap();
        assert_eq!(back.cache, CacheDisposition::Off);
        assert_eq!(back.digest, None);
    }

    #[test]
    fn cache_command_roundtrip() {
        for action in [CacheAction::Stats, CacheAction::Clear] {
            let req = Request {
                id: 1,
                cmd: Command::Cache { action },
            };
            let line = req.encode();
            let back = Request::decode(&parse(line.as_bytes()).unwrap()).unwrap();
            assert_eq!(back, req);
        }
        let bad = Request::decode(
            &parse(br#"{"id":1,"method":"cache","params":{"action":"defrag"}}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(bad.code, code::INVALID_PARAMS);
    }

    #[test]
    fn cache_stats_reply_roundtrip() {
        let reply = CacheStatsReply {
            enabled: true,
            disk: true,
            stats: e9cache::CacheStats {
                hits: 5,
                mem_hits: 3,
                disk_hits: 2,
                negative_hits: 1,
                misses: 7,
                stores: 7,
                mem_evictions: 1,
                disk_evictions: 2,
                verify_failures: 1,
                errors: 0,
                mem_entries: 4,
                mem_bytes: 4096,
                bypasses: 3,
                bypass_threshold: 128 << 10,
                disk_breaker_open: true,
                disk_breaker_trips: 2,
                disk_breaker_fast_fails: 9,
                disk_breaker_probes: 3,
                disk_breaker_recoveries: 1,
            },
        };
        let text = written(|out| reply.write_json(out));
        let back = CacheStatsReply::from_json(&parse(text.as_bytes()).unwrap()).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn cache_stats_reply_tolerates_pre_breaker_servers() {
        let reply = CacheStatsReply {
            enabled: true,
            disk: true,
            ..CacheStatsReply::default()
        };
        let text = written(|out| reply.write_json(out));
        // Strip the breaker fields as an old server would omit them.
        let v = parse(text.as_bytes()).unwrap();
        let Json::Obj(fields) = v else { panic!() };
        let pruned = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !k.starts_with("disk_breaker"))
                .collect(),
        );
        let back = CacheStatsReply::from_json(&pruned).unwrap();
        assert!(!back.stats.disk_breaker_open);
        assert_eq!(back.stats.disk_breaker_trips, 0);
    }

    #[test]
    fn health_reply_roundtrip() {
        let reply = HealthReply {
            serving_mode: "reactor".into(),
            shed_admission: 4,
            shed_busy: 17,
            faults_enabled: true,
            fault_spec: "cache.disk.stage=enospc@first:4".into(),
            faults_injected: 4,
            cache: CacheStatsReply {
                enabled: true,
                disk: true,
                stats: e9cache::CacheStats {
                    hits: 2,
                    disk_breaker_open: true,
                    disk_breaker_trips: 1,
                    ..e9cache::CacheStats::default()
                },
            },
        };
        let text = written(|out| reply.write_json(out));
        let back = HealthReply::from_json(&parse(text.as_bytes()).unwrap()).unwrap();
        assert_eq!(back, reply);
        let line = reply.summary();
        assert!(line.contains("serving reactor"), "{line}");
        assert!(line.contains("breaker open"), "{line}");

        // An empty result (hypothetical minimal server) decodes to zeros.
        let minimal = HealthReply::from_json(&parse(b"{}").unwrap()).unwrap();
        assert_eq!(minimal.serving_mode, "unknown");
        assert!(!minimal.faults_enabled);
    }

    #[test]
    fn health_request_roundtrip_and_empty_params() {
        let req = Request {
            id: 9,
            cmd: Command::Health,
        };
        let text = req.encode();
        assert!(text.contains("\"method\":\"health\""), "{text}");
        let back = Request::decode(&parse(text.as_bytes()).unwrap()).unwrap();
        assert_eq!(back, req);
    }
}
