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

use crate::json::{obj, Json};
use e9patch::{AllocPolicy, PatchStats, RewriteConfig, RewriteOutput, SiteReport, SizeStats,
              TacticKind, Template};
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
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`hex_encode`]; accepts upper- and lowercase digits.
///
/// # Errors
///
/// Odd length or non-hex characters.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if s.len() % 2 != 0 {
        return Err(format!("odd hex length {}", s.len()));
    }
    let bytes = s.as_bytes();
    let nib = |b: u8| -> Result<u8, String> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(format!("bad hex byte {b:#04x}")),
        }
    };
    (0..s.len() / 2)
        .map(|i| Ok((nib(bytes[2 * i])? << 4) | nib(bytes[2 * i + 1])?))
        .collect()
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

/// Actions of the `cache` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Return counters and tier occupancy.
    Stats,
    /// Drop every entry from both tiers.
    Clear,
}

impl CacheAction {
    /// The wire name of the action.
    pub fn name(self) -> &'static str {
        match self {
            CacheAction::Stats => "stats",
            CacheAction::Clear => "clear",
        }
    }

    /// Inverse of [`name`](CacheAction::name).
    pub fn from_name(s: &str) -> Option<CacheAction> {
        Some(match s {
            "stats" => CacheAction::Stats,
            "clear" => CacheAction::Clear,
            _ => return None,
        })
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

    /// The full canonical-JSON form, `{"method":M,"params":{...}}`.
    ///
    /// This is what the cache key derivation (`crate::cachekey`) hashes:
    /// reusing the wire codec means the in-process e9tool path and a
    /// daemon session derive byte-identical key material from the same
    /// logical batch.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("method", Json::Str(self.method().into())),
            ("params", self.params()),
        ])
    }

    fn params(&self) -> Json {
        match self {
            Command::Version { version } => obj(vec![("version", Json::Int(*version as i128))]),
            Command::Binary { bytes, digest } => {
                let mut fields = vec![("bytes", Json::Str(hex_encode(bytes)))];
                if let Some(d) = digest {
                    fields.push(("digest", Json::Str(e9cache::sha256::hex(d))));
                }
                obj(fields)
            }
            Command::Option { name, value } => obj(vec![
                ("name", Json::Str(name.clone())),
                ("value", Json::Str(value.clone())),
            ]),
            Command::Reserve {
                vaddr,
                bytes,
                exec,
                write,
            } => obj(vec![
                ("vaddr", Json::Int(*vaddr as i128)),
                ("bytes", Json::Str(hex_encode(bytes))),
                ("exec", Json::Bool(*exec)),
                ("write", Json::Bool(*write)),
            ]),
            Command::Instruction { addr, bytes } => obj(vec![
                ("addr", Json::Int(*addr as i128)),
                ("bytes", Json::Str(hex_encode(bytes))),
            ]),
            Command::Patch { addr, template } => obj(vec![
                ("addr", Json::Int(*addr as i128)),
                ("template", template_to_json(template)),
            ]),
            Command::Hook {
                funcs,
                addrs,
                call_original,
                payload,
            } => obj(vec![
                (
                    "funcs",
                    Json::Arr(funcs.iter().map(|f| Json::Str(f.clone())).collect()),
                ),
                (
                    "addrs",
                    Json::Arr(addrs.iter().map(|&a| Json::Int(a as i128)).collect()),
                ),
                ("call_original", Json::Bool(*call_original)),
                ("payload", payload_to_json(payload)),
            ]),
            Command::Cache { action } => obj(vec![("action", Json::Str(action.name().into()))]),
            Command::Emit | Command::Health | Command::Shutdown => Json::Obj(Vec::new()),
        }
    }
}

/// Hook payloads on the wire: `{"kind":K, ...}`.
fn payload_to_json(p: &e9hook::PayloadKind) -> Json {
    match p {
        e9hook::PayloadKind::Counter => obj(vec![("kind", Json::Str("counter".into()))]),
        e9hook::PayloadKind::Nop => obj(vec![("kind", Json::Str("nop".into()))]),
        e9hook::PayloadKind::Raw(code) => obj(vec![
            ("kind", Json::Str("raw".into())),
            ("code", Json::Str(hex_encode(code))),
        ]),
    }
}

fn payload_from_json(v: &Json) -> Result<e9hook::PayloadKind, RpcError> {
    let bad = |m: &str| RpcError::invalid_params(format!("payload: {m}"));
    match v.get("kind").and_then(Json::as_str) {
        Some("counter") => Ok(e9hook::PayloadKind::Counter),
        Some("nop") => Ok(e9hook::PayloadKind::Nop),
        Some("raw") => v
            .get("code")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing code"))
            .and_then(|s| hex_decode(s).map_err(|e| bad(&e)))
            .map(e9hook::PayloadKind::Raw),
        Some(other) => Err(bad(&format!("unknown kind {other:?}"))),
        None => Err(bad("missing kind")),
    }
}

/// Trampoline templates on the wire: `{"kind":K, ...}`.
fn template_to_json(t: &Template) -> Json {
    match t {
        Template::Empty => obj(vec![("kind", Json::Str("empty".into()))]),
        Template::Counter { counter_addr } => obj(vec![
            ("kind", Json::Str("counter".into())),
            ("counter_addr", Json::Int(*counter_addr as i128)),
        ]),
        Template::CheckCall { func_addr } => obj(vec![
            ("kind", Json::Str("checkcall".into())),
            ("func_addr", Json::Int(*func_addr as i128)),
        ]),
        Template::HookCall { func_addr } => obj(vec![
            ("kind", Json::Str("hookcall".into())),
            ("func_addr", Json::Int(*func_addr as i128)),
        ]),
        Template::HookSave { func_addr } => obj(vec![
            ("kind", Json::Str("hooksave".into())),
            ("func_addr", Json::Int(*func_addr as i128)),
        ]),
        Template::HookOriginal {
            func_addr,
            thunk_addr,
        } => obj(vec![
            ("kind", Json::Str("hookoriginal".into())),
            ("func_addr", Json::Int(*func_addr as i128)),
            ("thunk_addr", Json::Int(*thunk_addr as i128)),
        ]),
        Template::Replace { code, resume } => obj(vec![
            ("kind", Json::Str("replace".into())),
            ("code", Json::Str(hex_encode(code))),
            (
                "resume",
                match resume {
                    Some(a) => Json::Int(*a as i128),
                    None => Json::Null,
                },
            ),
        ]),
    }
}

fn template_from_json(v: &Json) -> Result<Template, RpcError> {
    let bad = |m: &str| RpcError::invalid_params(format!("template: {m}"));
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing kind"))?;
    let addr_field = |name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(&format!("missing {name}")))
    };
    match kind {
        "empty" => Ok(Template::Empty),
        "counter" => Ok(Template::Counter {
            counter_addr: addr_field("counter_addr")?,
        }),
        "checkcall" => Ok(Template::CheckCall {
            func_addr: addr_field("func_addr")?,
        }),
        "hookcall" => Ok(Template::HookCall {
            func_addr: addr_field("func_addr")?,
        }),
        "hooksave" => Ok(Template::HookSave {
            func_addr: addr_field("func_addr")?,
        }),
        "hookoriginal" => Ok(Template::HookOriginal {
            func_addr: addr_field("func_addr")?,
            thunk_addr: addr_field("thunk_addr")?,
        }),
        "replace" => {
            let code = v
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing code"))
                .and_then(|s| hex_decode(s).map_err(|e| bad(&e)))?;
            let resume = match v.get("resume") {
                None | Some(Json::Null) => None,
                Some(j) => Some(j.as_u64().ok_or_else(|| bad("bad resume"))?),
            };
            Ok(Template::Replace { code, resume })
        }
        other => Err(bad(&format!("unknown kind {other:?}"))),
    }
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
        obj(vec![
            ("jsonrpc", Json::Str("2.0".into())),
            ("id", Json::Int(self.id as i128)),
            ("method", Json::Str(self.cmd.method().into())),
            ("params", self.cmd.params()),
        ])
        .serialize()
    }

    /// Decode a parsed JSON value into a typed request.
    ///
    /// # Errors
    ///
    /// [`code::INVALID_REQUEST`] for a broken envelope,
    /// [`code::METHOD_NOT_FOUND`] for an unknown method and
    /// [`code::INVALID_PARAMS`] for missing or mistyped parameters.
    pub fn decode(v: &Json) -> Result<Request, RpcError> {
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| RpcError::new(code::INVALID_REQUEST, "missing integer id"))?;
        let method = v
            .get("method")
            .and_then(Json::as_str)
            .ok_or_else(|| RpcError::new(code::INVALID_REQUEST, "missing method"))?;
        let empty = Json::Obj(Vec::new());
        let p = v.get("params").unwrap_or(&empty);
        let missing = |name: &str| RpcError::invalid_params(format!("missing {name}"));
        let hex_field = |name: &str| -> Result<Vec<u8>, RpcError> {
            p.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| missing(name))
                .and_then(|s| hex_decode(s).map_err(RpcError::invalid_params))
        };
        let u64_field = |name: &str| p.get(name).and_then(Json::as_u64).ok_or_else(|| missing(name));
        let bool_field = |name: &str| p.get(name).and_then(Json::as_bool).ok_or_else(|| missing(name));
        let cmd = match method {
            "version" => Command::Version {
                version: u64_field("version")?,
            },
            "binary" => Command::Binary {
                bytes: hex_field("bytes")?,
                digest: match p.get("digest") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(e9cache::sha256::from_hex(s).ok_or_else(
                        || RpcError::invalid_params("digest: expected 64 hex chars"),
                    )?),
                    Some(_) => {
                        return Err(RpcError::invalid_params("digest: expected a string"))
                    }
                },
            },
            "option" => Command::Option {
                name: p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("name"))?
                    .to_string(),
                value: p
                    .get("value")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("value"))?
                    .to_string(),
            },
            "reserve" => Command::Reserve {
                vaddr: u64_field("vaddr")?,
                bytes: hex_field("bytes")?,
                exec: bool_field("exec")?,
                write: bool_field("write")?,
            },
            "instruction" => Command::Instruction {
                addr: u64_field("addr")?,
                bytes: hex_field("bytes")?,
            },
            "patch" => Command::Patch {
                addr: u64_field("addr")?,
                template: template_from_json(
                    p.get("template").ok_or_else(|| missing("template"))?,
                )?,
            },
            "hook" => {
                let str_arr = |name: &str| -> Result<Vec<String>, RpcError> {
                    p.get(name)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| missing(name))?
                        .iter()
                        .map(|j| {
                            j.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| RpcError::invalid_params(format!("{name}: expected strings")))
                        })
                        .collect()
                };
                let u64_arr = |name: &str| -> Result<Vec<u64>, RpcError> {
                    p.get(name)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| missing(name))?
                        .iter()
                        .map(|j| {
                            j.as_u64().ok_or_else(|| {
                                RpcError::invalid_params(format!("{name}: expected integers"))
                            })
                        })
                        .collect()
                };
                Command::Hook {
                    funcs: str_arr("funcs")?,
                    addrs: u64_arr("addrs")?,
                    call_original: bool_field("call_original")?,
                    payload: payload_from_json(
                        p.get("payload").ok_or_else(|| missing("payload"))?,
                    )?,
                }
            }
            "emit" => Command::Emit,
            "cache" => Command::Cache {
                action: p
                    .get("action")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("action"))
                    .and_then(|s| {
                        CacheAction::from_name(s).ok_or_else(|| {
                            RpcError::invalid_params(format!("unknown cache action {s:?}"))
                        })
                    })?,
            },
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
        obj(members).serialize()
    }

    /// Decode a parsed JSON value into a typed response.
    ///
    /// # Errors
    ///
    /// Returns a string description when the envelope is malformed.
    pub fn decode(v: &Json) -> Result<Response, String> {
        let id = match v.get("id") {
            Some(Json::Null) | None => None,
            Some(j) => Some(j.as_u64().ok_or("non-integer response id")?),
        };
        if let Some(e) = v.get("error") {
            let code = match e.get("code") {
                Some(Json::Int(c)) => {
                    i64::try_from(*c).map_err(|_| format!("error code {c} out of range"))?
                }
                _ => return Err("error without integer code".into()),
            };
            let message = e
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            return Ok(Response {
                id,
                body: Err(RpcError { code, message }),
            });
        }
        let result = v.get("result").ok_or("response with neither result nor error")?;
        Ok(Response {
            id,
            body: Ok(result.clone()),
        })
    }
}

// ---- rewriter options ---------------------------------------------------

/// The wire name of a trampoline allocation policy (`low` or `high`), also
/// used by the cache key's config encoding.
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
    let want = |what: &str| {
        RpcError::invalid_params(format!("option {name}: want {what}, got {value:?}"))
    };
    let flag = || match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(want("true|false")),
    };
    let count = || {
        value.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| want("an integer >= 1"))
    };
    match name {
        "t1" => cfg.tactics.t1 = flag()?,
        "t2" => cfg.tactics.t2 = flag()?,
        "t3" => cfg.tactics.t3 = flag()?,
        "b0" => cfg.b0_fallback = flag()?,
        "grouping" => cfg.grouping = flag()?,
        "granularity" => {
            let next = RewriteConfig { granularity: count()?, ..*cfg };
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

impl CacheDisposition {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Off => "off",
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Bypass => "bypass",
        }
    }

    /// Inverse of [`name`](CacheDisposition::name).
    pub fn from_name(s: &str) -> Option<CacheDisposition> {
        Some(match s {
            "off" => CacheDisposition::Off,
            "hit" => CacheDisposition::Hit,
            "miss" => CacheDisposition::Miss,
            "bypass" => CacheDisposition::Bypass,
            _ => return None,
        })
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

fn tactic_name(t: TacticKind) -> &'static str {
    match t {
        TacticKind::B0 => "B0",
        TacticKind::B1 => "B1",
        TacticKind::B2 => "B2",
        TacticKind::T1 => "T1",
        TacticKind::T2 => "T2",
        TacticKind::T3 => "T3",
    }
}

fn tactic_from_name(s: &str) -> Option<TacticKind> {
    Some(match s {
        "B0" => TacticKind::B0,
        "B1" => TacticKind::B1,
        "B2" => TacticKind::B2,
        "T1" => TacticKind::T1,
        "T2" => TacticKind::T2,
        "T3" => TacticKind::T3,
        _ => return None,
    })
}

/// `v` as a narrower integer, or an error naming the out-of-range field.
fn narrow<T: TryFrom<u64>>(v: u64, field: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{field} {v} out of range"))
}

fn opt_u64(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::Int(n as i128),
        None => Json::Null,
    }
}

impl EmitReply {
    /// Serialize to the `result` object of an `emit` response.
    pub fn to_json(&self) -> Json {
        let s = &self.stats;
        let z = &self.size;
        obj(vec![
            ("binary", Json::Str(hex_encode(&self.binary))),
            (
                "stats",
                obj(vec![
                    ("b1", Json::Int(s.b1 as i128)),
                    ("b2", Json::Int(s.b2 as i128)),
                    ("t1", Json::Int(s.t1 as i128)),
                    ("t2", Json::Int(s.t2 as i128)),
                    ("t3", Json::Int(s.t3 as i128)),
                    ("b0", Json::Int(s.b0 as i128)),
                    ("failed", Json::Int(s.failed as i128)),
                ]),
            ),
            (
                "size",
                obj(vec![
                    ("input_bytes", Json::Int(z.input_bytes as i128)),
                    ("output_bytes", Json::Int(z.output_bytes as i128)),
                    ("virtual_blocks", Json::Int(z.virtual_blocks as i128)),
                    ("physical_blocks", Json::Int(z.physical_blocks as i128)),
                    ("mappings", Json::Int(z.mappings as i128)),
                    ("granularity", Json::Int(z.granularity as i128)),
                ]),
            ),
            ("loader_addr", Json::Int(self.loader_addr as i128)),
            ("trap_count", Json::Int(self.trap_count as i128)),
            (
                "reports",
                Json::Arr(
                    self.reports
                        .iter()
                        .map(|r| {
                            obj(vec![
                                ("addr", Json::Int(r.addr as i128)),
                                ("insn_len", Json::Int(r.insn_len as i128)),
                                (
                                    "tactic",
                                    match r.tactic {
                                        Some(t) => Json::Str(tactic_name(t).into()),
                                        None => Json::Null,
                                    },
                                ),
                                ("trampoline", opt_u64(r.trampoline)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "mappings",
                Json::Arr(
                    self.mappings
                        .iter()
                        .map(|m| {
                            obj(vec![
                                ("vaddr", Json::Int(m.vaddr as i128)),
                                ("file_off", Json::Int(m.file_off as i128)),
                                ("len", Json::Int(m.len as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cache", Json::Str(self.cache.name().into())),
            (
                "digest",
                match &self.digest {
                    Some(d) => Json::Str(d.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Decode the `result` object of an `emit` response.
    ///
    /// # Errors
    ///
    /// A string description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<EmitReply, String> {
        let u = |o: &Json, name: &str| -> Result<u64, String> {
            o.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("emit reply: missing {name}"))
        };
        let binary = v
            .get("binary")
            .and_then(Json::as_str)
            .ok_or("emit reply: missing binary")
            .map_err(String::from)
            .and_then(|s| hex_decode(s))?;
        let s = v.get("stats").ok_or("emit reply: missing stats")?;
        let stats = PatchStats {
            b1: u(s, "b1")? as usize,
            b2: u(s, "b2")? as usize,
            t1: u(s, "t1")? as usize,
            t2: u(s, "t2")? as usize,
            t3: u(s, "t3")? as usize,
            b0: u(s, "b0")? as usize,
            failed: u(s, "failed")? as usize,
        };
        let z = v.get("size").ok_or("emit reply: missing size")?;
        let size = SizeStats {
            input_bytes: u(z, "input_bytes")?,
            output_bytes: u(z, "output_bytes")?,
            virtual_blocks: u(z, "virtual_blocks")?,
            physical_blocks: u(z, "physical_blocks")?,
            mappings: u(z, "mappings")?,
            granularity: u(z, "granularity")?,
        };
        let mut reports = Vec::new();
        for r in v
            .get("reports")
            .and_then(Json::as_arr)
            .ok_or("emit reply: missing reports")?
        {
            let tactic = match r.get("tactic") {
                Some(Json::Str(name)) => Some(
                    tactic_from_name(name).ok_or_else(|| format!("bad tactic {name:?}"))?,
                ),
                Some(Json::Null) | None => None,
                Some(_) => return Err("bad tactic field".into()),
            };
            let trampoline = match r.get("trampoline") {
                Some(Json::Null) | None => None,
                Some(j) => Some(j.as_u64().ok_or("bad trampoline field")?),
            };
            reports.push(SiteReport {
                addr: u(r, "addr")?,
                insn_len: narrow(u(r, "insn_len")?, "emit reply: insn_len")?,
                tactic,
                trampoline,
            });
        }
        let mut mappings = Vec::new();
        for m in v
            .get("mappings")
            .and_then(Json::as_arr)
            .ok_or("emit reply: missing mappings")?
        {
            mappings.push(WireMapping {
                vaddr: u(m, "vaddr")?,
                file_off: u(m, "file_off")?,
                len: u(m, "len")?,
            });
        }
        // Cache fields are absent from pre-cache replies (and from the
        // stored payload form, which predates the disposition override).
        let cache = match v.get("cache") {
            Some(Json::Str(name)) => CacheDisposition::from_name(name)
                .ok_or_else(|| format!("bad cache disposition {name:?}"))?,
            Some(Json::Null) | None => CacheDisposition::Off,
            Some(_) => return Err("bad cache field".into()),
        };
        let digest = match v.get("digest") {
            Some(Json::Str(d)) => Some(d.clone()),
            Some(Json::Null) | None => None,
            Some(_) => return Err("bad digest field".into()),
        };
        Ok(EmitReply {
            binary,
            stats,
            size,
            loader_addr: u(v, "loader_addr")?,
            trap_count: u(v, "trap_count")?,
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
            1 + 8 + self.binary.len()
                + 15 * 8
                + 8 + self.reports.len() * 19
                + 8 + self.mappings.len() * 24,
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
                Some(t) => tactic_code(t),
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
            return Err(format!("emit reply: unknown binary codec version {version}"));
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
                code => Some(tactic_from_code(code).ok_or("emit reply: bad tactic code")?),
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

/// Version byte of the compact binary emit-reply codec.
const EMIT_BIN_VERSION: u8 = 1;

fn tactic_code(t: TacticKind) -> u8 {
    match t {
        TacticKind::B0 => 1,
        TacticKind::B1 => 2,
        TacticKind::B2 => 3,
        TacticKind::T1 => 4,
        TacticKind::T2 => 5,
        TacticKind::T3 => 6,
    }
}

fn tactic_from_code(code: u8) -> Option<TacticKind> {
    Some(match code {
        1 => TacticKind::B0,
        2 => TacticKind::B1,
        3 => TacticKind::B2,
        4 => TacticKind::T1,
        5 => TacticKind::T2,
        6 => TacticKind::T3,
        _ => return None,
    })
}

/// Bounds-checked little-endian reader for the binary emit-reply codec.
struct BinReader<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl BinReader<'_> {
    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .raw
            .get(self.pos)
            .ok_or("emit reply: truncated (u8)")?;
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
    /// Serialize to the `result` object of a `hook` response.
    pub fn to_json(&self) -> Json {
        obj(vec![
            (
                "hooks",
                Json::Arr(
                    self.hooks
                        .iter()
                        .map(|h| {
                            obj(vec![
                                ("id", Json::Int(h.id as i128)),
                                ("flags", Json::Int(h.flags as i128)),
                                ("func_addr", Json::Int(h.func_addr as i128)),
                                ("payload_addr", Json::Int(h.payload_addr as i128)),
                                ("thunk_addr", Json::Int(h.thunk_addr as i128)),
                                ("counter_addr", Json::Int(h.counter_addr as i128)),
                                ("name", Json::Str(h.name.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("counters_addr", opt_u64(self.counters_addr)),
            ("manifest_addr", Json::Int(self.manifest_addr as i128)),
        ])
    }

    /// Decode the `result` object of a `hook` response.
    ///
    /// # Errors
    ///
    /// A string description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<HookReply, String> {
        let u = |o: &Json, name: &str| -> Result<u64, String> {
            o.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("hook reply: missing {name}"))
        };
        let mut hooks = Vec::new();
        for h in v
            .get("hooks")
            .and_then(Json::as_arr)
            .ok_or("hook reply: missing hooks")?
        {
            hooks.push(e9hook::HookRecord {
                id: narrow(u(h, "id")?, "hook reply: id")?,
                flags: narrow(u(h, "flags")?, "hook reply: flags")?,
                func_addr: u(h, "func_addr")?,
                payload_addr: u(h, "payload_addr")?,
                thunk_addr: u(h, "thunk_addr")?,
                counter_addr: u(h, "counter_addr")?,
                name: h
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("hook reply: missing name")?
                    .to_string(),
            });
        }
        let counters_addr = match v.get("counters_addr") {
            Some(Json::Null) | None => None,
            Some(j) => Some(j.as_u64().ok_or("hook reply: bad counters_addr")?),
        };
        Ok(HookReply {
            hooks,
            counters_addr,
            manifest_addr: u(v, "manifest_addr")?,
        })
    }
}

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
    /// Serialize to the `result` object of a `cache stats` response.
    pub fn to_json(&self) -> Json {
        let s = &self.stats;
        obj(vec![
            ("enabled", Json::Bool(self.enabled)),
            ("disk", Json::Bool(self.disk)),
            ("hits", Json::Int(s.hits as i128)),
            ("mem_hits", Json::Int(s.mem_hits as i128)),
            ("disk_hits", Json::Int(s.disk_hits as i128)),
            ("negative_hits", Json::Int(s.negative_hits as i128)),
            ("misses", Json::Int(s.misses as i128)),
            ("stores", Json::Int(s.stores as i128)),
            ("mem_evictions", Json::Int(s.mem_evictions as i128)),
            ("disk_evictions", Json::Int(s.disk_evictions as i128)),
            ("verify_failures", Json::Int(s.verify_failures as i128)),
            ("errors", Json::Int(s.errors as i128)),
            ("mem_entries", Json::Int(s.mem_entries as i128)),
            ("mem_bytes", Json::Int(s.mem_bytes as i128)),
            ("bypasses", Json::Int(s.bypasses as i128)),
            ("bypass_threshold", Json::Int(s.bypass_threshold as i128)),
            ("disk_breaker_open", Json::Bool(s.disk_breaker_open)),
            ("disk_breaker_trips", Json::Int(s.disk_breaker_trips as i128)),
            (
                "disk_breaker_fast_fails",
                Json::Int(s.disk_breaker_fast_fails as i128),
            ),
            ("disk_breaker_probes", Json::Int(s.disk_breaker_probes as i128)),
            (
                "disk_breaker_recoveries",
                Json::Int(s.disk_breaker_recoveries as i128),
            ),
        ])
    }

    /// Decode the `result` object of a `cache stats` response.
    ///
    /// # Errors
    ///
    /// A string description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<CacheStatsReply, String> {
        let u = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cache stats: missing {name}"))
        };
        let b = |name: &str| -> Result<bool, String> {
            v.get(name)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("cache stats: missing {name}"))
        };
        Ok(CacheStatsReply {
            enabled: b("enabled")?,
            disk: b("disk")?,
            stats: e9cache::CacheStats {
                hits: u("hits")?,
                mem_hits: u("mem_hits")?,
                disk_hits: u("disk_hits")?,
                negative_hits: u("negative_hits")?,
                misses: u("misses")?,
                stores: u("stores")?,
                mem_evictions: u("mem_evictions")?,
                disk_evictions: u("disk_evictions")?,
                verify_failures: u("verify_failures")?,
                errors: u("errors")?,
                mem_entries: u("mem_entries")?,
                mem_bytes: u("mem_bytes")?,
                // Tolerant: absent on pre-bypass servers.
                bypasses: v.get("bypasses").and_then(Json::as_u64).unwrap_or(0),
                bypass_threshold: v
                    .get("bypass_threshold")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                // Tolerant: absent on pre-breaker servers.
                disk_breaker_open: v
                    .get("disk_breaker_open")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                disk_breaker_trips: v
                    .get("disk_breaker_trips")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                disk_breaker_fast_fails: v
                    .get("disk_breaker_fast_fails")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                disk_breaker_probes: v
                    .get("disk_breaker_probes")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                disk_breaker_recoveries: v
                    .get("disk_breaker_recoveries")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            },
        })
    }
}

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
    /// Serialize to the `result` object of a `health` response.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("cache", self.cache.to_json()),
            (
                "faults",
                obj(vec![
                    ("enabled", Json::Bool(self.faults_enabled)),
                    ("injected", Json::Int(self.faults_injected as i128)),
                    ("spec", Json::Str(self.fault_spec.clone())),
                ]),
            ),
            ("serving_mode", Json::Str(self.serving_mode.clone())),
            (
                "shed",
                obj(vec![
                    ("admission", Json::Int(self.shed_admission as i128)),
                    ("busy", Json::Int(self.shed_busy as i128)),
                ]),
            ),
        ])
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
        let cache = match v.get("cache") {
            Some(c) => CacheStatsReply::from_json(c)?,
            None => CacheStatsReply::default(),
        };
        let shed = v.get("shed");
        let faults = v.get("faults");
        let sub_u64 = |section: Option<&Json>, name: &str| {
            section
                .and_then(|s| s.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(HealthReply {
            serving_mode: v
                .get("serving_mode")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            shed_admission: sub_u64(shed, "admission"),
            shed_busy: sub_u64(shed, "busy"),
            faults_enabled: faults
                .and_then(|f| f.get("enabled"))
                .and_then(Json::as_bool)
                .unwrap_or(false),
            fault_spec: faults
                .and_then(|f| f.get("spec"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            faults_injected: sub_u64(faults, "injected"),
            cache,
        })
    }

    /// One-line human summary, in the `CacheStats::summary` style.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "health: serving {}, shed {} admission + {} busy, faults {}",
            self.serving_mode,
            self.shed_admission,
            self.shed_busy,
            if self.faults_enabled {
                format!("on ({} injected, spec {:?})", self.faults_injected, self.fault_spec)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn hex_roundtrip() {
        let data = [0x00u8, 0x7f, 0x80, 0xff, 0xde, 0xad];
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(hex_decode("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
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
        let text = reply.to_json().serialize();
        let back = HookReply::from_json(&parse(text.as_bytes()).unwrap()).unwrap();
        assert_eq!(back, reply);
        // No counters: null round-trips to None.
        let none = HookReply {
            counters_addr: None,
            ..reply
        };
        let text = none.to_json().serialize();
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
                    Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
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
            let mut v = hooks.to_json();
            set(&mut v, &["hooks", "0", field], 1 << 32);
            let e = HookReply::from_json(&v).unwrap_err();
            assert_eq!(e, format!("{what} 4294967296 out of range"));
        }

        let mut v = parse(Response::err(Some(1), RpcError::state("x")).encode().as_bytes()).unwrap();
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
        assert_eq!(err(&mut cfg, "t2", "yes"), "option t2: want true|false, got \"yes\"");
        assert_eq!(
            err(&mut cfg, "granularity", "0"),
            "option granularity: want an integer >= 1, got \"0\""
        );
        assert_eq!(err(&mut cfg, "alloc", "mid"), "option alloc: want low|high, got \"mid\"");
        assert_eq!(err(&mut cfg, "jobs", "0"), "option jobs: want an integer >= 1, got \"0\"");
        assert_eq!(err(&mut cfg, "turbo", "on"), "unknown option \"turbo\"");
        // Granularities the rewriter cannot run are refused up front.
        for m in [(1u64 << 35) - 1, 1 << 52] {
            let msg = err(&mut cfg, "granularity", &m.to_string());
            assert!(msg.starts_with(&format!("option granularity: granularity {m} out of range")), "{msg}");
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
        assert_eq!(bad(r#"{"id":1,"method":"nope"}"#).code, code::METHOD_NOT_FOUND);
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
        // Pre-cache replies (and the stored payload form) omit the
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
        let text = reply.to_json().serialize();
        let back = CacheStatsReply::from_json(&parse(text.as_bytes()).unwrap()).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn cache_stats_reply_tolerates_pre_breaker_servers() {
        let text = CacheStatsReply {
            enabled: true,
            disk: true,
            ..CacheStatsReply::default()
        }
        .to_json()
        .serialize();
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
        let text = reply.to_json().serialize();
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
