//! The per-connection session state machine.
//!
//! A session accumulates the inputs of one rewriting run — binary, options,
//! reserved segments, disassembly info, patch requests — and hands them to
//! the in-process [`e9patch::Rewriter`] on `emit`. Buffering `patch`
//! commands until `emit` is what preserves the paper's S1 semantics: the
//! planner always sees the complete batch and processes it in reverse
//! address order, so a streaming frontend cannot perturb tactic selection
//! by message timing.
//!
//! State ordering enforced (violations are [`code::STATE`] errors):
//!
//! ```text
//! version → binary → {option|reserve|instruction|patch}* → emit
//! ```
//!
//! `option` and `reserve` are also legal between `version` and `binary`.
//! After `emit` the session stays usable — more patches or option changes
//! followed by another `emit` re-run the rewrite over the full batch.
//!
//! `emit` goes through [`cachekey::cached_rewrite`], the same cache
//! policy the in-process frontend uses. The session adds only its digest
//! memo: a digest the client sent with `binary` is verified at intake and
//! reused. Server loops build sessions with [`Session::from_config`].

use crate::cachekey;
use crate::json::{self, Json};
use crate::msg::{
    self, code, CacheAction, CacheStatsReply, Command, EmitReply, HealthReply, HookReply, RpcError,
    PROTOCOL_VERSION,
};
use crate::server::{ServeConfig, ShedCounters};
use e9cache::Cache;
use e9patch::{ExtraSegment, PatchRequest, RewriteConfig};
use e9x86::insn::Insn;
use std::sync::Arc;

/// Per-session resource quotas. One hostile client must not be able to
/// grow a session's buffers without bound: every intake command is checked
/// against these caps and rejected with [`code::LIMIT`] when exceeded —
/// the session itself stays usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLimits {
    /// Largest accepted input binary, in bytes.
    pub max_binary_bytes: usize,
    /// Most `instruction` declarations per session.
    pub max_insns: usize,
    /// Most buffered `patch` requests per session.
    pub max_patches: usize,
    /// Most `reserve` segments per session.
    pub max_extra_segments: usize,
    /// Combined size of all `reserve` segment contents, in bytes.
    pub max_extra_bytes: usize,
}

impl Default for SessionLimits {
    fn default() -> SessionLimits {
        SessionLimits {
            max_binary_bytes: 256 << 20,
            max_insns: 4_000_000,
            max_patches: 1_000_000,
            max_extra_segments: 64,
            max_extra_bytes: 256 << 20,
        }
    }
}

/// One protocol session (one connection's worth of rewriter state).
#[derive(Debug)]
pub struct Session {
    version: Option<u64>,
    binary: Option<Vec<u8>>,
    /// Tree digest of `binary`, computed at most once per session —
    /// verified at intake when the client sent one, or lazily at the
    /// first cache-engaged `emit` otherwise.
    binary_digest: Option<e9cache::Digest>,
    config: RewriteConfig,
    insns: Vec<Insn>,
    extra: Vec<ExtraSegment>,
    extra_bytes: usize,
    patches: Vec<PatchRequest>,
    limits: SessionLimits,
    shutdown: bool,
    /// Shared rewrite cache (one per server, not per session).
    cache: Option<Arc<Cache>>,
    /// Serving core reported by `health` (`in-process` when no server
    /// loop owns this session).
    serving_mode: &'static str,
    /// Shared load-shedding counters (one per server).
    shed: Arc<ShedCounters>,
}

impl Default for Session {
    fn default() -> Session {
        Session::from_config(&ServeConfig::default())
    }
}

impl Session {
    /// A fresh session with the default rewriter configuration.
    pub fn new() -> Session {
        Session::default()
    }

    /// The session a server hands each connection: `config`'s quotas,
    /// shared cache, and the serving-core identity and shed counters
    /// `health` reports. Every server loop builds its sessions here.
    pub fn from_config(config: &ServeConfig) -> Session {
        Session {
            version: None,
            binary: None,
            binary_digest: None,
            config: RewriteConfig::default(),
            insns: Vec::new(),
            extra: Vec::new(),
            extra_bytes: 0,
            patches: Vec::new(),
            limits: config.limits,
            shutdown: false,
            cache: config.cache.clone(),
            serving_mode: config.serving_mode,
            shed: Arc::clone(&config.shed),
        }
    }

    fn over_limit(what: &str, cap: usize) -> RpcError {
        RpcError::new(
            code::LIMIT,
            format!("session quota exceeded: {what} (max {cap})"),
        )
    }

    /// Check that `segments` more reserved segments holding `bytes` and
    /// `patches` more patch requests fit the quotas, naming the first
    /// one they break. Every intake command checks here before any
    /// buffer grows, so a rejected command leaves the session unchanged.
    fn admit(&self, segments: usize, bytes: usize, patches: usize) -> Result<(), RpcError> {
        let l = &self.limits;
        if self.extra.len() + segments > l.max_extra_segments {
            return Err(Self::over_limit("reserve segments", l.max_extra_segments));
        }
        if self.extra_bytes.saturating_add(bytes) > l.max_extra_bytes {
            return Err(Self::over_limit("reserve bytes", l.max_extra_bytes));
        }
        if self.patches.len() + patches > l.max_patches {
            return Err(Self::over_limit("patches", l.max_patches));
        }
        Ok(())
    }

    /// Whether a `shutdown` command has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Handle one command, returning the `result` payload as a tree.
    ///
    /// # Errors
    ///
    /// Protocol-state violations, invalid parameters and rewrite failures,
    /// each with its [`code`] constant.
    pub fn handle(&mut self, cmd: Command) -> Result<Json, RpcError> {
        self.answer(cmd).map(Answer::into_json)
    }

    /// Handle one command, returning the `result` payload as the server
    /// writes it, with no tree: `{}`, a small result written where it is
    /// made, or an `emit` reply written straight into the reply line.
    pub(crate) fn answer(&mut self, cmd: Command) -> Result<Answer, RpcError> {
        // Everything except version negotiation requires it done first —
        // except `health`, which must work against a daemon an operator
        // cannot (or does not want to) handshake with.
        if self.version.is_none() && !matches!(cmd, Command::Version { .. } | Command::Health) {
            return Err(RpcError::state("version not negotiated"));
        }
        match cmd {
            Command::Version { version } => self.version_cmd(version),
            Command::Binary { bytes, digest } => self.binary_cmd(bytes, digest),
            Command::Option { name, value } => self.option_cmd(&name, &value),
            Command::Reserve {
                vaddr,
                bytes,
                exec,
                write,
            } => {
                self.admit(1, bytes.len(), 0)?;
                self.extra_bytes += bytes.len();
                self.extra.push(ExtraSegment {
                    vaddr,
                    bytes,
                    exec,
                    write,
                });
                Ok(Answer::Empty)
            }
            Command::Instruction { addr, bytes } => self.instruction_cmd(addr, &bytes),
            Command::Patch { addr, template } => {
                if self.binary.is_none() {
                    return Err(RpcError::state("patch before binary"));
                }
                self.admit(0, 0, 1)?;
                self.patches.push(PatchRequest { addr, template });
                Ok(Answer::Empty)
            }
            Command::Hook {
                funcs,
                addrs,
                call_original,
                payload,
            } => self.hook_cmd(e9hook::HookSpec {
                funcs,
                addrs,
                call_original,
                payload,
            }),
            Command::Emit => self.emit_cmd().map(|r| Answer::Emit(Box::new(r))),
            Command::Cache { action } => Ok(self.cache_cmd(action)),
            Command::Health => Ok(Answer::written(|out| self.health_reply().write_json(out))),
            Command::Shutdown => {
                self.shutdown = true;
                Ok(Answer::Empty)
            }
        }
    }

    fn version_cmd(&mut self, version: u64) -> Result<Answer, RpcError> {
        if self.version.is_some() {
            return Err(RpcError::state("version already negotiated"));
        }
        if version != PROTOCOL_VERSION {
            return Err(RpcError::new(
                code::VERSION,
                format!(
                    "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                ),
            ));
        }
        self.version = Some(version);
        let reply = format!(r#"{{"version":{PROTOCOL_VERSION},"server":"e9patchd"}}"#);
        Ok(Answer::Written(reply.into_bytes()))
    }

    fn binary_cmd(
        &mut self,
        bytes: Vec<u8>,
        digest: Option<e9cache::Digest>,
    ) -> Result<Answer, RpcError> {
        if self.binary.is_some() {
            return Err(RpcError::state("binary already loaded"));
        }
        if bytes.len() > self.limits.max_binary_bytes {
            return Err(Self::over_limit(
                "binary bytes",
                self.limits.max_binary_bytes,
            ));
        }
        // Validate eagerly so the client hears about a bad image now, not
        // at emit time.
        let elf = e9elf::Elf::parse(&bytes)
            .map_err(|e| RpcError::new(code::REWRITE, format!("unparseable ELF: {e}")))?;
        if let Some(claimed) = digest {
            // Verify, never trust: the cache is shared across every
            // client of this daemon, so an unchecked digest would let one
            // client poison another's cache keys. The recompute here is
            // the session's ONE hash of the input — every later emit
            // reuses it.
            let actual = e9cache::tree::tree_digest(&bytes, 1);
            if actual != claimed {
                return Err(RpcError::invalid_params(format!(
                    "binary digest mismatch: claimed {} but input hashes to {}",
                    e9cache::sha256::hex(&claimed),
                    e9cache::sha256::hex(&actual),
                )));
            }
            self.binary_digest = Some(actual);
        }
        let reply = format!(r#"{{"size":{},"entry":{}}}"#, bytes.len(), elf.entry());
        self.binary = Some(bytes);
        Ok(Answer::Written(reply.into_bytes()))
    }

    fn option_cmd(&mut self, name: &str, value: &str) -> Result<Answer, RpcError> {
        msg::apply_option(&mut self.config, name, value)?;
        Ok(Answer::Empty)
    }

    fn instruction_cmd(&mut self, addr: u64, bytes: &[u8]) -> Result<Answer, RpcError> {
        if self.binary.is_none() {
            return Err(RpcError::state("instruction before binary"));
        }
        if self.insns.len() >= self.limits.max_insns {
            return Err(Self::over_limit("instructions", self.limits.max_insns));
        }
        let insn = e9x86::decode::decode(bytes, addr)
            .map_err(|e| RpcError::new(code::DECODE, format!("{addr:#x}: {e:?}")))?;
        if insn.len() != bytes.len() {
            return Err(RpcError::new(
                code::DECODE,
                format!(
                    "{addr:#x}: {} byte(s) sent but instruction is {}",
                    bytes.len(),
                    insn.len()
                ),
            ));
        }
        self.insns.push(insn);
        Ok(Answer::Empty)
    }

    /// Plan a hook batch server-side and buffer its segments and patches
    /// exactly as if the client had streamed them: a following `emit`
    /// sees the identical batch (and derives the identical cache key) a
    /// locally-planning client would have produced.
    fn hook_cmd(&mut self, spec: e9hook::HookSpec) -> Result<Answer, RpcError> {
        let Some(binary) = self.binary.as_deref() else {
            return Err(RpcError::state("hook before binary"));
        };
        let plan = e9hook::plan_hooks(binary, &self.insns, &spec)
            .map_err(|e| RpcError::new(code::REWRITE, e.to_string()))?;
        // Admit the whole plan or none of it.
        let plan_bytes: usize = plan.extra.iter().map(|s| s.bytes.len()).sum();
        self.admit(plan.extra.len(), plan_bytes, plan.requests.len())?;
        self.extra_bytes += plan_bytes;
        self.extra.extend(plan.extra);
        self.patches.extend(plan.requests);
        let reply = HookReply {
            hooks: plan.hooks,
            counters_addr: plan.counters_addr,
            manifest_addr: plan.manifest_addr,
        };
        Ok(Answer::written(|out| reply.write_json(out)))
    }

    /// Run the buffered batch through the one cache policy,
    /// [`cachekey::cached_rewrite`], reusing the session's digest memo.
    fn emit_cmd(&mut self) -> Result<EmitReply, RpcError> {
        let Some(binary) = self.binary.as_deref() else {
            return Err(RpcError::state("emit before binary"));
        };
        let job = cachekey::Job {
            binary,
            disasm: &self.insns,
            requests: &self.patches,
            extra: &self.extra,
            config: self.config,
        };
        Ok(cachekey::cached_rewrite(
            self.cache.as_deref(),
            &mut self.binary_digest,
            &job,
        )?)
    }

    fn cache_cmd(&mut self, action: CacheAction) -> Answer {
        match action {
            CacheAction::Stats => Answer::written(|out| self.cache_stats().write_json(out)),
            CacheAction::Clear => {
                let (cleared, disk_removed) = match &self.cache {
                    Some(c) => (true, c.clear()),
                    None => (false, 0),
                };
                let reply = format!(r#"{{"cleared":{cleared},"disk_removed":{disk_removed}}}"#);
                Answer::Written(reply.into_bytes())
            }
        }
    }

    /// Assemble the `health` snapshot: serving core, shed counters,
    /// fault-injection state and the cache/breaker counters.
    fn health_reply(&self) -> HealthReply {
        let (shed_admission, shed_busy) = self.shed.snapshot();
        HealthReply {
            serving_mode: self.serving_mode.to_string(),
            shed_admission,
            shed_busy,
            faults_enabled: e9failpt::is_enabled(),
            fault_spec: e9failpt::active_spec().unwrap_or_default(),
            faults_injected: e9failpt::injected_total(),
            cache: self.cache_stats(),
        }
    }

    /// The cache counters `cache stats` and `health` report.
    fn cache_stats(&self) -> CacheStatsReply {
        match &self.cache {
            Some(c) => CacheStatsReply {
                enabled: true,
                disk: c.has_disk(),
                stats: c.stats(),
            },
            None => CacheStatsReply::default(),
        }
    }
}

/// A command's `result` as the server writes it.
pub(crate) enum Answer {
    /// The empty `{}` result of every intake command.
    Empty,
    /// A small result, written once where it is made: the replies to
    /// `version`, `binary`, `hook`, `cache` and `health`.
    Written(Vec<u8>),
    /// An `emit` reply, written directly ([`EmitReply::write_json`]);
    /// boxed, so the answer to every other command stays small.
    Emit(Box<EmitReply>),
}

impl Answer {
    /// The result its writer `write` appends.
    fn written(write: impl FnOnce(&mut Vec<u8>)) -> Answer {
        let mut out = Vec::new();
        write(&mut out);
        Answer::Written(out)
    }

    /// The result as a tree, whose serialization is the bytes of
    /// [`write_to`](Answer::write_to): a written result parsed back, or
    /// the `emit` reply's own tree writer, [`EmitReply::to_json`].
    pub(crate) fn into_json(self) -> Json {
        match self {
            Answer::Empty => Json::Obj(Vec::new()),
            Answer::Written(text) => json::parse(&text).expect("a written result is JSON"),
            Answer::Emit(reply) => reply.to_json(),
        }
    }

    /// Append the result's canonical text to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Answer::Empty => out.extend_from_slice(b"{}"),
            Answer::Written(text) => out.extend_from_slice(text),
            Answer::Emit(reply) => reply.write_json(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::EmitReply;
    use e9patch::{Rewriter, Template};

    /// A session sharing `cache`, as a daemon connection would.
    fn cached_session(cache: Option<Arc<Cache>>) -> Session {
        Session::from_config(&ServeConfig {
            cache,
            ..ServeConfig::default()
        })
    }

    /// A tiny non-PIE binary (Figure-1 shape) plus its code bytes.
    fn tiny() -> (Vec<u8>, Vec<u8>, u64) {
        let code = vec![
            0x48, 0x89, 0x03, // mov %rax,(%rbx)
            0x48, 0x83, 0xC0, 0x20, // add $32,%rax
            0xC3, // ret
            0x0F, 0x1F, 0x44, 0x00, 0x00, // nop padding
            0x0F, 0x1F, 0x44, 0x00, 0x00,
        ];
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code.clone(), 0x401000);
        b.entry(0x401000);
        (b.build(), code, 0x401000)
    }

    fn drive(session: &mut Session, cmds: Vec<Command>) -> Vec<Result<Json, RpcError>> {
        cmds.into_iter().map(|c| session.handle(c)).collect()
    }

    #[test]
    fn state_machine_orders_commands() {
        let mut s = Session::new();
        // Anything before version is a state error.
        let e = s.handle(Command::Emit).unwrap_err();
        assert_eq!(e.code, code::STATE);
        // Wrong version is rejected and the session stays un-negotiated.
        let e = s.handle(Command::Version { version: 99 }).unwrap_err();
        assert_eq!(e.code, code::VERSION);
        assert!(s.handle(Command::Version { version: 1 }).is_ok());
        // Double negotiation is a state error.
        let e = s.handle(Command::Version { version: 1 }).unwrap_err();
        assert_eq!(e.code, code::STATE);
        // Instruction/patch before binary are state errors.
        let e = s
            .handle(Command::Instruction {
                addr: 0x401000,
                bytes: vec![0xC3],
            })
            .unwrap_err();
        assert_eq!(e.code, code::STATE);
        let e = s
            .handle(Command::Patch {
                addr: 0x401000,
                template: Template::Empty,
            })
            .unwrap_err();
        assert_eq!(e.code, code::STATE);
    }

    #[test]
    fn full_session_emits_patched_binary() {
        let (bin, code, base) = tiny();
        let disasm = e9x86::decode::linear_sweep(&code, base);
        let mut s = Session::new();
        let mut cmds = vec![
            Command::Version { version: 1 },
            Command::Binary {
                bytes: bin.clone(),
                digest: None,
            },
        ];
        for i in &disasm {
            cmds.push(Command::Instruction {
                addr: i.addr,
                bytes: i.bytes().to_vec(),
            });
        }
        cmds.push(Command::Patch {
            addr: base,
            template: Template::Empty,
        });
        for r in drive(&mut s, cmds) {
            r.expect("setup command failed");
        }
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.stats.succeeded(), 1);
        // Byte-identical to the in-process path with the same inputs.
        let direct = Rewriter::new(RewriteConfig::default())
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: base,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(reply.binary, direct.binary);
        assert_eq!(reply.stats, direct.stats);
        assert_eq!(reply.loader_addr, direct.loader_addr);
    }

    #[test]
    fn options_steer_the_config() {
        let (bin, code, base) = tiny();
        let disasm = e9x86::decode::linear_sweep(&code, base);
        let mut s = Session::new();
        s.handle(Command::Version { version: 1 }).unwrap();
        for (n, v) in [
            ("t1", "false"),
            ("t2", "false"),
            ("t3", "false"),
            ("granularity", "4"),
        ] {
            s.handle(Command::Option {
                name: n.into(),
                value: v.into(),
            })
            .unwrap();
        }
        s.handle(Command::Binary {
            bytes: bin,
            digest: None,
        })
        .unwrap();
        s.handle(Command::Instruction {
            addr: base,
            bytes: disasm[0].bytes().to_vec(),
        })
        .unwrap();
        s.handle(Command::Patch {
            addr: base,
            template: Template::Empty,
        })
        .unwrap();
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        // Base-only tactics cannot pun this low non-PIE address: failed.
        assert_eq!(reply.stats.failed, 1);
        assert_eq!(reply.size.granularity, 4);
        // Unknown options and bad values are invalid-params.
        let e = s
            .handle(Command::Option {
                name: "turbo".into(),
                value: "on".into(),
            })
            .unwrap_err();
        assert_eq!(e.code, code::INVALID_PARAMS);
        let e = s
            .handle(Command::Option {
                name: "granularity".into(),
                value: "0".into(),
            })
            .unwrap_err();
        assert_eq!(e.code, code::INVALID_PARAMS);
    }

    #[test]
    fn jobs_option_parses_and_rejects_zero() {
        // Accepted for old clients and ignored: the config is unchanged.
        let mut s = Session::new();
        s.handle(Command::Version { version: 1 }).unwrap();
        s.handle(Command::Option {
            name: "jobs".into(),
            value: "4".into(),
        })
        .unwrap();
        assert_eq!(s.config, RewriteConfig::default());
        for bad in ["0", "-1", "many"] {
            let e = s
                .handle(Command::Option {
                    name: "jobs".into(),
                    value: bad.into(),
                })
                .unwrap_err();
            assert_eq!(e.code, code::INVALID_PARAMS, "value {bad:?}");
        }
    }

    #[test]
    fn unrunnable_granularity_is_refused_at_option_time() {
        // The option is refused, and the session keeps its config and
        // still emits.
        let mut s = primed_session(None);
        for m in [(1u64 << 35) - 1, 1 << 52] {
            let e = s
                .handle(Command::Option {
                    name: "granularity".into(),
                    value: m.to_string(),
                })
                .unwrap_err();
            assert_eq!(e.code, code::INVALID_PARAMS);
            assert!(
                e.message.contains(&format!("granularity {m} out of range")),
                "{}",
                e.message
            );
        }
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.size.granularity, 1);
    }

    #[test]
    fn bad_instruction_bytes_are_decode_errors() {
        let (bin, _, _) = tiny();
        let mut s = Session::new();
        s.handle(Command::Version { version: 1 }).unwrap();
        s.handle(Command::Binary {
            bytes: bin,
            digest: None,
        })
        .unwrap();
        // Truncated instruction (mov needs 3 bytes).
        let e = s
            .handle(Command::Instruction {
                addr: 0x401000,
                bytes: vec![0x48, 0x89],
            })
            .unwrap_err();
        assert_eq!(e.code, code::DECODE);
        // Trailing bytes beyond the decoded length.
        let e = s
            .handle(Command::Instruction {
                addr: 0x401000,
                bytes: vec![0xC3, 0x90],
            })
            .unwrap_err();
        assert_eq!(e.code, code::DECODE);
    }

    /// An instruction whose end would pass 2^64 is a decode error, and the
    /// patch and emit after it are typed errors, not a panic.
    #[test]
    fn instruction_ending_past_the_address_space_is_a_decode_error() {
        let (bin, _, _) = tiny();
        for (bytes, addr) in [
            (vec![0xEB, 0x00], u64::MAX - 1),
            (vec![0x48, 0x89, 0x03], u64::MAX - 2),
        ] {
            let mut s = Session::new();
            s.handle(Command::Version { version: 1 }).unwrap();
            s.handle(Command::Binary {
                bytes: bin.clone(),
                digest: None,
            })
            .unwrap();
            let e = s.handle(Command::Instruction { addr, bytes }).unwrap_err();
            assert_eq!(e.code, code::DECODE);
            let _ = s.handle(Command::Patch {
                addr,
                template: Template::Empty,
            });
            let e = s.handle(Command::Emit).unwrap_err();
            assert_eq!(e.code, code::REWRITE, "{e}");
        }
    }

    /// A fully-driven session up to (but excluding) `emit`, with the
    /// tiny workload patched at its first instruction.
    fn primed_session(cache: Option<Arc<Cache>>) -> Session {
        let (bin, code, base) = tiny();
        let disasm = e9x86::decode::linear_sweep(&code, base);
        let mut s = cached_session(cache);
        s.handle(Command::Version { version: 1 }).unwrap();
        s.handle(Command::Binary {
            bytes: bin,
            digest: None,
        })
        .unwrap();
        for i in &disasm {
            s.handle(Command::Instruction {
                addr: i.addr,
                bytes: i.bytes().to_vec(),
            })
            .unwrap();
        }
        s.handle(Command::Patch {
            addr: base,
            template: Template::Empty,
        })
        .unwrap();
        s
    }

    #[test]
    fn emit_without_cache_reports_off() {
        let mut s = primed_session(None);
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.cache, crate::msg::CacheDisposition::Off);
        assert_eq!(reply.digest, None);
    }

    #[test]
    fn emit_misses_then_hits_byte_identically() {
        use crate::msg::CacheDisposition;
        let cache = Arc::new(Cache::in_memory_no_bypass());
        // Two *sessions* sharing one cache, like two daemon connections.
        let mut a = primed_session(Some(Arc::clone(&cache)));
        let cold = EmitReply::from_json(&a.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(cold.cache, CacheDisposition::Miss);
        let digest = cold.digest.clone().expect("miss carries the digest");

        let mut b = primed_session(Some(Arc::clone(&cache)));
        let warm = EmitReply::from_json(&b.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(warm.cache, CacheDisposition::Hit);
        assert_eq!(warm.digest, Some(digest));
        // The cache-hit invariant: bytes identical to the cold rewrite.
        assert_eq!(warm.binary, cold.binary);
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.reports, cold.reports);
        assert_eq!(warm.mappings, cold.mappings);

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.stores, 1);
    }

    #[test]
    fn config_change_changes_the_key() {
        let cache = Arc::new(Cache::in_memory_no_bypass());
        let mut a = primed_session(Some(Arc::clone(&cache)));
        a.handle(Command::Emit).unwrap();
        // Same job but different granularity: a distinct cache entry.
        let mut b = primed_session(Some(Arc::clone(&cache)));
        b.handle(Command::Option {
            name: "granularity".into(),
            value: "4".into(),
        })
        .unwrap();
        let reply = EmitReply::from_json(&b.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.cache, crate::msg::CacheDisposition::Miss);
        assert_eq!(cache.stats().stores, 2);
    }

    #[test]
    fn failing_rewrite_is_cached_negatively() {
        let (bin, _, _) = tiny();
        let cache = Arc::new(Cache::in_memory_no_bypass());
        let mut s = cached_session(Some(Arc::clone(&cache)));
        s.handle(Command::Version { version: 1 }).unwrap();
        s.handle(Command::Binary {
            bytes: bin,
            digest: None,
        })
        .unwrap();
        // A patch at an address with no declared instruction fails the
        // rewrite deterministically.
        s.handle(Command::Patch {
            addr: 0x401000,
            template: Template::Empty,
        })
        .unwrap();
        let cold = s.handle(Command::Emit).unwrap_err();
        assert_eq!(cold.code, code::REWRITE);
        let warm = s.handle(Command::Emit).unwrap_err();
        // Replayed typed error, served from the negative entry.
        assert_eq!(warm, cold);
        assert_eq!(cache.stats().negative_hits, 1);
    }

    #[test]
    fn tiny_emits_bypass_the_cache_by_default() {
        use crate::msg::CacheDisposition;
        // The default threshold (64 KiB) dwarfs the tiny workload, so a
        // session with an un-tuned cache must skip keying entirely.
        let cache = Arc::new(Cache::in_memory());
        let mut s = primed_session(Some(Arc::clone(&cache)));
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.cache, CacheDisposition::Bypass);
        assert_eq!(reply.digest, None);
        let stats = cache.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.stores, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn bypassed_failures_are_not_cached_negatively() {
        let (bin, _, _) = tiny();
        let cache = Arc::new(Cache::in_memory());
        let mut s = cached_session(Some(Arc::clone(&cache)));
        s.handle(Command::Version { version: 1 }).unwrap();
        s.handle(Command::Binary {
            bytes: bin,
            digest: None,
        })
        .unwrap();
        s.handle(Command::Patch {
            addr: 0x401000,
            template: Template::Empty,
        })
        .unwrap();
        // Both emits fail cold: below the threshold nothing is keyed, so
        // nothing — not even the failure — is stored.
        let first = s.handle(Command::Emit).unwrap_err();
        let second = s.handle(Command::Emit).unwrap_err();
        assert_eq!(first.code, code::REWRITE);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.stores, 0);
        assert_eq!(stats.negative_hits, 0);
        assert_eq!(stats.bypasses, 2);
    }

    #[test]
    fn binary_digest_is_verified_at_intake() {
        let (bin, _, _) = tiny();
        let mut s = Session::new();
        s.handle(Command::Version { version: 1 }).unwrap();
        let wrong = e9cache::digest(b"not the binary");
        let e = s
            .handle(Command::Binary {
                bytes: bin.clone(),
                digest: Some(wrong),
            })
            .unwrap_err();
        assert_eq!(e.code, code::INVALID_PARAMS);
        assert!(e.message.contains("digest mismatch"), "{}", e.message);
        // The rejected intake left no binary behind; the correct digest
        // is accepted.
        let right = e9cache::tree::tree_digest(&bin, 1);
        s.handle(Command::Binary {
            bytes: bin,
            digest: Some(right),
        })
        .unwrap();
    }

    #[test]
    fn cache_command_reports_and_clears() {
        use crate::msg::{CacheAction, CacheStatsReply};
        // Without a cache: disabled, zero counters, clear is a no-op.
        let mut bare = Session::new();
        bare.handle(Command::Version { version: 1 }).unwrap();
        let r = bare
            .handle(Command::Cache {
                action: CacheAction::Stats,
            })
            .unwrap();
        let stats = CacheStatsReply::from_json(&r).unwrap();
        assert!(!stats.enabled);

        let cache = Arc::new(Cache::in_memory_no_bypass());
        let mut s = primed_session(Some(Arc::clone(&cache)));
        s.handle(Command::Emit).unwrap();
        let r = s
            .handle(Command::Cache {
                action: CacheAction::Stats,
            })
            .unwrap();
        let stats = CacheStatsReply::from_json(&r).unwrap();
        assert!(stats.enabled);
        assert!(!stats.disk);
        assert_eq!(stats.stats.stores, 1);
        let r = s
            .handle(Command::Cache {
                action: CacheAction::Clear,
            })
            .unwrap();
        assert_eq!(r.get("cleared").and_then(Json::as_bool), Some(true));
        // Cleared: the same emit misses again.
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.cache, crate::msg::CacheDisposition::Miss);
    }

    #[test]
    fn health_is_allowed_pre_version_and_reports_state() {
        use crate::msg::HealthReply;
        use crate::server::ShedCounters;

        // No version negotiated yet: health must still answer (it is the
        // one command an operator can always issue against a live daemon).
        let mut s = Session::new();
        let h = HealthReply::from_json(&s.handle(Command::Health).unwrap()).unwrap();
        assert_eq!(h.serving_mode, "in-process");
        assert!(!h.cache.enabled);
        assert_eq!(h.shed_admission, 0);
        // Health does not substitute for negotiation: emit still gates.
        let e = s.handle(Command::Emit).unwrap_err();
        assert_eq!(e.code, code::STATE);

        // A daemon-shaped session reports its serving mode, shed
        // counters and cache tier state.
        let shed = Arc::new(ShedCounters::default());
        shed.admission
            .fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        shed.busy.fetch_add(5, std::sync::atomic::Ordering::Relaxed);
        let mut d = Session::from_config(&ServeConfig {
            cache: Some(Arc::new(Cache::in_memory())),
            serving_mode: "reactor",
            shed,
            ..ServeConfig::default()
        });
        let h = HealthReply::from_json(&d.handle(Command::Health).unwrap()).unwrap();
        assert_eq!(h.serving_mode, "reactor");
        assert!(h.cache.enabled);
        assert!(!h.cache.disk);
        assert_eq!((h.shed_admission, h.shed_busy), (3, 5));
        assert!(!h.cache.stats.disk_breaker_open);
    }

    #[test]
    fn bad_elf_rejected_at_binary_time() {
        let mut s = Session::new();
        s.handle(Command::Version { version: 1 }).unwrap();
        let e = s
            .handle(Command::Binary {
                bytes: vec![0u8; 64],
                digest: None,
            })
            .unwrap_err();
        assert_eq!(e.code, code::REWRITE);
        // The session still has no binary: emit remains a state error.
        let e = s.handle(Command::Emit).unwrap_err();
        assert_eq!(e.code, code::STATE);
    }
}
