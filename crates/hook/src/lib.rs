//! # e9hook — symbol-driven function hooking
//!
//! A first-class detour subsystem layered on the E9Patch-style rewriter:
//! resolve function names (or globs, or explicit addresses for stripped
//! binaries) to entry points, lower each hook to an ordinary patch batch
//! — a register-preserving trampoline template plus injected runtime
//! segments — and record everything in a persistent [`manifest`] inside
//! the output binary.
//!
//! Because [`plan_hooks`] produces nothing but `PatchRequest`s and
//! `ExtraSegment`s, hook jobs flow unchanged through every existing
//! execution path: the in-process rewriter, the content-addressed rewrite
//! cache, and the `e9patchd` wire backends.
//! Identical specs produce identical batches, so all paths emit
//! byte-identical binaries.
//!
//! ## Hook shapes
//!
//! * **Plain** (`Template::HookSave`): at function entry, spill all 15
//!   GPRs + RFLAGS past the red zone, call `payload(site)`, restore,
//!   execute the displaced entry instruction, continue.
//! * **Call-original** (`Template::HookOriginal`): as above, but the
//!   payload receives `payload(site, thunk)` where `thunk` is an
//!   executable relocation of the displaced entry instruction followed by
//!   a jump to the second instruction — calling it re-enters the original
//!   function. The trampoline itself also resumes through the thunk.

pub mod manifest;

use e9elf::symbols::{self, SymbolError};
use e9elf::Elf;
use e9patch::{ExtraSegment, PatchRequest, Template};
use e9x86::asm::{Asm, Mem};
use e9x86::insn::{Insn, Kind};
use e9x86::reg::{Reg, Width};
use e9x86::reloc;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use manifest::{HookRecord, ManifestError, FLAG_CALL_ORIGINAL};

/// What each hook's payload does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadKind {
    /// Increment a per-hook 64-bit counter cell (readable back through
    /// the manifest's `counter_addr`). The canonical observable payload.
    Counter,
    /// Return immediately — measures pure hook overhead.
    Nop,
    /// Caller-supplied position-independent code; must end in `ret` and
    /// may clobber any register (the trampoline restores all state).
    Raw(Vec<u8>),
}

/// A hook job: which functions to hook and what the hook does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookSpec {
    /// Function name patterns (exact or shell-style globs), resolved
    /// against the binary's symbol table.
    pub funcs: Vec<String>,
    /// Explicit entry addresses — the fallback for stripped binaries.
    pub addrs: Vec<u64>,
    /// Build a call-original thunk per hook and use the
    /// [`Template::HookOriginal`] trampoline.
    pub call_original: bool,
    /// The payload body.
    pub payload: PayloadKind,
}

impl HookSpec {
    /// A counter-payload spec for `funcs`.
    pub fn counters(funcs: &[&str]) -> HookSpec {
        HookSpec {
            funcs: funcs.iter().map(|s| s.to_string()).collect(),
            addrs: Vec::new(),
            call_original: false,
            payload: PayloadKind::Counter,
        }
    }
}

/// Hook planning failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HookError {
    /// The binary is not parseable ELF.
    Input(String),
    /// Symbol resolution failed (stripped table or no match; carries
    /// nearest-candidate diagnostics).
    Symbol(SymbolError),
    /// The spec names no functions and no addresses, or resolved to zero
    /// targets.
    NoTargets,
    /// No disassembled instruction starts at a requested entry address.
    NoInstructionAt(u64),
    /// The function's entry instruction cannot be relocated into a
    /// call-original thunk (`loop`/`jrcxz`, or a displacement that cannot
    /// reach from the thunk).
    Unrelocatable {
        /// Entry address of the offending function.
        func_addr: u64,
        /// Human-readable relocation failure.
        detail: String,
    },
}

impl fmt::Display for HookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HookError::Input(m) => write!(f, "bad input: {m}"),
            HookError::Symbol(e) => write!(f, "{e}"),
            HookError::NoTargets => write!(f, "hook spec resolves to no targets"),
            HookError::NoInstructionAt(a) => {
                write!(f, "no disassembled instruction at entry {a:#x}")
            }
            HookError::Unrelocatable { func_addr, detail } => {
                write!(f, "prologue of {func_addr:#x} cannot be relocated: {detail}")
            }
        }
    }
}

impl std::error::Error for HookError {}

impl From<SymbolError> for HookError {
    fn from(e: SymbolError) -> Self {
        HookError::Symbol(e)
    }
}

/// Runtime addresses the hook layer injects at, clear of the binary's own
/// image (the same placement rule the instrumentation frontend uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Executable segment holding payloads and thunks.
    pub code: u64,
    /// Writable segment holding one 8-byte counter cell per hook.
    pub counters: u64,
    /// Read-only segment holding the [`manifest`].
    pub manifest: u64,
}

/// Compute the hook runtime [`Layout`] for a binary.
///
/// # Errors
///
/// Hostile images can push the load extent to the top of the address
/// space, so every step of the placement math is checked; overflow is a
/// typed [`HookError::Input`].
pub fn layout(elf: &Elf) -> Result<Layout, HookError> {
    let (_, hi) = elf.vaddr_extent();
    let code = hi
        .checked_add(0xFFF)
        .map(|v| v & !0xFFF)
        .and_then(|v| v.checked_add(0x100_0000));
    match (code, code.and_then(|c| c.checked_add(0x20_0000))) {
        (Some(code), Some(manifest)) => Ok(Layout {
            code,
            counters: code + 0x10_0000,
            manifest,
        }),
        _ => Err(HookError::Input(
            "image extends beyond the hookable address space".into(),
        )),
    }
}

/// A fully planned hook batch, ready for any rewriting backend.
#[derive(Debug, Clone)]
pub struct HookPlan {
    /// One record per hook, in function-address order (ids are dense from
    /// 0 in that order). The same records are serialized into the
    /// manifest segment.
    pub hooks: Vec<HookRecord>,
    /// One patch request per hook, in the same order.
    pub requests: Vec<PatchRequest>,
    /// Injected segments: payload/thunk code, counter cells (counter
    /// payloads only), and the manifest.
    pub extra: Vec<ExtraSegment>,
    /// Base of the counter-cell table, when the payload keeps counters.
    pub counters_addr: Option<u64>,
    /// Address of the manifest segment.
    pub manifest_addr: u64,
}

/// Does `kind` unconditionally leave the thunk (no fall-through jump
/// needed after the relocated entry instruction)?
fn diverts(kind: Kind) -> bool {
    matches!(kind, Kind::Ret | Kind::JmpRel8 | Kind::JmpRel32 | Kind::JmpInd)
}

/// Resolve `spec` against `binary` and lower it to a patch batch.
///
/// Targets are deduplicated by entry address and planned in address
/// order, so a given (binary, spec) pair always yields the identical
/// batch — the property that makes hook jobs cache-keyable and
/// byte-identical across in-process and daemon backends.
///
/// # Errors
///
/// Typed [`HookError`]s for unparseable input, failed symbol resolution
/// (with nearest-candidate diagnostics), addresses with no disassembled
/// instruction, and unrelocatable prologues. Per-site patch *placement*
/// failures are not planning errors; they surface in the rewriter's site
/// reports.
pub fn plan_hooks(binary: &[u8], disasm: &[Insn], spec: &HookSpec) -> Result<HookPlan, HookError> {
    let elf = Elf::parse(binary).map_err(|e| HookError::Input(e.to_string()))?;
    if spec.funcs.is_empty() && spec.addrs.is_empty() {
        return Err(HookError::NoTargets);
    }

    // Resolve names first, then merge explicit addresses; a BTreeMap
    // dedupes and fixes the planning order in one move.
    let mut targets: BTreeMap<u64, String> = BTreeMap::new();
    if !spec.funcs.is_empty() {
        let syms = symbols::parse(&elf);
        for pat in &spec.funcs {
            for s in symbols::resolve(&syms, pat)? {
                targets.entry(s.value).or_insert_with(|| s.name.clone());
            }
        }
    }
    for &a in &spec.addrs {
        targets.entry(a).or_insert_with(|| format!("{a:#x}"));
    }
    if targets.is_empty() {
        return Err(HookError::NoTargets);
    }

    let by_addr: HashMap<u64, &Insn> = disasm.iter().map(|i| (i.addr, i)).collect();
    let lay = layout(&elf)?;

    // One pass emits every payload (and thunk) into a single executable
    // segment while the records and patch requests are built alongside.
    let mut a = Asm::new(lay.code);
    let mut hooks: Vec<HookRecord> = Vec::with_capacity(targets.len());
    let mut requests: Vec<PatchRequest> = Vec::with_capacity(targets.len());
    let counters = matches!(spec.payload, PayloadKind::Counter);

    for (id, (&func_addr, name)) in targets.iter().enumerate() {
        let insn = *by_addr
            .get(&func_addr)
            .ok_or(HookError::NoInstructionAt(func_addr))?;
        let id = id as u32;
        let counter_addr = if counters { lay.counters + 8 * id as u64 } else { 0 };

        let payload_addr = a.here();
        match &spec.payload {
            PayloadKind::Counter => {
                a.mov_ri64(Reg::Rax, counter_addr as i64);
                a.inc_m(Width::Q, Mem::base(Reg::Rax));
                a.ret();
            }
            PayloadKind::Nop => a.ret(),
            PayloadKind::Raw(code) => a.raw(code),
        }

        let (thunk_addr, flags) = if spec.call_original {
            let thunk_addr = a.here();
            let displaced =
                reloc::relocate(insn, thunk_addr).map_err(|e| HookError::Unrelocatable {
                    func_addr,
                    detail: e.to_string(),
                })?;
            a.raw(&displaced);
            if !diverts(insn.kind) {
                a.jmp_abs(insn.end()).map_err(|e| HookError::Unrelocatable {
                    func_addr,
                    detail: e.to_string(),
                })?;
            }
            (thunk_addr, FLAG_CALL_ORIGINAL)
        } else {
            (0, 0)
        };

        let template = if spec.call_original {
            Template::HookOriginal {
                func_addr: payload_addr,
                thunk_addr,
            }
        } else {
            Template::HookSave {
                func_addr: payload_addr,
            }
        };
        requests.push(PatchRequest {
            addr: func_addr,
            template,
        });
        hooks.push(HookRecord {
            id,
            flags,
            func_addr,
            payload_addr,
            thunk_addr,
            counter_addr,
            name: name.clone(),
        });
    }

    let code_bytes = a.finish().map_err(|e| HookError::Unrelocatable {
        func_addr: 0,
        detail: e.to_string(),
    })?;

    let mut extra = vec![ExtraSegment {
        vaddr: lay.code,
        bytes: code_bytes,
        exec: true,
        write: false,
    }];
    let counters_addr = if counters {
        extra.push(ExtraSegment {
            vaddr: lay.counters,
            bytes: vec![0u8; (hooks.len() * 8).next_multiple_of(4096)],
            exec: false,
            write: true,
        });
        Some(lay.counters)
    } else {
        None
    };
    extra.push(ExtraSegment {
        vaddr: lay.manifest,
        bytes: manifest::encode(&hooks),
        exec: false,
        write: false,
    });

    Ok(HookPlan {
        hooks,
        requests,
        extra,
        counters_addr,
        manifest_addr: lay.manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9synth::{generate, Profile};

    fn sample() -> e9synth::SynthBinary {
        generate(&Profile::tiny("hooktest", false))
    }

    #[test]
    fn plan_by_name_glob_and_addr() {
        let sb = sample();
        let by_name = plan_hooks(&sb.binary, &sb.disasm, &HookSpec::counters(&["f0000"])).unwrap();
        assert_eq!(by_name.hooks.len(), 1);
        assert_eq!(by_name.hooks[0].name, "f0000");
        assert_eq!(by_name.requests.len(), 1);
        // Payload + counters + manifest segments.
        assert_eq!(by_name.extra.len(), 3);

        let by_glob = plan_hooks(&sb.binary, &sb.disasm, &HookSpec::counters(&["f*"])).unwrap();
        assert!(by_glob.hooks.len() > 1);
        // Address order and dense ids.
        for (k, h) in by_glob.hooks.iter().enumerate() {
            assert_eq!(h.id, k as u32);
        }
        assert!(by_glob.hooks.windows(2).all(|w| w[0].func_addr < w[1].func_addr));

        let addr = by_name.hooks[0].func_addr;
        let by_addr = plan_hooks(
            &sb.binary,
            &sb.disasm,
            &HookSpec {
                funcs: vec![],
                addrs: vec![addr],
                call_original: false,
                payload: PayloadKind::Counter,
            },
        )
        .unwrap();
        assert_eq!(by_addr.hooks[0].func_addr, addr);
        assert_eq!(by_addr.hooks[0].name, format!("{addr:#x}"));
        // Same target → same patch request either way.
        assert_eq!(by_addr.requests, by_name.requests);
    }

    #[test]
    fn planning_is_deterministic() {
        let sb = sample();
        let spec = HookSpec {
            funcs: vec!["f*".into(), "main".into()],
            addrs: vec![],
            call_original: true,
            payload: PayloadKind::Counter,
        };
        let a = plan_hooks(&sb.binary, &sb.disasm, &spec).unwrap();
        let b = plan_hooks(&sb.binary, &sb.disasm, &spec).unwrap();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.hooks, b.hooks);
        assert_eq!(
            a.extra.iter().map(|s| &s.bytes).collect::<Vec<_>>(),
            b.extra.iter().map(|s| &s.bytes).collect::<Vec<_>>()
        );
    }

    #[test]
    fn call_original_builds_thunks() {
        let sb = sample();
        let spec = HookSpec {
            funcs: vec!["f0000".into()],
            addrs: vec![],
            call_original: true,
            payload: PayloadKind::Counter,
        };
        let p = plan_hooks(&sb.binary, &sb.disasm, &spec).unwrap();
        let h = &p.hooks[0];
        assert!(h.is_call_original());
        assert!(h.thunk_addr > h.payload_addr);
        match &p.requests[0].template {
            Template::HookOriginal { func_addr, thunk_addr } => {
                assert_eq!(*func_addr, h.payload_addr);
                assert_eq!(*thunk_addr, h.thunk_addr);
            }
            t => panic!("wrong template: {t:?}"),
        }
        // The thunk starts with a relocation of the entry instruction:
        // decodable, and its fall-through jump targets the second insn.
        let code = &p.extra[0];
        let off = (h.thunk_addr - code.vaddr) as usize;
        let first = e9x86::decode(&code.bytes[off..], h.thunk_addr).unwrap();
        let entry = sb.disasm.iter().find(|i| i.addr == h.func_addr).unwrap();
        let j = e9x86::decode(
            &code.bytes[off + first.len()..],
            h.thunk_addr + first.len() as u64,
        )
        .unwrap();
        assert_eq!(j.branch_target(), Some(entry.end()));
    }

    #[test]
    fn manifest_segment_roundtrips() {
        let sb = sample();
        let p = plan_hooks(&sb.binary, &sb.disasm, &HookSpec::counters(&["f*"])).unwrap();
        let seg = p.extra.iter().find(|s| s.vaddr == p.manifest_addr).unwrap();
        assert_eq!(manifest::decode(&seg.bytes).unwrap(), p.hooks);
    }

    #[test]
    fn typed_errors() {
        let sb = sample();
        assert!(matches!(
            plan_hooks(&sb.binary, &sb.disasm, &HookSpec::counters(&["f000x"])),
            Err(HookError::Symbol(SymbolError::NotFound { .. }))
        ));
        assert_eq!(
            plan_hooks(
                &sb.binary,
                &sb.disasm,
                &HookSpec {
                    funcs: vec![],
                    addrs: vec![],
                    call_original: false,
                    payload: PayloadKind::Counter,
                }
            )
            .unwrap_err(),
            HookError::NoTargets
        );
        assert_eq!(
            plan_hooks(
                &sb.binary,
                &sb.disasm,
                &HookSpec {
                    funcs: vec![],
                    addrs: vec![0xdead_0000],
                    call_original: false,
                    payload: PayloadKind::Counter,
                }
            )
            .unwrap_err(),
            HookError::NoInstructionAt(0xdead_0000)
        );
        assert!(matches!(
            plan_hooks(&b"not an elf"[..].to_vec().as_slice(), &[], &HookSpec::counters(&["f"])),
            Err(HookError::Input(_))
        ));
    }

    #[test]
    fn stripped_binary_needs_addresses() {
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(vec![0xC3], 0x401000);
        b.entry(0x401000);
        let bin = b.build();
        let disasm = vec![e9x86::decode(&[0xC3], 0x401000).unwrap()];
        assert!(matches!(
            plan_hooks(&bin, &disasm, &HookSpec::counters(&["main"])),
            Err(HookError::Symbol(SymbolError::Stripped))
        ));
        // Explicit address works on the same stripped binary.
        let p = plan_hooks(
            &bin,
            &disasm,
            &HookSpec {
                funcs: vec![],
                addrs: vec![0x401000],
                call_original: false,
                payload: PayloadKind::Nop,
            },
        )
        .unwrap();
        assert_eq!(p.hooks[0].name, "0x401000");
        assert!(p.counters_addr.is_none());
        assert_eq!(p.extra.len(), 2); // code + manifest, no counter table
    }
}
