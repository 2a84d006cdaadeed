//! Cache-key derivation for finished rewrites.
//!
//! A rewrite's output is a pure function of `(input ELF bytes, the full
//! command batch, the rewriter configuration)` — the pipeline is
//! deterministic, so the output is safely addressable by a digest of
//! those inputs, which is what [`rewrite_key_from_digest`] computes.
//!
//! The key material is one compact binary framing, written by one small
//! writer that stages it in a 64 KiB buffer and hands each fill to
//! [`Sha256::update`] at once:
//!
//! * a prefix: a domain tag, [`e9cache::FORMAT_VERSION`],
//!   [`PROTOCOL_VERSION`] and the length-prefixed binary digest;
//! * the instructions, count-prefixed. Each is one header byte holding
//!   its length (1..=15), then its bytes. The header's high bit says an
//!   explicit 8-byte address precedes the bytes; it is set on the first
//!   instruction and on any that does not start where the previous one
//!   ended, so a linear sweep keys about one address per section;
//! * the reserved segments, count-prefixed: address, one flag byte and
//!   the length-prefixed bytes;
//! * the patches, count-prefixed: address, one tag byte per `Template`
//!   variant and its fixed fields (`Replace`: length-prefixed `code`,
//!   then a tagged `resume`);
//! * the seven keyed [`RewriteConfig`] fields as fixed-width bytes.
//!
//! Multi-byte integers are little-endian. Hashing raw bytes keeps keying
//! linear in the input with a small constant — the batch can carry
//! megabytes of instruction and segment bytes. `e9tool patch
//! --cache-dir` (in-process) and an `e9patchd` session (wire) derive
//! byte-identical keys for the same logical job, so they share cache
//! entries.
//!
//! The binary itself enters the key as its [`e9cache::tree`] digest, not
//! its raw bytes — that is what lets a client hash the input once, send
//! the digest alongside the `binary` command, and have the server reuse
//! the verified digest for every subsequent `emit` ([`rewrite_key_from_digest`]).
//!
//! Deliberately **excluded** from the key:
//!
//! * `RewriteConfig::jobs` — nothing reads it, so it cannot change
//!   output bytes.
//! * anything about the serving surface (socket vs stdio vs in-process),
//!   session limits, or I/O paths.
//!
//! ## The cache policy, in one function
//!
//! [`cached_rewrite`] is the only code that consults the cache. An
//! `e9patchd` session's `emit` and every in-process e9front driver call
//! it with the same [`Job`], so the two derive the same key and read and
//! write the same entries. Its steps, in order:
//!
//! 1. **bypass** — below [`Cache::should_bypass`]'s size the rewrite runs
//!    cold and nothing is keyed or stored (failures included);
//! 2. **digest** — the input's tree digest, computed at most once per
//!    caller-held memo (a session's verified intake digest is reused);
//! 3. **key** — [`rewrite_key_from_digest`];
//! 4. **lookup** — a stored reply is decoded and served; an undecodable
//!    one falls through cold; a negative entry replays its error;
//! 5. **cold rewrite**, then **put** — the reply on success, a
//!    `Negative{REWRITE, message}` entry on a rewrite error;
//! 6. **stamp** — the reply's `cache` disposition and hex `digest`.
//!
//! Versioning: the version prefix means any change to the entry encoding,
//! the key framing or the wire grammar re-keys the world instead of
//! misreading old entries. The framing is injective — two different jobs
//! cannot produce the same key material. A test-only decoder
//! (`cachekey/frame.rs`) parses key material back into its job, and
//! property tests check that it returns exactly the job that was keyed.

use crate::msg::{
    code, config_options, CacheDisposition, Command, EmitReply, RpcError, PROTOCOL_VERSION,
};
use e9cache::{Cache, Digest, Entry, Hit, Sha256};
use e9patch::{
    AllocPolicy, ExtraSegment, PatchRequest, RewriteConfig, Rewriter, Tactics, Template,
};
use e9x86::insn::Insn;

mod frame;
use frame::*;

/// Bytes of key material staged between two [`Sha256::update`] calls.
const STAGE_BYTES: usize = 64 << 10;

/// The one writer of key material: small fields are staged and reach the
/// sink (the hasher, or a byte vector for [`key_material`]) once per
/// [`STAGE_BYTES`]; a payload larger than the stage goes straight
/// through.
struct KeyWriter<S> {
    sink: S,
    stage: Box<[u8]>,
    /// Bytes staged so far.
    len: usize,
}

impl<S: FnMut(&[u8])> KeyWriter<S> {
    fn new(sink: S) -> KeyWriter<S> {
        KeyWriter {
            sink,
            stage: vec![0; STAGE_BYTES].into_boxed_slice(),
            len: 0,
        }
    }

    fn flush(&mut self) {
        (self.sink)(&self.stage[..self.len]);
        self.len = 0;
    }

    /// Stage one record of at most `max` bytes: `fill` writes it at the
    /// start of the slice it is given and returns its length.
    fn record(&mut self, max: usize, fill: impl FnOnce(&mut [u8]) -> usize) {
        if self.len + max > STAGE_BYTES {
            self.flush();
        }
        self.len += fill(&mut self.stage[self.len..self.len + max]);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        if bytes.len() > STAGE_BYTES {
            self.flush();
            (self.sink)(bytes);
        } else {
            self.record(bytes.len(), |out| {
                out.copy_from_slice(bytes);
                bytes.len()
            });
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed byte string.
    fn part(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.bytes(bytes);
    }

    /// A tag byte and the fixed fields that follow it.
    fn tagged(&mut self, tag: u8, fields: &[u64]) {
        self.u8(tag);
        for &f in fields {
            self.u64(f);
        }
    }

    fn template(&mut self, t: &Template) {
        // No `_` arm: a new variant must be given a tag before it builds.
        match t {
            Template::Empty => self.tagged(TEMPLATE_EMPTY, &[]),
            Template::Counter { counter_addr } => self.tagged(TEMPLATE_COUNTER, &[*counter_addr]),
            Template::CheckCall { func_addr } => self.tagged(TEMPLATE_CHECK_CALL, &[*func_addr]),
            Template::HookCall { func_addr } => self.tagged(TEMPLATE_HOOK_CALL, &[*func_addr]),
            Template::HookSave { func_addr } => self.tagged(TEMPLATE_HOOK_SAVE, &[*func_addr]),
            Template::HookOriginal {
                func_addr,
                thunk_addr,
            } => self.tagged(TEMPLATE_HOOK_ORIGINAL, &[*func_addr, *thunk_addr]),
            Template::Replace { code, resume } => {
                self.u8(TEMPLATE_REPLACE);
                self.part(code);
                match resume {
                    None => self.tagged(RESUME_NONE, &[]),
                    Some(addr) => self.tagged(RESUME_AT, &[*addr]),
                }
            }
        }
    }

    fn config(&mut self, cfg: &RewriteConfig) {
        // Destructured so that a new field must be keyed (or, like
        // `jobs`, deliberately skipped) before it builds.
        let RewriteConfig {
            tactics: Tactics { t1, t2, t3 },
            b0_fallback,
            granularity,
            grouping,
            alloc_policy,
            jobs: _,
        } = *cfg;
        let alloc = match alloc_policy {
            AllocPolicy::FirstFitLow => ALLOC_LOW,
            AllocPolicy::FirstFitHigh => ALLOC_HIGH,
        };
        self.bytes(&[
            u8::from(t1),
            u8::from(t2),
            u8::from(t3),
            u8::from(b0_fallback),
        ]);
        self.u64(granularity);
        self.bytes(&[u8::from(grouping), alloc]);
    }

    /// Write the whole key material (the module docs give its layout).
    fn job(
        mut self,
        binary_digest: &Digest,
        insns: &[Insn],
        extra: &[ExtraSegment],
        patches: &[PatchRequest],
        cfg: &RewriteConfig,
    ) {
        self.bytes(DOMAIN);
        self.u64(e9cache::FORMAT_VERSION);
        self.u64(PROTOCOL_VERSION);
        self.part(binary_digest);

        self.u64(insns.len() as u64);
        let mut next = None;
        for i in insns {
            let len = i.len();
            debug_assert!(len != 0 && len <= usize::from(INSN_LEN_MASK));
            let explicit = next != Some(i.addr);
            // The whole padded record is copied, a fixed-size copy, and
            // the stage advances past the instruction's bytes only: the
            // bytes after them are overwritten by the next record.
            let padded = i.padded_bytes();
            self.record(1 + 8 + padded.len(), |out| {
                out[0] = len as u8;
                let mut at = 1;
                if explicit {
                    out[0] |= INSN_ADDR;
                    out[1..9].copy_from_slice(&i.addr.to_le_bytes());
                    at = 9;
                }
                out[at..at + padded.len()].copy_from_slice(padded);
                at + len
            });
            next = Some(i.addr.wrapping_add(len as u64));
        }

        self.u64(extra.len() as u64);
        for e in extra {
            self.u64(e.vaddr);
            let exec = if e.exec { SEG_EXEC } else { 0 };
            let write = if e.write { SEG_WRITE } else { 0 };
            self.u8(exec | write);
            self.part(&e.bytes);
        }

        self.u64(patches.len() as u64);
        for p in patches {
            self.u64(p.addr);
            self.template(&p.template);
        }

        self.config(cfg);
        self.flush();
    }
}

/// Derive the content-address of a rewrite job from an already-computed
/// binary digest. This is the digest-once entry point: the input is
/// hashed exactly once per session (at `binary` intake or first engaged
/// `emit`) and every later keying reuses the 32-byte digest.
pub fn rewrite_key_from_digest(
    binary_digest: &Digest,
    insns: &[Insn],
    extra: &[ExtraSegment],
    patches: &[PatchRequest],
    cfg: &RewriteConfig,
) -> Digest {
    let mut h = Sha256::new();
    KeyWriter::new(|bytes: &[u8]| h.update(bytes)).job(binary_digest, insns, extra, patches, cfg);
    h.finish()
}

/// The key material [`rewrite_key_from_digest`] hashes, as one byte
/// vector, for inspecting and testing the framing. Keying itself never
/// holds it whole.
pub fn key_material(
    binary_digest: &Digest,
    insns: &[Insn],
    extra: &[ExtraSegment],
    patches: &[PatchRequest],
    cfg: &RewriteConfig,
) -> Vec<u8> {
    let mut material = Vec::new();
    KeyWriter::new(|bytes: &[u8]| material.extend_from_slice(bytes)).job(
        binary_digest,
        insns,
        extra,
        patches,
        cfg,
    );
    material
}

/// One fully planned rewrite job: the batch every execution path
/// consumes. An in-process driver builds it from its plan; a session
/// builds it from the commands it buffered.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The input binary.
    pub binary: &'a [u8],
    /// Disassembly info (instruction locations and sizes).
    pub disasm: &'a [Insn],
    /// The patch batch.
    pub requests: &'a [PatchRequest],
    /// Runtime segments to inject.
    pub extra: &'a [ExtraSegment],
    /// Rewriter configuration.
    pub config: RewriteConfig,
}

impl Job<'_> {
    /// The requests that stream this job to a backend, in wire order:
    /// `version`, the `option` pairs of [`config_options`], `binary` with
    /// its tree digest (hashed here once, so the server verifies it at
    /// intake instead of hashing at every `emit`), every `instruction`,
    /// then the `reserve` and `patch` batch. `emit` is the caller's.
    pub fn commands(&self) -> impl Iterator<Item = Command> + '_ {
        let version = Command::Version {
            version: PROTOCOL_VERSION,
        };
        let options = config_options(&self.config)
            .into_iter()
            .map(|(name, value)| Command::Option {
                name: name.to_string(),
                value,
            });
        let binary = Command::Binary {
            bytes: self.binary.to_vec(),
            digest: Some(e9cache::tree::tree_digest(self.binary, 1)),
        };
        let insns = self.disasm.iter().map(|i| Command::Instruction {
            addr: i.addr,
            bytes: i.bytes().to_vec(),
        });
        let reserves = self.extra.iter().map(|seg| Command::Reserve {
            vaddr: seg.vaddr,
            bytes: seg.bytes.clone(),
            exec: seg.exec,
            write: seg.write,
        });
        let patches = self.requests.iter().map(|r| Command::Patch {
            addr: r.addr,
            template: r.template.clone(),
        });
        std::iter::once(version)
            .chain(options)
            .chain([binary])
            .chain(insns)
            .chain(reserves)
            .chain(patches)
    }
}

/// Why [`cached_rewrite`] produced no output.
#[derive(Debug)]
pub enum CachedRewriteError {
    /// The rewriter failed on this job. Unless the job was bypassed, a
    /// negative entry now records the failure.
    Rewrite(e9patch::Error),
    /// A negative entry replayed: this exact job failed before, with this
    /// wire code and message.
    Cached {
        /// The wire error code of the original failure.
        code: i64,
        /// The original failure message.
        message: String,
    },
}

impl From<CachedRewriteError> for RpcError {
    fn from(e: CachedRewriteError) -> RpcError {
        match e {
            CachedRewriteError::Rewrite(e) => RpcError::new(code::REWRITE, e.to_string()),
            CachedRewriteError::Cached { code, message } => RpcError::new(code, message),
        }
    }
}

/// Run `job` through `cache` (or cold, when there is none) and return its
/// reply, stamped with the cache disposition and hex key. This is the
/// whole cache policy; the module docs list its steps. `binary_digest`
/// memoizes the input's tree digest: it is filled on the first keyed run
/// and reused after.
///
/// # Errors
///
/// A rewrite failure, or the replay of a cached one.
pub fn cached_rewrite(
    cache: Option<&Cache>,
    binary_digest: &mut Option<Digest>,
    job: &Job,
) -> Result<EmitReply, CachedRewriteError> {
    let cold = || {
        Rewriter::new(job.config)
            .rewrite(job.binary, job.disasm, job.requests, job.extra)
            .map(EmitReply::from)
    };
    let Some(cache) = cache else {
        return cold().map_err(CachedRewriteError::Rewrite);
    };
    if cache.should_bypass(job.binary.len() as u64) {
        // Below the break-even size the rewrite is cheaper than keying
        // it. Failures propagate unstored: a negative entry would pay
        // the keying cost the bypass exists to avoid.
        let reply = cold().map_err(CachedRewriteError::Rewrite)?;
        return Ok(EmitReply {
            cache: CacheDisposition::Bypass,
            ..reply
        });
    }
    let bin_digest =
        *binary_digest.get_or_insert_with(|| e9cache::tree::tree_digest(job.binary, 1));
    let key = rewrite_key_from_digest(
        &bin_digest,
        job.disasm,
        job.extra,
        job.requests,
        &job.config,
    );
    let digest = Some(e9cache::sha256::hex(&key));
    match cache.lookup(&key) {
        // The stored payload is the compact reply of the cold run,
        // handed back as a zero-copy view. An undecodable one (codec
        // drift, which FORMAT_VERSION should preclude) falls through.
        Some(Hit::Payload(blob)) => {
            if let Ok(reply) = EmitReply::decode_bin(&blob) {
                return Ok(EmitReply {
                    cache: CacheDisposition::Hit,
                    digest,
                    ..reply
                });
            }
        }
        Some(Hit::Negative { code, message }) => {
            return Err(CachedRewriteError::Cached { code, message });
        }
        None => {}
    }
    match cold() {
        Ok(reply) => {
            // The compact encoding carries neither disposition nor
            // digest, so the stored artifact is stamp-independent.
            cache.put(&key, &Entry::Ok(reply.encode_bin()));
            Ok(EmitReply {
                cache: CacheDisposition::Miss,
                digest,
                ..reply
            })
        }
        Err(e) => {
            // Rewrite failures are deterministic: cache them so the next
            // attempt replays the error without re-running the rewriter.
            let message = e.to_string();
            cache.put(
                &key,
                &Entry::Negative {
                    code: code::REWRITE,
                    message,
                },
            );
            Err(CachedRewriteError::Rewrite(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key of a job given the raw input bytes.
    fn rewrite_key(
        binary: &[u8],
        insns: &[Insn],
        extra: &[ExtraSegment],
        patches: &[PatchRequest],
        cfg: &RewriteConfig,
    ) -> Digest {
        rewrite_key_from_digest(
            &e9cache::tree::tree_digest(binary, 1),
            insns,
            extra,
            patches,
            cfg,
        )
    }

    fn insn(addr: u64, bytes: &[u8]) -> Insn {
        e9x86::decode::decode(bytes, addr).expect("test instruction decodes")
    }

    fn job() -> (Vec<u8>, Vec<Insn>, Vec<ExtraSegment>, Vec<PatchRequest>) {
        (
            vec![0x7f, b'E', b'L', b'F', 0, 1, 2, 3],
            vec![insn(0x401000, &[0x48, 0x89, 0x03]), insn(0x401003, &[0x90])],
            vec![ExtraSegment {
                vaddr: 0x30000000,
                bytes: vec![0xAA; 16],
                exec: false,
                write: true,
            }],
            vec![PatchRequest {
                addr: 0x401000,
                template: Template::Empty,
            }],
        )
    }

    #[test]
    fn key_is_deterministic() {
        let (bin, insns, extra, patches) = job();
        let cfg = RewriteConfig::default();
        let a = rewrite_key(&bin, &insns, &extra, &patches, &cfg);
        let b = rewrite_key(&bin, &insns, &extra, &patches, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn every_input_part_changes_the_key() {
        let (bin, insns, extra, patches) = job();
        let cfg = RewriteConfig::default();
        let base = rewrite_key(&bin, &insns, &extra, &patches, &cfg);

        let mut bin2 = bin.clone();
        bin2[7] ^= 1;
        assert_ne!(rewrite_key(&bin2, &insns, &extra, &patches, &cfg), base);

        assert_ne!(rewrite_key(&bin, &insns[..1], &extra, &patches, &cfg), base);
        assert_ne!(rewrite_key(&bin, &insns, &[], &patches, &cfg), base);
        assert_ne!(rewrite_key(&bin, &insns, &extra, &[], &cfg), base);

        // A one-byte gap between two instructions: the second one's
        // address is no longer elided.
        let gap = [insns[0], insn(insns[0].end() + 1, &[0x90])];
        assert_ne!(rewrite_key(&bin, &gap, &extra, &patches, &cfg), base);

        // An empty replacement that resumes after the instruction is a
        // different template from `Empty`.
        let replace = [PatchRequest {
            addr: 0x401000,
            template: Template::Replace {
                code: vec![],
                resume: None,
            },
        }];
        assert_ne!(rewrite_key(&bin, &insns, &extra, &replace, &cfg), base);

        let mut cfg2 = cfg;
        cfg2.granularity += 1;
        assert_ne!(rewrite_key(&bin, &insns, &extra, &patches, &cfg2), base);
        let mut cfg3 = cfg;
        cfg3.tactics.t2 = !cfg3.tactics.t2;
        assert_ne!(rewrite_key(&bin, &insns, &extra, &patches, &cfg3), base);
    }

    /// A job with a non-contiguous instruction and one patch of each
    /// `Template` variant.
    fn every_template_job() -> (Vec<Insn>, Vec<PatchRequest>) {
        let insns = vec![
            insn(0x401000, &[0x48, 0x89, 0x03]),
            insn(0x401003, &[0x90]),
            insn(0x401010, &[0xC3]),
        ];
        let templates = [
            Template::Empty,
            Template::Counter {
                counter_addr: 0x3000_0000,
            },
            Template::CheckCall {
                func_addr: 0x3000_1000,
            },
            Template::HookCall {
                func_addr: 0x3000_2000,
            },
            Template::HookSave {
                func_addr: 0x3000_3000,
            },
            Template::HookOriginal {
                func_addr: 0x3000_4000,
                thunk_addr: 0x3000_5000,
            },
            Template::Replace {
                code: vec![0x90, 0x90],
                resume: Some(0x401010),
            },
        ];
        let patches = templates
            .into_iter()
            .enumerate()
            .map(|(k, template)| PatchRequest {
                addr: 0x401000 + k as u64,
                template,
            })
            .collect();
        (insns, patches)
    }

    #[test]
    fn key_known_answer() {
        // Entries in existing cache directories must keep hitting, so the
        // key may move only with a `FORMAT_VERSION` bump, which re-keys
        // every entry on purpose.
        let (bin, insns, extra, patches) = job();
        let key = rewrite_key(&bin, &insns, &extra, &patches, &RewriteConfig::default());
        assert_eq!(
            e9cache::sha256::hex(&key),
            "e1b52b78515652642d9a3ba51a6fce198365b27c8c8f185e7a4f09cbe9b676ba"
        );
    }

    #[test]
    fn every_template_key_known_answer() {
        // As `key_known_answer`, over an elided and an explicit
        // instruction address and every template's tag and fields.
        let (bin, _, extra, _) = job();
        let (insns, patches) = every_template_job();
        let key = rewrite_key(&bin, &insns, &extra, &patches, &RewriteConfig::default());
        assert_eq!(
            e9cache::sha256::hex(&key),
            "3794fb354fba8a74937198064f4250f80ecbe300c82d80280647fe4c1f7f2779"
        );
    }

    #[test]
    fn large_disassembly_key_known_answer() {
        // As `key_known_answer`, over the gcc row at 1/10 scale: its
        // instruction records fill the stage several times over, and
        // every 97th instruction is left out so that addresses after a
        // gap are keyed too.
        let profile = e9synth::spec_profiles(10)
            .into_iter()
            .find(|p| p.name == "gcc")
            .expect("gcc row");
        let sb = e9synth::generate(&profile);
        let insns: Vec<Insn> = sb
            .disasm
            .iter()
            .enumerate()
            .filter(|(k, _)| k % 97 != 96)
            .map(|(_, i)| *i)
            .collect();
        let patches: Vec<PatchRequest> = insns
            .iter()
            .filter(|i| i.kind.is_jump())
            .map(|i| PatchRequest {
                addr: i.addr,
                template: Template::Empty,
            })
            .collect();
        let digest = e9cache::tree::tree_digest(&sb.binary, 1);
        let cfg = RewriteConfig::default();
        let material = key_material(&digest, &insns, &[], &patches, &cfg);
        assert!(material.len() > 4 * STAGE_BYTES, "{}", material.len());
        let key = rewrite_key_from_digest(&digest, &insns, &[], &patches, &cfg);
        assert_eq!(e9cache::digest(&material), key);
        assert_eq!(
            e9cache::sha256::hex(&key),
            "de686fea25444b3d4d909d06b4eb5cba13cbee3cb0beb24f31e185714ea4c4fd"
        );
    }

    #[test]
    fn key_material_decodes_to_its_job_and_hashes_to_its_key() {
        let (bin, _, extra, _) = job();
        let (insns, patches) = every_template_job();
        let cfg = RewriteConfig {
            alloc_policy: AllocPolicy::FirstFitHigh,
            granularity: 16,
            ..RewriteConfig::default()
        };
        let digest = e9cache::tree::tree_digest(&bin, 1);
        let material = key_material(&digest, &insns, &extra, &patches, &cfg);
        assert_eq!(
            e9cache::digest(&material),
            rewrite_key_from_digest(&digest, &insns, &extra, &patches, &cfg)
        );
        let back = frame::decode(&material).expect("own key material decodes");
        assert_eq!(back.format_version, e9cache::FORMAT_VERSION);
        assert_eq!(back.protocol_version, PROTOCOL_VERSION);
        assert_eq!(back.binary_digest, digest);
        let pairs: Vec<(u64, Vec<u8>)> =
            insns.iter().map(|i| (i.addr, i.bytes().to_vec())).collect();
        assert_eq!(back.insns, pairs);
        assert_eq!(back.reserves, extra);
        assert_eq!(back.patches, patches);
        assert_eq!(back.config, cfg);
        // Headers: the first address is explicit, the contiguous second
        // one elided, the third (after a gap) explicit.
        let insns_at = DOMAIN.len() + 8 + 8 + (8 + 32) + 8;
        let headers: Vec<u8> = [0, 1 + 8 + 3, 1 + 8 + 3 + 1 + 1]
            .iter()
            .map(|&off| material[insns_at + off])
            .collect();
        assert_eq!(headers, [INSN_ADDR | 3, 1, INSN_ADDR | 1]);
        // Every strict prefix is malformed, and so is a trailing byte.
        for cut in 0..material.len() {
            assert!(
                frame::decode(&material[..cut]).is_none(),
                "prefix of {cut} bytes"
            );
        }
        let mut long = material.clone();
        long.push(0);
        assert!(frame::decode(&long).is_none());
    }

    #[test]
    fn payloads_larger_than_the_stage_key_as_if_staged() {
        // A segment bigger than the stage bypasses it; the hashed bytes
        // must be the key material all the same.
        let (bin, insns, _, patches) = job();
        let cfg = RewriteConfig::default();
        let digest = e9cache::tree::tree_digest(&bin, 1);
        for len in [
            STAGE_BYTES - 1,
            STAGE_BYTES,
            STAGE_BYTES + 1,
            3 * STAGE_BYTES,
        ] {
            let extra = [ExtraSegment {
                vaddr: 0x3000_0000,
                bytes: (0..len).map(|k| k as u8).collect(),
                exec: true,
                write: false,
            }];
            let material = key_material(&digest, &insns, &extra, &patches, &cfg);
            assert_eq!(
                e9cache::digest(&material),
                rewrite_key_from_digest(&digest, &insns, &extra, &patches, &cfg),
                "{len}-byte segment"
            );
            let back = frame::decode(&material).expect("own key material decodes");
            assert_eq!(back.reserves, extra);
        }
    }

    #[test]
    fn jobs_does_not_split_the_cache() {
        // Nothing reads `jobs`, so the key must not either.
        let (bin, insns, extra, patches) = job();
        let mut cfg = RewriteConfig::default();
        let base = rewrite_key(&bin, &insns, &extra, &patches, &cfg);
        cfg.jobs = Some(8);
        assert_eq!(rewrite_key(&bin, &insns, &extra, &patches, &cfg), base);
    }

    #[test]
    fn digest_form_matches_raw_form_for_every_jobs() {
        // The digest-once path must land on the same key as the raw-bytes
        // convenience, whatever second argument the digest was given.
        let (bin, insns, extra, patches) = job();
        let cfg = RewriteConfig::default();
        let base = rewrite_key(&bin, &insns, &extra, &patches, &cfg);
        for jobs in [1, 2, 7, 64] {
            let d = e9cache::tree::tree_digest(&bin, jobs);
            assert_eq!(
                rewrite_key_from_digest(&d, &insns, &extra, &patches, &cfg),
                base
            );
        }
    }

    #[test]
    fn length_prefixing_prevents_part_smearing() {
        // Moving a byte from the end of the binary into the batch text
        // must change the key (the parts are length-prefixed, so the
        // concatenated key material cannot alias).
        let (bin, insns, _, patches) = job();
        let cfg = RewriteConfig::default();
        let a = rewrite_key(&bin, &insns, &[], &patches, &cfg);
        let b = rewrite_key(&bin[..bin.len() - 1], &insns, &[], &patches, &cfg);
        assert_ne!(a, b);
    }
}
