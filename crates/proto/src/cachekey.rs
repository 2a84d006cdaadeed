//! Cache-key derivation for finished rewrites.
//!
//! A rewrite's output is a pure function of `(input ELF bytes, the full
//! command batch, the rewriter configuration)` — the pipeline is
//! deterministic, so the output is safely addressable by a digest of
//! those inputs, which is what [`rewrite_key_from_digest`] computes.
//!
//! The batch is absorbed through a compact tagged binary framing: each
//! logical step (`instruction`, `reserve`, `patch`) contributes a type
//! tag, its fixed fields as little-endian words, and its byte payloads
//! length-prefixed (templates, which are small structured values, go
//! through the canonical JSON codec). Hashing raw bytes instead of a
//! hex-doubled JSON batch keeps keying linear in the input with a small
//! constant — the batch can carry megabytes of instruction and segment
//! bytes. `e9tool patch --cache-dir` (in-process) and an `e9patchd`
//! session (wire) still derive byte-identical keys for the same logical
//! job, so they share cache entries.
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
//! Versioning: the key material starts with a domain tag plus
//! [`e9cache::FORMAT_VERSION`] and [`PROTOCOL_VERSION`], so any change to
//! the entry encoding or the wire grammar re-keys the world instead of
//! misreading old entries. All multi-byte parts are length-prefixed —
//! the encoding is injective, two different jobs cannot produce the same
//! key material.

use crate::json::Json;
use crate::msg::{alloc_name, code, config_options, CacheDisposition, Command, EmitReply,
                 RpcError, PROTOCOL_VERSION};
use e9cache::{Cache, Digest, Entry, Hit, Sha256};
use e9patch::{ExtraSegment, PatchRequest, RewriteConfig, Rewriter};
use e9x86::insn::Insn;

/// Domain-separation tag (NUL-terminated so no other use of the hash can
/// collide with key material by accident).
const DOMAIN: &[u8] = b"e9cache/rewrite-key\0";

/// Absorb one length-prefixed part.
fn part(h: &mut Sha256, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

/// Canonical JSON encoding of the cache-relevant [`RewriteConfig`]
/// fields (everything that can change output bytes; `jobs` cannot, and
/// is therefore omitted). Its key order is part of every cache key, so it
/// stays as it is even though it differs from the wire's option order.
fn config_json(cfg: &RewriteConfig) -> Json {
    crate::json::obj(vec![
        ("t1", Json::Bool(cfg.tactics.t1)),
        ("t2", Json::Bool(cfg.tactics.t2)),
        ("t3", Json::Bool(cfg.tactics.t3)),
        ("b0", Json::Bool(cfg.b0_fallback)),
        ("granularity", Json::Int(cfg.granularity as i128)),
        ("grouping", Json::Bool(cfg.grouping)),
        ("alloc", Json::Str(alloc_name(cfg.alloc_policy).into())),
    ])
}

/// Absorb the batch in session order (instructions, then reserved
/// segments, then patches — the order the planner consumes them). Each
/// section is count-prefixed and each step carries a type tag, so the
/// framing is injective without any intermediate serialization of the
/// bulk bytes.
fn absorb_batch(h: &mut Sha256, insns: &[Insn], extra: &[ExtraSegment], patches: &[PatchRequest]) {
    h.update(&(insns.len() as u64).to_le_bytes());
    for i in insns {
        h.update(b"I");
        h.update(&i.addr.to_le_bytes());
        part(h, i.bytes());
    }
    h.update(&(extra.len() as u64).to_le_bytes());
    for e in extra {
        h.update(b"R");
        h.update(&e.vaddr.to_le_bytes());
        h.update(&[u8::from(e.exec), u8::from(e.write)]);
        part(h, &e.bytes);
    }
    h.update(&(patches.len() as u64).to_le_bytes());
    for p in patches {
        h.update(b"P");
        h.update(&p.addr.to_le_bytes());
        // Templates are small structured values; the canonical JSON
        // codec is their one canonical encoding.
        part(
            h,
            Command::Patch {
                addr: p.addr,
                template: p.template.clone(),
            }
            .to_json()
            .serialize()
            .as_bytes(),
        );
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
    h.update(DOMAIN);
    h.update(&e9cache::FORMAT_VERSION.to_le_bytes());
    h.update(&PROTOCOL_VERSION.to_le_bytes());
    part(&mut h, binary_digest);
    absorb_batch(&mut h, insns, extra, patches);
    part(&mut h, config_json(cfg).serialize().as_bytes());
    h.finish()
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
        let options = config_options(&self.config).into_iter().map(|(name, value)| {
            Command::Option {
                name: name.to_string(),
                value,
            }
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
        return Ok(EmitReply { cache: CacheDisposition::Bypass, ..reply });
    }
    let bin_digest =
        *binary_digest.get_or_insert_with(|| e9cache::tree::tree_digest(job.binary, 1));
    let key =
        rewrite_key_from_digest(&bin_digest, job.disasm, job.extra, job.requests, &job.config);
    let digest = Some(e9cache::sha256::hex(&key));
    match cache.lookup(&key) {
        // The stored payload is the compact reply of the cold run,
        // handed back as a zero-copy view. An undecodable one (codec
        // drift, which FORMAT_VERSION should preclude) falls through.
        Some(Hit::Payload(blob)) => {
            if let Ok(reply) = EmitReply::decode_bin(&blob) {
                return Ok(EmitReply { cache: CacheDisposition::Hit, digest, ..reply });
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
            Ok(EmitReply { cache: CacheDisposition::Miss, digest, ..reply })
        }
        Err(e) => {
            // Rewrite failures are deterministic: cache them so the next
            // attempt replays the error without re-running the rewriter.
            let message = e.to_string();
            cache.put(&key, &Entry::Negative { code: code::REWRITE, message });
            Err(CachedRewriteError::Rewrite(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9patch::Template;

    /// The key of a job given the raw input bytes.
    fn rewrite_key(
        binary: &[u8],
        insns: &[Insn],
        extra: &[ExtraSegment],
        patches: &[PatchRequest],
        cfg: &RewriteConfig,
    ) -> Digest {
        rewrite_key_from_digest(&e9cache::tree::tree_digest(binary, 1), insns, extra, patches, cfg)
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

        let mut cfg2 = cfg;
        cfg2.granularity += 1;
        assert_ne!(rewrite_key(&bin, &insns, &extra, &patches, &cfg2), base);
        let mut cfg3 = cfg;
        cfg3.tactics.t2 = !cfg3.tactics.t2;
        assert_ne!(rewrite_key(&bin, &insns, &extra, &patches, &cfg3), base);
    }

    #[test]
    fn key_known_answer() {
        // Entries in existing cache directories must keep hitting, so
        // neither the key material nor its framing may move.
        let (bin, insns, extra, patches) = job();
        let key = rewrite_key(&bin, &insns, &extra, &patches, &RewriteConfig::default());
        assert_eq!(
            e9cache::sha256::hex(&key),
            "ec9a6374272f531d5679681bc9735da98c8a507984cb5782585031619f79cbbc"
        );
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
