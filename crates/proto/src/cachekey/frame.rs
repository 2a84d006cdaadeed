//! The tag bytes of the cache-key framing and, in test builds, its
//! decoder.
//!
//! The decoder is the executable statement that the framing is
//! injective: it parses captured key material back into the job it
//! came from, and property tests check that it returns exactly that
//! job. `tests/codec_props.rs` compiles this same file as a module
//! (`#[path]`), so it names only types from other crates.

/// Domain-separation tag (NUL-terminated so no other use of the hash can
/// collide with key material by accident).
pub const DOMAIN: &[u8] = b"e9cache/rewrite-key\0";

/// An instruction header's low bits: the instruction's length, 1..=15.
pub const INSN_LEN_MASK: u8 = 0x0F;
/// An instruction header's high bit: an explicit 8-byte little-endian
/// address follows. Without it, the instruction starts where the
/// previous one ended.
pub const INSN_ADDR: u8 = 0x80;

/// One tag byte per `Template` variant.
pub const TEMPLATE_EMPTY: u8 = 0;
pub const TEMPLATE_COUNTER: u8 = 1;
pub const TEMPLATE_CHECK_CALL: u8 = 2;
pub const TEMPLATE_HOOK_CALL: u8 = 3;
pub const TEMPLATE_HOOK_SAVE: u8 = 4;
pub const TEMPLATE_HOOK_ORIGINAL: u8 = 5;
pub const TEMPLATE_REPLACE: u8 = 6;

/// `Replace`'s `resume`: absent, or an 8-byte address follows.
pub const RESUME_NONE: u8 = 0;
pub const RESUME_AT: u8 = 1;

/// `AllocPolicy` as one byte.
pub const ALLOC_LOW: u8 = 0;
pub const ALLOC_HIGH: u8 = 1;

/// A reserved segment's flag bits.
pub const SEG_EXEC: u8 = 1;
pub const SEG_WRITE: u8 = 2;

#[cfg(test)]
pub use decode::decode;

#[cfg(test)]
mod decode {
    use super::*;
    use e9patch::{AllocPolicy, ExtraSegment, PatchRequest, RewriteConfig, Tactics, Template};

    /// Key material parsed back into its parts.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Preimage {
        pub format_version: u64,
        pub protocol_version: u64,
        pub binary_digest: Vec<u8>,
        /// `(address, bytes)` per instruction, elided addresses restored.
        pub insns: Vec<(u64, Vec<u8>)>,
        pub reserves: Vec<ExtraSegment>,
        pub patches: Vec<PatchRequest>,
        /// The keyed fields; `jobs` is not keyed and comes back `None`.
        pub config: RewriteConfig,
    }

    struct Reader<'a>(&'a [u8]);

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            if n > self.0.len() {
                return None;
            }
            let (head, rest) = self.0.split_at(n);
            self.0 = rest;
            Some(head)
        }
        fn u8(&mut self) -> Option<u8> {
            Some(self.take(1)?[0])
        }
        fn u64(&mut self) -> Option<u64> {
            Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
        }
        fn part(&mut self) -> Option<Vec<u8>> {
            let n = usize::try_from(self.u64()?).ok()?;
            Some(self.take(n)?.to_vec())
        }
        fn flag(&mut self) -> Option<bool> {
            match self.u8()? {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            }
        }
        /// A count prefix, bounded by the bytes left so a corrupt count
        /// cannot ask for a huge allocation.
        fn count(&mut self) -> Option<usize> {
            usize::try_from(self.u64()?)
                .ok()
                .filter(|&n| n <= self.0.len())
        }
    }

    fn template(r: &mut Reader) -> Option<Template> {
        Some(match r.u8()? {
            TEMPLATE_EMPTY => Template::Empty,
            TEMPLATE_COUNTER => Template::Counter {
                counter_addr: r.u64()?,
            },
            TEMPLATE_CHECK_CALL => Template::CheckCall {
                func_addr: r.u64()?,
            },
            TEMPLATE_HOOK_CALL => Template::HookCall {
                func_addr: r.u64()?,
            },
            TEMPLATE_HOOK_SAVE => Template::HookSave {
                func_addr: r.u64()?,
            },
            TEMPLATE_HOOK_ORIGINAL => Template::HookOriginal {
                func_addr: r.u64()?,
                thunk_addr: r.u64()?,
            },
            TEMPLATE_REPLACE => Template::Replace {
                code: r.part()?,
                resume: match r.u8()? {
                    RESUME_NONE => None,
                    RESUME_AT => Some(r.u64()?),
                    _ => return None,
                },
            },
            _ => return None,
        })
    }

    /// Parse key material; `None` unless it is well-formed and fully
    /// consumed.
    pub fn decode(bytes: &[u8]) -> Option<Preimage> {
        let r = &mut Reader(bytes);
        if r.take(DOMAIN.len())? != DOMAIN {
            return None;
        }
        let format_version = r.u64()?;
        let protocol_version = r.u64()?;
        let binary_digest = r.part()?;

        let n = r.count()?;
        let mut insns = Vec::with_capacity(n);
        let mut next: Option<u64> = None;
        for _ in 0..n {
            let header = r.u8()?;
            let len = header & INSN_LEN_MASK;
            if header & !(INSN_LEN_MASK | INSN_ADDR) != 0 || len == 0 {
                return None;
            }
            let addr = if header & INSN_ADDR != 0 {
                r.u64()?
            } else {
                next?
            };
            insns.push((addr, r.take(usize::from(len))?.to_vec()));
            next = Some(addr.wrapping_add(u64::from(len)));
        }

        let n = r.count()?;
        let mut reserves = Vec::with_capacity(n);
        for _ in 0..n {
            let vaddr = r.u64()?;
            let flags = r.u8()?;
            if flags & !(SEG_EXEC | SEG_WRITE) != 0 {
                return None;
            }
            reserves.push(ExtraSegment {
                vaddr,
                exec: flags & SEG_EXEC != 0,
                write: flags & SEG_WRITE != 0,
                bytes: r.part()?,
            });
        }

        let n = r.count()?;
        let mut patches = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = r.u64()?;
            patches.push(PatchRequest {
                addr,
                template: template(r)?,
            });
        }

        let config = RewriteConfig {
            tactics: Tactics {
                t1: r.flag()?,
                t2: r.flag()?,
                t3: r.flag()?,
            },
            b0_fallback: r.flag()?,
            granularity: r.u64()?,
            grouping: r.flag()?,
            alloc_policy: match r.u8()? {
                ALLOC_LOW => AllocPolicy::FirstFitLow,
                ALLOC_HIGH => AllocPolicy::FirstFitHigh,
                _ => return None,
            },
            jobs: None,
        };
        r.0.is_empty().then_some(Preimage {
            format_version,
            protocol_version,
            binary_digest,
            insns,
            reserves,
            patches,
            config,
        })
    }
}
