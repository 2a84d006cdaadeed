//! Top-level rewriting API: parse → plan (S1 over tactics) → group →
//! emit (in-place patches + appended blocks + loader).

use crate::error::Error;
use crate::group::{self, Grouping};
use crate::layout::Window;
use crate::loader::{self, Mapping};
use crate::planner::{PatchRequest, Planner, RewriteConfig};
use crate::stats::{PatchStats, SizeStats};
use e9elf::types::{PF_R, PF_W, PF_X};
use e9elf::{Elf, Patcher, PAGE_SIZE};
use e9x86::insn::Insn;
use std::collections::BTreeMap;

/// Trap-table manifest embedded in the output binary for the B0 fallback.
pub mod manifest {
    /// Magic prefix of the trap manifest blob.
    pub const MAGIC: &[u8; 8] = b"E9TRAP\0\0";

    /// Serialize `(site, trampoline)` pairs.
    pub fn encode(traps: &[(u64, u64)]) -> Vec<u8> {
        let mut v = Vec::with_capacity(16 + traps.len() * 16);
        v.extend_from_slice(MAGIC);
        v.extend_from_slice(&(traps.len() as u64).to_le_bytes());
        for &(site, tramp) in traps {
            v.extend_from_slice(&site.to_le_bytes());
            v.extend_from_slice(&tramp.to_le_bytes());
        }
        v
    }

    /// Parse a trap manifest; `None` if `bytes` is not one (wrong magic,
    /// truncated body, or a count field that does not fit the input —
    /// including counts large enough to overflow the length arithmetic).
    pub fn decode(bytes: &[u8]) -> Option<Vec<(u64, u64)>> {
        if bytes.len() < 16 || &bytes[..8] != MAGIC {
            return None;
        }
        let n = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        // Checked arithmetic: a hostile count must not wrap into a bogus
        // "fits" verdict (or panic the debug build).
        let need = n.checked_mul(16).and_then(|b| b.checked_add(16))?;
        if (bytes.len() as u64) < need {
            return None;
        }
        let n = n as usize;
        Some(
            (0..n)
                .map(|i| {
                    let o = 16 + i * 16;
                    (
                        u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()),
                        u64::from_le_bytes(bytes[o + 8..o + 16].try_into().unwrap()),
                    )
                })
                .collect(),
        )
    }
}

/// An extra segment the caller wants in the output (e.g. the
/// instrumentation runtime: check functions, counters, tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtraSegment {
    /// Virtual load address (must not collide with the input image).
    pub vaddr: u64,
    /// Contents.
    pub bytes: Vec<u8>,
    /// Executable?
    pub exec: bool,
    /// Writable?
    pub write: bool,
}

impl ExtraSegment {
    fn flags(&self) -> u32 {
        let mut f = PF_R;
        if self.exec {
            f |= PF_X;
        }
        if self.write {
            f |= PF_W;
        }
        f
    }
}

/// Result of a rewriting run.
#[derive(Debug)]
pub struct RewriteOutput {
    /// The patched output binary.
    pub binary: Vec<u8>,
    /// Tactic outcome counters (Table 1's coverage columns).
    pub stats: PatchStats,
    /// File-size / mapping statistics (Table 1's Size% and §4).
    pub size: SizeStats,
    /// Virtual address of the injected loader (the new entry point).
    pub loader_addr: u64,
    /// Number of B0 trap registrations.
    pub trap_count: usize,
    /// Per-site outcome reports, in processing (reverse-address) order.
    pub reports: Vec<crate::planner::SiteReport>,
    /// The loader's mapping table (virtual base ← file extent), exposed
    /// for verification and inspection.
    pub mappings: Vec<Mapping>,
}

/// The E9Patch static binary rewriter.
///
/// ```
/// use e9patch::{Rewriter, RewriteConfig};
/// let rewriter = Rewriter::new(RewriteConfig::default());
/// // rewriter.rewrite(&input, &disasm, &requests, &[])?
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rewriter {
    cfg: RewriteConfig,
}

impl Rewriter {
    /// Rewriter with the given configuration.
    pub fn new(cfg: RewriteConfig) -> Rewriter {
        Rewriter { cfg }
    }

    /// Rewrite `input`, diverting each requested instruction through a
    /// trampoline.
    ///
    /// `disasm` is the *disassembly information* the paper treats as a tool
    /// input (instruction addresses and sizes; here full decoded
    /// instructions from [`e9x86::decode::linear_sweep`] or any other
    /// frontend).
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range granularity ([`RewriteConfig::check`]),
    /// malformed ELF input, duplicate requests, requests naming unknown
    /// instructions, or no address space left for the loader. Per-site
    /// patch *failures* are reported via [`RewriteOutput::stats`], not as
    /// errors — mirroring the paper's Succ% methodology.
    pub fn rewrite(
        &self,
        input: &[u8],
        disasm: &[Insn],
        requests: &[PatchRequest],
        extra: &[ExtraSegment],
    ) -> crate::error::Result<RewriteOutput> {
        self.cfg.check()?;
        let elf = Elf::parse(input)?;
        let input_bytes = elf.file_size() as u64;
        let orig_entry = elf.entry();

        let insns: BTreeMap<u64, Insn> = disasm.iter().map(|i| (i.addr, *i)).collect();
        let reserved: Vec<(u64, u64)> = extra
            .iter()
            .map(|s| (s.vaddr, s.vaddr + s.bytes.len() as u64))
            .collect();

        let mut planner = Planner::new(elf, &insns, self.cfg, &reserved);
        planner.patch_all(requests)?;
        let parts = planner.into_parts();

        // Physical page grouping over the placed trampolines.
        let grouping: Grouping =
            group::group(&parts.trampolines, self.cfg.granularity, self.cfg.grouping);

        let mut patcher = Patcher::new(parts.elf);

        // Emit merged physical blocks and build the loader mapping table.
        let mut mappings = Vec::new();
        for blk in &grouping.groups {
            let off = patcher.append_blob(&blk.bytes, PAGE_SIZE);
            for &vbase in &blk.mapped_at {
                mappings.push(Mapping {
                    vaddr: vbase,
                    file_off: off,
                    len: grouping.block_size,
                });
            }
        }

        // Extra segments (instrumentation runtime).
        for seg in extra {
            patcher.add_segment(seg.vaddr, &seg.bytes, seg.flags());
        }

        // Loader segment, placed wherever address space remains. The
        // loader must avoid every *block* range the mappings will
        // `MAP_FIXED` over (a block covers whole pages, beyond the byte
        // ranges the trampoline allocator reserved).
        let loader_ub = loader::loader_size(mappings.len());
        let mut space = parts.space;
        for m in &mappings {
            space.reserve(m.vaddr, m.vaddr + m.len);
        }
        let loader_addr = space
            .alloc_in(Window::all(), loader_ub as u64, PAGE_SIZE)
            .ok_or(Error::NoLoaderSpace(loader_ub as u64))?;
        let loader_code = loader::emit_loader(loader_addr, orig_entry, &mappings);
        debug_assert!(loader_code.len() <= loader_ub);
        patcher.add_segment(loader_addr, &loader_code, PF_R | PF_X);
        patcher.set_entry(loader_addr);

        // Trap manifest for the B0 fallback.
        let trap_count = parts.traps.len();
        if trap_count > 0 {
            let blob = manifest::encode(&parts.traps);
            let off = patcher.append_blob(&blob, 8);
            patcher.add_note(off, blob.len() as u64);
        }

        let binary = patcher.finish();
        let size = SizeStats {
            input_bytes,
            output_bytes: binary.len() as u64,
            virtual_blocks: grouping.virtual_blocks,
            physical_blocks: grouping.groups.len() as u64,
            mappings: grouping.mapping_count(),
            granularity: self.cfg.granularity,
        };

        Ok(RewriteOutput {
            binary,
            stats: parts.stats,
            size,
            loader_addr,
            trap_count,
            reports: parts.reports,
            mappings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Tactics, MAX_GRANULARITY};
    use crate::trampoline::Template;
    use e9elf::build::ElfBuilder;
    use e9x86::decode::linear_sweep;

    /// Build a little non-PIE binary around the paper's Figure 1 sequence.
    fn fig1_binary() -> (Vec<u8>, Vec<Insn>) {
        let code = vec![
            0x48, 0x89, 0x03, // mov %rax,(%rbx)
            0x48, 0x83, 0xC0, 0x20, // add $32,%rax
            0x48, 0x31, 0xC1, // xor %rax,%rcx
            0x83, 0x7B, 0xFC, 0x4D, // cmpl $77,-4(%rbx)
            0xC3, // ret
            // Trailing alignment padding, as real .text sections have —
            // without it, end-of-section sites have no successor bytes to
            // pun against.
            0x0F, 0x1F, 0x44, 0x00, 0x00, // 5-byte nop
            0x0F, 0x1F, 0x44, 0x00, 0x00, // 5-byte nop
        ];
        let mut b = ElfBuilder::exec(0x400000);
        b.text(code.clone(), 0x401000);
        b.entry(0x401000);
        let bytes = b.build();
        let disasm = linear_sweep(&code, 0x401000);
        (bytes, disasm)
    }

    #[test]
    fn patch_single_site() {
        let (bin, disasm) = fig1_binary();
        let rw = Rewriter::new(RewriteConfig::default());
        let out = rw
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(out.stats.total(), 1);
        assert_eq!(out.stats.succeeded(), 1);
        // The patch site now decodes as a (possibly padded) jump or a
        // short jump (T3).
        let elf = Elf::parse(&out.binary).unwrap();
        let b = elf.slice_at(0x401000, 7).unwrap();
        let insn = e9x86::decode(b, 0x401000).unwrap();
        assert!(
            matches!(insn.kind, e9x86::Kind::JmpRel32 | e9x86::Kind::JmpRel8),
            "patched site decodes as {:?}",
            insn.kind
        );
        // Entry point was redirected to the loader.
        assert_eq!(elf.entry(), out.loader_addr);
    }

    #[test]
    fn patch_all_sites_reverse_order() {
        let (bin, disasm) = fig1_binary();
        let rw = Rewriter::new(RewriteConfig::default());
        let requests: Vec<PatchRequest> = disasm
            .iter()
            .take(4)
            .map(|i| PatchRequest {
                addr: i.addr,
                template: Template::Empty,
            })
            .collect();
        let out = rw.rewrite(&bin, &disasm, &requests, &[]).unwrap();
        assert_eq!(out.stats.total(), 4);
        // With all tactics available every site in this tiny binary should
        // be patchable.
        assert_eq!(out.stats.succeeded(), 4, "stats: {:?}", out.stats);
    }

    #[test]
    fn base_only_fails_where_punning_is_invalid() {
        // Non-PIE at 0x400000: the mov's B2 window underflows (negative
        // rel32), and with T1/T2/T3 disabled the patch must fail.
        let (bin, disasm) = fig1_binary();
        let cfg = RewriteConfig {
            tactics: Tactics::base_only(),
            ..RewriteConfig::default()
        };
        let out = Rewriter::new(cfg)
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(out.stats.failed, 1);
        // And the site is untouched.
        let elf = Elf::parse(&out.binary).unwrap();
        assert_eq!(elf.slice_at(0x401000, 3).unwrap(), &[0x48, 0x89, 0x03]);
    }

    #[test]
    fn pie_binary_base_coverage_is_higher() {
        // The same code at a PIE-style high base: B2's negative window is
        // now valid, so even base-only patching succeeds (§6.1).
        let code = vec![
            0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0x48, 0x31, 0xC1, 0x83, 0x7B, 0xFC, 0x4D,
            0xC3,
        ];
        let base = 0x5555_5555_4000;
        let mut b = ElfBuilder::pie(base);
        b.text(code.clone(), base + 0x1000);
        b.entry(base + 0x1000);
        let bin = b.build();
        let disasm = linear_sweep(&code, base + 0x1000);
        let cfg = RewriteConfig {
            tactics: Tactics::base_only(),
            ..RewriteConfig::default()
        };
        let out = Rewriter::new(cfg)
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: base + 0x1000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(out.stats.succeeded(), 1);
        assert_eq!(out.stats.b2, 1);
    }

    #[test]
    fn duplicate_requests_rejected() {
        let (bin, disasm) = fig1_binary();
        let req = PatchRequest {
            addr: 0x401000,
            template: Template::Empty,
        };
        let err = Rewriter::default()
            .rewrite(&bin, &disasm, &[req.clone(), req], &[])
            .unwrap_err();
        assert!(matches!(err, crate::error::Error::DuplicatePatch(_)));
    }

    #[test]
    fn unknown_address_rejected() {
        let (bin, disasm) = fig1_binary();
        let err = Rewriter::default()
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401001, // mid-instruction
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::Error::NoSuchInstruction(_)));
    }

    #[test]
    fn out_of_range_granularity_is_a_typed_error() {
        // 0 has no block; 2^35-1 pages overrun the usable space; 2^52
        // pages wrap the block size to zero.
        let (bin, disasm) = fig1_binary();
        let req = [PatchRequest {
            addr: 0x401000,
            template: Template::Empty,
        }];
        for m in [0, (1 << 35) - 1, 1 << 52, MAX_GRANULARITY + 1, u64::MAX] {
            let cfg = RewriteConfig {
                granularity: m,
                ..RewriteConfig::default()
            };
            assert_eq!(cfg.check(), Err(Error::Granularity(m)));
            let err = Rewriter::new(cfg).rewrite(&bin, &disasm, &req, &[]).unwrap_err();
            assert_eq!(err, Error::Granularity(m));
            assert!(err.to_string().contains(&format!("granularity {m} out of range")), "{err}");
        }
        // The largest accepted values run to a result or a typed error.
        for m in [1 << 34, MAX_GRANULARITY] {
            let cfg = RewriteConfig {
                granularity: m,
                ..RewriteConfig::default()
            };
            assert_eq!(cfg.check(), Ok(()));
            match Rewriter::new(cfg).rewrite(&bin, &disasm, &req, &[]) {
                Ok(_) | Err(Error::NoLoaderSpace(_)) => {}
                Err(e) => panic!("M={m}: {e}"),
            }
        }
    }

    #[test]
    fn b0_fallback_registers_trap() {
        // Disable every tactic; enable B0. The site gets an int3.
        let (bin, disasm) = fig1_binary();
        let cfg = RewriteConfig {
            tactics: Tactics::base_only(),
            b0_fallback: true,
            ..RewriteConfig::default()
        };
        let out = Rewriter::new(cfg)
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(out.stats.b0, 1);
        assert_eq!(out.trap_count, 1);
        let elf = Elf::parse(&out.binary).unwrap();
        assert_eq!(elf.slice_at(0x401000, 1).unwrap(), &[0xCC]);
        // Manifest is recoverable from the note segment.
        let note = elf
            .phdrs
            .iter()
            .find(|p| p.p_type == e9elf::types::PT_NOTE)
            .expect("trap note present");
        let blob = &out.binary[note.p_offset as usize..(note.p_offset + note.p_filesz) as usize];
        let traps = manifest::decode(blob).unwrap();
        assert_eq!(traps.len(), 1);
        assert_eq!(traps[0].0, 0x401000);
    }

    #[test]
    fn manifest_roundtrip() {
        let traps = vec![(0x401000u64, 0x70000000u64), (0x401005, 0x70000040)];
        let blob = manifest::encode(&traps);
        assert_eq!(manifest::decode(&blob).unwrap(), traps);
        assert_eq!(manifest::decode(b"not a manifest!!"), None);
    }

    #[test]
    fn extra_segments_survive() {
        let (bin, disasm) = fig1_binary();
        let seg = ExtraSegment {
            vaddr: 0x30000000,
            bytes: vec![0xAB; 32],
            exec: false,
            write: true,
        };
        let out = Rewriter::default()
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401003,
                    template: Template::Counter {
                        counter_addr: 0x30000000,
                    },
                }],
                &[seg],
            )
            .unwrap();
        let elf = Elf::parse(&out.binary).unwrap();
        assert_eq!(elf.slice_at(0x30000000, 32).unwrap(), &[0xAB; 32]);
    }

    #[test]
    fn output_size_accounts_for_trampolines() {
        let (bin, disasm) = fig1_binary();
        let out = Rewriter::default()
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: 0x401000,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert!(out.size.output_bytes > out.size.input_bytes);
        assert_eq!(out.size.input_bytes, bin.len() as u64);
        assert!(out.size.mappings >= 1);
    }
}
