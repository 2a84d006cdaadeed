//! Static verification of rewriter output.
//!
//! The paper's §2 methodology promises that every instruction of the input
//! is (1) preserved, (2) replaced by an operationally equivalent
//! instruction (a jump to an evictee trampoline), or (3) replaced by the
//! intended patch jump — and that nothing else changes. This module checks
//! those invariants *statically* on the output binary, independent of the
//! planner that produced it (a classic translation-validation safety net).

use crate::loader::Mapping;
use crate::planner::SiteReport;
use e9elf::Elf;
use e9x86::insn::{Insn, Kind};
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An instruction's bytes changed but its address is not accounted for
    /// by a diversion (jump/int3) — byte corruption.
    CorruptedInstruction {
        /// Instruction address.
        addr: u64,
        /// What the changed bytes decode as.
        found: String,
    },
    /// A diverted site's jump points outside every trampoline mapping and
    /// outside the original image.
    WildJump {
        /// Site address.
        addr: u64,
        /// The jump's target.
        target: u64,
    },
    /// A byte outside all disassembled instructions changed (data must
    /// never be modified).
    DataModified {
        /// Virtual address of the changed byte.
        addr: u64,
    },
    /// A report claims success but the site bytes are unchanged (or vice
    /// versa).
    ReportMismatch {
        /// Site address.
        addr: u64,
        /// Explanation.
        why: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CorruptedInstruction { addr, found } => {
                write!(f, "instruction at {addr:#x} corrupted: {found}")
            }
            Violation::WildJump { addr, target } => {
                write!(f, "diverted site {addr:#x} jumps to unmapped {target:#x}")
            }
            Violation::DataModified { addr } => {
                write!(f, "non-instruction byte modified at {addr:#x}")
            }
            Violation::ReportMismatch { addr, why } => {
                write!(f, "report mismatch at {addr:#x}: {why}")
            }
        }
    }
}

/// Verification summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Instruction starts whose bytes were untouched.
    pub preserved: usize,
    /// Instruction starts replaced by a diversion (jump or trap).
    pub diverted: usize,
}

/// Statically verify `patched` against `original`.
///
/// `disasm` is the instruction info the rewrite used; `mappings` the
/// loader table; `reports` the per-site outcomes (pass `&[]` to skip
/// report cross-checking).
///
/// # Errors
///
/// Returns every violated invariant (empty-vec errors are never returned —
/// `Err` implies at least one violation).
pub fn verify(
    original: &Elf,
    patched: &Elf,
    disasm: &[Insn],
    mappings: &[Mapping],
    reports: &[SiteReport],
) -> Result<VerifyReport, Vec<Violation>> {
    let mut violations = Vec::new();
    let mut report = VerifyReport::default();

    let in_mappings = |a: u64| mappings.iter().any(|m| a >= m.vaddr && a < m.vaddr + m.len);
    let in_image = |a: u64| original.load_segments().any(|p| p.covers(a));

    // Pass 1: every disassembled instruction is preserved or diverted.
    for insn in disasm {
        let len = insn.len();
        let (Ok(old), Ok(new)) = (
            original.slice_at(insn.addr, len),
            patched.slice_at(insn.addr, len),
        ) else {
            continue;
        };
        if old == new {
            report.preserved += 1;
            continue;
        }
        // Changed: must now start with a diversion. Decode with generous
        // lookahead (a punned jump may be longer than the original insn).
        let window = patched.slice_at(
            insn.addr,
            len.max(15).min(
                // stay within the segment
                {
                    let mut n = len;
                    while n < 15 && patched.slice_at(insn.addr, n + 1).is_ok() {
                        n += 1;
                    }
                    n
                },
            ),
        );
        let decoded = window.ok().and_then(|b| e9x86::decode(b, insn.addr).ok());
        match decoded {
            Some(d) if matches!(d.kind, Kind::JmpRel8 | Kind::JmpRel32 | Kind::Int3) => {
                report.diverted += 1;
                if let Some(target) = d.branch_target() {
                    if !in_mappings(target) && !in_image(target) {
                        violations.push(Violation::WildJump {
                            addr: insn.addr,
                            target,
                        });
                    }
                }
            }
            Some(d) => violations.push(Violation::CorruptedInstruction {
                addr: insn.addr,
                found: format!("{d}"),
            }),
            None => violations.push(Violation::CorruptedInstruction {
                addr: insn.addr,
                found: "undecodable".into(),
            }),
        }
    }

    // Pass 2: bytes outside every disassembled instruction are unchanged
    // within the original file-backed image (data is never moved or
    // touched). Build the instruction byte cover.
    let mut covered: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for insn in disasm {
        // A diversion may overwrite/pun up to 15 bytes from the site, and
        // T3 can additionally rewrite victim bytes — victims are
        // themselves instructions in `disasm`, so per-instruction cover
        // (start..start+15 capped at next instruction start) is exact for
        // non-instruction data.
        for a in insn.addr..insn.end() {
            covered.insert(a);
        }
    }
    for ph in original.load_segments() {
        for off in 0..ph.p_filesz {
            let a = ph.p_vaddr + off;
            if covered.contains(&a) {
                continue;
            }
            // The 64-byte ELF file header is legitimately rewritten
            // (entry point, relocated program-header table offset/count).
            if original.vaddr_to_offset(a).is_ok_and(|fo| fo < 64) {
                continue;
            }
            let (Ok(o), Ok(n)) = (original.slice_at(a, 1), patched.slice_at(a, 1)) else {
                continue;
            };
            if o != n {
                violations.push(Violation::DataModified { addr: a });
            }
        }
    }

    // Pass 3: reports agree with reality.
    for r in reports {
        let len = r.insn_len as usize;
        let (Ok(old), Ok(new)) = (
            original.slice_at(r.addr, len),
            patched.slice_at(r.addr, len),
        ) else {
            continue;
        };
        let changed = old != new;
        if r.tactic.is_some() && !changed {
            violations.push(Violation::ReportMismatch {
                addr: r.addr,
                why: "claimed patched but bytes unchanged".into(),
            });
        }
        if r.tactic.is_none() && changed {
            violations.push(Violation::ReportMismatch {
                addr: r.addr,
                why: "claimed failed but bytes changed".into(),
            });
        }
    }

    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PatchRequest;
    use crate::{RewriteConfig, Rewriter, Template};
    use e9x86::decode::linear_sweep;

    fn setup() -> (Vec<u8>, Vec<Insn>, Vec<PatchRequest>) {
        let code = vec![
            0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0x48, 0x31, 0xC1, 0x83, 0x7B, 0xFC, 0x4D,
            0xC3, 0x0F, 0x1F, 0x44, 0x00, 0x00, 0x0F, 0x1F, 0x44, 0x00, 0x00,
        ];
        let disasm = linear_sweep(&code, 0x401000);
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.rodata(vec![0xAA; 64], 0x402000);
        b.entry(0x401000);
        let reqs = vec![PatchRequest {
            addr: 0x401000,
            template: Template::Empty,
        }];
        (b.build(), disasm, reqs)
    }

    #[test]
    fn clean_rewrite_verifies() {
        let (bin, disasm, reqs) = setup();
        let out = Rewriter::new(RewriteConfig::default())
            .rewrite(&bin, &disasm, &reqs, &[])
            .unwrap();
        let orig = Elf::parse(&bin).unwrap();
        let patched = Elf::parse(&out.binary).unwrap();
        let rep = verify(&orig, &patched, &disasm, &out.mappings, &out.reports)
            .expect("verification should pass");
        assert_eq!(rep.diverted + rep.preserved, disasm.len());
        assert!(rep.diverted >= 1);
    }

    #[test]
    fn corruption_detected() {
        let (bin, disasm, reqs) = setup();
        let out = Rewriter::new(RewriteConfig::default())
            .rewrite(&bin, &disasm, &reqs, &[])
            .unwrap();
        let orig = Elf::parse(&bin).unwrap();
        // Corrupt an unpatched instruction (the xor at 0x401007).
        let mut bad = Elf::parse(&out.binary).unwrap();
        bad.write_at(0x401007, &[0x48, 0x01]).unwrap();
        let errs = verify(&orig, &bad, &disasm, &out.mappings, &out.reports).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::CorruptedInstruction { addr: 0x401007, .. })));
    }

    #[test]
    fn data_modification_detected() {
        let (bin, disasm, reqs) = setup();
        let out = Rewriter::new(RewriteConfig::default())
            .rewrite(&bin, &disasm, &reqs, &[])
            .unwrap();
        let orig = Elf::parse(&bin).unwrap();
        let mut bad = Elf::parse(&out.binary).unwrap();
        bad.write_at(0x402010, &[0x00]).unwrap(); // rodata byte
        let errs = verify(&orig, &bad, &disasm, &out.mappings, &out.reports).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::DataModified { addr: 0x402010 })));
    }

    #[test]
    fn wild_jump_detected() {
        let (bin, disasm, reqs) = setup();
        let out = Rewriter::new(RewriteConfig::default())
            .rewrite(&bin, &disasm, &reqs, &[])
            .unwrap();
        let orig = Elf::parse(&bin).unwrap();
        // Verify with an empty mapping table: the (legitimate) trampoline
        // jump now points "nowhere".
        let errs = verify(&orig, &Elf::parse(&out.binary).unwrap(), &disasm, &[], &[]).unwrap_err();
        assert!(errs.iter().any(|v| matches!(v, Violation::WildJump { .. })));
    }

    #[test]
    fn verifier_passes_on_synthetic_workload() {
        let prog = e9synth::generate(&e9synth::Profile::tiny("verifyws", false));
        let reqs: Vec<PatchRequest> = prog
            .disasm
            .iter()
            .filter(|i| i.kind.is_jump())
            .map(|i| PatchRequest {
                addr: i.addr,
                template: Template::Empty,
            })
            .collect();
        let out = Rewriter::new(RewriteConfig::default())
            .rewrite(&prog.binary, &prog.disasm, &reqs, &[])
            .unwrap();
        let orig = Elf::parse(&prog.binary).unwrap();
        let patched = Elf::parse(&out.binary).unwrap();
        let rep = verify(&orig, &patched, &prog.disasm, &out.mappings, &out.reports)
            .unwrap_or_else(|e| panic!("verification failed: {e:?}"));
        assert!(rep.diverted >= reqs.len());
    }
}
