//! Static verification of rewriter output.
//!
//! The paper's §2 methodology promises that every instruction of the input
//! is (1) preserved, (2) replaced by an operationally equivalent
//! instruction (a jump to an evictee trampoline), or (3) replaced by the
//! intended patch jump — and that nothing else changes. This module checks
//! those invariants *statically* on the output binary, independent of the
//! planner that produced it (a classic translation-validation safety net).
//!
//! One walk compares each original `PT_LOAD` with the output (an unmapped
//! byte counts as changed); every check starts from the changed addresses.

use crate::loader::Mapping;
use crate::planner::SiteReport;
use e9elf::Elf;
use e9x86::insn::{Insn, Kind};
use std::cell::Cell;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An instruction's bytes changed but its address is not accounted for
    /// by a diversion (jump/int3) — byte corruption.
    CorruptedInstruction {
        /// Instruction address.
        addr: u64,
        /// What the changed bytes decode as, or why they do not decode.
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
    // Each original segment's file-backed range, and where the output differs.
    let (mut segs, mut changed) = (Vec::new(), Vec::new());
    for p in original.load_segments() {
        segs.push((p.p_vaddr, p.p_vaddr + p.p_filesz));
        if let Ok(old) = original.slice_at(p.p_vaddr, p.p_filesz as usize) {
            diff(patched, p.p_vaddr, old, &mut changed);
        }
    }
    changed.sort_unstable();
    changed.dedup();
    // What one segment holds reads whole; try the last segment that did.
    let last = Cell::new((0, 0));
    let readable = |a: u64, len: usize| {
        let holds = |&(lo, hi): &(u64, u64)| lo <= a && a.saturating_add(len as u64) <= hi;
        let mut tries = std::iter::once(last.get()).chain(segs.iter().copied());
        tries.find(holds).map(|s| last.set(s)).is_some() || original.slice_at(a, len).is_ok()
    };
    // A jump lands in the image or a mapping. Mappings sorted by start, each
    // end raised to the furthest so far: the last start at or below decides.
    let span = |m: &Mapping| (m.vaddr, m.vaddr.saturating_add(m.len));
    let mut spans: Vec<_> = mappings.iter().map(span).collect();
    spans.sort_unstable();
    let (starts, mut reach): (Vec<u64>, Vec<u64>) = spans.into_iter().unzip();
    for k in 1..reach.len() {
        reach[k] = reach[k].max(reach[k - 1]);
    }
    let lands = |a: u64| {
        let k = starts.partition_point(|&s| s <= a);
        k > 0 && reach[k - 1] > a || original.load_segments().any(|p| p.covers(a))
    };

    // Every instruction, in the order given, is preserved or diverted.
    let (mut violations, mut report, mut i) = (Vec::new(), VerifyReport::default(), 0);
    let mut covered = vec![false; changed.len()];
    for insn in disasm {
        let (addr, len) = (insn.addr, insn.len());
        let ks = changed_in(&changed, &mut i, addr, len as u64);
        if ks.is_empty() {
            report.preserved += usize::from(readable(addr, len));
            continue;
        }
        covered[ks].fill(true);
        if !readable(addr, len) {
            continue;
        }
        // Changed: it must now start with a jump or trap, maybe a longer one.
        let read = |w| patched.slice_at(addr, w).ok();
        let window = (len..=15).rev().find_map(read);
        let found = match window.map(|w| e9x86::decode(w, addr)) {
            Some(Ok(d)) if matches!(d.kind, Kind::JmpRel8 | Kind::JmpRel32 | Kind::Int3) => {
                report.diverted += 1;
                let wild = d.branch_target().filter(|&t| !lands(t));
                violations.extend(wild.map(|target| Violation::WildJump { addr, target }));
                continue;
            }
            Some(Ok(d)) => format!("{d}"),
            Some(Err(_)) => "undecodable".into(),
            None => "not mapped by the output".into(),
        };
        violations.push(Violation::CorruptedInstruction { addr, found });
    }

    // Changed bytes outside every instruction, bar the ELF header, are data.
    let header = |a: u64| original.vaddr_to_offset(a).is_ok_and(|fo| fo < 64);
    let data = (0..changed.len()).filter(|&k| !covered[k] && !header(changed[k]));
    violations.extend(data.map(|k| Violation::DataModified { addr: changed[k] }));

    // Reports agree with reality, read from the last (lowest address) up.
    let first_report = violations.len();
    for r in reports.iter().rev() {
        let ks = changed_in(&changed, &mut i, r.addr, r.insn_len.into());
        let why = match (r.tactic, ks.is_empty()) {
            _ if !readable(r.addr, r.insn_len.into()) => continue,
            (Some(_), true) => "claimed patched but bytes unchanged".into(),
            (None, false) => "claimed failed but bytes changed".into(),
            _ => continue,
        };
        violations.push(Violation::ReportMismatch { addr: r.addr, why });
    }
    violations[first_report..].reverse();
    violations.is_empty().then_some(report).ok_or(violations)
}

/// The indices of the sorted `changed` addresses in `a..a + len`, searched
/// from the cursor `at` and leaving it at their end: O(1) in address order.
fn changed_in(changed: &[u64], at: &mut usize, a: u64, len: u64) -> std::ops::Range<usize> {
    let fits = changed[..*at].last() < Some(&a) && changed.get(*at).is_none_or(|&c| c >= a);
    let search = || changed.partition_point(|&c| c < a);
    let i = if fits { *at } else { search() };
    *at = i + changed[i..].iter().take_while(|&&c| c - a < len).count();
    i..*at
}

/// Push the address of every byte of `old`, the original's bytes at `a`,
/// that `patched` maps differently (a nonzero byte of two words' XOR) or,
/// halving what it cannot read whole down to single bytes, not at all.
fn diff(patched: &Elf, a: u64, old: &[u8], out: &mut Vec<u64>) {
    if let Ok(new) = patched.slice_at(a, old.len()) {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
        for (k, (o, n)) in old.chunks_exact(8).zip(new.chunks_exact(8)).enumerate() {
            let mut x = word(o) ^ word(n);
            while x != 0 {
                let b = x.trailing_zeros() / 8;
                out.push(a + 8 * k as u64 + u64::from(b));
                x &= !(0xFF << (8 * b));
            }
        }
        let tail = old.len() & !7..old.len();
        out.extend(tail.filter(|&t| old[t] != new[t]).map(|t| a + t as u64));
    } else if let [_] = old {
        out.push(a);
    } else {
        let (lo, hi) = old.split_at(old.len() / 2);
        diff(patched, a, lo, out);
        diff(patched, a + lo.len() as u64, hi, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PatchRequest;
    use crate::{RewriteConfig, RewriteOutput, Rewriter, Template};
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

    /// `setup`'s A1 output, its text `PT_LOAD` edited by `edit`.
    fn with_text_phdr(edit: impl Fn(&mut e9elf::types::Phdr)) -> (Elf, Elf, RewriteOutput) {
        use e9elf::types::{Phdr, PHDR_SIZE, PT_LOAD};
        let (bin, disasm, reqs) = setup();
        let out = Rewriter::new(RewriteConfig::default())
            .rewrite(&bin, &disasm, &reqs, &[])
            .unwrap();
        let mut bytes = out.binary.clone();
        let phoff = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
        let phnum = u16::from_le_bytes(bytes[56..58].try_into().unwrap()) as usize;
        let mut edited = 0;
        for at in (0..phnum).map(|k| phoff + k * PHDR_SIZE) {
            let mut ph = Phdr::try_from_bytes(&bytes[at..at + PHDR_SIZE]).unwrap();
            if ph.p_type == PT_LOAD && ph.p_vaddr == 0x401000 {
                edit(&mut ph);
                bytes[at..at + PHDR_SIZE].copy_from_slice(&ph.to_bytes());
                edited += 1;
            }
        }
        assert_eq!(edited, 1);
        (Elf::parse(&bin).unwrap(), Elf::parse(&bytes).unwrap(), out)
    }

    fn unmapped(addr: u64) -> Violation {
        Violation::CorruptedInstruction {
            addr,
            found: "not mapped by the output".into(),
        }
    }

    #[test]
    fn moved_text_segment_detected() {
        // The output's text maps 1 MiB higher, so the output no longer
        // maps the original instructions: each one is corrupted.
        let (orig, patched, out) = with_text_phdr(|ph| ph.p_vaddr += 0x10_0000);
        let disasm = setup().1;
        let errs = verify(&orig, &patched, &disasm, &out.mappings, &out.reports).unwrap_err();
        for insn in &disasm {
            assert!(errs.contains(&unmapped(insn.addr)), "{:#x}", insn.addr);
        }
    }

    #[test]
    fn unmapped_text_tail_detected() {
        // The output maps all but the text's last six bytes: only the two
        // `nop`s that reach into them are reported.
        let (orig, patched, out) = with_text_phdr(|ph| ph.p_filesz -= 6);
        let disasm = setup().1;
        let errs = verify(&orig, &patched, &disasm, &out.mappings, &out.reports).unwrap_err();
        assert_eq!(errs, [unmapped(0x40100f), unmapped(0x401014)]);
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
