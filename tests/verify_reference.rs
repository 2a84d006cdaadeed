//! `e9patch::verify` against a reference: the three-pass verifier it
//! replaced, kept here verbatim. The reference checks every instruction's
//! bytes, then every file-backed byte one at a time against a set of
//! every instruction byte, then every report. The one-walk verifier must
//! return the identical `Result`, with the same violations in the same
//! order, on every output here. Each of them maps every byte the original
//! maps from its file; where an output does not, the reference skips the
//! byte and the walk counts it as changed, so the two differ by design.
//!
//! The inputs: A1/empty and A2/counter on the 38 Table 1 rows at 1/50
//! scale; seeded byte-flip mutants of those outputs; the two mutants of
//! `verify`'s unit tests; and the shuffled and duplicate-address
//! disassemblies of `rewrite_known_answer.rs`, whose entries the
//! reference reads as given.

use e9elf::Elf;
use e9front::{Application, Options, Payload};
use e9patch::loader::Mapping;
use e9patch::verify::{verify, VerifyReport, Violation};
use e9patch::{PatchRequest, RewriteConfig, RewriteOutput, Rewriter, SiteReport, Template};
use e9rng::SplitMix64;
use e9x86::insn::{Insn, Kind};

/// The verifier before the one walk, unchanged but for its name.
fn reference(
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

/// Run both verifiers on `patched` and assert they agree; return the
/// verdict.
fn agree(
    what: &str,
    original: &Elf,
    patched: &[u8],
    disasm: &[Insn],
    out: &RewriteOutput,
) -> Result<VerifyReport, Vec<Violation>> {
    let patched = Elf::parse(patched).expect("output parses");
    let got = verify(original, &patched, disasm, &out.mappings, &out.reports);
    let want = reference(original, &patched, disasm, &out.mappings, &out.reports);
    assert_eq!(got, want, "{what}: the walk and the reference disagree");
    got
}

/// One rewrite: the input, its disassembly and the output.
struct Case {
    name: String,
    input: Vec<u8>,
    disasm: Vec<Insn>,
    out: RewriteOutput,
}

/// A1/empty and A2/counter on the 38 SPEC and system rows at 1/50 scale.
fn table1_cases() -> Vec<Case> {
    let mut profiles = e9synth::spec_profiles(50);
    profiles.extend(e9synth::system_profiles(50));
    let mut cases = Vec::new();
    for profile in &profiles {
        let sb = e9synth::generate(profile);
        let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
        for (kind, app, payload) in [
            ("a1", Application::A1Jumps, Payload::Empty),
            ("a2", Application::A2HeapWrites, Payload::Counter),
        ] {
            let out =
                e9front::instrument_with_disasm(&sb.binary, &disasm, &Options::new(app, payload))
                    .expect("instrument")
                    .rewrite;
            cases.push(Case {
                name: format!("{}-{kind}", profile.name),
                input: sb.binary.clone(),
                disasm: disasm.clone(),
                out,
            });
        }
    }
    assert_eq!(cases.len(), 76);
    cases
}

#[test]
fn table1_outputs_and_their_flip_mutants_get_the_reference_verdict() {
    const MUTANTS: u64 = 512;
    let cases = table1_cases();
    let originals: Vec<Elf> = cases
        .iter()
        .map(|c| Elf::parse(&c.input).expect("input parses"))
        .collect();
    for (c, orig) in cases.iter().zip(&originals) {
        let verdict = agree(&c.name, orig, &c.out.binary, &c.disasm, &c.out);
        assert!(verdict.is_ok(), "{}: {verdict:?}", c.name);
    }
    // Mutant `k` flips 1–4 bits of output `k mod 76` at file offsets from
    // 64 (past the file header, which the rewrite legitimately changes) up
    // to the input's length, where every original byte lies. Every fourth
    // mutant flips within the last eight bytes of a segment's file range,
    // where a walk in words ends. Two threads share the mutants, since
    // the reference is slow in a debug build.
    let mutant = |k: u64| -> bool {
        let i = (k % cases.len() as u64) as usize;
        let (c, orig) = (&cases[i], &originals[i]);
        let ends: Vec<u64> = orig
            .load_segments()
            .map(|p| p.p_offset + p.p_filesz)
            .filter(|&end| end > 72)
            .collect();
        let mut rng = SplitMix64::new(0x5645_5249_4659 ^ k);
        let mut bytes = c.out.binary.clone();
        for _ in 0..1 + rng.next_u64() % 4 {
            let off = if k.is_multiple_of(4) {
                ends[(rng.next_u64() % ends.len() as u64) as usize] - 1 - rng.next_u64() % 8
            } else {
                64 + rng.next_u64() % (c.input.len() as u64 - 64)
            };
            bytes[off as usize] ^= 1 << (rng.next_u64() % 8);
        }
        let what = format!("mutant {k} of {}", c.name);
        agree(&what, orig, &bytes, &c.disasm, &c.out).is_err()
    };
    let flagged: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| s.spawn(move || (w..MUTANTS).step_by(2).filter(|&k| mutant(k)).count()))
            .collect();
        workers.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    // Both verdicts occur: flips in code and data are caught, flips in
    // bytes no segment loads are not.
    assert!(
        flagged as u64 > MUTANTS / 2 && (flagged as u64) < MUTANTS,
        "{flagged} of {MUTANTS} flagged"
    );
}

#[test]
fn unit_test_mutants_get_the_reference_verdict() {
    let code = vec![
        0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0x48, 0x31, 0xC1, 0x83, 0x7B, 0xFC, 0x4D, 0xC3,
        0x0F, 0x1F, 0x44, 0x00, 0x00, 0x0F, 0x1F, 0x44, 0x00, 0x00,
    ];
    let disasm = e9x86::decode::linear_sweep(&code, 0x401000);
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.rodata(vec![0xAA; 64], 0x402000);
    b.entry(0x401000);
    let input = b.build();
    let reqs = [PatchRequest {
        addr: 0x401000,
        template: Template::Empty,
    }];
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(&input, &disasm, &reqs, &[])
        .expect("rewrite");
    let orig = Elf::parse(&input).expect("input parses");
    assert!(agree("clean", &orig, &out.binary, &disasm, &out).is_ok());
    // A corrupted instruction (the xor at 0x401007), a rodata byte, and
    // the text's last byte, past its last whole eight-byte word.
    for (what, addr, bytes) in [
        ("corrupted xor", 0x401007, &[0x48, 0x01][..]),
        ("rodata byte", 0x402010, &[0x00][..]),
        ("last text byte", 0x401018, &[0x01][..]),
    ] {
        let mut bad = Elf::parse(&out.binary).expect("output parses");
        bad.write_at(addr, bytes).expect("mapped");
        assert!(agree(what, &orig, bad.data(), &disasm, &out).is_err());
    }
}

#[test]
fn shuffled_and_duplicate_disassemblies_get_the_reference_verdict() {
    // The gcc row's A1 job from `rewrite_known_answer.rs`, with its
    // shuffled disassembly and both orders of its decoy entries.
    let profile = e9synth::spec_profiles(50)
        .into_iter()
        .find(|p| p.name == "gcc")
        .expect("gcc row");
    let sb = e9synth::generate(&profile);
    let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
    let requests: Vec<PatchRequest> = disasm
        .iter()
        .filter(|i| i.kind.is_jump())
        .map(|i| PatchRequest {
            addr: i.addr,
            template: Template::Empty,
        })
        .collect();
    let mut shuffled = disasm.clone();
    let mut rng = SplitMix64::new(0x5348_5546);
    for i in (1..shuffled.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        shuffled.swap(i, j);
    }
    let decoys: Vec<Insn> = disasm
        .windows(2)
        .filter(|w| w[0].kind.is_jump() && w[1].len() > 1)
        .step_by(4)
        .map(|w| e9x86::decode(&[0x90], w[1].addr).expect("nop"))
        .collect();
    let mut real_last = decoys.clone();
    real_last.extend_from_slice(&disasm);
    let mut decoy_last = disasm.clone();
    decoy_last.extend_from_slice(&decoys);
    let orig = Elf::parse(&sb.binary).expect("input parses");
    for (what, d) in [
        ("shuffled", &shuffled),
        ("real last", &real_last),
        ("decoy last", &decoy_last),
    ] {
        let out = Rewriter::new(RewriteConfig::default())
            .rewrite(&sb.binary, d, &requests, &[])
            .expect("rewrite");
        agree(what, &orig, &out.binary, d, &out).ok();
    }
}
