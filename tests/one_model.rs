//! One segment model: on every image that both `Elf::parse` and e9vm's
//! loader accept, each file-backed byte `Elf::slice_at` reads is the byte
//! the loader maps at that address. The oracle trusts neither side's
//! translation: it reads one byte at a time through each public surface
//! and compares.

use e9elf::Elf;
use e9faultgen::{case_rng, corpus, elf, Surface};
use e9front::{Application, Options, Payload};
use e9vm::{load_elf, Vm};

/// Fixed seed and case count of the mutant sweep.
const MUTANT_SEED: u64 = 42;
const MUTANT_CASES: u32 = 2000;

/// Compare every file-backed byte of `bytes` through both models.
/// Returns whether both accepted the image (so it was compared).
fn agrees(name: &str, bytes: &[u8]) -> bool {
    let Ok(elf) = Elf::parse(bytes) else {
        return false;
    };
    let mut vm = Vm::new();
    if load_elf(&mut vm, bytes).is_err() {
        return false;
    }
    for p in elf.load_segments() {
        for v in p.p_vaddr..p.p_vaddr + p.p_filesz {
            let read = elf.slice_at(v, 1).map(|b| b[0]);
            assert_eq!(
                read.ok(),
                vm.mem.read8(v).ok(),
                "{name}: e9elf and e9vm disagree at {v:#x}"
            );
        }
    }
    true
}

fn tiny(pie: bool) -> Vec<u8> {
    e9synth::generate(&e9synth::Profile::tiny("one-model", pie)).binary
}

#[test]
fn synth_programs_and_their_rewrites_read_as_they_load() {
    for pie in [false, true] {
        let bin = tiny(pie);
        assert!(agrees("tiny", &bin));
        let opts = Options::new(Application::A1Jumps, Payload::Counter);
        let out = e9front::instrument(&bin, &opts).expect("A1/counter rewrite");
        assert!(agrees("tiny A1/counter", &out.rewrite.binary));
    }
}

#[test]
fn corpus_files_that_load_read_as_they_load() {
    let loaded = corpus::all()
        .iter()
        .filter(|(name, bytes)| agrees(name, bytes))
        .count();
    assert!(loaded > 0, "no corpus file loads");
}

#[test]
fn elf_mutants_that_load_read_as_they_load() {
    let base = elf::baseline_elf_with_symbols();
    let loaded = (0..MUTANT_CASES)
        .filter(|&i| {
            let mutant = elf::mutate(&mut case_rng(MUTANT_SEED, Surface::Elf, i), &base);
            agrees(&format!("mutant {i}"), &mutant)
        })
        .count();
    assert!(loaded > 0, "no mutant loads");
}
