//! Replay the checked-in hostile-ELF corpus against the parser and the
//! VM loader: typed errors or graceful degradation, never a panic.
//!
//! Each corpus file is a deterministic transformation of the campaign
//! baseline (see `e9faultgen::corpus`); the test also asserts the
//! checked-in bytes still match the generator, so the corpus and the
//! builder cannot drift apart silently. Regenerate after intentional
//! builder changes with:
//!
//! ```console
//! $ cargo run -p e9faultgen --bin e9fault -- --write-corpus crates/faultgen/tests/corpus
//! ```

use e9faultgen::{corpus, elf_case, Outcome};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_is_complete_and_current() {
    for name in corpus::NAMES {
        let path = corpus_dir().join(format!("{name}.bin"));
        let on_disk = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing corpus file {}: {e}", path.display()));
        let generated = corpus::generate(name).expect("known corpus name");
        assert_eq!(
            on_disk, generated,
            "{name}.bin is stale; regenerate with e9fault --write-corpus"
        );
    }
}

#[test]
fn corpus_never_panics_parser_or_loader() {
    for name in corpus::NAMES {
        let bytes = std::fs::read(corpus_dir().join(format!("{name}.bin"))).unwrap();
        let outcome = elf_case(&bytes);
        assert_ne!(
            outcome,
            Outcome::Panicked,
            "{name} panicked the parser/loader"
        );
    }
}

#[test]
fn structurally_broken_entries_are_rejected() {
    for name in corpus::MUST_REJECT {
        let bytes = std::fs::read(corpus_dir().join(format!("{name}.bin"))).unwrap();
        assert_eq!(
            elf_case(&bytes),
            Outcome::Rejected,
            "{name} should have been refused with a typed error"
        );
    }
}

#[test]
fn corpus_failures_are_typed_not_stringly() {
    // Spot-check that the rejections surface as the right error types,
    // not via some incidental failure.
    let read = |n: &str| std::fs::read(corpus_dir().join(format!("{n}.bin"))).unwrap();

    match e9elf::Elf::parse(&read("trunc-ehdr")) {
        Err(e9elf::ElfError::Truncated(_)) => {}
        other => panic!("trunc-ehdr: expected Truncated, got {other:?}"),
    }
    match e9elf::Elf::parse(&read("phnum-bomb")) {
        Err(e9elf::ElfError::Truncated(_)) => {}
        other => panic!("phnum-bomb: expected Truncated, got {other:?}"),
    }

    // Intact header tables whose PT_LOAD table no loader maps as it
    // reads: `Elf::parse` refuses each, naming the segment and the rule.
    for (name, vaddr, rule) in [
        ("vaddr-wrap", 0xffff_ffff_ffff_f000, "address space"),
        ("offset-oob", 0x400000, "past the end of the input"),
        ("memsz-bomb", 0x401000, "shares a page"),
        ("overlap-congruent", 0x401000, "shares a page"),
        ("vaddr-incongruent", 0x401169, "modulo the page size"),
    ] {
        match e9elf::Elf::parse(&read(name)) {
            Err(e @ e9elf::ElfError::BadSegment { vaddr: v, reason }) => {
                assert_eq!(v, vaddr, "{name}: {e}");
                assert!(reason.contains(rule), "{name}: {e}");
                assert!(e.to_string().contains(&format!("{vaddr:#x}")), "{e}");
            }
            other => panic!("{name}: expected BadSegment, got {other:?}"),
        }
        let mut vm = e9vm::Vm::new();
        assert!(
            matches!(
                e9vm::load_elf(&mut vm, &read(name)),
                Err(e9vm::LoadError::Elf(e9elf::ElfError::BadSegment { .. }))
            ),
            "{name} should be refused by the loader's parse"
        );
    }
}

#[test]
fn loader_memory_cap_refuses_an_image_that_parses() {
    // A `.bss` past the one-segment cap: the table is loadable, so only
    // the loader's own cap stands between it and a 2 GiB allocation.
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(vec![0xC3], 0x401000);
    b.bss(e9vm::load::MAX_SEGMENT_MEMSZ * 2, 0x500000);
    b.entry(0x401000);
    let bytes = b.build();
    e9elf::Elf::parse(&bytes).expect("a loadable segment table");
    let mut vm = e9vm::Vm::new();
    assert_eq!(
        e9vm::load_elf(&mut vm, &bytes),
        Err(e9vm::LoadError::SegmentTooBig {
            vaddr: 0x500000,
            memsz: e9vm::load::MAX_SEGMENT_MEMSZ * 2,
        })
    );
}

#[test]
fn program_header_count_past_e_phnum_is_refused() {
    // phnum-max.bin holds 65,535 program headers; `e_phnum` is lowered
    // so that only the first `phnum` count. The output adds the loader's
    // header and must stay below PN_XNUM (0xffff): 65,533 rewrite into an
    // output with 65,534, while 65,534 and 65,535 are a typed error, not
    // an output whose count wrapped.
    let mut bytes = std::fs::read(corpus_dir().join("phnum-max.bin")).unwrap();
    let disasm = e9front::disassemble_text(&bytes).expect("disassemble");
    let req = [e9patch::PatchRequest {
        addr: disasm[0].addr,
        template: e9patch::Template::Empty,
    }];
    for phnum in [65_533u16, 65_534, 65_535] {
        bytes[56..58].copy_from_slice(&phnum.to_le_bytes());
        match e9patch::Rewriter::default().rewrite(&bytes, &disasm, &req, &[]) {
            Ok(out) if phnum == 65_533 => {
                assert_eq!(out.binary[56..58], 65_534u16.to_le_bytes());
            }
            Err(e) if phnum > 65_533 => assert_eq!(
                e,
                e9patch::Error::TooManyProgramHeaders(usize::from(phnum) + 1)
            ),
            other => panic!("{phnum} program headers: {:?}", other.map(|o| o.size)),
        }
    }
}
