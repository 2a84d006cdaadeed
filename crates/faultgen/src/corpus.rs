//! A small, named corpus of malformed ELF images.
//!
//! Each entry is a deterministic transformation of the campaign baseline,
//! one per historical failure class: parser panics, and inputs the
//! rewriter once turned into outputs that cannot load. The files are
//! checked in under `tests/corpus/` and the `hostile_elf` integration
//! test both replays them against the parser/loader and asserts the
//! checked-in bytes match this generator — so the corpus cannot silently
//! rot as the builder evolves. Regenerate with `e9fault --write-corpus <dir>`.

use crate::elf::{
    baseline_elf, phdr_at, put16, put32, put64, read16, read64, EH_PHNUM, EH_PHOFF, EH_SHNUM,
    EH_SHOFF, EH_SHSTRNDX, PH_FILESZ, PH_MEMSZ, PH_OFFSET, PH_TYPE, PH_VADDR, SH_ADDR, SH_FLAGS,
};
use e9elf::types::{EHDR_SIZE, PHDR_SIZE, PT_NOTE, SHDR_SIZE, SHF_EXECINSTR};

/// Names of every corpus entry, in generation order.
pub const NAMES: [&str; 14] = [
    "trunc-ehdr",
    "trunc-phdrs",
    "phnum-bomb",
    "shnum-bomb",
    "overlap-phdrs",
    "vaddr-wrap",
    "offset-oob",
    "memsz-bomb",
    "shstrndx-oob",
    "note-wrap",
    "text-wrap",
    "phnum-max",
    "overlap-congruent",
    "vaddr-incongruent",
];

/// Offset of program header `i` of the (well-formed) baseline.
fn phdr(bytes: &[u8], i: u16) -> usize {
    phdr_at(bytes, i).expect("baseline program header")
}

/// Offset of the (well-formed) baseline's executable section header:
/// its `.text`.
fn text_shdr(bytes: &[u8]) -> usize {
    let shoff = read64(bytes, EH_SHOFF) as usize;
    (0..usize::from(read16(bytes, EH_SHNUM)))
        .map(|i| shoff + i * SHDR_SIZE)
        .find(|&off| read64(bytes, off + SH_FLAGS) & SHF_EXECINSTR != 0)
        .expect("baseline .text section header")
}

/// Generate the corpus entry `name`, or `None` for an unknown name.
pub fn generate(name: &str) -> Option<Vec<u8>> {
    let base = baseline_elf();
    let phnum = read16(&base, EH_PHNUM);
    let mut b = base.clone();
    match name {
        // File header cut mid-way: every header field read must bounds-check.
        "trunc-ehdr" => b.truncate(45),
        // Table truncated mid-entry: phnum promises more than the file holds.
        "trunc-phdrs" => b.truncate(EHDR_SIZE + PHDR_SIZE + PHDR_SIZE / 2),
        // 65535 program headers in a file a few KiB long.
        "phnum-bomb" => put16(&mut b, EH_PHNUM, 0xFFFF),
        // Same bomb on the section-header table.
        "shnum-bomb" => put16(&mut b, EH_SHNUM, 0xFFFF),
        // Second PT_LOAD remapped on top of the first, off by one page.
        "overlap-phdrs" => {
            if phnum >= 2 {
                let src = phdr(&b, 0);
                let dst = phdr(&b, 1);
                let copy = b[src..src + PHDR_SIZE].to_vec();
                b[dst..dst + PHDR_SIZE].copy_from_slice(&copy);
                let v = read64(&b, dst + PH_VADDR);
                put64(&mut b, dst + PH_VADDR, v + 0x1000);
            }
        }
        // Load address at the top of the address space: vaddr + memsz wraps.
        "vaddr-wrap" => {
            let off = phdr(&b, 0);
            put64(&mut b, off + PH_VADDR, u64::MAX - 0xFFF);
        }
        // Segment file range entirely past EOF.
        "offset-oob" => {
            let off = phdr(&b, 0);
            put64(&mut b, off + PH_OFFSET, 0xFFFF_FFFF);
        }
        // Near-2^63 memory size: page-table and allocation bomb.
        "memsz-bomb" => {
            let off = phdr(&b, 0);
            put64(&mut b, off + PH_MEMSZ, u64::MAX / 2);
        }
        // String-table index pointing at a section that does not exist.
        "shstrndx-oob" => put16(&mut b, EH_SHSTRNDX, 0xFFFF),
        // PT_NOTE whose file range wraps u64.
        "note-wrap" => {
            let off = phdr(&b, phnum - 1);
            put32(&mut b, off + PH_TYPE, PT_NOTE);
            put64(&mut b, off + PH_OFFSET, u64::MAX - 4);
            put64(&mut b, off + PH_FILESZ, 64);
        }
        // `.text` placed 9 bytes below 2^64: its addresses wrap, while
        // the load segments stay well-formed.
        "text-wrap" => {
            let off = text_shdr(&b);
            put64(&mut b, off + SH_ADDR, u64::MAX - 8);
        }
        // The program-header table moved to the end of the file and padded
        // with PT_NULL entries to 65,535, the most `e_phnum` can count: a
        // well-formed image whose rewrite has no room for its own headers.
        "phnum-max" => {
            let phoff = read64(&b, EH_PHOFF) as usize;
            let table = b[phoff..phoff + usize::from(phnum) * PHDR_SIZE].to_vec();
            let at = b.len().next_multiple_of(8);
            b.resize(at, 0);
            b.extend_from_slice(&table);
            b.resize(at + 0xFFFF * PHDR_SIZE, 0);
            put64(&mut b, EH_PHOFF, at as u64);
            put16(&mut b, EH_PHNUM, 0xFFFF);
        }
        // The header PT_LOAD moved onto the text's page: both segments
        // are page-congruent, but they map that page from different file
        // pages (offset 0 and 0x1000), so a loader shows one segment's
        // bytes where a reader through the other finds different ones.
        "overlap-congruent" => {
            let off = phdr(&b, 0);
            put64(&mut b, off + PH_VADDR, 0x401000);
        }
        // A copy of the text PT_LOAD, appended to the table, at p_vaddr
        // 0x401169 with p_offset 0x1000: the page offsets differ, so no
        // loader can map it as the table says.
        "vaddr-incongruent" => {
            let text = phdr(&b, 1);
            let copy = b[text..text + PHDR_SIZE].to_vec();
            let at = phdr(&b, phnum);
            b[at..at + PHDR_SIZE].copy_from_slice(&copy);
            put64(&mut b, at + PH_VADDR, 0x401169);
            put16(&mut b, EH_PHNUM, phnum + 1);
        }
        _ => return None,
    }
    Some(b)
}

/// Every corpus entry as `(name, bytes)`.
pub fn all() -> Vec<(&'static str, Vec<u8>)> {
    NAMES
        .iter()
        .map(|n| (*n, generate(n).expect("known name")))
        .collect()
}

/// Corpus entries that a correct parser/loader **must reject** (the rest
/// may degrade gracefully — e.g. a bad `e_shstrndx` only costs section
/// names).
pub const MUST_REJECT: [&str; 8] = [
    "trunc-ehdr",
    "trunc-phdrs",
    "phnum-bomb",
    "vaddr-wrap",
    "offset-oob",
    "memsz-bomb",
    "overlap-congruent",
    "vaddr-incongruent",
];
