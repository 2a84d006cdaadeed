//! Structured mutations for ELF images.
//!
//! The grammar targets the places a naive parser panics: header-table
//! counts and offsets (slice OOB / allocation bombs), segment size fields
//! (`usize` wrap, page-table bombs), truncation (partial reads) and
//! overlap (inconsistent tables), plus symbol-table damage (overflowing
//! `st_name`, bogus `st_value`, truncated string tables) aimed at the
//! hook planner's resolver. Raw byte flips catch whatever the structured
//! moves miss.

use e9elf::symbols::{Symbol, SYM_SIZE};
use e9elf::types::{EHDR_SIZE, PHDR_SIZE};
use e9rng::StdRng;

// ELF64 file-header field offsets (bytes); also used by `corpus`.
const EH_ENTRY: usize = 24;
pub(crate) const EH_PHOFF: usize = 32;
pub(crate) const EH_SHOFF: usize = 40;
pub(crate) const EH_PHNUM: usize = 56;
pub(crate) const EH_SHNUM: usize = 60;
pub(crate) const EH_SHSTRNDX: usize = 62;

// Section-header field offsets relative to the header's start.
pub(crate) const SH_FLAGS: usize = 8;
pub(crate) const SH_ADDR: usize = 16;

// Program-header field offsets relative to the header's start.
pub(crate) const PH_TYPE: usize = 0;
pub(crate) const PH_OFFSET: usize = 8;
pub(crate) const PH_VADDR: usize = 16;
pub(crate) const PH_FILESZ: usize = 32;
pub(crate) const PH_MEMSZ: usize = 40;

/// Values chosen to sit on overflow/limit boundaries. Deliberately avoids
/// sizes in the "accepted but huge" range (just under the loader's 1 GiB
/// segment cap) so a campaign case never costs a gigabyte allocation.
const BOMBS64: [u64; 8] = [
    u64::MAX,
    u64::MAX - 1,
    u64::MAX / 2,
    1 << 63,
    1 << 48,
    1 << 32,
    0xFFFF_FFFF,
    0x8000_0000,
];

/// A small, well-formed ET_EXEC image: the campaign baseline. Mutants are
/// derived from a *valid* file so mutations explore the boundary between
/// accept and reject instead of drowning in trivially-bad magic.
pub fn baseline_elf() -> Vec<u8> {
    let code = vec![
        0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0xC3, //
        0x0F, 0x1F, 0x44, 0x00, 0x00, 0x0F, 0x1F, 0x44, 0x00, 0x00,
    ];
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.entry(0x401000);
    b.build()
}

/// The baseline plus a symbol table naming its two functions. Campaigns
/// mutate *this* image: the symbol-table moves need real
/// `.symtab`/`.strtab` bytes to damage, and the hook-planning probe in
/// `elf_case` needs names to resolve. The checked-in hostile corpus stays
/// derived from [`baseline_elf`] so its bytes remain stable.
pub fn baseline_elf_with_symbols() -> Vec<u8> {
    let code = vec![
        0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0xC3, //
        0x0F, 0x1F, 0x44, 0x00, 0x00, 0x0F, 0x1F, 0x44, 0x00, 0x00,
    ];
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    let symbols = [
        Symbol {
            name: "store".into(),
            value: 0x401000,
            size: 3,
        },
        Symbol {
            name: "bump".into(),
            value: 0x401003,
            size: 5,
        },
    ];
    let (symtab, strtab) = e9elf::symbols::encode(&symbols);
    b.note(".symtab", symtab);
    b.note(".strtab", strtab);
    b.entry(0x401000);
    b.build()
}

// Little-endian field access. Writes past the end of a (truncated)
// image are dropped and reads there give 0, so a move applied after an
// earlier truncation degrades to a no-op instead of panicking.

pub(crate) fn put16(bytes: &mut [u8], off: usize, v: u16) {
    if let Some(dst) = bytes.get_mut(off..off + 2) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

pub(crate) fn put32(bytes: &mut [u8], off: usize, v: u32) {
    if let Some(dst) = bytes.get_mut(off..off + 4) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

pub(crate) fn put64(bytes: &mut [u8], off: usize, v: u64) {
    if let Some(dst) = bytes.get_mut(off..off + 8) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

pub(crate) fn read64(bytes: &[u8], off: usize) -> u64 {
    bytes
        .get(off..off + 8)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
        .unwrap_or(0)
}

pub(crate) fn read16(bytes: &[u8], off: usize) -> u16 {
    bytes
        .get(off..off + 2)
        .and_then(|b| b.try_into().ok())
        .map(u16::from_le_bytes)
        .unwrap_or(0)
}

/// Byte offset of program header `i`, if fully inside the image.
pub(crate) fn phdr_at(bytes: &[u8], i: u16) -> Option<usize> {
    let phoff = usize::try_from(read64(bytes, EH_PHOFF)).ok()?;
    let off = phoff.checked_add(usize::from(i).checked_mul(PHDR_SIZE)?)?;
    (off.checked_add(PHDR_SIZE)? <= bytes.len()).then_some(off)
}

/// Apply one to three structured mutations (plus occasional raw flips) to
/// a copy of `base`. Deterministic in `rng`.
pub fn mutate(rng: &mut StdRng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    let moves = rng.gen_range(1..=3u32);
    for _ in 0..moves {
        match rng.gen_range(0..11u32) {
            0 => truncate(rng, &mut bytes),
            1 => flip_bytes(rng, &mut bytes),
            2 => inflate_counts(rng, &mut bytes),
            3 => inflate_offsets(rng, &mut bytes),
            4 => inflate_sizes(rng, &mut bytes),
            5 => inject_overlap(rng, &mut bytes),
            6 => wrap_vaddr(rng, &mut bytes),
            7 => scramble_header(rng, &mut bytes),
            8 => sym_name_bomb(rng, &mut bytes),
            9 => sym_value_bomb(rng, &mut bytes),
            _ => strtab_damage(rng, &mut bytes),
        }
    }
    bytes
}

/// Cut the file at a random point; biased toward structurally interesting
/// prefixes (inside the file header, inside the header tables).
fn truncate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    let cut = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(0..EHDR_SIZE.min(bytes.len())),
        1 => rng.gen_range(0..(EHDR_SIZE + 4 * PHDR_SIZE).min(bytes.len())),
        _ => rng.gen_range(0..bytes.len()),
    };
    bytes.truncate(cut);
}

/// XOR up to 64 random bytes with random masks.
fn flip_bytes(rng: &mut StdRng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    let n = rng.gen_range(1..=64u32);
    for _ in 0..n {
        let i = rng.gen_range(0..bytes.len());
        // Non-zero mask so every flip actually changes the byte.
        bytes[i] ^= ((rng.next_u32() % 255) + 1) as u8;
    }
}

/// Header-count bombs: `e_phnum` / `e_shnum` / `e_shstrndx` far beyond
/// the tables actually present.
fn inflate_counts(rng: &mut StdRng, bytes: &mut [u8]) {
    let v = *rng.choose(&[0xFFFFu16, 0x8000, 0x7FFF, 1000]).unwrap();
    match rng.gen_range(0..3u32) {
        0 => put16(bytes, EH_PHNUM, v),
        1 => put16(bytes, EH_SHNUM, v),
        _ => put16(bytes, EH_SHSTRNDX, v),
    }
}

/// Table/entry offset bombs: `e_phoff` / `e_shoff` / `p_offset` set past
/// EOF or near `u64::MAX` (wrap bait).
fn inflate_offsets(rng: &mut StdRng, bytes: &mut [u8]) {
    let v = *rng.choose(&BOMBS64).unwrap();
    match rng.gen_range(0..3u32) {
        0 => put64(bytes, EH_PHOFF, v),
        1 => put64(bytes, EH_SHOFF, v),
        _ => {
            let phnum = read16(bytes, EH_PHNUM);
            if phnum > 0 {
                let i = (rng.gen_range(0..u32::from(phnum)) & 0xFFFF) as u16;
                if let Some(off) = phdr_at(bytes, i) {
                    put64(bytes, off + PH_OFFSET, v);
                }
            }
        }
    }
}

/// Segment-size bombs: `p_filesz` / `p_memsz` boundary values.
fn inflate_sizes(rng: &mut StdRng, bytes: &mut [u8]) {
    let phnum = read16(bytes, EH_PHNUM);
    if phnum == 0 {
        return;
    }
    let i = (rng.gen_range(0..u32::from(phnum)) & 0xFFFF) as u16;
    if let Some(off) = phdr_at(bytes, i) {
        let v = *rng.choose(&BOMBS64).unwrap();
        if rng.gen_bool(0.5) {
            put64(bytes, off + PH_FILESZ, v);
        } else {
            put64(bytes, off + PH_MEMSZ, v);
        }
    }
}

/// Copy one program header over another, then nudge the copy's `p_vaddr`
/// into the victim's range: two PT_LOADs claiming the same pages.
fn inject_overlap(rng: &mut StdRng, bytes: &mut [u8]) {
    let phnum = read16(bytes, EH_PHNUM);
    if phnum < 2 {
        return;
    }
    let a = (rng.gen_range(0..u32::from(phnum)) & 0xFFFF) as u16;
    let b = (rng.gen_range(0..u32::from(phnum)) & 0xFFFF) as u16;
    if a == b {
        return;
    }
    if let (Some(src), Some(dst)) = (phdr_at(bytes, a), phdr_at(bytes, b)) {
        let copy: Vec<u8> = bytes[src..src + PHDR_SIZE].to_vec();
        bytes[dst..dst + PHDR_SIZE].copy_from_slice(&copy);
        let vaddr = read64(bytes, dst + PH_VADDR);
        let nudge = rng.gen_range(0..0x2000u64);
        put64(bytes, dst + PH_VADDR, vaddr.wrapping_add(nudge));
    }
}

/// Load addresses near the top of the address space: `vaddr + memsz` (and
/// the loader's page-rounding) would wrap in unchecked arithmetic.
fn wrap_vaddr(rng: &mut StdRng, bytes: &mut [u8]) {
    let phnum = read16(bytes, EH_PHNUM);
    if phnum == 0 {
        return;
    }
    let i = (rng.gen_range(0..u32::from(phnum)) & 0xFFFF) as u16;
    if let Some(off) = phdr_at(bytes, i) {
        let high = u64::MAX - rng.gen_range(0..0x10_000u64);
        put64(bytes, off + PH_VADDR, high & !0xFFF);
    }
}

/// File-offset span of a named section, if the image still parses and the
/// span sits fully inside the file. Symbol moves become no-ops once an
/// earlier move has destroyed the section headers — the mutant is already
/// hostile enough.
fn section_span(bytes: &[u8], name: &str) -> Option<(usize, usize)> {
    let elf = e9elf::image::Elf::parse(bytes).ok()?;
    let s = elf.section(name)?;
    let off = usize::try_from(s.sh_offset).ok()?;
    let len = usize::try_from(s.sh_size).ok()?;
    (off.checked_add(len)? <= bytes.len()).then_some((off, len))
}

/// `st_name` bombs: point a random symbol's name offset far past the end
/// of the string table. The resolver must answer "no such symbol" (or
/// skip the record), never index out of bounds.
fn sym_name_bomb(rng: &mut StdRng, bytes: &mut [u8]) {
    const NAME_BOMBS: [u32; 5] = [u32::MAX, u32::MAX - 1, 0x8000_0000, 0x7FFF_FFFF, 1000];
    let Some((off, len)) = section_span(bytes, ".symtab") else {
        return;
    };
    let n = len / SYM_SIZE;
    if n == 0 {
        return;
    }
    let i = rng.gen_range(0..n);
    put32(bytes, off + i * SYM_SIZE, *rng.choose(&NAME_BOMBS).unwrap());
}

/// `st_value` bombs: a symbol whose address sits on an overflow boundary.
/// The hook planner lowers `st_value` into trampoline math (displaced
/// ranges, `vaddr + size` extents); every step must be checked.
fn sym_value_bomb(rng: &mut StdRng, bytes: &mut [u8]) {
    let Some((off, len)) = section_span(bytes, ".symtab") else {
        return;
    };
    let n = len / SYM_SIZE;
    if n == 0 {
        return;
    }
    let i = rng.gen_range(0..n);
    put64(
        bytes,
        off + i * SYM_SIZE + 8,
        *rng.choose(&BOMBS64).unwrap(),
    );
}

/// String-table damage: either cut the file mid-`.strtab` (names run off
/// the end of the file) or overwrite the NUL terminators (names become
/// unterminated). Both bait unbounded `strlen`-style scans.
fn strtab_damage(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let Some((off, len)) = section_span(bytes, ".strtab") else {
        return;
    };
    if len == 0 {
        return;
    }
    if rng.gen_bool(0.5) {
        bytes.truncate(off + rng.gen_range(0..len));
    } else {
        for b in &mut bytes[off..off + len] {
            if *b == 0 {
                *b = 0xFF;
            }
        }
    }
}

/// Random damage across the file header (magic, class, type, entry,
/// phdr self-description) — the "is this even an ELF" tier.
fn scramble_header(rng: &mut StdRng, bytes: &mut [u8]) {
    match rng.gen_range(0..4u32) {
        0 => {
            // Corrupt the identification bytes.
            let i = rng.gen_range(0..16usize.min(bytes.len().max(1)));
            if let Some(b) = bytes.get_mut(i) {
                *b ^= 1 + (rng.next_u32() & 0x7F) as u8;
            }
        }
        1 => put64(bytes, EH_ENTRY, *rng.choose(&BOMBS64).unwrap()),
        2 => {
            // Bogus phentsize/shentsize.
            let v = (rng.next_u32() & 0xFFFF) as u16;
            put16(bytes, if rng.gen_bool(0.5) { 54 } else { 58 }, v);
        }
        _ => {
            // PT_LOAD → random type or vice versa on a random phdr.
            let phnum = read16(bytes, EH_PHNUM);
            if phnum > 0 {
                let i = (rng.gen_range(0..u32::from(phnum)) & 0xFFFF) as u16;
                if let Some(off) = phdr_at(bytes, i) {
                    let v = rng.next_u32();
                    if let Some(dst) = bytes.get_mut(off + PH_TYPE..off + PH_TYPE + 4) {
                        dst.copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
    }
}
