//! Output-binary construction: in-place patches + appended segments.
//!
//! Following the paper's §5.1, the rewriter never moves existing data:
//!
//! * patched instruction bytes are overwritten **in place**;
//! * new data (trampolines, loader, mapping table) is **appended** after
//!   the image, from the first page boundary past its end;
//! * the program-header table is *relocated to the file tail* so new
//!   `PT_LOAD` entries can be added without shifting any existing offset;
//! * the entry point is redirected to the injected loader, which maps the
//!   appended trampoline blocks before tail-jumping to the original entry.
//!
//! The [`Patcher`] builds the file in one buffer: it takes over the
//! image's bytes, and everything it appends lands there directly.

use crate::image::Elf;
use crate::types::*;
use crate::{page_ceil, PAGE_SIZE};

/// Builds the patched output binary from a parsed input [`Elf`].
#[derive(Debug)]
pub struct Patcher {
    /// The output file so far: the image, then everything appended.
    out: Vec<u8>,
    /// The image's program headers, then the new ones.
    phdrs: Vec<Phdr>,
    entry: u64,
}

impl Patcher {
    /// Start patching `elf`, reserving room for `reserve` more bytes past
    /// the image's page-aligned end. When `reserve` covers every append
    /// and the relocated program-header table, the output never
    /// reallocates.
    pub fn new(elf: Elf, reserve: usize) -> Patcher {
        let (phdrs, entry) = (elf.phdrs.clone(), elf.ehdr.e_entry);
        let mut out = elf.into_bytes();
        let append_base = page_ceil(out.len() as u64) as usize;
        out.reserve_exact(append_base - out.len() + reserve);
        out.resize(append_base, 0);
        Patcher { out, phdrs, entry }
    }

    /// Pad the output with zeros up to file offset `off`.
    fn pad_to(&mut self, off: u64) {
        self.out.resize(off as usize, 0);
    }

    /// Append `bytes` at file offset `off`, at or past the current end.
    fn append_at(&mut self, off: u64, bytes: &[u8]) {
        self.pad_to(off);
        self.out.extend_from_slice(bytes);
    }

    /// Append `len` zero bytes at the next `align`-aligned offset, not
    /// described by any program header (the loader maps them explicitly).
    /// Returns their file offset and the region, for the caller to fill.
    pub fn append_zeroed(&mut self, len: u64, align: u64) -> (u64, &mut [u8]) {
        let off = (self.out.len() as u64).next_multiple_of(align.max(1));
        self.pad_to(off + len);
        (off, &mut self.out[off as usize..])
    }

    /// Append `bytes` as a new `PT_LOAD` segment mapped at `vaddr` with
    /// permission `flags` (`PF_*`). Used for the loader stub and any
    /// conventionally-mapped instrumentation segment. The file offset is
    /// made page-congruent with `vaddr`.
    pub fn add_segment(&mut self, vaddr: u64, bytes: &[u8], flags: u32) -> u64 {
        let off = page_ceil(self.out.len() as u64) + vaddr % PAGE_SIZE;
        self.append_at(off, bytes);
        self.phdrs.push(Phdr {
            p_type: PT_LOAD,
            p_flags: flags,
            p_offset: off,
            p_vaddr: vaddr,
            p_filesz: bytes.len() as u64,
            p_memsz: bytes.len() as u64,
            p_align: PAGE_SIZE,
        });
        off
    }

    /// Append `bytes` 8-aligned as a `PT_NOTE`-style metadata segment
    /// (e.g. the patch manifest). Returns its file offset.
    pub fn add_note(&mut self, bytes: &[u8]) -> u64 {
        let off = (self.out.len() as u64).next_multiple_of(8);
        self.append_at(off, bytes);
        self.phdrs.push(Phdr {
            p_type: PT_NOTE,
            p_flags: PF_R,
            p_offset: off,
            p_vaddr: 0,
            p_filesz: bytes.len() as u64,
            p_memsz: 0,
            p_align: 1,
        });
        off
    }

    /// Redirect the entry point (to the injected loader).
    pub fn set_entry(&mut self, vaddr: u64) {
        self.entry = vaddr;
    }

    /// Emit the output binary: the program-header table goes 8-aligned at
    /// the file tail, and the file header points at it.
    pub fn finish(mut self) -> Vec<u8> {
        let phoff = (self.out.len() as u64).next_multiple_of(8);
        self.pad_to(phoff);
        for p in &self.phdrs {
            self.out.extend_from_slice(&p.to_bytes());
        }
        let mut out = self.out;
        out[32..40].copy_from_slice(&phoff.to_le_bytes());
        out[56..58].copy_from_slice(&(self.phdrs.len() as u16).to_le_bytes());
        out[24..32].copy_from_slice(&self.entry.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ElfBuilder;

    fn sample() -> Elf {
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0x90, 0x90, 0x90, 0x90, 0xC3], 0x401000);
        b.entry(0x401000);
        Elf::parse(&b.build()).unwrap()
    }

    #[test]
    fn in_place_patch_survives_finish() {
        let mut elf = sample();
        elf.write_at(0x401000, &[0xE9, 1, 2, 3, 4]).unwrap();
        let out = Patcher::new(elf, 0).finish();
        let elf = Elf::parse(&out).unwrap();
        assert_eq!(elf.slice_at(0x401000, 5).unwrap(), &[0xE9, 1, 2, 3, 4]);
    }

    #[test]
    fn appended_segment_parses_back() {
        let mut p = Patcher::new(sample(), 0);
        let code = vec![0xCC; 64];
        p.add_segment(0x70000000, &code, PF_R | PF_X);
        p.set_entry(0x70000000);
        let out = p.finish();
        let elf = Elf::parse(&out).unwrap();
        assert_eq!(elf.entry(), 0x70000000);
        assert_eq!(elf.slice_at(0x70000000, 64).unwrap(), &code[..]);
        // Original segment still intact.
        assert_eq!(elf.slice_at(0x401004, 1).unwrap(), &[0xC3]);
    }

    #[test]
    fn blob_offsets_are_aligned() {
        let mut p = Patcher::new(sample(), 0);
        let (o1, r1) = p.append_zeroed(3, 4096);
        r1.copy_from_slice(&[1, 2, 3]);
        let (o2, r2) = p.append_zeroed(4, 4096);
        r2[..2].copy_from_slice(&[4, 5]);
        assert_eq!(o1 % 4096, 0);
        assert_eq!(o2 % 4096, 0);
        assert!(o2 > o1);
        let out = p.finish();
        assert_eq!(&out[o1 as usize..o1 as usize + 3], &[1, 2, 3]);
        assert_eq!(&out[o2 as usize..o2 as usize + 4], &[4, 5, 0, 0]);
    }

    #[test]
    fn original_bytes_never_move() {
        let elf = sample();
        let text_off = elf.vaddr_to_offset(0x401000).unwrap();
        let mut p = Patcher::new(elf, 0);
        p.append_zeroed(8192, 4096).1.fill(0xFF);
        p.add_segment(0x71000000, &[0x90; 10], PF_R | PF_X);
        let out = p.finish();
        let reparsed = Elf::parse(&out).unwrap();
        assert_eq!(reparsed.vaddr_to_offset(0x401000).unwrap(), text_off);
    }

    #[test]
    fn segment_file_offset_congruent() {
        let mut p = Patcher::new(sample(), 0);
        let off = p.add_segment(0x70000123, &[0xAA; 4], PF_R);
        assert_eq!(off % PAGE_SIZE, 0x123);
    }

    #[test]
    fn note_segment_recorded() {
        let mut p = Patcher::new(sample(), 0);
        p.add_segment(0x70000001, &[0xAA; 3], PF_R);
        let off = p.add_note(b"manifest");
        assert_eq!(off % 8, 0);
        let out = p.finish();
        assert_eq!(&out[off as usize..off as usize + 8], b"manifest");
        let elf = Elf::parse(&out).unwrap();
        assert!(elf
            .phdrs
            .iter()
            .any(|ph| ph.p_type == PT_NOTE && ph.p_offset == off));
    }

    #[test]
    fn reserved_output_never_reallocates() {
        let elf = sample();
        let phdrs = elf.phdrs.len() + 2;
        // Blocks, a segment with its padding, a note with its padding, and
        // the aligned phdr table.
        let reserve = 2 * 4096 + (9 + 2 * PAGE_SIZE as usize) + (16 + 8) + (phdrs * PHDR_SIZE + 8);
        let mut p = Patcher::new(elf, reserve);
        let capacity = p.out.capacity();
        p.append_zeroed(2 * 4096, 4096).1.fill(0x11);
        p.add_segment(0x70000fff, &[0xAA; 9], PF_R | PF_X);
        p.add_note(&[7; 16]);
        let out = p.finish();
        assert_eq!(out.capacity(), capacity);
    }
}
