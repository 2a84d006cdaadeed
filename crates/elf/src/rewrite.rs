//! Output-binary construction: in-place patches + appended segments.
//!
//! Following the paper's §5.1, the rewriter never moves existing data:
//!
//! * patched instruction bytes are overwritten **in place**;
//! * new data (trampolines, loader, mapping table) is **appended** at the
//!   end of the file;
//! * the program-header table is *relocated to the file tail* so new
//!   `PT_LOAD` entries can be added without shifting any existing offset;
//! * the entry point is redirected to the injected loader, which maps the
//!   appended trampoline blobs before tail-jumping to the original entry.

use crate::image::{Elf, ElfError};
use crate::types::*;
use crate::{page_ceil, PAGE_SIZE};

/// Builds the patched output binary from a parsed input [`Elf`].
#[derive(Debug)]
pub struct Patcher {
    elf: Elf,
    /// Appended region (starts at `page_ceil(original file size)`).
    appended: Vec<u8>,
    append_base: u64,
    new_phdrs: Vec<Phdr>,
    new_entry: Option<u64>,
}

impl Patcher {
    /// Start patching `elf`.
    pub fn new(elf: Elf) -> Patcher {
        let append_base = page_ceil(elf.file_size() as u64);
        Patcher {
            elf,
            appended: Vec::new(),
            append_base,
            new_phdrs: Vec::new(),
            new_entry: None,
        }
    }

    /// The underlying (in-place patched) input image.
    pub fn elf(&self) -> &Elf {
        &self.elf
    }

    /// Overwrite bytes of an existing segment in place.
    ///
    /// # Errors
    ///
    /// Fails if `vaddr..vaddr+bytes.len()` is not file-backed.
    pub fn write_code(&mut self, vaddr: u64, bytes: &[u8]) -> Result<(), ElfError> {
        self.elf.write_at(vaddr, bytes)
    }

    /// File offset the next appended byte will land at if aligned to
    /// `align`.
    pub fn next_append_offset(&self, align: u64) -> u64 {
        let cur = self.append_base + self.appended.len() as u64;
        cur.next_multiple_of(align.max(1))
    }

    /// Append a raw blob (not described by any program header — the loader
    /// maps it explicitly). Returns its file offset.
    pub fn append_blob(&mut self, bytes: &[u8], align: u64) -> u64 {
        let off = self.next_append_offset(align);
        let pad = off - (self.append_base + self.appended.len() as u64);
        self.appended.extend(std::iter::repeat_n(0, pad as usize));
        self.appended.extend_from_slice(bytes);
        off
    }

    /// Append `bytes` as a new `PT_LOAD` segment mapped at `vaddr` with
    /// permission `flags` (`PF_*`). Used for the loader stub and any
    /// conventionally-mapped instrumentation segment. The file offset is
    /// made page-congruent with `vaddr`.
    pub fn add_segment(&mut self, vaddr: u64, bytes: &[u8], flags: u32) -> u64 {
        let off = {
            let cur = self.append_base + self.appended.len() as u64;
            let base = page_ceil(cur);
            base + vaddr % PAGE_SIZE
        };
        let pad = off - (self.append_base + self.appended.len() as u64);
        self.appended.extend(std::iter::repeat_n(0, pad as usize));
        self.appended.extend_from_slice(bytes);
        self.new_phdrs.push(Phdr {
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

    /// Record a `PT_NOTE`-style metadata segment pointing at an existing
    /// appended blob (e.g. the patch manifest).
    pub fn add_note(&mut self, offset: u64, size: u64) {
        self.new_phdrs.push(Phdr {
            p_type: PT_NOTE,
            p_flags: PF_R,
            p_offset: offset,
            p_vaddr: 0,
            p_filesz: size,
            p_memsz: 0,
            p_align: 1,
        });
    }

    /// Redirect the entry point (to the injected loader).
    pub fn set_entry(&mut self, vaddr: u64) {
        self.new_entry = Some(vaddr);
    }

    /// Total output file size so far (before the relocated phdr table).
    pub fn current_size(&self) -> u64 {
        self.append_base + self.appended.len() as u64
    }

    /// Emit the output binary.
    pub fn finish(self) -> Vec<u8> {
        let orig_len = self.elf.file_size();
        let ehdr = self.elf.ehdr;
        let old_phdrs = self.elf.phdrs.clone();
        let mut out = self.elf.into_bytes();

        // Pad original to the append base, then the appended region.
        out.resize(self.append_base as usize, 0);
        out.extend_from_slice(&self.appended);
        debug_assert_eq!(
            out.len() as u64,
            self.append_base + self.appended.len() as u64
        );
        let _ = orig_len;

        // Relocated program-header table at the file tail.
        while !out.len().is_multiple_of(8) {
            out.push(0);
        }
        let new_phoff = out.len() as u64;
        let mut phnum = 0u16;
        for p in old_phdrs.iter().chain(self.new_phdrs.iter()) {
            out.extend_from_slice(&p.to_bytes());
            phnum += 1;
        }

        // Patch the file header: new phoff/phnum/entry.
        out[32..40].copy_from_slice(&new_phoff.to_le_bytes());
        out[56..58].copy_from_slice(&phnum.to_le_bytes());
        let entry = self.new_entry.unwrap_or(ehdr.e_entry);
        out[24..32].copy_from_slice(&entry.to_le_bytes());
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
        let mut p = Patcher::new(sample());
        p.write_code(0x401000, &[0xE9, 1, 2, 3, 4]).unwrap();
        let out = p.finish();
        let elf = Elf::parse(&out).unwrap();
        assert_eq!(elf.slice_at(0x401000, 5).unwrap(), &[0xE9, 1, 2, 3, 4]);
    }

    #[test]
    fn appended_segment_parses_back() {
        let mut p = Patcher::new(sample());
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
        let mut p = Patcher::new(sample());
        let o1 = p.append_blob(&[1, 2, 3], 4096);
        let o2 = p.append_blob(&[4, 5], 4096);
        assert_eq!(o1 % 4096, 0);
        assert_eq!(o2 % 4096, 0);
        assert!(o2 > o1);
        let out = p.finish();
        assert_eq!(&out[o1 as usize..o1 as usize + 3], &[1, 2, 3]);
        assert_eq!(&out[o2 as usize..o2 as usize + 2], &[4, 5]);
    }

    #[test]
    fn original_bytes_never_move() {
        let elf = sample();
        let text_off = elf.vaddr_to_offset(0x401000).unwrap();
        let mut p = Patcher::new(elf);
        p.append_blob(&[0xFF; 8192], 4096);
        p.add_segment(0x71000000, &[0x90; 10], PF_R | PF_X);
        let out = p.finish();
        let reparsed = Elf::parse(&out).unwrap();
        assert_eq!(reparsed.vaddr_to_offset(0x401000).unwrap(), text_off);
    }

    #[test]
    fn segment_file_offset_congruent() {
        let mut p = Patcher::new(sample());
        let off = p.add_segment(0x70000123, &[0xAA; 4], PF_R);
        assert_eq!(off % PAGE_SIZE, 0x123);
    }

    #[test]
    fn note_segment_recorded() {
        let mut p = Patcher::new(sample());
        let off = p.append_blob(b"manifest", 8);
        p.add_note(off, 8);
        let out = p.finish();
        let elf = Elf::parse(&out).unwrap();
        assert!(elf
            .phdrs
            .iter()
            .any(|ph| ph.p_type == PT_NOTE && ph.p_offset == off));
    }
}
