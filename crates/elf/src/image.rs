//! Parsed ELF image with virtual-address ⇄ file-offset translation and
//! in-place byte patching.
//!
//! [`Elf::parse`] is the one place that decides whether a `PT_LOAD`
//! table is loadable. It refuses a `PT_LOAD` whose file range runs past
//! the input, whose `p_filesz` exceeds `p_memsz`, whose page-rounded
//! memory range wraps past 2^64, or whose `p_vaddr ≢ p_offset` modulo
//! [`PAGE_SIZE`]; and two that share a page, unless both map it with the
//! same `p_vaddr − p_offset`, neither is writable, and neither zero-fills
//! part of a shared page. So a loader that maps in table order (the
//! kernel's, e9vm's) shows at each file-backed address the byte
//! [`Elf::slice_at`] reads there; e9vm and the planner keep no copy.

use crate::types::*;
use crate::{page_ceil, page_floor, PAGE_SIZE};
use std::fmt;

/// Errors from [`Elf::parse`] and image accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// The file is not a 64-bit little-endian x86-64 ELF.
    BadMagic,
    /// A header or table lies outside the file.
    Truncated(&'static str),
    /// A virtual address is not mapped by any file-backed segment.
    Unmapped(u64),
    /// Unsupported object type (only `ET_EXEC`/`ET_DYN` are handled).
    BadType(u16),
    /// A `PT_LOAD` breaks a rule of the [module doc](self).
    BadSegment {
        /// The segment's `p_vaddr`.
        vaddr: u64,
        /// Which rule it breaks.
        reason: &'static str,
    },
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::BadMagic => write!(f, "not a 64-bit little-endian x86-64 ELF"),
            ElfError::Truncated(what) => write!(f, "truncated ELF: {what} out of bounds"),
            ElfError::Unmapped(a) => write!(f, "virtual address {a:#x} is not file-backed"),
            ElfError::BadType(t) => write!(f, "unsupported ELF type {t}"),
            ElfError::BadSegment { vaddr, reason } => write!(f, "PT_LOAD at {vaddr:#x}: {reason}"),
        }
    }
}

impl std::error::Error for ElfError {}

/// A parsed ELF binary: raw file bytes plus decoded headers.
///
/// All patching is performed on the retained byte image; existing data is
/// never moved (the paper's in-place rewriting discipline, §5.1).
#[derive(Debug, Clone)]
pub struct Elf {
    /// Decoded file header.
    pub ehdr: Ehdr,
    /// Program headers in file order.
    pub phdrs: Vec<Phdr>,
    /// Section headers with resolved names (may be empty for fully
    /// stripped binaries).
    pub sections: Vec<Section>,
    data: Vec<u8>,
}

impl Elf {
    /// Parse an ELF64 binary.
    ///
    /// # Errors
    ///
    /// Fails on bad magic/class/machine, truncated header tables, or a
    /// `PT_LOAD` table a loader would not map as [`Elf::slice_at`] reads
    /// it ([`ElfError::BadSegment`]). Section headers are optional and
    /// unchecked. Every read is bounds-checked: arbitrary input yields a
    /// typed [`ElfError`], never a panic (the hostile-input corpus and
    /// `e9faultgen` enforce this).
    pub fn parse(bytes: &[u8]) -> Result<Elf, ElfError> {
        if bytes.len() < 6
            || bytes[0..4] != ELF_MAGIC
            || bytes[4] != ELFCLASS64
            || bytes[5] != ELFDATA2LSB
        {
            return Err(ElfError::BadMagic);
        }
        if bytes.len() < EHDR_SIZE {
            // Right magic, but the file header itself is cut short.
            return Err(ElfError::Truncated("file header"));
        }
        let u16le = |o: usize| -> Result<u16, ElfError> {
            bytes
                .get(o..o + 2)
                .and_then(|b| b.try_into().ok())
                .map(u16::from_le_bytes)
                .ok_or(ElfError::Truncated("file header"))
        };
        let u64le = |o: usize| -> Result<u64, ElfError> {
            bytes
                .get(o..o + 8)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or(ElfError::Truncated("file header"))
        };
        let e_type = u16le(16)?;
        if e_type != ET_EXEC && e_type != ET_DYN {
            return Err(ElfError::BadType(e_type));
        }
        let machine = u16le(18)?;
        if machine != EM_X86_64 {
            return Err(ElfError::BadMagic);
        }
        let ehdr = Ehdr {
            e_type,
            e_entry: u64le(24)?,
            e_phoff: u64le(32)?,
            e_shoff: u64le(40)?,
            e_phnum: u16le(56)?,
            e_shnum: u16le(60)?,
            e_shstrndx: u16le(62)?,
        };
        // Program headers. All table arithmetic is checked: a crafted
        // e_phoff/e_phnum must not be able to wrap and alias the header.
        let table_end = |off: u64, count: u16, entry: usize| -> Option<usize> {
            let off = usize::try_from(off).ok()?;
            (count as usize)
                .checked_mul(entry)
                .and_then(|len| off.checked_add(len))
                .filter(|&end| end <= bytes.len())
                .map(|_| off)
        };
        let phoff = table_end(ehdr.e_phoff, ehdr.e_phnum, PHDR_SIZE)
            .ok_or(ElfError::Truncated("program header table"))?;
        let phdrs: Vec<Phdr> = (0..ehdr.e_phnum as usize)
            .map(|i| {
                Phdr::try_from_bytes(&bytes[phoff + i * PHDR_SIZE..phoff + (i + 1) * PHDR_SIZE])
                    .ok_or(ElfError::Truncated("program header"))
            })
            .collect::<Result<_, _>>()?;
        check_load_segments(&phdrs, bytes.len() as u64)?;
        // Section headers (optional).
        let mut sections = Vec::new();
        if ehdr.e_shnum > 0 && ehdr.e_shoff != 0 {
            let shoff = table_end(ehdr.e_shoff, ehdr.e_shnum, SHDR_SIZE)
                .ok_or(ElfError::Truncated("section header table"))?;
            let shdr_at = |i: usize| -> (u32, u32, u64, u64, u64, u64) {
                // In bounds by the table_end check above.
                let b = &bytes[shoff + i * SHDR_SIZE..];
                let name_off = u32::from_le_bytes(b[0..4].try_into().unwrap());
                let sh_type = u32::from_le_bytes(b[4..8].try_into().unwrap());
                let sh_flags = u64::from_le_bytes(b[8..16].try_into().unwrap());
                let sh_addr = u64::from_le_bytes(b[16..24].try_into().unwrap());
                let sh_offset = u64::from_le_bytes(b[24..32].try_into().unwrap());
                let sh_size = u64::from_le_bytes(b[32..40].try_into().unwrap());
                (name_off, sh_type, sh_addr, sh_offset, sh_size, sh_flags)
            };
            // Resolve names through .shstrtab; a bogus or out-of-file
            // shstrndx degrades to empty names rather than failing.
            let strtab: &[u8] = if (ehdr.e_shstrndx as usize) < ehdr.e_shnum as usize {
                let (_, _, _, off, size, _) = shdr_at(ehdr.e_shstrndx as usize);
                usize::try_from(off)
                    .ok()
                    .zip(usize::try_from(size).ok())
                    .and_then(|(off, size)| bytes.get(off..off.checked_add(size)?))
                    .unwrap_or(&[])
            } else {
                &[]
            };
            for i in 0..ehdr.e_shnum as usize {
                let (name_off, sh_type, sh_addr, sh_offset, sh_size, sh_flags) = shdr_at(i);
                let name = strtab
                    .get(name_off as usize..)
                    .and_then(|s| s.split(|&b| b == 0).next())
                    .map(|s| String::from_utf8_lossy(s).into_owned())
                    .unwrap_or_default();
                sections.push(Section {
                    name,
                    sh_type,
                    sh_flags,
                    sh_addr,
                    sh_offset,
                    sh_size,
                });
            }
        }
        Ok(Elf {
            ehdr,
            phdrs,
            sections,
            data: bytes.to_vec(),
        })
    }

    /// Entry-point virtual address.
    #[inline]
    pub fn entry(&self) -> u64 {
        self.ehdr.e_entry
    }

    /// Is this a position-independent executable / shared object?
    #[inline]
    pub fn is_pie(&self) -> bool {
        self.ehdr.e_type == ET_DYN
    }

    /// The raw file image.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// File size in bytes.
    #[inline]
    pub fn file_size(&self) -> usize {
        self.data.len()
    }

    /// Loadable segments only.
    pub fn load_segments(&self) -> impl Iterator<Item = &Phdr> {
        self.phdrs.iter().filter(|p| p.p_type == PT_LOAD)
    }

    /// Translate a virtual address to its file offset through the
    /// file-backed part of a `PT_LOAD` segment.
    ///
    /// # Errors
    ///
    /// [`ElfError::Unmapped`] if no segment's file-backed range covers
    /// `vaddr`.
    pub fn vaddr_to_offset(&self, vaddr: u64) -> Result<u64, ElfError> {
        self.file_range(vaddr, 1).map(|r| r.start as u64)
    }

    /// The file range of `len > 0` bytes at `vaddr`: from the first
    /// segment covering `vaddr`, walk on while the next covering segment
    /// has the same `p_vaddr − p_offset` (parse made any covering one do).
    fn file_range(&self, vaddr: u64, len: usize) -> Result<std::ops::Range<usize>, ElfError> {
        let covering = |v: u64| {
            self.load_segments()
                .find(|p| p.covers_file(v))
                .ok_or(ElfError::Unmapped(v))
        };
        let end = vaddr
            .checked_add(len as u64)
            .ok_or(ElfError::Unmapped(vaddr))?;
        let seg = covering(vaddr)?;
        let delta = seg.p_vaddr.wrapping_sub(seg.p_offset);
        let mut backed_to = seg.p_vaddr + seg.p_filesz;
        while backed_to < end {
            let next = covering(backed_to)?;
            if next.p_vaddr.wrapping_sub(next.p_offset) != delta {
                return Err(ElfError::Unmapped(backed_to));
            }
            backed_to = next.p_vaddr + next.p_filesz;
        }
        let start = vaddr.wrapping_sub(delta) as usize;
        Ok(start..start + len)
    }

    /// Borrow `len` bytes of file-backed data at virtual address `vaddr`:
    /// the bytes a loader maps there (the [module doc](self) says why
    /// every loader that maps in table order agrees).
    ///
    /// # Errors
    ///
    /// Fails if some byte of the range is not file-backed, or if the
    /// bytes' file offsets are not consecutive (a range that runs from
    /// one segment into another mapped elsewhere in the file).
    pub fn slice_at(&self, vaddr: u64, len: usize) -> Result<&[u8], ElfError> {
        if len == 0 {
            return Ok(&[]);
        }
        let range = self.file_range(vaddr, len)?;
        Ok(&self.data[range])
    }

    /// Overwrite file-backed bytes at `vaddr` in place.
    ///
    /// # Errors
    ///
    /// Fails where [`Elf::slice_at`] of the same range would.
    pub fn write_at(&mut self, vaddr: u64, bytes: &[u8]) -> Result<(), ElfError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let range = self.file_range(vaddr, bytes.len())?;
        self.data[range].copy_from_slice(bytes);
        Ok(())
    }

    /// Look up a section by name (e.g. `.text`).
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// The bytes of a named section (file-backed sections only).
    pub fn section_bytes(&self, name: &str) -> Option<&[u8]> {
        let s = self.section(name)?;
        if s.sh_type == SHT_NOBITS {
            return None;
        }
        let off = usize::try_from(s.sh_offset).ok()?;
        let size = usize::try_from(s.sh_size).ok()?;
        self.data.get(off..off.checked_add(size)?)
    }

    /// Lowest and highest+1 virtual addresses of any loadable segment
    /// (memory image extent).
    pub fn vaddr_extent(&self) -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0;
        for p in self.load_segments() {
            lo = lo.min(p.p_vaddr);
            hi = hi.max(p.p_vaddr + p.p_memsz);
        }
        if lo == u64::MAX {
            (0, 0)
        } else {
            (lo, hi)
        }
    }

    /// Consume the image, returning the (possibly patched) file bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }
}

/// Refuse a `PT_LOAD` table that breaks a rule of the [module doc](self),
/// checking page sharing in one sweep: `e_phnum` admits 65,535 headers.
fn check_load_segments(phdrs: &[Phdr], file_len: u64) -> Result<(), ElfError> {
    const LAST_PAGE: u64 = u64::MAX - (PAGE_SIZE - 1);
    let bad = |vaddr, reason| Err(ElfError::BadSegment { vaddr, reason });
    // Page ranges `(lo, hi, vaddr, key)` a loader maps for each segment:
    // its file pages, keyed by `p_vaddr − p_offset` unless it is writable
    // (a private copy), then its last page, keyless if it is zero-filled.
    let mut pieces = Vec::new();
    for p in phdrs.iter().filter(|p| p.p_type == PT_LOAD) {
        let v = p.p_vaddr;
        if p.p_filesz > file_len || p.p_offset > file_len - p.p_filesz {
            return bad(v, "file range runs past the end of the input");
        }
        if p.p_filesz > p.p_memsz {
            return bad(v, "p_filesz exceeds p_memsz");
        }
        if v > LAST_PAGE || p.p_memsz > LAST_PAGE - v {
            return bad(v, "memory range runs past the end of the address space");
        }
        if v % PAGE_SIZE != p.p_offset % PAGE_SIZE {
            return bad(v, "p_vaddr and p_offset differ modulo the page size");
        }
        let (zero, hi) = (page_floor(v + p.p_filesz), page_ceil(v + p.p_memsz));
        let key = (p.p_flags & PF_W == 0).then(|| v.wrapping_sub(p.p_offset));
        pieces.push((page_floor(v), zero, v, key));
        pieces.push((zero, hi, v, key.filter(|_| p.p_memsz == p.p_filesz)));
    }
    pieces.retain(|&(lo, hi, ..)| lo < hi);
    pieces.sort_by_key(|&(lo, ..)| lo);
    // `top` reaches furthest so far. A piece starting below its end shares
    // a page with it and with every earlier open piece, all keyed alike.
    let mut top: Option<(u64, Option<u64>)> = None;
    for &(lo, hi, vaddr, key) in &pieces {
        if let Some((end, top_key)) = top.filter(|&(end, _)| lo < end) {
            if key.is_none() || key != top_key {
                return bad(vaddr, "shares a page another PT_LOAD maps differently");
            }
            if hi <= end {
                continue;
            }
        }
        top = Some((hi, key));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ElfBuilder;

    fn sample() -> Vec<u8> {
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0x90, 0x90, 0xC3], 0x401000);
        b.rodata(vec![1, 2, 3, 4], 0x402000);
        b.data(vec![9, 9], 0x403000);
        b.bss(0x1000, 0x404000);
        b.entry(0x401000);
        b.build()
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(Elf::parse(&[0u8; 16]), Err(ElfError::BadMagic)));
        assert!(matches!(
            Elf::parse(&[0x7F, b'E', b'L', b'F']),
            Err(ElfError::BadMagic)
        ));
    }

    #[test]
    fn parse_roundtrip() {
        let bytes = sample();
        let elf = Elf::parse(&bytes).unwrap();
        assert_eq!(elf.entry(), 0x401000);
        assert!(!elf.is_pie());
        assert_eq!(elf.slice_at(0x401000, 3).unwrap(), &[0x90, 0x90, 0xC3]);
        assert_eq!(elf.slice_at(0x402000, 4).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn section_lookup() {
        let bytes = sample();
        let elf = Elf::parse(&bytes).unwrap();
        let text = elf.section(".text").expect(".text present");
        assert_eq!(text.sh_addr, 0x401000);
        assert_eq!(elf.section_bytes(".text").unwrap(), &[0x90, 0x90, 0xC3]);
        assert!(elf.section(".bss").is_some());
        assert!(elf.section_bytes(".bss").is_none());
    }

    #[test]
    fn unmapped_address_errors() {
        let bytes = sample();
        let elf = Elf::parse(&bytes).unwrap();
        assert!(matches!(
            elf.slice_at(0x500000, 1),
            Err(ElfError::Unmapped(_))
        ));
        // bss is memory-mapped but not file-backed.
        assert!(matches!(
            elf.slice_at(0x404000, 1),
            Err(ElfError::Unmapped(_))
        ));
    }

    #[test]
    fn in_place_patch() {
        let bytes = sample();
        let mut elf = Elf::parse(&bytes).unwrap();
        elf.write_at(0x401000, &[0xCC]).unwrap();
        assert_eq!(elf.slice_at(0x401000, 3).unwrap(), &[0xCC, 0x90, 0xC3]);
        // File size unchanged: strictly in place.
        assert_eq!(elf.file_size(), bytes.len());
    }

    #[test]
    fn extent_covers_bss() {
        let bytes = sample();
        let elf = Elf::parse(&bytes).unwrap();
        let (lo, hi) = elf.vaddr_extent();
        assert!(lo <= 0x400000);
        assert!(hi >= 0x404000 + 0x1000);
    }

    /// `sample()` with the `PT_LOAD` at `vaddr` changed by `edit`.
    fn with_segment(vaddr: u64, edit: impl FnOnce(&mut Phdr)) -> Vec<u8> {
        let mut bytes = sample();
        let elf = Elf::parse(&bytes).unwrap();
        let i = elf.phdrs.iter().position(|p| p.p_vaddr == vaddr).unwrap();
        let mut p = elf.phdrs[i];
        edit(&mut p);
        let at = elf.ehdr.e_phoff as usize + i * PHDR_SIZE;
        bytes[at..at + PHDR_SIZE].copy_from_slice(&p.to_bytes());
        bytes
    }

    /// The segment and rule `Elf::parse` names when it refuses `bytes`.
    fn refusal(bytes: &[u8]) -> (u64, &'static str) {
        match Elf::parse(bytes) {
            Err(ElfError::BadSegment { vaddr, reason }) => (vaddr, reason),
            other => panic!("expected BadSegment, got {:?}", other.map(|e| e.phdrs)),
        }
    }

    #[test]
    fn parse_refuses_each_unloadable_segment() {
        type Edit = fn(&mut Phdr);
        // The sample's `.rodata` is 4 bytes at 0x402000, file offset 0x2000;
        // its `.text` is at 0x401000, file offset 0x1000.
        let cases: [(Edit, u64, &str); 8] = [
            (
                |p| p.p_offset = u64::MAX - 1,
                0x402000,
                "past the end of the input",
            ),
            (
                |p| (p.p_filesz, p.p_memsz) = (1 << 20, 1 << 20),
                0x402000,
                "past the end of the input",
            ),
            (|p| p.p_filesz = 5, 0x402000, "p_filesz exceeds p_memsz"),
            (
                |p| p.p_vaddr = u64::MAX - 0xFFF,
                u64::MAX - 0xFFF,
                "past the end of the address space",
            ),
            (|p| p.p_vaddr = 0x402010, 0x402010, "modulo the page size"),
            // The text's page from another file page.
            (|p| p.p_vaddr = 0x401000, 0x401000, "shares a page"),
            // The text's page and file page, but writable...
            (
                |p| (p.p_vaddr, p.p_offset, p.p_flags) = (0x401000, 0x1000, PF_R | PF_W),
                0x401000,
                "shares a page",
            ),
            // ...or with a zero-filled tail there.
            (
                |p| (p.p_vaddr, p.p_offset, p.p_memsz) = (0x401000, 0x1000, 0x10),
                0x401000,
                "shares a page",
            ),
        ];
        for (edit, vaddr, rule) in cases {
            let (v, reason) = refusal(&with_segment(0x402000, edit));
            assert_eq!(v, vaddr, "{reason}");
            assert!(reason.contains(rule), "{reason}");
        }
        // Ending on the last page below 2^64 does not wrap.
        let top = with_segment(0x402000, |p| p.p_vaddr = u64::MAX - 0x1FFF);
        let elf = Elf::parse(&top).unwrap();
        assert_eq!(elf.slice_at(u64::MAX - 0x1FFF, 4).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn segments_sharing_pages_alike_read_one_byte_each() {
        // `.rodata` re-pointed at the text's page and file page: the same
        // bytes through either segment, so parse accepts it.
        let bytes = with_segment(0x402000, |p| (p.p_vaddr, p.p_offset) = (0x401000, 0x1000));
        let elf = Elf::parse(&bytes).unwrap();
        assert_eq!(elf.slice_at(0x401000, 3).unwrap(), &[0x90, 0x90, 0xC3]);
        assert_eq!(elf.vaddr_to_offset(0x401002), Ok(0x1002));
    }

    #[test]
    fn page_sharing_is_checked_by_a_sweep_over_65535_headers() {
        // e_phnum's largest count of copies of one segment: accepted, and
        // refused once the last copy maps the page from elsewhere. Testing
        // every pair would take ~2·10⁹ comparisons.
        let mut bytes = sample();
        let elf = Elf::parse(&bytes).unwrap();
        let text = *elf.load_segments().find(|p| p.p_vaddr == 0x401000).unwrap();
        let at = bytes.len().next_multiple_of(8);
        bytes.resize(at, 0);
        for _ in 0..PN_XNUM {
            bytes.extend_from_slice(&text.to_bytes());
        }
        bytes[32..40].copy_from_slice(&(at as u64).to_le_bytes());
        bytes[56..58].copy_from_slice(&PN_XNUM.to_le_bytes());
        let elf = Elf::parse(&bytes).unwrap();
        assert_eq!(elf.slice_at(0x401000, 3).unwrap(), &[0x90, 0x90, 0xC3]);
        let last = bytes.len() - PHDR_SIZE;
        let moved = Phdr {
            p_offset: 0,
            ..text
        };
        bytes[last..].copy_from_slice(&moved.to_bytes());
        assert_eq!(
            refusal(&bytes),
            (0x401000, "shares a page another PT_LOAD maps differently")
        );
    }

    #[test]
    fn ranges_across_segments_read_what_single_bytes_read() {
        // The text segment is stretched to its page end, and the next
        // segment (vaddr 0x402000) is pointed at file offset 0, so the
        // range 0x401ffe..0x402002 is file-backed byte by byte but not
        // contiguous in the file.
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0x90; 16], 0x401000);
        b.rodata(vec![0xAA; 16], 0x402000);
        b.entry(0x401000);
        let mut bytes = b.build();
        let elf = Elf::parse(&bytes).unwrap();
        let phoff = elf.ehdr.e_phoff as usize;
        for (i, p) in elf.phdrs.iter().enumerate() {
            let mut p = *p;
            if p.p_vaddr == 0x401000 {
                p.p_filesz = 0x1000;
                p.p_memsz = 0x1000;
            } else if p.p_vaddr == 0x402000 {
                p.p_offset = 0;
            } else {
                continue;
            }
            bytes[phoff + i * PHDR_SIZE..][..PHDR_SIZE].copy_from_slice(&p.to_bytes());
        }
        let mut elf = Elf::parse(&bytes).unwrap();
        let single: Vec<u8> = (0..4)
            .map(|i| elf.slice_at(0x401ffe + i, 1).unwrap()[0])
            .collect();
        assert_eq!(single, [0, 0, 0x7F, b'E']);
        assert_eq!(elf.slice_at(0x401ffe, 4), Err(ElfError::Unmapped(0x402000)));
        assert_eq!(
            elf.write_at(0x401ffe, &[1; 4]),
            Err(ElfError::Unmapped(0x402000))
        );
        assert_eq!(elf.data(), &bytes[..], "a refused write changes nothing");
        // Ranges inside one segment still read and write as one slice.
        assert_eq!(elf.slice_at(0x401ffc, 2).unwrap(), &[0, 0]);
        assert_eq!(elf.slice_at(0x402000, 2).unwrap(), &[0x7F, b'E']);
        elf.write_at(0x401ffe, &[1, 2]).unwrap();
        assert_eq!(elf.slice_at(0x401ffe, 2).unwrap(), &[1, 2]);
    }
}
