//! Parsed ELF image with virtual-address ⇄ file-offset translation and
//! in-place byte patching.

use crate::types::*;
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
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::BadMagic => write!(f, "not a 64-bit little-endian x86-64 ELF"),
            ElfError::Truncated(what) => write!(f, "truncated ELF: {what} out of bounds"),
            ElfError::Unmapped(a) => write!(f, "virtual address {a:#x} is not file-backed"),
            ElfError::BadType(t) => write!(f, "unsupported ELF type {t}"),
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
    /// Fails on bad magic/class/machine or truncated header tables. Section
    /// headers are optional (stripped binaries parse fine). Every read is
    /// bounds-checked: arbitrary input yields a typed [`ElfError`], never a
    /// panic (the hostile-input corpus and `e9faultgen` enforce this).
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
        for p in self.load_segments() {
            if p.covers_file(vaddr) {
                // A hostile p_offset can sit near u64::MAX; the sum must
                // not wrap into a plausible-looking low offset.
                return p
                    .p_offset
                    .checked_add(vaddr - p.p_vaddr)
                    .ok_or(ElfError::Truncated("segment offset"));
            }
        }
        Err(ElfError::Unmapped(vaddr))
    }

    /// The file range of `len > 0` bytes at `vaddr`, when translating
    /// each byte on its own ([`Elf::vaddr_to_offset`]) gives consecutive
    /// file offsets.
    fn file_range(&self, vaddr: u64, len: usize) -> Result<std::ops::Range<usize>, ElfError> {
        let last = vaddr
            .checked_add(len as u64 - 1)
            .ok_or(ElfError::Unmapped(vaddr))?;
        let (idx, seg) = self
            .load_segments()
            .enumerate()
            .find(|(_, p)| p.covers_file(vaddr))
            .ok_or(ElfError::Unmapped(vaddr))?;
        let start = seg
            .p_offset
            .checked_add(vaddr - seg.p_vaddr)
            .ok_or(ElfError::Truncated("segment offset"))?;
        let range = usize::try_from(start)
            .ok()
            .and_then(|s| Some(s..s.checked_add(len)?))
            .filter(|r| r.end <= self.data.len())
            .ok_or(ElfError::Truncated("segment data"))?;
        // Every byte translates through `seg` when `seg` covers the whole
        // range and no segment ahead of it in the table touches it (the
        // overlap test may err towards "touches"; the byte walk is exact).
        let one_segment = seg.covers_file(last)
            && self.load_segments().take(idx).all(|p| {
                p.p_filesz == 0 || p.p_vaddr > last || p.p_vaddr.saturating_add(p.p_filesz) < vaddr
            });
        if !one_segment {
            for i in 1..len as u64 {
                if self.vaddr_to_offset(vaddr + i)? != start + i {
                    return Err(ElfError::Unmapped(vaddr + i));
                }
            }
        }
        Ok(range)
    }

    /// Borrow `len` bytes of file-backed data at virtual address `vaddr`:
    /// the bytes a byte-by-byte read through [`Elf::vaddr_to_offset`]
    /// would return.
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
            hi = hi.max(p.p_vaddr.saturating_add(p.p_memsz));
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
