//! ELF64 on-disk structures and constants (subset needed for executables
//! and shared objects).

/// ELF magic bytes.
pub const ELF_MAGIC: [u8; 4] = [0x7F, b'E', b'L', b'F'];
/// 64-bit class.
pub const ELFCLASS64: u8 = 2;
/// Little-endian data encoding.
pub const ELFDATA2LSB: u8 = 1;
/// Current ELF version.
pub const EV_CURRENT: u8 = 1;

/// Executable file (fixed load address).
pub const ET_EXEC: u16 = 2;
/// Shared object / position-independent executable.
pub const ET_DYN: u16 = 3;
/// AMD x86-64 machine.
pub const EM_X86_64: u16 = 62;

/// Loadable segment.
pub const PT_LOAD: u32 = 1;
/// Note segment (used for the patch manifest).
pub const PT_NOTE: u32 = 4;
/// Program header table self-reference.
pub const PT_PHDR: u32 = 6;

/// Segment is executable.
pub const PF_X: u32 = 1;
/// Segment is writable.
pub const PF_W: u32 = 2;
/// Segment is readable.
pub const PF_R: u32 = 4;

/// Size of the ELF64 file header.
pub const EHDR_SIZE: usize = 64;
/// Size of one ELF64 program header.
pub const PHDR_SIZE: usize = 56;
/// `e_phnum` value meaning "the count is elsewhere", so one past the
/// largest count `e_phnum` can hold.
pub const PN_XNUM: u16 = 0xffff;
/// Size of one ELF64 section header.
pub const SHDR_SIZE: usize = 64;

/// Section holds program data (`SHT_PROGBITS`).
pub const SHT_PROGBITS: u32 = 1;
/// Section holds uninitialised data (`SHT_NOBITS`).
pub const SHT_NOBITS: u32 = 8;
/// String table section.
pub const SHT_STRTAB: u32 = 3;

/// Section occupies memory at run time.
pub const SHF_ALLOC: u64 = 2;
/// Section is executable.
pub const SHF_EXECINSTR: u64 = 4;
/// Section is writable.
pub const SHF_WRITE: u64 = 1;

/// Parsed ELF64 file header (fields the reproduction uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ehdr {
    /// Object file type (`ET_EXEC` or `ET_DYN`).
    pub e_type: u16,
    /// Entry-point virtual address.
    pub e_entry: u64,
    /// Program-header table file offset.
    pub e_phoff: u64,
    /// Section-header table file offset.
    pub e_shoff: u64,
    /// Number of program headers.
    pub e_phnum: u16,
    /// Number of section headers.
    pub e_shnum: u16,
    /// Section name string table index.
    pub e_shstrndx: u16,
}

/// Parsed ELF64 program header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phdr {
    /// Segment type (`PT_LOAD`, ...).
    pub p_type: u32,
    /// Permission flags (`PF_R | PF_W | PF_X`).
    pub p_flags: u32,
    /// File offset of the segment contents.
    pub p_offset: u64,
    /// Virtual load address.
    pub p_vaddr: u64,
    /// Size of the segment in the file.
    pub p_filesz: u64,
    /// Size of the segment in memory (≥ `p_filesz`; tail is zero-filled).
    pub p_memsz: u64,
    /// Alignment.
    pub p_align: u64,
}

impl Phdr {
    /// Does this loadable segment cover virtual address `vaddr` in memory?
    ///
    /// Phrased as a checked subtraction so a hostile `p_vaddr + p_memsz`
    /// near `u64::MAX` cannot wrap.
    #[inline]
    pub fn covers(&self, vaddr: u64) -> bool {
        vaddr
            .checked_sub(self.p_vaddr)
            .is_some_and(|d| d < self.p_memsz)
    }

    /// Does the *file-backed* part of this segment cover `vaddr`?
    #[inline]
    pub fn covers_file(&self, vaddr: u64) -> bool {
        vaddr
            .checked_sub(self.p_vaddr)
            .is_some_and(|d| d < self.p_filesz)
    }

    /// Serialize to the 56-byte on-disk representation.
    pub fn to_bytes(&self) -> [u8; PHDR_SIZE] {
        let mut b = [0u8; PHDR_SIZE];
        b[0..4].copy_from_slice(&self.p_type.to_le_bytes());
        b[4..8].copy_from_slice(&self.p_flags.to_le_bytes());
        b[8..16].copy_from_slice(&self.p_offset.to_le_bytes());
        b[16..24].copy_from_slice(&self.p_vaddr.to_le_bytes());
        b[24..32].copy_from_slice(&self.p_vaddr.to_le_bytes()); // p_paddr = p_vaddr
        b[32..40].copy_from_slice(&self.p_filesz.to_le_bytes());
        b[40..48].copy_from_slice(&self.p_memsz.to_le_bytes());
        b[48..56].copy_from_slice(&self.p_align.to_le_bytes());
        b
    }

    /// Deserialize from the on-disk representation, or `None` if the slice
    /// is shorter than [`PHDR_SIZE`]. Total: never panics.
    pub fn try_from_bytes(b: &[u8]) -> Option<Phdr> {
        if b.len() < PHDR_SIZE {
            return None;
        }
        let u32le = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
        let u64le = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
        Some(Phdr {
            p_type: u32le(0),
            p_flags: u32le(4),
            p_offset: u64le(8),
            p_vaddr: u64le(16),
            p_filesz: u64le(32),
            p_memsz: u64le(40),
            p_align: u64le(48),
        })
    }
}

/// Parsed ELF64 section header plus its resolved name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (resolved through `.shstrtab`).
    pub name: String,
    /// Section type.
    pub sh_type: u32,
    /// Section flags.
    pub sh_flags: u64,
    /// Virtual address (0 for non-alloc sections).
    pub sh_addr: u64,
    /// File offset.
    pub sh_offset: u64,
    /// Size in bytes.
    pub sh_size: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phdr_roundtrip() {
        let p = Phdr {
            p_type: PT_LOAD,
            p_flags: PF_R | PF_X,
            p_offset: 0x1000,
            p_vaddr: 0x401000,
            p_filesz: 0x2345,
            p_memsz: 0x3000,
            p_align: 0x1000,
        };
        assert_eq!(Phdr::try_from_bytes(&p.to_bytes()), Some(p));
        assert_eq!(Phdr::try_from_bytes(&p.to_bytes()[..PHDR_SIZE - 1]), None);
    }

    #[test]
    fn phdr_covers() {
        let p = Phdr {
            p_type: PT_LOAD,
            p_flags: PF_R,
            p_offset: 0,
            p_vaddr: 0x1000,
            p_filesz: 0x100,
            p_memsz: 0x200,
            p_align: 0x1000,
        };
        assert!(p.covers(0x1000));
        assert!(p.covers(0x11FF));
        assert!(!p.covers(0x1200));
        assert!(p.covers_file(0x10FF));
        assert!(!p.covers_file(0x1100)); // bss tail
    }
}
