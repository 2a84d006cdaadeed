//! Synthetic ELF executable builder.
//!
//! The reproduction cannot ship SPEC2006 or browser binaries, so the
//! workload generator (`e9synth`) assembles programs from scratch and this
//! builder turns them into well-formed ELF64 executables: file header,
//! one `PT_LOAD` per section, and a section-header table with names (so the
//! output is inspectable with standard tooling).
//!
//! Position-independent executables are modelled as `ET_DYN` files whose
//! segments already carry their final (high) load addresses — the dynamic
//! linker's relocation step is outside the scope of the paper, and what
//! matters to the rewriter is the *address range* code executes at (PIE
//! doubles the valid `rel32` offsets, paper §5.1).

use crate::types::*;
use crate::{page_ceil, PAGE_SIZE};

#[derive(Debug, Clone)]
struct PendingSection {
    name: String,
    vaddr: u64,
    bytes: Vec<u8>,
    memsz: u64,
    flags: u32,    // PF_*
    sh_flags: u64, // SHF_*
    nobits: bool,
}

/// Builder for synthetic ELF64 executables.
#[derive(Debug, Clone)]
pub struct ElfBuilder {
    e_type: u16,
    base: u64,
    entry: u64,
    sections: Vec<PendingSection>,
    notes: Vec<(String, Vec<u8>)>,
}

impl ElfBuilder {
    /// A fixed-address executable (`ET_EXEC`) with image base `base`
    /// (conventionally `0x400000`, like `ld`'s default — the hard case for
    /// punning because negative `rel32` offsets underflow).
    pub fn exec(base: u64) -> ElfBuilder {
        ElfBuilder {
            e_type: ET_EXEC,
            base,
            entry: 0,
            sections: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A position-independent executable (`ET_DYN`) modelled at its loaded
    /// base (conventionally high, e.g. `0x5555_5555_4000`).
    pub fn pie(base: u64) -> ElfBuilder {
        ElfBuilder {
            e_type: ET_DYN,
            base,
            entry: 0,
            sections: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a non-allocated metadata section (present in the file, not
    /// loaded into memory) — e.g. `.note.e9code`, which records the true
    /// code extent so frontends can skip data-in-text jump tables.
    pub fn note(&mut self, name: &str, bytes: Vec<u8>) -> &mut Self {
        self.notes.push((name.to_string(), bytes));
        self
    }

    /// Image base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Set the entry point.
    pub fn entry(&mut self, vaddr: u64) -> &mut Self {
        self.entry = vaddr;
        self
    }

    /// Add an executable `.text` section at `vaddr`.
    pub fn text(&mut self, code: Vec<u8>, vaddr: u64) -> &mut Self {
        self.add(
            ".text",
            code,
            vaddr,
            PF_R | PF_X,
            SHF_ALLOC | SHF_EXECINSTR,
            false,
        )
    }

    /// Add a read-only `.rodata` section at `vaddr`.
    pub fn rodata(&mut self, bytes: Vec<u8>, vaddr: u64) -> &mut Self {
        self.add(".rodata", bytes, vaddr, PF_R, SHF_ALLOC, false)
    }

    /// Add a writable `.data` section at `vaddr`.
    pub fn data(&mut self, bytes: Vec<u8>, vaddr: u64) -> &mut Self {
        self.add(
            ".data",
            bytes,
            vaddr,
            PF_R | PF_W,
            SHF_ALLOC | SHF_WRITE,
            false,
        )
    }

    /// Add a zero-initialised `.bss` of `size` bytes at `vaddr` (occupies
    /// address space but no file bytes — how gamess/zeusmp pressure the
    /// trampoline allocator in the paper's limitation L1).
    pub fn bss(&mut self, size: u64, vaddr: u64) -> &mut Self {
        self.sections.push(PendingSection {
            name: ".bss".into(),
            vaddr,
            bytes: Vec::new(),
            memsz: size,
            flags: PF_R | PF_W,
            sh_flags: SHF_ALLOC | SHF_WRITE,
            nobits: true,
        });
        self
    }

    /// Add an arbitrary named section.
    pub fn section(
        &mut self,
        name: &str,
        bytes: Vec<u8>,
        vaddr: u64,
        exec: bool,
        write: bool,
    ) -> &mut Self {
        let mut flags = PF_R;
        let mut sh_flags = SHF_ALLOC;
        if exec {
            flags |= PF_X;
            sh_flags |= SHF_EXECINSTR;
        }
        if write {
            flags |= PF_W;
            sh_flags |= SHF_WRITE;
        }
        self.add(name, bytes, vaddr, flags, sh_flags, false)
    }

    fn add(
        &mut self,
        name: &str,
        bytes: Vec<u8>,
        vaddr: u64,
        flags: u32,
        sh_flags: u64,
        nobits: bool,
    ) -> &mut Self {
        let memsz = bytes.len() as u64;
        self.sections.push(PendingSection {
            name: name.to_string(),
            vaddr,
            bytes,
            memsz,
            flags,
            sh_flags,
            nobits,
        });
        self
    }

    /// Emit the ELF file bytes.
    ///
    /// # Panics
    ///
    /// Panics if sections overlap in virtual memory or precede the image
    /// base — builder misuse, not input-dependent conditions.
    pub fn build(&self) -> Vec<u8> {
        let mut sections = self.sections.clone();
        sections.sort_by_key(|s| s.vaddr);
        for w in sections.windows(2) {
            assert!(
                w[0].vaddr + w[0].memsz.max(w[0].bytes.len() as u64) <= w[1].vaddr,
                "sections {} and {} overlap",
                w[0].name,
                w[1].name
            );
        }

        let file_sections: Vec<&PendingSection> = sections.iter().filter(|s| !s.nobits).collect();
        // Program headers: one for the header page, one per section.
        let phnum = 1 + sections.len();
        let phoff = EHDR_SIZE as u64;
        let headers_end = phoff + (phnum * PHDR_SIZE) as u64;
        assert!(
            headers_end <= PAGE_SIZE,
            "too many sections for a one-page header"
        );

        // Assign file offsets congruent to vaddr mod page.
        let mut out = vec![0u8; headers_end as usize];
        let mut offsets = Vec::new();
        for s in &file_sections {
            let mut off = page_ceil(out.len() as u64);
            off += s.vaddr % PAGE_SIZE;
            out.resize(off as usize, 0);
            out.extend_from_slice(&s.bytes);
            offsets.push(off);
        }

        // Non-allocated note sections (metadata only).
        let mut note_offsets = Vec::new();
        for (_, bytes) in &self.notes {
            note_offsets.push(out.len() as u64);
            out.extend_from_slice(bytes);
        }

        // Section header table: null + sections + notes + .shstrtab.
        let mut shstrtab = vec![0u8]; // index 0 = empty name
        let mut name_offsets = Vec::new();
        for s in &sections {
            name_offsets.push(shstrtab.len() as u32);
            shstrtab.extend_from_slice(s.name.as_bytes());
            shstrtab.push(0);
        }
        let mut note_name_offsets = Vec::new();
        for (name, _) in &self.notes {
            note_name_offsets.push(shstrtab.len() as u32);
            shstrtab.extend_from_slice(name.as_bytes());
            shstrtab.push(0);
        }
        let shstrtab_name_off = shstrtab.len() as u32;
        shstrtab.extend_from_slice(b".shstrtab\0");

        let shstrtab_off = out.len() as u64;
        out.extend_from_slice(&shstrtab);
        // Align section header table.
        while !out.len().is_multiple_of(8) {
            out.push(0);
        }
        let shoff = out.len() as u64;
        let shnum = 2 + sections.len() + self.notes.len(); // null + sections + notes + shstrtab

        let push_shdr = |out: &mut Vec<u8>,
                         name_off: u32,
                         sh_type: u32,
                         sh_flags: u64,
                         addr: u64,
                         offset: u64,
                         size: u64| {
            let mut b = [0u8; SHDR_SIZE];
            b[0..4].copy_from_slice(&name_off.to_le_bytes());
            b[4..8].copy_from_slice(&sh_type.to_le_bytes());
            b[8..16].copy_from_slice(&sh_flags.to_le_bytes());
            b[16..24].copy_from_slice(&addr.to_le_bytes());
            b[24..32].copy_from_slice(&offset.to_le_bytes());
            b[32..40].copy_from_slice(&size.to_le_bytes());
            b[48..56].copy_from_slice(&1u64.to_le_bytes()); // sh_addralign
            out.extend_from_slice(&b);
        };

        push_shdr(&mut out, 0, 0, 0, 0, 0, 0); // SHN_UNDEF
        let mut file_idx = 0usize;
        for (i, s) in sections.iter().enumerate() {
            let (sh_type, offset, size) = if s.nobits {
                (SHT_NOBITS, 0, s.memsz)
            } else {
                let off = offsets[file_idx];
                file_idx += 1;
                (SHT_PROGBITS, off, s.bytes.len() as u64)
            };
            push_shdr(
                &mut out,
                name_offsets[i],
                sh_type,
                s.sh_flags,
                s.vaddr,
                offset,
                size,
            );
        }
        for (i, (_, bytes)) in self.notes.iter().enumerate() {
            push_shdr(
                &mut out,
                note_name_offsets[i],
                SHT_PROGBITS,
                0,
                0,
                note_offsets[i],
                bytes.len() as u64,
            );
        }
        push_shdr(
            &mut out,
            shstrtab_name_off,
            SHT_STRTAB,
            0,
            0,
            shstrtab_off,
            shstrtab.len() as u64,
        );

        // File header.
        out[0..4].copy_from_slice(&ELF_MAGIC);
        out[4] = ELFCLASS64;
        out[5] = ELFDATA2LSB;
        out[6] = EV_CURRENT;
        out[16..18].copy_from_slice(&self.e_type.to_le_bytes());
        out[18..20].copy_from_slice(&EM_X86_64.to_le_bytes());
        out[20..24].copy_from_slice(&1u32.to_le_bytes()); // e_version
        out[24..32].copy_from_slice(&self.entry.to_le_bytes());
        out[32..40].copy_from_slice(&phoff.to_le_bytes());
        out[40..48].copy_from_slice(&shoff.to_le_bytes());
        out[52..54].copy_from_slice(&(EHDR_SIZE as u16).to_le_bytes());
        out[54..56].copy_from_slice(&(PHDR_SIZE as u16).to_le_bytes());
        out[56..58].copy_from_slice(&(phnum as u16).to_le_bytes());
        out[58..60].copy_from_slice(&(SHDR_SIZE as u16).to_le_bytes());
        out[60..62].copy_from_slice(&(shnum as u16).to_le_bytes());
        out[62..64].copy_from_slice(&((shnum - 1) as u16).to_le_bytes());

        // Program headers: header page first.
        let mut phdr_bytes = Vec::new();
        let hdr_ph = Phdr {
            p_type: PT_LOAD,
            p_flags: PF_R,
            p_offset: 0,
            p_vaddr: self.base,
            p_filesz: headers_end,
            p_memsz: headers_end,
            p_align: PAGE_SIZE,
        };
        phdr_bytes.extend_from_slice(&hdr_ph.to_bytes());
        let mut file_idx = 0usize;
        for s in &sections {
            let (offset, filesz, memsz) = if s.nobits {
                (0, 0, s.memsz)
            } else {
                let off = offsets[file_idx];
                file_idx += 1;
                (off, s.bytes.len() as u64, s.bytes.len() as u64)
            };
            let ph = Phdr {
                p_type: PT_LOAD,
                p_flags: s.flags,
                p_offset: offset,
                p_vaddr: s.vaddr,
                p_filesz: filesz,
                p_memsz: memsz,
                p_align: PAGE_SIZE,
            };
            phdr_bytes.extend_from_slice(&ph.to_bytes());
        }
        out[phoff as usize..phoff as usize + phdr_bytes.len()].copy_from_slice(&phdr_bytes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Elf;

    #[test]
    fn minimal_executable() {
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0xC3], 0x401000);
        b.entry(0x401000);
        let bytes = b.build();
        let elf = Elf::parse(&bytes).unwrap();
        assert_eq!(elf.entry(), 0x401000);
        assert_eq!(elf.slice_at(0x401000, 1).unwrap(), &[0xC3]);
    }

    #[test]
    fn pie_flag() {
        let mut b = ElfBuilder::pie(0x5555_5555_4000);
        b.text(vec![0xC3], 0x5555_5555_5000);
        b.entry(0x5555_5555_5000);
        let elf = Elf::parse(&b.build()).unwrap();
        assert!(elf.is_pie());
    }

    #[test]
    fn offsets_congruent_to_vaddr() {
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0x90; 100], 0x401234);
        b.entry(0x401234);
        let bytes = b.build();
        let elf = Elf::parse(&bytes).unwrap();
        let off = elf.vaddr_to_offset(0x401234).unwrap();
        assert_eq!(off % PAGE_SIZE, 0x234);
    }

    #[test]
    fn bss_occupies_memory_not_file() {
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0xC3], 0x401000);
        b.bss(0x10_0000, 0x500000);
        b.entry(0x401000);
        let bytes = b.build();
        let elf = Elf::parse(&bytes).unwrap();
        assert!(bytes.len() < 0x10_0000); // bss contributes no file bytes
        let (_, hi) = elf.vaddr_extent();
        assert_eq!(hi, 0x500000 + 0x10_0000);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_sections_rejected() {
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0x90; 0x100], 0x401000);
        b.rodata(vec![0; 0x100], 0x401080);
        b.build();
    }

    #[test]
    fn sections_named_and_ordered() {
        let mut b = ElfBuilder::exec(0x400000);
        b.data(vec![0xAB], 0x403000);
        b.text(vec![0xC3], 0x401000);
        b.rodata(vec![7], 0x402000);
        b.entry(0x401000);
        let elf = Elf::parse(&b.build()).unwrap();
        assert_eq!(elf.section(".text").unwrap().sh_addr, 0x401000);
        assert_eq!(elf.section(".rodata").unwrap().sh_addr, 0x402000);
        assert_eq!(elf.section_bytes(".data").unwrap(), &[0xAB]);
    }
}
