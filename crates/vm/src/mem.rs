//! Paged virtual memory with aliased (one-to-many) file-backed mappings.
//!
//! Physical page grouping (§4 of the paper) only works if one physical
//! extent can appear at several virtual addresses. The memory model here
//! mirrors `mmap` semantics closely enough to validate that: *physical
//! buffers* (the binary file image, anonymous zero memory) are mapped into
//! pages of a 64-bit virtual space, and the same file extent may back any
//! number of virtual pages.

use std::collections::HashMap;
use std::fmt;

/// Page size (matches `e9elf::PAGE_SIZE`).
pub const PAGE_SIZE: u64 = 4096;

/// Identifier of a physical buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysId(pub(crate) usize);

/// Page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perms {
    /// Read + execute (code pages).
    pub const RX: Perms = Perms {
        r: true,
        w: false,
        x: true,
    };
    /// Read + write (data pages).
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
    };
    /// Read-only.
    pub const R: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };
}

/// A memory-access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No mapping at the address.
    Unmapped(u64),
    /// Permission violation (e.g. write to read-only page).
    Protection(u64),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Unmapped(a) => write!(f, "unmapped address {a:#x}"),
            Fault::Protection(a) => write!(f, "protection fault at {a:#x}"),
        }
    }
}

impl std::error::Error for Fault {}

#[derive(Debug, Clone, Copy)]
struct PageMap {
    phys: PhysId,
    /// Byte offset of this page within the physical buffer. Reads past the
    /// end of the buffer yield zero (mmap zero-fill of a file tail).
    offset: u64,
    perms: Perms,
}

/// The virtual memory system.
#[derive(Debug, Default)]
pub struct Memory {
    bufs: Vec<Vec<u8>>,
    pages: HashMap<u64, PageMap>,
    /// Bumped on every mapping change so instruction caches can
    /// invalidate.
    pub epoch: u64,
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Register a physical buffer (e.g. the binary file image) and return
    /// its id.
    pub fn add_phys(&mut self, bytes: Vec<u8>) -> PhysId {
        self.bufs.push(bytes);
        PhysId(self.bufs.len() - 1)
    }

    /// Map `len` bytes of physical buffer `phys` starting at `offset` to
    /// virtual address `vaddr`. All three values are rounded outward to
    /// page granularity. Existing mappings are replaced (MAP_FIXED
    /// semantics).
    pub fn map_file(&mut self, vaddr: u64, phys: PhysId, offset: u64, len: u64, perms: Perms) {
        assert_eq!(vaddr % PAGE_SIZE, 0, "unaligned map vaddr {vaddr:#x}");
        assert_eq!(offset % PAGE_SIZE, 0, "unaligned map offset {offset:#x}");
        let npages = len.div_ceil(PAGE_SIZE);
        for i in 0..npages {
            self.pages.insert(
                vaddr + i * PAGE_SIZE,
                PageMap {
                    phys,
                    offset: offset + i * PAGE_SIZE,
                    perms,
                },
            );
        }
        self.epoch += 1;
    }

    /// Map `len` bytes of fresh zeroed private memory at `vaddr`.
    pub fn map_anon(&mut self, vaddr: u64, len: u64, perms: Perms) {
        assert_eq!(vaddr % PAGE_SIZE, 0, "unaligned map vaddr {vaddr:#x}");
        let npages = len.div_ceil(PAGE_SIZE);
        let phys = self.add_phys(vec![0u8; (npages * PAGE_SIZE) as usize]);
        self.map_file(vaddr, phys, 0, len, perms);
    }

    /// Is the page containing `vaddr` mapped?
    pub fn is_mapped(&self, vaddr: u64) -> bool {
        self.pages.contains_key(&(vaddr & !(PAGE_SIZE - 1)))
    }

    fn page(&self, vaddr: u64) -> Result<&PageMap, Fault> {
        self.pages
            .get(&(vaddr & !(PAGE_SIZE - 1)))
            .ok_or(Fault::Unmapped(vaddr))
    }

    /// Read one byte.
    pub fn read8(&self, vaddr: u64) -> Result<u8, Fault> {
        let p = self.page(vaddr)?;
        if !p.perms.r {
            return Err(Fault::Protection(vaddr));
        }
        let off = p.offset + (vaddr & (PAGE_SIZE - 1));
        Ok(self.bufs[p.phys.0].get(off as usize).copied().unwrap_or(0))
    }

    /// Write one byte.
    pub fn write8(&mut self, vaddr: u64, v: u8) -> Result<(), Fault> {
        let p = *self.page(vaddr)?;
        if !p.perms.w {
            return Err(Fault::Protection(vaddr));
        }
        let off = (p.offset + (vaddr & (PAGE_SIZE - 1))) as usize;
        let buf = &mut self.bufs[p.phys.0];
        if off >= buf.len() {
            // Writing into the zero-fill tail of a file-backed page is not
            // meaningful for private anon buffers we size exactly, so treat
            // as a fault.
            return Err(Fault::Protection(vaddr));
        }
        buf[off] = v;
        Ok(())
    }

    /// Read `n ≤ 8` bytes little-endian.
    pub fn read_le(&self, vaddr: u64, n: u8) -> Result<u64, Fault> {
        let mut v: u64 = 0;
        for i in 0..n as u64 {
            v |= (self.read8(vaddr + i)? as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Write `n ≤ 8` bytes little-endian.
    pub fn write_le(&mut self, vaddr: u64, v: u64, n: u8) -> Result<(), Fault> {
        for i in 0..n as u64 {
            self.write8(vaddr + i, (v >> (8 * i)) as u8)?;
        }
        Ok(())
    }

    /// Fetch up to 15 instruction bytes at `vaddr`, requiring execute
    /// permission on the first page. Stops early at unmapped pages (the
    /// decoder will report truncation if it needed more).
    pub fn fetch(&self, vaddr: u64) -> Result<Vec<u8>, Fault> {
        let p = self.page(vaddr)?;
        if !p.perms.x {
            return Err(Fault::Protection(vaddr));
        }
        let mut out = Vec::with_capacity(15);
        for i in 0..15u64 {
            let a = vaddr + i;
            match self.page(a) {
                Ok(p) if p.perms.x => {
                    let off = p.offset + (a & (PAGE_SIZE - 1));
                    out.push(self.bufs[p.phys.0].get(off as usize).copied().unwrap_or(0));
                }
                _ => break,
            }
        }
        Ok(out)
    }

    /// Resident physical memory: total bytes of *distinct* physical pages
    /// referenced by at least one mapping. Aliased mappings (physical page
    /// grouping) count their shared page once — this is the quantity the
    /// paper's §4 optimisation reduces.
    pub fn physical_footprint(&self) -> u64 {
        let mut seen = std::collections::HashSet::new();
        for pm in self.pages.values() {
            seen.insert((pm.phys, pm.offset / PAGE_SIZE));
        }
        seen.len() as u64 * PAGE_SIZE
    }

    /// Total virtual bytes mapped (for comparison with
    /// [`Memory::physical_footprint`]).
    pub fn virtual_footprint(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anon_rw_roundtrip() {
        let mut m = Memory::new();
        m.map_anon(0x10000, 0x2000, Perms::RW);
        m.write_le(0x10FF0, 0x1122334455667788, 8).unwrap();
        assert_eq!(m.read_le(0x10FF0, 8).unwrap(), 0x1122334455667788);
        // Crossing a page boundary.
        m.write_le(0x10FFC, 0xDEADBEEFCAFEBABE, 8).unwrap();
        assert_eq!(m.read_le(0x10FFC, 8).unwrap(), 0xDEADBEEFCAFEBABE);
    }

    #[test]
    fn unmapped_faults() {
        let m = Memory::new();
        assert_eq!(m.read8(0x5000), Err(Fault::Unmapped(0x5000)));
    }

    #[test]
    fn write_to_code_faults() {
        let mut m = Memory::new();
        let f = m.add_phys(vec![0x90; 4096]);
        m.map_file(0x400000, f, 0, 4096, Perms::RX);
        assert_eq!(m.write8(0x400000, 0), Err(Fault::Protection(0x400000)));
        assert_eq!(m.read8(0x400000).unwrap(), 0x90);
    }

    #[test]
    fn aliased_mapping_shares_physical_bytes() {
        // The crux of physical page grouping: one physical page visible at
        // three virtual addresses.
        let mut m = Memory::new();
        let mut page = vec![0u8; 4096];
        page[0x100] = 0xAA;
        page[0x800] = 0xBB;
        let f = m.add_phys(page);
        for base in [0x70000000u64, 0x70010000, 0x70020000] {
            m.map_file(base, f, 0, 4096, Perms::RX);
        }
        for base in [0x70000000u64, 0x70010000, 0x70020000] {
            assert_eq!(m.fetch(base + 0x100).unwrap()[0], 0xAA);
            assert_eq!(m.fetch(base + 0x800).unwrap()[0], 0xBB);
        }
    }

    #[test]
    fn file_tail_zero_fills() {
        let mut m = Memory::new();
        let f = m.add_phys(vec![0xFF; 100]); // less than a page
        m.map_file(0x10000, f, 0, 4096, Perms::R);
        assert_eq!(m.read8(0x10000 + 50).unwrap(), 0xFF);
        assert_eq!(m.read8(0x10000 + 200).unwrap(), 0);
    }

    #[test]
    fn map_fixed_replaces() {
        let mut m = Memory::new();
        m.map_anon(0x10000, 4096, Perms::RW);
        m.write8(0x10000, 7).unwrap();
        let f = m.add_phys(vec![9; 4096]);
        m.map_file(0x10000, f, 0, 4096, Perms::R);
        assert_eq!(m.read8(0x10000).unwrap(), 9);
    }

    #[test]
    fn fetch_requires_exec() {
        let mut m = Memory::new();
        m.map_anon(0x10000, 4096, Perms::RW);
        assert_eq!(m.fetch(0x10000), Err(Fault::Protection(0x10000)));
    }

    #[test]
    fn fetch_stops_at_unmapped_boundary() {
        let mut m = Memory::new();
        let f = m.add_phys(vec![0x90; 4096]);
        m.map_file(0x10000, f, 0, 4096, Perms::RX);
        let bytes = m.fetch(0x10000 + 4096 - 3).unwrap();
        assert_eq!(bytes.len(), 3);
    }

    #[test]
    fn epoch_advances_on_mapping_changes() {
        let mut m = Memory::new();
        let e0 = m.epoch;
        m.map_anon(0x10000, 4096, Perms::RW);
        assert!(m.epoch > e0);
    }

    #[test]
    fn aliased_mappings_share_physical_footprint() {
        let mut m = Memory::new();
        let f = m.add_phys(vec![0; 4096]);
        for base in [0x10000u64, 0x20000, 0x30000] {
            m.map_file(base, f, 0, 4096, Perms::RX);
        }
        assert_eq!(m.virtual_footprint(), 3 * 4096);
        assert_eq!(m.physical_footprint(), 4096); // one shared page
        m.map_anon(0x40000, 4096, Perms::RW);
        assert_eq!(m.physical_footprint(), 2 * 4096);
    }
}
