//! # e9elf — ELF64 substrate
//!
//! A from-scratch ELF64 **parser**, **builder** and **rewriter** for the
//! E9Patch reproduction.
//!
//! Three roles:
//!
//! * [`image::Elf`] parses an existing binary into a navigable image with
//!   virtual-address ⇄ file-offset translation (the rewriter patches bytes
//!   *in place* and never moves existing data, per the paper's §5.1).
//!   Parsing owns the one segment model: it refuses a `PT_LOAD` table a
//!   loader would map otherwise than the image reads it ([`image`]).
//! * [`build::ElfBuilder`] assembles synthetic executables (PIE and
//!   non-PIE) from raw section bytes — the substitute for compiling
//!   SPEC2006 with gcc.
//! * [`rewrite::Patcher`] produces the patched output binary in one
//!   buffer: the in-place patched image, trampoline blocks and loader
//!   segments appended at the end of the file, and the program-header
//!   table relocated to the file tail so new `PT_LOAD` entries can be
//!   added without moving data.
//!
//! ```
//! use e9elf::build::ElfBuilder;
//!
//! let mut b = ElfBuilder::exec(0x400000);
//! b.text(vec![0xC3], 0x401000); // ret
//! b.entry(0x401000);
//! let bytes = b.build();
//! let elf = e9elf::image::Elf::parse(&bytes).unwrap();
//! assert_eq!(elf.entry(), 0x401000);
//! ```

pub mod build;
pub mod image;
pub mod rewrite;
pub mod symbols;
pub mod types;

pub use image::{Elf, ElfError};
pub use rewrite::Patcher;

/// Page size assumed throughout the reproduction (x86_64 Linux).
pub const PAGE_SIZE: u64 = 4096;

/// Round `v` down to a page boundary.
#[inline]
pub fn page_floor(v: u64) -> u64 {
    v & !(PAGE_SIZE - 1)
}

/// Round `v` up to a page boundary.
#[inline]
pub fn page_ceil(v: u64) -> u64 {
    (v + (PAGE_SIZE - 1)) & !(PAGE_SIZE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_rounding() {
        assert_eq!(page_floor(0x1234), 0x1000);
        assert_eq!(page_ceil(0x1234), 0x2000);
        assert_eq!(page_ceil(0x1000), 0x1000);
        assert_eq!(page_floor(0), 0);
        // The last page's start rounds to itself, without overflow.
        assert_eq!(page_ceil(u64::MAX - 0xFFF), u64::MAX - 0xFFF);
    }
}
