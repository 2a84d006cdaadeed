//! Instruction prefixes.
//!
//! E9Patch's tactic **T1 (padded jumps)** pads a `jmpq rel32` with redundant
//! prefixes so the `rel32` window slides over different successor bytes; the
//! set of prefixes that are *semantically redundant* on a near jump is
//! defined here ([`REDUNDANT_JMP_PREFIXES`]).

/// Legacy group-1 prefixes (lock / repeat).
pub const LOCK: u8 = 0xF0;
/// `repne`/`repnz` prefix.
pub const REPNE: u8 = 0xF2;
/// `rep`/`repe` prefix.
pub const REP: u8 = 0xF3;

/// Segment-override prefixes (group 2). In 64-bit mode `cs`/`ss`/`ds`/`es`
/// overrides are silently ignored, and `fs`/`gs` are ignored for
/// non-memory-accessing instructions such as jumps.
pub const SEG_ES: u8 = 0x26;
/// `%cs` segment override (also "branch not taken" hint).
pub const SEG_CS: u8 = 0x2E;
/// `%ss` segment override.
pub const SEG_SS: u8 = 0x36;
/// `%ds` segment override (also "branch taken" hint).
pub const SEG_DS: u8 = 0x3E;
/// `%fs` segment override.
pub const SEG_FS: u8 = 0x64;
/// `%gs` segment override.
pub const SEG_GS: u8 = 0x65;

/// Operand-size override (group 3).
pub const OPSIZE: u8 = 0x66;
/// Address-size override (group 4).
pub const ADDRSIZE: u8 = 0x67;

/// Is `b` one of the legacy (non-REX) prefixes?
#[inline]
pub fn is_legacy_prefix(b: u8) -> bool {
    matches!(
        b,
        LOCK | REPNE
            | REP
            | SEG_ES
            | SEG_CS
            | SEG_SS
            | SEG_DS
            | SEG_FS
            | SEG_GS
            | OPSIZE
            | ADDRSIZE
    )
}

/// Is `b` a REX prefix byte (64-bit mode only)?
#[inline]
pub fn is_rex(b: u8) -> bool {
    (b & 0xF0) == 0x40
}

/// Prefixes that do not change the semantics of a `jmpq rel32` instruction
/// and can therefore pad a punned jump (tactic T1).
///
/// REX prefixes (`0x40..=0x4F`) are redundant on `E9` as well; they are
/// handled separately because *any* of the sixteen values works, whereas the
/// bytes listed here are the segment overrides. The operand-size (`0x66`) and
/// address-size (`0x67`) prefixes are deliberately **excluded**: `0x66` may
/// truncate the instruction pointer on some implementations and `0x67` is
/// meaningless but reserved, so a conservative rewriter avoids both (E9Patch
/// does the same).
pub const REDUNDANT_JMP_PREFIXES: [u8; 6] = [SEG_CS, SEG_SS, SEG_DS, SEG_ES, SEG_FS, SEG_GS];

/// The canonical single-byte padding used first by tactic T1: `REX.W`
/// (`0x48`), as in the paper's Figure 1 line T1(a).
pub const REX_W: u8 = 0x48;

/// Is `b` usable as T1 jump padding (redundant on a near jump)?
#[inline]
pub fn is_redundant_jmp_prefix(b: u8) -> bool {
    is_rex(b) || REDUNDANT_JMP_PREFIXES.contains(&b)
}

/// Decoded prefix state accumulated by the decoder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prefixes {
    /// Raw REX byte if present (`0x40..=0x4F`).
    pub rex: Option<u8>,
    /// `lock` prefix present.
    pub lock: bool,
    /// `rep`/`repe` prefix present.
    pub rep: bool,
    /// `repne` prefix present.
    pub repne: bool,
    /// Operand-size override (`0x66`) present.
    pub opsize: bool,
    /// Address-size override (`0x67`) present.
    pub addrsize: bool,
    /// Last segment-override prefix, if any.
    pub segment: Option<u8>,
    /// Total number of prefix bytes consumed (legacy + REX).
    pub count: u8,
}

impl Prefixes {
    /// REX.W bit: promotes the operand size to 64 bits.
    #[inline]
    pub fn rex_w(&self) -> bool {
        self.rex.is_some_and(|r| r & 0x08 != 0)
    }

    /// REX.B bit: extends the ModRM `rm` / SIB `base` / opcode register
    /// field.
    #[inline]
    pub fn rex_b(&self) -> bool {
        self.rex.is_some_and(|r| r & 0x01 != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_prefix_set() {
        for b in [
            0xF0, 0xF2, 0xF3, 0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67,
        ] {
            assert!(is_legacy_prefix(b), "{b:#x} should be a legacy prefix");
        }
        assert!(!is_legacy_prefix(0x90));
        assert!(!is_legacy_prefix(0x48)); // REX is not "legacy"
    }

    #[test]
    fn rex_range() {
        for b in 0x40..=0x4F {
            assert!(is_rex(b));
        }
        assert!(!is_rex(0x3F));
        assert!(!is_rex(0x50));
    }

    #[test]
    fn t1_padding_bytes_are_redundant() {
        // The paper's Figure 1 uses 0x48 (REX.W) and 0x26 (es override).
        assert!(is_redundant_jmp_prefix(0x48));
        assert!(is_redundant_jmp_prefix(0x26));
        // 0x66/0x67 are conservatively rejected.
        assert!(!is_redundant_jmp_prefix(0x66));
        assert!(!is_redundant_jmp_prefix(0x67));
        assert!(!is_redundant_jmp_prefix(0xF0));
    }

    #[test]
    fn rex_bit_accessors() {
        let p = Prefixes {
            rex: Some(0x4D), // W=1 R=1 X=0 B=1
            ..Prefixes::default()
        };
        assert!(p.rex_w());
        assert!(p.rex_b());
    }
}
