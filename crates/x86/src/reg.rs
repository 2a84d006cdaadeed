//! General-purpose register model.

use std::fmt;

/// A 64-bit general-purpose register.
///
/// The numeric value is the hardware encoding (0–15) used in ModRM/SIB and
/// opcode-embedded register fields (with the REX extension bit folded in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    /// All sixteen general-purpose registers in encoding order.
    pub const ALL: [Reg; 16] = [
        Reg::Rax,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rbx,
        Reg::Rsp,
        Reg::Rbp,
        Reg::Rsi,
        Reg::Rdi,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Hardware encoding (0–15).
    #[inline]
    pub fn num(self) -> u8 {
        self as u8
    }

    /// Low three encoding bits (the ModRM field without the REX extension).
    #[inline]
    pub fn low3(self) -> u8 {
        self.num() & 7
    }

    /// Whether encoding this register requires a REX extension bit.
    #[inline]
    pub fn needs_rex(self) -> bool {
        self.num() >= 8
    }

    /// Register from its hardware encoding.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    #[inline]
    pub fn from_num(n: u8) -> Reg {
        Reg::ALL[n as usize]
    }

    /// AT&T-style name of the 64-bit register.
    pub fn name64(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11",
            "r12", "r13", "r14", "r15",
        ];
        NAMES[self.num() as usize]
    }

    /// Register name at a given operand width. For byte width,
    /// `rex_present` selects between the uniform low-byte names
    /// (`spl`/`sil`/…) and the legacy high-byte names (`ah`/`ch`/…) for
    /// encodings 4–7.
    pub fn name_w(self, w: Width, rex_present: bool) -> &'static str {
        const N32: [&str; 16] = [
            "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d", "r10d", "r11d",
            "r12d", "r13d", "r14d", "r15d",
        ];
        const N16: [&str; 16] = [
            "ax", "cx", "dx", "bx", "sp", "bp", "si", "di", "r8w", "r9w", "r10w", "r11w", "r12w",
            "r13w", "r14w", "r15w",
        ];
        const N8: [&str; 16] = [
            "al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil", "r8b", "r9b", "r10b", "r11b",
            "r12b", "r13b", "r14b", "r15b",
        ];
        const N8_LEGACY_HIGH: [&str; 4] = ["ah", "ch", "dh", "bh"];
        let i = self.num() as usize;
        match w {
            Width::Q => self.name64(),
            Width::D => N32[i],
            Width::W => N16[i],
            Width::B => {
                if !rex_present && (4..8).contains(&i) {
                    N8_LEGACY_HIGH[i - 4]
                } else {
                    N8[i]
                }
            }
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.name64())
    }
}

impl From<Reg> for u8 {
    fn from(r: Reg) -> u8 {
        r.num()
    }
}

/// Operand width for instructions that come in several sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 8-bit operands.
    B,
    /// 16-bit operands (operand-size prefix `0x66`).
    W,
    /// 32-bit operands (the 64-bit-mode default).
    D,
    /// 64-bit operands (`REX.W`).
    Q,
}

impl Width {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u8 {
        match self {
            Width::B => 1,
            Width::W => 2,
            Width::D => 4,
            Width::Q => 8,
        }
    }

    /// Width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        self.bytes() as u32 * 8
    }

    /// Mask selecting the low `bits()` of a 64-bit value.
    #[inline]
    pub fn mask(self) -> u64 {
        match self {
            Width::Q => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }

    /// Sign-extend the low `bits()` of `v` to 64 bits.
    #[inline]
    pub fn sext(self, v: u64) -> i64 {
        let sh = 64 - self.bits();
        ((v << sh) as i64) >> sh
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Width::B => 'b',
            Width::W => 'w',
            Width::D => 'l',
            Width::Q => 'q',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_roundtrip() {
        for n in 0..16 {
            assert_eq!(Reg::from_num(n).num(), n);
        }
    }

    #[test]
    fn rex_extension_split() {
        assert!(!Reg::Rdi.needs_rex());
        assert!(Reg::R8.needs_rex());
        assert_eq!(Reg::R13.low3(), Reg::Rbp.low3());
    }

    #[test]
    fn width_masks() {
        assert_eq!(Width::B.mask(), 0xFF);
        assert_eq!(Width::W.mask(), 0xFFFF);
        assert_eq!(Width::D.mask(), 0xFFFF_FFFF);
        assert_eq!(Width::Q.mask(), u64::MAX);
    }

    #[test]
    fn width_sign_extension() {
        assert_eq!(Width::B.sext(0x80), -128);
        assert_eq!(Width::B.sext(0x7F), 127);
        assert_eq!(Width::D.sext(0xFFFF_FFFF), -1);
        assert_eq!(Width::Q.sext(u64::MAX), -1);
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::Rax.to_string(), "%rax");
        assert_eq!(Reg::R15.to_string(), "%r15");
    }
}
