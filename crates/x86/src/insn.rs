//! Decoded instruction representation and classification.

use crate::prefix::Prefixes;
use crate::reg::{Reg, Width};
use crate::MAX_INSN_LEN;
use std::fmt;

/// Condition codes for `jcc`, `setcc` and `cmovcc` (the low nibble of the
/// opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Cond {
    O = 0x0,
    No = 0x1,
    B = 0x2,
    Ae = 0x3,
    E = 0x4,
    Ne = 0x5,
    Be = 0x6,
    A = 0x7,
    S = 0x8,
    Ns = 0x9,
    P = 0xA,
    Np = 0xB,
    L = 0xC,
    Ge = 0xD,
    Le = 0xE,
    G = 0xF,
}

impl Cond {
    /// Condition from the low opcode nibble.
    #[inline]
    pub fn from_nibble(n: u8) -> Cond {
        // Safety: all 16 nibble values are covered by the enum.
        unsafe { std::mem::transmute(n & 0x0F) }
    }

    /// Logical negation of the condition (flips the low bit).
    #[inline]
    pub fn negate(self) -> Cond {
        Cond::from_nibble(self as u8 ^ 1)
    }
}

/// The opcode map an instruction was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// One-byte opcode map.
    One(u8),
    /// `0F xx` two-byte map.
    TwoOf(u8),
    /// `0F 38 xx` three-byte map.
    ThreeOf38(u8),
    /// `0F 3A xx` three-byte map.
    ThreeOf3A(u8),
    /// VEX-encoded instruction (map 1–3); the payload is the final opcode
    /// byte. Only length and coarse classification are supported.
    Vex(u8, u8),
}

/// Addressing form of a decoded ModRM memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOperand {
    /// Base register, if any. `None` for absolute/RIP-relative forms.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4, 8), if any.
    pub index: Option<(Reg, u8)>,
    /// Sign-extended displacement.
    pub disp: i32,
    /// RIP-relative addressing (`[rip + disp32]`).
    pub rip_relative: bool,
}

/// Decoded ModRM (and optional SIB) information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModRm {
    /// The raw ModRM byte.
    pub byte: u8,
    /// `reg` field with REX.R folded in (register operand or opcode
    /// extension, depending on the instruction).
    pub reg: u8,
    /// `rm` field with REX.B folded in (meaningful for register-direct
    /// forms).
    pub rm: u8,
    /// Memory operand if `mod != 3`.
    pub mem: Option<MemOperand>,
    /// Byte offset of the displacement field within the instruction, if any.
    pub disp_offset: u8,
    /// Size of the displacement field in bytes (0, 1 or 4).
    pub disp_len: u8,
}

impl ModRm {
    /// `mod == 3`: the `rm` operand is a register, not memory.
    #[inline]
    pub fn is_reg_direct(&self) -> bool {
        self.mem.is_none()
    }
}

/// Coarse instruction classification used by the rewriter and emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `jmp rel8` (`EB`).
    JmpRel8,
    /// `jmpq rel32` (`E9`).
    JmpRel32,
    /// `jcc rel8` (`70+cc`).
    JccRel8(Cond),
    /// `jcc rel32` (`0F 80+cc`).
    JccRel32(Cond),
    /// `callq rel32` (`E8`).
    CallRel32,
    /// Indirect jump (`FF /4`) through register or memory.
    JmpInd,
    /// Indirect call (`FF /2`).
    CallInd,
    /// `ret` / `ret imm16`.
    Ret,
    /// `int3` trap.
    Int3,
    /// `syscall`.
    Syscall,
    /// `loop`/`loope`/`loopne`/`jrcxz` (`E0..E3`, rel8).
    LoopRel8,
    /// Anything else.
    Other,
}

impl Kind {
    /// Is this any flavour of relative branch (the displacement must be
    /// re-encoded when the instruction moves)?
    #[inline]
    pub fn is_relative_branch(self) -> bool {
        matches!(
            self,
            Kind::JmpRel8
                | Kind::JmpRel32
                | Kind::JccRel8(_)
                | Kind::JccRel32(_)
                | Kind::CallRel32
                | Kind::LoopRel8
        )
    }

    /// Is this a `jmp`/`jcc` instruction (the paper's application **A1**)?
    /// Calls and returns are excluded, matching the paper's
    /// "all jmp/jcc jump instructions".
    #[inline]
    pub fn is_jump(self) -> bool {
        matches!(
            self,
            Kind::JmpRel8 | Kind::JmpRel32 | Kind::JccRel8(_) | Kind::JccRel32(_) | Kind::JmpInd
        )
    }
}

/// A fully decoded instruction.
///
/// Produced by [`crate::decode::decode`]. The byte image is retained so the
/// rewriter can reason about pun windows without re-reading the binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    /// Virtual address the instruction was decoded at.
    pub addr: u64,
    bytes: [u8; MAX_INSN_LEN],
    len: u8,
    /// Decoded prefix state.
    pub prefixes: Prefixes,
    /// Opcode map + byte.
    pub opcode: Opcode,
    /// ModRM/SIB information, if the opcode takes one.
    pub modrm: Option<ModRm>,
    /// Sign-extended immediate value, if any.
    pub imm: i64,
    /// Byte offset of the immediate within the instruction.
    pub imm_offset: u8,
    /// Size of the immediate in bytes (0 if none).
    pub imm_len: u8,
    /// Coarse classification.
    pub kind: Kind,
    /// Effective operand width (8/16/32/64) after prefixes.
    pub width: Width,
}

impl Insn {
    /// Construct from raw parts (used by the decoder).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        addr: u64,
        raw: &[u8],
        prefixes: Prefixes,
        opcode: Opcode,
        modrm: Option<ModRm>,
        imm: i64,
        imm_offset: u8,
        imm_len: u8,
        kind: Kind,
        width: Width,
    ) -> Insn {
        let mut bytes = [0u8; MAX_INSN_LEN];
        bytes[..raw.len()].copy_from_slice(raw);
        Insn {
            addr,
            bytes,
            len: raw.len() as u8,
            prefixes,
            opcode,
            modrm,
            imm,
            imm_offset,
            imm_len,
            kind,
            width,
        }
    }

    /// Instruction length in bytes (1..=15).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Never true: a decoded instruction has at least one byte.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The instruction's machine-code bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Address of the next instruction (`addr + len`).
    #[inline]
    pub fn end(&self) -> u64 {
        self.addr + self.len as u64
    }

    /// For relative branches: the target address (`end + imm`).
    ///
    /// Returns `None` for non-relative-branch instructions.
    #[inline]
    pub fn branch_target(&self) -> Option<u64> {
        if self.kind.is_relative_branch() {
            Some(self.end().wrapping_add(self.imm as u64))
        } else {
            None
        }
    }

    /// Does this instruction read or write memory through its ModRM operand?
    #[inline]
    pub fn has_mem_operand(&self) -> bool {
        self.modrm.is_some_and(|m| m.mem.is_some())
    }

    /// Does the instruction **write** to memory?
    ///
    /// This is the per-opcode store classification used by the paper's
    /// application **A2** ("all instructions that may write to heap
    /// pointers"); `lea` and pure loads return `false`, `cmp`/`test` return
    /// `false`, read-modify-write instructions return `true`. `push` writes
    /// through `%rsp` and is classified as a memory write here; A2 filtering
    /// of stack/global writes happens in [`Insn::is_heap_write`].
    pub fn writes_memory(&self) -> bool {
        let Some(m) = self.modrm else {
            // Only string stores and push write memory without ModRM; pushes
            // and string ops write through rsp/rdi which A2 excludes anyway,
            // but report stos/movs truthfully.
            return matches!(
                self.opcode,
                Opcode::One(0xAA) | Opcode::One(0xAB) | Opcode::One(0xA4) | Opcode::One(0xA5)
            );
        };
        if m.mem.is_none() {
            return false;
        }
        match self.opcode {
            // add/or/adc/sbb/and/sub/xor with r/m destination (even opcodes
            // 00/01, 08/09, ...); 38/39 is cmp (no write).
            Opcode::One(
                op @ (0x00 | 0x01 | 0x08 | 0x09 | 0x10 | 0x11 | 0x18 | 0x19 | 0x20 | 0x21 | 0x28
                | 0x29 | 0x30 | 0x31),
            ) => {
                debug_assert!(op & 2 == 0);
                true
            }
            // Immediate group 1: 80/81/83; /7 is cmp.
            Opcode::One(0x80 | 0x81 | 0x83) => m.reg & 7 != 7,
            // xchg always writes both operands.
            Opcode::One(0x86 | 0x87) => true,
            // mov r/m, r and mov r/m, imm.
            Opcode::One(0x88 | 0x89) => true,
            Opcode::One(0xC6 | 0xC7) => true,
            // pop r/m64.
            Opcode::One(0x8F) => true,
            // Shift groups C0/C1/D0-D3 write their r/m operand.
            Opcode::One(0xC0 | 0xC1 | 0xD0 | 0xD1 | 0xD2 | 0xD3) => true,
            // Group 3 (F6/F7): not (/2) and neg (/3) write; test/mul/div do
            // not write memory.
            Opcode::One(0xF6 | 0xF7) => matches!(m.reg & 7, 2 | 3),
            // Group 4/5: inc (/0) and dec (/1) write.
            Opcode::One(0xFE | 0xFF) => matches!(m.reg & 7, 0 | 1),
            // movzx/movsx/lea/loads never write; cmp/test never write.
            Opcode::One(_) => false,
            // setcc writes a byte.
            Opcode::TwoOf(op @ 0x90..=0x9F) => {
                let _ = op;
                true
            }
            // cmpxchg, xadd.
            Opcode::TwoOf(0xB0 | 0xB1 | 0xC0 | 0xC1) => true,
            // bts/btr/btc with memory operand write; bt (A3) does not.
            Opcode::TwoOf(0xAB | 0xB3 | 0xBB) => true,
            // Group 8 (BA): /4 bt is read-only, /5-/7 write.
            Opcode::TwoOf(0xBA) => m.reg & 7 >= 5,
            // shld/shrd.
            Opcode::TwoOf(0xA4 | 0xA5 | 0xAC | 0xAD) => true,
            // SSE/MMX stores: mov{u,a}ps/pd with memory destination, movnti,
            // movdq{a,u} store forms, movq store.
            Opcode::TwoOf(0x11 | 0x13 | 0x17 | 0x29 | 0x2B | 0x7E | 0x7F | 0xC3 | 0xD6 | 0xE7) => {
                true
            }
            Opcode::TwoOf(_) => false,
            Opcode::ThreeOf38(_) | Opcode::ThreeOf3A(_) | Opcode::Vex(_, _) => false,
        }
    }

    /// Application **A2** site filter: writes memory through a pointer that
    /// is neither `%rsp`-based (stack) nor RIP-relative (globals).
    pub fn is_heap_write(&self) -> bool {
        if !self.writes_memory() {
            return false;
        }
        let Some(m) = self.modrm else { return false };
        let Some(mem) = m.mem else { return false };
        if mem.rip_relative {
            return false;
        }
        if mem.base == Some(Reg::Rsp) {
            return false;
        }
        true
    }

    /// Byte offset of the relative-branch displacement field within the
    /// instruction, if this is a relative branch.
    #[inline]
    pub fn branch_disp_offset(&self) -> Option<(u8, u8)> {
        if self.kind.is_relative_branch() {
            Some((self.imm_offset, self.imm_len))
        } else {
            None
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}:", self.addr)?;
        for b in self.bytes() {
            write!(f, " {b:02x}")?;
        }
        write!(f, " ({:?})", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_negation() {
        assert_eq!(Cond::E.negate(), Cond::Ne);
        assert_eq!(Cond::L.negate(), Cond::Ge);
        assert_eq!(Cond::O.negate(), Cond::No);
        for n in 0..16 {
            let c = Cond::from_nibble(n);
            assert_eq!(c.negate().negate(), c);
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(Kind::JmpRel8.is_relative_branch());
        assert!(Kind::CallRel32.is_relative_branch());
        assert!(!Kind::JmpInd.is_relative_branch());
        assert!(Kind::JmpInd.is_jump());
        assert!(!Kind::CallRel32.is_jump());
        assert!(!Kind::Ret.is_jump());
    }
}
