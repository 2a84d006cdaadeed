//! Decoded instruction representation and classification.

use crate::prefix::{self, Prefixes};
use crate::reg::{Reg, Width};
use crate::MAX_INSN_LEN;
use std::borrow::Cow;
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

    /// Does this instruction always leave for somewhere other than its
    /// fall-through (`jmp` or `ret`)? A relocated copy of it needs no
    /// jump back.
    #[inline]
    pub fn diverts(self) -> bool {
        matches!(
            self,
            Kind::Ret | Kind::JmpRel8 | Kind::JmpRel32 | Kind::JmpInd
        )
    }
}

/// Flag bit of [`Insn`]: the ModRM operand is memory.
pub(crate) const MEM: u8 = 1 << 0;
/// Flag bit of [`Insn`]: [`Insn::writes_memory`].
pub(crate) const WRITES: u8 = 1 << 1;
/// Flag bit of [`Insn`]: [`Insn::is_heap_write`].
pub(crate) const HEAP: u8 = 1 << 2;

/// A decoded instruction in a 32-byte record.
///
/// Produced by [`crate::decode::decode`]. The record stores the address,
/// the instruction bytes and a few offsets: the prefix count, where the
/// ModRM byte sits and how long the immediate is (an immediate is always
/// an instruction's last bytes). The decoder also stores the bits the
/// hot predicates answer ([`Insn::writes_memory`],
/// [`Insn::is_heap_write`], [`Insn::has_mem_operand`]). Prefixes,
/// opcode, ModRM/SIB operands and the immediate are read back from the
/// bytes on demand, so a linear sweep writes less than half the memory a
/// record of every decoded field would.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    /// Virtual address the instruction was decoded at.
    pub addr: u64,
    /// The instruction bytes, zero past the end, with the length in the
    /// last byte (an instruction has at most 15).
    pub(crate) code: [u8; MAX_INSN_LEN + 1],
    /// Coarse classification.
    pub kind: Kind,
    /// Effective operand width (8/16/32/64) after prefixes.
    pub width: Width,
    /// Number of prefix bytes (legacy + REX) before the opcode.
    pub(crate) npfx: u8,
    /// Offset of the ModRM byte, or 0 if the opcode takes none.
    pub(crate) modrm_at: u8,
    /// Size of the immediate in bytes (0 if none).
    pub(crate) imm_len: u8,
    /// [`MEM`], [`WRITES`] and [`HEAP`].
    pub(crate) flags: u8,
}

const _: () = assert!(std::mem::size_of::<Insn>() <= 32);

/// Where a ModRM memory operand's SIB and displacement sit: whether a SIB
/// byte follows the ModRM byte `m`, and the displacement's size (0, 1 or
/// 4). `sib` is the byte after `m`, read only when a SIB is present.
#[inline]
pub(crate) fn mem_layout(m: u8, sib: u8) -> (bool, u8) {
    let rm3 = m & 7;
    let has_sib = rm3 == 4;
    let disp_len = match m >> 6 {
        1 => 1,
        2 => 4,
        // mod 0: no displacement, except RIP-relative and SIB without
        // a base, which take a disp32.
        _ => {
            if (has_sib && sib & 7 == 5) || (!has_sib && rm3 == 5) {
                4
            } else {
                0
            }
        }
    };
    (has_sib, disp_len)
}

/// Little-endian signed value of `bytes` (at most 8), sign-extended.
pub(crate) fn read_signed(bytes: &[u8]) -> i64 {
    let mut v: u64 = 0;
    for (i, b) in bytes.iter().enumerate() {
        v |= (*b as u64) << (8 * i);
    }
    let bits = bytes.len() as u32 * 8;
    if bits == 0 || bits == 64 {
        v as i64
    } else {
        let sh = 64 - bits;
        ((v << sh) as i64) >> sh
    }
}

/// Does an instruction with `opcode` and ModRM byte `modrm` (if the
/// opcode takes one) write memory? See [`Insn::writes_memory`].
pub(crate) fn stores(opcode: Opcode, modrm: Option<u8>) -> bool {
    let Some(m) = modrm else {
        // Only string stores and push write memory without ModRM; pushes
        // and string ops write through rsp/rdi which A2 excludes anyway,
        // but report stos/movs truthfully.
        return matches!(
            opcode,
            Opcode::One(0xAA) | Opcode::One(0xAB) | Opcode::One(0xA4) | Opcode::One(0xA5)
        );
    };
    if m >> 6 == 3 {
        return false;
    }
    let ext = (m >> 3) & 7;
    match opcode {
        // add/or/adc/sbb/and/sub/xor with r/m destination (even opcodes
        // 00/01, 08/09, ...); 38/39 is cmp (no write).
        Opcode::One(
            op @ (0x00 | 0x01 | 0x08 | 0x09 | 0x10 | 0x11 | 0x18 | 0x19 | 0x20 | 0x21 | 0x28 | 0x29
            | 0x30 | 0x31),
        ) => {
            debug_assert!(op & 2 == 0);
            true
        }
        // Immediate group 1: 80/81/83; /7 is cmp.
        Opcode::One(0x80 | 0x81 | 0x83) => ext != 7,
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
        Opcode::One(0xF6 | 0xF7) => matches!(ext, 2 | 3),
        // Group 4/5: inc (/0) and dec (/1) write.
        Opcode::One(0xFE | 0xFF) => matches!(ext, 0 | 1),
        // movzx/movsx/lea/loads never write; cmp/test never write.
        Opcode::One(_) => false,
        // setcc writes a byte.
        Opcode::TwoOf(0x90..=0x9F) => true,
        // cmpxchg, xadd.
        Opcode::TwoOf(0xB0 | 0xB1 | 0xC0 | 0xC1) => true,
        // bts/btr/btc with memory operand write; bt (A3) does not.
        Opcode::TwoOf(0xAB | 0xB3 | 0xBB) => true,
        // Group 8 (BA): /4 bt is read-only, /5-/7 write.
        Opcode::TwoOf(0xBA) => ext >= 5,
        // shld/shrd.
        Opcode::TwoOf(0xA4 | 0xA5 | 0xAC | 0xAD) => true,
        // SSE/MMX stores: mov{u,a}ps/pd with memory destination, movnti,
        // movdq{a,u} store forms, movq store.
        Opcode::TwoOf(0x11 | 0x13 | 0x17 | 0x29 | 0x2B | 0x7E | 0x7F | 0xC3 | 0xD6 | 0xE7) => true,
        Opcode::TwoOf(_) => false,
        Opcode::ThreeOf38(_) | Opcode::ThreeOf3A(_) | Opcode::Vex(_, _) => false,
    }
}

impl Insn {
    /// Instruction length in bytes (1..=15).
    #[inline]
    pub fn len(&self) -> usize {
        self.code[MAX_INSN_LEN] as usize
    }

    /// Never true: a decoded instruction has at least one byte.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The instruction's machine-code bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.code[..self.len()]
    }

    /// The record the bytes are kept in: the instruction's bytes, zero
    /// past its end, then its length in the last byte. A copy of the
    /// whole record has a fixed size, so it needs no length-dependent
    /// copy; the first [`Insn::len`] bytes are [`Insn::bytes`].
    #[inline]
    pub fn padded_bytes(&self) -> &[u8; MAX_INSN_LEN + 1] {
        &self.code
    }

    /// Address of the next instruction (`addr + len`).
    #[inline]
    pub fn end(&self) -> u64 {
        self.addr + self.len() as u64
    }

    /// The REX byte, or 0 if none takes effect: a REX prefix counts only
    /// when it is the last prefix before the opcode.
    #[inline]
    fn rex(&self) -> u8 {
        let last = self.npfx.checked_sub(1).map(|i| self.code[i as usize]);
        last.filter(|&b| prefix::is_rex(b)).unwrap_or(0)
    }

    /// Decoded prefix state.
    pub fn prefixes(&self) -> Prefixes {
        let mut p = Prefixes {
            count: self.npfx,
            ..Prefixes::default()
        };
        for &b in &self.code[..self.npfx as usize] {
            if prefix::is_rex(b) {
                p.rex = Some(b);
                continue;
            }
            p.rex = None; // a legacy prefix after REX voids the REX
            match b {
                prefix::LOCK => p.lock = true,
                prefix::REP => p.rep = true,
                prefix::REPNE => p.repne = true,
                prefix::OPSIZE => p.opsize = true,
                prefix::ADDRSIZE => p.addrsize = true,
                _ => p.segment = Some(b),
            }
        }
        p
    }

    /// Opcode map + byte.
    #[inline]
    pub fn opcode(&self) -> Opcode {
        let c = &self.code;
        let at = self.npfx as usize;
        match c[at] {
            0x0F => match c[at + 1] {
                0x38 => Opcode::ThreeOf38(c[at + 2]),
                0x3A => Opcode::ThreeOf3A(c[at + 2]),
                b1 => Opcode::TwoOf(b1),
            },
            0xC4 => Opcode::Vex(c[at + 1] & 0x1F, c[at + 3]),
            0xC5 => Opcode::Vex(1, c[at + 2]),
            b0 => Opcode::One(b0),
        }
    }

    /// ModRM/SIB information, if the opcode takes one.
    pub fn modrm(&self) -> Option<ModRm> {
        let at = self.modrm_at as usize;
        if at == 0 {
            return None;
        }
        let c = &self.code;
        let rex = self.rex();
        let m = c[at];
        let md = m >> 6;
        let rm3 = m & 7;
        let rm = rm3 | (rex & 1) << 3;
        let mut info = ModRm {
            byte: m,
            reg: (m >> 3) & 7 | (rex & 4) << 1,
            rm,
            mem: None,
            disp_offset: 0,
            disp_len: 0,
        };
        if md == 3 {
            return Some(info);
        }
        // A memory operand ends before the 15th byte, so the byte after
        // the ModRM byte is inside the record.
        let sib = c[at + 1];
        let (has_sib, disp_len) = mem_layout(m, sib);
        let mut mem = MemOperand {
            base: None,
            index: None,
            disp: 0,
            rip_relative: false,
        };
        if has_sib {
            let index = (sib >> 3) & 7 | (rex & 2) << 2;
            if index != 4 {
                mem.index = Some((Reg::from_num(index), 1 << (sib >> 6)));
            }
            if !(sib & 7 == 5 && md == 0) {
                mem.base = Some(Reg::from_num(sib & 7 | (rex & 1) << 3));
            }
        } else if rm3 == 5 && md == 0 {
            // RIP-relative in 64-bit mode.
            mem.rip_relative = true;
        } else {
            mem.base = Some(Reg::from_num(rm));
        }
        if disp_len > 0 {
            let off = at + 1 + has_sib as usize;
            info.disp_offset = off as u8;
            info.disp_len = disp_len;
            mem.disp = read_signed(&c[off..off + disp_len as usize]) as i32;
        }
        info.mem = Some(mem);
        Some(info)
    }

    /// Sign-extended immediate value (0 if none).
    #[inline]
    pub fn imm(&self) -> i64 {
        let off = self.imm_offset() as usize;
        read_signed(&self.code[off..off + self.imm_len as usize])
    }

    /// Byte offset of the immediate within the instruction: its last
    /// [`imm_len`](Insn::imm_len) bytes.
    #[inline]
    pub fn imm_offset(&self) -> u8 {
        self.code[MAX_INSN_LEN] - self.imm_len
    }

    /// Size of the immediate in bytes (0 if none).
    #[inline]
    pub fn imm_len(&self) -> u8 {
        self.imm_len
    }

    /// For relative branches: the target address (`end + imm`).
    ///
    /// Returns `None` for non-relative-branch instructions.
    #[inline]
    pub fn branch_target(&self) -> Option<u64> {
        if self.kind.is_relative_branch() {
            Some(self.end().wrapping_add(self.imm() as u64))
        } else {
            None
        }
    }

    /// Does this instruction read or write memory through its ModRM operand?
    #[inline]
    pub fn has_mem_operand(&self) -> bool {
        self.flags & MEM != 0
    }

    /// Does the instruction **write** to memory?
    ///
    /// This is the per-opcode store classification used by the paper's
    /// application **A2** ("all instructions that may write to heap
    /// pointers"); `lea` and pure loads return `false`, `cmp`/`test` return
    /// `false`, read-modify-write instructions return `true`. `push` writes
    /// through `%rsp` and is classified as a memory write here; A2 filtering
    /// of stack/global writes happens in [`Insn::is_heap_write`].
    #[inline]
    pub fn writes_memory(&self) -> bool {
        self.flags & WRITES != 0
    }

    /// Application **A2** site filter: writes memory through a ModRM
    /// pointer that is neither `%rsp`-based (stack) nor RIP-relative
    /// (globals).
    #[inline]
    pub fn is_heap_write(&self) -> bool {
        self.flags & HEAP != 0
    }
}

impl fmt::Debug for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Insn")
            .field("addr", &self.addr)
            .field("bytes", &self.bytes())
            .field("prefixes", &self.prefixes())
            .field("opcode", &self.opcode())
            .field("modrm", &self.modrm())
            .field("imm", &self.imm())
            .field("imm_offset", &self.imm_offset())
            .field("imm_len", &self.imm_len)
            .field("kind", &self.kind)
            .field("width", &self.width)
            .finish()
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

/// `insns` sorted by address with one entry per address: borrowed when
/// it already is, else a sorted copy in which the last entry for an
/// address wins, as collecting `(addr, insn)` pairs into a map would
/// keep it. Every consumer that indexes a disassembly by address reads
/// it through this one rule.
pub fn by_address(insns: &[Insn]) -> Cow<'_, [Insn]> {
    if insns.windows(2).all(|w| w[0].addr < w[1].addr) {
        return Cow::Borrowed(insns);
    }
    let mut v = insns.to_vec();
    // Stable, so the entries for one address keep their input order;
    // reversed, deduplication keeps each address's last entry.
    v.sort_by_key(|i| i.addr);
    v.reverse();
    v.dedup_by_key(|i| i.addr);
    v.reverse();
    Cow::Owned(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Insn>() <= 32);
        assert_eq!(std::mem::size_of::<Kind>(), 2);
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
