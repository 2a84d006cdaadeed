//! x86_64 instruction decoder.
//!
//! A table-driven length decoder with enough operand extraction for the
//! rewriter (branch kinds, displacement/immediate offsets, pun geometry) and
//! the emulator (ModRM operands, immediates). It covers the full one-byte
//! map, the `0F` two-byte map, the `0F 38`/`0F 3A` three-byte maps and VEX
//! (`C4`/`C5`) length decoding.
//!
//! The decoder is deliberately *local*: it decodes one instruction from a
//! byte slice at a given virtual address and never consults global state —
//! mirroring E9Patch's design where disassembly information is an input, not
//! something the rewriter recovers.

use crate::insn::{mem_layout, stores, Cond, Insn, Kind, Opcode, HEAP, MEM, WRITES};
use crate::prefix;
use crate::reg::Width;
use crate::MAX_INSN_LEN;
use std::fmt;

/// Errors produced by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte slice ended before the instruction was complete.
    Truncated,
    /// The opcode is invalid in 64-bit mode.
    Invalid(u8),
    /// The instruction would exceed the 15-byte architectural limit.
    TooLong,
    /// The instruction's end, `addr + len`, does not fit in a `u64`.
    PastAddressSpace,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction truncated"),
            DecodeError::Invalid(b) => write!(f, "invalid opcode {b:#04x} in 64-bit mode"),
            DecodeError::TooLong => write!(f, "instruction exceeds 15 bytes"),
            DecodeError::PastAddressSpace => {
                write!(f, "instruction ends past the 64-bit address space")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// Opcode attribute flags.
const MODRM: u16 = 1 << 0;
const I8: u16 = 1 << 1;
const I16: u16 = 1 << 2;
const IZ: u16 = 1 << 3; // 2 or 4 bytes by operand size
const IV: u16 = 1 << 4; // 2, 4 or 8 bytes (B8..BF only)
const REL8: u16 = 1 << 5;
const RELZ: u16 = 1 << 6; // always 4 in 64-bit mode
const MOFFS: u16 = 1 << 7; // address-size immediate (8, or 4 with 0x67)
const ENTER: u16 = 1 << 8; // imm16 + imm8
const INV: u16 = 1 << 9; // invalid in 64-bit mode
const GRPIMM: u16 = 1 << 10; // F6/F7: imm present iff modrm.reg is 0 or 1

const fn attr_one(op: u8) -> u16 {
    match op {
        // ALU r/m forms: add, or, adc, sbb, and, sub, xor, cmp.
        0x00..=0x03
        | 0x08..=0x0B
        | 0x10..=0x13
        | 0x18..=0x1B
        | 0x20..=0x23
        | 0x28..=0x2B
        | 0x30..=0x33
        | 0x38..=0x3B => MODRM,
        // ALU accumulator-immediate forms.
        0x04 | 0x0C | 0x14 | 0x1C | 0x24 | 0x2C | 0x34 | 0x3C => I8,
        0x05 | 0x0D | 0x15 | 0x1D | 0x25 | 0x2D | 0x35 | 0x3D => IZ,
        // Legacy segment push/pop, BCD adjust, pusha/popa, bound, far call,
        // les/lds (reused as VEX, handled before the table), salc, etc.
        0x06 | 0x07 | 0x0E | 0x16 | 0x17 | 0x1E | 0x1F | 0x27 | 0x2F | 0x37 | 0x3F | 0x60
        | 0x61 | 0x62 | 0x82 | 0x9A | 0xC4 | 0xC5 | 0xD4 | 0xD5 | 0xD6 | 0xEA => INV,
        // 0x0F two-byte escape and prefixes are consumed before table lookup;
        // mark them invalid here so stray lookups are caught.
        0x0F | 0x26 | 0x2E | 0x36 | 0x3E | 0x40..=0x4F | 0x64..=0x67 | 0xF0 | 0xF2 | 0xF3 => INV,
        0x50..=0x5F => 0, // push/pop r64
        0x63 => MODRM,    // movsxd
        0x68 => IZ,       // push imm
        0x69 => MODRM | IZ,
        0x6A => I8, // push imm8
        0x6B => MODRM | I8,
        0x6C..=0x6F => 0,    // ins/outs
        0x70..=0x7F => REL8, // jcc rel8
        0x80 => MODRM | I8,
        0x81 => MODRM | IZ,
        0x83 => MODRM | I8,
        0x84..=0x8F => MODRM, // test/xchg/mov/lea/mov-seg/pop r/m
        0x90..=0x99 => 0,     // nop/xchg/cwde/cdq
        0x9B..=0x9F => 0,     // wait/pushf/popf/sahf/lahf
        0xA0..=0xA3 => MOFFS, // mov moffs
        0xA4..=0xA7 => 0,     // movs/cmps
        0xA8 => I8,
        0xA9 => IZ,
        0xAA..=0xAF => 0,  // stos/lods/scas
        0xB0..=0xB7 => I8, // mov r8, imm8
        0xB8..=0xBF => IV, // mov r, imm
        0xC0 | 0xC1 => MODRM | I8,
        0xC2 => I16, // ret imm16
        0xC3 => 0,
        0xC6 => MODRM | I8,
        0xC7 => MODRM | IZ,
        0xC8 => ENTER,
        0xC9 => 0,
        0xCA => I16,
        0xCB..=0xCC => 0,
        0xCD => I8,
        0xCE => INV,
        0xCF => 0,
        0xD0..=0xD3 => MODRM, // shift groups
        0xD7 => 0,            // xlat
        0xD8..=0xDF => MODRM, // x87
        0xE0..=0xE3 => REL8,  // loop/jrcxz
        0xE4..=0xE7 => I8,    // in/out imm8
        0xE8 | 0xE9 => RELZ,
        0xEB => REL8,
        0xEC..=0xEF => 0, // in/out dx
        0xF1 | 0xF4 | 0xF5 => 0,
        0xF6 | 0xF7 => MODRM | GRPIMM,
        0xF8..=0xFD => 0,
        0xFE | 0xFF => MODRM,
    }
}

const fn attr_two(op: u8) -> u16 {
    match op {
        0x00..=0x03 => MODRM, // group 6/7, lar, lsl
        0x05..=0x09 => 0,     // syscall, clts, sysret, invd, wbinvd
        0x0B => 0,            // ud2
        0x0D => MODRM,        // prefetch
        0x0E => 0,            // femms
        0x0F => MODRM | I8,   // 3DNow!
        0x10..=0x17 => MODRM,
        0x18..=0x1F => MODRM, // hint-NOP space (incl. the canonical 0F 1F /0)
        0x20..=0x23 => MODRM, // mov cr/dr
        0x28..=0x2F => MODRM,
        0x30..=0x37 => 0,     // wrmsr/rdtsc/rdmsr/rdpmc/sysenter/sysexit/getsec
        0x40..=0x4F => MODRM, // cmovcc
        0x50..=0x6F => MODRM,
        0x70..=0x73 => MODRM | I8, // pshuf / shift groups
        0x74..=0x76 => MODRM,
        0x77 => 0, // emms
        0x78 | 0x79 => MODRM,
        0x7C..=0x7F => MODRM,
        0x80..=0x8F => RELZ,  // jcc rel32
        0x90..=0x9F => MODRM, // setcc
        0xA0..=0xA2 => 0,     // push/pop fs, cpuid
        0xA3 => MODRM,        // bt
        0xA4 => MODRM | I8,   // shld imm8
        0xA5 => MODRM,
        0xA8..=0xAA => 0, // push/pop gs, rsm
        0xAB => MODRM,
        0xAC => MODRM | I8, // shrd imm8
        0xAD..=0xAF => MODRM,
        0xB0..=0xB7 => MODRM,
        0xB8 | 0xB9 => MODRM, // popcnt (F3), ud1/group10
        0xBA => MODRM | I8,   // group 8
        0xBB..=0xBF => MODRM,
        0xC0 | 0xC1 => MODRM, // xadd
        0xC2 => MODRM | I8,
        0xC3 => MODRM,             // movnti
        0xC4..=0xC6 => MODRM | I8, // pinsrw/pextrw/shufps
        0xC7 => MODRM,             // group 9 (cmpxchg8b/16b)
        0xC8..=0xCF => 0,          // bswap
        0xD0..=0xFF => MODRM,      // MMX/SSE arithmetic
        _ => INV,
    }
}

static TABLE_ONE: [u16; 256] = {
    let mut t = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = attr_one(i as u8);
        i += 1;
    }
    t
};

static TABLE_TWO: [u16; 256] = {
    let mut t = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = attr_two(i as u8);
        i += 1;
    }
    t
};

/// Opcodes in the one-byte map whose operands are 8-bit.
const fn is_byte_op_one(op: u8) -> bool {
    matches!(
        op,
        0x00 | 0x02
            | 0x04
            | 0x08
            | 0x0A
            | 0x0C
            | 0x10
            | 0x12
            | 0x14
            | 0x18
            | 0x1A
            | 0x1C
            | 0x20
            | 0x22
            | 0x24
            | 0x28
            | 0x2A
            | 0x2C
            | 0x30
            | 0x32
            | 0x34
            | 0x38
            | 0x3A
            | 0x3C
            | 0x80
            | 0x84
            | 0x86
            | 0x88
            | 0x8A
            | 0xA0
            | 0xA2
            | 0xA4
            | 0xA6
            | 0xA8
            | 0xAA
            | 0xAC
            | 0xAE
            | 0xB0
            ..=0xB7 | 0xC0 | 0xC6 | 0xCC | 0xD0 | 0xD2 | 0xE4 | 0xE6 | 0xEC | 0xEE | 0xF6 | 0xFE
    )
}

/// Decode one instruction from the start of `bytes`, assumed to reside at
/// virtual address `addr`.
///
/// At most [`MAX_INSN_LEN`] bytes are consumed. The slice may be longer than
/// the instruction.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] if `bytes` ends mid-instruction,
/// [`DecodeError::Invalid`] for opcodes that do not exist in 64-bit mode,
/// [`DecodeError::TooLong`] if prefixes push the instruction past 15 bytes
/// and [`DecodeError::PastAddressSpace`] if it would end past 2^64, so
/// that [`Insn::end`] holds for every decoded instruction.
#[inline]
pub fn decode(bytes: &[u8], addr: u64) -> Result<Insn, DecodeError> {
    // An instruction reads at most 16 bytes (the 16th only to find that
    // it is too long): a fixed-width copy when the input has them, a
    // zero-padded one at its end.
    let mut w = [0u8; MAX_INSN_LEN + 1];
    match bytes.get(..MAX_INSN_LEN + 1) {
        Some(head) => w.copy_from_slice(head),
        None => w[..bytes.len()].copy_from_slice(bytes),
    }
    // Reading up to byte `end`: a short input is reported before the
    // 15-byte limit, read by read, as a byte-at-a-time reader would.
    let need = |end: usize| {
        if end > bytes.len() {
            Err(DecodeError::Truncated)
        } else if end > MAX_INSN_LEN {
            Err(DecodeError::TooLong)
        } else {
            Ok(())
        }
    };
    // Every read below is at an offset below 16; the mask says so.
    let at = |pos: usize| w[pos & MAX_INSN_LEN];

    // Prefix scan: legacy prefixes in any order; a REX byte only takes
    // effect if it immediately precedes the opcode (hardware ignores earlier
    // ones).
    let mut pos = 0;
    let mut rex = 0u8;
    let mut opsize = false;
    let mut addrsize = false;
    loop {
        need(pos + 1)?;
        let b = at(pos);
        if prefix::is_legacy_prefix(b) {
            rex = 0; // a legacy prefix after REX voids the REX
            opsize |= b == prefix::OPSIZE;
            addrsize |= b == prefix::ADDRSIZE;
        } else if prefix::is_rex(b) {
            rex = b;
        } else {
            break;
        }
        pos += 1;
        if pos >= MAX_INSN_LEN {
            return Err(DecodeError::TooLong);
        }
    }
    let npfx = pos;
    let rex_w = rex & 0x08 != 0;

    // Opcode dispatch.
    need(pos + 1)?;
    let b0 = at(pos);
    pos += 1;
    let (opcode, attrs) = match b0 {
        0x0F => {
            need(pos + 1)?;
            let b1 = at(pos);
            pos += 1;
            match b1 {
                0x38 | 0x3A => {
                    need(pos + 1)?;
                    let b2 = at(pos);
                    pos += 1;
                    if b1 == 0x38 {
                        (Opcode::ThreeOf38(b2), MODRM)
                    } else {
                        (Opcode::ThreeOf3A(b2), MODRM | I8)
                    }
                }
                _ => {
                    let a = TABLE_TWO[b1 as usize];
                    if a & INV != 0 {
                        return Err(DecodeError::Invalid(b1));
                    }
                    (Opcode::TwoOf(b1), a)
                }
            }
        }
        // VEX (C4 = 3-byte, C5 = 2-byte). LES/LDS do not exist in 64-bit
        // mode so these bytes are always VEX.
        0xC4 => {
            for _ in 0..3 {
                need(pos + 1)?;
                pos += 1;
            }
            let map = at(pos - 3) & 0x1F;
            let op = at(pos - 1);
            let a = match map {
                1 => TABLE_TWO[op as usize] & (MODRM | I8),
                2 => MODRM,
                3 => MODRM | I8,
                _ => return Err(DecodeError::Invalid(0xC4)),
            };
            (Opcode::Vex(map, op), a)
        }
        0xC5 => {
            for _ in 0..2 {
                need(pos + 1)?;
                pos += 1;
            }
            let op = at(pos - 1);
            let a = TABLE_TWO[op as usize] & (MODRM | I8);
            (Opcode::Vex(1, op), a)
        }
        _ => {
            let a = TABLE_ONE[b0 as usize];
            if a & INV != 0 {
                return Err(DecodeError::Invalid(b0));
            }
            (Opcode::One(b0), a)
        }
    };

    // ModRM / SIB / displacement: their geometry and the hot predicates'
    // bits; the operands themselves are read back by `Insn::modrm`.
    let mut modrm = None;
    let mut modrm_at = 0;
    let mut flags = 0u8;
    let mut heap_pointer = false;
    if attrs & MODRM != 0 {
        need(pos + 1)?;
        let m = at(pos);
        modrm = Some(m);
        modrm_at = pos;
        pos += 1;
        if m >> 6 != 3 {
            flags |= MEM;
            // The SIB byte, if this form has one.
            let sib = at(pos);
            let (has_sib, disp_len) = mem_layout(m, sib);
            let rip_relative = !has_sib && m & 0xC7 == 0x05;
            let rsp_based = has_sib && sib & 7 == 4 && rex & 0x01 == 0;
            if has_sib {
                need(pos + 1)?;
                pos += 1;
            }
            need(pos + disp_len as usize)?;
            pos += disp_len as usize;
            heap_pointer = !rip_relative && !rsp_based;
        }
    }

    // Immediate.
    let imm_size: usize = if attrs & I8 != 0 {
        1
    } else if attrs & I16 != 0 {
        2
    } else if attrs & IZ != 0 {
        if opsize {
            2
        } else {
            4
        }
    } else if attrs & IV != 0 {
        if rex_w {
            8
        } else if opsize {
            2
        } else {
            4
        }
    } else if attrs & REL8 != 0 {
        1
    } else if attrs & RELZ != 0 {
        // Near-branch displacements stay 32-bit in 64-bit mode.
        4
    } else if attrs & MOFFS != 0 {
        if addrsize {
            4
        } else {
            8
        }
    } else if attrs & ENTER != 0 {
        3
    } else if attrs & GRPIMM != 0 {
        // F6/F7 group 3: test takes an immediate (reg field 0 or 1).
        match modrm.map(|m| (m >> 3) & 7) {
            Some(0) | Some(1) => {
                if b0 == 0xF6 {
                    1
                } else if opsize {
                    2
                } else {
                    4
                }
            }
            _ => 0,
        }
    } else {
        0
    };
    if imm_size > 0 {
        need(pos + imm_size)?;
        pos += imm_size;
    }

    let len = pos;
    if addr.checked_add(len as u64).is_none() {
        return Err(DecodeError::PastAddressSpace);
    }

    // Effective operand width.
    let byte_op = match opcode {
        Opcode::One(op) => is_byte_op_one(op),
        // setcc, cmpxchg8, xadd8 are byte ops; movzx/movsx are NOT — their
        // destination takes the full operand size.
        Opcode::TwoOf(op) => matches!(op, 0x90..=0x9F | 0xB0 | 0xC0),
        _ => false,
    };
    let width = if byte_op {
        Width::B
    } else if rex_w {
        Width::Q
    } else if opsize {
        Width::W
    } else {
        Width::D
    };

    // Classification.
    let kind = match opcode {
        Opcode::One(0xEB) => Kind::JmpRel8,
        Opcode::One(0xE9) => Kind::JmpRel32,
        Opcode::One(op @ 0x70..=0x7F) => Kind::JccRel8(Cond::from_nibble(op & 0x0F)),
        Opcode::TwoOf(op @ 0x80..=0x8F) => Kind::JccRel32(Cond::from_nibble(op & 0x0F)),
        Opcode::One(0xE8) => Kind::CallRel32,
        Opcode::One(0xE0..=0xE3) => Kind::LoopRel8,
        Opcode::One(0xFF) => match modrm.map(|m| (m >> 3) & 7) {
            Some(2) | Some(3) => Kind::CallInd,
            Some(4) | Some(5) => Kind::JmpInd,
            _ => Kind::Other,
        },
        Opcode::One(0xC2 | 0xC3 | 0xCA | 0xCB) => Kind::Ret,
        Opcode::One(0xCC) => Kind::Int3,
        Opcode::TwoOf(0x05) => Kind::Syscall,
        _ => Kind::Other,
    };

    if stores(opcode, modrm) {
        flags |= WRITES;
        if heap_pointer {
            flags |= HEAP;
        }
    }

    // The record's bytes: the instruction's, zero past its end, with its
    // length in the last byte — one 16-byte store.
    let keep = (1u128 << (8 * len)) - 1;
    let code = u128::from_le_bytes(w) & keep | (len as u128) << (8 * MAX_INSN_LEN);
    Ok(Insn {
        addr,
        code: code.to_le_bytes(),
        kind,
        width,
        npfx: npfx as u8,
        modrm_at: modrm_at as u8,
        imm_len: imm_size as u8,
        flags,
    })
}

/// Linearly disassemble `code` starting at `vaddr`, returning the decoded
/// instructions. See [`linear_sweep_into`].
pub fn linear_sweep(code: &[u8], vaddr: u64) -> Vec<Insn> {
    let mut out = Vec::new();
    linear_sweep_into(code, vaddr, &mut out);
    out
}

/// Linearly disassemble `code` starting at `vaddr`, appending the decoded
/// instructions to `out`, so several code ranges fill one vector.
///
/// Undecodable bytes are skipped one byte at a time (recorded as gaps by the
/// caller if needed) — this mirrors the paper's tolerant linear-disassembly
/// frontend. Bytes that would sit at or past 2^64 are not swept: no
/// address wraps.
pub fn linear_sweep_into(code: &[u8], vaddr: u64, out: &mut Vec<Insn>) {
    let mut off = 0usize;
    while off < code.len() {
        let Some(addr) = vaddr.checked_add(off as u64) else {
            return;
        };
        match decode(&code[off..], addr) {
            Ok(i) => {
                off += i.len();
                out.push(i);
            }
            Err(_) => off += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Kind;
    use crate::reg::Reg;

    fn dec(bytes: &[u8]) -> Insn {
        decode(bytes, 0x400000).expect("decode failed")
    }

    #[test]
    fn paper_example_mov() {
        // mov %rax,(%rbx): 48 89 03 — the §2.1.3 patch instruction.
        let i = dec(&[0x48, 0x89, 0x03]);
        assert_eq!(i.len(), 3);
        assert!(i.writes_memory());
        assert!(i.is_heap_write());
        assert_eq!(i.kind, Kind::Other);
    }

    #[test]
    fn paper_example_add_imm() {
        // add $32,%rax: 48 83 c0 20.
        let i = dec(&[0x48, 0x83, 0xC0, 0x20]);
        assert_eq!(i.len(), 4);
        assert_eq!(i.imm(), 32);
        assert!(!i.writes_memory()); // register destination
    }

    #[test]
    fn paper_example_xor() {
        // xor %rax,%rcx: 48 31 c1.
        let i = dec(&[0x48, 0x31, 0xC1]);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn paper_example_cmpl() {
        // cmpl $77,-4(%rbx): 83 7b fc 4d.
        let i = dec(&[0x83, 0x7B, 0xFC, 0x4D]);
        assert_eq!(i.len(), 4);
        assert_eq!(i.imm(), 77);
        let m = i.modrm().unwrap().mem.unwrap();
        assert_eq!(m.disp, -4);
        assert!(!i.writes_memory()); // /7 = cmp
    }

    #[test]
    fn paper_example_testb() {
        // testb $0x2,0x18(%rbx): f6 43 18 02 (Figure 2 victim).
        let i = dec(&[0xF6, 0x43, 0x18, 0x02]);
        assert_eq!(i.len(), 4);
        assert_eq!(i.imm(), 2);
        assert!(!i.writes_memory());
    }

    #[test]
    fn jmp_rel32() {
        // e9 be fc ff ff: jmpq 422726 from Figure 2(b) at 422a63.
        let i = decode(&[0xE9, 0xBE, 0xFC, 0xFF, 0xFF], 0x422a63).unwrap();
        assert_eq!(i.kind, Kind::JmpRel32);
        assert_eq!(i.branch_target(), Some(0x422726));
    }

    #[test]
    fn jmp_rel8() {
        // eb 70: jmp 422ad3 from 422a61.
        let i = decode(&[0xEB, 0x70], 0x422a61).unwrap();
        assert_eq!(i.kind, Kind::JmpRel8);
        assert_eq!(i.branch_target(), Some(0x422ad3));
    }

    #[test]
    fn jcc_rel8_and_rel32() {
        let i = decode(&[0x74, 0x27], 0x422ad5).unwrap();
        assert_eq!(i.kind, Kind::JccRel8(Cond::E));
        assert_eq!(i.branch_target(), Some(0x422afe));
        let i = dec(&[0x0F, 0x84, 0x10, 0x00, 0x00, 0x00]);
        assert_eq!(i.kind, Kind::JccRel32(Cond::E));
        assert_eq!(i.len(), 6);
    }

    #[test]
    fn call_and_indirect() {
        let i = dec(&[0xE8, 0x00, 0x00, 0x00, 0x00]);
        assert_eq!(i.kind, Kind::CallRel32);
        // callq *0x2a2a6f(%rip): ff 15 6f 2a 2a 00 (Figure 2(b)).
        let i = dec(&[0xFF, 0x15, 0x6F, 0x2A, 0x2A, 0x00]);
        assert_eq!(i.kind, Kind::CallInd);
        assert!(i.modrm().unwrap().mem.unwrap().rip_relative);
        // jmpq *%rax: ff e0.
        let i = dec(&[0xFF, 0xE0]);
        assert_eq!(i.kind, Kind::JmpInd);
        assert!(i.modrm().unwrap().is_reg_direct());
        // jmpq *(%rax,%rbx,8): ff 24 d8.
        let i = dec(&[0xFF, 0x24, 0xD8]);
        assert_eq!(i.kind, Kind::JmpInd);
        let mem = i.modrm().unwrap().mem.unwrap();
        assert_eq!(mem.base, Some(Reg::Rax));
        assert_eq!(mem.index, Some((Reg::Rbx, 8)));
    }

    #[test]
    fn ret_int3_syscall() {
        assert_eq!(dec(&[0xC3]).kind, Kind::Ret);
        assert_eq!(dec(&[0xC2, 0x08, 0x00]).kind, Kind::Ret);
        assert_eq!(dec(&[0xCC]).kind, Kind::Int3);
        assert_eq!(dec(&[0x0F, 0x05]).kind, Kind::Syscall);
    }

    #[test]
    fn mov_imm64() {
        // movabs $0x1122334455667788,%rax: 48 b8 ...
        let i = dec(&[0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]);
        assert_eq!(i.len(), 10);
        assert_eq!(i.imm(), 0x1122334455667788);
    }

    #[test]
    fn mov_imm32_sizes() {
        let i = dec(&[0xB8, 0x01, 0x00, 0x00, 0x00]); // mov $1,%eax
        assert_eq!(i.len(), 5);
        let i = dec(&[0x66, 0xB8, 0x01, 0x00]); // mov $1,%ax
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn sib_forms() {
        // mov %rax,(%rsp): 48 89 04 24.
        let i = dec(&[0x48, 0x89, 0x04, 0x24]);
        assert_eq!(i.len(), 4);
        assert_eq!(i.modrm().unwrap().mem.unwrap().base, Some(Reg::Rsp));
        assert!(!i.is_heap_write()); // rsp-based excluded from A2
                                     // mov %rax,0x10(%rbp,%rcx,4): 48 89 44 8d 10.
        let i = dec(&[0x48, 0x89, 0x44, 0x8D, 0x10]);
        assert_eq!(i.len(), 5);
        let m = i.modrm().unwrap().mem.unwrap();
        assert_eq!(m.base, Some(Reg::Rbp));
        assert_eq!(m.index, Some((Reg::Rcx, 4)));
        assert_eq!(m.disp, 0x10);
        assert!(i.is_heap_write());
        // Absolute disp32 (SIB base=101, mod=0): mov %eax,0x1000: 89 04 25 00 10 00 00.
        let i = dec(&[0x89, 0x04, 0x25, 0x00, 0x10, 0x00, 0x00]);
        assert_eq!(i.len(), 7);
        let m = i.modrm().unwrap().mem.unwrap();
        assert_eq!(m.base, None);
        assert_eq!(m.disp, 0x1000);
    }

    #[test]
    fn rip_relative() {
        // mov %rax,0x200000(%rip): 48 89 05 00 00 20 00.
        let i = dec(&[0x48, 0x89, 0x05, 0x00, 0x00, 0x20, 0x00]);
        let m = i.modrm().unwrap();
        assert!(m.mem.unwrap().rip_relative);
        assert_eq!(m.disp_offset, 3);
        assert_eq!(m.disp_len, 4);
        assert!(i.writes_memory());
        assert!(!i.is_heap_write()); // rip-relative excluded from A2
    }

    #[test]
    fn r13_and_rbp_disp0_still_need_disp8() {
        // mov %rax,(%rbp) must encode as disp8=0: 48 89 45 00.
        let i = dec(&[0x48, 0x89, 0x45, 0x00]);
        assert_eq!(i.len(), 4);
        assert_eq!(i.modrm().unwrap().mem.unwrap().base, Some(Reg::Rbp));
        // mov %rax,(%r13): 49 89 45 00.
        let i = dec(&[0x49, 0x89, 0x45, 0x00]);
        assert_eq!(i.modrm().unwrap().mem.unwrap().base, Some(Reg::R13));
    }

    #[test]
    fn group3_test_has_immediate() {
        // testq $0x7,(%rax): 48 f7 00 07 00 00 00.
        let i = dec(&[0x48, 0xF7, 0x00, 0x07, 0x00, 0x00, 0x00]);
        assert_eq!(i.len(), 7);
        assert_eq!(i.imm(), 7);
        // negq (%rax): 48 f7 18 — no immediate, writes memory.
        let i = dec(&[0x48, 0xF7, 0x18]);
        assert_eq!(i.len(), 3);
        assert!(i.writes_memory());
    }

    #[test]
    fn push_pop_and_nop() {
        assert_eq!(dec(&[0x50]).len(), 1); // push %rax
        assert_eq!(dec(&[0x41, 0x57]).len(), 2); // push %r15
        assert_eq!(dec(&[0x90]).len(), 1);
        // Canonical multi-byte nop: 0f 1f 44 00 00.
        assert_eq!(dec(&[0x0F, 0x1F, 0x44, 0x00, 0x00]).len(), 5);
        // 66 0f 1f 84 00 00 00 00 00 (9-byte nop).
        assert_eq!(
            dec(&[0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00]).len(),
            9
        );
    }

    #[test]
    fn movzx_movsx() {
        // movzbl (%rdi),%eax: 0f b6 07.
        let i = dec(&[0x0F, 0xB6, 0x07]);
        assert_eq!(i.len(), 3);
        assert!(!i.writes_memory());
        // movsxd %edi,%rax (63 /r with REX.W): 48 63 c7.
        assert_eq!(dec(&[0x48, 0x63, 0xC7]).len(), 3);
    }

    #[test]
    fn lea_is_not_memory_access() {
        // lea 0x8(%rbx),%rax: 48 8d 43 08.
        let i = dec(&[0x48, 0x8D, 0x43, 0x08]);
        assert!(!i.writes_memory());
        assert!(!i.is_heap_write());
    }

    #[test]
    fn string_ops() {
        // stosb: aa; rep stosq: f3 48 ab.
        assert!(dec(&[0xAA]).writes_memory());
        let i = dec(&[0xF3, 0x48, 0xAB]);
        assert_eq!(i.len(), 3);
        assert!(i.prefixes().rep);
        assert!(i.writes_memory());
    }

    #[test]
    fn invalid_in_64bit() {
        for b in [0x06u8, 0x27, 0x60, 0x61, 0x9A, 0xD4, 0xEA, 0xCE] {
            assert_eq!(
                decode(&[b, 0, 0, 0, 0, 0, 0], 0),
                Err(DecodeError::Invalid(b))
            );
        }
    }

    #[test]
    fn truncation() {
        assert_eq!(decode(&[0xE9, 0x00], 0), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x48], 0), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x48, 0x89], 0), Err(DecodeError::Truncated));
    }

    #[test]
    fn too_long_prefix_run() {
        let bytes = [0x66u8; 16];
        assert_eq!(decode(&bytes, 0), Err(DecodeError::TooLong));
    }

    #[test]
    fn instruction_ending_past_the_address_space_is_refused() {
        // Each would end at 2^64: `jmp +0`, `mov [rbx], rax`, and `ret`
        // in the last byte.
        for (bytes, addr) in [
            (&[0xEB, 0x00][..], u64::MAX - 1),
            (&[0x48, 0x89, 0x03], u64::MAX - 2),
            (&[0xC3], u64::MAX),
        ] {
            assert_eq!(
                decode(bytes, addr),
                Err(DecodeError::PastAddressSpace),
                "{bytes:02x?} at {addr:#x}"
            );
        }
        // One byte lower, each ends at u64::MAX.
        assert_eq!(
            decode(&[0x48, 0x89, 0x03], u64::MAX - 3).unwrap().end(),
            u64::MAX
        );
        assert_eq!(decode(&[0xC3], u64::MAX - 1).unwrap().end(), u64::MAX);
    }

    #[test]
    fn redundant_prefix_padded_jump_decodes() {
        // T1(a)-style padded jump: 48 e9 d7 c0 83 20 — REX.W + jmpq.
        let i = dec(&[0x48, 0xE9, 0xD7, 0xC0, 0x83, 0x20]);
        assert_eq!(i.kind, Kind::JmpRel32);
        assert_eq!(i.len(), 6);
        // T1(b)-style: 48 26 e9 ... — REX voided by later legacy prefix.
        let i = dec(&[0x48, 0x26, 0xE9, 0x48, 0x83, 0xC0, 0x20]);
        assert_eq!(i.kind, Kind::JmpRel32);
        assert_eq!(i.len(), 7);
        assert!(i.prefixes().rex.is_none());
        assert_eq!(i.prefixes().segment, Some(0x26));
    }

    #[test]
    fn moffs_width() {
        // movabs 0x1122334455667788,%al: a0 + 8-byte address.
        let i = dec(&[0xA0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(i.len(), 9);
        // With 0x67 the address is 4 bytes.
        let i = dec(&[0x67, 0xA0, 1, 2, 3, 4]);
        assert_eq!(i.len(), 6);
    }

    #[test]
    fn vex_lengths() {
        // vzeroupper: c5 f8 77.
        assert_eq!(dec(&[0xC5, 0xF8, 0x77]).len(), 3);
        // vmovdqu (%rax),%ymm0: c5 fe 6f 00.
        assert_eq!(dec(&[0xC5, 0xFE, 0x6F, 0x00]).len(), 4);
        // vpblendd $3,%ymm1,%ymm2,%ymm3 (map 3, imm8): c4 e3 6d 02 d9 03.
        assert_eq!(dec(&[0xC4, 0xE3, 0x6D, 0x02, 0xD9, 0x03]).len(), 6);
    }

    #[test]
    fn enter_and_ret_imm() {
        assert_eq!(dec(&[0xC8, 0x10, 0x00, 0x00]).len(), 4);
        assert_eq!(dec(&[0xC2, 0x10, 0x00]).len(), 3);
    }

    #[test]
    fn linear_sweep_figure1() {
        // The paper's Figure 1 original sequence:
        // 48 89 03 | 48 83 c0 20 | 48 31 c1 | 83 7b fc 4d
        let code = [
            0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0x48, 0x31, 0xC1, 0x83, 0x7B, 0xFC, 0x4D,
        ];
        let insns = linear_sweep(&code, 0x1000);
        assert_eq!(insns.len(), 4);
        assert_eq!(
            insns.iter().map(|i| i.len()).collect::<Vec<_>>(),
            vec![3, 4, 3, 4]
        );
        assert_eq!(insns[1].addr, 0x1003);
        assert_eq!(insns[3].addr, 0x100A);
    }

    #[test]
    fn decode_never_reads_past_len() {
        // A decoded instruction's reported length must cover every byte the
        // decoder consumed: re-decoding from a slice truncated to len()
        // must succeed with the same result.
        let samples: &[&[u8]] = &[
            &[0x48, 0x89, 0x03, 0xAA, 0xBB],
            &[0xE9, 1, 2, 3, 4, 9, 9],
            &[0x0F, 0x84, 1, 2, 3, 4, 0xCC],
        ];
        for s in samples {
            let a = decode(s, 0x1000).unwrap();
            let b = decode(&s[..a.len()], 0x1000).unwrap();
            assert_eq!(a, b);
        }
    }
}
