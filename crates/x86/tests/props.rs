//! Property-based tests for the decoder, assembler and relocator.

use e9qcheck::prelude::*;
use e9x86::asm::{Asm, Mem};
use e9x86::decode::{decode, linear_sweep, DecodeError};
use e9x86::insn::Cond;
use e9x86::reg::{Reg, Width};
use e9x86::reloc::relocate;

props! {
    /// The decoder must never panic and never report a length longer than
    /// its input or the 15-byte architectural limit.
    #[test]
    fn decode_total_and_bounded(bytes in vec(any::<u8>(), 0..24)) {
        match decode(&bytes, 0x400000) {
            Ok(insn) => {
                prop_assert!(insn.len() <= 15);
                prop_assert!(insn.len() <= bytes.len());
                // Decoding the exact instruction bytes must reproduce it.
                let again = decode(&bytes[..insn.len()], 0x400000).unwrap();
                prop_assert_eq!(insn, again);
            }
            Err(
                DecodeError::Truncated
                | DecodeError::Invalid(_)
                | DecodeError::TooLong
                | DecodeError::PastAddressSpace,
            ) => {}
        }
    }

    /// Linear sweep over arbitrary bytes terminates and makes progress.
    #[test]
    fn linear_sweep_terminates(bytes in vec(any::<u8>(), 0..256)) {
        let insns = linear_sweep(&bytes, 0x1000);
        let mut last_end = 0x1000u64;
        for i in &insns {
            prop_assert!(i.addr >= last_end);
            last_end = i.end();
        }
        prop_assert!(last_end <= 0x1000 + bytes.len() as u64);
    }

    /// Everything the assembler emits must round-trip through the decoder
    /// with matching instruction boundaries.
    #[test]
    fn assembler_decoder_roundtrip(
        ops in vec(0u8..14, 1..40),
        regs in vec(0u8..16, 40),
        imms in vec(any::<i32>(), 40),
    ) {
        let mut a = Asm::new(0x401000);
        for (i, op) in ops.iter().enumerate() {
            let r = Reg::from_num(regs[i]);
            let s = Reg::from_num(regs[(i + 7) % regs.len()]);
            let imm = imms[i];
            match op {
                0 => a.mov_rr(Width::Q, r, s),
                1 => a.mov_ri64(r, imm as i64),
                2 => a.add_ri(Width::Q, r, imm),
                3 => a.xor_rr(Width::D, r, s),
                4 => a.push_r(r),
                5 => a.pop_r(r),
                6 => a.lea(r, Mem::base_disp(s, imm % 4096)),
                7 => a.mov_mr(Width::Q, Mem::base_disp(s, imm % 4096), r),
                8 => a.mov_rm(Width::D, r, Mem::base_disp(s, imm % 4096)),
                9 => a.cmp_ri(Width::Q, r, imm),
                10 => a.test_rr(Width::Q, r, s),
                11 => a.imul_rr(Width::Q, r, s),
                12 => a.mov_mi(Width::B, Mem::base(s), imm & 0x7F),
                _ => a.nops((*op as usize) % 9),
            }
        }
        a.ret();
        let code = a.finish().unwrap();
        // Whole stream decodes with no gaps.
        let insns = linear_sweep(&code, 0x401000);
        let total: usize = insns.iter().map(|i| i.len()).sum();
        prop_assert_eq!(total, code.len());
    }

    /// Relocated relative branches preserve their absolute target.
    #[test]
    fn relocation_preserves_target(
        disp in -120i8..120,
        old_addr in 0x40_0000u64..0x50_0000,
        delta in -0x10_0000i64..0x10_0000,
    ) {
        let bytes = [0xEBu8, disp as u8];
        let insn = decode(&bytes, old_addr).unwrap();
        let target = insn.branch_target().unwrap();
        let new_addr = old_addr.wrapping_add(delta as u64);
        let mut out = Vec::new();
        relocate(&insn, new_addr, &mut out).unwrap();
        let moved = decode(&out, new_addr).unwrap();
        prop_assert_eq!(moved.branch_target(), Some(target));
    }

    /// Conditional branches keep their condition across rel8→rel32
    /// widening.
    #[test]
    fn jcc_widening_preserves_condition(cc in 0u8..16, disp in any::<i8>()) {
        let bytes = [0x70 + cc, disp as u8];
        let insn = decode(&bytes, 0x401000).unwrap();
        let mut out = Vec::new();
        relocate(&insn, 0x40200000, &mut out).unwrap();
        let moved = decode(&out, 0x40200000).unwrap();
        let c = Cond::from_nibble(cc);
        prop_assert_eq!(moved.kind, e9x86::Kind::JccRel32(c));
        prop_assert_eq!(moved.branch_target(), insn.branch_target());
    }

    /// `writes_memory` never claims register-direct forms write memory.
    #[test]
    fn register_forms_never_write_memory(op in 0u8..0x40, modbits in 0xC0u8..=0xFF) {
        // ALU family with mod=11 (register-direct).
        let opc = (op & 0x3F) & !0x04; // keep to r/m forms
        let bytes = [0x48, opc, modbits, 0, 0, 0, 0, 0];
        if let Ok(insn) = decode(&bytes, 0x1000) {
            if insn.modrm().is_some_and(|m| m.is_reg_direct()) {
                prop_assert!(!insn.writes_memory());
                prop_assert!(!insn.is_heap_write());
            }
        }
    }
}
