//! Differential tests of the interpreter's ALU and flag semantics: for
//! random operands, a tiny guest program computes `a OP b`, saves the
//! result and RFLAGS to memory, and the outcome is compared against a
//! Rust-side model of the x86 semantics.

use e9qcheck::prelude::*;
use e9vm::{load_elf, Vm};
use e9x86::asm::{Asm, Mem};
use e9x86::reg::{Reg, Width};

const RESULT_ADDR: u64 = 0x403000;

#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Cmp,
    Test,
    Imul,
    Shl,
    Shr,
}

fn emit_op(a: &mut Asm, op: Op, w: Width) {
    // dst = rax, src = rcx (shift count in cl for the shift ops is modelled
    // with an immediate instead — both paths share the group-2 decoder).
    match op {
        Op::Add => a.add_rr(w, Reg::Rax, Reg::Rcx),
        Op::Sub => a.sub_rr(w, Reg::Rax, Reg::Rcx),
        Op::And => a.and_rr(w, Reg::Rax, Reg::Rcx),
        Op::Or => a.or_rr(w, Reg::Rax, Reg::Rcx),
        Op::Xor => a.xor_rr(w, Reg::Rax, Reg::Rcx),
        Op::Cmp => a.cmp_rr(w, Reg::Rax, Reg::Rcx),
        Op::Test => a.test_rr(w, Reg::Rax, Reg::Rcx),
        Op::Imul => a.imul_rr(w, Reg::Rax, Reg::Rcx),
        Op::Shl => a.shl_ri(w, Reg::Rax, 3),
        Op::Shr => a.shr_ri(w, Reg::Rax, 3),
    }
}

/// Rust model of the operation: returns (result, cf, zf, sf, of) or None
/// for flags the model leaves unchecked.
fn model(op: Op, av: u64, bv: u64, w: Width) -> (u64, Option<bool>, bool, bool, Option<bool>) {
    let mask = w.mask();
    let bits = w.bits();
    let (am, bm) = (av & mask, bv & mask);
    let sign = 1u64 << (bits - 1);
    match op {
        Op::Add => {
            let r = am.wrapping_add(bm) & mask;
            let cf = ((am as u128) + (bm as u128)) >> bits != 0;
            let of = !(am ^ bm) & (am ^ r) & sign != 0;
            (r, Some(cf), r == 0, r & sign != 0, Some(of))
        }
        Op::Sub | Op::Cmp => {
            let r = am.wrapping_sub(bm) & mask;
            let cf = am < bm;
            let of = (am ^ bm) & (am ^ r) & sign != 0;
            let res = if matches!(op, Op::Cmp) { am } else { r };
            (res, Some(cf), r == 0, r & sign != 0, Some(of))
        }
        Op::And | Op::Test => {
            let r = am & bm;
            let res = if matches!(op, Op::Test) { am } else { r };
            (res, Some(false), r == 0, r & sign != 0, Some(false))
        }
        Op::Or => {
            let r = am | bm;
            (r, Some(false), r == 0, r & sign != 0, Some(false))
        }
        Op::Xor => {
            let r = am ^ bm;
            (r, Some(false), r == 0, r & sign != 0, Some(false))
        }
        Op::Imul => {
            // Two-operand imul truncates; the emulator models zf/sf from
            // the result (architecturally undefined) and clears cf/of on
            // no-overflow paths — only check the result.
            let r = (w.sext(am)).wrapping_mul(w.sext(bm)) as u64 & mask;
            (r, None, r == 0, r & sign != 0, None)
        }
        Op::Shl => {
            let r = (am << 3) & mask;
            (r, None, r == 0, r & sign != 0, None)
        }
        Op::Shr => {
            let r = am >> 3;
            (r, None, r == 0, r & sign != 0, None)
        }
    }
}

fn run_guest(op: Op, av: u64, bv: u64, w: Width) -> (u64, u64) {
    let mut a = Asm::new(0x401000);
    a.mov_ri64(Reg::Rax, av as i64);
    a.mov_ri64(Reg::Rcx, bv as i64);
    emit_op(&mut a, op, w);
    a.pushfq();
    a.pop_r(Reg::Rdx);
    a.mov_ri64(Reg::Rbx, RESULT_ADDR as i64);
    a.mov_mr(Width::Q, Mem::base(Reg::Rbx), Reg::Rax);
    a.mov_mr(Width::Q, Mem::base_disp(Reg::Rbx, 8), Reg::Rdx);
    a.mov_ri32(Reg::Rax, 60);
    a.mov_ri32(Reg::Rdi, 0);
    a.syscall();
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.data(vec![0u8; 16], RESULT_ADDR);
    b.entry(0x401000);
    let mut vm = Vm::new();
    load_elf(&mut vm, &b.build()).unwrap();
    vm.run(1_000_000).unwrap();
    let result = vm.mem.read_le(RESULT_ADDR, 8).unwrap();
    let rflags = vm.mem.read_le(RESULT_ADDR + 8, 8).unwrap();
    (result, rflags)
}

fn check(op: Op, av: u64, bv: u64, w: Width) -> Result<(), TestCaseError> {
    let (result, rflags) = run_guest(op, av, bv, w);
    let (want, cf, zf, sf, of) = model(op, av, bv, w);
    // The destination register holds the result in its low bits (cmp/test
    // leave it untouched = original a).
    prop_assert_eq!(
        result & w.mask(),
        want & w.mask(),
        "result mismatch for {:?} {:#x},{:#x} ({:?})",
        op,
        av,
        bv,
        w
    );
    let g_cf = rflags & 1 != 0;
    let g_zf = rflags & (1 << 6) != 0;
    let g_sf = rflags & (1 << 7) != 0;
    let g_of = rflags & (1 << 11) != 0;
    if let Some(cf) = cf {
        prop_assert_eq!(g_cf, cf, "CF for {:?} {:#x},{:#x} ({:?})", op, av, bv, w);
    }
    prop_assert_eq!(g_zf, zf, "ZF for {:?} {:#x},{:#x} ({:?})", op, av, bv, w);
    prop_assert_eq!(g_sf, sf, "SF for {:?} {:#x},{:#x} ({:?})", op, av, bv, w);
    if let Some(of) = of {
        prop_assert_eq!(g_of, of, "OF for {:?} {:#x},{:#x} ({:?})", op, av, bv, w);
    }
    Ok(())
}

props! {
    #[test]
    fn alu_matches_model(
        op_idx in 0usize..10,
        av in any::<u64>(),
        bv in any::<u64>(),
        w_idx in 0usize..2,
    ) {
        let op = [Op::Add, Op::Sub, Op::And, Op::Or, Op::Xor, Op::Cmp, Op::Test, Op::Imul,
                  Op::Shl, Op::Shr][op_idx];
        let w = [Width::Q, Width::D][w_idx];
        check(op, av, bv, w)?;
    }

    /// Edge operands that historically break flag implementations.
    #[test]
    fn alu_edge_operands(op_idx in 0usize..8) {
        let op = [Op::Add, Op::Sub, Op::And, Op::Or, Op::Xor, Op::Cmp, Op::Test, Op::Imul][op_idx];
        for &(av, bv) in &[
            (0u64, 0u64),
            (u64::MAX, 1),
            (1, u64::MAX),
            (i64::MIN as u64, i64::MIN as u64),
            (i64::MAX as u64, 1),
            (0x8000_0000, 0x8000_0000),
            (0xFFFF_FFFF, 1),
        ] {
            for w in [Width::Q, Width::D] {
                check(op, av, bv, w)?;
            }
        }
    }
}

#[test]
fn inc_dec_preserve_carry() {
    // inc/dec must not touch CF (the planner's trampolines rely on precise
    // flag modelling).
    let mut a = Asm::new(0x401000);
    a.mov_ri64(Reg::Rax, -1);
    a.add_ri(Width::Q, Reg::Rax, 1); // sets CF
    a.mov_ri64(Reg::Rbx, RESULT_ADDR as i64);
    a.inc_m(Width::Q, Mem::base(Reg::Rbx)); // must preserve CF
    a.pushfq();
    a.pop_r(Reg::Rdx);
    a.mov_mr(Width::Q, Mem::base_disp(Reg::Rbx, 8), Reg::Rdx);
    a.mov_ri32(Reg::Rax, 60);
    a.mov_ri32(Reg::Rdi, 0);
    a.syscall();
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.data(vec![0u8; 16], RESULT_ADDR);
    b.entry(0x401000);
    let mut vm = Vm::new();
    load_elf(&mut vm, &b.build()).unwrap();
    vm.run(1_000_000).unwrap();
    let rflags = vm.mem.read_le(RESULT_ADDR + 8, 8).unwrap();
    assert!(rflags & 1 != 0, "CF lost across inc");
}

#[test]
fn setcc_and_cmov_follow_flags() {
    // cmp 3,5; setl → 1; cmovl picks the source.
    let mut a = Asm::new(0x401000);
    a.mov_ri32(Reg::Rax, 3);
    a.mov_ri32(Reg::Rcx, 5);
    a.cmp_rr(Width::Q, Reg::Rax, Reg::Rcx); // 3 - 5 → L
                                            // setl %dl: 0f 9c c2 (REX not needed for dl).
    a.raw(&[0x0F, 0x9C, 0xC2]);
    // cmovl %rcx,%rbx: 48 0f 4c d9.
    a.mov_ri32(Reg::Rbx, 0);
    a.raw(&[0x48, 0x0F, 0x4C, 0xD9]);
    a.mov_ri64(Reg::Rsi, RESULT_ADDR as i64);
    a.mov_mr(Width::B, Mem::base(Reg::Rsi), Reg::Rdx);
    a.mov_mr(Width::Q, Mem::base_disp(Reg::Rsi, 8), Reg::Rbx);
    a.mov_ri32(Reg::Rax, 60);
    a.mov_ri32(Reg::Rdi, 0);
    a.syscall();
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.data(vec![0u8; 16], RESULT_ADDR);
    b.entry(0x401000);
    let mut vm = Vm::new();
    load_elf(&mut vm, &b.build()).unwrap();
    vm.run(1_000_000).unwrap();
    assert_eq!(vm.mem.read_le(RESULT_ADDR, 1).unwrap(), 1, "setl");
    assert_eq!(vm.mem.read_le(RESULT_ADDR + 8, 8).unwrap(), 5, "cmovl");
}

#[test]
fn shift_by_zero_preserves_flags() {
    // x86 rule: a shift with count 0 leaves all flags unchanged.
    let mut a = Asm::new(0x401000);
    a.mov_ri64(Reg::Rax, -1);
    a.add_ri(Width::Q, Reg::Rax, 1); // CF=1 ZF=1
    a.mov_ri32(Reg::Rcx, 0);
    a.raw(&[0x48, 0xD3, 0xE0]); // shl %cl,%rax (count 0)
    a.pushfq();
    a.pop_r(Reg::Rdx);
    a.mov_ri64(Reg::Rbx, RESULT_ADDR as i64);
    a.mov_mr(Width::Q, Mem::base(Reg::Rbx), Reg::Rdx);
    a.mov_ri32(Reg::Rax, 60);
    a.mov_ri32(Reg::Rdi, 0);
    a.syscall();
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.data(vec![0u8; 16], RESULT_ADDR);
    b.entry(0x401000);
    let mut vm = Vm::new();
    load_elf(&mut vm, &b.build()).unwrap();
    vm.run(1_000_000).unwrap();
    let rflags = vm.mem.read_le(RESULT_ADDR, 8).unwrap();
    assert!(rflags & 1 != 0, "CF must survive a zero-count shift");
    assert!(rflags & (1 << 6) != 0, "ZF must survive a zero-count shift");
}
