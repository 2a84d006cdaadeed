//! Per-instruction semantics tests for the interpreter: each test runs a
//! small guest program and checks architectural effects through the exit
//! code or memory.

use e9vm::{load_elf, Vm};
use e9x86::asm::{Asm, Mem};
use e9x86::reg::{Reg, Width};

const DATA: u64 = 0x403000;

/// Assemble `body` into a runnable binary; the body must end by setting
/// `%rdi` and invoking `exit`.
fn run_program(body: impl FnOnce(&mut Asm)) -> (i32, Vm) {
    let mut a = Asm::new(0x401000);
    body(&mut a);
    a.mov_ri32(Reg::Rax, 60);
    a.syscall();
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.data(vec![0u8; 256], DATA);
    b.entry(0x401000);
    let bin = b.build();
    let mut vm = Vm::new();
    load_elf(&mut vm, &bin).unwrap();
    let r = vm.run(1_000_000).unwrap();
    (r.exit_code, vm)
}

fn exit_code(body: impl FnOnce(&mut Asm)) -> i32 {
    run_program(body).0
}

#[test]
fn mov_widths_zero_extend_and_merge() {
    // 32-bit mov zero-extends; 8-bit merges.
    let code = exit_code(|a| {
        a.mov_ri64(Reg::Rdi, -1);
        a.mov_ri32(Reg::Rdi, 0x55); // zero-extends the whole register
        a.raw(&[0x40, 0xB7, 0x02]); // mov $2,%dil (REX + B0+7)
                                    // rdi = 0x02 → exit 2.
    });
    assert_eq!(code, 2);
}

#[test]
fn xchg_swaps() {
    let code = exit_code(|a| {
        a.mov_ri32(Reg::Rax, 7);
        a.mov_ri32(Reg::Rdi, 9);
        // xchg %rax,%rdi: 48 97 (opcode-embedded) — use modrm form 48 87 C7.
        a.raw(&[0x48, 0x87, 0xC7]);
        a.and_ri(Width::Q, Reg::Rdi, 0x7F); // rdi now 7
    });
    assert_eq!(code, 7);
}

#[test]
fn xchg_rax_short_form() {
    let code = exit_code(|a| {
        a.mov_ri32(Reg::Rax, 40);
        a.mov_ri32(Reg::Rcx, 2);
        a.raw(&[0x48, 0x91]); // xchg %rax,%rcx
        a.mov_rr(Width::Q, Reg::Rdi, Reg::Rax); // 2
        a.add_rr(Width::Q, Reg::Rdi, Reg::Rcx); // + 40
    });
    assert_eq!(code, 42);
}

#[test]
fn movsxd_sign_extends() {
    let code = exit_code(|a| {
        a.mov_ri32(Reg::Rcx, 0xFFFF_FFFF); // ecx = -1 (as i32)
        a.raw(&[0x48, 0x63, 0xF9]); // movsxd %ecx,%rdi
                                    // rdi = -1; exit takes low byte semantics: -1 & 0x7f.
        a.and_ri(Width::Q, Reg::Rdi, 0x7F);
    });
    assert_eq!(code, 0x7F);
}

#[test]
fn movzx_movsx_byte() {
    let (_, vm) = run_program(|a| {
        a.mov_ri64(Reg::Rbx, DATA as i64);
        a.mov_mi(Width::B, Mem::base(Reg::Rbx), 0x80u8 as i8 as i32);
        a.movzx_b(Reg::Rcx, Mem::base(Reg::Rbx)); // 0x80
        a.raw(&[0x48, 0x0F, 0xBE, 0x13]); // movsx (%rbx),%rdx → 0xFFFF..FF80
        a.mov_mr(Width::Q, Mem::base_disp(Reg::Rbx, 8), Reg::Rcx);
        a.mov_mr(Width::Q, Mem::base_disp(Reg::Rbx, 16), Reg::Rdx);
        a.mov_ri32(Reg::Rdi, 0);
    });
    assert_eq!(vm.mem.read_le(DATA + 8, 8).unwrap(), 0x80);
    assert_eq!(vm.mem.read_le(DATA + 16, 8).unwrap(), 0xFFFF_FFFF_FFFF_FF80);
}

#[test]
fn push_imm_and_pop() {
    let code = exit_code(|a| {
        a.raw(&[0x6A, 0x2A]); // push $42
        a.pop_r(Reg::Rdi);
    });
    assert_eq!(code, 42);
}

#[test]
fn push_imm32_sign_extends() {
    let (_, vm) = run_program(|a| {
        a.raw(&[0x68, 0xFF, 0xFF, 0xFF, 0xFF]); // push $-1
        a.pop_r(Reg::Rcx);
        a.mov_ri64(Reg::Rbx, DATA as i64);
        a.mov_mr(Width::Q, Mem::base(Reg::Rbx), Reg::Rcx);
        a.mov_ri32(Reg::Rdi, 0);
    });
    assert_eq!(vm.mem.read_le(DATA, 8).unwrap(), u64::MAX);
}

#[test]
fn leave_unwinds_frame() {
    let code = exit_code(|a| {
        // Build a frame: push rbp; mov rsp→rbp; sub 32,rsp; leave.
        a.push_r(Reg::Rbp);
        a.mov_rr(Width::Q, Reg::Rbp, Reg::Rsp);
        a.sub_ri(Width::Q, Reg::Rsp, 32);
        a.raw(&[0xC9]); // leave
        a.mov_ri32(Reg::Rdi, 5);
        a.pop_r(Reg::Rbp); // undo our initial push... wait, leave popped it
                           // rsp is back; just exit.
        a.mov_ri32(Reg::Rdi, 5);
    });
    assert_eq!(code, 5);
}

#[test]
fn cqo_sign_extends_into_rdx() {
    let (_, vm) = run_program(|a| {
        a.mov_ri64(Reg::Rax, -7);
        a.raw(&[0x48, 0x99]); // cqo
        a.mov_ri64(Reg::Rbx, DATA as i64);
        a.mov_mr(Width::Q, Mem::base(Reg::Rbx), Reg::Rdx);
        a.mov_ri32(Reg::Rdi, 0);
    });
    assert_eq!(vm.mem.read_le(DATA, 8).unwrap(), u64::MAX);
}

#[test]
fn unsigned_div() {
    let code = exit_code(|a| {
        a.mov_ri32(Reg::Rax, 100);
        a.mov_ri32(Reg::Rdx, 0);
        a.mov_ri32(Reg::Rsi, 7);
        a.raw(&[0x48, 0xF7, 0xF6]); // divq %rsi → rax=14, rdx=2
        a.mov_rr(Width::Q, Reg::Rdi, Reg::Rax);
        a.add_rr(Width::Q, Reg::Rdi, Reg::Rdx); // 16
    });
    assert_eq!(code, 16);
}

#[test]
fn mul_widens_into_rdx() {
    let (_, vm) = run_program(|a| {
        a.mov_ri64(Reg::Rax, u64::MAX as i64);
        a.mov_ri32(Reg::Rcx, 2);
        a.raw(&[0x48, 0xF7, 0xE1]); // mulq %rcx → rdx:rax = 2*(2^64-1)
        a.mov_ri64(Reg::Rbx, DATA as i64);
        a.mov_mr(Width::Q, Mem::base(Reg::Rbx), Reg::Rax);
        a.mov_mr(Width::Q, Mem::base_disp(Reg::Rbx, 8), Reg::Rdx);
        a.mov_ri32(Reg::Rdi, 0);
    });
    assert_eq!(vm.mem.read_le(DATA, 8).unwrap(), u64::MAX - 1);
    assert_eq!(vm.mem.read_le(DATA + 8, 8).unwrap(), 1);
}

#[test]
fn not_and_neg() {
    let code = exit_code(|a| {
        a.mov_ri32(Reg::Rdi, 0);
        a.raw(&[0x48, 0xF7, 0xD7]); // not %rdi → -1
        a.raw(&[0x48, 0xF7, 0xDF]); // neg %rdi → 1
    });
    assert_eq!(code, 1);
}

#[test]
fn shifts_and_rotates() {
    let (_, vm) = run_program(|a| {
        a.mov_ri32(Reg::Rax, 1);
        a.shl_ri(Width::Q, Reg::Rax, 8); // 256
        a.shr_ri(Width::Q, Reg::Rax, 4); // 16
                                         // sar on a negative value: mov -32, rcx; sar 2 → -8.
        a.mov_ri64(Reg::Rcx, -32);
        a.raw(&[0x48, 0xC1, 0xF9, 0x02]); // sar $2,%rcx
                                          // rol 8-bit-ish on 64: rol $4, rdx of 0xF000..0001.
        a.mov_ri64(Reg::Rdx, 0xF000_0000_0000_0001u64 as i64);
        a.raw(&[0x48, 0xC1, 0xC2, 0x04]); // rol $4,%rdx → 0x...001F
        a.mov_ri64(Reg::Rbx, DATA as i64);
        a.mov_mr(Width::Q, Mem::base(Reg::Rbx), Reg::Rax);
        a.mov_mr(Width::Q, Mem::base_disp(Reg::Rbx, 8), Reg::Rcx);
        a.mov_mr(Width::Q, Mem::base_disp(Reg::Rbx, 16), Reg::Rdx);
        a.mov_ri32(Reg::Rdi, 0);
    });
    assert_eq!(vm.mem.read_le(DATA, 8).unwrap(), 16);
    assert_eq!(vm.mem.read_le(DATA + 8, 8).unwrap(), (-8i64) as u64);
    assert_eq!(vm.mem.read_le(DATA + 16, 8).unwrap(), 0x0000_0000_0000_001F);
}

#[test]
fn shift_by_cl() {
    let code = exit_code(|a| {
        a.mov_ri32(Reg::Rdi, 1);
        a.mov_ri32(Reg::Rcx, 5);
        a.raw(&[0x48, 0xD3, 0xE7]); // shl %cl,%rdi → 32
    });
    assert_eq!(code, 32);
}

#[test]
fn imul_with_immediate_forms() {
    let code = exit_code(|a| {
        a.mov_ri32(Reg::Rax, 6);
        a.raw(&[0x48, 0x6B, 0xF8, 0x07]); // imul $7,%rax,%rdi → 42
    });
    assert_eq!(code, 42);
}

#[test]
fn call_indirect_through_memory() {
    let code = exit_code(|a| {
        let f = a.fresh_label();
        let tbl = a.fresh_label();
        let done = a.fresh_label();
        a.mov_rlabel(Reg::Rbx, tbl);
        a.raw(&[0xFF, 0x13]); // call *(%rbx)
        a.jmp(done);
        a.bind(f);
        a.mov_ri32(Reg::Rdi, 33);
        a.ret();
        a.bind(tbl);
        a.dq_label(f);
        a.bind(done);
    });
    assert_eq!(code, 33);
}

#[test]
fn rip_relative_simple() {
    let (_, vm) = run_program(|a| {
        let cell = a.fresh_label();
        let start = a.fresh_label();
        a.jmp(start);
        a.bind(cell);
        a.dq(0x1234);
        a.bind(start);
        a.mov_rm(Width::Q, Reg::Rcx, Mem::rip(cell));
        a.mov_ri64(Reg::Rdx, DATA as i64);
        a.mov_mr(Width::Q, Mem::base(Reg::Rdx), Reg::Rcx);
        a.mov_ri32(Reg::Rdi, 0);
    });
    assert_eq!(vm.mem.read_le(DATA, 8).unwrap(), 0x1234);
}

#[test]
fn ret_imm_pops_arguments() {
    let code = exit_code(|a| {
        let f = a.fresh_label();
        let done = a.fresh_label();
        a.raw(&[0x6A, 0x01]); // push $1 (arg)
        a.raw(&[0x6A, 0x02]); // push $2 (arg)
        a.call(f);
        a.jmp(done);
        a.bind(f);
        a.mov_ri32(Reg::Rdi, 4);
        a.raw(&[0xC2, 0x10, 0x00]); // ret $16 — pops both args
        a.bind(done);
    });
    assert_eq!(code, 4);
}

#[test]
fn nop_variants_are_inert() {
    let code = exit_code(|a| {
        a.mov_ri32(Reg::Rdi, 11);
        for n in 1..=9 {
            a.nops(n);
        }
        a.raw(&[0x0F, 0x18, 0x09]); // prefetch hint (nop class)
    });
    assert_eq!(code, 11);
}

#[test]
fn unsupported_instruction_reports_cleanly() {
    let mut a = Asm::new(0x401000);
    a.ud2();
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.entry(0x401000);
    let mut vm = Vm::new();
    load_elf(&mut vm, &b.build()).unwrap();
    let err = vm.run(10).unwrap_err();
    assert!(matches!(err, e9vm::VmError::Unsupported { .. }));
}

#[test]
fn divide_by_zero_is_an_error() {
    let mut a = Asm::new(0x401000);
    a.mov_ri32(Reg::Rax, 1);
    a.mov_ri32(Reg::Rdx, 0);
    a.mov_ri32(Reg::Rsi, 0);
    a.raw(&[0x48, 0xF7, 0xF6]); // divq %rsi
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.entry(0x401000);
    let mut vm = Vm::new();
    load_elf(&mut vm, &b.build()).unwrap();
    assert!(vm.run(100).is_err());
}

#[test]
fn recent_rips_recorded() {
    let mut a = Asm::new(0x401000);
    a.mov_ri32(Reg::Rax, 60);
    a.mov_ri32(Reg::Rdi, 0);
    a.syscall();
    let code = a.finish().unwrap();
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.entry(0x401000);
    let mut vm = Vm::new();
    load_elf(&mut vm, &b.build()).unwrap();
    vm.run(100).unwrap();
    let rips = vm.recent_rips();
    assert_eq!(rips, vec![0x401000, 0x401005, 0x40100A]);
}
