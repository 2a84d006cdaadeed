//! The x86-64 interpreter.
//!
//! Executes the subset of x86-64 the synthetic workloads, trampolines,
//! loader stub and instrumentation runtime are built from — decoded live by
//! [`e9x86::decode()`] with a per-address instruction cache (invalidated on
//! mapping changes, since the injected loader remaps pages while running).
//! The cache holds each instruction with its operands read back from the
//! compact [`Insn`] record once, so a loop does not re-read them.
//!
//! Performance accounting follows the reproduction's substitution of
//! wall-clock by a **cost-weighted instruction count** (see DESIGN.md):
//! plain instructions cost 1, near control transfers cost
//! [`Vm::branch_cost`], far control transfers (beyond
//! [`FAR_BRANCH_DISTANCE`] — e.g. the ±2 GiB trampoline round trips) cost
//! [`Vm::far_branch_cost`], and an `int3` trap (baseline B0) additionally
//! costs [`Vm::trap_cost`] to model the kernel round trip. The raw retired
//! count is kept separately in [`Vm::insns`].

use crate::cpu::{Cpu, Flags};
use crate::heap::{BumpHeap, HeapAllocator};
use crate::mem::{Fault, Memory, Perms, PhysId, PAGE_SIZE};
use e9x86::insn::{Cond, Insn, Kind, MemOperand, ModRm, Opcode};
use e9x86::prefix::Prefixes;
use e9x86::reg::{Reg, Width};
use std::collections::HashMap;
use std::fmt;

/// Pseudo-syscall number for guest `malloc` (the "E9" theme).
pub const SYS_MALLOC: u64 = 0xE901;
/// Pseudo-syscall number for guest `free`.
pub const SYS_FREE: u64 = 0xE902;

/// Default instruction-cost penalty for a B0 `int3` trap (kernel/user
/// round trip + signal frame; "orders of magnitude" per the paper §2.1.1).
pub const DEFAULT_TRAP_COST: u64 = 2000;

/// Default cost of a *near* control transfer (within
/// [`FAR_BRANCH_DISTANCE`]) relative to a plain instruction.
pub const DEFAULT_BRANCH_COST: u64 = 2;

/// Default cost of a *far* control transfer. Real hardware pays
/// pipeline/BTB/icache penalties on the trampoline round trips (targets
/// ±2 GiB away) — the exact mechanism behind the paper's overhead numbers
/// — which a flat instruction count would hide.
pub const DEFAULT_FAR_BRANCH_COST: u64 = 6;

/// Branch distance beyond which the far cost applies (icache reach).
pub const FAR_BRANCH_DISTANCE: u64 = 64 * 1024;

/// Guest stack top.
pub const STACK_TOP: u64 = 0x7FFE_0000_0000;
/// Guest stack size.
pub const STACK_SIZE: u64 = 1 << 20;

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Memory fault at `rip`.
    Fault {
        /// The fault.
        fault: Fault,
        /// Instruction pointer at the time.
        rip: u64,
    },
    /// Undecodable instruction bytes.
    Decode {
        /// Instruction pointer.
        rip: u64,
        /// Decoder diagnostics.
        msg: String,
    },
    /// Decoded but unimplemented instruction.
    Unsupported {
        /// Instruction pointer.
        rip: u64,
        /// Description.
        msg: String,
    },
    /// `int3` executed with no trap-table entry.
    UnexpectedTrap(u64),
    /// Unknown syscall number.
    BadSyscall(u64),
    /// `run` exceeded its step budget.
    StepLimit(u64),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Fault { fault, rip } => write!(f, "{fault} at rip={rip:#x}"),
            VmError::Decode { rip, msg } => write!(f, "decode error at {rip:#x}: {msg}"),
            VmError::Unsupported { rip, msg } => write!(f, "unsupported at {rip:#x}: {msg}"),
            VmError::UnexpectedTrap(rip) => write!(f, "unexpected int3 at {rip:#x}"),
            VmError::BadSyscall(n) => write!(f, "unknown syscall {n:#x}"),
            VmError::StepLimit(n) => write!(f, "step limit of {n} exceeded"),
        }
    }
}

impl std::error::Error for VmError {}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Guest exit code.
    pub exit_code: i32,
    /// Cost-weighted instruction count (includes trap penalties).
    pub steps: u64,
    /// Plain retired-instruction count.
    pub insns: u64,
    /// Captured stdout/stderr bytes.
    pub output: Vec<u8>,
}

/// The emulator.
#[derive(Debug)]
pub struct Vm {
    /// Register state.
    pub cpu: Cpu,
    /// Memory state.
    pub mem: Memory,
    /// Guest heap backend.
    pub heap: Box<dyn HeapAllocator>,
    /// Cost-weighted step counter.
    pub steps: u64,
    /// Retired instruction counter.
    pub insns: u64,
    /// Captured write(1/2) output.
    pub output: Vec<u8>,
    /// B0 trap table: site → trampoline.
    pub traps: HashMap<u64, u64>,
    /// Cost model for one trap dispatch.
    pub trap_cost: u64,
    /// Cost of a near control-transfer instruction (others cost 1).
    pub branch_cost: u64,
    /// Cost of a far control-transfer instruction.
    pub far_branch_cost: u64,
    pub(crate) self_fd_phys: Option<PhysId>,
    icache: HashMap<u64, Op>,
    icache_epoch: u64,
    exited: Option<i32>,
    history: std::collections::VecDeque<u64>,
}

/// An instruction as the interpreter runs it: the decoded record with its
/// operands read back once, when it enters the instruction cache.
#[derive(Debug, Clone, Copy)]
struct Op {
    insn: Insn,
    prefixes: Prefixes,
    opcode: Opcode,
    modrm: Option<ModRm>,
    imm: i64,
    kind: Kind,
    width: Width,
}

impl Op {
    fn new(insn: Insn) -> Op {
        Op {
            insn,
            prefixes: insn.prefixes(),
            opcode: insn.opcode(),
            modrm: insn.modrm(),
            imm: insn.imm(),
            kind: insn.kind,
            width: insn.width,
        }
    }

    fn end(&self) -> u64 {
        self.insn.end()
    }

    fn branch_target(&self) -> Option<u64> {
        self.insn.branch_target()
    }
}

/// Number of recent instruction pointers kept for diagnostics.
pub const HISTORY_LEN: usize = 16;

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}

impl Vm {
    /// Fresh emulator with a bump heap and an empty address space.
    pub fn new() -> Vm {
        Vm {
            cpu: Cpu::new(),
            mem: Memory::new(),
            heap: Box::new(BumpHeap::new()),
            steps: 0,
            insns: 0,
            output: Vec::new(),
            traps: HashMap::new(),
            trap_cost: DEFAULT_TRAP_COST,
            branch_cost: DEFAULT_BRANCH_COST,
            far_branch_cost: DEFAULT_FAR_BRANCH_COST,
            self_fd_phys: None,
            icache: HashMap::new(),
            icache_epoch: 0,
            exited: None,
            history: std::collections::VecDeque::with_capacity(HISTORY_LEN),
        }
    }

    /// The last (up to [`HISTORY_LEN`]) instruction addresses executed,
    /// oldest first — a crash-dump aid when a rewritten binary faults.
    pub fn recent_rips(&self) -> Vec<u64> {
        self.history.iter().copied().collect()
    }

    /// Replace the heap backend (e.g. with the low-fat allocator).
    pub fn set_heap(&mut self, heap: Box<dyn HeapAllocator>) {
        self.heap = heap;
    }

    /// Has the guest called `exit`?
    pub fn exit_code(&self) -> Option<i32> {
        self.exited
    }

    fn fault(&self, fault: Fault) -> VmError {
        VmError::Fault {
            fault,
            rip: self.cpu.rip,
        }
    }

    // ---- operand helpers ---------------------------------------------

    fn effective_addr(&self, insn: &Op, mem: &MemOperand) -> u64 {
        let mut a = mem.disp as i64 as u64;
        if mem.rip_relative {
            a = a.wrapping_add(insn.end());
        }
        if let Some(b) = mem.base {
            a = a.wrapping_add(self.cpu.get(b));
        }
        if let Some((i, s)) = mem.index {
            a = a.wrapping_add(self.cpu.get(i).wrapping_mul(s as u64));
        }
        a
    }

    fn read_rm(&self, insn: &Op, w: Width) -> Result<u64, VmError> {
        let m = insn.modrm.expect("modrm operand");
        match m.mem {
            Some(mem) => {
                let a = self.effective_addr(insn, &mem);
                self.mem.read_le(a, w.bytes()).map_err(|f| self.fault(f))
            }
            None => Ok(self.cpu.get_w(m.rm, w, insn.prefixes.rex.is_some())),
        }
    }

    fn write_rm(&mut self, insn: &Op, w: Width, v: u64) -> Result<(), VmError> {
        let m = insn.modrm.expect("modrm operand");
        match m.mem {
            Some(mem) => {
                let a = self.effective_addr(insn, &mem);
                self.mem
                    .write_le(a, v, w.bytes())
                    .map_err(|f| self.fault(f))
            }
            None => {
                self.cpu.set_w(m.rm, w, insn.prefixes.rex.is_some(), v);
                Ok(())
            }
        }
    }

    fn reg_field(&self, insn: &Op, w: Width) -> u64 {
        let m = insn.modrm.expect("modrm operand");
        self.cpu.get_w(m.reg, w, insn.prefixes.rex.is_some())
    }

    fn set_reg_field(&mut self, insn: &Op, w: Width, v: u64) {
        let m = insn.modrm.expect("modrm operand");
        self.cpu.set_w(m.reg, w, insn.prefixes.rex.is_some(), v);
    }

    /// Opcode-embedded register (push/pop/mov-imm): low 3 opcode bits plus
    /// REX.B.
    fn opcode_reg(insn: &Op, op: u8) -> u8 {
        (op & 7) | if insn.prefixes.rex_b() { 8 } else { 0 }
    }

    // ---- stack helpers -------------------------------------------------

    fn push(&mut self, v: u64) -> Result<(), VmError> {
        let rsp = self.cpu.get(Reg::Rsp).wrapping_sub(8);
        self.cpu.set(Reg::Rsp, rsp);
        self.mem.write_le(rsp, v, 8).map_err(|f| self.fault(f))
    }

    fn pop(&mut self) -> Result<u64, VmError> {
        let rsp = self.cpu.get(Reg::Rsp);
        let v = self.mem.read_le(rsp, 8).map_err(|f| self.fault(f))?;
        self.cpu.set(Reg::Rsp, rsp.wrapping_add(8));
        Ok(v)
    }

    // ---- ALU -------------------------------------------------------------

    fn alu_add(&mut self, a: u64, b: u64, w: Width) -> u64 {
        let r = a.wrapping_add(b) & w.mask();
        let (am, bm) = (a & w.mask(), b & w.mask());
        self.cpu.flags.cf = ((am as u128) + (bm as u128)) >> w.bits() != 0;
        let sign = 1u64 << (w.bits() - 1);
        self.cpu.flags.of = !(am ^ bm) & (am ^ r) & sign != 0;
        self.cpu.flags.set_result(r, w);
        r
    }

    fn alu_sub(&mut self, a: u64, b: u64, w: Width) -> u64 {
        let (am, bm) = (a & w.mask(), b & w.mask());
        let r = am.wrapping_sub(bm) & w.mask();
        self.cpu.flags.cf = am < bm;
        let sign = 1u64 << (w.bits() - 1);
        self.cpu.flags.of = (am ^ bm) & (am ^ r) & sign != 0;
        self.cpu.flags.set_result(r, w);
        r
    }

    fn alu_logic(&mut self, op: u8, a: u64, b: u64, w: Width) -> u64 {
        let r = match op {
            1 => a | b,
            4 => a & b,
            6 => a ^ b,
            _ => unreachable!("logic op {op}"),
        } & w.mask();
        self.cpu.flags.cf = false;
        self.cpu.flags.of = false;
        self.cpu.flags.set_result(r, w);
        r
    }

    /// Dispatch an ALU group operation by index (add/or/adc/sbb/and/sub/
    /// xor/cmp). Returns `Some(result)` when the destination should be
    /// written (cmp returns `None`).
    fn alu_group(&mut self, idx: u8, a: u64, b: u64, w: Width) -> Option<u64> {
        match idx {
            0 => Some(self.alu_add(a, b, w)),
            1 | 4 | 6 => Some(self.alu_logic(idx, a, b, w)),
            2 => {
                let c = self.cpu.flags.cf as u64;
                let am = a & w.mask();
                let bm = b & w.mask();
                let r = am.wrapping_add(bm).wrapping_add(c) & w.mask();
                let wide = (am as u128) + (bm as u128) + c as u128;
                self.cpu.flags.cf = wide >> w.bits() != 0;
                let sign = 1u64 << (w.bits() - 1);
                self.cpu.flags.of = !(am ^ bm) & (am ^ r) & sign != 0;
                self.cpu.flags.set_result(r, w);
                Some(r)
            }
            3 => {
                let c = self.cpu.flags.cf as u64;
                let am = a & w.mask();
                let bm = b & w.mask();
                let r = am.wrapping_sub(bm).wrapping_sub(c) & w.mask();
                self.cpu.flags.cf = (am as u128) < (bm as u128 + c as u128);
                let sign = 1u64 << (w.bits() - 1);
                self.cpu.flags.of = (am ^ bm) & (am ^ r) & sign != 0;
                self.cpu.flags.set_result(r, w);
                Some(r)
            }
            5 => Some(self.alu_sub(a, b, w)),
            7 => {
                self.alu_sub(a, b, w);
                None
            }
            _ => unreachable!(),
        }
    }

    fn eval_cond(&self, c: Cond) -> bool {
        let f = &self.cpu.flags;
        match c {
            Cond::O => f.of,
            Cond::No => !f.of,
            Cond::B => f.cf,
            Cond::Ae => !f.cf,
            Cond::E => f.zf,
            Cond::Ne => !f.zf,
            Cond::Be => f.cf || f.zf,
            Cond::A => !f.cf && !f.zf,
            Cond::S => f.sf,
            Cond::Ns => !f.sf,
            Cond::P => f.pf,
            Cond::Np => !f.pf,
            Cond::L => f.sf != f.of,
            Cond::Ge => f.sf == f.of,
            Cond::Le => f.zf || (f.sf != f.of),
            Cond::G => !f.zf && (f.sf == f.of),
        }
    }

    // ---- syscalls --------------------------------------------------------

    fn ensure_heap_pages(&mut self, lo: u64, hi: u64) {
        let mut page = lo & !(PAGE_SIZE - 1);
        while page < hi {
            if !self.mem.is_mapped(page) {
                self.mem.map_anon(page, PAGE_SIZE, Perms::RW);
            }
            page += PAGE_SIZE;
        }
    }

    fn syscall(&mut self) -> Result<(), VmError> {
        let nr = self.cpu.get(Reg::Rax);
        let a0 = self.cpu.get(Reg::Rdi);
        let a1 = self.cpu.get(Reg::Rsi);
        let a2 = self.cpu.get(Reg::Rdx);
        let ret: u64 = match nr {
            // write(fd, buf, len) — capture fd 1/2.
            1 => {
                if a0 == 1 || a0 == 2 {
                    for i in 0..a2 {
                        let b = self.mem.read8(a1 + i).map_err(|f| self.fault(f))?;
                        self.output.push(b);
                    }
                }
                a2
            }
            // mmap(addr, len, prot, flags, fd, off).
            9 => {
                let fd = self.cpu.get(Reg::R8) as i64;
                let off = self.cpu.get(Reg::R9);
                let perms = Perms {
                    r: a2 & 1 != 0,
                    w: a2 & 2 != 0,
                    x: a2 & 4 != 0,
                };
                if fd == crate::load::SELF_FD as i64 {
                    let phys = self
                        .self_fd_phys
                        .expect("binary image registered as fd 100");
                    self.mem.map_file(a0, phys, off, a1, perms);
                } else if fd < 0 {
                    self.mem.map_anon(a0, a1, perms);
                } else {
                    return Err(VmError::BadSyscall(nr));
                }
                a0
            }
            // exit / exit_group.
            60 | 231 => {
                self.exited = Some(a0 as i32);
                0
            }
            SYS_MALLOC => {
                let p = self.heap.malloc(a0);
                if p != 0 {
                    self.ensure_heap_pages(p.saturating_sub(16), p + a0.max(1) + 16);
                }
                p
            }
            SYS_FREE => {
                self.heap.free(a0);
                0
            }
            _ => return Err(VmError::BadSyscall(nr)),
        };
        self.cpu.set(Reg::Rax, ret);
        // syscall clobbers rcx (return rip) and r11 (rflags).
        self.cpu.set(Reg::Rcx, self.cpu.rip);
        self.cpu.set(Reg::R11, self.cpu.flags.to_rflags());
        Ok(())
    }

    // ---- main loop -------------------------------------------------------

    fn decode_at(&mut self, rip: u64) -> Result<Op, VmError> {
        if self.icache_epoch != self.mem.epoch {
            self.icache.clear();
            self.icache_epoch = self.mem.epoch;
        }
        if let Some(i) = self.icache.get(&rip) {
            return Ok(*i);
        }
        let bytes = self.mem.fetch(rip).map_err(|f| self.fault(f))?;
        let insn = e9x86::decode(&bytes, rip).map_err(|e| VmError::Decode {
            rip,
            msg: format!("{e} (bytes {bytes:02x?})"),
        })?;
        let op = Op::new(insn);
        self.icache.insert(rip, op);
        Ok(op)
    }

    /// Execute one instruction. Returns `false` once the guest has exited.
    ///
    /// # Errors
    ///
    /// Any fault, decode failure, unsupported instruction or bad syscall.
    pub fn step(&mut self) -> Result<bool, VmError> {
        if self.exited.is_some() {
            return Ok(false);
        }
        let rip = self.cpu.rip;
        if self.history.len() == HISTORY_LEN {
            self.history.pop_front();
        }
        self.history.push_back(rip);
        let insn = self.decode_at(rip)?;
        self.insns += 1;
        let mut next = insn.end();
        let w = insn.width;

        match insn.opcode {
            // ---- ALU families --------------------------------------
            Opcode::One(op) if op < 0x40 && (op & 7) < 6 && !matches!(op & 7, 6 | 7) => {
                let idx = op >> 3;
                match op & 7 {
                    0 | 1 => {
                        // r/m ←op reg
                        let a = self.read_rm(&insn, w)?;
                        let b = self.reg_field(&insn, w);
                        if let Some(r) = self.alu_group(idx, a, b, w) {
                            self.write_rm(&insn, w, r)?;
                        }
                    }
                    2 | 3 => {
                        // reg ←op r/m
                        let a = self.reg_field(&insn, w);
                        let b = self.read_rm(&insn, w)?;
                        if let Some(r) = self.alu_group(idx, a, b, w) {
                            self.set_reg_field(&insn, w, r);
                        }
                    }
                    4 | 5 => {
                        // al/eax ←op imm
                        let a = self.cpu.get_w(0, w, true);
                        let b = insn.imm as u64;
                        if let Some(r) = self.alu_group(idx, a, b, w) {
                            self.cpu.set_w(0, w, true, r);
                        }
                    }
                    _ => unreachable!(),
                }
            }
            // Immediate group 1 (80/81/83).
            Opcode::One(0x80 | 0x81 | 0x83) => {
                let m = insn.modrm.unwrap();
                let a = self.read_rm(&insn, w)?;
                let b = insn.imm as u64;
                if let Some(r) = self.alu_group(m.reg & 7, a, b, w) {
                    self.write_rm(&insn, w, r)?;
                }
            }
            // test r/m, reg.
            Opcode::One(0x84 | 0x85) => {
                let a = self.read_rm(&insn, w)?;
                let b = self.reg_field(&insn, w);
                self.alu_logic(4, a, b, w);
            }
            // xchg r/m, reg.
            Opcode::One(0x86 | 0x87) => {
                let a = self.read_rm(&insn, w)?;
                let b = self.reg_field(&insn, w);
                self.write_rm(&insn, w, b)?;
                self.set_reg_field(&insn, w, a);
            }
            // mov.
            Opcode::One(0x88 | 0x89) => {
                let v = self.reg_field(&insn, w);
                self.write_rm(&insn, w, v)?;
            }
            Opcode::One(0x8A | 0x8B) => {
                let v = self.read_rm(&insn, w)?;
                self.set_reg_field(&insn, w, v);
            }
            // lea.
            Opcode::One(0x8D) => {
                let m = insn.modrm.unwrap();
                let mem = m.mem.expect("lea requires memory form");
                let a = self.effective_addr(&insn, &mem);
                self.set_reg_field(&insn, w, a);
            }
            // pop r/m.
            Opcode::One(0x8F) => {
                let v = self.pop()?;
                self.write_rm(&insn, Width::Q, v)?;
            }
            // movsxd.
            Opcode::One(0x63) => {
                let v = self.read_rm(&insn, Width::D)?;
                self.set_reg_field(&insn, w, Width::D.sext(v) as u64);
            }
            // push/pop r64.
            Opcode::One(op @ 0x50..=0x57) => {
                let r = Self::opcode_reg(&insn, op);
                let v = self.cpu.get_w(r, Width::Q, true);
                self.push(v)?;
            }
            Opcode::One(op @ 0x58..=0x5F) => {
                let r = Self::opcode_reg(&insn, op);
                let v = self.pop()?;
                self.cpu.set_w(r, Width::Q, true, v);
            }
            // push imm.
            Opcode::One(0x68 | 0x6A) => self.push(insn.imm as u64)?,
            // imul reg ← r/m * imm.
            Opcode::One(0x69 | 0x6B) => {
                let a = self.read_rm(&insn, w)? as i64;
                let r = w.sext(a as u64).wrapping_mul(insn.imm) as u64 & w.mask();
                self.cpu.flags.set_result(r, w);
                self.cpu.flags.cf = false;
                self.cpu.flags.of = false;
                self.set_reg_field(&insn, w, r);
            }
            // nop / xchg rax, r.
            Opcode::One(0x90) if !insn.prefixes.rex_b() => {}
            Opcode::One(op @ 0x90..=0x97) => {
                let r = Self::opcode_reg(&insn, op);
                let a = self.cpu.get_w(0, w, true);
                let b = self.cpu.get_w(r, w, true);
                self.cpu.set_w(0, w, true, b);
                self.cpu.set_w(r, w, true, a);
            }
            // cwde/cdqe.
            Opcode::One(0x98) => {
                let v = if w == Width::Q {
                    Width::D.sext(self.cpu.get(Reg::Rax)) as u64
                } else {
                    Width::W.sext(self.cpu.get(Reg::Rax)) as u64 & 0xFFFF_FFFF
                };
                self.cpu.set_w(0, w, true, v);
            }
            // cdq/cqo.
            Opcode::One(0x99) => {
                let sign = if w == Width::Q {
                    (self.cpu.get(Reg::Rax) as i64) >> 63
                } else {
                    ((self.cpu.get(Reg::Rax) as u32 as i32) >> 31) as i64
                };
                self.cpu.set_w(2, w, true, sign as u64);
            }
            // pushfq/popfq.
            Opcode::One(0x9C) => {
                let v = self.cpu.flags.to_rflags();
                self.push(v)?;
            }
            Opcode::One(0x9D) => {
                let v = self.pop()?;
                self.cpu.flags = Flags::from_rflags(v);
            }
            // test al/eax, imm.
            Opcode::One(0xA8 | 0xA9) => {
                let a = self.cpu.get_w(0, w, true);
                self.alu_logic(4, a, insn.imm as u64, w);
            }
            // mov r, imm.
            Opcode::One(op @ 0xB0..=0xBF) => {
                let r = Self::opcode_reg(&insn, op);
                self.cpu
                    .set_w(r, w, insn.prefixes.rex.is_some(), insn.imm as u64);
            }
            // shift group 2.
            Opcode::One(op @ (0xC0 | 0xC1 | 0xD0 | 0xD1 | 0xD2 | 0xD3)) => {
                let m = insn.modrm.unwrap();
                let count = match op {
                    0xC0 | 0xC1 => insn.imm as u64,
                    0xD0 | 0xD1 => 1,
                    _ => self.cpu.get(Reg::Rcx),
                } & if w == Width::Q { 63 } else { 31 };
                let a = self.read_rm(&insn, w)?;
                let r = self.shift(m.reg & 7, a, count as u32, w, rip)?;
                self.write_rm(&insn, w, r)?;
            }
            // ret / ret imm16.
            Opcode::One(0xC3 | 0xC2) => {
                next = self.pop()?;
                if insn.imm != 0 {
                    let rsp = self.cpu.get(Reg::Rsp);
                    self.cpu.set(Reg::Rsp, rsp + insn.imm as u64);
                }
            }
            // mov r/m, imm.
            Opcode::One(0xC6 | 0xC7) => {
                self.write_rm(&insn, w, insn.imm as u64)?;
            }
            // leave.
            Opcode::One(0xC9) => {
                self.cpu.set(Reg::Rsp, self.cpu.get(Reg::Rbp));
                let v = self.pop()?;
                self.cpu.set(Reg::Rbp, v);
            }
            // int3 — B0 trap dispatch.
            Opcode::One(0xCC) => {
                let site = rip;
                match self.traps.get(&site) {
                    Some(&tramp) => {
                        self.steps += self.trap_cost;
                        next = tramp;
                    }
                    None => return Err(VmError::UnexpectedTrap(site)),
                }
            }
            // call rel32.
            Opcode::One(0xE8) => {
                self.push(insn.end())?;
                next = insn.branch_target().unwrap();
            }
            // jmp rel8/rel32, jcc rel8.
            Opcode::One(0xE9 | 0xEB) => next = insn.branch_target().unwrap(),
            // loop / loope / loopne / jrcxz.
            Opcode::One(op @ 0xE0..=0xE3) => {
                let taken = if op == 0xE3 {
                    self.cpu.get(Reg::Rcx) == 0
                } else {
                    let rcx = self.cpu.get(Reg::Rcx).wrapping_sub(1);
                    self.cpu.set(Reg::Rcx, rcx);
                    rcx != 0
                        && match op {
                            0xE0 => !self.cpu.flags.zf,
                            0xE1 => self.cpu.flags.zf,
                            _ => true,
                        }
                };
                if taken {
                    next = insn.branch_target().unwrap();
                }
            }
            Opcode::One(0x70..=0x7F) => {
                if let Kind::JccRel8(c) = insn.kind {
                    if self.eval_cond(c) {
                        next = insn.branch_target().unwrap();
                    }
                }
            }
            // group 3.
            Opcode::One(0xF6 | 0xF7) => {
                let m = insn.modrm.unwrap();
                match m.reg & 7 {
                    0 | 1 => {
                        let a = self.read_rm(&insn, w)?;
                        self.alu_logic(4, a, insn.imm as u64, w);
                    }
                    2 => {
                        let a = self.read_rm(&insn, w)?;
                        self.write_rm(&insn, w, !a & w.mask())?;
                    }
                    3 => {
                        let a = self.read_rm(&insn, w)?;
                        let r = self.alu_sub(0, a, w);
                        self.cpu.flags.cf = a & w.mask() != 0;
                        self.write_rm(&insn, w, r)?;
                    }
                    4 => {
                        // mul: rdx:rax = rax * r/m (flags approximated).
                        let a = self.cpu.get_w(0, w, true) as u128;
                        let b = self.read_rm(&insn, w)? as u128;
                        let r = a * b;
                        self.cpu.set_w(0, w, true, r as u64 & w.mask());
                        if w != Width::B {
                            self.cpu
                                .set_w(2, w, true, (r >> w.bits()) as u64 & w.mask());
                        }
                        let hi = (r >> w.bits()) != 0;
                        self.cpu.flags.cf = hi;
                        self.cpu.flags.of = hi;
                    }
                    6 => {
                        // div: unsigned rdx:rax / r/m.
                        let d = self.read_rm(&insn, w)?;
                        if d == 0 {
                            return Err(VmError::Unsupported {
                                rip,
                                msg: "divide by zero".into(),
                            });
                        }
                        let lo = self.cpu.get_w(0, w, true) as u128;
                        let hi = if w == Width::B {
                            (self.cpu.get(Reg::Rax) >> 8 & 0xFF) as u128
                        } else {
                            self.cpu.get_w(2, w, true) as u128
                        };
                        let n = (hi << w.bits()) | lo;
                        let q = n / d as u128;
                        let r = n % d as u128;
                        self.cpu.set_w(0, w, true, q as u64 & w.mask());
                        if w == Width::B {
                            let rax = self.cpu.get(Reg::Rax);
                            self.cpu
                                .set(Reg::Rax, (rax & !0xFF00) | ((r as u64 & 0xFF) << 8));
                        } else {
                            self.cpu.set_w(2, w, true, r as u64 & w.mask());
                        }
                    }
                    other => {
                        return Err(VmError::Unsupported {
                            rip,
                            msg: format!("group3 /{other}"),
                        })
                    }
                }
            }
            // group 4/5.
            Opcode::One(0xFE | 0xFF) => {
                let m = insn.modrm.unwrap();
                match (insn.opcode, m.reg & 7) {
                    (Opcode::One(_), 0) => {
                        // inc (CF preserved).
                        let a = self.read_rm(&insn, w)?;
                        let cf = self.cpu.flags.cf;
                        let r = self.alu_add(a, 1, w);
                        self.cpu.flags.cf = cf;
                        self.write_rm(&insn, w, r)?;
                    }
                    (Opcode::One(_), 1) => {
                        let a = self.read_rm(&insn, w)?;
                        let cf = self.cpu.flags.cf;
                        let r = self.alu_sub(a, 1, w);
                        self.cpu.flags.cf = cf;
                        self.write_rm(&insn, w, r)?;
                    }
                    (Opcode::One(0xFF), 2) => {
                        // call r/m64.
                        let t = self.read_rm(&insn, Width::Q)?;
                        self.push(insn.end())?;
                        next = t;
                    }
                    (Opcode::One(0xFF), 4) => {
                        next = self.read_rm(&insn, Width::Q)?;
                    }
                    (Opcode::One(0xFF), 6) => {
                        let v = self.read_rm(&insn, Width::Q)?;
                        self.push(v)?;
                    }
                    (_, other) => {
                        return Err(VmError::Unsupported {
                            rip,
                            msg: format!("group5 /{other}"),
                        })
                    }
                }
            }
            // Long NOPs and prefetch hints.
            Opcode::TwoOf(0x1F) | Opcode::TwoOf(0x18) | Opcode::TwoOf(0x0D) => {}
            // syscall.
            Opcode::TwoOf(0x05) => self.syscall()?,
            // cmovcc.
            Opcode::TwoOf(op @ 0x40..=0x4F) => {
                let v = self.read_rm(&insn, w)?;
                if self.eval_cond(Cond::from_nibble(op & 0xF)) {
                    self.set_reg_field(&insn, w, v);
                } else if w == Width::D {
                    // 32-bit cmov still zero-extends the destination.
                    let cur = self.reg_field(&insn, Width::D);
                    self.set_reg_field(&insn, Width::D, cur);
                }
            }
            // jcc rel32.
            Opcode::TwoOf(0x80..=0x8F) => {
                if let Kind::JccRel32(c) = insn.kind {
                    if self.eval_cond(c) {
                        next = insn.branch_target().unwrap();
                    }
                }
            }
            // setcc.
            Opcode::TwoOf(op @ 0x90..=0x9F) => {
                let v = self.eval_cond(Cond::from_nibble(op & 0xF)) as u64;
                self.write_rm(&insn, Width::B, v)?;
            }
            // imul reg, r/m.
            Opcode::TwoOf(0xAF) => {
                let a = w.sext(self.reg_field(&insn, w));
                let b = w.sext(self.read_rm(&insn, w)?);
                let r = a.wrapping_mul(b) as u64 & w.mask();
                self.cpu.flags.set_result(r, w);
                self.cpu.flags.cf = false;
                self.cpu.flags.of = false;
                self.set_reg_field(&insn, w, r);
            }
            // movzx / movsx.
            Opcode::TwoOf(0xB6) => {
                let v = self.read_rm(&insn, Width::B)?;
                self.set_reg_field(&insn, w, v);
            }
            Opcode::TwoOf(0xB7) => {
                let v = self.read_rm(&insn, Width::W)?;
                self.set_reg_field(&insn, w, v);
            }
            Opcode::TwoOf(0xBE) => {
                let v = self.read_rm(&insn, Width::B)?;
                self.set_reg_field(&insn, w, Width::B.sext(v) as u64 & w.mask());
            }
            Opcode::TwoOf(0xBF) => {
                let v = self.read_rm(&insn, Width::W)?;
                self.set_reg_field(&insn, w, Width::W.sext(v) as u64 & w.mask());
            }
            // ud2 and anything else: unsupported.
            _ => {
                return Err(VmError::Unsupported {
                    rip,
                    msg: format!("{}", insn.insn),
                })
            }
        }

        // Cost model: plain instructions cost 1; control transfers cost
        // more, scaled by how far they land (trampoline round trips are
        // far by construction).
        self.steps += match insn.kind {
            Kind::Other | Kind::Int3 | Kind::Syscall => 1,
            _ => {
                if next.abs_diff(insn.end()) > FAR_BRANCH_DISTANCE {
                    self.far_branch_cost
                } else {
                    self.branch_cost
                }
            }
        };

        self.cpu.rip = next;
        Ok(self.exited.is_none())
    }

    fn shift(&mut self, ext: u8, a: u64, count: u32, w: Width, rip: u64) -> Result<u64, VmError> {
        if count == 0 {
            return Ok(a & w.mask());
        }
        let bits = w.bits();
        let am = a & w.mask();
        let r = match ext {
            4 => {
                // shl
                self.cpu.flags.cf = count <= bits && (am >> (bits - count)) & 1 == 1;
                (am << count) & w.mask()
            }
            5 => {
                // shr
                self.cpu.flags.cf = (am >> (count - 1)) & 1 == 1;
                am >> count
            }
            7 => {
                // sar
                let s = w.sext(am);
                self.cpu.flags.cf = (s >> (count - 1).min(63)) & 1 == 1;
                (s >> count.min(63)) as u64 & w.mask()
            }
            0 => {
                // rol
                let c = count % bits;
                if c == 0 {
                    am
                } else {
                    ((am << c) | (am >> (bits - c))) & w.mask()
                }
            }
            1 => {
                // ror
                let c = count % bits;
                if c == 0 {
                    am
                } else {
                    ((am >> c) | (am << (bits - c))) & w.mask()
                }
            }
            other => {
                return Err(VmError::Unsupported {
                    rip,
                    msg: format!("shift group /{other}"),
                })
            }
        };
        if matches!(ext, 4 | 5 | 7) {
            self.cpu.flags.set_result(r, w);
        }
        Ok(r)
    }

    /// Run until guest exit or `max_steps` cost units.
    ///
    /// # Errors
    ///
    /// Propagates [`Vm::step`] errors; [`VmError::StepLimit`] if the budget
    /// is exhausted first.
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult, VmError> {
        while self.exited.is_none() {
            if self.steps >= max_steps {
                return Err(VmError::StepLimit(max_steps));
            }
            self.step()?;
        }
        Ok(RunResult {
            exit_code: self.exited.unwrap_or(0),
            steps: self.steps,
            insns: self.insns,
            output: self.output.clone(),
        })
    }
}
