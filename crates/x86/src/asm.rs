//! Mini-assembler: emits x86_64 machine code for the workload generator,
//! trampoline builder and loader stub.
//!
//! The assembler is deliberately small — it supports exactly the subset of
//! instructions the reproduction's synthetic binaries, trampolines and
//! loader need — but emits *real* machine code that round-trips through the
//! decoder (property-tested in this module).
//!
//! # Example
//!
//! ```
//! use e9x86::asm::{Asm, Mem};
//! use e9x86::reg::{Reg, Width};
//!
//! let mut a = Asm::new(0x401000);
//! let top = a.fresh_label();
//! a.mov_ri64(Reg::Rcx, 10);
//! a.bind(top);
//! a.add_ri(Width::Q, Reg::Rax, 3);
//! a.sub_ri(Width::Q, Reg::Rcx, 1);
//! a.jcc(e9x86::Cond::Ne, top);
//! a.ret();
//! let code = a.finish().unwrap();
//! assert!(!code.is_empty());
//! ```

use crate::insn::{Cond, Insn};
use crate::reg::{Reg, Width};
use crate::reloc::{self, RelocError};
use std::borrow::BorrowMut;
use std::fmt;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// A memory operand for the assembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mem {
    /// Base register.
    pub base: Option<Reg>,
    /// Index register with scale (1, 2, 4 or 8).
    pub index: Option<(Reg, u8)>,
    /// Displacement.
    pub disp: i32,
    /// RIP-relative target label (`lea label(%rip), r` style). When set,
    /// `base`/`index` must be `None`.
    pub rip_label: Option<Label>,
}

impl Mem {
    /// `(%base)`
    pub fn base(base: Reg) -> Mem {
        Mem {
            base: Some(base),
            index: None,
            disp: 0,
            rip_label: None,
        }
    }

    /// `disp(%base)`
    pub fn base_disp(base: Reg, disp: i32) -> Mem {
        Mem {
            base: Some(base),
            index: None,
            disp,
            rip_label: None,
        }
    }

    /// `disp(%base,%index,scale)`
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i32) -> Mem {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "bad scale {scale}");
        Mem {
            base: Some(base),
            index: Some((index, scale)),
            disp,
            rip_label: None,
        }
    }

    /// `label(%rip)` — resolved at [`Asm::finish`] time.
    pub fn rip(label: Label) -> Mem {
        Mem {
            base: None,
            index: None,
            disp: 0,
            rip_label: Some(label),
        }
    }
}

/// Assembly error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(Label),
    /// A relative displacement does not fit its field.
    DispOutOfRange { from: u64, to: u64 },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label {l:?} was never bound"),
            AsmError::DispOutOfRange { from, to } => {
                write!(f, "displacement from {from:#x} to {to:#x} out of range")
            }
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone, Copy)]
enum FixKind {
    Rel8,
    Rel32,
    /// 64-bit absolute address of a label (for jump tables).
    Abs64,
}

#[derive(Debug, Clone, Copy)]
struct Fixup {
    at: usize,
    label: Label,
    kind: FixKind,
}

/// The assembler: an append-only code buffer with label fixups.
///
/// [`Asm::new`] assembles into a buffer of its own, which
/// [`Asm::finish`] returns. [`Asm::onto`] appends to a caller's buffer
/// instead, so many pieces of code can share one allocation: labels and
/// fixups are kept relative to where this assembler's code begins, and
/// are patched in place there.
#[derive(Debug)]
pub struct Asm<B = Vec<u8>> {
    /// Virtual address of the first byte this assembler emits.
    base: u64,
    code: B,
    /// Index in `code` of the first byte this assembler emits.
    start: usize,
    /// Offset each label is bound at, indexed by label number.
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
}

impl Asm {
    /// New assembler whose first byte will live at virtual address `base`.
    pub fn new(base: u64) -> Asm {
        Asm::with_buffer(Vec::new(), base)
    }

    /// Resolve all fixups and return the code bytes.
    ///
    /// # Errors
    ///
    /// Fails if a referenced label is unbound or a displacement overflows.
    pub fn finish(mut self) -> Result<Vec<u8>, AsmError> {
        self.resolve()?;
        Ok(self.code)
    }
}

impl<'b> Asm<&'b mut Vec<u8>> {
    /// Assembler that appends to `buf`; the first byte it emits (at
    /// `buf.len()`) will live at virtual address `base`.
    pub fn onto(buf: &'b mut Vec<u8>, base: u64) -> Asm<&'b mut Vec<u8>> {
        Asm::with_buffer(buf, base)
    }

    /// Resolve all fixups in place and return how many bytes were
    /// appended.
    ///
    /// # Errors
    ///
    /// Fails if a referenced label is unbound or a displacement
    /// overflows. The appended bytes stay; a caller that needs the buffer
    /// as it was truncates it back.
    pub fn finish(mut self) -> Result<usize, AsmError> {
        self.resolve()?;
        Ok(self.len())
    }
}

impl<B: BorrowMut<Vec<u8>>> Asm<B> {
    fn with_buffer(code: B, base: u64) -> Asm<B> {
        let start = code.borrow().len();
        Asm {
            base,
            code,
            start,
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// The buffer, for appending.
    fn buf(&mut self) -> &mut Vec<u8> {
        self.code.borrow_mut()
    }

    /// Virtual address of the next emitted byte.
    pub fn here(&self) -> u64 {
        self.base + self.len() as u64
    }

    /// Current code size in bytes.
    pub fn len(&self) -> usize {
        self.code.borrow().len() - self.start
    }

    /// Whether any code has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a fresh, unbound label.
    pub fn fresh_label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let at = self.len();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(at);
    }

    /// Patch every fixup in place.
    fn resolve(&mut self) -> Result<(), AsmError> {
        for f in std::mem::take(&mut self.fixups) {
            let target_off = self
                .labels
                .get(f.label.0 as usize)
                .copied()
                .flatten()
                .ok_or(AsmError::UnboundLabel(f.label))?;
            let target = self.base + target_off as u64;
            let at = self.start + f.at;
            let code = self.code.borrow_mut();
            match f.kind {
                FixKind::Rel8 => {
                    let from = self.base + f.at as u64 + 1;
                    let d = target.wrapping_sub(from) as i64;
                    let d8 = i8::try_from(d)
                        .map_err(|_| AsmError::DispOutOfRange { from, to: target })?;
                    code[at] = d8 as u8;
                }
                FixKind::Rel32 => {
                    let from = self.base + f.at as u64 + 4;
                    let d = target.wrapping_sub(from) as i64;
                    let d32 = i32::try_from(d)
                        .map_err(|_| AsmError::DispOutOfRange { from, to: target })?;
                    code[at..at + 4].copy_from_slice(&d32.to_le_bytes());
                }
                FixKind::Abs64 => {
                    code[at..at + 8].copy_from_slice(&target.to_le_bytes());
                }
            }
        }
        Ok(())
    }

    /// Append `insn` relocated to run at [`Asm::here`] (see
    /// [`reloc::relocate`]).
    ///
    /// # Errors
    ///
    /// As [`reloc::relocate`]; nothing is appended then.
    pub fn relocated(&mut self, insn: &Insn) -> Result<(), RelocError> {
        let at = self.here();
        reloc::relocate(insn, at, self.buf()).map(|_| ())
    }

    // ---- low-level emission -------------------------------------------

    /// Append raw bytes.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf().extend_from_slice(bytes);
    }

    fn u8(&mut self, b: u8) {
        self.buf().push(b);
    }

    fn i32le(&mut self, v: i32) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Emit a REX prefix if any bit (or `force`, for 64-bit ops) requires it.
    fn rex(&mut self, w: bool, r: u8, x: u8, b: u8) {
        let byte =
            0x40 | (w as u8) << 3 | ((r >> 3) & 1) << 2 | ((x >> 3) & 1) << 1 | ((b >> 3) & 1);
        if byte != 0x40 {
            self.u8(byte);
        }
    }

    fn op_prefix(&mut self, width: Width, r: u8, x: u8, b: u8) {
        if width == Width::W {
            self.u8(0x66);
        }
        self.rex(width == Width::Q, r, x, b);
    }

    /// Emit ModRM (+SIB +disp) for register `reg_field` and memory operand
    /// `mem`. REX bits must already have been emitted by the caller (use
    /// [`Self::mem_xb`]).
    fn modrm_mem(&mut self, reg_field: u8, mem: Mem) {
        let reg3 = reg_field & 7;
        if let Some(lbl) = mem.rip_label {
            // RIP-relative: mod=00 rm=101 disp32 (fixup).
            self.u8(reg3 << 3 | 0b101);
            let at = self.len();
            self.i32le(0);
            self.fixups.push(Fixup {
                at,
                label: lbl,
                kind: FixKind::Rel32,
            });
            return;
        }
        match (mem.base, mem.index) {
            (Some(base), None) if base.low3() != 4 => {
                // Simple base (+disp). rbp/r13 with mod=00 means RIP-rel, so
                // force disp8.
                let needs_disp8 = base.low3() == 5;
                if mem.disp == 0 && !needs_disp8 {
                    self.u8(reg3 << 3 | base.low3());
                } else if let Ok(d8) = i8::try_from(mem.disp) {
                    self.u8(0x40 | reg3 << 3 | base.low3());
                    self.u8(d8 as u8);
                } else {
                    self.u8(0x80 | reg3 << 3 | base.low3());
                    self.i32le(mem.disp);
                }
            }
            (Some(base), None) => {
                // rsp/r12 base requires a SIB byte.
                if mem.disp == 0 && base.low3() != 5 {
                    self.u8(reg3 << 3 | 0b100);
                    self.u8(0x24 | (base.low3() & 7)); // scale=0 index=100 base
                } else if let Ok(d8) = i8::try_from(mem.disp) {
                    self.u8(0x40 | reg3 << 3 | 0b100);
                    self.u8(0x20 | base.low3());
                    self.u8(d8 as u8);
                } else {
                    self.u8(0x80 | reg3 << 3 | 0b100);
                    self.u8(0x20 | base.low3());
                    self.i32le(mem.disp);
                }
            }
            (base, Some((index, scale))) => {
                assert!(
                    index.low3() != 4 || index.needs_rex(),
                    "rsp cannot be an index"
                );
                let ss: u8 = match scale {
                    1 => 0,
                    2 => 1,
                    4 => 2,
                    8 => 3,
                    _ => unreachable!(),
                };
                match base {
                    Some(b) => {
                        let needs_disp8 = b.low3() == 5;
                        if mem.disp == 0 && !needs_disp8 {
                            self.u8(reg3 << 3 | 0b100);
                            self.u8(ss << 6 | index.low3() << 3 | b.low3());
                        } else if let Ok(d8) = i8::try_from(mem.disp) {
                            self.u8(0x40 | reg3 << 3 | 0b100);
                            self.u8(ss << 6 | index.low3() << 3 | b.low3());
                            self.u8(d8 as u8);
                        } else {
                            self.u8(0x80 | reg3 << 3 | 0b100);
                            self.u8(ss << 6 | index.low3() << 3 | b.low3());
                            self.i32le(mem.disp);
                        }
                    }
                    None => {
                        // mod=00, base=101: disp32, no base.
                        self.u8(reg3 << 3 | 0b100);
                        self.u8(ss << 6 | index.low3() << 3 | 0b101);
                        self.i32le(mem.disp);
                    }
                }
            }
            (None, None) => {
                // Absolute disp32 via SIB with no base/index.
                self.u8(reg3 << 3 | 0b100);
                self.u8(0x25);
                self.i32le(mem.disp);
            }
        }
    }

    fn mem_xb(mem: Mem) -> (u8, u8) {
        let x = mem.index.map_or(0, |(r, _)| r.num());
        let b = mem.base.map_or(0, |r| r.num());
        (x, b)
    }

    fn modrm_rr(&mut self, reg_field: u8, rm: u8) {
        self.u8(0xC0 | (reg_field & 7) << 3 | (rm & 7));
    }

    // ---- data definition ----------------------------------------------

    /// Emit a 64-bit little-endian constant.
    pub fn dq(&mut self, v: u64) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Emit the 64-bit absolute address of `label` (resolved at finish).
    pub fn dq_label(&mut self, label: Label) {
        let at = self.len();
        self.dq(0);
        self.fixups.push(Fixup {
            at,
            label,
            kind: FixKind::Abs64,
        });
    }

    // ---- moves ----------------------------------------------------------

    /// `movabs $imm, %r64` (10-byte form) — also used for label addresses.
    pub fn mov_ri64(&mut self, dst: Reg, imm: i64) {
        self.rex(true, 0, 0, dst.num());
        self.u8(0xB8 + dst.low3());
        self.buf().extend_from_slice(&imm.to_le_bytes());
    }

    /// `movabs $label, %r64` — the label's absolute address.
    pub fn mov_rlabel(&mut self, dst: Reg, label: Label) {
        self.rex(true, 0, 0, dst.num());
        self.u8(0xB8 + dst.low3());
        let at = self.len();
        self.dq(0);
        self.fixups.push(Fixup {
            at,
            label,
            kind: FixKind::Abs64,
        });
    }

    /// `mov $imm32, %r32` (zero-extends into the 64-bit register).
    pub fn mov_ri32(&mut self, dst: Reg, imm: u32) {
        self.rex(false, 0, 0, dst.num());
        self.u8(0xB8 + dst.low3());
        self.buf().extend_from_slice(&imm.to_le_bytes());
    }

    /// `mov %src, %dst` at the given width.
    pub fn mov_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.op_prefix(w, src.num(), 0, dst.num());
        self.u8(if w == Width::B { 0x88 } else { 0x89 });
        self.modrm_rr(src.num(), dst.num());
    }

    /// Load: `mov mem, %dst`.
    pub fn mov_rm(&mut self, w: Width, dst: Reg, mem: Mem) {
        let (x, b) = Self::mem_xb(mem);
        self.op_prefix(w, dst.num(), x, b);
        self.u8(if w == Width::B { 0x8A } else { 0x8B });
        self.modrm_mem(dst.num(), mem);
    }

    /// Store: `mov %src, mem`.
    pub fn mov_mr(&mut self, w: Width, mem: Mem, src: Reg) {
        let (x, b) = Self::mem_xb(mem);
        self.op_prefix(w, src.num(), x, b);
        self.u8(if w == Width::B { 0x88 } else { 0x89 });
        self.modrm_mem(src.num(), mem);
    }

    /// Store immediate: `mov{b,l,q} $imm, mem` (C6/C7 /0; imm is 8 or 32
    /// bits).
    pub fn mov_mi(&mut self, w: Width, mem: Mem, imm: i32) {
        let (x, b) = Self::mem_xb(mem);
        self.op_prefix(w, 0, x, b);
        self.u8(if w == Width::B { 0xC6 } else { 0xC7 });
        self.modrm_mem(0, mem);
        if w == Width::B {
            self.u8(imm as u8);
        } else if w == Width::W {
            self.buf().extend_from_slice(&(imm as i16).to_le_bytes());
        } else {
            self.i32le(imm);
        }
    }

    /// `movzbl mem, %dst` (zero-extending byte load).
    pub fn movzx_b(&mut self, dst: Reg, mem: Mem) {
        let (x, b) = Self::mem_xb(mem);
        self.rex(false, dst.num(), x, b);
        self.raw(&[0x0F, 0xB6]);
        self.modrm_mem(dst.num(), mem);
    }

    /// `lea mem, %dst` (64-bit).
    pub fn lea(&mut self, dst: Reg, mem: Mem) {
        let (x, b) = Self::mem_xb(mem);
        self.rex(true, dst.num(), x, b);
        self.u8(0x8D);
        self.modrm_mem(dst.num(), mem);
    }

    // ---- ALU ------------------------------------------------------------

    fn alu_rr(&mut self, opc: u8, w: Width, dst: Reg, src: Reg) {
        self.op_prefix(w, src.num(), 0, dst.num());
        self.u8(if w == Width::B { opc } else { opc + 1 });
        self.modrm_rr(src.num(), dst.num());
    }

    fn alu_ri(&mut self, ext: u8, w: Width, dst: Reg, imm: i32) {
        self.op_prefix(w, 0, 0, dst.num());
        if w != Width::B {
            if let Ok(i8v) = i8::try_from(imm) {
                self.u8(0x83);
                self.modrm_rr(ext, dst.num());
                self.u8(i8v as u8);
                return;
            }
        }
        self.u8(if w == Width::B { 0x80 } else { 0x81 });
        self.modrm_rr(ext, dst.num());
        if w == Width::B {
            self.u8(imm as u8);
        } else if w == Width::W {
            self.buf().extend_from_slice(&(imm as i16).to_le_bytes());
        } else {
            self.i32le(imm);
        }
    }

    fn alu_rm(&mut self, opc: u8, w: Width, dst: Reg, mem: Mem) {
        let (x, b) = Self::mem_xb(mem);
        self.op_prefix(w, dst.num(), x, b);
        self.u8(if w == Width::B { opc + 2 } else { opc + 3 });
        self.modrm_mem(dst.num(), mem);
    }

    fn alu_mr(&mut self, opc: u8, w: Width, mem: Mem, src: Reg) {
        let (x, b) = Self::mem_xb(mem);
        self.op_prefix(w, src.num(), x, b);
        self.u8(if w == Width::B { opc } else { opc + 1 });
        self.modrm_mem(src.num(), mem);
    }

    /// `add %src, %dst`.
    pub fn add_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.alu_rr(0x00, w, dst, src);
    }
    /// `add $imm, %dst`.
    pub fn add_ri(&mut self, w: Width, dst: Reg, imm: i32) {
        self.alu_ri(0, w, dst, imm);
    }
    /// `add mem, %dst`.
    pub fn add_rm(&mut self, w: Width, dst: Reg, mem: Mem) {
        self.alu_rm(0x00, w, dst, mem);
    }
    /// `add %src, mem` (read-modify-write heap op).
    pub fn add_mr(&mut self, w: Width, mem: Mem, src: Reg) {
        self.alu_mr(0x00, w, mem, src);
    }
    /// `sub %src, %dst`.
    pub fn sub_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.alu_rr(0x28, w, dst, src);
    }
    /// `sub $imm, %dst`.
    pub fn sub_ri(&mut self, w: Width, dst: Reg, imm: i32) {
        self.alu_ri(5, w, dst, imm);
    }
    /// `and %src, %dst`.
    pub fn and_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.alu_rr(0x20, w, dst, src);
    }
    /// `and $imm, %dst`.
    pub fn and_ri(&mut self, w: Width, dst: Reg, imm: i32) {
        self.alu_ri(4, w, dst, imm);
    }
    /// `or %src, %dst`.
    pub fn or_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.alu_rr(0x08, w, dst, src);
    }
    /// `xor %src, %dst`.
    pub fn xor_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.alu_rr(0x30, w, dst, src);
    }
    /// `cmp %src, %dst` (dst compared with src; sets flags).
    pub fn cmp_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.alu_rr(0x38, w, dst, src);
    }
    /// `cmp $imm, %dst`.
    pub fn cmp_ri(&mut self, w: Width, dst: Reg, imm: i32) {
        self.alu_ri(7, w, dst, imm);
    }
    /// `test %a, %b`.
    pub fn test_rr(&mut self, w: Width, a: Reg, b: Reg) {
        self.op_prefix(w, b.num(), 0, a.num());
        self.u8(if w == Width::B { 0x84 } else { 0x85 });
        self.modrm_rr(b.num(), a.num());
    }

    /// `imul %src, %dst` (two-operand form).
    pub fn imul_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        assert!(w != Width::B);
        self.op_prefix(w, dst.num(), 0, src.num());
        self.raw(&[0x0F, 0xAF]);
        self.modrm_rr(dst.num(), src.num());
    }

    /// `shl $imm, %dst`.
    pub fn shl_ri(&mut self, w: Width, dst: Reg, imm: u8) {
        self.op_prefix(w, 0, 0, dst.num());
        self.u8(0xC1);
        self.modrm_rr(4, dst.num());
        self.u8(imm);
    }

    /// `shr $imm, %dst`.
    pub fn shr_ri(&mut self, w: Width, dst: Reg, imm: u8) {
        self.op_prefix(w, 0, 0, dst.num());
        self.u8(0xC1);
        self.modrm_rr(5, dst.num());
        self.u8(imm);
    }

    /// `inc mem` (FF /0) — a memory-writing instruction used by A2
    /// workloads.
    pub fn inc_m(&mut self, w: Width, mem: Mem) {
        let (x, b) = Self::mem_xb(mem);
        self.op_prefix(w, 0, x, b);
        self.u8(if w == Width::B { 0xFE } else { 0xFF });
        self.modrm_mem(0, mem);
    }

    // ---- stack ----------------------------------------------------------

    /// `push %r`.
    pub fn push_r(&mut self, r: Reg) {
        self.rex(false, 0, 0, r.num());
        self.u8(0x50 + r.low3());
    }

    /// `pop %r`.
    pub fn pop_r(&mut self, r: Reg) {
        self.rex(false, 0, 0, r.num());
        self.u8(0x58 + r.low3());
    }

    /// `pushfq` — save RFLAGS (trampolines bracket flag-clobbering
    /// instrumentation with pushfq/popfq).
    pub fn pushfq(&mut self) {
        self.u8(0x9C);
    }

    /// `popfq` — restore RFLAGS.
    pub fn popfq(&mut self) {
        self.u8(0x9D);
    }

    // ---- control flow ---------------------------------------------------

    /// `jmp label` (always the 5-byte rel32 form so sizes are predictable).
    pub fn jmp(&mut self, label: Label) {
        self.u8(0xE9);
        let at = self.len();
        self.i32le(0);
        self.fixups.push(Fixup {
            at,
            label,
            kind: FixKind::Rel32,
        });
    }

    /// `jcc label` (6-byte rel32 form).
    pub fn jcc(&mut self, cond: Cond, label: Label) {
        self.u8(0x0F);
        self.u8(0x80 + cond as u8);
        let at = self.len();
        self.i32le(0);
        self.fixups.push(Fixup {
            at,
            label,
            kind: FixKind::Rel32,
        });
    }

    /// `jcc label` (2-byte rel8 form).
    pub fn jcc_short(&mut self, cond: Cond, label: Label) {
        self.u8(0x70 + cond as u8);
        let at = self.len();
        self.u8(0);
        self.fixups.push(Fixup {
            at,
            label,
            kind: FixKind::Rel8,
        });
    }

    /// `call label`.
    pub fn call(&mut self, label: Label) {
        self.u8(0xE8);
        let at = self.len();
        self.i32le(0);
        self.fixups.push(Fixup {
            at,
            label,
            kind: FixKind::Rel32,
        });
    }

    /// `jmp` to an absolute address (rel32 form).
    pub fn jmp_abs(&mut self, target: u64) -> Result<(), AsmError> {
        let from = self.here() + 5;
        let d = target.wrapping_sub(from) as i64;
        let d32 = i32::try_from(d).map_err(|_| AsmError::DispOutOfRange { from, to: target })?;
        self.u8(0xE9);
        self.i32le(d32);
        Ok(())
    }

    /// `jmp *mem` (indirect through memory — jump tables).
    pub fn jmp_ind_m(&mut self, mem: Mem) {
        let (x, b) = Self::mem_xb(mem);
        self.rex(false, 4, x, b);
        self.u8(0xFF);
        self.modrm_mem(4, mem);
    }

    /// `call *%r`.
    pub fn call_ind_r(&mut self, r: Reg) {
        self.rex(false, 0, 0, r.num());
        self.u8(0xFF);
        self.modrm_rr(2, r.num());
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.u8(0xC3);
    }

    /// `syscall`.
    pub fn syscall(&mut self) {
        self.raw(&[0x0F, 0x05]);
    }

    /// `int3`.
    pub fn int3(&mut self) {
        self.u8(0xCC);
    }

    /// `ud2` (guaranteed-invalid; used as a canary after `jmp`).
    pub fn ud2(&mut self) {
        self.raw(&[0x0F, 0x0B]);
    }

    /// Emit `n` bytes of (possibly multi-byte) NOP padding.
    pub fn nops(&mut self, mut n: usize) {
        const NOP9: [u8; 9] = [0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00];
        while n >= 9 {
            self.raw(&NOP9);
            n -= 9;
        }
        const BY_LEN: [&[u8]; 9] = [
            &[],
            &[0x90],
            &[0x66, 0x90],
            &[0x0F, 0x1F, 0x00],
            &[0x0F, 0x1F, 0x40, 0x00],
            &[0x0F, 0x1F, 0x44, 0x00, 0x00],
            &[0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00],
            &[0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00],
            &[0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00],
        ];
        self.raw(BY_LEN[n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::insn::Kind;

    fn roundtrip(bytes: &[u8]) {
        let mut off = 0;
        let mut addr = 0x1000u64;
        while off < bytes.len() {
            let i = decode(&bytes[off..], addr).unwrap_or_else(|e| {
                panic!(
                    "decode failed at offset {off}: {e} (bytes {:02x?})",
                    &bytes[off..]
                )
            });
            off += i.len();
            addr += i.len() as u64;
        }
        assert_eq!(off, bytes.len(), "tail bytes undecodable");
    }

    #[test]
    fn known_encodings() {
        let mut a = Asm::new(0);
        a.mov_rr(Width::Q, Reg::Rbx, Reg::Rax); // 48 89 c3
        a.mov_mr(Width::Q, Mem::base(Reg::Rbx), Reg::Rax); // 48 89 03
        a.add_ri(Width::Q, Reg::Rax, 32); // 48 83 c0 20
        a.xor_rr(Width::Q, Reg::Rcx, Reg::Rax); // 48 31 c1
        let code = a.finish().unwrap();
        assert_eq!(
            code,
            vec![0x48, 0x89, 0xC3, 0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0x48, 0x31, 0xC1]
        );
    }

    #[test]
    fn labels_and_branches() {
        let mut a = Asm::new(0x400000);
        let end = a.fresh_label();
        a.jmp(end);
        a.nops(3);
        a.bind(end);
        a.ret();
        let code = a.finish().unwrap();
        let i = decode(&code, 0x400000).unwrap();
        assert_eq!(i.kind, Kind::JmpRel32);
        assert_eq!(i.branch_target(), Some(0x400008));
    }

    #[test]
    fn backward_short_branch() {
        let mut a = Asm::new(0);
        let top = a.fresh_label();
        a.bind(top);
        a.add_ri(Width::Q, Reg::Rax, 1);
        a.jcc_short(Cond::Ne, top);
        let code = a.finish().unwrap();
        // jne rel8 back over both instructions: -6.
        assert_eq!(code[code.len() - 2..], [0x75, 0xFA]);
    }

    #[test]
    fn rel8_overflow_detected() {
        let mut a = Asm::new(0);
        let end = a.fresh_label();
        a.jcc_short(Cond::E, end);
        a.nops(300);
        a.bind(end);
        assert!(matches!(a.finish(), Err(AsmError::DispOutOfRange { .. })));
    }

    #[test]
    fn onto_appends_what_new_returns() {
        // Labels, rel8/rel32 fixups, an absolute label and a RIP-relative
        // operand, assembled alone and after bytes already in a buffer.
        fn emit<B: BorrowMut<Vec<u8>>>(a: &mut Asm<B>) {
            let top = a.fresh_label();
            let end = a.fresh_label();
            a.bind(top);
            a.lea(Reg::Rax, Mem::rip(end));
            a.jcc_short(Cond::E, end);
            a.jcc(Cond::Ne, top);
            a.mov_rlabel(Reg::Rcx, end);
            a.bind(end);
            a.dq_label(top);
        }
        let mut alone = Asm::new(0x401000);
        emit(&mut alone);
        let alone = alone.finish().unwrap();

        let mut buf = vec![0xCC; 13];
        let mut a = Asm::onto(&mut buf, 0x401000);
        emit(&mut a);
        assert_eq!(a.here(), 0x401000 + alone.len() as u64);
        assert_eq!(a.finish(), Ok(alone.len()));
        assert_eq!(buf[..13], [0xCC; 13]);
        assert_eq!(buf[13..], alone[..]);
    }

    #[test]
    fn unbound_label_detected() {
        let mut a = Asm::new(0);
        let l = a.fresh_label();
        a.jmp(l);
        assert!(matches!(a.finish(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn rsp_rbp_r12_r13_memory_forms() {
        let mut a = Asm::new(0);
        a.mov_mr(Width::Q, Mem::base(Reg::Rsp), Reg::Rax);
        a.mov_mr(Width::Q, Mem::base(Reg::Rbp), Reg::Rax);
        a.mov_mr(Width::Q, Mem::base(Reg::R12), Reg::Rax);
        a.mov_mr(Width::Q, Mem::base(Reg::R13), Reg::Rax);
        a.mov_mr(Width::Q, Mem::base_disp(Reg::Rsp, 0x100), Reg::Rax);
        a.mov_rm(
            Width::Q,
            Reg::Rdx,
            Mem::base_index(Reg::Rbp, Reg::Rcx, 4, 0),
        );
        let index_only = Mem {
            base: None,
            index: Some((Reg::Rcx, 8)),
            disp: 0x40,
            rip_label: None,
        };
        a.mov_rm(Width::Q, Reg::Rdx, index_only);
        let code = a.finish().unwrap();
        roundtrip(&code);
    }

    #[test]
    fn decoder_agrees_on_operands() {
        let mut a = Asm::new(0x1000);
        a.mov_mr(Width::Q, Mem::base_disp(Reg::Rbx, -8), Reg::Rcx);
        let code = a.finish().unwrap();
        let i = decode(&code, 0x1000).unwrap();
        assert!(i.writes_memory());
        let m = i.modrm().unwrap().mem.unwrap();
        assert_eq!(m.base, Some(Reg::Rbx));
        assert_eq!(m.disp, -8);
    }

    #[test]
    fn rip_relative_lea() {
        let mut a = Asm::new(0x2000);
        let data = a.fresh_label();
        a.lea(Reg::Rax, Mem::rip(data));
        a.ret();
        a.bind(data);
        a.dq(0xDEAD);
        let code = a.finish().unwrap();
        let i = decode(&code, 0x2000).unwrap();
        let m = i.modrm().unwrap();
        assert!(m.mem.unwrap().rip_relative);
        // lea is 7 bytes, ret 1 — data at 0x2008, disp = 0x2008 - 0x2007 = 1.
        assert_eq!(m.mem.unwrap().disp, 1);
    }

    #[test]
    fn jump_table_sequence_decodes() {
        // The canonical indirect-jump pattern synth uses for switch.
        let mut a = Asm::new(0x3000);
        let table = a.fresh_label();
        let c0 = a.fresh_label();
        a.mov_rlabel(Reg::R11, table);
        a.jmp_ind_m(Mem::base_index(Reg::R11, Reg::Rax, 8, 0));
        a.bind(c0);
        a.ret();
        a.bind(table);
        a.dq_label(c0);
        let code = a.finish().unwrap();
        // Check the absolute table entry resolved to c0's address.
        let entry = u64::from_le_bytes(code[code.len() - 8..].try_into().unwrap());
        assert_eq!(entry, 0x3000 + (code.len() as u64 - 9));
        roundtrip(&code[..code.len() - 8]);
    }

    #[test]
    fn everything_roundtrips_through_decoder() {
        let mut a = Asm::new(0x10000);
        let l = a.fresh_label();
        for (i, &r) in Reg::ALL.iter().enumerate() {
            a.mov_ri64(r, i as i64 * 0x1111);
            a.mov_ri32(r, i as u32);
            a.push_r(r);
            a.pop_r(r);
            for &s in &[Reg::Rax, Reg::R9] {
                a.mov_rr(Width::Q, r, s);
                a.mov_rr(Width::D, r, s);
                a.add_rr(Width::Q, r, s);
                a.sub_rr(Width::Q, r, s);
                a.xor_rr(Width::Q, r, s);
                a.and_rr(Width::Q, r, s);
                a.or_rr(Width::Q, r, s);
                a.cmp_rr(Width::Q, r, s);
                a.test_rr(Width::Q, r, s);
                a.imul_rr(Width::Q, r, s);
            }
            a.add_ri(Width::Q, r, 127);
            a.add_ri(Width::Q, r, 1000);
            a.sub_ri(Width::D, r, 5);
            a.cmp_ri(Width::Q, r, 99);
            a.and_ri(Width::Q, r, 0xFF);
            a.shl_ri(Width::Q, r, 3);
            a.shr_ri(Width::Q, r, 2);
        }
        for &b in &[Reg::Rax, Reg::Rbp, Reg::Rsp, Reg::R12, Reg::R13, Reg::R15] {
            for disp in [0i32, 8, -8, 0x200, -0x200] {
                a.mov_mr(Width::Q, Mem::base_disp(b, disp), Reg::Rdx);
                a.mov_rm(Width::D, Reg::Rdx, Mem::base_disp(b, disp));
                a.mov_mi(Width::D, Mem::base_disp(b, disp), 42);
                a.mov_mi(Width::B, Mem::base_disp(b, disp), 7);
                a.add_mr(Width::Q, Mem::base_disp(b, disp), Reg::Rsi);
                a.inc_m(Width::Q, Mem::base_disp(b, disp));
                a.movzx_b(Reg::Rcx, Mem::base_disp(b, disp));
                a.lea(Reg::Rcx, Mem::base_disp(b, disp));
            }
        }
        a.bind(l);
        a.jmp(l);
        a.jcc(Cond::E, l);
        a.jcc_short(Cond::A, l);
        a.call(l);
        a.call_ind_r(Reg::Rbx);
        a.jmp_ind_m(Mem::base_index(Reg::R11, Reg::Rax, 8, 0));
        a.syscall();
        a.int3();
        a.ud2();
        for n in 0..=20 {
            a.nops(n);
        }
        a.ret();
        let code = a.finish().unwrap();
        roundtrip(&code);
    }
}
