//! Trampoline templates and instantiation (§2, §5).
//!
//! Every successful patch diverts control flow to a trampoline that
//!
//! 1. performs the instrumentation payload (nothing, a counter bump, or a
//!    call into a runtime check function),
//! 2. executes (a relocated copy of) the displaced instruction, and
//! 3. jumps back to the instruction after the patch site.
//!
//! Evicted instructions (tactics T2/T3) get an *evictee trampoline*, which
//! is simply the [`Template::Empty`] form: displaced instruction + jump
//! back. e9hook's call-original thunks are the same form.
//!
//! Payloads are transparent: caller-visible registers and RFLAGS are
//! saved/restored, and the stack pointer is first dropped past the 128-byte
//! System-V red zone so in-flight leaf-function data is not clobbered.
//!
//! [`build`] appends a trampoline to the caller's buffer: the payload, the
//! relocated instruction ([`e9x86::reloc::relocate`]) and the jump back
//! are all assembled in place there. The planner passes its one arena for
//! every trampoline of a rewrite, and e9hook its code segment for every
//! thunk. A failed build truncates the buffer back to where it began, so
//! the caller has nothing to roll back.

use e9x86::asm::{Asm, Mem};
use e9x86::insn::Insn;
use e9x86::reg::Reg;
use e9x86::reloc::{self, RelocError};
use std::fmt;

/// What a trampoline does before resuming the displaced instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Template {
    /// No payload: execute the displaced instruction and return. The
    /// paper's "empty instrumentation" baseline (§6.1).
    Empty,
    /// Increment a 64-bit counter in memory (flag- and register-
    /// transparent). A realistic analogue of basic-block counting.
    Counter {
        /// Absolute address of the counter cell.
        counter_addr: u64,
    },
    /// Pass the effective address of the displaced instruction's memory
    /// operand to a check function (`fn(ptr in %rdi)`), then execute the
    /// displaced instruction — the heap-write hardening application (§6.3).
    CheckCall {
        /// Absolute address of the check function.
        func_addr: u64,
    },
    /// Call an instrumentation hook (`fn(site_addr in %rdi)`) before the
    /// displaced instruction — the general event-hook form used by
    /// tracing/fuzzing-style applications built on E9Patch.
    HookCall {
        /// Absolute address of the hook function.
        func_addr: u64,
    },
    /// Full register-save hook: spill every caller-visible GPR (all
    /// sixteen except `%rsp`, which is dropped past the red zone) plus
    /// RFLAGS, call `fn(site_addr in %rdi)`, restore everything, then
    /// execute the displaced instruction and resume. The foundation of the
    /// e9hook function-hooking subsystem: unlike [`Template::HookCall`],
    /// the payload may be arbitrary SysV code that clobbers any
    /// caller-saved register.
    HookSave {
        /// Absolute address of the hook payload function.
        func_addr: u64,
    },
    /// Call-original hook: as [`Template::HookSave`], but the payload is
    /// `fn(site_addr in %rdi, thunk_addr in %rsi)` where `thunk_addr` is an
    /// executable thunk holding the *relocated* displaced prologue
    /// instruction followed by a jump to the second instruction of the
    /// hooked function — calling it re-enters the original function. After
    /// the payload returns and registers are restored, the trampoline
    /// continues through that same thunk (diverting; no inline displaced
    /// copy), so the relocated prologue is exercised on every call.
    HookOriginal {
        /// Absolute address of the hook payload function.
        func_addr: u64,
        /// Absolute address of the call-original thunk.
        thunk_addr: u64,
    },
    /// Execute `code` *instead of* the displaced instruction, then jump to
    /// `resume` (defaulting to the next instruction) — binary patching
    /// (Example 3.1 / Figure 2).
    Replace {
        /// Raw replacement machine code (position-independent or assembled
        /// for its final address by the caller).
        code: Vec<u8>,
        /// Where to continue execution; `None` = after the patched
        /// instruction.
        resume: Option<u64>,
    },
}

/// Trampoline instantiation failure. `OutOfReach` is retryable with a
/// different trampoline address; the others are properties of the patch
/// site itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// A rel32 (displaced branch or resume jump) cannot span from the
    /// trampoline to the original code.
    OutOfReach,
    /// The displaced instruction cannot be relocated (`loop`/`jrcxz`).
    Unrelocatable,
    /// `CheckCall` requires a ModRM memory operand to take the address of.
    NoMemOperand,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::OutOfReach => write!(f, "trampoline out of rel32 reach of original code"),
            BuildError::Unrelocatable => write!(f, "displaced instruction cannot be relocated"),
            BuildError::NoMemOperand => {
                write!(f, "check-call template requires a memory operand")
            }
        }
    }
}

impl std::error::Error for BuildError {}

const RED_ZONE: i32 = 128;

/// GPRs spilled by the [`Template::HookSave`] / [`Template::HookOriginal`]
/// prologue, in push order (`%rsp` is excluded: it is handled by the
/// red-zone adjustment and must stay live for the pushes themselves).
const SAVED_REGS: [Reg; 15] = [
    Reg::Rax,
    Reg::Rcx,
    Reg::Rdx,
    Reg::Rbx,
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

/// Conservative upper bound on the built trampoline size in bytes, used to
/// reserve address space before the final address is known.
pub fn max_size(template: &Template, insn: &Insn) -> usize {
    let displaced = reloc::relocated_size_upper_bound(insn);
    let resume = 5;
    match template {
        Template::Empty => displaced + resume,
        // lea(5) + push(1) + pushfq(1) + movabs(10) + inc(3) + popfq(1)
        // + pop(1) + lea-restore(8, disp32 form for +128).
        Template::Counter { .. } => 32 + displaced + resume,
        // lea(5) + 2×push(2) + pushfq(1) + lea-mem(≤9) + movabs(10)
        // + call *rax(2) + popfq(1) + 2×pop(2) + lea-restore(8).
        Template::CheckCall { .. } => 44 + displaced + resume,
        // As CheckCall, with a movabs(10) site-address load instead of the
        // lea.
        Template::HookCall { .. } => 45 + displaced + resume,
        // lea(5) + 15 pushes (7 + 2×8 = 23) + pushfq(1) + movabs-site(10)
        // + movabs-func(10) + call *rax(2) + popfq(1) + 15 pops(23)
        // + lea-restore(8, disp32 form for +128).
        Template::HookSave { .. } => 83 + displaced + resume,
        // As HookSave plus a movabs(10) thunk-address load; the tail is a
        // single jmp(5) to the thunk instead of displaced + resume.
        Template::HookOriginal { .. } => 98,
        Template::Replace { code, .. } => code.len() + resume,
    }
}

/// Full-state save: red-zone skip, every GPR but `%rsp`, RFLAGS.
fn save_all(a: &mut Asm<&mut Vec<u8>>) {
    a.lea(Reg::Rsp, Mem::base_disp(Reg::Rsp, -RED_ZONE));
    for r in SAVED_REGS {
        a.push_r(r);
    }
    a.pushfq();
}

/// Exact inverse of [`save_all`].
fn restore_all(a: &mut Asm<&mut Vec<u8>>) {
    a.popfq();
    for r in SAVED_REGS.iter().rev() {
        a.pop_r(*r);
    }
    a.lea(Reg::Rsp, Mem::base_disp(Reg::Rsp, RED_ZONE));
}

/// Instantiate `template` for patched instruction `insn` at trampoline
/// address `tramp_addr`, appending the trampoline to `out` and returning
/// its length.
///
/// # Errors
///
/// [`BuildError::OutOfReach`] when the chosen address cannot reach the
/// original code with rel32 displacements (the caller retries elsewhere);
/// [`BuildError::Unrelocatable`] / [`BuildError::NoMemOperand`] when the
/// patch site is fundamentally unsuited to the template. A failed build
/// leaves `out` exactly as it was.
pub fn build(
    template: &Template,
    insn: &Insn,
    tramp_addr: u64,
    out: &mut Vec<u8>,
) -> Result<usize, BuildError> {
    let start = out.len();
    let built = emit(template, insn, Asm::onto(out, tramp_addr));
    if built.is_err() {
        out.truncate(start);
    }
    built
}

/// The body of [`build`]: assemble through `a`, which may leave a partial
/// trampoline behind on error.
fn emit(template: &Template, insn: &Insn, mut a: Asm<&mut Vec<u8>>) -> Result<usize, BuildError> {
    match template {
        Template::Empty => {}
        Template::Counter { counter_addr } => {
            a.lea(Reg::Rsp, Mem::base_disp(Reg::Rsp, -RED_ZONE));
            a.push_r(Reg::Rax);
            a.pushfq();
            a.mov_ri64(Reg::Rax, *counter_addr as i64);
            a.inc_m(e9x86::reg::Width::Q, Mem::base(Reg::Rax));
            a.popfq();
            a.pop_r(Reg::Rax);
            a.lea(Reg::Rsp, Mem::base_disp(Reg::Rsp, RED_ZONE));
        }
        Template::CheckCall { func_addr } => {
            let m = insn
                .modrm()
                .and_then(|m| m.mem)
                .ok_or(BuildError::NoMemOperand)?;
            if m.rip_relative || m.base == Some(Reg::Rsp) {
                // A2 excludes these; an rsp base would also be invalidated
                // by the saves below.
                return Err(BuildError::NoMemOperand);
            }
            a.lea(Reg::Rsp, Mem::base_disp(Reg::Rsp, -RED_ZONE));
            a.push_r(Reg::Rdi);
            a.push_r(Reg::Rax);
            a.pushfq();
            a.lea(
                Reg::Rdi,
                Mem {
                    base: m.base,
                    index: m.index,
                    disp: m.disp,
                    rip_label: None,
                },
            );
            a.mov_ri64(Reg::Rax, *func_addr as i64);
            a.call_ind_r(Reg::Rax);
            a.popfq();
            a.pop_r(Reg::Rax);
            a.pop_r(Reg::Rdi);
            a.lea(Reg::Rsp, Mem::base_disp(Reg::Rsp, RED_ZONE));
        }
        Template::HookCall { func_addr } => {
            a.lea(Reg::Rsp, Mem::base_disp(Reg::Rsp, -RED_ZONE));
            a.push_r(Reg::Rdi);
            a.push_r(Reg::Rax);
            a.pushfq();
            a.mov_ri64(Reg::Rdi, insn.addr as i64);
            a.mov_ri64(Reg::Rax, *func_addr as i64);
            a.call_ind_r(Reg::Rax);
            a.popfq();
            a.pop_r(Reg::Rax);
            a.pop_r(Reg::Rdi);
            a.lea(Reg::Rsp, Mem::base_disp(Reg::Rsp, RED_ZONE));
        }
        Template::HookSave { func_addr } => {
            save_all(&mut a);
            a.mov_ri64(Reg::Rdi, insn.addr as i64);
            a.mov_ri64(Reg::Rax, *func_addr as i64);
            a.call_ind_r(Reg::Rax);
            restore_all(&mut a);
        }
        Template::HookOriginal {
            func_addr,
            thunk_addr,
        } => {
            save_all(&mut a);
            a.mov_ri64(Reg::Rdi, insn.addr as i64);
            a.mov_ri64(Reg::Rsi, *thunk_addr as i64);
            a.mov_ri64(Reg::Rax, *func_addr as i64);
            a.call_ind_r(Reg::Rax);
            restore_all(&mut a);
            // Continue the original function through its thunk: relocated
            // prologue + jump to the second instruction live there.
            a.jmp_abs(*thunk_addr).map_err(|_| BuildError::OutOfReach)?;
            return a.finish().map_err(|_| BuildError::OutOfReach);
        }
        Template::Replace { code, resume } => {
            a.raw(code);
            let resume = resume.unwrap_or_else(|| insn.end());
            a.jmp_abs(resume).map_err(|_| BuildError::OutOfReach)?;
            return a.finish().map_err(|_| BuildError::OutOfReach);
        }
    }

    // Displaced original instruction, relocated for its new home.
    a.relocated(insn).map_err(|e| match e {
        RelocError::UnsupportedLoop => BuildError::Unrelocatable,
        RelocError::DispOutOfRange { .. } => BuildError::OutOfReach,
    })?;

    if !insn.kind.diverts() {
        a.jmp_abs(insn.end()).map_err(|_| BuildError::OutOfReach)?;
    }
    a.finish().map_err(|_| BuildError::OutOfReach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9x86::decode::decode;

    /// [`build`] into a fresh buffer.
    fn built(template: &Template, insn: &Insn, at: u64) -> Result<Vec<u8>, BuildError> {
        let mut v = Vec::new();
        let n = build(template, insn, at, &mut v)?;
        assert_eq!(n, v.len());
        Ok(v)
    }

    fn mov_insn() -> Insn {
        decode(&[0x48, 0x89, 0x03], 0x401000).unwrap() // mov %rax,(%rbx)
    }

    #[test]
    fn empty_template_shape() {
        let insn = mov_insn();
        let t = built(&Template::Empty, &insn, 0x70000000).unwrap();
        // displaced mov (3 bytes) + jmp back (5 bytes).
        assert_eq!(t.len(), 8);
        assert_eq!(&t[..3], insn.bytes());
        let back = decode(&t[3..], 0x70000003).unwrap();
        assert_eq!(back.branch_target(), Some(0x401003));
        assert!(t.len() <= max_size(&Template::Empty, &insn));
    }

    #[test]
    fn displaced_jcc_keeps_both_edges() {
        // je +0x27 at 0x422ad5 (Figure 2) — in the trampoline the taken
        // edge must still reach 0x422afe and the fallthrough must resume at
        // 0x422ad7.
        let insn = decode(&[0x74, 0x27], 0x422ad5).unwrap();
        let addr = 0x42f00000;
        let t = built(&Template::Empty, &insn, addr).unwrap();
        let jcc = decode(&t, addr).unwrap();
        assert_eq!(jcc.branch_target(), Some(0x422afe));
        let resume = decode(&t[jcc.len()..], addr + jcc.len() as u64).unwrap();
        assert_eq!(resume.branch_target(), Some(0x422ad7));
    }

    #[test]
    fn displaced_unconditional_jmp_has_no_resume() {
        let insn = decode(&[0xEB, 0x10], 0x401000).unwrap();
        let t = built(&Template::Empty, &insn, 0x70000000).unwrap();
        assert_eq!(t.len(), 5); // just the widened jmp
        let j = decode(&t, 0x70000000).unwrap();
        assert_eq!(j.branch_target(), Some(0x401012));
    }

    #[test]
    fn displaced_ret_has_no_resume() {
        let insn = decode(&[0xC3], 0x401000).unwrap();
        let t = built(&Template::Empty, &insn, 0x70000000).unwrap();
        assert_eq!(t, vec![0xC3]);
    }

    #[test]
    fn counter_template_is_flag_transparent() {
        let insn = mov_insn();
        let t = built(
            &Template::Counter {
                counter_addr: 0x60000000,
            },
            &insn,
            0x70000000,
        )
        .unwrap();
        assert!(t.len() <= max_size(&Template::Counter { counter_addr: 0 }, &insn));
        // pushfq must appear before the inc and popfq after.
        let pushf = t.iter().position(|&b| b == 0x9C).unwrap();
        let popf = t.iter().position(|&b| b == 0x9D).unwrap();
        assert!(pushf < popf);
        // Ends with the displaced insn + jmp back.
        assert_eq!(&t[t.len() - 8..t.len() - 5], insn.bytes());
    }

    #[test]
    fn check_call_loads_effective_address() {
        // mov %rax,0x10(%rbx,%rcx,4) — the lea must reproduce the operand.
        let insn = decode(&[0x48, 0x89, 0x44, 0x8B, 0x10], 0x401000).unwrap();
        let t = built(
            &Template::CheckCall {
                func_addr: 0x50000000,
            },
            &insn,
            0x70000000,
        )
        .unwrap();
        assert!(t.len() <= max_size(&Template::CheckCall { func_addr: 0 }, &insn));
        // Somewhere inside: lea 0x10(%rbx,%rcx,4),%rdi = 48 8d 7c 8b 10.
        let needle = [0x48, 0x8D, 0x7C, 0x8B, 0x10];
        assert!(
            t.windows(needle.len()).any(|w| w == needle),
            "lea of the operand missing: {t:02x?}"
        );
    }

    #[test]
    fn check_call_rejects_register_and_rip_forms() {
        let reg_only = decode(&[0x48, 0x01, 0xC3], 0x401000).unwrap(); // add %rax,%rbx
        assert_eq!(
            built(&Template::CheckCall { func_addr: 0 }, &reg_only, 0x70000000),
            Err(BuildError::NoMemOperand)
        );
        let ripw = decode(&[0x48, 0x89, 0x05, 0, 0, 0x20, 0], 0x401000).unwrap();
        assert_eq!(
            built(&Template::CheckCall { func_addr: 0 }, &ripw, 0x70000000),
            Err(BuildError::NoMemOperand)
        );
    }

    #[test]
    fn hook_call_passes_site_address() {
        let insn = mov_insn();
        let t = built(
            &Template::HookCall {
                func_addr: 0x50000000,
            },
            &insn,
            0x70000000,
        )
        .unwrap();
        assert!(t.len() <= max_size(&Template::HookCall { func_addr: 0 }, &insn));
        // movabs $0x401000,%rdi = 48 bf 00 10 40 00 00 00 00 00.
        let needle = [0x48, 0xBF, 0x00, 0x10, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00];
        assert!(
            t.windows(needle.len()).any(|w| w == needle),
            "site address load missing: {t:02x?}"
        );
        // Register-only patch sites are fine for hooks (unlike CheckCall).
        let reg_only = e9x86::decode(&[0x48, 0x01, 0xC3], 0x401000).unwrap();
        assert!(built(
            &Template::HookCall {
                func_addr: 0x50000000
            },
            &reg_only,
            0x70000000
        )
        .is_ok());
    }

    #[test]
    fn hook_save_spills_and_restores_every_gpr() {
        let insn = mov_insn();
        let t = built(
            &Template::HookSave {
                func_addr: 0x46000000,
            },
            &insn,
            0x70000000,
        )
        .unwrap();
        assert!(t.len() <= max_size(&Template::HookSave { func_addr: 0 }, &insn));
        // 15 pushes then pushfq on the way in; popfq then 15 pops out.
        let pushes = t.iter().filter(|&&b| (0x50..0x58).contains(&b)).count();
        let pops = t.iter().filter(|&&b| (0x58..0x60).contains(&b)).count();
        assert_eq!(pushes, 15, "push count: {t:02x?}");
        assert_eq!(pops, 15, "pop count: {t:02x?}");
        let pushf = t.iter().position(|&b| b == 0x9C).unwrap();
        let popf = t.iter().position(|&b| b == 0x9D).unwrap();
        assert!(pushf < popf);
        // Site address in %rdi: movabs $0x401000,%rdi.
        let needle = [0x48, 0xBF, 0x00, 0x10, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00];
        assert!(t.windows(needle.len()).any(|w| w == needle));
        // Ends with the displaced insn + jmp back.
        assert_eq!(&t[t.len() - 8..t.len() - 5], insn.bytes());
        let back = decode(&t[t.len() - 5..], 0x70000000 + t.len() as u64 - 5).unwrap();
        assert_eq!(back.branch_target(), Some(insn.end()));
    }

    #[test]
    fn hook_save_restore_order_is_lifo() {
        let insn = mov_insn();
        let t = built(
            &Template::HookSave {
                func_addr: 0x46000000,
            },
            &insn,
            0x70000000,
        )
        .unwrap();
        // First push is rax (0x50), last pop is rax (0x58): exact inverse.
        let first_push = t.iter().find(|&&b| (0x50..0x58).contains(&b)).unwrap();
        let last_pop = t.iter().rfind(|&&b| (0x58..0x60).contains(&b)).unwrap();
        assert_eq!(*first_push, 0x50);
        assert_eq!(*last_pop, 0x58);
    }

    #[test]
    fn hook_original_diverts_to_thunk() {
        let insn = mov_insn();
        let thunk = 0x7100_0000u64;
        let t = built(
            &Template::HookOriginal {
                func_addr: 0x50000000,
                thunk_addr: thunk,
            },
            &insn,
            0x70000000,
        )
        .unwrap();
        assert!(
            t.len()
                <= max_size(
                    &Template::HookOriginal {
                        func_addr: 0,
                        thunk_addr: 0
                    },
                    &insn
                )
        );
        // Thunk address in %rsi: movabs $thunk,%rsi.
        let mut needle = vec![0x48, 0xBE];
        needle.extend_from_slice(&thunk.to_le_bytes());
        assert!(t.windows(needle.len()).any(|w| w == needle), "{t:02x?}");
        // No inline displaced copy; tail is a jmp to the thunk.
        let j = decode(&t[t.len() - 5..], 0x70000000 + t.len() as u64 - 5).unwrap();
        assert_eq!(j.branch_target(), Some(thunk));
        assert!(!t.windows(3).any(|w| w == insn.bytes()));
    }

    #[test]
    fn hook_templates_preserve_stack_alignment() {
        // 15 pushes + pushfq = 16 slots = 128 bytes: together with the
        // red-zone lea the payload sees rsp ≡ site rsp (mod 16).
        let insn = mov_insn();
        for tpl in [
            Template::HookSave {
                func_addr: 0x46000000,
            },
            Template::HookOriginal {
                func_addr: 0x46000000,
                thunk_addr: 0x71000000,
            },
        ] {
            let t = built(&tpl, &insn, 0x70000000).unwrap();
            let pushes = t.iter().filter(|&&b| (0x50..0x58).contains(&b)).count();
            assert_eq!((pushes + 1) * 8 % 16, 0);
        }
    }

    #[test]
    fn hook_original_out_of_reach_thunk_rejected() {
        let insn = mov_insn();
        assert_eq!(
            built(
                &Template::HookOriginal {
                    func_addr: 0x50000000,
                    thunk_addr: 0x7FFF_0000_0000,
                },
                &insn,
                0x70000000,
            ),
            Err(BuildError::OutOfReach)
        );
    }

    #[test]
    fn replace_template_resumes_elsewhere() {
        let insn = mov_insn();
        let t = built(
            &Template::Replace {
                code: vec![0x90, 0x90],
                resume: Some(0x401100),
            },
            &insn,
            0x70000000,
        )
        .unwrap();
        assert_eq!(&t[..2], &[0x90, 0x90]);
        let j = decode(&t[2..], 0x70000002).unwrap();
        assert_eq!(j.branch_target(), Some(0x401100));
    }

    #[test]
    fn out_of_reach_detected() {
        let insn = mov_insn();
        assert_eq!(
            built(&Template::Empty, &insn, 0x7FFF_0000_0000),
            Err(BuildError::OutOfReach)
        );
    }

    #[test]
    fn loop_unpatchable() {
        let insn = decode(&[0xE2, 0xFE], 0x401000).unwrap();
        assert_eq!(
            built(&Template::Empty, &insn, 0x70000000),
            Err(BuildError::Unrelocatable)
        );
    }

    #[test]
    fn failed_builds_leave_the_buffer_as_it_was() {
        let far = 0x7FFF_0000_0000;
        let ripw = decode(&[0x48, 0x89, 0x05, 0, 0, 0x20, 0], 0x401000).unwrap();
        let cases = [
            // The payload is assembled before `loop` fails to relocate.
            (
                Template::HookCall {
                    func_addr: 0x50000000,
                },
                decode(&[0xE2, 0xFE], 0x401000).unwrap(),
                0x70000000,
                BuildError::Unrelocatable,
            ),
            // The counter bump is assembled before the RIP-relative
            // operand turns out to be past rel32.
            (
                Template::Counter {
                    counter_addr: 0x60000000,
                },
                ripw,
                far,
                BuildError::OutOfReach,
            ),
            (
                Template::CheckCall { func_addr: 0 },
                decode(&[0x48, 0x01, 0xC3], 0x401000).unwrap(),
                0x70000000,
                BuildError::NoMemOperand,
            ),
            // The replacement code is copied before the resume jump
            // turns out to be out of reach.
            (
                Template::Replace {
                    code: vec![0x90; 7],
                    resume: Some(0x401100),
                },
                mov_insn(),
                far,
                BuildError::OutOfReach,
            ),
        ];
        for (template, insn, at, want) in cases {
            // A buffer that already holds a trampoline, with spare
            // capacity the failed build may write into.
            let mut buf = Vec::with_capacity(256);
            build(&Template::Empty, &mov_insn(), 0x70000000, &mut buf).unwrap();
            let before = buf.clone();
            assert_eq!(build(&template, &insn, at, &mut buf), Err(want));
            assert_eq!(buf, before, "{template:?}");
        }
    }

    #[test]
    fn back_to_back_builds_equal_lone_builds() {
        let jcc = decode(&[0x74, 0x27], 0x422ad5).unwrap();
        let ripw = decode(&[0x48, 0x89, 0x05, 0, 0, 0x20, 0], 0x401000).unwrap();
        let jobs = [
            (Template::Empty, jcc),
            (
                Template::Counter {
                    counter_addr: 0x60000000,
                },
                ripw,
            ),
            (
                Template::CheckCall {
                    func_addr: 0x50000000,
                },
                decode(&[0x48, 0x89, 0x44, 0x8B, 0x10], 0x401000).unwrap(),
            ),
            (
                Template::HookCall {
                    func_addr: 0x50000000,
                },
                mov_insn(),
            ),
            (
                Template::HookSave {
                    func_addr: 0x46000000,
                },
                ripw,
            ),
            (
                Template::HookOriginal {
                    func_addr: 0x46000000,
                    thunk_addr: 0x71000000,
                },
                mov_insn(),
            ),
            (
                Template::Replace {
                    code: vec![0x90, 0x90],
                    resume: None,
                },
                jcc,
            ),
            (Template::Empty, decode(&[0xC3], 0x401000).unwrap()),
        ];
        let base = 0x70000000;
        let mut arena = Vec::new();
        let mut spans = Vec::new();
        for (template, insn) in &jobs {
            let at = base + arena.len() as u64;
            let start = arena.len();
            let len = build(template, insn, at, &mut arena).unwrap();
            assert_eq!(start + len, arena.len());
            spans.push((at, start, len));
        }
        for ((template, insn), (at, start, len)) in jobs.iter().zip(spans) {
            let alone = built(template, insn, at).unwrap();
            assert_eq!(&arena[start..start + len], &alone[..], "{template:?}");
        }
    }
}
