//! Instruction relocation: re-encode a decoded instruction so it executes
//! correctly at a different address.
//!
//! Trampolines execute *displaced* copies of patched (or evicted)
//! instructions. Position-dependent instructions — relative branches and
//! RIP-relative memory operands — must have their displacement re-encoded
//! for the trampoline's address; everything else is copied verbatim.
//!
//! [`relocate`] appends to the caller's buffer, so a trampoline builder
//! assembles its payload, the displaced instruction and the jump back
//! into one buffer, and a planner can keep every trampoline in one arena.
//! A failed relocation appends nothing.

use crate::insn::{Insn, Kind};
use std::fmt;

/// Relocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocError {
    /// New displacement does not fit in 32 bits.
    DispOutOfRange {
        /// Address the instruction was being moved to.
        new_addr: u64,
        /// The (unreachable) original target.
        target: u64,
    },
    /// `loop`/`jrcxz` have no rel32 form and no flag-preserving emulation
    /// within a trampoline; E9Patch-style rewriters simply fail the patch.
    UnsupportedLoop,
}

impl fmt::Display for RelocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelocError::DispOutOfRange { new_addr, target } => write!(
                f,
                "relocated displacement from {new_addr:#x} to {target:#x} exceeds rel32"
            ),
            RelocError::UnsupportedLoop => {
                write!(f, "loop/jrcxz cannot be relocated to a trampoline")
            }
        }
    }
}

impl std::error::Error for RelocError {}

fn rel32_to(target: u64, end_of_insn: u64, new_addr: u64) -> Result<i32, RelocError> {
    let d = target.wrapping_sub(end_of_insn) as i64;
    i32::try_from(d).map_err(|_| RelocError::DispOutOfRange { new_addr, target })
}

/// Append the relative branch `insn` as `opcode` and a rel32 that keeps
/// its target from `new_addr`.
fn branch(
    insn: &Insn,
    opcode: &[u8],
    new_addr: u64,
    out: &mut Vec<u8>,
) -> Result<usize, RelocError> {
    let target = insn.branch_target().expect("relative branch");
    let len = opcode.len() + 4;
    let rel = rel32_to(target, new_addr + len as u64, new_addr)?;
    out.extend_from_slice(opcode);
    out.extend_from_slice(&rel.to_le_bytes());
    Ok(len)
}

/// Re-encode `insn` (originally at `insn.addr`) for execution at
/// `new_addr`, appending the bytes to `out` and returning how many were
/// appended.
///
/// Relative branches are widened to their rel32 forms; RIP-relative memory
/// displacements are adjusted. The relocated form may be longer than the
/// original instruction (rel8 → rel32 widening), but never longer than
/// [`relocated_size_upper_bound`].
///
/// # Errors
///
/// Fails when the original target leaves the ±2 GiB rel32 range from the new
/// location, or for `loop`/`jrcxz` (no rel32 form exists). Nothing is
/// appended then.
pub fn relocate(insn: &Insn, new_addr: u64, out: &mut Vec<u8>) -> Result<usize, RelocError> {
    match insn.kind {
        Kind::JmpRel8 | Kind::JmpRel32 => branch(insn, &[0xE9], new_addr, out),
        Kind::JccRel8(c) | Kind::JccRel32(c) => {
            branch(insn, &[0x0F, 0x80 + c as u8], new_addr, out)
        }
        Kind::CallRel32 => branch(insn, &[0xE8], new_addr, out),
        Kind::LoopRel8 => Err(RelocError::UnsupportedLoop),
        _ => {
            let bytes = insn.bytes();
            let rip = insn
                .modrm()
                .and_then(|m| m.mem.filter(|mem| mem.rip_relative).map(|mem| (m, mem)));
            let Some((m, mem)) = rip else {
                out.extend_from_slice(bytes);
                return Ok(bytes.len());
            };
            // target = old_end + disp; new_disp = target - new_end.
            let target = insn.end().wrapping_add(mem.disp as i64 as u64);
            let new_end = new_addr + insn.len() as u64;
            let nd = target.wrapping_sub(new_end) as i64;
            let nd32 =
                i32::try_from(nd).map_err(|_| RelocError::DispOutOfRange { new_addr, target })?;
            let off = out.len() + m.disp_offset as usize;
            out.extend_from_slice(bytes);
            out[off..off + 4].copy_from_slice(&nd32.to_le_bytes());
            Ok(bytes.len())
        }
    }
}

/// Worst-case size in bytes of the relocated form of `insn` (used by the
/// trampoline planner to budget space before final encoding).
pub fn relocated_size_upper_bound(insn: &Insn) -> usize {
    match insn.kind {
        Kind::JmpRel8 | Kind::JmpRel32 | Kind::CallRel32 => 5,
        Kind::JccRel8(_) | Kind::JccRel32(_) => 6,
        _ => insn.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    /// [`relocate`] into a fresh buffer.
    fn relocated(insn: &Insn, new_addr: u64) -> Result<Vec<u8>, RelocError> {
        let mut v = Vec::new();
        let n = relocate(insn, new_addr, &mut v)?;
        assert_eq!(n, v.len());
        Ok(v)
    }

    #[test]
    fn plain_instruction_copies_verbatim() {
        let i = decode(&[0x48, 0x89, 0x03], 0x400000).unwrap();
        let v = relocated(&i, 0x70000000).unwrap();
        assert_eq!(v, vec![0x48, 0x89, 0x03]);
    }

    #[test]
    fn rel8_jump_widens() {
        // jmp +0x10 at 0x1000 → target 0x1012.
        let i = decode(&[0xEB, 0x10], 0x1000).unwrap();
        let v = relocated(&i, 0x2000).unwrap();
        let r = decode(&v, 0x2000).unwrap();
        assert_eq!(r.branch_target(), Some(0x1012));
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn jcc_rel8_widens_preserving_condition() {
        let i = decode(&[0x74, 0x27], 0x422ad5).unwrap(); // je 0x422afe
        let v = relocated(&i, 0x744513d6).unwrap();
        let r = decode(&v, 0x744513d6).unwrap();
        assert_eq!(r.branch_target(), Some(0x422afe));
        assert_eq!(r.kind, crate::insn::Kind::JccRel32(crate::Cond::E));
    }

    #[test]
    fn figure2_evictee_trampoline_jump() {
        // Figure 2(d): the evictee trampoline at 744513da jumps back to
        // 422ad5 with rel32 8bfd16f6.
        let i = decode(&[0xEB, 0x00], 0x422ad3).unwrap(); // placeholder jmp to 0x422ad5
        let v = relocated(&i, 0x744513da).unwrap();
        assert_eq!(v, vec![0xE9, 0xF6, 0x16, 0xFD, 0x8B]);
    }

    #[test]
    fn call_rel32_retargets() {
        let i = decode(&[0xE8, 0x00, 0x01, 0x00, 0x00], 0x400000).unwrap();
        let target = i.branch_target().unwrap();
        let v = relocated(&i, 0x500000).unwrap();
        let r = decode(&v, 0x500000).unwrap();
        assert_eq!(r.branch_target(), Some(target));
    }

    #[test]
    fn rip_relative_disp_adjusts() {
        // mov %rax,0x2000(%rip) at 0x400000 → target 0x402007.
        let i = decode(&[0x48, 0x89, 0x05, 0x00, 0x20, 0x00, 0x00], 0x400000).unwrap();
        let v = relocated(&i, 0x400100).unwrap();
        let r = decode(&v, 0x400100).unwrap();
        let m = r.modrm().unwrap().mem.unwrap();
        let target = r.end().wrapping_add(m.disp as i64 as u64);
        assert_eq!(target, 0x400000 + 7 + 0x2000);
    }

    #[test]
    fn out_of_range_rejected() {
        let i = decode(&[0xEB, 0x10], 0x1000).unwrap();
        let err = relocated(&i, 0x4000_0000_0000).unwrap_err();
        assert!(matches!(err, RelocError::DispOutOfRange { .. }));
    }

    #[test]
    fn loop_unsupported() {
        let i = decode(&[0xE2, 0xFE], 0x1000).unwrap();
        assert_eq!(relocated(&i, 0x2000), Err(RelocError::UnsupportedLoop));
    }

    #[test]
    fn size_upper_bound_holds() {
        for bytes in [
            &[0xEB, 0x10][..],
            &[0x74, 0x27][..],
            &[0xE9, 0, 0, 0, 0][..],
            &[0xE8, 0, 0, 0, 0][..],
            &[0x48, 0x89, 0x05, 0, 0x20, 0, 0][..],
            &[0x48, 0x89, 0x03][..],
        ] {
            let i = decode(bytes, 0x400000).unwrap();
            let v = relocated(&i, 0x500000).unwrap();
            assert!(v.len() <= relocated_size_upper_bound(&i));
        }
    }
}
