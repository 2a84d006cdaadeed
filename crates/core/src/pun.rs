//! Punned-jump geometry (§2.1.3, §3.1).
//!
//! A (possibly padded) `jmpq rel32` written at `jump_addr` with `padding`
//! redundant prefix bytes has its opcode at `jump_addr + padding` and its
//! `rel32` at `jump_addr + padding + 1 ..+5`. If the rewriter owns only
//! `writable` bytes at the jump site, then `rel32` byte `i` is **free**
//! (choosable) iff `padding + 1 + i < writable`, and **fixed** otherwise —
//! fixed bytes keep the current values of the overlapping successor
//! instructions, which constrains the jump target to a window of `256^f`
//! addresses.
//!
//! Worked example — the paper's Figure 1, patching the 3-byte
//! `mov %rax,(%rbx)` followed by `add $32,%rax` (`48 83 c0 20`):
//!
//! | tactic | padding | free | rel32 window |
//! |--------|---------|------|--------------|
//! | B2     | 0       | 2    | `0x8348_0000 ..= 0x8348_FFFF` |
//! | T1(a)  | 1       | 1    | `0xC083_4800 ..= 0xC083_48FF` |
//! | T1(b)  | 2       | 0    | exactly `0x20C0_8348` |
//!
//! An x86 instruction is at most 15 bytes, so the rewriter owns at most
//! 15 bytes at a site and pads with at most [`MAX_PADDING`] prefixes:
//! [`PunJump::encode`] writes at most 19 bytes, and returns them on the
//! stack as [`JumpBytes`].

use crate::layout::Window;
use e9x86::prefix::{REDUNDANT_JMP_PREFIXES, REX_W};
use e9x86::JMP_REL32_OPCODE;
use std::ops::Deref;

/// The most prefix bytes a punned jump is padded with: one less than the
/// 15 bytes of the longest instruction the rewriter can own.
pub const MAX_PADDING: u8 = 14;

/// Capacity of [`JumpBytes`]: the prefixes, the opcode and four `rel32`
/// bytes.
const MAX_WRITTEN: usize = MAX_PADDING as usize + 5;

/// The bytes [`PunJump::encode`] writes, held on the stack; they read as
/// a `&[u8]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpBytes {
    bytes: [u8; MAX_WRITTEN],
    len: u8,
}

impl JumpBytes {
    fn push(&mut self, b: u8) {
        self.bytes[self.len as usize] = b;
        self.len += 1;
    }
}

impl Deref for JumpBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// A candidate punned jump: where it sits, how it is padded, and which
/// `rel32` bytes are free versus fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PunJump {
    /// Address of the first byte of the (padded) jump.
    pub jump_addr: u64,
    /// Number of redundant prefix bytes before the `E9` opcode.
    pub padding: u8,
    /// Number of free low-order `rel32` bytes (0..=4).
    pub free: u8,
    /// Values of the fixed high-order `rel32` bytes; `fixed[i]` is `rel32`
    /// byte `free + i`. Only the first `4 - free` entries are meaningful.
    pub fixed: [u8; 4],
}

impl PunJump {
    /// Build the candidate with `padding` prefix bytes for a site where the
    /// rewriter owns `writable` bytes starting at `jump_addr`, given the
    /// current byte image starting at that address.
    ///
    /// `image` must expose at least `padding + 5` bytes (the full extent of
    /// the padded jump); otherwise the successor bytes needed for the pun do
    /// not exist (end of segment) and `None` is returned. `None` is also
    /// returned if `padding >= writable` (padding may never spill into bytes
    /// the rewriter does not own) or `padding > MAX_PADDING`.
    pub fn new(image: &[u8], jump_addr: u64, writable: u8, padding: u8) -> Option<PunJump> {
        if padding >= writable || padding > MAX_PADDING {
            return None;
        }
        let total = padding as usize + 5;
        if image.len() < total {
            return None;
        }
        let free = (writable as i32 - padding as i32 - 1).clamp(0, 4) as u8;
        let mut fixed = [0u8; 4];
        for i in free..4 {
            fixed[(i - free) as usize] = image[padding as usize + 1 + i as usize];
        }
        Some(PunJump {
            jump_addr,
            padding,
            free,
            fixed,
        })
    }

    /// Total length of the padded jump instruction.
    #[inline]
    pub fn jump_len(&self) -> u8 {
        self.padding + 5
    }

    /// Address the `rel32` displacement is taken relative to (end of the
    /// jump instruction).
    #[inline]
    pub fn site_end(&self) -> u64 {
        self.jump_addr + self.jump_len() as u64
    }

    /// The `rel32` value with all free bytes zero, sign-extended.
    pub fn rel_base(&self) -> i32 {
        let mut b = [0u8; 4];
        for i in self.free..4 {
            b[i as usize] = self.fixed[(i - self.free) as usize];
        }
        i32::from_le_bytes(b)
    }

    /// The window of reachable target addresses, clamped to usable
    /// userspace. `None` when every candidate target is invalid (e.g. the
    /// whole window underflows below zero — the non-PIE negative-offset
    /// failure from §2.1.3).
    pub fn target_window(&self) -> Option<Window> {
        // With all four rel32 bytes free the displacement spans the whole
        // signed range; otherwise the fixed high bytes pin the sign and the
        // free low bytes form a contiguous run above `rel_base`.
        let (rel_lo, span): (i128, i128) = if self.free >= 4 {
            (i32::MIN as i128, 1i128 << 32)
        } else {
            (self.rel_base() as i128, 1i128 << (8 * self.free as u32))
        };
        let lo = self.site_end() as i128 + rel_lo;
        Window::from_i128(lo, lo + span)
    }

    /// Encode the jump for a concrete `target`, returning the bytes that
    /// must be **written** at `jump_addr` (prefix padding, the `E9` opcode,
    /// and the free `rel32` bytes). The padding is `REX.W` next to the
    /// opcode (as in the paper's Figure 1 T1(a)), preceded by
    /// segment-override prefixes. The remaining `4 - free` bytes of the
    /// `rel32` are the untouched successor bytes and are *not* returned —
    /// they must instead be locked as punned by the caller (see
    /// [`PunJump::punned_range`]).
    ///
    /// Returns `None` if `target` is not inside this pun's window.
    pub fn encode(&self, target: u64) -> Option<JumpBytes> {
        let rel = (target as i128) - (self.site_end() as i128);
        let rel32 = i32::try_from(rel).ok()?;
        let bytes = rel32.to_le_bytes();
        // The fixed tail must match exactly.
        for i in self.free..4 {
            if bytes[i as usize] != self.fixed[(i - self.free) as usize] {
                return None;
            }
        }
        let mut out = JumpBytes {
            bytes: [0; MAX_WRITTEN],
            len: 0,
        };
        for i in (1..self.padding).rev() {
            out.push(REDUNDANT_JMP_PREFIXES[(i - 1) as usize % REDUNDANT_JMP_PREFIXES.len()]);
        }
        if self.padding >= 1 {
            out.push(REX_W);
        }
        out.push(JMP_REL32_OPCODE);
        for &b in &bytes[..self.free as usize] {
            out.push(b);
        }
        Some(out)
    }

    /// Address range `[start, end)` of the successor bytes whose values the
    /// encoded jump depends on (to be locked `Punned`). Empty when the jump
    /// fits entirely within the writable region (plain B1).
    pub fn punned_range(&self) -> (u64, u64) {
        let start = self.jump_addr + self.padding as u64 + 1 + self.free as u64;
        let end = self.jump_addr + self.jump_len() as u64;
        (start.min(end), end)
    }

    /// Address range `[start, end)` of the bytes [`PunJump::encode`] writes
    /// (to be locked `Modified`).
    pub fn written_range(&self) -> (u64, u64) {
        (
            self.jump_addr,
            self.jump_addr + self.padding as u64 + 1 + self.free as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1's byte image starting at the patch instruction:
    /// mov %rax,(%rbx); add $32,%rax; xor %rax,%rcx; cmpl $77,-4(%rbx).
    const FIG1: [u8; 14] = [
        0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0x48, 0x31, 0xC1, 0x83, 0x7B, 0xFC, 0x4D,
    ];

    #[test]
    fn b2_window_matches_paper() {
        let p = PunJump::new(&FIG1, 0x1000, 3, 0).unwrap();
        assert_eq!(p.free, 2);
        assert_eq!(p.rel_base() as u32, 0x8348_0000);
        // MSB set → negative rel32; from a low address the window clamps
        // away entirely (the paper's invalid case).
        assert!(p.target_window().is_none());
    }

    #[test]
    fn b2_window_valid_from_high_address() {
        // The same pun from a PIE-like high address has a valid window
        // (negative offsets land in usable space) — §6.1's PIE advantage.
        let p = PunJump::new(&FIG1, 0x5555_5555_4000, 3, 0).unwrap();
        let w = p.target_window().unwrap();
        assert_eq!(w.len(), 0x10000);
        let rel = p.rel_base() as i64;
        assert_eq!(w.lo as i64, 0x5555_5555_4005 + rel);
    }

    #[test]
    fn t1a_window_matches_paper() {
        let p = PunJump::new(&FIG1, 0x1000, 3, 1).unwrap();
        assert_eq!(p.free, 1);
        assert_eq!(p.rel_base() as u32, 0xC083_4800);
        assert!(p.target_window().is_none()); // negative again
    }

    #[test]
    fn t1b_window_matches_paper() {
        let p = PunJump::new(&FIG1, 0x1000, 3, 2).unwrap();
        assert_eq!(p.free, 0);
        assert_eq!(p.rel_base() as u32, 0x20C0_8348);
        let w = p.target_window().unwrap();
        assert_eq!(w.len(), 1); // exactly one valid location
        assert_eq!(w.lo, 0x1000 + 7 + 0x20C0_8348);
    }

    #[test]
    fn b1_full_freedom_for_long_instructions() {
        let image = [0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8, 0x90]; // 10-byte movabs
        let p = PunJump::new(&image, 0x400000, 10, 0).unwrap();
        assert_eq!(p.free, 4);
        let w = p.target_window().unwrap();
        // Clamped below by the null guard: site is low, so the negative
        // half of ±2 GiB is cut off.
        assert_eq!(w.lo, crate::layout::MIN_ADDR);
        let (ps, pe) = p.punned_range();
        assert_eq!(ps, pe); // no punned successor bytes
    }

    #[test]
    fn padding_never_exceeds_writable() {
        assert!(PunJump::new(&FIG1, 0x1000, 3, 3).is_none());
        assert!(PunJump::new(&FIG1, 0x1000, 1, 1).is_none());
    }

    #[test]
    fn truncated_image_rejected() {
        assert!(PunJump::new(&FIG1[..4], 0x1000, 3, 0).is_none());
    }

    #[test]
    fn encode_b2() {
        let p = PunJump::new(&FIG1, 0x5555_5555_4000, 3, 0).unwrap();
        let w = p.target_window().unwrap();
        let target = w.lo + 0x1234;
        let bytes = p.encode(target).unwrap();
        // e9 + 2 free bytes.
        assert_eq!(bytes.len(), 3);
        assert_eq!(bytes[0], 0xE9);
        assert_eq!(&bytes[1..], &[0x34, 0x12]);
        // Out-of-window targets refused.
        assert!(p.encode(w.lo + 0x10000).is_none());
        assert!(p.encode(w.lo.wrapping_sub(1)).is_none());
    }

    #[test]
    fn encode_t1b_single_target() {
        let p = PunJump::new(&FIG1, 0x1000, 3, 2).unwrap();
        let w = p.target_window().unwrap();
        let bytes = p.encode(w.lo).unwrap();
        // 2 prefixes + e9, zero free bytes.
        assert_eq!(bytes.len(), 3);
        assert_eq!(bytes[2], 0xE9);
        assert!(e9x86::prefix::is_redundant_jmp_prefix(bytes[0]));
        assert_eq!(bytes[1], 0x48);
    }

    #[test]
    fn encoded_jump_decodes_to_target() {
        // End-to-end: splice the encoded bytes into the image and decode.
        let addr = 0x5555_5555_4000u64;
        for padding in 0..3u8 {
            let p = PunJump::new(&FIG1, addr, 3, padding).unwrap();
            let Some(w) = p.target_window() else { continue };
            let target = w.lo + (w.len() / 2);
            let written = p.encode(target).unwrap();
            let mut image = FIG1.to_vec();
            image[..written.len()].copy_from_slice(&written);
            let insn = e9x86::decode(&image, addr).unwrap();
            assert_eq!(insn.kind, e9x86::Kind::JmpRel32);
            assert_eq!(insn.branch_target(), Some(target), "padding={padding}");
            assert_eq!(insn.len(), p.jump_len() as usize);
        }
    }

    #[test]
    fn ranges_partition_the_jump() {
        let p = PunJump::new(&FIG1, 0x1000, 3, 1).unwrap();
        let (ws, we) = p.written_range();
        let (ps, pe) = p.punned_range();
        assert_eq!(ws, 0x1000);
        assert_eq!(we, ps); // contiguous
        assert_eq!(pe, 0x1000 + p.jump_len() as u64);
    }

    #[test]
    fn padding_bytes_are_all_redundant() {
        // A 15-byte site takes every padding up to the maximum; the
        // prefixes before the opcode are all redundant, REX.W last.
        let image = [0x90; 20];
        for n in 0..=MAX_PADDING {
            let p = PunJump::new(&image, 0x5555_5555_4000, 15, n).unwrap();
            let w = p.target_window().unwrap();
            let v = p.encode(w.lo).unwrap();
            assert_eq!(v.len(), n as usize + 1 + p.free as usize);
            assert_eq!(v[n as usize], JMP_REL32_OPCODE);
            for &b in &v[..n as usize] {
                assert!(e9x86::prefix::is_redundant_jmp_prefix(b));
            }
            if n > 0 {
                assert_eq!(v[n as usize - 1], REX_W);
            }
        }
        assert!(PunJump::new(&image, 0x1000, 16, MAX_PADDING + 1).is_none());
    }

    #[test]
    fn single_byte_instruction_has_no_t1() {
        // writable = 1: only padding 0 works, with zero free bytes.
        let image = [0xC3, 0x48, 0x83, 0xC0, 0x20, 0x90];
        let p = PunJump::new(&image, 0x1000, 1, 0).unwrap();
        assert_eq!(p.free, 0);
        assert!(PunJump::new(&image, 0x1000, 1, 1).is_none());
    }
}
