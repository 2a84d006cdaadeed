//! # e9x86 — x86_64 machine-code substrate
//!
//! A from-scratch x86_64 instruction **decoder**, **classifier**,
//! **encoder/mini-assembler**, and **relocator**, built for the E9Patch
//! reproduction (PLDI 2020, *Binary Rewriting without Control Flow
//! Recovery*).
//!
//! The rewriter core (`e9patch`) only needs instruction *locations and
//! sizes* plus a few byte-level facts (branch kinds, pun windows); the
//! emulator (`e9vm`) additionally interprets the decoded operands. Both are
//! served by [`decode::decode`], which produces a 32-byte [`insn::Insn`]:
//! the address, the instruction bytes, kind, width, a few offsets and the
//! bits of the store predicates. Prefixes, opcode, ModRM/SIB, displacement
//! and immediate are accessors that read the stored bytes, so a linear
//! sweep over a large binary writes little more than the bytes it decodes.
//!
//! ```
//! use e9x86::decode::decode;
//!
//! // mov %rax,(%rbx) — the paper's §2.1.3 example patch instruction.
//! let insn = decode(&[0x48, 0x89, 0x03], 0x400000).unwrap();
//! assert_eq!(insn.len(), 3);
//! assert!(insn.writes_memory());
//! ```

pub mod asm;
pub mod decode;
pub mod fmt;
pub mod insn;
pub mod prefix;
pub mod reg;
pub mod reloc;

pub use decode::{decode, DecodeError};
pub use insn::{Cond, Insn, Kind};
pub use reg::Reg;

/// Maximum legal x86_64 instruction length in bytes.
pub const MAX_INSN_LEN: usize = 15;

/// Opcode byte of the 32-bit relative near jump (`jmpq rel32`) — the "E9" in
/// E9Patch.
pub const JMP_REL32_OPCODE: u8 = 0xE9;

/// Opcode byte of the 8-bit relative short jump (`jmp rel8`).
pub const JMP_REL8_OPCODE: u8 = 0xEB;

/// Opcode byte of `int3` (baseline B0 trap patching).
pub const INT3_OPCODE: u8 = 0xCC;
