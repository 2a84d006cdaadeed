//! # e9patch — control-flow-agnostic static binary rewriting
//!
//! A from-scratch Rust reproduction of **E9Patch** (Duck, Gao &
//! Roychoudhury, *Binary Rewriting without Control Flow Recovery*, PLDI
//! 2020).
//!
//! E9Patch rewrites x86_64 ELF binaries **without recovering control
//! flow**: every instruction address of the input remains a valid jump
//! target, because each patched instruction is either preserved, replaced
//! by an operationally equivalent instruction, or replaced by the intended
//! patch jump. The tool never moves existing code or data.
//!
//! ## Tactics
//!
//! | tactic | module | idea |
//! |--------|--------|------|
//! | B1/B2  | [`pun`] | plain or punned `jmpq rel32` |
//! | T1     | [`pun`] | redundant-prefix padding shifts the pun window |
//! | T2     | [`planner`] | evict the successor, changing the pun bytes |
//! | T3     | [`planner`] | evict a neighbour; double jump via `J_short` |
//! | S1     | [`lock`] + [`planner`] | reverse-order patching over byte locks |
//! | B0     | [`planner`] | `int3` trap fallback |
//!
//! Space optimisation: [`group`] implements physical page grouping (§4),
//! and [`loader`] emits the x86-64 loader stub that maps merged physical
//! blocks at their many virtual addresses at startup.
//!
//! ## Quick start
//!
//! ```
//! use e9patch::{PatchRequest, RewriteConfig, Rewriter, Template};
//! use e9x86::decode::linear_sweep;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy binary: mov %rax,(%rbx); add $32,%rax; ...; ret.
//! let code = vec![0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0xC3];
//! let mut b = e9elf::build::ElfBuilder::exec(0x400000);
//! b.text(code.clone(), 0x401000);
//! b.entry(0x401000);
//! let input = b.build();
//!
//! // Disassembly info is an *input* (the paper's design): here, a linear
//! // sweep of .text.
//! let disasm = linear_sweep(&code, 0x401000);
//!
//! let out = Rewriter::new(RewriteConfig::default()).rewrite(
//!     &input,
//!     &disasm,
//!     &[PatchRequest { addr: 0x401000, template: Template::Empty }],
//!     &[],
//! )?;
//! assert_eq!(out.stats.succeeded(), 1);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod group;
pub mod layout;
pub mod loader;
pub mod lock;
pub mod planner;
pub mod pun;
pub mod rewriter;
pub mod stats;
pub mod trampoline;
pub mod verify;

pub use error::{Error, Result};
pub use planner::{AllocPolicy, PatchRequest, Planner, RewriteConfig, SiteReport, Tactics};
pub use rewriter::{ExtraSegment, RewriteOutput, Rewriter};
pub use stats::{PatchStats, SizeStats, TacticKind};
pub use trampoline::Template;

#[cfg(test)]
mod tests_prop;
