//! Rewriter error type.

use std::fmt;

/// Errors surfaced by the rewriting pipeline.
///
/// Note that a *patch failure* (no tactic succeeded for a site) is not an
/// error — it is recorded in [`crate::stats::PatchStats`], matching the
/// paper's coverage methodology where Succ% may be below 100.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Underlying ELF problem.
    Elf(e9elf::ElfError),
    /// A patch request names an address with no known instruction.
    NoSuchInstruction(u64),
    /// Duplicate patch request for the same address.
    DuplicatePatch(u64),
    /// A patch site's rel32 targets are mutually unreachable: no
    /// trampoline address lies within ±2 GiB of all of them (only
    /// degenerate disassembly can produce this).
    UnreachableTargets(u64),
    /// The configured granularity is zero, or its block of `M` pages does
    /// not fit the usable address space
    /// ([`MAX_GRANULARITY`](crate::planner::MAX_GRANULARITY)).
    Granularity(u64),
    /// No free address range was left for the loader, which needs this
    /// many bytes.
    NoLoaderSpace(u64),
    /// A load segment or reserved range starting at this address ends
    /// past the usable address space
    /// ([`MAX_ADDR`](crate::layout::MAX_ADDR)).
    BeyondAddressSpace(u64),
    /// The output would need this many program headers: the input's, one
    /// per extra segment, the loader's and the trap note's. `e_phnum`
    /// holds at most `PN_XNUM - 1` (65,534).
    TooManyProgramHeaders(usize),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Elf(e) => write!(f, "elf error: {e}"),
            Error::NoSuchInstruction(a) => {
                write!(f, "no instruction at {a:#x} in the disassembly info")
            }
            Error::DuplicatePatch(a) => write!(f, "duplicate patch request at {a:#x}"),
            Error::UnreachableTargets(a) => {
                write!(
                    f,
                    "instruction at {a:#x} has mutually unreachable rel32 targets"
                )
            }
            Error::Granularity(m) => write!(
                f,
                "granularity {m} out of range: want 1..={} pages, so that one block fits \
                 the usable address space",
                crate::planner::MAX_GRANULARITY
            ),
            Error::NoLoaderSpace(n) => {
                write!(f, "address space exhausted placing the {n}-byte loader")
            }
            Error::BeyondAddressSpace(a) => write!(
                f,
                "the range starting at {a:#x} ends past the usable address space ({:#x})",
                crate::layout::MAX_ADDR
            ),
            Error::TooManyProgramHeaders(n) => write!(
                f,
                "the output would need {n} program headers; e_phnum holds at most 65534"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Elf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<e9elf::ElfError> for Error {
    fn from(e: e9elf::ElfError) -> Self {
        Error::Elf(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
