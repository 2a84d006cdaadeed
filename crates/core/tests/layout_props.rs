//! Property tests for address-space boundary arithmetic.
//!
//! The planner feeds the allocator windows computed from `lo/hi ± REACH`
//! i128 math; near the guard pages, the 47-bit ceiling, and `u64::MAX`
//! that arithmetic must clamp — never wrap, panic, or misclassify an
//! empty window as usable. These properties drive the allocators with
//! hostile windows, sizes and alignments (including the exact overflow
//! shapes fixed in this change: `alloc_at` end arithmetic, `alloc_in_high`
//! under-the-ceiling stepping, and cursor rounding at `u64::MAX`).
//!
//! The plain tests at the end pin the planner's side of the same
//! arithmetic: degenerate reach windows are typed errors, never panics.

use e9patch::layout::{AddressSpace, Window, MAX_ADDR, MIN_ADDR};
use e9patch::planner::{PatchRequest, Planner, RewriteConfig};
use e9patch::trampoline::Template;
use e9patch::{Error, Rewriter};
use e9qcheck::prelude::*;
use e9x86::decode::linear_sweep;
use e9x86::insn::Insn;
use std::collections::BTreeMap;

/// Mirror of the planner's rel32 reach margin (kept private there).
const REACH: i128 = 0x7FFF_0000;

props! {
    #[test]
    fn from_i128_always_in_bounds(t in any::<u64>(), neg in any::<bool>()) {
        let centre = if neg { -(t as i128) } else { t as i128 };
        if let Some(w) = Window::from_i128(centre - REACH, centre + REACH) {
            prop_assert!(w.lo >= MIN_ADDR);
            prop_assert!(w.hi <= MAX_ADDR);
            prop_assert!(w.lo < w.hi);
        }
    }

    #[test]
    fn from_i128_near_reach_edges(jitter in 0i64..8192) {
        // Sites whose targets sit near ±REACH of the clamp boundaries —
        // the i32::MIN/MAX-reach shapes from the planner's reach_window.
        for edge in [MIN_ADDR as i128, MAX_ADDR as i128, 0, i32::MIN as i128, i32::MAX as i128] {
            let lo = edge - REACH + jitter as i128;
            let hi = edge + REACH - jitter as i128;
            if let Some(w) = Window::from_i128(lo, hi) {
                prop_assert!(w.lo >= MIN_ADDR && w.hi <= MAX_ADDR && w.lo < w.hi);
            }
        }
    }

    #[test]
    fn alloc_at_never_panics(
        addr in any::<u64>(),
        size in any::<u64>(),
        resv in vec((any::<u64>(), any::<u64>()), 0..6),
    ) {
        let mut a = AddressSpace::new();
        for (s, e) in resv {
            a.reserve(s, e);
        }
        if a.alloc_at(addr, size) {
            let end = addr.checked_add(size);
            prop_assert!(addr >= MIN_ADDR);
            prop_assert_eq!(end.is_some(), true);
            prop_assert!(end.unwrap_or(u64::MAX) <= MAX_ADDR);
        }
    }

    #[test]
    fn alloc_in_hostile_inputs_never_panic(
        lo in any::<u64>(),
        len in any::<u64>(),
        size in any::<u64>(),
        align in any::<u64>(),
    ) {
        let w = Window { lo, hi: lo.saturating_add(len) };
        let mut a = AddressSpace::new();
        if let Some(x) = a.alloc_in(w, size, align) {
            prop_assert!(x >= w.lo && x < w.hi);
            prop_assert!(x.checked_add(size).is_some_and(|e| e <= MAX_ADDR));
        }
        let mut b = AddressSpace::new();
        if let Some(x) = b.alloc_in_high(w, size, align) {
            prop_assert!(x >= w.lo && x < w.hi);
            prop_assert!(x.checked_add(size).is_some_and(|e| e <= MAX_ADDR));
        }
    }

    #[test]
    fn alloc_near_ceiling_respects_bounds(
        back in 0u64..0x4000,
        size in 1u64..0x2000,
        align in 1u64..64,
        resv_back in 0u64..0x1000,
        resv_len in 0u64..0x800,
    ) {
        // Windows hugging the 47-bit ceiling, with a reservation nearby.
        let w = Window { lo: MAX_ADDR - back.min(MAX_ADDR - MIN_ADDR), hi: u64::MAX };
        let mut a = AddressSpace::new();
        a.reserve(MAX_ADDR - resv_back, MAX_ADDR - resv_back + resv_len);
        for x in [a.alloc_in(w, size, align), a.clone().alloc_in_high(w, size, align)]
            .into_iter()
            .flatten()
        {
            prop_assert!(x >= w.lo);
            prop_assert!(x + size <= MAX_ADDR);
            prop_assert_eq!(x % align, 0);
        }
    }
}

/// A one-function non-PIE binary around `code` at `0x401000`, with its
/// decoded instructions keyed by address.
fn tiny(code: &[u8]) -> (Vec<u8>, BTreeMap<u64, Insn>) {
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code.to_vec(), 0x401000);
    b.entry(0x401000);
    let insns = linear_sweep(code, 0x401000)
        .into_iter()
        .map(|i| (i.addr, i))
        .collect();
    (b.build(), insns)
}

#[test]
fn unreachable_targets_is_a_typed_error() {
    // Regression for the reach-window panic path: an instruction decoded
    // at a degenerate address above the 47-bit ceiling pushes its rel32
    // targets out of every window — formerly this cascaded into unwraps,
    // now it must be a typed error.
    let (input, mut insns) = tiny(&[0x48, 0x89, 0x03, 0xC3]); // mov %rax,(%rbx); ret
    let elf = e9elf::Elf::parse(&input).expect("parse");
    let weird = 0xFFFF_FFFF_FFFF_0000u64;
    for i in linear_sweep(&[0x48, 0x89, 0x03], weird) {
        insns.insert(i.addr, i);
    }
    let mut planner = Planner::new(elf, &insns, RewriteConfig::default(), &[]).unwrap();
    let err = planner.patch_site(weird, &Template::Empty).unwrap_err();
    assert_eq!(err, Error::UnreachableTargets(weird));
}

#[test]
fn empty_target_set_does_not_panic() {
    // Regression: `ret` has no rel32 targets; the old bounds code
    // special-cased this ahead of a pair of `unwrap`s — the fold must
    // yield the unconstrained window and patch normally.
    let (input, insns) = tiny(&[0xC3, 0x90, 0x90, 0x90, 0x90]); // ret; nops
    let elf = e9elf::Elf::parse(&input).expect("parse");
    let mut planner = Planner::new(elf, &insns, RewriteConfig::default(), &[]).unwrap();
    // Outcome (patched or not) is irrelevant; reaching it without a panic
    // or error is the contract.
    planner
        .patch_site(0x401000, &Template::Empty)
        .expect("ret site must not error");
}

#[test]
fn first_error_is_the_highest_bad_address() {
    // S1 processes requests highest-address-first, so of two requests
    // naming unknown instructions the higher one is reported.
    let code = [0x48, 0x89, 0x03, 0xC3];
    let (input, insns) = tiny(&code);
    let disasm: Vec<Insn> = insns.into_values().collect();
    let mut reqs = vec![PatchRequest {
        addr: 0x401000,
        template: Template::Empty,
    }];
    for addr in [0x402000, 0x409000] {
        reqs.push(PatchRequest {
            addr,
            template: Template::Empty,
        });
    }
    let err = Rewriter::new(RewriteConfig::default())
        .rewrite(&input, &disasm, &reqs, &[])
        .unwrap_err();
    assert_eq!(err, Error::NoSuchInstruction(0x409000));
}
