//! Recursive-descent disassembly frontend.
//!
//! E9Patch's design treats disassembly info as an input so that different
//! techniques can feed it (paper §2.2: "partial, linear, recursive,
//! superset, probabilistic"). This module provides the classic
//! *recursive traversal* alternative to the linear sweep: start from the
//! entry point (and any extra roots), follow direct control-flow edges,
//! and decode only what is provably reachable.
//!
//! Recursive descent is *sound for code* (everything it returns is real,
//! reachable code — never data) but *incomplete*: targets of indirect
//! jumps/calls (jump tables, virtual dispatch) are invisible, so functions
//! reached only indirectly are missed. That trade-off is exactly why the
//! paper's coverage numbers depend on the frontend, not the rewriter.

use e9elf::Elf;
use e9x86::decode::decode;
use e9x86::insn::{Insn, Kind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Recursive-descent disassembly from `roots` over the executable
/// segments of `elf`.
///
/// Returns instructions in address order. Unreachable (or indirectly
/// reached) code is absent — compare with
/// [`crate::disassemble_text`].
pub fn recursive_sweep(elf: &Elf, roots: &[u64]) -> Vec<Insn> {
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut out: BTreeMap<u64, Insn> = BTreeMap::new();
    let mut work: VecDeque<u64> = roots.iter().copied().collect();

    let exec_ranges: Vec<(u64, u64)> = elf
        .load_segments()
        .filter(|p| p.p_flags & e9elf::types::PF_X != 0)
        .map(|p| (p.p_vaddr, p.p_vaddr + p.p_filesz))
        .collect();
    let in_exec = |a: u64| exec_ranges.iter().any(|&(lo, hi)| a >= lo && a < hi);

    while let Some(start) = work.pop_front() {
        let mut addr = start;
        // Walk a basic-block chain until an unconditional transfer or a
        // previously decoded address.
        while in_exec(addr) && seen.insert(addr) {
            let Ok(bytes) =
                elf.slice_at(addr, 16.min((exec_end(&exec_ranges, addr) - addr) as usize))
            else {
                break;
            };
            let Ok(insn) = decode(bytes, addr) else { break };
            out.insert(addr, insn);
            match insn.kind {
                Kind::JmpRel8 | Kind::JmpRel32 => {
                    if let Some(t) = insn.branch_target() {
                        work.push_back(t);
                    }
                    break; // no fallthrough
                }
                Kind::JccRel8(_) | Kind::JccRel32(_) | Kind::LoopRel8 => {
                    if let Some(t) = insn.branch_target() {
                        work.push_back(t);
                    }
                    addr = insn.end(); // fallthrough edge
                }
                Kind::CallRel32 => {
                    if let Some(t) = insn.branch_target() {
                        work.push_back(t);
                    }
                    addr = insn.end(); // call returns
                }
                Kind::Ret | Kind::JmpInd => break, // end of chain; indirect invisible
                Kind::Int3 => break,
                _ => addr = insn.end(),
            }
        }
    }
    out.into_values().collect()
}

fn exec_end(ranges: &[(u64, u64)], addr: u64) -> u64 {
    ranges
        .iter()
        .find(|&&(lo, hi)| addr >= lo && addr < hi)
        .map(|&(_, hi)| hi)
        .unwrap_or(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9synth::{generate, Profile};
    use e9x86::asm::Asm;
    use e9x86::insn::Cond;
    use e9x86::reg::{Reg, Width};

    #[test]
    fn follows_direct_edges_only() {
        // main: jcc over a block, call f, ret; g is never referenced
        // directly (dead or address-taken) → invisible to recursion.
        let mut a = Asm::new(0x401000);
        let f = a.fresh_label();
        let g = a.fresh_label();
        let skip = a.fresh_label();
        a.cmp_ri(Width::Q, Reg::Rax, 0);
        a.jcc(Cond::E, skip);
        a.add_ri(Width::Q, Reg::Rax, 1);
        a.bind(skip);
        a.call(f);
        a.ret();
        a.bind(f);
        a.add_ri(Width::Q, Reg::Rax, 2);
        a.ret();
        a.bind(g);
        a.add_ri(Width::Q, Reg::Rax, 3); // unreachable directly
        a.ret();
        let code = a.finish().unwrap();
        let g_off = code.len() - 5; // add(4) + ret(1)

        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code, 0x401000);
        b.entry(0x401000);
        let elf = Elf::parse(&b.build()).unwrap();

        let insns = recursive_sweep(&elf, &[0x401000]);
        let addrs: Vec<u64> = insns.iter().map(|i| i.addr).collect();
        assert!(addrs.contains(&0x401000));
        // f's body reached through the call:
        assert!(insns
            .iter()
            .any(|i| i.addr > 0x401000 && i.kind == Kind::Ret));
        // g unreached:
        assert!(
            !addrs.contains(&(0x401000 + g_off as u64)),
            "indirectly-unreferenced code should be invisible"
        );
    }

    #[test]
    fn subset_of_linear_sweep_and_misses_jump_table_targets() {
        let mut p = Profile::tiny("recurse", false);
        p.switch_pct = 100; // guarantee jump tables
        p.funcs = 6;
        let sb = generate(&p);
        let elf = Elf::parse(&sb.binary).unwrap();
        let rec = recursive_sweep(&elf, &[sb.entry]);
        let lin: std::collections::BTreeSet<u64> = sb.disasm.iter().map(|i| i.addr).collect();
        // Soundness: every recursively found instruction is in the linear
        // sweep of real code.
        for i in &rec {
            assert!(lin.contains(&i.addr), "{:#x} not real code", i.addr);
        }
        // Incompleteness: the generator's switch cases are reached only
        // through indirect jumps, so recursion finds strictly less.
        assert!(
            rec.len() < sb.disasm.len(),
            "recursive {} vs linear {}",
            rec.len(),
            sb.disasm.len()
        );
    }

    #[test]
    fn symbol_roots_recover_indirect_targets() {
        let mut p = Profile::tiny("recsym", false);
        p.switch_pct = 100;
        p.funcs = 6;
        let sb = generate(&p);
        let elf = Elf::parse(&sb.binary).unwrap();
        let plain = recursive_sweep(&elf, &[sb.entry]);
        let mut roots = vec![elf.entry()];
        roots.extend(e9elf::symbols::parse(&elf).iter().map(|s| s.value));
        let with_syms = recursive_sweep(&elf, &roots);
        // Symbols reveal every function body even when only indirectly
        // called; switch-case interiors remain invisible to both.
        assert!(
            with_syms.len() > plain.len(),
            "symbols should widen coverage: {} vs {}",
            with_syms.len(),
            plain.len()
        );
        let lin: std::collections::BTreeSet<u64> = sb.disasm.iter().map(|i| i.addr).collect();
        for i in &with_syms {
            assert!(lin.contains(&i.addr), "{:#x} not real code", i.addr);
        }
    }

    #[test]
    fn rewriting_with_recursive_frontend_preserves_behaviour() {
        let p = Profile::tiny("recurse2", false);
        let sb = generate(&p);
        let elf = Elf::parse(&sb.binary).unwrap();
        let rec = recursive_sweep(&elf, &[sb.entry]);
        let orig = e9vm::run_binary(&sb.binary, 50_000_000).unwrap();
        let out = crate::instrument_with_disasm(
            &sb.binary,
            &rec,
            &crate::Options::new(crate::Application::A1Jumps, crate::Payload::Empty),
        )
        .unwrap();
        let patched = e9vm::run_binary(&out.rewrite.binary, 100_000_000).unwrap();
        assert_eq!(patched.output, orig.output);
    }
}
