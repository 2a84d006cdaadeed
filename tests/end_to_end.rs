//! End-to-end pipeline tests: assemble a program → build an ELF → rewrite
//! it with E9Patch tactics → run both versions in the emulator → compare
//! observable behaviour (exit code + output), per the reproduction's
//! correctness oracle.

use e9patch::{PatchRequest, RewriteConfig, Rewriter, Tactics, Template};
use e9vm::{load_elf, Vm};
use e9x86::asm::{Asm, Mem};
use e9x86::decode::linear_sweep;
use e9x86::insn::Insn;
use e9x86::reg::{Reg, Width};

/// Assemble a small but busy program:
/// - a counting loop with conditional branches,
/// - heap allocation and heap writes,
/// - an indirect jump through a jump table (control flow no static
///   analysis could recover),
/// - a call/ret pair,
/// - exit code = a checksum of the computation.
fn busy_program(base: u64) -> (Vec<u8>, u64) {
    let text_vaddr = base + 0x1000;
    let mut a = Asm::new(text_vaddr);
    let table = a.fresh_label();
    let case0 = a.fresh_label();
    let case1 = a.fresh_label();
    let case2 = a.fresh_label();
    let after_switch = a.fresh_label();
    let helper = a.fresh_label();
    let loop_top = a.fresh_label();
    let done = a.fresh_label();

    // r12 = checksum accumulator.
    a.mov_ri32(Reg::R12, 0);

    // p = malloc(256) → rbx. (Do this before setting the loop counter —
    // syscall clobbers %rcx.)
    a.mov_ri64(Reg::Rax, e9vm::SYS_MALLOC as i64);
    a.mov_ri32(Reg::Rdi, 256);
    a.syscall();
    a.mov_rr(Width::Q, Reg::Rbx, Reg::Rax);

    // rcx = loop counter.
    a.mov_ri32(Reg::Rcx, 20);

    a.bind(loop_top);
    // Heap write: p[rcx % 32 * 8] = rcx (A2-style site).
    a.mov_rr(Width::Q, Reg::Rdx, Reg::Rcx);
    a.and_ri(Width::Q, Reg::Rdx, 31);
    a.mov_mr(
        Width::Q,
        Mem::base_index(Reg::Rbx, Reg::Rdx, 8, 0),
        Reg::Rcx,
    );
    // checksum += p[...].
    a.add_rm(
        Width::Q,
        Reg::R12,
        Mem::base_index(Reg::Rbx, Reg::Rdx, 8, 0),
    );

    // switch (rcx % 3) via jump table.
    a.mov_rr(Width::Q, Reg::Rax, Reg::Rcx);
    a.mov_ri32(Reg::Rdx, 0);
    a.mov_ri32(Reg::Rsi, 3);
    // rax = rcx; rdx:rax / rsi → rdx = rcx % 3.
    a.raw(&[0x48, 0xF7, 0xF6]); // divq %rsi
    a.mov_rlabel(Reg::R11, table);
    a.jmp_ind_m(Mem::base_index(Reg::R11, Reg::Rdx, 8, 0));
    a.bind(case0);
    a.add_ri(Width::Q, Reg::R12, 1);
    a.jmp(after_switch);
    a.bind(case1);
    a.add_ri(Width::Q, Reg::R12, 10);
    a.jmp(after_switch);
    a.bind(case2);
    a.call(helper);
    a.bind(after_switch);

    // Loop control: jcc sites for A1.
    a.sub_ri(Width::Q, Reg::Rcx, 1);
    a.cmp_ri(Width::Q, Reg::Rcx, 0);
    a.jcc(e9x86::Cond::Ne, loop_top);
    a.jmp(done);

    a.bind(helper);
    a.add_ri(Width::Q, Reg::R12, 100);
    a.ret();

    a.bind(done);
    // exit(checksum & 0x7F).
    a.mov_rr(Width::Q, Reg::Rdi, Reg::R12);
    a.and_ri(Width::Q, Reg::Rdi, 0x7F);
    a.mov_ri32(Reg::Rax, 60);
    a.syscall();

    // Jump table data lives in .rodata-like tail of text (common layout).
    while !a.len().is_multiple_of(8) {
        a.raw(&[0x00]);
    }
    a.bind(table);
    a.dq_label(case0);
    a.dq_label(case1);
    a.dq_label(case2);

    (a.finish().unwrap(), text_vaddr)
}

/// The code portion (before the 3-entry jump table) as a disassembly unit.
fn disasm_code(code: &[u8], vaddr: u64) -> Vec<Insn> {
    let code_len = code.len() - 24; // strip the jump table
    linear_sweep(&code[..code_len], vaddr)
}

fn build_binary(pie: bool) -> (Vec<u8>, Vec<Insn>) {
    let base = if pie { 0x5555_5555_4000 } else { 0x400000 };
    let (code, text_vaddr) = busy_program(base);
    let disasm = disasm_code(&code, text_vaddr);
    let mut b = if pie {
        e9elf::build::ElfBuilder::pie(base)
    } else {
        e9elf::build::ElfBuilder::exec(base)
    };
    b.text(code, text_vaddr);
    b.entry(text_vaddr);
    (b.build(), disasm)
}

fn run(binary: &[u8]) -> e9vm::RunResult {
    let mut vm = Vm::new();
    load_elf(&mut vm, binary).expect("load");
    vm.run(10_000_000).expect("run")
}

fn jump_sites(disasm: &[Insn]) -> Vec<PatchRequest> {
    disasm
        .iter()
        .filter(|i| i.kind.is_jump())
        .map(|i| PatchRequest {
            addr: i.addr,
            template: Template::Empty,
        })
        .collect()
}

fn heap_write_sites(disasm: &[Insn]) -> Vec<PatchRequest> {
    disasm
        .iter()
        .filter(|i| i.is_heap_write())
        .map(|i| PatchRequest {
            addr: i.addr,
            template: Template::Empty,
        })
        .collect()
}

#[test]
fn original_program_runs() {
    let (bin, _) = build_binary(false);
    let r = run(&bin);
    assert!(r.insns > 100);
    // Deterministic checksum.
    let r2 = run(&bin);
    assert_eq!(r.exit_code, r2.exit_code);
}

#[test]
fn patched_jumps_preserve_behaviour_nonpie() {
    let (bin, disasm) = build_binary(false);
    let orig = run(&bin);
    let reqs = jump_sites(&disasm);
    assert!(reqs.len() >= 4, "expected several jump sites");
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(&bin, &disasm, &reqs, &[])
        .expect("rewrite");
    assert_eq!(
        out.stats.succeeded(),
        reqs.len(),
        "full coverage expected on this small binary: {:?}",
        out.stats
    );
    let patched = run(&out.binary);
    assert_eq!(patched.exit_code, orig.exit_code);
    assert_eq!(patched.output, orig.output);
    // Instrumentation cost: at least 2 extra jumps per patched execution.
    assert!(
        patched.insns > orig.insns,
        "patched {} vs orig {}",
        patched.insns,
        orig.insns
    );
}

#[test]
fn patched_jumps_preserve_behaviour_pie() {
    let (bin, disasm) = build_binary(true);
    let orig = run(&bin);
    let reqs = jump_sites(&disasm);
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(&bin, &disasm, &reqs, &[])
        .expect("rewrite");
    assert_eq!(out.stats.succeeded(), reqs.len());
    let patched = run(&out.binary);
    assert_eq!(patched.exit_code, orig.exit_code);
}

#[test]
fn patched_heap_writes_preserve_behaviour() {
    let (bin, disasm) = build_binary(false);
    let orig = run(&bin);
    let reqs = heap_write_sites(&disasm);
    assert!(!reqs.is_empty());
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(&bin, &disasm, &reqs, &[])
        .expect("rewrite");
    assert_eq!(out.stats.succeeded(), reqs.len());
    let patched = run(&out.binary);
    assert_eq!(patched.exit_code, orig.exit_code);
}

#[test]
fn patch_every_instruction_with_b0_fallback() {
    // The stress case (limitation L3): request a patch on *every*
    // instruction, with the B0 fallback enabled so unpatchable sites trap.
    let (bin, disasm) = build_binary(false);
    let orig = run(&bin);
    let reqs: Vec<PatchRequest> = disasm
        .iter()
        .map(|i| PatchRequest {
            addr: i.addr,
            template: Template::Empty,
        })
        .collect();
    let cfg = RewriteConfig {
        b0_fallback: true,
        ..RewriteConfig::default()
    };
    let out = Rewriter::new(cfg)
        .rewrite(&bin, &disasm, &reqs, &[])
        .expect("rewrite");
    assert_eq!(out.stats.total(), reqs.len(), "all requests accounted for");
    assert_eq!(out.stats.failed, 0, "B0 fallback leaves no failures");
    let patched = run(&out.binary);
    assert_eq!(patched.exit_code, orig.exit_code);
    if out.stats.b0 > 0 {
        // Trap penalty must show up in the cost-weighted counter.
        assert!(patched.steps > patched.insns);
    }
}

#[test]
fn counter_template_counts_executions() {
    let (bin, disasm) = build_binary(false);
    let orig = run(&bin);
    // Put a counter cell in an extra data segment.
    let counter_vaddr = 0x30000000u64;
    let reqs = jump_sites(&disasm);
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(
            &bin,
            &disasm,
            &reqs
                .iter()
                .map(|r| PatchRequest {
                    addr: r.addr,
                    template: Template::Counter {
                        counter_addr: counter_vaddr,
                    },
                })
                .collect::<Vec<_>>(),
            &[e9patch::ExtraSegment {
                vaddr: counter_vaddr,
                bytes: vec![0u8; 4096],
                exec: false,
                write: true,
            }],
        )
        .expect("rewrite");
    assert_eq!(out.stats.succeeded(), reqs.len());
    let mut vm = Vm::new();
    load_elf(&mut vm, &out.binary).expect("load");
    let patched = vm.run(10_000_000).expect("run");
    assert_eq!(patched.exit_code, orig.exit_code);
    // The counter must have counted every executed patched jump.
    let count = vm.mem.read_le(counter_vaddr, 8).unwrap();
    assert!(count > 0, "counter never incremented");
}

#[test]
fn tactic_ablation_coverage_is_monotone() {
    let (bin, disasm) = build_binary(false);
    let reqs = jump_sites(&disasm);
    let mut prev = 0usize;
    for tactics in [
        Tactics::base_only(),
        Tactics {
            t1: true,
            t2: false,
            t3: false,
        },
        Tactics {
            t1: true,
            t2: true,
            t3: false,
        },
        Tactics::all(),
    ] {
        let cfg = RewriteConfig {
            tactics,
            ..RewriteConfig::default()
        };
        let out = Rewriter::new(cfg)
            .rewrite(&bin, &disasm, &reqs, &[])
            .expect("rewrite");
        assert!(
            out.stats.succeeded() >= prev,
            "coverage should not shrink as tactics are added"
        );
        prev = out.stats.succeeded();
        // Whatever was patched must still behave.
        let patched = run(&out.binary);
        let orig = run(&bin);
        assert_eq!(patched.exit_code, orig.exit_code);
    }
}

#[test]
fn grouping_does_not_change_behaviour() {
    let (bin, disasm) = build_binary(false);
    let orig = run(&bin);
    let reqs = jump_sites(&disasm);
    for (grouping, granularity) in [(true, 1), (true, 4), (false, 1)] {
        let cfg = RewriteConfig {
            grouping,
            granularity,
            ..RewriteConfig::default()
        };
        let out = Rewriter::new(cfg)
            .rewrite(&bin, &disasm, &reqs, &[])
            .expect("rewrite");
        let patched = run(&out.binary);
        assert_eq!(
            patched.exit_code, orig.exit_code,
            "grouping={grouping} M={granularity}"
        );
    }
}

/// Outcome of driving a binary from an arbitrary instruction address with
/// a fixed register state: how it terminates, plus its output.
#[derive(Debug, PartialEq, Eq)]
enum SiteOutcome {
    Exit(i32, Vec<u8>),
    /// A memory fault at a *data* address (rip differs between original
    /// and patched runs by design, the faulting address must not).
    Fault(u64),
    /// Any other architectural error (bad syscall number from a garbage
    /// register, undecodable bytes reached through garbage control flow) —
    /// both binaries must produce the same one.
    Error(String),
    Timeout,
}

fn run_from_site(binary: &[u8], site: u64, orig_entry: u64) -> SiteOutcome {
    let mut vm = Vm::new();
    load_elf(&mut vm, binary).expect("load");
    // Let any injected loader run: execute until rip reaches the original
    // entry (for the unpatched binary this is immediate).
    let mut guard = 0;
    while vm.cpu.rip != orig_entry {
        vm.step().expect("loader step");
        guard += 1;
        assert!(guard < 1_000_000, "loader never reached original entry");
    }
    // Deterministic register state; rbx gets a valid heap pointer so the
    // loop body's stores land somewhere mapped.
    let rsp = vm.cpu.get(Reg::Rsp);
    for (i, r) in Reg::ALL.iter().enumerate() {
        vm.cpu.set(*r, 0x1000 + i as u64);
    }
    vm.cpu.set(Reg::Rsp, rsp);
    vm.cpu.flags = Default::default();
    let heap = vm.heap.malloc(4096);
    let (lo, hi) = (heap, heap + 4096);
    // Map the pages the way the malloc pseudo-syscall would.
    {
        let mut page = lo & !0xFFF;
        while page < hi {
            if !vm.mem.is_mapped(page) {
                vm.mem.map_anon(page, 4096, e9vm::Perms::RW);
            }
            page += 4096;
        }
    }
    vm.cpu.set(Reg::Rbx, heap);
    vm.cpu.set(Reg::Rcx, 3);
    vm.cpu.rip = site;

    for _ in 0..100_000 {
        match vm.step() {
            Ok(true) => {}
            Ok(false) => return SiteOutcome::Exit(vm.exit_code().unwrap_or(0), vm.output.clone()),
            Err(e9vm::VmError::Fault { fault, .. }) => {
                let addr = match fault {
                    e9vm::Fault::Unmapped(a) | e9vm::Fault::Protection(a) => a,
                };
                return SiteOutcome::Fault(addr);
            }
            Err(e9vm::VmError::BadSyscall(n)) => {
                return SiteOutcome::Error(format!("syscall {n:#x}"))
            }
            Err(e) => panic!("unexpected vm error from site {site:#x}: {e}"),
        }
    }
    SiteOutcome::Timeout
}

#[test]
fn jump_targets_preserved_after_patching() {
    // The paper's core guarantee: every original instruction address is
    // still a semantically valid jump target. Drive control flow directly
    // to each original instruction start (not just patch sites!) with an
    // identical register state in the original and patched binaries; the
    // observable outcome (exit code + output, or the faulting data
    // address) must match.
    let (bin, disasm) = build_binary(false);
    let reqs = jump_sites(&disasm);
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(&bin, &disasm, &reqs, &[])
        .expect("rewrite");
    let orig_entry = e9elf::Elf::parse(&bin).unwrap().entry();

    for insn in &disasm {
        let site = insn.addr;
        let want = run_from_site(&bin, site, orig_entry);
        let got = run_from_site(&out.binary, site, orig_entry);
        assert_eq!(got, want, "divergence entering at {site:#x}");
    }
}

#[test]
fn zero_requests_still_produces_valid_binary() {
    // Rewriting with an empty patch set must yield a working binary whose
    // loader simply maps nothing.
    let (bin, disasm) = build_binary(false);
    let orig = run(&bin);
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(&bin, &disasm, &[], &[])
        .expect("rewrite");
    assert_eq!(out.stats.total(), 0);
    assert_eq!(out.size.mappings, 0);
    let patched = run(&out.binary);
    assert_eq!(patched.exit_code, orig.exit_code);
    assert_eq!(patched.output, orig.output);
}

#[test]
fn patched_binary_is_itself_parseable_and_disassemblable() {
    // A downstream user can inspect the patched output with the same
    // tooling: the ELF parses, .text still disassembles (with punned
    // jumps now present), and the formatter renders every patched site.
    let (bin, disasm) = build_binary(false);
    let reqs = jump_sites(&disasm);
    let out = Rewriter::new(RewriteConfig::default())
        .rewrite(&bin, &disasm, &reqs, &[])
        .unwrap();
    let elf = e9elf::Elf::parse(&out.binary).expect("patched output parses");
    for req in &reqs {
        let bytes = elf.slice_at(req.addr, 8).unwrap();
        let insn = e9x86::decode(bytes, req.addr).expect("patched site decodes");
        let s = e9x86::fmt::format_insn(&insn);
        assert!(
            s.starts_with("jmp") || s == "int3",
            "site {:#x} renders as {s}",
            req.addr
        );
    }
}
