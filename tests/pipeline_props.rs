//! Whole-pipeline property tests: for randomized synthetic programs and
//! randomized rewriter configurations, the patched binary must behave
//! identically to the original. This is the reproduction's strongest
//! correctness oracle, exercising generator → ELF → tactics → grouping →
//! loader → emulator end to end.

use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9patch::{RewriteConfig, Tactics};
use e9qcheck::prelude::*;
use e9synth::{generate, Profile};

fn random_profile(name: String, pie: bool, funcs: usize, switch_pct: u32, iters: u32) -> Profile {
    let mut p = Profile::tiny(&name, pie);
    p.funcs = funcs;
    p.switch_pct = switch_pct;
    p.loop_iters = iters;
    p
}

props! {
    #![cases = 12]

    /// A1 instrumentation preserves behaviour for arbitrary programs,
    /// PIE-ness, tactic sets and grouping configurations.
    #[test]
    fn a1_preserves_behaviour(
        seed in alpha(6),
        pie in any::<bool>(),
        funcs in 2usize..8,
        switch_pct in 0u32..100,
        iters in 2u32..8,
        t1 in any::<bool>(),
        t2 in any::<bool>(),
        t3 in any::<bool>(),
        grouping in any::<bool>(),
        granularity in 1u64..5,
        b0 in any::<bool>(),
    ) {
        let p = random_profile(format!("prop-{seed}"), pie, funcs, switch_pct, iters);
        let sb = generate(&p);
        let orig = e9vm::run_binary(&sb.binary, 400_000_000).expect("orig run");
        let cfg = RewriteConfig {
            tactics: Tactics { t1, t2, t3 },
            b0_fallback: b0,
            grouping,
            granularity,
            ..RewriteConfig::default()
        };
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options { app: Application::A1Jumps, payload: Payload::Empty, config: cfg },
        ).expect("instrument");
        let patched = e9vm::run_binary(&out.rewrite.binary, 2_000_000_000).expect("patched run");
        prop_assert_eq!(&patched.output, &orig.output);
        prop_assert_eq!(patched.exit_code, orig.exit_code);
        // Accounting invariant: every request resolved one way or another.
        prop_assert_eq!(out.rewrite.stats.total(), out.sites);
        // Static translation validation: the output upholds the
        // control-flow-agnostic invariants.
        let orig_elf = e9elf::Elf::parse(&sb.binary).unwrap();
        let patched_elf = e9elf::Elf::parse(&out.rewrite.binary).unwrap();
        let verdict = e9patch::verify::verify(
            &orig_elf,
            &patched_elf,
            &sb.disasm,
            &out.rewrite.mappings,
            &out.rewrite.reports,
        );
        prop_assert!(verdict.is_ok(), "verifier: {:?}", verdict.err());
    }

    /// A2 + Counter payload preserves behaviour and counts every executed
    /// patched site.
    #[test]
    fn a2_counter_preserves_behaviour(
        seed in alpha(6),
        pie in any::<bool>(),
        funcs in 2usize..6,
        iters in 2u32..6,
    ) {
        let p = random_profile(format!("propc-{seed}"), pie, funcs, 40, iters);
        let sb = generate(&p);
        let orig = e9vm::run_binary(&sb.binary, 400_000_000).expect("orig run");
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options::new(Application::A2HeapWrites, Payload::Counter),
        ).expect("instrument");
        let mut vm = e9vm::Vm::new();
        e9vm::load_elf(&mut vm, &out.rewrite.binary).expect("load");
        let patched = vm.run(2_000_000_000).expect("patched run");
        prop_assert_eq!(&patched.output, &orig.output);
        prop_assert_eq!(patched.exit_code, orig.exit_code);
        if out.rewrite.stats.succeeded() > 0 {
            let count = vm.mem.read_le(out.counter_addr.unwrap(), 8).unwrap();
            // The program performs heap writes every loop iteration, so a
            // successful instrumentation must have counted something.
            prop_assert!(count > 0, "counter stayed zero");
        }
    }

    /// LowFat hardening never reports violations on correct programs,
    /// regardless of program shape.
    #[test]
    fn lowfat_no_false_positives(
        seed in alpha(6),
        funcs in 2usize..6,
        iters in 2u32..6,
    ) {
        let p = random_profile(format!("proplf-{seed}"), false, funcs, 30, iters);
        let sb = generate(&p);
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options::new(Application::A2HeapWrites, Payload::LowFat),
        ).expect("instrument");
        let mut vm = e9vm::Vm::new();
        vm.set_heap(Box::new(e9lowfat::LowFatAllocator::new()));
        e9vm::load_elf(&mut vm, &out.rewrite.binary).expect("load");
        vm.run(2_000_000_000).expect("patched run");
        let v = vm.mem.read_le(out.violations_addr.unwrap(), 8).unwrap();
        prop_assert_eq!(v, 0, "false-positive redzone violations");
    }
}
