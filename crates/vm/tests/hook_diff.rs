//! Differential correctness tests for the hooking subsystem: hooked
//! binaries must behave byte-for-byte like the originals (same output,
//! same exit code) while the payload side effects — per-hook call
//! counters — prove every hook actually fired.

use e9front::{hook_with_disasm, Hooked};
use e9hook::{HookSpec, PayloadKind};
use e9patch::RewriteConfig;
use e9synth::{generate, Profile};

fn sample(name: &str) -> e9synth::SynthBinary {
    generate(&Profile::tiny(name, false))
}

fn run(bytes: &[u8]) -> e9vm::RunResult {
    e9vm::run_binary(bytes, 200_000_000).unwrap()
}

/// Run a hooked binary and read back every hook's call counter.
fn run_with_counters(out: &Hooked) -> (e9vm::RunResult, Vec<u64>) {
    let mut vm = e9vm::Vm::new();
    e9vm::load_elf(&mut vm, &out.rewrite.binary).unwrap();
    let r = vm.run(200_000_000).unwrap();
    let counts = out
        .hooks
        .iter()
        .map(|h| vm.mem.read_le(h.counter_addr, 8).unwrap())
        .collect();
    (r, counts)
}

#[test]
fn plain_hooks_preserve_behaviour_and_count_calls() {
    let sb = sample("hookdiff");
    let orig = run(&sb.binary);
    let spec = HookSpec::counters(&["f*"]);
    let out =
        hook_with_disasm(&sb.binary, &sb.disasm, &spec, RewriteConfig::default()).unwrap();
    assert_eq!(out.rewrite.stats.failed, 0, "a hook site failed to patch");
    let (hooked, counts) = run_with_counters(&out);
    assert_eq!(hooked.output, orig.output);
    assert_eq!(hooked.exit_code, orig.exit_code);
    // Not every generated function is reachable, but the program calls
    // *some* of them — the counters must have seen those calls.
    assert!(counts.iter().sum::<u64>() > 0, "no hook ever fired");
    for h in &out.hooks {
        assert!(!h.is_call_original());
        assert_eq!(h.thunk_addr, 0);
    }
}

#[test]
fn call_original_hooks_preserve_behaviour_and_count_calls() {
    let sb = sample("hookdiff-co");
    let orig = run(&sb.binary);
    let spec = HookSpec {
        call_original: true,
        ..HookSpec::counters(&["f*"])
    };
    let out =
        hook_with_disasm(&sb.binary, &sb.disasm, &spec, RewriteConfig::default()).unwrap();
    assert_eq!(out.rewrite.stats.failed, 0);
    let (hooked, counts) = run_with_counters(&out);
    // The call-original trampoline resumes *through* the relocated
    // prologue thunk, so the displaced-instruction relocation is
    // exercised on every single call — any relocation bug breaks the
    // output equality below.
    assert_eq!(hooked.output, orig.output);
    assert_eq!(hooked.exit_code, orig.exit_code);
    assert!(counts.iter().sum::<u64>() > 0, "no hook ever fired");
    for h in &out.hooks {
        assert!(h.is_call_original());
        assert_ne!(h.thunk_addr, 0);
    }
}

#[test]
fn hooked_binary_carries_a_decodable_manifest() {
    let sb = sample("hookdiff-mf");
    let spec = HookSpec {
        call_original: true,
        ..HookSpec::counters(&["f*", "main"])
    };
    let out =
        hook_with_disasm(&sb.binary, &sb.disasm, &spec, RewriteConfig::default()).unwrap();
    let elf = e9elf::Elf::parse(&out.rewrite.binary).unwrap();
    let recs = e9hook::manifest::find_in_elf(&elf).unwrap().expect("manifest present");
    assert_eq!(recs, out.hooks);
    // Ids are dense in function-address order.
    for (k, r) in recs.iter().enumerate() {
        assert_eq!(r.id, k as u32);
    }
    assert!(recs.windows(2).all(|w| w[0].func_addr < w[1].func_addr));
    // The original binary has none.
    let orig = e9elf::Elf::parse(&sb.binary).unwrap();
    assert_eq!(e9hook::manifest::find_in_elf(&orig).unwrap(), None);
}

#[test]
fn nop_payload_is_pure_overhead() {
    let sb = sample("hookdiff-nop");
    let orig = run(&sb.binary);
    let spec = HookSpec {
        payload: PayloadKind::Nop,
        ..HookSpec::counters(&["f*"])
    };
    let out =
        hook_with_disasm(&sb.binary, &sb.disasm, &spec, RewriteConfig::default()).unwrap();
    assert!(out.counters_addr.is_none());
    let hooked = run(&out.rewrite.binary);
    assert_eq!(hooked.output, orig.output);
    assert_eq!(hooked.exit_code, orig.exit_code);
    // The hook save/restore machinery costs instructions, so the hooked
    // run retires strictly more.
    assert!(hooked.insns > orig.insns);
}

#[test]
fn explicit_address_hooks_match_name_hooks() {
    // Hooking by --addr (the stripped-binary mode) must lower to the
    // identical batch as hooking the same entries by name.
    let sb = sample("hookdiff-addr");
    let by_name = hook_with_disasm(
        &sb.binary,
        &sb.disasm,
        &HookSpec::counters(&["f*"]),
        RewriteConfig::default(),
    )
    .unwrap();
    let addrs: Vec<u64> = by_name.hooks.iter().map(|h| h.func_addr).collect();
    let by_addr = hook_with_disasm(
        &sb.binary,
        &sb.disasm,
        &HookSpec {
            funcs: Vec::new(),
            addrs,
            call_original: false,
            payload: PayloadKind::Counter,
        },
        RewriteConfig::default(),
    )
    .unwrap();
    // Names differ (synthesized 0x... for address hooks) so the manifest
    // segment differs; everything address-shaped must agree.
    for (a, b) in by_name.hooks.iter().zip(&by_addr.hooks) {
        assert_eq!(a.func_addr, b.func_addr);
        assert_eq!(a.payload_addr, b.payload_addr);
        assert_eq!(a.counter_addr, b.counter_addr);
    }
    let (r1, c1) = run_with_counters(&by_name);
    let (r2, c2) = run_with_counters(&by_addr);
    assert_eq!(r1.output, r2.output);
    assert_eq!(c1, c2);
}
