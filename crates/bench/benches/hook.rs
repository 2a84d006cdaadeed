//! Hooking-layer performance: planning + emission cost per hook across
//! three orders of magnitude (1 / 100 / 10k hooks), and manifest decode
//! throughput.
//!
//! `plan/{n}` isolates the planner (symbol resolution, payload/thunk
//! assembly, manifest serialization); `hook/{n}` is the end-to-end path
//! the `e9tool hook` command pays (plan + rewrite + emit). Call-original
//! planning is measured separately at the 100-hook rung — it adds one
//! relocation per hook, and that delta is the per-thunk price. Decode
//! throughput bounds what any post-mortem tool (`e9tool run
//! --hook-counters`) pays to read a manifest back.

use e9bench::harness::{Harness, Throughput};
use e9front::hook_with_disasm;
use e9hook::{manifest, plan_hooks, HookSpec};
use e9patch::RewriteConfig;
use e9synth::{generate, Profile};
use std::hint::black_box;

/// A synthetic binary with at least `n` hookable functions.
fn sample(n: usize) -> e9synth::SynthBinary {
    let profile = Profile {
        funcs: n.max(1),
        ..Profile::tiny(&format!("hookbench{n}"), false)
    };
    generate(&profile)
}

fn main() {
    let mut h = Harness::from_args("hook");

    // 10k hooks means a multi-MiB synthetic binary; smoke runs stop at
    // 100 so the CI gate stays fast.
    let rungs: &[usize] = if h.is_smoke() {
        &[1, 100]
    } else {
        &[1, 100, 10_000]
    };

    for &n in rungs {
        let sb = sample(n);
        let spec = HookSpec::counters(&["f*", "main"]);

        let planned = plan_hooks(&sb.binary, &sb.disasm, &spec).unwrap();
        let hooks = planned.hooks.len() as u64;
        h.throughput(Throughput::Elements(hooks));
        h.bench(&format!("plan/{n}"), || {
            plan_hooks(black_box(&sb.binary), &sb.disasm, &spec).unwrap()
        });

        h.throughput(Throughput::Elements(hooks));
        h.bench(&format!("hook/{n}"), || {
            hook_with_disasm(
                black_box(&sb.binary),
                &sb.disasm,
                &spec,
                RewriteConfig::default(),
            )
            .unwrap()
        });
    }

    // The call-original delta: same rung, one relocated-prologue thunk
    // per hook on top of the plain plan.
    {
        let sb = sample(100);
        let spec = HookSpec {
            call_original: true,
            ..HookSpec::counters(&["f*", "main"])
        };
        let hooks = plan_hooks(&sb.binary, &sb.disasm, &spec)
            .unwrap()
            .hooks
            .len() as u64;
        h.throughput(Throughput::Elements(hooks));
        h.bench("plan_call_original/100", || {
            plan_hooks(black_box(&sb.binary), &sb.disasm, &spec).unwrap()
        });
    }

    // Manifest decode throughput, at the largest rung measured above.
    {
        let n = *rungs.last().unwrap();
        let sb = sample(n);
        let spec = HookSpec::counters(&["f*", "main"]);
        let records = plan_hooks(&sb.binary, &sb.disasm, &spec).unwrap().hooks;
        let bytes = manifest::encode(&records);
        h.throughput(Throughput::Bytes(bytes.len() as u64));
        h.bench(&format!("manifest_decode/{n}"), || {
            manifest::decode(black_box(&bytes)).unwrap()
        });
        h.note("manifest_bytes_at_max_rung", bytes.len());
        h.note("hooks_at_max_rung", records.len());
    }

    h.finish();
}
