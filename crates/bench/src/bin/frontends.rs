//! Frontend comparison (§2.2): E9Patch takes disassembly info as an
//! *input*, so coverage depends on the frontend, not the rewriter. This
//! experiment contrasts the prototype linear-sweep frontend with a
//! recursive-descent frontend on the same binaries: recursion is sound but
//! misses indirectly-reached code (jump tables, function-pointer calls),
//! shrinking the instrumentable site set.
//!
//! Usage: `cargo run --release -p e9bench --bin frontends`

use e9front::{instrument_with_disasm, recursive, Application, Options, Payload};
use e9synth::{generate, Profile};

fn main() {
    println!("Linear vs recursive disassembly frontends (A1 sites)\n");
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "binary", "lin insns", "rec insns", "lin sites", "rec sites", "rec/lin"
    );
    for (name, switch_pct) in [
        ("few-switch", 10u32),
        ("mid-switch", 40),
        ("all-switch", 100),
    ] {
        let mut p = Profile::tiny(name, false);
        p.funcs = 12;
        p.switch_pct = switch_pct;
        let sb = generate(&p);
        let elf = e9elf::Elf::parse(&sb.binary).unwrap();
        let rec = recursive::recursive_sweep(&elf, &[sb.entry]);

        let lin_sites = sb.disasm.iter().filter(|i| i.kind.is_jump()).count();
        let rec_sites = rec.iter().filter(|i| i.kind.is_jump()).count();
        println!(
            "{:<12} {:>10} {:>10} {:>12} {:>12} {:>9.0}%",
            name,
            sb.disasm.len(),
            rec.len(),
            lin_sites,
            rec_sites,
            100.0 * rec_sites as f64 / lin_sites.max(1) as f64
        );

        // Both frontends must preserve behaviour when used for rewriting.
        let orig = e9vm::run_binary(&sb.binary, 200_000_000).unwrap();
        for disasm in [&sb.disasm, &rec] {
            let out = instrument_with_disasm(
                &sb.binary,
                disasm,
                &Options::new(Application::A1Jumps, Payload::Empty),
            )
            .unwrap();
            let r = e9vm::run_binary(&out.rewrite.binary, 400_000_000).unwrap();
            assert_eq!(r.output, orig.output, "{name}");
        }
    }
    println!("\nrecursive descent is sound but incomplete: more indirect control");
    println!("flow (switch tables) ⇒ fewer reachable sites. The rewriter is");
    println!("agnostic — both frontends' outputs patch correctly.");
}
