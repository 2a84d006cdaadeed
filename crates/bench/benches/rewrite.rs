//! Rewriter throughput: sites patched per second — the paper's
//! scalability argument is that patching is local and needs no global
//! analysis, so cost is linear in the number of sites.
//!
//! Two small SPEC-int-like rows, and a browser-mix row at 1/40 of the
//! paper's Chrome (over 100k sites), where a cost per site that climbs
//! with the size of the binary shows. Beside each rewrite, a `verify`
//! row times the static verifier on that rewrite's output (both images
//! already parsed), so its cost reads against the rewrite it checks.

use e9bench::harness::{Harness, Throughput};
use e9elf::Elf;
use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9patch::{verify::verify, RewriteConfig};
use e9synth::{generate, PaperRow, Preset, Profile};
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args("rewrite");
    let int_row = PaperRow {
        size_mb: 1.0,
        a1_loc: 36821,
        a2_loc: 7522,
        a1_succ: 100.0,
        a2_succ: 100.0,
    };
    let chrome_row = PaperRow {
        size_mb: 152.0,
        a1_loc: 3_800_565,
        a2_loc: 2_624_800,
        a1_succ: 100.0,
        a2_succ: 100.0,
    };
    for (pie, preset, paper, scale, loop_iters) in [
        (false, Preset::Int, int_row, 400u64, 2),
        (false, Preset::Int, int_row, 100, 2),
        (true, Preset::Browser, chrome_row, 40, 1),
    ] {
        let profile = Profile::scaled("bench-rw", pie, preset, paper, scale, 0, loop_iters);
        let prog = generate(&profile);
        let sites = prog.disasm.iter().filter(|i| i.kind.is_jump()).count();
        let opts = Options {
            app: Application::A1Jumps,
            payload: Payload::Empty,
            config: RewriteConfig::default(),
        };
        h.throughput(Throughput::Elements(sites as u64));
        h.bench(&format!("a1_empty/{sites}"), || {
            instrument_with_disasm(black_box(&prog.binary), &prog.disasm, &opts).unwrap()
        });
        let out = instrument_with_disasm(&prog.binary, &prog.disasm, &opts)
            .unwrap()
            .rewrite;
        let (orig, patched) = (
            Elf::parse(&prog.binary).unwrap(),
            Elf::parse(&out.binary).unwrap(),
        );
        h.throughput(Throughput::Elements(sites as u64));
        h.bench(&format!("verify/{sites}"), || {
            verify(
                black_box(&orig),
                &patched,
                &prog.disasm,
                &out.mappings,
                &out.reports,
            )
            .unwrap()
        });
    }
    h.finish();
}
