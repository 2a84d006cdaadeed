//! Experiment E7 — the §4 granularity trade-off: sweep the physical page
//! grouping block size `M ∈ {1,2,4,…,64}` on a Chrome-class binary and
//! report mapping count versus physical memory/file size. The paper notes
//! `M ≥ 64` keeps mappings below Linux's default
//! `vm.max_map_count = 65536`.
//!
//! Usage: `cargo run --release -p e9bench --bin granularity`

use e9front::{instrument_with_disasm, Application, Options, Payload};
use e9patch::group::DEFAULT_MAX_MAP_COUNT;
use e9patch::RewriteConfig;
use e9synth::generate;

fn main() {
    let scale = e9bench::scale_from_env();
    let profile = e9synth::browser_profiles(scale)
        .into_iter()
        .find(|p| p.name == "chrome")
        .expect("chrome profile");
    let sb = generate(&profile);
    let a1 = sb.disasm.iter().filter(|i| i.kind.is_jump()).count();
    println!("Granularity sweep on the Chrome-class binary ({a1} A1 sites, scale 1/{scale})\n");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "M", "mappings", "physblocks", "physMB", "Size%", "fits map_count"
    );
    for m in [1u64, 2, 4, 8, 16, 32, 64] {
        let out = instrument_with_disasm(
            &sb.binary,
            &sb.disasm,
            &Options {
                app: Application::A1Jumps,
                payload: Payload::Empty,
                config: RewriteConfig {
                    granularity: m,
                    ..RewriteConfig::default()
                },
            },
        )
        .expect("instrument");
        let s = out.rewrite.size;
        let phys_mb = s.physical_blocks as f64 * m as f64 * 4096.0 / 1e6;
        // Scale the mapping count back up to paper scale for the
        // max_map_count comparison.
        let paper_scale_mappings = s.mappings * scale;
        println!(
            "{:>4} {:>12} {:>12} {:>12.2} {:>11.1}% {:>14}",
            m,
            s.mappings,
            s.physical_blocks,
            phys_mb,
            s.size_pct(),
            if paper_scale_mappings <= DEFAULT_MAX_MAP_COUNT {
                "yes"
            } else {
                "no (raise M)"
            }
        );
    }
    println!("\npaper reference: M=1 is most aggressive; M>=64 always fits the");
    println!("default vm.max_map_count=65536 budget for a single binary");
}
