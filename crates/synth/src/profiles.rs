//! Benchmark profiles mirroring the paper's Table 1 rows.
//!
//! SPEC2006, the Ubuntu system binaries and the browsers cannot be
//! redistributed, so each row becomes a *seeded synthetic program* whose
//! rewriting-relevant characteristics track the original: PIE vs non-PIE,
//! patch-location count (scaled by [`DEFAULT_SCALE`]), instruction-mix
//! flavour (integer / floating-point-like / memory-bound), and `.bss`
//! pressure (the gamess/zeusmp limitation-L1 rows). Paper reference
//! numbers are carried along for the report generators.

/// Default down-scaling of patch-location counts relative to the paper
/// (synthetic site counts = paper `#Loc` / scale).
pub const DEFAULT_SCALE: u64 = 50;

/// Instruction-mix flavour, loosely tracking source language/domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Branchy integer code (perlbench, gcc, gobmk, browsers' C++ …).
    Int,
    /// Long arithmetic runs, fewer short branches (Fortran float codes).
    Float,
    /// Pointer/heap heavy (mcf, lbm, omnetpp).
    Mem,
    /// DOM-kernel style: tree walking, attribute stores (Dromaeo).
    Browser,
}

/// Statement-mix weights used by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Register arithmetic (add/sub/xor/imul…).
    pub arith: u32,
    /// Long immediates (`movabs`) and other ≥ 7-byte instructions.
    pub longmov: u32,
    /// Heap stores (A2 sites).
    pub heap_write: u32,
    /// Heap loads.
    pub heap_read: u32,
    /// push/pop pairs (single-byte instructions — limitation L2 fodder).
    pub stack: u32,
    /// `lea` address arithmetic.
    pub lea: u32,
    /// Extra intra-block short conditional branches (A1 sites).
    pub branch: u32,
}

impl Preset {
    /// The statement mix for this preset.
    pub fn mix(self) -> Mix {
        match self {
            Preset::Int => Mix {
                arith: 30,
                longmov: 6,
                heap_write: 10,
                heap_read: 10,
                stack: 8,
                lea: 8,
                branch: 28,
            },
            Preset::Float => Mix {
                arith: 55,
                longmov: 14,
                heap_write: 9,
                heap_read: 10,
                stack: 2,
                lea: 4,
                branch: 6,
            },
            Preset::Mem => Mix {
                arith: 18,
                longmov: 5,
                heap_write: 22,
                heap_read: 25,
                stack: 5,
                lea: 10,
                branch: 15,
            },
            Preset::Browser => Mix {
                arith: 22,
                longmov: 6,
                heap_write: 16,
                heap_read: 20,
                stack: 6,
                lea: 10,
                branch: 20,
            },
        }
    }
}

/// Paper reference numbers for one Table 1 row (for report columns; the
/// reproduction regenerates its own measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Binary size in MB.
    pub size_mb: f64,
    /// A1 (#jmp/jcc) patch locations.
    pub a1_loc: u64,
    /// A2 (heap writes) patch locations.
    pub a2_loc: u64,
    /// Paper's reported A1 Succ%.
    pub a1_succ: f64,
    /// Paper's reported A2 Succ%.
    pub a2_succ: f64,
}

/// One synthetic benchmark profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Row name (the paper's benchmark name).
    pub name: String,
    /// Position-independent executable?
    pub pie: bool,
    /// RNG seed (derived from the name for stability).
    pub seed: u64,
    /// Number of generated functions.
    pub funcs: usize,
    /// Blocks per function (min, max).
    pub blocks_per_fn: (usize, usize),
    /// Statements per block (min, max).
    pub stmts_per_block: (usize, usize),
    /// Statement mix.
    pub mix: Mix,
    /// Fraction (0–100) of functions containing an indirect-jump switch.
    pub switch_pct: u32,
    /// Percent chance a block contains a call.
    pub call_pct: u32,
    /// Per-function loop trip count (workload length knob).
    pub loop_iters: u32,
    /// `.bss` reservation in bytes (limitation L1 pressure).
    pub bss_bytes: u64,
    /// Interleave data blobs between functions in `.text` (the paper's
    /// §6.2 Chrome challenge: .text contains a mixture of data and code).
    pub data_in_text: bool,
    /// Paper reference numbers, if this row exists in Table 1.
    pub paper: Option<PaperRow>,
}

fn name_seed(name: &str) -> u64 {
    // FNV-1a, deterministic across runs.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Profile {
    /// Build a profile scaled from a paper row.
    #[allow(clippy::too_many_arguments)]
    pub fn scaled(
        name: &str,
        pie: bool,
        preset: Preset,
        paper: PaperRow,
        scale: u64,
        bss_bytes: u64,
        loop_iters: u32,
    ) -> Profile {
        let target_a1 = (paper.a1_loc / scale).max(24);
        // Each block ends in roughly 1 branch, plus mix-weighted extras.
        let mix = preset.mix();
        let total_weight: u32 = mix.arith
            + mix.longmov
            + mix.heap_write
            + mix.heap_read
            + mix.stack
            + mix.lea
            + mix.branch;
        let stmts = 7usize;
        let branches_per_block = 1.0 + stmts as f64 * mix.branch as f64 / total_weight as f64;
        let blocks = (target_a1 as f64 / branches_per_block).ceil() as usize;
        let blocks_per_fn = (3usize, 9usize);
        let funcs = (blocks / 6).clamp(2, 50_000);
        Profile {
            name: name.to_string(),
            pie,
            seed: name_seed(name),
            funcs,
            blocks_per_fn,
            stmts_per_block: (4, 11),
            mix,
            switch_pct: 25,
            call_pct: 18,
            loop_iters,
            bss_bytes,
            data_in_text: false,
            paper: Some(paper),
        }
    }

    /// A small, quick profile for tests and the quickstart example.
    pub fn tiny(name: &str, pie: bool) -> Profile {
        Profile {
            name: name.to_string(),
            pie,
            seed: name_seed(name),
            funcs: 4,
            blocks_per_fn: (2, 5),
            stmts_per_block: (3, 8),
            mix: Preset::Int.mix(),
            switch_pct: 50,
            call_pct: 25,
            loop_iters: 6,
            bss_bytes: 0,
            data_in_text: false,
            paper: None,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn row(
    name: &str,
    pie: bool,
    preset: Preset,
    size_mb: f64,
    a1: u64,
    a2: u64,
    a1_succ: f64,
    a2_succ: f64,
    scale: u64,
    bss: u64,
    iters: u32,
) -> Profile {
    Profile::scaled(
        name,
        pie,
        preset,
        PaperRow {
            size_mb,
            a1_loc: a1,
            a2_loc: a2,
            a1_succ,
            a2_succ,
        },
        scale,
        bss,
        iters,
    )
}

/// The 28 SPEC2006 rows of Table 1 (compiled non-PIE, as in the paper).
pub fn spec_profiles(scale: u64) -> Vec<Profile> {
    use Preset::*;
    // Columns: size MB, A1 #Loc, A2 #Loc, A1 Succ%, A2 Succ%.
    // The gamess/zeusmp rows get a large .bss (limitation L1).
    vec![
        row(
            "perlbench",
            false,
            Int,
            1.25,
            36821,
            7522,
            100.0,
            100.0,
            scale,
            0,
            6,
        ),
        row(
            "bzip2", false, Int, 0.07, 1484, 1044, 100.0, 100.0, scale, 0, 10,
        ),
        row(
            "gcc", false, Int, 3.77, 97901, 14328, 100.0, 100.0, scale, 0, 3,
        ),
        row(
            "bwaves", false, Float, 0.08, 314, 1168, 100.0, 100.0, scale, 0, 12,
        ),
        row(
            "gamess",
            false,
            Float,
            12.22,
            125620,
            279592,
            99.73,
            99.94,
            scale,
            0x5000_0000,
            2,
        ),
        row(
            "mcf", false, Mem, 0.02, 295, 220, 100.0, 100.0, scale, 0, 12,
        ),
        row(
            "milc", false, Float, 0.14, 1940, 699, 100.0, 100.0, scale, 0, 10,
        ),
        row(
            "zeusmp",
            false,
            Float,
            0.52,
            3191,
            6106,
            98.68,
            99.82,
            scale,
            0x4000_0000,
            6,
        ),
        row(
            "gromacs", false, Float, 1.20, 12058, 16940, 100.0, 100.0, scale, 0, 4,
        ),
        row(
            "cactusADM",
            false,
            Float,
            0.91,
            12847,
            5420,
            100.0,
            100.0,
            scale,
            0,
            4,
        ),
        row(
            "leslie3d", false, Float, 0.18, 2584, 2761, 100.0, 100.0, scale, 0, 8,
        ),
        row(
            "namd", false, Float, 0.33, 4879, 2498, 100.0, 100.0, scale, 0, 6,
        ),
        row(
            "gobmk", false, Int, 4.03, 17912, 2777, 100.0, 100.0, scale, 0, 4,
        ),
        row(
            "dealII", false, Int, 4.20, 61317, 25590, 100.0, 99.99, scale, 0, 3,
        ),
        row(
            "soplex", false, Int, 0.49, 10125, 4188, 100.0, 100.0, scale, 0, 5,
        ),
        row(
            "povray", false, Int, 1.19, 20520, 9377, 100.0, 100.0, scale, 0, 4,
        ),
        row(
            "calculix", false, Float, 2.17, 30343, 32197, 100.0, 100.0, scale, 0, 3,
        ),
        row(
            "hmmer", false, Int, 0.33, 6748, 3061, 100.0, 100.0, scale, 0, 6,
        ),
        row(
            "sjeng", false, Int, 0.16, 3473, 683, 100.0, 100.0, scale, 0, 8,
        ),
        row(
            "GemsFDTD", false, Float, 0.58, 9120, 10345, 100.0, 100.0, scale, 0, 4,
        ),
        row(
            "libquantum",
            false,
            Int,
            0.05,
            732,
            186,
            100.0,
            100.0,
            scale,
            0,
            12,
        ),
        row(
            "h264ref", false, Int, 0.58, 9920, 4981, 100.0, 100.0, scale, 0, 5,
        ),
        row(
            "tonto", false, Float, 6.21, 48247, 164788, 100.0, 100.0, scale, 0, 2,
        ),
        row(
            "lbm", false, Mem, 0.02, 106, 111, 100.0, 100.0, scale, 0, 14,
        ),
        row(
            "omnetpp", false, Mem, 0.79, 9568, 5020, 100.0, 100.0, scale, 0, 5,
        ),
        row(
            "astar", false, Mem, 0.05, 769, 491, 100.0, 100.0, scale, 0, 12,
        ),
        row(
            "sphinx3", false, Float, 0.21, 3500, 1159, 100.0, 100.0, scale, 0, 8,
        ),
        row(
            "xalancbmk",
            false,
            Int,
            5.99,
            81285,
            32761,
            100.0,
            100.0,
            scale,
            0,
            3,
        ),
    ]
}

/// The system-binary rows of Table 1 (inkscape, gimp, vim, …).
pub fn system_profiles(scale: u64) -> Vec<Profile> {
    use Preset::*;
    vec![
        row(
            "inkscape", true, Int, 15.44, 195731, 105431, 100.0, 100.0, scale, 0, 2,
        ),
        row(
            "gimp", false, Int, 5.75, 71321, 15730, 100.0, 100.0, scale, 0, 2,
        ),
        row(
            "vim", true, Int, 2.44, 72221, 13279, 100.0, 100.0, scale, 0, 2,
        ),
        row(
            "git", false, Int, 1.87, 44441, 9072, 100.0, 100.0, scale, 0, 3,
        ),
        row(
            "pdflatex", false, Int, 0.91, 22105, 6060, 100.0, 100.0, scale, 0, 3,
        ),
        row(
            "xterm", false, Int, 0.54, 11593, 2681, 100.0, 100.0, scale, 0, 4,
        ),
        row(
            "evince", true, Int, 0.42, 3636, 716, 100.0, 100.0, scale, 0, 6,
        ),
        row(
            "make", false, Int, 0.21, 4807, 1383, 100.0, 100.0, scale, 0, 6,
        ),
        row(
            "libc.so", false, Int, 1.87, 52393, 24686, 100.0, 100.0, scale, 0, 3,
        ),
        row(
            "libstdc++.so",
            false,
            Int,
            1.57,
            20593,
            15442,
            100.0,
            100.0,
            scale,
            0,
            3,
        ),
    ]
}

/// Browser-scale rows (Chrome, the small FireFox launcher, libxul).
pub fn browser_profiles(scale: u64) -> Vec<Profile> {
    use Preset::*;
    let mut v = vec![
        row(
            "chrome", true, Browser, 152.51, 3800565, 2624800, 100.0, 100.0, scale, 0, 1,
        ),
        row(
            "firefox", true, Browser, 0.52, 13971, 7355, 100.0, 100.0, scale, 0, 4,
        ),
        row(
            "libxul.so",
            false,
            Browser,
            115.03,
            1463369,
            666109,
            99.99,
            100.0,
            scale,
            0,
            1,
        ),
    ];
    // The paper found Chrome's .text to be a mixture of data and code
    // (§6.2); reproduce that wrinkle on the chrome-class row.
    v[0].data_in_text = true;
    v
}

/// All Table 1 rows.
pub fn all_profiles(scale: u64) -> Vec<Profile> {
    let mut v = spec_profiles(scale);
    v.extend(system_profiles(scale));
    v.extend(browser_profiles(scale));
    v
}

/// The fourteen Dromaeo DOM sub-benchmarks of Figure 4.
pub const DROMAEO_KERNELS: [&str; 14] = [
    "Attrib",
    "Attrib.Proto",
    "Attrib.jQuery",
    "Modify",
    "Modify.Proto",
    "Modify.jQuery",
    "Query",
    "Style.Proto",
    "Style.jQuery",
    "Events.Proto",
    "Events.jQuery",
    "Traverse",
    "Traverse.Proto",
    "Traverse.jQuery",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = Profile::tiny("alpha", false);
        let b = Profile::tiny("alpha", false);
        let c = Profile::tiny("beta", false);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn table1_row_counts() {
        assert_eq!(spec_profiles(50).len(), 28);
        assert_eq!(system_profiles(50).len(), 10);
        assert_eq!(browser_profiles(50).len(), 3);
        assert_eq!(all_profiles(50).len(), 41);
    }

    #[test]
    fn scaling_tracks_paper_loc() {
        let ps = spec_profiles(50);
        let gcc = ps.iter().find(|p| p.name == "gcc").unwrap();
        let lbm = ps.iter().find(|p| p.name == "lbm").unwrap();
        assert!(gcc.funcs > lbm.funcs * 10);
    }

    #[test]
    fn pie_rows_marked() {
        let all = all_profiles(50);
        assert!(all.iter().find(|p| p.name == "chrome").unwrap().pie);
        assert!(all.iter().find(|p| p.name == "vim").unwrap().pie);
        assert!(!all.iter().find(|p| p.name == "gcc").unwrap().pie);
    }

    #[test]
    fn l1_rows_have_bss() {
        let all = all_profiles(50);
        assert!(all.iter().find(|p| p.name == "gamess").unwrap().bss_bytes > 0);
        assert!(all.iter().find(|p| p.name == "zeusmp").unwrap().bss_bytes > 0);
        assert_eq!(all.iter().find(|p| p.name == "gcc").unwrap().bss_bytes, 0);
    }
}
