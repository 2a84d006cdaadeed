//! # e9synth — synthetic x86-64 ELF workload generator
//!
//! The reproduction's substitute for SPEC2006, Ubuntu system binaries and
//! the Chrome/FireFox browsers (see DESIGN.md, substitution 1): each
//! Table 1 row becomes a seeded synthetic program whose
//! rewriting-relevant characteristics (patch-site counts, PIE-ness,
//! instruction mix, `.bss` pressure) track the paper's binaries at
//! 1/[`profiles::DEFAULT_SCALE`] scale.
//!
//! ```
//! use e9synth::{generate, Profile};
//!
//! let prog = generate(&Profile::tiny("demo", false));
//! let result = e9vm::run_binary(&prog.binary, 50_000_000).unwrap();
//! assert_eq!(result.output.len(), 8); // the program's checksum
//! ```

pub mod gen;
pub mod profiles;

pub use gen::{generate, SynthBinary};
pub use profiles::{
    all_profiles, browser_profiles, spec_profiles, system_profiles, Mix, PaperRow, Preset, Profile,
    DEFAULT_SCALE, DROMAEO_KERNELS,
};

/// Generate the Dromaeo-style DOM kernel for Figure 4: sub-benchmark
/// `kernel` of `browser` (each kernel varies the seed and leans on the
/// browser mix — pointer-chasing stores and queries).
pub fn dromaeo_kernel(browser: &str, kernel: &str) -> Profile {
    let mut p = Profile::tiny(&format!("{browser}.{kernel}"), true);
    p.mix = Preset::Browser.mix();
    p.funcs = 10;
    p.blocks_per_fn = (3, 7);
    p.loop_iters = 8;
    p.switch_pct = 40;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dromaeo_kernels_are_distinct_and_runnable() {
        let a = generate(&dromaeo_kernel("chrome", "Attrib"));
        let b = generate(&dromaeo_kernel("chrome", "Modify"));
        assert_ne!(a.binary, b.binary);
        let r = e9vm::run_binary(&a.binary, 50_000_000).unwrap();
        assert_eq!(r.output.len(), 8);
    }
}
