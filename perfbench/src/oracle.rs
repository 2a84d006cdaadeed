//! Output oracle, run outside the timed phase: every distinct job is
//! rewritten once more in-process as the reference, the reference is
//! checked by the static verifier and (where e9vm can load the row) by a
//! differential run, and every output the timed phase produced for that
//! job must be byte-identical to the reference.

use crate::inputs::{Job, Kind, Row};
use e9patch::RewriteOutput;
use e9vm::{load_elf, LoadError, RunResult, Vm};

/// Emulation step cap per run.
const MAX_STEPS: u64 = 2_000_000_000;

/// What the oracle found for one distinct job.
pub struct Checked {
    pub digest: e9cache::Digest,
    /// Failure reason; `None` when every check passed.
    pub error: Option<String>,
    pub stats: e9patch::PatchStats,
    pub size: e9patch::SizeStats,
    /// e9vm costs (original, patched minus loader start-up, loader), when
    /// the row loads in e9vm.
    pub vm: Option<(u64, u64, u64)>,
}

/// Why e9vm did not run a binary to completion.
pub enum VmFail {
    /// The loader refused a segment too large to map (the `.bss` of rows
    /// such as gamess): the only reason a row may skip the differential run.
    TooBig(e9vm::LoadError),
    /// Any other load error, a guest fault or the step cap.
    Failed(String),
}

impl std::fmt::Display for VmFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmFail::TooBig(e) => e.fmt(f),
            VmFail::Failed(e) => f.write_str(e),
        }
    }
}

/// Run `binary` in e9vm. With `main_entry`, the cost spent before control
/// first reaches it (the injected loader's mapping loop) is split off and
/// returned second.
pub fn run_vm(binary: &[u8], main_entry: Option<u64>) -> Result<(RunResult, u64), VmFail> {
    let mut vm = Vm::new();
    load_elf(&mut vm, binary).map_err(|e| match e {
        LoadError::SegmentTooBig { .. } => VmFail::TooBig(e),
        e => VmFail::Failed(e.to_string()),
    })?;
    let failed = |e: e9vm::VmError| VmFail::Failed(e.to_string());
    let mut startup = 0;
    if let Some(entry) = main_entry {
        while vm.cpu.rip != entry {
            vm.step().map_err(failed)?;
            if vm.steps >= MAX_STEPS {
                return Err(VmFail::Failed(
                    "loader never reached the entry point".into(),
                ));
            }
        }
        startup = vm.steps;
    }
    let mut r = vm.run(MAX_STEPS).map_err(failed)?;
    r.steps -= startup;
    Ok((r, startup))
}

/// The in-process reference rewrite of `job`, through the front-end
/// functions of the paper's Table 1 path.
pub fn reference(row: &Row, kind: Kind) -> Result<(RewriteOutput, usize), String> {
    let bin = &row.sb.binary;
    let disasm = e9front::disassemble_text(bin).map_err(|e| e.to_string())?;
    match crate::instrument_options(kind) {
        Some(opts) => e9front::instrument_with_disasm(bin, &disasm, &opts)
            .map(|o| (o.rewrite, o.sites))
            .map_err(|e| e.to_string()),
        None => e9front::hook_with_disasm(bin, &disasm, &crate::hook_spec(), Default::default())
            .map(|h| (h.rewrite, h.hooks.len()))
            .map_err(|e| e.to_string()),
    }
}

/// Check one distinct job. `original` is the row's own e9vm run. A row
/// whose `.bss` e9vm will not map (`SegmentTooBig`, such as gamess) is
/// checked by the static verifier alone; any other failure of the
/// original run fails the job.
pub fn check(row: &Row, job: Job, original: &Result<RunResult, VmFail>) -> Checked {
    let (out, _) = match reference(row, job.kind) {
        Ok(r) => r,
        Err(e) => {
            return Checked {
                digest: [0; 32],
                error: Some(format!("reference rewrite failed: {e}")),
                stats: Default::default(),
                size: Default::default(),
                vm: None,
            }
        }
    };
    let mut checked = Checked {
        digest: e9cache::digest(&out.binary),
        error: None,
        stats: out.stats,
        size: out.size,
        vm: None,
    };
    if let Err(e) = verify(&row.sb.binary, &out) {
        checked.error = Some(format!("verifier: {e}"));
        return checked;
    }
    let orig = match original {
        Ok(orig) => orig,
        Err(VmFail::TooBig(_)) => return checked,
        Err(e) => {
            checked.error = Some(format!("original run failed: {e}"));
            return checked;
        }
    };
    match run_vm(&out.binary, Some(row.sb.entry)) {
        Ok((patched, loader))
            if patched.output == orig.output && patched.exit_code == orig.exit_code =>
        {
            checked.vm = Some((orig.steps, patched.steps, loader));
        }
        Ok(_) => checked.error = Some("patched run diverged from the original".into()),
        Err(e) => checked.error = Some(format!("patched run failed: {e}")),
    }
    checked
}

fn verify(original: &[u8], out: &RewriteOutput) -> Result<(), String> {
    let orig = e9elf::Elf::parse(original).map_err(|e| e.to_string())?;
    let patched = e9elf::Elf::parse(&out.binary).map_err(|e| e.to_string())?;
    let disasm = e9front::disassemble_text(original).map_err(|e| e.to_string())?;
    e9patch::verify::verify(&orig, &patched, &disasm, &out.mappings, &out.reports)
        .map(|_| ())
        .map_err(|v| format!("{} violations, first: {}", v.len(), v[0]))
}
