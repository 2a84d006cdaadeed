//! The synthetic program generator.
//!
//! Emits real, runnable x86-64 programs from a [`Profile`]: a DAG of
//! functions (calls only go to higher indices — no recursion), bounded
//! per-function loops, a global *fuel* counter bounding total dynamic work,
//! jump-table switches (indirect control flow no static analysis could
//! recover), and a seeded statement mix that produces realistic
//! instruction-length and successor-byte diversity — the raw material the
//! pun tactics feed on.
//!
//! Register convention inside generated code:
//!
//! | register | role |
//! |----------|------|
//! | `rbx`    | heap buffer base (set once in `main`) |
//! | `r12`    | global checksum accumulator |
//! | `r13`    | per-function loop counter (callee-saved) |
//! | `r14`    | jump-table base (scratch) |
//! | others   | block-local scratch, re-seeded after calls |

use crate::profiles::Profile;
use e9elf::build::ElfBuilder;
use e9rng::StdRng;
use e9x86::asm::{Asm, Label, Mem};
use e9x86::insn::{Cond, Insn};
use e9x86::reg::{Reg, Width};

/// A generated benchmark binary plus its disassembly information.
#[derive(Debug, Clone)]
pub struct SynthBinary {
    /// The ELF file image.
    pub binary: Vec<u8>,
    /// Disassembly info for the code region (the rewriter's input).
    pub disasm: Vec<Insn>,
    /// Entry point.
    pub entry: u64,
    /// `.text` load address.
    pub text_vaddr: u64,
    /// Bytes of actual code (the jump tables that follow are excluded
    /// from `disasm`).
    pub code_len: usize,
}

const HEAP_BYTES: u64 = 4096;
const SCRATCH: [Reg; 7] = [
    Reg::Rax,
    Reg::Rcx,
    Reg::Rdx,
    Reg::Rsi,
    Reg::Rdi,
    Reg::R8,
    Reg::R9,
];

struct Gen<'a> {
    a: Asm,
    rng: StdRng,
    p: &'a Profile,
    fn_labels: Vec<Label>,
    /// Deferred jump tables: (table label, case labels).
    tables: Vec<(Label, Vec<Label>)>,
    fuel_addr: u64,
    seeded: [bool; SCRATCH.len()],
}

impl<'a> Gen<'a> {
    fn pick_scratch(&mut self) -> (usize, Reg) {
        let i = self.rng.gen_range(0..SCRATCH.len());
        (i, SCRATCH[i])
    }

    /// A scratch register guaranteed to hold a deterministic value.
    fn seeded_scratch(&mut self) -> Reg {
        let (i, r) = self.pick_scratch();
        if !self.seeded[i] {
            // Derive from the global accumulator — deterministic.
            self.a.mov_rr(Width::Q, r, Reg::R12);
            self.seeded[i] = true;
        }
        r
    }

    fn invalidate_scratch(&mut self) {
        self.seeded = [false; SCRATCH.len()];
    }

    /// One random straight-line statement.
    fn stmt(&mut self) {
        let m = self.p.mix;
        let total = m.arith + m.longmov + m.heap_write + m.heap_read + m.stack + m.lea + m.branch;
        let mut pick = self.rng.gen_range(0..total);
        let mut take = |w: u32| {
            if pick < w {
                true
            } else {
                pick -= w;
                false
            }
        };
        if take(m.arith) {
            let dst = self.seeded_scratch();
            let w = if self.rng.gen_bool(0.6) {
                Width::Q
            } else {
                Width::D
            };
            match self.rng.gen_range(0..6) {
                0 => {
                    let src = self.seeded_scratch();
                    self.a.add_rr(w, dst, src);
                }
                1 => {
                    let src = self.seeded_scratch();
                    self.a.xor_rr(w, dst, src);
                }
                2 => self.a.add_ri(w, dst, self.rng.gen_range(1..1000)),
                3 => {
                    let src = self.seeded_scratch();
                    self.a.imul_rr(Width::Q, dst, src);
                }
                4 => self.a.shl_ri(w, dst, self.rng.gen_range(1..5)),
                _ => {
                    let src = self.seeded_scratch();
                    self.a.sub_rr(w, dst, src);
                }
            }
            // Fold into the accumulator now and then.
            if self.rng.gen_bool(0.3) {
                self.a.add_rr(Width::Q, Reg::R12, dst);
            }
        } else if take(m.longmov) {
            let (i, dst) = self.pick_scratch();
            self.a.mov_ri64(dst, self.rng.gen::<i64>());
            self.seeded[i] = true;
            self.a.add_rr(Width::Q, Reg::R12, dst);
        } else if take(m.heap_write) {
            let idx = self.seeded_scratch();
            self.a.and_ri(Width::Q, idx, 0xFF);
            let src = self.seeded_scratch();
            let disp = self.rng.gen_range(0..8) * 8;
            let mem = Mem::base_index(Reg::Rbx, idx, 8, disp);
            match self.rng.gen_range(0..5) {
                0 => self.a.mov_mr(Width::Q, mem, src),
                1 => self.a.mov_mr(Width::D, mem, src),
                2 => self.a.add_mr(Width::Q, mem, src),
                3 => self
                    .a
                    .mov_mi(Width::D, mem, self.rng.gen_range(0..1_000_000)),
                _ => self.a.inc_m(Width::Q, mem),
            }
        } else if take(m.heap_read) {
            let idx = self.seeded_scratch();
            self.a.and_ri(Width::Q, idx, 0xFF);
            let (di, dst) = self.pick_scratch();
            let disp = self.rng.gen_range(0..8) * 8;
            let mem = Mem::base_index(Reg::Rbx, idx, 8, disp);
            if self.rng.gen_bool(0.3) {
                self.a.movzx_b(dst, mem);
            } else {
                self.a.mov_rm(Width::Q, dst, mem);
            }
            self.seeded[di] = true;
            self.a.add_rr(Width::Q, Reg::R12, dst);
        } else if take(m.stack) {
            // push/pop pair — two single-byte instructions (L2 fodder).
            let r = self.seeded_scratch();
            self.a.push_r(r);
            self.a.pop_r(r);
        } else if take(m.lea) {
            let src = self.seeded_scratch();
            let (di, dst) = self.pick_scratch();
            self.a
                .lea(dst, Mem::base_disp(src, self.rng.gen_range(-64..256)));
            self.seeded[di] = true;
        } else {
            // Extra branch over the next statement. Seed the target
            // register *before* the branch — a seed emitted inside the
            // skipped region would leave the register holding pre-entry
            // garbage on the taken path.
            let dst = self.seeded_scratch();
            let r = self.seeded_scratch();
            let skip = self.a.fresh_label();
            self.a.cmp_ri(Width::Q, r, self.rng.gen_range(0..64));
            let cond = Cond::from_nibble(self.rng.gen_range(0..16));
            if self.rng.gen_bool(0.35) {
                self.a.jcc_short(cond, skip);
            } else {
                self.a.jcc(cond, skip);
            }
            self.a.add_ri(Width::Q, dst, 1);
            self.a.bind(skip);
        }
    }

    fn emit_switch(&mut self) {
        let k = 4usize;
        let table = self.a.fresh_label();
        let cases: Vec<Label> = (0..k).map(|_| self.a.fresh_label()).collect();
        let join = self.a.fresh_label();
        let idx = self.seeded_scratch();
        self.a.and_ri(Width::Q, idx, (k - 1) as i32);
        self.a.mov_rlabel(Reg::R14, table);
        self.a.jmp_ind_m(Mem::base_index(Reg::R14, idx, 8, 0));
        for (c, case) in cases.iter().enumerate() {
            self.a.bind(*case);
            self.a.add_ri(Width::Q, Reg::R12, (c as i32 + 1) * 3);
            self.a.jmp(join);
        }
        self.a.bind(join);
        self.tables.push((table, cases));
        self.invalidate_scratch(); // idx/r14 now stale conventions
    }

    fn emit_function(&mut self, i: usize) {
        self.a.bind(self.fn_labels[i]);
        let out = self.a.fresh_label();
        // Fuel gate: decrement the global budget; skip the body once
        // exhausted (bounds total dynamic work over any call structure).
        self.a.mov_ri64(Reg::Rax, self.fuel_addr as i64);
        self.a.inc_m(Width::Q, Mem::base_disp(Reg::Rax, 8)); // call count
        self.a.raw(&[0x48, 0xFF, 0x08]); // decq (%rax)
        self.a.jcc(Cond::S, out);

        self.a.push_r(Reg::R13);
        let loop_head = self.a.fresh_label();
        self.a.mov_ri32(Reg::R13, self.p.loop_iters);
        self.a.bind(loop_head);
        self.invalidate_scratch();

        let nblocks = self
            .rng
            .gen_range(self.p.blocks_per_fn.0..=self.p.blocks_per_fn.1);
        let block_labels: Vec<Label> = (0..nblocks).map(|_| self.a.fresh_label()).collect();
        let has_switch = self.rng.gen_range(0u32..100) < self.p.switch_pct;
        let switch_at = if has_switch && nblocks > 1 {
            Some(self.rng.gen_range(0..nblocks))
        } else {
            None
        };

        for b in 0..nblocks {
            self.a.bind(block_labels[b]);
            let nstmts = self
                .rng
                .gen_range(self.p.stmts_per_block.0..=self.p.stmts_per_block.1);
            for _ in 0..nstmts {
                self.stmt();
            }
            if Some(b) == switch_at {
                self.emit_switch();
            }
            if self.rng.gen_range(0u32..100) < self.p.call_pct && i + 1 < self.fn_labels.len() {
                let j = self.rng.gen_range(i + 1..self.fn_labels.len());
                let callee = self.fn_labels[j];
                if self.rng.gen_bool(0.25) {
                    // Indirect call through a function-pointer table —
                    // control flow no static analysis could recover, like
                    // C++ virtual dispatch.
                    let k = (self.fn_labels.len() - (i + 1)).min(4);
                    let callees: Vec<Label> = (0..k)
                        .map(|_| self.fn_labels[self.rng.gen_range(i + 1..self.fn_labels.len())])
                        .collect();
                    let tbl = self.a.fresh_label();
                    let idx = self.seeded_scratch();
                    self.a.and_ri(Width::Q, idx, (k - 1) as i32);
                    self.a.mov_rlabel(Reg::R14, tbl);
                    self.a
                        .mov_rm(Width::Q, Reg::R14, Mem::base_index(Reg::R14, idx, 8, 0));
                    self.a.call_ind_r(Reg::R14);
                    self.tables.push((tbl, callees));
                } else {
                    self.a.call(callee);
                }
                self.invalidate_scratch();
                self.a.add_rr(Width::Q, Reg::R12, Reg::Rax);
            }
            // Terminator: conditional branch forward.
            if b + 1 < nblocks {
                let r = self.seeded_scratch();
                self.a.cmp_ri(Width::Q, r, self.rng.gen_range(0..100));
                let cond = Cond::from_nibble(self.rng.gen_range(0..16));
                if self.rng.gen_bool(0.5) {
                    // Short form to the immediately following block.
                    self.a.jcc_short(cond, block_labels[b + 1]);
                } else {
                    // Near form, possibly skipping a block.
                    let tgt = if b + 2 < nblocks && self.rng.gen_bool(0.3) {
                        block_labels[b + 2]
                    } else {
                        block_labels[b + 1]
                    };
                    self.a.jcc(cond, tgt);
                }
                self.invalidate_scratch();
            }
        }

        // Loop back edge.
        self.a.sub_ri(Width::Q, Reg::R13, 1);
        self.a.jcc(Cond::Ne, loop_head);
        self.a.pop_r(Reg::R13);
        self.a.bind(out);
        self.a.mov_rr(Width::Q, Reg::Rax, Reg::R12);
        self.a.ret();
        self.invalidate_scratch();
    }
}

/// Generate the synthetic binary for `profile`.
///
/// The layout is: `.text` = `main` + all functions + (page-aligned) jump
/// tables; `.data` = fuel cell + call counter; optional `.bss` for the
/// limitation-L1 profiles.
pub fn generate(profile: &Profile) -> SynthBinary {
    let base = if profile.pie {
        0x5555_5555_4000
    } else {
        0x400000
    };
    let text_vaddr = base + 0x1000;

    // Rough text-size bound to place .data after it.
    // (Measured ~55 bytes/stmt worst case; generous.)
    let mut g = Gen {
        a: Asm::new(text_vaddr),
        rng: StdRng::seed_from_u64(profile.seed),
        p: profile,
        fn_labels: Vec::new(),
        tables: Vec::new(),
        fuel_addr: 0, // patched below once data vaddr is known
        seeded: [false; SCRATCH.len()],
    };

    // We need the data address before emitting code; estimate the text
    // extent generously and verify after generation.
    let est_stmts = profile.funcs * profile.blocks_per_fn.1 * (profile.stmts_per_block.1 + 6);
    let est_text = (est_stmts * 40 + 4096) as u64;
    let data_vaddr = e9elf::page_ceil(text_vaddr + est_text) + e9elf::PAGE_SIZE;
    g.fuel_addr = data_vaddr;

    g.fn_labels = (0..profile.funcs).map(|_| g.a.fresh_label()).collect();

    // ---- main -----------------------------------------------------------
    let entry = g.a.here();
    g.a.mov_ri32(Reg::R12, 0);
    g.a.mov_ri64(Reg::Rax, 0xE901); // SYS_MALLOC
    g.a.mov_ri32(Reg::Rdi, HEAP_BYTES as u32);
    g.a.syscall();
    g.a.mov_rr(Width::Q, Reg::Rbx, Reg::Rax);
    // Call a few roots; the DAG fans out from there under the fuel bound.
    let roots = profile.funcs.min(3);
    for r in 0..roots {
        let label = g.fn_labels[r];
        g.a.call(label);
        g.a.add_rr(Width::Q, Reg::R12, Reg::Rax);
    }
    // write(1, &r12, 8)
    g.a.push_r(Reg::R12);
    g.a.mov_rr(Width::Q, Reg::Rsi, Reg::Rsp);
    g.a.mov_ri32(Reg::Rax, 1);
    g.a.mov_ri32(Reg::Rdi, 1);
    g.a.mov_ri32(Reg::Rdx, 8);
    g.a.syscall();
    g.a.pop_r(Reg::R12);
    // exit(r12 & 0x7F)
    g.a.mov_rr(Width::Q, Reg::Rdi, Reg::R12);
    g.a.and_ri(Width::Q, Reg::Rdi, 0x7F);
    g.a.mov_ri32(Reg::Rax, 60);
    g.a.syscall();

    // ---- functions -------------------------------------------------------
    // `ranges` records the (offset, len) extents of real code; data blobs
    // interleaved between functions (the §6.2 Chrome wrinkle) fall outside
    // every range.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut range_start = 0usize;
    let mut symbols = vec![e9elf::symbols::Symbol {
        name: "main".into(),
        value: entry,
        size: 0,
    }];
    for i in 0..profile.funcs {
        let fn_start = g.a.here();
        g.emit_function(i);
        symbols.push(e9elf::symbols::Symbol {
            name: format!("f{i:04}"),
            value: fn_start,
            size: g.a.here() - fn_start,
        });
        if profile.data_in_text && g.rng.gen_bool(0.25) {
            // End the current code range, splice in a data blob.
            ranges.push((range_start, g.a.len() - range_start));
            let blob_len = g.rng.gen_range(8..64usize);
            let blob: Vec<u8> = (0..blob_len).map(|_| g.rng.gen()).collect();
            g.a.raw(&blob);
            range_start = g.a.len();
        }
    }
    // Trailing alignment pad so end-of-text sites still have pun bytes.
    g.a.nops(16);

    let code_len = g.a.len();
    ranges.push((range_start, code_len - range_start));

    // ---- jump tables (data-in-text tail, excluded from disassembly) ----
    while !g.a.len().is_multiple_of(8) {
        g.a.raw(&[0]);
    }
    let tables = std::mem::take(&mut g.tables);
    for (table, cases) in tables {
        g.a.bind(table);
        for c in cases {
            g.a.dq_label(c);
        }
    }

    let code = g.a.finish().expect("generator assembly");
    assert!(
        (text_vaddr + code.len() as u64) < data_vaddr,
        "text overflowed its estimate: {} vs {}",
        code.len(),
        est_text
    );

    let mut disasm = Vec::new();
    let mut code_bytes = 0usize;
    for &(off, len) in &ranges {
        let first = disasm.len();
        e9x86::decode::linear_sweep_into(
            &code[off..off + len],
            text_vaddr + off as u64,
            &mut disasm,
        );
        let decoded: usize = disasm[first..].iter().map(|x| x.len()).sum();
        assert_eq!(decoded, len, "generated code has undecodable gaps");
        code_bytes += len;
    }
    debug_assert!(code_bytes <= code_len);

    // .data: fuel + call counter.
    let fuel = fuel_for(profile);
    let mut data = Vec::new();
    data.extend_from_slice(&fuel.to_le_bytes());
    data.extend_from_slice(&0u64.to_le_bytes());

    let mut b = if profile.pie {
        ElfBuilder::pie(base)
    } else {
        ElfBuilder::exec(base)
    };
    b.text(code, text_vaddr);
    // Record the true code extents (interleaved data blobs and the jump
    // tables at the .text tail are data); frontends use this to bound
    // their linear sweeps. Format: n × (vaddr u64, len u64).
    let mut note = Vec::with_capacity(ranges.len() * 16);
    for &(off, len) in &ranges {
        note.extend_from_slice(&(text_vaddr + off as u64).to_le_bytes());
        note.extend_from_slice(&(len as u64).to_le_bytes());
    }
    b.note(".note.e9code", note);
    // Function symbols (real binaries often have them; the paper's tool
    // works without, but frontends may exploit them).
    let (symtab, strtab) = e9elf::symbols::encode(&symbols);
    b.note(".symtab", symtab);
    b.note(".strtab", strtab);
    b.data(data, data_vaddr);
    if profile.bss_bytes > 0 {
        let bss_vaddr = e9elf::page_ceil(data_vaddr + 0x1000) + e9elf::PAGE_SIZE;
        b.bss(profile.bss_bytes, bss_vaddr);
    }
    b.entry(entry);

    SynthBinary {
        binary: b.build(),
        disasm,
        entry,
        text_vaddr,
        code_len,
    }
}

/// Dynamic work budget: enough to touch a spread of functions without
/// letting big profiles run for minutes in the interpreter.
fn fuel_for(profile: &Profile) -> u64 {
    (profile.funcs as u64 * 2).clamp(200, 4000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{Preset, Profile};

    fn tiny() -> Profile {
        Profile::tiny("testprog", false)
    }

    #[test]
    fn generates_and_runs() {
        let sb = generate(&tiny());
        let r = e9vm::run_binary(&sb.binary, 50_000_000).expect("run");
        assert_eq!(r.output.len(), 8, "checksum written to stdout");
    }

    #[test]
    fn deterministic() {
        let a = generate(&tiny());
        let b = generate(&tiny());
        assert_eq!(a.binary, b.binary);
        let ra = e9vm::run_binary(&a.binary, 50_000_000).unwrap();
        let rb = e9vm::run_binary(&b.binary, 50_000_000).unwrap();
        assert_eq!(ra.output, rb.output);
        assert_eq!(ra.insns, rb.insns);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&Profile::tiny("one", false));
        let b = generate(&Profile::tiny("two", false));
        assert_ne!(a.binary, b.binary);
    }

    #[test]
    fn disasm_covers_code_exactly() {
        let sb = generate(&tiny());
        let end = sb.disasm.last().map(|i| i.end()).unwrap();
        assert_eq!(end, sb.text_vaddr + sb.code_len as u64);
    }

    #[test]
    fn has_a1_and_a2_sites() {
        let sb = generate(&tiny());
        let a1 = sb.disasm.iter().filter(|i| i.kind.is_jump()).count();
        let a2 = sb.disasm.iter().filter(|i| i.is_heap_write()).count();
        assert!(a1 >= 5, "a1={a1}");
        assert!(a2 >= 3, "a2={a2}");
    }

    #[test]
    fn switches_emit_indirect_jumps() {
        let mut p = tiny();
        p.switch_pct = 100;
        p.funcs = 6;
        let sb = generate(&p);
        assert!(
            sb.disasm.iter().any(|i| i.kind == e9x86::Kind::JmpInd),
            "no indirect jumps despite switch_pct=100"
        );
        // And the binary still runs.
        let r = e9vm::run_binary(&sb.binary, 50_000_000).unwrap();
        assert_eq!(r.output.len(), 8);
    }

    #[test]
    fn pie_profile_loads_high() {
        let sb = generate(&Profile::tiny("pietest", true));
        assert!(sb.text_vaddr > 0x5000_0000_0000);
        let r = e9vm::run_binary(&sb.binary, 50_000_000).expect("run");
        assert_eq!(r.output.len(), 8);
    }

    #[test]
    fn scaled_profile_hits_site_target() {
        let p = Profile::scaled(
            "sized",
            false,
            Preset::Int,
            crate::profiles::PaperRow {
                size_mb: 1.0,
                a1_loc: 36821,
                a2_loc: 7522,
                a1_succ: 100.0,
                a2_succ: 100.0,
            },
            50,
            0,
            4,
        );
        let sb = generate(&p);
        let a1 = sb.disasm.iter().filter(|i| i.kind.is_jump()).count() as f64;
        let target = (36821 / 50) as f64;
        assert!(
            a1 > target * 0.4 && a1 < target * 3.0,
            "a1 sites {a1} vs target {target}"
        );
    }

    #[test]
    fn bss_profile_reserves_memory() {
        let mut p = tiny();
        p.bss_bytes = 0x100000;
        let sb = generate(&p);
        let elf = e9elf::Elf::parse(&sb.binary).unwrap();
        let (_, hi) = elf.vaddr_extent();
        let (_, hi_nobss) = e9elf::Elf::parse(&generate(&tiny()).binary)
            .unwrap()
            .vaddr_extent();
        assert!(hi > hi_nobss);
        // Still runs.
        let r = e9vm::run_binary(&sb.binary, 50_000_000).expect("run");
        assert_eq!(r.output.len(), 8);
    }
}
