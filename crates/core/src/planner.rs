//! The tactic engine: B1/B2/T1 punned jumps, T2 successor eviction, T3
//! neighbour eviction, with strategy S1 (reverse-order patching over a byte
//! lock map).
//!
//! The planner owns the in-place-patched image and mutates four pieces of
//! state as it commits tactics: the ELF byte image, the [`LockMap`], the
//! trampoline [`AddressSpace`] and the trampoline arena. A tactic first
//! finds every trampoline address it needs (T3 computes its second jump
//! against a byte overlay on the stack), then builds the trampolines onto
//! the end of the arena, and only then commits: a failed attempt truncates
//! the arena back to where it began, and each placed trampoline reserves
//! exactly its built bytes.
//!
//! Every trampoline of a rewrite lives in the one arena `Vec<u8>`; a
//! placed trampoline is its `(vaddr, start, len)` there. With punned
//! jumps encoded on the stack, the tactic loop allocates nothing per
//! site.

use crate::error::Error;
use crate::layout::{AddressSpace, Window, MAX_ADDR, MIN_ADDR};
use crate::lock::LockMap;
use crate::pun::PunJump;
use crate::stats::{PatchStats, TacticKind};
use crate::trampoline::{self, Template};
use e9elf::{Elf, PAGE_SIZE};
use e9x86::insn::Insn;
use std::borrow::Cow;

/// A single patch request: divert the instruction at `addr` through a
/// trampoline built from `template`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchRequest {
    /// Address of the patch-location instruction.
    pub addr: u64,
    /// Trampoline payload.
    pub template: Template,
}

/// Which tactics the planner may use (the ablation knob for experiment E5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tactics {
    /// Padded jumps (§3.1).
    pub t1: bool,
    /// Successor eviction (§3.2).
    pub t2: bool,
    /// Neighbour eviction (§3.3).
    pub t3: bool,
}

impl Tactics {
    /// Everything enabled (the paper's default configuration).
    pub fn all() -> Tactics {
        Tactics {
            t1: true,
            t2: true,
            t3: true,
        }
    }

    /// Baseline B1/B2 only.
    pub fn base_only() -> Tactics {
        Tactics {
            t1: false,
            t2: false,
            t3: false,
        }
    }
}

/// Where within a pun window trampolines are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// First fit from the window bottom (packs trampolines densely — the
    /// default, and what E9Patch effectively does).
    #[default]
    FirstFitLow,
    /// First fit from the window top (scatters trampolines — an ablation
    /// for the fragmentation/grouping experiments).
    FirstFitHigh,
}

/// Rewriter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteConfig {
    /// Enabled tactic set.
    pub tactics: Tactics,
    /// Fall back to `int3` trap patching (B0) when every tactic fails.
    pub b0_fallback: bool,
    /// Physical page grouping granularity `M` in pages (§4).
    pub granularity: u64,
    /// Enable physical page grouping (disable for the naïve one-to-one
    /// ablation, experiment E4).
    pub grouping: bool,
    /// Trampoline placement policy within pun windows.
    pub alloc_policy: AllocPolicy,
    /// Unused: no product path reads or sets it. Planning and input
    /// hashing are sequential, so a worker count has nothing to size. It
    /// stays only because the end-to-end benchmark reads it; the wire's
    /// `option jobs` is accepted and ignored.
    pub jobs: Option<usize>,
}

/// The largest granularity `M` whose block of `M` pages fits the usable
/// address space (`layout::MAX_ADDR - layout::MIN_ADDR`).
pub const MAX_GRANULARITY: u64 = (MAX_ADDR - MIN_ADDR) / PAGE_SIZE;

impl RewriteConfig {
    /// Reject configurations the rewriter cannot run: a granularity of
    /// zero, or one whose `M`-page block does not fit the usable address
    /// space. [`Rewriter::rewrite`](crate::Rewriter::rewrite) runs this
    /// first, and the wire decoder runs it on `option granularity`.
    ///
    /// # Errors
    ///
    /// [`Error::Granularity`] naming the rejected value.
    pub fn check(&self) -> crate::error::Result<()> {
        match self.granularity {
            1..=MAX_GRANULARITY => Ok(()),
            m => Err(Error::Granularity(m)),
        }
    }
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            tactics: Tactics::all(),
            b0_fallback: false,
            granularity: 1,
            grouping: true,
            alloc_policy: AllocPolicy::default(),
            jobs: None,
        }
    }
}

/// Margin used when constraining trampoline placement so rel32 hops back to
/// the original code always encode (slack below the 2 GiB line covers the
/// trampoline body length).
const REACH: i128 = 0x7FFF_0000;

/// Per-site patching outcome (the structured form of a Table 1 row's
/// provenance; surfaced by `e9tool patch --report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteReport {
    /// Patch-location address.
    pub addr: u64,
    /// Length of the original instruction.
    pub insn_len: u8,
    /// Tactic that succeeded (`None` = site left unpatched).
    pub tactic: Option<crate::stats::TacticKind>,
    /// Address of the patch trampoline, when one was placed.
    pub trampoline: Option<u64>,
}

/// The planner: processes patch requests highest-address-first.
#[derive(Debug)]
pub struct Planner<'a> {
    /// The image, patched in place.
    pub(crate) elf: Elf,
    /// The disassembly, sorted by address with one entry per address.
    insns: Cow<'a, [Insn]>,
    /// Byte lock state (S1).
    pub locks: LockMap,
    /// Trampoline address-space allocator.
    pub(crate) space: AddressSpace,
    /// The bytes of every placed trampoline, back to back.
    pub(crate) arena: Vec<u8>,
    /// Placed trampolines: `(vaddr, start, len)`, their bytes being
    /// `arena[start..start + len]`.
    pub(crate) trampolines: Vec<(u64, usize, usize)>,
    /// Outcome counters.
    pub stats: PatchStats,
    /// B0 trap registrations: `(site, trampoline)`.
    pub(crate) traps: Vec<(u64, u64)>,
    /// Per-site outcomes, in processing order.
    pub(crate) reports: Vec<SiteReport>,
    cfg: RewriteConfig,
}

impl<'a> Planner<'a> {
    /// The address space trampolines may use for `elf`: everything except
    /// the binary's own (guard-padded) load segments and the caller's
    /// extra `reserved` ranges, rounded out to block granularity.
    ///
    /// `reserved` lists extra `[start, end)` virtual ranges trampolines must
    /// avoid (instrumentation runtime segments, etc.).
    ///
    /// # Errors
    ///
    /// [`Error::BeyondAddressSpace`] for a load segment or reserved range
    /// that ends past [`MAX_ADDR`], which hostile images use to wrap the
    /// rounding below. Everything else about the segments was checked by
    /// [`Elf::parse`].
    fn initial_space(
        elf: &Elf,
        cfg: &RewriteConfig,
        reserved: &[(u64, u64)],
    ) -> crate::error::Result<AddressSpace> {
        // Reservations are rounded out to *block* granularity (M pages):
        // the loader later maps whole blocks with MAP_FIXED, so no block
        // containing a trampoline may overlap existing segments.
        let bs = cfg.granularity.max(1) * PAGE_SIZE;
        let block_floor = |v: u64| v / bs * bs;
        let block_ceil = |v: u64| v.div_ceil(bs) * bs;
        let checked_end = |start: u64, end: u64| match end {
            ..=MAX_ADDR => Ok(end),
            _ => Err(Error::BeyondAddressSpace(start)),
        };
        let mut space = AddressSpace::new();
        for p in elf.load_segments() {
            let end = checked_end(p.p_vaddr, p.p_vaddr + p.p_memsz)?;
            let start = block_floor(e9elf::page_floor(p.p_vaddr).saturating_sub(PAGE_SIZE));
            space.reserve(start, block_ceil(e9elf::page_ceil(end) + PAGE_SIZE));
        }
        for &(s, e) in reserved {
            let e = checked_end(s, e)?;
            space.reserve(block_floor(s), block_ceil(e));
        }
        Ok(space)
    }

    /// Create a planner over a parsed binary and its disassembly.
    ///
    /// `insns` is borrowed as is when it is sorted by address with one
    /// entry per address. Otherwise the planner sorts a copy, and where
    /// several entries share an address the last one wins.
    ///
    /// `reserved` lists extra `[start, end)` virtual ranges trampolines must
    /// avoid (instrumentation runtime segments, etc.).
    ///
    /// # Errors
    ///
    /// [`Error::BeyondAddressSpace`] when a load segment or reserved
    /// range ends past the usable address space.
    pub fn new(
        elf: Elf,
        insns: &'a [Insn],
        cfg: RewriteConfig,
        reserved: &[(u64, u64)],
    ) -> crate::error::Result<Planner<'a>> {
        let space = Self::initial_space(&elf, &cfg, reserved)?;
        let insns = e9x86::insn::by_address(insns);
        let backed: Vec<(u64, u64)> = elf
            .load_segments()
            .map(|p| (p.p_vaddr, p.p_vaddr + p.p_filesz))
            .collect();
        let locks = LockMap::over(&insns, &backed);
        Ok(Planner {
            elf,
            insns,
            locks,
            space,
            arena: Vec::new(),
            trampolines: Vec::new(),
            stats: PatchStats::default(),
            traps: Vec::new(),
            reports: Vec::new(),
            cfg,
        })
    }

    /// The instruction at `addr`, if the disassembly has one.
    fn insn_at(&self, addr: u64) -> Option<Insn> {
        let i = self.insns.partition_point(|x| x.addr < addr);
        self.insns.get(i).filter(|x| x.addr == addr).copied()
    }

    /// Read up to `n` file-backed bytes starting at `addr` (shorter at a
    /// segment boundary).
    fn bytes_at(&self, addr: u64, n: usize) -> Cow<'_, [u8]> {
        if let Ok(b) = self.elf.slice_at(addr, n) {
            return Cow::Borrowed(b);
        }
        let mut v = Vec::with_capacity(n);
        for i in 0..n as u64 {
            match self.elf.slice_at(addr + i, 1) {
                Ok(b) => v.push(b[0]),
                Err(_) => break,
            }
        }
        Cow::Owned(v)
    }

    /// Overwrite bytes that [`LockMap::can_write`] allowed, so each one
    /// is file-backed (a write across a segment boundary goes byte by
    /// byte).
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        if self.elf.write_at(addr, bytes).is_ok() {
            return;
        }
        for (a, b) in (addr..).zip(bytes) {
            self.elf
                .write_at(a, std::slice::from_ref(b))
                .expect("lock runs cover only file-backed bytes");
        }
    }

    /// Find room for a trampoline of up to `size` bytes inside `window`,
    /// clear of `taken`, per the configured placement policy. Nothing is
    /// reserved until [`Planner::place`].
    fn find(&mut self, window: Window, size: usize, taken: Option<(u64, u64)>) -> Option<u64> {
        let size = size as u64;
        match self.cfg.alloc_policy {
            AllocPolicy::FirstFitLow => self.space.find_in(window, size, 1, taken),
            AllocPolicy::FirstFitHigh => self.space.find_in_high(window, size, 1, taken),
        }
    }

    /// Build `template` for `insn` at `addr` onto the end of the arena,
    /// returning where it starts and its length. A failed build leaves
    /// the arena as it was.
    fn build(&mut self, template: &Template, insn: &Insn, addr: u64) -> Option<(usize, usize)> {
        let start = self.arena.len();
        let len = trampoline::build(template, insn, addr, &mut self.arena).ok()?;
        debug_assert!(len <= trampoline::max_size(template, insn));
        Some((start, len))
    }

    /// Commit the trampoline built at `arena[start..start + len]` for
    /// `addr`, reserving exactly its bytes.
    fn place(&mut self, addr: u64, (start, len): (usize, usize)) {
        self.space.reserve(addr, addr + len as u64);
        self.trampolines.push((addr, start, len));
    }

    /// Window around every address the trampoline must reach with rel32
    /// displacements; `None` if the targets are mutually unreachable.
    fn reach_window(insn: &Insn) -> Option<Window> {
        let fall_through = (!insn.kind.diverts()).then(|| insn.end());
        let rip_target = insn
            .modrm()
            .and_then(|m| m.mem)
            .filter(|mem| mem.rip_relative)
            .map(|mem| insn.end().wrapping_add(mem.disp as i64 as u64));
        let targets = [fall_through, insn.branch_target(), rip_target];
        // Structurally panic-free bounds fold: an empty target set means
        // the trampoline is unconstrained (e.g. `ret`), and a non-empty
        // one yields `[max - REACH, min + REACH)` without any `unwrap`.
        let bounds =
            targets
                .into_iter()
                .flatten()
                .fold(None, |acc: Option<(u64, u64)>, t| match acc {
                    None => Some((t, t)),
                    Some((min, max)) => Some((min.min(t), max.max(t))),
                });
        match bounds {
            None => Some(Window::all()),
            Some((min, max)) => Window::from_i128(max as i128 - REACH, min as i128 + REACH),
        }
    }

    /// Try to divert `insn` with a punned jump padded by `padding` prefix
    /// bytes, to a trampoline built from `template` within `reach`. On
    /// success commits bytes + locks + the trampoline and returns the pun
    /// used and the trampoline's address.
    fn place_pun(
        &mut self,
        insn: &Insn,
        padding: u8,
        reach: Window,
        template: &Template,
    ) -> Option<(PunJump, u64)> {
        let img = self.bytes_at(insn.addr, padding as usize + 5);
        let pun = PunJump::new(&img, insn.addr, insn.len() as u8, padding)?;
        let (ws, we) = pun.written_range();
        if !self.locks.can_write(ws, we - ws) {
            return None;
        }
        let window = pun.target_window()?.intersect(reach)?;
        let tramp = self.find(window, trampoline::max_size(template, insn), None)?;
        let built = self.build(template, insn, tramp)?;
        let jmp = pun.encode(tramp).expect("target inside pun window");
        self.write(insn.addr, &jmp);
        self.locks.lock_modified(ws, we - ws);
        let (ps, pe) = pun.punned_range();
        self.locks.lock_punned(ps, pe - ps);
        self.place(tramp, built);
        Some((pun, tramp))
    }

    /// B1/B2/T1 attempts over all paddings. Returns the tactic and the
    /// patch trampoline's address.
    fn try_pun_tactics(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
    ) -> Option<(TacticKind, u64)> {
        let max_pad = if self.cfg.tactics.t1 {
            insn.len() as u8
        } else {
            1
        };
        for padding in 0..max_pad {
            if let Some((pun, tramp)) = self.place_pun(insn, padding, reach, template) {
                let kind = if padding > 0 {
                    TacticKind::T1
                } else if pun.free >= 4 {
                    TacticKind::B1
                } else {
                    TacticKind::B2
                };
                return Some((kind, tramp));
            }
        }
        None
    }

    /// T2: evict the successor instruction so the patch site's pun bytes
    /// change, then re-run the pun tactics.
    fn try_t2(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
    ) -> Option<(TacticKind, u64)> {
        let succ = self.insn_at(insn.end())?;
        let s_reach = Self::reach_window(&succ)?;
        let evicted = (0..succ.len() as u8).any(|padding| {
            self.place_pun(&succ, padding, s_reach, &Template::Empty)
                .is_some()
        });
        if !evicted {
            return None;
        }
        // The successor's bytes are now a jump; re-pun the patch site.
        self.try_pun_tactics(insn, template, reach)
            .map(|(_, tramp)| (TacticKind::T2, tramp))
    }

    /// T3: neighbour eviction with a `J_short → J_patch → trampoline`
    /// double jump (and `J_victim` to an evictee trampoline). Returns the
    /// patch trampoline's address.
    fn try_t3(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
        size_ub: usize,
    ) -> Option<u64> {
        let addr = insn.addr;
        let len = insn.len() as u64;
        // Geometry of the short jump (S1 restricts rel8 to forward
        // offsets; single-byte patch sites get exactly one fixed target —
        // limitation L2).
        let (t_lo, t_hi, short_fixed) = if len >= 2 {
            if !self.locks.can_write(addr, 2) {
                return None;
            }
            (addr + 2, addr + 2 + 127, false)
        } else {
            if !self.locks.can_write(addr, 1) {
                return None;
            }
            let b = self.bytes_at(addr + 1, 1);
            let &rel = b.first()?;
            if rel >= 0x80 {
                return None; // backward rel8 — disallowed by S1
            }
            let t = addr + 2 + rel as u64;
            (t, t, true)
        };
        let first = self.insns.partition_point(|x| x.addr < addr + len);
        let last = self.insns.partition_point(|x| x.addr <= t_hi);
        for k in first..last {
            let victim = self.insns[k];
            let v_len = victim.len() as u64;
            for j in 1..v_len {
                let t = victim.addr + j;
                if t < t_lo || t > t_hi {
                    continue;
                }
                let tramp =
                    self.try_t3_with(insn, template, reach, size_ub, &victim, j, short_fixed);
                if tramp.is_some() {
                    return tramp;
                }
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn try_t3_with(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
        size_ub: usize,
        victim: &Insn,
        j: u64,
        short_fixed: bool,
    ) -> Option<u64> {
        let addr = insn.addr;
        let v_addr = victim.addr;
        let v_len = victim.len() as u64;
        let t = v_addr + j;

        // J_patch: punned jump written inside the victim at offset j.
        let img_t = self.bytes_at(t, 5);
        let jp = PunJump::new(&img_t, t, (v_len - j) as u8, 0)?;
        let (jp_ws, jp_we) = jp.written_range();
        if !self.locks.can_write(jp_ws, jp_we - jp_ws) {
            return None;
        }
        let jp_window = jp.target_window()?.intersect(reach)?;

        // J_victim: punned jump at the victim's first byte; its free rel32
        // bytes are the victim bytes before J_patch.
        let jv_write_len = 1 + (j - 1).min(4);
        if !self.locks.can_write(v_addr, jv_write_len) {
            return None;
        }
        let v_reach = Self::reach_window(victim)?;
        let v_ub = trampoline::max_size(&Template::Empty, victim);

        // Find the patch trampoline's address, which fixes J_patch's bytes.
        let tramp = self.find(jp_window, size_ub, None)?;
        let jp_bytes = jp.encode(tramp).expect("target inside pun window");

        // Overlay J_patch to compute J_victim's pun window, then find the
        // evictee trampoline's address clear of the patch trampoline's.
        // The overlay is at most `j + 5 <= 19` bytes (`j` lies inside an
        // instruction), so it lives on the stack.
        let mut overlay = [0u8; 19];
        let img = self.bytes_at(v_addr, (j + 5) as usize);
        let n = img.len();
        overlay[..n].copy_from_slice(&img);
        if n < 5 {
            return None;
        }
        let img_v = &mut overlay[..n];
        let at = (j as usize).min(n);
        let k = jp_bytes.len().min(n - at);
        img_v[at..at + k].copy_from_slice(&jp_bytes[..k]);
        let jv = PunJump::new(img_v, v_addr, j.min(255) as u8, 0)?;
        let jv_window = jv.target_window()?.intersect(v_reach)?;
        let evictee = self.find(jv_window, v_ub, Some((tramp, tramp + size_ub as u64)))?;

        // Build both trampolines once both addresses are found.
        let tramp_built = self.build(template, insn, tramp)?;
        let Some(ev_built) = self.build(&Template::Empty, victim, evictee) else {
            self.arena.truncate(tramp_built.0);
            return None;
        };
        let jv_bytes = jv.encode(evictee).expect("target inside pun window");

        // --- Commit ---------------------------------------------------
        self.write(t, &jp_bytes);
        let (jp_ws, jp_we) = jp.written_range();
        self.locks.lock_modified(jp_ws, jp_we - jp_ws);
        let (jp_ps, jp_pe) = jp.punned_range();
        self.locks.lock_punned(jp_ps, jp_pe - jp_ps);

        self.write(v_addr, &jv_bytes);
        let (jv_ws, jv_we) = jv.written_range();
        self.locks.lock_modified(jv_ws, jv_we - jv_ws);
        let (jv_ps, jv_pe) = jv.punned_range();
        self.locks.lock_punned(jv_ps, jv_pe - jv_ps);

        let rel8 = (t - (addr + 2)) as u8;
        if short_fixed {
            self.write(addr, &[e9x86::JMP_REL8_OPCODE]);
            self.locks.lock_modified(addr, 1);
            self.locks.lock_punned(addr + 1, 1);
        } else {
            self.write(addr, &[e9x86::JMP_REL8_OPCODE, rel8]);
            self.locks.lock_modified(addr, 2);
        }

        self.place(tramp, tramp_built);
        self.place(evictee, ev_built);
        Some(tramp)
    }

    /// B0 fallback: `int3` at the site, dispatched by the runtime's trap
    /// handler to the trampoline. Returns the trampoline's address.
    fn try_b0(
        &mut self,
        insn: &Insn,
        template: &Template,
        reach: Window,
        size_ub: usize,
    ) -> Option<u64> {
        if !self.locks.can_write(insn.addr, 1) {
            return None;
        }
        let tramp = self.find(reach, size_ub, None)?;
        let built = self.build(template, insn, tramp)?;
        self.write(insn.addr, &[e9x86::INT3_OPCODE]);
        self.locks.lock_modified(insn.addr, 1);
        self.traps.push((insn.addr, tramp));
        self.place(tramp, built);
        Some(tramp)
    }

    /// Patch one site, trying B1/B2 → T1 → T2 → T3 → (optional) B0 in
    /// order. Returns the tactic used, or `None` on failure (the site is
    /// left untouched and counted in the statistics).
    ///
    /// # Errors
    ///
    /// [`crate::Error::NoSuchInstruction`] if `addr` is not in the
    /// disassembly info; [`crate::Error::UnreachableTargets`] if the
    /// instruction's rel32 targets are so far apart that no trampoline
    /// address can reach them all (degenerate disassembly only — real
    /// instructions span well under the ±2 GiB reach).
    pub fn patch_site(
        &mut self,
        addr: u64,
        template: &Template,
    ) -> crate::error::Result<Option<TacticKind>> {
        let insn = self
            .insn_at(addr)
            .ok_or(crate::error::Error::NoSuchInstruction(addr))?;
        let Some(reach) = Self::reach_window(&insn) else {
            return Err(crate::error::Error::UnreachableTargets(addr));
        };

        let outcome = (|| {
            if let Some(k) = self.try_pun_tactics(&insn, template, reach) {
                return Some(k);
            }
            if self.cfg.tactics.t2 {
                if let Some(k) = self.try_t2(&insn, template, reach) {
                    return Some(k);
                }
            }
            let size_ub = trampoline::max_size(template, &insn);
            if self.cfg.tactics.t3 {
                if let Some(t) = self.try_t3(&insn, template, reach, size_ub) {
                    return Some((TacticKind::T3, t));
                }
            }
            if self.cfg.b0_fallback {
                if let Some(t) = self.try_b0(&insn, template, reach, size_ub) {
                    return Some((TacticKind::B0, t));
                }
            }
            None
        })();

        match outcome {
            Some((k, _)) => self.stats.record(k),
            None => self.stats.record_failure(),
        }
        self.reports.push(SiteReport {
            addr,
            insn_len: insn.len() as u8,
            tactic: outcome.map(|(k, _)| k),
            trampoline: outcome.map(|(_, t)| t),
        });
        Ok(outcome.map(|(k, _)| k))
    }

    /// Process a batch of requests in reverse address order (strategy S1).
    ///
    /// # Errors
    ///
    /// Fails on duplicate or unknown addresses; individual patch *failures*
    /// are recorded in [`Planner::stats`], not returned as errors.
    pub fn patch_all(&mut self, requests: &[PatchRequest]) -> crate::error::Result<()> {
        let mut sorted: Vec<&PatchRequest> = requests.iter().collect();
        sorted.sort_by_key(|r| std::cmp::Reverse(r.addr));
        for w in sorted.windows(2) {
            if w[0].addr == w[1].addr {
                return Err(crate::error::Error::DuplicatePatch(w[0].addr));
            }
        }
        for req in sorted {
            self.patch_site(req.addr, &req.template)?;
        }
        Ok(())
    }
}
