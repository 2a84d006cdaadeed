//! # e9failpt — deterministic I/O failpoints and retry primitives
//!
//! PRs 3 and 7 hardened the two *untrusted input* surfaces (hostile
//! ELFs, hostile wire clients). This crate hardens the third surface a
//! deployed rewriter meets: its own **environment**. Disks fill up
//! (ENOSPC), devices error (EIO), signals interrupt syscalls (EINTR),
//! writes land short, renames fail — and a fleet-scale daemon must keep
//! serving rewrites through all of it.
//!
//! Every I/O boundary in the workspace — the cache's on-disk CAS, the
//! frontend's atomic output writer, the wire client, the stdio session
//! server — carries a **named failpoint**: a compiled-in hook that can
//! inject one of five fault classes on demand. The crate sits at the
//! very bottom of the crate graph (zero dependencies, below `e9cache`)
//! so every layer can reach it.
//!
//! ## Inert by default
//!
//! Failpoints ship in release builds. When no schedule is active, a
//! check is one relaxed atomic load and a predicted-not-taken branch —
//! nothing is parsed, locked, allocated or counted. Activation happens
//! either programmatically ([`activate`] / [`activate_scoped`]) or from
//! the environment ([`init_from_env`], called by the `e9patchd` and
//! `e9tool` binaries at startup):
//!
//! ```console
//! $ E9FAILPOINTS='cache.disk.stage=enospc@first:4' e9patchd --socket …
//! ```
//!
//! ## The schedule grammar
//!
//! A spec is a comma-separated list of `point=fault[@when]` terms:
//!
//! * `point` — a failpoint name (`cache.disk.read`) or a prefix
//!   wildcard (`cache.disk.*`, or bare `*`). The first matching term
//!   decides; later terms are not consulted.
//! * `fault` — `enospc`, `eio`, `eintr`, `partial`, `rename`.
//! * `when` — `always` (the default), `once`, `first:N` (the first N
//!   hits fire, then the fault *clears* — the recovery story), `after:N`
//!   (hits beyond the first N fire), `1inN` (a seeded coin with
//!   probability 1/N per hit).
//!
//! Schedules are **deterministic**: the `1inN` coin is a pure function
//! of `(seed, point pattern, hit index)`, so a fault campaign replays
//! exactly from its seed. The seed comes from [`ENV_SEED`] (default 42)
//! or the `activate` argument.
//!
//! ## Retry primitives
//!
//! The [`retry`] module owns the workspace's *response* to transient
//! faults: the bounded-doubling [`retry::Backoff`] schedule (previously
//! duplicated across the wire client's connect paths) and
//! [`retry::retry_interrupted`] for bounded EINTR loops. Injection and
//! reaction live together so a test can steer both sides.

pub mod retry;

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Environment variable holding the failpoint spec (see the crate docs
/// for the grammar). Read by [`init_from_env`].
pub const ENV_SPEC: &str = "E9FAILPOINTS";

/// Environment variable holding the seed for `1inN` coins (default 42).
pub const ENV_SEED: &str = "E9FAILPOINTS_SEED";

/// The five injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `ENOSPC` — no space left on device (the disk-full class).
    Enospc,
    /// `EIO` — low-level device error.
    Eio,
    /// `EINTR` — syscall interrupted by a signal; always retryable.
    Eintr,
    /// A short write: the site should accept fewer bytes than asked.
    /// Sites that cannot express partial progress surface it as a
    /// `WriteZero` error instead.
    Partial,
    /// A failed rename (`EXDEV`) — the atomic-publish failure class.
    RenameFail,
}

impl Fault {
    /// Spec-grammar name (`enospc` / `eio` / `eintr` / `partial` /
    /// `rename`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fault::Enospc => "enospc",
            Fault::Eio => "eio",
            Fault::Eintr => "eintr",
            Fault::Partial => "partial",
            Fault::RenameFail => "rename",
        }
    }

    /// Parse a spec-grammar fault name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Fault> {
        match s {
            "enospc" => Some(Fault::Enospc),
            "eio" => Some(Fault::Eio),
            "eintr" => Some(Fault::Eintr),
            "partial" => Some(Fault::Partial),
            "rename" => Some(Fault::RenameFail),
            _ => None,
        }
    }

    /// The fault as the `io::Error` a real kernel would have returned.
    /// EINTR is built from [`io::ErrorKind::Interrupted`] so retry loops
    /// classify it identically on every platform.
    #[must_use]
    pub fn to_io_error(self) -> io::Error {
        match self {
            Fault::Enospc => io::Error::from_raw_os_error(28), // ENOSPC
            Fault::Eio => io::Error::from_raw_os_error(5),     // EIO
            Fault::Eintr => io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"),
            Fault::Partial => io::Error::new(io::ErrorKind::WriteZero, "injected partial write"),
            Fault::RenameFail => io::Error::from_raw_os_error(18), // EXDEV
        }
    }
}

/// When a matching term fires, relative to its per-term hit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum When {
    Always,
    Once,
    /// Hits `1..=n` fire, later hits do not — the fault *clears*.
    FirstN(u64),
    /// Hits `n+1..` fire.
    AfterN(u64),
    /// Seeded coin: fires with probability `1/n` per hit.
    OneIn(u64),
}

#[derive(Debug)]
struct Term {
    pattern: String,
    fault: Fault,
    when: When,
    hits: AtomicU64,
}

impl Term {
    fn matches(&self, point: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => point.starts_with(prefix),
            None => self.pattern == point,
        }
    }
}

#[derive(Debug)]
struct Registry {
    spec: String,
    seed: u64,
    terms: Vec<Term>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static REGISTRY: RwLock<Option<Arc<Registry>>> = RwLock::new(None);
/// Serializes scoped activations so parallel tests cannot see each
/// other's schedules.
static SCOPE_GATE: Mutex<()> = Mutex::new(());

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// The `1inN` coin: pure in `(seed, pattern, hit index)`.
fn coin(seed: u64, pattern: &str, hit: u64, n: u64) -> bool {
    if n <= 1 {
        return true;
    }
    splitmix64(seed ^ fnv1a(pattern) ^ hit.wrapping_mul(0x2545_F491_4F6C_DD1D)).is_multiple_of(n)
}

fn parse_when(s: &str) -> Result<When, String> {
    if s == "always" {
        return Ok(When::Always);
    }
    if s == "once" {
        return Ok(When::Once);
    }
    if let Some(n) = s.strip_prefix("first:") {
        let n: u64 = n.parse().map_err(|_| format!("bad count in `{s}`"))?;
        return Ok(When::FirstN(n));
    }
    if let Some(n) = s.strip_prefix("after:") {
        let n: u64 = n.parse().map_err(|_| format!("bad count in `{s}`"))?;
        return Ok(When::AfterN(n));
    }
    if let Some(n) = s.strip_prefix("1in") {
        let n: u64 = n.parse().map_err(|_| format!("bad count in `{s}`"))?;
        if n == 0 {
            return Err(format!("`{s}`: N must be >= 1"));
        }
        return Ok(When::OneIn(n));
    }
    Err(format!(
        "unknown schedule `{s}` (want always/once/first:N/after:N/1inN)"
    ))
}

fn parse_spec(spec: &str, seed: u64) -> Result<Registry, String> {
    let mut terms = Vec::new();
    for raw in spec.split(',') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let (point, rest) = raw
            .split_once('=')
            .ok_or_else(|| format!("term `{raw}`: want point=fault[@when]"))?;
        let (fault, when) = match rest.split_once('@') {
            Some((f, w)) => (f, parse_when(w)?),
            None => (rest, When::Always),
        };
        let fault = Fault::from_name(fault.trim())
            .ok_or_else(|| format!("term `{raw}`: unknown fault `{fault}`"))?;
        let point = point.trim();
        if point.is_empty() {
            return Err(format!("term `{raw}`: empty point name"));
        }
        terms.push(Term {
            pattern: point.to_string(),
            fault,
            when,
            hits: AtomicU64::new(0),
        });
    }
    if terms.is_empty() {
        return Err("empty failpoint spec".to_string());
    }
    Ok(Registry {
        spec: spec.to_string(),
        seed,
        terms,
    })
}

fn registry() -> Option<Arc<Registry>> {
    REGISTRY
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Activate `spec` globally (replacing any active schedule).
///
/// # Errors
///
/// A human-readable message naming the malformed term.
pub fn activate(spec: &str, seed: u64) -> Result<(), String> {
    let reg = parse_spec(spec, seed)?;
    *REGISTRY
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::new(reg));
    ENABLED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Deactivate all failpoints; checks return to the inert fast path.
pub fn deactivate() {
    ENABLED.store(false, Ordering::SeqCst);
    *REGISTRY
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// RAII activation for tests and campaigns: holds a global gate (so
/// concurrently running tests cannot interleave schedules) and
/// deactivates on drop.
#[derive(Debug)]
pub struct ScopedFailpoints {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for ScopedFailpoints {
    fn drop(&mut self) {
        deactivate();
    }
}

/// Activate `spec` for the lifetime of the returned guard. Blocks until
/// any other scoped activation has dropped.
///
/// # Errors
///
/// Spec parse errors, with the gate released.
pub fn activate_scoped(spec: &str, seed: u64) -> Result<ScopedFailpoints, String> {
    let gate = SCOPE_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    activate(spec, seed)?;
    Ok(ScopedFailpoints { _gate: gate })
}

/// Read [`ENV_SPEC`] / [`ENV_SEED`] and activate if a spec is present.
/// Returns `Ok(true)` when a schedule was activated.
///
/// # Errors
///
/// Spec parse errors (the caller decides whether to die or warn).
pub fn init_from_env() -> Result<bool, String> {
    let Ok(spec) = std::env::var(ENV_SPEC) else {
        return Ok(false);
    };
    if spec.trim().is_empty() {
        return Ok(false);
    }
    let seed = std::env::var(ENV_SEED)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    activate(&spec, seed)?;
    Ok(true)
}

/// True while a schedule is active.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Process-cumulative count of injected faults (never reset; the
/// daemon's `health` reply reports it).
#[must_use]
pub fn injected_total() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// The active spec string, if any.
#[must_use]
pub fn active_spec() -> Option<String> {
    registry().map(|r| r.spec.clone())
}

/// Consult the failpoint named `point`. `None` (the overwhelmingly
/// common answer) costs one relaxed atomic load when no schedule is
/// active.
#[inline]
pub fn check(point: &str) -> Option<Fault> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    check_slow(point)
}

#[cold]
fn check_slow(point: &str) -> Option<Fault> {
    let reg = registry()?;
    for term in &reg.terms {
        if !term.matches(point) {
            continue;
        }
        let hit = term.hits.fetch_add(1, Ordering::SeqCst) + 1; // 1-based
        let fire = match term.when {
            When::Always => true,
            When::Once => hit == 1,
            When::FirstN(n) => hit <= n,
            When::AfterN(n) => hit > n,
            When::OneIn(n) => coin(reg.seed, &term.pattern, hit, n),
        };
        if fire {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            return Some(term.fault);
        }
        return None; // first matching term decides, firing or not
    }
    None
}

/// Error-only injection: `Err` with the scheduled fault, `Ok(())`
/// otherwise. The idiom at sites that cannot express partial progress:
///
/// ```ignore
/// e9failpt::fail_io("cache.disk.read")?;
/// ```
///
/// # Errors
///
/// The injected fault as an `io::Error` (a `Partial` fault surfaces as
/// `WriteZero` here).
#[inline]
pub fn fail_io(point: &str) -> io::Result<()> {
    match check(point) {
        None => Ok(()),
        Some(f) => Err(f.to_io_error()),
    }
}

/// Write-site injection: how many of `len` bytes the write at `point`
/// may accept. A `Partial` fault halves the write (minimum 1 byte, so
/// retry loops always make progress); error faults are returned as
/// errors; no fault passes `len` through.
///
/// # Errors
///
/// The injected non-partial fault as an `io::Error`.
#[inline]
pub fn write_len(point: &str, len: usize) -> io::Result<usize> {
    match check(point) {
        None => Ok(len),
        Some(Fault::Partial) => Ok((len / 2).max(1).min(len)),
        Some(f) => Err(f.to_io_error()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_when_disabled() {
        // No scope gate held: relies on other tests using scoped guards.
        assert_eq!(check("nothing.here"), None);
        assert!(fail_io("nothing.here").is_ok());
        assert_eq!(write_len("nothing.here", 100).unwrap(), 100);
    }

    #[test]
    fn exact_and_wildcard_matching() {
        let _g = activate_scoped("cache.disk.*=eio,front.output.stage=enospc", 1).unwrap();
        assert_eq!(check("cache.disk.read"), Some(Fault::Eio));
        assert_eq!(check("cache.disk.publish"), Some(Fault::Eio));
        assert_eq!(check("front.output.stage"), Some(Fault::Enospc));
        assert_eq!(check("front.output.commit"), None);
    }

    #[test]
    fn first_matching_term_decides() {
        let _g = activate_scoped("a.b=eio@after:100,a.*=enospc", 1).unwrap();
        // `a.b` matches the first term, which does not fire yet — the
        // wildcard must NOT be consulted as a fallback.
        assert_eq!(check("a.b"), None);
        assert_eq!(check("a.c"), Some(Fault::Enospc));
    }

    #[test]
    fn first_n_fires_then_clears() {
        let _g = activate_scoped("p=eio@first:3", 1).unwrap();
        for _ in 0..3 {
            assert_eq!(check("p"), Some(Fault::Eio));
        }
        for _ in 0..10 {
            assert_eq!(check("p"), None); // the fault has cleared
        }
    }

    #[test]
    fn once_and_after_schedules() {
        let _g = activate_scoped("a=eintr@once,b=partial@after:2", 7).unwrap();
        assert_eq!(check("a"), Some(Fault::Eintr));
        assert_eq!(check("a"), None);
        assert_eq!(check("b"), None);
        assert_eq!(check("b"), None);
        assert_eq!(check("b"), Some(Fault::Partial));
        assert_eq!(check("b"), Some(Fault::Partial));
    }

    #[test]
    fn one_in_n_is_seed_deterministic() {
        let run = |seed| {
            let _g = activate_scoped("p=eio@1in3", seed).unwrap();
            (0..64).map(|_| check("p").is_some()).collect::<Vec<_>>()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ somewhere in 64 draws");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 64, "1in3 fired {fired}/64");
    }

    #[test]
    fn injected_total_counts_fires_not_hits() {
        let before = injected_total();
        let _g = activate_scoped("p=eio@first:2", 1).unwrap();
        for _ in 0..5 {
            let _ = check("p");
        }
        assert_eq!(injected_total() - before, 2);
    }

    #[test]
    fn write_len_halves_partial_and_errors_others() {
        let _g = activate_scoped("part=partial,err=enospc", 1).unwrap();
        assert_eq!(write_len("part", 100).unwrap(), 50);
        assert_eq!(write_len("part", 1).unwrap(), 1);
        let e = write_len("err", 100).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(28));
        assert_eq!(write_len("untouched", 9).unwrap(), 9);
    }

    #[test]
    fn fault_kinds_map_to_real_errnos() {
        assert_eq!(Fault::Enospc.to_io_error().raw_os_error(), Some(28));
        assert_eq!(Fault::Eio.to_io_error().raw_os_error(), Some(5));
        assert_eq!(
            Fault::Eintr.to_io_error().kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(Fault::RenameFail.to_io_error().raw_os_error(), Some(18));
        for f in [
            Fault::Enospc,
            Fault::Eio,
            Fault::Eintr,
            Fault::Partial,
            Fault::RenameFail,
        ] {
            assert_eq!(Fault::from_name(f.name()), Some(f));
        }
    }

    #[test]
    fn spec_errors_are_named() {
        assert!(activate_scoped("", 1).is_err());
        assert!(activate_scoped("noequals", 1)
            .unwrap_err()
            .contains("noequals"));
        assert!(activate_scoped("p=unknownfault", 1)
            .unwrap_err()
            .contains("unknownfault"));
        assert!(activate_scoped("p=eio@sometimes", 1)
            .unwrap_err()
            .contains("sometimes"));
        assert!(activate_scoped("p=eio@1in0", 1).is_err());
        assert!(!is_enabled(), "failed activation must stay inert");
    }

    #[test]
    fn scoped_guard_deactivates_on_drop() {
        {
            let _g = activate_scoped("p=eio", 1).unwrap();
            assert!(is_enabled());
            assert_eq!(active_spec().as_deref(), Some("p=eio"));
        }
        assert!(!is_enabled());
        assert_eq!(check("p"), None);
        assert_eq!(active_spec(), None);
    }
}
