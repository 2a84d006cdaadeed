//! # e9qcheck — a minimal, hermetic property-testing harness
//!
//! The workspace's differential and fuzz-style suites were written against
//! `proptest`, which cannot be resolved in an offline build. This crate
//! provides the small subset those suites actually use, with zero
//! dependencies beyond the in-tree [`e9rng`]:
//!
//! * [`Strategy`] — a value generator with a *halving* shrinker. Integer
//!   and float ranges, [`any`], [`vec()`], [`alpha`] strings and tuples (up
//!   to arity 12) are strategies out of the box.
//! * [`props!`] — a `proptest!`-shaped macro: `#[test]` functions whose
//!   arguments are drawn from strategies; bodies may use `?` and
//!   `return Ok(())` and the [`prop_assert!`] family.
//! * A deterministic runner: the case stream is seeded from the test's
//!   module path (plus `E9QCHECK_SEED` if set), so failures reproduce
//!   across machines and runs. `E9QCHECK_CASES` scales test depth.
//! * On failure the input is shrunk by halving (numbers toward their
//!   lower bound, vectors toward their minimum length) and the minimal
//!   failing input is reported.
//!
//! ## Environment
//!
//! | variable | effect |
//! |---|---|
//! | `E9QCHECK_CASES` | cases per property (overrides per-suite and default 64) |
//! | `E9QCHECK_SEED`  | XORed into the per-test seed to explore new case streams |

use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// Generation context handed to strategies.
pub struct Gen {
    /// The underlying deterministic generator.
    pub rng: e9rng::StdRng,
}

/// A failed test case (the `Err` side of [`TestCaseResult`]).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure carrying `msg`.
    pub fn fail<S: Into<String>>(msg: S) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// What a property body returns.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A value generator with a shrinker.
///
/// `shrink` returns *simpler* candidate values (never equal to `v`, always
/// inside the strategy's domain); the runner greedily adopts any candidate
/// that still fails. All built-in shrinkers halve: numbers halve their
/// distance to the range's lower bound, vectors halve their length.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + fmt::Debug;
    /// Draw one value.
    fn generate(&self, g: &mut Gen) -> Self::Value;
    /// Simpler candidates for a failing `v` (may be empty).
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// ---- integer / float range strategies ----------------------------------

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, g: &mut Gen) -> $t {
                g.rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                $crate::int_ladder(self.start, *v)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, g: &mut Gen) -> $t {
                g.rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                $crate::int_ladder(*self.start(), *v)
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Shrink candidates for an integer failing at `v` with lower bound `lo`:
/// the bound itself, the halfway point (halving descent), and `v - 1`
/// (so the greedy loop converges on the exact failure boundary).
#[doc(hidden)]
pub fn int_ladder<T>(lo: T, v: T) -> Vec<T>
where
    T: Copy + PartialEq + PartialOrd + IntHalf,
{
    let mut out = Vec::new();
    if v == lo {
        return out;
    }
    out.push(lo);
    let half = lo.midpoint_to(v);
    if half != lo && half != v {
        out.push(half);
    }
    let prev = v.pred();
    if prev != lo && prev != half {
        out.push(prev);
    }
    out
}

/// Integer halving/decrement used by [`int_ladder`].
#[doc(hidden)]
pub trait IntHalf: Sized {
    fn midpoint_to(self, hi: Self) -> Self;
    fn pred(self) -> Self;
}

macro_rules! impl_int_half {
    ($($t:ty),*) => {$(
        impl IntHalf for $t {
            fn midpoint_to(self, hi: $t) -> $t {
                self + (hi - self) / 2
            }
            fn pred(self) -> $t {
                self.wrapping_sub(1)
            }
        }
    )*};
}
impl_int_half!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, g: &mut Gen) -> f64 {
        g.rng.gen_range(self.clone())
    }
    fn shrink(&self, v: &f64) -> Vec<f64> {
        let lo = self.start;
        let mut out = Vec::new();
        if *v != lo {
            out.push(lo);
            let half = lo + (*v - lo) / 2.0;
            if half != lo && half != *v {
                out.push(half);
            }
        }
        out
    }
}

// ---- any ---------------------------------------------------------------

/// Strategy over the full domain of `T` (see [`any`]).
pub struct Any<T>(core::marker::PhantomData<T>);

/// The `proptest`-style `any::<T>()` strategy: a uniform value of `T`.
pub fn any<T>() -> Any<T> {
    Any(core::marker::PhantomData)
}

macro_rules! impl_any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, g: &mut Gen) -> $t {
                g.rng.gen::<$t>()
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                $crate::int_ladder(0, *v)
            }
        }
    )*};
}
impl_any_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_any_sint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, g: &mut Gen) -> $t {
                g.rng.gen::<$t>()
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                // Halve toward zero, then step one toward zero —
                // wrapping-safe at MIN.
                if *v == 0 {
                    return Vec::new();
                }
                let mut out = vec![0, v.wrapping_div(2)];
                let step = v.wrapping_sub(v.signum());
                if !out.contains(&step) {
                    out.push(step);
                }
                out.dedup();
                out
            }
        }
    )*};
}
impl_any_sint!(i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, g: &mut Gen) -> bool {
        g.rng.gen::<bool>()
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, g: &mut Gen) -> f64 {
        g.rng.gen::<f64>()
    }
    fn shrink(&self, v: &f64) -> Vec<f64> {
        if *v == 0.0 {
            Vec::new()
        } else {
            vec![0.0, *v / 2.0]
        }
    }
}

// ---- collections -------------------------------------------------------

/// Strategy for `Vec<S::Value>` with a length drawn from a range (see
/// [`vec()`]).
pub struct VecStrategy<S> {
    elem: S,
    len: core::ops::Range<usize>,
}

/// A vector whose length is drawn from `len` (a range or an exact count)
/// and whose elements come from `elem` — mirrors
/// `proptest::collection::vec`.
pub fn vec<S: Strategy, L: IntoLenRange>(elem: S, len: L) -> VecStrategy<S> {
    let len = len.into_len_range();
    assert!(len.start < len.end, "empty length range");
    VecStrategy { elem, len }
}

/// Length specifications [`vec()`] accepts.
pub trait IntoLenRange {
    fn into_len_range(self) -> core::ops::Range<usize>;
}

impl IntoLenRange for core::ops::Range<usize> {
    fn into_len_range(self) -> core::ops::Range<usize> {
        self
    }
}

impl IntoLenRange for core::ops::RangeInclusive<usize> {
    fn into_len_range(self) -> core::ops::Range<usize> {
        *self.start()..*self.end() + 1
    }
}

impl IntoLenRange for usize {
    fn into_len_range(self) -> core::ops::Range<usize> {
        self..self + 1
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, g: &mut Gen) -> Self::Value {
        let n = g.rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(g)).collect()
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let min = self.len.start;
        let mut out = Vec::new();
        // Halve the length, then peel one element, then halve elements.
        let half = min.max(v.len() / 2);
        if half < v.len() {
            out.push(v[..half].to_vec());
        }
        if v.len() > min && v.len() - 1 != half {
            out.push(v[..v.len() - 1].to_vec());
        }
        for (i, e) in v.iter().enumerate() {
            if let Some(simpler) = self.elem.shrink(e).into_iter().next() {
                let mut c = v.clone();
                c[i] = simpler;
                out.push(c);
                if out.len() >= 8 {
                    break; // bound the candidate fan-out per step
                }
            }
        }
        out
    }
}

// ---- strings -----------------------------------------------------------

/// Strategy for fixed-length lowercase ASCII strings (see [`alpha`]).
pub struct Alpha {
    len: usize,
}

/// A fixed-length lowercase `[a-z]` string — replaces `proptest`'s regex
/// strategies where tests only need a distinct, printable seed name.
pub fn alpha(len: usize) -> Alpha {
    Alpha { len }
}

impl Strategy for Alpha {
    type Value = String;

    fn generate(&self, g: &mut Gen) -> String {
        (0..self.len)
            .map(|_| (b'a' + g.rng.gen_range(0u8..26)) as char)
            .collect()
    }

    fn shrink(&self, v: &String) -> Vec<String> {
        let floor: String = "a".repeat(self.len);
        if *v == floor {
            Vec::new()
        } else {
            vec![floor]
        }
    }
}

// ---- tuples ------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($S:ident . $i:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, g: &mut Gen) -> Self::Value {
                ($(self.$i.generate(g),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&v.$i) {
                        let mut c = v.clone();
                        c.$i = cand;
                        out.push(c);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11);

// ---- runner ------------------------------------------------------------

/// FNV-1a, used to derive a stable per-test seed from its module path.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            s.parse().ok()
        }
    })
}

/// The number of cases a property runs: `E9QCHECK_CASES` if set, else the
/// suite's `#![cases = N]`, else 64.
pub fn case_count(suite_override: Option<u32>) -> u32 {
    env_u64("E9QCHECK_CASES")
        .map(|n| n.clamp(1, 1 << 24) as u32)
        .or(suite_override)
        .unwrap_or(64)
}

/// Run `f` on one value, catching both `Err` returns and panics.
/// Returns `None` on pass, `Some(message)` on failure.
fn run_case<V, F>(f: &F, v: V) -> Option<String>
where
    F: Fn(V) -> TestCaseResult,
{
    match panic::catch_unwind(AssertUnwindSafe(|| f(v))) {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e.to_string()),
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".into()),
        ),
    }
}

/// Execute a property: `cases` draws from `strat`, shrinking on failure.
///
/// Panics (failing the enclosing `#[test]`) with the minimal failing
/// input, the seed, and the original failure message. Called by
/// [`props!`]; usable directly for hand-rolled properties.
pub fn run_prop<S, F>(name: &str, suite_cases: Option<u32>, strat: &S, f: F)
where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    let seed = fnv64(name) ^ env_u64("E9QCHECK_SEED").unwrap_or(0);
    let cases = case_count(suite_cases);
    let mut g = Gen {
        rng: e9rng::StdRng::seed_from_u64(seed),
    };
    for case in 0..cases {
        let value = strat.generate(&mut g);
        let Some(msg) = run_case(&f, value.clone()) else {
            continue;
        };
        // Shrink quietly: every candidate that still fails panics again,
        // and the default hook would spam stderr for each one.
        let prev_hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let (min_value, min_msg) = shrink_loop(strat, &f, value, msg);
        panic::set_hook(prev_hook);
        panic!(
            "property `{name}` failed at case {case}/{cases}\n\
             \x20 minimal failing input: {min_value:#?}\n\
             \x20 cause: {min_msg}\n\
             \x20 seed: {seed:#x} (E9QCHECK_SEED changes the stream; \
             E9QCHECK_CASES={cases})"
        );
    }
}

/// Greedy halving descent: adopt any shrink candidate that still fails,
/// until none does or the evaluation budget runs out.
fn shrink_loop<S, F>(strat: &S, f: &F, mut value: S::Value, mut msg: String) -> (S::Value, String)
where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    let mut budget = 256usize;
    'descend: while budget > 0 {
        for cand in strat.shrink(&value) {
            if budget == 0 {
                break 'descend;
            }
            budget -= 1;
            if let Some(m) = run_case(f, cand.clone()) {
                value = cand;
                msg = m;
                continue 'descend;
            }
        }
        break;
    }
    (value, msg)
}

// ---- macros ------------------------------------------------------------

/// `proptest!`-shaped property definition.
///
/// ```ignore
/// e9qcheck::props! {
///     #![cases = 32]                      // optional per-suite depth
///     #[test]
///     fn sums_commute(a in any::<u32>(), b in 0u32..100) {
///         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
///
/// Bodies may use `?`, `return Ok(())`, and the [`prop_assert!`] family.
#[macro_export]
macro_rules! props {
    // Internal: one property fn, then recurse on the rest.
    (@cfg $cases:expr; $(#[$meta:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __strat = ($($strat,)+);
            $crate::run_prop(
                concat!(module_path!(), "::", stringify!($name)),
                $cases,
                &__strat,
                |($($arg,)+)| -> $crate::TestCaseResult {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::props! { @cfg $cases; $($rest)* }
    };
    (@cfg $cases:expr;) => {};
    // Entry with a per-suite case count.
    (#![cases = $n:expr] $($rest:tt)*) => {
        $crate::props! { @cfg ::core::option::Option::Some($n); $($rest)* }
    };
    // Entry without.
    ($($rest:tt)*) => {
        $crate::props! { @cfg ::core::option::Option::None; $($rest)* }
    };
}

/// Like `assert!`, but returns a [`TestCaseError`] so the runner can
/// shrink the input. Only valid in functions returning [`TestCaseResult`].
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` for property bodies (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}", l, r, format!($($fmt)+)
        );
    }};
}

/// `assert_ne!` for property bodies (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)+)
        );
    }};
}

/// A `proptest`-flavoured prelude so test ports stay one-line diffs.
pub mod prelude {
    pub use crate::{
        alpha, any, prop_assert, prop_assert_eq, prop_assert_ne, props, vec, Strategy,
        TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_gen(seed: u64) -> Gen {
        Gen {
            rng: e9rng::StdRng::seed_from_u64(seed),
        }
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut g = fresh_gen(1);
        for _ in 0..2000 {
            let v = (5u64..17).generate(&mut g);
            assert!((5..17).contains(&v));
            let w = (-8i32..=8).generate(&mut g);
            assert!((-8..=8).contains(&w));
            let f = (0.25f64..0.75).generate(&mut g);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn int_shrink_halves_toward_lo() {
        let s = 10u64..100;
        let c = s.shrink(&90);
        assert!(c.contains(&10));
        assert!(c.contains(&50));
        assert!(s.shrink(&10).is_empty());
    }

    #[test]
    fn vec_strategy_len_and_shrink() {
        let s = vec(any::<u8>(), 3..9);
        let mut g = fresh_gen(2);
        for _ in 0..200 {
            let v = s.generate(&mut g);
            assert!((3..9).contains(&v.len()));
        }
        let v = s.generate(&mut g);
        for c in s.shrink(&v) {
            assert!(c.len() >= 3);
        }
        // A long vector must offer a halved candidate.
        let long = vec![7u8; 8];
        assert!(s.shrink(&long).iter().any(|c| c.len() == 4));
    }

    #[test]
    fn tuple_strategy_shrinks_componentwise() {
        let s = (0u64..100, any::<bool>());
        let cands = s.shrink(&(40, true));
        assert!(cands.contains(&(0, true)));
        assert!(cands.contains(&(20, true)));
        assert!(cands.contains(&(40, false)));
    }

    #[test]
    fn alpha_generates_lowercase() {
        let s = alpha(6);
        let mut g = fresh_gen(3);
        for _ in 0..50 {
            let v = s.generate(&mut g);
            assert_eq!(v.len(), 6);
            assert!(v.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }

    #[test]
    fn deterministic_case_stream() {
        let s = vec(any::<u64>(), 1..5);
        let mut a = fresh_gen(99);
        let mut b = fresh_gen(99);
        for _ in 0..20 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let hits = std::cell::Cell::new(0u32);
        run_prop("qcheck::self::pass", Some(17), &(0u64..10), |v| {
            hits.set(hits.get() + 1);
            prop_assert!(v < 10);
            Ok(())
        });
        assert_eq!(hits.get(), case_count(Some(17)));
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Fails for v >= 25: minimal failing input is exactly 25.
        let r = panic::catch_unwind(|| {
            run_prop("qcheck::self::shrinks", Some(64), &(0u64..1000), |v| {
                prop_assert!(v < 25, "too big: {v}");
                Ok(())
            });
        });
        let msg = match r {
            Ok(()) => panic!("property unexpectedly passed"),
            Err(p) => p.downcast_ref::<String>().unwrap().clone(),
        };
        assert!(msg.contains("minimal failing input: 25"), "{msg}");
        assert!(msg.contains("too big: 25"), "{msg}");
    }

    #[test]
    fn panicking_body_is_caught_and_shrunk() {
        let r = panic::catch_unwind(|| {
            run_prop("qcheck::self::panics", Some(64), &(0u64..1000), |v| {
                assert!(v < 25, "panicked at {v}");
                Ok(())
            });
        });
        let msg = match r {
            Ok(()) => panic!("property unexpectedly passed"),
            Err(p) => p.downcast_ref::<String>().unwrap().clone(),
        };
        assert!(msg.contains("minimal failing input: 25"), "{msg}");
    }

    // The macro surface, end to end.
    props! {
        #![cases = 32]

        #[test]
        fn macro_addition_commutes(a in any::<u32>(), b in 0u32..1000) {
            prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        }

        #[test]
        fn macro_early_return_ok(v in 0u64..100) {
            if v > 50 {
                return Ok(());
            }
            prop_assert!(v <= 50);
        }

        #[test]
        fn macro_vecs_and_tuples(
            pairs in vec((0u64..256, any::<bool>()), 0..16),
            name in alpha(4),
        ) {
            prop_assert_eq!(name.len(), 4);
            for (n, _) in pairs {
                prop_assert!(n < 256);
            }
        }
    }
}
