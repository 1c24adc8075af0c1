//! Offline drop-in subset of the `proptest` crate.
//!
//! This workspace builds in hermetic environments with no crates.io
//! access, so the handful of external dependencies are replaced by local
//! stubs implementing exactly the API surface the workspace uses (see
//! `stubs/README.md`).
//!
//! Differences from upstream proptest, deliberately accepted:
//!
//! - **No shrinking.**  A failing case reports its inputs (via the
//!   `prop_assert*` message) but is not minimised.
//! - **Deterministic seeding.**  Each test function derives its seed from
//!   its own name (overridable with `PROPTEST_SEED`), so runs are
//!   reproducible; upstream draws fresh entropy per run.
//! - **Strategies are samplers.**  `Strategy` here is just "generate a
//!   value from an RNG"; there is no value tree.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving all strategies (splitmix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Builds a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Builds a generator for a named test: FNV-1a of the name, XORed
    /// with `PROPTEST_SEED` if that environment variable is set.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(extra) = s.trim().parse::<u64>() {
                h ^= extra;
            }
        }
        TestRng::new(h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi as u64 - lo as u64 + 1)) as usize
    }
}

// ---------------------------------------------------------------------------
// Test-case plumbing
// ---------------------------------------------------------------------------

/// Failure raised by `prop_assert*` (or rejection by `prop_assume`).
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure: the property does not hold.
    Fail(String),
    /// Case rejected (does not count as failure).
    Reject(String),
}

impl TestCaseError {
    /// An assertion failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected case with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Result type of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for compatibility; this stub never shrinks.
    pub max_shrink_iters: u32,
    /// Accepted for compatibility; rejections simply skip the case.
    pub max_global_rejects: u32,
    /// Accepted for compatibility.
    pub max_local_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
            max_global_rejects: 1024,
            max_local_rejects: 1024,
        }
    }
}

impl ProptestConfig {
    /// A default configuration overriding only the case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` (dependent
    /// generation).
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Discards generated values failing `pred` (resampling up to a bound
    /// rather than rejecting the whole case).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone, Debug)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({}): no accepted value in 1000 draws",
            self.reason
        );
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6);
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);
}

// A Vec of strategies samples each element (upstream parity; used to
// build fixed-shape heterogeneous-per-index collections).
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.sample(rng)).collect()
    }
}

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> i128 {
        u128::arbitrary(rng) as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Arbitrary bit patterns: exercises NaN and infinities, matching
        // upstream's full-range float generation closely enough for codec
        // round-trip tests.
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        const POOL: &[char] = &[
            'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '_', '-', '\n', 'é', 'λ', '中', '🦀',
        ];
        POOL[(rng.next_u64() % POOL.len() as u64) as usize]
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut TestRng) -> Option<T> {
        if rng.next_u64() & 1 == 1 {
            Some(T::arbitrary(rng))
        } else {
            None
        }
    }
}

impl<T: Arbitrary> Arbitrary for Vec<T> {
    fn arbitrary(rng: &mut TestRng) -> Vec<T> {
        let len = rng.usize_in(0, 32);
        (0..len).map(|_| T::arbitrary(rng)).collect()
    }
}

impl Arbitrary for String {
    fn arbitrary(rng: &mut TestRng) -> String {
        let len = rng.usize_in(0, 32);
        (0..len).map(|_| char::arbitrary(rng)).collect()
    }
}

macro_rules! impl_arbitrary_tuple {
    ($(($($s:ident),+);)*) => {$(
        impl<$($s: Arbitrary),+> Arbitrary for ($($s,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($s::arbitrary(rng),)+)
            }
        }
    )*};
}

impl_arbitrary_tuple! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T> Clone for AnyStrategy<T> {
    fn clone(&self) -> Self {
        AnyStrategy(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<u32>()` etc.).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

// ---------------------------------------------------------------------------
// prop_oneof / Union
// ---------------------------------------------------------------------------

/// Uniform choice between boxed strategies (built by `prop_oneof!`).
pub struct Union<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Builds a union; panics if `options` is empty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! of zero strategies");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = (rng.next_u64() % self.options.len() as u64) as usize;
        self.options[i].sample(rng)
    }
}

// ---------------------------------------------------------------------------
// collection / option modules
// ---------------------------------------------------------------------------

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (inclusive).
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements are
    /// drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.min, self.size.max);
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// See [`weighted`].
    #[derive(Clone, Debug)]
    pub struct Weighted<S> {
        prob: f64,
        inner: S,
    }

    /// `Some(inner)` with probability `prob`, else `None`.
    pub fn weighted<S: Strategy>(prob: f64, inner: S) -> Weighted<S> {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        Weighted { prob, inner }
    }

    /// `Some(inner)` with probability 0.5.
    pub fn of<S: Strategy>(inner: S) -> Weighted<S> {
        weighted(0.5, inner)
    }

    impl<S: Strategy> Strategy for Weighted<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_f64() < self.prob {
                Some(self.inner.sample(rng))
            } else {
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Defines property tests: each `fn` runs `cases` times with fresh inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $(
        $(#[$attr:meta])*
        fn $name:ident( $($args:tt)* ) $body:block
    )* ) => {$(
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            let __strat = $crate::__prop_arg_strats!(@acc () $($args)*);
            for __case in 0..__cfg.cases {
                let $crate::__prop_arg_names!(@acc () $($args)*) =
                    $crate::Strategy::sample(&__strat, &mut __rng);
                // Bound first (not called in place) so the body can use
                // `?` without tripping clippy::redundant_closure_call.
                let __run = || -> $crate::TestCaseResult {
                    $body
                    ::core::result::Result::Ok(())
                };
                let __result: $crate::TestCaseResult = __run();
                match __result {
                    ::core::result::Result::Ok(()) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Fail(__m)) => {
                        panic!(
                            "proptest {} failed at case {}: {}",
                            stringify!($name),
                            __case,
                            __m
                        );
                    }
                }
            }
        }
    )*};
}

/// Builds the tuple of strategies for a proptest arg list.  Args are
/// either `name in strategy` or `name: Type` (shorthand for
/// `name in any::<Type>()`).
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_arg_strats {
    (@acc ($($acc:tt)*)) => { ($($acc)*) };
    (@acc ($($acc:tt)*) $n:ident in $s:expr) => {
        $crate::__prop_arg_strats!(@acc ($($acc)* ($s),))
    };
    (@acc ($($acc:tt)*) $n:ident in $s:expr, $($rest:tt)*) => {
        $crate::__prop_arg_strats!(@acc ($($acc)* ($s),) $($rest)*)
    };
    (@acc ($($acc:tt)*) $n:ident : $t:ty) => {
        $crate::__prop_arg_strats!(@acc ($($acc)* $crate::any::<$t>(),))
    };
    (@acc ($($acc:tt)*) $n:ident : $t:ty, $($rest:tt)*) => {
        $crate::__prop_arg_strats!(@acc ($($acc)* $crate::any::<$t>(),) $($rest)*)
    };
}

/// Builds the tuple pattern of binding names for a proptest arg list.
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_arg_names {
    (@acc ($($acc:tt)*)) => { ($($acc)*) };
    (@acc ($($acc:tt)*) $n:ident in $s:expr) => {
        $crate::__prop_arg_names!(@acc ($($acc)* $n,))
    };
    (@acc ($($acc:tt)*) $n:ident in $s:expr, $($rest:tt)*) => {
        $crate::__prop_arg_names!(@acc ($($acc)* $n,) $($rest)*)
    };
    (@acc ($($acc:tt)*) $n:ident : $t:ty) => {
        $crate::__prop_arg_names!(@acc ($($acc)* $n,))
    };
    (@acc ($($acc:tt)*) $n:ident : $t:ty, $($rest:tt)*) => {
        $crate::__prop_arg_names!(@acc ($($acc)* $n,) $($rest)*)
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        let __options: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,
        > = ::std::vec![$(::std::boxed::Box::new($s)),+];
        $crate::Union::new(__options)
    }};
}

/// Asserts a condition inside a proptest body (fails the case, with
/// inputs reported, rather than panicking outright).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
            stringify!($a),
            stringify!($b),
            __a,
            __b,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            __a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: `{} != {}`\n  both: {:?}\n{}",
            stringify!($a),
            stringify!($b),
            __a,
            format!($($fmt)*)
        );
    }};
}

/// Rejects the current case unless `cond` holds (does not fail the test).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u32> {
        (0u32..50).prop_map(|v| v * 2)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(v in 3u32..17) {
            prop_assert!((3..17).contains(&v));
        }

        #[test]
        fn typed_args_sample_any(v: u64, flag: bool) {
            // Both forms bind; nothing to assert beyond type-checking.
            let _ = (v, flag);
        }

        #[test]
        fn map_and_vec_compose(vs in crate::collection::vec(small_even(), 1..8)) {
            prop_assert!(!vs.is_empty() && vs.len() < 8);
            for v in &vs {
                prop_assert_eq!(v % 2, 0);
            }
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1u8), Just(2u8), 5u8..7]) {
            prop_assert!(v == 1 || v == 2 || v == 5 || v == 6);
        }

        #[test]
        fn weighted_option_mixes(vs in crate::collection::vec(crate::option::weighted(0.5, 0u8..5), 64)) {
            let some = vs.iter().filter(|v| v.is_some()).count();
            // With 256 cases of 64 draws at p=0.5, all-Some or all-None
            // would indicate a broken sampler.
            prop_assert!(some > 0 || vs.len() < 8);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case() {
        proptest! {
            #[allow(unused)]
            fn always_fails(v in 0u32..10) {
                prop_assert!(v > 100, "v was {}", v);
            }
        }
        always_fails();
    }
}
