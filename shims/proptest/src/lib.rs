//! Offline shim for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses:
//! the [`proptest!`] macro, the [`Strategy`] trait with
//! `prop_map`/`prop_flat_map`/`prop_filter`, integer-range and tuple
//! strategies, [`collection`] (`vec`/`btree_set`/`btree_map`) and
//! [`option::of`] strategies, plus `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case reports its inputs via the
//!   panic message of the assertion that fired.
//! - **Deterministic.** The RNG seed is derived from the test
//!   function's name, so failures reproduce exactly across runs. The
//!   failure message prints that seed ([`TestRng::seed_for_test`]);
//!   feed it to [`TestRng::from_seed`] to replay a failing stream in
//!   isolation.
//! - Default case count is 64 (the real crate's 256), keeping the
//!   suite fast; override per block with
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SampleRange, SeedableRng};

/// How many times a filtered or deduplicating strategy retries before
/// giving up on a case.
const MAX_REJECTS: usize = 1000;

/// Deterministic RNG driving test-case generation.
#[derive(Debug, Clone)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// Builds a generator whose seed is a hash of `name`
    /// ([`TestRng::seed_for_test`]), so each test gets a distinct but
    /// reproducible stream.
    pub fn for_test(name: &str) -> Self {
        Self::from_seed(Self::seed_for_test(name))
    }

    /// The deterministic seed `for_test(name)` uses — FNV-1a over the
    /// test name. Failure messages print this value so a failing
    /// stream can be replayed via [`TestRng::from_seed`] without
    /// re-deriving the hash.
    pub fn seed_for_test(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Builds a generator from an explicit seed (e.g. one printed by a
    /// failing run).
    pub fn from_seed(seed: u64) -> Self {
        TestRng(SmallRng::seed_from_u64(seed))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Failure raised by `prop_assert!`-style macros.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of values for property tests.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and draws
    /// from the result.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Rejects values for which `f` returns `false`, retrying.
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            f,
        }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..MAX_REJECTS {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter '{}' rejected {MAX_REJECTS} samples",
            self.whence
        )
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                self.clone().sample_single(rng)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                self.clone().sample_single(rng)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Size specifications accepted by collection strategies: a fixed
    /// `usize`, `lo..hi`, or `lo..=hi`.
    pub trait IntoSizeRange {
        /// Inclusive `(min, max)` bounds.
        fn size_bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn size_bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn size_bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn size_bounds(self) -> (usize, usize) {
            assert!(self.start() <= self.end(), "empty size range");
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec<S::Value>`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.size_bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.min..=self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>`.
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// `BTreeSet` of `size` distinct elements drawn from `element`.
    pub fn btree_set<S>(element: S, size: impl IntoSizeRange) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        let (min, max) = size.size_bounds();
        BTreeSetStrategy { element, min, max }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = rng.gen_range(self.min..=self.max);
            let mut out = BTreeSet::new();
            for _ in 0..MAX_REJECTS {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            assert!(
                out.len() >= self.min,
                "btree_set: could not reach min size {} (got {})",
                self.min,
                out.len()
            );
            out
        }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>`.
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        min: usize,
        max: usize,
    }

    /// `BTreeMap` of `size` entries with distinct keys.
    pub fn btree_map<K, V>(key: K, value: V, size: impl IntoSizeRange) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        let (min, max) = size.size_bounds();
        BTreeMapStrategy {
            key,
            value,
            min,
            max,
        }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let target = rng.gen_range(self.min..=self.max);
            let mut out = BTreeMap::new();
            for _ in 0..MAX_REJECTS {
                if out.len() >= target {
                    break;
                }
                out.insert(self.key.generate(rng), self.value.generate(rng));
            }
            assert!(
                out.len() >= self.min,
                "btree_map: could not reach min size {} (got {})",
                self.min,
                out.len()
            );
            out
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::*;

    /// Strategy for `Option<S::Value>`.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// Yields `None` about a quarter of the time, `Some` otherwise.
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let test_path = concat!(module_path!(), "::", stringify!($name));
            let seed = $crate::TestRng::seed_for_test(test_path);
            let mut rng = $crate::TestRng::from_seed(seed);
            for case in 0..config.cases {
                let result: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body;
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = result {
                    panic!(
                        "{} failed at case {case}/{} (seed {seed:#018x}, replay with \
                         TestRng::from_seed): {e}",
                        stringify!($name),
                        config.cases
                    );
                }
            }
        }
    )*};
}

/// Asserts a condition inside a property test, failing the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property test, failing the case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` != `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// Asserts inequality inside a property test, failing the case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 1usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn combinators_compose(
            v in crate::collection::vec((0u32..5, 0u32..5).prop_filter("ne", |(a, b)| a != b), 1..6),
            o in crate::option::of(1u64..3),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            for (a, b) in &v {
                prop_assert_ne!(a, b);
            }
            if let Some(x) = o {
                prop_assert!((1..3).contains(&x));
            }
        }

        #[test]
        fn flat_map_and_sets(
            s in crate::collection::btree_set(0u32..20, 2..5)
        ) {
            prop_assert!(s.len() >= 2 && s.len() < 5);
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        let mut c = crate::TestRng::for_test("y");
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn failure_message_carries_replay_seed() {
        proptest! {
            fn doomed(x in 0u32..2) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        let err = std::panic::catch_unwind(doomed).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic carries String");
        let expected = crate::TestRng::seed_for_test(concat!(module_path!(), "::doomed"));
        assert!(
            msg.contains(&format!("seed {expected:#018x}")),
            "failure message must print the deterministic seed: {msg}"
        );
        assert!(msg.contains("x was"), "{msg}");
    }

    #[test]
    fn early_return_ok_is_supported() {
        proptest! {
            fn inner(x in 0u32..2) {
                if x == 0 {
                    return Ok(());
                }
                prop_assert_eq!(x, 1);
            }
        }
        inner();
    }
}
