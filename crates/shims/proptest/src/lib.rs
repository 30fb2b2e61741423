//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of proptest's API the workspace property tests use: the
//! [`Strategy`] trait with `prop_filter`, range and
//! [`collection::vec`] strategies, [`ProptestConfig`], and the
//! `proptest!`/`prop_assert!`/`prop_assert_eq!` macros. Cases are drawn
//! from a generator seeded deterministically per test name and case index,
//! so failures are reproducible; there is **no shrinking** — the failing
//! input is printed as-is.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Test-case generator handed to strategies.
pub type TestRng = StdRng;

/// A value generator for property tests.
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Draws one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Restricts the strategy to values satisfying `predicate`; rejected
    /// draws are retried (up to an internal cap).
    fn prop_filter<F>(self, whence: &'static str, predicate: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            predicate,
        }
    }
}

/// Strategy adaptor created by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    predicate: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn gen_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.gen_value(rng);
            if (self.predicate)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter `{}` rejected 1000 consecutive draws",
            self.whence
        );
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn gen_value(&self, rng: &mut TestRng) -> $t {
                // The rand shim samples inclusive ranges directly
                // (overflow-safe even at the type's maximum).
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: a fixed size or a range.
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
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
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy generating `Vec`s of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    /// 256 cases, overridable through the `PROPTEST_CASES` environment
    /// variable — the same knob real proptest reads, used by CI to bump
    /// the slow equivalence suites without touching the source default.
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(256),
        }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per property. Explicit counts are
    /// pinned: `PROPTEST_CASES` does not override them.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Parses `PROPTEST_CASES` when set to a positive integer.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
}

/// Runs `body` for every case with a deterministic per-case generator.
/// Called by the `proptest!` macro; not public API in real proptest.
pub fn run_cases(
    test_name: &str,
    config: &ProptestConfig,
    mut body: impl FnMut(u64, &mut TestRng),
) {
    // FNV-1a over the test name gives a stable per-test stream.
    let mut name_hash: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        name_hash ^= b as u64;
        name_hash = name_hash.wrapping_mul(0x100000001b3);
    }
    for case in 0..config.cases as u64 {
        let mut rng = TestRng::seed_from_u64(name_hash ^ case.wrapping_mul(0x9E3779B97F4A7C15));
        body(case, &mut rng);
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

/// Asserts a condition inside a property, reporting the case on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                $crate::run_cases(stringify!($name), &config, |__case, __rng| {
                    $(let $arg = $crate::Strategy::gen_value(&($strat), __rng);)+
                    $body
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_generate_in_bounds(x in 0.0f64..1.0, n in 3usize..9) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!((3..9).contains(&n));
        }

        #[test]
        fn vec_lengths_respect_spec(
            fixed in collection::vec(0u64..10, 4),
            ranged in collection::vec(0.0f64..1.0, 1..=7)
        ) {
            prop_assert_eq!(fixed.len(), 4);
            prop_assert!((1..=7).contains(&ranged.len()));
        }

        #[test]
        fn filter_applies(v in (0usize..100).prop_filter("even", |v| v % 2 == 0)) {
            prop_assert_eq!(v % 2, 0);
        }
    }

    #[test]
    fn env_var_overrides_default_cases_only() {
        // Serial within this test: no other test in the crate touches the
        // variable.
        std::env::set_var("PROPTEST_CASES", "17");
        assert_eq!(ProptestConfig::default().cases, 17);
        assert_eq!(ProptestConfig::with_cases(4).cases, 4);
        std::env::set_var("PROPTEST_CASES", "not-a-number");
        assert_eq!(ProptestConfig::default().cases, 256);
        std::env::remove_var("PROPTEST_CASES");
        assert_eq!(ProptestConfig::default().cases, 256);
    }

    #[test]
    fn cases_are_deterministic() {
        use super::{run_cases, ProptestConfig, Strategy};
        let mut first: Vec<f64> = Vec::new();
        run_cases("det", &ProptestConfig::with_cases(8), |_, rng| {
            first.push((0.0f64..1.0).gen_value(rng));
        });
        let mut second: Vec<f64> = Vec::new();
        run_cases("det", &ProptestConfig::with_cases(8), |_, rng| {
            second.push((0.0f64..1.0).gen_value(rng));
        });
        assert_eq!(first, second);
        assert!(first.windows(2).any(|w| w[0] != w[1]));
    }
}
