//! Offline shim for `proptest`.
//!
//! Implements the API subset the workspace's property tests use:
//! [`Strategy`] with `prop_map`/`boxed`, integer-range and tuple
//! strategies, `collection::vec`, `sample::select`, `sample::Index`,
//! [`Just`], weighted/unweighted `prop_oneof!`, and the `proptest!`,
//! `prop_assert!`, `prop_assert_eq!` macros. Cases are generated from a
//! deterministic per-test seed. A failing case is shrunk by halving:
//! integer ranges move toward zero (or the bound nearest it), and
//! vectors toward their shortest allowed length, then element by
//! element. A failure reports the case number, its seed, the shrunk
//! input and the one-line command that replays the original case: with
//! [`SEED_VAR`] set to a printed seed, a property runs that one case
//! (and shrinks it again). See `shims/README.md` for why these exist.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::prelude::*;

/// The generator handed to strategies. Re-exported so generated code can
/// name it.
pub type TestRng = rand::rngs::StdRng;

/// Test-runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default is 256; this shim trims it to keep `cargo test`
        // fast while still exercising each property broadly.
        Self { cases: 64 }
    }
}

/// A generator of random values of one type.
///
/// Unlike the real crate this samples values directly (no value trees);
/// a failing value is shrunk through [`Strategy::shrink`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Simpler values this strategy could have drawn in place of
    /// `value`, the boldest first. The default has none: mapped values
    /// and unions do not shrink.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map {
            source: self,
            map: f,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.map)(self.source.sample(rng))
    }
}

/// The values between `value` and `target` that halving visits:
/// `target` itself, then halfway, a quarter of the way, … down to one
/// step from `value`.
fn halve_toward(value: i128, target: i128) -> impl Iterator<Item = i128> {
    std::iter::successors(Some(value - target), |step| Some(step / 2))
        .take_while(|&step| step != 0)
        .map(move |step| value - step)
}

/// [`halve_toward`] the value of `lo..=hi` nearest zero.
fn shrink_int(value: i128, lo: i128, hi: i128) -> impl Iterator<Item = i128> {
    halve_toward(value, 0.clamp(lo, hi))
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.start..self.end)
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(*value as i128, self.start as i128, self.end as i128 - 1)
                    .map(|v| v as $t)
                    .collect()
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let lo = *self.start() as i128;
                let hi = *self.end() as i128;
                assert!(lo <= hi, "sampled from empty inclusive range");
                let span = (hi - lo + 1) as u128;
                let v = (u128::from(rng.next_u64()) * span) >> 64;
                (lo + v as i128) as $t
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(*value as i128, *self.start() as i128, *self.end() as i128)
                    .map(|v| v as $t)
                    .collect()
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+)
        where
            $($s::Value: Clone),+
        {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }

            /// One component at a time, the others held.
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(for c in self.$idx.shrink(&value.$idx) {
                    let mut v = value.clone();
                    v.$idx = c;
                    out.push(v);
                })+
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
    (A.0, B.1, C.2, D.3, E.4, F.5);
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<f64>()
    }
}

impl Arbitrary for sample::Index {
    fn arbitrary(rng: &mut TestRng) -> Self {
        sample::Index(rng.next_u64() as usize)
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy for any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Weighted union of strategies — the engine behind `prop_oneof!`.
pub struct Union<T> {
    variants: Vec<(u32, BoxedStrategy<T>)>,
    total_weight: u64,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` pairs.
    #[must_use]
    pub fn new_weighted(variants: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total_weight = variants.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(
            total_weight > 0,
            "prop_oneof! requires positive total weight"
        );
        Self {
            variants,
            total_weight,
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range(0..self.total_weight);
        for (weight, strat) in &self.variants {
            let weight = u64::from(*weight);
            if pick < weight {
                return strat.sample(rng);
            }
            pick -= weight;
        }
        unreachable!("weighted pick exceeded total weight")
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = (self.size.lo..=self.size.hi).sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }

        /// Shorter prefixes first (halving toward the shortest allowed
        /// length), then one element at a time.
        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let shorter = super::halve_toward(value.len() as i128, self.size.lo as i128);
            let mut out: Vec<_> = shorter.map(|len| value[..len as usize].to_vec()).collect();
            for (i, element) in value.iter().enumerate() {
                for c in self.element.shrink(element) {
                    let mut v = value.clone();
                    v[i] = c;
                    out.push(v);
                }
            }
            out
        }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// An index into a collection of unknown size; resolve with
    /// [`Index::index`].
    #[derive(Debug, Clone, Copy)]
    pub struct Index(pub(crate) usize);

    impl Index {
        /// Maps this abstract index into `0..size`.
        #[must_use]
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index on empty collection");
            self.0 % size
        }
    }

    /// Strategy picking one element of a fixed set.
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    /// Uniformly selects one of `options` (cloned) per case.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.options[rng.gen_range(0..self.options.len())].clone()
        }
    }
}

/// Namespace mirror so `prop::collection::vec` / `prop::sample::select`
/// resolve after `use proptest::prelude::*`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// The environment variable that replays one case: set to the seed a
/// failure printed (`0x`-prefixed hex or decimal), a property runs that
/// case alone instead of its `cases` seeds.
pub const SEED_VAR: &str = "XFM_PROPTEST_SEED";

/// Where a property is defined, for the rerun command a failure prints.
/// The `proptest!` macro fills it in from the crate being compiled.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// `CARGO_PKG_NAME`.
    pub package: &'static str,
    /// `CARGO_CRATE_NAME`: the library or the integration-test target.
    pub crate_name: &'static str,
    /// Whether the crate is an integration test (`tests/*.rs`).
    pub integration: bool,
    /// `module_path!()` of the property.
    pub module: &'static str,
}

impl Site {
    /// The command that reruns property `name` with `seed`.
    fn rerun(&self, name: &str, seed: u64) -> String {
        let target = if self.integration {
            format!("--test {}", self.crate_name)
        } else {
            "--lib".to_string()
        };
        let path = match self.module.split_once("::") {
            Some((_, module)) => format!("{module}::{name}"),
            None => name.to_string(),
        };
        format!(
            "{SEED_VAR}={seed:#x} cargo test -p {} {target} -- --exact {path}",
            self.package
        )
    }
}

/// Parses a [`SEED_VAR`] value: `0x`-prefixed hex or decimal.
fn parse_seed(value: &str) -> Option<u64> {
    let value = value.trim();
    match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

/// The most test runs one failure's shrinking may spend.
const MAX_SHRINK_RUNS: usize = 1024;

/// Runs `test` on a value of `strategy` for each of `config.cases`
/// deterministic seeds — or for the one seed [`SEED_VAR`] names —
/// panicking on the first failure (an `Err` or a panic) with the case,
/// its seed, the shrunk input and the command that replays the case.
/// Called by the `proptest!` macro expansion.
pub fn run_property_test<S, F>(
    config: &ProptestConfig,
    name: &str,
    site: Site,
    strategy: &S,
    test: F,
) where
    S: Strategy,
    S::Value: Clone + Debug,
    F: FnMut(S::Value) -> Result<(), String>,
{
    let replay = std::env::var(SEED_VAR).ok().map(|value| {
        parse_seed(&value)
            .unwrap_or_else(|| panic!("{SEED_VAR}={value:?} is not a hex or decimal seed"))
    });
    run_cases(config, name, site, replay, strategy, test);
}

/// [`run_property_test`] with the replayed seed, if any, passed in.
fn run_cases<S, F>(
    config: &ProptestConfig,
    name: &str,
    site: Site,
    replay: Option<u64>,
    strategy: &S,
    mut test: F,
) where
    S: Strategy,
    S::Value: Clone + Debug,
    F: FnMut(S::Value) -> Result<(), String>,
{
    // FNV-1a over the test name decorrelates seeds between properties.
    let mut name_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        name_hash = (name_hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let seeds: Vec<(String, u64)> = match replay {
        Some(seed) => vec![("the replayed case".to_string(), seed)],
        None => (0..config.cases)
            .map(|i| {
                let seed = name_hash ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (format!("case {i}/{}", config.cases), seed)
            })
            .collect(),
    };
    for (which, seed) in seeds {
        let value = strategy.sample(&mut TestRng::seed_from_u64(seed));
        if let Err(msg) = check(&mut test, value.clone()) {
            let (minimal, msg, steps) = shrink(strategy, value, msg, &mut test);
            panic!(
                "property '{name}' failed at {which} (seed {seed:#x}); \
                 minimal failing input after {steps} shrink steps: {minimal:?}\n{msg}\nrerun: {}",
                site.rerun(name, seed)
            );
        }
    }
}

/// Runs `test` on `value`; a panic is a failure like an `Err`.
fn check<V, F: FnMut(V) -> Result<(), String>>(test: &mut F, value: V) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| test(value))).unwrap_or_else(|panic| {
        let msg = panic.downcast_ref::<&str>().map(ToString::to_string);
        Err(msg
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "the test panicked".into()))
    })
}

/// Shrinks a failing `value`: moves to the first of its
/// [`Strategy::shrink`] candidates that still fails, until none does or
/// [`MAX_SHRINK_RUNS`] runs are spent. Returns the last failing value,
/// its failure and the number of moves.
fn shrink<S, F>(
    strategy: &S,
    mut value: S::Value,
    mut msg: String,
    test: &mut F,
) -> (S::Value, String, usize)
where
    S: Strategy,
    S::Value: Clone,
    F: FnMut(S::Value) -> Result<(), String>,
{
    let (mut runs, mut steps) = (0, 0);
    'moved: loop {
        for candidate in strategy.shrink(&value) {
            if runs == MAX_SHRINK_RUNS {
                break 'moved;
            }
            runs += 1;
            if let Err(failure) = check(test, candidate.clone()) {
                (value, msg) = (candidate, failure);
                steps += 1;
                continue 'moved;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Defines property tests. Each body runs once per generated case; use
/// `prop_assert!`-family macros (not `assert!`) so failures report the
/// case and seed.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let site = $crate::Site {
                package: ::std::env!("CARGO_PKG_NAME"),
                crate_name: ::std::env!("CARGO_CRATE_NAME"),
                integration: ::std::option_env!("CARGO_TARGET_TMPDIR").is_some(),
                module: ::std::module_path!(),
            };
            let strategy = ($($strat,)+);
            $crate::run_property_test(&config, stringify!($name), site, &strategy, |($($arg,)+)| {
                #[allow(clippy::redundant_closure_call)]
                (|| -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    ::std::result::Result::Ok(())
                })()
            });
        }
    )*};
}

/// Asserts inside a `proptest!` body, failing the current case (with
/// context) instead of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__left, __right) => {
                if !(*__left == *__right) {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `{} == {}`\n  left: `{:?}`\n right: `{:?}`",
                        stringify!($left),
                        stringify!($right),
                        __left,
                        __right,
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__left, __right) => {
                if !(*__left == *__right) {
                    return ::std::result::Result::Err(::std::format!(
                        "{}\n  left: `{:?}`\n right: `{:?}`",
                        ::std::format!($($fmt)+),
                        __left,
                        __right,
                    ));
                }
            }
        }
    };
}

/// Weighted (`w => strat`) or unweighted union of strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(::std::vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(::std::vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Everything a property test needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::sample::Index;
    pub use crate::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{parse_seed, run_cases, Site};

    const SITE: Site = Site {
        package: "proptest",
        crate_name: "proptest",
        integration: false,
        module: "proptest::tests",
    };

    /// The panic message of a property that fails, run without replay.
    fn failure<S, F>(name: &str, strategy: &S, test: F) -> String
    where
        S: Strategy,
        S::Value: Clone + std::fmt::Debug,
        F: FnMut(S::Value) -> Result<(), String>,
    {
        let config = ProptestConfig::with_cases(10);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cases(&config, name, SITE, None, strategy, test);
        }))
        .expect_err("the property fails");
        panic
            .downcast_ref::<String>()
            .expect("a formatted panic")
            .clone()
    }

    #[test]
    fn ranges_and_vecs_respect_bounds() {
        let strat = prop::collection::vec(3u32..7, 2..=5);
        crate::run_property_test(
            &ProptestConfig::with_cases(200),
            "bounds",
            SITE,
            &strat,
            |v| {
                if !(2..=5).contains(&v.len()) {
                    return Err(format!("len {}", v.len()));
                }
                if v.iter().any(|x| !(3..7).contains(x)) {
                    return Err(format!("elem out of range: {v:?}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn oneof_hits_every_weighted_variant() {
        let strat = prop_oneof![
            3 => (0usize..4, any::<u8>()).prop_map(|(a, _)| a),
            1 => Just(99usize),
        ];
        let mut seen_small = false;
        let mut seen_just = false;
        crate::run_property_test(
            &ProptestConfig::with_cases(300),
            "oneof",
            SITE,
            &strat,
            |v| {
                match v {
                    99 => seen_just = true,
                    0..=3 => seen_small = true,
                    other => return Err(format!("unexpected {other}")),
                }
                Ok(())
            },
        );
        assert!(seen_small && seen_just);
    }

    #[test]
    fn select_and_index_resolve() {
        let strat = (prop::sample::select(vec![10u8, 20, 30]), any::<Index>());
        crate::run_property_test(
            &ProptestConfig::with_cases(100),
            "select",
            SITE,
            &strat,
            |(v, idx)| {
                if ![10, 20, 30].contains(&v) {
                    return Err(format!("bad select {v}"));
                }
                if idx.index(7) >= 7 {
                    return Err("index out of bounds".into());
                }
                Ok(())
            },
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline itself: params, asserts, early return.
        #[test]
        fn macro_round_trip(data in prop::collection::vec(any::<u8>(), 0..100),
                            k in 1usize..4) {
            let doubled: Vec<u8> = data.iter().map(|b| b.wrapping_mul(2)).collect();
            prop_assert_eq!(doubled.len(), data.len());
            prop_assert!((1..4).contains(&k), "k out of range: {}", k);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_reports_case() {
        crate::run_property_test(
            &ProptestConfig::with_cases(5),
            "always_fails",
            SITE,
            &Just(()),
            |()| Err("nope".to_string()),
        );
    }

    #[test]
    fn a_replayed_seed_regenerates_the_failing_inputs() {
        // The failure is shrunk, but the printed seed replays the case
        // as it was drawn.
        let strat = prop::collection::vec(0u64..1000, 1..20);
        let mut drawn = Vec::new();
        let message = failure("sums_to_2000", &strat, |v| {
            drawn.push(v.clone());
            match v.iter().sum::<u64>() {
                0..=2000 => Ok(()),
                sum => Err(format!("sum {sum}")),
            }
        });
        let printed = message
            .split("XFM_PROPTEST_SEED=")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .expect("the rerun command names the seed");
        let seed = parse_seed(printed).expect("a hex seed");
        let original = drawn.iter().find(|v| v.iter().sum::<u64>() > 2000).unwrap();
        assert!(!message.contains(&format!("{original:?}")), "{message}");

        let mut replayed = Vec::new();
        let config = ProptestConfig::with_cases(10);
        run_cases(&config, "sums_to_2000", SITE, Some(seed), &strat, |v| {
            replayed.push(v);
            Ok(())
        });
        let one_case = std::slice::from_ref(original);
        assert_eq!(replayed, one_case, "one case, the failing inputs");
    }

    #[test]
    fn an_integer_shrinks_to_the_smallest_failing_value() {
        let message = failure("under_1000", &(0u32..100_000), |x| match x {
            0..1000 => Ok(()),
            _ => Err(format!("{x} is not under 1000")),
        });
        assert!(
            message.contains("shrink steps: 1000\n1000 is not under 1000\n"),
            "{message}"
        );
    }

    #[test]
    fn a_vec_shrinks_to_its_shortest_failing_length() {
        let strat = prop::collection::vec(0u8..=255, 0..50);
        let message = failure("shorter_than_3", &strat, |v| match v.len() {
            0..3 => Ok(()),
            len => Err(format!("len {len}")),
        });
        assert!(
            message.contains("shrink steps: [0, 0, 0]\nlen 3\n"),
            "{message}"
        );
    }

    #[test]
    fn a_panicking_case_is_shrunk_and_reported() {
        let message = failure("panics_over_10", &(0i64..=1_000_000), |x| {
            assert!(x <= 10, "{x} is over 10");
            Ok(())
        });
        assert!(
            message.contains("shrink steps: 11\n11 is over 10\n"),
            "{message}"
        );
        assert!(message.contains("rerun: XFM_PROPTEST_SEED="), "{message}");
    }

    #[test]
    fn the_rerun_command_names_package_target_and_test() {
        let integration = Site {
            package: "xfm-sfm",
            crate_name: "sharded_diff",
            integration: true,
            module: "sharded_diff",
        };
        assert_eq!(
            integration.rerun("sharded_matches_model", 0x2a),
            "XFM_PROPTEST_SEED=0x2a cargo test -p xfm-sfm --test sharded_diff \
             -- --exact sharded_matches_model"
        );
        let unit = Site {
            package: "xfm-compress",
            crate_name: "xfm_compress",
            integration: false,
            module: "xfm_compress::lz77::tests",
        };
        assert_eq!(
            unit.rerun("tokens_equal_reference_tokenizer", 7),
            "XFM_PROPTEST_SEED=0x7 cargo test -p xfm-compress --lib \
             -- --exact lz77::tests::tokens_equal_reference_tokenizer"
        );
        assert_eq!(parse_seed("0x1F"), Some(31));
        assert_eq!(parse_seed(" 31 "), Some(31));
        assert_eq!(parse_seed("seed"), None);
    }
}
