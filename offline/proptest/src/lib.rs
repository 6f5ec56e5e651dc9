//! Offline stand-in for `proptest` 1.x: the names this repository's tests
//! use, with the published crate's signatures, over a seeded xorshift
//! generator.
//!
//! What differs from the published crate: a failing input is reported as
//! generated (there is no shrinking), every runner starts from the same
//! seed (so a run repeats exactly), and failures are not persisted to a
//! regressions file.

pub mod strategy {
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    use crate::test_runner::TestRng;

    /// A recipe for random values of one type.
    pub trait Strategy {
        /// The type of value generated.
        type Value: Debug;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// A strategy yielding `f` of this one's values.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// This strategy behind a pointer, so that strategies of different
        /// types with one value type can share a collection.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::boxed`].
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// One of several strategies, chosen by weight (built by `prop_oneof!`).
    pub struct Union<T>(Vec<(u32, BoxedStrategy<T>)>);

    impl<T: Debug> Union<T> {
        /// A union over `arms`; each is picked in proportion to its weight.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(
                arms.iter().any(|(w, _)| *w > 0),
                "a union needs an arm with a positive weight"
            );
            Union(arms)
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.0.iter().map(|(w, _)| u64::from(*w)).sum();
            let mut pick = rng.below(total);
            for (weight, arm) in &self.0 {
                if pick < u64::from(*weight) {
                    return arm.generate(rng);
                }
                pick -= u64::from(*weight);
            }
            unreachable!("pick is below the sum of the weights")
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample an empty range");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample an empty range");
                    match ((hi - lo) as u64).checked_add(1) {
                        Some(span) => lo + rng.below(span) as $t,
                        None => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u32, u64, usize);

    /// A string pattern is a strategy for strings matching it. Of the
    /// published crate's regex syntax only `[class]{min,max}` is understood,
    /// where the class lists characters and `a-z` ranges.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (alphabet, min, max) = parse_class_repeat(self)
                .unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
            let len = (min..=max).generate(rng);
            (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect()
        }
    }

    fn parse_class_repeat(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
        let (class, repeat) = pattern.strip_prefix('[')?.split_once("]{")?;
        let (min, max) = repeat.strip_suffix('}')?.split_once(',')?;
        let class: Vec<char> = class.chars().collect();
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                alphabet.extend(class[i]..=class[i + 2]);
                i += 3;
            } else {
                alphabet.push(class[i]);
                i += 1;
            }
        }
        let (min, max) = (min.parse().ok()?, max.parse().ok()?);
        (!alphabet.is_empty() && min <= max).then_some((alphabet, min, max))
    }

    macro_rules! tuples {
        ($(($($s:ident . $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuples! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod arbitrary {
    use std::fmt::Debug;
    use std::marker::PhantomData;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a default strategy over all their values.
    pub trait Arbitrary: Debug + Sized {
        /// Draw any value of the type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// See [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The default strategy of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // One draw in eight is an edge value, as the published
                    // crate biases toward them.
                    match rng.below(16) {
                        0 => 0,
                        1 => <$t>::MAX,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    ints!(u8, u16, u32, u64, usize);
}

pub mod collection {
    use std::collections::BTreeMap;
    use std::ops::{Range, RangeInclusive};

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Bounds on a generated collection's length (both inclusive).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange(usize, usize);

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange(r.start, r.end - 1)
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange(*r.start(), *r.end())
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n, n)
        }
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            (self.0..=self.1).generate(rng)
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S>(S, SizeRange);

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (0..self.1.pick(rng))
                .map(|_| self.0.generate(rng))
                .collect()
        }
    }

    /// Vectors of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy(element, size.into())
    }

    /// See [`btree_map`].
    pub struct BTreeMapStrategy<K, V>(K, V, SizeRange);

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let want = self.2.pick(rng);
            let mut map = BTreeMap::new();
            // Duplicate keys collapse, so draw more than `want` times before
            // settling for a smaller map (never below the lower bound unless
            // the key space is that small).
            for _ in 0..want * 10 + 10 {
                if map.len() >= want {
                    break;
                }
                map.insert(self.0.generate(rng), self.1.generate(rng));
            }
            map
        }
    }

    /// Maps of `key` to `value` with a number of entries in `size`.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy(key, value, size.into())
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (rng.below(4) > 0).then(|| self.0.generate(rng))
        }
    }

    /// `None`, or `Some` of a value of `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod sample {
    use std::fmt::Debug;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// See [`select`].
    pub struct Select<T>(Vec<T>);

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// One of `values`, uniformly.
    pub fn select<T: Clone + Debug + 'static>(values: impl Into<Vec<T>>) -> Select<T> {
        let values = values.into();
        assert!(!values.is_empty(), "nothing to select from");
        Select(values)
    }
}

pub mod test_runner {
    use std::fmt;

    use crate::strategy::Strategy;

    /// The generator strategies draw from (xorshift64*).
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        /// The next word of the stream.
        pub fn next_u64(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform integer below `n` (`n > 0`), by rejection.
        pub fn below(&mut self, n: u64) -> u64 {
            let zone = u64::MAX - (u64::MAX - n + 1) % n;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % n;
                }
            }
        }
    }

    /// How a runner runs (only the case count is configurable here).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of inputs each property is checked against.
        pub cases: u32,
    }

    impl Config {
        /// The default configuration with `cases` inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Why one input failed.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The input is outside what the property covers; it is skipped.
        Reject(String),
        /// The property does not hold for the input.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure carrying `reason`.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejection carrying `reason`.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Reject(why) => write!(f, "input rejected: {why}"),
                TestCaseError::Fail(why) => write!(f, "{why}"),
            }
        }
    }

    /// What a property returns for one input.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Why a whole run failed.
    #[derive(Debug, Clone)]
    pub enum TestError<T> {
        /// The run gave up (too many rejected inputs).
        Abort(String),
        /// The property failed on the carried input.
        Fail(String, T),
    }

    impl<T: fmt::Debug> fmt::Display for TestError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestError::Abort(why) => write!(f, "test aborted: {why}"),
                TestError::Fail(why, input) => {
                    write!(f, "test failed: {why}; failing input: {input:?}")
                }
            }
        }
    }

    /// Checks a property against generated inputs.
    #[derive(Debug, Clone)]
    pub struct TestRunner {
        config: Config,
        rng: TestRng,
    }

    impl TestRunner {
        /// A runner with `config`, starting from the fixed seed.
        pub fn new(config: Config) -> Self {
            TestRunner {
                config,
                rng: TestRng(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// Check `test` against `config.cases` values of `strategy`,
        /// stopping at the first failure.
        pub fn run<S: Strategy>(
            &mut self,
            strategy: &S,
            test: impl Fn(S::Value) -> TestCaseResult,
        ) -> Result<(), TestError<S::Value>> {
            let mut rejects = 0u32;
            let mut passed = 0u32;
            while passed < self.config.cases {
                // Generate twice from a cloned generator, so the failing
                // input can be reported although `test` consumed the first.
                let mut replay = self.rng.clone();
                match test(strategy.generate(&mut self.rng)) {
                    Ok(()) => passed += 1,
                    Err(TestCaseError::Reject(why)) => {
                        rejects += 1;
                        if rejects > 65_536 {
                            return Err(TestError::Abort(format!("too many rejects: {why}")));
                        }
                    }
                    Err(TestCaseError::Fail(why)) => {
                        return Err(TestError::Fail(why, strategy.generate(&mut replay)));
                    }
                }
            }
            Ok(())
        }
    }

    impl Default for TestRunner {
        fn default() -> Self {
            TestRunner::new(Config::default())
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The crate's modules under the short name tests use.
    pub mod prop {
        pub use crate::{collection, option, sample, strategy, test_runner};
    }
}

/// Define `#[test]` functions whose arguments are drawn from strategies:
/// `fn name(a in strategy_a, b in strategy_b) { body }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@tests ($config) $($rest)*);
    };
    (@tests ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::new($config);
            let outcome = runner.run(&($($strategy,)+), |($($arg,)+)| {
                $body
                Ok(())
            });
            if let Err(e) = outcome {
                panic!("{}", e);
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@tests ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// Fail the current input unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current input unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            left, right, format!($($fmt)+)
        );
    }};
}

/// Fail the current input if `left == right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "values are equal")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n value: `{:?}`: {}",
            left, format!($($fmt)+)
        );
    }};
}

/// A strategy picking one of the given strategies, optionally weighted
/// (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRunner;

    #[test]
    fn ranges_collections_and_unions_stay_in_bounds() {
        let strategy = (
            3u64..9,
            prop::collection::vec(prop_oneof![2 => 0u8..4, 1 => Just(200u8)], 1..5),
            prop::option::of(prop::sample::select(vec!['a', 'b'])),
            prop::collection::btree_map(0u32..50, any::<bool>(), 2..6),
            "[A-Cx]{1,3}",
        );
        TestRunner::default()
            .run(&strategy, |(n, bytes, letter, map, text)| {
                prop_assert!((3..9).contains(&n));
                prop_assert!((1..5).contains(&bytes.len()));
                prop_assert!(bytes.iter().all(|b| *b < 4 || *b == 200));
                prop_assert!(matches!(letter, None | Some('a' | 'b')));
                prop_assert!((2..6).contains(&map.len()));
                prop_assert!((1..=3).contains(&text.len()));
                prop_assert!(text.chars().all(|c| "ABCx".contains(c)), "{}", text);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn a_failing_case_reports_its_input() {
        let err = TestRunner::new(ProptestConfig::with_cases(64))
            .run(&(0u32..100), |n| {
                prop_assert_eq!(n % 7, n % 7 + u32::from(n > 40), "n = {}", n);
                Ok(())
            })
            .unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("n = ") && text.contains("failing input"),
            "{text}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro form: two arguments, a trailing comma, a doc comment.
        #[test]
        fn macro_defines_a_test(a in 0usize..10, b in any::<u8>(),) {
            prop_assert!(a < 10);
            prop_assert_ne!(u64::from(b), 256);
        }
    }
}
