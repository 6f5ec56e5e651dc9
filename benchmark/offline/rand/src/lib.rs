//! Offline stand-in for `rand` 0.8: the names this repository uses
//! (`rngs::StdRng`, `SeedableRng::seed_from_u64`, `Rng::gen_range`) over a
//! xoshiro256** generator seeded through splitmix64.
//!
//! The stream differs from the real crate's ChaCha12, so generated datasets
//! differ from ones made with the registry crate; they are still a pure
//! function of the seed.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    /// The next word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draw one value. Panics on an empty range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer below `n` (`n > 0`) by rejection, so no value is favoured.
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        // 53 random mantissa bits give a uniform value in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

/// Convenience methods on every generator.
pub trait Rng: RngCore {
    /// A value drawn uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_range(0.0..1.0) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The default seeded generator (xoshiro256** here).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expands the seed so that nearby seeds give
            // unrelated states, and the state is never all zero.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let mut differs = false;
        for _ in 0..1000 {
            let x: u64 = a.gen_range(1..=100);
            assert_eq!(x, b.gen_range(1..=100));
            differs |= x != c.gen_range(1..=100u64);
            assert!((1..=100).contains(&x));
            let f: f64 = a.gen_range(0.0..1.0);
            assert_eq!(f, b.gen_range(0.0..1.0));
            assert!((0.0..1.0).contains(&f));
            let _: f64 = c.gen_range(0.0..1.0);
            let i: u32 = a.gen_range(0..3);
            assert_eq!(i, b.gen_range(0..3));
            let _: u32 = c.gen_range(0..3);
            assert!(i < 3);
        }
        assert!(differs);
    }

    #[test]
    fn uniform_enough() {
        let mut r = StdRng::seed_from_u64(1);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.gen_range(0..10usize)] += 1;
        }
        assert!(buckets.iter().all(|&b| (9_000..11_000).contains(&b)));
    }
}
