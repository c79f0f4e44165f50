//! Offline stand-in for the subset of `rand` 0.8 that `qcircuit` uses:
//! `StdRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}`.
//!
//! The generator is xoshiro256** seeded through SplitMix64. It is
//! deterministic per seed but does **not** reproduce the streams of the
//! published crate, so circuits generated under this stand-in differ from
//! those generated under real `rand` for the same seed.

use std::ops::Range;

/// Seeding interface (only `seed_from_u64` is provided).
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample(rng: &mut rngs::StdRng) -> Self;
}

/// Types `Rng::gen_range` can produce from a half-open range.
pub trait SampleRange: Sized {
    /// Draws one value of `range` from `rng`.
    fn sample(rng: &mut rngs::StdRng, range: Range<Self>) -> Self;
}

/// The user-facing sampling methods.
pub trait Rng {
    /// The next 64 raw bits.
    fn next_u64(&mut self) -> u64;
    /// A value of `T` from its standard distribution (`f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T;
    /// A value drawn uniformly from the half-open `range`.
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T;
    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

/// Generator types.
pub mod rngs {
    /// xoshiro256** behind the `StdRng` name.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        rngs::StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl Standard for f64 {
    fn sample(rng: &mut rngs::StdRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample(rng: &mut rngs::StdRng) -> u64 {
        rng.next_u64()
    }
}

impl SampleRange for f64 {
    fn sample(rng: &mut rngs::StdRng, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + (range.end - range.start) * rng.gen::<f64>()
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut rngs::StdRng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end - range.start) as u64;
                // Multiply-shift maps 64 random bits onto [0, span); the bias
                // is below 2^-32 for every span the generators ask for.
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                range.start + off as $t
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        let mut c = rngs::StdRng::seed_from_u64(8);
        let mut differs = false;
        for _ in 0..1000 {
            let x = a.gen_range(0..10usize);
            assert_eq!(x, b.gen_range(0..10usize));
            differs |= x != c.gen_range(0..10usize);
            assert!(x < 10);
            let f = a.gen_range(1.0..2.0);
            b.gen_range(1.0..2.0);
            assert!((1.0..2.0).contains(&f));
        }
        assert!(differs);
    }
}
