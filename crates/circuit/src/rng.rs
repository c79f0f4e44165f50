//! The repository's only pseudo-random generators, both pinned by a golden
//! test: [`Rng`] (xoshiro256\*\*) generates input — the randomized families
//! of [`crate::generators`], the cases of [`crate::prop`] — so a spec plus a
//! seed names one circuit in tests, CLI, daemon and benchmark alike;
//! [`SplitMix64`] seeds it and is the uniform source handed to the samplers
//! (`--shots`, measurement). Neither is cryptographic.

use std::ops::Range;

/// SplitMix64: a tiny deterministic uniform generator.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// A `FnMut() -> f64` closure borrowing this generator.
    pub fn as_fn(&mut self) -> impl FnMut() -> f64 + '_ {
        move || self.next_f64()
    }
}

/// The top 53 bits of `bits` as a multiple of 2^-53: uniform in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256\*\* seeded by four SplitMix64 draws.
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: std::array::from_fn(|_| sm.next_u64()),
        }
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform `f64` in `[0, 1)` (53 random bits).
    pub fn f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform `f64` in the half-open `range`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "f64_in: empty range");
        range.start + (range.end - range.start) * self.f64()
    }

    /// Uniform integer in the half-open `range`.
    pub fn range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "range: empty range");
        let span = (range.end - range.start) as u128;
        // Multiply-shift maps 64 random bits onto [0, span); the bias is
        // below 2^-32 for every span the generators ask for.
        range.start + ((self.next_u64() as u128 * span) >> 64) as usize
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streams every recorded circuit, benchmark number and shot count
    /// in this repository is about. A change here renames every instance.
    #[test]
    fn streams_are_pinned() {
        // seed, two raw draws, bits of `f64()` and of `f64_in(0..2 pi)`,
        // `range` over 0..10, 3..1000 and 0..3, `bool(0.5)`.
        #[rustfmt::skip]
        let golden = [
            (0u64, [0x99ec5f36cb75f2b4, 0xbf6e1f784956452a], 0x3fba5f849d4933e0, 0x4004f0a72e6728d2, [7, 999, 1], false),
            (1, [0xb3f2af6d0fc710c5, 0x853b559647364cea], 0x3fe25f12eac10548, 0x4003ab9a27e35954, [6, 146, 0], true),
            (42, [0x15780b2e0c2ec716, 0x6104d9866d113a7e], 0x3fe5c2ea66473c93, 0x40173d7521430c3b, [9, 770, 2], false),
            (u64::MAX, [0x8f5520d52a7ead08, 0xc476a018caa1802d], 0x3fe03bc6381a4c08, 0x4012ca52d01de3cd, [5, 732, 1], false),
        ];
        for (seed, raw, unit, angle, ints, coin) in golden {
            let mut r = Rng::seed_from_u64(seed);
            assert_eq!([r.next_u64(), r.next_u64()], raw, "seed {seed}");
            assert_eq!(r.f64().to_bits(), unit, "seed {seed}");
            let two_pi = 2.0 * std::f64::consts::PI;
            assert_eq!(r.f64_in(0.0..two_pi).to_bits(), angle, "seed {seed}");
            let got = [r.range(0..10), r.range(3..1000), r.range(0..3)];
            assert_eq!(got, ints, "seed {seed}");
            assert_eq!(r.bool(0.5), coin, "seed {seed}");
        }
        let mut sm = SplitMix64::new(1);
        assert_eq!(sm.next_u64(), 0x910a2dec89025cc1);
        assert_eq!(sm.next_u64(), 0xbeeb8da1658eec67);
        assert_eq!(sm.next_f64().to_bits(), 0x3fef12745ddf664a);
    }

    #[test]
    fn draws_stay_inside_their_ranges() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!((3..10).contains(&r.range(3..10)));
            assert!((1.0..2.0).contains(&r.f64_in(1.0..2.0)));
        }
        assert_eq!(r.range(5..6), 5);
    }
}
