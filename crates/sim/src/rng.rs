//! Deterministic pseudo-random numbers for the simulator.
//!
//! The simulator must be bit-exactly reproducible from a seed, across
//! platforms and across versions of third-party crates, so it ships its own
//! tiny generator instead of depending on `rand`: xoshiro256\*\* seeded via
//! SplitMix64 (the construction recommended by the xoshiro authors).

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// Not cryptographically secure; used only for workload generation, jitter,
/// packet-loss decisions and check-field generation inside the simulation.
///
/// # Examples
///
/// ```
/// use amoeba_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start from the all-zero state; SplitMix64 of any
        // seed cannot produce four zero outputs in a row, but be defensive.
        if s == [0, 0, 0, 0] {
            SimRng { s: [1, 2, 3, 4] }
        } else {
            SimRng { s }
        }
    }

    /// Derives an independent generator for a sub-stream (e.g. per process).
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let _ = splitmix64(&mut sm);
        SimRng::new(splitmix64(&mut sm))
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
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

    /// A 64-bit digest of the generator's current state.
    ///
    /// The xoshiro state is a perfect summary of the draw history from a
    /// given starting state, so comparing digests at matching points of two
    /// runs detects any divergence in the number or order of draws. Does
    /// not advance the generator.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &w in &self.s {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
        }
        h
    }

    /// A uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire's multiply-shift rejection method: unbiased and fast.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// A uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.next_below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_and_deterministic() {
        let base = SimRng::new(99);
        let mut f1 = base.fork(1);
        let mut f1b = base.fork(1);
        let mut f2 = base.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn next_below_in_bounds() {
        let mut r = SimRng::new(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[r.next_below(4) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "count {c} out of range");
        }
    }

    #[test]
    fn range_in_bounds() {
        let mut r = SimRng::new(5);
        for _ in 0..100 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(0).range(5, 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(13);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(17);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_is_calibrated() {
        let mut r = SimRng::new(19);
        let hits = (0..20_000).filter(|_| r.chance(0.25)).count();
        assert!((4_300..5_700).contains(&hits), "hits {hits}");
    }

    #[test]
    fn pick_returns_member() {
        let mut r = SimRng::new(31);
        let xs = [10, 20, 30];
        for _ in 0..20 {
            assert!(xs.contains(r.pick(&xs)));
        }
    }
}
