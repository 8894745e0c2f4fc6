//! Primitive word generators modeling the value populations seen on a
//! memory read (load-data) bus.

use crate::source::TraceSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniform random 32-bit words — the stand-in for double-precision
/// mantissa halves and other high-entropy payloads that dominate
/// FP-intensive SPEC programs (`mgrid`, `swim`, `applu`, `wupwise`).
/// These words produce dense, uncorrelated adjacent toggles — the
/// near-worst coupling patterns.
#[derive(Debug, Clone)]
pub struct RandomWords {
    rng: SmallRng,
}

impl RandomWords {
    /// Creates a seeded generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0001),
        }
    }
}

impl TraceSource for RandomWords {
    fn next_word(&mut self) -> u32 {
        self.rng.random()
    }
}

/// Small signed integers (loop counters, flags, character data): a
/// geometric magnitude distribution, sign-extended — upper bits nearly
/// static, activity confined to the low bits.
#[derive(Debug, Clone)]
pub struct SmallIntWords {
    rng: SmallRng,
    max_bits: u32,
}

impl SmallIntWords {
    /// Creates a generator of values up to `max_bits` significant bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= max_bits <= 31`.
    #[must_use]
    pub fn new(seed: u64, max_bits: u32) -> Self {
        assert!((1..=31).contains(&max_bits), "max_bits out of range");
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0002),
            max_bits,
        }
    }
}

impl TraceSource for SmallIntWords {
    fn next_word(&mut self) -> u32 {
        // Geometric-ish width: each extra bit half as likely.
        let mut width = 1;
        while width < self.max_bits && self.rng.random::<bool>() {
            width += 1;
        }
        let magnitude: u32 = self.rng.random_range(0..(1u32 << width));
        if self.rng.random_bool(0.25) {
            // Negative two's complement: sign-extended ones above `width`.
            (magnitude | !((1u32 << width) - 1)).wrapping_neg()
        } else {
            magnitude
        }
    }
}

/// Pointer/array-address streams: a base with a regular stride,
/// re-basing occasionally (new object / new page). High bits are stable,
/// low-middle bits count predictably — exactly how `mcf`-style pointer
/// chasing looks on a load bus.
#[derive(Debug, Clone)]
pub struct StrideWords {
    rng: SmallRng,
    base: u32,
    stride: u32,
    index: u32,
    rebase_probability: f64,
}

impl StrideWords {
    /// Creates a generator with a re-base probability per word.
    ///
    /// # Panics
    ///
    /// Panics if `rebase_probability` is outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, rebase_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rebase_probability),
            "probability out of range"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0003);
        let base = rng.random::<u32>() & 0x7FFF_FFC0;
        let stride = [4u32, 8, 16, 24, 32, 64][rng.random_range(0..6usize)];
        Self {
            rng,
            base,
            stride,
            index: 0,
            rebase_probability,
        }
    }
}

impl TraceSource for StrideWords {
    fn next_word(&mut self) -> u32 {
        if self.rng.random_bool(self.rebase_probability) {
            self.base = self.rng.random::<u32>() & 0x7FFF_FFC0;
            self.stride = [4u32, 8, 16, 24, 32, 64][self.rng.random_range(0..6usize)];
            self.index = 0;
        }
        let w = self.base.wrapping_add(self.stride.wrapping_mul(self.index));
        self.index = self.index.wrapping_add(1);
        w
    }
}

/// Value locality: with probability `reuse_probability` the next word is
/// one of the `depth` most recent distinct values (hot scalars, repeated
/// loads); otherwise it is drawn from the inner source. Chess engines and
/// interpreters (`crafty`, `gap`) show very high load-value reuse.
#[derive(Debug, Clone)]
pub struct ValueLocalityWords<S> {
    rng: SmallRng,
    inner: S,
    pool: Vec<u32>,
    depth: usize,
    reuse_probability: f64,
    cursor: usize,
}

impl<S: TraceSource> ValueLocalityWords<S> {
    /// Wraps `inner` with an LRU reuse pool.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` or the probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, inner: S, depth: usize, reuse_probability: f64) -> Self {
        assert!(depth > 0, "reuse pool must hold at least one value");
        assert!(
            (0.0..=1.0).contains(&reuse_probability),
            "probability out of range"
        );
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0004),
            inner,
            pool: Vec::with_capacity(depth),
            depth,
            reuse_probability,
            cursor: 0,
        }
    }
}

impl<S: TraceSource> TraceSource for ValueLocalityWords<S> {
    fn next_word(&mut self) -> u32 {
        if !self.pool.is_empty() && self.rng.random_bool(self.reuse_probability) {
            let i = self.rng.random_range(0..self.pool.len());
            return self.pool[i];
        }
        let w = self.inner.next_word();
        if self.pool.len() < self.depth {
            self.pool.push(w);
        } else {
            self.pool[self.cursor] = w;
            self.cursor = (self.cursor + 1) % self.depth;
        }
        w
    }
}

/// Zero-dominated streams (cleared buffers, NULL-heavy structures) with
/// occasional non-zero bursts.
#[derive(Debug, Clone)]
pub struct ZeroBurstWords {
    rng: SmallRng,
    nonzero_probability: f64,
}

impl ZeroBurstWords {
    /// Creates a generator emitting non-zero words with the given
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, nonzero_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&nonzero_probability),
            "probability out of range"
        );
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0005),
            nonzero_probability,
        }
    }
}

impl TraceSource for ZeroBurstWords {
    fn next_word(&mut self) -> u32 {
        if self.rng.random_bool(self.nonzero_probability) {
            self.rng.random::<u32>() & 0x0000_FFFF
        } else {
            0
        }
    }

    /// The same draws as `next_word`, from a local copy of the
    /// generator so its state stays in registers (written back after).
    fn fill_words(&mut self, out: &mut [u32]) {
        let (mut rng, p) = (self.rng.clone(), self.nonzero_probability);
        for w in out.iter_mut() {
            *w = if rng.random_bool(p) {
                rng.random::<u32>() & 0x0000_FFFF
            } else {
                0
            };
        }
        self.rng = rng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let mut a = RandomWords::new(7);
        let mut b = RandomWords::new(7);
        assert_eq!(a.take_words(16), b.take_words(16));
        let mut c = RandomWords::new(8);
        assert_ne!(a.take_words(16), c.take_words(16));
    }

    #[test]
    fn small_ints_have_low_magnitude_or_sign_extension() {
        let mut g = SmallIntWords::new(1, 12);
        for w in g.take_words(2_000) {
            let positive_small = w < (1 << 12);
            let negative_small = w > u32::MAX - (1 << 13);
            assert!(positive_small || negative_small, "word {w:#010x}");
        }
    }

    #[test]
    fn strides_advance_regularly_between_rebases() {
        let mut g = StrideWords::new(3, 0.0);
        let w = g.take_words(5);
        let d1 = w[1].wrapping_sub(w[0]);
        assert!(d1 > 0);
        for pair in w.windows(2) {
            assert_eq!(pair[1].wrapping_sub(pair[0]), d1);
        }
    }

    #[test]
    fn value_locality_reuses_pool_values() {
        let inner = RandomWords::new(5);
        let mut g = ValueLocalityWords::new(5, inner, 8, 0.9);
        let words = g.take_words(4_000);
        let mut uniques = words.clone();
        uniques.sort_unstable();
        uniques.dedup();
        // 90% reuse from a pool of 8: far fewer uniques than words.
        assert!(
            uniques.len() < words.len() / 4,
            "{} uniques of {}",
            uniques.len(),
            words.len()
        );
    }

    #[test]
    fn zero_bursts_are_mostly_zero() {
        let mut g = ZeroBurstWords::new(2, 0.05);
        let words = g.take_words(4_000);
        let zeros = words.iter().filter(|&&w| w == 0).count();
        assert!(zeros > 3_500, "zeros = {zeros}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        let _ = ZeroBurstWords::new(0, 1.5);
    }
}
