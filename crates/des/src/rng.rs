//! Deterministic randomness for simulations.
//!
//! [`SimRng`] wraps a seeded [`rand::rngs::SmallRng`] and exposes only the
//! distributions the simulators need, so all stochastic behaviour in a run
//! is reproducible from a single `u64` seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded random-number generator for simulation use.
///
/// # Examples
///
/// ```
/// use jetsim_des::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Samples uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "uniform: lo ({lo}) > hi ({hi})");
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Samples a uniform integer from `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64: lo ({lo}) > hi ({hi})");
        self.inner.gen_range(lo..=hi)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Samples a normally distributed value via Box–Muller, clamped to be
    /// non-negative. Useful for jittering latencies around a mean.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.inner.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mean + std_dev * z).max(0.0)
    }

    /// Multiplies `value` by a relative jitter factor drawn from
    /// `[1 - spread, 1 + spread]`.
    #[inline]
    pub fn jitter(&mut self, value: f64, spread: f64) -> f64 {
        let spread = spread.clamp(0.0, 0.95);
        value * self.uniform(1.0 - spread, 1.0 + spread + f64::EPSILON)
    }
}

/// Sebastiano Vigna's splitmix64 finalizer: a cheap, well-mixed 64-bit
/// hash used to derive decorrelated seeds (sweep cells, fleet homes,
/// network jitter) from a master seed.
///
/// # Examples
///
/// ```
/// use jetsim_des::splitmix64;
///
/// assert_eq!(splitmix64(7), splitmix64(7));
/// assert_ne!(splitmix64(7), splitmix64(8));
/// ```
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over a byte string: tiny, dependency-free and stable across
/// platforms and runs — the workspace's one content fingerprint (engine
/// cache keys, model-graph fingerprints, pinned trace and report
/// digests).
///
/// # Examples
///
/// ```
/// use jetsim_des::fnv1a;
///
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

/// Streaming [`fnv1a`]: bytes fed in pieces hash exactly as their
/// concatenation does in one call.
///
/// # Examples
///
/// ```
/// use jetsim_des::{fnv1a, Fnv1a};
///
/// let mut hash = Fnv1a::new();
/// hash.write(b"jet");
/// hash.write(b"sim");
/// assert_eq!(hash.finish(), fnv1a(b"jetsim"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty hash (the FNV-1a 64 offset basis).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let va: Vec<u64> = (0..16).map(|_| a.uniform_u64(0, u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.uniform_u64(0, u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn uniform_panics_on_inverted_bounds() {
        SimRng::seed_from(0).uniform(2.0, 1.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(5.0));
    }

    #[test]
    fn chance_probability_roughly_respected() {
        let mut rng = SimRng::seed_from(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn normal_clamped_never_negative() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..1000 {
            assert!(rng.normal_clamped(1.0, 5.0) >= 0.0);
        }
    }

    #[test]
    fn normal_mean_roughly_respected() {
        let mut rng = SimRng::seed_from(8);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.normal_clamped(10.0, 1.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut rng = SimRng::seed_from(10);
        for _ in 0..1000 {
            let v = rng.jitter(100.0, 0.1);
            assert!((89.9..=110.2).contains(&v), "v={v}");
        }
        // spread 0 is exact
        assert!((rng.jitter(100.0, 0.0) - 100.0).abs() < 1e-9);
    }
}
