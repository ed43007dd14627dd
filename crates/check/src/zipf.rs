//! Random draws: the seeded generator every stream draws from, and the
//! key-popularity distributions.

/// The one random-number generator of the op streams: xoshiro256++ seeded
/// through SplitMix64. Every stream is a pure function of its seed.
#[derive(Debug, Clone)]
pub(crate) struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose stream is a pure function of `seed`: the first
    /// four SplitMix64 outputs, as the xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let next = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(GOLDEN_GAMMA)));
        Rng {
            s: [next(1), next(2), next(3), next(4)],
        }
    }

    /// 64 uniformly random bits (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` by multiply-shift. There is no rejection step: the
    /// simulated workloads tolerate the ~2^-64 bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// SplitMix64's increment, 2^64 / φ.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output function, a bijective 64-bit mix.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which key-popularity distribution to draw from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with the given coefficient (`theta`). The paper uses 0.5
    /// ("low skew, close to uniform"), 0.99 (YCSB default, "moderate skew")
    /// and 2.0 ("high skew").
    Zipfian {
        /// Zipf exponent.
        theta: f64,
    },
}

impl KeyDistribution {
    /// The paper's moderate-skew (YCSB default) setting.
    pub const MODERATE_SKEW: KeyDistribution = KeyDistribution::Zipfian { theta: 0.99 };
}

/// A Zipfian rank sampler over `0..n` using an explicit inverse CDF.
///
/// YCSB's rejection-sampling approximation is only valid for exponents below
/// one; the paper also needs `theta = 2`, so we build the cumulative
/// distribution explicitly (8 bytes per key) and binary-search it.  Ranks are
/// optionally scrambled (hashed) across the key space, as YCSB does, so that
/// "hot" keys are not adjacent ids.
#[derive(Debug, Clone)]
pub(crate) struct ZipfianGenerator {
    cdf: Vec<f64>,
    scrambled: bool,
}

impl ZipfianGenerator {
    /// Build a sampler over `n` keys with exponent `theta`, optionally
    /// scrambling ranks across the id space.
    pub fn new(n: u64, theta: f64, scrambled: bool) -> Self {
        assert!(n > 0, "key space must be non-empty");
        let n_usize = usize::try_from(n).expect("key space too large for in-memory CDF");
        let mut cdf = Vec::with_capacity(n_usize);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfianGenerator { cdf, scrambled }
    }

    /// Draw a key id in `0..n`.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let n = self.cdf.len() as u64;
        let rank = match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i as u64,
            Err(i) => (i as u64).min(n - 1),
        };
        if self.scrambled {
            scramble(rank) % n
        } else {
            rank
        }
    }
}

/// FNV-style scramble used to spread ranks over the id space (YCSB's
/// "scrambled zipfian").
fn scramble(rank: u64) -> u64 {
    let mut h = rank ^ 0xcbf2_9ce4_8422_2325;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 29;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    fn histogram(dist: &ZipfianGenerator, samples: usize) -> HashMap<u64, u64> {
        let mut rng = Rng::seed_from_u64(7);
        let mut h = HashMap::new();
        for _ in 0..samples {
            *h.entry(dist.next(&mut rng)).or_insert(0) += 1;
        }
        h
    }

    /// Share of `samples` draws of an unscrambled `theta` sampler over `n`
    /// keys that land on the `k` hottest ids.
    fn head_share(n: u64, theta: f64, k: u64, samples: usize) -> f64 {
        let h = histogram(&ZipfianGenerator::new(n, theta, false), samples);
        (0..k).filter_map(|id| h.get(&id)).sum::<u64>() as f64 / samples as f64
    }

    #[test]
    fn deterministic_per_seed() {
        let draws = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(7);
        let draws: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let mean = draws.iter().sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_respects_bounds() {
        // Every value of 0..10 is drawn, endpoints included, and none else.
        let mut rng = Rng::seed_from_u64(9);
        let seen: BTreeSet<u64> = (0..10_000).map(|_| rng.below(10)).collect();
        assert_eq!(seen, (0..10).collect());
    }

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfianGenerator::new(1000, 0.99, true);
        let mut rng = Rng::seed_from_u64(1);
        assert!((0..10_000).all(|_| z.next(&mut rng) < 1000));
    }

    #[test]
    fn high_theta_is_more_skewed_than_low_theta() {
        let low = head_share(10_000, 0.5, 10, 50_000);
        let high = head_share(10_000, 2.0, 10, 50_000);
        assert!(high > 3.0 * low, "head share {high} vs {low}");
        // With theta = 2 the vast majority of accesses hit a handful of keys.
        assert!(high > 0.8);
    }

    #[test]
    fn theta_099_roughly_matches_ycsb_expectations() {
        // YCSB zipfian(0.99): the most popular ~0.1% of keys draw roughly a
        // third to a half of the accesses.
        let frac = head_share(100_000, 0.99, 100, 100_000);
        assert!(frac > 0.25 && frac < 0.6, "unexpected head mass {frac}");
    }

    #[test]
    fn scrambling_spreads_hot_keys_but_preserves_skew() {
        let n = 10_000u64;
        // The hottest ranks do not land on ids 0, 1, 2, 3.
        let hot: Vec<u64> = (0..4).map(|rank| scramble(rank) % n).collect();
        assert_ne!(hot, vec![0, 1, 2, 3]);
        let h = histogram(&ZipfianGenerator::new(n, 0.99, true), 50_000);
        let max = h.values().copied().max().unwrap();
        assert!(max > 1_000, "scrambled distribution lost its skew ({max})");
    }

    #[test]
    fn uniform_distribution_constant_exists() {
        let moderate = KeyDistribution::Zipfian { theta: 0.99 };
        assert_eq!(KeyDistribution::MODERATE_SKEW, moderate);
        assert_ne!(KeyDistribution::Uniform, moderate);
    }
}
