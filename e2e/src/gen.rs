//! The benchmark's inputs: a seeded generator the store knows nothing
//! about. One seed fixes every key choice, every read/write decision and
//! every arrival time; the store receives only the generated operations.
//!
//! Writes are single-writer per key: client thread `t` of `clients` writes
//! only keys whose id is `t` modulo `clients` (by rejection sampling, so
//! the skew inside each class is the workload's own). That makes a key's
//! versions totally ordered, which is what lets [`crate::check`] verify
//! every reply exactly instead of within a window.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state, passes BigCrush,
/// and a stream is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`, 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2^-40 for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// SplitMix64's output function, also used to derive sub-seeds and the
/// value filler.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent sub-seed for `(seed, stream)`: phases and client threads
/// each draw from their own stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// How keys are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Zipfian with exponent `theta`, ranks scrambled over the key space by
    /// a bijection so hot keys are spread across KNs and shards.
    Zipf(f64),
}

/// YCSB's Zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases") over `n` ranks, rank 0 hottest.
#[derive(Debug, Clone)]
struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Multiplier of the rank → key-id bijection `id = rank * A mod n`
/// (a prime, so coprime to every key count below it).
const SCRAMBLE: u64 = 2_654_435_761;

/// Seeded key chooser over ids `0..n`.
#[derive(Debug, Clone)]
pub struct KeyChooser {
    n: u64,
    zipf: Option<Zipf>,
}

impl KeyChooser {
    pub fn new(n: u64, dist: KeyDist) -> Self {
        assert!((2..SCRAMBLE).contains(&n), "key count out of range");
        let zipf = match dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf(theta) => Some(Zipf::new(n, theta)),
        };
        KeyChooser { n, zipf }
    }

    pub fn next(&self, rng: &mut SplitMix64) -> u64 {
        match &self.zipf {
            None => rng.below(self.n),
            Some(z) => Self::scramble(z.rank(rng.next_f64()), self.n),
        }
    }

    fn scramble(rank: u64, n: u64) -> u64 {
        ((u128::from(rank) * u128::from(SCRAMBLE)) % u128::from(n)) as u64
    }

    /// Ids of the `k` hottest keys (rank order). Uniform has no hot keys;
    /// it returns the first `k` ids.
    pub fn hottest(&self, k: u64) -> Vec<u64> {
        (0..k)
            .map(|r| match self.zipf {
                Some(_) => Self::scramble(r, self.n),
                None => r,
            })
            .collect()
    }
}

/// The 8-byte key of key id `id` (big-endian, so key order is id order).
pub fn key_bytes(id: u64) -> [u8; 8] {
    id.to_be_bytes()
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOp {
    pub key: u64,
    pub write: bool,
}

/// One client thread's operation stream: key choice plus read/write
/// decision, with the single-writer-per-key rule applied to writes.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    chooser: KeyChooser,
    write_share: f64,
    thread: u64,
    clients: u64,
}

impl OpStream {
    pub fn new(
        seed: u64,
        stream: u64,
        chooser: KeyChooser,
        write_share: f64,
        thread: u64,
        clients: u64,
    ) -> Self {
        OpStream {
            rng: SplitMix64::new(sub_seed(seed, stream * 64 + thread)),
            chooser,
            write_share,
            thread,
            clients,
        }
    }

    pub fn next_op(&mut self) -> GenOp {
        let write = self.write_share > 0.0 && self.rng.next_f64() < self.write_share;
        let mut key = self.chooser.next(&mut self.rng);
        while write && key % self.clients != self.thread {
            key = self.chooser.next(&mut self.rng);
        }
        GenOp { key, write }
    }
}

/// Poisson arrivals at `rate_per_s`: exponential gaps, as offsets in
/// nanoseconds from the phase start.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: SplitMix64,
    mean_gap_ns: f64,
    at_ns: f64,
}

impl Arrivals {
    pub fn new(seed: u64, stream: u64, thread: u64, rate_per_s: f64) -> Self {
        Arrivals {
            rng: SplitMix64::new(sub_seed(seed, (stream * 64 + thread) ^ 0x5eed_a771)),
            mean_gap_ns: 1e9 / rate_per_s,
            at_ns: 0.0,
        }
    }

    pub fn next_ns(&mut self) -> u64 {
        // 1 - u is in (0, 1], so the logarithm is finite.
        self.at_ns += -(1.0 - self.rng.next_f64()).ln() * self.mean_gap_ns;
        self.at_ns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, n: usize) -> Vec<u8> {
        let chooser = KeyChooser::new(20_000, KeyDist::Zipf(0.99));
        let mut ops = OpStream::new(seed, 3, chooser, 0.5, 1, 2);
        let mut arrivals = Arrivals::new(seed, 3, 1, 2_000.0);
        let mut out = Vec::new();
        for _ in 0..n {
            let op = ops.next_op();
            out.extend_from_slice(&op.key.to_le_bytes());
            out.push(u8::from(op.write));
            out.extend_from_slice(&arrivals.next_ns().to_le_bytes());
        }
        out
    }

    #[test]
    fn one_seed_gives_a_byte_identical_stream_and_schedule() {
        assert_eq!(stream_bytes(7, 5_000), stream_bytes(7, 5_000));
    }

    #[test]
    fn another_seed_gives_another_stream() {
        assert_ne!(stream_bytes(7, 5_000), stream_bytes(8, 5_000));
    }

    #[test]
    fn writes_stay_in_the_threads_own_key_class() {
        let chooser = KeyChooser::new(1_000, KeyDist::Zipf(0.99));
        let mut ops = OpStream::new(1, 0, chooser, 0.5, 1, 2);
        let mut writes = 0;
        for _ in 0..10_000 {
            let op = ops.next_op();
            assert!(op.key < 1_000);
            if op.write {
                writes += 1;
                assert_eq!(op.key % 2, 1);
            }
        }
        assert!((4_000..6_000).contains(&writes));
    }

    #[test]
    fn zipf_is_skewed_and_scrambling_is_a_bijection() {
        let n = 20_000;
        let chooser = KeyChooser::new(n, KeyDist::Zipf(0.99));
        let mut rng = SplitMix64::new(42);
        let hottest = chooser.hottest(1)[0];
        let draws = 100_000;
        let hot = (0..draws)
            .filter(|_| chooser.next(&mut rng) == hottest)
            .count();
        // Rank 0 of Zipf(0.99) over 20k keys carries ~9.6 % of the mass.
        assert!((7_000..13_000).contains(&hot), "hot draws {hot}");
        let mut ids: Vec<u64> = (0..n).map(|r| KeyChooser::scramble(r, n)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, n);
    }

    #[test]
    fn arrivals_average_the_requested_rate() {
        let mut a = Arrivals::new(9, 0, 0, 50_000.0);
        let mut last = 0;
        for _ in 0..100_000 {
            let t = a.next_ns();
            assert!(t >= last);
            last = t;
        }
        // 100k arrivals at 50k/s take ~2 s.
        assert!((1.9e9..2.1e9).contains(&(last as f64)), "took {last} ns");
    }
}
