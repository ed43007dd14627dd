//! An HDR-style log-bucketed latency histogram.
//!
//! [`LogHistogram`] records `u64` values (nanoseconds, by convention) into
//! logarithmically-spaced buckets: values below 64 get unit-width buckets,
//! and every power-of-two octave above that is split into 64 sub-buckets,
//! so any recorded value is represented with a relative error of at most
//! `1/64` (~1.6 %). Memory is a fixed ~30 KiB regardless of how many
//! values are recorded, recording is two shifts and an add, and two
//! histograms merge bucket-wise — which is what lets per-thread recorders
//! in the experiment drivers aggregate without sharing a lock on the hot
//! path.
//!
//! The `e2e` benchmark and the metrics registry's histograms both report
//! percentiles through this type; it lives here, at the bottom of the
//! crate graph, so that both see identical bucket boundaries. There are
//! deliberately no external dependencies.
//!
//! ```
//! use dinomo_obs::hist::LogHistogram;
//!
//! let mut h = LogHistogram::new();
//! for v in 1..=10_000u64 {
//!     h.record(v);
//! }
//! let p50 = h.value_at_quantile(0.50);
//! // Bucketed percentiles overestimate by at most one bucket (~1.6 %).
//! assert!((5_000..=5_100).contains(&p50), "p50 was {p50}");
//! assert_eq!(h.count(), 10_000);
//! ```

/// log2 of the number of sub-buckets per octave. 6 bits = 64 sub-buckets
/// = at most `2^-6` (~1.6 %) relative quantization error.
const SUB_BUCKET_BITS: u32 = 6;
/// Sub-buckets per octave (and the width of the unit-resolution region).
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Octaves above the unit-resolution region (values `64..=u64::MAX`).
const OCTAVES: usize = 64 - SUB_BUCKET_BITS as usize;
/// Total bucket count.
const BUCKET_COUNT: usize = SUB_BUCKETS + OCTAVES * SUB_BUCKETS;

/// A fixed-size log-bucketed histogram of `u64` values. See the module
/// docs for the bucket layout and error bound.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKET_COUNT]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.total)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("mean", &self.mean())
            .field("p50", &self.value_at_quantile(0.5))
            .field("p99", &self.value_at_quantile(0.99))
            .finish()
    }
}

/// Bucket index for `value`.
fn index_of(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        // 2^k <= value < 2^(k+1), with k >= SUB_BUCKET_BITS.
        let k = 63 - value.leading_zeros();
        let shift = k - SUB_BUCKET_BITS;
        // value >> shift is in [SUB_BUCKETS, 2*SUB_BUCKETS).
        let sub = (value >> shift) as usize - SUB_BUCKETS;
        SUB_BUCKETS + (k - SUB_BUCKET_BITS) as usize * SUB_BUCKETS + sub
    }
}

/// The largest value that maps into bucket `index` (percentile queries
/// return this, so a reported percentile never undershoots the true one).
fn upper_bound_of(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let octave = ((index - SUB_BUCKETS) / SUB_BUCKETS) as u32;
        let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        let base = (SUB_BUCKETS as u64 + sub) << octave;
        // `base` has its low `octave` bits clear, so this fills them with
        // ones without the `base + 2^octave` intermediate, which would
        // overflow in the very top bucket (whose bound is u64::MAX).
        base | ((1u64 << octave) - 1)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0u64; BUCKET_COUNT]
                .into_boxed_slice()
                .try_into()
                .expect("bucket count is fixed"),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index_of(value)] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram's counts into this one (bucket-wise add).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset to empty (keeps the allocation).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values, exact (recording keeps a running sum).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` (`0.0..=1.0`): an upper bound on the
    /// smallest value `v` such that at least `ceil(q * count)` recorded
    /// values are `<= v`, overestimating by at most one bucket width
    /// (a relative error of `1/64`). Returns 0 on an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64)
            .max(1)
            .min(self.total);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                // Never report past the recorded extremes.
                return upper_bound_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Bucket-wise difference `self - earlier`: the histogram of values
    /// recorded after `earlier` was captured, for windowed views of a
    /// cumulative histogram. `earlier` must be an earlier snapshot of
    /// the same histogram (buckets saturate at zero otherwise). The
    /// window's min/max are recovered at bucket resolution — exact
    /// extremes are not derivable from cumulative counts alone.
    pub fn diff(&self, earlier: &LogHistogram) -> LogHistogram {
        let mut out = LogHistogram::new();
        for (i, (now, then)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            let d = now.saturating_sub(*then);
            if d > 0 {
                out.counts[i] = d;
                out.min = out.min.min(upper_bound_of(i));
                out.max = out.max.max(upper_bound_of(i));
            }
        }
        out.total = self.total.saturating_sub(earlier.total);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — a tiny local generator so these tests need no RNG dep.
    struct SplitMix(u64);
    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn small_values_have_unit_resolution() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(1.0), 63);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        // Exact below 64: the p50 of 0..=63 is the 32nd value (ceil(32)).
        assert_eq!(h.value_at_quantile(0.5), 31);
    }

    #[test]
    fn index_and_upper_bound_are_consistent_across_the_range() {
        // For every probe: the bucket's upper bound maps back into the
        // same bucket, and a value never lands above its bucket's upper
        // bound.
        let mut probes = vec![0u64, 1, 63, 64, 65, 127, 128, 1_000_000];
        let mut rng = SplitMix(7);
        for _ in 0..10_000 {
            let shift = (rng.next() % 64) as u32;
            probes.push(rng.next() >> shift);
        }
        probes.push(u64::MAX);
        for &v in &probes {
            let i = index_of(v);
            assert!(i < BUCKET_COUNT, "index {i} out of range for {v}");
            let ub = upper_bound_of(i);
            assert!(ub >= v, "upper bound {ub} below value {v}");
            assert_eq!(index_of(ub), i, "upper bound {ub} not in bucket of {v}");
            // Relative error bound: bucket width / value <= 1/64.
            if v >= SUB_BUCKETS as u64 {
                assert!((ub - v) as f64 <= v as f64 / 64.0 + 1.0);
            }
        }
    }

    #[test]
    fn percentiles_match_a_sorted_vector_oracle_within_one_bucket() {
        let mut rng = SplitMix(42);
        // Log-uniform samples: exercise every octave's bucket math.
        let samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let shift = (rng.next() % 50) as u32;
                (rng.next() >> shift).max(1)
            })
            .collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize)
                .max(1)
                .min(sorted.len());
            let oracle = sorted[rank - 1];
            let bucketed = h.value_at_quantile(q);
            assert!(
                bucketed >= oracle,
                "q={q}: bucketed {bucketed} < oracle {oracle}"
            );
            assert!(
                bucketed as f64 <= oracle as f64 * (1.0 + 1.0 / 64.0) + 1.0,
                "q={q}: bucketed {bucketed} too far above oracle {oracle}"
            );
        }
        assert_eq!(h.max(), *sorted.last().unwrap());
        assert_eq!(h.min(), sorted[0]);
        let mean_oracle = sorted.iter().map(|&v| v as f64).sum::<f64>() / sorted.len() as f64;
        assert!((h.mean() - mean_oracle).abs() < 1e-6 * mean_oracle.max(1.0));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut rng = SplitMix(9);
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut combined = LogHistogram::new();
        for i in 0..10_000u64 {
            let v = rng.next() >> (rng.next() % 40);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.value_at_quantile(q), combined.value_at_quantile(q));
        }
    }

    #[test]
    fn diff_recovers_the_window_between_two_snapshots() {
        let mut rng = SplitMix(11);
        let mut cumulative = LogHistogram::new();
        let mut window_oracle = LogHistogram::new();
        for _ in 0..5_000u64 {
            cumulative.record(rng.next() >> (rng.next() % 40));
        }
        let baseline = cumulative.clone();
        for _ in 0..5_000u64 {
            let v = rng.next() >> (rng.next() % 40);
            cumulative.record(v);
            window_oracle.record(v);
        }
        let window = cumulative.diff(&baseline);
        assert_eq!(window.count(), window_oracle.count());
        assert!((window.mean() - window_oracle.mean()).abs() < 1e-6 * window_oracle.mean());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(
                window.value_at_quantile(q),
                window_oracle.value_at_quantile(q)
            );
        }
        // Diff of identical snapshots is empty.
        assert!(cumulative.diff(&cumulative).is_empty());
    }

    #[test]
    fn clear_resets_and_extremes_survive_extreme_values() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.99), 0);
    }
}
