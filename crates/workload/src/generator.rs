//! The operation-stream generator.

use crate::keys::key_for;
use crate::mix::WorkloadMix;
use crate::zipf::{KeyDistribution, ZipfianGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// `lookup(key)`.
    Read(Vec<u8>),
    /// `update(key, value)` of an existing key.
    Update(Vec<u8>, Vec<u8>),
    /// `insert(key, value)` of a new key.
    Insert(Vec<u8>, Vec<u8>),
    /// `delete(key)`.
    Delete(Vec<u8>),
    /// `scan(start, n)`: up to `n` consecutive keys starting at the
    /// smallest key `>= start`, in key order.
    Scan(Vec<u8>, usize),
}

impl Operation {
    /// The key this operation targets (the start key, for scans).
    pub fn key(&self) -> &[u8] {
        match self {
            Operation::Read(k) | Operation::Delete(k) => k,
            Operation::Update(k, _) | Operation::Insert(k, _) => k,
            Operation::Scan(k, _) => k,
        }
    }

    /// `true` for updates, inserts and deletes.
    pub fn is_write(&self) -> bool {
        !matches!(self, Operation::Read(_) | Operation::Scan(..))
    }
}

/// Configuration of a workload stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of keys loaded before the measurement phase.
    pub num_keys: u64,
    /// Key length in bytes (the paper uses 8).
    pub key_len: usize,
    /// Value length in bytes (the paper uses 1024; the DAC microbenchmark
    /// uses 64).
    pub value_len: usize,
    /// Request mix.
    pub mix: WorkloadMix,
    /// Key-popularity distribution.
    pub distribution: KeyDistribution,
    /// RNG seed (workloads are deterministic given the seed).
    pub seed: u64,
    /// Largest scan length a scan operation requests (each scan draws a
    /// length uniformly in `1..=max_scan_len`). Only consulted when the
    /// mix has a non-zero scan fraction.
    pub max_scan_len: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_keys: 100_000,
            key_len: 8,
            value_len: 1024,
            mix: WorkloadMix::READ_ONLY,
            distribution: KeyDistribution::MODERATE_SKEW,
            seed: 42,
            max_scan_len: 16,
        }
    }
}

/// A deterministic stream of [`Operation`]s following a [`WorkloadConfig`].
///
/// Inserts target fresh key ids beyond the loaded key space (and extend the
/// space readable by later reads), mirroring YCSB's insert behaviour and the
/// paper's "write up to 100 GB of data during the workload including
/// inserts".
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    zipf: Option<ZipfianGenerator>,
    rng: StdRng,
    /// Exclusive upper bound of the currently-existing key ids.
    key_space: u64,
    ops_generated: u64,
}

impl WorkloadGenerator {
    /// Create a generator for the given configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        assert!(config.num_keys > 0, "workload needs at least one key");
        assert!(config.mix.is_valid(), "invalid workload mix");
        let zipf = match config.distribution {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipfian { theta } => {
                Some(ZipfianGenerator::new(config.num_keys, theta, true))
            }
        };
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(config.seed),
            zipf,
            key_space: config.num_keys,
            config,
            ops_generated: 0,
        }
    }

    /// The configuration this generator was created with.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Number of operations generated so far (excluding the load phase).
    pub fn ops_generated(&self) -> u64 {
        self.ops_generated
    }

    /// Current size of the key space (grows with inserts).
    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    /// The `(key, value)` pairs of the load phase. Iterating this fully
    /// before running the stream reproduces the paper's "load 32 GB then run"
    /// methodology at whatever scale `num_keys` dictates.
    pub fn load_phase(&self) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
        (0..self.config.num_keys).map(move |id| (self.key(id), self.value_for(id)))
    }

    fn key(&self, id: u64) -> Vec<u8> {
        key_for(id, self.config.key_len)
    }

    fn value_for(&self, id: u64) -> Vec<u8> {
        // Deterministic value content derived from the id so correctness
        // checks can recompute the expected bytes.
        let fill = (id % 251) as u8;
        vec![fill; self.config.value_len]
    }

    fn pick_existing_key(&mut self) -> u64 {
        let id = match &self.zipf {
            Some(z) => z.next(&mut self.rng),
            None => self.rng.gen_range(0..self.config.num_keys),
        };
        // Inserts may have grown the key space; fold the extra keys in for
        // uniform workloads, keep the zipf head for skewed ones.
        id.min(self.key_space - 1)
    }

    /// Generate the next operation.
    ///
    /// The branch order (read, update, delete, scan, insert) keeps the
    /// stream of every delete-free mix identical to what earlier versions
    /// generated for the same seed — a zero delete fraction collapses the
    /// delete branch to the old update/insert boundary — and likewise a
    /// zero scan fraction collapses the scan branch (the scan length is
    /// drawn *inside* the branch, so scan-free mixes consume exactly the
    /// same RNG stream as before scans existed).
    pub fn next_op(&mut self) -> Operation {
        self.ops_generated += 1;
        let r: f64 = self.rng.gen();
        let mix = self.config.mix;
        if r < mix.read_fraction {
            let id = self.pick_existing_key();
            Operation::Read(self.key(id))
        } else if r < mix.read_fraction + mix.update_fraction {
            let id = self.pick_existing_key();
            Operation::Update(self.key(id), self.value_for(id ^ self.ops_generated))
        } else if r < mix.read_fraction + mix.update_fraction + mix.delete_fraction {
            // Deletes target existing (possibly already-deleted) keys; a
            // later update of the same key re-inserts it, so skewed CRUD
            // mixes cycle hot keys through delete/re-insert — the churn
            // the linearizability checker wants.
            let id = self.pick_existing_key();
            Operation::Delete(self.key(id))
        } else if r < mix.read_fraction
            + mix.update_fraction
            + mix.delete_fraction
            + mix.scan_fraction
        {
            // Scans start at a distribution-chosen existing key (YCSB-E
            // picks Zipfian start keys) and request a short range.
            let id = self.pick_existing_key();
            let n = self.rng.gen_range(0..self.config.max_scan_len.max(1)) + 1;
            Operation::Scan(self.key(id), n)
        } else {
            let id = self.key_space;
            self.key_space += 1;
            Operation::Insert(self.key(id), self.value_for(id))
        }
    }

    /// Generate the next `n` operations — the batched analogue of
    /// [`WorkloadGenerator::next_op`], feeding batched clients
    /// (`KvsClient::execute`) without changing the generated stream: one
    /// `next_batch(n)` equals `n` consecutive `next_op()` calls.
    pub fn next_batch(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// Expected value bytes for key id `id` as produced by the load phase.
    pub fn expected_loaded_value(&self, id: u64) -> Vec<u8> {
        self.value_for(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(mix: WorkloadMix) -> WorkloadConfig {
        WorkloadConfig {
            num_keys: 1_000,
            value_len: 64,
            mix,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = WorkloadGenerator::new(config(WorkloadMix::WRITE_HEAVY_UPDATE));
        let mut b = WorkloadGenerator::new(config(WorkloadMix::WRITE_HEAVY_UPDATE));
        for _ in 0..500 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn next_batch_equals_consecutive_next_ops() {
        let mut a = WorkloadGenerator::new(config(WorkloadMix::WRITE_HEAVY_INSERT));
        let mut b = WorkloadGenerator::new(config(WorkloadMix::WRITE_HEAVY_INSERT));
        let batched: Vec<Operation> = a.next_batch(64);
        let singles: Vec<Operation> = (0..64).map(|_| b.next_op()).collect();
        assert_eq!(batched, singles);
        assert_eq!(a.key_space(), b.key_space());
        assert_eq!(a.ops_generated(), b.ops_generated());
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut g = WorkloadGenerator::new(config(WorkloadMix::READ_MOSTLY_UPDATE));
        let ops = g.next_batch(20_000);
        let reads = ops
            .iter()
            .filter(|o| matches!(o, Operation::Read(_)))
            .count();
        let updates = ops
            .iter()
            .filter(|o| matches!(o, Operation::Update(..)))
            .count();
        let frac_reads = reads as f64 / ops.len() as f64;
        let frac_updates = updates as f64 / ops.len() as f64;
        assert!((frac_reads - 0.95).abs() < 0.01, "reads {frac_reads}");
        assert!((frac_updates - 0.05).abs() < 0.01, "updates {frac_updates}");
    }

    #[test]
    fn inserts_extend_the_key_space_with_fresh_keys() {
        let mut g = WorkloadGenerator::new(config(WorkloadMix::WRITE_HEAVY_INSERT));
        let before = g.key_space();
        let ops = g.next_batch(1_000);
        let inserts: Vec<_> = ops
            .iter()
            .filter(|o| matches!(o, Operation::Insert(..)))
            .collect();
        assert!(!inserts.is_empty());
        assert_eq!(g.key_space(), before + inserts.len() as u64);
        // Inserted keys are all distinct and not part of the loaded space.
        let loaded: std::collections::HashSet<Vec<u8>> = g.load_phase().map(|(k, _)| k).collect();
        let mut seen = std::collections::HashSet::new();
        for op in inserts {
            assert!(!loaded.contains(op.key()));
            assert!(seen.insert(op.key().to_vec()), "duplicate insert key");
        }
    }

    #[test]
    fn load_phase_covers_all_keys_with_expected_values() {
        let g = WorkloadGenerator::new(config(WorkloadMix::READ_ONLY));
        let pairs: Vec<_> = g.load_phase().collect();
        assert_eq!(pairs.len(), 1_000);
        assert_eq!(pairs[5].1, g.expected_loaded_value(5));
        assert_eq!(pairs[5].1.len(), 64);
    }

    #[test]
    fn reads_target_loaded_keys() {
        let mut g = WorkloadGenerator::new(config(WorkloadMix::READ_ONLY));
        let loaded: std::collections::HashSet<Vec<u8>> = g.load_phase().map(|(k, _)| k).collect();
        for op in g.next_batch(2_000) {
            assert!(loaded.contains(op.key()));
            assert!(!op.is_write());
        }
    }

    #[test]
    fn crud_mix_generates_deletes_of_existing_keys() {
        let mut g = WorkloadGenerator::new(config(WorkloadMix::CRUD));
        let ops = g.next_batch(20_000);
        let deletes: Vec<_> = ops
            .iter()
            .filter(|o| matches!(o, Operation::Delete(_)))
            .collect();
        let frac = deletes.len() as f64 / ops.len() as f64;
        assert!((frac - 0.10).abs() < 0.01, "delete fraction {frac}");
        // Deletes only target keys that exist(ed) — loaded or inserted.
        let key_space = g.key_space();
        for op in &ops {
            if matches!(op, Operation::Delete(_)) {
                let loaded: Vec<Vec<u8>> = (0..key_space).map(|id| key_for(id, 8)).collect();
                assert!(loaded.contains(&op.key().to_vec()));
                break; // spot-check one (the full scan is O(n²))
            }
        }
        // All four op kinds appear.
        assert!(ops.iter().any(|o| matches!(o, Operation::Read(_))));
        assert!(ops.iter().any(|o| matches!(o, Operation::Update(..))));
        assert!(ops.iter().any(|o| matches!(o, Operation::Insert(..))));
    }

    #[test]
    fn delete_free_mix_streams_are_unchanged_by_the_delete_branch() {
        // A zero delete fraction must generate exactly the stream the
        // pre-delete generator produced (same RNG draws, same branches),
        // so existing seeds stay reproducible.
        let mut g = WorkloadGenerator::new(config(WorkloadMix::WRITE_HEAVY_UPDATE));
        for op in g.next_batch(5_000) {
            assert!(!matches!(op, Operation::Delete(_)));
        }
    }

    #[test]
    fn scan_free_mix_streams_are_unchanged_by_the_scan_branch() {
        // Mirrors the delete-branch determinism test: a zero scan fraction
        // must generate exactly the stream the pre-scan generator produced
        // (same RNG draws, same branches — the scan length is drawn inside
        // the scan branch), so existing seeds stay reproducible.
        let mut g = WorkloadGenerator::new(config(WorkloadMix::CRUD));
        let ops = g.next_batch(5_000);
        assert!(ops.iter().all(|op| !matches!(op, Operation::Scan(..))));
        // Byte-identical to a generator whose config differs only in
        // max_scan_len — the knob must be inert for scan-free mixes.
        let mut other = WorkloadGenerator::new(WorkloadConfig {
            max_scan_len: 999,
            ..config(WorkloadMix::CRUD)
        });
        assert_eq!(ops, other.next_batch(5_000));
    }

    #[test]
    fn ycsb_e_mix_generates_mostly_scans_over_existing_keys() {
        let mut g = WorkloadGenerator::new(config(WorkloadMix::YCSB_E));
        let loaded: std::collections::HashSet<Vec<u8>> = g.load_phase().map(|(k, _)| k).collect();
        let max_scan_len = g.config().max_scan_len;
        let ops = g.next_batch(20_000);
        let scans: Vec<_> = ops
            .iter()
            .filter_map(|o| match o {
                Operation::Scan(start, n) => Some((start, *n)),
                _ => None,
            })
            .collect();
        let frac = scans.len() as f64 / ops.len() as f64;
        assert!((frac - 0.95).abs() < 0.01, "scan fraction {frac}");
        for (start, n) in &scans {
            assert!((1..=max_scan_len).contains(n));
            assert!(!(*start).is_empty());
        }
        // Start keys come from the loaded space (inserts extend it, but
        // the Zipf chooser stays on the head).
        assert!(scans.iter().filter(|(s, _)| loaded.contains(*s)).count() * 10 > scans.len() * 9);
        // The remaining 5% are inserts, and scans are not writes.
        assert!(ops.iter().any(|o| matches!(o, Operation::Insert(..))));
        let scan = Operation::Scan(b"s".to_vec(), 3);
        assert_eq!(scan.key(), b"s");
        assert!(!scan.is_write());
    }

    #[test]
    fn skewed_overwrite_preset_keeps_the_key_space_fixed_and_hot() {
        let mut g = WorkloadGenerator::new(WorkloadConfig {
            num_keys: 64,
            key_len: 8,
            value_len: 256,
            mix: WorkloadMix::SKEWED_OVERWRITE,
            distribution: KeyDistribution::HIGH_SKEW,
            seed: 7,
            max_scan_len: 16,
        });
        let before = g.key_space();
        let ops = g.next_batch(10_000);
        assert_eq!(g.key_space(), before, "no inserts: the hot set is fixed");
        let updates = ops
            .iter()
            .filter(|o| matches!(o, Operation::Update(..)))
            .count();
        assert!(
            (updates as f64 / ops.len() as f64 - 0.95).abs() < 0.01,
            "updates {updates}"
        );
        // High skew: a handful of hot keys absorb most of the overwrites.
        let mut counts: std::collections::HashMap<Vec<u8>, usize> = Default::default();
        for op in &ops {
            *counts.entry(op.key().to_vec()).or_default() += 1;
        }
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top4: usize = sorted.iter().take(4).sum();
        assert!(
            top4 * 2 > ops.len(),
            "top-4 keys should absorb >50% of a high-skew stream, got {top4}/{}",
            ops.len()
        );
    }

    #[test]
    fn uniform_distribution_works() {
        let mut g = WorkloadGenerator::new(WorkloadConfig {
            distribution: KeyDistribution::Uniform,
            ..config(WorkloadMix::READ_ONLY)
        });
        let ops = g.next_batch(5_000);
        let distinct: std::collections::HashSet<_> = ops.iter().map(|o| o.key().to_vec()).collect();
        assert!(
            distinct.len() > 900,
            "uniform should touch most of 1000 keys"
        );
    }

    #[test]
    fn operation_accessors() {
        let op = Operation::Update(b"k".to_vec(), b"v".to_vec());
        assert_eq!(op.key(), b"k");
        assert!(op.is_write());
        assert!(!Operation::Read(b"k".to_vec()).is_write());
        assert!(Operation::Delete(b"k".to_vec()).is_write());
    }
}
