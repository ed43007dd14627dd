//! The operation-stream generator.

use crate::mix::WorkloadMix;
use crate::zipf::{KeyDistribution, Rng, ZipfianGenerator};
use dinomo_core::key_for;

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
}

impl Operation {
    /// The key this operation targets.
    pub fn key(&self) -> &[u8] {
        match self {
            Operation::Read(k) | Operation::Delete(k) => k,
            Operation::Update(k, _) | Operation::Insert(k, _) => k,
        }
    }
}

/// Configuration of a workload stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of keys loaded before the measurement phase.
    pub num_keys: u64,
    /// Value length in bytes (the paper uses 1024; the DAC microbenchmark
    /// uses 64).
    pub value_len: usize,
    /// Request mix.
    pub mix: WorkloadMix,
    /// Key-popularity distribution.
    pub distribution: KeyDistribution,
    /// RNG seed (workloads are deterministic given the seed).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_keys: 100_000,
            value_len: 1024,
            mix: WorkloadMix::READ_ONLY,
            distribution: KeyDistribution::MODERATE_SKEW,
            seed: 42,
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
    rng: Rng,
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
            rng: Rng::seed_from_u64(config.seed),
            zipf,
            key_space: config.num_keys,
            config,
            ops_generated: 0,
        }
    }

    /// The `(key, value)` pairs of the load phase. Iterating this fully
    /// before running the stream reproduces the paper's "load 32 GB then run"
    /// methodology at whatever scale `num_keys` dictates.
    pub fn load_phase(&self) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
        (0..self.config.num_keys).map(move |id| (key_for(id, 8), self.value_for(id)))
    }

    fn value_for(&self, id: u64) -> Vec<u8> {
        // Deterministic value content derived from the id so correctness
        // checks can recompute the expected bytes.
        vec![(id % 251) as u8; self.config.value_len]
    }

    fn pick_existing_key(&mut self) -> u64 {
        let id = match &self.zipf {
            Some(z) => z.next(&mut self.rng),
            None => self.rng.below(self.config.num_keys),
        };
        // Inserts may have grown the key space; fold the extra keys in for
        // uniform workloads, keep the zipf head for skewed ones.
        id.min(self.key_space - 1)
    }

    /// Generate the next operation.
    ///
    /// The branch order (read, update, delete, insert) keeps the stream of
    /// every delete-free mix identical to what earlier versions generated
    /// for the same seed — a zero delete fraction collapses the delete
    /// branch to the old update/insert boundary.
    pub fn next_op(&mut self) -> Operation {
        self.ops_generated += 1;
        let r = self.rng.next_f64();
        let mix = self.config.mix;
        if r < mix.read_fraction {
            let id = self.pick_existing_key();
            Operation::Read(key_for(id, 8))
        } else if r < mix.read_fraction + mix.update_fraction {
            let id = self.pick_existing_key();
            Operation::Update(key_for(id, 8), self.value_for(id ^ self.ops_generated))
        } else if r < mix.read_fraction + mix.update_fraction + mix.delete_fraction {
            // Deletes target existing (possibly already-deleted) keys; a
            // later update of the same key re-inserts it, so skewed CRUD
            // mixes cycle hot keys through delete/re-insert — the churn
            // the linearizability checker wants.
            let id = self.pick_existing_key();
            Operation::Delete(key_for(id, 8))
        } else {
            let id = self.key_space;
            self.key_space += 1;
            Operation::Insert(key_for(id, 8), self.value_for(id))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `n` ops of a 1,000-key, 64-byte-value stream of `mix`.
    fn stream(mix: WorkloadMix, n: usize) -> (WorkloadGenerator, Vec<Operation>) {
        let mut g = WorkloadGenerator::new(WorkloadConfig {
            num_keys: 1_000,
            value_len: 64,
            mix,
            ..WorkloadConfig::default()
        });
        let ops = (0..n).map(|_| g.next_op()).collect();
        (g, ops)
    }

    fn share(ops: &[Operation], kind: fn(&Operation) -> bool) -> f64 {
        ops.iter().filter(|&op| kind(op)).count() as f64 / ops.len() as f64
    }

    fn loaded_keys(g: &WorkloadGenerator) -> HashSet<Vec<u8>> {
        g.load_phase().map(|(k, _)| k).collect()
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = stream(WorkloadMix::WRITE_HEAVY_UPDATE, 500);
        let (_, b) = stream(WorkloadMix::WRITE_HEAVY_UPDATE, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let (_, ops) = stream(WorkloadMix::READ_MOSTLY_UPDATE, 20_000);
        let reads = share(&ops, |o| matches!(o, Operation::Read(_)));
        let updates = share(&ops, |o| matches!(o, Operation::Update(..)));
        assert!((reads - 0.95).abs() < 0.01, "reads {reads}");
        assert!((updates - 0.05).abs() < 0.01, "updates {updates}");
    }

    #[test]
    fn inserts_extend_the_key_space_with_fresh_keys() {
        let (g, ops) = stream(WorkloadMix::READ_MOSTLY_INSERT, 2_000);
        let inserts: Vec<&[u8]> = ops
            .iter()
            .filter(|o| matches!(o, Operation::Insert(..)))
            .map(Operation::key)
            .collect();
        assert!(!inserts.is_empty());
        assert_eq!(g.key_space, 1_000 + inserts.len() as u64);
        // Inserted keys are all distinct and not part of the loaded space.
        let loaded = loaded_keys(&g);
        let mut seen = HashSet::new();
        for key in inserts {
            assert!(!loaded.contains(key));
            assert!(seen.insert(key), "duplicate insert key");
        }
    }

    #[test]
    fn load_phase_covers_all_keys_with_expected_values() {
        let (g, _) = stream(WorkloadMix::READ_ONLY, 0);
        let pairs: Vec<_> = g.load_phase().collect();
        assert_eq!(pairs.len(), 1_000);
        assert_eq!(pairs[5], (key_for(5, 8), vec![5u8; 64]));
    }

    #[test]
    fn reads_target_loaded_keys() {
        let (g, ops) = stream(WorkloadMix::READ_ONLY, 2_000);
        let loaded = loaded_keys(&g);
        for op in ops {
            assert!(matches!(op, Operation::Read(_)));
            assert!(loaded.contains(op.key()));
        }
    }

    #[test]
    fn crud_mix_generates_deletes_of_existing_keys() {
        let (g, ops) = stream(WorkloadMix::CRUD, 20_000);
        let is_delete = |o: &Operation| matches!(o, Operation::Delete(_));
        let frac = share(&ops, is_delete);
        assert!((frac - 0.10).abs() < 0.01, "delete fraction {frac}");
        // Deletes only target keys that exist(ed) — loaded or inserted.
        let existed: HashSet<Vec<u8>> = (0..g.key_space).map(|id| key_for(id, 8)).collect();
        let mut deletes = ops.iter().filter(|&o| is_delete(o));
        assert!(deletes.all(|op| existed.contains(op.key())));
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
        let (_, ops) = stream(WorkloadMix::WRITE_HEAVY_UPDATE, 5_000);
        assert!(!ops.iter().any(|o| matches!(o, Operation::Delete(_))));
    }

    #[test]
    fn uniform_distribution_works() {
        let mut g = WorkloadGenerator::new(WorkloadConfig {
            num_keys: 1_000,
            distribution: KeyDistribution::Uniform,
            ..WorkloadConfig::default()
        });
        let distinct: HashSet<_> = (0..5_000).map(|_| g.next_op().key().to_vec()).collect();
        assert!(distinct.len() > 900, "{} of 1000 keys", distinct.len());
    }

    #[test]
    fn operation_accessors() {
        assert_eq!(Operation::Update(b"k".to_vec(), b"v".to_vec()).key(), b"k");
        assert_eq!(Operation::Insert(b"i".to_vec(), b"v".to_vec()).key(), b"i");
        assert_eq!(Operation::Read(b"r".to_vec()).key(), b"r");
        assert_eq!(Operation::Delete(b"d".to_vec()).key(), b"d");
    }
}
