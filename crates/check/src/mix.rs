//! Request mixes.

/// A request mix: fractions of reads, updates, inserts and deletes (they
/// must sum to 1.0). The paper's benchmark mixes use no deletes (its
/// evaluation does not benchmark them); the delete fraction exists for the
/// correctness workloads — the linearizability checker's generative driver
/// needs delete/re-insert churn to catch resurrection and stale-tombstone
/// bugs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Fraction of lookup operations.
    pub read_fraction: f64,
    /// Fraction of update operations (overwrite an existing key).
    pub update_fraction: f64,
    /// Fraction of insert operations (new keys).
    pub insert_fraction: f64,
    /// Fraction of delete operations (remove an existing key).
    pub delete_fraction: f64,
}

/// A mix of the given read, update, insert and delete fractions.
const fn mix(read: f64, update: f64, insert: f64, delete: f64) -> WorkloadMix {
    WorkloadMix {
        read_fraction: read,
        update_fraction: update,
        insert_fraction: insert,
        delete_fraction: delete,
    }
}

impl WorkloadMix {
    /// 100 % reads.
    pub const READ_ONLY: WorkloadMix = mix(1.0, 0.0, 0.0, 0.0);
    /// 95 % reads / 5 % updates.
    pub const READ_MOSTLY_UPDATE: WorkloadMix = mix(0.95, 0.05, 0.0, 0.0);
    /// 95 % reads / 5 % inserts.
    pub const READ_MOSTLY_INSERT: WorkloadMix = mix(0.95, 0.0, 0.05, 0.0);
    /// 50 % reads / 50 % updates.
    pub const WRITE_HEAVY_UPDATE: WorkloadMix = mix(0.5, 0.5, 0.0, 0.0);
    /// Full CRUD churn: 50 % reads / 25 % updates / 15 % inserts / 10 %
    /// deletes. Not a paper mix — this is the linearizability checker's
    /// default workload, where delete/re-insert cycling on skewed keys is
    /// what exposes resurrection and stale-tombstone bugs.
    pub const CRUD: WorkloadMix = mix(0.5, 0.25, 0.15, 0.10);

    /// `true` if the fractions sum to 1 (within floating-point tolerance).
    pub fn is_valid(&self) -> bool {
        let fractions = [
            self.read_fraction,
            self.update_fraction,
            self.insert_fraction,
            self.delete_fraction,
        ];
        fractions.iter().all(|&f| f >= 0.0) && (fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_predefined_mixes_are_valid() {
        for mix in [
            &WorkloadMix::WRITE_HEAVY_UPDATE,
            &WorkloadMix::READ_MOSTLY_UPDATE,
            &WorkloadMix::READ_MOSTLY_INSERT,
            &WorkloadMix::READ_ONLY,
            &WorkloadMix::CRUD,
        ] {
            assert!(mix.is_valid(), "{mix:?} is invalid");
        }
    }

    #[test]
    fn invalid_mix_detected() {
        assert!(!mix(0.9, 0.9, 0.0, 0.0).is_valid());
        assert!(!mix(1.5, -0.5, 0.0, 0.0).is_valid());
    }
}
