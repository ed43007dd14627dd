//! Request mixes.

use serde::{Deserialize, Serialize};

/// A request mix: fractions of reads, updates, inserts and deletes (they
/// must sum to 1.0). The paper's benchmark mixes use no deletes (its
/// evaluation does not benchmark them); the delete fraction exists for the
/// correctness workloads — the linearizability checker's generative driver
/// needs delete/re-insert churn to catch resurrection and stale-tombstone
/// bugs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    /// Short name used in benchmark output (e.g. "50r50u").
    pub name: &'static str,
    /// Fraction of lookup operations.
    pub read_fraction: f64,
    /// Fraction of update operations (overwrite an existing key).
    pub update_fraction: f64,
    /// Fraction of insert operations (new keys).
    pub insert_fraction: f64,
    /// Fraction of delete operations (remove an existing key).
    pub delete_fraction: f64,
    /// Fraction of scan operations (ordered range reads of a handful of
    /// consecutive keys starting at a chosen key).
    pub scan_fraction: f64,
}

impl WorkloadMix {
    /// 100 % reads.
    pub const READ_ONLY: WorkloadMix = WorkloadMix {
        name: "100r",
        read_fraction: 1.0,
        update_fraction: 0.0,
        insert_fraction: 0.0,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };
    /// 95 % reads / 5 % updates.
    pub const READ_MOSTLY_UPDATE: WorkloadMix = WorkloadMix {
        name: "95r5u",
        read_fraction: 0.95,
        update_fraction: 0.05,
        insert_fraction: 0.0,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };
    /// 95 % reads / 5 % inserts.
    pub const READ_MOSTLY_INSERT: WorkloadMix = WorkloadMix {
        name: "95r5i",
        read_fraction: 0.95,
        update_fraction: 0.0,
        insert_fraction: 0.05,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };
    /// 50 % reads / 50 % updates.
    pub const WRITE_HEAVY_UPDATE: WorkloadMix = WorkloadMix {
        name: "50r50u",
        read_fraction: 0.5,
        update_fraction: 0.5,
        insert_fraction: 0.0,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };
    /// 50 % reads / 50 % inserts.
    pub const WRITE_HEAVY_INSERT: WorkloadMix = WorkloadMix {
        name: "50r50i",
        read_fraction: 0.5,
        update_fraction: 0.0,
        insert_fraction: 0.5,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };
    /// 100 % inserts (the Figure 4 merge-capacity stress workload).
    pub const INSERT_ONLY: WorkloadMix = WorkloadMix {
        name: "100i",
        read_fraction: 0.0,
        update_fraction: 0.0,
        insert_fraction: 1.0,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };

    /// Full CRUD churn: 50 % reads / 25 % updates / 15 % inserts / 10 %
    /// deletes. Not a paper mix — this is the linearizability checker's
    /// default workload, where delete/re-insert cycling on skewed keys is
    /// what exposes resurrection and stale-tombstone bugs.
    pub const CRUD: WorkloadMix = WorkloadMix {
        name: "50r25u15i10d",
        read_fraction: 0.5,
        update_fraction: 0.25,
        insert_fraction: 0.15,
        delete_fraction: 0.10,
        scan_fraction: 0.0,
    };

    /// Skewed-overwrite: 5 % reads / 95 % updates with **no inserts**, so
    /// the key space stays fixed and a Zipfian chooser keeps rewriting the
    /// same hot set. Not a paper mix — this is the GC-pressure workload:
    /// every segment fills with hot-key overwrites plus a tail of cold
    /// keys written once per pass of the chooser, so sealed segments end
    /// up mostly dead but pinned by a few long-lived entries — the shape
    /// the log-cleaning compactor exists to reclaim (pair it with
    /// [`crate::KeyDistribution::HIGH_SKEW`] over a small key space).
    pub const SKEWED_OVERWRITE: WorkloadMix = WorkloadMix {
        name: "5r95u",
        read_fraction: 0.05,
        update_fraction: 0.95,
        insert_fraction: 0.0,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };

    /// YCSB-E: 95 % short range scans / 5 % inserts. Not one of the
    /// paper's evaluated mixes (the paper's store is point-op-only) —
    /// this is the canonical scan workload the ordered secondary index
    /// exists to serve; start keys follow the configured request
    /// distribution (Zipfian by default for YCSB).
    pub const YCSB_E: WorkloadMix = WorkloadMix {
        name: "95s5i",
        read_fraction: 0.0,
        update_fraction: 0.0,
        insert_fraction: 0.05,
        delete_fraction: 0.0,
        scan_fraction: 0.95,
    };

    /// CRUD churn plus scans: the linearizability checker's scan-mode
    /// workload, racing range reads against the full create/update/delete
    /// cycle (see [`WorkloadMix::CRUD`] for why the deletes matter).
    pub const CRUD_SCAN: WorkloadMix = WorkloadMix {
        name: "40r25u10i10d15s",
        read_fraction: 0.40,
        update_fraction: 0.25,
        insert_fraction: 0.10,
        delete_fraction: 0.10,
        scan_fraction: 0.15,
    };

    /// Fraction of operations that are writes of any kind.
    pub fn write_fraction(&self) -> f64 {
        self.update_fraction + self.insert_fraction + self.delete_fraction
    }

    /// `true` if the fractions sum to 1 (within floating-point tolerance).
    pub fn is_valid(&self) -> bool {
        (self.read_fraction
            + self.update_fraction
            + self.insert_fraction
            + self.delete_fraction
            + self.scan_fraction
            - 1.0)
            .abs()
            < 1e-9
            && self.read_fraction >= 0.0
            && self.update_fraction >= 0.0
            && self.insert_fraction >= 0.0
            && self.delete_fraction >= 0.0
            && self.scan_fraction >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_predefined_mixes_are_valid() {
        for mix in [
            &WorkloadMix::WRITE_HEAVY_UPDATE,
            &WorkloadMix::WRITE_HEAVY_INSERT,
            &WorkloadMix::READ_MOSTLY_UPDATE,
            &WorkloadMix::READ_MOSTLY_INSERT,
            &WorkloadMix::READ_ONLY,
            &WorkloadMix::INSERT_ONLY,
            &WorkloadMix::CRUD,
            &WorkloadMix::SKEWED_OVERWRITE,
            &WorkloadMix::YCSB_E,
            &WorkloadMix::CRUD_SCAN,
        ] {
            assert!(mix.is_valid(), "{} is invalid", mix.name);
        }
    }

    #[test]
    fn write_fractions_match_names() {
        assert_eq!(WorkloadMix::READ_ONLY.write_fraction(), 0.0);
        assert!((WorkloadMix::WRITE_HEAVY_UPDATE.write_fraction() - 0.5).abs() < 1e-9);
        assert!((WorkloadMix::READ_MOSTLY_INSERT.write_fraction() - 0.05).abs() < 1e-9);
        assert_eq!(WorkloadMix::INSERT_ONLY.write_fraction(), 1.0);
        assert!((WorkloadMix::CRUD.write_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_mix_detected() {
        let bad = WorkloadMix {
            name: "bad",
            read_fraction: 0.9,
            update_fraction: 0.9,
            insert_fraction: 0.0,
            delete_fraction: 0.0,
            scan_fraction: 0.0,
        };
        assert!(!bad.is_valid());
        // Scans count towards the total too.
        let bad_scan = WorkloadMix {
            scan_fraction: 0.5,
            ..WorkloadMix::READ_ONLY
        };
        assert!(!bad_scan.is_valid());
    }
}
