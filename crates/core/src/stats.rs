//! Statistics exposed by the KVS (consumed by the M-node policy engine and
//! the benchmark harness).

use dinomo_cache::CacheStats;
use dinomo_dpm::DpmStats;
use dinomo_simnet::NicStats;

/// Per-KVS-node statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KnStats {
    /// Node id.
    pub id: u32,
    /// Operations completed.
    pub ops: u64,
    /// Read operations completed.
    pub reads: u64,
    /// Write operations completed.
    pub writes: u64,
    /// Operations rejected because the node does not own the key.
    pub rejected: u64,
    /// Aggregated cache statistics across the node's shards.
    pub cache: CacheStats,
    /// Network counters for the node's NIC.
    pub nic: NicStats,
    /// Nanoseconds the node's shards spent actively serving requests (used
    /// for the occupancy metric in the policy engine).
    pub busy_ns: u64,
}

impl KnStats {
    /// Round trips per operation for this node.
    pub fn rts_per_op(&self) -> f64 {
        self.nic.rts_per_op(self.ops)
    }

    /// Occupancy over a window of `window_ns`: fraction of one core's time
    /// spent serving requests.
    pub fn occupancy(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / window_ns as f64).min(1.0)
        }
    }

    /// Difference against an earlier snapshot of the same node.
    pub fn since(&self, earlier: &KnStats) -> KnStats {
        KnStats {
            id: self.id,
            ops: self.ops.saturating_sub(earlier.ops),
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            cache: CacheStats {
                value_hits: self
                    .cache
                    .value_hits
                    .saturating_sub(earlier.cache.value_hits),
                shortcut_hits: self
                    .cache
                    .shortcut_hits
                    .saturating_sub(earlier.cache.shortcut_hits),
                misses: self.cache.misses.saturating_sub(earlier.cache.misses),
                promotions: self
                    .cache
                    .promotions
                    .saturating_sub(earlier.cache.promotions),
                demotions: self.cache.demotions.saturating_sub(earlier.cache.demotions),
                evictions: self.cache.evictions.saturating_sub(earlier.cache.evictions),
                bytes_used: self.cache.bytes_used,
                capacity_bytes: self.cache.capacity_bytes,
                value_entries: self.cache.value_entries,
                shortcut_entries: self.cache.shortcut_entries,
            },
            nic: self.nic.since(&earlier.nic),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
        }
    }
}

/// Cluster-wide statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KvsStats {
    /// Per-node statistics for every live node.
    pub kns: Vec<KnStats>,
    /// DPM-side statistics.
    pub dpm: DpmStats,
    /// Current ownership-table version.
    pub ownership_version: u64,
}

impl KvsStats {
    /// Total operations completed across all nodes.
    pub fn total_ops(&self) -> u64 {
        self.kns.iter().map(|k| k.ops).sum()
    }

    /// Aggregate cache hit ratio across all nodes.
    pub fn cache_hit_ratio(&self) -> f64 {
        let (hits, lookups) = self.kns.iter().fold((0u64, 0u64), |(h, l), k| {
            (
                h + k.cache.value_hits + k.cache.shortcut_hits,
                l + k.cache.lookups(),
            )
        });
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Aggregate value-hit ratio (the parenthesised figure in Table 6).
    pub fn value_hit_ratio(&self) -> f64 {
        let (hits, lookups) = self.kns.iter().fold((0u64, 0u64), |(h, l), k| {
            (h + k.cache.value_hits, l + k.cache.lookups())
        });
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Aggregate round trips per operation across all nodes.
    pub fn rts_per_op(&self) -> f64 {
        let rts: u64 = self.kns.iter().map(|k| k.nic.round_trips()).sum();
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            rts as f64 / ops as f64
        }
    }

    /// Average bytes moved over the network per operation.
    pub fn bytes_per_op(&self) -> f64 {
        let bytes: u64 = self.kns.iter().map(|k| k.nic.total_bytes()).sum();
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            bytes as f64 / ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kn(id: u32, ops: u64, value_hits: u64, misses: u64) -> KnStats {
        KnStats {
            id,
            ops,
            reads: ops,
            cache: CacheStats {
                value_hits,
                misses,
                ..CacheStats::default()
            },
            nic: NicStats {
                one_sided_reads: misses * 3,
                ..NicStats::default()
            },
            ..KnStats::default()
        }
    }

    #[test]
    fn aggregates() {
        let stats = KvsStats {
            kns: vec![kn(0, 100, 80, 20), kn(1, 100, 60, 40)],
            ..KvsStats::default()
        };
        assert_eq!(stats.total_ops(), 200);
        assert!((stats.cache_hit_ratio() - 0.7).abs() < 1e-9);
        assert!((stats.value_hit_ratio() - 0.7).abs() < 1e-9);
        assert!((stats.rts_per_op() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn kn_stats_since_and_occupancy() {
        let early = KnStats {
            ops: 10,
            busy_ns: 1_000,
            ..kn(0, 10, 5, 1)
        };
        let late = KnStats {
            ops: 30,
            busy_ns: 5_000,
            ..kn(0, 30, 15, 3)
        };
        let delta = late.since(&early);
        assert_eq!(delta.ops, 20);
        assert_eq!(delta.busy_ns, 4_000);
        assert!((delta.occupancy(8_000) - 0.5).abs() < 1e-9);
        assert_eq!(delta.occupancy(0), 0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = KvsStats::default();
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.cache_hit_ratio(), 0.0);
        assert_eq!(s.rts_per_op(), 0.0);
        assert_eq!(s.bytes_per_op(), 0.0);
    }
}
