//! KVS configuration.

use dinomo_cache::CacheKind;
use dinomo_dpm::DpmConfig;
use dinomo_simnet::FabricConfig;

/// Which of the paper's systems to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Full Dinomo: ownership partitioning, DAC, selective replication.
    Dinomo,
    /// Shared-nothing Dinomo (the paper's Dinomo-N, standing in for
    /// AsymNVM): data/metadata are partitioned per KN, so reconfiguration
    /// physically copies data and selective replication is unavailable.
    DinomoN,
}

impl Variant {
    /// `true` if this variant supports selective replication of hot keys.
    pub fn supports_selective_replication(&self) -> bool {
        matches!(self, Variant::Dinomo)
    }

    /// `true` if membership changes require physically copying data
    /// (shared-nothing architectures).
    pub fn requires_data_reshuffle(&self) -> bool {
        matches!(self, Variant::DinomoN)
    }
}

/// Configuration of a [`crate::Kvs`] cluster.
#[derive(Debug, Clone, Copy)]
pub struct KvsConfig {
    /// Which system to build.
    pub variant: Variant,
    /// Number of KVS nodes at start-up.
    pub initial_kns: usize,
    /// Shards (the paper's KN threads) per KVS node.
    pub threads_per_kn: usize,
    /// DRAM cache budget per KVS node, in bytes (the paper uses 1 GB,
    /// ≈1 % of the DPM pool).
    pub cache_bytes_per_kn: usize,
    /// Cache policy; `None` means DAC. The paper's Dinomo-S is
    /// `Some(CacheKind::ShortcutOnly)`.
    pub cache_kind: Option<CacheKind>,
    /// Ignored. A KN shard batches the writes of one slice into one
    /// one-sided log write and flushes them before it answers any, so an
    /// acked write is durable. Kept only because `e2e`'s preset still sets
    /// it.
    pub write_batch_ops: usize,
    /// DPM configuration.
    pub dpm: DpmConfig,
    /// Simulated fabric configuration.
    pub fabric: FabricConfig,
}

impl Default for KvsConfig {
    fn default() -> Self {
        KvsConfig {
            variant: Variant::Dinomo,
            initial_kns: 1,
            threads_per_kn: 8,
            cache_bytes_per_kn: 64 << 20,
            cache_kind: None,
            write_batch_ops: 1,
            dpm: DpmConfig::default(),
            fabric: FabricConfig::default(),
        }
    }
}

impl KvsConfig {
    /// A small, fast configuration for unit tests.
    pub fn small_for_tests() -> Self {
        KvsConfig {
            initial_kns: 2,
            threads_per_kn: 2,
            cache_bytes_per_kn: 256 << 10,
            dpm: DpmConfig::small_for_tests(),
            ..KvsConfig::default()
        }
    }

    /// Same configuration but for a different variant.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Effective cache policy.
    pub fn effective_cache_kind(&self) -> CacheKind {
        self.cache_kind.unwrap_or(CacheKind::Dac)
    }

    /// Cache budget per shard (thread) in bytes.
    pub fn cache_bytes_per_shard(&self) -> usize {
        self.cache_bytes_per_kn / self.threads_per_kn.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_properties() {
        assert!(Variant::Dinomo.supports_selective_replication());
        assert!(!Variant::DinomoN.supports_selective_replication());
        assert!(Variant::DinomoN.requires_data_reshuffle());
        assert!(!Variant::Dinomo.requires_data_reshuffle());
    }

    #[test]
    fn cache_kind_override() {
        let mut c = KvsConfig::default();
        assert_eq!(c.effective_cache_kind(), CacheKind::Dac);
        c.cache_kind = Some(CacheKind::ValueOnly);
        assert_eq!(c.effective_cache_kind(), CacheKind::ValueOnly);
        assert_eq!(
            c.cache_bytes_per_shard(),
            c.cache_bytes_per_kn / c.threads_per_kn
        );
    }
}
