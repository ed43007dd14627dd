//! Fluent cluster construction.
//!
//! [`KvsBuilder`] replaces field-by-field [`KvsConfig`] construction for the
//! common cases; `KvsConfig` remains public for exhaustive control and for
//! programmatic sweeps (the builder is a thin veneer over it).

use crate::config::{KvsConfig, Variant};
use crate::kvs::Kvs;
use crate::Result;
use dinomo_cache::CacheKind;
use dinomo_dpm::{DpmConfig, GcConfig};
use dinomo_simnet::FabricConfig;

/// Fluent builder for a [`Kvs`] cluster, obtained from [`Kvs::builder`].
///
/// ```
/// use dinomo_core::{Kvs, Variant};
///
/// let kvs = Kvs::builder()
///     .small_for_tests()
///     .initial_kns(4)
///     .variant(Variant::Dinomo)
///     .build()
///     .unwrap();
/// assert_eq!(kvs.num_kns(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KvsBuilder {
    config: KvsConfig,
}

impl KvsBuilder {
    /// Start from the default configuration (one KVS node, full Dinomo).
    pub fn new() -> Self {
        KvsBuilder::default()
    }

    /// Start from [`KvsConfig::small_for_tests`]: two small KVS nodes and a
    /// small DPM pool that builds in milliseconds.
    ///
    /// This **replaces the whole configuration**, so call it first and let
    /// later builder calls override individual knobs; knobs set before it
    /// are discarded.
    pub fn small_for_tests(mut self) -> Self {
        self.config = KvsConfig::small_for_tests();
        self
    }

    /// Which of the paper's systems to instantiate (default
    /// [`Variant::Dinomo`]).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Number of KVS nodes at start-up.
    pub fn initial_kns(mut self, n: usize) -> Self {
        self.config.initial_kns = n;
        self
    }

    /// Shards (the paper's KN threads) per KVS node.
    pub fn threads_per_kn(mut self, n: usize) -> Self {
        self.config.threads_per_kn = n;
        self
    }

    /// DRAM cache budget per KVS node, in bytes.
    pub fn cache_bytes_per_kn(mut self, bytes: usize) -> Self {
        self.config.cache_bytes_per_kn = bytes;
        self
    }

    /// Cache policy override (the default is DAC).
    pub fn cache_kind(mut self, kind: CacheKind) -> Self {
        self.config.cache_kind = Some(kind);
        self
    }

    /// DPM configuration (pool size, segments, merge threads, index).
    pub fn dpm(mut self, dpm: DpmConfig) -> Self {
        self.config.dpm = dpm;
        self
    }

    /// Log-cleaning segment-compactor knobs (shorthand for setting
    /// `dpm.gc`): victim dead-fraction threshold, per-pass relocation
    /// byte budget, and whether the per-DPM background thread runs. See
    /// [`dinomo_dpm::GcConfig`].
    pub fn gc(mut self, gc: GcConfig) -> Self {
        self.config.dpm.gc = gc;
        self
    }

    /// Simulated fabric configuration.
    pub fn fabric(mut self, fabric: FabricConfig) -> Self {
        self.config.fabric = fabric;
        self
    }

    /// The configuration the builder currently describes.
    pub fn config(&self) -> &KvsConfig {
        &self.config
    }

    /// Build the cluster.
    pub fn build(self) -> Result<Kvs> {
        Kvs::new(self.config)
    }
}

impl Kvs {
    /// Start building a cluster fluently. See [`KvsBuilder`].
    pub fn builder() -> KvsBuilder {
        KvsBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinomo_cache::CacheKind;

    #[test]
    fn builder_defaults_match_config_defaults() {
        let built = *Kvs::builder().config();
        let direct = KvsConfig::default();
        assert_eq!(built.variant, direct.variant);
        assert_eq!(built.initial_kns, direct.initial_kns);
        assert_eq!(built.threads_per_kn, direct.threads_per_kn);
    }

    #[test]
    fn knobs_compose_and_later_calls_win() {
        let b = Kvs::builder()
            .small_for_tests()
            .variant(Variant::DinomoN)
            .initial_kns(3)
            .threads_per_kn(1)
            .cache_bytes_per_kn(128 << 10)
            .cache_kind(CacheKind::ValueOnly);
        let c = b.config();
        assert_eq!(c.variant, Variant::DinomoN);
        assert_eq!(c.initial_kns, 3);
        assert_eq!(c.threads_per_kn, 1);
        assert_eq!(c.cache_bytes_per_kn, 128 << 10);
        assert_eq!(c.cache_kind, Some(CacheKind::ValueOnly));
    }

    #[test]
    fn small_for_tests_resets_the_whole_configuration() {
        // Documented semantics: `small_for_tests` replaces the entire
        // config (call it first), with no field sneaking through.
        let reset = Kvs::builder()
            .variant(Variant::DinomoN)
            .initial_kns(8)
            .small_for_tests();
        assert_eq!(reset.config().variant, KvsConfig::small_for_tests().variant);
        assert_eq!(
            reset.config().initial_kns,
            KvsConfig::small_for_tests().initial_kns
        );
        // Knobs set after it stick.
        let after = Kvs::builder().small_for_tests().variant(Variant::DinomoN);
        assert_eq!(after.config().variant, Variant::DinomoN);
    }

    #[test]
    fn build_produces_a_working_cluster() {
        let kvs = Kvs::builder()
            .small_for_tests()
            .initial_kns(2)
            .build()
            .unwrap();
        let client = kvs.client();
        client.insert(b"k", b"v").unwrap();
        assert_eq!(client.lookup(b"k").unwrap(), Some(b"v".to_vec()));
    }
}
