//! DPM node configuration.

use dinomo_pclht::PclhtConfig;
use dinomo_pmem::PmemConfig;

/// Configuration of the log-cleaning segment compactor (see
/// [`crate::gc`]).
///
/// Freeing only segments whose entries are *all* dead
/// ([`crate::DpmNode::run_gc`]) lets a single long-lived key pin its
/// segment's bytes forever under skewed overwrite workloads. The compactor
/// relocates the still-live entries of partly-dead sealed segments into
/// fresh segments and frees the victims, making the store's footprint
/// proportional to live data instead of write history. It is paced by the
/// store's dead-byte debt, not by a timer: it works while allocated bytes
/// exceed the target `dead_fraction` sets, and the background thread
/// sleeps until a segment becomes eligible.
///
/// Only the background thread collects on its own. With `background:
/// false`, a store frees a segment only when a caller runs
/// [`crate::DpmNode::compact_once`] or `run_gc`; `lincheck`'s crash arm
/// and `e2e`'s trace probe do, nothing else outside tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// Run the per-DPM background compactor thread. When `false`, nothing
    /// is compacted or freed unless a caller runs
    /// [`crate::DpmNode::compact_once`] or [`crate::DpmNode::run_gc`].
    pub background: bool,
    /// Store-wide dead-share target. The compactor keeps the bytes of
    /// allocated segments at or under `live / (1 − dead_fraction)`; the
    /// excess is the dead-byte debt a pass pays down. Lower values trade
    /// relocation write amplification for space; 1.0 turns compaction off.
    pub dead_fraction: f64,
    /// Relocation byte budget of one pass: the one throttle, bounding how
    /// long a pass holds the collector lock before the background thread
    /// re-checks the debt and runs again. `u64::MAX` disables it.
    pub max_pass_bytes: u64,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            background: false,
            dead_fraction: 0.12,
            // 8 MB per pass: a pass yields the collector lock (to
            // `run_gc`, `pause_collectors`) at least this often.
            max_pass_bytes: 8 << 20,
        }
    }
}

impl GcConfig {
    /// An aggressive configuration for tests and stress runs: a 5 %
    /// store-wide dead-share target with no byte budget.
    pub fn aggressive() -> Self {
        GcConfig {
            background: true,
            dead_fraction: 0.05,
            max_pass_bytes: u64::MAX,
        }
    }
}

/// A KN blocks once it has this many sealed-but-unmerged segments (§4).
pub(crate) const UNMERGED_SEGMENT_THRESHOLD: usize = 2;

/// Configuration of a [`crate::DpmNode`].
#[derive(Debug, Clone, Copy)]
pub struct DpmConfig {
    /// Configuration of the backing persistent-memory pool.
    pub pool: PmemConfig,
    /// Size of each log segment. The paper uses 8 MB; tests use much smaller
    /// segments to exercise segment roll-over cheaply.
    pub segment_bytes: u64,
    /// Number of DPM processor threads dedicated to merging (the paper finds
    /// 4 sufficient for 16 KNs on DRAM).
    pub merge_threads: usize,
    /// Metadata-index configuration.
    pub index: PclhtConfig,
    /// Log-cleaning segment compactor knobs (dead-share target, per-pass
    /// byte budget, background thread).
    pub gc: GcConfig,
}

impl Default for DpmConfig {
    fn default() -> Self {
        DpmConfig {
            pool: PmemConfig::default(),
            segment_bytes: 8 << 20,
            merge_threads: 4,
            index: PclhtConfig::default(),
            gc: GcConfig::default(),
        }
    }
}

impl DpmConfig {
    /// A small configuration for unit tests: tiny pool, tiny segments, a
    /// single merge thread, and persistence tracking enabled.
    pub fn small_for_tests() -> Self {
        DpmConfig {
            pool: PmemConfig {
                capacity_bytes: 16 << 20,
                track_persistence: false,
            },
            segment_bytes: 32 << 10,
            merge_threads: 1,
            index: PclhtConfig {
                initial_buckets: 256,
                ..PclhtConfig::default()
            },
            // Tests opt into compaction explicitly (via `gc:
            // GcConfig::aggressive()` or `compact_once`), so default unit
            // tests exercise exactly the pre-compactor behaviour.
            gc: GcConfig {
                background: false,
                ..GcConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DpmConfig::default();
        assert_eq!(c.segment_bytes, 8 << 20);
        assert_eq!(c.merge_threads, 4);
        assert_eq!(UNMERGED_SEGMENT_THRESHOLD, 2);
    }
}
