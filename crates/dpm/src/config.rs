//! DPM node configuration.

use dinomo_pclht::PclhtConfig;
use dinomo_pmem::PmemConfig;

/// Configuration of the log-cleaning segment compactor (see
/// [`crate::gc`]).
///
/// `run_gc` alone only frees segments whose entries are *all* dead, so a
/// single long-lived key pins its segment's bytes forever under skewed
/// overwrite workloads. The compactor relocates the still-live entries of
/// mostly-dead sealed segments into fresh segments and frees the victims,
/// making the store's footprint proportional to live data instead of
/// write history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// Run the per-DPM background compactor thread. When `false` the
    /// compactor only runs through the synchronous
    /// [`crate::DpmNode::compact_once`] hook.
    pub background: bool,
    /// Pause between background compaction passes, in milliseconds.
    pub interval_ms: u64,
    /// Minimum dead-byte fraction for a sealed, fully-merged segment to be
    /// considered a victim. `run_gc`'s all-dead policy corresponds to 1.0;
    /// lower values trade relocation write amplification for space.
    pub dead_fraction: f64,
    /// Relocation byte budget per pass. Together with `interval_ms` this
    /// is the background thread's byte-rate throttle
    /// (`max_pass_bytes / interval_ms` bytes per millisecond); `u64::MAX`
    /// disables throttling.
    pub max_pass_bytes: u64,
    /// Maximum victims compacted per pass.
    pub max_segments_per_pass: usize,
    /// Seal the pass's destination segment at the end of a pass once it is
    /// at least this full. The destination is reused across passes so
    /// small passes don't each strand a near-empty segment — but an
    /// unsealed destination is invisible to victim selection, so without
    /// this cut-off one mostly-full, never-sealed segment per DPM would
    /// pin its dead bytes forever.
    pub destination_seal_fraction: f64,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            background: false,
            interval_ms: 100,
            dead_fraction: 0.5,
            // Default byte-rate throttle: 8 MB per 100 ms pass (~80 MB/s),
            // far below the modeled fabric bandwidth so cleaning never
            // starves foreground flushes.
            max_pass_bytes: 8 << 20,
            max_segments_per_pass: 8,
            destination_seal_fraction: 0.5,
        }
    }
}

impl GcConfig {
    /// An aggressive configuration for tests and stress runs: every pass
    /// considers any segment with any dead bytes, with no byte budget.
    pub fn aggressive() -> Self {
        GcConfig {
            background: true,
            interval_ms: 5,
            dead_fraction: 0.05,
            max_pass_bytes: u64::MAX,
            max_segments_per_pass: usize::MAX,
            destination_seal_fraction: 0.5,
        }
    }
}

/// Configuration of a [`crate::DpmNode`].
#[derive(Debug, Clone, Copy)]
pub struct DpmConfig {
    /// Configuration of the backing persistent-memory pool.
    pub pool: PmemConfig,
    /// Size of each log segment. The paper uses 8 MB; tests use much smaller
    /// segments to exercise segment roll-over cheaply.
    pub segment_bytes: u64,
    /// KN-side batch threshold: a [`crate::LogWriter`] flushes automatically
    /// once this many bytes are buffered.
    pub flush_batch_bytes: usize,
    /// Number of DPM processor threads dedicated to merging (the paper finds
    /// 4 sufficient for 16 KNs on DRAM).
    pub merge_threads: usize,
    /// A KN blocks once it has this many sealed-but-unmerged segments
    /// (default 2, per §4).
    pub unmerged_segment_threshold: usize,
    /// Metadata-index configuration.
    pub index: PclhtConfig,
    /// Log-cleaning segment compactor knobs (victim threshold, byte-rate
    /// throttle, background thread).
    pub gc: GcConfig,
}

impl Default for DpmConfig {
    fn default() -> Self {
        DpmConfig {
            pool: PmemConfig::default(),
            segment_bytes: 8 << 20,
            flush_batch_bytes: 64 << 10,
            merge_threads: 4,
            unmerged_segment_threshold: 2,
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
            flush_batch_bytes: 4 << 10,
            merge_threads: 1,
            unmerged_segment_threshold: 2,
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
        assert_eq!(c.unmerged_segment_threshold, 2);
    }
}
