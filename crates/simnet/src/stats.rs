//! Per-NIC operation counters and snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters owned by a [`crate::Nic`].
#[derive(Debug, Default)]
pub(crate) struct NicCounters {
    pub one_sided_reads: AtomicU64,
    pub one_sided_writes: AtomicU64,
    pub cas_ops: AtomicU64,
    pub rpcs: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    pub modeled_ns: AtomicU64,
}

impl NicCounters {
    pub(crate) fn snapshot(&self) -> NicStats {
        NicStats {
            one_sided_reads: self.one_sided_reads.load(Ordering::Relaxed),
            one_sided_writes: self.one_sided_writes.load(Ordering::Relaxed),
            cas_ops: self.cas_ops.load(Ordering::Relaxed),
            rpcs: self.rpcs.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            modeled_ns: self.modeled_ns.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.one_sided_reads.store(0, Ordering::Relaxed);
        self.one_sided_writes.store(0, Ordering::Relaxed);
        self.cas_ops.store(0, Ordering::Relaxed);
        self.rpcs.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.modeled_ns.store(0, Ordering::Relaxed);
    }
}

/// Snapshot of the network operations a node has issued.
///
/// `round_trips()` is the quantity the paper reports as "RTs/op" (Tables 5
/// and 6) once divided by the number of completed operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Number of one-sided RDMA READ operations.
    pub one_sided_reads: u64,
    /// Number of one-sided RDMA WRITE operations.
    pub one_sided_writes: u64,
    /// Number of one-sided RDMA compare-and-swap operations.
    pub cas_ops: u64,
    /// Number of two-sided RPCs (these involve the DPM/metadata-server CPU).
    pub rpcs: u64,
    /// Total payload bytes read from remote memory.
    pub bytes_read: u64,
    /// Total payload bytes written to remote memory.
    pub bytes_written: u64,
    /// Total modeled network time in nanoseconds.
    pub modeled_ns: u64,
}

impl NicStats {
    /// Total network round trips (every one-sided op and every RPC is one RT).
    pub fn round_trips(&self) -> u64 {
        self.one_sided_reads + self.one_sided_writes + self.cas_ops + self.rpcs
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Difference between two snapshots (`self` must be the later one).
    pub fn since(&self, earlier: &NicStats) -> NicStats {
        NicStats {
            one_sided_reads: self.one_sided_reads.saturating_sub(earlier.one_sided_reads),
            one_sided_writes: self
                .one_sided_writes
                .saturating_sub(earlier.one_sided_writes),
            cas_ops: self.cas_ops.saturating_sub(earlier.cas_ops),
            rpcs: self.rpcs.saturating_sub(earlier.rpcs),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            modeled_ns: self.modeled_ns.saturating_sub(earlier.modeled_ns),
        }
    }

    /// Element-wise sum of two snapshots (for aggregating across KNs).
    pub fn merged(&self, other: &NicStats) -> NicStats {
        NicStats {
            one_sided_reads: self.one_sided_reads + other.one_sided_reads,
            one_sided_writes: self.one_sided_writes + other.one_sided_writes,
            cas_ops: self.cas_ops + other.cas_ops,
            rpcs: self.rpcs + other.rpcs,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            modeled_ns: self.modeled_ns + other.modeled_ns,
        }
    }

    /// Round trips per operation for a window in which `ops` operations
    /// completed.
    pub fn rts_per_op(&self, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.round_trips() as f64 / ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(a: u64) -> NicStats {
        NicStats {
            one_sided_reads: a,
            one_sided_writes: 2 * a,
            cas_ops: a,
            rpcs: a,
            bytes_read: 100 * a,
            bytes_written: 200 * a,
            modeled_ns: 1_000 * a,
        }
    }

    #[test]
    fn round_trip_math() {
        let s = sample(3);
        assert_eq!(s.round_trips(), 3 + 6 + 3 + 3);
        assert_eq!(s.total_bytes(), 900);
        assert!((s.rts_per_op(15) - 1.0).abs() < 1e-9);
        assert_eq!(s.rts_per_op(0), 0.0);
    }

    #[test]
    fn since_and_merged() {
        let early = sample(1);
        let late = sample(4);
        let delta = late.since(&early);
        assert_eq!(delta, sample(3));
        assert_eq!(sample(1).merged(&sample(2)), sample(3));
    }

    #[test]
    fn since_saturates() {
        let early = sample(5);
        let late = sample(1);
        let delta = late.since(&early);
        assert_eq!(delta.one_sided_reads, 0);
        assert_eq!(delta.modeled_ns, 0);
    }
}
