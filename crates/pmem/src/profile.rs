//! Media timing profiles.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Latency/bandwidth characteristics of the memory medium backing the pool.
///
/// Numbers follow the measurements the paper cites (§2.1, §5.1): PM read
/// latency in the low hundreds of nanoseconds, ~3× DRAM write latency,
/// 32 GB/s read and 11.2 GB/s write bandwidth for a fully-populated Optane
/// socket versus substantially higher DRAM bandwidth.  The profiles model
/// the DRAM-vs-PM merge-throughput gap of the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaProfile {
    /// Which medium this profile models.
    pub kind: MediaKind,
    /// Load latency, nanoseconds.
    pub read_latency_ns: u64,
    /// Store (to persistence domain) latency, nanoseconds.
    pub write_latency_ns: u64,
    /// Sequential read bandwidth, bytes per second.
    pub read_bw_bytes_per_sec: u64,
    /// Sequential write bandwidth, bytes per second.
    pub write_bw_bytes_per_sec: u64,
    /// Cost of a cache-line write-back (`clwb`) plus its share of the fence,
    /// nanoseconds.
    pub flush_latency_ns: u64,
}

/// The medium a [`MediaProfile`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MediaKind {
    /// DRAM emulating PM (the paper's main testbed).
    Dram,
    /// Intel Optane DC persistent memory.
    Optane,
}

impl MediaKind {
    /// Lower-case name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            MediaKind::Dram => "dram",
            MediaKind::Optane => "optane",
        }
    }
}

impl MediaProfile {
    /// Lower-case name of the medium, used in benchmark output.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// DRAM used as a stand-in for PM (the paper's main testbed).
    pub const fn dram() -> Self {
        MediaProfile {
            kind: MediaKind::Dram,
            read_latency_ns: 80,
            write_latency_ns: 80,
            read_bw_bytes_per_sec: 90_000_000_000,
            write_bw_bytes_per_sec: 45_000_000_000,
            flush_latency_ns: 100,
        }
    }

    /// Intel Optane DC persistent memory.
    pub const fn optane() -> Self {
        MediaProfile {
            kind: MediaKind::Optane,
            read_latency_ns: 300,
            write_latency_ns: 250,
            read_bw_bytes_per_sec: 32_000_000_000,
            write_bw_bytes_per_sec: 11_200_000_000,
            flush_latency_ns: 250,
        }
    }

    /// Modeled time to read `bytes` bytes sequentially.
    pub fn read_time(&self, bytes: u64) -> Duration {
        Duration::from_nanos(
            self.read_latency_ns + bytes.saturating_mul(1_000_000_000) / self.read_bw_bytes_per_sec,
        )
    }

    /// Modeled time to write and persist `bytes` bytes sequentially
    /// (store + flush of each cache line, bandwidth-limited).
    pub fn write_time(&self, bytes: u64) -> Duration {
        let lines = bytes.div_ceil(64);
        Duration::from_nanos(
            self.write_latency_ns
                + lines * self.flush_latency_ns / 8 // flushes pipeline ~8 deep
                + bytes.saturating_mul(1_000_000_000) / self.write_bw_bytes_per_sec,
        )
    }
}

impl Default for MediaProfile {
    fn default() -> Self {
        MediaProfile::dram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optane_is_slower_than_dram() {
        let d = MediaProfile::dram();
        let o = MediaProfile::optane();
        assert!(o.read_time(4096) > d.read_time(4096));
        assert!(o.write_time(4096) > d.write_time(4096));
        assert!(o.write_bw_bytes_per_sec < d.write_bw_bytes_per_sec);
    }

    #[test]
    fn write_time_scales_with_size() {
        let o = MediaProfile::optane();
        assert!(o.write_time(1 << 20) > o.write_time(1 << 10));
    }
}
