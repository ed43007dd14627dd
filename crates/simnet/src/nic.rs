//! The per-node simulated NIC.

use crate::config::FabricConfig;
use crate::posted::PostedReads;
use crate::stats::{NicCounters, NicStats};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A simulated RDMA-capable NIC attached to one node (KN, client, or the DPM
/// metadata server).
///
/// Every method accounts the operation (RT counters, bytes, modeled time) and,
/// depending on [`DelayMode`](crate::DelayMode), optionally busy-waits for the scaled modeled
/// latency so wall-clock experiments see realistic relative costs.
///
/// `Nic` is cheap to clone (`Arc` internally); clones share counters, which
/// matches one physical NIC being shared by all threads of a node.
#[derive(Debug, Clone)]
pub struct Nic {
    inner: Arc<NicInner>,
}

#[derive(Debug)]
struct NicInner {
    config: FabricConfig,
    counters: NicCounters,
}

impl Nic {
    /// Create a NIC with the given fabric configuration.
    pub fn new(config: FabricConfig) -> Self {
        Nic {
            inner: Arc::new(NicInner {
                config,
                counters: NicCounters::default(),
            }),
        }
    }

    /// The fabric configuration this NIC was created with.
    pub fn config(&self) -> &FabricConfig {
        &self.inner.config
    }

    /// Issue a one-sided RDMA READ of `bytes` bytes and wait for it: a
    /// [`PostedReads`] list of one read. Returns the modeled round-trip
    /// latency.
    pub fn one_sided_read(&self, bytes: usize) -> Duration {
        let mut list = PostedReads::new(self);
        list.chain().read(bytes);
        list.wait()
    }

    /// Issue a one-sided RDMA WRITE of `bytes` bytes. Returns the modeled
    /// round-trip latency.
    pub fn one_sided_write(&self, bytes: usize) -> Duration {
        let ns = self.inner.config.one_sided_ns(bytes);
        self.inner
            .counters
            .one_sided_writes
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.account_and_delay(ns)
    }

    /// Issue a one-sided RDMA compare-and-swap (8 bytes). Returns the modeled
    /// round-trip latency.
    pub fn one_sided_cas(&self) -> Duration {
        let ns = self.inner.config.one_sided_ns(8);
        self.inner.counters.cas_ops.fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .bytes_written
            .fetch_add(8, Ordering::Relaxed);
        self.account_and_delay(ns)
    }

    /// Issue a two-sided RPC with the given request/response payload sizes.
    /// Returns the modeled round-trip latency (excluding remote service time,
    /// which the callee models separately).
    pub fn rpc(&self, request_bytes: usize, response_bytes: usize) -> Duration {
        let ns = self.inner.config.rpc_ns(request_bytes + response_bytes);
        self.inner.counters.rpcs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .bytes_written
            .fetch_add(request_bytes as u64, Ordering::Relaxed);
        self.inner
            .counters
            .bytes_read
            .fetch_add(response_bytes as u64, Ordering::Relaxed);
        self.account_and_delay(ns)
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> NicStats {
        self.inner.counters.snapshot()
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.inner.counters.reset();
    }

    pub(crate) fn counters(&self) -> &NicCounters {
        &self.inner.counters
    }

    /// Charge `modeled_ns` of fabric time and inject its delay.
    pub(crate) fn account_and_delay(&self, modeled_ns: u64) -> Duration {
        self.inner
            .counters
            .modeled_ns
            .fetch_add(modeled_ns, Ordering::Relaxed);
        let injected = self.inner.config.delay.injected_ns(modeled_ns);
        if injected > 0 {
            if self.inner.config.delay.yields_cpu() {
                std::thread::sleep(Duration::from_nanos(injected));
            } else {
                busy_wait(Duration::from_nanos(injected));
            }
        }
        Duration::from_nanos(modeled_ns)
    }
}

impl Default for Nic {
    fn default() -> Self {
        Nic::new(FabricConfig::default())
    }
}

/// Busy-wait for approximately `dur`. Spin-waiting keeps sub-microsecond
/// delays meaningful (thread::sleep has ~50 µs granularity on most kernels).
fn busy_wait(dur: Duration) {
    let start = Instant::now();
    while start.elapsed() < dur {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayMode;

    #[test]
    fn counters_are_shared_across_clones() {
        let nic = Nic::default();
        let clone = nic.clone();
        nic.one_sided_read(100);
        clone.one_sided_write(50);
        let s = nic.snapshot();
        assert_eq!(s.one_sided_reads, 1);
        assert_eq!(s.one_sided_writes, 1);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.bytes_written, 50);
    }

    #[test]
    fn rpc_counts_both_directions() {
        let nic = Nic::default();
        nic.rpc(10, 20);
        let s = nic.snapshot();
        assert_eq!(s.rpcs, 1);
        assert_eq!(s.bytes_written, 10);
        assert_eq!(s.bytes_read, 20);
        assert_eq!(s.round_trips(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let nic = Nic::default();
        nic.one_sided_cas();
        nic.reset();
        assert_eq!(nic.snapshot(), NicStats::default());
    }

    #[test]
    fn injected_delay_actually_waits() {
        let cfg = FabricConfig {
            one_sided_latency_ns: 200_000, // 200 us so the test is robust
            delay: DelayMode::full(),
            ..FabricConfig::default()
        };
        let nic = Nic::new(cfg);
        let start = Instant::now();
        nic.one_sided_read(8);
        assert!(start.elapsed() >= Duration::from_micros(180));
    }

    #[test]
    fn modeled_latency_is_returned_without_delay() {
        let nic = Nic::default();
        let d = nic.one_sided_read(8);
        assert_eq!(d, Duration::from_nanos(nic.config().one_sided_ns(8)));
    }
}
