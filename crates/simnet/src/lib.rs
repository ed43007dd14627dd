//! # dinomo-simnet — simulated RDMA fabric
//!
//! The DINOMO paper runs on InfiniBand hardware and its evaluation is driven
//! almost entirely by *how many network round trips (RTs) each key-value
//! operation costs* and by the latency/bandwidth of those round trips.  This
//! crate replaces the RDMA NIC with a software model that
//!
//! * counts every one-sided READ / WRITE / CAS and every two-sided RPC issued
//!   by a node ([`Nic`], [`NicStats`]),
//! * converts those operations into modeled time using a configurable
//!   latency/bandwidth profile ([`FabricConfig`]), and
//! * can optionally inject real (busy-wait or sleeping) delay per operation
//!   so that wall-clock experiments reproduce the relative costs
//!   ([`DelayMode`]), and
//! * lets a caller post many one-sided reads and wait for them once
//!   ([`PostedReads`]): a list's reads are numbered by dependency level per
//!   operation ([`ReadChain`]), and its one wait is
//!   `Σ over levels one_sided_latency_ns × ⌈reads at the level / 16⌉ +
//!   transfer_ns(bytes at the level)`, 16 being [`OUTSTANDING_READS`]
//!   (ConnectX-3's outstanding reads per queue pair). A KN slice that only
//!   reads waits once for all of its reads; a slice that writes waits after
//!   each op. A lone verb is a list of one, so it costs
//!   [`FabricConfig::one_sided_ns`] as before.
//!
//! Throughput is always *measured* on top of this fabric (by `e2e/` and the
//! gated benches), never modeled from the counters.
//!
//! The public API is intentionally small: higher layers (the DPM pool and
//! the KVS nodes) call [`Nic::one_sided_read`] (or post to a
//! [`PostedReads`] list), [`Nic::one_sided_write`], [`Nic::one_sided_cas`]
//! and [`Nic::rpc`] exactly where the real system would issue the
//! corresponding verbs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod nic;
pub mod posted;
pub mod stats;

pub use config::{DelayMode, FabricConfig};
pub use nic::Nic;
pub use posted::{PostedReads, ReadChain, OUTSTANDING_READS};
pub use stats::NicStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_accounting() {
        let nic = Nic::new(FabricConfig::default());
        nic.one_sided_read(1024);
        nic.one_sided_write(64);
        nic.one_sided_cas();
        nic.rpc(128, 128);
        let s = nic.snapshot();
        assert_eq!(s.one_sided_reads, 1);
        assert_eq!(s.one_sided_writes, 1);
        assert_eq!(s.cas_ops, 1);
        assert_eq!(s.rpcs, 1);
        assert_eq!(s.round_trips(), 4);
        assert!(s.modeled_ns > 0);
    }
}
