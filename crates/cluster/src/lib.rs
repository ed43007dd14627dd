//! # dinomo-cluster — the control-plane policy
//!
//! The paper's monitoring/management node (M-node) watches the cluster and
//! triggers reconfigurations: adding or removing KVS nodes when latency SLOs
//! are violated or nodes sit idle, and selectively replicating hot keys when
//! a skewed workload overloads a single owner (§3.5, Table 4). This crate
//! holds that policy and nothing else:
//!
//! * [`SloConfig`] — the Table 4 thresholds (latency SLOs,
//!   over/under-utilization occupancy bounds, key hotness/coldness bounds,
//!   grace periods, node-count limits);
//! * [`EpochObservation`] → [`PolicyEngine::decide`] → [`PolicyAction`]s —
//!   one monitoring epoch's latency, per-node occupancy and key-frequency
//!   sample in, reconfiguration decisions out.
//!
//! The engine is a pure function of its observation. The caller measures
//! the epoch and applies the decisions through `dinomo_core::Kvs`
//! (`add_kn`, `remove_kn`, `replicate_key`, `dereplicate_key`);
//! `examples/elastic_scaling.rs` is such a caller. Load generation and
//! scripted churn live in `dinomo-check`'s seeded scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;

pub use policy::{EpochObservation, PolicyAction, PolicyEngine, SloConfig};
