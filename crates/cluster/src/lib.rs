//! # dinomo-cluster — the control plane
//!
//! The paper's monitoring/management node (M-node) watches the cluster and
//! triggers reconfigurations: adding or removing KVS nodes when latency SLOs
//! are violated or nodes sit idle, selectively replicating hot keys when a
//! skewed workload overloads a single owner, and recovering from KVS-node
//! failures (§3.5, Table 4).  This crate implements that control plane plus
//! a closed-loop timeline driver over a [`dinomo_core::Kvs`]:
//!
//! * [`SloConfig`] / [`PolicyEngine`] — the Table 4 policy rules (latency
//!   SLOs, over/under-utilization occupancy bounds, key hotness/coldness
//!   bounds, grace periods);
//! * [`SimulationDriver`] — closed-loop client threads, per-epoch statistics
//!   (throughput, average and p99 latency, per-node load), scripted load and
//!   skew changes, failure injection, and application of the policy engine's
//!   decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod policy;

pub use driver::{
    check_contention, ContentionLimits, DriverConfig, EventKind, ScriptedEvent, SimulationDriver,
    TimelineRow,
};
pub use policy::{EpochObservation, PolicyAction, PolicyEngine, SloConfig};
