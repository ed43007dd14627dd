//! # dinomo-partition — ownership partitioning metadata
//!
//! Dinomo partitions the *ownership* of keys across KVS nodes (KNs) while the
//! data itself stays shared in DPM (§3.4).  This crate implements the
//! metadata that makes that work:
//!
//! * a stable 64-bit key hash ([`key_hash`]) shared by every component,
//! * a consistent-hashing ring with virtual nodes ([`HashRing`]) used both as
//!   the **global hash ring** (key → KN) and, per KN, as the **local hash
//!   ring** (key → worker thread),
//! * the cluster-wide [`OwnershipTable`] combining both rings with the
//!   **selective-replication** metadata (which hot keys are owned by several
//!   KNs, and by whom), and
//! * [`OwnershipChange`] descriptions of what moved when the ring changes, so
//!   callers can verify that reconfiguration moves only ownership — never
//!   data.
//!
//! Routing nodes, KNs and clients all hold (cached) copies of this metadata;
//! a version counter lets stale clients detect that they must refresh.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod ownership;
pub mod ring;

pub use hash::key_hash;
pub use ownership::{KnId, OwnershipTable, ThreadId};
pub use ring::{HashRing, OwnershipChange};
