//! # dinomo-dpm — the disaggregated persistent-memory node
//!
//! This crate implements the DPM side of Dinomo's data plane (§3.2, §3.6 and
//! §4 of the paper):
//!
//! * **Per-KN log segments** ([`segment`], [`writer`]) — each KVS node owns
//!   exclusive log segments in DPM; writes are batched into a segment with a
//!   single one-sided RDMA WRITE and sealed with a per-entry commit marker so
//!   torn writes are detectable after a crash.
//! * **Asynchronous merging** ([`merge`]) — DPM processor threads merge
//!   sealed log entries, in per-KN order, into the shared P-CLHT metadata
//!   index off the critical path.  KVS nodes block only when their number of
//!   unmerged segments exceeds a threshold (default 2).
//! * **Garbage collection** ([`gc`]) — per-segment valid/invalid counters let
//!   the DPM reclaim a segment once every entry in it has been superseded,
//!   and a cost-benefit log cleaner relocates the still-live entries of
//!   mostly-dead segments so skew-pinned segments reclaim too (keeping the
//!   footprint proportional to live data instead of write history).
//! * **Indirect pointers** ([`node`]) — selectively-replicated (hot) keys are
//!   reached through a CAS-able indirection cell so several KNs can update
//!   them linearizably.
//! * **Recovery** — after a KN failure the pending log segments of that KN
//!   are merged synchronously before its partitions are handed to new owners;
//!   after a DPM power failure, unsealed (torn) entries are discarded and
//!   sealed ones are re-merged.
//! * **A policy metadata record** — the encoded ownership/replication
//!   table is persisted in two checksummed pool slots, so routing nodes and
//!   KNs can rebuild their soft state and a torn write leaves the previous
//!   version readable.

#![warn(missing_docs)]

pub mod bloom;
pub mod config;
#[cfg(test)]
mod costs;
pub mod entry;
pub mod failpoint;
pub mod gc;
pub mod loc;
pub mod merge;
pub mod node;
pub mod ordered;
pub mod segment;
mod worker;
pub mod writer;

pub use bloom::BloomFilter;
pub use config::{DpmConfig, GcConfig};
pub use entry::{EntryHeader, LogOp};
pub use failpoint::FailpointSet;
pub use gc::{CompactionReport, GC_OWNER_KN};
pub use loc::PackedLoc;
pub use node::{DpmNode, DpmStats, LookupResult, RecoveryReport, RelocationObserver};
pub use ordered::OrderedIndex;
// Re-exported so KVS nodes can pin one epoch guard across a whole batch of
// index lookups (`DpmNode::{local_lookup_in, remote_read_posted}`).
pub use dinomo_pclht::{pin, Guard};
// The epoch shim's process-global reclamation stats, re-exported so the
// core layer can bridge them into its metrics registry without its own
// crossbeam dependency.
pub use crossbeam::epoch::stats as epoch_stats;
pub use segment::SegmentState;
pub use writer::{CommittedWrite, LogWriter};
