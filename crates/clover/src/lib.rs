//! # dinomo-clover — the Clover baseline
//!
//! Clover (Tsai et al., USENIX ATC '20) is the state-of-the-art passive-DPM
//! key-value store the paper compares against.  Its design choices are the
//! mirror image of Dinomo's (Table 1 of the paper):
//!
//! * **shared everything** — every KVS node can read and write every key, so
//!   membership changes and load balancing are trivial, but caches lose
//!   locality and consistency costs grow with the node count;
//! * **shortcut-only caching** — KNs cache only pointers into DPM;
//! * **out-of-place updates with version chains** — a writer appends a new
//!   version and links it to the previous one with a one-sided CAS; a reader
//!   holding a stale pointer must walk the chain to reach the most recent
//!   version, paying extra round trips;
//! * **a metadata server** — inserts, cache misses and space allocation go
//!   through a dedicated server with a handful of worker threads, which
//!   becomes the scalability bottleneck beyond a few KNs.
//!
//! The implementation runs on the same simulated fabric and PM pool as
//! Dinomo, so the round-trip comparison in `tests/end_to_end.rs` (the
//! mechanism behind the paper's Figure 5 / Table 6) puts the two systems on
//! equal footing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod kn;
pub mod kvs;
pub mod metadata;
pub mod version;

pub use config::CloverConfig;
pub use kvs::{CloverClient, CloverKvs};
pub use metadata::MetadataServer;
