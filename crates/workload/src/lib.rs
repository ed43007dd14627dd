//! # dinomo-workload — YCSB-style workload generation
//!
//! The paper evaluates with YCSB-style workloads (§5): 8-byte keys, 1 KB
//! values, five request mixes (read-only, two read-mostly and two
//! write-heavy variants) and three key-popularity skews (Zipfian coefficients
//! 0.5, 0.99 and 2.0).  This crate reproduces those workloads:
//!
//! * [`ZipfianGenerator`] / [`KeyDistribution`] — uniform and Zipfian key
//!   popularity, including the scrambled variant YCSB uses so that hot keys
//!   are spread across the key space rather than clustered at low ids;
//! * [`WorkloadMix`] — the five request mixes used in Figures 5–8;
//! * [`WorkloadGenerator`] — a seeded, deterministic stream of
//!   [`Operation`]s over a configurable key space, including the load phase
//!   and insert-driven key-space growth;
//! * [`keys::key_for`] — the canonical fixed-width key encoding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod generator;
pub mod keys;
pub mod mix;
pub mod zipf;

pub use arrival::{arrival_schedule, session_seed, ArrivalProcess};
pub use generator::{Operation, WorkloadConfig, WorkloadGenerator};
pub use keys::{key_for, DEFAULT_KEY_LEN};
pub use mix::WorkloadMix;
pub use zipf::{KeyDistribution, ZipfianGenerator};
