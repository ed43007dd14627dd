//! # dinomo-core — the Dinomo key-value store
//!
//! This crate assembles the substrates (simulated fabric, PM pool, P-CLHT
//! index, DPM log/merge engine, DAC cache, ownership partitioning) into the
//! key-value store the paper describes, together with its ablations:
//!
//! * **Dinomo** — ownership partitioning + DAC + selective replication;
//! * **Dinomo-S** — identical but with a shortcut-only cache (isolates the
//!   benefit of DAC): `cache_kind: Some(CacheKind::ShortcutOnly)`;
//! * **Dinomo-N** — shared-nothing: data and metadata are partitioned, so
//!   membership changes physically reshuffle data (isolates the benefit of
//!   sharing data in DPM while partitioning only ownership).
//!
//! ## Quickstart
//!
//! Build a cluster with the fluent [`KvsBuilder`], then talk to it through a
//! per-thread [`KvsClient`]. The client API is batched at its core: submit a
//! `Vec<`[`Op`]`>` to [`KvsClient::execute`] and get one [`Reply`] per op.
//! The client groups the batch by owner KVS node using its cached routing
//! metadata and issues one request per node, amortizing routing, shard
//! locking and log flushing — the paper's per-request overheads — across the
//! group. The calling thread is the only executor: it serves each node's
//! group shard slice by shard slice, one shard-mutex acquisition, at most
//! one epoch pin and one flush decision per slice, as a KN thread that owns
//! its shard and polls its own fabric completions would:
//!
//! ```
//! use dinomo_core::{Kvs, Op, Reply, Variant};
//!
//! let kvs = Kvs::builder()
//!     .small_for_tests()
//!     .initial_kns(2)
//!     .variant(Variant::Dinomo)
//!     .build()
//!     .unwrap();
//!
//! let client = kvs.client();
//! let replies = client.execute(vec![
//!     Op::insert("hello", "world"),
//!     Op::insert("batched", "api"),
//!     Op::lookup("hello"),
//! ]);
//! assert!(replies.iter().all(Reply::is_ok));
//! assert_eq!(replies[2].value(), Some(&b"world"[..]));
//!
//! // Batched conveniences and the classic per-key methods (which are thin
//! // wrappers over `execute`) coexist:
//! client.multi_put([("a", "1"), ("b", "2")]);
//! assert_eq!(client.lookup(b"a").unwrap(), Some(b"1".to_vec()));
//! ```
//!
//! The control-plane entry points the monitoring/management node uses are
//! [`Kvs::add_kn`], [`Kvs::remove_kn`], [`Kvs::fail_kn`],
//! [`Kvs::replicate_key`] and [`Kvs::dereplicate_key`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod client;
pub mod config;
pub mod error;
pub mod keys;
pub mod kn;
pub mod kvs;
pub mod op;
pub mod stats;
pub mod trace;

pub use builder::KvsBuilder;
pub use client::KvsClient;
pub use config::{KvsConfig, Variant};
// Re-exported so callers can set compactor knobs (`KvsBuilder::gc`)
// without depending on the dpm crate directly.
pub use dinomo_dpm::GcConfig;
pub use error::KvsError;
pub use keys::key_for;
pub use kvs::{DpmCrashReport, Kvs};
pub use op::{Op, Reply};
pub use stats::{KnStats, KvsStats};
pub use trace::{Action, HistoryRecorder, OpRecord, RecorderHandle};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, KvsError>;
