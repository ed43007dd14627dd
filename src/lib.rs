//! # dinomo — umbrella crate for the DINOMO reproduction
//!
//! This crate re-exports the public API of every crate in the workspace so
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`core`] — the Dinomo key-value store (and its shared-nothing
//!   Dinomo-N variant; the paper's claims about both are checked by
//!   `tests/paper_claims.rs`),
//! * [`cluster`] — the M-node policy engine (Table 4): epoch observations
//!   in, reconfiguration decisions out,
//! * [`cache`], [`partition`], [`dpm`], [`pclht`], [`pmem`],
//!   [`simnet`] — the substrates,
//! * [`workload`] — YCSB-style workload generation,
//! * [`check`] — history recording + per-key linearizability checking
//!   and the seeded generative stress driver, the one library load
//!   driver (see `docs/TESTING.md`).
//!
//! ## Quickstart
//!
//! Build a cluster with the fluent builder, then submit batches of [`Op`]s
//! through [`KvsClient::execute`] — the client groups each batch by owner
//! KVS node and issues one request per node, amortizing routing and
//! shard-locking overhead. The classic per-key methods are thin wrappers
//! over the same path:
//!
//! ```
//! use dinomo::{Kvs, Op, Reply, Variant};
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
//!     Op::insert("paper", "dinomo"),
//!     Op::lookup("paper"),
//! ]);
//! assert_eq!(replies[1].value(), Some(&b"dinomo"[..]));
//!
//! client.multi_put([("a", "1"), ("b", "2")]);
//! assert_eq!(client.lookup(b"a").unwrap(), Some(b"1".to_vec()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dinomo_cache as cache;
pub use dinomo_check as check;
pub use dinomo_cluster as cluster;
pub use dinomo_core as core;
pub use dinomo_dpm as dpm;
pub use dinomo_partition as partition;
pub use dinomo_pclht as pclht;
pub use dinomo_pmem as pmem;
pub use dinomo_simnet as simnet;
pub use dinomo_workload as workload;

pub use dinomo_cluster::{PolicyEngine, SloConfig};
pub use dinomo_core::{
    Kvs, KvsBuilder, KvsClient, KvsConfig, KvsError, KvsStats, Op, Reply, Variant,
};
pub use dinomo_workload::{KeyDistribution, WorkloadConfig, WorkloadGenerator, WorkloadMix};
