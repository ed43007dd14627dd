//! # dinomo-pclht — Persistent Cache-Line Hash Table
//!
//! Dinomo's metadata index on DPM is RECIPE's P-CLHT (Persistent Cache Line
//! Hash Table): a chaining hash table whose buckets are exactly one cache
//! line, giving
//!
//! * **lock-free reads** — readers walk a bucket chain in place and
//!   validate the walk with the head bucket's version word, so KVS nodes
//!   never hold locks across the network, a crashed reader cannot block
//!   anyone, and a lookup allocates nothing. Reads stay
//!   lock-free *across resizes* through epoch-based reclamation: see
//!   [Epoch guards](#epoch-guards) below,
//! * **log-free in-place writes** — writers lock only the head bucket of a
//!   chain, update slots in place, and flush a single cache line in the
//!   common case. [`Pclht::upsert_with`] decides keep, replace or insert
//!   against the value a slot actually holds, in the same locked walk that
//!   writes it, and
//! * **a one-sided lookup path** — [`Pclht::remote_get`] performs the lookup
//!   the way a KVS node would over RDMA (one one-sided READ per bucket in the
//!   chain) and reports how many round trips it used.  This is the `M` in the
//!   paper's DAC analysis: a full cache miss costs `M` RTs, a shortcut hit
//!   costs 1, a value hit costs 0.
//!
//! The table maps a 64-bit *tag* (a hash of the application key) to a 64-bit
//! *value* (a packed pointer into the DPM log).  Tag collisions are resolved
//! by the caller through a predicate on the stored value — the DPM layer
//! verifies the full key stored alongside the value in the log entry.
//!
//! Buckets live in the [`dinomo_pmem::PmemPool`], so the index survives
//! simulated crashes (given the persistence ordering implemented here) and
//! can be shared by DPM processor threads and (simulated) one-sided readers.
//!
//! # Epoch guards
//!
//! A resize swaps in a rebuilt bucket array and retires the old one to an
//! epoch-based reclamation scheme ([`crossbeam::epoch`]). Every read path
//! pins an epoch for the duration of its traversal — implicitly, or
//! explicitly via [`pin`] plus the `*_in` method variants
//! ([`Pclht::get_in`], [`Pclht::get_all_in`], [`Pclht::chain_length_in`],
//! [`Pclht::for_each_in`], [`Pclht::remote_get_in`]) when a caller wants to
//! amortize one pin over a batch of lookups.
//!
//! **What a pinned [`Guard`] protects:** every bucket array the table
//! publishes (current or since-retired) stays allocated and intact while
//! the guard lives, so traversals never touch freed pmem.
//!
//! **What it does *not* protect:**
//!
//! * It is not a snapshot or a read transaction — concurrent writers keep
//!   mutating slots in place, and two lookups under one guard can observe
//!   different values (per-chain consistency comes from the bucket version
//!   protocol, not from the guard).
//! * It does not pin the *current* array: a lookup after a concurrent
//!   resize may traverse the new array even though the guard predates it.
//! * It does not protect log entries or any other pmem the stored `u64`
//!   values point at — only the index's own bucket arrays.
//!
//! Guards are cheap (two thread-local atomic stores) but **pin global
//! reclamation**: a guard parked for seconds makes every retired bucket
//! array in the process linger, so scope guards to a batch, not a session.
//!
//! ```
//! use dinomo_pclht::{pin, Pclht, PclhtConfig};
//! use dinomo_pmem::{PmemConfig, PmemPool};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(8 << 20)));
//! let table = Pclht::new(pool, PclhtConfig::for_capacity(1_000)).unwrap();
//! for i in 0..100 {
//!     table.insert(i, i * 10).unwrap();
//! }
//!
//! // One pin amortized over a whole batch of lock-free lookups.
//! let guard = pin();
//! let hits = (0..100).filter(|&i| table.get_in(&guard, i, |_| true).is_some()).count();
//! assert_eq!(hits, 100);
//! drop(guard); // let retired arrays reclaim
//! ```

#![warn(missing_docs)]

pub mod bucket;
pub mod table;

pub use crossbeam::epoch::Guard;
pub use table::{pin, Pclht, PclhtConfig, PclhtStats, Upsert};

/// Result alias for table operations (errors come from the pmem allocator).
pub type Result<T> = std::result::Result<T, dinomo_pmem::PmemError>;
