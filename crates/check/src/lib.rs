//! # dinomo-check — machine-checked consistency for the Dinomo cluster
//!
//! The paper claims single-key linearizability (§3.2), including for
//! selectively-replicated keys served by several KVS nodes at once. Until
//! this crate, that claim was tested by hand-rolled invariants (monotonic
//! register probes, acked-write accounting) that can only catch the bug
//! shapes they encode. This crate turns the claim into a machine-checked
//! property over *arbitrary* concurrent executions:
//!
//! * [`checker`] — a per-key linearizability checker for the register
//!   model (`get`/`put`/`delete`, with `insert`/`update` as upserts and
//!   batched `execute` calls decomposed per op). Keys are independent
//!   registers, so the history is partitioned per key
//!   (P-compositionality) and each key is checked with a Wing–Gong style
//!   search, memoized on `(linearized-set, register-value)` and bounded by
//!   a state budget, so nightly-scale histories check in seconds.
//! * [`driver`] — the seeded generative stress driver, and the library's
//!   only load driver ([`ChurnAction`] its only event vocabulary):
//!   concurrent clients run a deterministic CRUD op stream (skewed keys,
//!   unique write values) against a real cluster while a churn thread
//!   replays a deterministic script of `add_kn`/`remove_kn`/`fail_kn` and
//!   replicate/dereplicate actions. Every client records through the
//!   [`dinomo_core::trace`] hook; the merged history is checked at the
//!   end. Any failure reproduces from `DINOMO_CHECK_SEED=<n>` alone and
//!   shrinks by replaying with a reduced op budget.
//! * [`workload`] — the seeded YCSB-style op stream the driver and the
//!   paper-claim tests draw from (§5): request mixes, uniform and
//!   scrambled-Zipf key popularity, and one xoshiro256++ generator under
//!   both.
//!
//! The `lincheck` binary wraps the driver for CI: a short fixed-seed
//! smoke on merges, a long random-seed sweep nightly (failing seeds and
//! histories are written to `target/check-results/` and uploaded as
//! artifacts), and `--replay <seed>` to reproduce and shrink a failure
//! locally.
//!
//! ```
//! use dinomo_check::checker::check_history;
//! use dinomo_core::trace::HistoryRecorder;
//! use dinomo_core::{Kvs, Op};
//!
//! let kvs = Kvs::builder().small_for_tests().build().unwrap();
//! let recorder = HistoryRecorder::new();
//! let client = kvs.client().with_recorder(recorder.handle(0));
//! client.execute(vec![Op::insert("k", "a"), Op::lookup("k"), Op::delete("k")]);
//! assert!(client.lookup(b"k").unwrap().is_none());
//! let stats = check_history(&recorder.drain()).expect("history must linearize");
//! assert_eq!(stats.ops, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod driver;
mod generator;
mod mix;
mod zipf;

/// The seeded YCSB-style op stream (§5), a pure function of its seed; the
/// umbrella crate re-exports it as `dinomo::workload`.
pub mod workload {
    pub use crate::generator::{WorkloadConfig, WorkloadGenerator};
    pub use crate::mix::WorkloadMix;
    pub use crate::zipf::KeyDistribution;
}

pub use checker::{check_history, CheckError, CheckStats, CheckerConfig, Violation};
pub use driver::{churn_script, client_ops, run_and_check, run_scenario, CheckConfig, ChurnAction};
