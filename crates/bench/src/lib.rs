//! # dinomo-bench — the gated acceptance benches
//!
//! Two benches under `benches/`, each guarding a regression nothing else
//! in the repo would catch. Each writes its medians to
//! `target/bench-results/<bench>.json` and gates on a threshold (run one
//! with `cargo bench -p dinomo-bench --bench <name>`):
//!
//! | bench | gate | the regression only it catches |
//! |---|---|---|
//! | `recovery_bench` | crash-to-SLO-met ≤ 10 s at the largest scale | recovery time growing faster than live data (a quadratic re-merge, lost idempotence forcing retries), over three sizes where `e2e` has one |
//! | `obs_overhead`   | registry + stage tracing cost ≤ 3 % of throughput | instrumentation getting expensive on the hot path, against the `dinomo_obs::set_enabled(false)` baseline |
//!
//! A missed gate panics unless `BENCH_SOFT` is set ([`harness::gate`]):
//! the merge-gating CI job sets it, the nightly perf job does not. The
//! `bench_summary` binary merges the records into `BENCH_RESULTS.json`.
//!
//! The repo's benchmark proper — end-to-end workloads with per-layer
//! probes — is its own package under `e2e/`; nothing here feeds it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
