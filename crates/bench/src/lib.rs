//! # dinomo-bench — the gated acceptance benches
//!
//! Nine benches under `benches/`, each of which measures one property the
//! repo promises, writes its medians to
//! `target/bench-results/<bench>.json` and gates on a threshold (run one
//! with `cargo bench -p dinomo-bench --bench <name>`):
//!
//! | bench | gate |
//! |---|---|
//! | `batch_bench`      | `execute(batch=32)` beats the per-key loop |
//! | `read_scaling`     | epoch-pinned P-CLHT reads ≥ the read-lock baseline at 4 readers |
//! | `kn_scaling`       | 4 shard workers ≥ 1.5× the inline path |
//! | `gc_reclaim`       | the compactor ends under 3.0× space amplification |
//! | `scan_bench`       | YCSB-E median scan ≤ 5 ms |
//! | `recovery_bench`   | crash-to-SLO-met ≤ 10 s at the largest scale |
//! | `saturation_bench` | 8 client threads ≥ 3× one, GC and replication live |
//! | `openloop_bench`   | the open-loop knee ≥ 0.25× the closed-loop peak |
//! | `obs_overhead`     | registry + stage tracing cost ≤ 3 % of throughput |
//!
//! A missed gate panics unless `BENCH_SOFT` is set ([`harness::gate`]):
//! the merge-gating CI job sets it, the nightly perf job does not. The
//! `bench_summary` binary merges the records into `BENCH_RESULTS.json`.
//! `scan_bench` accepts `DINOMO_SCALE` (default `1.0`).
//!
//! The repo's benchmark proper — end-to-end workloads with per-layer
//! probes — is its own package under `e2e/`; nothing here feeds it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod harness;
pub mod openloop;

pub use breakdown::{
    dominant_row, print_profile, print_profile_rows, profile_baseline, profile_rows, profile_since,
    write_metrics_snapshot, ProfileBaseline, ProfileRow,
};
pub use harness::{
    bench_results_dir, kn_scaling_cluster, measure_kn_batch_throughput, median, parse_scale, scale,
    write_bench_record, write_json, BenchMetric, BenchRecord,
};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopPlan, OpenLoopReport};
