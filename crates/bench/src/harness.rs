//! Shared harness utilities for the gated benches: the `DINOMO_SCALE`
//! parser, the `target/bench-results/` record writers, the one gate
//! policy (`BENCH_SOFT`), and the cluster builders and measurement rounds
//! the benches share.

use dinomo_core::Kvs;
use dinomo_dpm::DpmConfig;
use dinomo_pclht::PclhtConfig;
use dinomo_pmem::PmemConfig;
use dinomo_simnet::FabricConfig;
use serde::Serialize;
use std::path::PathBuf;

/// Experiment scale factor from `DINOMO_SCALE` (default 1.0).
///
/// A malformed value is **not** silently ignored: a typo'd CI variable
/// would otherwise quietly benchmark the wrong scale and the perf
/// trajectory would compare apples to oranges. Interactive runs get a
/// loud stderr warning and the 1.0 default; under `CI=1` it panics so
/// the job fails instead.
pub fn scale() -> f64 {
    let raw = match std::env::var("DINOMO_SCALE") {
        Ok(raw) => raw,
        Err(_) => return 1.0,
    };
    match parse_scale(&raw) {
        Ok(scale) => scale,
        Err(why) => {
            let in_ci = std::env::var("CI").is_ok_and(|v| v == "1" || v == "true");
            if in_ci {
                panic!("DINOMO_SCALE={raw:?} is invalid ({why}); refusing to bench at a default scale under CI");
            }
            eprintln!(
                "WARNING: DINOMO_SCALE={raw:?} is invalid ({why}); falling back to scale 1.0"
            );
            1.0
        }
    }
}

/// Parse a `DINOMO_SCALE` value. Split out of [`scale`] so the
/// validation is unit-testable without mutating the process environment
/// (concurrent `set_var` during tests is UB on glibc).
pub fn parse_scale(raw: &str) -> Result<f64, String> {
    let scale: f64 = raw
        .trim()
        .parse()
        .map_err(|e| format!("not a number: {e}"))?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!(
            "scale must be a finite positive number, got {scale}"
        ));
    }
    Ok(scale)
}

/// The shared artifact directory, `<workspace>/target/bench-results`,
/// anchored at the workspace root so `bench_summary` (run from the repo
/// root) and the benches (run with the package directory as their working
/// directory) agree on one location.
pub fn bench_results_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench-results"
    ))
}

/// Write a JSON artifact to `target/bench-results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = bench_results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_vec_pretty(value) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

// ------------------------------------------------------------ batched API

/// Build the self-contained cluster `batch_bench` measures batched
/// versus per-key requests on: 4 KNs × 2 threads, preloaded with
/// `num_keys` 128-byte values and cache-warmed so the measurement
/// isolates the request path (routing, node lookup, shard locking) rather
/// than DPM misses.
pub fn batch_measurement_cluster(num_keys: u64) -> Kvs {
    use dinomo_workload::key_for;

    let kvs = Kvs::builder()
        .initial_kns(4)
        .threads_per_kn(2)
        .cache_bytes_per_kn(8 << 20)
        .write_batch_ops(8)
        // This measurement isolates the *request-path* amortization of
        // batching (routing, node lookup, shard locking, flush batching)
        // on all-cache-hit reads, where a worker handoff can only add
        // noise; the executor's own win is measured by `kn_scaling`.
        .executor_queue_depth(0)
        .dpm(DpmConfig {
            pool: PmemConfig::with_capacity(512 << 20),
            segment_bytes: 2 << 20,
            merge_threads: 2,
            index: PclhtConfig::for_capacity(num_keys as usize * 2),
            ..DpmConfig::default()
        })
        .build()
        .expect("building the cluster failed");
    let client = kvs.client();
    for i in 0..num_keys {
        client.insert(&key_for(i, 8), &[1u8; 128]).unwrap();
    }
    kvs.quiesce().unwrap();
    for i in 0..num_keys {
        client.lookup(&key_for(i, 8)).unwrap();
    }
    kvs
}

/// One timed round of the batched-vs-per-key read comparison over a shared
/// stride-31 scan (the stride spreads consecutive ops across owners, the
/// worst case for grouping): returns `(per_key_ns_per_op,
/// batched_ns_per_op)`. Both sides produce every result; the batched side
/// asserts its replies succeeded so a failing batch cannot masquerade as a
/// fast one.
pub fn measure_batch_round(
    client: &dinomo_core::KvsClient,
    num_keys: u64,
    batch_size: usize,
    ops: u64,
) -> (f64, f64) {
    use dinomo_core::{Op, Reply};
    use dinomo_workload::key_for;
    use std::time::Instant;

    let per_key_start = Instant::now();
    let mut key = 0u64;
    let mut remaining = ops;
    while remaining > 0 {
        let n = batch_size.min(remaining as usize);
        let results: Vec<Option<Vec<u8>>> = (0..n)
            .map(|_| {
                key = (key + 31) % num_keys;
                client.lookup(&key_for(key, 8)).unwrap()
            })
            .collect();
        std::hint::black_box(results);
        remaining -= n as u64;
    }
    let per_key_ns = per_key_start.elapsed().as_nanos() as f64 / ops.max(1) as f64;

    let batched_start = Instant::now();
    let mut key = 0u64;
    let mut remaining = ops;
    while remaining > 0 {
        let n = batch_size.min(remaining as usize);
        let batch: Vec<Op> = (0..n)
            .map(|_| {
                key = (key + 31) % num_keys;
                Op::lookup(key_for(key, 8))
            })
            .collect();
        let replies = client.execute(batch);
        assert!(replies.iter().all(Reply::is_ok));
        std::hint::black_box(replies);
        remaining -= n as u64;
    }
    let batched_ns = batched_start.elapsed().as_nanos() as f64 / ops.max(1) as f64;

    (per_key_ns, batched_ns)
}

// ------------------------------------------------------ bench summaries

/// One named measurement of a bench run (e.g. a median throughput).
#[derive(Debug, Clone, Serialize)]
pub struct BenchMetric {
    /// Metric name, e.g. `"speedup_at_4_workers"`.
    pub name: String,
    /// Measured value.
    pub value: f64,
}

/// The machine-readable summary a bench writes to
/// `target/bench-results/<bench>.json`; `dinomo-bench`'s `bench_summary`
/// binary merges all of them into `BENCH_RESULTS.json` so CI can track the
/// perf trajectory as a build artifact instead of scrolling past log
/// output.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    /// Bench name (the artifact's file stem).
    pub bench: String,
    /// The bench's median measurements.
    pub metrics: Vec<BenchMetric>,
}

/// Write a bench's median measurements to
/// `target/bench-results/<bench>.json`.
pub fn write_bench_record(bench: &str, metrics: &[(&str, f64)]) {
    let record = BenchRecord {
        bench: bench.to_string(),
        metrics: metrics
            .iter()
            .map(|(name, value)| BenchMetric {
                name: (*name).to_string(),
                value: *value,
            })
            .collect(),
    };
    write_json(bench, &record);
}

// ------------------------------------------------------------ gate policy

/// Take a gated measurement, re-taking it up to twice while `passes`
/// rejects it: one bad median on a shared, noisy runner should not fail a
/// correct build. Returns the last measurement taken, for the bench to
/// record and then hand to [`gate`].
pub fn retake_until<T>(mut measure: impl FnMut() -> T, passes: impl Fn(&T) -> bool) -> T {
    let mut measured = measure();
    for _ in 0..2 {
        if passes(&measured) {
            break;
        }
        measured = measure();
    }
    measured
}

/// The one acceptance-gate policy: a miss panics with `message`, unless
/// `BENCH_SOFT` is set (to anything but `0`), in which case it only
/// warns. The merge-gating CI job sets it — its shared runners are too
/// noisy for a hard perf assertion — and the nightly perf job does not.
/// Call it after the bench wrote its record, so a failing run still
/// leaves its numbers behind.
pub fn gate(ok: bool, message: String) {
    if ok {
        return;
    }
    if std::env::var_os("BENCH_SOFT").is_some_and(|v| v != "0") {
        eprintln!("warning: {message}; not failing because BENCH_SOFT is set");
    } else {
        panic!("{message}");
    }
}

// ------------------------------------------------------- executor scaling

/// Build the single-KN cluster the `kn_scaling` bench measures: `workers`
/// shards, a cache-less read path (every lookup walks the remote index),
/// and a **sleeping** fabric-delay mode, so each one-sided read parks the
/// executing thread instead of burning CPU — concurrent shard workers
/// overlap their fabric waits (as real KN threads overlap RDMA
/// completions), which is exactly the parallelism the executor exists to
/// harvest. `executor = false` disables the worker pool
/// (`executor_queue_depth = 0`): the inline, caller-thread baseline.
pub fn kn_scaling_cluster(workers: usize, executor: bool, num_keys: u64) -> Kvs {
    use dinomo_cache::CacheKind;
    use dinomo_simnet::DelayMode;
    use dinomo_workload::key_for;

    let kvs = Kvs::builder()
        .initial_kns(1)
        .threads_per_kn(workers)
        .cache_kind(CacheKind::None)
        .cache_bytes_per_kn(1 << 20)
        .write_batch_ops(8)
        .executor_queue_depth(if executor { 64 } else { 0 })
        .fabric(FabricConfig {
            delay: DelayMode::sleeping(),
            ..FabricConfig::default()
        })
        .dpm(DpmConfig {
            pool: PmemConfig::with_capacity(256 << 20),
            segment_bytes: 1 << 20,
            merge_threads: 2,
            index: PclhtConfig::for_capacity(num_keys as usize * 2),
            ..DpmConfig::default()
        })
        .build()
        .expect("building the kn_scaling cluster failed");
    let client = kvs.client();
    let pairs: Vec<_> = (0..num_keys)
        .map(|i| (key_for(i, 8), vec![1u8; 128]))
        .collect();
    for chunk in pairs.chunks(256) {
        client.multi_put(chunk.iter().map(|(k, v)| (k.clone(), v.clone())));
    }
    kvs.quiesce().unwrap();
    kvs
}

/// One timed round of the executor-scaling measurement: issue `batches`
/// batched lookups of `batch` strided keys each from a single client
/// thread and return the aggregate throughput in ops/second. Replies are
/// asserted `Ok` so a failing batch cannot masquerade as a fast one.
pub fn measure_kn_batch_throughput(
    client: &dinomo_core::KvsClient,
    num_keys: u64,
    batch: usize,
    batches: u64,
) -> f64 {
    use dinomo_core::{Op, Reply};
    use dinomo_workload::key_for;
    use std::time::Instant;

    let mut key = 0u64;
    let start = Instant::now();
    for _ in 0..batches {
        let ops: Vec<Op> = (0..batch)
            .map(|_| {
                key = (key + 31) % num_keys;
                Op::lookup(key_for(key, 8))
            })
            .collect();
        let replies = client.execute(ops);
        assert!(replies.iter().all(Reply::is_ok));
        std::hint::black_box(replies);
    }
    (batches * batch as u64) as f64 / start.elapsed().as_secs_f64()
}

/// Median of a set of measurements (sorts a copy). Total over any input:
/// NaN samples (a division by a zero elapsed time upstream) are dropped
/// rather than poisoning the comparator, even-length inputs return the
/// midpoint of the two middle elements rather than the upper one, and an
/// empty set returns 0.0 with a stderr warning instead of indexing out of
/// bounds.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| !s.is_nan()).collect();
    if sorted.len() < samples.len() {
        eprintln!(
            "WARNING: median() dropped {} NaN sample(s) of {}",
            samples.len() - sorted.len(),
            samples.len()
        );
    }
    if sorted.is_empty() {
        eprintln!("WARNING: median() of an empty sample set; reporting 0.0");
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

// ---------------------------------------------- whole-system saturation

/// Build the cluster the `saturation_bench` drives: 4 KVS nodes × 4 shard
/// workers with the batched executor on, cache-less reads (every op pays
/// its fabric round trips), **sleeping** fabric delays so client threads
/// overlap their waits the way real KN workers overlap RDMA completions
/// (and so thread scaling is observable even on a single-core host), the
/// aggressive background compactor live, and `replicated` hot keys
/// selectively replicated so the shared-path indirection-cell machinery
/// runs under the measured load. What the thread sweep then exposes is
/// exactly the store's residual serialization: any global lock on the
/// read-validation, cell-swing or reclamation paths shows up as a flat
/// throughput curve.
pub fn saturation_cluster(num_keys: u64, replicated: u64) -> Kvs {
    use dinomo_cache::CacheKind;
    use dinomo_dpm::GcConfig;
    use dinomo_simnet::DelayMode;
    use dinomo_workload::key_for;

    let kvs = Kvs::builder()
        .initial_kns(4)
        .threads_per_kn(4)
        .cache_kind(CacheKind::None)
        .cache_bytes_per_kn(1 << 20)
        .write_batch_ops(8)
        .executor_queue_depth(64)
        .fabric(FabricConfig {
            delay: DelayMode::sleeping(),
            ..FabricConfig::default()
        })
        .dpm(DpmConfig {
            // Aggressive background compaction must ride inside the
            // DpmConfig literal: a later `.dpm(..)` builder call replaces
            // the whole DPM config, including any earlier `.gc(..)`.
            gc: GcConfig::aggressive(),
            pool: PmemConfig::with_capacity(256 << 20),
            // Small segments so the measured overwrite stream seals (and
            // the aggressive compactor reclaims) segments *during* the
            // sweep — the bench must catch collector-vs-foreground
            // serialization, not run against an idle cleaner.
            segment_bytes: 128 << 10,
            merge_threads: 2,
            index: PclhtConfig::for_capacity(num_keys as usize * 2),
            ..DpmConfig::default()
        })
        .build()
        .expect("building the saturation cluster failed");
    let client = kvs.client();
    let pairs: Vec<_> = (0..num_keys)
        .map(|i| (key_for(i, 8), vec![1u8; 128]))
        .collect();
    for chunk in pairs.chunks(256) {
        client.multi_put(chunk.iter().map(|(k, v)| (k.clone(), v.clone())));
    }
    kvs.quiesce().unwrap();
    for i in 0..replicated.min(num_keys) {
        kvs.replicate_key(&key_for(i, 8), 2)
            .expect("replicating a hot key failed");
    }
    kvs
}

/// One closed-loop saturation round: `threads` client threads each issue
/// `ops_per_thread` per-op requests (1 overwrite per 4 lookups, so the
/// compactor has dead bytes to clean throughout) against strided key
/// streams that all pass through the replicated hot keys. Returns the
/// aggregate throughput in ops/second. `Busy` backpressure is retried —
/// a rejected op must not masquerade as a completed one.
pub fn measure_saturation_throughput(
    kvs: &Kvs,
    threads: usize,
    num_keys: u64,
    ops_per_thread: u64,
) -> f64 {
    use dinomo_workload::key_for;
    use std::time::Instant;

    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let client = kvs.client();
                scope.spawn(move || {
                    let mut key = (t as u64).wrapping_mul(7919) % num_keys;
                    for i in 0..ops_per_thread {
                        key = (key + 31) % num_keys;
                        let bytes = key_for(key, 8);
                        if i % 4 == 3 {
                            let mut tries = 0;
                            while client.update(&bytes, &[2u8; 128]).is_err() {
                                tries += 1;
                                assert!(tries < 1000, "update of key {key} kept failing");
                            }
                        } else {
                            let mut tries = 0;
                            while client.lookup(&bytes).is_err() {
                                tries += 1;
                                assert!(tries < 1000, "lookup of key {key} kept failing");
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    (threads as u64 * ops_per_thread) as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_total_over_empty_nan_and_even_inputs() {
        // Empty: 0.0 (with a warning), not an out-of-bounds panic.
        assert_eq!(median(&[]), 0.0);
        // NaN: filtered, not a comparator panic.
        assert_eq!(median(&[f64::NAN, 3.0, 1.0, f64::NAN, 2.0]), 2.0);
        assert_eq!(median(&[f64::NAN]), 0.0);
        // Even length: midpoint of the two middles, not the upper one.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Odd length: the middle element.
        assert_eq!(median(&[30.0, 10.0, 20.0]), 20.0);
    }

    #[test]
    fn parse_scale_accepts_numbers_and_rejects_garbage() {
        assert_eq!(parse_scale("1.0"), Ok(1.0));
        assert_eq!(parse_scale(" 2.5 "), Ok(2.5));
        assert_eq!(parse_scale("0.1"), Ok(0.1));
        assert!(parse_scale("fast").is_err());
        assert!(parse_scale("").is_err());
        assert!(parse_scale("1.o").is_err());
        assert!(parse_scale("0").is_err(), "zero scale is meaningless");
        assert!(parse_scale("-1").is_err());
        assert!(parse_scale("inf").is_err());
        assert!(parse_scale("NaN").is_err());
    }
}
