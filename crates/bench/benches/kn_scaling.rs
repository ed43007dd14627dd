//! Batch-throughput scaling of the sharded KN worker-thread executor
//! versus the inline (caller-thread) execution path it replaced.
//!
//! Before the executor, `KvsClient::execute` ran a node's whole owner
//! group on the calling thread, shard after shard — a node's
//! `threads_per_kn` shards never worked concurrently within one request.
//! The executor enqueues one sub-batch per involved shard onto that
//! shard's worker thread, so the same batch fans out across all shards at
//! once.
//!
//! The cluster under test makes per-op cost fabric-bound: no KN cache and
//! a **sleeping** delay mode, so every lookup's one-sided index/value
//! reads park the executing thread the way a synchronous RDMA verb parks
//! a real KN worker. Sleeping (rather than busy-spinning) lets concurrent
//! workers overlap their waits even on small CI hosts, which is the
//! executor's whole value proposition — and why the inline baseline,
//! which serializes every wait on one thread, cannot hide the difference.
//!
//! Before the sweep the bench checks the hand-off it is about to scale
//! ([`trickle_self_check`]): a worker that parks on every empty-queue
//! check makes the producer pay a full condvar wakeup (syscall +
//! scheduler latency) per handoff; under a trickle of small sub-batches
//! that wakeup *is* the executor's latency floor, and it is what sizes the
//! inline-vs-enqueue crossover (`executor_min_sub_batch`). The bounded
//! micro-spin in `BoundedQueue::pop` keeps the worker hot across short
//! inter-arrival gaps, so a trickle hand-off must stay within a generous
//! factor-plus-slack of inline execution — a bound that trips on gross
//! wakeup regressions (sleep-based parking, lost wakeups, a dropped spin),
//! not on noise. It is a wall-clock assertion, so it lives here under the
//! bench gate rather than in `cargo test`; what is deterministic about the
//! trickle stays in `tests/executor_trickle.rs`.

use dinomo_bench::harness::{gate, median, retake_until, write_bench_record};
use dinomo_cache::CacheKind;
use dinomo_core::{Kvs, KvsClient, Op, Reply};
use dinomo_dpm::DpmConfig;
use dinomo_pclht::PclhtConfig;
use dinomo_pmem::PmemConfig;
use dinomo_simnet::{DelayMode, FabricConfig};
use dinomo_workload::key_for;
use std::time::{Duration, Instant};

const KEYS: u64 = 2_000;
const BATCH: usize = 128;
const BATCHES_PER_ROUND: u64 = 6;
const GATE_WORKERS: usize = 4;
const GATE_SPEEDUP: f64 = 1.5;

/// Build the single-KN cluster the sweep and the gate measure: `KEYS`
/// keys over `workers` shards, a cache-less read path (every lookup walks the remote index),
/// and a **sleeping** fabric-delay mode, so each one-sided read parks the
/// executing thread instead of burning CPU — concurrent shard workers
/// overlap their fabric waits (as real KN threads overlap RDMA
/// completions), which is exactly the parallelism the executor exists to
/// harvest. `executor = false` disables the worker pool
/// (`executor_queue_depth = 0`): the inline, caller-thread baseline.
fn kn_scaling_cluster(workers: usize, executor: bool) -> Kvs {
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
            index: PclhtConfig::for_capacity(KEYS as usize * 2),
            ..DpmConfig::default()
        })
        .build()
        .expect("building the kn_scaling cluster failed");
    let client = kvs.client();
    let pairs: Vec<_> = (0..KEYS).map(|i| (key_for(i, 8), vec![1u8; 128])).collect();
    for chunk in pairs.chunks(256) {
        client.multi_put(chunk.iter().map(|(k, v)| (k.clone(), v.clone())));
    }
    kvs.quiesce().unwrap();
    kvs
}

/// One timed round of the executor-scaling measurement: issue `batches`
/// batched lookups of `BATCH` strided keys each from a single client
/// thread and return the aggregate throughput in ops/second. Replies are
/// asserted `Ok` so a failing batch cannot masquerade as a fast one.
fn measure_kn_batch_throughput(client: &KvsClient, batches: u64) -> f64 {
    let mut key = 0u64;
    let start = Instant::now();
    for _ in 0..batches {
        let ops: Vec<Op> = (0..BATCH)
            .map(|_| {
                key = (key + 31) % KEYS;
                Op::lookup(key_for(key, 8))
            })
            .collect();
        let replies = client.execute(ops);
        assert!(replies.iter().all(Reply::is_ok));
        std::hint::black_box(replies);
    }
    (batches * BATCH as u64) as f64 / start.elapsed().as_secs_f64()
}

/// A single-node, single-shard cluster so every 2-op batch becomes exactly
/// one sub-batch on one queue (or runs inline with the executor disabled).
fn trickle_cluster(queue_depth: usize) -> Kvs {
    let kvs = Kvs::builder()
        .small_for_tests()
        .initial_kns(1)
        .threads_per_kn(1)
        .executor_queue_depth(queue_depth)
        // Every sub-batch takes the worker queue, however small — the
        // handoff itself is what the self-check measures.
        .executor_min_sub_batch(1)
        .build()
        .unwrap();
    let replies = kvs
        .client()
        .execute(vec![Op::insert("t0", "v0"), Op::insert("t1", "v1")]);
    assert!(replies.iter().all(Reply::is_ok));
    kvs
}

/// Median per-batch latency of `iters` 2-lookup batches with a trickle
/// gap between them.
fn median_batch_latency(client: &KvsClient, iters: usize) -> Duration {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        // Busy-wait (not sleep — OS sleep jitter would swamp the
        // measurement) so consecutive batches arrive as a trickle rather
        // than back-to-back.
        let gap = Instant::now();
        while gap.elapsed() < Duration::from_micros(25) {
            std::hint::spin_loop();
        }
        let start = Instant::now();
        let replies = client.execute(vec![Op::lookup("t0"), Op::lookup("t1")]);
        samples.push(start.elapsed());
        assert!(replies.iter().all(Reply::is_ok));
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The trickle hand-off self-check: median 2-op batch latency through the
/// worker queue against inline execution, over interleaved rounds so
/// time-varying host noise hits both sides. Returns `(pooled, inline,
/// bound)`; the check passes when `pooled <= bound`.
fn trickle_self_check() -> (Duration, Duration, Duration) {
    let pooled_kvs = trickle_cluster(8);
    let inline_kvs = trickle_cluster(0);
    let pooled = pooled_kvs.client();
    let inline = inline_kvs.client();

    // Warm caches and code paths.
    median_batch_latency(&pooled, 200);
    median_batch_latency(&inline, 200);

    let rounds = 4;
    let iters = 500;
    let mut pooled_medians = Vec::with_capacity(rounds);
    let mut inline_medians = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        inline_medians.push(median_batch_latency(&inline, iters));
        pooled_medians.push(median_batch_latency(&pooled, iters));
    }
    pooled_medians.sort_unstable();
    inline_medians.sort_unstable();
    let pooled_med = pooled_medians[rounds / 2];
    let inline_med = inline_medians[rounds / 2];
    // A 2-op handoff may cost a few multiples of inline execution (queue
    // push + possible wakeup) but never orders of magnitude — that is
    // what would move the inline/pooled crossover.
    let bound = inline_med * 12 + Duration::from_micros(100);
    println!(
        "trickle hand-off: pooled median {pooled_med:?} vs inline median \
         {inline_med:?} (bound {bound:?})"
    );
    (pooled_med, inline_med, bound)
}

/// Median executor / median inline throughput at `GATE_WORKERS` shard
/// workers, over interleaved rounds so time-varying host noise cancels
/// out. Returns `(speedup, executor_ops_per_sec, inline_ops_per_sec)`.
fn measure_scaling(executor: &KvsClient, inline: &KvsClient) -> (f64, f64, f64) {
    let rounds = 5;
    let mut exec = Vec::with_capacity(rounds);
    let mut base = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        base.push(measure_kn_batch_throughput(inline, BATCHES_PER_ROUND));
        exec.push(measure_kn_batch_throughput(executor, BATCHES_PER_ROUND));
    }
    let exec_med = median(&exec);
    let base_med = median(&base);
    let speedup = exec_med / base_med;
    println!(
        "executor vs inline at {GATE_WORKERS} workers, batch {BATCH}: {speedup:.2}x \
         (medians over {rounds} interleaved rounds: executor {exec_med:.0} ops/s, \
         inline {base_med:.0} ops/s)"
    );
    (speedup, exec_med, base_med)
}

fn main() {
    let (trickle_pooled, trickle_inline, trickle_bound) =
        retake_until(trickle_self_check, |(pooled, _, bound)| pooled <= bound);
    let trickle_ok = trickle_pooled <= trickle_bound;

    // Worker-count sweep (informational): aggregate batch throughput with
    // the executor on, 1 → 4 shard workers.
    let mut sweep: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, GATE_WORKERS] {
        let kvs = kn_scaling_cluster(workers, true);
        let client = kvs.client();
        // Warm-up round, then one measured round for the sweep table.
        measure_kn_batch_throughput(&client, 2);
        let tput = measure_kn_batch_throughput(&client, BATCHES_PER_ROUND);
        println!("executor, {workers} shard workers: {tput:.0} ops/s aggregate");
        sweep.push((workers, tput));
    }

    // The gated comparison: executor vs inline at GATE_WORKERS shards,
    // both clusters alive for the whole interleaved measurement.
    let executor_kvs = kn_scaling_cluster(GATE_WORKERS, true);
    let inline_kvs = kn_scaling_cluster(GATE_WORKERS, false);
    let executor_client = executor_kvs.client();
    let inline_client = inline_kvs.client();

    // The acceptance gate: fanning a batch across 4 shard workers must
    // beat the inline single-thread path by ≥1.5x.
    let (speedup, exec_med, base_med) = retake_until(
        || measure_scaling(&executor_client, &inline_client),
        |m| m.0 >= GATE_SPEEDUP,
    );

    // Machine-readable medians for the CI perf-trajectory artifact.
    let mut metrics: Vec<(&str, f64)> = vec![
        ("batch", BATCH as f64),
        ("inline_ops_per_sec", base_med),
        ("executor_ops_per_sec", exec_med),
        ("speedup_at_4_workers", speedup),
        ("gate_speedup", GATE_SPEEDUP),
        (
            "trickle_pooled_median_us",
            trickle_pooled.as_secs_f64() * 1e6,
        ),
        (
            "trickle_inline_median_us",
            trickle_inline.as_secs_f64() * 1e6,
        ),
        ("trickle_within_bound", f64::from(u8::from(trickle_ok))),
    ];
    let sweep_named: Vec<(String, f64)> = sweep
        .iter()
        .map(|(w, t)| (format!("executor_ops_per_sec_{w}_workers"), *t))
        .collect();
    metrics.extend(sweep_named.iter().map(|(n, t)| (n.as_str(), *t)));
    write_bench_record("kn_scaling", &metrics);

    gate(
        trickle_ok,
        format!(
            "trickle handoff regressed: pooled median {trickle_pooled:?} vs inline \
             median {trickle_inline:?} (bound {trickle_bound:?})"
        ),
    );
    gate(
        speedup >= GATE_SPEEDUP,
        format!(
            "fanning a batch across {GATE_WORKERS} shard workers must deliver at \
             least {GATE_SPEEDUP}x the inline single-thread throughput, got \
             {speedup:.2}x"
        ),
    );
}
