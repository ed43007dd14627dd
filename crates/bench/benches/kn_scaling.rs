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

use criterion::{criterion_group, criterion_main, Criterion};
use dinomo_bench::harness::{
    gate, kn_scaling_cluster, measure_kn_batch_throughput, median, retake_until, write_bench_record,
};

const KEYS: u64 = 2_000;
const BATCH: usize = 128;
const BATCHES_PER_ROUND: u64 = 6;
const GATE_WORKERS: usize = 4;
const GATE_SPEEDUP: f64 = 1.5;

/// Median executor / median inline throughput at `GATE_WORKERS` shard
/// workers, over interleaved rounds so time-varying host noise cancels
/// out. Returns `(speedup, executor_ops_per_sec, inline_ops_per_sec)`.
fn measure_scaling(
    executor: &dinomo_core::KvsClient,
    inline: &dinomo_core::KvsClient,
) -> (f64, f64, f64) {
    let rounds = 5;
    let mut exec = Vec::with_capacity(rounds);
    let mut base = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        base.push(measure_kn_batch_throughput(
            inline,
            KEYS,
            BATCH,
            BATCHES_PER_ROUND,
        ));
        exec.push(measure_kn_batch_throughput(
            executor,
            KEYS,
            BATCH,
            BATCHES_PER_ROUND,
        ));
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

fn bench_kn_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("kn_scaling");
    group.sample_size(10);

    // Worker-count sweep (informational): aggregate batch throughput with
    // the executor on, 1 → 4 shard workers.
    let mut sweep: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, GATE_WORKERS] {
        let kvs = kn_scaling_cluster(workers, true, KEYS);
        let client = kvs.client();
        // Warm-up round, then one measured round for the sweep table.
        measure_kn_batch_throughput(&client, KEYS, BATCH, 2);
        let tput = measure_kn_batch_throughput(&client, KEYS, BATCH, BATCHES_PER_ROUND);
        println!("executor, {workers} shard workers: {tput:.0} ops/s aggregate");
        sweep.push((workers, tput));
    }

    // The gated comparison: executor vs inline at GATE_WORKERS shards,
    // both clusters alive for the whole interleaved measurement.
    let executor_kvs = kn_scaling_cluster(GATE_WORKERS, true, KEYS);
    let inline_kvs = kn_scaling_cluster(GATE_WORKERS, false, KEYS);
    let executor_client = executor_kvs.client();
    let inline_client = inline_kvs.client();

    group.bench_function(format!("execute_x{BATCH}_workers_{GATE_WORKERS}"), |b| {
        b.iter(|| measure_kn_batch_throughput(&executor_client, KEYS, BATCH, 1))
    });
    group.bench_function(format!("execute_x{BATCH}_inline"), |b| {
        b.iter(|| measure_kn_batch_throughput(&inline_client, KEYS, BATCH, 1))
    });
    group.finish();

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
    ];
    let sweep_named: Vec<(String, f64)> = sweep
        .iter()
        .map(|(w, t)| (format!("executor_ops_per_sec_{w}_workers"), *t))
        .collect();
    metrics.extend(sweep_named.iter().map(|(n, t)| (n.as_str(), *t)));
    write_bench_record("kn_scaling", &metrics);

    gate(
        speedup >= GATE_SPEEDUP,
        format!(
            "fanning a batch across {GATE_WORKERS} shard workers must deliver at \
             least {GATE_SPEEDUP}x the inline single-thread throughput, got \
             {speedup:.2}x"
        ),
    );
}

criterion_group!(benches, bench_kn_scaling);
criterion_main!(benches);
