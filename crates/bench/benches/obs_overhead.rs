//! Observability overhead guard: the always-compiled metrics registry
//! and stage tracing must cost at most 3 % of closed-loop throughput.
//!
//! The guard measures the saturation workload (GC and replication live,
//! 8 client threads) twice in interleaved rounds — once with the
//! registry recording (`obs_on`, the default) and once with recording
//! globally disabled (`dinomo_obs::set_enabled(false)`, which turns
//! every timed section into a branch on one relaxed atomic and skips
//! the clock reads) — and gates the ratio of the medians. Interleaving
//! the rounds makes time-varying host noise hit both configurations
//! equally, the same trick the saturation sweep uses.
//!
//! With `BENCH_SOFT=1` (the merge-gating CI job) a persistent miss
//! only warns; the nightly perf job keeps the hard assertion.

use criterion::{criterion_group, criterion_main, Criterion};
use dinomo_bench::harness::{
    gate, measure_saturation_throughput, median, retake_until, saturation_cluster,
    write_bench_record,
};

const KEYS: u64 = 2_000;
const REPLICATED: u64 = 8;
const OPS_PER_THREAD: u64 = 400;
const THREADS: usize = 8;
const ROUNDS: usize = 5;
/// Maximum tolerated throughput loss with observability on.
const MAX_OVERHEAD: f64 = 0.03;

/// Interleaved medians: (obs on, obs off) ops/s.
fn measure_pair(kvs: &dinomo_core::Kvs) -> (f64, f64) {
    let mut on = Vec::with_capacity(ROUNDS);
    let mut off = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        dinomo_obs::set_enabled(true);
        on.push(measure_saturation_throughput(
            kvs,
            THREADS,
            KEYS,
            OPS_PER_THREAD,
        ));
        dinomo_obs::set_enabled(false);
        off.push(measure_saturation_throughput(
            kvs,
            THREADS,
            KEYS,
            OPS_PER_THREAD,
        ));
    }
    dinomo_obs::set_enabled(true);
    (median(&on), median(&off))
}

fn bench_obs_overhead(c: &mut Criterion) {
    let kvs = saturation_cluster(KEYS, REPLICATED);

    // Warm-up outside the measured rounds.
    measure_saturation_throughput(&kvs, THREADS, KEYS, OPS_PER_THREAD);

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("closed_loop_obs_on", |b| {
        b.iter(|| measure_saturation_throughput(&kvs, THREADS, KEYS, OPS_PER_THREAD / 4))
    });
    group.finish();

    // The gate, re-taken on a miss: a single unlucky scheduling quantum
    // at 8 threads swings more than the 3 % being resolved.
    let overhead = |on: f64, off: f64| if off > 0.0 { 1.0 - on / off } else { 0.0 };
    let (on, off) = retake_until(
        || measure_pair(&kvs),
        |&(on, off)| overhead(on, off) <= MAX_OVERHEAD,
    );
    let measured = overhead(on, off);
    println!(
        "obs overhead: {on:.0} ops/s recording vs {off:.0} ops/s disabled \
         ({:+.2}% throughput delta, gate {:.0}%)",
        -100.0 * measured,
        100.0 * MAX_OVERHEAD
    );

    write_bench_record(
        "obs_overhead",
        &[
            ("ops_per_sec_obs_on", on),
            ("ops_per_sec_obs_off", off),
            ("overhead_fraction", measured),
            ("gate_max_overhead", MAX_OVERHEAD),
        ],
    );

    gate(
        measured <= MAX_OVERHEAD,
        format!(
            "metrics registry + stage tracing cost {:.2}% of closed-loop \
             throughput (gate {:.0}%): {on:.0} ops/s on vs {off:.0} ops/s off",
            100.0 * measured,
            100.0 * MAX_OVERHEAD
        ),
    );
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
