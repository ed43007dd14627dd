//! Whole-system saturation: closed-loop thread scaling with GC and
//! replication live.
//!
//! Every other bench isolates one subsystem; this one exists to catch the
//! serialization cliffs that only appear when everything runs at once —
//! the epoch shim reclaiming garbage from every thread, the compactor
//! relocating entries under foreground load, shared keys swinging their
//! indirection cells, and sixteen shard workers validating shortcut
//! addresses on every read. A global lock on any of those paths flattens
//! the thread-scaling curve; the gate asserts it stays near-linear.
//!
//! The cluster runs cache-less reads over a **sleeping** fabric-delay
//! mode, so each operation parks its thread for the modeled RDMA round
//! trips and concurrent client threads overlap their waits — thread
//! scaling is then limited only by real serialization inside the store
//! (locks, CAS retries, the merge path), not by host core count.

//!
//! With `--breakdown` (or `SAT_BREAKDOWN=1`) the bench instead profiles
//! the run: at 1, 8 and 16 client threads it isolates the per-stage and
//! per-lock time recorded by the metrics registry during the measured
//! window, prints the tables, names the dominant stage/lock at 16
//! threads — the data-backed answer to "what is the next scaling
//! ceiling" — and writes the registry snapshot to
//! `target/bench-results/metrics_snapshot.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use dinomo_bench::breakdown::{
    print_profile_rows, profile_baseline, profile_since, write_metrics_snapshot,
};
use dinomo_bench::harness::{
    gate, measure_saturation_throughput, median, retake_until, saturation_cluster,
    write_bench_record,
};

const KEYS: u64 = 2_000;
const REPLICATED: u64 = 8;
const OPS_PER_THREAD: u64 = 400;
const THREAD_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
const GATE_THREADS: usize = 8;
const GATE_SPEEDUP: f64 = 3.0;

/// Median aggregate throughput per thread count over interleaved rounds
/// (so time-varying host noise hits every thread count equally).
fn measure_sweep(kvs: &dinomo_core::Kvs, rounds: usize) -> Vec<(usize, f64)> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); THREAD_SWEEP.len()];
    for _ in 0..rounds {
        for (i, &threads) in THREAD_SWEEP.iter().enumerate() {
            samples[i].push(measure_saturation_throughput(
                kvs,
                threads,
                KEYS,
                OPS_PER_THREAD,
            ));
        }
    }
    THREAD_SWEEP
        .iter()
        .zip(&samples)
        .map(|(&threads, s)| (threads, median(s)))
        .collect()
}

fn speedup_at(sweep: &[(usize, f64)], threads: usize) -> f64 {
    let base = sweep.iter().find(|(t, _)| *t == 1).map(|(_, v)| *v);
    let at = sweep.iter().find(|(t, _)| *t == threads).map(|(_, v)| *v);
    match (base, at) {
        (Some(b), Some(v)) if b > 0.0 => v / b,
        _ => 0.0,
    }
}

const BREAKDOWN_SWEEP: [usize; 3] = [1, 8, 16];

/// `true` when the profiling mode was requested (Criterion's shim passes
/// unrecognized flags through untouched).
fn breakdown_mode() -> bool {
    std::env::args().any(|a| a == "--breakdown")
        || std::env::var_os("SAT_BREAKDOWN").is_some_and(|v| v != "0")
}

/// Profile the saturation workload: per-stage / per-lock time at each
/// thread count (windowed, so preload and other thread counts don't
/// contaminate the tables), verdict at 16 threads, JSON snapshot.
fn run_breakdown(kvs: &dinomo_core::Kvs) {
    let registry = kvs.metrics();
    let mut verdict: Option<(dinomo_bench::ProfileRow, f64)> = None;
    for &threads in &BREAKDOWN_SWEEP {
        let base = profile_baseline(&registry);
        let tput = measure_saturation_throughput(kvs, threads, KEYS, OPS_PER_THREAD);
        let rows = profile_since(&registry, &base);
        println!("\nbreakdown at {threads} threads: {tput:.0} ops/s aggregate");
        print_profile_rows(&format!("{threads} threads"), &rows);
        if threads == BREAKDOWN_SWEEP[BREAKDOWN_SWEEP.len() - 1] {
            let total: f64 = rows.iter().map(|r| r.total_ns()).sum();
            verdict = rows
                .into_iter()
                .next()
                .map(|dom| (dom, if total > 0.0 { total } else { 1.0 }));
        }
    }
    match verdict {
        Some((dom, total)) => println!(
            "\nverdict: at 16 threads the dominant stage/lock is {} \
             ({:.1}% of accounted stage/lock time, p99 {})",
            dom.name,
            100.0 * dom.total_ns() / total,
            dinomo_bench::breakdown::fmt_ns(dom.summary.p99_ns as f64),
        ),
        None => println!("\nverdict: no stage/lock samples recorded at 16 threads"),
    }
    write_metrics_snapshot(&registry.snapshot());
}

fn bench_saturation(c: &mut Criterion) {
    let kvs = saturation_cluster(KEYS, REPLICATED);

    // Warm-up: one full-width round so first-touch costs (lazy index
    // buckets, compactor destination segments) land outside the sweep.
    measure_saturation_throughput(&kvs, GATE_THREADS, KEYS, OPS_PER_THREAD);

    if breakdown_mode() {
        run_breakdown(&kvs);
        return;
    }

    let mut group = c.benchmark_group("saturation");
    group.sample_size(10);
    group.bench_function(format!("closed_loop_{GATE_THREADS}_threads"), |b| {
        b.iter(|| measure_saturation_throughput(&kvs, GATE_THREADS, KEYS, OPS_PER_THREAD / 4))
    });
    group.finish();

    // The gated sweep.
    let sweep = retake_until(
        || measure_sweep(&kvs, 3),
        |sweep| speedup_at(sweep, GATE_THREADS) >= GATE_SPEEDUP,
    );
    let speedup = speedup_at(&sweep, GATE_THREADS);
    for (threads, tput) in &sweep {
        println!(
            "saturation, {threads:>2} client threads: {tput:>9.0} ops/s aggregate \
             ({:.2}x the 1-thread median)",
            speedup_at(&sweep, *threads)
        );
    }
    let stats = kvs.stats();
    println!(
        "contention after sweep: {} cell-swing races, {} segments compacted \
         ({} allocated, {} freed)",
        stats.dpm.cell_registry_waits,
        stats.dpm.segments_compacted,
        stats.dpm.segments_allocated,
        stats.dpm.segments_freed
    );

    // Machine-readable medians for the CI perf-trajectory artifact.
    let mut metrics: Vec<(String, f64)> = sweep
        .iter()
        .map(|(t, v)| (format!("ops_per_sec_{t}_threads"), *v))
        .collect();
    metrics.push(("speedup_at_8_threads".to_string(), speedup));
    metrics.push(("speedup_at_4_threads".to_string(), speedup_at(&sweep, 4)));
    metrics.push(("gate_speedup".to_string(), GATE_SPEEDUP));
    metrics.push((
        "cell_swing_races".to_string(),
        stats.dpm.cell_registry_waits as f64,
    ));
    let named: Vec<(&str, f64)> = metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    write_bench_record("saturation_bench", &named);

    gate(
        speedup >= GATE_SPEEDUP,
        format!(
            "with GC and replication live, {GATE_THREADS} client threads must \
             deliver at least {GATE_SPEEDUP}x the 1-thread throughput \
             (near-linear scaling), got {speedup:.2}x"
        ),
    );
}

criterion_group!(benches, bench_saturation);
criterion_main!(benches);
