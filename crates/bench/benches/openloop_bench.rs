//! Open-loop latency vs offered load over the 4-KN saturation cluster.
//!
//! The closed-loop `saturation_bench` answers "how much can the cluster
//! do?"; this bench answers the question every figure in the paper is
//! actually drawn from: "what latency does a client population see at a
//! given *offered* rate?" — measured coordinated-omission-free, with each
//! operation's latency taken from its scheduled arrival time (see
//! `dinomo_bench::openloop`).
//!
//! The sweep calibrates the cluster's closed-loop peak, then offers
//! fractions of it through the open-loop driver and reports
//! p50/p99/p999 per rate. The **knee** is the last offered rate where
//! p99 stays at or under the SLO *and* achieved throughput keeps up with
//! (≥ 95 % of) offered — past the knee the arrival backlog grows without
//! bound and the honest percentiles explode, which is exactly the shape
//! the latency-vs-load curve must show.
//!
//! Before the sweep the driver checks itself ([`driver_self_check`]): a
//! server that stalls once must show the stall in percentiles measured
//! from *scheduled arrival* and largely hide it in percentiles measured
//! from *send time* — the reason the driver exists. Those are wall-clock
//! assertions, so they live here under the bench gate rather than in
//! `cargo test`.

use criterion::{criterion_group, criterion_main, Criterion};
use dinomo_bench::breakdown::{fmt_ns, print_profile_rows, profile_baseline, profile_since};
use dinomo_bench::harness::{
    gate, measure_saturation_throughput, retake_until, saturation_cluster, write_bench_record,
    write_json,
};
use dinomo_bench::openloop::{run_open_loop, OpenLoopConfig, OpenLoopPlan, OpenLoopReport};
use dinomo_workload::{ArrivalProcess, KeyDistribution, Operation};
use serde::Serialize;
use std::time::Duration;

const KEYS: u64 = 2_000;
const REPLICATED: u64 = 8;
const WORKERS: usize = 16;
const SESSIONS: u32 = 20_000;
/// Offered-load sweep as fractions of the calibrated closed-loop peak.
const RATE_FRACTIONS: [f64; 6] = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2];
/// Each rate runs long enough for queues to reveal themselves.
const RUN_SECONDS: f64 = 1.5;
/// p99 service-level objective for the knee.
const SLO_MS: f64 = 20.0;
/// Knee criterion: achieved must keep up with offered.
const ACHIEVED_FRACTION: f64 = 0.95;
/// Gate: the knee must sit at or above this fraction of the closed-loop
/// peak, or open-loop latency has regressed far below cluster capacity.
const KNEE_GATE_FRACTION: f64 = 0.25;

/// Nanoseconds per millisecond: histograms record ns, rows report ms.
const MS: f64 = 1e6;

/// One row of the latency-vs-offered-load curve.
#[derive(Debug, Clone, Copy, Serialize)]
struct SweepRow {
    offered_ops_per_sec: f64,
    achieved_ops_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    send_p99_ms: f64,
    slo_attainment: f64,
}

fn open_loop_config(offered: f64) -> OpenLoopConfig {
    OpenLoopConfig {
        process: ArrivalProcess::Poisson,
        offered_rate: offered,
        total_ops: ((offered * RUN_SECONDS) as u64).clamp(2_000, 200_000),
        sessions: SESSIONS,
        workers: WORKERS,
        num_keys: KEYS,
        // Mirror the closed-loop saturation mix: 1 overwrite per 4 ops,
        // so the compactor has dead bytes to clean throughout.
        read_fraction: 0.75,
        value_len: 128,
        distribution: KeyDistribution::MODERATE_SKEW,
        seed: 0x09_E7,
    }
}

/// Run one offered rate against the cluster. `Busy` backpressure is
/// retried — in an open-loop world a rejected op is still an op the
/// client offered, and its retries all bill to its scheduled arrival.
fn run_rate(kvs: &dinomo_core::Kvs, offered: f64) -> OpenLoopReport {
    let plan = OpenLoopPlan::new(open_loop_config(offered));
    run_open_loop(&plan, |_worker| {
        let client = kvs.client();
        move |op: Operation| match op {
            Operation::Read(key) => {
                let mut tries = 0;
                while client.lookup(&key).is_err() {
                    tries += 1;
                    assert!(tries < 1000, "lookup kept failing");
                }
            }
            Operation::Update(key, value) => {
                let mut tries = 0;
                while client.update(&key, &value).is_err() {
                    tries += 1;
                    assert!(tries < 1000, "update kept failing");
                }
            }
            other => panic!("open-loop mix produced {other:?}"),
        }
    })
}

fn row_of(report: &OpenLoopReport) -> SweepRow {
    let sched = report.scheduled_summary();
    let send = report.send_summary();
    SweepRow {
        offered_ops_per_sec: report.offered_rate,
        achieved_ops_per_sec: report.achieved_rate,
        p50_ms: sched.p50_ns as f64 / MS,
        p99_ms: sched.p99_ns as f64 / MS,
        p999_ms: sched.p999_ns as f64 / MS,
        send_p99_ms: send.p99_ns as f64 / MS,
        slo_attainment: report.slo_attainment(Duration::from_millis(SLO_MS as u64)),
    }
}

/// The knee: the last swept rate that met the SLO at full delivery.
fn knee_of(rows: &[SweepRow]) -> Option<SweepRow> {
    rows.iter()
        .rfind(|r| {
            r.p99_ms <= SLO_MS
                && r.achieved_ops_per_sec >= ACHIEVED_FRACTION * r.offered_ops_per_sec
        })
        .copied()
}

/// The driver's measurement-honesty self-check, against no-op executors
/// (no cluster involved). Returns one message per missed expectation.
fn driver_self_check() -> Vec<String> {
    const RATE: f64 = 5_000.0;
    const OPS: u64 = 2_000;
    const STALL_AT: u64 = 500;
    const STALL: Duration = Duration::from_millis(50);

    let mut misses = Vec::new();
    let mut expect = |ok: bool, message: String| {
        if !ok {
            misses.push(message);
        }
    };

    // Fixed-rate arrivals and one worker: the op order is the schedule
    // order, so the stall lands at a known point with a known backlog.
    let plan = OpenLoopPlan::new(OpenLoopConfig {
        process: ArrivalProcess::FixedRate,
        offered_rate: RATE,
        total_ops: OPS,
        sessions: 100,
        workers: 1,
        ..OpenLoopConfig::default()
    });

    // A deliberately stalled executor must inflate p99 measured from
    // scheduled arrival and must NOT inflate p99 measured from send time.
    let report = run_open_loop(&plan, |_worker| {
        let mut issued = 0u64;
        move |_op: Operation| {
            issued += 1;
            if issued == STALL_AT {
                std::thread::sleep(STALL);
            }
        }
    });
    assert_eq!(report.ops, OPS);
    let sched = report.scheduled_summary();
    let send = report.send_summary();
    let (sched_p99_ms, send_p99_ms) = (sched.p99_ns as f64 / MS, send.p99_ns as f64 / MS);
    // The 50 ms stall at 5 kops/s queues ~250 arrivals (12.5 % of the
    // run) behind it with scheduled-arrival delays ramping up to ~50 ms,
    // so the honest p99 must sit deep inside the stall.
    expect(
        sched_p99_ms >= 10.0,
        format!("scheduled-arrival p99 must feel the backlog: {sched:?}"),
    );
    // Send-time measurement sees one slow op out of 2000 (0.05 %), far
    // under the 1 % tail: its p99 stays at no-op-executor latency.
    expect(
        send_p99_ms <= 5.0,
        format!("send-time p99 should hide the stall: {send:?}"),
    );
    expect(
        sched_p99_ms >= 5.0 * send_p99_ms,
        format!(
            "the two measurements must visibly diverge: scheduled {sched_p99_ms:.3} ms \
             vs send {send_p99_ms:.3} ms"
        ),
    );
    // Only the stalled op itself is slow from send time — it is the max.
    expect(send.max_ns as f64 / MS >= 45.0, format!("{send:?}"));
    // SLO attainment from scheduled arrival sees the whole backlog.
    let attainment = report.slo_attainment(Duration::from_millis(10));
    expect(
        (0.80..=0.995).contains(&attainment),
        format!("roughly the backlogged tail should miss a 10 ms SLO: {attainment}"),
    );

    // Without a stall the two measurements agree — the divergence above
    // is the stall's doing, not a driver artifact.
    let report = run_open_loop(&plan, |_worker| {
        move |op: Operation| {
            std::hint::black_box(&op);
        }
    });
    let sched = report.scheduled_summary();
    expect(
        (sched.p99_ns as f64 / MS) < 10.0,
        format!("no stall, no backlog: scheduled p99 stays small: {sched:?}"),
    );
    expect(
        report.achieved_rate > 0.9 * report.offered_rate,
        format!(
            "an unstalled run must achieve its offered rate: {} of {}",
            report.achieved_rate, report.offered_rate
        ),
    );
    let attainment = report.slo_attainment(Duration::from_millis(10));
    expect(
        attainment > 0.99,
        format!("an unstalled run must meet a 10 ms SLO: {attainment}"),
    );
    misses
}

fn bench_openloop(c: &mut Criterion) {
    let misses = retake_until(driver_self_check, Vec::is_empty);
    gate(
        misses.is_empty(),
        format!("open-loop driver self-check: {}", misses.join("; ")),
    );

    let kvs = saturation_cluster(KEYS, REPLICATED);

    // Calibrate the closed-loop peak at the worker count so the sweep
    // brackets the cluster's actual capacity instead of hard-coding one.
    measure_saturation_throughput(&kvs, WORKERS, KEYS, 200); // warm-up
    let peak = measure_saturation_throughput(&kvs, WORKERS, KEYS, 400);
    println!("open-loop sweep: closed-loop peak at {WORKERS} workers = {peak:.0} ops/s");

    let mut group = c.benchmark_group("openloop");
    group.sample_size(10);
    group.bench_function("poisson_half_peak", |b| {
        b.iter(|| run_rate(&kvs, 0.5 * peak).ops)
    });
    group.finish();

    // The gated sweep, re-taken on a miss (see `retake_until`).
    let rows = retake_until(
        || {
            RATE_FRACTIONS
                .iter()
                .map(|f| row_of(&run_rate(&kvs, f * peak)))
                .collect::<Vec<SweepRow>>()
        },
        |rows| knee_of(rows).is_some_and(|k| k.offered_ops_per_sec >= KNEE_GATE_FRACTION * peak),
    );
    let knee = knee_of(&rows);

    for r in &rows {
        println!(
            "openloop, offered {:>8.0} ops/s: achieved {:>8.0}, p50 {:>8.3} ms, \
             p99 {:>8.3} ms, p999 {:>8.3} ms (send-time p99 {:>7.3} ms), \
             SLO({SLO_MS} ms) attainment {:.3}",
            r.offered_ops_per_sec,
            r.achieved_ops_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.send_p99_ms,
            r.slo_attainment
        );
    }
    match &knee {
        Some(k) => println!(
            "knee: {:.0} ops/s offered ({:.2}x the closed-loop peak) with p99 {:.3} ms",
            k.offered_ops_per_sec,
            k.offered_ops_per_sec / peak,
            k.p99_ms
        ),
        None => println!("knee: none found — every swept rate violated the SLO"),
    }

    // Profile the knee: re-run the knee rate over a windowed registry
    // baseline and print where the time goes — which lifecycle stage or
    // lock a client's p99 is actually made of at the highest rate the
    // cluster still delivers within SLO.
    if let Some(k) = &knee {
        let registry = kvs.metrics();
        let base = profile_baseline(&registry);
        run_rate(&kvs, k.offered_ops_per_sec);
        let profile = profile_since(&registry, &base);
        println!(
            "\nstage/lock profile at the knee ({:.0} ops/s offered):",
            k.offered_ops_per_sec
        );
        print_profile_rows("knee", &profile);
        if let Some(dom) = profile.first() {
            println!(
                "knee dominant stage/lock: {} (p99 {})",
                dom.name,
                fmt_ns(dom.summary.p99_ns as f64)
            );
        }
    }

    // Full curve plus flat medians for the CI perf-trajectory artifact.
    write_json("openloop_sweep", &rows);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for (f, r) in RATE_FRACTIONS.iter().zip(&rows) {
        let pct = (f * 100.0) as u64;
        metrics.push((
            format!("offered_{pct}pct_ops_per_sec"),
            r.offered_ops_per_sec,
        ));
        metrics.push((
            format!("achieved_{pct}pct_ops_per_sec"),
            r.achieved_ops_per_sec,
        ));
        metrics.push((format!("p50_ms_at_{pct}pct"), r.p50_ms));
        metrics.push((format!("p99_ms_at_{pct}pct"), r.p99_ms));
        metrics.push((format!("p999_ms_at_{pct}pct"), r.p999_ms));
    }
    metrics.push((
        "knee_ops_per_sec".to_string(),
        knee.map_or(0.0, |k| k.offered_ops_per_sec),
    ));
    metrics.push(("closed_loop_peak_ops_per_sec".to_string(), peak));
    metrics.push(("slo_ms".to_string(), SLO_MS));
    let named: Vec<(&str, f64)> = metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    write_bench_record("openloop_bench", &named);

    let knee_rate = knee.map_or(0.0, |k| k.offered_ops_per_sec);
    gate(
        knee_rate >= KNEE_GATE_FRACTION * peak,
        format!(
            "the open-loop knee (last rate with p99 <= {SLO_MS} ms and achieved >= \
             {ACHIEVED_FRACTION}x offered) must reach at least {KNEE_GATE_FRACTION}x \
             the closed-loop peak of {peak:.0} ops/s, got {knee_rate:.0} ops/s"
        ),
    );
}

criterion_group!(benches, bench_openloop);
criterion_main!(benches);
