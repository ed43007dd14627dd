//! Recovery-time figure: crash-to-SLO-met versus live data size.
//!
//! For each scale the store is loaded and overwritten (ack-durable
//! writes, persistence-tracked pool), then a whole-DPM power failure is
//! simulated and `Kvs::crash_dpm_and_recover` runs the full sequence —
//! drop volatile state, `simulate_crash`, `recover()`, quiescent
//! invariant walk, reopen. The clock stops when
//! a sample of keys reads back its expected value ("SLO met"), and the
//! median over several crashes per scale lands in
//! `target/bench-results/recovery_bench.json` for the perf-trajectory
//! artifact.
//!
//! Like the other acceptance benches, the assertion is soft on the
//! merge-gating CI job (`BENCH_SOFT=1`) and hard on the nightly
//! perf job.

use dinomo_bench::harness::{gate, median, write_bench_record};
use dinomo_core::{key_for, Kvs, Op, Reply};
use dinomo_dpm::DpmConfig;
use dinomo_pclht::PclhtConfig;
use dinomo_pmem::PmemConfig;
use std::time::Instant;

/// Key counts per scale (values are `VALUE_LEN` bytes each).
const SCALES: [u64; 3] = [1_000, 4_000, 16_000];
const VALUE_LEN: usize = 256;
/// Overwrite rounds after the load, so recovery replays superseded
/// entries too (staleness arbitration is part of the scan).
const OVERWRITE_ROUNDS: u8 = 3;
/// Crashes per scale; the recorded figure is the median.
const CRASHES_PER_SCALE: usize = 5;
const BATCH: usize = 64;
/// Median crash-to-SLO-met bound for the largest scale, in milliseconds.
/// Deliberately generous: the gate catches pathological regressions
/// (quadratic re-merge, lost idempotence forcing retries), not noise.
const SLO_BOUND_MS: f64 = 10_000.0;

fn recovery_cluster() -> Kvs {
    let mut pool = PmemConfig::with_capacity(96 << 20);
    // `simulate_crash` is a no-op unless the pool tracks persistence.
    pool.track_persistence = true;
    Kvs::builder()
        .small_for_tests()
        .initial_kns(2)
        .threads_per_kn(2)
        .dpm(DpmConfig {
            pool,
            segment_bytes: 64 << 10,
            index: PclhtConfig::for_capacity(32_768),
            ..DpmConfig::small_for_tests()
        })
        .build()
        .unwrap()
}

/// Load `keys` keys and overwrite them `OVERWRITE_ROUNDS` times; the
/// expected value of key `i` afterwards is `[OVERWRITE_ROUNDS; VALUE_LEN]`.
fn load(kvs: &Kvs, keys: u64) {
    let client = kvs.client();
    for round in 0..=OVERWRITE_ROUNDS {
        for chunk_start in (0..keys).step_by(BATCH) {
            let ops: Vec<Op> = (chunk_start..(chunk_start + BATCH as u64).min(keys))
                .map(|i| Op::insert(key_for(i, 8), [round; VALUE_LEN]))
                .collect();
            let replies = client.execute(ops);
            assert!(replies.iter().all(Reply::is_ok), "load op failed");
        }
    }
    kvs.quiesce().unwrap();
}

/// One timed crash: power-fail the DPM, recover, and probe a key sample
/// until every probe serves its expected value. Returns (elapsed ms,
/// entries recovered).
fn timed_crash(kvs: &Kvs, keys: u64) -> (f64, u64) {
    let client = kvs.client();
    let start = Instant::now();
    let report = kvs
        .crash_dpm_and_recover()
        .expect("recovery must pass its invariant walk");
    for i in (0..keys).step_by(97) {
        assert_eq!(
            client.lookup(&key_for(i, 8)).unwrap(),
            Some(vec![OVERWRITE_ROUNDS; VALUE_LEN]),
            "key {i} lost across the crash"
        );
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(report.recovery.entries_recovered > 0, "{report:?}");
    assert_eq!(report.recovery.torn_entries, 0, "{report:?}");
    (elapsed_ms, report.recovery.entries_recovered)
}

fn main() {
    let mut record: Vec<(String, f64)> = Vec::new();
    let mut largest_median = 0.0f64;
    for keys in SCALES {
        let kvs = recovery_cluster();
        load(&kvs, keys);
        let live_mb = kvs.stats().dpm.live_bytes as f64 / (1 << 20) as f64;
        let mut samples = Vec::with_capacity(CRASHES_PER_SCALE);
        let mut entries = 0u64;
        for _ in 0..CRASHES_PER_SCALE {
            let (ms, n) = timed_crash(&kvs, keys);
            samples.push(ms);
            entries = n;
        }
        let med = median(&samples);
        largest_median = med; // SCALES ascends; the last value wins.
        println!(
            "recovery_bench: {keys} keys ({live_mb:.2} MiB live, {entries} \
             entries replayed) — median crash-to-SLO {med:.2} ms \
             (samples {samples:?})"
        );
        record.push((format!("recovery_ms_{keys}"), med));
        record.push((format!("live_mb_{keys}"), live_mb));
        record.push((format!("entries_recovered_{keys}"), entries as f64));
    }
    record.push(("gate_slo_bound_ms".to_string(), SLO_BOUND_MS));
    let pairs: Vec<(&str, f64)> = record.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_bench_record("recovery_bench", &pairs);

    gate(
        largest_median <= SLO_BOUND_MS,
        format!(
            "median crash-to-SLO-met at the largest scale must stay under \
             {SLO_BOUND_MS} ms (got {largest_median:.2} ms)"
        ),
    );
}
