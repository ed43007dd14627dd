//! Range-scan acceptance gate: YCSB-E (95% scan / 5% insert) driven
//! through the batched client against a multi-KN cluster, so every scan
//! exercises the full path — per-node ordered-index snapshot + unmerged
//! overlay merge, cluster-wide fan-out, sorted-partial merge and
//! truncation. Correctness (sorted, bounded, non-empty results) is always
//! a hard assertion; the latency gate is soft on the merge-gating CI job
//! (`BENCH_SOFT=1`) and hard on the nightly perf job. Medians land in
//! `target/bench-results/scan_bench.json` for the perf-trajectory
//! artifact.

use dinomo_bench::harness::{gate, median, write_bench_record};
use dinomo_core::Kvs;
use dinomo_workload::{KeyDistribution, Operation, WorkloadConfig, WorkloadGenerator, WorkloadMix};
use std::time::Instant;

/// Keys loaded before the run.
const NUM_KEYS: u64 = 2_000;
/// YCSB-E operations in the timed run.
const TOTAL_OPS: usize = 12_000;
const MAX_SCAN_LEN: usize = 16;
/// Upper bound on the median scan latency (milliseconds) over the
/// simulated fabric. Generous on purpose: the gate exists to catch
/// order-of-magnitude regressions (a scan degenerating into per-key
/// lookups, a snapshot walk holding a lock), not machine jitter.
const GATE_MEDIAN_SCAN_MS: f64 = 5.0;

fn scan_cluster() -> Kvs {
    // Three KNs so every scan fans out and merges sorted partials.
    Kvs::builder()
        .small_for_tests()
        .initial_kns(3)
        .build()
        .unwrap()
}

fn main() {
    let kvs = scan_cluster();
    let client = kvs.client();
    let config = WorkloadConfig {
        num_keys: NUM_KEYS,
        key_len: 8,
        value_len: 128,
        mix: WorkloadMix::YCSB_E,
        distribution: KeyDistribution::MODERATE_SKEW,
        seed: 0xE5,
        max_scan_len: MAX_SCAN_LEN,
    };
    let mut generator = WorkloadGenerator::new(config);
    for (key, value) in generator.load_phase() {
        client.insert(&key, &value).unwrap();
    }
    // Half the load reaches the ordered index before the run, so scans
    // merge tree entries with the unmerged overlay the inserts keep
    // refilling.
    kvs.flush_all().unwrap();

    let mut scan_ms: Vec<f64> = Vec::with_capacity(TOTAL_OPS);
    let mut pairs_returned = 0usize;
    let mut empty_scans = 0usize;
    let mut inserts = 0usize;
    let run_start = Instant::now();
    for op in (0..TOTAL_OPS).map(|_| generator.next_op()) {
        match op {
            Operation::Scan(start, n) => {
                let begin = Instant::now();
                let pairs = client.scan(&start, n).unwrap();
                scan_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                // Correctness is never soft: sorted, in range, bounded.
                assert!(pairs.len() <= n, "scan returned more than its budget");
                assert!(
                    pairs.windows(2).all(|w| w[0].0 < w[1].0),
                    "scan results must be strictly key-ordered"
                );
                assert!(
                    pairs
                        .first()
                        .is_none_or(|(k, _)| k.as_slice() >= start.as_slice()),
                    "scan returned a key before its start"
                );
                pairs_returned += pairs.len();
                empty_scans += usize::from(pairs.is_empty());
            }
            Operation::Insert(key, value) => {
                client.insert(&key, &value).unwrap();
                inserts += 1;
            }
            Operation::Read(key) => {
                client.lookup(&key).unwrap();
            }
            Operation::Update(key, value) => {
                client.update(&key, &value).unwrap();
            }
            Operation::Delete(key) => {
                client.delete(&key).unwrap();
            }
        }
    }
    let elapsed = run_start.elapsed().as_secs_f64();

    let scans = scan_ms.len();
    let ops_per_sec = TOTAL_OPS as f64 / elapsed;
    let scans_per_sec = scans as f64 / elapsed;
    let med_ms = median(&scan_ms);
    let avg_pairs = pairs_returned as f64 / scans.max(1) as f64;
    println!(
        "scan_bench: YCSB-E {TOTAL_OPS} ops ({scans} scans, {inserts} inserts) in \
         {elapsed:.2}s — {ops_per_sec:.0} ops/s, {scans_per_sec:.0} scans/s, \
         median {med_ms:.3} ms/scan, {avg_pairs:.1} pairs/scan, {empty_scans} empty \
         (gate ≤ {GATE_MEDIAN_SCAN_MS} ms)"
    );

    write_bench_record(
        "scan_bench",
        &[
            ("ycsb_e_ops_per_sec", ops_per_sec),
            ("scans_per_sec", scans_per_sec),
            ("median_scan_ms", med_ms),
            ("avg_pairs_per_scan", avg_pairs),
            ("max_scan_len", MAX_SCAN_LEN as f64),
            ("num_keys", NUM_KEYS as f64),
            ("gate_median_scan_ms", GATE_MEDIAN_SCAN_MS),
        ],
    );

    // Scan starts are drawn from loaded keys and YCSB-E never deletes, so
    // a scan that comes back empty skipped its own start key.
    assert_eq!(empty_scans, 0, "no YCSB-E scan may come back empty");

    gate(
        med_ms <= GATE_MEDIAN_SCAN_MS,
        format!("median scan latency {med_ms:.3} ms exceeds the {GATE_MEDIAN_SCAN_MS} ms gate"),
    );
}
