//! Observability overhead guard: the always-compiled metrics registry
//! and stage tracing must cost at most 3 % of closed-loop throughput.
//!
//! The guard measures a closed-loop workload (GC and replication live,
//! 8 client threads) twice in interleaved rounds — once with the
//! registry recording (`obs_on`, the default) and once with recording
//! globally disabled (`dinomo_obs::set_enabled(false)`, which turns
//! every timed section into a branch on one relaxed atomic and skips
//! the clock reads) — and gates the ratio of the medians. Interleaving
//! the rounds makes time-varying host noise hit both configurations
//! equally.
//!
//! With `BENCH_SOFT=1` (the merge-gating CI job) a persistent miss
//! only warns; the nightly perf job keeps the hard assertion.

use dinomo_bench::harness::{gate, median, retake_until, write_bench_record};
use dinomo_cache::CacheKind;
use dinomo_core::Kvs;
use dinomo_dpm::{DpmConfig, GcConfig};
use dinomo_pclht::PclhtConfig;
use dinomo_pmem::PmemConfig;
use dinomo_simnet::{DelayMode, FabricConfig};
use dinomo_workload::key_for;
use std::time::Instant;

const KEYS: u64 = 2_000;
const REPLICATED: u64 = 8;
const OPS_PER_THREAD: u64 = 400;
const THREADS: usize = 8;
const ROUNDS: usize = 5;
/// Maximum tolerated throughput loss with observability on.
const MAX_OVERHEAD: f64 = 0.03;

/// Build the measured cluster: `KEYS` keys on 4 KVS nodes × 4 shards,
/// cache-less reads (every op pays its fabric round trips), **sleeping**
/// fabric delays so client threads overlap their waits, the aggressive
/// background compactor live, and `REPLICATED` hot keys selectively
/// replicated so the shared-path indirection-cell machinery runs under
/// the measured load — every instrumented layer records while the gate
/// is taken.
fn saturation_cluster() -> Kvs {
    let kvs = Kvs::builder()
        .initial_kns(4)
        .threads_per_kn(4)
        .cache_kind(CacheKind::None)
        .cache_bytes_per_kn(1 << 20)
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
            // rounds, not against an idle cleaner.
            segment_bytes: 128 << 10,
            merge_threads: 2,
            index: PclhtConfig::for_capacity(KEYS as usize * 2),
            ..DpmConfig::default()
        })
        .build()
        .expect("building the saturation cluster failed");
    let client = kvs.client();
    let pairs: Vec<_> = (0..KEYS).map(|i| (key_for(i, 8), vec![1u8; 128])).collect();
    for chunk in pairs.chunks(256) {
        client.multi_put(chunk.iter().map(|(k, v)| (k.clone(), v.clone())));
    }
    kvs.quiesce().unwrap();
    for i in 0..REPLICATED {
        kvs.replicate_key(&key_for(i, 8), 2)
            .expect("replicating a hot key failed");
    }
    kvs
}

/// One closed-loop round: `THREADS` client threads each issue
/// `OPS_PER_THREAD` per-op requests (1 overwrite per 4 lookups, so the
/// compactor has dead bytes to clean throughout) against strided key
/// streams that all pass through the replicated hot keys. Returns the
/// aggregate throughput in ops/second. A failed op is retried — it must
/// not masquerade as a completed one.
fn measure_saturation_throughput(kvs: &Kvs) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = kvs.client();
                scope.spawn(move || {
                    let mut key = (t as u64).wrapping_mul(7919) % KEYS;
                    for i in 0..OPS_PER_THREAD {
                        key = (key + 31) % KEYS;
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
    (THREADS as u64 * OPS_PER_THREAD) as f64 / start.elapsed().as_secs_f64()
}

/// Interleaved medians: (obs on, obs off) ops/s.
fn measure_pair(kvs: &Kvs) -> (f64, f64) {
    let mut on = Vec::with_capacity(ROUNDS);
    let mut off = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        dinomo_obs::set_enabled(true);
        on.push(measure_saturation_throughput(kvs));
        dinomo_obs::set_enabled(false);
        off.push(measure_saturation_throughput(kvs));
    }
    dinomo_obs::set_enabled(true);
    (median(&on), median(&off))
}

fn main() {
    let kvs = saturation_cluster();

    // Warm-up outside the measured rounds.
    measure_saturation_throughput(&kvs);

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
