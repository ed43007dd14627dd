//! Log-cleaning reclamation gate: under the skewed-overwrite preset with
//! one long-lived ("pin") key interleaved into every segment's worth of
//! churn, the pre-compactor policy (`run_gc`, all-entries-dead) can free
//! **zero** segments — every segment keeps at least one live entry — so
//! space amplification grows with write history. The compactor must
//! relocate the pins, reclaim the victims, and bring allocated ÷ live
//! bytes under the gate bound.
//!
//! Like the other acceptance benches, the assertion is soft on the
//! merge-gating CI job (`BENCH_SOFT=1`) and hard on the nightly perf
//! job; medians land in `target/bench-results/gc_reclaim.json` for the
//! perf-trajectory artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use dinomo_bench::harness::{gate, write_bench_record};
use dinomo_core::{GcConfig, Kvs, Op, Reply};
use dinomo_dpm::DpmConfig;
use dinomo_pclht::PclhtConfig;
use dinomo_pmem::PmemConfig;
use dinomo_workload::{Operation, WorkloadConfig, WorkloadGenerator};

/// Space amplification the compactor must stay under.
const AMP_BOUND: f64 = 3.0;
const OPS: usize = 30_000;
const BATCH: usize = 64;
/// One unique pin key per this many workload ops (≈ 2 pins per 64 KiB
/// segment at 256-byte values, so no segment is ever fully dead).
const PIN_EVERY: usize = 100;

fn gc_cluster() -> Kvs {
    // Single node / single shard so the log layout is deterministic; the
    // compactor itself is what's under test, not request routing.
    Kvs::builder()
        .small_for_tests()
        .initial_kns(1)
        .threads_per_kn(1)
        .write_batch_ops(8)
        .dpm(DpmConfig {
            pool: PmemConfig::with_capacity(96 << 20),
            segment_bytes: 64 << 10,
            index: PclhtConfig::for_capacity(4_096),
            ..DpmConfig::small_for_tests()
        })
        .gc(GcConfig {
            background: false,
            dead_fraction: 0.25,
            ..GcConfig::aggressive()
        })
        .build()
        .unwrap()
}

fn space_amplification(kvs: &Kvs) -> f64 {
    let dpm = kvs.stats().dpm;
    dpm.segment_bytes_allocated as f64 / dpm.live_bytes.max(1) as f64
}

/// Drive the skewed-overwrite preset with interleaved pin keys; returns
/// the number of pins written.
fn run_workload(kvs: &Kvs) -> usize {
    let client = kvs.client();
    let mut generator = WorkloadGenerator::new(WorkloadConfig::skewed_overwrite(48, 256, 0xD1_40));
    for (key, value) in generator.load_phase() {
        client.insert(&key, &value).unwrap();
    }
    let mut pins = 0usize;
    let mut issued = 0usize;
    while issued < OPS {
        let mut ops: Vec<Op> = Vec::with_capacity(BATCH + 1);
        for op in generator.next_batch(BATCH) {
            if issued.is_multiple_of(PIN_EVERY) {
                ops.push(Op::insert(format!("pin{pins:05}"), [0xCC; 64]));
                pins += 1;
            }
            issued += 1;
            ops.push(match op {
                Operation::Read(k) => Op::lookup(k),
                Operation::Update(k, v) | Operation::Insert(k, v) => Op::update(k, v),
                Operation::Delete(k) => Op::delete(k),
                Operation::Scan(..) => unreachable!("SKEWED_OVERWRITE has no scans"),
            });
        }
        let replies = client.execute(ops);
        assert!(replies.iter().all(Reply::is_ok), "workload op failed");
    }
    kvs.quiesce().unwrap();
    pins
}

fn bench_gc_reclaim(c: &mut Criterion) {
    let kvs = gc_cluster();
    let pins = run_workload(&kvs);

    let amp_loaded = space_amplification(&kvs);
    let run_gc_freed = kvs.dpm().run_gc();
    let amp_after_run_gc = space_amplification(&kvs);

    // Compact until a pass stops making progress.
    let mut compacted = 0u64;
    loop {
        let pass = kvs.dpm().compact_once();
        compacted += pass.segments_compacted;
        if pass.segments_compacted == 0 && pass.entries_relocated == 0 {
            break;
        }
    }
    let stats = kvs.stats().dpm;
    let amp_after_compaction = space_amplification(&kvs);
    println!(
        "gc_reclaim: run_gc freed {run_gc_freed}, compactor freed {compacted} \
         (amp {amp_loaded:.2} -> {amp_after_run_gc:.2} -> {amp_after_compaction:.2}, \
         {} bytes relocated, gate ≤ {AMP_BOUND})",
        stats.bytes_relocated
    );

    // Spot-check relocated data: every pin still reads its value.
    let client = kvs.client();
    for pin in (0..pins).step_by(37) {
        assert_eq!(
            client.lookup(format!("pin{pin:05}").as_bytes()).unwrap(),
            Some(vec![0xCC; 64]),
            "pin{pin:05} lost across compaction"
        );
    }

    write_bench_record(
        "gc_reclaim",
        &[
            ("segments_freed_by_run_gc", run_gc_freed as f64),
            ("segments_compacted", compacted as f64),
            ("bytes_relocated", stats.bytes_relocated as f64),
            ("space_amp_loaded", amp_loaded),
            ("space_amp_after_run_gc", amp_after_run_gc),
            ("space_amp_after_compaction", amp_after_compaction),
            ("gate_amp_bound", AMP_BOUND),
        ],
    );

    gate(
        run_gc_freed == 0,
        format!(
            "every segment carries a pin key, so the all-dead policy must \
             free nothing (freed {run_gc_freed})"
        ),
    );
    gate(
        compacted >= 1,
        format!("the compactor must reclaim pinned-under-old-policy segments (freed {compacted})"),
    );
    gate(
        amp_after_compaction <= AMP_BOUND,
        format!(
            "space amplification must end under {AMP_BOUND} \
             (got {amp_after_compaction:.2}, was {amp_after_run_gc:.2} under run_gc alone)"
        ),
    );

    // Steady-state pass cost (victim scan over a clean store), for the
    // perf trajectory.
    let mut group = c.benchmark_group("gc_reclaim");
    group.sample_size(10);
    group.bench_function("compact_once_clean", |b| {
        b.iter(|| std::hint::black_box(kvs.dpm().compact_once()))
    });
    group.finish();
}

criterion_group!(benches, bench_gc_reclaim);
criterion_main!(benches);
