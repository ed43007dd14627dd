//! The fixed cluster preset `c2x2` and the workload table. Every number
//! the benchmark prints was measured on this preset; nothing here is
//! calibrated at run time.

use crate::gen::KeyDist;
use dinomo_cache::CacheKind;
use dinomo_core::{GcConfig, KvsConfig, Variant};
use dinomo_dpm::DpmConfig;
use dinomo_pmem::PmemConfig;
use dinomo_simnet::{DelayMode, FabricConfig};

pub const PRESET: &str = "c2x2";
pub const KNS: usize = 2;
pub const SHARDS_PER_KN: usize = 2;
pub const WRITE_BATCH_OPS: usize = 8;
pub const MERGE_THREADS: usize = 2;
pub const KEYS: u64 = 200_000;
pub const QUICK_KEYS: u64 = 20_000;
/// Value bytes; keys are 8 bytes.
pub const VALUE_LEN: usize = 128;
/// Closed-phase batch size: above `2 KNs x 2 shards x executor_min_sub_batch`
/// (16 by default), so sub-batches are queued to shard workers, not run
/// inline on the caller.
pub const BATCH_OPS: usize = 128;
/// Load-generating threads are capped here however many cores there are.
pub const MAX_CLIENTS: usize = 4;

/// The control-plane script `churn` runs once per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    None,
    /// `replicate_key` x4 hottest, `add_kn`, `fail_kn`, `add_kn`,
    /// `remove_kn`, `dereplicate_key` x4: ends at 2 KNs.
    Churn,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub cache_bytes_per_kn: usize,
    pub dist: KeyDist,
    pub write_share: f64,
    /// Offered open-phase rate in ops/s: an absolute constant (about 40 %
    /// of the seed's per-key capacity on the 2-core sizing box).
    pub open_rate: f64,
    /// Generator threads of the open phase (capped by `clients()`). The
    /// high-rate workloads use one: their gaps (10-20 µs) are too short to
    /// sleep through, and generators spinning on every core leave kernel
    /// and VM housekeeping nowhere to run but on top of a generator — the
    /// p99 then measures the scheduler (sizing: 110-1900 µs per round with
    /// two spinning threads on two cores, 23-70 µs with one).
    pub open_clients: usize,
    pub slo_us: u64,
    pub segment_bytes: u64,
    pub background_gc: bool,
    pub script: Script,
    /// End with `crash_dpm_and_recover` without a prior `flush_all`.
    pub crash: bool,
    /// Read operations that fill the caches before anything is measured.
    pub warm_ops: u64,
}

const MIB: usize = 1 << 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hit_read",
        why: "64 MiB cache/KN holds every value, so each read is a DAC value hit: partition, client, executor, kn and cache.lookup do all the work, simnet/dpm/pclht none; the bypass for DPM-side changes",
        cache_bytes_per_kn: 64 * MIB,
        dist: KeyDist::Uniform,
        write_share: 0.0,
        open_rate: 100_000.0,
        open_clients: 1,
        slo_us: 1_000,
        segment_bytes: 8 << 20,
        background_gc: false,
        script: Script::None,
        crash: false,
        warm_ops: 0, // warmed by reading every key once
    },
    Workload {
        name: "dac_read",
        why: "1.6 MiB cache/KN under Zipf 0.99 reads (the paper's Fig. 3/5 regime): value hits, shortcut hits (1 RT) and misses (2 RTs) with Eq. 1 adaptation live; cache, simnet, dpm_read, pclht dominate",
        cache_bytes_per_kn: 1_600 * 1024,
        dist: KeyDist::Zipf(0.99),
        write_share: 0.0,
        open_rate: 2_000.0,
        open_clients: 2,
        slo_us: 5_000,
        segment_bytes: 8 << 20,
        background_gc: false,
        script: Script::None,
        crash: false,
        warm_ops: 30_000,
    },
    Workload {
        name: "write_mix",
        why: "50 % updates beside reads on the same shards and cache, 256 KiB segments, background compactor: log, merge, gc, ordered, pmem do the work; ends with a DPM crash without flush_all, and recovery",
        cache_bytes_per_kn: 1_600 * 1024,
        dist: KeyDist::Zipf(0.99),
        write_share: 0.5,
        open_rate: 2_000.0,
        open_clients: 2,
        slo_us: 10_000,
        segment_bytes: 256 << 10,
        background_gc: true,
        script: Script::None,
        crash: true,
        warm_ops: 30_000,
    },
    Workload {
        name: "churn",
        why: "all-hit 95/5 Zipf baseline under a scripted replicate/add_kn/fail_kn/add_kn/remove_kn/dereplicate sequence: hand-off blackout, cold caches and the shared-key path stand out; reconfig dominates",
        cache_bytes_per_kn: 64 * MIB,
        dist: KeyDist::Zipf(0.99),
        write_share: 0.05,
        open_rate: 50_000.0,
        open_clients: 1,
        slo_us: 10_000,
        // Every add_kn brings two fresh log writers, each opening a
        // segment: small ones keep ten scripts a run inside the pool.
        segment_bytes: 1 << 20,
        background_gc: false,
        script: Script::Churn,
        crash: false,
        warm_ops: 0,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// `min(nproc, 4)` load-generating threads.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_CLIENTS)
}

/// The `c2x2` cluster for `w`: 2 KNs x 2 shards, `Variant::Dinomo`, DAC,
/// executor knobs at `KvsConfig` defaults, and a fabric that busy-spins the
/// modeled delay 1/1 — a KN thread polling its completion queue, as in the
/// paper. (`Sleep` would measure the kernel timer; `None` would hide the
/// round trips DAC exists to save.)
pub fn cluster_config(w: &Workload, track_persistence: bool) -> KvsConfig {
    KvsConfig {
        variant: Variant::Dinomo,
        initial_kns: KNS,
        threads_per_kn: SHARDS_PER_KN,
        cache_bytes_per_kn: w.cache_bytes_per_kn,
        cache_kind: Some(CacheKind::Dac),
        write_batch_ops: WRITE_BATCH_OPS,
        dpm: DpmConfig {
            pool: PmemConfig {
                capacity_bytes: 512 << 20,
                track_persistence,
                ..PmemConfig::default()
            },
            segment_bytes: w.segment_bytes,
            merge_threads: MERGE_THREADS,
            gc: GcConfig {
                background: w.background_gc,
                ..GcConfig::default()
            },
            ..DpmConfig::default()
        },
        fabric: FabricConfig {
            delay: DelayMode::full(),
            ..FabricConfig::default()
        },
        ..KvsConfig::default()
    }
}
