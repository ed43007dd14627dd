//! Closed-loop experiment driver for timeline experiments (the shape of the
//! paper's Figures 6–8).
//!
//! The driver plays the role of the paper's client nodes *and* of the M-node:
//! client threads issue a closed-loop workload against a [`Kvs`], and once
//! per monitoring epoch the driver collects latency/occupancy/key-frequency
//! statistics, lets the [`PolicyEngine`] decide on reconfigurations, applies
//! them, and appends a [`TimelineRow`] to the experiment's output.

use crate::policy::{EpochObservation, PolicyAction, PolicyEngine};
use dinomo_core::{Kvs, KvsClient, Op};
use dinomo_obs::LogHistogram;
use dinomo_workload::{KeyDistribution, Operation, WorkloadConfig, WorkloadGenerator, WorkloadMix};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Length of one monitoring epoch in milliseconds.
    pub epoch_ms: u64,
    /// Number of epochs to run.
    pub total_epochs: usize,
    /// Number of client threads to spawn (the maximum the script can enable).
    pub max_clients: usize,
    /// Client threads active at the start.
    pub initial_clients: usize,
    /// The workload description (key count, value size, mix, skew, seed).
    pub workload: WorkloadConfig,
    /// Whether to load the key space before the measurement phase.
    pub preload: bool,
    /// Sample one in this many operations for key-frequency tracking.
    pub key_sample_every: usize,
    /// Operations each client submits per request. `1` issues classic
    /// per-op requests; larger values submit owner-grouped batches
    /// ([`dinomo_core::KvsClient::execute`]), amortizing per-request
    /// overhead as the paper's KNs amortize per-write overhead.
    pub batch_size: usize,
    /// Per-op latency objective, milliseconds: each epoch reports the
    /// fraction of operations at or under it
    /// ([`TimelineRow::slo_attainment`]).
    pub slo_ms: f64,
    /// Ceilings on the per-epoch contention counters; a run that exceeds
    /// them panics after the clients drain (see [`ContentionLimits`]).
    pub contention: ContentionLimits,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            epoch_ms: 100,
            total_epochs: 10,
            max_clients: 4,
            initial_clients: 1,
            workload: WorkloadConfig::default(),
            preload: true,
            key_sample_every: 8,
            batch_size: 1,
            slo_ms: 20.0,
            contention: ContentionLimits::default(),
        }
    }
}

/// Scenario-configurable ceilings on the contention counters the timeline
/// surfaces ([`TimelineRow::cell_registry_waits`] /
/// [`TimelineRow::epoch_bag_flushes`]). The columns exist precisely to
/// catch serialization creeping back into the swing/reclamation paths —
/// but a column nobody asserts on just scrolls past. With a limit set, an
/// epoch that exceeds it records the violation in the row's `actions` and
/// fails the scenario once the clients have drained; `None` (the default)
/// leaves that counter unchecked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionLimits {
    /// Maximum indirection-cell swing races tolerated in any one epoch.
    pub max_cell_registry_waits_per_epoch: Option<u64>,
    /// Maximum epoch-shim bag flushes tolerated in any one epoch.
    pub max_epoch_bag_flushes_per_epoch: Option<u64>,
}

/// Evaluate `limits` over a finished timeline; one human-readable
/// violation string per offending epoch and counter. Pure, so scenarios
/// can also run it over saved timelines.
pub fn check_contention(rows: &[TimelineRow], limits: ContentionLimits) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        if let Some(max) = limits.max_cell_registry_waits_per_epoch {
            if row.cell_registry_waits > max {
                violations.push(format!(
                    "epoch {}: {} cell-registry waits exceed the limit of {max}",
                    row.epoch, row.cell_registry_waits
                ));
            }
        }
        if let Some(max) = limits.max_epoch_bag_flushes_per_epoch {
            if row.epoch_bag_flushes > max {
                violations.push(format!(
                    "epoch {}: {} epoch-bag flushes exceed the limit of {max}",
                    row.epoch, row.epoch_bag_flushes
                ));
            }
        }
    }
    violations
}

/// A change the experiment script applies at the start of an epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Change the number of active client threads (load increase/decrease).
    SetClients(usize),
    /// Switch the key-popularity distribution (e.g. Zipf 0.5 → 2.0).
    SetDistribution(KeyDistribution),
    /// Switch the request mix.
    SetMix(WorkloadMix),
    /// Fail a specific node.
    FailNode(u32),
    /// Fail whichever node currently has the lowest id.
    FailRandomNode,
    /// Add a node outside of the policy engine's control.
    AddNode,
    /// Remove a specific node (planned scale-in, with the full drain +
    /// flush + hand-off protocol — unlike the fail-stop events above).
    RemoveNode(u32),
    /// Remove whichever node currently has the highest id.
    RemoveRandomNode,
}

/// A scripted event bound to an epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedEvent {
    /// Epoch (0-based) at whose start the event fires.
    pub at_epoch: usize,
    /// What happens.
    pub event: EventKind,
}

/// One epoch of the timeline (one point on the x-axis of Figures 6–8).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineRow {
    /// Epoch index.
    pub epoch: usize,
    /// Elapsed simulated-experiment time at the end of the epoch, seconds.
    pub seconds: f64,
    /// Operations completed during the epoch.
    pub ops: u64,
    /// Throughput in operations/second.
    pub throughput: f64,
    /// Mean latency over the epoch, milliseconds.
    pub avg_latency_ms: f64,
    /// Median latency over the epoch, milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile latency over the epoch, milliseconds.
    pub p99_latency_ms: f64,
    /// 99.9th-percentile latency over the epoch, milliseconds.
    pub p999_latency_ms: f64,
    /// Fraction of the epoch's operations at or under
    /// [`DriverConfig::slo_ms`] (1.0 for an idle epoch).
    pub slo_attainment: f64,
    /// Live KVS nodes at the end of the epoch.
    pub num_nodes: usize,
    /// Normalised standard deviation of per-node load during the epoch.
    pub load_imbalance: f64,
    /// Active client threads during the epoch.
    pub active_clients: usize,
    /// Number of keys currently selectively replicated.
    pub replicated_keys: usize,
    /// Sub-batches rejected with `Busy` during the epoch (bounded
    /// shard-worker queues exerting backpressure; the clients retried
    /// them). Persistently high values mean the executor queues are too
    /// shallow for the offered load — or the cluster needs more nodes.
    pub busy_rejections: u64,
    /// Victim segments the DPM log-cleaning compactor emptied and freed
    /// during the epoch.
    pub segments_compacted: u64,
    /// Live-entry bytes the compactor relocated during the epoch (its
    /// write amplification; paced by the dead-byte debt against
    /// `GcConfig::dead_fraction`).
    pub bytes_relocated: u64,
    /// End-of-epoch DPM space amplification: allocated segment bytes
    /// divided by live bytes (0.0 while the store is empty). The
    /// compactor's job is keeping this bounded under skewed overwrites.
    pub space_amplification: f64,
    /// Indirection-cell swings that lost a race during the epoch (see
    /// `DpmStats::cell_registry_waits`). The cell-contention signal:
    /// rising values mean hot shared keys are serializing on their cells.
    pub cell_registry_waits: u64,
    /// Epoch-shim garbage bags sealed into the global buckets during the
    /// epoch (the registry's `epoch_bag_flushes`). Each seal is one short
    /// global lock acquisition — the only cross-thread serialization left
    /// in the reclamation scheme — so this is the future-cliff counter for
    /// memory reclamation.
    pub epoch_bag_flushes: u64,
    /// Human-readable record of events and policy actions this epoch.
    pub actions: Vec<String>,
}

#[derive(Debug, Default)]
struct EpochSamples {
    /// Per-op latencies, log-bucketed (≤1.6 % relative error) — fixed
    /// size however many ops an epoch completes, unlike the sample
    /// vector it replaced, and queryable at any percentile.
    latency: LogHistogram,
    key_counts: HashMap<Vec<u8>, u64>,
    errors: u64,
}

struct SharedState {
    stop: AtomicBool,
    active_clients: AtomicUsize,
    workload: RwLock<WorkloadConfig>,
    workload_version: AtomicU64,
    ops: AtomicU64,
    samples: Mutex<EpochSamples>,
    key_sample_every: usize,
    batch_size: usize,
}

/// The experiment driver. See the module docs.
pub struct SimulationDriver {
    store: Kvs,
    config: DriverConfig,
    policy: Option<PolicyEngine>,
}

impl SimulationDriver {
    /// Create a driver for `store` (a `Kvs` is a cheap handle; clone it to
    /// keep one for inspection after the run).
    pub fn new(store: Kvs, config: DriverConfig) -> Self {
        SimulationDriver {
            store,
            config,
            policy: None,
        }
    }

    /// Attach an M-node policy engine (without one, only scripted events
    /// drive reconfiguration).
    pub fn with_policy(mut self, engine: PolicyEngine) -> Self {
        self.policy = Some(engine);
        self
    }

    /// Load the key space (the paper's load phase).
    pub fn preload(&self) {
        let client = self.store.client();
        let generator = WorkloadGenerator::new(self.config.workload);
        for (key, value) in generator.load_phase() {
            let _ = client.insert(&key, &value);
        }
        self.maintenance();
    }

    /// Flush buffered writes and reclaim fully-dead segments (between
    /// epochs, and after the load phase).
    fn maintenance(&self) {
        let _ = self.store.flush_all();
        self.store.dpm().run_gc();
    }

    /// Run the experiment and return one row per epoch.
    pub fn run(&self, events: &[ScriptedEvent]) -> Vec<TimelineRow> {
        if self.config.preload {
            self.preload();
        }
        let shared = Arc::new(SharedState {
            stop: AtomicBool::new(false),
            active_clients: AtomicUsize::new(
                self.config.initial_clients.min(self.config.max_clients),
            ),
            workload: RwLock::new(self.config.workload),
            workload_version: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            samples: Mutex::new(EpochSamples::default()),
            key_sample_every: self.config.key_sample_every.max(1),
            batch_size: self.config.batch_size.max(1),
        });

        let mut handles = Vec::new();
        for client_idx in 0..self.config.max_clients {
            let shared = Arc::clone(&shared);
            let client = self.store.client();
            handles.push(std::thread::spawn(move || {
                client_loop(client_idx, &client, &shared)
            }));
        }

        let mut rows = Vec::with_capacity(self.config.total_epochs);
        let mut replicated: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut epochs_since_action = usize::MAX / 2;
        let mut prev_stats = self.store.stats();
        // Counters migrated onto the metrics registry (busy rejections,
        // cell-registry waits, epoch bag flushes) read as generic
        // per-epoch snapshot deltas.
        let metrics = self.store.metrics();
        let mut prev_snap = metrics.snapshot();
        let epoch = Duration::from_millis(self.config.epoch_ms);
        let start = Instant::now();

        for epoch_idx in 0..self.config.total_epochs {
            let mut actions: Vec<String> = Vec::new();
            // Scripted events fire at the start of the epoch.
            for ev in events.iter().filter(|e| e.at_epoch == epoch_idx) {
                actions.push(self.apply_event(&ev.event, &shared));
            }

            let ops_before = shared.ops.load(Ordering::Relaxed);
            std::thread::sleep(epoch);
            let ops_after = shared.ops.load(Ordering::Relaxed);
            let samples = std::mem::take(&mut *shared.samples.lock());

            // Epoch statistics.
            let stats = self.store.stats();
            let (avg_ms, p50_ms, p99_ms, p999_ms) = latency_stats(&samples.latency);
            let slo_attainment = if samples.latency.is_empty() {
                1.0
            } else {
                let slo_ns = (self.config.slo_ms.max(0.0) * 1e6) as u64;
                samples.latency.count_at_or_below(slo_ns) as f64 / samples.latency.count() as f64
            };
            let ops = ops_after - ops_before;
            let elapsed_epoch = epoch.as_secs_f64();
            let node_ids = self.store.kn_ids();
            let occupancy: Vec<(u32, f64)> = stats
                .kns
                .iter()
                .map(|kn| {
                    let before = prev_stats
                        .kns
                        .iter()
                        .find(|p| p.id == kn.id)
                        .copied()
                        .unwrap_or_default();
                    (kn.id, kn.since(&before).occupancy(epoch.as_nanos() as u64))
                })
                .collect();
            let segments_compacted = stats
                .dpm
                .segments_compacted
                .saturating_sub(prev_stats.dpm.segments_compacted);
            let bytes_relocated = stats
                .dpm
                .bytes_relocated
                .saturating_sub(prev_stats.dpm.bytes_relocated);
            // One snapshot serves every migrated counter; the row fields
            // keep their names.
            let snap = metrics.snapshot();
            let busy_rejections = snap.counter_delta(&prev_snap, "kn_busy_rejections");
            let cell_registry_waits = snap.counter_delta(&prev_snap, "dpm_cell_registry_waits");
            let epoch_bag_flushes = snap.counter_delta(&prev_snap, "epoch_bag_flushes");
            prev_snap = snap;
            let space_amplification = if stats.dpm.live_bytes == 0 {
                0.0
            } else {
                stats.dpm.segment_bytes_allocated as f64 / stats.dpm.live_bytes as f64
            };
            let load_imbalance = {
                let delta = dinomo_core::KvsStats {
                    kns: stats
                        .kns
                        .iter()
                        .map(|kn| {
                            let before = prev_stats
                                .kns
                                .iter()
                                .find(|p| p.id == kn.id)
                                .copied()
                                .unwrap_or_default();
                            kn.since(&before)
                        })
                        .collect(),
                    ..Default::default()
                };
                delta.load_imbalance()
            };
            prev_stats = stats;

            // The M-node applies its policy.
            if let Some(engine) = &self.policy {
                let obs = EpochObservation {
                    avg_latency_ms: avg_ms,
                    p99_latency_ms: p99_ms,
                    occupancy: occupancy.clone(),
                    key_frequencies: samples.key_counts,
                    replicated_keys: replicated.iter().map(|(k, f)| (k.clone(), *f)).collect(),
                    supports_replication: self
                        .store
                        .config()
                        .variant
                        .supports_selective_replication(),
                    epochs_since_last_action: epochs_since_action,
                };
                let decisions = engine.decide(&obs);
                if decisions.is_empty() {
                    epochs_since_action = epochs_since_action.saturating_add(1);
                } else {
                    epochs_since_action = 0;
                }
                for action in decisions {
                    actions.push(self.apply_action(&action, &mut replicated));
                }
            }

            self.maintenance();
            rows.push(TimelineRow {
                epoch: epoch_idx,
                seconds: start.elapsed().as_secs_f64(),
                ops,
                throughput: ops as f64 / elapsed_epoch,
                avg_latency_ms: avg_ms,
                p50_latency_ms: p50_ms,
                p99_latency_ms: p99_ms,
                p999_latency_ms: p999_ms,
                slo_attainment,
                num_nodes: node_ids.len(),
                load_imbalance,
                active_clients: shared.active_clients.load(Ordering::Relaxed),
                replicated_keys: replicated.len(),
                busy_rejections,
                segments_compacted,
                bytes_relocated,
                space_amplification,
                cell_registry_waits,
                epoch_bag_flushes,
                actions,
            });
        }

        shared.stop.store(true, Ordering::Release);
        for h in handles {
            let _ = h.join();
        }

        // Contention gate (after the clients drain, so a violation can't
        // leak running threads): a breached ceiling fails the scenario
        // loudly instead of scrolling past as a column.
        let violations = check_contention(&rows, self.config.contention);
        if !violations.is_empty() {
            if let Some(last) = rows.last_mut() {
                last.actions
                    .extend(violations.iter().map(|v| format!("contention limit: {v}")));
            }
            panic!(
                "contention limits exceeded ({} violation(s)):\n  {}",
                violations.len(),
                violations.join("\n  ")
            );
        }
        rows
    }

    fn apply_event(&self, event: &EventKind, shared: &SharedState) -> String {
        match event {
            EventKind::SetClients(n) => {
                shared
                    .active_clients
                    .store((*n).min(self.config.max_clients), Ordering::Release);
                format!("load: {n} clients")
            }
            EventKind::SetDistribution(dist) => {
                shared.workload.write().distribution = *dist;
                shared.workload_version.fetch_add(1, Ordering::Release);
                format!("workload: distribution -> {dist:?}")
            }
            EventKind::SetMix(mix) => {
                shared.workload.write().mix = *mix;
                shared.workload_version.fetch_add(1, Ordering::Release);
                format!("workload: mix -> {}", mix.name)
            }
            EventKind::FailNode(id) => {
                let _ = self.store.fail_kn(*id);
                format!("failure injected: node {id}")
            }
            EventKind::FailRandomNode => {
                let id = self.store.kn_ids().into_iter().next();
                if let Some(id) = id {
                    let _ = self.store.fail_kn(id);
                    format!("failure injected: node {id}")
                } else {
                    "failure skipped: no nodes".to_string()
                }
            }
            EventKind::AddNode => match self.store.add_kn() {
                Ok(id) => format!("scripted add: node {id}"),
                Err(e) => format!("scripted add failed: {e}"),
            },
            EventKind::RemoveNode(id) => match self.store.remove_kn(*id) {
                Ok(()) => format!("scripted remove: node {id}"),
                Err(e) => format!("scripted remove of node {id} failed: {e}"),
            },
            EventKind::RemoveRandomNode => {
                let id = self.store.kn_ids().into_iter().next_back();
                if let Some(id) = id {
                    match self.store.remove_kn(id) {
                        Ok(()) => format!("scripted remove: node {id}"),
                        Err(e) => format!("scripted remove of node {id} failed: {e}"),
                    }
                } else {
                    "remove skipped: no nodes".to_string()
                }
            }
        }
    }

    fn apply_action(
        &self,
        action: &PolicyAction,
        replicated: &mut HashMap<Vec<u8>, usize>,
    ) -> String {
        match action {
            PolicyAction::AddNode => match self.store.add_kn() {
                Ok(id) => format!("policy: add node {id}"),
                Err(e) => format!("policy: add node failed: {e}"),
            },
            PolicyAction::RemoveNode(id) => match self.store.remove_kn(*id) {
                Ok(()) => format!("policy: remove node {id}"),
                Err(e) => format!("policy: remove node {id} failed: {e}"),
            },
            PolicyAction::ReplicateKey(key, factor) => {
                match self.store.replicate_key(key, *factor) {
                    Ok(_) => {
                        replicated.insert(key.clone(), *factor);
                        format!("policy: replicate key x{factor}")
                    }
                    Err(e) => format!("policy: replicate failed: {e}"),
                }
            }
            PolicyAction::DereplicateKey(key) => match self.store.dereplicate_key(key) {
                Ok(()) => {
                    replicated.remove(key);
                    "policy: dereplicate key".to_string()
                }
                Err(e) => format!("policy: dereplicate failed: {e}"),
            },
        }
    }
}

/// Convert a workload operation into the core request model.
fn to_op(op: &Operation) -> Op {
    match op {
        Operation::Read(k) => Op::lookup(k),
        Operation::Update(k, v) => Op::update(k, v),
        Operation::Insert(k, v) => Op::insert(k, v),
        Operation::Delete(k) => Op::delete(k),
        Operation::Scan(start, n) => Op::scan(start, *n),
    }
}

fn client_loop(client_idx: usize, client: &KvsClient, shared: &SharedState) {
    let mut workload_version = shared.workload_version.load(Ordering::Acquire);
    let mut config = *shared.workload.read();
    config.seed = config.seed.wrapping_add(client_idx as u64 * 7919);
    let mut generator = WorkloadGenerator::new(config);
    let mut local_latencies: Vec<u64> = Vec::with_capacity(256);
    let mut local_keys: Vec<Vec<u8>> = Vec::new();
    let mut local_errors: u64 = 0;
    let mut op_count: usize = 0;

    while !shared.stop.load(Ordering::Acquire) {
        if client_idx >= shared.active_clients.load(Ordering::Acquire) {
            flush_samples(
                shared,
                &mut local_latencies,
                &mut local_keys,
                &mut local_errors,
            );
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let current_version = shared.workload_version.load(Ordering::Acquire);
        if current_version != workload_version {
            workload_version = current_version;
            let mut c = *shared.workload.read();
            c.seed = c.seed.wrapping_add(client_idx as u64 * 7919);
            generator = WorkloadGenerator::new(c);
        }
        // Closed loop: submit `batch_size` ops per request (1 = classic
        // per-op traffic). Batch latency is attributed evenly across the
        // batch's ops so epoch latency statistics stay per-operation.
        let ops = generator.next_batch(shared.batch_size);
        let start = Instant::now();
        let replies = client.execute(ops.iter().map(to_op).collect());
        let elapsed = start.elapsed().as_nanos() as u64;
        let per_op_latency = elapsed / ops.len().max(1) as u64;
        for (op, reply) in ops.iter().zip(&replies) {
            local_latencies.push(per_op_latency);
            op_count += 1;
            if op_count.is_multiple_of(shared.key_sample_every) {
                local_keys.push(op.key().to_vec());
            }
            local_errors += u64::from(!reply.is_ok());
        }
        shared.ops.fetch_add(ops.len() as u64, Ordering::Relaxed);
        if local_latencies.len() >= 128 {
            flush_samples(
                shared,
                &mut local_latencies,
                &mut local_keys,
                &mut local_errors,
            );
        }
    }
    flush_samples(
        shared,
        &mut local_latencies,
        &mut local_keys,
        &mut local_errors,
    );
}

fn flush_samples(
    shared: &SharedState,
    latencies: &mut Vec<u64>,
    keys: &mut Vec<Vec<u8>>,
    errors: &mut u64,
) {
    if latencies.is_empty() && keys.is_empty() && *errors == 0 {
        return;
    }
    let mut samples = shared.samples.lock();
    for l in latencies.drain(..) {
        samples.latency.record(l);
    }
    for k in keys.drain(..) {
        *samples.key_counts.entry(k).or_insert(0) += 1;
    }
    samples.errors += std::mem::take(errors);
}

/// `(mean, p50, p99, p999)` in milliseconds over an epoch's latency
/// histogram — all zeros for an idle epoch.
fn latency_stats(hist: &LogHistogram) -> (f64, f64, f64, f64) {
    if hist.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    (
        hist.mean() / 1e6,
        hist.value_at_quantile(0.50) as f64 / 1e6,
        hist.value_at_quantile(0.99) as f64 / 1e6,
        hist.value_at_quantile(0.999) as f64 / 1e6,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SloConfig;
    use dinomo_core::KvsConfig;

    fn small_workload() -> WorkloadConfig {
        WorkloadConfig {
            num_keys: 200,
            value_len: 64,
            mix: WorkloadMix::WRITE_HEAVY_UPDATE,
            distribution: KeyDistribution::MODERATE_SKEW,
            seed: 1,
            key_len: 8,
            max_scan_len: 16,
        }
    }

    #[test]
    fn timeline_runs_and_reports_throughput() {
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        let driver = SimulationDriver::new(
            kvs,
            DriverConfig {
                epoch_ms: 30,
                total_epochs: 4,
                max_clients: 2,
                initial_clients: 1,
                workload: small_workload(),
                preload: true,
                key_sample_every: 4,
                batch_size: 1,
                ..DriverConfig::default()
            },
        );
        let rows = driver.run(&[]);
        assert_eq!(rows.len(), 4);
        assert!(
            rows.iter().map(|r| r.ops).sum::<u64>() > 0,
            "clients made no progress"
        );
        assert!(rows.iter().all(|r| r.num_nodes == 2));
        assert!(rows.iter().any(|r| r.avg_latency_ms > 0.0));
        // The histogram-backed percentile columns are populated and
        // ordered, and SLO attainment is a fraction.
        for r in rows.iter().filter(|r| r.ops > 0) {
            assert!(r.p50_latency_ms > 0.0, "{r:?}");
            assert!(r.p50_latency_ms <= r.p99_latency_ms, "{r:?}");
            assert!(r.p99_latency_ms <= r.p999_latency_ms, "{r:?}");
            assert!((0.0..=1.0).contains(&r.slo_attainment), "{r:?}");
        }
    }

    #[test]
    fn check_contention_flags_only_exceeded_limits() {
        let mut row = TimelineRow {
            epoch: 3,
            seconds: 0.1,
            ops: 10,
            throughput: 100.0,
            avg_latency_ms: 1.0,
            p50_latency_ms: 1.0,
            p99_latency_ms: 2.0,
            p999_latency_ms: 3.0,
            slo_attainment: 1.0,
            num_nodes: 2,
            load_imbalance: 0.0,
            active_clients: 1,
            replicated_keys: 0,
            busy_rejections: 0,
            segments_compacted: 0,
            bytes_relocated: 0,
            space_amplification: 1.0,
            cell_registry_waits: 40,
            epoch_bag_flushes: 7,
            actions: Vec::new(),
        };
        // Defaults check nothing.
        assert!(
            check_contention(std::slice::from_ref(&row), ContentionLimits::default()).is_empty()
        );
        let limits = ContentionLimits {
            max_cell_registry_waits_per_epoch: Some(40),
            max_epoch_bag_flushes_per_epoch: Some(6),
        };
        // At the limit passes; above it is one violation naming the epoch.
        let violations = check_contention(std::slice::from_ref(&row), limits);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("epoch 3") && violations[0].contains("bag flushes"));
        row.cell_registry_waits = 41;
        assert_eq!(
            check_contention(std::slice::from_ref(&row), limits).len(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "contention limits exceeded")]
    fn zero_contention_limit_fails_a_churning_run() {
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        let driver = SimulationDriver::new(
            kvs,
            DriverConfig {
                epoch_ms: 30,
                total_epochs: 3,
                max_clients: 2,
                initial_clients: 2,
                workload: small_workload(),
                // A write-heavy run always retires garbage, so a ceiling
                // of zero bag flushes must trip the gate.
                contention: ContentionLimits {
                    max_epoch_bag_flushes_per_epoch: Some(0),
                    ..ContentionLimits::default()
                },
                ..DriverConfig::default()
            },
        );
        driver.run(&[]);
    }

    #[test]
    fn batched_clients_make_progress_and_report_per_op_latency() {
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        let driver = SimulationDriver::new(
            kvs,
            DriverConfig {
                epoch_ms: 30,
                total_epochs: 4,
                max_clients: 2,
                initial_clients: 2,
                workload: small_workload(),
                preload: true,
                key_sample_every: 4,
                batch_size: 16,
                ..DriverConfig::default()
            },
        );
        let rows = driver.run(&[]);
        assert_eq!(rows.len(), 4);
        let total_ops: u64 = rows.iter().map(|r| r.ops).sum();
        assert!(total_ops >= 16, "batched clients made no progress");
        assert!(rows.iter().any(|r| r.avg_latency_ms > 0.0));
    }

    #[test]
    fn scripted_events_change_load_and_membership() {
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        let driver = SimulationDriver::new(
            kvs,
            DriverConfig {
                epoch_ms: 30,
                total_epochs: 5,
                max_clients: 2,
                initial_clients: 1,
                workload: small_workload(),
                preload: true,
                key_sample_every: 4,
                batch_size: 1,
                ..DriverConfig::default()
            },
        );
        let events = vec![
            ScriptedEvent {
                at_epoch: 1,
                event: EventKind::SetClients(2),
            },
            ScriptedEvent {
                at_epoch: 2,
                event: EventKind::AddNode,
            },
            ScriptedEvent {
                at_epoch: 3,
                event: EventKind::FailRandomNode,
            },
        ];
        let rows = driver.run(&events);
        assert_eq!(rows[1].active_clients, 2);
        assert!(
            rows[2].num_nodes >= 3,
            "scripted AddNode should grow the cluster"
        );
        assert!(
            rows[4].num_nodes < rows[2].num_nodes,
            "failure should shrink the cluster"
        );
        assert!(rows.iter().any(|r| !r.actions.is_empty()));
    }

    #[test]
    fn policy_engine_can_autoscale_under_pressure() {
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        // Absurdly tight SLO so any load triggers the add-node rule.
        let slo = SloConfig {
            avg_latency_ms: 0.000001,
            tail_latency_ms: 0.000001,
            overutil_lower_bound: 0.0,
            grace_epochs: 1,
            max_nodes: 3,
            ..SloConfig::default()
        };
        let driver = SimulationDriver::new(
            kvs,
            DriverConfig {
                epoch_ms: 30,
                total_epochs: 6,
                max_clients: 2,
                initial_clients: 2,
                workload: small_workload(),
                preload: true,
                key_sample_every: 4,
                batch_size: 1,
                ..DriverConfig::default()
            },
        )
        .with_policy(PolicyEngine::new(slo));
        let rows = driver.run(&[]);
        assert!(
            rows.last().unwrap().num_nodes > 2,
            "policy should have added a node: {:?}",
            rows.iter()
                .map(|r| (r.num_nodes, r.actions.clone()))
                .collect::<Vec<_>>()
        );
    }
}
