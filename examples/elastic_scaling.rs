//! Elastic scaling: the M-node policy engine reacts to a load burst by adding
//! KVS nodes and releases them once the burst subsides — a miniature version
//! of the paper's Figure 6 experiment. The example is its own M-node: once
//! per epoch it feeds the clients' latencies and key samples, plus each
//! node's occupancy from the `Kvs::stats()` delta, to `PolicyEngine::decide`
//! and applies the decisions through the cluster's reconfiguration API.
//!
//! ```bash
//! cargo run --release --example elastic_scaling
//! ```

use dinomo::cluster::PolicyAction::{self, AddNode, DereplicateKey, RemoveNode, ReplicateKey};
use dinomo::cluster::{EpochObservation, PolicyEngine, SloConfig};
use dinomo::dpm::GcConfig;
use dinomo::workload::Operation;
use dinomo::{Kvs, WorkloadConfig, WorkloadGenerator, WorkloadMix};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const EPOCH: Duration = Duration::from_millis(100);
const EPOCHS: usize = 28;
/// Client threads: all of them run during the burst, one outside it.
const CLIENTS: usize = 6;
const BURST: std::ops::Range<usize> = 4..16;

/// One epoch's per-op latencies (ms) and per-key access counts.
type Samples = (Vec<f64>, HashMap<Vec<u8>, u64>);

fn main() {
    // The compactor reclaims the overwritten log space in the small pool.
    let kvs = Kvs::builder()
        .small_for_tests()
        .initial_kns(1)
        .cache_bytes_per_kn(2 << 20)
        .gc(GcConfig::aggressive())
        .build()
        .expect("cluster");
    let workload = WorkloadConfig {
        num_keys: 2_000,
        value_len: 128,
        mix: WorkloadMix::READ_MOSTLY_UPDATE,
        ..WorkloadConfig::default()
    };
    let loader = kvs.client();
    for (key, value) in WorkloadGenerator::new(workload).load_phase() {
        loader.insert(&key, &value).expect("preload");
    }
    let (active, stop) = (AtomicUsize::new(1), AtomicBool::new(false));
    let samples = Mutex::new(Samples::default());
    std::thread::scope(|s| {
        for idx in 0..CLIENTS {
            let (kvs, active, stop, samples) = (&kvs, &active, &stop, &samples);
            let seed = workload.seed + idx as u64;
            let mut generator = WorkloadGenerator::new(WorkloadConfig { seed, ..workload });
            s.spawn(move || {
                let client = kvs.client();
                while !stop.load(Ordering::Relaxed) {
                    if idx >= active.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    let op = generator.next_op();
                    let start = Instant::now();
                    // The client retries rejections; one that surfaces is a slow op.
                    let _ = match &op {
                        Operation::Update(key, value) => client.update(key, value),
                        other => client.lookup(other.key()).map(drop),
                    };
                    let mut samples = samples.lock().expect("client panicked");
                    samples.0.push(start.elapsed().as_secs_f64() * 1e3);
                    *samples.1.entry(op.key().to_vec()).or_default() += 1;
                }
            });
        }
        m_node(&kvs, &active, &samples);
        stop.store(true, Ordering::Relaxed);
    });
}

/// Set each epoch's client count, then observe the epoch, decide, apply.
fn m_node(kvs: &Kvs, active: &AtomicUsize, samples: &Mutex<Samples>) {
    // Calibrated to the simulated fabric: one client meets the average
    // SLO and six do not; occupancy is a node's busy share of the epoch.
    let engine = PolicyEngine::new(SloConfig {
        avg_latency_ms: 0.005,
        overutil_lower_bound: 0.40,
        underutil_upper_bound: 0.30,
        ..SloConfig::default()
    });
    let ownership = kvs.ownership();
    let mut quiet = engine.config().grace_epochs; // epochs since the last reconfiguration
    let mut prev = kvs.stats();
    println!("epoch  kops/s  avg(ms)  p99(ms)  min occ  KNs  clients  actions");
    for epoch in 0..EPOCHS {
        let clients = if BURST.contains(&epoch) { CLIENTS } else { 1 };
        active.store(clients, Ordering::Relaxed);
        std::thread::sleep(EPOCH);
        let (mut latencies, keys) = std::mem::take(&mut *samples.lock().expect("client panicked"));
        latencies.sort_by(f64::total_cmp);
        let ops = latencies.len().max(1);
        let avg_latency_ms = latencies.iter().sum::<f64>() / ops as f64;
        let p99_latency_ms = latencies.get(ops * 99 / 100).copied().unwrap_or(0.0);
        let stats = kvs.stats();
        let mut occupancy = Vec::new();
        for kn in &stats.kns {
            let before = prev.kns.iter().find(|p| p.id == kn.id);
            let busy = kn.since(&before.copied().unwrap_or_default());
            occupancy.push((kn.id, busy.occupancy(EPOCH.as_nanos() as u64)));
        }
        prev = stats;
        let min_occupancy = occupancy.iter().map(|o| o.1).fold(1.0, f64::min);
        let kns = occupancy.len();
        let decisions = engine.decide(&EpochObservation {
            avg_latency_ms,
            p99_latency_ms,
            occupancy,
            key_frequencies: keys,
            replicated_keys: {
                let table = ownership.read();
                let factor = |k: &Vec<u8>| (k.clone(), table.replication_factor(k));
                table.replicated_keys().map(factor).collect()
            },
            supports_replication: kvs.config().variant.supports_selective_replication(),
            epochs_since_last_action: quiet,
        });
        quiet = if decisions.is_empty() { quiet + 1 } else { 0 };
        let actions: Vec<String> = decisions.iter().map(|a| apply(kvs, a)).collect();
        println!(
            "{epoch:>5}  {:>6.1}  {avg_latency_ms:>7.3}  {p99_latency_ms:>7.3}  \
             {min_occupancy:>7.2}  {kns:>3}  {clients:>7}  {}",
            latencies.len() as f64 / EPOCH.as_secs_f64() / 1e3,
            actions.join("; ")
        );
    }
}

/// Carry out one decision; the returned line goes into the epoch's log.
fn apply(kvs: &Kvs, action: &PolicyAction) -> String {
    let done = match action {
        AddNode => kvs.add_kn().map(|id| format!("add kn {id}")),
        RemoveNode(id) => kvs.remove_kn(*id).map(|()| format!("remove kn {id}")),
        ReplicateKey(key, n) => kvs
            .replicate_key(key, *n)
            .map(|_| format!("replicate x{n}")),
        DereplicateKey(key) => kvs.dereplicate_key(key).map(|()| "dereplicate".into()),
    };
    done.unwrap_or_else(|e| format!("{action:?} failed: {e}"))
}
