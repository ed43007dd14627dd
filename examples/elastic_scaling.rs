//! Elastic scaling: the M-node policy engine reacts to a load burst by adding
//! KVS nodes and releases one when the burst subsides — a miniature version
//! of the paper's Figure 6 experiment.
//!
//! ```bash
//! cargo run --release --example elastic_scaling
//! ```

use dinomo::cluster::{
    DriverConfig, EventKind, PolicyEngine, ScriptedEvent, SimulationDriver, SloConfig,
};
use dinomo::{KeyDistribution, Kvs, KvsConfig, Variant, WorkloadConfig, WorkloadMix};

fn main() {
    let config = KvsConfig {
        variant: Variant::Dinomo,
        initial_kns: 1,
        threads_per_kn: 2,
        cache_bytes_per_kn: 2 << 20,
        ..KvsConfig::small_for_tests()
    };
    let kvs = Kvs::new(config).expect("cluster");

    let workload = WorkloadConfig {
        num_keys: 2_000,
        key_len: 8,
        value_len: 128,
        mix: WorkloadMix::WRITE_HEAVY_UPDATE,
        distribution: KeyDistribution::LOW_SKEW,
        seed: 11,
        max_scan_len: 16,
    };
    // SLO thresholds calibrated to the simulated fabric (see DESIGN.md §6).
    let slo = SloConfig {
        avg_latency_ms: 0.05,
        tail_latency_ms: 0.5,
        overutil_lower_bound: 0.10,
        underutil_upper_bound: 0.05,
        grace_epochs: 3,
        max_nodes: 4,
        min_nodes: 1,
        ..SloConfig::default()
    };
    let driver = SimulationDriver::new(
        kvs,
        DriverConfig {
            epoch_ms: 120,
            total_epochs: 24,
            max_clients: 6,
            initial_clients: 1,
            workload,
            preload: true,
            key_sample_every: 8,
            batch_size: 1,
            ..DriverConfig::default()
        },
    )
    .with_policy(PolicyEngine::new(slo));

    let events = vec![
        ScriptedEvent {
            at_epoch: 4,
            event: EventKind::SetClients(6),
        },
        ScriptedEvent {
            at_epoch: 18,
            event: EventKind::SetClients(1),
        },
    ];
    println!("epoch  kops/s   avg(ms)  p99(ms)  KNs  clients  actions");
    for row in driver.run(&events) {
        println!(
            "{:>5}  {:>7.1}  {:>7.3}  {:>7.3}  {:>3}  {:>7}  {}",
            row.epoch,
            row.throughput / 1e3,
            row.avg_latency_ms,
            row.p99_latency_ms,
            row.num_nodes,
            row.active_clients,
            row.actions.join("; ")
        );
    }
}
