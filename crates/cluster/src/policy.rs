//! The M-node policy engine (§3.5, Table 4).

use std::collections::HashMap;

/// Service-level objectives and thresholds driving reconfiguration.
///
/// The paper's experiments use an average-latency SLO of 1.2 ms, a p99 SLO of
/// 16 ms, an over-utilization lower bound of 20 % occupancy, an
/// under-utilization upper bound of 10 %, a key-hotness bound of mean + 3σ
/// and a key-coldness bound of mean − 1σ, with a 90 s grace period.  The
/// simulation compresses time, so the defaults here are expressed in the same
/// units but calibrated by the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Average-latency SLO in milliseconds.
    pub avg_latency_ms: f64,
    /// Tail (p99) latency SLO in milliseconds.
    pub tail_latency_ms: f64,
    /// Over-utilization lower bound: if *every* node's occupancy exceeds
    /// this, the cluster is considered over-utilized.
    pub overutil_lower_bound: f64,
    /// Under-utilization upper bound: a node below this occupancy is a
    /// candidate for removal.
    pub underutil_upper_bound: f64,
    /// A key is hot if its access count exceeds mean + `hot_sigma` · σ.
    pub hot_sigma: f64,
    /// A key is cold if its access count falls below mean − `cold_sigma` · σ.
    pub cold_sigma: f64,
    /// Epochs to wait after a reconfiguration before acting again.
    pub grace_epochs: usize,
    /// Maximum number of nodes the policy may grow the cluster to.
    pub max_nodes: usize,
    /// Minimum number of nodes the policy may shrink the cluster to.
    pub min_nodes: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            avg_latency_ms: 1.2,
            tail_latency_ms: 16.0,
            overutil_lower_bound: 0.20,
            underutil_upper_bound: 0.10,
            hot_sigma: 3.0,
            cold_sigma: 1.0,
            grace_epochs: 3,
            max_nodes: 16,
            min_nodes: 1,
        }
    }
}

/// What the M-node observed over the last monitoring epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochObservation {
    /// Average request latency over the epoch, milliseconds.
    pub avg_latency_ms: f64,
    /// 99th-percentile request latency over the epoch, milliseconds.
    pub p99_latency_ms: f64,
    /// `(node id, occupancy in [0, 1])` for every live node.
    pub occupancy: Vec<(u32, f64)>,
    /// Sampled access counts per key over the epoch.
    pub key_frequencies: HashMap<Vec<u8>, u64>,
    /// Keys currently selectively replicated, with their factors.
    pub replicated_keys: Vec<(Vec<u8>, usize)>,
    /// Whether the target system supports selective replication.
    pub supports_replication: bool,
    /// Epochs elapsed since the last reconfiguration action.
    pub epochs_since_last_action: usize,
}

/// A reconfiguration decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyAction {
    /// Add one KVS node (cluster over-utilized and SLO violated).
    AddNode,
    /// Remove the given under-utilized node.
    RemoveNode(u32),
    /// Increase the replication factor of a hot key.
    ReplicateKey(Vec<u8>, usize),
    /// Collapse a cold replicated key back to one owner.
    DereplicateKey(Vec<u8>),
}

/// The policy engine. Stateless apart from the thresholds; the caller feeds
/// it one observation per monitoring epoch.
#[derive(Debug, Clone, Default)]
pub struct PolicyEngine {
    config: SloConfig,
}

impl PolicyEngine {
    /// Create an engine with the given thresholds.
    pub fn new(config: SloConfig) -> Self {
        PolicyEngine { config }
    }

    /// The thresholds in use.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    fn hot_and_cold(&self, freqs: &HashMap<Vec<u8>, u64>) -> (Vec<Vec<u8>>, f64, f64) {
        if freqs.is_empty() {
            return (Vec::new(), 0.0, 0.0);
        }
        let counts: Vec<f64> = freqs.values().map(|&c| c as f64).collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        let std = var.sqrt();
        let hot_bound = mean + self.config.hot_sigma * std;
        let mut hot: Vec<Vec<u8>> = freqs
            .iter()
            .filter(|(_, &c)| std > 0.0 && c as f64 > hot_bound)
            .map(|(k, _)| k.clone())
            .collect();
        hot.sort();
        (hot, mean, std)
    }

    /// Apply the Table 4 rules to one epoch's observation.
    pub fn decide(&self, obs: &EpochObservation) -> Vec<PolicyAction> {
        if obs.epochs_since_last_action < self.config.grace_epochs {
            return Vec::new();
        }
        let num_nodes = obs.occupancy.len();
        if num_nodes == 0 {
            return Vec::new();
        }
        let slo_violated = obs.avg_latency_ms > self.config.avg_latency_ms
            || obs.p99_latency_ms > self.config.tail_latency_ms;
        let min_occupancy = obs
            .occupancy
            .iter()
            .map(|(_, o)| *o)
            .fold(f64::INFINITY, f64::min);
        let (hot_keys, mean, std) = self.hot_and_cold(&obs.key_frequencies);

        if slo_violated {
            // SLO violated + every node busy -> add a node.
            if min_occupancy > self.config.overutil_lower_bound {
                if num_nodes < self.config.max_nodes {
                    return vec![PolicyAction::AddNode];
                }
                return Vec::new();
            }
            // SLO violated but nodes are not busy -> a few hot keys are the
            // bottleneck: grow their replication factor.
            if obs.supports_replication && !hot_keys.is_empty() {
                let mut actions = Vec::new();
                for key in hot_keys {
                    let current = obs
                        .replicated_keys
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map_or(1, |(_, f)| *f);
                    if current < num_nodes {
                        let next = (current * 2).min(num_nodes);
                        actions.push(PolicyAction::ReplicateKey(key, next));
                    }
                }
                return actions;
            }
            return Vec::new();
        }

        // SLOs met: release under-utilized resources.
        if let Some((id, _)) = obs
            .occupancy
            .iter()
            .filter(|(_, o)| *o < self.config.underutil_upper_bound)
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        {
            if num_nodes > self.config.min_nodes {
                return vec![PolicyAction::RemoveNode(*id)];
            }
        }
        // SLOs met and nothing to remove: de-replicate keys that went cold.
        if obs.supports_replication {
            let cold_bound = mean - self.config.cold_sigma * std;
            let mut actions = Vec::new();
            for (key, factor) in &obs.replicated_keys {
                if *factor > 1 {
                    let freq = obs.key_frequencies.get(key).copied().unwrap_or(0) as f64;
                    if freq < cold_bound || freq == 0.0 {
                        actions.push(PolicyAction::DereplicateKey(key.clone()));
                    }
                }
            }
            return actions;
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(avg: f64, p99: f64, occupancy: &[f64]) -> EpochObservation {
        EpochObservation {
            avg_latency_ms: avg,
            p99_latency_ms: p99,
            occupancy: occupancy
                .iter()
                .enumerate()
                .map(|(i, &o)| (i as u32, o))
                .collect(),
            supports_replication: true,
            epochs_since_last_action: 100,
            ..EpochObservation::default()
        }
    }

    #[test]
    fn slo_violation_with_busy_nodes_adds_a_node() {
        let engine = PolicyEngine::new(SloConfig::default());
        let decision = engine.decide(&obs(5.0, 5.0, &[0.9, 0.8]));
        assert_eq!(decision, vec![PolicyAction::AddNode]);
    }

    #[test]
    fn grace_period_suppresses_actions() {
        let engine = PolicyEngine::new(SloConfig::default());
        let mut o = obs(5.0, 5.0, &[0.9, 0.8]);
        o.epochs_since_last_action = 0;
        assert!(engine.decide(&o).is_empty());
    }

    #[test]
    fn max_nodes_caps_growth() {
        let engine = PolicyEngine::new(SloConfig {
            max_nodes: 2,
            ..SloConfig::default()
        });
        assert!(engine.decide(&obs(5.0, 5.0, &[0.9, 0.8])).is_empty());
    }

    #[test]
    fn slo_violation_with_idle_nodes_replicates_hot_keys() {
        let engine = PolicyEngine::new(SloConfig::default());
        let mut o = obs(5.0, 5.0, &[0.05, 0.06, 0.05, 0.05]);
        // One very hot key among many cold ones.
        for i in 0..100u32 {
            o.key_frequencies.insert(format!("k{i}").into_bytes(), 2);
        }
        o.key_frequencies.insert(b"hot".to_vec(), 10_000);
        let decision = engine.decide(&o);
        assert_eq!(decision.len(), 1);
        match &decision[0] {
            PolicyAction::ReplicateKey(key, factor) => {
                assert_eq!(key, &b"hot".to_vec());
                assert!(*factor >= 2);
            }
            other => panic!("unexpected action {other:?}"),
        }
        // A system without selective replication gets no such action.
        o.supports_replication = false;
        assert!(engine.decide(&o).is_empty());
    }

    #[test]
    fn replication_factor_grows_until_cluster_size() {
        let engine = PolicyEngine::new(SloConfig::default());
        let mut o = obs(5.0, 5.0, &[0.05; 4]);
        for i in 0..100u32 {
            o.key_frequencies.insert(format!("k{i}").into_bytes(), 2);
        }
        o.key_frequencies.insert(b"hot".to_vec(), 10_000);
        o.replicated_keys = vec![(b"hot".to_vec(), 2)];
        let decision = engine.decide(&o);
        assert_eq!(
            decision,
            vec![PolicyAction::ReplicateKey(b"hot".to_vec(), 4)]
        );
        // Fully replicated: no further action.
        o.replicated_keys = vec![(b"hot".to_vec(), 4)];
        assert!(engine.decide(&o).is_empty());
    }

    #[test]
    fn met_slo_with_idle_node_removes_it() {
        let engine = PolicyEngine::new(SloConfig::default());
        let decision = engine.decide(&obs(0.1, 0.5, &[0.4, 0.03]));
        assert_eq!(decision, vec![PolicyAction::RemoveNode(1)]);
        // But never below min_nodes.
        let engine = PolicyEngine::new(SloConfig {
            min_nodes: 2,
            ..SloConfig::default()
        });
        assert!(engine.decide(&obs(0.1, 0.5, &[0.4, 0.03])).is_empty());
    }

    #[test]
    fn met_slo_dereplicates_cold_keys() {
        let engine = PolicyEngine::new(SloConfig::default());
        let mut o = obs(0.1, 0.5, &[0.4, 0.5]);
        for i in 0..50u32 {
            o.key_frequencies
                .insert(format!("k{i}").into_bytes(), 1_000);
        }
        o.key_frequencies.insert(b"was-hot".to_vec(), 1);
        o.replicated_keys = vec![(b"was-hot".to_vec(), 4)];
        let decision = engine.decide(&o);
        assert_eq!(
            decision,
            vec![PolicyAction::DereplicateKey(b"was-hot".to_vec())]
        );
    }

    #[test]
    fn healthy_cluster_takes_no_action() {
        let engine = PolicyEngine::new(SloConfig::default());
        assert!(engine.decide(&obs(0.1, 0.5, &[0.4, 0.5])).is_empty());
        assert!(engine.decide(&EpochObservation::default()).is_empty());
    }
}
