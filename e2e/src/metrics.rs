//! The metric catalogue — every name the benchmark may print, with its
//! unit, its direction and (per layer) the end-to-end metric it should
//! move — and the result record a run fills in. `BENCHMARK.json` lists
//! exactly these names; a test keeps the two in step.

use dinomo_obs::LogHistogram;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: `(name, unit, direction, bound)`. Every workload
/// reports every one of them, none is ever 0, and `bound` is the share of
/// the parent's median by which it may get worse. The bounds come from the
/// spreads of ten runs on the sizing box (README, "A/A"): a gated metric
/// must spread less than its bound on every workload, and the tail
/// latencies do not (they are among the `e2e.` rows of `PER_LAYER`).
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("throughput_ops_s", "ops/s", Higher, 0.25),
    ("read_p50_us", "us", Lower, 0.25),
    ("space_amp", "B/B", Lower, 0.10),
    ("peak_rss_mb", "MB", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
];

/// A per-layer timing: printed as `<name>_ns` (mean), `<name>_p50_ns` and
/// `<name>_p99_ns`. The mean is the one that reconciles with throughput.
pub const TIMINGS: &[(&str, &str)] = &[
    ("partition.route", "throughput_ops_s @ hit_read"),
    ("kn.get", "read_p50_us on the workload run"),
    ("kn.put", "e2e.write_p50_us on the workload run"),
    ("cache.lookup", "throughput_ops_s, read_p50_us @ dac_read"),
    (
        "cache.admit",
        "throughput_ops_s @ dac_read; no move @ hit_read",
    ),
    ("dpm_read.remote_read", "read_p50_us @ dac_read"),
    ("dpm_read.value_read", "read_p50_us @ dac_read"),
    (
        "pclht.get",
        "e2e.read_p99_us @ dac_read; merge.entries_per_s @ write_mix",
    ),
    ("log.append", "e2e.write_p50_us @ write_mix"),
    ("log.flush", "e2e.write_p99_us @ write_mix"),
    (
        "ordered.upsert",
        "merge.entries_per_s, then throughput_ops_s @ write_mix",
    ),
];

/// Per-layer metrics other than timings: `(name, unit, direction, moves)`.
/// The `e2e.` rows are user-visible metrics that cannot be gated: zero or
/// undefined on some workload, or (the tail latencies) spreading more from
/// run to run on the sizing box than the widest bound allows.
pub const PER_LAYER: &[(&str, &str, Better, &str)] = &[
    (
        "e2e.read_p99_us",
        "us",
        Lower,
        "user-visible; spreads 20-65 % run to run (hypervisor pauses hit 1-3 % of ops)",
    ),
    (
        "e2e.write_p50_us",
        "us",
        Lower,
        "user-visible @ write_mix, churn; 0 on read-only workloads",
    ),
    (
        "e2e.write_p99_us",
        "us",
        Lower,
        "user-visible @ write_mix, churn; 0 on read-only workloads",
    ),
    (
        "e2e.read_p999_us",
        "us",
        Lower,
        "user-visible; too few samples beyond it to gate",
    ),
    (
        "e2e.slo_miss_share",
        "share",
        Lower,
        "user-visible; 0 when healthy",
    ),
    (
        "e2e.failed_share",
        "share",
        Lower,
        "user-visible; 0 when healthy",
    ),
    (
        "e2e.recovery_s",
        "s",
        Lower,
        "user-visible @ write_mix only",
    ),
    ("e2e.reconfig_ms", "ms", Lower, "user-visible @ churn only"),
    (
        "client.batch_self_ns_per_op",
        "ns",
        Lower,
        "throughput_ops_s @ hit_read",
    ),
    (
        "client.perkey_self_ns",
        "ns",
        Lower,
        "read_p50_us @ hit_read",
    ),
    (
        "executor.enqueued_share",
        "share",
        Higher,
        "e2e.read_p99_us @ hit_read, dac_read",
    ),
    (
        "executor.busy_per_kop",
        "1/kop",
        Lower,
        "e2e.failed_share @ churn",
    ),
    (
        "executor.queue_wait_p99_ns",
        "ns",
        Lower,
        "e2e.read_p99_us @ hit_read, dac_read",
    ),
    (
        "kn.run_batch_ns_per_op",
        "ns",
        Lower,
        "throughput_ops_s on the workload run",
    ),
    (
        "kn.busy_share",
        "share",
        Lower,
        "throughput_ops_s on the workload run",
    ),
    (
        "kn.rejected_per_kop",
        "1/kop",
        Lower,
        "e2e.read_p99_us @ churn",
    ),
    (
        "cache.value_hit_share",
        "share",
        Higher,
        "simnet.rts_per_op, then throughput_ops_s @ dac_read",
    ),
    (
        "cache.shortcut_hit_share",
        "share",
        Higher,
        "simnet.rts_per_op, then throughput_ops_s @ dac_read",
    ),
    (
        "cache.miss_share",
        "share",
        Lower,
        "simnet.rts_per_op, then throughput_ops_s @ dac_read",
    ),
    (
        "cache.promotions_per_kop",
        "1/kop",
        Higher,
        "cache.value_hit_share @ dac_read",
    ),
    (
        "cache.demotions_per_kop",
        "1/kop",
        Lower,
        "cache.value_hit_share @ dac_read",
    ),
    (
        "cache.evictions_per_kop",
        "1/kop",
        Lower,
        "cache.miss_share @ dac_read",
    ),
    (
        "simnet.rts_per_op",
        "rt/op",
        Lower,
        "throughput_ops_s @ dac_read, write_mix; ~0 @ hit_read",
    ),
    (
        "simnet.bytes_per_op",
        "B/op",
        Lower,
        "throughput_ops_s @ dac_read, write_mix",
    ),
    (
        "simnet.wait_share",
        "share",
        Lower,
        "throughput_ops_s @ dac_read, write_mix; ~0 @ hit_read",
    ),
    (
        "pclht.read_retries_per_kop",
        "1/kop",
        Lower,
        "e2e.read_p99_us @ dac_read",
    ),
    ("pclht.resizes", "count", Lower, "setup_s"),
    (
        "pclht.overflow_share",
        "share",
        Lower,
        "e2e.read_p99_us @ dac_read",
    ),
    (
        "log.fabric_bytes_per_user_byte",
        "B/B",
        Lower,
        "e2e.write_p50_us @ write_mix",
    ),
    (
        "log.flush_wait_ms",
        "ms",
        Lower,
        "e2e.write_p99_us @ write_mix",
    ),
    (
        "merge.entries_per_s",
        "1/s",
        Higher,
        "throughput_ops_s @ write_mix",
    ),
    (
        "merge.drain_ms",
        "ms",
        Lower,
        "e2e.write_p99_us, e2e.recovery_s @ write_mix",
    ),
    (
        "merge.ordered_root_wait_share",
        "share",
        Lower,
        "merge.entries_per_s @ write_mix",
    ),
    (
        "gc.segments_compacted",
        "count",
        Higher,
        "space_amp @ write_mix",
    ),
    (
        "gc.relocated_bytes_per_user_byte",
        "B/B",
        Lower,
        "e2e.write_p99_us @ write_mix",
    ),
    ("gc.pass_ms", "ms", Lower, "e2e.write_p99_us @ write_mix"),
    (
        "gc.segments_skipped_pinned",
        "count",
        Lower,
        "space_amp @ churn",
    ),
    (
        "pmem.flushes_per_kop",
        "1/kop",
        Lower,
        "e2e.write_p50_us @ write_mix",
    ),
    (
        "pmem.fences_per_kop",
        "1/kop",
        Lower,
        "e2e.write_p50_us @ write_mix",
    ),
    (
        "pmem.bytes_written_per_user_byte",
        "B/B",
        Lower,
        "space_amp @ write_mix",
    ),
    (
        "pmem.allocated_mb",
        "MB",
        Lower,
        "space_amp, peak_rss_mb @ write_mix",
    ),
    (
        "reconfig.add_kn_ms",
        "ms",
        Lower,
        "e2e.reconfig_ms, e2e.read_p99_us @ churn",
    ),
    (
        "reconfig.remove_kn_ms",
        "ms",
        Lower,
        "e2e.reconfig_ms, e2e.read_p99_us @ churn",
    ),
    (
        "reconfig.fail_kn_ms",
        "ms",
        Lower,
        "e2e.reconfig_ms, e2e.read_p99_us @ churn",
    ),
    (
        "reconfig.replicate_key_ms",
        "ms",
        Lower,
        "e2e.reconfig_ms @ churn",
    ),
    (
        "reconfig.max_gap_ms",
        "ms",
        Lower,
        "e2e.read_p99_us, e2e.slo_miss_share @ churn; no move @ hit_read",
    ),
    (
        "reconfig.lock_wait_ms",
        "ms",
        Lower,
        "e2e.reconfig_ms @ churn",
    ),
    (
        "recovery.entries_recovered",
        "count",
        Lower,
        "e2e.recovery_s @ write_mix",
    ),
    (
        "recovery.ordered_rebuilt",
        "count",
        Lower,
        "e2e.recovery_s @ write_mix",
    ),
    (
        "recovery.ns_per_entry",
        "ns",
        Lower,
        "e2e.recovery_s @ write_mix",
    ),
    (
        "recovery.lost_acked_writes",
        "count",
        Lower,
        "durability; limit (write_batch_ops - 1) x shards",
    ),
    (
        "bench.gen_late_p99_us",
        "us",
        Lower,
        "trust in e2e.read_p99_us: how late the generator sent",
    ),
    (
        "bench.achieved_share",
        "share",
        Higher,
        "below 0.95 the open phase is saturated",
    ),
    (
        "bench.trace_overhead_share",
        "share",
        Lower,
        "cost of the traced run against the untraced one",
    ),
    (
        "bench.unaccounted_share",
        "share",
        Lower,
        "per-key service time the layer rows do not explain",
    ),
];

/// `(name, unit, direction)` of every per-layer metric, timings expanded.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = Vec::new();
    for (name, _) in TIMINGS {
        for suffix in ["_ns", "_p50_ns", "_p99_ns"] {
            out.push((format!("{name}{suffix}"), "ns", Lower));
        }
    }
    out.extend(PER_LAYER.iter().map(|&(n, u, b, _)| (n.to_string(), u, b)));
    out
}

fn unit_of(name: &str) -> &'static str {
    if let Some(m) = END_TO_END.iter().find(|m| m.0 == name) {
        return m.1;
    }
    per_layer_catalogue()
        .into_iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

/// One run's measurements, in catalogue order of insertion.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record `name`; it must be in the catalogue and not yet recorded.
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.values.push((name.to_string(), value, unit_of(name)));
    }

    /// Record the mean / p50 / p99 triple of timing `name`.
    pub fn put_timing(&mut self, name: &str, hist: &LogHistogram) {
        let (mean, p50, p99) = if hist.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            (
                hist.mean(),
                hist.value_at_quantile(0.50) as f64,
                hist.value_at_quantile(0.99) as f64,
            )
        };
        self.put(&format!("{name}_ns"), mean);
        self.put(&format!("{name}_p50_ns"), p50);
        self.put(&format!("{name}_p99_ns"), p99);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// The `metrics` object of the result line, restricted to `names`.
    pub fn json_object(&self, names: &[String]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let (_, value, unit) = self
                .values
                .iter()
                .find(|v| &v.0 == name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with all its digits (Rust's shortest round-trip
/// form); non-finite values have no JSON spelling and become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn end_to_end_names() -> Vec<String> {
    END_TO_END.iter().map(|m| m.0.to_string()).collect()
}

pub fn per_layer_names() -> Vec<String> {
    per_layer_catalogue().into_iter().map(|m| m.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<String> = end_to_end_names();
        names.extend(per_layer_names());
        assert!(per_layer_names().len() <= 128);
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for name in &names {
            assert!(ok_name(name), "bad name {name}");
            assert!(ok_unit(unit_of(name)), "bad unit for {name}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Lower));
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String, String)> {
            doc.get(section)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("`{section}` is an array"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.as_str().to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), want_e2e);
        let want_layers: Vec<_> = per_layer_catalogue()
            .into_iter()
            .map(|m| (m.0, m.1.to_string(), m.2.as_str().to_string()))
            .collect();
        assert_eq!(listed("per_layer"), want_layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        let want: Vec<String> = crate::preset::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, want);
    }
}
