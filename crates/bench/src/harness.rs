//! Shared harness utilities for the gated benches: the
//! `target/bench-results/` record writers, the one gate policy
//! (`BENCH_SOFT`) and the median the gates compare.

use serde::Serialize;
use std::path::PathBuf;

/// The shared artifact directory, `<workspace>/target/bench-results`,
/// anchored at the workspace root so `bench_summary` (run from the repo
/// root) and the benches (run with the package directory as their working
/// directory) agree on one location.
pub fn bench_results_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench-results"
    ))
}

/// Write a JSON artifact to `target/bench-results/<name>.json`.
fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = bench_results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_vec_pretty(value) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

// ------------------------------------------------------ bench summaries

/// One named measurement of a bench run (e.g. a median throughput).
#[derive(Debug, Clone, Serialize)]
struct BenchMetric {
    /// Metric name, e.g. `"speedup_at_4_workers"`.
    name: String,
    /// Measured value.
    value: f64,
}

/// The machine-readable summary a bench writes to
/// `target/bench-results/<bench>.json`; `dinomo-bench`'s `bench_summary`
/// binary merges all of them into `BENCH_RESULTS.json` so CI can track the
/// perf trajectory as a build artifact instead of scrolling past log
/// output.
#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    /// Bench name (the artifact's file stem).
    bench: String,
    /// The bench's median measurements.
    metrics: Vec<BenchMetric>,
}

/// Write a bench's median measurements to
/// `target/bench-results/<bench>.json`.
pub fn write_bench_record(bench: &str, metrics: &[(&str, f64)]) {
    let record = BenchRecord {
        bench: bench.to_string(),
        metrics: metrics
            .iter()
            .map(|(name, value)| BenchMetric {
                name: (*name).to_string(),
                value: *value,
            })
            .collect(),
    };
    write_json(bench, &record);
}

// ------------------------------------------------------------ gate policy

/// Take a gated measurement, re-taking it up to twice while `passes`
/// rejects it: one bad median on a shared, noisy runner should not fail a
/// correct build. Returns the last measurement taken, for the bench to
/// record and then hand to [`gate`].
pub fn retake_until<T>(mut measure: impl FnMut() -> T, passes: impl Fn(&T) -> bool) -> T {
    let mut measured = measure();
    for _ in 0..2 {
        if passes(&measured) {
            break;
        }
        measured = measure();
    }
    measured
}

/// The one acceptance-gate policy: a miss panics with `message`, unless
/// `BENCH_SOFT` is set (to anything but `0`), in which case it only
/// warns. The merge-gating CI job sets it — its shared runners are too
/// noisy for a hard perf assertion — and the nightly perf job does not.
/// Call it after the bench wrote its record, so a failing run still
/// leaves its numbers behind.
pub fn gate(ok: bool, message: String) {
    if ok {
        return;
    }
    if std::env::var_os("BENCH_SOFT").is_some_and(|v| v != "0") {
        eprintln!("warning: {message}; not failing because BENCH_SOFT is set");
    } else {
        panic!("{message}");
    }
}

/// Median of a set of measurements (sorts a copy). Total over any input:
/// NaN samples (a division by a zero elapsed time upstream) are dropped
/// rather than poisoning the comparator, even-length inputs return the
/// midpoint of the two middle elements rather than the upper one, and an
/// empty set returns 0.0 with a stderr warning instead of indexing out of
/// bounds.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| !s.is_nan()).collect();
    if sorted.len() < samples.len() {
        eprintln!(
            "WARNING: median() dropped {} NaN sample(s) of {}",
            samples.len() - sorted.len(),
            samples.len()
        );
    }
    if sorted.is_empty() {
        eprintln!("WARNING: median() of an empty sample set; reporting 0.0");
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_total_over_empty_nan_and_even_inputs() {
        // Empty: 0.0 (with a warning), not an out-of-bounds panic.
        assert_eq!(median(&[]), 0.0);
        // NaN: filtered, not a comparator panic.
        assert_eq!(median(&[f64::NAN, 3.0, 1.0, f64::NAN, 2.0]), 2.0);
        assert_eq!(median(&[f64::NAN]), 0.0);
        // Even length: midpoint of the two middles, not the upper one.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Odd length: the middle element.
        assert_eq!(median(&[30.0, 10.0, 20.0]), 20.0);
    }
}
