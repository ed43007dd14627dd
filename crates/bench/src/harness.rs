//! Shared harness utilities for the gated benches: the
//! `target/bench-results/` record writers, the one gate policy
//! (`BENCH_SOFT`) and the median the gates compare.

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

// ------------------------------------------------------ bench summaries

/// A bench's median measurements as the JSON record `bench_summary`
/// merges: `{"bench": …, "metrics": [{"name": …, "value": …}, …]}`.
/// `None` if a value is not finite (JSON has no NaN or infinity).
fn bench_record_json(bench: &str, metrics: &[(&str, f64)]) -> Option<String> {
    let mut out = format!("{{\n  \"bench\": {},\n  \"metrics\": [", json_string(bench));
    for (i, (name, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return None;
        }
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!(
            "{sep}\n    {{\"name\": {}, \"value\": {value:?}}}",
            json_string(name)
        ));
    }
    out.push_str("\n  ]\n}\n");
    Some(out)
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write a bench's median measurements to
/// `target/bench-results/<bench>.json`. A non-finite value writes nothing
/// and warns.
pub fn write_bench_record(bench: &str, metrics: &[(&str, f64)]) {
    let Some(json) = bench_record_json(bench, metrics) else {
        eprintln!("warning: could not serialize {bench}: a metric value is not finite");
        return;
    };
    let dir = bench_results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{bench}.json"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[artifact] {}", path.display());
    }
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

    #[test]
    fn bench_records_escape_names_and_refuse_non_finite_values() {
        let json = bench_record_json("obs\"bench", &[("a\\b\n", 0.5), ("ops", 3.0)]).unwrap();
        assert_eq!(
            json,
            "{\n  \"bench\": \"obs\\\"bench\",\n  \"metrics\": [\
             \n    {\"name\": \"a\\\\b\\u000a\", \"value\": 0.5},\
             \n    {\"name\": \"ops\", \"value\": 3.0}\n  ]\n}\n"
        );
        assert_eq!(bench_record_json("b", &[("x", f64::NAN)]), None);
        assert_eq!(bench_record_json("b", &[("x", f64::INFINITY)]), None);
    }
}
