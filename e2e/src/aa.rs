//! The A/A harness: `e2e aa --runs N` runs every workload in two sets of
//! `N` runs of this same binary, alternating which set goes first, each
//! run with another seed and in its own process. It prints each side's
//! median and quartiles per end-to-end metric and fails when the two
//! medians differ by more than the metric's bound — the benchmark's own
//! noise must fit inside the bounds it sets for later changes.

use crate::json;
use crate::metrics::END_TO_END;
use crate::preset::WORKLOADS;
use crate::Args;
use std::process::{Command, ExitCode};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    assert!(n >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// One run in its own process; the end-to-end metrics of its result line.
fn one_run(args: &Args, workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        "0",
    ])
    .args(["--seconds", &args.seconds().to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !output.status.success() || doc.get("correct").and_then(json::Value::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: run was not correct"));
    }
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.0))
                .and_then(|v| v.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no `{}`", m.0))
        })
        .collect()
}

pub fn run(args: &Args) -> ExitCode {
    let runs = args.runs.max(2);
    let mut ok = true;
    for w in WORKLOADS {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            // Alternate which set runs first, so drift hits both alike.
            for side in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
                let seed = 100 + 2 * i as u64 + side as u64;
                match one_run(args, w.name, seed) {
                    Ok(values) => sets[side].push(values),
                    Err(e) => {
                        eprintln!("aa: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!(
            "aa: {} ({} runs a side, {} s each)",
            w.name,
            runs,
            args.seconds()
        );
        println!(
            "  {:<18} {:>12} {:>25} {:>7}   {:>12} {:>25} {:>7}   {:>6} {:>6}",
            "metric",
            "A median",
            "A quartiles",
            "spread",
            "B median",
            "B quartiles",
            "spread",
            "diff",
            "bound"
        );
        for (k, m) in END_TO_END.iter().enumerate() {
            let side = |s: usize| {
                let values: Vec<f64> = sets[s].iter().map(|r| r[k]).collect();
                let q = quartiles(&values);
                (q, (q[2] - q[0]) / q[1])
            };
            let ((qa, spread_a), (qb, spread_b)) = (side(0), side(1));
            let diff = (qb[1] - qa[1]).abs() / qa[1].min(qb[1]);
            let verdict = if diff > m.3 {
                ok = false;
                "FAIL: sets differ by more than the bound"
            } else if spread_a.max(spread_b) > m.3 && m.0 != "setup_s" {
                ok = false;
                "FAIL: spread wider than the bound"
            } else {
                ""
            };
            println!(
                "  {:<18} {:>12.4} [{:>11.4},{:>11.4}] {:>6.1}%   {:>12.4} [{:>11.4},{:>11.4}] {:>6.1}%   {:>5.1}% {:>5.1}% {}",
                m.0, qa[1], qa[0], qa[2], 100.0 * spread_a, qb[1], qb[0], qb[2], 100.0 * spread_b,
                100.0 * diff, 100.0 * m.3, verdict
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
    }
}
