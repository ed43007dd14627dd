//! `e2e` — the repo's benchmark. See README.md beside this package and
//! `/BENCHMARK.json` for the contract it is run under.
//!
//! ```text
//! e2e --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! e2e --durability [--seed N]
//! e2e aa --runs N [--seconds S] [--quick]
//! ```

mod aa;
mod check;
mod gen;
mod json;
mod metrics;
mod preset;
mod probe;
mod run;
mod trace;

use metrics::{end_to_end_names, per_layer_names};
use run::{Opts, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// Measured seconds of a run when `--seconds` is not given (as in
/// `BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 10.0;
const QUICK_SECONDS: f64 = 2.0;
/// Set-ups timed per gated run.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Args {
    pub aa: bool,
    pub runs: usize,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub durability: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        aa: false,
        runs: 5,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        durability: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("`{}` needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "aa" if i == 0 => args.aa = true,
            "--workload" => args.workload = Some(value(&mut i)?.clone()),
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => args.runs = value(&mut i)?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => {
                let s: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.2..=600.0).contains(&s)) {
                    return Err("--seconds must be between 0.2 and 600".to_string());
                }
                args.seconds = Some(s);
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--quick" => args.quick = true,
            "--durability" => args.durability = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

impl Args {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    fn opts(&self) -> Opts {
        Opts {
            seed: self.seed,
            seconds: self.seconds(),
            keys: if self.quick {
                preset::QUICK_KEYS
            } else {
                preset::KEYS
            },
            trace: self.trace,
            setups: if self.quick || self.trace { 1 } else { SETUPS },
        }
    }
}

/// Where span files go: the build's target directory, inside the checkout.
fn results_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("bench-results")
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let names = if trace {
        per_layer_names()
    } else {
        end_to_end_names()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        out.metrics.json_object(&names)
    )
}

fn print_report(w: &preset::Workload, opts: &Opts, out: &Outcome) {
    println!(
        "e2e: workload {} on preset {} ({} KNs x {} shards, Variant::Dinomo, DAC {} KiB/KN, write_batch_ops {}, merge_threads {}, fabric busy-spin 1/1), {} keys x {} B values, {} client threads of {} cores, malloc huge pages {}, seed {}, {} s measured{}",
        w.name,
        preset::PRESET,
        preset::KNS,
        preset::SHARDS_PER_KN,
        w.cache_bytes_per_kn / 1024,
        preset::WRITE_BATCH_OPS,
        preset::MERGE_THREADS,
        opts.keys,
        preset::VALUE_LEN,
        preset::clients(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if huge_pages_asked() { "asked for" } else { "NOT asked for" },
        opts.seed,
        opts.seconds,
        if opts.trace { ", TRACED" } else { "" },
    );
    println!("why: {}", w.why);
    println!(
        "open phase: {} ops/s offered, SLO {} us",
        w.open_rate, w.slo_us
    );
    let gated = end_to_end_names();
    println!(
        "{}:",
        if opts.trace {
            "end-to-end (traced run: not comparable with the gated run)"
        } else {
            "end-to-end"
        }
    );
    for (name, value, unit) in out
        .metrics
        .iter()
        .filter(|m| gated.iter().any(|g| g == m.0))
    {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "{}:",
        if opts.trace {
            "per-layer"
        } else {
            "not gated (zero somewhere, or too jumpy on the sizing box: see README)"
        }
    );
    for (name, value, unit) in out
        .metrics
        .iter()
        .filter(|m| !gated.iter().any(|g| g == m.0))
    {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    if !out.layer_table.is_empty() {
        print!("{}", out.layer_table);
    }
    for note in &out.notes {
        println!("note: {note}");
    }
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let Some(w) = preset::workload(name) else {
        eprintln!("unknown workload `{name}`; known: hit_read, dac_read, write_mix, churn, all");
        return ExitCode::from(2);
    };
    let opts = args.opts();
    let out = run::run_workload(&w, &opts);
    print_report(&w, &opts, &out);
    if let Some(trace) = &out.trace {
        let dir = results_dir();
        let path = dir.join(format!("e2e_trace_{}.json", w.name));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_json())) {
            Ok(()) => println!("spans: {} written to {}", trace.spans.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_line(&out, opts.trace));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: {} FAILED its correctness checks", w.name);
        ExitCode::FAILURE
    }
}

/// Every workload, one process each (so `peak_rss_mb` is the workload's).
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in preset::WORKLOADS {
        // The same command line with `all` replaced (the last `--workload`
        // is the one that parsed to `all`).
        let mut child_args = argv.to_vec();
        let at = argv
            .iter()
            .rposition(|a| a == "--workload")
            .expect("--workload all was parsed");
        child_args[at + 1] = w.name.to_string();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .expect("running a workload process");
        ok &= status.success();
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replace this process by itself with glibc's malloc asking for transparent
/// huge pages (the kernel grants them on `madvise` only). With 4 KiB pages a
/// process on the sizing box is fast or slow for life, by which physical
/// pages it drew: six `hit_read` runs had median read latencies from 2.4 to
/// 3.6 us and throughputs from 455 k to 634 k ops/s, against 2.5 to 2.6 us
/// and 524 k to 643 k with huge pages. Without glibc the variable does nothing.
fn with_huge_pages(argv: &[String]) {
    use std::os::unix::process::CommandExt;
    if huge_pages_asked() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let value = match std::env::var(TUNABLES) {
        Ok(set) if !set.is_empty() => format!("{set}:{HUGE_PAGES}"),
        _ => HUGE_PAGES.to_string(),
    };
    // Returns only if the exec failed; then the run goes on as it is.
    let _ = std::process::Command::new(exe)
        .args(argv)
        .env(TUNABLES, value)
        .exec();
}

const TUNABLES: &str = "GLIBC_TUNABLES";
const HUGE_PAGES: &str = "glibc.malloc.hugetlb=1";

fn huge_pages_asked() -> bool {
    std::env::var(TUNABLES).is_ok_and(|set| set.contains(HUGE_PAGES))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    with_huge_pages(&argv);
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.aa {
        return aa::run(&args);
    }
    if args.durability {
        return run::durability(args.seed);
    }
    match args.workload.as_deref() {
        Some("all") => run_all(&argv),
        Some(name) => run_one(&args, name),
        None => {
            eprintln!("e2e: give --workload <hit_read|dac_read|write_mix|churn|all>, --durability, or `aa`");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload churn --seed 7 --seconds 12 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12.0), false));
        assert!(parse_args(&argv("--workload all --trace")).unwrap().trace);
        assert!(
            parse_args(&argv("--workload all --trace 1 --quick"))
                .unwrap()
                .quick
        );
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// The whole benchmark in `--quick` mode (20 k keys, 1 s phases), so
    /// `cargo test` compiles and runs it: every metric appears once with a
    /// unit and the result lines parse. No wall-clock assertions.
    #[test]
    fn quick_mode_reports_every_metric_once() {
        for w in preset::WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    seed: 3,
                    seconds: QUICK_SECONDS,
                    keys: preset::QUICK_KEYS,
                    trace,
                    setups: 1,
                };
                let out = run::run_workload(&w, &opts);
                for note in &out.notes {
                    println!("{} trace={trace}: {note}", w.name);
                }
                assert!(out.correct, "{} failed its correctness checks", w.name);
                let line = result_line(&out, trace);
                let doc = json::parse(&line).expect("the result line is JSON");
                let metrics = doc.get("metrics").and_then(json::Value::as_object).unwrap();
                let want = if trace {
                    per_layer_names()
                } else {
                    end_to_end_names()
                };
                let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(got, want.iter().map(String::as_str).collect::<Vec<_>>());
                for (name, m) in metrics {
                    let value = m.get("value").and_then(json::Value::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name} has no finite value"
                    );
                    let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
                    assert!(!unit.is_empty(), "{name} has no unit");
                }
                assert!(doc.get("attempted").and_then(json::Value::as_f64).unwrap() >= 1.0);
            }
        }
    }
}
