//! `lincheck` — run seeded linearizability-check scenarios from the
//! command line (the CI entry point of the `dinomo-check` crate).
//!
//! ```text
//! lincheck --seed 42 --ops 10000            # one fixed-seed scenario
//! lincheck --sweep 6 --ops 20000            # N random seeds (nightly)
//! lincheck --replay 1234567                 # reproduce + shrink a seed
//! DINOMO_CHECK_SEED=1234567 lincheck        # same, via the env knob
//! ```
//!
//! Options: `--ops N` (total op budget), `--clients N`, `--no-churn`
//! (disable membership + replication churn), `--gc`
//! (run the DPM log-cleaning compactor — aggressive knobs on tiny
//! segments — underneath the scenario), `--crash` (mix seeded crash
//! injection into the churn: KN fail-stop + re-admission and whole-DPM
//! power failures aimed at the mid-compaction / mid-hand-off /
//! mid-cell-swing windows, each followed by full recovery; the crash
//! schedule is a pure function of the seed, so `DINOMO_CHECK_SEED=<seed>`
//! reproduces the exact same crash instants).
//!
//! On failure the process exits non-zero after writing the failing seed
//! and the full history to `target/check-results/` (uploaded as a CI
//! artifact by the nightly job) and printing the one-line reproduce
//! command.

use dinomo_check::driver::{render_history, run_and_check, CheckConfig, CheckFailure};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    seed: Option<u64>,
    sweep: Option<usize>,
    replay: Option<u64>,
    ops: usize,
    clients: usize,
    membership_churn: bool,
    replication_churn: bool,
    compactor: bool,
    crashes: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: None,
        sweep: None,
        replay: None,
        ops: 10_000,
        clients: 3,
        membership_churn: true,
        replication_churn: true,
        compactor: false,
        crashes: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => args.seed = Some(parse(&value("--seed")?)?),
            "--sweep" => args.sweep = Some(parse(&value("--sweep")?)?),
            "--replay" => args.replay = Some(parse(&value("--replay")?)?),
            "--ops" => args.ops = parse(&value("--ops")?)?,
            "--clients" => args.clients = parse(&value("--clients")?)?,
            "--gc" => args.compactor = true,
            "--crash" => args.crashes = true,
            "--no-churn" => {
                args.membership_churn = false;
                args.replication_churn = false;
            }
            "--no-membership-churn" => args.membership_churn = false,
            "--no-replication-churn" => args.replication_churn = false,
            "--help" | "-h" => {
                println!(
                    "lincheck [--seed N | --sweep N | --replay N] \
                     [--ops N] [--clients N] [--gc] [--crash] \
                     [--no-churn | --no-membership-churn | --no-replication-churn]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value {s:?}"))
}

fn config_for(args: &Args, seed: u64) -> CheckConfig {
    let mut config = CheckConfig::from_seed(seed);
    config.total_ops = args.ops;
    config.clients = args.clients.max(1);
    config.membership_churn = args.membership_churn;
    config.replication_churn = args.replication_churn;
    config.compactor = args.compactor;
    config.crashes = args.crashes;
    config
}

/// `target/check-results/`, anchored at the workspace root when invoked
/// via cargo, the current directory otherwise.
fn results_dir() -> PathBuf {
    let target = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(|root| root.join("target"))
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("check-results")
}

fn write_failure_artifacts(failure: &CheckFailure) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return;
    }
    let seed_path = dir.join("failing-seed.txt");
    let history_path = dir.join(format!("failing-history-{}.txt", failure.seed));
    let _ = std::fs::write(&seed_path, format!("{}\n", failure.seed));
    let mut dump = format!("# seed {}\n# {}\n", failure.seed, failure.error);
    for line in &failure.churn_log {
        dump.push_str(&format!("# churn {line}\n"));
    }
    dump.push_str(&render_history(&failure.history));
    match std::fs::write(&history_path, dump) {
        Ok(()) => eprintln!(
            "wrote failure artifacts: {} and {}",
            seed_path.display(),
            history_path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", history_path.display()),
    }
}

/// Run one scenario; print its outcome; return the failure, if any.
fn run_once(config: &CheckConfig) -> Option<Box<CheckFailure>> {
    let start = Instant::now();
    match run_and_check(config) {
        Ok(report) => {
            println!(
                "seed {} ok: {} ops over {} keys checked in {:.2}s \
                 ({} states, {} churn actions, {} error \
                 replies, {} segments compacted / {} entries \
                 relocated, {} kn crashes, {} dpm crashes \
                 [compaction {}, handoff {}, cell-swing {}])",
                config.seed,
                report.stats.ops,
                report.stats.keys,
                start.elapsed().as_secs_f64(),
                report.stats.states_explored,
                report.run.churn_log.len(),
                report.run.error_replies,
                report.run.segments_compacted,
                report.run.entries_relocated,
                report.run.kn_crashes,
                report.run.dpm_crashes,
                report.run.crashes_in_compaction,
                report.run.crashes_in_handoff,
                report.run.crashes_in_cell_swing,
            );
            None
        }
        Err(failure) => {
            eprintln!("seed {} FAILED: {}", config.seed, failure.error);
            Some(failure)
        }
    }
}

/// Reproduce a failing seed, then shrink it by halving the op budget
/// while the failure persists. Prints the smallest failing budget and
/// writes artifacts for the smallest failure.
fn replay_and_shrink(args: &Args, seed: u64) -> ExitCode {
    let config = config_for(args, seed);
    println!("replaying seed {seed} with {} ops…", config.total_ops);
    let Some(mut failure) = run_once(&config) else {
        println!(
            "seed {seed} did not fail at this budget — if the failure came from the \
             nightly sweep, rerun with its --ops value"
        );
        return ExitCode::SUCCESS;
    };
    let mut budget = config.total_ops;
    let mut smallest = budget;
    while budget >= 200 {
        let half = budget / 2;
        let mut shrunk = config;
        shrunk.total_ops = half;
        println!("shrinking: retrying with {half} ops…");
        match run_once(&shrunk) {
            Some(f) => {
                failure = f;
                smallest = half;
                budget = half;
            }
            None => break,
        }
    }
    println!(
        "smallest failing budget: {smallest} ops \
         (DINOMO_CHECK_SEED={seed} lincheck --replay {seed} --ops {smallest})"
    );
    write_failure_artifacts(&failure);
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lincheck: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(seed) = args.replay.or(CheckConfig::env_seed()) {
        return replay_and_shrink(&args, seed);
    }

    if let Some(count) = args.sweep {
        // Entropy from the OS clock: the sweep's whole point is fresh
        // seeds; each printed seed reproduces deterministically.
        let base = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0xdead_beef);
        for i in 0..count {
            let seed = base
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64);
            let config = config_for(&args, seed);
            if let Some(failure) = run_once(&config) {
                eprintln!(
                    "reproduce locally: DINOMO_CHECK_SEED={seed} cargo run -p dinomo-check \
                     --bin lincheck -- --replay {seed} --ops {}",
                    args.ops
                );
                write_failure_artifacts(&failure);
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let seed = args.seed.unwrap_or(42);
    let config = config_for(&args, seed);
    match run_once(&config) {
        None => ExitCode::SUCCESS,
        Some(failure) => {
            write_failure_artifacts(&failure);
            ExitCode::FAILURE
        }
    }
}
