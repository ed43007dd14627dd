//! The determinism acceptance test: two runs with the same seed produce
//! identical op sequences and churn schedules. Histories differ only in
//! thread timing (stamps, interleavings, read results), which the checker
//! tolerates by construction — so what must be bit-identical is *what was
//! issued*: each client's ordered stream of (key, action) and the
//! scenario's churn script.

use dinomo_check::driver::{churn_script, client_ops, run_scenario, CheckConfig};
use dinomo_core::trace::{Action, OpRecord};
use std::collections::BTreeMap;

/// Project a recorded history onto the per-client *issued* streams:
/// ordered (key, action-kind, written-value) triples. Read results are
/// deliberately excluded — they legitimately vary with timing.
fn issued_streams(history: &[OpRecord]) -> BTreeMap<u64, Vec<(Vec<u8>, String)>> {
    let mut streams: BTreeMap<u64, Vec<(Vec<u8>, String)>> = BTreeMap::new();
    for r in history {
        let issued = match &r.action {
            Action::Write(v) => format!("write:{}", String::from_utf8_lossy(v)),
            Action::Delete => "delete".to_string(),
            Action::Read(_) => "read".to_string(),
        };
        streams
            .entry(r.client)
            .or_default()
            .push((r.key.clone(), issued));
    }
    streams
}

#[test]
fn same_seed_runs_issue_identical_op_sequences_and_schedules() {
    // Fixed seed, deliberately NOT read from DINOMO_CHECK_SEED: nothing
    // in this process may touch the environment (getenv racing a setenv
    // elsewhere in the process is undefined behavior on glibc); the env
    // override has its own single-test process in tests/env_seed.rs.
    let mut config = CheckConfig::from_seed(77);
    config.total_ops = 600;
    config.churn_steps = 24;

    // The schedules are pure functions of the seed…
    assert_eq!(churn_script(&config), churn_script(&config));
    for client in 0..config.clients {
        assert_eq!(client_ops(&config, client), client_ops(&config, client));
    }

    // …and two *end-to-end* runs issue exactly the same per-client
    // streams, whatever the cluster did in between.
    let run_a = run_scenario(&config);
    let run_b = run_scenario(&config);
    let streams_a = issued_streams(&run_a.history);
    let streams_b = issued_streams(&run_b.history);
    assert_eq!(
        streams_a.keys().collect::<Vec<_>>(),
        streams_b.keys().collect::<Vec<_>>(),
        "same clients must record in both runs"
    );
    for (client, stream_a) in &streams_a {
        assert_eq!(
            stream_a, &streams_b[client],
            "client {client} issued a different op sequence on the second run"
        );
    }

    // The attempted churn schedules match action-for-action. Each log
    // line is "[from-to] action: outcome"; the logical-clock window and
    // the outcome (e.g. "skipped (at floor)") legitimately vary with
    // timing, so compare only the action word.
    let kinds = |log: &[String]| -> Vec<String> {
        log.iter()
            .map(|l| {
                let after_stamp = l.split_once("] ").map_or(l.as_str(), |(_, rest)| rest);
                after_stamp.split(':').next().unwrap_or("").to_string()
            })
            .collect()
    };
    assert_eq!(kinds(&run_a.churn_log), kinds(&run_b.churn_log));
}
