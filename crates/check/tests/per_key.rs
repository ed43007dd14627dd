//! The per-key route under the checker. Every other scenario issues
//! `execute` batches of 8, which take the client's grouped dispatch; with
//! `batch_size: 1` every call is a singleton, dispatched exactly like
//! `lookup`/`insert`/`update`/`delete` — so per-key requests race
//! membership hand-offs and replication flips with the linearizability
//! checker as the judge.

use dinomo_check::driver::{run_and_check, CheckConfig};

#[test]
fn singleton_calls_racing_handoffs_linearize() {
    let config = CheckConfig {
        batch_size: 1,
        total_ops: 1_500,
        ..CheckConfig::from_seed(CheckConfig::env_seed().unwrap_or(31))
    };
    assert!(config.membership_churn && config.replication_churn);
    let report = run_and_check(&config).unwrap_or_else(|f| panic!("{f}"));
    assert!(
        report.run.history.len() >= config.total_ops,
        "scenario recorded too little: {} ops",
        report.run.history.len()
    );
}
