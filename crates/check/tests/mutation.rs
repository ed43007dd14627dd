//! The checker's mutation acceptance test: record a history from a real
//! churning cluster run (reconfiguration + routing retries + replicated
//! keys), assert the checker accepts it, then inject violations into that
//! same history — swapped read values, a dropped acknowledged write — and
//! assert the checker rejects each mutant. A checker that cannot fail is
//! not a checker.

use dinomo_check::checker::{check_history, CheckError};
use dinomo_check::driver::{run_scenario, CheckConfig};
use dinomo_core::trace::{Action, OpRecord};

/// One recorded churn scenario, shared by every mutation below (recording
/// is the expensive part; mutations are cheap).
fn recorded_history() -> (Vec<OpRecord>, Vec<String>) {
    let mut config = CheckConfig::from_seed(CheckConfig::env_seed().unwrap_or(20260728));
    config.total_ops = 1_200;
    let run = run_scenario(&config);
    assert!(
        run.history.len() >= 1_200,
        "scenario recorded too little: {} ops",
        run.history.len()
    );
    (run.history, run.churn_log)
}

fn find_observed_read(history: &[OpRecord]) -> usize {
    history
        .iter()
        .position(|r| r.ok && matches!(&r.action, Action::Read(Some(_))))
        .expect(
            "a preloaded CRUD run must contain at least one successful read \
             of an existing value",
        )
}

#[test]
fn checker_accepts_the_real_history_and_rejects_injected_violations() {
    let (history, churn_log) = recorded_history();

    // The genuine history — concurrent clients, membership and
    // replication churn, routing retries — must linearize.
    let stats = check_history(&history).unwrap_or_else(|e| {
        panic!("real cluster history failed the checker: {e}\nchurn: {churn_log:?}")
    });
    assert!(stats.ops > 0 && stats.keys > 1);

    // Sanity: the scenario actually churned (otherwise this test guards
    // far less than it claims). Log lines are "[from-to] action: outcome".
    let action = |l: &String| -> String {
        l.split_once("] ")
            .map_or(l.as_str(), |(_, rest)| rest)
            .to_string()
    };
    assert!(
        churn_log.iter().any(|l| action(l).starts_with("add: kn"))
            || churn_log.iter().any(|l| action(l).starts_with("fail: kn"))
            || churn_log
                .iter()
                .any(|l| action(l).starts_with("remove: kn")),
        "no membership churn ran: {churn_log:?}"
    );
    assert!(
        churn_log
            .iter()
            .any(|l| action(l).starts_with("replicate: key")),
        "no replication churn ran: {churn_log:?}"
    );

    // --- Mutation 1: a read observes a value nobody ever wrote.
    let mut mutant = history.clone();
    let read_idx = find_observed_read(&mutant);
    mutant[read_idx].action = Action::Read(Some(b"<injected-never-written>".to_vec()));
    match check_history(&mutant) {
        Err(CheckError::Violation(v)) => assert_eq!(v.key, mutant[read_idx].key),
        other => panic!("unobserved-value mutant must be rejected, got {other:?}"),
    }

    // --- Mutation 2: drop an acknowledged write that a read observed
    // (an acked-write loss the hand-rolled probes could miss).
    let mut mutant = history.clone();
    let read_idx = find_observed_read(&mutant);
    let (key, observed) = match &mutant[read_idx].action {
        Action::Read(Some(v)) => (mutant[read_idx].key.clone(), v.clone()),
        _ => unreachable!(),
    };
    let write_idx = mutant
        .iter()
        .position(|r| {
            r.ok && r.key == key && matches!(&r.action, Action::Write(v) if *v == observed)
        })
        .expect("the observed value must come from a recorded write");
    mutant.remove(write_idx);
    match check_history(&mutant) {
        Err(CheckError::Violation(v)) => assert_eq!(v.key, key),
        other => panic!("dropped-acked-write mutant must be rejected, got {other:?}"),
    }

    // --- Mutation 3: swap the observed values of two reads of different
    // keys (a positional reply mix-up in the batched path).
    let mut mutant = history.clone();
    let first = find_observed_read(&mutant);
    let second = mutant
        .iter()
        .enumerate()
        .skip(first + 1)
        .find(|(_, r)| {
            r.ok && r.key != mutant[first].key && matches!(&r.action, Action::Read(Some(_)))
        })
        .map(|(i, _)| i)
        .expect("a CRUD run reads more than one key");
    let tmp = mutant[first].action.clone();
    mutant[first].action = mutant[second].action.clone();
    mutant[second].action = tmp;
    assert!(
        check_history(&mutant).is_err(),
        "cross-key swapped read values must be rejected"
    );
}
