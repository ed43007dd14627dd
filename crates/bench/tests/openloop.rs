//! Regression test for the open-loop driver's replayability.
//!
//! The driver's measurement-honesty checks (a stalled server must show in
//! scheduled-arrival percentiles and hide in send-time ones) assert
//! wall-clock latencies, so they run as `openloop_bench`'s self-check
//! under the bench gate, not here.

use dinomo_bench::openloop::{OpenLoopConfig, OpenLoopPlan};
use dinomo_workload::arrival_schedule;

/// Same seed ⇒ byte-identical schedule and op stream; different seed ⇒
/// a different schedule. (The unit tests cover the pieces; this pins the
/// end-to-end property the replayability story depends on.)
#[test]
fn open_loop_plans_are_deterministic_from_the_seed() {
    let cfg = OpenLoopConfig {
        total_ops: 4_000,
        ..OpenLoopConfig::default()
    };
    let a = OpenLoopPlan::new(cfg);
    let b = OpenLoopPlan::new(cfg);
    assert_eq!(a.arrivals_ns, b.arrivals_ns);
    assert_eq!(a.session_of, b.session_of);
    assert!((0..4_000).all(|i| a.op(i) == b.op(i)));
    assert_eq!(
        a.arrivals_ns,
        arrival_schedule(cfg.process, cfg.offered_rate, cfg.total_ops, cfg.seed),
        "the plan must replay the workload crate's schedule verbatim"
    );
    let c = OpenLoopPlan::new(OpenLoopConfig { seed: 1, ..cfg });
    assert_ne!(a.arrivals_ns, c.arrivals_ns);
}
