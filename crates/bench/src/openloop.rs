//! Open-loop, coordinated-omission-free load driver.
//!
//! Every other bench in this crate is **closed-loop**: N client threads
//! each wait for one request to finish before issuing the next. That
//! measures capacity well but lies about latency — when the server stalls,
//! a closed-loop client politely stops offering load, so the stall barely
//! appears in the recorded samples (coordinated omission), and "latency at
//! X clients" says nothing about latency at a given *offered* rate.
//!
//! This driver inverts the setup, the way the paper's latency-vs-load
//! figures (and YCSB's `-target` mode) demand:
//!
//! 1. An [`ArrivalProcess`] fixes the schedule of operation arrival times
//!    up front — Poisson or fixed-rate at a configured offered rate —
//!    independent of how the server behaves.
//! 2. Tens of thousands of simulated client *sessions* are multiplexed
//!    onto a small pool of worker threads. A session is a deterministic
//!    op stream (its own RNG seed over the shared key-popularity
//!    distribution), not a thread, so session count scales to
//!    paper-sized client populations without paper-sized thread counts.
//! 3. Each operation's latency is measured from its **scheduled arrival
//!    time**, not from when a worker finally got around to sending it. If
//!    the server stalls and a backlog forms, every queued op's measured
//!    latency grows by its time in the backlog — exactly what a real
//!    open-loop client population would experience. The send-time
//!    histogram is kept alongside as the "lying" baseline so the
//!    regression test can demonstrate the difference.
//!
//! Percentiles come from [`LogHistogram`] (`p50/p99/p999` at ≤1.6 %
//! relative error).

use dinomo_obs::{HistogramSummary, LogHistogram};
use dinomo_workload::{
    arrival_schedule, key_for, session_seed, ArrivalProcess, KeyDistribution, Operation,
    ZipfianGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration for one open-loop run at one offered rate.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Arrival process drawn for the schedule.
    pub process: ArrivalProcess,
    /// Offered load in operations per second.
    pub offered_rate: f64,
    /// Total operations in the run.
    pub total_ops: u64,
    /// Simulated client sessions multiplexed onto the worker pool.
    pub sessions: u32,
    /// Worker threads actually issuing requests.
    pub workers: usize,
    /// Key-space size; keys are drawn from `distribution` over `0..num_keys`.
    pub num_keys: u64,
    /// Fraction of operations that are reads (the rest are updates).
    pub read_fraction: f64,
    /// Value length for update operations.
    pub value_len: usize,
    /// Key-popularity distribution shared by all sessions.
    pub distribution: KeyDistribution,
    /// Master seed: schedule, session assignment and every session's op
    /// stream derive from it, so a run is replayable byte-for-byte.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            process: ArrivalProcess::Poisson,
            offered_rate: 10_000.0,
            total_ops: 20_000,
            sessions: 20_000,
            workers: 8,
            num_keys: 2_000,
            read_fraction: 0.95,
            value_len: 128,
            distribution: KeyDistribution::MODERATE_SKEW,
            seed: 0xD1_40_40,
        }
    }
}

/// Key chooser shared (immutably) by all sessions. One CDF for the whole
/// run — per-session Zipfian tables at 8 bytes/key × tens of thousands of
/// sessions would dwarf the store under test.
enum KeyChooser {
    Uniform(u64),
    Zipfian(ZipfianGenerator),
}

impl KeyChooser {
    fn next(&self, rng: &mut StdRng) -> u64 {
        match self {
            KeyChooser::Uniform(n) => rng.gen_range(0..*n),
            KeyChooser::Zipfian(z) => z.next(rng),
        }
    }
}

/// The fully materialized, deterministic plan for one open-loop run:
/// every operation's scheduled arrival offset and owning session. A pure
/// function of the [`OpenLoopConfig`] — same config, byte-identical plan.
pub struct OpenLoopPlan {
    /// Scheduled arrival offsets in nanoseconds from run start.
    pub arrivals_ns: Vec<u64>,
    /// Owning session of each scheduled operation.
    pub session_of: Vec<u32>,
    chooser: KeyChooser,
    cfg: OpenLoopConfig,
}

impl OpenLoopPlan {
    /// Materialize the schedule and session assignment for `cfg`.
    pub fn new(cfg: OpenLoopConfig) -> Self {
        assert!(cfg.sessions > 0 && cfg.workers > 0 && cfg.num_keys > 0);
        let arrivals_ns = arrival_schedule(cfg.process, cfg.offered_rate, cfg.total_ops, cfg.seed);
        // Each arrival belongs to a uniformly chosen session, mimicking a
        // large population of independent thin clients.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5E55_1044);
        let session_of = (0..cfg.total_ops)
            .map(|_| rng.gen_range(0..cfg.sessions))
            .collect();
        let chooser = match cfg.distribution {
            KeyDistribution::Uniform => KeyChooser::Uniform(cfg.num_keys),
            KeyDistribution::Zipfian { theta } => {
                KeyChooser::Zipfian(ZipfianGenerator::new(cfg.num_keys, theta, true))
            }
        };
        OpenLoopPlan {
            arrivals_ns,
            session_of,
            chooser,
            cfg,
        }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &OpenLoopConfig {
        &self.cfg
    }

    /// The `i`-th scheduled operation and its session. Deterministic and
    /// order-independent: the op derives from `(seed, session, i)` alone,
    /// so concurrent workers need no shared session state and a replay
    /// regenerates the identical stream.
    pub fn op(&self, i: usize) -> (u32, Operation) {
        let session = self.session_of[i];
        let mut rng =
            StdRng::seed_from_u64(session_seed(self.cfg.seed, session).wrapping_add(i as u64));
        let id = self.chooser.next(&mut rng);
        let key = key_for(id, 8);
        let op = if rng.gen_bool(self.cfg.read_fraction.clamp(0.0, 1.0)) {
            Operation::Read(key)
        } else {
            Operation::Update(key, vec![(id % 251) as u8; self.cfg.value_len])
        };
        (session, op)
    }
}

/// The measured outcome of one open-loop run.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Operations completed (always `total_ops`; the driver never drops).
    pub ops: u64,
    /// The configured offered rate, ops/second.
    pub offered_rate: f64,
    /// Completed throughput: `ops / elapsed`. Falls below `offered_rate`
    /// exactly when the system can no longer drain the schedule.
    pub achieved_rate: f64,
    /// Run start to last completion.
    pub elapsed: Duration,
    /// Latency from **scheduled arrival** to completion — the honest,
    /// coordinated-omission-free distribution (nanoseconds).
    pub scheduled: LogHistogram,
    /// Latency from actual send to completion — what a closed-loop bench
    /// would have reported (nanoseconds). Kept for comparison only.
    pub send: LogHistogram,
}

impl OpenLoopReport {
    /// Summary of the honest (scheduled-arrival) latency distribution,
    /// in nanoseconds.
    pub fn scheduled_summary(&self) -> HistogramSummary {
        HistogramSummary::of(&self.scheduled)
    }

    /// Summary of the send-time latency distribution, in nanoseconds.
    pub fn send_summary(&self) -> HistogramSummary {
        HistogramSummary::of(&self.send)
    }

    /// Fraction of operations whose scheduled-arrival latency was at or
    /// below `slo`.
    pub fn slo_attainment(&self, slo: Duration) -> f64 {
        if self.scheduled.count() == 0 {
            return 1.0;
        }
        self.scheduled.count_at_or_below(slo.as_nanos() as u64) as f64
            / self.scheduled.count() as f64
    }
}

/// Sleep until `target`, coarsely at first (the OS sleep is only
/// millisecond-faithful), then spin the final stretch so arrivals land on
/// schedule. Returns immediately if `target` is already past — a late
/// arrival executes at once and its backlog time lands in the
/// scheduled-arrival latency, which is the whole point.
fn wait_until(target: Instant) {
    const SPIN_SLACK: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let gap = target - now;
        if gap > SPIN_SLACK {
            std::thread::sleep(gap - SPIN_SLACK);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Execute `plan` against per-worker executors built by `make_executor`
/// (called once per worker on the caller's thread — build a `KvsClient`
/// there). Workers claim scheduled operations from a shared cursor, wait
/// for each op's arrival time, execute, and record both the
/// scheduled-arrival and send-time latency. Returns the merged report.
pub fn run_open_loop<F, E>(plan: &OpenLoopPlan, make_executor: F) -> OpenLoopReport
where
    F: Fn(usize) -> E,
    E: FnMut(Operation) + Send,
{
    let n = plan.arrivals_ns.len();
    let cursor = AtomicUsize::new(0);
    // A short lead so every worker is parked on the schedule before the
    // first arrival, rather than starting late and calling it queueing.
    let start = Instant::now() + Duration::from_millis(5);

    let mut executors: Vec<E> = (0..plan.cfg.workers).map(&make_executor).collect();

    let (scheduled, send, last_done) = std::thread::scope(|scope| {
        let handles: Vec<_> = executors
            .iter_mut()
            .map(|exec| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut sched_hist = LogHistogram::new();
                    let mut send_hist = LogHistogram::new();
                    let mut last_done = start;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let target = start + Duration::from_nanos(plan.arrivals_ns[i]);
                        wait_until(target);
                        let (_session, op) = plan.op(i);
                        let sent = Instant::now();
                        exec(op);
                        let done = Instant::now();
                        // `duration_since` saturates to zero, so a clock
                        // quirk can't panic the worker mid-run.
                        sched_hist.record(done.duration_since(target).as_nanos() as u64);
                        send_hist.record(done.duration_since(sent).as_nanos() as u64);
                        last_done = done;
                    }
                    (sched_hist, send_hist, last_done)
                })
            })
            .collect();
        let mut scheduled = LogHistogram::new();
        let mut send = LogHistogram::new();
        let mut last_done = start;
        for h in handles {
            let (s, t, d) = h.join().expect("open-loop worker panicked");
            scheduled.merge(&s);
            send.merge(&t);
            last_done = last_done.max(d);
        }
        (scheduled, send, last_done)
    });

    let elapsed = last_done.duration_since(start);
    OpenLoopReport {
        ops: n as u64,
        offered_rate: plan.cfg.offered_rate,
        achieved_rate: if elapsed.is_zero() {
            0.0
        } else {
            n as f64 / elapsed.as_secs_f64()
        },
        elapsed,
        scheduled,
        send,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> OpenLoopConfig {
        OpenLoopConfig {
            offered_rate: 50_000.0,
            total_ops: 5_000,
            sessions: 1_000,
            workers: 4,
            ..OpenLoopConfig::default()
        }
    }

    #[test]
    fn plans_are_byte_identical_for_the_same_seed() {
        let a = OpenLoopPlan::new(small_cfg());
        let b = OpenLoopPlan::new(small_cfg());
        assert_eq!(a.arrivals_ns, b.arrivals_ns);
        assert_eq!(a.session_of, b.session_of);
        for i in (0..5_000).step_by(97) {
            assert_eq!(a.op(i), b.op(i));
        }
        let c = OpenLoopPlan::new(OpenLoopConfig {
            seed: 99,
            ..small_cfg()
        });
        assert_ne!(a.arrivals_ns, c.arrivals_ns);
    }

    #[test]
    fn ops_follow_the_configured_mix_and_key_space() {
        let plan = OpenLoopPlan::new(small_cfg());
        let mut reads = 0usize;
        for i in 0..5_000 {
            let (session, op) = plan.op(i);
            assert!(session < 1_000);
            match op {
                Operation::Read(_) => reads += 1,
                Operation::Update(_, v) => assert_eq!(v.len(), 128),
                other => panic!("unexpected op {other:?}"),
            }
        }
        let frac = reads as f64 / 5_000.0;
        assert!((0.92..=0.98).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn fast_executor_achieves_the_offered_rate() {
        let plan = OpenLoopPlan::new(small_cfg());
        let report = run_open_loop(&plan, |_worker| {
            move |op: Operation| {
                std::hint::black_box(&op);
            }
        });
        assert_eq!(report.ops, 5_000);
        assert_eq!(report.scheduled.count(), 5_000);
        assert_eq!(report.send.count(), 5_000);
        // The driver never runs ahead of its schedule: the last op waits
        // for its arrival time, so the run cannot be shorter than the
        // schedule. (That it also *keeps up* with the schedule is a
        // wall-clock claim; `openloop_bench`'s self-check gates it.)
        assert!(report.elapsed >= Duration::from_nanos(*plan.arrivals_ns.last().unwrap()));
    }
}
