//! The seeded generative stress driver.
//!
//! A scenario is a **pure function of its seed**: the op stream of every
//! client ([`client_ops`]) and the churn schedule ([`churn_script`]) are
//! derived deterministically from `CheckConfig::seed`, so a failure found
//! by a nightly random sweep reproduces locally from
//! `DINOMO_CHECK_SEED=<n>` alone — only thread *timing* differs between
//! runs, and the linearizability checker tolerates timing by construction
//! (it checks the recorded real-time partial order, not a total order).
//!
//! One scenario run:
//!
//! * builds a real cluster in the configuration the store ships, where
//!   every slice flushes its writes before answering them, so an
//!   acknowledged write is durable — the guarantee the checker verifies
//!   across fail-stop churn;
//! * optionally preloads the key space through a recording client;
//! * runs `clients` concurrent threads, each executing its deterministic
//!   CRUD batches (skewed keys via [`WorkloadGenerator`],
//!   globally-unique write values so the checker can pin every read to its
//!   write) through the batched `execute` path with history recording on;
//! * replays a deterministic churn script concurrently:
//!   `add_kn`/`remove_kn`/`fail_kn` plus selective-replication flips on
//!   the hottest keys;
//! * once clients and churn have joined, asserts that the cluster
//!   quiesces and that the hash index passes its invariant walk;
//! * drains the merged history and hands it to the checker.
//!
//! Shrinking is built into replay: rerun the same seed with a reduced
//! `total_ops` budget (see the `lincheck` binary's `--replay`), which
//! preserves the op-stream *prefix* — the generators are streams, so a
//! smaller budget is a prefix of the same schedule.

use crate::checker::{check_history_with, CheckError, CheckStats, CheckerConfig};
use crate::workload::{KeyDistribution, WorkloadConfig, WorkloadGenerator, WorkloadMix};
use crate::zipf::{splitmix64, Rng, GOLDEN_GAMMA};
use dinomo_core::trace::{Action, HistoryRecorder, OpRecord};
use dinomo_core::{key_for, GcConfig, Kvs, KvsConfig, KvsError, Op, Reply};
use std::time::Duration;

/// Configuration of one generative check scenario. Everything except
/// `seed` has a sensible default via [`CheckConfig::from_seed`].
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// The master seed every deterministic choice derives from.
    pub seed: u64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total operation budget, split evenly across clients. Replaying a
    /// failing seed with a smaller budget shrinks the scenario (the op
    /// streams are prefixes of the larger run's).
    pub total_ops: usize,
    /// Ops per `execute` call (the batched client path).
    pub batch_size: usize,
    /// Loaded key-space size (small, so keys are contended).
    pub keys: u64,
    /// KVS nodes at start-up.
    pub initial_kns: usize,
    /// Replay `add_kn`/`remove_kn`/`fail_kn` churn during the run.
    pub membership_churn: bool,
    /// Flip selective replication on/off on hot keys during the run.
    pub replication_churn: bool,
    /// Length of the churn script (actions, including pauses).
    pub churn_steps: usize,
    /// Insert the whole key space (recorded) before the clients start.
    pub preload: bool,
    /// Run the DPM log-cleaning compactor (background thread, aggressive
    /// knobs) during the scenario, so entry relocation races the clients
    /// *and* the replicate/dereplicate/membership churn.
    pub compactor: bool,
    /// Mix crash injection into the churn script: KN fail-stop +
    /// re-admission, and whole-DPM power failures aimed (via failpoints)
    /// at the nastiest windows — mid-compaction, mid-hand-off,
    /// mid-cell-swing — each followed by the full
    /// `recover()`/invariant-walk sequence
    /// ([`Kvs::crash_dpm_and_recover`]). Turns the pool's
    /// persistence tracking on so `simulate_crash` actually drops
    /// unpersisted lines.
    pub crashes: bool,
    /// Checker budget.
    pub checker: CheckerConfig,
}

impl CheckConfig {
    /// The default scenario for a seed: 3 clients, 3 000 ops of CRUD over
    /// 48 skewed keys in batches of 8, membership and replication churn
    /// on.
    pub fn from_seed(seed: u64) -> Self {
        CheckConfig {
            seed,
            clients: 3,
            total_ops: 3_000,
            batch_size: 8,
            keys: 48,
            initial_kns: 2,
            membership_churn: true,
            replication_churn: true,
            churn_steps: 80,
            preload: true,
            compactor: false,
            crashes: false,
            checker: CheckerConfig::default(),
        }
    }

    /// The seed override from `DINOMO_CHECK_SEED`, if set — the reproduce
    /// knob printed by failing sweeps.
    ///
    /// # Panics
    ///
    /// If the variable is set but is not a decimal `u64`: a mistyped seed
    /// must not silently run the test's built-in one instead.
    pub fn env_seed() -> Option<u64> {
        let raw = std::env::var_os("DINOMO_CHECK_SEED");
        parse_seed(raw.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }
}

/// `DINOMO_CHECK_SEED`'s value, as [`CheckConfig::env_seed`] reads it:
/// unset is `None`, anything set must parse.
fn parse_seed(raw: Option<&str>) -> Option<u64> {
    let raw = raw?;
    match raw.parse() {
        Ok(seed) => Some(seed),
        Err(e) => panic!("DINOMO_CHECK_SEED={raw:?} is not a decimal u64 seed: {e}"),
    }
}

/// One step of the churn schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// `add_kn` (skipped above 5 live nodes).
    AddKn,
    /// Planned scale-in of the oldest node (skipped at ≤ 2 nodes).
    RemoveOldestKn,
    /// Fail-stop the newest node (skipped at ≤ 2 nodes).
    FailNewestKn,
    /// Replicate loaded key `key_id` across `factor` owners.
    ReplicateKey(u64, usize),
    /// Collapse loaded key `key_id` back to one owner.
    DereplicateKey(u64),
    /// Sleep for the given milliseconds, letting client traffic run
    /// against the current configuration.
    Pause(u64),
    /// Fail-stop the newest node and immediately re-admit a replacement
    /// (skipped at ≤ 2 nodes): the failure-recovery protocol plus a
    /// hand-off, back to back, under live traffic.
    CrashKn,
    /// Simulate a DPM power failure inside the given window, then run the
    /// full crash/recover sequence ([`Kvs::crash_dpm_and_recover`]).
    CrashDpm(CrashWindow),
}

/// Where a [`ChurnAction::CrashDpm`] lands, driven by the DPM failpoints
/// (see `dinomo_dpm::failpoint`). Each non-quiescent window arms its
/// point, drives the matching control-plane operation until it fires, and
/// crashes with the operation abandoned half-way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWindow {
    /// Mid-compaction: at least one entry relocated and swung, the rest
    /// of the victim untouched (`gc.after-relocate`).
    MidCompaction,
    /// Mid-hand-off: the §3.5 protocol aborted after close/drain/flush/
    /// merge but before the table flip (`handoff.before-flip`), leaving
    /// the moving ranges closed.
    MidHandoff,
    /// Between publishing loaded key `key_id`'s indirection cell and
    /// swinging the index onto it (`cell.before-swing`).
    MidCellSwing(u64),
    /// No failpoint: the crash lands between operations (still drops any
    /// unpersisted pool lines).
    Quiescent,
}

/// SplitMix64 — decorrelates the per-purpose seeds derived from the
/// master seed.
fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt.wrapping_mul(GOLDEN_GAMMA))
}

/// The deterministic churn schedule for a scenario — a pure function of
/// the configuration (no clocks, no entropy). Replication actions favour
/// low key ids, which are the hottest ranks of the scrambled-Zipf key
/// chooser's head.
pub fn churn_script(config: &CheckConfig) -> Vec<ChurnAction> {
    let mut rng = Rng::seed_from_u64(mix(config.seed, 0xc4a6));
    let mut script = Vec::with_capacity(config.churn_steps);
    let mut replicated: Vec<u64> = Vec::new();
    // Widening the roll range only when crashes are on keeps every
    // pre-existing seed's script bit-for-bit identical with crashes off.
    let roll_range = if config.crashes { 13 } else { 10 };
    let mut crash_counter = 0u64;
    for _ in 0..config.churn_steps {
        let roll = rng.below(roll_range);
        let action = match roll {
            0 | 1 if config.membership_churn => ChurnAction::AddKn,
            2 if config.membership_churn => ChurnAction::RemoveOldestKn,
            3 if config.membership_churn => ChurnAction::FailNewestKn,
            4 | 5 if config.replication_churn => {
                let key_id = rng.below(config.keys.clamp(1, 8));
                let factor = 2 + rng.below(2) as usize;
                if !replicated.contains(&key_id) {
                    replicated.push(key_id);
                }
                ChurnAction::ReplicateKey(key_id, factor)
            }
            6 if config.replication_churn && !replicated.is_empty() => {
                let idx = rng.below(replicated.len() as u64) as usize;
                ChurnAction::DereplicateKey(replicated.swap_remove(idx))
            }
            10 => ChurnAction::CrashKn,
            11 | 12 => {
                // Cycle through the windows so every script with a few
                // DPM crashes visits all of them (a uniform draw could
                // miss one at small churn-step counts).
                let window = match crash_counter % 4 {
                    0 => CrashWindow::MidCompaction,
                    1 => CrashWindow::MidHandoff,
                    2 => CrashWindow::MidCellSwing(rng.below(config.keys.clamp(1, 8))),
                    _ => CrashWindow::Quiescent,
                };
                crash_counter += 1;
                ChurnAction::CrashDpm(window)
            }
            _ => ChurnAction::Pause(1 + rng.below(3)),
        };
        script.push(action);
    }
    script
}

/// The deterministic op stream of one client — a pure function of
/// `(config.seed, client)`. Keys and op kinds come from a CRUD
/// [`WorkloadGenerator`] (skewed, delete/re-insert churn included); write
/// values are replaced with globally-unique `c<client>-<index>` payloads
/// so the checker can attribute every observed value to exactly one
/// write.
pub fn client_ops(config: &CheckConfig, client: usize) -> Vec<Op> {
    let per_client = (config.total_ops / config.clients.max(1)).max(1);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        num_keys: config.keys.max(1),
        value_len: 8,
        mix: WorkloadMix::CRUD,
        distribution: KeyDistribution::MODERATE_SKEW,
        seed: mix(config.seed, client as u64 + 1),
    });
    (0..per_client)
        .map(|i| {
            let mut op = generator.next_op();
            if let Op::Insert { value, .. } | Op::Update { value, .. } = &mut op {
                *value = format!("c{client}-{i}").into_bytes();
            }
            op
        })
        .collect()
}

/// What a scenario run produced, before/after checking.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The merged, invocation-sorted history.
    pub history: Vec<OpRecord>,
    /// Churn actions actually applied (with skip notes), in order.
    pub churn_log: Vec<String>,
    /// Error replies the clients saw (retries exhausted under churn —
    /// recorded as failed ops, tolerated by the checker).
    pub error_replies: usize,
    /// Victim segments the compactor emptied and freed during the run (0
    /// unless `CheckConfig::compactor` is set).
    pub segments_compacted: u64,
    /// Live entries the compactor relocated during the run.
    pub entries_relocated: u64,
    /// Live KVS nodes at the end.
    pub final_kns: usize,
    /// KN fail-stop + re-admit crashes applied (0 unless
    /// `CheckConfig::crashes`).
    pub kn_crashes: usize,
    /// DPM power-failure + recovery sequences applied.
    pub dpm_crashes: usize,
    /// DPM crashes that landed inside a compaction pass (the
    /// `gc.after-relocate` failpoint fired).
    pub crashes_in_compaction: u64,
    /// DPM crashes that landed mid-hand-off (`handoff.before-flip`).
    pub crashes_in_handoff: u64,
    /// DPM crashes that landed between a cell publish and its index swing
    /// (`cell.before-swing`).
    pub crashes_in_cell_swing: u64,
}

/// A failed check, with everything needed to reproduce and report it.
#[derive(Debug)]
pub struct CheckFailure {
    /// The scenario seed (reproduce with `DINOMO_CHECK_SEED=<seed>`).
    pub seed: u64,
    /// What the checker found.
    pub error: CheckError,
    /// The full history, for artifact dumps.
    pub history: Vec<OpRecord>,
    /// The applied churn actions with their logical-clock windows.
    pub churn_log: Vec<String>,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} — reproduce with DINOMO_CHECK_SEED={}",
            self.error, self.seed
        )
    }
}

/// Run one scenario and return its recorded history (unchecked).
pub fn run_scenario(config: &CheckConfig) -> ScenarioRun {
    let mut kvs_config = KvsConfig {
        initial_kns: config.initial_kns.max(1),
        threads_per_kn: 2,
        ..KvsConfig::small_for_tests()
    };
    if config.compactor {
        // Aggressive compaction on tiny segments: relocations race every
        // client read/write and every control-plane hand-off, so the
        // checker verifies the compactor's index-CAS/cell-pin protocol
        // under the worst interleavings. Small segments make victims
        // plentiful within a short scenario.
        kvs_config.dpm.segment_bytes = 4 << 10;
        kvs_config.dpm.gc = GcConfig::aggressive();
    }
    if config.crashes {
        // `simulate_crash` is a no-op unless the pool tracks persistence.
        kvs_config.dpm.pool.track_persistence = true;
        // Small segments keep compaction victims plentiful for the
        // mid-compaction crash window...
        kvs_config.dpm.segment_bytes = 4 << 10;
        if !config.compactor {
            // ...and without the background compactor, aggressive victim
            // selection lets the crash arm drive passes synchronously
            // through `compact_once`.
            kvs_config.dpm.gc = GcConfig {
                background: false,
                ..GcConfig::aggressive()
            };
        }
    }
    let kvs = Kvs::new(kvs_config).expect("cluster construction");
    let recorder = HistoryRecorder::new();

    if config.preload {
        let loader = kvs.client().with_recorder(recorder.handle(u64::MAX));
        let pairs: Vec<(Vec<u8>, String)> = (0..config.keys)
            .map(|id| (key_for(id, 8), format!("p{id}")))
            .collect();
        for chunk in pairs.chunks(32) {
            let replies = loader.execute(
                chunk
                    .iter()
                    .map(|(k, v)| Op::insert(k.clone(), v.as_str()))
                    .collect(),
            );
            assert!(
                replies.iter().all(Reply::is_ok),
                "preload failed: {replies:?}"
            );
        }
    }

    // The churn thread always replays the *entire* script — the applied
    // action sequence is identical on every run of a seed (only the guard
    // skips, which depend on live node counts, can differ with thread
    // timing). Clients that finish early just leave the tail of the
    // script churning an idle cluster. Each log line carries the
    // logical-clock window the action spanned, so failure artifacts line
    // churn up against op timestamps.
    let churn_thread = {
        let kvs = kvs.clone();
        let script = churn_script(config);
        let clock = recorder.handle(u64::MAX - 1);
        std::thread::spawn(move || {
            script
                .into_iter()
                .map(|action| {
                    let from = clock.invoke();
                    let outcome = apply_churn(&kvs, action);
                    let to = clock.invoke();
                    format!("[{from}-{to}] {outcome}")
                })
                .collect::<Vec<String>>()
        })
    };

    let clients: Vec<_> = (0..config.clients.max(1))
        .map(|c| {
            let kvs = kvs.clone();
            let handle = recorder.handle(c as u64);
            let ops = client_ops(config, c);
            let batch = config.batch_size.max(1);
            std::thread::spawn(move || {
                let client = kvs.client().with_recorder(handle);
                let mut errors = 0usize;
                for chunk in ops.chunks(batch) {
                    let replies = client.execute(chunk.to_vec());
                    errors += replies.iter().filter(|r| !r.is_ok()).count();
                }
                errors
            })
        })
        .collect();

    let error_replies = clients.into_iter().map(|h| h.join().unwrap()).sum();
    let churn_log = churn_thread.join().unwrap();

    // Whatever the scenario did to it, the hash index must pass its
    // invariant walk once the cluster quiesces. The walk needs a
    // quiescent point: clients and churn have joined, `quiesce` waits out
    // the merge workers, and collector passes are excluded across the
    // walk — a pass can free the victim of an index word the walk just
    // read (see `DpmNode::pause_collectors`). Flush + merge must still
    // complete at that point.
    if let Err(e) = kvs.quiesce() {
        panic!("cluster failed to quiesce after scenario: {e}");
    }
    let checked = {
        let _gc_pause = kvs.dpm().pause_collectors();
        kvs.dpm().check_index()
    };
    if let Err(e) = checked {
        panic!("index invariants violated after scenario: {e}");
    }

    let stats = kvs.stats();
    let history = recorder.drain();
    let failpoints = kvs.dpm().failpoints();
    ScenarioRun {
        history,
        error_replies,
        segments_compacted: stats.dpm.segments_compacted,
        entries_relocated: stats.dpm.entries_relocated,
        final_kns: kvs.num_kns(),
        kn_crashes: churn_log
            .iter()
            .filter(|l| l.contains("crash-kn: kn"))
            .count(),
        dpm_crashes: churn_log
            .iter()
            .filter(|l| l.contains("crash-dpm") && l.contains("recovered="))
            .count(),
        crashes_in_compaction: failpoints.fired("gc.after-relocate"),
        crashes_in_handoff: failpoints.fired("handoff.before-flip"),
        crashes_in_cell_swing: failpoints.fired("cell.before-swing"),
        churn_log,
    }
}

/// Apply one churn action against a live cluster, with the safety guards
/// (never below 2 nodes, never above 5) that keep random scripts from
/// starving or flooding the cluster.
fn apply_churn(kvs: &Kvs, action: ChurnAction) -> String {
    match action {
        ChurnAction::AddKn => {
            if kvs.num_kns() >= 5 {
                return "add: skipped (at cap)".into();
            }
            match kvs.add_kn() {
                Ok(id) => format!("add: kn {id}"),
                Err(e) => format!("add: failed ({e})"),
            }
        }
        ChurnAction::RemoveOldestKn => {
            if kvs.num_kns() <= 2 {
                return "remove: skipped (at floor)".into();
            }
            let victim = kvs.kn_ids()[0];
            match kvs.remove_kn(victim) {
                Ok(()) => format!("remove: kn {victim}"),
                Err(e) => format!("remove: kn {victim} failed ({e})"),
            }
        }
        ChurnAction::FailNewestKn => {
            if kvs.num_kns() <= 2 {
                return "fail: skipped (at floor)".into();
            }
            let Some(&victim) = kvs.kn_ids().last() else {
                return "fail: skipped (no nodes)".into();
            };
            match kvs.fail_kn(victim) {
                Ok(()) => format!("fail: kn {victim}"),
                Err(e) => format!("fail: kn {victim} failed ({e})"),
            }
        }
        ChurnAction::ReplicateKey(key_id, factor) => {
            let key = key_for(key_id, 8);
            match kvs.replicate_key(&key, factor) {
                Ok(owners) => format!("replicate: key {key_id} x{}", owners.len()),
                Err(e) => format!("replicate: key {key_id} failed ({e})"),
            }
        }
        ChurnAction::DereplicateKey(key_id) => {
            let key = key_for(key_id, 8);
            match kvs.dereplicate_key(&key) {
                Ok(()) => format!("dereplicate: key {key_id}"),
                Err(e) => format!("dereplicate: key {key_id} failed ({e})"),
            }
        }
        ChurnAction::Pause(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            format!("pause: {ms}ms")
        }
        ChurnAction::CrashKn => {
            if kvs.num_kns() <= 2 {
                return "crash-kn: skipped (at floor)".into();
            }
            let Some(&victim) = kvs.kn_ids().last() else {
                return "crash-kn: skipped (no nodes)".into();
            };
            if let Err(e) = kvs.fail_kn(victim) {
                return format!("crash-kn: kn {victim} fail failed ({e})");
            }
            // Re-admit a replacement immediately: failure recovery and a
            // §3.5 hand-off back to back, under live traffic.
            match kvs.add_kn() {
                Ok(id) => format!("crash-kn: kn {victim} crashed, kn {id} admitted"),
                Err(e) => format!("crash-kn: kn {victim} crashed, re-admit failed ({e})"),
            }
        }
        ChurnAction::CrashDpm(window) => {
            let fp = kvs.dpm().failpoints();
            // Arm the window's failpoint, drive the operation that hits
            // it, then always disarm: the trigger can miss (no compaction
            // victim, key already replicated, ...) and a stale armed
            // point must not fire at some unrelated later instant. A
            // missed window degrades to a quiescent crash — the crash
            // still happens, just between operations.
            let note = match window {
                CrashWindow::MidCompaction => {
                    // Fire-detection by counter delta, not by our own
                    // pass's report: with the background compactor on,
                    // *its* pass may trip the armed point instead of the
                    // synchronous one, and that crash lands mid-compaction
                    // all the same. Retry a few passes — a victim with a
                    // relocatable live entry may only appear once the
                    // clients overwrite a bit more — but never spin long.
                    let before = fp.fired("gc.after-relocate");
                    fp.arm("gc.after-relocate", 1);
                    for _ in 0..8 {
                        if fp.fired("gc.after-relocate") > before {
                            break;
                        }
                        let _ = kvs.dpm().compact_once();
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    fp.disarm("gc.after-relocate");
                    if fp.fired("gc.after-relocate") > before {
                        "mid-compaction".to_string()
                    } else {
                        "mid-compaction missed (no victim), quiescent".to_string()
                    }
                }
                CrashWindow::MidHandoff => {
                    let before = fp.fired("handoff.before-flip");
                    fp.arm("handoff.before-flip", 1);
                    let result = kvs.add_kn();
                    fp.disarm("handoff.before-flip");
                    if fp.fired("handoff.before-flip") > before {
                        assert!(
                            matches!(result, Err(KvsError::Pmem(_))),
                            "mid-handoff crash: add_kn returned {result:?}"
                        );
                        "mid-handoff".to_string()
                    } else {
                        "mid-handoff missed, quiescent".to_string()
                    }
                }
                CrashWindow::MidCellSwing(key_id) => {
                    let key = key_for(key_id, 8);
                    // An already-replicated key has its cell installed and
                    // publishes no new one — collapse it first so
                    // `replicate_key` must run the publish-then-swing
                    // sequence the armed point interrupts. (Harmless error
                    // if the key was not replicated.)
                    let _ = kvs.dereplicate_key(&key);
                    let before = fp.fired("cell.before-swing");
                    fp.arm("cell.before-swing", 1);
                    let result = kvs.replicate_key(&key, 2);
                    fp.disarm("cell.before-swing");
                    if fp.fired("cell.before-swing") > before {
                        assert!(
                            matches!(result, Err(KvsError::Pmem(_))),
                            "mid-cell-swing crash: replicate_key returned {result:?}"
                        );
                        format!("mid-cell-swing key {key_id}")
                    } else {
                        format!("mid-cell-swing key {key_id} missed, quiescent")
                    }
                }
                CrashWindow::Quiescent => "quiescent".to_string(),
            };
            // The crash/recover sequence itself. A failed recovery —
            // including the quiescent post-recovery invariant walk — is a
            // correctness bug, not a tolerated outcome: panic, which
            // propagates through the churn-thread join and fails the run.
            match kvs.crash_dpm_and_recover() {
                Ok(r) => format!(
                    "crash-dpm({note}): recovered={} torn={} indexed={} dropped={}",
                    r.recovery.entries_recovered,
                    r.recovery.torn_entries,
                    r.tree,
                    r.buffered_discarded,
                ),
                Err(e) => panic!("crash-dpm({note}): recovery failed: {e}"),
            }
        }
    }
}

/// Aggregate report of a passed scenario.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Checker statistics.
    pub stats: CheckStats,
    /// The run the history came from.
    pub run: ScenarioRun,
}

/// Run a scenario and check its history. `Err` carries the seed, the
/// violation and the full history for reporting/artifacts.
pub fn run_and_check(config: &CheckConfig) -> Result<ScenarioReport, Box<CheckFailure>> {
    let run = run_scenario(config);
    match check_history_with(&run.history, &config.checker) {
        Ok(stats) => Ok(ScenarioReport { stats, run }),
        Err(error) => Err(Box::new(CheckFailure {
            seed: config.seed,
            error,
            history: run.history,
            churn_log: run.churn_log,
        })),
    }
}

/// Render a history as the line format the sweep writes into failure
/// artifacts: `client inv ret ok kind key [value]`, one op per line.
pub fn render_history(history: &[OpRecord]) -> String {
    let mut out = String::with_capacity(history.len() * 48);
    for r in history {
        let (kind, value) = match &r.action {
            Action::Write(v) => ("write", Some(v)),
            Action::Delete => ("delete", None),
            Action::Read(Some(v)) => ("read", Some(v)),
            Action::Read(None) => ("read-none", None),
        };
        out.push_str(&format!(
            "client={} inv={} ret={} ok={} {} key={:?}",
            r.client,
            r.invoked_at,
            r.returned_at,
            r.ok,
            kind,
            String::from_utf8_lossy(&r.key),
        ));
        if let Some(v) = value {
            out.push_str(&format!(" value={:?}", String::from_utf8_lossy(v)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parse_is_none_when_unset_and_panics_on_a_mistyped_value() {
        assert_eq!(parse_seed(None), None);
        assert_eq!(parse_seed(Some("42")), Some(42));
        assert_eq!(parse_seed(Some("18446744073709551615")), Some(u64::MAX));
        for raw in ["0x2a", "42 ", "", "-1", "not-a-number"] {
            let err = std::panic::catch_unwind(|| parse_seed(Some(raw)))
                .expect_err(&format!("{raw:?} must not parse"));
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("{raw:?}")), "{msg}");
        }
    }

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let config = CheckConfig::from_seed(7);
        assert_eq!(churn_script(&config), churn_script(&config));
        assert_eq!(client_ops(&config, 0), client_ops(&config, 0));
        assert_ne!(
            client_ops(&config, 0),
            client_ops(&config, 1),
            "clients must have decorrelated streams"
        );
        let other = CheckConfig::from_seed(8);
        assert_ne!(churn_script(&config), churn_script(&other));
        assert_ne!(client_ops(&config, 0), client_ops(&other, 0));
    }

    #[test]
    fn shrinking_budget_is_a_prefix_of_the_full_stream() {
        let full = CheckConfig::from_seed(11);
        let mut small = full;
        small.total_ops = full.total_ops / 4;
        let full_ops = client_ops(&full, 2);
        let small_ops = client_ops(&small, 2);
        assert_eq!(&full_ops[..small_ops.len()], &small_ops[..]);
    }

    #[test]
    fn churn_script_respects_feature_flags() {
        let mut config = CheckConfig::from_seed(3);
        config.membership_churn = false;
        config.replication_churn = false;
        for action in churn_script(&config) {
            assert!(
                matches!(action, ChurnAction::Pause(_)),
                "churn disabled but script contains {action:?}"
            );
        }
        config.replication_churn = true;
        assert!(churn_script(&config)
            .iter()
            .any(|a| matches!(a, ChurnAction::ReplicateKey(..))));
    }

    #[test]
    fn compactor_churn_scenario_passes_the_checker() {
        // The compactor's background thread relocates entries while three
        // clients run CRUD batches and the churn thread flips replication
        // and membership — the full race surface of the relocation CAS,
        // the cell-pin rule and the shortcut-cache invalidation. The
        // recorded history must stay linearizable, and the compactor must
        // actually have reclaimed something (small segments + skewed CRUD
        // guarantee victims).
        let mut config = CheckConfig::from_seed(CheckConfig::env_seed().unwrap_or(17));
        config.total_ops = 2_000;
        config.compactor = true;
        let report = run_and_check(&config).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            report.run.segments_compacted > 0,
            "scenario must exercise the compactor: {:?} segments compacted, \
             {:?} entries relocated",
            report.run.segments_compacted,
            report.run.entries_relocated
        );
    }

    #[test]
    fn crash_script_is_deterministic_and_flag_gated() {
        let mut config = CheckConfig::from_seed(23);
        assert!(
            !churn_script(&config)
                .iter()
                .any(|a| matches!(a, ChurnAction::CrashKn | ChurnAction::CrashDpm(_))),
            "crashes off must keep the script crash-free"
        );
        config.crashes = true;
        let script = churn_script(&config);
        assert_eq!(script, churn_script(&config), "crash schedule must replay");
        assert!(script.iter().any(|a| matches!(a, ChurnAction::CrashKn)));
        let windows: Vec<CrashWindow> = script
            .iter()
            .filter_map(|a| match a {
                ChurnAction::CrashDpm(w) => Some(*w),
                _ => None,
            })
            .collect();
        // The window cycle guarantees full coverage once a script draws
        // four DPM crashes.
        assert!(
            windows.len() >= 4,
            "script drew {} DPM crashes",
            windows.len()
        );
        assert!(windows.contains(&CrashWindow::MidCompaction));
        assert!(windows.contains(&CrashWindow::MidHandoff));
        assert!(windows
            .iter()
            .any(|w| matches!(w, CrashWindow::MidCellSwing(_))));
        assert!(windows.contains(&CrashWindow::Quiescent));
    }

    #[test]
    fn crash_churn_scenario_passes_the_checker() {
        // The full campaign: KN fail-stop + re-admission and whole-DPM
        // power failures (aimed at compaction, hand-off and cell-swing
        // windows via failpoints) interleave with three clients' CRUD
        // batches and replication churn. Acked writes must survive every
        // crash — the per-key checker rejects any history where a
        // recovered read misses one — and every recovery ends with the
        // quiescent index invariant walk inside `crash_dpm_and_recover`.
        let mut config = CheckConfig::from_seed(CheckConfig::env_seed().unwrap_or(41));
        config.total_ops = 2_000;
        config.crashes = true;
        config.compactor = true;
        let report = run_and_check(&config).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            report.run.dpm_crashes > 0,
            "scenario must exercise DPM crashes: churn log {:?}",
            report.run.churn_log
        );
        assert!(
            report.run.kn_crashes > 0,
            "scenario must exercise KN crashes: churn log {:?}",
            report.run.churn_log
        );
    }

    #[test]
    fn quiet_scenario_records_and_passes() {
        // No churn, tiny budget: a fast end-to-end sanity pass of
        // recorder + driver + checker.
        let mut config = CheckConfig::from_seed(CheckConfig::env_seed().unwrap_or(5));
        config.total_ops = 300;
        config.membership_churn = false;
        config.replication_churn = false;
        config.churn_steps = 0;
        let report = run_and_check(&config).unwrap_or_else(|f| panic!("{f}"));
        assert!(report.run.history.len() >= 300 + config.keys as usize);
        assert!(report.stats.keys as u64 >= config.keys);
    }
}
