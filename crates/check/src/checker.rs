//! Per-key linearizability checking for the register model.
//!
//! ## Model
//!
//! Every key is an independent register: `Write(v)` (insert/update — both
//! upserts) sets it, `Delete` clears it, `Read` observes its current value
//! (`None` = absent, the initial state). Because keys never interact,
//! linearizability is *compositional per key* (P-compositionality): a
//! history is linearizable iff its per-key projections are, so the checker
//! partitions the history by key and checks each projection independently
//! — which is also what keeps checking tractable.
//!
//! ## Algorithm
//!
//! Each per-key projection is checked with a Wing–Gong style search in the
//! entry-list formulation (as in Lowe's and Porcupine's checkers): the
//! operations' invocation/response events are laid out in timestamp order,
//! and the search repeatedly picks, among the operations whose invocation
//! precedes the first pending response, one that the register's current
//! value permits, linearizes it (removing both its events), and recurses,
//! backtracking when it gets stuck. Two bounds keep this fast at nightly
//! scale:
//!
//! * **Memoization** — a visited set of `(linearized-operation-set,
//!   register-value)` configurations prunes re-exploration; with the
//!   driver's globally-unique write values the search is near-linear.
//! * **State budget** — a hard cap on explored configurations turns a
//!   pathological search into an explicit [`CheckError::StateLimit`]
//!   instead of an unbounded burn.
//!
//! ## Failed operations
//!
//! A *failed read* carries no information and is dropped. A *failed write
//! or delete* may or may not have taken effect (e.g. a durability error
//! after the value was buffered, or a reply lost to a crashed node), so it
//! is treated as **optional**: the search may linearize it at any point
//! after its invocation, or never. As a sound optimization, failed
//! mutations whose effect no successful read could have observed (a write
//! whose value is never read; a delete when no read of the key returned
//! `None`) are pruned outright — removing them from any witness leaves the
//! witness valid.

use dinomo_core::trace::{Action, OpRecord};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Tuning knobs for the checker.
#[derive(Debug, Clone, Copy)]
pub struct CheckerConfig {
    /// Maximum search configurations explored per key before the check
    /// aborts with [`CheckError::StateLimit`].
    pub max_states_per_key: u64,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            max_states_per_key: 2_000_000,
        }
    }
}

/// Summary of a successful check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Operations checked (after dropping failed reads and unobservable
    /// failed mutations).
    pub ops: usize,
    /// Distinct keys in the history.
    pub keys: usize,
    /// Search configurations explored across all keys.
    pub states_explored: u64,
    /// Size of the largest per-key projection.
    pub max_key_ops: usize,
}

/// A linearizability violation: no witness order exists for this key's
/// projection.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The offending key.
    pub key: Vec<u8>,
    /// Human-readable diagnosis of where the search got stuck.
    pub reason: String,
    /// The key's full projection (timestamp-sorted), for artifacts/replay.
    pub records: Vec<OpRecord>,
}

/// Why a check did not pass.
#[derive(Debug, Clone)]
pub enum CheckError {
    /// The history is not linearizable.
    Violation(Violation),
    /// The search exceeded its per-key state budget (inconclusive — raise
    /// [`CheckerConfig::max_states_per_key`] or reduce the op budget).
    StateLimit {
        /// The key whose search blew the budget.
        key: Vec<u8>,
        /// Configurations explored when the budget tripped.
        states: u64,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Violation(v) => write!(
                f,
                "linearizability violation on key {:?} ({} ops): {}",
                String::from_utf8_lossy(&v.key),
                v.records.len(),
                v.reason
            ),
            CheckError::StateLimit { key, states } => write!(
                f,
                "state budget exhausted on key {:?} after {states} configurations \
                 (inconclusive)",
                String::from_utf8_lossy(key)
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// Check a recorded history against the per-key register model with the
/// default [`CheckerConfig`]. See [`check_history_with`].
pub fn check_history(history: &[OpRecord]) -> Result<CheckStats, CheckError> {
    check_history_with(history, &CheckerConfig::default())
}

/// Check a recorded history against the per-key register model.
///
/// Returns the aggregate [`CheckStats`] if every key's projection is
/// linearizable, the first [`CheckError::Violation`] otherwise.
pub fn check_history_with(
    history: &[OpRecord],
    config: &CheckerConfig,
) -> Result<CheckStats, CheckError> {
    let mut by_key: HashMap<&[u8], Vec<&OpRecord>> = HashMap::new();
    for record in history {
        by_key.entry(&record.key).or_default().push(record);
    }
    let mut stats = CheckStats {
        keys: by_key.len(),
        ..CheckStats::default()
    };
    // Deterministic key order, so a multi-violation history always reports
    // the same first violation.
    let mut keys: Vec<&[u8]> = by_key.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let records = &by_key[key];
        let key_stats = check_key(key, records, config)?;
        stats.ops += key_stats.ops;
        stats.states_explored += key_stats.states_explored;
        stats.max_key_ops = stats.max_key_ops.max(key_stats.ops);
    }
    Ok(stats)
}

/// The register-model operation kinds, with values interned to small ids:
/// state `0` is "absent", ids `>= 1` are distinct written/observed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write(u32),
    Delete,
    Read(u32),
}

/// One operation of a per-key projection, prepared for the search.
#[derive(Debug, Clone, Copy)]
struct KeyOp {
    kind: Kind,
    /// `true` if the op failed: it may linearize any time after its
    /// invocation, or never.
    optional: bool,
    inv: u64,
    ret: u64,
}

/// Apply `kind` to the register; `None` means the register's current value
/// forbids linearizing the op here.
fn apply(kind: Kind, state: u32) -> Option<u32> {
    match kind {
        Kind::Write(v) => Some(v),
        Kind::Delete => Some(0),
        Kind::Read(expected) => (state == expected).then_some(state),
    }
}

fn describe(kind: Kind, values: &[String]) -> String {
    let value = |v: u32| -> &str {
        values
            .get(v as usize - 1)
            .map(String::as_str)
            .unwrap_or("?")
    };
    match kind {
        Kind::Write(v) => format!("write {:?}", value(v)),
        Kind::Delete => "delete".to_string(),
        Kind::Read(0) => "read -> absent".to_string(),
        Kind::Read(v) => format!("read -> {:?}", value(v)),
    }
}

/// Outcome of one bounded Wing–Gong search over a prepared projection.
enum SearchOutcome {
    /// A witness order exists; carries the configurations explored.
    Linearizable(u64),
    /// The search exhausted every choice: no witness. Carries the
    /// register value and frontier descriptions at the final dead end.
    Stuck { state: u32, frontier: Vec<Kind> },
    /// The state budget tripped first (inconclusive).
    Limit(u64),
}

/// Intern a value's bytes to a small id (`>= 1`; the register state `0`
/// is reserved for "absent").
fn intern<'a>(bytes: &'a [u8], ids: &mut HashMap<&'a [u8], u32>) -> u32 {
    let fresh = ids.len() as u32 + 1;
    *ids.entry(bytes).or_insert(fresh)
}

/// Check one key's projection. `records` need not be sorted.
fn check_key<'a>(
    key: &[u8],
    records: &[&'a OpRecord],
    config: &CheckerConfig,
) -> Result<CheckStats, CheckError> {
    // ---- prepare: intern values, classify, prune uninformative failures.
    let mut value_ids: HashMap<&'a [u8], u32> = HashMap::new();
    let mut read_values: HashSet<u32> = HashSet::new();
    let mut saw_absent_read = false;
    let mut prepared: Vec<KeyOp> = Vec::with_capacity(records.len());
    for r in records.iter() {
        let kind = match &r.action {
            Action::Write(v) => Kind::Write(intern(v, &mut value_ids)),
            Action::Delete => Kind::Delete,
            Action::Read(Some(v)) => Kind::Read(intern(v, &mut value_ids)),
            Action::Read(None) => Kind::Read(0),
        };
        if r.ok {
            match kind {
                Kind::Read(0) => saw_absent_read = true,
                Kind::Read(v) => {
                    read_values.insert(v);
                }
                _ => {}
            }
        }
        prepared.push(KeyOp {
            kind,
            optional: !r.ok,
            inv: r.invoked_at,
            ret: r.returned_at,
        });
    }
    // Prune: failed reads always; failed mutations nothing could observe.
    prepared.retain(|op| {
        if !op.optional {
            return true;
        }
        match op.kind {
            Kind::Read(_) => false,
            Kind::Write(v) => read_values.contains(&v),
            Kind::Delete => saw_absent_read,
        }
    });
    let n = prepared.len();
    let stats = CheckStats {
        ops: n,
        keys: 1,
        ..CheckStats::default()
    };
    if n == 0 {
        return Ok(stats);
    }
    if n > u64::BITS as usize * 1024 {
        // Bitsets beyond 64k ops per key are a sign the scenario should be
        // sharded, not that the checker should grind.
        return Err(CheckError::StateLimit {
            key: key.to_vec(),
            states: 0,
        });
    }

    // Lossy value strings for diagnostics, indexed by interned id - 1.
    let mut values = vec![String::new(); value_ids.len()];
    for (bytes, id) in &value_ids {
        values[*id as usize - 1] = String::from_utf8_lossy(bytes).into_owned();
    }

    match search(&prepared, config.max_states_per_key) {
        SearchOutcome::Linearizable(explored) => Ok(CheckStats {
            states_explored: explored,
            ..stats
        }),
        SearchOutcome::Limit(states) => Err(CheckError::StateLimit {
            key: key.to_vec(),
            states,
        }),
        SearchOutcome::Stuck { state, frontier } => Err(CheckError::Violation(diagnose(
            key, records, &prepared, &values, state, &frontier, config,
        ))),
    }
}

/// Build the violation report: shrink the projection to a small failing
/// prefix (mandatory ops in response order, every optional mutation kept —
/// optional ops have unbounded windows, so excluding them could fabricate
/// violations) and name the last-completing op of that prefix, which is
/// the first operation the register history cannot explain.
fn diagnose(
    key: &[u8],
    records: &[&OpRecord],
    prepared: &[KeyOp],
    values: &[String],
    full_state: u32,
    full_frontier: &[Kind],
    config: &CheckerConfig,
) -> Violation {
    let mut mandatory: Vec<usize> = (0..prepared.len())
        .filter(|&i| !prepared[i].optional)
        .collect();
    mandatory.sort_by_key(|&i| prepared[i].ret);
    let optionals: Vec<usize> = (0..prepared.len())
        .filter(|&i| prepared[i].optional)
        .collect();
    let subset = |m: usize| -> Vec<KeyOp> {
        mandatory[..m]
            .iter()
            .chain(&optionals)
            .map(|&i| prepared[i])
            .collect()
    };
    // Binary search the smallest failing prefix (failure is monotone in
    // practice; if timing quirks make it not so, this still lands on *a*
    // failing prefix). Budget exhaustion counts as failing — the subsets
    // only shrink.
    let (mut lo, mut hi) = (1usize, mandatory.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match search(&subset(mid), config.max_states_per_key) {
            SearchOutcome::Linearizable(_) => lo = mid + 1,
            _ => hi = mid,
        }
    }
    let culprit = mandatory.get(lo.saturating_sub(1)).copied();
    let reason = match culprit {
        Some(op) => {
            let k = prepared[op];
            format!(
                "first inexplicable op: {} during [{}, {}] (prefix of {} ops; \
                 full-history dead end: register {} admits none of [{}])",
                describe(k.kind, values),
                k.inv,
                k.ret,
                lo,
                if full_state == 0 {
                    "absent".to_string()
                } else {
                    format!("{:?}", values[full_state as usize - 1])
                },
                full_frontier
                    .iter()
                    .map(|&k| describe(k, values))
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        }
        None => "empty projection cannot fail".to_string(),
    };
    let mut sorted: Vec<OpRecord> = records.iter().map(|r| (*r).clone()).collect();
    sorted.sort_by_key(|r| r.invoked_at);
    Violation {
        key: key.to_vec(),
        reason,
        records: sorted,
    }
}

/// One bounded Wing–Gong search over a prepared projection.
fn search(ops: &[KeyOp], max_states: u64) -> SearchOutcome {
    let mut prepared: Vec<KeyOp> = ops.to_vec();
    let n = prepared.len();
    if n == 0 {
        return SearchOutcome::Linearizable(0);
    }
    // Surviving optional ops linearize any time after invocation: push
    // their response to the end of (logical) time, keeping stamps unique.
    for (i, op) in prepared.iter_mut().enumerate() {
        if op.optional {
            op.ret = u64::MAX - i as u64;
        }
    }

    // ---- entry list: 2 events per op, timestamp-sorted, doubly linked.
    // Node ids: call(op) = 2*op, return(op) = 2*op + 1; head/tail sentinels.
    let mut order: Vec<usize> = (0..2 * n).collect();
    order.sort_by_key(|&e| {
        let op = e / 2;
        let t = if e % 2 == 0 {
            prepared[op].inv
        } else {
            prepared[op].ret
        };
        // Calls before returns on (theoretical) stamp ties; op index as the
        // final deterministic tiebreak.
        (t, e % 2, op)
    });
    let head = 2 * n;
    let tail = 2 * n + 1;
    let mut next = vec![0usize; 2 * n + 2];
    let mut prev = vec![0usize; 2 * n + 2];
    {
        let mut last = head;
        for &e in &order {
            next[last] = e;
            prev[e] = last;
            last = e;
        }
        next[last] = tail;
        prev[tail] = last;
    }
    let unlink = |next: &mut [usize], prev: &mut [usize], e: usize| {
        next[prev[e]] = next[e];
        prev[next[e]] = prev[e];
    };
    let relink = |next: &mut [usize], prev: &mut [usize], e: usize| {
        next[prev[e]] = e;
        prev[next[e]] = e;
    };

    // ---- the search.
    let words = n.div_ceil(64);
    let mut linearized = vec![0u64; words];
    let mut state = 0u32;
    let mut mandatory_left = prepared.iter().filter(|op| !op.optional).count();
    // Undo stack: (call entry, state before linearizing it).
    let mut undo: Vec<(usize, u32)> = Vec::new();
    let mut cache: HashSet<(Vec<u64>, u32)> = HashSet::new();
    let mut explored = 0u64;

    let mut entry = next[head];
    loop {
        if mandatory_left == 0 {
            // Everything that must have happened has linearized; the
            // remaining (optional) ops "never happened".
            return SearchOutcome::Linearizable(explored);
        }
        if entry == tail || entry % 2 == 1 {
            // Reached the end of the frontier — either the list's tail or
            // the first response event, past which no un-linearized op's
            // call may be deferred. Backtrack.
            let Some((call, prev_state)) = undo.pop() else {
                // Nothing to undo: the projection is not linearizable.
                // Report the ops stuck at the final frontier.
                let mut frontier = Vec::new();
                let mut e = next[head];
                while e != tail && e.is_multiple_of(2) && frontier.len() < 4 {
                    frontier.push(prepared[e / 2].kind);
                    e = next[e];
                }
                return SearchOutcome::Stuck { state, frontier };
            };
            let op = call / 2;
            relink(&mut next, &mut prev, call + 1);
            relink(&mut next, &mut prev, call);
            linearized[op / 64] &= !(1u64 << (op % 64));
            if !prepared[op].optional {
                mandatory_left += 1;
            }
            state = prev_state;
            // A read that matched the register is never the wrong choice (a
            // witness linearizing it later can linearize it here): trying its
            // siblings would walk every subset of a run of such reads.
            entry = match prepared[op].kind {
                Kind::Read(_) => tail,
                _ => next[call],
            };
            continue;
        }

        // A call entry inside the frontier: try to linearize its op here.
        let op = entry / 2;
        if let Some(new_state) = apply(prepared[op].kind, state) {
            linearized[op / 64] |= 1u64 << (op % 64);
            explored += 1;
            if explored > max_states {
                return SearchOutcome::Limit(explored);
            }
            if cache.insert((linearized.clone(), new_state)) {
                // New configuration: commit the choice.
                undo.push((entry, state));
                state = new_state;
                if !prepared[op].optional {
                    mandatory_left -= 1;
                }
                unlink(&mut next, &mut prev, entry);
                unlink(&mut next, &mut prev, entry + 1);
                entry = next[head];
                continue;
            }
            // Seen before: this choice leads to an explored subtree.
            linearized[op / 64] &= !(1u64 << (op % 64));
        }
        entry = next[entry];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a record with explicit stamps.
    fn rec(key: &[u8], action: Action, ok: bool, inv: u64, ret: u64) -> OpRecord {
        OpRecord {
            client: 0,
            key: key.to_vec(),
            action,
            ok,
            invoked_at: inv,
            returned_at: ret,
        }
    }

    fn write(key: &[u8], v: &[u8], inv: u64, ret: u64) -> OpRecord {
        rec(key, Action::Write(v.to_vec()), true, inv, ret)
    }

    fn read(key: &[u8], v: Option<&[u8]>, inv: u64, ret: u64) -> OpRecord {
        rec(key, Action::Read(v.map(|v| v.to_vec())), true, inv, ret)
    }

    #[test]
    fn empty_and_trivial_histories_pass() {
        assert!(check_history(&[]).is_ok());
        let h = vec![
            write(b"k", b"a", 0, 1),
            read(b"k", Some(b"a"), 2, 3),
            rec(b"k", Action::Delete, true, 4, 5),
            read(b"k", None, 6, 7),
        ];
        let stats = check_history(&h).unwrap();
        assert_eq!(stats.ops, 4);
        assert_eq!(stats.keys, 1);
    }

    #[test]
    fn concurrent_writes_allow_either_read_order() {
        // Two concurrent writes; a later read may see either, but two
        // sequential reads must not see them in contradictory orders.
        let ok = vec![
            write(b"k", b"a", 0, 10),
            write(b"k", b"b", 1, 9),
            read(b"k", Some(b"a"), 11, 12),
            read(b"k", Some(b"a"), 13, 14),
        ];
        assert!(check_history(&ok).is_ok());
        let flip = vec![
            write(b"k", b"a", 0, 10),
            write(b"k", b"b", 1, 9),
            read(b"k", Some(b"b"), 11, 12),
        ];
        assert!(check_history(&flip).is_ok());
    }

    #[test]
    fn stale_read_is_rejected() {
        // w(a) returns before w(b) is invoked; a read after w(b) returned
        // must not see a.
        let h = vec![
            write(b"k", b"a", 0, 1),
            write(b"k", b"b", 2, 3),
            read(b"k", Some(b"a"), 4, 5),
        ];
        let err = check_history(&h).unwrap_err();
        assert!(matches!(err, CheckError::Violation(_)), "{err}");
    }

    #[test]
    fn non_monotonic_reads_are_rejected() {
        // Same-thread reads going backwards: b then a after both writes
        // completed in order a, b.
        let h = vec![
            write(b"k", b"a", 0, 1),
            write(b"k", b"b", 2, 3),
            read(b"k", Some(b"b"), 4, 5),
            read(b"k", Some(b"a"), 6, 7),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn lost_update_is_rejected() {
        // An acknowledged write that no later read ever observes, on a key
        // with no concurrency to excuse it.
        let h = vec![
            write(b"k", b"a", 0, 1),
            write(b"k", b"b", 2, 3),
            read(b"k", Some(b"a"), 4, 5),
            read(b"k", Some(b"a"), 6, 7),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn resurrection_after_delete_is_rejected() {
        let h = vec![
            write(b"k", b"a", 0, 1),
            rec(b"k", Action::Delete, true, 2, 3),
            read(b"k", Some(b"a"), 4, 5),
        ];
        let err = check_history(&h).unwrap_err();
        assert!(err.to_string().contains("violation"), "{err}");
    }

    #[test]
    fn read_of_never_written_value_is_rejected() {
        let h = vec![write(b"k", b"a", 0, 1), read(b"k", Some(b"zz"), 2, 3)];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn failed_write_may_explain_a_read_or_never_happen() {
        // The failed write's value is read: it must have taken effect.
        let h = vec![
            rec(b"k", Action::Write(b"x".to_vec()), false, 0, 1),
            read(b"k", Some(b"x"), 2, 3),
        ];
        assert!(check_history(&h).is_ok());
        // The failed write is never observed: fine too (never happened)...
        let h = vec![
            write(b"k", b"a", 0, 1),
            rec(b"k", Action::Write(b"x".to_vec()), false, 2, 3),
            read(b"k", Some(b"a"), 4, 5),
        ];
        assert!(check_history(&h).is_ok());
        // ...even *after* its response, since a failed write has no
        // response-time bound.
        let h = vec![
            rec(b"k", Action::Write(b"x".to_vec()), false, 0, 1),
            write(b"k", b"a", 2, 3),
            read(b"k", Some(b"a"), 4, 5),
            read(b"k", Some(b"x"), 6, 7),
        ];
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn failed_reads_carry_no_information() {
        let h = vec![
            write(b"k", b"a", 0, 1),
            rec(b"k", Action::Read(None), false, 2, 3),
            read(b"k", Some(b"a"), 4, 5),
        ];
        let stats = check_history(&h).unwrap();
        assert_eq!(stats.ops, 2, "failed read must be dropped");
    }

    #[test]
    fn keys_are_checked_independently() {
        // Per-key projections both linearize even though a cross-key
        // "global register" reading would not.
        let h = vec![
            write(b"a", b"1", 0, 1),
            write(b"b", b"2", 2, 3),
            read(b"a", Some(b"1"), 4, 5),
            read(b"b", Some(b"2"), 6, 7),
        ];
        let stats = check_history(&h).unwrap();
        assert_eq!(stats.keys, 2);
        assert_eq!(stats.max_key_ops, 2);
    }

    #[test]
    fn state_budget_is_enforced() {
        // Heavily concurrent identical windows force a combinatorial
        // search; a tiny budget must trip StateLimit, not hang.
        let mut h = Vec::new();
        for i in 0..24u64 {
            h.push(write(b"k", format!("v{i}").as_bytes(), 0, 1000 + i));
        }
        // A read that matches nothing forces exhaustive backtracking.
        h.push(read(b"k", Some(b"never"), 2000, 2001));
        let tiny = CheckerConfig {
            max_states_per_key: 50,
        };
        match check_history_with(&h, &tiny) {
            Err(CheckError::StateLimit { states, .. }) => assert!(states > 50),
            other => panic!("expected StateLimit, got {other:?}"),
        }
    }

    /// A stale read invoked after a write returns after 40 reads of the new
    /// value: the search backtracks over them once, not over 2^40 subsets.
    #[test]
    fn a_slow_stale_read_costs_linear_states() {
        let mut h = vec![write(b"k", b"a", 0, 1), write(b"k", b"b", 2, 300)];
        h.extend((0..40).map(|i| read(b"k", Some(b"b"), 3 + i, 100 + i)));
        h.push(read(b"k", Some(b"a"), 50, 200));
        let stats = check_history(&h).unwrap();
        assert!(stats.states_explored < 200, "{stats:?}");
    }

    #[test]
    fn batch_shaped_stamps_with_shared_invocations_check_fine() {
        // Ops of one batch share an invocation stamp (the client stamps
        // once per execute); the checker must cope with tied stamps.
        let h = vec![
            write(b"k", b"a", 0, 5),
            read(b"k", Some(b"a"), 0, 6),
            rec(b"k", Action::Delete, true, 0, 7),
            read(b"k", None, 10, 11),
        ];
        assert!(check_history(&h).is_ok());
    }
}
