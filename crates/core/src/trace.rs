//! Concurrent history recording for linearizability checking.
//!
//! A [`HistoryRecorder`] collects one [`OpRecord`] per completed client
//! operation — key, action, outcome, and an *invocation*/*response*
//! timestamp pair drawn from a global monotonic counter — so an external
//! checker (the `dinomo-check` crate) can verify the per-key
//! linearizability guarantee of §3.2 on real concurrent executions,
//! including batched `execute` calls (decomposed per op) and operations
//! that raced reconfigurations and their routing retries.
//!
//! ## Design
//!
//! * **Logical clock.** Timestamps come from one `AtomicU64` incremented
//!   with `SeqCst`, so stamp order is consistent with real time: if
//!   operation A's response stamp was drawn before operation B's
//!   invocation stamp, then A really returned before B was invoked. That
//!   is exactly the real-time order a linearizability checker needs; wall
//!   clocks (non-monotonic, coarse) are not involved.
//! * **Per-thread logs.** Each [`RecorderHandle`] owns a private log that
//!   only its client appends to; the handle's appends never contend with
//!   other threads (the log's mutex exists solely so the final
//!   [`HistoryRecorder::drain`] can collect it). Clients are per-thread by
//!   convention, so this is the classic per-thread-log / merge-at-drain
//!   scheme.
//! * **Zero cost when off.** `KvsClient` holds an `Option<RecorderHandle>`
//!   that defaults to `None`; the request paths test the option and do
//!   nothing else, so un-instrumented clusters pay one branch per call
//!   and no allocation.
//!
//! ```
//! use dinomo_core::trace::{Action, HistoryRecorder};
//! use dinomo_core::{Kvs, Op};
//!
//! let kvs = Kvs::builder().small_for_tests().build().unwrap();
//! let recorder = HistoryRecorder::new();
//! let client = kvs.client().with_recorder(recorder.handle(0));
//! client.execute(vec![Op::insert("k", "v"), Op::lookup("k")]);
//! let history = recorder.drain();
//! assert_eq!(history.len(), 2);
//! assert!(matches!(history[0].action, Action::Write(_)));
//! assert!(history.iter().all(|r| r.invoked_at < r.returned_at));
//! ```

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an operation did to its key, in the single-register model the
/// checker verifies: writes (insert and update are both upserts) set the
/// register, deletes clear it, reads observe it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// `insert`/`update`: set the register to the given value.
    Write(Vec<u8>),
    /// `delete`: clear the register.
    Delete,
    /// `lookup`: observed the given value (`None` = key absent).
    Read(Option<Vec<u8>>),
}

/// One completed client operation, as recorded for the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The recording client's identifier (passed to
    /// [`HistoryRecorder::handle`]; diagnostic only — the checker treats
    /// every record the same).
    pub client: u64,
    /// The key the operation targeted.
    pub key: Vec<u8>,
    /// What the operation did (and, for reads, what it observed).
    pub action: Action,
    /// `true` if the operation completed without error. Failed writes may
    /// or may not have taken effect (e.g. a flush error after the write
    /// was buffered) — the checker treats them as optional; failed reads
    /// carry no information and are dropped.
    pub ok: bool,
    /// Logical-clock stamp drawn before the operation was submitted.
    pub invoked_at: u64,
    /// Logical-clock stamp drawn after the operation's reply was known.
    pub returned_at: u64,
}

/// A per-thread append-only log. Only its owning [`RecorderHandle`]
/// appends; the mutex is effectively uncontended until `drain`.
#[derive(Debug, Default)]
struct ThreadLog {
    records: Mutex<Vec<OpRecord>>,
}

/// The shared recorder: a global monotonic counter plus the registry of
/// per-thread logs. Create one per experiment, hand a
/// [`RecorderHandle`] to each client via [`crate::KvsClient::with_recorder`],
/// and [`HistoryRecorder::drain`] the merged history when the clients are
/// done.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    clock: AtomicU64,
    logs: Mutex<Vec<Arc<ThreadLog>>>,
}

impl HistoryRecorder {
    /// A fresh recorder with an empty history.
    pub fn new() -> Arc<Self> {
        Arc::new(HistoryRecorder::default())
    }

    /// Draw the next logical-clock stamp. `SeqCst` so the stamp total
    /// order is consistent with real-time order across threads.
    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Register a new per-thread log and return the handle that appends to
    /// it. `client` tags the handle's records for diagnostics.
    pub fn handle(self: &Arc<Self>, client: u64) -> RecorderHandle {
        let log = Arc::new(ThreadLog::default());
        self.logs.lock().push(Arc::clone(&log));
        RecorderHandle {
            recorder: Arc::clone(self),
            log,
            client,
        }
    }

    /// Total records across all logs (takes each log's lock briefly).
    pub fn len(&self) -> usize {
        self.logs
            .lock()
            .iter()
            .map(|l| l.records.lock().len())
            .sum()
    }

    /// `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge every per-thread log into one history, sorted by invocation
    /// stamp, and clear the logs. Call after the recording clients have
    /// finished their operations (records of in-flight operations are not
    /// yet in any log — they are appended at response time).
    pub fn drain(&self) -> Vec<OpRecord> {
        let logs = self.logs.lock();
        let mut merged: Vec<OpRecord> = Vec::new();
        for log in logs.iter() {
            merged.append(&mut log.records.lock());
        }
        merged.sort_by_key(|r| r.invoked_at);
        merged
    }
}

/// A client's private append handle into a [`HistoryRecorder`]. Obtained
/// from [`HistoryRecorder::handle`], installed with
/// [`crate::KvsClient::with_recorder`].
#[derive(Debug)]
pub struct RecorderHandle {
    recorder: Arc<HistoryRecorder>,
    log: Arc<ThreadLog>,
    client: u64,
}

impl RecorderHandle {
    /// Stamp an invocation: call before submitting the operation(s).
    pub fn invoke(&self) -> u64 {
        self.recorder.now()
    }

    /// Record one completed operation. The response stamp is drawn here,
    /// so call as soon as the outcome is known.
    pub fn record(&self, key: &[u8], action: Action, ok: bool, invoked_at: u64) {
        let returned_at = self.recorder.now();
        self.log.records.lock().push(OpRecord {
            client: self.client,
            key: key.to_vec(),
            action,
            ok,
            invoked_at,
            returned_at,
        });
    }

    /// The recorder this handle appends to.
    pub fn recorder(&self) -> &Arc<HistoryRecorder> {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_monotonic_and_unique_across_threads() {
        let recorder = HistoryRecorder::new();
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let handle = recorder.handle(c);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let inv = handle.invoke();
                        handle.record(b"k", Action::Write(i.to_be_bytes().to_vec()), true, inv);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let history = recorder.drain();
        assert_eq!(history.len(), 2_000);
        let mut stamps: Vec<u64> = history
            .iter()
            .flat_map(|r| [r.invoked_at, r.returned_at])
            .collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 4_000, "stamps must be unique");
        for r in &history {
            assert!(r.invoked_at < r.returned_at);
        }
        // Drain cleared the logs.
        assert!(recorder.is_empty());
        assert!(recorder.drain().is_empty());
    }

    #[test]
    fn drain_merges_per_thread_logs_in_invocation_order() {
        let recorder = HistoryRecorder::new();
        let a = recorder.handle(1);
        let b = recorder.handle(2);
        let inv_a = a.invoke();
        let inv_b = b.invoke();
        b.record(b"x", Action::Delete, true, inv_b);
        a.record(b"y", Action::Read(None), false, inv_a);
        let history = recorder.drain();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].client, 1, "sorted by invocation stamp");
        assert_eq!(history[1].client, 2);
        assert!(history[0].action == Action::Read(None) && !history[0].ok);
    }
}
