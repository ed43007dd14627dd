//! Lock-wait profiling for the named locks in `docs/CONCURRENCY.md`.
//!
//! Each surviving global lock records its acquisition wait time into a
//! `lock_wait_<name>_ns` histogram, so a breakdown can say which lock a
//! thread count actually queues on. The instrumented sites wrap their
//! `lock()` calls with [`crate::Histogram::time`] via handles resolved at
//! construction; this module only owns the naming.

/// The named locks from the `docs/CONCURRENCY.md` inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockId {
    /// Ordered index single-writer CoW root lock (`ordered.rs`). Nothing
    /// records it any more; kept only for `e2e`, deleted with its probe
    /// (ROADMAP item 1).
    OrderedRoot,
    /// Cluster reconfiguration lock (`KvsInner::reconfig_lock`).
    Reconfig,
    /// DPM segment-table write lock (`DpmInner::segments`).
    SegmentTable,
}

impl LockId {
    pub const ALL: [LockId; 3] = [LockId::OrderedRoot, LockId::Reconfig, LockId::SegmentTable];

    /// Registry metric name (`lock_wait_<name>_ns`).
    pub fn metric_name(self) -> &'static str {
        match self {
            LockId::OrderedRoot => "lock_wait_ordered_root_ns",
            LockId::Reconfig => "lock_wait_reconfig_ns",
            LockId::SegmentTable => "lock_wait_segment_table_ns",
        }
    }

    /// Human label for breakdown tables.
    pub fn label(self) -> &'static str {
        match self {
            LockId::OrderedRoot => "ordered-index CoW root",
            LockId::Reconfig => "reconfig lock",
            LockId::SegmentTable => "segment-table write lock",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn lock_names_are_unique_and_prefixed() {
        let names: Vec<_> = LockId::ALL.iter().map(|l| l.metric_name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n.starts_with("lock_wait_") && n.ends_with("_ns"));
        }
    }

    /// Provoke a known contended acquisition and assert the wait
    /// histogram saw it: one thread's timed `lock()` blocks behind a
    /// holder that keeps the lock for 20 ms *after* the waiter's clock
    /// started (the waiter says so from inside its timed section), so the
    /// recorded wait does not depend on how fast the thread started.
    #[test]
    fn contended_acquisition_records_nonzero_wait() {
        let _serial = crate::enabled_test_lock();
        crate::set_enabled(true);
        let reg = Registry::new_shared();
        let wait = reg.lock_wait(LockId::SegmentTable);
        let lock = Arc::new(Mutex::new(()));
        let (about_to_lock, waiter_timing) = std::sync::mpsc::channel();

        let guard = lock.lock();
        let waiter = {
            let lock = lock.clone();
            let wait = wait.clone();
            thread::spawn(move || {
                wait.time(|| {
                    about_to_lock.send(()).unwrap();
                    let _g = lock.lock();
                })
            })
        };
        waiter_timing.recv().unwrap();
        thread::sleep(Duration::from_millis(20));
        drop(guard);
        waiter.join().unwrap();

        let snap = reg.snapshot();
        let h = snap.histogram(LockId::SegmentTable.metric_name()).unwrap();
        assert_eq!(h.count, 1);
        assert!(
            h.max_ns >= 1_000_000,
            "expected >= 1 ms recorded wait, got {} ns",
            h.max_ns
        );
    }
}
