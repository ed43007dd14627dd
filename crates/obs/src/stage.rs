//! Request-lifecycle stage tracing.
//!
//! A read or write travels: client dispatch → executor queue wait →
//! shard execute → DPM lookup (reads) or flush-wait / merge-wait
//! (writes) → reply harvest. Each stage records its duration into a
//! per-stage histogram named `stage_<name>_ns`, so an end-to-end latency
//! number decomposes into *where the time went*. Stages are recorded at
//! their natural site in the pipeline (the executor records queue wait,
//! the DPM records lookup time); [`OpSpan`] is the sequential
//! convenience used where one thread walks several stages in order.

use crate::registry::{Histogram, Registry};
use std::time::Instant;

/// Pipeline stages, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Client-side batch grouping, routing, and submission.
    ClientDispatch,
    /// Sub-batch sat in an executor's bounded queue.
    QueueWait,
    /// Executor ran the sub-batch against its shard.
    ShardExecute,
    /// DPM index probe + value read (read path).
    DpmLookup,
    /// Writer stalled for merge slack before appending (write path).
    FlushWait,
    /// Caller waited for the merge engine to drain a version.
    MergeWait,
    /// Client-side reply harvest after the round's reply channel disconnected.
    Reply,
}

impl Stage {
    pub const ALL: [Stage; 7] = [
        Stage::ClientDispatch,
        Stage::QueueWait,
        Stage::ShardExecute,
        Stage::DpmLookup,
        Stage::FlushWait,
        Stage::MergeWait,
        Stage::Reply,
    ];

    /// Registry metric name (`stage_<name>_ns`).
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::ClientDispatch => "stage_client_dispatch_ns",
            Stage::QueueWait => "stage_queue_wait_ns",
            Stage::ShardExecute => "stage_shard_execute_ns",
            Stage::DpmLookup => "stage_dpm_lookup_ns",
            Stage::FlushWait => "stage_flush_wait_ns",
            Stage::MergeWait => "stage_merge_wait_ns",
            Stage::Reply => "stage_reply_ns",
        }
    }

    /// Human label for breakdown tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::ClientDispatch => "client dispatch",
            Stage::QueueWait => "queue wait",
            Stage::ShardExecute => "shard execute",
            Stage::DpmLookup => "dpm lookup",
            Stage::FlushWait => "flush wait",
            Stage::MergeWait => "merge wait",
            Stage::Reply => "reply",
        }
    }
}

/// Sequential span over consecutive stages of one operation: each
/// [`OpSpan::mark`] records the time since the previous mark into that
/// stage's histogram, so the marked stages tile the span end to end.
pub struct OpSpan<'a> {
    registry: &'a Registry,
    started: Instant,
    last: Instant,
    recorded_ns: u64,
}

impl<'a> OpSpan<'a> {
    pub fn start(registry: &'a Registry) -> Self {
        let now = Instant::now();
        OpSpan {
            registry,
            started: now,
            last: now,
            recorded_ns: 0,
        }
    }

    /// Close the current stage: record time since the previous mark (or
    /// span start) into `stage`, returning the stage's nanoseconds.
    pub fn mark(&mut self, stage: Stage) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.recorded_ns += ns;
        self.registry.stage(stage).record(ns);
        ns
    }

    /// Nanoseconds attributed to stages so far.
    pub fn recorded_ns(&self) -> u64 {
        self.recorded_ns
    }

    /// Wall-clock nanoseconds since the span started.
    pub fn total_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// Helper for the executor-queue pattern where the enqueue and dequeue
/// happen on different threads: capture an `Instant` at enqueue (only
/// when observability is enabled, to keep the `obs_off` baseline free of
/// clock reads) and record the elapsed wait at dequeue.
#[inline]
pub fn stage_clock() -> Option<Instant> {
    if crate::enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record the elapsed time since a [`stage_clock`] capture, if one was
/// taken.
#[inline]
pub fn record_since(h: &Histogram, since: Option<Instant>) {
    if let Some(start) = since {
        h.record(start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stage_names_are_unique_and_prefixed() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.metric_name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n.starts_with("stage_") && n.ends_with("_ns"));
        }
    }

    #[test]
    fn marked_stages_sum_to_end_to_end() {
        let reg = Registry::new();
        let mut span = OpSpan::start(&reg);
        std::thread::sleep(Duration::from_millis(5));
        let a = span.mark(Stage::ClientDispatch);
        std::thread::sleep(Duration::from_millis(3));
        let b = span.mark(Stage::ShardExecute);
        std::thread::sleep(Duration::from_millis(2));
        let c = span.mark(Stage::Reply);
        let total = span.total_ns();

        // Each sleep bounds its stage from below.
        assert!(a >= 5_000_000, "dispatch stage {a} ns too short");
        assert!(b >= 3_000_000, "execute stage {b} ns too short");
        assert!(c >= 2_000_000, "reply stage {c} ns too short");
        // Consecutive marks tile the span: the stage sum can only trail
        // the wall clock by the time since the last mark.
        let recorded = span.recorded_ns();
        assert_eq!(recorded, a + b + c);
        assert!(recorded <= total);
        assert!(
            total - recorded < 5_000_000,
            "gap between stage sum and end-to-end too large: {} vs {}",
            recorded,
            total
        );

        // And every stage landed in its own histogram.
        let snap = reg.snapshot();
        for stage in [Stage::ClientDispatch, Stage::ShardExecute, Stage::Reply] {
            assert_eq!(snap.histogram(stage.metric_name()).unwrap().count, 1);
        }
    }

    #[test]
    fn stage_clock_is_none_when_disabled() {
        let _serial = crate::enabled_test_lock();
        crate::set_enabled(false);
        assert!(stage_clock().is_none());
        crate::set_enabled(true);
        assert!(stage_clock().is_some());
        let reg = Registry::new();
        let h = reg.histogram("w");
        record_since(&h, stage_clock());
        record_since(&h, None);
        assert_eq!(h.merged().count(), 1);
    }
}
