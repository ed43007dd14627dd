//! # dinomo-obs — unified observability for the Dinomo reproduction
//!
//! Always-compiled, low-overhead telemetry in three parts:
//!
//! 1. **Metrics registry** ([`Registry`]) — named counters, gauges, and
//!    [`LogHistogram`]-backed latency histograms. Handles are resolved
//!    once at construction; the record path is an uncontended atomic add
//!    on a per-thread shard, merged lazily at [`Registry::snapshot`].
//! 2. **Stage tracing** ([`Stage`], [`OpSpan`]) — request-lifecycle
//!    stages (client dispatch → queue wait → shard execute → DPM lookup
//!    / flush-wait / merge-wait → reply) each record into
//!    `stage_<name>_ns`, so a latency decomposes into where it went.
//! 3. **Lock-wait profiling** ([`LockId`]) — every named lock in
//!    `docs/CONCURRENCY.md` records its acquisition wait into
//!    `lock_wait_<name>_ns`.
//!
//! Snapshots export as JSON ([`Snapshot::to_json`]).
//!
//! ## The `obs_off` baseline
//!
//! A process-global flag ([`set_enabled`]) gates every *clock read*:
//! with observability off, timed sections run the closure and skip
//! `Instant::now()` entirely, which is the baseline the overhead gate
//! (`obs_overhead` bench, ≤ 3 %) compares against. Counters still
//! count — they are one relaxed add and the pre-registry stats structs
//! always paid it. The flag defaults to **on**.

#![forbid(unsafe_code)]

pub mod hist;
pub mod lock;
pub mod registry;
pub mod stage;

pub use hist::LogHistogram;
pub use lock::LockId;
pub use registry::{Counter, Gauge, Histogram, HistogramSummary, Registry, Snapshot};
pub use stage::{record_since, stage_clock, OpSpan, Stage};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-global switch over the timed paths (histogram `time`,
/// `stage_clock`). Defaults to on.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable timing instrumentation process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether timing instrumentation is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tests that flip the global flag hold this so they don't race each
/// other (the test harness runs them concurrently).
#[cfg(test)]
pub(crate) fn enabled_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}
