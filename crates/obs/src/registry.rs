//! Sharded-atomic metrics registry.
//!
//! One `Registry` per `Kvs` instance holds every named metric. Handles
//! (`Counter`, `Gauge`, `Histogram`) are cheap clones of `Arc`s — the
//! intended pattern is to resolve a handle **once** at construction time
//! and record through it on the hot path. Recording is an uncontended
//! relaxed atomic add (counters/gauges) or an uncontended mutex over a
//! thread-sharded `LogHistogram`; cross-thread merging happens lazily at
//! [`Registry::snapshot`] time, never on the record path.
//!
//! Naming scheme (see `docs/OBSERVABILITY.md`):
//! `<subsystem>_<what>[_<unit>]`, e.g. `kn_busy_rejections`,
//! `stage_queue_wait_ns`, `lock_wait_ordered_root_ns`.

use crate::hist::LogHistogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of per-thread shards behind each counter and histogram.
/// Threads map onto shards by a monotone thread index modulo this, so
/// two threads only contend when the process has run more live threads
/// than shards — and even then the cost is a shared cache line, never a
/// lost update.
const SHARDS: usize = 8;

static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

fn shard_index() -> usize {
    THREAD_INDEX.with(|i| *i) % SHARDS
}

/// One cache line per shard so neighbouring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotone event counter. `add` is a relaxed fetch-add on the calling
/// thread's shard; `value` sums the shards (each shard is monotone, so
/// concurrent snapshots are monotone too).
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    /// A counter not attached to any registry — for default-constructed
    /// components that may later be handed a registry-backed handle.
    pub fn detached() -> Self {
        Counter {
            shards: Arc::new(Default::default()),
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// Point-in-time value (queue depths, live segment counts). Unsharded:
/// gauges are set, not hammered.
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    pub fn detached() -> Self {
        Gauge {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// Latency histogram sharded over per-thread `LogHistogram`s. The record
/// path takes the calling thread's shard lock — uncontended in steady
/// state, so one CAS pair — and snapshots merge the shards.
#[derive(Clone)]
pub struct Histogram {
    shards: Arc<[Mutex<LogHistogram>; SHARDS]>,
}

impl Histogram {
    pub fn detached() -> Self {
        Histogram {
            shards: Arc::new(std::array::from_fn(|_| Mutex::new(LogHistogram::new()))),
        }
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.shards[shard_index()].lock().record(value);
    }

    /// Time `f` and record the elapsed nanoseconds — unless observability
    /// is globally disabled, in which case the clock reads are skipped
    /// entirely (this is the `obs_off` overhead baseline).
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if !crate::enabled() {
            return f();
        }
        let start = std::time::Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Merge all shards into one histogram.
    pub fn merged(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for shard in self.shards.iter() {
            out.merge(&shard.lock());
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.merged().count())
            .finish()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

type ExternalFn = Arc<dyn Fn() -> u64 + Send + Sync>;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    /// Counters owned elsewhere (e.g. the process-global epoch
    /// reclamation stats) polled at snapshot time.
    externals: BTreeMap<String, ExternalFn>,
}

/// The per-instance metric namespace. Registration is idempotent: two
/// `counter("x")` calls return handles over the same shards.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    pub fn new_shared() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    /// Get or register the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(Counter::detached)
            .clone()
    }

    /// Get or register the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(Gauge::detached)
            .clone()
    }

    /// Get or register the named histogram (values in nanoseconds by
    /// convention; put the unit in the name).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::detached)
            .clone()
    }

    /// Histogram for a request-lifecycle stage.
    pub fn stage(&self, stage: crate::Stage) -> Histogram {
        self.histogram(stage.metric_name())
    }

    /// Wait-time histogram for a named lock.
    pub fn lock_wait(&self, lock: crate::LockId) -> Histogram {
        self.histogram(lock.metric_name())
    }

    /// Bridge a counter owned outside the registry (polled on snapshot,
    /// reported alongside native counters). The closure must be monotone
    /// for deltas over it to make sense.
    pub fn register_external(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.inner
            .lock()
            .externals
            .insert(name.to_string(), Arc::new(f));
    }

    /// Merge every metric into a point-in-time [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        // Clone the handles out so shard merging happens outside the
        // registry lock.
        let (counters, gauges, histograms, externals) = {
            let inner = self.inner.lock();
            (
                inner.counters.clone(),
                inner.gauges.clone(),
                inner.histograms.clone(),
                inner.externals.clone(),
            )
        };
        let mut snap = Snapshot::default();
        for (name, c) in &counters {
            snap.counters.push((name.clone(), c.value()));
        }
        for (name, f) in &externals {
            snap.counters.push((name.clone(), f()));
        }
        snap.counters.sort();
        for (name, g) in &gauges {
            snap.gauges.push((name.clone(), g.value()));
        }
        for (name, h) in &histograms {
            snap.histograms
                .push((name.clone(), HistogramSummary::of(&h.merged())));
        }
        snap
    }
}

/// Quantile summary of one merged histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

impl HistogramSummary {
    pub fn of(h: &LogHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.value_at_quantile(0.50),
            p90_ns: h.value_at_quantile(0.90),
            p99_ns: h.value_at_quantile(0.99),
            p999_ns: h.value_at_quantile(0.999),
            max_ns: h.max(),
        }
    }
}

/// Point-in-time merge of a registry. Name lists are sorted; external
/// counters appear among `counters`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// JSON export: counters and gauges by name, histograms as their
    /// [`HistogramSummary`] fields.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"mean_ns\": {:.1}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                 \"max_ns\": {}}}",
                s.count, s.mean_ns, s.p50_ns, s.p90_ns, s.p99_ns, s.p999_ns, s.max_ns
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn counter_is_exact_across_threads() {
        let reg = Registry::new_shared();
        let c = reg.counter("hits");
        const THREADS: usize = 16;
        const PER_THREAD: u64 = 100_000;
        thread::scope(|s| {
            for _ in 0..THREADS {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), THREADS as u64 * PER_THREAD);
        assert_eq!(
            reg.snapshot().counter("hits"),
            Some(THREADS as u64 * PER_THREAD)
        );
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        let h1 = reg.histogram("h");
        let h2 = reg.histogram("h");
        h1.record(10);
        h2.record(20);
        assert_eq!(h1.merged().count(), 2);
    }

    #[test]
    fn snapshots_are_monotone_under_concurrent_writers() {
        let reg = Registry::new_shared();
        let c = reg.counter("events");
        let h = reg.histogram("lat_ns");
        let stop = Arc::new(AtomicBool::new(false));
        thread::scope(|s| {
            for t in 0..8 {
                let c = c.clone();
                let h = h.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        c.inc();
                        h.record(t * 1000 + i % 97);
                        i += 1;
                    }
                });
            }
            let mut last_count = 0u64;
            let mut last_hist = 0u64;
            for _ in 0..200 {
                let snap = reg.snapshot();
                let count = snap.counter("events").unwrap();
                let hist = snap.histogram("lat_ns").unwrap().count;
                assert!(count >= last_count, "counter went backwards");
                assert!(hist >= last_hist, "histogram count went backwards");
                last_count = count;
                last_hist = hist;
            }
            stop.store(true, Ordering::Relaxed);
        });
        // After all writers stop, the snapshot equals the handle sum —
        // shard merge loses nothing.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events"), Some(c.value()));
        assert_eq!(snap.histogram("lat_ns").unwrap().count, h.merged().count());
    }

    #[test]
    fn histogram_shard_merge_is_exact() {
        let reg = Registry::new_shared();
        let h = reg.histogram("h");
        thread::scope(|s| {
            for _ in 0..12 {
                let h = h.clone();
                s.spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v);
                    }
                });
            }
        });
        let merged = h.merged();
        assert_eq!(merged.count(), 12 * 10_000);
        assert_eq!(merged.min(), 0);
        // 9999 lands in a 1/64-wide bucket; the reported max is the
        // bucket's upper bound, never below the true max.
        assert!(merged.max() >= 9_999);
    }

    #[test]
    fn external_counters_fold_into_snapshots() {
        let reg = Registry::new();
        let source = Arc::new(AtomicU64::new(41));
        let s2 = source.clone();
        reg.register_external("ext_events", move || s2.load(Ordering::Relaxed));
        assert_eq!(reg.snapshot().counter("ext_events"), Some(41));
        // Polled at every snapshot, not captured at registration.
        source.store(62, Ordering::Relaxed);
        assert_eq!(reg.snapshot().counter("ext_events"), Some(62));
    }

    #[test]
    fn exports_mention_every_metric() {
        let reg = Registry::new();
        reg.counter("ops").add(7);
        reg.gauge("depth").set(3);
        reg.histogram("lat_ns").record(1_000);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"ops\": 7"));
        assert!(json.contains("\"depth\": 3"));
        assert!(json.contains("\"lat_ns\""));
        assert!(json.contains("\"count\": 1"));
    }
}
