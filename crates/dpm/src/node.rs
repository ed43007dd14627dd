//! The DPM node: shared pool, metadata index, segment registry, merge engine,
//! garbage collection, indirect pointers, recovery and the metadata store.

use crate::config::{DpmConfig, UNMERGED_SEGMENT_THRESHOLD};
use crate::entry::decode_entry;
use crate::failpoint::FailpointSet;
use crate::gc::{compact_pass, CompactionReport, Compactor, GcSignal};
use crate::loc::PackedLoc;
use crate::merge::{apply_recovered_entry, MergeEngine, MergeTask};
use crate::segment::SegmentState;
use crossbeam::epoch::{Atomic, Owned};
use dinomo_obs::{LockId, Registry, Stage};
use dinomo_partition::key_hash;
use dinomo_pclht::{pin, Guard, Pclht};
use dinomo_pmem::{PmAddr, PmemError, PmemPool};
use dinomo_simnet::Nic;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Lock-free lookup table from pool address to live segment: `(base, end,
/// segment)` triples sorted by base. Readers binary-search it under their
/// existing epoch pin; writers rebuild and swap it (epoch-retiring the old
/// table) under the segment-registry write lock on every allocate/free —
/// both rare next to the per-read validations it serves.
type SegTable = Vec<(u64, u64, Arc<SegmentState>)>;

/// Callback invoked after the compactor relocates a key's log entry: the
/// key and the entry's **old** location. KVS-node caches hold shortcuts
/// (raw value addresses) into log segments; a relocation makes any
/// shortcut into the victim dangling, so the cluster layer registers an
/// observer that drops the key's cached locations on every node before
/// the victim segment is freed.
pub type RelocationObserver = Box<dyn Fn(&[u8], PackedLoc) + Send + Sync>;

/// Holder for the optional relocation observer (manual `Debug`: the boxed
/// callback has none).
#[derive(Default)]
pub(crate) struct ObserverSlot(RwLock<Option<RelocationObserver>>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ObserverSlot")
            .field(&self.0.read().is_some())
            .finish()
    }
}

/// Metric handles resolved once against the node's registry so the hot
/// paths never touch the registry's name map.
#[derive(Debug)]
pub(crate) struct DpmMetrics {
    pub(crate) registry: Arc<Registry>,
    /// `dpm_cell_registry_waits` — cell swings that lost a race.
    pub(crate) cell_swing_waits: dinomo_obs::Counter,
    /// `lock_wait_segment_table_ns` — segment-registry write lock.
    pub(crate) seg_table_wait: dinomo_obs::Histogram,
    /// `lock_wait_merge_engine_ns` — merge hand-off mutex.
    pub(crate) merge_engine_wait: dinomo_obs::Histogram,
    /// `stage_flush_wait_ns` — writer stalled for merge slack.
    pub(crate) stage_flush_wait: dinomo_obs::Histogram,
    /// `stage_merge_wait_ns` — caller drained the merge engine.
    pub(crate) stage_merge_wait: dinomo_obs::Histogram,
    /// `stage_dpm_lookup_ns` — the remote (KN cache-miss) read path.
    pub(crate) stage_dpm_lookup: dinomo_obs::Histogram,
}

impl DpmMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        DpmMetrics {
            cell_swing_waits: registry.counter("dpm_cell_registry_waits"),
            seg_table_wait: registry.lock_wait(LockId::SegmentTable),
            merge_engine_wait: registry.lock_wait(LockId::MergeEngine),
            stage_flush_wait: registry.stage(Stage::FlushWait),
            stage_merge_wait: registry.stage(Stage::MergeWait),
            stage_dpm_lookup: registry.stage(Stage::DpmLookup),
            registry,
        }
    }
}

/// Result of resolving a key through the DPM (the KN cache-miss path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// The value bytes, if the key exists.
    pub value: Option<Vec<u8>>,
    /// Where the value bytes live (for caching a shortcut).
    pub value_loc: Option<(PmAddr, u32)>,
    /// Whether the key is reached through an indirection cell (selectively
    /// replicated keys cannot be value-cached, §5.3).
    pub indirect: bool,
    /// Network round trips this lookup consumed.
    pub rts: u32,
}

/// Aggregate DPM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpmStats {
    /// Log segments allocated so far.
    pub segments_allocated: u64,
    /// Log segments reclaimed by GC.
    pub segments_freed: u64,
    /// Log entries merged into the index.
    pub entries_merged: u64,
    /// Indirection cells currently installed.
    pub indirect_cells: u64,
    /// Keys currently in the metadata index.
    pub index_len: u64,
    /// Victim segments the log-cleaning compactor emptied and freed.
    pub segments_compacted: u64,
    /// Bytes of live entries the compactor relocated into fresh segments.
    pub bytes_relocated: u64,
    /// Live entries the compactor relocated.
    pub entries_relocated: u64,
    /// Bytes still referenced by live entries across all live segments
    /// (written minus invalidated). Allocated-segment bytes divided by
    /// this is the store's space amplification.
    pub live_bytes: u64,
    /// Total capacity of the currently allocated (non-freed) segments.
    pub segment_bytes_allocated: u64,
    /// Cell-swing operations (cell installs, shared-path publishes,
    /// `cas_indirect`) that lost a race to a concurrent swing, relocation
    /// or merge and had to retry or abandon. This is the contention signal
    /// that used to hide inside the global cell-registry mutex: a rising
    /// rate under load means hot shared keys are serializing on their
    /// cells.
    pub cell_registry_waits: u64,
}

/// Guard returned by [`DpmNode::pause_collectors`]: collector passes are
/// excluded while it lives.
pub struct CollectorPause<'a> {
    _guard: MutexGuard<'a, ()>,
}

/// State shared between the [`DpmNode`] facade and the merge workers.
#[derive(Debug)]
pub struct DpmInner {
    config: DpmConfig,
    pool: Arc<PmemPool>,
    index: Pclht,
    segments: RwLock<Vec<Arc<SegmentState>>>,
    next_segment_id: AtomicU64,
    merge_sync: (Mutex<()>, Condvar),
    /// Cluster-global log sequence number. Sequence numbers order entries
    /// for the merge engine's stale-entry detection; they must be
    /// comparable across KVS nodes because a key's ownership (and therefore
    /// its writer) moves between nodes, so they are drawn from one shared
    /// counter rather than per-writer counters.
    next_seq: AtomicU64,
    entries_merged: AtomicU64,
    segments_freed: AtomicU64,
    indirect_cells: AtomicU64,
    /// Lock-free address → segment lookup (see [`SegTable`]). The
    /// authoritative registry stays in `segments`; this is the read-path
    /// projection of it, rebuilt on every allocate/free.
    seg_table: Atomic<SegTable>,
    /// Metric handles over this node's registry (see [`DpmMetrics`];
    /// cell-swing races land in `metrics.cell_swing_waits` — swings are
    /// lock-free, a swing pins its target's segment before the cell/index
    /// CAS, so collectors check one per-segment counter instead of
    /// serializing every swing on a global registry mutex).
    metrics: DpmMetrics,
    /// Serializes compaction passes (background thread vs. the synchronous
    /// `compact_once` test hook).
    gc_pass_lock: Mutex<()>,
    /// The compactor's current destination segment, reused across passes
    /// until full (so small passes don't each strand a near-empty
    /// segment).
    gc_destination: Mutex<Option<Arc<SegmentState>>>,
    /// Wakes the background compactor when a segment becomes eligible
    /// (see [`DpmInner::note_segment_settled`]).
    gc_signal: GcSignal,
    /// Observer notified after each successful relocation (see
    /// [`RelocationObserver`]).
    relocation_observer: ObserverSlot,
    segments_compacted: AtomicU64,
    bytes_relocated: AtomicU64,
    entries_relocated: AtomicU64,
    /// Highest merged delete sequence number per key (see
    /// [`DpmInner::record_merged_tombstone`]).
    merged_tombstones: Mutex<HashMap<Vec<u8>, u64>>,
    /// Entry count of `merged_tombstones`, kept in an atomic so the merge
    /// workers' common path (first insert of a new key, no deletes ever
    /// recorded) skips the map lock entirely instead of serializing on it.
    merged_tombstone_count: AtomicU64,
    /// The two pool slots the metadata record alternates between (see
    /// [`DpmNode::put_metadata`]). Their addresses stand in for a fixed
    /// superblock location; the record itself is only ever read back
    /// from the pool.
    metadata: Mutex<[Option<MetadataSlot>; 2]>,
    /// Crash-injection points (armed only by tests and the check driver;
    /// a relaxed-load no-op otherwise — see [`crate::failpoint`]).
    failpoints: FailpointSet,
}

impl DpmInner {
    pub(crate) fn pool(&self) -> &PmemPool {
        &self.pool
    }

    pub(crate) fn index(&self) -> &Pclht {
        &self.index
    }

    pub(crate) fn config(&self) -> &DpmConfig {
        &self.config
    }

    pub(crate) fn notify_merge_progress(&self) {
        let _guard = self.merge_sync.0.lock();
        self.merge_sync.1.notify_all();
    }

    pub(crate) fn stats_entries_merged(&self, n: u64) {
        self.entries_merged.fetch_add(n, Ordering::Relaxed);
    }

    /// `true` if the raw index word refers to an entry (directly or through
    /// an indirection cell) whose stored key equals `key`.
    pub(crate) fn loc_matches_key(&self, raw: u64, key: &[u8]) -> bool {
        let loc = PackedLoc::from_raw(raw);
        let entry_loc = if loc.is_indirect() {
            match self.indirect_cell_target(loc.addr()) {
                Some(t) => t,
                None => return false,
            }
        } else {
            loc
        };
        match decode_entry(&self.pool, entry_loc.addr(), entry_loc.len()) {
            Some(e) => e.key == key,
            None => false,
        }
    }

    /// Sequence number of the entry a direct location points at.
    pub(crate) fn entry_seq(&self, loc: PackedLoc) -> Option<u64> {
        decode_entry(&self.pool, loc.addr(), loc.len()).map(|e| e.header.seq)
    }

    /// `true` when the indexed state for a key — the direct entry, or the
    /// entry its indirection cell currently points at — carries a newer
    /// sequence number than `seq`.
    pub(crate) fn indexed_state_newer_than(&self, raw: u64, seq: u64) -> bool {
        let loc = PackedLoc::from_raw(raw);
        let entry_loc = if loc.is_indirect() {
            match self.indirect_cell_target(loc.addr()) {
                Some(t) => t,
                None => return false,
            }
        } else {
            loc
        };
        self.entry_seq(entry_loc) > Some(seq)
    }

    /// The entry an indirection cell identifies, for **key-identity**
    /// purposes: the live entry, or — when the cell carries a delete
    /// tombstone (bit 63 set; a cell's stored target is otherwise always a
    /// direct location) — the tombstoned-over last entry, so the index
    /// stays resolvable for the key until the merge removes it.
    pub(crate) fn indirect_cell_target(&self, cell: PmAddr) -> Option<PackedLoc> {
        let raw = self.pool.read_u64(cell);
        if raw == 0 {
            return None;
        }
        let loc = PackedLoc::from_raw(raw);
        Some(PackedLoc::direct(loc.addr(), loc.len()))
    }

    /// The sequence number of the state an indirection cell currently
    /// publishes: the live target entry's seq, or — when the cell carries
    /// a delete tombstone — the tombstoning delete's seq from the cell's
    /// second word. `None` when the cell is empty (released).
    pub(crate) fn cell_published_seq(&self, cell: PmAddr) -> Option<u64> {
        let raw = self.pool.read_u64(cell);
        if raw == 0 {
            return None;
        }
        let loc = PackedLoc::from_raw(raw);
        if loc.is_indirect() {
            Some(self.pool.read_u64(cell.offset(8)))
        } else {
            self.entry_seq(loc)
        }
    }

    /// The entry an indirection cell currently serves to **readers**:
    /// `None` when the cell is empty or tombstoned by a shared-path delete.
    pub(crate) fn indirect_cell_live_target(&self, cell: PmAddr) -> Option<PackedLoc> {
        let raw = self.pool.read_u64(cell);
        let loc = PackedLoc::from_raw(raw);
        if raw == 0 || loc.is_indirect() {
            None
        } else {
            Some(loc)
        }
    }

    /// Mark the entry at `loc` invalid in its segment's accounting
    /// (idempotent per entry — see `SegmentState::record_invalidated`).
    /// Lock-free: resolves the segment through the epoch-protected lookup
    /// table (this runs on every overwrite the merge engine applies).
    pub(crate) fn invalidate_entry(&self, loc: PackedLoc) {
        let guard = pin();
        if let Some(seg) = self.segment_at(&guard, loc.addr()) {
            seg.record_invalidated(loc.addr().0 - seg.base.0, loc.len());
        }
    }

    /// Resolve `addr` to the live segment containing it, without any lock:
    /// binary search over the epoch-protected [`SegTable`]. The reference
    /// is valid for the guard's lifetime; the segment may still be marked
    /// freed concurrently — callers that care re-check
    /// [`SegmentState::is_freed`].
    pub(crate) fn segment_at<'g>(
        &self,
        guard: &'g Guard,
        addr: PmAddr,
    ) -> Option<&'g Arc<SegmentState>> {
        let table = self.seg_table.load(Ordering::SeqCst, guard);
        // SAFETY: the table is only replaced via `publish_seg_table`, which
        // retires the old vector through the epoch scheme; loading under
        // `guard` keeps this snapshot alive.
        let entries = unsafe { table.deref() };
        let i = entries.partition_point(|e| e.1 <= addr.0);
        let e = entries.get(i)?;
        (e.0 <= addr.0 && addr.0 < e.1).then_some(&e.2)
    }

    /// Rebuild and swap the lock-free segment lookup table. Must be called
    /// with the `segments` write lock held (allocate/free paths), which
    /// serializes rebuilds; the superseded table is epoch-retired so
    /// in-flight readers finish against their snapshot.
    fn publish_seg_table(&self, segments: &[Arc<SegmentState>]) {
        let mut entries: SegTable = segments
            .iter()
            .map(|s| (s.base.0, s.base.0 + s.capacity, Arc::clone(s)))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        let guard = pin();
        let old = self
            .seg_table
            .swap(Owned::new(entries), Ordering::SeqCst, &guard);
        // SAFETY: `old` was just unlinked by the swap and is never
        // re-published; readers still traversing it are epoch-pinned.
        unsafe { guard.defer_destroy(old) };
    }

    /// Pin `addr`'s segment against relocation and free (a cell is about
    /// to reference an entry in it). Pins **before** validating: the
    /// freed re-check after the increment means a collector either sees
    /// the pin at its free-time check or this returns `None` and the
    /// caller retries against fresh index state. `None` when the address
    /// no longer lies in a live segment.
    pub(crate) fn pin_live_segment_at(
        &self,
        guard: &Guard,
        addr: PmAddr,
    ) -> Option<Arc<SegmentState>> {
        let seg = self.segment_at(guard, addr)?;
        seg.pin_cell();
        if seg.is_freed() {
            seg.unpin_cell();
            return None;
        }
        Some(Arc::clone(seg))
    }

    /// Release the cell pin on the segment containing `addr` (the cell
    /// swung away from, or dismantled its reference to, an entry there).
    /// Pinned segments are never freed, so the lookup cannot miss while
    /// the pin is held.
    pub(crate) fn unpin_segment_at(&self, guard: &Guard, addr: PmAddr) {
        if let Some(seg) = self.segment_at(guard, addr) {
            seg.unpin_cell();
        } else {
            debug_assert!(false, "unpin of {addr:?} found no live segment");
        }
    }

    /// Count a cell swing that lost a race and retried or abandoned (see
    /// [`DpmStats::cell_registry_waits`]).
    pub(crate) fn record_cell_wait(&self) {
        self.metrics.cell_swing_waits.inc();
    }

    /// Snapshot of the live segment list.
    pub(crate) fn segments_snapshot(&self) -> Vec<Arc<SegmentState>> {
        self.segments.read().clone()
    }

    /// The id the next allocated segment will get (monotonic; used as the
    /// compactor's logical clock for segment age).
    pub(crate) fn next_segment_id_hint(&self) -> u64 {
        self.next_segment_id.load(Ordering::Relaxed)
    }

    /// Allocate and register a fresh log segment owned by `kn`.
    pub(crate) fn allocate_segment_inner(&self, kn: u32) -> Result<Arc<SegmentState>, PmemError> {
        let base = self.pool.alloc(self.config.segment_bytes)?;
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let seg = Arc::new(SegmentState::new(id, kn, base, self.config.segment_bytes));
        let mut segments = self.metrics.seg_table_wait.time(|| self.segments.write());
        segments.push(Arc::clone(&seg));
        self.publish_seg_table(&segments);
        Ok(seg)
    }

    /// This node's crash-injection points.
    pub(crate) fn failpoints(&self) -> &FailpointSet {
        &self.failpoints
    }

    /// Serialize compaction passes.
    pub(crate) fn lock_gc_pass(&self) -> MutexGuard<'_, ()> {
        self.gc_pass_lock.lock()
    }

    /// The compactor's persistent destination-segment slot.
    pub(crate) fn gc_destination(&self) -> MutexGuard<'_, Option<Arc<SegmentState>>> {
        self.gc_destination.lock()
    }

    /// The background compactor's wake-up signal.
    pub(crate) fn gc_signal(&self) -> &GcSignal {
        &self.gc_signal
    }

    /// Wake the background compactor if `seg` is now a possible victim:
    /// sealed and fully merged. Called after a merge task completes and
    /// after a seal, so whichever of the two happens last fires (the
    /// sealed flag and the merged counter are `SeqCst`, so the two
    /// checks cannot both miss).
    pub(crate) fn note_segment_settled(&self, seg: &SegmentState) {
        if self.config.gc.background && seg.is_sealed() && seg.is_fully_merged() {
            self.gc_signal.wake();
        }
    }

    /// `(segments, live bytes, allocated bytes)` over the non-freed
    /// segments: the sums [`DpmNode::stats`] reports and the compactor
    /// measures its dead-byte debt from.
    pub(crate) fn space_usage(&self) -> (u64, u64, u64) {
        let segments = self.segments.read();
        let mut live = 0u64;
        let mut capacity = 0u64;
        for seg in segments.iter().filter(|s| !s.is_freed()) {
            live += seg.live_bytes();
            capacity += seg.capacity;
        }
        (segments.len() as u64, live, capacity)
    }

    /// Free a segment's pool bytes once every epoch guard pinned at call
    /// time has dropped, and drop it from the registry now. Readers
    /// resolve a location and decode the entry under one epoch pin, so
    /// deferring the free closes the window where a reader that loaded a
    /// location just before it was invalidated would decode freed (and
    /// possibly reused) memory. Returns `false` if the segment was
    /// already freed.
    pub(crate) fn free_segment_deferred(&self, seg: &Arc<SegmentState>) -> bool {
        if !seg.mark_freed() {
            return false;
        }
        {
            let mut segments = self.metrics.seg_table_wait.time(|| self.segments.write());
            segments.retain(|s| s.id != seg.id);
            self.publish_seg_table(&segments);
        }
        let pool = Arc::clone(&self.pool);
        let base = seg.base;
        let capacity = seg.capacity;
        let guard = pin();
        // SAFETY: the segment is unreachable from the index (every entry is
        // invalid) and unreferenced by any indirection cell (cell-pin count
        // is zero); the freed flag above diverts shortcut validation. Only
        // readers pinned before this call can still hold raw addresses into
        // it, and the epoch scheme delays the closure past their unpin.
        unsafe {
            guard.defer_unchecked(move || pool.free(base, capacity));
        }
        // Seal this thread's garbage bag immediately: segment frees must
        // reach the global buckets on their own, not ride on this thread's
        // future pin cadence (it may be a short-lived compactor worker).
        guard.flush();
        self.segments_freed.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Record a successful relocation and notify the observer, before
    /// the victim segment can be freed (the compactor frees only at the
    /// end of its pass, through [`DpmInner::free_segment_deferred`]).
    pub(crate) fn notify_relocated(&self, key: &[u8], old_loc: PackedLoc) {
        self.entries_relocated.fetch_add(1, Ordering::Relaxed);
        self.bytes_relocated
            .fetch_add(old_loc.len(), Ordering::Relaxed);
        if let Some(observer) = &*self.relocation_observer.0.read() {
            observer(key, old_loc);
        }
    }

    /// Count a victim segment fully emptied and freed by the compactor.
    pub(crate) fn record_segment_compacted(&self) {
        self.segments_compacted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a merged delete, so a stale put (older sequence number, e.g.
    /// from another KN's lagging segment) that merges later cannot re-insert
    /// the deleted key. An entry is dropped when a newer put re-inserts the
    /// key; keys deleted and never rewritten keep one entry each — bounded
    /// by the set of dead keys, acceptable at this simulation's scale.
    pub(crate) fn record_merged_tombstone(&self, key: &[u8], seq: u64) {
        let mut map = self.merged_tombstones.lock();
        match map.entry(key.to_vec()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if *e.get() < seq {
                    e.insert(seq);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(seq);
                self.merged_tombstone_count.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// `true` when a delete newer than `seq` has already merged for `key`.
    pub(crate) fn tombstone_newer_than(&self, key: &[u8], seq: u64) -> bool {
        if self.merged_tombstone_count.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.merged_tombstones
            .lock()
            .get(key)
            .is_some_and(|&d| d > seq)
    }

    /// Drop `key`'s merged-tombstone record (a newer put re-inserted it;
    /// staleness is decided against the indexed entry from here on).
    pub(crate) fn forget_merged_tombstone(&self, key: &[u8]) {
        if self.merged_tombstone_count.load(Ordering::Acquire) == 0 {
            return;
        }
        if self.merged_tombstones.lock().remove(key).is_some() {
            self.merged_tombstone_count.fetch_sub(1, Ordering::Release);
        }
    }

    /// Drop an indirection cell (its 16 bytes are returned to the allocator).
    pub(crate) fn release_indirect_cell(&self, cell: PmAddr) {
        self.pool.free(cell, 16);
        self.indirect_cells.fetch_sub(1, Ordering::Relaxed);
    }

    fn unmerged_sealed_segments(&self, kn: u32) -> usize {
        self.segments
            .read()
            .iter()
            .filter(|s| s.owner_kn == kn && s.is_sealed() && !s.is_fully_merged())
            .count()
    }

    fn unmerged_segments(&self, kn: u32) -> usize {
        self.segments
            .read()
            .iter()
            .filter(|s| s.owner_kn == kn && !s.is_fully_merged())
            .count()
    }
}

/// The DPM node (shared persistent-memory pool plus its limited processors).
///
/// One `DpmNode` instance represents the entire disaggregated PM tier of the
/// cluster.  It is shared (behind an `Arc`) by every KVS node and the
/// control plane.
#[derive(Debug)]
pub struct DpmNode {
    inner: Arc<DpmInner>,
    merge: Mutex<MergeEngine>,
    /// Background log-cleaning compactor (present only when
    /// `config.gc.background` is set).
    gc: Mutex<Option<Compactor>>,
}

impl DpmNode {
    /// Create a DPM node (allocating its pool and index, and spawning the
    /// merge workers) with a private metrics registry.
    pub fn new(config: DpmConfig) -> Result<Self, PmemError> {
        Self::with_metrics(config, Registry::new_shared())
    }

    /// [`DpmNode::new`], recording into a caller-supplied registry (the
    /// KVS shares one registry between its client/KN layers and the DPM).
    pub fn with_metrics(config: DpmConfig, registry: Arc<Registry>) -> Result<Self, PmemError> {
        let pool = Arc::new(PmemPool::new(config.pool));
        let index = Pclht::new(Arc::clone(&pool), config.index)?;
        let metrics = DpmMetrics::new(registry);
        let inner = Arc::new(DpmInner {
            config,
            pool,
            index,
            segments: RwLock::new(Vec::new()),
            next_segment_id: AtomicU64::new(1),
            merge_sync: (Mutex::new(()), Condvar::new()),
            next_seq: AtomicU64::new(0),
            entries_merged: AtomicU64::new(0),
            segments_freed: AtomicU64::new(0),
            indirect_cells: AtomicU64::new(0),
            seg_table: Atomic::new(Vec::new()),
            metrics,
            gc_pass_lock: Mutex::new(()),
            gc_destination: Mutex::new(None),
            gc_signal: GcSignal::default(),
            relocation_observer: ObserverSlot::default(),
            segments_compacted: AtomicU64::new(0),
            bytes_relocated: AtomicU64::new(0),
            entries_relocated: AtomicU64::new(0),
            merged_tombstones: Mutex::new(HashMap::new()),
            merged_tombstone_count: AtomicU64::new(0),
            metadata: Mutex::new([None; 2]),
            failpoints: FailpointSet::new(),
        });
        let merge = MergeEngine::start(Arc::clone(&inner), config.merge_threads);
        let gc = config
            .gc
            .background
            .then(|| Compactor::start(Arc::clone(&inner)));
        Ok(DpmNode {
            inner,
            merge: Mutex::new(merge),
            gc: Mutex::new(gc),
        })
    }

    /// Register the callback invoked after every successful entry
    /// relocation (see [`RelocationObserver`]). The cluster layer uses it
    /// to drop each relocated key's cached shortcut locations before the
    /// victim segment is freed.
    pub fn set_relocation_observer(&self, observer: RelocationObserver) {
        *self.inner.relocation_observer.0.write() = Some(observer);
    }

    /// The configuration this node was created with.
    pub fn config(&self) -> &DpmConfig {
        &self.inner.config
    }

    /// The backing persistent-memory pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.inner.pool
    }

    /// The metadata index (exposed for baselines, recovery checks and tests).
    pub fn index(&self) -> &Pclht {
        &self.inner.index
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DpmStats {
        let (live_segments, live_bytes, segment_bytes_allocated) = self.inner.space_usage();
        DpmStats {
            segments_allocated: live_segments,
            segments_freed: self.inner.segments_freed.load(Ordering::Relaxed),
            entries_merged: self.inner.entries_merged.load(Ordering::Relaxed),
            indirect_cells: self.inner.indirect_cells.load(Ordering::Relaxed),
            index_len: self.inner.index.len(),
            segments_compacted: self.inner.segments_compacted.load(Ordering::Relaxed),
            bytes_relocated: self.inner.bytes_relocated.load(Ordering::Relaxed),
            entries_relocated: self.inner.entries_relocated.load(Ordering::Relaxed),
            live_bytes,
            segment_bytes_allocated,
            cell_registry_waits: self.inner.metrics.cell_swing_waits.value(),
        }
    }

    /// The metrics registry this node records into.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.inner.metrics.registry
    }

    // ---------------------------------------------------------------- logs

    /// Allocate a fresh log segment owned by `kn`.
    pub fn allocate_segment(&self, kn: u32) -> Result<Arc<SegmentState>, PmemError> {
        self.inner.allocate_segment_inner(kn)
    }

    /// Seal a log segment its owner is done with, waking the background
    /// compactor if the segment is already fully merged.
    pub(crate) fn seal_segment(&self, seg: &SegmentState) {
        seg.seal();
        self.inner.note_segment_settled(seg);
    }

    /// `true` while `addr` lies inside a live (non-freed) segment. The
    /// KN shortcut-cache hit path validates its cached value address with
    /// this under an epoch pin: the compactor sets the freed flag *before*
    /// deferring the pool free, so a reader that passes the check while
    /// pinned can never observe the bytes being reused.
    ///
    /// O(1): one binary search over the epoch-protected segment table plus
    /// one freed-bit load — no lock, no scan (this runs on every
    /// shortcut-cache hit). Pins internally; callers already holding a
    /// guard should use [`DpmNode::value_addr_is_live_in`].
    pub fn value_addr_is_live(&self, addr: PmAddr) -> bool {
        let guard = pin();
        self.value_addr_is_live_in(&guard, addr)
    }

    /// [`DpmNode::value_addr_is_live`] under a caller-held epoch pin. The
    /// guard must be the same one protecting the subsequent value read:
    /// the liveness answer only holds as long as that pin does.
    pub fn value_addr_is_live_in(&self, guard: &Guard, addr: PmAddr) -> bool {
        self.inner
            .segment_at(guard, addr)
            .is_some_and(|s| !s.is_freed())
    }

    /// Number of segments of `kn` that are not yet fully merged.
    pub fn unmerged_segments(&self, kn: u32) -> usize {
        self.inner.unmerged_segments(kn)
    }

    /// Draw the next cluster-global log sequence number (see
    /// `DpmInner::next_seq` for why it is global).
    pub fn next_seq(&self) -> u64 {
        self.inner.next_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Block while `kn` has at least two sealed but unmerged segments (the
    /// paper's write-path back-pressure, §4).
    pub fn wait_for_merge_slack(&self, kn: u32) {
        self.inner.metrics.stage_flush_wait.time(|| {
            let mut guard = self.inner.merge_sync.0.lock();
            while self.inner.unmerged_sealed_segments(kn) >= UNMERGED_SEGMENT_THRESHOLD {
                self.inner
                    .merge_sync
                    .1
                    .wait_for(&mut guard, Duration::from_millis(50));
            }
        })
    }

    /// Block until every segment of `kn` is fully merged (used before
    /// reconfiguration and during failure handling, §3.5).
    pub fn wait_until_merged(&self, kn: u32) {
        self.inner.metrics.stage_merge_wait.time(|| {
            let mut guard = self.inner.merge_sync.0.lock();
            while self.inner.unmerged_segments(kn) > 0 {
                self.inner
                    .merge_sync
                    .1
                    .wait_for(&mut guard, Duration::from_millis(50));
            }
        })
    }

    /// Block until every segment of every KN is fully merged.
    pub fn wait_until_all_merged(&self) {
        let kns: Vec<u32> = {
            let segs = self.inner.segments.read();
            let mut v: Vec<u32> = segs.iter().map(|s| s.owner_kn).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for kn in kns {
            self.wait_until_merged(kn);
        }
    }

    /// Queue a committed byte range for asynchronous merging.
    pub(crate) fn submit_merge_batch(&self, segment: &Arc<SegmentState>, start: u64, len: u64) {
        let engine = self
            .inner
            .metrics
            .merge_engine_wait
            .time(|| self.merge.lock());
        engine.submit(MergeTask {
            segment: Arc::clone(segment),
            start,
            len,
        });
    }

    // ------------------------------------------------------------- lookups

    /// DPM-side (local) lookup of a key's packed location.
    pub fn local_lookup(&self, key: &[u8]) -> Option<PackedLoc> {
        self.local_lookup_in(&pin(), key)
    }

    /// [`DpmNode::local_lookup`] under a caller-supplied epoch guard, so a
    /// batch of lookups pays for one pin (see [`dinomo_pclht::pin`]).
    pub fn local_lookup_in(&self, guard: &Guard, key: &[u8]) -> Option<PackedLoc> {
        self.inner
            .index
            .get_in(guard, key_hash(key), |raw| {
                self.inner.loc_matches_key(raw, key)
            })
            .map(PackedLoc::from_raw)
    }

    /// DPM-side (local) read of a key's current value.
    pub fn local_read(&self, key: &[u8]) -> Option<Vec<u8>> {
        // One pin across lookup *and* decode: the compactor defers a freed
        // victim's pool free past every guard pinned when it swung the
        // index, so the location resolved here stays readable even if the
        // entry is relocated mid-read.
        let guard = pin();
        let loc = self.local_lookup_in(&guard, key)?;
        let entry_loc = if loc.is_indirect() {
            self.inner.indirect_cell_live_target(loc.addr())?
        } else {
            loc
        };
        let entry = decode_entry(&self.inner.pool, entry_loc.addr(), entry_loc.len())?;
        Some(entry.read_value(&self.inner.pool))
    }

    /// The full cache-miss path as a KVS node would execute it over the
    /// network: traverse the index with one-sided reads, then fetch the entry
    /// (and, for shared keys, the indirection cell first).
    pub fn remote_read(&self, nic: &Nic, key: &[u8]) -> LookupResult {
        self.remote_read_in(&pin(), nic, key)
    }

    /// [`DpmNode::remote_read`] under a caller-supplied epoch guard — the
    /// KN batch path pins once per batch instead of once per miss.
    pub fn remote_read_in(&self, guard: &Guard, nic: &Nic, key: &[u8]) -> LookupResult {
        self.inner
            .metrics
            .stage_dpm_lookup
            .time(|| self.remote_read_in_untimed(guard, nic, key))
    }

    fn remote_read_in_untimed(&self, guard: &Guard, nic: &Nic, key: &[u8]) -> LookupResult {
        let (raw, mut rts) = self
            .inner
            .index
            .remote_get_in(guard, nic, key_hash(key), |raw| {
                self.inner.loc_matches_key(raw, key)
            });
        let Some(raw) = raw else {
            return LookupResult {
                value: None,
                value_loc: None,
                indirect: false,
                rts,
            };
        };
        let loc = PackedLoc::from_raw(raw);
        let (entry_loc, indirect) = if loc.is_indirect() {
            nic.one_sided_read(8);
            rts += 1;
            match self.inner.indirect_cell_live_target(loc.addr()) {
                Some(t) => (t, true),
                None => {
                    return LookupResult {
                        value: None,
                        value_loc: None,
                        indirect: true,
                        rts,
                    }
                }
            }
        } else {
            (loc, false)
        };
        nic.one_sided_read(entry_loc.len() as usize);
        rts += 1;
        match decode_entry(&self.inner.pool, entry_loc.addr(), entry_loc.len()) {
            Some(entry) if entry.key == key => {
                let value = entry.read_value(&self.inner.pool);
                LookupResult {
                    value_loc: Some((entry.value_addr, entry.header.val_len)),
                    value: Some(value),
                    indirect,
                    rts,
                }
            }
            _ => LookupResult {
                value: None,
                value_loc: None,
                indirect,
                rts,
            },
        }
    }

    /// Shortcut-hit path: fetch `len` value bytes at `addr` with a single
    /// one-sided read.
    pub fn read_value_at(&self, nic: &Nic, addr: PmAddr, len: u32) -> Vec<u8> {
        nic.one_sided_read(len as usize);
        let mut buf = vec![0u8; len as usize];
        self.inner.pool.read_bytes(addr, &mut buf);
        buf
    }

    // ------------------------------------------------------ invariant walk

    /// Verify the hash index against the log and the segment registry.
    /// Meaningful only at a quiescent point: merges drained
    /// ([`DpmNode::wait_until_all_merged`]) and collectors paused
    /// ([`DpmNode::pause_collectors`]). Every direct entry must lie in a
    /// live segment and decode to a log entry whose key hashes to the tag
    /// it is indexed under; every indirect entry's cell must resolve to
    /// such an entry. Returns the number of indexed keys.
    pub fn check_index(&self) -> Result<u64, String> {
        let guard = pin();
        let mut keys = 0u64;
        let mut violation = None;
        self.inner.index.for_each_in(&guard, |tag, raw| {
            if violation.is_none() {
                keys += 1;
                violation = self.check_indexed(&guard, tag, raw).err();
            }
        });
        violation.map_or(Ok(keys), Err)
    }

    /// One index word of [`DpmNode::check_index`]'s walk.
    fn check_indexed(&self, guard: &Guard, tag: u64, raw: u64) -> Result<(), String> {
        let loc = PackedLoc::from_raw(raw);
        let entry_loc = if loc.is_indirect() {
            self.inner
                .indirect_cell_target(loc.addr())
                .ok_or_else(|| format!("indirect entry {loc:?} has an empty cell"))?
        } else {
            loc
        };
        if !self.value_addr_is_live_in(guard, entry_loc.addr()) {
            return Err(format!(
                "indexed entry {entry_loc:?} is not in a live segment"
            ));
        }
        let entry = decode_entry(&self.inner.pool, entry_loc.addr(), entry_loc.len())
            .ok_or_else(|| format!("indexed entry {entry_loc:?} does not decode"))?;
        // Merges index every entry under `key_hash` of its key (the table
        // remaps only a hash equal to its empty-slot marker, 0).
        if key_hash(&entry.key) != tag {
            return Err(format!(
                "entry {entry_loc:?} holds key {:?} but is indexed under tag {tag:#x}",
                entry.key
            ));
        }
        Ok(())
    }

    // --------------------------------------------------- indirect pointers

    /// Install an indirection cell for `key` so its ownership can be shared
    /// across KNs.  Returns the cell address (or `None` if the key does not
    /// exist yet).  Idempotent: an already-shared key returns its cell.
    ///
    /// Lock-free against the compactor: the target entry's segment is
    /// pinned ([`SegmentState::pin_cell`]) *before* the index swing, and
    /// the swing CAS only succeeds against the exact location the pin was
    /// taken for. If the compactor relocated the entry in between, the CAS
    /// fails, the pin is released, and the install retries against the
    /// fresh index state.
    pub fn make_indirect(&self, key: &[u8]) -> Result<Option<PmAddr>, PmemError> {
        let tag = key_hash(key);
        let guard = pin();
        loop {
            let Some(raw) = self
                .inner
                .index
                .get(tag, |raw| self.inner.loc_matches_key(raw, key))
            else {
                return Ok(None);
            };
            let loc = PackedLoc::from_raw(raw);
            if loc.is_indirect() {
                return Ok(Some(loc.addr()));
            }
            // Pin the entry's segment so the compactor can neither relocate
            // the entry nor free the segment while the cell references it.
            let Some(target_seg) = self.inner.pin_live_segment_at(&guard, loc.addr()) else {
                // The entry moved (its old segment is gone): the index now
                // holds the relocated location — retry against it.
                self.inner.record_cell_wait();
                continue;
            };
            let cell = self.inner.pool.alloc(16)?;
            self.inner.pool.write_u64(cell, loc.raw());
            self.inner.pool.write_u64(cell.offset(8), 0);
            self.inner.pool.persist(cell, 16);
            self.inner.pool.drain();
            if self.inner.failpoints.hit("cell.before-swing") {
                // Simulated fail-stop between publishing the cell and
                // swinging the index onto it: the cell is durable but
                // unreachable, so recovery-wise it never existed. Free it
                // here (the in-process stand-in for a recovery-time cell
                // sweep) and abort.
                self.inner.pool.free(cell, 16);
                target_seg.unpin_cell();
                return Err(PmemError::InjectedFailure);
            }
            let new_raw = PackedLoc::indirect(cell, 16).raw();
            if self
                .inner
                .index
                .update(tag, |r| r == raw, new_raw)
                .is_some()
            {
                self.inner.indirect_cells.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(cell));
            }
            // Lost the swing race (concurrent merge or relocation changed
            // the location): undo and retry.
            target_seg.unpin_cell();
            self.inner.pool.free(cell, 16);
            self.inner.record_cell_wait();
        }
    }

    /// Remove the indirection for `key`: a cell publishing a live value
    /// collapses back to a direct index pointer; a cell carrying a delete
    /// tombstone (the key's acknowledged final state is *absent*) takes
    /// its index entry down with it — leaving the indirect entry behind
    /// would make the next owned-path write merge look like a stale
    /// shared put and be discarded. Returns `true` if the key was
    /// indirect.
    pub fn remove_indirect(&self, key: &[u8]) -> bool {
        // No global serialization: dereplication runs with the key's owner
        // KNs closed and drained (see the cluster layer), so no concurrent
        // swing targets this cell. The compactor never relocates entries a
        // pinned cell references, and the pin is released only after the
        // cell is collapsed back to a direct (or removed) index state.
        let tag = key_hash(key);
        let Some(raw) = self
            .inner
            .index
            .get(tag, |raw| self.inner.loc_matches_key(raw, key))
        else {
            return false;
        };
        let loc = PackedLoc::from_raw(raw);
        if !loc.is_indirect() {
            return false;
        }
        // The cell's key-identity target — live or tombstoned-over — is the
        // address whose segment holds this cell's pin.
        let pinned_addr = self
            .inner
            .indirect_cell_target(loc.addr())
            .map(|t| t.addr());
        match self.inner.indirect_cell_live_target(loc.addr()) {
            Some(target) => {
                self.inner.index.update(tag, |r| r == raw, target.raw());
            }
            None => {
                // Tombstoned (or already-empty) cell: the key is deleted;
                // the owned path must see a clean miss. The tombstoned-over
                // entry was invalidated when the delete published.
                self.inner.index.remove(tag, |r| r == raw);
            }
        }
        self.inner.release_indirect_cell(loc.addr());
        if let Some(addr) = pinned_addr {
            self.inner.unpin_segment_at(&pin(), addr);
        }
        true
    }

    /// The indirection cell address for `key`, if it is currently shared.
    pub fn indirect_cell_of(&self, key: &[u8]) -> Option<PmAddr> {
        let loc = self.local_lookup(key)?;
        loc.is_indirect().then(|| loc.addr())
    }

    /// Read an indirection cell over the network (1 RT) and return the entry
    /// it points to — `None` when the cell is empty **or carries a delete
    /// tombstone**, so shared readers observe an acknowledged delete
    /// immediately.
    pub fn remote_read_indirect(&self, nic: &Nic, cell: PmAddr) -> Option<PackedLoc> {
        // Billed to the lookup stage: for a shared key this read is the
        // index traversal (cell → entry), the replicated-read analogue of
        // [`DpmNode::remote_read_in`].
        self.inner.metrics.stage_dpm_lookup.time(|| {
            nic.one_sided_read(8);
            self.inner.indirect_cell_live_target(cell)
        })
    }

    /// Atomically swing an indirection cell from `old` to `new` with a
    /// one-sided CAS (1 RT).  On success the superseded entry is invalidated
    /// for GC purposes.
    ///
    /// Pin transfer (see [`DpmNode::make_indirect`]): `new`'s segment is
    /// pinned before the CAS so the compactor cannot move the entry the
    /// cell is about to reference; on success the pin the cell held on
    /// `old`'s segment is released, on failure the speculative pin is.
    pub fn cas_indirect(
        &self,
        nic: &Nic,
        cell: PmAddr,
        old: PackedLoc,
        new: PackedLoc,
    ) -> Result<(), PackedLoc> {
        let guard = pin();
        let Some(new_seg) = self.inner.pin_live_segment_at(&guard, new.addr()) else {
            // `new` was already relocated out from under us (its entry is
            // superseded); report the current cell state as a CAS miss.
            self.inner.record_cell_wait();
            nic.one_sided_read(8);
            return Err(PackedLoc::from_raw(self.inner.pool.read_u64(cell)));
        };
        nic.one_sided_cas();
        match self.inner.pool.cas_u64(cell, old.raw(), new.raw()) {
            Ok(_) => {
                self.inner.pool.persist(cell, 8);
                self.inner.invalidate_entry(old);
                self.inner.unpin_segment_at(&guard, old.addr());
                Ok(())
            }
            Err(actual) => {
                new_seg.unpin_cell();
                self.inner.record_cell_wait();
                Err(PackedLoc::from_raw(actual))
            }
        }
    }

    /// Publish a shared-path put: loop a one-sided CAS until the cell is
    /// swung to `new` — over a live value or a delete tombstone (the put
    /// re-installs read visibility after a shared-path delete).
    ///
    /// The swing only happens when `new_seq` is **newer** than the state the
    /// cell currently publishes (the live entry's sequence number, or the
    /// tombstoning delete's from the cell's second word). Keeping the cell
    /// seq-monotonic makes its publish order agree with the merge engine's
    /// append-seq arbitration: a put that lost the publish race to a newer
    /// delete (or newer put) stays invisible *both* at the cell and after
    /// its log record merges, instead of flickering into view only to be
    /// deleted by the older-history merge. Returns `false` when nothing was
    /// swung (cell released, or `new_seq` is stale).
    pub fn publish_shared_put(
        &self,
        nic: &Nic,
        cell: PmAddr,
        new: PackedLoc,
        new_seq: u64,
    ) -> bool {
        // Pin `new`'s segment for the duration of the publish attempt so a
        // delayed publish cannot swing the cell onto an entry whose
        // all-dead segment GC frees concurrently (the entry's merge may
        // have invalidated it as "cell never pointed here"). A pin failure
        // means the segment was already freed — only possible when the
        // entry was invalidated because newer state superseded `new_seq`,
        // so the publish is stale and abandons.
        let guard = pin();
        let Some(new_seg) = self.inner.pin_live_segment_at(&guard, new.addr()) else {
            self.inner.record_cell_wait();
            self.inner.invalidate_entry(new);
            return false;
        };
        loop {
            nic.one_sided_read(8);
            let raw = self.inner.pool.read_u64(cell);
            if raw == 0 {
                // Cell released: this entry will never be published. Its
                // merge left it valid pending this swing (see the merge
                // engine's shared-put arm); mark it dead so its segment
                // can reclaim.
                new_seg.unpin_cell();
                self.inner.invalidate_entry(new);
                return false;
            }
            let old = PackedLoc::from_raw(raw);
            let published_seq = if old.is_indirect() {
                nic.one_sided_read(8);
                Some(self.inner.pool.read_u64(cell.offset(8)))
            } else {
                self.inner.entry_seq(old)
            };
            if published_seq >= Some(new_seq) {
                // Lost the publish race to newer state: abandoned, never
                // referenced — invalidate it (see above).
                new_seg.unpin_cell();
                self.inner.invalidate_entry(new);
                return false;
            }
            nic.one_sided_cas();
            if self.inner.pool.cas_u64(cell, raw, new.raw()).is_ok() {
                self.inner.pool.persist(cell, 8);
                // Transfer the cell's pin: it now references `new`, not the
                // predecessor (`PackedLoc::addr` masks the tombstone bit,
                // so this is the key-identity address either way).
                self.inner.unpin_segment_at(&guard, old.addr());
                // A tombstoned predecessor was already invalidated by the
                // delete that marked it.
                if !old.is_indirect() {
                    self.inner.invalidate_entry(old);
                }
                return true;
            }
            self.inner.record_cell_wait();
        }
    }

    /// Publish a shared-path delete: loop a one-sided CAS until the cell
    /// carries the delete tombstone, so shared readers on **every** replica
    /// observe the delete immediately — before the log tombstone is flushed
    /// or merged. The cell keeps the last entry's address (with the
    /// tombstone flag set) so the index stays resolvable for the key until
    /// the merge engine removes the entry and releases the cell; the
    /// delete's sequence number is stored in the cell's second word so a
    /// put that lost the publish race can recognize itself as stale.
    ///
    /// Seq-monotonic like [`DpmNode::publish_shared_put`]: a delete older
    /// than the currently published state is a no-op.
    pub fn publish_shared_delete(&self, nic: &Nic, cell: PmAddr, del_seq: u64) {
        // Pin-neutral: the tombstone swing keeps the cell's key-identity
        // target address (only the tombstone bit changes), so the pin the
        // cell holds on that segment carries over untouched and no
        // compactor coordination is needed beyond it.
        loop {
            nic.one_sided_read(8);
            let raw = self.inner.pool.read_u64(cell);
            let loc = PackedLoc::from_raw(raw);
            if raw == 0 {
                return; // released
            }
            if loc.is_indirect() {
                // Already tombstoned: only advance the recorded delete seq.
                nic.one_sided_read(8);
                if self.inner.pool.read_u64(cell.offset(8)) < del_seq {
                    nic.one_sided_write(8);
                    self.inner.pool.write_u64(cell.offset(8), del_seq);
                    self.inner.pool.persist(cell.offset(8), 8);
                }
                return;
            }
            if self.inner.entry_seq(loc) > Some(del_seq) {
                return; // a newer put won the publish race
            }
            // Stamp the delete seq before the swing so observers of the
            // tombstone bit always see a seq at least this new.
            nic.one_sided_write(8);
            self.inner.pool.write_u64(cell.offset(8), del_seq);
            self.inner.pool.persist(cell.offset(8), 8);
            nic.one_sided_cas();
            let tombstoned = PackedLoc::indirect(loc.addr(), loc.len());
            if self.inner.pool.cas_u64(cell, raw, tombstoned.raw()).is_ok() {
                self.inner.pool.persist(cell, 8);
                self.inner.invalidate_entry(loc);
                return;
            }
            self.inner.record_cell_wait();
        }
    }

    // ------------------------------------------------------------------ GC

    /// Reclaim every segment whose entries are all invalid. Returns how many
    /// segments were freed.
    ///
    /// A segment an indirection cell still references is never freed, even
    /// when fully invalidated: a *tombstoned* cell keeps the dead entry's
    /// address for key identity until dereplication dismantles it, and
    /// freeing (then reusing) those bytes would make the cell resolve to
    /// garbage. Cell references show up as the segment's own pin count
    /// ([`SegmentState::cell_pins`]), checked again immediately before the
    /// free: a swing pins its target's segment *before* publishing the
    /// reference, so a segment observed unpinned here either stays
    /// unreferenced or the racing swing's CAS fails (its entry was
    /// invalid) and the speculative pin is withdrawn.
    pub fn run_gc(&self) -> usize {
        // Serialized with compaction passes: `compact_pass` scans victim
        // bytes across its pass, so no other collector may free a segment
        // out from under it.
        let _pass = self.inner.lock_gc_pass();
        let reclaimable: Vec<Arc<SegmentState>> = {
            let segments = self.inner.segments.read();
            segments
                .iter()
                .filter(|s| s.is_reclaimable() && s.cell_pins() == 0)
                .cloned()
                .collect()
        };
        let mut freed = 0;
        for seg in reclaimable {
            if seg.cell_pins() == 0 && self.inner.free_segment_deferred(&seg) {
                freed += 1;
            }
        }
        freed
    }

    /// Run one synchronous log-cleaning compaction pass (the test hook of
    /// the background compactor; see [`crate::gc`]). The pass pays down the
    /// dead-byte debt against `config.gc.dead_fraction` within
    /// `config.gc.max_pass_bytes`, and is serialized against the
    /// background thread.
    pub fn compact_once(&self) -> CompactionReport {
        compact_pass(&self.inner, &self.inner.config.gc)
    }

    // ------------------------------------------------------------ recovery

    /// This node's crash-injection points (see [`crate::failpoint`]). The
    /// check driver arms a point, drives the workload until it fires, then
    /// runs the crash/recover sequence.
    pub fn failpoints(&self) -> &FailpointSet {
        self.inner.failpoints()
    }

    /// Simulate a DPM power failure: drop every written-but-unpersisted
    /// cache line in the pool (see [`PmemPool::simulate_crash`]; a no-op
    /// unless the pool tracks persistence). Callers must quiesce the merge
    /// workers first ([`DpmNode::wait_until_all_merged`]) — a merge
    /// mid-flight through the crash would observe half-dropped state —
    /// and follow with [`DpmNode::recover`].
    ///
    /// The segment registry and the two metadata slots' addresses live in
    /// this process's DRAM and survive, standing in for a fixed pool
    /// layout a real restart would find again. The metadata record itself
    /// survives only as far as its slot's lines were persisted.
    pub fn simulate_crash(&self) {
        // Collector exclusion is the caller's job: a crash driver running
        // with the background compactor live must bracket the whole
        // crash → recover → invariant-check sequence in
        // [`DpmNode::pause_collectors`] — a pass walks pool bytes the
        // crash is about to rewrite, and a pass concurrent with the
        // post-recovery check can free the victim of an index word the
        // check just read. Cell swings need no explicit
        // exclusion — the crash driver (`crash_dpm_and_recover` in the
        // cluster layer) closes and drains every KN before calling this,
        // so no swing is in flight.
        self.inner.pool.simulate_crash();
    }

    /// Block until any in-flight collector pass completes and exclude all
    /// further passes (background compactor, [`DpmNode::run_gc`],
    /// [`DpmNode::compact_once`]) while the returned guard lives. Crash
    /// drivers hold this across [`DpmNode::simulate_crash`], recovery and
    /// the invariant walk ([`DpmNode::check_index`]): a pass can relocate
    /// an entry and free its victim between the walk reading the entry's
    /// index word and checking its segment, and the walk would report
    /// that stale word as a violation.
    pub fn pause_collectors(&self) -> CollectorPause<'_> {
        CollectorPause {
            _guard: self.inner.lock_gc_pass(),
        }
    }

    /// Re-scan every live segment and merge any sealed entry the index does
    /// not yet reflect.  Torn (unsealed) entries are counted and skipped.
    /// Used after a simulated DPM power failure and after KN failures to
    /// guarantee no committed write is lost.
    pub fn recover(&self) -> RecoveryReport {
        let segments: Vec<Arc<SegmentState>> = self.inner.segments.read().clone();
        let mut report = RecoveryReport::default();
        for seg in segments {
            if seg.is_freed() {
                continue;
            }
            // Scan the whole written region; merging is idempotent.
            let guard = pin();
            let mut offset = 0u64;
            let written = seg.written();
            let mut merged_floor_bytes = 0u64;
            let mut merged_floor_entries = 0u64;
            while offset < written {
                let addr = seg.base.offset(offset);
                match decode_entry(&self.inner.pool, addr, written - offset) {
                    Some(e) if e.sealed => {
                        apply_recovered_entry(&self.inner, &seg, &guard, offset, &e);
                        // New appends after recovery must order after every
                        // recovered entry.
                        self.inner
                            .next_seq
                            .fetch_max(e.header.seq, Ordering::Relaxed);
                        report.entries_recovered += 1;
                        merged_floor_entries += 1;
                        offset += e.total_len;
                    }
                    Some(e) => {
                        report.torn_entries += 1;
                        offset += e.total_len;
                    }
                    None => break,
                }
                merged_floor_bytes = offset;
            }
            // Everything the scan just processed is reflected in the index
            // (torn entries hold no committed data, matching `merge_task`,
            // which counts the bytes it skips at a torn entry as merged), so
            // floor — never re-add: the scan runs again on double recovery —
            // the merged counters up to the scanned extent.
            seg.record_merged_at_least(merged_floor_bytes, merged_floor_entries);
        }
        report.index_len_after = self.inner.index.len();
        report
    }

    /// Synchronously merge everything a failed KN left behind (step 3 of the
    /// reconfiguration protocol for the failure case).
    pub fn merge_pending_for_kn(&self, kn: u32) {
        self.wait_until_merged(kn);
    }

    // ----------------------------------------------------------- metadata

    /// Persist the policy metadata record (the encoded ownership table),
    /// replacing the previous version. The record alternates between two
    /// pool slots: each write goes in place into the slot that does not
    /// hold the newest valid generation, then persists and drains, so a
    /// crash mid-write leaves the previous version readable. A slot is
    /// reallocated only when a record outgrows it.
    pub fn put_metadata(&self, data: &[u8]) -> Result<(), PmemError> {
        let mut slots = self.inner.metadata.lock();
        let (slot, len) = self.stage_metadata(&mut slots, data)?;
        self.inner.pool.persist(slot.addr, len);
        self.inner.pool.drain();
        Ok(())
    }

    /// Write `data` as the next generation into the slot not holding the
    /// newest valid record, without persisting it. Returns the slot and
    /// the bytes written.
    fn stage_metadata(
        &self,
        slots: &mut [Option<MetadataSlot>; 2],
        data: &[u8],
    ) -> Result<(MetadataSlot, u64), PmemError> {
        let pool = &self.inner.pool;
        let (target, generation) = newest_metadata(pool, slots)
            .map_or((0, 1), |(i, generation, _)| (1 - i, generation + 1));
        let mut record = vec![0u8; SLOT_HEADER];
        record[8..16].copy_from_slice(&generation.to_le_bytes());
        record[16..24].copy_from_slice(&(data.len() as u64).to_le_bytes());
        record.extend_from_slice(data);
        let checksum = key_hash(&record[8..]);
        record[..8].copy_from_slice(&checksum.to_le_bytes());
        let len = record.len() as u64;
        let slot = match slots[target] {
            Some(slot) if slot.capacity >= len => slot,
            outgrown => {
                let slot = MetadataSlot::alloc(pool, len)?;
                if let Some(old) = outgrown {
                    old.free(pool);
                }
                slots[target] = Some(slot);
                slot
            }
        };
        pool.write_bytes(slot.addr, &record);
        Ok((slot, len))
    }

    /// The newest valid metadata record, read from the pool slots; `None`
    /// if neither slot holds one.
    pub fn get_metadata(&self) -> Option<Vec<u8>> {
        let slots = self.inner.metadata.lock();
        newest_metadata(&self.inner.pool, &slots).map(|(_, _, body)| body)
    }

    /// Stop the background compactor and the merge workers (also happens
    /// on drop).
    pub fn shutdown(&self) {
        if let Some(mut gc) = self.gc.lock().take() {
            gc.shutdown();
        }
        self.merge.lock().shutdown();
    }
}

/// Bytes of a metadata slot's header: checksum, generation and body
/// length, one little-endian `u64` each. The checksum is `key_hash` over
/// the rest of the header and the body; generation 0 marks an empty slot.
const SLOT_HEADER: usize = 24;

/// One of the two pool slots holding the metadata record. A slot owns
/// whole cache lines, so persisting or losing one slot's lines never
/// touches the other's.
#[derive(Debug, Clone, Copy)]
struct MetadataSlot {
    /// The allocated block (the slot plus its alignment padding).
    block: PmAddr,
    /// First byte of the slot, line-aligned inside `block`.
    addr: PmAddr,
    /// Usable bytes, a whole number of lines.
    capacity: u64,
}

impl MetadataSlot {
    const LINE: u64 = 64;

    fn alloc(pool: &PmemPool, len: u64) -> Result<Self, PmemError> {
        let capacity = len.next_multiple_of(Self::LINE);
        let block = pool.alloc(capacity + Self::LINE - 8)?;
        Ok(MetadataSlot {
            block,
            addr: PmAddr(block.0.next_multiple_of(Self::LINE)),
            capacity,
        })
    }

    fn free(self, pool: &PmemPool) {
        pool.free(self.block, self.capacity + Self::LINE - 8);
    }

    /// The slot's `(generation, body)`, or `None` if it is empty, torn or
    /// corrupt.
    fn read(self, pool: &PmemPool) -> Option<(u64, Vec<u8>)> {
        let mut bytes = vec![0u8; self.capacity as usize];
        pool.read_bytes(self.addr, &mut bytes);
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..][..8].try_into().expect("8 bytes"));
        let (checksum, generation, len) = (word(0), word(1), word(2));
        let end = usize::try_from(len).ok()?.checked_add(SLOT_HEADER)?;
        if generation == 0 || end > bytes.len() || key_hash(&bytes[8..end]) != checksum {
            return None;
        }
        bytes.truncate(end);
        Some((generation, bytes.split_off(SLOT_HEADER)))
    }
}

/// The slot index, generation and body of the newest valid record among
/// `slots`.
fn newest_metadata(
    pool: &PmemPool,
    slots: &[Option<MetadataSlot>; 2],
) -> Option<(usize, u64, Vec<u8>)> {
    slots
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| {
            let (generation, body) = slot.as_ref()?.read(pool)?;
            Some((i, generation, body))
        })
        .max_by_key(|&(_, generation, _)| generation)
}

/// Outcome of a [`DpmNode::recover`] scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sealed entries (re-)merged during the scan.
    pub entries_recovered: u64,
    /// Torn entries discarded.
    pub torn_entries: u64,
    /// Index size after recovery.
    pub index_len_after: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::LogWriter;
    use dinomo_simnet::{FabricConfig, Nic};

    fn dpm() -> Arc<DpmNode> {
        Arc::new(DpmNode::new(DpmConfig::small_for_tests()).unwrap())
    }

    fn nic() -> Nic {
        Nic::new(FabricConfig::default())
    }

    #[test]
    fn stale_tombstone_does_not_remove_newer_put() {
        // A key written through two KNs (replication, reconfiguration)
        // merges on workers with no mutual order, so an older delete's
        // tombstone can merge after a newer acknowledged put. The Delete
        // arm must skip the removal (seq check, symmetric to the Put arm).
        let dpm = dpm();
        let nic = nic();
        let mut wa = LogWriter::new(Arc::clone(&dpm), 0, nic.clone());
        let mut wb = LogWriter::new(Arc::clone(&dpm), 1, nic.clone());
        wa.append_put(b"k", b"v1");
        wa.flush().unwrap();
        dpm.wait_until_merged(0);
        // Older delete (KN 0), newer put (KN 1)...
        wa.append_delete(b"k");
        wb.append_put(b"k", b"v2");
        // ...but the put merges first.
        wb.flush().unwrap();
        dpm.wait_until_merged(1);
        assert_eq!(dpm.local_read(b"k"), Some(b"v2".to_vec()));
        wa.flush().unwrap();
        dpm.wait_until_merged(0);
        assert_eq!(
            dpm.local_read(b"k"),
            Some(b"v2".to_vec()),
            "stale tombstone must not remove the newer acknowledged put"
        );
    }

    #[test]
    fn stale_put_does_not_resurrect_newer_delete() {
        // The mirror of `stale_tombstone_does_not_remove_newer_put`: a put
        // whose segment merge lags a newer delete's must not re-insert the
        // deleted key when it finally merges against an empty index slot.
        let dpm = dpm();
        let nic = nic();
        let mut wa = LogWriter::new(Arc::clone(&dpm), 0, nic.clone());
        let mut wb = LogWriter::new(Arc::clone(&dpm), 1, nic.clone());
        wa.append_put(b"k", b"v1");
        wa.flush().unwrap();
        dpm.wait_until_merged(0);
        // Older put (KN 0, merge lagging), newer delete (KN 1)...
        wa.append_put(b"k", b"v2");
        wb.append_delete(b"k");
        // ...and the delete merges first, removing the key.
        wb.flush().unwrap();
        dpm.wait_until_merged(1);
        assert_eq!(dpm.local_read(b"k"), None);
        wa.flush().unwrap();
        dpm.wait_until_merged(0);
        assert_eq!(
            dpm.local_read(b"k"),
            None,
            "stale put must not resurrect the acknowledged delete"
        );
        // A put *newer* than the delete re-inserts the key normally.
        wa.append_put(b"k", b"v3");
        wa.flush().unwrap();
        dpm.wait_until_merged(0);
        assert_eq!(dpm.local_read(b"k"), Some(b"v3".to_vec()));
    }

    #[test]
    fn write_merge_read_round_trip() {
        let dpm = dpm();
        let nic = nic();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic.clone());
        w.append_put(b"alpha", b"value-alpha");
        w.append_put(b"beta", b"value-beta");
        let commits = w.flush().unwrap();
        assert_eq!(commits.len(), 2);
        dpm.wait_until_merged(0);
        assert_eq!(dpm.local_read(b"alpha"), Some(b"value-alpha".to_vec()));
        assert_eq!(dpm.local_read(b"beta"), Some(b"value-beta".to_vec()));
        assert_eq!(dpm.local_read(b"gamma"), None);
        assert_eq!(dpm.stats().entries_merged, 2);
    }

    #[test]
    fn updates_supersede_and_deletes_remove() {
        let dpm = dpm();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        w.append_put(b"k", b"v1");
        w.flush().unwrap();
        dpm.wait_until_merged(0);
        w.append_put(b"k", b"v2");
        w.flush().unwrap();
        dpm.wait_until_merged(0);
        assert_eq!(dpm.local_read(b"k"), Some(b"v2".to_vec()));
        w.append_delete(b"k");
        w.flush().unwrap();
        dpm.wait_until_merged(0);
        assert_eq!(dpm.local_read(b"k"), None);
        assert_eq!(dpm.local_lookup(b"k"), None);
    }

    #[test]
    fn remote_read_counts_round_trips() {
        let dpm = dpm();
        let nic = nic();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic.clone());
        w.append_put(b"user0001", &[9u8; 128]);
        w.flush().unwrap();
        dpm.wait_until_merged(0);
        let before = nic.snapshot();
        let r = dpm.remote_read(&nic, b"user0001");
        assert_eq!(r.value, Some(vec![9u8; 128]));
        assert!(!r.indirect);
        assert!(r.rts >= 2, "index traversal plus entry read");
        let delta = nic.snapshot().since(&before);
        assert_eq!(delta.one_sided_reads, u64::from(r.rts));
        // Shortcut path costs exactly one RT.
        let (addr, len) = r.value_loc.unwrap();
        let before = nic.snapshot();
        assert_eq!(dpm.read_value_at(&nic, addr, len), vec![9u8; 128]);
        assert_eq!(nic.snapshot().since(&before).one_sided_reads, 1);
    }

    #[test]
    fn remote_read_of_missing_key_reports_miss() {
        let dpm = dpm();
        let nic = nic();
        let r = dpm.remote_read(&nic, b"missing");
        assert_eq!(r.value, None);
        assert!(r.rts >= 1);
    }

    #[test]
    fn batched_flush_uses_single_one_sided_write() {
        let dpm = dpm();
        let nic = nic();
        let mut w = LogWriter::new(Arc::clone(&dpm), 3, nic.clone());
        for i in 0..10u32 {
            w.append_put(format!("key{i}").as_bytes(), &[i as u8; 64]);
        }
        let before = nic.snapshot();
        let commits = w.flush().unwrap();
        let delta = nic.snapshot().since(&before);
        assert_eq!(commits.len(), 10);
        assert_eq!(delta.one_sided_writes, 1, "a batch is one one-sided write");
        // Committed writes carry usable value locations.
        dpm.wait_until_merged(3);
        for (i, c) in commits.iter().enumerate() {
            let v = dpm.read_value_at(&nic, c.value_addr, c.value_len);
            assert_eq!(v, vec![i as u8; 64]);
        }
    }

    #[test]
    fn segments_roll_over_and_track_unmerged_counts() {
        let dpm = dpm();
        let mut w = LogWriter::new(Arc::clone(&dpm), 1, nic());
        // Write enough to fill several 32 KiB segments.
        for i in 0..200u32 {
            w.append_put(format!("key{i:04}").as_bytes(), &[0u8; 512]);
            if w.buffered_bytes() > 4096 {
                w.flush().unwrap();
            }
        }
        w.flush().unwrap();
        dpm.wait_until_merged(1);
        assert!(dpm.stats().segments_allocated >= 2);
        assert_eq!(dpm.unmerged_segments(1), 0);
        for i in (0..200u32).step_by(17) {
            assert_eq!(
                dpm.local_read(format!("key{i:04}").as_bytes()),
                Some(vec![0u8; 512]),
                "key{i:04}"
            );
        }
    }

    #[test]
    fn gc_reclaims_fully_invalidated_segments() {
        let mut config = DpmConfig::small_for_tests();
        config.segment_bytes = 8 << 10;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        // Overwrite the same small key set many times so old segments become
        // fully invalid.
        for round in 0..40u32 {
            for i in 0..8u32 {
                w.append_put(format!("key{i}").as_bytes(), &[round as u8; 256]);
            }
            w.flush().unwrap();
        }
        w.seal_current();
        dpm.wait_until_merged(0);
        let before = dpm.stats().segments_allocated;
        let freed = dpm.run_gc();
        assert!(
            freed > 0,
            "expected some segments to be reclaimed (of {before})"
        );
        // Data is still readable after GC.
        for i in 0..8u32 {
            assert_eq!(
                dpm.local_read(format!("key{i}").as_bytes()),
                Some(vec![39u8; 256])
            );
        }
    }

    #[test]
    fn indirect_pointers_round_trip_and_cas() {
        let dpm = dpm();
        let nic = nic();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic.clone());
        w.append_put(b"hot", b"v1");
        w.flush().unwrap();
        dpm.wait_until_merged(0);

        let cell = dpm.make_indirect(b"hot").unwrap().unwrap();
        assert_eq!(dpm.indirect_cell_of(b"hot"), Some(cell));
        assert_eq!(dpm.stats().indirect_cells, 1);
        // Reads still work, now through the cell.
        assert_eq!(dpm.local_read(b"hot"), Some(b"v1".to_vec()));
        let r = dpm.remote_read(&nic, b"hot");
        assert!(r.indirect);
        assert_eq!(r.value, Some(b"v1".to_vec()));

        // A (replica) KN updates the shared key: log write + CAS on the cell.
        let old = dpm.remote_read_indirect(&nic, cell).unwrap();
        let commits = {
            let mut w2 = LogWriter::new(Arc::clone(&dpm), 1, nic.clone());
            w2.append_put(b"hot", b"v2");
            w2.flush().unwrap()
        };
        dpm.cas_indirect(&nic, cell, old, commits[0].entry_loc)
            .unwrap();
        assert_eq!(dpm.local_read(b"hot"), Some(b"v2".to_vec()));
        // A stale CAS fails and reports the current target.
        let err = dpm
            .cas_indirect(&nic, cell, old, commits[0].entry_loc)
            .unwrap_err();
        assert_eq!(err, commits[0].entry_loc);

        // Collapse back to a direct pointer.
        assert!(dpm.remove_indirect(b"hot"));
        assert!(!dpm.remove_indirect(b"hot"));
        assert_eq!(dpm.local_read(b"hot"), Some(b"v2".to_vec()));
        assert_eq!(dpm.stats().indirect_cells, 0);
    }

    #[test]
    fn make_indirect_on_missing_key_is_none() {
        let dpm = dpm();
        assert_eq!(dpm.make_indirect(b"nope").unwrap(), None);
    }

    #[test]
    fn recovery_replays_sealed_entries() {
        let dpm = dpm();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        for i in 0..20u32 {
            w.append_put(format!("key{i}").as_bytes(), &[7u8; 64]);
        }
        w.flush().unwrap();
        dpm.wait_until_merged(0);
        // Recovery is idempotent: re-running it changes nothing.
        let report = dpm.recover();
        assert_eq!(report.torn_entries, 0);
        assert_eq!(report.index_len_after, 20);
        assert_eq!(dpm.local_read(b"key3"), Some(vec![7u8; 64]));
        assert_eq!(dpm.stats().index_len, 20);
    }

    #[test]
    fn metadata_blobs_round_trip() {
        let dpm = dpm();
        assert_eq!(dpm.get_metadata(), None);
        dpm.put_metadata(b"ring-v1").unwrap();
        assert_eq!(dpm.get_metadata(), Some(b"ring-v1".to_vec()));
        dpm.put_metadata(b"ring-v2").unwrap();
        assert_eq!(dpm.get_metadata(), Some(b"ring-v2".to_vec()));
        let allocated = dpm.pool().stats().allocated_bytes;
        for i in 0..10 {
            dpm.put_metadata(format!("ring-v{i}").as_bytes()).unwrap();
        }
        assert_eq!(dpm.get_metadata(), Some(b"ring-v9".to_vec()));
        assert_eq!(dpm.pool().stats().allocated_bytes, allocated);
    }

    #[test]
    fn concurrent_kns_write_disjoint_keys() {
        let dpm = dpm();
        let mut handles = Vec::new();
        for kn in 0..4u32 {
            let dpm = Arc::clone(&dpm);
            handles.push(std::thread::spawn(move || {
                let mut w = LogWriter::new(Arc::clone(&dpm), kn, nic());
                for i in 0..100u32 {
                    w.append_put(format!("kn{kn}-key{i}").as_bytes(), &[kn as u8; 128]);
                    if w.buffered_bytes() > 2048 {
                        w.flush().unwrap();
                    }
                }
                w.flush().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        dpm.wait_until_all_merged();
        for kn in 0..4u32 {
            for i in (0..100u32).step_by(13) {
                assert_eq!(
                    dpm.local_read(format!("kn{kn}-key{i}").as_bytes()),
                    Some(vec![kn as u8; 128])
                );
            }
        }
        assert_eq!(dpm.stats().index_len, 400);
    }

    fn crash_dpm() -> Arc<DpmNode> {
        let mut config = DpmConfig::small_for_tests();
        // `simulate_crash` is a no-op unless the pool tracks persistence.
        config.pool.track_persistence = true;
        Arc::new(DpmNode::new(config).unwrap())
    }

    /// Flip one byte of metadata slot `i`'s body in the pool.
    fn corrupt_metadata_slot(dpm: &DpmNode, i: usize) {
        let slot = dpm.inner.metadata.lock()[i].expect("slot allocated");
        let at = slot.addr.offset(SLOT_HEADER as u64);
        let mut byte = [0u8];
        dpm.pool().read_bytes(at, &mut byte);
        dpm.pool().write_bytes(at, &[byte[0] ^ 0x40]);
        dpm.pool().persist(at, 1);
    }

    #[test]
    fn a_corrupted_newest_metadata_slot_falls_back_to_the_older_version() {
        let dpm = crash_dpm();
        dpm.put_metadata(b"table-v1").unwrap();
        dpm.put_metadata(b"table-v2").unwrap();
        // v1 went into slot 0, v2 into slot 1.
        corrupt_metadata_slot(&dpm, 1);
        assert_eq!(dpm.get_metadata(), Some(b"table-v1".to_vec()));
        // The next write replaces the corrupt slot, not the survivor.
        dpm.put_metadata(b"table-v3").unwrap();
        assert_eq!(dpm.get_metadata(), Some(b"table-v3".to_vec()));
        corrupt_metadata_slot(&dpm, 1);
        assert_eq!(dpm.get_metadata(), Some(b"table-v1".to_vec()));
    }

    #[test]
    fn two_corrupted_metadata_slots_read_none() {
        let dpm = crash_dpm();
        dpm.put_metadata(b"table-v1").unwrap();
        dpm.put_metadata(b"table-v2").unwrap();
        corrupt_metadata_slot(&dpm, 0);
        corrupt_metadata_slot(&dpm, 1);
        assert_eq!(dpm.get_metadata(), None);
    }

    #[test]
    fn an_unpersisted_metadata_write_reads_the_previous_version_after_a_crash() {
        let dpm = crash_dpm();
        dpm.put_metadata(b"table-v1").unwrap();
        dpm.put_metadata(b"table-v2").unwrap();
        // Written in place over v1's slot but never persisted.
        dpm.stage_metadata(&mut dpm.inner.metadata.lock(), b"table-v3")
            .unwrap();
        assert_eq!(dpm.get_metadata(), Some(b"table-v3".to_vec()));
        dpm.simulate_crash();
        assert_eq!(dpm.get_metadata(), Some(b"table-v2".to_vec()));
    }

    #[test]
    fn cell_swing_crash_leaves_key_direct_and_recoverable() {
        // Fail-stop between publishing an indirection cell and swinging
        // the index onto it: the durable-but-unreachable cell must be as
        // if it never existed — the key stays direct, survives the crash,
        // and a later replication installs a fresh cell cleanly.
        let dpm = crash_dpm();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        w.append_put(b"hot", b"v1");
        w.flush().unwrap();
        dpm.wait_until_merged(0);

        dpm.failpoints().arm("cell.before-swing", 1);
        let err = dpm.make_indirect(b"hot").unwrap_err();
        dpm.failpoints().disarm("cell.before-swing");
        assert_eq!(err, PmemError::InjectedFailure);
        assert_eq!(dpm.failpoints().fired("cell.before-swing"), 1);
        assert_eq!(dpm.indirect_cell_of(b"hot"), None, "the swing never ran");

        dpm.simulate_crash();
        let report = dpm.recover();
        assert_eq!(report.torn_entries, 0);
        assert_eq!(dpm.check_index(), Ok(1));
        assert_eq!(dpm.local_read(b"hot"), Some(b"v1".to_vec()));

        // And the abandoned attempt must not block a clean install.
        let cell = dpm.make_indirect(b"hot").unwrap().unwrap();
        assert_eq!(dpm.indirect_cell_of(b"hot"), Some(cell));
        assert_eq!(dpm.local_read(b"hot"), Some(b"v1".to_vec()));
    }

    #[test]
    fn double_recovery_is_a_no_op_and_keeps_accounting_honest() {
        // `recover()` must be idempotent — and, crucially, its re-merge
        // must not inflate segment merged-counters past `written`: an
        // owner appending to its still-open segment after recovery would
        // then look already-merged to `wait_until_merged` before the new
        // batch's merge actually applied (an acked write invisible at the
        // next reconfiguration's step 3).
        let dpm = crash_dpm();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        for i in 0..30u32 {
            w.append_put(format!("key{i:02}").as_bytes(), &[5u8; 64]);
        }
        w.flush().unwrap();
        dpm.wait_until_merged(0);

        dpm.simulate_crash();
        let first = dpm.recover();
        assert_eq!(dpm.check_index(), Ok(30));
        let second = dpm.recover();
        assert_eq!(first, second, "second recovery must change nothing");
        assert_eq!(dpm.check_index(), Ok(30));
        assert_eq!(dpm.local_read(b"key07"), Some(vec![5u8; 64]));

        // Post-recovery appends to the same (never sealed) segment must
        // still be seen as unmerged until their merge applies.
        w.append_put(b"key07", b"after-crash");
        w.flush().unwrap();
        dpm.wait_until_merged(0);
        assert_eq!(dpm.local_read(b"key07"), Some(b"after-crash".to_vec()));
        assert_eq!(dpm.unmerged_segments(0), 0);
    }

    #[test]
    fn recovery_skips_torn_tail_without_replaying_it() {
        // A power failure mid-append leaves a torn tail: the entry's body
        // made it to media but the trailing seal word's cache line never
        // persisted. Recovery must count it, not replay it.
        let dpm = crash_dpm();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        w.append_put(b"durable", b"v1");
        w.flush().unwrap();
        dpm.wait_until_merged(0);

        // Hand-craft the torn append in a fresh segment: write the full
        // entry, persist every cache line *before* the seal word's, then
        // crash — `simulate_crash` destroys the seal's dirty line.
        let seg = dpm.inner.allocate_segment_inner(1).unwrap();
        let mut buf = Vec::new();
        crate::entry::encode_entry(&mut buf, b"torn-key", &[9u8; 96], crate::LogOp::Put, 999);
        let offset = seg.record_append(buf.len() as u64, 1);
        let addr = seg.base.offset(offset);
        dpm.inner.pool.write_bytes(addr, &buf);
        let seal_addr = addr.offset(buf.len() as u64 - crate::entry::SEAL_BYTES);
        let seal_line_start = seal_addr.0 / 64 * 64;
        assert!(
            seal_line_start > addr.0,
            "entry sized so the seal gets its own line"
        );
        dpm.inner.pool.persist(addr, seal_line_start - addr.0);
        dpm.inner.pool.drain();

        dpm.simulate_crash();
        let report = dpm.recover();
        assert_eq!(report.torn_entries, 1);
        assert_eq!(
            dpm.local_read(b"torn-key"),
            None,
            "a torn entry holds no committed data and must not replay"
        );
        assert_eq!(dpm.local_read(b"durable"), Some(b"v1".to_vec()));
        assert_eq!(dpm.check_index(), Ok(1));
    }

    #[test]
    fn check_index_walks_direct_and_indirect_keys_across_a_crash() {
        let dpm = crash_dpm();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        for i in 0..40u32 {
            w.append_put(format!("key{i:02}").as_bytes(), &[3u8; 32]);
        }
        w.flush().unwrap();
        dpm.wait_until_merged(0);
        dpm.make_indirect(b"key05").unwrap().unwrap();
        assert_eq!(dpm.check_index(), Ok(40));

        dpm.simulate_crash();
        dpm.recover();
        assert_eq!(dpm.check_index(), Ok(40));
        assert_eq!(dpm.local_read(b"key05"), Some(vec![3u8; 32]));
    }

    /// Mutant: an index word pointing into a segment the collector freed.
    #[test]
    fn check_index_rejects_an_entry_in_a_freed_segment() {
        let mut config = DpmConfig::small_for_tests();
        config.segment_bytes = 8 << 10;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        let mut first = None;
        for round in 0..40u32 {
            for i in 0..8u32 {
                w.append_put(format!("key{i}").as_bytes(), &[round as u8; 256]);
            }
            let commits = w.flush().unwrap();
            first.get_or_insert(commits[0].entry_loc);
        }
        w.seal_current();
        dpm.wait_until_merged(0);
        let stale = first.unwrap();
        assert!(dpm.run_gc() > 0);
        assert!(
            !dpm.value_addr_is_live(stale.addr()),
            "key0's first segment is freed"
        );
        assert_eq!(dpm.check_index(), Ok(8));

        let tag = key_hash(b"key0");
        dpm.index().update(tag, |_| true, stale.raw()).unwrap();
        let err = dpm.check_index().unwrap_err();
        assert!(err.contains("not in a live segment"), "{err}");
    }

    /// Mutant: an index word whose entry holds a different key than the
    /// one it is indexed under.
    #[test]
    fn check_index_rejects_an_entry_indexed_under_another_key() {
        let dpm = dpm();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        w.append_put(b"a", b"1");
        w.append_put(b"b", b"2");
        let commits = w.flush().unwrap();
        dpm.wait_until_merged(0);
        assert_eq!(dpm.check_index(), Ok(2));

        let b_loc = commits[1].entry_loc;
        dpm.index()
            .update(key_hash(b"a"), |_| true, b_loc.raw())
            .unwrap();
        let err = dpm.check_index().unwrap_err();
        assert!(err.contains("indexed under tag"), "{err}");
    }
}
