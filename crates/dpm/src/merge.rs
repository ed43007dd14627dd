//! The asynchronous merge engine ("DPM processors").
//!
//! KVS nodes append batches of log entries with one-sided writes; the DPM's
//! limited compute capacity is spent off the critical path merging those
//! entries into the shared P-CLHT index.  Entries from one KN are merged in
//! write order (tasks are routed to a worker by KN id), while different KNs'
//! logs merge concurrently — exactly the concurrency contract §3.2 describes.

use crate::entry::{decode_entry, LogOp};
use crate::loc::PackedLoc;
use crate::node::DpmInner;
use crate::segment::SegmentState;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One unit of merge work: a contiguous byte range of a segment containing
/// `entries` committed entries.
#[derive(Debug, Clone)]
pub(crate) struct MergeTask {
    pub segment: Arc<SegmentState>,
    pub start: u64,
    pub len: u64,
}

/// Handle to the DPM processor threads.
#[derive(Debug)]
pub(crate) struct MergeEngine {
    senders: Vec<Sender<MergeTask>>,
    handles: Vec<JoinHandle<()>>,
}

impl MergeEngine {
    /// Spawn `threads` merge workers over the shared DPM state.
    pub(crate) fn start(inner: Arc<DpmInner>, threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for worker_id in 0..threads {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("dpm-merge-{worker_id}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("failed to spawn merge worker"),
            );
        }
        MergeEngine { senders, handles }
    }

    /// Route a task to the worker responsible for its owner KN (preserving
    /// per-KN merge order).
    pub(crate) fn submit(&self, task: MergeTask) {
        let idx = task.segment.owner_kn as usize % self.senders.len();
        // A send error means shutdown already started; dropping the task is
        // then fine (the recovery scan re-merges sealed entries).
        let _ = self.senders[idx].send(task);
    }

    /// Stop all workers and wait for them to exit.
    pub(crate) fn shutdown(&mut self) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for MergeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &DpmInner, rx: &Receiver<MergeTask>) {
    while let Ok(task) = rx.recv() {
        merge_task(inner, &task);
        inner.notify_merge_progress();
    }
}

/// Merge every entry in the task's byte range into the index.
pub(crate) fn merge_task(inner: &DpmInner, task: &MergeTask) {
    let pool = inner.pool();
    // One epoch pin for the whole task: every per-entry index lookup below
    // traverses under this guard instead of pinning per entry.
    let guard = dinomo_pclht::pin();
    let mut offset = task.start;
    let end = task.start + task.len;
    let mut merged_entries = 0u64;
    while offset < end {
        let addr = task.segment.base.offset(offset);
        let Some(entry) = decode_entry(pool, addr, end - offset) else {
            break;
        };
        if !entry.sealed {
            // Torn entry: everything after it in this batch is unusable.
            break;
        }
        apply_entry(inner, task, &guard, addr, &entry);
        offset += entry.total_len;
        merged_entries += 1;
    }
    task.segment.record_merged(task.len, merged_entries);
    inner.stats_entries_merged(merged_entries);
    inner.note_segment_settled(&task.segment);
}

/// Re-apply one sealed entry during a recovery scan: the merge worker's
/// application logic without the merged-counter bump — the caller floors
/// the segment's counters once per segment with
/// [`SegmentState::record_merged_at_least`], because a recovered entry
/// was usually merged before the crash and re-adding its bytes would let
/// `merged` outrun `written` (masking post-recovery appends as already
/// merged).
pub(crate) fn apply_recovered_entry(
    inner: &DpmInner,
    segment: &Arc<SegmentState>,
    guard: &dinomo_pclht::Guard,
    offset: u64,
    entry: &crate::entry::DecodedEntry,
) {
    let task = MergeTask {
        segment: Arc::clone(segment),
        start: offset,
        len: entry.total_len,
    };
    let addr = segment.base.offset(offset);
    apply_entry(inner, &task, guard, addr, entry);
}

fn apply_entry(
    inner: &DpmInner,
    task: &MergeTask,
    guard: &dinomo_pclht::Guard,
    entry_addr: dinomo_pmem::PmAddr,
    entry: &crate::entry::DecodedEntry,
) {
    let tag = dinomo_partition::key_hash(&entry.key);
    let key = entry.key.clone();
    match entry.header.op {
        LogOp::Put => {
            let new_loc = PackedLoc::direct(entry_addr, entry.total_len);
            let existing = inner
                .index()
                .get_in(guard, tag, |raw| inner.loc_matches_key(raw, &key));
            match existing {
                Some(raw) => {
                    let old = PackedLoc::from_raw(raw);
                    if old.is_indirect() {
                        // Shared key: the KN makes the entry reachable by
                        // CAS-ing the indirection cell, and that publish
                        // can lag this merge (the KN flushes, drops its
                        // shard lock, then swings). Judge staleness by seq
                        // against what the cell currently publishes: an
                        // entry at or below the published seq lost its
                        // race and is garbage; a *newer* entry's publish
                        // is still in flight and the entry must stay valid
                        // — invalidating it would let GC free its segment
                        // and the delayed swing would point the cell at
                        // freed bytes. (`publish_shared_put` invalidates
                        // the entry itself if the swing is later abandoned
                        // as stale, so nothing leaks.)
                        let cell_points_here =
                            inner.indirect_cell_target(old.addr()) == Some(new_loc);
                        if !cell_points_here {
                            match inner.cell_published_seq(old.addr()) {
                                Some(published) if published < entry.header.seq => {
                                    // Publish in flight: leave it valid.
                                }
                                _ => inner.invalidate_entry(new_loc),
                            }
                        }
                    } else if old == new_loc {
                        // Already merged (recovery re-merge): nothing to do.
                    } else if inner.entry_seq(old) >= Some(entry.header.seq) {
                        // The indexed entry is newer (recovery re-scans, or
                        // a key written through several KNs — replication,
                        // reconfiguration — whose segments merge on workers
                        // with no mutual order), or carries the *same* seq
                        // at a different address — which only a compactor
                        // relocation produces (appends draw unique global
                        // seqs): the indexed copy IS this record, so the
                        // record's address is the dead duplicate. Either
                        // way this one is stale. (`>` instead of `>=` let a
                        // recovery re-scan swing the index back onto a
                        // partially-compacted victim and mark the served
                        // copy invalid — a later GC would then free the
                        // segment the index pointed into.)
                        inner.invalidate_entry(new_loc);
                    } else {
                        inner.index().update(
                            tag,
                            |raw| inner.loc_matches_key(raw, &key),
                            new_loc.raw(),
                        );
                        inner.invalidate_entry(old);
                    }
                }
                None => {
                    if inner.tombstone_newer_than(&key, entry.header.seq) {
                        // A newer acknowledged delete already merged and
                        // removed the key (this put's segment lagged, e.g.
                        // written via another KN); inserting would
                        // resurrect the deleted key.
                        inner.invalidate_entry(new_loc);
                    } else {
                        // New key (or re-insert newer than any merged
                        // delete).
                        inner.forget_merged_tombstone(&key);
                        let _ = inner.index().insert(tag, new_loc.raw());
                    }
                }
            }
        }
        LogOp::Delete => {
            // Symmetric to the Put arm's staleness check: a key written
            // through several KNs (replication, reconfiguration) merges on
            // workers with no mutual order, so this tombstone may arrive
            // after a newer acknowledged put — removing unconditionally
            // would discard that write. Skip the removal when the indexed
            // state is newer than the tombstone.
            //
            // A key whose indexed state is an indirection cell stays
            // untouched: the deleting KN already published the tombstone
            // into the cell (seq-monotonic), which is exactly what shared
            // readers observe, and the *replicated ⇔ cell-installed*
            // invariant must hold until an explicit dereplication
            // dismantles the cell. (An earlier version removed the index
            // entry and released the cell here; the key then looked
            // "replicated but cell-less", shared reads fell back to
            // per-replica cached owned reads with no cross-replica
            // invalidation, and stale values flapped into view for
            // thousands of operations — caught by the `dinomo-check`
            // history checker under replication churn.)
            if let Some(raw) = inner.index().remove(tag, |raw| {
                !PackedLoc::from_raw(raw).is_indirect()
                    && inner.loc_matches_key(raw, &key)
                    && !inner.indexed_state_newer_than(raw, entry.header.seq)
            }) {
                inner.invalidate_entry(PackedLoc::from_raw(raw));
            }
            // Remember the delete so an older put merging later (lagging
            // segment, possibly another KN's) cannot re-insert the key.
            inner.record_merged_tombstone(&key, entry.header.seq);
            // The tombstone itself never needs to stay around.
            inner.invalidate_entry(PackedLoc::direct(entry_addr, entry.total_len));
        }
    }
    let _ = task;
}
