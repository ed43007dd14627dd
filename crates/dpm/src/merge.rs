//! The asynchronous merge engine ("DPM processors").
//!
//! KVS nodes append batches of log entries with one-sided writes; the DPM's
//! limited compute capacity is spent off the critical path merging those
//! entries into the shared P-CLHT index. Each of the `merge_threads`
//! workers is a `Worker` (`worker.rs`) with its own task queue. A flush
//! hands its task to worker `owner_kn % merge_threads` under that worker's
//! one lock, so entries from one KN are merged in write order, while
//! different KNs' logs merge concurrently — exactly the concurrency
//! contract §3.2 describes. A writer waiting for merge slack, or a caller
//! waiting for a KN's merges, waits on the owning worker's progress
//! signal.
//!
//! The merge of one entry is the cost the DPM's weak processors pay per
//! write, so it is one locked walk of the key's P-CLHT chain and no heap
//! allocation: the key is read into the worker's one buffer and compared
//! against indexed entries in the pool, the indexed entry's sequence
//! number comes from its header alone, and invalidation sets a bit under
//! the task's epoch pin. Recovery replays entries through the same
//! `apply_entry`.

use crate::entry::{decode_entry, DecodedEntry, LogOp};
use crate::loc::PackedLoc;
use crate::node::DpmInner;
use crate::segment::SegmentState;
use crate::worker::Worker;
use dinomo_pclht::{Guard, Upsert};
use dinomo_pmem::PmAddr;
use std::collections::VecDeque;
use std::sync::Arc;

/// One unit of merge work: a contiguous byte range of a segment containing
/// `entries` committed entries.
#[derive(Debug)]
pub(crate) struct MergeTask {
    pub segment: Arc<SegmentState>,
    pub start: u64,
    pub len: u64,
}

/// A DPM processor thread and its queue of submitted tasks.
pub(crate) type MergeWorker = Worker<VecDeque<MergeTask>>;

/// Thread body of a merge worker: one task per step, in submission order.
pub(crate) fn run_merge_worker(inner: &DpmInner, worker: &MergeWorker) {
    // The thread's one key buffer, reused by every entry it merges.
    let mut key = Vec::new();
    let mut step = || match worker.take(VecDeque::pop_front) {
        Some(task) => {
            merge_task(inner, &task, &mut key);
            true
        }
        None => false,
    };
    worker.run(&mut step);
    // Stopped: what was submitted before the stop still merges.
    while step() {}
}

/// Merge every entry in the task's byte range into the index, reading
/// each entry's key into `key`.
pub(crate) fn merge_task(inner: &DpmInner, task: &MergeTask, key: &mut Vec<u8>) {
    let pool = inner.pool();
    // One epoch pin for the whole task: every per-entry index lookup and
    // invalidation below runs under this guard instead of pinning per
    // entry.
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
        apply_entry(inner, &guard, addr, &entry, key);
        offset += entry.total_len;
        merged_entries += 1;
    }
    task.segment.record_merged(task.len, merged_entries);
    inner.stats_entries_merged(merged_entries);
    inner.note_segment_settled(&task.segment);
}

/// Apply one sealed entry at `entry_addr` to the index, reading its key
/// into `key` (a buffer the caller reuses across entries, so a merge
/// allocates nothing once it has held the longest key). The index write
/// is one locked walk of the key's chain ([`dinomo_pclht::Pclht::upsert_with`]
/// for a put, [`dinomo_pclht::Pclht::remove`] for a delete), which decides
/// against the entry the chain holds at that moment: a compactor
/// relocation that swings the indexed entry to its copy is either seen
/// and superseded, copy included, or has not happened yet and then fails.
///
/// It bumps no merged counter: a merge task counts its entries once per
/// task, and a recovery scan floors the segment's counters once per
/// segment with [`SegmentState::record_merged_at_least`], because a
/// recovered entry was usually merged before the crash and re-adding its
/// bytes would let `merged` outrun `written` (masking post-recovery
/// appends as already merged).
pub(crate) fn apply_entry(
    inner: &DpmInner,
    guard: &Guard,
    entry_addr: PmAddr,
    entry: &DecodedEntry,
    key: &mut Vec<u8>,
) {
    entry.read_key_into(inner.pool(), key);
    let key = key.as_slice();
    let tag = dinomo_partition::key_hash(key);
    let seq = entry.header.seq;
    let new_loc = entry.entry_loc(entry_addr);
    match entry.header.op {
        LogOp::Put => {
            // Set under the chain lock when the decision finds this entry
            // stale; invalidated once the lock is released.
            let mut stale = false;
            let outcome = inner.index().upsert_with(
                tag,
                |raw| inner.loc_matches_key(raw, key),
                |found| match found.map(PackedLoc::from_raw) {
                    Some(old) if old.is_indirect() => {
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
                        stale = !cell_points_here
                            && !matches!(
                                inner.cell_published_seq(old.addr()),
                                Some(published) if published < seq
                            );
                        None
                    }
                    // Already merged (recovery re-merge): nothing to do.
                    Some(old) if old == new_loc => None,
                    Some(old) if inner.entry_seq(old) >= Some(seq) => {
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
                        stale = true;
                        None
                    }
                    Some(_) => Some(new_loc.raw()),
                    None if inner.tombstone_newer_than(key, seq) => {
                        // A newer acknowledged delete already merged and
                        // removed the key (this put's segment lagged, e.g.
                        // written via another KN); inserting would
                        // resurrect the deleted key.
                        stale = true;
                        None
                    }
                    // New key (or re-insert newer than any merged delete).
                    None => Some(new_loc.raw()),
                },
            );
            match outcome {
                // The superseded entry — the very one the chain held, a
                // compactor's relocated copy included.
                Ok(Upsert::Replaced(old)) => {
                    inner.invalidate_entry(guard, PackedLoc::from_raw(old))
                }
                _ if stale => inner.invalidate_entry(guard, new_loc),
                _ => {}
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
                    && inner.loc_matches_key(raw, key)
                    && !inner.indexed_state_newer_than(raw, seq)
            }) {
                inner.invalidate_entry(guard, PackedLoc::from_raw(raw));
            }
            // Remember the delete so an older put merging later (lagging
            // segment, possibly another KN's) cannot re-insert the key.
            inner.record_merged_tombstone(key, seq);
            // The tombstone itself never needs to stay around.
            inner.invalidate_entry(guard, new_loc);
        }
    }
}
