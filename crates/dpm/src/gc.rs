//! The log-cleaning segment compactor.
//!
//! `DpmNode::run_gc` only frees a segment once *every* entry in it is
//! invalid, so under a skewed overwrite workload one long-lived key pins
//! its whole segment's bytes forever — space amplification grows with
//! write history instead of live data. This module adds the LFS/RAMCloud
//!-style cleaner that closes that gap:
//!
//! 1. **Debt** — a pass works only while the store's dead-byte debt is
//!    positive: allocated segment bytes beyond `live / (1 − dead_fraction)`
//!    (`GcConfig::dead_fraction` is a store-wide target, summed over the
//!    non-freed segments as `DpmNode::stats` sums them). It stops as soon
//!    as the debt is paid or its byte budget runs out, so cleaning work
//!    follows the dead bytes writers create, not a clock.
//! 2. **Victim selection** — sealed, fully-merged segments with any dead
//!    bytes are scored with the cost-benefit formula
//!    `dead_bytes × age ÷ live_bytes` (age is the segment-id distance from
//!    the newest segment, a logical clock: old, mostly-dead segments clean
//!    first because their survivors have proven long-lived).
//! 3. **Pinning** — a segment any indirection cell references (live target
//!    *or* the tombstoned-over entry a cell keeps for key identity) is
//!    skipped entirely. The reference is the segment's own pin count
//!    (`SegmentState::cell_pins`, incremented by a swing *before* it
//!    publishes the reference), so the check is one atomic load per
//!    victim — no global registry, no lock. A cell installed over an
//!    entry mid-relocation loses the per-entry index CAS race below and
//!    retries against the relocated location.
//! 4. **Relocation** — each live entry's bytes are copied *verbatim*
//!    (same key, value, op and — critically — the same global sequence
//!    number, so merge-engine staleness arbitration is unaffected) into
//!    the compactor's destination segment through the ordinary
//!    append-path plumbing (`allocate_segment` / `record_append`), pool
//!    to pool through the pass's one buffer (no allocation per entry, one
//!    fence), then the index is swung with a conditional single-word CAS
//!    ([`dinomo_pclht::Pclht::cas_value`]), decided under the chain lock
//!    a merge decides under. A concurrent put/merge/delete that supersedes
//!    the entry first makes the CAS fail; the fresh copy is then
//!    invalidated in place and the victim entry is left to whoever won.
//!    A merge that comes after the swing finds the copy, supersedes it and
//!    invalidates it.
//! 5. **Reclaim** — once every entry of the victim is invalid the segment
//!    is freed, with the pool free deferred through the epoch scheme so a
//!    reader that resolved a location just before the swing can still
//!    decode it (`DpmInner::free_segment_deferred`).
//!
//! Relocated entries never pass through the merge engine: the copy is
//! installed synchronously by the CAS and accounted merged on its
//! destination segment immediately, so destination segments are always
//! fully merged and themselves become ordinary GC victims once their
//! entries die.
//!
//! With `GcConfig::background` set, the compactor is a DPM processor
//! thread: a `Worker` (`worker.rs`) whose step is one pass. It parks until
//! a segment becomes eligible — its last merge task completes after it
//! was sealed, or it is sealed already fully merged — and then runs
//! passes back to back while they make progress. Each pass relocates at
//! most `GcConfig::max_pass_bytes`, the one throttle, so the collector
//! lock is released between passes. A pass that finds the debt paid, or
//! nothing it can move, makes no progress and the thread parks again.
//! `DpmNode::wait_until_compacted` wakes it and waits for such a burst to
//! end (`Kvs::quiesce` does, after the merges); a stopped compactor exits
//! at the next pass boundary. Without the thread, nothing compacts unless
//! a caller runs `DpmNode::compact_once`.
//!
//! # Reader guard contract
//!
//! The compactor frees victim segments *while readers run*. What makes
//! that safe is a two-part contract every reader must follow:
//!
//! * **Resolve, validate and read under one epoch pin.** A raw address
//!   obtained from the index (or a cached shortcut) is only meaningful
//!   relative to the [`Guard`](crate::Guard) that was live when it was
//!   resolved. Freed segment memory is returned to the pool via a
//!   deferred drop, so it cannot be reused while any guard from an
//!   earlier epoch is still pinned — a reader never observes recycled
//!   bytes.
//! * **Validate stale shortcuts, don't trust them.** The guard keeps the
//!   *bytes* alive, not the *location* current: a relocation can swing
//!   the index at any moment. [`DpmNode::value_addr_is_live_in`](crate::DpmNode::value_addr_is_live_in)
//!   (one epoch-protected binary search, no lock) is the check a reader
//!   runs before using a cached address; a `false` answer means re-look
//!   the key up, under the same guard.
//!
//! ```
//! use dinomo_dpm::{pin, DpmConfig, DpmNode, GcConfig, LogWriter};
//! use dinomo_simnet::{FabricConfig, Nic};
//! use std::sync::Arc;
//!
//! let mut config = DpmConfig::small_for_tests();
//! config.segment_bytes = 8 << 10;
//! config.gc = GcConfig { background: false, dead_fraction: 0.25, ..GcConfig::aggressive() };
//! let dpm = Arc::new(DpmNode::new(config).unwrap());
//!
//! // Skew-pinned log: every segment keeps one live key ("hot...") inside
//! // repeatedly-overwritten filler, the shape only the compactor reclaims.
//! let mut w = LogWriter::new(Arc::clone(&dpm), 0, Nic::new(FabricConfig::default()));
//! for round in 0..6u32 {
//!     w.append_put(format!("hot{round}").as_bytes(), &[0xA5; 64]);
//!     for i in 0..8u32 {
//!         w.append_put(format!("cold{i}").as_bytes(), &[round as u8; 512]);
//!     }
//!     w.flush().unwrap();
//! }
//! w.seal_current();
//! dpm.wait_until_merged(0);
//!
//! // Resolve an address under a pin; it is valid for this guard's lifetime.
//! let guard = pin();
//! let loc = dpm.local_lookup_in(&guard, b"hot0").expect("merged");
//! assert!(dpm.value_addr_is_live_in(&guard, loc.addr()));
//!
//! // Compaction relocates the hot keys and frees their old segments. The
//! // pool memory behind `loc` is *deferred*, not recycled — but the
//! // address is now stale, and the liveness check says so:
//! while dpm.compact_once().segments_compacted > 0 {}
//! assert!(!dpm.value_addr_is_live_in(&guard, loc.addr()));
//!
//! // The recovery move is a fresh lookup under the same guard: the key
//! // is still served, from its relocated home.
//! let relocated = dpm.local_lookup_in(&guard, b"hot0").expect("still indexed");
//! assert_ne!(relocated.addr(), loc.addr());
//! drop(guard); // now the old segment's bytes may actually be reused
//! ```

use crate::config::GcConfig;
use crate::entry::{decode_entry, DecodedEntry, HEADER_BYTES};
use crate::loc::PackedLoc;
use crate::node::DpmInner;
use crate::segment::SegmentState;
use crate::worker::Worker;
use dinomo_partition::key_hash;
use std::sync::Arc;

/// Owner id under which the compactor's destination segments are
/// registered. Never a real KVS node id, so destination segments are
/// invisible to per-KN merge bookkeeping (`unmerged_segments`,
/// `wait_until_merged`) — they are born fully merged.
pub const GC_OWNER_KN: u32 = u32::MAX;

/// What one compaction pass did (returned by `DpmNode::compact_once`; the
/// background thread aggregates the same counters into `DpmStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Victim candidates examined (sealed, fully merged, with dead bytes)
    /// before the debt was paid.
    pub victims_examined: u64,
    /// Victims fully emptied and freed by this pass.
    pub segments_compacted: u64,
    /// Candidates skipped because an indirection cell references one of
    /// their entries (live or tombstoned — the cell pin rule).
    pub segments_skipped_pinned: u64,
    /// Live entries relocated into destination segments.
    pub entries_relocated: u64,
    /// Live entries whose relocation lost to a concurrent put/merge/delete
    /// (the conditional CAS failed; the entry was left alone).
    pub entries_skipped_raced: u64,
    /// Bytes of live entries relocated.
    pub bytes_relocated: u64,
    /// `true` when the pass stopped early because the relocation byte
    /// budget (`GcConfig::max_pass_bytes`) ran out.
    pub budget_exhausted: bool,
    /// `true` when the pass was cut short by the `gc.after-relocate`
    /// crash-injection point (see [`crate::failpoint`]): the victim is
    /// left partially relocated, exactly as a mid-pass power failure
    /// would.
    pub crash_injected: bool,
}

/// Reserve `len` bytes in the compactor's destination segment, rolling
/// over (seal + allocate) when the current one is full. The destination
/// slot lives on `DpmInner` so successive passes fill one segment instead
/// of each stranding a near-empty one.
fn reserve_destination(
    inner: &Arc<DpmInner>,
    len: u64,
) -> Result<(Arc<SegmentState>, u64), dinomo_pmem::PmemError> {
    let mut slot = inner.gc_destination();
    if let Some(seg) = slot.as_ref() {
        if seg.remaining() >= len {
            let seg = Arc::clone(seg);
            let offset = seg.record_append(len, 1);
            return Ok((seg, offset));
        }
        seg.seal();
    }
    let seg = inner.allocate_segment_inner(GC_OWNER_KN)?;
    assert!(
        seg.capacity >= len,
        "entry larger than a fresh segment (writer enforces this bound)"
    );
    let offset = seg.record_append(len, 1);
    *slot = Some(Arc::clone(&seg));
    Ok((seg, offset))
}

/// How full the destination segment must be for a pass to seal it (see
/// [`seal_filled_destination`]).
const DESTINATION_SEAL_FRACTION: f64 = 0.5;

/// End-of-pass destination cut-off: once the reused destination segment
/// is at least [`DESTINATION_SEAL_FRACTION`] full, seal it and clear the
/// slot. Sealed (and already fully merged — relocations account
/// themselves merged) it becomes an ordinary segment that victim
/// selection can reclaim once its entries die; left unsealed it would pin
/// one unreclaimable segment per DPM forever.
fn seal_filled_destination(inner: &Arc<DpmInner>) {
    let mut slot = inner.gc_destination();
    if let Some(seg) = slot.as_ref() {
        let threshold = (seg.capacity as f64 * DESTINATION_SEAL_FRACTION) as u64;
        if seg.entries_written() > 0 && seg.written() >= threshold {
            seg.seal();
            *slot = None;
        }
    }
}

/// The store's dead-byte debt against `gc.dead_fraction`: allocated
/// segment bytes beyond `live / (1 − dead_fraction)`. Positive means a pass
/// has work; a target of 1.0 or more never does.
fn dead_byte_debt(inner: &DpmInner, gc: &GcConfig) -> f64 {
    let (_, live, allocated) = inner.space_usage();
    allocated as f64 - live as f64 / (1.0 - gc.dead_fraction).max(0.0)
}

/// Run one compaction pass over the DPM (see the module docs for the
/// algorithm). Serialized against concurrent passes by
/// `DpmInner::gc_pass_lock`.
pub(crate) fn compact_pass(inner: &Arc<DpmInner>, gc: &GcConfig) -> CompactionReport {
    let _pass = inner.lock_gc_pass();
    let report = compact_pass_locked(inner, gc);
    seal_filled_destination(inner);
    report
}

fn compact_pass_locked(inner: &Arc<DpmInner>, gc: &GcConfig) -> CompactionReport {
    let mut report = CompactionReport::default();
    let mut budget = gc.max_pass_bytes;
    // The pass's one copy buffer: every relocation reads its entry into it
    // and writes it out from it.
    let mut buf = Vec::new();

    // Victim selection: cost-benefit score over the eligible segments.
    // `next_segment_id_hint` is the logical "now" the age term measures
    // against. The destination segment is unsealed, so it can never select
    // itself.
    let now = inner.next_segment_id_hint();
    let mut victims: Vec<(f64, Arc<SegmentState>)> = inner
        .segments_snapshot()
        .into_iter()
        .filter(|s| s.is_sealed() && s.is_fully_merged() && !s.is_freed() && s.dead_bytes() > 0)
        .map(|s| {
            let age = now.saturating_sub(s.id).max(1) as f64;
            let score = s.dead_bytes() as f64 * age / (s.live_bytes() + 1) as f64;
            (score, s)
        })
        .collect();
    victims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    for (_, victim) in victims {
        // Re-measured per victim: each free pays part of the debt, and
        // every destination segment the pass opens adds to it.
        if dead_byte_debt(inner, gc) <= 0.0 {
            break;
        }
        report.victims_examined += 1;
        // Wholesale pinned pre-check (cheap skip for the common case —
        // the authoritative checks are per entry and at free time below).
        // `run_gc` takes the pass lock too, so no other collector can
        // free a victim while this pass scans it; the freed re-check is
        // belt and braces.
        if victim.is_freed() {
            continue;
        }
        if victim.cell_pins() > 0 {
            report.segments_skipped_pinned += 1;
            continue;
        }

        let pool = inner.pool();
        let written = victim.written();
        let mut offset = 0u64;
        while offset < written {
            let Some(entry) = decode_entry(pool, victim.base.offset(offset), written - offset)
            else {
                break;
            };
            let entry_len = entry.total_len;
            if !entry.sealed || victim.is_offset_invalid(offset) {
                offset += entry_len;
                continue;
            }
            // Live entry. Respect the pass's relocation byte budget.
            if budget < entry_len {
                report.budget_exhausted = true;
                return report;
            }
            match relocate_entry(inner, &victim, offset, &entry, &mut buf) {
                Relocation::Moved => {
                    budget -= entry_len;
                    report.entries_relocated += 1;
                    report.bytes_relocated += entry_len;
                    // Simulated fail-stop mid-pass: one entry has been
                    // copied and swung, the rest of the victim has not.
                    // Stop here and leave the pass half done — the
                    // crash/recover sequence must cope with exactly this
                    // state.
                    if inner.failpoints().hit("gc.after-relocate") {
                        report.crash_injected = true;
                        return report;
                    }
                }
                Relocation::Raced => report.entries_skipped_raced += 1,
                Relocation::NoSpace => {
                    // Pool exhausted: stop cleaning rather than fail
                    // loudly — foreground writers will surface the
                    // allocation error.
                    report.budget_exhausted = true;
                    return report;
                }
            }
            offset += entry_len;
        }

        // Free under a fresh pin read: a cell may have been installed
        // over (or tombstoned onto) one of the victim's entries while the
        // scan ran entry by entry. A swing pins before it publishes, so a
        // zero count here means any concurrent install will fail its index
        // CAS (the entry is invalid/relocated) and withdraw its pin.
        if victim.cell_pins() == 0
            && victim.is_reclaimable()
            && inner.free_segment_deferred(&victim)
        {
            report.segments_compacted += 1;
            inner.record_segment_compacted();
        }
    }
    report
}

/// What became of one live entry a pass tried to relocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Relocation {
    /// Copied, swung and accounted; the observer has been told.
    Moved,
    /// No longer what the index serves (a concurrent put, merge, delete or
    /// cell install won); left to the winner.
    Raced,
    /// The pool has no room for a destination segment.
    NoSpace,
}

/// Relocate the live `entry` at `offset` of `victim` into the compactor's
/// destination segment, copying pool to pool through `buf` (the pass's one
/// buffer, which it reuses from entry to entry, so a relocation allocates
/// nothing once it has held the longest entry).
pub(crate) fn relocate_entry(
    inner: &Arc<DpmInner>,
    victim: &SegmentState,
    offset: u64,
    entry: &DecodedEntry,
    buf: &mut Vec<u8>,
) -> Relocation {
    let pool = inner.pool();
    let addr = victim.base.offset(offset);
    let entry_len = entry.total_len;
    let old_loc = PackedLoc::direct(addr, entry_len);
    buf.clear();
    buf.resize(entry_len as usize, 0);
    pool.read_bytes(addr, buf);
    let key = &buf[HEADER_BYTES as usize..][..entry.header.key_len as usize];
    let tag = key_hash(key);
    // Cheap pre-check before paying for the copy: is this entry still what
    // the index serves? (A concurrent merge that superseded it also
    // invalidated it, possibly after the caller's `is_offset_invalid`
    // read; a shared put whose cell publish is pending is valid but not
    // indexed.)
    if inner.index().get(tag, |raw| raw == old_loc.raw()).is_none() {
        return Relocation::Raced;
    }
    // Verbatim copy through the append-path plumbing. Preserving the entry
    // bytes preserves its sequence number: a relocation must not look
    // "newer" than a racing put that drew a later seq, or merge arbitration
    // would discard the acked write (and the merge engine treats
    // same-seq-different-address as "the index already serves this
    // record"). Copying needs no lock: only collectors free segment bytes,
    // and the pass lock excludes them; if a concurrent write supersedes the
    // entry mid-copy, the CAS below fails and the copy is discarded.
    let Ok((dst, dst_offset)) = reserve_destination(inner, entry_len) else {
        return Relocation::NoSpace;
    };
    let new_addr = dst.base.offset(dst_offset);
    pool.write_bytes(new_addr, buf);
    pool.persist(new_addr, entry_len);
    pool.drain();
    // The copy is installed by the CAS below, never merged: account it
    // merged now so destination segments stay fully merged (and can later
    // be selected as victims themselves).
    dst.record_merged(entry_len, 1);
    let new_loc = PackedLoc::direct(new_addr, entry_len);
    // The conditional index swing is the whole synchronization: it decides
    // under the chain's lock against the value the slot holds. A merge of
    // a newer put decides under the same lock, so it either supersedes the
    // entry first (this swing fails) or finds the copy and supersedes that.
    // `make_indirect` pins the victim's segment and then swings the index
    // conditioned on the exact location it read, so a cell install either
    // lands *before* this swing (it fails — the index holds the indirect
    // location) or loses its own update (the index holds `new_loc`) and
    // retries against the relocated copy. No half-relocated state is
    // observable, and shared-key writes never stall behind the copy.
    if !inner.index().cas_value(tag, old_loc.raw(), new_loc.raw()) {
        // The fresh copy is unreachable garbage; the victim entry now
        // belongs to whoever won.
        dst.record_invalidated(dst_offset, entry_len);
        return Relocation::Raced;
    }
    victim.record_invalidated(offset, entry_len);
    // Make caches holding shortcuts into the victim drop them before the
    // segment is freed (the observer takes KN shard locks — deliberately
    // outside the registry critical section).
    inner.notify_relocated(key, old_loc);
    Relocation::Moved
}

/// Thread body of the background compactor: one pass per step, a step
/// making progress while its pass relocates or frees anything.
pub(crate) fn run_compactor(inner: &Arc<DpmInner>, worker: &Worker) {
    let gc = inner.config().gc;
    worker.run(|| {
        let report = compact_pass(inner, &gc);
        report.segments_compacted > 0 || report.entries_relocated > 0
    });
}

#[cfg(test)]
mod tests {
    use super::GC_OWNER_KN;
    use crate::config::{DpmConfig, GcConfig};
    use crate::node::DpmNode;
    use crate::writer::LogWriter;
    use dinomo_simnet::{FabricConfig, Nic};
    use std::sync::Arc;

    fn gc_config() -> DpmConfig {
        let mut config = DpmConfig::small_for_tests();
        config.segment_bytes = 8 << 10;
        config.gc = GcConfig {
            background: false,
            dead_fraction: 0.25,
            ..GcConfig::aggressive()
        };
        config
    }

    fn nic() -> Nic {
        Nic::new(FabricConfig::default())
    }

    /// Interleave one never-overwritten ("hot live") key into each
    /// segment's worth of repeatedly-overwritten filler, so every sealed
    /// segment keeps exactly a few live bytes — the skew-pinned shape
    /// `run_gc` can never reclaim.
    fn write_skew_pinned(dpm: &Arc<DpmNode>, rounds: u32) -> Vec<Vec<u8>> {
        let mut w = LogWriter::new(Arc::clone(dpm), 0, nic());
        let mut pinned_keys = Vec::new();
        for round in 0..rounds {
            let hot = format!("hot{round:04}").into_bytes();
            w.append_put(&hot, &[0xA5; 64]);
            pinned_keys.push(hot);
            // Enough filler to fill (at least) one 8 KiB segment per round;
            // the same filler keys every round, so all but the last round's
            // copies are dead.
            for i in 0..8u32 {
                w.append_put(format!("cold{i}").as_bytes(), &[round as u8; 512]);
            }
            w.flush().unwrap();
        }
        w.seal_current();
        dpm.wait_until_merged(0);
        pinned_keys
    }

    #[test]
    fn compactor_reclaims_segments_run_gc_cannot() {
        let dpm = Arc::new(DpmNode::new(gc_config()).unwrap());
        let pinned_keys = write_skew_pinned(&dpm, 30);

        // Every sealed segment holds one live hot key: the all-dead policy
        // reclaims nothing.
        let before = dpm.stats();
        assert!(before.segments_allocated >= 10, "{before:?}");
        assert_eq!(
            dpm.run_gc(),
            0,
            "run_gc must be unable to reclaim skew-pinned segments"
        );

        // The compactor relocates the survivors and frees the victims.
        let mut compacted = 0;
        for _ in 0..8 {
            compacted += dpm.compact_once().segments_compacted;
        }
        assert!(compacted > 0, "compactor freed nothing: {:?}", dpm.stats());
        let after = dpm.stats();
        assert!(
            after.segments_allocated < before.segments_allocated / 2,
            "expected most segments reclaimed: {before:?} -> {after:?}"
        );
        assert!(after.entries_relocated > 0);
        assert!(after.bytes_relocated > 0);
        // Space amplification is now bounded: the live data (30 hot keys +
        // 8 filler keys) fits in a handful of segments.
        assert!(
            after.segment_bytes_allocated <= 6 * (8 << 10),
            "footprint must be proportional to live data: {after:?}"
        );

        // Every read still returns the live value, through the relocated
        // entries.
        for key in &pinned_keys {
            assert_eq!(
                dpm.local_read(key),
                Some(vec![0xA5; 64]),
                "{}",
                String::from_utf8_lossy(key)
            );
        }
        for i in 0..8u32 {
            assert_eq!(
                dpm.local_read(format!("cold{i}").as_bytes()),
                Some(vec![29u8; 512])
            );
        }
    }

    #[test]
    fn mid_compaction_crash_recovers_with_partial_relocation() {
        // Fail-stop right after the compactor copied and swung one live
        // entry, leaving the victim half-relocated (`gc.after-relocate`).
        // The relocated copy was persisted before the swing, so after the
        // crash both copies are on media with the same seq; recovery's
        // re-merge must serve every key correctly (same-seq arbitration
        // keeps the indexed copy), the index must pass the invariant walk,
        // and a later pass must finish the job.
        let mut config = gc_config();
        config.pool.track_persistence = true;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        let pinned_keys = write_skew_pinned(&dpm, 12);

        dpm.failpoints().arm("gc.after-relocate", 1);
        let report = dpm.compact_once();
        dpm.failpoints().disarm("gc.after-relocate");
        assert!(
            report.crash_injected,
            "no victim had a live entry to relocate: {report:?}"
        );
        assert_eq!(report.entries_relocated, 1);
        assert_eq!(
            report.segments_compacted, 0,
            "the pass must have aborted before freeing the victim"
        );

        dpm.simulate_crash();
        let rec = dpm.recover();
        assert_eq!(rec.torn_entries, 0);
        dpm.check_index().unwrap();

        for key in &pinned_keys {
            assert_eq!(
                dpm.local_read(key),
                Some(vec![0xA5; 64]),
                "{} lost across mid-compaction crash",
                String::from_utf8_lossy(key)
            );
        }
        for i in 0..8u32 {
            assert_eq!(
                dpm.local_read(format!("cold{i}").as_bytes()),
                Some(vec![11u8; 512])
            );
        }

        // The interrupted victim is still ordinary state: compaction can
        // resume and reclaim it after recovery.
        let mut compacted = 0;
        for _ in 0..8 {
            compacted += dpm.compact_once().segments_compacted;
        }
        assert!(
            compacted > 0,
            "compaction must finish after recovery: {:?}",
            dpm.stats()
        );
        for key in &pinned_keys {
            assert_eq!(dpm.local_read(key), Some(vec![0xA5; 64]));
        }
        dpm.check_index().unwrap();
    }

    #[test]
    fn relocated_entries_keep_their_sequence_numbers() {
        // A relocation must be invisible to merge arbitration: the copy
        // carries the original seq, so a *later* overwrite (newer seq)
        // still wins against it after compaction.
        let dpm = Arc::new(DpmNode::new(gc_config()).unwrap());
        write_skew_pinned(&dpm, 10);
        while dpm.compact_once().segments_compacted > 0 {}
        let mut w = LogWriter::new(Arc::clone(&dpm), 1, nic());
        w.append_put(b"hot0003", b"newer");
        w.flush().unwrap();
        w.seal_current();
        dpm.wait_until_merged(1);
        assert_eq!(dpm.local_read(b"hot0003"), Some(b"newer".to_vec()));
    }

    #[test]
    fn cell_referenced_entries_are_never_relocated_or_freed() {
        // The ROADMAP PR 4 hazard, both halves. A live indirection cell
        // pins its target's segment against relocation; a *tombstoned*
        // cell keeps the dead entry's address for key identity, so even a
        // fully-invalidated segment must survive until `remove_indirect`
        // dismantles the cell.
        let dpm = Arc::new(DpmNode::new(gc_config()).unwrap());
        let nic = nic();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic.clone());
        // "shared" plus filler in one segment; the filler is overwritten
        // from a later segment, so the first segment is mostly dead with
        // one live (and soon pinned) entry — a prime compaction victim.
        w.append_put(b"shared", &[7u8; 64]);
        for i in 0..8u32 {
            w.append_put(format!("fill{i}").as_bytes(), &[0u8; 512]);
        }
        w.flush().unwrap();
        for i in 0..8u32 {
            w.append_put(format!("fill{i}").as_bytes(), &[1u8; 512]);
        }
        w.flush().unwrap();
        w.seal_current();
        dpm.wait_until_merged(0);
        let cell = dpm.make_indirect(b"shared").unwrap().unwrap();
        let segments_before = dpm.stats().segments_allocated;

        // Live cell: the victim holds a live, pinned entry — the
        // compactor must skip the segment wholesale.
        let report = dpm.compact_once();
        assert!(report.segments_skipped_pinned >= 1, "{report:?}");
        assert_eq!(report.segments_compacted, 0, "{report:?}");
        assert_eq!(dpm.stats().segments_allocated, segments_before);
        assert_eq!(dpm.local_read(b"shared"), Some(vec![7u8; 64]));

        // Tombstone the cell (a shared-path delete): the entry is now
        // invalid — the segment is fully dead by the counters — but the
        // cell still references the entry's address for key identity.
        let del_seq = dpm.next_seq();
        dpm.publish_shared_delete(&nic, cell, del_seq);
        assert_eq!(dpm.local_read(b"shared"), None);
        assert_eq!(
            dpm.run_gc(),
            0,
            "run_gc must not free a segment a tombstoned cell references"
        );
        let report = dpm.compact_once();
        assert_eq!(report.segments_compacted, 0, "{report:?}");
        assert!(report.segments_skipped_pinned >= 1, "{report:?}");
        assert_eq!(dpm.stats().segments_allocated, segments_before);

        // Dismantling the cell unpins the entry; the segment reclaims.
        assert!(dpm.remove_indirect(b"shared"));
        assert!(dpm.run_gc() >= 1);
        assert!(dpm.stats().segments_allocated < segments_before);
        assert_eq!(dpm.local_read(b"shared"), None);
    }

    #[test]
    fn lagging_shared_publish_neither_loses_its_entry_nor_leaks_it() {
        // A shared-path put flushes, its record merges, and only then does
        // the cell CAS run (the KN drops its shard lock between the two).
        // The merge must keep the newer-than-published entry valid — an
        // invalidated entry's segment could be freed before the swing,
        // pointing the cell at dead bytes — and an ultimately *abandoned*
        // publish (lost to newer state) must invalidate the entry so its
        // segment can still reclaim.
        let dpm = Arc::new(DpmNode::new(gc_config()).unwrap());
        let nic = nic();
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic.clone());
        w.append_put(b"shared", b"v0");
        w.flush().unwrap();
        dpm.wait_until_merged(0);
        let cell = dpm.make_indirect(b"shared").unwrap().unwrap();

        // Flush + merge v1 with its publish still pending.
        let seq1 = w.append_put(b"shared", b"v1");
        let loc1 = w.flush().unwrap()[0].entry_loc;
        w.seal_current();
        dpm.wait_until_merged(0);
        // GC runs in the gap: the unpublished entry must survive both
        // collectors (it is live by the seq-vs-published rule).
        dpm.run_gc();
        dpm.compact_once();
        assert_eq!(dpm.local_read(b"shared"), Some(b"v0".to_vec()));
        assert!(
            dpm.publish_shared_put(&nic, cell, loc1, seq1),
            "delayed publish must still succeed"
        );
        assert_eq!(
            dpm.local_read(b"shared"),
            Some(b"v1".to_vec()),
            "published bytes must be intact (segment not reclaimed)"
        );

        // Abandoned publish: v2 (older seq) merges unpublished, v3 (newer)
        // publishes first; v2's late swing must fail *and* invalidate v2.
        let seq2 = w.append_put(b"shared", b"v2");
        let loc2 = w.flush().unwrap()[0].entry_loc;
        let seq3 = w.append_put(b"shared", b"v3");
        let loc3 = w.flush().unwrap()[0].entry_loc;
        w.seal_current();
        dpm.wait_until_merged(0);
        assert!(dpm.publish_shared_put(&nic, cell, loc3, seq3));
        let live_before = dpm.stats().live_bytes;
        assert!(
            !dpm.publish_shared_put(&nic, cell, loc2, seq2),
            "stale publish must be refused"
        );
        assert!(
            dpm.stats().live_bytes < live_before,
            "abandoned entry must be invalidated so its segment can reclaim"
        );
        assert_eq!(dpm.local_read(b"shared"), Some(b"v3".to_vec()));
    }

    #[test]
    fn background_compactor_reclaims_while_writers_run() {
        let mut config = gc_config();
        config.gc.background = true;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        let keys = write_skew_pinned(&dpm, 20);
        // The background thread, woken by the writer's seals and the merge
        // completions, must reclaim without any synchronous hook being
        // called.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while dpm.stats().segments_compacted == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "background compactor made no progress: {:?}",
                dpm.stats()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        for key in &keys {
            assert_eq!(dpm.local_read(key), Some(vec![0xA5; 64]));
        }
        dpm.shutdown();
    }

    #[test]
    fn wait_until_compacted_returns_with_nothing_left_to_clean() {
        let mut config = gc_config();
        config.gc.background = true;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        write_skew_pinned(&dpm, 20);
        dpm.wait_until_compacted();
        assert!(dpm.stats().segments_compacted > 0, "{:?}", dpm.stats());
        let report = dpm.compact_once();
        assert_eq!(
            (report.segments_compacted, report.entries_relocated),
            (0, 0),
            "the background burst left work behind: {report:?}"
        );
        dpm.shutdown();
        dpm.wait_until_compacted();

        // Without a background compactor there is nothing to wait for.
        let dpm = Arc::new(DpmNode::new(gc_config()).unwrap());
        write_skew_pinned(&dpm, 4);
        dpm.wait_until_compacted();
        assert_eq!(dpm.stats().segments_compacted, 0);
    }

    #[test]
    fn recovery_after_partial_compaction_keeps_index_and_accounting_consistent() {
        // A relocation duplicates an entry's seq at two addresses.
        // recover()'s re-merge must treat the duplicate as already merged
        // (same seq ⇒ the index already serves this record) — the old
        // strict `>` staleness guard ping-ponged the index between the
        // copies and left the *served* copy recorded invalid in its
        // segment, so a later GC could free the segment the index pointed
        // into.
        let mut config = gc_config();
        // Budget for exactly one 104-byte hot entry: the pass must stop
        // *mid-victim*, so a victim original and its relocated duplicate
        // coexist when recovery re-scans.
        config.gc.max_pass_bytes = 120;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        // One segment holding two live hot entries plus filler that a later
        // segment's overwrites kill — a victim the 120-byte budget can only
        // half-compact.
        w.append_put(b"hotaaaa", &[0xA5; 64]);
        w.append_put(b"hotbbbb", &[0xA5; 64]);
        for i in 0..8u32 {
            w.append_put(format!("cold{i}").as_bytes(), &[0u8; 512]);
        }
        w.flush().unwrap();
        for i in 0..8u32 {
            w.append_put(format!("cold{i}").as_bytes(), &[1u8; 512]);
        }
        w.flush().unwrap();
        w.seal_current();
        dpm.wait_until_merged(0);
        let report = dpm.compact_once();
        assert!(
            report.budget_exhausted && report.entries_relocated == 1,
            "the pass must stop mid-victim: {report:?}"
        );
        assert_eq!(report.segments_compacted, 0, "{report:?}");

        let live_before = dpm.stats().live_bytes;
        let recovered = dpm.recover();
        assert!(recovered.entries_recovered > 0);
        assert_eq!(
            dpm.stats().live_bytes,
            live_before,
            "recovery must not invalidate entries the index serves"
        );
        assert_eq!(dpm.local_read(b"hotaaaa"), Some(vec![0xA5; 64]));
        assert_eq!(dpm.local_read(b"hotbbbb"), Some(vec![0xA5; 64]));
        // Full compaction + GC afterwards keeps everything readable.
        while dpm.compact_once().segments_compacted > 0 {}
        dpm.run_gc();
        assert_eq!(dpm.local_read(b"hotaaaa"), Some(vec![0xA5; 64]));
        assert_eq!(dpm.local_read(b"hotbbbb"), Some(vec![0xA5; 64]));
        for i in 0..8u32 {
            assert_eq!(
                dpm.local_read(format!("cold{i}").as_bytes()),
                Some(vec![1u8; 512])
            );
        }
    }

    #[test]
    fn store_at_or_under_target_is_left_alone() {
        // Dead bytes alone are no reason to relocate: at a 99 % dead-share
        // target this skew-pinned store has no debt, so a pass moves and
        // frees nothing although every segment but the last is a victim
        // candidate.
        let mut config = gc_config();
        config.gc.dead_fraction = 0.99;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        write_skew_pinned(&dpm, 6);
        let before = dpm.stats();
        assert!(
            before.live_bytes < before.segment_bytes_allocated / 2,
            "{before:?}"
        );
        assert!(
            before.segment_bytes_allocated as f64 <= before.live_bytes as f64 / (1.0 - 0.99),
            "{before:?}"
        );
        let report = dpm.compact_once();
        assert_eq!(report.entries_relocated, 0, "{report:?}");
        assert_eq!(report.segments_compacted, 0, "{report:?}");
        assert_eq!(dpm.stats(), before);
    }

    #[test]
    fn one_pass_pays_the_debt_and_stops() {
        // Far over a 90 % target: one unbudgeted pass frees victims in
        // cost-benefit order until allocated bytes are back at
        // `live / (1 − dead_fraction)` (within one segment), and stops
        // there instead of cleaning every segment with a dead byte.
        const ROUNDS: u32 = 30;
        let mut config = gc_config();
        config.gc.dead_fraction = 0.9;
        let segment_bytes = config.segment_bytes;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        let pinned_keys = write_skew_pinned(&dpm, ROUNDS);
        let before = dpm.stats();
        // One round per segment; the last round's filler is live, so the
        // other `ROUNDS - 1` segments each hold dead bytes.
        assert_eq!(before.segments_allocated, u64::from(ROUNDS), "{before:?}");
        let target = |s: &crate::DpmStats| s.live_bytes as f64 / (1.0 - 0.9);
        assert!(before.segment_bytes_allocated as f64 > 2.0 * target(&before));

        let report = dpm.compact_once();
        assert!(!report.budget_exhausted, "{report:?}");
        let after = dpm.stats();
        assert!(
            after.segment_bytes_allocated as f64 <= target(&after) + segment_bytes as f64,
            "debt left unpaid: {report:?} {after:?}"
        );
        assert!(report.segments_compacted > 0, "{report:?}");
        assert!(
            report.segments_compacted < u64::from(ROUNDS - 1),
            "the pass cleaned every candidate instead of stopping at the target: {report:?}"
        );
        for key in &pinned_keys {
            assert_eq!(dpm.local_read(key), Some(vec![0xA5; 64]));
        }
        // Paid up: the next pass has nothing to do.
        let again = dpm.compact_once();
        assert_eq!(
            again.entries_relocated + again.segments_compacted,
            0,
            "{again:?}"
        );
    }

    #[test]
    fn lightly_dead_segments_are_victims_while_in_debt() {
        // Each segment holds 8 live entries and 3 that the next round
        // overwrites: about a quarter dead, far under the old per-segment
        // 0.5 gate that let `write_mix` outgrow its compactor. Under a
        // 12 % store-wide target they are still victims.
        let mut config = gc_config();
        config.gc.dead_fraction = 0.12;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        for round in 0..10u32 {
            for i in 0..8u32 {
                w.append_put(format!("live{round}.{i}").as_bytes(), &[1; 512]);
            }
            for i in 0..3u32 {
                w.append_put(format!("cold{i}").as_bytes(), &[round as u8; 512]);
            }
            w.flush().unwrap();
        }
        w.seal_current();
        dpm.wait_until_merged(0);
        let before = dpm.stats();
        assert!(
            before.live_bytes > before.segment_bytes_allocated / 2,
            "{before:?}"
        );

        let report = dpm.compact_once();
        assert!(report.segments_compacted > 0, "{report:?}");
        assert!(dpm.stats().segment_bytes_allocated < before.segment_bytes_allocated);
        assert_eq!(dpm.local_read(b"live0.0"), Some(vec![1; 512]));
        assert_eq!(dpm.local_read(b"cold2"), Some(vec![9; 512]));
    }

    #[test]
    fn byte_budget_throttles_a_pass() {
        let mut config = gc_config();
        // Budget below one entry: the pass must bail before relocating.
        config.gc.max_pass_bytes = 8;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        write_skew_pinned(&dpm, 6);
        let report = dpm.compact_once();
        assert!(report.budget_exhausted, "{report:?}");
        assert_eq!(report.entries_relocated, 0);
        assert_eq!(report.segments_compacted, 0);
    }

    #[test]
    fn filled_destination_seals_and_becomes_reclaimable() {
        // The PR 5 standing note: the compactor's destination segment used
        // to stay unsealed forever, so once every entry relocated into it
        // died it still could not be selected as a victim — one
        // unreclaimable segment per DPM. With the end-of-pass cut-off the
        // destination seals once ≥ `DESTINATION_SEAL_FRACTION` full and is
        // reclaimed like any other segment when its entries die.
        let dpm = Arc::new(DpmNode::new(gc_config()).unwrap());
        // 45 hot keys: their 104-byte entries fill a destination past half
        // of its 8 KiB.
        let pinned_keys = write_skew_pinned(&dpm, 45);
        while dpm.compact_once().segments_compacted > 0 {}
        // The last pass's cut-off sealed its destination (more than half
        // full by then) and emptied the slot: every segment the compactor
        // wrote into is sealed.
        let destinations: Vec<_> = (dpm.inner().segments_snapshot().into_iter())
            .filter(|s| s.owner_kn == GC_OWNER_KN)
            .collect();
        assert!(!destinations.is_empty(), "nothing was relocated");
        let last = destinations.iter().max_by_key(|s| s.id).unwrap();
        assert!(
            last.written() >= last.capacity / 2,
            "the last destination must be past the cut-off: {last:?}"
        );
        assert!(
            destinations.iter().all(|s| s.is_sealed()),
            "a destination past the cut-off stayed open: {destinations:?}"
        );
        assert!(dpm.inner().gc_destination().is_none());

        // Kill every relocated entry: overwrite the hot keys the compactor
        // moved into its destination segments.
        let mut w = LogWriter::new(Arc::clone(&dpm), 2, nic());
        for key in &pinned_keys {
            w.append_put(key, &[0x5A; 64]);
        }
        for i in 0..8u32 {
            w.append_put(format!("cold{i}").as_bytes(), &[0x5A; 512]);
        }
        w.flush().unwrap();
        w.seal_current();
        dpm.wait_until_merged(2);

        let mut freed = dpm.run_gc() as u64;
        for _ in 0..8 {
            freed += dpm.compact_once().segments_compacted;
        }
        assert!(
            freed > 0,
            "sealed ex-destination segments must be reclaimable: {:?}",
            dpm.stats()
        );
        // All live data (45 hot keys × 64 B + 8 cold keys × 512 B ≈ 9 KiB)
        // now fits in a handful of 8 KiB segments — nothing stays pinned by
        // an eternally-unsealed destination.
        let after = dpm.stats();
        assert!(
            after.segment_bytes_allocated <= 5 * (8 << 10),
            "footprint must shrink to live data: {after:?}"
        );
        for key in &pinned_keys {
            assert_eq!(dpm.local_read(key), Some(vec![0x5A; 64]));
        }
    }

    #[test]
    fn index_invariants_hold_after_every_merge_and_gc_pass() {
        // The hash index must stay consistent with the log and the segment
        // registry through merges, deletes, relocations and frees —
        // checked after every round's merge and after every foreground
        // compaction pass.
        let dpm = Arc::new(DpmNode::new(gc_config()).unwrap());
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic());
        let mut live_hot: Vec<String> = Vec::new();
        let mut deleted: Vec<String> = Vec::new();
        for round in 0..12u32 {
            let hot = format!("hot{round:04}");
            w.append_put(hot.as_bytes(), &[0xA5; 64]);
            live_hot.push(hot);
            for i in 0..8u32 {
                w.append_put(format!("cold{i}").as_bytes(), &[round as u8; 512]);
            }
            if round % 3 == 2 {
                // Delete the previous round's hot key so the walk also
                // sees merge-time removals.
                let victim = live_hot.remove(live_hot.len() - 2);
                w.append_delete(victim.as_bytes());
                deleted.push(victim);
            }
            w.flush().unwrap();
            dpm.wait_until_merged(0);
            dpm.check_index()
                .unwrap_or_else(|e| panic!("after merge round {round}: {e}"));
            dpm.compact_once();
            dpm.check_index()
                .unwrap_or_else(|e| panic!("after GC pass {round}: {e}"));
        }
        w.seal_current();
        dpm.wait_until_merged(0);
        while dpm.compact_once().segments_compacted > 0 {}
        let keys = dpm
            .check_index()
            .unwrap_or_else(|e| panic!("after final compaction: {e}"));
        // 8 cold keys + the surviving hot keys.
        assert_eq!(keys, 8 + live_hot.len() as u64);
        for key in &live_hot {
            assert_eq!(
                dpm.local_read(key.as_bytes()),
                Some(vec![0xA5; 64]),
                "{key}"
            );
        }
        for key in &deleted {
            assert_eq!(dpm.local_read(key.as_bytes()), None, "{key}");
        }
    }
}
