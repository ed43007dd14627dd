//! Log-segment bookkeeping.
//!
//! Every counter here is an atomic, and so is the per-entry record of
//! which entries are dead: a bitmap with one bit per 8-byte offset (an
//! entry starts at a multiple of 8), set with `fetch_or`. Merge workers,
//! the compactor and cell swings invalidate entries without a lock.

use dinomo_pmem::PmAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared state describing one log segment in DPM.
///
/// A segment is owned (written) by exactly one KVS node; DPM processor
/// threads and the garbage collector read its counters.  The counters follow
/// the paper's GC design: each segment tracks how many of its entries are
/// still referenced ("valid") versus superseded ("invalid"); once every entry
/// is invalid and the segment is sealed and fully merged, it can be freed.
#[derive(Debug)]
pub struct SegmentState {
    /// Unique segment id.
    pub id: u64,
    /// KVS node that owns (writes) this segment.
    pub owner_kn: u32,
    /// Base address in the DPM pool.
    pub base: PmAddr,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Bytes written (and committed) so far.
    written: AtomicU64,
    /// Bytes already merged into the metadata index.
    merged: AtomicU64,
    /// Entries written so far.
    entries_written: AtomicU64,
    /// Entries merged so far.
    entries_merged: AtomicU64,
    /// Entries whose data has been superseded, deleted, or that never carried
    /// data (tombstones count as invalid immediately after merging).
    entries_invalid: AtomicU64,
    /// Bytes covered by invalidated entries. The compactor's cost-benefit
    /// victim scoring ranks segments by *bytes*, not entry counts — two
    /// segments with the same number of dead entries can hold wildly
    /// different amounts of reclaimable space when value sizes are mixed.
    bytes_invalid: AtomicU64,
    /// Segment offsets already recorded invalid, one bit per 8-byte
    /// offset (`capacity / 64` bytes). An entry can be discovered dead more
    /// than once — at indirection-cell swing time and again when its own
    /// log record merges and is found stale — and `is_reclaimable`
    /// compares `entries_invalid` against `entries_written`, so a
    /// double-count would stand in for a live entry and let GC free a
    /// segment that is still referenced. Only the caller whose `fetch_or`
    /// sets the bit counts the entry, which makes invalidation idempotent
    /// per entry.
    invalid_offsets: Box<[AtomicU64]>,
    /// Sealed: the owner will not append to this segment again.
    sealed: AtomicBool,
    /// Freed by the garbage collector.
    freed: AtomicBool,
    /// Number of indirection cells whose current target (live entry or the
    /// tombstoned-over entry a cell keeps for key identity) lies in this
    /// segment. A cell swing pins the *new* target's segment before the
    /// CAS and unpins the old target's segment after it, so collectors
    /// only need this one counter — not a global registry walk — to know
    /// whether a segment is cell-referenced. A segment with `cell_pins()
    /// > 0` must be neither relocated nor freed.
    cell_pins: AtomicU64,
}

impl SegmentState {
    /// Create bookkeeping for a fresh segment.
    pub fn new(id: u64, owner_kn: u32, base: PmAddr, capacity: u64) -> Self {
        SegmentState {
            id,
            owner_kn,
            base,
            capacity,
            written: AtomicU64::new(0),
            merged: AtomicU64::new(0),
            entries_written: AtomicU64::new(0),
            entries_merged: AtomicU64::new(0),
            entries_invalid: AtomicU64::new(0),
            bytes_invalid: AtomicU64::new(0),
            invalid_offsets: (0..capacity.div_ceil(8 * 64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            sealed: AtomicBool::new(false),
            freed: AtomicBool::new(false),
            cell_pins: AtomicU64::new(0),
        }
    }

    /// Record that an indirection cell now references an entry in this
    /// segment. Callers pin **before** publishing the reference (the cell
    /// write / index swing), so any collector that observes the published
    /// reference also observes the pin.
    pub fn pin_cell(&self) {
        self.cell_pins.fetch_add(1, Ordering::SeqCst);
    }

    /// Release one cell pin (the cell swung its target elsewhere, or was
    /// dismantled). Callers unpin **after** the reference is retracted.
    pub fn unpin_cell(&self) {
        let prev = self.cell_pins.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "cell pin underflow on segment {}", self.id);
    }

    /// Number of indirection cells currently referencing this segment.
    pub fn cell_pins(&self) -> u64 {
        self.cell_pins.load(Ordering::SeqCst)
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Bytes merged so far.
    pub fn merged(&self) -> u64 {
        self.merged.load(Ordering::SeqCst)
    }

    /// Entries written so far.
    pub fn entries_written(&self) -> u64 {
        self.entries_written.load(Ordering::Acquire)
    }

    /// Entries merged so far.
    pub fn entries_merged(&self) -> u64 {
        self.entries_merged.load(Ordering::Acquire)
    }

    /// Entries invalidated so far.
    pub fn entries_invalid(&self) -> u64 {
        self.entries_invalid.load(Ordering::Acquire)
    }

    /// Bytes covered by invalidated entries (dead bytes).
    pub fn dead_bytes(&self) -> u64 {
        self.bytes_invalid.load(Ordering::Acquire)
    }

    /// Bytes still referenced by live entries (written minus dead).
    pub fn live_bytes(&self) -> u64 {
        self.written().saturating_sub(self.dead_bytes())
    }

    /// The bitmap word and bit of the entry starting at `offset`.
    fn invalid_bit(&self, offset: u64) -> (&AtomicU64, u64) {
        let slot = offset / 8;
        (
            &self.invalid_offsets[(slot / 64) as usize],
            1 << (slot % 64),
        )
    }

    /// `true` if the entry at `offset` has been recorded invalid.
    pub fn is_offset_invalid(&self, offset: u64) -> bool {
        let (word, bit) = self.invalid_bit(offset);
        word.load(Ordering::Acquire) & bit != 0
    }

    /// Remaining space in bytes.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.written()
    }

    /// Record that the owner appended `bytes` bytes containing `entries`
    /// entries. Returns the offset at which the batch starts.
    pub fn record_append(&self, bytes: u64, entries: u64) -> u64 {
        let off = self.written.fetch_add(bytes, Ordering::AcqRel);
        self.entries_written.fetch_add(entries, Ordering::AcqRel);
        off
    }

    /// Record that a merge task covering `bytes`/`entries` completed.
    ///
    /// `merged` and `sealed` are `SeqCst`: the merge worker (add, then read
    /// `sealed`) and the sealing owner (seal, then read `merged`) each check
    /// whether the segment just became a compaction victim, and sequential
    /// consistency guarantees at least one of them sees both writes.
    pub fn record_merged(&self, bytes: u64, entries: u64) {
        self.merged.fetch_add(bytes, Ordering::SeqCst);
        self.entries_merged.fetch_add(entries, Ordering::AcqRel);
    }

    /// Raise the merged counters to *at least* the given values — the
    /// recovery scan's accounting. Recovery replays entries that were
    /// typically merged before the crash; adding their bytes again (as
    /// [`SegmentState::record_merged`] would) lets `merged` outrun
    /// `written`, and an owner appending to this segment after recovery
    /// would then look already-merged to `wait_until_merged` before its
    /// batch's merge actually applied.
    pub fn record_merged_at_least(&self, bytes: u64, entries: u64) {
        self.merged.fetch_max(bytes, Ordering::AcqRel);
        self.entries_merged.fetch_max(entries, Ordering::AcqRel);
    }

    /// Record that the `len`-byte entry at segment `offset` became invalid
    /// (superseded, deleted, or a tombstone). Idempotent: re-reporting the
    /// same entry advances neither the entry nor the byte counter.
    pub fn record_invalidated(&self, offset: u64, len: u64) {
        let (word, bit) = self.invalid_bit(offset);
        if word.fetch_or(bit, Ordering::AcqRel) & bit == 0 {
            self.entries_invalid.fetch_add(1, Ordering::AcqRel);
            self.bytes_invalid.fetch_add(len, Ordering::AcqRel);
        }
    }

    /// Seal the segment (the owner moves to a new one).
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
    }

    /// `true` once sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    /// `true` if every written byte has been merged.
    pub fn is_fully_merged(&self) -> bool {
        self.merged() >= self.written()
    }

    /// `true` if the segment's entries are all invalid and it can be freed.
    pub fn is_reclaimable(&self) -> bool {
        self.is_sealed()
            && self.is_fully_merged()
            && self.entries_written() > 0
            && self.entries_invalid() >= self.entries_written()
            && !self.is_freed()
    }

    /// Mark freed; returns `false` if it already was.
    pub fn mark_freed(&self) -> bool {
        !self.freed.swap(true, Ordering::AcqRel)
    }

    /// `true` once freed.
    pub fn is_freed(&self) -> bool {
        self.freed.load(Ordering::Acquire)
    }

    /// `true` if `addr` falls inside this segment.
    pub fn contains(&self, addr: PmAddr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_merge_accounting() {
        let s = SegmentState::new(1, 0, PmAddr(4096), 1024);
        assert_eq!(s.record_append(100, 2), 0);
        assert_eq!(s.record_append(50, 1), 100);
        assert_eq!(s.written(), 150);
        assert_eq!(s.entries_written(), 3);
        assert_eq!(s.remaining(), 1024 - 150);
        assert!(!s.is_fully_merged());
        s.record_merged(150, 3);
        assert!(s.is_fully_merged());
    }

    #[test]
    fn reclaimable_requires_all_conditions() {
        let s = SegmentState::new(1, 0, PmAddr(4096), 1024);
        s.record_append(100, 2);
        s.record_merged(100, 2);
        s.record_invalidated(0, 50);
        assert!(!s.is_reclaimable(), "not sealed yet");
        s.seal();
        assert!(!s.is_reclaimable(), "one entry still valid");
        s.record_invalidated(0, 50);
        assert!(
            !s.is_reclaimable(),
            "re-invalidating the same entry must not stand in for the live one"
        );
        s.record_invalidated(50, 50);
        assert!(s.is_reclaimable());
        assert!(s.mark_freed());
        assert!(!s.mark_freed(), "double free must be detected");
        assert!(!s.is_reclaimable(), "already freed");
    }

    #[test]
    fn recovery_accounting_floors_and_never_outruns_written() {
        // A recovery scan replays entries that were already merged; its
        // accounting must floor the counters, never re-add — otherwise
        // `merged` outruns `written` and appends after recovery look
        // already-merged before their merge applies.
        let s = SegmentState::new(1, 0, PmAddr(0), 1024);
        s.record_append(100, 2);
        s.record_merged(100, 2);
        // Two recovery scans (double recovery) change nothing.
        s.record_merged_at_least(100, 2);
        s.record_merged_at_least(100, 2);
        assert_eq!(s.merged(), 100);
        assert_eq!(s.entries_merged(), 2);
        // A post-recovery append is visible as unmerged again.
        s.record_append(60, 1);
        assert!(!s.is_fully_merged());
        s.record_merged(60, 1);
        assert!(s.is_fully_merged());
        // On a never-merged segment the floor does the whole job.
        let cold = SegmentState::new(2, 0, PmAddr(4096), 1024);
        cold.record_append(80, 1);
        cold.record_merged_at_least(80, 1);
        assert!(cold.is_fully_merged());
    }

    #[test]
    fn live_byte_accounting_tracks_mixed_entry_sizes() {
        // Two segments with one dead entry each must not rank equally when
        // the dead entries' sizes differ — the counters the compactor's
        // victim scoring reads are bytes, not entry counts.
        let s = SegmentState::new(1, 0, PmAddr(0), 4096);
        s.record_append(1000, 2); // a 900-byte entry and a 100-byte entry
        assert_eq!(s.live_bytes(), 1000);
        assert_eq!(s.dead_bytes(), 0);
        s.record_invalidated(0, 900);
        assert_eq!(s.dead_bytes(), 900);
        assert_eq!(s.live_bytes(), 100);
        // Idempotent in bytes too.
        s.record_invalidated(0, 900);
        assert_eq!(s.dead_bytes(), 900);
        assert!(s.is_offset_invalid(0));
        assert!(!s.is_offset_invalid(900));
    }

    #[test]
    fn invalid_bits_are_per_eight_byte_offset() {
        // Neighbouring entries, entries across a bitmap-word boundary and
        // the last 8-byte offset each keep their own bit.
        let s = SegmentState::new(1, 0, PmAddr(0), 1024);
        s.record_append(1024, 128);
        for offset in [8, 504, 512, 1016] {
            s.record_invalidated(offset, 8);
        }
        for offset in (0..1024).step_by(8) {
            assert_eq!(
                s.is_offset_invalid(offset),
                [8, 504, 512, 1016].contains(&offset),
                "offset {offset}"
            );
        }
        assert_eq!(s.entries_invalid(), 4);
        assert_eq!(s.dead_bytes(), 32);
    }

    #[test]
    fn empty_sealed_segment_is_not_reclaimable() {
        let s = SegmentState::new(1, 0, PmAddr(0), 64);
        s.seal();
        assert!(!s.is_reclaimable());
    }

    #[test]
    fn contains_checks_bounds() {
        let s = SegmentState::new(1, 0, PmAddr(1000), 100);
        assert!(s.contains(PmAddr(1000)));
        assert!(s.contains(PmAddr(1099)));
        assert!(!s.contains(PmAddr(1100)));
        assert!(!s.contains(PmAddr(999)));
    }
}
