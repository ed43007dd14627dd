//! Cost gates for the DPM processors' per-entry path: what merging,
//! replaying and relocating one log entry costs, counted rather than timed,
//! so each assertion is exact and the same on any machine.
//!
//! Allocations are counted by a counting global allocator (this crate's
//! unit-test binary only). Its counter is thread-local, so the parked
//! merge workers and the other tests stay out of it: each gate runs its
//! merge task, recovery scan or relocation on the test thread itself, after
//! a warm-up that grows the key buffer, the index and the tombstone record
//! to their steady state.

use crate::config::DpmConfig;
use crate::entry::{decode_entry, encode_entry, LogOp};
use crate::gc::{relocate_entry, Relocation};
use crate::merge::{merge_task, MergeTask};
use crate::node::DpmNode;
use crate::segment::SegmentState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting what the calling thread allocates.
struct Counting;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's own teardown may still allocate.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations this thread made while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// One log entry: a put of `value`, or a delete when `value` is `None`.
type Entry<'a> = (&'a [u8], Option<&'a [u8]>);

/// A DPM with no background compactor, and a segment of KN 0's log.
fn dpm_and_segment() -> (DpmNode, Arc<SegmentState>) {
    let dpm = DpmNode::new(DpmConfig::small_for_tests()).unwrap();
    let segment = dpm.allocate_segment(0).unwrap();
    (dpm, segment)
}

/// Append `entries` to `segment` as its owner's flush would — written,
/// persisted and counted — but without queueing their merge: the returned
/// task merges them.
fn append_unmerged(dpm: &DpmNode, segment: &Arc<SegmentState>, entries: &[Entry]) -> MergeTask {
    let mut bytes = Vec::new();
    for &(key, value) in entries {
        let op = if value.is_some() {
            LogOp::Put
        } else {
            LogOp::Delete
        };
        encode_entry(&mut bytes, key, value.unwrap_or(&[]), op, dpm.next_seq());
    }
    let start = segment.record_append(bytes.len() as u64, entries.len() as u64);
    let pool = dpm.pool();
    pool.write_bytes(segment.base.offset(start), &bytes);
    pool.persist(segment.base.offset(start), bytes.len() as u64);
    pool.drain();
    MergeTask {
        segment: Arc::clone(segment),
        start,
        len: bytes.len() as u64,
    }
}

/// Every key the gates use has this length, so the key buffer warmed on
/// one never grows for another.
const WARM: [Entry; 4] = [
    (b"key-old", Some(b"v0")),
    (b"key-gon", Some(b"v0")),
    (b"key-gon", None),
    (b"key-gon", Some(b"v1")),
];

/// The three steady-state cases: a put over an existing key, a put of a
/// new key and a delete of a key deleted before.
const CASES: [(&str, Entry); 3] = [
    ("put over an existing key", (b"key-old", Some(b"v1"))),
    ("put of a new key", (b"key-new", Some(b"v0"))),
    ("delete", (b"key-gon", None)),
];

#[test]
fn a_merged_entry_allocates_nothing() {
    let (dpm, segment) = dpm_and_segment();
    let mut key = Vec::new();
    for entry in WARM {
        merge_task(
            dpm.inner(),
            &append_unmerged(&dpm, &segment, &[entry]),
            &mut key,
        );
    }
    for (case, entry) in CASES {
        let task = append_unmerged(&dpm, &segment, &[entry]);
        let n = allocations(|| merge_task(dpm.inner(), &task, &mut key));
        assert_eq!(n, 0, "{case}");
    }
    assert_eq!(dpm.local_read(b"key-old"), Some(b"v1".to_vec()));
    assert_eq!(dpm.local_read(b"key-new"), Some(b"v0".to_vec()));
    assert_eq!(dpm.local_read(b"key-gon"), None);
}

#[test]
fn a_replayed_entry_allocates_nothing() {
    let (dpm, segment) = dpm_and_segment();
    let mut key = Vec::new();
    for entry in WARM {
        merge_task(
            dpm.inner(),
            &append_unmerged(&dpm, &segment, &[entry]),
            &mut key,
        );
    }
    // A scan allocates its segment-list snapshot and its key buffer, and
    // nothing per entry: re-replaying merged entries adds nothing, and
    // neither does an entry recovery merges for the first time.
    let per_scan = allocations(|| {
        dpm.recover();
    });
    assert_eq!(per_scan, 2);
    for (case, entry) in CASES {
        append_unmerged(&dpm, &segment, &[entry]);
        let n = allocations(|| {
            dpm.recover();
        });
        assert_eq!(n, per_scan, "{case}");
    }
    assert_eq!(dpm.local_read(b"key-old"), Some(b"v1".to_vec()));
    assert_eq!(dpm.local_read(b"key-new"), Some(b"v0".to_vec()));
    assert_eq!(dpm.local_read(b"key-gon"), None);
}

#[test]
fn a_relocated_entry_allocates_nothing_and_fences_once() {
    let (dpm, segment) = dpm_and_segment();
    let mut key = Vec::new();
    let task = append_unmerged(
        &dpm,
        &segment,
        &[(b"key-one", Some(b"v")), (b"key-two", Some(b"v"))],
    );
    merge_task(dpm.inner(), &task, &mut key);
    segment.seal();
    let pool = dpm.pool();
    let first = decode_entry(pool, segment.base, segment.written()).unwrap();
    let at = first.total_len;
    let second = decode_entry(pool, segment.base.offset(at), segment.written() - at).unwrap();
    // Warm up: the first relocation opens the destination segment and
    // grows the pass buffer.
    let mut buf = Vec::new();
    let moved = relocate_entry(dpm.inner(), &segment, 0, &first, &mut buf);
    assert_eq!(moved, Relocation::Moved);
    let fences = pool.stats().fences;
    let n = allocations(|| {
        let moved = relocate_entry(dpm.inner(), &segment, at, &second, &mut buf);
        assert_eq!(moved, Relocation::Moved);
    });
    assert_eq!(n, 0);
    assert_eq!(pool.stats().fences - fences, 1);
    assert!(segment.is_offset_invalid(at));
    assert_eq!(dpm.local_read(b"key-two"), Some(b"v".to_vec()));
    assert_ne!(
        dpm.local_lookup(b"key-two").unwrap().addr(),
        segment.base.offset(at)
    );
}
