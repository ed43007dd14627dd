//! Cost gates: what a request costs, counted rather than timed, so each
//! assertion is exact and the same on any machine.
//!
//! Allocations are counted by a counting global allocator. Its counter is
//! thread-local, so allocations of other threads (the merge workers, the
//! test harness) stay out of it, and every test drives its cluster or map
//! from its own thread with `DelayMode::None` (the default fabric).
//!
//! Each test warms its structure up first: the figures are those of the
//! steady state, after the slots, tables and histograms have grown.

use dinomo::cache::lfu::LfuMap;
use dinomo::cache::lru::LruMap;
use dinomo::cache::CacheKind;
use dinomo::cache::{CacheLookup, DacCache, KnCache, ValueLoc};
use dinomo::core::key_for;
use dinomo::simnet::{Nic, PostedReads};
use dinomo::{Kvs, Op};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting what the calling thread allocates.
struct Counting;

thread_local! {
    /// Allocations (including reallocations) and bytes requested.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's own teardown may still allocate.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations and bytes this thread made while running `f`, and what
/// `f` returned (dropped by the caller, outside the count).
fn allocations<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    let after = ALLOCATED.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

const KEYS: u64 = 256;
const VALUE_LEN: usize = 128;

fn value(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; VALUE_LEN]
}

/// `KnNode::get` of a value-resident key allocates once: the returned
/// copy of the value.
#[test]
fn a_kn_value_hit_allocates_only_its_reply() {
    let kvs = Kvs::builder()
        .small_for_tests()
        .initial_kns(1)
        .threads_per_kn(1)
        .cache_bytes_per_kn(1 << 20)
        .build()
        .unwrap();
    let kn = kvs.kn(kvs.kn_ids()[0]).unwrap();
    for i in 0..KEYS {
        kn.put(&key_for(i, 8), &value(i)).unwrap();
    }
    for i in 0..KEYS {
        assert_eq!(kn.get(&key_for(i, 8)).unwrap(), Some(value(i)));
    }
    let before = kn.stats().cache;
    for i in 0..KEYS {
        let key = key_for(i, 8);
        let (cost, reply) = allocations(|| kn.get(&key));
        assert_eq!(reply.unwrap(), Some(value(i)));
        assert_eq!(cost, (1, VALUE_LEN as u64), "key {i}: (allocations, bytes)");
    }
    assert_eq!(kn.stats().cache.value_hits - before.value_hits, KEYS);
}

/// A read-only slice of shortcut hits allocates no more than the same
/// reads made one per key (the values they return, and the epoch
/// collections their pins set off every 128 pins), plus the batch
/// envelope's own vectors: `run_batch`'s positions, hashes, routes and
/// results, and the reply vector it returns. Posting the slice's reads
/// together allocates nothing: a `PostedReads` list lives on the stack.
#[test]
fn a_read_only_slice_of_shortcut_hits_allocates_what_its_reads_do_per_key() {
    let kvs = Kvs::builder()
        .small_for_tests()
        .initial_kns(1)
        .threads_per_kn(1)
        .cache_kind(CacheKind::ShortcutOnly)
        .cache_bytes_per_kn(1 << 20)
        .build()
        .unwrap();
    let kn = kvs.kn(kvs.kn_ids()[0]).unwrap();
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| key_for(i, 8)).collect();
    let values: Vec<Vec<u8>> = (0..KEYS).map(value).collect();
    for (key, value) in keys.iter().zip(&values) {
        kn.put(key, value).unwrap();
    }
    let ops: Vec<Op> = keys.iter().map(Op::lookup).collect();
    kn.run_batch(&ops);

    let before = kn.stats();
    let mut replies = Vec::with_capacity(keys.len());
    let (per_key, ()) = allocations(|| replies.extend(keys.iter().map(|k| kn.get(k))));
    let (batched, batch_replies) = allocations(|| kn.run_batch(&ops));
    let delta = kn.stats().since(&before);
    assert_eq!(delta.cache.shortcut_hits, 2 * KEYS, "{:?}", delta.cache);
    assert_eq!(delta.nic.one_sided_reads, 2 * KEYS);
    for ((reply, batched), value) in replies.into_iter().zip(batch_replies).zip(&values) {
        assert_eq!(reply, Ok(Some(value.clone())));
        assert_eq!(batched, reply);
    }
    assert!(
        batched.0 <= per_key.0 + 5,
        "a slice made {batched:?} (allocations, bytes), its reads per key {per_key:?}"
    );

    let nic = Nic::default();
    let (cost, ()) = allocations(|| {
        let mut list = PostedReads::new(&nic);
        for _ in 0..KEYS {
            let mut chain = list.chain();
            chain.read(64);
            chain.read(VALUE_LEN);
        }
        list.wait();
    });
    assert_eq!(cost, (0, 0), "a posted list: (allocations, bytes)");
}

/// A `DacCache` value hit allocates only the copy it returns: the touch
/// itself (index probe, LRU relink) allocates nothing.
#[test]
fn a_dac_value_hit_touch_allocates_nothing() {
    let mut cache = DacCache::new(1 << 20);
    for i in 0..KEYS {
        let loc = ValueLoc::new(i * VALUE_LEN as u64, VALUE_LEN as u32);
        cache.admit_value(&key_for(i, 8), &value(i), loc);
    }
    for i in 0..KEYS {
        let key = key_for(i, 8);
        let (cost, hit) = allocations(|| cache.lookup(&key));
        assert_eq!(hit, CacheLookup::Value(value(i)));
        assert_eq!(
            cost,
            (1, VALUE_LEN as u64),
            "key {i}: (allocations, bytes) beyond the returned copy"
        );
    }
}

/// Inserting and removing an 8-byte key of a map at its steady size
/// allocates nothing: the key is stored inline in the index and the node,
/// and the slot and index entry are reused. An LRU touch allocates nothing
/// either.
#[test]
fn steady_state_map_cycles_allocate_no_key() {
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| key_for(i, 8)).collect();
    let extra = key_for(KEYS, 8);

    let mut lru = LruMap::new();
    let mut lfu = LfuMap::new();
    for (i, key) in keys.iter().enumerate() {
        lru.insert(key, i);
        lfu.insert(key, i);
    }
    let mut cycle = || {
        lru.insert(&extra, 0);
        assert_eq!(lru.remove(&extra), Some(0));
        lfu.insert(&extra, 0);
        assert_eq!(lfu.remove(&extra), Some((0, 1)));
    };
    cycle();
    let (cost, ()) = allocations(|| (0..100).for_each(|_| cycle()));
    assert_eq!(
        cost,
        (0, 0),
        "100 insert-remove cycles: (allocations, bytes)"
    );

    let (cost, ()) = allocations(|| {
        for key in &keys {
            assert!(lru.get(key).is_some());
        }
    });
    assert_eq!(cost, (0, 0), "{KEYS} LRU touches: (allocations, bytes)");
}

/// A steady-state window of per-key updates allocates twice per update on
/// the calling thread (the log writer's copy of the key and the flush's
/// list of committed writes),
/// plus a handful where the window rolls its log segment over: 524 for
/// these `KEYS` updates. The cache overwrites a same-length value in
/// place, the KN's unmerged-write map keeps a tracked key's entry and a
/// spare value buffer takes the pending bytes, and the merge hand-off
/// reuses its worker's task queue: none of them allocates. A flush clears
/// that map (keeping its capacity) when it finds every segment merged, and
/// the next put of each key copies the key again, so up to one more per
/// update depends on the merge worker's timing: 524–781 were seen. Hence
/// a bound, not an exact count.
#[test]
fn a_kn_put_update_allocates_a_bounded_count() {
    let kvs = Kvs::builder()
        .small_for_tests()
        .initial_kns(1)
        .threads_per_kn(1)
        .cache_bytes_per_kn(1 << 20)
        .build()
        .unwrap();
    let kn = kvs.kn(kvs.kn_ids()[0]).unwrap();
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| key_for(i, 8)).collect();
    let values: Vec<Vec<u8>> = (0..4).map(value).collect();
    for value in &values[..3] {
        for key in &keys {
            kn.put(key, value).unwrap();
        }
    }
    let ((count, _bytes), ()) = allocations(|| {
        for key in &keys {
            kn.put(key, &values[3]).unwrap();
        }
    });
    assert!(count <= 785, "{KEYS} updates made {count} allocations");
    kvs.quiesce().unwrap();
    for key in &keys {
        assert_eq!(kn.get(key).unwrap(), Some(values[3].clone()));
    }
}
