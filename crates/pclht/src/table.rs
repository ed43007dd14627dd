//! The hash table: bucket array, chaining, snapshot reads, in-place writes,
//! resize, and the one-sided remote lookup path.
//!
//! # Concurrency scheme
//!
//! Readers are **lock-free**: the pointer to the current bucket array is an
//! epoch-protected [`Atomic`], so a reader pins an epoch ([`pin`]), loads
//! the array, and traverses it without taking any lock. A concurrent resize
//! publishes a fully-populated replacement array with a single pointer swap
//! and *defers* destruction of the old one ([`Guard::defer_destroy`]) until
//! every guard pinned at swap time has dropped — so a mid-traversal reader
//! keeps walking a stale but valid and fully intact array. Per-chain
//! consistency still comes from the per-bucket version protocol.
//!
//! Writers keep the coarser scheme: they hold the `state` **read** lock
//! across their bucket write (plus the per-chain head-bucket lock), and
//! `resize` takes the **write** lock, so an in-flight write can never land
//! in an array that is about to be retired and silently disappear.

use crate::bucket::{BucketRef, BucketSnapshot, BUCKET_BYTES, EMPTY_TAG, SLOTS_PER_BUCKET};
use crate::Result;
use crossbeam::epoch::{self, Atomic, Guard, Owned};
use dinomo_pmem::{PmAddr, PmemPool};
use dinomo_simnet::Nic;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Pin the current thread's epoch, keeping every bucket array a subsequent
/// read path traverses alive until the returned [`Guard`] drops.
///
/// Each read method pins internally, so calling this is only needed to
/// amortize the (cheap) pin over a batch of lookups via the `*_in` variants:
///
/// ```
/// use dinomo_pclht::{pin, Pclht, PclhtConfig};
/// use dinomo_pmem::{PmemConfig, PmemPool};
/// use std::sync::Arc;
///
/// let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(8 << 20)));
/// let table = Pclht::new(pool, PclhtConfig::for_capacity(100)).unwrap();
/// table.insert(7, 700).unwrap();
///
/// let guard = pin();
/// for _ in 0..3 {
///     assert_eq!(table.get_in(&guard, 7, |_| true), Some(700));
/// }
/// ```
pub fn pin() -> Guard {
    epoch::pin()
}

/// Resize when `len > MAX_LOAD_FACTOR * buckets * SLOTS_PER_BUCKET`.
const MAX_LOAD_FACTOR: f64 = 0.75;

/// Configuration of a [`Pclht`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PclhtConfig {
    /// Number of buckets in the initial table (rounded up to a power of two).
    pub initial_buckets: usize,
    /// Whether the table resizes itself automatically.
    pub auto_resize: bool,
}

impl Default for PclhtConfig {
    fn default() -> Self {
        PclhtConfig {
            initial_buckets: 1024,
            auto_resize: true,
        }
    }
}

impl PclhtConfig {
    /// Config sized for roughly `expected_keys` keys without resizing.
    pub fn for_capacity(expected_keys: usize) -> Self {
        let buckets = (expected_keys / SLOTS_PER_BUCKET + 1)
            .next_power_of_two()
            .max(16);
        PclhtConfig {
            initial_buckets: buckets,
            ..PclhtConfig::default()
        }
    }
}

/// Operational statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PclhtStats {
    /// Number of entries.
    pub len: u64,
    /// Number of head buckets in the current table.
    pub buckets: u64,
    /// Number of overflow (chained) buckets allocated.
    pub overflow_buckets: u64,
    /// Number of resizes performed.
    pub resizes: u64,
    /// Total retries of the snapshot-read protocol.
    pub read_retries: u64,
    /// Bucket arrays retired to the epoch scheme by resizes.
    pub arrays_retired: u64,
    /// Retired bucket arrays whose pmem was actually reclaimed. Trails
    /// [`PclhtStats::arrays_retired`] while any epoch guard stays pinned.
    pub arrays_freed: u64,
}

/// One generation of the bucket array. Readers hold references to it only
/// under an epoch [`Guard`]; when a resize retires it, its pmem is freed by
/// this type's `Drop` — which the epoch scheme delays until no pinned guard
/// can still be traversing it.
#[derive(Debug)]
struct BucketArray {
    buckets_addr: PmAddr,
    num_buckets: u64,
    pool: Arc<PmemPool>,
    /// Set just before the array is handed to `defer_destroy`, so the drop
    /// counter below counts exactly the epoch-reclaimed generations (the
    /// final array freed by `Pclht::drop` does not count).
    retired: AtomicBool,
    /// Shared with the owning table; incremented on drop of a retired array.
    freed: Arc<AtomicU64>,
    /// The table's live overflow-bucket count, decremented as this
    /// generation's chains are freed.
    overflow_buckets: Arc<AtomicU64>,
}

impl Drop for BucketArray {
    fn drop(&mut self) {
        // Free this generation's overflow chains first: they are reachable
        // only through this head array (rehashing allocated the new
        // generation fresh ones), so they go with it. By the time Drop runs
        // the chains are immutable — writers moved on at the swap, and the
        // epoch scheme has already waited out every reader.
        for idx in 0..self.num_buckets {
            let head = BucketRef::new(self.buckets_addr.offset(idx * BUCKET_BYTES));
            let mut next = head.next(&self.pool);
            while !next.is_null() {
                let after = BucketRef::new(next).next(&self.pool);
                self.pool.free(next, BUCKET_BYTES);
                self.overflow_buckets.fetch_sub(1, Ordering::Relaxed);
                next = after;
            }
        }
        self.pool
            .free(self.buckets_addr, self.num_buckets * BUCKET_BYTES);
        if self.retired.load(Ordering::Relaxed) {
            self.freed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The persistent cache-line hash table. See the crate docs for the design.
#[derive(Debug)]
pub struct Pclht {
    pool: Arc<PmemPool>,
    /// Current bucket array. Readers load it under an epoch guard; only
    /// resize (holding the `state` write lock) swaps it.
    array: Atomic<BucketArray>,
    /// Writer/resize coordination only. Writers hold it shared across their
    /// bucket write, resize holds it exclusively across the array swap;
    /// **readers never touch it**.
    state: RwLock<()>,
    config: PclhtConfig,
    len: AtomicU64,
    /// Live overflow buckets across all generations (shared with each
    /// `BucketArray` so retiring a generation debits its chains).
    overflow_buckets: Arc<AtomicU64>,
    resizes: AtomicU64,
    read_retries: AtomicU64,
    arrays_retired: AtomicU64,
    arrays_freed: Arc<AtomicU64>,
}

impl Drop for Pclht {
    fn drop(&mut self) {
        // The live array never went through `defer_destroy`; `&mut self`
        // proves no guard can still reference it, so reclaim it in place.
        let guard = unsafe { epoch::unprotected() };
        let last = self.array.load(Ordering::Acquire, guard);
        drop(unsafe { last.into_owned() });
    }
}

impl Pclht {
    /// Create an empty table backed by `pool`.
    pub fn new(pool: Arc<PmemPool>, config: PclhtConfig) -> Result<Self> {
        let num_buckets = config.initial_buckets.next_power_of_two().max(16) as u64;
        let buckets_addr = Self::alloc_bucket_array(&pool, num_buckets)?;
        let freed = Arc::new(AtomicU64::new(0));
        let overflow_buckets = Arc::new(AtomicU64::new(0));
        Ok(Pclht {
            array: Atomic::new(BucketArray {
                buckets_addr,
                num_buckets,
                pool: Arc::clone(&pool),
                retired: AtomicBool::new(false),
                freed: Arc::clone(&freed),
                overflow_buckets: Arc::clone(&overflow_buckets),
            }),
            pool,
            state: RwLock::new(()),
            config,
            len: AtomicU64::new(0),
            overflow_buckets,
            resizes: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            arrays_retired: AtomicU64::new(0),
            arrays_freed: freed,
        })
    }

    fn alloc_bucket_array(pool: &PmemPool, num_buckets: u64) -> Result<PmAddr> {
        let addr = pool.alloc(num_buckets * BUCKET_BYTES)?;
        for i in 0..num_buckets {
            BucketRef::new(addr.offset(i * BUCKET_BYTES)).init(pool);
        }
        Ok(addr)
    }

    /// The backing pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Number of entries in the table.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of head buckets.
    pub fn bucket_count(&self) -> u64 {
        self.current(&epoch::pin()).num_buckets
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> PclhtStats {
        PclhtStats {
            len: self.len(),
            buckets: self.bucket_count(),
            overflow_buckets: self.overflow_buckets.load(Ordering::Relaxed),
            resizes: self.resizes.load(Ordering::Relaxed),
            read_retries: self.read_retries.load(Ordering::Relaxed),
            arrays_retired: self.arrays_retired.load(Ordering::Relaxed),
            arrays_freed: self.arrays_freed.load(Ordering::Relaxed),
        }
    }

    /// The current bucket array, alive for as long as `guard` stays pinned.
    fn current<'g>(&self, guard: &'g Guard) -> &'g BucketArray {
        // SAFETY: the pointer is non-null from construction to drop, and a
        // retired array is destroyed only after every guard pinned at
        // retirement time has dropped — `guard` keeps this one alive.
        unsafe { self.array.load(Ordering::Acquire, guard).deref() }
    }

    fn head_bucket(&self, array: &BucketArray, tag: u64) -> BucketRef {
        let idx = Self::bucket_index(tag, array.num_buckets);
        BucketRef::new(array.buckets_addr.offset(idx * BUCKET_BYTES))
    }

    fn bucket_index(tag: u64, num_buckets: u64) -> u64 {
        // Fibonacci hashing spreads sequential tags across the table.
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) & (num_buckets - 1)
    }

    fn normalize_tag(tag: u64) -> u64 {
        if tag == EMPTY_TAG {
            0x5bd1_e995_9e37_79b9
        } else {
            tag
        }
    }

    /// Take a consistent snapshot of the whole chain for `tag`.
    fn chain_snapshot(&self, array: &BucketArray, tag: u64) -> Vec<BucketSnapshot> {
        let head = self.head_bucket(array, tag);
        loop {
            let meta_before = head.meta(&self.pool);
            if BucketRef::is_locked(meta_before) {
                self.read_retries.fetch_add(1, Ordering::Relaxed);
                std::hint::spin_loop();
                continue;
            }
            let mut out = Vec::with_capacity(2);
            let mut cur = head;
            loop {
                let snap = cur.snapshot(&self.pool);
                let next = snap.next;
                out.push(snap);
                if next.is_null() {
                    break;
                }
                cur = BucketRef::new(next);
            }
            let meta_after = head.meta(&self.pool);
            if meta_after == meta_before {
                return out;
            }
            self.read_retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look up the first entry whose tag matches and whose value satisfies
    /// `matches`.
    ///
    /// **Lock-free**: no lock is taken or held — the traversal runs under an
    /// epoch pin (see the module docs) and per-chain consistency comes from
    /// the bucket snapshot protocol.
    pub fn get<F: Fn(u64) -> bool>(&self, tag: u64, matches: F) -> Option<u64> {
        self.get_in(&epoch::pin(), tag, matches)
    }

    /// [`Pclht::get`] under a caller-supplied guard, amortizing the pin over
    /// a batch of lookups.
    pub fn get_in<F: Fn(u64) -> bool>(&self, guard: &Guard, tag: u64, matches: F) -> Option<u64> {
        let tag = Self::normalize_tag(tag);
        let array = self.current(guard);
        for snap in self.chain_snapshot(array, tag) {
            for (t, v) in snap.slots {
                if t == tag && matches(v) {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Look up ignoring collisions (first entry with this tag).
    pub fn get_first(&self, tag: u64) -> Option<u64> {
        self.get(tag, |_| true)
    }

    /// All values stored under `tag` (collisions included). Lock-free.
    pub fn get_all(&self, tag: u64) -> Vec<u64> {
        self.get_all_in(&epoch::pin(), tag)
    }

    /// [`Pclht::get_all`] under a caller-supplied guard.
    pub fn get_all_in(&self, guard: &Guard, tag: u64) -> Vec<u64> {
        let tag = Self::normalize_tag(tag);
        let array = self.current(guard);
        let mut out = Vec::new();
        for snap in self.chain_snapshot(array, tag) {
            for (t, v) in snap.slots {
                if t == tag {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Number of buckets a lookup of `tag` has to traverse (the `M` in the
    /// DAC cost analysis, i.e. the RTs a remote lookup would need before
    /// fetching the value). Lock-free.
    pub fn chain_length(&self, tag: u64) -> u32 {
        self.chain_length_in(&epoch::pin(), tag)
    }

    /// [`Pclht::chain_length`] under a caller-supplied guard.
    pub fn chain_length_in(&self, guard: &Guard, tag: u64) -> u32 {
        let tag = Self::normalize_tag(tag);
        let array = self.current(guard);
        self.chain_snapshot(array, tag).len() as u32
    }

    /// Insert a new entry. Does not check for duplicates (the caller decides
    /// whether to use [`Pclht::upsert`]).
    pub fn insert(&self, tag: u64, value: u64) -> Result<()> {
        let tag = Self::normalize_tag(tag);
        self.maybe_resize()?;
        // The state guard is held across the bucket write so a concurrent
        // resize (which takes the state write-lock) cannot swap the bucket
        // array out from under this insert and silently drop it.
        let state_guard = self.state.read();
        let guard = epoch::pin();
        let head = self.head_bucket(self.current(&guard), tag);
        head.lock(&self.pool);
        let res = self.insert_locked(&head, tag, value);
        head.unlock(&self.pool);
        if res.is_ok() {
            // Count while still excluding resize, so its bucket scan and
            // `len` can never disagree.
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        drop(state_guard);
        res
    }

    fn insert_locked(&self, head: &BucketRef, tag: u64, value: u64) -> Result<()> {
        // Find the first empty slot anywhere in the chain.
        let mut cur = *head;
        loop {
            for i in 0..SLOTS_PER_BUCKET {
                let (t, _) = cur.slot(&self.pool, i);
                if t == EMPTY_TAG {
                    cur.set_slot(&self.pool, i, tag, value);
                    return Ok(());
                }
            }
            let next = cur.next(&self.pool);
            if next.is_null() {
                // Chain is full: allocate, initialize and persist a new
                // bucket *before* linking it (crash-safe ordering).
                let addr = self.pool.alloc(BUCKET_BYTES)?;
                let fresh = BucketRef::new(addr);
                fresh.init(&self.pool);
                fresh.set_slot(&self.pool, 0, tag, value);
                cur.set_next(&self.pool, addr);
                self.overflow_buckets.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            cur = BucketRef::new(next);
        }
    }

    /// Update the first entry matching `(tag, matches)` in place, returning
    /// the previous value. The update is a single-word in-place write
    /// (log-free), persisted before returning.
    pub fn update<F: Fn(u64) -> bool>(&self, tag: u64, matches: F, new_value: u64) -> Option<u64> {
        let tag = Self::normalize_tag(tag);
        // Held across the write so a concurrent resize cannot retire the
        // bucket array mid-update (see `insert`).
        let _state_guard = self.state.read();
        let guard = epoch::pin();
        let head = self.head_bucket(self.current(&guard), tag);
        head.lock(&self.pool);
        let mut cur = head;
        let result = loop {
            let mut found = None;
            for i in 0..SLOTS_PER_BUCKET {
                let (t, v) = cur.slot(&self.pool, i);
                if t == tag && matches(v) {
                    found = Some((i, v));
                    break;
                }
            }
            if let Some((i, old)) = found {
                cur.set_slot_value(&self.pool, i, new_value);
                break Some(old);
            }
            let next = cur.next(&self.pool);
            if next.is_null() {
                break None;
            }
            cur = BucketRef::new(next);
        };
        head.unlock(&self.pool);
        result
    }

    /// Conditional location CAS: replace the value stored under `tag` with
    /// `new` **only if** an entry currently holds exactly `old`. Returns
    /// `true` when the swap happened.
    ///
    /// This is the primitive the log-cleaning compactor swings relocated
    /// entries with: the equality predicate runs under the chain's
    /// head-bucket lock, so the check and the single-word write are atomic
    /// with respect to every other writer — a concurrent put/merge/delete
    /// that supersedes `old` makes the CAS fail instead of being silently
    /// overwritten by a stale relocation.
    pub fn cas_value(&self, tag: u64, old: u64, new: u64) -> bool {
        self.update(tag, |v| v == old, new).is_some()
    }

    /// Update the first matching entry or insert a new one. Returns the
    /// previous value when an update happened.
    pub fn upsert<F: Fn(u64) -> bool>(
        &self,
        tag: u64,
        matches: F,
        value: u64,
    ) -> Result<Option<u64>> {
        let norm = Self::normalize_tag(tag);
        self.maybe_resize()?;
        // Held across the write so a concurrent resize cannot retire the
        // bucket array mid-upsert (see `insert`).
        let state_guard = self.state.read();
        let guard = epoch::pin();
        let head = self.head_bucket(self.current(&guard), norm);
        head.lock(&self.pool);
        // Try update first.
        let mut cur = head;
        let mut updated = None;
        'outer: loop {
            for i in 0..SLOTS_PER_BUCKET {
                let (t, v) = cur.slot(&self.pool, i);
                if t == norm && matches(v) {
                    cur.set_slot_value(&self.pool, i, value);
                    updated = Some(v);
                    break 'outer;
                }
            }
            let next = cur.next(&self.pool);
            if next.is_null() {
                break;
            }
            cur = BucketRef::new(next);
        }
        let res = if updated.is_none() {
            self.insert_locked(&head, norm, value).map(|()| None)
        } else {
            Ok(updated)
        };
        head.unlock(&self.pool);
        if let Ok(None) = res {
            // Count while still excluding resize (see `insert`).
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        drop(state_guard);
        res
    }

    /// Remove the first entry matching `(tag, matches)`, returning its value.
    pub fn remove<F: Fn(u64) -> bool>(&self, tag: u64, matches: F) -> Option<u64> {
        let tag = Self::normalize_tag(tag);
        // Held across the write so a concurrent resize cannot retire the
        // bucket array mid-remove (see `insert`).
        let state_guard = self.state.read();
        let guard = epoch::pin();
        let head = self.head_bucket(self.current(&guard), tag);
        head.lock(&self.pool);
        let mut cur = head;
        let result = loop {
            let mut found = None;
            for i in 0..SLOTS_PER_BUCKET {
                let (t, v) = cur.slot(&self.pool, i);
                if t == tag && matches(v) {
                    found = Some((i, v));
                    break;
                }
            }
            if let Some((i, old)) = found {
                cur.clear_slot(&self.pool, i);
                break Some(old);
            }
            let next = cur.next(&self.pool);
            if next.is_null() {
                break None;
            }
            cur = BucketRef::new(next);
        };
        head.unlock(&self.pool);
        if result.is_some() {
            // Count while still excluding resize (see `insert`).
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        drop(state_guard);
        result
    }

    /// Visit every `(tag, value)` entry. Takes a consistent per-chain
    /// snapshot; concurrent writers may or may not be observed. Lock-free:
    /// a resize concurrent with the scan retires the array being walked,
    /// but the epoch pin keeps it alive (and intact) until the scan ends.
    pub fn for_each<F: FnMut(u64, u64)>(&self, f: F) {
        self.for_each_in(&epoch::pin(), f)
    }

    /// [`Pclht::for_each`] under a caller-supplied guard.
    pub fn for_each_in<F: FnMut(u64, u64)>(&self, guard: &Guard, mut f: F) {
        let array = self.current(guard);
        for idx in 0..array.num_buckets {
            let mut cur = BucketRef::new(array.buckets_addr.offset(idx * BUCKET_BYTES));
            loop {
                let snap = cur.snapshot(&self.pool);
                for (t, v) in snap.slots {
                    if t != EMPTY_TAG {
                        f(t, v);
                    }
                }
                if snap.next.is_null() {
                    break;
                }
                cur = BucketRef::new(snap.next);
            }
        }
    }

    /// Perform the lookup the way a KVS node would over the network: one
    /// one-sided READ of a 64-byte bucket per chain hop, accounted against
    /// `nic`. Returns the value (if found) and the number of round trips.
    pub fn remote_get<F: Fn(u64) -> bool>(
        &self,
        nic: &Nic,
        tag: u64,
        matches: F,
    ) -> (Option<u64>, u32) {
        self.remote_get_in(&epoch::pin(), nic, tag, matches)
    }

    /// [`Pclht::remote_get`] under a caller-supplied guard (a KVS node
    /// serving a batch pins once and issues every one-sided lookup of the
    /// batch under the same guard).
    pub fn remote_get_in<F: Fn(u64) -> bool>(
        &self,
        guard: &Guard,
        nic: &Nic,
        tag: u64,
        matches: F,
    ) -> (Option<u64>, u32) {
        let tag = Self::normalize_tag(tag);
        let head = self.head_bucket(self.current(guard), tag);
        let mut rts = 0u32;
        let mut cur = head;
        loop {
            nic.one_sided_read(BUCKET_BYTES as usize);
            rts += 1;
            let snap = cur.snapshot(&self.pool);
            for (t, v) in snap.slots {
                if t == tag && matches(v) {
                    return (Some(v), rts);
                }
            }
            if snap.next.is_null() {
                return (None, rts);
            }
            cur = BucketRef::new(snap.next);
        }
    }

    fn maybe_resize(&self) -> Result<()> {
        if !self.config.auto_resize {
            return Ok(());
        }
        let guard = epoch::pin();
        let num_buckets = self.current(&guard).num_buckets;
        let capacity = num_buckets * SLOTS_PER_BUCKET as u64;
        if self.len() as f64 <= MAX_LOAD_FACTOR * capacity as f64 {
            return Ok(());
        }
        let state = self.state.write();
        // Someone else may have resized while we waited for the lock; the
        // write lock makes the re-loaded array stable for the whole resize.
        let old = self.current(&guard);
        if old.num_buckets != num_buckets {
            return Ok(());
        }
        let new_buckets = old.num_buckets * 2;
        let new_addr = Self::alloc_bucket_array(&self.pool, new_buckets)?;
        // Rehash every entry into the new array. Writers are excluded by
        // the state write-lock, so the old array is immutable; readers keep
        // traversing it lock-free until the swap below publishes the fully
        // populated replacement.
        let mut moved = 0u64;
        for idx in 0..old.num_buckets {
            let mut cur = BucketRef::new(old.buckets_addr.offset(idx * BUCKET_BYTES));
            loop {
                let snap = cur.snapshot(&self.pool);
                for (t, v) in snap.slots {
                    if t != EMPTY_TAG {
                        let new_idx = Self::bucket_index(t, new_buckets);
                        let head = BucketRef::new(new_addr.offset(new_idx * BUCKET_BYTES));
                        // No concurrent writers: safe to insert without locks.
                        self.insert_locked(&head, t, v)?;
                        moved += 1;
                    }
                }
                if snap.next.is_null() {
                    break;
                }
                cur = BucketRef::new(snap.next);
            }
        }
        debug_assert_eq!(moved, self.len());
        // SeqCst (not AcqRel): the epoch scheme's safety argument orders
        // this unlink against reader pins via the SeqCst total order; a
        // weaker swap would let a reader pinned at the retirement epoch + 1
        // load the pre-swap pointer without a happens-before edge.
        let retired = self.array.swap(
            Owned::new(BucketArray {
                buckets_addr: new_addr,
                num_buckets: new_buckets,
                pool: Arc::clone(&self.pool),
                retired: AtomicBool::new(false),
                freed: Arc::clone(&self.arrays_freed),
                overflow_buckets: Arc::clone(&self.overflow_buckets),
            }),
            Ordering::SeqCst,
            &guard,
        );
        // Readers pinned before the swap may still be walking the old
        // array: hand it to the epoch scheme instead of freeing it. Its
        // `Drop` (pmem free + drop counter) runs once every such guard has
        // unpinned.
        self.arrays_retired.fetch_add(1, Ordering::Relaxed);
        unsafe {
            retired.deref().retired.store(true, Ordering::Relaxed);
            guard.defer_destroy(retired);
        }
        drop(state);
        self.resizes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinomo_pmem::PmemConfig;
    use dinomo_simnet::FabricConfig;

    fn table(buckets: usize) -> Pclht {
        let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(32 << 20)));
        Pclht::new(
            pool,
            PclhtConfig {
                initial_buckets: buckets,
                ..PclhtConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn insert_get_update_remove() {
        let t = table(16);
        t.insert(1, 100).unwrap();
        t.insert(2, 200).unwrap();
        assert_eq!(t.get_first(1), Some(100));
        assert_eq!(t.get_first(2), Some(200));
        assert_eq!(t.get_first(3), None);
        assert_eq!(t.update(1, |_| true, 111), Some(100));
        assert_eq!(t.get_first(1), Some(111));
        assert_eq!(t.remove(1, |_| true), Some(111));
        assert_eq!(t.get_first(1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn upsert_inserts_then_updates() {
        let t = table(16);
        assert_eq!(t.upsert(5, |_| true, 50).unwrap(), None);
        assert_eq!(t.upsert(5, |_| true, 51).unwrap(), Some(50));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_first(5), Some(51));
    }

    #[test]
    fn cas_value_swaps_only_on_exact_match() {
        let t = table(16);
        t.insert(4, 400).unwrap();
        assert!(!t.cas_value(4, 401, 999), "stale expectation must fail");
        assert_eq!(t.get_first(4), Some(400));
        assert!(t.cas_value(4, 400, 999));
        assert_eq!(t.get_first(4), Some(999));
        assert!(!t.cas_value(4, 400, 1000), "second swap of old value fails");
        assert!(!t.cas_value(7, 0, 1), "missing tag fails");
    }

    #[test]
    fn zero_tag_is_usable() {
        let t = table(16);
        t.insert(0, 77).unwrap();
        assert_eq!(t.get_first(0), Some(77));
        assert_eq!(t.remove(0, |_| true), Some(77));
    }

    #[test]
    fn collisions_are_disambiguated_by_predicate() {
        let t = table(16);
        // Same tag, two different "locations".
        t.insert(9, 900).unwrap();
        t.insert(9, 901).unwrap();
        assert_eq!(t.get(9, |v| v == 901), Some(901));
        assert_eq!(t.get(9, |v| v == 900), Some(900));
        assert_eq!(t.get_all(9).len(), 2);
        assert_eq!(t.remove(9, |v| v == 900), Some(900));
        assert_eq!(t.get_all(9), vec![901]);
    }

    #[test]
    fn chains_grow_and_lookups_still_work() {
        let t = table(16);
        // Force many entries into 16 buckets without resize.
        let t = Pclht::new(
            Arc::clone(t.pool()),
            PclhtConfig {
                initial_buckets: 16,
                auto_resize: false,
            },
        )
        .unwrap();
        for i in 0..500u64 {
            t.insert(i, i * 10).unwrap();
        }
        for i in 0..500u64 {
            assert_eq!(t.get_first(i), Some(i * 10), "key {i}");
        }
        assert!(t.stats().overflow_buckets > 0);
        assert!(t.chain_length(3) >= 1);
    }

    #[test]
    fn auto_resize_keeps_chains_short() {
        let t = table(16);
        for i in 0..5_000u64 {
            t.insert(i, i).unwrap();
        }
        assert!(t.stats().resizes > 0);
        assert!(t.bucket_count() > 16);
        for i in (0..5_000u64).step_by(97) {
            assert_eq!(t.get_first(i), Some(i));
        }
        // Average chain length should be small after resizing.
        let mut total_chain = 0u64;
        for i in 0..100 {
            total_chain += t.chain_length(i) as u64;
        }
        assert!(total_chain <= 300, "chains too long: {total_chain}");
    }

    #[test]
    fn remote_get_counts_round_trips() {
        let t = table(16);
        t.insert(42, 4200).unwrap();
        let nic = Nic::new(FabricConfig::default());
        let (v, rts) = t.remote_get(&nic, 42, |_| true);
        assert_eq!(v, Some(4200));
        assert!(rts >= 1);
        assert_eq!(nic.snapshot().one_sided_reads, rts as u64);
        let (missing, miss_rts) = t.remote_get(&nic, 777, |_| true);
        assert_eq!(missing, None);
        assert!(miss_rts >= 1);
    }

    #[test]
    fn for_each_visits_everything() {
        let t = table(64);
        for i in 0..200u64 {
            t.insert(i, i + 1).unwrap();
        }
        let mut count = 0u64;
        let mut sum = 0u64;
        t.for_each(|_t, v| {
            count += 1;
            sum += v;
        });
        assert_eq!(count, 200);
        assert_eq!(sum, (1..=200u64).sum::<u64>());
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(64 << 20)));
        let t = Arc::new(
            Pclht::new(
                pool,
                PclhtConfig {
                    initial_buckets: 1024,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let tag = w * 1_000_000 + i;
                        t.insert(tag, tag + 7).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        if let Some(v) = t.get_first(i) {
                            assert_eq!(v, i + 7);
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 8_000);
        for w in 0..4u64 {
            for i in (0..2_000u64).step_by(131) {
                let tag = w * 1_000_000 + i;
                assert_eq!(t.get_first(tag), Some(tag + 7));
            }
        }
    }

    /// Pin fresh guards and flush until `cond` holds (each long-lived pin
    /// caps the global epoch advance at one step, so a fresh pin per
    /// attempt is required); tolerates other tests pinning transiently.
    fn drain_epochs(cond: impl Fn() -> bool) -> bool {
        for _ in 0..10_000 {
            if cond() {
                return true;
            }
            crate::pin().flush();
            std::thread::yield_now();
        }
        cond()
    }

    #[test]
    fn concurrent_reads_survive_resizes() {
        // Small initial table so the writers force repeated resizes while
        // readers traverse lock-free; a reader's epoch pin must keep each
        // retired bucket array alive (not freed, not reused) until the
        // reader's traversal ends.
        let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(64 << 20)));
        let t = Arc::new(
            Pclht::new(
                pool,
                PclhtConfig {
                    initial_buckets: 16,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..4_000u64 {
                        let tag = w * 1_000_000 + i;
                        t.insert(tag, tag + 7).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        for i in 0..4_000u64 {
                            if let Some(v) = t.get_first(i) {
                                assert_eq!(v, i + 7);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert!(t.stats().resizes > 0, "test must actually exercise resize");
        for w in 0..2u64 {
            for i in (0..4_000u64).step_by(97) {
                let tag = w * 1_000_000 + i;
                assert_eq!(t.get_first(tag), Some(tag + 7));
            }
        }
    }

    #[test]
    fn resize_storm_keeps_keys_and_reclaims_arrays() {
        use std::sync::atomic::AtomicBool;

        // Readers iterate continuously (point lookups + full scans) while
        // writers force repeated grows. The drop-counting `BucketArray`
        // payload then proves every retired generation was freed exactly
        // once — no use-after-free (a premature free would also blow up the
        // readers) and no leak.
        let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(128 << 20)));
        let t = Arc::new(
            Pclht::new(
                pool,
                PclhtConfig {
                    initial_buckets: 16,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        const WRITERS: u64 = 2;
        const KEYS_PER_WRITER: u64 = 6_000;
        let done = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    // Tags start at 1: tag 0 is remapped by normalize_tag,
                    // which would break the scan's value invariant below.
                    for i in 1..=KEYS_PER_WRITER {
                        let tag = w * 1_000_000 + i;
                        t.insert(tag, tag + 3).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4u64)
            .map(|r| {
                let t = Arc::clone(&t);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        if r % 2 == 0 {
                            // Point lookups across the key space.
                            for i in 1..=KEYS_PER_WRITER {
                                if let Some(v) = t.get_first(i) {
                                    assert_eq!(v, i + 3);
                                }
                            }
                        } else {
                            // Full scan: holds one pin across the whole
                            // array walk, the longest-lived guard here.
                            let mut bad = 0u64;
                            t.for_each(|tag, v| {
                                if v != tag + 3 {
                                    bad += 1;
                                }
                            });
                            assert_eq!(bad, 0, "scan observed a torn entry");
                        }
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }

        // No lost keys.
        for w in 0..WRITERS {
            for i in 1..=KEYS_PER_WRITER {
                let tag = w * 1_000_000 + i;
                assert_eq!(t.get_first(tag), Some(tag + 3), "key {tag} lost");
            }
        }
        let stats = t.stats();
        assert!(
            stats.resizes >= 3,
            "storm must force repeated grows, got {}",
            stats.resizes
        );
        assert_eq!(stats.arrays_retired, stats.resizes);
        assert!(
            stats.arrays_freed <= stats.arrays_retired,
            "freed more generations than were retired"
        );
        // Every guard has unpinned: all retired arrays must now reclaim.
        assert!(
            drain_epochs(|| {
                let s = t.stats();
                s.arrays_freed == s.arrays_retired
            }),
            "retired bucket arrays leaked: {:?}",
            t.stats()
        );
    }

    #[test]
    fn retired_generations_free_their_overflow_chains() {
        // Tags whose fibonacci-hash low 10 bits collide share one bucket
        // (and force an overflow chain) at every generation up to 1024
        // buckets, so each retired array drags a chain with it.
        let mut colliders: Vec<u64> = Vec::new();
        let want = (7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) & 1023;
        let mut t = 1u64;
        while colliders.len() < 40 {
            if (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) & 1023 == want {
                colliders.push(t);
            }
            t += 1;
        }
        let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(32 << 20)));
        let table = Pclht::new(
            Arc::clone(&pool),
            PclhtConfig {
                initial_buckets: 16,
                ..Default::default()
            },
        )
        .unwrap();
        for (i, &tag) in colliders.iter().enumerate() {
            table.insert(tag, i as u64).unwrap();
        }
        for i in 0..300u64 {
            table.insert(2_000_000 + i, i).unwrap();
        }
        let stats = table.stats();
        assert!(stats.resizes >= 2, "must retire generations: {stats:?}");
        assert!(
            stats.overflow_buckets > 0,
            "colliders must chain: {stats:?}"
        );
        assert!(
            drain_epochs(|| {
                let s = table.stats();
                s.arrays_freed == s.arrays_retired
            }),
            "retired bucket arrays leaked: {:?}",
            table.stats()
        );
        // Exact accounting: every byte still allocated in the pool is the
        // live head array plus the live overflow chains — i.e. retired
        // generations freed their chained buckets, not just the head array.
        let s = table.stats();
        assert_eq!(
            pool.stats().allocated_bytes,
            (s.buckets + s.overflow_buckets) * BUCKET_BYTES,
            "retired generations leaked overflow buckets: {s:?}"
        );
        for (i, &tag) in colliders.iter().enumerate() {
            assert_eq!(table.get_first(tag), Some(i as u64));
        }
    }

    #[test]
    fn retired_arrays_free_only_after_guards_unpin() {
        let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(64 << 20)));
        let t = Arc::new(
            Pclht::new(
                pool,
                PclhtConfig {
                    initial_buckets: 16,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        // Pin before any resize: every array retired from here on must
        // outlive this guard.
        let guard = crate::pin();
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..3_000u64 {
                    t.insert(i, i).unwrap();
                }
            })
        };
        writer.join().unwrap();
        let stats = t.stats();
        assert!(stats.arrays_retired >= 1, "writer must have resized");
        // Try hard to reclaim: with this thread still pinned the epoch can
        // advance at most once, so nothing retired after the pin may free.
        for _ in 0..64 {
            guard.flush();
        }
        assert_eq!(
            t.stats().arrays_freed,
            0,
            "a retired bucket array was freed while a guard was still pinned"
        );
        drop(guard);
        assert!(
            drain_epochs(|| {
                let s = t.stats();
                s.arrays_freed == s.arrays_retired
            }),
            "retired bucket arrays leaked after unpin: {:?}",
            t.stats()
        );
    }

    #[test]
    fn persistence_of_committed_inserts_survives_crash() {
        let pool = Arc::new(PmemPool::new(PmemConfig {
            capacity_bytes: 8 << 20,
            track_persistence: true,
        }));
        let t = Pclht::new(Arc::clone(&pool), PclhtConfig::for_capacity(100)).unwrap();
        for i in 0..50u64 {
            t.insert(i, i * 3).unwrap();
        }
        pool.simulate_crash();
        for i in 0..50u64 {
            assert_eq!(t.get_first(i), Some(i * 3), "entry {i} lost after crash");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dinomo_pmem::PmemConfig;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table behaves like a HashMap under arbitrary interleavings of
        /// upsert/remove/get on a small key space.
        #[test]
        fn behaves_like_a_map(ops in proptest::collection::vec((0u64..32, 0u64..3, 1u64..1_000_000), 1..200)) {
            let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(16 << 20)));
            let t = Pclht::new(pool, PclhtConfig { initial_buckets: 16, ..Default::default() }).unwrap();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (key, op, val) in ops {
                match op {
                    0 => {
                        t.upsert(key, |_| true, val).unwrap();
                        model.insert(key, val);
                    }
                    1 => {
                        let got = t.remove(key, |_| true);
                        let expect = model.remove(&key);
                        prop_assert_eq!(got, expect);
                    }
                    _ => {
                        prop_assert_eq!(t.get_first(key), model.get(&key).copied());
                    }
                }
            }
            prop_assert_eq!(t.len(), model.len() as u64);
        }
    }
}
