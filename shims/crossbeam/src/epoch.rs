//! Offline shim of the `crossbeam-epoch` crate: epoch-based reclamation
//! for lock-free readers.
//!
//! The subset mirrored here is what the workspace needs: [`pin`] returns a
//! [`Guard`]; [`Atomic`], [`Owned`] and [`Shared`] manage a lock-free
//! pointer; [`Guard::defer_destroy`] retires an unlinked allocation so it is
//! dropped only once no pinned guard can still hold a reference to it.
//!
//! # Scheme
//!
//! Classic epoch-based reclamation over a monotonically increasing global
//! epoch:
//!
//! * Every thread owns a *participant* record registered in a global list.
//!   [`pin`] publishes `(current global epoch, active)` into the record,
//!   then re-reads the global epoch and retries until the published epoch is
//!   the current one, so a participant is never pinned at a stale epoch.
//! * Retiring garbage ([`Guard::defer_destroy`]) pushes the destructor into
//!   the retiring thread's *local bag* — no lock, no shared cache line.
//! * When a bag fills up (or on [`Guard::flush`], an amortized fraction of
//!   pins, or thread exit) it is *sealed* with the global epoch observed at
//!   that moment and pushed into one of a small array of global epoch
//!   buckets. Only this seal step takes a lock.
//! * The global epoch advances only when every *active* participant is
//!   pinned at the current epoch; a sealed bag tagged `e` is dropped once
//!   the global epoch reaches `e + 2`.
//!
//! Safety sketch: a reader pinned at epoch `p` can only hold pointers whose
//! retirement happened after its pin. A bag's seal epoch is read *after*
//! every retirement it contains (the epoch is monotone), so each item's
//! retirement epoch is `<=` the bag's seal epoch and every such pointer is
//! tagged `e >= p` or later. While that reader stays pinned the global epoch
//! can advance at most once (to `p + 1`), and freeing its pointers would
//! need `e + 2 <= p + 1` — a contradiction. So nothing a pinned guard can
//! reference is ever freed. Tagging at seal time instead of retirement time
//! only ever *delays* a free, never accelerates one.
//!
//! This is the real crossbeam-epoch design (thread-local bags, tag-based
//! epoch buckets) rather than the single mutex-guarded global queue the
//! first version of this shim used: the retire path is now lock-free until
//! a bag seals, so concurrent writers retiring bucket arrays — or the DPM
//! compactor retiring whole log segments on every pass — no longer
//! serialize on one global mutex. `pin`/unpin itself stays at two
//! uncontended atomic stores plus two loads of the global epoch — the
//! property the lock-free read paths built on this module rely on.
//!
//! # What a pin protects (and what it does not)
//!
//! A [`Guard`] keeps every allocation retired *after* the pin alive for the
//! guard's lifetime. It does **not** freeze logical state: a reader holding
//! a guard can still observe a bucket array that has been superseded or a
//! log segment whose freed-bit has been set — the guard only guarantees the
//! *memory* stays mapped and valid to read. Validity checks (generation
//! counters, freed-bits, seal words) remain the reader's job:
//!
//! ```
//! use crossbeam::epoch::{self, Atomic, Owned};
//! use std::sync::atomic::Ordering;
//!
//! let slot = Atomic::new(vec![1u8, 2, 3]);
//!
//! let guard = epoch::pin();
//! let snapshot = slot.load(Ordering::SeqCst, &guard);
//!
//! // A writer replaces the value and retires the old allocation...
//! let old = slot.swap(Owned::new(vec![4u8, 5]), Ordering::SeqCst, &guard);
//! unsafe { guard.defer_destroy(old) };
//!
//! // ...but our snapshot, loaded under the guard, is still safe to read:
//! // the destructor cannot run while this guard is live.
//! assert_eq!(unsafe { snapshot.deref() }, &[1, 2, 3]);
//! drop(guard);
//!
//! // After the guard drops and the epoch advances twice, collection frees
//! // the retired value (drop the live one explicitly at the end).
//! for _ in 0..16 {
//!     epoch::pin().flush();
//! }
//! let unprotected = unsafe { epoch::unprotected() };
//! let last = slot.load(Ordering::SeqCst, unprotected);
//! drop(unsafe { last.into_owned() });
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bit 0 of a participant's state word; the epoch lives in the upper bits.
const ACTIVE: u64 = 1;

/// Attempt a collection every this many pins (amortizes the registry scan).
const PINS_BETWEEN_COLLECT: u32 = 128;

/// A thread's local bag seals into a global bucket at this many items.
///
/// Kept small: a bag can hold closures that own large resources (the DPM
/// defers whole-segment frees through this module), and an unsealed bag is
/// invisible to every other thread's collection attempts.
const MAX_BAG_LEN: usize = 32;

/// Number of global epoch buckets sealed bags are distributed over
/// (indexed by `seal_epoch % BUCKETS`), so concurrent sealers and the
/// collector do not all contend on a single queue lock.
const BUCKETS: usize = 4;

// ---------------------------------------------------------------- globals

/// One registered thread. `state` is `(epoch << 1) | ACTIVE` while pinned
/// and `0` while idle.
struct Participant {
    state: AtomicU64,
}

/// A retired allocation's destructor.
///
/// The closure only ever runs once, on whichever thread triggers the
/// collection; `Send` is asserted because the pointee was unlinked before
/// retirement, so no other thread can reach it anymore.
struct Deferred(Box<dyn FnOnce()>);

unsafe impl Send for Deferred {}

/// A thread-local garbage bag sealed with the global epoch observed at the
/// moment it was pushed into a global bucket. Every destructor inside was
/// retired at an epoch `<=` the seal epoch, so the bag as a whole is safe
/// to drop once the global epoch reaches `epoch + 2`.
struct SealedBag {
    epoch: u64,
    items: Vec<Deferred>,
}

struct GlobalState {
    epoch: AtomicU64,
    participants: Mutex<Vec<Arc<Participant>>>,
    /// Sealed bags, spread over a few buckets by seal epoch. Each bag
    /// carries its own epoch tag, so collection never depends on any
    /// ordering invariant within a bucket.
    buckets: [Mutex<Vec<SealedBag>>; BUCKETS],
    /// Cumulative count of bags sealed into the global buckets — the only
    /// lock acquisitions on the retire path. Exposed through [`stats`] so
    /// contention trends are visible to the cluster timeline.
    bag_flushes: AtomicU64,
    /// Cumulative count of destructors actually run by collection.
    items_collected: AtomicU64,
}

fn global() -> &'static GlobalState {
    static GLOBAL: OnceLock<GlobalState> = OnceLock::new();
    GLOBAL.get_or_init(|| GlobalState {
        epoch: AtomicU64::new(0),
        participants: Mutex::new(Vec::new()),
        buckets: [
            Mutex::new(Vec::new()),
            Mutex::new(Vec::new()),
            Mutex::new(Vec::new()),
            Mutex::new(Vec::new()),
        ],
        bag_flushes: AtomicU64::new(0),
        items_collected: AtomicU64::new(0),
    })
}

/// Counters exposed by the reclamation scheme, cumulative for the process.
///
/// `bag_flushes` counts sealed bags pushed into the global buckets (the
/// only mutex acquisitions retirement ever takes); `items_collected` counts
/// destructors run. A `bag_flushes` rate that approaches the retirement
/// rate means bags are sealing near-empty (e.g. explicit flushes on every
/// operation) and the lock-free buffering is being defeated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Sealed bags pushed into the global epoch buckets.
    pub bag_flushes: u64,
    /// Deferred destructors run by collection.
    pub items_collected: u64,
    /// Current global epoch.
    pub global_epoch: u64,
}

/// Snapshot the shim's reclamation counters (see [`EpochStats`]).
pub fn stats() -> EpochStats {
    let g = global();
    EpochStats {
        bag_flushes: g.bag_flushes.load(Ordering::Relaxed),
        items_collected: g.items_collected.load(Ordering::Relaxed),
        global_epoch: g.epoch.load(Ordering::Relaxed),
    }
}

/// Advance the global epoch if every active participant is pinned at it.
fn try_advance(g: &GlobalState) {
    let epoch = g.epoch.load(Ordering::SeqCst);
    {
        let participants = g.participants.lock().unwrap();
        for p in participants.iter() {
            let s = p.state.load(Ordering::SeqCst);
            if s & ACTIVE == ACTIVE && s >> 1 != epoch {
                return;
            }
        }
    }
    let _ = g
        .epoch
        .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst);
}

/// Attempt an epoch advance, then run the destructors of every sealed bag
/// that is now safe (seal epoch at least two behind the global epoch).
/// Destructors run outside the bucket locks so they may themselves pin or
/// retire.
fn collect(g: &GlobalState) {
    try_advance(g);
    let epoch = g.epoch.load(Ordering::SeqCst);
    let mut ready = Vec::new();
    for bucket in &g.buckets {
        let mut bags = bucket.lock().unwrap();
        let mut i = 0;
        while i < bags.len() {
            if bags[i].epoch + 2 <= epoch {
                ready.push(bags.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
    let mut ran = 0u64;
    for bag in ready {
        for d in bag.items {
            (d.0)();
            ran += 1;
        }
    }
    if ran > 0 {
        g.items_collected.fetch_add(ran, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------- thread local

/// Per-thread pin bookkeeping. Only the owning thread touches the cells;
/// other threads read `participant.state` through the registry.
struct Local {
    participant: Arc<Participant>,
    pin_count: Cell<u64>,
    pins_until_collect: Cell<u32>,
    /// This thread's unsealed garbage. Pushed to without any lock; sealed
    /// into a global bucket on overflow, flush, amortized pins, and thread
    /// exit. The `RefCell` borrow is never held across a destructor or a
    /// collection (both may re-enter `defer_unchecked` on this thread).
    bag: RefCell<Vec<Deferred>>,
}

impl Local {
    /// Seal this thread's bag into a global epoch bucket. Returns `true` if
    /// there was anything to seal.
    fn seal_bag(&self, g: &GlobalState) -> bool {
        let items = std::mem::take(&mut *self.bag.borrow_mut());
        if items.is_empty() {
            return false;
        }
        // Read the seal epoch *after* taking the items: the epoch is
        // monotone, so it is `>=` every item's retirement epoch and the
        // two-epoch rule applied to the seal epoch is conservative.
        let epoch = g.epoch.load(Ordering::SeqCst);
        g.buckets[(epoch as usize) % BUCKETS]
            .lock()
            .unwrap()
            .push(SealedBag { epoch, items });
        g.bag_flushes.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// Owns the thread's registry entry; dropping it (thread exit) unregisters
/// the participant and seals any garbage left in the local bag, so a worker
/// that retires and exits mid-epoch never strands its garbage.
struct LocalHandle {
    local: Local,
}

impl LocalHandle {
    fn register() -> Self {
        let participant = Arc::new(Participant {
            state: AtomicU64::new(0),
        });
        global()
            .participants
            .lock()
            .unwrap()
            .push(Arc::clone(&participant));
        LocalHandle {
            local: Local {
                participant,
                pin_count: Cell::new(0),
                pins_until_collect: Cell::new(PINS_BETWEEN_COLLECT),
                bag: RefCell::new(Vec::new()),
            },
        }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // Unregister first so a collection triggered below (or by anyone
        // else) no longer waits on this thread to advance the epoch.
        let target = Arc::as_ptr(&self.local.participant);
        let g = global();
        g.participants
            .lock()
            .unwrap()
            .retain(|p| Arc::as_ptr(p) != target);
        // Hand the exiting thread's garbage to the global buckets and give
        // collection a chance to run it if it is already safe.
        if self.local.seal_bag(g) {
            collect(g);
        }
    }
}

thread_local! {
    static LOCAL: LocalHandle = LocalHandle::register();
}

// ------------------------------------------------------------------ guard

/// Keeps the current thread pinned to an epoch.
///
/// While any `Guard` exists on a thread, every allocation retired through
/// [`Guard::defer_destroy`] *after* the pin stays alive, so pointers loaded
/// from an [`Atomic`] under the guard remain valid until the guard drops.
/// Guards nest: only the outermost pin/unpin touches the participant state.
#[repr(transparent)]
pub struct Guard {
    /// Null for the [`unprotected`] guard.
    local: *const Local,
}

/// Pin the current thread and return the guard keeping it pinned.
pub fn pin() -> Guard {
    LOCAL.with(|handle| {
        let local = &handle.local;
        let g = global();
        if local.pin_count.get() == 0 {
            loop {
                let epoch = g.epoch.load(Ordering::SeqCst);
                local
                    .participant
                    .state
                    .store((epoch << 1) | ACTIVE, Ordering::SeqCst);
                if g.epoch.load(Ordering::SeqCst) == epoch {
                    break;
                }
                // The epoch moved between publish and re-check: unpin and
                // retry so we never stay pinned at a stale epoch.
                local.participant.state.store(0, Ordering::SeqCst);
            }
        }
        local.pin_count.set(local.pin_count.get() + 1);
        let left = local.pins_until_collect.get();
        if left == 0 {
            local.pins_until_collect.set(PINS_BETWEEN_COLLECT);
            local.seal_bag(g);
            collect(g);
        } else {
            local.pins_until_collect.set(left - 1);
        }
        Guard {
            local: local as *const Local,
        }
    })
}

/// A guard that does not actually pin the thread.
///
/// # Safety
///
/// Only sound where no concurrent access is possible (e.g. inside `Drop` of
/// the structure owning the [`Atomic`]s, with `&mut self`). Deferred
/// destruction through it runs immediately.
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: usize = 0;
    // SAFETY: `Guard` is `repr(transparent)` over `*const Local` and the
    // all-zero pattern is the null (unprotected) guard.
    &*(ptr::addr_of!(UNPROTECTED) as *const Guard)
}

impl Guard {
    /// Retire the allocation behind `ptr`: its destructor runs once every
    /// guard pinned at (or before) this call has dropped.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from [`Owned::into_shared`] / [`Atomic`] and
    /// must already be unlinked (no new reader can load it), and it must not
    /// be retired twice.
    pub unsafe fn defer_destroy<T: 'static>(&self, ptr: Shared<'_, T>) {
        if ptr.is_null() {
            return;
        }
        let raw = ptr.raw as *mut T;
        self.defer_unchecked(move || drop(Box::from_raw(raw)));
    }

    /// Defer an arbitrary closure until the retirement epoch is safely past.
    ///
    /// The closure goes into the calling thread's local bag without taking
    /// any lock; the bag seals into a global epoch bucket on overflow, on
    /// [`Guard::flush`], on an amortized fraction of pins, or when the
    /// thread exits. Callers retiring large resources (the DPM's deferred
    /// segment frees) should [`Guard::flush`] afterwards so reclamation is
    /// not at the mercy of this thread's future pin cadence.
    ///
    /// # Safety
    ///
    /// Same unlinked-before-retire contract as [`Guard::defer_destroy`];
    /// the closure runs on an arbitrary thread.
    pub unsafe fn defer_unchecked<F: FnOnce() + 'static>(&self, f: F) {
        if self.local.is_null() {
            // Unprotected guard: the caller asserts exclusive access, so
            // nothing can still reference the value. Run it now.
            f();
            return;
        }
        let local = &*self.local;
        let overflow = {
            let mut bag = local.bag.borrow_mut();
            bag.push(Deferred(Box::new(f)));
            bag.len() >= MAX_BAG_LEN
        };
        if overflow {
            let g = global();
            local.seal_bag(g);
            collect(g);
        }
    }

    /// Seal the calling thread's garbage bag into the global buckets, then
    /// attempt an epoch advance and run any destructors that became safe.
    pub fn flush(&self) {
        let g = global();
        if !self.local.is_null() {
            // SAFETY: a non-null guard was created by `pin()` on this
            // thread and `Guard` is `!Send`, so the `Local` is alive.
            unsafe { (*self.local).seal_bag(g) };
        }
        collect(g);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.local.is_null() {
            return;
        }
        // SAFETY: a non-null guard is created only by `pin()` on this
        // thread and `Guard` is `!Send`, so the `Local` is still alive.
        let local = unsafe { &*self.local };
        let count = local.pin_count.get() - 1;
        local.pin_count.set(count);
        if count == 0 {
            local.participant.state.store(0, Ordering::SeqCst);
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.local.is_null() {
            "Guard { unprotected }"
        } else {
            "Guard { .. }"
        })
    }
}

// --------------------------------------------------------------- pointers

/// An owned, heap-allocated value destined for an [`Atomic`].
pub struct Owned<T> {
    value: Box<T>,
}

impl<T> Owned<T> {
    /// Allocate `value` on the heap.
    pub fn new(value: T) -> Self {
        Owned {
            value: Box::new(value),
        }
    }

    /// Convert into a [`Shared`], giving up ownership to the epoch scheme.
    pub fn into_shared(self, _guard: &Guard) -> Shared<'_, T> {
        Shared {
            raw: Box::into_raw(self.value),
            _marker: PhantomData,
        }
    }

    /// Convert back into a plain box.
    pub fn into_box(self) -> Box<T> {
        self.value
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

/// A pointer loaded from an [`Atomic`], valid for the guard's lifetime.
pub struct Shared<'g, T> {
    raw: *const T,
    _marker: PhantomData<&'g T>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Self {
        Shared {
            raw: ptr::null(),
            _marker: PhantomData,
        }
    }

    /// `true` if this is the null pointer.
    pub fn is_null(&self) -> bool {
        self.raw.is_null()
    }

    /// The raw pointer.
    pub fn as_raw(&self) -> *const T {
        self.raw
    }

    /// Dereference for the guard's lifetime.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and loaded under the guard `'g` from an
    /// [`Atomic`] whose retirements go through [`Guard::defer_destroy`].
    pub unsafe fn deref(&self) -> &'g T {
        &*self.raw
    }

    /// Like [`Shared::deref`] but returns `None` for null.
    ///
    /// # Safety
    ///
    /// Same contract as [`Shared::deref`].
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        self.raw.as_ref()
    }

    /// Take back ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to the pointee (it is unlinked
    /// and no guard can still reach it), and it must not also be retired.
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned {
            value: Box::from_raw(self.raw as *mut T),
        }
    }
}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared({:p})", self.raw)
    }
}

/// An atomic pointer whose retired values are reclaimed through the epoch
/// scheme instead of being freed eagerly.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// Allocate `value` and point at it.
    pub fn new(value: T) -> Self {
        Atomic {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// The null pointer.
    pub fn null() -> Self {
        Atomic {
            ptr: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Load the current pointer; the result is valid while `guard` lives.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            raw: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    /// Store a new value, returning nothing. The previous value is leaked
    /// unless the caller separately loaded and retires it; prefer
    /// [`Atomic::swap`].
    pub fn store(&self, new: Owned<T>, ord: Ordering) {
        self.ptr.store(Box::into_raw(new.value), ord);
    }

    /// Swap in a new value, returning the previous pointer for retirement.
    pub fn swap<'g>(&self, new: Owned<T>, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            raw: self.ptr.swap(Box::into_raw(new.value), ord),
            _marker: PhantomData,
        }
    }
}

impl<T> From<Owned<T>> for Atomic<T> {
    fn from(owned: Owned<T>) -> Self {
        Atomic {
            ptr: AtomicPtr::new(Box::into_raw(owned.value)),
        }
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Atomic({:p})", self.ptr.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Bumps a shared counter when dropped.
    struct DropCounter(Arc<AtomicU64>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Pin a fresh guard per flush so each attempt can advance the epoch
    /// (a single long-lived pin caps the advance at one step).
    fn drain() {
        for _ in 0..16 {
            pin().flush();
        }
    }

    /// Flush until `cond` holds; tolerates other tests in this binary
    /// transiently pinning the shared global epoch.
    fn drain_until(cond: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if cond() {
                return;
            }
            pin().flush();
            std::thread::yield_now();
        }
    }

    #[test]
    fn deferred_drop_runs_after_unpin() {
        let drops = Arc::new(AtomicU64::new(0));
        let slot = Atomic::new(DropCounter(Arc::clone(&drops)));

        let reader = pin();
        let old = {
            let writer = pin();
            let old = slot.swap(
                Owned::new(DropCounter(Arc::clone(&drops))),
                Ordering::SeqCst,
                &writer,
            );
            unsafe { writer.defer_destroy(old) };
            drops.load(Ordering::SeqCst)
        };
        // The reader guard pinned before the swap keeps the old value alive
        // no matter how hard we try to collect.
        drain();
        assert_eq!(drops.load(Ordering::SeqCst), old);
        drop(reader);
        drain_until(|| drops.load(Ordering::SeqCst) == 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);

        // Drop the final value still inside the Atomic.
        let unprotected = unsafe { unprotected() };
        let last = slot.load(Ordering::SeqCst, unprotected);
        drop(unsafe { last.into_owned() });
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn nested_pins_share_one_epoch_slot() {
        let outer = pin();
        let inner = pin();
        drop(outer);
        // Still pinned: retiring through a fresh guard and flushing must not
        // run the destructor while `inner` lives.
        let drops = Arc::new(AtomicU64::new(0));
        let slot = Atomic::new(DropCounter(Arc::clone(&drops)));
        let old = slot.swap(
            Owned::new(DropCounter(Arc::clone(&drops))),
            Ordering::SeqCst,
            &inner,
        );
        unsafe { inner.defer_destroy(old) };
        drain();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(inner);
        drain_until(|| drops.load(Ordering::SeqCst) == 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // Drop the live value still inside the Atomic.
        let unprotected = unsafe { unprotected() };
        let last = slot.load(Ordering::SeqCst, unprotected);
        drop(unsafe { last.into_owned() });
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn many_threads_retire_and_everything_drops() {
        let drops = Arc::new(AtomicU64::new(0));
        let slot = Arc::new(Atomic::new(DropCounter(Arc::clone(&drops))));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                let drops = Arc::clone(&drops);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let g = pin();
                        let old = slot.swap(
                            Owned::new(DropCounter(Arc::clone(&drops))),
                            Ordering::SeqCst,
                            &g,
                        );
                        unsafe { g.defer_destroy(old) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drain_until(|| drops.load(Ordering::SeqCst) == 400);
        // 400 swaps retired 400 values; the one left in the slot is live.
        assert_eq!(drops.load(Ordering::SeqCst), 400);
        let unprotected = unsafe { unprotected() };
        let last = slot.load(Ordering::SeqCst, unprotected);
        drop(unsafe { last.into_owned() });
        assert_eq!(drops.load(Ordering::SeqCst), 401);
    }

    #[test]
    fn exiting_thread_seals_its_bag_and_strands_nothing() {
        // A worker that retires garbage — including closures standing in
        // for deferred segment frees — and exits *without ever flushing*
        // must not strand anything: `LocalHandle::drop` seals the bag into
        // the global buckets where any other thread's collection finds it.
        let drops = Arc::new(AtomicU64::new(0));
        const RETIRED: u64 = 7; // deliberately < MAX_BAG_LEN: no overflow seal
        assert!((RETIRED as usize) < MAX_BAG_LEN);
        let epoch_before = global().epoch.load(Ordering::SeqCst);
        {
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                let g = pin();
                for _ in 0..RETIRED {
                    let counter = DropCounter(Arc::clone(&drops));
                    unsafe { g.defer_unchecked(move || drop(counter)) };
                }
                // Exit while still mid-epoch: no flush, no overflow.
            })
            .join()
            .unwrap();
        }
        // Other tests of this process advance the same global epoch, so
        // "nothing freed yet" only holds while it has not moved twice.
        // Reading the drops first makes the check sound: the epoch only
        // grows, so a free seen here implies both advances are visible.
        let freed = drops.load(Ordering::SeqCst);
        let advances = global().epoch.load(Ordering::SeqCst) - epoch_before;
        assert!(
            freed == 0 || advances >= 2,
            "nothing may free before the epoch advances twice"
        );
        drain_until(|| drops.load(Ordering::SeqCst) == RETIRED);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            RETIRED,
            "retired == freed after drain: exit seal must not strand garbage"
        );
    }

    #[test]
    fn bag_overflow_seals_without_explicit_flush() {
        // Retiring past MAX_BAG_LEN on a live thread seals the bag into
        // the global buckets even though the thread never calls flush().
        let drops = Arc::new(AtomicU64::new(0));
        let n = (MAX_BAG_LEN * 3) as u64;
        {
            let g = pin();
            for _ in 0..n {
                let counter = DropCounter(Arc::clone(&drops));
                unsafe { g.defer_unchecked(move || drop(counter)) };
            }
        }
        let flushed_before = stats().bag_flushes;
        assert!(flushed_before > 0, "overflow must have sealed bags");
        drain_until(|| drops.load(Ordering::SeqCst) >= n - MAX_BAG_LEN as u64);
        // The unsealed remainder (< MAX_BAG_LEN items) seals on flush.
        pin().flush();
        drain_until(|| drops.load(Ordering::SeqCst) == n);
        assert_eq!(drops.load(Ordering::SeqCst), n);
    }
}
