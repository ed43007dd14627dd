//! The KVS node (KN): per-thread shards, DAC cache, log writer, unmerged-log
//! tracking, and the request paths of §3.6.

use crate::config::{KvsConfig, Variant};
use crate::error::KvsError;
use crate::op::{Op, OpRef};
use crate::stats::KnStats;
use crate::Result;
use dinomo_cache::{build_cache, CacheLookup, CacheStats, KnCache, ValueLoc};
use dinomo_dpm::{BloomFilter, CommittedWrite, DpmNode, Guard, LogOp, LogWriter};
use dinomo_partition::{key_hash, KnId, OwnershipTable};
use dinomo_pmem::PmAddr;
use dinomo_simnet::{Nic, PostedReads, ReadChain};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// State of a write that is durable (or buffered) but may not yet be merged
/// into the DPM metadata index.
#[derive(Debug, Clone)]
enum Unmerged {
    /// Buffered in the log writer, not yet flushed. We keep the bytes so
    /// reads on this KN see the write immediately.
    Pending(Vec<u8>),
    /// Flushed (durable) at this location, waiting for the merge engine.
    Committed(ValueLoc),
    /// A buffered or flushed delete.
    Deleted,
}

/// One shard (the paper's KN thread) of a KVS node: its cache partition,
/// log writer and unmerged-write tracking (§4: "un-merged log segments are
/// cached in the KNs that wrote them", with Bloom filters for membership
/// checks).
struct Shard {
    cache: Box<dyn KnCache>,
    writer: LogWriter,
    unmerged: HashMap<Vec<u8>, Unmerged>,
    bloom: BloomFilter,
    /// A value buffer the next put fills instead of allocating: the last
    /// pending value a flush committed left it, or the pending value a put
    /// replaced.
    spare: Vec<u8>,
}

impl Shard {
    /// Flush the buffered writes, refreshing each written key's cache entry.
    fn flush(&mut self, dpm: &DpmNode, kn: KnId) -> Result<Vec<CommittedWrite>> {
        let commits = self.writer.flush().inspect_err(|_| {
            // Chunks logged before the failure lost their commits: a pending
            // entry may outlive its buffered write, so no older value stays.
            for (key, entry) in &self.unmerged {
                if let Unmerged::Pending(_) = entry {
                    self.cache.invalidate(key);
                }
            }
        })?;
        // Newest first: a key's last put holds its pending value; marking it
        // committed leaves nothing pending for the key's older puts.
        for c in commits.iter().rev().filter(|c| c.op == LogOp::Put) {
            if let Some(entry) = self.unmerged.get_mut(c.key.as_slice()) {
                if let Unmerged::Pending(v) = entry {
                    let loc = ValueLoc::new(c.value_addr.0, c.value_len);
                    self.cache.on_local_write(&c.key, v, loc);
                    self.spare = std::mem::take(v);
                    *entry = Unmerged::Committed(loc);
                }
            }
        }
        // Once everything this shard ever flushed has been merged, the index
        // is authoritative and the unmerged tracking can be dropped.
        if !commits.is_empty() && dpm.unmerged_segments(kn) == 0 {
            self.unmerged.clear();
            self.bloom.clear();
        }
        Ok(commits)
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("cache", &self.cache.name())
            .field("unmerged", &self.unmerged.len())
            .finish()
    }
}

/// Sentinel passed as `client_version` when the caller did not route
/// against a known ownership-table version: never equal to a real version,
/// so the full per-key ownership verification always runs.
pub(crate) const NO_VERSION: u64 = u64::MAX;

/// Per-operation result of a batch.
pub(crate) type OpResult = Result<Option<Vec<u8>>>;

/// Decrements an in-flight counter when dropped (panic-safe).
struct DecrementOnDrop<'a>(&'a AtomicUsize);

impl Drop for DecrementOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Registry handles the node's hot paths record through (resolved once
/// at construction; see `docs/OBSERVABILITY.md`).
#[derive(Debug)]
struct KnMetrics {
    /// `stage_queue_wait_ns` — what a shard's slice of a request waited
    /// on the shard mutex before the shard was its own.
    queue_wait: dinomo_obs::Histogram,
    /// `stage_shard_execute_ns` — execution against the locked shard (or
    /// of one shared-key op run on the caller).
    shard_execute: dinomo_obs::Histogram,
}

impl KnMetrics {
    fn new(registry: &dinomo_obs::Registry) -> Self {
        KnMetrics {
            queue_wait: registry.stage(dinomo_obs::Stage::QueueWait),
            shard_execute: registry.stage(dinomo_obs::Stage::ShardExecute),
        }
    }
}

/// A KVS node.
#[derive(Debug)]
pub struct KnNode {
    id: KnId,
    variant: Variant,
    nic: Nic,
    dpm: Arc<DpmNode>,
    ownership: Arc<RwLock<OwnershipTable>>,
    shards: Vec<Mutex<Shard>>,
    /// Requests (per-key calls and batches) currently executing on any
    /// thread; reconfiguration drains this to zero after turning the node
    /// unavailable, so no straggler can buffer a write behind the
    /// pre-handoff flush.
    in_flight: AtomicUsize,
    failed: AtomicBool,
    reconfiguring: AtomicBool,
    ops: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    rejected: AtomicU64,
    busy_ns: AtomicU64,
    metrics: KnMetrics,
}

impl KnNode {
    /// Build a KVS node and its shards, recording into `registry` (the
    /// cluster-wide metrics registry owned by the `Kvs`).
    pub fn new(
        id: KnId,
        config: &KvsConfig,
        dpm: Arc<DpmNode>,
        ownership: Arc<RwLock<OwnershipTable>>,
        registry: &dinomo_obs::Registry,
    ) -> Self {
        let nic = Nic::new(config.fabric);
        let shards = (0..config.threads_per_kn.max(1))
            .map(|_| {
                Mutex::new(Shard {
                    cache: build_cache(
                        config.effective_cache_kind(),
                        config.cache_bytes_per_shard(),
                    ),
                    writer: LogWriter::new(Arc::clone(&dpm), id, nic.clone()),
                    unmerged: HashMap::new(),
                    bloom: BloomFilter::new(4096),
                    spare: Vec::new(),
                })
            })
            .collect::<Vec<_>>();
        KnNode {
            id,
            variant: config.variant,
            nic,
            dpm,
            ownership,
            shards,
            in_flight: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            reconfiguring: AtomicBool::new(false),
            ops: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            metrics: KnMetrics::new(registry),
        }
    }

    /// Node id.
    pub fn id(&self) -> KnId {
        self.id
    }

    /// The node's NIC (for round-trip accounting in tests and benches).
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// `true` once the node has been failed.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Simulate a fail-stop crash: the node stops serving and its DRAM
    /// contents (what [`KnNode::clear_caches`] drops) are lost.
    ///
    /// In-flight requests are drained first so no straggler repopulates
    /// the cleared caches; later arrivals fail with
    /// [`KvsError::NodeFailed`] (which the client retries elsewhere).
    /// Returns the lost cache entries unfreed, as `clear_caches` does.
    pub fn fail(&self) -> Vec<Box<dyn Send>> {
        self.failed.store(true, Ordering::SeqCst);
        self.drain_in_flight();
        self.clear_caches()
    }

    /// Mark the node unavailable while it participates in a reconfiguration
    /// (step 2 of §3.5) or available again (step 5).
    pub fn set_reconfiguring(&self, on: bool) {
        self.reconfiguring.store(on, Ordering::SeqCst);
    }

    /// Admission, the first step of every request: count it in flight,
    /// *then* check availability. The increment must precede the check
    /// (both `SeqCst`) so [`KnNode::drain_in_flight`] cannot observe zero
    /// while work that passed the check is still executing. The returned
    /// guard keeps the work counted until it drops.
    fn admit(&self) -> Result<DecrementOnDrop<'_>> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let in_flight = DecrementOnDrop(&self.in_flight);
        if self.failed.load(Ordering::SeqCst) {
            return Err(KvsError::NodeFailed);
        }
        if self.reconfiguring.load(Ordering::SeqCst) {
            return Err(KvsError::Reconfiguring);
        }
        Ok(in_flight)
    }

    /// Wait until nothing is executing on this node.
    ///
    /// Callers first turn the node unavailable ([`KnNode::fail`] or
    /// [`KnNode::set_reconfiguring`]); everything that executes here went
    /// through [`KnNode::admit`], so once this observes zero, any later
    /// arrival is guaranteed to see the unavailability flag and reject —
    /// no straggler can still buffer a write behind the reconfiguration's
    /// flush-and-merge.
    pub(crate) fn drain_in_flight(&self) {
        while self.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
    }

    /// Seal every shard writer's open log segment. A node leaving the
    /// cluster never writes again, and the collectors (`run_gc`, the
    /// compactor) only reclaim sealed segments: left open, its last
    /// segments would stay allocated forever once their entries die.
    pub(crate) fn seal_log_segments(&self) {
        for shard in &self.shards {
            shard.lock().writer.seal_current();
        }
    }

    // ------------------------------------------------------------- reads

    /// `lookup(key)`: a batch of one through the serving envelope (`serve`).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.serve_one(OpRef::Lookup(key), key_hash(key), NO_VERSION)
    }

    /// The owned-key read path against an already-locked shard. `guard` is
    /// the slice's epoch pin, taken here on the first branch that reads
    /// DPM (the shortcut, overlay and miss branches) and kept by the caller
    /// for the rest of its slice; a value hit reads only the cache and
    /// pins nothing. The op's fabric reads are posted to `reads`, its chain
    /// on the slice's list: each is made here, and the caller waits for
    /// them.
    fn get_in_shard(
        &self,
        shard: &mut Shard,
        key: &[u8],
        guard: &mut Option<Guard>,
        reads: &mut ReadChain<'_, '_>,
    ) -> Result<Option<Vec<u8>>> {
        // A put keeps its key's cache entry until its slice's flush refreshes
        // it, so a buffered write answers first; read-only slices ask the
        // cache (only a failed flush leaves writes buffered past a slice).
        if shard.writer.buffered_entries() > 0 && shard.bloom.may_contain(key) {
            match shard.unmerged.get(key) {
                Some(Unmerged::Pending(v)) => return Ok(Some(v.clone())),
                Some(Unmerged::Deleted) => return Ok(None),
                _ => {}
            }
        }
        match shard.cache.lookup(key) {
            CacheLookup::Value(v) => return Ok(Some(v)),
            CacheLookup::Shortcut(loc) => {
                // Validate the cached address before dereferencing it: the
                // DPM compactor may have relocated the entry and freed its
                // segment since this shortcut was cached (the relocation
                // observer invalidates, but a racing read can re-admit a
                // stale location afterwards). The check and the read both
                // run under the slice's epoch pin, and the compactor
                // defers the pool free past every pinned guard, so a
                // location that validates here cannot be reused mid-read.
                let guard = guard.get_or_insert_with(dinomo_dpm::pin);
                if self.dpm.value_addr_is_live_in(guard, PmAddr(loc.addr)) {
                    let value = self.dpm.read_value_posted(reads, PmAddr(loc.addr), loc.len);
                    shard.cache.admit_value(key, &value, loc);
                    return Ok(Some(value));
                }
                // Dangling shortcut: drop it and fall through to the miss
                // path, which re-resolves (and re-caches) the relocated
                // location through the index.
                shard.cache.invalidate(key);
            }
            CacheLookup::Miss => {}
        }
        // Check the KN's own unmerged writes before going to the index.
        if shard.bloom.may_contain(key) {
            match shard.unmerged.get(key) {
                Some(Unmerged::Pending(v)) => return Ok(Some(v.clone())),
                Some(&Unmerged::Committed(loc)) => {
                    // Same hazard as the shortcut hit: a committed-but-
                    // untracked-as-merged location may sit in a segment the
                    // compactor has since freed (its entry was merged, or
                    // it would not have been relocated — the index is
                    // authoritative for it).
                    let guard = guard.get_or_insert_with(dinomo_dpm::pin);
                    if self.dpm.value_addr_is_live_in(guard, PmAddr(loc.addr)) {
                        let value = self.dpm.read_value_posted(reads, PmAddr(loc.addr), loc.len);
                        shard.cache.admit_value(key, &value, loc);
                        return Ok(Some(value));
                    }
                    shard.unmerged.remove(key);
                }
                Some(Unmerged::Deleted) => return Ok(None),
                None => {}
            }
        }
        // Full miss: traverse the metadata index remotely.
        let guard = guard.get_or_insert_with(dinomo_dpm::pin);
        let lookup = self.dpm.remote_read_posted(guard, reads, key);
        shard.cache.record_miss_cost(lookup.rts);
        let (Some(value), Some((addr, len))) = (lookup.value, lookup.value_loc) else {
            return Ok(None);
        };
        if !lookup.indirect {
            shard
                .cache
                .admit_value(key, &value, ValueLoc { addr: addr.0, len });
        }
        Ok(Some(value))
    }

    /// Read of a selectively-replicated key: indirection cell then value, as
    /// in §3.4 ("A KN reading a shared key has to first read the indirect
    /// pointer and then read the value").
    fn get_shared(&self, key: &[u8], shard: u32) -> Result<Option<Vec<u8>>> {
        let Some(cell) = self.dpm.indirect_cell_of(key) else {
            // Replication was requested but the cell is not installed yet:
            // the key's writes still live in its own shard's overlay and
            // cache, so that is where the ordinary path must read.
            let mut shard = self.shards[shard as usize].lock();
            let mut reads = PostedReads::new(&self.nic);
            let value = self.get_in_shard(&mut shard, key, &mut None, &mut reads.chain());
            reads.wait();
            return value;
        };
        let Some(entry_loc) = self.dpm.remote_read_indirect(&self.nic, cell) else {
            return Ok(None);
        };
        self.nic.one_sided_read(entry_loc.len() as usize);
        let entry =
            dinomo_dpm::entry::decode_entry(self.dpm.pool(), entry_loc.addr(), entry_loc.len());
        Ok(entry
            .filter(|e| e.key_is(self.dpm.pool(), key))
            .map(|e| e.read_value(self.dpm.pool())))
    }

    // ------------------------------------------------------------ writes

    /// `insert(key, value)` / `update(key, value)`: a batch of one through
    /// the serving envelope (`serve`).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.serve_one(OpRef::Put(key, value), key_hash(key), NO_VERSION)
            .map(drop)
    }

    /// `delete(key)`: a batch of one through the serving envelope (`serve`).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.serve_one(OpRef::Delete(key), key_hash(key), NO_VERSION)
            .map(drop)
    }

    /// The owned-key write path against an already-locked shard: buffer the
    /// log record and track the pending write. The slice flushes it before
    /// answering.
    fn put_in_shard(shard: &mut Shard, key: &[u8], value: &[u8]) {
        shard.writer.append_put(key, value);
        // The spare buffer takes the value. A key the overlay tracks keeps
        // its entry, so no key is copied, and a pending value it replaces
        // leaves its buffer as the next spare.
        let mut buffer = std::mem::take(&mut shard.spare);
        buffer.clear();
        buffer.extend_from_slice(value);
        match shard.unmerged.get_mut(key) {
            Some(entry) => {
                if let Unmerged::Pending(old) = std::mem::replace(entry, Unmerged::Pending(buffer))
                {
                    shard.spare = old;
                }
            }
            None => {
                shard
                    .unmerged
                    .insert(key.to_vec(), Unmerged::Pending(buffer));
            }
        }
        shard.bloom.insert(key);
    }

    /// The delete path against an already-locked shard. Returns the
    /// tombstone's global sequence number.
    fn delete_in_shard(shard: &mut Shard, key: &[u8]) -> u64 {
        let seq = shard.writer.append_delete(key);
        shard.cache.invalidate(key);
        shard.unmerged.insert(key.to_vec(), Unmerged::Deleted);
        shard.bloom.insert(key);
        seq
    }

    /// Update of a selectively-replicated key: log the value, then CAS the
    /// indirection cell to the new entry.
    fn put_shared(&self, key: &[u8], value: &[u8], shard: u32) -> Result<()> {
        let mut shard = self.shards[shard as usize].lock();
        let seq = shard.writer.append_put(key, value);
        // The flush refreshes the cache entries of the shard's own puts, and
        // would cache a pending put of this key from before it was
        // replicated at the shared put's location: that entry goes.
        let flushed = shard.flush(&self.dpm, self.id);
        shard.cache.invalidate(key);
        drop(shard);
        // Earlier entries in the batch are handled by the merge engine; this
        // key, flushed last, is made visible by swinging the cell.
        let new_loc = flushed?.last().expect("the put was flushed").entry_loc;
        let Some(cell) = self.dpm.indirect_cell_of(key) else {
            // Replication raced with de-replication; the merge engine will
            // make the logged entry visible through the index.
            return Ok(());
        };
        // Swings the cell whether it holds a live value or a delete
        // tombstone (the put re-installs visibility after a delete) —
        // unless the cell already publishes newer state.
        self.dpm.publish_shared_put(&self.nic, cell, new_loc, seq);
        Ok(())
    }

    /// Delete of a selectively-replicated key: log the tombstone, then mark
    /// the indirection cell with a delete tombstone so shared readers on
    /// **every** replica observe the delete immediately — an acknowledged
    /// delete must not keep serving the old value until its log tombstone is
    /// flushed and merged. The merge engine later removes the index entry
    /// and releases the cell.
    fn delete_shared(&self, key: &[u8], shard: u32) -> Result<()> {
        let mut shard = self.shards[shard as usize].lock();
        let seq = Self::delete_in_shard(&mut shard, key);
        let flushed = shard.flush(&self.dpm, self.id);
        drop(shard);
        flushed?;
        if let Some(cell) = self.dpm.indirect_cell_of(key) {
            self.dpm.publish_shared_delete(&self.nic, cell, seq);
        }
        Ok(())
    }

    // ------------------------------------------------------- the envelope

    /// Serve a group of operations that a client routed to this node in one
    /// request (§3.6's per-request overheads paid once per *group*):
    ///
    /// * availability is checked once for the group;
    /// * ownership is resolved for every key under a **single** read
    ///   acquisition of the ownership table, with one key hash shared by
    ///   the owner and thread ring lookups;
    /// * operations are applied per shard with **one** lock
    ///   acquisition per shard, and a shard's log writes are flushed
    ///   **once**, before any is answered, instead of once per op.
    ///
    /// Results are positional (`result[i]` answers `ops[i]`). Operations on
    /// keys this node does not own fail with [`KvsError::NotOwner`]
    /// individually — the rest of the group still executes — so a client
    /// racing a reconfiguration retries only the rejected subset.
    ///
    /// Within the group, operations on the same key apply in group order
    /// (same key → same shard, and each shard applies its sub-group in
    /// order). No ordering is guaranteed across different keys, exactly as
    /// with concurrent per-key calls.
    pub fn run_batch(&self, ops: &[Op]) -> Vec<Result<Option<Vec<u8>>>> {
        let positions: Vec<usize> = (0..ops.len()).collect();
        let hashes: Vec<u64> = ops.iter().map(|op| key_hash(op.key())).collect();
        let mut out: Vec<Option<OpResult>> = vec![None; ops.len()];
        // `NO_VERSION` forces the full per-key ownership verification.
        self.serve(
            |pos| ops[pos].view(),
            &positions,
            &hashes,
            NO_VERSION,
            &mut |pos, r| out[pos] = Some(r),
        );
        out.into_iter()
            .map(|r| r.expect("every op in the batch got a result"))
            .collect()
    }

    /// A batch of one through [`KnNode::serve`]: the per-key entry points
    /// above and the client's one-op dispatch. `hash` must be
    /// `key_hash(op.key())`.
    pub(crate) fn serve_one(&self, op: OpRef<'_>, hash: u64, client_version: u64) -> OpResult {
        let mut out = None;
        self.serve(|_| op, &[0], &[hash], client_version, &mut |_, r| {
            out = Some(r)
        });
        out.expect("the envelope answers every position")
    }

    /// The one serving envelope. Everything this node executes for a
    /// client — a per-key call, a direct batch, a client batch — passes
    /// through here exactly once, on the calling thread:
    ///
    /// 1. **admission** ([`KnNode::admit`]): in-flight guard, then the
    ///    availability check, so §3.5's drain covers every request;
    /// 2. **routes** ([`KnNode::resolve_routes`]): one ownership-table
    ///    read for the whole group — §3.1's stale-client rejection happens
    ///    there and nowhere else;
    /// 3. **execution**: each involved shard's slice under one lock, at
    ///    most one epoch pin and, if it wrote, one flush
    ///    ([`KnNode::run_shard`]), then the shared-key positions in order.
    ///    Replicated keys linearize through their DPM indirection cell and
    ///    never share a key with the owned slices of the same round;
    /// 4. **accounting**: one [`KnNode::record_work`] call.
    ///
    /// The steps of 3 share their clock reads: the call's start is the
    /// first slice's wait start, and each slice's (or shared op's) end is
    /// the next one's start and, for the last, the end `record_work`
    /// accounts to. A per-key op so reads the clock three times: its
    /// start, its lock acquisition (only while stage timing is on) and
    /// its end.
    ///
    /// Every slice runs inside this call's own admission, so the routes
    /// resolved in step 2 cannot go stale before they are used: a
    /// reconfiguration swaps the table only after closing the node and
    /// draining `in_flight` to zero, which waits for this call to return.
    ///
    /// Serves `ops(pos)` for every `pos` in `positions` and answers through
    /// `set(pos, _)`. `hashes[pos]` must be `key_hash(ops(pos).key())` —
    /// the client hashed each key to route it, so the node reuses the hash
    /// for its own ring lookups. `client_version` is the ownership-table
    /// version the caller routed against ([`NO_VERSION`] if none).
    pub(crate) fn serve<'a>(
        &self,
        ops: impl Fn(usize) -> OpRef<'a> + Copy,
        positions: &[usize],
        hashes: &[u64],
        client_version: u64,
        set: &mut impl FnMut(usize, OpResult),
    ) {
        let _in_flight = match self.admit() {
            Ok(guard) => guard,
            Err(e) => {
                for &pos in positions {
                    set(pos, Err(e.clone()));
                }
                return;
            }
        };
        // A batch of one keeps its route on the stack.
        let (mut one, mut many) = ([0u32; 1], Vec::new());
        let routes: &mut [u32] = if positions.len() == 1 {
            &mut one
        } else {
            many.resize(positions.len(), 0);
            &mut many
        };
        self.resolve_routes(ops, positions, hashes, client_version, routes, set);
        let routes = &*routes;
        let start = Instant::now();
        let mut now = start;
        let (mut reads, mut writes) = (0u64, 0u64);
        for shard_idx in 0..self.shards.len() as u32 {
            if !routes.contains(&shard_idx) {
                continue;
            }
            let slice = Self::shard_positions(positions, routes, shard_idx);
            let (r, w, end) = self.run_shard(shard_idx, ops, slice, set, now);
            reads += r;
            writes += w;
            now = end;
        }
        let (r, w, end) = self.run_shared(ops, positions, routes, set, now);
        self.record_work(reads + r, writes + w, end.duration_since(start));
    }

    /// Resolve ownership for a whole group under one read lock. The global
    /// and local rings are hoisted out of the loop, the client's key
    /// hashes feed the ring lookups, and the replicated-key check
    /// short-circuits on an empty replica table.
    ///
    /// Writes one route per position into `routes` (parallel to
    /// `positions`): the shard index for owned keys,
    /// [`Self::ROUTE_SHARED`]`| shard` for keys that take the in-order
    /// shared pass, or [`Self::ROUTE_REJECTED`] for keys this node does
    /// not own (answered `NotOwner` through `set`).
    ///
    /// `client_version` is the ownership-table version the caller routed
    /// against (§3.1's staleness detection, applied group-wide): when it
    /// equals the node's current version the tables are identical, the
    /// client's routing is known-correct, and the per-key ownership
    /// re-verification is skipped for the whole group.
    fn resolve_routes<'a>(
        &self,
        ops: impl Fn(usize) -> OpRef<'a>,
        positions: &[usize],
        hashes: &[u64],
        client_version: u64,
        routes: &mut [u32],
        set: &mut impl FnMut(usize, OpResult),
    ) {
        let table = self.ownership.read();
        let replication = self.variant.supports_selective_replication();
        let global = table.global_ring();
        let local = table.local_ring(self.id);
        let verified = table.version() == client_version;
        for (route, &pos) in routes.iter_mut().zip(positions) {
            let key = ops(pos).key();
            let hash = hashes[pos];
            let replicated = table.is_replicated(key);
            let owned = verified
                || if replicated {
                    table.owners(key).contains(&self.id)
                } else {
                    global.owner(hash) == Some(self.id)
                };
            if !owned {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                let current_version = table.version();
                set(pos, Err(KvsError::NotOwner { current_version }));
                *route = Self::ROUTE_REJECTED;
                continue;
            }
            let shard =
                local.and_then(|ring| ring.owner(hash)).unwrap_or(0) % self.shards.len() as u32;
            // Every op on a replicated key is deferred to the in-order
            // shared pass — including deletes, which must keep their
            // batch order relative to the key's shared-path writes.
            *route = if replication && replicated {
                Self::ROUTE_SHARED | shard
            } else {
                shard
            };
        }
    }

    /// Route tag for positions rejected with `NotOwner`.
    const ROUTE_REJECTED: u32 = u32::MAX;
    /// Route-tag bit for positions deferred to the in-order shared pass.
    const ROUTE_SHARED: u32 = 1 << 31;

    /// The positions routed to `shard_idx`, in group order, with no
    /// allocation.
    fn shard_positions<'a>(
        positions: &'a [usize],
        routes: &'a [u32],
        shard_idx: u32,
    ) -> impl Iterator<Item = usize> + Clone + 'a {
        positions
            .iter()
            .zip(routes)
            .filter(move |&(_, &route)| route == shard_idx)
            .map(|(&pos, _)| pos)
    }

    /// Execute one shard's slice of a group, in group order. Locks the
    /// shard **once**, pins at most **one** epoch guard covering every
    /// index lookup of the slice, and flushes its writes once at the end,
    /// before any is answered (group commit). Results are reported per
    /// position through `set`; returns the `(reads, writes)` served and
    /// the instant the slice ended.
    ///
    /// The slice's one-sided reads go to one [`PostedReads`] list on this
    /// stack frame, one chain per lookup. Every read is made where the op
    /// makes it, under the pin and the shard mutex; only the waits move. A
    /// slice with no write waits once, for all of its reads, before it
    /// releases the shard. A slice that writes waits after each op, so its
    /// timing (and the rate of the writes behind it) is the per-key one.
    ///
    /// The shard mutex is the slice's queue: clients that route to the
    /// same shard serialize on it. The wait for it, from `waiting_since`,
    /// is the slice's one `stage_queue_wait_ns` sample; from there on it
    /// is `stage_shard_execute_ns`.
    fn run_shard<'a>(
        &self,
        shard_idx: u32,
        ops: impl Fn(usize) -> OpRef<'a>,
        positions: impl Iterator<Item = usize> + Clone,
        set: &mut impl FnMut(usize, OpResult),
        waiting_since: Instant,
    ) -> (u64, u64, Instant) {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let read_only = !positions.clone().any(|pos| ops(pos).is_write());
        // One epoch pin covers every index lookup this slice performs (the
        // lock-free read side of the P-CLHT; see dinomo_pclht::pin), taken
        // at the first read that leaves the cache: a slice of value hits
        // or of writes needs none.
        let mut guard = None;
        let mut posted = PostedReads::new(&self.nic);
        let mut shard = self.shards[shard_idx as usize].lock();
        let locked_at = dinomo_obs::stage_clock();
        if let Some(at) = locked_at {
            self.metrics
                .queue_wait
                .record(at.duration_since(waiting_since).as_nanos() as u64);
        }
        for pos in positions.clone() {
            let result = match ops(pos) {
                OpRef::Lookup(key) => {
                    reads += 1;
                    self.get_in_shard(&mut shard, key, &mut guard, &mut posted.chain())
                }
                OpRef::Put(key, value) => {
                    writes += 1;
                    Self::put_in_shard(&mut shard, key, value);
                    Ok(None)
                }
                OpRef::Delete(key) => {
                    writes += 1;
                    Self::delete_in_shard(&mut shard, key);
                    Ok(None)
                }
            };
            if !read_only {
                posted.wait();
            }
            set(pos, result);
        }
        // One flush for the whole slice. A flush failure is a durability
        // failure of every write the slice buffered, so it is reported on
        // each of them.
        if writes > 0 {
            if let Err(e) = shard.flush(&self.dpm, self.id) {
                for pos in positions {
                    if ops(pos).is_write() {
                        set(pos, Err(e.clone()));
                    }
                }
            }
        }
        posted.wait();
        drop(shard);
        let end = Instant::now();
        if let Some(at) = locked_at {
            self.metrics
                .shard_execute
                .record(end.duration_since(at).as_nanos() as u64);
        }
        (reads, writes, end)
    }

    /// The shared (replicated-key) positions of a group, one op at a time
    /// in group order: each locks its shard internally and linearizes
    /// through its indirection cell. Each op, from the previous op's (or
    /// slice's) end, `since`, to its own, is one `stage_shard_execute_ns`
    /// sample. Returns the `(reads, writes)` served and the instant the
    /// last op ended (`since` if there was none).
    fn run_shared<'a>(
        &self,
        ops: impl Fn(usize) -> OpRef<'a>,
        positions: &[usize],
        routes: &[u32],
        set: &mut impl FnMut(usize, OpResult),
        mut since: Instant,
    ) -> (u64, u64, Instant) {
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (&pos, &route) in positions.iter().zip(routes) {
            if route == Self::ROUTE_REJECTED || route & Self::ROUTE_SHARED == 0 {
                continue;
            }
            let shard = route & !Self::ROUTE_SHARED;
            let result = match ops(pos) {
                OpRef::Lookup(key) => {
                    reads += 1;
                    self.get_shared(key, shard)
                }
                OpRef::Put(key, value) => {
                    writes += 1;
                    self.put_shared(key, value, shard).map(|()| None)
                }
                OpRef::Delete(key) => {
                    writes += 1;
                    self.delete_shared(key, shard).map(|()| None)
                }
            };
            let end = Instant::now();
            if dinomo_obs::enabled() {
                self.metrics
                    .shard_execute
                    .record(end.duration_since(since).as_nanos() as u64);
            }
            since = end;
            set(pos, result);
        }
        (reads, writes, since)
    }

    /// Fold served operations into the node-level counters (ops, reads,
    /// writes, `busy` time).
    fn record_work(&self, reads: u64, writes: u64, busy: std::time::Duration) {
        self.ops.fetch_add(reads + writes, Ordering::Relaxed);
        self.reads.fetch_add(reads, Ordering::Relaxed);
        self.writes.fetch_add(writes, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    // ------------------------------------------------- maintenance hooks

    /// Flush every shard's buffered writes to DPM: the retry of a failed
    /// flush (every slice flushes its own writes), run before a hand-off.
    pub fn flush_pending_writes(&self) -> Result<()> {
        for shard in &self.shards {
            shard.lock().flush(&self.dpm, self.id)?;
        }
        Ok(())
    }

    /// Drop the node's DRAM request-path state — caches, unmerged-write
    /// tracking and bloom filters (the "current owner empties its cache"
    /// step of the reconfiguration protocol).
    ///
    /// Callers must have flushed this node's pending logs and waited for
    /// them to merge first, so the DPM index is authoritative for every key
    /// the node tracked. Dropping only the value cache here is not enough:
    /// a stale `unmerged` entry would survive the ownership hand-off, and a
    /// range that later *returns* to this node (scale out then back in, or
    /// a failure re-homing keys) would read an outdated location from it
    /// instead of the index.
    ///
    /// Returns the caches' old entries unfreed. Freeing a full cache takes
    /// long (0.1–0.3 s for a 64 MiB DAC cache while clients run beside
    /// it), so a reconfiguration frees them after it has reopened its
    /// nodes, not while their ranges are unavailable.
    pub fn clear_caches(&self) -> Vec<Box<dyn Send>> {
        self.shards
            .iter()
            .map(|shard| {
                let mut s = shard.lock();
                s.unmerged.clear();
                s.bloom.clear();
                s.cache.clear()
            })
            .collect()
    }

    /// Fail-stop crash semantics for this node's DRAM: everything
    /// [`KnNode::clear_caches`] drops, plus the log writers'
    /// buffered-but-unflushed entries — a crash loses the KN's volatile
    /// state wholesale, flushed or not. Unlike `clear_caches` this needs
    /// no prior flush/merge: the surviving truth is whatever already
    /// reached the DPM log. Every slice flushes its writes before it
    /// answers them, and callers drain in-flight slices first, so the
    /// discarded entries are only those of a failed flush — never an
    /// acknowledged write. Returns how many buffered entries died.
    pub fn discard_volatile_state(&self) -> usize {
        let mut discarded = 0;
        for shard in &self.shards {
            let mut s = shard.lock();
            discarded += s.writer.discard_buffered();
            s.cache.clear();
            s.unmerged.clear();
            s.bloom.clear();
        }
        discarded
    }

    /// Drop all local state for a specific key (used when a key becomes
    /// selectively replicated or de-replicated, at which point the DPM —
    /// whose pending logs have been merged — is authoritative for it).
    pub fn invalidate_key(&self, key: &[u8]) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.cache.invalidate(key);
            s.unmerged.remove(key);
        }
    }

    /// The DPM compactor relocated `key`'s log entry away from `old_loc`:
    /// drop every cached location that points into the victim before its
    /// segment is freed.
    ///
    /// Unlike [`KnNode::invalidate_key`], this must **not** drop
    /// `Unmerged::Pending` state. Locking each shard, it never runs inside
    /// a slice: the only pending entry it meets is one a failed flush left,
    /// whose write may still be buffered, and removing it would serve the
    /// older, relocated value. It removes a `Committed` entry only when its
    /// address lies
    /// inside the relocated entry: a committed location elsewhere belongs
    /// to a *newer* write whose merge may still be in flight, and the
    /// index is not yet authoritative for it.
    pub fn on_entry_relocated(&self, key: &[u8], old_loc: dinomo_dpm::PackedLoc) {
        let start = old_loc.addr().0;
        let end = start + old_loc.len();
        for shard in &self.shards {
            let mut s = shard.lock();
            s.cache.invalidate(key);
            if let Some(Unmerged::Committed(loc)) = s.unmerged.get(key) {
                if loc.addr >= start && loc.addr < end {
                    // The relocated entry *is* this committed write (the
                    // compactor only moves the indexed, fully-merged
                    // entry), so the index now serves its value.
                    s.unmerged.remove(key);
                }
            }
        }
    }

    /// Aggregate statistics for this node.
    pub fn stats(&self) -> KnStats {
        let mut cache = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock();
            let cs = s.cache.stats();
            cache.value_hits += cs.value_hits;
            cache.shortcut_hits += cs.shortcut_hits;
            cache.misses += cs.misses;
            cache.promotions += cs.promotions;
            cache.demotions += cs.demotions;
            cache.evictions += cs.evictions;
            cache.bytes_used += cs.bytes_used;
            cache.capacity_bytes += cs.capacity_bytes;
            cache.value_entries += cs.value_entries;
            cache.shortcut_entries += cs.shortcut_entries;
        }
        KnStats {
            id: self.id,
            ops: self.ops.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cache,
            nic: self.nic.snapshot(),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Reply;

    /// One flush decision covers a whole write slice, so a failed flush is
    /// reported on every write of the slice: its error results come after
    /// the `Ok` results the writes produced when they were buffered, and
    /// the later result for a position wins at the client.
    #[test]
    fn failed_flush_overrides_the_slices_buffered_write_results() {
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .initial_kns(1)
            .threads_per_kn(1)
            .build()
            .unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        // The slice's flush begins by allocating the shard's first log
        // segment, and that fails.
        node.dpm.pool().inject_alloc_failures(1);
        let mut ops: Vec<Op> = (0..4).map(|i| Op::insert(format!("k{i}"), "v")).collect();
        ops.push(Op::lookup("absent"));
        let replies = kvs.client().execute(ops);
        for reply in &replies[..4] {
            assert_eq!(
                reply,
                &Reply::Error(KvsError::Pmem(dinomo_pmem::PmemError::InjectedFailure)),
                "a write whose flush failed must not be acknowledged"
            );
        }
        assert_eq!(replies[4], Reply::Value(None));
    }

    /// A one-KN, one-shard cluster: every op a batch sends the node runs in
    /// one slice, and the slice's flush comes after all of them.
    fn one_shard_node() -> (crate::Kvs, Arc<KnNode>) {
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .initial_kns(1)
            .threads_per_kn(1)
            .build()
            .unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        (kvs, node)
    }

    /// The owner's flush refreshes a written key's DAC value in place. In a
    /// full cache, a slice that puts a value-resident key and then admits
    /// another key's miss before its flush leaves the key value-resident:
    /// its next read is a value hit, and no value was demoted on the way.
    #[test]
    fn a_put_keeps_its_key_value_resident_in_a_full_dac() {
        let (_kvs, node) = one_shard_node();
        let (hot, cold) = (b"hot".as_slice(), b"cold".as_slice());
        node.put(hot, &[1; 100]).unwrap();
        node.put(cold, &[2; 100]).unwrap();
        {
            // Room for `hot`'s value and one shortcut: not for two values.
            let mut shard = node.shards[0].lock();
            shard.cache.clear();
            let room = dinomo_cache::value_weight(hot, 100) + dinomo_cache::shortcut_weight(cold);
            shard.cache.set_capacity_bytes(room);
        }
        assert_eq!(node.get(hot).unwrap(), Some(vec![1; 100]));
        let before = node.stats().cache;
        assert_eq!(before.value_entries, 1);

        let replies = node.run_batch(&[Op::update(hot, [3; 100]), Op::lookup(cold)]);
        assert_eq!(replies, [Ok(None), Ok(Some(vec![2; 100]))]);
        assert_eq!(node.get(hot).unwrap(), Some(vec![3; 100]));
        let after = node.stats().cache;
        assert_eq!(after.value_hits, before.value_hits + 1, "{after:?}");
        assert_eq!(after.demotions, before.demotions, "{after:?}");
    }

    /// A put leaves its key's cached value in place until its slice's
    /// flush, so the shard's buffered writes must answer first: inside the
    /// slice, reads of value-resident keys it put and deleted return the
    /// new value and `None`, and so do reads after the flush.
    #[test]
    fn buffered_writes_answer_before_cached_values() {
        let (_kvs, node) = one_shard_node();
        node.put(b"put", b"old").unwrap();
        node.put(b"deleted", b"old").unwrap();
        assert_eq!(node.stats().cache.value_entries, 2);

        let replies = node.run_batch(&[
            Op::update("put", "new"),
            Op::delete("deleted"),
            Op::lookup("put"),
            Op::lookup("deleted"),
        ]);
        assert_eq!(
            replies,
            [Ok(None), Ok(None), Ok(Some(b"new".to_vec())), Ok(None)]
        );
        assert_eq!(node.get(b"put").unwrap(), Some(b"new".to_vec()));
        assert_eq!(node.get(b"deleted").unwrap(), None);
    }

    /// A slice's flush that fails after logging its first chunk leaves that
    /// chunk's puts pending with nothing left buffered for them. Their keys'
    /// older cached values must go with the error, or a read after the
    /// retry drains the buffer would return them.
    #[test]
    fn a_failed_flush_drops_the_cached_values_of_its_pending_keys() {
        let (_kvs, node) = one_shard_node();
        node.put(b"k", b"old").unwrap();
        node.dpm.wait_until_all_merged();
        assert_eq!(node.stats().cache.value_entries, 1);

        // With `k`'s put, three 12 KiB fillers outgrow a 32 KiB segment: the
        // flush logs `k` and two fillers in the open segment, then fails to
        // allocate the next one for the third.
        let filler = [0u8; 12 << 10];
        node.dpm.pool().inject_alloc_failures(1);
        let replies = node.run_batch(&[
            Op::update("k", "new"),
            Op::insert("f0", filler),
            Op::insert("f1", filler),
            Op::insert("f2", filler),
        ]);
        let failed = Err(KvsError::Pmem(dinomo_pmem::PmemError::InjectedFailure));
        assert!(replies.iter().all(|r| *r == failed), "{replies:?}");
        assert_eq!(node.shards[0].lock().writer.buffered_entries(), 1);

        node.flush_pending_writes().unwrap();
        assert_eq!(node.shards[0].lock().writer.buffered_entries(), 0);
        assert_eq!(node.get(b"k").unwrap(), Some(b"new".to_vec()));
    }

    /// A shared-key put flushes its shard's whole buffer, and that holds
    /// owned puts only when a failed flush left them there. They are
    /// refreshed as any flushed put is: the next read of one is a value hit.
    #[test]
    fn a_shared_put_refreshes_the_owned_puts_it_flushes() {
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .threads_per_kn(1)
            .build()
            .unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        let key = (0..)
            .map(|i| format!("k{i}").into_bytes())
            .find(|k| node.ownership.read().global_ring().owner(key_hash(k)) == Some(node.id))
            .unwrap();
        kvs.client().insert(b"shared", b"v0").unwrap();
        kvs.replicate_key(b"shared", 2).unwrap();
        node.put(&key, b"old").unwrap();
        assert_eq!(node.stats().cache.value_entries, 1);

        // With no open segment, the put's flush fails at its allocation.
        node.seal_log_segments();
        node.dpm.pool().inject_alloc_failures(1);
        assert!(node.put(&key, b"new").is_err());
        assert_eq!(node.shards[0].lock().writer.buffered_entries(), 1);

        node.put(b"shared", b"v1").unwrap();
        assert_eq!(node.shards[0].lock().writer.buffered_entries(), 0);
        let hits = node.stats().cache.value_hits;
        assert_eq!(node.get(&key).unwrap(), Some(b"new".to_vec()));
        assert_eq!(node.stats().cache.value_hits, hits + 1);
        assert_eq!(node.get(b"shared").unwrap(), Some(b"v1".to_vec()));
    }

    /// A slice that panics mid-execution — here its op source, with the
    /// shard locked and an epoch pinned — unwinds out of the envelope into
    /// the client that called it and leaves the node serving: the
    /// in-flight count is released (so a drain still completes), the shard
    /// mutex is free, and the next request executes.
    #[test]
    fn panicking_sub_batch_disconnects_its_client_and_spares_the_worker() {
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .initial_kns(1)
            .threads_per_kn(1)
            .build()
            .unwrap();
        kvs.client().insert(b"k0", b"v0").unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        let ops = [Op::lookup("k0"), Op::lookup("k0")];
        let hashes: Vec<u64> = ops.iter().map(|op| key_hash(op.key())).collect();
        // Route resolution reads both ops, the slice reads both to see
        // whether it writes, then reads each again to run it: the sixth
        // read is the second lookup's, after the first pinned.
        let reads = std::cell::Cell::new(0);
        let locked_at_panic = std::cell::Cell::new(false);
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            node.serve(
                |pos| {
                    reads.set(reads.get() + 1);
                    if reads.get() == 6 {
                        locked_at_panic.set(node.shards[0].try_lock().is_none());
                        panic!("op source failed mid-slice");
                    }
                    ops[pos].view()
                },
                &[0, 1],
                &hashes,
                NO_VERSION,
                &mut |_, _| {},
            );
        }));
        assert!(served.is_err(), "the panic must reach the calling client");
        assert!(
            locked_at_panic.get(),
            "the panic must strike inside the slice"
        );
        assert!(
            node.shards[0].try_lock().is_some(),
            "the unwind left the shard locked"
        );
        assert_eq!(node.in_flight.load(Ordering::SeqCst), 0);
        node.drain_in_flight();
        assert_eq!(node.get(b"k0").unwrap(), Some(b"v0".to_vec()));
    }

    /// §3.5's drain covers per-key requests: one that passed admission and
    /// is parked on its shard's mutex holds the drain open until it is
    /// done, and one arriving after the node closed is rejected before it
    /// touches the shard — so no per-key write can be buffered and acked
    /// behind the hand-off's flush.
    #[test]
    fn drain_covers_per_key_requests() {
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .initial_kns(1)
            .threads_per_kn(1)
            .build()
            .unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        // Admission counts a request in flight *before* it checks
        // availability, so a counted put can still lose the race against
        // the close below and be rejected. Such a round proves nothing and
        // is run again; one whose put was admitted must have held the
        // drain open.
        loop {
            let shard_guard = node.shards[0].lock();
            let drained = AtomicBool::new(false);
            let (put, held_open) = std::thread::scope(|s| {
                let put = s.spawn(|| node.put(b"k", b"v"));
                // The deadline only bounds how long a broken envelope takes
                // to fail; until the node closes, a counted put stays
                // counted while this thread holds the mutex it needs.
                let deadline = Instant::now() + std::time::Duration::from_secs(10);
                while node.in_flight.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                assert_eq!(
                    node.in_flight.load(Ordering::SeqCst),
                    1,
                    "a per-key put must be in flight while it waits for its shard"
                );

                // The hand-off closes the node, then drains.
                node.set_reconfiguring(true);
                let drain = s.spawn(|| {
                    node.drain_in_flight();
                    drained.store(true, Ordering::SeqCst);
                });
                // A put arriving now is rejected at admission; reaching the
                // shard would deadlock on the mutex this thread holds.
                assert_eq!(node.put(b"late", b"v"), Err(KvsError::Reconfiguring));
                std::thread::sleep(std::time::Duration::from_millis(20));
                let held_open = !drained.load(Ordering::SeqCst);

                drop(shard_guard);
                let put = put.join().unwrap();
                drain.join().unwrap();
                (put, held_open)
            });
            assert!(drained.load(Ordering::SeqCst));
            assert_eq!(node.in_flight.load(Ordering::SeqCst), 0);
            if put == Err(KvsError::Reconfiguring) {
                node.set_reconfiguring(false);
                continue;
            }
            assert_eq!(put, Ok(()));
            assert!(
                held_open,
                "the drain returned while an admitted put was still executing"
            );
            break;
        }
        // The admitted put landed ahead of the hand-off's flush.
        node.flush_pending_writes().unwrap();
        node.set_reconfiguring(false);
        assert_eq!(node.get(b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(node.get(b"late").unwrap(), None);
    }

    /// A key the table already calls replicated, but whose indirection cell
    /// is not installed, is read through the ordinary path of the key's
    /// *own* shard — the one whose cache its put's flush refreshed.
    #[test]
    fn shared_read_without_a_cell_reads_the_keys_own_shard() {
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .initial_kns(1)
            .build()
            .unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        // Not a shard-0 key: a read of the wrong shard must show.
        let key = (0..)
            .map(|i| format!("k{i}").into_bytes())
            .find(|k| node.ownership.read().thread_of(node.id, k) == Some(1))
            .unwrap();
        node.put(&key, b"v").unwrap();
        node.ownership.write().replicate(&key, 2);
        assert!(node.dpm.indirect_cell_of(&key).is_none());
        let hits = node.stats().cache.value_hits;
        assert_eq!(node.get(&key).unwrap(), Some(b"v".to_vec()));
        assert_eq!(node.stats().cache.value_hits, hits + 1, "shard 1 serves it");
    }
}
