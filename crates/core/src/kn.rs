//! The KVS node (KN): per-thread shards, DAC cache, log writer, unmerged-log
//! tracking, and the request paths of §3.6.

use crate::config::{KvsConfig, Variant};
use crate::error::KvsError;
use crate::executor::{BatchShared, BoundedQueue, OpResult, PushError, SliceReplies};
use crate::op::{Op, OpRef};
use crate::stats::KnStats;
use crate::Result;
use dinomo_cache::{build_cache, CacheLookup, CacheStats, KnCache, ValueLoc};
use dinomo_dpm::{BloomFilter, DpmNode, Guard, LogOp, LogWriter};
use dinomo_partition::{key_hash, KnId, OwnershipTable};
use dinomo_pmem::PmAddr;
use dinomo_simnet::Nic;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
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
    Committed { addr: PmAddr, len: u32 },
    /// A buffered or flushed delete.
    Deleted,
}

/// One worker-thread shard of a KVS node: its cache partition, log writer and
/// unmerged-write tracking (§4: "un-merged log segments are cached in the KNs
/// that wrote them", with Bloom filters for membership checks).
struct Shard {
    cache: Box<dyn KnCache>,
    writer: LogWriter,
    unmerged: HashMap<Vec<u8>, Unmerged>,
    bloom: BloomFilter,
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

/// One sub-batch of a client batch, bound to one shard of one node: the
/// unit of work a shard worker dequeues. Executing it sends the positions'
/// results back through `replies`, once; running *or dropping* it drops
/// that `Sender`, which is what releases the dispatching client.
pub(crate) struct SubBatch {
    node: Arc<KnNode>,
    shard: u32,
    batch: Arc<BatchShared>,
    positions: Vec<usize>,
    replies: Sender<SliceReplies>,
    /// Ownership-table version the routes in `positions` were resolved
    /// against; execution rejects if the table has moved on since (see
    /// [`KnNode::run_queued_sub_batch`]).
    resolved_version: u64,
    /// When the dispatching client pushed this task (None with
    /// observability disabled); the worker bills the time from here until
    /// it holds the shard to `stage_queue_wait_ns`.
    enqueued_at: Option<Instant>,
}

impl std::fmt::Debug for SubBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubBatch")
            .field("node", &self.node.id)
            .field("shard", &self.shard)
            .field("positions", &self.positions.len())
            .finish()
    }
}

impl SubBatch {
    fn run(self) {
        let SubBatch {
            node,
            shard,
            batch,
            positions,
            replies,
            resolved_version,
            enqueued_at,
        } = self;
        let mut out = SliceReplies::with_capacity(positions.len());
        node.run_queued_sub_batch(
            shard,
            |pos| batch.ops[pos].view(),
            &positions,
            resolved_version,
            enqueued_at,
            &mut |pos, r| out.push((pos, r)),
        );
        // If execution panicked instead, unwinding dropped `replies` with
        // nothing sent: the client sees the positions unanswered. A send
        // only fails when the client itself is gone.
        let _ = replies.send(out);
    }
}

/// The per-node worker pool: one thread per shard, each draining a bounded
/// queue of [`SubBatch`]es.
#[derive(Debug)]
struct NodeExecutor {
    queues: Vec<Arc<BoundedQueue<SubBatch>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// What [`KnNode::serve`] needs to hand a shard's slice of a client batch to
/// that shard's worker: the node handle and batch the task keeps alive, and
/// the round's reply channel.
type Handoff<'a> = (
    &'a Arc<KnNode>,
    &'a Arc<BatchShared>,
    &'a Sender<SliceReplies>,
);

/// Decrements an in-flight counter when dropped (panic-safe).
struct DecrementOnDrop<'a>(&'a AtomicUsize);

impl Drop for DecrementOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(queue: Arc<BoundedQueue<SubBatch>>) {
    while let Some(task) = queue.pop() {
        // A panicking sub-batch must not take the worker (and every queued
        // batch behind it) down with it; unwinding has already dropped the
        // task's reply `Sender`, releasing its client.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run()));
    }
}

/// Registry handles the node's hot paths record through (resolved once
/// at construction; see `docs/OBSERVABILITY.md`).
#[derive(Debug)]
struct KnMetrics {
    /// `kn_busy_rejections` — cluster-wide aggregate of bounded-queue
    /// rejections (the per-node count stays in [`KnNode::stats`]).
    busy_rejections: dinomo_obs::Counter,
    /// `stage_queue_wait_ns` — what a shard's slice of a request waited
    /// before the shard was its own: worker-queue time when it was
    /// enqueued, the shard-mutex wait when it ran inline.
    queue_wait: dinomo_obs::Histogram,
    /// `stage_shard_execute_ns` — execution against the locked shard (or
    /// of one shared-key op run on the caller).
    shard_execute: dinomo_obs::Histogram,
}

impl KnMetrics {
    fn new(registry: &dinomo_obs::Registry) -> Self {
        KnMetrics {
            busy_rejections: registry.counter("kn_busy_rejections"),
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
    write_batch_ops: usize,
    executor: Option<NodeExecutor>,
    /// Sub-batches below this size run inline on the dispatching thread
    /// (`KvsConfig::executor_min_sub_batch`).
    min_sub_batch: usize,
    /// Requests (per-key calls and batches) and queued sub-batches
    /// currently executing on any thread; reconfiguration drains this to
    /// zero after turning the node unavailable, so no straggler can
    /// buffer a write behind the pre-handoff flush.
    in_flight: AtomicUsize,
    failed: AtomicBool,
    reconfiguring: AtomicBool,
    ops: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    rejected: AtomicU64,
    sub_batches: AtomicU64,
    busy_rejections: AtomicU64,
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
                })
            })
            .collect::<Vec<_>>();
        let executor = (config.executor_queue_depth > 0).then(|| {
            let queues: Vec<Arc<BoundedQueue<SubBatch>>> = (0..shards.len())
                .map(|_| Arc::new(BoundedQueue::new(config.executor_queue_depth)))
                .collect();
            let handles = queues
                .iter()
                .enumerate()
                .map(|(shard, queue)| {
                    let queue = Arc::clone(queue);
                    std::thread::Builder::new()
                        .name(format!("dinomo-kn{id}-w{shard}"))
                        .spawn(move || worker_loop(queue))
                        .expect("spawning a shard worker failed")
                })
                .collect();
            NodeExecutor {
                queues,
                handles: Mutex::new(handles),
            }
        });
        KnNode {
            id,
            variant: config.variant,
            nic,
            dpm,
            ownership,
            shards,
            write_batch_ops: config.write_batch_ops.max(1),
            executor,
            min_sub_batch: config.executor_min_sub_batch,
            in_flight: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            reconfiguring: AtomicBool::new(false),
            ops: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            sub_batches: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
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
    /// contents (caches, unmerged-write tracking) are lost.
    ///
    /// In-flight sub-batches are drained first so no straggler repopulates
    /// the cleared caches; queued-but-unstarted sub-batches observe the
    /// failed flag when a worker picks them up and fail with
    /// [`KvsError::NodeFailed`] (which the client retries elsewhere).
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        self.drain_in_flight();
        for shard in &self.shards {
            let mut s = shard.lock();
            s.cache.clear();
            s.unmerged.clear();
            s.bloom.clear();
        }
    }

    /// Mark the node unavailable while it participates in a reconfiguration
    /// (step 2 of §3.5) or available again (step 5).
    pub fn set_reconfiguring(&self, on: bool) {
        self.reconfiguring.store(on, Ordering::SeqCst);
    }

    /// Admission, the first step of every request and of every dequeued
    /// sub-batch: count it in flight, *then* check availability. The
    /// increment must precede the check (both `SeqCst`) so
    /// [`KnNode::drain_in_flight`] cannot observe zero while work that
    /// passed the check is still executing. The returned guard keeps the
    /// work counted until it drops.
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

    /// Sub-batches currently sitting in this node's worker queues (racy
    /// snapshot; 0 when the executor is disabled). Tests use this to
    /// assert the queues drained after churn.
    pub fn queued_sub_batches(&self) -> usize {
        self.executor
            .as_ref()
            .map(|e| e.queues.iter().map(|q| q.len()).sum())
            .unwrap_or(0)
    }

    /// Close the shard-worker queues, let the workers drain what was
    /// already accepted, and join them. Later enqueue attempts (from
    /// clients holding a stale handle to this node) fail over to
    /// [`KvsError::NodeFailed`] and are retried against the new owners.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown_workers(&self) {
        let Some(executor) = &self.executor else {
            return;
        };
        for queue in &executor.queues {
            queue.close();
        }
        let handles = std::mem::take(&mut *executor.handles.lock());
        let current = std::thread::current().id();
        for handle in handles {
            // If the last Arc to this node is dropped by one of its own
            // workers (a task held the final reference), that worker must
            // not join itself; its queue is closed and it exits right
            // after this drop.
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }

    // ------------------------------------------------------------- reads

    /// `lookup(key)`: a batch of one through the serving envelope (`serve`).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.serve_one(OpRef::Lookup(key), key_hash(key), NO_VERSION)
    }

    /// The owned-key read path against an already-locked shard. `guard`
    /// covers the index traversal of the miss path; the caller pins it
    /// once for its whole slice.
    fn get_in_shard(
        &self,
        shard: &mut Shard,
        key: &[u8],
        guard: &Guard,
    ) -> Result<Option<Vec<u8>>> {
        match shard.cache.lookup(key) {
            CacheLookup::Value(v) => return Ok(Some(v)),
            CacheLookup::Shortcut(loc) => {
                // Validate the cached address before dereferencing it: the
                // DPM compactor may have relocated the entry and freed its
                // segment since this shortcut was cached (the relocation
                // observer invalidates, but a racing read can re-admit a
                // stale location afterwards). The check and the read both
                // run under the caller's epoch pin, and the compactor
                // defers the pool free past every pinned guard, so a
                // location that validates here cannot be reused mid-read.
                if self.dpm.value_addr_is_live_in(guard, PmAddr(loc.addr)) {
                    let value = self.dpm.read_value_at(&self.nic, PmAddr(loc.addr), loc.len);
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
            match shard.unmerged.get(key).cloned() {
                Some(Unmerged::Pending(v)) => return Ok(Some(v)),
                Some(Unmerged::Committed { addr, len }) => {
                    // Same hazard as the shortcut hit: a committed-but-
                    // untracked-as-merged location may sit in a segment the
                    // compactor has since freed (its entry was merged, or
                    // it would not have been relocated — the index is
                    // authoritative for it).
                    if self.dpm.value_addr_is_live_in(guard, addr) {
                        let value = self.dpm.read_value_at(&self.nic, addr, len);
                        let loc = ValueLoc { addr: addr.0, len };
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
        let lookup = self.dpm.remote_read_in(guard, &self.nic, key);
        shard.cache.record_miss_cost(lookup.rts);
        match (&lookup.value, lookup.value_loc) {
            (Some(value), Some((addr, len))) => {
                if !lookup.indirect {
                    shard
                        .cache
                        .admit_value(key, value, ValueLoc { addr: addr.0, len });
                }
                Ok(Some(value.clone()))
            }
            _ => Ok(None),
        }
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
            return self.get_in_shard(&mut shard, key, &dinomo_dpm::pin());
        };
        let Some(entry_loc) = self.dpm.remote_read_indirect(&self.nic, cell) else {
            return Ok(None);
        };
        self.nic.one_sided_read(entry_loc.len() as usize);
        let entry =
            dinomo_dpm::entry::decode_entry(self.dpm.pool(), entry_loc.addr(), entry_loc.len());
        Ok(entry
            .filter(|e| e.key == key)
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
    /// log record and track the pending write. The caller decides when to
    /// flush (once per shard slice).
    fn put_in_shard(shard: &mut Shard, key: &[u8], value: &[u8]) {
        shard.writer.append_put(key, value);
        shard.cache.invalidate(key);
        shard
            .unmerged
            .insert(key.to_vec(), Unmerged::Pending(value.to_vec()));
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

    /// Flush the shard's buffered log records if the write batch is full.
    fn flush_if_due(&self, shard: &mut Shard) -> Result<()> {
        if shard.writer.buffered_entries() >= self.write_batch_ops {
            Self::flush_shard(&self.dpm, self.id, shard)?;
        }
        Ok(())
    }

    /// Update of a selectively-replicated key: log the value, then CAS the
    /// indirection cell to the new entry.
    fn put_shared(&self, key: &[u8], value: &[u8], shard: u32) -> Result<()> {
        let mut shard = self.shards[shard as usize].lock();
        shard.cache.invalidate(key);
        let seq = shard.writer.append_put(key, value);
        let commits = shard.writer.flush()?;
        let new_loc = commits
            .iter()
            .rev()
            .find(|c| c.key == key)
            .expect("flushed batch must contain the appended key")
            .entry_loc;
        // Earlier entries in the same batch are handled by the merge engine;
        // this key is made visible by swinging the cell.
        drop(shard);
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
        let flushed = self.flush_if_due(&mut shard);
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
    /// * operations are applied per worker shard with **one** lock
    ///   acquisition per shard, and buffered log writes are flushed at most
    ///   **once** per shard instead of once per op.
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
            None,
            &mut |pos, r| out[pos] = Some(r),
        );
        out.into_iter()
            .map(|r| r.expect("every op in the batch got a result"))
            .collect()
    }

    /// A batch of one through [`KnNode::serve`], always inline on the
    /// caller: the per-key entry points above and the client's one-op
    /// dispatch. `hash` must be `key_hash(op.key())`.
    pub(crate) fn serve_one(&self, op: OpRef<'_>, hash: u64, client_version: u64) -> OpResult {
        let mut out = None;
        self.serve(|_| op, &[0], &[hash], client_version, None, &mut |_, r| {
            out = Some(r)
        });
        out.expect("the envelope answers every position")
    }

    /// The client's batch dispatch: [`KnNode::serve`] with big-enough shard
    /// slices handed to the shard workers. What runs on the caller (inline
    /// slices, shared-key ops, rejections) answers through `set`; every
    /// enqueued sub-batch carries a clone of `replies` and answers through
    /// it, so the caller has every result once it has dropped its own
    /// `Sender` and drained the receiver to disconnection.
    pub(crate) fn submit_batch(
        self: &Arc<Self>,
        batch: &Arc<BatchShared>,
        positions: &[usize],
        client_version: u64,
        replies: &Sender<SliceReplies>,
        set: &mut impl FnMut(usize, OpResult),
    ) {
        self.serve(
            |pos| batch.ops[pos].view(),
            positions,
            &batch.hashes,
            client_version,
            Some((self, batch, replies)),
            set,
        );
    }

    /// The one serving envelope. Everything this node executes for a
    /// client — a per-key call, a direct batch, a client batch — passes
    /// through here exactly once:
    ///
    /// 1. **admission** ([`KnNode::admit`]): in-flight guard, then the
    ///    availability check, so §3.5's drain covers every request;
    /// 2. **routes** ([`KnNode::resolve_routes`]): one ownership-table
    ///    read for the whole group — §3.1's stale-client rejection happens
    ///    there and nowhere else;
    /// 3. **execution**: each involved shard's slice under one lock, one
    ///    epoch pin and one flush decision ([`KnNode::run_shard`]) — on the
    ///    shard's worker when `workers` is given and the slice is big
    ///    enough to amortize the hand-off, inline otherwise — then the
    ///    shared-key positions in order on the caller. Replicated
    ///    keys linearize through their DPM indirection cell and never share
    ///    a key with the owned slices of the same round, so the two can
    ///    overlap;
    /// 4. **accounting**: one [`KnNode::record_work`] call for what ran on
    ///    the caller (a worker accounts its own sub-batch).
    ///
    /// Serves `ops(pos)` for every `pos` in `positions` and answers through
    /// `set(pos, _)`; positions handed to a worker are answered through the
    /// hand-off's reply channel instead. `hashes[pos]` must be
    /// `key_hash(ops(pos).key())` — the client hashed each key to route it,
    /// so the node reuses the hash for its own ring lookups.
    /// `client_version` is the ownership-table version the caller routed
    /// against ([`NO_VERSION`] if none).
    fn serve<'a>(
        &self,
        ops: impl Fn(usize) -> OpRef<'a> + Copy,
        positions: &[usize],
        hashes: &[u64],
        client_version: u64,
        workers: Option<Handoff<'_>>,
        set: &mut impl FnMut(usize, OpResult),
    ) {
        let _in_flight = match self.admit() {
            Ok(guard) => guard,
            Err(e) => return Self::fail_all(positions, e, set),
        };
        // A batch of one keeps its route on the stack.
        let (mut one, mut many) = ([0u32; 1], Vec::new());
        let routes: &mut [u32] = if positions.len() == 1 {
            &mut one
        } else {
            many.resize(positions.len(), 0);
            &mut many
        };
        let resolved_version =
            self.resolve_routes(ops, positions, hashes, client_version, routes, set);
        let routes = &*routes;
        let start = Instant::now();
        let (mut reads, mut writes) = (0u64, 0u64);
        for shard_idx in 0..self.shards.len() as u32 {
            let count = routes.iter().filter(|&&route| route == shard_idx).count();
            if count == 0 {
                continue;
            }
            let slice = Self::shard_positions(positions, routes, shard_idx);
            match (workers, &self.executor) {
                // A worker hand-off (queue push + wakeup) only amortizes
                // over enough per-shard work; smaller slices, and every
                // slice of a request that brought no `workers`, execute in
                // place.
                (Some(handoff), Some(executor)) if count >= self.min_sub_batch.max(1) => self
                    .enqueue(
                        &executor.queues[shard_idx as usize],
                        handoff,
                        shard_idx,
                        slice.collect(),
                        resolved_version,
                        set,
                    ),
                _ => {
                    let (r, w) =
                        self.run_shard(shard_idx, ops, slice, dinomo_obs::stage_clock(), set);
                    reads += r;
                    writes += w;
                }
            }
        }
        let (r, w) = self.run_on_caller(ops, positions, routes, set);
        self.record_work(reads + r, writes + w, start);
    }

    fn fail_all(positions: &[usize], e: KvsError, set: &mut impl FnMut(usize, OpResult)) {
        for &pos in positions {
            set(pos, Err(e.clone()));
        }
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
    ///
    /// Returns the table version the routes were resolved against, so
    /// queued sub-batches can detect that the table moved on while they
    /// waited (see [`KnNode::run_queued_sub_batch`]).
    fn resolve_routes<'a>(
        &self,
        ops: impl Fn(usize) -> OpRef<'a>,
        positions: &[usize],
        hashes: &[u64],
        client_version: u64,
        routes: &mut [u32],
        set: &mut impl FnMut(usize, OpResult),
    ) -> u64 {
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
        table.version()
    }

    /// Route tag for positions rejected with `NotOwner`.
    const ROUTE_REJECTED: u32 = u32::MAX;
    /// Route-tag bit for positions deferred to the in-order shared pass.
    const ROUTE_SHARED: u32 = 1 << 31;

    /// The positions routed to `shard_idx`, in group order, with no
    /// allocation (inline execution iterates this directly; the enqueue
    /// path collects it into the task).
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

    /// Hand one shard's slice of a client batch to that shard's worker.
    ///
    /// Backpressure: a full queue fails the slice's positions with
    /// [`KvsError::Busy`] — the client retries them after a pause. A closed
    /// queue means the node shut down (removed/failed) after the client
    /// resolved its handle: [`KvsError::NodeFailed`], retried elsewhere.
    fn enqueue(
        &self,
        queue: &BoundedQueue<SubBatch>,
        (node, batch, replies): Handoff<'_>,
        shard: u32,
        positions: Vec<usize>,
        resolved_version: u64,
        set: &mut impl FnMut(usize, OpResult),
    ) {
        let task = SubBatch {
            node: Arc::clone(node),
            shard,
            batch: Arc::clone(batch),
            positions,
            replies: replies.clone(),
            resolved_version,
            enqueued_at: dinomo_obs::stage_clock(),
        };
        let (task, e) = match queue.try_push(task) {
            Ok(()) => {
                self.sub_batches.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(PushError::Full(task)) => {
                self.busy_rejections.fetch_add(1, Ordering::Relaxed);
                self.metrics.busy_rejections.inc();
                (task, KvsError::Busy)
            }
            Err(PushError::Closed(task)) => (task, KvsError::NodeFailed),
        };
        Self::fail_all(&task.positions, e, set);
    }

    /// Execute one shard's slice of a group, in group order: the work a
    /// shard worker, or the caller when the slice runs inline, performs.
    /// Locks the shard **once**, pins **one** epoch guard covering every
    /// index lookup of the slice, and flushes buffered log writes at most
    /// once at the end. Results are reported per position through `set`;
    /// returns the `(reads, writes)` served.
    ///
    /// `waiting_since` is when the slice started waiting for the shard —
    /// its enqueue time, or just now for an inline execution, where the
    /// shard mutex *is* the queue: clients that route to the same shard
    /// serialize on it exactly as sub-batches wait in the worker's queue.
    /// The time from there until the lock is held is the slice's one
    /// `stage_queue_wait_ns` sample; from there on it is
    /// `stage_shard_execute_ns`.
    fn run_shard<'a>(
        &self,
        shard_idx: u32,
        ops: impl Fn(usize) -> OpRef<'a>,
        positions: impl Iterator<Item = usize> + Clone,
        waiting_since: Option<Instant>,
        set: &mut impl FnMut(usize, OpResult),
    ) -> (u64, u64) {
        let mut reads = 0u64;
        let mut writes = 0u64;
        // One epoch pin covers every index lookup this slice performs (the
        // lock-free read side of the P-CLHT; see dinomo_pclht::pin), taken
        // at the first lookup: a write-only slice needs none.
        let mut guard = None;
        let mut shard = self.shards[shard_idx as usize].lock();
        let locked_at = dinomo_obs::stage_clock();
        if let (Some(since), Some(at)) = (waiting_since, locked_at) {
            self.metrics
                .queue_wait
                .record(at.duration_since(since).as_nanos() as u64);
        }
        for pos in positions.clone() {
            let result = match ops(pos) {
                OpRef::Lookup(key) => {
                    reads += 1;
                    let guard = guard.get_or_insert_with(dinomo_dpm::pin);
                    self.get_in_shard(&mut shard, key, guard)
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
            set(pos, result);
        }
        // One flush decision for the whole slice. A flush failure is a
        // durability failure of every write the slice buffered, so it is
        // reported on each of them.
        if writes > 0 {
            if let Err(e) = self.flush_if_due(&mut shard) {
                for pos in positions {
                    if ops(pos).is_write() {
                        set(pos, Err(e.clone()));
                    }
                }
            }
        }
        drop(shard);
        dinomo_obs::record_since(&self.metrics.shard_execute, locked_at);
        (reads, writes)
    }

    /// A queued sub-batch, as executed by a shard worker: re-admit it
    /// **and** re-check the ownership-table version (the task may have
    /// sat in the queue across a failure or a *completed* reconfiguration
    /// — a stale task must reject, not buffer writes for keys the node
    /// just handed off behind the hand-off flush, nor repopulate caches
    /// the protocol cleared), then run the shard slice and account its
    /// work.
    fn run_queued_sub_batch<'a>(
        &self,
        shard_idx: u32,
        ops: impl Fn(usize) -> OpRef<'a>,
        positions: &[usize],
        resolved_version: u64,
        enqueued_at: Option<Instant>,
        set: &mut impl FnMut(usize, OpResult),
    ) {
        let _in_flight = match self.admit() {
            Ok(guard) => guard,
            Err(e) => return Self::fail_all(positions, e, set),
        };
        // Routes were resolved against `resolved_version`. The drain in
        // the reconfiguration path only covers what is *executing*; a
        // sub-batch still queued when the table was swapped would execute
        // with stale routes (e.g. write a key whose range just moved away,
        // acked but buffered behind the pre-handoff flush-and-merge). If
        // the table moved on, reject the whole sub-batch as NotOwner —
        // the client refreshes its metadata and re-routes.
        let current_version = self.ownership.read().version();
        if current_version != resolved_version {
            self.rejected
                .fetch_add(positions.len() as u64, Ordering::Relaxed);
            return Self::fail_all(positions, KvsError::NotOwner { current_version }, set);
        }
        let start = Instant::now();
        let (reads, writes) =
            self.run_shard(shard_idx, ops, positions.iter().copied(), enqueued_at, set);
        self.record_work(reads, writes, start);
    }

    /// The positions of a group that execute on the caller, one op at a
    /// time in group order: shared (replicated-key) ops, which lock their
    /// shard internally and linearize through their indirection cell. Each
    /// op is one `stage_shard_execute_ns` sample. Returns the
    /// `(reads, writes)` served.
    fn run_on_caller<'a>(
        &self,
        ops: impl Fn(usize) -> OpRef<'a>,
        positions: &[usize],
        routes: &[u32],
        set: &mut impl FnMut(usize, OpResult),
    ) -> (u64, u64) {
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (&pos, &route) in positions.iter().zip(routes) {
            if route == Self::ROUTE_REJECTED || route & Self::ROUTE_SHARED == 0 {
                continue;
            }
            let shard = route & !Self::ROUTE_SHARED;
            let result = self.metrics.shard_execute.time(|| match ops(pos) {
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
            });
            set(pos, result);
        }
        (reads, writes)
    }

    /// Fold served operations into the node-level counters (ops, reads,
    /// writes, busy time since `start`).
    fn record_work(&self, reads: u64, writes: u64, start: Instant) {
        self.ops.fetch_add(reads + writes, Ordering::Relaxed);
        self.reads.fetch_add(reads, Ordering::Relaxed);
        self.writes.fetch_add(writes, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn flush_shard(dpm: &Arc<DpmNode>, kn: KnId, shard: &mut Shard) -> Result<()> {
        let commits = shard.writer.flush()?;
        // A key may appear several times in one batch; only its *last* put
        // location is current, so index the batch by key first.
        let mut last_put: HashMap<&[u8], &dinomo_dpm::CommittedWrite> = HashMap::new();
        for c in &commits {
            if c.op == LogOp::Put {
                last_put.insert(c.key.as_slice(), c);
            }
        }
        for (key, c) in last_put {
            // Only keys whose newest program-order state is still this put
            // (i.e. not deleted later in the same batch) are refreshed.
            if let Some(Unmerged::Pending(v)) = shard.unmerged.get(key) {
                let loc = ValueLoc {
                    addr: c.value_addr.0,
                    len: c.value_len,
                };
                shard.cache.on_local_write(key, v, loc);
                shard.unmerged.insert(
                    c.key.clone(),
                    Unmerged::Committed {
                        addr: c.value_addr,
                        len: c.value_len,
                    },
                );
            }
        }
        // Once everything this shard ever flushed has been merged, the index
        // is authoritative and the unmerged tracking can be dropped.
        if !commits.is_empty()
            && shard.writer.buffered_entries() == 0
            && dpm.unmerged_segments(kn) == 0
        {
            shard.unmerged.clear();
            shard.bloom.clear();
        }
        Ok(())
    }

    // ------------------------------------------------- maintenance hooks

    /// Flush every shard's buffered writes to DPM (bounding write latency;
    /// also used before reconfiguration so pending logs can be merged).
    pub fn flush_pending_writes(&self) -> Result<()> {
        for shard in &self.shards {
            let mut s = shard.lock();
            Self::flush_shard(&self.dpm, self.id, &mut s)?;
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
    pub fn clear_caches(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.cache.clear();
            s.unmerged.clear();
            s.bloom.clear();
        }
    }

    /// Fail-stop crash semantics for this node's DRAM: everything
    /// [`KnNode::clear_caches`] drops, plus the log writers'
    /// buffered-but-unflushed entries — a crash loses the KN's volatile
    /// state wholesale, flushed or not. Unlike `clear_caches` this needs
    /// no prior flush/merge: the surviving truth is whatever already
    /// reached the DPM log. Under `write_batch_ops = 1` (the check
    /// driver's configuration) every write flushes before it is
    /// acknowledged, so the discarded entries are exactly the
    /// never-acknowledged ones. Returns how many buffered entries died.
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
    /// `Unmerged::Pending` state (an acked-but-unflushed write is only
    /// visible through it — removing it would serve the older, relocated
    /// value) and removes a `Committed` entry only when its address lies
    /// inside the relocated entry: a committed location elsewhere belongs
    /// to a *newer* write whose merge may still be in flight, and the
    /// index is not yet authoritative for it.
    pub fn on_entry_relocated(&self, key: &[u8], old_loc: dinomo_dpm::PackedLoc) {
        let start = old_loc.addr().0;
        let end = start + old_loc.len();
        for shard in &self.shards {
            let mut s = shard.lock();
            s.cache.invalidate(key);
            if let Some(Unmerged::Committed { addr, .. }) = s.unmerged.get(key) {
                if addr.0 >= start && addr.0 < end {
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
            sub_batches: self.sub_batches.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            cache,
            nic: self.nic.snapshot(),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl Drop for KnNode {
    fn drop(&mut self) {
        // Backstop for nodes that were never explicitly shut down (e.g. a
        // whole cluster being dropped): close the worker queues and join
        // the workers. Queued tasks hold an `Arc` to this node, so by the
        // time the last reference drops the queues are necessarily empty.
        self.shutdown_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvs::Kvs;
    use crate::op::Reply;
    use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};

    /// Put a crafted sub-batch for shard 0 straight onto its worker queue
    /// (the only deterministic way to get a chosen task under a worker) and
    /// return the receiving end of its reply channel.
    fn push_crafted(
        node: &Arc<KnNode>,
        ops: Vec<Op>,
        positions: Vec<usize>,
        resolved_version: u64,
    ) -> Receiver<SliceReplies> {
        let (replies, rx) = channel();
        let task = SubBatch {
            node: Arc::clone(node),
            shard: 0,
            batch: Arc::new(BatchShared::new(ops)),
            positions,
            replies,
            resolved_version,
            enqueued_at: None,
        };
        node.executor.as_ref().unwrap().queues[0]
            .try_push(task)
            .unwrap_or_else(|_| panic!("enqueue failed"));
        rx
    }

    /// A sub-batch that waited in a worker queue across a *completed*
    /// reconfiguration must reject (NotOwner) instead of executing with
    /// routes resolved against the old ownership table — the drain only
    /// covers sub-batches already executing, so the version guard is what
    /// protects queued ones.
    #[test]
    fn queued_sub_batch_rejects_after_table_version_moves() {
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        let client = kvs.client();
        client.insert(b"k0", b"v0").unwrap();

        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        let current = node.ownership.read().version();
        let ops = vec![Op::lookup("k0"), Op::insert("k1", "v1")];
        // The table moved on (e.g. an add_kn completed) while this task
        // sat in the queue.
        let stale = push_crafted(&node, ops, vec![0, 1], current.wrapping_sub(1));
        let replies = stale.recv().unwrap();
        assert_eq!(replies.len(), 2);
        for (pos, result) in replies {
            match result {
                Err(KvsError::NotOwner { current_version }) => {
                    assert_eq!(current_version, current);
                }
                other => panic!("stale sub-batch executed position {pos}: {other:?}"),
            }
        }
        // And an up-to-date task on the same queue still executes.
        let fresh = push_crafted(&node, vec![Op::lookup("k0")], vec![0], current);
        let replies = fresh.recv().unwrap();
        assert!(
            matches!(
                replies.as_slice(),
                [(0, Ok(_))] | [(0, Err(KvsError::NotOwner { .. }))]
            ),
            "fresh sub-batch must execute (or reject only if shard 0 \
             does not own k0): {replies:?}"
        );
    }

    /// A sub-batch that panics mid-execution (a position past the end of
    /// its batch) releases its client by unwinding: the reply `Sender`
    /// drops with nothing sent, so the receiver sees disconnection and no
    /// message. The worker survives and serves the next task.
    #[test]
    fn panicking_sub_batch_disconnects_its_client_and_spares_the_worker() {
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        kvs.client().insert(b"k0", b"v0").unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        let version = node.ownership.read().version();
        // The timeout only bounds how long a leaked `Sender` takes to fail
        // the test; disconnection itself is immediate.
        let timeout = std::time::Duration::from_secs(10);

        let panicking = push_crafted(&node, vec![Op::lookup("k0")], vec![7], version);
        assert_eq!(
            panicking.recv_timeout(timeout),
            Err(RecvTimeoutError::Disconnected),
            "a panicking sub-batch must drop its Sender without sending"
        );
        node.drain_in_flight();

        let valid = push_crafted(&node, vec![Op::lookup("k0")], vec![0], version);
        let replies = valid.recv_timeout(timeout).expect("the worker died");
        assert!(matches!(replies.as_slice(), [(0, Ok(_))]), "{replies:?}");
    }

    /// One flush decision covers a whole write slice, so a failed flush is
    /// reported on every write of the slice: the worker's error pairs come
    /// after the `Ok` pairs the writes produced when they were buffered,
    /// and the later pair for a position wins at the client.
    #[test]
    fn failed_flush_overrides_the_slices_buffered_write_results() {
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .initial_kns(1)
            .threads_per_kn(1)
            .build()
            .unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        // `write_batch_ops` is 4: the slice's flush is due, and its first
        // step — allocating the shard's first log segment — fails.
        node.dpm.pool().inject_alloc_failures(1);
        let mut ops: Vec<Op> = (0..4).map(|i| Op::insert(format!("k{i}"), "v")).collect();
        ops.push(Op::lookup("absent"));
        let replies = kvs.client().execute(ops);
        assert_eq!(
            node.stats().sub_batches,
            1,
            "the slice must run on the worker"
        );
        for reply in &replies[..4] {
            assert_eq!(
                reply,
                &Reply::Error(KvsError::Pmem(dinomo_pmem::PmemError::InjectedFailure)),
                "a write whose flush failed must not be acknowledged"
            );
        }
        assert_eq!(replies[4], Reply::Value(None));
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
    /// *own* shard — where its acked-but-unflushed writes live.
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
        // Buffered, not flushed (`write_batch_ops` is 4): only the shard's
        // overlay can serve it.
        node.put(&key, b"pending").unwrap();
        node.ownership.write().replicate(&key, 2);
        assert!(node.dpm.indirect_cell_of(&key).is_none());
        assert_eq!(node.get(&key).unwrap(), Some(b"pending".to_vec()));
    }

    /// Sustained backpressure must surface as `Busy`, not as a routing
    /// failure, once the client's retries are exhausted.
    #[test]
    fn exhausted_busy_retries_report_busy() {
        // One node, one shard, a depth-1 queue, and a worker wedged by a
        // task that blocks on the shard lock held by the test: every
        // enqueue attempt after the queue refills is rejected Busy until
        // retries run out.
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .initial_kns(1)
            .threads_per_kn(1)
            .executor_queue_depth(1)
            .build()
            .unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        // Wedge the worker: hold shard 0's lock, then feed the worker a
        // task that needs it.
        let shard_guard = node.shards[0].lock();
        let version = node.ownership.read().version();
        let wedge = push_crafted(&node, vec![Op::lookup("w")], vec![0], version);
        // Once the worker has popped the task (and blocked on the lock),
        // fill the now-empty depth-1 queue so client pushes see Full.
        while node.queued_sub_batches() > 0 {
            std::thread::yield_now();
        }
        let filler = push_crafted(&node, vec![Op::lookup("f")], vec![0], version);

        // A real client batch now gets Busy on every attempt (the worker
        // stays wedged for the whole retry budget).
        let client = kvs.client();
        let replies = client.execute(vec![Op::insert("x", "1"), Op::insert("y", "2")]);
        assert!(
            replies
                .iter()
                .all(|r| matches!(r, Reply::Error(KvsError::Busy))),
            "exhausted backpressure must report Busy: {replies:?}"
        );
        // Unwedge and let everything drain so teardown joins cleanly.
        drop(shard_guard);
        wedge.recv().unwrap();
        filler.recv().unwrap();
        node.drain_in_flight();
    }

    /// Retry accounting: a batch whose only sub-batch is rejected `Busy`
    /// is retried exactly once per routing round, so over an exhausted
    /// retry budget `KnStats::busy_rejections` advances by exactly the
    /// client's retry budget — one rejected sub-batch per round — and
    /// every op of the batch reports the observed `Busy`.
    #[test]
    fn busy_rejections_count_one_rejected_sub_batch_per_routing_round() {
        // Same wedge construction as `exhausted_busy_retries_report_busy`:
        // one node, one shard, a depth-1 queue, the worker blocked on the
        // shard lock and the queue refilled, so every enqueue attempt of
        // the client below is rejected with `Full`.
        let kvs = crate::KvsBuilder::new()
            .small_for_tests()
            .initial_kns(1)
            .threads_per_kn(1)
            .executor_queue_depth(1)
            .build()
            .unwrap();
        let node = kvs.kn(kvs.kn_ids()[0]).unwrap();
        let shard_guard = node.shards[0].lock();
        let version = node.ownership.read().version();
        let wedge = push_crafted(&node, vec![Op::lookup("w")], vec![0], version);
        while node.queued_sub_batches() > 0 {
            std::thread::yield_now();
        }
        let filler = push_crafted(&node, vec![Op::lookup("f")], vec![0], version);

        // Read the counter directly: `stats()` locks every shard, and this
        // thread is holding shard 0's lock to keep the worker wedged.
        let busy_before = node.busy_rejections.load(Ordering::Relaxed);
        assert_eq!(busy_before, 0, "no client traffic has run yet");

        // A 2-op batch on the single node forms one owner group and one
        // shard sub-batch per routing round (threads_per_kn = 1,
        // min_sub_batch = 2 under `small_for_tests`).
        let client = kvs.client();
        let replies = client.execute(vec![Op::insert("x", "1"), Op::insert("y", "2")]);
        let busy_replies = replies
            .iter()
            .filter(|r| matches!(r, Reply::Error(KvsError::Busy)))
            .count();
        assert_eq!(
            busy_replies, 2,
            "both ops of the wedged batch must report Busy: {replies:?}"
        );

        let busy_after = node.busy_rejections.load(Ordering::Relaxed);
        assert_eq!(
            busy_after - busy_before,
            crate::client::MAX_RETRIES as u64,
            "one rejected sub-batch per routing round — the batch must be \
             retried exactly once per round until the budget is exhausted"
        );

        drop(shard_guard);
        wedge.recv().unwrap();
        filler.recv().unwrap();
        node.drain_in_flight();
    }
}
