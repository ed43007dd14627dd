//! The client library.
//!
//! Clients cache the ownership metadata they obtain from a routing node and
//! talk directly to the owner KVS node for every request.  When the mapping
//! changes (reconfiguration, failure, replication), the contacted node
//! rejects the request and the client refreshes its cached metadata — exactly
//! the flow §3.1/§3.4 describe.
//!
//! The client API is batched at its core: [`KvsClient::execute`] takes a
//! vector of [`Op`]s, groups them by owner KVS node using the cached
//! ownership table, and submits **one** request per node, which
//! resolves ownership once, splits the group by shard, and enqueues one
//! sub-batch per involved shard onto
//! that shard's worker thread — the batch fans out across every involved
//! shard of every involved node concurrently while this thread waits for
//! the workers to send their results back (see [`crate::executor`]). Each
//! sub-batch locks its shard once and flushes its buffered log writes
//! once. Operations
//! rejected mid-flight (ownership moved, node failed or reconfiguring,
//! worker queue full) are retried after a metadata refresh (or, for
//! [`KvsError::Busy`] backpressure, just a pause), so a batch racing a
//! reconfiguration still produces a correct per-op [`Reply`].  The per-key
//! methods ([`KvsClient::insert`] & co.) and singleton batches are one
//! routine (`KvsClient::execute_one`): a batch of one, run inline on this
//! thread through the same node-side envelope, without allocating an owned
//! [`Op`] or the batch's shared state and reply channel.

use crate::error::KvsError;
use crate::executor::{BatchShared, OpResult};
use crate::kn::KnNode;
use crate::kvs::KvsInner;
use crate::op::{Op, OpRef, Reply};
use crate::trace::{Action, RecorderHandle};
use crate::Result;
use dinomo_partition::{key_hash, KnId, OwnershipTable};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum routing retries before a request is failed back to the caller.
/// Exposed to the crate's tests so retry-accounting assertions (one `Busy`
/// sub-batch rejection per routing round) can state the exact budget.
pub(crate) const MAX_RETRIES: usize = 100;

/// A client handle. Create one per application thread with
/// [`crate::Kvs::client`]; handles are independent and each caches its own
/// routing metadata.
#[derive(Debug)]
pub struct KvsClient {
    kvs: Arc<KvsInner>,
    cached: Mutex<OwnershipTable>,
    /// SplitMix64 step counter behind [`KvsClient::pick_replica`].
    replica_step: AtomicU64,
    /// History-recording hook for the linearizability checker; `None`
    /// (the default) costs one branch per request and nothing else.
    recorder: Option<RecorderHandle>,
    /// `stage_client_dispatch_ns` — per round: grouping, routing, and
    /// sub-batch submission (including inline work) up to the wait for the
    /// workers' replies.
    stage_dispatch: dinomo_obs::Histogram,
    /// `stage_reply_ns` — per round: reply harvest after that wait.
    stage_reply: dinomo_obs::Histogram,
}

impl KvsClient {
    pub(crate) fn new(kvs: Arc<KvsInner>) -> Self {
        let cached = kvs.ownership.read().clone();
        let stage_dispatch = kvs.metrics.stage(dinomo_obs::Stage::ClientDispatch);
        let stage_reply = kvs.metrics.stage(dinomo_obs::Stage::Reply);
        KvsClient {
            kvs,
            cached: Mutex::new(cached),
            replica_step: AtomicU64::new(0),
            recorder: None,
            stage_dispatch,
            stage_reply,
        }
    }

    /// Attach a history-recording handle (see [`crate::trace`]): every
    /// operation this client completes — per-key calls and batched
    /// [`KvsClient::execute`] calls alike, the latter decomposed per op —
    /// is appended to the recorder for an external linearizability check.
    /// Recording costs two logical-clock increments and one log append per
    /// op; a client without a recorder pays a single branch.
    pub fn with_recorder(mut self, handle: RecorderHandle) -> Self {
        self.recorder = Some(handle);
        self
    }

    /// Record one completed op (no-op without a recorder). `invoked_at`
    /// must be a stamp drawn before the op was submitted.
    fn record_op(&self, op: OpRef<'_>, reply: &Reply, invoked_at: u64) {
        let Some(handle) = &self.recorder else {
            return;
        };
        let action = match op {
            OpRef::Put(_, value) => Action::Write(value.to_vec()),
            OpRef::Delete(_) => Action::Delete,
            OpRef::Lookup(_) => Action::Read(match reply {
                Reply::Value(v) => v.clone(),
                _ => None,
            }),
        };
        handle.record(op.key(), action, reply.is_ok(), invoked_at);
    }

    /// Version of the routing metadata this client currently holds.
    pub fn cached_ownership_version(&self) -> u64 {
        self.cached.lock().version()
    }

    /// Refresh routing metadata from a routing node.
    pub fn refresh_routing(&self) {
        *self.cached.lock() = self.kvs.ownership.read().clone();
    }

    /// Pseudo-random pick among a replicated key's owner set: one
    /// SplitMix64 step of a per-client counter, mixed with the key's hash.
    /// A plain round-robin counter shared by every key aliases with any
    /// fixed cycle of keys — read k keys in turn over k replicas and each
    /// key lands on the same replica every time — so the step is hashed
    /// before it picks.
    fn pick_replica(&self, cached: &OwnershipTable, key: &[u8], hash: u64) -> Option<KnId> {
        let owners = cached.owners(key);
        if owners.is_empty() {
            return None;
        }
        let step = self.replica_step.fetch_add(1, Ordering::Relaxed);
        let mut z = step.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hash;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Some(owners[(z % owners.len() as u64) as usize])
    }

    fn node(&self, id: KnId) -> Option<Arc<KnNode>> {
        self.kvs.kns.read().get(&id).cloned()
    }

    /// `true` for the errors that mean "refresh the routing metadata and try
    /// again" rather than "fail the operation".
    fn is_routing_error(e: &KvsError) -> bool {
        matches!(
            e,
            KvsError::NotOwner { .. } | KvsError::NodeFailed | KvsError::Reconfiguring
        )
    }

    /// What a request does between a round that left work to retry and
    /// the next one: refresh the routing metadata if a node rejected the
    /// routing, give the shard workers a beat to drain if one pushed back
    /// (`Busy` needs no refresh), and sleep once retries pile up.
    fn before_retry(&self, attempt: usize, saw_routing_error: bool, saw_busy: bool) {
        if saw_routing_error {
            self.refresh_routing();
        }
        if saw_busy {
            std::thread::yield_now();
        }
        if attempt > 10 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // ---------------------------------------------------------- batched API

    /// Execute a batch of operations and return one [`Reply`] per op, in op
    /// order.
    ///
    /// The batch is grouped by owner KVS node under a single acquisition of
    /// the cached routing metadata and submitted with one request per
    /// group, which amortizes routing, node lookup, ownership checks,
    /// shard locking and log-batch flushing over the whole group — and
    /// fans the group out across the node's shard worker threads, so all
    /// of a node's shards (and all nodes) serve the batch concurrently
    /// while this thread waits. There is **no atomicity across the
    /// batch** — each op fails or succeeds independently, exactly as if
    /// issued alone; the per-op guarantees (linearizable single-key
    /// reads/writes) are unchanged. Ops on the same key still apply in
    /// batch order (same key → same shard, served in order by one
    /// worker).
    ///
    /// Operations rejected because the contacted node no longer owns the
    /// key (or failed, or is reconfiguring, or its worker queues were
    /// full — [`KvsError::Busy`] backpressure) are transparently retried;
    /// only the rejected subset is retried.
    ///
    /// ```
    /// use dinomo_core::{Kvs, Op, Reply};
    ///
    /// let kvs = Kvs::builder().small_for_tests().build().unwrap();
    /// let client = kvs.client();
    /// let replies = client.execute(vec![
    ///     Op::insert("a", "1"),
    ///     Op::insert("b", "2"),
    ///     Op::lookup("a"),
    ///     Op::delete("b"),
    ///     Op::lookup("b"),
    /// ]);
    /// assert!(replies.iter().all(Reply::is_ok));
    /// assert_eq!(replies[2].value(), Some(&b"1"[..]));
    /// assert_eq!(replies[4], Reply::Value(None));
    /// ```
    pub fn execute(&self, ops: Vec<Op>) -> Vec<Reply> {
        match ops.as_slice() {
            [] => Vec::new(),
            // A singleton batch is dispatched like a per-key call: same
            // node-side envelope, but inline on this thread with no groups,
            // shared state or reply channel.
            [op] => vec![self.execute_one(op.view())],
            _ => self.execute_batch(ops),
        }
    }

    fn execute_batch(&self, ops: Vec<Op>) -> Vec<Reply> {
        // One invocation stamp for the whole batch: every op was submitted
        // at this instant, so using it as each op's invocation bound is
        // sound (the checker's windows only widen, never shrink).
        let invoked_at = self.recorder.as_ref().map(|h| h.invoke());
        let n = ops.len();
        // The ops and their routing hashes (computed once, reused by every
        // node's ring lookups across every retry round), shared with every
        // sub-batch the rounds below enqueue.
        let batch = Arc::new(BatchShared::new(ops));
        // One result per op, written by this thread alone: directly by what
        // runs inline, and from the workers' owned reply vectors otherwise.
        let mut results: Vec<Option<OpResult>> = vec![None; n];
        let mut replies: Vec<Option<Reply>> = vec![None; n];
        let mut pending: Vec<usize> = (0..n).collect();
        // Whether a position's most recent failure was Busy backpressure,
        // so exhausted retries report the true cause (persistent overload
        // vs. a routing/metadata problem).
        let mut last_was_busy: Vec<bool> = vec![false; n];

        for attempt in 0..MAX_RETRIES {
            if pending.is_empty() {
                break;
            }
            // Stage accounting for this round: grouping/routing/submission
            // bills to `stage_client_dispatch_ns`, the harvest after the
            // workers' replies are in to `stage_reply_ns`; the wait in
            // between is covered by the worker-side queue-wait and
            // shard-execute stages.
            let dispatch_clock = dinomo_obs::stage_clock();
            // Group the pending ops by owner under one routing-metadata
            // lock acquisition. Clusters are small (a handful to dozens of
            // KNs), so a linear-scan group list beats a map.
            let mut groups: Vec<(KnId, Vec<usize>)> = Vec::new();
            let routed_version;
            {
                let cached = self.cached.lock();
                routed_version = cached.version();
                let global = cached.global_ring();
                // All ops on the same replicated key must route to the same
                // replica within a round: groups dispatch in creation order,
                // so spreading a key's ops across replicas could land a
                // later op in an earlier-created group and run it first,
                // breaking the same-key batch-order guarantee. The
                // replica pick is therefore memoized per key per round
                // (load still spreads across batches).
                let mut replica_picks: Vec<(&[u8], Option<KnId>)> = Vec::new();
                for &i in &pending {
                    let key = batch.ops[i].key();
                    let owner = if cached.is_replicated(key) {
                        match replica_picks.iter().find(|(k, _)| *k == key) {
                            Some((_, pick)) => *pick,
                            None => {
                                let pick = self.pick_replica(&cached, key, batch.hashes[i]);
                                replica_picks.push((key, pick));
                                pick
                            }
                        }
                    } else {
                        global.owner(batch.hashes[i])
                    };
                    match owner {
                        Some(owner) => match groups.iter_mut().find(|(id, _)| *id == owner) {
                            Some((_, indexes)) => indexes.push(i),
                            None => groups.push((owner, vec![i])),
                        },
                        None => replies[i] = Some(Reply::Error(KvsError::NoNodes)),
                    }
                }
            }

            // Resolve every group's node handle under one registry lock,
            // then dispatch with the lock released — a slow group (pmem
            // flush, injected fabric delay) must not hold up concurrent
            // reconfigurations or other clients' node lookups.
            let nodes: Vec<Option<Arc<KnNode>>> = {
                let kns = self.kvs.kns.read();
                groups
                    .iter()
                    .map(|(owner, _)| kns.get(owner).cloned())
                    .collect()
            };
            // One batched request per owner node. Each node resolves its
            // group's ownership once (the request carries the metadata
            // version the routing was computed against, so an up-to-date
            // node skips its per-key re-verification — §3.1 staleness
            // detection, applied batch-wide), splits it by shard, and
            // enqueues one sub-batch per involved shard onto its worker
            // queues — so the batch fans out across every involved shard
            // of every involved node concurrently, while this thread only
            // runs the in-order replicated-key passes.
            // Each enqueued sub-batch carries a clone of `reply_tx` and
            // sends its results through it once.
            let (reply_tx, reply_rx) = std::sync::mpsc::channel();
            for ((_, indexes), node) in groups.iter().zip(&nodes) {
                if let Some(node) = node {
                    node.submit_batch(&batch, indexes, routed_version, &reply_tx, &mut |pos, r| {
                        results[pos] = Some(r)
                    });
                }
            }
            dinomo_obs::record_since(&self.stage_dispatch, dispatch_clock);
            // Disconnection is the latch: with this thread's `Sender` gone,
            // the receiver runs dry exactly when every sub-batch of the
            // round has been run or dropped. A later pair for a position
            // overwrites an earlier one (a failed flush's override).
            drop(reply_tx);
            for slice in reply_rx {
                for (pos, r) in slice {
                    results[pos] = Some(r);
                }
            }
            let reply_clock = dinomo_obs::stage_clock();

            // Harvest results; routing rejections, backpressure and
            // unanswered positions (node disappeared mid-route, sub-batch
            // panicked) are retried.
            let mut retry: Vec<usize> = Vec::new();
            let mut saw_routing_error = false;
            let mut saw_busy = false;
            for i in pending {
                if replies[i].is_some() {
                    continue; // resolved as NoNodes during grouping
                }
                match results[i].take() {
                    Some(Ok(read)) => replies[i] = Some(batch.ops[i].view().reply_from(read)),
                    Some(Err(KvsError::Busy)) => {
                        saw_busy = true;
                        last_was_busy[i] = true;
                        retry.push(i);
                    }
                    Some(Err(e)) if Self::is_routing_error(&e) => {
                        saw_routing_error = true;
                        last_was_busy[i] = false;
                        retry.push(i);
                    }
                    Some(Err(e)) => replies[i] = Some(Reply::Error(e)),
                    None => {
                        saw_routing_error = true;
                        last_was_busy[i] = false;
                        retry.push(i);
                    }
                }
            }

            dinomo_obs::record_since(&self.stage_reply, reply_clock);
            pending = retry;
            if !pending.is_empty() {
                self.before_retry(attempt, saw_routing_error, saw_busy);
            }
        }

        for i in pending {
            // An op that was Busy on its final attempt failed from
            // sustained backpressure, not a routing problem — report the
            // cause the caller can act on (back off / add capacity).
            replies[i] = Some(Reply::Error(if last_was_busy[i] {
                KvsError::Busy
            } else {
                KvsError::RoutingRetriesExhausted
            }));
        }
        let replies: Vec<Reply> = replies
            .into_iter()
            .map(|r| r.expect("every op got a reply"))
            .collect();
        if let Some(inv) = invoked_at {
            for (op, reply) in batch.ops.iter().zip(&replies) {
                self.record_op(op.view(), reply, inv);
            }
        }
        replies
    }

    /// One op, start to finish: the per-key methods and singleton
    /// batches. A batch of one — routed against the cached table, served by
    /// the owner's envelope with the cached version attached, retried
    /// after a metadata refresh on routing errors, recorded — minus what
    /// only a fan-out needs: it runs inline on this thread (so it can never
    /// be `Busy`) and builds no groups, owned `Op` or reply channel.
    fn execute_one(&self, op: OpRef<'_>) -> Reply {
        let invoked_at = self.recorder.as_ref().map(|h| h.invoke());
        let key = op.key();
        let hash = key_hash(key);
        let mut result = Err(KvsError::RoutingRetriesExhausted);
        for attempt in 0..MAX_RETRIES {
            let (owner, routed_version) = {
                let cached = self.cached.lock();
                let owner = if cached.is_replicated(key) {
                    self.pick_replica(&cached, key, hash)
                } else {
                    cached.global_ring().owner(hash)
                };
                (owner, cached.version())
            };
            let served = match owner.map(|id| self.node(id)) {
                None => Err(KvsError::NoNodes),
                // Present in the routing table but gone from the registry:
                // membership moved — refresh and retry.
                Some(None) => Err(KvsError::NodeFailed),
                Some(Some(node)) => node.serve_one(op, hash, routed_version),
            };
            match served {
                Err(e) if Self::is_routing_error(&e) => self.before_retry(attempt, true, false),
                other => {
                    result = other;
                    break;
                }
            }
        }
        let reply = match result {
            Ok(read) => op.reply_from(read),
            Err(e) => Reply::Error(e),
        };
        if let Some(inv) = invoked_at {
            self.record_op(op, &reply, inv);
        }
        reply
    }

    /// Batched lookup: one reply per key, in key order.
    ///
    /// ```
    /// use dinomo_core::Kvs;
    ///
    /// let kvs = Kvs::builder().small_for_tests().build().unwrap();
    /// let client = kvs.client();
    /// client.multi_put([("a", "1"), ("b", "2")]);
    /// let replies = client.multi_get(["a", "b", "missing"]);
    /// assert_eq!(replies[0].value(), Some(&b"1"[..]));
    /// assert_eq!(replies[2].value(), None);
    /// ```
    pub fn multi_get<K: AsRef<[u8]>>(&self, keys: impl IntoIterator<Item = K>) -> Vec<Reply> {
        self.execute(keys.into_iter().map(Op::lookup).collect())
    }

    /// Batched write: upserts every `(key, value)` pair, one reply per pair,
    /// in pair order.
    pub fn multi_put<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &self,
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Vec<Reply> {
        self.execute(pairs.into_iter().map(|(k, v)| Op::insert(k, v)).collect())
    }

    // ---------------------------------------------------------- per-key API

    /// `insert(key, value)`.
    ///
    /// Inserts are **upserts**: inserting a key that already exists
    /// overwrites its value and succeeds, matching the paper's §3 interface
    /// where `insert` is the write primitive and `update` the overwrite of
    /// an existing key — the storage layer (log append + merge) treats both
    /// identically. If you need insert-if-absent, [`KvsClient::lookup`]
    /// first; the store never errors with "already exists".
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.execute_one(OpRef::Put(key, value)).into_ack()
    }

    /// `update(key, value)`. Overwrites `key`'s value; like
    /// [`KvsClient::insert`] it is an upsert, so updating a missing key
    /// writes it.
    pub fn update(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.execute_one(OpRef::Put(key, value)).into_ack()
    }

    /// `lookup(key)`.
    pub fn lookup(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.execute_one(OpRef::Lookup(key)).into_value()
    }

    /// `delete(key)`.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.execute_one(OpRef::Delete(key)).into_ack()
    }
}
