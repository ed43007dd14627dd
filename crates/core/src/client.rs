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
//! resolves ownership once, splits the group by shard, and runs each
//! shard's slice under one lock acquisition and one flush decision. The
//! calling thread is the only executor: it serves every node's group in
//! turn, as a KN thread owning its shard and polling its own fabric
//! completions would. Operations rejected mid-flight (ownership moved,
//! node failed or reconfiguring) are retried after a metadata refresh, so
//! a batch racing a reconfiguration still produces a correct per-op
//! [`Reply`]. The per-key methods ([`KvsClient::insert`] & co.) and
//! singleton batches are one routine (`KvsClient::execute_one`): a batch
//! of one through the same node-side envelope, without allocating an
//! owned [`Op`], groups or result vectors.

use crate::error::KvsError;
use crate::kn::{KnNode, OpResult};
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
const MAX_RETRIES: usize = 100;

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
    /// `stage_client_dispatch_ns` — per round: grouping, routing and node
    /// lookup, up to the nodes' `serve` calls.
    stage_dispatch: dinomo_obs::Histogram,
    /// `stage_reply_ns` — per round: reply harvest after those calls.
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
    /// the next one: refresh the routing metadata, and sleep once retries
    /// pile up.
    fn before_retry(&self, attempt: usize) {
        self.refresh_routing();
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
    /// shard locking and log-batch flushing over the whole group. This
    /// thread serves the groups one after another. There is **no
    /// atomicity across the batch** — each op fails or succeeds
    /// independently, exactly as if issued alone; the per-op guarantees
    /// (linearizable single-key reads/writes) are unchanged. Ops on the
    /// same key still apply in batch order (same key → same shard slice,
    /// served in order).
    ///
    /// Operations rejected because the contacted node no longer owns the
    /// key (or failed, or is reconfiguring) are transparently retried;
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
            // node-side envelope, with no groups or result vectors.
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
        // Routing hashes, computed once and reused by every node's ring
        // lookups across every retry round.
        let hashes: Vec<u64> = ops.iter().map(|op| key_hash(op.key())).collect();
        let mut results: Vec<Option<OpResult>> = vec![None; n];
        let mut replies: Vec<Option<Reply>> = vec![None; n];
        let mut pending: Vec<usize> = (0..n).collect();

        for attempt in 0..MAX_RETRIES {
            if pending.is_empty() {
                break;
            }
            // Stage accounting for this round: grouping and routing bill
            // to `stage_client_dispatch_ns`, the harvest after the nodes
            // have served to `stage_reply_ns`; the serving in between is
            // covered by the node-side queue-wait and shard-execute stages.
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
                // replica within a round: groups are served in creation
                // order, so spreading a key's ops across replicas could
                // land a later op in an earlier-created group and run it
                // first, breaking the same-key batch-order guarantee. The
                // replica pick is therefore memoized per key per round
                // (load still spreads across batches).
                let mut replica_picks: Vec<(&[u8], Option<KnId>)> = Vec::new();
                for &i in &pending {
                    let key = ops[i].key();
                    let owner = if cached.is_replicated(key) {
                        match replica_picks.iter().find(|(k, _)| *k == key) {
                            Some((_, pick)) => *pick,
                            None => {
                                let pick = self.pick_replica(&cached, key, hashes[i]);
                                replica_picks.push((key, pick));
                                pick
                            }
                        }
                    } else {
                        global.owner(hashes[i])
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
            // then serve with the lock released — a slow group (pmem
            // flush, injected fabric delay) must not hold up concurrent
            // reconfigurations or other clients' node lookups.
            let nodes: Vec<Option<Arc<KnNode>>> = {
                let kns = self.kvs.kns.read();
                groups
                    .iter()
                    .map(|(owner, _)| kns.get(owner).cloned())
                    .collect()
            };
            dinomo_obs::record_since(&self.stage_dispatch, dispatch_clock);
            // One batched request per owner node. Each node resolves its
            // group's ownership once (the request carries the metadata
            // version the routing was computed against, so an up-to-date
            // node skips its per-key re-verification — §3.1 staleness
            // detection, applied batch-wide) and serves it shard slice by
            // shard slice. A later result for a position overwrites an
            // earlier one (a failed flush's override).
            for ((_, indexes), node) in groups.iter().zip(&nodes) {
                if let Some(node) = node {
                    node.serve(
                        |pos| ops[pos].view(),
                        indexes,
                        &hashes,
                        routed_version,
                        &mut |pos, r| results[pos] = Some(r),
                    );
                }
            }
            let reply_clock = dinomo_obs::stage_clock();

            // Harvest results; routing rejections and unanswered positions
            // (node disappeared mid-route) are retried.
            let mut retry: Vec<usize> = Vec::new();
            for i in pending {
                if replies[i].is_some() {
                    continue; // resolved as NoNodes during grouping
                }
                match results[i].take() {
                    Some(Ok(read)) => replies[i] = Some(ops[i].view().reply_from(read)),
                    Some(Err(e)) if !Self::is_routing_error(&e) => {
                        replies[i] = Some(Reply::Error(e))
                    }
                    Some(Err(_)) | None => retry.push(i),
                }
            }

            dinomo_obs::record_since(&self.stage_reply, reply_clock);
            pending = retry;
            if !pending.is_empty() {
                self.before_retry(attempt);
            }
        }

        for i in pending {
            replies[i] = Some(Reply::Error(KvsError::RoutingRetriesExhausted));
        }
        let replies: Vec<Reply> = replies
            .into_iter()
            .map(|r| r.expect("every op got a reply"))
            .collect();
        if let Some(inv) = invoked_at {
            for (op, reply) in ops.iter().zip(&replies) {
                self.record_op(op.view(), reply, inv);
            }
        }
        replies
    }

    /// One op, start to finish: the per-key methods and singleton
    /// batches. A batch of one — routed against the cached table, served by
    /// the owner's envelope with the cached version attached, retried
    /// after a metadata refresh on routing errors, recorded — minus what
    /// only a multi-node batch needs: it builds no groups, owned `Op` or
    /// result vectors.
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
                Err(e) if Self::is_routing_error(&e) => self.before_retry(attempt),
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
