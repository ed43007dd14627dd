//! Cluster assembly: the shared DPM, the set of KVS nodes, the ownership
//! table, and the reconfiguration protocol of §3.5.

use crate::config::{KvsConfig, Variant};
use crate::error::KvsError;
use crate::kn::KnNode;
use crate::stats::KvsStats;
use crate::{KvsClient, Result};
use dinomo_dpm::{entry::decode_entry, DpmNode, LogWriter, PackedLoc, RecoveryReport};
use dinomo_partition::{KnId, OwnershipTable};
use dinomo_pmem::PmemError;
use dinomo_simnet::Nic;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The Dinomo cluster (data plane + the mechanisms the control plane drives).
///
/// `Kvs` is cheap to clone; clones share the same cluster.
#[derive(Debug, Clone)]
pub struct Kvs {
    inner: Arc<KvsInner>,
}

#[derive(Debug)]
pub(crate) struct KvsInner {
    pub(crate) config: KvsConfig,
    pub(crate) dpm: Arc<DpmNode>,
    pub(crate) ownership: Arc<RwLock<OwnershipTable>>,
    pub(crate) kns: RwLock<BTreeMap<KnId, Arc<KnNode>>>,
    /// Serializes the control plane: every reconfiguration entry point
    /// (`add_kn`/`remove_kn`/`fail_kn`/`replicate_key`/`dereplicate_key`)
    /// runs its close → drain → flush → merge → swap → reopen choreography
    /// under this mutex. The individual protocols are safe against the
    /// *data* plane, but two interleaved hand-offs can close each other's
    /// nodes, observe half-swapped tables, or double-collapse a replica
    /// set — until now the driver/policy engine called them sequentially
    /// by construction; with concurrent controllers (and the background
    /// compactor's cell snapshots riding on the DPM cell-registry lock)
    /// the serialization is explicit.
    reconfig_lock: Mutex<()>,
    /// Acquisition wait on `reconfig_lock` (`lock_wait_reconfig_ns`).
    reconfig_wait: dinomo_obs::Histogram,
    /// The cluster-wide metrics registry: shared by the DPM, every KN,
    /// and the clients, snapshotted by benches and the cluster driver.
    pub(crate) metrics: Arc<dinomo_obs::Registry>,
    next_kn_id: AtomicU32,
    reconfigurations: AtomicU64,
    bytes_reshuffled: AtomicU64,
}

impl KvsInner {
    /// Take the control-plane lock, billing the wait to
    /// `lock_wait_reconfig_ns`.
    pub(crate) fn lock_reconfig(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.reconfig_wait.time(|| self.reconfig_lock.lock())
    }
}

impl Kvs {
    /// Build a cluster with `config.initial_kns` KVS nodes.
    pub fn new(config: KvsConfig) -> Result<Self> {
        let metrics = dinomo_obs::Registry::new_shared();
        // The epoch shim's reclamation stats are process-global; bridge
        // them so snapshots (and the cluster driver's per-epoch deltas)
        // see bag flushes next to the native counters.
        metrics.register_external("epoch_bag_flushes", || {
            dinomo_dpm::epoch_stats().bag_flushes
        });
        let dpm = Arc::new(DpmNode::with_metrics(config.dpm, Arc::clone(&metrics))?);
        let ownership = Arc::new(RwLock::new(OwnershipTable::new(
            config.ring_vnodes,
            config.threads_per_kn as u32,
        )));
        let inner = Arc::new(KvsInner {
            config,
            dpm,
            ownership,
            kns: RwLock::new(BTreeMap::new()),
            reconfig_lock: Mutex::new(()),
            reconfig_wait: metrics.lock_wait(dinomo_obs::LockId::Reconfig),
            metrics,
            next_kn_id: AtomicU32::new(0),
            reconfigurations: AtomicU64::new(0),
            bytes_reshuffled: AtomicU64::new(0),
        });
        // The DPM compactor relocates log entries; KN caches hold raw value
        // addresses (shortcuts) into the segments it frees, so every
        // relocation invalidates the key's cached locations cluster-wide
        // before the victim's bytes can be reused. Weak: the observer must
        // not keep the cluster alive from inside the DPM it references.
        let weak: Weak<KvsInner> = Arc::downgrade(&inner);
        inner
            .dpm
            .set_relocation_observer(Box::new(move |key, old_loc| {
                if let Some(inner) = weak.upgrade() {
                    let kns: Vec<Arc<KnNode>> = inner.kns.read().values().cloned().collect();
                    for kn in kns {
                        kn.on_entry_relocated(key, old_loc);
                    }
                }
            }));
        let kvs = Kvs { inner };
        for _ in 0..config.initial_kns.max(1) {
            kvs.add_kn()?;
        }
        Ok(kvs)
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> &KvsConfig {
        &self.inner.config
    }

    /// The shared DPM node.
    pub fn dpm(&self) -> &Arc<DpmNode> {
        &self.inner.dpm
    }

    /// The shared ownership table (the routing nodes' view).
    pub fn ownership(&self) -> Arc<RwLock<OwnershipTable>> {
        Arc::clone(&self.inner.ownership)
    }

    /// A new client handle (each client caches routing metadata).
    pub fn client(&self) -> KvsClient {
        KvsClient::new(Arc::clone(&self.inner))
    }

    /// Identifiers of the live KVS nodes.
    pub fn kn_ids(&self) -> Vec<KnId> {
        self.inner.kns.read().keys().copied().collect()
    }

    /// Number of live KVS nodes.
    pub fn num_kns(&self) -> usize {
        self.inner.kns.read().len()
    }

    /// Handle to one KVS node.
    pub fn kn(&self, id: KnId) -> Option<Arc<KnNode>> {
        self.inner.kns.read().get(&id).cloned()
    }

    /// Total number of reconfigurations (membership or replication changes).
    pub fn reconfigurations(&self) -> u64 {
        self.inner.reconfigurations.load(Ordering::Relaxed)
    }

    /// Bytes physically copied by shared-nothing (Dinomo-N) reshuffles.
    pub fn bytes_reshuffled(&self) -> u64 {
        self.inner.bytes_reshuffled.load(Ordering::Relaxed)
    }

    /// The cluster-wide metrics registry (stage histograms, lock-wait
    /// profiles, migrated counters — see `docs/OBSERVABILITY.md`).
    pub fn metrics(&self) -> Arc<dinomo_obs::Registry> {
        Arc::clone(&self.inner.metrics)
    }

    // ----------------------------------------------------- reconfiguration

    /// Add a KVS node and repartition ownership onto it (§3.5 steps 1–7).
    /// Returns the new node's id.
    pub fn add_kn(&self) -> Result<KnId> {
        let _reconfig = self.inner.lock_reconfig();
        let new_id = self.inner.next_kn_id.fetch_add(1, Ordering::Relaxed);
        let old_table = self.inner.ownership.read().clone();
        let mut new_table = old_table.clone();
        new_table.add_kn(new_id);

        // Step 1: the KNs whose ranges move are those that currently own
        // ranges the new node takes over — with consistent hashing that is
        // potentially every existing node.
        let affected: Vec<Arc<KnNode>> = {
            let changes = old_table.global_ring().changes_to(new_table.global_ring());
            let losers: Vec<KnId> = changes
                .iter()
                .filter_map(|c| c.from)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let kns = self.inner.kns.read();
            losers
                .iter()
                .filter_map(|id| kns.get(id).cloned())
                .collect()
        };

        // Step 2: the participating KNs become unavailable. In-flight
        // requests are drained so none can buffer a write behind the
        // flush below; later arrivals reject with `Reconfiguring`.
        for kn in &affected {
            kn.set_reconfiguring(true);
        }
        for kn in &affected {
            kn.drain_in_flight();
        }
        // Step 3: their pending logs are merged synchronously.
        for kn in &affected {
            kn.flush_pending_writes()?;
            self.inner.dpm.wait_until_merged(kn.id());
        }
        // Shared-nothing variant: physically reshuffle the data that changes
        // owner (this is exactly the cost Dinomo's ownership partitioning
        // avoids).
        if self.inner.config.variant.requires_data_reshuffle() {
            self.reshuffle_data(&old_table, &new_table)?;
        }

        // Simulated fail-stop at the nastiest instant of the hand-off:
        // the moving ranges are closed, drained, flushed and merged, but
        // the new table has not been installed. Abort here — the affected
        // nodes stay closed (`Reconfiguring`), exactly as a crashed
        // controller would leave them, until the crash/recover path
        // reopens the cluster.
        if self.inner.dpm.failpoints().hit("handoff.before-flip") {
            return Err(KvsError::Pmem(PmemError::InjectedFailure));
        }

        // Step 4/5: build the new node, install the new mapping, reopen.
        let node = Arc::new(KnNode::new(
            new_id,
            &self.inner.config,
            Arc::clone(&self.inner.dpm),
            Arc::clone(&self.inner.ownership),
            &self.inner.metrics,
        ));
        self.inner.kns.write().insert(new_id, node);
        *self.inner.ownership.write() = new_table;
        let mut old_entries = Vec::new();
        for kn in &affected {
            // The previous owners empty their caches for the moved ranges.
            old_entries.extend(kn.clear_caches());
            kn.set_reconfiguring(false);
        }
        // Freed only now that the ranges are available again.
        drop(old_entries);
        // Steps 6/7 (asynchronously updating remaining KNs and RNs) are
        // immediate here because all components share the ownership table.
        self.persist_policy_metadata()?;
        self.inner.reconfigurations.fetch_add(1, Ordering::Relaxed);
        Ok(new_id)
    }

    /// Keys replicated under `old` whose replica set `new` could not keep
    /// alive (the cluster shrank below two nodes): the membership change
    /// flips them back to single ownership, so their shared-path state
    /// must be dismantled like an explicit dereplication.
    fn collapsed_replications(old: &OwnershipTable, new: &OwnershipTable) -> Vec<Vec<u8>> {
        old.replicated_keys()
            .filter(|k| !new.is_replicated(k))
            .cloned()
            .collect()
    }

    /// The dereplication half of a membership change that collapses
    /// replica sets: with `survivors` already closed and drained by the
    /// caller, merge their outstanding log segments and dismantle each
    /// collapsed key's indirection cell, so the index is authoritative
    /// when the owned-path protocol takes over. Callers swap the table
    /// and reopen the survivors afterwards.
    fn collapse_replicated_keys(&self, keys: &[Vec<u8>], survivors: &[Arc<KnNode>]) -> Result<()> {
        for kn in survivors {
            kn.flush_pending_writes()?;
            self.inner.dpm.wait_until_merged(kn.id());
        }
        for key in keys {
            for kn in self.inner.kns.read().values() {
                kn.invalidate_key(key);
            }
            self.inner.dpm.remove_indirect(key);
        }
        Ok(())
    }

    /// The shared core of a membership shrink (`remove_kn`'s planned
    /// hand-off and `fail_kn`'s recovery): make what must survive durable
    /// and merged, reshuffle if the variant requires it, explicitly
    /// dereplicate replica sets the shrink could not keep alive (see
    /// `OwnershipTable::remove_kn` — never a silent protocol flip), and
    /// swap in the new table. On error **nothing is swapped**: the cluster
    /// keeps serving under the old table and the caller decides how to
    /// reopen the victim.
    fn shrink_membership(
        &self,
        victim: &Arc<KnNode>,
        planned: bool,
        old_table: &OwnershipTable,
        new_table: OwnershipTable,
    ) -> Result<()> {
        if planned {
            victim.flush_pending_writes()?;
            self.inner.dpm.wait_until_merged(victim.id());
        } else {
            // Fail-stop recovery: the M-node merges whatever the failed
            // node had already flushed.
            self.inner.dpm.merge_pending_for_kn(victim.id());
        }
        if self.inner.config.variant.requires_data_reshuffle() {
            self.reshuffle_data(old_table, &new_table)?;
        }
        let collapsed = Self::collapsed_replications(old_table, &new_table);
        let survivors: Vec<Arc<KnNode>> = if collapsed.is_empty() {
            Vec::new()
        } else {
            let kns = self.inner.kns.read();
            kns.values()
                .filter(|n| n.id() != victim.id())
                .cloned()
                .collect()
        };
        for kn in &survivors {
            kn.set_reconfiguring(true);
        }
        for kn in &survivors {
            kn.drain_in_flight();
        }
        let result = self.collapse_replicated_keys(&collapsed, &survivors);
        let mut old_entries = Vec::new();
        if result.is_ok() {
            if planned {
                // The planned hand-off empties the victim's caches once
                // its state is merged (a failed node already lost them).
                old_entries = victim.clear_caches();
            }
            *self.inner.ownership.write() = new_table;
            self.inner.kns.write().remove(&victim.id());
        }
        for kn in &survivors {
            kn.set_reconfiguring(false);
        }
        // Freed only now that the survivors are available again.
        drop(old_entries);
        result
    }

    /// Remove an (under-utilized) KVS node, handing its ranges to the rest of
    /// the cluster.
    pub fn remove_kn(&self, id: KnId) -> Result<()> {
        let _reconfig = self.inner.lock_reconfig();
        let node = self.kn(id).ok_or(KvsError::NoNodes)?;
        if self.num_kns() <= 1 {
            return Err(KvsError::NoNodes);
        }
        let old_table = self.inner.ownership.read().clone();
        let mut new_table = old_table.clone();
        new_table.remove_kn(id);

        node.set_reconfiguring(true);
        node.drain_in_flight();
        if let Err(e) = self.shrink_membership(&node, true, &old_table, new_table) {
            // The shrink failed with nothing swapped: reopen the victim so
            // the cluster keeps serving under the old table instead of
            // wedging the victim's keys on `Reconfiguring` retries.
            node.set_reconfiguring(false);
            return Err(e);
        }
        // The removed node never writes again: seal its open segments so
        // the collectors can reclaim them once their entries die.
        node.seal_log_segments();
        self.persist_policy_metadata()?;
        self.inner.reconfigurations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Simulate a fail-stop KVS-node failure and run the recovery protocol:
    /// merge the failed node's pending logs, repartition ownership among the
    /// alive nodes, and (for shared-nothing variants) reshuffle its data.
    pub fn fail_kn(&self, id: KnId) -> Result<()> {
        let _reconfig = self.inner.lock_reconfig();
        let node = self.kn(id).ok_or(KvsError::NoNodes)?;
        // Freed when this returns, after the node's ranges have moved.
        let _lost_dram = node.fail();
        let old_table = self.inner.ownership.read().clone();
        let mut new_table = old_table.clone();
        new_table.remove_kn(id);

        // Fail-stopped, the node never writes again: seal its open
        // segments so the collectors can reclaim them once their entries
        // die.
        node.seal_log_segments();
        self.shrink_membership(&node, false, &old_table, new_table)?;
        self.persist_policy_metadata()?;
        self.inner.reconfigurations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Share the ownership of a hot key across `factor` nodes (selective
    /// replication).  Installs the indirection cell in DPM and invalidates
    /// the primary owner's cached copy.
    ///
    /// The key's current owner is made unavailable for the duration of the
    /// flip — the same §3.5 close → drain → flush → merge → swap → reopen
    /// protocol membership changes use. Replication switches the key's
    /// *write protocol* from owned (log → async merge → index) to shared
    /// (flush → indirection-cell CAS); without the quiescent hand-off, a
    /// write acknowledged on the owned path while the cell is being
    /// installed is silently lost: the freshly-installed cell pins the
    /// older entry, readers serve it, and when the racing write's log
    /// record finally merges, the merge engine's shared-put arbitration
    /// sees a cell that never pointed at it and invalidates it — an
    /// acked-write loss that persists until the next write (found by the
    /// `dinomo-check` history checker under replication churn).
    pub fn replicate_key(&self, key: &[u8], factor: usize) -> Result<Vec<KnId>> {
        let _reconfig = self.inner.lock_reconfig();
        if !self.inner.config.variant.supports_selective_replication() {
            return Err(KvsError::Reconfiguring);
        }
        let primary_node = self
            .inner
            .ownership
            .read()
            .primary_owner(key)
            .and_then(|id| self.kn(id));
        if let Some(kn) = &primary_node {
            kn.set_reconfiguring(true);
            kn.drain_in_flight();
        }
        // From here the owner rejects requests (clients retry), so the
        // merged index state the cell snapshots is the key's latest; the
        // table swap below publishes the shared path before the owner
        // reopens. The closure keeps the error paths from leaving the
        // node closed.
        let result = (|| -> Result<Vec<KnId>> {
            if let Some(kn) = &primary_node {
                kn.flush_pending_writes()?;
                self.inner.dpm.wait_until_merged(kn.id());
            }
            if self.inner.dpm.make_indirect(key)?.is_none() {
                // The key is absent (never written, or deleted): there is
                // no entry to hang a cell on, and flipping the table
                // without a cell would leave the key "replicated" with no
                // shared-visibility mechanism — writes would be invisible
                // until their merge and reads would degrade to uncached
                // per-replica fallbacks. Refuse instead; the caller can
                // retry once the key exists.
                return Err(KvsError::KeyNotFound);
            }
            Ok(self.inner.ownership.write().replicate(key, factor))
        })();
        if result.is_ok() {
            for kn in self.inner.kns.read().values() {
                kn.invalidate_key(key);
            }
        }
        if let Some(kn) = &primary_node {
            kn.set_reconfiguring(false);
        }
        let owners = result?;
        self.persist_policy_metadata()?;
        self.inner.reconfigurations.fetch_add(1, Ordering::Relaxed);
        Ok(owners)
    }

    /// Collapse a previously replicated key back to a single owner.
    ///
    /// Mirror of [`Kvs::replicate_key`]'s hand-off, shared → owned: every
    /// current owner is closed and drained, their flushed shared-path
    /// entries (including delete tombstones) are merged so the index is
    /// authoritative, and only then is the indirection cell collapsed and
    /// the table swapped — otherwise a write acknowledged through the
    /// cell could be invisible to owned-path readers until its merge
    /// caught up.
    pub fn dereplicate_key(&self, key: &[u8]) -> Result<()> {
        let _reconfig = self.inner.lock_reconfig();
        let owner_nodes: Vec<Arc<KnNode>> = {
            let table = self.inner.ownership.read();
            let owners = table.owners(key);
            let kns = self.inner.kns.read();
            owners
                .iter()
                .filter_map(|id| kns.get(id).cloned())
                .collect()
        };
        for kn in &owner_nodes {
            kn.set_reconfiguring(true);
        }
        for kn in &owner_nodes {
            kn.drain_in_flight();
        }
        let result = (|| -> Result<()> {
            for kn in &owner_nodes {
                kn.flush_pending_writes()?;
                self.inner.dpm.wait_until_merged(kn.id());
            }
            Ok(())
        })();
        if result.is_ok() {
            for kn in self.inner.kns.read().values() {
                kn.invalidate_key(key);
            }
            self.inner.ownership.write().dereplicate(key);
            self.inner.dpm.remove_indirect(key);
        }
        for kn in &owner_nodes {
            kn.set_reconfiguring(false);
        }
        result?;
        self.persist_policy_metadata()?;
        self.inner.reconfigurations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flush buffered writes on every node. Every slice flushes its own
    /// writes before answering them, so this retries only what a failed
    /// flush left buffered.
    pub fn flush_all(&self) -> Result<()> {
        let kns: Vec<Arc<KnNode>> = self.inner.kns.read().values().cloned().collect();
        for kn in kns {
            if !kn.is_failed() {
                kn.flush_pending_writes()?;
            }
        }
        Ok(())
    }

    /// Wait until the DPM has merged every outstanding log segment.
    pub fn quiesce(&self) -> Result<()> {
        self.flush_all()?;
        self.inner.dpm.wait_until_all_merged();
        Ok(())
    }

    /// Simulate a cluster-wide power failure centred on the DPM and run
    /// the full recovery sequence, in-process:
    ///
    /// 1. close every KVS node and drain its in-flight requests (their
    ///    outcomes were decided before the crash instant; requests that
    ///    arrive after the close reject and their clients see failures —
    ///    the checker records those as may-have-applied),
    /// 2. discard each node's volatile state, including
    ///    buffered-but-unflushed log writes
    ///    ([`KnNode::discard_volatile_state`]),
    /// 3. quiesce the merge workers, then drop the DPM pool's
    ///    written-but-unpersisted lines ([`DpmNode::simulate_crash`]),
    /// 4. replay the logs into the hash index ([`DpmNode::recover`]),
    /// 5. run the quiescent invariant walk ([`DpmNode::check_index`]) —
    ///    a violation surfaces as [`KvsError::RecoveryCheckFailed`] —
    ///    and reopen every node,
    /// 6. decode the ownership table from the pool's metadata slots
    ///    ([`Kvs::recover_policy_metadata`]); one that differs from the
    ///    live table is also a [`KvsError::RecoveryCheckFailed`].
    ///
    /// The nodes' identities and the live ownership table survive in DRAM
    /// (step 6 checks that a real restart could rebuild the table from the
    /// pool); what this exercises is the durability story: every
    /// acknowledged write must still be served afterwards.
    pub fn crash_dpm_and_recover(&self) -> Result<DpmCrashReport> {
        let _reconfig = self.inner.lock_reconfig();
        let kns: Vec<Arc<KnNode>> = self.inner.kns.read().values().cloned().collect();
        for kn in &kns {
            kn.set_reconfiguring(true);
        }
        for kn in &kns {
            kn.drain_in_flight();
        }
        let mut buffered_discarded = 0;
        for kn in &kns {
            buffered_discarded += kn.discard_volatile_state();
        }
        // No merge worker may be mid-entry when the pool lines drop: a
        // half-observed entry would be neither replayed nor skipped
        // cleanly. Everything flushed pre-crash is being merged anyway;
        // waiting just moves that work before the crash instant.
        self.inner.dpm.wait_until_all_merged();
        // Exclude collector passes across the crash, the log replay and
        // the invariant walk: a pass walks pool bytes the crash rewrites,
        // and can free the victim of an index word the walk just read.
        let gc_pause = self.inner.dpm.pause_collectors();
        self.inner.dpm.simulate_crash();
        let recovery = self.inner.dpm.recover();
        let check = self.inner.dpm.check_index();
        drop(gc_pause);
        for kn in &kns {
            kn.set_reconfiguring(false);
        }
        let tree = check.map_err(KvsError::RecoveryCheckFailed)?;
        let live = self.inner.ownership.read();
        let durable = self.recover_policy_metadata();
        if durable.as_ref() != Some(&*live) {
            return Err(KvsError::RecoveryCheckFailed(format!(
                "the persisted ownership table ({}) differs from the live one ({})",
                durable.map_or_else(|| "unreadable".to_string(), |t| t.describe()),
                live.describe()
            )));
        }
        drop(live);
        Ok(DpmCrashReport {
            recovery,
            ordered_rebuilt: 0,
            buffered_discarded,
            tree,
        })
    }

    /// Persist the ownership/replication metadata to DPM so failed routing
    /// nodes or KNs can rebuild their soft state (§3.5 "Fault tolerance").
    pub fn persist_policy_metadata(&self) -> Result<()> {
        let table = self.inner.ownership.read();
        self.inner.dpm.put_metadata(&table.encode())?;
        Ok(())
    }

    /// Recover the ownership/replication metadata previously persisted with
    /// [`Kvs::persist_policy_metadata`], decoded from the DPM pool.
    pub fn recover_policy_metadata(&self) -> Option<OwnershipTable> {
        OwnershipTable::decode(&self.inner.dpm.get_metadata()?)
    }

    /// Cluster-wide statistics.
    pub fn stats(&self) -> KvsStats {
        KvsStats {
            kns: self.inner.kns.read().values().map(|k| k.stats()).collect(),
            dpm: self.inner.dpm.stats(),
            ownership_version: self.inner.ownership.read().version(),
        }
    }

    /// Shared-nothing data reorganization: every key whose owner changes is
    /// physically re-written through the new owner's log.  This is the
    /// expensive step that Dinomo's ownership partitioning eliminates.
    fn reshuffle_data(&self, old: &OwnershipTable, new: &OwnershipTable) -> Result<()> {
        debug_assert_eq!(self.inner.config.variant, Variant::DinomoN);
        // Collect the moved keys first (the index cannot be mutated while we
        // iterate it).
        let mut moved: Vec<(Vec<u8>, Vec<u8>, KnId)> = Vec::new();
        let pool = self.inner.dpm.pool();
        self.inner.dpm.index().for_each(|_tag, raw| {
            let loc = PackedLoc::from_raw(raw);
            if loc.is_indirect() {
                return;
            }
            if let Some(entry) = decode_entry(pool, loc.addr(), loc.len()) {
                let old_owner = old.primary_owner(&entry.key);
                let new_owner = new.primary_owner(&entry.key);
                if let (Some(o), Some(n)) = (old_owner, new_owner) {
                    if o != n {
                        moved.push((entry.key.clone(), entry.read_value(pool), n));
                    }
                }
            }
        });
        if moved.is_empty() {
            return Ok(());
        }
        // Re-log every moved pair through a writer owned by its new owner,
        // one flush per writer (it cuts the batch at segment ends).
        let nic = Nic::new(self.inner.config.fabric);
        let mut writers: BTreeMap<KnId, LogWriter> = BTreeMap::new();
        let mut bytes = 0u64;
        for (key, value, new_owner) in moved {
            bytes += (key.len() + value.len()) as u64;
            writers
                .entry(new_owner)
                .or_insert_with(|| {
                    LogWriter::new(Arc::clone(&self.inner.dpm), new_owner, nic.clone())
                })
                .append_put(&key, &value);
        }
        for (_, mut w) in writers {
            w.flush()?;
            w.seal_current();
        }
        self.inner.dpm.wait_until_all_merged();
        self.inner
            .bytes_reshuffled
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }
}

/// What a simulated power failure + recovery did (see
/// [`Kvs::crash_dpm_and_recover`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpmCrashReport {
    /// The log-replay outcome: sealed entries re-merged, torn entries
    /// discarded, index size after.
    pub recovery: RecoveryReport,
    /// Always 0: recovery rebuilds no ordered index any more. Kept only
    /// for `e2e`, deleted with its probe (ROADMAP item 1).
    pub ordered_rebuilt: u64,
    /// Buffered-but-unflushed (never-acknowledged) log entries the
    /// crashed nodes' DRAM took with it.
    pub buffered_discarded: usize,
    /// Keys the post-recovery invariant walk ([`DpmNode::check_index`])
    /// found in the hash index.
    pub tree: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::key_for;
    use crate::op::{Op, Reply};
    use dinomo_cache::CacheKind;

    fn cluster(variant: Variant) -> Kvs {
        Kvs::new(KvsConfig::small_for_tests().with_variant(variant)).unwrap()
    }

    /// Dinomo, Dinomo-S (its shortcut-only cache) and Dinomo-N.
    fn variant_configs() -> [KvsConfig; 3] {
        let base = KvsConfig::small_for_tests();
        [
            base,
            KvsConfig {
                cache_kind: Some(CacheKind::ShortcutOnly),
                ..base
            },
            base.with_variant(Variant::DinomoN),
        ]
    }

    #[test]
    fn insert_is_an_upsert() {
        // §3's `insert` is the write primitive: writing an existing key
        // overwrites it and succeeds (documented on `KvsClient::insert`).
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        client.insert(b"k", b"v1").unwrap();
        client.insert(b"k", b"v2").unwrap();
        assert_eq!(client.lookup(b"k").unwrap(), Some(b"v2".to_vec()));
        // ... and `update` of a missing key writes it (same upsert path).
        client.update(b"fresh", b"v").unwrap();
        assert_eq!(client.lookup(b"fresh").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn execute_returns_positional_replies_for_mixed_batches() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        let replies = client.execute(vec![
            Op::insert("a", "1"),
            Op::insert("b", "2"),
            Op::lookup("a"),
            Op::update("a", "1b"),
            Op::lookup("a"),
            Op::delete("b"),
            Op::lookup("b"),
            Op::lookup("never-written"),
        ]);
        assert_eq!(replies.len(), 8);
        assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
        assert_eq!(replies[2].value(), Some(&b"1"[..]));
        assert_eq!(replies[4].value(), Some(&b"1b"[..]));
        assert_eq!(replies[6], Reply::Value(None));
        assert_eq!(replies[7], Reply::Value(None));
        // Ops on the same key applied in batch order.
        assert_eq!(client.lookup(b"a").unwrap(), Some(b"1b".to_vec()));
        assert_eq!(client.lookup(b"b").unwrap(), None);
    }

    #[test]
    fn batched_writes_are_visible_to_per_key_reads_and_vice_versa() {
        for config in variant_configs() {
            let name = format!("{:?} {:?}", config.variant, config.cache_kind);
            let kvs = Kvs::new(config).unwrap();
            let client = kvs.client();
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..300u64)
                .map(|i| (key_for(i, 8), format!("v{i}").into_bytes()))
                .collect();
            let replies = client.multi_put(pairs.clone());
            assert!(replies.iter().all(Reply::is_ok));
            kvs.quiesce().unwrap();
            // Per-key reads see the batched writes.
            for (k, v) in &pairs {
                assert_eq!(client.lookup(k).unwrap().as_ref(), Some(v), "{name}");
            }
            // Batched reads see them too, in key order.
            let replies = client.multi_get(pairs.iter().map(|(k, _)| k.clone()));
            for ((_, v), reply) in pairs.iter().zip(&replies) {
                assert_eq!(reply.value(), Some(v.as_slice()));
            }
            // Both KNs served part of the batch (owner grouping routed
            // a group to each owner, not everything to one node).
            let stats = kvs.stats();
            for kn in &stats.kns {
                assert!(kn.ops > 50, "{name} kn {} served {} ops", kn.id, kn.ops);
            }
        }
    }

    #[test]
    fn execute_handles_replicated_keys_in_batches() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        client.insert(b"hot", b"v0").unwrap();
        kvs.replicate_key(b"hot", 2).unwrap();
        let replies = client.execute(vec![
            Op::lookup("hot"),
            Op::update("hot", "v1"),
            Op::lookup("hot"),
            Op::insert("cold", "c"),
            Op::lookup("cold"),
        ]);
        assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
        assert_eq!(replies[0].value(), Some(&b"v0"[..]));
        assert_eq!(replies[2].value(), Some(&b"v1"[..]));
        assert_eq!(replies[4].value(), Some(&b"c"[..]));
    }

    #[test]
    fn replicated_key_batches_preserve_write_then_delete_order() {
        // A shared-path write and an owned-path delete of the same
        // replicated key in one batch must apply in batch order: the delete
        // wins, exactly as with sequential per-key calls.
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        client.insert(b"hot", b"v0").unwrap();
        kvs.replicate_key(b"hot", 2).unwrap();
        let replies = client.execute(vec![Op::update("hot", "v1"), Op::delete("hot")]);
        assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
        kvs.quiesce().unwrap();
        assert_eq!(
            client.lookup(b"hot").unwrap(),
            None,
            "delete must win over the earlier write"
        );
        // And the reverse order keeps the write.
        let replies = client.execute(vec![Op::insert("hot", "v2"), Op::lookup("hot")]);
        assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
        assert_eq!(replies[1].value(), Some(&b"v2"[..]));
    }

    #[test]
    fn replicated_key_delete_is_immediately_visible() {
        // An acknowledged delete of a replicated key must be observed by
        // shared-path reads on every replica right away — before its
        // tombstone is flushed or merged (the delete empties the
        // indirection cell) — and a subsequent write must be visible again.
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        client.insert(b"hot", b"v0").unwrap();
        kvs.replicate_key(b"hot", 2).unwrap();
        client.refresh_routing();
        client.delete(b"hot").unwrap();
        // No quiesce: the lookups round-robin across both replicas.
        for i in 0..4 {
            assert_eq!(client.lookup(b"hot").unwrap(), None, "lookup {i}");
        }
        client.insert(b"hot", b"v1").unwrap();
        for i in 0..4 {
            assert_eq!(
                client.lookup(b"hot").unwrap(),
                Some(b"v1".to_vec()),
                "lookup {i} after re-insert"
            );
        }
        // And the merge of the buffered tombstone (older than the
        // re-insert) must not take the newer value down with it.
        kvs.quiesce().unwrap();
        assert_eq!(client.lookup(b"hot").unwrap(), Some(b"v1".to_vec()));
    }

    #[test]
    fn replicated_key_order_holds_with_unrelated_group_ahead() {
        // Regression: an unrelated op earlier in the batch pre-creates the
        // owner group of one of the hot key's replicas. If a batch's ops on
        // one key were round-robined to different replicas, a later op could
        // join that earlier-created group and dispatch before an earlier op
        // on the same key — a lookup observing the pre-update value, or a
        // delete overtaken by the update it should win over. All ops on one
        // key must share one group, whatever the round-robin phase; the
        // sweep over cold keys (spanning both owners) and round-robin
        // phases covers every group-layout combination.
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        for i in 0..8u64 {
            for phase in 0..2u64 {
                client.insert(b"hot", b"v0").unwrap();
                kvs.quiesce().unwrap();
                // Re-install replication each round (the delete below tears
                // the indirection cell down) and refresh the client: with a
                // stale cached table the client routes "hot" to its primary
                // owner and the replica round-robin never engages.
                kvs.replicate_key(b"hot", 2).unwrap();
                client.refresh_routing();
                if phase == 1 {
                    // An odd number of extra picks shifts the round-robin
                    // phase the batches below start from.
                    client.lookup(b"hot").unwrap();
                }

                // Write-then-read: the in-batch lookup follows the update
                // in batch order and must observe its value.
                let v = format!("v{i}-{phase}");
                let replies = client.execute(vec![
                    Op::insert(key_for(i, 8), "c"),
                    Op::update("hot", v.as_bytes()),
                    Op::lookup("hot"),
                ]);
                assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
                assert_eq!(
                    replies[2].value(),
                    Some(v.as_bytes()),
                    "cold key {i} phase {phase}: in-batch lookup must see \
                     the earlier same-batch update"
                );

                // Write-then-delete: the delete is last and must win.
                let replies = client.execute(vec![
                    Op::insert(key_for(i, 8), "c2"),
                    Op::update("hot", "resurrect?"),
                    Op::delete("hot"),
                ]);
                assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
                kvs.quiesce().unwrap();
                assert_eq!(
                    client.lookup(b"hot").unwrap(),
                    None,
                    "cold key {i} phase {phase}: delete must win over the \
                     earlier same-batch update"
                );
            }
        }
    }

    #[test]
    fn batched_writes_flush_once_per_group_but_remain_durable() {
        // A per-key write flushes in its own slice; a batch flushes once
        // per shard slice. Either way, everything the client was acked for
        // must be readable after a quiesce.
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        let client = kvs.client();
        let ops: Vec<Op> = (0..64u64)
            .map(|i| Op::insert(key_for(i, 8), [i as u8; 32]))
            .collect();
        assert!(client.execute(ops).iter().all(Reply::is_ok));
        kvs.quiesce().unwrap();
        for i in 0..64u64 {
            assert_eq!(
                client.lookup(&key_for(i, 8)).unwrap(),
                Some(vec![i as u8; 32])
            );
        }
    }

    /// A batch fans out to one slice per (KN, shard) it touches, and the
    /// calling thread runs each slice once as that shard's worker. Per
    /// round it records one `ClientDispatch` and one `Reply` sample on the
    /// client, and one `QueueWait` and one `ShardExecute` sample per shard
    /// slice: the client's clocks stop before the nodes serve and start
    /// again after, so KN execution is billed to the node-side stages
    /// alone.
    #[test]
    fn batches_fan_out_through_the_shard_workers() {
        use dinomo_obs::Stage;
        let kvs = cluster(Variant::Dinomo);
        let keys: Vec<Vec<u8>> = (0..64u64).map(|i| key_for(i, 8)).collect();
        let slices = {
            let table = kvs.ownership();
            let table = table.read();
            let mut slices: Vec<(KnId, u32)> = keys
                .iter()
                .map(|k| {
                    let kn = table.primary_owner(k).unwrap();
                    (kn, table.thread_of(kn, k).unwrap())
                })
                .collect();
            slices.sort_unstable();
            slices.dedup();
            slices.len() as u64
        };
        assert_eq!(slices, 4, "64 keys must reach both shards of both KNs");
        let registry = kvs.metrics();
        let counts = || {
            [
                Stage::ClientDispatch,
                Stage::Reply,
                Stage::QueueWait,
                Stage::ShardExecute,
            ]
            .map(|stage| registry.stage(stage).merged().count())
        };
        let client = kvs.client();
        let mut before = counts();
        for ops in [
            keys.iter().map(|k| Op::insert(k.clone(), "v")).collect(),
            keys.iter().map(Op::lookup).collect::<Vec<Op>>(),
        ] {
            assert!(client.execute(ops).iter().all(Reply::is_ok));
            let after = counts();
            let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            assert_eq!(delta, [1, 1, slices, slices]);
            before = after;
        }
    }

    #[test]
    fn executor_disabled_runs_batches_inline() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        let ops: Vec<Op> = (0..64u64)
            .map(|i| Op::insert(key_for(i, 8), format!("v{i}")))
            .collect();
        assert!(client.execute(ops).iter().all(Reply::is_ok));
        let replies = client.multi_get((0..64u64).map(|i| key_for(i, 8)));
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.value(), Some(format!("v{i}").as_bytes()));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let kvs = cluster(Variant::Dinomo);
        assert!(kvs.client().execute(Vec::new()).is_empty());
    }

    #[test]
    fn basic_crud_through_client() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        client.insert(b"alpha", b"1").unwrap();
        client.insert(b"beta", b"2").unwrap();
        assert_eq!(client.lookup(b"alpha").unwrap(), Some(b"1".to_vec()));
        assert_eq!(client.lookup(b"beta").unwrap(), Some(b"2".to_vec()));
        assert_eq!(client.lookup(b"gamma").unwrap(), None);
        client.update(b"alpha", b"1b").unwrap();
        assert_eq!(client.lookup(b"alpha").unwrap(), Some(b"1b".to_vec()));
        client.delete(b"alpha").unwrap();
        assert_eq!(client.lookup(b"alpha").unwrap(), None);
        assert_eq!(client.lookup(b"beta").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn many_keys_across_kns_and_shards() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        for i in 0..500u64 {
            client
                .insert(&key_for(i, 8), format!("value-{i}").as_bytes())
                .unwrap();
        }
        kvs.quiesce().unwrap();
        for i in 0..500u64 {
            assert_eq!(
                client.lookup(&key_for(i, 8)).unwrap(),
                Some(format!("value-{i}").into_bytes()),
                "key {i}"
            );
        }
        let stats = kvs.stats();
        assert_eq!(stats.kns.len(), 2);
        // Both KNs served a reasonable share of the requests.
        for kn in &stats.kns {
            assert!(kn.ops > 100, "kn {} only served {} ops", kn.id, kn.ops);
        }
    }

    #[test]
    fn all_variants_serve_reads_and_writes() {
        for config in variant_configs() {
            let kvs = Kvs::new(config).unwrap();
            let client = kvs.client();
            for i in 0..100u64 {
                client.insert(&key_for(i, 8), &[i as u8; 64]).unwrap();
            }
            for i in 0..100u64 {
                assert_eq!(
                    client.lookup(&key_for(i, 8)).unwrap(),
                    Some(vec![i as u8; 64]),
                    "{:?} {:?} key {i}",
                    config.variant,
                    config.cache_kind
                );
            }
        }
    }

    #[test]
    fn add_kn_preserves_data_and_moves_ownership() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        for i in 0..300u64 {
            client.insert(&key_for(i, 8), &[1u8; 32]).unwrap();
        }
        let before_version = kvs.ownership().read().version();
        let new_id = kvs.add_kn().unwrap();
        assert_eq!(kvs.num_kns(), 3);
        assert!(kvs.ownership().read().version() > before_version);
        assert!(kvs.kn_ids().contains(&new_id));
        for i in 0..300u64 {
            assert_eq!(
                client.lookup(&key_for(i, 8)).unwrap(),
                Some(vec![1u8; 32]),
                "key {i}"
            );
        }
        // The new node ends up owning some keys and serving requests.
        let new_kn_ops = kvs.kn(new_id).unwrap().stats().ops;
        assert!(new_kn_ops > 0, "new KN never served a request");
        // Dinomo never physically copies data on reconfiguration.
        assert_eq!(kvs.bytes_reshuffled(), 0);
    }

    #[test]
    fn mid_handoff_crash_closes_ranges_and_recovery_reopens() {
        // Abort a §3.5 hand-off after close/drain/flush/merge but before
        // the table flip (`handoff.before-flip`): no half-admitted node,
        // no table change, and the moving ranges left closed — exactly
        // what a crashed controller leaves. `crash_dpm_and_recover` must
        // then reopen the cluster with every acked write intact, and the
        // next hand-off must run cleanly.
        let mut config = KvsConfig::small_for_tests();
        config.dpm.pool.track_persistence = true;
        let kvs = Kvs::new(config).unwrap();
        let client = kvs.client();
        for i in 0..200u64 {
            client.insert(&key_for(i, 8), &[4u8; 32]).unwrap();
        }

        let kns_before = kvs.num_kns();
        let version_before = kvs.ownership().read().version();
        kvs.dpm().failpoints().arm("handoff.before-flip", 1);
        let err = kvs.add_kn().unwrap_err();
        kvs.dpm().failpoints().disarm("handoff.before-flip");
        assert!(matches!(err, KvsError::Pmem(_)), "{err:?}");
        assert_eq!(kvs.num_kns(), kns_before, "no half-admitted node");
        assert_eq!(
            kvs.ownership().read().version(),
            version_before,
            "the table must not have flipped"
        );
        let closed = kvs.kn_ids().iter().any(|&id| {
            matches!(
                kvs.kn(id).unwrap().get(&key_for(0, 8)),
                Err(KvsError::Reconfiguring)
            )
        });
        assert!(closed, "the moving ranges must be left closed");

        let report = kvs.crash_dpm_and_recover().unwrap();
        assert!(report.tree >= 200, "{report:?}");
        for i in 0..200u64 {
            assert_eq!(
                client.lookup(&key_for(i, 8)).unwrap(),
                Some(vec![4u8; 32]),
                "key {i} lost across mid-hand-off crash"
            );
        }

        let new_id = kvs.add_kn().unwrap();
        assert!(kvs.kn_ids().contains(&new_id));
        for i in 0..200u64 {
            assert_eq!(client.lookup(&key_for(i, 8)).unwrap(), Some(vec![4u8; 32]));
        }
    }

    #[test]
    fn dinomo_n_reshuffles_data_on_membership_change() {
        let kvs = cluster(Variant::DinomoN);
        let client = kvs.client();
        for i in 0..200u64 {
            client.insert(&key_for(i, 8), &[7u8; 64]).unwrap();
        }
        kvs.quiesce().unwrap();
        kvs.add_kn().unwrap();
        assert!(kvs.bytes_reshuffled() > 0, "shared-nothing must copy data");
        for i in 0..200u64 {
            assert_eq!(client.lookup(&key_for(i, 8)).unwrap(), Some(vec![7u8; 64]));
        }
    }

    #[test]
    fn remove_kn_keeps_data_available() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        for i in 0..200u64 {
            client.insert(&key_for(i, 8), &[9u8; 16]).unwrap();
        }
        let victim = kvs.kn_ids()[0];
        kvs.remove_kn(victim).unwrap();
        assert_eq!(kvs.num_kns(), 1);
        for i in 0..200u64 {
            assert_eq!(
                client.lookup(&key_for(i, 8)).unwrap(),
                Some(vec![9u8; 16]),
                "key {i}"
            );
        }
        // Removing the last node is refused.
        let last = kvs.kn_ids()[0];
        assert!(matches!(kvs.remove_kn(last), Err(KvsError::NoNodes)));
    }

    /// A departing node's open log segments are sealed, so once every
    /// entry in them is overwritten the collectors free them — left open,
    /// they would stay allocated forever.
    #[test]
    fn a_departed_kns_open_segments_are_reclaimed() {
        for fail in [false, true] {
            let kvs = cluster(Variant::Dinomo);
            let client = kvs.client();
            let keys: Vec<Vec<u8>> = (0..64u64).map(|i| key_for(i, 8)).collect();
            assert!(client
                .multi_put(keys.iter().map(|k| (k.clone(), [1u8; 32])))
                .iter()
                .all(Reply::is_ok));
            kvs.quiesce().unwrap();
            let victim = kvs.kn_ids()[0];
            let owners: Vec<KnId> = {
                let table = kvs.ownership();
                let table = table.read();
                keys.iter()
                    .map(|k| table.primary_owner(k).unwrap())
                    .collect()
            };
            assert!(
                kvs.kn_ids().iter().all(|id| owners.contains(id)),
                "both KNs must have written"
            );
            let victim_entries: Vec<PackedLoc> = keys
                .iter()
                .zip(&owners)
                .filter(|(_, &owner)| owner == victim)
                .map(|(k, _)| kvs.dpm().local_lookup(k).unwrap())
                .collect();

            if fail {
                kvs.fail_kn(victim).unwrap();
            } else {
                kvs.remove_kn(victim).unwrap();
            }
            assert!(client
                .multi_put(keys.iter().map(|k| (k.clone(), [2u8; 32])))
                .iter()
                .all(Reply::is_ok));
            kvs.quiesce().unwrap();
            kvs.dpm().compact_once();
            kvs.dpm().run_gc();
            for loc in victim_entries {
                assert!(
                    !kvs.dpm().value_addr_is_live(loc.addr()),
                    "fail={fail}: kn {victim}'s segment at {:?} was never freed",
                    loc.addr()
                );
            }
        }
    }

    #[test]
    fn failed_kn_data_remains_readable_after_recovery() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        for i in 0..200u64 {
            client.insert(&key_for(i, 8), &[3u8; 32]).unwrap();
        }
        // No flush first: an acked write is already durable in the log.
        let victim = kvs.kn_ids()[0];
        kvs.fail_kn(victim).unwrap();
        assert_eq!(kvs.num_kns(), 1);
        for i in 0..200u64 {
            assert_eq!(
                client.lookup(&key_for(i, 8)).unwrap(),
                Some(vec![3u8; 32]),
                "key {i}"
            );
        }
        // The failed node rejects requests.
        assert!(kvs.kn(victim).is_none());
    }

    #[test]
    fn selective_replication_shares_ownership() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        client.insert(b"hotkey", b"v0").unwrap();
        let owners = kvs.replicate_key(b"hotkey", 2).unwrap();
        assert_eq!(owners.len(), 2);
        assert!(kvs.ownership().read().is_replicated(b"hotkey"));
        // Reads and writes still linearize through the indirection cell.
        assert_eq!(client.lookup(b"hotkey").unwrap(), Some(b"v0".to_vec()));
        client.update(b"hotkey", b"v1").unwrap();
        assert_eq!(client.lookup(b"hotkey").unwrap(), Some(b"v1".to_vec()));
        // Every owner can serve the key directly.
        for owner in owners {
            let kn = kvs.kn(owner).unwrap();
            assert_eq!(kn.get(b"hotkey").unwrap(), Some(b"v1".to_vec()));
        }
        kvs.dereplicate_key(b"hotkey").unwrap();
        assert!(!kvs.ownership().read().is_replicated(b"hotkey"));
        assert_eq!(client.lookup(b"hotkey").unwrap(), Some(b"v1".to_vec()));
        client.update(b"hotkey", b"v2").unwrap();
        assert_eq!(client.lookup(b"hotkey").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn membership_shrink_keeps_replicated_keys_consistent() {
        // Regression for the silent replication collapse: with a
        // replicated key, removing nodes until only one remains used to
        // drop the key from the replica table while its indirection cell
        // stayed installed — later owned-path writes were acked, then
        // discarded by the merge engine as stale shared puts, and reads
        // served the cell's stale/tombstoned state. The shrink must
        // either keep the set filled (≥2 nodes) or explicitly
        // dereplicate (1 node), and writes must stay readable
        // throughout.
        let kvs = Kvs::new(KvsConfig {
            initial_kns: 3,
            ..KvsConfig::small_for_tests()
        })
        .unwrap();
        let client = kvs.client();
        client.insert(b"hot", b"v0").unwrap();
        kvs.replicate_key(b"hot", 3).unwrap();

        // Shrink 3 → 2: the replica set refills/trims but stays ≥ 2.
        let victim = kvs.kn_ids()[0];
        kvs.remove_kn(victim).unwrap();
        assert!(kvs.ownership().read().is_replicated(b"hot"));
        client.update(b"hot", b"v1").unwrap();
        assert_eq!(client.lookup(b"hot").unwrap(), Some(b"v1".to_vec()));

        // Shrink 2 → 1: collapse is explicit — the key dereplicates and
        // the owned path serves its latest value.
        let victim = kvs.kn_ids()[0];
        kvs.remove_kn(victim).unwrap();
        assert!(!kvs.ownership().read().is_replicated(b"hot"));
        assert_eq!(client.lookup(b"hot").unwrap(), Some(b"v1".to_vec()));
        // Post-collapse writes go the owned path and must survive a full
        // merge cycle (the old bug discarded them at merge time).
        client.update(b"hot", b"v2").unwrap();
        kvs.quiesce().unwrap();
        assert_eq!(client.lookup(b"hot").unwrap(), Some(b"v2".to_vec()));

        // Same collapse with the key's final state *deleted*: the
        // tombstoned cell must dismantle to a clean miss, and a
        // re-insert must win over the merged tombstone.
        let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
        let client = kvs.client();
        client.insert(b"doomed", b"v0").unwrap();
        kvs.replicate_key(b"doomed", 2).unwrap();
        client.refresh_routing();
        client.delete(b"doomed").unwrap();
        let victim = kvs.kn_ids()[0];
        kvs.remove_kn(victim).unwrap();
        assert!(!kvs.ownership().read().is_replicated(b"doomed"));
        assert_eq!(client.lookup(b"doomed").unwrap(), None);
        client.insert(b"doomed", b"v1").unwrap();
        kvs.quiesce().unwrap();
        assert_eq!(client.lookup(b"doomed").unwrap(), Some(b"v1".to_vec()));
    }

    #[test]
    fn replicating_an_absent_key_is_refused() {
        // A key with no index entry has nothing to hang an indirection
        // cell on; flipping the table anyway would leave the key
        // "replicated" with no shared-visibility mechanism.
        let kvs = cluster(Variant::Dinomo);
        assert!(matches!(
            kvs.replicate_key(b"never-written", 2),
            Err(KvsError::KeyNotFound)
        ));
        let client = kvs.client();
        client.insert(b"was-here", b"v").unwrap();
        client.delete(b"was-here").unwrap();
        kvs.quiesce().unwrap();
        assert!(matches!(
            kvs.replicate_key(b"was-here", 2),
            Err(KvsError::KeyNotFound)
        ));
        assert!(!kvs.ownership().read().is_replicated(b"was-here"));
    }

    #[test]
    fn dinomo_n_rejects_selective_replication() {
        let kvs = cluster(Variant::DinomoN);
        let client = kvs.client();
        client.insert(b"hot", b"v").unwrap();
        assert!(kvs.replicate_key(b"hot", 2).is_err());
    }

    #[test]
    fn policy_metadata_round_trips_through_dpm() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        client.insert(b"hot", b"v").unwrap();
        kvs.replicate_key(b"hot", 2).unwrap();
        let recovered = kvs
            .recover_policy_metadata()
            .expect("metadata must be persisted");
        assert_eq!(recovered, *kvs.ownership().read());
        assert!(recovered.is_replicated(b"hot"));
    }

    #[test]
    fn a_default_two_kn_table_persists_in_at_most_64_bytes() {
        // The table depends only on the ring shape and membership, so the
        // default configuration's, with a test-sized pool.
        let kvs = Kvs::new(KvsConfig {
            initial_kns: 2,
            dpm: dinomo_dpm::DpmConfig::small_for_tests(),
            ..KvsConfig::default()
        })
        .unwrap();
        let persisted = kvs.dpm().get_metadata().expect("metadata persisted");
        assert!(persisted.len() <= 64, "{} B", persisted.len());
        assert_eq!(
            OwnershipTable::decode(&persisted).as_ref(),
            Some(&*kvs.ownership().read())
        );
    }

    #[test]
    fn rewriting_policy_metadata_leaves_the_pool_flat() {
        let kvs = cluster(Variant::Dinomo);
        kvs.client().insert(b"hot", b"v").unwrap();
        let replicate_and_back = || {
            kvs.replicate_key(b"hot", 2).unwrap();
            kvs.dereplicate_key(b"hot").unwrap();
        };
        let allocated = || kvs.dpm().pool().stats().allocated_bytes;
        replicate_and_back();
        let after_first = allocated();
        for _ in 1..1_000 {
            replicate_and_back();
        }
        assert_eq!(allocated(), after_first);
    }

    #[test]
    fn stats_reflect_activity() {
        let kvs = cluster(Variant::Dinomo);
        let client = kvs.client();
        for i in 0..50u64 {
            client.insert(&key_for(i, 8), &[0u8; 128]).unwrap();
        }
        for _ in 0..3 {
            for i in 0..50u64 {
                client.lookup(&key_for(i, 8)).unwrap();
            }
        }
        let stats = kvs.stats();
        assert_eq!(stats.total_ops(), 200);
        assert!(
            stats.cache_hit_ratio() > 0.5,
            "hit ratio {}",
            stats.cache_hit_ratio()
        );
        assert!(stats.rts_per_op() < 2.0);
        assert!(stats.dpm.entries_merged > 0 || stats.dpm.segments_allocated > 0);
    }
}
