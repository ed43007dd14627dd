//! Cluster-wide ownership and selective-replication metadata.

use crate::hash::key_hash;
use crate::ring::HashRing;
use std::collections::HashMap;

/// Identifier of a KVS node.
pub type KnId = u32;
/// Identifier of a worker thread within a KVS node.
pub type ThreadId = u32;

/// The ownership metadata shared (by value, versioned) between routing nodes,
/// KVS nodes, clients and the M-node.
///
/// * The **global hash ring** maps a key to its primary-owner KN.
/// * Each KN's **local hash ring** maps a key to one of the KN's worker
///   threads.
/// * The **replication table** lists the hot keys whose ownership is
///   currently shared, and the set of KNs (primary + secondaries) serving
///   them.
///
/// Every mutation bumps `version`; components cache the table and use the
/// version to detect staleness (clients refresh from a routing node when a KN
/// rejects a request for a key range it no longer owns).
#[derive(Debug, Clone, PartialEq)]
pub struct OwnershipTable {
    global: HashRing,
    locals: HashMap<KnId, HashRing>,
    threads_per_kn: u32,
    replicas: HashMap<Vec<u8>, Vec<KnId>>,
    version: u64,
}

impl OwnershipTable {
    /// Create an empty table. `vnodes` controls ring balance, and
    /// `threads_per_kn` sizes each KN's local ring.
    pub fn new(vnodes: u32, threads_per_kn: u32) -> Self {
        OwnershipTable {
            global: HashRing::new(vnodes),
            locals: HashMap::new(),
            threads_per_kn: threads_per_kn.max(1),
            replicas: HashMap::new(),
            version: 0,
        }
    }

    /// Current metadata version (bumped on every mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of member KNs.
    pub fn num_kns(&self) -> usize {
        self.global.len()
    }

    /// Member KN identifiers.
    pub fn kns(&self) -> &[KnId] {
        self.global.members()
    }

    /// The global ring (read-only view).
    pub fn global_ring(&self) -> &HashRing {
        &self.global
    }

    /// Threads per KN used for local rings.
    pub fn threads_per_kn(&self) -> u32 {
        self.threads_per_kn
    }

    /// Add a KN to the cluster.
    pub fn add_kn(&mut self, kn: KnId) {
        if self.global.contains(kn) {
            return;
        }
        self.global.add_node(kn);
        let mut local = HashRing::new(16);
        for t in 0..self.threads_per_kn {
            local.add_node(t);
        }
        self.locals.insert(kn, local);
        self.version += 1;
    }

    /// Remove a KN from the cluster.  Any replica sets referencing it are
    /// re-filled from the ring's successors so each key keeps its
    /// replication factor (capped by the shrunken cluster size); keys whose
    /// primary owner disappears are re-homed by the ring.
    ///
    /// A membership change must never *silently* collapse a key back to
    /// single ownership: the storage layer keys its write protocol (owned
    /// log-merge vs. shared indirection-cell) off `is_replicated`, and a
    /// silent flip would leave the key's indirection cell installed while
    /// new writes take the owned path — the merge engine then discards
    /// those acknowledged writes as stale shared puts (caught by the
    /// `dinomo-check` history checker under combined membership +
    /// replication churn). Only a cluster shrunk below two nodes can drop
    /// a replica set here, and [`crate::OwnershipTable`]'s consumer (the
    /// KVS control plane) treats that as an explicit dereplication,
    /// dismantling the cell under the same quiescent hand-off it uses for
    /// every other protocol flip.
    pub fn remove_kn(&mut self, kn: KnId) {
        if !self.global.contains(kn) {
            return;
        }
        self.global.remove_node(kn);
        self.locals.remove(&kn);
        let keys: Vec<Vec<u8>> = self.replicas.keys().cloned().collect();
        for key in keys {
            let hash = key_hash(&key);
            let owners = self.replicas.get_mut(&key).expect("key just listed");
            let factor = owners.len();
            owners.retain(|&o| o != kn);
            let want = factor.min(self.global.len());
            if owners.len() < want {
                for candidate in self.global.successors(hash, self.global.len()) {
                    if owners.len() >= want {
                        break;
                    }
                    if !owners.contains(&candidate) {
                        owners.push(candidate);
                    }
                }
            }
        }
        self.replicas.retain(|_, owners| owners.len() > 1);
        self.version += 1;
    }

    /// The primary owner of `key`, if the cluster has any KNs.
    pub fn primary_owner(&self, key: &[u8]) -> Option<KnId> {
        self.global.owner(key_hash(key))
    }

    /// All owners of `key`: just the primary for normal keys, the replica set
    /// for selectively-replicated hot keys.
    pub fn owners(&self, key: &[u8]) -> Vec<KnId> {
        if !self.replicas.is_empty() {
            if let Some(set) = self.replicas.get(key) {
                if !set.is_empty() {
                    return set.clone();
                }
            }
        }
        self.primary_owner(key).into_iter().collect()
    }

    /// `true` if `kn` currently owns `key` (primary or replica).
    pub fn is_owner(&self, kn: KnId, key: &[u8]) -> bool {
        self.owners(key).contains(&kn)
    }

    /// The worker thread responsible for `key` within `kn`.
    pub fn thread_of(&self, kn: KnId, key: &[u8]) -> Option<ThreadId> {
        self.locals
            .get(&kn)
            .and_then(|ring| ring.owner(key_hash(key)))
    }

    /// `kn`'s local (thread) ring. Batched request paths hoist this lookup
    /// out of their per-op loop and resolve threads via
    /// [`HashRing::owner`] on a pre-computed key hash.
    pub fn local_ring(&self, kn: KnId) -> Option<&HashRing> {
        self.locals.get(&kn)
    }

    /// Replication factor of `key` (1 for normal keys).
    pub fn replication_factor(&self, key: &[u8]) -> usize {
        self.replicas.get(key).map_or(1, |s| s.len().max(1))
    }

    /// `true` if `key` is currently selectively replicated.
    ///
    /// The empty-table fast path keeps this off the per-op hashing cost for
    /// the (overwhelmingly common) case of no replicated keys at all.
    pub fn is_replicated(&self, key: &[u8]) -> bool {
        !self.replicas.is_empty() && self.replicas.contains_key(key)
    }

    /// The set of currently replicated keys.
    pub fn replicated_keys(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.replicas.keys()
    }

    /// Share the ownership of `key` across `factor` KNs (primary plus
    /// `factor - 1` secondaries chosen clockwise on the ring).  Returns the
    /// new owner set.  A factor of 1 (or an empty cluster) de-replicates.
    pub fn replicate(&mut self, key: &[u8], factor: usize) -> Vec<KnId> {
        if factor <= 1 || self.global.is_empty() {
            self.dereplicate(key);
            return self.owners(key);
        }
        let owners = self
            .global
            .successors(key_hash(key), factor.min(self.global.len()));
        self.replicas.insert(key.to_vec(), owners.clone());
        self.version += 1;
        owners
    }

    /// Remove selective replication for `key` (its primary keeps ownership).
    pub fn dereplicate(&mut self, key: &[u8]) {
        if self.replicas.remove(key).is_some() {
            self.version += 1;
        }
    }

    /// Pretty name used in logs.
    pub fn describe(&self) -> String {
        format!(
            "{} KNs, {} replicated keys, version {}",
            self.num_kns(),
            self.replicas.len(),
            self.version
        )
    }

    /// The table as the little-endian record persisted in DPM (§3.5):
    ///
    /// ```text
    /// version u64 | vnodes u32 | threads_per_kn u32
    /// | members u32, then each KN id u32, in ring insertion order
    /// | replicated keys u32, then per key (sorted): len u32, bytes,
    ///   owners u32, then each owner u32, in owner-list order
    /// | checksum u64 (key_hash of everything before it)
    /// ```
    ///
    /// Ring positions are not stored: [`OwnershipTable::decode`] rebuilds
    /// both rings from the membership, exactly as [`OwnershipTable::add_kn`]
    /// built them.
    pub fn encode(&self) -> Vec<u8> {
        fn put_u32(out: &mut Vec<u8>, v: u32) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut out = Vec::with_capacity(40);
        out.extend_from_slice(&self.version.to_le_bytes());
        put_u32(&mut out, self.global.vnodes());
        put_u32(&mut out, self.threads_per_kn);
        put_u32(&mut out, self.global.len() as u32);
        for &kn in self.global.members() {
            put_u32(&mut out, kn);
        }
        let mut replicas: Vec<_> = self.replicas.iter().collect();
        replicas.sort_unstable();
        put_u32(&mut out, replicas.len() as u32);
        for (key, owners) in replicas {
            put_u32(&mut out, key.len() as u32);
            out.extend_from_slice(key);
            put_u32(&mut out, owners.len() as u32);
            for &o in owners {
                put_u32(&mut out, o);
            }
        }
        let checksum = key_hash(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Rebuild a table from [`OwnershipTable::encode`]'s record. `None` if
    /// the checksum does not match or the body is malformed; never panics.
    pub fn decode(bytes: &[u8]) -> Option<OwnershipTable> {
        let (body, checksum) = bytes.split_at_checked(bytes.len().checked_sub(8)?)?;
        if key_hash(body) != u64::from_le_bytes(checksum.try_into().ok()?) {
            return None;
        }
        let mut r = Reader(body);
        let version = r.u64()?;
        let vnodes = r.u32()?;
        let mut table = OwnershipTable::new(vnodes, r.u32()?);
        for _ in 0..r.u32()? {
            table.add_kn(r.u32()?);
        }
        for _ in 0..r.u32()? {
            let len = r.u32()? as usize;
            let key = r.take(len)?.to_vec();
            let owners = (0..r.u32()?)
                .map(|_| r.u32())
                .collect::<Option<Vec<KnId>>>()?;
            table.replicas.insert(key, owners);
        }
        table.version = version;
        r.0.is_empty().then_some(table)
    }
}

/// A cursor over [`OwnershipTable::decode`]'s input.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(kns: u32) -> OwnershipTable {
        let mut t = OwnershipTable::new(64, 8);
        for k in 0..kns {
            t.add_kn(k);
        }
        t
    }

    #[test]
    fn add_remove_kns_bumps_version() {
        let mut t = OwnershipTable::new(64, 4);
        assert_eq!(t.version(), 0);
        t.add_kn(0);
        t.add_kn(1);
        assert_eq!(t.version(), 2);
        assert_eq!(t.num_kns(), 2);
        t.add_kn(1); // idempotent, no bump
        assert_eq!(t.version(), 2);
        t.remove_kn(0);
        assert_eq!(t.num_kns(), 1);
        assert_eq!(t.version(), 3);
    }

    #[test]
    fn every_key_has_exactly_one_primary_owner() {
        let t = table_with(5);
        for i in 0..1000u32 {
            let key = format!("user{i:06}").into_bytes();
            let owner = t.primary_owner(&key).unwrap();
            assert!(t.kns().contains(&owner));
            assert_eq!(t.owners(&key), vec![owner]);
            assert!(t.is_owner(owner, &key));
        }
    }

    #[test]
    fn thread_assignment_is_stable_and_in_range() {
        let t = table_with(3);
        for i in 0..200u32 {
            let key = format!("user{i:06}").into_bytes();
            let kn = t.primary_owner(&key).unwrap();
            let th = t.thread_of(kn, &key).unwrap();
            assert!(th < 8);
            assert_eq!(t.thread_of(kn, &key), Some(th));
        }
    }

    #[test]
    fn replication_shares_ownership_across_kns() {
        let mut t = table_with(6);
        let key = b"hotkey".to_vec();
        assert_eq!(t.replication_factor(&key), 1);
        let owners = t.replicate(&key, 4);
        assert_eq!(owners.len(), 4);
        assert_eq!(t.replication_factor(&key), 4);
        assert!(t.is_replicated(&key));
        assert_eq!(owners[0], t.primary_owner(&key).unwrap());
        for o in &owners {
            assert!(t.is_owner(*o, &key));
        }
        // Other keys are unaffected.
        assert_eq!(
            t.owners(b"coldkey"),
            vec![t.primary_owner(b"coldkey").unwrap()]
        );
        t.dereplicate(&key);
        assert!(!t.is_replicated(&key));
        assert_eq!(t.owners(&key).len(), 1);
    }

    #[test]
    fn replication_factor_is_capped_at_cluster_size() {
        let mut t = table_with(3);
        let owners = t.replicate(b"hot", 16);
        assert_eq!(owners.len(), 3);
    }

    #[test]
    fn removing_a_kn_refills_replica_sets_to_their_factor() {
        let mut t = table_with(4);
        let owners = t.replicate(b"hot", 3);
        let victim = owners[1];
        t.remove_kn(victim);
        let new_owners = t.owners(b"hot");
        assert!(!new_owners.contains(&victim));
        // The factor survives the shrink: a successor refills the set, so
        // the key's shared-path protocol is uninterrupted.
        assert_eq!(new_owners.len(), 3);
        assert!(t.is_replicated(b"hot"));
        let distinct: std::collections::BTreeSet<_> = new_owners.iter().collect();
        assert_eq!(distinct.len(), 3, "refill must not duplicate owners");
    }

    #[test]
    fn replication_survives_repeated_shrinks_until_one_node_remains() {
        let mut t = table_with(5);
        t.replicate(b"hot", 3);
        // Shrink 5 → 2: the set tracks the survivors (capped at cluster
        // size) and the key stays replicated.
        for victim in [0u32, 1, 2] {
            t.remove_kn(victim);
            assert!(t.is_replicated(b"hot"), "lost replication at {victim}");
            let owners = t.owners(b"hot");
            assert!(owners.len() >= 2);
            assert!(owners.iter().all(|o| t.kns().contains(o)));
        }
        // Only the final shrink to a single node may collapse the set —
        // the explicit dereplication case the KVS handles with a
        // quiescent hand-off.
        t.remove_kn(3);
        assert!(!t.is_replicated(b"hot"));
        assert_eq!(t.owners(b"hot"), vec![4]);
    }

    #[test]
    fn replicate_factor_one_dereplicates() {
        let mut t = table_with(4);
        t.replicate(b"hot", 3);
        t.replicate(b"hot", 1);
        assert!(!t.is_replicated(b"hot"));
    }

    #[test]
    fn reconfiguration_moves_limited_ownership() {
        let mut t = table_with(8);
        let before: Vec<Option<KnId>> = (0..2000u32)
            .map(|i| t.primary_owner(format!("user{i:06}").as_bytes()))
            .collect();
        t.add_kn(8);
        let mut moved = 0;
        for (i, owner_before) in before.iter().enumerate() {
            let owner_after = t.primary_owner(format!("user{i:06}").as_bytes());
            if owner_after != *owner_before {
                assert_eq!(owner_after, Some(8), "keys may only move to the new KN");
                moved += 1;
            }
        }
        let frac = f64::from(moved) / 2000.0;
        assert!(frac > 0.02 && frac < 0.30, "moved fraction {frac}");
    }

    #[test]
    fn describe_mentions_cluster_shape() {
        let mut t = table_with(2);
        t.replicate(b"h", 2);
        let d = t.describe();
        assert!(d.contains("2 KNs"));
        assert!(d.contains("1 replicated"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The persisted record round-trips any reachable table, and a
        /// truncated or bit-flipped record decodes to `None`.
        #[test]
        fn the_record_round_trips_and_rejects_damage(
            ops in proptest::collection::vec((0u8..4, 0u32..8, 1usize..5), 0..40),
            cut in any::<u64>(),
            bit in any::<u64>(),
        ) {
            let mut t = OwnershipTable::new(16, 4);
            t.add_kn(0);
            t.add_kn(1);
            for (op, arg, factor) in ops {
                let key = format!("key{arg}").into_bytes();
                match op {
                    0 => t.add_kn(arg),
                    1 => t.remove_kn(arg),
                    2 => {
                        t.replicate(&key, factor);
                    }
                    _ => t.dereplicate(&key),
                }
            }
            let bytes = t.encode();
            prop_assert_eq!(OwnershipTable::decode(&bytes), Some(t));
            let cut = (cut % bytes.len() as u64) as usize;
            prop_assert_eq!(OwnershipTable::decode(&bytes[..cut]), None);
            let mut flipped = bytes;
            let bit = (bit % (flipped.len() as u64 * 8)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(OwnershipTable::decode(&flipped), None);
        }
    }
}
