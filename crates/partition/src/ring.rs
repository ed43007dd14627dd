//! Consistent-hashing ring with virtual nodes.

use crate::hash::vnode_hash;
use std::collections::BTreeMap;

/// A consistent-hashing ring mapping 64-bit positions to node identifiers.
///
/// Each node is placed at `vnodes` pseudo-random positions; a key is owned by
/// the first virtual node clockwise from the key's hash.  Adding or removing
/// one node therefore moves only ~`1/n` of the key space — the property that
/// makes Dinomo's reconfiguration lightweight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    vnodes: u32,
    ring: BTreeMap<u64, u32>,
    members: Vec<u32>,
}

/// A contiguous range of ring positions whose owner changed between two ring
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnershipChange {
    /// First position of the range (inclusive).
    pub start: u64,
    /// Last position of the range (inclusive).
    pub end: u64,
    /// Owner before the change (`None` if the ring was empty).
    pub from: Option<u32>,
    /// Owner after the change (`None` if the ring became empty).
    pub to: Option<u32>,
}

impl HashRing {
    /// Create an empty ring placing each node at `vnodes` positions.
    pub fn new(vnodes: u32) -> Self {
        HashRing {
            vnodes: vnodes.max(1),
            ring: BTreeMap::new(),
            members: Vec::new(),
        }
    }

    /// Positions each node is placed at.
    pub(crate) fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Number of distinct member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member node identifiers, in insertion order.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// `true` if `node` is a member.
    pub fn contains(&self, node: u32) -> bool {
        self.members.contains(&node)
    }

    /// Add a node. No-op if already present.
    pub fn add_node(&mut self, node: u32) {
        if self.contains(node) {
            return;
        }
        self.members.push(node);
        let seed = u64::from(node).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0xA5A5;
        for r in 0..self.vnodes {
            self.ring.insert(vnode_hash(seed, r), node);
        }
    }

    /// Remove a node. No-op if absent.
    pub fn remove_node(&mut self, node: u32) {
        if !self.contains(node) {
            return;
        }
        self.members.retain(|&n| n != node);
        self.ring.retain(|_, &mut n| n != node);
    }

    /// Owner of the given hash position, or `None` if the ring is empty.
    pub fn owner(&self, hash: u64) -> Option<u32> {
        if self.ring.is_empty() {
            return None;
        }
        self.ring
            .range(hash..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(_, &n)| n)
    }

    /// The first `count` *distinct* nodes clockwise from `hash` (primary
    /// first).  Used to pick secondary owners for selective replication.
    pub fn successors(&self, hash: u64, count: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(count.min(self.members.len()));
        if self.ring.is_empty() || count == 0 {
            return out;
        }
        for (_, &n) in self.ring.range(hash..).chain(self.ring.range(..hash)) {
            if !out.contains(&n) {
                out.push(n);
                if out.len() == count || out.len() == self.members.len() {
                    break;
                }
            }
        }
        out
    }

    /// Fraction of 4096 probe positions owned by each member — a cheap proxy
    /// for how balanced the ring is (used in tests and by the policy engine).
    pub fn load_distribution(&self) -> Vec<(u32, f64)> {
        const PROBES: u64 = 4096;
        let mut counts: BTreeMap<u32, u64> = self.members.iter().map(|&m| (m, 0)).collect();
        for i in 0..PROBES {
            let h = i.wrapping_mul(u64::MAX / PROBES);
            if let Some(owner) = self.owner(h) {
                *counts.entry(owner).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .map(|(n, c)| (n, c as f64 / PROBES as f64))
            .collect()
    }

    /// Describe which ranges of the hash space changed owner between `self`
    /// (before) and `after`.  Used to verify that only `~1/n` of the space
    /// moves on membership changes and to drive Dinomo-N's data reshuffling.
    pub fn changes_to(&self, after: &HashRing) -> Vec<OwnershipChange> {
        // Collect all boundary points from both rings.
        let mut points: Vec<u64> = self.ring.keys().chain(after.ring.keys()).copied().collect();
        points.sort_unstable();
        points.dedup();
        if points.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, &start) in points.iter().enumerate() {
            let end = if i + 1 < points.len() {
                points[i + 1] - 1
            } else {
                u64::MAX
            };
            let from = self.owner(start);
            let to = after.owner(start);
            if from != to {
                out.push(OwnershipChange {
                    start,
                    end,
                    from,
                    to,
                });
            }
        }
        // Also the wrap-around range [0, first_point).
        if points[0] > 0 {
            let from = self.owner(0);
            let to = after.owner(0);
            if from != to {
                out.push(OwnershipChange {
                    start: 0,
                    end: points[0] - 1,
                    from,
                    to,
                });
            }
        }
        out
    }

    /// Fraction of the hash space (approximated over the changed ranges) that
    /// changed owner between `self` and `after`.
    pub fn moved_fraction(&self, after: &HashRing) -> f64 {
        let changes = self.changes_to(after);
        let moved: u128 = changes
            .iter()
            .map(|c| u128::from(c.end - c.start) + 1)
            .sum();
        moved as f64 / (u128::from(u64::MAX) + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_hash;

    #[test]
    fn empty_ring_owns_nothing() {
        let r = HashRing::new(16);
        assert!(r.is_empty());
        assert_eq!(r.owner(123), None);
        assert!(r.successors(0, 3).is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let mut r = HashRing::new(16);
        r.add_node(7);
        for i in 0..100u64 {
            assert_eq!(r.owner(key_hash(&i.to_le_bytes())), Some(7));
        }
    }

    #[test]
    fn add_remove_is_idempotent() {
        let mut r = HashRing::new(8);
        r.add_node(1);
        r.add_node(1);
        assert_eq!(r.len(), 1);
        r.remove_node(1);
        r.remove_node(1);
        assert!(r.is_empty());
    }

    #[test]
    fn ownership_is_reasonably_balanced() {
        let mut r = HashRing::new(64);
        for n in 0..8 {
            r.add_node(n);
        }
        let dist = r.load_distribution();
        assert_eq!(dist.len(), 8);
        for (_, frac) in dist {
            assert!(frac > 0.04 && frac < 0.25, "imbalanced: {frac}");
        }
    }

    #[test]
    fn adding_a_node_moves_only_a_fraction_of_the_space() {
        let mut before = HashRing::new(64);
        for n in 0..8 {
            before.add_node(n);
        }
        let mut after = before.clone();
        after.add_node(8);
        let moved = before.moved_fraction(&after);
        // Ideally 1/9 ≈ 0.11; allow generous slack for vnode variance.
        assert!(moved > 0.02 && moved < 0.30, "moved fraction {moved}");
        // All moved ranges must move *to* the new node.
        for c in before.changes_to(&after) {
            assert_eq!(c.to, Some(8));
        }
    }

    #[test]
    fn removing_a_node_reassigns_only_its_ranges() {
        let mut before = HashRing::new(64);
        for n in 0..4 {
            before.add_node(n);
        }
        let mut after = before.clone();
        after.remove_node(2);
        for c in before.changes_to(&after) {
            assert_eq!(c.from, Some(2));
            assert_ne!(c.to, Some(2));
        }
        // Keys not owned by node 2 keep their owner.
        for i in 0..1000u64 {
            let h = key_hash(&i.to_le_bytes());
            if before.owner(h) != Some(2) {
                assert_eq!(before.owner(h), after.owner(h));
            }
        }
    }

    #[test]
    fn successors_are_distinct_and_start_with_owner() {
        let mut r = HashRing::new(32);
        for n in 0..6 {
            r.add_node(n);
        }
        let h = key_hash(b"hotkey");
        let succ = r.successors(h, 4);
        assert_eq!(succ.len(), 4);
        assert_eq!(succ[0], r.owner(h).unwrap());
        let mut dedup = succ.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), succ.len());
        // Asking for more than the membership returns all members.
        assert_eq!(r.successors(h, 100).len(), 6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every hash is owned by exactly one member and that member is in
        /// the membership list.
        #[test]
        fn owner_is_always_a_member(nodes in proptest::collection::btree_set(0u32..64, 1..12),
                                    hashes in proptest::collection::vec(any::<u64>(), 1..50)) {
            let mut r = HashRing::new(32);
            for &n in &nodes {
                r.add_node(n);
            }
            for h in hashes {
                let owner = r.owner(h).unwrap();
                prop_assert!(nodes.contains(&owner));
            }
        }

        /// Removing a node never changes the owner of keys it did not own.
        #[test]
        fn removal_only_affects_the_removed_node(
            nodes in proptest::collection::btree_set(0u32..32, 2..10),
            hashes in proptest::collection::vec(any::<u64>(), 1..100),
        ) {
            let nodes: Vec<u32> = nodes.into_iter().collect();
            let mut before = HashRing::new(32);
            for &n in &nodes {
                before.add_node(n);
            }
            let victim = nodes[0];
            let mut after = before.clone();
            after.remove_node(victim);
            for h in hashes {
                if before.owner(h) != Some(victim) {
                    prop_assert_eq!(before.owner(h), after.owner(h));
                }
            }
        }
    }
}
