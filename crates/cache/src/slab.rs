//! The storage behind [`LruMap`](crate::lru::LruMap) and
//! [`LfuMap`](crate::lfu::LfuMap): keyed nodes in reusable slots, one
//! `HashMap` from key to slot, and one FIFO list per rank threaded through
//! the nodes by `u32` slot index. The lists' ends sit in a `BTreeMap` from
//! rank to list, so ascending ranks, each list head to tail, is eviction
//! order: lowest rank first, ties least recently (re)ranked first. An LRU
//! keeps every node at rank 0, so its one list is the recency order; an
//! LFU ranks by access frequency. An insert copies the key into its node
//! and into the map; a touch only rewrites indices and copies no key.

use std::collections::{BTreeMap, HashMap};

/// The link at either end of a list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

#[derive(Debug)]
struct Node<V> {
    key: Vec<u8>,
    value: V,
    rank: u64,
    prev: u32,
    next: u32,
}

/// Ranked entries; see the module docs.
#[derive(Debug)]
pub(crate) struct Slab<V> {
    nodes: Vec<Option<Node<V>>>,
    free: Vec<u32>,
    index: HashMap<Vec<u8>, u32>,
    lists: BTreeMap<u64, List>,
}

impl<V> Default for Slab<V> {
    fn default() -> Self {
        Slab {
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            lists: BTreeMap::new(),
        }
    }
}

impl<V> Slab<V> {
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// `key`'s value and rank, leaving its place as it is.
    pub(crate) fn peek(&self, key: &[u8]) -> Option<(&V, u64)> {
        let node = self.node(*self.index.get(key)?);
        Some((&node.value, node.rank))
    }

    /// Raise `key`'s rank by `step` and move it to that list's tail.
    pub(crate) fn touch(&mut self, key: &[u8], step: u64) -> Option<&mut V> {
        let slot = *self.index.get(key)?;
        let rank = self.unlink(slot) + step;
        self.push_back(slot, rank);
        Some(&mut self.node_mut(slot).value)
    }

    /// Insert or replace `key` at the tail of list `rank`. Returns the
    /// previous value.
    pub(crate) fn insert(&mut self, key: &[u8], value: V, rank: u64) -> Option<V> {
        if let Some(&slot) = self.index.get(key) {
            self.unlink(slot);
            self.push_back(slot, rank);
            return Some(std::mem::replace(&mut self.node_mut(slot).value, value));
        }
        let node = Some(Node {
            key: key.to_vec(),
            value,
            rank,
            prev: NIL,
            next: NIL,
        });
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => u32::try_from(self.nodes.len()).expect("fewer than 2^32 entries"),
        };
        match self.nodes.get_mut(slot as usize) {
            Some(free) => *free = node,
            None => self.nodes.push(node),
        }
        self.index.insert(key.to_vec(), slot);
        self.push_back(slot, rank);
        None
    }

    /// Remove `key`, returning its value and rank.
    pub(crate) fn remove(&mut self, key: &[u8]) -> Option<(V, u64)> {
        let (_, value, rank) = self.take(*self.index.get(key)?);
        Some((value, rank))
    }

    /// The key eviction takes next.
    pub(crate) fn first(&self) -> Option<&[u8]> {
        let list = self.lists.values().next()?;
        Some(&self.node(list.head).key)
    }

    /// Remove the entry eviction takes next.
    pub(crate) fn pop_first(&mut self) -> Option<(Vec<u8>, V, u64)> {
        let list = self.lists.values().next()?;
        Some(self.take(list.head))
    }

    /// Keys with their ranks in eviction order, lazily.
    pub(crate) fn ordered(&self) -> impl Iterator<Item = (&[u8], u64)> {
        self.lists.values().flat_map(move |list| {
            std::iter::successors(Some(list.head), move |&slot| {
                Some(self.node(slot).next).filter(|&next| next != NIL)
            })
            .map(move |slot| (&self.node(slot).key[..], self.node(slot).rank))
        })
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &V)> {
        self.nodes.iter().flatten().map(|n| (&n.key, &n.value))
    }

    fn node(&self, slot: u32) -> &Node<V> {
        self.nodes[slot as usize].as_ref().expect("live slot")
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node<V> {
        self.nodes[slot as usize].as_mut().expect("live slot")
    }

    /// Unlink and free `slot`.
    fn take(&mut self, slot: u32) -> (Vec<u8>, V, u64) {
        self.unlink(slot);
        let node = self.nodes[slot as usize].take().expect("live slot");
        self.index.remove(&node.key);
        self.free.push(slot);
        (node.key, node.value, node.rank)
    }

    /// Take `slot` off its rank's list, dropping the list if it empties.
    /// Returns the rank.
    fn unlink(&mut self, slot: u32) -> u64 {
        let Node {
            rank, prev, next, ..
        } = *self.node(slot);
        if prev != NIL {
            self.node_mut(prev).next = next;
        }
        if next != NIL {
            self.node_mut(next).prev = prev;
        }
        let list = self.lists.get_mut(&rank).expect("list of a live node");
        if list.head == slot {
            list.head = next;
        }
        if list.tail == slot {
            list.tail = prev;
        }
        if list.head == NIL {
            self.lists.remove(&rank);
        }
        rank
    }

    /// Give the unlinked `slot` rank `rank` and append it to that list.
    fn push_back(&mut self, slot: u32, rank: u64) {
        let list = self.lists.entry(rank).or_insert(List {
            head: slot,
            tail: NIL,
        });
        let tail = std::mem::replace(&mut list.tail, slot);
        let node = self.node_mut(slot);
        (node.rank, node.prev, node.next) = (rank, tail, NIL);
        if tail != NIL {
            self.node_mut(tail).next = slot;
        }
    }
}
