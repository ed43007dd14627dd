//! The storage behind [`LruMap`](crate::lru::LruMap) and
//! [`LfuMap`](crate::lfu::LfuMap): keyed nodes in reusable slots, one
//! `HashMap` from key to slot, and one FIFO list per rank threaded through
//! the nodes by `u32` slot index. Ascending ranks, each list head to tail,
//! is eviction order: lowest rank first, ties least recently (re)ranked
//! first. The rank-0 list has a field of its own and ranks from 1 up keep
//! their lists' ends in a `BTreeMap`, so an LRU, which keeps every node at
//! rank 0, never touches the tree; an LFU ranks by access frequency.
//!
//! A touch is one probe of the index: keys of up to [`INLINE`] bytes sit
//! inline in the index entry and in the node (longer ones spill to a
//! `Box<[u8]>`), and the index hashes with [`FoldHasher`], so a short key
//! is hashed, found and compared without a heap read. Keys come from
//! clients, so each map seeds its hasher at random, as the standard
//! `RandomState` would: which keys collide is not fixed by the code. A
//! touch then only rewrites slot indices; an insert of a short key
//! allocates nothing once the slots and the index have grown to the map's
//! size.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash, Hasher};

/// The link at either end of a list.
const NIL: u32 = u32::MAX;

/// Keys up to this many bytes are stored inline.
const INLINE: usize = 16;

/// A key stored inline when short, spilled to the heap when long.
#[derive(Debug, Clone)]
enum Key {
    Inline { len: u8, bytes: [u8; INLINE] },
    Spilled(Box<[u8]>),
}

impl Key {
    fn new(key: &[u8]) -> Self {
        if key.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..key.len()].copy_from_slice(key);
            Key::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            Key::Spilled(key.into())
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Key::Spilled(bytes) => bytes,
        }
    }

    fn into_vec(self) -> Vec<u8> {
        match self {
            Key::Inline { .. } => self.as_slice().to_vec(),
            Key::Spilled(bytes) => bytes.into_vec(),
        }
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Key {
    /// Hashes as the `[u8]` it borrows as, which the index probes with.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

/// The index's hasher: each 8-byte word is XORed into the state, which
/// is then multiplied by an odd constant into 128 bits and folded back to
/// 64 (high ^ low). The fold matters: a multiply-only hash (Fx) keeps
/// only the low bits of the product, in which the high bytes of a word
/// never reach the low bits of the hash, and big-endian integer keys differ
/// only in their high bytes.
#[derive(Debug)]
struct FoldHasher(u64);

impl FoldHasher {
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(Self::MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FoldHasher`]s that start from one seed.
#[derive(Debug, Clone, Copy)]
struct FoldState(u64);

impl FoldState {
    fn random() -> Self {
        FoldState(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

#[derive(Debug)]
struct Node<V> {
    key: Key,
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
    index: HashMap<Key, u32, FoldState>,
    /// The rank-0 list ([`List::EMPTY`] when it has no node).
    zero: List,
    /// The lists of ranks 1 and up; an empty list is removed.
    lists: BTreeMap<u64, List>,
}

impl<V> Default for Slab<V> {
    fn default() -> Self {
        Slab {
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::with_hasher(FoldState::random()),
            zero: List::EMPTY,
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
        let key = Key::new(key);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => u32::try_from(self.nodes.len()).expect("fewer than 2^32 entries"),
        };
        self.index.insert(key.clone(), slot);
        let node = Some(Node {
            key,
            value,
            rank,
            prev: NIL,
            next: NIL,
        });
        match self.nodes.get_mut(slot as usize) {
            Some(free) => *free = node,
            None => self.nodes.push(node),
        }
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
        let list = self.lists().next()?;
        Some(self.node(list.head).key.as_slice())
    }

    /// Remove the entry eviction takes next.
    pub(crate) fn pop_first(&mut self) -> Option<(Vec<u8>, V, u64)> {
        let head = self.lists().next()?.head;
        let (key, value, rank) = self.take(head);
        Some((key.into_vec(), value, rank))
    }

    /// Keys with their ranks in eviction order, lazily.
    pub(crate) fn ordered(&self) -> impl Iterator<Item = (&[u8], u64)> {
        self.lists().flat_map(move |list| {
            std::iter::successors(Some(list.head), move |&slot| {
                Some(self.node(slot).next).filter(|&next| next != NIL)
            })
            .map(move |slot| (self.node(slot).key.as_slice(), self.node(slot).rank))
        })
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        self.nodes
            .iter()
            .flatten()
            .map(|n| (n.key.as_slice(), &n.value))
    }

    /// The non-empty lists in ascending rank.
    fn lists(&self) -> impl Iterator<Item = &List> {
        let zero = (self.zero.head != NIL).then_some(&self.zero);
        zero.into_iter().chain(self.lists.values())
    }

    /// List `rank`, created empty if it has no node.
    fn list_mut(&mut self, rank: u64) -> &mut List {
        match rank {
            0 => &mut self.zero,
            _ => self.lists.entry(rank).or_insert(List::EMPTY),
        }
    }

    fn node(&self, slot: u32) -> &Node<V> {
        self.nodes[slot as usize].as_ref().expect("live slot")
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node<V> {
        self.nodes[slot as usize].as_mut().expect("live slot")
    }

    /// Unlink and free `slot`.
    fn take(&mut self, slot: u32) -> (Key, V, u64) {
        self.unlink(slot);
        let node = self.nodes[slot as usize].take().expect("live slot");
        self.index.remove(node.key.as_slice());
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
        let list = self.list_mut(rank);
        if list.head == slot {
            list.head = next;
        }
        if list.tail == slot {
            list.tail = prev;
        }
        if list.head == NIL && rank != 0 {
            self.lists.remove(&rank);
        }
        rank
    }

    /// Give the unlinked `slot` rank `rank` and append it to that list.
    fn push_back(&mut self, slot: u32, rank: u64) {
        let list = self.list_mut(rank);
        let tail = std::mem::replace(&mut list.tail, slot);
        if tail == NIL {
            list.head = slot;
        }
        let node = self.node_mut(slot);
        (node.rank, node.prev, node.next) = (rank, tail, NIL);
        if tail != NIL {
            self.node_mut(tail).next = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `e2e` keys are big-endian `u64`s, which differ only in their high
    /// bytes; the index's buckets are picked by the hash's low bits, so
    /// those must spread. A multiply-only hash leaves all 65,536 keys on
    /// one low-16-bit value; a random function would give about 41,400.
    #[test]
    fn big_endian_integer_keys_spread_over_the_low_bits() {
        for seed in [0, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
            let state = FoldState(seed);
            let low: HashSet<u16> = (0..65_536u64)
                .map(|id| state.hash_one(id.to_be_bytes().as_slice()) as u16)
                .collect();
            assert!(
                low.len() >= 40_000,
                "seed {seed:#x}: {} distinct low-16-bit values",
                low.len()
            );
        }
    }

    #[test]
    fn keys_inline_up_to_sixteen_bytes_and_spill_beyond() {
        for len in [0, 1, 8, 15, 16, 17, 40] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let key = Key::new(&bytes);
            assert_eq!(matches!(key, Key::Inline { .. }), len <= INLINE);
            assert_eq!(key.as_slice(), bytes.as_slice());
            assert_eq!(key.into_vec(), bytes);
        }
    }
}
