//! A small LRU-ordered map used for value entries.
//!
//! Keys are byte strings; each entry carries a caller-defined payload.
//! Entries are nodes of a slab (see the `slab` module), all at rank 0, so
//! they form the slab's one rank-0 list, least-recently used at the head.
//! A touch is one index probe, then it unlinks the node and appends it at
//! the tail; eviction pops the head. Both are `O(1)`, copy no key and never
//! touch the slab's rank tree.

use crate::slab::Slab;

/// An LRU-ordered map from byte-string keys to `V`.
#[derive(Debug)]
pub struct LruMap<V>(Slab<V>);

impl<V> Default for LruMap<V> {
    fn default() -> Self {
        LruMap(Slab::default())
    }
}

impl<V> LruMap<V> {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if `key` is present (does not touch recency).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.0.peek(key).is_some()
    }

    /// Get without touching recency.
    pub fn peek(&self, key: &[u8]) -> Option<&V> {
        self.0.peek(key).map(|(v, _)| v)
    }

    /// Get, marking the entry most-recently used.
    pub fn get(&mut self, key: &[u8]) -> Option<&mut V> {
        self.0.touch(key, 0)
    }

    /// Insert or replace, marking the entry most-recently used. Returns the
    /// previous payload if any.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        self.0.insert(key, value, 0)
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        self.0.remove(key).map(|(v, _)| v)
    }

    /// Key of the least-recently-used entry.
    pub fn lru_key(&self) -> Option<&[u8]> {
        self.0.first()
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(Vec<u8>, V)> {
        self.0.pop_first().map(|(k, v, _)| (k, v))
    }

    /// Iterate over all `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        self.0.iter()
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m = LruMap::new();
        assert!(m.is_empty());
        m.insert(b"a", 1);
        m.insert(b"b", 2);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(b"a"), Some(&mut 1));
        assert_eq!(m.peek(b"b"), Some(&2));
        assert_eq!(m.remove(b"a"), Some(1));
        assert!(!m.contains(b"a"));
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut m = LruMap::new();
        m.insert(b"a", 1);
        m.insert(b"b", 2);
        m.insert(b"c", 3);
        // Touch "a" so "b" becomes LRU.
        m.get(b"a");
        assert_eq!(m.lru_key(), Some(b"b".as_slice()));
        assert_eq!(m.pop_lru(), Some((b"b".to_vec(), 2)));
        assert_eq!(m.pop_lru(), Some((b"c".to_vec(), 3)));
        assert_eq!(m.pop_lru(), Some((b"a".to_vec(), 1)));
        assert_eq!(m.pop_lru(), None);
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut m = LruMap::new();
        m.insert(b"a", 1);
        m.insert(b"b", 2);
        assert_eq!(m.insert(b"a", 10), Some(1));
        assert_eq!(m.lru_key(), Some(b"b".as_slice()));
        assert_eq!(m.peek(b"a"), Some(&10));
    }

    #[test]
    fn clear_empties_both_structures() {
        let mut m = LruMap::new();
        m.insert(b"a", 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.pop_lru(), None);
    }
}

#[cfg(test)]
mod model {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// The `BTreeMap`-of-ticks map the slab replaced: the reference every
    /// eviction order is checked against.
    #[derive(Default)]
    struct TickLru {
        entries: HashMap<Vec<u8>, (u32, u64)>,
        order: BTreeMap<u64, Vec<u8>>,
        tick: u64,
    }

    impl TickLru {
        fn get(&mut self, key: &[u8]) -> Option<u32> {
            self.tick += 1;
            let (v, old_tick) = self.entries.get_mut(key)?;
            self.order.remove(old_tick);
            self.order.insert(self.tick, key.to_vec());
            *old_tick = self.tick;
            Some(*v)
        }

        fn insert(&mut self, key: &[u8], value: u32) -> Option<u32> {
            self.tick += 1;
            let prev = self.entries.insert(key.to_vec(), (value, self.tick));
            if let Some((_, old_tick)) = &prev {
                self.order.remove(old_tick);
            }
            self.order.insert(self.tick, key.to_vec());
            prev.map(|(v, _)| v)
        }

        fn remove(&mut self, key: &[u8]) -> Option<u32> {
            let (v, tick) = self.entries.remove(key)?;
            self.order.remove(&tick);
            Some(v)
        }

        fn pop_lru(&mut self) -> Option<(Vec<u8>, u32)> {
            let (_, key) = self.order.pop_first()?;
            let (v, _) = self.entries.remove(&key)?;
            Some((key, v))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any mix of operations the slab map returns what the tick
        /// map returns and holds the same entries with the same LRU key.
        #[test]
        fn the_slab_lru_agrees_with_the_tick_model(
            ops in proptest::collection::vec((0u8..7, 0u8..12, 0u32..1_000), 1..300),
        ) {
            let mut m = LruMap::new();
            let mut r = TickLru::default();
            for (op, k, v) in ops {
                let key = [k];
                match op {
                    0 | 1 => prop_assert_eq!(m.insert(&key, v), r.insert(&key, v)),
                    2 => prop_assert_eq!(m.get(&key).copied(), r.get(&key)),
                    3 => prop_assert_eq!(m.peek(&key).copied(), r.entries.get(&key[..]).map(|e| e.0)),
                    4 => prop_assert_eq!(m.remove(&key), r.remove(&key)),
                    5 => prop_assert_eq!(m.pop_lru(), r.pop_lru()),
                    _ if v % 16 == 0 => {
                        m.clear();
                        r = TickLru::default();
                    }
                    _ => prop_assert_eq!(m.contains(&key), r.entries.contains_key(&key[..])),
                }
                prop_assert_eq!(m.len(), r.entries.len());
                prop_assert_eq!(m.lru_key(), r.order.values().next().map(Vec::as_slice));
                let entries: BTreeMap<Vec<u8>, u32> =
                    m.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
                let expected: BTreeMap<Vec<u8>, u32> =
                    r.entries.iter().map(|(k, e)| (k.clone(), e.0)).collect();
                prop_assert_eq!(entries, expected);
            }
        }

        /// The same agreement when inline and spilled keys share one map:
        /// key `k` is `k` repeated to one of the lengths around the slab's
        /// 16-byte inline limit.
        #[test]
        fn the_slab_lru_agrees_with_the_tick_model_across_key_lengths(
            ops in proptest::collection::vec((0u8..7, 0u8..14, 0u32..1_000), 1..300),
        ) {
            let mut m = LruMap::new();
            let mut r = TickLru::default();
            for (op, k, v) in ops {
                let key = vec![k; [0, 1, 8, 15, 16, 17, 40][usize::from(k) % 7]];
                match op {
                    0 | 1 => prop_assert_eq!(m.insert(&key, v), r.insert(&key, v)),
                    2 => prop_assert_eq!(m.get(&key).copied(), r.get(&key)),
                    3 => prop_assert_eq!(m.peek(&key).copied(), r.entries.get(&key).map(|e| e.0)),
                    4 => prop_assert_eq!(m.remove(&key), r.remove(&key)),
                    5 => prop_assert_eq!(m.pop_lru(), r.pop_lru()),
                    _ if v % 16 == 0 => {
                        m.clear();
                        r = TickLru::default();
                    }
                    _ => prop_assert_eq!(m.contains(&key), r.entries.contains_key(&key)),
                }
                prop_assert_eq!(m.len(), r.entries.len());
                prop_assert_eq!(m.lru_key(), r.order.values().next().map(Vec::as_slice));
                let entries: BTreeMap<Vec<u8>, u32> =
                    m.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
                let expected: BTreeMap<Vec<u8>, u32> =
                    r.entries.iter().map(|(k, e)| (k.clone(), e.0)).collect();
                prop_assert_eq!(entries, expected);
            }
        }
    }
}
