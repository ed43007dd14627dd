//! A small LFU-ordered map used for shortcut entries.
//!
//! Eviction removes the entry with the lowest access frequency (ties broken
//! by least-recent touch), matching the paper's choice of
//! least-frequently-used eviction for shortcuts so that frequently accessed
//! keys survive skewed workloads.
//!
//! Entries are slab nodes (see the `slab` module) ranked by frequency: one
//! FIFO list per frequency, those of frequencies 1 and up kept in a
//! `BTreeMap`, since a demoted value or a local write enters at an
//! inherited, arbitrary frequency. A touch is one index probe, then it
//! moves the node to the tail of list `freq + 1` in `O(log b)` for `b`
//! distinct frequencies; it copies no key (the tree may split a node for a
//! new list).

use crate::slab::Slab;

/// An LFU-ordered map from byte-string keys to `V`.
#[derive(Debug)]
pub struct LfuMap<V>(Slab<V>);

impl<V> Default for LfuMap<V> {
    fn default() -> Self {
        LfuMap(Slab::default())
    }
}

impl<V> LfuMap<V> {
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

    /// `true` if `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.0.peek(key).is_some()
    }

    /// Access frequency of `key`, if present.
    pub fn frequency(&self, key: &[u8]) -> Option<u64> {
        self.0.peek(key).map(|(_, freq)| freq)
    }

    /// Get without counting an access.
    pub fn peek(&self, key: &[u8]) -> Option<&V> {
        self.0.peek(key).map(|(v, _)| v)
    }

    /// Get, counting one access.
    pub fn get(&mut self, key: &[u8]) -> Option<&mut V> {
        self.0.touch(key, 1)
    }

    /// Insert with an initial frequency (used to inherit access history when
    /// a value is demoted to a shortcut). Returns the previous payload.
    pub fn insert_with_frequency(&mut self, key: &[u8], value: V, freq: u64) -> Option<V> {
        self.0.insert(key, value, freq)
    }

    /// Insert with frequency 1.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        self.insert_with_frequency(key, value, 1)
    }

    /// Remove an entry, returning its payload and frequency.
    pub fn remove(&mut self, key: &[u8]) -> Option<(V, u64)> {
        self.0.remove(key)
    }

    /// The least-frequently-used key.
    pub fn lfu_key(&self) -> Option<&[u8]> {
        self.0.first()
    }

    /// Remove and return the least-frequently-used entry with its frequency.
    pub fn pop_lfu(&mut self) -> Option<(Vec<u8>, V, u64)> {
        self.0.pop_first()
    }

    /// Keys with their frequencies in eviction order (ascending frequency,
    /// ties least-recently touched first), lazily and without removing
    /// them: a caller that needs only the first few stops early.
    pub fn by_frequency(&self) -> impl Iterator<Item = (&[u8], u64)> {
        self.0.ordered()
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
    fn eviction_order_is_lfu() {
        let mut m = LfuMap::new();
        m.insert(b"a", 1);
        m.insert(b"b", 2);
        m.insert(b"c", 3);
        // Access a twice, b once.
        m.get(b"a");
        m.get(b"a");
        m.get(b"b");
        assert_eq!(m.lfu_key(), Some(b"c".as_slice()));
        let (k, v, f) = m.pop_lfu().unwrap();
        assert_eq!((k.as_slice(), v, f), (b"c".as_slice(), 3, 1));
        let (k, _, _) = m.pop_lfu().unwrap();
        assert_eq!(k, b"b".to_vec());
    }

    #[test]
    fn frequency_inheritance() {
        let mut m = LfuMap::new();
        m.insert_with_frequency(b"hot", 1, 100);
        m.insert(b"cold", 2);
        assert_eq!(m.frequency(b"hot"), Some(100));
        assert_eq!(m.lfu_key(), Some(b"cold".as_slice()));
    }

    #[test]
    fn least_frequent_listing() {
        let mut m = LfuMap::new();
        for (k, n) in [(b"a", 5), (b"b", 1), (b"c", 3), (b"d", 3)] {
            m.insert_with_frequency(k, 0, n);
        }
        let lf: Vec<_> = m.by_frequency().take(3).collect();
        assert_eq!(lf[0], (b"b".as_slice(), 1));
        // Equal frequencies: the earlier-inserted key comes first.
        assert_eq!(lf[1], (b"c".as_slice(), 3));
        assert_eq!(lf[2], (b"d".as_slice(), 3));
        assert_eq!(m.by_frequency().count(), 4);
        assert_eq!(m.by_frequency().next().map(|(k, _)| k), m.lfu_key());
    }

    #[test]
    fn remove_and_reinsert() {
        let mut m = LfuMap::new();
        m.insert(b"a", 7);
        m.get(b"a");
        let (v, f) = m.remove(b"a").unwrap();
        assert_eq!((v, f), (7, 2));
        assert!(m.is_empty());
        assert!(m.remove(b"a").is_none());
    }
}

#[cfg(test)]
mod model {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// The `(freq, tick)`-ordered map the buckets replaced: the reference
    /// every eviction order is checked against.
    #[derive(Default)]
    struct TickLfu {
        entries: HashMap<Vec<u8>, (u32, u64, u64)>,
        order: BTreeMap<(u64, u64), Vec<u8>>,
        tick: u64,
    }

    impl TickLfu {
        fn get(&mut self, key: &[u8]) -> Option<u32> {
            self.tick += 1;
            let (v, freq, tick) = self.entries.get_mut(key)?;
            self.order.remove(&(*freq, *tick));
            *freq += 1;
            *tick = self.tick;
            self.order.insert((*freq, *tick), key.to_vec());
            Some(*v)
        }

        fn insert_with_frequency(&mut self, key: &[u8], value: u32, freq: u64) -> Option<u32> {
            self.tick += 1;
            let prev = self.entries.insert(key.to_vec(), (value, freq, self.tick));
            if let Some((_, f, t)) = prev {
                self.order.remove(&(f, t));
            }
            self.order.insert((freq, self.tick), key.to_vec());
            prev.map(|p| p.0)
        }

        fn remove(&mut self, key: &[u8]) -> Option<(u32, u64)> {
            let (v, freq, tick) = self.entries.remove(key)?;
            self.order.remove(&(freq, tick));
            Some((v, freq))
        }

        fn pop_lfu(&mut self) -> Option<(Vec<u8>, u32, u64)> {
            let (_, key) = self.order.pop_first()?;
            let (v, freq, _) = self.entries.remove(&key)?;
            Some((key, v, freq))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any mix of operations the bucket map returns what the
        /// `(freq, tick)` map returns, and its whole eviction order is the
        /// same: ascending frequency, ties least-recently touched first.
        #[test]
        fn the_bucket_lfu_agrees_with_the_tick_model(
            ops in proptest::collection::vec((0u8..6, 0u8..12, 0u64..6), 1..300),
        ) {
            let mut m = LfuMap::new();
            let mut r = TickLfu::default();
            for (n, (op, k, freq)) in ops.into_iter().enumerate() {
                let key = [k];
                let v = n as u32;
                match op {
                    0 | 1 => prop_assert_eq!(
                        m.insert_with_frequency(&key, v, freq),
                        r.insert_with_frequency(&key, v, freq)
                    ),
                    2 => prop_assert_eq!(m.get(&key).copied(), r.get(&key)),
                    3 => prop_assert_eq!(m.remove(&key), r.remove(&key)),
                    4 => prop_assert_eq!(m.pop_lfu(), r.pop_lfu()),
                    _ if freq == 0 => {
                        m.clear();
                        r = TickLfu::default();
                    }
                    _ => prop_assert_eq!(m.peek(&key).copied(), r.entries.get(&key[..]).map(|e| e.0)),
                }
                prop_assert_eq!(m.len(), r.entries.len());
                prop_assert_eq!(m.lfu_key(), r.order.values().next().map(Vec::as_slice));
                prop_assert_eq!(m.frequency(&key), r.entries.get(&key[..]).map(|e| e.1));
                let entries: BTreeMap<Vec<u8>, u32> =
                    m.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
                let expected: BTreeMap<Vec<u8>, u32> =
                    r.entries.iter().map(|(k, e)| (k.clone(), e.0)).collect();
                prop_assert_eq!(entries, expected);
                let order: Vec<(&[u8], u64)> = m.by_frequency().collect();
                let expected: Vec<(&[u8], u64)> =
                    r.order.iter().map(|(&(f, _), k)| (k.as_slice(), f)).collect();
                prop_assert_eq!(order, expected);
            }
        }

        /// The same agreement when inline and spilled keys share one map:
        /// key `k` is `k` repeated to one of the lengths around the slab's
        /// 16-byte inline limit.
        #[test]
        fn the_bucket_lfu_agrees_with_the_tick_model_across_key_lengths(
            ops in proptest::collection::vec((0u8..6, 0u8..14, 0u64..6), 1..300),
        ) {
            let mut m = LfuMap::new();
            let mut r = TickLfu::default();
            for (n, (op, k, freq)) in ops.into_iter().enumerate() {
                let key = vec![k; [0, 1, 8, 15, 16, 17, 40][usize::from(k) % 7]];
                let v = n as u32;
                match op {
                    0 | 1 => prop_assert_eq!(
                        m.insert_with_frequency(&key, v, freq),
                        r.insert_with_frequency(&key, v, freq)
                    ),
                    2 => prop_assert_eq!(m.get(&key).copied(), r.get(&key)),
                    3 => prop_assert_eq!(m.remove(&key), r.remove(&key)),
                    4 => prop_assert_eq!(m.pop_lfu(), r.pop_lfu()),
                    _ if freq == 0 => {
                        m.clear();
                        r = TickLfu::default();
                    }
                    _ => prop_assert_eq!(m.peek(&key).copied(), r.entries.get(&key).map(|e| e.0)),
                }
                prop_assert_eq!(m.len(), r.entries.len());
                prop_assert_eq!(m.lfu_key(), r.order.values().next().map(Vec::as_slice));
                prop_assert_eq!(m.frequency(&key), r.entries.get(&key).map(|e| e.1));
                let entries: BTreeMap<Vec<u8>, u32> =
                    m.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
                let expected: BTreeMap<Vec<u8>, u32> =
                    r.entries.iter().map(|(k, e)| (k.clone(), e.0)).collect();
                prop_assert_eq!(entries, expected);
                let order: Vec<(&[u8], u64)> = m.by_frequency().collect();
                let expected: Vec<(&[u8], u64)> =
                    r.order.iter().map(|(&(f, _), k)| (k.as_slice(), f)).collect();
                prop_assert_eq!(order, expected);
            }
        }
    }
}
