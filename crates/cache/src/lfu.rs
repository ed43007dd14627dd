//! A small LFU-ordered map used for shortcut entries.
//!
//! Eviction removes the entry with the lowest access frequency (ties broken
//! by least-recent insertion), matching the paper's choice of
//! least-frequently-used eviction for shortcuts so that frequently accessed
//! keys survive skewed workloads.

use std::collections::{BTreeMap, HashMap};

#[derive(Debug)]
struct Slot<V> {
    value: V,
    freq: u64,
    tick: u64,
}

/// An LFU-ordered map from byte-string keys to `V`.
#[derive(Debug)]
pub struct LfuMap<V> {
    entries: HashMap<Vec<u8>, Slot<V>>,
    order: BTreeMap<(u64, u64), Vec<u8>>,
    tick: u64,
}

impl<V> Default for LfuMap<V> {
    fn default() -> Self {
        LfuMap {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
        }
    }
}

impl<V> LfuMap<V> {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.entries.contains_key(key)
    }

    /// Access frequency of `key`, if present.
    pub fn frequency(&self, key: &[u8]) -> Option<u64> {
        self.entries.get(key).map(|s| s.freq)
    }

    /// Get without counting an access.
    pub fn peek(&self, key: &[u8]) -> Option<&V> {
        self.entries.get(key).map(|s| &s.value)
    }

    /// Get, counting one access.
    pub fn get(&mut self, key: &[u8]) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.entries.get_mut(key)?;
        self.order.remove(&(slot.freq, slot.tick));
        slot.freq += 1;
        slot.tick = tick;
        self.order.insert((slot.freq, slot.tick), key.to_vec());
        Some(&mut slot.value)
    }

    /// Insert with an initial frequency (used to inherit access history when
    /// a value is demoted to a shortcut). Returns the previous payload.
    pub fn insert_with_frequency(&mut self, key: &[u8], value: V, freq: u64) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let prev = self
            .entries
            .insert(key.to_vec(), Slot { value, freq, tick });
        if let Some(p) = &prev {
            self.order.remove(&(p.freq, p.tick));
        }
        self.order.insert((freq, tick), key.to_vec());
        prev.map(|s| s.value)
    }

    /// Insert with frequency 1.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        self.insert_with_frequency(key, value, 1)
    }

    /// Remove an entry, returning its payload and frequency.
    pub fn remove(&mut self, key: &[u8]) -> Option<(V, u64)> {
        let slot = self.entries.remove(key)?;
        self.order.remove(&(slot.freq, slot.tick));
        Some((slot.value, slot.freq))
    }

    /// The least-frequently-used key.
    pub fn lfu_key(&self) -> Option<&[u8]> {
        self.order.values().next().map(|k| k.as_slice())
    }

    /// Remove and return the least-frequently-used entry with its frequency.
    pub fn pop_lfu(&mut self) -> Option<(Vec<u8>, V, u64)> {
        let (&rank, _) = self.order.iter().next()?;
        let key = self.order.remove(&rank)?;
        let slot = self.entries.remove(&key)?;
        Some((key, slot.value, slot.freq))
    }

    /// Keys with their frequencies in eviction order (ascending frequency,
    /// ties least-recently touched first), lazily and without removing
    /// them: a caller that needs only the first few stops early.
    pub fn by_frequency(&self) -> impl Iterator<Item = (&[u8], u64)> {
        self.order
            .iter()
            .map(|((freq, _), key)| (key.as_slice(), *freq))
    }

    /// Iterate over all `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &V)> {
        self.entries.iter().map(|(k, s)| (k, &s.value))
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
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
