//! Non-adaptive comparison policies: no cache, shortcut-only, value-only and
//! the Static-X% split (Figure 3 / Table 5 of the paper).
//!
//! All non-DAC policies use LRU eviction within each region, matching the
//! paper's experimental setup ("All non-DAC policies use LRU to evict
//! entries").

use crate::lru::LruMap;
use crate::policy::{shortcut_weight, value_weight, CacheLookup, CacheStats, KnCache, ValueLoc};

/// A cache that never caches anything (the `NoCache` baseline).
#[derive(Debug, Default)]
pub struct NoCache {
    stats: CacheStats,
}

impl KnCache for NoCache {
    fn name(&self) -> &'static str {
        "no-cache"
    }

    fn lookup(&mut self, _key: &[u8]) -> CacheLookup {
        self.stats.misses += 1;
        CacheLookup::Miss
    }

    fn admit_value(&mut self, _key: &[u8], _value: &[u8], _loc: ValueLoc) {}
    fn admit_shortcut(&mut self, _key: &[u8], _loc: ValueLoc) {}
    fn on_local_write(&mut self, _key: &[u8], _value: &[u8], _loc: ValueLoc) {}
    fn invalidate(&mut self, _key: &[u8]) {}
    fn record_miss_cost(&mut self, _rts: u32) {}
    fn clear(&mut self) -> Box<dyn Send> {
        Box::new(())
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn capacity_bytes(&self) -> usize {
        0
    }

    fn set_capacity_bytes(&mut self, _capacity: usize) {}
}

#[derive(Debug, Clone)]
struct ValueEntry {
    data: Vec<u8>,
    #[allow(dead_code)]
    loc: ValueLoc,
}

/// A cache that statically reserves `value_fraction` of its byte budget for
/// values and the remainder for shortcuts.
///
/// * `value_fraction = 0.0` is the **shortcut-only** policy (the paper's
///   Dinomo-S);
/// * `value_fraction = 1.0` is the **value-only** policy;
/// * intermediate fractions are the paper's Static-20/40/80 policies.
#[derive(Debug)]
pub struct StaticCache {
    values: LruMap<ValueEntry>,
    shortcuts: LruMap<ValueLoc>,
    capacity: usize,
    value_capacity: usize,
    shortcut_capacity: usize,
    value_used: usize,
    shortcut_used: usize,
    value_fraction: f64,
    /// Event counters; [`KnCache::stats`] adds the live occupancy.
    stats: CacheStats,
}

impl StaticCache {
    /// Create a static-split cache with the given byte budget and value
    /// fraction in `[0, 1]`.
    pub fn new(capacity_bytes: usize, value_fraction: f64) -> Self {
        let f = value_fraction.clamp(0.0, 1.0);
        let value_capacity = (capacity_bytes as f64 * f) as usize;
        StaticCache {
            values: LruMap::new(),
            shortcuts: LruMap::new(),
            capacity: capacity_bytes,
            value_capacity,
            shortcut_capacity: capacity_bytes - value_capacity,
            value_used: 0,
            shortcut_used: 0,
            value_fraction: f,
            stats: CacheStats::default(),
        }
    }

    /// The configured value fraction.
    pub fn value_fraction(&self) -> f64 {
        self.value_fraction
    }

    /// Evict LRU values until at most `limit` bytes of them remain.
    fn evict_values_to(&mut self, limit: usize) {
        while self.value_used > limit {
            let Some((k, e)) = self.values.pop_lru() else {
                return;
            };
            self.value_used -= value_weight(&k, e.data.len());
            self.stats.evictions += 1;
        }
    }

    /// Evict LRU shortcuts until at most `limit` bytes of them remain.
    fn evict_shortcuts_to(&mut self, limit: usize) {
        while self.shortcut_used > limit {
            let Some((k, _)) = self.shortcuts.pop_lru() else {
                return;
            };
            self.shortcut_used -= shortcut_weight(&k);
            self.stats.evictions += 1;
        }
    }

    fn insert_value(&mut self, key: &[u8], value: &[u8], loc: ValueLoc) {
        // Drop the key's older value first, even if the new one cannot fit.
        if let Some(prev) = self.values.remove(key) {
            self.value_used -= value_weight(key, prev.data.len());
        }
        let w = value_weight(key, value.len());
        if w > self.value_capacity {
            return;
        }
        self.evict_values_to(self.value_capacity - w);
        self.values.insert(
            key,
            ValueEntry {
                data: value.to_vec(),
                loc,
            },
        );
        self.value_used += w;
    }

    fn insert_shortcut(&mut self, key: &[u8], loc: ValueLoc) {
        let w = shortcut_weight(key);
        if w > self.shortcut_capacity {
            return;
        }
        if self.shortcuts.remove(key).is_some() {
            self.shortcut_used -= w;
        }
        self.evict_shortcuts_to(self.shortcut_capacity - w);
        self.shortcuts.insert(key, loc);
        self.shortcut_used += w;
    }
}

impl KnCache for StaticCache {
    fn name(&self) -> &'static str {
        if self.value_fraction == 0.0 {
            "shortcut-only"
        } else if self.value_fraction >= 1.0 {
            "value-only"
        } else {
            "static"
        }
    }

    fn lookup(&mut self, key: &[u8]) -> CacheLookup {
        if let Some(entry) = self.values.get(key) {
            let data = entry.data.clone();
            self.stats.value_hits += 1;
            return CacheLookup::Value(data);
        }
        if let Some(loc) = self.shortcuts.get(key) {
            let loc = *loc;
            self.stats.shortcut_hits += 1;
            return CacheLookup::Shortcut(loc);
        }
        self.stats.misses += 1;
        CacheLookup::Miss
    }

    fn admit_value(&mut self, key: &[u8], value: &[u8], loc: ValueLoc) {
        // Prefer the value region when it exists; also learn the shortcut so
        // that an eventual value-region eviction still leaves a 1-RT path.
        if self.value_capacity > 0 {
            self.insert_value(key, value, loc);
        }
        if self.shortcut_capacity > 0 {
            self.insert_shortcut(key, loc);
        }
    }

    fn admit_shortcut(&mut self, key: &[u8], loc: ValueLoc) {
        if self.shortcut_capacity > 0 {
            self.insert_shortcut(key, loc);
        }
    }

    fn on_local_write(&mut self, key: &[u8], value: &[u8], loc: ValueLoc) {
        self.admit_value(key, value, loc);
        // Location moved: a stale shortcut would point at the old version.
        if self.values.contains(key) {
            if self.shortcuts.remove(key).is_some() {
                self.shortcut_used -= shortcut_weight(key);
            }
        } else if self.shortcut_capacity > 0 {
            self.insert_shortcut(key, loc);
        }
    }

    fn invalidate(&mut self, key: &[u8]) {
        if let Some(e) = self.values.remove(key) {
            self.value_used -= value_weight(key, e.data.len());
        }
        if self.shortcuts.remove(key).is_some() {
            self.shortcut_used -= shortcut_weight(key);
        }
    }

    fn record_miss_cost(&mut self, _rts: u32) {}

    fn clear(&mut self) -> Box<dyn Send> {
        let entries = (
            std::mem::take(&mut self.values),
            std::mem::take(&mut self.shortcuts),
        );
        self.value_used = 0;
        self.shortcut_used = 0;
        Box::new(entries)
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_used: (self.value_used + self.shortcut_used) as u64,
            capacity_bytes: self.capacity as u64,
            value_entries: self.values.len() as u64,
            shortcut_entries: self.shortcuts.len() as u64,
            ..self.stats
        }
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    fn set_capacity_bytes(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.value_capacity = (capacity as f64 * self.value_fraction) as usize;
        self.shortcut_capacity = capacity - self.value_capacity;
        self.evict_values_to(self.value_capacity);
        self.evict_shortcuts_to(self.shortcut_capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(i: u64) -> ValueLoc {
        ValueLoc::new(i, 64)
    }

    #[test]
    fn no_cache_always_misses() {
        let mut c = NoCache::default();
        c.admit_value(b"a", &[1; 10], loc(1));
        assert_eq!(c.lookup(b"a"), CacheLookup::Miss);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.capacity_bytes(), 0);
    }

    #[test]
    fn shortcut_only_never_stores_values() {
        let mut c = StaticCache::new(10_000, 0.0);
        c.admit_value(b"a", &[1; 100], loc(1));
        match c.lookup(b"a") {
            CacheLookup::Shortcut(l) => assert_eq!(l, loc(1)),
            other => panic!("expected shortcut hit, got {other:?}"),
        }
        assert_eq!(c.stats().value_entries, 0);
        assert_eq!(c.name(), "shortcut-only");
    }

    #[test]
    fn value_only_never_stores_shortcuts() {
        let mut c = StaticCache::new(10_000, 1.0);
        c.admit_shortcut(b"a", loc(1));
        assert_eq!(c.lookup(b"a"), CacheLookup::Miss);
        c.admit_value(b"b", &[2; 100], loc(2));
        assert!(matches!(c.lookup(b"b"), CacheLookup::Value(_)));
        assert_eq!(c.stats().shortcut_entries, 0);
        assert_eq!(c.name(), "value-only");
    }

    #[test]
    fn static_split_respects_both_budgets() {
        let mut c = StaticCache::new(2_000, 0.5);
        for i in 0..100u32 {
            let key = format!("key{i:04}").into_bytes();
            c.admit_value(&key, &[1u8; 80], loc(u64::from(i)));
        }
        let s = c.stats();
        assert!(s.bytes_used <= 2_000);
        assert!(s.value_entries > 0);
        assert!(s.shortcut_entries > 0);
        assert_eq!(c.name(), "static");
    }

    #[test]
    fn lru_eviction_in_value_region() {
        // Room for roughly two 100-byte values.
        let mut c = StaticCache::new(300, 1.0);
        c.admit_value(b"a", &[1; 100], loc(1));
        c.admit_value(b"b", &[2; 100], loc(2));
        c.lookup(b"a"); // a is now MRU
        c.admit_value(b"c", &[3; 100], loc(3));
        assert!(matches!(c.lookup(b"a"), CacheLookup::Value(_)));
        assert_eq!(
            c.lookup(b"b"),
            CacheLookup::Miss,
            "LRU entry should have been evicted"
        );
    }

    #[test]
    fn local_write_drops_stale_shortcut() {
        let mut c = StaticCache::new(10_000, 0.5);
        c.admit_shortcut(b"a", loc(1));
        c.on_local_write(b"a", &[9; 50], loc(2));
        match c.lookup(b"a") {
            CacheLookup::Value(v) => assert_eq!(v, vec![9; 50]),
            CacheLookup::Shortcut(l) => assert_eq!(l, loc(2), "stale shortcut survived"),
            CacheLookup::Miss => panic!("expected a hit"),
        }
    }

    #[test]
    fn an_oversized_local_write_leaves_no_older_value() {
        // A 500-byte value region: the second write cannot be a value.
        let mut c = StaticCache::new(1_000, 0.5);
        c.admit_value(b"a", &[1; 64], loc(1));
        assert_eq!(c.lookup(b"a"), CacheLookup::Value(vec![1; 64]));
        c.on_local_write(b"a", &[2; 600], loc(2));
        assert_eq!(
            c.lookup(b"a"),
            CacheLookup::Shortcut(loc(2)),
            "a write that did not fit left the replaced bytes resident"
        );
    }

    #[test]
    fn capacity_change_evicts() {
        let mut c = StaticCache::new(5_000, 0.5);
        for i in 0..40u32 {
            let key = format!("key{i:04}").into_bytes();
            c.admit_value(&key, &[1u8; 80], loc(u64::from(i)));
        }
        c.set_capacity_bytes(600);
        assert!(c.stats().bytes_used <= 600);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = StaticCache::new(10_000, 0.5);
        c.admit_value(b"a", &[1; 10], loc(1));
        c.invalidate(b"a");
        assert_eq!(c.lookup(b"a"), CacheLookup::Miss);
        c.admit_value(b"b", &[1; 10], loc(2));
        c.clear();
        assert_eq!(c.stats().bytes_used, 0);
    }
}
