//! The cache-policy trait and shared types.

/// Location of a value inside the DPM pool: address and length.
///
/// This mirrors the packed location stored in the DPM index; the cache crate
/// keeps its own copy of the type so it has no dependency on the DPM layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueLoc {
    /// Byte offset of the value in the DPM pool.
    pub addr: u64,
    /// Value length in bytes.
    pub len: u32,
}

impl ValueLoc {
    /// The `len`-byte value at pool offset `addr`.
    pub fn new(addr: u64, len: u32) -> Self {
        ValueLoc { addr, len }
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// The full value was cached: 0 network round trips needed.
    Value(Vec<u8>),
    /// Only the location was cached: 1 one-sided READ fetches the value.
    Shortcut(ValueLoc),
    /// Nothing cached: the index must be traversed remotely.
    Miss,
}

impl CacheLookup {
    /// `true` for either kind of hit.
    pub fn is_hit(&self) -> bool {
        !matches!(self, CacheLookup::Miss)
    }
}

/// Which cache policy to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// No caching at all (every access traverses the remote index).
    None,
    /// Cache only shortcuts (the paper's Dinomo-S).
    ShortcutOnly,
    /// Cache only full values.
    ValueOnly,
    /// Reserve the given percentage of capacity for values, rest for
    /// shortcuts (the paper's Static-20/40/80 comparison points).
    StaticFraction(u8),
    /// Disaggregated Adaptive Caching.
    Dac,
}

/// Counters exposed by every cache policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that found a full value.
    pub value_hits: u64,
    /// Lookups that found a shortcut.
    pub shortcut_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Shortcut→value promotions (DAC only).
    pub promotions: u64,
    /// Value→shortcut demotions (DAC only).
    pub demotions: u64,
    /// Entries evicted entirely.
    pub evictions: u64,
    /// Bytes currently accounted against the capacity budget.
    pub bytes_used: u64,
    /// Capacity budget in bytes.
    pub capacity_bytes: u64,
    /// Number of value entries resident.
    pub value_entries: u64,
    /// Number of shortcut entries resident.
    pub shortcut_entries: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.value_hits + self.shortcut_hits + self.misses
    }

    /// Fraction of lookups that hit (value or shortcut).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            (self.value_hits + self.shortcut_hits) as f64 / total as f64
        }
    }

    /// Fraction of lookups that hit a full value (the parenthesised numbers
    /// in the paper's Table 6).
    pub fn value_hit_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.value_hits as f64 / total as f64
        }
    }
}

/// Fixed per-entry bookkeeping overhead charged for a shortcut entry:
/// 8-byte DPM pointer, 4-byte length, access counter and map overhead.
pub const SHORTCUT_OVERHEAD: usize = 24;
/// Fixed per-entry bookkeeping overhead charged for a value entry.
pub const VALUE_OVERHEAD: usize = 32;

/// Bytes a shortcut entry for `key` occupies in the cache budget.
pub fn shortcut_weight(key: &[u8]) -> usize {
    key.len() + SHORTCUT_OVERHEAD
}

/// Bytes a value entry for `key` with a `value_len`-byte value occupies.
pub fn value_weight(key: &[u8], value_len: usize) -> usize {
    key.len() + value_len + VALUE_OVERHEAD
}

/// The interface every KVS-node cache policy implements.
///
/// The KVS node drives the cache as follows:
/// 1. [`lookup`](KnCache::lookup) on every read;
/// 2. on a shortcut hit it fetches the value with one one-sided READ and
///    offers it back via [`admit_value`](KnCache::admit_value) (DAC decides
///    whether to promote);
/// 3. on a miss it resolves the value through the remote index, reports the
///    observed cost via [`record_miss_cost`](KnCache::record_miss_cost), and
///    offers the value and its location via [`admit_value`](KnCache::admit_value);
/// 4. when its flush makes a write durable it calls
///    [`on_local_write`](KnCache::on_local_write) — the KN wrote the log
///    entry itself, so it knows the new value and location for free. A put
///    does not touch the cache before that: until the flush, the KN serves
///    the key from its buffered write.
pub trait KnCache: Send {
    /// Short policy name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Look up a key.
    fn lookup(&mut self, key: &[u8]) -> CacheLookup;

    /// Offer a freshly fetched value (after a shortcut hit or a miss).
    fn admit_value(&mut self, key: &[u8], value: &[u8], loc: ValueLoc);

    /// Offer a location discovered without the value (e.g. an index lookup
    /// that did not fetch the value bytes).
    fn admit_shortcut(&mut self, key: &[u8], loc: ValueLoc);

    /// The KN itself wrote this key (it knows both value and location). A
    /// resident entry is updated in place — a value keeps its hits, a
    /// shortcut its frequency — and whatever the policy keeps, no older
    /// bytes or location of `key` may stay behind, even when the new value
    /// does not fit.
    fn on_local_write(&mut self, key: &[u8], value: &[u8], loc: ValueLoc);

    /// Drop any entry for `key`. The KN calls it for a delete, for a put
    /// of a selectively-replicated key (read through its indirection cell),
    /// when the compactor relocates the key's entry, when a key becomes
    /// replicated or de-replicated, for a dangling shortcut, and for the
    /// keys still pending after a failed flush.
    fn invalidate(&mut self, key: &[u8]);

    /// Report the measured cost, in round trips, of a full cache miss.  DAC
    /// keeps a moving average of this to evaluate Equation 1.
    fn record_miss_cost(&mut self, rts: u32);

    /// Drop everything (used when a KN hands its partition away), keeping
    /// the statistics' counters. The dropped entries come back unfreed:
    /// freeing a full cache takes long, so a caller inside a critical
    /// section frees them once it has left it.
    fn clear(&mut self) -> Box<dyn Send>;

    /// Current statistics.
    fn stats(&self) -> CacheStats;

    /// Capacity budget in bytes.
    fn capacity_bytes(&self) -> usize;

    /// Change the capacity budget (evicting as needed).
    fn set_capacity_bytes(&mut self, capacity: usize);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_ratios() {
        let s = CacheStats {
            value_hits: 50,
            shortcut_hits: 30,
            misses: 20,
            ..CacheStats::default()
        };
        assert_eq!(s.lookups(), 100);
        assert!((s.hit_ratio() - 0.8).abs() < 1e-9);
        assert!((s.value_hit_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn weights_account_for_key_and_value() {
        let k = b"user0001";
        assert_eq!(shortcut_weight(k), 8 + SHORTCUT_OVERHEAD);
        assert_eq!(value_weight(k, 1024), 8 + 1024 + VALUE_OVERHEAD);
        assert!(value_weight(k, 64) > shortcut_weight(k));
    }

    #[test]
    fn lookup_hit_classification() {
        assert!(CacheLookup::Value(vec![1]).is_hit());
        assert!(CacheLookup::Shortcut(ValueLoc::new(1, 1)).is_hit());
        assert!(!CacheLookup::Miss.is_hit());
    }
}
