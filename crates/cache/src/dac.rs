//! Disaggregated Adaptive Caching (DAC), §3.3 of the paper.
//!
//! DAC divides a single byte budget between full **values** (0-RT hits,
//! evicted LRU, demoted to shortcuts under memory pressure) and **shortcuts**
//! (1-RT hits, evicted LFU).  The policy follows Table 3 of the paper:
//!
//! * **BEGIN** — start with an empty cache and admit values while there is
//!   spare space.
//! * **MISS** — cache the shortcut; to make space, demote a value (if one is
//!   present) or evict the least-frequently-used shortcut.
//! * **HIT** (on a shortcut) — consider promoting it to a value: promote only
//!   if the round trips saved by the promotion outweigh the round trips that
//!   would be added by evicting the `N` least-frequently-used shortcuts
//!   needed to make room (Equation 1). An approved promotion evicts exactly
//!   those `N` shortcuts and nothing else: it never demotes a value.
//! * **EVICT** — always evict the least-frequently-used shortcut.
//! * **PROMOTE** — promoted shortcuts inherit their access counts.
//! * **DEMOTE** — demoted values are kept as shortcuts (inheriting counts).
//!
//! The average cost of a cache miss (in RTs) is learned online from
//! [`KnCache::record_miss_cost`] as an exponential moving average; the
//! average shortcut-hit cost is exactly one RT by construction.

use crate::lfu::LfuMap;
use crate::lru::LruMap;
use crate::policy::{shortcut_weight, value_weight, CacheLookup, CacheStats, KnCache, ValueLoc};

#[derive(Debug, Clone)]
struct ValueEntry {
    data: Vec<u8>,
    loc: ValueLoc,
    hits: u64,
}

#[derive(Debug, Clone, Copy)]
struct ShortcutEntry {
    loc: ValueLoc,
}

/// The DAC cache. See the module docs.
#[derive(Debug)]
pub struct DacCache {
    values: LruMap<ValueEntry>,
    shortcuts: LfuMap<ShortcutEntry>,
    capacity: usize,
    used: usize,
    /// Exponential moving average of the measured miss cost in RTs.
    avg_miss_rts: f64,
    /// Event counters; [`KnCache::stats`] adds the live occupancy.
    stats: CacheStats,
}

/// Initial estimate for the cost of a miss before any measurement arrives:
/// a couple of index-bucket reads plus the value read.
const INITIAL_MISS_RTS: f64 = 3.0;
/// Weight of a new sample in the miss-cost moving average.
const MISS_EMA_ALPHA: f64 = 0.05;

impl DacCache {
    /// Create a DAC cache with the given byte budget.
    pub fn new(capacity_bytes: usize) -> Self {
        DacCache {
            values: LruMap::new(),
            shortcuts: LfuMap::new(),
            capacity: capacity_bytes,
            used: 0,
            avg_miss_rts: INITIAL_MISS_RTS,
            stats: CacheStats::default(),
        }
    }

    /// The current moving average of the miss cost, in round trips.
    pub fn avg_miss_rts(&self) -> f64 {
        self.avg_miss_rts
    }

    fn free_space(&self) -> usize {
        self.capacity.saturating_sub(self.used)
    }

    /// Demote the least-recently-used value into a shortcut.  Returns the
    /// bytes released, or 0 if there was no value to demote.
    fn demote_one_value(&mut self) -> usize {
        let Some((key, entry)) = self.values.pop_lru() else {
            return 0;
        };
        let released = value_weight(&key, entry.data.len());
        self.used -= released;
        self.stats.demotions += 1;
        // Demoted values are cached as shortcuts, inheriting access history.
        let w = shortcut_weight(&key);
        if self.free_space() + released >= w {
            self.shortcuts.insert_with_frequency(
                &key,
                ShortcutEntry { loc: entry.loc },
                entry.hits.max(1),
            );
            self.used += w;
            released.saturating_sub(w)
        } else {
            self.stats.evictions += 1;
            released
        }
    }

    /// Evict the least-frequently-used shortcut. Returns bytes released.
    fn evict_one_shortcut(&mut self) -> usize {
        let Some((key, _, _)) = self.shortcuts.pop_lfu() else {
            return 0;
        };
        let released = shortcut_weight(&key);
        self.used -= released;
        self.stats.evictions += 1;
        released
    }

    /// Make at least `needed` bytes of free space, preferring to demote
    /// values and then to evict LFU shortcuts. Returns `false` if the budget
    /// simply cannot fit `needed` bytes.
    fn make_space(&mut self, needed: usize) -> bool {
        if needed > self.capacity {
            return false;
        }
        while self.free_space() < needed {
            if self.demote_one_value() > 0 {
                continue;
            }
            if self.evict_one_shortcut() == 0 {
                return false;
            }
        }
        true
    }

    fn insert_shortcut(&mut self, key: &[u8], loc: ValueLoc, freq: u64) {
        let w = shortcut_weight(key);
        if let Some(prev_freq) = self.shortcuts.frequency(key) {
            // Already present: refresh a moved location, keeping the frequency.
            if self.shortcuts.peek(key).is_some_and(|e| e.loc != loc) {
                self.shortcuts
                    .insert_with_frequency(key, ShortcutEntry { loc }, prev_freq);
            }
            return;
        }
        if !self.make_space(w) {
            return;
        }
        self.shortcuts
            .insert_with_frequency(key, ShortcutEntry { loc }, freq.max(1));
        self.used += w;
    }

    fn insert_value(&mut self, key: &[u8], value: &[u8], loc: ValueLoc, hits: u64) -> bool {
        // Remove any existing entries for this key first: a value that does
        // not fit must not leave the key's older bytes behind.
        self.remove_internal(key);
        let w = value_weight(key, value.len());
        if !self.make_space(w) {
            return false;
        }
        self.values.insert(
            key,
            ValueEntry {
                data: value.to_vec(),
                loc,
                hits,
            },
        );
        self.used += w;
        true
    }

    /// Replace the bytes of a value-resident `key`, keeping its hits and
    /// marking it most-recently used; `false` if `key` holds no value.
    fn refresh_value(&mut self, key: &[u8], value: &[u8], loc: ValueLoc) -> bool {
        let Some(hits) = self.values.peek(key).map(|e| e.hits) else {
            return false;
        };
        self.insert_value(key, value, loc, hits);
        true
    }

    fn remove_internal(&mut self, key: &[u8]) {
        if let Some(e) = self.values.remove(key) {
            self.used -= value_weight(key, e.data.len());
        }
        if self.shortcuts.remove(key).is_some() {
            self.used -= shortcut_weight(key);
        }
    }

    /// Equation 1: should the shortcut for `key` (with `hits` accesses) be
    /// promoted to a value of length `value_len`? `Some(n)` approves the
    /// promotion at the price of evicting the `n` least-frequently-used
    /// shortcuts other than `key`'s own; `None` rejects it. Values are never
    /// part of the price: a promotion makes room from shortcuts alone.
    fn should_promote(&self, key: &[u8], value_len: usize, hits: u64) -> Option<usize> {
        let needed = value_weight(key, value_len);
        let mut available = self.free_space() + shortcut_weight(key);
        if available >= needed {
            // Spare space: promotion costs nothing.
            return Some(0);
        }
        // Walk the least-frequently-used shortcuts (other than this one)
        // that would have to be evicted, accumulating their hits, and stop
        // at the first N that make room: the cost is O(N), not O(shortcuts).
        let mut penalty_hits: u64 = 0;
        let mut victims = 0;
        for (candidate, freq) in self.shortcuts.by_frequency() {
            if candidate == key {
                continue;
            }
            penalty_hits += freq;
            victims += 1;
            available += shortcut_weight(candidate);
            if available >= needed {
                // Savings: every future hit on the value saves the 1 RT the
                // shortcut hit would have cost. Penalty: every future hit on
                // an evicted shortcut now costs a full miss. Past hits are
                // the predictor.
                let savings = hits as f64 * 1.0;
                let penalty = penalty_hits as f64 * self.avg_miss_rts;
                return (savings >= penalty).then_some(victims);
            }
        }
        None
    }

    /// Carry out a promotion [`Self::should_promote`] approved: drop `key`'s
    /// shortcut, evict exactly the `victims` LFU shortcuts it priced, and
    /// cache the value in the room they leave.
    fn promote(&mut self, key: &[u8], value: &[u8], loc: ValueLoc, hits: u64, victims: usize) {
        if self.shortcuts.remove(key).is_some() {
            self.used -= shortcut_weight(key);
        }
        for _ in 0..victims {
            self.evict_one_shortcut();
        }
        let w = value_weight(key, value.len());
        debug_assert!(self.free_space() >= w, "Eq. 1 priced too few evictions");
        self.values.insert(
            key,
            ValueEntry {
                data: value.to_vec(),
                loc,
                hits,
            },
        );
        self.used += w;
        self.stats.promotions += 1;
    }
}

impl KnCache for DacCache {
    fn name(&self) -> &'static str {
        "dac"
    }

    fn lookup(&mut self, key: &[u8]) -> CacheLookup {
        if let Some(entry) = self.values.get(key) {
            entry.hits += 1;
            let data = entry.data.clone();
            self.stats.value_hits += 1;
            return CacheLookup::Value(data);
        }
        if let Some(entry) = self.shortcuts.get(key) {
            let loc = entry.loc;
            self.stats.shortcut_hits += 1;
            return CacheLookup::Shortcut(loc);
        }
        self.stats.misses += 1;
        CacheLookup::Miss
    }

    fn admit_value(&mut self, key: &[u8], value: &[u8], loc: ValueLoc) {
        if self.refresh_value(key, value, loc) {
            // Refreshed (e.g. after the KN re-read it).
            return;
        }
        let shortcut_hits = self.shortcuts.frequency(key);
        match shortcut_hits {
            Some(hits) => {
                // HIT path: this value arrived by resolving a shortcut hit.
                // Promote only if Equation 1 says the trade is worth it.
                match self.should_promote(key, value.len(), hits) {
                    Some(victims) => self.promote(key, value, loc, hits, victims),
                    // Keep (refresh) the shortcut.
                    None => self.insert_shortcut(key, loc, hits),
                }
            }
            None => {
                // MISS path: the paper's policy caches the shortcut on a
                // miss, using values only when there is spare space.
                let vw = value_weight(key, value.len());
                if self.free_space() >= vw {
                    self.insert_value(key, value, loc, 1);
                } else {
                    self.insert_shortcut(key, loc, 1);
                }
            }
        }
    }

    fn admit_shortcut(&mut self, key: &[u8], loc: ValueLoc) {
        if self.values.contains(key) {
            return;
        }
        self.insert_shortcut(key, loc, 1);
    }

    fn on_local_write(&mut self, key: &[u8], value: &[u8], loc: ValueLoc) {
        // The KN produced this write itself: it knows the value and its DPM
        // location for free.  Prefer caching the value if the key is already
        // value-resident or there is spare space; otherwise keep a shortcut
        // (the location was free to learn).
        if let Some(entry) = self.values.get(key) {
            // Value-resident, now most-recently used with its hits kept. A
            // value of the same length is overwritten where it lies; another
            // length changes the entry's weight and takes the full refresh.
            if entry.data.len() == value.len() {
                entry.data.copy_from_slice(value);
                entry.loc = loc;
            } else {
                let hits = entry.hits;
                self.insert_value(key, value, loc, hits);
            }
            return;
        }
        if self.free_space() >= value_weight(key, value.len()) {
            self.insert_value(key, value, loc, 1);
        } else if let Some(freq) = self.shortcuts.frequency(key) {
            // Location changed: move the shortcut, keeping its frequency, to
            // the tail of its frequency's list, where a removal and
            // re-insertion would put it.
            self.shortcuts
                .insert_with_frequency(key, ShortcutEntry { loc }, freq);
        } else {
            self.insert_shortcut(key, loc, 1);
        }
    }

    fn invalidate(&mut self, key: &[u8]) {
        self.remove_internal(key);
    }

    fn record_miss_cost(&mut self, rts: u32) {
        self.avg_miss_rts =
            (1.0 - MISS_EMA_ALPHA) * self.avg_miss_rts + MISS_EMA_ALPHA * f64::from(rts);
    }

    fn clear(&mut self) -> Box<dyn Send> {
        let entries = (
            std::mem::take(&mut self.values),
            std::mem::take(&mut self.shortcuts),
        );
        self.used = 0;
        Box::new(entries)
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_used: self.used as u64,
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
        while self.used > self.capacity {
            if self.demote_one_value() > 0 {
                continue;
            }
            if self.evict_one_shortcut() == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(i: u64) -> ValueLoc {
        ValueLoc::new(i * 100, 64)
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    #[test]
    fn begins_by_caching_values_when_space_is_spare() {
        let mut c = DacCache::new(10_000);
        assert_eq!(c.lookup(&key(1)), CacheLookup::Miss);
        c.record_miss_cost(3);
        c.admit_value(&key(1), &[7u8; 64], loc(1));
        match c.lookup(&key(1)) {
            CacheLookup::Value(v) => assert_eq!(v, vec![7u8; 64]),
            other => panic!("expected value hit, got {other:?}"),
        }
        assert_eq!(c.stats().value_entries, 1);
    }

    #[test]
    fn falls_back_to_shortcuts_under_pressure() {
        // Capacity fits only ~2 values but many shortcuts.
        let mut c = DacCache::new(300);
        for i in 0..20 {
            c.lookup(&key(i));
            c.admit_value(&key(i), &[1u8; 100], loc(u64::from(i)));
        }
        let s = c.stats();
        assert!(
            s.shortcut_entries > 0,
            "expected shortcut entries, got {s:?}"
        );
        assert!(s.bytes_used <= 300);
    }

    #[test]
    fn budget_is_never_exceeded() {
        let mut c = DacCache::new(2_000);
        for i in 0..200 {
            c.lookup(&key(i));
            c.admit_value(&key(i), &[3u8; 150], loc(u64::from(i)));
            assert!(c.stats().bytes_used <= 2_000, "over budget at {i}");
        }
    }

    #[test]
    fn hot_shortcut_gets_promoted() {
        let mut c = DacCache::new(1_000);
        // Fill with cold shortcuts.
        for i in 0..30 {
            c.admit_shortcut(&key(i), loc(u64::from(i)));
        }
        // Key 999 becomes very hot via repeated shortcut hits.
        c.admit_shortcut(&key(999), loc(999));
        for _ in 0..50 {
            assert!(matches!(c.lookup(&key(999)), CacheLookup::Shortcut(_)));
        }
        c.record_miss_cost(5);
        c.admit_value(&key(999), &[9u8; 200], loc(999));
        assert!(
            matches!(c.lookup(&key(999)), CacheLookup::Value(_)),
            "hot key should have been promoted: {:?}",
            c.stats()
        );
        assert!(c.stats().promotions >= 1);
    }

    #[test]
    fn cold_shortcut_is_not_promoted_over_hot_shortcuts() {
        let mut c = DacCache::new(800);
        // Fill the budget with hot shortcuts.
        for i in 0..24 {
            c.admit_shortcut(&key(i), loc(u64::from(i)));
        }
        for _ in 0..20 {
            for i in 0..24 {
                c.lookup(&key(i));
            }
        }
        // One cold shortcut, accessed once.
        c.admit_shortcut(&key(500), loc(500));
        c.lookup(&key(500));
        c.record_miss_cost(5);
        c.admit_value(&key(500), &[1u8; 400], loc(500));
        // Promotion would require evicting many hot shortcuts; Equation 1
        // must reject it.
        assert!(
            matches!(
                c.lookup(&key(500)),
                CacheLookup::Shortcut(_) | CacheLookup::Miss
            ),
            "cold key must not displace hot shortcuts"
        );
        assert_eq!(c.stats().promotions, 0);
    }

    #[test]
    fn promotion_never_demotes_a_value() {
        let mut c = DacCache::new(1_000);
        // Two resident values (240 B each), then cold shortcuts (32 B
        // each) fill all but 8 B of the rest.
        c.admit_value(&key(1), &[1u8; 200], loc(1));
        c.admit_value(&key(2), &[2u8; 200], loc(2));
        for i in 10..25 {
            c.admit_shortcut(&key(i), loc(u64::from(i)));
        }
        c.admit_shortcut(&key(999), loc(999));
        for _ in 0..50 {
            c.lookup(&key(999));
        }
        c.record_miss_cost(5);
        c.admit_value(&key(999), &[9u8; 200], loc(999));
        let s = c.stats();
        assert_eq!((s.promotions, s.demotions), (1, 0), "{s:?}");
        for (k, fill) in [(1, 1u8), (2, 2u8), (999, 9u8)] {
            assert_eq!(c.lookup(&key(k)), CacheLookup::Value(vec![fill; 200]));
        }
    }

    #[test]
    fn demoted_values_become_shortcuts() {
        let mut c = DacCache::new(400);
        c.admit_value(&key(1), &[1u8; 200], loc(1));
        assert_eq!(c.stats().value_entries, 1);
        // Admitting more data forces the value to be demoted.
        for i in 2..10 {
            c.lookup(&key(i));
            c.admit_value(&key(i), &[1u8; 200], loc(u64::from(i)));
        }
        let s = c.stats();
        assert!(s.demotions >= 1, "expected demotions: {s:?}");
        // Key 1 should still be findable as a shortcut (unless later evicted).
        let l = c.lookup(&key(1));
        assert!(!matches!(l, CacheLookup::Value(_)));
    }

    #[test]
    fn local_writes_refresh_location() {
        let mut c = DacCache::new(10_000);
        c.on_local_write(&key(1), &[1u8; 32], loc(1));
        c.on_local_write(&key(1), &[2u8; 32], loc(2));
        match c.lookup(&key(1)) {
            CacheLookup::Value(v) => assert_eq!(v, vec![2u8; 32]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_local_write_to_a_cached_value_keeps_its_hits_and_marks_it_mru() {
        let mut c = DacCache::new(10_000);
        c.on_local_write(&key(1), &[1u8; 64], loc(1));
        c.on_local_write(&key(2), &[2u8; 64], loc(2));
        c.lookup(&key(1));
        c.lookup(&key(2));
        let used = c.stats().bytes_used;
        c.on_local_write(&key(1), &[3u8; 64], loc(3));
        assert_eq!(c.stats().bytes_used, used);
        let entry = c.values.peek(&key(1)).unwrap();
        assert_eq!((entry.hits, entry.loc), (2, loc(3)));
        assert_eq!(c.values.lru_key(), Some(key(2).as_slice()));
        assert_eq!(c.lookup(&key(1)), CacheLookup::Value(vec![3u8; 64]));
    }

    #[test]
    fn an_oversized_local_write_leaves_no_older_value() {
        let mut c = DacCache::new(1_000);
        c.on_local_write(&key(1), &[1u8; 64], loc(1));
        assert_eq!(c.lookup(&key(1)), CacheLookup::Value(vec![1u8; 64]));
        c.on_local_write(&key(1), &[2u8; 2_000], loc(2));
        assert_ne!(
            c.lookup(&key(1)),
            CacheLookup::Value(vec![1u8; 64]),
            "a write that did not fit left the replaced bytes resident"
        );
        assert!(c.stats().bytes_used <= 1_000);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = DacCache::new(10_000);
        c.admit_value(&key(1), &[1u8; 32], loc(1));
        c.admit_shortcut(&key(2), loc(2));
        c.invalidate(&key(1));
        c.invalidate(&key(2));
        assert_eq!(c.lookup(&key(1)), CacheLookup::Miss);
        assert_eq!(c.lookup(&key(2)), CacheLookup::Miss);
        c.admit_value(&key(3), &[1u8; 32], loc(3));
        c.clear();
        assert_eq!(c.stats().bytes_used, 0);
        assert_eq!(c.lookup(&key(3)), CacheLookup::Miss);
    }

    #[test]
    fn shrinking_capacity_evicts_down_to_budget() {
        let mut c = DacCache::new(5_000);
        for i in 0..30 {
            c.admit_value(&key(i), &[1u8; 100], loc(u64::from(i)));
        }
        c.set_capacity_bytes(500);
        assert!(c.stats().bytes_used <= 500);
        assert_eq!(c.capacity_bytes(), 500);
    }

    #[test]
    fn miss_cost_moving_average_updates() {
        let mut c = DacCache::new(1_000);
        let initial = c.avg_miss_rts();
        for _ in 0..100 {
            c.record_miss_cost(10);
        }
        assert!(c.avg_miss_rts() > initial);
        assert!(c.avg_miss_rts() <= 10.0);
    }

    #[test]
    fn oversized_value_is_rejected_gracefully() {
        let mut c = DacCache::new(100);
        c.admit_value(&key(1), &[1u8; 500], loc(1));
        assert!(c.stats().bytes_used <= 100);
        // The key may still be cached as a shortcut, never as a value.
        assert!(!matches!(c.lookup(&key(1)), CacheLookup::Value(_)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Equation 1 as first written: list *every* shortcut in eviction order,
    /// then walk the list. The reference the lazy walk must agree with.
    fn should_promote_reference(
        c: &DacCache,
        key: &[u8],
        value_len: usize,
        hits: u64,
    ) -> Option<usize> {
        let needed = value_weight(key, value_len);
        let mut available = c.free_space() + shortcut_weight(key);
        if available >= needed {
            return Some(0);
        }
        let others: Vec<(&[u8], u64)> = c
            .shortcuts
            .by_frequency()
            .filter(|&(candidate, _)| candidate != key)
            .collect();
        let mut penalty_hits: u64 = 0;
        for (n, (candidate, freq)) in others.into_iter().enumerate() {
            penalty_hits += freq;
            available += shortcut_weight(candidate);
            if available >= needed {
                return (hits as f64 >= penalty_hits as f64 * c.avg_miss_rts).then_some(n + 1);
            }
        }
        None
    }

    /// Apply one generated operation. Keys are squared toward a hot few, so
    /// shortcut frequencies spread and Eq. 1 has trades worth making; 1-2 RT
    /// misses keep the learned miss cost low enough that some walks end in
    /// a promotion. Op 3, the shortcut-hit admit that runs Eq. 1, is the
    /// caller's.
    fn skewed_op(c: &mut DacCache, op: u8, k: u32, len: usize) -> (Vec<u8>, ValueLoc) {
        let k = k * k / 48;
        let key = format!("k{k:04}").into_bytes();
        let loc = ValueLoc::new(u64::from(k), len as u32);
        match op {
            0..=2 => {
                if let CacheLookup::Miss = c.lookup(&key) {
                    c.record_miss_cost(1 + (len % 2) as u32);
                }
            }
            3 => {}
            4 => c.admit_shortcut(&key, loc),
            5 => c.on_local_write(&key, &vec![1u8; len], loc),
            _ => c.invalidate(&key),
        }
        (key, loc)
    }

    fn skewed_ops() -> impl Strategy<Value = Vec<(u8, u32, usize)>> {
        proptest::collection::vec((0u8..7, 0u32..48, 1usize..300), 1..400)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every Equation 1 decision on a shortcut hit is the one the
        /// eager reference makes for the same cache state.
        #[test]
        fn lazy_eq1_decides_as_the_eager_reference(
            capacity in 200usize..5_000,
            ops in skewed_ops(),
        ) {
            let mut c = DacCache::new(capacity);
            for (op, k, len) in ops {
                let (key, loc) = skewed_op(&mut c, op, k, len);
                if op != 3 {
                    continue;
                }
                if !c.values.contains(&key) {
                    if let Some(hits) = c.shortcuts.frequency(&key) {
                        prop_assert_eq!(
                            c.should_promote(&key, len, hits),
                            should_promote_reference(&c, &key, len, hits)
                        );
                    }
                }
                c.admit_value(&key, &vec![0u8; len], loc);
            }
        }

        /// An approved promotion frees exactly what Eq. 1 priced: it evicts
        /// the LFU prefix of the other shortcuts that the walk covered, and
        /// demotes no value.
        #[test]
        fn a_promotion_evicts_exactly_the_shortcuts_it_priced(
            capacity in 200usize..5_000,
            ops in skewed_ops(),
        ) {
            let mut c = DacCache::new(capacity);
            for (op, k, len) in ops {
                let (key, loc) = skewed_op(&mut c, op, k, len);
                if op != 3 {
                    continue;
                }
                let priced = match c.shortcuts.frequency(&key) {
                    Some(hits) if !c.values.contains(&key) => {
                        c.should_promote(&key, len, hits)
                    }
                    _ => None,
                };
                let Some(n) = priced else {
                    c.admit_value(&key, &vec![0u8; len], loc);
                    continue;
                };
                let victims: Vec<Vec<u8>> = c
                    .shortcuts
                    .by_frequency()
                    .map(|(candidate, _)| candidate)
                    .filter(|&candidate| candidate != key.as_slice())
                    .take(n)
                    .map(<[u8]>::to_vec)
                    .collect();
                let shortcuts_before: BTreeSet<Vec<u8>> =
                    c.shortcuts.iter().map(|(k, _)| k.to_vec()).collect();
                let values_before: BTreeSet<Vec<u8>> =
                    c.values.iter().map(|(k, _)| k.to_vec()).collect();
                let before = c.stats();

                c.admit_value(&key, &vec![0u8; len], loc);

                let after = c.stats();
                prop_assert_eq!(after.promotions, before.promotions + 1);
                prop_assert_eq!(after.demotions, before.demotions);
                prop_assert_eq!(after.evictions, before.evictions + n as u64);
                let mut expected = shortcuts_before;
                expected.remove(&key);
                for victim in &victims {
                    prop_assert!(expected.remove(victim));
                }
                let shortcuts_after: BTreeSet<Vec<u8>> =
                    c.shortcuts.iter().map(|(k, _)| k.to_vec()).collect();
                prop_assert_eq!(shortcuts_after, expected);
                let mut values_expected = values_before;
                values_expected.insert(key.clone());
                let values_after: BTreeSet<Vec<u8>> =
                    c.values.iter().map(|(k, _)| k.to_vec()).collect();
                prop_assert_eq!(values_after, values_expected);
                prop_assert!(after.bytes_used <= capacity as u64);
            }
        }

        /// The byte budget is an invariant under arbitrary operation mixes.
        #[test]
        fn never_exceeds_budget(
            capacity in 200usize..5_000,
            ops in proptest::collection::vec((0u8..4, 0u32..64, 1usize..300), 1..300),
        ) {
            let mut c = DacCache::new(capacity);
            for (op, k, len) in ops {
                let key = format!("k{k:04}").into_bytes();
                match op {
                    0 => { c.lookup(&key); }
                    1 => c.admit_value(&key, &vec![0u8; len], ValueLoc::new(u64::from(k), len as u32)),
                    2 => c.admit_shortcut(&key, ValueLoc::new(u64::from(k), len as u32)),
                    _ => c.on_local_write(&key, &vec![1u8; len], ValueLoc::new(u64::from(k), len as u32)),
                }
                prop_assert!(c.stats().bytes_used <= capacity as u64);
            }
        }

        /// A value hit always returns exactly the bytes most recently admitted
        /// or written for that key.
        #[test]
        fn value_hits_return_latest_bytes(
            writes in proptest::collection::vec((0u32..16, 1u8..255), 1..100),
        ) {
            let mut c = DacCache::new(1 << 20);
            let mut latest = std::collections::HashMap::new();
            for (k, fill) in writes {
                let key = format!("k{k:04}").into_bytes();
                let val = vec![fill; 32];
                c.on_local_write(&key, &val, ValueLoc::new(u64::from(k), 32));
                latest.insert(key, val);
            }
            for (key, val) in latest {
                match c.lookup(&key) {
                    CacheLookup::Value(v) => prop_assert_eq!(v, val),
                    other => prop_assert!(false, "expected value hit, got {:?}", other),
                }
            }
        }
    }
}
