//! # dinomo-cache — KVS-node caching, including DAC
//!
//! A Dinomo KVS node (KN) has a small amount of local DRAM relative to the
//! DPM pool (≈1 % in the paper's setup) and uses it to avoid network round
//! trips (RTs).  Two kinds of entries can be cached:
//!
//! * a **value** entry holds a full copy of the key-value pair — a hit costs
//!   0 RTs but consumes space proportional to the value size;
//! * a **shortcut** entry holds a fixed-size pointer to the value's location
//!   in DPM — a hit costs exactly 1 one-sided READ, a miss costs an index
//!   traversal (`M` RTs) plus the value read.
//!
//! This crate implements the paper's **Disaggregated Adaptive Caching (DAC)**
//! policy (§3.3, Table 3, Equation 1) along with the comparison policies used
//! in Figure 3 / Table 5: no caching, shortcut-only, value-only, and the
//! Static-X% split policies.  All policies implement the [`KnCache`] trait so
//! the KVS node and the benchmark harness can swap them freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dac;
pub mod lfu;
pub mod lru;
pub mod policy;
mod slab;
pub mod static_cache;

pub use dac::DacCache;
pub use policy::{
    shortcut_weight, value_weight, CacheKind, CacheLookup, CacheStats, KnCache, ValueLoc,
};
pub use static_cache::{NoCache, StaticCache};

/// Construct a boxed cache of the given kind with the given byte capacity.
pub fn build_cache(kind: CacheKind, capacity_bytes: usize) -> Box<dyn KnCache> {
    match kind {
        CacheKind::None => Box::new(NoCache::default()),
        CacheKind::ShortcutOnly => Box::new(StaticCache::new(capacity_bytes, 0.0)),
        CacheKind::ValueOnly => Box::new(StaticCache::new(capacity_bytes, 1.0)),
        CacheKind::StaticFraction(percent) => {
            Box::new(StaticCache::new(capacity_bytes, f64::from(percent) / 100.0))
        }
        CacheKind::Dac => Box::new(DacCache::new(capacity_bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_cache_produces_the_requested_policy() {
        assert_eq!(build_cache(CacheKind::None, 0).name(), "no-cache");
        assert_eq!(
            build_cache(CacheKind::ShortcutOnly, 1024).name(),
            "shortcut-only"
        );
        assert_eq!(build_cache(CacheKind::ValueOnly, 1024).name(), "value-only");
        assert_eq!(
            build_cache(CacheKind::StaticFraction(40), 1024).name(),
            "static"
        );
        assert_eq!(build_cache(CacheKind::Dac, 1024).name(), "dac");
    }
}
