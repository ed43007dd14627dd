//! # dinomo-pmem — simulated disaggregated persistent memory pool
//!
//! The paper assumes a centralized, reliable pool of persistent memory (PM)
//! reachable over the network, emulated in their testbed with RDMA-registered
//! DRAM and validated on an Optane DC PM machine.  Real PM hardware is not
//! available here, so this crate provides a software PM pool with the
//! properties the rest of the system relies on:
//!
//! * **Byte-addressable shared memory** — a word-granular atomic arena
//!   ([`PmemPool`]) that many threads (KVS-node NICs issuing one-sided
//!   operations and DPM processor threads) can read and write concurrently
//!   without locks, exactly like RDMA-registered memory.
//! * **An allocator** — callers obtain [`PmAddr`] regions for log segments,
//!   hash-table buckets and indirect cells ([`PmemPool::alloc`] /
//!   [`PmemPool::free`]).
//! * **Persistence primitives** — `clwb`/`sfence`-style flush and fence
//!   emulation with dirty-cache-line tracking, so crash consistency of the
//!   commit-marker protocol can be tested ([`PmemPool::persist`],
//!   [`PmemPool::drain`], [`PmemPool::simulate_crash`]).
//! * **Failure injection** — allocation failures for exercising error paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod config;
pub mod error;
pub mod pool;

pub use config::PmemConfig;
pub use error::PmemError;
pub use pool::{PmAddr, PmemPool, PmemStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn end_to_end_alloc_write_read() {
        let pool = Arc::new(PmemPool::new(PmemConfig::small_for_tests()));
        let addr = pool.alloc(128).unwrap();
        let data = vec![0xAB_u8; 100];
        pool.write_bytes(addr, &data);
        pool.persist(addr, 100);
        pool.drain();
        let mut out = vec![0u8; 100];
        pool.read_bytes(addr, &mut out);
        assert_eq!(out, data);
    }
}
