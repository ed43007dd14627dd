//! The persistent-memory pool itself.

use crate::alloc::Allocator;
use crate::config::PmemConfig;
use crate::error::PmemError;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// A byte offset into the pool. Offset `0` is never returned by the allocator
/// and doubles as a null pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PmAddr(pub u64);

impl PmAddr {
    /// The null address.
    pub const NULL: PmAddr = PmAddr(0);

    /// `true` if this is the null address.
    pub fn is_null(&self) -> bool {
        self.0 == 0
    }

    /// Address `offset` bytes past this one.
    pub fn offset(&self, offset: u64) -> PmAddr {
        PmAddr(self.0 + offset)
    }
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmemStats {
    /// Bytes currently allocated.
    pub allocated_bytes: u64,
    /// Bytes sitting on free lists.
    pub freed_bytes: u64,
    /// Highest offset ever handed out (bump pointer).
    pub high_water_mark: u64,
    /// Number of cache-line flushes (`clwb` emulation) issued.
    pub flushes: u64,
    /// Number of fences (`sfence` emulation) issued.
    pub fences: u64,
    /// Total bytes written into the pool.
    pub bytes_written: u64,
    /// Total bytes read from the pool.
    pub bytes_read: u64,
}

/// The simulated persistent-memory pool.
///
/// Internally the pool is a word array of atomics, so concurrent readers and
/// writers never block each other — mirroring RDMA-registered physical
/// memory.  Word (8-byte) reads, writes and compare-and-swap are individually
/// atomic; multi-word transfers are not atomic as a unit, which matches the
/// semantics of one-sided RDMA and is exactly why the upper layers need
/// commit markers and atomic snapshots.
#[derive(Debug)]
pub struct PmemPool {
    words: Vec<AtomicU64>,
    config: PmemConfig,
    allocator: Mutex<Allocator>,
    /// Dirty (written but not yet persisted) cache lines, tracked only when
    /// `config.track_persistence` is set.
    dirty_lines: Mutex<HashSet<u64>>,
    flushes: AtomicU64,
    fences: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl PmemPool {
    /// Create a pool with the given configuration.
    pub fn new(config: PmemConfig) -> Self {
        let capacity = config.capacity_bytes.div_ceil(8) * 8;
        let num_words = (capacity / 8) as usize;
        let mut words = Vec::with_capacity(num_words);
        words.resize_with(num_words, || AtomicU64::new(0));
        PmemPool {
            words,
            allocator: Mutex::new(Allocator::new(capacity)),
            config: PmemConfig {
                capacity_bytes: capacity,
                ..config
            },
            dirty_lines: Mutex::new(HashSet::new()),
            flushes: AtomicU64::new(0),
            fences: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        }
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.config.capacity_bytes
    }

    /// Allocate `len` bytes; the returned address is 8-byte aligned.
    pub fn alloc(&self, len: u64) -> Result<PmAddr, PmemError> {
        self.allocator.lock().alloc(len).map(PmAddr)
    }

    /// Return a previously allocated region to the pool.
    pub fn free(&self, addr: PmAddr, len: u64) {
        self.allocator.lock().free(addr.0, len);
    }

    /// Make the next `count` allocations fail (failure injection).
    pub fn inject_alloc_failures(&self, count: u64) {
        self.allocator.lock().inject_failures(count);
    }

    fn check(&self, addr: PmAddr, len: u64) -> Result<(), PmemError> {
        if addr
            .0
            .checked_add(len)
            .is_none_or(|end| end > self.capacity())
        {
            return Err(PmemError::OutOfBounds {
                addr: addr.0,
                len,
                capacity: self.capacity(),
            });
        }
        Ok(())
    }

    fn word_index(&self, addr: PmAddr) -> Result<usize, PmemError> {
        if !addr.0.is_multiple_of(8) {
            return Err(PmemError::Misaligned { addr: addr.0 });
        }
        self.check(addr, 8)?;
        Ok((addr.0 / 8) as usize)
    }

    /// Atomically read the 8-byte word at `addr` (must be 8-byte aligned).
    pub fn read_u64(&self, addr: PmAddr) -> u64 {
        let idx = self.word_index(addr).expect("read_u64: bad address");
        self.bytes_read.fetch_add(8, Ordering::Relaxed);
        self.words[idx].load(Ordering::Acquire)
    }

    /// Atomically write the 8-byte word at `addr` (must be 8-byte aligned).
    pub fn write_u64(&self, addr: PmAddr, value: u64) {
        let idx = self.word_index(addr).expect("write_u64: bad address");
        self.words[idx].store(value, Ordering::Release);
        self.bytes_written.fetch_add(8, Ordering::Relaxed);
        self.mark_dirty(addr.0, 8);
    }

    /// Atomically compare-and-swap the word at `addr`. On success returns
    /// `Ok(previous)`, on failure `Err(actual)`.
    pub fn cas_u64(&self, addr: PmAddr, expected: u64, new: u64) -> Result<u64, u64> {
        let idx = self.word_index(addr).expect("cas_u64: bad address");
        let r =
            self.words[idx].compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire);
        if r.is_ok() {
            self.bytes_written.fetch_add(8, Ordering::Relaxed);
            self.mark_dirty(addr.0, 8);
        }
        r
    }

    /// Copy `buf.len()` bytes from the pool starting at `addr` into `buf`.
    /// Individual words are read atomically; the transfer as a whole is not.
    pub fn read_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        self.check(addr, buf.len() as u64)
            .expect("read_bytes: out of bounds");
        self.bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let mut pos = 0usize;
        let mut cur = addr.0;
        while pos < buf.len() {
            let word_idx = (cur / 8) as usize;
            let in_word = (cur % 8) as usize;
            let take = (8 - in_word).min(buf.len() - pos);
            let word = self.words[word_idx].load(Ordering::Acquire).to_le_bytes();
            buf[pos..pos + take].copy_from_slice(&word[in_word..in_word + take]);
            pos += take;
            cur += take as u64;
        }
    }

    /// Copy `data` into the pool starting at `addr`. Individual words are
    /// updated atomically (read-modify-write for partial words); the transfer
    /// as a whole is not atomic.
    pub fn write_bytes(&self, addr: PmAddr, data: &[u8]) {
        self.check(addr, data.len() as u64)
            .expect("write_bytes: out of bounds");
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut pos = 0usize;
        let mut cur = addr.0;
        while pos < data.len() {
            let word_idx = (cur / 8) as usize;
            let in_word = (cur % 8) as usize;
            let take = (8 - in_word).min(data.len() - pos);
            if take == 8 {
                let mut w = [0u8; 8];
                w.copy_from_slice(&data[pos..pos + 8]);
                self.words[word_idx].store(u64::from_le_bytes(w), Ordering::Release);
            } else {
                // Partial word: read-modify-write. Safe because the upper
                // layers never let two writers touch the same region
                // concurrently (exclusive log ownership / bucket locks).
                let mut w = self.words[word_idx].load(Ordering::Acquire).to_le_bytes();
                w[in_word..in_word + take].copy_from_slice(&data[pos..pos + take]);
                self.words[word_idx].store(u64::from_le_bytes(w), Ordering::Release);
            }
            pos += take;
            cur += take as u64;
        }
        self.mark_dirty(addr.0, data.len() as u64);
    }

    fn mark_dirty(&self, addr: u64, len: u64) {
        if !self.config.track_persistence || len == 0 {
            return;
        }
        let first = addr / 64;
        let last = (addr + len - 1) / 64;
        let mut dirty = self.dirty_lines.lock();
        for line in first..=last {
            dirty.insert(line);
        }
    }

    /// Emulate `clwb` over the cache lines covering `[addr, addr+len)`.
    pub fn persist(&self, addr: PmAddr, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr.0 / 64;
        let last = (addr.0 + len - 1) / 64;
        self.flushes.fetch_add(last - first + 1, Ordering::Relaxed);
        if self.config.track_persistence {
            let mut dirty = self.dirty_lines.lock();
            for line in first..=last {
                dirty.remove(&line);
            }
        }
    }

    /// Emulate `sfence`.
    pub fn drain(&self) {
        self.fences.fetch_add(1, Ordering::Relaxed);
    }

    /// Simulate a power failure: every cache line written since its last
    /// `persist` is destroyed (zeroed).  Only meaningful when the pool was
    /// created with `track_persistence = true`.
    pub fn simulate_crash(&self) {
        if !self.config.track_persistence {
            return;
        }
        let mut dirty = self.dirty_lines.lock();
        for line in dirty.drain() {
            let start_word = (line * 64 / 8) as usize;
            for w in 0..8 {
                if let Some(slot) = self.words.get(start_word + w) {
                    slot.store(0, Ordering::Release);
                }
            }
        }
    }

    /// Number of currently dirty (unpersisted) cache lines.
    pub fn dirty_line_count(&self) -> usize {
        self.dirty_lines.lock().len()
    }

    /// Snapshot pool statistics.
    pub fn stats(&self) -> PmemStats {
        let alloc = self.allocator.lock();
        PmemStats {
            allocated_bytes: alloc.allocated_bytes(),
            freed_bytes: alloc.freed_bytes(),
            high_water_mark: alloc.high_water_mark(),
            flushes: self.flushes.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::new(PmemConfig::small_for_tests())
    }

    #[test]
    fn word_roundtrip_and_cas() {
        let p = pool();
        let a = p.alloc(8).unwrap();
        p.write_u64(a, 42);
        assert_eq!(p.read_u64(a), 42);
        assert_eq!(p.cas_u64(a, 42, 43), Ok(42));
        assert_eq!(p.cas_u64(a, 42, 44), Err(43));
        assert_eq!(p.read_u64(a), 43);
    }

    #[test]
    fn unaligned_byte_io() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let data: Vec<u8> = (0..37).collect();
        p.write_bytes(a.offset(3), &data);
        let mut out = vec![0u8; 37];
        p.read_bytes(a.offset(3), &mut out);
        assert_eq!(out, data);
        // Bytes before offset 3 must be untouched.
        let mut head = [0u8; 3];
        p.read_bytes(a, &mut head);
        assert_eq!(head, [0, 0, 0]);
    }

    #[test]
    fn misaligned_word_access_is_rejected() {
        let p = pool();
        let a = p.alloc(16).unwrap();
        assert!(p.word_index(a.offset(4)).is_err());
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let p = pool();
        let cap = p.capacity();
        assert!(p.check(PmAddr(cap - 4), 8).is_err());
        assert!(p.check(PmAddr(cap), 1).is_err());
        assert!(p.check(PmAddr(0), 8).is_ok());
    }

    #[test]
    fn crash_destroys_unpersisted_data_only() {
        let p = pool();
        let a = p.alloc(128).unwrap();
        let b = p.alloc(128).unwrap();
        p.write_bytes(a, &[0xAA; 64]);
        p.persist(a, 64);
        p.drain();
        p.write_bytes(b, &[0xBB; 64]);
        // b was never persisted.
        p.simulate_crash();
        let mut out = vec![0u8; 64];
        p.read_bytes(a, &mut out);
        assert_eq!(out, vec![0xAA; 64]);
        p.read_bytes(b, &mut out);
        assert_eq!(out, vec![0u8; 64]);
    }

    #[test]
    fn stats_track_activity() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_bytes(a, &[1u8; 64]);
        p.persist(a, 64);
        p.drain();
        let mut out = vec![0u8; 64];
        p.read_bytes(a, &mut out);
        let s = p.stats();
        assert_eq!(s.allocated_bytes, 64);
        assert!(s.flushes >= 1);
        assert_eq!(s.fences, 1);
        assert!(s.bytes_written >= 64);
        assert!(s.bytes_read >= 64);
        p.free(a, 64);
        assert_eq!(p.stats().allocated_bytes, 0);
    }

    #[test]
    fn null_addr() {
        assert!(PmAddr::NULL.is_null());
        assert!(!PmAddr(8).is_null());
        assert_eq!(PmAddr(8).offset(8), PmAddr(16));
    }

    #[test]
    fn concurrent_word_writes_do_not_corrupt() {
        use std::sync::Arc;
        let p = Arc::new(PmemPool::new(PmemConfig::with_capacity(1 << 20)));
        let a = p.alloc(8 * 64).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let addr = a.offset((i % 64) * 8);
                    p.write_u64(addr, t * 1_000_000 + i);
                    let v = p.read_u64(addr);
                    // The value must always be a value some thread wrote
                    // in this pattern (no torn words).
                    assert!(v % 1_000_000 < 1000);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
