//! A simple segregated free-list allocator over the pool.
//!
//! The DPM allocates a small number of object shapes — 8 MB log segments,
//! hash-table bucket arrays, 16-byte indirect cells and the two metadata
//! slots — so a bump allocator with per-size free lists is sufficient and
//! keeps allocation off any hot path (KNs pre-allocate log segments ahead of
//! time, §4).

use crate::error::PmemError;
use std::collections::BTreeMap;

/// Byte offset 0 is reserved so it can act as a null pointer; allocations
/// start at this offset.
pub(crate) const ALLOC_BASE: u64 = 64;

#[derive(Debug)]
pub(crate) struct Allocator {
    capacity: u64,
    bump: u64,
    /// size class (rounded-up length) -> freed offsets of exactly that class.
    free_lists: BTreeMap<u64, Vec<u64>>,
    allocated_bytes: u64,
    freed_bytes: u64,
    /// Remaining number of allocations to fail (failure injection).
    fail_next: u64,
}

impl Allocator {
    pub(crate) fn new(capacity: u64) -> Self {
        Allocator {
            capacity,
            bump: ALLOC_BASE,
            free_lists: BTreeMap::new(),
            allocated_bytes: 0,
            freed_bytes: 0,
            fail_next: 0,
        }
    }

    pub(crate) fn size_class(len: u64) -> u64 {
        len.max(8).div_ceil(8) * 8
    }

    pub(crate) fn alloc(&mut self, len: u64) -> Result<u64, PmemError> {
        if self.fail_next > 0 {
            self.fail_next -= 1;
            return Err(PmemError::InjectedFailure);
        }
        let class = Self::size_class(len);
        if let Some(list) = self.free_lists.get_mut(&class) {
            if let Some(addr) = list.pop() {
                self.allocated_bytes += class;
                self.freed_bytes = self.freed_bytes.saturating_sub(class);
                return Ok(addr);
            }
        }
        if self.bump + class > self.capacity {
            return Err(PmemError::OutOfMemory {
                requested: class,
                available: self.capacity.saturating_sub(self.bump),
            });
        }
        let addr = self.bump;
        self.bump += class;
        self.allocated_bytes += class;
        Ok(addr)
    }

    pub(crate) fn free(&mut self, addr: u64, len: u64) {
        let class = Self::size_class(len);
        self.free_lists.entry(class).or_default().push(addr);
        self.allocated_bytes = self.allocated_bytes.saturating_sub(class);
        self.freed_bytes += class;
    }

    pub(crate) fn inject_failures(&mut self, count: u64) {
        self.fail_next = count;
    }

    pub(crate) fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    pub(crate) fn freed_bytes(&self) -> u64 {
        self.freed_bytes
    }

    pub(crate) fn high_water_mark(&self) -> u64 {
        self.bump
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_aligned_disjoint_regions() {
        let mut a = Allocator::new(1024);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(10).unwrap();
        assert_eq!(x % 8, 0);
        assert_eq!(y % 8, 0);
        assert!(y >= x + 16, "regions must not overlap");
        assert_eq!(a.allocated_bytes(), 32);
    }

    #[test]
    fn free_list_reuses_same_size_class() {
        let mut a = Allocator::new(1024);
        let x = a.alloc(64).unwrap();
        a.free(x, 64);
        let y = a.alloc(60).unwrap(); // same 64-byte class
        assert_eq!(x, y);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a = Allocator::new(128);
        assert!(a.alloc(32).is_ok());
        let err = a.alloc(1024).unwrap_err();
        match err {
            PmemError::OutOfMemory { requested, .. } => assert_eq!(requested, 1024),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn failure_injection() {
        let mut a = Allocator::new(1024);
        a.inject_failures(2);
        assert_eq!(a.alloc(8), Err(PmemError::InjectedFailure));
        assert_eq!(a.alloc(8), Err(PmemError::InjectedFailure));
        assert!(a.alloc(8).is_ok());
    }

    #[test]
    fn size_class_rounds_up_to_words() {
        assert_eq!(Allocator::size_class(1), 8);
        assert_eq!(Allocator::size_class(8), 8);
        assert_eq!(Allocator::size_class(9), 16);
        assert_eq!(Allocator::size_class(0), 8);
    }
}
