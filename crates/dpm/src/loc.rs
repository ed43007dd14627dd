//! Packed 64-bit locations stored in the metadata index.
//!
//! The P-CLHT index stores a single 64-bit word per entry, so the location of
//! a log entry (address + length) plus the "is indirect" flag used for
//! selectively-replicated keys are packed into one word:
//!
//! ```text
//! bit 63        : indirect flag (the address points at an indirection cell)
//! bits 62..=47  : length in bytes (16 bits, up to 64 KiB)
//! bits 46..=0   : address (byte offset in the DPM pool, up to 128 TiB)
//! ```

use dinomo_pmem::PmAddr;

const ADDR_BITS: u32 = 47;
const LEN_BITS: u32 = 16;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;
const INDIRECT_BIT: u64 = 1 << 63;

/// Maximum length a packed location can describe.
pub const MAX_PACKED_LEN: u64 = LEN_MASK;

/// A packed (address, length, indirect) triple. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedLoc(u64);

impl PackedLoc {
    /// Pack a direct location.
    pub fn direct(addr: PmAddr, len: u64) -> Self {
        Self::pack(addr, len, false)
    }

    /// Pack a location that points at an indirection cell.
    pub fn indirect(addr: PmAddr, len: u64) -> Self {
        Self::pack(addr, len, true)
    }

    fn pack(addr: PmAddr, len: u64, indirect: bool) -> Self {
        assert!(addr.0 <= ADDR_MASK, "address {:#x} exceeds 47 bits", addr.0);
        assert!(len <= LEN_MASK, "length {len} exceeds 16 bits");
        let mut raw = (addr.0 & ADDR_MASK) | ((len & LEN_MASK) << ADDR_BITS);
        if indirect {
            raw |= INDIRECT_BIT;
        }
        PackedLoc(raw)
    }

    /// Reconstruct from the raw 64-bit word stored in the index.
    pub fn from_raw(raw: u64) -> Self {
        PackedLoc(raw)
    }

    /// The raw 64-bit word to store in the index.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Address component.
    pub fn addr(&self) -> PmAddr {
        PmAddr(self.0 & ADDR_MASK)
    }

    /// Length component in bytes.
    pub fn len(&self) -> u64 {
        (self.0 >> ADDR_BITS) & LEN_MASK
    }

    /// `true` if the length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if this location points at an indirection cell.
    pub fn is_indirect(&self) -> bool {
        self.0 & INDIRECT_BIT != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_direct_and_indirect() {
        let d = PackedLoc::direct(PmAddr(0x1234_5678), 1024);
        assert_eq!(d.addr(), PmAddr(0x1234_5678));
        assert_eq!(d.len(), 1024);
        assert!(!d.is_indirect());
        let i = PackedLoc::indirect(PmAddr(64), 16);
        assert!(i.is_indirect());
        assert_eq!(i.addr(), PmAddr(64));
        assert_eq!(i.len(), 16);
        assert_eq!(PackedLoc::from_raw(d.raw()), d);
    }

    #[test]
    fn extremes_fit() {
        let loc = PackedLoc::direct(PmAddr(ADDR_MASK), MAX_PACKED_LEN);
        assert_eq!(loc.addr().0, ADDR_MASK);
        assert_eq!(loc.len(), MAX_PACKED_LEN);
        let zero = PackedLoc::direct(PmAddr(0), 0);
        assert!(zero.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds 16 bits")]
    fn oversized_length_panics() {
        let _ = PackedLoc::direct(PmAddr(0), MAX_PACKED_LEN + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds 47 bits")]
    fn oversized_address_panics() {
        let _ = PackedLoc::direct(PmAddr(1 << 50), 8);
    }
}
