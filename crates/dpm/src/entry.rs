//! Log-entry encoding.
//!
//! A log entry is written by a KVS node into its exclusive segment and later
//! parsed by a DPM processor thread during merging (and by the recovery
//! path).  Layout (8-byte aligned):
//!
//! ```text
//! offset  0: u32 key_len
//! offset  4: u32 val_len
//! offset  8: u64 seq            (cluster-global monotonic sequence number)
//! offset 16: u8  op             (1 = put, 2 = delete)
//! offset 17: 7 bytes padding
//! offset 24: key bytes
//! offset 24 + key_len: value bytes
//! ... padding to an 8-byte boundary ...
//! last 8 bytes: seal word = SEAL_MAGIC ^ seq   (commit marker)
//! ```
//!
//! The seal word is written last; recovery treats an entry whose seal does
//! not match as torn and discards it together with the rest of that batch
//! (log writes within a batch are sequential).
//!
//! Decoding copies nothing out of the pool: a [`DecodedEntry`] is the
//! header, the seal check and the entry's extent. The DPM processors
//! compare a key against the pool in place ([`key_matches`]), read only
//! the header where a sequence number is all they need ([`read_header`]),
//! and read a key they must hash into a buffer they reuse from entry to
//! entry ([`DecodedEntry::read_key_into`]).

use crate::loc::PackedLoc;
use dinomo_pmem::{PmAddr, PmemPool};

/// Size of the fixed entry header in bytes.
pub const HEADER_BYTES: u64 = 24;
/// Size of the trailing seal word.
pub const SEAL_BYTES: u64 = 8;
/// Magic value mixed with the sequence number to form the seal.
pub const SEAL_MAGIC: u64 = 0xD140_40D1_5EA1_u64;

/// Operation recorded in a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    /// Insert or update.
    Put,
    /// Delete (tombstone).
    Delete,
}

impl LogOp {
    fn to_byte(self) -> u8 {
        match self {
            LogOp::Put => 1,
            LogOp::Delete => 2,
        }
    }

    fn from_byte(b: u8) -> Option<LogOp> {
        match b {
            1 => Some(LogOp::Put),
            2 => Some(LogOp::Delete),
            _ => None,
        }
    }
}

/// Decoded header of a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHeader {
    /// Key length in bytes.
    pub key_len: u32,
    /// Value length in bytes.
    pub val_len: u32,
    /// Cluster-global sequence number.
    pub seq: u64,
    /// Operation.
    pub op: LogOp,
}

/// Total encoded size of an entry with the given key/value lengths.
pub fn entry_size(key_len: usize, val_len: usize) -> u64 {
    let body = HEADER_BYTES + key_len as u64 + val_len as u64;
    body.next_multiple_of(8) + SEAL_BYTES
}

/// Encode an entry into `buf` (appending). Returns the byte offset, within
/// the appended region, at which the value starts.
pub fn encode_entry(buf: &mut Vec<u8>, key: &[u8], value: &[u8], op: LogOp, seq: u64) -> u64 {
    let start = buf.len() as u64;
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(op.to_byte());
    buf.extend_from_slice(&[0u8; 7]);
    let value_offset = buf.len() as u64 - start + key.len() as u64;
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
    while !(buf.len() as u64 - start).is_multiple_of(8) {
        buf.push(0);
    }
    buf.extend_from_slice(&(SEAL_MAGIC ^ seq).to_le_bytes());
    debug_assert_eq!(buf.len() as u64 - start, entry_size(key.len(), value.len()));
    value_offset
}

/// A decoded view of an entry stored in the pool. It owns no bytes of the
/// entry: the key and value stay in the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedEntry {
    /// Header fields.
    pub header: EntryHeader,
    /// Address of the value bytes inside the pool.
    pub value_addr: PmAddr,
    /// Total size of the entry on the log.
    pub total_len: u64,
    /// `true` if the seal word matched (the entry is committed).
    pub sealed: bool,
}

impl DecodedEntry {
    /// Location of the whole entry (as stored in the metadata index).
    pub fn entry_loc(&self, entry_addr: PmAddr) -> PackedLoc {
        PackedLoc::direct(entry_addr, self.total_len)
    }

    /// Address of the key bytes inside the pool.
    pub fn key_addr(&self) -> PmAddr {
        PmAddr(self.value_addr.0 - u64::from(self.header.key_len))
    }

    /// Read the key bytes into `buf`, replacing its contents. A caller
    /// decoding many entries passes the same buffer each time, so reading
    /// a key allocates only when it is longer than every key before it.
    pub fn read_key_into(&self, pool: &PmemPool, buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(self.header.key_len as usize, 0);
        pool.read_bytes(self.key_addr(), buf);
    }

    /// Read the key bytes from the pool into a fresh vector.
    pub fn read_key(&self, pool: &PmemPool) -> Vec<u8> {
        let mut key = Vec::new();
        self.read_key_into(pool, &mut key);
        key
    }

    /// `true` if the entry's key equals `key`, compared in place.
    pub fn key_is(&self, pool: &PmemPool, key: &[u8]) -> bool {
        self.header.key_len as usize == key.len() && pool_bytes_eq(pool, self.key_addr(), key)
    }

    /// Read the value bytes from the pool.
    pub fn read_value(&self, pool: &PmemPool) -> Vec<u8> {
        let mut v = vec![0u8; self.header.val_len as usize];
        pool.read_bytes(self.value_addr, &mut v);
        v
    }
}

/// Read and check the header of the entry at `addr`. Returns `None` if it
/// is obviously invalid (zero/oversized lengths or an unknown op code),
/// which recovery treats as the end of the written region.
pub fn read_header(pool: &PmemPool, addr: PmAddr, max_len: u64) -> Option<EntryHeader> {
    if max_len < HEADER_BYTES + SEAL_BYTES {
        return None;
    }
    let mut header = [0u8; HEADER_BYTES as usize];
    pool.read_bytes(addr, &mut header);
    let key_len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let val_len = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let seq = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let op = LogOp::from_byte(header[16])?;
    if key_len == 0 || entry_size(key_len as usize, val_len as usize) > max_len {
        return None;
    }
    Some(EntryHeader {
        key_len,
        val_len,
        seq,
        op,
    })
}

/// Decode the entry at `addr`: its header and whether its seal matches.
/// `None` under the same conditions as [`read_header`].
pub fn decode_entry(pool: &PmemPool, addr: PmAddr, max_len: u64) -> Option<DecodedEntry> {
    let header = read_header(pool, addr, max_len)?;
    let total = entry_size(header.key_len as usize, header.val_len as usize);
    let seal = pool.read_u64(addr.offset(total - SEAL_BYTES));
    Some(DecodedEntry {
        value_addr: addr.offset(HEADER_BYTES + u64::from(header.key_len)),
        total_len: total,
        sealed: seal == SEAL_MAGIC ^ header.seq,
        header,
    })
}

/// `true` if the entry at `addr` decodes and its key equals `key`: the
/// header and the key bytes are compared in the pool, nothing is copied.
pub fn key_matches(pool: &PmemPool, addr: PmAddr, max_len: u64, key: &[u8]) -> bool {
    read_header(pool, addr, max_len).is_some_and(|h| {
        h.key_len as usize == key.len() && pool_bytes_eq(pool, addr.offset(HEADER_BYTES), key)
    })
}

/// `true` if the pool bytes at `addr` equal `bytes`, read a stack chunk at
/// a time.
fn pool_bytes_eq(pool: &PmemPool, addr: PmAddr, bytes: &[u8]) -> bool {
    const CHUNK: usize = 64;
    let mut chunk = [0u8; CHUNK];
    bytes.chunks(CHUNK).enumerate().all(|(i, want)| {
        let got = &mut chunk[..want.len()];
        pool.read_bytes(addr.offset((i * CHUNK) as u64), got);
        got == want
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinomo_pmem::PmemConfig;

    #[test]
    fn encode_decode_round_trip() {
        let pool = PmemPool::new(PmemConfig::small_for_tests());
        let mut buf = Vec::new();
        let voff = encode_entry(&mut buf, b"user0001", &[7u8; 100], LogOp::Put, 55);
        assert_eq!(voff, HEADER_BYTES + 8);
        let addr = pool.alloc(buf.len() as u64).unwrap();
        pool.write_bytes(addr, &buf);
        let d = decode_entry(&pool, addr, buf.len() as u64).unwrap();
        assert_eq!(d.header.key_len, 8);
        assert_eq!(d.header.val_len, 100);
        assert_eq!(d.header.seq, 55);
        assert_eq!(d.header.op, LogOp::Put);
        assert_eq!(d.read_key(&pool), b"user0001");
        assert!(d.key_is(&pool, b"user0001"));
        assert!(!d.key_is(&pool, b"user0002"));
        assert!(!d.key_is(&pool, b"user000"));
        assert!(key_matches(&pool, addr, buf.len() as u64, b"user0001"));
        assert!(!key_matches(&pool, addr, buf.len() as u64, b"user0002"));
        assert_eq!(read_header(&pool, addr, buf.len() as u64), Some(d.header));
        assert!(d.sealed);
        assert_eq!(d.read_value(&pool), vec![7u8; 100]);
        assert_eq!(d.total_len, entry_size(8, 100));
    }

    #[test]
    fn keys_compare_in_place_across_chunk_boundaries() {
        let pool = PmemPool::new(PmemConfig::small_for_tests());
        let key: Vec<u8> = (0..150u8).collect();
        let mut buf = Vec::new();
        encode_entry(&mut buf, &key, b"v", LogOp::Put, 1);
        let addr = pool.alloc(buf.len() as u64).unwrap();
        pool.write_bytes(addr, &buf);
        assert!(key_matches(&pool, addr, buf.len() as u64, &key));
        for i in [0, 63, 64, 149] {
            let mut other = key.clone();
            other[i] ^= 1;
            assert!(
                !key_matches(&pool, addr, buf.len() as u64, &other),
                "byte {i}"
            );
        }
        assert!(!key_matches(&pool, addr, buf.len() as u64, &key[..149]));
    }

    #[test]
    fn delete_entries_have_no_value() {
        let pool = PmemPool::new(PmemConfig::small_for_tests());
        let mut buf = Vec::new();
        encode_entry(&mut buf, b"k1", &[], LogOp::Delete, 9);
        let addr = pool.alloc(buf.len() as u64).unwrap();
        pool.write_bytes(addr, &buf);
        let d = decode_entry(&pool, addr, buf.len() as u64).unwrap();
        assert_eq!(d.header.op, LogOp::Delete);
        assert_eq!(d.header.val_len, 0);
        assert!(d.sealed);
    }

    #[test]
    fn torn_entry_is_detected() {
        let pool = PmemPool::new(PmemConfig::small_for_tests());
        let mut buf = Vec::new();
        encode_entry(&mut buf, b"key", &[1u8; 32], LogOp::Put, 3);
        // Corrupt the seal.
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        let addr = pool.alloc(buf.len() as u64).unwrap();
        pool.write_bytes(addr, &buf);
        let d = decode_entry(&pool, addr, buf.len() as u64).unwrap();
        assert!(!d.sealed);
    }

    #[test]
    fn garbage_region_decodes_to_none() {
        let pool = PmemPool::new(PmemConfig::small_for_tests());
        let addr = pool.alloc(64).unwrap();
        // All zeroes: key_len 0 -> invalid.
        assert!(decode_entry(&pool, addr, 64).is_none());
        // Too small a window.
        assert!(decode_entry(&pool, addr, 8).is_none());
    }

    #[test]
    fn entry_size_is_aligned_and_includes_seal() {
        for (k, v) in [(1usize, 0usize), (8, 100), (13, 1027)] {
            let s = entry_size(k, v);
            assert_eq!(s % 8, 0);
            assert!(s >= HEADER_BYTES + (k + v) as u64 + SEAL_BYTES);
        }
    }

    #[test]
    fn multiple_entries_back_to_back() {
        let pool = PmemPool::new(PmemConfig::small_for_tests());
        let mut buf = Vec::new();
        encode_entry(&mut buf, b"aaa", &[1u8; 10], LogOp::Put, 1);
        let second_start = buf.len() as u64;
        encode_entry(&mut buf, b"bbbb", &[2u8; 20], LogOp::Put, 2);
        let addr = pool.alloc(buf.len() as u64).unwrap();
        pool.write_bytes(addr, &buf);
        let first = decode_entry(&pool, addr, buf.len() as u64).unwrap();
        assert_eq!(first.read_key(&pool), b"aaa");
        let second = decode_entry(
            &pool,
            addr.offset(second_start),
            buf.len() as u64 - second_start,
        )
        .unwrap();
        let mut key = Vec::new();
        second.read_key_into(&pool, &mut key);
        assert_eq!(key, b"bbbb");
        first.read_key_into(&pool, &mut key);
        assert_eq!(key, b"aaa");
        assert_eq!(second.header.seq, 2);
    }
}
