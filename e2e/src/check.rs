//! The benchmark's own correctness check. Values describe themselves —
//! key id, per-key version, checksum filler — so every reply can be judged
//! without a second copy of the data, and the ledger below knows which
//! versions a reply may legitimately carry.

use crate::gen::{key_bytes, mix};
use dinomo_dpm::DpmNode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of the header: key id and version, little-endian.
const HEADER: usize = 16;

/// The value of `key` at `version`, `len` bytes long (`len >= 16`, a
/// multiple of 8): header, then a filler stream seeded by both, so a value
/// spliced from two writes or two keys fails the check.
pub fn encode_value(key: u64, version: u64, len: usize) -> Vec<u8> {
    debug_assert!(len >= HEADER && len.is_multiple_of(8));
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let mut word = filler_seed(key, version);
    while out.len() < len {
        word = mix(word);
        out.extend_from_slice(&word.to_le_bytes());
    }
    out
}

fn filler_seed(key: u64, version: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.rotate_left(32)
}

/// Decode a value read for `key`: its version, or `None` when the bytes are
/// malformed, truncated or belong to another key.
pub fn decode_value(key: u64, bytes: &[u8], len: usize) -> Option<u64> {
    if bytes.len() != len || bytes[..8] != key.to_le_bytes() {
        return None;
    }
    let version = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let mut word = filler_seed(key, version);
    for chunk in bytes[HEADER..].chunks_exact(8) {
        word = mix(word);
        if chunk != word.to_le_bytes() {
            return None;
        }
    }
    Some(version)
}

/// What the benchmark knows about every key: the newest version handed to
/// a writer (`issued`) and the newest version whose write was acknowledged
/// (`acked`). Versions of one key are totally ordered because each key has
/// one writer thread (see [`crate::gen`]).
#[derive(Debug)]
pub struct Ledger {
    issued: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    pub value_len: usize,
    /// Replies that broke the contract: malformed, foreign, missing, from
    /// the future, or (unless `tolerate_stale`) older than an acked write.
    pub violations: AtomicU64,
    /// Reads that returned a version older than one already acknowledged.
    /// Legitimate only after a fail-stop KN took its buffered acked writes
    /// with it (`write_batch_ops > 1` acknowledges before the flush).
    pub stale_reads: AtomicU64,
    tolerate_stale: bool,
}

impl Ledger {
    /// All keys at version 1 (what set-up loads).
    pub fn new(keys: u64, value_len: usize, tolerate_stale: bool) -> Self {
        Ledger {
            issued: (0..keys).map(|_| AtomicU64::new(1)).collect(),
            acked: (0..keys).map(|_| AtomicU64::new(1)).collect(),
            value_len,
            violations: AtomicU64::new(0),
            stale_reads: AtomicU64::new(0),
            tolerate_stale,
        }
    }

    pub fn keys(&self) -> u64 {
        self.issued.len() as u64
    }

    /// The next value to write for `key`; only `key`'s writer thread calls
    /// this.
    pub fn next_write(&self, key: u64) -> (u64, Vec<u8>) {
        let version = self.issued[key as usize].fetch_add(1, Ordering::Relaxed) + 1;
        (version, encode_value(key, version, self.value_len))
    }

    /// The write of `version` was acknowledged. Release pairs with the
    /// Acquire in `read_floor`: a reader that sees the ack also sees the
    /// write it acknowledges as complete.
    pub fn acked(&self, key: u64, version: u64) {
        self.acked[key as usize].fetch_max(version, Ordering::Release);
    }

    /// Lowest version a read submitted from now on may return.
    pub fn read_floor(&self, key: u64) -> u64 {
        self.acked[key as usize].load(Ordering::Acquire)
    }

    /// Judge a read reply for `key` whose floor was taken before it was
    /// submitted. Returns `true` when the reply is acceptable.
    pub fn check_read(&self, key: u64, floor: u64, reply: Option<&[u8]>) -> bool {
        let ceiling = self.issued[key as usize].load(Ordering::Relaxed);
        match reply.and_then(|bytes| decode_value(key, bytes, self.value_len)) {
            Some(v) if v >= floor && v <= ceiling => true,
            Some(v) if v < floor && self.tolerate_stale => {
                self.stale_reads.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => {
                self.violations.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Sweep every key through `DpmNode::local_read` (call after
    /// `quiesce()` or recovery, with no client running). Returns the acked
    /// writes found missing — `sum(acked - stored)` over keys that went
    /// back — and counts anything malformed, foreign, missing or newer
    /// than issued as a violation.
    pub fn sweep(&self, dpm: &DpmNode) -> u64 {
        let mut lost = 0;
        for key in 0..self.keys() {
            let stored = dpm
                .local_read(&key_bytes(key))
                .and_then(|bytes| decode_value(key, &bytes, self.value_len));
            let acked = self.acked[key as usize].load(Ordering::Acquire);
            let issued = self.issued[key as usize].load(Ordering::Relaxed);
            match stored {
                Some(v) if v > issued => {
                    self.violations.fetch_add(1, Ordering::Relaxed);
                }
                Some(v) => lost += acked.saturating_sub(v),
                None => {
                    self.violations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_damage() {
        let v = encode_value(17, 3, 128);
        assert_eq!(v.len(), 128);
        assert_eq!(decode_value(17, &v, 128), Some(3));
        assert_eq!(decode_value(18, &v, 128), None, "foreign key");
        assert_eq!(decode_value(17, &v[..120], 128), None, "truncated");
        let mut torn = v.clone();
        torn[64..].copy_from_slice(&encode_value(17, 4, 128)[64..]);
        assert_eq!(
            decode_value(17, &torn, 128),
            None,
            "spliced from two writes"
        );
    }

    #[test]
    fn ledger_accepts_the_window_and_nothing_else() {
        let ledger = Ledger::new(4, 32, false);
        let (v2, bytes2) = ledger.next_write(1);
        assert_eq!(v2, 2);
        // In flight: both the old and the new version are acceptable.
        let floor = ledger.read_floor(1);
        assert!(ledger.check_read(1, floor, Some(&encode_value(1, 1, 32))));
        assert!(ledger.check_read(1, floor, Some(&bytes2)));
        ledger.acked(1, v2);
        let floor = ledger.read_floor(1);
        assert!(
            !ledger.check_read(1, floor, Some(&encode_value(1, 1, 32))),
            "stale"
        );
        assert!(
            !ledger.check_read(1, floor, Some(&encode_value(1, 3, 32))),
            "future"
        );
        assert!(!ledger.check_read(1, floor, None), "missing");
        assert_eq!(ledger.violations.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn stale_reads_are_counted_not_failed_when_tolerated() {
        let ledger = Ledger::new(2, 32, true);
        let (v, _) = ledger.next_write(0);
        ledger.acked(0, v);
        assert!(ledger.check_read(0, ledger.read_floor(0), Some(&encode_value(0, 1, 32))));
        assert_eq!(ledger.stale_reads.load(Ordering::Relaxed), 1);
        assert_eq!(ledger.violations.load(Ordering::Relaxed), 0);
    }
}
