//! Canonical key encoding.

/// Encode the logical key id `id` as a fixed-width byte-string key of
/// `key_len` bytes.
///
/// Short keys embed the id in big-endian binary (so 8-byte keys match the
/// paper exactly); longer keys get a human-readable `user...` prefix padded
/// with the zero-filled decimal id, which is convenient for debugging.
pub fn key_for(id: u64, key_len: usize) -> Vec<u8> {
    if key_len <= 16 {
        let mut k = vec![0u8; key_len];
        let bytes = id.to_be_bytes();
        let n = key_len.min(8);
        k[key_len - n..].copy_from_slice(&bytes[8 - n..]);
        k
    } else {
        let mut s = format!("user{:0width$}", id, width = key_len - 4);
        s.truncate(key_len);
        s.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_keys_are_eight_bytes_and_unique() {
        assert_eq!(key_for(1, 8), [0, 0, 0, 0, 0, 0, 0, 1]);
        assert_ne!(key_for(1, 8), key_for(2, 8));
    }

    #[test]
    fn long_keys_are_padded_and_fixed_width() {
        let k = key_for(42, 24);
        assert_eq!(k.len(), 24);
        assert!(k.starts_with(b"user"));
    }

    #[test]
    fn small_key_lengths_do_not_panic() {
        assert_eq!(key_for(300, 1).len(), 1);
        assert_eq!(key_for(1, 4).len(), 4);
        assert_ne!(key_for(5, 4), key_for(6, 4));
    }
}
