//! The unified request model of the batched client API.
//!
//! Every client request is an [`Op`]; every response is a [`Reply`]. The
//! per-key convenience methods on [`crate::KvsClient`] are thin wrappers
//! that submit a batch of one (as a borrowed `OpRef`, the form the request
//! path executes) exactly as [`crate::KvsClient::execute`] does a singleton,
//! and the batched path submits many at once so the client can group them
//! by owner KVS node and amortize routing, node lookup and shard locking —
//! the same request-batching idea the paper uses to amortize log writes
//! (§3.6).

use crate::error::KvsError;
use crate::Result;

/// A single client operation over variable-sized keys and values.
///
/// Constructors accept anything byte-like (`&[u8]`, `&str`, `Vec<u8>`,
/// arrays), matching the paper's §3 API of `insert`, `update`, `lookup` and
/// `delete`:
///
/// ```
/// use dinomo_core::Op;
///
/// let ops = vec![
///     Op::insert("user1", "v1"),
///     Op::lookup("user1"),
///     Op::delete(b"user1".to_vec()),
/// ];
/// assert_eq!(ops[1].key(), b"user1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `insert(key, value)`: write a value under a key. Inserts are
    /// **upserts** (see [`crate::KvsClient::insert`] for the semantics).
    Insert {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// `update(key, value)`: overwrite the value of a key.
    Update {
        /// The key.
        key: Vec<u8>,
        /// The new value.
        value: Vec<u8>,
    },
    /// `lookup(key)`: read a key's current value.
    Lookup {
        /// The key.
        key: Vec<u8>,
    },
    /// `delete(key)`: remove a key.
    Delete {
        /// The key.
        key: Vec<u8>,
    },
    /// `scan(start, n)`: read up to `n` key/value pairs in key order,
    /// starting at the smallest key `>= start`. Served from the ordered
    /// secondary index beside the hash index; the client fans a scan out
    /// to every live KVS node and merges the sorted partial results.
    Scan {
        /// Inclusive lower bound of the range.
        start: Vec<u8>,
        /// Maximum number of pairs to return.
        n: usize,
    },
}

impl Op {
    /// Build an insert.
    pub fn insert(key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> Self {
        Op::Insert {
            key: key.as_ref().to_vec(),
            value: value.as_ref().to_vec(),
        }
    }

    /// Build an update.
    pub fn update(key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> Self {
        Op::Update {
            key: key.as_ref().to_vec(),
            value: value.as_ref().to_vec(),
        }
    }

    /// Build a lookup.
    pub fn lookup(key: impl AsRef<[u8]>) -> Self {
        Op::Lookup {
            key: key.as_ref().to_vec(),
        }
    }

    /// Build a delete.
    pub fn delete(key: impl AsRef<[u8]>) -> Self {
        Op::Delete {
            key: key.as_ref().to_vec(),
        }
    }

    /// Build a scan.
    pub fn scan(start: impl AsRef<[u8]>, n: usize) -> Self {
        Op::Scan {
            start: start.as_ref().to_vec(),
            n,
        }
    }

    /// The key this operation targets (the start key, for scans).
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Insert { key, .. }
            | Op::Update { key, .. }
            | Op::Lookup { key }
            | Op::Delete { key } => key,
            Op::Scan { start, .. } => start,
        }
    }

    /// `true` for inserts, updates and deletes.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Lookup { .. } | Op::Scan { .. })
    }

    /// `true` for scans (which route to every node instead of one owner).
    pub fn is_scan(&self) -> bool {
        matches!(self, Op::Scan { .. })
    }

    /// The borrowed form the request path executes.
    pub(crate) fn view(&self) -> OpRef<'_> {
        match self {
            Op::Insert { key, value } | Op::Update { key, value } => OpRef::Put(key, value),
            Op::Lookup { key } => OpRef::Lookup(key),
            Op::Delete { key } => OpRef::Delete(key),
            Op::Scan { start, n } => OpRef::Scan(start, *n),
        }
    }
}

/// A borrowed [`Op`]: what the request path routes and executes, so a
/// per-key call (which only borrows its key and value) travels the same
/// path as a batch without building an owned `Op`. Inserts and updates are
/// the same upsert, hence one `Put`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpRef<'a> {
    Lookup(&'a [u8]),
    Put(&'a [u8], &'a [u8]),
    Delete(&'a [u8]),
    Scan(&'a [u8], usize),
}

impl<'a> OpRef<'a> {
    /// The key this operation targets (the start key, for scans).
    pub(crate) fn key(self) -> &'a [u8] {
        match self {
            OpRef::Lookup(key) | OpRef::Put(key, _) | OpRef::Delete(key) | OpRef::Scan(key, _) => {
                key
            }
        }
    }

    /// `true` for puts and deletes.
    pub(crate) fn is_write(self) -> bool {
        matches!(self, OpRef::Put(..) | OpRef::Delete(_))
    }

    /// The reply for this op when the node returned `read` (lookups carry
    /// the read value, writes acknowledge). Scans never take this path —
    /// the client merges fanned-out partial results into [`Reply::Scan`]
    /// itself.
    pub(crate) fn reply_from(self, read: Option<Vec<u8>>) -> Reply {
        match self {
            OpRef::Lookup(_) => Reply::Value(read),
            _ => Reply::Done,
        }
    }
}

/// The per-operation outcome of [`crate::KvsClient::execute`].
///
/// Replies are positional: `execute(ops)[i]` answers `ops[i]`. The
/// accessors cover the common shapes — peeking at a read
/// ([`Reply::value`]), converting to the classic `Result` forms
/// ([`Reply::into_value`], [`Reply::into_ack`]) and checking for errors:
///
/// ```
/// use dinomo_core::{Kvs, Op, Reply};
///
/// let kvs = Kvs::builder().small_for_tests().build().unwrap();
/// let client = kvs.client();
///
/// let replies = client.execute(vec![
///     Op::insert("k", "v"),
///     Op::lookup("k"),
///     Op::lookup("missing"),
/// ]);
/// assert_eq!(replies[0], Reply::Done);
/// assert_eq!(replies[1].value(), Some(&b"v"[..]));
/// assert_eq!(replies[2], Reply::Value(None));
/// assert!(replies.iter().all(Reply::is_ok));
/// assert_eq!(replies[1].clone().into_value().unwrap(), Some(b"v".to_vec()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A write (insert/update/delete) was applied.
    Done,
    /// A lookup completed; `None` means the key does not exist.
    Value(Option<Vec<u8>>),
    /// A scan completed: up to `n` key/value pairs in strictly increasing
    /// key order (fewer when the key space ends first).
    Scan(Vec<(Vec<u8>, Vec<u8>)>),
    /// The operation failed after exhausting routing retries (or hit a
    /// non-retryable error such as a persistent-memory failure).
    Error(KvsError),
}

impl Reply {
    /// `true` unless the operation failed.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Reply::Error(_))
    }

    /// The read bytes, if this is a successful lookup of an existing key.
    pub fn value(&self) -> Option<&[u8]> {
        match self {
            Reply::Value(Some(v)) => Some(v),
            _ => None,
        }
    }

    /// The error, if the operation failed.
    pub fn err(&self) -> Option<&KvsError> {
        match self {
            Reply::Error(e) => Some(e),
            _ => None,
        }
    }

    /// The scanned pairs, if this is a successful scan.
    pub fn pairs(&self) -> Option<&[(Vec<u8>, Vec<u8>)]> {
        match self {
            Reply::Scan(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Convert a lookup reply into the classic `Result<Option<Vec<u8>>>`
    /// shape (writes convert to `Ok(None)`; scans to their first value).
    pub fn into_value(self) -> Result<Option<Vec<u8>>> {
        match self {
            Reply::Value(v) => Ok(v),
            Reply::Done => Ok(None),
            Reply::Scan(pairs) => Ok(pairs.into_iter().next().map(|(_, v)| v)),
            Reply::Error(e) => Err(e),
        }
    }

    /// Convert a scan reply into `Result<Vec<(key, value)>>` (non-scan
    /// successes convert to an empty list).
    pub fn into_pairs(self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self {
            Reply::Scan(pairs) => Ok(pairs),
            Reply::Error(e) => Err(e),
            _ => Ok(Vec::new()),
        }
    }

    /// Convert a write reply into `Result<()>` (a lookup reply converts to
    /// `Ok(())` as long as it succeeded).
    pub fn into_ack(self) -> Result<()> {
        match self {
            Reply::Error(e) => Err(e),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_accept_anything_byte_like() {
        assert_eq!(Op::insert("k", b"v").key(), b"k");
        assert_eq!(Op::update(b"k", [1u8, 2]).key(), b"k");
        assert_eq!(Op::lookup("k"), Op::Lookup { key: b"k".to_vec() });
        assert!(Op::delete("k").is_write());
        assert!(!Op::lookup("k").is_write());
    }

    #[test]
    fn reply_accessors_and_conversions() {
        let hit = Reply::Value(Some(b"v".to_vec()));
        assert!(hit.is_ok());
        assert_eq!(hit.value(), Some(&b"v"[..]));
        assert_eq!(hit.clone().into_value().unwrap(), Some(b"v".to_vec()));
        assert!(hit.into_ack().is_ok());

        let miss = Reply::Value(None);
        assert_eq!(miss.value(), None);
        assert_eq!(miss.into_value().unwrap(), None);

        assert!(Reply::Done.is_ok());
        assert!(Reply::Done.into_ack().is_ok());

        let failed = Reply::Error(KvsError::NoNodes);
        assert!(!failed.is_ok());
        assert_eq!(failed.err(), Some(&KvsError::NoNodes));
        assert!(failed.clone().into_value().is_err());
        assert!(failed.into_ack().is_err());
    }

    #[test]
    fn scan_op_and_reply_accessors() {
        let op = Op::scan("k010", 5);
        assert_eq!(op.key(), b"k010");
        assert!(!op.is_write());
        assert!(op.is_scan());
        assert!(!Op::lookup("k").is_scan());

        let pairs = vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
        ];
        let reply = Reply::Scan(pairs.clone());
        assert!(reply.is_ok());
        assert_eq!(reply.pairs(), Some(&pairs[..]));
        assert_eq!(reply.clone().into_pairs().unwrap(), pairs);
        assert_eq!(reply.clone().into_value().unwrap(), Some(b"1".to_vec()));
        assert!(reply.into_ack().is_ok());
        assert_eq!(Reply::Done.pairs(), None);
        assert_eq!(Reply::Done.into_pairs().unwrap(), Vec::new());
        assert!(Reply::Error(KvsError::NoNodes).into_pairs().is_err());
    }

    #[test]
    fn replies_are_shaped_by_the_op_kind() {
        assert_eq!(
            Op::lookup("k").view().reply_from(Some(b"v".to_vec())),
            Reply::Value(Some(b"v".to_vec()))
        );
        assert_eq!(Op::lookup("k").view().reply_from(None), Reply::Value(None));
        assert_eq!(Op::insert("k", "v").view().reply_from(None), Reply::Done);
        assert_eq!(Op::delete("k").view().reply_from(None), Reply::Done);
    }
}
