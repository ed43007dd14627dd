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

    /// The key this operation targets.
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Insert { key, .. }
            | Op::Update { key, .. }
            | Op::Lookup { key }
            | Op::Delete { key } => key,
        }
    }

    /// `true` for inserts, updates and deletes.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Lookup { .. })
    }

    /// The borrowed form the request path executes.
    pub(crate) fn view(&self) -> OpRef<'_> {
        match self {
            Op::Insert { key, value } | Op::Update { key, value } => OpRef::Put(key, value),
            Op::Lookup { key } => OpRef::Lookup(key),
            Op::Delete { key } => OpRef::Delete(key),
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
}

impl<'a> OpRef<'a> {
    /// The key this operation targets.
    pub(crate) fn key(self) -> &'a [u8] {
        match self {
            OpRef::Lookup(key) | OpRef::Put(key, _) | OpRef::Delete(key) => key,
        }
    }

    /// `true` for puts and deletes.
    pub(crate) fn is_write(self) -> bool {
        matches!(self, OpRef::Put(..) | OpRef::Delete(_))
    }

    /// The reply for this op when the node returned `read` (lookups carry
    /// the read value, writes acknowledge).
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

    /// Convert a lookup reply into the classic `Result<Option<Vec<u8>>>`
    /// shape (writes convert to `Ok(None)`).
    pub fn into_value(self) -> Result<Option<Vec<u8>>> {
        match self {
            Reply::Value(v) => Ok(v),
            Reply::Done => Ok(None),
            Reply::Error(e) => Err(e),
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
