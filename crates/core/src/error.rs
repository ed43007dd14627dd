//! KVS error type.

use dinomo_pmem::PmemError;
use std::fmt;

/// Errors surfaced by the KVS public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvsError {
    /// The contacted KVS node does not own the key's range (the client must
    /// refresh its routing metadata and retry).
    NotOwner {
        /// Ownership-table version held by the rejecting node.
        current_version: u64,
    },
    /// The contacted KVS node has failed (requests time out).
    NodeFailed,
    /// The cluster currently has no KVS nodes.
    NoNodes,
    /// The target node is temporarily unavailable because it participates in
    /// an ongoing reconfiguration.
    Reconfiguring,
    /// The key does not exist (returned by `update` on a missing key).
    KeyNotFound,
    /// A persistent-memory allocation failed.
    Pmem(PmemError),
    /// The client retried routing too many times without converging.
    RoutingRetriesExhausted,
    /// The post-recovery invariant walk (`DpmNode::check_index`) failed
    /// after a simulated crash: recovery left the index inconsistent. The payload describes the first violated invariant.
    RecoveryCheckFailed(String),
}

impl fmt::Display for KvsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvsError::NotOwner { current_version } => {
                write!(
                    f,
                    "node does not own this key range (ownership version {current_version})"
                )
            }
            KvsError::NodeFailed => write!(f, "KVS node has failed"),
            KvsError::NoNodes => write!(f, "cluster has no KVS nodes"),
            KvsError::Reconfiguring => write!(f, "node is reconfiguring"),
            KvsError::KeyNotFound => write!(f, "key not found"),
            KvsError::Pmem(e) => write!(f, "persistent memory error: {e}"),
            KvsError::RoutingRetriesExhausted => write!(f, "routing retries exhausted"),
            KvsError::RecoveryCheckFailed(msg) => {
                write!(f, "post-recovery invariant check failed: {msg}")
            }
        }
    }
}

impl std::error::Error for KvsError {}

impl From<PmemError> for KvsError {
    fn from(e: PmemError) -> Self {
        KvsError::Pmem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: KvsError = PmemError::InjectedFailure.into();
        assert!(matches!(e, KvsError::Pmem(_)));
        assert!(KvsError::NotOwner { current_version: 3 }
            .to_string()
            .contains('3'));
        assert!(!KvsError::NodeFailed.to_string().is_empty());
    }
}
