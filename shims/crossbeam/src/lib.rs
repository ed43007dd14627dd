//! Offline shim for the `crossbeam` crate.
//!
//! Provides `crossbeam::epoch`, a from-scratch epoch-based-reclamation
//! scheme mirroring the `crossbeam-epoch` API surface the workspace's
//! lock-free read paths need (see the module docs).

pub mod epoch;
