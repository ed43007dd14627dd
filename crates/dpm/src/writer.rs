//! KN-side log writer: batches entries and commits them to DPM with a single
//! one-sided write (§3.6 "asynchronous post-processing of writes").

use crate::entry::{encode_entry, entry_size, LogOp};
use crate::loc::PackedLoc;
use crate::node::DpmNode;
use crate::segment::SegmentState;
use dinomo_pmem::{PmAddr, PmemError};
use dinomo_simnet::Nic;
use std::sync::Arc;

/// A write that has been made durable in the DPM log (but possibly not yet
/// merged into the metadata index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedWrite {
    /// The key written.
    pub key: Vec<u8>,
    /// Put or delete.
    pub op: LogOp,
    /// Address of the value bytes in DPM (valid for puts).
    pub value_addr: PmAddr,
    /// Length of the value in bytes.
    pub value_len: u32,
    /// Location of the full log entry (what the metadata index will point
    /// to once the entry is merged).
    pub entry_loc: PackedLoc,
}

#[derive(Debug)]
struct PendingEntry {
    key: Vec<u8>,
    op: LogOp,
    entry_offset: u64,
    value_offset: u64,
    value_len: u32,
}

/// A per-KN (or per-KN-thread) log writer.
///
/// Writes are appended to a local buffer; [`LogWriter::flush`] copies the
/// whole batch into the KN's current exclusive log segment with **one**
/// one-sided RDMA write, persists it, and hands the batch to the DPM merge
/// engine.  The writer automatically allocates a fresh segment (a two-sided
/// operation, off the hot path) when the current one fills up, blocking only
/// if the KN already has `unmerged_segment_threshold` sealed-but-unmerged
/// segments.
#[derive(Debug)]
pub struct LogWriter {
    dpm: Arc<DpmNode>,
    kn: u32,
    nic: Nic,
    buffer: Vec<u8>,
    pending: Vec<PendingEntry>,
    current: Option<Arc<SegmentState>>,
}

impl LogWriter {
    /// Create a writer for KVS node `kn` using `nic` for network accounting.
    pub fn new(dpm: Arc<DpmNode>, kn: u32, nic: Nic) -> Self {
        LogWriter {
            dpm,
            kn,
            nic,
            buffer: Vec::new(),
            pending: Vec::new(),
            current: None,
        }
    }

    /// The KVS node this writer belongs to.
    pub fn kn(&self) -> u32 {
        self.kn
    }

    /// Bytes currently buffered (not yet flushed).
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len()
    }

    /// Entries currently buffered.
    pub fn buffered_entries(&self) -> usize {
        self.pending.len()
    }

    /// `true` once the buffer has reached the configured batch size.
    pub fn should_flush(&self) -> bool {
        self.buffer.len() >= self.dpm.config().flush_batch_bytes
    }

    /// Buffer an insert/update. Returns the entry's global sequence number.
    pub fn append_put(&mut self, key: &[u8], value: &[u8]) -> u64 {
        self.append(key, value, LogOp::Put)
    }

    /// Buffer a delete (tombstone). Returns the entry's global sequence
    /// number.
    pub fn append_delete(&mut self, key: &[u8]) -> u64 {
        self.append(key, &[], LogOp::Delete)
    }

    fn append(&mut self, key: &[u8], value: &[u8], op: LogOp) -> u64 {
        assert!(!key.is_empty(), "keys must be non-empty");
        assert!(
            entry_size(key.len(), value.len()) <= self.dpm.config().segment_bytes,
            "entry larger than a log segment"
        );
        // Sequence numbers come from the cluster-global counter so entries
        // stay comparable when a key's writer changes across a
        // reconfiguration (the merge engine compares them to detect stale
        // entries).
        let seq = self.dpm.next_seq();
        let entry_offset = self.buffer.len() as u64;
        let value_offset_in_entry = encode_entry(&mut self.buffer, key, value, op, seq);
        self.pending.push(PendingEntry {
            key: key.to_vec(),
            op,
            entry_offset,
            value_offset: entry_offset + value_offset_in_entry,
            value_len: value.len() as u32,
        });
        seq
    }

    /// Flush the buffered batch to DPM. Returns one [`CommittedWrite`] per
    /// buffered entry, in order.  On return the batch is durable in the log
    /// (commit markers written and persisted) and queued for merging.
    pub fn flush(&mut self) -> Result<Vec<CommittedWrite>, PmemError> {
        if self.buffer.is_empty() {
            return Ok(Vec::new());
        }
        let batch_len = self.buffer.len() as u64;
        let segment = self.segment_with_space(batch_len)?;
        let offset = segment.record_append(batch_len, self.pending.len() as u64);
        let base = segment.base.offset(offset);

        // The entire batch is one one-sided RDMA write, then persisted.
        self.nic.one_sided_write(self.buffer.len());
        let pool = self.dpm.pool();
        pool.write_bytes(base, &self.buffer);
        pool.persist(base, batch_len);
        pool.drain();

        let commits: Vec<CommittedWrite> = self
            .pending
            .iter()
            .map(|p| {
                let entry_addr = base.offset(p.entry_offset);
                let entry_len = entry_size(p.key.len(), p.value_len as usize);
                CommittedWrite {
                    key: p.key.clone(),
                    op: p.op,
                    value_addr: base.offset(p.value_offset),
                    value_len: p.value_len,
                    entry_loc: PackedLoc::direct(entry_addr, entry_len),
                }
            })
            .collect();

        self.dpm.submit_merge_batch(&segment, offset, batch_len);
        self.buffer.clear();
        self.pending.clear();
        Ok(commits)
    }

    fn segment_with_space(&mut self, needed: u64) -> Result<Arc<SegmentState>, PmemError> {
        if let Some(seg) = &self.current {
            if seg.remaining() >= needed {
                return Ok(Arc::clone(seg));
            }
            self.dpm.seal_segment(seg);
        }
        // Allocating a new segment may have to wait for the merge engine to
        // drain (the paper's un-merged segment threshold, default 2).
        self.dpm.wait_for_merge_slack(self.kn);
        // Segment allocation is a two-sided operation to the DPM.
        self.nic.rpc(64, 64);
        let seg = self.dpm.allocate_segment(self.kn)?;
        assert!(seg.capacity >= needed, "batch larger than a fresh segment");
        self.current = Some(Arc::clone(&seg));
        Ok(seg)
    }

    /// Seal the current segment (used when a KN shuts down or hands its
    /// partition away).
    pub fn seal_current(&mut self) {
        if let Some(seg) = self.current.take() {
            self.dpm.seal_segment(&seg);
        }
    }

    /// Drop everything buffered but not yet flushed — the crash path. A
    /// buffered write lives only in KN DRAM (nothing has been sent to the
    /// log), so a fail-stop discards it; since a write is acknowledged
    /// only after [`LogWriter::flush`] returns, no acknowledged write is
    /// ever lost this way. Returns how many entries were discarded.
    pub fn discard_buffered(&mut self) -> usize {
        let discarded = self.pending.len();
        self.buffer.clear();
        self.pending.clear();
        discarded
    }
}
