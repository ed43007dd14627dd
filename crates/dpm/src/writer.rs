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
/// one-sided RDMA write (one per segment, for a batch larger than a
/// segment), persists it, and hands the batch to the DPM merge engine.
/// The writer automatically allocates a fresh segment (a two-sided
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
    /// buffered entry, in order.  On `Ok` every buffered entry is durable in
    /// the log (commit markers written and persisted) and queued for
    /// merging.
    ///
    /// A batch larger than one segment is cut at entry boundaries into
    /// chunks that each fit a fresh segment; each chunk is one one-sided
    /// write and one merge submission. On an error partway through, the
    /// chunks already written have left the buffer, so a retry logs
    /// nothing twice.
    pub fn flush(&mut self) -> Result<Vec<CommittedWrite>, PmemError> {
        let mut commits = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            let (entries, chunk_len) = self.next_chunk();
            let segment = self.segment_with_space(chunk_len)?;
            let offset = segment.record_append(chunk_len, entries as u64);
            let base = segment.base.offset(offset);

            // The entire chunk is one one-sided RDMA write, then persisted.
            let bytes = &self.buffer[..chunk_len as usize];
            self.nic.one_sided_write(bytes.len());
            let pool = self.dpm.pool();
            pool.write_bytes(base, bytes);
            pool.persist(base, chunk_len);
            pool.drain();

            commits.extend(self.pending.drain(..entries).map(|p| {
                let entry_addr = base.offset(p.entry_offset);
                let entry_len = entry_size(p.key.len(), p.value_len as usize);
                CommittedWrite {
                    key: p.key,
                    op: p.op,
                    value_addr: base.offset(p.value_offset),
                    value_len: p.value_len,
                    entry_loc: PackedLoc::direct(entry_addr, entry_len),
                }
            }));

            self.dpm.submit_merge_batch(&segment, offset, chunk_len);
            self.buffer.drain(..chunk_len as usize);
            for p in &mut self.pending {
                p.entry_offset -= chunk_len;
                p.value_offset -= chunk_len;
            }
        }
        Ok(commits)
    }

    /// The longest prefix of the buffer, cut at an entry boundary, that
    /// fits a fresh segment: `(entries, bytes)`. `append` keeps every entry
    /// within a segment, so the prefix is never empty.
    fn next_chunk(&self) -> (usize, u64) {
        let capacity = self.dpm.config().segment_bytes;
        if self.buffer.len() as u64 <= capacity {
            return (self.pending.len(), self.buffer.len() as u64);
        }
        // Entry `i` ends where entry `i + 1` starts.
        let entries = self.pending.partition_point(|p| p.entry_offset <= capacity) - 1;
        (entries, self.pending[entries].entry_offset)
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
    /// log), so a fail-stop discards it. A KN answers a write only after
    /// the [`LogWriter::flush`] of its slice returns `Ok`, so no
    /// acknowledged write is ever lost this way: what is left is a slice
    /// still running or the tail of a failed flush. Returns how many
    /// entries were discarded.
    pub fn discard_buffered(&mut self) -> usize {
        let discarded = self.pending.len();
        self.buffer.clear();
        self.pending.clear();
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpmConfig;
    use dinomo_simnet::FabricConfig;

    #[test]
    fn a_batch_larger_than_a_segment_spans_segments() {
        let dpm = Arc::new(DpmNode::new(DpmConfig::small_for_tests()).unwrap());
        let nic = Nic::new(FabricConfig::default());
        let mut w = LogWriter::new(Arc::clone(&dpm), 0, nic.clone());
        let segment = dpm.config().segment_bytes as usize;
        let value = |i: usize| vec![i as u8; 100];
        let keys: Vec<Vec<u8>> = (0..3 * segment / 128)
            .map(|i| format!("key{i:06}").into_bytes())
            .collect();
        for (i, key) in keys.iter().enumerate() {
            w.append_put(key, &value(i));
        }
        assert!(w.buffered_bytes() > 2 * segment);

        let commits = w.flush().unwrap();
        assert_eq!(commits.len(), keys.len());
        assert_eq!((w.buffered_entries(), w.buffered_bytes()), (0, 0));
        assert!(dpm.stats().segments_allocated >= 3);
        for (i, (key, c)) in keys.iter().zip(&commits).enumerate() {
            assert_eq!(&c.key, key);
            assert_eq!(dpm.read_value_at(&nic, c.value_addr, c.value_len), value(i));
        }
        dpm.wait_until_merged(0);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(dpm.local_read(key), Some(value(i)), "key {i}");
        }
    }

    #[test]
    fn a_flush_that_exhausts_the_pool_keeps_only_the_unwritten_entries() {
        // Room for the index and three segments, two of them held by
        // ballast: the first chunk's segment fits, and the second chunk's
        // allocation runs the pool dry.
        let mut config = DpmConfig::small_for_tests();
        let segment = config.segment_bytes;
        let index_bytes = DpmNode::new(config).unwrap().pool().stats().high_water_mark;
        config.pool.capacity_bytes = index_bytes + 3 * segment + segment / 2;
        let dpm = Arc::new(DpmNode::new(config).unwrap());
        let ballast = [0; 2].map(|_| dpm.pool().alloc(segment).unwrap());

        let mut w = LogWriter::new(Arc::clone(&dpm), 0, Nic::new(FabricConfig::default()));
        let value = |i: usize| vec![i as u8; 1000];
        let keys: Vec<Vec<u8>> = (0..80).map(|i| format!("key{i:03}").into_bytes()).collect();
        for (i, key) in keys.iter().enumerate() {
            w.append_put(key, &value(i));
        }
        let first_chunk = (segment / entry_size(6, 1000)) as usize;
        assert!(keys.len() > 2 * first_chunk, "the batch spans three chunks");

        let err = w.flush().unwrap_err();
        assert!(matches!(err, PmemError::OutOfMemory { .. }), "{err:?}");
        assert_eq!(w.buffered_entries(), keys.len() - first_chunk);
        dpm.wait_until_all_merged();
        for (i, key) in keys.iter().enumerate() {
            let written = (i < first_chunk).then(|| value(i));
            assert_eq!(dpm.local_read(key), written, "key {i}");
        }

        for addr in ballast {
            dpm.pool().free(addr, segment);
        }
        let commits = w.flush().unwrap();
        let retried: Vec<&Vec<u8>> = commits.iter().map(|c| &c.key).collect();
        assert_eq!(retried, keys[first_chunk..].iter().collect::<Vec<_>>());
        assert_eq!(w.buffered_entries(), 0);
        dpm.wait_until_all_merged();
        assert_eq!(
            dpm.stats().entries_merged,
            keys.len() as u64,
            "every entry is logged exactly once"
        );
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(dpm.local_read(key), Some(value(i)), "key {i}");
        }
    }
}
