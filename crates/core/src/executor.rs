//! The KN worker-thread executor's building blocks.
//!
//! Each [`crate::kn::KnNode`] owns one worker thread per shard, fed by a
//! [`BoundedQueue`] of sub-batches. [`crate::KvsClient::execute`] splits an
//! owner group by shard and enqueues one sub-batch per involved shard — so
//! a single batch fans out across all of a node's shards concurrently, and
//! independent clients stop serializing on one caller thread. A full queue
//! surfaces [`crate::KvsError::Busy`] to the client's retry loop
//! (backpressure instead of unbounded buffering).
//!
//! Replies travel by value. A worker collects its sub-batch's
//! `(position, result)` pairs in a `Vec` it owns and sends that `Vec` back
//! once, through a per-round `std::sync::mpsc` channel whose `Sender`
//! rides in the sub-batch. The dispatching client keeps its own `Sender`
//! only while it dispatches, then drains the receiver: the loop ends when
//! every sub-batch of the round has been run *or dropped* — channel
//! disconnection is the completion latch, and a sub-batch that panics or
//! is discarded releases the client by unwinding, its positions simply
//! unanswered (the client refreshes and retries them).
//!
//! The one primitive here is deliberately small and self-contained (the
//! build environment has no crates.io access): a Mutex+Condvar bounded
//! MPSC queue.

use crate::Result;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why [`BoundedQueue::try_push`] rejected an item. The item is handed
/// back so the caller can fail it over (run inline, retry, or error out).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; retry later.
    Full(T),
    /// The queue was closed (its node is shutting down); do not retry
    /// against this queue.
    Closed(T),
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer single-consumer queue with non-blocking
/// producers and a blocking consumer.
///
/// Producers [`BoundedQueue::try_push`] and never block: a full queue is a
/// backpressure signal, not a place to wait (the KVS client turns it into
/// [`crate::KvsError::Busy`] and retries). The consumer [`BoundedQueue::pop`]s,
/// blocking until an item arrives or the queue is closed *and* drained —
/// so closing never drops enqueued work.
///
/// ```
/// use dinomo_core::executor::{BoundedQueue, PushError};
///
/// let q = BoundedQueue::new(2);
/// q.try_push(1).unwrap();
/// q.try_push(2).unwrap();
/// // Capacity reached: the rejected item is handed back.
/// assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
///
/// q.close();
/// // A closed queue still drains what was accepted...
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// // ...then reports exhaustion, and rejects new work.
/// assert_eq!(q.pop(), None);
/// assert!(matches!(q.try_push(4), Err(PushError::Closed(4))));
/// ```
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueue `item` without blocking. Fails with [`PushError::Full`] at
    /// capacity and [`PushError::Closed`] after [`BoundedQueue::close`].
    pub fn try_push(&self, item: T) -> std::result::Result<(), PushError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Rounds of polling an empty queue before the consumer parks on the
    /// condvar. A parked worker costs the producer a full wakeup
    /// (futex/syscall, scheduler latency — typically microseconds) on
    /// every handoff; under a trickle of small sub-batches that wakeup
    /// *is* the executor's latency floor. A short bounded spin keeps the
    /// worker hot across inter-arrival gaps up to a few microseconds
    /// while still parking (zero CPU) on genuinely idle queues.
    const POP_SPIN_ROUNDS: usize = 128;
    /// `spin_loop` hints between polls, so the spin window covers a
    /// realistic handoff gap without hammering the queue mutex.
    const POP_SPIN_PAUSES: usize = 24;

    /// Dequeue the oldest item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed **and** fully drained.
    ///
    /// An empty queue is first polled in a bounded spin (`POP_SPIN_ROUNDS`
    /// rounds) so a producer that enqueues within the spin window hands
    /// off without paying a condvar wakeup; only then does the consumer
    /// park.
    pub fn pop(&self) -> Option<T> {
        for _ in 0..Self::POP_SPIN_ROUNDS {
            {
                let mut state = self.state.lock();
                if let Some(item) = state.items.pop_front() {
                    return Some(item);
                }
                if state.closed {
                    return None;
                }
            }
            for _ in 0..Self::POP_SPIN_PAUSES {
                std::hint::spin_loop();
            }
        }
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.not_empty.wait(&mut state);
        }
    }

    /// Close the queue: producers are rejected from now on, and the
    /// consumer drains the remaining items before seeing `None`.
    /// Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Number of items currently queued (racy snapshot, for stats/tests).
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// `true` if no items are currently queued (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-operation result of a batch.
pub(crate) type OpResult = Result<Option<Vec<u8>>>;

/// What a shard worker sends back for one sub-batch: the `(position,
/// result)` pairs it produced, in production order — a later pair for a
/// position supersedes an earlier one (a failed flush overrides the
/// results of the writes it covered).
pub(crate) type SliceReplies = Vec<(usize, OpResult)>;

/// What a batch's sub-batches read: the operations and their routing
/// hashes. One per `KvsClient::execute` call, `Arc`-shared with every
/// enqueued sub-batch.
#[derive(Debug)]
pub(crate) struct BatchShared {
    /// The batch's operations, in client order.
    pub(crate) ops: Vec<crate::op::Op>,
    /// `key_hash(ops[i].key())`, computed once while routing and reused by
    /// the nodes for their ring lookups.
    pub(crate) hashes: Vec<u64>,
}

impl BatchShared {
    pub(crate) fn new(ops: Vec<crate::op::Op>) -> Self {
        let hashes = ops
            .iter()
            .map(|op| dinomo_partition::key_hash(op.key()))
            .collect();
        BatchShared { ops, hashes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn queue_fifo_capacity_and_close() {
        let q = BoundedQueue::new(2);
        assert!(q.is_empty());
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        q.close();
        q.close(); // idempotent
        assert!(matches!(q.try_push(4), Err(PushError::Closed(4))));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..10 {
            loop {
                match q.try_push(i) {
                    Ok(()) => break,
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => panic!("queue closed early"),
                }
            }
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), (0..10).collect::<Vec<_>>());
    }

    /// Run the queue gauntlet for one generated case: `producers` threads
    /// each push their numbered items (spinning through `Full`, stopping
    /// at `Closed`), one consumer drains until `None`, and the queue is
    /// closed at an arbitrary point in the middle of it all. Returns
    /// (per-producer accepted items, consumed items in pop order).
    #[allow(clippy::type_complexity)]
    fn queue_gauntlet(
        capacity: usize,
        producers: usize,
        items: usize,
        close_after: usize,
    ) -> (Vec<Vec<(usize, usize)>>, Vec<(usize, usize)>) {
        let q = Arc::new(BoundedQueue::new(capacity));
        std::thread::scope(|s| {
            let consumer = {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            };
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut accepted = Vec::new();
                        'items: for i in 0..items {
                            loop {
                                match q.try_push((p, i)) {
                                    Ok(()) => {
                                        accepted.push((p, i));
                                        break;
                                    }
                                    Err(PushError::Full(_)) => std::thread::yield_now(),
                                    Err(PushError::Closed(_)) => break 'items,
                                }
                            }
                        }
                        accepted
                    })
                })
                .collect();
            // Close at an arbitrary point relative to the pushes/pops.
            for _ in 0..close_after {
                std::thread::yield_now();
            }
            q.close();
            let accepted = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (accepted, consumer.join().unwrap())
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Close-then-drain: whatever the push/pop/close interleaving,
        /// every item the queue *accepted* is popped exactly once, in
        /// per-producer FIFO order, and nothing else ever comes out.
        #[test]
        fn queue_close_then_drain_loses_and_duplicates_nothing(
            capacity in 1usize..6,
            producers in 1usize..5,
            items in 0usize..48,
            close_after in 0usize..96,
        ) {
            let (accepted, consumed) = queue_gauntlet(capacity, producers, items, close_after);
            let total: usize = accepted.iter().map(Vec::len).sum();
            proptest::prop_assert_eq!(
                consumed.len(), total,
                "accepted {} items but drained {}", total, consumed.len()
            );
            for (p, accepted_by_p) in accepted.iter().enumerate() {
                let consumed_from_p: Vec<(usize, usize)> = consumed
                    .iter()
                    .filter(|(owner, _)| *owner == p)
                    .copied()
                    .collect();
                proptest::prop_assert_eq!(
                    &consumed_from_p, accepted_by_p,
                    "producer {}'s items were dropped, duplicated or reordered", p
                );
            }
        }
    }
}
