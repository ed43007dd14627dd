//! The shard-worker executor under a trickle: what is deterministic.
//!
//! A trickle of small batches with a gap between them lets the worker run
//! out its bounded spin and park, so every hand-off crosses the
//! park/wake path of `BoundedQueue::pop`. How *long* such a hand-off takes
//! against inline execution is a wall-clock question and is gated by the
//! `kn_scaling` bench's self-check; this test pins the two facts that
//! hold on any host: every batch really went through the worker queue,
//! and a single client that awaits each batch never sees backpressure.

use dinomo::{Kvs, Op, Reply};
use std::time::{Duration, Instant};

#[test]
fn trickle_batches_all_take_the_worker_queue_without_busy() {
    // Single node, single shard: every 2-op batch becomes exactly one
    // sub-batch on one queue.
    let kvs = Kvs::builder()
        .small_for_tests()
        .initial_kns(1)
        .threads_per_kn(1)
        .executor_queue_depth(8)
        // Every sub-batch takes the worker queue, however small.
        .executor_min_sub_batch(1)
        .build()
        .unwrap();
    let client = kvs.client();
    let replies = client.execute(vec![Op::insert("t0", "v0"), Op::insert("t1", "v1")]);
    assert!(replies.iter().all(Reply::is_ok));

    let batches = 2_000;
    for _ in 0..batches {
        // Busy-wait, not sleep: the gap must outlast the worker's spin
        // window only sometimes, so both the hot and the parked hand-off
        // are exercised.
        let gap = Instant::now();
        while gap.elapsed() < Duration::from_micros(25) {
            std::hint::spin_loop();
        }
        let replies = client.execute(vec![Op::lookup("t0"), Op::lookup("t1")]);
        assert!(replies.iter().all(Reply::is_ok));
    }

    let stats = kvs.stats();
    let sub_batches: u64 = stats.kns.iter().map(|k| k.sub_batches).sum();
    assert!(
        sub_batches >= batches,
        "the trickle did not go through the worker queue ({sub_batches} sub-batches)"
    );
    assert!(stats.kns.iter().all(|k| k.busy_rejections == 0));
}
