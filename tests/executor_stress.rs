//! Stress coverage for the sharded worker-thread executor: membership churn
//! under multi-client batched load, and bounded-queue backpressure.
//!
//! The invariants under test:
//!
//! * **No lost acknowledged writes.** With `write_batch_ops = 1` every
//!   acknowledged write was flushed to the (shared, durable) DPM log before
//!   its reply, so it must be readable after any sequence of
//!   `add_node`/`remove_node`/`fail_node` — a sub-batch racing a
//!   reconfiguration either completes before the drain or rejects and is
//!   retried against the new owners.
//! * **Queues drain.** After a churned run, no sub-batch is stranded in a
//!   worker queue and no worker is deadlocked — `execute` returns for every
//!   client and `queued_sub_batches` is zero.
//! * **Backpressure completes.** With absurdly shallow queues, `Busy` is
//!   actually exercised (visible in the node stats) and yet every batch
//!   still completes with correct replies through the client's retry loop.

use dinomo::check::{run_and_check, CheckConfig};
use dinomo::{Kvs, KvsConfig, Op, Reply, Variant};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Four clients drive batched CRUD traffic through the seeded scenario
/// while its churn script adds, removes and fail-stops nodes. The recorded
/// history must linearize (every client's `execute` returned, with replies
/// a serial order explains), and membership must really have churned.
/// `run_scenario` itself asserts, once clients and churn have joined, that
/// every surviving node's worker queues drained and that the cluster
/// quiesces (no wedged merge or flush state).
#[test]
fn driver_churn_keeps_queues_draining() {
    let config = CheckConfig {
        clients: 4,
        batch_size: 16,
        keys: 400,
        initial_kns: 3,
        replication_churn: false,
        ..CheckConfig::from_seed(7)
    };
    let report = run_and_check(&config).unwrap_or_else(|f| panic!("{f}"));
    let log = &report.run.churn_log;
    for kind in ["add: kn", "remove: kn", "fail: kn"] {
        let applied = log
            .iter()
            .any(|l| l.contains(kind) && !l.contains("failed"));
        assert!(applied, "no successful `{kind}` in the churn log: {log:?}");
    }
}

/// Writers on several threads record every acknowledged insert while the
/// main thread scales out, scales in and injects a failure. Every write
/// acknowledged `Ok` must be readable afterwards (each op targets a unique
/// key, so there are no overwrite races to reason about).
#[test]
fn churn_loses_no_acknowledged_writes() {
    const WRITERS: usize = 4;
    const BATCHES_PER_WRITER: u64 = 60;
    const BATCH: u64 = 16;

    let kvs = Kvs::new(KvsConfig {
        initial_kns: 3,
        // Ack ⇒ flushed: with a write-batch of one, every sub-batch
        // flushes its buffered log writes before it sends its replies.
        write_batch_ops: 1,
        ..KvsConfig::small_for_tests()
    })
    .unwrap();

    let stop_churn = Arc::new(AtomicBool::new(false));
    let churn = {
        let kvs = kvs.clone();
        let stop = Arc::clone(&stop_churn);
        std::thread::spawn(move || {
            let mut added = Vec::new();
            while !stop.load(Ordering::Acquire) {
                if let Ok(id) = kvs.add_kn() {
                    added.push(id);
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
                // Planned scale-in of the oldest node.
                if kvs.num_kns() > 2 {
                    let victim = kvs.kn_ids()[0];
                    let _ = kvs.remove_kn(victim);
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
                // Fail-stop of the newest node.
                if kvs.num_kns() > 2 {
                    if let Some(&victim) = kvs.kn_ids().last() {
                        let _ = kvs.fail_kn(victim);
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let kvs = kvs.clone();
            std::thread::spawn(move || {
                let client = kvs.client();
                let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                for batch_idx in 0..BATCHES_PER_WRITER {
                    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..BATCH)
                        .map(|i| {
                            let n = batch_idx * BATCH + i;
                            (
                                format!("w{w}-key-{n:06}").into_bytes(),
                                format!("w{w}-val-{n:06}").into_bytes(),
                            )
                        })
                        .collect();
                    let ops: Vec<Op> = items
                        .iter()
                        .map(|(k, v)| Op::insert(k.clone(), v.clone()))
                        .collect();
                    let replies = client.execute(ops);
                    for ((k, v), reply) in items.into_iter().zip(&replies) {
                        if reply.is_ok() {
                            acked.push((k, v));
                        }
                    }
                }
                acked
            })
        })
        .collect();

    let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for w in writers {
        acked.extend(w.join().unwrap());
    }
    stop_churn.store(true, Ordering::Release);
    churn.join().unwrap();

    assert!(
        acked.len() as u64 > WRITERS as u64 * BATCHES_PER_WRITER * BATCH / 2,
        "churn rejected most writes ({} acked) — retry path is broken",
        acked.len()
    );
    kvs.quiesce().unwrap();
    let client = kvs.client();
    for (k, v) in &acked {
        assert_eq!(
            client.lookup(k).unwrap().as_deref(),
            Some(v.as_slice()),
            "acknowledged write {} was lost",
            String::from_utf8_lossy(k)
        );
    }
    for id in kvs.kn_ids() {
        assert_eq!(kvs.kn(id).unwrap().queued_sub_batches(), 0);
    }
}

/// With depth-1 worker queues and several clients hammering one node,
/// enqueues must collide: `Busy` backpressure reaches the client retry
/// path (visible as `busy_rejections` in the node stats) and still every
/// op completes with a correct reply.
#[test]
fn tiny_queues_surface_busy_and_still_complete() {
    const CLIENTS: usize = 4;
    const ROUNDS: u64 = 120;
    const BATCH: u64 = 32;

    let kvs = Kvs::builder()
        .small_for_tests()
        .initial_kns(1)
        .threads_per_kn(2)
        .executor_queue_depth(1)
        .build()
        .unwrap();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let kvs = kvs.clone();
            std::thread::spawn(move || {
                let client = kvs.client();
                for round in 0..ROUNDS {
                    let ops: Vec<Op> = (0..BATCH)
                        .map(|i| {
                            let key = format!("c{c}-{:04}", (round * BATCH + i) % 512);
                            if round % 3 == 0 {
                                Op::insert(key, format!("v{round}"))
                            } else {
                                Op::lookup(key)
                            }
                        })
                        .collect();
                    let replies = client.execute(ops);
                    assert!(
                        replies.iter().all(Reply::is_ok),
                        "client {c} round {round}: {replies:?}"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let stats = kvs.stats();
    let busy: u64 = stats.kns.iter().map(|k| k.busy_rejections).sum();
    let sub_batches: u64 = stats.kns.iter().map(|k| k.sub_batches).sum();
    assert!(sub_batches > 0, "executor never ran a sub-batch");
    assert!(
        busy > 0,
        "depth-1 queues under {CLIENTS} concurrent clients never reported Busy \
         ({sub_batches} sub-batches ran)"
    );
    // Everything the clients were acked for is really there.
    let client = kvs.client();
    kvs.quiesce().unwrap();
    for c in 0..CLIENTS {
        let v = client.lookup(format!("c{c}-0000").as_bytes()).unwrap();
        assert!(v.is_some(), "client {c}'s writes vanished");
    }
    for id in kvs.kn_ids() {
        assert_eq!(kvs.kn(id).unwrap().queued_sub_batches(), 0);
    }
    let _ = kvs.dpm();

    // All variants behave the same through the executor.
    for variant in [Variant::DinomoS, Variant::DinomoN] {
        let kvs = Kvs::builder()
            .small_for_tests()
            .executor_queue_depth(1)
            .variant(variant)
            .build()
            .unwrap();
        let client = kvs.client();
        let replies = client.execute(
            (0..64u64)
                .map(|i| Op::insert(format!("k{i}"), format!("v{i}")))
                .collect(),
        );
        assert!(replies.iter().all(Reply::is_ok), "{}", variant.name());
    }
}
