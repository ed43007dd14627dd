//! Stress coverage for batches served inline by their calling threads:
//! membership churn under multi-client batched load.
//!
//! The invariants under test:
//!
//! * **No lost acknowledged writes.** A shard slice flushes its writes to
//!   the (shared, durable) DPM log before it answers them, so every
//!   acknowledged write must be readable after any sequence of
//!   `add_node`/`remove_node`/`fail_node` — a batch's shard slice racing a
//!   reconfiguration either completes before the drain or rejects and is
//!   retried against the new owners.
//! * **Batches complete and linearize.** Under churn, `execute` returns
//!   for every client, the recorded history linearizes and the cluster
//!   quiesces afterwards.

use dinomo::check::{run_and_check, CheckConfig};
use dinomo::{Kvs, KvsConfig, Op};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Four clients drive batched CRUD traffic through the seeded scenario
/// while its churn script adds, removes and fail-stops nodes. The recorded
/// history must linearize (every client's `execute` returned, with replies
/// a serial order explains), and membership must really have churned.
/// `run_scenario` itself asserts, once clients and churn have joined, that
/// the cluster quiesces (no wedged merge or flush state).
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
}
