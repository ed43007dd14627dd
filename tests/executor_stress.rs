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
//! * **Queues drain.** After every membership change (and after the run),
//!   no sub-batch is stranded in a worker queue and no worker is deadlocked
//!   — `execute` returns for every client and `queued_sub_batches` is zero.
//! * **Backpressure completes.** With absurdly shallow queues, `Busy` is
//!   actually exercised (visible in the node stats) and yet every batch
//!   still completes with correct replies through the client's retry loop.

use dinomo::cluster::{ContentionLimits, DriverConfig, EventKind, ScriptedEvent, SimulationDriver};
use dinomo::workload::{KeyDistribution, WorkloadConfig, WorkloadMix};
use dinomo::{Kvs, KvsConfig, Op, Reply, Variant};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Many client threads drive batched traffic through the
/// `SimulationDriver` while scripted membership events (add, fail, remove)
/// fire between epochs. The run must make progress in every epoch and
/// leave every surviving node's worker queues empty.
#[test]
fn driver_churn_keeps_queues_draining() {
    let kvs = Kvs::new(KvsConfig {
        initial_kns: 3,
        ..KvsConfig::small_for_tests()
    })
    .unwrap();
    let driver = SimulationDriver::new(
        kvs.clone(),
        DriverConfig {
            epoch_ms: 40,
            total_epochs: 8,
            max_clients: 4,
            initial_clients: 4,
            workload: WorkloadConfig {
                num_keys: 400,
                value_len: 64,
                mix: WorkloadMix::WRITE_HEAVY_UPDATE,
                distribution: KeyDistribution::MODERATE_SKEW,
                seed: 7,
                key_len: 8,
                max_scan_len: 16,
            },
            preload: true,
            key_sample_every: 8,
            batch_size: 16,
            // Contention ceilings on the churn scenario: generous enough
            // for healthy runs (these counters sit orders of magnitude
            // lower today), tight enough that a global-lock regression on
            // the cell-swing or reclamation paths fails the test instead
            // of scrolling past as a column.
            contention: ContentionLimits {
                max_cell_registry_waits_per_epoch: Some(100_000),
                max_epoch_bag_flushes_per_epoch: Some(100_000),
            },
            ..DriverConfig::default()
        },
    );
    let events = vec![
        ScriptedEvent {
            at_epoch: 1,
            event: EventKind::AddNode,
        },
        ScriptedEvent {
            at_epoch: 2,
            event: EventKind::FailRandomNode,
        },
        ScriptedEvent {
            at_epoch: 4,
            event: EventKind::RemoveRandomNode,
        },
        ScriptedEvent {
            at_epoch: 5,
            event: EventKind::AddNode,
        },
        ScriptedEvent {
            at_epoch: 6,
            event: EventKind::FailRandomNode,
        },
    ];
    let rows = driver.run(&events);
    assert_eq!(rows.len(), 8);
    // Clients made progress in every epoch, membership changes included
    // (a deadlocked worker pool would starve the closed-loop clients).
    for row in &rows {
        assert!(
            row.ops > 0,
            "no progress in epoch {} (actions: {:?})",
            row.epoch,
            row.actions
        );
    }
    // Membership actually churned.
    assert!(rows.iter().any(|r| !r.actions.is_empty()));
    // Every surviving node's worker queues drained once the run stopped.
    for id in kvs.kn_ids() {
        assert_eq!(
            kvs.kn(id).unwrap().queued_sub_batches(),
            0,
            "node {id} still has queued sub-batches"
        );
    }
    // And the cluster still quiesces (no wedged merge or flush state).
    kvs.quiesce().unwrap();
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
