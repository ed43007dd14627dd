//! Reconfiguration under load: membership changes, failures and selective
//! replication must never lose committed data or wedge the cluster, and
//! Dinomo must achieve them without physically copying data.

use dinomo::core::key_for;
use dinomo::{Kvs, KvsConfig, KvsError, Op, Reply, Variant};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn loaded_cluster(variant: Variant, kns: usize, keys: u64) -> Kvs {
    let kvs = Kvs::new(
        KvsConfig {
            initial_kns: kns,
            ..KvsConfig::small_for_tests()
        }
        .with_variant(variant),
    )
    .unwrap();
    let client = kvs.client();
    for i in 0..keys {
        client
            .insert(&key_for(i, 8), &[(i % 251) as u8; 64])
            .unwrap();
    }
    kvs
}

#[test]
fn scale_out_and_back_in_under_concurrent_traffic() {
    let kvs = loaded_cluster(Variant::Dinomo, 2, 600);
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let traffic = {
        let kvs = kvs.clone();
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        std::thread::spawn(move || {
            let client = kvs.client();
            let mut errors = 0u64;
            let mut ops = 0u64;
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                i += 1;
                let key = key_for(i % 600, 8);
                let result = if i.is_multiple_of(5) {
                    client.update(&key, &[9u8; 64])
                } else {
                    client.lookup(&key).map(|_| ())
                };
                ops += 1;
                completed.store(ops, Ordering::Release);
                if result.is_err() {
                    errors += 1;
                }
            }
            (ops, errors)
        })
    };

    // Grow to 4 KNs, then shrink back to 2, while traffic keeps flowing.
    let a = kvs.add_kn().unwrap();
    let b = kvs.add_kn().unwrap();
    assert_eq!(kvs.num_kns(), 4);
    kvs.remove_kn(a).unwrap();
    kvs.remove_kn(b).unwrap();
    assert_eq!(kvs.num_kns(), 2);
    // On a loaded host the reconfigurations can outrun the traffic thread's
    // start-up; let it complete some operations before stopping.
    while completed.load(Ordering::Acquire) < 100 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Release);
    let (ops, errors) = traffic.join().unwrap();
    assert!(ops > 0);
    assert_eq!(errors, 0, "client operations failed during reconfiguration");

    // Nothing was lost and Dinomo never copied data.
    let client = kvs.client();
    for i in 0..600u64 {
        assert!(
            client.lookup(&key_for(i, 8)).unwrap().is_some(),
            "key {i} lost"
        );
    }
    assert_eq!(kvs.bytes_reshuffled(), 0);
}

#[test]
fn repeated_failures_leave_a_consistent_single_node() {
    let kvs = loaded_cluster(Variant::Dinomo, 4, 500);
    // Fail three of the four nodes, one at a time.
    while kvs.num_kns() > 1 {
        let victim = kvs.kn_ids()[0];
        kvs.fail_kn(victim).unwrap();
        let client = kvs.client();
        for i in (0..500u64).step_by(7) {
            assert!(
                client.lookup(&key_for(i, 8)).unwrap().is_some(),
                "key {i} lost after failing KN {victim}"
            );
        }
    }
    assert_eq!(kvs.num_kns(), 1);
    // A failed node cannot be failed twice.
    let gone = 0u32;
    assert!(matches!(kvs.fail_kn(gone), Err(KvsError::NoNodes) | Ok(())) || kvs.num_kns() == 1);
}

#[test]
fn replication_cycle_survives_membership_changes() {
    let kvs = loaded_cluster(Variant::Dinomo, 3, 200);
    let hot = key_for(7, 8);
    let owners = kvs.replicate_key(&hot, 3).unwrap();
    assert_eq!(owners.len(), 3);
    // Fail one of the replicas; the key must stay readable and writable.
    kvs.fail_kn(owners[1]).unwrap();
    let client = kvs.client();
    client.update(&hot, b"after-failure").unwrap();
    assert_eq!(
        client.lookup(&hot).unwrap(),
        Some(b"after-failure".to_vec())
    );
    // De-replicate and keep going.
    kvs.dereplicate_key(&hot).unwrap();
    client.update(&hot, b"final").unwrap();
    assert_eq!(client.lookup(&hot).unwrap(), Some(b"final".to_vec()));
    assert_eq!(kvs.ownership().read().replication_factor(&hot), 1);
}

#[test]
fn batched_execute_survives_racing_membership_changes() {
    // Batches race add_kn/fail_kn: every op of every batch must resolve to a
    // correct per-op Reply (the client retries the rejected subset after
    // refreshing its routing metadata), and no acknowledged write may be
    // lost.
    let kvs = loaded_cluster(Variant::Dinomo, 2, 600);
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let traffic = {
        let kvs = kvs.clone();
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        std::thread::spawn(move || {
            let client = kvs.client();
            let mut batches = 0u64;
            let mut errors: Vec<String> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                // A mixed batch of 24 lookups and 8 updates across the key
                // space.
                let ops: Vec<Op> = (0..32u64)
                    .map(|j| {
                        i += 1;
                        let key = key_for((i * 13 + j) % 600, 8);
                        if j % 4 == 3 {
                            Op::update(key, [7u8; 64])
                        } else {
                            Op::lookup(key)
                        }
                    })
                    .collect();
                let replies = client.execute(ops);
                assert_eq!(replies.len(), 32);
                errors.extend(
                    replies
                        .iter()
                        .filter_map(|r| r.err())
                        .map(|e| format!("batch {batches}: {e}")),
                );
                // Lookups of the pre-loaded key space must all hit.
                for reply in &replies {
                    if let Reply::Value(v) = reply {
                        assert!(
                            v.is_some(),
                            "loaded key read as missing mid-reconfiguration"
                        );
                    }
                }
                batches += 1;
                completed.store(batches, Ordering::Release);
            }
            (batches, errors)
        })
    };

    // Scale out, fail a node, scale back — all while batches are in flight.
    let added = kvs.add_kn().unwrap();
    let victim = kvs.kn_ids().into_iter().find(|&id| id != added).unwrap();
    kvs.fail_kn(victim).unwrap();
    let added2 = kvs.add_kn().unwrap();
    kvs.remove_kn(added2).unwrap();
    // On a loaded host the reconfigurations can outrun the traffic thread's
    // start-up; let it complete a few batches against the final topology
    // before stopping.
    while completed.load(Ordering::Acquire) < 5 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Release);
    let (batches, errors) = traffic.join().unwrap();
    assert!(batches >= 5, "no batches completed");
    assert!(
        errors.is_empty(),
        "batched ops failed during reconfiguration: {errors:?}"
    );

    // All data survived (committed writes were flushed before the failure).
    let client = kvs.client();
    for i in 0..600u64 {
        assert!(
            client.lookup(&key_for(i, 8)).unwrap().is_some(),
            "key {i} lost"
        );
    }
    assert_eq!(kvs.bytes_reshuffled(), 0);
}

#[test]
fn batches_to_a_stale_owner_reject_only_the_moved_subset() {
    // A node served a batch for keys it no longer fully owns: the non-owned
    // ops are rejected individually with NotOwner while the still-owned ops
    // in the same batch succeed — the contract `KvsClient::execute` builds
    // its retry loop on.
    let kvs = loaded_cluster(Variant::Dinomo, 2, 200);
    let node_id = kvs.kn_ids()[0];
    let node = kvs.kn(node_id).unwrap();
    let table = kvs.ownership();
    let mine: Vec<u64> = (0..200u64)
        .filter(|&i| table.read().primary_owner(&key_for(i, 8)) == Some(node_id))
        .collect();
    let theirs: Vec<u64> = (0..200u64)
        .filter(|&i| table.read().primary_owner(&key_for(i, 8)) != Some(node_id))
        .collect();
    assert!(!mine.is_empty() && !theirs.is_empty());

    // Interleave owned and non-owned keys in one batch sent to `node`.
    let ops: Vec<Op> = mine
        .iter()
        .take(4)
        .chain(theirs.iter().take(4))
        .map(|&i| Op::lookup(key_for(i, 8)))
        .collect();
    let results = node.run_batch(&ops);
    for (idx, result) in results.iter().enumerate() {
        if idx < 4 {
            assert!(
                matches!(result, Ok(Some(_))),
                "owned op {idx} should have been served, got {result:?}"
            );
        } else {
            assert!(
                matches!(result, Err(KvsError::NotOwner { .. })),
                "non-owned op {idx} should have been rejected, got {result:?}"
            );
        }
    }

    // Through the client the same mixed batch fully succeeds: the rejected
    // subset is transparently re-routed.
    let client = kvs.client();
    let ops: Vec<Op> = mine
        .iter()
        .take(4)
        .chain(theirs.iter().take(4))
        .map(|&i| Op::lookup(key_for(i, 8)))
        .collect();
    let replies = client.execute(ops);
    assert!(replies.iter().all(|r| r.value().is_some()), "{replies:?}");
}

#[test]
fn ownership_checks_reject_requests_to_non_owners() {
    let kvs = loaded_cluster(Variant::Dinomo, 2, 50);
    let key = key_for(1, 8);
    let owner = kvs.ownership().read().primary_owner(&key).unwrap();
    let other = kvs.kn_ids().into_iter().find(|&id| id != owner).unwrap();
    let wrong = kvs.kn(other).unwrap();
    match wrong.get(&key) {
        Err(KvsError::NotOwner { .. }) => {}
        other => panic!("expected NotOwner, got {other:?}"),
    }
    // The owner serves it fine.
    assert!(kvs.kn(owner).unwrap().get(&key).unwrap().is_some());
}
