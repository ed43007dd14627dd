//! End-to-end log-cleaning compaction: the skewed-overwrite acceptance
//! scenario (segments pinned by one live key reclaim only through the
//! compactor, space amplification stays bounded, reads stay correct
//! throughout — including through KN shortcut caches), and the cell-pin
//! rule under the full replication protocol.

use dinomo::dpm::GcConfig;
use dinomo::{Kvs, KvsBuilder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One KN / one shard / tiny segments, compactor knobs on but background
/// off — tests drive `compact_once` deterministically.
fn gc_cluster() -> Kvs {
    let mut dpm = dinomo::dpm::DpmConfig::small_for_tests();
    dpm.segment_bytes = 8 << 10;
    KvsBuilder::new()
        .small_for_tests()
        .initial_kns(1)
        .threads_per_kn(1)
        .dpm(dpm)
        .gc(GcConfig {
            background: false,
            dead_fraction: 0.25,
            ..GcConfig::aggressive()
        })
        .build()
        .unwrap()
}

fn space_amplification(kvs: &Kvs) -> f64 {
    let dpm = kvs.stats().dpm;
    dpm.segment_bytes_allocated as f64 / dpm.live_bytes.max(1) as f64
}

/// The acceptance scenario: every sealed segment keeps one live "pin" key
/// while the rest of its bytes are overwritten stale. `run_gc` (the
/// all-dead policy) frees nothing; the compactor relocates the pins,
/// reclaims the victims, and brings allocated ÷ live bytes under the
/// bound — with every read (shortcut caches included) returning the live
/// value throughout.
#[test]
fn skewed_overwrite_reclaims_only_through_the_compactor() {
    const ROUNDS: u32 = 25;
    const BOUND: f64 = 2.5;
    let kvs = gc_cluster();
    let client = kvs.client();
    for round in 0..ROUNDS {
        // One long-lived key per ~segment of churn...
        client
            .insert(format!("pin{round:04}").as_bytes(), &[0xCC; 64])
            .unwrap();
        // ...plus filler that the next round supersedes.
        for i in 0..8u32 {
            client
                .update(format!("cold{i}").as_bytes(), &[round as u8; 512])
                .unwrap();
        }
    }
    kvs.quiesce().unwrap();

    assert_eq!(
        kvs.dpm().run_gc(),
        0,
        "every sealed segment holds a live pin key: the all-dead policy \
         must reclaim nothing"
    );
    let before = kvs.stats().dpm;
    let amp_before = space_amplification(&kvs);
    assert!(
        amp_before > BOUND,
        "the workload must actually build up space amplification \
         (got {amp_before:.2} over {} segments)",
        before.segments_allocated
    );

    // Readers hammer the pinned keys *while* the compactor relocates
    // them: shortcut-cache hits must never serve freed bytes. The main
    // thread keeps running compaction passes (idempotent once everything
    // is reclaimed) until the reader finishes its sweeps.
    let reader_done = Arc::new(AtomicBool::new(false));
    let reader = {
        let kvs = kvs.clone();
        let done = Arc::clone(&reader_done);
        std::thread::spawn(move || {
            let client = kvs.client();
            for _ in 0..20 {
                for round in 0..ROUNDS {
                    let key = format!("pin{round:04}");
                    assert_eq!(
                        client.lookup(key.as_bytes()).unwrap(),
                        Some(vec![0xCC; 64]),
                        "{key} read a stale or torn value during compaction"
                    );
                }
            }
            done.store(true, Ordering::Relaxed);
        })
    };
    let mut compacted = 0;
    // At least one pass always runs — the reader's cached lookups can
    // finish before this thread is scheduled — and passes are idempotent
    // once everything reclaimable is gone.
    loop {
        compacted += kvs.dpm().compact_once().segments_compacted;
        if reader_done.load(Ordering::Relaxed) {
            break;
        }
    }
    reader.join().unwrap();
    assert!(compacted > 0, "compactor reclaimed nothing: {before:?}");

    let after = kvs.stats().dpm;
    let amp_after = space_amplification(&kvs);
    assert!(
        amp_after <= BOUND,
        "space amplification must drop under the bound: {amp_before:.2} -> \
         {amp_after:.2} ({before:?} -> {after:?})"
    );
    assert!(after.segments_allocated < before.segments_allocated);
    assert!(after.bytes_relocated > 0);

    // Final verification through fresh lookups: pins and the last filler
    // round survive relocation byte-for-byte.
    for round in 0..ROUNDS {
        assert_eq!(
            client.lookup(format!("pin{round:04}").as_bytes()).unwrap(),
            Some(vec![0xCC; 64])
        );
    }
    for i in 0..8u32 {
        assert_eq!(
            client.lookup(format!("cold{i}").as_bytes()).unwrap(),
            Some(vec![(ROUNDS - 1) as u8; 512])
        );
    }
}

/// The cell-pin rule through the full replication protocol: a replicated
/// key's entry (live cell) and a deleted replicated key's entry
/// (tombstoned cell) both keep their segments unreclaimed until
/// dereplication dismantles the cell — and the key's visible state is
/// never corrupted by compaction around it.
#[test]
fn replicated_and_deleted_keys_pin_their_segments_end_to_end() {
    let kvs = {
        let mut dpm = dinomo::dpm::DpmConfig::small_for_tests();
        dpm.segment_bytes = 8 << 10;
        KvsBuilder::new()
            .small_for_tests()
            .initial_kns(2)
            .dpm(dpm)
            .gc(GcConfig {
                background: false,
                dead_fraction: 0.05,
                ..GcConfig::aggressive()
            })
            .build()
            .unwrap()
    };
    let client = kvs.client();
    client.insert(b"hot", b"replicated-value").unwrap();
    // Dead filler around the hot key so its segment is a prime victim.
    for round in 0..3u32 {
        for i in 0..8u32 {
            client
                .update(format!("fill{i}").as_bytes(), &[round as u8; 512])
                .unwrap();
        }
    }
    kvs.quiesce().unwrap();
    kvs.replicate_key(b"hot", 2).unwrap();
    client.refresh_routing();

    // Live cell: compaction may reclaim filler segments but must leave
    // the cell's target untouched and the value readable.
    for _ in 0..5 {
        kvs.dpm().compact_once();
    }
    assert_eq!(
        client.lookup(b"hot").unwrap(),
        Some(b"replicated-value".to_vec())
    );

    // Tombstoned cell: the acked delete stays visible (no resurrection
    // from a freed-and-reused entry) while the cell stands.
    client.delete(b"hot").unwrap();
    kvs.quiesce().unwrap();
    for _ in 0..5 {
        kvs.dpm().compact_once();
        kvs.dpm().run_gc();
        assert_eq!(client.lookup(b"hot").unwrap(), None, "delete resurrected");
    }

    // Dereplication dismantles the cell; the key stays deleted, a
    // re-insert wins, and compaction still works afterwards.
    kvs.dereplicate_key(b"hot").unwrap();
    assert_eq!(client.lookup(b"hot").unwrap(), None);
    client.insert(b"hot", b"v2").unwrap();
    kvs.quiesce().unwrap();
    kvs.dpm().compact_once();
    assert_eq!(client.lookup(b"hot").unwrap(), Some(b"v2".to_vec()));
}

/// Concurrent controllers: with the reconfiguration mutex, interleaved
/// membership and replication hand-offs from multiple threads can no
/// longer corrupt each other — the cluster stays serviceable and every
/// key readable.
#[test]
fn concurrent_controllers_serialize_cleanly() {
    let kvs = KvsBuilder::new()
        .small_for_tests()
        .initial_kns(3)
        .build()
        .unwrap();
    let client = kvs.client();
    for i in 0..32u32 {
        client
            .insert(format!("key{i:02}").as_bytes(), &[i as u8; 64])
            .unwrap();
    }
    kvs.quiesce().unwrap();

    let controllers: Vec<_> = (0..3u32)
        .map(|c| {
            let kvs = kvs.clone();
            std::thread::spawn(move || {
                for round in 0..6u32 {
                    match (c + round) % 3 {
                        0 => {
                            if kvs.num_kns() < 5 {
                                let _ = kvs.add_kn();
                            } else if let Some(&id) = kvs.kn_ids().last() {
                                let _ = kvs.remove_kn(id);
                            }
                        }
                        1 => {
                            let key = format!("key{:02}", (c * 7 + round) % 32);
                            let _ = kvs.replicate_key(key.as_bytes(), 2);
                        }
                        _ => {
                            let key = format!("key{:02}", (c * 7 + round) % 32);
                            let _ = kvs.dereplicate_key(key.as_bytes());
                        }
                    }
                }
            })
        })
        .collect();
    // Client traffic runs underneath the churn.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let kvs = kvs.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = kvs.client();
            while !stop.load(Ordering::Relaxed) {
                for i in 0..32u32 {
                    let got = client.lookup(format!("key{i:02}").as_bytes()).unwrap();
                    assert_eq!(got, Some(vec![i as u8; 64]), "key{i:02}");
                }
            }
        })
    };
    for h in controllers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    kvs.quiesce().unwrap();
    for i in 0..32u32 {
        assert_eq!(
            client.lookup(format!("key{i:02}").as_bytes()).unwrap(),
            Some(vec![i as u8; 64])
        );
    }
}
