//! Durability and crash recovery: commit markers, torn-write detection, and
//! the "committed data is never lost" guarantee across simulated DPM power
//! failures and KVS-node crashes.

use dinomo::core::key_for;
use dinomo::dpm::{DpmConfig, DpmNode, LogWriter};
use dinomo::pclht::PclhtConfig;
use dinomo::pmem::PmemConfig;
use dinomo::simnet::Nic;
use dinomo::{Kvs, KvsConfig};
use std::sync::Arc;

fn tracked_dpm() -> Arc<DpmNode> {
    Arc::new(
        DpmNode::new(DpmConfig {
            pool: PmemConfig {
                capacity_bytes: 32 << 20,
                track_persistence: true,
            },
            segment_bytes: 64 << 10,
            merge_threads: 1,
            index: PclhtConfig {
                initial_buckets: 512,
                ..PclhtConfig::default()
            },
            gc: dinomo::dpm::GcConfig::default(),
        })
        .unwrap(),
    )
}

#[test]
fn committed_log_entries_survive_a_dpm_power_failure() {
    let dpm = tracked_dpm();
    let mut writer = LogWriter::new(Arc::clone(&dpm), 0, Nic::default());
    for i in 0..200u64 {
        writer.append_put(&key_for(i, 8), &[(i % 251) as u8; 64]);
        if i % 64 == 63 {
            writer.flush().unwrap();
        }
    }
    writer.flush().unwrap();
    dpm.wait_until_merged(0);

    // Power failure: unpersisted cache lines are destroyed.
    dpm.pool().simulate_crash();
    let report = dpm.recover();
    assert_eq!(
        report.torn_entries, 0,
        "all flushed entries carried commit markers"
    );
    for i in 0..200u64 {
        assert_eq!(
            dpm.local_read(&key_for(i, 8)),
            Some(vec![(i % 251) as u8; 64]),
            "key {i} lost after power failure"
        );
    }
}

#[test]
fn torn_writes_are_discarded_by_recovery() {
    let dpm = tracked_dpm();
    let mut writer = LogWriter::new(Arc::clone(&dpm), 0, Nic::default());
    writer.append_put(b"durable", &[1u8; 32]);
    writer.flush().unwrap();
    dpm.wait_until_merged(0);

    // Simulate a crash in the middle of a log append: write entry bytes
    // directly without a valid seal, bypassing the writer.
    let seg = dpm.allocate_segment(1).unwrap();
    let mut torn = Vec::new();
    dinomo::dpm::entry::encode_entry(
        &mut torn,
        b"torn-key",
        &[2u8; 32],
        dinomo::dpm::LogOp::Put,
        1,
    );
    let len = torn.len();
    torn[len - 1] ^= 0xFF; // corrupt the seal
    dpm.pool().write_bytes(seg.base, &torn);
    seg.record_append(torn.len() as u64, 1);
    seg.seal();

    let report = dpm.recover();
    assert!(report.torn_entries >= 1, "the torn entry must be detected");
    assert_eq!(dpm.local_read(b"durable"), Some(vec![1u8; 32]));
    assert_eq!(
        dpm.local_read(b"torn-key"),
        None,
        "a torn write must not become visible"
    );
}

#[test]
fn kn_failure_preserves_flushed_writes_and_policy_metadata() {
    let kvs = Kvs::new(KvsConfig {
        initial_kns: 3,
        ..KvsConfig::small_for_tests()
    })
    .unwrap();
    let client = kvs.client();
    for i in 0..400u64 {
        client.insert(&key_for(i, 8), &[3u8; 48]).unwrap();
    }
    kvs.replicate_key(&key_for(1, 8), 2).unwrap();

    let victim = kvs.kn_ids()[1];
    kvs.fail_kn(victim).unwrap();

    // Every acked write is still readable through the surviving nodes.
    for i in 0..400u64 {
        assert_eq!(
            client.lookup(&key_for(i, 8)).unwrap(),
            Some(vec![3u8; 48]),
            "key {i}"
        );
    }
    // The policy metadata persisted in DPM reflects the new membership, so a
    // restarted routing node could rebuild its soft state.
    let recovered = kvs
        .recover_policy_metadata()
        .expect("policy metadata must be in DPM");
    assert_eq!(recovered.num_kns(), 2);
    assert!(!recovered.kns().contains(&victim));
}

/// Acked means durable, whatever `write_batch_ops` says (here `e2e`'s 8):
/// an acked put survives its owner's fail-stop with no flush in between,
/// and a DPM crash after acked writes finds nothing buffered to discard.
#[test]
fn an_acked_put_survives_its_kns_failure_and_a_dpm_crash() {
    let e2e_like = KvsConfig {
        write_batch_ops: 8,
        ..KvsConfig::small_for_tests()
    };
    for (name, mut config) in [
        ("small_for_tests", KvsConfig::small_for_tests()),
        ("e2e", e2e_like),
    ] {
        config.dpm.pool.track_persistence = true;
        let kvs = Kvs::new(config).unwrap();
        let client = kvs.client();
        let read = |key: &[u8]| client.lookup(key).unwrap();
        client.insert(b"acked", b"v").unwrap();
        let owner = kvs.ownership().read().primary_owner(b"acked").unwrap();
        kvs.fail_kn(owner).unwrap();
        assert_eq!(read(b"acked"), Some(b"v".to_vec()), "{name}");

        client.insert(b"after", b"w").unwrap();
        let report = kvs.crash_dpm_and_recover().unwrap();
        assert_eq!(report.buffered_discarded, 0, "{name}: {report:?}");
        assert_eq!(read(b"after"), Some(b"w".to_vec()), "{name}");
    }
}

#[test]
fn garbage_collection_never_reclaims_live_data() {
    let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
    let client = kvs.client();
    // Overwrite a small key set many times to generate dead segments.
    for round in 0..30u64 {
        for i in 0..40u64 {
            client
                .update(&key_for(i, 8), &[(round % 251) as u8; 128])
                .unwrap();
        }
    }
    kvs.quiesce().unwrap();
    let freed = kvs.dpm().run_gc();
    // Whatever was freed, the live values are intact.
    for i in 0..40u64 {
        assert_eq!(
            client.lookup(&key_for(i, 8)).unwrap(),
            Some(vec![29u8; 128]),
            "key {i}"
        );
    }
    let stats = kvs.dpm().stats();
    assert!(stats.segments_freed as usize >= freed.min(1) - 1 || freed == 0);
}
