//! Cross-crate integration tests: full workloads driven through the public
//! API of the umbrella crate, against Dinomo and its variants. The paper's
//! quantitative claims are in `paper_claims.rs`.

use dinomo::cache::CacheKind;
use dinomo::core::key_for;
use dinomo::workload::{WorkloadConfig, WorkloadGenerator};
use dinomo::{KeyDistribution, Kvs, KvsConfig, Op, Reply, Variant, WorkloadMix};
use std::collections::HashMap;

fn workload(mix: WorkloadMix, keys: u64) -> WorkloadConfig {
    WorkloadConfig {
        num_keys: keys,
        value_len: 64,
        mix,
        distribution: KeyDistribution::MODERATE_SKEW,
        seed: 99,
    }
}

/// Replay a workload against a map of closures
/// (insert/update/read/delete) and an in-memory model, checking every read
/// against the model.
fn run_against_model<I, U, R, D>(
    mut insert: I,
    mut update: U,
    mut read: R,
    mut delete: D,
    mix: WorkloadMix,
    ops: u64,
) where
    I: FnMut(&[u8], &[u8]),
    U: FnMut(&[u8], &[u8]),
    R: FnMut(&[u8]) -> Option<Vec<u8>>,
    D: FnMut(&[u8]),
{
    let config = workload(mix, 400);
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let generator = WorkloadGenerator::new(config);
    for (k, v) in generator.load_phase() {
        insert(&k, &v);
        model.insert(k, v);
    }
    let mut generator = WorkloadGenerator::new(config);
    for i in 0..ops {
        match generator.next_op() {
            Op::Lookup { key: k } => {
                assert_eq!(read(&k), model.get(&k).cloned(), "read mismatch at op {i}");
            }
            Op::Update { key: k, value: v } => {
                update(&k, &v);
                model.insert(k, v);
            }
            Op::Insert { key: k, value: v } => {
                insert(&k, &v);
                model.insert(k, v);
            }
            Op::Delete { key: k } => {
                delete(&k);
                model.remove(&k);
            }
        }
    }
    // Final full verification.
    for (k, v) in &model {
        assert_eq!(read(k).as_ref(), Some(v), "final state mismatch for {k:?}");
    }
}

#[test]
fn dinomo_variants_match_a_model_under_mixed_workloads() {
    let base = KvsConfig::small_for_tests();
    let shortcut_only = KvsConfig {
        cache_kind: Some(CacheKind::ShortcutOnly),
        ..base
    };
    for config in [base, shortcut_only, base.with_variant(Variant::DinomoN)] {
        for mix in [
            WorkloadMix::WRITE_HEAVY_UPDATE,
            WorkloadMix::READ_MOSTLY_INSERT,
            // Deletes and re-inserts of hot keys: every read must agree
            // with the model across the unmerged overlay and the merge.
            WorkloadMix::CRUD,
        ] {
            let kvs = Kvs::new(config).unwrap();
            let client = kvs.client();
            run_against_model(
                |k, v| client.insert(k, v).unwrap(),
                |k, v| client.update(k, v).unwrap(),
                |k| client.lookup(k).unwrap(),
                |k| client.delete(k).unwrap(),
                mix,
                1_500,
            );
        }
    }
}

#[test]
fn stats_are_consistent_across_the_stack() {
    let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
    let client = kvs.client();
    for i in 0..300u64 {
        client.insert(&key_for(i, 8), &[0u8; 32]).unwrap();
    }
    for i in 0..300u64 {
        client.lookup(&key_for(i, 8)).unwrap();
    }
    let stats = kvs.stats();
    assert_eq!(stats.total_ops(), 600);
    let sum_reads: u64 = stats.kns.iter().map(|k| k.reads).sum();
    let sum_writes: u64 = stats.kns.iter().map(|k| k.writes).sum();
    assert_eq!(sum_reads, 300);
    assert_eq!(sum_writes, 300);
    assert!(stats.dpm.index_len <= 300);
    assert_eq!(stats.ownership_version, kvs.ownership().read().version());
}

#[test]
fn a_multi_put_larger_than_a_log_segment_is_durable() {
    // 2,000 pairs of 128 B give each of the four shards about 75 KiB to
    // flush at once, past `small_for_tests`' 32 KiB log segments: the
    // flush spans several segments.
    let kvs = Kvs::new(KvsConfig::small_for_tests()).unwrap();
    let client = kvs.client();
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..2_000u64)
        .map(|i| (key_for(i, 8), vec![(i % 251) as u8; 128]))
        .collect();
    let replies = client.multi_put(pairs.clone());
    assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
    kvs.quiesce().unwrap();
    let replies = client.multi_get(pairs.iter().map(|(k, _)| k.clone()));
    for ((k, v), reply) in pairs.iter().zip(&replies) {
        assert_eq!(reply.value(), Some(v.as_slice()), "{k:?}");
    }
}
