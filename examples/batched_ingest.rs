//! Batched ingest: load a workload through `KvsClient::execute` and compare
//! against the per-key path.
//!
//! Demonstrates the batched request API end to end — fluent cluster
//! construction with `Kvs::builder()`, chunks of `key_for` keys feeding
//! owner-grouped `multi_put` batches, and `multi_get` verification — and
//! prints the measured per-key vs batched ingest throughput.
//!
//! Run with `cargo run --release --example batched_ingest`.

use dinomo::core::key_for;
use dinomo::{Kvs, Op, Reply, Variant};
use std::time::Instant;

const BATCH: usize = 32;
const KEYS: u64 = 20_000;

/// Key `id` and its 256-byte value, as in the paper's load phase.
fn pair(id: u64) -> (Vec<u8>, Vec<u8>) {
    (key_for(id, 8), vec![(id % 251) as u8; 256])
}

fn main() {
    let kvs = Kvs::builder()
        .initial_kns(4)
        .threads_per_kn(2)
        .variant(Variant::Dinomo)
        .build()
        .expect("building the cluster failed");
    let client = kvs.client();

    // Phase 1: ingest the load phase in owner-grouped batches.
    let load: Vec<(Vec<u8>, Vec<u8>)> = (0..KEYS).map(pair).collect();
    let start = Instant::now();
    let mut failures = 0usize;
    for chunk in load.chunks(BATCH) {
        let replies = client.multi_put(chunk.iter().map(|(k, v)| (k, v)));
        failures += replies.iter().filter(|r| !r.is_ok()).count();
    }
    let batched_secs = start.elapsed().as_secs_f64();
    assert_eq!(failures, 0, "batched ingest reported failures");
    println!(
        "batched ingest : {} keys in {:.3}s ({:.0} ops/s)",
        load.len(),
        batched_secs,
        load.len() as f64 / batched_secs
    );

    // Phase 2: the same number of fresh inserts per key, for comparison.
    let start = Instant::now();
    for (k, v) in (KEYS..2 * KEYS).map(pair) {
        client.insert(&k, &v).expect("per-key insert failed");
    }
    let per_key_secs = start.elapsed().as_secs_f64();
    println!(
        "per-key ingest : {} keys in {:.3}s ({:.0} ops/s)",
        KEYS,
        per_key_secs,
        KEYS as f64 / per_key_secs
    );

    // Verify a sample of the loaded data through the batched read path.
    let sample: Vec<&Vec<u8>> = load.iter().step_by(97).map(|(k, _)| k).collect();
    let replies = client.multi_get(sample.iter().copied());
    for ((key, expected), reply) in load.iter().step_by(97).zip(&replies) {
        match reply {
            Reply::Value(Some(v)) => assert_eq!(v, expected, "mismatch at {key:?}"),
            other => panic!("lookup of {key:?} returned {other:?}"),
        }
    }
    println!(
        "verified       : {} sampled keys readable via multi_get",
        sample.len()
    );

    // Mixed batches work too: read-modify-write in one round trip per group.
    let replies = client.execute(vec![
        Op::lookup(&load[0].0),
        Op::update(&load[0].0, b"updated"),
        Op::lookup(&load[0].0),
    ]);
    assert!(replies.iter().all(Reply::is_ok));
    assert_eq!(replies[2].value(), Some(&b"updated"[..]));
    println!("mixed batch    : lookup/update/lookup round-tripped in one execute call");
}
