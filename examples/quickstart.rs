//! Quickstart: build a small Dinomo cluster, run the basic API, and look at
//! the statistics the paper's evaluation is built on.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use dinomo::core::key_for;
use dinomo::{Kvs, KvsConfig, Variant};

fn main() {
    // A 2-KN cluster with DAC caching (the full Dinomo design).
    let config = KvsConfig {
        variant: Variant::Dinomo,
        initial_kns: 2,
        threads_per_kn: 4,
        cache_bytes_per_kn: 4 << 20,
        ..KvsConfig::small_for_tests()
    };
    let kvs = Kvs::new(config).expect("failed to build the cluster");
    let client = kvs.client();

    // The paper's API: insert / update / lookup / delete on variable-sized
    // keys and values.
    client.insert(b"user:1", b"alice").unwrap();
    client.insert(b"user:2", b"bob").unwrap();
    client.update(b"user:1", b"alice-v2").unwrap();
    println!(
        "user:1 = {:?}",
        String::from_utf8(client.lookup(b"user:1").unwrap().unwrap())
    );
    client.delete(b"user:2").unwrap();
    assert_eq!(client.lookup(b"user:2").unwrap(), None);

    // Load a few thousand keys and read them back with a skewed pattern to
    // watch the adaptive cache at work.
    for i in 0..5_000u64 {
        client
            .insert(&key_for(i, 8), &vec![(i % 251) as u8; 256])
            .unwrap();
    }
    for round in 0..3 {
        for i in 0..5_000u64 {
            let hot = i % 500; // a hot subset
            let value = client.lookup(&key_for(hot, 8)).unwrap().unwrap();
            assert_eq!(value[0], (hot % 251) as u8);
        }
        let stats = kvs.stats();
        println!(
            "round {round}: {} ops, cache hit ratio {:.1}% ({:.1}% from values), {:.2} RTs/op",
            stats.total_ops(),
            stats.cache_hit_ratio() * 100.0,
            stats.value_hit_ratio() * 100.0,
            stats.rts_per_op()
        );
    }

    // Elasticity: add a KVS node — only ownership moves, no data is copied.
    let new_kn = kvs.add_kn().unwrap();
    println!(
        "added KN {new_kn}; cluster now has {} KNs, reshuffled bytes = {}",
        kvs.num_kns(),
        kvs.bytes_reshuffled()
    );
    assert_eq!(kvs.bytes_reshuffled(), 0);
    let value = client.lookup(&key_for(42, 8)).unwrap().unwrap();
    println!(
        "key 42 still readable after reconfiguration ({} bytes)",
        value.len()
    );
}
