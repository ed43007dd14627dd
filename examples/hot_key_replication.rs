//! Selective replication of hot keys: a highly-skewed workload overloads the
//! owner of a handful of keys; sharing their ownership across KNs (via
//! indirect pointers in DPM) spreads the load — the mechanism behind the
//! paper's Figure 7.
//!
//! ```bash
//! cargo run --release --example hot_key_replication
//! ```

use dinomo::workload::key_for;
use dinomo::{Kvs, KvsConfig, Variant};

fn main() {
    let config = KvsConfig {
        variant: Variant::Dinomo,
        initial_kns: 4,
        threads_per_kn: 2,
        cache_bytes_per_kn: 2 << 20,
        ..KvsConfig::small_for_tests()
    };
    let kvs = Kvs::new(config).expect("cluster");
    let client = kvs.client();

    for i in 0..2_000u64 {
        client.insert(&key_for(i, 8), &[0u8; 128]).unwrap();
    }

    // A highly skewed phase: 4 hot keys receive most of the traffic.
    let hot_keys: Vec<Vec<u8>> = (0..4u64).map(|i| key_for(i, 8)).collect();
    let skewed_round = |label: &str| {
        let before: Vec<(u32, u64)> = kvs.stats().kns.iter().map(|k| (k.id, k.ops)).collect();
        for _ in 0..2_000 {
            for key in &hot_keys {
                client.lookup(key).unwrap();
            }
        }
        let after = kvs.stats();
        println!("\n{label}: per-KN operations for the hot-key phase");
        for kn in &after.kns {
            let prev = before
                .iter()
                .find(|(id, _)| *id == kn.id)
                .map_or(0, |(_, o)| *o);
            println!("  KN {} served {} ops", kn.id, kn.ops - prev);
        }
    };

    skewed_round("before replication");

    // The M-node decides the 4 keys are hot and shares their ownership
    // across all 4 KNs (factor = cluster size).
    for key in &hot_keys {
        let owners = kvs.replicate_key(key, 4).unwrap();
        println!("replicated {:?} across KNs {:?}", key, owners);
    }
    // The primary still owns each key, so nothing rejects the client's
    // cached routing; it learns the replica sets by refreshing it.
    client.refresh_routing();
    skewed_round("after replication");

    // Writes to a shared key stay linearizable: the owners race through a
    // CAS on the key's indirect pointer in DPM.
    client.update(&hot_keys[0], b"new-value").unwrap();
    assert_eq!(
        client.lookup(&hot_keys[0]).unwrap(),
        Some(b"new-value".to_vec())
    );

    // When the skew subsides the keys are de-replicated again.
    for key in &hot_keys {
        kvs.dereplicate_key(key).unwrap();
    }
    println!(
        "\nde-replicated all hot keys; replication factor of key 0 is now {}",
        kvs.ownership().read().replication_factor(&hot_keys[0])
    );
}
