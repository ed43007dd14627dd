//! Fault tolerance: kill a KVS node and watch the cluster recover without
//! losing committed data — the mechanism behind the paper's Figure 8.
//!
//! ```bash
//! cargo run --release --example fault_tolerance
//! ```

use dinomo::core::key_for;
use dinomo::{Kvs, KvsConfig, Variant};
use std::time::Instant;

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

    println!("loading 5,000 keys across {} KNs ...", kvs.num_kns());
    for i in 0..5_000u64 {
        client
            .insert(&key_for(i, 8), &vec![(i % 251) as u8; 256])
            .unwrap();
    }
    // No flush first: every acked write is already durable in the DPM log.

    let victim = kvs.kn_ids()[0];
    println!("failing KN {victim} ...");
    let start = Instant::now();
    kvs.fail_kn(victim).unwrap();
    let recovery = start.elapsed();
    println!(
        "recovery (merge pending logs + repartition ownership) took {:.1} ms; cluster now has {} KNs",
        recovery.as_secs_f64() * 1e3,
        kvs.num_kns()
    );

    println!("verifying that every committed key is still readable ...");
    let mut checked = 0;
    for i in 0..5_000u64 {
        let value = client
            .lookup(&key_for(i, 8))
            .expect("lookup failed")
            .unwrap_or_else(|| panic!("key {i} lost after the failure"));
        assert_eq!(value[0], (i % 251) as u8);
        checked += 1;
    }
    println!("all {checked} keys survived the KN failure");

    // The ownership metadata persisted in DPM lets a restarted routing tier
    // rebuild its soft state.
    let recovered = kvs
        .recover_policy_metadata()
        .expect("policy metadata in DPM");
    println!(
        "policy metadata recovered from DPM: {} (version {})",
        recovered.describe(),
        recovered.version()
    );
}
