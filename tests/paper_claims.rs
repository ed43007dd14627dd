//! The paper's headline claims, one test each, stated as exact or bounded
//! counter values: round trips per read (§3.3), bytes moved by a membership
//! change (§3.1, §3.5) and the spread of a replicated key's reads (§3.4).
//!
//! Every test drives the cluster from one client thread over a fixed key
//! set (replica picks are a fixed per-client sequence, not entropy), and
//! asserts only on `NicStats`, `CacheStats`, `KnStats` and
//! `Kvs::bytes_reshuffled` — never on time — so each is deterministic on
//! any machine.
//!
//! The Fig. 3 claim (§3.3: DAC needs fewer round trips than any static
//! split of the same budget) is two tests, one per key stream, so they run
//! in parallel: `CacheKind::{ShortcutOnly, ValueOnly, StaticFraction}` are
//! its baselines.
//!
//! Not here: the Table 4 policy claim (§3.5: add a KN when every node is
//! busy, replicate a key above mean + 3σ) is gated by the unit tests of
//! `crates/cluster/src/policy.rs`.

use dinomo::cache::{CacheKind, CacheStats};
use dinomo::core::key_for;
use dinomo::dpm::DpmConfig;
use dinomo::partition::KnId;
use dinomo::pclht::bucket::BUCKET_BYTES;
use dinomo::pclht::PclhtConfig;
use dinomo::simnet::{NicStats, OUTSTANDING_READS};
use dinomo::{
    KeyDistribution, Kvs, KvsClient, KvsConfig, Op, Variant, WorkloadConfig, WorkloadGenerator,
    WorkloadMix,
};

fn key(i: u64) -> Vec<u8> {
    key_for(i, 8)
}

fn value(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; 64]
}

/// A cluster built from `config`, with `keys` keys written.
fn loaded(config: KvsConfig, keys: u64) -> Kvs {
    let kvs = Kvs::new(config).unwrap();
    let client = kvs.client();
    for i in 0..keys {
        client.insert(&key(i), &value(i)).unwrap();
    }
    kvs
}

/// One KN with one shard, `keys` keys loaded, and nothing of them left in
/// the node's DRAM. Merged-but-still-tracked writes would be served from
/// the node's overlay of committed writes at 1 RT, so a `quiesce` alone
/// does not make a cold read a miss; an ownership hand-off away and back
/// clears the overlay and the cache. The index starts at 16 buckets per
/// key, sparse enough that no bucket overflows.
fn cold_single_node(cache_kind: CacheKind, cache_bytes: usize, keys: u64) -> (Kvs, KnId) {
    let base = KvsConfig::small_for_tests();
    let kvs = loaded(
        KvsConfig {
            initial_kns: 1,
            threads_per_kn: 1,
            cache_bytes_per_kn: cache_bytes,
            cache_kind: Some(cache_kind),
            dpm: DpmConfig {
                index: PclhtConfig {
                    initial_buckets: 16 * keys as usize,
                    ..base.dpm.index
                },
                ..base.dpm
            },
            ..base
        },
        keys,
    );
    kvs.quiesce().unwrap();
    let extra = kvs.add_kn().unwrap();
    kvs.remove_kn(extra).unwrap();
    let kn = kvs.kn_ids()[0];
    assert_eq!(kvs.kn_ids(), vec![kn]);
    assert_eq!(
        kvs.dpm().index().stats().overflow_buckets,
        0,
        "a miss costs 2 RTs only without overflow chains"
    );
    (kvs, kn)
}

/// What reading each of `keys` once cost on node `kn`: the cache's
/// verdicts and the round trips.
fn read_pass(kvs: &Kvs, client: &KvsClient, kn: KnId, keys: &[Vec<u8>]) -> (CacheStats, u64) {
    let before = kvs.kn(kn).unwrap().stats();
    for k in keys {
        assert!(client.lookup(k).unwrap().is_some());
    }
    let delta = kvs.kn(kn).unwrap().stats().since(&before);
    (delta.cache, delta.nic.round_trips())
}

#[test]
fn a_value_hit_costs_0_rts_a_shortcut_hit_1_and_a_miss_2() {
    const KEYS: u64 = 100;
    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();

    // Shortcut-only cache: a miss reads one bucket and one entry, and
    // leaves a shortcut; the shortcut hit reads the value directly.
    let (kvs, kn) = cold_single_node(CacheKind::ShortcutOnly, 1 << 20, KEYS);
    let client = kvs.client();
    let (cache, rts) = read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.misses, rts), (KEYS, 2 * KEYS), "{cache:?}");
    let (cache, rts) = read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.shortcut_hits, rts), (KEYS, KEYS), "{cache:?}");

    // DAC with room for every value: the miss admits the value, and the
    // value hit costs nothing.
    let (kvs, kn) = cold_single_node(CacheKind::Dac, 1 << 20, KEYS);
    let client = kvs.client();
    let (cache, rts) = read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.misses, rts), (KEYS, 2 * KEYS), "{cache:?}");
    let (cache, rts) = read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.value_hits, rts), (KEYS, 0), "{cache:?}");

    // DAC with room for a fifth of the values: the cold pass ends with the
    // cache full, so its last miss is cached as a shortcut. Reading that
    // key again costs 1 RT per shortcut hit until Eq. 1 promotes it, and 0
    // after.
    let (kvs, kn) = cold_single_node(CacheKind::Dac, 2 << 10, KEYS);
    let client = kvs.client();
    let (cache, rts) = read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.misses, rts), (KEYS, 2 * KEYS), "{cache:?}");
    let hot = vec![key(KEYS - 1); 20];
    let (cache, rts) = read_pass(&kvs, &client, kn, &hot);
    assert_eq!(cache.misses, 0, "{cache:?}");
    assert_eq!(cache.promotions, 1, "{cache:?}");
    assert_eq!(rts, cache.shortcut_hits, "{cache:?}");
    assert!(cache.value_hits >= 10, "{cache:?}");
    let (cache, rts) = read_pass(&kvs, &client, kn, &hot);
    assert_eq!((cache.value_hits, rts), (20, 0), "{cache:?}");
}

/// What reading `keys` in one `multi_get` cost on node `kn`, which must
/// own them all on one shard: one read-only slice, so one posted list of
/// fabric reads. Returns the cache's verdicts, the round trips and the
/// node's NIC counters.
fn batched_read_pass(
    kvs: &Kvs,
    client: &KvsClient,
    kn: KnId,
    keys: &[Vec<u8>],
) -> (CacheStats, u64, NicStats) {
    let before = kvs.kn(kn).unwrap().stats();
    for reply in client.multi_get(keys) {
        assert!(reply.value().is_some(), "{reply:?}");
    }
    let delta = kvs.kn(kn).unwrap().stats().since(&before);
    (delta.cache, delta.nic.round_trips(), delta.nic)
}

/// The modeled wait of one posted list whose reads form `levels`
/// dependency levels of `per_level` reads each, `level0_bytes` of them at
/// the first level and the rest of `nic.bytes_read` at the second.
fn posted_wait_ns(nic: &NicStats, levels: u64, per_level: u64, level0_bytes: u64) -> u64 {
    let fabric = KvsConfig::small_for_tests().fabric;
    let latency = levels * per_level.div_ceil(OUTSTANDING_READS) * fabric.one_sided_latency_ns;
    let rest = nic.bytes_read - level0_bytes;
    latency + fabric.transfer_ns(level0_bytes as usize) + fabric.transfer_ns(rest as usize)
}

/// The batched twin of
/// `a_value_hit_costs_0_rts_a_shortcut_hit_1_and_a_miss_2`: the same reads
/// through `multi_get`, so each pass is one read-only slice whose reads are
/// posted together. Every class costs the same round trips, and each
/// slice waits once per dependency level: a pass of misses two levels (the
/// bucket reads, then the entry reads), a pass of shortcut hits one.
#[test]
fn batched_reads_cost_the_same_rts_per_class_and_wait_once_per_level() {
    const KEYS: u64 = 100;
    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
    let buckets = KEYS * BUCKET_BYTES;

    let (kvs, kn) = cold_single_node(CacheKind::ShortcutOnly, 1 << 20, KEYS);
    let client = kvs.client();
    let (cache, rts, nic) = batched_read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.misses, rts), (KEYS, 2 * KEYS), "{cache:?}");
    assert_eq!(nic.modeled_ns, posted_wait_ns(&nic, 2, KEYS, buckets));
    let (cache, rts, nic) = batched_read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.shortcut_hits, rts), (KEYS, KEYS), "{cache:?}");
    assert_eq!(nic.modeled_ns, posted_wait_ns(&nic, 1, KEYS, 0));

    let (kvs, kn) = cold_single_node(CacheKind::Dac, 1 << 20, KEYS);
    let client = kvs.client();
    let (cache, rts, _) = batched_read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.misses, rts), (KEYS, 2 * KEYS), "{cache:?}");
    let (cache, rts, nic) = batched_read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.value_hits, rts), (KEYS, 0), "{cache:?}");
    assert_eq!(nic.modeled_ns, 0, "a slice of value hits posts nothing");

    // The hot key's reads run in one slice in order, each seeing the cache
    // its predecessors left: the shortcut hits until Eq. 1 promotes it,
    // value hits after.
    let (kvs, kn) = cold_single_node(CacheKind::Dac, 2 << 10, KEYS);
    let client = kvs.client();
    let (cache, rts, _) = batched_read_pass(&kvs, &client, kn, &keys);
    assert_eq!((cache.misses, rts), (KEYS, 2 * KEYS), "{cache:?}");
    let hot = vec![key(KEYS - 1); 20];
    let (cache, rts, _) = batched_read_pass(&kvs, &client, kn, &hot);
    assert_eq!(cache.misses, 0, "{cache:?}");
    assert_eq!(cache.promotions, 1, "{cache:?}");
    assert_eq!(rts, cache.shortcut_hits, "{cache:?}");
    assert!(cache.value_hits >= 10, "{cache:?}");
    let (cache, rts, _) = batched_read_pass(&kvs, &client, kn, &hot);
    assert_eq!((cache.value_hits, rts), (20, 0), "{cache:?}");
}

/// The cache budgets Fig. 3 is checked at. The 4,000 keys take 416 KB as
/// cached values and 128 KB as shortcuts, so neither budget holds every
/// key either way: 16 KiB fits about 4 % of them as values or 13 % as
/// shortcuts, 64 KiB about 16 % or 51 %.
const FIG3_BUDGETS: [usize; 2] = [16 << 10, 64 << 10];

/// The static splits of Fig. 3: all shortcuts, all values, and 20, 40 and
/// 80 % of the budget for values.
const STATIC_SPLITS: [CacheKind; 5] = [
    CacheKind::ShortcutOnly,
    CacheKind::ValueOnly,
    CacheKind::StaticFraction(20),
    CacheKind::StaticFraction(40),
    CacheKind::StaticFraction(80),
];

/// Round trips per read of a seeded read-only stream over 4,000 cold keys
/// on one KN with a `cache_bytes` budget of `cache_kind`: 20 k warm-up
/// reads, then the mean over 40 k measured ones.
fn rts_per_read(cache_kind: CacheKind, cache_bytes: usize, distribution: KeyDistribution) -> f64 {
    const KEYS: u64 = 4_000;
    const WARM_UP: u64 = 20_000;
    const MEASURED: u64 = 40_000;
    let (kvs, kn) = cold_single_node(cache_kind, cache_bytes, KEYS);
    let client = kvs.client();
    let mut stream = WorkloadGenerator::new(WorkloadConfig {
        num_keys: KEYS,
        value_len: 64,
        mix: WorkloadMix::READ_ONLY,
        distribution,
        seed: 3,
    });
    let mut read = |n: u64| {
        for _ in 0..n {
            let Op::Lookup { key: k } = stream.next_op() else {
                unreachable!("a read-only mix")
            };
            assert!(client.lookup(&k).unwrap().is_some());
        }
    };
    read(WARM_UP);
    let before = kvs.kn(kn).unwrap().stats();
    read(MEASURED);
    let rts = kvs.kn(kn).unwrap().stats().since(&before).nic.round_trips();
    rts as f64 / MEASURED as f64
}

/// Hands `check` DAC's round trips per read at each Fig. 3 budget, beside
/// each static split's.
fn fig3(distribution: KeyDistribution, check: impl Fn(usize, f64, &[(CacheKind, f64)])) {
    for bytes in FIG3_BUDGETS {
        let dac = rts_per_read(CacheKind::Dac, bytes, distribution);
        let splits: Vec<(CacheKind, f64)> = STATIC_SPLITS
            .into_iter()
            .map(|kind| (kind, rts_per_read(kind, bytes, distribution)))
            .collect();
        check(bytes, dac, &splits);
    }
}

#[test]
fn dac_needs_fewer_rts_than_every_static_split_on_a_skewed_stream() {
    fig3(KeyDistribution::MODERATE_SKEW, |bytes, dac, splits| {
        for &(kind, rts) in splits {
            assert!(
                dac < rts,
                "{bytes} B: DAC {dac:.3} RT/read, {kind:?} {rts:.3}; all {splits:?}"
            );
        }
    });
}

/// On a uniform stream DAC may cost up to 2 % more than the best static
/// split. When every key is equally popular, a key's past hits predict
/// nothing about its future ones, so a promotion Eq. 1 approves on them
/// is a small loss on average: it evicts shortcuts that are exactly as
/// likely to be read as the promoted value.
#[test]
fn dac_stays_within_2_percent_of_the_best_static_split_on_a_uniform_stream() {
    fig3(KeyDistribution::Uniform, |bytes, dac, splits| {
        let best = splits.iter().map(|&(_, rts)| rts).fold(f64::MAX, f64::min);
        assert!(
            dac <= 1.02 * best,
            "{bytes} B: DAC {dac:.3} RT/read, best split {best:.3}; all {splits:?}"
        );
    });
}

#[test]
fn ownership_partitioning_moves_no_data_and_shared_nothing_copies_it() {
    let config = |variant| KvsConfig::small_for_tests().with_variant(variant);

    // Dinomo hands over ownership only.
    let kvs = loaded(config(Variant::Dinomo), 400);
    let added = kvs.add_kn().unwrap();
    assert_eq!(kvs.bytes_reshuffled(), 0, "add_kn");
    kvs.remove_kn(added).unwrap();
    assert_eq!(kvs.bytes_reshuffled(), 0, "remove_kn");

    // Dinomo-N physically copies every pair that changes owner, both ways,
    // so the bytes it moves grow with the data.
    let copied = |keys: u64| {
        let kvs = loaded(config(Variant::DinomoN), keys);
        let added = kvs.add_kn().unwrap();
        let on_add = kvs.bytes_reshuffled();
        kvs.remove_kn(added).unwrap();
        assert!(kvs.bytes_reshuffled() > on_add, "remove_kn at {keys} keys");
        let client = kvs.client();
        for i in 0..keys {
            assert_eq!(client.lookup(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
        on_add
    };
    let (small, large) = (copied(400), copied(800));
    assert!(small > 0);
    let growth = large as f64 / small as f64;
    assert!(
        (1.5..=2.5).contains(&growth),
        "doubling the data moved {small} -> {large} bytes"
    );
}

#[test]
fn replication_spreads_a_hot_key_over_its_replicas() {
    const READS: u64 = 300;
    let kvs = loaded(
        KvsConfig {
            initial_kns: 3,
            ..KvsConfig::small_for_tests()
        },
        100,
    );
    kvs.quiesce().unwrap();
    let client = kvs.client();
    let hot = key(7);
    let per_kn = |kvs: &Kvs| -> Vec<(u64, u64)> {
        let before = kvs.stats().kns;
        for _ in 0..READS {
            assert_eq!(client.lookup(&hot).unwrap(), Some(value(7)));
        }
        let after = kvs.stats().kns;
        before
            .iter()
            .zip(&after)
            .map(|(b, a)| {
                assert_eq!(a.id, b.id);
                let d = a.since(b);
                (d.reads, d.nic.round_trips())
            })
            .collect()
    };

    // Owned: every read lands on the key's one owner.
    let owned = per_kn(&kvs);
    assert_eq!(owned.iter().filter(|(reads, _)| *reads > 0).count(), 1);
    assert_eq!(owned.iter().map(|(reads, _)| reads).sum::<u64>(), READS);

    // Shared by all three: each replica serves close to an even share, and
    // each read costs 2 RTs (the indirection cell, then the value).
    assert_eq!(kvs.replicate_key(&hot, 3).unwrap().len(), 3);
    client.refresh_routing();
    let shared = per_kn(&kvs);
    let even = READS / 3;
    for &(reads, rts) in &shared {
        assert!(
            (even / 2..=even * 2).contains(&reads),
            "replica reads {shared:?}"
        );
        assert_eq!(rts, 2 * reads, "replica reads {shared:?}");
    }
    assert_eq!(shared.iter().map(|(reads, _)| reads).sum::<u64>(), READS);

    // Several shared keys read in a fixed cycle: each key's reads still
    // spread over its replicas. (A round-robin counter shared by every key
    // would land each key of a 3-key cycle on the same replica every time.)
    const CYCLES: u64 = 100;
    let cycle: Vec<Vec<u8>> = [11, 12, 13].into_iter().map(key).collect();
    for k in &cycle {
        assert_eq!(kvs.replicate_key(k, 3).unwrap().len(), 3);
    }
    client.refresh_routing();
    let mut per_key = vec![vec![0u64; 3]; cycle.len()];
    for _ in 0..CYCLES {
        for (k, spread) in cycle.iter().zip(&mut per_key) {
            let before = kvs.stats().kns;
            assert!(client.lookup(k).unwrap().is_some());
            let after = kvs.stats().kns;
            let served = (0..after.len())
                .find(|&i| after[i].reads > before[i].reads)
                .expect("one replica served the read");
            spread[served] += 1;
        }
    }
    let even = CYCLES / 3;
    for spread in &per_key {
        assert!(
            spread
                .iter()
                .all(|&reads| (even / 2..=even * 2).contains(&reads)),
            "per-key replica reads {per_key:?}"
        );
    }
}
