//! Pins every seeded op stream the repository relies on to a digest, so a
//! change to the generator, the key chooser or the RNG that shifts a
//! single draw fails here rather than silently re-rolling the seed-42
//! `lincheck` scripts or the Fig. 3 streams of `tests/paper_claims.rs`
//! (whose uniform case holds a narrow margin against its bound).

use dinomo_check::driver::{churn_script, client_ops, CheckConfig};
use dinomo_check::workload::{KeyDistribution, WorkloadConfig, WorkloadGenerator, WorkloadMix};

/// 64-bit FNV-1a over each item's `Debug` form (op kind, key and value
/// bytes; churn action and its arguments).
fn digest<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for item in items {
        for b in format!("{item:?};").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The keys of the Fig. 3 read stream: 4,000 keys, seed 3, 60,000 reads.
/// A read-only stream is its keys, so its digest does not depend on how an
/// op prints.
fn fig3(distribution: KeyDistribution) -> impl Iterator<Item = Vec<u8>> {
    let mut stream = WorkloadGenerator::new(WorkloadConfig {
        num_keys: 4_000,
        mix: WorkloadMix::READ_ONLY,
        distribution,
        seed: 3,
        ..WorkloadConfig::default()
    });
    (0..60_000).map(move |_| stream.next_op().key().to_vec())
}

#[test]
fn seeded_streams_match_their_pinned_digests() {
    let config = CheckConfig::from_seed(42);
    let crashing = CheckConfig {
        crashes: true,
        ..config
    };
    let digests = [
        digest((0..config.clients).flat_map(|client| client_ops(&config, client))),
        digest(churn_script(&config)),
        digest(churn_script(&crashing)),
        digest(fig3(KeyDistribution::MODERATE_SKEW)),
        digest(fig3(KeyDistribution::Uniform)),
    ];
    let pinned = [
        0x0e84_6be7_c630_5563,
        0xfc33_06c2_ceb4_956b,
        0x3761_1bcf_9023_f740,
        0x6737_5e19_f1c1_b0ac,
        0x558d_1f46_44fe_073d,
    ];
    assert_eq!(digests, pinned, "a seeded stream changed: {digests:#x?}");
}
