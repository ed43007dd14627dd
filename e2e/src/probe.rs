//! Per-layer probes of the traced run. `KnNode::{get, put, run_batch}` are
//! the deepest calls a request can be unrolled into from outside the
//! program, so the layers below them are measured by replaying the same
//! seeded keys against each layer's own public entry points, on the
//! quiescent cluster, as probe children of `kn`. Counts come from public
//! stats as differences over the closed phase.

use crate::gen::key_bytes;
use crate::metrics::Metrics;
use crate::preset::{KNS, MERGE_THREADS, SHARDS_PER_KN, VALUE_LEN, WRITE_BATCH_OPS};
use crate::run::{Counters, Env, Outcome, STREAM_PROBE};
use crate::trace::{SpanBuf, Trace};
use dinomo_cache::{CacheLookup, DacCache, KnCache, ValueLoc};
use dinomo_core::KnStats;
use dinomo_dpm::{LogWriter, OrderedIndex, PackedLoc};
use dinomo_obs::LogHistogram;
use dinomo_pmem::PmAddr;
use dinomo_simnet::Nic;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Keys replayed against the standalone cache and the scratch index.
const REPLAY_KEYS: usize = 20_000;
/// Keys replayed against the entry points that wait on the fabric.
const FABRIC_KEYS: usize = 2_000;
/// Scratch log appends (a flush every `WRITE_BATCH_OPS`).
const LOG_APPENDS: u64 = 4_000;
/// A KN id no cluster node has: the scratch log writer's.
const SCRATCH_KN: u32 = 1_000_000;

/// What the probes measured that is not a span.
#[derive(Debug, Default)]
pub struct Probes {
    pub trace: Trace,
    /// Plain `client.lookup` on the quiescent cluster, ns.
    pub client_lookup: LogHistogram,
    pub gc_pass_ms: f64,
    pub gc_skipped_pinned: u64,
}

/// The counter snapshots a report differences.
pub struct Windows<'a> {
    pub after_setup: &'a Counters,
    pub before_closed: &'a Counters,
    pub after_closed: &'a Counters,
    pub after_open: &'a Counters,
    pub closed_ops: u64,
}

/// Keys of the workload's own stream that one shard of one KN owns: the
/// stream that shard's cache sees.
fn shard_stream(env: &Env, n: usize) -> Vec<u64> {
    let table = env.kvs.ownership();
    let table = table.read();
    let kn = table.kns()[0];
    let mut stream = env.stream(STREAM_PROBE, 0);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let id = stream.next_op().key;
        let key = key_bytes(id);
        if table.primary_owner(&key) == Some(kn) && table.thread_of(kn, &key) == Some(0) {
            keys.push(id);
        }
    }
    keys
}

pub fn run(env: &Env) -> Probes {
    let mut buf = SpanBuf::new(env.epoch);
    let mut probes = Probes::default();
    let dpm = env.kvs.dpm();
    let config = *env.kvs.config();
    let nic = Nic::new(config.fabric);
    let keys = shard_stream(env, REPLAY_KEYS.min(env.ledger.keys() as usize));

    // cache: a standalone DAC of the shard's capacity fed the shard's key
    // stream twice; the second pass is measured, so the cache is as warm
    // as the shard's own.
    let mut cache = DacCache::new(config.cache_bytes_per_shard());
    let value = vec![0u8; VALUE_LEN];
    for measured in [false, true] {
        for &id in &keys {
            let key = key_bytes(id);
            let loc = ValueLoc::new(id * 256, VALUE_LEN as u32);
            if !measured {
                if !matches!(cache.lookup(&key), CacheLookup::Value(_)) {
                    cache.record_miss_cost(2);
                    cache.admit_value(&key, &value, loc);
                }
                continue;
            }
            buf.nested("probe.kn", |kn| {
                let found = kn.timed("cache.lookup", || cache.lookup(&key));
                if !matches!(found, CacheLookup::Value(_)) {
                    cache.record_miss_cost(2);
                    kn.timed("cache.admit", || cache.admit_value(&key, &value, loc));
                }
            });
        }
    }

    // pclht + dpm_read: index walk without the fabric, then the full miss
    // path and the shortcut path over a polling NIC.
    let guard = dinomo_dpm::pin();
    for &id in keys.iter().take(FABRIC_KEYS) {
        let key = key_bytes(id);
        buf.nested("probe.kn", |kn| {
            kn.timed("pclht.get", || dpm.local_lookup_in(&guard, &key));
            let found = kn.timed("dpm_read.remote_read", || {
                dpm.remote_read_in(&guard, &nic, &key)
            });
            if let Some((addr, len)) = found.value_loc {
                kn.timed("dpm_read.value_read", || dpm.read_value_at(&nic, addr, len));
            }
        });
    }
    drop(guard);

    // log: a scratch writer appending scratch keys (ids past the key
    // space, so the sweep never sees them) and flushing every batch.
    let mut writer = LogWriter::new(Arc::clone(dpm), SCRATCH_KN, nic.clone());
    buf.nested("probe.kn", |kn| {
        for i in 0..LOG_APPENDS {
            let key = key_bytes(env.ledger.keys() + i);
            kn.timed("log.append", || writer.append_put(&key, &value));
            if writer.buffered_entries() >= WRITE_BATCH_OPS {
                kn.timed("log.flush", || writer.flush().expect("scratch flush"));
            }
        }
    });
    writer.flush().expect("scratch flush");
    writer.seal_current();

    // merge, ordered, gc: the scratch segment's merge, upserts into a
    // scratch index, and one synchronous compaction pass.
    let ordered = OrderedIndex::new();
    let guard = dinomo_dpm::pin();
    buf.nested("probe.dpm", |dpm_side| {
        dpm_side.timed("merge.wait_until_all_merged", || {
            dpm.wait_until_all_merged()
        });
        for &id in &keys {
            let loc = PackedLoc::direct(PmAddr(id * 256), 160);
            dpm_side.timed("ordered.upsert", || {
                ordered.upsert(&guard, &key_bytes(id), loc)
            });
        }
        let t0 = Instant::now();
        let report = dpm_side.timed("gc.compact_once", || dpm.compact_once());
        probes.gc_pass_ms = t0.elapsed().as_secs_f64() * 1e3;
        probes.gc_skipped_pinned = report.segments_skipped_pinned;
    });
    drop(guard);

    // client: the plain per-key call against its hand-unrolled twin, in
    // alternating order so neither always finds the cache warmer.
    let client = env.kvs.client();
    let mut stream = env.stream(STREAM_PROBE, 1);
    for i in 0..FABRIC_KEYS {
        let key = key_bytes(stream.next_op().key);
        let plain = |h: &mut LogHistogram| {
            let t0 = Instant::now();
            std::hint::black_box(client.lookup(&key)).expect("probe lookup");
            h.record(t0.elapsed().as_nanos() as u64);
        };
        if i % 2 == 0 {
            plain(&mut probes.client_lookup);
        }
        crate::run::unrolled_op(env, &client, &mut buf, &key, None).expect("probe lookup");
        if i % 2 == 1 {
            plain(&mut probes.client_lookup);
        }
    }
    probes.trace.absorb(buf);
    probes
}

/// What the nodes alive at `later` did since `earlier`, summed. A node
/// that joined in between counts from its start; one that left took its
/// counters with it, so under `churn` this covers the survivors only and
/// every ratio below divides by the sum's own op counts.
fn kn_delta(later: &[KnStats], earlier: &[KnStats]) -> KnStats {
    let mut sum = KnStats::default();
    for k in later {
        let born = KnStats::default();
        let k = k.since(earlier.iter().find(|e| e.id == k.id).unwrap_or(&born));
        sum.ops += k.ops;
        sum.reads += k.reads;
        sum.writes += k.writes;
        sum.rejected += k.rejected;
        sum.busy_ns += k.busy_ns;
        sum.cache.value_hits += k.cache.value_hits;
        sum.cache.shortcut_hits += k.cache.shortcut_hits;
        sum.cache.misses += k.cache.misses;
        sum.cache.promotions += k.cache.promotions;
        sum.cache.demotions += k.cache.demotions;
        sum.cache.evictions += k.cache.evictions;
        sum.nic = sum.nic.merged(&k.nic);
    }
    sum
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total ns a windowed histogram recorded.
fn total_ns(later: &LogHistogram, earlier: &LogHistogram) -> f64 {
    let d = later.diff(earlier);
    d.mean() * d.count() as f64
}

/// Fill in the per-layer metrics and the per-layer table.
pub fn report(env: &Env, out: &mut Outcome, trace: &Trace, probes: &Probes, w: &Windows) {
    let m: &mut Metrics = &mut out.metrics;
    let ops = w.closed_ops as f64;
    let kop = ops / 1e3;
    let window_ns = (w.after_closed.at - w.before_closed.at).as_nanos() as f64;
    let closed = kn_delta(&w.after_closed.kvs.kns, &w.before_closed.kvs.kns);
    let open = kn_delta(&w.after_open.kvs.kns, &w.after_closed.kvs.kns);
    let kn_ops = closed.ops as f64;
    let user_bytes = |writes: u64| (writes * (8 + VALUE_LEN as u64)) as f64;

    for (name, span) in [
        ("partition.route", "route"),
        ("kn.get", "kn.get"),
        ("kn.put", "kn.put"),
    ] {
        m.put_timing(name, &trace.hist(span));
    }
    for name in [
        "cache.lookup",
        "cache.admit",
        "dpm_read.remote_read",
        "dpm_read.value_read",
        "pclht.get",
        "log.append",
        "log.flush",
        "ordered.upsert",
    ] {
        m.put_timing(name, &probes.trace.hist(name));
    }

    let a = w.after_closed;
    let b = w.before_closed;
    m.put(
        "client.batch_self_ns_per_op",
        ratio(
            total_ns(&a.dispatch, &b.dispatch) + total_ns(&a.reply, &b.reply),
            ops,
        ),
    );
    // Medians: a difference of two means over a thousand calls each is
    // decided by whichever side met a hypervisor pause.
    let p50 = |h: &LogHistogram| {
        if h.is_empty() {
            0.0
        } else {
            h.value_at_quantile(0.5) as f64
        }
    };
    let client_self = p50(&probes.client_lookup) - p50(&probes.trace.hist("request"));
    m.put("client.perkey_self_ns", client_self);
    let queue_wait = a.queue_wait.diff(&b.queue_wait);
    m.put(
        "executor.enqueued_share",
        ratio(
            queue_wait.count() as f64,
            a.shard_execute.diff(&b.shard_execute).count() as f64,
        ),
    );
    m.put(
        "executor.busy_per_kop",
        ratio((a.busy_rejections - b.busy_rejections) as f64, kop),
    );
    m.put(
        "executor.queue_wait_p99_ns",
        queue_wait.value_at_quantile(0.99) as f64,
    );
    m.put("kn.run_batch_ns_per_op", trace.mean("kn.run_batch"));
    m.put(
        "kn.busy_share",
        closed.busy_ns as f64 / (window_ns * (KNS * SHARDS_PER_KN) as f64),
    );
    m.put(
        "kn.rejected_per_kop",
        ratio(closed.rejected as f64, kn_ops / 1e3),
    );
    let lookups = closed.cache.lookups() as f64;
    m.put(
        "cache.value_hit_share",
        ratio(closed.cache.value_hits as f64, lookups),
    );
    m.put(
        "cache.shortcut_hit_share",
        ratio(closed.cache.shortcut_hits as f64, lookups),
    );
    m.put(
        "cache.miss_share",
        ratio(closed.cache.misses as f64, lookups),
    );
    m.put(
        "cache.promotions_per_kop",
        ratio(closed.cache.promotions as f64, kn_ops / 1e3),
    );
    m.put(
        "cache.demotions_per_kop",
        ratio(closed.cache.demotions as f64, kn_ops / 1e3),
    );
    m.put(
        "cache.evictions_per_kop",
        ratio(closed.cache.evictions as f64, kn_ops / 1e3),
    );
    m.put(
        "simnet.rts_per_op",
        ratio(closed.nic.round_trips() as f64, kn_ops),
    );
    m.put(
        "simnet.bytes_per_op",
        ratio(closed.nic.total_bytes() as f64, kn_ops),
    );
    m.put(
        "simnet.wait_share",
        ratio(closed.nic.modeled_ns as f64, closed.busy_ns as f64),
    );
    m.put(
        "pclht.read_retries_per_kop",
        ratio((a.pclht.read_retries - b.pclht.read_retries) as f64, kop),
    );
    let pclht = &w.after_open.pclht;
    m.put("pclht.resizes", pclht.resizes as f64);
    m.put(
        "pclht.overflow_share",
        ratio(pclht.overflow_buckets as f64, pclht.buckets as f64),
    );
    m.put(
        "log.fabric_bytes_per_user_byte",
        ratio(closed.nic.bytes_written as f64, user_bytes(closed.writes)),
    );
    m.put(
        "log.flush_wait_ms",
        total_ns(&a.flush_wait, &b.flush_wait) / 1e6,
    );
    m.put(
        "merge.entries_per_s",
        (a.kvs.dpm.entries_merged - b.kvs.dpm.entries_merged) as f64 / (window_ns / 1e9),
    );
    m.put(
        "merge.ordered_root_wait_share",
        total_ns(&a.ordered_root_wait, &b.ordered_root_wait) / (window_ns * MERGE_THREADS as f64),
    );
    let (first, last) = (&w.after_setup.kvs.dpm, &w.after_open.kvs.dpm);
    m.put(
        "gc.segments_compacted",
        (last.segments_compacted - first.segments_compacted) as f64,
    );
    m.put(
        "gc.relocated_bytes_per_user_byte",
        ratio(
            (last.bytes_relocated - first.bytes_relocated) as f64,
            user_bytes(closed.writes + open.writes),
        ),
    );
    m.put("gc.pass_ms", probes.gc_pass_ms);
    m.put(
        "gc.segments_skipped_pinned",
        probes.gc_skipped_pinned as f64,
    );
    m.put(
        "pmem.flushes_per_kop",
        ratio((a.pmem.flushes - b.pmem.flushes) as f64, kop),
    );
    m.put(
        "pmem.fences_per_kop",
        ratio((a.pmem.fences - b.pmem.fences) as f64, kop),
    );
    m.put(
        "pmem.bytes_written_per_user_byte",
        ratio(
            (a.pmem.bytes_written - b.pmem.bytes_written) as f64,
            user_bytes(closed.writes),
        ),
    );
    m.put(
        "pmem.allocated_mb",
        w.after_open.pmem.allocated_bytes as f64 / 1e6,
    );
    m.put(
        "reconfig.lock_wait_ms",
        total_ns(&w.after_open.reconfig_wait, &w.before_closed.reconfig_wait) / 1e6,
    );

    // The per-layer table: where a per-key request's service time goes
    // under the open phase's load. Rows below `kn` are replays weighted by
    // how often the open phase took that path; nothing is rescaled, and
    // what the rows do not explain is its own row.
    let service = trace.mean("service.untraced");
    let reads = ratio(open.reads as f64, (open.reads + open.writes) as f64);
    let open_lookups = open.cache.lookups() as f64;
    let miss = ratio(open.cache.misses as f64, open_lookups);
    let shortcut = ratio(open.cache.shortcut_hits as f64, open_lookups);
    let p = |name: &str| probes.trace.mean(name);
    let route = trace.mean("route");
    let kn = reads * trace.mean("kn.get") + (1.0 - reads) * trace.mean("kn.put");
    let children = [
        ("  cache.lookup", reads * p("cache.lookup")),
        (
            "  cache.admit",
            reads * (miss + shortcut) * p("cache.admit"),
        ),
        (
            "  dpm_read.remote_read (pclht + simnet inside)",
            reads * miss * p("dpm_read.remote_read"),
        ),
        (
            "  dpm_read.value_read (simnet inside)",
            reads * shortcut * p("dpm_read.value_read"),
        ),
        ("  log.append", (1.0 - reads) * p("log.append")),
        (
            "  log.flush / write_batch_ops",
            (1.0 - reads) * p("log.flush") / WRITE_BATCH_OPS as f64,
        ),
    ];
    let kn_self = kn - children.iter().map(|c| c.1).sum::<f64>();
    let unaccounted = service - (client_self + route + kn);
    m.put("bench.unaccounted_share", ratio(unaccounted, service));

    let mut table = String::new();
    let _ = writeln!(
        table,
        "per-layer table, per-key path, open phase ({}):",
        env.w.name
    );
    let _ = writeln!(table, "  {:<52} {:>12} {:>8}", "layer", "ns/op", "share");
    let mut row = |name: &str, ns: f64| {
        let _ = writeln!(
            table,
            "  {:<52} {:>12.1} {:>7.1}%",
            name,
            ns,
            100.0 * ratio(ns, service)
        );
    };
    row("service time (plain client call, send -> done)", service);
    row("client (self)", client_self);
    row("partition.route", route);
    row("kn (self)", kn_self);
    for (name, ns) in children {
        row(name, ns);
    }
    row("unaccounted", unaccounted);
    out.layer_table = table;
}
