//! One workload run: setup -> warm -> closed phase -> open phase -> verify.
//!
//! The closed phase measures capacity (callers that wait for a reply): each
//! client thread submits 128-op `KvsClient::execute` batches back to back.
//! The open phase measures latency (independent users): seeded Poisson
//! arrivals at a fixed absolute rate, each op a per-key `lookup`/`update`,
//! latency taken from the *scheduled* arrival. The two phases deliberately
//! drive the store's two request paths.

use crate::check::{encode_value, Ledger};
use crate::gen::{key_bytes, Arrivals, GenOp, KeyChooser, OpStream};
use crate::metrics::Metrics;
use crate::preset::{self, Script, Workload, BATCH_OPS, VALUE_LEN};
use crate::probe;
use crate::trace::{SpanBuf, Trace};
use dinomo_core::{Kvs, KvsClient, KvsError, Op, Reply};
use dinomo_obs::{LockId, LogHistogram, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Seeded streams: each phase draws from its own.
const STREAM_WARM: u64 = 1;
const STREAM_CLOSED: u64 = 2;
const STREAM_OPEN: u64 = 3;
pub const STREAM_PROBE: u64 = 4;
const STREAM_CLOSED_TRACED: u64 = 5;

/// In the traced run, one request in this many is unrolled by hand.
const SAMPLE_EVERY: u64 = 16;

/// A measured phase is this many rounds, and a metric of the phase is the
/// median of its rounds: a stall of the machine (a preempted generator
/// thread, a noisy neighbour) spoils one round, not the run. `churn` runs
/// its script once per round.
const ROUNDS: u64 = 5;

/// The seeded stream of `round` of phase `stream`.
fn round_stream(stream: u64, round: u64) -> u64 {
    stream + 8 * round
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Measured seconds, split evenly between the closed and open phases.
    pub seconds: f64,
    pub keys: u64,
    pub trace: bool,
    /// Set-ups timed for `setup_s` (the median is reported, the last kept).
    pub setups: usize,
}

/// What a run hands back: the metrics, the counts for the result line,
/// and the human-readable notes.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
    pub layer_table: String,
    pub trace: Option<Trace>,
}

/// What every phase needs.
pub struct Env<'a> {
    pub kvs: &'a Kvs,
    pub ledger: &'a Ledger,
    pub w: &'a Workload,
    pub chooser: &'a KeyChooser,
    pub seed: u64,
    pub clients: u64,
    /// Start of the run: every span's clock.
    pub epoch: Instant,
}

impl Env<'_> {
    /// Thread `thread` of `threads`' op stream for phase `stream`.
    pub fn stream_of(&self, stream: u64, thread: u64, threads: u64) -> OpStream {
        OpStream::new(
            self.seed,
            stream,
            self.chooser.clone(),
            self.w.write_share,
            thread,
            threads,
        )
    }

    pub fn stream(&self, stream: u64, thread: u64) -> OpStream {
        self.stream_of(stream, thread, self.clients)
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Build the preset cluster and load every key at version 1.
pub fn setup(w: &Workload, keys: u64, track_persistence: bool) -> Kvs {
    let kvs = Kvs::new(preset::cluster_config(w, track_persistence)).expect("building the cluster");
    let clients = preset::clients() as u64;
    std::thread::scope(|s| {
        for t in 0..clients {
            let kvs = &kvs;
            s.spawn(move || {
                let client = kvs.client();
                let (lo, hi) = (keys * t / clients, keys * (t + 1) / clients);
                let ids: Vec<u64> = (lo..hi).collect();
                for chunk in ids.chunks(BATCH_OPS) {
                    let ops = chunk
                        .iter()
                        .map(|&k| Op::insert(key_bytes(k), encode_value(k, 1, VALUE_LEN)))
                        .collect();
                    assert!(
                        client.execute(ops).iter().all(Reply::is_ok),
                        "loading the key space failed"
                    );
                }
            });
        }
    });
    kvs.quiesce().expect("quiesce after load");
    kvs
}

/// Verified batch reads of `keys`, used to warm the caches.
fn read_batch(client: &KvsClient, ledger: &Ledger, keys: &[u64]) -> u64 {
    let floors: Vec<u64> = keys.iter().map(|&k| ledger.read_floor(k)).collect();
    let ops = keys.iter().map(|&k| Op::lookup(key_bytes(k))).collect();
    let mut failed = 0;
    for ((reply, &key), floor) in client.execute(ops).iter().zip(keys).zip(floors) {
        match reply {
            Reply::Value(v) if ledger.check_read(key, floor, v.as_deref()) => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Fill the caches before anything is measured: every key once where the
/// cache holds them all, otherwise `warm_ops` reads of the workload's own
/// key stream.
fn warm(env: &Env) -> u64 {
    let failed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..env.clients {
            let failed = &failed;
            s.spawn(move || {
                let client = env.kvs.client();
                let keys: Vec<u64> = if env.w.warm_ops == 0 {
                    let n = env.ledger.keys();
                    (n * t / env.clients..n * (t + 1) / env.clients).collect()
                } else {
                    let mut stream = env.stream(STREAM_WARM, t);
                    (0..env.w.warm_ops / env.clients)
                        .map(|_| stream.next_op().key)
                        .collect()
                };
                for chunk in keys.chunks(BATCH_OPS) {
                    failed.fetch_add(read_batch(&client, env.ledger, chunk), Ordering::Relaxed);
                }
            });
        }
    });
    failed.into_inner()
}

/// Longest interval with no completion on any client thread.
#[derive(Debug, Default)]
struct GapTracker {
    last_done_ns: AtomicU64,
}

impl GapTracker {
    /// Note a completion at `now_ns`; returns the gap it closed.
    fn done(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.last_done_ns.fetch_max(now_ns, Ordering::Relaxed))
    }
}

type OpResult = Result<Option<Vec<u8>>, KvsError>;

/// A generated op with what is needed to judge its reply.
struct Pending {
    op: GenOp,
    /// Version written, or the read floor.
    version: u64,
}

/// Judge one reply against the ledger; `true` when the op succeeded.
fn judge(ledger: &Ledger, p: &Pending, result: &OpResult) -> bool {
    match (p.op.write, result) {
        (true, Ok(_)) => {
            ledger.acked(p.op.key, p.version);
            true
        }
        (false, Ok(v)) => ledger.check_read(p.op.key, p.version, v.as_deref()),
        (_, Err(_)) => false,
    }
}

fn routing_error(e: &KvsError) -> bool {
    matches!(
        e,
        KvsError::NotOwner { .. } | KvsError::NodeFailed | KvsError::Reconfiguring
    )
}

/// One per-key request unrolled by hand through public entry points:
/// `request` contains `route` (`Kvs::ownership()` -> `primary_owner`,
/// `thread_of`) and `kn` (`Kvs::kn(id)` -> `KnNode::{get, put}`). A routing
/// rejection falls back to the client, whose retry loop is the real path.
pub fn unrolled_op(
    env: &Env,
    client: &KvsClient,
    buf: &mut SpanBuf,
    key: &[u8; 8],
    value: Option<&[u8]>,
) -> OpResult {
    let request = buf.new_request();
    let t0 = Instant::now();
    let owner = {
        let table = env.kvs.ownership();
        let table = table.read();
        let owner = table.primary_owner(key);
        std::hint::black_box(owner.and_then(|o| table.thread_of(o, key)));
        owner
    };
    let t1 = Instant::now();
    let node = owner.and_then(|id| env.kvs.kn(id));
    let mut result = match (&node, value) {
        (Some(kn), None) => kn.get(key),
        (Some(kn), Some(v)) => kn.put(key, v).map(|()| None),
        (None, _) => Err(KvsError::NodeFailed),
    };
    let t2 = Instant::now();
    let rejected = matches!(&result, Err(e) if routing_error(e));
    if rejected {
        result = match value {
            None => client.lookup(key),
            Some(v) => client.update(key, v).map(|()| None),
        };
    }
    let t3 = Instant::now();
    let root = buf.span("request", 0, request, t0, t3, 1);
    buf.span("route", root, request, t0, t1, 1);
    if rejected {
        buf.span("kn.rejected", root, request, t1, t2, 1);
        buf.span("client.retry", root, request, t2, t3, 1);
    } else {
        let name = if value.is_some() { "kn.put" } else { "kn.get" };
        buf.span(name, root, request, t1, t2, 1);
    }
    result
}

/// One batch unrolled by hand: route every op, then one
/// `KnNode::run_batch` per owner. Rejected ops are retried through the
/// client.
fn unrolled_batch(env: &Env, client: &KvsClient, buf: &mut SpanBuf, ops: Vec<Op>) -> Vec<OpResult> {
    let request = buf.new_request();
    let n = ops.len();
    let t0 = Instant::now();
    let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
    {
        let table = env.kvs.ownership();
        let table = table.read();
        for (i, op) in ops.iter().enumerate() {
            let owner = table.primary_owner(op.key()).unwrap_or(u32::MAX);
            std::hint::black_box(table.thread_of(owner, op.key()));
            match groups.iter_mut().find(|(id, _)| *id == owner) {
                Some((_, idx)) => idx.push(i),
                None => groups.push((owner, vec![i])),
            }
        }
    }
    let t1 = Instant::now();
    let mut results: Vec<Option<OpResult>> = vec![None; n];
    let mut spans = Vec::new();
    for (owner, idx) in &groups {
        let Some(kn) = env.kvs.kn(*owner) else {
            continue;
        };
        let group: Vec<Op> = idx.iter().map(|&i| ops[i].clone()).collect();
        let start = Instant::now();
        let replies = kn.run_batch(&group);
        spans.push((start, Instant::now(), idx.len() as u64));
        for (&i, r) in idx.iter().zip(replies) {
            if !matches!(&r, Err(e) if routing_error(e)) {
                results[i] = Some(r);
            }
        }
    }
    let retry: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();
    if !retry.is_empty() {
        let again = retry.iter().map(|&i| ops[i].clone()).collect();
        for (&i, reply) in retry.iter().zip(client.execute(again)) {
            results[i] = Some(reply.into_value());
        }
    }
    let t2 = Instant::now();
    let root = buf.span("request.batch", 0, request, t0, t2, n as u64);
    buf.span("route", root, request, t0, t1, n as u64);
    for (start, end, ops) in spans {
        buf.span("kn.run_batch", root, request, start, end, ops);
    }
    results
        .into_iter()
        .map(|r| r.expect("every op got a result"))
        .collect()
}

/// Wall time each scripted control-plane call took, in ms.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScriptTimes {
    pub replicate_ms: f64,
    pub add_ms: f64,
    pub fail_ms: f64,
    pub remove_ms: f64,
    pub dereplicate_ms: f64,
    pub errors: u64,
}

impl ScriptTimes {
    pub fn total_ms(&self) -> f64 {
        self.replicate_ms + self.add_ms + self.fail_ms + self.remove_ms + self.dereplicate_ms
    }
}

/// The `churn` script, run once per round on its own thread at fixed
/// fractions of the round: replicate the 4 hottest keys, add a KN, fail
/// the oldest KN, add a KN, remove the oldest KN, dereplicate. The
/// cluster starts and ends the round with 2 KNs.
fn run_script(env: &Env, start: Instant, phase: f64) -> ScriptTimes {
    let mut times = ScriptTimes::default();
    let hot: Vec<[u8; 8]> = env.chooser.hottest(4).into_iter().map(key_bytes).collect();
    let at = |fraction: f64| {
        let due = start + Duration::from_secs_f64(phase * fraction);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    };
    let timed = |slot: &mut f64, errors: &mut u64, f: &mut dyn FnMut() -> bool| {
        let t0 = Instant::now();
        if !f() {
            *errors += 1;
        }
        *slot += secs(t0.elapsed()) * 1e3;
    };
    let oldest = || env.kvs.kn_ids().into_iter().min().expect("a live KN");
    let mut errors = 0;
    at(0.10);
    for key in &hot {
        timed(&mut times.replicate_ms, &mut errors, &mut || {
            env.kvs.replicate_key(key, 2).is_ok()
        });
    }
    at(0.25);
    timed(&mut times.add_ms, &mut errors, &mut || {
        env.kvs.add_kn().is_ok()
    });
    at(0.40);
    timed(&mut times.fail_ms, &mut errors, &mut || {
        env.kvs.fail_kn(oldest()).is_ok()
    });
    at(0.55);
    timed(&mut times.add_ms, &mut errors, &mut || {
        env.kvs.add_kn().is_ok()
    });
    at(0.70);
    timed(&mut times.remove_ms, &mut errors, &mut || {
        env.kvs.remove_kn(oldest()).is_ok()
    });
    at(0.85);
    for key in &hot {
        timed(&mut times.dereplicate_ms, &mut errors, &mut || {
            env.kvs.dereplicate_key(key).is_ok()
        });
    }
    times.errors = errors;
    times
}

#[derive(Debug, Default)]
pub struct ClosedOut {
    pub ops: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub max_gap_ns: u64,
    pub script: ScriptTimes,
}

/// One closed round: `clients` threads, 128-op batches back to back for
/// `phase` seconds or `max_ops` operations, whichever ends first. With
/// `trace`, one batch in `SAMPLE_EVERY` is unrolled.
fn closed_round(
    env: &Env,
    stream: u64,
    phase: f64,
    max_ops: u64,
    mut trace: Option<&mut Trace>,
) -> ClosedOut {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(phase);
    let gaps = GapTracker::default();
    let tracing = trace.is_some();
    let mut out = ClosedOut::default();
    std::thread::scope(|s| {
        let script =
            (env.w.script == Script::Churn).then(|| s.spawn(|| run_script(env, start, phase)));
        let workers: Vec<_> = (0..env.clients)
            .map(|t| {
                let gaps = &gaps;
                s.spawn(move || {
                    let client = env.kvs.client();
                    let mut gen = env.stream(stream, t);
                    let mut buf = SpanBuf::new(env.epoch);
                    let (mut ops_done, mut failed, mut max_gap, mut batches) =
                        (0u64, 0u64, 0u64, 0u64);
                    while Instant::now() < deadline && ops_done < max_ops / env.clients {
                        let mut pending = Vec::with_capacity(BATCH_OPS);
                        let mut ops = Vec::with_capacity(BATCH_OPS);
                        for _ in 0..BATCH_OPS {
                            let op = gen.next_op();
                            let key = key_bytes(op.key);
                            if op.write {
                                let (version, value) = env.ledger.next_write(op.key);
                                ops.push(Op::update(key, value));
                                pending.push(Pending { op, version });
                            } else {
                                ops.push(Op::lookup(key));
                                pending.push(Pending {
                                    op,
                                    version: env.ledger.read_floor(op.key),
                                });
                            }
                        }
                        batches += 1;
                        let results: Vec<OpResult> = if tracing && batches % SAMPLE_EVERY == 0 {
                            unrolled_batch(env, &client, &mut buf, ops)
                        } else {
                            client
                                .execute(ops)
                                .into_iter()
                                .map(Reply::into_value)
                                .collect()
                        };
                        for (p, r) in pending.iter().zip(&results) {
                            if !judge(env.ledger, p, r) {
                                failed += 1;
                            }
                        }
                        ops_done += BATCH_OPS as u64;
                        max_gap = max_gap.max(gaps.done(start.elapsed().as_nanos() as u64));
                    }
                    (ops_done, failed, max_gap, buf)
                })
            })
            .collect();
        for worker in workers {
            let (ops, failed, max_gap, buf) = worker.join().expect("closed-phase client panicked");
            out.ops += ops;
            out.failed += failed;
            out.max_gap_ns = out.max_gap_ns.max(max_gap);
            if let Some(trace) = trace.as_deref_mut() {
                trace.absorb(buf);
            }
        }
        out.elapsed_s = secs(start.elapsed());
        if let Some(script) = script {
            out.script = script.join().expect("script thread panicked");
        }
    });
    out
}

#[derive(Debug, Default)]
pub struct OpenOut {
    /// Latencies from scheduled arrival, ns, unsorted.
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    /// How late the generator sent, ns.
    pub late: LogHistogram,
    /// Send -> done of the ops that went through the plain client.
    pub service: LogHistogram,
    pub attempted: u64,
    pub failed: u64,
    pub slo_miss: u64,
    pub elapsed_s: f64,
    pub max_gap_ns: u64,
    pub script: ScriptTimes,
}

/// Wait for `due`: sleep while it is far, so an idle generator leaves the
/// cores to shard, merge and compactor threads, then spin for precision.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN + Duration::from_micros(100) {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One open round: Poisson arrivals at `w.open_rate` over `clients`
/// threads for `phase` seconds, per-key calls, latency from the scheduled
/// arrival. Late ops are sent at once, so a backlog lands in the latency.
fn open_round(env: &Env, round: u64, phase: f64, mut trace: Option<&mut Trace>) -> OpenOut {
    let stream = round_stream(STREAM_OPEN, round);
    let threads = env.clients.min(env.w.open_clients as u64);
    let start = Instant::now();
    let horizon_ns = (phase * 1e9) as u64;
    let slo_ns = env.w.slo_us * 1_000;
    let gaps = GapTracker::default();
    let tracing = trace.is_some();
    let mut out = OpenOut::default();
    std::thread::scope(|s| {
        let script =
            (env.w.script == Script::Churn).then(|| s.spawn(|| run_script(env, start, phase)));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let gaps = &gaps;
                s.spawn(move || {
                    let client = env.kvs.client();
                    let mut gen = env.stream_of(stream, t, threads);
                    let mut arrivals =
                        Arrivals::new(env.seed, stream, t, env.w.open_rate / threads as f64);
                    let mut buf = SpanBuf::new(env.epoch);
                    let mut o = OpenOut::default();
                    loop {
                        let due_ns = arrivals.next_ns();
                        if due_ns >= horizon_ns {
                            break;
                        }
                        let op = gen.next_op();
                        let key = key_bytes(op.key);
                        wait_until(start + Duration::from_nanos(due_ns));
                        let sent_ns = start.elapsed().as_nanos() as u64;
                        o.late.record(sent_ns - due_ns);
                        o.attempted += 1;
                        let sampled = tracing && o.attempted % SAMPLE_EVERY == 0;
                        let (pending, result) = if op.write {
                            let (version, value) = env.ledger.next_write(op.key);
                            let result = if sampled {
                                unrolled_op(env, &client, &mut buf, &key, Some(&value))
                            } else {
                                client.update(&key, &value).map(|()| None)
                            };
                            (Pending { op, version }, result)
                        } else {
                            let version = env.ledger.read_floor(op.key);
                            let result = if sampled {
                                unrolled_op(env, &client, &mut buf, &key, None)
                            } else {
                                client.lookup(&key)
                            };
                            (Pending { op, version }, result)
                        };
                        let done_ns = start.elapsed().as_nanos() as u64;
                        let latency = done_ns - due_ns;
                        let ok = judge(env.ledger, &pending, &result);
                        if !ok {
                            o.failed += 1;
                        }
                        if !ok || latency > slo_ns {
                            o.slo_miss += 1;
                        }
                        if op.write {
                            o.write_ns.push(latency);
                        } else {
                            o.read_ns.push(latency);
                        }
                        if !sampled {
                            o.service.record(done_ns - sent_ns);
                        }
                        o.max_gap_ns = o.max_gap_ns.max(gaps.done(done_ns));
                    }
                    (o, buf)
                })
            })
            .collect();
        for worker in workers {
            let (o, buf) = worker.join().expect("open-phase client panicked");
            out.read_ns.extend(o.read_ns);
            out.write_ns.extend(o.write_ns);
            out.late.merge(&o.late);
            out.service.merge(&o.service);
            out.attempted += o.attempted;
            out.failed += o.failed;
            out.slo_miss += o.slo_miss;
            out.max_gap_ns = out.max_gap_ns.max(o.max_gap_ns);
            if let Some(trace) = trace.as_deref_mut() {
                trace.absorb(buf);
            }
        }
        // A generator that kept up ends at the horizon; a backlog ends later.
        out.elapsed_s = secs(start.elapsed()).max(phase);
        if let Some(script) = script {
            out.script = script.join().expect("script thread panicked");
        }
    });
    out.read_ns.sort_unstable();
    out.write_ns.sort_unstable();
    out
}

/// Quantile `q` of `sorted` in µs, as the mean of the samples within
/// +-0.25 % of ranks around it: less jumpy than one order statistic, and
/// never quantised to the clock's grain. 0 when there are no samples.
pub fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    let lo = ((q - 0.0025) * n).floor().max(0.0) as usize;
    let hi = (((q + 0.0025) * n).ceil() as usize).clamp(lo + 1, sorted.len());
    let window = &sorted[lo.min(sorted.len() - 1)..hi];
    window.iter().sum::<u64>() as f64 / window.len() as f64 / 1e3
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative counters of every layer, read from public stats; per-layer
/// counts are differences of two of these.
#[derive(Debug, Clone)]
pub struct Counters {
    pub at: Instant,
    pub kvs: dinomo_core::KvsStats,
    pub pclht: dinomo_pclht::PclhtStats,
    pub pmem: dinomo_pmem::PmemStats,
    pub queue_wait: LogHistogram,
    pub shard_execute: LogHistogram,
    pub dispatch: LogHistogram,
    pub reply: LogHistogram,
    pub flush_wait: LogHistogram,
    pub ordered_root_wait: LogHistogram,
    pub reconfig_wait: LogHistogram,
    pub busy_rejections: u64,
}

impl Counters {
    pub fn read(kvs: &Kvs) -> Self {
        let reg = kvs.metrics();
        Counters {
            at: Instant::now(),
            kvs: kvs.stats(),
            pclht: kvs.dpm().index().stats(),
            pmem: kvs.dpm().pool().stats(),
            queue_wait: reg.stage(Stage::QueueWait).merged(),
            shard_execute: reg.stage(Stage::ShardExecute).merged(),
            dispatch: reg.stage(Stage::ClientDispatch).merged(),
            reply: reg.stage(Stage::Reply).merged(),
            flush_wait: reg.stage(Stage::FlushWait).merged(),
            ordered_root_wait: reg.lock_wait(LockId::OrderedRoot).merged(),
            reconfig_wait: reg.lock_wait(LockId::Reconfig).merged(),
            busy_rejections: reg.counter("kn_busy_rejections").value(),
        }
    }
}

/// Run workload `w` once and return its metrics.
pub fn run_workload(w: &Workload, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let clients = preset::clients() as u64;
    let chooser = KeyChooser::new(opts.keys, w.dist);
    let ledger = Ledger::new(opts.keys, VALUE_LEN, w.script == Script::Churn);

    // Set-up, several times: its time is a gated metric and one sample of
    // a multi-second build-and-load is too jumpy to gate on.
    let mut setup_times = Vec::new();
    let mut kvs = None;
    for _ in 0..opts.setups.max(1) {
        drop(kvs.take());
        let t0 = Instant::now();
        kvs = Some(setup(w, opts.keys, false));
        setup_times.push(secs(t0.elapsed()));
    }
    let kvs = kvs.expect("at least one set-up");
    let after_setup = Counters::read(&kvs);
    let env = Env {
        kvs: &kvs,
        ledger: &ledger,
        w,
        chooser: &chooser,
        seed: opts.seed,
        clients,
        epoch: Instant::now(),
    };
    let mut failed = warm(&env);
    let mut attempted = if w.warm_ops == 0 {
        opts.keys
    } else {
        w.warm_ops
    };

    // Two measured phases of ROUNDS rounds each. The traced run halves its
    // closed rounds and spends the other half on traced ones afterwards,
    // so the two throughputs differ only by the tracing; throughput and
    // the closed window's counter differences always come from the plain
    // rounds, where every batch went through the client.
    let round_s = opts.seconds / 2.0 / ROUNDS as f64;
    let closed_s = if opts.trace { round_s / 2.0 } else { round_s };
    let mut trace = opts.trace.then(Trace::default);
    let closed_rounds = |stream: u64, mut trace: Option<&mut Trace>| -> Vec<ClosedOut> {
        (0..ROUNDS)
            .map(|r| {
                closed_round(
                    &env,
                    round_stream(stream, r),
                    closed_s,
                    u64::MAX,
                    trace.as_deref_mut(),
                )
            })
            .collect()
    };
    let before_closed = Counters::read(&kvs);
    let closed = closed_rounds(STREAM_CLOSED, None);
    let after_closed = Counters::read(&kvs);
    let t0 = Instant::now();
    kvs.quiesce().expect("quiesce after the closed phase");
    let drain_ms = secs(t0.elapsed()) * 1e3;
    let traced = if opts.trace {
        let rounds = closed_rounds(STREAM_CLOSED_TRACED, trace.as_mut());
        kvs.quiesce()
            .expect("quiesce after the traced closed rounds");
        rounds
    } else {
        Vec::new()
    };
    let open: Vec<OpenOut> = (0..ROUNDS)
        .map(|r| open_round(&env, r, round_s, trace.as_mut()))
        .collect();
    let after_open = Counters::read(&kvs);

    let closed_ops: u64 = closed.iter().map(|c| c.ops).sum();
    let open_attempted: u64 = open.iter().map(|o| o.attempted).sum();
    attempted += closed_ops + open_attempted + traced.iter().map(|c| c.ops).sum::<u64>();
    failed += closed.iter().chain(&traced).map(|c| c.failed).sum::<u64>()
        + open.iter().map(|o| o.failed).sum::<u64>();
    let throughput_of =
        |rounds: &[ClosedOut]| median(rounds.iter().map(|c| c.ops as f64 / c.elapsed_s).collect());
    let throughput = throughput_of(&closed);
    let achieved_share =
        open_attempted as f64 / open.iter().map(|o| o.elapsed_s).sum::<f64>() / w.open_rate;
    if achieved_share < 0.95 {
        out.notes.push(format!(
            "open phase SATURATED: achieved {:.3} of the {:.0} ops/s offered; latency metrics unresolved",
            achieved_share, w.open_rate
        ));
    }
    let scripts: Vec<ScriptTimes> = open.iter().map(|o| o.script).collect();
    let script_errors: u64 = closed
        .iter()
        .chain(&traced)
        .map(|c| c.script.errors)
        .sum::<u64>()
        + scripts.iter().map(|s| s.errors).sum::<u64>();
    if script_errors > 0 {
        out.notes.push(format!(
            "{script_errors} scripted control-plane calls failed"
        ));
    }
    if w.script == Script::Churn && kvs.num_kns() != preset::KNS {
        out.notes.push(format!(
            "cluster ended at {} KNs, not {}",
            kvs.num_kns(),
            preset::KNS
        ));
    }
    let mut late = LogHistogram::new();
    let mut service = LogHistogram::new();
    let mut all_reads: Vec<u64> = Vec::new();
    for o in &open {
        late.merge(&o.late);
        service.merge(&o.service);
        all_reads.extend(&o.read_ns);
    }
    all_reads.sort_unstable();
    if let Some(trace) = trace.as_mut() {
        // Send -> done of the open phase's plain client calls: what the
        // per-layer table's rows are measured against.
        trace.hists.insert("service.untraced", service);
    }

    // Per-layer probes run on the quiescent cluster, before the crash.
    let probes = opts.trace.then(|| {
        kvs.quiesce().expect("quiesce before the probes");
        probe::run(&env)
    });

    // Verify: every key, through the DPM's own read path.
    let mut recovery = None;
    let lost = if w.crash {
        // No flush_all first: acked writes still buffered in a KN die with
        // the crash, up to write_batch_ops - 1 per shard.
        let t0 = Instant::now();
        let report = kvs.crash_dpm_and_recover();
        let recovered_s = secs(t0.elapsed());
        let lost = ledger.sweep(kvs.dpm());
        recovery = Some((secs(t0.elapsed()), recovered_s, report));
        lost
    } else {
        kvs.quiesce().expect("quiesce before the sweep");
        ledger.sweep(kvs.dpm())
    };
    // What an acknowledge-before-flush store may lose: the crash takes
    // every shard's buffer, each fail_kn (one per round) one KN's.
    let per_shard = preset::WRITE_BATCH_OPS as u64 - 1;
    let loss_limit = per_shard
        * preset::SHARDS_PER_KN as u64
        * match (w.crash, w.script) {
            (true, _) => preset::KNS as u64,
            (false, Script::Churn) => ROUNDS * if opts.trace { 3 } else { 2 },
            (false, Script::None) => 0,
        };
    if lost > loss_limit {
        out.notes
            .push(format!("{lost} acked writes lost, limit {loss_limit}"));
    }
    let violations = ledger.violations.load(Ordering::Relaxed);
    if violations > 0 {
        out.notes.push(format!(
            "{violations} replies or stored values broke the value contract"
        ));
    }
    if let Some((_, _, Err(e))) = &recovery {
        out.notes.push(format!("recovery failed: {e}"));
    }
    let stats = kvs.stats().dpm;
    let space_amp = stats.segment_bytes_allocated as f64 / stats.live_bytes.max(1) as f64;

    // A latency quantile of the phase: the median of its rounds' quantiles.
    let round_quantile = |pick: fn(&OpenOut) -> &Vec<u64>, q: f64| {
        median(open.iter().map(|o| quantile_us(pick(o), q)).collect())
    };
    let script_median = |pick: fn(&ScriptTimes) -> f64| median(scripts.iter().map(pick).collect());
    let m = &mut out.metrics;
    m.put("throughput_ops_s", throughput);
    m.put("read_p50_us", round_quantile(|o| &o.read_ns, 0.50));
    m.put("e2e.read_p99_us", round_quantile(|o| &o.read_ns, 0.99));
    m.put("space_amp", space_amp);
    m.put("peak_rss_mb", peak_rss_mb());
    m.put("setup_s", median(setup_times));
    m.put("e2e.write_p50_us", round_quantile(|o| &o.write_ns, 0.50));
    m.put("e2e.write_p99_us", round_quantile(|o| &o.write_ns, 0.99));
    m.put("e2e.read_p999_us", quantile_us(&all_reads, 0.999));
    m.put(
        "e2e.slo_miss_share",
        open.iter().map(|o| o.slo_miss).sum::<u64>() as f64 / open_attempted.max(1) as f64,
    );
    m.put("e2e.failed_share", failed as f64 / attempted.max(1) as f64);
    m.put("e2e.recovery_s", recovery.as_ref().map_or(0.0, |r| r.0));
    m.put("e2e.reconfig_ms", script_median(ScriptTimes::total_ms));
    m.put(
        "bench.gen_late_p99_us",
        late.value_at_quantile(0.99) as f64 / 1e3,
    );
    m.put("bench.achieved_share", achieved_share);
    m.put(
        "reconfig.max_gap_ms",
        open.iter().map(|o| o.max_gap_ns).max().unwrap_or(0) as f64 / 1e6,
    );
    m.put("recovery.lost_acked_writes", lost as f64);
    let (entries, rebuilt, ns_per_entry) = match &recovery {
        Some((_, recovered_s, Ok(r))) => (
            r.recovery.entries_recovered as f64,
            r.ordered_rebuilt as f64,
            recovered_s * 1e9 / r.recovery.entries_recovered.max(1) as f64,
        ),
        _ => (0.0, 0.0, 0.0),
    };
    m.put("recovery.entries_recovered", entries);
    m.put("recovery.ordered_rebuilt", rebuilt);
    m.put("recovery.ns_per_entry", ns_per_entry);

    if let Some(mut probes) = probes {
        let windows = probe::Windows {
            after_setup: &after_setup,
            before_closed: &before_closed,
            after_closed: &after_closed,
            after_open: &after_open,
            closed_ops,
        };
        probe::report(
            &env,
            &mut out,
            trace.as_ref().expect("traced run"),
            &probes,
            &windows,
        );
        let m = &mut out.metrics;
        m.put("merge.drain_ms", drain_ms);
        m.put(
            "bench.trace_overhead_share",
            (throughput - throughput_of(&traced)) / throughput,
        );
        m.put("reconfig.add_kn_ms", script_median(|s| s.add_ms));
        m.put("reconfig.remove_kn_ms", script_median(|s| s.remove_ms));
        m.put("reconfig.fail_kn_ms", script_median(|s| s.fail_ms));
        m.put(
            "reconfig.replicate_key_ms",
            script_median(|s| s.replicate_ms),
        );
        // One span file: the probes' spans after the requests'.
        trace
            .as_mut()
            .expect("traced run")
            .spans
            .append(&mut probes.trace.spans);
    }

    out.attempted = attempted;
    out.failed = failed;
    out.correct = out.failed == 0
        && violations == 0
        && lost <= loss_limit
        && script_errors == 0
        && !matches!(&recovery, Some((_, _, Err(_))))
        && (w.script != Script::Churn || kvs.num_kns() == preset::KNS);
    let per_round = |values: Vec<f64>| {
        values
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "samples: {ROUNDS} rounds a phase; closed {closed_ops} ops, open {} reads + {} writes; {} stale reads tolerated",
        all_reads.len(),
        open.iter().map(|o| o.write_ns.len()).sum::<usize>(),
        ledger.stale_reads.load(Ordering::Relaxed)
    ));
    out.notes.push(format!(
        "per round: throughput_ops_s [{}]; read_p50_us [{}]; read_p99_us [{}]",
        per_round(closed.iter().map(|c| c.ops as f64 / c.elapsed_s).collect()),
        per_round(open.iter().map(|o| quantile_us(&o.read_ns, 0.50)).collect()),
        per_round(open.iter().map(|o| quantile_us(&o.read_ns, 0.99)).collect()),
    ));
    out.trace = trace;
    out
}

/// The durability pass: 20 k mixed ops on a pool that tracks persistence,
/// `flush_all`, then a DPM crash that destroys every unpersisted line.
/// Every acknowledged write was flushed, so none may be lost.
pub fn durability(seed: u64) -> std::process::ExitCode {
    const OPS: u64 = 20_000;
    let w = preset::workload("write_mix").expect("write_mix is in the table");
    let keys = preset::QUICK_KEYS;
    let kvs = setup(&w, keys, true);
    let chooser = KeyChooser::new(keys, w.dist);
    let ledger = Ledger::new(keys, VALUE_LEN, false);
    let env = Env {
        kvs: &kvs,
        ledger: &ledger,
        w: &w,
        chooser: &chooser,
        seed,
        clients: preset::clients() as u64,
        epoch: Instant::now(),
    };
    let closed = closed_round(&env, STREAM_CLOSED, 600.0, OPS, None);
    kvs.flush_all().expect("flush_all before the crash");
    let report = kvs.crash_dpm_and_recover();
    let lost = ledger.sweep(kvs.dpm());
    let violations = ledger.violations.load(Ordering::Relaxed);
    println!(
        "e2e --durability: {} ops ({} failed), track_persistence on, flush_all then crash: {} acked writes lost, {} violations, recovery {}",
        closed.ops,
        closed.failed,
        lost,
        violations,
        match &report {
            Ok(r) => format!("replayed {} entries ({} torn)", r.recovery.entries_recovered, r.recovery.torn_entries),
            Err(e) => format!("FAILED: {e}"),
        }
    );
    if closed.failed == 0 && lost == 0 && violations == 0 && report.is_ok() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
