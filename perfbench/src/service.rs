//! The daemon layers, probed by `mp_shared_llc`'s traced run: an
//! in-process `catch-server` daemon under a closed loop of two clients
//! sending one seeded, skewed session of reduced-scale experiment
//! requests, with the run cache persisted to disk and dropped from memory
//! halfway (a daemon restart).

use crate::common::{
    median, metric, percentile, ratio, text_digest, Checker, Ctx, Metric, Tracer, EXPECTED_DIGESTS,
};
use catch_core::experiments::{EvalConfig, Fidelity};
use catch_core::{CacheMode, Event, EventClass, EventKind, EventSink, Obs, RunCache};
use catch_server::{Client, Priority, Server, ServerConfig, DEFAULT_MAX_QUEUE};
use catch_trace::rng::SplitMix64;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Name the session's outputs are checked under in `expected_digests.txt`.
pub const CHECK_AS: &str = "service_mix";
/// Experiments the clients ask for.
pub const IDS: [&str; 6] = ["fig1", "fig3", "fig10", "fig13", "heuristic", "ablations"];
/// Trace seeds per experiment (each a distinct request).
pub const EVAL_SEEDS: u64 = 2;
/// Pings timed for the protocol round trip.
const PINGS: usize = 200;
/// Daemon worker threads: one simulation thread, as every job runs its
/// experiment on one runner thread.
pub const WORKERS: usize = 1;
/// Client connections, one interactive and one sweep priority, taking
/// turns on one load thread: one request is in flight at a time.
pub const CLIENTS: usize = 2;

/// One distinct request: experiment id and trace seed.
#[derive(Clone, Debug)]
pub struct Key {
    /// Output key (`id@k`, `k` the seed's index, stable across seeds).
    pub name: String,
    /// Experiment id.
    pub id: &'static str,
    /// Evaluation scale and seed.
    pub eval: EvalConfig,
}

/// Every distinct request under `seed` at `ops`/`warmup`, most popular
/// first. Popularity follows `IDS` order whatever the seed: repeats of
/// different experiments differ in cost, so a seeded order would make the
/// seed set the median latency.
pub fn keys(seed: u64, ops: usize, warmup: usize) -> Vec<Key> {
    IDS.iter()
        .flat_map(|&id| {
            (0..EVAL_SEEDS).map(move |k| Key {
                name: format!("{id}@{k}"),
                id,
                eval: EvalConfig {
                    ops,
                    warmup,
                    seed: seed.wrapping_mul(EVAL_SEEDS).wrapping_add(k),
                    sample: None,
                    fidelity: Fidelity::Ooo,
                },
            })
        })
        .collect()
}

/// Zipf(1) choice over `n` ranks.
fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut x = rng.gen_f64() * total;
    for r in 0..n {
        x -= 1.0 / (r + 1) as f64;
        if x <= 0.0 {
            return r;
        }
    }
    n - 1
}

/// The request stream under `seed` (key indices).
pub fn stream(seed: u64, n_keys: usize) -> impl Iterator<Item = usize> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    std::iter::repeat_with(move || pick(&mut rng, n_keys))
}

/// Records each daemon event with its host arrival time.
struct StampSink {
    t0: Instant,
    events: Vec<(f64, Event)>,
}

impl EventSink for StampSink {
    fn record(&mut self, event: Event) {
        self.events
            .push((self.t0.elapsed().as_secs_f64() * 1e3, event));
    }
}

/// Runs one session against a fresh daemon on a socket and a disk run
/// cache in `ctx.scratch`, spans in `tracer`, and returns the daemon
/// layers' metrics plus report lines. Outputs are checked under
/// [`CHECK_AS`] and counted in `chk`.
pub fn probe(ctx: &Ctx, tracer: &Tracer, chk: &mut Checker) -> (Vec<Metric>, Vec<String>) {
    let mut own = Checker::new(CHECK_AS, ctx.seed, EXPECTED_DIGESTS);
    let out = session(ctx, tracer, &mut own);
    chk.merge(own);
    out
}

fn session(ctx: &Ctx, tracer: &Tracer, chk: &mut Checker) -> (Vec<Metric>, Vec<String>) {
    let dir = ctx.scratch.join("service-cache");
    fresh_cache(&dir);
    let sink = Arc::new(Mutex::new(StampSink {
        t0: Instant::now(),
        events: Vec::new(),
    }));
    let handle = match Server::bind(
        &ctx.scratch.join("daemon.sock"),
        ServerConfig {
            workers: WORKERS,
            max_queue: DEFAULT_MAX_QUEUE,
            obs: Obs::attached(sink.clone(), EventClass::SERVER),
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            chk.fail(format!("bind the daemon socket: {e}"));
            return (Vec::new(), Vec::new());
        }
    };
    let out = requests(ctx, tracer, chk, &sink);
    handle.begin_drain();
    if let Err(e) = handle.wait() {
        chk.fail(format!("daemon drain: {e}"));
    }
    let cache = RunCache::global();
    cache.set_mode(CacheMode::Memory);
    cache.reset_memory();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The clients' side of the session; they disconnect when it returns.
fn requests(
    ctx: &Ctx,
    tracer: &Tracer,
    chk: &mut Checker,
    sink: &Mutex<StampSink>,
) -> (Vec<Metric>, Vec<String>) {
    let sock = ctx.scratch.join("daemon.sock");
    let mut clients = Vec::new();
    for i in 0..CLIENTS {
        let priority = if i % 2 == 0 {
            Priority::Interactive
        } else {
            Priority::Sweep
        };
        match Client::connect(&sock) {
            Ok(c) => clients.push(c.with_identity(&format!("client{i}"), priority)),
            Err(e) => {
                chk.fail(format!("connect to the daemon: {e}"));
                return (Vec::new(), Vec::new());
            }
        }
    }
    let mut ping_us = Vec::new();
    for _ in 0..PINGS {
        let s = Instant::now();
        match tracer.span("Client::ping", || clients[0].ping()) {
            Ok(()) => ping_us.push(s.elapsed().as_secs_f64() * 1e6),
            Err(e) => chk.fail(format!("ping: {e}")),
        }
    }

    let cache = RunCache::global();
    let before = cache.summary();
    let keys = keys(ctx.seed, ctx.scale.req_ops, ctx.scale.req_warmup);
    let script: Vec<usize> = stream(ctx.seed, keys.len())
        .take(ctx.scale.session_requests)
        .collect();
    let mut seen = HashSet::new();
    let (mut first_ms, mut repeat_ms, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for (pos, &k) in script.iter().enumerate() {
        // Halfway, drop every memoized result: later repeats come from
        // the disk shards, as after a daemon restart.
        if pos == script.len() / 2 {
            cache.reset_memory();
        }
        let key = &keys[k];
        let client = &mut clients[pos % CLIENTS];
        let t = Instant::now();
        let r = tracer.span("Client::run", || client.run(key.id, &key.eval));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(report) => {
                chk.check(&key.name, text_digest(&report));
                bytes += report.len() as u64;
                if seen.insert(k) {
                    first_ms.push(ms);
                } else {
                    repeat_ms.push(ms);
                }
            }
            Err(e) => chk.fail(format!("{}: {e}", key.name)),
        }
    }

    let sched = match clients[0].stats() {
        Ok((s, _, _)) => s,
        Err(e) => {
            chk.fail(format!("stats: {e}"));
            return (Vec::new(), Vec::new());
        }
    };
    let d = cache.summary();
    let all_ms: Vec<f64> = first_ms.iter().chain(&repeat_ms).copied().collect();
    let n = all_ms.len();
    let (queue_ms, service_ms) = job_times(&sink.lock().expect("sink poisoned").events);
    let lines = vec![
        format!(
            "daemon session: {n} requests over {} keys, {CLIENTS} clients on one thread, \
             {WORKERS} worker; host times",
            keys.len()
        ),
        format!("req_p50_ms = {:.4} ms", median(&all_ms)),
        format!(
            "req_p99_ms = {:.4} ms ({n} requests, {} beyond p99)",
            percentile(&all_ms, 99.0),
            n - (n as f64 * 0.99).ceil() as usize
        ),
        format!(
            "service.first_p50_ms = {:.4} ms ({} first touches)",
            median(&first_ms),
            first_ms.len()
        ),
        format!(
            "service.repeat_p50_ms = {:.4} ms ({} repeats)",
            median(&repeat_ms),
            repeat_ms.len()
        ),
        format!("scheduler.queue_wait_ms.p50 = {:.4} ms", median(&queue_ms)),
        format!(
            "scheduler.queue_wait_ms.p99 = {:.4} ms",
            percentile(&queue_ms, 99.0)
        ),
        format!("scheduler.service_ms.p50 = {:.4} ms", median(&service_ms)),
        format!("protocol.ping_rtt_us = {:.4} us", median(&ping_us)),
        format!(
            "daemon run cache: {} hits, {} misses",
            d.hits - before.hits,
            d.misses - before.misses
        ),
    ];
    let joined = sched.admitted + sched.coalesced;
    let count = |v: u64| v as f64;
    let metrics = vec![
        metric(
            "runcache.disk_hits",
            count(d.disk_hits - before.disk_hits),
            "count",
        ),
        metric(
            "runcache.disk_stores",
            count(d.disk_stores - before.disk_stores),
            "count",
        ),
        metric(
            "runcache.bytes_written",
            count(d.bytes_written - before.bytes_written),
            "B",
        ),
        metric("scheduler.admitted", count(sched.admitted), "count"),
        metric("scheduler.coalesced", count(sched.coalesced), "count"),
        metric("scheduler.rejected", count(sched.rejected), "count"),
        metric(
            "scheduler.coalesce_ratio",
            ratio(sched.coalesced as f64, joined as f64),
            "ratio",
        ),
        metric(
            "protocol.response_bytes",
            ratio(bytes as f64, n as f64),
            "B",
        ),
    ];
    (metrics, lines)
}

/// Points the process-wide run cache at an empty disk directory `dir`,
/// with nothing memoized.
fn fresh_cache(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the run-cache directory");
    let cache = RunCache::global();
    cache.set_mode(CacheMode::Disk(dir.to_path_buf()));
    cache.reset_memory();
}

/// Per-job queue wait (admit → dispatch) and service time (dispatch →
/// complete), ms, from host-stamped daemon events.
fn job_times(events: &[(f64, Event)]) -> (Vec<f64>, Vec<f64>) {
    let mut admitted = BTreeMap::new();
    let mut dispatched = BTreeMap::new();
    let (mut queue, mut service) = (Vec::new(), Vec::new());
    for &(at, e) in events {
        match e.kind {
            EventKind::ServerAdmit { job, .. } => {
                admitted.insert(job, at);
            }
            EventKind::ServerDispatch { job, .. } => {
                if let Some(a) = admitted.get(&job) {
                    queue.push(at - a);
                }
                dispatched.insert(job, at);
            }
            EventKind::ServerComplete { job, .. } => {
                if let Some(d) = dispatched.get(&job) {
                    service.push(at - d);
                }
            }
            _ => {}
        }
    }
    (queue, service)
}
