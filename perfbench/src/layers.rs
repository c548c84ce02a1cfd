//! Per-layer measurements of the simulator itself, taken from outside:
//! spans around the public `System` entry points on a workload's own
//! inputs, and a timing DRAM backend under a core and hierarchy
//! assembled from public parts.

use crate::common::{counters_digest, metric, ratio, Checker, Metric, Tracer};
use catch_cache::{CacheHierarchy, MemoryBackend};
use catch_core::{Engine, RunResult, System, SystemConfig};
use catch_cpu::Core;
use catch_dram::DramSystem;
use catch_timeq::WakeBuf;
use catch_trace::{LineAddr, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Simulated counts summed over runs (the work the host time bought).
#[derive(Clone, Debug, Default)]
pub struct SimTotals {
    instructions: u64,
    cycles: u64,
    rob_occ: (u64, u64),
    mispredicts: u64,
    l1d: u64,
    l2: u64,
    llc: u64,
    llc_misses: u64,
    mshr_occ: (u64, u64),
    back_invalidates: u64,
    c2c: u64,
    walk_steps: u64,
    tact_issued: u64,
    pf_used: u64,
    pf_issued: u64,
    row_hits: u64,
    row_total: u64,
}

impl SimTotals {
    /// Adds one core's counters.
    pub fn add_core(&mut self, c: &catch_cpu::CoreStats) {
        self.instructions += c.instructions;
        self.cycles += c.cycles;
        self.rob_occ.0 += c.rob_occ.sum;
        self.rob_occ.1 += c.rob_occ.samples;
        self.mispredicts += c.branches.cond_mispredicts + c.branches.indirect_mispredicts;
        self.walk_steps += c.detector.walk_steps;
        self.tact_issued += c.tact.deep_issued + c.tact.cross_issued + c.tact.feeder_issued;
    }

    /// Adds one hierarchy's counters and its DRAM's (shared by every core
    /// of an MP run: add them once per run).
    pub fn add_memory(&mut self, r: &RunResult) {
        let h = &r.hierarchy;
        self.l1d += h.l1d.iter().map(|s| s.accesses).sum::<u64>();
        self.l2 += h.l2.iter().map(|s| s.accesses).sum::<u64>();
        self.llc += h.llc.accesses;
        self.llc_misses += h.llc.misses;
        self.mshr_occ.0 += h.mshr_occ.sum;
        self.mshr_occ.1 += h.mshr_occ.samples;
        self.back_invalidates += h.traffic.back_invalidates;
        self.c2c += h.traffic.c2c_transfers;
        self.pf_used += h.timeliness.used;
        self.pf_issued += h.timeliness.issued;
        if let Some(d) = &r.dram {
            self.row_hits += d.row_hits;
            self.row_total += d.row_hits + d.row_empties + d.row_conflicts;
        }
    }

    /// Adds a single-core run.
    pub fn add_run(&mut self, r: &RunResult) {
        self.add_core(&r.core);
        self.add_memory(r);
    }

    /// The simulated-count per-layer metrics, plus a line giving the
    /// prefetch ratio's base.
    pub fn metrics(&self, out: &mut Vec<Metric>, lines: &mut Vec<String>) {
        let f = |v: u64| v as f64;
        out.extend([
            metric("cpu.instructions", f(self.instructions), "count"),
            metric("cpu.cycles", f(self.cycles), "count"),
            metric(
                "cpu.rob_occ_mean",
                ratio(f(self.rob_occ.0), f(self.rob_occ.1)),
                "entries",
            ),
            metric("cpu.branch_mispredicts", f(self.mispredicts), "count"),
            metric("cache.l1d.accesses", f(self.l1d), "count"),
            metric("cache.l2.accesses", f(self.l2), "count"),
            metric("cache.llc.accesses", f(self.llc), "count"),
            metric(
                "cache.llc.miss_ratio",
                ratio(f(self.llc_misses), f(self.llc)),
                "ratio",
            ),
            metric(
                "cache.mshr_occ_mean",
                ratio(f(self.mshr_occ.0), f(self.mshr_occ.1)),
                "entries",
            ),
            metric("cache.back_invalidates", f(self.back_invalidates), "count"),
            metric("cache.c2c_transfers", f(self.c2c), "count"),
            metric("crit.walk_steps", f(self.walk_steps), "count"),
            metric("tact.issued", f(self.tact_issued), "count"),
            metric(
                "prefetch.useful_ratio",
                ratio(f(self.pf_used), f(self.pf_issued)),
                "ratio",
            ),
            metric(
                "dram.row_hit_ratio",
                ratio(f(self.row_hits), f(self.row_total)),
                "ratio",
            ),
        ]);
        lines.push(format!(
            "prefetch.useful_ratio base: {} used / {} issued",
            self.pf_used, self.pf_issued
        ));
    }
}

/// DRAM behind a stopwatch: forwards every call to the wrapped model
/// and accumulates the host time of `access`.
#[derive(Debug)]
struct TimedDram {
    inner: DramSystem,
    calls: Arc<AtomicU64>,
    nanos: Arc<AtomicU64>,
}

impl MemoryBackend for TimedDram {
    fn access(&mut self, line: LineAddr, cycle: u64, write: bool) -> u64 {
        let t = Instant::now();
        let latency = self.inner.access(line, cycle, write);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        latency
    }

    // The wrapped model answers downcasts, so `RunResult::collect`
    // recovers the DRAM statistics exactly as for an unwrapped run.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn reset_stats(&mut self) {
        MemoryBackend::reset_stats(&mut self.inner);
    }

    fn enable_wake_hints(&mut self) {
        self.inner.enable_wake_hints();
    }

    fn drain_wake_hints(&mut self, sink: &mut WakeBuf) {
        self.inner.drain_wake_hints(sink);
    }
}

/// [`System::run_st_warm`] rebuilt from public parts with the DRAM model
/// wrapped in [`TimedDram`]. Returns the result plus (DRAM calls, DRAM
/// host seconds).
pub fn run_st_warm_timed_dram(
    config: &SystemConfig,
    trace: Trace,
    warmup_ops: usize,
) -> (RunResult, u64, f64) {
    let calls = Arc::new(AtomicU64::new(0));
    let nanos = Arc::new(AtomicU64::new(0));
    let mut hcfg = config.hierarchy.clone();
    hcfg.cores = 1;
    let dram = TimedDram {
        inner: DramSystem::new(config.dram.clone()),
        calls: calls.clone(),
        nanos: nanos.clone(),
    };
    let mut hier = CacheHierarchy::new(&hcfg, Box::new(dram));
    for &(level, extra) in &config.extra_latency {
        hier.add_level_latency(level, extra);
    }
    if config.core.engine == Engine::TimeQ && config.core.skip_ahead {
        hier.enable_wake_hints();
    }
    let mut core = Core::new(0, trace, config.core.clone());
    if warmup_ops > 0 {
        let budget = 1000 * core.trace().len() as u64 + 10_000_000;
        while !core.done() && (core.retired() as usize) < warmup_ops {
            core.tick_or_skip(&mut hier);
            assert!(core.cycle() < budget, "warm-up exceeded cycle budget");
        }
        core.end_warmup();
        hier.reset_stats();
    }
    let stats = core.run_to_completion(&mut hier);
    let result = RunResult::collect(
        core.trace().name().to_string(),
        core.trace().category(),
        config.name.clone(),
        stats,
        &hier,
    );
    let n = calls.load(Ordering::Relaxed);
    let secs = nanos.load(Ordering::Relaxed) as f64 * 1e-9;
    (result, n, secs)
}

/// A workload's inputs for the simulator-layer probe.
pub struct ProbeInput {
    /// Traces the workload's detailed runs use (or their like).
    pub traces: Vec<Trace>,
    /// Warm-up the DRAM-wrapper run replays (the workload's own).
    pub warmup: usize,
    /// Traces at the ladder's screen scale for the `lite` rung.
    pub lite: Vec<Trace>,
    /// Warm-up of the `lite` runs.
    pub lite_warmup: usize,
    /// Digests of `System::run_st_warm(catch_config, traces[i], warmup)`
    /// the workload already computed (`None`: the probe computes them).
    pub reference: Vec<Option<u64>>,
}

/// The baseline configuration every probe runs.
pub fn base_config() -> SystemConfig {
    pinned(SystemConfig::baseline_exclusive())
}

/// The CATCH configuration every probe runs.
pub fn catch_config() -> SystemConfig {
    pinned(SystemConfig::baseline_exclusive().with_catch())
}

/// Fixes the cycle engine regardless of the environment.
pub fn pinned(mut config: SystemConfig) -> SystemConfig {
    config.core.engine = Engine::TimeQ;
    config.core.skip_ahead = true;
    config
}

/// Times each simulator layer on `input`, appending the host-time
/// per-layer metrics, and returns the simulated counts of its CATCH
/// runs. The DRAM-wrapper runs must reproduce `System::run_st_warm`'s
/// counters exactly, or the check fails.
pub fn probe(
    input: &ProbeInput,
    tracer: &Tracer,
    chk: &mut Checker,
    out: &mut Vec<Metric>,
) -> SimTotals {
    let mut sims = SimTotals::default();
    let base = System::new(base_config());
    let catch = System::new(catch_config());
    let (mut ooo_base_s, mut ooo_catch_s, mut fast_s, mut lite_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut uops, mut cycles, mut accesses, mut lite_uops) = (0u64, 0u64, 0u64, 0u64);
    let (mut dram_calls, mut dram_s) = (0u64, 0.0);
    let timed = |name: &'static str, f: &mut dyn FnMut() -> RunResult| -> (RunResult, f64) {
        let t = Instant::now();
        let r = tracer.span(name, &mut *f);
        (r, t.elapsed().as_secs_f64())
    };
    for (i, trace) in input.traces.iter().enumerate() {
        uops += trace.len() as u64;
        let (r, s) = timed("System::run_st_warm", &mut || {
            base.run_st_warm(trace.clone(), 0)
        });
        ooo_base_s += s;
        cycles += r.core.cycles;
        let (r, s) = timed("System::run_st_warm", &mut || {
            catch.run_st_warm(trace.clone(), 0)
        });
        ooo_catch_s += s;
        cycles += r.core.cycles;
        sims.add_run(&r);
        let (r, s) = timed("System::run_st_fast", &mut || {
            base.run_st_fast(trace.clone(), 0)
        });
        fast_s += s;
        let h = &r.hierarchy;
        accesses += h
            .l1i
            .iter()
            .chain(&h.l1d)
            .chain(&h.l2)
            .map(|c| c.accesses)
            .sum::<u64>()
            + h.llc.accesses;

        let (wrapped, calls, secs) = tracer.span("dram.timed_run", || {
            run_st_warm_timed_dram(catch.config(), trace.clone(), input.warmup)
        });
        dram_calls += calls;
        dram_s += secs;
        let want = match input.reference.get(i).copied().flatten() {
            Some(d) => d,
            None => counters_digest([&tracer.span("System::run_st_warm.reference", || {
                catch.run_st_warm(trace.clone(), input.warmup)
            })]),
        };
        let got = counters_digest([&wrapped]);
        if got == want {
            chk.attempted += 1;
        } else {
            chk.fail(format!(
                "{}: DRAM-wrapper counters {got:016x} != run_st_warm {want:016x}",
                trace.name()
            ));
        }
    }
    for trace in &input.lite {
        lite_uops += trace.len() as u64;
        let (_, s) = timed("System::run_st_lite", &mut || {
            base.run_st_lite(trace.clone(), input.lite_warmup)
        });
        lite_s += s;
    }
    let ns = |s: f64, n: u64| ratio(s * 1e9, n as f64);
    let ooo_s = ooo_base_s + ooo_catch_s;
    out.extend([
        metric("cpu.ooo.calls", 2.0 * input.traces.len() as f64, "count"),
        metric("cpu.ooo.host_s", ooo_s, "s"),
        metric("cpu.ooo.ns_per_op", ns(ooo_s, 2 * uops), "ns"),
        metric("cpu.ooo.ns_per_cycle", ns(ooo_s, cycles), "ns"),
        metric(
            "cpu.pipeline_ns_per_op",
            ns(ooo_base_s - fast_s, uops),
            "ns",
        ),
        metric("cpu.fast.ns_per_op", ns(fast_s, uops), "ns"),
        metric("cache.ns_per_access", ns(fast_s, accesses), "ns"),
        metric("cpu.lite.ns_per_op", ns(lite_s, lite_uops), "ns"),
        metric(
            "catch_mech.extra_ns_per_op",
            ns(ooo_catch_s - ooo_base_s, uops),
            "ns",
        ),
        metric("dram.calls", dram_calls as f64, "count"),
        metric("dram.self_s", dram_s, "s"),
        metric("dram.ns_per_access", ns(dram_s, dram_calls), "ns"),
    ]);
    sims
}
