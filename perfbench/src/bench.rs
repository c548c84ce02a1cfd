//! The workload interface and the runner that turns a workload into one
//! result: set-up repeated and timed, a closed measurement window, and
//! for a traced run an untraced and a traced window plus the layer probe.

use crate::common::{
    cpu_seconds, median, metric, peak_rss_mb, percentile, ratio, scaled_ms, Checker, Ctx, Metric,
    Reference, Tracer, REF_MS,
};
use crate::layers::{probe, ProbeInput, SimTotals};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up runs per invocation, at least; `setup_s` is their cost,
/// taken like a job's (see [`Costs`]).
pub const SETUP_REPS: u64 = 20;
/// Set-ups repeat until they have taken this long in host time, so that
/// the quietest quarter of them holds ten or more.
pub const SETUP_MIN_S: f64 = 2.0;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("workloads.generate_s", "s"),
    ("cpu.ooo.calls", "count"),
    ("cpu.ooo.host_s", "s"),
    ("cpu.ooo.ns_per_op", "ns"),
    ("cpu.ooo.ns_per_cycle", "ns"),
    ("cpu.pipeline_ns_per_op", "ns"),
    ("cpu.instructions", "count"),
    ("cpu.cycles", "count"),
    ("cpu.rob_occ_mean", "entries"),
    ("cpu.branch_mispredicts", "count"),
    ("cpu.lite.ns_per_op", "ns"),
    ("cpu.fast.ns_per_op", "ns"),
    ("cache.ns_per_access", "ns"),
    ("cache.l1d.accesses", "count"),
    ("cache.l2.accesses", "count"),
    ("cache.llc.accesses", "count"),
    ("cache.llc.miss_ratio", "ratio"),
    ("cache.mshr_occ_mean", "entries"),
    ("cache.back_invalidates", "count"),
    ("cache.c2c_transfers", "count"),
    ("catch_mech.extra_ns_per_op", "ns"),
    ("crit.walk_steps", "count"),
    ("tact.issued", "count"),
    ("prefetch.useful_ratio", "ratio"),
    ("dram.calls", "count"),
    ("dram.self_s", "s"),
    ("dram.ns_per_access", "ns"),
    ("dram.row_hit_ratio", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("runcache.hits", "count"),
    ("runcache.misses", "count"),
    ("runcache.hit_ratio", "ratio"),
    ("runcache.trace_misses", "count"),
    ("runcache.disk_hits", "count"),
    ("runcache.disk_stores", "count"),
    ("runcache.bytes_written", "B"),
    ("sweep.points", "count"),
    ("sweep.ooo_validated", "count"),
    ("sweep.journal_bytes", "B"),
    ("scheduler.admitted", "count"),
    ("scheduler.coalesced", "count"),
    ("scheduler.rejected", "count"),
    ("scheduler.coalesce_ratio", "ratio"),
    ("protocol.response_bytes", "B"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer counts only the workloads that load the layer measure.
/// Elsewhere they read 0 and the run says why. (The host times of these
/// layers — queue waits, request latencies, per-point sweep time — are
/// printed as lines by the workloads that load them: a time that reads 0
/// on every run of another workload is no measurement.)
pub const LAYER_ONLY: [(&str, &str); 4] = [
    ("runcache.", "bypasses the run cache"),
    ("sweep.", "runs no sweep"),
    ("scheduler.", "runs no daemon"),
    ("protocol.", "sends no requests"),
];

/// What one measurement window produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations completed in the window.
    pub completed: u64,
    /// Latency of each operation the metrics are taken over, ms at
    /// reference speed.
    pub latencies_ms: Vec<f64>,
    /// Seconds at reference speed the operations' throughput is taken over.
    pub busy_s: f64,
    /// The same latencies in host ms, unscaled.
    pub host_latencies_ms: Vec<f64>,
    /// The same seconds in host seconds, unscaled.
    pub host_busy_s: f64,
    /// Simulated µops of those operations (0 where not counted).
    pub sim_uops: u64,
    /// Simulated counts of the window's runs (traced windows).
    pub sims: Option<SimTotals>,
}

impl Measured {
    /// Operations completed per second at reference speed.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.latencies_ms.len() as f64, self.busy_s)
    }

    /// Operations completed per host second, unscaled.
    pub fn host_ops_per_s(&self) -> f64 {
        ratio(self.host_latencies_ms.len() as f64, self.host_busy_s)
    }
}

/// Each job of a fixed job list run in rounds: its host time per repeat
/// scaled to reference speed (see [`Reference`](crate::common::Reference)),
/// and as its cost the median over the quietest quarter of its repeats —
/// those whose reference samples ran fastest. Scaling removes most of a
/// busy host's slowdown but not all of it (the simulator slows somewhat
/// more than the reference), so the repeats that need the least
/// correction are the ones used. The metrics are then taken over the
/// jobs.
#[derive(Debug, Default)]
pub struct Costs {
    jobs: BTreeMap<String, Job>,
    completed: u64,
}

#[derive(Debug, Default)]
struct Job {
    /// Per repeat: (mean reference sample, host ms).
    repeats: Vec<(f64, f64)>,
    uops: u64,
}

impl Job {
    /// Median scaled ms over the quietest quarter of the repeats.
    fn cost_ms(&self) -> f64 {
        let mut by_pace = self.repeats.clone();
        by_pace.sort_by(|a, b| a.0.total_cmp(&b.0));
        let quiet: Vec<f64> = by_pace[..by_pace.len().div_ceil(4)]
            .iter()
            .map(|&(pace, ms)| scaled_ms(ms, pace, pace))
            .collect();
        median(&quiet)
    }
}

impl Costs {
    /// Records one repeat of job `key`: `ms` of host time for `uops`
    /// simulated µops, between reference samples `pace` (host ms before,
    /// after).
    pub fn record(&mut self, key: &str, ms: f64, pace: (f64, f64), uops: u64) {
        self.completed += 1;
        let job = self.jobs.entry(key.to_string()).or_default();
        job.repeats.push(((pace.0 + pace.1) / 2.0, ms));
        job.uops = uops;
    }

    /// The window's result: one latency per job.
    pub fn measured(self) -> Measured {
        let scaled: Vec<f64> = self.jobs.values().map(Job::cost_ms).collect();
        let host: Vec<f64> = self
            .jobs
            .values()
            .map(|j| median(&j.repeats.iter().map(|r| r.1).collect::<Vec<_>>()))
            .collect();
        Measured {
            completed: self.completed,
            busy_s: scaled.iter().sum::<f64>() / 1e3,
            host_busy_s: host.iter().sum::<f64>() / 1e3,
            latencies_ms: scaled,
            host_latencies_ms: host,
            sim_uops: self.jobs.values().map(|j| j.uops).sum(),
            ..Measured::default()
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs and live resources the measurement needs.
    type State;
    /// Builds the inputs (the timed set-up).
    fn setup(&self, ctx: &Ctx, tracer: Option<&Tracer>) -> Self::State;
    /// Runs operations in a closed loop for about `seconds`.
    fn measure(
        &self,
        ctx: &Ctx,
        state: &mut Self::State,
        seconds: f64,
        tracer: Option<&Tracer>,
        chk: &mut Checker,
    ) -> Measured;
    /// The workload's inputs for the simulator-layer probe.
    fn probe_input(&self, ctx: &Ctx, state: &Self::State, tracer: &Tracer) -> ProbeInput;
    /// Releases live resources (files).
    fn teardown(&self, state: Self::State, chk: &mut Checker);
    /// Layers the traced run measures beside the workload's own
    /// operations: their per-layer metrics and report lines.
    fn side_probe(
        &self,
        _ctx: &Ctx,
        _tracer: &Tracer,
        _chk: &mut Checker,
    ) -> (Vec<Metric>, Vec<String>) {
        (Vec::new(), Vec::new())
    }
}

/// A finished run: the metrics for the result line plus report lines.
pub struct RunOutput {
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result.
    pub lines: Vec<String>,
}

/// Sets the workload up repeatedly, each set-up between two reference
/// samples; returns the last state and the set-ups as one job.
fn setup_timed<W: Workload>(w: &W, ctx: &Ctx, chk: &mut Checker) -> (W::State, Measured) {
    let mut setups = Costs::default();
    let mut host_s = 0.0;
    let mut state: Option<W::State> = None;
    let mut reference = Reference::default();
    let mut before = reference.sample_ms();
    while setups.completed < SETUP_REPS || host_s < SETUP_MIN_S {
        if let Some(old) = state.take() {
            w.teardown(old, chk);
        }
        let t = Instant::now();
        state = Some(w.setup(ctx, None));
        let s = t.elapsed().as_secs_f64();
        let after = reference.sample_ms();
        setups.record("setup", s * 1e3, (before, after), 0);
        host_s += s;
        before = after;
    }
    (state.expect("at least one set-up"), setups.measured())
}

fn end_to_end(m: &Measured, setup: &Measured, lines: &mut Vec<String>) -> Vec<Metric> {
    let e2e = vec![
        metric("setup_s", setup.busy_s, "s"),
        metric("ops_per_s", m.ops_per_s(), "1/s"),
        metric("op_p50_ms", median(&m.latencies_ms), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    lines.push(format!(
        "operations: {} completed; metrics over {} ({:.3} s at reference speed); setup runs: {}",
        m.completed,
        m.latencies_ms.len(),
        m.busy_s,
        setup.completed
    ));
    lines.push(format!(
        "unscaled host times: setup_s = {:.6} s, ops_per_s = {:.4} 1/s, op_p50_ms = {:.4} ms \
         (times above are scaled to a {REF_MS} ms reference run)",
        setup.host_busy_s,
        m.host_ops_per_s(),
        median(&m.host_latencies_ms)
    ));
    // The tail is reported, not gated: on a shared host a 1% tail swings
    // by more than any regression bound between identical runs.
    lines.push(format!(
        "op_p99_ms = {:.4} ms (over {} operations)",
        percentile(&m.latencies_ms, 99.0),
        m.latencies_ms.len()
    ));
    if m.sim_uops > 0 {
        lines.push(format!(
            "sim_mops_per_s = {:.4} Mops/s ({} simulated µops)",
            ratio(m.sim_uops as f64, m.busy_s) * 1e-6,
            m.sim_uops
        ));
    }
    e2e
}

/// Runs workload `w` as `ctx` asks: the end-to-end metrics, or with
/// `traced` the per-layer metrics.
pub fn drive<W: Workload>(w: &W, ctx: &Ctx, traced: bool, chk: &mut Checker) -> RunOutput {
    let mut lines = Vec::new();
    if !traced {
        let (mut state, setups) = setup_timed(w, ctx, chk);
        let m = w.measure(ctx, &mut state, ctx.seconds, None, chk);
        w.teardown(state, chk);
        let metrics = end_to_end(&m, &setups, &mut lines);
        return RunOutput { metrics, lines };
    }

    // Untraced and traced windows each get half the budget and a fresh
    // set-up, so both start from the same (cold) state.
    let half = ctx.seconds / 2.0;
    let (mut state, setups) = setup_timed(w, ctx, chk);
    let plain = w.measure(ctx, &mut state, half, None, chk);
    w.teardown(state, chk);
    lines.extend(
        end_to_end(&plain, &setups, &mut Vec::new())
            .iter()
            .map(|m| format!("untraced {} = {} {}", m.name, m.value, m.unit)),
    );

    let tracer = Tracer::default();
    let mut state = w.setup(ctx, Some(&tracer));
    let (wall0, cpu0) = (Instant::now(), cpu_seconds());
    let mut m = w.measure(ctx, &mut state, half, Some(&tracer), chk);
    // Both workloads run one simulation thread.
    let cpu_util = ratio(cpu_seconds() - cpu0, wall0.elapsed().as_secs_f64());

    let mut layer = Vec::new();
    let input = w.probe_input(ctx, &state, &tracer);
    w.teardown(state, chk);
    let probe_sims = probe(&input, &tracer, chk, &mut layer);
    let (side, side_lines) = w.side_probe(ctx, &tracer, chk);
    layer.extend(side);
    lines.extend(side_lines);
    // Simulated counts of the workload's own runs where it exposes them.
    m.sims
        .take()
        .unwrap_or(probe_sims)
        .metrics(&mut layer, &mut lines);
    layer.push(metric(
        "workloads.generate_s",
        tracer.seconds("WorkloadSpec::generate"),
        "s",
    ));
    // The runner's utilisation where a side probe ran it, else the
    // traced window's.
    if !layer.iter().any(|m| m.name == "proc.cpu_util") {
        layer.push(metric("proc.cpu_util", cpu_util, "ratio"));
    }
    let overhead = (ratio(median(&m.latencies_ms), median(&plain.latencies_ms)) - 1.0) * 100.0;
    layer.push(metric("trace.overhead_pct", overhead, "%"));

    let path = ctx
        .scratch
        .parent()
        .unwrap_or(&ctx.scratch)
        .join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        lines.push(format!("spans not written to {}: {e}", path.display()));
    } else {
        lines.push(format!("spans written to {}", path.display()));
    }

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        match layer.iter().find(|m| m.name == name) {
            Some(found) => metrics.push(found.clone()),
            None => {
                let why = LAYER_ONLY
                    .iter()
                    .find(|(prefix, _)| name.starts_with(prefix))
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                    .1;
                lines.push(format!("{name} = 0: {} {why}", ctx.workload));
                metrics.push(metric(name, 0.0, unit));
            }
        }
    }
    RunOutput { metrics, lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_costs_its_quietest_quarter_at_reference_speed() {
        let mut costs = Costs::default();
        // One repeat while the reference ran at REF_MS, three while the
        // host was busier: the quiet one is the cost, as it was measured.
        costs.record("a", 40.0, (REF_MS, REF_MS), 7);
        for _ in 0..3 {
            costs.record("a", 100.0, (2.0 * REF_MS, 2.0 * REF_MS), 7);
        }
        // Twice as long as the reference at the same speed: twice as long.
        costs.record("b", 30.0, (3.0, 3.0), 1);
        let m = costs.measured();
        assert_eq!(m.completed, 5);
        assert_eq!(m.latencies_ms, vec![40.0, 50.0]);
        assert_eq!(m.sim_uops, 8);
        assert_eq!(m.host_latencies_ms, vec![100.0, 30.0]);
    }
}
