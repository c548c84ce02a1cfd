//! The sweep engine, probed by `mp_shared_llc`'s traced run: one cold
//! sweep of the 600-point `paper` design-space grid on the `lite`
//! fidelity ladder at standard scale, `nproc` runner threads, in-memory
//! run cache, checkpoint journal on.

use crate::common::{
    cpu_seconds, metric, ratio, text_digest, Checker, Ctx, Metric, Tracer, EXPECTED_DIGESTS,
};
use catch_core::sweep::{self, SweepOptions};
use catch_core::{CacheMode, RunCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Name the sweep's report is checked under in `expected_digests.txt`.
pub const CHECK_AS: &str = "sweep_ladder";
/// Output key of the sweep's Pareto report.
pub const KEY: &str = "pareto_report";

/// Runs the sweep once from a cold run cache and an empty journal in
/// `ctx.scratch`, in a span of `tracer`, and returns the sweep, runner
/// and run-cache metrics plus report lines. The report is checked under
/// [`CHECK_AS`] and counted in `chk`.
pub fn probe(ctx: &Ctx, tracer: &Tracer, chk: &mut Checker) -> (Vec<Metric>, Vec<String>) {
    let mut own = Checker::new(CHECK_AS, ctx.seed, EXPECTED_DIGESTS);
    let out = run(ctx, tracer, &mut own);
    chk.merge(own);
    out
}

fn run(ctx: &Ctx, tracer: &Tracer, chk: &mut Checker) -> (Vec<Metric>, Vec<String>) {
    let spec = &ctx.scale.sweep;
    let journal = ctx.scratch.join("sweep.journal");
    let _ = std::fs::remove_file(&journal);
    let cache = RunCache::global();
    cache.set_mode(CacheMode::Memory);
    cache.reset_memory();
    let before = cache.summary();
    let opts = SweepOptions {
        jobs: Some(ctx.nproc),
        checkpoint: Some(journal.clone()),
        ..SweepOptions::default()
    };
    let (wall0, cpu0) = (Instant::now(), cpu_seconds());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        tracer.span("sweep::run_sweep", || {
            sweep::run_sweep(spec, &ctx.scale.sweep_eval, &opts).map(|o| {
                let report = o.report.to_string();
                (o, report)
            })
        })
    }));
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_util = ratio(cpu_seconds() - cpu0, wall_s * ctx.nproc as f64);
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |f| f.len());
    let _ = std::fs::remove_file(&journal);
    let (points, validated) = match outcome {
        Ok(Ok((o, report))) if o.remaining == 0 && o.degenerate == 0 => {
            chk.check(KEY, text_digest(&report));
            (o.computed, o.validated)
        }
        Ok(Ok((o, _))) => {
            chk.fail(format!(
                "{KEY}: {} points pending, {} degenerate",
                o.remaining, o.degenerate
            ));
            (o.computed, o.validated)
        }
        Ok(Err(e)) => {
            chk.fail(format!("{KEY}: {e}"));
            (0, 0)
        }
        Err(_) => {
            chk.fail(format!("{KEY}: sweep panicked"));
            (0, 0)
        }
    };
    let d = cache.summary();
    cache.reset_memory();
    let hits = d.hits - before.hits;
    let misses = d.misses - before.misses;
    let lines = vec![
        format!(
            "sweep_s = {wall_s:.4} s (one cold sweep of {} points, {} runner threads; host time)",
            spec.point_count(),
            ctx.nproc
        ),
        format!(
            "sweep.ms_per_point = {:.4} ms",
            ratio(wall_s * 1e3, points as f64)
        ),
    ];
    let metrics = vec![
        metric("proc.cpu_util", cpu_util, "ratio"),
        metric("runcache.hits", hits as f64, "count"),
        metric("runcache.misses", misses as f64, "count"),
        metric(
            "runcache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        metric(
            "runcache.trace_misses",
            (d.trace_misses - before.trace_misses) as f64,
            "count",
        ),
        metric("sweep.points", points as f64, "count"),
        metric("sweep.ooo_validated", validated as f64, "count"),
        metric("sweep.journal_bytes", journal_bytes as f64, "B"),
    ];
    (metrics, lines)
}
