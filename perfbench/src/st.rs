//! `st_detail`: detailed single-core OOO runs of the golden six under the
//! three organisations the paper's single-thread figures compare.

use crate::bench::{Costs, Measured, Workload};
use crate::common::{counters_digest, span, Checker, Ctx, Reference, Tracer};
use crate::layers::{pinned, ProbeInput, SimTotals};
use catch_core::experiments::GOLDEN_WORKLOADS;
use catch_core::{System, SystemConfig, Trace};
use catch_workloads::suite;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The three single-core organisations: the exclusive baseline, the
/// baseline with CATCH, and the L2-less hierarchy with CATCH.
pub fn configs() -> [SystemConfig; 3] {
    [
        SystemConfig::baseline_exclusive(),
        SystemConfig::baseline_exclusive().with_catch(),
        SystemConfig::baseline_exclusive()
            .without_l2(6656 << 10)
            .with_catch(),
    ]
    .map(pinned)
}

/// Generates the golden six for `seed` (traced as layer calls).
pub fn golden_traces(ops: usize, seed: u64, tracer: Option<&Tracer>) -> Vec<Trace> {
    GOLDEN_WORKLOADS
        .iter()
        .map(|name| {
            let spec = suite::by_name(name).expect("golden workload exists");
            span(tracer, "WorkloadSpec::generate", || {
                spec.generate(ops, seed)
            })
        })
        .collect()
}

/// Output key of one (trace, configuration) run.
pub fn key(trace: &Trace, config: &SystemConfig) -> String {
    format!("{}/{}", trace.name(), config.name)
}

/// The workload.
pub struct StDetail;

/// Generated traces and the systems they run on.
pub struct State {
    traces: Vec<Trace>,
    systems: Vec<System>,
    reference: Vec<Option<u64>>,
}

impl Workload for StDetail {
    type State = State;

    fn setup(&self, ctx: &Ctx, tracer: Option<&Tracer>) -> State {
        let traces = golden_traces(ctx.scale.st_ops, ctx.seed, tracer);
        State {
            reference: vec![None; traces.len()],
            traces,
            systems: configs().into_iter().map(System::new).collect(),
        }
    }

    fn measure(
        &self,
        ctx: &Ctx,
        st: &mut State,
        seconds: f64,
        tracer: Option<&Tracer>,
        chk: &mut Checker,
    ) -> Measured {
        let mut costs = Costs::default();
        let mut sims = SimTotals::default();
        let mut reference = Reference::default();
        let mut before = reference.sample_ms();
        let start = Instant::now();
        // Whole rounds only, so every window weighs the 18 runs equally.
        let mut round = 0;
        while round == 0 || start.elapsed().as_secs_f64() < seconds {
            for (ti, trace) in st.traces.iter().enumerate() {
                for (si, system) in st.systems.iter().enumerate() {
                    let input = trace.clone();
                    let t = Instant::now();
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        span(tracer, "System::run_st_warm", || {
                            system.run_st_warm(input, ctx.scale.st_warmup)
                        })
                    }));
                    let secs = t.elapsed().as_secs_f64();
                    let after = reference.sample_ms();
                    let pace = (before, after);
                    before = after;
                    let key = key(trace, system.config());
                    match run {
                        Ok(r) => {
                            costs.record(&key, secs * 1e3, pace, trace.len() as u64);
                            let digest = counters_digest([&r]);
                            chk.check(&key, digest);
                            if round == 0 {
                                sims.add_run(&r);
                                if si == 1 {
                                    st.reference[ti] = Some(digest);
                                }
                            }
                        }
                        Err(_) => chk.fail(format!("{key}: simulation panicked")),
                    }
                }
            }
            round += 1;
        }
        let mut m = costs.measured();
        m.sims = Some(sims);
        m
    }

    fn probe_input(&self, ctx: &Ctx, st: &State, tracer: &Tracer) -> ProbeInput {
        ProbeInput {
            traces: st.traces.clone(),
            warmup: ctx.scale.st_warmup,
            lite: golden_traces(ctx.scale.lite_ops, ctx.seed, Some(tracer)),
            lite_warmup: ctx.scale.lite_warmup,
            reference: st.reference.clone(),
        }
    }

    fn teardown(&self, _state: State, _chk: &mut Checker) {}
}
