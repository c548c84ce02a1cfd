//! `mp_shared_llc`: 4-core multi-programmed mixes on a shared LLC, the
//! only workload that drives the lockstep MP loop, snoops, cache-to-cache
//! transfers, back-invalidation and DRAM contention. Its traced run also
//! probes the sweep engine and the daemon.

use crate::bench::{Costs, Measured, Workload};
use crate::common::{counters_digest, span, Checker, Ctx, Metric, Reference, Tracer};
use crate::layers::{pinned, ProbeInput, SimTotals};
use crate::st::golden_traces;
use catch_core::experiments::GOLDEN_WORKLOADS;
use catch_core::{System, SystemConfig, Trace};
use catch_workloads::mp::{self, MpMix};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Random mixes beside the RATE-4 mixes.
pub const RANDOM_MIXES: usize = 2;

/// Seed of the random mixes' draw. It is fixed: one mix can cost four
/// times another (a streaming mix against a cache-resident one), so
/// drawing the members from the workload seed would make the seed, not
/// the simulator, set the measured time. The workload seed generates
/// every trace of every mix.
pub const MIX_DRAW_SEED: u64 = 42;

/// RATE-4 mixes of the golden six plus [`RANDOM_MIXES`] random mixes.
pub fn mixes() -> Vec<MpMix> {
    let mut out: Vec<MpMix> = mp::rate4_mixes()
        .into_iter()
        .filter(|m| GOLDEN_WORKLOADS.contains(&m.members[0].name))
        .collect();
    out.extend(mp::random_mixes(RANDOM_MIXES, MIX_DRAW_SEED));
    out
}

/// The two shared-LLC organisations: exclusive baseline and L2-less
/// with CATCH, both with four cores.
pub fn configs() -> [SystemConfig; 2] {
    [
        SystemConfig::baseline_exclusive().with_cores(4),
        SystemConfig::baseline_exclusive()
            .without_l2(6656 << 10)
            .with_catch()
            .with_cores(4),
    ]
    .map(pinned)
}

/// The workload.
pub struct MpSharedLlc;

/// Generated mix traces and the systems they run on.
pub struct State {
    mixes: Vec<(String, [Trace; 4])>,
    systems: Vec<System>,
}

impl Workload for MpSharedLlc {
    type State = State;

    fn setup(&self, ctx: &Ctx, tracer: Option<&Tracer>) -> State {
        let mixes = mixes()
            .into_iter()
            .map(|m| {
                let traces = span(tracer, "WorkloadSpec::generate", || {
                    m.generate(ctx.scale.mp_ops, ctx.seed)
                });
                (m.name, traces)
            })
            .collect();
        State {
            mixes,
            systems: configs().into_iter().map(System::new).collect(),
        }
    }

    fn measure(
        &self,
        _ctx: &Ctx,
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
        // Whole rounds only, so every window weighs the runs equally.
        let mut round = 0;
        while round == 0 || start.elapsed().as_secs_f64() < seconds {
            for (name, traces) in &st.mixes {
                for system in &st.systems {
                    let input = traces.clone();
                    let t = Instant::now();
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        span(tracer, "System::run_mp", || system.run_mp(input))
                    }));
                    let secs = t.elapsed().as_secs_f64();
                    let after = reference.sample_ms();
                    let pace = (before, after);
                    before = after;
                    let key = format!("{name}/{}", system.config().name);
                    match run {
                        Ok(r) => {
                            let uops = traces.iter().map(|t| t.len() as u64).sum();
                            costs.record(&key, secs * 1e3, pace, uops);
                            chk.check(&key, counters_digest(&r.per_core));
                            if round == 0 {
                                r.per_core.iter().for_each(|c| sims.add_core(&c.core));
                                // Hierarchy and DRAM are shared: count once.
                                sims.add_memory(&r.per_core[0]);
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
        // Core 0's trace of every mix, run single-core.
        let traces: Vec<Trace> = st.mixes.iter().map(|(_, t)| t[0].clone()).collect();
        ProbeInput {
            reference: vec![None; traces.len()],
            traces,
            warmup: ctx.scale.mp_ops / 4,
            lite: golden_traces(ctx.scale.lite_ops, ctx.seed, Some(tracer)),
            lite_warmup: ctx.scale.lite_warmup,
        }
    }

    fn teardown(&self, _state: State, _chk: &mut Checker) {}

    /// The sweep engine and the daemon, each run once (see
    /// [`crate::sweep`] and [`crate::service`]).
    fn side_probe(
        &self,
        ctx: &Ctx,
        tracer: &Tracer,
        chk: &mut Checker,
    ) -> (Vec<Metric>, Vec<String>) {
        let (mut metrics, mut lines) = crate::sweep::probe(ctx, tracer, chk);
        let (m, l) = crate::service::probe(ctx, tracer, chk);
        metrics.extend(m);
        lines.extend(l);
        (metrics, lines)
    }
}
