//! The CATCH simulator workspace's benchmark: two seeded workloads run
//! against the simulator crates' public API, each printing end-to-end
//! metrics (or, traced, per-layer metrics) and checking its outputs.
//! See `perfbench/README.md`.

pub mod bench;
pub mod common;
pub mod layers;
pub mod mp;
pub mod service;
pub mod st;
pub mod sweep;

use bench::drive;
use common::{Checker, Ctx, Metric, EXPECTED_DIGESTS};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["st_detail", "mp_shared_llc"];

/// Everything one invocation reports.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// True when at least one operation ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Removes every `CATCH_*` variable, which would otherwise change what
/// the library runs (engine, skip-ahead, job counts, run-cache mode,
/// fidelity), then fixes the per-job runner threads of daemon jobs to
/// one: the daemon's worker is then its only simulation thread. Call
/// before any other thread starts.
pub fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CATCH_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var(catch_core::experiments::runner::JOBS_ENV, "1");
}

/// Runs workload `ctx.workload` (which must be one of [`WORKLOADS`]).
pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let mut chk = Checker::new(&ctx.workload, ctx.seed, EXPECTED_DIGESTS);
    let out = match ctx.workload.as_str() {
        "st_detail" => drive(&st::StDetail, ctx, traced, &mut chk),
        "mp_shared_llc" => drive(&mp::MpSharedLlc, ctx, traced, &mut chk),
        other => panic!("unknown workload {other}"),
    };
    let mut lines = out.lines;
    lines.extend(chk.digest_lines());
    lines.extend(chk.problems.iter().map(|p| format!("FAILED {p}")));
    Outcome {
        attempted: chk.attempted,
        failed: chk.failed,
        metrics: out.metrics,
        lines,
    }
}
