//! Every workload completes at a tiny scale with no failed operation,
//! untraced and traced, and prints exactly the metrics it declares.
//!
//! One test: the workloads share the process-wide run cache and the
//! pinned environment, so they run one after another.

use perfbench::bench::{END_TO_END, PER_LAYER};
use perfbench::common::{Ctx, Scale};
use perfbench::{pin_environment, run, WORKLOADS};

#[test]
fn each_workload_completes_at_tiny_scale() {
    pin_environment();
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    std::fs::create_dir_all(&scratch).expect("create scratch");
    for workload in WORKLOADS {
        for traced in [false, true] {
            let ctx = Ctx {
                workload: workload.to_string(),
                seed: 7,
                // Every workload finishes its minimum of whole rounds.
                seconds: 0.0,
                nproc: 2,
                scratch: scratch.clone(),
                scale: Scale::tiny(),
            };
            let out = run(&ctx, traced);
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(out.failed, 0, "{workload} traced={traced}: {:?}", out.lines);
            assert!(out.correct());
            let want: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{workload} traced={traced}");
            let json = out.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}
