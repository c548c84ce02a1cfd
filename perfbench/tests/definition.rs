//! The benchmark's definition: seeded inputs repeat exactly, and the
//! metric and workload names match `BENCHMARK.json`.

use perfbench::bench::{END_TO_END, PER_LAYER};
use perfbench::common::Scale;
use perfbench::{mp, service, st, WORKLOADS};

#[test]
fn generated_inputs_are_deterministic_per_seed() {
    let scale = Scale::tiny();
    let ops = |ts: &[catch_core::Trace]| -> Vec<Vec<catch_trace::MicroOp>> {
        ts.iter().map(|t| t.ops().to_vec()).collect()
    };
    let a = st::golden_traces(scale.st_ops, 5, None);
    let b = st::golden_traces(scale.st_ops, 5, None);
    let c = st::golden_traces(scale.st_ops, 6, None);
    assert_eq!(ops(&a), ops(&b));
    assert_ne!(ops(&a), ops(&c));

    let mix = &mp::mixes()[0];
    assert_eq!(
        ops(&mix.generate(scale.mp_ops, 5)),
        ops(&mix.generate(scale.mp_ops, 5))
    );

    let keys = |seed| -> Vec<(String, u64)> {
        service::keys(seed, scale.req_ops, scale.req_warmup)
            .into_iter()
            .map(|k| (k.name, k.eval.seed))
            .collect()
    };
    assert_eq!(keys(5), keys(5));
    assert_ne!(keys(5), keys(6));
    let stream = |seed| -> Vec<usize> { service::stream(seed, 12).take(200).collect() };
    assert_eq!(stream(5), stream(5));
    assert_ne!(stream(5), stream(6));
}

/// Names of the entries of the `section` array of `BENCHMARK.json`.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name closes")].to_string()
        })
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let listed = |names: &[(&str, &str)]| -> Vec<String> {
        names.iter().map(|(n, _)| n.to_string()).collect()
    };
    assert_eq!(names_in(&json, "workloads"), WORKLOADS.map(String::from));
    assert_eq!(names_in(&json, "end_to_end"), listed(&END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), listed(&PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
