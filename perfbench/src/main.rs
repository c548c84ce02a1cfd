//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the workload's report lines, then one JSON result line.

use perfbench::common::{Ctx, Scale, DEFAULT_SEED};
use perfbench::{pin_environment, run, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <st_detail|mp_shared_llc> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Scratch space, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload '{}'", out.workload));
    }
    Ok(out)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".into(),
            |s| s.trim().to_string(),
        )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = std::path::Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} commit={} rustc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        git_commit(),
        env!("PERFBENCH_RUSTC")
    );
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        scratch: scratch.clone(),
        scale: Scale::full(),
    };
    let outcome = run(&ctx, args.trace);
    let _ = std::fs::remove_dir_all(&scratch);
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
