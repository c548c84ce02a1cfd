//! Shared pieces: run context, metrics, statistics, output checks,
//! in-memory spans and process measurements.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Seed used when `--seed` is absent; the committed expected digests
/// were produced with it.
pub const DEFAULT_SEED: u64 = 42;

/// Expected output digests for [`DEFAULT_SEED`], one `workload key hex`
/// line per checked output.
pub const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Simulation threads the workload may use in total.
    pub nproc: usize,
    /// Scratch directory inside the working directory (sockets, disk
    /// cache, checkpoint journals); removed at exit.
    pub scratch: PathBuf,
    /// Input sizes.
    pub scale: Scale,
}

/// Input sizes of every workload. The command line always runs
/// [`Scale::full`]; the committed digests are for it.
#[derive(Clone, Debug)]
pub struct Scale {
    /// `st_detail` µops per trace. One OOO run takes 40–130 ms on an idle
    /// host: short enough for a dozen rounds in a window, each run between
    /// two reference samples.
    pub st_ops: usize,
    /// `st_detail` warm-up µops excluded from statistics.
    pub st_warmup: usize,
    /// `mp_shared_llc` µops per core.
    pub mp_ops: usize,
    /// Grid of the sweep `mp_shared_llc`'s traced run probes.
    pub sweep: catch_core::sweep::SweepSpec,
    /// That sweep's evaluation (scale, seed and rung).
    pub sweep_eval: catch_core::experiments::EvalConfig,
    /// µops per simulated workload of a request of the daemon session
    /// `mp_shared_llc`'s traced run probes.
    pub req_ops: usize,
    /// Warm-up µops of such a request.
    pub req_warmup: usize,
    /// Requests in the session: enough for ten beyond its p99.
    pub session_requests: usize,
    /// µops of the traces the `lite` rung probe runs.
    pub lite_ops: usize,
    /// Warm-up of the `lite` rung probe.
    pub lite_warmup: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Self {
        use catch_core::experiments::{EvalConfig, Fidelity};
        // The sweep runs the registry's standard evaluation on the
        // `lite` rung, whatever the workload seed: the ladder's
        // OOO-validation count, which sets most of a sweep's cost, moves
        // with the trace seed, and the grid is the probe's input.
        let sweep_eval = EvalConfig::standard().with_fidelity(Fidelity::Lite);
        let screen = sweep_eval.screened();
        Scale {
            st_ops: 200_000,
            st_warmup: 50_000,
            mp_ops: 20_000,
            sweep: catch_core::sweep::SweepSpec::paper(),
            sweep_eval,
            req_ops: 1_000,
            req_warmup: 250,
            session_requests: 1_000,
            lite_ops: screen.ops,
            lite_warmup: screen.warmup,
        }
    }

    /// Small inputs for the benchmark's own tests.
    pub fn tiny() -> Self {
        use catch_core::experiments::{EvalConfig, Fidelity};
        let sweep_eval = EvalConfig {
            ops: 2_000,
            warmup: 500,
            ..EvalConfig::quick()
        }
        .with_fidelity(Fidelity::Lite);
        Scale {
            st_ops: 3_000,
            st_warmup: 1_000,
            mp_ops: 1_500,
            sweep: catch_core::sweep::SweepSpec::quick(),
            sweep_eval,
            req_ops: 500,
            req_warmup: 100,
            session_requests: 40,
            lite_ops: 2_000,
            lite_warmup: 500,
        }
    }
}

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Builds a [`Metric`], mapping a non-finite value (an empty ratio) to 0.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host ms of one reference run on the host every time is scaled to.
/// (On a shared 2-vCPU Intel Xeon VM a run took about 3 ms when the host
/// was quiet and up to 7 ms when it was busy.)
pub const REF_MS: f64 = 5.0;
/// Tags of the reference cache: 64 Ki sets of [`REF_WAYS`] ways (4 MiB).
const REF_TAGS: usize = 1 << 19;
/// Ways per set of the reference cache.
const REF_WAYS: usize = 8;
/// Accesses per reference run.
const REF_ACCESSES: u32 = 150_000;

/// A fixed host computation timed between operations: an 8-way LRU
/// cache model over a fixed address stream, the same kind of work as the
/// simulator's (branchy tag searches over a few MiB of state). On a
/// shared host the speed of such work swings by 2x within seconds as
/// other tenants come and go, and operation times swing with it; the
/// reference samples either side of an operation measure the speed it
/// ran at, and [`scaled_ms`] turns its host time into time on a host
/// where a reference run takes [`REF_MS`].
#[derive(Debug)]
pub struct Reference {
    tags: Vec<u64>,
    hits: Option<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            tags: vec![0; REF_TAGS],
            hits: None,
        }
    }
}

impl Reference {
    /// Runs the reference once; returns its host ms. The tags are reset
    /// untimed first, which also brings them into the host's caches, so
    /// every sample starts from the same cache state whatever ran before.
    pub fn sample_ms(&mut self) -> f64 {
        self.tags.fill(u64::MAX);
        let t = Instant::now();
        let hits = reference_cache(&mut self.tags);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // The computation is deterministic; another hit count means it
        // did not run as written.
        assert_eq!(
            *self.hits.get_or_insert(hits),
            hits,
            "reference run diverged"
        );
        ms
    }
}

/// `ms` of host time, taken between reference samples `before` and
/// `after` (host ms), as time on a host where a reference run takes
/// [`REF_MS`].
pub fn scaled_ms(ms: f64, before: f64, after: f64) -> f64 {
    ms * REF_MS * 2.0 / (before + after)
}

/// The reference computation on an empty cache; returns its hit count.
fn reference_cache(tags: &mut [u64]) -> u64 {
    let sets = (tags.len() / REF_WAYS) as u64;
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut hits = 0;
    for _ in 0..REF_ACCESSES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Three accesses in four fall in a footprint the size of the
        // cache, the rest in one eight times larger.
        let span = if x & 3 == 0 { sets << 6 } else { sets << 3 };
        let line = (x >> 8) % span;
        let set = (line % sets) as usize;
        let tag = line / sets;
        let ways = &mut tags[set * REF_WAYS..(set + 1) * REF_WAYS];
        match ways.iter().position(|&t| t == tag) {
            Some(w) => {
                hits += 1;
                ways[..=w].rotate_right(1);
            }
            None => ways.rotate_right(1),
        }
        ways[0] = tag;
    }
    std::hint::black_box(hits)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a, 64-bit: the digest every output check uses.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes a named counter in (name, separator, little-endian value).
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        self.bytes(name.as_bytes())
            .bytes(&[0])
            .bytes(&value.to_le_bytes())
    }

    /// The digest value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Digest of every simulated counter of `results`, in order.
pub fn counters_digest<'a>(results: impl IntoIterator<Item = &'a catch_core::RunResult>) -> u64 {
    use catch_trace::counters::Counters;
    let mut d = Digest::default();
    for r in results {
        let mut counters = Vec::new();
        r.counters_into("", &mut counters);
        for (name, value) in &counters {
            d.counter(name, *value);
        }
    }
    d.get()
}

/// Digest of a report's bytes.
pub fn text_digest(text: &str) -> u64 {
    Digest::default().bytes(text.as_bytes()).get()
}

/// Counts operations and checks their outputs. Every output is keyed;
/// the first digest seen for a key is what every repeat must reproduce,
/// and under [`DEFAULT_SEED`] it must also equal the committed digest.
#[derive(Debug)]
pub struct Checker {
    workload: String,
    expected: Option<BTreeMap<String, u64>>,
    first: BTreeMap<String, u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (mismatch, error, rejection or panic).
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub problems: Vec<String>,
    /// Digest lines of merged checkers.
    merged_lines: Vec<String>,
}

impl Checker {
    /// A checker for `workload`; `expected_text` is consulted only when
    /// `seed` is [`DEFAULT_SEED`].
    pub fn new(workload: &str, seed: u64, expected_text: &str) -> Self {
        let expected = (seed == DEFAULT_SEED).then(|| {
            expected_text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .filter_map(|l| {
                    let mut it = l.split_whitespace();
                    let (w, key, hex) = (it.next()?, it.next()?, it.next()?);
                    (w == workload)
                        .then(|| {
                            u64::from_str_radix(hex, 16)
                                .ok()
                                .map(|d| (key.to_string(), d))
                        })
                        .flatten()
                })
                .collect()
        });
        Checker {
            workload: workload.to_string(),
            expected,
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            merged_lines: Vec::new(),
        }
    }

    /// Records one completed operation whose output digests to `digest`.
    pub fn check(&mut self, key: &str, digest: u64) {
        self.attempted += 1;
        let first = *self.first.entry(key.to_string()).or_insert(digest);
        if first != digest {
            self.fail_counted(format!(
                "{key}: repeat digest {digest:016x} != first {first:016x}"
            ));
            return;
        }
        if let Some(expected) = &self.expected {
            match expected.get(key) {
                Some(&want) if want == digest => {}
                Some(&want) => self.fail_counted(format!(
                    "{key}: digest {digest:016x} != expected {want:016x}"
                )),
                None => self.fail_counted(format!(
                    "{key}: no expected digest for {} under the default seed",
                    self.workload
                )),
            }
        }
    }

    /// Records one operation that failed outright.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.fail_counted(why);
    }

    fn fail_counted(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Adds the operations and failures `other` counted (outputs checked
    /// under another workload's expected digests).
    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.merged_lines.extend(other.digest_lines());
        self.problems.extend(other.problems);
    }

    /// First digest per key (`digest <workload> <key> <hex>` lines).
    pub fn digest_lines(&self) -> Vec<String> {
        self.first
            .iter()
            .map(|(k, d)| format!("digest {} {k} {d:016x}", self.workload))
            .chain(self.merged_lines.iter().cloned())
            .collect()
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
/// The benchmark wraps only top-level calls, so no span has a parent.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (unique within the run, from 1); a request's span id
    /// identifies the request.
    pub id: u64,
    /// Layer call name, e.g. `System::run_st_warm`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Total seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Runs `f` in a span when tracing, plainly otherwise.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (USER_HZ,
    // 100 on Linux), counted after the parenthesised command name.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reference_runs_repeat_and_scale_to_reference_speed() {
        let mut r = Reference::default();
        assert!(r.sample_ms() > 0.0);
        assert!(r.sample_ms() > 0.0);
        let hits = r.hits.expect("hit count recorded");
        assert!(hits > 0 && hits < u64::from(REF_ACCESSES));
        // An operation as long as one reference run at that moment takes
        // REF_MS; twice as long, twice that.
        assert_eq!(scaled_ms(8.0, 8.0, 8.0), REF_MS);
        assert_eq!(scaled_ms(20.0, 9.0, 11.0), 2.0 * REF_MS);
    }

    #[test]
    fn checker_counts_repeat_mismatches() {
        let mut c = Checker::new("w", DEFAULT_SEED + 1, "");
        c.check("a", 1);
        c.check("a", 1);
        assert_eq!((c.attempted, c.failed), (2, 0));
        c.check("a", 2);
        assert_eq!((c.attempted, c.failed), (3, 1));
    }

    #[test]
    fn checker_enforces_expected_digests_under_default_seed() {
        let good = "w a 00000000000000ff\nother a 0000000000000001\n";
        let mut c = Checker::new("w", DEFAULT_SEED, good);
        c.check("a", 0xff);
        assert_eq!(c.failed, 0);
        // A corrupted expected digest registers as a failure.
        let mut c = Checker::new("w", DEFAULT_SEED, "w a 00000000000000fe\n");
        c.check("a", 0xff);
        assert_eq!(c.failed, 1);
        // So does a key with no expected digest at all.
        let mut c = Checker::new("w", DEFAULT_SEED, good);
        c.check("b", 0xff);
        assert_eq!(c.failed, 1);
    }
}
