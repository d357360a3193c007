//! The repository benchmark: three workloads (`privilege`, `dataflow`,
//! `session`) driven through the public entry points of `cfgir`, `pdmc`,
//! `core`, `pushdown`, `dataflow`, `inc` and `serve`, every answer
//! checked against an independent reference, every layer timed from
//! outside by wrapping the call into it.
//!
//! Only the default sequential solver runs: nothing here calls
//! `solve_parallel`, `bulk_solve` or sets `solve_threads`.
//!
//! `METRICS.md` beside this crate is the metric dictionary.

#![forbid(unsafe_code)]

pub mod coretxn;
pub mod dataflow;
pub mod encode;
pub mod host;
pub mod inputs;
pub mod privilege;
pub mod session;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use host::HostProbe;
use trace::{self_times, Span, Tracer};

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdict_s.bidi", "s"),
    ("verdict_s.forward", "s"),
    ("verdict_s.pds", "s"),
    ("txn_ms.p50", "ms"),
    ("txn_ms.tail", "ms"),
    ("txn_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics: name and unit. Every workload reports all of them;
/// a layer the workload leaves idle reads 0. Names ending in `_s` are the
/// median over verdict rounds (or set-ups) of the summed self time of the
/// spans of that name; `_us.p50` / `_us.tail` are percentiles of
/// per-call self times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cfgir.parse_s", "s"),
    ("cfgir.build_s", "s"),
    ("pdmc.encode_s", "s"),
    ("core.solve_s", "s"),
    ("core.query_s", "s"),
    ("core.forward.build_s", "s"),
    ("core.forward.solve_s", "s"),
    ("core.forward.query_s", "s"),
    ("pushdown.encode_s", "s"),
    ("pushdown.poststar_s", "s"),
    ("dataflow.bidi.encode_s", "s"),
    ("dataflow.bidi.solve_s", "s"),
    ("dataflow.forward.encode_s", "s"),
    ("dataflow.forward.solve_s", "s"),
    ("dataflow.iterative.solve_s", "s"),
    ("bench.verdict_s", "s"),
    ("core.facts_processed", "count"),
    ("core.annotations", "count"),
    ("core.violating_nodes", "count"),
    ("core.violating_nodes.p0", "count"),
    ("core.violating_nodes.p1", "count"),
    ("pushdown.rules", "count"),
    ("dataflow.precise_nodes", "count"),
    ("core.txn.add_us.p50", "us"),
    ("core.txn.query_us.p50", "us"),
    ("core.txn.pop_us.p50", "us"),
    ("core.txn.facts_per_add", "count"),
    ("inc.base_build_s", "s"),
    ("inc.decode_s", "s"),
    ("serve.bind_s", "s"),
    ("inc.snapshot_mb", "MB"),
    ("serve.add_us.p50", "us"),
    ("serve.add_us.tail", "us"),
    ("serve.query_us.p50", "us"),
    ("serve.query_us.tail", "us"),
    ("serve.pop_us.p50", "us"),
    ("serve.pop_us.tail", "us"),
    ("bench.txn_us.p50", "us"),
    ("inc.add_us.p50", "us"),
    ("inc.query_us.p50", "us"),
    ("inc.pop_us.p50", "us"),
    ("inc.facts_per_add", "count"),
    ("inc.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("host.probe_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Operations attempted and failed.
///
/// An operation is one engine verdict checked against its reference, one
/// request sent to the server, or one in-process edit transaction. It
/// fails on a wrong answer, an error response, an `overloaded` rejection
/// or a refused connection. Any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Each failure, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; a failed one is described by `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Marks an operation already counted as failed: a later check found
    /// its answer wrong.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Adds another set of checks (e.g. a client thread's).
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Whether no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What one workload run measured. End-to-end times are raw wall times
/// here; [`Report::corrected_e2e`] applies the host-speed correction.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer counts set directly by the workload.
    pub layer: BTreeMap<&'static str, f64>,
    /// Answer checks.
    pub checks: Checks,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
    /// Wall time of the measured phases (for the tracing-overhead
    /// estimate).
    pub measured: Duration,
    /// Transactions completed.
    pub txns: usize,
    /// Host-speed samples taken through the measured window.
    pub probe: HostProbe,
}

impl Report {
    /// Records transaction latency and throughput.
    pub fn record_txns(&mut self, latencies_ms: &[f64], wall_s: f64) {
        self.e2e.insert("txn_ms.p50", stats::median(latencies_ms));
        self.e2e.insert("txn_ms.tail", stats::tail(latencies_ms));
        let rate = latencies_ms.len() as f64 / wall_s.max(1e-9);
        self.e2e.insert("txn_per_s", rate);
        self.txns = latencies_ms.len();
    }

    /// The end-to-end metrics with every time divided, and the throughput
    /// multiplied, by the host's slowdown (see [`host`]).
    pub fn corrected_e2e(&self) -> BTreeMap<&'static str, f64> {
        let slowdown = self.probe.slowdown();
        self.e2e
            .iter()
            .map(|(&name, &v)| {
                let v = match name {
                    "txn_per_s" => v * slowdown,
                    "peak_rss_mb" | "ok_ratio" => v,
                    _ => v / slowdown,
                };
                (name, v)
            })
            .collect()
    }
}

/// Run parameters shared by the workloads.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phases.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub trace: bool,
}

impl RunConfig {
    /// A tracer for this run, sharing `origin` with the run's other
    /// tracers.
    pub fn tracer(&self, origin: Instant) -> Tracer {
        Tracer::new(self.trace.then_some(origin))
    }
}

/// Transactions generated per script (more than any run completes).
pub const TXN_SCRIPT: usize = 20_000;

/// How many times a verdict step runs an engine that takes well under a
/// second, so host noise on one short run does not set the figure. The
/// spans of repetition `rep` in round `r` carry group `r * REPEATS + rep`.
pub const REPEATS: u64 = 3;

/// Runs `f` and returns its wall time in seconds and its output.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Runs `f(i)` for `i` in `0..n` and returns the median wall time in
/// seconds and the last output.
pub fn median_of<T>(n: u64, mut f: impl FnMut(u64) -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut out = None;
    for i in 0..n {
        let (t, o) = timed(|| f(i));
        times.push(t);
        // The previous output drops here, outside the timed call.
        out = Some(o);
    }
    (stats::median(&times), out.expect("n > 0"))
}

/// Wall time of the library calls one set-up makes, as opposed to the
/// benchmark's own input generation around them.
#[derive(Debug, Default)]
pub struct SetupClock(Duration);

impl SetupClock {
    /// Runs one library call of the set-up and adds its wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0 += start.elapsed();
        out
    }

    /// Seconds timed so far.
    pub fn seconds(&self) -> f64 {
        self.0.as_secs_f64()
    }
}

/// One step of an interleaved measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Run verdict step `k`.
    Verdict(u64),
    /// Run transactions until this deadline.
    Txns(Instant),
}

/// The measured window: `verdicts` verdict steps, each followed by a
/// transaction batch of a fixed `txn_seconds / verdicts`. Both kinds of
/// work thus sample the whole window, and the number of transactions does
/// not depend on how long the verdicts take. The host probe samples
/// before each verdict step and once at the end. Returns the window's wall
/// time.
pub fn interleave(
    verdicts: u64,
    txn_seconds: f64,
    probe: &mut HostProbe,
    mut step: impl FnMut(Step),
) -> Duration {
    let start = Instant::now();
    let batch = Duration::from_secs_f64(txn_seconds / verdicts as f64);
    for k in 0..verdicts {
        probe.sample();
        step(Step::Verdict(k));
        step(Step::Txns(Instant::now() + batch));
    }
    probe.sample();
    start.elapsed()
}

/// Share of `--seconds` given to transaction batches; verdict steps take
/// about the rest on the reference host.
pub const TXN_SHARE: f64 = 0.5;

/// Verdict steps for a window of `seconds`: one per `step_seconds` (a
/// step's rough cost on the reference host), at least `min`.
pub fn verdict_steps(seconds: f64, step_seconds: f64, min: u64) -> u64 {
    ((seconds / step_seconds).round() as u64).max(min)
}

/// The per-layer time metrics derived from spans: for each `<span>_s`
/// metric, the median over groups of the summed self time; for each
/// `<span>_us.p50` / `<span>_us.tail`, the percentile of per-span self
/// times in microseconds.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for &(metric, _) in PER_LAYER {
        let value = if let Some(s) = metric.strip_suffix("_us.p50") {
            stats::median(&per_call_us(spans, &own, s))
        } else if let Some(s) = metric.strip_suffix("_us.tail") {
            stats::tail(&per_call_us(spans, &own, s))
        } else if let Some(s) = metric.strip_suffix("_s") {
            per_group_median_s(spans, &own, s)
        } else {
            continue;
        };
        out.insert(metric, value);
    }
    out
}

fn per_call_us(spans: &[Span], own: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

fn per_group_median_s(spans: &[Span], own: &[u64], name: &str) -> f64 {
    let mut groups: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(own) {
        if s.name == name {
            *groups.entry(s.group).or_default() += ns;
        }
    }
    let sums: Vec<f64> = groups.values().map(|&ns| ns as f64 / 1e9).collect();
    stats::median(&sums)
}

/// Peak resident set size of this process in MB, from `VmHWM` in
/// `/proc/self/status` (0 where that file is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
