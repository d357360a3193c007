//! `rasc-perfbench --workload <privilege|dataflow|session> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric, host-speed corrected, with
//! `--trace 0`; every per-layer metric with `--trace 1`). A readable table
//! goes to standard error. The traced run also writes its spans to
//! `.bench_out/`. Exits 1 when any operation failed (a wrong answer, an
//! error response or a refused connection), 2 on bad usage.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rasc_perfbench::trace::{render_jsonl, SpanId, Tracer};
use rasc_perfbench::{
    dataflow, layer_times, peak_rss_mb, privilege, session, stats, Report, RunConfig, END_TO_END,
    PER_LAYER,
};

const USAGE: &str = "usage: rasc-perfbench --workload <privilege|dataflow|session> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    run: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        kv.insert(key.to_owned(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        run: RunConfig {
            seed,
            seconds,
            trace,
        },
    })
}

/// Nanoseconds one span costs to record, measured on a scratch tracer.
fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let mut tr = Tracer::new(Some(Instant::now()));
    let start = Instant::now();
    for i in 0..N {
        let id = tr.begin("calibrate", SpanId::ROOT, i);
        tr.end(id);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = args.run;
    let mut report: Report = match args.workload.as_str() {
        "privilege" => privilege::run(&run),
        "dataflow" => dataflow::run(&run),
        "session" => session::run(&run),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.e2e.insert("peak_rss_mb", peak_rss_mb());
    let checks = &report.checks;
    let ok = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
    report.e2e.insert("ok_ratio", ok);

    let (table, metrics): (&[(&str, &str)], BTreeMap<&str, f64>) = if run.trace {
        let mut m = layer_times(&report.spans);
        m.extend(report.layer.iter().map(|(k, v)| (*k, *v)));
        let spans = report.spans.len() as f64;
        m.insert("trace.spans", spans);
        m.insert("host.probe_ms", report.probe.median_s() * 1e3);
        let measured_ns = report.measured.as_nanos().max(1) as f64;
        m.insert(
            "trace.overhead_pct",
            100.0 * spans * span_cost_ns() / measured_ns,
        );
        std::fs::create_dir_all(".bench_out").expect("create .bench_out");
        let path = format!(".bench_out/spans-{}-{}.jsonl", args.workload, run.seed);
        std::fs::write(&path, render_jsonl(&report.spans)).expect("write spans");
        eprintln!("spans: {path}");
        (PER_LAYER, m)
    } else {
        for (name, raw) in &report.e2e {
            eprintln!("{name:<28} {raw:>16.6} (wall clock)");
        }
        (END_TO_END, report.corrected_e2e())
    };

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        checks.correct(),
        checks.attempted.max(1),
        checks.failed
    );
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:<28} {value:>16.6} {unit}");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        );
    }
    json.push_str("}}");
    match stats::tail_percentile(report.txns) {
        Some(p) => eprintln!("txn_ms.tail is p{p:.1} of {} transactions", report.txns),
        None => eprintln!("txn_ms.tail is the maximum of {} transactions", report.txns),
    }
    for f in &checks.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{json}");
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
