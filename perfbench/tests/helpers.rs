//! Tests of the benchmark's helpers: the percentile rule, span self
//! time, and determinism of the seeded inputs.

use rasc_cfgir::{Cfg, Program};
use rasc_perfbench::host::{HostProbe, REFERENCE_PROBE_S};
use rasc_perfbench::inputs::{self, txn_script};
use rasc_perfbench::stats::{median, tail, tail_percentile};
use rasc_perfbench::trace::{self_times, Span, SpanId, Tracer};
use rasc_perfbench::{interleave, layer_times, verdict_steps, Checks, Report, Step};
use std::time::{Duration, Instant};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(tail(&samples), 90.0);
    assert_eq!(tail_percentile(100), Some(90.0));
    let beyond = samples.iter().filter(|&&x| x > tail(&samples)).count();
    assert_eq!(beyond, 10);

    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&samples), 990.0);
    assert_eq!(tail_percentile(1000), Some(99.0));

    // Eleven samples: only the smallest has ten beyond it.
    let samples: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(tail(&samples), 1.0);
}

#[test]
fn tail_falls_back_to_the_maximum_with_too_few_samples() {
    assert_eq!(tail_percentile(10), None);
    assert_eq!(tail(&[3.0, 9.0, 1.0]), 9.0);
    assert_eq!(tail(&[]), 0.0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>, group: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        group,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = vec![
        span("parent", 0, 100, None, 0),
        span("a", 10, 30, Some(0), 0),
        span("b", 20, 50, Some(0), 0), // overlaps a: [10, 50) counted once
        span("c", 90, 120, Some(0), 0), // runs past the parent: [90, 100) counts
        span("grandchild", 12, 18, Some(1), 0),
    ];
    assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
}

#[test]
fn layer_times_take_the_median_over_groups_of_summed_self_time() {
    let spans = vec![
        span("cfgir.parse", 0, 1_000_000_000, None, 0),
        span("cfgir.parse", 0, 1_000_000_000, None, 0),
        span("cfgir.parse", 0, 5_000_000_000, None, 1),
        span("cfgir.parse", 0, 3_000_000_000, None, 2),
        span("serve.add", 0, 10_000, None, 7),
        span("serve.add", 0, 30_000, None, 8),
    ];
    let m = layer_times(&spans);
    assert_eq!(m["cfgir.parse_s"], 3.0); // groups sum to 2, 5, 3
    assert_eq!(m["serve.add_us.p50"], 20.0);
    assert_eq!(m["core.solve_s"], 0.0);
}

#[test]
fn a_disabled_tracer_records_nothing_and_absorb_keeps_parent_links() {
    let mut off = Tracer::new(None);
    let id = off.begin("x", SpanId::ROOT, 0);
    off.end(id);
    assert_eq!(off.time("y", id, 0, || 7), 7);
    assert!(off.spans().is_empty());

    let origin = Instant::now();
    let mut main = Tracer::new(Some(origin));
    main.time("m", SpanId::ROOT, 0, || ());
    let mut worker = Tracer::new(Some(origin));
    let p = worker.begin("txn", SpanId::ROOT, 1);
    worker.time("add", p, 1, || ());
    worker.end(p);
    main.absorb(worker);
    let names: Vec<_> = main.spans().iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(names, vec![("m", None), ("txn", None), ("add", Some(1))]);
}

#[test]
fn interleave_gives_each_transaction_batch_a_fixed_budget() {
    let mut steps = Vec::new();
    let mut probe = HostProbe::new();
    let wall = interleave(3, 0.3, &mut probe, |step| {
        match step {
            // A verdict step of any length does not shorten the batch
            // after it.
            Step::Verdict(k) => std::thread::sleep(Duration::from_millis(30 * k)),
            Step::Txns(deadline) => {
                let budget = deadline.saturating_duration_since(Instant::now());
                assert!(budget > Duration::from_millis(80) && budget <= Duration::from_millis(100));
                std::thread::sleep(budget);
            }
        }
        steps.push(step);
    });
    assert!(wall >= Duration::from_millis(390));
    assert!(probe.median_s() > 0.0, "the probe samples the window");
    assert_eq!(steps.len(), 6);
    for (k, pair) in steps.chunks(2).enumerate() {
        assert_eq!(pair[0], Step::Verdict(k as u64));
        assert!(matches!(pair[1], Step::Txns(_)));
    }
}

#[test]
fn host_correction_scales_times_and_throughput_by_the_slowdown() {
    let mut report = Report::default();
    for (name, v) in [
        ("verdict_s.bidi", 2.0),
        ("txn_per_s", 10.0),
        ("peak_rss_mb", 100.0),
        ("ok_ratio", 1.0),
    ] {
        report.e2e.insert(name, v);
    }
    assert_eq!(
        report.corrected_e2e(),
        report.e2e,
        "no samples, no correction"
    );
    report.probe.sample();
    let slowdown = report.probe.median_s() / REFERENCE_PROBE_S;
    assert_eq!(report.probe.slowdown(), slowdown);
    let c = report.corrected_e2e();
    assert_eq!(c["verdict_s.bidi"], 2.0 / slowdown);
    assert_eq!(c["txn_per_s"], 10.0 * slowdown);
    assert_eq!((c["peak_rss_mb"], c["ok_ratio"]), (100.0, 1.0));
}

#[test]
fn verdict_steps_scale_with_the_window_and_keep_a_minimum() {
    assert_eq!(verdict_steps(15.0, 4.0, 1), 4);
    assert_eq!(verdict_steps(15.0, 20.0, 1), 1);
    assert_eq!(verdict_steps(1.0, 2.0, 1), 1);
    assert_eq!(verdict_steps(60.0, 2.0, 1), 30);
}

#[test]
fn checks_fail_on_any_failed_operation() {
    let mut checks = Checks::default();
    assert!(checks.op(true, || unreachable!(
        "a passing operation is not described"
    )));
    assert!(checks.correct());
    assert!(!checks.op(false, || "error response".to_owned()));
    checks.fail("a counted request answered wrongly".to_owned());
    assert_eq!((checks.attempted, checks.failed), (2, 2));
    assert!(!checks.correct());
    let mut total = Checks::default();
    total.op(true, String::new);
    total.absorb(checks);
    assert_eq!(
        (total.attempted, total.failed, total.failures.len()),
        (3, 2, 2)
    );
}

#[test]
fn seeded_packages_are_deterministic_and_keep_their_shape() {
    let (_, _, events) = inputs::privilege_property();
    let package = |seed| inputs::package("t", 2_000, &events, inputs::TABLE1_GENERATOR_SEED, seed);
    let (a, c) = (package(7), package(8));
    assert_eq!(a, package(7));
    assert_ne!(a.text, c.text, "another seed relabels the package");
    assert_eq!(a.stmts, c.stmts, "relabelling keeps the package's shape");
    let cfg = Cfg::build(&Program::parse(&a.text).expect("parses")).expect("builds");
    assert!(cfg.entry("main").is_ok());
}

#[test]
fn relabelling_keeps_the_cfg_size_and_the_entry() {
    let (_, _, events) = inputs::privilege_property();
    let p = inputs::package("t", 3_000, &events, inputs::TABLE1_GENERATOR_SEED, 1);
    let q = inputs::package("t", 3_000, &events, inputs::TABLE1_GENERATOR_SEED, 2);
    let cp = Cfg::build(&Program::parse(&p.text).expect("parses")).expect("builds");
    let cq = Cfg::build(&Program::parse(&q.text).expect("parses")).expect("builds");
    assert_eq!(cp.num_nodes(), cq.num_nodes());
    assert_eq!(cp.edges().len(), cq.edges().len());
    assert_eq!(cp.call_sites().len(), cq.call_sites().len());
}

#[test]
fn transaction_scripts_are_deterministic_per_seed() {
    // Live nodes 0, 5, 10, ... in functions of ten nodes each.
    let live: Vec<(usize, usize)> = (0..500).step_by(5).map(|n| (n, n / 10)).collect();
    let a = txn_script(3, &live, 9, 50);
    assert_eq!(a, txn_script(3, &live, 9, 50));
    assert_ne!(a, txn_script(4, &live, 9, 50));
    let is_live = |n: usize| n.is_multiple_of(5) && n < 500;
    for t in &a {
        assert_eq!(t.adds.len(), inputs::TXN_ADDS);
        assert_eq!(t.query, t.adds[0].1, "the query reads the first edit");
        assert_eq!(
            t.queried(),
            [t.read, t.query, t.read],
            "the re-check repeats the read"
        );
        for &(from, to, event) in &t.adds {
            assert!(is_live(from) && is_live(to) && event < 9);
            assert_eq!(from / 10, to / 10, "an add links nodes of one function");
        }
        assert!(t.queried().iter().all(|&q| is_live(q)));
    }
}
