//! The `dataflow` workload: §3.3 interprocedural gen/kill dataflow with
//! six facts, solved by `ConstraintDataflow` (bidirectional, on `core`),
//! `ForwardDataflow`, and — as references — `IterativeDataflow` and one
//! PDS `post*` per fact over that fact's two-state machine; plus
//! in-process edit transactions on a small gen/kill program.

use std::time::Instant;

use rasc_automata::{Alphabet, Dfa};
use rasc_cfgir::{Cfg, NodeId, Program};
use rasc_dataflow::{ConstraintDataflow, ForwardDataflow, GenKillSpec, IterativeDataflow};
use rasc_pushdown::PdsChecker;

use crate::coretxn::{finish, setup_subject, CoreTxns, GenKillProperty, TxnProperty};
use crate::inputs::{self, ProgramText};
use crate::privilege::VerdictTimes;
use crate::trace::{SpanId, Tracer};
use crate::{
    interleave, median_of, stats, timed, verdict_steps, Checks, Report, RunConfig, Step, REPEATS,
    TXN_SCRIPT, TXN_SHARE,
};

/// Set-ups before each verdict round; `setup_s` is the median of all
/// set-ups. One takes a few hundredths of a second.
const SETUPS_PER_ROUND: u64 = 6;
/// Rough cost of one verdict round on the reference host.
const ROUND_SECONDS: f64 = 4.5;

/// Work counts of one verdict round.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    facts: usize,
    annotations: usize,
    precise: usize,
    rules: usize,
}

/// One round: every engine on `prog`, answers cross-checked.
fn round(
    prog: &ProgramText,
    spec: &GenKillSpec,
    machines: &[(Alphabet, Dfa)],
    tr: &mut Tracer,
    round: u64,
    checks: &mut Checks,
) -> (VerdictTimes, Counts) {
    let v = tr.begin("bench.verdict", SpanId::ROOT, round);
    let start = Instant::now();
    let program = tr
        .time("cfgir.parse", v, round, || Program::parse(&prog.text))
        .expect("generated programs parse");
    let cfg = tr
        .time("cfgir.build", v, round, || Cfg::build(&program))
        .expect("generated programs build");
    let front = start.elapsed().as_secs_f64();
    let nodes = cfg.num_nodes();

    let start = Instant::now();
    let mut bidi = tr
        .time("dataflow.bidi.encode", v, round, || {
            ConstraintDataflow::new(&cfg, spec, "main")
        })
        .expect("main exists");
    tr.time("dataflow.bidi.solve", v, round, || bidi.solve());
    let bidi_time = front + start.elapsed().as_secs_f64();
    let bidi_facts: Vec<u64> = (0..nodes)
        .map(|n| bidi.facts_at(NodeId::from_index(n)))
        .collect();
    let solver = bidi.system().stats();
    drop(bidi);

    let (fwd_time, fwd_facts) = median_of(REPEATS, |rep| {
        let g = round * REPEATS + rep;
        let mut fwd = tr
            .time("dataflow.forward.encode", v, g, || {
                ForwardDataflow::new(&cfg, spec, "main")
            })
            .expect("main exists");
        tr.time("dataflow.forward.solve", v, g, || fwd.solve());
        (0..nodes)
            .map(|n| fwd.facts_at(NodeId::from_index(n)))
            .collect::<Vec<u64>>()
    });
    let fwd_time = front + fwd_time;

    let (pds_time, (pds_facts, rules)) = median_of(REPEATS, |rep| {
        let g = round * REPEATS + rep;
        let mut facts = vec![0u64; nodes];
        let mut rules = 0;
        for (bit, (sigma, dfa)) in machines.iter().enumerate() {
            let pds = tr
                .time("pushdown.encode", v, g, || {
                    PdsChecker::new(&cfg, sigma, dfa, "main")
                })
                .expect("main exists");
            let held = tr.time("pushdown.poststar", v, g, || pds.run());
            for x in held {
                facts[x.node.index()] |= 1 << bit;
            }
            rules += pds.num_rules();
        }
        (facts, rules)
    });
    let pds_time = front + pds_time;

    let iter_facts: Vec<u64> = tr.time("dataflow.iterative.solve", v, round, || {
        let mut it = IterativeDataflow::new(&cfg, spec, "main").expect("main exists");
        it.solve(0);
        (0..nodes)
            .map(|n| it.facts_at(NodeId::from_index(n)))
            .collect()
    });

    let differs = |a: &[u64], b: &[u64]| a.iter().zip(b).filter(|(x, y)| x != y).count();
    let unsound = |a: &[u64]| {
        a.iter()
            .zip(&iter_facts)
            .filter(|(x, y)| **x & !**y != 0)
            .count()
    };
    let (bf, bp, bi, fi) = (
        differs(&bidi_facts, &fwd_facts),
        differs(&bidi_facts, &pds_facts),
        unsound(&bidi_facts),
        unsound(&fwd_facts),
    );
    checks.op(bp == 0 && bi == 0, || {
        format!("{}: bidirectional facts differ from PDS post* at {bp} nodes, exceed the iterative facts at {bi}", prog.name)
    });
    checks.op(bf == 0 && fi == 0, || {
        format!("{}: forward facts differ from bidirectional at {bf} nodes, exceed the iterative facts at {fi}", prog.name)
    });
    tr.end(v);
    (
        VerdictTimes {
            bidi: bidi_time,
            forward: fwd_time,
            pds: pds_time,
        },
        Counts {
            facts: solver.facts_processed,
            annotations: solver.annotations,
            precise: differs(&bidi_facts, &iter_facts),
            rules,
        },
    )
}

/// One two-state machine per fact: accepting while the fact holds.
fn fact_machines(events: &[(String, u64, u64)]) -> Vec<(Alphabet, Dfa)> {
    (0..inputs::DATAFLOW_FACTS)
        .map(|i| {
            let mut sigma = Alphabet::new();
            let def = sigma.intern(&events[2 * i].0);
            let kill = sigma.intern(&events[2 * i + 1].0);
            let dfa = Dfa::one_bit(&sigma, def, kill);
            (sigma, dfa)
        })
        .collect()
}

/// Runs the `dataflow` workload.
pub fn run(cfg: &RunConfig) -> Report {
    let origin = Instant::now();
    let mut tr = cfg.tracer(origin);
    let mut report = Report::default();
    let (spec, events) = inputs::dataflow_spec();
    let names: Vec<String> = events.iter().map(|(n, _, _)| n.clone()).collect();
    let machines = fact_machines(&events);
    let prop = GenKillProperty {
        events: events.clone(),
        facts: inputs::DATAFLOW_FACTS as u32,
    };

    let prog = inputs::package(
        "dataflow",
        inputs::DATAFLOW_STMTS,
        &names,
        inputs::DATAFLOW_GENERATOR_SEED,
        cfg.seed,
    );
    let small = inputs::package(
        "dataflow-txn",
        inputs::DATAFLOW_TXN_STMTS,
        &names,
        inputs::DATAFLOW_GENERATOR_SEED,
        cfg.seed,
    );
    // Set-up: parse, build, encode and solve the transaction subject and
    // take its occurrence map. Generating the inputs is not timed. Further
    // set-ups run before each verdict round, so that `setup_s` samples the
    // whole window as the other metrics do.
    let (first, (subject_cfg, mut subject, live)) = timed(|| setup_subject(&small.text, &prop));
    let mut setup_times = vec![first];
    let script = inputs::txn_script(cfg.seed, &live, prop.events(), TXN_SCRIPT);
    eprintln!("dataflow: {} statements", prog.stmts);

    let mut rounds = Vec::new();
    let mut counts = Counts::default();
    let mut txns = CoreTxns::default();
    let steps = verdict_steps(cfg.seconds * (1.0 - TXN_SHARE), ROUND_SECONDS, 1);
    report.measured =
        interleave(
            steps,
            cfg.seconds * TXN_SHARE,
            &mut report.probe,
            |step| match step {
                Step::Verdict(r) => {
                    for _ in 0..SETUPS_PER_ROUND {
                        setup_times.push(timed(|| setup_subject(&small.text, &prop)).0);
                    }
                    let (t, c) = round(&prog, &spec, &machines, &mut tr, r, &mut report.checks);
                    counts = c;
                    rounds.push(t);
                }
                Step::Txns(deadline) => txns.run_until(
                    &mut subject,
                    &prop,
                    &script,
                    deadline,
                    &mut tr,
                    &mut report.checks,
                ),
            },
        );
    report.e2e.insert("setup_s", stats::median(&setup_times));
    for r in &rounds {
        eprintln!(
            "round bidi {:.4} forward {:.4} pds {:.4}",
            r.bidi, r.forward, r.pds
        );
    }
    let med =
        |f: fn(&VerdictTimes) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.e2e.insert("verdict_s.bidi", med(|t| t.bidi));
    report.e2e.insert("verdict_s.forward", med(|t| t.forward));
    report.e2e.insert("verdict_s.pds", med(|t| t.pds));
    let layer = &mut report.layer;
    layer.insert("core.facts_processed", counts.facts as f64);
    layer.insert("core.annotations", counts.annotations as f64);
    layer.insert("dataflow.precise_nodes", counts.precise as f64);
    layer.insert("pushdown.rules", counts.rules as f64);
    eprintln!(
        "dataflow: {} verdict round(s), {} transactions",
        rounds.len(),
        txns.done.len()
    );
    finish(
        &mut report,
        txns,
        &subject_cfg,
        &prop,
        &script,
        cfg.seed,
        "dataflow txn",
    );
    report.spans = tr.into_spans();
    report
}
