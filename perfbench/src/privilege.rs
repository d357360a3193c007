//! The `privilege` workload: Table 1's two large packages checked
//! against the full privilege property by the bidirectional checker
//! (`pdmc` on `core`), the §5 forward solver and PDS `post*`, plus
//! in-process edit transactions on a solved privilege program.
//!
//! The per-program verdict ([`check_program`]) is shared with the
//! `session` workload, which checks its base program the same way.

use std::time::Instant;

use rasc_cfgir::{Cfg, EdgeLabel, Program};
use rasc_core::forward::ForwardSystem;
use rasc_core::{ConsId, VarId, Variance};
use rasc_pdmc::ConstraintChecker;
use rasc_pushdown::PdsChecker;

use crate::coretxn::{finish, setup_subject, CoreTxns, PrivilegeProperty, TxnProperty};
use crate::inputs::{self, ProgramText};
use crate::trace::{SpanId, Tracer};
use crate::{
    interleave, median_of, stats, timed, verdict_steps, Checks, Report, RunConfig, Step, REPEATS,
    TXN_SCRIPT, TXN_SHARE,
};

/// Set-ups before each verdict step; `setup_s` is the median of all
/// set-ups. One takes a few hundredths of a second.
const SETUPS_PER_STEP: u64 = 10;
/// Rough cost of one verdict round (both packages) on the reference
/// host.
const ROUND_SECONDS: f64 = 20.0;

/// Seconds from program text to the set of violating nodes, per engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerdictTimes {
    /// Bidirectional constraint checker.
    pub bidi: f64,
    /// §5 forward solver.
    pub forward: f64,
    /// PDS `post*`.
    pub pds: f64,
}

impl VerdictTimes {
    fn add(&mut self, other: VerdictTimes) {
        self.bidi += other.bidi;
        self.forward += other.forward;
        self.pds += other.pds;
    }
}

/// Work counts of one program's verdicts.
#[derive(Debug, Clone, Default)]
pub struct VerdictCounts {
    /// Violating nodes (PDS `post*`, which the other engines must match).
    pub violating: Vec<usize>,
    /// Worklist facts of the bidirectional solve.
    pub facts: usize,
    /// Annotation classes interned by the bidirectional solve.
    pub annotations: usize,
    /// PDS rules.
    pub rules: usize,
}

/// Parses and builds `prog`, then runs all three engines on it and
/// checks that they report the same violating nodes.
pub fn check_program(
    prog: &ProgramText,
    prop: &PrivilegeProperty,
    tr: &mut Tracer,
    round: u64,
    checks: &mut Checks,
) -> (VerdictTimes, VerdictCounts) {
    let (sigma, dfa) = (&prop.sigma, &prop.dfa);
    let v = tr.begin("bench.verdict", SpanId::ROOT, round);
    let start = Instant::now();
    let program = tr
        .time("cfgir.parse", v, round, || Program::parse(&prog.text))
        .expect("generated programs parse");
    let cfg = tr
        .time("cfgir.build", v, round, || Cfg::build(&program))
        .expect("generated programs build");
    let front = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut checker = tr
        .time("pdmc.encode", v, round, || {
            ConstraintChecker::new(&cfg, sigma, dfa, "main")
        })
        .expect("main exists");
    tr.time("core.solve", v, round, || checker.solve());
    let bidi_nodes: Vec<usize> = tr.time("core.query", v, round, || {
        checker.violations().iter().map(|n| n.index()).collect()
    });
    let bidi = front + start.elapsed().as_secs_f64();
    let solver = checker.system().stats();
    drop(checker);

    let (fwd_time, fwd_nodes) = median_of(REPEATS, |rep| {
        let g = round * REPEATS + rep;
        let (mut fsys, vars, pc) =
            tr.time("core.forward.build", v, g, || forward_encode(&cfg, prop));
        tr.time("core.forward.solve", v, g, || fsys.solve());
        tr.time("core.forward.query", v, g, || {
            let occ = fsys.constant_occurrence_states(pc);
            (0..vars.len())
                .filter(|&n| {
                    occ[vars[n].index()]
                        .iter()
                        .any(|&s| fsys.state_accepting(s))
                })
                .collect::<Vec<usize>>()
        })
    });
    let forward = front + fwd_time;

    let start = Instant::now();
    let pds = tr
        .time("pushdown.encode", v, round, || {
            PdsChecker::new(&cfg, sigma, dfa, "main")
        })
        .expect("main exists");
    let pds_nodes: Vec<usize> = tr.time("pushdown.poststar", v, round, || {
        let mut nodes: Vec<usize> = pds.run().iter().map(|x| x.node.index()).collect();
        nodes.dedup();
        nodes
    });
    let pds_time = front + start.elapsed().as_secs_f64();
    let rules = pds.num_rules();
    drop(pds);

    checks.op(bidi_nodes == pds_nodes, || {
        format!(
            "{}: bidirectional checker reports {} violating nodes, PDS post* {}",
            prog.name,
            bidi_nodes.len(),
            pds_nodes.len()
        )
    });
    checks.op(fwd_nodes == pds_nodes, || {
        format!(
            "{}: forward solver reports {} violating nodes, PDS post* {}",
            prog.name,
            fwd_nodes.len(),
            pds_nodes.len()
        )
    });
    tr.end(v);
    (
        VerdictTimes {
            bidi,
            forward,
            pds: pds_time,
        },
        VerdictCounts {
            violating: pds_nodes,
            facts: solver.facts_processed,
            annotations: solver.annotations,
            rules,
        },
    )
}

/// The §6.1 encoding on the forward solver (as the `table1` bench
/// builds it).
fn forward_encode(cfg: &Cfg, prop: &PrivilegeProperty) -> (ForwardSystem, Vec<VarId>, ConsId) {
    let mut sys = ForwardSystem::new(&prop.dfa);
    let vars: Vec<VarId> = (0..cfg.num_nodes())
        .map(|i| sys.var(&format!("S{i}")))
        .collect();
    let pc = sys.constant("pc");
    let entry = cfg.entry("main").expect("main exists").entry;
    sys.add_constant(pc, vars[entry.index()]);
    for (from, to, label) in cfg.edges() {
        let ann = match label {
            EdgeLabel::Event { name, .. } => match prop.sigma.lookup(name) {
                Some(s) => sys.word(&[s]),
                None => sys.identity(),
            },
            EdgeLabel::Plain => sys.identity(),
        };
        sys.add_edge(vars[from.index()], vars[to.index()], ann);
    }
    let eps = sys.identity();
    for site in cfg.call_sites() {
        let callee = &cfg.functions()[site.callee.index()];
        let o = sys.declare(&format!("o{}", site.id.index()), &[Variance::Covariant]);
        sys.add_source(
            o,
            &[vars[site.call_node.index()]],
            vars[callee.entry.index()],
            eps,
        )
        .expect("well-formed");
        sys.add_projection(
            o,
            0,
            vars[callee.exit.index()],
            vars[site.return_node.index()],
            eps,
        )
        .expect("well-formed");
    }
    (sys, vars, pc)
}

/// Verdict steps, one program each, summed into rounds over all
/// programs.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// Summed times per round.
    pub rounds: Vec<VerdictTimes>,
    /// The first round's counts, per program.
    pub counts: Vec<VerdictCounts>,
}

impl Verdicts {
    /// Runs verdict step `k`: program `k mod programs`, in round
    /// `k div programs`.
    pub fn step(
        &mut self,
        k: u64,
        programs: &[ProgramText],
        prop: &PrivilegeProperty,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        let n = programs.len() as u64;
        let round = k / n;
        let (t, c) = check_program(&programs[(k % n) as usize], prop, tr, round, checks);
        if self.rounds.len() as u64 <= round {
            self.rounds.push(VerdictTimes::default());
        }
        self.rounds[round as usize].add(t);
        if round == 0 {
            self.counts.push(c);
        }
    }
}

impl Verdicts {
    /// Records the verdict medians and the first round's counts.
    pub fn record(&self, report: &mut Report) {
        let (rounds, counts) = (&self.rounds, &self.counts);
        for r in rounds {
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
        let total = |f: fn(&VerdictCounts) -> usize| counts.iter().map(f).sum::<usize>() as f64;
        report
            .layer
            .insert("core.facts_processed", total(|c| c.facts));
        report.layer.insert("pushdown.rules", total(|c| c.rules));
        report
            .layer
            .insert("core.violating_nodes", total(|c| c.violating.len()));
        let most = counts.iter().map(|c| c.annotations).max().unwrap_or(0);
        report.layer.insert("core.annotations", most as f64);
        for (name, c) in ["core.violating_nodes.p0", "core.violating_nodes.p1"]
            .into_iter()
            .zip(counts)
        {
            report.layer.insert(name, c.violating.len() as f64);
        }
    }
}

/// Runs the `privilege` workload.
pub fn run(cfg: &RunConfig) -> Report {
    let origin = Instant::now();
    let mut tr = cfg.tracer(origin);
    let mut report = Report::default();
    let (sigma, dfa, events) = inputs::privilege_property();
    let prop = PrivilegeProperty { sigma, dfa };

    let packages = inputs::privilege_packages(cfg.seed);
    let subject_text = inputs::package(
        "privilege-txn",
        inputs::PRIVILEGE_TXN_STMTS,
        &events,
        inputs::TABLE1_GENERATOR_SEED,
        cfg.seed,
    );
    // Set-up: parse, build, encode and solve the transaction subject and
    // take its occurrence map. Generating the inputs is not timed. Further
    // set-ups run before each verdict step, so that `setup_s` samples the
    // whole window as the other metrics do.
    let (first, (subject_cfg, mut subject, live)) =
        timed(|| setup_subject(&subject_text.text, &prop));
    let mut setup_times = vec![first];
    let script = inputs::txn_script(cfg.seed, &live, prop.events(), TXN_SCRIPT);
    for p in &packages {
        eprintln!("privilege: {} ({} statements)", p.name, p.stmts);
    }

    let mut verdicts = Verdicts::default();
    let mut txns = CoreTxns::default();
    // One verdict step per package, so rounds come whole.
    let rounds = verdict_steps(cfg.seconds * (1.0 - TXN_SHARE), ROUND_SECONDS, 1);
    let steps = rounds * packages.len() as u64;
    let txn_seconds = cfg.seconds * TXN_SHARE;
    report.measured = interleave(steps, txn_seconds, &mut report.probe, |step| match step {
        Step::Verdict(k) => {
            for _ in 0..SETUPS_PER_STEP {
                setup_times.push(timed(|| setup_subject(&subject_text.text, &prop)).0);
            }
            verdicts.step(k, &packages, &prop, &mut tr, &mut report.checks);
        }
        Step::Txns(deadline) => txns.run_until(
            &mut subject,
            &prop,
            &script,
            deadline,
            &mut tr,
            &mut report.checks,
        ),
    });
    report.e2e.insert("setup_s", stats::median(&setup_times));
    verdicts.record(&mut report);
    let done = txns.done.len();
    finish(
        &mut report,
        txns,
        &subject_cfg,
        &prop,
        &script,
        cfg.seed,
        "privilege txn",
    );
    eprintln!(
        "privilege: {} verdict round(s), {} transactions",
        verdicts.rounds.len(),
        done
    );
    report.spans = tr.into_spans();
    report
}
