//! Edit transactions run in-process on a solved `rasc_core::System`:
//! `push_epoch`, an occurrence query for `pc`, annotated adds (each
//! followed by `solve`), a query of the edited node, a re-check of the
//! first query, `pop_epoch`. No `inc` session, no
//! query cache, no server — the core's incremental path alone.
//!
//! Also the from-scratch reference the transaction checks use: a fresh
//! system with the base encoding plus the transaction's edges, solved
//! once, with no fork, epochs or cache.

use std::time::Instant;

use rasc_automata::{Alphabet, Dfa};
use rasc_cfgir::{Cfg, NodeId, Program};
use rasc_core::algebra::{Algebra, AnnId, GenKillAlgebra, MonoidAlgebra};
use rasc_core::{ConsId, SetExpr, System, VarId};

use crate::encode::encode_system;
use crate::inputs::Txn;
use crate::trace::{SpanId, Tracer};
use crate::{stats, Checks, Report};

/// How a property's annotations and answers look to a transaction.
pub trait TxnProperty {
    /// The annotation algebra.
    type A: Algebra;
    /// A fresh algebra.
    fn algebra(&self) -> Self::A;
    /// The annotation of a program event, `None` if unobserved.
    fn event_ann(&self, alg: &mut Self::A, name: &str) -> Option<AnnId>;
    /// Number of event kinds a transaction's adds draw from.
    fn events(&self) -> usize;
    /// The annotation of the transaction's `i`-th event kind.
    fn txn_ann(&self, alg: &mut Self::A, i: usize) -> AnnId;
    /// The answer to a query, from the annotations `pc` occurs with.
    fn answer(&self, alg: &Self::A, anns: &[AnnId]) -> u64;
}

/// The privilege property: a query answers 1 if `pc` reaches the node
/// in an error state.
#[derive(Debug, Clone)]
pub struct PrivilegeProperty {
    /// Event names.
    pub sigma: Alphabet,
    /// The property machine.
    pub dfa: Dfa,
}

impl TxnProperty for PrivilegeProperty {
    type A = MonoidAlgebra;
    fn algebra(&self) -> MonoidAlgebra {
        MonoidAlgebra::new(&self.dfa)
    }
    fn event_ann(&self, alg: &mut MonoidAlgebra, name: &str) -> Option<AnnId> {
        self.sigma.lookup(name).map(|s| alg.symbol(s))
    }
    fn events(&self) -> usize {
        self.sigma.len()
    }
    fn txn_ann(&self, alg: &mut MonoidAlgebra, i: usize) -> AnnId {
        let sym = self.sigma.symbols().nth(i).expect("event index in range");
        alg.symbol(sym)
    }
    fn answer(&self, alg: &MonoidAlgebra, anns: &[AnnId]) -> u64 {
        u64::from(anns.iter().any(|&a| alg.is_accepting(a)))
    }
}

/// A gen/kill property: a query answers the bitmask of facts that may
/// hold at the node.
#[derive(Debug, Clone)]
pub struct GenKillProperty {
    /// Event names with their `(gen, kill)` masks.
    pub events: Vec<(String, u64, u64)>,
    /// Number of facts.
    pub facts: u32,
}

impl TxnProperty for GenKillProperty {
    type A = GenKillAlgebra;
    fn algebra(&self) -> GenKillAlgebra {
        GenKillAlgebra::new(self.facts)
    }
    fn event_ann(&self, alg: &mut GenKillAlgebra, name: &str) -> Option<AnnId> {
        let &(_, g, k) = self.events.iter().find(|(n, _, _)| n == name)?;
        Some(alg.transfer(g, k))
    }
    fn events(&self) -> usize {
        self.events.len()
    }
    fn txn_ann(&self, alg: &mut GenKillAlgebra, i: usize) -> AnnId {
        let (_, g, k) = self.events[i];
        alg.transfer(g, k)
    }
    fn answer(&self, alg: &GenKillAlgebra, anns: &[AnnId]) -> u64 {
        anns.iter().fold(0, |m, &a| m | alg.apply(a, 0))
    }
}

/// A solved system over a program's encoding.
#[derive(Debug)]
pub struct CoreSubject<A: Algebra> {
    /// The solved system.
    pub sys: System<A>,
    /// Node variables, by CFG node index.
    pub vars: Vec<VarId>,
    /// The `pc` constant.
    pub pc: ConsId,
}

impl<A: Algebra> CoreSubject<A> {
    /// Encodes `cfg` for `prop`, adds `extra` edges, and solves.
    pub fn build<P: TxnProperty<A = A>>(
        cfg: &Cfg,
        prop: &P,
        extra: &[(usize, usize, usize)],
    ) -> CoreSubject<A> {
        let mut sys = System::new(prop.algebra());
        let (vars, pc) = encode_system(cfg, &mut sys, |alg, name| prop.event_ann(alg, name));
        for &(from, to, ev) in extra {
            let ann = prop.txn_ann(sys.algebra_mut(), ev);
            sys.add_ann(SetExpr::var(vars[from]), SetExpr::var(vars[to]), ann)
                .expect("well-formed");
        }
        sys.solve();
        CoreSubject { sys, vars, pc }
    }

    /// The nodes `pc` reaches at all, with their functions in `cfg`: the
    /// live code transactions edit and query.
    pub fn live(&mut self, cfg: &Cfg) -> Vec<(usize, usize)> {
        let occ = self.sys.constant_occurrence_map(self.pc);
        (0..self.vars.len())
            .filter(|&n| !occ[self.vars[n].index()].is_empty())
            .map(|n| (n, cfg.func_of(NodeId::from_index(n)).index()))
            .collect()
    }

    /// The answer for `node` (no cache: one occurrence walk).
    pub fn answer<P: TxnProperty<A = A>>(&mut self, prop: &P, node: usize) -> u64 {
        let anns = self.sys.occurrence_annotations(self.vars[node], self.pc);
        prop.answer(self.sys.algebra(), &anns)
    }
}

/// One set-up of a transaction subject: parses and builds `text`,
/// encodes and solves it for `prop`, and takes the occurrence map for the
/// live nodes (see [`CoreSubject::live`]).
pub fn setup_subject<P: TxnProperty>(
    text: &str,
    prop: &P,
) -> (Cfg, CoreSubject<P::A>, Vec<(usize, usize)>) {
    let program = Program::parse(text).expect("generated programs parse");
    let cfg = Cfg::build(&program).expect("generated programs build");
    let mut subject = CoreSubject::build(&cfg, prop, &[]);
    let live = subject.live(&cfg);
    (cfg, subject, live)
}

/// One finished transaction.
#[derive(Debug, Clone)]
pub struct TxnDone {
    /// Index into the script.
    pub index: usize,
    /// Latency in milliseconds.
    pub ms: f64,
    /// One answer per query.
    pub answers: Vec<u64>,
}

/// Transactions run so far on one subject, resumable across batches.
#[derive(Debug, Default)]
pub struct CoreTxns {
    /// Finished transactions.
    pub done: Vec<TxnDone>,
    /// Solver facts processed per add (traced runs only).
    pub facts_per_add: Vec<f64>,
    /// Wall time spent in transaction batches.
    pub wall_s: f64,
}

impl CoreTxns {
    /// Runs the next transactions of `script` on `subject` until
    /// `deadline` (at least one per batch). Each transaction is one
    /// operation; it fails if an add is rejected or the pop finds no
    /// epoch.
    pub fn run_until<P: TxnProperty>(
        &mut self,
        subject: &mut CoreSubject<P::A>,
        prop: &P,
        script: &[Txn],
        deadline: Instant,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        let batch = Instant::now();
        let first = self.done.last().map_or(0, |d| d.index + 1);
        for (i, txn) in script.iter().enumerate().skip(first) {
            if i > first && Instant::now() >= deadline {
                break;
            }
            let g = i as u64;
            let start = Instant::now();
            let span = tr.begin("bench.txn", SpanId::ROOT, g);
            let sys = &mut subject.sys;
            let pc = subject.pc;
            tr.time("core.txn.push", span, g, || sys.push_epoch());
            let mut answers = Vec::new();
            let mut query = |sys: &mut System<P::A>, tr: &mut Tracer, node: usize| {
                let var = subject.vars[node];
                let anns = tr.time("core.txn.query", span, g, || {
                    sys.occurrence_annotations(var, pc)
                });
                answers.push(prop.answer(sys.algebra(), &anns));
            };
            query(sys, tr, txn.read);
            let mut added = true;
            for &(from, to, ev) in &txn.adds {
                let ann = prop.txn_ann(sys.algebra_mut(), ev);
                let before = tr.enabled().then(|| sys.stats().facts_processed);
                let (lhs, rhs) = (
                    SetExpr::var(subject.vars[from]),
                    SetExpr::var(subject.vars[to]),
                );
                added &= tr
                    .time("core.txn.add", span, g, || {
                        let r = sys.add_ann(lhs, rhs, ann);
                        sys.solve();
                        r
                    })
                    .is_ok();
                if let Some(before) = before {
                    self.facts_per_add
                        .push((sys.stats().facts_processed - before) as f64);
                }
            }
            query(sys, tr, txn.query);
            query(sys, tr, txn.read);
            let popped = tr.time("core.txn.pop", span, g, || sys.pop_epoch());
            tr.end(span);
            checks.op(added && popped, || {
                format!("transaction {i}: added {added}, popped {popped}")
            });
            self.done.push(TxnDone {
                index: i,
                ms: start.elapsed().as_secs_f64() * 1e3,
                answers,
            });
        }
        self.wall_s += batch.elapsed().as_secs_f64();
    }
}

/// Checks the answers of `picks` (indices into `done`): the read against
/// the un-edited base, the query and the re-check against a from-scratch
/// solve of the base plus the transaction's edges. A transaction with a
/// wrong answer counts as failed.
pub fn check_against_scratch<P: TxnProperty>(
    cfg: &Cfg,
    prop: &P,
    script: &[Txn],
    done: &[TxnDone],
    picks: &[usize],
    label: &str,
    checks: &mut Checks,
) {
    let mut base = CoreSubject::build(cfg, prop, &[]);
    for &p in picks {
        let Some(d) = done.get(p) else { continue };
        let txn = &script[d.index];
        let mut edited = CoreSubject::build(cfg, prop, &txn.adds);
        let want = vec![
            base.answer(prop, txn.read),
            edited.answer(prop, txn.query),
            edited.answer(prop, txn.read),
        ];
        if d.answers != want {
            checks.fail(format!(
                "{label}: transaction {} queried {:?} and got {:?}, a from-scratch solve says {want:?}",
                d.index,
                txn.queried(),
                d.answers
            ));
        }
    }
}

/// Records the transaction metrics of `txns` in `report` and checks
/// [`CHECKED_TXNS`] seeded transactions against from-scratch solves.
pub fn finish<P: TxnProperty>(
    report: &mut Report,
    txns: CoreTxns,
    cfg: &Cfg,
    prop: &P,
    script: &[Txn],
    seed: u64,
    label: &str,
) {
    let latencies: Vec<f64> = txns.done.iter().map(|d| d.ms).collect();
    report.record_txns(&latencies, txns.wall_s);
    report
        .layer
        .insert("core.txn.facts_per_add", stats::median(&txns.facts_per_add));
    let picks = sample(seed ^ 0x7e57, txns.done.len(), CHECKED_TXNS);
    check_against_scratch(
        cfg,
        prop,
        script,
        &txns.done,
        &picks,
        label,
        &mut report.checks,
    );
}

/// Transactions per client checked against a from-scratch solve.
pub const CHECKED_TXNS: usize = 2;

/// `k` seeded picks from `0..n` (with repetition when `n` is small).
pub fn sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut rng = rasc_devtools::Rng::new(seed);
    (0..k).map(|_| rng.gen_range(0..n)).collect()
}
