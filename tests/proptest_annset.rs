//! Property test: the indexed `AnnSet`/entry-log storage inside the
//! solver is pure representation — solved forms must be *identical* to
//! those of a naive reference solver (chaotic iteration over flat
//! `BTreeSet`s of facts, no indexes, no cycle elimination), on random
//! constraint systems, and must stay identical across
//! `push_epoch`/`pop_epoch` rollback.
//!
//! On the same random systems, the class-valued occurrence map must be
//! the exact image of the function-valued one under every algebra, and
//! the per-variable occurrence query must agree with an independent
//! top-down descent — before, inside and after a rollback epoch.

use std::collections::{BTreeSet, VecDeque};

use rasc::automata::{Alphabet, Dfa, PropertySpec, SymbolId};
use rasc::constraints::algebra::{Algebra, AnnId, GenKillAlgebra, MonoidAlgebra, SubstAlgebra};
use rasc::constraints::{ConsId, SetExpr, System, VarId};
use rasc_devtools::{forall, prop_assert_eq, Config, Rng};

const N_VARS: usize = 8;
const PROBE: usize = 0;
const O: usize = 1;

/// Same constraint shapes as `proptest_config_equivalence`: variable
/// edges (possibly cyclic), probe constants, `o`-wraps, projections, and
/// constructor sinks.
#[derive(Debug, Clone)]
enum RandCon {
    Edge(usize, usize, Option<u8>),
    Const(usize, Option<u8>),
    Wrap(usize, usize), // o(v1) ⊆ v2
    Proj(usize, usize), // o⁻¹(v1) ⊆ v2
    Sink(usize, usize), // v1 ⊆ o(v2)
}

fn arb_sym(rng: &mut Rng) -> Option<u8> {
    if rng.gen_bool(0.5) {
        Some(rng.gen_range(0..2) as u8)
    } else {
        None
    }
}

fn arb_con(rng: &mut Rng) -> RandCon {
    let v = |rng: &mut Rng| rng.gen_range(0..N_VARS);
    match rng.gen_range(0..12) {
        0..=4 => {
            let (a, b) = (v(rng), v(rng));
            let s = arb_sym(rng);
            RandCon::Edge(a, b, s)
        }
        5 | 6 => {
            let a = v(rng);
            let s = arb_sym(rng);
            RandCon::Const(a, s)
        }
        7 | 8 => RandCon::Wrap(v(rng), v(rng)),
        9 | 10 => RandCon::Proj(v(rng), v(rng)),
        _ => RandCon::Sink(v(rng), v(rng)),
    }
}

fn arb_cons(rng: &mut Rng, max: usize) -> Vec<RandCon> {
    (0..rng.gen_range(1..max)).map(|_| arb_con(rng)).collect()
}

/// Constructor sources/sinks in the reference: `(head, args)` where the
/// head is `PROBE` or `O`.
type RSrc = (usize, Vec<usize>);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RSnk {
    Cons(usize, Vec<usize>),
    Proj(usize, usize, usize),
}

/// The naive solver: flat fact sets, no per-endpoint indexes, no
/// constructor buckets, no union-find — just the §3.1 resolution rules
/// run by chaotic iteration until nothing new appears. Deliberately dumb:
/// any representation trick in the real solver that changes semantics
/// shows up as a divergence from this.
struct RefSolver {
    alg: MonoidAlgebra,
    edges: BTreeSet<(usize, usize, AnnId)>,
    lbs: BTreeSet<(usize, RSrc, AnnId)>,
    ubs: BTreeSet<(usize, RSnk, AnnId)>,
    clashed: bool,
}

impl RefSolver {
    fn new(machine: &Dfa) -> RefSolver {
        RefSolver {
            alg: MonoidAlgebra::new(machine),
            edges: BTreeSet::new(),
            lbs: BTreeSet::new(),
            ubs: BTreeSet::new(),
            clashed: false,
        }
    }

    fn add_edge(&mut self, x: usize, y: usize, f: AnnId) -> bool {
        if (x == y && f == self.alg.identity()) || !self.alg.is_useful(f) {
            return false;
        }
        self.edges.insert((x, y, f))
    }

    fn add_lb(&mut self, x: usize, src: RSrc, g: AnnId) -> bool {
        if !self.alg.is_useful(g) {
            return false;
        }
        self.lbs.insert((x, src, g))
    }

    fn add_ub(&mut self, x: usize, snk: RSnk, h: AnnId) -> bool {
        if !self.alg.is_useful(h) {
            return false;
        }
        self.ubs.insert((x, snk, h))
    }

    fn add(&mut self, syms: &[SymbolId], con: &RandCon) {
        let ann = |alg: &mut MonoidAlgebra, s: Option<u8>| match s {
            Some(i) => alg.word(&[syms[i as usize]]),
            None => alg.identity(),
        };
        let eps = self.alg.identity();
        match *con {
            RandCon::Edge(a, b, s) => {
                let f = ann(&mut self.alg, s);
                self.add_edge(a, b, f);
            }
            RandCon::Const(v, s) => {
                let f = ann(&mut self.alg, s);
                self.add_lb(v, (PROBE, vec![]), f);
            }
            RandCon::Wrap(a, b) => {
                self.add_lb(b, (O, vec![a]), eps);
            }
            RandCon::Proj(a, b) => {
                self.add_ub(a, RSnk::Proj(O, 0, b), eps);
            }
            RandCon::Sink(a, b) => {
                self.add_ub(a, RSnk::Cons(O, vec![b]), eps);
            }
        }
    }

    fn solve(&mut self) {
        loop {
            // Chaotic iteration over full snapshots of the fact sets —
            // deliberately the dumbest correct strategy.
            let edges: Vec<(usize, usize, AnnId)> = self.edges.iter().cloned().collect();
            let lbs: Vec<(usize, RSrc, AnnId)> = self.lbs.iter().cloned().collect();
            let ubs: Vec<(usize, RSnk, AnnId)> = self.ubs.iter().cloned().collect();
            let mut changed = false;
            for &(x, y, f) in &edges {
                // Trans-Lb: c(…) ⊆^g X, X ⊆^f Y ⇒ c(…) ⊆^{f∘g} Y.
                for (vx, src, g) in &lbs {
                    if *vx == x {
                        let h = self.alg.compose(f, *g);
                        changed |= self.add_lb(y, src.clone(), h);
                    }
                }
                // Trans-Ub: X ⊆^f Y, Y ⊆^h snk ⇒ X ⊆^{h∘f} snk.
                for (vy, snk, h) in &ubs {
                    if *vy == y {
                        let c = self.alg.compose(*h, f);
                        changed |= self.add_ub(x, snk.clone(), c);
                    }
                }
            }
            // Meet: c(…) ⊆^g X, X ⊆^h snk ⇒ resolve under h∘g.
            for (vx, src, g) in &lbs {
                for (vy, snk, h) in &ubs {
                    if vx != vy {
                        continue;
                    }
                    let f = self.alg.compose(*h, *g);
                    if !self.alg.is_useful(f) {
                        continue;
                    }
                    match snk {
                        RSnk::Cons(head, args) => {
                            if src.0 != *head {
                                self.clashed = true;
                            } else {
                                for (i, &sa) in src.1.iter().enumerate() {
                                    // `o` is covariant in every position.
                                    changed |= self.add_edge(sa, args[i], f);
                                }
                            }
                        }
                        RSnk::Proj(head, index, target) => {
                            if src.0 == *head {
                                changed |= self.add_edge(src.1[*index], *target, f);
                            }
                        }
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Sorted, described annotations of `head`-headed lower bounds of `v`
    /// — the reference mirror of `System::lower_bound_annotations`.
    fn lower_bound_annotations(&self, v: usize, head: usize) -> Vec<String> {
        let mut out: Vec<String> = self
            .lbs
            .iter()
            .filter(|(vx, src, _)| *vx == v && src.0 == head)
            .map(|(_, _, a)| self.alg.describe(*a))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Per-variable observable state: probe bounds, `o` bounds — plus global
/// consistency. Rendered via `describe` so annotation ids from different
/// algebra instances compare.
type Signature = (Vec<(Vec<String>, Vec<String>)>, bool);

fn sys_signature(
    sys: &System<MonoidAlgebra>,
    vars: &[VarId],
    probe: rasc::constraints::ConsId,
    o: rasc::constraints::ConsId,
) -> Signature {
    let per_var = vars
        .iter()
        .map(|&v| {
            let described = |anns: Vec<AnnId>| {
                let mut s: Vec<String> = anns
                    .into_iter()
                    .map(|a| sys.algebra().describe(a))
                    .collect();
                s.sort();
                s.dedup();
                s
            };
            (
                described(sys.lower_bound_annotations(v, probe)),
                described(sys.lower_bound_annotations(v, o)),
            )
        })
        .collect();
    (per_var, sys.is_consistent())
}

fn ref_signature(machine: &Dfa, syms: &[SymbolId], cons: &[RandCon]) -> Signature {
    let mut r = RefSolver::new(machine);
    for c in cons {
        r.add(syms, c);
    }
    r.solve();
    let per_var = (0..N_VARS)
        .map(|v| {
            (
                r.lower_bound_annotations(v, PROBE),
                r.lower_bound_annotations(v, O),
            )
        })
        .collect();
    (per_var, !r.clashed)
}

fn machine() -> (Alphabet, Dfa) {
    let sigma = Alphabet::from_names(["a", "b"]);
    let re = rasc::automata::Regex::parse("b* a (b | a b* a)* b+", &sigma).unwrap();
    let dfa = re.compile(&sigma);
    (sigma, dfa)
}

fn apply(
    sys: &mut System<MonoidAlgebra>,
    vars: &[VarId],
    probe: rasc::constraints::ConsId,
    o: rasc::constraints::ConsId,
    syms: &[SymbolId],
    con: &RandCon,
) {
    let anns = [0, 1].map(|i| sys.algebra_mut().word(&[syms[i]]));
    apply_with(sys, vars, probe, o, anns, con);
}

/// Adds `con` to a system over any algebra; symbol `i` is annotation
/// `anns[i]`.
fn apply_with<A: Algebra>(
    sys: &mut System<A>,
    vars: &[VarId],
    probe: rasc::constraints::ConsId,
    o: rasc::constraints::ConsId,
    anns: [AnnId; 2],
    con: &RandCon,
) {
    let ann = |sys: &System<A>, s: Option<u8>| match s {
        Some(i) => anns[i as usize],
        None => sys.algebra().identity(),
    };
    match *con {
        RandCon::Edge(a, b, s) => {
            let ann = ann(sys, s);
            sys.add_ann(SetExpr::var(vars[a]), SetExpr::var(vars[b]), ann)
                .unwrap();
        }
        RandCon::Const(v, s) => {
            let ann = ann(sys, s);
            sys.add_ann(SetExpr::cons(probe, []), SetExpr::var(vars[v]), ann)
                .unwrap();
        }
        RandCon::Wrap(a, b) => {
            sys.add(SetExpr::cons_vars(o, [vars[a]]), SetExpr::var(vars[b]))
                .unwrap();
        }
        RandCon::Proj(a, b) => {
            sys.add(SetExpr::proj(o, 0, vars[a]), SetExpr::var(vars[b]))
                .unwrap();
        }
        RandCon::Sink(a, b) => {
            sys.add(SetExpr::var(vars[a]), SetExpr::cons_vars(o, [vars[b]]))
                .unwrap();
        }
    }
}

#[test]
fn indexed_storage_matches_naive_reference_across_rollback() {
    forall(
        "indexed_storage_matches_naive_reference_across_rollback",
        Config::cases(96),
        |rng| (arb_cons(rng, 18), arb_cons(rng, 12)),
        |(base, extra)| {
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();

            let mut sys = System::new(MonoidAlgebra::new(&dfa));
            let vars: Vec<VarId> = (0..N_VARS).map(|i| sys.var(&format!("v{i}"))).collect();
            let probe = sys.constructor("probe", &[]);
            let o = sys.constructor("o", &[rasc::constraints::Variance::Covariant]);

            for c in base {
                apply(&mut sys, &vars, probe, o, &syms, c);
            }
            sys.solve();
            let base_sig = sys_signature(&sys, &vars, probe, o);
            prop_assert_eq!(
                &base_sig,
                &ref_signature(&dfa, &syms, base),
                "indexed solver diverged from naive reference on the base system"
            );

            // Extend inside an epoch: still must match the reference on
            // the concatenated constraint list.
            sys.push_epoch();
            for c in extra {
                apply(&mut sys, &vars, probe, o, &syms, c);
            }
            sys.solve();
            let all: Vec<RandCon> = base.iter().cloned().chain(extra.iter().cloned()).collect();
            prop_assert_eq!(
                &sys_signature(&sys, &vars, probe, o),
                &ref_signature(&dfa, &syms, &all),
                "indexed solver diverged from naive reference inside the epoch"
            );

            // Rollback must restore exactly the base solved form.
            sys.pop_epoch();
            prop_assert_eq!(
                &sys_signature(&sys, &vars, probe, o),
                &base_sig,
                "rollback did not restore the base solved form"
            );

            // And the rolled-back system must stay fully usable: re-adding
            // the same increment re-derives the same fixpoint.
            for c in extra {
                apply(&mut sys, &vars, probe, o, &syms, c);
            }
            sys.solve();
            prop_assert_eq!(
                &sys_signature(&sys, &vars, probe, o),
                &ref_signature(&dfa, &syms, &all),
                "re-adding the increment after rollback diverged"
            );
            Ok(())
        },
    );
}

/// The reference for `System::occurrence_annotations`: a top-down
/// breadth-first descent over `(variable, composed outer annotation)`
/// pairs, written on the public `System::lower_bounds` — independent of
/// the bottom-up fixpoint the solver answers the query with.
fn descent_oracle<A: Algebra>(sys: &mut System<A>, x: VarId, target: ConsId) -> Vec<AnnId> {
    let id = sys.algebra().identity();
    let mut found: BTreeSet<AnnId> = BTreeSet::new();
    let mut seen: BTreeSet<(VarId, AnnId)> = BTreeSet::from([(x, id)]);
    let mut queue: VecDeque<(VarId, AnnId)> = VecDeque::from([(x, id)]);
    while let Some((v, outer)) = queue.pop_front() {
        let entries: Vec<(ConsId, Vec<VarId>, AnnId)> = sys
            .lower_bounds(v)
            .map(|(cons, args, f)| (cons, args.to_vec(), f))
            .collect();
        for (cons, args, f) in entries {
            let total = sys.algebra_mut().compose(outer, f);
            if cons == target {
                found.insert(total);
            }
            for arg in args {
                if seen.insert((arg, total)) {
                    queue.push_back((arg, total));
                }
            }
        }
    }
    found.into_iter().collect()
}

/// Checks the occurrence queries of a solved system: per variable id
/// (collapsed ids included), the class set of the class-valued map is
/// exactly the image of the function-valued map's annotation set under
/// `f ↦ f(s₀)`, the two agree on whether the probe occurs accepted, and
/// the per-variable query returns the function-valued map's set, which
/// equals [`descent_oracle`]'s.
fn check_occurrence_queries<A: Algebra>(
    sys: &mut System<A>,
    probe: ConsId,
    stage: &str,
) -> Result<(), String> {
    let fns = sys.constant_occurrence_map(probe);
    let classes = sys.constant_occurrence_classes(probe);
    prop_assert_eq!(fns.len(), sys.num_vars(), "{stage}: map length");
    prop_assert_eq!(fns.len(), classes.len(), "{stage}: map lengths");
    let start = sys.algebra().start_class();
    for (x, (fs, cs)) in fns.iter().zip(&classes).enumerate() {
        let mut image: Vec<_> = fs
            .iter()
            .map(|&f| sys.algebra_mut().apply_class(f, start))
            .collect();
        image.sort();
        image.dedup();
        prop_assert_eq!(cs, &image, "{stage}: class set of variable {x}");
        let alg = sys.algebra();
        prop_assert_eq!(
            fs.iter().any(|&f| alg.is_accepting(f)),
            cs.iter().any(|&c| alg.class_accepting(c)),
            "{stage}: accept test of variable {x}"
        );
        let v = VarId::from_index(x);
        let want = descent_oracle(sys, v, probe);
        prop_assert_eq!(fs, &want, "{stage}: map entry of variable {x}");
        prop_assert_eq!(
            sys.occurrence_annotations(v, probe),
            want,
            "{stage}: occurrence query of variable {x}"
        );
    }
    Ok(())
}

/// Solves `base` over `alg` and checks its occurrence queries, then again
/// inside an epoch after adding `extra`, and once more after rolling the
/// epoch back.
fn check_classes_match_functions<A: Algebra>(
    alg: A,
    make_anns: impl FnOnce(&mut A) -> [AnnId; 2],
    base: &[RandCon],
    extra: &[RandCon],
) -> Result<(), String> {
    let mut sys = System::new(alg);
    let anns = make_anns(sys.algebra_mut());
    let vars: Vec<VarId> = (0..N_VARS).map(|i| sys.var(&format!("v{i}"))).collect();
    let probe = sys.constructor("probe", &[]);
    let o = sys.constructor("o", &[rasc::constraints::Variance::Covariant]);
    for c in base {
        apply_with(&mut sys, &vars, probe, o, anns, c);
    }
    sys.solve();
    check_occurrence_queries(&mut sys, probe, "base")?;
    sys.push_epoch();
    for c in extra {
        apply_with(&mut sys, &vars, probe, o, anns, c);
    }
    sys.solve();
    check_occurrence_queries(&mut sys, probe, "inside the epoch")?;
    sys.pop_epoch();
    check_occurrence_queries(&mut sys, probe, "after rollback")
}

#[test]
fn occurrence_classes_are_the_image_of_occurrence_functions() {
    forall(
        "occurrence_classes_are_the_image_of_occurrence_functions",
        Config::cases(96),
        |rng| (arb_cons(rng, 24), arb_cons(rng, 12)),
        |(base, extra)| {
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();
            check_classes_match_functions(
                MonoidAlgebra::new(&dfa),
                |alg| [0, 1].map(|i| alg.word(&[syms[i]])),
                base,
                extra,
            )?;
            check_classes_match_functions(
                GenKillAlgebra::new(2),
                |alg| [alg.transfer(0b01, 0b10), alg.transfer(0b10, 0b01)],
                base,
                extra,
            )?;
            let spec = PropertySpec::parse(
                "start state Closed : | open(x) -> Opened;\n\
                 accept state Opened : | close(x) -> Closed;",
            )
            .unwrap();
            let (sigma, dfa) = spec.compile();
            let (open, close) = (
                sigma.lookup("open").unwrap(),
                sigma.lookup("close").unwrap(),
            );
            check_classes_match_functions(
                SubstAlgebra::new(&dfa),
                |alg| {
                    let x = alg.param("x");
                    let fd = alg.label("fd");
                    [alg.instantiate(open, &[(x, fd)]), alg.plain(close)]
                },
                base,
                extra,
            )
        },
    );
}
