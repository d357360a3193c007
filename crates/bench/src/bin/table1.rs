//! Regenerates the paper's **Table 1**: the process-privilege experiment.
//!
//! Paper setup: the full privilege property (11 states, 9 symbols) checked
//! on VixieCron (4k LoC), At (6k), Sendmail (222k), Apache (229k), with
//! BANSHEE (annotated constraints) vs MOPS (direct pushdown model
//! checker). Here: synthetic MiniImp packages at the same statement
//! counts, the reconstructed privilege property, and three engines —
//! the bidirectional constraint solver (BANSHEE's strategy), the forward
//! constraint solver (§5), and the direct PDS `post*` checker (the MOPS
//! stand-in).
//!
//! On the two large packages it also guards the per-node query: the
//! median `ConstraintChecker::pc_annotations` time over 32 seeded nodes
//! that `pc` reaches must stay below one whole-program `violations()`
//! scan of the same checker.
//!
//! Usage: `table1 [--quick]` (`--quick` divides sizes by 10).

use std::time::Duration;

use rasc_bench::workload::{generate, WorkloadConfig};
use rasc_bench::{secs, timed};
use rasc_cfgir::{Cfg, EdgeLabel, NodeId};
use rasc_core::forward::ForwardSystem;
use rasc_core::Variance;
use rasc_devtools::Rng;
use rasc_pdmc::{properties, ConstraintChecker};
use rasc_pushdown::PdsChecker;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 10 } else { 1 };
    let (sigma, property) = properties::full_privilege_property();
    let event_names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();

    // (name, statements, programs, run the per-node query guard)
    let packages = [
        ("VixieCron-like", 4_000usize, 2usize, false),
        ("At-like", 6_000, 2, false),
        ("Sendmail-like", 222_000, 1, true),
        ("Apache-like", 229_000, 1, true),
    ];
    let mut guards = Vec::new();

    println!("Table 1 (reproduction): process privilege property");
    println!(
        "property: {} states ({} minimized), {} symbols",
        property.len(),
        property.minimize().len(),
        sigma.len()
    );
    println!(
        "{:<16} {:>8} {:>9} {:>6} {:>12} {:>12} {:>12}",
        "Benchmark", "Size", "Programs", "Viol?", "bidi (s)", "forward (s)", "pds/MOPS (s)"
    );

    for (name, size, programs, guard) in packages {
        let size = size / scale;
        let mut bidi_total = std::time::Duration::ZERO;
        let mut fwd_total = std::time::Duration::ZERO;
        let mut pds_total = std::time::Duration::ZERO;
        let mut any_violation = false;
        let mut actual_size = 0;
        for pnum in 0..programs {
            let wl =
                WorkloadConfig::sized(size / programs, event_names.clone(), 0xC0FFEE + pnum as u64);
            let program = generate(&wl);
            actual_size += program.num_stmts();
            let cfg = Cfg::build(&program).expect("generated programs are valid");

            // Engine 1: bidirectional annotated constraints (BANSHEE).
            let (bidi_violations, t) = timed(|| {
                let mut checker =
                    ConstraintChecker::new(&cfg, &sigma, &property, "main").expect("main exists");
                checker.solve();
                checker.violations().len()
            });
            bidi_total += t;

            // Engine 2: forward annotated constraints (§5).
            let (fwd_violations, t) = timed(|| forward_check(&cfg, &sigma, &property));
            fwd_total += t;

            // Engine 3: direct pushdown saturation (MOPS stand-in).
            let (pds_violations, t) = timed(|| {
                PdsChecker::new(&cfg, &sigma, &property, "main")
                    .expect("main exists")
                    .run()
                    .len()
            });
            pds_total += t;

            assert_eq!(
                bidi_violations > 0,
                pds_violations > 0,
                "engines must agree on {name} program {pnum}"
            );
            assert_eq!(bidi_violations > 0, fwd_violations > 0);
            any_violation |= bidi_violations > 0;
            if guard {
                guards.push((
                    name,
                    query_guard(&cfg, &sigma, &property, 0x5EED + pnum as u64),
                ));
            }
        }
        println!(
            "{:<16} {:>8} {:>9} {:>6} {:>12} {:>12} {:>12}",
            name,
            actual_size,
            programs,
            if any_violation { "yes" } else { "no" },
            secs(bidi_total),
            secs(fwd_total),
            secs(pds_total)
        );
    }
    println!();
    for (name, (query, scan)) in &guards {
        println!(
            "{name}: pc_annotations median {:.2} ms over 32 nodes, violations() {:.2} ms",
            query.as_secs_f64() * 1e3,
            scan.as_secs_f64() * 1e3
        );
    }
    for (name, (query, scan)) in &guards {
        assert!(
            query < scan,
            "{name}: one per-node query ({query:?}) is not cheaper than the whole-program scan ({scan:?})"
        );
    }
    println!("paper (2.0 GHz Core Duo): VixieCron .52/.57, At .52/.62, Sendmail 2.3/5.1, Apache .6/.7 (BANSHEE/MOPS seconds)");
}

/// Times, on a solved bidirectional checker, `pc_annotations` at 32
/// seeded nodes that `pc` reaches (median) and the whole-program
/// `violations()` scan (median of three).
fn query_guard(
    cfg: &Cfg,
    sigma: &rasc_automata::Alphabet,
    property: &rasc_automata::Dfa,
    seed: u64,
) -> (Duration, Duration) {
    let mut checker = ConstraintChecker::new(cfg, sigma, property, "main").expect("main exists");
    checker.solve();
    let mut scans: Vec<Duration> = (0..3)
        .map(|_| timed(|| checker.violations().len()).1)
        .collect();
    scans.sort();
    let mut rng = Rng::new(seed);
    let mut queries = Vec::new();
    for _ in 0..32 * 64 {
        if queries.len() == 32 {
            break;
        }
        let node = NodeId::from_index(rng.gen_range(0..cfg.num_nodes()));
        let (anns, t) = timed(|| checker.pc_annotations(node));
        if !anns.is_empty() {
            queries.push(t);
        }
    }
    assert_eq!(queries.len(), 32, "too few nodes reached by pc");
    queries.sort();
    (queries[16], scans[1])
}

/// The §6.1 encoding on the forward solver.
fn forward_check(
    cfg: &Cfg,
    sigma: &rasc_automata::Alphabet,
    property: &rasc_automata::Dfa,
) -> usize {
    let mut sys = ForwardSystem::new(property);
    let vars: Vec<_> = (0..cfg.num_nodes())
        .map(|i| sys.var(&format!("S{i}")))
        .collect();
    let pc = sys.constant("pc");
    let entry = cfg.entry("main").expect("main exists").entry;
    sys.add_constant(pc, vars[entry.index()]);
    for (from, to, label) in cfg.edges() {
        let ann = match label {
            EdgeLabel::Plain => sys.identity(),
            EdgeLabel::Event { name, .. } => match sigma.lookup(name) {
                Some(s) => sys.word(&[s]),
                None => sys.identity(),
            },
        };
        sys.add_edge(vars[from.index()], vars[to.index()], ann);
    }
    let eps = sys.identity();
    for site in cfg.call_sites() {
        let callee = &cfg.functions()[site.callee.index()];
        let o_i = sys.declare(&format!("o{}", site.id.index()), &[Variance::Covariant]);
        sys.add_source(
            o_i,
            &[vars[site.call_node.index()]],
            vars[callee.entry.index()],
            eps,
        )
        .expect("well-formed");
        sys.add_projection(
            o_i,
            0,
            vars[callee.exit.index()],
            vars[site.return_node.index()],
            eps,
        )
        .expect("well-formed");
    }
    sys.solve();
    let occ = sys.constant_occurrence_states(pc);
    vars.iter()
        .filter(|v| occ[v.index()].iter().any(|&s| sys.state_accepting(s)))
        .count()
}
