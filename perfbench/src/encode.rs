//! The §6.1 CFG encoding, into a `System` directly or as batch-protocol
//! lines.
//!
//! One set variable `S<n>` per CFG node, the constant `pc` in the entry
//! node, one edge per CFG edge (annotated by its event, if the property
//! observes it), and per call site `o_i` the constraints
//! `o_i(S_call) ⊆ S_callee_entry` and `o_i⁻¹(S_callee_exit) ⊆ S_return`.
//! This mirrors the encoding `rasc_pdmc::ConstraintChecker` builds; the
//! benchmark needs its own copy to run edit transactions on a mutable
//! system and to build from-scratch references.

use rasc_cfgir::{Cfg, EdgeLabel};
use rasc_core::algebra::{Algebra, AnnId};
use rasc_core::{ConsId, SetExpr, System, VarId, Variance};

/// Encodes `cfg` (entry `main`) into `sys`; `ann` maps an event name to
/// its annotation, `None` for events the property ignores. Returns the
/// node variables (indexed by node) and the `pc` constant.
pub fn encode_system<A: Algebra>(
    cfg: &Cfg,
    sys: &mut System<A>,
    mut ann: impl FnMut(&mut A, &str) -> Option<AnnId>,
) -> (Vec<VarId>, ConsId) {
    let vars: Vec<VarId> = (0..cfg.num_nodes())
        .map(|i| sys.var(&format!("S{i}")))
        .collect();
    let pc = sys.constructor("pc", &[]);
    let entry = cfg
        .entry("main")
        .expect("generated programs have main")
        .entry;
    sys.add(SetExpr::cons(pc, []), SetExpr::var(vars[entry.index()]))
        .expect("well-formed");
    for (from, to, label) in cfg.edges() {
        let a = match label {
            EdgeLabel::Plain => None,
            EdgeLabel::Event { name, .. } => ann(sys.algebra_mut(), name),
        };
        let (lhs, rhs) = (
            SetExpr::var(vars[from.index()]),
            SetExpr::var(vars[to.index()]),
        );
        match a {
            Some(a) => sys.add_ann(lhs, rhs, a),
            None => sys.add(lhs, rhs),
        }
        .expect("well-formed");
    }
    for site in cfg.call_sites() {
        let callee = &cfg.functions()[site.callee.index()];
        let o = sys.constructor(&format!("o{}", site.id.index()), &[Variance::Covariant]);
        sys.add(
            SetExpr::cons_vars(o, [vars[site.call_node.index()]]),
            SetExpr::var(vars[callee.entry.index()]),
        )
        .expect("well-formed");
        sys.add(
            SetExpr::proj(o, 0, vars[callee.exit.index()]),
            SetExpr::var(vars[site.return_node.index()]),
        )
        .expect("well-formed");
    }
    (vars, pc)
}

/// The same encoding as batch-protocol lines (`declare` / `add`), with
/// events outside `observed` left unannotated.
pub fn encode_lines(cfg: &Cfg, observed: impl Fn(&str) -> bool) -> Vec<String> {
    let entry = cfg
        .entry("main")
        .expect("generated programs have main")
        .entry;
    let mut lines = vec![
        r#"{"cmd":"declare","cons":"pc"}"#.to_owned(),
        format!(r#"{{"cmd":"add","lhs":"pc","rhs":"S{}"}}"#, entry.index()),
    ];
    for (from, to, label) in cfg.edges() {
        let (from, to) = (from.index(), to.index());
        lines.push(match label {
            EdgeLabel::Event { name, .. } if observed(name) => {
                format!(r#"{{"cmd":"add","lhs":"S{from}","rhs":"S{to}","ann":["{name}"]}}"#)
            }
            _ => format!(r#"{{"cmd":"add","lhs":"S{from}","rhs":"S{to}"}}"#),
        });
    }
    for site in cfg.call_sites() {
        let callee = &cfg.functions()[site.callee.index()];
        let i = site.id.index();
        lines.push(format!(
            r#"{{"cmd":"declare","cons":"o{i}","signature":"+"}}"#
        ));
        lines.push(format!(
            r#"{{"cmd":"add","lhs":"o{i}(S{})","rhs":"S{}"}}"#,
            site.call_node.index(),
            callee.entry.index()
        ));
        lines.push(format!(
            r#"{{"cmd":"add","lhs":"o{i}^-1(S{})","rhs":"S{}"}}"#,
            callee.exit.index(),
            site.return_node.index()
        ));
    }
    lines
}
