//! Annotation algebras: the values constraints are annotated with.
//!
//! The solver is generic over an [`Algebra`]: a finite monoid of interned
//! annotation values with an *accepting* predicate. Three implementations
//! cover the paper's applications:
//!
//! * [`MonoidAlgebra`] — representative functions `F_M^≡` of an arbitrary
//!   regular language (§2.4), with the §3.1 optimization of pruning
//!   annotations that can never extend to an accepting word;
//! * [`GenKillAlgebra`] — the n-bit gen/kill language (§3.3) with O(1)
//!   bit-parallel composition;
//! * [`SubstAlgebra`] — parametric annotations via substitution
//!   environments (§6.4), supporting multiple parameters.

mod genkill;
mod monoid_alg;
mod subst;

pub use genkill::GenKillAlgebra;
pub use monoid_alg::MonoidAlgebra;
pub use subst::{LabelId, ParamId, SubstAlgebra, SubstEnv};

/// An interned annotation value.
///
/// Ids are only meaningful relative to the [`Algebra`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnnId(pub(crate) u32);

impl AnnId {
    /// The annotation's index within its algebra.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A right-congruence class `f(s₀)` of an annotation `f` (§5): the part
/// of an annotation that decides acceptance once nothing more is composed
/// before it.
///
/// Backed by a `u64` so a gen/kill fact mask fits. Classes are only
/// meaningful relative to the [`Algebra`] that produced them; see
/// [`Algebra::start_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u64);

/// A finite annotation monoid with interned elements.
///
/// `compose` takes `&mut self` because elements are interned on demand
/// (the paper's composition table, built lazily).
pub trait Algebra {
    /// The identity annotation `f_ε` (the representative of the empty
    /// word).
    fn identity(&self) -> AnnId;

    /// `later ∘ earlier`: the annotation of a path that performs `earlier`
    /// first (the paper's transitive-closure composition
    /// `se₁ ⊆^f X ⊆^g se₂ ⇒ se₁ ⊆^{g∘f} se₂`).
    fn compose(&mut self, later: AnnId, earlier: AnnId) -> AnnId;

    /// Whether the annotation represents *full words* of the annotation
    /// language — membership in the paper's `F_accept` (§3.2).
    fn is_accepting(&self, a: AnnId) -> bool;

    /// Whether the annotation could still participate in an accepting word
    /// (`∃ x, y. x·w·y ∈ L(M)`). Returning `false` lets the solver drop
    /// the constraint entirely — the paper's observation that a minimized
    /// machine obviates the `match` operation (§3.1).
    fn is_useful(&self, a: AnnId) -> bool {
        let _ = a;
        true
    }

    /// The class of the identity annotation, `f_ε(s₀)`.
    ///
    /// Together with [`Algebra::apply_class`] and
    /// [`Algebra::class_accepting`] this lets a query track `f(s₀)`
    /// instead of `f`, under the law
    /// `is_accepting(f) == class_accepting(apply_class(f, start_class()))`.
    /// By default the class *is* the annotation, which is exact for any
    /// algebra; override all three when fewer classes suffice.
    fn start_class(&self) -> ClassId {
        ClassId(u64::from(self.identity().0))
    }

    /// The class `a(c)`: annotation `a` performed after a path in class `c`.
    fn apply_class(&mut self, a: AnnId, c: ClassId) -> ClassId {
        ClassId(u64::from(self.compose(a, class_ann(c)).0))
    }

    /// Whether paths in class `c` are accepted.
    fn class_accepting(&self, c: ClassId) -> bool {
        self.is_accepting(class_ann(c))
    }

    /// Human-readable rendering for diagnostics.
    fn describe(&self, a: AnnId) -> String;

    /// The number of interned annotations so far.
    fn len(&self) -> usize;

    /// Whether no annotations are interned (never true in practice: the
    /// identity always is).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The annotation a default class stands for.
fn class_ann(c: ClassId) -> AnnId {
    AnnId(crate::id_u32(c.0 as usize, "annotation classes"))
}

/// Checks `is_accepting(f) == class_accepting(apply_class(f, start))` for
/// every annotation `alg` has interned.
#[cfg(test)]
fn assert_class_law<A: Algebra>(alg: &mut A) {
    let start = alg.start_class();
    for i in 0..alg.len() {
        let f = AnnId(crate::id_u32(i, "annotations"));
        let c = alg.apply_class(f, start);
        assert_eq!(
            alg.is_accepting(f),
            alg.class_accepting(c),
            "annotation {} ({i}) and its class {c:?} disagree on acceptance",
            alg.describe(f)
        );
    }
}

/// Interns every product of up to `depth` annotations from `gens`, so a
/// law check covers more than the generators.
#[cfg(test)]
fn close_under_compose<A: Algebra>(alg: &mut A, gens: &[AnnId], depth: usize) {
    let mut frontier = vec![alg.identity()];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &f in &frontier {
            for &g in gens {
                next.push(alg.compose(g, f));
            }
        }
        frontier = next;
    }
}
