//! Equational specifications (§3.5).
//!
//! The *equational specification* of a least fixpoint `L` is a pair
//! `(B, R)`: the primary database `B` (as in the graph specification) plus a
//! finite set `R` of ground equations whose closure
//!
//! ```text
//! Cl(R) = closure of R under reflexivity, symmetry, transitivity and
//!         congruence ((t,t') ∈ Cl(R) ⇒ (f(t),f(t')) ∈ Cl(R))
//! ```
//!
//! equals the state congruence `≅`. `R` is obtained from Algorithm Q (§3.5):
//! `R(t₁, t₂)` iff `t₁` is `Active`, `t₂` is `Potential` and `t₁ ∼ t₂` —
//! i.e. each merge the algorithm performs contributes one equation.
//!
//! To verify `P(t₀, ā) ∈ L`, compute the finite set `T = {t : P(t, ā) ∈ B}`
//! and check whether `(t₀, t) ∈ Cl(R)` for some `t ∈ T` with the congruence
//! closure procedure [DST80] (`fundb-congruence`). "Although the entire
//! Cl(R) is infinite, the test needs to examine only finitely many terms,
//! because of the finiteness of B and R."

use crate::gendb::{AtomId, AtomInterner};
use crate::graphspec::GraphSpec;
use crate::state::State;
use fundb_congruence::CongruenceClosure;
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FuncOrder, Interner, NodeId, Pred};

/// An equational specification `(B, R)`.
///
/// Terms are kept as nodes of the congruence closure's term tree, so
/// building the specification and freezing it never re-walk a symbol path;
/// [`EqSpec::primary`] and [`EqSpec::equations`] materialize paths on
/// demand.
#[derive(Clone)]
pub struct EqSpec {
    /// Depth of the largest ground term (`c`); terms of depth ≤ c are
    /// looked up directly in `B`.
    pub c: usize,
    /// Function symbols.
    pub funcs: FuncOrder,
    /// Primary database `B`: the closure node of each representative term,
    /// with its slice.
    primary: Vec<(NodeId, State)>,
    /// The ground equations `R` as closure nodes `(representative, parent,
    /// f)`: the representative equals the potential term `f(parent)`.
    equations: Vec<(NodeId, NodeId, Func)>,
    /// Abstract-atom vocabulary.
    pub atoms: AtomInterner,
    /// Relational facts.
    pub nf: dl::Database,
    /// Congruence closure over `R` (extended lazily by membership queries).
    cc: CongruenceClosure,
}

impl EqSpec {
    /// Extracts the equational specification from a graph specification:
    /// `B` is the same primary database; `R` is Algorithm Q's merge list.
    ///
    /// The closure is seeded straight from the specification's term tree:
    /// one closure node per tree term, each by its parent link. Each merge
    /// `f(parent) ≅ rep` then enters through
    /// [`CongruenceClosure::equate_apply`]: the representative becomes the
    /// `f`-successor of the parent's class, and the potential term needs no
    /// node (or path) of its own.
    ///
    /// ```
    /// use fundb_parser::Workspace;
    ///
    /// let mut ws = Workspace::new();
    /// ws.parse("Even(t) -> Even(t+2). Even(0).").unwrap();
    /// let mut eq = ws.eq_spec().unwrap();
    /// assert!(ws.holds_eq(&mut eq, "Even(4)").unwrap());   // (2,4) ∈ Cl(R)
    /// assert!(!ws.holds_eq(&mut eq, "Even(3)").unwrap());
    /// ```
    pub fn from_graph(spec: &GraphSpec) -> EqSpec {
        let mut cc = CongruenceClosure::new();
        // A tree interns every parent before its children.
        let mut node_of: Vec<NodeId> = Vec::with_capacity(spec.tree.len());
        for t in spec.tree.node_ids() {
            node_of.push(match spec.tree.parent(t) {
                Some((p, f)) => cc.apply(node_of[p.index()], f),
                None => cc.root(),
            });
        }
        let rep_node = |rep: crate::SpecNodeId| node_of[spec.nodes[rep.index()].term.index()];
        let primary = spec
            .nodes
            .iter()
            .map(|n| (node_of[n.term.index()], n.state.clone()))
            .collect();
        let equations = spec
            .merges()
            .iter()
            .map(|m| {
                let (rep, parent) = (rep_node(m.rep), node_of[m.parent.index()]);
                cc.equate_apply(parent, m.f, rep);
                (rep, parent, m.f)
            })
            .collect();
        EqSpec {
            c: spec.c,
            funcs: spec.funcs.clone(),
            primary,
            equations,
            atoms: spec.atoms.clone(),
            nf: spec.nf.clone(),
            cc,
        }
    }

    /// Primary database `B`: representative terms (as symbol paths) with
    /// their slices.
    pub fn primary(&self) -> Vec<(Vec<Func>, &State)> {
        self.primary
            .iter()
            .map(|(t, s)| (self.cc.path(*t), s))
            .collect()
    }

    /// The ground equations `R` as `(representative, potential term)` symbol
    /// paths, one per merge of Algorithm Q.
    pub fn equations(&self) -> Vec<(Vec<Func>, Vec<Func>)> {
        self.equations
            .iter()
            .map(|&(rep, parent, f)| {
                let mut potential = self.cc.path(parent);
                potential.push(f);
                (self.cc.path(rep), potential)
            })
            .collect()
    }

    /// Number of equations (|R|).
    pub fn equation_count(&self) -> usize {
        self.equations.len()
    }

    /// Total number of tuples in `B`.
    pub fn primary_size(&self) -> usize {
        self.primary.iter().map(|(_, s)| s.len()).sum::<usize>() + self.nf.fact_count()
    }

    /// Yes-no membership `P(t₀, ā) ∈ L` via `(B, R)` and congruence closure.
    ///
    /// Takes `&mut self`: the closure's term universe is extended by the
    /// query term, exactly as §3.5 describes ("when we want to verify
    /// P(t0,ā) ∈ L, we compute the finite set T = {t : P(t,ā) ∈ B} … the
    /// last test is performed by the congruence closure procedure").
    pub fn holds(&mut self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(id) = self.atoms.get(pred, args) else {
            return false;
        };
        if path.len() <= self.c {
            // Shallow terms are singleton clusters: direct lookup.
            let Some(q) = self.cc.lookup_path(path) else {
                return false;
            };
            return self.primary.iter().any(|(t, s)| *t == q && s.contains(id));
        }
        // T = {t : P(t, ā) ∈ B}, deep representatives only.
        let q = self.cc.term(path);
        let (c, cc) = (self.c, &mut self.cc);
        self.primary
            .iter()
            .any(|(t, s)| cc.depth(*t) > c && s.contains(id) && cc.congruent(q, *t))
    }

    /// Yes-no membership for a relational tuple.
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.nf.contains(pred, args)
    }

    /// Drops equations that are congruence consequences of the remaining
    /// ones, returning the number removed. Algorithm Q emits one equation
    /// per merged potential term, which is often redundant — e.g. once
    /// `a ≅ aa` is known, `ab ≅ aab` follows by congruence. (The paper's
    /// §3.6 remark that "techniques for optimizing the database C are also
    /// necessary", applied to `R`.)
    ///
    /// Greedy quadratic sweep: an equation is removed if the closure of the
    /// others already relates its sides. Membership answers are unchanged
    /// (the closure is identical).
    pub fn minimize_equations(&mut self) -> usize {
        let original = self.equations();
        let mut kept: Vec<(Vec<Func>, Vec<Func>)> = Vec::with_capacity(original.len());
        for (i, (a, b)) in original.iter().enumerate() {
            // Closure of everything except equation i (kept ∪ not-yet-seen).
            let mut cc = CongruenceClosure::new();
            for (j, (x, y)) in original.iter().enumerate() {
                if j != i && (j > i || kept.iter().any(|(kx, ky)| kx == x && ky == y)) {
                    cc.equate_paths(x, y);
                }
            }
            if !cc.congruent_paths(a, b) {
                kept.push((a.clone(), b.clone()));
            }
        }
        let removed = self.equations.len() - kept.len();
        if removed > 0 {
            let mut cc = CongruenceClosure::new();
            for (t, _) in &mut self.primary {
                *t = cc.term(&self.cc.path(*t));
            }
            self.equations = kept
                .iter()
                .map(|(rep, potential)| {
                    let (&f, parent) = potential
                        .split_last()
                        .expect("a potential term is f(parent)");
                    let (rep, parent) = (cc.term(rep), cc.term(parent));
                    cc.equate_apply(parent, f, rep);
                    (rep, parent, f)
                })
                .collect();
            self.cc = cc;
        }
        removed
    }

    /// Whether two ground terms are congruent under `Cl(R)` — the raw
    /// congruence test of §3.5's examples.
    pub fn congruent(&mut self, a: &[Func], b: &[Func]) -> bool {
        self.cc.congruent_paths(a, b)
    }

    /// The congruence closure over `R` and the closure node of each
    /// representative with its slice, for the serving layer's freeze.
    pub(crate) fn closure_parts(&self) -> (&CongruenceClosure, &[(NodeId, State)]) {
        (&self.cc, &self.primary)
    }

    /// Renders `R` deterministically.
    pub fn render_equations(&self, interner: &Interner) -> Vec<String> {
        let show = |p: &[Func]| {
            let mut s = String::new();
            for f in p.iter().rev() {
                s.push_str(interner.resolve(f.sym()));
                s.push('(');
            }
            s.push('0');
            for _ in p {
                s.push(')');
            }
            s
        };
        let mut out: Vec<String> = self
            .equations()
            .iter()
            .map(|(a, b)| format!("{} == {}", show(a), show(b)))
            .collect();
        out.sort_unstable();
        out
    }

    /// The slice atoms of `B` for a representative path, if present.
    pub fn slice_of(&self, path: &[Func]) -> Option<impl Iterator<Item = AtomId> + '_> {
        let q = self.cc.lookup_path(path)?;
        self.primary
            .iter()
            .find(|(t, _)| *t == q)
            .map(|(_, s)| s.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::program::{Atom, Database, FTerm, NTerm, Program, Rule};
    use fundb_term::Var;

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    /// §3.5's worked example: D = {Even(0)}, Even(t) → Even(t+2),
    /// B = D and R = {(0,2)} — and the membership tests from the paper:
    /// Even(4) ∈ L (via (0,4) ∈ Cl(R)) but Even(3) ∉ L ((0,3) ∉ Cl(R)).
    #[test]
    fn even_example_matches_paper() {
        let mut i = Interner::new();
        let even = Pred(i.intern("Even"));
        let succ = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(
                even,
                FTerm::Pure(succ, Box::new(FTerm::Pure(succ, Box::new(FTerm::Var(t))))),
                vec![],
            ),
            vec![fat(even, FTerm::Var(t), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(even, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let mut eq = EqSpec::from_graph(&spec);

        // Membership mirrors the paper's tests.
        assert!(eq.holds(even, &[], &[]));
        assert!(eq.holds(even, &[succ; 4], &[]));
        assert!(!eq.holds(even, &[succ; 3], &[]));
        assert!(eq.holds(even, &vec![succ; 100], &[]));
        assert!(!eq.holds(even, &vec![succ; 101], &[]));

        // The congruence relates exactly the pairs of equal parity among
        // deep terms: (1,3) ∈ Cl(R) and (0,3) ∉ Cl(R), as in the paper.
        // Note one presentational difference: the paper's §3.5 narrative
        // uses the temporal-rules improvement of footnote 3 (potentials
        // start at depth c), giving R = {(0,2)} and hence (0,4) ∈ Cl(R);
        // the general Algorithm Q implemented here starts at depth c+1, so
        // the congruence never relates the shallow term 0 to deep terms —
        // membership answers are identical either way (Even(0) is looked up
        // directly in B). The temporal crate reproduces the paper's exact
        // R = {(0,2)}.
        assert!(eq.congruent(&[succ; 1], &[succ; 3]));
        assert!(!eq.congruent(&[succ; 0], &[succ; 3]));
        assert!(eq.congruent(&[succ; 2], &[succ; 4]));
        assert!(eq.congruent(&[succ; 2], &vec![succ; 100]));
        assert!(!eq.congruent(&[succ; 2], &[succ; 5]));
    }

    /// Equational and graph specifications answer identically.
    #[test]
    fn eqspec_agrees_with_graphspec() {
        let mut i = Interner::new();
        let a = Pred(i.intern("A"));
        let b = Pred(i.intern("B"));
        let f = Func(i.intern("f"));
        let g = Func(i.intern("g"));
        let s = Var(i.intern("s"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(a, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(a, FTerm::Var(s), vec![])],
        ));
        prog.push(Rule::new(
            fat(b, FTerm::Pure(g, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(a, FTerm::Var(s), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(a, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let mut eq = EqSpec::from_graph(&spec);

        let mut paths: Vec<Vec<Func>> = vec![vec![]];
        let mut frontier: Vec<Vec<Func>> = vec![vec![]];
        for _ in 0..4 {
            let mut next = Vec::new();
            for p in &frontier {
                for &sym in &[f, g] {
                    let mut q = p.clone();
                    q.push(sym);
                    next.push(q);
                }
            }
            paths.extend(next.iter().cloned());
            frontier = next;
        }
        for path in &paths {
            for pred in [a, b] {
                assert_eq!(
                    eq.holds(pred, path, &[]),
                    spec.holds(pred, path, &[]),
                    "pred {pred:?} path {path:?}"
                );
            }
        }
    }

    #[test]
    fn equations_render() {
        let mut i = Interner::new();
        let even = Pred(i.intern("Even"));
        let succ = Func(i.intern("s"));
        let t = Var(i.intern("t"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(
                even,
                FTerm::Pure(succ, Box::new(FTerm::Pure(succ, Box::new(FTerm::Var(t))))),
                vec![],
            ),
            vec![fat(even, FTerm::Var(t), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(even, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let eq = EqSpec::from_graph(&spec);
        let lines = eq.render_equations(&i);
        assert!(!lines.is_empty());
        assert!(lines.iter().all(|l| l.contains("==")));
    }
}
