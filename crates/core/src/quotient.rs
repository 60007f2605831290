//! Quotient models (§3.3).
//!
//! Collapsing congruent terms yields the *quotient interpretation* of
//! `Z ∧ D`: its universe consists of the congruence clusters plus the
//! non-functional constants, every non-constant function symbol is
//! interpreted as the finite successor mapping between clusters, and a
//! functional fact `P(t, ā)` is true iff `P(ā)` is in the slice of `t`'s
//! cluster. Proposition 3.2: this (non-Herbrand) interpretation is a model
//! of `Z ∧ D`, and it preserves the truth values of all atomic facts of the
//! least fixpoint.
//!
//! [`QuotientModel`] wraps a [`GraphSpec`] with the model-theoretic reading,
//! and [`QuotientModel::is_model_of`] checks Proposition 3.2 mechanically by
//! firing every compiled rule at every cluster and verifying that nothing
//! new is derivable — a strong internal consistency check used by the test
//! suite.

use crate::compile::{CompiledProgram, Loc};
use crate::error::Result;
use crate::graphspec::{GraphSpec, SpecNodeId};
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FxHashMap, Pred};

/// The quotient model `L≅` of a functional deductive database.
pub struct QuotientModel<'a> {
    spec: &'a GraphSpec,
}

impl<'a> QuotientModel<'a> {
    /// Wraps a graph specification.
    pub fn new(spec: &'a GraphSpec) -> Self {
        QuotientModel { spec }
    }

    /// The universe size: clusters (the constants are shared with the
    /// Herbrand side and not counted here).
    pub fn universe_size(&self) -> usize {
        self.spec.cluster_count()
    }

    /// Function symbol interpretation: `f(cluster)`.
    pub fn apply(&self, f: Func, cluster: SpecNodeId) -> SpecNodeId {
        self.spec
            .succ(cluster, f)
            .expect("function symbol outside the specification")
    }

    /// Truth of `P(cluster, ā)` in the quotient model.
    pub fn check(&self, pred: Pred, cluster: SpecNodeId, args: &[Cst]) -> bool {
        self.spec
            .atoms
            .get(pred, args)
            .is_some_and(|id| self.spec.nodes[cluster.index()].state.contains(id))
    }

    /// Truth of a relational fact.
    pub fn check_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.spec.nf.contains(pred, args)
    }

    /// Verifies Proposition 3.2 ("the quotient interpretation is a model of
    /// Z ∧ D"): fires every compiled star rule at every cluster, and the
    /// fixed rules once, checking that no rule derives a fact the model does
    /// not already satisfy. Returns `Ok(true)` if the interpretation is
    /// closed (`Err` only if an evaluation budget or injected fault stopped
    /// a saturation early).
    pub fn is_model_of(&self, cp: &CompiledProgram) -> Result<bool> {
        // Fixed rules.
        let mut db = dl::Database::new();
        self.inject_fixed_and_nf(cp, &mut db);
        dl::evaluate(&mut db, &cp.fixed_rules)?;
        if !self.absorbed(cp, &db) {
            return Ok(false);
        }

        // Star rules at every cluster.
        for cluster in self.spec.node_ids() {
            let mut db = dl::Database::new();
            self.fill(cp, &mut db, cluster, None);
            for &f in self.spec.funcs.symbols() {
                self.fill(cp, &mut db, self.apply(f, cluster), Some(f));
            }
            self.inject_fixed_and_nf(cp, &mut db);
            dl::evaluate(&mut db, &cp.star_rules)?;
            if !self.absorbed_at(cp, &db, cluster) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn fill(
        &self,
        cp: &CompiledProgram,
        db: &mut dl::Database,
        cluster: SpecNodeId,
        child: Option<Func>,
    ) {
        let state = &self.spec.nodes[cluster.index()].state;
        for id in state.iter() {
            let (p, args) = self.spec.atoms.resolve(id);
            let tag = match child {
                None => cp.tag_of(p, Loc::Here),
                Some(f) => cp.tag_of(p, Loc::Child(f)),
            };
            if let Some(tag) = tag {
                db.insert(tag, args);
            }
        }
    }

    fn inject_fixed_and_nf(&self, cp: &CompiledProgram, db: &mut dl::Database) {
        for (p, n, tag) in cp.fixed_tags() {
            // Ground node n of the compile tree = the same path in the spec
            // tree; its representative is itself (depth ≤ c).
            let path = cp.tree.path(n);
            let rep = self
                .spec
                .representative_of(&path)
                .expect("ground rule terms are in the spec vocabulary");
            let state = &self.spec.nodes[rep.index()].state;
            for id in state.iter() {
                let (pp, args) = self.spec.atoms.resolve(id);
                if pp == p {
                    db.insert(tag, args);
                }
            }
        }
        for (p, rel) in self.spec.nf.iter() {
            for row in rel.rows() {
                db.insert(p, row);
            }
        }
    }

    /// Every fact in `db` is already satisfied by the model (global parts).
    fn absorbed(&self, cp: &CompiledProgram, db: &dl::Database) -> bool {
        for (tagged, rel) in db.iter() {
            match cp.untag(tagged) {
                Some((p, Loc::Fixed(n))) => {
                    let path = cp.tree.path(n);
                    let rep = self
                        .spec
                        .representative_of(&path)
                        .expect("ground rule terms are in the spec vocabulary");
                    for row in rel.rows() {
                        if !self.check(p, rep, row) {
                            return false;
                        }
                    }
                }
                Some(_) => {}
                None => {
                    for row in rel.rows() {
                        if !self.spec.nf.contains(tagged, row) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Every fact in `db` is satisfied, including here/child locations
    /// relative to `cluster`.
    fn absorbed_at(&self, cp: &CompiledProgram, db: &dl::Database, cluster: SpecNodeId) -> bool {
        if !self.absorbed(cp, db) {
            return false;
        }
        let mut succ: FxHashMap<Func, SpecNodeId> = FxHashMap::default();
        for &f in self.spec.funcs.symbols() {
            succ.insert(f, self.apply(f, cluster));
        }
        for (tagged, rel) in db.iter() {
            match cp.untag(tagged) {
                Some((p, Loc::Here)) => {
                    for row in rel.rows() {
                        if !self.check(p, cluster, row) {
                            return false;
                        }
                    }
                }
                Some((p, Loc::Child(f))) => {
                    for row in rel.rows() {
                        if !self.check(p, succ[&f], row) {
                            return false;
                        }
                    }
                }
                _ => {}
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::program::{Atom, Database, FTerm, NTerm, Program, Rule};
    use fundb_term::{Interner, Var};

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    /// Proposition 3.2 on the Meets example: the quotient interpretation is
    /// a model.
    #[test]
    fn meets_quotient_is_a_model() {
        let mut i = Interner::new();
        let meets = Pred(i.intern("Meets"));
        let next = Pred(i.intern("Next"));
        let succ = Func(i.intern("succ"));
        let (t, x, y) = (Var(i.intern("t")), Var(i.intern("x")), Var(i.intern("y")));
        let (tony, jan) = (Cst(i.intern("tony")), Cst(i.intern("jan")));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(
                meets,
                FTerm::Pure(succ, Box::new(FTerm::Var(t))),
                vec![NTerm::Var(y)],
            ),
            vec![
                fat(meets, FTerm::Var(t), vec![NTerm::Var(x)]),
                Atom::Relational {
                    pred: next,
                    args: vec![NTerm::Var(x), NTerm::Var(y)],
                },
            ],
        ));
        let mut db = Database::new();
        db.facts
            .push(fat(meets, FTerm::Zero, vec![NTerm::Const(tony)]));
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(tony), NTerm::Const(jan)],
        });
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(jan), NTerm::Const(tony)],
        });
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = crate::graphspec::GraphSpec::from_engine(&mut engine).unwrap();
        let model = QuotientModel::new(&spec);
        assert!(model.is_model_of(engine.compiled()).unwrap());

        // Atomic truth preservation: Meets alternates over clusters.
        let even_cluster = spec.representative_of(&[succ, succ]).unwrap();
        let odd_cluster = spec.representative_of(&[succ]).unwrap();
        assert!(model.check(meets, even_cluster, &[tony]));
        assert!(!model.check(meets, even_cluster, &[jan]));
        assert!(model.check(meets, odd_cluster, &[jan]));
        assert!(model.check_relational(next, &[tony, jan]));
    }

    /// A deliberately broken interpretation is rejected: dropping a fact
    /// from a cluster state violates model-hood.
    #[test]
    fn broken_interpretation_is_not_a_model() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let f = Func(i.intern("f"));
        let s = Var(i.intern("s"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(p, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(p, FTerm::Var(s), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(p, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let mut spec = crate::graphspec::GraphSpec::from_engine(&mut engine).unwrap();
        assert!(QuotientModel::new(&spec)
            .is_model_of(engine.compiled())
            .unwrap());
        // Break it: clear the state of the deep cluster.
        let deep = spec.representative_of(&[f]).unwrap();
        spec.nodes[deep.index()].state = crate::state::State::new();
        assert!(!QuotientModel::new(&spec)
            .is_model_of(engine.compiled())
            .unwrap());
    }
}
