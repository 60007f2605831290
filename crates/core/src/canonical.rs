//! The CONGR canonical form (§3.6).
//!
//! The paper observes that every set of functional rules has a *canonical
//! form*: once the equational specification `(B, R)` is computed, the
//! original rules `Z` and database `D` can be discarded in favour of a
//! single rule set CONGR that depends only on the predicate vocabulary:
//!
//! ```text
//! rules describing the closure ≅ of the relation R between terms,
//! and, per predicate P:    P(s, z̄), s ≅ t → P(t, z̄),
//! ```
//!
//! so that `LFP(Z, D) = LFP(CONGR, B ∪ R)` (restricted to the predicates of
//! `Z ∪ D`). CONGR is *not* functional — its congruence rule relates two
//! functional components — so it cannot be evaluated by the functional
//! engine; the paper's point is that it is the same for every `Z`.
//!
//! [`CongrForm`] realizes the construction concretely: it reifies ground
//! terms up to a chosen depth as constants, emits CONGR as plain Datalog
//! over the `fundb-datalog` substrate (`Eq/2`, `Apply_f/2`, and the
//! per-predicate transfer rules), seeds it with `C = B ∪ R`, and
//! materializes the fixpoint. Experiment E10 cross-checks the result
//! against the graph specification.

use crate::eqspec::EqSpec;
use crate::error::Result;
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FxHashMap, FxHashSet, Interner, Pred, Var};

/// The CONGR rule set instantiated over a bounded term universe, plus its
/// materialized fixpoint `LFP(CONGR, B ∪ R)`.
pub struct CongrForm {
    /// The grounding depth of the term universe.
    pub depth: usize,
    /// The CONGR rules (plain Datalog).
    pub rules: Vec<dl::Rule>,
    /// The materialized fixpoint.
    pub db: dl::Database,
    /// Number of facts in `C = B ∪ R` before evaluation.
    pub c_size: usize,
    term_consts: FxHashMap<Vec<Func>, Cst>,
}

impl CongrForm {
    /// Builds CONGR from an equational specification, reifying all terms of
    /// depth ≤ `depth` (must cover the representatives and equations of the
    /// spec) and evaluating to fixpoint.
    pub fn build(eq: &EqSpec, depth: usize, interner: &mut Interner) -> Result<CongrForm> {
        let primary = eq.primary();
        let equations = eq.equations();
        let max_needed = primary
            .iter()
            .map(|(p, _)| p.len())
            .chain(equations.iter().flat_map(|(a, b)| [a.len(), b.len()]))
            .max()
            .unwrap_or(0);
        assert!(
            depth >= max_needed,
            "CONGR universe must contain the specification's terms"
        );

        // Reify the term universe.
        let mut term_consts: FxHashMap<Vec<Func>, Cst> = FxHashMap::default();
        let mut paths: Vec<Vec<Func>> = vec![vec![]];
        let mut frontier: Vec<Vec<Func>> = vec![vec![]];
        for _ in 0..depth {
            let mut next = Vec::new();
            for p in &frontier {
                for &f in eq.funcs.symbols() {
                    let mut q = p.clone();
                    q.push(f);
                    next.push(q);
                }
            }
            paths.extend(next.iter().cloned());
            frontier = next;
        }
        for p in &paths {
            let shown = p
                .iter()
                .map(|f| interner.resolve(f.sym()))
                .collect::<Vec<_>>()
                .join(".");
            let c = Cst(interner.intern(&format!(
                "⟦{}⟧",
                if shown.is_empty() { "0" } else { &shown }
            )));
            term_consts.insert(p.clone(), c);
        }

        // Vocabulary: Eq/2, Apply_f/2 per symbol.
        let eq_pred = Pred(interner.fresh("Eq"));
        let mut apply_pred: FxHashMap<Func, Pred> = FxHashMap::default();
        for &f in eq.funcs.symbols() {
            let name = format!("Apply_{}", interner.resolve(f.sym()));
            apply_pred.insert(f, Pred(interner.fresh(&name)));
        }
        let (x, y, xp, yp) = (
            Var(interner.fresh("cx")),
            Var(interner.fresh("cy")),
            Var(interner.fresh("cx'")),
            Var(interner.fresh("cy'")),
        );

        // CONGR rules: symmetry, transitivity, congruence, and the
        // per-predicate transfer rule. (Reflexivity is seeded as facts.)
        let v = dl::Term::Var;
        let mut rules = vec![
            dl::Rule::new(
                dl::Atom::new(eq_pred, vec![v(y), v(x)]),
                vec![dl::Atom::new(eq_pred, vec![v(x), v(y)])],
            ),
            dl::Rule::new(
                dl::Atom::new(eq_pred, vec![v(x), v(xp)]),
                vec![
                    dl::Atom::new(eq_pred, vec![v(x), v(y)]),
                    dl::Atom::new(eq_pred, vec![v(y), v(xp)]),
                ],
            ),
        ];
        for &f in eq.funcs.symbols() {
            rules.push(dl::Rule::new(
                dl::Atom::new(eq_pred, vec![v(xp), v(yp)]),
                vec![
                    dl::Atom::new(eq_pred, vec![v(x), v(y)]),
                    dl::Atom::new(apply_pred[&f], vec![v(x), v(xp)]),
                    dl::Atom::new(apply_pred[&f], vec![v(y), v(yp)]),
                ],
            ));
        }
        // Transfer rules per functional predicate, with the right arity.
        let mut preds_seen: FxHashSet<Pred> = FxHashSet::default();
        for (_, state) in &primary {
            for id in state.iter() {
                let (p, args) = eq.atoms.resolve(id);
                if !preds_seen.insert(p) {
                    continue;
                }
                let zs: Vec<Var> = (0..args.len())
                    .map(|k| Var(interner.fresh(&format!("cz{k}"))))
                    .collect();
                let mut head_args = vec![v(y)];
                head_args.extend(zs.iter().map(|&z| v(z)));
                let mut body_args = vec![v(x)];
                body_args.extend(zs.iter().map(|&z| v(z)));
                rules.push(dl::Rule::new(
                    dl::Atom::new(p, head_args),
                    vec![
                        dl::Atom::new(p, body_args),
                        dl::Atom::new(eq_pred, vec![v(x), v(y)]),
                    ],
                ));
            }
        }

        // C = B ∪ R (+ the Apply graph and reflexivity of the universe).
        let mut db = dl::Database::new();
        for (path, state) in &primary {
            let tc = term_consts[path];
            for id in state.iter() {
                let (p, args) = eq.atoms.resolve(id);
                let mut row = Vec::with_capacity(args.len() + 1);
                row.push(tc);
                row.extend_from_slice(args);
                db.insert(p, &row);
            }
        }
        for (a, b) in &equations {
            db.insert(eq_pred, &[term_consts[a], term_consts[b]]);
        }
        let c_size = db.fact_count();
        for p in &paths {
            let tc = term_consts[p];
            db.insert(eq_pred, &[tc, tc]);
            for &f in eq.funcs.symbols() {
                let mut q = p.clone();
                q.push(f);
                if let Some(&fc) = term_consts.get(&q) {
                    db.insert(apply_pred[&f], &[tc, fc]);
                }
            }
        }

        dl::evaluate(&mut db, &rules)?;
        Ok(CongrForm {
            depth,
            rules,
            db,
            c_size,
            term_consts,
        })
    }

    /// Membership of `P(t, ā)` in `LFP(CONGR, C)` (false beyond the
    /// reified universe).
    pub fn holds(&self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(&tc) = self.term_consts.get(path) else {
            return false;
        };
        let mut row = Vec::with_capacity(args.len() + 1);
        row.push(tc);
        row.extend_from_slice(args);
        self.db.contains(pred, &row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::graphspec::GraphSpec;
    use crate::program::{Atom, Database, FTerm, NTerm, Program, Rule};

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    /// LFP(CONGR, B ∪ R) = LFP(Z, D) on the Even example, for all terms in
    /// the bounded universe (§3.6).
    #[test]
    fn congr_reproduces_the_fixpoint() {
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
        let congr = CongrForm::build(&eq, 12, &mut i).unwrap();
        for n in 0..=12usize {
            assert_eq!(
                congr.holds(even, &vec![succ; n], &[]),
                n % 2 == 0,
                "Even({n})"
            );
        }
    }

    /// CONGR handles predicates with non-functional arguments: the transfer
    /// rule `P(s, z̄), s ≅ t → P(t, z̄)` carries the argument tuple along.
    #[test]
    fn congr_transfers_arguments() {
        let mut i = Interner::new();
        let meets = Pred(i.intern("Meets"));
        let next = Pred(i.intern("Next"));
        let succ = Func(i.intern("+1"));
        let (t, x, y) = (Var(i.intern("t")), Var(i.intern("x")), Var(i.intern("y")));
        let (a, b) = (
            fundb_term::Cst(i.intern("A")),
            fundb_term::Cst(i.intern("B")),
        );
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
            .push(fat(meets, FTerm::Zero, vec![NTerm::Const(a)]));
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(a), NTerm::Const(b)],
        });
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(b), NTerm::Const(a)],
        });
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let eq = EqSpec::from_graph(&spec);
        let congr = CongrForm::build(&eq, 9, &mut i).unwrap();
        for n in 0..=9usize {
            let who = if n % 2 == 0 { a } else { b };
            let other = if n % 2 == 0 { b } else { a };
            assert!(congr.holds(meets, &vec![succ; n], &[who]), "n={n}");
            assert!(!congr.holds(meets, &vec![succ; n], &[other]), "n={n}");
        }
    }

    /// "The set of rules CONGR depends on the set of predicates in Z, but
    /// not on the actual rules in Z" (§3.6) — and not on the database: the
    /// same program over two different databases yields the same CONGR rule
    /// set (only C = B ∪ R differs).
    #[test]
    fn congr_rules_depend_only_on_vocabulary() {
        let build = |seed_depth: usize| {
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
            db.facts
                .push(fat(even, FTerm::from_path(&vec![succ; seed_depth]), vec![]));
            let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            let eq = EqSpec::from_graph(&spec);
            let congr = CongrForm::build(&eq, 10, &mut i).unwrap();
            (congr.rules.len(), congr.c_size)
        };
        let (rules_a, _c_a) = build(0);
        let (rules_b, _c_b) = build(1);
        assert_eq!(rules_a, rules_b);
    }
}
