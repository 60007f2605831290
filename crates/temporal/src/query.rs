//! §5 query answering over temporal lassos.
//!
//! For a temporal program the incremental specification of a uniform query
//! `{(t, x̄) : body}` (Theorem 5.1) is itself a lasso: the query is answered
//! by [`Query::answer_incremental`] over the lasso's graph specification,
//! and the per-cluster answer is read back along the successor walk and
//! cut to its own minimal `(ρ′, λ′)`, which can be shorter than the
//! spec's. Membership for any time point — however large — is then O(1),
//! and enumeration walks the time line directly.

use crate::spec::{lasso_at, lasso_walk, TemporalSpec};
use fundb_core::error::{Error, Result};
use fundb_core::query::{IncrementalAnswer, Query};
use fundb_term::{Cst, Interner};

/// The lasso-shaped answer to a uniform temporal query.
#[derive(Clone, Debug)]
pub struct TemporalAnswer {
    /// Answer tuples at each prefix time point `0 .. ρ′`.
    pub prefix: Vec<Vec<Vec<Cst>>>,
    /// Answer tuples at each cycle phase `ρ′ .. ρ′+λ′` (repeating forever).
    pub cycle: Vec<Vec<Vec<Cst>>>,
}

impl TemporalAnswer {
    /// Evaluates a uniform query with a functional output variable against
    /// a temporal specification computed with `interner`.
    pub fn evaluate(
        query: &Query,
        spec: &TemporalSpec,
        interner: &Interner,
    ) -> Result<TemporalAnswer> {
        let graph = spec.graph_spec()?;
        let IncrementalAnswer::PerCluster(map) = query.answer_incremental(&graph, interner)? else {
            return Err(Error::UnsupportedQuery {
                detail: "a temporal answer needs a functional output variable".into(),
            });
        };
        let (prefix, cycle) = lasso_walk(&graph, |node| {
            let mut tuples: Vec<Vec<Cst>> = map.get(&node).into_iter().flatten().cloned().collect();
            tuples.sort_unstable();
            tuples
        })?;
        Ok(TemporalAnswer { prefix, cycle })
    }

    /// The answer tuples at time point `n` (any magnitude).
    pub fn at(&self, n: u64) -> &[Vec<Cst>] {
        lasso_at(&self.prefix, &self.cycle, n).map_or(&[], Vec::as_slice)
    }

    /// Whether `(n, tuple)` is an answer.
    pub fn holds(&self, n: u64, tuple: &[Cst]) -> bool {
        self.at(n).iter().any(|t| t == tuple)
    }

    /// Enumerates `(n, tuple)` answers in time order, up to `limit`.
    /// Stops early when the answer is finite (an empty cycle).
    pub fn enumerate(&self, limit: usize) -> Vec<(u64, Vec<Cst>)> {
        let horizon = if self.is_finite() {
            self.prefix.len() as u64
        } else {
            u64::MAX
        };
        (0..horizon)
            .flat_map(|n| self.at(n).iter().map(move |t| (n, t.clone())))
            .take(limit)
            .collect()
    }

    /// Whether the answer set is finite.
    pub fn is_finite(&self) -> bool {
        self.cycle.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_core::program::{Atom, Database, FTerm, NTerm, Program, Rule};
    use fundb_term::{Func, Interner, Pred, Var};

    fn meets() -> (Interner, Program, Database, Pred, Var, Var, Cst, Cst) {
        let mut i = Interner::new();
        let meets = Pred(i.intern("Meets"));
        let next = Pred(i.intern("Next"));
        let s = Func(i.intern("+1"));
        let (t, x, y) = (Var(i.intern("t")), Var(i.intern("x")), Var(i.intern("y")));
        let (tony, jan) = (Cst(i.intern("Tony")), Cst(i.intern("Jan")));
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Functional {
                pred: meets,
                fterm: FTerm::Pure(s, Box::new(FTerm::Var(t))),
                args: vec![NTerm::Var(y)],
            },
            vec![
                Atom::Functional {
                    pred: meets,
                    fterm: FTerm::Var(t),
                    args: vec![NTerm::Var(x)],
                },
                Atom::Relational {
                    pred: next,
                    args: vec![NTerm::Var(x), NTerm::Var(y)],
                },
            ],
        ));
        let mut db = Database::new();
        db.facts.push(Atom::Functional {
            pred: meets,
            fterm: FTerm::Zero,
            args: vec![NTerm::Const(tony)],
        });
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(tony), NTerm::Const(jan)],
        });
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(jan), NTerm::Const(tony)],
        });
        (i, prog, db, meets, t, x, tony, jan)
    }

    #[test]
    fn lasso_answers_meets_query() {
        let (mut i, prog, db, meets, t, x, tony, jan) = meets();
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        let q = Query {
            out_fvar: Some(t),
            out_nvars: vec![x],
            body: vec![Atom::Functional {
                pred: meets,
                fterm: FTerm::Var(t),
                args: vec![NTerm::Var(x)],
            }],
        };
        let ans = TemporalAnswer::evaluate(&q, &spec, &i).unwrap();
        assert!(!ans.is_finite());
        for n in 0..50u64 {
            assert_eq!(ans.holds(n, &[tony]), n % 2 == 0);
            assert_eq!(ans.holds(n, &[jan]), n % 2 == 1);
        }
        // O(1) at astronomical distance.
        assert!(ans.holds(1_000_000_000_000, &[tony]));
        // Enumeration in time order.
        let e = ans.enumerate(4);
        assert_eq!(
            e,
            vec![
                (0, vec![tony]),
                (1, vec![jan]),
                (2, vec![tony]),
                (3, vec![jan])
            ]
        );
    }

    #[test]
    fn finite_answers_terminate_enumeration() {
        let mut i = Interner::new();
        let a = Pred(i.intern("A"));
        let b = Pred(i.intern("B"));
        let s = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
        let mut prog = Program::new();
        // A(t) → B(t+1), no recursion.
        prog.push(Rule::new(
            Atom::Functional {
                pred: b,
                fterm: FTerm::Pure(s, Box::new(FTerm::Var(t))),
                args: vec![],
            },
            vec![Atom::Functional {
                pred: a,
                fterm: FTerm::Var(t),
                args: vec![],
            }],
        ));
        let mut db = Database::new();
        db.facts.push(Atom::Functional {
            pred: a,
            fterm: FTerm::Zero,
            args: vec![],
        });
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        let q = Query {
            out_fvar: Some(t),
            out_nvars: vec![],
            body: vec![Atom::Functional {
                pred: b,
                fterm: FTerm::Var(t),
                args: vec![],
            }],
        };
        let ans = TemporalAnswer::evaluate(&q, &spec, &i).unwrap();
        assert!(ans.is_finite());
        assert_eq!(ans.enumerate(100), vec![(1, vec![])]);
    }

    #[test]
    fn conjunctive_temporal_query() {
        let (mut i, prog, db, meets, t, x, tony, _) = meets();
        let senior = Pred(i.intern("Senior"));
        let mut db = db;
        db.facts.push(Atom::Relational {
            pred: senior,
            args: vec![NTerm::Const(tony)],
        });
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        // {t : Meets(t,x), Senior(x)}.
        let q = Query {
            out_fvar: Some(t),
            out_nvars: vec![],
            body: vec![
                Atom::Functional {
                    pred: meets,
                    fterm: FTerm::Var(t),
                    args: vec![NTerm::Var(x)],
                },
                Atom::Relational {
                    pred: senior,
                    args: vec![NTerm::Var(x)],
                },
            ],
        };
        let ans = TemporalAnswer::evaluate(&q, &spec, &i).unwrap();
        for n in 0..20u64 {
            assert_eq!(ans.holds(n, &[]), n % 2 == 0, "n={n}");
        }
    }

    #[test]
    fn non_uniform_rejected() {
        let (mut i, prog, db, meets, t, x, _, _) = meets();
        let s = Func(i.get("+1").unwrap());
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        let q = Query {
            out_fvar: None,
            out_nvars: vec![x],
            body: vec![Atom::Functional {
                pred: meets,
                fterm: FTerm::Pure(s, Box::new(FTerm::Var(t))),
                args: vec![NTerm::Var(x)],
            }],
        };
        assert!(TemporalAnswer::evaluate(&q, &spec, &i).is_err());
    }
}
