//! §5 query answering specialized to temporal lassos.
//!
//! For a temporal program the incremental specification of a uniform query
//! `{(t, x̄) : body}` is itself a lasso: evaluate the body against each of
//! the finitely many slices (prefix + cycle) and keep the per-phase answer
//! tuples. Membership for any time point — however large — is then O(1),
//! and enumeration walks the time line directly.

use crate::line::{lookup, match_body, state_rows, Candidates, Subst};
use crate::spec::TemporalSpec;
use fundb_core::error::{Error, Result};
use fundb_core::program::{Atom, FTerm};
use fundb_core::query::Query;
use fundb_term::{Cst, FxHashSet};

/// The lasso-shaped answer to a uniform temporal query.
#[derive(Clone, Debug)]
pub struct TemporalAnswer {
    /// Answer tuples at each prefix time point `0 .. ρ`.
    pub prefix: Vec<Vec<Vec<Cst>>>,
    /// Answer tuples at each cycle phase `ρ .. ρ+λ` (repeating forever).
    pub cycle: Vec<Vec<Vec<Cst>>>,
}

impl TemporalAnswer {
    /// Evaluates a uniform query against a temporal specification.
    ///
    /// The query must be uniform (Theorem 5.1) and any ground functional
    /// terms must be temporal (`+1`-chains over `0`).
    pub fn evaluate(query: &Query, spec: &TemporalSpec) -> Result<TemporalAnswer> {
        if !query.is_uniform() {
            return Err(Error::UnsupportedQuery {
                detail: "incremental temporal answers require a uniform query".into(),
            });
        }
        let rho = spec.rho();
        let lambda = spec.lambda();
        let eval = |n: u64| -> Vec<Vec<Cst>> {
            let slice = |i: usize| {
                let atom = &query.body[i];
                let cands = match atom {
                    Atom::Relational { pred, .. } => Candidates::Nf(spec.nf.relation(*pred)),
                    Atom::Functional { pred, fterm, .. } => {
                        // A ground temporal term's depth is its time point.
                        let at = match fterm {
                            FTerm::Var(_) => n,
                            _ => fterm.depth() as u64,
                        };
                        Candidates::Rows(state_rows(spec.state_at(at), &spec.atoms, *pred))
                    }
                };
                (atom.args(), cands)
            };
            let mut out: FxHashSet<Vec<Cst>> = FxHashSet::default();
            let mut subst = Subst::new();
            match_body(query.body.len(), 0, &slice, &mut subst, &mut |s| {
                let tuple: Vec<Cst> = query
                    .out_nvars
                    .iter()
                    .map(|v| lookup(s, *v).expect("validated query binds outputs"))
                    .collect();
                out.insert(tuple);
            });
            let mut v: Vec<Vec<Cst>> = out.into_iter().collect();
            v.sort();
            v
        };
        Ok(TemporalAnswer {
            prefix: (0..rho as u64).map(&eval).collect(),
            cycle: (rho as u64..(rho + lambda) as u64).map(&eval).collect(),
        })
    }

    /// The answer tuples at time point `n` (any magnitude).
    pub fn at(&self, n: u64) -> &[Vec<Cst>] {
        if (n as usize) < self.prefix.len() {
            return &self.prefix[n as usize];
        }
        if self.cycle.is_empty() {
            return &[];
        }
        let k = (n as usize - self.prefix.len()) % self.cycle.len();
        &self.cycle[k]
    }

    /// Whether `(n, tuple)` is an answer.
    pub fn holds(&self, n: u64, tuple: &[Cst]) -> bool {
        self.at(n).iter().any(|t| t == tuple)
    }

    /// Enumerates `(n, tuple)` answers in time order, up to `limit`.
    /// Stops early when the answer is finite (an empty cycle).
    pub fn enumerate(&self, limit: usize) -> Vec<(u64, Vec<Cst>)> {
        let mut out = Vec::new();
        let cycle_empty = self.cycle.iter().all(Vec::is_empty);
        let horizon = if cycle_empty {
            self.prefix.len() as u64
        } else {
            u64::MAX
        };
        let mut n = 0u64;
        while out.len() < limit && n < horizon {
            for t in self.at(n) {
                if out.len() >= limit {
                    break;
                }
                out.push((n, t.clone()));
            }
            n += 1;
        }
        out
    }

    /// Whether the answer set is finite.
    pub fn is_finite(&self) -> bool {
        self.cycle.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_core::program::{Database, NTerm, Program, Rule};
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
        let ans = TemporalAnswer::evaluate(&q, &spec).unwrap();
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
        let ans = TemporalAnswer::evaluate(&q, &spec).unwrap();
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
        let ans = TemporalAnswer::evaluate(&q, &spec).unwrap();
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
        assert!(TemporalAnswer::evaluate(&q, &spec).is_err());
    }
}
