//! Sort inference and elaboration into the typed core AST.
//!
//! The neutral parse tree does not distinguish functional from relational
//! predicates. Elaboration infers the distinction to a fixpoint:
//!
//! * a predicate whose first argument is ever a number, a `+n` term, or a
//!   function application is **functional**;
//! * a variable occurring as the first argument of a functional predicate
//!   (or inside the functional position of an application) is a
//!   **functional variable**;
//! * a predicate whose first argument is a known functional variable is
//!   functional too.
//!
//! `functional Name/arity.` declarations pre-seed the inference.

use crate::syntax::{PAtom, PRule, PStatement, PTerm};
use fundb_core::error::{Error, Result};
use fundb_core::program::{Atom, Database, FTerm, NTerm, Program, Rule};
use fundb_core::query::Query;
use fundb_term::{Cst, Func, FxHashMap, FxHashSet, Interner, MixedSym, Pred, Var};

/// Persistent elaboration state (predicate kinds survive across `parse`
/// calls so later fact or query strings agree with the program).
#[derive(Default, Clone, Debug)]
pub struct Elaborator {
    functional: FxHashSet<String>,
    declared_arity: FxHashMap<String, usize>,
}

impl Elaborator {
    /// Creates an empty elaborator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces a predicate to be treated as functional — used when the kinds
    /// come from an external source (e.g. a loaded specification file)
    /// rather than from syntactic evidence.
    pub fn force_functional(&mut self, pred: &str) {
        self.functional.insert(pred.to_string());
    }

    /// Absorbs kind evidence from statements, iterating to a fixpoint.
    pub fn absorb(&mut self, stmts: &[PStatement]) {
        let mut atoms: Vec<&PAtom> = Vec::new();
        for s in stmts {
            match s {
                PStatement::Rule(r) => {
                    atoms.push(&r.head);
                    atoms.extend(r.body.iter());
                }
                PStatement::Query(body) => atoms.extend(body.iter()),
                PStatement::FunctionalDecl { name, arity } => {
                    self.functional.insert(name.clone());
                    self.declared_arity.insert(name.clone(), *arity);
                }
            }
        }
        // Direct syntactic evidence.
        for a in &atoms {
            if matches!(
                a.args.first(),
                Some(PTerm::Num(_)) | Some(PTerm::Plus(..)) | Some(PTerm::App(..))
            ) {
                self.functional.insert(a.pred.clone());
            }
        }
        // Propagate through shared variables.
        let mut fvars: FxHashSet<String> = FxHashSet::default();
        loop {
            let mut changed = false;
            for a in &atoms {
                if self.functional.contains(&a.pred) {
                    if let Some(first) = a.args.first() {
                        changed |= collect_spine_vars(first, &mut fvars);
                    }
                } else if let Some(PTerm::Ident(v)) = a.args.first() {
                    if is_var_name(v) && fvars.contains(v) && self.functional.insert(a.pred.clone())
                    {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Elaborates one statement batch into program rules, database facts
    /// and queries.
    pub fn elaborate(
        &self,
        stmts: &[PStatement],
        interner: &mut Interner,
        program: &mut Program,
        db: &mut Database,
        queries: &mut Vec<Query>,
    ) -> Result<()> {
        for s in stmts {
            match s {
                PStatement::FunctionalDecl { .. } => {}
                PStatement::Rule(r) => {
                    let rule = self.rule(r, interner)?;
                    if rule.body.is_empty() && rule.head.is_ground() {
                        db.insert(rule.head, interner)?;
                    } else {
                        program.push(rule);
                    }
                }
                PStatement::Query(body) => {
                    queries.push(self.query(body, interner)?);
                }
            }
        }
        Ok(())
    }

    /// Elaborates a query body, taking all variables (in order of first
    /// occurrence) as outputs.
    pub fn query(&self, body: &[PAtom], interner: &mut Interner) -> Result<Query> {
        let atoms: Vec<Atom> = body
            .iter()
            .map(|a| self.atom(a, interner))
            .collect::<Result<_>>()?;
        let mut out_fvar = None;
        let mut out_nvars = Vec::new();
        let mut seen: FxHashSet<Var> = FxHashSet::default();
        for atom in &atoms {
            if let Some(v) = atom.spine_var() {
                if seen.insert(v) && out_fvar.is_none() {
                    out_fvar = Some(v);
                }
            }
            for v in atom.nvars() {
                if seen.insert(v) {
                    out_nvars.push(v);
                }
            }
        }
        let q = Query {
            out_fvar,
            out_nvars,
            body: atoms,
        };
        q.validate(interner)?;
        Ok(q)
    }

    /// Elaborates a single rule.
    pub fn rule(&self, r: &PRule, interner: &mut Interner) -> Result<Rule> {
        Ok(Rule::new(
            self.atom(&r.head, interner)?,
            r.body
                .iter()
                .map(|a| self.atom(a, interner))
                .collect::<Result<_>>()?,
        ))
    }

    /// Elaborates a single atom.
    pub fn atom(&self, a: &PAtom, interner: &mut Interner) -> Result<Atom> {
        let pred = Pred(interner.intern(&a.pred));
        if let Some(&arity) = self.declared_arity.get(&a.pred) {
            if a.args.len() != arity {
                return Err(Error::Parse {
                    offset: a.offset,
                    detail: format!(
                        "{} declared with arity {arity} but used with {}",
                        a.pred,
                        a.args.len()
                    ),
                });
            }
        }
        if self.functional.contains(&a.pred) {
            let Some((first, rest)) = a.args.split_first() else {
                return Err(Error::Parse {
                    offset: a.offset,
                    detail: format!("functional predicate {} needs a first argument", a.pred),
                });
            };
            Ok(Atom::Functional {
                pred,
                fterm: self.fterm(first, a.offset, &mut 0, interner)?,
                args: rest
                    .iter()
                    .map(|t| self.nterm(t, a.offset, interner))
                    .collect::<Result<_>>()?,
            })
        } else {
            Ok(Atom::Relational {
                pred,
                args: a
                    .args
                    .iter()
                    .map(|t| self.nterm(t, a.offset, interner))
                    .collect::<Result<_>>()?,
            })
        }
    }

    /// Elaborates a functional term; `steps` counts the successor steps
    /// its numerals and `+n` offsets have added so far.
    fn fterm(
        &self,
        t: &PTerm,
        offset: usize,
        steps: &mut u64,
        interner: &mut Interner,
    ) -> Result<FTerm> {
        Ok(match t {
            PTerm::Num(n) => iterate_succ(FTerm::Zero, *n, offset, steps, interner)?,
            PTerm::Plus(base, n) => {
                let inner = self.fterm(base, offset, steps, interner)?;
                iterate_succ(inner, *n, offset, steps, interner)?
            }
            PTerm::Ident(name) => {
                if is_var_name(name) {
                    FTerm::Var(Var(interner.intern(name)))
                } else {
                    return Err(Error::Parse {
                        offset,
                        detail: format!(
                            "constant `{name}` cannot appear in a functional position \
                             (only `0`, variables and function applications can)"
                        ),
                    });
                }
            }
            PTerm::App(f, args) => {
                let Some((first, rest)) = args.split_first() else {
                    return Err(Error::Parse {
                        offset,
                        detail: format!("function symbol `{f}` needs arguments"),
                    });
                };
                let inner = self.fterm(first, offset, steps, interner)?;
                if rest.is_empty() {
                    FTerm::Pure(Func(interner.intern(f)), Box::new(inner))
                } else {
                    let extra = u8::try_from(rest.len()).map_err(|_| Error::Parse {
                        offset,
                        detail: "function arity too large".into(),
                    })?;
                    FTerm::Mixed(
                        MixedSym {
                            name: interner.intern(f),
                            extra_args: extra,
                        },
                        Box::new(inner),
                        rest.iter()
                            .map(|t| self.nterm(t, offset, interner))
                            .collect::<Result<_>>()?,
                    )
                }
            }
        })
    }

    fn nterm(&self, t: &PTerm, offset: usize, interner: &mut Interner) -> Result<NTerm> {
        match t {
            PTerm::Ident(name) => {
                if is_var_name(name) {
                    Ok(NTerm::Var(Var(interner.intern(name))))
                } else {
                    Ok(NTerm::Const(Cst(interner.intern(name))))
                }
            }
            PTerm::Num(_) | PTerm::Plus(..) | PTerm::App(..) => Err(Error::Parse {
                offset,
                detail: "functional term in a non-functional position".into(),
            }),
        }
    }
}

fn is_var_name(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
}

/// The implicit temporal successor symbol.
pub(crate) fn succ_symbol(interner: &mut Interner) -> Func {
    Func(interner.intern("+1"))
}

/// The most successor steps the numerals and `+n` offsets of one
/// functional term may add. Every step is a boxed term node, so an
/// unchecked `u64` from the input could exhaust memory; the bound sits
/// above the million-deep terms the pipeline tests use.
const MAX_SUCC_STEPS: u64 = 1 << 20;

/// Wraps `t` in `n` successor applications, charging them to `steps`.
fn iterate_succ(
    mut t: FTerm,
    n: u64,
    offset: usize,
    steps: &mut u64,
    interner: &mut Interner,
) -> Result<FTerm> {
    *steps = steps.saturating_add(n);
    if *steps > MAX_SUCC_STEPS {
        return Err(Error::Parse {
            offset,
            detail: format!(
                "functional term too deep: its numerals and offsets add more than \
                 {MAX_SUCC_STEPS} successor steps"
            ),
        });
    }
    let s = succ_symbol(interner);
    for _ in 0..n {
        t = FTerm::Pure(s, Box::new(t));
    }
    Ok(t)
}

/// Records variables in functional (spine) positions; returns whether any
/// was new.
fn collect_spine_vars(t: &PTerm, fvars: &mut FxHashSet<String>) -> bool {
    match t {
        PTerm::Num(_) => false,
        PTerm::Ident(v) => is_var_name(v) && fvars.insert(v.clone()),
        PTerm::Plus(base, _) => collect_spine_vars(base, fvars),
        PTerm::App(_, args) => args
            .first()
            .is_some_and(|first| collect_spine_vars(first, fvars)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::parse_source;

    fn elaborate_all(src: &str) -> Result<(Interner, Program, Database, Vec<Query>)> {
        let stmts = parse_source(src)?;
        let mut el = Elaborator::new();
        el.absorb(&stmts);
        let mut interner = Interner::new();
        let mut program = Program::new();
        let mut db = Database::new();
        let mut queries = Vec::new();
        el.elaborate(&stmts, &mut interner, &mut program, &mut db, &mut queries)?;
        Ok((interner, program, db, queries))
    }

    #[test]
    fn meets_example_elaborates() {
        let (i, program, db, _) = elaborate_all(
            "Meets(t, x), Next(x, y) -> Meets(t+1, y).\n\
             Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
        )
        .unwrap();
        assert_eq!(program.rules.len(), 1);
        assert_eq!(db.len(), 3);
        let rule = &program.rules[0];
        assert!(rule.head.fterm().is_some(), "Meets inferred functional");
        assert!(rule.body[1].fterm().is_none(), "Next stays relational");
        // The renderer folds the implicit successor back into the paper's
        // postfix sugar, so concrete syntax round-trips.
        assert_eq!(
            fundb_core::program::display_rule(rule, &i).to_string(),
            "Meets(t,x), Next(x,y) -> Meets(t+1,y)."
        );
    }

    #[test]
    fn kind_inference_propagates_through_variables() {
        // Q is functional only via sharing the variable s with P.
        let (_, program, _, _) =
            elaborate_all("P(s(t)) -> P(t).\nP(u), Q(u) -> R.\nQ(0).").unwrap();
        // Q(u) must have elaborated functionally (same var as functional P).
        let rule2 = &program.rules[1];
        assert!(rule2.body.iter().all(|a| a.fterm().is_some()));
    }

    #[test]
    fn numbers_desugar_to_succ_chains() {
        let (i, _, db, _) = elaborate_all("Even(4).").unwrap();
        let ft = db.facts[0].fterm().unwrap();
        assert_eq!(ft.depth(), 4);
        let path = ft.pure_path().unwrap();
        assert!(path.iter().all(|f| i.resolve(f.sym()) == "+1"));
    }

    #[test]
    fn mixed_symbols_elaborate() {
        let (_, program, _, _) = elaborate_all("P(x) -> Member(ext(0, x), x).\nP(A).").unwrap();
        let head = &program.rules[0].head;
        assert!(matches!(head.fterm(), Some(FTerm::Mixed(..))));
    }

    #[test]
    fn queries_collect_outputs() {
        let (_, _, _, queries) =
            elaborate_all("Meets(0, Tony).\nMeets(t, x) -> Meets(t+1, x).\n?- Meets(t, x).")
                .unwrap();
        assert_eq!(queries.len(), 1);
        assert!(queries[0].out_fvar.is_some());
        assert_eq!(queries[0].out_nvars.len(), 1);
    }

    #[test]
    fn constants_rejected_in_functional_position() {
        let err = elaborate_all("P(0).\nP(Tony).").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn functional_terms_rejected_in_relational_position() {
        let err = elaborate_all("Next(Tony, f(0)).").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn declaration_forces_kind_and_arity() {
        let (_, program, _, _) = elaborate_all("functional P/1.\nP(t) -> Q(t).").unwrap();
        assert!(program.rules[0].body[0].fterm().is_some());
        let err = elaborate_all("functional P/2.\nP(t) -> Q(t).").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }
}
