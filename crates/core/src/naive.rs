//! Bounded-depth naive materialization — the [RBS87] baseline.
//!
//! A conventional Datalog engine confronted with functional rules can only
//! ground the term universe to some depth `D` and saturate; on an unsafe
//! program the materialized answer grows without bound as `D` grows, which
//! is exactly the problem the paper's relational specifications solve (§1:
//! "a standard solution … is to detect such unsafe queries and simply
//! disallow them [RBS87]").
//!
//! [`BoundedMaterialization`] implements this baseline faithfully: every
//! ground pure term of depth ≤ D becomes a constant, every rule is
//! instantiated at every node whose star stays within depth D, and the
//! function-free substrate (`fundb-datalog`) saturates the grounding.
//!
//! It serves two roles:
//!
//! * the comparison point of experiment E9 (answer size and time diverge
//!   with D, versus the constant-size relational specification), and
//! * a differential-testing oracle: everything it derives is in the least
//!   fixpoint, so `engine ⊇ naive` must hold at every depth; and for
//!   programs whose information flows only upward (no body atom deeper than
//!   the head), it is *exact* on terms of depth ≤ D.

use crate::error::Result;
use crate::program::{Atom, FTerm, NTerm, Rule};
use crate::pure::PureProgram;
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FxHashMap, Interner, Pred};

/// Result of grounding and saturating a pure normal program to depth `D`.
pub struct BoundedMaterialization {
    /// The grounding depth `D`.
    pub depth: usize,
    /// The saturated function-free database. Functional predicates carry
    /// their term constant in the first column.
    pub db: dl::Database,
    /// Number of ground rule instances produced.
    pub ground_rules: usize,
    /// Counters of the saturating fixpoint run (rounds, probes, index
    /// hits/misses) — the baseline's cost, comparable to the engine's
    /// [`EngineStats`](crate::engine::EngineStats).
    pub eval: dl::EvalStats,
    /// Derivation provenance (present when built with
    /// [`BoundedMaterialization::run_traced`]).
    pub provenance: Option<dl::Provenance>,
    term_consts: FxHashMap<Vec<Func>, Cst>,
}

impl BoundedMaterialization {
    /// Like [`BoundedMaterialization::run`], but records derivation
    /// provenance so that [`BoundedMaterialization::explain`] can produce
    /// proofs. Within the horizon this doubles as a *why* facility for the
    /// infinite fixpoint: a derivation found at any depth is a genuine
    /// derivation in `LFP(Z, D)`.
    pub fn run_traced(pure: &PureProgram, depth: usize, interner: &mut Interner) -> Result<Self> {
        let out = Self::build(pure, depth, interner, true)?;
        debug_assert!(out.provenance.is_some());
        Ok(out)
    }

    /// Grounds `pure` to depth `D` and saturates. `D` must be ≥ the depth
    /// of the deepest ground term in the program (`c`).
    pub fn run(pure: &PureProgram, depth: usize, interner: &mut Interner) -> Result<Self> {
        Self::build(pure, depth, interner, false)
    }

    fn build(
        pure: &PureProgram,
        depth: usize,
        interner: &mut Interner,
        traced: bool,
    ) -> Result<Self> {
        assert!(
            depth >= pure.schema.max_ground_depth,
            "materialization depth must cover the program's ground terms"
        );
        // Enumerate all terms of depth ≤ D as constants.
        let mut term_consts: FxHashMap<Vec<Func>, Cst> = FxHashMap::default();
        let mut paths: Vec<Vec<Func>> = vec![vec![]];
        let mut frontier: Vec<Vec<Func>> = vec![vec![]];
        for _ in 0..depth {
            let mut next = Vec::new();
            for p in &frontier {
                for &f in &pure.schema.pure_syms {
                    let mut q = p.clone();
                    q.push(f);
                    next.push(q);
                }
            }
            paths.extend(next.iter().cloned());
            frontier = next;
        }
        for p in &paths {
            let name = format!("⟦{}⟧", render_path(p, interner));
            let c = Cst(interner.intern(&name));
            term_consts.insert(p.clone(), c);
        }

        // Ground the rules.
        let mut rules: Vec<dl::Rule> = Vec::new();
        for rule in &pure.program.rules {
            let fvars = rule.functional_vars();
            match fvars.len() {
                0 => {
                    if let Some(ground) = ground_rule(rule, None, &term_consts, depth) {
                        rules.push(ground);
                    }
                }
                1 => {
                    for node in &paths {
                        if let Some(ground) = ground_rule(rule, Some(node), &term_consts, depth) {
                            rules.push(ground);
                        }
                    }
                }
                _ => panic!("bounded materialization requires a normal program"),
            }
        }

        // Facts.
        let mut db = dl::Database::new();
        for fact in &pure.db.facts {
            match fact {
                Atom::Functional { pred, fterm, args } => {
                    // Invariant: `to_pure` rejects non-ground facts, so every
                    // fact's functional term is a pure ground path and every
                    // argument is a constant.
                    let path = fterm.pure_path().expect("pure facts are ground paths");
                    let tc = term_consts[&path];
                    let mut row = Vec::with_capacity(args.len() + 1);
                    row.push(tc);
                    row.extend(args.iter().map(|a| a.as_const().expect("facts are ground")));
                    db.insert(*pred, &row);
                }
                Atom::Relational { pred, args } => {
                    let row: Vec<Cst> = args
                        .iter()
                        .map(|a| a.as_const().expect("facts are ground"))
                        .collect();
                    db.insert(*pred, &row);
                }
            }
        }

        let ground_rules = rules.len();
        let (eval, provenance) = if traced {
            let (stats, prov) = dl::evaluate_traced(&mut db, &rules)?;
            (stats, Some(prov))
        } else {
            (dl::evaluate(&mut db, &rules)?, None)
        };
        Ok(BoundedMaterialization {
            depth,
            db,
            ground_rules,
            eval,
            provenance,
            term_consts,
        })
    }

    /// A derivation tree for a functional fact, if it holds within the
    /// horizon and the materialization was built with
    /// [`BoundedMaterialization::run_traced`].
    pub fn explain(&self, pred: Pred, path: &[Func], args: &[Cst]) -> Option<dl::Derivation> {
        let prov = self.provenance.as_ref()?;
        let &tc = self.term_consts.get(path)?;
        let mut row = Vec::with_capacity(args.len() + 1);
        row.push(tc);
        row.extend_from_slice(args);
        prov.explain(&self.db, pred, &row)
    }

    /// Membership of a functional tuple (false beyond the depth bound).
    pub fn holds(&self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(&tc) = self.term_consts.get(path) else {
            return false;
        };
        let mut row = Vec::with_capacity(args.len() + 1);
        row.push(tc);
        row.extend_from_slice(args);
        self.db.contains(pred, &row)
    }

    /// Membership of a relational tuple.
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.db.contains(pred, args)
    }

    /// Total materialized fact count — the diverging quantity of E9.
    pub fn fact_count(&self) -> usize {
        self.db.fact_count()
    }
}

fn render_path(p: &[Func], interner: &Interner) -> String {
    if p.is_empty() {
        return "0".to_string();
    }
    p.iter()
        .map(|f| interner.resolve(f.sym()))
        .collect::<Vec<_>>()
        .join(".")
}

/// Grounds one rule at node `node` (None for rules without a functional
/// variable). Returns `None` if any functional term would exceed the depth
/// bound.
fn ground_rule(
    rule: &Rule,
    node: Option<&Vec<Func>>,
    term_consts: &FxHashMap<Vec<Func>, Cst>,
    depth: usize,
) -> Option<dl::Rule> {
    let head = ground_atom(&rule.head, node, term_consts, depth)?;
    let body = rule
        .body
        .iter()
        .map(|a| ground_atom(a, node, term_consts, depth))
        .collect::<Option<Vec<_>>>()?;
    Some(dl::Rule::new(head, body))
}

fn ground_atom(
    atom: &Atom,
    node: Option<&Vec<Func>>,
    term_consts: &FxHashMap<Vec<Func>, Cst>,
    depth: usize,
) -> Option<dl::Atom> {
    let map_args = |args: &[NTerm]| -> Vec<dl::Term> {
        args.iter()
            .map(|a| match a {
                NTerm::Var(v) => dl::Term::Var(*v),
                NTerm::Const(c) => dl::Term::Const(*c),
            })
            .collect()
    };
    match atom {
        Atom::Relational { pred, args } => Some(dl::Atom::new(*pred, map_args(args))),
        Atom::Functional { pred, fterm, args } => {
            let path: Vec<Func> = match fterm {
                FTerm::Var(_) => node?.clone(),
                FTerm::Pure(f, inner) if matches!(**inner, FTerm::Var(_)) => {
                    let mut p = node?.clone();
                    p.push(*f);
                    p
                }
                ground => ground.pure_path()?,
            };
            if path.len() > depth {
                return None;
            }
            let tc = *term_consts.get(&path)?;
            let mut terms = Vec::with_capacity(args.len() + 1);
            terms.push(dl::Term::Const(tc));
            terms.extend(map_args(args));
            Some(dl::Atom::new(*pred, terms))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::program::{Database, Program};
    use crate::pure::to_pure;
    use fundb_term::Var;

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    fn even_program(i: &mut Interner) -> (Program, Database, Pred, Func) {
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
        (prog, db, even, succ)
    }

    #[test]
    fn even_materializes_to_depth() {
        let mut i = Interner::new();
        let (prog, db, even, succ) = even_program(&mut i);
        let normal = crate::normalize::normalize(&prog, &mut i);
        let pure = to_pure(&normal, &db, &mut i).unwrap();
        let mat = BoundedMaterialization::run(&pure, 10, &mut i).unwrap();
        for n in 0..=10usize {
            assert_eq!(mat.holds(even, &vec![succ; n], &[]), n % 2 == 0, "n={n}");
        }
        // Beyond the bound: nothing (the baseline's limitation).
        assert!(!mat.holds(even, &[succ; 12], &[]));
    }

    #[test]
    fn materialized_size_diverges_with_depth() {
        let mut i = Interner::new();
        let (prog, db, _, _) = even_program(&mut i);
        let normal = crate::normalize::normalize(&prog, &mut i);
        let pure = to_pure(&normal, &db, &mut i).unwrap();
        let small = BoundedMaterialization::run(&pure, 4, &mut i)
            .unwrap()
            .fact_count();
        let big = BoundedMaterialization::run(&pure, 40, &mut i)
            .unwrap()
            .fact_count();
        assert!(big > small * 5, "small={small} big={big}");
    }

    /// Soundness: everything the baseline derives is in the engine's LFP.
    #[test]
    fn naive_is_sound_wrt_engine() {
        let mut i = Interner::new();
        let (prog, db, even, succ) = even_program(&mut i);
        let normal = crate::normalize::normalize(&prog, &mut i);
        let pure = to_pure(&normal, &db, &mut i).unwrap();
        let mat = BoundedMaterialization::run(&pure, 8, &mut i).unwrap();
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        engine.solve().unwrap();
        for n in 0..=8usize {
            let path = vec![succ; n];
            if mat.holds(even, &path, &[]) {
                assert!(engine.holds(even, &path, &[]));
            }
        }
    }
}
