//! Lasso specifications of temporal least fixpoints.
//!
//! For temporal rules "the relation R contains just one pair capturing the
//! periodicity of the least fixpoint" (§4): the fixpoint is eventually
//! periodic, so it is finitely represented by a prefix of `ρ` slices, a
//! cycle of `λ` slices, and the single equation `ρ ≅ ρ+λ` — the temporal
//! instance of the equational specification `(B, R)` of §3.5.

use crate::line::{self, classify, TemporalClass};
use fundb_core::engine::Engine;
use fundb_core::error::{Error, Result};
use fundb_core::gendb::AtomInterner;
use fundb_core::graphspec::GraphSpec;
use fundb_core::program::{Database, Program};
use fundb_core::state::State;
use fundb_datalog as dl;
use fundb_term::{Cst, Interner, Pred};

/// The lasso `(prefix, cycle)` representation of a temporal least fixpoint.
///
/// ```
/// use fundb_parser::Workspace;
/// use fundb_temporal::TemporalSpec;
///
/// let mut ws = Workspace::new();
/// ws.parse("Even(t) -> Even(t+2). Even(0).").unwrap();
/// let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
/// assert_eq!(spec.equation(), (0, 2));                      // the paper's R = {(0,2)}
/// let even = fundb_term::Pred(ws.interner.get("Even").unwrap());
/// assert!(spec.holds(even, 1_000_000_000_000, &[]));        // O(1) at any distance
/// ```
#[derive(Clone)]
pub struct TemporalSpec {
    /// Slices of time points `0 .. ρ`.
    pub prefix: Vec<State>,
    /// Slices of time points `ρ .. ρ+λ` (repeating forever).
    pub cycle: Vec<State>,
    /// Abstract-atom vocabulary.
    pub atoms: AtomInterner,
    /// Relational facts.
    pub nf: dl::Database,
    /// Which evaluation path produced the spec.
    pub class: TemporalClass,
}

impl TemporalSpec {
    /// Computes the specification, choosing the fast line evaluator for
    /// forward programs and the general engine otherwise.
    pub fn compute(program: &Program, db: &Database, interner: &mut Interner) -> Result<Self> {
        Self::compute_bounded(program, db, interner, 1_000_000)
    }

    /// [`TemporalSpec::compute`] with an explicit bound on the lasso search.
    pub fn compute_bounded(
        program: &Program,
        db: &Database,
        interner: &mut Interner,
        max_positions: usize,
    ) -> Result<Self> {
        match classify(program, db, interner) {
            TemporalClass::NotTemporal => Err(Error::UnsupportedQuery {
                detail: "not a temporal program (needs exactly one pure function symbol)".into(),
            }),
            TemporalClass::Forward => {
                let line = line::evaluate_forward(program, db, interner, max_positions)?;
                let rho = line.rho;
                let lambda = line.lambda;
                Ok(TemporalSpec {
                    prefix: line.states[..rho].to_vec(),
                    cycle: line.states[rho..rho + lambda].to_vec(),
                    atoms: line.atoms,
                    nf: line.nf,
                    class: TemporalClass::Forward,
                })
            }
            TemporalClass::General => {
                let mut engine = Engine::build(program, db, interner)?;
                let spec = GraphSpec::from_engine(&mut engine)?;
                let mut out = Self::from_graph_spec(&spec)?;
                out.class = TemporalClass::General;
                Ok(out)
            }
        }
    }

    /// Extracts the lasso from a general graph specification over a single
    /// function symbol: the successor graph restricted to one symbol is a
    /// ρ-shaped walk.
    pub fn from_graph_spec(spec: &GraphSpec) -> Result<Self> {
        if spec.funcs.len() != 1 {
            return Err(Error::UnsupportedQuery {
                detail: "graph specification is not over a single function symbol".into(),
            });
        }
        let f = spec.funcs.symbols()[0];
        let mut seq: Vec<State> = Vec::new();
        let mut seen: fundb_term::FxHashMap<usize, usize> = fundb_term::FxHashMap::default();
        let mut cur = spec.root();
        let (q, end) = loop {
            if let Some(&at) = seen.get(&cur.index()) {
                break (at, seq.len());
            }
            seen.insert(cur.index(), seq.len());
            seq.push(spec.nodes[cur.index()].state.clone());
            cur = spec
                .succ(cur, f)
                .expect("the successor table is total on the spec's symbols");
        };
        let mut lambda = end - q;
        // Minimize λ on the cycle states (distinct spec nodes can carry
        // equal states, because shallow terms force singleton clusters).
        for cand in 1..lambda {
            if lambda % cand == 0 && (0..lambda).all(|i| seq[q + i] == seq[q + (i + cand) % lambda])
            {
                lambda = cand;
                break;
            }
        }
        // Periodic extension phase of position n (valid for any n once the
        // period λ is established from q).
        let phase = |n: usize| ((n as i64 - q as i64).rem_euclid(lambda as i64)) as usize;
        // Minimize ρ: extend the periodicity downwards while states match.
        let mut rho = q;
        while rho > 0 && seq[rho - 1] == seq[q + phase(rho - 1)] {
            rho -= 1;
        }
        Ok(TemporalSpec {
            prefix: seq[..rho].to_vec(),
            cycle: (0..lambda)
                .map(|i| seq[q + phase(rho + i)].clone())
                .collect(),
            atoms: spec.atoms.clone(),
            nf: spec.nf.clone(),
            class: TemporalClass::General,
        })
    }

    /// The prefix length ρ.
    pub fn rho(&self) -> usize {
        self.prefix.len()
    }

    /// The period λ.
    pub fn lambda(&self) -> usize {
        self.cycle.len().max(1)
    }

    /// The single equation of the equational specification: `(ρ, ρ+λ)` —
    /// `R = {(0, 2)}` on the paper's Even example.
    pub fn equation(&self) -> (usize, usize) {
        (self.rho(), self.rho() + self.lambda())
    }

    /// The slice of time point `n`.
    pub fn state_at(&self, n: u64) -> &State {
        static EMPTY: std::sync::OnceLock<State> = std::sync::OnceLock::new();
        if (n as usize) < self.prefix.len() {
            return &self.prefix[n as usize];
        }
        if self.cycle.is_empty() {
            return EMPTY.get_or_init(State::new);
        }
        let k = (n as usize - self.prefix.len()) % self.cycle.len();
        &self.cycle[k]
    }

    /// Yes-no membership `P(n, ā)` — works for arbitrarily large `n`.
    pub fn holds(&self, pred: Pred, n: u64, args: &[Cst]) -> bool {
        self.atoms
            .get(pred, args)
            .is_some_and(|id| self.state_at(n).contains(id))
    }

    /// Yes-no membership for a relational tuple.
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.nf.contains(pred, args)
    }

    /// Total number of tuples stored (the `B` of the temporal spec).
    pub fn primary_size(&self) -> usize {
        self.prefix
            .iter()
            .chain(self.cycle.iter())
            .map(State::len)
            .sum::<usize>()
            + self.nf.fact_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_core::program::{Atom, FTerm, NTerm, Rule};
    use fundb_term::{Func, Var};

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    fn succ_chain(s: Func, base: FTerm, n: usize) -> FTerm {
        let mut t = base;
        for _ in 0..n {
            t = FTerm::Pure(s, Box::new(t));
        }
        t
    }

    /// §3.5 Even: the temporal spec is the paper's R = {(0,2)} exactly.
    #[test]
    fn even_has_equation_zero_two() {
        let mut i = Interner::new();
        let even = Pred(i.intern("Even"));
        let s = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(even, succ_chain(s, FTerm::Var(t), 2), vec![]),
            vec![fat(even, FTerm::Var(t), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(even, FTerm::Zero, vec![]));
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        assert_eq!(spec.class, TemporalClass::Forward);
        assert_eq!(spec.equation(), (0, 2));
        for n in 0..100u64 {
            assert_eq!(spec.holds(even, n, &[]), n % 2 == 0, "n={n}");
        }
        assert!(spec.holds(even, 1_000_000_000_000, &[]));
        assert!(!spec.holds(even, 1_000_000_000_001, &[]));
    }

    /// The Meets example through the fast path, checked against the general
    /// engine.
    #[test]
    fn meets_fast_path_agrees_with_engine() {
        let mut i = Interner::new();
        let meets = Pred(i.intern("Meets"));
        let next = Pred(i.intern("Next"));
        let s = Func(i.intern("+1"));
        let (t, x, y) = (Var(i.intern("t")), Var(i.intern("x")), Var(i.intern("y")));
        let (tony, jan) = (Cst(i.intern("Tony")), Cst(i.intern("Jan")));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(meets, succ_chain(s, FTerm::Var(t), 1), vec![NTerm::Var(y)]),
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
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        assert_eq!(spec.class, TemporalClass::Forward);
        assert_eq!(spec.equation(), (0, 2));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        engine.solve().unwrap();
        for n in 0..40u64 {
            for who in [tony, jan] {
                assert_eq!(
                    spec.holds(meets, n, &[who]),
                    engine.holds(meets, &vec![s; n as usize], &[who]),
                    "n={n}"
                );
            }
        }
    }

    /// A +2 rule whose single-state lasso would be wrong: A(t) → B(t+2).
    /// The window-based detection keeps the spec correct.
    #[test]
    fn window_detection_handles_offset_two() {
        let mut i = Interner::new();
        let a = Pred(i.intern("A"));
        let b = Pred(i.intern("B"));
        let s = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(b, succ_chain(s, FTerm::Var(t), 2), vec![]),
            vec![fat(a, FTerm::Var(t), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(a, FTerm::Zero, vec![]));
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        assert!(spec.holds(a, 0, &[]));
        assert!(spec.holds(b, 2, &[]));
        for n in [1u64, 3, 4, 5, 100] {
            assert!(!spec.holds(b, n, &[]), "B({n}) must not hold");
            if n > 0 {
                assert!(!spec.holds(a, n, &[]), "A({n}) must not hold");
            }
        }
    }

    /// A backward temporal rule goes through the general path and still
    /// yields a correct lasso.
    #[test]
    fn backward_rules_use_general_path() {
        let mut i = Interner::new();
        let a = Pred(i.intern("A"));
        let c = Pred(i.intern("C"));
        let s = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
        let mut prog = Program::new();
        // A(t) → A(t+1)  (A everywhere from 0)
        prog.push(Rule::new(
            fat(a, succ_chain(s, FTerm::Var(t), 1), vec![]),
            vec![fat(a, FTerm::Var(t), vec![])],
        ));
        // A(t+1) → C(t)  (backward)
        prog.push(Rule::new(
            fat(c, FTerm::Var(t), vec![]),
            vec![fat(a, succ_chain(s, FTerm::Var(t), 1), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(a, FTerm::Zero, vec![]));
        assert_eq!(classify(&prog, &db, &i), TemporalClass::General);
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        for n in 0..20u64 {
            assert!(spec.holds(a, n, &[]), "A({n})");
            assert!(spec.holds(c, n, &[]), "C({n})");
        }
    }

    /// Relational facts derived from temporal ones (a rule with a
    /// relational head) are collected.
    #[test]
    fn relational_heads_are_derived() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let hit = Pred(i.intern("Hit"));
        let s = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
        let x = Var(i.intern("x"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(p, succ_chain(s, FTerm::Var(t), 1), vec![NTerm::Var(x)]),
            vec![fat(p, FTerm::Var(t), vec![NTerm::Var(x)])],
        ));
        // P(t+1, x) → Hit(x): forward (relational head reads offset 1).
        prog.push(Rule::new(
            Atom::Relational {
                pred: hit,
                args: vec![NTerm::Var(x)],
            },
            vec![fat(p, succ_chain(s, FTerm::Var(t), 1), vec![NTerm::Var(x)])],
        ));
        let mut db = Database::new();
        let aconst = Cst(i.intern("A"));
        db.facts
            .push(fat(p, FTerm::Zero, vec![NTerm::Const(aconst)]));
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        assert!(spec.holds_relational(hit, &[aconst]));
    }

    /// Lassos with non-trivial prefixes: A dies out after position 3.
    #[test]
    fn finite_fixpoints_have_empty_cycle_states() {
        let mut i = Interner::new();
        let a = Pred(i.intern("A"));
        let b = Pred(i.intern("B"));
        let s = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
        let mut prog = Program::new();
        // A(t) → B(t+1): one step, no recursion.
        prog.push(Rule::new(
            fat(b, succ_chain(s, FTerm::Var(t), 1), vec![]),
            vec![fat(a, FTerm::Var(t), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(a, succ_chain(s, FTerm::Zero, 3), vec![]));
        let spec = TemporalSpec::compute(&prog, &db, &mut i).unwrap();
        assert!(spec.holds(a, 3, &[]));
        assert!(spec.holds(b, 4, &[]));
        assert!(!spec.holds(b, 5, &[]));
        // The cycle is a single empty state.
        assert_eq!(spec.lambda(), 1);
        assert!(spec.cycle.iter().all(State::is_empty));
    }
}
