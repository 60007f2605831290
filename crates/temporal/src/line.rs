//! The forward line evaluator for temporal programs.
//!
//! A temporal rule with functional variable `s` mentions atoms at offsets
//! `s + a` (its functional terms are `+1`-chains over `s`). The rule is
//! *forward* when every body offset is ≤ the head offset: then the state of
//! time point `p` depends only on points ≤ `p`, and the whole line can be
//! computed left to right:
//!
//! ```text
//! σ(p) = local fixpoint of { seeds(p) } ∪
//!        { head@p of rules fired at m = p − h with bodies in σ(m+aᵢ) }
//! ```
//!
//! Because no facts live beyond the deepest database fact and rule windows
//! have width `K = max offset`, the suffix beyond `p` is determined by the
//! window `(σ(p−K+1), …, σ(p))`; a repeated window is a lasso. The detected
//! `(ρ, λ)` is then minimized, so that e.g. the Even example reports the
//! paper's `R = {(0, 2)}`.

use fundb_core::error::{Error, Result};
use fundb_core::gendb::AtomInterner;
use fundb_core::program::{Atom, Database, FTerm, NTerm, Program, Rule, Schema};
use fundb_core::state::State;
use fundb_datalog as dl;
use fundb_term::{Cst, FxHashMap, Interner, Pred, Var};

/// How a temporal program can be evaluated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TemporalClass {
    /// Forward program: the fast line evaluator applies.
    Forward,
    /// Temporal but not forward (some body offset exceeds its head's, a
    /// ground functional term in a rule, or several functional variables):
    /// use the general engine and extract the lasso from its graph
    /// specification.
    General,
    /// Not temporal at all (more than one pure symbol, or mixed symbols).
    NotTemporal,
}

/// Classifies a program + database.
pub fn classify(program: &Program, db: &Database, interner: &Interner) -> TemporalClass {
    let Ok(schema) = Schema::infer(program, db, interner) else {
        return TemporalClass::NotTemporal;
    };
    if schema.pure_syms.len() > 1 || !schema.mixed_syms.is_empty() {
        return TemporalClass::NotTemporal;
    }
    let mut class = TemporalClass::Forward;
    for rule in &program.rules {
        if classify_rule(rule) == TemporalClass::General {
            class = TemporalClass::General;
        }
    }
    class
}

fn classify_rule(rule: &Rule) -> TemporalClass {
    if rule.functional_vars().len() > 1 {
        return TemporalClass::General;
    }
    // Ground functional terms anywhere in a rule: general path.
    for atom in std::iter::once(&rule.head).chain(&rule.body) {
        if let Some(ft) = atom.fterm() {
            if ft.is_ground() {
                return TemporalClass::General;
            }
        }
    }
    let head_off = match rule.head.fterm() {
        Some(ft) => match offset_of(ft) {
            Some(h) => Some(h),
            None => return TemporalClass::General,
        },
        None => None,
    };
    for atom in &rule.body {
        if let Some(ft) = atom.fterm() {
            let Some(a) = offset_of(ft) else {
                return TemporalClass::General;
            };
            if let Some(h) = head_off {
                if a > h {
                    return TemporalClass::General;
                }
            }
            // Relational head: any offsets are fine (the rule only reads).
        }
    }
    TemporalClass::Forward
}

/// Offset of a non-ground temporal term (`+1`-chain over a variable), if
/// that is what the term is.
fn offset_of(ft: &FTerm) -> Option<usize> {
    let mut cur = ft;
    let mut n = 0usize;
    loop {
        match cur {
            FTerm::Var(_) => return Some(n),
            FTerm::Pure(_, t) => {
                n += 1;
                cur = t;
            }
            FTerm::Zero | FTerm::Mixed(..) => return None,
        }
    }
}

/// A compiled temporal rule.
struct TRule {
    head: THead,
    body: Vec<TAtom>,
    /// Max body offset: the rule's window reaches `m + max_off`.
    max_off: usize,
}

enum THead {
    /// Functional head at `s + offset`.
    At(Pred, usize, Vec<NTerm>),
    /// Relational head.
    Relational(Pred, Vec<NTerm>),
}

struct TAtom {
    pred: Pred,
    /// `Some(offset)` — functional at `s + offset`; `None` — relational.
    offset: Option<usize>,
    args: Vec<NTerm>,
}

/// Database facts grouped by time point.
type Seeds = FxHashMap<usize, Vec<(Pred, Box<[Cst]>)>>;

/// The computed line: states per position plus the lasso parameters.
pub(crate) struct Line {
    pub states: Vec<State>,
    pub rho: usize,
    pub lambda: usize,
    pub atoms: AtomInterner,
    pub nf: dl::Database,
}

/// Runs the forward line evaluator. `max_positions` bounds the search for a
/// lasso (the theoretical bound is exponential; practical programs repeat
/// quickly).
pub(crate) fn evaluate_forward(
    program: &Program,
    db: &Database,
    interner: &Interner,
    max_positions: usize,
) -> Result<Line> {
    debug_assert_eq!(classify(program, db, interner), TemporalClass::Forward);

    let mut atoms = AtomInterner::new();
    let mut seeds: Seeds = FxHashMap::default();
    let mut nf = dl::Database::new();
    let mut max_fact_pos = 0usize;
    for fact in &db.facts {
        match fact {
            Atom::Functional { pred, fterm, args } => {
                let pos = fterm.depth();
                max_fact_pos = max_fact_pos.max(pos);
                let row: Box<[Cst]> = args.iter().map(|a| a.as_const().unwrap()).collect();
                seeds.entry(pos).or_default().push((*pred, row));
            }
            Atom::Relational { pred, args } => {
                let row: Vec<Cst> = args.iter().map(|a| a.as_const().unwrap()).collect();
                nf.insert(*pred, &row);
            }
        }
    }

    // Compile rules; purely relational ones run as plain Datalog.
    let mut trules: Vec<TRule> = Vec::new();
    let mut pure_datalog: Vec<dl::Rule> = Vec::new();
    let conv = |ts: &[NTerm]| {
        ts.iter()
            .map(|t| match t {
                NTerm::Var(v) => dl::Term::Var(*v),
                NTerm::Const(c) => dl::Term::Const(*c),
            })
            .collect::<Vec<_>>()
    };
    for rule in &program.rules {
        let body: Vec<TAtom> = rule
            .body
            .iter()
            .map(|a| TAtom {
                pred: a.pred(),
                offset: a.fterm().and_then(offset_of),
                args: a.args().to_vec(),
            })
            .collect();
        let max_off = body.iter().filter_map(|a| a.offset).max();
        match (max_off, rule.head.fterm()) {
            (None, None) => {
                pure_datalog.push(dl::Rule::new(
                    dl::Atom::new(rule.head.pred(), conv(rule.head.args())),
                    rule.body
                        .iter()
                        .map(|a| dl::Atom::new(a.pred(), conv(a.args())))
                        .collect(),
                ));
            }
            (m, head_ft) => {
                let head = match head_ft {
                    Some(ft) => THead::At(
                        rule.head.pred(),
                        offset_of(ft).expect("forward class checked"),
                        rule.head.args().to_vec(),
                    ),
                    None => THead::Relational(rule.head.pred(), rule.head.args().to_vec()),
                };
                trules.push(TRule {
                    head,
                    body,
                    max_off: m.unwrap_or(0),
                });
            }
        }
    }
    let window = trules
        .iter()
        .map(|r| {
            let h = match &r.head {
                THead::At(_, h, _) => *h,
                THead::Relational(..) => 0,
            };
            r.max_off.max(h)
        })
        .max()
        .unwrap_or(0)
        .max(1);

    // Outer loop over the (finite, monotone) non-functional store.
    loop {
        dl::evaluate(&mut nf, &pure_datalog)?;
        let nf_before = nf.fact_count();

        let mut states: Vec<State> = Vec::new();
        let mut sigs: FxHashMap<Vec<State>, usize> = FxHashMap::default();
        let mut lasso: Option<(usize, usize)> = None;

        while lasso.is_none() {
            let p = states.len();
            if p > max_positions {
                return Err(Error::UnsupportedQuery {
                    detail: format!("no lasso within {max_positions} time points; raise the bound"),
                });
            }
            step_position(&trules, &seeds, &mut states, &mut nf, &mut atoms);
            if p >= max_fact_pos + window {
                let sig: Vec<State> = states[p + 1 - window..=p].to_vec();
                if let Some(&q) = sigs.get(&sig) {
                    lasso = Some((q, p - q));
                } else {
                    sigs.insert(sig, p);
                }
            }
        }

        let (q, mut lambda) = lasso.expect("loop exits with a lasso");
        // Extend one extra period so relational-head firings inside the
        // lasso have all been observed.
        let target = q + 2 * lambda + window;
        while states.len() <= target {
            step_position(&trules, &seeds, &mut states, &mut nf, &mut atoms);
        }

        if nf.fact_count() != nf_before {
            // The non-functional store grew: re-run (monotone ⇒ terminates).
            continue;
        }

        // Minimize λ (divisors), then ρ, on the computed states.
        for cand in 1..lambda {
            if lambda % cand == 0 && (q..=q + lambda).all(|i| states[i] == states[i + cand]) {
                lambda = cand;
                break;
            }
        }
        let mut rho = q;
        while rho > 0 && states[rho - 1] == states[rho - 1 + lambda] {
            rho -= 1;
        }

        return Ok(Line {
            states,
            rho,
            lambda,
            atoms,
            nf,
        });
    }
}

/// Computes σ(p) for the next position `p = states.len()`.
fn step_position(
    trules: &[TRule],
    seeds: &Seeds,
    states: &mut Vec<State>,
    nf: &mut dl::Database,
    atoms: &mut AtomInterner,
) {
    let p = states.len();
    let mut state = State::new();
    if let Some(facts) = seeds.get(&p) {
        for (pred, row) in facts {
            state.insert(atoms.intern(*pred, row));
        }
    }
    states.push(state);
    loop {
        let mut changed = false;
        for rule in trules {
            // Functional heads land at p; relational heads fire at the
            // point whose window just completed.
            let (m, is_rel) = match &rule.head {
                THead::At(_, h, _) => {
                    if p < *h {
                        continue;
                    }
                    (p - h, false)
                }
                THead::Relational(..) => {
                    if p < rule.max_off {
                        continue;
                    }
                    (p - rule.max_off, true)
                }
            };
            let mut derived: Vec<Vec<Cst>> = Vec::new();
            {
                let head_args = match &rule.head {
                    THead::At(_, _, args) | THead::Relational(_, args) => args,
                };
                let states: &[State] = states;
                // Candidate rows are borrowed from the interner / NF store —
                // no per-row clone just to read them.
                let slice = |i: usize| {
                    let atom = &rule.body[i];
                    let rows = match atom.offset {
                        Some(off) => states
                            .get(m + off)
                            .map_or_else(Vec::new, |state| state_rows(state, atoms, atom.pred)),
                        None => nf_rows(nf, atom.pred),
                    };
                    (atom.args.as_slice(), rows)
                };
                let mut subst: FxHashMap<Var, Cst> = FxHashMap::default();
                match_body(rule.body.len(), 0, &slice, &mut subst, &mut |s| {
                    derived.push(ground(head_args, s));
                });
            }
            for row in derived {
                if is_rel {
                    let THead::Relational(pred, _) = &rule.head else {
                        unreachable!()
                    };
                    if !nf.contains(*pred, &row) {
                        nf.insert(*pred, &row);
                        // NF growth is detected by the caller's outer loop.
                    }
                } else {
                    let THead::At(pred, _, _) = &rule.head else {
                        unreachable!()
                    };
                    let id = atoms.intern(*pred, &row);
                    if states[p].insert(id) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return;
        }
    }
}

fn ground(args: &[NTerm], subst: &FxHashMap<Var, Cst>) -> Vec<Cst> {
    args.iter()
        .map(|a| match a {
            NTerm::Const(c) => *c,
            NTerm::Var(v) => subst[v],
        })
        .collect()
}

/// The rows of `pred` in a state slice, borrowed from the interner.
pub(crate) fn state_rows<'a>(
    state: &'a State,
    atoms: &'a AtomInterner,
    pred: Pred,
) -> Vec<&'a [Cst]> {
    state
        .iter()
        .map(|id| atoms.resolve(id))
        .filter(|(p, _)| *p == pred)
        .map(|(_, args)| args)
        .collect()
}

/// The rows of relation `pred` of the NF store (none if it is absent).
pub(crate) fn nf_rows(nf: &dl::Database, pred: Pred) -> Vec<&[Cst]> {
    nf.relation(pred)
        .map_or_else(Vec::new, |rel| rel.rows().collect())
}

/// The crate's one body matcher: a nested-loop join of body atoms
/// `idx..len`, in order, under `subst`. `slice(i)` gives atom `i`'s
/// argument terms and its candidate rows (a time point's slice or the NF
/// store); a row of another arity never matches. `emit` sees every
/// complete binding.
pub(crate) fn match_body<'a>(
    len: usize,
    idx: usize,
    slice: &impl Fn(usize) -> (&'a [NTerm], Vec<&'a [Cst]>),
    subst: &mut FxHashMap<Var, Cst>,
    emit: &mut dyn FnMut(&FxHashMap<Var, Cst>),
) {
    if idx == len {
        emit(subst);
        return;
    }
    let (args, candidates) = slice(idx);
    for row in candidates {
        if row.len() != args.len() {
            continue;
        }
        let mut bound = Vec::new();
        let mut ok = true;
        for (t, v) in args.iter().copied().zip(row.iter().copied()) {
            match t {
                NTerm::Const(c) => {
                    if c != v {
                        ok = false;
                        break;
                    }
                }
                NTerm::Var(var) => match subst.get(&var) {
                    Some(&existing) => {
                        if existing != v {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        subst.insert(var, v);
                        bound.push(var);
                    }
                },
            }
        }
        if ok {
            match_body(len, idx + 1, slice, subst, emit);
        }
        for var in bound {
            subst.remove(&var);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_term::{Func, Var as TVar};

    #[test]
    fn offsets_extracted() {
        let mut i = Interner::new();
        let s = Func(i.intern("+1"));
        let t = TVar(i.intern("t"));
        let ft = FTerm::Pure(s, Box::new(FTerm::Pure(s, Box::new(FTerm::Var(t)))));
        assert_eq!(offset_of(&ft), Some(2));
        assert_eq!(offset_of(&FTerm::Var(t)), Some(0));
        assert_eq!(offset_of(&FTerm::Zero), None);
    }
}
