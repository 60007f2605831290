//! The forward line evaluator for temporal programs.
//!
//! A temporal rule with functional variable `s` mentions atoms at offsets
//! `s + a` (its functional terms are `+1`-chains over `s`). The rule is
//! *forward* when every body offset is ≤ the head offset: then the state of
//! time point `p` depends only on points ≤ `p`, and the whole line can be
//! computed left to right:
//!
//! ```text
//! σ(p) = local fixpoint of seeds(p) ∪ S(p) ∪
//!        { head@p of the other rules fired at m = p − h with bodies in σ(m+aᵢ) }
//! S(p) = { head@p of settled rules fired at m = p − h with bodies in σ(m+aᵢ), aᵢ < h }
//! ```
//!
//! A rule is *settled* when its head is functional at offset `h` and every
//! functional body offset is `< h`: its body reads completed positions
//! only, so it fires once, in the first pass at `p`. The other rules — a
//! body atom at `h`, or a relational head, whose window ends at `p` —
//! re-fire until nothing changes. An NF row derived mid-line restarts the
//! outer loop, so in its final iteration the NF store is constant and one
//! firing of a settled rule derives all it ever will.
//!
//! `match_body` streams a time point's rows from its state and probes an
//! NF atom through `dl::Relation::select`, which uses the per-column index
//! of a column bound by a constant or an earlier atom.
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
use fundb_term::{Cst, Func, FxHashMap, Interner, Pred, Var};

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
    classify_with_symbol(program, db, interner).0
}

/// [`classify`], plus the program's one pure function symbol if it has
/// one, read off the same schema.
pub(crate) fn classify_with_symbol(
    program: &Program,
    db: &Database,
    interner: &Interner,
) -> (TemporalClass, Option<Func>) {
    let Ok(schema) = Schema::infer(program, db, interner) else {
        return (TemporalClass::NotTemporal, None);
    };
    if schema.pure_syms.len() > 1 || !schema.mixed_syms.is_empty() {
        return (TemporalClass::NotTemporal, None);
    }
    let class = (program.rules.iter().map(classify_rule))
        .find(|&class| class == TemporalClass::General)
        .unwrap_or(TemporalClass::Forward);
    (class, schema.pure_syms.first().copied())
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
    pred: Pred,
    args: Vec<NTerm>,
    /// `Some(h)` — functional head at `s + h`; `None` — relational head.
    head_off: Option<usize>,
    /// Functional head at `h` and every functional body offset `< h`: the
    /// body reads only completed positions, so the rule fires once per
    /// position.
    settled: bool,
    body: Vec<TAtom>,
    /// Max body offset: the rule's window reaches `m + max_off`.
    max_off: usize,
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

/// The most time points the line computes while it looks for a lasso (the
/// theoretical bound is exponential; practical programs repeat quickly).
const MAX_POSITIONS: usize = 1_000_000;

/// Runs the forward line evaluator on a program [`classify`] finds
/// [`TemporalClass::Forward`].
pub(crate) fn evaluate_forward(program: &Program, db: &Database) -> Result<Line> {
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
                let head_off = head_ft.map(|ft| offset_of(ft).expect("forward class checked"));
                trules.push(TRule {
                    pred: rule.head.pred(),
                    args: rule.head.args().to_vec(),
                    head_off,
                    settled: head_off
                        .is_some_and(|h| body.iter().filter_map(|a| a.offset).all(|o| o < h)),
                    body,
                    max_off: m.unwrap_or(0),
                });
            }
        }
    }
    let window = trules
        .iter()
        .map(|r| r.max_off.max(r.head_off.unwrap_or(0)))
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
            if p > MAX_POSITIONS {
                return Err(Error::UnsupportedQuery {
                    detail: format!("no lasso within {MAX_POSITIONS} time points"),
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
    let mut derived: Vec<Vec<Cst>> = Vec::new();
    let mut subst = Subst::new();
    for pass in 0.. {
        let mut changed = false;
        // Settled rules read completed positions only: the first pass has
        // derived all they ever will at p.
        for rule in trules.iter().filter(|r| pass == 0 || !r.settled) {
            // Functional heads land at p; relational heads fire at the
            // point whose window just completed.
            let Some(m) = p.checked_sub(rule.head_off.unwrap_or(rule.max_off)) else {
                continue;
            };
            let slice = |i: usize| {
                let atom = &rule.body[i];
                let cands = match atom.offset {
                    Some(off) => Candidates::Rows(state_rows(&states[m + off], atoms, atom.pred)),
                    None => Candidates::Nf(nf.relation(atom.pred)),
                };
                (atom.args.as_slice(), cands)
            };
            match_body(rule.body.len(), 0, &slice, &mut subst, &mut |s| {
                derived.push(ground(&rule.args, s));
            });
            for row in derived.drain(..) {
                match rule.head_off {
                    // NF growth is detected by the caller's outer loop.
                    None => _ = nf.insert(rule.pred, &row),
                    Some(_) => changed |= states[p].insert(atoms.intern(rule.pred, &row)),
                }
            }
        }
        if !changed {
            return;
        }
    }
}

fn ground(args: &[NTerm], subst: &Subst) -> Vec<Cst> {
    args.iter()
        .map(|t| value(t, subst).expect("range-restricted head"))
        .collect()
}

/// The rows of `pred` in a state slice, borrowed from the interner.
fn state_rows<'a>(
    state: &'a State,
    atoms: &'a AtomInterner,
    pred: Pred,
) -> impl Iterator<Item = &'a [Cst]> + 'a {
    state.iter().filter_map(move |id| {
        let (p, args) = atoms.resolve(id);
        (p == pred).then_some(args)
    })
}

/// A substitution as a stack of bindings: a join level pops what it pushed.
type Subst = Vec<(Var, Cst)>;

/// The binding of `v` in `subst`, if any.
fn lookup(subst: &Subst, v: Var) -> Option<Cst> {
    subst.iter().find(|(w, _)| *w == v).map(|&(_, c)| c)
}

/// The value of `t` under `subst`: a constant, or a bound variable's.
fn value(t: &NTerm, subst: &Subst) -> Option<Cst> {
    match *t {
        NTerm::Const(c) => Some(c),
        NTerm::Var(v) => lookup(subst, v),
    }
}

/// Where a body atom's candidate rows come from.
enum Candidates<'a, I> {
    /// Rows streamed from a time point's state.
    Rows(I),
    /// An NF relation (`None` if absent), probed by the atom's bound columns.
    Nf(Option<&'a dl::Relation>),
}

/// The line's body matcher: a nested-loop join of body atoms
/// `idx..len`, in order, under `subst`. `slice(i)` gives atom `i`'s
/// argument terms and its candidates (a time point's rows or an NF
/// relation); a row or relation of another arity never matches. `emit`
/// sees every complete binding.
fn match_body<'a, I: Iterator<Item = &'a [Cst]>>(
    len: usize,
    idx: usize,
    slice: &impl Fn(usize) -> (&'a [NTerm], Candidates<'a, I>),
    subst: &mut Subst,
    emit: &mut dyn FnMut(&Subst),
) {
    if idx == len {
        emit(subst);
        return;
    }
    let (args, cands) = slice(idx);
    let (rows, rel) = match cands {
        Candidates::Rows(rows) => (Some(rows), None),
        // `select` asserts the pattern's arity: check it first.
        Candidates::Nf(rel) => (None, rel.filter(|r| r.arity() == args.len())),
    };
    let pattern: Vec<Option<Cst>> = match rel {
        Some(_) => args.iter().map(|t| value(t, subst)).collect(),
        None => Vec::new(),
    };
    let mut try_row = |row: &[Cst]| {
        if row.len() != args.len() {
            return;
        }
        let mark = subst.len();
        let ok = args.iter().zip(row).all(|(t, &v)| match *t {
            NTerm::Const(c) => c == v,
            NTerm::Var(var) => match lookup(subst, var) {
                Some(c) => c == v,
                None => {
                    subst.push((var, v));
                    true
                }
            },
        });
        if ok {
            match_body(len, idx + 1, slice, subst, emit);
        }
        subst.truncate(mark);
    };
    if let Some(rows) = rows {
        rows.for_each(&mut try_row);
    }
    if let Some(rel) = rel {
        rel.select(&pattern).for_each(try_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TemporalSpec;
    use fundb_core::Engine;
    use fundb_term::{Func, Var as TVar};

    /// Computes `src`'s lasso on the forward line and checks it against the
    /// general engine: every atom either side interned, at every point of
    /// `0..ρ+2λ+window`, and both NF stores row for row.
    fn line_matches_engine(src: &str, window: usize) {
        let mut ws = fundb_parser::Workspace::new();
        ws.parse(src).unwrap();
        let (prog, db) = (&ws.program, &ws.db);
        assert_eq!(classify(prog, db, &ws.interner), TemporalClass::Forward);
        let spec = TemporalSpec::compute(prog, db, &mut ws.interner).unwrap();
        let mut engine = Engine::build(prog, db, &mut ws.interner).unwrap();
        engine.solve().unwrap();
        let s = Func(ws.interner.get("+1").unwrap());
        let atoms: Vec<(Pred, Vec<Cst>)> = (spec.atoms.iter())
            .chain(engine.atoms().iter())
            .map(|(_, p, args)| (p, args.to_vec()))
            .collect();
        for n in 0..spec.rho() + 2 * spec.lambda() + window {
            for (p, args) in &atoms {
                assert_eq!(
                    spec.holds(*p, n as u64, args),
                    engine.holds(*p, &vec![s; n], args),
                    "{} at {n}",
                    ws.interner.resolve(p.sym())
                );
            }
        }
        let engine_nf = engine.nf();
        for (a, b) in [(&spec.nf, &engine_nf), (&engine_nf, &spec.nf)] {
            for (p, rel) in a.iter() {
                assert!(rel.rows().all(|row| b.contains(p, row)));
            }
        }
    }

    /// `C(t)` reads the position its body atom `B` is derived at by a
    /// settled rule that comes later in the program, so only a re-fire pass
    /// at `p` derives it: treating every rule as settled loses `C`.
    #[test]
    fn same_position_rules_refire_after_settled_ones() {
        line_matches_engine(
            "B(t) -> C(t).\nA(t) -> B(t+1).\nB(t) -> A(t+1).\nA(0).\n",
            1,
        );
    }

    /// The relational head `Seen` needs a re-fire pass at 1 (its body `B`
    /// comes from a later rule), and the settled `Got` rule reads it through
    /// a relational body atom: `Got(1, K)` exists only after the outer loop
    /// restarts with the grown NF store.
    #[test]
    fn relational_heads_feed_settled_rules_through_the_restart() {
        line_matches_engine(
            "B(t), Tag(x) -> Seen(x).\nA(t) -> B(t+1).\nA(t) -> A(t+1).\n\
             A(t), Seen(x) -> Got(t+1, x).\nA(0).\nTag(K).\n",
            1,
        );
    }

    /// `Link(x, y)` is probed with only its second column bound: a probe
    /// that binds the first column instead finds no row.
    #[test]
    fn probes_bind_the_second_column() {
        line_matches_engine(
            "At(t, y), Link(x, y) -> At(t+1, x).\nAt(0, A).\n\
             Link(B, A).\nLink(C, B).\nLink(A, C).\n",
            1,
        );
    }

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
