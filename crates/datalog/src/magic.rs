//! Magic-set / demand rewriting for goal-directed evaluation.
//!
//! Bottom-up evaluation materializes the full least fixpoint before a query
//! reads a single answer. For ground or partially-bound goals that is wasted
//! work: only the derivations *reachable from the goal's bindings* can
//! contribute. This module implements the classic magic-set transformation
//! (generalized supplementary magic sets with the identity SIP): given a rule
//! set and a query body, it
//!
//! 1. **adorns** every IDB atom with a binding pattern (`b`/`f` per argument,
//!    e.g. `bf` = first argument bound, second free), propagating bindings
//!    sideways through the body in *written order* — the SIP is the textual
//!    left-to-right order, which keeps the rewrite deterministic and matches
//!    the order [`crate::query`] compiles,
//! 2. synthesizes a **magic predicate** `m_P^a` per demanded adornment,
//!    holding the bound-argument tuples for which `P`'s tuples are actually
//!    needed, seeded from the query's constants and guarded along each rule
//!    body prefix, and
//! 3. emits the **adorned program**: each original rule for `P` becomes, per
//!    demanded adornment `a`, a copy whose head is `P^a`, whose body is
//!    prefixed by the guard `m_P^a(bound args)`, and whose IDB body atoms are
//!    themselves adorned; a *bridge* rule `P^a(x̄) :- m_P^a(x̄|a), P(x̄)`
//!    carries over base-database facts stored under the original predicate,
//! 4. chains every multi-atom body through **supplementary predicates**
//!    `sup_i(V̄) :- sup_{i-1}(…), t_i(…)` that materialize the prefix join
//!    up to atom `i`, keeping only the variables still needed to the right.
//!    Every emitted rule body has at most two atoms, so each semi-naive
//!    delta join probes exactly one other relation on their shared (and
//!    composite-indexable) columns — without this, a delta on a recursive
//!    atom deep in a body re-scans the magic relation on a partial key and
//!    the probe count degenerates to the full fixpoint's (the classic
//!    right-recursive `bb` trap).
//!
//! An atom demanded with the empty adornment (no bound argument under the
//! SIP) keeps its original predicate and pulls in its original rules
//! verbatim — its cone is materialized in full, which is always sound and
//! avoids zero-arity magic relations.
//!
//! The rewritten program is evaluated into a *scratch overlay* database by
//! [`crate::engine::query_demand`]; the base database is never mutated, so
//! demand-driven answering composes with concurrent readers and with the
//! frozen-spec serving layer. Synthetic predicates are minted past every
//! interned symbol (see [`Sym::synthetic`]) and never leak out of the
//! overlay.

use crate::rule::{Atom, Rule, Term};
use fundb_term::{Cst, FxHashMap, FxHashSet, Interner, Pred, Sym, Var};

/// Maximum atom arity the rewrite supports: adornments are `u64` bitmasks,
/// matching the composite-index signature width used by the compiler.
pub const MAX_ADORNED_ARITY: usize = 64;

/// Renders an adornment bitmask as the conventional `b`/`f` string, e.g.
/// `0b01` over arity 2 → `"bf"`.
pub fn adornment_str(mask: u64, arity: usize) -> String {
    (0..arity)
        .map(|i| if mask & (1 << i) != 0 { 'b' } else { 'f' })
        .collect()
}

/// The binding pattern of `atom` given the variables bound so far: a bit per
/// argument position, set for constants and already-bound variables.
fn adornment_of(atom: &Atom, bound: &FxHashSet<Var>) -> u64 {
    let mut mask = 0u64;
    for (i, t) in atom.args.iter().enumerate() {
        let b = match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        };
        if b {
            mask |= 1 << i;
        }
    }
    mask
}

/// What a synthetic predicate stands for.
#[derive(Clone, Copy, Debug)]
enum SynthPred {
    /// `base` adorned with `adornment`.
    Adorned {
        base: Pred,
        adornment: u64,
        arity: usize,
    },
    /// The magic (demand) relation of `base` adorned with `adornment`.
    Magic {
        base: Pred,
        adornment: u64,
        arity: usize,
    },
    /// A supplementary relation materializing one rule-body prefix join.
    Sup { index: u32 },
}

/// The result of a magic-set rewrite: a self-contained program whose
/// evaluation over (a copy of) the base facts derives exactly the tuples
/// demanded by the goal, plus the transformed query body to run over it.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten rule set: magic guard rules, adorned rule copies,
    /// bridge rules, and verbatim copies of rules demanded unadorned.
    pub rules: Vec<Rule>,
    /// Ground magic seed facts derived from the query's own constants; the
    /// evaluator inserts these into the overlay before running `rules`.
    pub seeds: Vec<(Pred, Vec<Cst>)>,
    /// The query body with IDB atoms replaced by their adorned versions;
    /// evaluated over the overlay to produce the answers.
    pub query_body: Vec<Atom>,
    /// Number of magic rules synthesized (guard rules plus ground seeds).
    pub magic_rule_count: usize,
    magic_preds: Vec<Pred>,
    synth: FxHashMap<Pred, SynthPred>,
}

impl MagicProgram {
    /// The synthetic magic predicates, in mint order. The row counts of
    /// their overlay relations after evaluation are the `demanded_tuples`
    /// statistic.
    pub fn magic_preds(&self) -> &[Pred] {
        &self.magic_preds
    }

    /// Whether `p` was minted by this rewrite (adorned or magic), as opposed
    /// to naming a relation of the original program.
    pub fn is_synthetic(&self, p: Pred) -> bool {
        self.synth.contains_key(&p)
    }

    /// Every original (non-synthetic) predicate the rewritten program reads
    /// or writes, in first-reference order. The overlay is seeded by copying
    /// exactly these relations from the base database.
    pub fn base_preds(&self) -> Vec<Pred> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        let mut note = |p: Pred, synth: &FxHashMap<Pred, SynthPred>| {
            if !synth.contains_key(&p) && seen.insert(p) {
                out.push(p);
            }
        };
        for rule in &self.rules {
            note(rule.head.pred, &self.synth);
            for atom in &rule.body {
                note(atom.pred, &self.synth);
            }
        }
        for atom in &self.query_body {
            note(atom.pred, &self.synth);
        }
        out
    }

    /// Human-readable name for any predicate of the rewritten program:
    /// original predicates resolve through the interner, synthetic ones
    /// render as `P_bf` / `m_P_bf` from their base predicate and adornment.
    pub fn display_pred(&self, p: Pred, interner: &Interner) -> String {
        match self.synth.get(&p) {
            Some(SynthPred::Adorned {
                base,
                adornment,
                arity,
            }) => format!(
                "{}_{}",
                sym_name(base.sym(), interner),
                adornment_str(*adornment, *arity)
            ),
            Some(SynthPred::Magic {
                base,
                adornment,
                arity,
            }) => format!(
                "m_{}_{}",
                sym_name(base.sym(), interner),
                adornment_str(*adornment, *arity)
            ),
            Some(SynthPred::Sup { index }) => format!("sup{index}"),
            None => sym_name(p.sym(), interner),
        }
    }

    /// Human-readable rendering of one atom of the rewritten program,
    /// resolving synthetic predicates through [`Self::display_pred`].
    pub fn display_atom(&self, atom: &Atom, interner: &Interner) -> String {
        let args = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => sym_name(v.sym(), interner),
                Term::Const(c) => sym_name(c.sym(), interner),
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("{}({})", self.display_pred(atom.pred, interner), args)
    }

    /// Renders the whole rewritten program — seeds, rules, and transformed
    /// query body — one clause per line, for the REPL's `:plan` command.
    pub fn render(&self, interner: &Interner) -> String {
        let mut out = String::new();
        for (p, row) in &self.seeds {
            let args = row
                .iter()
                .map(|c| sym_name(c.sym(), interner))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!("{}({}).\n", self.display_pred(*p, interner), args));
        }
        for rule in &self.rules {
            let body = rule
                .body
                .iter()
                .map(|a| self.display_atom(a, interner))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "{} :- {}.\n",
                self.display_atom(&rule.head, interner),
                body
            ));
        }
        let q = self
            .query_body
            .iter()
            .map(|a| self.display_atom(a, interner))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("?- {q}.\n"));
        out
    }
}

/// Resolves a symbol that may be synthetic: interned symbols resolve through
/// the interner, minted ones render positionally.
fn sym_name(sym: Sym, interner: &Interner) -> String {
    if sym.index() < interner.len() {
        interner.resolve(sym).to_owned()
    } else {
        format!("_s{}", sym.index())
    }
}

/// Rewrites `rules` for the goal `query` (a conjunctive body, evaluated
/// left-to-right). Returns `None` when the rewrite cannot help and the
/// caller should fall back to full materialization or direct lookup:
///
/// * the query body is empty,
/// * no body atom names an IDB predicate (the goal is answerable from the
///   base facts alone),
/// * no IDB body atom has a single bound argument under the left-to-right
///   SIP (an all-free goal needs the full fixpoint anyway), or
/// * an atom exceeds [`MAX_ADORNED_ARITY`].
pub fn magic_rewrite(rules: &[Rule], query: &[Atom]) -> Option<MagicProgram> {
    if query.is_empty() {
        return None;
    }
    let wide = |a: &Atom| a.args.len() > MAX_ADORNED_ARITY;
    if query.iter().any(wide)
        || rules
            .iter()
            .any(|r| wide(&r.head) || r.body.iter().any(wide))
    {
        return None;
    }
    let idb: FxHashSet<Pred> = rules.iter().map(|r| r.head.pred).collect();
    if !query.iter().any(|a| idb.contains(&a.pred)) {
        return None;
    }
    // An adornment only restricts anything if some IDB atom sees a binding.
    {
        let mut bound: FxHashSet<Var> = FxHashSet::default();
        let mut any = false;
        for atom in query {
            if idb.contains(&atom.pred) && adornment_of(atom, &bound) != 0 {
                any = true;
                break;
            }
            bound.extend(atom.vars());
        }
        if !any {
            return None;
        }
    }

    let mut rw = Rewriter {
        rules,
        idb,
        next: next_free_sym_index(rules, query),
        adorned: FxHashMap::default(),
        magic: FxHashMap::default(),
        seen: FxHashSet::default(),
        queue: Vec::new(),
        out: Vec::new(),
        seeds: Vec::new(),
        magic_preds: Vec::new(),
        synth: FxHashMap::default(),
        magic_rule_count: 0,
        sup_count: 0,
    };
    // Any query variable may be an output, so the final supplementary
    // context of the query body must carry all of them.
    let qvars: FxHashSet<Var> = query.iter().flat_map(Atom::vars).collect();
    let query_body = rw.transform_body(query, FxHashSet::default(), None, &qvars);
    while let Some((p, mask)) = rw.queue.pop() {
        rw.process_demand(p, mask);
    }
    Some(MagicProgram {
        rules: rw.out,
        seeds: rw.seeds,
        query_body,
        magic_rule_count: rw.magic_rule_count,
        magic_preds: rw.magic_preds,
        synth: rw.synth,
    })
}

/// First symbol index past everything the program and query mention, so
/// minted predicates and variables can never collide with real ones.
fn next_free_sym_index(rules: &[Rule], query: &[Atom]) -> u32 {
    let mut max = 0u32;
    let mut note_sym = |s: Sym| {
        let i = s.index() as u32;
        if i != u32::MAX && i + 1 > max {
            max = i + 1;
        }
    };
    let mut note_atom = |a: &Atom| {
        note_sym(a.pred.sym());
        for t in &a.args {
            match t {
                Term::Var(v) => note_sym(v.sym()),
                Term::Const(c) => note_sym(c.sym()),
            }
        }
    };
    for rule in rules {
        note_atom(&rule.head);
        for a in &rule.body {
            note_atom(a);
        }
    }
    for a in query {
        note_atom(a);
    }
    max
}

/// The terms of `atom` at the bound positions of `mask`, in column order —
/// the argument list of the corresponding magic atom.
fn bound_args(atom: &Atom, mask: u64) -> Vec<Term> {
    atom.args
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, t)| *t)
        .collect()
}

struct Rewriter<'a> {
    rules: &'a [Rule],
    idb: FxHashSet<Pred>,
    next: u32,
    adorned: FxHashMap<(Pred, u64), Pred>,
    magic: FxHashMap<(Pred, u64), Pred>,
    /// Demands already enqueued (predicate × adornment); each is expanded
    /// into rules exactly once.
    seen: FxHashSet<(Pred, u64)>,
    queue: Vec<(Pred, u64)>,
    out: Vec<Rule>,
    seeds: Vec<(Pred, Vec<Cst>)>,
    magic_preds: Vec<Pred>,
    synth: FxHashMap<Pred, SynthPred>,
    magic_rule_count: usize,
    sup_count: u32,
}

impl Rewriter<'_> {
    fn mint(&mut self) -> Sym {
        let s = Sym::synthetic(self.next);
        self.next += 1;
        s
    }

    fn adorned_pred(&mut self, p: Pred, mask: u64, arity: usize) -> Pred {
        debug_assert!(mask != 0);
        if let Some(&ap) = self.adorned.get(&(p, mask)) {
            return ap;
        }
        let ap = Pred(self.mint());
        self.adorned.insert((p, mask), ap);
        self.synth.insert(
            ap,
            SynthPred::Adorned {
                base: p,
                adornment: mask,
                arity,
            },
        );
        ap
    }

    fn magic_pred(&mut self, p: Pred, mask: u64, arity: usize) -> Pred {
        if let Some(&mp) = self.magic.get(&(p, mask)) {
            return mp;
        }
        let mp = Pred(self.mint());
        self.magic.insert((p, mask), mp);
        self.synth.insert(
            mp,
            SynthPred::Magic {
                base: p,
                adornment: mask,
                arity,
            },
        );
        self.magic_preds.push(mp);
        mp
    }

    fn sup_pred(&mut self) -> Pred {
        let sp = Pred(self.mint());
        self.synth.insert(
            sp,
            SynthPred::Sup {
                index: self.sup_count,
            },
        );
        self.sup_count += 1;
        sp
    }

    fn demand(&mut self, p: Pred, mask: u64) {
        if self.seen.insert((p, mask)) {
            self.queue.push((p, mask));
        }
    }

    /// Transforms one body (the query's, or a rule's) under the
    /// left-to-right SIP, chaining the prefix through supplementary
    /// relations. `bound` holds the variables bound on entry (the guard's,
    /// for adorned rule bodies), `ctx` the single atom standing for the
    /// prefix join so far (the guard itself, for adorned rule bodies;
    /// `None` at a body's start otherwise), and `needed_after` the
    /// variables read after the body ends (the head's, or every query
    /// variable).
    ///
    /// For every adorned IDB occurrence a magic guard rule over the current
    /// context is emitted — or, if there is no context yet (only constants
    /// can be bound), a ground magic seed. Between atoms the context is
    /// folded into a supplementary relation keeping exactly the variables
    /// still needed to the right, so every emitted rule body has at most
    /// two atoms. Returns the final transformed body: the last context plus
    /// the transformed last atom.
    fn transform_body(
        &mut self,
        body: &[Atom],
        mut bound: FxHashSet<Var>,
        mut ctx: Option<Atom>,
        needed_after: &FxHashSet<Var>,
    ) -> Vec<Atom> {
        // needed[i]: variables read to the right of atom i.
        let mut needed: Vec<FxHashSet<Var>> = Vec::with_capacity(body.len());
        let mut acc = needed_after.clone();
        for atom in body.iter().rev() {
            needed.push(acc.clone());
            acc.extend(atom.vars());
        }
        needed.reverse();

        let mut last = None;
        for (i, atom) in body.iter().enumerate() {
            let mask = adornment_of(atom, &bound);
            let t_atom = if self.idb.contains(&atom.pred) && mask != 0 {
                let arity = atom.args.len();
                let ap = self.adorned_pred(atom.pred, mask, arity);
                let mp = self.magic_pred(atom.pred, mask, arity);
                let margs = bound_args(atom, mask);
                match &ctx {
                    None => {
                        let row: Vec<Cst> = margs
                            .iter()
                            .map(|t| t.as_const().expect("empty prefix can only bind constants"))
                            .collect();
                        self.seeds.push((mp, row));
                        self.magic_rule_count += 1;
                    }
                    Some(c) => {
                        let guard = Atom::new(mp, margs);
                        // Skip the tautological self-guard `m(x̄) :- m(x̄)`
                        // a recursive atom repeating its head binding makes.
                        if guard != *c {
                            self.out.push(Rule::new(guard, vec![c.clone()]));
                            self.magic_rule_count += 1;
                        }
                    }
                }
                self.demand(atom.pred, mask);
                Atom::new(ap, atom.args.clone())
            } else {
                if self.idb.contains(&atom.pred) {
                    self.demand(atom.pred, 0);
                }
                atom.clone()
            };
            bound.extend(atom.vars());
            if i + 1 == body.len() {
                last = Some(t_atom);
            } else {
                ctx = Some(match ctx.take() {
                    // A single atom is its own context; no relation needed.
                    None => t_atom,
                    Some(c) => {
                        // sup(V̄) :- ctx, t_atom — V̄ the still-needed
                        // variables, in first-appearance order.
                        let mut args: Vec<Term> = Vec::new();
                        let mut seen: FxHashSet<Var> = FxHashSet::default();
                        for t in c.args.iter().chain(t_atom.args.iter()) {
                            if let Term::Var(v) = t {
                                if needed[i].contains(v) && seen.insert(*v) {
                                    args.push(Term::Var(*v));
                                }
                            }
                        }
                        let sup = Atom::new(self.sup_pred(), args);
                        self.out.push(Rule::new(sup.clone(), vec![c, t_atom]));
                        sup
                    }
                });
            }
        }
        let mut out_body = Vec::with_capacity(2);
        if let Some(c) = ctx {
            out_body.push(c);
        }
        out_body.extend(last);
        out_body
    }

    /// Expands one demand `(p, mask)` into rules. For `mask == 0` the
    /// original rules for `p` are copied with transformed bodies (their own
    /// IDB atoms may still be adorned via in-body constants and joins). For
    /// a real adornment each rule becomes an adorned copy guarded by the
    /// magic atom, plus one bridge rule importing `p`'s base facts.
    fn process_demand(&mut self, p: Pred, mask: u64) {
        let mut arity = None;
        let rules = self.rules;
        for rule in rules.iter().filter(|r| r.head.pred == p) {
            arity = Some(rule.head.args.len());
            let head_vars: FxHashSet<Var> = rule.head.vars().collect();
            if mask == 0 {
                let body = self.transform_body(&rule.body, FxHashSet::default(), None, &head_vars);
                self.out.push(Rule::new(rule.head.clone(), body));
            } else {
                let hr = rule.head.args.len();
                let ap = self.adorned_pred(p, mask, hr);
                let mp = self.magic_pred(p, mask, hr);
                let guard = Atom::new(mp, bound_args(&rule.head, mask));
                let bound: FxHashSet<Var> = guard.vars().collect();
                let new_body = self.transform_body(&rule.body, bound, Some(guard), &head_vars);
                self.out
                    .push(Rule::new(Atom::new(ap, rule.head.args.clone()), new_body));
            }
        }
        if mask != 0 {
            // Bridge: base facts stored under `p` itself satisfy any demand
            // on `p` that matches them.
            let arity = arity.expect("demanded predicate has at least one rule");
            let ap = self.adorned_pred(p, mask, arity);
            let mp = self.magic_pred(p, mask, arity);
            let vars: Vec<Term> = (0..arity).map(|_| Term::Var(Var(self.mint()))).collect();
            let base_atom = Atom::new(p, vars.clone());
            let guard = Atom::new(
                mp,
                vars.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, t)| *t)
                    .collect(),
            );
            self.out
                .push(Rule::new(Atom::new(ap, vars), vec![guard, base_atom]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fix {
        interner: Interner,
        path: Pred,
        edge: Pred,
        x: Var,
        y: Var,
        z: Var,
        a: Cst,
    }

    fn fix() -> Fix {
        let mut i = Interner::new();
        Fix {
            path: Pred(i.intern("path")),
            edge: Pred(i.intern("edge")),
            x: Var(i.intern("x")),
            y: Var(i.intern("y")),
            z: Var(i.intern("z")),
            a: Cst(i.intern("a")),
            interner: i,
        }
    }

    /// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
    fn tc_rules(f: &Fix) -> Vec<Rule> {
        vec![
            Rule::new(
                Atom::new(f.path, vec![Term::Var(f.x), Term::Var(f.y)]),
                vec![Atom::new(f.edge, vec![Term::Var(f.x), Term::Var(f.y)])],
            ),
            Rule::new(
                Atom::new(f.path, vec![Term::Var(f.x), Term::Var(f.z)]),
                vec![
                    Atom::new(f.path, vec![Term::Var(f.x), Term::Var(f.y)]),
                    Atom::new(f.edge, vec![Term::Var(f.y), Term::Var(f.z)]),
                ],
            ),
        ]
    }

    #[test]
    fn bound_first_argument_seeds_and_adorns() {
        let f = fix();
        let rules = tc_rules(&f);
        let query = vec![Atom::new(f.path, vec![Term::Const(f.a), Term::Var(f.x)])];
        let mp = magic_rewrite(&rules, &query).expect("rewrite applies");
        // One ground seed from the query constant.
        assert_eq!(mp.seeds.len(), 1);
        let (seed_pred, row) = &mp.seeds[0];
        assert!(mp.is_synthetic(*seed_pred));
        assert_eq!(row, &vec![f.a]);
        assert_eq!(mp.display_pred(*seed_pred, &f.interner), "m_path_bf");
        // Exactly one magic predicate (path^bf), demanded recursively.
        assert_eq!(mp.magic_preds().len(), 1);
        // Query body was replaced by the adorned predicate.
        assert_eq!(mp.query_body.len(), 1);
        assert!(mp.is_synthetic(mp.query_body[0].pred));
        assert_eq!(
            mp.display_pred(mp.query_body[0].pred, &f.interner),
            "path_bf"
        );
        // 2 adorned rule copies + 1 supplementary rule (the recursive
        // body's prefix) + 1 bridge; the recursive atom's self-guard
        // `m_path_bf(x) :- m_path_bf(x)` is skipped as tautological.
        assert_eq!(mp.rules.len(), 4);
        assert!(
            mp.rules.iter().all(|r| r.body.len() <= 2),
            "supplementary chaining must keep every body at ≤2 atoms"
        );
        assert!(mp.rules.iter().all(Rule::is_range_restricted));
        // Base relations read by the overlay: edge and path (bridge).
        assert_eq!(mp.base_preds(), vec![f.edge, f.path]);
    }

    #[test]
    fn all_free_goal_is_a_noop() {
        let f = fix();
        let rules = tc_rules(&f);
        let query = vec![Atom::new(f.path, vec![Term::Var(f.x), Term::Var(f.y)])];
        assert!(magic_rewrite(&rules, &query).is_none());
    }

    #[test]
    fn edb_only_goal_is_a_noop() {
        let f = fix();
        let rules = tc_rules(&f);
        let query = vec![Atom::new(f.edge, vec![Term::Const(f.a), Term::Var(f.x)])];
        assert!(magic_rewrite(&rules, &query).is_none());
        assert!(magic_rewrite(&rules, &[]).is_none());
    }

    #[test]
    fn join_bound_idb_atom_is_adorned() {
        // edge(x,y), path(y,z): path's first argument is bound by the join,
        // so the rewrite applies even though the query has no constants.
        let f = fix();
        let rules = tc_rules(&f);
        let query = vec![
            Atom::new(f.edge, vec![Term::Var(f.x), Term::Var(f.y)]),
            Atom::new(f.path, vec![Term::Var(f.y), Term::Var(f.z)]),
        ];
        let mp = magic_rewrite(&rules, &query).expect("rewrite applies");
        // No ground seed (no constants); the magic rule's body is the
        // transformed prefix [edge(x,y)].
        assert!(mp.seeds.is_empty());
        let guard = mp
            .rules
            .iter()
            .find(|r| mp.magic_preds().contains(&r.head.pred) && r.body[0].pred == f.edge)
            .expect("prefix-guarded magic rule");
        assert_eq!(guard.body.len(), 1);
        assert_eq!(mp.query_body[0].pred, f.edge);
        assert!(mp.is_synthetic(mp.query_body[1].pred));
    }

    #[test]
    fn rewrite_is_deterministic() {
        let f = fix();
        let rules = tc_rules(&f);
        let query = vec![Atom::new(f.path, vec![Term::Const(f.a), Term::Var(f.x)])];
        let a = magic_rewrite(&rules, &query).unwrap();
        let b = magic_rewrite(&rules, &query).unwrap();
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.query_body, b.query_body);
        assert_eq!(a.magic_rule_count, b.magic_rule_count);
    }

    #[test]
    fn wide_atoms_fall_back() {
        let mut i = Interner::new();
        let p = Pred(i.intern("p"));
        let args: Vec<Term> = (0..=MAX_ADORNED_ARITY)
            .map(|k| Term::Var(Var(i.intern(&format!("v{k}")))))
            .collect();
        let rules = vec![Rule::new(
            Atom::new(p, args.clone()),
            vec![Atom::new(p, args.clone())],
        )];
        let mut query = args;
        query[0] = Term::Const(Cst(i.intern("c")));
        assert!(magic_rewrite(&rules, &[Atom::new(p, query)]).is_none());
    }

    #[test]
    fn render_names_adorned_and_magic_predicates() {
        let f = fix();
        let rules = tc_rules(&f);
        let query = vec![Atom::new(f.path, vec![Term::Const(f.a), Term::Var(f.x)])];
        let mp = magic_rewrite(&rules, &query).unwrap();
        let text = mp.render(&f.interner);
        assert!(text.contains("m_path_bf(a)."), "seed missing: {text}");
        assert!(text.contains("path_bf("), "adorned head missing: {text}");
        assert!(text.contains("?- path_bf(a,x)."), "goal missing: {text}");
    }

    #[test]
    fn adornment_helpers() {
        assert_eq!(adornment_str(0b01, 2), "bf");
        assert_eq!(adornment_str(0b10, 2), "fb");
        assert_eq!(adornment_str(0b11, 2), "bb");
    }
}
