//! Query answers as relational specifications (§5).
//!
//! Queries are positive conjunctions of atoms with at most one functional
//! variable; free (output) variables form the answer tuple. Two evaluation
//! strategies from the paper:
//!
//! 1. **By extension**: add the query as a rule `body → QUERY(…)` to `Z`,
//!    recompute the graph specification of `LFP(Z', D)`, and read the
//!    `QUERY` predicate off the new primary database — the answer is itself
//!    a relational specification `(B', F')`.
//! 2. **Incrementally** (Theorem 5.1): a *uniform* query — one whose only
//!    non-ground functional term is a bare variable — can be evaluated
//!    directly against the existing primary database, keeping the successor
//!    mappings unchanged: the answer is `(Q(B), F)`. "The second approach is
//!    preferable, because to process new queries we don't have to recompute
//!    the specification of the least fixpoint."
//!
//! [`Query::answer_incremental`] computes `Q(B)` as a relational query in
//! the plain sense: it writes `B` as a function-free [`dl::Database`] and
//! runs the body through [`dl::query`], the compiled join executor every
//! fixpoint uses. The mapping:
//!
//! * a cluster (a representative node of the graph specification) is a
//!   constant, and each functional predicate `P` of the body is a relation
//!   `P♯` with one row `(cluster, ā)` per atom `P(ā)` in that cluster's
//!   slice — `B`, with the cluster as column 0;
//! * relational predicates keep their rows from the relational store;
//! * `P(s, ā)` becomes `P♯(C, ā)`, with one cluster variable `C` shared by
//!   every such atom: all members of a cluster carry the same slice
//!   (Theorem 3.1), so `s` ranges over clusters exactly;
//! * a ground `P(t₀, ā)` becomes `P♯(rep(t₀), ā)` — §5 replaces ground
//!   terms by the representative of their cluster; a term with no
//!   representative leaves the answer empty;
//! * a functional output makes `C` the first output column, and the rows
//!   group by it into per-cluster tuple sets, read together with the
//!   unchanged successor mappings `F`; without one, the query's own
//!   duplicate elimination performs the `∃s` projection.
//!
//! The clusters, the `P♯` relations and `C` are [`Sym::synthetic`] handles
//! past every interned symbol, as the magic-set rewrite names its
//! auxiliary predicates; they never leave the scratch database.

use crate::domaincheck;
use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::graphspec::{GraphSpec, SpecNodeId};
use crate::program::{Atom, Database, FTerm, NTerm, Program, Rule};
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FxHashMap, FxHashSet, Interner, Pred, Sym, Var};

/// A non-functional argument as a Datalog term.
fn to_dl_term(t: &NTerm) -> dl::Term {
    match t {
        NTerm::Var(v) => dl::Term::Var(*v),
        NTerm::Const(c) => dl::Term::Const(*c),
    }
}

/// A purely relational atom in function-free Datalog form; `None` if the
/// atom is functional.
fn to_dl_atom(atom: &Atom) -> Option<dl::Atom> {
    match atom {
        Atom::Relational { pred, args } => {
            Some(dl::Atom::new(*pred, args.iter().map(to_dl_term).collect()))
        }
        Atom::Functional { .. } => None,
    }
}

/// The rules of a purely relational program in function-free Datalog form;
/// `None` as soon as any rule mentions a functional atom.
pub fn relational_rules(program: &Program) -> Option<Vec<dl::Rule>> {
    program
        .rules
        .iter()
        .map(|r| {
            let head = to_dl_atom(&r.head)?;
            let body = r.body.iter().map(to_dl_atom).collect::<Option<Vec<_>>>()?;
            Some(dl::Rule::new(head, body))
        })
        .collect()
}

/// The facts of a purely relational database as a Datalog [`dl::Database`];
/// `None` as soon as any fact is functional.
pub fn relational_facts(db: &Database) -> Option<dl::Database> {
    let mut out = dl::Database::new();
    for fact in &db.facts {
        match fact {
            Atom::Relational { pred, args } => {
                let row: Vec<Cst> = args.iter().map(|t| t.as_const()).collect::<Option<_>>()?;
                out.insert(*pred, &row);
            }
            Atom::Functional { .. } => return None,
        }
    }
    Some(out)
}

/// A positive conjunctive query with at most one functional variable.
///
/// ```
/// use fundb_parser::Workspace;
///
/// let mut ws = Workspace::new();
/// ws.parse(
///     "Meets(t, x), Next(x, y) -> Meets(t+1, y).
///      Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
/// ).unwrap();
/// let spec = ws.graph_spec().unwrap();
/// let q = ws.parse_query("Meets(t, x)").unwrap();          // {(t,x) : Meets(t,x)}
/// let ans = q.answer_incremental(&spec, &ws.interner).unwrap();
/// let first = ans.enumerate_terms(&spec, 2);                // infinite answer, finite spec
/// assert_eq!(first[0].0.len(), 0);                          // day 0: Tony
/// assert_eq!(first[1].0.len(), 1);                          // day 1: Jan
/// ```
#[derive(Clone, Debug)]
pub struct Query {
    /// The functional output variable, if the query asks for terms.
    pub out_fvar: Option<Var>,
    /// Non-functional output variables.
    pub out_nvars: Vec<Var>,
    /// The body conjunction.
    pub body: Vec<Atom>,
}

impl Query {
    /// Validates the disjoint variable sorts (§2.1) and the §5
    /// restrictions.
    pub fn validate(&self, interner: &Interner) -> Result<()> {
        let mut fvars: FxHashSet<Var> = FxHashSet::default();
        let mut nvars: FxHashSet<Var> = FxHashSet::default();
        for atom in &self.body {
            if let Some(v) = atom.spine_var() {
                fvars.insert(v);
            }
            for v in atom.nvars() {
                nvars.insert(v);
            }
        }
        if let Some(v) = fvars.intersection(&nvars).next() {
            return Err(Error::MixedVariableSorts {
                var: interner.resolve(v.sym()).to_string(),
            });
        }
        if fvars.len() > 1 {
            return Err(Error::UnsupportedQuery {
                detail: "more than one functional variable (§5 allows at most one)".into(),
            });
        }
        if let Some(v) = self.out_fvar {
            if !fvars.contains(&v) {
                return Err(Error::UnsupportedQuery {
                    detail: format!(
                        "functional output variable {} does not occur in the body",
                        interner.resolve(v.sym())
                    ),
                });
            }
        }
        for v in &self.out_nvars {
            if !nvars.contains(v) {
                return Err(Error::UnsupportedQuery {
                    detail: format!(
                        "output variable {} does not occur in the body",
                        interner.resolve(v.sym())
                    ),
                });
            }
        }
        Ok(())
    }

    /// Whether the query is *uniform*: its only non-ground functional term
    /// is a bare variable (Theorem 5.1's condition).
    pub fn is_uniform(&self) -> bool {
        self.body.iter().all(|a| {
            a.fterm()
                .is_none_or(|ft| ft.is_ground() || matches!(ft, FTerm::Var(_)))
        })
    }

    /// The query as a rule defining a fresh `QUERY` predicate.
    pub fn to_rule(&self, query_pred: Pred) -> Rule {
        let head = match self.out_fvar {
            Some(v) => Atom::Functional {
                pred: query_pred,
                fterm: FTerm::Var(v),
                args: self.out_nvars.iter().map(|&v| NTerm::Var(v)).collect(),
            },
            None => Atom::Relational {
                pred: query_pred,
                args: self.out_nvars.iter().map(|&v| NTerm::Var(v)).collect(),
            },
        };
        Rule::new(head, self.body.clone())
    }

    /// Strategy 1: extend the program with the query rule and rebuild the
    /// specification. Returns the new spec and the `QUERY` predicate.
    pub fn answer_by_extension(
        &self,
        program: &Program,
        db: &Database,
        interner: &mut Interner,
    ) -> Result<(GraphSpec, Pred)> {
        self.validate(interner)?;
        let query_pred = Pred(interner.fresh("QUERY"));
        let mut extended = program.clone();
        extended.push(self.to_rule(query_pred));
        let mut engine = Engine::build(&extended, db, interner)?;
        Ok((GraphSpec::from_engine(&mut engine)?, query_pred))
    }

    /// Strategy 2 (Theorem 5.1): evaluate a uniform query against the
    /// primary database only, reusing the successor mappings — one
    /// [`dl::query`] over `B` written as a function-free database (see the
    /// module docs for the mapping). `spec` must have been built with
    /// `interner`, so every symbol it holds is below `interner.len()`.
    pub fn answer_incremental(
        &self,
        spec: &GraphSpec,
        interner: &Interner,
    ) -> Result<IncrementalAnswer> {
        self.validate(interner)?;
        if !self.is_uniform() {
            return Err(Error::UnsupportedQuery {
                detail: "incremental specifications require a uniform query (Theorem 5.1)".into(),
            });
        }
        // Synthetic handles past every interned symbol: cluster `i` is the
        // constant `base + i`, then the cluster variable, then one `P♯` per
        // functional predicate of the body.
        let base = interner.len();
        let synthetic =
            |i: usize| Sym::synthetic(u32::try_from(base + i).expect("symbol space exhausted"));
        let clusters = spec.cluster_count();
        let cluster = |node: SpecNodeId| Cst(synthetic(node.index()));
        let cluster_var = Var(synthetic(clusters));
        let mut sharp: FxHashMap<Pred, Pred> = FxHashMap::default();
        let mut scratch = dl::Database::new();
        let mut body = Vec::with_capacity(self.body.len());
        for atom in &self.body {
            let (pred, fterm, args) = match atom {
                Atom::Relational { pred, args } => {
                    if let Some(rel) = spec.nf.relation(*pred) {
                        *scratch.relation_mut(*pred, rel.arity()) = rel.clone();
                    }
                    body.push(dl::Atom::new(*pred, args.iter().map(to_dl_term).collect()));
                    continue;
                }
                Atom::Functional { pred, fterm, args } => (pred, fterm, args),
            };
            let column0 = match fterm {
                FTerm::Var(_) => dl::Term::Var(cluster_var),
                // Ground term: replaced by its representative (§5).
                ground => match ground.pure_path().and_then(|p| spec.representative_of(&p)) {
                    Some(rep) => dl::Term::Const(cluster(rep)),
                    None => return Ok(self.empty_answer()),
                },
            };
            let next = Pred(synthetic(clusters + 1 + sharp.len()));
            let pred_sharp = *sharp.entry(*pred).or_insert(next);
            let args = std::iter::once(column0).chain(args.iter().map(to_dl_term));
            body.push(dl::Atom::new(pred_sharp, args.collect()));
        }
        if !sharp.is_empty() {
            let mut row = Vec::new();
            for node in spec.node_ids() {
                for (p, args) in spec.slice(node) {
                    if let Some(&p_sharp) = sharp.get(&p) {
                        row.clear();
                        row.push(cluster(node));
                        row.extend_from_slice(args);
                        scratch.insert(p_sharp, &row);
                    }
                }
            }
        }
        if self.out_fvar.is_none() {
            let rows = dl::query(&scratch, &body, &self.out_nvars)?;
            return Ok(IncrementalAnswer::Tuples(rows.into_iter().collect()));
        }
        let mut out_vars = Vec::with_capacity(self.out_nvars.len() + 1);
        out_vars.push(cluster_var);
        out_vars.extend_from_slice(&self.out_nvars);
        let mut map: FxHashMap<SpecNodeId, FxHashSet<Vec<Cst>>> = FxHashMap::default();
        for mut row in dl::query(&scratch, &body, &out_vars)? {
            let node = SpecNodeId::from_dense_index(row.remove(0).index() - base);
            map.entry(node).or_default().insert(row);
        }
        Ok(IncrementalAnswer::PerCluster(map))
    }

    /// The empty answer of this query's shape.
    fn empty_answer(&self) -> IncrementalAnswer {
        match self.out_fvar {
            Some(_) => IncrementalAnswer::PerCluster(FxHashMap::default()),
            None => IncrementalAnswer::Tuples(FxHashSet::default()),
        }
    }

    /// The body and output variables in function-free Datalog form, if the
    /// query is purely relational (no functional atom, no functional
    /// output).
    pub fn to_datalog_goal(&self) -> Option<(Vec<dl::Atom>, Vec<Var>)> {
        if self.out_fvar.is_some() {
            return None;
        }
        let body = self
            .body
            .iter()
            .map(to_dl_atom)
            .collect::<Option<Vec<_>>>()?;
        Some((body, self.out_nvars.clone()))
    }

    /// Strategy 3 (goal-directed): when program, database, and query are
    /// all purely relational, skip the graph specification entirely —
    /// rewrite the rules by the magic-set transformation for this goal's
    /// binding pattern and evaluate only the demanded cone into a scratch
    /// overlay ([`dl::query_demand`] under `governor`). Ground and
    /// partially-bound goals touch a fraction of the full fixpoint;
    /// degenerate goals fall back to full materialization inside the same
    /// call (see [`dl::DemandAnswer::goal_directed`]).
    ///
    /// Returns `None` when a functional atom occurs anywhere, so callers
    /// fall back to spec-based answering. A program that is not
    /// range-restricted answers the §2.3 error, as spec construction does.
    pub fn answer_goal_directed(
        &self,
        program: &Program,
        db: &Database,
        interner: &Interner,
        governor: &dl::Governor,
    ) -> Option<Result<dl::DemandAnswer>> {
        let (body, out_vars) = self.to_datalog_goal()?;
        let rules = relational_rules(program)?;
        let facts = relational_facts(db)?;
        if let Err(e) = domaincheck::check_program(program, interner) {
            return Some(Err(e));
        }
        Some(
            dl::query_demand(
                &facts,
                &rules,
                &body,
                &out_vars,
                &dl::IncrementalEval::new().with_governor(governor.clone()),
            )
            .map_err(Error::from),
        )
    }
}

/// An incremental query answer `(Q(B), F)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncrementalAnswer {
    /// The answer is a plain finite set of tuples (no functional output).
    Tuples(FxHashSet<Vec<Cst>>),
    /// The answer has a functional output: per-cluster tuple sets, to be
    /// read together with the specification's successor mappings.
    PerCluster(FxHashMap<SpecNodeId, FxHashSet<Vec<Cst>>>),
}

impl IncrementalAnswer {
    /// Membership of a concrete answer `(t, ā)` (functional output) — walks
    /// `F` to find `t`'s cluster.
    pub fn holds_term(&self, spec: &GraphSpec, path: &[Func], tuple: &[Cst]) -> bool {
        match self {
            IncrementalAnswer::Tuples(_) => false,
            IncrementalAnswer::PerCluster(map) => spec
                .representative_of(path)
                .is_some_and(|rep| map.get(&rep).is_some_and(|s| s.contains(tuple))),
        }
    }

    /// Membership of a non-functional answer tuple.
    pub fn holds_tuple(&self, tuple: &[Cst]) -> bool {
        match self {
            IncrementalAnswer::Tuples(s) => s.contains(tuple),
            IncrementalAnswer::PerCluster(_) => false,
        }
    }

    /// Total number of tuples in the finite representation.
    pub fn size(&self) -> usize {
        match self {
            IncrementalAnswer::Tuples(s) => s.len(),
            IncrementalAnswer::PerCluster(m) => m.values().map(FxHashSet::len).sum(),
        }
    }

    /// Enumerates concrete answers `(term path, tuple)` in breadth-first
    /// (precedence `≺`) order, up to `limit` — materializing a finite prefix
    /// of a possibly infinite answer.
    ///
    /// Paths are tracked per *cluster*, not per path (keeping only the
    /// `limit` `≺`-smallest paths into each cluster per level), so the cost
    /// is polynomial even when the symbol alphabet branches widely.
    pub fn enumerate_terms(&self, spec: &GraphSpec, limit: usize) -> Vec<(Vec<Func>, Vec<Cst>)> {
        let IncrementalAnswer::PerCluster(map) = self else {
            return Vec::new();
        };
        if limit == 0 || map.is_empty() {
            return Vec::new();
        }
        // Clusters from which a matching cluster is reachable (pruning).
        let mut productive: FxHashSet<SpecNodeId> = map.keys().copied().collect();
        loop {
            let mut grew = false;
            for from in spec.node_ids() {
                if spec.succ_row(from).any(|(_, to)| productive.contains(&to))
                    && productive.insert(from)
                {
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        if !productive.contains(&spec.root()) {
            return Vec::new();
        }

        let mut out: Vec<(Vec<Func>, Vec<Cst>)> = Vec::new();
        // ≺-smallest `limit` paths reaching each cluster at the current
        // level.
        let mut per_node: FxHashMap<SpecNodeId, Vec<Vec<Func>>> = FxHashMap::default();
        per_node.insert(spec.root(), vec![vec![]]);
        let lex = |a: &Vec<Func>, b: &Vec<Func>| {
            let ra: Vec<u32> = a.iter().map(|f| spec.funcs.rank(*f)).collect();
            let rb: Vec<u32> = b.iter().map(|f| spec.funcs.rank(*f)).collect();
            ra.cmp(&rb)
        };
        // Depth bound: answers, if any remain, recur within one pass around
        // the finite graph.
        let max_level = spec.cluster_count() * (limit + 1) + spec.c + 2;
        for _level in 0..=max_level {
            // Emit this level's answers in ≺ order.
            let mut hits: Vec<(Vec<Func>, Vec<Cst>)> = Vec::new();
            for (node, paths) in &per_node {
                if let Some(tuples) = map.get(node) {
                    let mut sorted: Vec<&Vec<Cst>> = tuples.iter().collect();
                    sorted.sort_unstable();
                    for p in paths {
                        for t in &sorted {
                            hits.push((p.clone(), (*t).clone()));
                        }
                    }
                }
            }
            hits.sort_by(|(a, ta), (b, tb)| lex(a, b).then_with(|| ta.cmp(tb)));
            for h in hits {
                if out.len() >= limit {
                    return out;
                }
                out.push(h);
            }
            // Advance one level.
            let mut next: FxHashMap<SpecNodeId, Vec<Vec<Func>>> = FxHashMap::default();
            for (node, paths) in &per_node {
                for (f, to) in spec.succ_row(*node) {
                    if !productive.contains(&to) {
                        continue;
                    }
                    let entry = next.entry(to).or_default();
                    for p in paths {
                        let mut q = p.clone();
                        q.push(f);
                        entry.push(q);
                    }
                }
            }
            for paths in next.values_mut() {
                paths.sort_by(|a, b| lex(a, b));
                paths.truncate(limit);
            }
            if next.is_empty() {
                break;
            }
            per_node = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_term::Func;

    struct Meets {
        i: Interner,
        prog: Program,
        db: Database,
        meets: Pred,
        succ: Func,
        t: Var,
        x: Var,
        tony: Cst,
        jan: Cst,
    }

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    fn meets_setup() -> Meets {
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
        Meets {
            i,
            prog,
            db,
            meets,
            succ,
            t,
            x,
            tony,
            jan,
        }
    }

    /// The paper's introductory query Q = {(t,x) : Meets(t,x)}: the
    /// incremental answer is finite and covers the infinite set of days.
    #[test]
    fn incremental_answer_for_meets() {
        let mut m = meets_setup();
        let mut engine = Engine::build(&m.prog, &m.db, &mut m.i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let q = Query {
            out_fvar: Some(m.t),
            out_nvars: vec![m.x],
            body: vec![fat(m.meets, FTerm::Var(m.t), vec![NTerm::Var(m.x)])],
        };
        assert!(q.is_uniform());
        let ans = q.answer_incremental(&spec, &m.i).unwrap();
        // Finite representation; infinite extension.
        assert!(ans.size() >= 2);
        for n in 0..30usize {
            let path = vec![m.succ; n];
            assert_eq!(ans.holds_term(&spec, &path, &[m.tony]), n % 2 == 0);
            assert_eq!(ans.holds_term(&spec, &path, &[m.jan]), n % 2 == 1);
        }
        // Enumeration yields concrete answers breadth-first.
        let first = ans.enumerate_terms(&spec, 4);
        assert_eq!(first.len(), 4);
        assert_eq!(first[0], (vec![], vec![m.tony]));
        assert_eq!(first[1], (vec![m.succ], vec![m.jan]));
    }

    /// Theorem 5.1: incremental and by-extension answers agree on uniform
    /// queries.
    #[test]
    fn incremental_agrees_with_extension() {
        let mut m = meets_setup();
        let mut engine = Engine::build(&m.prog, &m.db, &mut m.i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let q = Query {
            out_fvar: Some(m.t),
            out_nvars: vec![],
            body: vec![fat(m.meets, FTerm::Var(m.t), vec![NTerm::Const(m.jan)])],
        };
        let inc = q.answer_incremental(&spec, &m.i).unwrap();
        let (ext_spec, query_pred) = q.answer_by_extension(&m.prog, &m.db, &mut m.i).unwrap();
        for n in 0..25usize {
            let path = vec![m.succ; n];
            assert_eq!(
                inc.holds_term(&spec, &path, &[]),
                ext_spec.holds(query_pred, &path, &[]),
                "n={n}"
            );
        }
    }

    /// A query with no functional output projects ∃s.
    #[test]
    fn existential_projection() {
        let mut m = meets_setup();
        let mut engine = Engine::build(&m.prog, &m.db, &mut m.i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        // {x : ∃t Meets(t,x)} = {tony, jan}.
        let q = Query {
            out_fvar: None,
            out_nvars: vec![m.x],
            body: vec![fat(m.meets, FTerm::Var(m.t), vec![NTerm::Var(m.x)])],
        };
        let ans = q.answer_incremental(&spec, &m.i).unwrap();
        assert!(ans.holds_tuple(&[m.tony]));
        assert!(ans.holds_tuple(&[m.jan]));
        assert_eq!(ans.size(), 2);
    }

    /// Ground functional terms in queries are replaced by representatives.
    #[test]
    fn ground_terms_use_representatives() {
        let mut m = meets_setup();
        let mut engine = Engine::build(&m.prog, &m.db, &mut m.i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        // {x : Meets(succ(succ(succ(0))), x)} = {jan}.
        let q = Query {
            out_fvar: None,
            out_nvars: vec![m.x],
            body: vec![fat(
                m.meets,
                FTerm::from_path(&[m.succ, m.succ, m.succ]),
                vec![NTerm::Var(m.x)],
            )],
        };
        let ans = q.answer_incremental(&spec, &m.i).unwrap();
        assert!(ans.holds_tuple(&[m.jan]));
        assert!(!ans.holds_tuple(&[m.tony]));
    }

    /// Validation rejects queries with two functional variables or unbound
    /// outputs.
    #[test]
    fn validation_rejects_bad_queries() {
        let mut m = meets_setup();
        let s2 = Var(m.i.intern("t2"));
        let q = Query {
            out_fvar: None,
            out_nvars: vec![],
            body: vec![
                fat(m.meets, FTerm::Var(m.t), vec![NTerm::Var(m.x)]),
                fat(m.meets, FTerm::Var(s2), vec![NTerm::Var(m.x)]),
            ],
        };
        assert!(matches!(
            q.validate(&m.i),
            Err(Error::UnsupportedQuery { .. })
        ));
        let q2 = Query {
            out_fvar: None,
            out_nvars: vec![Var(m.i.intern("zz"))],
            body: vec![fat(m.meets, FTerm::Var(m.t), vec![NTerm::Var(m.x)])],
        };
        assert!(q2.validate(&m.i).is_err());
    }

    /// A variable in both a functional and a non-functional position is
    /// rejected, as in programs (§2.1), instead of being answered as two
    /// variables.
    #[test]
    fn validation_rejects_mixed_variable_sorts() {
        let mut m = meets_setup();
        let next = Pred(m.i.intern("Next"));
        for body in [
            vec![fat(m.meets, FTerm::Var(m.t), vec![NTerm::Var(m.t)])],
            vec![
                fat(m.meets, FTerm::Var(m.t), vec![NTerm::Var(m.x)]),
                Atom::Relational {
                    pred: next,
                    args: vec![NTerm::Var(m.x), NTerm::Var(m.t)],
                },
            ],
        ] {
            let q = Query {
                out_fvar: Some(m.t),
                out_nvars: vec![],
                body,
            };
            assert!(matches!(
                q.validate(&m.i),
                Err(Error::MixedVariableSorts { var }) if var == "t"
            ));
        }
    }

    /// Non-uniform queries are rejected by the incremental path but work by
    /// extension.
    #[test]
    fn non_uniform_falls_back_to_extension() {
        let mut m = meets_setup();
        let mut engine = Engine::build(&m.prog, &m.db, &mut m.i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        // {x : Meets(succ(t), x)} — non-ground depth-1 term: not uniform.
        let q = Query {
            out_fvar: None,
            out_nvars: vec![m.x],
            body: vec![fat(
                m.meets,
                FTerm::Pure(m.succ, Box::new(FTerm::Var(m.t))),
                vec![NTerm::Var(m.x)],
            )],
        };
        assert!(!q.is_uniform());
        assert!(q.answer_incremental(&spec, &m.i).is_err());
        let (ext_spec, query_pred) = q.answer_by_extension(&m.prog, &m.db, &mut m.i).unwrap();
        // ∃t Meets(succ(t), x): both tony and jan qualify.
        assert!(ext_spec.holds_relational(query_pred, &[m.tony]));
        assert!(ext_spec.holds_relational(query_pred, &[m.jan]));
    }
}
