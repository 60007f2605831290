//! Derivation provenance: why is a fact in the fixpoint?
//!
//! [`evaluate_traced`] runs exactly the fixpoint [`crate::evaluate`] runs —
//! the same planned [`DeltaPlan`], the same [`IncrementalEval`] rounds, so
//! the same rows in the same order and the same probe-level governor
//! checks — with a [`RoundSink`] that records each relation's length after
//! every round. Relations are append-only, so those lengths rank every row
//! by the round that inserted it: the round of row `i` is the first
//! recorded round whose end length exceeds `i`, one binary search. Rows
//! present before the run are round 0, *given*.
//!
//! [`Provenance::explain`] rebuilds a derivation from the ranks alone. A
//! row of round `r ≥ 1` was derived by a rule firing over the database as
//! it stood after round `r − 1`, so some rule and some binding of its body
//! have every premise in a round `< r`. The explanation takes the first
//! rule, in rule order, whose head unifies with the fact, and the first
//! [`crate::query`] binding of that rule's head-substituted body whose
//! premises all lie in strictly earlier rounds, then recurses on the
//! premises. Ranks strictly decrease along every branch, so the tree is
//! finite and every leaf is a given row; the choice depends only on the
//! rule order and the database, so it is deterministic. The justification
//! found is "first rule, then first binding, from strictly earlier rounds",
//! which need not be the firing whose row the merge inserted first.

use crate::engine::{DeltaPlan, EvalStats, IncrementalEval, RoundSink};
use crate::governor::EvalError;
use crate::rel::{Database, Tuple};
use crate::rule::{Atom, Rule, Term};
use fundb_term::{Cst, FxHashMap, Interner, Pred, Var};

/// Round ranks of a fixpoint run, for explaining its rows.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    /// The evaluated rule set, in rule order.
    rules: Vec<Rule>,
    /// Per relation, `(round, length after that round)` for round 0 (the
    /// length before the run) and every round that grew the relation, in
    /// round order.
    ends: FxHashMap<Pred, Vec<(u32, usize)>>,
}

/// A derivation tree for one fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// The derived (or given) fact.
    pub fact: (Pred, Tuple),
    /// The rule used, or `None` for a database fact.
    pub rule: Option<usize>,
    /// Sub-derivations of the premises (empty for database facts).
    pub premises: Vec<Derivation>,
}

impl Provenance {
    /// Reconstructs a derivation tree of a fact of the traced run's
    /// database. Returns `None` if the fact is not in the database at all;
    /// rows present before the run (or inserted after it) are leaves.
    pub fn explain(&self, db: &Database, pred: Pred, tuple: &[Cst]) -> Option<Derivation> {
        let round = self.round(db, pred, tuple)?;
        Some(self.explain_at(db, pred, tuple, round))
    }

    /// The round of the traced run that inserted a live row of `db` (0 for
    /// rows the run did not insert), or `None` if the row is absent.
    pub fn round(&self, db: &Database, pred: Pred, tuple: &[Cst]) -> Option<u32> {
        let id = db.relation(pred)?.find(tuple)?.index();
        let ends = self.ends.get(&pred).map_or(&[][..], Vec::as_slice);
        Some(
            ends.get(ends.partition_point(|&(_, end)| end <= id))
                .map_or(0, |&(round, _)| round),
        )
    }

    fn explain_at(&self, db: &Database, pred: Pred, tuple: &[Cst], round: u32) -> Derivation {
        let fact = (pred, Tuple::from(tuple));
        if round > 0 {
            for (ri, rule) in self.rules.iter().enumerate() {
                if let Some(premises) = self.justify(db, rule, pred, tuple, round) {
                    return Derivation {
                        fact,
                        rule: Some(ri),
                        premises: premises
                            .iter()
                            .map(|(p, t, r)| self.explain_at(db, *p, t, *r))
                            .collect(),
                    };
                }
            }
        }
        // Round 0, or a database changed since the run: a leaf.
        Derivation {
            fact,
            rule: None,
            premises: Vec::new(),
        }
    }

    /// The premises, with their rounds, of the first binding of `rule`
    /// that derives `pred(tuple)` from rows of rounds `< round`.
    fn justify(
        &self,
        db: &Database,
        rule: &Rule,
        pred: Pred,
        tuple: &[Cst],
        round: u32,
    ) -> Option<Vec<(Pred, Tuple, u32)>> {
        if rule.head.pred != pred || rule.head.args.len() != tuple.len() {
            return None;
        }
        let mut subst: FxHashMap<Var, Cst> = FxHashMap::default();
        for (t, &c) in rule.head.args.iter().zip(tuple) {
            let bound = match *t {
                Term::Const(k) => k,
                Term::Var(v) => *subst.entry(v).or_insert(c),
            };
            if bound != c {
                return None;
            }
        }
        let body: Vec<Atom> = rule
            .body
            .iter()
            .map(|a| {
                let args = a
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Var(v) => subst.get(&v).map_or(*t, |&c| Term::Const(c)),
                        Term::Const(_) => *t,
                    })
                    .collect();
                Atom::new(a.pred, args)
            })
            .collect();
        let mut free: Vec<Var> = Vec::new();
        for v in body.iter().flat_map(Atom::vars) {
            if !free.contains(&v) {
                free.push(v);
            }
        }
        for binding in crate::query(db, &body, &free).ok()? {
            subst.extend(free.iter().copied().zip(binding));
            let premises: Option<Vec<_>> = rule
                .body
                .iter()
                .map(|a| {
                    let t = a.ground(&subst);
                    let r = self.round(db, a.pred, &t).filter(|&r| r < round)?;
                    Some((a.pred, t, r))
                })
                .collect();
            if premises.is_some() {
                return premises;
            }
        }
        None
    }

    /// Renders a derivation tree as an indented proof, for humans.
    pub fn render(d: &Derivation, interner: &Interner) -> String {
        fn go(d: &Derivation, interner: &Interner, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            let args = d
                .fact
                .1
                .iter()
                .map(|c| interner.resolve(c.sym()))
                .collect::<Vec<_>>()
                .join(",");
            let how = match d.rule {
                Some(r) => format!("by rule {r}"),
                None => "given".to_string(),
            };
            out.push_str(&format!(
                "{indent}{}({args})   [{how}]\n",
                interner.resolve(d.fact.0.sym())
            ));
            for p in &d.premises {
                go(p, interner, depth + 1, out);
            }
        }
        let mut out = String::new();
        go(d, interner, 0, &mut out);
        out
    }
}

/// The sink that ranks rows: each relation's length after every round
/// that grew it.
struct RoundEnds {
    ends: FxHashMap<Pred, Vec<(u32, usize)>>,
    /// Rounds completed so far.
    round: u32,
}

impl RoundEnds {
    fn grow(&mut self, pred: Pred, count: usize) {
        let round = self.round + 1;
        let ends = self.ends.entry(pred).or_default();
        match ends.last_mut() {
            Some((r, end)) if *r == round => *end += count,
            last => {
                let end = last.map_or(0, |&mut (_, end)| end) + count;
                ends.push((round, end));
            }
        }
    }
}

impl RoundSink for RoundEnds {
    fn row_committed(&mut self, pred: Pred, _row: &[Cst]) {
        self.grow(pred, 1);
    }

    fn rows_committed(&mut self, pred: Pred, _arity: usize, count: usize, _cells: &[Cst]) {
        self.grow(pred, count);
    }

    fn round_committed(&mut self, _stats: &EvalStats) -> Result<(), String> {
        self.round += 1;
        Ok(())
    }
}

/// [`crate::evaluate`], recording the round ranks [`Provenance::explain`]
/// needs. The fixpoint, its row order and its statistics are the untraced
/// run's.
pub fn evaluate_traced(
    db: &mut Database,
    rules: &[Rule],
) -> Result<(EvalStats, Provenance), EvalError> {
    let mut sink = RoundEnds {
        ends: db
            .iter()
            .map(|(p, rel)| (p, vec![(0, rel.len())]))
            .collect(),
        round: 0,
    };
    let plan = DeltaPlan::planned(rules, db);
    let stats = IncrementalEval::new().run_with_sink(db, rules, &plan, &mut sink)?;
    Ok((
        stats,
        Provenance {
            rules: rules.to_vec(),
            ends: sink.ends,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_term::Interner;

    fn tc_setup() -> (Interner, Database, Vec<Rule>, Pred, Pred, Vec<Cst>) {
        let mut i = Interner::new();
        let edge = Pred(i.intern("Edge"));
        let path = Pred(i.intern("Path"));
        let (x, y, z) = (Var(i.intern("x")), Var(i.intern("y")), Var(i.intern("z")));
        let rules = vec![
            Rule::new(
                Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
                vec![Atom::new(edge, vec![Term::Var(x), Term::Var(y)])],
            ),
            Rule::new(
                Atom::new(path, vec![Term::Var(x), Term::Var(z)]),
                vec![
                    Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
                    Atom::new(edge, vec![Term::Var(y), Term::Var(z)]),
                ],
            ),
        ];
        let nodes: Vec<Cst> = (0..4).map(|k| Cst(i.intern(&format!("v{k}")))).collect();
        let mut db = Database::new();
        for w in nodes.windows(2) {
            db.insert(edge, &[w[0], w[1]]);
        }
        (i, db, rules, edge, path, nodes)
    }

    #[test]
    fn traced_fixpoint_matches_untrace() {
        let (_, db0, rules, _, _, _) = tc_setup();
        let mut db1 = db0.clone();
        let mut db2 = db0;
        let untraced = crate::evaluate(&mut db1, &rules).unwrap();
        let (traced, _) = evaluate_traced(&mut db2, &rules).unwrap();
        assert_eq!(untraced, traced);
        let rows = |db: &Database| -> Vec<(Pred, Vec<Vec<Cst>>)> {
            let mut out: Vec<_> = db
                .iter()
                .map(|(p, rel)| (p, rel.rows().map(<[Cst]>::to_vec).collect()))
                .collect();
            out.sort_by_key(|(p, _)| *p);
            out
        };
        assert_eq!(rows(&db1), rows(&db2), "same rows in the same order");
    }

    #[test]
    fn premises_come_from_strictly_earlier_rounds() {
        let (_, mut db, rules, _, path, nodes) = tc_setup();
        let (_, prov) = evaluate_traced(&mut db, &rules).unwrap();
        // Path(v0,v1) is round 1, Path(v0,v2) round 2, Path(v0,v3) round 3.
        for (k, round) in [(1, 1), (2, 2), (3, 3)] {
            assert_eq!(prov.round(&db, path, &[nodes[0], nodes[k]]), Some(round));
        }
        let d = prov.explain(&db, path, &[nodes[0], nodes[3]]).unwrap();
        assert_eq!(
            d.premises[0].fact,
            (path, Tuple::from(&[nodes[0], nodes[2]][..]))
        );
        assert_eq!(d.premises[0].rule, Some(1));
    }

    #[test]
    fn explanations_bottom_out_in_edb() {
        let (_, mut db, rules, edge, path, nodes) = tc_setup();
        let (_, prov) = evaluate_traced(&mut db, &rules).unwrap();
        let d = prov
            .explain(&db, path, &[nodes[0], nodes[3]])
            .expect("Path(v0,v3) holds");
        // The transitive step uses rule 1 with a Path premise and an Edge
        // premise.
        assert_eq!(d.rule, Some(1));
        assert_eq!(d.premises.len(), 2);
        // Walk to the leaves: every leaf is an Edge (EDB) fact.
        fn leaves(d: &Derivation, out: &mut Vec<(Pred, Tuple)>) {
            if d.premises.is_empty() {
                out.push(d.fact.clone());
            } else {
                for p in &d.premises {
                    leaves(p, out);
                }
            }
        }
        let mut ls = Vec::new();
        leaves(&d, &mut ls);
        assert!(ls.iter().all(|(p, _)| *p == edge));
        assert_eq!(ls.len(), 3, "three edges justify Path(v0,v3)");
    }

    #[test]
    fn edb_facts_are_given() {
        let (_, mut db, rules, edge, _, nodes) = tc_setup();
        let (_, prov) = evaluate_traced(&mut db, &rules).unwrap();
        let d = prov.explain(&db, edge, &[nodes[0], nodes[1]]).unwrap();
        assert_eq!(d.rule, None);
        assert!(d.premises.is_empty());
    }

    #[test]
    fn absent_facts_have_no_explanation() {
        let (_, mut db, rules, _, path, nodes) = tc_setup();
        let (_, prov) = evaluate_traced(&mut db, &rules).unwrap();
        assert!(prov.explain(&db, path, &[nodes[3], nodes[0]]).is_none());
    }

    #[test]
    fn render_is_indented_and_complete() {
        let (i, mut db, rules, _, path, nodes) = tc_setup();
        let (_, prov) = evaluate_traced(&mut db, &rules).unwrap();
        let d = prov.explain(&db, path, &[nodes[0], nodes[2]]).unwrap();
        let text = Provenance::render(&d, &i);
        assert!(text.contains("Path(v0,v2)   [by rule 1]"));
        assert!(text.contains("  Edge(v1,v2)   [given]"));
    }
}
