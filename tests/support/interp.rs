//! The oldest evaluator in the tree, kept as a differential-testing
//! oracle: a naive fixpoint over a recursive, hash-map-binding join that
//! visits body atoms in written order and selects through
//! [`Relation::select`] patterns. It uses only the public `Database` /
//! `Relation` API, so it shares no code with the compiled join programs it
//! checks.

use fundb_datalog::{Database, Relation, Rule, Term};
use fundb_term::{Cst, FxHashMap, Pred, Var};

/// Runs `rules` over `db` to the least fixpoint, naively: every round
/// joins every rule against the whole database and inserts the heads it
/// derived, in firing order, until a round derives nothing new.
pub fn evaluate_naive_interpreted(db: &mut Database, rules: &[Rule]) {
    loop {
        let mut derived: Vec<(Pred, Vec<Cst>)> = Vec::new();
        for rule in rules {
            join_rec(db, rule, 0, &mut FxHashMap::default(), &mut derived);
        }
        let mut changed = false;
        for (p, row) in &derived {
            changed |= db.insert_derived(*p, row);
        }
        if !changed {
            return;
        }
    }
}

/// Joins body atoms `idx..` under the bindings in `subst`, pushing one
/// grounded head per complete match.
fn join_rec(
    db: &Database,
    rule: &Rule,
    idx: usize,
    subst: &mut FxHashMap<Var, Cst>,
    out: &mut Vec<(Pred, Vec<Cst>)>,
) {
    if idx == rule.body.len() {
        let head = rule.head.args.iter().map(|t| match t {
            Term::Const(c) => *c,
            Term::Var(v) => *subst.get(v).expect("unsafe rule: head variable unbound"),
        });
        out.push((rule.head.pred, head.collect()));
        return;
    }
    let atom = &rule.body[idx];
    let Some(rel): Option<&Relation> = db.relation(atom.pred) else {
        return;
    };
    let pattern: Vec<Option<Cst>> = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(v) => subst.get(v).copied(),
        })
        .collect();
    for row in rel.select(&pattern) {
        let mut bound = Vec::new();
        let mut ok = true;
        for (t, v) in atom.args.iter().zip(row.iter()) {
            match t {
                Term::Const(c) => ok = c == v,
                Term::Var(var) => match subst.get(var) {
                    Some(existing) => ok = existing == v,
                    None => {
                        subst.insert(*var, *v);
                        bound.push(*var);
                    }
                },
            }
            if !ok {
                break;
            }
        }
        if ok {
            join_rec(db, rule, idx + 1, subst, out);
        }
        for var in bound {
            subst.remove(&var);
        }
    }
}
