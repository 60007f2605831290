//! The boundary of the engine's relational store.
//!
//! The engine keeps its relational facts once, as the untagged relations
//! of its one database, beside the context-tagged and fixed-node rows of
//! the slices and the scope rows of a scoped program. Over a scoped
//! program, a lifted mixed program and a program that derives relational
//! facts during the solve, this checks that:
//!
//! * `Engine::nf` holds exactly the schema's relational predicates;
//! * its rows are the relational facts of the naive bounded
//!   materialization;
//! * `Engine::holds_relational` is false on the rows of every tagged
//!   relation and of the scope relation.

use fundb_bench::{binary_counter, ring_planner};
use fundb_core::compile::Loc;
use fundb_core::{normalize, to_pure, BoundedMaterialization};
use fundb_datalog as dl;
use fundb_parser::Workspace;
use fundb_term::{Cst, Pred, Sym};

/// Every relation's rows, sorted, per predicate.
fn rows(db: &dl::Database, keep: impl Fn(Pred) -> bool) -> Vec<(Pred, Vec<Vec<Cst>>)> {
    let mut out: Vec<(Pred, Vec<Vec<Cst>>)> = db
        .iter()
        .filter(|&(p, _)| keep(p))
        .map(|(p, rel)| {
            let mut rows: Vec<Vec<Cst>> = rel.rows().map(<[Cst]>::to_vec).collect();
            rows.sort_unstable();
            (p, rows)
        })
        .collect();
    out.sort_unstable();
    out
}

/// Checks the store of `ws`'s engine against a naive materialization to
/// `depth` and returns how many tagged and scope rows were probed.
fn check_store(name: &str, ws: &mut Workspace, depth: usize) -> usize {
    let engine = ws.engine().unwrap();
    let normal = normalize(&ws.program, &mut ws.interner);
    let pure = to_pure(&normal, &ws.db, &mut ws.interner).unwrap();
    let naive = BoundedMaterialization::run(&pure, depth, &mut ws.interner).unwrap();
    let cp = engine.compiled();
    let schema = &cp.schema;

    let nf = engine.nf();
    let mut preds: Vec<Pred> = nf.iter().map(|(p, _)| p).collect();
    let mut relational: Vec<Pred> = schema
        .sigs
        .keys()
        .copied()
        .filter(|&p| schema.is_relational(p))
        .collect();
    preds.sort_unstable();
    relational.sort_unstable();
    assert_eq!(preds, relational, "{name}: the store's predicates");
    assert_eq!(
        rows(&nf, |_| true),
        rows(&naive.db, |p| schema.is_relational(p)),
        "{name}: the store's rows"
    );

    // The rows of the tagged relations, rebuilt from the root context's
    // slices (context 0 is the root), and the scope rows of the first
    // contexts.
    let root = Cst(Sym::synthetic(0));
    let mut probes: Vec<(Pred, Vec<Cst>)> = (0..8)
        .map(|id| (Pred(Sym::PLACEHOLDER), vec![Cst(Sym::synthetic(id))]))
        .collect();
    let tagged = cp.star_rules().iter().chain(cp.fixed_rules());
    let tagged = tagged.flat_map(|r| std::iter::once(&r.head).chain(&r.body));
    for p in tagged.map(|a| a.pred) {
        let Some((q, loc)) = cp.untag(p) else {
            continue;
        };
        let slices: Vec<(Vec<_>, Vec<Cst>)> = match loc {
            Loc::Here => vec![(vec![], vec![root])],
            Loc::Child(f) => vec![(vec![f], vec![root])],
            Loc::Mixed(g) => pure
                .sym_map
                .iter()
                .filter(|((h, _), _)| *h == g)
                .map(|((_, lead), &f)| {
                    (
                        vec![f],
                        std::iter::once(root).chain(lead.iter().copied()).collect(),
                    )
                })
                .collect(),
            Loc::Fixed(n) => vec![(cp.tree.path(n), vec![])],
        };
        for (path, lead) in slices {
            for atom in engine.state_of_path(&path).iter() {
                let (r, args) = engine.atoms().resolve(atom);
                if r == q {
                    probes.push((p, lead.iter().chain(args).copied().collect()));
                }
            }
        }
    }
    for (p, row) in &probes {
        assert!(
            !engine.holds_relational(*p, row),
            "{name}: a row of {p:?} answered as a relational fact"
        );
    }
    probes.len()
}

#[test]
fn the_store_holds_exactly_the_relational_predicates() {
    let probed = check_store("binary_counter(4)", &mut binary_counter(4), 4);
    assert!(probed > 8, "binary_counter(4): no tagged rows probed");
    let probed = check_store("ring_planner(6)", &mut ring_planner(6), 2);
    assert!(probed > 8, "ring_planner(6): no tagged rows probed");

    // `Seen` is derived during the solve, at the stars where `Meets` holds.
    let mut ws = Workspace::new();
    ws.parse(
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Meets(t, x) -> Seen(x).
         Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
    )
    .unwrap();
    let probed = check_store("meets_seen", &mut ws, 3);
    assert!(probed > 8, "meets_seen: no tagged rows probed");
    let engine = ws.engine().unwrap();
    let seen = Pred(ws.interner.get("Seen").unwrap());
    let jan = Cst(ws.interner.get("Jan").unwrap());
    assert!(engine.holds_relational(seen, &[jan]));
    assert_eq!(engine.nf().relation(seen).map(dl::Relation::len), Some(2));
}
