//! §5 query answering, cross-checked between the incremental and
//! by-extension strategies (Theorem 5.1) and against direct membership.

mod common;

use common::{all_paths, random_program, GenConfig};
use fundb_core::program::{Atom, FTerm, NTerm};
use fundb_core::{Engine, GraphSpec, Query};
use fundb_parser::Workspace;
use proptest::prelude::*;

/// Theorem 5.1 on random programs: incremental and by-extension answers
/// agree on every term up to the test depth, for the canonical uniform
/// query `{(s, x) : P(s, x)}` and for conjunctions that exercise every
/// case of the rewrite onto the relational query executor: two functional
/// atoms sharing `s` and `x`, a functional atom joined to a relational
/// one, a ground-term atom next to an `s` atom, and an `∃s` projection.
#[test]
fn theorem_5_1_on_random_programs() {
    for seed in 0..30u64 {
        let mut gen = random_program(GenConfig::default(), seed);
        let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let s = fundb_term::Var(gen.interner.intern("qs"));
        let x = fundb_term::Var(gen.interner.intern("qx"));
        let y = fundb_term::Var(gen.interner.intern("qy"));
        let fat = |pred, fterm, arg| Atom::Functional {
            pred,
            fterm,
            args: vec![NTerm::Var(arg)],
        };
        let ground = FTerm::from_path(&gen.funcs[..1]);
        for (k, &p) in gen.preds.iter().enumerate() {
            let q = gen.preds[(k + 1) % gen.preds.len()];
            let queries = [
                Query {
                    out_fvar: Some(s),
                    out_nvars: vec![x],
                    body: vec![fat(p, FTerm::Var(s), x)],
                },
                Query {
                    out_fvar: Some(s),
                    out_nvars: vec![x],
                    body: vec![fat(p, FTerm::Var(s), x), fat(q, FTerm::Var(s), x)],
                },
                Query {
                    out_fvar: Some(s),
                    out_nvars: vec![x],
                    body: vec![
                        fat(p, FTerm::Var(s), x),
                        Atom::Relational {
                            pred: gen.rel,
                            args: vec![NTerm::Var(x)],
                        },
                    ],
                },
                Query {
                    out_fvar: Some(s),
                    out_nvars: vec![x, y],
                    body: vec![fat(p, FTerm::Var(s), x), fat(q, ground.clone(), y)],
                },
                Query {
                    out_fvar: None,
                    out_nvars: vec![x],
                    body: vec![fat(p, FTerm::Var(s), x), fat(q, FTerm::Var(s), x)],
                },
            ];
            for (qi, query) in queries.iter().enumerate() {
                assert!(query.is_uniform());
                let inc = query.answer_incremental(&spec, &gen.interner).unwrap();
                let (ext, qp) = query
                    .answer_by_extension(&gen.program, &gen.db, &mut gen.interner)
                    .unwrap();
                let mut tuples: Vec<Vec<fundb_term::Cst>> = vec![vec![]];
                for _ in &query.out_nvars {
                    tuples = tuples
                        .iter()
                        .flat_map(|t| {
                            gen.consts.iter().map(move |&c| {
                                let mut t = t.clone();
                                t.push(c);
                                t
                            })
                        })
                        .collect();
                }
                for t in &tuples {
                    if query.out_fvar.is_none() {
                        assert_eq!(
                            inc.holds_tuple(t),
                            ext.holds_relational(qp, t),
                            "seed {seed} pred {p:?} query {qi} tuple {t:?}"
                        );
                        continue;
                    }
                    for path in all_paths(&gen.funcs, 3) {
                        assert_eq!(
                            inc.holds_term(&spec, &path, t),
                            ext.holds(qp, &path, t),
                            "seed {seed} pred {p:?} query {qi} path {path:?} tuple {t:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Enumerated answers (a) all hold, (b) come in breadth-first order, and
/// (c) cover every holding term up to the enumerated horizon.
#[test]
fn enumeration_is_sound_and_ordered() {
    let mut ws = Workspace::new();
    ws.parse(
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
    )
    .unwrap();
    let spec = ws.graph_spec().unwrap();
    let q = ws.parse_query("Meets(t, x)").unwrap();
    let ans = q.answer_incremental(&spec, &ws.interner).unwrap();
    let listed = ans.enumerate_terms(&spec, 12);
    assert_eq!(listed.len(), 12);
    // Sound and ordered by depth.
    let mut last_depth = 0;
    for (path, tuple) in &listed {
        assert!(ans.holds_term(&spec, path, tuple));
        assert!(path.len() >= last_depth);
        last_depth = path.len();
    }
    // Complete on the horizon: every day 0..12 appears exactly once.
    let days: Vec<usize> = listed.iter().map(|(p, _)| p.len()).collect();
    assert_eq!(days, (0..12).collect::<Vec<_>>());
}

/// Projection queries (∃s) and fully relational queries.
#[test]
fn projection_and_relational_queries() {
    let mut ws = Workspace::new();
    ws.parse(
        "In(t, g, r1), Rotates(g, r1, r2) -> In(t+1, g, r2).
         In(0, Alpha, Lab).
         Rotates(Alpha, Lab, Aud). Rotates(Alpha, Aud, Lab).",
    )
    .unwrap();
    let spec = ws.graph_spec().unwrap();

    // {r : ∃t In(t, Alpha, r)} = {Lab, Aud}.
    let q = ws.parse_query("In(t, Alpha, r)").unwrap();
    // Keep only the relational output (drop the functional one).
    let q = Query {
        out_fvar: None,
        ..q
    };
    let ans = q.answer_incremental(&spec, &ws.interner).unwrap();
    let lab = fundb_term::Cst(ws.interner.get("Lab").unwrap());
    let aud = fundb_term::Cst(ws.interner.get("Aud").unwrap());
    assert!(ans.holds_tuple(&[lab]));
    assert!(ans.holds_tuple(&[aud]));
    assert_eq!(ans.size(), 2);

    // Fully relational: {r2 : Rotates(Alpha, Lab, r2)}.
    let q2 = ws.parse_query("Rotates(Alpha, Lab, r2)").unwrap();
    let ans2 = q2.answer_incremental(&spec, &ws.interner).unwrap();
    assert!(ans2.holds_tuple(&[aud]));
    assert_eq!(ans2.size(), 1);
}

/// Conjunctive queries joining functional and relational atoms at one
/// functional variable.
#[test]
fn conjunctive_join_queries() {
    let mut ws = Workspace::new();
    ws.parse(
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).
         Senior(Tony).",
    )
    .unwrap();
    let spec = ws.graph_spec().unwrap();
    // {t : Meets(t, x), Senior(x)} — the days a senior student meets.
    let q = ws.parse_query("Meets(t, x), Senior(x)").unwrap();
    let q = Query {
        out_fvar: q.out_fvar,
        out_nvars: vec![],
        body: q.body,
    };
    let inc = q.answer_incremental(&spec, &ws.interner).unwrap();
    let plus1 = fundb_term::Func(ws.interner.get("+1").unwrap());
    for n in 0..20usize {
        assert_eq!(
            inc.holds_term(&spec, &vec![plus1; n], &[]),
            n % 2 == 0,
            "day {n}"
        );
    }
}

/// The paper's incremental example (§5): "In the list processing example …
/// assume the query is Member(s,a) → QUERY(s). The incremental graph
/// specification of the query contains the same representative terms … The
/// successor mappings are unchanged. However, the primary database is now:
/// QUERY(a). QUERY(ab)."
#[test]
fn section_5_lists_incremental_example() {
    let mut ws = Workspace::new();
    ws.parse(
        "P(x) -> Member(ext(0, x), x).
         P(y), Member(s, x) -> Member(ext(s, y), y).
         P(y), Member(s, x) -> Member(ext(s, y), x).
         P(A). P(B).",
    )
    .unwrap();
    let spec = ws.graph_spec().unwrap().minimized();
    let q = ws.parse_query("Member(s, A)").unwrap();
    let ans = q.answer_incremental(&spec, &ws.interner).unwrap();

    let exta = fundb_term::Func(ws.interner.get("ext[A]").unwrap());
    let extb = fundb_term::Func(ws.interner.get("ext[B]").unwrap());
    // QUERY(a) and QUERY(ab) — and nothing else (two clusters).
    assert_eq!(ans.size(), 2);
    assert!(ans.holds_term(&spec, &[exta], &[]));
    assert!(ans.holds_term(&spec, &[exta, extb], &[]));
    assert!(ans.holds_term(&spec, &[extb, exta], &[])); // ba ≅ ab
    assert!(!ans.holds_term(&spec, &[extb], &[]));
    assert!(!ans.holds_term(&spec, &[], &[]));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Incremental answers agree with direct membership: for every term t,
    /// t ∈ answer({s : P(s, C)}) iff P(t, C) ∈ LFP.
    #[test]
    fn incremental_answers_match_membership(seed in any::<u64>()) {
        let mut gen = random_program(GenConfig::default(), seed);
        let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let s = fundb_term::Var(gen.interner.intern("qs"));
        let c = gen.consts[0];
        for &p in &gen.preds {
            let q = Query {
                out_fvar: Some(s),
                out_nvars: vec![],
                body: vec![Atom::Functional {
                    pred: p,
                    fterm: FTerm::Var(s),
                    args: vec![NTerm::Const(c)],
                }],
            };
            let ans = q.answer_incremental(&spec, &gen.interner).unwrap();
            for path in all_paths(&gen.funcs, 3) {
                prop_assert_eq!(
                    ans.holds_term(&spec, &path, &[]),
                    engine.holds(p, &path, &[c])
                );
            }
        }
    }
}
