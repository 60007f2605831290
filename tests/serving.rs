//! Differential properties of the read-serving layer (PR 5): frozen
//! snapshots must be answer-for-answer indistinguishable from their
//! mutable originals, batch answering must be indistinguishable from a
//! per-query loop at every thread count, and — on forward programs, where
//! the naive bounded materialization is exact — everything must agree
//! with the naive baseline too.

mod common;

use common::{all_paths, random_program, GenConfig};
use fundb_core::program::{Atom, FTerm, NTerm};
use fundb_core::{
    normalize, to_pure, BoundedMaterialization, Engine, EqSpec, Governor, GraphSpec, Query,
    ServeQuery,
};
use proptest::prelude::*;

const DEPTH: usize = 4;
const THREADS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Six-way membership agreement on forward programs (where the naive
    /// baseline is exact): the mutable graph spec, its minimization, the
    /// frozen graph spec, the frozen minimized spec, the mutable and the
    /// frozen equational specs all answer exactly like the naive bounded
    /// materialization on every atom up to `DEPTH`.
    #[test]
    fn frozen_specs_agree_with_unfrozen_and_naive(seed in any::<u64>()) {
        let mut gen = random_program(
            GenConfig { forward_only: true, ..GenConfig::default() },
            seed,
        );
        let normal = normalize(&gen.program, &mut gen.interner);
        let pure = to_pure(&normal, &gen.db, &mut gen.interner).unwrap();
        let mat = BoundedMaterialization::run(&pure, DEPTH + 2, &mut gen.interner).unwrap();
        let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        spec.validate().unwrap();
        let minimized = spec.minimized();
        minimized.validate().unwrap();
        let mut eq = EqSpec::from_graph(&spec);
        let frozen_eq = eq.freeze();
        let frozen_min = minimized.clone().freeze();
        let frozen = spec.clone().freeze();
        for path in all_paths(&gen.funcs, DEPTH) {
            for &p in &gen.preds {
                for &c in &gen.consts {
                    let expected = mat.holds(p, &path, &[c]);
                    prop_assert_eq!(
                        spec.holds(p, &path, &[c]), expected,
                        "mutable spec disagrees with naive: {:?} {:?} {:?}", p, path, c
                    );
                    prop_assert_eq!(
                        minimized.holds(p, &path, &[c]), expected,
                        "minimized spec disagrees: {:?} {:?} {:?}", p, path, c
                    );
                    prop_assert_eq!(
                        frozen.holds(p, &path, &[c]), expected,
                        "frozen spec disagrees: {:?} {:?} {:?}", p, path, c
                    );
                    prop_assert_eq!(
                        frozen_min.holds(p, &path, &[c]), expected,
                        "frozen minimized spec disagrees: {:?} {:?} {:?}", p, path, c
                    );
                    prop_assert_eq!(
                        eq.holds(p, &path, &[c]), expected,
                        "mutable eq spec disagrees: {:?} {:?} {:?}", p, path, c
                    );
                    prop_assert_eq!(
                        frozen_eq.holds(p, &path, &[c]), expected,
                        "frozen eq spec disagrees: {:?} {:?} {:?}", p, path, c
                    );
                }
            }
        }
        // Relational membership agrees too.
        for &c in &gen.consts {
            let expected = spec.holds_relational(gen.rel, &[c]);
            prop_assert_eq!(frozen.holds_relational(gen.rel, &[c]), expected);
            prop_assert_eq!(frozen_eq.holds_relational(gen.rel, &[c]), expected);
        }
        // The frozen closure's congruence test matches the mutable one.
        let paths = all_paths(&gen.funcs, 3);
        for a in &paths {
            for b in &paths {
                prop_assert_eq!(
                    frozen_eq.congruent(a, b),
                    eq.congruent(a, b),
                    "congruence disagrees on {:?} vs {:?}", a, b
                );
            }
        }
    }

    /// On general programs the frozen snapshots agree with the unfrozen
    /// spec (no naive oracle here — back-propagation can outrun any
    /// bounded depth).
    #[test]
    fn frozen_specs_agree_on_general_programs(seed in any::<u64>()) {
        let mut gen = random_program(GenConfig::default(), seed);
        let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        spec.validate().unwrap();
        let eq = EqSpec::from_graph(&spec);
        let frozen_eq = eq.freeze();
        let frozen = spec.clone().freeze();
        for path in all_paths(&gen.funcs, DEPTH) {
            for &p in &gen.preds {
                for &c in &gen.consts {
                    let expected = spec.holds(p, &path, &[c]);
                    prop_assert_eq!(
                        frozen.holds(p, &path, &[c]), expected,
                        "frozen spec: {:?} {:?} {:?}", p, path, c
                    );
                    prop_assert_eq!(
                        frozen_eq.holds(p, &path, &[c]), expected,
                        "frozen eq spec: {:?} {:?} {:?}", p, path, c
                    );
                    prop_assert_eq!(
                        frozen.representative_of(&path),
                        spec.representative_of(&path),
                        "frozen representative diverged on {:?}", path
                    );
                }
            }
        }
    }

    /// `answer_batch` is indistinguishable from a per-query loop at 1, 2,
    /// 4 and 8 threads — byte-identical answer vectors.
    #[test]
    fn batch_equals_per_query_loop_at_any_thread_count(seed in any::<u64>()) {
        let mut gen = random_program(GenConfig::default(), seed);
        let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        spec.validate().unwrap();
        let frozen = spec.freeze();
        let mut queries: Vec<ServeQuery> = Vec::new();
        for path in all_paths(&gen.funcs, DEPTH) {
            for &p in &gen.preds {
                for &c in &gen.consts {
                    queries.push(ServeQuery::Member {
                        pred: p,
                        path: path.clone(),
                        args: vec![c],
                    });
                }
            }
        }
        for &c in &gen.consts {
            queries.push(ServeQuery::Relational { pred: gen.rel, args: vec![c] });
        }
        let seq: Vec<bool> = queries.iter().map(|q| frozen.answer(q)).collect();
        for &threads in &THREADS {
            prop_assert_eq!(
                &frozen.answer_batch(&queries, threads, &Governor::default()).unwrap(),
                &seq,
                "batch diverged from the per-query loop at {} threads", threads
            );
        }
    }

    /// `answer_incremental` answered concurrently from 1, 2, 4 and 8
    /// threads against one shared specification returns exactly the
    /// sequential per-query results.
    #[test]
    fn incremental_batch_equals_per_query_loop(seed in any::<u64>()) {
        let mut gen = random_program(GenConfig::default(), seed);
        let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        spec.validate().unwrap();
        let s = fundb_term::Var(gen.interner.intern("qs"));
        let x = fundb_term::Var(gen.interner.intern("qx"));
        let queries: Vec<Query> = gen
            .preds
            .iter()
            .map(|&p| Query {
                out_fvar: Some(s),
                out_nvars: vec![x],
                body: vec![Atom::Functional {
                    pred: p,
                    fterm: FTerm::Var(s),
                    args: vec![NTerm::Var(x)],
                }],
            })
            .collect();
        let seq: Vec<_> = queries
            .iter()
            .map(|q| q.answer_incremental(&spec, &gen.interner).unwrap())
            .collect();
        for &threads in &THREADS {
            let chunk = queries.len().div_ceil(threads);
            let (spec, interner) = (&spec, &gen.interner);
            let batch: Vec<_> = std::thread::scope(|sc| {
                let workers: Vec<_> = queries
                    .chunks(chunk)
                    .map(|qs| {
                        sc.spawn(move || {
                            qs.iter()
                                .map(|q| q.answer_incremental(spec, interner).unwrap())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
            });
            prop_assert_eq!(
                &batch, &seq,
                "concurrent answers diverged at {} threads", threads
            );
        }
    }
}

/// Patching a frozen or mutable spec with a retraction's net deletions
/// answers every relational query like a spec rebuilt without the
/// retracted fact, and leaves the patched store's indexes consistent.
#[test]
fn patched_retraction_answers_like_a_rebuild() {
    use fundb_datalog as dl;
    use fundb_parser::Workspace;

    let rules = "Edge(x, y) -> Path(x, y).\nPath(x, y), Edge(y, z) -> Path(x, z).\n";
    let edges = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("B", "E")];
    let source = |skip: Option<usize>| {
        let mut src = rules.to_string();
        for (k, (x, y)) in edges.iter().enumerate() {
            if Some(k) != skip {
                src.push_str(&format!("Edge({x}, {y}).\n"));
            }
        }
        src
    };
    for (retracted, &(x, y)) in edges.iter().enumerate() {
        let mut ws = Workspace::new();
        ws.parse(&source(None)).unwrap();
        let spec = ws.graph_spec().unwrap();
        spec.validate().unwrap();
        let mut frozen = spec.clone().freeze();
        let mut eq = EqSpec::from_graph(&spec).freeze();
        let mut mutable = spec;

        // Retract one edge from the relational image at its fixpoint.
        let rel_rules = fundb_core::relational_rules(&ws.program).unwrap();
        let mut db = fundb_core::relational_facts(&ws.db).unwrap();
        let plan = dl::DeltaPlan::planned(&rel_rules, &db);
        dl::IncrementalEval::new()
            .run(&mut db, &rel_rules, &plan)
            .unwrap();
        let edge = fundb_term::Pred(ws.interner.get("Edge").unwrap());
        let row = [x, y].map(|c| fundb_term::Cst(ws.interner.get(c).unwrap()));
        let outcome = db.retract_fact(edge, &row, &rel_rules, &plan);
        let net = outcome.net_deleted().len();
        assert!(net > 0, "retracting Edge({x}, {y}) deletes something");

        assert_eq!(mutable.patch_retraction(&outcome), net);
        assert_eq!(eq.patch_retraction(&outcome), net);
        frozen.patch_retraction(&outcome);
        mutable.nf.check_invariants().unwrap();
        frozen.spec().nf.check_invariants().unwrap();

        let mut rebuilt_ws = Workspace::new();
        rebuilt_ws.parse(&source(Some(retracted))).unwrap();
        let rebuilt = rebuilt_ws.graph_spec().unwrap();
        for pred in ["Edge", "Path"] {
            let p = fundb_term::Pred(ws.interner.get(pred).unwrap());
            let rp = fundb_term::Pred(rebuilt_ws.interner.get(pred).unwrap());
            for a in ["A", "B", "C", "D", "E"] {
                for b in ["A", "B", "C", "D", "E"] {
                    let args = [a, b].map(|c| fundb_term::Cst(ws.interner.get(c).unwrap()));
                    // A constant the rebuilt program lost occurs in none of
                    // its facts.
                    let rebuilt_const = |c| rebuilt_ws.interner.get(c).map(fundb_term::Cst);
                    let want = match (rebuilt_const(a), rebuilt_const(b)) {
                        (Some(ra), Some(rb)) => rebuilt.holds_relational(rp, &[ra, rb]),
                        _ => false,
                    };
                    let what = format!("{pred}({a}, {b}) after retracting Edge({x}, {y})");
                    assert_eq!(mutable.holds_relational(p, &args), want, "mutable {what}");
                    assert_eq!(frozen.holds_relational(p, &args), want, "frozen {what}");
                    assert_eq!(eq.holds_relational(p, &args), want, "eq {what}");
                }
            }
        }
    }
}
