//! Differential fuzz harness over generated scenario families (PR 6).
//!
//! Each seed drives `fundb_bench::scenariogen` to produce one scenario of
//! a family (skewed fan-out, dense cross-products, cyclic rule
//! dependencies, bounded derivation depth, temporal lassos) and asserts
//! the full agreement lattice on it:
//!
//! * compiled semi-naive ≡ compiled naive ≡ the PR 1/2 interpreter,
//! * cost-planned ≡ greedy-planned (the planner may change probe order,
//!   never answers),
//! * byte-identical rows *and* statistics at 1/2/4/8 threads for a fixed
//!   plan,
//! * governed runs that hit a budget stop on a completed-round prefix of
//!   the ungoverned run,
//! * the parsed text through engine → `GraphSpec` → frozen serving
//!   answers membership exactly like the datalog fixpoint, at every batch
//!   thread count,
//! * temporal scenarios: `TemporalSpec` ≡ `GraphSpec` ≡ frozen spec on
//!   points and whole intervals, far beyond the lasso prefix,
//! * goal-directed (magic-set) rewritten evaluation ≡ unrewritten full
//!   materialization on ground, partially-bound, and all-free goals, with
//!   byte-identical rows and statistics at 1/2/4/8 overlay threads (PR 7),
//! * composite-index probes ≡ full scans, and the cyclic probe-ratio
//!   ≥ 1.0 hysteresis pin,
//! * incremental retraction (PR 10): replaying a seeded churn script
//!   (retract/re-insert mix) through `Database::retract_fact` plus one-row
//!   forward deltas agrees after *every* op with rebuild-from-scratch and
//!   the naive oracle, is byte-identical (rows *and* statistics) at
//!   1/2/4/8 threads, rolls a cancelled retraction back whole, and keeps
//!   composite-index probes sound over tombstones.
//!
//! Case counts (48 × 7 relational families + 24 temporal = 360 scenarios)
//! keep the default `cargo test` run above the 200-scenario floor;
//! `PROPTEST_CASES` scales the budget up in the nightly job.

#[path = "support/interp.rs"]
mod interp;

use fundb_bench::scenariogen::{self, Scenario, TemporalScenario, RELATIONAL_FAMILIES};
use fundb_core::ServeQuery;
use fundb_datalog as dl;
use fundb_parser::Workspace;
use fundb_temporal::TemporalSpec;
use fundb_term::{Cst, Func, Pred, Var};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// `(pred index, rows-in-insertion-order)` per relation — the shape every
/// determinism/prefix comparison below works over.
type Dump = Vec<(usize, Vec<Vec<usize>>)>;

/// Per-predicate rows in insertion order, as plain indices: the
/// byte-determinism and prefix checks compare these, not just sorted
/// answer sets.
fn row_lists(db: &dl::Database) -> Dump {
    let mut out: Dump = db
        .iter()
        .map(|(p, rel)| {
            let rows = rel
                .rows()
                .map(|r| r.iter().map(|c| c.index()).collect())
                .collect();
            (p.index(), rows)
        })
        .collect();
    out.sort_by_key(|&(p, _)| p);
    out
}

/// Asserts `partial` is a completed-round prefix of `full`: every relation
/// present in `partial` holds a prefix (in insertion order) of the same
/// relation's rows in `full`.
fn assert_prefix(
    partial: &[(usize, Vec<Vec<usize>>)],
    full: &[(usize, Vec<Vec<usize>>)],
    ctx: &str,
) {
    for (p, rows) in partial {
        let fr = full
            .iter()
            .find(|(fp, _)| fp == p)
            .map(|(_, r)| r.as_slice())
            .unwrap_or(&[]);
        assert!(
            rows.len() <= fr.len() && rows.as_slice() == &fr[..rows.len()],
            "{ctx}: governed rows are not a prefix of the full run (pred {p})"
        );
    }
}

/// Panics unless every relation of `db` passes
/// `Database::check_invariants` (indexes, dedup table and counters exactly
/// match the arena).
fn assert_invariants(db: &dl::Database, ctx: &str, arm: &str) {
    if let Err(e) = db.check_invariants() {
        panic!("{ctx}: {arm}: {e}");
    }
}

fn check_relational(s: &Scenario) {
    let ctx = format!("{} seed {}", s.family, s.seed);

    // Compiled semi-naive under the cost planner (the `evaluate` default).
    let mut compiled = s.db.clone();
    dl::evaluate(&mut compiled, &s.rules).unwrap_or_else(|e| panic!("{ctx}: evaluate: {e:?}"));
    assert_invariants(&compiled, &ctx, "compiled");
    let dump = compiled.dump(&s.interner);

    // Compiled naive.
    let mut naive = s.db.clone();
    dl::evaluate_naive(&mut naive, &s.rules).unwrap();
    assert_invariants(&naive, &ctx, "naive");
    assert_eq!(dump, naive.dump(&s.interner), "{ctx}: naive disagrees");

    // The PR 1/2 interpreter oracle.
    let mut interp = s.db.clone();
    interp::evaluate_naive_interpreted(&mut interp, &s.rules);
    assert_invariants(&interp, &ctx, "interpreter");
    assert_eq!(
        dump,
        interp.dump(&s.interner),
        "{ctx}: interpreter disagrees"
    );

    // Greedy-planned (planner off) answers must match cost-planned.
    let mut greedy = s.db.clone();
    let greedy_plan = dl::DeltaPlan::new(&s.rules);
    dl::IncrementalEval::new()
        .run(&mut greedy, &s.rules, &greedy_plan)
        .unwrap();
    assert_invariants(&greedy, &ctx, "greedy");
    assert_eq!(
        dump,
        greedy.dump(&s.interner),
        "{ctx}: greedy plan disagrees"
    );

    // Byte-determinism: fixed plan, 1/2/4/8 threads, forced-parallel; the
    // rows must also be the fixpoint every arm above agreed on.
    let plan = dl::DeltaPlan::planned(&s.rules, &s.db);
    let mut reference: Option<(Dump, dl::EvalStats)> = None;
    for threads in THREADS {
        let mut db = s.db.clone();
        let stats = dl::IncrementalEval::new()
            .with_threads(threads)
            .with_parallel_threshold(1)
            .run(&mut db, &s.rules, &plan)
            .unwrap();
        assert_invariants(&db, &ctx, &format!("planned at {threads} threads"));
        let rows = row_lists(&db);
        match &reference {
            None => {
                assert_eq!(dump, db.dump(&s.interner), "{ctx}: planned run disagrees");
                reference = Some((rows, stats));
            }
            Some((r, st)) => {
                assert_eq!(&rows, r, "{ctx}: rows differ at {threads} threads");
                assert_eq!(&stats, st, "{ctx}: stats differ at {threads} threads");
            }
        }
    }
    let full_rows = row_lists(&compiled);

    // Governed runs stop on completed-round prefixes.
    for rounds in [1usize, 2] {
        let mut db = s.db.clone();
        let gov = dl::Governor::new(dl::Budget::unlimited().with_max_rounds(rounds));
        let plan = dl::DeltaPlan::planned(&s.rules, &db);
        let governed = dl::IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &s.rules, &plan);
        assert_invariants(&db, &ctx, &format!("governed to {rounds} rounds"));
        match governed {
            Ok(_) => assert_eq!(row_lists(&db), full_rows, "{ctx}: governed Ok differs"),
            Err(dl::EvalError::BudgetExhausted { .. }) => {
                assert_prefix(&row_lists(&db), &full_rows, &ctx);
            }
            Err(e) => panic!("{ctx}: unexpected governed error {e:?}"),
        }
    }

    // Goal-directed (magic-set) evaluation must agree with the fixpoint.
    check_demand(s, &compiled, &ctx);

    // The same program through text → parser → engine → frozen serving.
    let mut ws = Workspace::new();
    ws.parse(&s.text)
        .unwrap_or_else(|e| panic!("{ctx}: parse: {e:?}"));
    let spec = ws
        .graph_spec()
        .unwrap_or_else(|e| panic!("{ctx}: graph_spec: {e:?}"));
    for built in [spec.clone(), spec.minimized()] {
        built
            .validate()
            .unwrap_or_else(|e| panic!("{ctx}: validate: {e:?}"));
    }
    let frozen = spec.clone().freeze();
    let mut queries = Vec::with_capacity(s.queries.len());
    let mut expected = Vec::with_capacity(s.queries.len());
    for (pname, argnames) in &s.queries {
        // Resolve per representation; every query symbol appears in both.
        let dp = Pred(s.interner.get(pname).unwrap());
        let drow: Vec<Cst> = argnames
            .iter()
            .map(|a| Cst(s.interner.get(a).unwrap()))
            .collect();
        let truth = compiled.contains(dp, &drow);
        let wp = Pred(ws.interner.get(pname).unwrap());
        let wrow: Vec<Cst> = argnames
            .iter()
            .map(|a| Cst(ws.interner.get(a).unwrap()))
            .collect();
        assert_eq!(
            spec.holds_relational(wp, &wrow),
            truth,
            "{ctx}: GraphSpec disagrees on {pname}({argnames:?})"
        );
        // And the one-off conjunctive query API over the fixpoint.
        let body = [dl::Atom::new(
            dp,
            drow.iter().map(|&c| dl::Term::Const(c)).collect(),
        )];
        assert_eq!(
            !dl::query(&compiled, &body, &[]).unwrap().is_empty(),
            truth,
            "{ctx}: dl::query disagrees on {pname}({argnames:?})"
        );
        queries.push(ServeQuery::Relational {
            pred: wp,
            args: wrow,
        });
        expected.push(truth);
    }
    for threads in THREADS {
        assert_eq!(
            frozen
                .answer_batch(&queries, threads, &dl::Governor::default())
                .unwrap(),
            expected,
            "{ctx}: frozen batch disagrees at {threads} threads"
        );
    }
}

/// Goal-directed differential (PR 7): the magic-set rewrite must answer
/// every binding pattern of the scenario's query workload — fully ground,
/// first-argument-bound, and all-free — exactly like the materialized
/// fixpoint, and the overlay evaluation must be byte-deterministic (rows
/// *and* statistics) across thread counts with the parallel path forced.
fn check_demand(s: &Scenario, compiled: &dl::Database, ctx: &str) {
    // Every family's rules use `x`/`y`/`z`, so these resolve in all
    // scenarios; they stand in for the free argument positions of a goal.
    let free = [
        Var(s.interner.get("x").unwrap()),
        Var(s.interner.get("y").unwrap()),
        Var(s.interner.get("z").unwrap()),
    ];
    for (qi, (pname, argnames)) in s.queries.iter().take(4).enumerate() {
        let p = Pred(s.interner.get(pname).unwrap());
        let row: Vec<Cst> = argnames
            .iter()
            .map(|a| Cst(s.interner.get(a).unwrap()))
            .collect();
        let arity = row.len();
        assert!(
            arity <= free.len(),
            "{ctx}: query arity outgrew the var pool"
        );
        let mut masks = vec![(1usize << arity) - 1, 1, 0];
        masks.dedup();
        for mask in masks {
            let mut terms = Vec::with_capacity(arity);
            let mut outs = Vec::new();
            for (i, c) in row.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    terms.push(dl::Term::Const(*c));
                } else {
                    terms.push(dl::Term::Var(free[i]));
                    outs.push(free[i]);
                }
            }
            let body = [dl::Atom::new(p, terms)];
            let mut expected = dl::query(compiled, &body, &outs)
                .unwrap_or_else(|e| panic!("{ctx}: full query: {e:?}"));
            expected.sort();
            // In debug builds `query_demand` also validates its magic-set
            // overlay with `Database::check_invariants`.
            let ans = dl::query_demand(&s.db, &s.rules, &body, &outs, &dl::IncrementalEval::new())
                .unwrap_or_else(|e| panic!("{ctx}: demand query: {e:?}"));
            let mut got = ans.rows.clone();
            got.sort();
            assert_eq!(
                got, expected,
                "{ctx}: demand disagrees on {pname} mask {mask:#b}"
            );
            // Thread determinism on the first goal's patterns: same rows
            // and same stats at every thread count, forced-parallel.
            if qi == 0 {
                let mut reference: Option<dl::DemandAnswer> = None;
                for threads in THREADS {
                    let eval = dl::IncrementalEval::new()
                        .with_threads(threads)
                        .with_parallel_threshold(1);
                    let tuned = dl::query_demand(&s.db, &s.rules, &body, &outs, &eval)
                        .unwrap_or_else(|e| panic!("{ctx}: tuned demand: {e:?}"));
                    match &reference {
                        None => reference = Some(tuned),
                        Some(r) => {
                            assert_eq!(&tuned, r, "{ctx}: demand differs at {threads} threads")
                        }
                    }
                }
            }
        }
    }
}

fn check_temporal(t: &TemporalScenario) {
    let ctx = format!("temporal seed {}", t.seed);
    let mut ws = Workspace::new();
    ws.parse(&t.text)
        .unwrap_or_else(|e| panic!("{ctx}: parse: {e:?}"));
    let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner)
        .unwrap_or_else(|e| panic!("{ctx}: TemporalSpec: {e:?}"));
    let gspec = ws
        .graph_spec()
        .unwrap_or_else(|e| panic!("{ctx}: graph_spec: {e:?}"));
    for built in [gspec.clone(), gspec.minimized()] {
        built
            .validate()
            .unwrap_or_else(|e| panic!("{ctx}: validate: {e:?}"));
    }
    let frozen = gspec.clone().freeze();
    let succ = Func(ws.interner.get("+1").unwrap());
    let (rho, rho_lambda) = spec.equation();
    // Probe the whole prefix, two full cycles, and a margin beyond.
    let horizon = (rho_lambda + (rho_lambda - rho) + 4) as u64;

    let resolve = |ws: &mut Workspace, names: &[String]| -> Vec<Cst> {
        names.iter().map(|n| Cst(ws.interner.intern(n))).collect()
    };
    let mut queries = Vec::new();
    let mut expected = Vec::new();
    let mut check_point = |ws: &mut Workspace, pname: &str, n: u64, args: &[String]| {
        let p = Pred(ws.interner.intern(pname));
        let row = resolve(ws, args);
        let truth = spec.holds(p, n, &row);
        let path: Vec<Func> = (0..n).map(|_| succ).collect();
        assert_eq!(
            gspec.holds(p, &path, &row),
            truth,
            "{ctx}: GraphSpec disagrees on {pname}@{n}({args:?})"
        );
        queries.push(ServeQuery::Member {
            pred: p,
            path,
            args: row,
        });
        expected.push(truth);
    };
    for (pname, n, args) in &t.queries {
        check_point(&mut ws, pname, *n, args);
    }
    for (pname, from, to, args) in &t.intervals {
        for n in *from..=*to {
            check_point(&mut ws, pname, n, args);
        }
    }
    // A sweep across the equation's own landmarks: prefix end, one cycle,
    // two cycles, horizon.
    for (pname, _, args) in &t.queries[..t.queries.len().min(4)] {
        for n in [rho as u64, rho_lambda as u64, horizon] {
            check_point(&mut ws, pname, n, args);
        }
    }
    let _ = check_point; // release the &mut queries/expected captures
    for threads in THREADS {
        assert_eq!(
            frozen
                .answer_batch(&queries, threads, &dl::Governor::default())
                .unwrap(),
            expected,
            "{ctx}: frozen batch disagrees at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn skew_scenarios_agree(seed in any::<u64>()) {
        check_relational(&scenariogen::skew(seed));
    }

    #[test]
    fn dense_scenarios_agree(seed in any::<u64>()) {
        check_relational(&scenariogen::dense(seed));
    }

    #[test]
    fn cyclic_scenarios_agree(seed in any::<u64>()) {
        check_relational(&scenariogen::cyclic(seed));
    }

    #[test]
    fn bounded_scenarios_agree(seed in any::<u64>()) {
        check_relational(&scenariogen::bounded_depth(seed));
    }

    #[test]
    fn tc_chain_scenarios_agree(seed in any::<u64>()) {
        check_relational(&scenariogen::tc_chain(seed));
    }

    #[test]
    fn tc_right_scenarios_agree(seed in any::<u64>()) {
        check_relational(&scenariogen::tc_right(seed));
    }

    #[test]
    fn churn_scenarios_agree(seed in any::<u64>()) {
        check_relational(&scenariogen::churn(seed));
    }
}

/// Churn lattice (PR 10): replay the seeded retract/re-insert script with
/// incremental maintenance — `Database::retract_fact` for deletions, a
/// primed one-row forward delta for re-insertions — and assert after
/// *every* op that the maintained database's dump equals a fresh
/// evaluation over the surviving asserted facts (and the naive oracle).
/// The whole replay must leave rows, RowIds and accumulated statistics
/// byte-identical at 1/2/4/8 threads with the parallel path forced, and a
/// cancelled retraction must roll back to the exact pre-op bytes. Every
/// relation passes `Database::check_invariants` after every op and after
/// the rollback. Returns the rows the script's retractions restored.
fn check_churn(seed: u64, percent: usize) -> usize {
    let s = scenariogen::churn(seed);
    let ctx = format!("churn seed {} mix {percent}%", s.seed);
    let script = scenariogen::churn_script(&s, seed, percent);
    assert!(!script.is_empty(), "{ctx}: empty churn script");
    let plan = dl::DeltaPlan::planned(&s.rules, &s.db);
    let resolve = |op: &scenariogen::ChurnOp| -> (Pred, Vec<Cst>) {
        (
            Pred(s.interner.get(&op.pred).unwrap()),
            op.row
                .iter()
                .map(|a| Cst(s.interner.get(a).unwrap()))
                .collect(),
        )
    };

    let mut reference: Option<(Dump, dl::EvalStats)> = None;
    for threads in THREADS {
        // The rebuild/naive oracles re-evaluate per op; once per script is
        // plenty — the other thread counts pin byte-determinism instead.
        let oracle = threads == THREADS[0];
        let mut db = s.db.clone();
        let mut eval = dl::IncrementalEval::new()
            .with_threads(threads)
            .with_parallel_threshold(1);
        let mut total = eval.run(&mut db, &s.rules, &plan).unwrap();
        let mut present: Vec<(Pred, Vec<Cst>)> =
            s.db.iter()
                .flat_map(|(p, rel)| rel.rows().map(move |r| (p, r.to_vec())))
                .collect();
        for op in &script {
            let (p, row) = resolve(op);
            if op.retract {
                let out = db
                    .retract_fact(p, &row, &s.rules, &plan, &dl::Governor::default())
                    .unwrap_or_else(|e| panic!("{ctx}: retraction: {e:?}"));
                assert!(out.found, "{ctx}: script retracted an absent fact");
                total.absorb(out.stats);
                present.retain(|(pp, rr)| !(*pp == p && *rr == row));
            } else {
                eval.prime_marks(&db);
                db.insert(p, &row);
                total.absorb(eval.run(&mut db, &s.rules, &plan).unwrap());
                present.push((p, row));
            }
            if let Err(e) = db.check_invariants() {
                panic!("{ctx}: invariants broken after {op:?}: {e}");
            }
            if oracle {
                let mut fresh = dl::Database::new();
                for (pp, rr) in &present {
                    fresh.insert(*pp, rr);
                }
                let mut naive = fresh.clone();
                dl::evaluate(&mut fresh, &s.rules).unwrap();
                assert_eq!(
                    db.dump(&s.interner),
                    fresh.dump(&s.interner),
                    "{ctx}: incremental maintenance diverges from rebuild after {op:?}"
                );
                dl::evaluate_naive(&mut naive, &s.rules).unwrap();
                assert_eq!(
                    fresh.dump(&s.interner),
                    naive.dump(&s.interner),
                    "{ctx}: rebuild diverges from naive after {op:?}"
                );
            }
        }
        let rows = row_lists(&db);
        match &reference {
            None => reference = Some((rows, total)),
            Some((r, st)) => {
                assert_eq!(&rows, r, "{ctx}: churn rows differ at {threads} threads");
                assert_eq!(&total, st, "{ctx}: churn stats differ at {threads} threads");
            }
        }
    }

    // Governed prefix contract: a retraction tripped by cancellation rolls
    // back whole — every tombstone revived in place, so even RowIds match
    // the pre-op fixpoint byte for byte.
    if let Some(op) = script.iter().find(|o| o.retract) {
        let (p, row) = resolve(op);
        let mut db = s.db.clone();
        dl::IncrementalEval::new()
            .run(&mut db, &s.rules, &plan)
            .unwrap();
        let before = row_lists(&db);
        let gov = dl::Governor::default();
        gov.cancel();
        let err = db.retract_fact(p, &row, &s.rules, &plan, &gov).unwrap_err();
        assert!(
            matches!(
                err,
                dl::EvalError::BudgetExhausted {
                    resource: dl::Resource::Cancelled,
                    ..
                }
            ),
            "{ctx}: unexpected governed retraction error {err:?}"
        );
        assert_eq!(
            row_lists(&db),
            before,
            "{ctx}: cancelled retraction left residue"
        );
        if let Err(e) = db.check_invariants() {
            panic!("{ctx}: invariants broken after rollback: {e}");
        }
    }
    reference.map_or(0, |(_, st)| st.rederived)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn churn_replay_agrees_with_rebuild(seed in any::<u64>()) {
        // Rotate the retract/re-insert mix with the seed: light (1%),
        // moderate (10%), heavy (50%) — the E18 workload points.
        let percent = [1usize, 10, 50][(seed % 3) as usize];
        check_churn(seed, percent);
    }
}

/// Binds `atom` to the ground fact `pred(tuple)` under `subst`, extending
/// it; `false` if they do not unify.
fn unify(
    atom: &dl::Atom,
    pred: Pred,
    tuple: &[Cst],
    subst: &mut std::collections::HashMap<Var, Cst>,
) -> bool {
    atom.pred == pred
        && atom.args.len() == tuple.len()
        && atom.args.iter().zip(tuple).all(|(t, &c)| match *t {
            dl::Term::Const(k) => k == c,
            dl::Term::Var(v) => *subst.entry(v).or_insert(c) == c,
        })
}

/// Checks one derivation tree of a traced run: each node's rule grounds,
/// under one substitution, to the node's fact and its premises; every
/// premise is in the database in a strictly earlier round; every leaf is a
/// given row.
fn check_derivation(
    d: &dl::Derivation,
    s: &Scenario,
    db: &dl::Database,
    prov: &dl::Provenance,
    ctx: &str,
) {
    let (pred, tuple) = (d.fact.0, &d.fact.1[..]);
    let round = prov
        .round(db, pred, tuple)
        .unwrap_or_else(|| panic!("{ctx}: {:?} is not in the database", d.fact));
    let Some(ri) = d.rule else {
        assert!(d.premises.is_empty(), "{ctx}: a leaf has premises");
        assert_eq!(round, 0, "{ctx}: leaf {:?} was derived", d.fact);
        assert!(
            s.db.contains(pred, tuple),
            "{ctx}: leaf {:?} is not given",
            d.fact
        );
        return;
    };
    let rule = &s.rules[ri];
    assert_eq!(
        rule.body.len(),
        d.premises.len(),
        "{ctx}: rule {ri} premises"
    );
    let mut subst = std::collections::HashMap::new();
    assert!(
        unify(&rule.head, pred, tuple, &mut subst),
        "{ctx}: rule {ri} head does not ground to {:?}",
        d.fact
    );
    for (atom, sub) in rule.body.iter().zip(&d.premises) {
        assert!(
            unify(atom, sub.fact.0, &sub.fact.1, &mut subst),
            "{ctx}: rule {ri} body does not ground to {:?}",
            sub.fact
        );
        let r = prov.round(db, sub.fact.0, &sub.fact.1);
        assert!(
            r.is_some_and(|r| r < round),
            "{ctx}: premise {:?} of round {r:?} under a fact of round {round}",
            sub.fact
        );
        check_derivation(sub, s, db, prov, ctx);
    }
}

/// Provenance on the relational families: the traced run leaves the
/// untraced fixpoint (rows in the same order, same statistics), its round
/// ranks match a round-budgeted run's completed prefix, and every derived
/// row explains to a well-founded tree over given rows.
fn check_provenance(s: &Scenario) {
    let ctx = format!("{} seed {}", s.family, s.seed);
    let mut plain = s.db.clone();
    let plain_stats = dl::evaluate(&mut plain, &s.rules).unwrap();
    let mut traced = s.db.clone();
    let (traced_stats, prov) = dl::evaluate_traced(&mut traced, &s.rules).unwrap();
    assert_eq!(row_lists(&plain), row_lists(&traced), "{ctx}: traced rows");
    assert_eq!(plain_stats, traced_stats, "{ctx}: traced statistics");

    // Round `k`'s completed prefix holds exactly the rows ranked `≤ k`.
    let rounds = plain_stats.rounds;
    for k in [1, rounds / 2].into_iter().filter(|&k| k >= 1) {
        let mut prefix = s.db.clone();
        let gov = dl::Governor::new(dl::Budget::unlimited().with_max_rounds(k));
        let plan = dl::DeltaPlan::planned(&s.rules, &prefix);
        let _ = dl::IncrementalEval::new()
            .with_governor(gov)
            .run(&mut prefix, &s.rules, &plan);
        for (p, rel) in traced.iter() {
            for row in rel.rows() {
                let ranked = prov.round(&traced, p, row).expect("live row");
                assert_eq!(
                    prefix.contains(p, row),
                    ranked as usize <= k,
                    "{ctx}: row {row:?} ranked {ranked}, prefix of {k} rounds"
                );
            }
        }
    }

    for (p, rel) in traced.iter() {
        for row in rel.rows() {
            if s.db.contains(p, row) {
                continue;
            }
            let d = prov
                .explain(&traced, p, row)
                .unwrap_or_else(|| panic!("{ctx}: derived row {row:?} has no explanation"));
            assert!(
                d.rule.is_some(),
                "{ctx}: derived row {row:?} explained as given"
            );
            check_derivation(&d, s, &traced, &prov, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn traced_runs_explain_every_derived_row(seed in any::<u64>()) {
        for &(_, family) in RELATIONAL_FAMILIES {
            check_provenance(&family(seed));
        }
    }
}

/// The churn lattice must exercise the re-derive pass, not only
/// over-deletion: at least one of a fixed set of seeded scripts restores
/// rows (the shortcut edges give mid-chain paths alternative derivations).
#[test]
fn churn_scripts_restore_rows() {
    let rederived: usize = (1..=4).map(|seed| check_churn(seed, 50)).sum();
    assert!(rederived > 0, "no seeded churn script restored a row");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn temporal_scenarios_agree(seed in any::<u64>()) {
        check_temporal(&scenariogen::temporal(seed));
    }
}

/// Composite-probe soundness: for every bound-column signature the
/// candidates surviving the probe-and-confirm pass must equal a full-scan
/// filter, on resident keys (no false negatives) and on mutated keys
/// (often absent). The test names below keep the bloom pre-probe they
/// were first written for, so their history stays traceable.
fn check_probe_soundness(s: &Scenario) {
    let ctx = format!("{} seed {}", s.family, s.seed);
    let mut db = s.db.clone();
    dl::evaluate(&mut db, &s.rules).unwrap_or_else(|e| panic!("{ctx}: evaluate: {e:?}"));
    let preds: Vec<(Pred, usize)> = db.iter().map(|(p, r)| (p, r.arity())).collect();
    for (p, arity) in preds {
        if arity < 2 {
            continue;
        }
        // The all-columns signature and the two-column prefix exercise the
        // composite index path; both are (re)built over the *derived* rows,
        // and inserts since construction keep them current.
        for sig in [(1u64 << arity) - 1, 0b11u64] {
            db.ensure_composite(p, sig);
            let rel = db.relation(p).expect("evaluated relation");
            let cols: Vec<usize> = (0..arity).filter(|c| sig >> c & 1 == 1).collect();
            let scan = |key: &[Cst]| -> Vec<Vec<usize>> {
                rel.rows()
                    .filter(|row| cols.iter().zip(key).all(|(&c, k)| row[c] == *k))
                    .map(|row| row.iter().map(|c| c.index()).collect())
                    .collect()
            };
            let probe = |key: &[Cst]| -> Vec<Vec<usize>> {
                match rel.probe(sig, key) {
                    dl::Probe::Index(bucket) | dl::Probe::Partial(bucket) => bucket
                        .iter()
                        .map(|&i| rel.row(dl::RowId(i)))
                        .filter(|row| cols.iter().zip(key).all(|(&c, k)| row[c] == *k))
                        .map(|row| row.iter().map(|c| c.index()).collect())
                        .collect(),
                    dl::Probe::Scan => scan(key),
                }
            };
            let rows: Vec<Vec<Cst>> = rel.rows().take(64).map(|r| r.to_vec()).collect();
            for row in &rows {
                let key: Vec<Cst> = cols.iter().map(|&c| row[c]).collect();
                // Resident key: the row itself must survive the pre-probe.
                assert_eq!(probe(&key), scan(&key), "{ctx}: probe({sig:#b}) diverges");
                // Mutated key (often absent): an empty bucket must mean
                // the scan finds nothing either.
                let mut mutated = key.clone();
                mutated.reverse();
                assert_eq!(
                    probe(&mutated),
                    scan(&mutated),
                    "{ctx}: probe({sig:#b}) diverges on mutated key"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn bloom_preprobes_never_change_answers(seed in any::<u64>()) {
        // Rotate the family by seed so every shape feeds the probe path.
        let (_, family) = RELATIONAL_FAMILIES[(seed % RELATIONAL_FAMILIES.len() as u64) as usize];
        check_probe_soundness(&family(seed));
    }
}

/// Retraction keeps composite indexes sound: probe-and-confirm must equal a
/// full scan, on live and on retracted keys, both right after a burst of
/// retractions and again after `compact()` rebuilds the indexes over the
/// renumbered survivors.
fn check_probe_soundness_after_retract(seed: u64) {
    let s = scenariogen::churn(seed);
    let ctx = format!("churn seed {} (composite probes)", s.seed);
    let plan = dl::DeltaPlan::planned(&s.rules, &s.db);
    let mut db = s.db.clone();
    dl::evaluate(&mut db, &s.rules).unwrap();
    let preds: Vec<(Pred, usize)> = db.iter().map(|(p, r)| (p, r.arity())).collect();
    // Build the composite indexes over the *full* fixpoint, then punch
    // holes in it exactly the way production does.
    for &(p, arity) in &preds {
        if arity >= 2 {
            db.ensure_composite(p, (1u64 << arity) - 1);
        }
    }
    let retracted: Vec<Vec<Cst>> = scenariogen::churn_script(&s, seed, 50)
        .iter()
        .filter(|op| op.retract)
        .take(4)
        .map(|op| {
            let p = Pred(s.interner.get(&op.pred).unwrap());
            let row: Vec<Cst> = op
                .row
                .iter()
                .map(|a| Cst(s.interner.get(a).unwrap()))
                .collect();
            // Replaying retract ops out of script order may hit an
            // already-gone fact; `found == false` leaves the db untouched
            // and still exercises the lookup path.
            db.retract_fact(p, &row, &s.rules, &plan, &dl::Governor::default())
                .unwrap_or_else(|e| panic!("retraction: {e:?}"));
            row
        })
        .collect();

    let check = |db: &dl::Database, stage: &str| {
        for &(p, arity) in &preds {
            if arity < 2 {
                continue;
            }
            let sig = (1u64 << arity) - 1;
            let rel = db.relation(p).expect("evaluated relation");
            let scan = |key: &[Cst]| -> Vec<Vec<usize>> {
                rel.rows()
                    .filter(|row| row.iter().zip(key).all(|(c, k)| c == k))
                    .map(|row| row.iter().map(|c| c.index()).collect())
                    .collect()
            };
            let probe = |key: &[Cst]| -> Vec<Vec<usize>> {
                match rel.probe(sig, key) {
                    dl::Probe::Index(bucket) | dl::Probe::Partial(bucket) => bucket
                        .iter()
                        .map(|&i| rel.row(dl::RowId(i)))
                        .filter(|row| row.iter().zip(key).all(|(c, k)| c == k))
                        .map(|row| row.iter().map(|c| c.index()).collect())
                        .collect(),
                    dl::Probe::Scan => scan(key),
                }
            };
            // Live keys: no false negatives.
            let rows: Vec<Vec<Cst>> = rel.rows().take(64).map(|r| r.to_vec()).collect();
            for row in &rows {
                assert_eq!(
                    probe(row),
                    scan(row),
                    "{ctx}: {stage} probe diverges on a live key"
                );
            }
            // Retracted keys of matching arity: a dead row must never be
            // resurrected by a probe.
            for key in retracted.iter().filter(|k| k.len() == arity) {
                assert_eq!(
                    probe(key),
                    scan(key),
                    "{ctx}: {stage} probe diverges on a retracted key"
                );
            }
        }
    };
    check(&db, "post-retract");
    // Compaction is the rebuild hook: indexes are reconstructed over the
    // dense survivors and the same contract holds.
    db.compact();
    for &(p, arity) in &preds {
        if arity >= 2 {
            db.ensure_composite(p, (1u64 << arity) - 1);
        }
    }
    check(&db, "post-compact");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn bloom_preprobes_sound_after_retract(seed in any::<u64>()) {
        check_probe_soundness_after_retract(seed);
    }
}

/// Satellite (PR 8): the E14 cyclic regression stays fixed. With the
/// hysteresis margin the cost planner keeps the greedy order unless its
/// estimate is strictly better, so over E14's cyclic seed set the planned
/// run may not pay more probes than greedy in aggregate (the E14
/// probe_ratio, once 0.90, must stay ≥ 1.0). Individual seeds may wobble a
/// few probes either way; the family total is the pinned metric.
#[test]
fn cyclic_planned_probes_never_exceed_greedy() {
    let (mut greedy_total, mut planned_total) = (0usize, 0usize);
    for seed in 1u64..=16 {
        let s = scenariogen::cyclic(seed);
        let run = |planned: bool| {
            let mut db = s.db.clone();
            let plan = if planned {
                dl::DeltaPlan::planned(&s.rules, &db)
            } else {
                dl::DeltaPlan::new(&s.rules)
            };
            dl::IncrementalEval::new()
                .run(&mut db, &s.rules, &plan)
                .unwrap()
        };
        greedy_total += run(false).join_probes;
        planned_total += run(true).join_probes;
    }
    assert!(
        planned_total <= greedy_total,
        "cyclic family: planned pays {planned_total} probes vs greedy \
         {greedy_total} (probe_ratio {:.3} < 1.0)",
        greedy_total as f64 / planned_total.max(1) as f64
    );
}

/// Satellite: every historical counterexample seed committed in
/// `tests/fuzz_scenarios.proptest-regressions` (and the differential
/// suite's regression file) replays through *every* family on every
/// default `cargo test` run — independently of the proptest runner's own
/// regression-file resolution.
#[test]
fn regression_seeds_replay_through_all_families() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests");
    let mut seeds = Vec::new();
    for file in [
        "fuzz_scenarios.proptest-regressions",
        "differential.proptest-regressions",
        "demand_differential.proptest-regressions",
    ] {
        let text = std::fs::read_to_string(format!("{dir}/{file}"))
            .unwrap_or_else(|e| panic!("{file} must stay committed: {e}"));
        for line in text.lines() {
            if let Some(at) = line.find("seed = ") {
                let tail = &line[at + "seed = ".len()..];
                let num: String = tail.chars().take_while(char::is_ascii_digit).collect();
                seeds.push(num.parse::<u64>().unwrap());
            }
        }
    }
    assert!(
        seeds.len() >= 2,
        "expected pinned regression seeds, found {seeds:?}"
    );
    for seed in seeds {
        for &(_, f) in RELATIONAL_FAMILIES {
            check_relational(&f(seed));
        }
        check_temporal(&scenariogen::temporal(seed));
    }
}

/// Splitmix-style deterministic generator for
/// [`compiled_fixpoint_matches_interpreted_oracle_on_random_programs`].
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Differential property: across random rule sets and databases, the
/// compiled fixpoint (greedy-reordered, register-based, composite-
/// indexed) derives exactly the answer set of the interpreted oracle,
/// and the semi-naive and naive compiled paths agree with both.
#[test]
fn compiled_fixpoint_matches_interpreted_oracle_on_random_programs() {
    let mut i = fundb_term::Interner::new();
    let preds: Vec<Pred> = (0..4).map(|k| Pred(i.intern(&format!("P{k}")))).collect();
    let arity = [2usize, 1, 2, 2];
    let vars: Vec<Var> = (0..4).map(|k| Var(i.intern(&format!("x{k}")))).collect();
    let csts: Vec<Cst> = (0..6).map(|k| Cst(i.intern(&format!("c{k}")))).collect();
    for seed in 0..60u64 {
        let mut rng = SplitMix(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1);
        let mut rules = Vec::new();
        for _ in 0..(2 + rng.below(4)) {
            let nbody = 1 + rng.below(3);
            let body: Vec<dl::Atom> = (0..nbody)
                .map(|_| {
                    let p = rng.below(preds.len());
                    let args = (0..arity[p])
                        .map(|_| {
                            if rng.below(4) == 0 {
                                dl::Term::Const(csts[rng.below(csts.len())])
                            } else {
                                dl::Term::Var(vars[rng.below(vars.len())])
                            }
                        })
                        .collect();
                    dl::Atom::new(preds[p], args)
                })
                .collect();
            // Head over body variables only (range-restricted), with
            // the occasional constant.
            let body_vars: Vec<Var> = body.iter().flat_map(dl::Atom::vars).collect();
            let hp = rng.below(preds.len());
            let head_args = (0..arity[hp])
                .map(|_| {
                    if body_vars.is_empty() || rng.below(5) == 0 {
                        dl::Term::Const(csts[rng.below(csts.len())])
                    } else {
                        dl::Term::Var(body_vars[rng.below(body_vars.len())])
                    }
                })
                .collect();
            rules.push(dl::Rule::new(dl::Atom::new(preds[hp], head_args), body));
        }
        let mut db = dl::Database::new();
        for _ in 0..(3 + rng.below(10)) {
            let p = rng.below(preds.len());
            let row: Vec<Cst> = (0..arity[p]).map(|_| csts[rng.below(csts.len())]).collect();
            db.insert(preds[p], &row);
        }

        let mut oracle_db = db.clone();
        let mut naive_db = db.clone();
        interp::evaluate_naive_interpreted(&mut oracle_db, &rules);
        dl::evaluate_naive(&mut naive_db, &rules).unwrap();
        dl::evaluate(&mut db, &rules).unwrap();
        let expect = oracle_db.dump(&i);
        assert_eq!(naive_db.dump(&i), expect, "naive diverged at seed {seed}");
        assert_eq!(db.dump(&i), expect, "semi-naive diverged at seed {seed}");
    }
}
