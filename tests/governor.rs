//! Integration tests for the execution governor.
//!
//! Three contracts are pinned down here:
//!
//! 1. **Deterministic truncation** — a budget-limited run leaves a prefix
//!    of the unbudgeted fixpoint's row sequence, byte-identical at 1, 2, 4
//!    and 8 threads (property-tested over random edge relations).
//! 2. **Fault isolation** — an injected worker panic or round failure
//!    surfaces as an error value while the database stays at the last
//!    completed round; the process never aborts.
//! 3. **No hangs** — a tight wall-clock deadline on a large closure
//!    returns `BudgetExhausted` promptly instead of spinning.
//! 4. **Atomic retraction** (PR 10) — a deadline or cancellation tripping
//!    mid-retraction rolls the whole maintenance step back: the database
//!    stays byte-identical to the pre-call fixpoint (the completed-round
//!    prefix), never a half-deleted cone.
//!
//! The final test is only active under the CI fault matrix: it reads
//! `FUNDB_FAULT` and checks that *default* governors honor the injected
//! plan. Every other test arms its governor with an inert `FaultPlan` so
//! the suite stays green under that same matrix.

use fundb_datalog::{
    Atom, Budget, Database, DeltaPlan, EvalError, EvalStats, FaultPlan, Governor, IncrementalEval,
    Resource, Rule, Term,
};
use fundb_term::{Cst, Interner, Pred, Var};
use proptest::prelude::*;

struct Fixture {
    interner: Interner,
    edge: Pred,
    path: Pred,
    rules: Vec<Rule>,
}

/// Edge/Path transitive closure, the workhorse of the row-store tests.
fn fixture(right_linear: bool) -> Fixture {
    let mut interner = Interner::new();
    let edge = Pred(interner.intern("Edge"));
    let path = Pred(interner.intern("Path"));
    let (x, y, z) = (
        Var(interner.intern("x")),
        Var(interner.intern("y")),
        Var(interner.intern("z")),
    );
    let body = if right_linear {
        vec![
            Atom::new(edge, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(path, vec![Term::Var(y), Term::Var(z)]),
        ]
    } else {
        vec![
            Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(edge, vec![Term::Var(y), Term::Var(z)]),
        ]
    };
    let rules = vec![
        Rule::new(
            Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
            vec![Atom::new(edge, vec![Term::Var(x), Term::Var(y)])],
        ),
        Rule::new(Atom::new(path, vec![Term::Var(x), Term::Var(z)]), body),
    ];
    Fixture {
        interner,
        edge,
        path,
        rules,
    }
}

fn edge_db(fx: &mut Fixture, edges: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    for &(a, b) in edges {
        let a = Cst(fx.interner.intern(&format!("v{a}")));
        let b = Cst(fx.interner.intern(&format!("v{b}")));
        db.insert(fx.edge, &[a, b]);
    }
    db
}

fn chain_db(fx: &mut Fixture, n: usize) -> Database {
    let edges: Vec<(u8, u8)> = (0..n).map(|k| (k as u8, (k + 1) as u8)).collect();
    edge_db(fx, &edges)
}

fn path_rows(db: &Database, fx: &Fixture) -> Vec<Vec<Cst>> {
    db.relation(fx.path)
        .map(|r| r.rows().map(<[Cst]>::to_vec).collect())
        .unwrap_or_default()
}

/// The fixpoint of `rules` over `db` under `governor`, planned on `db`.
fn evaluate_governed(
    db: &mut Database,
    rules: &[Rule],
    governor: &Governor,
) -> Result<EvalStats, EvalError> {
    let plan = DeltaPlan::planned(rules, db);
    IncrementalEval::new()
        .with_governor(governor.clone())
        .run(db, rules, &plan)
}

/// A governor immune to the ambient `FUNDB_FAULT` plan, so these tests
/// behave identically inside and outside the CI fault matrix.
fn quiet(budget: Budget) -> Governor {
    Governor::new(budget).with_faults(FaultPlan::default())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Budget truncation is a *prefix* of the unbudgeted fixpoint's row
    /// sequence and does not depend on the worker count.
    #[test]
    fn budget_truncation_is_a_thread_independent_prefix(
        edges in proptest::collection::vec((0u8..12, 0u8..12), 1..40),
        cap in 1usize..80,
    ) {
        let mut fx = fixture(false);
        let mut full = edge_db(&mut fx, &edges);
        evaluate_governed(&mut full, &fx.rules, &quiet(Budget::unlimited())).unwrap();
        let full_rows = path_rows(&full, &fx);

        let mut reference: Option<(Vec<Vec<Cst>>, bool)> = None;
        for threads in [1usize, 2, 4, 8] {
            let plan = DeltaPlan::new(&fx.rules);
            let mut db = edge_db(&mut fx, &edges);
            let result = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1)
                .with_governor(quiet(Budget::unlimited().with_max_rows(cap)))
                .run(&mut db, &fx.rules, &plan);
            let rows = path_rows(&db, &fx);
            match &result {
                Ok(stats) => {
                    // Cap not reached: the run is the full fixpoint.
                    prop_assert!(stats.derived <= cap);
                    prop_assert_eq!(&rows, &full_rows);
                }
                Err(EvalError::BudgetExhausted { resource, partial }) => {
                    prop_assert_eq!(*resource, Resource::Rows);
                    prop_assert_eq!(partial.derived, cap);
                    prop_assert_eq!(rows.len(), cap);
                    prop_assert_eq!(&rows[..], &full_rows[..cap]);
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
            match &reference {
                None => reference = Some((rows, result.is_ok())),
                Some((r, ok)) => {
                    prop_assert_eq!(&rows, r, "rows diverged at {} threads", threads);
                    prop_assert_eq!(result.is_ok(), *ok, "outcome diverged at {} threads", threads);
                }
            }
        }
    }
}

/// The row-count prefixes reachable by stopping at each round boundary.
fn round_boundary_prefixes(
    fx: &mut Fixture,
    db_of: impl Fn(&mut Fixture) -> Database,
) -> Vec<usize> {
    let mut boundaries = vec![0];
    for rounds in 1.. {
        let mut db = db_of(fx);
        let budget = Budget::unlimited().with_max_rounds(rounds);
        let result = evaluate_governed(&mut db, &fx.rules, &quiet(budget));
        boundaries.push(path_rows(&db, fx).len());
        if result.is_ok() {
            return boundaries; // fixpoint reached within the round cap
        }
    }
    unreachable!()
}

/// An injected worker panic is caught: the error names the task, the
/// process survives, and the database sits exactly at a round boundary of
/// the unbudgeted run.
#[test]
fn panic_task_fault_is_isolated_at_a_round_boundary() {
    let mut fx = fixture(false);
    let mut full = chain_db(&mut fx, 24);
    evaluate_governed(&mut full, &fx.rules, &quiet(Budget::unlimited())).unwrap();
    let full_rows = path_rows(&full, &fx);
    let boundaries = round_boundary_prefixes(&mut fx, |fx| chain_db(fx, 24));

    let plan = DeltaPlan::new(&fx.rules);
    let mut db = chain_db(&mut fx, 24);
    let governor = Governor::new(Budget::unlimited()).with_faults(FaultPlan::parse("panic_task:3"));
    let err = IncrementalEval::new()
        .with_threads(4)
        .with_parallel_threshold(1)
        .with_governor(governor)
        .run(&mut db, &fx.rules, &plan)
        .unwrap_err();
    let EvalError::WorkerPanicked { task, payload } = err else {
        panic!("expected WorkerPanicked, got {err:?}");
    };
    assert_eq!(task, 3);
    assert!(payload.contains("fault"), "unexpected payload {payload:?}");

    let rows = path_rows(&db, &fx);
    assert!(
        boundaries.contains(&rows.len()),
        "row count {} is not a round boundary (boundaries: {boundaries:?})",
        rows.len()
    );
    assert_eq!(rows[..], full_rows[..rows.len()], "not a fixpoint prefix");
}

/// An injected round failure reports `Resource::Fault` with the database
/// at the last completed round.
#[test]
fn fail_round_fault_stops_at_the_previous_round() {
    let mut fx = fixture(false);

    // Reference: exactly one completed round.
    let mut one_round = chain_db(&mut fx, 16);
    let budget = Budget::unlimited().with_max_rounds(1);
    evaluate_governed(&mut one_round, &fx.rules, &quiet(budget)).unwrap_err();
    let one_round_rows = path_rows(&one_round, &fx);

    let mut db = chain_db(&mut fx, 16);
    let governor = Governor::new(Budget::unlimited()).with_faults(FaultPlan::parse("fail_round:2"));
    let err = evaluate_governed(&mut db, &fx.rules, &governor).unwrap_err();
    let EvalError::BudgetExhausted { resource, partial } = err else {
        panic!("expected BudgetExhausted, got {err:?}");
    };
    assert_eq!(resource, Resource::Fault);
    assert_eq!(partial.rounds, 1);
    assert_eq!(path_rows(&db, &fx), one_round_rows);
}

/// Regression: a 1 ms deadline on `tc_right(256)` returns promptly with
/// `BudgetExhausted` instead of hanging. A `slow_probe` fault makes the
/// deadline trip deterministic on arbitrarily fast machines.
#[test]
fn tight_deadline_on_tc_right_returns_instead_of_hanging() {
    let mut fx = fixture(true);
    let plan = DeltaPlan::new(&fx.rules);
    let edges: Vec<(u8, u8)> = (0..255usize).map(|k| (k as u8, (k + 1) as u8)).collect();
    let mut db = edge_db(&mut fx, &edges);
    let governor = Governor::new(Budget::unlimited().with_max_millis(1))
        .with_faults(FaultPlan::parse("slow_probe:200"));
    let start = std::time::Instant::now();
    let err = IncrementalEval::new()
        .with_governor(governor)
        .run(&mut db, &fx.rules, &plan)
        .unwrap_err();
    let EvalError::BudgetExhausted { resource, .. } = err else {
        panic!("expected BudgetExhausted, got {err:?}");
    };
    assert_eq!(resource, Resource::Time);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "deadline did not take effect"
    );
}

/// PR 10: a governed retraction is all-or-nothing. A pre-armed
/// cancellation trips at the first checkpoint and must leave the database
/// byte-identical (rows, order, asserted bits) to the pre-call fixpoint;
/// a 1 ms deadline over a large right-linear closure trips somewhere in
/// the over-delete/re-derive passes, and whichever way the race lands the
/// database must hold either the untouched fixpoint or the completed
/// retraction — verified against a rebuild without the fact — never a
/// half-deleted cone.
#[test]
fn deadline_mid_retraction_leaves_the_fixpoint_prefix_intact() {
    let mut fx = fixture(true);
    let edges: Vec<(u8, u8)> = (0..128usize).map(|k| (k as u8, (k + 1) as u8)).collect();
    let plan = DeltaPlan::new(&fx.rules);
    let target = (
        Cst(fx.interner.intern("v64")),
        Cst(fx.interner.intern("v65")),
    );

    let mut db = edge_db(&mut fx, &edges);
    evaluate_governed(&mut db, &fx.rules, &quiet(Budget::unlimited())).unwrap();
    let before_paths = path_rows(&db, &fx);
    let before_dump = db.dump(&fx.interner);

    // Arm 1: cancellation already requested — deterministic trip, the
    // retraction must report `Cancelled` and change nothing.
    let gov = quiet(Budget::unlimited());
    gov.cancel();
    let err = db
        .retract_fact(fx.edge, &[target.0, target.1], &fx.rules, &plan, &gov)
        .unwrap_err();
    assert!(
        matches!(
            err,
            EvalError::BudgetExhausted {
                resource: Resource::Cancelled,
                ..
            }
        ),
        "expected a cancellation trip, got {err:?}"
    );
    assert_eq!(path_rows(&db, &fx), before_paths, "cancel left residue");
    assert_eq!(db.dump(&fx.interner), before_dump);

    // Rebuild oracle: the fixpoint over every edge except the target.
    let mut without = edge_db(&mut fx, &edges);
    without
        .relation_mut(fx.edge, 2)
        .retract_tuple(&[target.0, target.1])
        .expect("target edge present");
    let mut without = {
        // Re-insert into a fresh db so the oracle has no tombstones.
        let mut fresh = Database::new();
        for (p, rel) in without.iter() {
            for row in rel.rows() {
                fresh.insert(p, row);
            }
        }
        fresh
    };
    evaluate_governed(&mut without, &fx.rules, &quiet(Budget::unlimited())).unwrap();
    let without_dump = without.dump(&fx.interner);

    // Arm 2: a 1 ms deadline racing ~10k rows of over-delete work. Either
    // the deadline wins (rollback: untouched bytes) or the retraction
    // completes first (dump equals the rebuild oracle); nothing between.
    let gov = quiet(Budget::unlimited().with_max_millis(1));
    match db.retract_fact(fx.edge, &[target.0, target.1], &fx.rules, &plan, &gov) {
        Err(EvalError::BudgetExhausted {
            resource: Resource::Time,
            ..
        }) => {
            assert_eq!(path_rows(&db, &fx), before_paths, "deadline left residue");
            assert_eq!(db.dump(&fx.interner), before_dump);
        }
        Ok(out) => {
            assert!(out.found);
            assert_eq!(
                db.dump(&fx.interner),
                without_dump,
                "completed retraction diverges from rebuild"
            );
        }
        Err(other) => panic!("unexpected retraction error {other:?}"),
    }
}

/// The read-serving layer under the governor: a cancellation or an
/// exhausted wall-clock budget tripping during a batch must surface as a
/// clean `EvalError::BudgetExhausted`, and every later read must stay
/// exact (no partial answer ever observable).
mod serving_trips {
    use super::quiet;
    use fundb_core::program::{FTerm, Program, Rule as CoreRule};
    use fundb_core::{Engine, GraphSpec, ServeQuery};
    use fundb_datalog::{Budget, EvalError, Resource};
    use fundb_term::{Func, Interner, Pred, Var};

    /// The §3.5 Even lasso — small, but its frozen spec exercises every
    /// serving path (walk, memo, batch).
    fn even_spec() -> (GraphSpec, Pred, Func) {
        let mut i = Interner::new();
        let even = Pred(i.intern("Even"));
        let succ = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
        let fat = |ft: FTerm| fundb_core::program::Atom::Functional {
            pred: even,
            fterm: ft,
            args: vec![],
        };
        let mut prog = Program::new();
        prog.push(CoreRule::new(
            fat(FTerm::Pure(
                succ,
                Box::new(FTerm::Pure(succ, Box::new(FTerm::Var(t)))),
            )),
            vec![fat(FTerm::Var(t))],
        ));
        let mut db = fundb_core::program::Database::new();
        db.facts.push(fat(FTerm::Zero));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        // Solve outside the ambient fault plan: these tests trip the
        // serving layer, not the build.
        engine.set_governor(quiet(Budget::unlimited()));
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        (spec, even, succ)
    }

    fn queries(even: Pred, succ: Func, n: usize) -> Vec<ServeQuery> {
        (0..n)
            .map(|k| ServeQuery::Member {
                pred: even,
                path: vec![succ; k],
                args: vec![],
            })
            .collect()
    }

    #[test]
    fn cancelled_batches_return_eval_errors() {
        let (spec, even, succ) = even_spec();
        let gov = quiet(Budget::unlimited());
        gov.cancel();

        let frozen = spec.freeze();
        let qs = queries(even, succ, 64);
        for threads in [1usize, 4] {
            let err = frozen.answer_batch(&qs, threads, &gov).unwrap_err();
            assert!(
                matches!(
                    err,
                    EvalError::BudgetExhausted {
                        resource: Resource::Cancelled,
                        ..
                    }
                ),
                "expected a cancellation trip at {threads} threads, got {err:?}"
            );
        }
    }

    #[test]
    fn exhausted_deadline_trips_with_resource_time() {
        let (spec, even, succ) = even_spec();
        // A zero wall-clock budget: the deadline is armed — and already
        // behind — at the first read-side checkpoint.
        let gov = quiet(Budget::unlimited().with_max_millis(0));

        let frozen = spec.freeze();
        let err = frozen
            .answer_batch(&queries(even, succ, 64), 2, &gov)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, .. } = err else {
            panic!("expected BudgetExhausted from batch, got {err:?}");
        };
        assert_eq!(resource, Resource::Time);
    }

    /// After a mid-service trip no read is partially wrong: every later
    /// read — single, batched at several thread counts — still answers
    /// exactly.
    #[test]
    fn tripped_batches_leave_later_reads_exact() {
        let (spec, even, succ) = even_spec();
        let frozen = spec.freeze();
        let qs = queries(even, succ, 128);

        // Answer part of the stream, then trip a governed batch on it.
        let before: Vec<bool> = qs[..32].iter().map(|q| frozen.answer(q)).collect();
        let gov = quiet(Budget::unlimited());
        gov.cancel();
        frozen.answer_batch(&qs, 4, &gov).unwrap_err();

        let open = quiet(Budget::unlimited());
        for threads in [1usize, 2, 4, 8] {
            let all = frozen.answer_batch(&qs, threads, &open).unwrap();
            for (k, (&got, q)) in all.iter().zip(&qs).enumerate() {
                assert_eq!(got, frozen.answer(q), "query {k} at {threads} threads");
                assert_eq!(got, k % 2 == 0, "Even({k}) ground truth");
            }
        }
        assert_eq!(
            &before[..],
            &qs[..32]
                .iter()
                .map(|q| frozen.answer(q))
                .collect::<Vec<_>>()[..]
        );
    }
}

/// Under the CI fault matrix (`FUNDB_FAULT` set), *default* governors must
/// pick up the ambient plan: armed panics and round failures surface as
/// error values (never a process abort), and `slow_probe` alone still
/// completes with the exact fixpoint. A tripped run resumed under an inert
/// governor completes the exact fixpoint, and the naive oracle (which runs
/// the same round gate and commit step) returns an error or the exact
/// fixpoint, never a wrong one.
#[test]
fn ambient_fault_plan_reaches_default_governors() {
    let plan = *FaultPlan::from_env();
    if plan.is_inert() {
        return; // not running under the fault matrix
    }
    let mut fx = fixture(false);
    let mut full = chain_db(&mut fx, 24);
    evaluate_governed(&mut full, &fx.rules, &quiet(Budget::unlimited())).unwrap();
    let full_rows = path_rows(&full, &fx);

    let delta_plan = DeltaPlan::new(&fx.rules);
    let mut db = chain_db(&mut fx, 24);
    let mut eval = IncrementalEval::new()
        .with_threads(4)
        .with_parallel_threshold(1)
        .with_governor(Governor::default());
    let result = eval.run(&mut db, &fx.rules, &delta_plan);
    let rows = path_rows(&db, &fx);
    if plan.panic_task.is_some() || plan.fail_round.is_some() {
        assert!(result.is_err(), "armed fault was ignored: {result:?}");
        assert_eq!(
            rows[..],
            full_rows[..rows.len()],
            "faulted run left a non-prefix state"
        );
    } else {
        result.expect("slow_probe alone must not fail an undeadlined run");
        assert_eq!(rows, full_rows);
    }

    eval.set_governor(quiet(Budget::unlimited()));
    eval.run(&mut db, &fx.rules, &delta_plan)
        .expect("an inert governor completes the resumed run");
    assert_eq!(path_rows(&db, &fx), full_rows, "resumed run");

    let mut naive = chain_db(&mut fx, 24);
    if fundb_datalog::evaluate_naive(&mut naive, &fx.rules).is_ok() {
        assert_eq!(
            naive.dump(&fx.interner),
            full.dump(&fx.interner),
            "naive oracle"
        );
    }
}

/// The resume contract of `Engine::solve`: a solve stopped by a row budget
/// and resumed under an unlimited governor equals a fresh solve on every
/// path to depth 4, for the paper's adversarial families counter(4) and
/// subset_lists(3) at several caps.
mod resumed_solves {
    use super::quiet;
    use fundb_core::Engine;
    use fundb_datalog::Budget;
    use fundb_parser::Workspace;
    use fundb_term::{Cst, Func, Pred};
    use std::fmt::Write as _;

    /// A `w`-bit binary counter over time (the E4 counter family).
    fn counter(w: usize) -> String {
        let mut src = String::from("B0(t) -> N0(t+1).\nN0(t) -> B0(t+1).\n");
        for i in 1..w {
            let low: Vec<String> = (0..i).map(|j| format!("B{j}(t)")).collect();
            let low = low.join(", ");
            writeln!(src, "{low}, B{i}(t) -> N{i}(t+1).").unwrap();
            writeln!(src, "{low}, N{i}(t) -> B{i}(t+1).").unwrap();
            for j in 0..i {
                writeln!(src, "N{j}(t), B{i}(t) -> B{i}(t+1).").unwrap();
                writeln!(src, "N{j}(t), N{i}(t) -> N{i}(t+1).").unwrap();
            }
        }
        for i in 0..w {
            writeln!(src, "N{i}(0).").unwrap();
        }
        src
    }

    /// The §3.4 list program over `n` constants (the E5 family).
    fn subset_lists(n: usize) -> String {
        let mut src = String::from(
            "P(x) -> Member(ext(0, x), x).
             P(y), Member(s, x) -> Member(ext(s, y), y).
             P(y), Member(s, x) -> Member(ext(s, y), x).\n",
        );
        for i in 0..n {
            writeln!(src, "P(E{i}).").unwrap();
        }
        src
    }

    fn paths(funcs: &[Func], depth: usize) -> Vec<Vec<Func>> {
        let mut out = vec![vec![]];
        let mut frontier = 0;
        for _ in 0..depth {
            let end = out.len();
            for k in frontier..end {
                for &f in funcs {
                    let mut p = out[k].clone();
                    p.push(f);
                    out.push(p);
                }
            }
            frontier = end;
        }
        out
    }

    /// The slice at `path`, as sorted `(pred, args)` atoms (atom ids are
    /// engine-local).
    fn slice(engine: &Engine, path: &[Func]) -> Vec<(Pred, Vec<Cst>)> {
        let mut atoms: Vec<(Pred, Vec<Cst>)> = engine
            .state_of_path(path)
            .iter()
            .map(|id| {
                let (p, args) = engine.atoms().resolve(id);
                (p, args.to_vec())
            })
            .collect();
        atoms.sort();
        atoms
    }

    #[test]
    fn resumed_solves_equal_fresh_solves_on_every_path() {
        for (family, src, caps) in [
            ("counter(4)", counter(4), [1, 3, 7]),
            ("subset_lists(3)", subset_lists(3), [1, 7, 20]),
        ] {
            let mut ws = Workspace::new();
            ws.parse(&src).unwrap();
            let mut fresh = Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
            fresh.set_governor(quiet(Budget::unlimited()));
            fresh.solve().unwrap();
            let paths = paths(fresh.compiled().funcs.symbols(), 4);
            for cap in caps {
                let mut resumed = Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
                resumed.set_governor(quiet(Budget::unlimited().with_max_rows(cap)));
                assert!(resumed.solve().is_err(), "{family}: cap {cap} did not trip");
                resumed.set_governor(quiet(Budget::unlimited()));
                resumed.solve().unwrap();
                let differing = paths
                    .iter()
                    .filter(|p| slice(&resumed, p) != slice(&fresh, p))
                    .count();
                assert_eq!(
                    differing,
                    0,
                    "{family}: cap {cap}: {differing} of {} paths differ",
                    paths.len()
                );
                assert_eq!(
                    resumed.nf().dump(&ws.interner),
                    fresh.nf().dump(&ws.interner),
                    "{family}: cap {cap}: relational store"
                );
            }
        }
    }
}
