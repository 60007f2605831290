//! `relational_fixpoint`: seeded scenarios from `fundb_bench::scenariogen`
//! (skew, dense, cyclic, bounded depth, and transitive closure over chains
//! of depth 128-512 in left- and right-recursive form), each evaluated to
//! fixpoint with a cost-planned `DeltaPlan` and an `IncrementalEval` at
//! the pinned thread count. The bulk join machinery of `datalog` does
//! nearly all the work, on relations of 10^3-10^5 rows; `paper_specs` runs
//! the same code only on tiny relations.

use super::{Ctx, Metric, Outcome, Phase, Scale};
use crate::rng::Rng;
use crate::trace::{ratio, span, Tracer};
use fundb_bench::scenariogen::{self, Scenario};
use fundb_datalog::{self as dl, DeltaPlan, IncrementalEval};
use fundb_term::{Cst, FxHashMap, FxHashSet, Pred};
use std::time::Instant;

/// Stream cycles generated in set-up; the timed phase repeats them.
const CYCLES: usize = 8;

/// What an evaluated scenario must equal.
enum Oracle {
    /// The naive evaluator's fixpoint, rendered.
    Dump(Vec<String>),
    /// Transitive closure: the number of reachable pairs (counted by
    /// graph search over the edges), and one pair that must and one that
    /// must not hold.
    Closure {
        path: Pred,
        pairs: usize,
        first: Cst,
        last: Cst,
    },
}

struct Case {
    label: String,
    scenario: Scenario,
    oracle: Oracle,
}

/// The small fixed-size families, one scenario of each per cycle.
const SMALL: [scenariogen::ScenarioFn; 4] = [
    scenariogen::skew,
    scenariogen::dense,
    scenariogen::cyclic,
    scenariogen::bounded_depth,
];

/// Depth ranges per cycle: one per transitive-closure stratum (each drawn
/// in both recursive forms) and one for the layered program. Each range is
/// one stratum, as in `paper_specs`, so the stream's mix of costs is the
/// same for every seed.
fn strata(scale: Scale) -> (Vec<(usize, usize)>, (usize, usize)) {
    match scale {
        Scale::Full => (
            vec![(128, 224), (224, 320), (320, 416), (416, 513)],
            (48, 96),
        ),
        Scale::Tiny => (vec![(8, 16)], (4, 8)),
    }
}

/// Reachable pairs over the scenario's `Edge` facts.
fn closure_pairs(s: &Scenario) -> Result<usize, String> {
    let edge = Pred(s.interner.get("Edge").ok_or("no Edge predicate")?);
    let mut next: FxHashMap<Cst, Vec<Cst>> = FxHashMap::default();
    for row in s.db.relation(edge).ok_or("no Edge facts")?.rows() {
        next.entry(row[0]).or_default().push(row[1]);
    }
    let mut pairs = 0;
    for &from in next.keys() {
        let mut seen: FxHashSet<Cst> = FxHashSet::default();
        let mut stack: Vec<Cst> = next[&from].clone();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(next.get(&n).into_iter().flatten().copied());
            }
        }
        pairs += seen.len();
    }
    Ok(pairs)
}

fn case(label: String, scenario: Scenario, depth: Option<usize>) -> Result<Case, String> {
    let oracle = match depth {
        Some(d) => {
            let node = |i: usize| {
                scenario
                    .interner
                    .get(&format!("N{i}"))
                    .map(Cst)
                    .ok_or(format!("{label}: chain node N{i} missing"))
            };
            Oracle::Closure {
                path: Pred(scenario.interner.get("Path").ok_or("no Path predicate")?),
                pairs: closure_pairs(&scenario)?,
                first: node(0)?,
                last: node(d)?,
            }
        }
        None => {
            let mut db = scenario.db.clone();
            dl::evaluate_naive(&mut db, &scenario.rules).map_err(|e| format!("{label}: {e}"))?;
            Oracle::Dump(db.dump(&scenario.interner))
        }
    };
    Ok(Case {
        label,
        scenario,
        oracle,
    })
}

fn check(case: &Case, db: &dl::Database) -> Result<(), String> {
    let ok = match &case.oracle {
        Oracle::Dump(want) => db.dump(&case.scenario.interner) == *want,
        Oracle::Closure {
            path,
            pairs,
            first,
            last,
        } => {
            db.relation(*path).map_or(0, |r| r.live()) == *pairs
                && db.contains(*path, &[*first, *last])
                && !db.contains(*path, &[*last, *first])
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{}: fixpoint differs from its oracle", case.label))
    }
}

/// Evaluates one scenario to fixpoint: the timed op.
fn evaluate(
    case: &Case,
    db: &mut dl::Database,
    threads: usize,
    tr: &mut Tracer,
) -> Result<dl::EvalStats, dl::EvalError> {
    let rules = &case.scenario.rules;
    let plan = span(tr, "datalog.plan", || DeltaPlan::planned(rules, db));
    span(tr, "datalog.run", || {
        IncrementalEval::new()
            .with_threads(threads)
            .run(db, rules, &plan)
    })
}

/// The scenario stream with its oracles.
pub struct Setup {
    cases: Vec<Case>,
}

/// Generates the stream and its oracles, then evaluates and checks its
/// first cycle once, untimed.
pub fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Setup, String> {
    let mut rng = Rng::new(ctx.seed, 0x7265_6c66);
    let (tc_depths, layered) = strata(ctx.scale);
    let layered = rng.spread(layered.0, layered.1, CYCLES);
    let tc_depths: Vec<[Vec<usize>; 2]> = tc_depths
        .iter()
        .map(|&(lo, hi)| [rng.spread(lo, hi, CYCLES), rng.spread(lo, hi, CYCLES)])
        .collect();
    let mut cases = Vec::new();
    for c in 0..CYCLES {
        let mut cycle = Vec::new();
        for family in SMALL {
            let s = family(rng.next_u64());
            cycle.push(case(format!("{}/{}", s.family, s.seed), s, None)?);
        }
        let s = scenariogen::bounded_depth_n(rng.next_u64(), layered[c]);
        cycle.push(case(format!("bounded_depth_n({})", layered[c]), s, None)?);
        for depths in &tc_depths {
            for ((name, generate), depths) in [
                (
                    "tc_chain_n",
                    scenariogen::tc_chain_n as fn(u64, usize) -> Scenario,
                ),
                ("tc_right_n", scenariogen::tc_right_n),
            ]
            .into_iter()
            .zip(depths)
            {
                let depth = depths[c];
                let s = generate(rng.next_u64(), depth);
                cycle.push(case(format!("{name}({depth})"), s, Some(depth))?);
            }
        }
        rng.shuffle(&mut cycle);
        cases.extend(cycle);
    }
    let warm = cases.len() / CYCLES;
    for case in &cases[..warm] {
        let mut db = case.scenario.db.clone();
        evaluate(case, &mut db, ctx.threads, tr).map_err(|e| format!("{}: {e}", case.label))?;
        check(case, &db)?;
    }
    Ok(Setup { cases })
}

/// Evaluates the stream in a closed loop until `ctx.stop`, in whole passes.
pub fn run(s: &mut Setup, ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut phase = Phase::new(ctx.stop, 1, s.cases.len() as u64);
    let mut next = 0;
    while phase.running() {
        let case = &s.cases[next % s.cases.len()];
        next += 1;
        let mut db = phase.off_clock(|| case.scenario.db.clone());
        tr.begin_op();
        let t = Instant::now();
        let res = evaluate(case, &mut db, ctx.threads, tr);
        let elapsed = t.elapsed();
        tr.end_op();
        phase.record(elapsed, res.is_ok());
        let Ok(st) = res else { continue };
        for (key, v) in [
            ("ops_ok", 1),
            ("rounds", st.rounds),
            ("join_probes", st.join_probes),
            ("derived", st.derived),
            ("index_hits", st.index_hits),
            ("index_misses", st.index_misses),
            ("bloom_skips", st.bloom_skips),
            ("replans", st.replans),
            ("shared_prefix_hits", st.shared_prefix_hits),
        ] {
            phase.count(key, v as u64);
        }
        phase.off_clock(|| check(case, &db).map(|()| drop(db)))?;
    }
    let per_op = |key: &str| ratio(phase.counted(key), phase.counted("ops_ok"));
    let layers = vec![
        Metric::new("datalog.plan_ms", "ms", tr.per_call("datalog.plan", 1e6)),
        Metric::new("datalog.run_ms", "ms", tr.per_call("datalog.run", 1e6)),
        Metric::new("datalog.rounds", "count", per_op("rounds")),
        Metric::new("datalog.join_probes", "count", per_op("join_probes")),
        Metric::new(
            "datalog.derived_per_probe",
            "ratio",
            ratio(phase.counted("derived"), phase.counted("join_probes")),
        ),
        Metric::new("datalog.index_hits", "count", per_op("index_hits")),
        Metric::new("datalog.index_misses", "count", per_op("index_misses")),
        Metric::new(
            "datalog.bloom_skip_ratio",
            "ratio",
            ratio(phase.counted("bloom_skips"), phase.counted("index_hits")),
        ),
        Metric::new("datalog.replans", "count", per_op("replans")),
        Metric::new(
            "datalog.shared_prefix_hits",
            "count",
            per_op("shared_prefix_hits"),
        ),
    ];
    let mut out = phase.finish();
    out.layers = layers;
    Ok(out)
}
