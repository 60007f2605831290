//! `paper_specs`: a seeded stream of the paper's own program families,
//! each op compiling one program from source text to frozen graph and
//! equational specifications, plus the temporal lasso for temporal
//! programs. Hundreds of tiny local datalog fixpoints inside `core.engine`
//! do nearly all the work; `serve` and `storage` stay nearly idle.

use super::{Ctx, Metric, Outcome, Phase, Scale};
use crate::rng::{tag, Rng};
use crate::trace::{ratio, span, Tracer};
use fundb_core::{
    normalize, to_pure, CompiledProgram, Engine, EqSpec, FrozenEqSpec, FrozenGraphSpec, GraphSpec,
};
use fundb_parser::Workspace;
use fundb_temporal::TemporalSpec;
use fundb_term::{Cst, Pred};
use std::time::Instant;

/// Stream cycles generated in set-up; the timed phase repeats them.
const CYCLES: usize = 8;

/// Memberships checked across the specifications after each op.
const SAMPLES: usize = 24;

/// A program family of the paper's complexity section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Family {
    /// `w`-bit binary counter over time: `2^w` states (adversarial temporal).
    Counter,
    /// The §3.4 list program over `n` constants: `2^n` clusters
    /// (adversarial functional).
    Lists,
    /// One fact rotating through `k` participants (benign temporal).
    Rotation,
    /// Situation-calculus planning on an `n`-ring (benign functional,
    /// mixed function symbols).
    Ring,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Counter => "binary_counter",
            Family::Lists => "subset_lists",
            Family::Rotation => "rotation",
            Family::Ring => "ring_planner",
        }
    }

    fn temporal(self) -> bool {
        matches!(self, Family::Counter | Family::Rotation)
    }

    /// Clusters of the minimized graph specification, in closed form.
    fn clusters(self, n: usize) -> usize {
        match self {
            Family::Counter | Family::Lists => 1 << n,
            Family::Rotation => n,
            Family::Ring => n + 1,
        }
    }
}

/// Per-cycle size ranges `lo..hi`, one program drawn from each: every
/// seed's stream holds the same mix of costs, so its latency quantiles sit
/// inside one stratum instead of on the edge between two. `counter(6)` is
/// drawn twice so that the median lands in the middle of its tight cluster
/// of costs, not in the sparse gap below it. Seeds change the order of
/// sizes within a stratum, the constant names and the order of programs.
fn strata(scale: Scale) -> Vec<(Family, usize, usize)> {
    use Family::*;
    match scale {
        Scale::Full => vec![
            (Counter, 5, 6),
            (Counter, 6, 7),
            (Counter, 6, 7),
            (Counter, 7, 8),
            (Counter, 8, 9),
            (Lists, 4, 5),
            (Lists, 5, 6),
            (Lists, 6, 7),
            (Rotation, 16, 32),
            (Rotation, 32, 64),
            (Rotation, 64, 128),
            (Rotation, 128, 257),
            (Ring, 12, 17),
            (Ring, 17, 22),
            (Ring, 22, 27),
            (Ring, 27, 33),
        ],
        Scale::Tiny => vec![
            (Counter, 3, 4),
            (Lists, 2, 4),
            (Rotation, 4, 9),
            (Ring, 3, 7),
        ],
    }
}

/// The source text of `family` at size `n`, constants prefixed by `tag`
/// (the programs of `fundb_bench`'s generators, as text, so parsing is
/// part of the op).
pub(crate) fn source(family: Family, n: usize, tag: &str) -> String {
    let mut src = String::new();
    match family {
        Family::Counter => {
            src.push_str("B0(t) -> N0(t+1).\nN0(t) -> B0(t+1).\n");
            for i in 1..n {
                let low: Vec<String> = (0..i).map(|j| format!("B{j}(t)")).collect();
                let low = low.join(", ");
                src.push_str(&format!("{low}, B{i}(t) -> N{i}(t+1).\n"));
                src.push_str(&format!("{low}, N{i}(t) -> B{i}(t+1).\n"));
                for j in 0..i {
                    src.push_str(&format!("N{j}(t), B{i}(t) -> B{i}(t+1).\n"));
                    src.push_str(&format!("N{j}(t), N{i}(t) -> N{i}(t+1).\n"));
                }
            }
            for i in 0..n {
                src.push_str(&format!("N{i}(0).\n"));
            }
        }
        Family::Lists => {
            src.push_str(
                "P(x) -> Member(ext(0, x), x).\n\
                 P(y), Member(s, x) -> Member(ext(s, y), y).\n\
                 P(y), Member(s, x) -> Member(ext(s, y), x).\n",
            );
            for i in 0..n {
                src.push_str(&format!("P({tag}{i}).\n"));
            }
        }
        Family::Rotation => {
            src.push_str("Meets(t, x), Next(x, y) -> Meets(t+1, y).\n");
            src.push_str(&format!("Meets(0, {tag}0).\n"));
            for i in 0..n {
                src.push_str(&format!("Next({tag}{i}, {tag}{}).\n", (i + 1) % n));
            }
        }
        Family::Ring => {
            src.push_str("At(s, p1), Connected(p1, p2) -> At(move(s, p1, p2), p2).\n");
            src.push_str(&format!("At(0, {tag}0).\n"));
            for i in 0..n {
                src.push_str(&format!("Connected({tag}{i}, {tag}{}).\n", (i + 1) % n));
            }
        }
    }
    src
}

/// Source text to a solved engine and its graph specification (Algorithm
/// Q), through the public pipeline, one span per layer.
pub(crate) fn graph_spec(
    src: &str,
    threads: usize,
    tr: &mut Tracer,
) -> fundb_core::Result<(Workspace, Engine, GraphSpec)> {
    let mut ws = Workspace::new();
    span(tr, "parser.parse", || ws.parse(src))?;
    let normal = span(tr, "core.normalize", || {
        normalize(&ws.program, &mut ws.interner)
    });
    let pure = span(tr, "core.pure", || {
        to_pure(&normal, &ws.db, &mut ws.interner)
    })?;
    let cp = span(tr, "core.compile", || {
        CompiledProgram::compile(&pure, &mut ws.interner)
    })?;
    let mut engine = span(tr, "core.engine.solve", || {
        let mut engine = Engine::new(cp);
        engine.set_threads(Some(threads));
        engine.solve().map(|()| engine)
    })?;
    let spec = span(tr, "core.graphspec.build", || {
        GraphSpec::from_engine(&mut engine)
    })?;
    Ok((ws, engine, spec))
}

struct Item {
    family: Family,
    n: usize,
    src: String,
}

impl Item {
    fn label(&self) -> String {
        format!("{}({})", self.family.name(), self.n)
    }
}

/// Everything one compile op produced.
struct Compiled {
    ws: Workspace,
    engine: Engine,
    spec: GraphSpec,
    clusters: usize,
    edges: usize,
    equations: usize,
    frozen: FrozenGraphSpec,
    eq: FrozenEqSpec,
    temporal: Option<TemporalSpec>,
}

fn compile(item: &Item, threads: usize, tr: &mut Tracer) -> fundb_core::Result<Compiled> {
    let (mut ws, engine, spec) = graph_spec(&item.src, threads, tr)?;
    let min = span(tr, "core.graphspec.minimize", || spec.minimized());
    let eqspec = span(tr, "core.eqspec.build", || EqSpec::from_graph(&spec));
    let eq = span(tr, "core.eqspec.freeze", || eqspec.freeze());
    let (clusters, edges) = (min.cluster_count(), min.edge_count());
    let frozen = span(tr, "core.serve.freeze", || min.freeze());
    let temporal = if item.family.temporal() {
        Some(span(tr, "temporal.compute", || {
            TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner)
        })?)
    } else {
        None
    };
    Ok(Compiled {
        ws,
        engine,
        spec,
        clusters,
        edges,
        equations: eqspec.equation_count(),
        frozen,
        eq,
        temporal,
    })
}

/// Membership by formula, for the families that have one: bit `i` of the
/// counter at time `t`, and who rotation's fact reaches at time `t`.
fn closed_form(
    item: &Item,
    c: &Compiled,
    pred: Pred,
    args: &[Cst],
    t: usize,
    tag: &str,
) -> Option<bool> {
    let name = c.ws.interner.resolve(pred.sym());
    match item.family {
        Family::Counter => {
            let bit: usize = name.get(1..)?.parse().ok()?;
            let set = (t >> bit) & 1 == 1;
            match name.get(..1)? {
                "B" => Some(set),
                "N" => Some(!set),
                _ => None,
            }
        }
        Family::Rotation => {
            let who: usize =
                c.ws.interner
                    .resolve(args.first()?.sym())
                    .strip_prefix(tag)?
                    .parse()
                    .ok()?;
            Some(who == t % item.n)
        }
        Family::Lists | Family::Ring => None,
    }
}

/// The op's output checks: cluster count and lasso period against their
/// closed forms, and sampled memberships agreeing across the graph,
/// minimized frozen graph, frozen equational and temporal specifications
/// (and the closed form where there is one).
fn check(item: &Item, c: &Compiled, tag: &str, rng: &mut Rng) -> Result<(), String> {
    let label = item.label();
    let want = item.family.clusters(item.n);
    if c.clusters != want {
        return Err(format!(
            "{label}: {} clusters, closed form says {want}",
            c.clusters
        ));
    }
    if let Some(t) = &c.temporal {
        let period = match item.family {
            Family::Counter => 1 << item.n,
            _ => item.n,
        };
        if t.lambda() != period {
            return Err(format!(
                "{label}: lasso period {}, closed form says {period}",
                t.lambda()
            ));
        }
    }
    let funcs = c.spec.funcs.symbols();
    let atoms: Vec<(Pred, &[Cst])> = c.spec.atoms.iter().map(|(_, p, a)| (p, a)).collect();
    if funcs.is_empty() || atoms.is_empty() {
        return Err(format!("{label}: empty specification"));
    }
    for _ in 0..SAMPLES {
        let (pred, args) = atoms[rng.below(atoms.len())];
        let (path, t) = match &c.temporal {
            Some(ts) => {
                let t = rng.below(4 * ts.lambda() + 8);
                (vec![funcs[0]; t], t)
            }
            None => {
                let len = rng.below(13);
                let path: Vec<_> = (0..len).map(|_| funcs[rng.below(funcs.len())]).collect();
                (path, len)
            }
        };
        let graph = c.spec.holds(pred, &path, args);
        let mut answers = vec![
            ("the frozen graph spec", c.frozen.holds(pred, &path, args)),
            ("the frozen equational spec", c.eq.holds(pred, &path, args)),
        ];
        if let Some(ts) = &c.temporal {
            answers.push(("the temporal spec", ts.holds(pred, t as u64, args)));
        }
        if let Some(v) = closed_form(item, c, pred, args, t, tag) {
            answers.push(("the closed form", v));
        }
        for (what, v) in answers {
            if v != graph {
                return Err(format!(
                    "{label}: {} at depth {t}: the graph spec says {graph}, {what} says {v}",
                    c.ws.interner.resolve(pred.sym())
                ));
            }
        }
    }
    Ok(())
}

/// The generated stream and the checks' sampler.
pub struct Setup {
    items: Vec<Item>,
    tag: String,
    rng: Rng,
}

/// Generates the stream, then compiles and checks one program per stratum,
/// at the middle of its range, so allocator pools and lazy statics are
/// warm before timing; the warm-up is the same work for every seed.
pub fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Setup, String> {
    let mut rng = Rng::new(ctx.seed, 0x7061_7065);
    let tag = tag(ctx.seed);
    let strata = strata(ctx.scale);
    let sizes: Vec<Vec<usize>> = strata
        .iter()
        .map(|&(_, lo, hi)| rng.spread(lo, hi, CYCLES))
        .collect();
    let mut items = Vec::with_capacity(CYCLES * strata.len());
    for c in 0..CYCLES {
        let mut cycle: Vec<Item> = strata
            .iter()
            .zip(&sizes)
            .map(|(&(family, _, _), sizes)| {
                let n = sizes[c];
                let src = source(family, n, &tag);
                Item { family, n, src }
            })
            .collect();
        rng.shuffle(&mut cycle);
        items.extend(cycle);
    }
    for &(family, lo, hi) in &strata {
        let n = (lo + hi) / 2;
        let item = Item {
            family,
            n,
            src: source(family, n, &tag),
        };
        let c = compile(&item, ctx.threads, tr).map_err(|e| format!("{}: {e}", item.label()))?;
        check(&item, &c, &tag, &mut rng)?;
    }
    Ok(Setup { items, tag, rng })
}

/// Compiles the stream in a closed loop until `ctx.stop`, in whole passes.
pub fn run(s: &mut Setup, ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let Setup { items, tag, rng } = s;
    let mut phase = Phase::new(ctx.stop, 1, items.len() as u64);
    let widest = items
        .iter()
        .filter(|i| i.family == Family::Counter)
        .map(|i| i.n)
        .max();
    let (mut widest_solve_ns, mut widest_temporal_ns) = (0u64, 0u64);
    let mut next = 0;
    while phase.running() {
        let item = &items[next % items.len()];
        next += 1;
        let before = (
            tr.totals("core.engine.solve").self_ns,
            tr.totals("temporal.compute").self_ns,
        );
        tr.begin_op();
        let t = Instant::now();
        let res = compile(item, ctx.threads, tr);
        let elapsed = t.elapsed();
        tr.end_op();
        phase.record(elapsed, res.is_ok());
        let Ok(c) = res else { continue };
        if item.family == Family::Counter && Some(item.n) == widest {
            widest_solve_ns += tr.totals("core.engine.solve").self_ns - before.0;
            widest_temporal_ns += tr.totals("temporal.compute").self_ns - before.1;
        }
        let st = c.engine.stats();
        for (key, v) in [
            ("ops_ok", 1),
            ("passes", st.passes),
            ("top_evals", st.top_evals),
            ("uniform_evals", st.uniform_evals),
            ("datalog_rounds", st.datalog_rounds),
            ("join_probes", st.join_probes),
            ("derived_rows", st.derived_rows),
            ("index_hits", st.index_hits),
            ("index_misses", st.index_misses),
            ("clusters", c.clusters),
            ("edges", c.edges),
            ("equations", c.equations),
        ] {
            phase.count(key, v as u64);
        }
        // Checks and the teardown of the op's specifications run off the
        // clock.
        phase.off_clock(|| check(item, &c, tag, rng).map(|()| drop(c)))?;
    }
    let per_op = |phase: &Phase, key: &str| ratio(phase.counted(key), phase.counted("ops_ok"));
    let local_evals = phase.counted("top_evals") + phase.counted("uniform_evals");
    let ms = |name: &str| tr.per_call(name, 1e6);
    let layers = vec![
        Metric::new("parser.parse_ms", "ms", ms("parser.parse")),
        Metric::new("core.normalize_ms", "ms", ms("core.normalize")),
        Metric::new("core.pure_ms", "ms", ms("core.pure")),
        Metric::new("core.compile_ms", "ms", ms("core.compile")),
        Metric::new("core.engine.solve_ms", "ms", ms("core.engine.solve")),
        Metric::new("core.engine.passes", "count", per_op(&phase, "passes")),
        Metric::new(
            "core.engine.top_evals",
            "count",
            per_op(&phase, "top_evals"),
        ),
        Metric::new(
            "core.engine.uniform_evals",
            "count",
            per_op(&phase, "uniform_evals"),
        ),
        Metric::new(
            "core.engine.datalog_rounds",
            "count",
            per_op(&phase, "datalog_rounds"),
        ),
        Metric::new(
            "core.engine.join_probes",
            "count",
            per_op(&phase, "join_probes"),
        ),
        Metric::new(
            "core.engine.derived_rows",
            "count",
            per_op(&phase, "derived_rows"),
        ),
        Metric::new(
            "core.engine.us_per_local_eval",
            "us",
            ratio(
                tr.totals("core.engine.solve").self_ns as f64 / 1e3,
                local_evals,
            ),
        ),
        Metric::new(
            "core.engine.solve_over_temporal",
            "ratio",
            ratio(widest_solve_ns as f64, widest_temporal_ns as f64),
        ),
        Metric::new("temporal.compute_ms", "ms", ms("temporal.compute")),
        Metric::new("core.graphspec.build_ms", "ms", ms("core.graphspec.build")),
        Metric::new(
            "core.graphspec.minimize_ms",
            "ms",
            ms("core.graphspec.minimize"),
        ),
        Metric::new(
            "core.graphspec.clusters",
            "count",
            per_op(&phase, "clusters"),
        ),
        Metric::new("core.graphspec.edges", "count", per_op(&phase, "edges")),
        Metric::new("core.eqspec.build_ms", "ms", ms("core.eqspec.build")),
        Metric::new(
            "core.eqspec.equations",
            "count",
            per_op(&phase, "equations"),
        ),
        Metric::new("core.eqspec.freeze_ms", "ms", ms("core.eqspec.freeze")),
    ];
    let mut out = phase.finish();
    out.layers = layers;
    Ok(out)
}
