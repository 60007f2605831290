//! `spec_serving`: single `answer`/`holds` calls against specifications
//! frozen in set-up, the steady state after a spec is built once. Three
//! kinds of read: a hot stream of `Member` queries whose paths (length
//! 0-256) collapse onto few canonical keys, so the answer cache hits; a
//! cold stream of `Path(i, j)` pairs drawn uniformly from about 10^6 keys
//! of `tc_chain(1024)`, almost all new, so the cache misses and grows;
//! and an equational share through `FrozenEqSpec::holds`. `core.serve`
//! does nearly all the work; the engine is idle.

use super::paper_specs::{self, Family};
use super::{Ctx, Metric, Outcome, Phase, Scale};
use crate::rng::{tag, Rng};
use crate::trace::{ratio, span, Tracer};
use fundb_core::{EqSpec, FrozenEqSpec, FrozenGraphSpec, ServeQuery};
use fundb_term::{Cst, Func, Pred};
use std::time::Instant;

/// Percent of reads on the hot stream.
const HOT_PCT: usize = 80;
/// Percent of reads on the cold stream; the rest are equational.
const COLD_PCT: usize = 12;
/// Cold reads between re-freezes of the chain spec, which drops its
/// answer cache. This bounds the cache, and with it peak RSS, by a read
/// count instead of by how many reads a run's time allows, so a faster
/// build does not show up as a memory regression. About 1 in 9 of an
/// epoch's reads revisit a key.
const COLD_EPOCH: u64 = 1 << 18;

/// One membership read with the answer the unfrozen spec gives.
struct Probe {
    spec: usize,
    query: ServeQuery,
    expected: bool,
}

/// A frozen functional spec in both representations.
struct Served {
    frozen: FrozenGraphSpec,
    eq: FrozenEqSpec,
}

/// The frozen specs and the read streams.
pub struct Setup {
    served: Vec<Served>,
    hot: Vec<Probe>,
    eq: Vec<Probe>,
    chain: Option<FrozenGraphSpec>,
    path: Pred,
    nodes: Vec<Cst>,
    rng: Rng,
}

/// Builds and freezes the specs of `binary_counter(8)`, `subset_lists(6)`
/// and `tc_chain(1024)`, and the hot and equational read pools with their
/// expected answers from the unfrozen graph specs.
pub fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Setup, String> {
    let mut rng = Rng::new(ctx.seed, 0x7365_7276);
    let tag = tag(ctx.seed);
    let (width, lists, chain_len, pool, max_path) = match ctx.scale {
        Scale::Full => (8, 6, 1024, 4096, 256),
        Scale::Tiny => (3, 3, 32, 64, 16),
    };
    let mut served = Vec::new();
    let (mut hot, mut eq) = (Vec::new(), Vec::new());
    for (i, (family, n)) in [(Family::Counter, width), (Family::Lists, lists)]
        .into_iter()
        .enumerate()
    {
        let src = paper_specs::source(family, n, &tag);
        let (_, _, spec) = paper_specs::graph_spec(&src, ctx.threads, tr)
            .map_err(|e| format!("spec_serving set-up: {e}"))?;
        let funcs: Vec<Func> = spec.funcs.symbols().to_vec();
        let atoms: Vec<(Pred, Vec<Cst>)> =
            spec.atoms.iter().map(|(_, p, a)| (p, a.to_vec())).collect();
        let probe = |rng: &mut Rng| {
            let (pred, args) = atoms[rng.below(atoms.len())].clone();
            let len = rng.below(max_path + 1);
            let path: Vec<Func> = (0..len).map(|_| funcs[rng.below(funcs.len())]).collect();
            let expected = spec.holds(pred, &path, &args);
            Probe {
                spec: i,
                query: ServeQuery::Member { pred, path, args },
                expected,
            }
        };
        hot.extend((0..pool).map(|_| probe(&mut rng)));
        eq.extend((0..pool / 4).map(|_| probe(&mut rng)));
        let eqspec = span(tr, "core.eqspec.build", || EqSpec::from_graph(&spec));
        let eq = span(tr, "core.eqspec.freeze", || eqspec.freeze());
        let frozen = span(tr, "core.serve.freeze", || spec.freeze());
        served.push(Served { frozen, eq });
    }
    rng.shuffle(&mut hot);
    rng.shuffle(&mut eq);

    let mut src =
        String::from("Edge(x, y) -> Path(x, y).\nPath(x, y), Edge(y, z) -> Path(x, z).\n");
    for k in 0..chain_len {
        src.push_str(&format!("Edge({tag}{k}, {tag}{}).\n", k + 1));
    }
    let (ws, _, spec) = paper_specs::graph_spec(&src, ctx.threads, tr)
        .map_err(|e| format!("spec_serving set-up: {e}"))?;
    let path = Pred(ws.interner.get("Path").ok_or("no Path predicate")?);
    let nodes = (0..=chain_len)
        .map(|k| ws.interner.get(&format!("{tag}{k}")).map(Cst))
        .collect::<Option<Vec<Cst>>>()
        .ok_or("chain constant missing")?;
    let chain = Some(span(tr, "core.serve.freeze", || spec.freeze()));
    Ok(Setup {
        served,
        hot,
        eq,
        chain,
        path,
        nodes,
        rng,
    })
}

/// Issues single reads in a closed loop until `ctx.stop`, checking every
/// answer: hot and equational reads against the unfrozen graph spec, cold
/// reads against `i < j` on the chain.
pub fn run(s: &mut Setup, ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let Setup {
        served,
        hot,
        eq,
        chain,
        path,
        nodes,
        rng,
    } = s;
    // Reads on frozen specs mostly hit memo tables in cache, so the host's
    // swings move them less than the reference kernel: scaling would add
    // the kernel's swing instead of removing the host's. Set-up (spec
    // builds) is still scaled.
    let mut phase = Phase::raw(ctx.stop, 1024, 1);
    let (mut hi, mut ei) = (0, 0);
    let (mut cold, mut hits, mut misses) = (0u64, 0u64, 0u64);
    while phase.running() {
        let kind = rng.below(100);
        tr.begin_op();
        if kind < HOT_PCT {
            let p = &hot[hi];
            hi = (hi + 1) % hot.len();
            tr.enter("core.serve.member");
            let t = Instant::now();
            let got = served[p.spec].frozen.answer(&p.query);
            let elapsed = t.elapsed();
            tr.exit();
            tr.end_op();
            phase.record(elapsed, true);
            if got != p.expected {
                return Err(format!("hot read {:?}: answered {got}", p.query));
            }
        } else if kind < HOT_PCT + COLD_PCT {
            let (i, j) = (rng.below(nodes.len()), rng.below(nodes.len()));
            let spec = chain.as_ref().expect("chain spec is frozen");
            tr.enter("core.serve.relational");
            let t = Instant::now();
            let got = spec.holds_relational(*path, &[nodes[i], nodes[j]]);
            let elapsed = t.elapsed();
            tr.exit();
            tr.end_op();
            phase.record(elapsed, true);
            if got != (i < j) {
                return Err(format!("cold read Path({i}, {j}): answered {got}"));
            }
            cold += 1;
            if cold % COLD_EPOCH == 0 {
                phase.off_clock(|| {
                    let spec = chain.take().expect("chain spec is frozen");
                    let stats = spec.serve_stats();
                    (hits, misses) = (hits + stats.hits, misses + stats.misses);
                    let thawed = spec.thaw();
                    *chain = Some(span(tr, "core.serve.freeze", || thawed.freeze()));
                });
            }
        } else {
            let p = &eq[ei];
            ei = (ei + 1) % eq.len();
            let ServeQuery::Member { pred, path, args } = &p.query else {
                unreachable!("equational probes are functional memberships")
            };
            tr.enter("core.serve.eq_holds");
            let t = Instant::now();
            let got = served[p.spec].eq.holds(*pred, path, args);
            let elapsed = t.elapsed();
            tr.exit();
            tr.end_op();
            phase.record(elapsed, true);
            if got != p.expected {
                return Err(format!("equational read {:?}: answered {got}", p.query));
            }
        }
    }
    let mut memo = 0;
    for frozen in served.iter().map(|s| &s.frozen).chain(chain.as_ref()) {
        let stats = frozen.serve_stats();
        (hits, misses) = (hits + stats.hits, misses + stats.misses);
        memo += frozen.memo_len() as u64;
    }
    phase.count("cache_hits", hits);
    phase.count("cache_misses", misses);
    phase.count("cold_reads", cold);
    let us = |name: &str| tr.per_call(name, 1e3);
    let layers = vec![
        Metric::new(
            "core.serve.freeze_ms",
            "ms",
            tr.per_call("core.serve.freeze", 1e6),
        ),
        Metric::new("core.serve.member_us", "us", us("core.serve.member")),
        Metric::new(
            "core.serve.relational_us",
            "us",
            us("core.serve.relational"),
        ),
        Metric::new("core.serve.eq_holds_us", "us", us("core.serve.eq_holds")),
        Metric::new(
            "core.serve.cache_hit_ratio",
            "ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        Metric::new("core.serve.memo_len", "count", memo as f64),
    ];
    let mut out = phase.finish();
    out.layers = layers;
    Ok(out)
}
