//! `durable_churn`: writes beside reads on one `DurableDb`. A chain of
//! edges feeds a hub with spokes under right-recursive transitive-closure
//! rules, plus a few edges that skip one chain node, so retraction has
//! alternative derivations to restore. Set-up inserts, commits, runs the
//! initial fixpoint and snapshots. The timed mix is `dl::query` range and
//! point reads plus updates; each update retracts one edge with
//! `DurableDb::retract_fact` (one op) and re-inserts it with `insert` +
//! `run` (a second op). Three in four updated edges are spokes, whose
//! cone is one row per chain node; every fourth is a chain edge, whose
//! cone is a large share of the store. With half the steps reads, a third
//! of the ops are reads, half small-cone updates and a sixth large-cone
//! updates, so the p50 sits inside the small-cone mode and the p99 inside
//! the large-cone mode, never on the edge between two modes. Chain edges
//! are visited in a strided order, so any stretch of updates spreads over
//! the chain and the cone sizes between two snapshots (which bound the
//! tombstones, and so memory) barely depend on the seed. A snapshot op
//! follows every `SNAPSHOT_EVERY` updates.
//! Flush policy: each update flushes its WAL records without fsync, as the
//! API does; snapshots fsync. At the end the store is closed and reopened.
//! `storage` and `datalog.retract` do nearly all the work only here.

use super::{Ctx, Metric, Outcome, Phase, Scale};
use crate::rng::{tag, Rng};
use crate::trace::{ratio, span, Tracer};
use fundb_datalog::{self as dl, Atom, DeltaPlan, IncrementalEval, Rule, Term};
use fundb_storage::DurableDb;
use fundb_term::{Cst, Interner, Pred, Var};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Percent of steps that are reads; the rest are updates.
const READ_PCT: usize = 50;
/// Every this many updates, one is on a chain edge (a large cone).
const CHAIN_EVERY: u64 = 4;
/// Step between consecutive chain edges updated: a prime, so the walk
/// visits every edge of any chain whose length it does not divide.
const CHAIN_STRIDE: usize = 37;
/// Updates between snapshots.
const SNAPSHOT_EVERY: u64 = 50;
/// Every this many chain nodes, one has an edge skipping the next node.
const SKIP_EVERY: usize = 10;
/// Reopens of the closed store; `storage.recover_ms` is their median.
const REOPENS: usize = 3;

/// Store directories live inside the benchmark's own directory, the only
/// place besides the build directory it writes to; each is removed when
/// its set-up is dropped.
fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch")
}

fn fresh_dir() -> io::Result<PathBuf> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = scratch_root().join(format!(
        "durable-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    match std::fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(dir),
    }
}

/// Bytes of the files in `dir` whose names start with `prefix`.
fn file_bytes(dir: &Path, prefix: &str) -> io::Result<u64> {
    let mut n = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(prefix) {
            n += entry.metadata()?.len();
        }
    }
    Ok(n)
}

fn io_err(what: &'static str) -> impl Fn(io::Error) -> String {
    move |e| format!("durable store {what}: {e}")
}

/// The open store and the graph it holds.
pub struct Setup {
    dir: PathBuf,
    ddb: Option<DurableDb>,
    interner: Interner,
    plan: DeltaPlan,
    eval: IncrementalEval,
    edge: Pred,
    path: Pred,
    y: Var,
    chain: Vec<Cst>,
    spokes: Vec<Cst>,
    /// Every base fact: chain edges, skip edges, spokes.
    edges: Vec<(Cst, Cst)>,
    rng: Rng,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.ddb = None;
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only once no other store is left.
        let _ = std::fs::remove_dir(scratch_root());
    }
}

impl Setup {
    /// `Path` rows at the fixpoint, in closed form: every chain pair
    /// `i < j`, and every chain node to every spoke.
    fn rows(&self) -> usize {
        let n = self.chain.len();
        n * (n - 1) / 2 + n * self.spokes.len()
    }
}

/// Creates the store: inserts the graph, logs the rules, commits, runs the
/// initial fixpoint and snapshots.
pub fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Setup, String> {
    let (len, spokes_n) = match ctx.scale {
        Scale::Full => (100, 400),
        Scale::Tiny => (8, 12),
    };
    assert_ne!(
        len % CHAIN_STRIDE,
        0,
        "the chain walk must visit every edge"
    );
    let mut rng = Rng::new(ctx.seed, 0x6475_7261);
    let tag = tag(ctx.seed);
    let mut interner = Interner::new();
    let edge = Pred(interner.intern("Edge"));
    let path = Pred(interner.intern("Path"));
    let [x, y, z] = ["x", "y", "z"].map(|v| Var(interner.intern(v)));
    let atom = |p, a, b| Atom::new(p, vec![Term::Var(a), Term::Var(b)]);
    let rules = vec![
        Rule::new(atom(path, x, y), vec![atom(edge, x, y)]),
        Rule::new(atom(path, x, z), vec![atom(edge, x, y), atom(path, y, z)]),
    ];
    let chain: Vec<Cst> = (0..=len)
        .map(|i| Cst(interner.intern(&format!("C{tag}{i}"))))
        .collect();
    let spokes: Vec<Cst> = (0..spokes_n)
        .map(|k| Cst(interner.intern(&format!("S{tag}{k}"))))
        .collect();
    let mut edges: Vec<(Cst, Cst)> = chain.windows(2).map(|w| (w[0], w[1])).collect();
    let offset = rng.below(SKIP_EVERY);
    for i in (offset..len - 1).step_by(SKIP_EVERY) {
        edges.push((chain[i], chain[i + 2]));
    }
    edges.extend(spokes.iter().map(|&s| (chain[len], s)));

    // From here on, dropping `s` removes the directory.
    let mut s = Setup {
        dir: fresh_dir().map_err(io_err("directory"))?,
        ddb: None,
        interner,
        plan: DeltaPlan::default(),
        eval: IncrementalEval::new().with_threads(ctx.threads),
        edge,
        path,
        y,
        chain,
        spokes,
        edges,
        rng,
    };
    let mut ddb = span(tr, "storage.open", || {
        DurableDb::open(&s.dir, &mut s.interner)
    })
    .map_err(io_err("open"))?;
    span(tr, "storage.load", || -> io::Result<()> {
        for &(a, b) in &s.edges {
            ddb.insert(&s.interner, edge, &[a, b])?;
        }
        for r in &rules {
            ddb.log_rule(&s.interner, r)?;
        }
        ddb.commit()
    })
    .map_err(io_err("load"))?;
    s.plan = DeltaPlan::planned(ddb.rules(), ddb.database());
    span(tr, "datalog.run", || {
        ddb.run(&s.interner, &mut s.eval, &s.plan)
    })
    .map_err(|e| format!("initial fixpoint: {e}"))?;
    span(tr, "storage.snapshot", || ddb.snapshot(&s.interner)).map_err(io_err("snapshot"))?;
    let live = ddb.database().relation(path).map_or(0, |r| r.live());
    s.ddb = Some(ddb);
    if live != s.rows() {
        return Err(format!(
            "initial fixpoint has {live} Path rows, closed form says {}",
            s.rows()
        ));
    }
    Ok(s)
}

/// Runs the read/update mix in a closed loop until `ctx.stop`, then checks
/// the maintained store against a rebuild and the reopened store against
/// the closed one.
pub fn run(s: &mut Setup, ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let rows = s.rows();
    let Setup {
        dir,
        ddb,
        interner,
        plan,
        eval,
        edge,
        path,
        y,
        chain,
        spokes,
        edges,
        rng,
    } = s;
    let (edge, path, y) = (*edge, *path, *y);
    let store = ddb.as_mut().ok_or("the store is not open")?;
    let len = chain.len() - 1;
    let nodes = chain.len() + spokes.len();
    let node = |k: usize| {
        if k < chain.len() {
            chain[k]
        } else {
            spokes[k - chain.len()]
        }
    };
    let mut next_chain = rng.below(len);
    let mut spoke_order: Vec<usize> = (0..spokes.len()).collect();
    rng.shuffle(&mut spoke_order);
    let (mut next_spoke, mut updates) = (0, 0u64);
    let mut snapshot_size = file_bytes(dir, "snapshot.").map_err(io_err("size"))?;
    let mut phase = Phase::new(ctx.stop, 1, 1);
    while phase.running() {
        if rng.below(100) < READ_PCT {
            // A range read `Path(c_i, y)` or a point read `Path(a, b)`.
            let (body, vars, want) = if rng.below(2) == 0 {
                let i = rng.below(chain.len());
                let body = Atom::new(path, vec![Term::Const(chain[i]), Term::Var(y)]);
                (body, vec![y], len - i + spokes.len())
            } else {
                let a = match rng.below(2) {
                    0 => rng.below(chain.len()),
                    _ => chain.len() + rng.below(spokes.len()),
                };
                let b = rng.below(nodes);
                let holds = a < chain.len() && (b >= chain.len() || a < b);
                let body = Atom::new(path, vec![Term::Const(node(a)), Term::Const(node(b))]);
                (body, Vec::new(), usize::from(holds))
            };
            let body = [body];
            tr.begin_op();
            let t = Instant::now();
            let res = span(tr, "datalog.query", || {
                dl::query(store.database(), &body, &vars)
            });
            let elapsed = t.elapsed();
            tr.end_op();
            phase.record(elapsed, res.is_ok());
            if let Ok(answers) = res {
                if answers.len() != want {
                    return Err(format!(
                        "read {:?}: {} answers, closed form says {want}",
                        body[0],
                        answers.len()
                    ));
                }
                phase.count("reads", 1);
                phase.count("read_rows", answers.len() as u64);
            }
            continue;
        }

        let row = if updates % CHAIN_EVERY == CHAIN_EVERY - 1 {
            let i = next_chain;
            next_chain = (next_chain + CHAIN_STRIDE) % len;
            [chain[i], chain[i + 1]]
        } else {
            let k = spoke_order[next_spoke % spokes.len()];
            next_spoke += 1;
            [chain[len], spokes[k]]
        };
        let wal_before = store.wal_stats();
        // A storage op that returns `Err` leaves the handle poisoned
        // (see `DurableDb::retract_fact`), so the run stops there.
        tr.begin_op();
        let t = Instant::now();
        let res = span(tr, "storage.retract", || {
            store.retract_fact(interner, edge, &row, plan)
        });
        let elapsed = t.elapsed();
        tr.end_op();
        phase.record(elapsed, res.is_ok());
        let outcome = res.map_err(io_err("retract"))?;
        if !outcome.found {
            return Err(format!("retract of {row:?}: not an asserted fact"));
        }
        for (key, v) in [
            ("retract_ops", 1),
            ("retractions", outcome.stats.retractions),
            ("rederived", outcome.stats.rederived),
            ("deleted", outcome.deleted.len()),
            ("restored", outcome.restored.len()),
        ] {
            phase.count(key, v as u64);
        }

        tr.begin_op();
        let t = Instant::now();
        let res = span(tr, "storage.reinsert", || -> Result<(), String> {
            eval.prime_marks(store.database());
            store
                .insert(interner, edge, &row)
                .map_err(|e| e.to_string())?;
            store
                .run(interner, eval, plan)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        let elapsed = t.elapsed();
        tr.end_op();
        phase.record(elapsed, res.is_ok());
        res.map_err(|e| format!("re-insert of {row:?}: {e}"))?;
        let wal_after = store.wal_stats();
        phase.count("update_ops", 2);
        phase.count("wal_records", wal_after.records - wal_before.records);
        phase.count("wal_bytes", wal_after.bytes - wal_before.bytes);
        phase.count("wal_flushes", wal_after.flushes - wal_before.flushes);
        let live = store.database().relation(path).map_or(0, |r| r.live());
        if live != rows {
            return Err(format!(
                "after re-inserting {row:?}: {live} Path rows, closed form says {rows}"
            ));
        }

        updates += 1;
        if updates % SNAPSHOT_EVERY == 0 {
            tr.begin_op();
            let t = Instant::now();
            let res = span(tr, "storage.snapshot", || store.snapshot(interner));
            let elapsed = t.elapsed();
            tr.end_op();
            phase.record(elapsed, res.is_ok());
            res.map_err(io_err("snapshot"))?;
            phase.count("snapshots", 1);
            snapshot_size = phase
                .off_clock(|| file_bytes(dir, "snapshot."))
                .map_err(io_err("size"))?;
        }
    }
    let mut out = phase.finish();

    // The maintained store must equal a rebuild from its base facts.
    let maintained = store.database().dump(interner);
    let mut rebuilt = dl::Database::new();
    for &(a, b) in edges.iter() {
        rebuilt.insert(edge, &[a, b]);
    }
    dl::evaluate(&mut rebuilt, store.rules()).map_err(|e| format!("rebuild: {e}"))?;
    if rebuilt.dump(interner) != maintained {
        return Err("the maintained store differs from a rebuild of its base facts".into());
    }

    // Close, then every reopen must equal the closed store.
    *ddb = None;
    let disk = file_bytes(dir, "").map_err(io_err("size"))?;
    let mut recover_ms = Vec::with_capacity(REOPENS);
    let mut replayed = 0;
    for _ in 0..REOPENS {
        let mut fresh = Interner::new();
        let t = Instant::now();
        let reopened = span(tr, "storage.recover", || DurableDb::open(dir, &mut fresh))
            .map_err(io_err("reopen"))?;
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if reopened.database().dump(&fresh) != maintained {
            return Err("the reopened store differs from the closed one".into());
        }
        replayed = reopened.recovery().replayed_records;
    }
    recover_ms.sort_by(f64::total_cmp);
    out.counters.insert("rows", maintained.len() as u64);
    out.counters.insert("replayed_records", replayed as u64);

    let c = |key: &str| out.count(key);
    let layers = vec![
        Metric::new("datalog.query_us", "us", tr.per_call("datalog.query", 1e3)),
        Metric::new(
            "datalog.retract.retractions",
            "count",
            ratio(c("retractions"), c("retract_ops")),
        ),
        Metric::new(
            "datalog.retract.rederived",
            "count",
            ratio(c("rederived"), c("retract_ops")),
        ),
        Metric::new(
            "datalog.retract.restored_ratio",
            "ratio",
            ratio(c("restored"), c("deleted")),
        ),
        Metric::new(
            "storage.retract_us",
            "us",
            tr.per_call("storage.retract", 1e3),
        ),
        Metric::new(
            "storage.reinsert_us",
            "us",
            tr.per_call("storage.reinsert", 1e3),
        ),
        Metric::new(
            "storage.wal_bytes_per_update",
            "bytes",
            ratio(c("wal_bytes"), c("update_ops")),
        ),
        Metric::new(
            "storage.wal_flushes",
            "count",
            ratio(c("wal_flushes"), c("update_ops")),
        ),
        Metric::new(
            "storage.snapshot_ms",
            "ms",
            tr.per_call("storage.snapshot", 1e6),
        ),
        Metric::new("storage.snapshot_bytes", "bytes", snapshot_size as f64),
        Metric::new("storage.replayed_records", "count", replayed as f64),
        Metric::new("storage.recover_ms", "ms", recover_ms[REOPENS / 2]),
        Metric::new(
            "storage.disk_bytes_per_row",
            "bytes",
            ratio(disk as f64, maintained.len() as f64),
        ),
    ];
    out.layers = layers;
    Ok(out)
}
