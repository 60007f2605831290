//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p fundb-bench --bin experiments [e1 … e18 | all]`
//!
//! Each experiment prints a small table comparing the paper's claim with
//! what this implementation measures. Absolute times are machine-dependent;
//! the *shapes* (who wins, growth orders, crossovers) are the reproduction
//! targets.
//!
//! Every run also appends a machine-readable trajectory to
//! `BENCH_pr30.json` (override with `FUNDB_BENCH_JSON`): one record per
//! experiment with its wall time, plus detailed records (rows/s, join
//! probes, index hits/misses, threads) for the timed experiments. CI
//! uploads the file so the bench history accumulates across PRs.

use fundb_bench::{binary_counter, ring_planner, rotation, subset_lists};
use fundb_core::{
    analysis, normalize, to_pure, BoundedMaterialization, CompiledProgram, CongrForm, DataParams,
    Engine, EqSpec, GraphSpec, Query, ServeQuery,
};
use fundb_parser::Workspace;
use fundb_temporal::TemporalSpec;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let mut bench = Bench::default();

    println!("fundb experiment harness — paper: Chomicki & Imieliński, SIGMOD 1989");
    println!("(run with --release for meaningful timings)\n");

    if want("e1") {
        let t = Instant::now();
        e1_lists_worked_example();
        bench.total("E1", t);
    }
    if want("e2") {
        let t = Instant::now();
        e2_meets();
        bench.total("E2", t);
    }
    if want("e3") {
        let t = Instant::now();
        e3_even();
        bench.total("E3", t);
    }
    if want("e4") {
        let t = Instant::now();
        e4_yesno_complexity(&mut bench);
        bench.total("E4", t);
    }
    if want("e5") {
        let t = Instant::now();
        e5_graphspec_size(&mut bench);
        bench.total("E5", t);
    }
    if want("e6") {
        let t = Instant::now();
        e6_eqspec(&mut bench);
        bench.total("E6", t);
    }
    if want("e7") {
        let t = Instant::now();
        e7_scope_bounds();
        bench.total("E7", t);
    }
    if want("e8") {
        let t = Instant::now();
        e8_incremental_queries(&mut bench);
        bench.total("E8", t);
    }
    if want("e9") {
        let t = Instant::now();
        e9_baseline_crossover();
        bench.total("E9", t);
    }
    if want("e10") {
        let t = Instant::now();
        e10_congr();
        bench.total("E10", t);
    }
    if want("e11") {
        let t = Instant::now();
        e11_parallel_scaling(&mut bench);
        bench.total("E11", t);
    }
    if want("e12") {
        let t = Instant::now();
        e12_governor_overhead(&mut bench);
        bench.total("E12", t);
    }
    if want("e13") {
        let t = Instant::now();
        e13_serving_throughput(&mut bench);
        bench.total("E13", t);
    }
    if want("e14") {
        let t = Instant::now();
        e14_planner(&mut bench);
        bench.total("E14", t);
    }
    if want("e15") {
        let t = Instant::now();
        e15_goal_directed(&mut bench);
        bench.total("E15", t);
    }
    if want("e17") {
        let t = Instant::now();
        e17_durability(&mut bench);
        bench.total("E17", t);
    }
    if want("e18") {
        let t = Instant::now();
        e18_churn(&mut bench);
        bench.total("E18", t);
    }

    match bench.write() {
        Ok(path) => println!("bench trajectory written to {path}"),
        Err(e) => eprintln!("warning: could not write bench trajectory: {e}"),
    }
}

/// Machine-readable bench trajectory, hand-rolled JSON (the workspace
/// builds offline, without serde).
#[derive(Default)]
struct Bench {
    records: Vec<String>,
}

impl Bench {
    /// Records one measurement as a flat JSON object. Values whose
    /// fractional part is zero are emitted as integers.
    fn push(&mut self, experiment: &str, workload: &str, nums: &[(&str, f64)]) {
        let mut obj = format!(
            "{{\"experiment\":\"{}\",\"workload\":\"{}\"",
            esc(experiment),
            esc(workload)
        );
        for (k, v) in nums {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                obj.push_str(&format!(",\"{}\":{}", esc(k), *v as i64));
            } else {
                obj.push_str(&format!(",\"{}\":{:.3}", esc(k), v));
            }
        }
        obj.push('}');
        self.records.push(obj);
    }

    /// Records an experiment's total wall time.
    fn total(&mut self, experiment: &str, since: Instant) {
        let ms = since.elapsed().as_secs_f64() * 1e3;
        self.push(experiment, "total", &[("wall_ms", ms)]);
    }

    /// Writes the trajectory file and returns its path.
    fn write(&self) -> std::io::Result<String> {
        let path =
            std::env::var("FUNDB_BENCH_JSON").unwrap_or_else(|_| "BENCH_pr30.json".to_string());
        let mut out = String::from("{\"schema\":\"fundb-bench-v1\",\"pr\":30,\"records\":[\n");
        out.push_str(&self.records.join(",\n"));
        out.push_str("\n]}\n");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn banner(id: &str, title: &str, claim: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("paper: {claim}");
    println!("--------------------------------------------------------------");
}

/// An interleaved paired comparison of a base run against a treated one.
struct Paired {
    /// Base time of the median pair (ms).
    base_ms: f64,
    /// Treated time of the median pair (ms).
    treat_ms: f64,
    /// Median relative delta of the pairs (%).
    overhead_pct: f64,
    /// Noise floor: half the interquartile range of the pairs' relative
    /// deltas (%). An overhead inside it is not distinguishable from noise
    /// on this host.
    noise_pct: f64,
}

/// Runs one warm-up pair, then `pairs` alternating (base, treated) runs.
/// The two runs of a pair are adjacent in time, so slow frequency drift
/// cancels inside each pair, and the median pair (by relative delta)
/// rejects scheduler outliers.
fn paired(pairs: usize, mut base: impl FnMut() -> f64, mut treat: impl FnMut() -> f64) -> Paired {
    base();
    treat();
    let mut runs: Vec<(f64, f64, f64)> = (0..pairs)
        .map(|_| {
            let (b, t) = (base(), treat());
            (b, t, (t - b) / b.max(1e-9) * 100.0)
        })
        .collect();
    runs.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    let (base_ms, treat_ms, overhead_pct) = runs[runs.len() / 2];
    let quartile = |q: usize| runs[(runs.len() - 1) * q / 4].2;
    Paired {
        base_ms,
        treat_ms,
        overhead_pct,
        noise_pct: (quartile(3) - quartile(1)) / 2.0,
    }
}

/// E1 — §3.4 worked example (the output of Figure 1).
fn e1_lists_worked_example() {
    banner(
        "E1",
        "Algorithm Q on the §3.4 list example",
        "representatives 0, a, b, ab; slices L[a]={Member(a,a)}, …; \
         successors f_a(a)=a, f_b(a)=ab, …",
    );
    let mut ws = subset_lists(2);
    let spec = ws.graph_spec().unwrap();
    let min = spec.minimized();
    println!(
        "Algorithm Q: {} clusters ({} active); after minimization: {} (paper: 4)",
        spec.cluster_count(),
        spec.active_count,
        min.cluster_count()
    );
    print!("{}", min.render(&ws.interner));
    println!();
}

/// E2 — the §1 introductory example.
fn e2_meets() {
    banner(
        "E2",
        "Meets/Next advisor rotation (§1)",
        "two congruence classes {0,2,4,…} and {1,3,5,…}; primary database \
         Meets(0,Tony), Meets(1,Jan); f(0)=1, f(1)=0; R = {(0,2)}",
    );
    let mut ws = rotation(2);
    let spec = ws.graph_spec().unwrap().minimized();
    println!("clusters: {} (paper: 2)", spec.cluster_count());
    print!("{}", spec.render(&ws.interner));
    let t = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
    println!(
        "temporal equation R = {{({}, {})}} (paper: (0,2))\n",
        t.equation().0,
        t.equation().1
    );
}

/// E3 — the §3.5 Even example with its membership tests.
fn e3_even() {
    banner(
        "E3",
        "Equational specification on Even (§3.5)",
        "B = D, R = {(0,2)}; Even(4) ∈ L via (0,4) ∈ Cl(R); Even(3) ∉ L",
    );
    let mut ws = Workspace::new();
    ws.parse("Even(t) -> Even(t+2).\nEven(0).").unwrap();
    let t = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
    println!(
        "temporal spec: ρ={}, λ={}, R = {{({},{})}}, |B| = {}",
        t.rho(),
        t.lambda(),
        t.equation().0,
        t.equation().1,
        t.primary_size()
    );
    let mut eq = ws.eq_spec().unwrap();
    for (fact, expected) in [("Even(4)", true), ("Even(3)", false), ("Even(100)", true)] {
        let got = ws.holds_eq(&mut eq, fact).unwrap();
        println!("{fact:>10} -> {got} (paper: {expected})");
        assert_eq!(got, expected);
    }
    println!();
}

/// E4 — Theorem 4.1: temporal vs general engine cost on the same inputs.
fn e4_yesno_complexity(bench: &mut Bench) {
    banner(
        "E4",
        "Yes-no query processing cost (Theorem 4.1)",
        "PSPACE-complete for temporal rules vs DEXPTIME-complete for \
         functional rules: the temporal evaluator should win clearly, and \
         the adversarial family should grow exponentially for both",
    );
    println!(
        "{:>22} {:>12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "workload",
        "lasso/spec",
        "temporal (ms)",
        "general (ms)",
        "passes",
        "memo",
        "delta",
        "probes",
        "idx hits"
    );
    for (name, mut ws) in [
        ("rotation(8)", rotation(8)),
        ("rotation(64)", rotation(64)),
        ("rotation(256)", rotation(256)),
        ("counter(4)", binary_counter(4)),
        ("counter(6)", binary_counter(6)),
        ("counter(8)", binary_counter(8)),
    ] {
        // Each side is the median of 5 runs, interleaved so that a slow
        // host period hits both: single cold runs of one binary read
        // counter(8) on the line at 8.40 and then 4.03 ms back to back.
        let (mut temporal, mut general) = (Vec::new(), Vec::new());
        let mut run = || {
            let t0 = Instant::now();
            let tspec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
            temporal.push(t0.elapsed().as_secs_f64() * 1e3);
            let t1 = Instant::now();
            let mut engine = Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
            engine.solve().unwrap();
            general.push(t1.elapsed().as_secs_f64() * 1e3);
            (tspec, engine)
        };
        for _ in 1..5 {
            run();
        }
        let (tspec, engine) = run();
        let (temporal_ms, general_ms) = (median(temporal), median(general));
        let stats = engine.stats();
        println!(
            "{:>22} {:>12} {:>14.2} {:>14.2} {:>8} {:>8} {:>8} {:>10} {:>10}",
            name,
            tspec.lambda(),
            temporal_ms,
            general_ms,
            stats.passes,
            engine.memo_len(),
            stats.delta_atoms,
            stats.join_probes,
            stats.index_hits
        );
        bench.push(
            "E4",
            name,
            &[
                ("temporal_ms", temporal_ms),
                ("general_ms", general_ms),
                ("join_probes", stats.join_probes as f64),
                ("index_hits", stats.index_hits as f64),
                ("index_misses", stats.index_misses as f64),
                ("derived_rows", stats.derived_rows as f64),
                (
                    "rows_per_s",
                    stats.derived_rows as f64 / (general_ms / 1e3).max(1e-9),
                ),
            ],
        );
        // The final pass only verifies the fixpoint: it must absorb nothing.
        assert_eq!(stats.pass_deltas.last(), Some(&0));
        // Host-independent speed gate: both engines are timed in this run
        // on the same input, so the ratio cancels the host's speed. It
        // reads 2.3–2.5 with one database for every context, whose fresh
        // contexts each run one scoped round, against a line that fires
        // settled rules once per position (1.7–2.7 with a database per
        // context). Against the line that re-fired every rule it read 0.71,
        // and 12.6 when every local fixpoint paid for a statistics
        // snapshot and a recompile of its rules.
        if name == "counter(8)" {
            let ratio = general_ms / temporal_ms.max(1e-9);
            assert!(
                ratio <= 3.0,
                "E4: counter(8) general/temporal = {ratio:.2} \
                 ({general_ms:.2} ms / {temporal_ms:.2} ms), gate ≤ 3.0"
            );
        }
        // The same ratio on rotation(256), where 256 seeds each read the
        // 256-row `Next` store. It reads 2.3–2.5 with one database whose
        // relational rows every context shares, and 38–41 when each
        // context copied the store into a database of its own.
        if name == "rotation(256)" {
            let ratio = general_ms / temporal_ms.max(1e-9);
            assert!(
                ratio <= 6.0,
                "E4: rotation(256) general/temporal = {ratio:.2} \
                 ({general_ms:.2} ms / {temporal_ms:.2} ms), gate ≤ 6.0"
            );
        }
    }
    println!(
        "expected shape: temporal wins on every row, 2-3x on counter and \
         rotation; counter column doubles per bit; \
         the last pass delta is always 0 (semi-naive verification pass)\n"
    );
}

/// E5 — Theorem 4.2: graph specification size and construction time.
fn e5_graphspec_size(bench: &mut Bench) {
    banner(
        "E5",
        "Graph specification size (Theorem 4.2)",
        "computable in DEXPTIME; upper AND lower bounds on the size are \
         exponential — benign families stay linear, adversarial families \
         must blow up",
    );
    println!(
        "{:>18} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "workload", "db size", "clusters", "|B|", "build (ms)", "probes"
    );
    let mut rows: Vec<(String, usize)> = Vec::new();
    // The engine is built explicitly (rather than via `ws.graph_spec()`)
    // so the fixpoint's join-probe counters are visible alongside the
    // build time.
    for k in [4usize, 8, 16, 32] {
        let mut ws = rotation(k);
        let t0 = Instant::now();
        let mut engine = ws.engine().unwrap();
        let spec = fundb_core::GraphSpec::from_engine(&mut engine).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = engine.stats().clone();
        println!(
            "{:>18} {:>10} {:>10} {:>10} {:>12.2} {:>10}",
            format!("rotation({k})"),
            k + 1,
            spec.cluster_count(),
            spec.primary_size(),
            ms,
            stats.join_probes
        );
        bench.push(
            "E5",
            &format!("rotation({k})"),
            &[
                ("build_ms", ms),
                ("clusters", spec.cluster_count() as f64),
                ("join_probes", stats.join_probes as f64),
                ("index_hits", stats.index_hits as f64),
                ("index_misses", stats.index_misses as f64),
            ],
        );
        rows.push((format!("rotation({k})"), spec.cluster_count()));
    }
    for n in [2usize, 3, 4, 5] {
        let mut ws = subset_lists(n);
        let t0 = Instant::now();
        let mut engine = ws.engine().unwrap();
        let spec = fundb_core::GraphSpec::from_engine(&mut engine)
            .unwrap()
            .minimized();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = engine.stats().clone();
        println!(
            "{:>18} {:>10} {:>10} {:>10} {:>12.2} {:>10}",
            format!("subset_lists({n})"),
            n,
            spec.cluster_count(),
            spec.primary_size(),
            ms,
            stats.join_probes
        );
        bench.push(
            "E5",
            &format!("subset_lists({n})"),
            &[
                ("build_ms", ms),
                ("clusters", spec.cluster_count() as f64),
                ("join_probes", stats.join_probes as f64),
                ("index_hits", stats.index_hits as f64),
                ("index_misses", stats.index_misses as f64),
            ],
        );
        rows.push((format!("subset_lists({n})"), spec.cluster_count()));
    }
    println!("expected shape: rotation linear in k; subset_lists ≈ 2^n in the DB size");

    // ring_planner's mixed child move(s, p1, p2) has m = n² pure instances
    // (§2.4), but it compiles lifted: one star rule at every n, whose
    // context columns hold the instance's constants. Layer times are
    // medians of REPS fresh pipelines.
    const REPS: usize = 7;
    println!(
        "{:>18} {:>8} {:>10} {:>10} {:>15} {:>12} {:>10}",
        "workload", "m", "star rules", "probes", "mixed→pure (ms)", "compile (ms)", "solve (ms)"
    );
    for n in [16usize, 32, 64] {
        let mut ms: [Vec<f64>; 3] = Default::default();
        let (mut m, mut star_rules, mut probes) = (0, 0, 0);
        for _ in 0..REPS {
            let mut ws = ring_planner(n);
            let normal = normalize(&ws.program, &mut ws.interner);
            let t0 = Instant::now();
            let pure = to_pure(&normal, &ws.db, &mut ws.interner).unwrap();
            let t1 = Instant::now();
            let cp = CompiledProgram::compile(&pure, &mut ws.interner).unwrap();
            let t2 = Instant::now();
            let mut engine = Engine::new(cp);
            engine.solve().unwrap();
            let t3 = Instant::now();
            for (v, (a, b)) in ms.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                v.push((b - a).as_secs_f64() * 1e3);
            }
            m = engine.compiled().funcs.len();
            star_rules = engine.compiled().star_rules().len();
            probes = engine.stats().join_probes;
        }
        let [pure_ms, compile_ms, solve_ms] = ms.map(median);
        println!(
            "{:>18} {m:>8} {star_rules:>10} {probes:>10} {pure_ms:>15.2} {compile_ms:>12.2} \
             {solve_ms:>10.2}",
            format!("ring_planner({n})")
        );
        bench.push(
            "E5",
            &format!("ring_planner({n}) layers"),
            &[
                ("m", m as f64),
                ("star_rules", star_rules as f64),
                ("join_probes", probes as f64),
                ("pure_ms", pure_ms),
                ("compile_ms", compile_ms),
                ("solve_ms", solve_ms),
            ],
        );
        assert_eq!(
            m,
            n * n,
            "E5: ring_planner({n}) keeps §2.4's n² pure symbols"
        );
        assert_eq!(
            star_rules, 1,
            "E5: ring_planner({n}) compiles one lifted star rule"
        );
    }
    println!(
        "expected shape: one star rule at every n, about two probes per context (n + 1 contexts)\n"
    );
}

/// E6 — Theorem 4.3: equational vs graph specification sizes, and the
/// per-stage cost of the specification back end.
fn e6_eqspec(bench: &mut Bench) {
    use fundb_congruence::{CongruenceClosure, GenCongruence};

    banner(
        "E6",
        "Equational specification size (Theorem 4.3)",
        "double-exponential in general, single-exponential for temporal \
         rules; for temporal rules R is a single pair while B may be large",
    );
    println!(
        "{:>18} {:>10} {:>10} {:>10} {:>10}",
        "workload", "clusters", "|B|", "|R|", "|R| temporal"
    );
    for (name, mut ws, temporal) in [
        ("rotation(12)", rotation(12), true),
        ("counter(5)", binary_counter(5), true),
        ("subset_lists(4)", subset_lists(4), false),
        ("ring_planner(6)", ring_planner(6), false),
    ] {
        let spec = ws.graph_spec().unwrap();
        let eq = EqSpec::from_graph(&spec);
        let tr = if temporal {
            let t = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
            format!("1 pair ({} , {})", t.equation().0, t.equation().1)
        } else {
            "n/a".to_string()
        };
        println!(
            "{:>18} {:>10} {:>10} {:>10} {:>10}",
            name,
            spec.cluster_count(),
            eq.primary_size(),
            eq.equation_count(),
            tr
        );
    }
    println!(
        "expected shape: temporal |R| collapses to one pair; general |R| grows with m·clusters\n"
    );

    // The back end's stages on a solved engine, median of REPS runs each:
    // Algorithm Q, the minimized quotient, the equational spec and its
    // freeze. Clusters (of the quotient) have closed forms; |R| (one
    // equation per merged potential term) is pinned to its known value.
    const REPS: usize = 15;
    println!(
        "{:>18} {:>9} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "workload", "clusters", "|R|", "Q (ms)", "minimize (ms)", "eqspec (ms)", "freeze (ms)"
    );
    for (name, mut ws, clusters, equations) in [
        ("ring_planner(24)", ring_planner(24), 25usize, 14_951usize),
        ("ring_planner(30)", ring_planner(30), 31, 28_769),
        ("binary_counter(8)", binary_counter(8), 256, 1),
        ("subset_lists(6)", subset_lists(6), 64, 351),
    ] {
        let mut engine = ws.engine().unwrap();
        let mut ms: [Vec<f64>; 4] = Default::default();
        let mut lap = |stage: usize, t0: Instant| {
            ms[stage].push(t0.elapsed().as_secs_f64() * 1e3);
            Instant::now()
        };
        let (mut got_clusters, mut got_equations) = (0, 0);
        for _ in 0..REPS {
            let t0 = Instant::now();
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            let t0 = lap(0, t0);
            let min = spec.minimized();
            let t0 = lap(1, t0);
            let eq = EqSpec::from_graph(&spec);
            let t0 = lap(2, t0);
            let frozen = eq.freeze();
            lap(3, t0);
            got_clusters = min.cluster_count();
            got_equations = eq.equation_count();
            std::hint::black_box(frozen);
        }
        let [q, minimize, build, freeze] = ms.map(median);
        println!(
            "{name:>18} {got_clusters:>9} {got_equations:>9} {q:>10.2} {minimize:>12.2} \
             {build:>12.2} {freeze:>12.2}"
        );
        bench.push(
            "E6",
            name,
            &[
                ("from_engine_ms", q),
                ("minimize_ms", minimize),
                ("eqspec_build_ms", build),
                ("eqspec_freeze_ms", freeze),
                ("clusters", got_clusters as f64),
                ("equations", got_equations as f64),
            ],
        );
        assert_eq!(got_clusters, clusters, "E6: {name} clusters");
        assert_eq!(got_equations, equations, "E6: {name} |R|");
    }

    // Ablation: the unary congruence closure the equational specs use
    // against the general k-ary procedure, on a chain collapsed modulo 7
    // (f^7 = ε); both must decide f^len ≅ f^(len mod 7).
    println!(
        "{:>18} {:>10} {:>13} {:>10}",
        "closure", "unary (ms)", "generic (ms)", "speedup"
    );
    let mut interner = fundb_term::Interner::new();
    let f = fundb_term::Func(interner.intern("f"));
    let zero = interner.intern("0");
    for len in [256usize, 1024] {
        let mut unary_ms = Vec::new();
        let mut generic_ms = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            let mut cc = CongruenceClosure::new();
            cc.equate_paths(&[], &[f; 7]);
            let unary = cc.congruent_paths(&vec![f; len], &vec![f; len % 7]);
            unary_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let mut gc = GenCongruence::new();
            let chain = |gc: &mut GenCongruence, n: usize| {
                let mut t = gc.term(zero, &[]);
                for _ in 0..n {
                    t = gc.term(f.0, &[t]);
                }
                t
            };
            let (seven, zero) = (chain(&mut gc, 7), chain(&mut gc, 0));
            gc.merge(seven, zero);
            let (long, short) = (chain(&mut gc, len), chain(&mut gc, len % 7));
            let generic = gc.congruent(long, short);
            generic_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(unary && generic, "E6: closures disagree on f^{len}");
        }
        let (unary_ms, generic_ms) = (median(unary_ms), median(generic_ms));
        let speedup = generic_ms / unary_ms.max(1e-9);
        println!(
            "{:>18} {unary_ms:>10.3} {generic_ms:>13.3} {speedup:>9.2}x",
            format!("chain({len}) mod 7")
        );
        bench.push(
            "E6",
            &format!("closure chain({len}) unary vs generic"),
            &[
                ("unary_ms", unary_ms),
                ("generic_ms", generic_ms),
                ("speedup", speedup),
            ],
        );
    }
    println!();
}

/// E7 — Lemma 3.2: measured congruence scope vs the bound 1 + m·s·2^gsize.
fn e7_scope_bounds() {
    banner(
        "E7",
        "Congruence scope vs the Lemma 3.2 bound",
        "scope≅(L) ≤ 1 + m·s·2^gsize (and scope∼ ≤ 2^gsize)",
    );
    println!(
        "{:>18} {:>10} {:>14} {:>22}",
        "workload", "clusters", "distinct states", "bound 1+m·s·2^gsize"
    );
    for (name, mut ws) in [
        ("rotation(6)", rotation(6)),
        ("counter(4)", binary_counter(4)),
        ("subset_lists(3)", subset_lists(3)),
        ("ring_planner(4)", ring_planner(4)),
    ] {
        let normal = normalize(&ws.program, &mut ws.interner);
        let pure = to_pure(&normal, &ws.db, &mut ws.interner).unwrap();
        let params = DataParams::of(&pure.schema);
        let spec = ws.graph_spec().unwrap();
        let mut states: Vec<_> = spec.nodes.iter().map(|n| n.state.clone()).collect();
        states.sort_by_key(|s| s.iter().map(|a| a.index()).collect::<Vec<_>>());
        states.dedup();
        let bound = params.congruence_scope_bound();
        let bound_str = if bound == u128::MAX {
            ">= 2^127".to_string()
        } else {
            bound.to_string()
        };
        println!(
            "{:>18} {:>10} {:>14} {:>22}",
            name,
            spec.cluster_count(),
            states.len(),
            bound_str
        );
        assert!(
            bound == u128::MAX || (spec.cluster_count() as u128) <= bound,
            "Lemma 3.2 violated on {name}"
        );
    }
    println!("expected shape: measured scope far below the worst-case bound, never above\n");
}

/// E8 — Theorem 5.1: incremental vs full-recompute query answering.
///
/// Both times are the median pair of interleaved (incremental, extension)
/// runs. Before timing, the incremental answer is checked against the
/// by-extension one: on every term up to depth 4 the two answer sets are
/// equal.
fn e8_incremental_queries(bench: &mut Bench) {
    banner(
        "E8",
        "Incremental query answering (Theorem 5.1)",
        "uniform queries have incremental specifications (Q(B), F): no \
         recomputation of the fixpoint specification is needed",
    );
    const PAIRS: usize = 7;
    println!(
        "{:>18} {:>8} {:>16} {:>18}",
        "workload", "size", "incremental (ms)", "by extension (ms)"
    );
    for (name, mut ws) in [
        ("rotation(16)", rotation(16)),
        ("counter(6)", binary_counter(6)),
        ("subset_lists(4)", subset_lists(4)),
    ] {
        let spec = ws.graph_spec().unwrap();
        // The canonical uniform query {(s, x̄) : P(s, x̄)} over the first
        // functional predicate.
        let q = first_functional_query(&mut ws);
        let inc = q.answer_incremental(&spec, &ws.interner).unwrap();
        let (ext, qp) = q
            .answer_by_extension(&ws.program, &ws.db, &mut ws.interner)
            .unwrap();
        let fundb_core::IncrementalAnswer::PerCluster(per_cluster) = &inc else {
            panic!("{name}: a functional output answers per cluster");
        };
        let mut paths: Vec<Vec<fundb_term::Func>> = vec![vec![]];
        let mut shorter = 0..1;
        for _ in 0..4 {
            for i in shorter.clone() {
                for &f in spec.funcs.symbols() {
                    paths.push([&paths[i][..], &[f]].concat());
                }
            }
            shorter = shorter.end..paths.len();
        }
        for path in &paths {
            let rep = spec.representative_of(path).unwrap();
            let mut incremental: Vec<&[fundb_term::Cst]> = per_cluster
                .get(&rep)
                .map_or(Vec::new(), |set| set.iter().map(Vec::as_slice).collect());
            let ext_rep = ext.representative_of(path).unwrap();
            let mut extension: Vec<&[fundb_term::Cst]> = ext
                .slice(ext_rep)
                .filter(|&(p, _)| p == qp)
                .map(|(_, row)| row)
                .collect();
            incremental.sort_unstable();
            extension.sort_unstable();
            assert_eq!(incremental, extension, "{name}: answers differ at {path:?}");
        }
        let size = inc.size();
        let ws = std::cell::RefCell::new(ws);
        let timed = paired(
            PAIRS,
            || {
                let w = ws.borrow();
                let t = Instant::now();
                q.answer_incremental(&spec, &w.interner).unwrap();
                t.elapsed().as_secs_f64() * 1e3
            },
            || {
                let w = &mut *ws.borrow_mut();
                let t = Instant::now();
                q.answer_by_extension(&w.program, &w.db, &mut w.interner)
                    .unwrap();
                t.elapsed().as_secs_f64() * 1e3
            },
        );
        println!(
            "{name:>18} {size:>8} {:>16.3} {:>18.2}",
            timed.base_ms, timed.treat_ms
        );
        bench.push(
            "E8",
            name,
            &[
                ("size", size as f64),
                ("paths_checked", paths.len() as f64),
                ("incremental_ms", timed.base_ms),
                ("extension_ms", timed.treat_ms),
            ],
        );
    }
    println!("expected shape: incremental orders of magnitude cheaper\n");
}

fn first_functional_query(ws: &mut Workspace) -> Query {
    use fundb_core::program::{Atom, FTerm, NTerm};
    // Find a functional atom in some rule head.
    let (pred, extra) = ws
        .program
        .rules
        .iter()
        .find_map(|r| r.head.fterm().map(|_| (r.head.pred(), r.head.args().len())))
        .expect("workloads have functional predicates");
    let s = fundb_term::Var(ws.interner.intern("q_s"));
    let xs: Vec<fundb_term::Var> = (0..extra)
        .map(|i| fundb_term::Var(ws.interner.intern(&format!("q_x{i}"))))
        .collect();
    Query {
        out_fvar: Some(s),
        out_nvars: xs.clone(),
        body: vec![Atom::Functional {
            pred,
            fterm: FTerm::Var(s),
            args: xs.into_iter().map(NTerm::Var).collect(),
        }],
    }
}

/// E9 — the [RBS87] baseline: bounded materialization diverges; the
/// relational specification stays constant and answers any horizon.
fn e9_baseline_crossover() {
    banner(
        "E9",
        "Relational specification vs bounded materialization ([RBS87])",
        "a conventional engine materializes a horizon that grows without \
         bound; the relational specification is finite and complete",
    );
    let mut ws = rotation(6);
    let normal = normalize(&ws.program, &mut ws.interner);
    let pure = to_pure(&normal, &ws.db, &mut ws.interner).unwrap();
    println!(
        "{:>12} {:>14} {:>14} {:>16}",
        "horizon", "naive facts", "naive (ms)", "spec tuples (ms)"
    );
    let t0 = Instant::now();
    let spec = ws.graph_spec().unwrap();
    let spec_ms = t0.elapsed().as_secs_f64() * 1e3;
    for depth in [8usize, 32, 128, 512] {
        let t1 = Instant::now();
        let mat = BoundedMaterialization::run(&pure, depth, &mut ws.interner).unwrap();
        let ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:>12} {:>14} {:>14.2} {:>16}",
            depth,
            mat.fact_count(),
            ms,
            format!("{} ({spec_ms:.2})", spec.primary_size()),
        );
    }
    let report = analysis::analyze(&spec);
    println!(
        "fixpoint finite? {} — the naive column would grow forever; the spec answers day 10^12 in O(1)\n",
        report.finite
    );
}

/// E10 — §3.6: the CONGR canonical form reproduces the fixpoint.
fn e10_congr() {
    banner(
        "E10",
        "CONGR canonical form (§3.6)",
        "LFP(Z, D) = LFP(CONGR, B ∪ R); CONGR depends only on the predicate \
         vocabulary",
    );
    let mut ws = rotation(3);
    let spec = ws.graph_spec().unwrap();
    let eq = EqSpec::from_graph(&spec);
    let t0 = Instant::now();
    let congr = CongrForm::build(&eq, 12, &mut ws.interner).unwrap();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let meets = fundb_term::Pred(ws.interner.get("Meets").unwrap());
    let plus1 = fundb_term::Func(ws.interner.get("+1").unwrap());
    let mut agree = 0usize;
    let mut total = 0usize;
    for n in 0..=12usize {
        for i in 0..3usize {
            let c = fundb_term::Cst(ws.interner.get(&format!("S{i}")).unwrap());
            total += 1;
            if congr.holds(meets, &vec![plus1; n], &[c]) == spec.holds(meets, &vec![plus1; n], &[c])
            {
                agree += 1;
            }
        }
    }
    println!(
        "CONGR rules: {}, C = B ∪ R: {} facts, built+evaluated in {ms:.2} ms",
        congr.rules.len(),
        congr.c_size
    );
    println!("membership agreement with the graph spec: {agree}/{total} (must be total)\n");
    assert_eq!(agree, total);
}

/// Transitive closure of a chain with `n` edges: rules + fresh EDB.
/// `right` picks the recursion direction: left recursion keeps the
/// delta atom leading in written order; right recursion
/// (`Path(x,z) ← Edge(x,y), Path(y,z)`) puts it second, which the
/// compiled join programs hoist outermost — the workload that showed
/// the interpreter's worst probe blow-up.
fn tc_chain_dir(
    n: usize,
    right: bool,
) -> (
    fundb_term::Interner,
    fundb_datalog::Database,
    Vec<fundb_datalog::Rule>,
) {
    use fundb_datalog::{Atom, Database, Rule, Term};
    use fundb_term::{Cst, Interner, Pred, Var};
    let mut i = Interner::new();
    let edge = Pred(i.intern("Edge"));
    let path = Pred(i.intern("Path"));
    let (x, y, z) = (Var(i.intern("x")), Var(i.intern("y")), Var(i.intern("z")));
    let body = if right {
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
    let mut db = Database::new();
    let nodes: Vec<Cst> = (0..=n).map(|k| Cst(i.intern(&format!("v{k}")))).collect();
    for w in nodes.windows(2) {
        db.insert(edge, &[w[0], w[1]]);
    }
    (i, db, rules)
}

/// E11 — engine-level, beyond the paper: the pooled row-store and parallel
/// semi-naive scaling introduced in PR 2. Transitive closure of a chain is
/// the canonical workload where delta rounds are wide enough to chunk.
fn e11_parallel_scaling(bench: &mut Bench) {
    use fundb_datalog as dl;
    use fundb_term::FxHasher;
    use std::hash::Hasher;

    banner(
        "E11",
        "Parallel semi-naive fixpoint over the pooled row-store",
        "engine-level (no paper claim): thread count must never change \
         results — worker buffers merge in task order — while wide delta \
         rounds split across cores",
    );

    /// Order-sensitive fingerprint of every relation's rows, cheap enough
    /// to take on multi-million-row databases: byte-identity proxy for the
    /// parallel ≡ sequential check.
    fn order_hash(db: &dl::Database) -> u64 {
        let mut rels: Vec<_> = db.iter().collect();
        rels.sort_by_key(|(p, _)| p.index());
        let mut h = FxHasher::default();
        for (p, rel) in rels {
            h.write_usize(p.index());
            for row in rel.rows() {
                for c in row {
                    h.write_usize(c.index());
                }
            }
        }
        h.finish()
    }

    println!(
        "{:>14} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "workload", "threads", "wall (ms)", "rows", "rows/s", "probes", "speedup"
    );
    let families: &[(&str, bool, &[usize])] = &[
        ("tc_chain", false, &[256, 1024, 2048]),
        ("tc_right", true, &[64, 256, 512]),
    ];
    for &(family, right, sizes) in families {
        for &n in sizes {
            let mut seq: Option<(f64, u64, dl::EvalStats)> = None;
            for &threads in &[1usize, 2, 4, 8] {
                let (_i, mut db, rules) = tc_chain_dir(n, right);
                let plan = dl::DeltaPlan::new(&rules);
                let mut eval = dl::IncrementalEval::new()
                    .with_threads(threads)
                    .with_parallel_threshold(1);
                let t0 = Instant::now();
                let stats = eval.run(&mut db, &rules, &plan).unwrap();
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let hash = order_hash(&db);
                let (base_ms, base_hash, base_stats) = *seq.get_or_insert((ms, hash, stats));
                // Determinism contract: identical rows, order, and counters
                // at every thread count.
                assert_eq!(hash, base_hash, "row order diverged at {threads} threads");
                assert_eq!(stats, base_stats, "stats diverged at {threads} threads");
                let rows_per_s = stats.derived as f64 / (ms / 1e3).max(1e-9);
                let speedup = base_ms / ms.max(1e-9);
                println!(
                    "{:>14} {:>8} {:>12.2} {:>12} {:>12.0} {:>12} {:>9.2}x",
                    format!("{family}({n})"),
                    threads,
                    ms,
                    stats.derived,
                    rows_per_s,
                    stats.join_probes,
                    speedup
                );
                bench.push(
                    "E11",
                    &format!("{family}({n})"),
                    &[
                        ("threads", threads as f64),
                        ("wall_ms", ms),
                        ("derived_rows", stats.derived as f64),
                        ("rows_per_s", rows_per_s),
                        ("join_probes", stats.join_probes as f64),
                        ("index_hits", stats.index_hits as f64),
                        ("index_misses", stats.index_misses as f64),
                        ("speedup_vs_1t", speedup),
                    ],
                );
            }
        }
    }

    // Ablation: the naive oracle (every round re-joins the whole database)
    // against semi-naive evaluation, on the same chains; both must reach
    // the same fixpoint.
    println!(
        "{:>14} {:>12} {:>16} {:>10}",
        "workload", "naive (ms)", "semi-naive (ms)", "speedup"
    );
    for n in [32usize, 64] {
        type Eval = fn(&mut dl::Database, &[dl::Rule]) -> Result<dl::EvalStats, dl::EvalError>;
        let run = |eval: Eval| {
            let (_i, mut db, rules) = tc_chain_dir(n, false);
            let t0 = Instant::now();
            eval(&mut db, &rules).unwrap();
            (t0.elapsed().as_secs_f64() * 1e3, db)
        };
        let (naive_ms, naive) = run(dl::evaluate_naive);
        let (semi_ms, semi) = run(dl::evaluate);
        let same = naive.fact_count() == semi.fact_count()
            && naive
                .iter()
                .all(|(p, rel)| rel.rows().all(|r| semi.contains(p, r)));
        assert!(
            same,
            "E11: naive and semi-naive fixpoints differ on tc_chain({n})"
        );
        let speedup = naive_ms / semi_ms.max(1e-9);
        println!(
            "{:>14} {naive_ms:>12.2} {semi_ms:>16.2} {speedup:>9.2}x",
            format!("tc_chain({n})")
        );
        bench.push(
            "E11",
            &format!("tc_chain({n}) naive vs semi-naive"),
            &[
                ("naive_ms", naive_ms),
                ("semi_naive_ms", semi_ms),
                ("rows", semi.fact_count() as f64),
                ("speedup", speedup),
            ],
        );
    }

    // The same knob on the general engine (the E4 workloads): local
    // evaluations there stay under the parallel threshold by design, so
    // this measures that the thread knob is output- and cost-neutral on
    // small deltas, not a speedup.
    for (name, build) in [
        ("rotation(64)", 64usize),
        ("counter(8)", 0usize), // 0 marks the counter workload below
    ] {
        let mut base: Option<(f64, fundb_core::EngineStats)> = None;
        for &threads in &[1usize, 4] {
            let mut ws = if build > 0 {
                rotation(build)
            } else {
                binary_counter(8)
            };
            let mut engine = Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
            engine.set_threads(Some(threads));
            let t0 = Instant::now();
            engine.solve().unwrap();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let stats = engine.stats().clone();
            if let Some((base_ms, base_stats)) = &base {
                assert_eq!(
                    &stats, base_stats,
                    "engine stats diverged at {threads} threads"
                );
                println!(
                    "{:>14} {:>8} {:>12.2} {:>12} {:>12} {:>12} {:>9.2}x",
                    name,
                    threads,
                    ms,
                    stats.derived_rows,
                    "-",
                    stats.join_probes,
                    base_ms / ms.max(1e-9)
                );
            } else {
                println!(
                    "{:>14} {:>8} {:>12.2} {:>12} {:>12} {:>12} {:>10}",
                    name, threads, ms, stats.derived_rows, "-", stats.join_probes, "1.00x"
                );
            }
            bench.push(
                "E11",
                name,
                &[
                    ("threads", threads as f64),
                    ("wall_ms", ms),
                    ("derived_rows", stats.derived_rows as f64),
                    ("join_probes", stats.join_probes as f64),
                ],
            );
            base.get_or_insert((ms, stats));
        }
    }
    println!(
        "expected shape: identical rows/probes at every thread count \
         (deterministic merge); chain speedups track physical cores — on a \
         single-core host the parallel path only pays its scaffolding\n"
    );
}

/// E12 — the execution governor's steady-state cost: the same E4/E11
/// workloads with every budget armed (but sized never to trip), against the
/// default unlimited governor. The bar is the paired-median overhead within
/// the measured noise floor (half the IQR of the pairs' deltas).
fn e12_governor_overhead(bench: &mut Bench) {
    use fundb_datalog as dl;

    banner(
        "E12",
        "Execution governor overhead (budgets armed vs unlimited)",
        "engine-level (no paper claim): round-boundary checks plus one \
         cooperative check every 1024 join probes must cost nothing \
         measurable on the probe-bound workloads of E4/E11 — the \
         paired-median overhead stays within the measured noise floor",
    );

    /// An armed-but-never-tripping governor: every budget dimension set,
    /// all far beyond what the workload can reach.
    fn armed() -> dl::Governor {
        dl::Governor::new(
            dl::Budget::unlimited()
                .with_max_rows(usize::MAX / 2)
                .with_max_rounds(usize::MAX / 2)
                .with_max_millis(86_400_000)
                .with_max_bytes(usize::MAX / 2),
        )
        .with_faults(dl::FaultPlan::default())
    }

    // Seven interleaved pairs per workload (tc_chain(2048) runs ~1.3 s).
    const PAIRS: usize = 7;
    println!(
        "{:>16} {:>14} {:>14} {:>10} {:>8}",
        "workload", "base (ms)", "governed (ms)", "overhead", "noise"
    );
    // E11-style: the compiled-join fixpoint, where the probe-level check
    // mask is exercised millions of times.
    for (name, n, right) in [
        ("tc_chain(2048)", 2048usize, false),
        ("tc_right(512)", 512, true),
    ] {
        let run = |governor: Option<dl::Governor>| {
            let (_i, mut db, rules) = tc_chain_dir(n, right);
            let plan = dl::DeltaPlan::new(&rules);
            let mut eval = dl::IncrementalEval::new().with_threads(1);
            if let Some(g) = governor {
                eval = eval.with_governor(g);
            }
            let t0 = Instant::now();
            eval.run(&mut db, &rules, &plan).unwrap();
            t0.elapsed().as_secs_f64() * 1e3
        };
        report_overhead(
            bench,
            name,
            paired(PAIRS, || run(None), || run(Some(armed()))),
        );
    }
    // E4-style: the general engine (many small local evaluations — the
    // round-boundary checks dominate here, not the probe mask).
    for (name, bits) in [("counter(6)", 6usize), ("counter(8)", 8)] {
        let run = |governor: Option<dl::Governor>| {
            let mut ws = binary_counter(bits);
            let mut engine = Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
            if let Some(g) = governor {
                engine.set_governor(g);
            }
            let t0 = Instant::now();
            engine.solve().unwrap();
            t0.elapsed().as_secs_f64() * 1e3
        };
        report_overhead(
            bench,
            name,
            paired(PAIRS, || run(None), || run(Some(armed()))),
        );
    }
    println!(
        "expected shape: |overhead| within the noise column — the probe-mask \
         check is a single branch per 1024 probes, round checks are O(rounds)\n"
    );
}

fn report_overhead(bench: &mut Bench, name: &str, p: Paired) {
    println!(
        "{name:>16} {:>14.2} {:>14.2} {:>+9.2}% {:>7.2}%",
        p.base_ms, p.treat_ms, p.overhead_pct, p.noise_pct
    );
    bench.push(
        "E12",
        name,
        &[
            ("base_ms", p.base_ms),
            ("governed_ms", p.treat_ms),
            ("overhead_pct", p.overhead_pct),
            ("noise_pct", p.noise_pct),
        ],
    );
}

/// E13 — the read-serving layer: frozen specifications and the parallel
/// batch path, measured against the per-query APIs of the mutable spec on
/// the same materialized knowledge.
fn e13_serving_throughput(bench: &mut Bench) {
    use fundb_datalog as dl;

    banner(
        "E13",
        "Frozen-spec serving throughput (freeze + batch)",
        "engine-level (no paper claim): a sealed specification answers \
         yes/no queries as a successor-table walk plus one slice probe, \
         through a parallel batch path; answers stay byte-identical to the \
         per-query walk at every thread count",
    );
    println!(
        "{:>16} {:>8} {:>14} {:>12} {:>8}",
        "workload", "threads", "per-query q/s", "batch q/s", "gain"
    );

    let n_queries = 4096usize;

    // Functional workloads: the baseline is the mutable spec's per-query
    // hash-map successor walk (`GraphSpec::holds`).
    for (name, which) in [("rotation(64)", 64usize), ("counter(8)", 0)] {
        let mut ws = if which > 0 {
            rotation(which)
        } else {
            binary_counter(8)
        };
        let spec = ws.graph_spec().unwrap();
        let funcs = spec.funcs.symbols().to_vec();
        let atoms: Vec<_> = spec.atoms.iter().map(|(_, p, a)| (p, a.to_vec())).collect();
        let queries: Vec<ServeQuery> = (0..n_queries)
            .map(|k| {
                let (pred, args) = &atoms[k % atoms.len()];
                ServeQuery::Member {
                    pred: *pred,
                    path: (0..k % 64).map(|j| funcs[(k + j) % funcs.len()]).collect(),
                    args: args.clone(),
                }
            })
            .collect();
        let t0 = Instant::now();
        let expected: Vec<bool> = queries
            .iter()
            .map(|q| match q {
                ServeQuery::Member { pred, path, args } => spec.holds(*pred, path, args),
                ServeQuery::Relational { pred, args } => spec.holds_relational(*pred, args),
            })
            .collect();
        let base_qps = n_queries as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        serve_rows(bench, name, spec, &queries, &expected, base_qps);
    }

    // Relational workloads (the chains of E11/E12): the baseline is the
    // ad-hoc join API `fundb_datalog::query` over the materialized
    // fixpoint — one compiled join program per call.
    for (name, n, right) in [
        ("tc_chain(1024)", 1024usize, false),
        ("tc_right(512)", 512, true),
    ] {
        let mut ws = Workspace::new();
        let mut text = String::from(if right {
            "Edge(x, y) -> Path(x, y).\nEdge(x, y), Path(y, z) -> Path(x, z).\n"
        } else {
            "Edge(x, y) -> Path(x, y).\nPath(x, y), Edge(y, z) -> Path(x, z).\n"
        });
        for k in 0..n {
            text.push_str(&format!("Edge(V{k}, V{}).\n", k + 1));
        }
        ws.parse(&text).unwrap();
        let spec = ws.graph_spec().unwrap();
        let path_pred = fundb_term::Pred(ws.interner.get("Path").unwrap());
        let node = |k: usize| fundb_term::Cst(ws.interner.get(&format!("V{k}")).unwrap());
        // A fixed pseudo-random pair stream; ground truth on the chain is
        // simply i < j, which cross-checks both serving paths for free.
        let pairs: Vec<(usize, usize)> = (0..n_queries)
            .map(|k| ((k * 7919) % (n + 1), (k * 104_729 + 13) % (n + 1)))
            .collect();
        let queries: Vec<ServeQuery> = pairs
            .iter()
            .map(|&(i, j)| ServeQuery::Relational {
                pred: path_pred,
                args: vec![node(i), node(j)],
            })
            .collect();
        let t0 = Instant::now();
        let expected: Vec<bool> = pairs
            .iter()
            .map(|&(i, j)| {
                let body = [dl::Atom::new(
                    path_pred,
                    vec![dl::Term::Const(node(i)), dl::Term::Const(node(j))],
                )];
                !dl::query(&spec.nf, &body, &[]).unwrap().is_empty()
            })
            .collect();
        let base_qps = n_queries as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        for (&(i, j), &ans) in pairs.iter().zip(&expected) {
            assert_eq!(ans, i < j, "chain ground truth at ({i}, {j})");
        }
        serve_rows(bench, name, spec, &queries, &expected, base_qps);
    }
    println!(
        "expected shape: batch serving beats the per-query paths by well \
         over 5x on tc_right(512) (no join compilation per query); answers \
         byte-identical at 1/2/4/8 threads\n"
    );
}

/// Batch passes timed per thread count; the row reports their median.
const SERVE_PASSES: usize = 5;

/// Freezes `spec` and times a batch pass at each thread count (median of
/// [`SERVE_PASSES`]; one pass is a fraction of a millisecond, so a single
/// sample mostly measures first touch and the host), asserting
/// byte-identical answers against the per-query baseline.
fn serve_rows(
    bench: &mut Bench,
    name: &str,
    spec: GraphSpec,
    queries: &[ServeQuery],
    expected: &[bool],
    base_qps: f64,
) {
    let frozen = spec.freeze();
    let governor = fundb_datalog::Governor::default();
    for &threads in &[1usize, 2, 4, 8] {
        let mut secs = Vec::with_capacity(SERVE_PASSES);
        for _ in 0..SERVE_PASSES {
            let t0 = Instant::now();
            let answers = frozen.answer_batch(queries, threads, &governor).unwrap();
            secs.push(t0.elapsed().as_secs_f64());
            assert_eq!(
                answers, expected,
                "{name}: batch answers diverged at {threads} threads"
            );
        }
        secs.sort_by(f64::total_cmp);
        let batch_qps = queries.len() as f64 / secs[SERVE_PASSES / 2].max(1e-9);
        let gain = batch_qps / base_qps.max(1e-9);
        println!(
            "{:>16} {:>8} {:>14.0} {:>12.0} {:>7.1}x",
            name, threads, base_qps, batch_qps, gain
        );
        bench.push(
            "E13",
            name,
            &[
                ("threads", threads as f64),
                ("per_query_qps", base_qps),
                ("batch_qps", batch_qps),
                ("batch_speedup_vs_perquery", gain),
            ],
        );
    }
}

/// E14 — PR 6: cost-based join planning over the generated scenario
/// families from `fundb_bench::scenariogen`. Planner-on compiles every
/// rule with `DeltaPlan::planned` (cardinality estimates snapshotted from
/// the loaded EDB); planner-off uses `DeltaPlan::new` (the greedy static
/// order that ships inside the core engine). Answers must be
/// byte-identical either way — only probe counts and wall time may move.
fn e14_planner(bench: &mut Bench) {
    use fundb_bench::scenariogen::RELATIONAL_FAMILIES;
    use fundb_datalog as dl;

    banner(
        "E14",
        "Cost-based join planning on generated scenario families",
        "engine-level (no paper claim): cardinality estimates must cut join \
         probes on adversarially-ordered rule bodies while answers stay \
         byte-identical, and must stay within 2% on workloads where the \
         greedy order was already optimal",
    );

    /// Canonical sorted dump: the byte-identity proxy for
    /// planner-on ≡ planner-off (plans may differ, answers may not).
    fn sorted_dump(db: &dl::Database) -> Vec<(usize, Vec<Vec<usize>>)> {
        let mut rels: Vec<(usize, Vec<Vec<usize>>)> = db
            .iter()
            .map(|(p, rel)| {
                let mut rows: Vec<Vec<usize>> = rel
                    .rows()
                    .map(|row| row.iter().map(|c| c.index()).collect())
                    .collect();
                rows.sort();
                (p.index(), rows)
            })
            .collect();
        rels.sort();
        rels
    }

    println!(
        "{:>10} {:>6} {:>15} {:>15} {:>11} {:>11} {:>8}",
        "family", "seeds", "greedy probes", "planned probes", "greedy ms", "planned ms", "ratio"
    );
    let seeds: Vec<u64> = (1..=16).collect();
    let mut families_won = 0usize;
    for &(family, generate) in RELATIONAL_FAMILIES {
        let (mut g_probes, mut p_probes) = (0u64, 0u64);
        let (mut g_ms, mut p_ms) = (0f64, 0f64);
        for &seed in &seeds {
            let run = |planned: bool| {
                let s = generate(seed);
                let mut db = s.db;
                let plan = if planned {
                    dl::DeltaPlan::planned(&s.rules, &db)
                } else {
                    dl::DeltaPlan::new(&s.rules)
                };
                let mut eval = dl::IncrementalEval::new().with_threads(1);
                let t0 = Instant::now();
                let stats = eval.run(&mut db, &s.rules, &plan).unwrap();
                (t0.elapsed().as_secs_f64() * 1e3, stats, sorted_dump(&db))
            };
            let (gm, gs, gd) = run(false);
            let (pm, ps, pd) = run(true);
            assert_eq!(gd, pd, "{family}(seed {seed}): planner changed the answers");
            g_probes += gs.join_probes as u64;
            p_probes += ps.join_probes as u64;
            g_ms += gm;
            p_ms += pm;
        }
        let ratio = g_probes as f64 / (p_probes as f64).max(1.0);
        if p_probes < g_probes {
            families_won += 1;
        }
        println!(
            "{:>10} {:>6} {:>15} {:>15} {:>11.2} {:>11.2} {:>7.2}x",
            family,
            seeds.len(),
            g_probes,
            p_probes,
            g_ms,
            p_ms,
            ratio
        );
        bench.push(
            "E14",
            family,
            &[
                ("scenarios", seeds.len() as f64),
                ("greedy_probes", g_probes as f64),
                ("planned_probes", p_probes as f64),
                ("probe_ratio", ratio),
                ("greedy_ms", g_ms),
                ("planned_ms", p_ms),
            ],
        );
    }
    println!(
        "families where the planner strictly cut probes: {families_won}/{} \
         (target ≥2)\n",
        RELATIONAL_FAMILIES.len()
    );

    // Regression guard on the established workloads: where the greedy order
    // was already optimal the planner may only add its one-off planning
    // cost. Interleaved min-of-7, same discipline as E12.
    fn min_pair(mut base: impl FnMut() -> f64, mut planned: impl FnMut() -> f64) -> (f64, f64) {
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..7 {
            best.0 = best.0.min(base());
            best.1 = best.1.min(planned());
        }
        best
    }

    println!(
        "{:>16} {:>14} {:>14} {:>10}",
        "workload", "greedy (ms)", "planned (ms)", "delta"
    );
    for (name, n, right) in [
        ("tc_chain(1024)", 1024usize, false),
        ("tc_right(256)", 256, true),
    ] {
        let run = |planned: bool| {
            let (_i, mut db, rules) = tc_chain_dir(n, right);
            let plan = if planned {
                dl::DeltaPlan::planned(&rules, &db)
            } else {
                dl::DeltaPlan::new(&rules)
            };
            let mut eval = dl::IncrementalEval::new().with_threads(1);
            let t0 = Instant::now();
            eval.run(&mut db, &rules, &plan).unwrap();
            t0.elapsed().as_secs_f64() * 1e3
        };
        let (base_ms, plan_ms) = min_pair(|| run(false), || run(true));
        let delta_pct = (plan_ms - base_ms) / base_ms.max(1e-9) * 100.0;
        println!("{name:>16} {base_ms:>14.2} {plan_ms:>14.2} {delta_pct:>+9.2}%");
        bench.push(
            "E14",
            name,
            &[
                ("greedy_ms", base_ms),
                ("planned_ms", plan_ms),
                ("delta_pct", delta_pct),
            ],
        );
    }
    // The general engine compiles its plans before any facts exist, so the
    // planner's cold-stats fallback reduces to the greedy order by
    // construction — this row measures the noise floor of that claim.
    {
        let run = || {
            let mut ws = binary_counter(8);
            let mut engine = Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
            let t0 = Instant::now();
            engine.solve().unwrap();
            t0.elapsed().as_secs_f64() * 1e3
        };
        let (base_ms, plan_ms) = min_pair(run, run);
        let delta_pct = (plan_ms - base_ms) / base_ms.max(1e-9) * 100.0;
        println!(
            "{:>16} {base_ms:>14.2} {plan_ms:>14.2} {delta_pct:>+9.2}%  (cold stats: greedy by construction)",
            "counter(8)"
        );
        bench.push(
            "E14",
            "counter(8)",
            &[
                ("greedy_ms", base_ms),
                ("planned_ms", plan_ms),
                ("delta_pct", delta_pct),
            ],
        );
    }
    println!(
        "expected shape: probe ratio > 1 on skewed/adversarial families; \
         tc/counter deltas within noise (target ≤2%) since their written \
         orders are already what the cost model picks\n"
    );
}

/// E15 — goal-directed evaluation (PR 7): the magic-set demand rewrite vs
/// full materialization on deep recursive scenarios. Ground point queries
/// like `Path(N0, N512)` have an O(depth) demand cone while the full
/// fixpoint materializes O(depth²) tuples; the bench asserts answer
/// equality (ground and open goals, sorted) in-line and gates a ≥5x join
/// probe reduction on the transitive-closure families.
fn e15_goal_directed(bench: &mut Bench) {
    use fundb_bench::scenariogen::{self, Scenario};
    use fundb_datalog as dl;
    use fundb_term::{Cst, Pred, Var};

    banner(
        "E15",
        "Goal-directed evaluation: magic-set demand vs full materialization",
        "engine-level (no paper claim): ground point queries on depth-512 \
         recursive scenarios must touch only their demand cone — ≥5x fewer \
         join probes than the full fixpoint — with identical answers",
    );

    let depth = 512usize;
    let seed = 7u64;
    let workloads: Vec<(&str, Scenario, String, Vec<String>, bool)> = vec![
        (
            "tc_chain(512)",
            scenariogen::tc_chain_n(seed, depth),
            "Path".to_string(),
            vec!["N0".to_string(), format!("N{depth}")],
            true,
        ),
        (
            "tc_right(512)",
            scenariogen::tc_right_n(seed, depth),
            "Path".to_string(),
            vec!["N0".to_string(), format!("N{depth}")],
            true,
        ),
        (
            "bounded(512)",
            scenariogen::bounded_depth_n(seed, depth),
            format!("L{depth}"),
            vec![format!("Lv{depth}N0")],
            false,
        ),
    ];

    println!(
        "{:>14} {:>13} {:>13} {:>8} {:>9} {:>9} {:>9}",
        "workload", "full probes", "demand probes", "ratio", "full ms", "demand ms", "demanded"
    );
    for (name, s, pname, args, gated) in workloads {
        let p = Pred(s.interner.get(&pname).unwrap());
        let row: Vec<Cst> = args
            .iter()
            .map(|a| Cst(s.interner.get(a).unwrap()))
            .collect();
        let ground = [dl::Atom::new(
            p,
            row.iter().map(|&c| dl::Term::Const(c)).collect(),
        )];

        // Full materialization baseline: cost-planned fixpoint, then the
        // point query over the materialized closure.
        let mut full_db = s.db.clone();
        let plan = dl::DeltaPlan::planned(&s.rules, &full_db);
        let t0 = Instant::now();
        let full_stats = dl::IncrementalEval::new()
            .with_threads(1)
            .run(&mut full_db, &s.rules, &plan)
            .unwrap();
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut full_ground = dl::query(&full_db, &ground, &[]).unwrap();
        full_ground.sort();

        // Goal-directed: magic-rewritten overlay evaluation of the same
        // ground goal against the unmaterialized base facts.
        let eval = dl::IncrementalEval::new().with_threads(1);
        let t1 = Instant::now();
        let ans = dl::query_demand(&s.db, &s.rules, &ground, &[], &eval).unwrap();
        let demand_ms = t1.elapsed().as_secs_f64() * 1e3;
        let mut demand_ground = ans.rows.clone();
        demand_ground.sort();
        assert_eq!(
            demand_ground, full_ground,
            "E15 {name}: ground answers differ"
        );
        assert!(
            ans.goal_directed,
            "E15 {name}: ground goal unexpectedly fell back to materialization"
        );

        // Open-goal answer equality (sorted): everything reachable from the
        // chain head must come out identical to the materialized closure.
        if row.len() == 2 {
            let y = Var(s.interner.get("y").unwrap());
            let open = [dl::Atom::new(
                p,
                vec![dl::Term::Const(row[0]), dl::Term::Var(y)],
            )];
            let mut full_open = dl::query(&full_db, &open, &[y]).unwrap();
            full_open.sort();
            let open_ans = dl::query_demand(&s.db, &s.rules, &open, &[y], &eval).unwrap();
            let mut demand_open = open_ans.rows.clone();
            demand_open.sort();
            assert_eq!(demand_open, full_open, "E15 {name}: open answers differ");
        }

        let full_probes = full_stats.join_probes as f64;
        let demand_probes = ans.stats.join_probes as f64;
        let ratio = full_probes / demand_probes.max(1.0);
        if gated {
            assert!(
                ratio >= 5.0,
                "E15 {name}: probe ratio {ratio:.1}x below the 5x target \
                 ({full_probes} full vs {demand_probes} demand)"
            );
        }
        println!(
            "{:>14} {:>13} {:>13} {:>7.1}x {:>9.2} {:>9.2} {:>9}",
            name,
            full_probes as u64,
            demand_probes as u64,
            ratio,
            full_ms,
            demand_ms,
            ans.stats.demanded_tuples
        );
        bench.push(
            "E15",
            name,
            &[
                ("depth", depth as f64),
                ("full_probes", full_probes),
                ("demand_probes", demand_probes),
                ("probe_ratio", ratio),
                ("full_ms", full_ms),
                ("demand_ms", demand_ms),
                ("magic_rules", ans.stats.magic_rules as f64),
                ("demanded_tuples", ans.stats.demanded_tuples as f64),
            ],
        );
    }
    println!(
        "expected shape: demand probes grow O(depth) on the tc point queries \
         while the full fixpoint pays O(depth²) — ratio ≥5x gated there; \
         bounded is the deliberate counterpoint: its dense layers make the \
         demand cone cover nearly the whole database, so the rewrite's \
         overhead loses and the no-op fallback heuristics matter\n"
    );
}

/// E17 — the PR 9 durable storage layer: steady-state cost of teeing every
/// committed row and round marker into the write-ahead log, plus the time
/// recovery needs to come back from a snapshot + WAL tail.
fn e17_durability(bench: &mut Bench) {
    use fundb_datalog as dl;
    use fundb_storage::DurableDb;

    banner(
        "E17",
        "Durable storage: WAL-on overhead and snapshot+replay recovery",
        "engine-level (no paper claim): journaling the deterministic commit \
         sequence (buffered appends, one flush per run) must cost ≤5% \
         steady-state (paired median, or within the measured noise floor) \
         on the E12 workloads, and recovery must replay a \
         crashed run onto its completed-round prefix in time linear in the \
         log",
    );

    /// A binary counter at the datalog level: numbers are `bits`-wide rows
    /// over constants {z, o}; one carry-ripple rule per bit position plus
    /// the all-zeros seed derive all 2^bits tuples through a maximal-length
    /// round chain — the round-marker-per-round worst case for the WAL.
    fn dl_counter(
        bits: usize,
    ) -> (
        fundb_term::Interner,
        fundb_datalog::Database,
        Vec<fundb_datalog::Rule>,
    ) {
        use fundb_datalog::{Atom, Database, Rule, Term};
        use fundb_term::{Cst, Interner, Pred, Var};
        let mut i = Interner::new();
        let num = Pred(i.intern("Num"));
        let (z, o) = (Cst(i.intern("z")), Cst(i.intern("o")));
        let vars: Vec<Var> = (0..bits).map(|k| Var(i.intern(&format!("b{k}")))).collect();
        // Rule for flipping bit `k` (0 = least significant): the `k` lower
        // bits roll over from all-ones to all-zeros.
        let rules = (0..bits)
            .map(|k| {
                let mut head = Vec::with_capacity(bits);
                let mut body = Vec::with_capacity(bits);
                for (pos, v) in vars.iter().enumerate().take(bits) {
                    // Row order: most significant bit first.
                    let low = bits - 1 - pos; // position from the low end
                    if low < k {
                        body.push(Term::Const(o));
                        head.push(Term::Const(z));
                    } else if low == k {
                        body.push(Term::Const(z));
                        head.push(Term::Const(o));
                    } else {
                        body.push(Term::Var(*v));
                        head.push(Term::Var(*v));
                    }
                }
                Rule::new(Atom::new(num, head), vec![Atom::new(num, body)])
            })
            .collect();
        let mut db = Database::new();
        db.insert(num, &vec![z; bits]);
        (i, db, rules)
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fundb-e17-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    type Gen = fn() -> (
        fundb_term::Interner,
        fundb_datalog::Database,
        Vec<fundb_datalog::Rule>,
    );
    let workloads: [(&str, Gen); 3] = [
        ("tc_chain(512)", || tc_chain_dir(512, false)),
        ("tc_right(256)", || tc_chain_dir(256, true)),
        ("counter(10)", || dl_counter(10)),
    ];

    println!(
        "        workload    plain (ms)   WAL on (ms)  overhead    noise    records    log KiB  symbols"
    );
    for (name, gen) in workloads {
        // Plain in-memory run: only the fixpoint is timed.
        let base = || {
            let (_i, mut db, rules) = gen();
            let plan = dl::DeltaPlan::planned(&rules, &db);
            let mut eval = dl::IncrementalEval::new().with_threads(1);
            let t0 = Instant::now();
            eval.run(&mut db, &rules, &plan).unwrap();
            t0.elapsed().as_secs_f64() * 1e3
        };
        // WAL-on: same fixpoint through DurableDb::run (facts and rules
        // are journaled before the clock starts — steady-state only).
        // (records, bytes, file-local symbols) of the final run.
        let mut last = (0u64, 0u64, 0usize);
        let wal = |last: &mut (u64, u64, usize)| {
            let dir = scratch_dir("run");
            let (mut i, db, rules) = gen();
            let mut ddb = DurableDb::open(&dir, &mut i).unwrap();
            for (p, rel) in db.iter() {
                for row in rel.rows() {
                    ddb.insert(&i, p, row).unwrap();
                }
            }
            for rule in &rules {
                ddb.log_rule(&i, rule).unwrap();
            }
            ddb.commit().unwrap();
            let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
            let mut eval = dl::IncrementalEval::new().with_threads(1);
            let t0 = Instant::now();
            ddb.run(&i, &mut eval, &plan).unwrap();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let w = ddb.wal_stats();
            // Every interned symbol is logged, so the file-local symbol
            // table is the interner.
            *last = (w.records, w.bytes, i.len());
            drop(ddb);
            let _ = std::fs::remove_dir_all(&dir);
            ms
        };
        let Paired {
            base_ms,
            treat_ms: wal_ms,
            overhead_pct,
            noise_pct,
        } = paired(21, base, || wal(&mut last));
        let (records, bytes, symbols) = last;
        println!(
            "{name:>16} {base_ms:>13.2} {wal_ms:>13.2} {overhead_pct:>+8.2}% {noise_pct:>7.2}% \
             {records:>10} {:>10.1} {symbols:>8}",
            bytes as f64 / 1024.0
        );
        bench.push(
            "E17",
            name,
            &[
                ("base_ms", base_ms),
                ("wal_ms", wal_ms),
                ("overhead_pct", overhead_pct),
                ("noise_pct", noise_pct),
                ("wal_records", records as f64),
                ("wal_bytes", bytes as f64),
                ("symbols", symbols as f64),
            ],
        );
    }

    // Recovery: one crashed-looking WAL (the full tc_chain log, never
    // snapshotted) replayed from scratch, then the same state through a
    // snapshot — the two recovery paths a reopen can take.
    let dir = scratch_dir("recover");
    let (mut i, db, rules) = tc_chain_dir(512, false);
    let mut ddb = DurableDb::open(&dir, &mut i).unwrap();
    for (p, rel) in db.iter() {
        for row in rel.rows() {
            ddb.insert(&i, p, row).unwrap();
        }
    }
    for rule in &rules {
        ddb.log_rule(&i, rule).unwrap();
    }
    ddb.commit().unwrap();
    let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
    let mut eval = dl::IncrementalEval::new().with_threads(1);
    ddb.run(&i, &mut eval, &plan).unwrap();
    let rows = ddb.database().fact_count() as f64;
    drop(ddb);

    let replay_ms = {
        let mut fresh = fundb_term::Interner::new();
        let t0 = Instant::now();
        let ddb = DurableDb::open(&dir, &mut fresh).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(ddb.database().fact_count() as f64, rows);
        ms
    };
    let (snapshot_ms, reopen_ms) = {
        let mut fresh = fundb_term::Interner::new();
        let mut ddb = DurableDb::open(&dir, &mut fresh).unwrap();
        let t0 = Instant::now();
        ddb.snapshot(&fresh).unwrap();
        let snap = t0.elapsed().as_secs_f64() * 1e3;
        drop(ddb);
        let mut again = fundb_term::Interner::new();
        let t0 = Instant::now();
        let ddb = DurableDb::open(&dir, &mut again).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(ddb.database().fact_count() as f64, rows);
        (snap, ms)
    };
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nrecovery of tc_chain(512) ({rows} rows): full WAL replay \
         {replay_ms:.2} ms; snapshot write {snapshot_ms:.2} ms; reopen from \
         snapshot {reopen_ms:.2} ms"
    );
    bench.push(
        "E17",
        "recovery tc_chain(512)",
        &[
            ("rows", rows),
            ("wal_replay_ms", replay_ms),
            ("snapshot_ms", snapshot_ms),
            ("snapshot_reopen_ms", reopen_ms),
        ],
    );
    println!(
        "expected shape: WAL-on within max(5%, noise) on probe-bound \
         workloads (appends are buffered, one fsync-free flush per run); \
         counter's marker-per-round worst case stays single-digit; reopen \
         from a snapshot costs about what full replay does, as both decode \
         and insert the same rows and neither re-derives\n"
    );
}

/// E18 — incremental retraction (PR 10): churn maintenance vs rebuild.
///
/// Four parts, mirroring the tentpole's contracts:
/// 1. a 1%/10%/50% retract/re-insert mix over tc_chain(512), tc_right(512)
///    and a skewed fan-out (also with skip edges, so retraction re-derives),
///    incremental maintenance vs rebuild-per-op;
/// 2. the gated single-fact point: one `retract_fact` on tc_right(512)
///    must beat evaluating the remaining facts from scratch by ≥5x;
/// 3. the retract-free wall guard: a database that went through a
///    tombstone/compact cycle must evaluate with *identical* statistics
///    (hard gate) and within 2% of the wall time of a pristine one
///    (target, read against the run-to-run noise floor);
/// 4. the crash matrix spot-run: `crash_after_record:k` for every record
///    of a churn WAL, recover + resume, always reaching the uninterrupted
///    post-churn fixpoint (the byte-exhaustive version lives in
///    `tests/durability.rs`).
fn e18_churn(bench: &mut Bench) {
    use fundb_bench::scenariogen::{self, Scenario};
    use fundb_datalog as dl;
    use fundb_storage::DurableDb;
    use fundb_term::{Cst, Interner, Pred};

    banner(
        "E18",
        "Incremental retraction: churn maintenance, cache patching, crash matrix",
        "engine-level (no paper claim): per-op delete/update maintenance \
         (DRed over-delete/re-derive through compiled programs) must beat rebuilding the \
         fixpoint, stay byte-deterministic across threads, cost nothing on \
         retract-free runs, and survive a crash at any WAL record",
    );

    /// Wraps a raw (interner, db, rules) workload as a [`Scenario`] so
    /// `scenariogen::churn_script` can derive a deterministic op sequence.
    fn wrap(
        family: &'static str,
        (interner, db, rules): (Interner, fundb_datalog::Database, Vec<fundb_datalog::Rule>),
    ) -> Scenario {
        Scenario {
            family,
            seed: 18,
            text: String::new(),
            interner,
            rules,
            db,
            queries: Vec::new(),
        }
    }

    /// Skewed fan-out at scale: a 100-edge chain feeding a hub with 400
    /// spokes — retracting a chain edge tears a large cone, a spoke a
    /// small one.
    fn skew_dir() -> (Interner, fundb_datalog::Database, Vec<fundb_datalog::Rule>) {
        use fundb_datalog::Database;
        let (mut i, _, rules) = tc_chain_dir(0, false);
        let edge = Pred(i.get("Edge").unwrap());
        let mut db = Database::new();
        let node = |i: &mut Interner, name: String| Cst(i.intern(&name));
        let chain: Vec<Cst> = (0..=100).map(|k| node(&mut i, format!("c{k}"))).collect();
        for w in chain.windows(2) {
            db.insert(edge, &[w[0], w[1]]);
        }
        let hub = *chain.last().unwrap();
        for k in 0..400 {
            let spoke = node(&mut i, format!("s{k}"));
            db.insert(edge, &[hub, spoke]);
        }
        (i, db, rules)
    }

    /// The skewed fan-out plus an edge skipping one chain node every 10
    /// nodes (the `durable_churn` benchmark graph): retracting a skipped
    /// chain edge re-derives every path around it, so this row is the
    /// one that exercises the re-derive pass.
    fn skip_dir() -> (Interner, fundb_datalog::Database, Vec<fundb_datalog::Rule>) {
        let (i, mut db, rules) = skew_dir();
        let edge = Pred(i.get("Edge").unwrap());
        let chain: Vec<Cst> = (0..=100)
            .map(|k| Cst(i.get(&format!("c{k}")).unwrap()))
            .collect();
        for k in (5..99).step_by(10) {
            db.insert(edge, &[chain[k], chain[k + 2]]);
        }
        (i, db, rules)
    }

    let resolve = |s: &Scenario, op: &scenariogen::ChurnOp| -> (Pred, Vec<Cst>) {
        (
            Pred(s.interner.get(&op.pred).unwrap()),
            op.row
                .iter()
                .map(|a| Cst(s.interner.get(a).unwrap()))
                .collect(),
        )
    };

    // ---- Part 1: the churn mix table. -----------------------------------
    // Ops beyond the cap are dropped (printed, not silent): the rebuild arm
    // re-evaluates the whole fixpoint per op, and 20 ops per cell already
    // pin the per-op shape.
    const OP_CAP: usize = 20;
    // The fourth row churns only the skew graph's spoke edges: point
    // updates with ~100-row cones. The uniform rows above are size-biased
    // — on transitive closure a random edge's cone averages half the
    // fixpoint, where rebuild is inherently competitive — so the spokes
    // row is the one that isolates the maintenance machinery itself.
    type Workload = (Interner, fundb_datalog::Database, Vec<fundb_datalog::Rule>);
    #[allow(clippy::type_complexity)]
    let workloads: [(&str, fn() -> Workload); 5] = [
        ("tc_chain(512)", || tc_chain_dir(512, false)),
        ("tc_right(512)", || tc_chain_dir(512, true)),
        ("skew(100+400)", skew_dir),
        ("skew(spokes)", skew_dir),
        ("skew(skips)", skip_dir),
    ];
    println!(
        "{:>15} {:>5} {:>5} {:>12} {:>12} {:>9}",
        "workload", "mix", "ops", "incr (ms)", "rebuild (ms)", "speedup"
    );
    for (name, gen) in workloads {
        let s = wrap(name, gen());
        for percent in [1usize, 10, 50] {
            let mut script = scenariogen::churn_script(&s, 18, percent);
            if name == "skew(spokes)" {
                // Keep only spoke-edge ops (second endpoint `s*`): every op
                // is then a point update with a ~100-row cone.
                script.retain(|op| op.row.get(1).is_some_and(|v| v.starts_with('s')));
            }
            let total_ops = script.len();
            script.truncate(OP_CAP);

            // Incremental arm: one fixpoint, then per-op maintenance.
            let plan = dl::DeltaPlan::planned(&s.rules, &s.db);
            let mut db = s.db.clone();
            let mut eval = dl::IncrementalEval::new().with_threads(1);
            eval.run(&mut db, &s.rules, &plan).unwrap();
            let mut retractions = 0u64;
            let mut rederived = 0u64;
            let t0 = Instant::now();
            for op in &script {
                let (p, row) = resolve(&s, op);
                if op.retract {
                    let out = db
                        .retract_fact(p, &row, &s.rules, &plan, &dl::Governor::default())
                        .unwrap();
                    retractions += out.stats.retractions as u64;
                    rederived += out.stats.rederived as u64;
                } else {
                    eval.prime_marks(&db);
                    db.insert(p, &row);
                    eval.run(&mut db, &s.rules, &plan).unwrap();
                }
            }
            let incr_ms = t0.elapsed().as_secs_f64() * 1e3;

            // Rebuild arm: same ops, full re-evaluation after each.
            let mut present: Vec<(Pred, Vec<Cst>)> =
                s.db.iter()
                    .flat_map(|(p, rel)| rel.rows().map(move |r| (p, r.to_vec())))
                    .collect();
            let mut rebuilt = dl::Database::new();
            let t0 = Instant::now();
            for op in &script {
                let (p, row) = resolve(&s, op);
                if op.retract {
                    present.retain(|(pp, rr)| !(*pp == p && *rr == row));
                } else {
                    present.push((p, row));
                }
                rebuilt = dl::Database::new();
                for (pp, rr) in &present {
                    rebuilt.insert(*pp, rr);
                }
                dl::evaluate(&mut rebuilt, &s.rules).unwrap();
            }
            let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                db.dump(&s.interner),
                rebuilt.dump(&s.interner),
                "E18 {name} {percent}%: incremental maintenance diverged from rebuild"
            );

            let speedup = rebuild_ms / incr_ms.max(1e-9);
            assert!(
                name != "skew(skips)" || rederived > 0,
                "E18 {name} {percent}%: skip edges must give the re-derive pass work"
            );
            assert!(
                name != "skew(spokes)" || speedup >= 5.0,
                "E18 {name} {percent}%: point-update churn must beat rebuild \
                 ≥5x, got {speedup:.1}x"
            );
            let capped = if total_ops > script.len() {
                format!(" (of {total_ops})")
            } else {
                String::new()
            };
            println!(
                "{name:>15} {percent:>4}% {:>5} {incr_ms:>12.2} {rebuild_ms:>12.2} {speedup:>8.1}x{capped}",
                script.len()
            );
            bench.push(
                "E18",
                &format!("{name} mix {percent}%"),
                &[
                    ("ops", script.len() as f64),
                    ("incr_ms", incr_ms),
                    ("rebuild_ms", rebuild_ms),
                    ("speedup", speedup),
                    ("retractions", retractions as f64),
                    ("rederived", rederived as f64),
                ],
            );
        }
    }

    // ---- Part 2: the gated single-fact point on tc_right(512). ----------
    // The op is the chain's *head* edge: a point update whose derivation
    // cone is the 512 paths out of v0 — 0.4% of the 131k-row fixpoint.
    // That is the case incrementality exists for (DRed's work is
    // proportional to the cone, and the mix table above shows the full
    // cone-size spread up to mid-chain edges whose cone is half the
    // database).
    let s = wrap("tc_right(512)", tc_chain_dir(512, true));
    let plan = dl::DeltaPlan::planned(&s.rules, &s.db);
    let mut fixed = s.db.clone();
    dl::IncrementalEval::new()
        .with_threads(1)
        .run(&mut fixed, &s.rules, &plan)
        .unwrap();
    let op = scenariogen::ChurnOp {
        retract: true,
        pred: "Edge".into(),
        row: vec!["v0".into(), "v1".into()],
    };
    let (p, row) = resolve(&s, &op);
    let mut incr_best = f64::INFINITY;
    let mut rebuild_best = f64::INFINITY;
    let mut cone = 0usize;
    for _ in 0..5 {
        let mut db = fixed.clone();
        let t0 = Instant::now();
        let out = db
            .retract_fact(p, &row, &s.rules, &plan, &dl::Governor::default())
            .unwrap();
        incr_best = incr_best.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(out.found, "E18: seeded retract target missing");
        cone = out.deleted.len();

        let mut without = dl::Database::new();
        for (pp, rel) in s.db.iter() {
            for r in rel.rows() {
                if !(pp == p && r == &row[..]) {
                    without.insert(pp, r);
                }
            }
        }
        let t0 = Instant::now();
        dl::evaluate(&mut without, &s.rules).unwrap();
        rebuild_best = rebuild_best.min(t0.elapsed().as_secs_f64() * 1e3);
        // Retract-then-resolve must match build-from-scratch-without.
        assert_eq!(
            db.dump(&s.interner),
            without.dump(&s.interner),
            "E18: single-fact retract dump differs from scratch build"
        );
    }
    let single_speedup = rebuild_best / incr_best.max(1e-9);
    println!(
        "\nsingle-fact retract on tc_right(512) [{}({}), cone {cone} rows]: \
         incremental {incr_best:.2} ms vs rebuild {rebuild_best:.2} ms = \
         {single_speedup:.1}x (target ≥5x, gated)",
        op.pred,
        op.row.join(",")
    );
    assert!(
        single_speedup >= 5.0,
        "E18: single-fact retract speedup {single_speedup:.1}x below the 5x gate"
    );
    bench.push(
        "E18",
        "single-fact retract tc_right(512)",
        &[
            ("incr_ms", incr_best),
            ("rebuild_ms", rebuild_best),
            ("speedup", single_speedup),
            ("cone_rows", cone as f64),
        ],
    );

    // ---- Part 3: thread-determinism oracle on the 1% script. ------------
    let script = {
        let mut sc = scenariogen::churn_script(&s, 18, 1);
        sc.truncate(OP_CAP);
        sc
    };
    type DumpRows = Vec<(usize, Vec<Vec<usize>>)>;
    let mut reference: Option<(DumpRows, dl::EvalStats)> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut db = s.db.clone();
        let mut eval = dl::IncrementalEval::new()
            .with_threads(threads)
            .with_parallel_threshold(1);
        let mut total = eval.run(&mut db, &s.rules, &plan).unwrap();
        for op in &script {
            let (p, row) = resolve(&s, op);
            if op.retract {
                let out = db.retract_fact(p, &row, &s.rules, &plan, &dl::Governor::default());
                total.absorb(out.unwrap().stats);
            } else {
                eval.prime_marks(&db);
                db.insert(p, &row);
                total.absorb(eval.run(&mut db, &s.rules, &plan).unwrap());
            }
        }
        let mut rows: Vec<(usize, Vec<Vec<usize>>)> = db
            .iter()
            .map(|(p, rel)| {
                (
                    p.index(),
                    rel.rows()
                        .map(|r| r.iter().map(|c| c.index()).collect())
                        .collect(),
                )
            })
            .collect();
        rows.sort_by_key(|&(p, _)| p);
        match &reference {
            None => reference = Some((rows, total)),
            Some((r, st)) => {
                assert_eq!(&rows, r, "E18: churn rows differ at {threads} threads");
                assert_eq!(&total, st, "E18: churn stats differ at {threads} threads");
            }
        }
    }
    println!("churn replay byte-identical (rows, RowIds, stats) at 1/2/4/8 threads");
    bench.push("E18", "thread determinism 1% script", &[("threads", 8.0)]);

    // ---- Part 4: retract-free wall guard. -------------------------------
    // Arm B's database went through an insert → tombstone → compact cycle
    // and holds exactly the pristine facts; the maintenance machinery must
    // leave no trace — identical EvalStats (hard gate) and ≤2% wall.
    let (mut gi, mut base, rules) = tc_chain_dir(512, false);
    let edge = Pred(gi.get("Edge").unwrap());
    let scratch = [Cst(gi.intern("sA")), Cst(gi.intern("sB"))];
    let churned = {
        let mut db = base.clone();
        db.insert(edge, &scratch);
        db.relation_mut(edge, 2)
            .retract_tuple(&scratch)
            .expect("scratch fact present");
        db.compact();
        db
    };
    // Compact the pristine arm too: compact() rebuilds indexes with
    // exact capacities, which alone moves a ~30 ms fixpoint
    // by ±3-5% versus an incrementally-grown layout (measured both
    // directions on this container). Normalizing layout makes the pair
    // isolate what the guard is for — residual traces of churn that
    // compaction failed to clear (dead slots, stale skew statistics) —
    // rather than allocator geometry.
    base.compact();
    // Each wall sample aggregates GUARD_REPS back-to-back evaluations:
    // a single ~30 ms fixpoint wanders ±3% between adjacent runs on this
    // container, while a ~300 ms aggregate holds the pair deltas inside
    // the gate's resolution.
    const GUARD_REPS: usize = 10;
    let run_arm = |src: &dl::Database| -> (f64, dl::EvalStats) {
        let plan = dl::DeltaPlan::planned(&rules, src);
        let mut stats = dl::EvalStats::default();
        let mut total = 0.0f64;
        for rep in 0..GUARD_REPS {
            let mut db = src.clone();
            let mut eval = dl::IncrementalEval::new().with_threads(1);
            let t0 = Instant::now();
            let s = eval.run(&mut db, &rules, &plan).unwrap();
            total += t0.elapsed().as_secs_f64() * 1e3;
            if rep == 0 {
                stats = s;
            }
        }
        (total / GUARD_REPS as f64, stats)
    };
    let (_, pristine_stats) = run_arm(&base);
    let (_, churned_stats) = run_arm(&churned);
    assert_eq!(
        pristine_stats, churned_stats,
        "E18: a compacted churn survivor evaluates with different statistics"
    );
    let mut pairs: Vec<(f64, f64)> = (0..21)
        .map(|_| (run_arm(&base).0, run_arm(&churned).0))
        .collect();
    pairs.sort_by(|a, b| {
        let da = (a.1 - a.0) / a.0.max(1e-9);
        let db = (b.1 - b.0) / b.0.max(1e-9);
        da.partial_cmp(&db).unwrap()
    });
    let (base_ms, churned_ms) = pairs[pairs.len() / 2];
    // Gate on the trimmed mean of the middle 11 pair deltas rather than
    // the single median pair: with layout normalized the true delta is
    // ~0, and one scheduler hiccup in the median pair would otherwise
    // decide the gate.
    let mid = &pairs[5..16];
    let guard_pct = mid
        .iter()
        .map(|(b, c)| (c - b) / b.max(1e-9) * 100.0)
        .sum::<f64>()
        / mid.len() as f64;
    println!(
        "retract-free guard: pristine {base_ms:.2} ms vs post-compact {churned_ms:.2} ms \
         ({guard_pct:+.2}%, target ≤2%, stats identical)"
    );
    // The ≤2% target is read against the run-to-run noise floor (repeat
    // runs of this estimator on identical arms span roughly ±3%) rather
    // than asserted at the boundary; the hard gates are the stats
    // equality above and this gross backstop.
    assert!(
        guard_pct <= 10.0,
        "E18: retract-free wall guard grossly blown: {guard_pct:+.2}%"
    );
    bench.push(
        "E18",
        "retract-free guard tc_chain(512)",
        &[
            ("base_ms", base_ms),
            ("churned_ms", churned_ms),
            ("guard_pct", guard_pct),
        ],
    );

    // ---- Part 5: crash-at-every-record spot matrix. ---------------------
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fundb-e18-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
    /// The churn workload against one durable handle; `None` = the
    /// injected crash struck (exactly like a dying process). Returns the
    /// post-churn dump plus the WAL records appended by this session
    /// (the full file count when `dir` started empty).
    fn churn_durable(dir: &std::path::Path, fault: dl::FaultPlan) -> Option<(Vec<String>, u64)> {
        let (mut i, db, rules) = tc_chain_dir(24, false);
        let mut ddb = DurableDb::open_with_faults(dir, &mut i, fault).ok()?;
        for (p, rel) in db.iter() {
            for row in rel.rows() {
                ddb.insert(&i, p, row).ok()?;
            }
        }
        if ddb.rules().is_empty() {
            for rule in &rules {
                ddb.log_rule(&i, rule).ok()?;
            }
        }
        ddb.commit().ok()?;
        let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
        let mut eval = dl::IncrementalEval::new().with_threads(1);
        ddb.run(&i, &mut eval, &plan).ok()?;
        let edge = Pred(i.get("Edge").unwrap());
        for (a, b) in [(6usize, 7usize), (12, 13), (20, 21)] {
            let t = [
                Cst(i.get(&format!("v{a}")).unwrap()),
                Cst(i.get(&format!("v{b}")).unwrap()),
            ];
            ddb.retract_fact(&i, edge, &t, &plan).ok()?;
        }
        let records = ddb.wal_stats().records;
        Some((ddb.database().dump(&i), records))
    }
    let dir = scratch_dir("full");
    let (full_dump, records) =
        churn_durable(&dir, dl::FaultPlan::default()).expect("clean churn workload must not fail");
    assert!(
        records > 0,
        "E18: churn reference run appended no WAL records"
    );
    let _ = std::fs::remove_dir_all(&dir);
    for k in 1..=records as usize {
        let dir = scratch_dir("crash");
        let fault = dl::FaultPlan {
            crash_after_record: Some(k),
            ..dl::FaultPlan::default()
        };
        let _ = churn_durable(&dir, fault);
        // Clean recovery, then the replayed workload reaches the same
        // post-churn fixpoint.
        let mut i = Interner::new();
        drop(
            DurableDb::open(&dir, &mut i).unwrap_or_else(|e| {
                panic!("E18: recovery after crash_after_record:{k} failed: {e}")
            }),
        );
        let (resumed, _) = churn_durable(&dir, dl::FaultPlan::default())
            .unwrap_or_else(|| panic!("E18: resume after crash at record {k} failed"));
        assert_eq!(
            resumed, full_dump,
            "E18: resume after crash at record {k} missed the post-churn fixpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!(
        "crash matrix: crash_after_record 1..={records} all recovered and \
         resumed to the post-churn fixpoint"
    );
    bench.push(
        "E18",
        "crash matrix tc_chain(24)+3 retracts",
        &[("records", records as f64), ("recovered", records as f64)],
    );
    println!(
        "\nexpected shape: maintenance cost is proportional to the cone \
         (point updates ≥5x, gated on the single-fact point and the \
         spokes mix; uniform mixes on transitive closure stay within a \
         small factor of rebuild because a random edge's cone is half the \
         fixpoint; the skip-edge mixes re-derive); determinism and crash \
         recovery hold byte-for-byte; the machinery is free when unused\n"
    );
}
