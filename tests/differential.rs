//! Differential and property-based tests.
//!
//! The engine, the graph specification, the equational specification, the
//! minimized specification and the temporal fast path must all agree with
//! each other — and with the bounded-depth naive materialization baseline
//! where the latter is exact (forward programs) or sound (general
//! programs) — on randomly generated functional deductive databases.

mod common;

use common::{all_paths, random_program, GenConfig, Generated};
use fundb_core::{normalize, to_pure, BoundedMaterialization, Engine, EqSpec, GraphSpec};
use fundb_term::Func;
use proptest::prelude::*;

/// A spec the reader accepted is valid, and its minimization, freeze and
/// equational spec build without panicking; a one-symbol spec read as a
/// lasso gives `Err` or answers.
fn check_read_spec(spec: GraphSpec) {
    spec.validate().unwrap();
    spec.minimized().validate().unwrap();
    if spec.funcs.len() == 1 {
        if let Ok(lasso) = fundb_temporal::TemporalSpec::from_graph_spec(&spec) {
            for (_, p, args) in spec.atoms.iter() {
                for n in [0, 1, 7, 1 << 40] {
                    let _ = lasso.holds(p, n, args);
                }
            }
        }
    }
    let eq = EqSpec::from_graph(&spec).freeze();
    let frozen = spec.freeze();
    let path = frozen.spec().funcs.symbols().to_vec();
    for (_, p, args) in frozen.spec().atoms.iter() {
        let _ = (frozen.holds(p, &path, args), eq.holds(p, &path, args));
    }
}

/// E4's rotation family: one fact rotating through `k` constants, a lasso
/// with ρ = 0 and λ = k.
fn rotation_source(k: usize) -> String {
    let mut src = String::from("Meets(t, x), Next(x, y) -> Meets(t+1, y).\nMeets(0, S0).\n");
    for i in 0..k {
        src.push_str(&format!("Next(S{i}, S{}).\n", (i + 1) % k));
    }
    src
}

/// E4's counter family: a `w`-bit binary counter (bit `i` flips when bits
/// `0..i` are all set), a lasso with ρ = 0 and λ = 2^w.
fn counter_source(w: usize) -> String {
    let mut src = String::from("B0(t) -> N0(t+1).\nN0(t) -> B0(t+1).\n");
    for i in 1..w {
        let low: Vec<String> = (0..i).map(|j| format!("B{j}(t)")).collect();
        let low = low.join(", ");
        src.push_str(&format!(
            "{low}, B{i}(t) -> N{i}(t+1).\n{low}, N{i}(t) -> B{i}(t+1).\n"
        ));
        for j in 0..i {
            src.push_str(&format!("N{j}(t), B{i}(t) -> B{i}(t+1).\n"));
            src.push_str(&format!("N{j}(t), N{i}(t) -> N{i}(t+1).\n"));
        }
    }
    for i in 0..w {
        src.push_str(&format!("N{i}(0).\n"));
    }
    src
}

/// The spec readers' mutation corpora for lassos: the text and binary
/// `.fspec` of counter(3)'s and rotation(4)'s lasso graph specs. Every
/// text line is dropped and duplicated, every binary body byte is flipped
/// under a recomputed checksum, and every binary prefix is read; whatever
/// a reader accepts goes through [`check_read_spec`].
#[test]
fn lasso_spec_readers_survive_mutations() {
    use fundb_core::{read_spec, read_spec_binary, write_spec, write_spec_binary, SpecBundle};
    use fundb_storage::codec::crc32c;
    for src in [counter_source(3), rotation_source(4)] {
        let mut ws = fundb_parser::Workspace::new();
        ws.parse(&src).unwrap();
        let lasso =
            fundb_temporal::TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
        let bundle = SpecBundle {
            spec: lasso.graph_spec().unwrap(),
            sym_map: Default::default(),
        };
        let text = write_spec(&bundle, &ws.interner).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for k in 0..lines.len() {
            for copies in [0, 2] {
                let mutated: String = (lines.iter().enumerate())
                    .flat_map(|(j, l)| std::iter::repeat_n(*l, if j == k { copies } else { 1 }))
                    .map(|l| format!("{l}\n"))
                    .collect();
                if let Ok(read) = read_spec(&mutated, &mut fundb_term::Interner::new()) {
                    check_read_spec(read.spec);
                }
            }
        }
        let bytes = write_spec_binary(&bundle, &ws.interner);
        const HEADER: usize = 24;
        let mut mutated = Vec::new();
        for at in HEADER..bytes.len() {
            for bit in [0x01, 0x80] {
                let mut body = bytes[HEADER..].to_vec();
                body[at - HEADER] ^= bit;
                mutated.clear();
                mutated.extend_from_slice(&bytes[..HEADER - 4]);
                mutated.extend_from_slice(&crc32c(&body).to_le_bytes());
                mutated.extend_from_slice(&body);
                if let Ok(read) = read_spec_binary(&mutated, &mut fundb_term::Interner::new()) {
                    check_read_spec(read.spec);
                }
            }
        }
        for len in 0..bytes.len() {
            assert!(read_spec_binary(&bytes[..len], &mut fundb_term::Interner::new()).is_err());
        }
    }
}

const DEPTH: usize = 4;

/// The path depth of a mixed program's checks: its instance symbols
/// `g[ā]` (§2.4) multiply the paths.
const MIXED_DEPTH: usize = 2;

/// The generator shapes every engine property draws: `base`, `base` with
/// the temporal shapes (relational heads over functional bodies, binary
/// `E(x, y)` joins, heads at `f(f(s))`), under which a relational fact
/// derived at one context is read at others, and `base` with mixed
/// function symbols in heads, bodies and facts.
fn shapes(base: GenConfig) -> [GenConfig; 3] {
    [
        base,
        GenConfig {
            temporal_shapes: true,
            ..base
        },
        GenConfig {
            mixed: true,
            ..base
        },
    ]
}

/// The path depth of `cfg`'s checks.
fn depth(cfg: &GenConfig) -> usize {
    if cfg.mixed {
        MIXED_DEPTH
    } else {
        DEPTH
    }
}

/// The paths a check walks: every path of at most `depth(cfg)` symbols
/// over the generated pure symbols and the program's instance symbols.
fn paths(cfg: &GenConfig, gen: &Generated, engine: &Engine) -> Vec<Vec<Func>> {
    let mut funcs = gen.funcs.clone();
    for &f in engine.compiled().funcs.symbols() {
        if !funcs.contains(&f) {
            funcs.push(f);
        }
    }
    all_paths(&funcs, depth(cfg))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Forward programs: bounded materialization is exact up to its depth,
    /// so engine answers and baseline answers coincide there.
    #[test]
    fn engine_matches_naive_on_forward_programs(seed in any::<u64>()) {
        for cfg in shapes(GenConfig { forward_only: true, ..GenConfig::default() }) {
            let mut gen = random_program(cfg, seed);
            let normal = normalize(&gen.program, &mut gen.interner);
            let pure = to_pure(&normal, &gen.db, &mut gen.interner).unwrap();
            let mat = BoundedMaterialization::run(&pure, depth(&cfg) + 2, &mut gen.interner).unwrap();
            let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            engine.solve().unwrap();
            for path in paths(&cfg, &gen, &engine) {
                for &p in &gen.preds {
                    for &c in &gen.consts {
                        prop_assert_eq!(
                            engine.holds(p, &path, &[c]),
                            mat.holds(p, &path, &[c]),
                            "{:?}: pred {:?} path {:?} const {:?}", cfg, p, path, c
                        );
                    }
                }
            }
        }
    }

    /// General programs: everything the baseline derives is in the least
    /// fixpoint (naive ⊆ engine), relational facts included.
    #[test]
    fn naive_is_sound_on_general_programs(seed in any::<u64>()) {
        for cfg in shapes(GenConfig::default()) {
            let mut gen = random_program(cfg, seed);
            let normal = normalize(&gen.program, &mut gen.interner);
            let pure = to_pure(&normal, &gen.db, &mut gen.interner).unwrap();
            let mat = BoundedMaterialization::run(&pure, depth(&cfg) + 2, &mut gen.interner).unwrap();
            let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            engine.solve().unwrap();
            for path in paths(&cfg, &gen, &engine) {
                for &p in &gen.preds {
                    for &c in &gen.consts {
                        if mat.holds(p, &path, &[c]) {
                            prop_assert!(
                                engine.holds(p, &path, &[c]),
                                "naive derived a fact the engine misses: {:?} {:?} {:?}",
                                cfg, p, path
                            );
                        }
                    }
                }
            }
            for &c in &gen.consts {
                if mat.holds_relational(gen.rel, &[c]) {
                    prop_assert!(
                        engine.holds_relational(gen.rel, &[c]),
                        "naive derived a relational fact the engine misses: {:?} {:?}", cfg, c
                    );
                }
            }
        }
    }

    /// The graph specification answers exactly like the engine, and the
    /// equational and minimized specifications answer exactly like the
    /// graph specification.
    #[test]
    fn specifications_agree(seed in any::<u64>()) {
        for cfg in shapes(GenConfig::default()) {
            let mut gen = random_program(cfg, seed);
            let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            spec.validate().unwrap();
            let minimized = spec.minimized();
            minimized.validate().unwrap();
            let mut eq = EqSpec::from_graph(&spec);
            for path in paths(&cfg, &gen, &engine) {
                for &p in &gen.preds {
                    for &c in &gen.consts {
                        let expected = engine.holds(p, &path, &[c]);
                        prop_assert_eq!(spec.holds(p, &path, &[c]), expected, "{:?}", cfg);
                        prop_assert_eq!(minimized.holds(p, &path, &[c]), expected, "{:?}", cfg);
                        prop_assert_eq!(eq.holds(p, &path, &[c]), expected, "{:?}", cfg);
                    }
                }
            }
            // Relational stores agree too.
            for &c in &gen.consts {
                let expected = engine.holds_relational(gen.rel, &[c]);
                prop_assert_eq!(spec.holds_relational(gen.rel, &[c]), expected, "{:?}", cfg);
                prop_assert_eq!(eq.holds_relational(gen.rel, &[c]), expected, "{:?}", cfg);
            }
        }
    }

    /// Four-way agreement on forward programs: the semi-naive engine, the
    /// naive bounded materialization, the graph specification and the
    /// equational specification answer identically on every atom up to
    /// `depth(cfg)` — and the engine's final pass is always a pure
    /// verification pass (absorbs nothing).
    #[test]
    fn four_way_agreement_on_forward_programs(seed in any::<u64>()) {
        for cfg in shapes(GenConfig { forward_only: true, ..GenConfig::default() }) {
            let mut gen = random_program(cfg, seed);
            let normal = normalize(&gen.program, &mut gen.interner);
            let pure = to_pure(&normal, &gen.db, &mut gen.interner).unwrap();
            let mat = BoundedMaterialization::run(&pure, depth(&cfg) + 2, &mut gen.interner).unwrap();
            let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            engine.solve().unwrap();
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            spec.validate().unwrap();
            let mut eq = EqSpec::from_graph(&spec);
            for path in paths(&cfg, &gen, &engine) {
                for &p in &gen.preds {
                    for &c in &gen.consts {
                        let expected = engine.holds(p, &path, &[c]);
                        prop_assert_eq!(
                            mat.holds(p, &path, &[c]), expected,
                            "naive disagrees: {:?} {:?} {:?} {:?}", cfg, p, path, c
                        );
                        prop_assert_eq!(
                            spec.holds(p, &path, &[c]), expected,
                            "graph spec disagrees: {:?} {:?} {:?} {:?}", cfg, p, path, c
                        );
                        prop_assert_eq!(
                            eq.holds(p, &path, &[c]), expected,
                            "eq spec disagrees: {:?} {:?} {:?} {:?}", cfg, p, path, c
                        );
                    }
                }
            }
            prop_assert_eq!(engine.stats().pass_deltas.last(), Some(&0));
            prop_assert_eq!(
                engine.stats().pass_deltas.iter().sum::<usize>(),
                engine.stats().delta_atoms
            );
        }
    }

    /// Solving twice never changes anything: the second `solve()` on an
    /// already-solved engine is a strict no-op on every counter.
    #[test]
    fn resolve_is_idempotent(seed in any::<u64>()) {
        for cfg in shapes(GenConfig::default()) {
            let mut gen = random_program(cfg, seed);
            let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            engine.solve().unwrap();
            let stats = engine.stats().clone();
            engine.solve().unwrap();
            prop_assert_eq!(engine.stats(), &stats);
        }
    }

    /// The quotient interpretation of a random program is a model
    /// (Proposition 3.2, mechanically).
    #[test]
    fn quotient_is_model_on_random_programs(seed in any::<u64>()) {
        for cfg in shapes(GenConfig::default()) {
            let mut gen = random_program(cfg, seed);
            let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            engine.solve().unwrap();
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            spec.validate().unwrap();
            prop_assert!(
                fundb_core::QuotientModel::new(&spec)
                    .is_model_of(engine.compiled())
                    .unwrap(),
                "{:?}", cfg
            );
        }
    }

    /// Minimization is idempotent and never enlarges the spec.
    #[test]
    fn minimization_is_idempotent(seed in any::<u64>()) {
        let mut gen = random_program(GenConfig::default(), seed);
        let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        spec.validate().unwrap();
        let m1 = spec.minimized();
        m1.validate().unwrap();
        let m2 = m1.minimized();
        m2.validate().unwrap();
        prop_assert!(m1.cluster_count() <= spec.cluster_count());
        prop_assert_eq!(m1.cluster_count(), m2.cluster_count());
        prop_assert_eq!(m1.primary_size(), m2.primary_size());
    }

    /// Normalization preserves the semantics of the original predicates:
    /// the engine over the raw program and over the (explicitly)
    /// pre-normalized program answer identically.
    #[test]
    fn normalization_preserves_answers(seed in any::<u64>()) {
        let mut gen = random_program(GenConfig::default(), seed);
        let normal = normalize(&gen.program, &mut gen.interner);
        let mut e1 = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
        let mut e2 = Engine::build(&normal, &gen.db, &mut gen.interner).unwrap();
        e1.solve().unwrap();
        e2.solve().unwrap();
        for path in all_paths(&gen.funcs, DEPTH) {
            for &p in &gen.preds {
                for &c in &gen.consts {
                    prop_assert_eq!(
                        e1.holds(p, &path, &[c]),
                        e2.holds(p, &path, &[c])
                    );
                }
            }
        }
    }
}

/// Thread-count independence: the parallel semi-naive fixpoint is an
/// implementation detail, never an observable. Running the same program
/// under 1, 2, 4 and 8 worker threads must produce byte-identical stores
/// (same rows in the same insertion order) and identical statistics.
mod thread_determinism {
    use super::common::{random_program, GenConfig};
    use fundb_core::Engine;
    use fundb_datalog as dl;
    use fundb_term::{Cst, Interner, Pred, Var};
    use proptest::prelude::*;

    const THREADS: [usize; 4] = [1, 2, 4, 8];

    /// Transitive closure of a chain: many rounds, non-trivial deltas.
    fn chain_tc(n: usize) -> (dl::Database, Vec<dl::Rule>) {
        let mut i = Interner::new();
        let edge = Pred(i.intern("Edge"));
        let path = Pred(i.intern("Path"));
        let (x, y, z) = (Var(i.intern("x")), Var(i.intern("y")), Var(i.intern("z")));
        let rules = vec![
            dl::Rule::new(
                dl::Atom::new(path, vec![dl::Term::Var(x), dl::Term::Var(y)]),
                vec![dl::Atom::new(
                    edge,
                    vec![dl::Term::Var(x), dl::Term::Var(y)],
                )],
            ),
            dl::Rule::new(
                dl::Atom::new(path, vec![dl::Term::Var(x), dl::Term::Var(z)]),
                vec![
                    dl::Atom::new(path, vec![dl::Term::Var(x), dl::Term::Var(y)]),
                    dl::Atom::new(edge, vec![dl::Term::Var(y), dl::Term::Var(z)]),
                ],
            ),
        ];
        let mut db = dl::Database::new();
        let nodes: Vec<Cst> = (0..=n).map(|k| Cst(i.intern(&format!("v{k}")))).collect();
        for w in nodes.windows(2) {
            db.insert(edge, &[w[0], w[1]]);
        }
        (db, rules)
    }

    /// Every relation's rows, in insertion order — the byte-level observable.
    fn snapshot(db: &dl::Database) -> Vec<(usize, Vec<Vec<Cst>>)> {
        let mut rels: Vec<(usize, Vec<Vec<Cst>>)> = db
            .iter()
            .map(|(p, rel)| (p.index(), rel.rows().map(<[Cst]>::to_vec).collect()))
            .collect();
        rels.sort_by_key(|(p, _)| *p);
        rels
    }

    /// Deterministic (non-property) pin: row insertion order and every
    /// statistic are identical across thread counts, with the parallel
    /// threshold forced to 1 so even small rounds take the parallel path.
    #[test]
    fn row_order_and_stats_are_pinned_across_thread_counts() {
        let run = |threads: usize| {
            let (mut db, rules) = chain_tc(64);
            let plan = dl::DeltaPlan::new(&rules);
            let stats = dl::IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1)
                .run(&mut db, &rules, &plan)
                .unwrap();
            (snapshot(&db), stats)
        };
        let (rows1, stats1) = run(1);
        assert_eq!(stats1.derived, 64 * 65 / 2);
        for threads in &THREADS[1..] {
            let (rows_n, stats_n) = run(*threads);
            assert_eq!(rows_n, rows1, "row order diverged at {threads} threads");
            assert_eq!(stats_n, stats1, "stats diverged at {threads} threads");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Four-way agreement across thread counts: engines solved under
        /// 1, 2, 4 and 8 threads answer identically on every atom up to
        /// depth 4 and report identical [`EngineStats`].
        #[test]
        fn engine_answers_and_stats_are_thread_count_independent(seed in any::<u64>()) {
            for cfg in super::shapes(GenConfig { forward_only: true, ..GenConfig::default() }) {
                let mut gen = random_program(cfg, seed);
                let mut engines: Vec<Engine> = THREADS
                    .iter()
                    .map(|&n| {
                        let mut e =
                            Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
                        e.set_threads(Some(n));
                        e.solve().unwrap();
                        e
                    })
                    .collect();
                let (seq, rest) = engines.split_at_mut(1);
                for (k, e) in rest.iter_mut().enumerate() {
                    prop_assert_eq!(
                        e.stats(),
                        seq[0].stats(),
                        "EngineStats diverged at {} threads", THREADS[k + 1]
                    );
                }
                for path in super::paths(&cfg, &gen, &seq[0]) {
                    for &p in &gen.preds {
                        for &c in &gen.consts {
                            let expected = seq[0].holds(p, &path, &[c]);
                            for (k, e) in rest.iter_mut().enumerate() {
                                prop_assert_eq!(
                                    e.holds(p, &path, &[c]),
                                    expected,
                                    "answers diverged at {} threads: {:?} {:?} {:?}",
                                    THREADS[k + 1], p, path, c
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Congruence-closure laws on random equation sets (the [DST80] substrate).
mod congruence_laws {
    use fundb_congruence::CongruenceClosure;
    use fundb_term::{Func, Interner};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (CongruenceClosure, Vec<Func>, Vec<Vec<Func>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut i = Interner::new();
        let funcs: Vec<Func> = (0..2).map(|k| Func(i.intern(&format!("f{k}")))).collect();
        let mut cc = CongruenceClosure::new();
        let mut terms: Vec<Vec<Func>> = Vec::new();
        for _ in 0..8 {
            let len = rng.gen_range(0..5usize);
            let t: Vec<Func> = (0..len).map(|_| funcs[rng.gen_range(0..2)]).collect();
            terms.push(t);
        }
        for _ in 0..3 {
            let a = terms[rng.gen_range(0..terms.len())].clone();
            let b = terms[rng.gen_range(0..terms.len())].clone();
            cc.equate_paths(&a, &b);
        }
        (cc, funcs, terms)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Reflexivity, symmetry, transitivity.
        #[test]
        fn equivalence_laws(seed in any::<u64>()) {
            let (mut cc, _, terms) = setup(seed);
            for a in &terms {
                prop_assert!(cc.congruent_paths(a, a));
            }
            for a in &terms {
                for b in &terms {
                    prop_assert_eq!(cc.congruent_paths(a, b), cc.congruent_paths(b, a));
                }
            }
            for a in &terms {
                for b in &terms {
                    for c in &terms {
                        if cc.congruent_paths(a, b) && cc.congruent_paths(b, c) {
                            prop_assert!(cc.congruent_paths(a, c));
                        }
                    }
                }
            }
        }

        /// Congruence: a ≅ b ⇒ f(a) ≅ f(b).
        #[test]
        fn congruence_law(seed in any::<u64>()) {
            let (mut cc, funcs, terms) = setup(seed);
            for a in &terms {
                for b in &terms {
                    if cc.congruent_paths(a, b) {
                        for &f in &funcs {
                            let mut fa = a.clone();
                            fa.push(f);
                            let mut fb = b.clone();
                            fb.push(f);
                            prop_assert!(cc.congruent_paths(&fa, &fb));
                        }
                    }
                }
            }
        }
    }
}

/// Parser round-trips: rendering a parsed rule and re-parsing it is stable.
mod parser_roundtrip {
    use fundb_parser::Workspace;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn display_parse_display_is_identity(
            head_off in 0usize..3,
            body_extra in 0usize..2,
            use_rel in any::<bool>(),
        ) {
            let head_term = match head_off {
                0 => "t".to_string(),
                n => format!("t+{n}"),
            };
            let mut body = vec!["P(t, x)".to_string()];
            for k in 0..body_extra {
                body.push(format!("Q{k}(t, x)"));
            }
            if use_rel {
                body.push("R(x)".to_string());
            }
            let src = format!("{} -> P({head_term}, x).\nP(0, A).", body.join(", "));
            let mut ws1 = Workspace::new();
            ws1.parse(&src).unwrap();
            let rendered: Vec<String> = ws1
                .program
                .rules
                .iter()
                .map(|r| fundb_core::program::display_rule(r, &ws1.interner).to_string())
                .collect();
            // Re-parse the rendered rules (plus the original facts).
            let mut ws2 = Workspace::new();
            ws2.parse(&format!("{}\nP(0, A).", rendered.join("\n"))).unwrap();
            let rendered2: Vec<String> = ws2
                .program
                .rules
                .iter()
                .map(|r| fundb_core::program::display_rule(r, &ws2.interner).to_string())
                .collect();
            prop_assert_eq!(rendered, rendered2);
        }
    }
}

/// The temporal fast path agrees with the general engine on random forward
/// temporal programs, and serialization round-trips preserve every answer.
mod temporal_and_io {
    use super::common::{all_paths, random_program, GenConfig};
    use fundb_core::program::{Atom, FTerm, NTerm};
    use fundb_core::{read_spec, write_spec, Engine, GraphSpec, Query, SpecBundle};
    use fundb_temporal::{classify, TemporalAnswer, TemporalClass, TemporalSpec};
    use fundb_term::{Cst, FxHashMap, Var};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Single-symbol forward programs: lasso answers == engine answers,
        /// including heads at `t+2` and relational heads that grow the
        /// relational store while the line is computed.
        #[test]
        fn temporal_fast_path_matches_engine(seed in any::<u64>()) {
            let mut gen = random_program(
                GenConfig {
                    funcs: 1,
                    forward_only: true,
                    temporal_shapes: true,
                    ..GenConfig::default()
                },
                seed,
            );
            prop_assume!(
                classify(&gen.program, &gen.db, &gen.interner) == TemporalClass::Forward
            );
            let spec =
                TemporalSpec::compute(&gen.program, &gen.db, &mut gen.interner).unwrap();
            let mut engine =
                Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            engine.solve().unwrap();
            let f = gen.funcs[0];
            for n in 0..(2 * (spec.rho() + spec.lambda()) + 4) {
                for &p in &gen.preds {
                    for &c in &gen.consts {
                        prop_assert_eq!(
                            spec.holds(p, n as u64, &[c]),
                            engine.holds(p, &vec![f; n], &[c]),
                            "seed {} pred {:?} n {}", seed, p, n
                        );
                    }
                }
            }
            for &c in &gen.consts {
                prop_assert_eq!(
                    spec.holds_relational(gen.rel, &[c]),
                    engine.holds_relational(gen.rel, &[c]),
                    "seed {} relational {:?}", seed, c
                );
            }
        }

        /// The temporal query answer (Theorem 5.1 over the lasso's own
        /// graph spec, cut to the answer's period) equals Theorem 5.1's
        /// incremental answer over the engine's graph specification at
        /// every time point `0..ρ+2λ`, for
        /// a single atom, two atoms sharing `t` and `x`, a functional atom
        /// joined to the relational one, and a ground time point.
        #[test]
        fn temporal_answers_match_incremental_answers(seed in any::<u64>()) {
            let mut gen = random_program(
                GenConfig {
                    funcs: 1,
                    forward_only: true,
                    temporal_shapes: true,
                    ..GenConfig::default()
                },
                seed,
            );
            prop_assume!(
                classify(&gen.program, &gen.db, &gen.interner) == TemporalClass::Forward
            );
            let lasso =
                TemporalSpec::compute(&gen.program, &gen.db, &mut gen.interner).unwrap();
            let mut engine =
                Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            let t = Var(gen.interner.intern("qt"));
            let x = Var(gen.interner.intern("qx"));
            let y = Var(gen.interner.intern("qy"));
            let fat = |pred, fterm, arg| Atom::Functional {
                pred,
                fterm,
                args: vec![NTerm::Var(arg)],
            };
            let f = gen.funcs[0];
            for (k, &p) in gen.preds.iter().enumerate() {
                let q = gen.preds[(k + 1) % gen.preds.len()];
                let queries = [
                    (vec![x], vec![fat(p, FTerm::Var(t), x)]),
                    (vec![x], vec![fat(p, FTerm::Var(t), x), fat(q, FTerm::Var(t), x)]),
                    (
                        vec![x],
                        vec![
                            fat(p, FTerm::Var(t), x),
                            Atom::Relational { pred: gen.rel, args: vec![NTerm::Var(x)] },
                        ],
                    ),
                    (
                        vec![x, y],
                        vec![fat(p, FTerm::Var(t), x), fat(q, FTerm::from_path(&[f]), y)],
                    ),
                ];
                for (qi, (out_nvars, body)) in queries.into_iter().enumerate() {
                    let query = Query { out_fvar: Some(t), out_nvars, body };
                    let temporal = TemporalAnswer::evaluate(&query, &lasso, &gen.interner).unwrap();
                    let inc = query.answer_incremental(&spec, &gen.interner).unwrap();
                    let mut tuples: Vec<Vec<Cst>> = vec![vec![]];
                    for _ in &query.out_nvars {
                        tuples = tuples
                            .iter()
                            .flat_map(|tu| gen.consts.iter().map(move |&c| {
                                let mut tu = tu.clone();
                                tu.push(c);
                                tu
                            }))
                            .collect();
                    }
                    for n in 0..lasso.rho() + 2 * lasso.lambda() {
                        for tu in &tuples {
                            prop_assert_eq!(
                                temporal.holds(n as u64, tu),
                                inc.holds_term(&spec, &vec![f; n], tu),
                                "seed {} pred {:?} query {} n {} tuple {:?}", seed, p, qi, n, tu
                            );
                        }
                    }
                }
            }
        }

        /// write_spec → read_spec preserves membership on random programs.
        #[test]
        fn spec_io_round_trips(seed in any::<u64>()) {
            let mut gen = random_program(GenConfig::default(), seed);
            let mut engine =
                Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            spec.validate().unwrap();
            let text = write_spec(
                &SpecBundle { spec: spec.clone(), sym_map: FxHashMap::default() },
                &gen.interner,
            ).unwrap();
            let mut fresh = fundb_term::Interner::new();
            let bundle = read_spec(&text, &mut fresh).unwrap();
            bundle.spec.validate().unwrap();
            // Translate symbols through names.
            for path in all_paths(&gen.funcs, 3) {
                let path2: Vec<fundb_term::Func> = path
                    .iter()
                    .map(|f| fundb_term::Func(
                        fresh.get(gen.interner.resolve(f.sym())).unwrap_or_else(|| {
                            fresh.intern(gen.interner.resolve(f.sym()))
                        }),
                    ))
                    .collect();
                for &p in &gen.preds {
                    let p2 = match fresh.get(gen.interner.resolve(p.sym())) {
                        Some(s) => fundb_term::Pred(s),
                        None => continue, // predicate absent from the spec: empty everywhere
                    };
                    for &c in &gen.consts {
                        let Some(c2) = fresh.get(gen.interner.resolve(c.sym())) else {
                            prop_assert!(!spec.holds(p, &path, &[c]));
                            continue;
                        };
                        prop_assert_eq!(
                            spec.holds(p, &path, &[c]),
                            bundle.spec.holds(p2, &path2, &[fundb_term::Cst(c2)]),
                            "seed {} path {:?}", seed, path
                        );
                    }
                }
            }
        }
    }
}

/// Theorem 3.1 / Lemma 3.1, empirically: state equivalence on deep terms is
/// a congruence — deep terms with equal slices have successors with equal
/// slices, for every function symbol.
mod congruence_theorem {
    use super::common::{all_paths, random_program, GenConfig};
    use fundb_core::{Engine, GraphSpec};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn deep_state_equivalence_is_a_congruence(seed in any::<u64>()) {
            let mut gen = random_program(GenConfig::default(), seed);
            let mut engine =
                Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            engine.solve().unwrap();
            let c = engine.compiled().c;
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            spec.validate().unwrap();
            let paths: Vec<_> = all_paths(&gen.funcs, 4)
                .into_iter()
                .filter(|p| p.len() > c)
                .collect();
            for p1 in &paths {
                for p2 in &paths {
                    if engine.state_of_path(p1) != engine.state_of_path(p2) {
                        continue;
                    }
                    for &f in &gen.funcs {
                        let (mut q1, mut q2) = (p1.clone(), p2.clone());
                        q1.push(f);
                        q2.push(f);
                        prop_assert_eq!(
                            engine.state_of_path(&q1),
                            engine.state_of_path(&q2),
                            "seed {}: {:?} ∼ {:?} but f-successors differ", seed, p1, p2
                        );
                    }
                }
            }
            // And the finite representation theorem itself: finitely many
            // clusters (trivially true but asserts the machinery agrees).
            prop_assert!(spec.cluster_count() >= 1);
        }
    }
}

/// Full syntax round trip: rendering a random core program through the
/// concrete syntax and re-elaborating it yields a semantically identical
/// program (same engine answers).
mod syntax_roundtrip {
    use super::common::{all_paths, random_program, GenConfig};
    use fundb_core::program::{display_atom, display_rule};
    use fundb_core::Engine;
    use fundb_parser::Workspace;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn render_reparse_preserves_semantics(seed in any::<u64>()) {
            let mut gen = random_program(GenConfig::default(), seed);
            // Render to concrete syntax.
            let mut src = String::new();
            for r in &gen.program.rules {
                src.push_str(&display_rule(r, &gen.interner).to_string());
                src.push('\n');
            }
            for f in &gen.db.facts {
                src.push_str(&format!("{}.\n", display_atom(f, &gen.interner)));
            }
            // Re-parse and solve.
            let mut ws = Workspace::new();
            ws.parse(&src).expect("rendered program re-parses");
            let spec = ws.graph_spec().expect("still domain-independent");
            spec.validate().unwrap();
            // Solve the original.
            let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            engine.solve().unwrap();
            // Compare answers, translating symbols by name.
            for path in all_paths(&gen.funcs, 3) {
                // A symbol the program never uses cannot appear in the
                // rendered source; terms over it are not in the LFP at all.
                let translated: Option<Vec<fundb_term::Func>> = path
                    .iter()
                    .map(|f| {
                        ws.interner
                            .get(gen.interner.resolve(f.sym()))
                            .map(fundb_term::Func)
                    })
                    .collect();
                let Some(path2) = translated else {
                    for &p in &gen.preds {
                        for &c in &gen.consts {
                            prop_assert!(!engine.holds(p, &path, &[c]));
                        }
                    }
                    continue;
                };
                for &p in &gen.preds {
                    let Some(p2) = ws.interner.get(gen.interner.resolve(p.sym())) else {
                        continue;
                    };
                    for &c in &gen.consts {
                        let Some(c2) = ws.interner.get(gen.interner.resolve(c.sym())) else {
                            prop_assert!(!engine.holds(p, &path, &[c]));
                            continue;
                        };
                        prop_assert_eq!(
                            engine.holds(p, &path, &[c]),
                            spec.holds(fundb_term::Pred(p2), &path2, &[fundb_term::Cst(c2)]),
                            "seed {} path {:?}", seed, path
                        );
                    }
                }
            }
        }

        /// Fuzzing the spec reader: single-line drops/duplications of a valid
        /// file never panic, and whatever is accepted validates and serves.
        #[test]
        fn spec_reader_survives_mutations(seed in any::<u64>()) {
            let mut gen = random_program(GenConfig::default(), seed);
            let mut engine = Engine::build(&gen.program, &gen.db, &mut gen.interner).unwrap();
            let spec = fundb_core::GraphSpec::from_engine(&mut engine).unwrap();
            spec.validate().unwrap();
            let text = fundb_core::write_spec(
                &fundb_core::SpecBundle { spec, sym_map: Default::default() },
                &gen.interner,
            ).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            for k in 0..lines.len() {
                let dropped: String = lines
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != k)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect();
                let mut i = fundb_term::Interner::new();
                if let Ok(bundle) = fundb_core::read_spec(&dropped, &mut i) {
                    super::check_read_spec(bundle.spec);
                }
                let duped: String = lines
                    .iter()
                    .enumerate()
                    .flat_map(|(j, l)| {
                        let n = if j == k { 2 } else { 1 };
                        std::iter::repeat_n(format!("{l}\n"), n)
                    })
                    .collect();
                let mut i = fundb_term::Interner::new();
                if let Ok(bundle) = fundb_core::read_spec(&duped, &mut i) {
                    super::check_read_spec(bundle.spec);
                }
            }
        }
    }
}

/// Planted lassos with λ ∈ 2..64 and ρ > 0, and E4's families with ρ = 0:
/// the forward line (or, for programs with a backward rule, the general
/// path of `TemporalSpec::compute`), `TemporalSpec::from_graph_spec` of the
/// program's graph spec, the lasso's own graph spec (`graph_spec()`) read
/// back from text and binary `.fspec`, and that graph spec's graph,
/// frozen, equational and frozen equational forms agree on every atom at
/// every instant of `0..ρ+3λ`; `TemporalAnswer` agrees with Theorem 5.1's
/// incremental answer over the program's graph spec there, and with the
/// lasso's own `holds` on one-atom queries; and no smaller (ρ, λ)
/// reproduces the states.
mod planted_lassos {
    use super::common::{random_lasso_program, tuples};
    use fundb_core::program::{Atom, FTerm, NTerm};
    use fundb_core::{
        read_spec, read_spec_binary, write_spec, write_spec_binary, Engine, EqSpec, GraphSpec,
        Query, SpecBundle,
    };
    use fundb_parser::Workspace;
    use fundb_temporal::TemporalSpec;
    use fundb_temporal::{classify, TemporalAnswer, TemporalClass};
    use fundb_term::{Cst, Pred, Var};

    const CASES: u64 = 24;

    /// `lasso` against its own graph spec at every instant of `0..ρ+3λ`:
    /// the spec read back from its text and binary `.fspec` has the same
    /// (ρ, λ), and it and the graph, frozen, equational (one equation) and
    /// frozen equational forms of the spec answer as the lasso does.
    fn check_lasso_graph(
        ws: &mut Workspace,
        lasso: &TemporalSpec,
        fpreds: &[(Pred, usize)],
        rels: &[(Pred, usize)],
        consts: &[Cst],
        ctx: &str,
    ) {
        let graph = lasso.graph_spec().unwrap();
        graph.validate().unwrap();
        let bundle = SpecBundle {
            spec: graph.clone(),
            sym_map: Default::default(),
        };
        let text = write_spec(&bundle, &ws.interner).unwrap();
        let bytes = write_spec_binary(&bundle, &ws.interner);
        // Read into the same interner, so every name keeps its symbol.
        let from_text = read_spec(&text, &mut ws.interner).unwrap().spec;
        let from_binary = read_spec_binary(&bytes, &mut ws.interner).unwrap().spec;
        let reads = [from_text, from_binary].map(|g| TemporalSpec::from_graph_spec(&g).unwrap());
        let (rho, lambda) = (lasso.rho(), lasso.lambda());
        for read in &reads {
            assert_eq!((read.rho(), read.lambda()), (rho, lambda), "{ctx}");
        }
        let mut eq = EqSpec::from_graph(&graph);
        assert_eq!(eq.equation_count(), 1, "{ctx}");
        let frozen_eq = eq.freeze();
        let frozen = graph.clone().freeze();
        let f = graph.funcs.symbols()[0];
        for n in 0..rho + 3 * lambda {
            let path = vec![f; n];
            for &(p, arity) in fpreds {
                for args in tuples(consts, arity) {
                    let want = lasso.holds(p, n as u64, &args);
                    for (name, got) in [
                        (".fspec text", reads[0].holds(p, n as u64, &args)),
                        (".fspec binary", reads[1].holds(p, n as u64, &args)),
                        ("GraphSpec", graph.holds(p, &path, &args)),
                        ("FrozenGraphSpec", frozen.holds(p, &path, &args)),
                        ("EqSpec", eq.holds(p, &path, &args)),
                        ("FrozenEqSpec", frozen_eq.holds(p, &path, &args)),
                    ] {
                        assert_eq!(got, want, "{ctx} {name}: {p:?}{args:?} at {n}\n{text}");
                    }
                }
            }
        }
        for &(p, arity) in rels {
            for args in tuples(consts, arity) {
                let want = lasso.holds_relational(p, &args);
                for read in &reads {
                    assert_eq!(read.holds_relational(p, &args), want, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn planted_lassos_agree_across_representations() {
        let (mut lambdas, mut forward) = (Vec::new(), 0);
        for seed in 0..CASES {
            let mut g = random_lasso_program(seed);
            let ws = &mut g.ws;
            if classify(&ws.program, &ws.db, &ws.interner) == TemporalClass::Forward {
                forward += 1;
            }
            let lasso = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
            let mut engine = Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
            let spec = GraphSpec::from_engine(&mut engine).unwrap();
            let from_graph = TemporalSpec::from_graph_spec(&spec).unwrap();
            let (rho, lambda) = (lasso.rho(), lasso.lambda());
            assert_eq!(
                (from_graph.rho(), from_graph.lambda()),
                (rho, lambda),
                "seed {seed}"
            );
            assert!(
                rho >= g.delay,
                "seed {seed}: ρ {rho} below the delay {}",
                g.delay
            );
            assert_eq!(lambda % g.core_lambda, 0, "seed {seed}: λ {lambda}");
            let ctx = format!("seed {seed}");
            check_lasso_graph(ws, &lasso, &g.fpreds, &g.rels, &g.consts, &ctx);
            let horizon = rho + 3 * lambda;
            let f = spec.funcs.symbols()[0];
            for n in 0..horizon {
                let path = vec![f; n];
                for &(p, arity) in &g.fpreds {
                    for args in tuples(&g.consts, arity) {
                        let want = spec.holds(p, &path, &args);
                        for (name, got) in [("line", &lasso), ("from_graph_spec", &from_graph)] {
                            assert_eq!(
                                got.holds(p, n as u64, &args),
                                want,
                                "seed {seed} {name}: {p:?}{args:?} at {n}"
                            );
                        }
                    }
                }
            }
            for &(p, arity) in &g.rels {
                for args in tuples(&g.consts, arity) {
                    let want = spec.nf.contains(p, &args);
                    assert_eq!(lasso.holds_relational(p, &args), want, "seed {seed}");
                }
            }
            // Minimality over the horizon: no shorter period reproduces the
            // states from ρ on, and λ does not reproduce them from ρ - 1.
            let repeats = |from: usize, period: usize| {
                (from..horizon - period)
                    .all(|n| lasso.state_at(n as u64) == lasso.state_at((n + period) as u64))
            };
            for shorter in 1..lambda {
                assert!(
                    !repeats(rho, shorter),
                    "seed {seed}: λ' = {shorter} < {lambda}"
                );
            }
            assert!(
                rho == 0 || !repeats(rho - 1, lambda),
                "seed {seed}: ρ {rho} not minimal"
            );

            // Queries: every predicate alone, and the first two sharing t.
            let t = Var(ws.interner.intern("qt"));
            let x = Var(ws.interner.intern("qx"));
            let atom = |(pred, arity): (Pred, usize)| Atom::Functional {
                pred,
                fterm: FTerm::Var(t),
                args: vec![NTerm::Var(x); arity],
            };
            let mut queries: Vec<_> = g.fpreds.iter().map(|&p| (Some(p), vec![atom(p)])).collect();
            queries.push((None, g.fpreds.iter().take(2).map(|&p| atom(p)).collect()));
            for (single, body) in queries {
                let out_nvars = if body.iter().any(|a| !a.nvars().is_empty()) {
                    vec![x]
                } else {
                    vec![]
                };
                let outs = tuples(&g.consts, out_nvars.len());
                let query = Query {
                    out_fvar: Some(t),
                    out_nvars,
                    body,
                };
                let temporal = TemporalAnswer::evaluate(&query, &lasso, &ws.interner).unwrap();
                let inc = query.answer_incremental(&spec, &ws.interner).unwrap();
                for n in 0..horizon {
                    let path = vec![f; n];
                    for tu in &outs {
                        let got = temporal.holds(n as u64, tu);
                        let ctx = format!("seed {seed}: {:?} at {n} {tu:?}", query.body);
                        assert_eq!(got, inc.holds_term(&spec, &path, tu), "{ctx}");
                        // One atom `P(t, x, …, x)`: the lasso's own slice.
                        if let Some((p, arity)) = single {
                            let args: Vec<Cst> = tu.iter().copied().cycle().take(arity).collect();
                            assert_eq!(got, lasso.holds(p, n as u64, &args), "{ctx}");
                        }
                    }
                }
            }
            lambdas.push(lambda);
        }
        // The generator must keep producing the lassos this suite exists for.
        let long = lambdas.iter().filter(|&&l| l >= 2).count();
        assert!(
            2 * long >= lambdas.len(),
            "λ ≥ 2 in only {long} cases: {lambdas:?}"
        );
        assert!(lambdas.iter().any(|&l| l >= 16), "no λ ≥ 16: {lambdas:?}");
        assert!(
            0 < forward && forward < CASES,
            "forward line cases: {forward}"
        );
    }

    /// E4's rotation and counter families, whose lassos have ρ = 0, so
    /// their graph specs are unrolled by one position.
    #[test]
    fn e4_family_lassos_agree_across_representations() {
        let families = [2, 3, 5, 8]
            .map(|k| (format!("rotation({k})"), super::rotation_source(k)))
            .into_iter()
            .chain([1, 2, 3, 4].map(|w| (format!("counter({w})"), super::counter_source(w))));
        for (name, src) in families {
            let mut ws = Workspace::new();
            ws.parse(&src).unwrap();
            let lasso = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
            assert_eq!(lasso.rho(), 0, "{name}");
            let (mut fpreds, mut rels, mut consts) = (Vec::new(), Vec::new(), Vec::new());
            for (_, p, args) in lasso.atoms.iter() {
                fpreds.push((p, args.len()));
                consts.extend_from_slice(args);
            }
            for (p, rel) in lasso.nf.iter() {
                rels.push((p, rel.arity()));
            }
            for list in [&mut fpreds, &mut rels] {
                list.sort();
                list.dedup();
            }
            consts.sort();
            consts.dedup();
            check_lasso_graph(&mut ws, &lasso, &fpreds, &rels, &consts, &name);
        }
    }
}
