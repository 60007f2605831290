//! Integration tests reproducing every worked example in the paper.
//!
//! Each test cites the section it reproduces and asserts the *exact* outputs
//! the paper states (cluster structure, slices, equations, membership
//! answers), modulo the documented conservative start depth of our general
//! Algorithm Q (bisimulation minimization recovers the paper's coarser
//! clusters where they differ).

use fundb_core::{analysis, normalize, to_pure, CongrForm, EqSpec, QuotientModel};
use fundb_parser::Workspace;
use fundb_temporal::{classify, TemporalClass, TemporalSpec};

/// §1: the introductory example. "The answer to the query
/// Q = {(t,x) : Meets(t,x)} contains Meets(0,Tony), Meets(1,Jan),
/// Meets(2,Tony) … and is infinite. … there are two such classes:
/// a1 = {0,2,4,…} and a2 = {1,3,5,…}. … We choose a representative term for
/// each class, here 0 and 1, and store its truth assignment as the relation
/// Meets(0,Tony). Meets(1,Jan)."
#[test]
fn section_1_meets() {
    let mut ws = Workspace::new();
    ws.parse(
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
    )
    .unwrap();
    let spec = ws.graph_spec().unwrap().minimized();

    // Exactly two classes after minimization: even days (with Tony) and odd
    // days (with Jan).
    assert_eq!(spec.cluster_count(), 2);
    for n in 0..60usize {
        let who = if n % 2 == 0 { "Tony" } else { "Jan" };
        let other = if n % 2 == 0 { "Jan" } else { "Tony" };
        assert!(ws.holds(&spec, &format!("Meets({n}, {who})")).unwrap());
        assert!(!ws.holds(&spec, &format!("Meets({n}, {other})")).unwrap());
    }

    // "Vx, Meets(O,x) ≡ Meets(2,x) ≡ Meets(4,x) …": the representative
    // slices store one truth assignment per class.
    let rep0 = spec.representative_of(&[]).unwrap();
    let plus1 = fundb_term::Func(ws.interner.get("+1").unwrap());
    let rep2 = spec.representative_of(&[plus1, plus1]).unwrap();
    assert_eq!(rep0, rep2);

    // The fixpoint is infinite — [RBS87] would disallow the query.
    let report = analysis::analyze(&spec);
    assert!(!report.finite);

    // "the function symbol (+l) … is represented by a finite function f:
    // f(0)=1. f(1)=0." — the successor graph is the 2-cycle.
    let odd = spec.representative_of(&[plus1]).unwrap();
    assert_eq!(spec.succ(rep0, plus1).unwrap(), odd);
    assert_eq!(spec.succ(odd, plus1).unwrap(), rep0);

    // "Alternatively, the congruence is represented equationally … R
    // contains 0 ≅ 2": on the minimized spec the first merge equation
    // relates a term of the even class to the representative 0-class.
    let temporal = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
    assert_eq!(temporal.equation(), (0, 2));
}

/// §2.3: the domain-dependence examples. `P(s) → P(g(s))` and
/// `P(s), R(x) → P(g(s,x))` are domain-independent; `R(x) → P(s)` is not.
#[test]
fn section_2_3_domain_independence() {
    let mut ok = Workspace::new();
    ok.parse("P(s) -> P(g(s)).\nP(0).").unwrap();
    assert!(ok.graph_spec().is_ok());

    let mut ok2 = Workspace::new();
    ok2.parse("P(s), R(x) -> P(g(s, x)).\nP(0). R(A).").unwrap();
    assert!(ok2.graph_spec().is_ok());

    let mut bad = Workspace::new();
    bad.parse("functional P/1.\nR(x) -> P(s).\nR(A).").unwrap();
    let err = bad.graph_spec().unwrap_err();
    assert!(matches!(err, fundb_core::Error::NotRangeRestricted { .. }));
}

/// §3.4: the list-processing worked example, end to end. The paper computes
/// Active = {a, b, ab}, representative terms {0, a, b, ab}, the slices
/// L[0]=B(-part), L[a]={Member(a,a)}, L[b]={Member(b,b)},
/// L[ab]={Member(ab,a), Member(ab,b)}, and the successor mappings
/// f_a(a)=a, f_b(a)=ab, f_a(b)=ab, f_b(b)=b, f_a(ab)=f_b(ab)=ab.
#[test]
fn section_3_4_lists_worked_example() {
    let mut ws = Workspace::new();
    ws.parse(
        "P(x) -> Member(ext(0, x), x).
         P(y), Member(s, x) -> Member(ext(s, y), y).
         P(y), Member(s, x) -> Member(ext(s, y), x).
         P(A). P(B).",
    )
    .unwrap();

    // The transformation introduces exta/extb (here ext[A]/ext[B]).
    let normal = normalize(&ws.program, &mut ws.interner);
    let pure = to_pure(&normal, &ws.db, &mut ws.interner).unwrap();
    assert_eq!(pure.sym_map.len(), 2);

    let spec = ws.graph_spec().unwrap().minimized();
    assert_eq!(
        spec.cluster_count(),
        4,
        "paper: representatives 0, a, b, ab"
    );

    let exta = fundb_term::Func(ws.interner.get("ext[A]").unwrap());
    let extb = fundb_term::Func(ws.interner.get("ext[B]").unwrap());
    let zero = spec.representative_of(&[]).unwrap();
    let a = spec.representative_of(&[exta]).unwrap();
    let b = spec.representative_of(&[extb]).unwrap();
    let ab = spec.representative_of(&[exta, extb]).unwrap();
    assert_eq!(
        {
            let mut v = vec![zero, a, b, ab];
            v.dedup();
            v.len()
        },
        4
    );

    // Successor mappings exactly as in the paper.
    assert_eq!(spec.succ(a, exta).unwrap(), a);
    assert_eq!(spec.succ(a, extb).unwrap(), ab);
    assert_eq!(spec.succ(b, exta).unwrap(), ab);
    assert_eq!(spec.succ(b, extb).unwrap(), b);
    assert_eq!(spec.succ(ab, exta).unwrap(), ab);
    assert_eq!(spec.succ(ab, extb).unwrap(), ab);

    // Slices as the paper lists them.
    let slice = |node| {
        let mut v: Vec<String> = spec
            .slice(node)
            .map(|(p, args)| {
                format!(
                    "{}({})",
                    ws.interner.resolve(p.sym()),
                    args.iter()
                        .map(|c| ws.interner.resolve(c.sym()))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(slice(zero), Vec::<String>::new());
    assert_eq!(slice(a), vec!["Member(A)"]);
    assert_eq!(slice(b), vec!["Member(B)"]);
    assert_eq!(slice(ab), vec!["Member(A)", "Member(B)"]);

    // "Therefore a ≅ aa, b ≅ bb, ab ≅ ba, ab ≅ aba and ab ≅ abb":
    // congruences checkable through the equational specification.
    let mut eq = EqSpec::from_graph(&spec);
    assert!(eq.congruent(&[exta], &[exta, exta]));
    assert!(eq.congruent(&[extb], &[extb, extb]));
    assert!(eq.congruent(&[exta, extb], &[extb, exta]));
    assert!(eq.congruent(&[exta, extb], &[exta, extb, exta]));
    assert!(eq.congruent(&[exta, extb], &[exta, extb, extb]));
    assert!(!eq.congruent(&[exta], &[extb]));

    // L[aba] = {Member(aba,a), Member(aba,b)} etc. — the slices the paper
    // tabulates, via membership.
    assert!(ws
        .holds(&spec, "Member(ext(ext(ext(0,A),B),A), A)")
        .unwrap());
    assert!(ws
        .holds(&spec, "Member(ext(ext(ext(0,A),B),A), B)")
        .unwrap());
    assert!(ws.holds(&spec, "Member(ext(ext(0,B),B), B)").unwrap());
    assert!(!ws.holds(&spec, "Member(ext(ext(0,B),B), A)").unwrap());
}

/// §3.5: the Even example. "We will have B = D and R = {(0,2)} …
/// In particular, every tuple Even(u) such that (u,0) ∈ Cl(R) belongs to
/// LFP (soundness). The opposite is also true (completeness). …
/// try to verify whether Even(4) and Even(3): (0,4) ∈ Cl(R) and
/// (0,3) ∉ Cl(R). We obtain (1,3) ∈ Cl(R) but not (0,3)."
#[test]
fn section_3_5_even() {
    let mut ws = Workspace::new();
    ws.parse("Even(t) -> Even(t+2).\nEven(0).").unwrap();

    // The temporal specification reproduces R = {(0,2)} exactly.
    let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
    assert_eq!(spec.class, TemporalClass::Forward);
    assert_eq!(spec.equation(), (0, 2));
    // B = D: the prefix is empty and the cycle stores exactly one tuple
    // (Even at phase 0) — one stored tuple, as in the paper's B.
    assert_eq!(spec.primary_size(), 1);

    // Membership tests from the paper.
    let even = fundb_term::Pred(ws.interner.get("Even").unwrap());
    assert!(spec.holds(even, 4, &[]));
    assert!(!spec.holds(even, 3, &[]));
    assert!(spec.holds(even, 0, &[]));
    assert!(spec.holds(even, 123_456, &[]));
    assert!(!spec.holds(even, 123_457, &[]));

    // The general pipeline agrees (its congruence relates (1,3) but keeps
    // the shallow 0 in B directly — same answers).
    let mut eq = ws.eq_spec().unwrap();
    assert!(ws.holds_eq(&mut eq, "Even(4)").unwrap());
    assert!(!ws.holds_eq(&mut eq, "Even(3)").unwrap());
    let plus1 = fundb_term::Func(ws.interner.get("+1").unwrap());
    assert!(eq.congruent(&[plus1], &[plus1, plus1, plus1]));
    assert!(!eq.congruent(&[], &[plus1, plus1, plus1]));
}

/// §1 (situation-calculus planning): "there are only finitely many
/// positions that the robot can assume … On every possible infinite path,
/// there must be a cycle."
#[test]
fn section_1_planning() {
    let mut ws = Workspace::new();
    ws.parse(
        "At(s, p1), Connected(p1, p2) -> At(move(s, p1, p2), p2).
         At(0, P0).
         Connected(P0, P1). Connected(P1, P0). Connected(P1, P2). Connected(P2, P1).",
    )
    .unwrap();
    let spec = ws.graph_spec().unwrap();
    // Finitely many clusters despite infinitely many plans.
    assert!(spec.cluster_count() <= 16);
    let report = analysis::analyze(&spec);
    assert!(!report.finite, "the plan space is infinite");

    // Concrete plan checks.
    assert!(ws
        .holds(&spec, "At(move(move(0,P0,P1),P1,P2), P2)")
        .unwrap());
    assert!(!ws.holds(&spec, "At(move(0,P0,P1), P2)").unwrap());
    // A cycle: going P0→P1→P0 behaves like not moving at all.
    let a = "At(move(move(0,P0,P1),P1,P0), P0)";
    assert!(ws.holds(&spec, a).unwrap());
}

/// Appendix: the normalization example `P(s), W(x) → P(g(f(s),x))` produces
/// an equivalent set of normal rules over fresh predicates.
#[test]
fn appendix_normalization() {
    let mut ws = Workspace::new();
    ws.parse("P(s), W(x) -> P(g(f(s), x)).\nP(0). W(A).")
        .unwrap();
    let normal = normalize(&ws.program, &mut ws.interner);
    assert!(normal.is_normal());
    assert!(normal.rules.len() >= 2, "auxiliary predicates introduced");

    // Equivalence with respect to the original predicates: membership in
    // the specification matches direct expectations.
    let spec = ws.graph_spec().unwrap();
    assert!(ws.holds(&spec, "P(0)").unwrap());
    assert!(ws.holds(&spec, "P(g(f(0), A))").unwrap());
    assert!(ws.holds(&spec, "P(g(f(g(f(0), A)), A))").unwrap());
    assert!(!ws.holds(&spec, "P(f(0))").unwrap());
}

/// §3.6: the canonical form. LFP(Z, D) = LFP(CONGR, B ∪ R).
#[test]
fn section_3_6_congr() {
    let mut ws = Workspace::new();
    ws.parse("Even(t) -> Even(t+2).\nEven(0).").unwrap();
    let spec = ws.graph_spec().unwrap();
    let eq = EqSpec::from_graph(&spec);
    let congr = CongrForm::build(&eq, 10, &mut ws.interner).unwrap();
    let even = fundb_term::Pred(ws.interner.get("Even").unwrap());
    let plus1 = fundb_term::Func(ws.interner.get("+1").unwrap());
    for n in 0..=10usize {
        assert_eq!(
            congr.holds(even, &vec![plus1; n], &[]),
            spec.holds(even, &vec![plus1; n], &[]),
            "CONGR and the graph spec agree at {n}"
        );
    }
}

/// Proposition 3.2 on every example program of the paper: the quotient
/// interpretation is a model.
#[test]
fn proposition_3_2_quotient_models() {
    for src in [
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
        "Even(t) -> Even(t+2).\nEven(0).",
        "P(x) -> Member(ext(0, x), x).
         P(y), Member(s, x) -> Member(ext(s, y), y).
         P(y), Member(s, x) -> Member(ext(s, y), x).
         P(A). P(B).",
        "At(s, p1), Connected(p1, p2) -> At(move(s, p1, p2), p2).
         At(0, P0). Connected(P0, P1). Connected(P1, P0).",
    ] {
        let mut ws = Workspace::new();
        ws.parse(src).unwrap();
        let mut engine = ws.engine().unwrap();
        engine.solve().unwrap();
        let spec = fundb_core::GraphSpec::from_engine(&mut engine).unwrap();
        assert!(
            QuotientModel::new(&spec)
                .is_model_of(engine.compiled())
                .unwrap(),
            "quotient model check failed for:\n{src}"
        );
    }
}

/// §4 (temporal remark): "In the case of temporal terms, the relation R
/// contains just one pair capturing the periodicity of the least fixpoint.
/// The set of tuples B can be, however, exponentially sized." — a schedule
/// whose hyper-period is the lcm of its parts.
#[test]
fn section_4_temporal_single_pair() {
    let mut ws = Workspace::new();
    ws.parse(
        "A(t) -> A(t+2).\nB(t) -> B(t+3).\nC(t) -> C(t+5).
         A(0). B(0). C(0).",
    )
    .unwrap();
    assert_eq!(
        classify(&ws.program, &ws.db, &ws.interner),
        TemporalClass::Forward
    );
    let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
    // One pair; the period is lcm(2,3,5) = 30.
    assert_eq!(spec.lambda(), 30);
    assert_eq!(spec.equation(), (0, 30));
    let a = fundb_term::Pred(ws.interner.get("A").unwrap());
    let b = fundb_term::Pred(ws.interner.get("B").unwrap());
    let c = fundb_term::Pred(ws.interner.get("C").unwrap());
    for n in 0..120u64 {
        assert_eq!(spec.holds(a, n, &[]), n % 2 == 0);
        assert_eq!(spec.holds(b, n, &[]), n % 3 == 0);
        assert_eq!(spec.holds(c, n, &[]), n % 5 == 0);
    }
}

/// §1, instrumented: the semi-naive engine converges on the Meets example
/// in two global passes, and the second pass is a pure verification pass
/// that absorbs nothing. Every counter below is deterministic (work lists
/// are sorted and the hash maps have no random state), so the exact values
/// are pinned as a regression guard for the delta plans.
#[test]
fn section_1_meets_engine_stats() {
    let mut ws = Workspace::new();
    ws.parse(
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
    )
    .unwrap();
    let mut engine = fundb_core::Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
    engine.solve().unwrap();
    let stats = engine.stats().clone();
    assert_eq!(stats.passes, 2);
    assert_eq!(stats.pass_deltas, vec![3, 0]);
    assert_eq!(stats.pass_deltas.iter().sum::<usize>(), stats.delta_atoms);
    assert_eq!(stats.delta_atoms, 3);
    assert_eq!(stats.join_probes, 6);
    assert_eq!(stats.index_hits, 3);
    assert_eq!(stats.derived_rows, 3);
    assert_eq!(stats.top_evals, 2);

    // Solving an already-solved engine is a strict no-op: no passes, no
    // probes, no deltas.
    engine.solve().unwrap();
    assert_eq!(engine.stats(), &stats);
}

/// §4's adversarial temporal family through the general engine: a 6-bit
/// binary counter (the experiment harness's `binary_counter(6)`). Its star
/// rules read several context atoms each, so each seed's first run is one
/// scoped round: each of the 42 star rules fires once there, from the
/// seed's scope row (one probe per rule and seed, 2,688 in all). The
/// rounds, probes and derived rows are deterministic, so they are pinned
/// exactly.
#[test]
fn section_4_counter_engine_stats() {
    let w = 6;
    let mut src = String::from("B0(t) -> N0(t+1).\nN0(t) -> B0(t+1).\n");
    for i in 1..w {
        let low = (0..i)
            .map(|j| format!("B{j}(t)"))
            .collect::<Vec<_>>()
            .join(", ");
        src.push_str(&format!("{low}, B{i}(t) -> N{i}(t+1).\n"));
        src.push_str(&format!("{low}, N{i}(t) -> B{i}(t+1).\n"));
        for j in 0..i {
            src.push_str(&format!("N{j}(t), B{i}(t) -> B{i}(t+1).\n"));
            src.push_str(&format!("N{j}(t), N{i}(t) -> N{i}(t+1).\n"));
        }
    }
    for i in 0..w {
        src.push_str(&format!("N{i}(0).\n"));
    }
    let mut ws = Workspace::new();
    ws.parse(&src).unwrap();
    let mut engine = fundb_core::Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
    engine.solve().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.datalog_rounds, 65);
    assert_eq!(stats.join_probes, 4832);
    assert_eq!(stats.derived_rows, 390);
}

/// §1's Meets extended so that every kind of row the engine absorbs is
/// derived: a relational rule and a ground rule (no functional variable)
/// derive a relational and a fixed-node row, the forward and backward star
/// rules derive here and child rows at the top region (c = 1, from the
/// ground term `1`) and at the uniform seeds below it. The ground rule
/// reads `Meets(1, x)`, derived at the root in the same evaluation, so one
/// pass absorbs everything. All counters are deterministic, so they are
/// pinned exactly.
#[test]
fn section_1_meets_all_sites_engine_stats() {
    let mut ws = Workspace::new();
    ws.parse(
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Meets(t+1, x) -> Met(t, x).
         Next(x, y) -> Knows(y, x).
         Meets(1, x), Knows(x, y) -> Greets(1, y).
         Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
    )
    .unwrap();
    let mut engine = fundb_core::Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
    engine.solve().unwrap();
    assert_eq!(engine.compiled().c, 1);
    assert!(!engine.compiled().fixed_rules().is_empty());

    let sym = |n: &str| ws.interner.get(n).unwrap();
    let (met, greets, knows) = (
        fundb_term::Pred(sym("Met")),
        fundb_term::Pred(sym("Greets")),
        fundb_term::Pred(sym("Knows")),
    );
    let plus1 = fundb_term::Func(sym("+1"));
    let (tony, jan) = (fundb_term::Cst(sym("Tony")), fundb_term::Cst(sym("Jan")));
    assert!(engine.holds_relational(knows, &[jan, tony]));
    assert!(engine.holds(greets, &[plus1], &[tony]));
    assert!(!engine.holds(greets, &[plus1], &[jan]));
    for n in 0..8usize {
        let path = vec![plus1; n];
        let (next, other) = if n % 2 == 0 { (jan, tony) } else { (tony, jan) };
        assert!(engine.holds(met, &path, &[next]), "Met({n}, ·)");
        assert!(!engine.holds(met, &path, &[other]), "Met({n}, ·)");
    }

    let s = engine.stats();
    assert_eq!(s.passes, 2);
    assert_eq!(s.pass_deltas, vec![11, 0]);
    assert_eq!(s.top_evals, 4);
    assert_eq!(s.uniform_evals, 4);
    assert_eq!(s.datalog_rounds, 8);
    assert_eq!(s.join_probes, 18);
    assert_eq!(s.derived_rows, 11);
}

/// Theorem 5.1, instrumented: after `add_fact_functional` the next
/// `solve()` derives only the consequences of the new fact. The re-solve's
/// extra work (delta atoms, join probes) is strictly smaller than what a
/// fresh build over the extended database spends, and an update with an
/// already-known fact costs nothing at all.
#[test]
fn theorem_5_1_incremental_solve_bounded_delta() {
    let mut ws = Workspace::new();
    ws.parse(
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Sees(t, x), Next(x, y) -> Sees(t+1, y).
         Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
    )
    .unwrap();
    let mut engine = fundb_core::Engine::build(&ws.program, &ws.db, &mut ws.interner).unwrap();
    engine.solve().unwrap();
    let before = engine.stats().clone();
    assert_eq!(before.pass_deltas, vec![3, 0]);

    // Seed the dormant Sees chain with one fact and re-solve.
    let sees = fundb_term::Pred(ws.interner.get("Sees").unwrap());
    let plus1 = fundb_term::Func(ws.interner.get("+1").unwrap());
    let tony = fundb_term::Cst(ws.interner.get("Tony").unwrap());
    let jan = fundb_term::Cst(ws.interner.get("Jan").unwrap());
    engine
        .add_fact_functional(sees, &[], &[tony], &ws.interner)
        .unwrap();
    engine.solve().unwrap();

    // The consequences are there: Sees alternates exactly like Meets.
    for n in 0..8usize {
        let path = vec![plus1; n];
        let (who, other) = if n % 2 == 0 { (tony, jan) } else { (jan, tony) };
        assert!(engine.holds(sees, &path, &[who]));
        assert!(!engine.holds(sees, &path, &[other]));
    }

    // …and they are all the re-solve derived: the new passes absorbed 5
    // atoms (the Sees chain plus the refreshed memo seeds), strictly less
    // than a fresh build over the extended database pays.
    let after = engine.stats().clone();
    assert_eq!(after.pass_deltas, vec![3, 0, 5, 0]);
    assert_eq!(after.pass_deltas.last(), Some(&0));

    let mut ws2 = Workspace::new();
    ws2.parse(
        "Meets(t, x), Next(x, y) -> Meets(t+1, y).
         Sees(t, x), Next(x, y) -> Sees(t+1, y).
         Meets(0, Tony). Sees(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
    )
    .unwrap();
    let mut fresh = fundb_core::Engine::build(&ws2.program, &ws2.db, &mut ws2.interner).unwrap();
    fresh.solve().unwrap();
    let incr_atoms = after.delta_atoms - before.delta_atoms;
    let incr_probes = after.join_probes - before.join_probes;
    assert!(incr_atoms < fresh.stats().delta_atoms);
    assert!(incr_probes < fresh.stats().join_probes);

    // Re-adding a fact the model already contains does not even mark the
    // engine dirty: the next solve() is free.
    let meets = fundb_term::Pred(ws.interner.get("Meets").unwrap());
    engine
        .add_fact_functional(meets, &[], &[tony], &ws.interner)
        .unwrap();
    engine.solve().unwrap();
    assert_eq!(engine.stats(), &after);
}
