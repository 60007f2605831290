//! Simple list processing — the paper's running example (§1, §2.4, §3.4).
//!
//! `ext(s, x)` extends list `s` with element `x` (a "cons" with reversed
//! arguments); `Member` relates a list to its elements. The mixed symbol
//! `ext` is eliminated by the §2.4 transformation into the unary symbols
//! `ext[A]` and `ext[B]` (the paper's `exta`/`extb`), and Algorithm Q
//! computes exactly the specification worked out at the end of §3.4:
//! representative terms `0, a, b, ab` with their slices and successor
//! mappings.
//!
//! Run with: `cargo run --example lists`

use fundb_core::{normalize, to_pure, EqSpec};
use fundb_parser::Workspace;

fn main() {
    let mut ws = Workspace::new();
    ws.parse(
        "P(x) -> Member(ext(0, x), x).
         P(y), Member(s, x) -> Member(ext(s, y), y).
         P(y), Member(s, x) -> Member(ext(s, y), x).

         P(A). P(B).",
    )
    .expect("well-formed list program");

    // Show the §2.4 mixed→pure transformation.
    let normal = normalize(&ws.program, &mut ws.interner);
    let pure = to_pure(&normal, &ws.db, &mut ws.interner).expect("domain-independent");
    println!("=== Mixed→pure transformation (§2.4) ===");
    println!(
        "mixed symbol `ext` instantiated into {} unary symbols:",
        pure.sym_map.len()
    );
    let mut names: Vec<String> = pure
        .sym_map
        .values()
        .map(|f| ws.interner.resolve(f.sym()).to_string())
        .collect();
    names.sort();
    for n in &names {
        println!("  {n}");
    }
    // `ext(0, x)` names a ground node, so its rule is copied per constant;
    // the children `ext(s, y)` stay lifted and compile once each.
    println!("transformed rules: {}", pure.program.rules.len());

    // Algorithm Q: the paper's §3.4 worked example.
    let full = ws.graph_spec().expect("domain-independent program");
    println!(
        "\n=== Graph specification (Algorithm Q, {} clusters) ===",
        full.cluster_count()
    );
    // The bisimulation quotient reproduces the paper's four representatives
    // 0, a, b, ab exactly.
    let spec = full.minimized();
    println!("after minimization (the paper's §3.4 output):");
    print!("{}", spec.render(&ws.interner));
    println!(
        "representative terms: {} (paper: 0, a, b, ab — four clusters)",
        spec.cluster_count()
    );

    // Lists with the same element set are congruent: [a,b] vs [b,a].
    println!("\n=== Membership over deep lists ===");
    for fact in [
        "Member(ext(ext(0, A), B), A)",
        "Member(ext(ext(0, B), A), A)",
        "Member(ext(ext(ext(0, A), B), A), B)",
        "Member(ext(0, A), B)",
    ] {
        println!("{fact:>36}  ->  {}", ws.holds(&spec, fact).unwrap());
    }

    // Equational view: [a,b] ≅ [b,a] in Cl(R).
    let eq = EqSpec::from_graph(&spec);
    println!("\n=== Equations R (from Algorithm Q's merges) ===");
    for line in eq.render_equations(&ws.interner) {
        println!("R: {line}");
    }
}
