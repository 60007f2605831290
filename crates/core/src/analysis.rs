//! Finiteness (safety) analysis of least fixpoints.
//!
//! The approach the paper argues against — [RBS87] — detects *unsafe*
//! programs (infinite least fixpoints or answers) in order to disallow
//! them. With a graph specification in hand that detection becomes a simple
//! graph property, so we provide it both as a baseline and as a useful API:
//!
//! A term `t` has a non-empty slice iff its representative's state is
//! non-empty. The set of terms mapping onto a representative `u` is the set
//! of root-to-`u` walks in the successor graph; it is infinite exactly when
//! `u` is reachable from a node that lies on a cycle. Hence the least
//! fixpoint is finite iff no non-empty representative is reachable from a
//! cycle, and when finite, the number of functional facts is the (finite)
//! weighted path count.

use crate::graphspec::{GraphSpec, SpecNodeId};
use fundb_term::FxHashMap;

/// Verdict of the finiteness analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FinitenessReport {
    /// Whether the least fixpoint is a finite set of facts.
    pub finite: bool,
    /// If infinite: a representative with a non-empty slice that infinitely
    /// many terms map onto.
    pub infinite_witness: Option<SpecNodeId>,
    /// If finite: the exact number of functional facts in the fixpoint
    /// (relational facts are always finite and not counted here).
    pub functional_fact_count: Option<u128>,
}

/// Analyzes a graph specification for finiteness of the underlying least
/// fixpoint.
pub fn analyze(spec: &GraphSpec) -> FinitenessReport {
    let n = spec.cluster_count();
    // Adjacency in dense index space: each node's successor row.
    let adj: Vec<Vec<usize>> = spec
        .node_ids()
        .map(|u| spec.succ_row(u).map(|(_, to)| to.index()).collect())
        .collect();

    // Nodes on cycles: iterative DFS with colors (0 new, 1 on stack, 2 done).
    // A back edge u→v marks every node on the current stack from v to u as
    // cyclic.
    let mut color = vec![0u8; n];
    let mut on_cycle = vec![false; n];
    let mut stack_pos: FxHashMap<usize, usize> = FxHashMap::default();
    let mut stack: Vec<usize> = Vec::new();
    // Explicit DFS to avoid recursion depth issues.
    let mut call: Vec<(usize, usize)> = vec![(spec.root().index(), 0)];
    color[spec.root().index()] = 1;
    stack_pos.insert(spec.root().index(), 0);
    stack.push(spec.root().index());
    while let Some((u, i)) = call.pop() {
        if i < adj[u].len() {
            call.push((u, i + 1));
            let v = adj[u][i];
            match color[v] {
                0 => {
                    color[v] = 1;
                    stack_pos.insert(v, stack.len());
                    stack.push(v);
                    call.push((v, 0));
                }
                1 => {
                    // Back edge: everything from v's stack position on is
                    // cyclic.
                    let from = stack_pos[&v];
                    for &w in &stack[from..] {
                        on_cycle[w] = true;
                    }
                }
                _ => {}
            }
        } else {
            color[u] = 2;
            stack_pos.remove(&u);
            stack.pop();
        }
    }

    // Forward-reachable set from cyclic nodes.
    let mut infinite_preimage = on_cycle.clone();
    let mut work: Vec<usize> = (0..n).filter(|&u| on_cycle[u]).collect();
    while let Some(u) = work.pop() {
        for &v in &adj[u] {
            if !infinite_preimage[v] {
                infinite_preimage[v] = true;
                work.push(v);
            }
        }
    }

    let witness = spec
        .node_ids()
        .find(|u| infinite_preimage[u.index()] && !spec.nodes[u.index()].state.is_empty());
    if let Some(w) = witness {
        return FinitenessReport {
            finite: false,
            infinite_witness: Some(w),
            functional_fact_count: None,
        };
    }

    // Finite: every term with a non-empty slice maps to a node outside the
    // cycle-reachable set, and the walks to such nodes all stay within the
    // acyclic part, so they have length < n. Count facts = Σ over walks
    // (slice size of the endpoint), by breadth-first walk counting.
    let mut total: u128 = 0;
    let mut walks: Vec<(usize, u128)> = vec![(spec.root().index(), 1)];
    total += spec.nodes[spec.root().index()].state.len() as u128;
    for _ in 0..n {
        let mut next: FxHashMap<usize, u128> = FxHashMap::default();
        for (u, cnt) in walks.drain(..) {
            for &v in &adj[u] {
                if infinite_preimage[v] {
                    continue;
                }
                *next.entry(v).or_insert(0) += cnt;
            }
        }
        for (&v, &cnt) in &next {
            total += cnt * spec.nodes[v].state.len() as u128;
        }
        walks = next.into_iter().collect();
        if walks.is_empty() {
            break;
        }
    }
    FinitenessReport {
        finite: true,
        infinite_witness: None,
        functional_fact_count: Some(total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::program::{Atom, Database, FTerm, NTerm, Program, Rule};
    use fundb_term::{Func, Interner, Pred, Var};

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    #[test]
    fn infinite_fixpoint_detected() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let f = Func(i.intern("f"));
        let s = Var(i.intern("s"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(p, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(p, FTerm::Var(s), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(p, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = crate::graphspec::GraphSpec::from_engine(&mut engine).unwrap();
        let report = analyze(&spec);
        assert!(!report.finite);
        assert!(report.infinite_witness.is_some());
    }

    #[test]
    fn finite_fixpoint_counted_exactly() {
        // No recursion through function symbols: P holds at 0 and f(0)
        // only. The symbol g exists but never carries facts.
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let f = Func(i.intern("f"));
        let s = Var(i.intern("s"));
        let mut prog = Program::new();
        // P(s) → Q(f(s)): one step up, no recursion (Q does not feed P).
        prog.push(Rule::new(
            fat(q, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(p, FTerm::Var(s), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(p, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = crate::graphspec::GraphSpec::from_engine(&mut engine).unwrap();
        let report = analyze(&spec);
        assert!(report.finite, "witness: {:?}", report.infinite_witness);
        // Facts: P(0) and Q(f(0)).
        assert_eq!(report.functional_fact_count, Some(2));
    }

    #[test]
    fn empty_program_is_finite() {
        let mut i = Interner::new();
        let prog = Program::new();
        let db = Database::new();
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = crate::graphspec::GraphSpec::from_engine(&mut engine).unwrap();
        let report = analyze(&spec);
        assert!(report.finite);
        assert_eq!(report.functional_fact_count, Some(0));
    }
}
