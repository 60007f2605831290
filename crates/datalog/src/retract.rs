//! Incremental retraction: delete/update as a first-class operation.
//!
//! [`Database::retract_fact`] removes one asserted (base) fact and repairs
//! every derived consequence in work proportional to the affected
//! derivation cone, not the database. The algorithm is the classic
//! delete-and-rederive (DRed) split, and both halves run the compiled join
//! programs of the [`DeltaPlan`] the database was evaluated under:
//!
//! 1. **Over-delete.** Starting from the target row, a worklist pass finds
//!    every derived row with at least one derivation through an
//!    already-marked row. The pass reuses the forward evaluator's
//!    *delta-outermost* programs verbatim — each BFS wave of marked rows
//!    is grouped by predicate and fed through
//!    [`JoinProgram::execute_rows`] as one batched negative delta at each
//!    body position that can consume it — over the *pre-deletion*
//!    database, so the marked set is the standard DRed over-approximation.
//!    Rows whose asserted bit is set are never marked: a base fact
//!    supports itself. Nothing is mutated until discovery completes; then
//!    the marked cone is tombstoned in one batch per relation
//!    ([`Relation::retract_rows`]: set the bits, then filter each touched
//!    bucket once; RowIds survive).
//! 2. **Re-derive.** Marked rows are revisited bottom-up by stratum
//!    (Tarjan SCCs of the predicate dependency graph, emitted
//!    dependencies-first) and restored — same arena slot, same RowId — if
//!    a derivation survives in the now-live database. Each SCC's first
//!    round feeds its tombstoned rows, grouped by predicate, to each
//!    rule's *head-bound* program (`JoinProgram::head_bound`): the head
//!    atom is op 0, so a deleted tuple binds the head and the body runs as
//!    an indexed existence check that stops at the first support. Lower
//!    strata are settled by then, so a non-recursive SCC is done after
//!    that round. In a recursive SCC a restored row can support a sibling,
//!    so each later round feeds the rows the previous round restored, as
//!    a positive delta, through the forward delta-outermost programs and
//!    restores the still-tombstoned rows they derive — semi-naive
//!    insertion confined to the cone — until a round restores nothing.
//!    Every round revives its rows in one batch per relation, and buckets
//!    stay ascending, so probe order is as if the row had never left.
//!
//! Only these passes revive a tombstoned row. Re-asserting a retracted
//! fact later appends a fresh row like any insert, so the forward
//! evaluator's low-water marks see it as ordinary delta; the dead slot
//! stays until [`Relation::compact`].
//!
//! Determinism: both passes run sequentially on the calling thread and
//! consult only deterministic state, so the deleted/restored sequences —
//! and with them RowIds, stats, and dumps — are byte-identical at any
//! thread count. A retract-then-resolve database dumps identically to one
//! built from scratch without the fact (the differential oracle in
//! `tests/fuzz_scenarios.rs`).
//!
//! Governance: both passes poll [`Governor::checkpoint`] (cancellation +
//! deadline) per wave and per round, and the programs poll at probe
//! granularity. A trip rolls the retraction back — every still-tombstoned
//! row is revived in place and the target's asserted bit is restored — so
//! an aborted retraction leaves the database exactly as it was: the
//! completed-round prefix contract, where the "round" is the whole
//! retraction.

use crate::engine::{DeltaPlan, EvalStats, IncrementalEval};
use crate::governor::{EvalError, Governor, Resource};
use crate::program::{register_file, HeadSlot};
use crate::rel::{Database, Relation, RowId};
use crate::rule::Rule;
use fundb_term::{Cst, FxHashMap, FxHashSet, FxHasher, Pred};
use std::hash::Hasher;

/// What one [`Database::retract_fact`] call did.
#[derive(Clone, Debug, Default)]
pub struct RetractOutcome {
    /// Whether the target was present as an asserted fact. `false` means
    /// the database was not touched (retracting a derived-only row is
    /// refused: rules, not assertions, maintain it).
    pub found: bool,
    /// Every tombstoned row — the target first, then the over-deleted
    /// cone in discovery order. Rows later restored by the re-derive pass
    /// still appear here.
    pub deleted: Vec<(Pred, Box<[Cst]>)>,
    /// Rows the re-derive pass restored (a derivation survived), round by
    /// round, each round in discovery order. The WAL replays `deleted`
    /// minus these.
    pub restored: Vec<(Pred, Box<[Cst]>)>,
    /// Work counters: `retractions` = tombstoned rows, `rederived` =
    /// restored rows, plus the probes both passes performed.
    pub stats: EvalStats,
}

impl RetractOutcome {
    /// The rows that are gone for good: `deleted` minus `restored`, in
    /// deletion order. This is the recomputed cone the serving layer's
    /// cache patcher inspects.
    pub fn net_deleted(&self) -> Vec<(Pred, &[Cst])> {
        let restored: FxHashSet<(Pred, &[Cst])> = self
            .restored
            .iter()
            .map(|(p, t)| (*p, t.as_ref()))
            .collect();
        self.deleted
            .iter()
            .map(|(p, t)| (*p, t.as_ref()))
            .filter(|k| !restored.contains(k))
            .collect()
    }
}

/// The marked cone of one retraction: `rows[i]` is the `i`-th marked row
/// in discovery order (the target first); `marked[p]` is a bitmap over
/// `p`'s row ids.
#[derive(Default)]
struct Cone {
    rows: Vec<(Pred, u32)>,
    marked: FxHashMap<Pred, Vec<u64>>,
}

impl Cone {
    /// Marks `(p, id)` unless it already is.
    fn mark(&mut self, p: Pred, id: u32) {
        let bits = self.marked.entry(p).or_default();
        let (w, b) = (id as usize / 64, 1u64 << (id % 64));
        if bits.len() <= w {
            bits.resize(w + 1, 0);
        }
        if bits[w] & b == 0 {
            bits[w] |= b;
            self.rows.push((p, id));
        }
    }

    /// The positions in `positions`, grouped by predicate in order of first
    /// appearance, each group in `positions` order.
    fn by_pred(&self, positions: impl Iterator<Item = usize>) -> Vec<(Pred, Vec<usize>)> {
        let mut groups: Vec<(Pred, Vec<usize>)> = Vec::new();
        for i in positions {
            let p = self.rows[i].0;
            match groups.iter_mut().find(|(gp, _)| *gp == p) {
                Some((_, group)) => group.push(i),
                None => groups.push((p, vec![i])),
            }
        }
        groups
    }

    /// The row ids at `positions`.
    fn ids(&self, positions: &[usize]) -> Vec<RowId> {
        positions.iter().map(|&i| RowId(self.rows[i].1)).collect()
    }
}

/// Finds cone rows by tuple: `(key, position)` pairs sorted by key, where
/// the key hashes the predicate and the tuple. Built once per recursive
/// SCC that restores anything, over that SCC's rows.
struct TupleIndex(Vec<(u64, usize)>);

impl TupleIndex {
    fn key(p: Pred, t: &[Cst]) -> u64 {
        let mut h = FxHasher::default();
        h.write_usize(p.index());
        for c in t {
            h.write_usize(c.index());
        }
        h.finish()
    }

    fn new(db: &Database, cone: &Cone, positions: &[usize]) -> TupleIndex {
        let mut keys: Vec<(u64, usize)> = positions
            .iter()
            .map(|&i| {
                let (p, id) = cone.rows[i];
                (TupleIndex::key(p, row_of(db, p, id)), i)
            })
            .collect();
        keys.sort_unstable();
        TupleIndex(keys)
    }

    /// The position of the cone row `p(t)`, if `t` is one.
    fn find(&self, db: &Database, cone: &Cone, p: Pred, t: &[Cst]) -> Option<usize> {
        let key = TupleIndex::key(p, t);
        let from = self.0.partition_point(|e| e.0 < key);
        self.0[from..]
            .iter()
            .take_while(|e| e.0 == key)
            .map(|e| e.1)
            .find(|&i| {
                let (rp, id) = cone.rows[i];
                rp == p && row_of(db, rp, id) == t
            })
    }
}

/// The existing relation of `p`, mutably.
fn rel_mut(db: &mut Database, p: Pred) -> &mut Relation {
    let arity = db.relation(p).map_or(0, |r| r.arity());
    db.relation_mut(p, arity)
}

/// The arena row of `p`'s row `id` (live or tombstoned).
fn row_of(db: &Database, p: Pred, id: u32) -> &[Cst] {
    db.relation(p)
        .expect("marked rows have a relation")
        .row(RowId(id))
}

/// Writes a head template under `regs` into `out`.
fn push_head(out: &mut Vec<Cst>, head: &[HeadSlot], regs: &[Cst]) {
    out.extend(head.iter().map(|s| match s {
        HeadSlot::Const(c) => *c,
        HeadSlot::Reg(r) => regs[*r as usize],
        HeadSlot::Unbound => panic!("unsafe rule: head variable unbound"),
    }));
}

fn budget(resource: Resource) -> EvalError {
    EvalError::BudgetExhausted {
        resource,
        partial: EvalStats::default(),
    }
}

impl Database {
    /// Retracts the asserted fact `p(t)` and incrementally repairs every
    /// derived consequence (see the module docs). The database must be at
    /// the fixpoint of `rules`, and `plan` must be the [`DeltaPlan`] it
    /// was evaluated under (built from the same `rules`); on return it is
    /// at the fixpoint of `rules` over the remaining asserted facts.
    ///
    /// `gov`'s cancellation and wall-clock deadline are polled throughout
    /// both passes. On `Err` the retraction has been rolled back whole —
    /// every tombstone revived in place, the target's asserted bit
    /// restored — so the database is byte-identical to the pre-call state.
    pub fn retract_fact(
        &mut self,
        p: Pred,
        t: &[Cst],
        rules: &[Rule],
        plan: &DeltaPlan,
        gov: &Governor,
    ) -> Result<RetractOutcome, EvalError> {
        let mut stats = EvalStats::default();
        let Some(rel) = self.relation(p) else {
            return Ok(RetractOutcome::default());
        };
        let Some(target) = rel.find(t) else {
            return Ok(RetractOutcome::default());
        };
        if !rel.is_asserted(target) {
            return Ok(RetractOutcome::default());
        }

        // Composite indexes both passes will probe. Discovery then reads
        // the database immutably, so they stay current throughout.
        plan.ensure_retract_indexes(self, rules);
        let cone = self
            .discover(p, target, rules, plan, gov, &mut stats)
            .map_err(budget)?;

        // From here on any early return must roll back; discovery alone
        // left the database untouched.
        let touched = tombstone(self, &cone, p, target);
        stats.retractions = cone.rows.len();
        let mut restored = vec![false; cone.rows.len()];
        let mut restore_seq: Vec<usize> = Vec::new();
        if let Err(resource) = self.rederive(
            &cone,
            rules,
            plan,
            gov,
            &mut restored,
            &mut restore_seq,
            &mut stats,
        ) {
            rollback(self, &cone, &restored, p, target);
            return Err(budget(resource));
        }

        // Skew statistics: deletion turned the insert-maintained
        // `max_bucket` high-water marks into upper bounds; re-derive them
        // exactly once tombstones pass the 25% threshold.
        for dp in touched {
            rel_mut(self, dp).maybe_resketch();
        }

        let tuple = |db: &Database, (dp, id): (Pred, u32)| (dp, row_of(db, dp, id).into());
        let out = RetractOutcome {
            found: true,
            deleted: cone.rows.iter().map(|&r| tuple(self, r)).collect(),
            restored: restore_seq
                .iter()
                .map(|&i| tuple(self, cone.rows[i]))
                .collect(),
            stats: EvalStats {
                rederived: restore_seq.len(),
                ..stats
            },
        };
        Ok(out)
    }

    /// Pass 1, over-delete discovery (no mutation). The cone's row list
    /// doubles as the BFS queue and is consumed in *waves*: each wave's
    /// rows are grouped by predicate and fed through the delta-outermost
    /// programs as one batched negative delta per (rule, position) — one
    /// `execute_rows` call per group instead of one per marked row, where
    /// register-file setup and program entry would dominate a one-row
    /// delta. Wave order + first-appearance grouping keeps the discovery
    /// order deterministic and hash-map independent.
    fn discover(
        &self,
        p: Pred,
        target: RowId,
        rules: &[Rule],
        plan: &DeltaPlan,
        gov: &Governor,
        stats: &mut EvalStats,
    ) -> Result<Cone, Resource> {
        let mut cone = Cone::default();
        cone.mark(p, target.0);
        let guard = gov.probe_guard(None);
        // Derived head tuples, flat: `heads[i] = (pred, start)` with the
        // tuple at `cells[start..start + arity]`.
        let mut heads: Vec<(Pred, usize)> = Vec::new();
        let mut cells: Vec<Cst> = Vec::new();
        let mut wave_start = 0usize;
        while wave_start < cone.rows.len() {
            let wave_end = cone.rows.len();
            gov.checkpoint()?;
            heads.clear();
            cells.clear();
            for (qp, group) in cone.by_pred(wave_start..wave_end) {
                let ids = cone.ids(&group);
                for &(ri, ai) in plan.positions(qp) {
                    let head_pred = rules[ri as usize].head.pred;
                    let prog = plan.program(ri, Some(ai));
                    let mut regs = register_file(prog);
                    prog.execute_rows(self, &ids, &mut regs, &guard, stats, &mut |head, regs| {
                        heads.push((head_pred, cells.len()));
                        push_head(&mut cells, head, regs);
                    })?;
                }
            }
            for &(hp, start) in &heads {
                let Some(hrel) = self.relation(hp) else {
                    continue;
                };
                let Some(hid) = hrel.find(&cells[start..start + hrel.arity()]) else {
                    continue;
                };
                // A base fact supports itself: the assertion, not the
                // derivation we just invalidated, keeps it alive.
                if !hrel.is_asserted(hid) {
                    cone.mark(hp, hid.0);
                }
            }
            wave_start = wave_end;
        }
        Ok(cone)
    }

    /// Pass 2, re-derive, bottom-up by stratum (see the module docs).
    /// Sets `restored[i]` and appends `i` to `seq` for every cone row it
    /// revives.
    #[allow(clippy::too_many_arguments)]
    fn rederive(
        &mut self,
        cone: &Cone,
        rules: &[Rule],
        plan: &DeltaPlan,
        gov: &Governor,
        restored: &mut [bool],
        seq: &mut Vec<usize>,
        stats: &mut EvalStats,
    ) -> Result<(), Resource> {
        let graph = PredGraph::new(rules);
        let mut by_scc: Vec<Vec<usize>> = vec![Vec::new(); graph.sccs.len()];
        for (i, (dp, _)) in cone.rows.iter().enumerate() {
            // Predicates no rule derives cannot be re-derived: the target
            // of a pure-EDB retraction simply stays deleted.
            if let Some(&n) = graph.node.get(dp) {
                by_scc[graph.scc_of[n]].push(i);
            }
        }
        let mut heads: FxHashMap<Pred, Vec<usize>> = FxHashMap::default();
        for (ri, rule) in rules.iter().enumerate() {
            heads.entry(rule.head.pred).or_default().push(ri);
        }
        let mut found: Vec<RowId> = Vec::new();
        let mut round: Vec<usize> = Vec::new();
        let mut derived: Vec<(Pred, usize)> = Vec::new();
        let mut cells: Vec<Cst> = Vec::new();
        for (si, entries) in by_scc.iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            gov.checkpoint()?;
            let guard = gov.probe_guard(None);
            // Round 1: the head-bound existence check of every row, one
            // batch per (predicate, rule); a row found supported by one
            // rule is not fed to the next.
            round.clear();
            for (dp, mut pending) in cone.by_pred(entries.iter().copied()) {
                for &ri in heads.get(&dp).map_or(&[][..], Vec::as_slice) {
                    if pending.is_empty() {
                        break;
                    }
                    let prog = plan.rederive_program(rules, ri);
                    let mut regs = register_file(prog);
                    found.clear();
                    let ids = cone.ids(&pending);
                    prog.supported_rows(self, &ids, &mut regs, &guard, stats, &mut |id| {
                        found.push(id)
                    })?;
                    // `found` is a subsequence of `ids`.
                    let mut next = found.iter().peekable();
                    pending.retain(|&i| {
                        let hit = next.peek().is_some_and(|id| id.0 == cone.rows[i].1);
                        if hit {
                            next.next();
                            round.push(i);
                        }
                        !hit
                    });
                }
            }
            if round.is_empty() || !graph.is_recursive(si) {
                revive(self, cone, &mut round, restored, seq);
                continue;
            }
            // Later rounds: semi-naive insertion of the last round's
            // restored rows, confined to this SCC's tombstoned rows. A
            // derived tuple that is not live was live before the
            // retraction began, so it is one of those rows.
            let index = TupleIndex::new(self, cone, entries);
            revive(self, cone, &mut round, restored, seq);
            while !round.is_empty() {
                gov.checkpoint()?;
                derived.clear();
                cells.clear();
                for (dp, group) in cone.by_pred(round.iter().copied()) {
                    let ids = cone.ids(&group);
                    for &(ri, ai) in plan.positions(dp) {
                        let head_pred = rules[ri as usize].head.pred;
                        if graph.node.get(&head_pred).map(|&n| graph.scc_of[n]) != Some(si) {
                            continue;
                        }
                        let prog = plan.program(ri, Some(ai));
                        let mut regs = register_file(prog);
                        prog.execute_rows(
                            self,
                            &ids,
                            &mut regs,
                            &guard,
                            stats,
                            &mut |head, regs| {
                                derived.push((head_pred, cells.len()));
                                push_head(&mut cells, head, regs);
                            },
                        )?;
                    }
                }
                round.clear();
                for &(hp, start) in &derived {
                    let Some(hrel) = self.relation(hp) else {
                        continue;
                    };
                    let row = &cells[start..start + hrel.arity()];
                    if let Some(i) = index.find(self, cone, hp, row) {
                        if !restored[i] {
                            round.push(i);
                        }
                    }
                }
                revive(self, cone, &mut round, restored, seq);
            }
        }
        Ok(())
    }

    /// Replaces the asserted fact `p(old)` by `p(new)` in one maintenance
    /// step: retract `old` (with full DRed repair), then insert `new` and
    /// resume the fixpoint from just that one-row delta through `eval` —
    /// the evaluator's marks are primed at the post-retraction state, so
    /// the forward pass re-derives only the new fact's cone. `eval`'s
    /// governor budgets both halves; on `Err` from the retraction half
    /// the database is untouched, on `Err` from the forward half it holds
    /// the retraction plus a completed-round prefix of the re-derivation.
    pub fn update_fact(
        &mut self,
        p: Pred,
        old: &[Cst],
        new: &[Cst],
        rules: &[Rule],
        plan: &DeltaPlan,
        eval: &mut IncrementalEval,
    ) -> Result<RetractOutcome, EvalError> {
        let mut out = self.retract_fact(p, old, rules, plan, eval.governor())?;
        eval.prime_marks(self);
        self.insert(p, new);
        let forward = eval.run(self, rules, plan)?;
        out.stats.absorb(forward);
        Ok(out)
    }
}

/// Clears the target's asserted bit and tombstones the marked cone in one
/// batch per relation; returns the touched predicates.
fn tombstone(db: &mut Database, cone: &Cone, p: Pred, target: RowId) -> Vec<Pred> {
    rel_mut(db, p).set_asserted(target, false);
    let groups = cone.by_pred(0..cone.rows.len());
    for (dp, group) in &groups {
        rel_mut(db, *dp).retract_rows(&cone.ids(group));
    }
    groups.into_iter().map(|(dp, _)| dp).collect()
}

/// Revives the cone rows at `positions` (duplicates allowed) in one batch
/// per relation, in discovery order, and records them as restored.
fn revive(
    db: &mut Database,
    cone: &Cone,
    positions: &mut Vec<usize>,
    restored: &mut [bool],
    seq: &mut Vec<usize>,
) {
    positions.sort_unstable();
    positions.dedup();
    for (dp, group) in cone.by_pred(positions.iter().copied()) {
        rel_mut(db, dp).restore_rows(&cone.ids(&group));
    }
    for &i in positions.iter() {
        restored[i] = true;
    }
    seq.extend_from_slice(positions);
}

/// Reverts a partially-applied retraction: revives every still-tombstoned
/// row of the cone in place, in one batch per relation, and restores the
/// target's asserted bit.
fn rollback(db: &mut Database, cone: &Cone, restored: &[bool], p: Pred, target: RowId) {
    for (dp, group) in cone.by_pred((0..cone.rows.len()).filter(|&i| !restored[i])) {
        rel_mut(db, dp).restore_rows(&cone.ids(&group));
    }
    rel_mut(db, p).set_asserted(target, true);
}

/// The predicate dependency graph of a rule set (edge head → body pred),
/// with its Tarjan SCC condensation. SCCs are emitted dependencies-first
/// (Tarjan pops a component only after everything reachable from it), so
/// walking `sccs` in order is exactly the bottom-up stratum order the
/// re-derive pass needs. Node numbering follows first appearance in the
/// rule text, so the whole structure is deterministic.
struct PredGraph {
    node: FxHashMap<Pred, usize>,
    adj: Vec<Vec<usize>>,
    sccs: Vec<Vec<usize>>,
    scc_of: Vec<usize>,
}

impl PredGraph {
    fn new(rules: &[Rule]) -> PredGraph {
        let mut node: FxHashMap<Pred, usize> = FxHashMap::default();
        let mut order: Vec<Pred> = Vec::new();
        let mut intern = |p: Pred, order: &mut Vec<Pred>| -> usize {
            *node.entry(p).or_insert_with(|| {
                order.push(p);
                order.len() - 1
            })
        };
        let mut adj: Vec<Vec<usize>> = Vec::new();
        for rule in rules {
            let h = intern(rule.head.pred, &mut order);
            if adj.len() <= h {
                adj.resize_with(order.len(), Vec::new);
            }
            for atom in &rule.body {
                let b = intern(atom.pred, &mut order);
                if adj.len() < order.len() {
                    adj.resize_with(order.len(), Vec::new);
                }
                if !adj[h].contains(&b) {
                    adj[h].push(b);
                }
            }
        }
        adj.resize_with(order.len(), Vec::new);
        let (sccs, scc_of) = tarjan(&adj);
        PredGraph {
            node,
            adj,
            sccs,
            scc_of,
        }
    }

    /// Whether SCC `si` contains a cycle (size > 1, or a self-loop).
    fn is_recursive(&self, si: usize) -> bool {
        let scc = &self.sccs[si];
        scc.len() > 1 || scc.iter().any(|&n| self.adj[n].contains(&n))
    }
}

/// Iterative Tarjan over `adj`; returns the SCC list (emitted in reverse
/// topological order of the condensation: successors first) and each
/// node's SCC index.
fn tarjan(adj: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    const UNSEEN: usize = usize::MAX;
    let n = adj.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut counter = 0usize;
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*ci) {
                *ci += 1;
                if index[w] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = sccs.len();
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate;
    use crate::governor::Budget;
    use crate::rule::{Atom, Term};
    use fundb_term::{Interner, Var};

    /// Retracts through the public entry point and checks the relation
    /// invariants right after.
    fn retract(
        db: &mut Database,
        p: Pred,
        t: &[Cst],
        rules: &[Rule],
        plan: &DeltaPlan,
    ) -> RetractOutcome {
        let out = db
            .retract_fact(p, t, rules, plan, &Governor::default())
            .expect("an unbudgeted retraction completes");
        db.check_invariants().expect("invariants after retraction");
        out
    }

    struct Fixture {
        i: Interner,
        edge: Pred,
        path: Pred,
        x: Var,
        y: Var,
        z: Var,
    }

    fn fixture() -> Fixture {
        let mut i = Interner::new();
        let edge = Pred(i.intern("Edge"));
        let path = Pred(i.intern("Path"));
        let x = Var(i.intern("x"));
        let y = Var(i.intern("y"));
        let z = Var(i.intern("z"));
        Fixture {
            i,
            edge,
            path,
            x,
            y,
            z,
        }
    }

    fn tc_rules(fx: &Fixture) -> Vec<Rule> {
        vec![
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                vec![Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)])],
            ),
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.z)]),
                vec![
                    Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                    Atom::new(fx.edge, vec![Term::Var(fx.y), Term::Var(fx.z)]),
                ],
            ),
        ]
    }

    fn nodes(fx: &mut Fixture, n: usize) -> Vec<Cst> {
        (0..=n)
            .map(|k| Cst(fx.i.intern(&format!("v{k}"))))
            .collect()
    }

    /// The differential oracle: retract-then-resolve must dump exactly
    /// like build-from-scratch-without-the-fact.
    fn assert_matches_rebuild(
        fx: &Fixture,
        rules: &[Rule],
        edges: &[(Cst, Cst)],
        gone: (Cst, Cst),
    ) {
        let plan = DeltaPlan::new(rules);
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert(fx.edge, &[a, b]);
        }
        evaluate(&mut db, rules).unwrap();
        let out = retract(&mut db, fx.edge, &[gone.0, gone.1], rules, &plan);
        assert!(out.found);
        assert_eq!(out.stats.retractions, out.deleted.len());
        assert_eq!(out.stats.rederived, out.restored.len());

        let mut scratch = Database::new();
        for &(a, b) in edges {
            if (a, b) != gone {
                scratch.insert(fx.edge, &[a, b]);
            }
        }
        evaluate(&mut scratch, rules).unwrap();
        assert_eq!(db.dump(&fx.i), scratch.dump(&fx.i));
    }

    #[test]
    fn retract_chain_edge_matches_rebuild() {
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let ns = nodes(&mut fx, 8);
        let edges: Vec<(Cst, Cst)> = ns.windows(2).map(|w| (w[0], w[1])).collect();
        // Severing the middle of the chain kills every path across it.
        let gone = edges[4];
        assert_matches_rebuild(&fx, &rules, &edges, gone);
    }

    #[test]
    fn alternative_derivation_survives_retraction() {
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 3);
        // a→b directly and a→c→b: Path(a,b) has two derivations.
        let (a, b, c) = (ns[0], ns[1], ns[2]);
        let edges = [(a, b), (a, c), (c, b)];
        let mut db = Database::new();
        for &(u, v) in &edges {
            db.insert(fx.edge, &[u, v]);
        }
        evaluate(&mut db, &rules).unwrap();
        let out = retract(&mut db, fx.edge, &[a, b], &rules, &plan);
        assert!(out.found);
        // Path(a,b) was over-deleted and re-derived through a→c→b.
        assert!(out.stats.rederived >= 1);
        assert!(db.relation(fx.path).unwrap().contains(&[a, b]));
        assert!(!db.relation(fx.edge).unwrap().contains(&[a, b]));
        assert_matches_rebuild(&fx, &rules, &edges, (a, b));
    }

    #[test]
    fn circular_support_dies_with_the_cycle() {
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let ns = nodes(&mut fx, 2);
        let (a, b) = (ns[0], ns[1]);
        // a→b→a: every Path pair is alive only through the cycle. DRed's
        // re-derive must not let Path(a,a)/Path(b,b) support each other
        // after Edge(a,b) goes — counting their supports would.
        let edges = [(a, b), (b, a)];
        assert_matches_rebuild(&fx, &rules, &edges, (a, b));
    }

    #[test]
    fn retracting_missing_or_derived_rows_is_refused() {
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 3);
        let mut db = Database::new();
        for w in ns.windows(2) {
            db.insert(fx.edge, &[w[0], w[1]]);
        }
        evaluate(&mut db, &rules).unwrap();
        let before = db.dump(&fx.i);
        // Absent fact.
        let out = retract(&mut db, fx.edge, &[ns[2], ns[0]], &rules, &plan);
        assert!(!out.found);
        // Derived-only row: rules maintain it, the assertion does not.
        let out = retract(&mut db, fx.path, &[ns[0], ns[2]], &rules, &plan);
        assert!(!out.found);
        assert_eq!(db.dump(&fx.i), before);
        db.check_invariants().expect("invariants after rollback");
    }

    #[test]
    fn cancelled_retraction_leaves_database_untouched() {
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 6);
        let mut db = Database::new();
        for w in ns.windows(2) {
            db.insert(fx.edge, &[w[0], w[1]]);
        }
        evaluate(&mut db, &rules).unwrap();
        let before = db.dump(&fx.i);
        let gov = Governor::default();
        gov.cancel();
        let err = db
            .retract_fact(fx.edge, &[ns[3], ns[4]], &rules, &plan, &gov)
            .unwrap_err();
        assert!(matches!(
            err,
            EvalError::BudgetExhausted {
                resource: Resource::Cancelled,
                ..
            }
        ));
        assert_eq!(db.dump(&fx.i), before);
        db.check_invariants().expect("invariants after rollback");
    }

    #[test]
    fn deadline_mid_rederive_rolls_back_whole() {
        // Force the trip *after* tombstoning by arming a 0ms deadline:
        // discovery polls `checkpoint` per queue row, so the very first
        // poll trips — before any mutation — and the database must be
        // byte-identical afterwards. (The re-derive rollback path is
        // exercised through the public contract: pre-state restored.)
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 6);
        let mut db = Database::new();
        for w in ns.windows(2) {
            db.insert(fx.edge, &[w[0], w[1]]);
        }
        evaluate(&mut db, &rules).unwrap();
        let before = db.dump(&fx.i);
        let gov = Governor::new(Budget::unlimited().with_max_millis(0));
        let err = db
            .retract_fact(fx.edge, &[ns[2], ns[3]], &rules, &plan, &gov)
            .unwrap_err();
        assert!(matches!(err, EvalError::BudgetExhausted { .. }));
        assert_eq!(db.dump(&fx.i), before);
        db.check_invariants().expect("invariants after rollback");
    }

    #[test]
    fn update_fact_matches_rebuild() {
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 6);
        let mut db = Database::new();
        for w in ns.windows(2) {
            db.insert(fx.edge, &[w[0], w[1]]);
        }
        let mut eval = IncrementalEval::new();
        eval.run(&mut db, &rules, &plan).unwrap();
        // Re-route v2→v3 to v2→v5: the chain gains a shortcut and loses
        // a link.
        let out = db
            .update_fact(
                fx.edge,
                &[ns[2], ns[3]],
                &[ns[2], ns[5]],
                &rules,
                &plan,
                &mut eval,
            )
            .unwrap();
        assert!(out.found);

        let mut scratch = Database::new();
        for w in ns.windows(2) {
            if (w[0], w[1]) != (ns[2], ns[3]) {
                scratch.insert(fx.edge, &[w[0], w[1]]);
            }
        }
        scratch.insert(fx.edge, &[ns[2], ns[5]]);
        evaluate(&mut scratch, &rules).unwrap();
        assert_eq!(db.dump(&fx.i), scratch.dump(&fx.i));
    }

    #[test]
    fn repeated_churn_stays_consistent() {
        // Retract and re-insert the same edge repeatedly: appended
        // re-inserts and delta resumption must keep agreeing with a
        // from-scratch build at every step, and the final store (arena,
        // RowIds, indexes) must be byte-identical at any thread count.
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 5);
        let mut scratch = Database::new();
        for w in ns.windows(2) {
            scratch.insert(fx.edge, &[w[0], w[1]]);
        }
        evaluate(&mut scratch, &rules).unwrap();
        let mut reference = None;
        for threads in [1usize, 2, 4, 8] {
            let mut db = Database::new();
            for w in ns.windows(2) {
                db.insert(fx.edge, &[w[0], w[1]]);
            }
            let mut eval = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1);
            eval.run(&mut db, &rules, &plan).unwrap();
            for _ in 0..3 {
                let out = retract(&mut db, fx.edge, &[ns[2], ns[3]], &rules, &plan);
                assert!(out.found);
                db.insert(fx.edge, &[ns[2], ns[3]]);
                eval.run(&mut db, &rules, &plan).unwrap();
                assert_eq!(db.dump(&fx.i), scratch.dump(&fx.i));
                db.check_invariants().unwrap();
            }
            let fingerprint = db.fingerprint();
            match &reference {
                None => reference = Some(fingerprint),
                Some(r) => assert_eq!(*r, fingerprint, "threads={threads}"),
            }
        }
    }

    #[test]
    fn retraction_is_thread_count_invariant() {
        // Retraction itself is sequential; this pins the surrounding
        // contract — same dumps and stats when the *forward* evaluation
        // ran at different thread counts before the retraction.
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 10);
        let mut reference: Option<(Vec<String>, usize, usize)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut db = Database::new();
            for w in ns.windows(2) {
                db.insert(fx.edge, &[w[0], w[1]]);
            }
            IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1)
                .run(&mut db, &rules, &plan)
                .unwrap();
            let out = retract(&mut db, fx.edge, &[ns[5], ns[6]], &rules, &plan);
            let key = (db.dump(&fx.i), out.stats.retractions, out.stats.rederived);
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(*r, key, "threads={threads}"),
            }
        }
    }

    #[test]
    fn net_deleted_excludes_restored_rows() {
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 3);
        let (a, b, c) = (ns[0], ns[1], ns[2]);
        let mut db = Database::new();
        for &(u, v) in &[(a, b), (a, c), (c, b)] {
            db.insert(fx.edge, &[u, v]);
        }
        evaluate(&mut db, &rules).unwrap();
        let out = retract(&mut db, fx.edge, &[a, b], &rules, &plan);
        let net = out.net_deleted();
        assert!(net.contains(&(fx.edge, &[a, b][..])));
        assert!(!net.contains(&(fx.path, &[a, b][..])));
    }

    #[test]
    fn wide_body_rule_retracts_like_rebuild() {
        // P(x) :- E(x), E(x), ... (64 atoms). A body mask of one bit per
        // atom overflows at 64; the compiled re-derive has no such mask.
        let mut i = Interner::new();
        let e = Pred(i.intern("E"));
        let pp = Pred(i.intern("P"));
        let x = Var(i.intern("x"));
        let (a, b) = (Cst(i.intern("a")), Cst(i.intern("b")));
        let atom = |p: Pred| Atom::new(p, vec![Term::Var(x)]);
        let rules = vec![Rule::new(atom(pp), vec![atom(e); 64])];
        let plan = DeltaPlan::new(&rules);
        let mut db = Database::new();
        db.insert(e, &[a]);
        db.insert(e, &[b]);
        evaluate(&mut db, &rules).unwrap();
        assert!(db.contains(pp, &[a]));
        let out = retract(&mut db, e, &[a], &rules, &plan);
        assert!(out.found);
        assert!(out.restored.is_empty(), "P(a) has no support left");
        let mut scratch = Database::new();
        scratch.insert(e, &[b]);
        evaluate(&mut scratch, &rules).unwrap();
        assert_eq!(db.dump(&i), scratch.dump(&i));
    }

    #[test]
    fn recursive_restore_takes_several_rounds() {
        // v0→v1→v2→v3→v4→v5 plus the skip edge v1→v3. Retracting v2→v3
        // over-deletes every Path(vi, vj) with i ≤ 2 < j. Under the
        // right-recursive rules Path(v1, vj) comes back in the first
        // round (Edge(v1, v3), Path(v3, vj) survive), but Path(v0, vj)
        // is supported only through the restored Path(v1, vj), so it
        // needs a second round; Path(v2, vj) stays dead.
        let mut fx = fixture();
        let rules = vec![
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                vec![Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)])],
            ),
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.z)]),
                vec![
                    Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                    Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.z)]),
                ],
            ),
        ];
        let ns = nodes(&mut fx, 5);
        let mut edges: Vec<(Cst, Cst)> = ns.windows(2).map(|w| (w[0], w[1])).collect();
        edges.push((ns[1], ns[3]));
        let plan = DeltaPlan::new(&rules);
        let mut db = Database::new();
        for &(u, v) in &edges {
            db.insert(fx.edge, &[u, v]);
        }
        evaluate(&mut db, &rules).unwrap();
        let out = retract(&mut db, fx.edge, &[ns[2], ns[3]], &rules, &plan);
        let at = |a: usize, b: usize| {
            out.restored
                .iter()
                .position(|(p, t)| *p == fx.path && t[..] == [ns[a], ns[b]])
        };
        for j in 3..=5 {
            let first = at(1, j).expect("Path(v1, vj) is restored");
            let second = at(0, j).expect("Path(v0, vj) is restored");
            assert!(first < second, "Path(v0, v{j}) restored before its support");
            assert_eq!(at(2, j), None, "Path(v2, v{j}) has no support left");
        }
        assert_eq!(out.stats.rederived, 6);
        assert_matches_rebuild(&fx, &rules, &edges, (ns[2], ns[3]));
    }

    #[test]
    fn rolled_back_tombstone_restores_pre_op_bytes() {
        // Tombstone a cone in one batch, optionally re-derive part of it,
        // then roll back: every index, bucket order, bitmap and statistic
        // must be as before, not just the dump.
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 8);
        let mut db = Database::new();
        for w in ns.windows(2) {
            db.insert(fx.edge, &[w[0], w[1]]);
        }
        db.insert(fx.edge, &[ns[2], ns[4]]);
        evaluate(&mut db, &rules).unwrap();
        // An earlier retraction and re-insert leave a dead slot behind.
        retract(&mut db, fx.edge, &[ns[6], ns[7]], &rules, &plan);
        db.insert(fx.edge, &[ns[6], ns[7]]);
        evaluate(&mut db, &rules).unwrap();
        plan.ensure_retract_indexes(&mut db, &rules);
        let before = db.fingerprint();
        let target = db.relation(fx.edge).unwrap().find(&[ns[3], ns[4]]).unwrap();
        for rederive_first in [false, true] {
            let gov = Governor::default();
            let mut stats = EvalStats::default();
            let cone = db
                .discover(fx.edge, target, &rules, &plan, &gov, &mut stats)
                .unwrap();
            assert!(cone.rows.len() > 1);
            tombstone(&mut db, &cone, fx.edge, target);
            db.check_invariants().expect("invariants after tombstoning");
            let mut restored = vec![false; cone.rows.len()];
            if rederive_first {
                let mut seq = Vec::new();
                db.rederive(
                    &cone,
                    &rules,
                    &plan,
                    &gov,
                    &mut restored,
                    &mut seq,
                    &mut stats,
                )
                .unwrap();
                assert!(!seq.is_empty(), "the skip edge keeps some paths");
            }
            rollback(&mut db, &cone, &restored, fx.edge, target);
            db.check_invariants().expect("invariants after rollback");
            assert_eq!(
                db.fingerprint(),
                before,
                "rederive_first = {rederive_first}"
            );
        }
    }
}
