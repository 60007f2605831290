//! Incremental retraction: delete/update as a first-class operation.
//!
//! [`Database::retract_fact`] removes one asserted (base) fact and repairs
//! every derived consequence in work proportional to the affected
//! derivation cone, not the database. The algorithm is the classic
//! delete-and-rederive (DRed) split, specialized per stratum:
//!
//! 1. **Over-delete.** Starting from the target row, a worklist pass finds
//!    every derived row with at least one derivation through an
//!    already-marked row. The pass reuses the forward evaluator's
//!    *delta-outermost* compiled programs verbatim — each BFS wave of
//!    marked rows is grouped by predicate and fed through
//!    [`JoinProgram::execute_rows`] as one batched negative delta at each
//!    body position that can consume it — over the *pre-deletion*
//!    database, so the marked set is the standard DRed over-approximation.
//!    Rows whose asserted bit is set are never marked: a base fact
//!    supports itself. Nothing is mutated until discovery completes; then
//!    every marked row is tombstoned in discovery order (RowIds survive,
//!    see [`Relation`] tombstoning).
//! 2. **Re-derive.** Marked rows are revisited bottom-up by stratum
//!    (Tarjan SCCs of the predicate dependency graph, emitted
//!    dependencies-first) and restored — same arena slot, same RowId — if
//!    an alternative derivation survives in the now-live database. The
//!    check is a *head-bound* body match: the deleted tuple binds the
//!    rule head, and the bindings flow through the body via indexed
//!    selects — the same demand-driven bounding the magic-set rewrite
//!    performs, specialized to a fully-bound head, so the pass touches
//!    only the cone. Non-recursive strata get the counting treatment
//!    (exact surviving-support counts, one pass suffices because lower
//!    strata are already settled); recursive SCCs use an existence check
//!    inside a fixpoint loop, because support counts are unsound under
//!    recursion (two tombstoned rows can count each other as support).
//!
//! Determinism: both passes run sequentially on the calling thread and
//! consult only deterministic state, so the deleted/restored sequences —
//! and with them RowIds, stats, and dumps — are byte-identical at any
//! thread count. A retract-then-resolve database dumps identically to one
//! built from scratch without the fact (the differential oracle in
//! `tests/fuzz_scenarios.rs`).
//!
//! Governance: both passes poll [`Governor::checkpoint`] (cancellation +
//! deadline) at probe granularity. A trip rolls the retraction back —
//! every still-tombstoned row is revived in place and the target's
//! asserted bit is restored — so an aborted retraction leaves the
//! database exactly as it was: the completed-round prefix contract,
//! where the "round" is the whole retraction.

use crate::engine::{DeltaPlan, EvalStats, IncrementalEval};
use crate::governor::{EvalError, Governor, Resource};
use crate::program::HeadSlot;
use crate::rel::{Database, RowId};
use crate::rule::{Atom, Rule, Term};
use fundb_term::{Cst, FxHashMap, FxHashSet, Pred, Var};

/// Poll stride for [`Governor::checkpoint`] inside the retraction passes.
const RETRACT_CHECK_MASK: usize = 0x3FF;

/// What one [`Database::retract_fact`] call did.
#[derive(Clone, Debug, Default)]
pub struct RetractOutcome {
    /// Whether the target was present as an asserted fact. `false` means
    /// the database was not touched (retracting a derived-only row is
    /// refused: rules, not assertions, maintain it).
    pub found: bool,
    /// Every tombstoned row — the target first, then the over-deleted
    /// cone in discovery order. Rows later restored by the re-derive pass
    /// still appear here; the WAL replays both lists to reproduce RowIds.
    pub deleted: Vec<(Pred, Box<[Cst]>)>,
    /// Rows the re-derive pass restored (an alternative derivation
    /// survived), in restoration order.
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

/// One tombstoned row, tracked with its (stable) id for restore/rollback.
struct DeletedRow {
    pred: Pred,
    id: RowId,
    tuple: Box<[Cst]>,
    restored: bool,
}

impl Database {
    /// Retracts the asserted fact `p(t)` and incrementally repairs every
    /// derived consequence (see the module docs). The database must be at
    /// the fixpoint of `rules`, and `plan` must be the [`DeltaPlan`] it
    /// was evaluated under; on return it is at the fixpoint of `rules`
    /// over the remaining asserted facts.
    pub fn retract_fact(
        &mut self,
        p: Pred,
        t: &[Cst],
        rules: &[Rule],
        plan: &DeltaPlan,
    ) -> RetractOutcome {
        self.retract_fact_governed(p, t, rules, plan, &Governor::default())
            .expect("ungoverned retraction cannot trip a budget")
    }

    /// [`Database::retract_fact`] under a [`Governor`]: cancellation and
    /// the wall-clock deadline are polled throughout both passes. On
    /// `Err` the retraction has been rolled back whole — every tombstone
    /// revived in place, the target's asserted bit restored — so the
    /// database is byte-identical to the pre-call state.
    pub fn retract_fact_governed(
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

        // Composite indexes the over-delete programs will probe. The
        // discovery pass then reads the database immutably, so the
        // indexes stay current for its whole duration.
        plan.ensure_indexes(self);

        // --- Pass 1: over-delete discovery (no mutation). --------------
        // `queue` doubles as the marked set's insertion order; `marked`
        // is the membership test. The queue is consumed in BFS *waves*:
        // each wave's rows are grouped by predicate and fed through the
        // delta-outermost programs as one batched negative delta per
        // (rule, position) — one `execute_rows` call per group instead of
        // one per marked row, which is where the per-row version spent
        // its time (register-file setup and program entry dominate a
        // one-row delta). Wave order + first-appearance grouping keeps
        // the discovery order deterministic and hash-map independent.
        let mut queue: Vec<(Pred, u32)> = vec![(p, target.0)];
        let mut marked: FxHashMap<Pred, FxHashSet<u32>> = FxHashMap::default();
        marked.entry(p).or_default().insert(target.0);
        let mut probes = 0usize;
        let mut candidates: Vec<(Pred, Box<[Cst]>)> = Vec::new();
        let mut by_pred: Vec<(Pred, Vec<u32>)> = Vec::new();
        let mut wave_start = 0usize;
        while wave_start < queue.len() {
            let wave_end = queue.len();
            if let Err(resource) = gov.checkpoint() {
                return Err(EvalError::BudgetExhausted {
                    resource,
                    partial: EvalStats::default(),
                });
            }
            for slot in by_pred.iter_mut() {
                slot.1.clear();
            }
            let mut live_groups = 0usize;
            for &(qp, qid) in &queue[wave_start..wave_end] {
                match by_pred[..live_groups].iter_mut().find(|(gp, _)| *gp == qp) {
                    Some((_, ids)) => ids.push(qid),
                    None => {
                        if live_groups < by_pred.len() {
                            by_pred[live_groups].0 = qp;
                            by_pred[live_groups].1.push(qid);
                        } else {
                            by_pred.push((qp, vec![qid]));
                        }
                        live_groups += 1;
                    }
                }
            }
            candidates.clear();
            for (qp, ids) in by_pred[..live_groups].iter() {
                for &(ri, ai) in plan.positions(*qp) {
                    let head_pred = rules[ri as usize].head.pred;
                    let prog = plan.program(ri, Some(ai));
                    let mut regs = crate::program::register_file(prog);
                    let guard = gov.probe_guard(None);
                    let run = prog.execute_rows(
                        self,
                        ids,
                        &mut regs,
                        &guard,
                        &mut stats,
                        &mut |head: &[HeadSlot], regs: &[Cst]| {
                            let row: Box<[Cst]> = head
                                .iter()
                                .map(|s| match s {
                                    HeadSlot::Const(c) => *c,
                                    HeadSlot::Reg(r) => regs[*r as usize],
                                    HeadSlot::Unbound => {
                                        panic!("unsafe rule: head variable unbound")
                                    }
                                })
                                .collect();
                            candidates.push((head_pred, row));
                        },
                    );
                    if let Err(resource) = run {
                        return Err(EvalError::BudgetExhausted {
                            resource,
                            partial: EvalStats::default(),
                        });
                    }
                }
            }
            for (hp, ht) in candidates.drain(..) {
                let Some(hrel) = self.relation(hp) else {
                    continue;
                };
                let Some(hid) = hrel.find(&ht) else {
                    continue;
                };
                // A base fact supports itself: the assertion, not the
                // derivation we just invalidated, keeps it alive.
                if hrel.is_asserted(hid) {
                    continue;
                }
                if marked.entry(hp).or_default().insert(hid.0) {
                    queue.push((hp, hid.0));
                }
            }
            wave_start = wave_end;
        }

        // --- Tombstone the marked cone, in discovery order. -------------
        // From here on any early return must roll back; discovery alone
        // left the database untouched.
        let mut deleted: Vec<DeletedRow> = Vec::with_capacity(queue.len());
        {
            let rel = self.relation_mut(p, t.len());
            rel.set_asserted(target, false);
        }
        for &(dp, did) in &queue {
            let arity = self.relation(dp).map_or(0, |r| r.arity());
            let rel = self.relation_mut(dp, arity);
            let id = RowId(did);
            let tuple: Box<[Cst]> = rel.row(id).into();
            rel.retract_row(id);
            deleted.push(DeletedRow {
                pred: dp,
                id,
                tuple,
                restored: false,
            });
        }
        stats.retractions = deleted.len();
        let touched: Vec<Pred> = {
            let mut ps: Vec<Pred> = deleted.iter().map(|d| d.pred).collect();
            ps.dedup();
            ps
        };

        // --- Pass 2: re-derive, bottom-up by stratum. -------------------
        let graph = PredGraph::new(rules);
        let mut by_scc: Vec<Vec<usize>> = vec![Vec::new(); graph.sccs.len()];
        for (di, d) in deleted.iter().enumerate() {
            if let Some(&n) = graph.node.get(&d.pred) {
                by_scc[graph.scc_of[n]].push(di);
            }
            // Predicates no rule derives cannot be re-derived: the
            // target of a pure-EDB retraction simply stays deleted.
        }
        let mut heads: FxHashMap<Pred, Vec<usize>> = FxHashMap::default();
        for (ri, rule) in rules.iter().enumerate() {
            heads.entry(rule.head.pred).or_default().push(ri);
        }
        let empty_rules: Vec<usize> = Vec::new();
        let mut restore_seq: Vec<usize> = Vec::new();
        for (si, entries) in by_scc.iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            // Counting is only sound without recursion: in a cycle, two
            // tombstoned rows may each count the other's (dead)
            // derivation as support. Recursive SCCs therefore use an
            // existence check and loop to fixpoint — each restore can
            // re-enable a sibling.
            let recursive = graph.is_recursive(si);
            loop {
                let mut changed = false;
                for &di in entries {
                    if deleted[di].restored {
                        continue;
                    }
                    let d = &deleted[di];
                    let rs = heads.get(&d.pred).unwrap_or(&empty_rules);
                    let support = match support_count(
                        self,
                        rules,
                        rs,
                        &d.tuple,
                        !recursive,
                        gov,
                        &mut probes,
                        &mut stats,
                    ) {
                        Ok(n) => n,
                        Err(resource) => {
                            rollback(self, &deleted, p, t, target);
                            return Err(EvalError::BudgetExhausted {
                                resource,
                                partial: EvalStats::default(),
                            });
                        }
                    };
                    if support > 0 {
                        let arity = d.tuple.len();
                        let (dp, id) = (d.pred, d.id);
                        self.relation_mut(dp, arity).restore_row(id);
                        deleted[di].restored = true;
                        restore_seq.push(di);
                        changed = true;
                    }
                }
                if !recursive || !changed {
                    break;
                }
            }
        }

        // Skew statistics: deletion turned the insert-maintained
        // `max_bucket` high-water marks into upper bounds; re-derive them
        // exactly once tombstones pass the 25% threshold.
        for dp in touched {
            let arity = self.relation(dp).map_or(0, |r| r.arity());
            self.relation_mut(dp, arity).maybe_resketch();
        }

        let mut out = RetractOutcome {
            found: true,
            deleted: Vec::with_capacity(deleted.len()),
            restored: Vec::with_capacity(restore_seq.len()),
            stats,
        };
        // `restored` is in actual restoration order — the sequence the
        // WAL replays to revive the same slots.
        for di in restore_seq {
            out.restored
                .push((deleted[di].pred, deleted[di].tuple.clone()));
        }
        for d in deleted {
            out.deleted.push((d.pred, d.tuple));
        }
        out.stats.rederived = out.restored.len();
        Ok(out)
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
        let gov = eval.governor().clone();
        let mut out = self.retract_fact_governed(p, old, rules, plan, &gov)?;
        eval.prime_marks(self);
        self.insert(p, new);
        let forward = eval.run(self, rules, plan)?;
        out.stats.absorb(forward);
        Ok(out)
    }
}

/// Reverts a partially-applied retraction: revives every still-tombstoned
/// row of the cone in place and restores the target's asserted bit.
fn rollback(db: &mut Database, deleted: &[DeletedRow], p: Pred, t: &[Cst], target: RowId) {
    for d in deleted {
        if !d.restored {
            let arity = d.tuple.len();
            db.relation_mut(d.pred, arity).restore_row(d.id);
        }
    }
    db.relation_mut(p, t.len()).set_asserted(target, true);
}

/// How many derivations of `tuple` survive in the live database, via the
/// head-bound body match described in the module docs. `count_all = false`
/// stops at the first (existence check, for recursive SCCs).
#[allow(clippy::too_many_arguments)]
fn support_count(
    db: &Database,
    rules: &[Rule],
    head_rules: &[usize],
    tuple: &[Cst],
    count_all: bool,
    gov: &Governor,
    probes: &mut usize,
    stats: &mut EvalStats,
) -> Result<usize, Resource> {
    let mut total = 0usize;
    let mut subst: FxHashMap<Var, Cst> = FxHashMap::default();
    'rules: for &ri in head_rules {
        let rule = &rules[ri];
        if rule.head.args.len() != tuple.len() {
            continue;
        }
        subst.clear();
        for (arg, &c) in rule.head.args.iter().zip(tuple) {
            match arg {
                Term::Const(k) => {
                    if *k != c {
                        continue 'rules;
                    }
                }
                Term::Var(v) => match subst.get(v) {
                    Some(&b) if b != c => continue 'rules,
                    Some(_) => {}
                    None => {
                        subst.insert(*v, c);
                    }
                },
            }
        }
        debug_assert!(
            rule.body.len() < 64,
            "body atom count exceeds the match mask"
        );
        let all = (1u64 << rule.body.len()) - 1;
        total += match_body(
            db, &rule.body, all, &mut subst, count_all, gov, probes, stats,
        )?;
        if !count_all && total > 0 {
            return Ok(total);
        }
    }
    Ok(total)
}

/// Counts satisfying assignments of the atoms of `body` whose bit is set
/// in `remaining`, under `subst`, over the live database. Atoms are
/// matched cheapest-first: at every step the pass picks the remaining
/// atom with the smallest expected candidate set under the current
/// bindings — a fully-bound atom (O(1) dedup-hash membership) beats any
/// partially-bound one, and among those the shortest per-column index
/// bucket wins (ties broken by body position, so the order is
/// deterministic). Static body order would walk an O(chain)-long bucket
/// for the recursive atom of a linear rule before the selective EDB atom
/// bound it down to one row. Early-exits after the first assignment when
/// `count_all` is false.
#[allow(clippy::too_many_arguments)]
fn match_body(
    db: &Database,
    body: &[Atom],
    remaining: u64,
    subst: &mut FxHashMap<Var, Cst>,
    count_all: bool,
    gov: &Governor,
    probes: &mut usize,
    stats: &mut EvalStats,
) -> Result<usize, Resource> {
    if remaining == 0 {
        return Ok(1);
    }
    // Pick the cheapest remaining atom under the current bindings.
    let mut best_ai = usize::MAX;
    let mut best_cost = usize::MAX;
    let mut best_pattern: Vec<Option<Cst>> = Vec::new();
    let mut pattern: Vec<Option<Cst>> = Vec::new();
    let mut bits = remaining;
    while bits != 0 {
        let ai = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let atom = &body[ai];
        let Some(rel) = db.relation(atom.pred) else {
            // An atom over an absent relation can never match, so the
            // whole remainder has no assignment.
            return Ok(0);
        };
        if rel.arity() != atom.args.len() {
            return Ok(0);
        }
        pattern.clear();
        pattern.extend(atom.args.iter().map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(v) => subst.get(v).copied(),
        }));
        let cost = if pattern.iter().all(Option::is_some) {
            0
        } else {
            let mut bucket = usize::MAX;
            for (col, slot) in pattern.iter().enumerate() {
                if let Some(c) = *slot {
                    bucket = bucket.min(rel.column_bucket(col, c).len());
                }
            }
            if bucket == usize::MAX {
                rel.live().max(1)
            } else {
                bucket.max(1)
            }
        };
        if cost < best_cost {
            best_cost = cost;
            best_ai = ai;
            std::mem::swap(&mut best_pattern, &mut pattern);
            if best_cost == 0 {
                break;
            }
        }
    }
    let atom = &body[best_ai];
    let rel = db.relation(atom.pred).expect("checked above");
    let rest = remaining & !(1u64 << best_ai);
    // Fully-bound atom: a dedup-hash membership check, not an
    // index-bucket walk.
    if best_cost == 0 {
        let key: Vec<Cst> = best_pattern.iter().map(|c| c.unwrap()).collect();
        *probes += 1;
        stats.join_probes += 1;
        if *probes & RETRACT_CHECK_MASK == 0 {
            gov.checkpoint()?;
        }
        if rel.contains(&key) {
            return match_body(db, body, rest, subst, count_all, gov, probes, stats);
        }
        return Ok(0);
    }
    let mut total = 0usize;
    let mut bound_here: Vec<Var> = Vec::new();
    for row in rel.select(&best_pattern) {
        *probes += 1;
        stats.join_probes += 1;
        if *probes & RETRACT_CHECK_MASK == 0 {
            gov.checkpoint()?;
        }
        bound_here.clear();
        let mut ok = true;
        for (arg, &c) in atom.args.iter().zip(row) {
            match arg {
                Term::Const(k) => {
                    if *k != c {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match subst.get(v) {
                    Some(&b) => {
                        if b != c {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        subst.insert(*v, c);
                        bound_here.push(*v);
                    }
                },
            }
        }
        if ok {
            total += match_body(db, body, rest, subst, count_all, gov, probes, stats)?;
        }
        for v in bound_here.drain(..) {
            subst.remove(&v);
        }
        if !count_all && total > 0 {
            return Ok(total);
        }
    }
    Ok(total)
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
    use fundb_term::Interner;

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
        let out = db.retract_fact(fx.edge, &[gone.0, gone.1], rules, &plan);
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
        let out = db.retract_fact(fx.edge, &[a, b], &rules, &plan);
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
        // after Edge(a,b) goes — the counting shortcut would.
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
        let out = db.retract_fact(fx.edge, &[ns[2], ns[0]], &rules, &plan);
        assert!(!out.found);
        // Derived-only row: rules maintain it, the assertion does not.
        let out = db.retract_fact(fx.path, &[ns[0], ns[2]], &rules, &plan);
        assert!(!out.found);
        assert_eq!(db.dump(&fx.i), before);
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
            .retract_fact_governed(fx.edge, &[ns[3], ns[4]], &rules, &plan, &gov)
            .unwrap_err();
        assert!(matches!(
            err,
            EvalError::BudgetExhausted {
                resource: Resource::Cancelled,
                ..
            }
        ));
        assert_eq!(db.dump(&fx.i), before);
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
            .retract_fact_governed(fx.edge, &[ns[2], ns[3]], &rules, &plan, &gov)
            .unwrap_err();
        assert!(matches!(err, EvalError::BudgetExhausted { .. }));
        assert_eq!(db.dump(&fx.i), before);
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
        // Retract and re-insert the same edge repeatedly: slot reuse,
        // epoch bumps, and delta resumption must keep agreeing with a
        // from-scratch build at every step.
        let mut fx = fixture();
        let rules = tc_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let ns = nodes(&mut fx, 5);
        let mut db = Database::new();
        for w in ns.windows(2) {
            db.insert(fx.edge, &[w[0], w[1]]);
        }
        let mut eval = IncrementalEval::new();
        eval.run(&mut db, &rules, &plan).unwrap();
        for _ in 0..3 {
            let out = db.retract_fact(fx.edge, &[ns[2], ns[3]], &rules, &plan);
            assert!(out.found);
            db.insert(fx.edge, &[ns[2], ns[3]]);
            eval.run(&mut db, &rules, &plan).unwrap();
            let mut scratch = Database::new();
            for w in ns.windows(2) {
                scratch.insert(fx.edge, &[w[0], w[1]]);
            }
            evaluate(&mut scratch, &rules).unwrap();
            assert_eq!(db.dump(&fx.i), scratch.dump(&fx.i));
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
            let out = db.retract_fact(fx.edge, &[ns[5], ns[6]], &rules, &plan);
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
        let out = db.retract_fact(fx.edge, &[a, b], &rules, &plan);
        let net = out.net_deleted();
        assert!(net.contains(&(fx.edge, &[a, b][..])));
        assert!(!net.contains(&(fx.path, &[a, b][..])));
    }
}
