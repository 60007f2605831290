//! Compilation of rules into register-based join programs.
//!
//! The semi-naive loop of PR 1/2 interpreted every rule body per probe: a
//! fresh `Vec<Option<Cst>>` pattern per atom visit, variable bindings in an
//! `FxHashMap<Var, Cst>`, and candidate rows confirmed field-by-field
//! against the pattern. All of that is rule structure, not data — so a
//! [`JoinProgram`] now pays it once, at [`DeltaPlan`](crate::DeltaPlan)
//! construction:
//!
//! * variables become **registers**: dense indexes into a `Vec<Cst>` file,
//!   numbered by first occurrence in the chosen atom order, so a binding is
//!   an array store and an equality check is an array load — no hashing, no
//!   unwinding (a register is always overwritten before it is re-read);
//! * each body atom becomes an [`AtomOp`] that precomputes, per column,
//!   whether the position is a constant ([`ColOp::CheckConst`]), a register
//!   bound by an earlier atom or an earlier column of the same atom
//!   ([`ColOp::CheckReg`]), or a fresh binding ([`ColOp::Load`]);
//! * the columns bound *before* the atom runs form its **signature**: a
//!   bitmask keying the on-demand composite indexes of
//!   [`Relation`](crate::Relation), so a multi-column probe is one hash
//!   lookup over the resolved key instead of a candidate scan;
//! * body atoms are **reordered at compile time**: the delta atom (if any)
//!   runs outermost — its rows are the reason the rule fires at all — and
//!   the remaining atoms are ordered either greedily by boundness (most
//!   bound positions first, ties by original body position) or, when the
//!   caller supplies a [`PlanStats`] snapshot
//!   ([`JoinProgram::compile_with_stats`]), by a cardinality cost model:
//!   repeatedly the atom with the smallest estimated candidate count
//!   `rows / Π distinct(bound col)`, clamped from above by the worst
//!   single-column bucket (skew) and from below by 1. Predicates the
//!   snapshot knows nothing about are costed pessimistically, and a rule
//!   whose body is entirely cold falls back to the greedy order. Either
//!   way the order is fixed at compile time, which keeps every run (and
//!   every thread count) byte-identical.
//!
//! Execution walks the ops depth-first exactly like the old interpreter, so
//! compiled evaluation derives the same rows; only the visit order of
//! *bindings* changes (and with it which candidate rows are ever touched).

use crate::engine::EvalStats;
use crate::governor::{ProbeGuard, Resource, PROBE_CHECK_MASK};
use crate::rel::{CompositeProbe, Database, PlanStats, Relation, RowId};
use crate::rule::{Atom, Rule, Term};
use fundb_term::{Cst, FxHashMap, FxHashSet, Pred, Sym, Var};
use std::hash::Hasher;

/// A value position resolvable at run time: a compile-time constant or a
/// register of the program's register file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A constant from the rule text.
    Const(Cst),
    /// A register holding a variable bound by an earlier op.
    Reg(u32),
}

impl Slot {
    /// The slot's value under the current register file.
    #[inline]
    fn resolve(self, regs: &[Cst]) -> Cst {
        match self {
            Slot::Const(c) => c,
            Slot::Reg(r) => regs[r as usize],
        }
    }
}

/// Per-column action of an [`AtomOp`], applied to each candidate row.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ColOp {
    /// The column must equal a constant.
    CheckConst(u32, Cst),
    /// The column must equal an already-written register.
    CheckReg(u32, u32),
    /// The column's value is stored into a fresh register.
    Load(u32, u32),
}

/// One body atom, compiled: where to probe, with what key, and how to
/// confirm-and-bind each candidate row.
#[derive(Clone, Debug)]
pub(crate) struct AtomOp {
    /// Relation to probe.
    pred: Pred,
    /// Bitmask of columns bound before this atom runs (constants and
    /// registers written by earlier atoms). `0` means a full scan.
    sig: u64,
    /// Values of the `sig` columns, in ascending column order.
    key: Vec<Slot>,
    /// Column ops in ascending column order (so a within-atom repeated
    /// variable is loaded before it is checked).
    cols: Vec<ColOp>,
    /// The atom's position in the rule text, for matching delta ranges.
    body_pos: u32,
}

/// A head (or query output) position.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum HeadSlot {
    /// A constant from the rule text.
    Const(Cst),
    /// A register written by the body.
    Reg(u32),
    /// A variable the body never binds (unsafe rule / unbound output). The
    /// emit callback decides how to fail, preserving the interpreter's
    /// lazy panic-on-first-firing behaviour.
    Unbound,
}

/// A rule body compiled to a flat op list over a dense register file.
#[derive(Clone, Debug)]
pub struct JoinProgram {
    head_pred: Pred,
    head: Vec<HeadSlot>,
    ops: Vec<AtomOp>,
    nregs: usize,
}

impl JoinProgram {
    /// Compiles `rule` with the greedy boundness ordering; `delta_atom`
    /// (a body position) forces that atom to run outermost, which is what
    /// makes chunked delta ranges partition the work exactly.
    pub fn compile(rule: &Rule, delta_atom: Option<usize>) -> JoinProgram {
        let order = greedy_order(rule, delta_atom);
        JoinProgram::compile_ordered(rule, &order)
    }

    /// Compiles `rule` with the cardinality-estimate cost ordering (see
    /// [`cost_order`]); the delta atom, if any, is still forced outermost.
    /// Composite-index demands follow from the chosen order: each atom's
    /// signature is the set of columns bound before it runs, so a different
    /// order demands different indexes — [`JoinProgram::demands`] reports
    /// whatever this plan actually probes.
    pub fn compile_with_stats(
        rule: &Rule,
        delta_atom: Option<usize>,
        stats: &PlanStats,
    ) -> JoinProgram {
        let order = cost_order(rule, delta_atom, stats);
        JoinProgram::compile_ordered(rule, &order)
    }

    /// Compiles `rule` with an explicit atom order (`order` is a
    /// permutation of body positions). Used directly by [`crate::query`],
    /// which must preserve the written order of the body.
    pub(crate) fn compile_ordered(rule: &Rule, order: &[usize]) -> JoinProgram {
        debug_assert_eq!(order.len(), rule.body.len());
        let mut regs: FxHashMap<Var, u32> = FxHashMap::default();
        let mut prebound: FxHashSet<Var> = FxHashSet::default();
        let mut nregs = 0u32;
        let mut ops = Vec::with_capacity(order.len());
        for &bi in order {
            let atom = &rule.body[bi];
            assert!(atom.args.len() <= 64, "atom arity exceeds signature width");
            let mut cols = Vec::with_capacity(atom.args.len());
            let mut sig = 0u64;
            let mut key = Vec::new();
            for (col, t) in atom.args.iter().enumerate() {
                let col = col as u32;
                match t {
                    Term::Const(c) => {
                        cols.push(ColOp::CheckConst(col, *c));
                        sig |= 1 << col;
                        key.push(Slot::Const(*c));
                    }
                    Term::Var(v) => {
                        if let Some(&r) = regs.get(v) {
                            cols.push(ColOp::CheckReg(col, r));
                            // Only variables bound by *earlier atoms* are
                            // available when the probe key is built; a
                            // within-atom repeat is confirmed per row.
                            if prebound.contains(v) {
                                sig |= 1 << col;
                                key.push(Slot::Reg(r));
                            }
                        } else {
                            regs.insert(*v, nregs);
                            cols.push(ColOp::Load(col, nregs));
                            nregs += 1;
                        }
                    }
                }
            }
            ops.push(AtomOp {
                pred: atom.pred,
                sig,
                key,
                cols,
                body_pos: bi as u32,
            });
            prebound.extend(atom.vars());
        }
        let head = rule
            .head
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => HeadSlot::Const(*c),
                Term::Var(v) => regs.get(v).map_or(HeadSlot::Unbound, |&r| HeadSlot::Reg(r)),
            })
            .collect();
        JoinProgram {
            head_pred: rule.head.pred,
            head,
            ops,
            nregs: nregs as usize,
        }
    }

    /// Compiles the head-bound program of `rule` for re-derivation: the
    /// head atom becomes op 0, so feeding it a (tombstoned) head row
    /// through [`JoinProgram::supported_rows`] binds the head's variables
    /// and the body runs as an indexed existence check under them — the
    /// demand-driven bounding the magic-set rewrite performs, specialized
    /// to a fully-bound head. The body order is chosen as for any delta
    /// program with op 0 pinned: greedy, or by the cost model when `stats`
    /// is given.
    pub(crate) fn head_bound(rule: &Rule, stats: Option<&PlanStats>) -> JoinProgram {
        let mut body = Vec::with_capacity(rule.body.len() + 1);
        body.push(rule.head.clone());
        body.extend(rule.body.iter().cloned());
        let bound = Rule::new(rule.head.clone(), body);
        match stats {
            None => JoinProgram::compile(&bound, Some(0)),
            Some(stats) => JoinProgram::compile_with_stats(&bound, Some(0), stats),
        }
    }

    /// Size of the register file an execution needs.
    pub fn register_count(&self) -> usize {
        self.nregs
    }

    /// The head predicate rows are emitted under.
    pub(crate) fn head_pred(&self) -> Pred {
        self.head_pred
    }

    /// Body atom positions in execution order (for tests and diagnostics).
    pub fn atom_order(&self) -> Vec<usize> {
        self.ops.iter().map(|op| op.body_pos as usize).collect()
    }

    /// Composite-index signatures this program will probe, appended to
    /// `out` as `(predicate, signature)` pairs (multi-column only —
    /// single columns are served by the per-column indexes).
    pub(crate) fn demands(&self, out: &mut Vec<(Pred, u64)>) {
        for op in &self.ops {
            if op.sig.count_ones() >= 2 {
                out.push((op.pred, op.sig));
            }
        }
    }

    /// Runs the program over `db`. `delta`, if present, restricts the
    /// *first* op (the delta atom of a per-delta program) to the dense row
    /// range `start..end` of its relation. `regs` must hold at least
    /// [`register_count`](Self::register_count) slots; `emit` receives the
    /// head template and the register file for each firing. Every
    /// [`crate::governor::PROBE_CHECK_INTERVAL`] probes the `guard` is
    /// polled; `Err` aborts the execution mid-join (the caller discards any
    /// partial output).
    pub(crate) fn execute<F: FnMut(&[HeadSlot], &[Cst])>(
        &self,
        db: &Database,
        delta: Option<(usize, usize)>,
        regs: &mut [Cst],
        guard: &ProbeGuard<'_>,
        stats: &mut EvalStats,
        emit: &mut F,
    ) -> Result<(), Resource> {
        debug_assert!(regs.len() >= self.nregs);
        self.exec(db, 0, delta, regs, guard, stats, emit)
    }

    /// Runs the program with the *first* op (the delta atom of a per-delta
    /// program) restricted to an explicit list of row ids instead of a
    /// dense range. Retraction maintenance feeds row sets that are not
    /// contiguous in the arena through the same delta-outermost programs
    /// the forward evaluator compiled: the rows about to be deleted
    /// (over-delete discovery, before anything is tombstoned) and the rows
    /// a re-derive round just restored.
    pub(crate) fn execute_rows<F: FnMut(&[HeadSlot], &[Cst])>(
        &self,
        db: &Database,
        rows: &[RowId],
        regs: &mut [Cst],
        guard: &ProbeGuard<'_>,
        stats: &mut EvalStats,
        emit: &mut F,
    ) -> Result<(), Resource> {
        debug_assert!(regs.len() >= self.nregs);
        debug_assert!(!self.ops.is_empty());
        let op = &self.ops[0];
        let Some(rel) = db.relation(op.pred) else {
            return Ok(());
        };
        for &id in rows {
            let row = rel.row(id);
            stats.join_probes += 1;
            if stats.join_probes & PROBE_CHECK_MASK == 0 {
                guard.check()?;
            }
            if apply_cols(&op.cols, row, regs) {
                self.exec(db, 1, None, regs, guard, stats, emit)?;
            }
        }
        Ok(())
    }

    /// The existence check of a head-bound program (see
    /// [`JoinProgram::head_bound`]): feeds each id of `rows` to op 0 — read
    /// from the arena, so tombstoned rows are fine — and calls `found(id)`
    /// when the remaining ops match at least once over the live database.
    /// Each row's search stops at its first match.
    pub(crate) fn supported_rows(
        &self,
        db: &Database,
        rows: &[RowId],
        regs: &mut [Cst],
        guard: &ProbeGuard<'_>,
        stats: &mut EvalStats,
        found: &mut impl FnMut(RowId),
    ) -> Result<(), Resource> {
        debug_assert!(regs.len() >= self.nregs);
        debug_assert!(!self.ops.is_empty());
        let op = &self.ops[0];
        let Some(rel) = db.relation(op.pred) else {
            return Ok(());
        };
        for &id in rows {
            stats.join_probes += 1;
            if stats.join_probes & PROBE_CHECK_MASK == 0 {
                guard.check()?;
            }
            if apply_cols(&op.cols, rel.row(id), regs) && self.exists(db, 1, regs, guard, stats)? {
                found(id);
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec<F: FnMut(&[HeadSlot], &[Cst])>(
        &self,
        db: &Database,
        depth: usize,
        delta: Option<(usize, usize)>,
        regs: &mut [Cst],
        guard: &ProbeGuard<'_>,
        stats: &mut EvalStats,
        emit: &mut F,
    ) -> Result<(), Resource> {
        let Some(op) = self.ops.get(depth) else {
            emit(&self.head, regs);
            return Ok(());
        };
        let Some(rel) = db.relation(op.pred) else {
            return Ok(());
        };
        // The delta atom of a per-delta program is always op 0: scan its
        // chunk of fresh rows directly.
        if depth == 0 {
            if let Some((start, end)) = delta {
                for row in rel.rows_range(start, end) {
                    stats.join_probes += 1;
                    if stats.join_probes & PROBE_CHECK_MASK == 0 {
                        guard.check()?;
                    }
                    if apply_cols(&op.cols, row, regs) {
                        self.exec(db, depth + 1, delta, regs, guard, stats, emit)?;
                    }
                }
                return Ok(());
            }
        }
        if op.sig == 0 {
            // No bound columns: scan.
            for row in rel.rows() {
                stats.join_probes += 1;
                if stats.join_probes & PROBE_CHECK_MASK == 0 {
                    guard.check()?;
                }
                if apply_cols(&op.cols, row, regs) {
                    self.exec(db, depth + 1, delta, regs, guard, stats, emit)?;
                }
            }
            return Ok(());
        }
        let candidates = self.op_candidates(rel, op, regs, stats);
        for &id in candidates {
            let row = rel.row(RowId(id));
            stats.join_probes += 1;
            if stats.join_probes & PROBE_CHECK_MASK == 0 {
                guard.check()?;
            }
            if apply_cols(&op.cols, row, regs) {
                self.exec(db, depth + 1, delta, regs, guard, stats, emit)?;
            }
        }
        Ok(())
    }

    /// Whether ops `depth..` match at least once under `regs`: `exec`
    /// without a delta range or an emit, stopping at the first match. Kept
    /// apart from `exec` because threading a stop signal through it slowed
    /// forward evaluation (`relational_fixpoint` p50 about 5% on a 2-CPU
    /// container).
    fn exists(
        &self,
        db: &Database,
        depth: usize,
        regs: &mut [Cst],
        guard: &ProbeGuard<'_>,
        stats: &mut EvalStats,
    ) -> Result<bool, Resource> {
        let Some(op) = self.ops.get(depth) else {
            return Ok(true);
        };
        let Some(rel) = db.relation(op.pred) else {
            return Ok(false);
        };
        if op.sig == 0 {
            for row in rel.rows() {
                stats.join_probes += 1;
                if stats.join_probes & PROBE_CHECK_MASK == 0 {
                    guard.check()?;
                }
                if apply_cols(&op.cols, row, regs)
                    && self.exists(db, depth + 1, regs, guard, stats)?
                {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        for &id in self.op_candidates(rel, op, regs, stats) {
            stats.join_probes += 1;
            if stats.join_probes & PROBE_CHECK_MASK == 0 {
                guard.check()?;
            }
            if apply_cols(&op.cols, rel.row(RowId(id)), regs)
                && self.exists(db, depth + 1, regs, guard, stats)?
            {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Candidate rows for a bound-column op (`op.sig != 0`), counting index
    /// hits and misses.
    fn op_candidates<'a>(
        &self,
        rel: &'a Relation,
        op: &AtomOp,
        regs: &[Cst],
        stats: &mut EvalStats,
    ) -> &'a [u32] {
        if op.sig.count_ones() == 1 {
            // One bound column: the per-column index covers the key.
            let col = op.sig.trailing_zeros() as usize;
            stats.index_hits += 1;
            rel.column_bucket(col, op.key[0].resolve(regs))
        } else {
            match rel.composite_probe(op.sig, self.key_hash(op, regs)) {
                CompositeProbe::Bucket(bucket) => {
                    // Full cover: candidates differ from answers only by
                    // hash collisions.
                    stats.index_hits += 1;
                    bucket
                }
                CompositeProbe::NotBuilt => {
                    // Index not built (immutable caller): fall back to the
                    // smallest single-column bucket among the bound columns.
                    stats.index_misses += 1;
                    self.best_partial_bucket(rel, op, regs)
                }
            }
        }
    }

    /// Hash of `op`'s probe key under the current registers; must agree
    /// with the composite index's row-side hashing.
    #[inline]
    fn key_hash(&self, op: &AtomOp, regs: &[Cst]) -> u64 {
        let mut h = fundb_term::FxHasher::default();
        for slot in &op.key {
            h.write_usize(slot.resolve(regs).index());
        }
        h.finish()
    }

    /// Smallest per-column bucket among `op`'s bound columns.
    fn best_partial_bucket<'a>(&self, rel: &'a Relation, op: &AtomOp, regs: &[Cst]) -> &'a [u32] {
        let mut best: &[u32] = &[];
        let mut best_len = usize::MAX;
        let mut bits = op.sig;
        let mut ki = 0;
        while bits != 0 {
            let col = bits.trailing_zeros() as usize;
            let bucket = rel.column_bucket(col, op.key[ki].resolve(regs));
            if bucket.len() < best_len {
                best = bucket;
                best_len = bucket.len();
            }
            bits &= bits - 1;
            ki += 1;
        }
        best
    }
}

/// Confirms a candidate row against an op's column ops, writing fresh
/// bindings into `regs`. Ops are in column order, so a `Load` always
/// precedes the `CheckReg` of a within-atom repeat. Registers need no
/// unwinding on failure: a register is only read at deeper ops (or the
/// head) after this op re-runs its `Load`s for the next candidate.
#[inline]
fn apply_cols(cols: &[ColOp], row: &[Cst], regs: &mut [Cst]) -> bool {
    for op in cols {
        match *op {
            ColOp::CheckConst(col, c) => {
                if row[col as usize] != c {
                    return false;
                }
            }
            ColOp::CheckReg(col, r) => {
                if row[col as usize] != regs[r as usize] {
                    return false;
                }
            }
            ColOp::Load(col, r) => regs[r as usize] = row[col as usize],
        }
    }
    true
}

/// The greedy atom ordering: the delta atom (if any) first, then repeatedly
/// the atom with the most bound positions (constants or variables bound by
/// already-placed atoms), ties broken by original body position. Purely
/// static, so the order — and with it row derivation order — is identical
/// across runs and thread counts.
fn greedy_order(rule: &Rule, delta_atom: Option<usize>) -> Vec<usize> {
    let n = rule.body.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: FxHashSet<Var> = FxHashSet::default();
    if let Some(ai) = delta_atom {
        order.push(ai);
        used[ai] = true;
        bound.extend(rule.body[ai].vars());
    }
    while order.len() < n {
        let mut best = usize::MAX;
        let mut best_score = 0usize;
        for (i, atom) in rule.body.iter().enumerate() {
            if used[i] {
                continue;
            }
            let score = atom
                .args
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .count();
            if best == usize::MAX || score > best_score {
                best = i;
                best_score = score;
            }
        }
        order.push(best);
        used[best] = true;
        bound.extend(rule.body[best].vars());
    }
    order
}

/// The cardinality-estimate atom ordering. Like [`greedy_order`] it pins
/// the delta atom outermost (chunked delta ranges must partition the work
/// exactly), but the remaining atoms are chosen by estimated candidate
/// count instead of bound-position count:
///
/// * a known atom costs `rows / Π distinct(bound col)` — the uniform
///   selectivity estimate — clamped from above by the smallest
///   `max_bucket(bound col)` (a single-column probe can never return more
///   rows than its worst bucket, however skewed) and from below by 1;
/// * an atom whose predicate the snapshot does not know (usually an IDB
///   predicate, empty now but growing during the run) is costed by when
///   the program will execute: the full program runs in the first round,
///   where such a predicate is still genuinely empty, so it costs a
///   near-empty scan and stays hoisted first (the greedy order's free
///   empty scan, kept deliberately — hoisting a known relation above it
///   trades a free scan for a real one, the E14 cyclic regression); delta
///   programs run in later rounds, so there it is costed pessimistically
///   at the snapshot's total row count, discounted by half per bound
///   column. Magic and adorned predicates minted by [`crate::magic`] land
///   here by construction: their overlay relations are empty (or
///   seed-only) at plan time and [`Database::plan_stats`] omits empty
///   relations, so demand guards are hoisted first — the sideways
///   information-passing order the rewrite intends;
/// * ties keep the earliest body position, so the order — and with it row
///   derivation order — is deterministic.
///
/// When the snapshot is cold, or no body predicate has statistics, the
/// estimates would be pure guesswork: fall back to [`greedy_order`]
/// entirely so warm and cold compiles of stat-less rules agree exactly.
///
/// **Hysteresis**: even with statistics, the cost order only *replaces* the
/// greedy order when its estimated total probe count (the multiplicative
/// cascade of per-step candidate estimates — each atom's estimate scales
/// the visit count of everything ordered after it) beats greedy's by more
/// than [`HYSTERESIS_MARGIN`]. On cold-ish or equal estimates the
/// pessimistic defaults used for unknown predicates would otherwise flip
/// plans on guesswork — measurably worse on cyclic workloads, where
/// hoisting a known EDB relation above a not-yet-populated IDB predicate
/// trades a free empty scan for a real one every first round.
fn cost_order(rule: &Rule, delta_atom: Option<usize>, stats: &PlanStats) -> Vec<usize> {
    let greedy = greedy_order(rule, delta_atom);
    let any_known = rule.body.iter().any(|a| stats.get(a.pred).is_some());
    if !any_known {
        return greedy;
    }
    let n = rule.body.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: FxHashSet<Var> = FxHashSet::default();
    if let Some(ai) = delta_atom {
        order.push(ai);
        used[ai] = true;
        bound.extend(rule.body[ai].vars());
    }
    // Unknown predicates: the full (first-round) program runs against the
    // snapshot's own database, where a predicate the snapshot omits is
    // genuinely empty — cost it as a near-empty scan, which keeps it
    // hoisted first exactly like the greedy order's free empty scan. Delta
    // programs run in later rounds, when an omitted predicate is an IDB
    // relation that has been growing the whole time: assume it at least as
    // large as everything we can see (floored so a near-empty snapshot
    // still treats it as non-trivial).
    let default_rows = if delta_atom.is_none() {
        1.0
    } else {
        stats.total_rows().max(64) as f64
    };
    while order.len() < n {
        let mut best = usize::MAX;
        let mut best_cost = f64::INFINITY;
        for (i, atom) in rule.body.iter().enumerate() {
            if used[i] {
                continue;
            }
            let cost = atom_cost(atom, &bound, stats, default_rows);
            if cost < best_cost {
                best = i;
                best_cost = cost;
            }
        }
        order.push(best);
        used[best] = true;
        bound.extend(rule.body[best].vars());
    }
    if order == greedy {
        return greedy;
    }
    let planned_est = order_probe_estimate(rule, &order, stats, default_rows);
    let greedy_est = order_probe_estimate(rule, &greedy, stats, default_rows);
    if planned_est * HYSTERESIS_MARGIN < greedy_est {
        order
    } else {
        greedy
    }
}

/// How much better (estimated total probes) the cost order must be before
/// it replaces the greedy order. See [`cost_order`].
const HYSTERESIS_MARGIN: f64 = 1.1;

/// Estimated total probes of executing `rule`'s body in `order`: the
/// per-step candidate estimates ([`atom_cost`]) cascaded multiplicatively —
/// an atom visited `running` times with `e` estimated candidates costs
/// `running * e` probes and multiplies the visit count of everything after
/// it by `e`. This is the hysteresis metric of [`cost_order`].
fn order_probe_estimate(rule: &Rule, order: &[usize], stats: &PlanStats, default_rows: f64) -> f64 {
    let mut bound: FxHashSet<Var> = FxHashSet::default();
    let mut running = 1.0f64;
    let mut total = 0.0f64;
    for &bi in order {
        let atom = &rule.body[bi];
        let e = atom_cost(atom, &bound, stats, default_rows);
        total += running * e;
        running = (running * e).min(1e18);
        bound.extend(atom.vars());
    }
    total
}

/// Estimated candidate rows one visit of `atom` enumerates, given the
/// variables bound by already-placed atoms. See [`cost_order`].
fn atom_cost(atom: &Atom, bound: &FxHashSet<Var>, stats: &PlanStats, default_rows: f64) -> f64 {
    let rs = stats.get(atom.pred);
    let rows = rs.map_or(default_rows, |r| r.rows as f64);
    let mut est = rows;
    let mut cap = rows;
    for (col, t) in atom.args.iter().enumerate() {
        let is_bound = match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        };
        if !is_bound {
            continue;
        }
        match rs {
            Some(r) => {
                est /= r.distinct.get(col).copied().unwrap_or(1).max(1) as f64;
                cap = cap.min(r.max_bucket.get(col).copied().unwrap_or(0).max(1) as f64);
            }
            // No per-column statistics: assume a bound column halves the
            // candidates, so more-bound unknown atoms still order earlier.
            None => est /= 2.0,
        }
    }
    est.max(1.0).min(cap.max(1.0))
}

/// A rule compiled for every role it can play in a semi-naive round: once
/// with no delta restriction (first/naive rounds) and once per body atom
/// as the delta atom.
#[derive(Clone, Debug)]
pub(crate) struct CompiledRule {
    pub(crate) full: JoinProgram,
    pub(crate) per_delta: Vec<JoinProgram>,
}

impl CompiledRule {
    pub(crate) fn new(rule: &Rule) -> CompiledRule {
        CompiledRule {
            full: JoinProgram::compile(rule, None),
            per_delta: (0..rule.body.len())
                .map(|ai| JoinProgram::compile(rule, Some(ai)))
                .collect(),
        }
    }

    /// Like [`CompiledRule::new`] but with the cost-model ordering over a
    /// statistics snapshot.
    pub(crate) fn with_stats(rule: &Rule, stats: &PlanStats) -> CompiledRule {
        CompiledRule {
            full: JoinProgram::compile_with_stats(rule, None, stats),
            per_delta: (0..rule.body.len())
                .map(|ai| JoinProgram::compile_with_stats(rule, Some(ai), stats))
                .collect(),
        }
    }

    /// All composite-index signatures any of this rule's programs probe.
    pub(crate) fn demands(&self, out: &mut Vec<(Pred, u64)>) {
        self.full.demands(out);
        for p in &self.per_delta {
            p.demands(out);
        }
    }
}

/// A register file pre-sized for `prog`, filled with the placeholder
/// sentinel (every register is written before it is read).
pub(crate) fn register_file(prog: &JoinProgram) -> Vec<Cst> {
    vec![Cst(Sym::PLACEHOLDER); prog.register_count()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Atom;
    use fundb_term::Interner;

    fn tc_right(i: &mut Interner) -> Rule {
        let edge = Pred(i.intern("Edge"));
        let path = Pred(i.intern("Path"));
        let (x, y, z) = (Var(i.intern("x")), Var(i.intern("y")), Var(i.intern("z")));
        Rule::new(
            Atom::new(path, vec![Term::Var(x), Term::Var(z)]),
            vec![
                Atom::new(edge, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(path, vec![Term::Var(y), Term::Var(z)]),
            ],
        )
    }

    #[test]
    fn delta_atom_runs_first() {
        let mut i = Interner::new();
        let rule = tc_right(&mut i);
        // Delta on the trailing Path atom: it must be hoisted outermost,
        // and the Edge atom then probes with its second column bound.
        let prog = JoinProgram::compile(&rule, Some(1));
        assert_eq!(prog.atom_order(), vec![1, 0]);
        assert_eq!(prog.ops[1].sig, 0b10);
        // Without a delta the written order is kept (no atom starts bound).
        let full = JoinProgram::compile(&rule, None);
        assert_eq!(full.atom_order(), vec![0, 1]);
    }

    #[test]
    fn constants_and_bound_vars_form_the_signature() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let r = Pred(i.intern("R"));
        let (x, y) = (Var(i.intern("x")), Var(i.intern("y")));
        let a = Cst(i.intern("a"));
        // R(x,y) :- P(x), Q(a, x, y).
        let rule = Rule::new(
            Atom::new(r, vec![Term::Var(x), Term::Var(y)]),
            vec![
                Atom::new(p, vec![Term::Var(x)]),
                Atom::new(q, vec![Term::Const(a), Term::Var(x), Term::Var(y)]),
            ],
        );
        let prog = JoinProgram::compile(&rule, None);
        // Q starts with one bound position (the constant), P with none, so
        // the greedy order hoists Q; P then probes with x bound.
        assert_eq!(prog.atom_order(), vec![1, 0]);
        assert_eq!(prog.ops[0].sig, 0b001);
        assert_eq!(prog.ops[0].key, vec![Slot::Const(a)]);
        assert_eq!(prog.ops[1].sig, 0b1);
        assert_eq!(prog.ops[1].key, vec![Slot::Reg(0)]);
        assert_eq!(prog.register_count(), 2);
        assert_eq!(prog.head, vec![HeadSlot::Reg(0), HeadSlot::Reg(1)]);
    }

    #[test]
    fn within_atom_repeats_check_but_do_not_probe() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let x = Var(i.intern("x"));
        // Q(x) :- P(x, x): the second x confirms per row; no column is
        // bound before the atom runs, so the probe is a scan.
        let rule = Rule::new(
            Atom::new(q, vec![Term::Var(x)]),
            vec![Atom::new(p, vec![Term::Var(x), Term::Var(x)])],
        );
        let prog = JoinProgram::compile(&rule, None);
        assert_eq!(prog.ops[0].sig, 0);
        assert_eq!(
            prog.ops[0].cols,
            vec![ColOp::Load(0, 0), ColOp::CheckReg(1, 0)]
        );
    }

    #[test]
    fn greedy_order_prefers_constants() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let r = Pred(i.intern("R"));
        let (x, y) = (Var(i.intern("x")), Var(i.intern("y")));
        let a = Cst(i.intern("a"));
        // R(y) :- P(x, y), Q(a, x): Q has one constant position bound at
        // the start, P has none — Q runs first.
        let rule = Rule::new(
            Atom::new(r, vec![Term::Var(y)]),
            vec![
                Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(q, vec![Term::Const(a), Term::Var(x)]),
            ],
        );
        assert_eq!(JoinProgram::compile(&rule, None).atom_order(), vec![1, 0]);
    }

    /// A database with `n` distinct rows `(A_i, B_{i % spread})` under
    /// `pred`, for building statistics snapshots in planner tests.
    fn seeded_rel(db: &mut Database, i: &mut Interner, pred: Pred, n: usize, spread: usize) {
        let name = i.resolve(pred.sym()).to_owned();
        for k in 0..n {
            let a = Cst(i.intern(&format!("{name}a{k}")));
            let b = Cst(i.intern(&format!("{name}b{}", k % spread.max(1))));
            db.insert(pred, &[a, b]);
        }
    }

    #[test]
    fn cold_stats_fall_back_to_greedy() {
        let mut i = Interner::new();
        let rule = tc_right(&mut i);
        let cold = PlanStats::empty();
        for delta in [None, Some(0), Some(1)] {
            let greedy = JoinProgram::compile(&rule, delta);
            let planned = JoinProgram::compile_with_stats(&rule, delta, &cold);
            assert_eq!(planned.atom_order(), greedy.atom_order());
        }
    }

    #[test]
    fn stats_hoist_the_small_relation() {
        let mut i = Interner::new();
        let big = Pred(i.intern("Big"));
        let small = Pred(i.intern("Small"));
        let out = Pred(i.intern("Out"));
        let (x, y, z) = (Var(i.intern("x")), Var(i.intern("y")), Var(i.intern("z")));
        // Out(x,z) :- Big(x,y), Small(y,z) — written adversarially: the
        // big relation first. No atom starts bound, so greedy keeps the
        // written order; the cost model flips it.
        let rule = Rule::new(
            Atom::new(out, vec![Term::Var(x), Term::Var(z)]),
            vec![
                Atom::new(big, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(small, vec![Term::Var(y), Term::Var(z)]),
            ],
        );
        assert_eq!(JoinProgram::compile(&rule, None).atom_order(), vec![0, 1]);
        let mut db = Database::new();
        seeded_rel(&mut db, &mut i, big, 60, 10);
        seeded_rel(&mut db, &mut i, small, 3, 3);
        let planned = JoinProgram::compile_with_stats(&rule, None, &db.plan_stats());
        assert_eq!(planned.atom_order(), vec![1, 0]);
        // Big now runs with column 1 bound, so its signature demands the
        // per-column index, not a scan.
        assert_eq!(planned.ops[1].sig, 0b10);
    }

    #[test]
    fn magic_predicates_cost_the_pessimistic_default() {
        use fundb_term::Sym;
        let mut i = Interner::new();
        let edge = Pred(i.intern("Edge"));
        let filler = Pred(i.intern("Filler"));
        let (x, y) = (Var(i.intern("x")), Var(i.intern("y")));
        // Synthetic predicates exactly as the magic rewrite mints them:
        // indices past every interned symbol.
        let adorned = Pred(Sym::synthetic(i.len() as u32));
        let magic = Pred(Sym::synthetic(i.len() as u32 + 1));
        // path_bf(x,y) :- m_path_bf(x), Edge(x,y).
        let rule = Rule::new(
            Atom::new(adorned, vec![Term::Var(x), Term::Var(y)]),
            vec![
                Atom::new(magic, vec![Term::Var(x)]),
                Atom::new(edge, vec![Term::Var(x), Term::Var(y)]),
            ],
        );
        let mut db = Database::new();
        seeded_rel(&mut db, &mut i, edge, 40, 8);
        seeded_rel(&mut db, &mut i, filler, 100, 10);
        // The magic relation exists but is empty at plan time; the
        // snapshot must omit it so it costs the pessimistic default
        // (total rows, 140 here), not a genuinely-zero scan.
        db.relation_mut(magic, 1);
        let stats = db.plan_stats();
        assert!(stats.get(magic).is_none());
        let planned = JoinProgram::compile_with_stats(&rule, None, &stats);
        // The full program runs in the first round, where the snapshot
        // proves the guard is empty: it costs a near-empty scan and stays
        // hoisted above known Edge (40 rows). That is also the sideways
        // information-passing order the magic rewrite intends: demand
        // guards filter first.
        assert_eq!(planned.atom_order(), vec![0, 1]);
        assert_eq!(planned.ops[1].sig, 0b1);
        // The delta program for the growing magic relation hoists the
        // delta atom outermost, as every delta program does.
        let delta = JoinProgram::compile_with_stats(&rule, Some(0), &stats);
        assert_eq!(delta.atom_order(), vec![0, 1]);
    }

    #[test]
    fn hysteresis_keeps_greedy_on_equal_estimates() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let r = Pred(i.intern("R"));
        let (x, y, z) = (Var(i.intern("x")), Var(i.intern("y")), Var(i.intern("z")));
        // R(x,z) :- P(x,y), Q(y,z) with P and Q statistically identical:
        // the cascade estimates of both orders tie exactly, so the planner
        // must not flip the written (greedy) order on a coin-toss.
        let rule = Rule::new(
            Atom::new(r, vec![Term::Var(x), Term::Var(z)]),
            vec![
                Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(q, vec![Term::Var(y), Term::Var(z)]),
            ],
        );
        let mut db = Database::new();
        seeded_rel(&mut db, &mut i, p, 20, 5);
        seeded_rel(&mut db, &mut i, q, 20, 5);
        let planned = JoinProgram::compile_with_stats(&rule, None, &db.plan_stats());
        assert_eq!(
            planned.atom_order(),
            JoinProgram::compile(&rule, None).atom_order()
        );
    }

    #[test]
    fn all_constant_atoms_run_first_and_probe_fully_bound() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let r = Pred(i.intern("R"));
        let (x, y) = (Var(i.intern("x")), Var(i.intern("y")));
        let (a, b) = (Cst(i.intern("a")), Cst(i.intern("b")));
        // R(x,y) :- P(x, y), Q(a, b): the fully-constant atom estimates at
        // most one candidate, so the planner hoists it even from last place.
        let rule = Rule::new(
            Atom::new(r, vec![Term::Var(x), Term::Var(y)]),
            vec![
                Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(q, vec![Term::Const(a), Term::Const(b)]),
            ],
        );
        let mut db = Database::new();
        seeded_rel(&mut db, &mut i, p, 40, 8);
        db.insert(q, &[a, b]);
        let planned = JoinProgram::compile_with_stats(&rule, None, &db.plan_stats());
        assert_eq!(planned.atom_order(), vec![1, 0]);
        assert_eq!(planned.ops[0].sig, 0b11);
        assert_eq!(planned.ops[0].key, vec![Slot::Const(a), Slot::Const(b)]);
    }

    #[test]
    fn single_atom_rules_plan_trivially() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let x = Var(i.intern("x"));
        let rule = Rule::new(
            Atom::new(q, vec![Term::Var(x)]),
            vec![Atom::new(p, vec![Term::Var(x)])],
        );
        let mut db = Database::new();
        db.insert(p, &[Cst(i.intern("a"))]);
        let stats = db.plan_stats();
        for delta in [None, Some(0)] {
            assert_eq!(
                JoinProgram::compile_with_stats(&rule, delta, &stats).atom_order(),
                vec![0]
            );
        }
    }

    #[test]
    fn delta_atom_stays_outermost_even_when_expensive() {
        let mut i = Interner::new();
        let rule = tc_right(&mut i);
        let mut db = Database::new();
        // Edge tiny, Path huge: cost alone would hoist Edge, but the delta
        // atom must stay first for chunked ranges to partition the work.
        let edge = rule.body[0].pred;
        let path = rule.body[1].pred;
        seeded_rel(&mut db, &mut i, edge, 2, 2);
        seeded_rel(&mut db, &mut i, path, 80, 10);
        let planned = JoinProgram::compile_with_stats(&rule, Some(1), &db.plan_stats());
        assert_eq!(planned.atom_order(), vec![1, 0]);
    }

    #[test]
    fn unbound_head_vars_become_unbound_slots() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let (x, y) = (Var(i.intern("x")), Var(i.intern("y")));
        let rule = Rule::new(
            Atom::new(q, vec![Term::Var(y)]),
            vec![Atom::new(p, vec![Term::Var(x)])],
        );
        let prog = JoinProgram::compile(&rule, None);
        assert_eq!(prog.head, vec![HeadSlot::Unbound]);
    }
}
