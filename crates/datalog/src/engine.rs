//! Naive and semi-naive bottom-up evaluation, optionally parallel.
//!
//! [`evaluate`] runs semi-naive iteration: in every round each rule is
//! evaluated once per body atom, with that atom restricted to the tuples
//! derived in the previous round (the delta) — a derivation is only
//! attempted if it could not have been made before. [`IncrementalEval`]
//! extends this across calls: it keeps the per-predicate low-water marks
//! between runs, so a caller can insert new facts into an already-saturated
//! database and resume the fixpoint from just those facts, driven by a
//! [`DeltaPlan`] that maps each predicate to the rule positions that can
//! consume it.
//!
//! Each round's work is a list of independent *tasks* (a rule, plus for
//! delta rounds the delta atom and a contiguous chunk of its fresh rows).
//! When the round is large enough, tasks are executed by scoped worker
//! threads, each filling a private derived-tuple buffer; buffers are merged
//! back in task order, so row insertion order — and with it every pinned
//! statistic and spec output — is byte-identical to a sequential run
//! regardless of thread count. [`evaluate_naive`] re-derives everything
//! each round and exists as a differential-testing oracle and as the
//! textbook baseline. Both run on one round driver — select, gate,
//! execute, commit, ending at the first round whose selection yields no
//! task — and [`IncrementalEval`] is the one options value (governor,
//! threads, parallel threshold) every evaluation takes.
//!
//! Every evaluation is governed (see [`crate::governor`]): entry points
//! return `Result<…, EvalError>`, budgets and cancellation are checked at
//! round boundaries and every few thousand join probes, task panics are
//! caught on the worker and surfaced as [`EvalError::WorkerPanicked`], and
//! any early stop leaves the database in a deterministic prefix of the
//! fixpoint — complete rounds, plus (for the row budget only) a
//! deterministic prefix of the tripping round's merge — from which the
//! next run of the same evaluator resumes to the same fixpoint.

use crate::governor::{EvalError, FaultPlan, Governor, ProbeGuard, Resource};
use crate::program::{register_file, CompiledRule, HeadSlot, JoinProgram};
use crate::rel::{hash_row, Database, PlanStats};
use crate::rule::{Atom, Rule, Term};
use fundb_term::{Cst, FxHashMap, Pred, Var};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Counters reported by evaluation. Deliberately identical across thread
/// counts: a parallel run partitions the same probes over workers and sums
/// them back, so stats equality is part of the determinism contract.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint rounds that ran tasks. A run ends at the first
    /// selection with no task, which is not a round: a run with nothing
    /// past its marks reports 0.
    pub rounds: usize,
    /// Number of new facts derived (excluding the initial database).
    pub derived: usize,
    /// Number of candidate rows enumerated by body-atom probes (delta
    /// chunks, index buckets, and scans alike).
    pub join_probes: usize,
    /// Number of bound-column selections *fully answered* by an index: the
    /// per-column index when one column is bound, a composite index when
    /// several are. Candidates from these probes differ from answers only
    /// by hash collisions.
    pub index_hits: usize,
    /// Number of bound-column selections where no full-cover index was
    /// available and the probe fell back to the most selective
    /// single-column bucket (immutable callers that cannot build composite
    /// indexes on demand).
    pub index_misses: usize,
    /// Number of magic rules (guard rules plus ground seeds) synthesized by
    /// the goal-directed rewrite, when this run came from [`query_demand`];
    /// zero for plain fixpoint evaluation.
    pub magic_rules: usize,
    /// Total rows across the overlay's magic relations after a
    /// [`query_demand`] evaluation: the size of the demand set the goal
    /// actually touched. Set once after the fixpoint (never inside
    /// workers), so thread-count stats equality is unaffected.
    pub demanded_tuples: usize,
    /// Always 0: every run executes the plans it is given, never
    /// re-planning. Kept because the benchmark's `relational_fixpoint`
    /// workload reads it; the WAL does not journal it and recovers 0.
    pub replans: usize,
    /// Always 0: composite indexes have no pre-probe filter. Kept for the
    /// same reason as `replans`, and likewise not journaled.
    pub bloom_skips: usize,
    /// Always 0: every task evaluates its own body. Kept for the same
    /// reason as `replans`, and likewise not journaled.
    pub shared_prefix_hits: usize,
    /// Number of rows tombstoned by retraction maintenance (the target
    /// fact plus every over-deleted consequence), across
    /// [`Database::retract_fact`](crate::retract) calls reporting into
    /// this counter. Retraction runs sequentially on the coordinator, so
    /// the count is identical at every thread count.
    pub retractions: usize,
    /// Number of over-deleted rows restored by the re-derivation pass
    /// because an alternative derivation survived the retraction.
    pub rederived: usize,
}

impl EvalStats {
    /// Accumulates another run's counters into `self`.
    pub fn absorb(&mut self, other: EvalStats) {
        self.rounds += other.rounds;
        self.derived += other.derived;
        self.join_probes += other.join_probes;
        self.index_hits += other.index_hits;
        self.index_misses += other.index_misses;
        self.magic_rules += other.magic_rules;
        self.demanded_tuples += other.demanded_tuples;
        self.replans += other.replans;
        self.bloom_skips += other.bloom_skips;
        self.shared_prefix_hits += other.shared_prefix_hits;
        self.retractions += other.retractions;
        self.rederived += other.rederived;
    }
}

/// Observer of the deterministic commit sequence of a fixpoint run,
/// attached via [`IncrementalEval::run_with_sink`]. The durable storage
/// layer implements this to tee every committed round into a write-ahead
/// log.
///
/// Both callbacks run on the coordinating thread in the round's commit
/// step, after the sequential, task-ordered merge, so the observed
/// sequence is byte-identical at any thread count — the same determinism
/// contract the row store itself keeps. Erroring out of
/// [`round_committed`](RoundSink::round_committed) aborts the run with
/// [`EvalError::WalFailed`]; the in-memory database still holds every
/// completed round.
pub trait RoundSink {
    /// This round's freshly inserted rows for `pred`: `count` rows of
    /// `arity` cells each, as one contiguous arena slice in insertion
    /// order (`cells` is empty when `arity` is 0). The engine feeds each
    /// round's touched relations in predicate order once the round's
    /// merge completes. Per-relation row order — the order that assigns
    /// [`RowId`](crate::RowId)s — is identical at every thread count.
    /// Infallible by design: implementations buffer IO errors and surface
    /// them from the next [`round_committed`](RoundSink::round_committed).
    fn rows_committed(&mut self, pred: Pred, arity: usize, count: usize, cells: &[Cst]);

    /// A fixpoint round completed and its rows are all in the database
    /// (also called for a round whose tasks derived nothing; never for the
    /// selection with no task that ends a run, so an idle run makes no
    /// callback). `stats` is the run's cumulative counter snapshot at this
    /// boundary — exactly what [`IncrementalEval::run`] would report if
    /// the run stopped here. `Err` aborts the run with
    /// [`EvalError::WalFailed`] carrying the message.
    fn round_committed(&mut self, stats: &EvalStats) -> Result<(), String>;
}

/// A predicate-argument index over a rule set — for each predicate, the
/// `(rule, body position)` pairs that can consume a new fact of that
/// predicate — plus the rules' compiled join programs. Semi-naive rounds
/// only re-run the positions whose predicate has fresh rows, and each
/// position runs its pre-compiled register program instead of
/// re-interpreting the rule text.
#[derive(Clone, Debug, Default)]
pub struct DeltaPlan {
    by_pred: FxHashMap<Pred, Vec<(u32, u32)>>,
    /// `programs[rule]` = that rule compiled once per role (full + one
    /// per delta atom).
    programs: Vec<CompiledRule>,
    /// Composite-index signatures the programs probe, deduplicated; the
    /// evaluator ensures these exist before every round.
    demands: Vec<(Pred, u64)>,
    /// The statistics snapshot a [`DeltaPlan::planned`] plan was ordered
    /// by (`None` for the greedy order); the head-bound programs are
    /// ordered by the same snapshot.
    stats: Option<PlanStats>,
    /// Retraction's head-bound programs, compiled on first use: forward
    /// evaluation never runs them, so plans that never retract never pay.
    rederive: OnceLock<Rederive>,
}

/// The head-bound programs of a rule set ([`JoinProgram::head_bound`]),
/// one per rule, and the composite-index signatures only they probe.
/// Those demands are kept apart from [`DeltaPlan`]'s so forward evaluation
/// never builds (or maintains) an index only retraction reads.
#[derive(Clone, Debug)]
struct Rederive {
    programs: Vec<JoinProgram>,
    demands: Vec<(Pred, u64)>,
}

impl DeltaPlan {
    /// Builds the plan for a rule set, compiling every rule.
    pub fn new(rules: &[Rule]) -> DeltaPlan {
        DeltaPlan::build(rules, None)
    }

    /// Builds the plan with the cardinality cost model: per-rule atom
    /// orders (and with them composite-index demands) are chosen from a
    /// statistics snapshot of `db` taken now, at plan time. The snapshot is
    /// immutable, so the plan — and row derivation order under it — is
    /// fixed for the whole run regardless of how the database grows, which
    /// preserves byte-determinism across thread counts. Rules whose body
    /// predicates are all absent from the snapshot (cold) compile with the
    /// same greedy order as [`DeltaPlan::new`].
    pub fn planned(rules: &[Rule], db: &Database) -> DeltaPlan {
        DeltaPlan::build(rules, Some(db.plan_stats()))
    }

    fn build(rules: &[Rule], stats: Option<PlanStats>) -> DeltaPlan {
        let mut by_pred: FxHashMap<Pred, Vec<(u32, u32)>> = FxHashMap::default();
        for (ri, rule) in rules.iter().enumerate() {
            for (ai, atom) in rule.body.iter().enumerate() {
                by_pred
                    .entry(atom.pred)
                    .or_default()
                    .push((ri as u32, ai as u32));
            }
        }
        let programs: Vec<CompiledRule> = rules
            .iter()
            .map(|r| match &stats {
                None => CompiledRule::new(r),
                Some(stats) => CompiledRule::with_stats(r, stats),
            })
            .collect();
        let mut demands = Vec::new();
        for cr in &programs {
            cr.demands(&mut demands);
        }
        demands.sort_unstable();
        demands.dedup();
        DeltaPlan {
            by_pred,
            programs,
            demands,
            stats,
            rederive: OnceLock::new(),
        }
    }

    /// The `(rule, body position)` pairs that consume facts of `p`.
    pub fn positions(&self, p: Pred) -> &[(u32, u32)] {
        self.by_pred.get(&p).map_or(&[], Vec::as_slice)
    }

    /// The compiled program a task runs: the rule's full program, or its
    /// per-delta program when the task restricts a body atom to a delta
    /// range.
    pub(crate) fn program(&self, rule: u32, delta_atom: Option<u32>) -> &JoinProgram {
        let cr = &self.programs[rule as usize];
        match delta_atom {
            None => &cr.full,
            Some(ai) => &cr.per_delta[ai as usize],
        }
    }

    /// Builds every composite index the compiled programs will probe (for
    /// relations that exist in `db`; re-invoked each round as derived
    /// relations appear).
    pub(crate) fn ensure_indexes(&self, db: &mut Database) {
        for &(p, sig) in &self.demands {
            db.ensure_composite(p, sig);
        }
    }

    /// The head-bound programs of `rules` (see [`JoinProgram::head_bound`]),
    /// compiled on the first call; `rules` must be the rule set the plan
    /// was built from.
    fn rederive(&self, rules: &[Rule]) -> &Rederive {
        self.rederive.get_or_init(|| {
            let programs: Vec<JoinProgram> = rules
                .iter()
                .map(|r| JoinProgram::head_bound(r, self.stats.as_ref()))
                .collect();
            let mut demands = Vec::new();
            for prog in &programs {
                prog.demands(&mut demands);
            }
            demands.sort_unstable();
            demands.dedup();
            Rederive { programs, demands }
        })
    }

    /// The head-bound program of rule `rule` of `rules`.
    pub(crate) fn rederive_program(&self, rules: &[Rule], rule: usize) -> &JoinProgram {
        &self.rederive(rules).programs[rule]
    }

    /// [`DeltaPlan::ensure_indexes`] plus the indexes only the head-bound
    /// programs of `rules` probe: what a retraction needs.
    pub(crate) fn ensure_retract_indexes(&self, db: &mut Database, rules: &[Rule]) {
        self.ensure_indexes(db);
        for &(p, sig) in &self.rederive(rules).demands {
            db.ensure_composite(p, sig);
        }
    }
}

/// Delta rows a round must see before parallel execution pays for the
/// thread scaffolding; smaller rounds run sequentially on the caller's
/// thread.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 4096;

/// Threads the evaluator uses when none are configured explicitly: the
/// `FUNDB_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        match std::env::var("FUNDB_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// The one options value of every fixpoint evaluation — governor, worker
/// threads and parallel threshold — and a resumable semi-naive fixpoint:
/// it owns the low-water marks of one database, so
/// [`IncrementalEval::run`] can be called repeatedly as the caller injects
/// new facts, re-deriving only their consequences.
#[derive(Clone, Debug)]
pub struct IncrementalEval {
    /// Per relation, the low-water mark (rows below it are processed) and
    /// the compaction counter it was taken under: a compaction renumbers
    /// row ids, so a moved counter resets the mark to 0 and the next round
    /// re-scans the whole relation.
    marks: FxHashMap<Pred, (usize, u64)>,
    /// Whether a round has committed: until then every round is a full
    /// round (every rule, empty-body rules included, over everything).
    started: bool,
    /// Worker threads per round; `None` defers to [`default_threads`].
    threads: Option<usize>,
    /// Rounds with fewer delta rows than this run sequentially.
    min_parallel_rows: usize,
    /// Budgets, cancellation and fault injection for every run.
    governor: Governor,
}

impl Default for IncrementalEval {
    fn default() -> Self {
        IncrementalEval {
            marks: FxHashMap::default(),
            started: false,
            threads: None,
            min_parallel_rows: DEFAULT_MIN_PARALLEL_ROWS,
            governor: Governor::default(),
        }
    }
}

impl IncrementalEval {
    /// A fresh evaluation (first `run` performs the full initial round).
    pub fn new() -> IncrementalEval {
        IncrementalEval::default()
    }

    /// A fresh evaluation with this one's governor, threads and parallel
    /// threshold, but none of its marks.
    fn fresh(&self) -> IncrementalEval {
        IncrementalEval {
            threads: self.threads,
            min_parallel_rows: self.min_parallel_rows,
            governor: self.governor.clone(),
            ..IncrementalEval::default()
        }
    }

    /// Pins the worker-thread count (1 = always sequential). Builder form.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(Some(threads));
        self
    }

    /// Sets the worker-thread count; `None` restores the
    /// [`default_threads`] resolution (`FUNDB_THREADS` / machine cores).
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads.map(|n| n.max(1));
    }

    /// Lowers/raises the sequential-fallback threshold. Builder form;
    /// mostly for tests that want to force the parallel path on tiny data.
    pub fn with_parallel_threshold(mut self, min_rows: usize) -> Self {
        self.min_parallel_rows = min_rows;
        self
    }

    /// The thread count this evaluator will use.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// Pins the governor that budgets every subsequent run. Builder form.
    pub fn with_governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Replaces the governor (budget counters carry over *within* a
    /// governor, so handing several evaluators clones of one governor
    /// bounds their combined work).
    pub fn set_governor(&mut self, governor: Governor) {
        self.governor = governor;
    }

    /// The governor in effect (e.g. to clone its cancellation token).
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Marks every current row of `db` as already processed: the next
    /// [`IncrementalEval::run`] treats only rows inserted after this call
    /// as the delta. [`Database::update_fact`]
    /// (crate::rel::Database::update_fact) uses this to re-derive from
    /// just the replacement fact once retraction has restored the
    /// fixpoint, instead of re-running the initial full round.
    pub fn prime_marks(&mut self, db: &Database) {
        self.started = true;
        for (p, rel) in db.iter() {
            self.marks.insert(p, (rel.len(), rel.compactions()));
        }
    }

    /// Runs the fixpoint to saturation and returns this run's counters.
    ///
    /// Each round is select, gate, execute, commit: selection picks the
    /// tasks — every rule over the whole database until a round has
    /// committed (which also fires empty-body rules), then only the plan
    /// positions that can see rows past their marks — and the run ends at
    /// the first selection with no task, so a run with nothing past its
    /// marks returns at once with `rounds == 0`; the gate asks the governor
    /// to start the round (round, fault, cancellation, deadline and byte
    /// budgets); execution runs the tasks, in parallel when the round is
    /// large; the commit merges the derived rows in task order, moves the
    /// marks and reports the round to the sink. The caller must pass the
    /// same `rules`/`plan` pair on every call.
    ///
    /// On `Err`, the database holds a deterministic prefix of the fixpoint:
    /// every completed round, plus — for [`Resource::Rows`] only — the
    /// first `max_rows` rows of the tripping round's (sequential,
    /// task-ordered) merge. `partial` describes exactly those committed
    /// rows, so error results are byte-identical at any thread count.
    ///
    /// Resume contract: the marks of relations some rule reads move only
    /// when a round's merge completes, so after any `Err` the next call
    /// (e.g. under a fresh governor) re-runs the tripped round — a full
    /// round if no round had committed yet — and reaches the same fixpoint
    /// as an uninterrupted run.
    pub fn run(
        &mut self,
        db: &mut Database,
        rules: &[Rule],
        plan: &DeltaPlan,
    ) -> Result<EvalStats, EvalError> {
        self.drive(db, rules, plan, false, None::<&mut dyn RoundSink>)
    }

    /// [`IncrementalEval::run`] with a [`RoundSink`] observing the commit
    /// sequence: every round's inserted rows (in deterministic merge
    /// order) and every completed-round boundary. The durable storage
    /// layer uses this to write its WAL at exactly the governor's
    /// checkpoint boundaries, so recovery always replays onto a
    /// completed-round prefix.
    ///
    /// Error returns never report a round the sink was not told about: a
    /// budget trip, fault, or panic surfaces *before* the tripping round's
    /// marker, and a sink failure surfaces as [`EvalError::WalFailed`]. The
    /// one asymmetry is [`Resource::Rows`](crate::Resource::Rows), whose
    /// deterministic partial merge stays in the in-memory database but is
    /// never handed to the sink (rows reach the sink only when their round
    /// completes) — a recovered store drops exactly that partial tail.
    /// The sink parameter is generic (not `&mut dyn`) so a concrete sink's
    /// callback inlines into the commit step; `dyn RoundSink` still works
    /// (`S: ?Sized`).
    pub fn run_with_sink<S: RoundSink + ?Sized>(
        &mut self,
        db: &mut Database,
        rules: &[Rule],
        plan: &DeltaPlan,
        sink: &mut S,
    ) -> Result<EvalStats, EvalError> {
        self.drive(db, rules, plan, false, Some(sink))
    }

    /// The naive oracle under this evaluator's governor: every round runs
    /// every rule over the whole database, sequentially, through the same
    /// gate and commit step as [`IncrementalEval::run`], until a round
    /// leaves every relation a rule reads where it was. Same fixpoint,
    /// same budget semantics; the textbook baseline.
    pub fn run_naive(
        &mut self,
        db: &mut Database,
        rules: &[Rule],
        plan: &DeltaPlan,
    ) -> Result<EvalStats, EvalError> {
        self.drive(db, rules, plan, true, None::<&mut dyn RoundSink>)
    }

    /// The round driver behind every run: select, then — while the
    /// selection yields a task — gate, execute and commit.
    fn drive<S: RoundSink + ?Sized>(
        &mut self,
        db: &mut Database,
        rules: &[Rule],
        plan: &DeltaPlan,
        naive: bool,
        mut sink: Option<&mut S>,
    ) -> Result<EvalStats, EvalError> {
        let threads = if naive { 1 } else { self.effective_threads() };
        let gov = self.governor.clone();
        let mut stats = EvalStats::default();
        loop {
            let (tasks, rows, ends) = self.select(db, rules, plan, naive, threads);
            if tasks.is_empty() {
                return Ok(stats);
            }
            // `db` holds exactly the committed rounds and `stats`
            // describes them: what any early stop reports as `partial`.
            let committed = stats;
            gate(&gov, db, committed)?;
            stats.rounds += 1;
            // Composite indexes demanded by the compiled programs must
            // exist before workers share the database immutably; inserts
            // keep them current within and after the round.
            plan.ensure_indexes(db);
            let parallel = threads > 1 && tasks.len() > 1 && rows >= self.min_parallel_rows.max(1);
            let buffer = execute(db, plan, &tasks, threads, parallel, &gov, &mut stats)
                // A mid-round failure discards the round's buffer whole,
                // leaving the database at the last completed round — the
                // only truncation point that is identical no matter which
                // worker tripped first.
                .map_err(|abort| abort.into_eval_error(committed))?;
            self.commit(db, &ends, &buffer, &mut stats, sink.as_deref_mut())?;
        }
    }

    /// Selects a round: its tasks, the rows they scan (for the parallel
    /// decision) and the `(relation, length)` marks its commit moves. One
    /// walk over the relations resets marks a compaction invalidated,
    /// moves the mark of a grown relation no rule reads and collects the
    /// grown ones some rule reads. A full round runs every rule's full
    /// program (until a round has committed, and in a naive run while a
    /// read relation grows); a delta round runs each plan position whose
    /// predicate has rows past its mark over exactly those rows, split
    /// into chunks when they are many.
    fn select(
        &mut self,
        db: &Database,
        rules: &[Rule],
        plan: &DeltaPlan,
        naive: bool,
        threads: usize,
    ) -> (Vec<Task>, usize, Vec<(Pred, usize)>) {
        let mut ends: Vec<(Pred, usize)> = Vec::new();
        for (p, rel) in db.iter() {
            // Every insert appends, so rows at or past a mark are exactly
            // the delta; only a compaction renumbers ids below a mark.
            let compactions = rel.compactions();
            let (mark, taken) = self.marks.entry(p).or_insert((0, compactions));
            if *taken != compactions {
                *mark = 0;
                *taken = compactions;
            }
            if rel.len() > *mark {
                if plan.positions(p).is_empty() {
                    *mark = rel.len();
                } else {
                    ends.push((p, rel.len()));
                }
            }
        }
        let mut tasks: Vec<Task> = Vec::new();
        let mut rows = 0usize;
        if !self.started || (naive && !ends.is_empty()) {
            for (ri, rule) in rules.iter().enumerate() {
                tasks.push(Task {
                    rule: ri as u32,
                    delta: None,
                });
                rows += rule
                    .body
                    .first()
                    .and_then(|a| db.relation(a.pred))
                    .map_or(0, |r| r.len());
            }
            return (tasks, rows, ends);
        }
        // A naive run past this point has no grown relation: no task.
        let mut work: Vec<(u32, u32)> = Vec::new();
        for &(p, _) in &ends {
            work.extend_from_slice(plan.positions(p));
        }
        work.sort_unstable();
        work.dedup();
        for (ri, ai) in work {
            let pred = rules[ri as usize].body[ai as usize].pred;
            let start = self.marks[&pred].0;
            let end = db.relation(pred).map_or(start, |r| r.len());
            rows += end - start;
            // The per-delta program runs the delta atom outermost, so
            // splitting the range partitions the work exactly for any body
            // position.
            let chunks = if end - start >= 2 * MIN_CHUNK_ROWS {
                (threads * TASKS_PER_THREAD).min((end - start).div_ceil(MIN_CHUNK_ROWS))
            } else {
                1
            };
            let size = (end - start).div_ceil(chunks);
            let mut lo = start;
            while lo < end {
                let hi = (lo + size).min(end);
                tasks.push(Task {
                    rule: ri,
                    delta: Some(DeltaRange {
                        atom: ai,
                        start: lo,
                        end: hi,
                    }),
                });
                lo = hi;
            }
        }
        (tasks, rows, ends)
    }

    /// The round's commit: merges `buffer` in task order, counting each
    /// new row against the row budget, then moves the marks to the
    /// selection's `ends` and reports the round to the sink.
    ///
    /// A row-budget trip stops the merge after exactly `max_rows` rows —
    /// a deterministic prefix of the unbudgeted insertion sequence at any
    /// thread count — and returns before the marks move, so a resumed run
    /// re-runs this round instead of losing its unmerged tail. A sink
    /// failure aborts the run *after* the in-memory commit: the database
    /// keeps the round, the log ends at the previous marker.
    fn commit<S: RoundSink + ?Sized>(
        &mut self,
        db: &mut Database,
        ends: &[(Pred, usize)],
        buffer: &DerivedBuffer,
        stats: &mut EvalStats,
        sink: Option<&mut S>,
    ) -> Result<(), EvalError> {
        // Rows merged per relation, for the sink.
        let mut merged: Option<Vec<(Pred, usize)>> = sink.is_some().then(Vec::new);
        for (p, t) in buffer.iter() {
            if db.insert_derived(p, t) {
                stats.derived += 1;
                if let Some(merged) = merged.as_mut() {
                    match merged.iter_mut().rev().find(|(q, _)| *q == p) {
                        Some((_, n)) => *n += 1,
                        None => merged.push((p, 1)),
                    }
                }
                if !self.governor.note_row() {
                    return Err(EvalError::BudgetExhausted {
                        resource: Resource::Rows,
                        partial: *stats,
                    });
                }
            }
        }
        self.started = true;
        for &(p, end) in ends {
            self.marks.get_mut(&p).expect("selection took the mark").0 = end;
        }
        if let (Some(s), Some(mut merged)) = (sink, merged) {
            // The round's rows, relation by relation in predicate order,
            // as contiguous arena slices: each relation's last `n` rows.
            merged.sort_unstable();
            for (p, n) in merged {
                let rel = db.relation(p).expect("merged relation exists");
                s.rows_committed(p, rel.arity(), n, rel.cells_from(rel.len() - n));
            }
            s.round_committed(stats)
                .map_err(|detail| EvalError::WalFailed { detail })?;
        }
        Ok(())
    }
}

/// The round gate: asks the governor to start a round (fault,
/// cancellation, deadline and round budget, in that order) and checks the
/// byte budget against `db`. A refused round is taken back off the
/// governor's round counter, and the error reports `committed`.
fn gate(gov: &Governor, db: &Database, committed: EvalStats) -> Result<(), EvalError> {
    let over_bytes = gov
        .max_bytes()
        .is_some_and(|limit| db.approx_bytes() > limit);
    let refused = gov.begin_round().err();
    let Some(resource) = refused.or(over_bytes.then_some(Resource::Bytes)) else {
        return Ok(());
    };
    gov.abort_round();
    Err(EvalError::BudgetExhausted {
        resource,
        partial: committed,
    })
}

/// Executes a round's tasks into a fresh buffer — on `threads` scoped
/// workers when `parallel`, else in order on the calling thread — under
/// deterministic global task indexes (reserved per round, independent of
/// which worker runs a task, so `panic_task` faults are reproducible).
fn execute(
    db: &Database,
    plan: &DeltaPlan,
    tasks: &[Task],
    threads: usize,
    parallel: bool,
    gov: &Governor,
    stats: &mut EvalStats,
) -> Result<DerivedBuffer, RoundAbort> {
    let base = gov.reserve_tasks(tasks.len());
    let fault = *gov.fault();
    let mut buffer = DerivedBuffer::default();
    if parallel {
        run_tasks_parallel(
            db,
            plan,
            tasks,
            threads,
            base,
            gov,
            &fault,
            &mut buffer,
            stats,
        )?;
    } else {
        let guard = gov.probe_guard(None);
        let mut regs = Vec::new();
        for (i, &task) in tasks.iter().enumerate() {
            run_task(
                db,
                plan,
                task,
                base + i,
                &guard,
                &fault,
                &mut regs,
                &mut buffer,
                stats,
            )?;
        }
    }
    Ok(buffer)
}

/// Minimum rows per delta chunk — below this the per-task overhead beats
/// the parallelism.
const MIN_CHUNK_ROWS: usize = 512;

/// Chunks per worker thread, for load balancing under the work-stealing
/// cursor (rule firings are skewed: some chunks derive nothing).
const TASKS_PER_THREAD: usize = 4;

/// One unit of round work: a rule, optionally restricted to a range of
/// delta rows at one body atom.
#[derive(Copy, Clone, Debug)]
struct Task {
    rule: u32,
    delta: Option<DeltaRange>,
}

/// Delta restriction of a task: body atom `atom` ranges over dense row
/// indexes `start..end` of its relation.
#[derive(Copy, Clone, Debug)]
struct DeltaRange {
    atom: u32,
    start: usize,
    end: usize,
}

/// Flat buffer of derived head tuples: one `(pred, offset, arity)` entry
/// per firing over a shared constant arena, so a round allocates O(1)
/// buffers instead of one `Box<[Cst]>` per derived row.
#[derive(Debug, Default)]
struct DerivedBuffer {
    heads: Vec<(Pred, u32, u32)>,
    data: Vec<Cst>,
}

impl DerivedBuffer {
    // Invariant (all three `expect`s below): row offsets are stored as
    // `u32` throughout the row-store; an arena outgrowing `u32::MAX` cells
    // cannot be represented, so trap loudly instead of truncating offsets.
    // A byte budget (`Budget::max_bytes`) trips orders of magnitude before
    // this point on any governed run.

    /// Grounds a compiled head template under the register file directly
    /// into the arena.
    fn push_slots(&mut self, pred: Pred, head: &[HeadSlot], regs: &[Cst]) {
        let start = u32::try_from(self.data.len()).expect("derived buffer overflow");
        for s in head {
            self.data.push(match s {
                HeadSlot::Const(c) => *c,
                HeadSlot::Reg(r) => regs[*r as usize],
                HeadSlot::Unbound => panic!("unsafe rule: head variable unbound"),
            });
        }
        self.heads.push((pred, start, head.len() as u32));
    }

    /// Appends another buffer's rows after this one's (the deterministic
    /// task-order merge).
    fn absorb(&mut self, other: DerivedBuffer) {
        let shift = u32::try_from(self.data.len()).expect("derived buffer overflow");
        self.data.extend_from_slice(&other.data);
        self.heads
            .extend(other.heads.iter().map(|&(p, s, a)| (p, s + shift, a)));
    }

    /// Derived rows in firing order.
    fn iter(&self) -> impl Iterator<Item = (Pred, &[Cst])> {
        self.heads
            .iter()
            .map(|&(p, s, a)| (p, &self.data[s as usize..(s + a) as usize]))
    }
}

/// Why a round stopped before all of its tasks completed. The round's
/// buffer is discarded in either case; `into_eval_error` attaches the
/// last-committed stats snapshot for resource trips.
enum RoundAbort {
    Resource(Resource),
    Panic { task: usize, payload: String },
}

impl RoundAbort {
    fn into_eval_error(self, committed: EvalStats) -> EvalError {
        match self {
            RoundAbort::Resource(resource) => EvalError::BudgetExhausted {
                resource,
                partial: committed,
            },
            RoundAbort::Panic { task, payload } => EvalError::WorkerPanicked { task, payload },
        }
    }
}

/// Best-effort string form of a `catch_unwind` payload.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Trips the `panic_task` fault when `index` (the deterministic global
/// task index) matches. Inert in production: the plan's field is `None`.
fn inject_task_fault(fault: &FaultPlan, index: usize) {
    if fault.panic_task == Some(index) {
        panic!("injected fault: panic_task:{index}");
    }
}

/// Runs `body` under `catch_unwind` as the task with deterministic global
/// index `index`: a probe-level trip becomes [`RoundAbort::Resource`], a
/// panic [`RoundAbort::Panic`] naming the task.
fn guarded(index: usize, body: impl FnOnce() -> Result<(), Resource>) -> Result<(), RoundAbort> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(resource)) => Err(RoundAbort::Resource(resource)),
        Err(payload) => Err(RoundAbort::Panic {
            task: index,
            payload: panic_payload(payload),
        }),
    }
}

/// Runs one task into `out`: executes the task's compiled program over
/// `regs`, the caller's register file, grown to the program's size (every
/// register is written before it is read, so a file reused across tasks
/// needs no reset). `index` is the task's deterministic global index, the
/// one `panic_task` faults address and a panic reports.
#[allow(clippy::too_many_arguments)]
fn run_task(
    db: &Database,
    plan: &DeltaPlan,
    task: Task,
    index: usize,
    guard: &ProbeGuard<'_>,
    fault: &FaultPlan,
    regs: &mut Vec<Cst>,
    out: &mut DerivedBuffer,
    stats: &mut EvalStats,
) -> Result<(), RoundAbort> {
    guarded(index, || {
        inject_task_fault(fault, index);
        let prog = plan.program(task.rule, task.delta.map(|d| d.atom));
        if regs.len() < prog.register_count() {
            regs.resize(prog.register_count(), Cst(fundb_term::Sym::PLACEHOLDER));
        }
        let range = task.delta.map(|d| (d.start, d.end));
        let pred = prog.head_pred();
        prog.execute(db, range, regs, guard, stats, &mut |head, regs| {
            out.push_slots(pred, head, regs);
        })
    })
}

/// Executes `tasks` on `threads` scoped workers. A shared atomic cursor
/// hands out tasks; each worker keeps `(task index, buffer, stats)`
/// triples, and the results are merged in ascending task index, making the
/// output indistinguishable from running the tasks in order on one thread.
///
/// Failure handling: each task body runs under `catch_unwind` (inside
/// [`run_task`]); the first failure sets a round-local abort flag (checked
/// by siblings at task hand-out and inside probe checks) and is recorded by
/// smallest task index, panics outranking resource trips, so the reported
/// error does not depend on worker scheduling.
#[allow(clippy::too_many_arguments)]
fn run_tasks_parallel(
    db: &Database,
    plan: &DeltaPlan,
    tasks: &[Task],
    threads: usize,
    base: usize,
    gov: &Governor,
    fault: &FaultPlan,
    out: &mut DerivedBuffer,
    stats: &mut EvalStats,
) -> Result<(), RoundAbort> {
    let workers = threads.min(tasks.len());
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, RoundAbort)>> = Mutex::new(None);
    let record = |index: usize, ab: RoundAbort| {
        let mut slot = failure.lock().unwrap_or_else(|e| e.into_inner());
        let replace = match (&*slot, &ab) {
            (None, _) => true,
            (Some((_, RoundAbort::Resource(_))), RoundAbort::Panic { .. }) => true,
            (Some((_, RoundAbort::Panic { .. })), RoundAbort::Resource(_)) => false,
            (Some((at, _)), _) => index < *at,
        };
        if replace {
            *slot = Some((index, ab));
        }
        // Release-ordered so a sibling that observes the flag is
        // guaranteed a recorded failure once the scope joins.
        abort.store(true, Ordering::Release);
    };
    let mut results: Vec<(usize, DerivedBuffer, EvalStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let guard = gov.probe_guard(Some(&abort));
                    let mut regs = Vec::new();
                    let mut done: Vec<(usize, DerivedBuffer, EvalStats)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Acquire) {
                            return done;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks.len() {
                            return done;
                        }
                        let mut buf = DerivedBuffer::default();
                        let mut st = EvalStats::default();
                        match run_task(
                            db,
                            plan,
                            tasks[i],
                            base + i,
                            &guard,
                            fault,
                            &mut regs,
                            &mut buf,
                            &mut st,
                        ) {
                            Ok(()) => done.push((i, buf, st)),
                            Err(ab) => {
                                // A `Cancelled` trip with the token still
                                // clear came from the round's abort flag:
                                // some sibling already recorded the real
                                // failure, so don't relabel it.
                                let poisoned =
                                    matches!(ab, RoundAbort::Resource(Resource::Cancelled))
                                        && !gov.is_cancelled()
                                        && abort.load(Ordering::Acquire);
                                if !poisoned {
                                    record(base + i, ab);
                                }
                                return done;
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(done) => done,
                // Unreachable in practice — the task body is fully wrapped
                // in `catch_unwind` — but a defect here must poison the
                // round, not abort the process.
                Err(payload) => {
                    record(
                        usize::MAX,
                        RoundAbort::Panic {
                            task: base,
                            payload: panic_payload(payload),
                        },
                    );
                    Vec::new()
                }
            })
            .collect()
    });
    if let Some((_, ab)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(ab);
    }
    results.sort_unstable_by_key(|&(i, _, _)| i);
    for (_, buf, st) in results {
        out.absorb(buf);
        stats.absorb(st);
    }
    Ok(())
}

/// Evaluates `rules` over `db` to the least fixpoint, semi-naively, under
/// a default [`IncrementalEval`]. The initial facts are already loaded, so
/// the plan is ordered by their statistics (cold relations fall back to
/// greedy).
pub fn evaluate(db: &mut Database, rules: &[Rule]) -> Result<EvalStats, EvalError> {
    let plan = DeltaPlan::planned(rules, db);
    IncrementalEval::new().run(db, rules, &plan)
}

/// Evaluates `rules` naively (full re-derivation each round) under a
/// default [`IncrementalEval`] (see [`IncrementalEval::run_naive`]). Same
/// fixpoint as [`evaluate`]; used as an oracle and the textbook baseline.
pub fn evaluate_naive(db: &mut Database, rules: &[Rule]) -> Result<EvalStats, EvalError> {
    let plan = DeltaPlan::planned(rules, db);
    IncrementalEval::new().run_naive(db, rules, &plan)
}

/// Evaluates the conjunctive query `body` over `db` and returns the distinct
/// bindings of `out_vars`, in derivation order.
///
/// The body is compiled to a [`JoinProgram`] in its *written* atom order
/// (derivation order is part of the contract, so no reordering here); the
/// database is borrowed immutably, so multi-column probes that lack a
/// pre-built composite index fall back to the most selective single-column
/// bucket and count as `index_misses`. A body atom whose arity differs from
/// its relation's matches no row, so the answer is empty; a panic during
/// execution (e.g. an output variable unbound by the body) surfaces as
/// [`EvalError::WorkerPanicked`] instead of unwinding through the caller.
pub fn query(db: &Database, body: &[Atom], out_vars: &[Var]) -> Result<Vec<Vec<Cst>>, EvalError> {
    if arity_mismatch(db, &[], body) {
        return Ok(Vec::new());
    }
    let mut stats = EvalStats::default();
    query_collect(db, body, out_vars, &Governor::default(), &mut stats)
}

/// Whether some atom of `body` is used at an arity other than its
/// predicate's: the arity of its relation in `db`, or of any atom of
/// `rules` naming the same predicate. Such an atom matches no row; the
/// compiled join indexes columns by position and would read past the end
/// of a shorter row, so the query entry points answer it up front.
fn arity_mismatch(db: &Database, rules: &[Rule], body: &[Atom]) -> bool {
    body.iter().any(|atom| {
        let n = atom.args.len();
        db.relation(atom.pred).is_some_and(|rel| rel.arity() != n)
            || rules
                .iter()
                .flat_map(|r| std::iter::once(&r.head).chain(&r.body))
                .any(|a| a.pred == atom.pred && a.args.len() != n)
    })
}

/// The shared executor behind [`query`] and the goal-directed
/// [`query_demand`]: runs the compiled body as one guarded task and
/// *accumulates* probe counters into `stats` instead of discarding them.
fn query_collect(
    db: &Database,
    body: &[Atom],
    out_vars: &[Var],
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Vec<Vec<Cst>>, EvalError> {
    // Pose the query as a rule whose head projects the output variables;
    // the head predicate is never inserted anywhere, so a placeholder works.
    let pseudo = Rule::new(
        Atom::new(
            Pred(fundb_term::Sym::PLACEHOLDER),
            out_vars.iter().map(|&v| Term::Var(v)).collect(),
        ),
        body.to_vec(),
    );
    let order: Vec<usize> = (0..body.len()).collect();
    let prog = JoinProgram::compile_ordered(&pseudo, &order);
    let mut regs = register_file(&prog);
    let mut out: Vec<Vec<Cst>> = Vec::new();
    // Dedup without a second copy of each row: hash buckets of indexes
    // into `out`, confirmed against the stored row (same scheme as the
    // relation dedup table).
    let mut seen: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let task = governor.reserve_tasks(1);
    let guard = governor.probe_guard(None);
    guarded(task, || {
        prog.execute(db, None, &mut regs, &guard, stats, &mut |head, regs| {
            let row: Vec<Cst> = head
                .iter()
                .map(|s| match s {
                    HeadSlot::Const(c) => *c,
                    HeadSlot::Reg(r) => regs[*r as usize],
                    HeadSlot::Unbound => panic!("query output variable unbound by body"),
                })
                .collect();
            let bucket = seen.entry(hash_row(&row)).or_default();
            if !bucket.iter().any(|&i| out[i as usize] == row) {
                bucket.push(out.len() as u32);
                out.push(row);
            }
        })
    })
    .map_err(|abort| abort.into_eval_error(*stats))?;
    Ok(out)
}

/// The answer of a goal-directed query: the distinct output rows, the
/// evaluation counters (overlay fixpoint plus final join, including
/// `magic_rules` / `demanded_tuples`), and whether the magic rewrite
/// actually applied or the engine fell back to full materialization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DemandAnswer {
    /// Distinct bindings of the output variables, in derivation order.
    pub rows: Vec<Vec<Cst>>,
    /// Counters for the whole answer: overlay evaluation + answer join.
    pub stats: EvalStats,
    /// `true` when the magic rewrite applied; `false` on the degenerate
    /// fallbacks (all-free goal, EDB-only goal, over-wide atoms).
    pub goal_directed: bool,
}

/// Goal-directed conjunctive query over `db` given the IDB `rules`: rewrites
/// the program by [`crate::magic::magic_rewrite`] for the goal's binding
/// pattern, evaluates the rewritten program into a scratch *overlay* database
/// (the base `db` is never mutated — it stays a plain shared borrow), and
/// joins the transformed body over the overlay. Answers equal
/// `evaluate(db.clone(), rules)` followed by [`query`] — the differential
/// fuzz harness pins that — but only the goal-reachable cone is derived.
///
/// The overlay run and the answer join take `eval`'s governor, threads and
/// parallel threshold; `eval`'s marks are never read or moved.
///
/// Degenerate goals fall back transparently: an all-free goal materializes
/// the full fixpoint into the overlay; a goal over EDB (or missing)
/// predicates only is answered by a direct join against `db`. A goal atom
/// whose arity differs from its predicate's in `db` or in `rules` matches
/// no row: the answer is empty, and nothing is evaluated.
pub fn query_demand(
    db: &Database,
    rules: &[Rule],
    body: &[Atom],
    out_vars: &[Var],
    eval: &IncrementalEval,
) -> Result<DemandAnswer, EvalError> {
    if arity_mismatch(db, rules, body) {
        return Ok(DemandAnswer::default());
    }
    let overlay_eval = |scratch: &mut Database, rules: &[Rule]| -> Result<EvalStats, EvalError> {
        let plan = DeltaPlan::planned(rules, scratch);
        let run = eval.fresh().run(scratch, rules, &plan);
        // No caller can reach the overlay, so debug builds (the demand
        // differential tests among them) validate it here.
        debug_assert_eq!(scratch.check_invariants(), Ok(()), "demand overlay");
        run
    };
    let governor = eval.governor();
    let mut stats = EvalStats::default();
    if let Some(mp) = crate::magic::magic_rewrite(rules, body) {
        // Seed the overlay with exactly the base relations the rewritten
        // program references, in first-reference order (deterministic row
        // ids), plus the ground magic seeds from the goal's constants.
        let mut scratch = Database::new();
        for p in mp.base_preds() {
            if let Some(rel) = db.relation(p) {
                let dst = scratch.relation_mut(p, rel.arity());
                for row in rel.rows() {
                    dst.insert(row);
                }
            }
        }
        for (p, row) in &mp.seeds {
            scratch.insert(*p, row);
        }
        stats.magic_rules = mp.magic_rule_count;
        let run_stats = overlay_eval(&mut scratch, &mp.rules)?;
        stats.absorb(run_stats);
        stats.demanded_tuples = mp
            .magic_preds()
            .iter()
            .map(|&p| scratch.relation(p).map_or(0, crate::rel::Relation::len))
            .sum();
        let rows = query_collect(&scratch, &mp.query_body, out_vars, governor, &mut stats)?;
        Ok(DemandAnswer {
            rows,
            stats,
            goal_directed: true,
        })
    } else {
        let idb: fundb_term::FxHashSet<Pred> = rules.iter().map(|r| r.head.pred).collect();
        if body.iter().any(|a| idb.contains(&a.pred)) {
            // All-free (or over-wide) goal over IDB predicates: the full
            // fixpoint is genuinely needed. Materialize it into an overlay
            // so the contract (base never mutated) still holds.
            let mut scratch = db.clone();
            let run_stats = overlay_eval(&mut scratch, rules)?;
            stats.absorb(run_stats);
            let rows = query_collect(&scratch, body, out_vars, governor, &mut stats)?;
            Ok(DemandAnswer {
                rows,
                stats,
                goal_directed: false,
            })
        } else {
            // EDB-only (or missing-predicate) goal: the base facts are
            // already complete for every body atom; join directly.
            let rows = query_collect(db, body, out_vars, governor, &mut stats)?;
            Ok(DemandAnswer {
                rows,
                stats,
                goal_directed: false,
            })
        }
    }
}

#[cfg(test)]
fn query_rec(
    db: &Database,
    body: &[Atom],
    idx: usize,
    subst: &mut FxHashMap<Var, Cst>,
    emit: &mut dyn FnMut(&FxHashMap<Var, Cst>),
) {
    if idx == body.len() {
        emit(subst);
        return;
    }
    let atom = &body[idx];
    let Some(rel) = db.relation(atom.pred) else {
        return;
    };
    // The pattern is a snapshot of the current bindings, so the selection
    // can borrow it while `subst` is rebound below.
    let pattern: Vec<Option<Cst>> = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(v) => subst.get(v).copied(),
        })
        .collect();
    for row in rel.select(&pattern) {
        let mut bound = Vec::new();
        let mut ok = true;
        for (t, v) in atom.args.iter().zip(row.iter()) {
            if let Term::Var(var) = t {
                match subst.get(var) {
                    Some(&existing) => {
                        if existing != *v {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        subst.insert(*var, *v);
                        bound.push(*var);
                    }
                }
            }
        }
        if ok {
            query_rec(db, body, idx + 1, subst, emit);
        }
        for var in bound {
            subst.remove(&var);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_term::{Interner, Pred};

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

    fn transitive_closure_rules(fx: &Fixture) -> Vec<Rule> {
        vec![
            // Edge(x,y) → Path(x,y)
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                vec![Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)])],
            ),
            // Path(x,y), Edge(y,z) → Path(x,z)
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.z)]),
                vec![
                    Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                    Atom::new(fx.edge, vec![Term::Var(fx.y), Term::Var(fx.z)]),
                ],
            ),
        ]
    }

    fn chain_db(fx: &mut Fixture, n: usize) -> Database {
        let mut db = Database::new();
        let nodes: Vec<Cst> = (0..=n)
            .map(|k| Cst(fx.i.intern(&format!("v{k}"))))
            .collect();
        for w in nodes.windows(2) {
            db.insert(fx.edge, &[w[0], w[1]]);
        }
        db
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 10);
        evaluate(&mut db, &rules).unwrap();
        // Path has n*(n+1)/2 pairs for a chain of n edges.
        assert_eq!(db.relation(fx.path).unwrap().len(), 10 * 11 / 2);
    }

    #[test]
    fn semi_naive_matches_naive() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db1 = chain_db(&mut fx, 8);
        let mut db2 = db1.clone();
        evaluate(&mut db1, &rules).unwrap();
        evaluate_naive(&mut db2, &rules).unwrap();
        assert_eq!(db1.dump(&fx.i), db2.dump(&fx.i));
    }

    #[test]
    fn stale_stats_change_plans_not_answers() {
        // Stats drift: a plan compiled from an *old* snapshot (here: a
        // 2-edge chain) keeps answering correctly after the database has
        // grown past anything the estimates describe. Only probe counts may
        // differ from a fresh plan — never the fixpoint.
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 2);
        let stale_plan = DeltaPlan::planned(&rules, &db);
        // Grow the database 20x after the snapshot was taken.
        for k in 2..40 {
            let a = Cst(fx.i.intern(&format!("v{k}")));
            let b = Cst(fx.i.intern(&format!("v{}", k + 1)));
            db.insert(fx.edge, &[a, b]);
        }
        let mut stale_db = db.clone();
        let mut fresh_db = db.clone();
        let mut greedy_db = db;
        IncrementalEval::new()
            .run(&mut stale_db, &rules, &stale_plan)
            .unwrap();
        let fresh_plan = DeltaPlan::planned(&rules, &fresh_db);
        IncrementalEval::new()
            .run(&mut fresh_db, &rules, &fresh_plan)
            .unwrap();
        evaluate_naive(&mut greedy_db, &rules).unwrap();
        assert_eq!(stale_db.dump(&fx.i), fresh_db.dump(&fx.i));
        assert_eq!(stale_db.dump(&fx.i), greedy_db.dump(&fx.i));
    }

    #[test]
    fn planned_plan_is_deterministic_across_thread_counts() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let base = chain_db(&mut fx, 16);
        let plan = DeltaPlan::planned(&rules, &base);
        let mut reference: Option<(Vec<String>, EvalStats)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut db = base.clone();
            let stats = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1)
                .run(&mut db, &rules, &plan)
                .unwrap();
            let dump = db.dump(&fx.i);
            match &reference {
                None => reference = Some((dump, stats)),
                Some((d, s)) => {
                    assert_eq!(&dump, d, "threads={threads} changed rows");
                    assert_eq!(&stats, s, "threads={threads} changed stats");
                }
            }
        }
    }

    #[test]
    fn semi_naive_derives_each_fact_once_on_chain() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 12);
        let stats = evaluate(&mut db, &rules).unwrap();
        assert_eq!(stats.derived, 12 * 13 / 2);
    }

    #[test]
    fn facts_as_empty_body_rules_fire_once() {
        let mut fx = fixture();
        let a = Cst(fx.i.intern("a"));
        let rules = vec![Rule::new(
            Atom::new(fx.edge, vec![Term::Const(a), Term::Const(a)]),
            vec![],
        )];
        let mut db = Database::new();
        let stats = evaluate(&mut db, &rules).unwrap();
        assert_eq!(stats.derived, 1);
        assert!(db.contains(fx.edge, &[a, a]));
    }

    #[test]
    fn query_binds_and_dedups() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 4);
        evaluate(&mut db, &rules).unwrap();
        let v0 = Cst(fx.i.intern("v0"));
        // {y : Path(v0, y)}
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        let rows = query(&db, &body, &[fx.y]).unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn query_joins_shared_variables() {
        let mut fx = fixture();
        let mut db = chain_db(&mut fx, 3);
        evaluate(&mut db, &transitive_closure_rules(&fx)).unwrap();
        // {x : Edge(x,y), Edge(y,z)} — x with an outgoing 2-step path.
        let body = vec![
            Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
            Atom::new(fx.edge, vec![Term::Var(fx.y), Term::Var(fx.z)]),
        ];
        let rows = query(&db, &body, &[fx.x]).unwrap();
        assert_eq!(rows.len(), 2); // v0 and v1
    }

    #[test]
    fn query_on_missing_predicate_is_empty() {
        let fx = fixture();
        let db = Database::new();
        let body = vec![Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)])];
        assert!(query(&db, &body, &[fx.x]).unwrap().is_empty());
    }

    #[test]
    fn resume_derives_only_consequences_of_new_facts() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 10);
        let mut eval = IncrementalEval::new();
        let first = eval.run(&mut db, &rules, &plan).unwrap();
        assert_eq!(first.derived, 10 * 11 / 2);

        // Resuming a saturated database is a no-op.
        let idle = eval.run(&mut db, &rules, &plan).unwrap();
        assert_eq!(idle.derived, 0);
        assert_eq!(idle.join_probes, 0);

        // Extend the chain by one edge: v10 → v11.
        let v10 = Cst(fx.i.intern("v10"));
        let v11 = Cst(fx.i.intern("v11"));
        db.insert(fx.edge, &[v10, v11]);
        let resumed = eval.run(&mut db, &rules, &plan).unwrap();
        // Exactly the 11 new paths ending at v11, nothing re-derived.
        assert_eq!(resumed.derived, 11);
        assert_eq!(db.relation(fx.path).unwrap().len(), 11 * 12 / 2);

        // The resumed result matches a from-scratch evaluation.
        let mut fresh = chain_db(&mut fx, 11);
        evaluate(&mut fresh, &rules).unwrap();
        assert_eq!(db.dump(&fx.i), fresh.dump(&fx.i));
    }

    /// Counts sink callbacks.
    #[derive(Default)]
    struct CountingSink {
        rows: usize,
        rounds: usize,
    }

    impl RoundSink for CountingSink {
        fn rows_committed(&mut self, _: Pred, _: usize, _: usize, _: &[Cst]) {
            self.rows += 1;
        }
        fn round_committed(&mut self, _: &EvalStats) -> Result<(), String> {
            self.rounds += 1;
            Ok(())
        }
    }

    #[test]
    fn idle_runs_spend_no_round() {
        // A run with nothing past its marks selects no task, so it ends
        // before the gate: no round, no sink callback, no governor round.
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 6);
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan::default());
        let mut eval = IncrementalEval::new().with_governor(gov.clone());
        let first = eval.run(&mut db, &rules, &plan).unwrap();
        assert_eq!(gov.rounds_used(), first.rounds);
        let mut sink = CountingSink::default();
        let idle = eval
            .run_with_sink(&mut db, &rules, &plan, &mut sink)
            .unwrap();
        assert_eq!(idle, EvalStats::default());
        assert_eq!((sink.rows, sink.rounds), (0, 0));
        assert_eq!(gov.rounds_used(), first.rounds);
        // The same holds for a primed evaluator that never ran.
        let mut primed = IncrementalEval::new().with_governor(gov.clone());
        primed.prime_marks(&db);
        assert_eq!(primed.run(&mut db, &rules, &plan).unwrap().rounds, 0);
        assert_eq!(gov.rounds_used(), first.rounds);
    }

    #[test]
    fn grown_relations_no_rule_reads_spend_no_round() {
        // Rows of a relation no rule body mentions need no round: the
        // resumed run selects no task and stops at once.
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 4);
        let mut eval = IncrementalEval::new();
        eval.run(&mut db, &rules, &plan).unwrap();
        let ghost = Pred(fx.i.intern("Ghost"));
        let a = Cst(fx.i.intern("a"));
        db.insert(ghost, &[a]);
        assert_eq!(eval.run(&mut db, &rules, &plan).unwrap().rounds, 0);
    }

    #[test]
    fn delta_plan_maps_predicates_to_positions() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        // Edge appears in rule 0 position 0 and rule 1 position 1.
        assert_eq!(plan.positions(fx.edge), &[(0, 0), (1, 1)]);
        // Path appears only in rule 1 position 0.
        assert_eq!(plan.positions(fx.path), &[(1, 0)]);
        // Unknown predicates have no positions.
        let ghost = Pred(fx.i.intern("Ghost"));
        assert!(plan.positions(ghost).is_empty());
    }

    #[test]
    fn probe_and_index_counters_move() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 6);
        let stats = evaluate(&mut db, &rules).unwrap();
        assert!(stats.join_probes > 0);
        // The recursive rule joins Edge on a bound column every round.
        assert!(stats.index_hits > 0);
    }

    #[test]
    fn empty_body_rules_do_not_refire_on_resume() {
        let mut fx = fixture();
        let a = Cst(fx.i.intern("a"));
        let rules = vec![Rule::new(
            Atom::new(fx.edge, vec![Term::Const(a), Term::Const(a)]),
            vec![],
        )];
        let plan = DeltaPlan::new(&rules);
        let mut db = Database::new();
        let mut eval = IncrementalEval::new();
        assert_eq!(eval.run(&mut db, &rules, &plan).unwrap().derived, 1);
        assert_eq!(eval.run(&mut db, &rules, &plan).unwrap().derived, 0);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = Database::new();
        let nodes: Vec<Cst> = (0..5).map(|k| Cst(fx.i.intern(&format!("c{k}")))).collect();
        for k in 0..5 {
            db.insert(fx.edge, &[nodes[k], nodes[(k + 1) % 5]]);
        }
        evaluate(&mut db, &rules).unwrap();
        assert_eq!(db.relation(fx.path).unwrap().len(), 25);
    }

    /// Runs TC on a chain with an explicit thread count and a threshold of
    /// 1 (every round eligible for the parallel path), returning the row
    /// order of `Path` and the stats.
    fn run_parallel_tc(fx: &mut Fixture, n: usize, threads: usize) -> (Vec<Vec<Cst>>, EvalStats) {
        let rules = transitive_closure_rules(fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(fx, n);
        let mut eval = IncrementalEval::new()
            .with_threads(threads)
            .with_parallel_threshold(1);
        let stats = eval.run(&mut db, &rules, &plan).unwrap();
        let rows = db
            .relation(fx.path)
            .unwrap()
            .rows()
            .map(<[Cst]>::to_vec)
            .collect();
        (rows, stats)
    }

    #[test]
    fn parallel_rounds_are_byte_identical_to_sequential() {
        let mut fx = fixture();
        let (seq_rows, seq_stats) = run_parallel_tc(&mut fx, 40, 1);
        for threads in [2, 4, 8] {
            let (rows, stats) = run_parallel_tc(&mut fx, 40, threads);
            assert_eq!(rows, seq_rows, "row order diverged at {threads} threads");
            assert_eq!(stats, seq_stats, "stats diverged at {threads} threads");
        }
    }

    #[test]
    fn chunked_delta_ranges_partition_exactly() {
        // A chain long enough that delta rounds exceed 2 * MIN_CHUNK_ROWS
        // and the leading Path atom of the recursive rule gets chunked.
        let mut fx = fixture();
        let (seq_rows, seq_stats) = run_parallel_tc(&mut fx, 2 * MIN_CHUNK_ROWS + 70, 1);
        let (par_rows, par_stats) = run_parallel_tc(&mut fx, 2 * MIN_CHUNK_ROWS + 70, 4);
        assert_eq!(par_rows, seq_rows);
        assert_eq!(par_stats, seq_stats);
    }

    #[test]
    fn small_rounds_fall_back_to_sequential() {
        // Default threshold: a 10-edge chain never reaches it, so the run
        // must behave exactly like threads = 1 (this is implicit — the
        // assertion is that results and stats still match).
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 10);
        let stats = IncrementalEval::new()
            .with_threads(8)
            .run(&mut db, &rules, &plan)
            .unwrap();
        assert_eq!(stats.derived, 10 * 11 / 2);
    }

    /// Right-recursive transitive closure: the recursive atom sits at body
    /// position 1, so the interpreter had to scan Edge fully per round
    /// while the compiled per-delta program hoists the delta outermost.
    fn tc_right_rules(fx: &Fixture) -> Vec<Rule> {
        vec![
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                vec![Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)])],
            ),
            // Path(x,z) ← Edge(x,y), Path(y,z): delta Path is non-leading.
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.z)]),
                vec![
                    Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                    Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.z)]),
                ],
            ),
        ]
    }

    #[test]
    fn right_recursion_matches_left_recursion() {
        let mut fx = fixture();
        let mut left = chain_db(&mut fx, 12);
        let mut right = left.clone();
        evaluate(&mut left, &transitive_closure_rules(&fx)).unwrap();
        let stats = evaluate(&mut right, &tc_right_rules(&fx)).unwrap();
        assert_eq!(left.dump(&fx.i), right.dump(&fx.i));
        // The delta-first reorder keeps the non-leading recursion linear:
        // well under two probes per derived row plus the seeding scans.
        assert!(
            stats.join_probes <= 4 * stats.derived + 2 * 12,
            "non-leading delta still scans: {} probes for {} rows",
            stats.join_probes,
            stats.derived
        );
    }

    #[test]
    fn chunked_non_leading_delta_is_thread_invariant() {
        // Long enough that delta rounds at body position 1 get chunked —
        // illegal under the PR 2 interpreter, exact under compiled
        // programs because the delta atom runs outermost.
        let mut fx = fixture();
        let rules = tc_right_rules(&fx);
        let n = 2 * MIN_CHUNK_ROWS + 70;
        let run = |fx: &mut Fixture, threads: usize| {
            let plan = DeltaPlan::new(&rules);
            let mut db = chain_db(fx, n);
            let mut eval = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1);
            let stats = eval.run(&mut db, &rules, &plan).unwrap();
            let rows: Vec<Vec<Cst>> = db
                .relation(fx.path)
                .unwrap()
                .rows()
                .map(<[Cst]>::to_vec)
                .collect();
            (rows, stats)
        };
        let (seq_rows, seq_stats) = run(&mut fx, 1);
        for threads in [2, 4, 8] {
            let (rows, stats) = run(&mut fx, threads);
            assert_eq!(rows, seq_rows, "row order diverged at {threads} threads");
            assert_eq!(stats, seq_stats, "stats diverged at {threads} threads");
        }
    }

    #[test]
    fn compiled_query_matches_interpreted_query() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 6);
        evaluate(&mut db, &rules).unwrap();
        let v0 = Cst(fx.i.intern("v0"));
        let bodies = vec![
            vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])],
            vec![
                Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.z)]),
            ],
            vec![
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.x)]),
            ],
        ];
        for body in bodies {
            let out_vars: Vec<Var> = [fx.x, fx.y]
                .into_iter()
                .filter(|v| body.iter().flat_map(Atom::vars).any(|w| w == *v))
                .collect();
            // Interpreted reference: same traversal order as the compiled
            // program (written body order), so rows must match exactly.
            let mut expect: Vec<Vec<Cst>> = Vec::new();
            let mut seen: fundb_term::FxHashSet<Vec<Cst>> = fundb_term::FxHashSet::default();
            let mut subst = FxHashMap::default();
            query_rec(&db, &body, 0, &mut subst, &mut |s| {
                let row: Vec<Cst> = out_vars.iter().map(|v| s[v]).collect();
                if seen.insert(row.clone()) {
                    expect.push(row);
                }
            });
            assert_eq!(query(&db, &body, &out_vars).unwrap(), expect);
        }
    }

    /// Splitmix-style deterministic generator for the differential test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn honest_index_counters() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 6);
        let stats = evaluate(&mut db, &rules).unwrap();
        // Every Edge probe of the recursive rule has exactly one bound
        // column — fully covered by the per-column index.
        assert!(stats.index_hits > 0);
        assert_eq!(stats.index_misses, 0);

        // A two-column bound probe against an immutable database cannot
        // build the composite index: query() reports the partial cover.
        let v0 = Cst(fx.i.intern("v0"));
        let v3 = Cst(fx.i.intern("v3"));
        let body = vec![
            Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
            Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
        ];
        let rows = query(&db, &body, &[fx.x, fx.y]).unwrap();
        assert_eq!(rows.len(), 6 * 7 / 2);
        assert!(db.contains(fx.path, &[v0, v3]));
    }

    #[test]
    fn thread_knobs_resolve() {
        let e = IncrementalEval::new().with_threads(3);
        assert_eq!(e.effective_threads(), 3);
        let mut e = IncrementalEval::new();
        e.set_threads(Some(0)); // clamped to 1
        assert_eq!(e.effective_threads(), 1);
        e.set_threads(None);
        assert!(e.effective_threads() >= 1);
    }

    use crate::governor::{Budget, FaultPlan, Governor, Resource};

    /// Path rows in insertion order, for prefix/byte-identity assertions.
    fn path_rows(db: &Database, fx: &Fixture) -> Vec<Vec<Cst>> {
        db.relation(fx.path)
            .map(|r| r.rows().map(<[Cst]>::to_vec).collect())
            .unwrap_or_default()
    }

    #[test]
    fn row_budget_truncates_to_identical_prefix_at_all_thread_counts() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let n = 40;
        let mut full = chain_db(&mut fx, n);
        evaluate(&mut full, &rules).unwrap();
        let full_rows = path_rows(&full, &fx);

        let cap = 30;
        let mut reference: Option<Vec<Vec<Cst>>> = None;
        for threads in [1, 2, 4, 8] {
            let plan = DeltaPlan::new(&rules);
            let mut db = chain_db(&mut fx, n);
            let gov = Governor::new(Budget::default().with_max_rows(cap))
                .with_faults(FaultPlan::default());
            let err = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1)
                .with_governor(gov)
                .run(&mut db, &rules, &plan)
                .unwrap_err();
            let EvalError::BudgetExhausted { resource, partial } = err else {
                panic!("expected BudgetExhausted, got {err:?}");
            };
            assert_eq!(resource, Resource::Rows);
            assert_eq!(partial.derived, cap);
            let rows = path_rows(&db, &fx);
            assert_eq!(rows.len(), cap);
            assert_eq!(rows[..], full_rows[..cap], "not a prefix of the fixpoint");
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "diverged at {threads} threads"),
            }
        }
    }

    #[test]
    fn round_budget_stops_at_a_round_boundary() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        let gov =
            Governor::new(Budget::default().with_max_rounds(2)).with_faults(FaultPlan::default());
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Rounds);
        assert_eq!(partial.rounds, 2);
        // Round 1 copies the 8 edges, round 2 adds the 7 length-2 paths.
        assert_eq!(partial.derived, 8 + 7);
        assert_eq!(db.relation(fx.path).unwrap().len(), 8 + 7);
    }

    #[test]
    fn byte_budget_trips_before_any_derivation() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        let gov =
            Governor::new(Budget::default().with_max_bytes(1)).with_faults(FaultPlan::default());
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Bytes);
        assert_eq!(partial, EvalStats::default());
        assert!(db.relation(fx.path).is_none(), "no round may have run");
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_round() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan::default());
        gov.cancel();
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        assert!(matches!(
            err,
            EvalError::BudgetExhausted {
                resource: Resource::Cancelled,
                ..
            }
        ));
        assert!(db.relation(fx.path).is_none());
    }

    #[test]
    fn panic_task_fault_leaves_last_completed_round_sequential() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        // Round 1 runs tasks 0 and 1 (one per rule); round 2 re-runs only
        // the Path position of the recursive rule as global task 2.
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan {
            panic_task: Some(2),
            ..FaultPlan::default()
        });
        let err = IncrementalEval::new()
            .with_threads(1)
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::WorkerPanicked { task, payload } = err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(task, 2);
        assert!(payload.contains("panic_task:2"), "payload: {payload}");
        // Round 2's buffer was discarded whole: only round 1's edge copies.
        assert_eq!(db.relation(fx.path).unwrap().len(), 8);
    }

    #[test]
    fn panic_task_fault_in_parallel_round_poisons_round_not_process() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        // Task 1 is in round 1, which runs parallel under threshold 1.
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan {
            panic_task: Some(1),
            ..FaultPlan::default()
        });
        let err = IncrementalEval::new()
            .with_threads(4)
            .with_parallel_threshold(1)
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::WorkerPanicked { task, .. } = err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(task, 1);
        assert!(db.relation(fx.path).is_none(), "round 1 was discarded");
    }

    #[test]
    fn fail_round_fault_exhausts_at_its_boundary() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan {
            fail_round: Some(2),
            ..FaultPlan::default()
        });
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Fault);
        assert_eq!(partial.rounds, 1);
        assert_eq!(db.relation(fx.path).unwrap().len(), 8);
    }

    #[test]
    fn deadline_with_slow_probe_interrupts_mid_round() {
        let mut fx = fixture();
        let rules = tc_right_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 256);
        // Every probe-level check sleeps 2ms against a 1ms budget, so the
        // deadline trips at the first check no matter the machine.
        let gov = Governor::new(Budget::default().with_max_millis(1)).with_faults(FaultPlan {
            slow_probe: Some(2000),
            ..FaultPlan::default()
        });
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, .. } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Time);
    }

    #[test]
    fn governed_naive_oracle_honors_row_budget() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 12);
        let gov =
            Governor::new(Budget::default().with_max_rows(5)).with_faults(FaultPlan::default());
        let plan = DeltaPlan::planned(&rules, &db);
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run_naive(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Rows);
        assert_eq!(partial.derived, 5);
        assert_eq!(db.relation(fx.path).unwrap().len(), 5);
    }

    #[test]
    fn runs_resumed_after_a_row_trip_reach_the_fixpoint() {
        // Transitive closure of a 40-edge chain plus an empty-body rule,
        // which only a full round fires. A row budget trips the merge
        // partway (inside the first round for caps below 41); resuming the
        // same evaluator under an unlimited governor must re-run the
        // tripped round and reach the uninterrupted fixpoint.
        let mut fx = fixture();
        let mut rules = transitive_closure_rules(&fx);
        let seed = Pred(fx.i.intern("Seed"));
        let a = Cst(fx.i.intern("a"));
        rules.push(Rule::new(Atom::new(seed, vec![Term::Const(a)]), vec![]));
        let quiet = |budget: Budget| Governor::new(budget).with_faults(FaultPlan::default());
        let mut full = chain_db(&mut fx, 40);
        evaluate(&mut full, &rules).unwrap();
        assert_eq!(full.relation(fx.path).unwrap().len(), 40 * 41 / 2);
        for threads in [1usize, 2, 4, 8] {
            for cap in [1usize, 5, 40, 41, 100, 500] {
                let plan = DeltaPlan::new(&rules);
                let mut db = chain_db(&mut fx, 40);
                let mut eval = IncrementalEval::new()
                    .with_threads(threads)
                    .with_parallel_threshold(1)
                    .with_governor(quiet(Budget::default().with_max_rows(cap)));
                let err = eval.run(&mut db, &rules, &plan).unwrap_err();
                assert!(
                    matches!(
                        err,
                        EvalError::BudgetExhausted {
                            resource: Resource::Rows,
                            ..
                        }
                    ),
                    "cap {cap}: {err:?}"
                );
                eval.set_governor(quiet(Budget::default()));
                eval.run(&mut db, &rules, &plan).unwrap();
                assert_eq!(
                    db.dump(&fx.i),
                    full.dump(&fx.i),
                    "cap {cap} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn atoms_of_the_wrong_arity_match_no_row() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 4);
        let v0 = Term::Const(Cst(fx.i.intern("v0")));
        let (x, y, z) = (Term::Var(fx.x), Term::Var(fx.y), Term::Var(fx.z));
        let edge_short = vec![Atom::new(fx.edge, vec![x])];
        let edge_long = vec![Atom::new(fx.edge, vec![x, y, z])];
        // `Path` has no relation in `db`: its arity comes from the rules.
        let path_short = vec![Atom::new(fx.path, vec![x])];
        let path_long = vec![Atom::new(fx.path, vec![v0, x, y])];
        for body in [&edge_short, &edge_long] {
            assert!(query(&db, body, &[fx.x]).unwrap().is_empty());
        }
        for body in [&edge_short, &edge_long, &path_short, &path_long] {
            let ans = query_demand(&db, &rules, body, &[fx.x], &IncrementalEval::new()).unwrap();
            assert!(ans.rows.is_empty(), "{body:?}");
        }
        // A well-formed conjunct does not rescue a malformed one.
        let mixed = vec![Atom::new(fx.edge, vec![x, y]), Atom::new(fx.edge, vec![y])];
        assert!(query(&db, &mixed, &[fx.x]).unwrap().is_empty());
        assert_eq!(query(&db, &mixed[..1], &[fx.x]).unwrap().len(), 4);
    }

    #[test]
    fn unbound_query_output_is_an_error_not_a_panic() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 4);
        evaluate(&mut db, &rules).unwrap();
        let w = Var(fx.i.intern("w"));
        let body = vec![Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)])];
        let err = query(&db, &body, &[w]).unwrap_err();
        assert!(matches!(err, EvalError::WorkerPanicked { .. }));
    }

    /// Full-materialization reference for the demand tests: evaluate the
    /// fixpoint on a clone, run the plain query, return sorted rows.
    fn materialized_answers(
        db: &Database,
        rules: &[Rule],
        body: &[Atom],
        out_vars: &[Var],
    ) -> Vec<Vec<Cst>> {
        let mut full = db.clone();
        evaluate(&mut full, rules).unwrap();
        let mut rows = query(&full, body, out_vars).unwrap();
        rows.sort_unstable();
        rows
    }

    fn sorted(mut rows: Vec<Vec<Cst>>) -> Vec<Vec<Cst>> {
        rows.sort_unstable();
        rows
    }

    #[test]
    fn demand_matches_materialization_on_bound_goals() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 16);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let v9 = Cst(fx.i.get("v9").unwrap());
        let bodies = vec![
            // Ground point goal.
            vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Const(v9)])],
            // First argument bound.
            vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])],
            // Second argument bound.
            vec![Atom::new(fx.path, vec![Term::Var(fx.x), Term::Const(v9)])],
            // Join-bound IDB atom, no constants.
            vec![
                Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.z)]),
            ],
        ];
        for body in bodies {
            let out_vars: Vec<Var> = {
                let mut vs: Vec<Var> = body.iter().flat_map(Atom::vars).collect();
                vs.sort_unstable();
                vs.dedup();
                vs
            };
            let ans = query_demand(&db, &rules, &body, &out_vars, &IncrementalEval::new()).unwrap();
            assert!(ans.goal_directed);
            assert!(ans.stats.magic_rules > 0);
            assert!(ans.stats.demanded_tuples > 0);
            assert_eq!(
                sorted(ans.rows),
                materialized_answers(&db, &rules, &body, &out_vars)
            );
        }
    }

    #[test]
    fn demand_derives_less_than_materialization_on_point_goals() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 64);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        let ans = query_demand(&db, &rules, &body, &[fx.y], &IncrementalEval::new()).unwrap();
        assert_eq!(ans.rows.len(), 64);
        // Only the cone from v0 is derived: O(n) tuples, not O(n²).
        let mut full = db.clone();
        let full_stats = evaluate(&mut full, &rules).unwrap();
        assert!(
            ans.stats.derived < full_stats.derived / 4,
            "demand derived {} vs full {}",
            ans.stats.derived,
            full_stats.derived
        );
    }

    #[test]
    fn demand_does_not_mutate_the_base_database() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 8);
        let before = db.dump(&fx.i);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        query_demand(&db, &rules, &body, &[fx.y], &IncrementalEval::new()).unwrap();
        assert_eq!(db.dump(&fx.i), before);
        assert!(db.relation(fx.path).is_none());
    }

    #[test]
    fn all_free_goal_falls_back_to_full_materialization() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 8);
        let body = vec![Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)])];
        let ans = query_demand(&db, &rules, &body, &[fx.x, fx.y], &IncrementalEval::new()).unwrap();
        assert!(!ans.goal_directed);
        assert_eq!(ans.stats.magic_rules, 0);
        assert_eq!(
            sorted(ans.rows),
            materialized_answers(&db, &rules, &body, &[fx.x, fx.y])
        );
        // The fallback also leaves the base database untouched.
        assert!(db.relation(fx.path).is_none());
    }

    #[test]
    fn missing_predicate_goal_answers_empty() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 4);
        let ghost = Pred(fx.i.intern("Ghost"));
        let ans = query_demand(
            &db,
            &rules,
            &[Atom::new(ghost, vec![Term::Var(fx.x)])],
            &[fx.x],
            &IncrementalEval::new(),
        )
        .unwrap();
        assert!(!ans.goal_directed);
        assert!(ans.rows.is_empty());
    }

    #[test]
    fn edb_only_ground_goal_is_answered_without_evaluation() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 4);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let v1 = Cst(fx.i.get("v1").unwrap());
        let ans = query_demand(
            &db,
            &rules,
            &[Atom::new(fx.edge, vec![Term::Const(v0), Term::Const(v1)])],
            &[],
            &IncrementalEval::new(),
        )
        .unwrap();
        assert!(!ans.goal_directed);
        assert_eq!(ans.rows, vec![Vec::<Cst>::new()]);
        // No fixpoint ran: nothing was derived anywhere.
        assert_eq!(ans.stats.derived, 0);
        assert_eq!(ans.stats.rounds, 0);
    }

    #[test]
    fn demand_is_byte_deterministic_across_thread_counts() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 32);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        // Force chunked parallel execution with a tiny threshold.
        let eval = |threads| {
            IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1)
        };
        let base = query_demand(&db, &rules, &body, &[fx.y], &eval(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let ans = query_demand(&db, &rules, &body, &[fx.y], &eval(threads)).unwrap();
            assert_eq!(ans.rows, base.rows, "rows differ at {threads} threads");
            assert_eq!(ans.stats, base.stats, "stats differ at {threads} threads");
        }
    }

    #[test]
    fn demand_honors_the_governor_budget() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 32);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        let eval =
            IncrementalEval::new().with_governor(Governor::new(Budget::default().with_max_rows(3)));
        let err = query_demand(&db, &rules, &body, &[fx.y], &eval).unwrap_err();
        assert!(matches!(
            err,
            EvalError::BudgetExhausted {
                resource: Resource::Rows,
                ..
            }
        ));
    }

    /// Differential property over the same random-program generator as the
    /// oracle test: goal-directed answers equal full materialization for
    /// randomly bound goals, across every fallback class.
    #[test]
    fn demand_matches_materialization_on_random_programs() {
        let mut i = Interner::new();
        let preds: Vec<Pred> = (0..4).map(|k| Pred(i.intern(&format!("P{k}")))).collect();
        let arity = [2usize, 1, 2, 2];
        let vars: Vec<Var> = (0..4).map(|k| Var(i.intern(&format!("x{k}")))).collect();
        let csts: Vec<Cst> = (0..6).map(|k| Cst(i.intern(&format!("c{k}")))).collect();
        for seed in 0..40u64 {
            let mut rng = Rng(seed.wrapping_mul(0xA076_1D64_78BD_642F) + 1);
            let mut rules = Vec::new();
            for _ in 0..(2 + rng.below(4)) {
                let nbody = 1 + rng.below(3);
                let body: Vec<Atom> = (0..nbody)
                    .map(|_| {
                        let p = rng.below(preds.len());
                        let args = (0..arity[p])
                            .map(|_| {
                                if rng.below(4) == 0 {
                                    Term::Const(csts[rng.below(csts.len())])
                                } else {
                                    Term::Var(vars[rng.below(vars.len())])
                                }
                            })
                            .collect();
                        Atom::new(preds[p], args)
                    })
                    .collect();
                let body_vars: Vec<Var> = body.iter().flat_map(Atom::vars).collect();
                let hp = rng.below(preds.len());
                let head_args = (0..arity[hp])
                    .map(|_| {
                        if body_vars.is_empty() || rng.below(5) == 0 {
                            Term::Const(csts[rng.below(csts.len())])
                        } else {
                            Term::Var(body_vars[rng.below(body_vars.len())])
                        }
                    })
                    .collect();
                rules.push(Rule::new(Atom::new(preds[hp], head_args), body));
            }
            let mut db = Database::new();
            for _ in 0..(3 + rng.below(10)) {
                let p = rng.below(preds.len());
                let row: Vec<Cst> = (0..arity[p]).map(|_| csts[rng.below(csts.len())]).collect();
                db.insert(preds[p], &row);
            }
            // Random goals: one or two atoms, arguments constant with
            // probability 1/2 so all adornment classes occur.
            for _ in 0..4 {
                let ngoal = 1 + rng.below(2);
                let body: Vec<Atom> = (0..ngoal)
                    .map(|_| {
                        let p = rng.below(preds.len());
                        let args = (0..arity[p])
                            .map(|_| {
                                if rng.below(2) == 0 {
                                    Term::Const(csts[rng.below(csts.len())])
                                } else {
                                    Term::Var(vars[rng.below(vars.len())])
                                }
                            })
                            .collect();
                        Atom::new(preds[p], args)
                    })
                    .collect();
                let out_vars: Vec<Var> = {
                    let mut vs: Vec<Var> = body.iter().flat_map(Atom::vars).collect();
                    vs.sort_unstable();
                    vs.dedup();
                    vs
                };
                // Debug builds also validate the overlay in `query_demand`.
                let ans =
                    query_demand(&db, &rules, &body, &out_vars, &IncrementalEval::new()).unwrap();
                assert_eq!(
                    sorted(ans.rows),
                    materialized_answers(&db, &rules, &body, &out_vars),
                    "seed {seed}: demand and materialization disagree"
                );
            }
        }
    }
}
