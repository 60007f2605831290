//! Execution governor: budgets, cooperative cancellation, and
//! deterministic fault injection for the fixpoint engine.
//!
//! The paper's least fixpoints are in general **infinite** (§1, §2.5), so
//! any evaluator that materializes rows must assume it can be pointed at a
//! program whose fixpoint never converges or converges only after
//! exhausting memory. The [`Governor`] is the per-run contract that makes
//! that survivable: a declarative [`Budget`] (wall-clock deadline, derived
//! rows, fixpoint rounds, approximate row-store bytes), a shared
//! [`CancelToken`] any thread or signal handler can flip, and a
//! [`FaultPlan`] that injects worker panics, synthetic round failures and
//! slow probes deterministically in tests (inert unless configured).
//!
//! Check points are cooperative and two-tier:
//!
//! * **round boundaries** — the evaluator consults the governor between
//!   fixpoint rounds, where the database is consistent. All deterministic
//!   budgets (rounds, rows, bytes, injected round faults) trip here, so a
//!   truncated run is cut at the same place regardless of thread count.
//! * **every [`PROBE_CHECK_INTERVAL`] join probes** — compiled
//!   [`JoinProgram`](crate::JoinProgram) execution polls the deadline and
//!   the cancel token from inside the innermost loop, bounding how long a
//!   single monster round can overshoot. A mid-round trip discards the
//!   whole round's derivation buffer, leaving the database in the last
//!   completed round.
//!
//! Either way the evaluator returns [`EvalError`] instead of panicking or
//! hanging, carrying the committed-round statistics as the deterministic
//! partial result.

use crate::engine::EvalStats;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Join probes between deadline/cancellation polls inside compiled program
/// execution. A power of two: the check compiles to one mask-and-branch on
/// the probe counter the inner loop already maintains, keeping governor
/// overhead within noise (see EXPERIMENTS, governor overhead table).
pub const PROBE_CHECK_INTERVAL: usize = 1024;

pub(crate) const PROBE_CHECK_MASK: usize = PROBE_CHECK_INTERVAL - 1;

/// Round boundaries poll the wall clock every this many rounds (power of
/// two; round 1 always polls). See `Governor::begin_round`.
pub(crate) const DEADLINE_ROUND_STRIDE: usize = 8;

/// The budgeted resource a truncated evaluation ran out of.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// [`Budget::max_rows`]: derived-row limit reached.
    Rows,
    /// [`Budget::max_rounds`]: fixpoint-round limit reached.
    Rounds,
    /// [`Budget::max_millis`]: the wall-clock deadline passed.
    Time,
    /// [`Budget::max_bytes`]: the approximate row-store footprint limit.
    Bytes,
    /// The [`CancelToken`] was flipped (Ctrl-C, another thread, …).
    Cancelled,
    /// An injected `fail_round` fault (tests only; see [`FaultPlan`]).
    Fault,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Resource::Rows => "derived-row budget",
            Resource::Rounds => "round budget",
            Resource::Time => "deadline",
            Resource::Bytes => "byte budget",
            Resource::Cancelled => "cancellation",
            Resource::Fault => "injected fault",
        })
    }
}

/// Why an evaluation stopped before reaching the fixpoint.
///
/// Both variants leave the database in a deterministic, consistent state:
/// the rows present are exactly a prefix of the rows an unbudgeted run
/// would have inserted, in the same order, at any thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A budget ran out or the run was cancelled. `partial` is the
    /// statistics snapshot at the truncation point (committed rounds plus,
    /// for the row budget, the deterministic partial merge).
    BudgetExhausted {
        /// Which budget tripped.
        resource: Resource,
        /// Counters for the work that *was* committed.
        partial: EvalStats,
    },
    /// An evaluation task panicked. The panic was caught on the worker, the
    /// round's buffer was discarded, and the database is the last completed
    /// round — the process never aborts.
    WorkerPanicked {
        /// Deterministic global index of the poisoned task.
        task: usize,
        /// The panic payload, rendered as text.
        payload: String,
    },
    /// The durable-log sink attached to the run
    /// ([`IncrementalEval::run_with_sink`](crate::IncrementalEval::run_with_sink))
    /// failed to persist a committed round. The in-memory database still
    /// holds every completed round, but the write-ahead log ends at the
    /// last round whose commit marker reached the sink, so recovery will
    /// land on that earlier completed-round prefix.
    WalFailed {
        /// The sink's error, rendered as text (typically an `io::Error`).
        detail: String,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::BudgetExhausted { resource, partial } => write!(
                f,
                "evaluation truncated by {resource} after {} derived row(s) in {} round(s)",
                partial.derived, partial.rounds
            ),
            EvalError::WorkerPanicked { task, payload } => {
                write!(f, "evaluation task {task} panicked: {payload}")
            }
            EvalError::WalFailed { detail } => {
                write!(f, "durable log write failed: {detail}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Declarative per-run resource limits. `None` everywhere (the default)
/// means unlimited.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum derived rows (across every run sharing the governor).
    pub max_rows: Option<usize>,
    /// Maximum fixpoint rounds (across every run sharing the governor).
    /// Only rounds with tasks count: a run whose selection finds no task
    /// ends without starting a round.
    pub max_rounds: Option<usize>,
    /// Wall-clock deadline, in milliseconds from the first governed run.
    pub max_millis: Option<u64>,
    /// Approximate row-store footprint ceiling, in bytes (checked at round
    /// boundaries against [`Database::approx_bytes`](crate::Database::approx_bytes)).
    pub max_bytes: Option<usize>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps derived rows. Builder form.
    pub fn with_max_rows(mut self, n: usize) -> Budget {
        self.max_rows = Some(n);
        self
    }

    /// Caps fixpoint rounds. Builder form.
    pub fn with_max_rounds(mut self, n: usize) -> Budget {
        self.max_rounds = Some(n);
        self
    }

    /// Sets the wall-clock deadline. Builder form.
    pub fn with_max_millis(mut self, ms: u64) -> Budget {
        self.max_millis = Some(ms);
        self
    }

    /// Caps the approximate row-store footprint. Builder form.
    pub fn with_max_bytes(mut self, bytes: usize) -> Budget {
        self.max_bytes = Some(bytes);
        self
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }
}

/// A shared cancellation flag: cheap to clone, safe to flip from another
/// thread or a signal handler (one atomic store).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, unset token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; governed evaluations return
    /// [`Resource::Cancelled`] at their next check point.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Clears the flag so the token can govern the next run (REPL reuse
    /// after a cancelled command).
    pub fn clear(&self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Deterministic fault injection, inert by default. Configured either
/// programmatically (tests) or through the `FUNDB_FAULT` environment
/// variable, whose value is a comma-separated list of `kind:n` knobs:
///
/// * `panic_task:N` — the task with deterministic global index `N` panics
///   before executing, exercising worker panic isolation;
/// * `fail_round:N` — the `N`-th fixpoint round (1-based, counted across
///   runs sharing a governor) reports [`Resource::Fault`] at its boundary,
///   exercising mid-fixpoint budget exhaustion;
/// * `slow_probe:N` — every probe-level governor check sleeps `N`
///   microseconds, driving deadline hits without timing races.
///
/// IO faults, consumed by the durable-storage layer (`fundb-storage`) to
/// drive crash-recovery tests; the in-memory evaluator ignores them:
///
/// * `torn_write:N` — the `N`-th record appended through a WAL handle
///   (1-based) reaches the file only as a prefix, as if the process died
///   mid-`write`, and the handle goes dead;
/// * `short_read:N` — the recovery scan treats the `N`-th log record as
///   cut off by end-of-file, exercising truncation of an incomplete tail;
/// * `fsync_fail:N` — the `N`-th explicit durability sync on a WAL handle
///   reports an IO error;
/// * `crash_after_record:N` — after `N` records were appended through a
///   WAL handle, every further append fails, simulating a process that
///   loses its log mid-run but keeps executing in memory.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Global index of the task that panics.
    pub panic_task: Option<usize>,
    /// 1-based global round that fails at its boundary.
    pub fail_round: Option<usize>,
    /// Microseconds slept at each probe-level check.
    pub slow_probe: Option<u64>,
    /// 1-based WAL record whose append is cut short (IO fault).
    pub torn_write: Option<usize>,
    /// 1-based WAL record the recovery scan sees as truncated (IO fault).
    pub short_read: Option<usize>,
    /// 1-based durability sync that reports an IO error (IO fault).
    pub fsync_fail: Option<usize>,
    /// Appended records after which the WAL handle rejects writes (IO
    /// fault).
    pub crash_after_record: Option<usize>,
}

impl FaultPlan {
    /// Parses a `FUNDB_FAULT`-style spec (`"panic_task:3,slow_probe:500"`).
    /// Unknown or malformed knobs are skipped with a one-line warning on
    /// stderr: fault injection must never turn a production run into a
    /// parse error, but a typo in a test matrix must not silently disarm
    /// the fault either.
    pub fn parse(spec: &str) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for knob in spec.split(',') {
            if knob.trim().is_empty() {
                continue;
            }
            let Some((kind, n)) = knob.split_once(':') else {
                eprintln!(
                    "warning: FUNDB_FAULT knob `{}` has no `:value`; skipped",
                    knob.trim()
                );
                continue;
            };
            match (kind.trim(), n.trim().parse::<u64>()) {
                ("panic_task", Ok(n)) => plan.panic_task = Some(n as usize),
                ("fail_round", Ok(n)) => plan.fail_round = Some(n as usize),
                ("slow_probe", Ok(n)) => plan.slow_probe = Some(n),
                ("torn_write", Ok(n)) => plan.torn_write = Some(n as usize),
                ("short_read", Ok(n)) => plan.short_read = Some(n as usize),
                ("fsync_fail", Ok(n)) => plan.fsync_fail = Some(n as usize),
                ("crash_after_record", Ok(n)) => plan.crash_after_record = Some(n as usize),
                (kind, Err(_)) => {
                    eprintln!(
                        "warning: FUNDB_FAULT knob `{kind}` has a malformed count `{}`; skipped",
                        n.trim()
                    );
                }
                (kind, Ok(_)) => {
                    eprintln!("warning: FUNDB_FAULT knob `{kind}` is unknown; skipped");
                }
            }
        }
        plan
    }

    /// The process-wide plan from the `FUNDB_FAULT` environment variable,
    /// read once and cached (the default for every governor).
    pub fn from_env() -> &'static FaultPlan {
        static PLAN: OnceLock<FaultPlan> = OnceLock::new();
        PLAN.get_or_init(|| {
            std::env::var("FUNDB_FAULT")
                .map(|v| FaultPlan::parse(&v))
                .unwrap_or_default()
        })
    }

    /// True when no fault is armed.
    pub fn is_inert(&self) -> bool {
        *self == FaultPlan::default()
    }
}

#[derive(Debug)]
struct GovInner {
    budget: Budget,
    cancel: CancelToken,
    fault: FaultPlan,
    /// Armed at the first governed run, so `max_millis` spans a whole
    /// multi-run computation (e.g. every local fixpoint of one engine
    /// solve) rather than restarting per run.
    deadline: OnceLock<Instant>,
    /// Derived rows committed so far, across runs sharing this governor.
    rows: AtomicUsize,
    /// Fixpoint rounds started so far, across runs sharing this governor.
    rounds: AtomicUsize,
    /// Next deterministic global task index (advanced per round by the
    /// coordinating thread, never by workers).
    task_base: AtomicUsize,
}

/// The shared execution-governor handle threaded through every evaluation
/// loop. Clones share all state (an `Arc`), so one governor can bound a
/// whole multi-fixpoint computation and one `cancel` stops all of it.
#[derive(Clone, Debug)]
pub struct Governor {
    inner: Arc<GovInner>,
}

impl Default for Governor {
    fn default() -> Self {
        Governor::new(Budget::unlimited())
    }
}

impl Governor {
    /// A governor enforcing `budget`, with a fresh cancel token and the
    /// process-wide (`FUNDB_FAULT`) fault plan.
    pub fn new(budget: Budget) -> Governor {
        Governor {
            inner: Arc::new(GovInner {
                budget,
                cancel: CancelToken::new(),
                fault: *FaultPlan::from_env(),
                deadline: OnceLock::new(),
                rows: AtomicUsize::new(0),
                rounds: AtomicUsize::new(0),
                task_base: AtomicUsize::new(0),
            }),
        }
    }

    /// Replaces the cancel token (e.g. with one a signal handler owns).
    /// Builder form; must be called before the governor is shared.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Governor {
        Arc::get_mut(&mut self.inner)
            .expect("with_cancel_token before the governor is shared")
            .cancel = token;
        self
    }

    /// Replaces the fault plan (tests). Builder form; must be called before
    /// the governor is shared.
    pub fn with_faults(mut self, fault: FaultPlan) -> Governor {
        Arc::get_mut(&mut self.inner)
            .expect("with_faults before the governor is shared")
            .fault = fault;
        self
    }

    /// The budget this governor enforces.
    pub fn budget(&self) -> &Budget {
        &self.inner.budget
    }

    /// A clone of the cancel token, for handing to other threads or signal
    /// handlers.
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Requests cancellation of every evaluation this governor governs.
    pub fn cancel(&self) {
        self.inner.cancel.cancel();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancel.is_cancelled()
    }

    /// Derived rows committed under this governor so far.
    pub fn rows_used(&self) -> usize {
        self.inner.rows.load(Ordering::Relaxed)
    }

    /// Fixpoint rounds started under this governor so far.
    pub fn rounds_used(&self) -> usize {
        self.inner.rounds.load(Ordering::Relaxed)
    }

    /// Lightweight cancellation/deadline gate for governed *read-side* work
    /// (spec freezing, batch answering) that is not organized in fixpoint
    /// rounds. Checks, in order, cancellation then the wall-clock deadline
    /// (arming it on first use, like any governed run), and advances no row
    /// or round counters. Callers poll this at chunk boundaries.
    pub fn checkpoint(&self) -> Result<(), Resource> {
        if self.inner.cancel.is_cancelled() {
            return Err(Resource::Cancelled);
        }
        if let Some(deadline) = self.deadline() {
            if Instant::now() >= deadline {
                return Err(Resource::Time);
            }
        }
        Ok(())
    }

    /// The wall-clock deadline, armed on first call (i.e. when the first
    /// governed run starts).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        let ms = self.inner.budget.max_millis?;
        Some(
            *self
                .inner
                .deadline
                .get_or_init(|| Instant::now() + Duration::from_millis(ms)),
        )
    }

    /// The active fault plan.
    pub(crate) fn fault(&self) -> &FaultPlan {
        &self.inner.fault
    }

    /// The byte ceiling, if any (the evaluator supplies the measurement —
    /// the governor does not know about databases).
    pub(crate) fn max_bytes(&self) -> Option<usize> {
        self.inner.budget.max_bytes
    }

    /// Round-boundary gate: called by the coordinating thread before each
    /// fixpoint round, while the database is consistent. Advances the
    /// shared round counter and reports, in a fixed order (fault,
    /// cancellation, deadline, round budget) so the tripping resource is
    /// deterministic, whether the next round may start.
    pub(crate) fn begin_round(&self) -> Result<(), Resource> {
        let started = self.inner.rounds.fetch_add(1, Ordering::Relaxed) + 1;
        if self.inner.fault.fail_round == Some(started) {
            return Err(Resource::Fault);
        }
        if self.inner.cancel.is_cancelled() {
            return Err(Resource::Cancelled);
        }
        if let Some(deadline) = self.deadline() {
            // Amortized clock read: round 1 and every 8th boundary after.
            // Micro-round workloads (E4-style, thousands of sub-millisecond
            // rounds) pay measurably for a per-round `Instant::now()`, while
            // long rounds are already bounded by the exact probe-level
            // checks, so an 8-round poll stride keeps deadline response
            // tight at ~1/8 the cost.
            if started & (DEADLINE_ROUND_STRIDE - 1) == 1 && Instant::now() >= deadline {
                return Err(Resource::Time);
            }
        }
        if let Some(max) = self.inner.budget.max_rounds {
            if started > max {
                return Err(Resource::Rounds);
            }
        }
        Ok(())
    }

    /// Rolls the round counter back when a gated round never ran (the gate
    /// itself failed), so [`rounds_used`](Self::rounds_used) counts rounds
    /// that actually started.
    pub(crate) fn abort_round(&self) {
        self.inner.rounds.fetch_sub(1, Ordering::Relaxed);
    }

    /// Reserves `n` deterministic global task indexes for a round and
    /// returns the first (coordinator only).
    pub(crate) fn reserve_tasks(&self, n: usize) -> usize {
        self.inner.task_base.fetch_add(n, Ordering::Relaxed)
    }

    /// Records one committed derived row; `false` means the row budget is
    /// now exhausted (this row was the last one allowed) and the merge must
    /// stop (coordinator only, so the cut point is deterministic).
    pub(crate) fn note_row(&self) -> bool {
        let used = self.inner.rows.fetch_add(1, Ordering::Relaxed) + 1;
        match self.inner.budget.max_rows {
            None => true,
            Some(max) => used < max,
        }
    }

    /// The per-round probe-check context workers poll from the inner join
    /// loop.
    pub(crate) fn probe_guard<'a>(&'a self, abort: Option<&'a AtomicBool>) -> ProbeGuard<'a> {
        ProbeGuard {
            cancel: &self.inner.cancel,
            abort,
            deadline: self.deadline(),
            slow_probe: self.inner.fault.slow_probe,
        }
    }
}

/// Per-round view of the governor polled inside compiled join execution
/// (every [`PROBE_CHECK_INTERVAL`] probes): deadline, cancellation, and the
/// round's shared abort flag (set when a sibling worker already failed).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProbeGuard<'a> {
    cancel: &'a CancelToken,
    /// The round's poison flag under parallel execution: when a sibling
    /// task fails, everyone else stops at the next check instead of
    /// finishing work whose round is already doomed.
    abort: Option<&'a AtomicBool>,
    deadline: Option<Instant>,
    slow_probe: Option<u64>,
}

impl ProbeGuard<'_> {
    /// The probe-level check. `Err` aborts the current task; the round's
    /// buffer is then discarded by the evaluator, so a mid-round trip
    /// leaves the database in the last completed round.
    #[cold]
    pub(crate) fn check(&self) -> Result<(), Resource> {
        if let Some(us) = self.slow_probe {
            std::thread::sleep(Duration::from_micros(us));
        }
        if self.cancel.is_cancelled() {
            return Err(Resource::Cancelled);
        }
        if let Some(abort) = self.abort {
            if abort.load(Ordering::Relaxed) {
                // A sibling already failed; the specific resource is
                // recorded by whoever tripped first.
                return Err(Resource::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Resource::Time);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_parses_knobs_and_ignores_junk() {
        let plan = FaultPlan::parse("panic_task:3, fail_round:2 ,slow_probe:1000");
        assert_eq!(plan.panic_task, Some(3));
        assert_eq!(plan.fail_round, Some(2));
        assert_eq!(plan.slow_probe, Some(1000));
        assert!(FaultPlan::parse("").is_inert());
        assert!(FaultPlan::parse("nonsense").is_inert());
        assert!(FaultPlan::parse("panic_task:notanumber").is_inert());
        assert!(FaultPlan::parse("unknown_knob:7").is_inert());
    }

    #[test]
    fn fault_plan_parses_io_knobs() {
        let plan =
            FaultPlan::parse("torn_write:4,short_read:2, fsync_fail:1 ,crash_after_record:9");
        assert_eq!(plan.torn_write, Some(4));
        assert_eq!(plan.short_read, Some(2));
        assert_eq!(plan.fsync_fail, Some(1));
        assert_eq!(plan.crash_after_record, Some(9));
        assert!(plan.panic_task.is_none());
    }

    #[test]
    fn fault_plan_parse_edge_cases_skip_without_disarming_the_rest() {
        // A malformed knob in the middle must not swallow its neighbours.
        let plan = FaultPlan::parse("torn_write:abc,fail_round:2,:,7,fsync_fail:-1,short_read:3");
        assert_eq!(plan.fail_round, Some(2));
        assert_eq!(plan.short_read, Some(3));
        assert!(plan.torn_write.is_none(), "non-numeric count is skipped");
        assert!(plan.fsync_fail.is_none(), "negative count is skipped");
        // Empty fragments (trailing commas) are not worth a warning.
        assert_eq!(
            FaultPlan::parse("slow_probe:5,,").slow_probe,
            Some(5),
            "empty fragments are ignored"
        );
        // Whitespace-heavy but well-formed input still parses.
        assert_eq!(
            FaultPlan::parse("  crash_after_record : 12  ").crash_after_record,
            Some(12)
        );
    }

    #[test]
    fn cancel_token_is_shared_through_clones() {
        let gov = Governor::default();
        let token = gov.cancel_token();
        let clone = gov.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        token.clear();
        assert!(!gov.is_cancelled());
    }

    #[test]
    fn round_gate_orders_resources_deterministically() {
        let gov =
            Governor::new(Budget::unlimited().with_max_rounds(2)).with_faults(FaultPlan::default());
        assert_eq!(gov.begin_round(), Ok(()));
        assert_eq!(gov.begin_round(), Ok(()));
        assert_eq!(gov.begin_round(), Err(Resource::Rounds));
        // Cancellation outranks the round budget.
        gov.cancel();
        assert_eq!(gov.begin_round(), Err(Resource::Cancelled));
    }

    #[test]
    fn fail_round_fault_trips_exactly_once_at_its_round() {
        let gov = Governor::default().with_faults(FaultPlan::parse("fail_round:2"));
        assert_eq!(gov.begin_round(), Ok(()));
        assert_eq!(gov.begin_round(), Err(Resource::Fault));
        assert_eq!(gov.begin_round(), Ok(()));
    }

    #[test]
    fn row_budget_counts_across_runs() {
        let gov = Governor::new(Budget::unlimited().with_max_rows(3));
        assert!(gov.note_row());
        assert!(gov.note_row());
        assert!(!gov.note_row()); // the third row consumes the budget
        assert_eq!(gov.rows_used(), 3);
    }

    #[test]
    fn deadline_arms_once_and_trips() {
        let gov = Governor::new(Budget::unlimited().with_max_millis(0));
        let d1 = gov.deadline().unwrap();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(gov.deadline(), Some(d1), "deadline must not re-arm");
        assert_eq!(gov.begin_round(), Err(Resource::Time));
    }

    #[test]
    fn errors_render_for_humans() {
        let e = EvalError::BudgetExhausted {
            resource: Resource::Rows,
            partial: EvalStats {
                rounds: 2,
                derived: 10,
                ..EvalStats::default()
            },
        };
        assert_eq!(
            e.to_string(),
            "evaluation truncated by derived-row budget after 10 derived row(s) in 2 round(s)"
        );
        let p = EvalError::WorkerPanicked {
            task: 7,
            payload: "boom".into(),
        };
        assert_eq!(p.to_string(), "evaluation task 7 panicked: boom");
    }
}
