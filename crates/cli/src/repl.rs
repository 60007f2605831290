//! An interactive read-eval-print loop over a workspace.
//!
//! ```text
//! fundb> Meets(t, x), Next(x, y) -> Meets(t+1, y).
//! fundb> Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).
//! fundb> ?- Meets(t, x).
//!   0: (Tony)
//!   1: (Jan)
//!   …
//! fundb> :check Meets(100, Tony)
//! true
//! fundb> :show
//! fundb> :save meets.fspec
//! fundb> :quit
//! ```
//!
//! The specification is recomputed lazily: adding rules or facts
//! invalidates the cached spec; queries and checks rebuild it on demand.

use fundb_core::{
    analysis, write_spec_file, write_spec_file_binary, Budget, CancelToken, EvalError, Governor,
    GraphSpec, ServeQuery,
};
use fundb_parser::Workspace;
use fundb_storage::{DurableDb, OpenDurable, WalStats};
use std::io::Write;

/// The REPL state machine; drives one line at a time (testable without a
/// terminal).
pub struct Repl {
    ws: Workspace,
    spec: Option<GraphSpec>,
    /// Enumeration limit for query answers.
    pub limit: usize,
    done: bool,
    /// Session budget applied to every evaluation (`:budget` to adjust).
    budget: Budget,
    /// Shared cancellation token (`:cancel`, or SIGINT in the interactive
    /// loop).
    cancel: CancelToken,
    /// Whether any evaluation in this session stopped on a budget, a
    /// cancellation or a worker panic (non-interactive runs exit non-zero).
    eval_failed: bool,
    /// Accumulated goal-directed query counters (magic rules synthesized,
    /// demand-set sizes) from `?-` answers, surfaced by `:stats`.
    demand: fundb_datalog::EvalStats,
    /// Durable session journal (`:open <dir>`): every accepted program
    /// line is appended to the directory's WAL and committed, so a crashed
    /// session replays to exactly the lines that were acknowledged.
    session: Option<DurableDb>,
    /// Cumulative incremental-retraction counters (`:retract`), surfaced
    /// by `:stats`: rows tombstoned and rows the re-derive pass restored.
    retract: fundb_datalog::EvalStats,
}

impl Default for Repl {
    fn default() -> Self {
        Self::new()
    }
}

impl Repl {
    /// Creates an empty session.
    pub fn new() -> Self {
        Repl {
            ws: Workspace::new(),
            spec: None,
            limit: 8,
            done: false,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            eval_failed: false,
            demand: fundb_datalog::EvalStats::default(),
            session: None,
            retract: fundb_datalog::EvalStats::default(),
        }
    }

    /// Whether `:quit` has been issued.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether any evaluation was truncated by a budget, cancelled, or lost
    /// a worker to a panic during this session.
    pub fn eval_failed(&self) -> bool {
        self.eval_failed
    }

    /// The cancellation token governing this session's evaluations (shared
    /// with the SIGINT handler in interactive mode).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Direct access to the underlying workspace.
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// A fresh governor for the next evaluation: current budget, the
    /// session's (cleared) cancel token. Budget counters are per-run, so
    /// each rebuild starts from zero.
    fn arm_governor(&mut self) {
        self.cancel.clear();
        self.ws.set_governor(
            Governor::new(self.budget.clone()).with_cancel_token(self.cancel.clone()),
        );
    }

    fn spec(&mut self) -> Result<&GraphSpec, fundb_core::Error> {
        if self.spec.is_none() {
            self.arm_governor();
            self.spec = Some(self.ws.graph_spec()?);
        }
        Ok(self.spec.as_ref().expect("just built"))
    }

    /// Reports an error, expanding evaluation truncations with their
    /// partial-result counters, and records them for the exit status.
    fn report_error(&mut self, e: &fundb_core::Error, out: &mut dyn Write) -> std::io::Result<()> {
        if let fundb_core::Error::Eval(ev) = e {
            self.eval_failed = true;
            return match ev {
                EvalError::BudgetExhausted { resource, partial } => writeln!(
                    out,
                    "error: evaluation stopped by {resource}: kept a deterministic partial \
                     result of {} derived row(s) in {} round(s) (adjust with :budget)",
                    partial.derived, partial.rounds
                ),
                EvalError::WorkerPanicked { task, payload } => writeln!(
                    out,
                    "error: evaluation task {task} panicked ({payload}); \
                     database rolled back to the last completed round"
                ),
                EvalError::WalFailed { detail } => writeln!(
                    out,
                    "error: durable log write failed ({detail}); the in-memory \
                     database keeps every completed round, but the session is \
                     no longer being journaled — reopen with :open"
                ),
            };
        }
        writeln!(out, "error: {e}")
    }

    /// Processes one input line, writing any output to `out`.
    pub fn line(&mut self, input: &str, out: &mut dyn Write) -> std::io::Result<()> {
        let input = input.trim();
        if input.is_empty() || input.starts_with('%') || input.starts_with("//") {
            return Ok(());
        }
        // Evaluation errors reach `report_error` inside dispatch; this
        // branch only sees I/O failures on `out` itself.
        let result = self.dispatch(input, out);
        if let Err(e) = result {
            writeln!(out, "error: {e}")?;
        }
        Ok(())
    }

    fn dispatch(&mut self, input: &str, out: &mut dyn Write) -> std::io::Result<()> {
        if let Some(cmd) = input.strip_prefix(':') {
            return self.command(cmd, out);
        }
        if let Some(body) = input.strip_prefix("?-") {
            return self.query(body.trim().trim_end_matches('.'), out);
        }
        // Program text: rules and/or facts.
        match self.ws.parse(input) {
            Ok(()) => {
                self.spec = None; // invalidate
                self.journal_line(input, out)?;
                // Execute any queries embedded in the fragment.
                let queries = std::mem::take(&mut self.ws.queries);
                for q in queries {
                    self.run_query(&q, out)?;
                }
            }
            Err(e) => writeln!(out, "error: {e}")?,
        }
        Ok(())
    }

    /// Journals one accepted program fragment into the durable session, if
    /// one is attached (`:open`): a `Note` record followed by a committed
    /// round marker, so recovery replays exactly the acknowledged lines.
    fn journal_line(&mut self, text: &str, out: &mut dyn Write) -> std::io::Result<()> {
        let Some(session) = self.session.as_mut() else {
            return Ok(());
        };
        if let Err(e) = session.append_note(text).and_then(|()| session.commit()) {
            self.session = None;
            let err = fundb_core::Error::Eval(EvalError::WalFailed {
                detail: e.to_string(),
            });
            return self.report_error(&err, out);
        }
        Ok(())
    }

    fn command(&mut self, cmd: &str, out: &mut dyn Write) -> std::io::Result<()> {
        let mut parts = cmd.split_whitespace();
        match parts.next() {
            Some("quit") | Some("q") | Some("exit") => {
                self.done = true;
            }
            Some("help") | Some("h") => {
                writeln!(
                    out,
                    ":check <fact>   membership against the current spec\n\
                     :explain <fact> derivation tree for a fact\n\
                     :show           print the specification\n\
                     :minimize       print the bisimulation-minimized spec\n\
                     :analyze        finiteness report\n\
                     :stats          LFP engine counters for the session program\n\
                     :plan <query>   adorned magic-set rewrite and join order for a goal\n\
                     \x20               (in a functional session: the compiled star-local rules)\n\
                     :bench-serve [n] frozen-spec serving throughput on n queries (default 2048)\n\
                     :save <path> [--binary]  write the spec to a .fspec file \
                     (text v1, or binary v2 with --binary)\n\
                     :retract <fact> remove an asserted base fact; derived \
                     consequences are repaired incrementally (over-delete + re-derive)\n\
                     :open <dir>     attach a durable session journal: accepted \
                     lines are WAL-logged and replayed on reopen after a crash\n\
                     :wal-stats      durable session counters and recovery report\n\
                     :limit <n>      set the query enumeration limit\n\
                     :budget <rows|rounds|ms|bytes> <n>  cap evaluations (0 = unlimited)\n\
                     :cancel         request cancellation of governed evaluations\n\
                     :load <path>    parse a program file into the session\n\
                     :quit           leave\n\
                     Anything else: rules/facts (`P(t) -> Q(t+1).`) or queries (`?- Q(t).`)."
                )?;
            }
            Some("explain") => {
                let fact: String = parts.collect::<Vec<_>>().join(" ");
                if fact.is_empty() {
                    writeln!(out, "usage: :explain <fact>")?;
                } else if let Err(e) = crate::explain_fact(&self.ws, &fact, None, out) {
                    writeln!(out, "error: {e:?}")?;
                }
            }
            Some("check") => {
                let fact: String = parts.collect::<Vec<_>>().join(" ");
                if fact.is_empty() {
                    writeln!(out, "usage: :check <fact>")?;
                } else {
                    self.spec_or_report(out, |ws, spec, out| {
                        match ws.holds(spec, fact.trim_end_matches('.')) {
                            Ok(v) => writeln!(out, "{v}"),
                            Err(e) => writeln!(out, "error: {e}"),
                        }
                    })?;
                }
            }
            Some("show") => {
                self.spec_or_report(out, |ws, spec, out| {
                    write!(out, "{}", spec.render(&ws.interner))
                })?;
            }
            Some("minimize") => {
                self.spec_or_report(out, |ws, spec, out| {
                    write!(out, "{}", spec.minimized().render(&ws.interner))
                })?;
            }
            Some("analyze") => {
                self.spec_or_report(out, |_, spec, out| {
                    let report = analysis::analyze(spec);
                    writeln!(
                        out,
                        "clusters: {}, primary tuples: {}, fixpoint {}",
                        spec.cluster_count(),
                        spec.primary_size(),
                        if report.finite {
                            format!("FINITE ({:?} facts)", report.functional_fact_count)
                        } else {
                            "INFINITE".to_string()
                        }
                    )
                })?;
            }
            Some("retract") => {
                let fact: String = parts.collect::<Vec<_>>().join(" ");
                if fact.is_empty() {
                    writeln!(out, "usage: :retract <fact>")?;
                } else {
                    self.retract(fact.trim_end_matches('.'), out)?;
                }
            }
            Some("stats") => {
                // Solve the session program with the LFP engine and report
                // its instrumentation counters (semi-naive delta sizes,
                // join probes, index hits/misses).
                let program = self.ws.program.clone();
                let db = self.ws.db.clone();
                self.arm_governor();
                match fundb_core::Engine::build(&program, &db, &mut self.ws.interner) {
                    Ok(mut engine) => {
                        engine.set_governor(self.ws.governor().clone());
                        if let Err(e) = engine.solve() {
                            return self.report_error(&e, out);
                        }
                        let (wal, recovered_rounds) =
                            self.session.as_ref().map_or((WalStats::default(), 0), |d| {
                                (d.wal_stats(), d.recovery().replayed_rounds)
                            });
                        let s = engine.stats();
                        writeln!(
                            out,
                            "passes: {}, top evals: {}, uniform evals: {}, memo entries: {}",
                            s.passes,
                            s.top_evals,
                            s.uniform_evals,
                            engine.memo_len()
                        )?;
                        writeln!(
                            out,
                            "delta atoms per pass: {:?} (total {})",
                            s.pass_deltas, s.delta_atoms
                        )?;
                        writeln!(
                            out,
                            "datalog rounds: {}, derived rows: {}, join probes: {}, \
                             index hits: {}, index misses: {}",
                            s.datalog_rounds,
                            s.derived_rows,
                            s.join_probes,
                            s.index_hits,
                            s.index_misses
                        )?;
                        writeln!(
                            out,
                            "magic rules: {}, demanded tuples: {} \
                             (goal-directed queries this session; see :plan)",
                            self.demand.magic_rules, self.demand.demanded_tuples
                        )?;
                        writeln!(
                            out,
                            "incremental retraction: retractions: {}, \
                             rederived: {} (session totals from :retract)",
                            self.retract.retractions, self.retract.rederived
                        )?;
                        writeln!(
                            out,
                            "durable log: wal records: {}, round commits: {}, \
                             recovered rounds: {} (0 unless a session is \
                             attached with :open)",
                            wal.records, wal.round_commits, recovered_rounds
                        )?;
                        writeln!(
                            out,
                            "eval threads: {} (override with FUNDB_THREADS; \
                             results are thread-count independent)",
                            engine.threads()
                        )?;
                    }
                    Err(e) => writeln!(out, "error: {e}")?,
                }
            }
            Some("bench-serve") => {
                let n: usize = parts.next().and_then(|v| v.parse().ok()).unwrap_or(2048);
                self.bench_serve(n.max(1), out)?;
            }
            Some("plan") => {
                let body: String = parts.collect::<Vec<_>>().join(" ");
                if body.is_empty() {
                    writeln!(out, "usage: :plan <query>")?;
                } else {
                    let text = body
                        .trim()
                        .trim_start_matches("?-")
                        .trim()
                        .trim_end_matches('.');
                    match self.ws.parse_query(text) {
                        Ok(q) => self.plan_query(&q, out)?,
                        Err(e) => writeln!(out, "error: {e}")?,
                    }
                }
            }
            Some("save") => {
                let args: Vec<&str> = parts.collect();
                let binary = args.iter().any(|a| matches!(*a, "--binary" | "-b"));
                let path = args
                    .iter()
                    .find(|a| !matches!(**a, "--binary" | "-b"))
                    .map(|s| s.to_string());
                match path {
                    Some(path) => {
                        self.arm_governor();
                        match self.ws.spec_bundle().and_then(|bundle| {
                            if binary {
                                write_spec_file_binary(&path, &bundle, &self.ws.interner)
                            } else {
                                write_spec_file(&path, &bundle, &self.ws.interner)
                            }
                        }) {
                            Ok(()) => writeln!(
                                out,
                                "wrote {path} ({})",
                                if binary { "binary v2" } else { "text v1" }
                            )?,
                            Err(e) => self.report_error(&e, out)?,
                        }
                    }
                    None => writeln!(out, "usage: :save <path> [--binary]")?,
                }
            }
            Some("open") => match parts.next() {
                Some(dir) => {
                    match fundb_datalog::Database::open_durable(
                        std::path::Path::new(dir),
                        &mut self.ws.interner,
                    ) {
                        Ok(session) => {
                            let lines: Vec<String> = session.notes().to_vec();
                            let report = session.recovery().clone();
                            self.session = Some(session);
                            let mut replayed = 0usize;
                            for text in &lines {
                                // Journaled `:retract` lines replay as base-
                                // fact removals; everything else is program
                                // text.
                                let ok = match text.trim().strip_prefix(":retract") {
                                    Some(f) => self.retract_replay(f.trim().trim_end_matches('.')),
                                    None => self.ws.parse(text).is_ok(),
                                };
                                if ok {
                                    replayed += 1;
                                }
                                self.ws.queries.clear();
                            }
                            if replayed > 0 {
                                self.spec = None;
                            }
                            write!(out, "opened {dir}: replayed {replayed} line(s)")?;
                            if report.dropped_records > 0 || report.truncated_bytes > 0 {
                                write!(
                                    out,
                                    "; recovery truncated {} uncommitted record(s) \
                                     ({} byte(s)) back to the last completed round",
                                    report.dropped_records, report.truncated_bytes
                                )?;
                            }
                            writeln!(out)?;
                        }
                        Err(e) => writeln!(out, "error: cannot open {dir}: {e}")?,
                    }
                }
                None => writeln!(out, "usage: :open <dir>")?,
            },
            Some("wal-stats") => match &self.session {
                Some(session) => {
                    let w = session.wal_stats();
                    let r = session.recovery();
                    writeln!(
                        out,
                        "durable session at {} (snapshot seq {})",
                        session.dir().display(),
                        session.seq()
                    )?;
                    writeln!(
                        out,
                        "wal: {} record(s), {} byte(s), {} round marker(s), \
                         {} flush(es), {} fsync(s)",
                        w.records, w.bytes, w.round_commits, w.flushes, w.syncs
                    )?;
                    writeln!(
                        out,
                        "recovery: replayed {} record(s) ({} fact(s), {} round(s)), \
                         dropped {} uncommitted record(s), truncated {} byte(s)",
                        r.replayed_records,
                        r.replayed_facts,
                        r.replayed_rounds,
                        r.dropped_records,
                        r.truncated_bytes
                    )?;
                }
                None => writeln!(out, "no durable session; attach one with :open <dir>")?,
            },
            Some("limit") => match parts.next().and_then(|v| v.parse().ok()) {
                Some(n) => self.limit = n,
                None => writeln!(out, "usage: :limit <n>")?,
            },
            Some("budget") => {
                let dim = parts.next();
                let n: Option<usize> = parts.next().and_then(|v| v.parse().ok());
                match (dim, n) {
                    (Some(dim @ ("rows" | "rounds" | "ms" | "bytes")), Some(n)) => {
                        let lim = (n > 0).then_some(n);
                        match dim {
                            "rows" => self.budget.max_rows = lim,
                            "rounds" => self.budget.max_rounds = lim,
                            "ms" => self.budget.max_millis = lim.map(|v| v as u64),
                            _ => self.budget.max_bytes = lim,
                        }
                        // Force the next evaluation to run under the new cap.
                        self.spec = None;
                        if self.budget.is_unlimited() {
                            writeln!(out, "budget: unlimited")?;
                        } else {
                            writeln!(out, "budget: {:?}", self.budget)?;
                        }
                    }
                    _ => writeln!(out, "usage: :budget <rows|rounds|ms|bytes> <n>")?,
                }
            }
            Some("cancel") => {
                self.cancel.cancel();
                writeln!(
                    out,
                    "cancellation requested; the next governed check point stops the evaluation"
                )?;
            }
            Some("load") => match parts.next() {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(text) => match self.ws.parse(&text) {
                        Ok(()) => {
                            self.spec = None;
                            let path = path.to_string();
                            self.journal_line(&text, out)?;
                            writeln!(out, "loaded {path}")?;
                        }
                        Err(e) => writeln!(out, "error: {e}")?,
                    },
                    Err(e) => writeln!(out, "error: cannot read {path}: {e}")?,
                },
                None => writeln!(out, "usage: :load <path>")?,
            },
            other => {
                let shown = other.unwrap_or("");
                writeln!(out, "unknown command `:{shown}`; try :help")?;
            }
        }
        Ok(())
    }

    /// Index of the asserted base fact `pred(args)` in the workspace's
    /// fact list, if present (relational facts only).
    fn base_fact_pos(&self, pred: fundb_term::Pred, args: &[fundb_term::Cst]) -> Option<usize> {
        self.ws.db.facts.iter().position(|a| {
            a.fterm().is_none()
                && a.pred() == pred
                && a.args().len() == args.len()
                && a.args()
                    .iter()
                    .zip(args)
                    .all(|(t, c)| t.as_const() == Some(*c))
        })
    }

    /// `:retract <fact>` — removes an asserted relational base fact and
    /// repairs its derived consequences incrementally: the relational
    /// image is retracted with over-delete + re-derive (DRed), the cached
    /// specification is patched in place instead of rebuilt, and the
    /// removal is journaled to the durable session. The `retractions` and
    /// `rederived` counters accumulate into `:stats`.
    fn retract(&mut self, fact: &str, out: &mut dyn Write) -> std::io::Result<()> {
        use fundb_datalog as dl;
        let (pred, fterm, args) = match self.ws.parse_fact(fact) {
            Ok(v) => v,
            Err(e) => return writeln!(out, "error: {e}"),
        };
        if fterm.is_some() {
            return writeln!(
                out,
                "error: only relational base facts can be retracted \
                 incrementally; functional consequences are monotone \
                 engine state — re-enter the program without the fact"
            );
        }
        let Some(pos) = self.base_fact_pos(pred, &args) else {
            return writeln!(out, "no such asserted base fact: {fact}");
        };
        // Incremental maintenance applies to purely relational sessions:
        // bring the relational image to its fixpoint, retract under the
        // session governor, and let the outcome's net cone patch the
        // cached specification. Mixed programs fall back to invalidation.
        let relational = (
            fundb_core::relational_rules(&self.ws.program),
            fundb_core::relational_facts(&self.ws.db),
        );
        let outcome = if let (Some(rules), Some(mut db)) = relational {
            self.arm_governor();
            let plan = dl::DeltaPlan::planned(&rules, &db);
            let mut eval = dl::IncrementalEval::new().with_governor(self.ws.governor().clone());
            if let Err(e) = eval.run(&mut db, &rules, &plan) {
                return self.report_error(&fundb_core::Error::Eval(e), out);
            }
            match db.retract_fact(pred, &args, &rules, &plan, eval.governor()) {
                Ok(o) => Some(o),
                Err(e) => return self.report_error(&fundb_core::Error::Eval(e), out),
            }
        } else {
            None
        };
        self.ws.db.facts.remove(pos);
        match outcome {
            Some(o) => {
                self.retract.retractions += o.stats.retractions;
                self.retract.rederived += o.stats.rederived;
                let patched = match self.spec.as_mut() {
                    Some(spec) => spec.patch_retraction(&o),
                    None => 0,
                };
                writeln!(
                    out,
                    "retracted {fact}: {} row(s) tombstoned, {} re-derived, \
                     {} cached row(s) patched",
                    o.stats.retractions, o.stats.rederived, patched
                )?;
            }
            None => {
                self.spec = None;
                writeln!(
                    out,
                    "retracted {fact}: the specification will be rebuilt on demand"
                )?;
            }
        }
        self.journal_line(&format!(":retract {fact}"), out)
    }

    /// Replays a journaled `:retract` line during `:open`: removes the
    /// base fact without maintenance (no spec is cached at replay time).
    fn retract_replay(&mut self, fact: &str) -> bool {
        let Ok((pred, fterm, args)) = self.ws.parse_fact(fact) else {
            return false;
        };
        if fterm.is_some() {
            return false;
        }
        match self.base_fact_pos(pred, &args) {
            Some(pos) => {
                self.ws.db.facts.remove(pos);
                true
            }
            None => false,
        }
    }

    /// `:bench-serve n` — freezes the current specification and measures
    /// serving throughput on a synthetic membership workload: the per-query
    /// hash-map walk of the mutable spec against one frozen batch pass under
    /// the session governor. Answers are cross-checked.
    fn bench_serve(&mut self, n: usize, out: &mut dyn Write) -> std::io::Result<()> {
        use std::time::{Duration, Instant};
        let spec = match self.spec() {
            Ok(spec) => spec.clone(),
            Err(e) => return self.report_error(&e, out),
        };
        let funcs = spec.funcs.symbols().to_vec();
        let atoms: Vec<_> = spec.atoms.iter().map(|(_, p, a)| (p, a.to_vec())).collect();
        if atoms.is_empty() {
            return writeln!(
                out,
                "bench-serve: the specification has no primary atoms; add facts first"
            );
        }
        // A deterministic workload of overlapping paths: lengths cycle
        // 0..64 and symbols rotate through the vocabulary.
        let queries: Vec<ServeQuery> = (0..n)
            .map(|k| {
                let (pred, args) = &atoms[k % atoms.len()];
                let len = if funcs.is_empty() { 0 } else { k % 64 };
                ServeQuery::Member {
                    pred: *pred,
                    path: (0..len).map(|j| funcs[(k + j) % funcs.len()]).collect(),
                    args: args.clone(),
                }
            })
            .collect();
        let t0 = Instant::now();
        let baseline: Vec<bool> = queries
            .iter()
            .map(|q| match q {
                ServeQuery::Member { pred, path, args } => spec.holds(*pred, path, args),
                ServeQuery::Relational { pred, args } => spec.holds_relational(*pred, args),
            })
            .collect();
        let base_t = t0.elapsed();
        let frozen = spec.freeze();
        let threads = fundb_core::default_threads();
        self.arm_governor();
        let t0 = Instant::now();
        let batch = match frozen.answer_batch(&queries, threads, self.ws.governor()) {
            Ok(answers) => answers,
            Err(e) => return self.report_error(&fundb_core::Error::Eval(e), out),
        };
        let batch_t = t0.elapsed();
        if batch != baseline {
            writeln!(
                out,
                "bench-serve: ANSWER MISMATCH between the frozen and per-query paths \
                 (please report this)"
            )?;
        }
        let qps = |t: Duration| {
            let secs = t.as_secs_f64();
            if secs > 0.0 {
                queries.len() as f64 / secs
            } else {
                f64::INFINITY
            }
        };
        writeln!(
            out,
            "bench-serve: {} membership queries, {} batch worker thread(s)",
            queries.len(),
            threads
        )?;
        writeln!(out, "  per-query walk: {:>12.0} q/s", qps(base_t))?;
        writeln!(out, "  frozen batch:   {:>12.0} q/s", qps(batch_t))
    }

    fn spec_or_report(
        &mut self,
        out: &mut dyn Write,
        f: impl FnOnce(&mut Workspace, &GraphSpec, &mut dyn Write) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        // Build the spec first (immutable afterwards), then let the callback
        // use the workspace for parsing/display.
        if let Err(e) = self.spec().map(|_| ()) {
            return self.report_error(&e, out);
        }
        let spec = self.spec.take().expect("just built");
        let r = f(&mut self.ws, &spec, out);
        self.spec = Some(spec);
        r
    }

    fn query(&mut self, body: &str, out: &mut dyn Write) -> std::io::Result<()> {
        let q = match self.ws.parse_query(body) {
            Ok(q) => q,
            Err(e) => return writeln!(out, "error: {e}"),
        };
        self.run_query(&q, out)
    }

    /// Dumps the adorned magic-set rewrite and chosen join orders for a
    /// purely relational goal; in a functional session, the star-local
    /// rules the engine compiles instead.
    fn plan_query(&mut self, q: &fundb_core::Query, out: &mut dyn Write) -> std::io::Result<()> {
        use fundb_datalog as dl;
        let (Some((body, _)), Some(rules), Some(facts)) = (
            q.to_datalog_goal(),
            fundb_core::relational_rules(&self.ws.program),
            fundb_core::relational_facts(&self.ws.db),
        ) else {
            writeln!(
                out,
                "goal-directed planning applies to purely relational programs \
                 and queries; this session has functional atoms"
            )?;
            return self.plan_star_rules(out);
        };
        let Some(mp) = dl::magic_rewrite(&rules, &body) else {
            return writeln!(
                out,
                "rewrite is a no-op for this goal (all-free or EDB-only): \
                 falls back to full materialization"
            );
        };
        // Compile against the same overlay snapshot query answering would
        // see: base facts plus the ground magic seeds.
        let mut overlay = facts;
        for (p, row) in &mp.seeds {
            overlay.insert(*p, row);
        }
        let stats = overlay.plan_stats();
        writeln!(
            out,
            "goal-directed plan (magic-set rewrite, left-to-right SIP):"
        )?;
        for (p, row) in &mp.seeds {
            let args = row
                .iter()
                .map(|c| self.ws.interner.resolve(c.sym()))
                .collect::<Vec<_>>()
                .join(",");
            writeln!(out, "  {}({args}).", mp.display_pred(*p, &self.ws.interner))?;
        }
        for rule in &mp.rules {
            let head = mp.display_atom(&rule.head, &self.ws.interner);
            let body_text = rule
                .body
                .iter()
                .map(|a| mp.display_atom(a, &self.ws.interner))
                .collect::<Vec<_>>()
                .join(", ");
            let order = dl::JoinProgram::compile_with_stats(rule, None, &stats).atom_order();
            let order_text = order
                .iter()
                .map(|&i| mp.display_pred(rule.body[i].pred, &self.ws.interner))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(out, "  {head} :- {body_text}.  [join order: {order_text}]")?;
        }
        let goal = mp
            .query_body
            .iter()
            .map(|a| mp.display_atom(a, &self.ws.interner))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(out, "  ?- {goal}.")?;
        writeln!(
            out,
            "magic rules: {} ({} ground seed(s)), rewritten rules: {}",
            mp.magic_rule_count,
            mp.seeds.len(),
            mp.rules.len()
        )?;
        Ok(())
    }

    /// Prints the session's compiled star-local program (§2.4 and
    /// `fundb_core::compile`): each mixed child compiles once, lifted.
    fn plan_star_rules(&self, out: &mut dyn Write) -> std::io::Result<()> {
        if fundb_core::relational_rules(&self.ws.program).is_some() {
            return Ok(());
        }
        let mut interner = self.ws.interner.clone();
        let normal = fundb_core::normalize(&self.ws.program, &mut interner);
        let cp = match fundb_core::to_pure(&normal, &self.ws.db, &mut interner)
            .and_then(|pure| fundb_core::CompiledProgram::compile(&pure, &mut interner))
        {
            Ok(cp) => cp,
            Err(e) => return writeln!(out, "error: {e}"),
        };
        writeln!(
            out,
            "star-local plan: {} star rule(s) fired at every context, {} fixed rule(s):",
            cp.star_rules().len(),
            cp.fixed_rules().len()
        )?;
        for rule in cp.star_rules().iter().chain(cp.fixed_rules()) {
            writeln!(out, "  {}", cp.display_rule(rule, &interner))?;
        }
        Ok(())
    }

    fn run_query(&mut self, q: &fundb_core::Query, out: &mut dyn Write) -> std::io::Result<()> {
        // Cold purely-relational goals go goal-directed: the magic rewrite
        // evaluates only the demanded cone into a scratch overlay, skipping
        // spec construction entirely. A cached spec is cheaper than any
        // re-derivation, so this only triggers before the first build (or
        // after invalidation).
        if self.spec.is_none() && q.validate(&self.ws.interner).is_ok() {
            self.arm_governor();
            let gov = self.ws.governor().clone();
            if let Some(result) =
                q.answer_goal_directed(&self.ws.program, &self.ws.db, &self.ws.interner, &gov)
            {
                return match result {
                    Ok(ans) => {
                        self.demand.magic_rules += ans.stats.magic_rules;
                        self.demand.demanded_tuples += ans.stats.demanded_tuples;
                        if crate::write_tuples(out, &ans.rows, &self.ws.interner)? == 0 {
                            writeln!(out, "no answers")?;
                        }
                        Ok(())
                    }
                    Err(e) => self.report_error(&e, out),
                };
            }
        }
        if let Err(e) = self.spec().map(|_| ()) {
            return self.report_error(&e, out);
        }
        let spec = self.spec.take().expect("just built");
        let result = (|| -> std::io::Result<()> {
            if !q.is_uniform() {
                let (ext, qp) = match q.answer_by_extension(
                    &self.ws.program.clone(),
                    &self.ws.db.clone(),
                    &mut self.ws.interner,
                ) {
                    Ok(v) => v,
                    Err(e) => return self.report_error(&e, out),
                };
                return writeln!(
                    out,
                    "non-uniform query: answered by extension ({} clusters, predicate {})",
                    ext.cluster_count(),
                    self.ws.interner.resolve(qp.sym())
                );
            }
            let ans = match q.answer_incremental(&spec, &self.ws.interner) {
                Ok(a) => a,
                Err(e) => return writeln!(out, "error: {e}"),
            };
            let listed = ans.enumerate_terms(&spec, self.limit);
            if crate::write_answer_rows(out, &listed, &ans, &self.ws.interner)? == 0 {
                writeln!(out, "no answers")?;
            }
            Ok(())
        })();
        self.spec = Some(spec);
        result
    }
}

/// SIGINT integration: Ctrl-C flips the session cancel token instead of
/// killing the process, so a long-running evaluation unwinds cooperatively
/// through the governor and the REPL survives with a partial result.
#[cfg(unix)]
mod sigint {
    use fundb_core::CancelToken;
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn isatty(fd: i32) -> i32;
    }

    extern "C" fn handle(_signum: i32) {
        // CancelToken::cancel is a relaxed atomic store — async-signal-safe.
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    /// Routes SIGINT to `token` for the rest of the process lifetime.
    pub fn install(token: CancelToken) {
        const SIGINT: i32 = 2;
        let _ = TOKEN.set(token);
        // SAFETY: `handle` is async-signal-safe (atomic store only) and the
        // handler address stays valid for the program's lifetime.
        unsafe {
            signal(SIGINT, handle as *const () as usize);
        }
    }

    /// True when stdin is a terminal (interactive session).
    pub fn stdin_is_tty() -> bool {
        // SAFETY: isatty only inspects the file descriptor.
        unsafe { isatty(0) != 0 }
    }
}

/// Runs the interactive loop on stdin/stdout.
///
/// In a terminal, Ctrl-C cancels the running evaluation (via the governor's
/// cancel token) without exiting. When stdin is not a tty (piped scripts),
/// the loop exits with an error if any evaluation failed, so callers see a
/// non-zero exit status.
pub fn run_interactive() -> std::io::Result<()> {
    use std::io::BufRead;
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut repl = Repl::new();
    #[cfg(unix)]
    let interactive = {
        sigint::install(repl.cancel_token());
        sigint::stdin_is_tty()
    };
    #[cfg(not(unix))]
    let interactive = true;
    writeln!(
        stdout,
        "fundb interactive session — :help for commands, :quit to leave"
    )?;
    let mut line = String::new();
    loop {
        write!(stdout, "fundb> ")?;
        stdout.flush()?;
        line.clear();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        repl.line(&line, &mut stdout)?;
        if repl.is_done() {
            break;
        }
    }
    if !interactive && repl.eval_failed() {
        return Err(std::io::Error::other(
            "one or more evaluations failed (budget exhausted or worker panic)",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(repl: &mut Repl, lines: &[&str]) -> String {
        let mut out = Vec::new();
        for l in lines {
            repl.line(l, &mut out).unwrap();
        }
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn rules_queries_and_checks() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "Meets(t, x), Next(x, y) -> Meets(t+1, y).",
                "Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
                ":check Meets(6, Tony)",
                ":check Meets(6, Jan)",
                "?- Meets(t, x).",
            ],
        );
        assert!(out.contains("true"));
        assert!(out.contains("false"));
        assert!(out.contains("0: (Tony)"));
        assert!(out.contains("1: (Jan)"));
    }

    #[test]
    fn queries_mixing_variable_sorts_are_rejected() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &[
                "Meets(t, x), Next(x, y) -> Meets(t+1, y).",
                "Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
            ],
        );
        for goal in ["?- Meets(t,t).", "?- Meets(t,x), Next(x,t)."] {
            let out = feed(&mut repl, &[goal]);
            assert!(
                out.contains("error: variable t is used in both functional and non-functional"),
                "{goal}: {out}"
            );
        }
    }

    #[test]
    fn incremental_extension_invalidates_spec() {
        let mut repl = Repl::new();
        let out1 = feed(&mut repl, &["Even(0).", ":check Even(2)"]);
        assert!(out1.contains("false"));
        let out2 = feed(&mut repl, &["Even(t) -> Even(t+2).", ":check Even(2)"]);
        assert!(out2.contains("true"));
    }

    #[test]
    fn analyze_and_show() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &["Tick(t) -> Tick(t+1).", "Tick(0).", ":analyze", ":show"],
        );
        assert!(out.contains("INFINITE"));
        assert!(out.contains("Tick()"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut repl = Repl::new();
        let out = feed(&mut repl, &["P(0", ":bogus", "P(0)."]);
        assert!(out.contains("error:"));
        assert!(out.contains("unknown command `:bogus`"));
        let out2 = feed(&mut repl, &[":check P(0)"]);
        assert!(out2.contains("true"));
    }

    #[test]
    fn stats_reports_engine_counters() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "Meets(t, x), Next(x, y) -> Meets(t+1, y).",
                "Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
                ":stats",
            ],
        );
        assert!(out.contains("passes:"), "{out}");
        assert!(out.contains("delta atoms per pass:"), "{out}");
        assert!(out.contains("join probes:"), "{out}");
        assert!(out.contains("index misses:"), "{out}");
        assert!(out.contains("eval threads:"), "{out}");
    }

    #[test]
    fn relational_goals_run_goal_directed_and_plan_dumps_adornments() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "Edge(x, y) -> Path(x, y).",
                "Edge(x, y), Path(y, z) -> Path(x, z).",
                "Edge(A, B). Edge(B, C). Edge(C, D).",
                "?- Path(A, x).",
                ":plan Path(A, x)",
                ":stats",
            ],
        );
        // Goal-directed answers: everything reachable from A.
        assert!(out.contains("(B)"), "{out}");
        assert!(out.contains("(C)"), "{out}");
        assert!(out.contains("(D)"), "{out}");
        // :plan dumps the adorned program with its seed and join orders.
        assert!(out.contains("m_Path_bf"), "{out}");
        assert!(out.contains("Path_bf"), "{out}");
        assert!(out.contains("join order:"), "{out}");
        // :stats surfaces the accumulated demand counters.
        assert!(out.contains("magic rules:"), "{out}");
        assert!(out.contains("demanded tuples:"), "{out}");
    }

    /// A mixed child compiles once, lifted: `:plan` in the planner session
    /// shows one star rule whose context columns hold `move`'s arguments,
    /// not one rule per pair of positions.
    #[test]
    fn plan_shows_the_lifted_star_rule_of_a_functional_session() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "At(s, p1), Connected(p1, p2) -> At(move(s, p1, p2), p2).",
                "At(0, P0). Connected(P0, P1). Connected(P1, P2). Connected(P2, P0).",
                ":plan At(t, x)",
            ],
        );
        assert!(out.contains("1 star rule(s)"), "{out}");
        assert!(
            out.contains("  At@+move(κ,p1,p2,p2) :- At@here(κ,p1), Connected(p1,p2)."),
            "{out}"
        );
        assert!(!out.contains("move["), "{out}");
    }

    #[test]
    fn plan_reports_noop_for_all_free_goals() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "Edge(x, y) -> Path(x, y).",
                "Edge(A, B).",
                ":plan Path(x, y)",
            ],
        );
        assert!(out.contains("no-op"), "{out}");
    }

    #[test]
    fn bench_serve_reports_one_batch_pass() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "Even(t) -> Even(t+2).",
                "Even(0).",
                ":bench-serve 256",
                ":stats",
            ],
        );
        assert!(out.contains("bench-serve: 256 membership queries"), "{out}");
        assert!(out.contains("frozen batch:"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn quit_sets_done() {
        let mut repl = Repl::new();
        feed(&mut repl, &[":quit"]);
        assert!(repl.is_done());
    }

    #[test]
    fn save_binary_writes_magic_and_reloads() {
        let dir = std::env::temp_dir().join(format!("fundb-repl-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("spec.bin");
        let txt = dir.join("spec.txt");
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "Even(t) -> Even(t+2).",
                "Even(0).",
                &format!(":save {} --binary", bin.display()),
                &format!(":save {}", txt.display()),
            ],
        );
        assert!(out.contains("binary v2"), "{out}");
        assert!(out.contains("text v1"), "{out}");
        let bytes = std::fs::read(&bin).unwrap();
        assert!(bytes.starts_with(b"FDBSPECB"), "missing binary magic");
        // Both formats reload through the auto-detecting reader and answer
        // identically. (Renders can differ: each `:save` rebuilds the spec,
        // and auxiliary predicates get fresh disambiguated names.)
        let mut i1 = fundb_term::Interner::new();
        let from_bin = fundb_core::read_spec_file(bin.to_str().unwrap(), &mut i1).unwrap();
        let mut i2 = fundb_term::Interner::new();
        let from_txt = fundb_core::read_spec_file(txt.to_str().unwrap(), &mut i2).unwrap();
        assert_eq!(from_bin.spec.cluster_count(), from_txt.spec.cluster_count());
        let even1 = fundb_term::Pred(i1.get("Even").unwrap());
        let succ1 = fundb_term::Func(i1.get("+1").unwrap());
        let even2 = fundb_term::Pred(i2.get("Even").unwrap());
        let succ2 = fundb_term::Func(i2.get("+1").unwrap());
        for n in 0..12usize {
            assert_eq!(
                from_bin.spec.holds(even1, &vec![succ1; n], &[]),
                from_txt.spec.holds(even2, &vec![succ2; n], &[]),
                "n={n}"
            );
        }
    }

    #[test]
    fn open_journals_session_and_replays_after_restart() {
        let dir = std::env::temp_dir().join(format!("fundb-repl-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().into_owned();
        {
            let mut repl = Repl::new();
            let out = feed(
                &mut repl,
                &[
                    &format!(":open {dir_s}"),
                    "Meets(t, x), Next(x, y) -> Meets(t+1, y).",
                    "Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
                    ":wal-stats",
                ],
            );
            assert!(out.contains("opened"), "{out}");
            assert!(out.contains("replayed 0 line(s)"), "{out}");
            assert!(out.contains("round marker(s)"), "{out}");
            // The session is dropped here without any explicit shutdown —
            // the journal must already be flushed per accepted line.
        }
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[&format!(":open {dir_s}"), ":check Meets(6, Tony)"],
        );
        assert!(out.contains("replayed 2 line(s)"), "{out}");
        assert!(out.contains("true"), "{out}");
    }

    #[test]
    fn goal_queries_of_the_wrong_arity_answer_empty() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &[
                "Edge(A, B). Edge(B, C).",
                "Edge(x, y) -> Path(x, y).",
                "Path(x, y), Edge(y, z) -> Path(x, z).",
            ],
        );
        for goal in [
            "?- Path(x).",
            "?- Edge(x).",
            "?- Path(A, x, y).",
            "?- Edge(x, y, z).",
        ] {
            let out = feed(&mut repl, &[goal]);
            assert_eq!(out, "no answers\n", "{goal}");
        }
        // The session is intact: a well-formed goal still answers.
        let out = feed(&mut repl, &["?- Path(A, x)."]);
        assert!(out.contains("(B)") && out.contains("(C)"), "{out}");
    }

    #[test]
    fn goal_query_over_an_unsafe_fact_reports_section_2_3() {
        let mut repl = Repl::new();
        // Lower-case arguments are variables: the "fact" is a rule whose
        // head variables occur in no body.
        let out = feed(&mut repl, &["Edge(a, b).", "?- Edge(A, x)."]);
        assert!(out.contains("not range-restricted"), "{out}");
        assert!(out.contains("§2.3"), "{out}");
        assert!(!out.contains("rolled back"), "{out}");
    }

    #[test]
    fn wal_stats_without_session_points_at_open() {
        let mut repl = Repl::new();
        let out = feed(&mut repl, &[":wal-stats"]);
        assert!(out.contains(":open"), "{out}");
    }

    #[test]
    fn limit_controls_enumeration() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &["Run(t) -> Run(t+1).", "Run(0).", ":limit 3", "?- Run(t)."],
        );
        assert_eq!(out.matches("\n").count(), 3, "three answer lines:\n{out}");
    }

    #[test]
    fn retract_repairs_consequences_and_patches_the_cached_spec() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "Edge(x, y) -> Path(x, y).",
                "Edge(x, y), Path(y, z) -> Path(x, z).",
                "Edge(A, B). Edge(B, C).",
                ":check Path(A, C)", // builds and caches the spec
                ":retract Edge(B, C)",
                ":check Path(A, C)", // answered from the patched spec
                ":check Path(A, B)",
                ":retract Edge(Z, Z)",
                ":stats",
            ],
        );
        // Before: Path(A,C) holds; after the retraction the whole cone
        // (Edge(B,C), Path(B,C), Path(A,C)) is gone, Path(A,B) survives.
        assert!(
            out.contains("true\nretracted Edge(B, C): 3 row(s) tombstoned"),
            "{out}"
        );
        assert!(
            out.contains("0 re-derived, 3 cached row(s) patched"),
            "{out}"
        );
        assert!(out.contains("false"), "{out}");
        assert!(
            out.contains("no such asserted base fact: Edge(Z, Z)"),
            "{out}"
        );
        assert!(
            out.contains("retractions: 3, rederived: 0 (session"),
            "{out}"
        );
    }

    #[test]
    fn retract_is_journaled_and_replays_after_restart() {
        let dir = std::env::temp_dir().join(format!("fundb-repl-retract-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().into_owned();
        {
            let mut repl = Repl::new();
            let out = feed(
                &mut repl,
                &[
                    &format!(":open {dir_s}"),
                    "Edge(x, y) -> Path(x, y). Edge(x, y), Path(y, z) -> Path(x, z).",
                    "Edge(A, B). Edge(B, C).",
                    ":retract Edge(B, C)",
                ],
            );
            assert!(out.contains("retracted Edge(B, C)"), "{out}");
        }
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                &format!(":open {dir_s}"),
                ":check Path(A, C)",
                ":check Path(A, B)",
            ],
        );
        assert!(out.contains("replayed 3 line(s)"), "{out}");
        assert!(out.contains("false"), "{out}");
        assert!(out.contains("true"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod explain_repl_tests {
    use super::*;

    #[test]
    fn repl_explain_shows_proof() {
        let mut repl = Repl::new();
        let mut out = Vec::new();
        for l in [
            "Meets(t, x), Next(x, y) -> Meets(t+1, y).",
            "Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
            ":explain Meets(2, Tony)",
        ] {
            repl.line(l, &mut out).unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("[by rule"), "{text}");
        assert!(text.contains("[given]"), "{text}");
    }
}
