//! The least-fixpoint engine: a decision procedure for yes-no queries (§4).
//!
//! Algorithm Q (§3.4) assumes slices of the least fixpoint are "effectively
//! computable, because the yes-no query processing problem is decidable for
//! functional rules" — the paper cites Fürer's DEXPTIME decision procedure
//! for the Ackermann class [Fur81] without instantiating it. This module
//! supplies that missing piece with a **tabled uniform-tree fixpoint**:
//!
//! * The ground terms of a pure normal program form the infinite tree rooted
//!   at `0`. A rule instance at `s := t` touches only the *star* of `t`
//!   (`t`, its children `f(t)`, fixed ground nodes of depth ≤ c, and the
//!   non-functional store) — see [`crate::compile`].
//! * In the least model, the restriction to the subtree below any node `t`
//!   of depth > `c` equals the least model of the *uniform* star-local
//!   theory seeded with `t`'s incoming derivations: derivations of atoms
//!   strictly below `t` never leave `subtree(t)` (a rule derives an atom at
//!   `u` only from the star of `u` or of `parent(u)`), and no facts live
//!   below depth `c`. This is the observation behind the paper's Lemma 3.1.
//! * Hence one memo table `seed → (state, child seeds)` describes every
//!   uniform subtree, and the finite *top region* (all terms of depth ≤ c,
//!   which carry the database facts and ground rule atoms) is solved
//!   alongside it by monotone iteration to a global fixpoint.
//!
//! States live in the finite lattice `2^A` of abstract-atom sets
//! ([`crate::State`]), so the iteration terminates; the worst case is
//! exponential in `gsize`, matching DEXPTIME-completeness (Theorem 4.1).

use crate::compile::{CompiledProgram, Loc};
use crate::error::Result;
use crate::gendb::AtomInterner;
use crate::normalize::normalize;
use crate::program::{Database, Program};
use crate::pure::to_pure;
use crate::state::State;
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FxHashMap, FxHashSet, Interner, NodeId, Pred, TermTree};

/// A memo-table entry: the stabilized state of a uniform node with a given
/// seed, and the seeds its rule firings push into each child.
#[derive(Clone, Default, PartialEq)]
struct Entry {
    state: State,
    child_seeds: FxHashMap<Func, State>,
}

/// A persistent local evaluation: one Datalog database per top-region node,
/// per demanded uniform seed, and one for the fixed rules, kept alive
/// between global passes so each pass resumes the semi-naive fixpoint from
/// its low-water marks instead of re-deriving everything.
///
/// The snapshot fields record which input atoms have already been injected,
/// so a pass only feeds the *delta* of each input into the database. Rows
/// injected from an earlier pass are never retracted: every input
/// (top-region states, memoized uniform states, the boundary seeds, the
/// relational store) grows monotonically, and the uniform least fixpoint is
/// monotone in its seed, so a row that was true of an earlier, smaller
/// input is still true of the final one.
#[derive(Default)]
struct LocalCtx {
    db: dl::Database,
    eval: dl::IncrementalEval,
    /// Here-state atoms already present in `db`.
    injected_here: State,
    /// Per child symbol, child-state atoms already present in `db`.
    injected_child: FxHashMap<Func, State>,
    /// Per fixed-location tag, fixed-node atoms already examined.
    injected_fixed: FxHashMap<Pred, State>,
    /// Per relational predicate, rows of the global store already injected.
    nf_cursors: FxHashMap<Pred, usize>,
}

/// A position in the (infinite) term tree, as the engine sees it: either a
/// materialized top-region node (depth ≤ c) or a uniform node identified by
/// its seed. Two terms with the same cursor have identical subtrees, which
/// is exactly the congruence insight of §3.2.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cursor {
    /// A node of the top region.
    Top(NodeId),
    /// A uniform node, identified by its seed state.
    Uniform(State),
}

/// The least-fixpoint engine over a compiled program.
pub struct Engine {
    cp: CompiledProgram,
    atoms: AtomInterner,
    tree: TermTree,
    /// All nodes of depth ≤ c in breadth-first (precedence) order.
    top_nodes: Vec<NodeId>,
    top: FxHashMap<NodeId, State>,
    /// Seeds flowing from depth-c nodes into their (uniform) children.
    boundary: FxHashMap<(NodeId, Func), State>,
    nf: dl::Database,
    memo: FxHashMap<State, Entry>,
    here_by_pred: FxHashMap<Pred, Pred>,
    child_by_f: FxHashMap<Func, FxHashMap<Pred, Pred>>,
    /// Persistent per-node evaluation contexts (see [`LocalCtx`]).
    top_ctx: FxHashMap<NodeId, LocalCtx>,
    /// Persistent per-seed evaluation contexts.
    memo_ctx: FxHashMap<State, LocalCtx>,
    /// Persistent context for the fixed (no-functional-variable) rules.
    fixed_ctx: LocalCtx,
    /// Worker-thread override for local Datalog evaluations (`None` =
    /// `FUNDB_THREADS` / machine default).
    threads: Option<usize>,
    /// Execution governor shared by every local evaluation: its budgets
    /// (rows/rounds/time/bytes) and cancellation token span the whole
    /// multi-fixpoint solve, not one local run.
    governor: dl::Governor,
    solved: bool,
    stats: EngineStats,
}

/// Instrumentation counters reported by [`Engine::stats`]: useful for the
/// benchmark harness and for understanding where a hard instance spends its
/// time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Global fixpoint passes until convergence.
    pub passes: usize,
    /// Local evaluations of top-region nodes.
    pub top_evals: usize,
    /// Stabilization runs of uniform seeds (memo-table work).
    pub uniform_evals: usize,
    /// Per pass, the number of new abstract atoms absorbed into the global
    /// stores (top region, boundary seeds, memo entries, relational store).
    /// The final pass is always 0 — it verifies the fixpoint.
    pub pass_deltas: Vec<usize>,
    /// Total of [`Self::pass_deltas`].
    pub delta_atoms: usize,
    /// Candidate rows enumerated by rule-body probes across all local
    /// evaluations.
    pub join_probes: usize,
    /// Bound-column selections fully answered by a per-column or composite
    /// index (see [`dl::EvalStats::index_hits`]).
    pub index_hits: usize,
    /// Bound-column selections that fell back to a partial single-column
    /// cover because no full index was available.
    pub index_misses: usize,
    /// Semi-naive rounds summed over all local evaluations.
    pub datalog_rounds: usize,
    /// Rows derived by local Datalog evaluations (before absorption).
    pub derived_rows: usize,
    /// Frozen-spec answer-cache hits absorbed from the serving layer (see
    /// [`crate::serve::ServeStats`]); evaluation itself never touches the
    /// serve cache, so these stay 0 unless a frozen spec reports in.
    pub serve_cache_hits: u64,
    /// Frozen-spec answer-cache misses absorbed from the serving layer.
    pub serve_cache_misses: u64,
    /// Magic rules synthesized by goal-directed (demand-rewritten) query
    /// answering (see [`dl::EvalStats::magic_rules`]); stays 0 unless a
    /// goal-directed query reports in.
    pub magic_rules: usize,
    /// Demand-set sizes summed over goal-directed queries (see
    /// [`dl::EvalStats::demanded_tuples`]).
    pub demanded_tuples: usize,
    /// WAL records appended by a durable session this engine reported into
    /// (see `fundb_storage::WalStats`); stays 0 unless a durable store
    /// reports in.
    pub wal_records: u64,
    /// Round-commit markers among those records — the durability points a
    /// crash recovers to.
    pub wal_round_commits: u64,
    /// Completed rounds replayed from a WAL during the recovery that
    /// produced this session's database (0 for a fresh session).
    pub recovered_rounds: u64,
    /// Rows tombstoned by incremental retractions reported into this
    /// engine (see [`dl::EvalStats::retractions`]); stays 0 unless a
    /// retraction reports in.
    pub retractions: usize,
    /// Rows the re-derive pass restored (an alternative derivation
    /// survived the over-delete; see [`dl::EvalStats::rederived`]).
    pub rederived: usize,
    /// Cached-specification rows patched in place by retractions instead
    /// of rebuilding the spec.
    pub cache_patches: u64,
}

impl EngineStats {
    fn absorb(&mut self, es: dl::EvalStats) {
        self.datalog_rounds += es.rounds;
        self.derived_rows += es.derived;
        self.join_probes += es.join_probes;
        self.index_hits += es.index_hits;
        self.index_misses += es.index_misses;
        self.magic_rules += es.magic_rules;
        self.demanded_tuples += es.demanded_tuples;
    }
}

impl Engine {
    /// Creates an engine from a compiled program (facts already applied).
    pub fn new(cp: CompiledProgram) -> Engine {
        let mut tree = cp.tree.clone();
        // Materialize the whole top region: every term of depth ≤ c.
        let mut top_nodes = vec![tree.root()];
        let mut frontier = vec![tree.root()];
        for _ in 0..cp.c {
            let mut next = Vec::new();
            for &n in &frontier {
                for &f in cp.funcs.symbols() {
                    let child = tree.child(n, f);
                    next.push(child);
                }
            }
            top_nodes.extend(next.iter().copied());
            frontier = next;
        }

        let mut atoms = AtomInterner::new();
        let mut top: FxHashMap<NodeId, State> = FxHashMap::default();
        for &n in &top_nodes {
            top.insert(n, State::new());
        }
        for (node, pred, args) in &cp.seeds {
            let id = atoms.intern(*pred, args);
            top.get_mut(node)
                .expect("fact nodes have depth ≤ c by definition of c")
                .insert(id);
        }
        let mut nf = dl::Database::new();
        for (pred, args) in &cp.nf_facts {
            nf.insert(*pred, args);
        }

        let here_by_pred = cp.here_tags().collect();
        let mut child_by_f: FxHashMap<Func, FxHashMap<Pred, Pred>> = FxHashMap::default();
        for (p, f, t) in cp.child_tags() {
            child_by_f.entry(f).or_default().insert(p, t);
        }

        Engine {
            cp,
            atoms,
            tree,
            top_nodes,
            top,
            boundary: FxHashMap::default(),
            nf,
            memo: FxHashMap::default(),
            here_by_pred,
            child_by_f,
            top_ctx: FxHashMap::default(),
            memo_ctx: FxHashMap::default(),
            fixed_ctx: LocalCtx::default(),
            threads: None,
            governor: dl::Governor::default(),
            solved: false,
            stats: EngineStats::default(),
        }
    }

    /// Pins the worker-thread count used by local Datalog evaluations
    /// (`None` restores the `FUNDB_THREADS` / machine-parallelism default).
    /// Thread count never changes results or stats: parallel rounds merge
    /// worker buffers in task order, byte-identical to sequential.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
        self.fixed_ctx.eval.set_threads(threads);
        for ctx in self.top_ctx.values_mut() {
            ctx.eval.set_threads(threads);
        }
        for ctx in self.memo_ctx.values_mut() {
            ctx.eval.set_threads(threads);
        }
    }

    /// The worker-thread count local evaluations will use.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(dl::default_threads)
    }

    /// Installs the governor that budgets this engine's evaluations. Its
    /// counters and deadline are shared across every local fixpoint of
    /// every subsequent [`Engine::solve`], so e.g. `max_rounds` bounds the
    /// solve's *total* semi-naive rounds.
    pub fn set_governor(&mut self, governor: dl::Governor) {
        self.fixed_ctx.eval.set_governor(governor.clone());
        for ctx in self.top_ctx.values_mut() {
            ctx.eval.set_governor(governor.clone());
        }
        for ctx in self.memo_ctx.values_mut() {
            ctx.eval.set_governor(governor.clone());
        }
        self.governor = governor;
    }

    /// The governor in effect (e.g. to clone its cancellation token).
    pub fn governor(&self) -> &dl::Governor {
        &self.governor
    }

    /// A fresh local context configured with this engine's thread and
    /// governor knobs.
    fn new_ctx(&self) -> LocalCtx {
        let mut ctx = LocalCtx::default();
        ctx.eval.set_threads(self.threads);
        ctx.eval.set_governor(self.governor.clone());
        ctx
    }

    /// Convenience pipeline: validate → normalize → mixed→pure → compile →
    /// engine.
    pub fn build(program: &Program, db: &Database, interner: &mut Interner) -> Result<Engine> {
        let normal = normalize(program, interner);
        let pure = to_pure(&normal, db, interner)?;
        let cp = CompiledProgram::compile(&pure, interner)?;
        Ok(Engine::new(cp))
    }

    /// The compiled program.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.cp
    }

    /// The abstract-atom interner (shared vocabulary for states).
    pub fn atoms(&self) -> &AtomInterner {
        &self.atoms
    }

    /// Number of memo-table entries (distinct demanded uniform seeds) —
    /// an engine-internal cost metric surfaced for the benchmarks.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Runs the global fixpoint. Idempotent.
    ///
    /// Evaluation is semi-naive at both levels: each pass feeds only the
    /// *delta* of every input into the persistent local contexts, and each
    /// local Datalog run resumes from its low-water marks, so work is
    /// proportional to what is newly derivable rather than to everything
    /// derived so far. The final pass absorbs nothing ([`EngineStats::
    /// pass_deltas`] ends in 0) and only verifies the fixpoint.
    ///
    /// On `Err` ([`crate::error::Error::Eval`]: budget exhausted,
    /// cancelled, or a worker panicked) the engine is left consistent —
    /// every local context holds only fully-committed rounds, already
    /// absorbed into the global stores — and not marked solved, so a later
    /// call (e.g. under a fresh governor) resumes where this one stopped.
    pub fn solve(&mut self) -> Result<()> {
        if self.solved {
            return Ok(());
        }
        loop {
            self.stats.passes += 1;
            let before = self.stats.delta_atoms;
            let mut changed = false;
            changed |= self.eval_fixed_rules()?;
            let nodes = self.top_nodes.clone();
            for node in nodes {
                self.stats.top_evals += 1;
                changed |= self.eval_top_node(node)?;
            }
            changed |= self.uniform_pass()?;
            self.stats.pass_deltas.push(self.stats.delta_atoms - before);
            if !changed {
                break;
            }
        }
        self.solved = true;
        Ok(())
    }

    /// Instrumentation counters accumulated by [`Engine::solve`].
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Absorbs serving-layer answer-cache counters (cumulative totals from
    /// [`crate::serve::ServeStats`]) into the engine's stats so `:stats` and
    /// the bench harness report construction and serving side by side.
    pub fn record_serve_stats(&mut self, hits: u64, misses: u64) {
        self.stats.serve_cache_hits = hits;
        self.stats.serve_cache_misses = misses;
    }

    /// Absorbs the counters of a goal-directed (magic-rewritten) query run
    /// (see [`dl::query_demand`]) into the engine's stats, so demand-driven
    /// answering shows up next to full-materialization work in `:stats` and
    /// the bench harness.
    pub fn record_demand_stats(&mut self, es: dl::EvalStats) {
        self.stats.magic_rules += es.magic_rules;
        self.stats.demanded_tuples += es.demanded_tuples;
    }

    /// Absorbs incremental-retraction counters (cumulative session totals)
    /// into the engine's stats, so delete/update maintenance work shows up
    /// next to forward-derivation counters in `:stats` and the bench
    /// harness.
    pub fn record_retract_stats(&mut self, retractions: usize, rederived: usize, patches: u64) {
        self.stats.retractions = retractions;
        self.stats.rederived = rederived;
        self.stats.cache_patches = patches;
    }

    /// Absorbs durable-storage counters (cumulative WAL totals and the
    /// recovery that seeded the session) into the engine's stats, so
    /// journaling cost and crash-recovery work show up next to evaluation
    /// counters in `:stats` and the bench harness.
    pub fn record_wal_stats(&mut self, records: u64, round_commits: u64, recovered_rounds: u64) {
        self.stats.wal_records = records;
        self.stats.wal_round_commits = round_commits;
        self.stats.recovered_rounds = recovered_rounds;
    }

    // --- incremental updates -------------------------------------------------

    /// Adds a functional fact `P(t, ā)` to an already-(partially-)solved
    /// engine and marks it for re-solving. Everything the engine computes is
    /// monotone, so the existing memo table and states remain valid lower
    /// bounds and the next [`Engine::solve`] only derives the consequences
    /// of the new fact — usually far cheaper than a rebuild (the §3.6 remark
    /// that "techniques for optimizing the database C are also necessary",
    /// made concrete).
    ///
    /// Restrictions (violations return an error asking for a full rebuild):
    /// the fact's term must fit the existing top region (`depth ≤ c`), and
    /// its symbols must already be in the compiled vocabulary — new
    /// constants would invalidate the database-dependent mixed→pure
    /// transformation (§2.4).
    pub fn add_fact_functional(
        &mut self,
        pred: Pred,
        path: &[Func],
        args: &[Cst],
        interner: &Interner,
    ) -> Result<()> {
        if path.len() > self.cp.c {
            return Err(crate::error::Error::UnsupportedQuery {
                detail: format!(
                    "incremental fact at depth {} exceeds the top region (c = {}); \
                     rebuild the engine",
                    path.len(),
                    self.cp.c
                ),
            });
        }
        self.check_vocabulary(pred, args, interner)?;
        for f in path {
            if self.cp.funcs.symbols().iter().all(|g| g != f) {
                return Err(crate::error::Error::UnsupportedQuery {
                    detail: format!(
                        "function symbol `{}` is not in the compiled program; rebuild",
                        interner.resolve(f.sym())
                    ),
                });
            }
        }
        let node = self
            .tree
            .lookup_path(path)
            .expect("top region is fully materialized");
        let id = self.atoms.intern(pred, args);
        if self
            .top
            .get_mut(&node)
            .expect("top nodes have states")
            .insert(id)
        {
            self.solved = false;
        }
        Ok(())
    }

    /// Adds a relational fact `S(ā)` incrementally (see
    /// [`Engine::add_fact_functional`]).
    pub fn add_fact_relational(
        &mut self,
        pred: Pred,
        args: &[Cst],
        interner: &Interner,
    ) -> Result<()> {
        self.check_vocabulary(pred, args, interner)?;
        if !self.nf.contains(pred, args) {
            self.nf.insert(pred, args);
            self.solved = false;
        }
        Ok(())
    }

    fn check_vocabulary(&self, pred: Pred, args: &[Cst], interner: &Interner) -> Result<()> {
        if !self.cp.schema.sigs.contains_key(&pred) {
            return Err(crate::error::Error::UnsupportedQuery {
                detail: format!(
                    "predicate `{}` is not in the compiled program; rebuild",
                    interner.resolve(pred.sym())
                ),
            });
        }
        for c in args {
            if self.cp.schema.constants.iter().all(|k| k != c) {
                return Err(crate::error::Error::UnsupportedQuery {
                    detail: format!(
                        "constant `{}` is new — the mixed→pure transformation is \
                         database-dependent (§2.4); rebuild the engine",
                        interner.resolve(c.sym())
                    ),
                });
            }
        }
        Ok(())
    }

    // --- public read API ---------------------------------------------------

    /// The slice (state) of the ground pure term given by `path`.
    pub fn state_of_path(&self, path: &[Func]) -> State {
        let c = self.cp.c;
        if path.len() <= c {
            return self
                .tree
                .lookup_path(path)
                .and_then(|n| self.top.get(&n).cloned())
                .unwrap_or_default();
        }
        // A path using symbols outside the program's vocabulary denotes a
        // term that cannot occur in the least fixpoint (Proposition 2.1).
        let Some(boundary_node) = self.tree.lookup_path(&path[..c]) else {
            return State::new();
        };
        let mut seed = self
            .boundary
            .get(&(boundary_node, path[c]))
            .cloned()
            .unwrap_or_default();
        for &f in &path[c + 1..] {
            seed = self
                .memo
                .get(&seed)
                .and_then(|e| e.child_seeds.get(&f).cloned())
                .unwrap_or_default();
        }
        self.memo
            .get(&seed)
            .map(|e| e.state.clone())
            .unwrap_or(seed)
    }

    /// Yes-no query for a functional tuple `P(t, ā)` with `t` given as a
    /// path (Theorem 4.1's problem).
    pub fn holds(&self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(id) = self.atoms.get(pred, args) else {
            return false;
        };
        self.state_of_path(path).contains(id)
    }

    /// Yes-no query for a relational tuple `S(ā)`.
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.nf.contains(pred, args)
    }

    /// The non-functional store (all derived relational facts).
    pub fn nf(&self) -> &dl::Database {
        &self.nf
    }

    /// Cursor at the root (`0`).
    pub fn root_cursor(&self) -> Cursor {
        Cursor::Top(self.tree.root())
    }

    /// Cursor of the child `f(t)`.
    pub fn child_cursor(&self, cur: &Cursor, f: Func) -> Cursor {
        match cur {
            Cursor::Top(n) => {
                if self.tree.depth(*n) < self.cp.c {
                    Cursor::Top(
                        self.tree
                            .get_child(*n, f)
                            .expect("top region is fully materialized"),
                    )
                } else {
                    Cursor::Uniform(self.boundary.get(&(*n, f)).cloned().unwrap_or_default())
                }
            }
            Cursor::Uniform(seed) => Cursor::Uniform(
                self.memo
                    .get(seed)
                    .and_then(|e| e.child_seeds.get(&f).cloned())
                    .unwrap_or_default(),
            ),
        }
    }

    /// The state at a cursor.
    pub fn cursor_state(&self, cur: &Cursor) -> State {
        match cur {
            Cursor::Top(n) => self.top.get(n).cloned().unwrap_or_default(),
            Cursor::Uniform(seed) => self
                .memo
                .get(seed)
                .map(|e| e.state.clone())
                .unwrap_or_else(|| seed.clone()),
        }
    }

    // --- fixpoint internals --------------------------------------------------

    /// Evaluates the rules without functional variables over the fixed nodes
    /// and the non-functional store.
    fn eval_fixed_rules(&mut self) -> Result<bool> {
        if self.cp.fixed_rules.is_empty() {
            return Ok(false);
        }
        let mut ctx = std::mem::take(&mut self.fixed_ctx);
        self.inject_fixed_and_nf_diff(&mut ctx);
        let lens = Self::row_counts(&ctx.db);
        // On `Err`, the local database still holds a deterministic prefix
        // of committed rows; absorb them before propagating so a resumed
        // solve never skips them (`lens` is recomputed per pass).
        let run = ctx
            .eval
            .run(&mut ctx.db, &self.cp.fixed_rules, &self.cp.fixed_plan);
        if let Ok(es) = run {
            self.stats.absorb(es);
        }

        let mut changed = false;
        for (tagged, rel) in ctx.db.iter() {
            let from = lens.get(&tagged).copied().unwrap_or(0);
            if rel.len() == from {
                continue;
            }
            match self.cp.untag(tagged) {
                Some((p, Loc::Fixed(n))) => {
                    for row in rel.rows_from(from) {
                        let id = self.atoms.intern(p, row);
                        ctx.injected_fixed.entry(tagged).or_default().insert(id);
                        if self
                            .top
                            .get_mut(&n)
                            .expect("fixed nodes are in the top region")
                            .insert(id)
                        {
                            changed = true;
                            self.stats.delta_atoms += 1;
                        }
                    }
                }
                Some(_) => unreachable!("fixed rules mention no here/child tags"),
                None => {
                    for row in rel.rows_from(from) {
                        if !self.nf.contains(tagged, row) {
                            self.nf.insert(tagged, row);
                            changed = true;
                            self.stats.delta_atoms += 1;
                        }
                    }
                }
            }
        }
        self.fixed_ctx = ctx;
        run?;
        Ok(changed)
    }

    /// Evaluates the star rules at a top-region node, resuming the node's
    /// persistent context from the previous pass.
    fn eval_top_node(&mut self, node: NodeId) -> Result<bool> {
        if self.cp.star_rules.is_empty() {
            return Ok(false);
        }
        let at_boundary = self.tree.depth(node) == self.cp.c;
        let mut ctx = self.top_ctx.remove(&node).unwrap_or_else(|| self.new_ctx());

        // Inject the delta of every input.
        let here_state = self.top[&node].clone();
        Self::inject_state_diff(
            &self.atoms,
            &mut ctx.db,
            &here_state,
            &mut ctx.injected_here,
            &self.here_by_pred,
        );
        for &f in self.cp.funcs.symbols() {
            let Some(lookup) = self.child_by_f.get(&f) else {
                continue;
            };
            let child_state = if at_boundary {
                let seed = self.boundary.get(&(node, f)).cloned().unwrap_or_default();
                self.memo
                    .get(&seed)
                    .map(|e| e.state.clone())
                    .unwrap_or(seed)
            } else {
                let child = self
                    .tree
                    .get_child(node, f)
                    .expect("top region is fully materialized");
                self.top[&child].clone()
            };
            let snap = ctx.injected_child.entry(f).or_default();
            Self::inject_state_diff(&self.atoms, &mut ctx.db, &child_state, snap, lookup);
        }
        self.inject_fixed_and_nf_diff(&mut ctx);

        // Resume the local fixpoint; rows past `lens` are this run's output
        // (on `Err`, the committed prefix — absorbed below all the same).
        let lens = Self::row_counts(&ctx.db);
        let run = ctx
            .eval
            .run(&mut ctx.db, &self.cp.star_rules, &self.cp.star_plan);
        if let Ok(es) = run {
            self.stats.absorb(es);
        }

        let mut changed = false;
        for (tagged, rel) in ctx.db.iter() {
            let from = lens.get(&tagged).copied().unwrap_or(0);
            if rel.len() == from {
                continue;
            }
            match self.cp.untag(tagged) {
                Some((p, Loc::Here)) => {
                    for row in rel.rows_from(from) {
                        let id = self.atoms.intern(p, row);
                        ctx.injected_here.insert(id);
                        if self
                            .top
                            .get_mut(&node)
                            .expect("every top node was given a state in Engine::new")
                            .insert(id)
                        {
                            changed = true;
                            self.stats.delta_atoms += 1;
                        }
                    }
                }
                Some((p, Loc::Child(f))) => {
                    for row in rel.rows_from(from) {
                        let id = self.atoms.intern(p, row);
                        ctx.injected_child.entry(f).or_default().insert(id);
                        if at_boundary {
                            if self.boundary.entry((node, f)).or_default().insert(id) {
                                changed = true;
                                self.stats.delta_atoms += 1;
                            }
                        } else {
                            // Non-boundary nodes have depth < c, so every
                            // child is materialized with a state.
                            let child = self
                                .tree
                                .get_child(node, f)
                                .expect("top region is fully materialized");
                            if self
                                .top
                                .get_mut(&child)
                                .expect("every top node was given a state in Engine::new")
                                .insert(id)
                            {
                                changed = true;
                                self.stats.delta_atoms += 1;
                            }
                        }
                    }
                }
                Some((p, Loc::Fixed(n))) => {
                    for row in rel.rows_from(from) {
                        let id = self.atoms.intern(p, row);
                        ctx.injected_fixed.entry(tagged).or_default().insert(id);
                        if self
                            .top
                            .get_mut(&n)
                            .expect("fixed nodes are in the top region")
                            .insert(id)
                        {
                            changed = true;
                            self.stats.delta_atoms += 1;
                        }
                    }
                }
                None => {
                    for row in rel.rows_from(from) {
                        if !self.nf.contains(tagged, row) {
                            self.nf.insert(tagged, row);
                            changed = true;
                            self.stats.delta_atoms += 1;
                        }
                    }
                }
            }
        }
        self.top_ctx.insert(node, ctx);
        run?;
        Ok(changed)
    }

    /// Processes every demanded uniform seed once; returns whether anything
    /// (memo entries, top region, nf) changed.
    fn uniform_pass(&mut self) -> Result<bool> {
        if self.cp.star_rules.is_empty() {
            return Ok(false);
        }
        let mut queue: Vec<State> = Vec::new();
        let mut enqueued: FxHashSet<State> = FxHashSet::default();
        for seed in self.boundary.values() {
            if !seed.is_empty() && enqueued.insert(seed.clone()) {
                queue.push(seed.clone());
            }
        }
        for seed in self.memo.keys() {
            if !seed.is_empty() && enqueued.insert(seed.clone()) {
                queue.push(seed.clone());
            }
        }
        let mut changed = false;
        while let Some(seed) = queue.pop() {
            self.stats.uniform_evals += 1;
            let (entry, entry_changed) = self.process_seed(&seed)?;
            changed |= entry_changed;
            for cs in entry.child_seeds.values() {
                if !cs.is_empty() && enqueued.insert(cs.clone()) {
                    queue.push(cs.clone());
                }
            }
        }
        Ok(changed)
    }

    /// Stabilizes one uniform seed against the current memo/top/nf and
    /// stores the result, resuming the seed's persistent context. Returns
    /// the entry and whether anything changed.
    fn process_seed(&mut self, seed: &State) -> Result<(Entry, bool)> {
        let mut entry = self.memo.get(seed).cloned().unwrap_or_default();
        entry.state.union_with(seed);
        let mut ctx = self.memo_ctx.remove(seed).unwrap_or_else(|| self.new_ctx());
        let mut changed_global = false;

        loop {
            Self::inject_state_diff(
                &self.atoms,
                &mut ctx.db,
                &entry.state,
                &mut ctx.injected_here,
                &self.here_by_pred,
            );
            for &f in self.cp.funcs.symbols() {
                let Some(lookup) = self.child_by_f.get(&f) else {
                    continue;
                };
                let child_state = entry
                    .child_seeds
                    .get(&f)
                    .map(|cs| {
                        self.memo
                            .get(cs)
                            .map(|e| e.state.clone())
                            .unwrap_or_else(|| cs.clone())
                    })
                    .unwrap_or_default();
                let snap = ctx.injected_child.entry(f).or_default();
                Self::inject_state_diff(&self.atoms, &mut ctx.db, &child_state, snap, lookup);
            }
            self.inject_fixed_and_nf_diff(&mut ctx);

            let lens = Self::row_counts(&ctx.db);
            let run = ctx
                .eval
                .run(&mut ctx.db, &self.cp.star_rules, &self.cp.star_plan);
            if let Ok(es) = run {
                self.stats.absorb(es);
            }

            let mut local_changed = false;
            for (tagged, rel) in ctx.db.iter() {
                let from = lens.get(&tagged).copied().unwrap_or(0);
                if rel.len() == from {
                    continue;
                }
                match self.cp.untag(tagged) {
                    Some((p, Loc::Here)) => {
                        for row in rel.rows_from(from) {
                            let id = self.atoms.intern(p, row);
                            ctx.injected_here.insert(id);
                            if entry.state.insert(id) {
                                local_changed = true;
                                self.stats.delta_atoms += 1;
                            }
                        }
                    }
                    Some((p, Loc::Child(f))) => {
                        for row in rel.rows_from(from) {
                            let id = self.atoms.intern(p, row);
                            ctx.injected_child.entry(f).or_default().insert(id);
                            if entry.child_seeds.entry(f).or_default().insert(id) {
                                local_changed = true;
                                self.stats.delta_atoms += 1;
                            }
                        }
                    }
                    Some((p, Loc::Fixed(n))) => {
                        for row in rel.rows_from(from) {
                            let id = self.atoms.intern(p, row);
                            ctx.injected_fixed.entry(tagged).or_default().insert(id);
                            if self
                                .top
                                .get_mut(&n)
                                .expect("fixed nodes are in the top region")
                                .insert(id)
                            {
                                changed_global = true;
                                self.stats.delta_atoms += 1;
                            }
                        }
                    }
                    None => {
                        for row in rel.rows_from(from) {
                            if !self.nf.contains(tagged, row) {
                                self.nf.insert(tagged, row);
                                changed_global = true;
                                self.stats.delta_atoms += 1;
                            }
                        }
                    }
                }
            }
            if let Err(e) = run {
                // Keep the (consistent, committed-rounds-only) context and
                // the entry's absorbed progress before propagating.
                self.memo_ctx.insert(seed.clone(), ctx);
                if self.memo.get(seed) != Some(&entry) {
                    self.memo.insert(seed.clone(), entry);
                }
                return Err(e.into());
            }
            if !local_changed {
                break;
            }
        }

        self.memo_ctx.insert(seed.clone(), ctx);
        let stored = self.memo.get(seed);
        let entry_changed = stored != Some(&entry);
        if entry_changed {
            self.memo.insert(seed.clone(), entry.clone());
        }
        Ok((entry, entry_changed || changed_global))
    }

    /// Injects the atoms of `state` not yet recorded in `snap` into the
    /// tagged relations of `db`, and records them. Atoms whose predicate
    /// has no tag at this location are recorded but not injected — no rule
    /// can read them there.
    fn inject_state_diff(
        atoms: &AtomInterner,
        db: &mut dl::Database,
        state: &State,
        snap: &mut State,
        lookup: &FxHashMap<Pred, Pred>,
    ) {
        for id in state.iter() {
            if !snap.insert(id) {
                continue;
            }
            let (p, args) = atoms.resolve(id);
            if let Some(&tag) = lookup.get(&p) {
                db.insert(tag, args);
            }
        }
    }

    /// Injects the delta of the fixed-node slices and of the non-functional
    /// store into a local context.
    fn inject_fixed_and_nf_diff(&self, ctx: &mut LocalCtx) {
        for (p, n, tag) in self.cp.fixed_tags() {
            let state = &self.top[&n];
            let snap = ctx.injected_fixed.entry(tag).or_default();
            for id in state.iter() {
                if !snap.insert(id) {
                    continue;
                }
                let (pp, args) = self.atoms.resolve(id);
                if pp == p {
                    ctx.db.insert(tag, args);
                }
            }
        }
        for (p, rel) in self.nf.iter() {
            let cur = ctx.nf_cursors.entry(p).or_insert(0);
            for row in rel.rows_from(*cur) {
                ctx.db.insert(p, row);
            }
            *cur = rel.len();
        }
    }

    /// Per-predicate row counts of a local database: rows beyond these are
    /// the output of the next evaluation run.
    fn row_counts(db: &dl::Database) -> FxHashMap<Pred, usize> {
        db.iter().map(|(p, r)| (p, r.len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Atom, FTerm, NTerm, Rule};
    use fundb_term::Var;

    struct Ctx {
        i: Interner,
    }

    impl Ctx {
        fn new() -> Self {
            Ctx { i: Interner::new() }
        }
        fn pred(&mut self, n: &str) -> Pred {
            Pred(self.i.intern(n))
        }
        fn func(&mut self, n: &str) -> Func {
            Func(self.i.intern(n))
        }
        fn var(&mut self, n: &str) -> Var {
            Var(self.i.intern(n))
        }
        fn cst(&mut self, n: &str) -> Cst {
            Cst(self.i.intern(n))
        }
    }

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    /// The paper's introductory example: Meets/Next with Tony and Jan.
    fn meets_engine(ctx: &mut Ctx) -> (Engine, Pred, Func, Cst, Cst) {
        let meets = ctx.pred("Meets");
        let next = ctx.pred("Next");
        let succ = ctx.func("succ");
        let (t, x, y) = (ctx.var("t"), ctx.var("x"), ctx.var("y"));
        let (tony, jan) = (ctx.cst("tony"), ctx.cst("jan"));

        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(
                meets,
                FTerm::Pure(succ, Box::new(FTerm::Var(t))),
                vec![NTerm::Var(y)],
            ),
            vec![
                fat(meets, FTerm::Var(t), vec![NTerm::Var(x)]),
                Atom::Relational {
                    pred: next,
                    args: vec![NTerm::Var(x), NTerm::Var(y)],
                },
            ],
        ));
        let mut db = Database::new();
        db.facts
            .push(fat(meets, FTerm::Zero, vec![NTerm::Const(tony)]));
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(tony), NTerm::Const(jan)],
        });
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(jan), NTerm::Const(tony)],
        });
        let mut engine = Engine::build(&prog, &db, &mut ctx.i).unwrap();
        engine.solve().unwrap();
        (engine, meets, succ, tony, jan)
    }

    #[test]
    fn meets_alternates_forever() {
        let mut ctx = Ctx::new();
        let (engine, meets, succ, tony, jan) = meets_engine(&mut ctx);
        for n in 0..40usize {
            let path = vec![succ; n];
            assert_eq!(
                engine.holds(meets, &path, &[tony]),
                n % 2 == 0,
                "Meets({n}, tony)"
            );
            assert_eq!(
                engine.holds(meets, &path, &[jan]),
                n % 2 == 1,
                "Meets({n}, jan)"
            );
        }
    }

    #[test]
    fn relational_facts_are_preserved() {
        let mut ctx = Ctx::new();
        let (engine, _, _, tony, jan) = meets_engine(&mut ctx);
        let next = Pred(ctx.i.get("Next").unwrap());
        assert!(engine.holds_relational(next, &[tony, jan]));
        assert!(engine.holds_relational(next, &[jan, tony]));
        assert!(!engine.holds_relational(next, &[tony, tony]));
    }

    /// §3.5's Even example: D = {Even(0)}, Even(t) → Even(t+2).
    #[test]
    fn even_example() {
        let mut ctx = Ctx::new();
        let even = ctx.pred("Even");
        let succ = ctx.func("succ");
        let t = ctx.var("t");
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(
                even,
                FTerm::Pure(succ, Box::new(FTerm::Pure(succ, Box::new(FTerm::Var(t))))),
                vec![],
            ),
            vec![fat(even, FTerm::Var(t), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(even, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut ctx.i).unwrap();
        engine.solve().unwrap();
        for n in 0..30usize {
            assert_eq!(engine.holds(even, &vec![succ; n], &[]), n % 2 == 0, "n={n}");
        }
    }

    /// Backward flow inside the uniform region: C(t) iff A(f(t)), where A
    /// holds exactly on the f-chain.
    #[test]
    fn backward_rules_flow_down() {
        let mut ctx = Ctx::new();
        let a = ctx.pred("A");
        let c = ctx.pred("C");
        let f = ctx.func("f");
        let g = ctx.func("g");
        let s = ctx.var("s");
        let mut prog = Program::new();
        // A(s) → A(f(s)).
        prog.push(Rule::new(
            fat(a, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(a, FTerm::Var(s), vec![])],
        ));
        // A(f(s)) → C(s): backward.
        prog.push(Rule::new(
            fat(c, FTerm::Var(s), vec![]),
            vec![fat(a, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![])],
        ));
        // Mention g so it exists in the schema.
        prog.push(Rule::new(
            fat(a, FTerm::Pure(g, Box::new(FTerm::Var(s))), vec![]),
            vec![
                fat(a, FTerm::Var(s), vec![]),
                fat(a, FTerm::Pure(g, Box::new(FTerm::Var(s))), vec![]),
            ],
        ));
        let mut db = Database::new();
        db.facts.push(fat(a, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut ctx.i).unwrap();
        engine.solve().unwrap();
        // A on the f-chain only.
        assert!(engine.holds(a, &[f, f, f], &[]));
        assert!(!engine.holds(a, &[f, g], &[]));
        // C on the f-chain (every node whose f-child carries A).
        assert!(engine.holds(c, &[], &[]));
        assert!(engine.holds(c, &[f], &[]));
        assert!(engine.holds(c, &[f, f, f, f], &[]));
        assert!(!engine.holds(c, &[g], &[]));
        assert!(!engine.holds(c, &[f, g], &[]));
    }

    /// Sibling flow: B(g(t)) derived from A(f(t)) — the star couples the two
    /// children of `t`.
    #[test]
    fn sibling_rules_flow_across() {
        let mut ctx = Ctx::new();
        let a = ctx.pred("A");
        let b = ctx.pred("B");
        let f = ctx.func("f");
        let g = ctx.func("g");
        let s = ctx.var("s");
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(a, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(a, FTerm::Var(s), vec![])],
        ));
        // A(f(s)) → B(g(s)).
        prog.push(Rule::new(
            fat(b, FTerm::Pure(g, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(a, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(a, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut ctx.i).unwrap();
        engine.solve().unwrap();
        assert!(engine.holds(b, &[g], &[]));
        assert!(engine.holds(b, &[f, g], &[]));
        assert!(engine.holds(b, &[f, f, g], &[]));
        assert!(!engine.holds(b, &[g, f], &[]));
        assert!(!engine.holds(b, &[g, g], &[]));
    }

    /// Ground facts of depth > 0 put real content in the top region.
    #[test]
    fn deep_ground_facts_seed_top_region() {
        let mut ctx = Ctx::new();
        let p = ctx.pred("P");
        let q = ctx.pred("Q");
        let f = ctx.func("f");
        let s = ctx.var("s");
        let mut prog = Program::new();
        // P(f(s)) → Q(s): backward from a fact at depth 2 to depth 1.
        prog.push(Rule::new(
            fat(q, FTerm::Var(s), vec![]),
            vec![fat(p, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(p, FTerm::from_path(&[f, f]), vec![]));
        let mut engine = Engine::build(&prog, &db, &mut ctx.i).unwrap();
        engine.solve().unwrap();
        assert!(engine.holds(p, &[f, f], &[]));
        assert!(engine.holds(q, &[f], &[]));
        assert!(!engine.holds(q, &[], &[]));
        assert!(!engine.holds(q, &[f, f], &[]));
    }

    /// Cursors agree with state_of_path.
    #[test]
    fn cursors_track_paths() {
        let mut ctx = Ctx::new();
        let (engine, _, succ, _, _) = meets_engine(&mut ctx);
        let mut cur = engine.root_cursor();
        for n in 0..10 {
            let direct = engine.state_of_path(&vec![succ; n]);
            assert_eq!(engine.cursor_state(&cur), direct, "depth {n}");
            cur = engine.child_cursor(&cur, succ);
        }
    }

    /// Unknown constants or predicates simply do not hold (Prop 2.1: the
    /// LFP uses only symbols of Z ∪ D).
    #[test]
    fn unknown_symbols_do_not_hold() {
        let mut ctx = Ctx::new();
        let (engine, meets, succ, _, _) = meets_engine(&mut ctx);
        let ghost = ctx.cst("ghost");
        assert!(!engine.holds(meets, &[succ], &[ghost]));
    }
}
