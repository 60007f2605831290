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
//!
//! Every star — each top-region node and each demanded seed — is an
//! evaluation *context* with a dense id, and all of them share one Datalog
//! database and one semi-naive evaluator: a context's here and child atoms
//! are rows tagged with its id in the leading column (see
//! [`crate::compile`]), while fixed-node atoms and the relational store
//! are untagged rows held once; the store has no other copy, and
//! [`Engine::nf`] clones its relations out. A *local step* at a context
//! injects the delta of its own here and child states, resumes the
//! evaluator, and absorbs every new row into the state its context column
//! names, so a relational fact derived at one star reaches every star in
//! the same run.
//! A child that instantiates a mixed symbol, `g[c̄](t)` (§2.4), keeps its
//! rows in `g`'s one lifted relation, led by `c̄` after the context column,
//! so the engine fires one rule where the enumeration has one per `c̄`.
//! The pass loop and the seed worklist stay: a seed is the set of atoms
//! its parent pushes, known only once the parent's step has run.
//!
//! In a scoped program (`CompiledProgram::scoped`) a fresh context's
//! first step, with the database at its fixpoint, marks every row
//! processed once its rows are injected and then adds its scope row: the
//! run's one new row, which fires each star rule once at that context
//! instead of once per context atom its rows match.

use crate::compile::{ctx_cst, CompiledProgram, Loc, SCOPE};
use crate::error::Result;
use crate::gendb::{AtomId, AtomInterner};
use crate::normalize::normalize;
use crate::program::{Database, Program};
use crate::pure::to_pure;
use crate::state::State;
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FxHashMap, FxHashSet, Interner, NodeId, Pred, TermTree};

/// A memo-table entry: the state of a uniform node with a given seed, and
/// the seeds its rule firings push into each child.
#[derive(Default)]
struct Entry {
    state: State,
    child_seeds: FxHashMap<Func, State>,
}

/// What a context evaluates: a top-region node, whose state lives in
/// [`Engine::top`], or a uniform seed, whose memo entry it holds.
enum Site {
    Top(NodeId),
    Seed(Entry),
}

/// One evaluation context: a star of Lemma 3.1, whose rows in the engine's
/// database carry its index in [`Engine::ctxs`] in their context column.
///
/// The snapshots record which input atoms are in the database already, so
/// a step injects only the *delta* of each input. Rows are never
/// retracted: every input (top-region states, memoized uniform states,
/// the boundary seeds, the relational store) grows monotonically, and the
/// uniform least fixpoint is monotone in its seed, so a row that was true
/// of an earlier, smaller input is still true of the final one.
struct Ctx {
    site: Site,
    injected: Injected,
}

/// The atoms of a context's inputs already in the database.
#[derive(Default)]
struct Injected {
    here: State,
    /// Per child symbol.
    child: FxHashMap<Func, State>,
}

/// A position in the (infinite) term tree, as the engine sees it: either a
/// materialized top-region node (depth ≤ c) or a uniform node identified by
/// its seed. Two terms with the same cursor have identical subtrees, which
/// is exactly the congruence insight of §3.2.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cursor<'a> {
    /// A node of the top region.
    Top(NodeId),
    /// A uniform node, identified by its seed state (borrowed from the
    /// engine).
    Uniform(&'a State),
}

impl Cursor<'_> {
    /// Whether both cursors are the same position by identity: the same
    /// top-region node, or the very same seed object. Such cursors have the
    /// same state and subtree. Equal seeds stored apart compare `false`, so
    /// this is a cheap conservative test (cheaper than comparing seeds by
    /// value, which is slow for empty ones).
    pub fn is(&self, other: &Cursor<'_>) -> bool {
        match (self, other) {
            (Cursor::Top(a), Cursor::Top(b)) => a == b,
            (Cursor::Uniform(a), Cursor::Uniform(b)) => std::ptr::eq(*a, *b),
            _ => false,
        }
    }
}

/// The state of a term no rule reaches.
static EMPTY_STATE: State = State::new();

/// The least-fixpoint engine over a compiled program.
pub struct Engine {
    cp: CompiledProgram,
    atoms: AtomInterner,
    tree: TermTree,
    /// The state of every node of depth ≤ c.
    top: FxHashMap<NodeId, State>,
    /// Seeds flowing from depth-c nodes into their (uniform) children.
    boundary: FxHashMap<(NodeId, Func), State>,
    /// The contexts: the top nodes in breadth-first (precedence) order,
    /// then the seeds in the order they were first processed.
    ctxs: Vec<Ctx>,
    /// Processed seed → its context.
    memo: FxHashMap<State, usize>,
    /// The one database: every context's here and child rows, the
    /// fixed-node and scope rows, and the relational store.
    db: dl::Database,
    /// The semi-naive evaluation of `db`, under the engine's worker-thread
    /// count and governor. The governor's budgets (rows/rounds/time/bytes)
    /// and cancellation token span the whole solve, not one run.
    eval: dl::IncrementalEval,
    /// Per relation of `db`, the rows already absorbed.
    absorbed: FxHashMap<Pred, usize>,
    /// Whether the last run returned `Ok` and nothing was inserted since,
    /// leaving `db` at its fixpoint.
    settled: bool,
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
    /// Local steps at top-region nodes (one per node per pass).
    pub top_evals: usize,
    /// Stabilizations of uniform seeds (memo-table work): one per seed the
    /// pass's worklist visits, each running local steps until the seed's
    /// entry stops growing.
    pub uniform_evals: usize,
    /// Per pass, the number of new abstract atoms absorbed into the global
    /// stores (top region, boundary seeds, memo entries, relational store).
    /// The final pass is always 0 — it verifies the fixpoint.
    pub pass_deltas: Vec<usize>,
    /// Total of [`Self::pass_deltas`].
    pub delta_atoms: usize,
    /// Candidate rows enumerated by rule-body probes across all runs of
    /// the engine's evaluator.
    pub join_probes: usize,
    /// Bound-column selections fully answered by a per-column or composite
    /// index (see [`dl::EvalStats::index_hits`]).
    pub index_hits: usize,
    /// Bound-column selections that fell back to a partial single-column
    /// cover because no full index was available.
    pub index_misses: usize,
    /// Semi-naive rounds with tasks summed over all runs of the engine's
    /// evaluator.
    pub datalog_rounds: usize,
    /// Rows derived by the engine's evaluator (before absorption), at any
    /// context.
    pub derived_rows: usize,
}

impl EngineStats {
    fn absorb(&mut self, es: dl::EvalStats) {
        self.datalog_rounds += es.rounds;
        self.derived_rows += es.derived;
        self.join_probes += es.join_probes;
        self.index_hits += es.index_hits;
        self.index_misses += es.index_misses;
    }
}

/// The state of the uniform node seeded with `seed`: its memo entry's
/// state once processed, the seed itself before.
fn seed_state<'a>(memo: &FxHashMap<State, usize>, ctxs: &'a [Ctx], seed: &'a State) -> &'a State {
    seed_entry(memo, ctxs, seed).map_or(seed, |e| &e.state)
}

/// The memo entry of a processed seed.
fn seed_entry<'a>(
    memo: &FxHashMap<State, usize>,
    ctxs: &'a [Ctx],
    seed: &State,
) -> Option<&'a Entry> {
    match &ctxs[*memo.get(seed)?].site {
        Site::Seed(entry) => Some(entry),
        Site::Top(_) => unreachable!("the memo maps seeds to seed contexts"),
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
                next.extend(cp.funcs.symbols().iter().map(|&f| tree.child(n, f)));
            }
            top_nodes.extend(next.iter().copied());
            frontier = next;
        }

        let mut engine = Engine {
            ctxs: top_nodes
                .iter()
                .map(|&n| Ctx {
                    site: Site::Top(n),
                    injected: Injected::default(),
                })
                .collect(),
            top: top_nodes.iter().map(|&n| (n, State::new())).collect(),
            cp,
            atoms: AtomInterner::new(),
            tree,
            boundary: FxHashMap::default(),
            memo: FxHashMap::default(),
            db: dl::Database::new(),
            eval: dl::IncrementalEval::new(),
            absorbed: FxHashMap::default(),
            settled: false,
            solved: false,
            stats: EngineStats::default(),
        };
        for (node, pred, args) in engine.cp.seeds.clone() {
            let id = engine.atoms.intern(pred, &args);
            engine.insert_top(node, id);
        }
        for (pred, args) in &engine.cp.nf_facts {
            engine.db.insert(*pred, args);
        }
        engine
    }

    /// Pins the worker-thread count used by the engine's evaluator
    /// (`None` restores the default: `FUNDB_THREADS`, else 1).
    /// Thread count never changes results or stats: parallel rounds merge
    /// worker buffers in task order, byte-identical to sequential.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.eval.set_threads(threads);
    }

    /// The worker-thread count the engine's evaluator will use.
    pub fn threads(&self) -> usize {
        self.eval.effective_threads()
    }

    /// Installs the governor that budgets this engine's evaluations. Its
    /// counters and deadline span every run of every subsequent
    /// [`Engine::solve`], so e.g. `max_rounds` bounds the solve's *total*
    /// semi-naive rounds.
    pub fn set_governor(&mut self, governor: dl::Governor) {
        self.eval.set_governor(governor);
    }

    /// The governor in effect (e.g. to clone its cancellation token).
    pub fn governor(&self) -> &dl::Governor {
        self.eval.governor()
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
    /// Evaluation is semi-naive at both levels: each local step feeds only
    /// the *delta* of its context's inputs into the engine's database, and
    /// the evaluator resumes from its low-water marks, so work is
    /// proportional to what is newly derivable rather than to everything
    /// derived so far. A step with nothing to inject while the database is
    /// at its fixpoint runs nothing, and [`EngineStats::datalog_rounds`]
    /// counts only rounds with tasks. The final pass absorbs nothing
    /// ([`EngineStats::pass_deltas`] ends in 0) and only verifies the
    /// fixpoint.
    ///
    /// On `Err` ([`crate::error::Error::Eval`]: budget exhausted,
    /// cancelled, or a worker panicked) the engine is left consistent —
    /// the database holds the committed rounds plus, after a row budget
    /// trip, the deterministic prefix of the tripping round's merge, all
    /// absorbed into the global stores — and not marked solved. A later
    /// call (e.g. under a fresh governor) resumes where this one stopped:
    /// the evaluator's marks move only when a round's merge completes, and
    /// a tripped run leaves the database unsettled, so the next step runs
    /// even with nothing injected; the tripped round runs again and the
    /// resumed solve equals an uninterrupted one.
    pub fn solve(&mut self) -> Result<()> {
        if self.solved {
            return Ok(());
        }
        loop {
            self.stats.passes += 1;
            let before = self.stats.delta_atoms;
            let mut changed = false;
            for id in 0..self.top.len() {
                self.stats.top_evals += 1;
                changed |= self.local_step(id)?.1;
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
        if let Some(f) = path.iter().find(|f| !self.cp.funcs.symbols().contains(f)) {
            return Err(crate::error::Error::UnsupportedQuery {
                detail: format!(
                    "function symbol `{}` is not in the compiled program; rebuild",
                    interner.resolve(f.sym())
                ),
            });
        }
        let node = self
            .tree
            .lookup_path(path)
            .expect("top region is fully materialized");
        let id = self.atoms.intern(pred, args);
        if self.insert_top(node, id) {
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
        if self.db.insert(pred, args) {
            self.settled = false;
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
        if let Some(c) = args.iter().find(|c| !self.cp.schema.constants.contains(c)) {
            return Err(crate::error::Error::UnsupportedQuery {
                detail: format!(
                    "constant `{}` is new — the mixed→pure transformation is \
                     database-dependent (§2.4); rebuild the engine",
                    interner.resolve(c.sym())
                ),
            });
        }
        Ok(())
    }

    // --- public read API ---------------------------------------------------

    /// The slice (state) of the ground pure term given by `path`.
    pub fn state_of_path(&self, path: &[Func]) -> &State {
        let cur = path
            .iter()
            .fold(self.root_cursor(), |cur, &f| self.child_cursor(&cur, f));
        self.cursor_state(&cur)
    }

    /// Yes-no query for a functional tuple `P(t, ā)` with `t` given as a
    /// path (Theorem 4.1's problem).
    pub fn holds(&self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(id) = self.atoms.get(pred, args) else {
            return false;
        };
        self.state_of_path(path).contains(id)
    }

    /// Yes-no query for a relational tuple `S(ā)`. A tagged predicate or
    /// the scope relation never holds here.
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.cp.schema.is_relational(pred) && self.db.contains(pred, args)
    }

    /// A copy of the non-functional store (all given and derived
    /// relational facts): the relations of the engine's database that
    /// belong to the program's relational predicates, each cloned whole.
    pub fn nf(&self) -> dl::Database {
        let mut out = dl::Database::new();
        for (p, rel) in self.db.iter() {
            if self.cp.schema.is_relational(p) {
                *out.relation_mut(p, rel.arity()) = rel.clone();
            }
        }
        out
    }

    /// Cursor at the root (`0`).
    pub fn root_cursor(&self) -> Cursor<'_> {
        Cursor::Top(self.tree.root())
    }

    /// Cursor of the child `f(t)`. A symbol outside the program's
    /// vocabulary leads to an empty uniform node: such a term cannot occur
    /// in the least fixpoint (Proposition 2.1).
    pub fn child_cursor<'a>(&'a self, cur: &Cursor<'a>, f: Func) -> Cursor<'a> {
        match *cur {
            Cursor::Top(n) if self.tree.depth(n) < self.cp.c => self
                .tree
                .get_child(n, f)
                .map_or(Cursor::Uniform(&EMPTY_STATE), Cursor::Top),
            Cursor::Top(n) => Cursor::Uniform(self.boundary.get(&(n, f)).unwrap_or(&EMPTY_STATE)),
            Cursor::Uniform(seed) => Cursor::Uniform(
                seed_entry(&self.memo, &self.ctxs, seed)
                    .and_then(|e| e.child_seeds.get(&f))
                    .unwrap_or(&EMPTY_STATE),
            ),
        }
    }

    /// The cursors of all children `f(t)`, one per symbol in [`FuncOrder`]
    /// order: [`Engine::child_cursor`] for every `f`, with a uniform node's
    /// memo entry looked up once instead of once per symbol.
    ///
    /// [`FuncOrder`]: fundb_term::FuncOrder
    pub fn child_cursors<'a>(&'a self, cur: &Cursor<'a>) -> impl Iterator<Item = Cursor<'a>> + 'a {
        let cur = *cur;
        let entry = match cur {
            Cursor::Uniform(seed) => seed_entry(&self.memo, &self.ctxs, seed),
            Cursor::Top(_) => None,
        };
        self.cp.funcs.symbols().iter().map(move |&f| match cur {
            Cursor::Uniform(_) => Cursor::Uniform(
                entry
                    .and_then(|e| e.child_seeds.get(&f))
                    .unwrap_or(&EMPTY_STATE),
            ),
            Cursor::Top(_) => self.child_cursor(&cur, f),
        })
    }

    /// The state at a cursor, borrowed from the engine.
    pub fn cursor_state<'a>(&'a self, cur: &Cursor<'a>) -> &'a State {
        match *cur {
            Cursor::Top(n) => self.top.get(&n).unwrap_or(&EMPTY_STATE),
            Cursor::Uniform(seed) => seed_state(&self.memo, &self.ctxs, seed),
        }
    }

    // --- fixpoint internals --------------------------------------------------

    /// Adds `id` to the state of top node `n` and, when a rule reads it
    /// there, to `n`'s fixed-node relation. Returns whether the state grew.
    fn insert_top(&mut self, n: NodeId, id: AtomId) -> bool {
        let grew = self
            .top
            .get_mut(&n)
            .expect("every top node was given a state in Engine::new")
            .insert(id);
        let (p, args) = self.atoms.resolve(id);
        let tag = self.cp.tag_of(p, Loc::Fixed(n));
        if grew && tag.is_some_and(|tag| self.db.insert(tag, args)) {
            self.settled = false;
        }
        grew
    }

    /// Processes every demanded uniform seed once; returns whether anything
    /// (memo entries, top region, relational store) changed.
    fn uniform_pass(&mut self) -> Result<bool> {
        let mut queue: Vec<State> = Vec::new();
        let mut enqueued: FxHashSet<State> = FxHashSet::default();
        for seed in self.boundary.values().chain(self.memo.keys()) {
            if !seed.is_empty() && enqueued.insert(seed.clone()) {
                queue.push(seed.clone());
            }
        }
        let mut changed = false;
        while let Some(seed) = queue.pop() {
            self.stats.uniform_evals += 1;
            let (id, seed_changed) = self.process_seed(seed)?;
            changed |= seed_changed;
            let Site::Seed(entry) = &self.ctxs[id].site else {
                unreachable!("process_seed returns a seed context");
            };
            for cs in entry.child_seeds.values() {
                if !cs.is_empty() && enqueued.insert(cs.clone()) {
                    queue.push(cs.clone());
                }
            }
        }
        Ok(changed)
    }

    /// Stabilizes one uniform seed: creates its context on first sight,
    /// then runs local steps there until its entry stops growing. Returns
    /// the context and whether anything changed (a new entry counts).
    fn process_seed(&mut self, seed: State) -> Result<(usize, bool)> {
        let (id, mut changed) = match self.memo.get(&seed) {
            Some(&id) => (id, false),
            None => {
                let id = self.ctxs.len();
                let entry = Entry {
                    state: seed.clone(),
                    child_seeds: FxHashMap::default(),
                };
                self.ctxs.push(Ctx {
                    site: Site::Seed(entry),
                    injected: Injected::default(),
                });
                self.memo.insert(seed, id);
                (id, true)
            }
        };
        loop {
            let (grew, any) = self.local_step(id)?;
            changed |= any;
            if !grew {
                return Ok((id, changed));
            }
        }
    }

    /// One star-local step (Lemma 3.1) at context `id`: injects the delta
    /// of its here and child states, resumes the evaluator unless nothing
    /// was injected into a settled database, and absorbs the new rows.
    /// Returns whether a store of `id` grew (see [`Engine::absorb`]; only a
    /// seed's memo entry matters) and whether any store grew.
    ///
    /// On `Err` the database still holds a deterministic prefix of
    /// committed rows; they are absorbed before the error propagates, so a
    /// resumed solve never skips them.
    fn local_step(&mut self, id: usize) -> Result<(bool, bool)> {
        let scope = [ctx_cst(id)];
        let fresh = self.cp.scoped() && !self.db.contains(SCOPE, &scope);
        let settled = self.settled;
        let injected = self.inject(id);
        if fresh {
            // With the database otherwise at its fixpoint, the context's
            // rows need no delta tasks of their own: mark them processed,
            // and the scope row fires every star rule once at this
            // context, over all of its rows.
            if settled {
                self.eval.prime_marks(&self.db);
            }
            self.db.insert(SCOPE, &scope);
        } else if !injected && settled {
            return Ok((false, false));
        }
        let run = self.eval.run(&mut self.db, self.cp.rules(), self.cp.plan());
        self.settled = run.is_ok();
        if let Ok(es) = run {
            self.stats.absorb(es);
        }
        let step = self.absorb(id);
        run?;
        Ok(step)
    }

    /// Injects the atoms of context `id`'s here state and of the states of
    /// its existing children (a top node's materialized children or
    /// boundary seeds, a seed's child seeds) not yet in the database, as
    /// rows tagged with `id` (a lifted child's led by its constants, see
    /// [`CompiledProgram::child_loc`]). Atoms whose predicate no rule reads
    /// at their location are recorded but not injected. Returns whether a
    /// row was added.
    fn inject(&mut self, id: usize) -> bool {
        let mut snap = std::mem::take(&mut self.ctxs[id].injected);
        let Engine {
            ctxs,
            memo,
            top,
            boundary,
            tree,
            cp,
            atoms,
            db,
            ..
        } = self;
        let mut row = vec![ctx_cst(id)];
        let mut added = false;
        let mut inject = |state: &State, snap: &mut State, (loc, lead): (Loc, &[Cst])| {
            for atom in state.iter().filter(|&atom| snap.insert(atom)) {
                let (p, args) = atoms.resolve(atom);
                if let Some(tag) = cp.tag_of(p, loc) {
                    row.truncate(1);
                    row.extend_from_slice(lead);
                    row.extend_from_slice(args);
                    added |= db.insert(tag, &row);
                }
            }
        };
        match &ctxs[id].site {
            Site::Top(n) => {
                inject(&top[n], &mut snap.here, (Loc::Here, &[]));
                for &f in cp.funcs.symbols() {
                    // A depth-c node's children are uniform, in `boundary`.
                    let child = match tree.get_child(*n, f) {
                        Some(child) => &top[&child],
                        None => boundary
                            .get(&(*n, f))
                            .map_or(&EMPTY_STATE, |seed| seed_state(memo, ctxs, seed)),
                    };
                    // An empty child, as most of a wide node's are, is skipped.
                    if !child.is_empty() {
                        inject(child, snap.child.entry(f).or_default(), cp.child_loc(f));
                    }
                }
            }
            Site::Seed(entry) => {
                inject(&entry.state, &mut snap.here, (Loc::Here, &[]));
                for (&f, seed) in &entry.child_seeds {
                    let child = seed_state(memo, ctxs, seed);
                    inject(child, snap.child.entry(f).or_default(), cp.child_loc(f));
                }
            }
        }
        self.ctxs[id].injected = snap;
        added
    }

    /// Absorbs the rows the evaluator derived since the last absorption:
    /// a relational row is only counted, as the database is the relational
    /// store; a fixed-node row goes into that node's state, and a here or
    /// child row into the state of the context its first column names
    /// (recorded as injected there); a lifted child row goes to the
    /// instance its leading constants name ([`CompiledProgram::instance`]).
    /// Returns whether a store of context `current` (its memo entry, or a
    /// top node's boundary seeds) grew and whether any store grew.
    fn absorb(&mut self, current: usize) -> (bool, bool) {
        let (mut own, mut any) = (false, false);
        // Top-node atoms, added once the walk over `db` is done (a node's
        // fixed-node relation lives in `db`).
        let mut top_atoms: Vec<(NodeId, AtomId)> = Vec::new();
        for (tagged, rel) in self.db.iter() {
            let from = std::mem::replace(self.absorbed.entry(tagged).or_insert(0), rel.len());
            if rel.len() == from {
                continue;
            }
            // Injected rows are asserted; the evaluator's are derived.
            let derived = (from..rel.len())
                .map(|i| dl::RowId(i as u32))
                .filter(|&id| !rel.is_asserted(id));
            let Some(untagged) = self.cp.untag(tagged) else {
                let new = derived.count();
                self.stats.delta_atoms += new;
                any |= new > 0;
                continue;
            };
            for row in derived.map(|id| rel.row(id)) {
                let (p, child, args) = match untagged {
                    (p, Loc::Fixed(n)) => {
                        top_atoms.push((n, self.atoms.intern(p, row)));
                        continue;
                    }
                    (p, Loc::Here) => (p, None, &row[1..]),
                    (p, Loc::Child(f)) => (p, Some(f), &row[1..]),
                    (p, Loc::Mixed(g)) => {
                        let (f, args) = self.cp.instance(g, &row[1..]);
                        (p, Some(f), args)
                    }
                };
                let ctx_id = row[0].index();
                let id = self.atoms.intern(p, args);
                let Ctx { site, injected } = &mut self.ctxs[ctx_id];
                match child {
                    None => injected.here.insert(id),
                    Some(f) => injected.child.entry(f).or_default().insert(id),
                };
                let slot = match (child, site) {
                    (None, Site::Top(n)) => {
                        top_atoms.push((*n, id));
                        continue;
                    }
                    (Some(f), Site::Top(n)) if self.tree.depth(*n) < self.cp.c => {
                        let child = self.tree.get_child(*n, f);
                        top_atoms.push((child.expect("top region is fully materialized"), id));
                        continue;
                    }
                    (Some(f), Site::Top(n)) => self.boundary.entry((*n, f)).or_default(),
                    (None, Site::Seed(entry)) => &mut entry.state,
                    (Some(f), Site::Seed(entry)) => entry.child_seeds.entry(f).or_default(),
                };
                if slot.insert(id) {
                    self.stats.delta_atoms += 1;
                    any = true;
                    own |= ctx_id == current;
                }
            }
        }
        for (n, id) in top_atoms {
            if self.insert_top(n, id) {
                self.stats.delta_atoms += 1;
                any = true;
            }
        }
        (own, any)
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

        // A symbol outside the vocabulary inside the top region (c = 2)
        // names a term outside the least fixpoint (Proposition 2.1).
        let g = ctx.func("g");
        assert!(engine.state_of_path(&[g]).is_empty());
        let cur = engine.child_cursor(&engine.root_cursor(), g);
        assert!(engine.cursor_state(&cur).is_empty());
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
