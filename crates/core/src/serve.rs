//! The read-serving layer: frozen specifications, canonical-path
//! memoization, and parallel batch answering.
//!
//! The paper's product is a *finite* representation of an *infinite* least
//! fixpoint that can be queried forever after the one-off construction
//! (§3.4/§3.5). The construction side ([`GraphSpec::from_engine`],
//! [`EqSpec::from_graph`]) is mutable and single-owner; this module seals a
//! finished specification into an immutable, `Arc`-shareable snapshot whose
//! every read takes `&self`:
//!
//! * [`FrozenGraphSpec`] — the graph specification `(B, F)` whose dense
//!   `nodes × funcs` successor table, indexed through a flat symbol → column
//!   map, makes the `Link` walk of a membership query a lock-free table
//!   scan instead of per-step hash lookups; plus a hash-consed [`PathTrie`] memo
//!   mapping `[Func]` prefixes to representative nodes (repeated or
//!   overlapping lookups cost O(unseen suffix)), and a lock-striped answer
//!   cache keyed by `(Pred, canonical representative, args)`.
//! * [`FrozenEqSpec`] — the equational specification `(B, R)` with the
//!   congruence closure precomputed into a class-transition DFA
//!   ([`fundb_congruence::FrozenClosure`]) with every term's class resolved
//!   at freeze time, removing the `&mut self` poison from
//!   [`EqSpec::holds`]/[`EqSpec::congruent`].
//!
//! **Cache-key soundness.** The answer cache is keyed by the canonical
//! representative, not the queried path: `P(t₀, ā) ∈ L` depends on `t₀`
//! only through its cluster of the state congruence `≅` (Theorem 3.1 — all
//! members of a cluster carry the same slice `L[t]`), and the successor
//! walk maps every path to its cluster's representative. Distinct paths in
//! the same cluster therefore *must* share a cache line, and paths in
//! different clusters never collide because their representatives differ.
//! The cache stores only `(key → bool)` pairs that [`FrozenGraphSpec`]
//! itself computed from immutable data, so a hit is always byte-identical
//! to a recomputation — caching affects throughput, never answers.
//!
//! **Batching.** [`FrozenGraphSpec::answer_batch`] fans a query slice out
//! over `std::thread::scope` workers, each writing a disjoint input-ordered
//! chunk of the output vector — results are byte-identical at any thread
//! count (the determinism contract of the parallel fixpoint rounds, held
//! to on the read path). Governed variants poll
//! [`Governor::checkpoint`](dl::Governor::checkpoint) at chunk boundaries
//! and surface trips as [`dl::EvalError`] without poisoning any cache
//! shard: every shard lock is taken through
//! [`PoisonError::into_inner`], so a panicking worker can never wedge the
//! cache for later readers.

use crate::eqspec::EqSpec;
use crate::gendb::AtomInterner;
use crate::graphspec::{GraphSpec, SpecNodeId};
use crate::state::State;
use fundb_congruence::FrozenClosure;
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FxHashMap, FxHasher, PathTrie, Pred};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// Number of answer-cache shards (a power of two; the shard is the low
/// bits of the key hash). Striping bounds contention: concurrent readers
/// only collide when their keys share a shard.
const CACHE_SHARDS: usize = 16;

/// Sentinel "representative" for relational (non-functional) cache keys;
/// unreachable as a real node index (node interning fails first).
const REL_REP: u32 = u32::MAX;

/// How many queries a governed batch worker answers between governor
/// checkpoints.
const GOVERNED_CHUNK: usize = 64;

/// One yes/no membership question against a frozen specification.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ServeQuery {
    /// Functional membership `P(t₀, ā) ∈ L`, with `t₀` as a symbol path.
    Member {
        /// The predicate.
        pred: Pred,
        /// Symbol path of the ground functional term (innermost first).
        path: Vec<Func>,
        /// Non-functional argument tuple.
        args: Vec<Cst>,
    },
    /// Relational membership `Q(ā) ∈ L`.
    Relational {
        /// The predicate.
        pred: Pred,
        /// The argument tuple.
        args: Vec<Cst>,
    },
}

/// Cumulative answer-cache counters of a frozen specification.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries answered from the striped cache.
    pub hits: u64,
    /// Queries computed and inserted (first sight of their key).
    pub misses: u64,
    /// Cache entries dropped by [`FrozenGraphSpec::patch_retraction`]
    /// (entries outside the recomputed cone are never touched).
    pub patches: u64,
}

/// One cached answer: the owned key confirms hash-bucket candidates. The
/// `u64` component is the *adornment* of the goal (bound-argument bitmask,
/// see [`dl::magic`]): membership probes are fully ground (all-bound), and
/// keying on the adorned goal keeps warm serving composable with
/// demand-driven answering, which caches per binding pattern.
type CacheEntry = ((Pred, u32, u64, Box<[Cst]>), bool);

/// An immutable, shareable graph specification `(B, F)` snapshot.
///
/// All methods take `&self`; the only interior locking on the hot hit path
/// is the striped answer cache (the successor walk itself is a lock-free
/// dense-array scan). Wrap it in an `Arc` to share across threads.
pub struct FrozenGraphSpec {
    /// The sealed specification; its dense successor table is what the
    /// `Link` walk reads.
    spec: GraphSpec,
    /// Number of function symbols (row stride of the successor table).
    nfuncs: usize,
    /// `rank[f.sym().index()]` = column of `f`, or `u32::MAX` for symbols
    /// outside the program's vocabulary.
    rank: Vec<u32>,
    /// Hash-consed `[Func]`-prefix → representative-node memo.
    memo: RwLock<PathTrie>,
    /// Lock-striped answer cache: shard by key hash, hash-bucket entries
    /// confirmed against the owned key.
    shards: Vec<Mutex<FxHashMap<u64, Vec<CacheEntry>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Monotone patch epoch: bumped by every
    /// [`patch_retraction`](Self::patch_retraction), so serving layers can
    /// tag answers (or downstream caches) with the spec version they were
    /// computed against and detect staleness without locking a shard.
    epoch: AtomicU64,
    /// Cache entries dropped across all patches.
    patched: AtomicU64,
}

impl std::fmt::Debug for FrozenGraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrozenGraphSpec({:?}, memo {} prefixes, cache {} hits / {} misses)",
            self.spec,
            self.memo
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

impl GraphSpec {
    /// Seals the specification into an immutable, shareable snapshot.
    pub fn freeze(self) -> FrozenGraphSpec {
        match FrozenGraphSpec::build(self, None) {
            Ok(frozen) => frozen,
            Err(_) => unreachable!("ungoverned freeze cannot trip a budget"),
        }
    }

    /// Governed variant of [`GraphSpec::freeze`]: polls the governor's
    /// cancellation/deadline gate before sealing and returns
    /// [`dl::EvalError::BudgetExhausted`] on a trip.
    pub fn freeze_governed(
        self,
        governor: &dl::Governor,
    ) -> Result<FrozenGraphSpec, dl::EvalError> {
        FrozenGraphSpec::build(self, Some(governor))
    }
}

impl FrozenGraphSpec {
    fn build(spec: GraphSpec, governor: Option<&dl::Governor>) -> Result<Self, dl::EvalError> {
        if let Some(gov) = governor {
            checkpoint(gov)?;
        }
        let max_sym = spec
            .funcs
            .symbols()
            .iter()
            .map(|f| f.sym().index())
            .max()
            .map_or(0, |m| m + 1);
        let mut rank = vec![u32::MAX; max_sym];
        for (r, &f) in spec.funcs.symbols().iter().enumerate() {
            rank[f.sym().index()] = r as u32;
        }
        Ok(FrozenGraphSpec {
            nfuncs: spec.funcs.len(),
            spec,
            rank,
            memo: RwLock::new(PathTrie::new(0)),
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            patched: AtomicU64::new(0),
        })
    }

    /// The sealed specification (for structural accessors, rendering, and
    /// compiled query evaluation).
    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }

    /// Unseals the snapshot, returning the owned specification (the memo
    /// and cache are discarded).
    pub fn thaw(self) -> GraphSpec {
        self.spec
    }

    /// Persists the sealed specification to `path` in the versioned binary
    /// spec format ([`crate::spec_io::SPEC_BIN_MAGIC`]), so a served spec
    /// can be durably snapshotted without thawing the live snapshot. The
    /// memo and answer cache are *not* written — they are derived data a
    /// reload rebuilds on demand.
    pub fn save_binary(
        &self,
        path: &str,
        interner: &fundb_term::Interner,
    ) -> crate::error::Result<()> {
        let bundle = crate::spec_io::SpecBundle {
            spec: self.spec.clone(),
            sym_map: FxHashMap::default(),
        };
        crate::spec_io::write_spec_file_binary(path, &bundle, interner)
    }

    /// Loads a specification file (binary or text, auto-detected) and seals
    /// it for serving. Inverse of [`FrozenGraphSpec::save_binary`]; any
    /// mixed→pure symbol map stored alongside the spec is dropped (use
    /// [`crate::spec_io::read_spec_file_frozen`] to keep it).
    pub fn load_binary(
        path: &str,
        interner: &mut fundb_term::Interner,
    ) -> crate::error::Result<Self> {
        Ok(crate::spec_io::read_spec_file(path, interner)?
            .spec
            .freeze())
    }

    /// Cumulative answer-cache counters.
    pub fn serve_stats(&self) -> ServeStats {
        ServeStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            patches: self.patched.load(Ordering::Relaxed),
        }
    }

    /// The current patch epoch (0 at freeze; +1 per
    /// [`patch_retraction`](Self::patch_retraction)).
    pub fn patch_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Patches the sealed snapshot after a completed incremental
    /// retraction in the backing relational database, instead of
    /// re-freezing: applies the retraction's *net* row deletions (the
    /// over-delete set minus re-derived survivors) to the sealed
    /// relational store and invalidates only the answer-cache entries
    /// whose predicate lies in the recomputed cone. The functional side
    /// (successor table, node states, path memo) depends on the program
    /// alone, so cached entries outside the cone — including every
    /// `Member` answer under an untouched predicate — stay warm and
    /// remain byte-identical to recomputation. Bumps the patch epoch;
    /// returns the number of cache entries dropped.
    ///
    /// Takes `&mut self` deliberately: patching is a maintenance-window
    /// operation (`Arc::get_mut`, or before sharing), so readers never
    /// observe a half-applied cone.
    pub fn patch_retraction(&mut self, outcome: &dl::RetractOutcome) -> usize {
        retract_net_rows(&mut self.spec.nf, outcome);
        let mut cone: Vec<Pred> = Vec::new();
        for (p, _) in outcome.net_deleted() {
            if !cone.contains(&p) {
                cone.push(p);
            }
        }
        let mut dropped = 0usize;
        if !cone.is_empty() {
            for shard in &self.shards {
                let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                for entries in guard.values_mut() {
                    let before = entries.len();
                    entries.retain(|((p, _, _, _), _)| !cone.contains(p));
                    dropped += before - entries.len();
                }
                guard.retain(|_, entries| !entries.is_empty());
            }
        }
        self.patched.fetch_add(dropped as u64, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Relaxed);
        dropped
    }

    /// Number of memoized path prefixes (including the empty one).
    pub fn memo_len(&self) -> usize {
        self.memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Dense representative-node index of a path, or `None` when the path
    /// uses a symbol outside the program's vocabulary. Lock-free: one dense
    /// array read per symbol.
    #[inline]
    fn rep_index(&self, path: &[Func]) -> Option<u32> {
        let mut cur = 0u32;
        for &f in path {
            let r = *self.rank.get(f.sym().index())?;
            if r == u32::MAX {
                return None;
            }
            cur = self.spec.succ[cur as usize * self.nfuncs + r as usize];
        }
        Some(cur)
    }

    /// The representative of a term — the `Link` walk of the paper — as a
    /// lock-free dense-array scan.
    pub fn representative_of(&self, path: &[Func]) -> Option<SpecNodeId> {
        self.rep_index(path)
            .map(|i| SpecNodeId::from_dense_index(i as usize))
    }

    /// Memoized representative lookup: the longest previously-seen prefix
    /// is resolved through the hash-consed trie, so the walk only pays for
    /// the unseen suffix. Prefer this for workloads with many overlapping
    /// long paths; for one-off short paths [`Self::representative_of`]
    /// avoids the read lock.
    pub fn representative_memoized(&self, path: &[Func]) -> Option<SpecNodeId> {
        {
            let memo = self.memo.read().unwrap_or_else(PoisonError::into_inner);
            let (node, consumed) = memo.longest_prefix(path);
            if consumed == path.len() {
                return Some(SpecNodeId::from_dense_index(memo.value(node) as usize));
            }
        }
        let mut memo = self.memo.write().unwrap_or_else(PoisonError::into_inner);
        // Re-walk under the write lock: the trie may have grown since.
        let (mut node, consumed) = memo.longest_prefix(path);
        let mut cur = memo.value(node);
        for &f in &path[consumed..] {
            let r = *self.rank.get(f.sym().index())?;
            if r == u32::MAX {
                return None;
            }
            cur = self.spec.succ[cur as usize * self.nfuncs + r as usize];
            node = memo.child(node, f, cur);
        }
        Some(SpecNodeId::from_dense_index(cur as usize))
    }

    /// Yes-no membership `P(t₀, ā) ∈ L`, answered through the striped
    /// cache (keyed by the canonical representative of `t₀`, so every
    /// member of a cluster shares one cache line).
    pub fn holds(&self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(rep) = self.rep_index(path) else {
            return false; // outside the vocabulary: not in L (Prop. 2.1)
        };
        self.cached(pred, rep, dl::magic::all_bound(args.len()), args, |spec| {
            spec.atoms
                .get(pred, args)
                .is_some_and(|id| spec.nodes[rep as usize].state.contains(id))
        })
    }

    /// Yes-no membership for a relational tuple, through the same cache
    /// (under a sentinel representative).
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.cached(
            pred,
            REL_REP,
            dl::magic::all_bound(args.len()),
            args,
            |spec| spec.nf.contains(pred, args),
        )
    }

    /// Answers one query.
    pub fn answer(&self, query: &ServeQuery) -> bool {
        match query {
            ServeQuery::Member { pred, path, args } => self.holds(*pred, path, args),
            ServeQuery::Relational { pred, args } => self.holds_relational(*pred, args),
        }
    }

    /// Answers a batch of queries in parallel, one output per input in
    /// input order. Workers own disjoint chunks of the output, so the
    /// result is byte-identical at any worker count; the shared cache
    /// affects throughput only.
    pub fn answer_batch(&self, queries: &[ServeQuery]) -> Vec<bool> {
        self.answer_batch_threads(queries, dl::default_threads())
    }

    /// [`Self::answer_batch`] with an explicit worker count.
    pub fn answer_batch_threads(&self, queries: &[ServeQuery], threads: usize) -> Vec<bool> {
        match self.batch_inner(queries, threads, None) {
            Ok(answers) => answers,
            Err(_) => unreachable!("ungoverned batch cannot trip a budget"),
        }
    }

    /// Governed batch answering: workers poll the governor's
    /// cancellation/deadline gate every [`GOVERNED_CHUNK`] queries; a trip
    /// discards the batch and returns [`dl::EvalError::BudgetExhausted`].
    /// The cache is left fully usable (completed entries stay).
    pub fn answer_batch_governed(
        &self,
        queries: &[ServeQuery],
        governor: &dl::Governor,
        threads: usize,
    ) -> Result<Vec<bool>, dl::EvalError> {
        self.batch_inner(queries, threads, Some(governor))
    }

    fn batch_inner(
        &self,
        queries: &[ServeQuery],
        threads: usize,
        governor: Option<&dl::Governor>,
    ) -> Result<Vec<bool>, dl::EvalError> {
        if let Some(gov) = governor {
            checkpoint(gov)?;
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let mut answers = vec![false; queries.len()];
        let workers = threads.clamp(1, queries.len());
        let chunk = queries.len().div_ceil(workers);
        let mut tripped: Option<dl::Resource> = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .zip(answers.chunks_mut(chunk))
                .map(|(qs, outs)| {
                    s.spawn(move || -> Result<(), dl::Resource> {
                        for (i, (q, out)) in qs.iter().zip(outs.iter_mut()).enumerate() {
                            if let Some(gov) = governor {
                                if i % GOVERNED_CHUNK == 0 {
                                    gov.checkpoint()?;
                                }
                            }
                            *out = self.answer(q);
                        }
                        Ok(())
                    })
                })
                .collect();
            // Join in spawn order so the reported resource is the first
            // tripping worker's by input position, not by race arrival.
            for h in handles {
                if let Err(resource) = h.join().expect("serve workers do not panic") {
                    tripped.get_or_insert(resource);
                }
            }
        });
        match tripped {
            Some(resource) => Err(dl::EvalError::BudgetExhausted {
                resource,
                partial: dl::EvalStats::default(),
            }),
            None => Ok(answers),
        }
    }

    /// Looks the adorned goal `(pred, rep, adorn, args)` up in the striped
    /// cache, computing and inserting via `compute` on first sight. Shard
    /// locks are recovered from poisoning, so a panicked worker cannot
    /// wedge the cache.
    fn cached(
        &self,
        pred: Pred,
        rep: u32,
        adorn: u64,
        args: &[Cst],
        compute: impl FnOnce(&GraphSpec) -> bool,
    ) -> bool {
        let mut hasher = FxHasher::default();
        pred.hash(&mut hasher);
        rep.hash(&mut hasher);
        adorn.hash(&mut hasher);
        args.hash(&mut hasher);
        let h = hasher.finish();
        let shard = &self.shards[h as usize & (CACHE_SHARDS - 1)];
        {
            let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(entries) = guard.get(&h) {
                for ((p, r, ad, a), ans) in entries {
                    if *p == pred && *r == rep && *ad == adorn && a.as_ref() == args {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return *ans;
                    }
                }
            }
        }
        // Miss: compute outside the lock (the computation only reads
        // immutable data), then insert if no racing worker beat us to it.
        let ans = compute(&self.spec);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        let entries = guard.entry(h).or_default();
        if !entries
            .iter()
            .any(|((p, r, ad, a), _)| *p == pred && *r == rep && *ad == adorn && a.as_ref() == args)
        {
            entries.push(((pred, rep, adorn, args.to_vec().into_boxed_slice()), ans));
        }
        ans
    }
}

/// An immutable, shareable equational specification `(B, R)` snapshot:
/// membership and congruence tests take `&self` (the mutable procedure's
/// lazy term interning is replaced by the frozen closure's canonical
/// `(class, suffix)` walk).
#[derive(Clone)]
pub struct FrozenEqSpec {
    /// Depth of the largest ground term (`c`).
    c: usize,
    /// Slices of the shallow (depth ≤ c) representatives, by exact path.
    shallow: FxHashMap<Box<[Func]>, State>,
    /// Union of the slices of the deep representatives in each congruence
    /// class of the frozen closure. (Distinct representatives normally have
    /// distinct classes; the union makes the map correct regardless,
    /// mirroring the mutable `any()` over candidates.)
    deep: FxHashMap<u32, State>,
    /// The frozen congruence closure of `R`.
    closure: FrozenClosure,
    atoms: AtomInterner,
    nf: dl::Database,
}

impl EqSpec {
    /// Seals the specification: freezes the closure (every representative
    /// is already interned in it) and indexes the primary database for
    /// `&self` lookups.
    pub fn freeze(&self) -> FrozenEqSpec {
        let (cc, primary) = self.closure_parts();
        let closure = cc.freeze();
        let mut deep: FxHashMap<u32, State> = FxHashMap::default();
        let mut shallow: FxHashMap<Box<[Func]>, State> = FxHashMap::default();
        for (t, s) in primary {
            if cc.depth(*t) > self.c {
                deep.entry(closure.class_of(*t)).or_default().union_with(s);
            } else {
                shallow.insert(cc.path(*t).into_boxed_slice(), s.clone());
            }
        }
        FrozenEqSpec {
            c: self.c,
            shallow,
            deep,
            closure,
            atoms: self.atoms.clone(),
            nf: self.nf.clone(),
        }
    }
}

impl FrozenEqSpec {
    /// Yes-no membership `P(t₀, ā) ∈ L` — same answers as the mutable
    /// [`EqSpec::holds`], by `&self`: shallow terms are exact-path lookups;
    /// a deep term holds iff its canonical walk consumes the whole path
    /// (otherwise it is congruent to no interned representative) and the
    /// reached class carries the atom.
    pub fn holds(&self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(id) = self.atoms.get(pred, args) else {
            return false;
        };
        if path.len() <= self.c {
            return self.shallow.get(path).is_some_and(|s| s.contains(id));
        }
        let canon = self.closure.canon_path(path);
        if canon.consumed != path.len() {
            return false;
        }
        self.deep.get(&canon.class).is_some_and(|s| s.contains(id))
    }

    /// Yes-no membership for a relational tuple.
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.nf.contains(pred, args)
    }

    /// Whether two ground terms are congruent under `Cl(R)` — same answers
    /// as the mutable [`EqSpec::congruent`], by `&self`.
    pub fn congruent(&self, a: &[Func], b: &[Func]) -> bool {
        self.closure.congruent_paths(a, b)
    }

    /// Number of congruence classes in the frozen closure.
    pub fn class_count(&self) -> usize {
        self.closure.class_count()
    }

    /// Equational-spec counterpart of
    /// [`FrozenGraphSpec::patch_retraction`]: applies a completed
    /// retraction's net row deletions to the sealed relational store.
    /// The congruence side (closure, shallow/deep slices) depends on the
    /// program alone and is untouched; there is no answer cache here, so
    /// only the rows move. Returns the number of rows retracted.
    pub fn patch_retraction(&mut self, outcome: &dl::RetractOutcome) -> usize {
        retract_net_rows(&mut self.nf, outcome)
    }
}

/// Applies a completed retraction's net row deletions to a sealed
/// relational store: the live rows are collected per predicate and
/// tombstoned in one [`dl::Relation::retract_rows`] batch each. Rows the
/// store does not hold (or holds at another arity) are skipped. Returns the
/// number of rows retracted.
pub(crate) fn retract_net_rows(nf: &mut dl::Database, outcome: &dl::RetractOutcome) -> usize {
    let mut batches: Vec<(Pred, Vec<dl::RowId>)> = Vec::new();
    for (p, row) in outcome.net_deleted() {
        let Some(id) = nf.relation(p).and_then(|rel| rel.find(row)) else {
            continue;
        };
        match batches.iter_mut().find(|(q, _)| *q == p) {
            Some((_, ids)) => ids.push(id),
            None => batches.push((p, vec![id])),
        }
    }
    let mut dropped = 0;
    for (p, mut ids) in batches {
        ids.sort_unstable();
        ids.dedup();
        let arity = nf.relation(p).map_or(0, |rel| rel.arity());
        nf.relation_mut(p, arity).retract_rows(&ids);
        dropped += ids.len();
    }
    dropped
}

/// Maps a governor checkpoint trip to the serving layer's error shape.
fn checkpoint(gov: &dl::Governor) -> Result<(), dl::EvalError> {
    gov.checkpoint()
        .map_err(|resource| dl::EvalError::BudgetExhausted {
            resource,
            partial: dl::EvalStats::default(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::program::{Atom, Database, FTerm, NTerm, Program, Rule};
    use fundb_term::{Interner, Var};

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    /// The §3.5 Even lasso: Even(t) → Even(t+2), Even(0).
    fn even_spec() -> (Interner, GraphSpec, Pred, Func) {
        let mut i = Interner::new();
        let even = Pred(i.intern("Even"));
        let succ = Func(i.intern("+1"));
        let t = Var(i.intern("t"));
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
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        (i, spec, even, succ)
    }

    #[test]
    fn frozen_graph_spec_answers_match_membership() {
        let (_i, spec, even, plus) = even_spec();
        let frozen = spec.freeze();
        for n in 0..64usize {
            assert_eq!(
                frozen.holds(even, &vec![plus; n], &[]),
                n % 2 == 0,
                "Even({n})"
            );
        }
        let stats = frozen.serve_stats();
        assert_eq!(stats.hits + stats.misses, 64);
        // Second sweep: every answer now comes from the cache.
        for n in 0..64usize {
            assert_eq!(frozen.holds(even, &vec![plus; n], &[]), n % 2 == 0);
        }
        let stats = frozen.serve_stats();
        assert!(stats.hits >= 64, "warm sweep should hit: {stats:?}");
    }

    #[test]
    fn frozen_graph_spec_binary_save_load_round_trip() {
        let (mut i, spec, even, plus) = even_spec();
        let frozen = spec.freeze();
        let dir = std::env::temp_dir().join(format!("fundb-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("even.spec.bin");
        let path = path.to_str().unwrap();
        frozen.save_binary(path, &i).unwrap();
        // The file carries the binary magic, not the text format.
        let bytes = std::fs::read(path).unwrap();
        assert!(bytes.starts_with(&crate::spec_io::SPEC_BIN_MAGIC));
        let reloaded = FrozenGraphSpec::load_binary(path, &mut i).unwrap();
        assert_eq!(
            reloaded.spec().cluster_count(),
            frozen.spec().cluster_count()
        );
        for n in 0..64usize {
            assert_eq!(
                reloaded.holds(even, &vec![plus; n], &[]),
                frozen.holds(even, &vec![plus; n], &[]),
                "Even({n})"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frozen_eq_spec_matches_mutable() {
        let (_i, spec, even, plus) = even_spec();
        let mut eq = EqSpec::from_graph(&spec);
        let frozen_eq = eq.freeze();
        for n in 0..40usize {
            let path = vec![plus; n];
            assert_eq!(
                frozen_eq.holds(even, &path, &[]),
                eq.holds(even, &path, &[]),
                "Even({n})"
            );
            for m in 0..10usize {
                assert_eq!(
                    frozen_eq.congruent(&path, &vec![plus; m]),
                    eq.congruent(&path, &vec![plus; m]),
                    "n={n} m={m}"
                );
            }
        }
    }

    #[test]
    fn memoized_representatives_match_plain_walks() {
        let (_i, spec, _even, plus) = even_spec();
        let frozen = spec.freeze();
        for n in (0..64usize).rev() {
            let path = vec![plus; n];
            assert_eq!(
                frozen.representative_memoized(&path),
                frozen.representative_of(&path)
            );
        }
        // All 64 prefixes of the longest path are memoized exactly once.
        assert_eq!(frozen.memo_len(), 64);
    }

    #[test]
    fn batch_answers_are_input_ordered_and_thread_invariant() {
        let (_i, spec, even, plus) = even_spec();
        let frozen = spec.freeze();
        let queries: Vec<ServeQuery> = (0..200usize)
            .map(|n| ServeQuery::Member {
                pred: even,
                path: vec![plus; n % 37],
                args: vec![],
            })
            .collect();
        let seq: Vec<bool> = queries.iter().map(|q| frozen.answer(q)).collect();
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                frozen.answer_batch_threads(&queries, threads),
                seq,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn relational_membership_is_cached() {
        let mut i = Interner::new();
        let meets = Pred(i.intern("Meets"));
        let next = Pred(i.intern("Next"));
        let succ = Func(i.intern("succ"));
        let (t, x, y) = (Var(i.intern("t")), Var(i.intern("x")), Var(i.intern("y")));
        let (tony, jan) = (Cst(i.intern("tony")), Cst(i.intern("jan")));
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
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let frozen = GraphSpec::from_engine(&mut engine).unwrap().freeze();
        assert!(frozen.holds_relational(next, &[tony, jan]));
        assert!(!frozen.holds_relational(next, &[jan, jan]));
        assert!(frozen.holds_relational(next, &[tony, jan]));
        let stats = frozen.serve_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn patch_retraction_invalidates_only_the_cone() {
        let mut i = Interner::new();
        let meets = Pred(i.intern("Meets"));
        let next = Pred(i.intern("Next"));
        let succ = Func(i.intern("succ"));
        let (t, x, y) = (Var(i.intern("t")), Var(i.intern("x")), Var(i.intern("y")));
        let (tony, jan) = (Cst(i.intern("tony")), Cst(i.intern("jan")));
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
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let mut frozen = GraphSpec::from_engine(&mut engine).unwrap().freeze();
        assert_eq!(frozen.patch_epoch(), 0);
        // Warm both a relational entry (in the future cone) and a
        // functional entry (outside it).
        assert!(frozen.holds_relational(next, &[tony, jan]));
        assert!(frozen.holds(meets, &[succ], &[jan]));
        let cold = frozen.serve_stats();
        assert_eq!(cold.misses, 2);

        let outcome = dl::RetractOutcome {
            found: true,
            deleted: vec![(next, vec![tony, jan].into_boxed_slice())],
            restored: Vec::new(),
            stats: dl::EvalStats::default(),
        };
        let dropped = frozen.patch_retraction(&outcome);
        assert_eq!(dropped, 1, "only the Next entry is in the cone");
        assert_eq!(frozen.patch_epoch(), 1);
        assert_eq!(frozen.serve_stats().patches, 1);

        // The patched store answers the retracted row with `false` (a
        // fresh miss, not a stale hit) …
        assert!(!frozen.holds_relational(next, &[tony, jan]));
        // … while the functional entry outside the cone is still warm.
        let before = frozen.serve_stats().hits;
        assert!(frozen.holds(meets, &[succ], &[jan]));
        assert_eq!(frozen.serve_stats().hits, before + 1);
    }

    #[test]
    fn governed_freeze_and_batch_trip_cleanly() {
        let (_i, spec, even, plus) = even_spec();
        let cancelled =
            dl::Governor::new(dl::Budget::unlimited()).with_faults(dl::FaultPlan::default());
        cancelled.cancel();
        let err = spec.clone().freeze_governed(&cancelled).unwrap_err();
        let dl::EvalError::BudgetExhausted { resource, .. } = err else {
            panic!("expected BudgetExhausted");
        };
        assert_eq!(resource, dl::Resource::Cancelled);

        let frozen = spec.freeze();
        let queries: Vec<ServeQuery> = (0..32usize)
            .map(|n| ServeQuery::Member {
                pred: even,
                path: vec![plus; n],
                args: vec![],
            })
            .collect();
        let err = frozen
            .answer_batch_governed(&queries, &cancelled, 4)
            .unwrap_err();
        assert!(matches!(
            err,
            dl::EvalError::BudgetExhausted {
                resource: dl::Resource::Cancelled,
                ..
            }
        ));
        // The cache shards stay usable after the trip.
        assert_eq!(
            frozen.answer_batch_threads(&queries, 2),
            queries.iter().map(|q| frozen.answer(q)).collect::<Vec<_>>()
        );
    }
}
