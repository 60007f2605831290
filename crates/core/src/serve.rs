//! The read-serving layer: frozen specifications and parallel batch
//! answering.
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
//!   scan instead of per-step hash lookups.
//! * [`FrozenEqSpec`] — the equational specification `(B, R)` with the
//!   congruence closure precomputed into a class-transition DFA
//!   ([`fundb_congruence::FrozenClosure`]) with every term's class resolved
//!   at freeze time, removing the `&mut self` poison from
//!   [`EqSpec::holds`]/[`EqSpec::congruent`].
//!
//! **A read is a walk and a probe.** `P(t₀, ā) ∈ L` depends on `t₀` only
//! through its cluster of the state congruence `≅` (Theorem 3.1 — all
//! members of a cluster carry the same slice `L[t]`), so a functional read
//! is the `Link` walk to the cluster's representative followed by one slice
//! probe (`atoms.get` plus `State::contains`); a relational read is one
//! dedup-table probe. Neither takes a lock. There is no answer cache: the
//! walk would have to run before any cache lookup, and the probe a cache
//! hit saves costs as much as the lookup itself.
//!
//! **Batching.** [`FrozenGraphSpec::answer_batch`] fans a query slice out
//! over `std::thread::scope` workers, each writing a disjoint input-ordered
//! chunk of the output vector — results are byte-identical at any thread
//! count (the determinism contract of the parallel fixpoint rounds, held
//! to on the read path). Workers poll
//! [`Governor::checkpoint`](dl::Governor::checkpoint) every
//! [`CHECKPOINT_EVERY`] queries and surface trips as [`dl::EvalError`];
//! the snapshot is never written by a read, so later reads stay exact.

use crate::eqspec::EqSpec;
use crate::gendb::AtomInterner;
use crate::graphspec::{GraphSpec, SpecNodeId};
use crate::state::State;
use fundb_congruence::FrozenClosure;
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FxHashMap, Pred};

/// How many queries a batch worker answers between governor checkpoints.
const CHECKPOINT_EVERY: usize = 64;

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

/// Answer-cache counters of a frozen specification. [`FrozenGraphSpec`]
/// has no answer cache, so both fields are always zero; the type and
/// [`FrozenGraphSpec::serve_stats`] remain only because the `spec_serving`
/// benchmark workload reads them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries answered from a cache (always 0).
    pub hits: u64,
    /// Queries computed on a cache miss (always 0).
    pub misses: u64,
}

/// An immutable, shareable graph specification `(B, F)` snapshot.
///
/// All methods take `&self`, and no read takes a lock. Wrap it in an `Arc`
/// to share across threads.
pub struct FrozenGraphSpec {
    /// The sealed specification; its dense successor table is what the
    /// `Link` walk reads.
    spec: GraphSpec,
    /// Number of function symbols (row stride of the successor table).
    nfuncs: usize,
    /// `rank[f.sym().index()]` = column of `f`, or `u32::MAX` for symbols
    /// outside the program's vocabulary.
    rank: Vec<u32>,
}

impl std::fmt::Debug for FrozenGraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrozenGraphSpec({:?})", self.spec)
    }
}

impl GraphSpec {
    /// Seals the specification into an immutable, shareable snapshot.
    pub fn freeze(self) -> FrozenGraphSpec {
        let max_sym = self
            .funcs
            .symbols()
            .iter()
            .map(|f| f.sym().index())
            .max()
            .map_or(0, |m| m + 1);
        let mut rank = vec![u32::MAX; max_sym];
        for (r, &f) in self.funcs.symbols().iter().enumerate() {
            rank[f.sym().index()] = r as u32;
        }
        FrozenGraphSpec {
            nfuncs: self.funcs.len(),
            spec: self,
            rank,
        }
    }
}

impl FrozenGraphSpec {
    /// The sealed specification (for structural accessors, rendering, and
    /// compiled query evaluation).
    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }

    /// Unseals the snapshot, returning the owned specification.
    pub fn thaw(self) -> GraphSpec {
        self.spec
    }

    /// Persists the sealed specification to `path` in the versioned binary
    /// spec format ([`crate::spec_io::SPEC_BIN_MAGIC`]), so a served spec
    /// can be durably snapshotted without thawing the live snapshot.
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

    /// Answer-cache counters: always zero, since reads are computed
    /// straight from the sealed spec. Kept for the `spec_serving`
    /// benchmark workload, which reads them.
    pub fn serve_stats(&self) -> ServeStats {
        ServeStats::default()
    }

    /// Patches the sealed snapshot after a completed incremental
    /// retraction in the backing relational database, instead of
    /// re-freezing: applies the retraction's *net* row deletions (the
    /// over-delete set minus re-derived survivors) to the sealed
    /// relational store. The functional side (successor table, node
    /// states) depends on the program alone and is untouched.
    /// Returns the number of rows retracted.
    ///
    /// Takes `&mut self` deliberately: patching is a maintenance-window
    /// operation (`Arc::get_mut`, or before sharing), so readers never
    /// observe a half-applied cone.
    pub fn patch_retraction(&mut self, outcome: &dl::RetractOutcome) -> usize {
        self.spec.patch_retraction(outcome)
    }

    /// Always 1. There is no path memo; the `spec_serving` benchmark
    /// workload still reads this count.
    pub fn memo_len(&self) -> usize {
        1
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

    /// Yes-no membership `P(t₀, ā) ∈ L`: the `Link` walk to the
    /// representative of `t₀`, then one probe of its slice.
    pub fn holds(&self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(rep) = self.rep_index(path) else {
            return false; // outside the vocabulary: not in L (Prop. 2.1)
        };
        self.spec
            .atoms
            .get(pred, args)
            .is_some_and(|id| self.spec.nodes[rep as usize].state.contains(id))
    }

    /// Yes-no membership for a relational tuple: one probe of the
    /// relational store.
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.spec.nf.contains(pred, args)
    }

    /// Answers one query.
    pub fn answer(&self, query: &ServeQuery) -> bool {
        match query {
            ServeQuery::Member { pred, path, args } => self.holds(*pred, path, args),
            ServeQuery::Relational { pred, args } => self.holds_relational(*pred, args),
        }
    }

    /// Answers a batch of queries on up to `threads` workers, one output
    /// per input in input order. Workers own disjoint chunks of the
    /// output, so the result is byte-identical at any worker count. Each
    /// worker polls the governor's cancellation/deadline gate every
    /// [`CHECKPOINT_EVERY`] queries; a trip discards the batch and returns
    /// [`dl::EvalError::BudgetExhausted`]. Pass `&Governor::default()` for
    /// an unbounded batch.
    pub fn answer_batch(
        &self,
        queries: &[ServeQuery],
        threads: usize,
        governor: &dl::Governor,
    ) -> Result<Vec<bool>, dl::EvalError> {
        governor.checkpoint().map_err(budget_exhausted)?;
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
                            if i % CHECKPOINT_EVERY == 0 {
                                governor.checkpoint()?;
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
            Some(resource) => Err(budget_exhausted(resource)),
            None => Ok(answers),
        }
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
    /// program alone and is untouched. Returns the number of rows
    /// retracted.
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
fn budget_exhausted(resource: dl::Resource) -> dl::EvalError {
    dl::EvalError::BudgetExhausted {
        resource,
        partial: dl::EvalStats::default(),
    }
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
        // There is no answer cache to count.
        assert_eq!(frozen.serve_stats(), ServeStats::default());
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
                frozen
                    .answer_batch(&queries, threads, &dl::Governor::default())
                    .unwrap(),
                seq,
                "{threads} threads"
            );
        }
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
        assert!(frozen.holds_relational(next, &[tony, jan]));
        assert!(!frozen.holds_relational(next, &[jan, jan]));
        assert!(frozen.holds(meets, &[succ], &[jan]));

        let outcome = dl::RetractOutcome {
            found: true,
            deleted: vec![(next, vec![tony, jan].into_boxed_slice())],
            restored: Vec::new(),
            stats: dl::EvalStats::default(),
        };
        assert_eq!(frozen.patch_retraction(&outcome), 1);

        // The retracted row is gone; rows and functional answers outside
        // the cone are untouched.
        assert!(!frozen.holds_relational(next, &[tony, jan]));
        assert!(frozen.holds_relational(next, &[jan, tony]));
        assert!(frozen.holds(meets, &[succ], &[jan]));
    }

    #[test]
    fn governed_batch_trips_cleanly() {
        let (_i, spec, even, plus) = even_spec();
        let cancelled =
            dl::Governor::new(dl::Budget::unlimited()).with_faults(dl::FaultPlan::default());
        cancelled.cancel();
        let frozen = spec.freeze();
        let queries: Vec<ServeQuery> = (0..32usize)
            .map(|n| ServeQuery::Member {
                pred: even,
                path: vec![plus; n],
                args: vec![],
            })
            .collect();
        let err = frozen.answer_batch(&queries, 4, &cancelled).unwrap_err();
        assert!(matches!(
            err,
            dl::EvalError::BudgetExhausted {
                resource: dl::Resource::Cancelled,
                ..
            }
        ));
        // Reads after the trip stay exact.
        assert_eq!(
            frozen
                .answer_batch(&queries, 2, &dl::Governor::default())
                .unwrap(),
            queries.iter().map(|q| frozen.answer(q)).collect::<Vec<_>>()
        );
    }
}
