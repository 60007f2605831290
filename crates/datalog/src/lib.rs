#![warn(missing_docs)]
//! A function-free Datalog substrate.
//!
//! The paper positions functional deductive databases as an extension of
//! DATALOG (§1): "rules in functional deductive databases are Horn and
//! predicates can have arbitrary unary and limited k-ary function symbols in
//! one fixed position". This crate provides the DATALOG base the extension is
//! built on:
//!
//! * [`Relation`]s of constant tuples with set semantics,
//! * positive Horn [`Rule`]s over [`Atom`]s with variables and constants,
//! * naive and semi-naive bottom-up fixpoint evaluation ([`evaluate`],
//!   [`evaluate_naive`]), resumable across fact insertions via
//!   [`IncrementalEval`] and [`DeltaPlan`],
//! * conjunctive [`query`] evaluation over a database.
//!
//! It is used by `fundb-core` in three roles: the *local* rule firings of the
//! least-fixpoint engine are Datalog evaluations over location-tagged
//! predicates; the bounded-depth naive materialization baseline (the
//! behaviour of a conventional engine on unsafe programs, cf. [RBS87])
//! grounds functional programs into Datalog; and the CONGR canonical form of
//! §3.6 is evaluated over a bounded term universe as Datalog.

pub mod engine;
pub mod governor;
pub mod magic;
pub mod program;
pub mod provenance;
pub mod rel;
pub mod retract;
pub mod rule;

pub use engine::{
    default_threads, evaluate, evaluate_governed, evaluate_naive, evaluate_naive_governed, query,
    DeltaPlan, EvalStats, IncrementalEval, RoundSink, DEFAULT_MIN_PARALLEL_ROWS,
};
pub use engine::{query_demand, query_demand_governed, query_demand_tuned, DemandAnswer};
pub use governor::{
    Budget, CancelToken, EvalError, FaultPlan, Governor, Resource, PROBE_CHECK_INTERVAL,
};
pub use magic::{magic_rewrite, MagicProgram};
pub use program::JoinProgram;
pub use provenance::{evaluate_traced, Derivation, Provenance};
pub use rel::{Database, PlanStats, Probe, RelStats, Relation, RowId, RowPool, Tuple};
pub use retract::RetractOutcome;
pub use rule::{Atom, Rule, Term};
