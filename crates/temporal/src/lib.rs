#![warn(missing_docs)]
//! Temporal deductive databases — the single-successor specialization.
//!
//! *Temporal rules* are the paper's historically first fragment ([CI88]):
//! functional rules over one unary function symbol `+1`, so ground terms are
//! the natural numbers and least fixpoints are (eventually periodic) sets of
//! timestamped facts. The paper singles them out throughout the complexity
//! section: yes-no query processing is PSPACE-complete for temporal rules
//! versus DEXPTIME-complete for general functional rules (Theorem 4.1), the
//! equational specification is single- instead of double-exponential
//! (Theorem 4.3), and "the relation R contains just one pair capturing the
//! periodicity of the least fixpoint" (§4).
//!
//! This crate provides:
//!
//! * [`TemporalSpec`] — the lasso representation `(prefix ρ, period λ)` with
//!   one slice per position and the single equation `R = {(ρ, ρ+λ)}`;
//! * a **fast line evaluator** ([`line`]) for *forward* temporal programs
//!   (every body offset ≤ the head offset): sequential state computation
//!   along the time line with window-signature lasso detection — much
//!   cheaper than the general engine, which is the empirical content of the
//!   Theorem 4.1 comparison (experiment E4);
//! * a **fallback** ([`TemporalSpec::from_graph_spec`]) that extracts the
//!   lasso from a general graph specification for non-forward temporal
//!   programs;
//! * [`TemporalAnswer`] — §5 answers as lassos of their own minimal period.
//!
//! A lasso is the one-symbol graph specification
//! ([`TemporalSpec::graph_spec`]): it is saved as that spec's `.fspec`,
//! read back through [`TemporalSpec::from_graph_spec`], and queried by
//! Theorem 5.1's `Query::answer_incremental` over it.
//!
//! On the §3.5 Even example the computed equation is exactly the paper's
//! `R = {(0, 2)}` (the prefix is minimized after detection, matching the
//! footnote-3 improvement of starting Algorithm Q at depth `c` for temporal
//! rules).

pub mod line;
pub mod query;
pub mod spec;

pub use line::{classify, TemporalClass};
pub use query::TemporalAnswer;
pub use spec::TemporalSpec;
