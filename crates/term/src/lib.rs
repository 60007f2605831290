#![warn(missing_docs)]
//! Symbols and ground functional terms for functional deductive databases.
//!
//! This crate is the lowest layer of the `fundb` workspace, the Rust
//! reproduction of Chomicki & Imieliński, *Relational Specifications of
//! Infinite Query Answers* (SIGMOD 1989). It provides:
//!
//! * a string [`Interner`] producing compact [`Sym`] handles,
//! * typed symbol wrappers ([`Pred`], [`Func`], [`Cst`], [`Var`], [`MixedSym`])
//!   for the four syntactic categories of the paper's language (§2.1),
//! * a [`TermTree`] interning **ground pure functional terms** — after the
//!   paper's mixed→pure transformation (§2.4) every ground functional term is
//!   a chain of unary function symbols applied to the unique functional
//!   constant `0`, i.e. a node of the infinite |F|-ary tree rooted at `0`,
//! * the breadth-first *precedence ordering* `≺` on ground terms used by
//!   Algorithm Q (§3.4) to pick the smallest representative of each cluster,
//! * fast hashing utilities ([`FxHashMap`], [`FxHashSet`]) used throughout
//!   the workspace.

pub mod hash;
pub mod interner;
pub mod order;
pub mod tree;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interner::{Cst, Func, Interner, MixedSym, Pred, Sym, Var};
pub use order::{FuncOrder, Precedence};
pub use tree::{NodeId, TermTree};
