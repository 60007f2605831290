//! States of the least fixpoint (§3.1).
//!
//! Fixing a ground functional term `t`, the *slice* `L[t]` of the least
//! fixpoint is the set of tuples whose functional component is `t`; with the
//! functional component abstracted away it "behaves like a function-free
//! database" — a finite set of abstract atoms `P(ā)` over the constants of
//! `Z ∪ D`. Two terms are state-equivalent (`t₁ ∼ t₂`) iff their slices are
//! equal (§3.1). Since there are at most `2^gsize` distinct slices, the
//! equivalence has finite index (Lemma: `scope∼(L) ≤ 2^gsize`).
//!
//! [`State`] is a compact bitset over [`crate::gendb::AtomId`]s with
//! canonical equality and hashing, so states can serve directly as the keys
//! of the engine's memo table and as the `∼`-comparison of Algorithm Q.

use crate::gendb::AtomId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A set of abstract atoms — one slice of the least fixpoint, or a seed for
/// the engine's uniform-subtree table.
///
/// Invariant: `words` never ends in a zero word, so `==`/`Hash` are
/// structural.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct State {
    words: Vec<u64>,
}

impl State {
    /// The empty state.
    pub const fn new() -> Self {
        State { words: Vec::new() }
    }

    /// Inserts an atom; returns `true` if it was absent.
    pub fn insert(&mut self, id: AtomId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        true
    }

    /// Membership test.
    pub fn contains(&self, id: AtomId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Unions `other` into `self`; returns `true` if anything changed.
    pub fn union_with(&mut self, other: &State) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            if new != *a {
                *a = new;
                changed = true;
            }
        }
        changed
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &State) -> bool {
        self.words.iter().enumerate().all(|(i, w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// Number of atoms in the state.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates the atom ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let b = word.trailing_zeros();
                word &= word - 1;
                Some(AtomId::from_index(wi * 64 + b as usize))
            })
        })
    }
}

impl Hash for State {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // words has no trailing zeros, so equal sets hash equally.
        self.words.hash(state);
    }
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "State{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", id.index())?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<AtomId> for State {
    fn from_iter<T: IntoIterator<Item = AtomId>>(iter: T) -> Self {
        let mut s = State::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    #[test]
    fn insert_contains_len() {
        let mut s = State::new();
        assert!(s.insert(id(3)));
        assert!(!s.insert(id(3)));
        assert!(s.insert(id(130)));
        assert!(s.contains(id(3)));
        assert!(s.contains(id(130)));
        assert!(!s.contains(id(4)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn equality_is_structural_across_capacities() {
        let mut a = State::new();
        a.insert(id(1));
        let mut b = State::new();
        b.insert(id(200));
        b.insert(id(1));
        // b temporarily had more words; removing nothing — instead compare
        // a fresh state with the same single element.
        let mut c = State::new();
        c.insert(id(1));
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn union_reports_change() {
        let mut a = State::from_iter([id(1), id(2)]);
        let b = State::from_iter([id(2), id(3)]);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn subset_checks() {
        let a = State::from_iter([id(1), id(65)]);
        let b = State::from_iter([id(1), id(65), id(200)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(State::new().is_subset(&a));
    }

    #[test]
    fn iter_round_trips() {
        let ids = [id(0), id(63), id(64), id(127), id(128)];
        let s = State::from_iter(ids);
        let back: Vec<AtomId> = s.iter().collect();
        assert_eq!(back, ids);
    }

    #[test]
    fn hash_agrees_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        let a = State::from_iter([id(5), id(70)]);
        let b = State::from_iter([id(70), id(5)]);
        let h = |s: &State| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }
}
