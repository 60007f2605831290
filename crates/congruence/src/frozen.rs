//! A frozen, shareable snapshot of a congruence closure (`&self` reads).
//!
//! [`CongruenceClosure`] answers `Cl(R)` membership with `&mut self`: every
//! query interns its terms and compresses union-find paths, so a closure
//! cannot be shared across threads, and a read poisons the borrow of the
//! containing specification. Sealing the closure with
//! [`CongruenceClosure::freeze`] extracts a **class-transition DFA**: one
//! dense state per congruence class, with an `f`-edge from the class of `t`
//! to the class of `f(t)` wherever `f(t)` is interned. Every interned term's
//! class is resolved at freeze time, so the snapshot answers every query by
//! pure table walks over immutable data.
//!
//! Queries about terms *outside* the interned universe reduce to walking the
//! DFA as far as it goes: a term whose path leaves the DFA after consuming a
//! prefix is canonically `(class, suffix)` — the class where the walk
//! stopped plus the unconsumed symbols. Two terms are congruent in the
//! lazily-extended closure iff their canonical pairs are equal (the fresh
//! nodes the mutable procedure would intern for equal suffixes from the same
//! class are identified one by one by the `step` hook; unequal suffixes or
//! classes create disjoint fresh singletons).

use fundb_term::{Func, FxHashMap, NodeId};

use crate::closure::CongruenceClosure;

/// The canonical form of a (possibly uninterned) term under a frozen
/// closure: the congruence class reached by the longest DFA-walkable prefix,
/// plus the length of that prefix. The unconsumed suffix `path[consumed..]`
/// completes the canonical pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Canon {
    /// Dense congruence-class index where the DFA walk stopped.
    pub class: u32,
    /// Number of leading path symbols consumed by the walk.
    pub consumed: usize,
}

/// Immutable congruence-closure snapshot: a class-transition DFA with O(1)
/// class lookup for interned terms. All methods take `&self`.
#[derive(Clone, Debug)]
pub struct FrozenClosure {
    /// Dense class of the root term `0`.
    root_class: u32,
    /// `delta[class]` maps a symbol `f` to the class of `f(class)`, for
    /// every `f` under which the class has an interned successor.
    delta: Vec<FxHashMap<Func, u32>>,
    /// Dense class of each interned term, by `NodeId` index.
    class_of_node: Vec<u32>,
}

impl FrozenClosure {
    /// Number of congruence classes among the interned terms.
    pub fn class_count(&self) -> usize {
        self.delta.len()
    }

    /// Number of interned terms covered by the snapshot.
    pub fn term_count(&self) -> usize {
        self.class_of_node.len()
    }

    /// Dense class of the root term `0`.
    pub fn root_class(&self) -> u32 {
        self.root_class
    }

    /// Dense class of an interned term. Panics if `n` was interned after
    /// the freeze.
    pub fn class_of(&self, n: NodeId) -> u32 {
        self.class_of_node[n.index()]
    }

    /// Canonicalizes a term given by its root-to-leaf symbol path: walks the
    /// class DFA until a transition is missing or the path ends. O(|path|)
    /// worst case, O(consumed) exactly; no allocation, no locks.
    pub fn canon_path(&self, path: &[Func]) -> Canon {
        let mut class = self.root_class;
        for (i, &f) in path.iter().enumerate() {
            match self.delta[class as usize].get(&f) {
                Some(&next) => class = next,
                None => {
                    return Canon { class, consumed: i };
                }
            }
        }
        Canon {
            class,
            consumed: path.len(),
        }
    }

    /// Whether `(a, b) ∈ Cl(R)`, with the same semantics as the mutable
    /// [`CongruenceClosure::congruent_paths`] (query terms outside the
    /// interned universe extend it with fresh nodes): true iff both walks
    /// stop in the same class with identical unconsumed suffixes.
    pub fn congruent_paths(&self, a: &[Func], b: &[Func]) -> bool {
        let ca = self.canon_path(a);
        let cb = self.canon_path(b);
        ca.class == cb.class && a[ca.consumed..] == b[cb.consumed..]
    }
}

impl CongruenceClosure {
    /// Seals the closure into an immutable, shareable snapshot: resolves
    /// every interned term's class once (so the cost is paid here, not on
    /// the read path) and converts the per-class successor tables into a
    /// dense class-transition DFA. The closure itself is left as it was.
    pub fn freeze(&self) -> FrozenClosure {
        let (uf, successors, nterms) = self.freeze_parts();
        // Dense renumbering of the surviving representatives, in id order.
        let mut dense = vec![u32::MAX; nterms];
        let mut classes = 0u32;
        let mut class_of_node = Vec::with_capacity(nterms);
        for n in 0..nterms {
            let rep = uf.find_immutable(n);
            if dense[rep] == u32::MAX {
                dense[rep] = classes;
                classes += 1;
            }
            class_of_node.push(dense[rep]);
        }
        let mut delta = vec![FxHashMap::default(); classes as usize];
        for (&rep, table) in successors {
            let out = &mut delta[dense[uf.find_immutable(rep)] as usize];
            out.reserve(table.len());
            for (&f, &n) in table {
                out.insert(f, class_of_node[n.index()]);
            }
        }
        FrozenClosure {
            root_class: class_of_node[0],
            delta,
            class_of_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_term::Interner;

    fn symbols(n: usize) -> (Interner, Vec<Func>) {
        let mut i = Interner::new();
        let fs = (0..n)
            .map(|k| Func(i.intern(&format!("f{k}"))))
            .collect::<Vec<_>>();
        (i, fs)
    }

    /// Frozen answers match the mutable procedure on the §3.5 Even example,
    /// including terms far outside the interned universe.
    #[test]
    fn frozen_matches_mutable_on_even_example() {
        let (_, fs) = symbols(1);
        let s = fs[0];
        let mut cc = CongruenceClosure::new();
        cc.equate_paths(&[], &[s, s]); // 0 ≅ 2
        let frozen = cc.freeze();
        let nat = |n: usize| vec![s; n];
        for i in 0..10usize {
            for j in 0..10usize {
                let mut fresh = cc.clone();
                assert_eq!(
                    frozen.congruent_paths(&nat(i), &nat(j)),
                    fresh.congruent_paths(&nat(i), &nat(j)),
                    "i={i} j={j}"
                );
            }
        }
    }

    /// Uninterned queries with shared fresh suffixes from the same class are
    /// congruent; differing suffixes or source classes are not.
    #[test]
    fn fresh_suffix_semantics() {
        let (_, fs) = symbols(2);
        let (f, g) = (fs[0], fs[1]);
        let mut cc = CongruenceClosure::new();
        cc.equate_paths(&[], &[f]); // 0 ≅ f(0)
        let frozen = cc.freeze();
        // g is nowhere interned: g(f(0)) ≅ g(0) because f(0) ≅ 0.
        assert!(frozen.congruent_paths(&[f, g], &[g]));
        assert!(frozen.congruent_paths(&[f, f, g, g], &[g, g]));
        // Distinct fresh suffixes stay distinct.
        assert!(!frozen.congruent_paths(&[g], &[g, g]));
        assert!(!frozen.congruent_paths(&[g, f], &[g, g]));
    }

    /// Exhaustive agreement with the mutable closure over all short paths
    /// for an offset lasso (classes {0}, odds, positive evens).
    #[test]
    fn frozen_matches_mutable_exhaustively() {
        let (_, fs) = symbols(2);
        let (f, g) = (fs[0], fs[1]);
        let mut cc = CongruenceClosure::new();
        cc.equate_paths(&[f], &[f, f, f]); // 1 ≅ 3 in f-steps
        cc.equate_paths(&[g, g], &[g]); // g(g(0)) ≅ g(0)
        let frozen = cc.freeze();
        let paths: Vec<Vec<Func>> = (0..3usize.pow(4))
            .map(|mut k| {
                let mut p = Vec::new();
                for _ in 0..4 {
                    match k % 3 {
                        0 => {}
                        1 => p.push(f),
                        _ => p.push(g),
                    }
                    k /= 3;
                }
                p
            })
            .collect();
        for a in &paths {
            for b in &paths {
                let mut fresh = cc.clone();
                assert_eq!(
                    frozen.congruent_paths(a, b),
                    fresh.congruent_paths(a, b),
                    "a={a:?} b={b:?}"
                );
            }
        }
    }

    /// Canonical classes of interned terms agree with the mutable find.
    #[test]
    fn class_of_is_consistent_with_canon() {
        let (_, fs) = symbols(1);
        let s = fs[0];
        let mut cc = CongruenceClosure::new();
        let n3 = cc.term(&[s, s, s]);
        cc.equate_paths(&[], &[s, s, s]);
        let frozen = cc.freeze();
        let c = frozen.canon_path(&[s, s, s]);
        assert_eq!(c.consumed, 3);
        assert_eq!(c.class, frozen.class_of(n3));
        assert_eq!(frozen.class_of(n3), frozen.root_class());
    }
}
