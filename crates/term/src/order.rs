//! The precedence ordering `≺` on ground functional terms (§3.4).
//!
//! Algorithm Q chooses, as the representative of every congruence cluster,
//! "the smallest of all congruent terms in the precedence ordering. If we
//! picture the set of functional terms as a tree, the precedence ordering
//! corresponds to a breadth-first traversal of the tree." (§3.4)
//!
//! Breadth-first means: compare by depth first, and among terms of equal
//! depth lexicographically by the symbol path from the root, using a fixed
//! total order on the function symbols. The symbol order is supplied
//! explicitly (normally: the order in which the program declares its function
//! symbols), which reproduces the paper's example `0 ≺ f1(0) ≺ f2(0) ≺
//! f1(f1(0)) ≺ …`.

use crate::interner::Func;
use crate::tree::{NodeId, TermTree};
use std::cmp::Ordering;

/// A total order on the pure function symbols of a program.
///
/// Ranks are kept in a dense vector indexed by the symbol's interning
/// index, so a rank lookup is one array read: the `Link` walk of a graph
/// specification does one per step.
#[derive(Clone, Default)]
pub struct FuncOrder {
    /// `rank[f.index()]` = rank of `f`, or `u32::MAX` for a symbol outside
    /// the order.
    rank: Vec<u32>,
    order: Vec<Func>,
}

impl FuncOrder {
    /// Builds the order from an explicit sequence of symbols (first = least).
    pub fn new(symbols: impl IntoIterator<Item = Func>) -> Self {
        let mut rank = Vec::new();
        let mut order = Vec::new();
        for f in symbols {
            if rank.len() <= f.index() {
                rank.resize(f.index() + 1, u32::MAX);
            }
            if rank[f.index()] != u32::MAX {
                continue;
            }
            rank[f.index()] = order.len() as u32;
            order.push(f);
        }
        FuncOrder { rank, order }
    }

    /// Rank of a symbol. Panics if the symbol was not registered — orders are
    /// always built from the complete symbol set of a program.
    pub fn rank(&self, f: Func) -> u32 {
        self.position(f)
            .expect("function symbol missing from FuncOrder")
    }

    /// Rank of a symbol, or `None` for a symbol outside the order.
    #[inline]
    pub fn position(&self, f: Func) -> Option<u32> {
        self.rank.get(f.index()).copied().filter(|&r| r != u32::MAX)
    }

    /// The symbols in ascending order.
    pub fn symbols(&self) -> &[Func] {
        &self.order
    }

    /// Number of symbols (`m` in the paper's Lemma 3.2 when all symbols are
    /// pure).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Comparator implementing the precedence ordering `≺` over nodes of a
/// [`TermTree`].
pub struct Precedence<'a> {
    tree: &'a TermTree,
    order: &'a FuncOrder,
}

impl<'a> Precedence<'a> {
    /// Creates a comparator over `tree` using `order` for symbols.
    pub fn new(tree: &'a TermTree, order: &'a FuncOrder) -> Self {
        Precedence { tree, order }
    }

    /// Compares two terms in the precedence ordering.
    pub fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let (da, db) = (self.tree.depth(a), self.tree.depth(b));
        match da.cmp(&db) {
            Ordering::Equal => {}
            other => return other,
        }
        // Equal depth: lexicographic on root-to-leaf symbol ranks.
        let pa = self.tree.path(a);
        let pb = self.tree.path(b);
        for (fa, fb) in pa.iter().zip(pb.iter()) {
            match self.order.rank(*fa).cmp(&self.order.rank(*fb)) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// `a ≺ b` in the precedence ordering.
    pub fn precedes(&self, a: NodeId, b: NodeId) -> bool {
        self.cmp(a, b) == Ordering::Less
    }

    /// Enumerates all terms of exactly `depth`, smallest first, interning
    /// them into a clone-free callback. Used to seed Algorithm Q with the
    /// `Potential` terms of depth `c + 1` (§3.4).
    pub fn nodes_at_depth(tree: &mut TermTree, order: &FuncOrder, depth: usize) -> Vec<NodeId> {
        let mut frontier = vec![tree.root()];
        for _ in 0..depth {
            let mut next = Vec::with_capacity(frontier.len() * order.len());
            for n in &frontier {
                for &f in order.symbols() {
                    next.push(tree.child(*n, f));
                }
            }
            frontier = next;
        }
        frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    fn setup() -> (TermTree, FuncOrder, Func, Func) {
        let mut i = Interner::new();
        let f1 = Func(i.intern("f1"));
        let f2 = Func(i.intern("f2"));
        (TermTree::new(), FuncOrder::new([f1, f2]), f1, f2)
    }

    #[test]
    fn depth_dominates() {
        let (mut t, ord, f1, f2) = setup();
        let deep = t.intern_path(&[f1, f1]);
        let shallow = t.intern_path(&[f2]);
        let p = Precedence::new(&t, &ord);
        assert!(p.precedes(shallow, deep));
    }

    #[test]
    fn paper_example_ordering() {
        // §3.4: 0 ≺ f1(0) ≺ f2(0) ≺ f1(f1(0)) ≺ f2(f1(0)) ≺ f1(f2(0)) ≺ …
        // With innermost-first paths, equal-depth terms compare
        // lexicographically from the innermost symbol, so f2(f1(0)) = [f1,f2]
        // precedes f1(f2(0)) = [f2,f1].
        let (mut t, ord, f1, f2) = setup();
        let seq = [
            t.root(),
            t.intern_path(&[f1]),
            t.intern_path(&[f2]),
            t.intern_path(&[f1, f1]),
            t.intern_path(&[f1, f2]),
            t.intern_path(&[f2, f1]),
            t.intern_path(&[f2, f2]),
        ];
        let p = Precedence::new(&t, &ord);
        for w in seq.windows(2) {
            assert!(p.precedes(w[0], w[1]));
        }
    }

    #[test]
    fn cmp_is_reflexively_equal() {
        let (mut t, ord, f1, _) = setup();
        let n = t.intern_path(&[f1]);
        let p = Precedence::new(&t, &ord);
        assert_eq!(p.cmp(n, n), std::cmp::Ordering::Equal);
    }

    #[test]
    fn nodes_at_depth_enumerates_in_order() {
        let (mut t, ord, _, _) = setup();
        let lvl2 = Precedence::nodes_at_depth(&mut t, &ord, 2);
        assert_eq!(lvl2.len(), 4);
        let p = Precedence::new(&t, &ord);
        for w in lvl2.windows(2) {
            assert!(p.precedes(w[0], w[1]));
        }
    }

    #[test]
    fn func_order_dedups() {
        let (_, _, f1, f2) = setup();
        let ord = FuncOrder::new([f1, f2, f1]);
        assert_eq!(ord.len(), 2);
        assert_eq!(ord.rank(f1), 0);
        assert_eq!(ord.rank(f2), 1);
    }

    #[test]
    fn position_of_a_symbol_outside_the_order_is_none() {
        let mut i = Interner::new();
        let f1 = Func(i.intern("f1"));
        let before = Func(i.intern("before"));
        let f2 = Func(i.intern("f2"));
        let ord = FuncOrder::new([f1, f2]);
        // Interned before the order was built, but not in it: inside the
        // rank vector, at the vacant mark.
        assert_eq!(ord.position(before), None);
        // Interned after the order was built: past the rank vector.
        let after = Func(i.intern("after"));
        assert_eq!(ord.position(after), None);
        assert_eq!(ord.position(f1), Some(0));
        assert_eq!(ord.position(f2), Some(1));
    }
}

#[cfg(test)]
mod order_laws {
    use super::*;
    use crate::interner::Interner;
    use proptest::prelude::*;

    fn arb_path() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..3, 0..6)
    }

    proptest! {
        /// ≺ is a strict total order on distinct terms: antisymmetric,
        /// transitive, total.
        #[test]
        fn precedence_is_a_total_order(
            pa in arb_path(),
            pb in arb_path(),
            pc in arb_path(),
        ) {
            let mut i = Interner::new();
            let syms: Vec<Func> = (0..3).map(|k| Func(i.intern(&format!("f{k}")))).collect();
            let ord = FuncOrder::new(syms.iter().copied());
            let mut tree = TermTree::new();
            let to_node = |tree: &mut TermTree, p: &[u8]| {
                let path: Vec<Func> = p.iter().map(|&k| syms[k as usize]).collect();
                tree.intern_path(&path)
            };
            let (a, b, c) = (
                to_node(&mut tree, &pa),
                to_node(&mut tree, &pb),
                to_node(&mut tree, &pc),
            );
            let prec = Precedence::new(&tree, &ord);
            // Totality + antisymmetry.
            let ab = prec.cmp(a, b);
            prop_assert_eq!(ab == std::cmp::Ordering::Equal, a == b);
            prop_assert_eq!(ab.reverse(), prec.cmp(b, a));
            // Transitivity.
            if prec.precedes(a, b) && prec.precedes(b, c) {
                prop_assert!(prec.precedes(a, c));
            }
            // Depth dominance (breadth-first).
            if tree.depth(a) < tree.depth(b) {
                prop_assert!(prec.precedes(a, b));
            }
        }
    }
}
