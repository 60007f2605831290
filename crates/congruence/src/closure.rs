//! The congruence closure decision procedure for `Cl(R)` membership (§3.5).
//!
//! All terms here are ground pure functional terms, i.e. chains of unary
//! function symbols over the functional constant `0`. The structure
//! maintains, incrementally, the finest congruence containing a set of
//! asserted equations: whenever two classes merge, their `f`-successors (for
//! every symbol `f` under which either class already has an interned
//! successor) are merged too, and whenever a new term `f(t)` is interned it
//! is immediately identified with the existing `f`-successor of `t`'s class,
//! if any.
//!
//! This is the unary-signature instance of the Downey–Sethi–Tarjan procedure
//! [DST80]: signatures `(f, find(t))` are kept unique via the per-class
//! successor tables.

use fundb_term::{Func, FxHashMap, Interner, NodeId, TermTree};

use crate::unionfind::UnionFind;

/// Incremental congruence closure over ground unary terms.
///
/// ```
/// use fundb_congruence::CongruenceClosure;
/// use fundb_term::{Func, Interner};
///
/// let mut i = Interner::new();
/// let s = Func(i.intern("+1"));
/// let mut cc = CongruenceClosure::new();
/// cc.equate_paths(&[], &[s, s]);                     // 0 ≅ 2 (the §3.5 Even example)
/// assert!(cc.congruent_paths(&[s; 4], &[]));         // (0,4) ∈ Cl(R)
/// assert!(!cc.congruent_paths(&[s; 3], &[]));        // (0,3) ∉ Cl(R)
/// ```
#[derive(Clone, Default)]
pub struct CongruenceClosure {
    tree: TermTree,
    uf: UnionFind,
    /// For each class representative (by union-find id), the known
    /// `f`-successors of the class. Invariant: at most one entry per symbol,
    /// and the entry's class is the congruence class of `f(class)` (the
    /// entry is an interned `f(t)` of the class, or a term asserted equal to
    /// one by [`CongruenceClosure::equate_apply`]).
    successors: FxHashMap<usize, FxHashMap<Func, NodeId>>,
}

impl CongruenceClosure {
    /// Creates a closure containing only the term `0` and no equations.
    pub fn new() -> Self {
        let tree = TermTree::new();
        let uf = UnionFind::new(1);
        CongruenceClosure {
            tree,
            uf,
            successors: FxHashMap::default(),
        }
    }

    /// The term `0`.
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// Number of interned terms (the finite universe the procedure examines).
    pub fn term_count(&self) -> usize {
        self.tree.len()
    }

    /// Number of congruence classes among the interned terms.
    pub fn class_count(&self) -> usize {
        self.uf.class_count()
    }

    /// Interns the term given by its root-to-leaf symbol path (innermost
    /// application first) and returns its node, keeping the congruence
    /// invariant.
    pub fn term(&mut self, path: &[Func]) -> NodeId {
        let mut cur = self.tree.root();
        for &f in path {
            cur = self.step(cur, f);
        }
        cur
    }

    /// Interns the term `f(t)`.
    pub fn apply(&mut self, t: NodeId, f: Func) -> NodeId {
        self.step(t, f)
    }

    /// Asserts the equation `a = b` and restores congruence.
    pub fn merge(&mut self, a: NodeId, b: NodeId) {
        let mut pending = vec![(a, b)];
        while let Some((x, y)) = pending.pop() {
            let (rx, ry) = (self.uf.find(x.index()), self.uf.find(y.index()));
            if rx == ry {
                continue;
            }
            let winner = self
                .uf
                .union(rx, ry)
                .expect("distinct representatives must merge");
            let loser = if winner == rx { ry } else { rx };
            // Fold the loser's successor table into the winner's; collisions
            // on the same symbol are congruence consequences.
            if let Some(moved) = self.successors.remove(&loser) {
                let into = self.successors.entry(winner).or_default();
                let mut clashes = Vec::new();
                for (f, n) in moved {
                    match into.get(&f) {
                        Some(&existing) if existing != n => clashes.push((existing, n)),
                        Some(_) => {}
                        None => {
                            into.insert(f, n);
                        }
                    }
                }
                pending.extend(clashes);
            }
        }
    }

    /// Asserts the equation `f(t) = target`. When `f(t)` is not interned
    /// yet it gets no node of its own: `target` becomes the `f`-successor of
    /// `t`'s class, so a later [`CongruenceClosure::apply`] or query that
    /// interns `f(t)` (or `f(t')` for any `t' ≅ t`) is identified with
    /// `target` on the spot.
    pub fn equate_apply(&mut self, t: NodeId, f: Func, target: NodeId) {
        if let Some(existing) = self.tree.get_child(t, f) {
            return self.merge(existing, target);
        }
        let class = self.uf.find(t.index());
        let table = self.successors.entry(class).or_default();
        match table.get(&f) {
            Some(&known) => self.merge(known, target),
            None => {
                table.insert(f, target);
            }
        }
    }

    /// Asserts an equation between two terms given as paths.
    pub fn equate_paths(&mut self, a: &[Func], b: &[Func]) {
        let na = self.term(a);
        let nb = self.term(b);
        self.merge(na, nb);
    }

    /// Whether `(a, b) ∈ Cl(R)` for the equations asserted so far.
    pub fn congruent(&mut self, a: NodeId, b: NodeId) -> bool {
        self.uf.same(a.index(), b.index())
    }

    /// Path-based variant of [`CongruenceClosure::congruent`]; interns the
    /// query terms first (extending the examined universe, as the membership
    /// test of §3.5 requires).
    pub fn congruent_paths(&mut self, a: &[Func], b: &[Func]) -> bool {
        let na = self.term(a);
        let nb = self.term(b);
        self.congruent(na, nb)
    }

    /// The class representative id of a term (stable until the next merge).
    pub fn class_of(&mut self, n: NodeId) -> usize {
        self.uf.find(n.index())
    }

    /// Renders a term for diagnostics.
    pub fn display_term<'a>(
        &'a self,
        n: NodeId,
        interner: &'a Interner,
    ) -> fundb_term::tree::TermDisplay<'a> {
        self.tree.display(n, interner)
    }

    /// The symbol path of an interned term (innermost application first).
    pub fn path(&self, n: NodeId) -> Vec<Func> {
        self.tree.path(n)
    }

    /// Depth of an interned term.
    pub fn depth(&self, n: NodeId) -> usize {
        self.tree.depth(n)
    }

    /// The node of a term given by its path, if it is interned; unlike
    /// [`CongruenceClosure::term`] this never extends the universe.
    pub fn lookup_path(&self, path: &[Func]) -> Option<NodeId> {
        self.tree.lookup_path(path)
    }

    /// The pieces [`CongruenceClosure::freeze`] reads: the union-find, the
    /// per-class successor tables, and the interned term count.
    pub(crate) fn freeze_parts(
        &self,
    ) -> (
        &UnionFind,
        &FxHashMap<usize, FxHashMap<Func, NodeId>>,
        usize,
    ) {
        (&self.uf, &self.successors, self.tree.len())
    }

    /// Interns `f(t)`, identifying the fresh node with the class's existing
    /// `f`-successor when there is one.
    fn step(&mut self, t: NodeId, f: Func) -> NodeId {
        if let Some(existing) = self.tree.get_child(t, f) {
            return existing;
        }
        let node = self.tree.child(t, f);
        debug_assert_eq!(node.index(), self.uf.len());
        self.uf.push();
        let class = self.uf.find(t.index());
        let table = self.successors.entry(class).or_default();
        match table.get(&f) {
            Some(&canon) => {
                // Congruence: t ≅ t' and f(t') already interned ⇒ f(t) ≅ f(t').
                self.merge(node, canon);
            }
            None => {
                table.insert(f, node);
            }
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbols(n: usize) -> (Interner, Vec<Func>) {
        let mut i = Interner::new();
        let fs = (0..n)
            .map(|k| Func(i.intern(&format!("f{k}"))))
            .collect::<Vec<_>>();
        (i, fs)
    }

    /// The paper's §3.5 example: D = {Even(0)}, rule Even(t) → Even(t+2),
    /// R = {(0, 2)}. Then (0, 4) ∈ Cl(R), (1, 3) ∈ Cl(R), (0, 3) ∉ Cl(R).
    #[test]
    fn even_example_from_section_3_5() {
        let (_, fs) = symbols(1);
        let s = fs[0]; // +1
        let mut cc = CongruenceClosure::new();
        cc.equate_paths(&[], &[s, s]); // 0 ≅ 2
        let nat = |n: usize| vec![s; n];
        assert!(cc.congruent_paths(&nat(0), &nat(4)));
        assert!(cc.congruent_paths(&nat(1), &nat(3)));
        assert!(cc.congruent_paths(&nat(2), &nat(6)));
        assert!(!cc.congruent_paths(&nat(0), &nat(3)));
        assert!(!cc.congruent_paths(&nat(1), &nat(4)));
    }

    #[test]
    fn congruence_propagates_through_existing_successors() {
        // R = {(0, f(0))}; then g(f(0)) ≅ g(0) by congruence.
        let (_, fs) = symbols(2);
        let (f, g) = (fs[0], fs[1]);
        let mut cc = CongruenceClosure::new();
        let gf0 = cc.term(&[f, g]);
        let g0 = cc.term(&[g]);
        cc.equate_paths(&[], &[f]);
        assert!(cc.congruent(gf0, g0));
    }

    #[test]
    fn late_interning_still_sees_congruence() {
        // Same as above but the query terms are interned *after* the merge;
        // the step() hook must identify them.
        let (_, fs) = symbols(2);
        let (f, g) = (fs[0], fs[1]);
        let mut cc = CongruenceClosure::new();
        cc.equate_paths(&[], &[f]);
        assert!(cc.congruent_paths(&[f, g], &[g]));
        // And deeper: g(f(f(0))) ≅ g(0) since f(f(0)) ≅ f(0) ≅ 0.
        assert!(cc.congruent_paths(&[f, f, g], &[g]));
    }

    #[test]
    fn distinct_symbols_stay_distinct() {
        let (_, fs) = symbols(2);
        let (f, g) = (fs[0], fs[1]);
        let mut cc = CongruenceClosure::new();
        assert!(!cc.congruent_paths(&[f], &[g]));
        assert!(!cc.congruent_paths(&[], &[f]));
    }

    #[test]
    fn transitivity_and_symmetry() {
        let (_, fs) = symbols(3);
        let (f, g, h) = (fs[0], fs[1], fs[2]);
        let mut cc = CongruenceClosure::new();
        cc.equate_paths(&[f], &[g]);
        cc.equate_paths(&[g], &[h]);
        assert!(cc.congruent_paths(&[h], &[f]));
    }

    #[test]
    fn merge_is_idempotent() {
        let (_, fs) = symbols(1);
        let f = fs[0];
        let mut cc = CongruenceClosure::new();
        cc.equate_paths(&[], &[f]);
        let before = cc.class_count();
        cc.equate_paths(&[], &[f]);
        assert_eq!(cc.class_count(), before);
    }

    #[test]
    fn collapse_to_single_class() {
        // 0 ≅ f(0) and 0 ≅ g(0) collapse every term over {f, g} into one
        // class.
        let (_, fs) = symbols(2);
        let (f, g) = (fs[0], fs[1]);
        let mut cc = CongruenceClosure::new();
        cc.equate_paths(&[], &[f]);
        cc.equate_paths(&[], &[g]);
        assert!(cc.congruent_paths(&[f, g, f, g], &[g, g]));
        assert!(cc.congruent_paths(&[f, f, f], &[]));
    }

    #[test]
    fn period_three_cycle() {
        // 0 ≅ 3 (unary s). Classes mod 3.
        let (_, fs) = symbols(1);
        let s = fs[0];
        let mut cc = CongruenceClosure::new();
        let nat = |n: usize| vec![s; n];
        cc.equate_paths(&nat(0), &nat(3));
        for i in 0..12usize {
            for j in 0..12usize {
                assert_eq!(
                    cc.congruent_paths(&nat(i), &nat(j)),
                    i % 3 == j % 3,
                    "i={i} j={j}"
                );
            }
        }
    }

    #[test]
    fn equate_apply_matches_interned_equations() {
        // 1 ≅ 3 asserted without interning 3: every query agrees with the
        // closure that interns both sides.
        let (_, fs) = symbols(2);
        let (s, g) = (fs[0], fs[1]);
        let mut interned = CongruenceClosure::new();
        interned.equate_paths(&[s], &[s, s, s]);
        let mut applied = CongruenceClosure::new();
        let one = applied.term(&[s]);
        let two = applied.term(&[s, s]);
        applied.equate_apply(two, s, one);
        assert_eq!(applied.term_count(), 3);
        let paths: Vec<Vec<Func>> = (0..6usize)
            .flat_map(|n| [vec![s; n], [vec![s; n], vec![g]].concat()])
            .collect();
        for a in &paths {
            for b in &paths {
                assert_eq!(
                    applied.clone().congruent_paths(a, b),
                    interned.clone().congruent_paths(a, b),
                    "a={a:?} b={b:?}"
                );
                assert_eq!(
                    applied.freeze().congruent_paths(a, b),
                    interned.freeze().congruent_paths(a, b),
                    "frozen a={a:?} b={b:?}"
                );
            }
        }
    }

    #[test]
    fn offset_lasso() {
        // 1 ≅ 3: classes {0}, {1,3,5,...}, {2,4,6,...}.
        let (_, fs) = symbols(1);
        let s = fs[0];
        let mut cc = CongruenceClosure::new();
        let nat = |n: usize| vec![s; n];
        cc.equate_paths(&nat(1), &nat(3));
        assert!(!cc.congruent_paths(&nat(0), &nat(2)));
        assert!(cc.congruent_paths(&nat(1), &nat(5)));
        assert!(cc.congruent_paths(&nat(2), &nat(4)));
        assert!(!cc.congruent_paths(&nat(1), &nat(2)));
    }
}
