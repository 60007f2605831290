//! The infinite term tree, interned lazily.
//!
//! After normalization and the mixed→pure transformation (§2.4), the ground
//! functional terms of a program form the infinite |F|-ary tree rooted at the
//! unique functional constant `0`: the node reached from the root along the
//! symbol path `f₁ f₂ … fₙ` is the term `fₙ(…f₂(f₁(0))…)`.
//!
//! [`TermTree`] interns the finite portion of that tree a computation
//! actually visits. Nodes are dense [`NodeId`]s, so per-node attributes
//! (states, marks) can live in plain vectors on the caller's side.

use crate::hash::FxHashMap;
use crate::interner::{Func, Interner};
use std::fmt;

/// A node of the term tree — i.e. an interned ground pure functional term.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Dense index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone)]
struct NodeData {
    /// Parent node with the symbol on the incoming edge; `None` for the root.
    parent: Option<(NodeId, Func)>,
    /// Distance from the root = depth of the term (§2.1: `depth(0) = 0`).
    depth: u32,
}

/// Lazily interned prefix of the infinite term tree rooted at `0`.
#[derive(Clone)]
pub struct TermTree {
    nodes: Vec<NodeData>,
    children: FxHashMap<(NodeId, Func), NodeId>,
}

impl Default for TermTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TermTree {
    /// Creates a tree containing only the root `0`.
    pub fn new() -> Self {
        TermTree {
            nodes: vec![NodeData {
                parent: None,
                depth: 0,
            }],
            children: FxHashMap::default(),
        }
    }

    /// The root node, i.e. the functional constant `0`.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root is interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// All interned nodes in interning order; every node comes after its
    /// parent.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Interns (or retrieves) the child `f(n)`.
    pub fn child(&mut self, n: NodeId, f: Func) -> NodeId {
        if let Some(&c) = self.children.get(&(n, f)) {
            return c;
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("term tree overflow"));
        self.nodes.push(NodeData {
            parent: Some((n, f)),
            depth: self.nodes[n.index()].depth + 1,
        });
        self.children.insert((n, f), id);
        id
    }

    /// Retrieves the child `f(n)` if it has been interned.
    pub fn get_child(&self, n: NodeId, f: Func) -> Option<NodeId> {
        self.children.get(&(n, f)).copied()
    }

    /// The parent together with the edge symbol, or `None` for the root.
    /// For `n = f(t)` this returns `(t, f)`.
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, Func)> {
        self.nodes[n.index()].parent
    }

    /// Depth of the term (number of function applications above `0`).
    #[inline]
    pub fn depth(&self, n: NodeId) -> usize {
        self.nodes[n.index()].depth as usize
    }

    /// The symbol path from the root to `n`, innermost application first:
    /// `path(f₂(f₁(0))) = [f₁, f₂]`.
    pub fn path(&self, n: NodeId) -> Vec<Func> {
        let mut out = Vec::with_capacity(self.depth(n));
        let mut cur = n;
        while let Some((p, f)) = self.parent(cur) {
            out.push(f);
            cur = p;
        }
        out.reverse();
        out
    }

    /// Interns the term denoted by a root-to-leaf symbol path
    /// (innermost application first) and returns its node.
    pub fn intern_path(&mut self, path: &[Func]) -> NodeId {
        let mut cur = self.root();
        for &f in path {
            cur = self.child(cur, f);
        }
        cur
    }

    /// Looks up the node for a path without interning; `None` if any prefix
    /// is missing.
    pub fn lookup_path(&self, path: &[Func]) -> Option<NodeId> {
        let mut cur = self.root();
        for &f in path {
            cur = self.get_child(cur, f)?;
        }
        Some(cur)
    }

    /// Renders the term as nested applications, e.g. `exta(extb(0))`.
    pub fn display<'a>(&'a self, n: NodeId, interner: &'a Interner) -> TermDisplay<'a> {
        TermDisplay {
            tree: self,
            node: n,
            interner,
        }
    }
}

/// Display adapter returned by [`TermTree::display`].
pub struct TermDisplay<'a> {
    tree: &'a TermTree,
    node: NodeId,
    interner: &'a Interner,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = self.tree.path(self.node);
        // Outermost symbol is printed first.
        for sym in path.iter().rev() {
            write!(f, "{}(", self.interner.resolve(sym.sym()))?;
        }
        write!(f, "0")?;
        for _ in &path {
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Interner, TermTree, Func, Func) {
        let mut i = Interner::new();
        let f = Func(i.intern("f"));
        let g = Func(i.intern("g"));
        (i, TermTree::new(), f, g)
    }

    #[test]
    fn root_has_depth_zero_and_no_parent() {
        let (_, t, _, _) = setup();
        assert_eq!(t.depth(t.root()), 0);
        assert!(t.parent(t.root()).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn children_are_interned_once() {
        let (_, mut t, f, _) = setup();
        let a = t.child(t.root(), f);
        let b = t.child(t.root(), f);
        assert_eq!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.depth(a), 1);
        assert_eq!(t.parent(a), Some((t.root(), f)));
    }

    #[test]
    fn paths_round_trip() {
        let (_, mut t, f, g) = setup();
        let n = t.intern_path(&[f, g, f]);
        assert_eq!(t.depth(n), 3);
        assert_eq!(t.path(n), vec![f, g, f]);
        assert_eq!(t.lookup_path(&[f, g, f]), Some(n));
        assert_eq!(t.lookup_path(&[g]), None);
    }

    #[test]
    fn display_nests_outermost_first() {
        let (i, mut t, f, g) = setup();
        // path [f, g] denotes g(f(0))
        let n = t.intern_path(&[f, g]);
        assert_eq!(t.display(n, &i).to_string(), "g(f(0))");
        assert_eq!(t.display(t.root(), &i).to_string(), "0");
    }

    #[test]
    fn distinct_paths_are_distinct_nodes() {
        let (_, mut t, f, g) = setup();
        let fg = t.intern_path(&[f, g]);
        let gf = t.intern_path(&[g, f]);
        assert_ne!(fg, gf);
    }
}
