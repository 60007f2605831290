//! Algorithm Q and graph specifications (§3.4, Figure 1).
//!
//! The *graph specification* of a least fixpoint `L` is a pair `(B, F)`:
//! `B`, the **primary database**, holds one slice `L[t]` per representative
//! term `t`, and `F` is the finite graph of **successor mappings** between
//! representative terms. Representatives are chosen smallest in the
//! precedence ordering `≺` (breadth-first over the term tree).
//!
//! Figure 1 of the paper, in its Prolog-like notation:
//!
//! ```text
//! Potential(u)       :- depth(u) = c + 1.
//! Potential(f(u))    :- Active(u).
//! Active(u)          :- Potential(u), ¬∃v (Active(v), v ≺ u, v ∼ u).
//! successor_f(u) = v :- Potential(f(u)), Active(v), v ∼ f(u).
//! ```
//!
//! Terms of depth ≤ c are singleton clusters of the congruence `≅` (§3.2)
//! and carry their own slices; `successor_f(t) = f(t)` for them, except at
//! depth `c` where the successor is the representative of the potential term
//! `f(t)`. To verify `P(t₀, ā) ∈ L`, walk `t₀`'s symbol path through the
//! successor graph (the paper's `Link` rules) and look the tuple up in the
//! final node's slice.
//!
//! The construction below processes potential terms in precedence order
//! (FIFO over a breadth-first frontier, which coincides with `≺`), querying
//! the engine for slices — the "repetitive part" the paper's algorithm
//! computes, plus the finite depth ≤ c part.

use crate::engine::{Cursor, Engine};
use crate::error::{Error, Result};
use crate::gendb::AtomInterner;
use crate::state::State;
use fundb_datalog as dl;
use fundb_term::{Cst, Func, FuncOrder, FxHashMap, Interner, NodeId, Pred, TermTree};
use std::fmt;

/// Index of a node (cluster representative) in a [`GraphSpec`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecNodeId(u32);

impl SpecNodeId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(i: usize) -> Self {
        SpecNodeId(u32::try_from(i).expect("spec node overflow"))
    }

    /// Builds an id from a dense index. Spec nodes are stored densely
    /// (`GraphSpec::nodes[i]` has id `i`); this is the inverse of
    /// [`SpecNodeId::index`], used by serialization.
    pub fn from_dense_index(i: usize) -> Self {
        Self::from_index(i)
    }
}

impl fmt::Debug for SpecNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One representative term with its slice of the primary database.
#[derive(Clone, Debug)]
pub struct SpecNode {
    /// The representative term (node of [`GraphSpec::tree`]).
    pub term: NodeId,
    /// The slice `L[t]` (functional component abstracted away).
    pub state: State,
}

/// One merge of Algorithm Q: the potential term `f(parent)` collapsed into
/// the active representative `rep`. Each merge is one equation
/// `f(parent) ≅ rep` of the equational specification's `R` (§3.5).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Merge {
    /// The potential term's argument (a term of [`GraphSpec::tree`]).
    pub parent: NodeId,
    /// The potential term's outermost symbol.
    pub f: Func,
    /// The representative the potential term collapsed into.
    pub rep: SpecNodeId,
}

/// Marks a successor-table cell without an edge while a specification is
/// read from a file; [`GraphSpec::validate`] rejects any left over.
const NO_EDGE: u32 = u32::MAX;

/// The sections of a specification file, as read and before any check
/// across sections: the input of [`GraphSpec::from_parts`].
pub(crate) struct SpecParts {
    pub(crate) c: usize,
    pub(crate) funcs: Vec<Func>,
    pub(crate) tree: TermTree,
    pub(crate) node_terms: Vec<NodeId>,
    pub(crate) states: Vec<State>,
    /// Successor edges `(from, f, to)` by node index.
    pub(crate) edges: Vec<(usize, Func, usize)>,
    /// Merges as `(potential term path, representative node index)`.
    pub(crate) merges: Vec<(Vec<Func>, usize)>,
    pub(crate) atoms: AtomInterner,
    pub(crate) nf: dl::Database,
}

/// A finite graph specification `(B, F)` of a (possibly infinite) least
/// fixpoint.
#[derive(Clone)]
// Debug: summarized, the full structure is huge.
pub struct GraphSpec {
    /// Depth of the largest ground term (`c`): terms of depth ≤ c are
    /// singleton clusters.
    pub c: usize,
    /// Function symbol order (defines `≺`).
    pub funcs: FuncOrder,
    /// Term tree containing the representative terms and the arguments of
    /// the merged potential terms.
    pub tree: TermTree,
    /// All representatives: the full depth ≤ c region first (breadth-first),
    /// then the `Active` terms discovered by Algorithm Q.
    pub nodes: Vec<SpecNode>,
    /// Successor mappings `F` as a dense row-major `nodes × funcs` table:
    /// `succ[i * funcs.len() + r]` is the successor of node `i` under the
    /// symbol of [`FuncOrder`] rank `r`. Total on `nodes × funcs`. The
    /// layout is private to this module: every read goes through
    /// [`GraphSpec::succ`], [`GraphSpec::succ_row`] or the `Link` walk of
    /// [`GraphSpec::representative_of`].
    succ: Vec<u32>,
    /// Abstract-atom vocabulary for the slices.
    pub atoms: AtomInterner,
    /// The relational part of the fixpoint (non-functional predicates):
    /// the spec's own copy of the engine's relational relations, taken by
    /// [`Engine::nf`] when the spec is built.
    pub nf: dl::Database,
    /// Merges recorded by Algorithm Q, in the order they were made: exactly
    /// the equations `R` of the equational specification (§3.5).
    pub(crate) merges: Vec<Merge>,
    /// Number of active (deep) representatives.
    pub active_count: usize,
}

impl fmt::Debug for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GraphSpec({} clusters, {} edges, {} tuples)",
            self.cluster_count(),
            self.edge_count(),
            self.primary_size()
        )
    }
}

impl GraphSpec {
    /// Runs Algorithm Q over an engine (solving it first if needed).
    ///
    /// ```
    /// use fundb_parser::Workspace;
    ///
    /// let mut ws = Workspace::new();
    /// ws.parse("Even(t) -> Even(t+2). Even(0).").unwrap();
    /// let mut engine = ws.engine().unwrap();
    /// let spec = fundb_core::GraphSpec::from_engine(&mut engine).unwrap();
    /// // 0 plus the two deep clusters (odd, even ≥ 2):
    /// assert_eq!(spec.cluster_count(), 3);
    /// assert!(ws.holds(&spec, "Even(40)").unwrap());
    /// ```
    pub fn from_engine(engine: &mut Engine) -> Result<GraphSpec> {
        engine.solve()?;
        let engine: &Engine = engine;
        let cp = engine.compiled();
        let funcs = cp.funcs.clone();
        let (c, k) = (cp.c, funcs.len());
        let symbols = funcs.symbols().to_vec();

        let mut spec = GraphSpec {
            c,
            funcs,
            tree: TermTree::new(),
            nodes: Vec::new(),
            succ: Vec::new(),
            atoms: engine.atoms().clone(),
            nf: engine.nf(),
            merges: Vec::new(),
            active_count: 0,
        };

        // --- Depth ≤ c region: one singleton cluster per term. -------------
        let root = engine.root_cursor();
        let root_id = spec.push_node(spec.tree.root(), engine.cursor_state(&root).clone());
        let mut level = vec![(root_id, root)];
        for _depth in 0..c {
            let mut next = Vec::with_capacity(level.len() * k);
            for (id, cursor) in level {
                for (r, &f) in symbols.iter().enumerate() {
                    let child = engine.child_cursor(&cursor, f);
                    let term = spec.tree.child(spec.nodes[id.index()].term, f);
                    let child_id = spec.push_node(term, engine.cursor_state(&child).clone());
                    spec.succ[id.index() * k + r] = child_id.0;
                    next.push((child_id, child));
                }
            }
            level = next;
        }

        // --- Algorithm Q proper: potential terms of depth c+1 and beyond. --
        // The potential terms are the children of the depth-c nodes and then
        // of each active term in discovery order: breadth-first, which is
        // precedence order ≺.
        // Active(u) :- Potential(u), ¬∃v (Active(v), v ≺ u, v ∼ u):
        // processing in ≺ order, the representative of each state is the
        // first term carrying it. The map borrows the engine's states, so a
        // state is cloned once per active term, not once per potential.
        let mut active_by_state: FxHashMap<&State, SpecNodeId> = FxHashMap::default();
        // Identical cursors carry equal states, and sibling potential terms
        // often share one (the empty seed): the previous sibling's answer
        // then skips both state lookups.
        let mut last: Option<(Cursor, SpecNodeId)> = None;
        let mut expand = level;
        let mut next = 0;
        while let Some(&(parent, cursor)) = expand.get(next) {
            next += 1;
            for (r, (&f, child)) in symbols
                .iter()
                .zip(engine.child_cursors(&cursor))
                .enumerate()
            {
                let known = match last {
                    Some((seen, rep)) if seen.is(&child) => Some(rep),
                    _ => active_by_state.get(engine.cursor_state(&child)).copied(),
                };
                let to = match known {
                    Some(rep) => {
                        // successor_f(parent) = rep; record f(parent) ≅ rep for R.
                        let parent = spec.nodes[parent.index()].term;
                        spec.merges.push(Merge { parent, f, rep });
                        rep
                    }
                    None => {
                        let state = engine.cursor_state(&child);
                        let term = spec.tree.child(spec.nodes[parent.index()].term, f);
                        let id = spec.push_node(term, state.clone());
                        spec.active_count += 1;
                        active_by_state.insert(state, id);
                        expand.push((id, child));
                        id
                    }
                };
                spec.succ[parent.index() * k + r] = to.0;
                last = Some((child, to));
            }
        }
        Ok(spec)
    }

    /// The graph specification of a lasso over the one symbol `f` (§4: for
    /// temporal rules "the relation R contains just one pair"): node `i`
    /// represents `fⁱ` with the slice `prefix ++ cycle` holds at `i`,
    /// `successor_f(i) = i+1`, and the last node's successor is the one
    /// merge, into node `ρ`, with `c = ρ−1`. A lasso with `ρ = 0` is
    /// unrolled by one position, so that the merge target is deep: its
    /// equation is `(1, 1+λ)`, congruent to `(0, λ)` on the lasso's terms.
    /// `cycle` must not be empty.
    pub fn from_lasso(
        f: Func,
        prefix: &[State],
        cycle: &[State],
        atoms: AtomInterner,
        nf: dl::Database,
    ) -> GraphSpec {
        let unrolled;
        let (prefix, cycle) = if prefix.is_empty() {
            unrolled = [&cycle[1..], &cycle[..1]].concat();
            (&cycle[..1], &unrolled[..])
        } else {
            (prefix, cycle)
        };
        let rho = prefix.len();
        let mut spec = GraphSpec {
            c: rho - 1,
            funcs: FuncOrder::new([f]),
            tree: TermTree::new(),
            nodes: Vec::with_capacity(rho + cycle.len()),
            succ: Vec::with_capacity(rho + cycle.len()),
            atoms,
            nf,
            merges: Vec::new(),
            active_count: cycle.len(),
        };
        let mut term = spec.tree.root();
        for (i, state) in prefix.iter().chain(cycle).enumerate() {
            if i > 0 {
                term = spec.tree.child(term, f);
            }
            spec.push_node(term, state.clone());
            spec.succ[i] = i as u32 + 1;
        }
        let last = spec.succ.len() - 1;
        spec.succ[last] = rho as u32;
        let rep = SpecNodeId::from_index(rho);
        spec.merges.push(Merge {
            parent: term,
            f,
            rep,
        });
        spec
    }

    /// Builds a specification from the sections of a file: fills the dense
    /// successor table (an edge naming an unknown node or a symbol outside
    /// `funcs`, or a second edge for one cell, is an error), interns each
    /// merge's potential term `f(parent)`, and checks the result with
    /// [`GraphSpec::validate`] (which rejects a missing edge).
    pub(crate) fn from_parts(parts: SpecParts) -> std::result::Result<GraphSpec, String> {
        let funcs = FuncOrder::new(parts.funcs);
        let (n, k) = (parts.node_terms.len(), funcs.len());
        let mut succ = vec![NO_EDGE; n * k];
        for (from, f, to) in parts.edges {
            let r = funcs
                .position(f)
                .ok_or_else(|| format!("successor of node {from} names an unknown symbol"))?;
            if from >= n || to >= n {
                return Err("successor refers to an unknown node".into());
            }
            let cell = &mut succ[from * k + r as usize];
            if *cell != NO_EDGE {
                return Err(format!("node {from} has two successors under one symbol"));
            }
            *cell = to as u32;
        }
        let mut tree = parts.tree;
        let mut merges = Vec::with_capacity(parts.merges.len());
        for (path, rep) in parts.merges {
            let Some((&f, parent)) = path.split_last() else {
                return Err("merge of the term 0 (a merged term is f(parent))".into());
            };
            if rep >= n {
                return Err("merge refers to an unknown node".into());
            }
            merges.push(Merge {
                parent: tree.intern_path(parent),
                f,
                rep: SpecNodeId::from_index(rep),
            });
        }
        let nodes: Vec<SpecNode> = parts
            .node_terms
            .iter()
            .zip(parts.states)
            .map(|(&term, state)| SpecNode { term, state })
            .collect();
        let active_count = nodes
            .iter()
            .filter(|node| tree.depth(node.term) > parts.c)
            .count();
        let spec = GraphSpec {
            c: parts.c,
            funcs,
            tree,
            nodes,
            succ,
            atoms: parts.atoms,
            nf: parts.nf,
            merges,
            active_count,
        };
        spec.validate().map_err(|e| match e {
            Error::Parse { detail, .. } => detail,
            other => other.to_string(),
        })?;
        Ok(spec)
    }

    /// Appends a node with an empty successor row.
    fn push_node(&mut self, term: NodeId, state: State) -> SpecNodeId {
        let id = SpecNodeId::from_index(self.nodes.len());
        self.nodes.push(SpecNode { term, state });
        self.succ
            .resize(self.succ.len() + self.funcs.len(), NO_EDGE);
        id
    }

    /// The root node (representative of the term `0`).
    pub fn root(&self) -> SpecNodeId {
        SpecNodeId(0)
    }

    /// All node ids, in construction order (depth ≤ c region first, then
    /// actives in precedence order).
    pub fn node_ids(&self) -> impl Iterator<Item = SpecNodeId> {
        (0..self.nodes.len()).map(SpecNodeId::from_index)
    }

    /// The successor `successor_f(node)`, or `None` for a symbol outside
    /// the program's vocabulary.
    pub fn succ(&self, node: SpecNodeId, f: Func) -> Option<SpecNodeId> {
        let r = self.funcs.position(f)? as usize;
        Some(SpecNodeId(self.succ[node.index() * self.funcs.len() + r]))
    }

    /// The successor row of a node: `(f, successor_f(node))` for every
    /// symbol, in [`FuncOrder`] order.
    pub fn succ_row(&self, node: SpecNodeId) -> impl Iterator<Item = (Func, SpecNodeId)> + '_ {
        let k = self.funcs.len();
        self.funcs
            .symbols()
            .iter()
            .zip(&self.succ[node.index() * k..(node.index() + 1) * k])
            .map(|(&f, &to)| (f, SpecNodeId(to)))
    }

    /// The merges of Algorithm Q, in the order they were made.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// The symbol path of a merge's potential term `f(parent)`.
    pub fn merge_path(&self, merge: &Merge) -> Vec<Func> {
        let mut path = self.tree.path(merge.parent);
        path.push(merge.f);
        path
    }

    /// Checks the structural invariants every specification from Algorithm Q
    /// or minimization satisfies, so that a specification read from a file
    /// can be trusted like a computed one: node 0 is the root term and node terms are
    /// distinct; the successor table is total and functional on
    /// `nodes × funcs` (a total functional dependency from `(node, f)` to a
    /// node); every merge names a known term, symbol and node.
    pub fn validate(&self) -> Result<()> {
        let invalid = |detail: String| {
            Err(Error::Parse {
                offset: 0,
                detail: format!("invalid specification: {detail}"),
            })
        };
        let (n, k) = (self.nodes.len(), self.funcs.len());
        if n == 0 {
            return invalid("no nodes (node 0 must represent the term 0)".into());
        }
        if self.nodes[0].term != self.tree.root() {
            return invalid("node 0 does not represent the term 0".into());
        }
        // Terms of node and merge paths alike: a node over a foreign symbol
        // would become a merge over it in `minimized`.
        for t in self.tree.node_ids() {
            if let Some((_, f)) = self.tree.parent(t) {
                if self.funcs.position(f).is_none() {
                    return invalid("a term uses a symbol outside the specification".into());
                }
            }
        }
        let mut seen = vec![false; self.tree.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            match seen.get_mut(node.term.index()) {
                Some(s) if !*s => *s = true,
                Some(_) => return invalid(format!("node {i} repeats another node's term")),
                None => return invalid(format!("node {i} names an unknown term")),
            }
        }
        if self.succ.len() != n * k {
            return invalid(format!(
                "successor table has {} cells for {n} nodes × {k} symbols",
                self.succ.len()
            ));
        }
        for (cell, &to) in self.succ.iter().enumerate() {
            if to == NO_EDGE {
                return invalid(format!(
                    "node {} has no successor under symbol #{}",
                    cell / k,
                    cell % k
                ));
            }
            if to as usize >= n {
                return invalid(format!(
                    "successor of node {} is unknown node {to}",
                    cell / k
                ));
            }
        }
        for m in &self.merges {
            if m.parent.index() >= self.tree.len() {
                return invalid("merge names an unknown term".into());
            }
            if self.funcs.position(m.f).is_none() {
                return invalid("merge names a symbol outside the specification".into());
            }
            if m.rep.index() >= n {
                return invalid(format!("merge names unknown node {}", m.rep.index()));
            }
        }
        Ok(())
    }

    /// Walks the successor graph along a symbol path — the paper's `Link`
    /// rules — returning the representative of the term. `None` when the
    /// path uses a function symbol outside the program's vocabulary (such a
    /// term cannot occur in the least fixpoint, Proposition 2.1). Takes no
    /// lock: one rank read and one table read per symbol.
    #[inline]
    pub fn representative_of(&self, path: &[Func]) -> Option<SpecNodeId> {
        let k = self.funcs.len();
        let mut cur = 0u32;
        for &f in path {
            cur = self.succ[cur as usize * k + self.funcs.position(f)? as usize];
        }
        Some(SpecNodeId(cur))
    }

    /// Yes-no membership `P(t₀, ā) ∈ L` via the graph specification.
    pub fn holds(&self, pred: Pred, path: &[Func], args: &[Cst]) -> bool {
        let Some(id) = self.atoms.get(pred, args) else {
            return false;
        };
        let Some(rep) = self.representative_of(path) else {
            return false;
        };
        self.nodes[rep.index()].state.contains(id)
    }

    /// Yes-no membership for a relational tuple.
    pub fn holds_relational(&self, pred: Pred, args: &[Cst]) -> bool {
        self.nf.contains(pred, args)
    }

    /// The slice of a representative, as `(pred, args)` tuples.
    pub fn slice(&self, id: SpecNodeId) -> impl Iterator<Item = (Pred, &[Cst])> + '_ {
        self.nodes[id.index()]
            .state
            .iter()
            .map(|a| self.atoms.resolve(a))
    }

    /// Number of clusters (representatives) in the specification.
    pub fn cluster_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of tuples in the primary database `B` (functional slices
    /// plus the relational store).
    pub fn primary_size(&self) -> usize {
        self.nodes.iter().map(|n| n.state.len()).sum::<usize>() + self.nf.fact_count()
    }

    /// Number of successor edges (|F|).
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Mutable-spec counterpart of [`crate::serve::FrozenGraphSpec::
    /// patch_retraction`]: applies a completed retraction's net row
    /// deletions to the relational store, so a cached specification for a
    /// purely relational program stays valid under `:retract` without a
    /// rebuild. The functional side (nodes, successors, slices) depends on
    /// the program alone and is untouched. Returns the number of rows
    /// retracted.
    pub fn patch_retraction(&mut self, outcome: &dl::RetractOutcome) -> usize {
        crate::serve::retract_net_rows(&mut self.nf, outcome)
    }

    /// The bisimulation quotient of the specification: merges every pair of
    /// nodes with equal slices whose successors are (recursively) equal too.
    ///
    /// This is the coarsest sound collapsing — every membership walk yields
    /// the same slices — and it subsumes the paper's congruence `≅`: where
    /// our conservative Algorithm Q keeps singleton clusters for terms of
    /// depth ≤ c (`c` measured on the *transformed* rules, whose ground
    /// instantiated terms can be deeper than the original rules'), the
    /// quotient re-merges them, reproducing e.g. the four representatives
    /// `0, a, b, ab` of the paper's §3.4 worked example.
    pub fn minimized(&self) -> GraphSpec {
        let n = self.nodes.len();
        // Initial partition: by slice.
        let mut block: Vec<usize> = vec![0; n];
        {
            let mut by_state: FxHashMap<&State, usize> = FxHashMap::default();
            for (i, node) in self.nodes.iter().enumerate() {
                let next_id = by_state.len();
                block[i] = *by_state.entry(&node.state).or_insert(next_id);
            }
        }
        // Refine by successor signature: the block of every successor, read
        // straight off the dense table. All n·k signature entries live in
        // one flat arena reused across rounds (keyed by borrowed slices), so
        // refinement allocates nothing per node.
        let k = self.funcs.len();
        let mut sig = vec![0usize; n * k];
        let mut new_block = vec![0usize; n];
        loop {
            for (s, &to) in sig.iter_mut().zip(&self.succ) {
                *s = block[to as usize];
            }
            let mut sig_to_block: FxHashMap<(usize, &[usize]), usize> = FxHashMap::default();
            for i in 0..n {
                let next_id = sig_to_block.len();
                new_block[i] = *sig_to_block
                    .entry((block[i], &sig[i * k..(i + 1) * k]))
                    .or_insert(next_id);
            }
            if new_block == block {
                break;
            }
            std::mem::swap(&mut block, &mut new_block);
        }
        // Representative of each block: the ≺-smallest member (blocks are
        // discovered in node order, which is ≺ order).
        let block_count = block.iter().copied().max().map_or(0, |m| m + 1);
        let mut rep_of_block: Vec<Option<usize>> = vec![None; block_count];
        for (i, &b) in block.iter().enumerate() {
            if rep_of_block[b].is_none() {
                rep_of_block[b] = Some(i);
            }
        }
        // Re-number blocks by their representative's node index so the
        // root stays node 0 and ordering is stable.
        let mut order: Vec<usize> = (0..block_count).collect();
        order.sort_by_key(|&b| rep_of_block[b].expect("every block has a representative"));
        let mut renum = vec![0u32; block_count];
        for (new_id, &b) in order.iter().enumerate() {
            renum[b] = new_id as u32;
        }
        let new_id = |i: usize| SpecNodeId(renum[block[i]]);

        // The quotient keeps the term tree, so every term (representative,
        // merged member, potential term's argument) keeps its id.
        let mut out = GraphSpec {
            c: self.c,
            funcs: self.funcs.clone(),
            tree: self.tree.clone(),
            nodes: Vec::with_capacity(block_count),
            succ: Vec::with_capacity(block_count * k),
            atoms: self.atoms.clone(),
            nf: self.nf.clone(),
            merges: Vec::new(),
            active_count: 0,
        };
        for &b in &order {
            let rep = rep_of_block[b].expect("every block has a representative");
            let node = &self.nodes[rep];
            out.nodes.push(node.clone());
            out.succ.extend(
                self.succ[rep * k..(rep + 1) * k]
                    .iter()
                    .map(|&to| new_id(to as usize).0),
            );
            if out.tree.depth(node.term) > out.c {
                out.active_count += 1;
            }
        }
        // Non-representative members become merge equations, then the
        // original merges follow with their representatives renumbered.
        for (i, &b) in block.iter().enumerate() {
            if rep_of_block[b] != Some(i) {
                let (parent, f) = self
                    .tree
                    .parent(self.nodes[i].term)
                    .expect("the root represents its block");
                out.merges.push(Merge {
                    parent,
                    f,
                    rep: new_id(i),
                });
            }
        }
        out.merges.extend(self.merges.iter().map(|m| Merge {
            rep: new_id(m.rep.index()),
            ..*m
        }));
        out
    }

    /// Renders the specification deterministically: representative terms
    /// with their slices and successor mappings. Used by goldens and the
    /// examples.
    pub fn render(&self, interner: &Interner) -> String {
        let mut out = String::new();
        for (id, node) in self.node_ids().zip(&self.nodes) {
            let term = self.tree.display(node.term, interner).to_string();
            out.push_str(&format!("node {}: {term}\n", id.index()));
            let mut slice: Vec<String> = node
                .state
                .iter()
                .map(|a| self.atoms.display(a, interner))
                .collect();
            slice.sort_unstable();
            for s in slice {
                out.push_str(&format!("  {s}\n"));
            }
            for (f, to) in self.succ_row(id) {
                out.push_str(&format!(
                    "  successor_{} -> node {}\n",
                    interner.resolve(f.sym()),
                    to.index()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Atom, Database, FTerm, NTerm, Program, Rule};
    use fundb_term::Var;

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    /// Meets/Next: the spec must collapse to two deep clusters (even/odd).
    #[test]
    fn meets_collapses_to_two_clusters() {
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
        let spec = GraphSpec::from_engine(&mut engine).unwrap();

        // c = 0: the root plus two active representatives (odd days: jan,
        // even days ≥ 2: tony).
        assert_eq!(spec.c, 0);
        assert_eq!(spec.cluster_count(), 3);
        assert_eq!(spec.active_count, 2);

        // Membership through the Link walk.
        for n in 0..50usize {
            let path = vec![succ; n];
            assert_eq!(spec.holds(meets, &path, &[tony]), n % 2 == 0);
            assert_eq!(spec.holds(meets, &path, &[jan]), n % 2 == 1);
        }
        assert!(spec.holds_relational(next, &[tony, jan]));
        assert!(!spec.holds_relational(next, &[jan, jan]));
    }

    /// The successor graph is total: every node has an edge per symbol.
    #[test]
    fn successor_graph_is_total() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let f = Func(i.intern("f"));
        let g = Func(i.intern("g"));
        let s = Var(i.intern("s"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(p, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(p, FTerm::Var(s), vec![])],
        ));
        prog.push(Rule::new(
            fat(p, FTerm::Pure(g, Box::new(FTerm::Var(s))), vec![]),
            vec![
                fat(p, FTerm::Var(s), vec![]),
                fat(p, FTerm::Pure(g, Box::new(FTerm::Var(s))), vec![]),
            ],
        ));
        let mut db = Database::new();
        db.facts.push(fat(p, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        spec.validate().unwrap();
        for idx in 0..spec.cluster_count() {
            for &sym in spec.funcs.symbols() {
                assert!(
                    spec.succ(SpecNodeId::from_index(idx), sym).is_some(),
                    "missing successor at node {idx}"
                );
            }
        }
    }

    /// Spec membership agrees with the engine on all short paths.
    #[test]
    fn spec_agrees_with_engine() {
        let mut i = Interner::new();
        let a = Pred(i.intern("A"));
        let b = Pred(i.intern("B"));
        let f = Func(i.intern("f"));
        let g = Func(i.intern("g"));
        let s = Var(i.intern("s"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(a, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(a, FTerm::Var(s), vec![])],
        ));
        prog.push(Rule::new(
            fat(b, FTerm::Pure(g, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(a, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(a, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();

        let mut paths: Vec<Vec<Func>> = vec![vec![]];
        let mut frontier: Vec<Vec<Func>> = vec![vec![]];
        for _ in 0..5 {
            let mut next = Vec::new();
            for p in &frontier {
                for &sym in &[f, g] {
                    let mut q = p.clone();
                    q.push(sym);
                    next.push(q);
                }
            }
            paths.extend(next.iter().cloned());
            frontier = next;
        }
        for path in &paths {
            for pred in [a, b] {
                assert_eq!(
                    spec.holds(pred, path, &[]),
                    engine.holds(pred, path, &[]),
                    "pred {pred:?} path {path:?}"
                );
            }
        }
    }

    /// Merges record potential → representative equations for the eqspec.
    #[test]
    fn merges_are_recorded_and_consistent() {
        let mut i = Interner::new();
        let even = Pred(i.intern("Even"));
        let succ = Func(i.intern("s1"));
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
        assert!(!spec.merges().is_empty());
        for m in spec.merges() {
            assert_eq!(spec.representative_of(&spec.merge_path(m)), Some(m.rep));
        }
        // The Even lasso: Even holds exactly on even terms.
        for n in 0..20usize {
            assert_eq!(spec.holds(even, &vec![succ; n], &[]), n % 2 == 0);
        }
    }

    /// Rendering is stable and human-readable.
    #[test]
    fn render_shows_nodes_and_successors() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let f = Func(i.intern("f"));
        let s = Var(i.intern("s"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(p, FTerm::Pure(f, Box::new(FTerm::Var(s))), vec![]),
            vec![fat(p, FTerm::Var(s), vec![])],
        ));
        let mut db = Database::new();
        db.facts.push(fat(p, FTerm::Zero, vec![]));
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        let text = spec.render(&i);
        assert!(text.contains("node 0: 0"));
        assert!(text.contains("P()"));
        assert!(text.contains("successor_f"));
    }
}
