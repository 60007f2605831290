//! The generalized database and the data-complexity parameters of §2.5.
//!
//! For a database `D` and a domain-independent rule set `Z`, the paper's
//! *generalized database* `B` is the set of all possible tuples over the
//! predicates of `Z ∪ D` built from the ground terms appearing in `Z ∪ D`.
//! Its size `gsize` is polynomial in the size of `D` (at most
//! `(s+1)·n^(k+1)`) and is the size measure used throughout the complexity
//! section.
//!
//! [`AtomInterner`] assigns dense ids to *abstract atoms* — tuples with the
//! functional component abstracted away — which the engine's [`crate::State`]
//! bitsets range over. [`DataParams`] reports the parameters `s, k, d, c, m`
//! and the bounds of §3.1–§3.2.

use crate::program::Schema;
use fundb_term::{Cst, FxHashMap, FxHasher, Interner, Pred};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Dense id of an abstract atom `P(ā)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(u32);

impl AtomId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        AtomId(u32::try_from(i).expect("atom id overflow"))
    }
}

impl fmt::Debug for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Interner of abstract atoms `(P, ā)`. Each atom is stored once, in
/// `list`; lookups hash the borrowed atom and confirm candidates against
/// `list`, so a hit allocates nothing.
#[derive(Clone, Default)]
pub struct AtomInterner {
    /// `heads[hash(P, ā)]` = the latest id with that hash; older ones
    /// follow through `next`.
    heads: FxHashMap<u64, u32>,
    /// `next[id]` = the previous id with `id`'s hash, or `u32::MAX`.
    next: Vec<u32>,
    list: Vec<(Pred, Box<[Cst]>)>,
}

fn hash_atom(pred: Pred, args: &[Cst]) -> u64 {
    let mut h = FxHasher::default();
    pred.hash(&mut h);
    args.hash(&mut h);
    h.finish()
}

impl AtomInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an abstract atom.
    pub fn intern(&mut self, pred: Pred, args: &[Cst]) -> AtomId {
        let hash = hash_atom(pred, args);
        if let Some(id) = self.find(hash, pred, args) {
            return id;
        }
        let id = AtomId::from_index(self.list.len());
        let prev = self.heads.insert(hash, id.0).unwrap_or(u32::MAX);
        self.next.push(prev);
        self.list.push((pred, args.into()));
        id
    }

    /// Looks up an abstract atom without interning.
    pub fn get(&self, pred: Pred, args: &[Cst]) -> Option<AtomId> {
        self.find(hash_atom(pred, args), pred, args)
    }

    fn find(&self, hash: u64, pred: Pred, args: &[Cst]) -> Option<AtomId> {
        let mut id = *self.heads.get(&hash)?;
        while id != u32::MAX {
            let (p, a) = &self.list[id as usize];
            if *p == pred && **a == *args {
                return Some(AtomId(id));
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Resolves an id.
    pub fn resolve(&self, id: AtomId) -> (Pred, &[Cst]) {
        let (p, args) = &self.list[id.index()];
        (*p, args)
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Iterates all interned atoms as `(id, pred, args)`.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, Pred, &[Cst])> {
        self.list
            .iter()
            .enumerate()
            .map(|(i, (p, args))| (AtomId::from_index(i), *p, &args[..]))
    }

    /// Whether nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Renders an atom id for diagnostics.
    pub fn display(&self, id: AtomId, interner: &Interner) -> String {
        let (p, args) = self.resolve(id);
        let args = args
            .iter()
            .map(|c| interner.resolve(c.sym()))
            .collect::<Vec<_>>()
            .join(",");
        format!("{}({})", interner.resolve(p.sym()), args)
    }
}

/// The data-complexity parameters of §2.5 together with the §3.1–§3.2 scope
/// bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataParams {
    /// Number of predicates (`s`).
    pub s: usize,
    /// Maximal number of non-functional arguments of a predicate (`k`;
    /// functional position excluded).
    pub k: usize,
    /// Number of distinct non-functional constants (`d`).
    pub d: usize,
    /// Depth of the largest ground functional term (`c`).
    pub c: usize,
    /// Number of successors of a state (`m`): the number of pure function
    /// symbols after the mixed→pure transformation.
    pub m: usize,
    /// Size of the generalized database: the number of possible abstract
    /// atoms, `Σ_P d^extra(P)`.
    pub gsize: u128,
}

impl DataParams {
    /// Computes the parameters from a (pure) schema.
    pub fn of(schema: &Schema) -> DataParams {
        let d = schema.constants.len();
        let mut gsize: u128 = 0;
        let mut k = 0usize;
        for sig in schema.sigs.values() {
            k = k.max(sig.extra);
            gsize = gsize.saturating_add((d.max(1) as u128).saturating_pow(sig.extra as u32));
        }
        DataParams {
            s: schema.sigs.len(),
            k,
            d,
            c: schema.max_ground_depth,
            m: schema.pure_syms.len(),
            gsize,
        }
    }

    /// The §3.1 bound `scope∼(L) ≤ 2^gsize` (saturating).
    pub fn equivalence_scope_bound(&self) -> u128 {
        if self.gsize >= 127 {
            u128::MAX
        } else {
            1u128 << self.gsize
        }
    }

    /// The Lemma 3.2 bound `scope≅(L) ≤ 1 + m·s·2^gsize` (saturating).
    pub fn congruence_scope_bound(&self) -> u128 {
        let pow = self.equivalence_scope_bound();
        (self.m as u128)
            .saturating_mul(self.s as u128)
            .saturating_mul(pow)
            .saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Database, Program};

    #[test]
    fn intern_and_resolve() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let a = Cst(i.intern("a"));
        let b = Cst(i.intern("b"));
        let mut at = AtomInterner::new();
        let id1 = at.intern(p, &[a, b]);
        let id2 = at.intern(p, &[a, b]);
        let id3 = at.intern(p, &[b, a]);
        assert_eq!(id1, id2);
        assert_ne!(id1, id3);
        assert_eq!(at.resolve(id1), (p, &[a, b][..]));
        assert_eq!(at.display(id3, &i), "P(b,a)");
        assert_eq!(at.len(), 2);
    }

    #[test]
    fn params_of_empty_schema() {
        let i = Interner::new();
        let schema = Schema::infer(&Program::new(), &Database::new(), &i).unwrap();
        let p = DataParams::of(&schema);
        assert_eq!(p.s, 0);
        assert_eq!(p.gsize, 0);
        assert_eq!(p.equivalence_scope_bound(), 1);
        assert_eq!(p.congruence_scope_bound(), 1);
    }

    #[test]
    fn gsize_counts_abstract_atoms() {
        // Two predicates: functional P with 1 extra arg, relational R with
        // 2 args; constants {a, b} ⇒ gsize = 2 + 4 = 6.
        use crate::program::{Atom, FTerm, NTerm, Rule};
        use fundb_term::Var;
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let r = Pred(i.intern("R"));
        let s = Var(i.intern("s"));
        let a = Cst(i.intern("a"));
        let b = Cst(i.intern("b"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Functional {
                pred: p,
                fterm: FTerm::Var(s),
                args: vec![NTerm::Const(a)],
            },
            vec![Atom::Functional {
                pred: p,
                fterm: FTerm::Var(s),
                args: vec![NTerm::Const(b)],
            }],
        ));
        let mut db = Database::new();
        db.facts.push(Atom::Relational {
            pred: r,
            args: vec![NTerm::Const(a), NTerm::Const(b)],
        });
        let schema = Schema::infer(&prog, &db, &i).unwrap();
        let params = DataParams::of(&schema);
        assert_eq!(params.s, 2);
        assert_eq!(params.k, 2);
        assert_eq!(params.d, 2);
        assert_eq!(params.gsize, 6);
        assert_eq!(params.equivalence_scope_bound(), 64);
    }
}
