//! String interning and typed symbol handles.
//!
//! The paper's language (§2.1) partitions symbols into predicate symbols,
//! pure (unary) function symbols, mixed (k-ary, k ≥ 2) function symbols,
//! non-functional constants, and variables. All of them are interned strings;
//! the typed wrappers make it impossible to confuse the categories at the API
//! level while keeping every handle a 4-byte copyable id.

use crate::hash::{FxHashMap, FxHasher};
use std::fmt;
use std::hash::Hasher;

/// An interned string handle. Ordering follows interning order, which the
/// rest of the workspace uses as a stable, deterministic symbol order.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Sentinel handle that never resolves: used to pre-size buffers (e.g.
    /// register files) whose slots are always written before they are read.
    /// Resolving it panics, which is exactly what a read-before-write bug
    /// should do.
    pub const PLACEHOLDER: Sym = Sym(u32::MAX);

    /// The dense index of this symbol (0-based interning order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Mints a handle at an arbitrary index, for symbols that are never
    /// interned. Program transformations (e.g. the magic-set rewrite) use
    /// indices past every interned symbol to name auxiliary predicates
    /// without threading a `&mut Interner` through the rewrite; such
    /// handles must stay internal to the transformed program, since
    /// resolving them against an interner panics.
    #[inline]
    pub fn synthetic(index: u32) -> Sym {
        Sym(index)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// A string interner. Interning the same string twice yields the same
/// [`Sym`]; resolution is O(1). Each name is stored exactly once, in
/// `names`; the lookup table maps a name's hash to the candidate ids and
/// confirms against that single copy.
#[derive(Default, Clone)]
pub struct Interner {
    names: Vec<Box<str>>,
    /// `map[hash(name)]` = ids of names with that hash.
    map: FxHashMap<u64, Vec<u32>>,
    /// Per stem passed to [`Interner::fresh`], the suffix its next probe
    /// starts from: every `stem#i` below it is interned.
    next_suffix: FxHashMap<Box<str>, usize>,
}

fn hash_name(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner({} symbols)", self.names.len())
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable handle.
    pub fn intern(&mut self, name: &str) -> Sym {
        let bucket = self.map.entry(hash_name(name)).or_default();
        if let Some(&id) = bucket.iter().find(|&&id| &*self.names[id as usize] == name) {
            return Sym(id);
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(name.into());
        bucket.push(id);
        Sym(id)
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.map.get(&hash_name(name)).and_then(|bucket| {
            bucket
                .iter()
                .find(|&&id| &*self.names[id as usize] == name)
                .map(|&id| Sym(id))
        })
    }

    /// Resolves a handle back to its string.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Generates a symbol guaranteed to be fresh (not previously interned),
    /// built from `stem`: `stem` itself if free, else `stem#i` for the
    /// least free `i ≥ 1`. Used by the normalization pass (paper Appendix)
    /// to mint auxiliary predicate names. Names are never removed, so the
    /// probe resumes where the stem's last one stopped, and `k` calls with
    /// one stem cost `O(k)`.
    pub fn fresh(&mut self, stem: &str) -> Sym {
        if self.get(stem).is_none() {
            return self.intern(stem);
        }
        let mut i = self.next_suffix.get(stem).copied().unwrap_or(1);
        let sym = loop {
            let candidate = format!("{stem}#{i}");
            i += 1;
            if self.get(&candidate).is_none() {
                break self.intern(&candidate);
            }
        };
        match self.next_suffix.get_mut(stem) {
            Some(next) => *next = i,
            None => {
                self.next_suffix.insert(stem.into(), i);
            }
        }
        sym
    }
}

macro_rules! typed_symbol {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub Sym);

        impl $name {
            /// The underlying interned string handle.
            #[inline]
            pub fn sym(self) -> Sym {
                self.0
            }

            /// Dense index of the underlying symbol.
            #[inline]
            pub fn index(self) -> usize {
                self.0.index()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0.index())
            }
        }
    };
}

typed_symbol!(
    /// A predicate symbol (functional or non-functional; §2.1).
    Pred
);
typed_symbol!(
    /// A pure (unary) function symbol (§2.1). After the mixed→pure
    /// transformation of §2.4 these are the only function symbols left.
    Func
);
typed_symbol!(
    /// A non-functional constant (an ordinary database constant).
    Cst
);
typed_symbol!(
    /// A variable (functional or non-functional; the distinction is recorded
    /// in the surrounding program, not in the handle).
    Var
);

/// A mixed function symbol `g` of arity `k ≥ 2`: one functional argument plus
/// `k − 1` non-functional ones (§2.1). Eliminated by the transformation of
/// §2.4 before evaluation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MixedSym {
    /// Symbol name.
    pub name: Sym,
    /// Number of non-functional arguments (`k − 1 ≥ 1`).
    pub extra_args: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Meets");
        let b = i.intern("Meets");
        assert_eq!(a, b);
        assert_eq!(i.resolve(a), "Meets");
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
    }

    #[test]
    fn fresh_avoids_collisions() {
        let mut i = Interner::new();
        let a = i.intern("P1");
        let b = i.fresh("P1");
        let c = i.fresh("P1");
        assert_ne!(a.index(), b.index());
        assert_ne!(b.index(), c.index());
        assert_eq!(i.resolve(b), "P1#1");
        assert_eq!(i.resolve(c), "P1#2");
    }

    #[test]
    fn fresh_numbers_a_stem_in_order() {
        let mut i = Interner::new();
        for k in 0..1000 {
            let s = i.fresh("u@");
            let want = if k == 0 {
                "u@".to_string()
            } else {
                format!("u@#{k}")
            };
            assert_eq!(i.resolve(s), want);
        }
        // A suffix interned out of turn is skipped, not reused.
        i.intern("v#2");
        let names: Vec<String> = (0..3)
            .map(|_| {
                let s = i.fresh("v");
                i.resolve(s).to_string()
            })
            .collect();
        assert_eq!(names, ["v", "v#1", "v#3"]);
    }

    #[test]
    fn symbol_order_follows_interning_order() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let z = i.intern("0");
        assert!(a < b && b < z);
    }

    #[test]
    fn typed_wrappers_are_distinct_types_over_same_sym() {
        let mut i = Interner::new();
        let s = i.intern("f");
        let f = Func(s);
        let p = Pred(s);
        assert_eq!(f.sym(), p.sym());
        assert_eq!(f.index(), 0);
    }
}
