//! Abstract syntax of functional deductive databases (§2.1).
//!
//! A *functional term* is built from the unique functional constant `0`,
//! functional variables, pure (unary) function symbols and mixed (k-ary)
//! function symbols whose extra arguments are non-functional. A *functional
//! atom* `P(v, x̄)` carries its functional term in the first position; a
//! *relational atom* `R(x̄)` has none. Rules are Horn; a *functional
//! deductive database* is a set of rules plus a set of ground facts.

use crate::error::{Error, Result};
use fundb_term::{Cst, Func, FxHashMap, FxHashSet, Interner, MixedSym, Pred, Var};
use std::fmt;

/// A non-functional term: an ordinary database constant or variable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum NTerm {
    /// A non-functional variable.
    Var(Var),
    /// A non-functional constant.
    Const(Cst),
}

impl NTerm {
    /// The constant, if this is one.
    pub fn as_const(self) -> Option<Cst> {
        match self {
            NTerm::Const(c) => Some(c),
            NTerm::Var(_) => None,
        }
    }
}

/// A functional term (§2.1). Exactly one functional "spine" runs through the
/// term, ending in `0` or in a functional variable.
///
/// Terms can be arbitrarily deep (a timestamp like `Meets(10⁶, …)` is a
/// million applications of `+1`), so every operation on `FTerm` — including
/// `Clone`, `Drop`, equality and hashing, which are implemented manually
/// below — walks the spine iteratively rather than recursively.
pub enum FTerm {
    /// The functional constant `0`.
    Zero,
    /// A functional variable.
    Var(Var),
    /// A pure (unary) application `f(v)`.
    Pure(Func, Box<FTerm>),
    /// A mixed application `g(v, x̄)` with `x̄` non-functional.
    Mixed(MixedSym, Box<FTerm>, Vec<NTerm>),
}

/// One application step of a spine, outermost first (see
/// [`FTerm::spine_steps`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SpineStep {
    /// A pure application.
    Pure(Func),
    /// A mixed application with its non-functional arguments.
    Mixed(MixedSym, Vec<NTerm>),
}

impl Drop for FTerm {
    fn drop(&mut self) {
        // Unlink the spine iteratively so dropping a million-deep term does
        // not recurse.
        let mut cur = match self {
            FTerm::Pure(_, t) | FTerm::Mixed(_, t, _) => std::mem::replace(&mut **t, FTerm::Zero),
            _ => return,
        };
        loop {
            cur = match &mut cur {
                FTerm::Pure(_, t) | FTerm::Mixed(_, t, _) => {
                    std::mem::replace(&mut **t, FTerm::Zero)
                }
                _ => return,
            };
        }
    }
}

impl Clone for FTerm {
    fn clone(&self) -> FTerm {
        let (steps, end) = self.decompose();
        let end = match end {
            FTerm::Zero => FTerm::Zero,
            FTerm::Var(v) => FTerm::Var(*v),
            _ => unreachable!("decompose ends at Zero or Var"),
        };
        FTerm::rebuild(end, steps.into_iter().rev())
    }
}

impl PartialEq for FTerm {
    fn eq(&self, other: &FTerm) -> bool {
        let (mut a, mut b) = (self, other);
        loop {
            match (a, b) {
                (FTerm::Zero, FTerm::Zero) => return true,
                (FTerm::Var(x), FTerm::Var(y)) => return x == y,
                (FTerm::Pure(f, t1), FTerm::Pure(g, t2)) => {
                    if f != g {
                        return false;
                    }
                    a = t1;
                    b = t2;
                }
                (FTerm::Mixed(f, t1, a1), FTerm::Mixed(g, t2, a2)) => {
                    if f != g || a1 != a2 {
                        return false;
                    }
                    a = t1;
                    b = t2;
                }
                _ => return false,
            }
        }
    }
}

impl Eq for FTerm {}

impl std::hash::Hash for FTerm {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut cur = self;
        loop {
            match cur {
                FTerm::Zero => {
                    0u8.hash(state);
                    return;
                }
                FTerm::Var(v) => {
                    1u8.hash(state);
                    v.hash(state);
                    return;
                }
                FTerm::Pure(f, t) => {
                    2u8.hash(state);
                    f.hash(state);
                    cur = t;
                }
                FTerm::Mixed(g, t, args) => {
                    3u8.hash(state);
                    g.hash(state);
                    args.hash(state);
                    cur = t;
                }
            }
        }
    }
}

impl fmt::Debug for FTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (steps, end) = self.decompose();
        for s in &steps {
            match s {
                SpineStep::Pure(sym) => write!(f, "f{}(", sym.index())?,
                SpineStep::Mixed(g, args) => write!(f, "g{}[{:?}](", g.name.index(), args)?,
            }
        }
        match end {
            FTerm::Zero => write!(f, "0")?,
            FTerm::Var(v) => write!(f, "v{}", v.index())?,
            _ => unreachable!(),
        }
        for _ in &steps {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl FTerm {
    /// Decomposes the term into its spine steps (outermost first) and its
    /// end (`Zero` or `Var`). The workhorse behind the iterative traversals.
    pub fn decompose(&self) -> (Vec<SpineStep>, &FTerm) {
        let mut steps = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                FTerm::Zero | FTerm::Var(_) => return (steps, cur),
                FTerm::Pure(f, t) => {
                    steps.push(SpineStep::Pure(*f));
                    cur = t;
                }
                FTerm::Mixed(g, t, args) => {
                    steps.push(SpineStep::Mixed(*g, args.clone()));
                    cur = t;
                }
            }
        }
    }

    /// Rebuilds a term by applying `steps` (innermost application first) to
    /// `end`.
    pub fn rebuild(end: FTerm, steps: impl Iterator<Item = SpineStep>) -> FTerm {
        let mut t = end;
        for s in steps {
            t = match s {
                SpineStep::Pure(f) => FTerm::Pure(f, Box::new(t)),
                SpineStep::Mixed(g, args) => FTerm::Mixed(g, Box::new(t), args),
            };
        }
        t
    }

    /// The end of the spine: `Zero` or a variable.
    pub fn spine_end(&self) -> &FTerm {
        let mut cur = self;
        loop {
            match cur {
                FTerm::Zero | FTerm::Var(_) => return cur,
                FTerm::Pure(_, t) | FTerm::Mixed(_, t, _) => cur = t,
            }
        }
    }

    /// Depth: number of function applications along the spine.
    pub fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        loop {
            match cur {
                FTerm::Zero | FTerm::Var(_) => return n,
                FTerm::Pure(_, t) | FTerm::Mixed(_, t, _) => {
                    n += 1;
                    cur = t;
                }
            }
        }
    }

    /// The functional variable at the spine's end, if any.
    pub fn spine_var(&self) -> Option<Var> {
        match self.spine_end() {
            FTerm::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether the term contains no variables at all (spine or mixed args).
    pub fn is_ground(&self) -> bool {
        let mut cur = self;
        loop {
            match cur {
                FTerm::Zero => return true,
                FTerm::Var(_) => return false,
                FTerm::Pure(_, t) => cur = t,
                FTerm::Mixed(_, t, args) => {
                    if !args.iter().all(|a| a.as_const().is_some()) {
                        return false;
                    }
                    cur = t;
                }
            }
        }
    }

    /// Whether the term uses only pure symbols (and `0`/a variable).
    pub fn is_pure(&self) -> bool {
        let mut cur = self;
        loop {
            match cur {
                FTerm::Zero | FTerm::Var(_) => return true,
                FTerm::Pure(_, t) => cur = t,
                FTerm::Mixed(..) => return false,
            }
        }
    }

    /// For a ground pure term, its root-to-leaf symbol path (innermost
    /// application first), suitable for `fundb_term::TermTree::intern_path`.
    pub fn pure_path(&self) -> Option<Vec<Func>> {
        let mut path = Vec::with_capacity(self.depth());
        let mut cur = self;
        loop {
            match cur {
                FTerm::Zero => {
                    path.reverse();
                    return Some(path);
                }
                FTerm::Var(_) | FTerm::Mixed(..) => return None,
                FTerm::Pure(f, t) => {
                    path.push(*f);
                    cur = t;
                }
            }
        }
    }

    /// Builds a ground pure term from a symbol path (innermost first).
    pub fn from_path(path: &[Func]) -> FTerm {
        let mut t = FTerm::Zero;
        for &f in path {
            t = FTerm::Pure(f, Box::new(t));
        }
        t
    }

    /// Visits every non-functional term in mixed argument positions,
    /// outermost application first.
    pub fn visit_nterms(&self, f: &mut impl FnMut(&NTerm)) {
        let mut cur = self;
        loop {
            match cur {
                FTerm::Zero | FTerm::Var(_) => return,
                FTerm::Pure(_, t) => cur = t,
                FTerm::Mixed(_, t, args) => {
                    for a in args {
                        f(a);
                    }
                    cur = t;
                }
            }
        }
    }

    /// Substitutes non-functional variables in mixed argument positions.
    pub fn subst_nvars(&self, map: &FxHashMap<Var, Cst>) -> FTerm {
        let (steps, end) = self.decompose();
        let end = match end {
            FTerm::Zero => FTerm::Zero,
            FTerm::Var(v) => FTerm::Var(*v),
            _ => unreachable!("decompose ends at Zero or Var"),
        };
        FTerm::rebuild(
            end,
            steps.into_iter().rev().map(|s| match s {
                SpineStep::Pure(f) => SpineStep::Pure(f),
                SpineStep::Mixed(g, args) => SpineStep::Mixed(
                    g,
                    args.into_iter()
                        .map(|a| match a {
                            NTerm::Var(v) => map
                                .get(&v)
                                .map(|&c| NTerm::Const(c))
                                .unwrap_or(NTerm::Var(v)),
                            NTerm::Const(c) => NTerm::Const(c),
                        })
                        .collect(),
                ),
            }),
        )
    }
}

/// An atom: functional (`P(v, x̄)`) or relational (`R(x̄)`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Atom {
    /// `P(v, x̄)` with functional term `v` in the fixed first position.
    Functional {
        /// Predicate symbol.
        pred: Pred,
        /// The functional term in the fixed position.
        fterm: FTerm,
        /// Non-functional arguments.
        args: Vec<NTerm>,
    },
    /// `R(x̄)` over non-functional terms only.
    Relational {
        /// Predicate symbol.
        pred: Pred,
        /// Arguments.
        args: Vec<NTerm>,
    },
}

impl Atom {
    /// The predicate symbol.
    pub fn pred(&self) -> Pred {
        match self {
            Atom::Functional { pred, .. } | Atom::Relational { pred, .. } => *pred,
        }
    }

    /// The non-functional arguments.
    pub fn args(&self) -> &[NTerm] {
        match self {
            Atom::Functional { args, .. } | Atom::Relational { args, .. } => args,
        }
    }

    /// The functional term, if this atom is functional.
    pub fn fterm(&self) -> Option<&FTerm> {
        match self {
            Atom::Functional { fterm, .. } => Some(fterm),
            Atom::Relational { .. } => None,
        }
    }

    /// The functional variable of the atom's spine, if any.
    pub fn spine_var(&self) -> Option<Var> {
        self.fterm().and_then(FTerm::spine_var)
    }

    /// All non-functional variables (argument positions and mixed-symbol
    /// argument positions).
    pub fn nvars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for a in self.args() {
            if let NTerm::Var(v) = a {
                out.push(*v);
            }
        }
        if let Some(ft) = self.fterm() {
            ft.visit_nterms(&mut |n| {
                if let NTerm::Var(v) = n {
                    out.push(*v);
                }
            });
        }
        out
    }

    /// Whether the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.args().iter().all(|a| a.as_const().is_some())
            && self.fterm().is_none_or(FTerm::is_ground)
    }

    /// Substitutes non-functional variables.
    pub fn subst_nvars(&self, map: &FxHashMap<Var, Cst>) -> Atom {
        let sub_args = |args: &[NTerm]| {
            args.iter()
                .map(|a| match a {
                    NTerm::Var(v) => map
                        .get(v)
                        .map(|&c| NTerm::Const(c))
                        .unwrap_or(NTerm::Var(*v)),
                    NTerm::Const(c) => NTerm::Const(*c),
                })
                .collect::<Vec<_>>()
        };
        match self {
            Atom::Functional { pred, fterm, args } => Atom::Functional {
                pred: *pred,
                fterm: fterm.subst_nvars(map),
                args: sub_args(args),
            },
            Atom::Relational { pred, args } => Atom::Relational {
                pred: *pred,
                args: sub_args(args),
            },
        }
    }
}

/// A Horn rule `body₁, …, bodyₙ → head`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Head atom.
    pub head: Atom,
    /// Body atoms (a conjunction; may be empty for a ground fact rule).
    pub body: Vec<Atom>,
}

impl Rule {
    /// Convenience constructor.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        Rule { head, body }
    }

    /// All functional (spine) variables of the rule, deduplicated in order
    /// of first occurrence.
    pub fn functional_vars(&self) -> Vec<Var> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for atom in std::iter::once(&self.head).chain(&self.body) {
            if let Some(v) = atom.spine_var() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Whether the rule is *normal* (§2.4): at most one functional variable
    /// and every non-ground functional term of depth ≤ 1.
    pub fn is_normal(&self) -> bool {
        if self.functional_vars().len() > 1 {
            return false;
        }
        std::iter::once(&self.head)
            .chain(&self.body)
            .all(|a| a.fterm().is_none_or(|ft| ft.is_ground() || ft.depth() <= 1))
    }
}

/// A database: ground facts (functional and relational tuples).
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Database {
    /// Ground atoms.
    pub facts: Vec<Atom>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fact, verifying groundness.
    pub fn insert(&mut self, fact: Atom, interner: &Interner) -> Result<()> {
        if !fact.is_ground() {
            return Err(Error::NonGroundFact {
                fact: display_atom(&fact, interner).to_string(),
            });
        }
        self.facts.push(fact);
        Ok(())
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

/// A set of functional rules.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Program {
    /// The rules.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Whether every rule is normal (§2.4).
    pub fn is_normal(&self) -> bool {
        self.rules.iter().all(Rule::is_normal)
    }
}

/// Signature of a predicate: kind (functional or relational) and the number
/// of non-functional arguments.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PredSig {
    /// Whether the predicate carries a functional first argument.
    pub functional: bool,
    /// Number of non-functional arguments (excludes the functional
    /// position).
    pub extra: usize,
}

/// Schema extracted from a program plus database: predicate signatures,
/// function symbols, constants, and the parameter `c` (§2.5).
#[derive(Clone, Default, Debug)]
pub struct Schema {
    /// Predicate signatures.
    pub sigs: FxHashMap<Pred, PredSig>,
    /// Pure function symbols, in first-occurrence order (this order defines
    /// the precedence ordering of §3.4).
    pub pure_syms: Vec<Func>,
    /// Mixed function symbols in first-occurrence order.
    pub mixed_syms: Vec<MixedSym>,
    /// Non-functional constants in first-occurrence order.
    pub constants: Vec<Cst>,
    /// Depth of the largest ground functional term in rules and database
    /// (`c` in §2.5; 0 if none).
    pub max_ground_depth: usize,
}

impl Schema {
    /// Validates `program` and `db` against the restrictions of §2.1 and
    /// §2.3 and builds the schema:
    ///
    /// * consistent predicate signatures,
    /// * disjoint functional / non-functional variable sorts,
    /// * range-restrictedness of every rule (domain independence, §2.3).
    pub fn infer(program: &Program, db: &Database, interner: &Interner) -> Result<Schema> {
        let mut schema = Schema::default();
        let mut fvars: FxHashSet<Var> = FxHashSet::default();
        let mut nvars: FxHashSet<Var> = FxHashSet::default();
        let mut seen_pure: FxHashSet<Func> = FxHashSet::default();
        let mut seen_mixed: FxHashSet<MixedSym> = FxHashSet::default();
        let mut seen_const: FxHashSet<Cst> = FxHashSet::default();

        let visit_atom = |schema: &mut Schema,
                          fvars: &mut FxHashSet<Var>,
                          nvars: &mut FxHashSet<Var>,
                          seen_pure: &mut FxHashSet<Func>,
                          seen_mixed: &mut FxHashSet<MixedSym>,
                          seen_const: &mut FxHashSet<Cst>,
                          atom: &Atom|
         -> Result<()> {
            let sig = PredSig {
                functional: atom.fterm().is_some(),
                extra: atom.args().len(),
            };
            match schema.sigs.get(&atom.pred()) {
                None => {
                    schema.sigs.insert(atom.pred(), sig);
                }
                Some(prev) if *prev != sig => {
                    return Err(Error::InconsistentPredicate {
                        pred: interner.resolve(atom.pred().sym()).to_string(),
                        detail: format!(
                            "previously used as {} with {} non-functional argument(s), \
                             now as {} with {}",
                            kind_name(prev.functional),
                            prev.extra,
                            kind_name(sig.functional),
                            sig.extra
                        ),
                    });
                }
                Some(_) => {}
            }
            // Record terms.
            for a in atom.args() {
                match a {
                    NTerm::Var(v) => {
                        nvars.insert(*v);
                    }
                    NTerm::Const(c) => {
                        if seen_const.insert(*c) {
                            schema.constants.push(*c);
                        }
                    }
                }
            }
            if let Some(ft) = atom.fterm() {
                record_fterm(schema, fvars, seen_pure, seen_mixed, seen_const, nvars, ft);
                if ft.is_ground() {
                    schema.max_ground_depth = schema.max_ground_depth.max(ft.depth());
                }
            }
            Ok(())
        };

        for rule in &program.rules {
            for atom in std::iter::once(&rule.head).chain(&rule.body) {
                visit_atom(
                    &mut schema,
                    &mut fvars,
                    &mut nvars,
                    &mut seen_pure,
                    &mut seen_mixed,
                    &mut seen_const,
                    atom,
                )?;
            }
        }
        for fact in &db.facts {
            visit_atom(
                &mut schema,
                &mut fvars,
                &mut nvars,
                &mut seen_pure,
                &mut seen_mixed,
                &mut seen_const,
                fact,
            )?;
        }

        // Disjoint variable sorts (§2.1).
        if let Some(v) = fvars.intersection(&nvars).next() {
            return Err(Error::MixedVariableSorts {
                var: interner.resolve(v.sym()).to_string(),
            });
        }

        // Range-restrictedness = domain independence (§2.3).
        for rule in &program.rules {
            crate::domaincheck::check_rule(rule, interner)?;
        }

        Ok(schema)
    }

    /// The signature of `p`; panics if `p` is unknown to the schema.
    pub fn sig(&self, p: Pred) -> PredSig {
        self.sigs[&p]
    }

    /// Whether `p` is a non-functional predicate of the schema.
    pub fn is_relational(&self, p: Pred) -> bool {
        self.sigs.get(&p).is_some_and(|sig| !sig.functional)
    }

    /// Number of predicates (`s` in §2.5).
    pub fn pred_count(&self) -> usize {
        self.sigs.len()
    }
}

fn record_fterm(
    schema: &mut Schema,
    fvars: &mut FxHashSet<Var>,
    seen_pure: &mut FxHashSet<Func>,
    seen_mixed: &mut FxHashSet<MixedSym>,
    seen_const: &mut FxHashSet<Cst>,
    nvars: &mut FxHashSet<Var>,
    ft: &FTerm,
) {
    let mut cur = ft;
    loop {
        match cur {
            FTerm::Zero => return,
            FTerm::Var(v) => {
                fvars.insert(*v);
                return;
            }
            FTerm::Pure(f, t) => {
                if seen_pure.insert(*f) {
                    schema.pure_syms.push(*f);
                }
                cur = t;
            }
            FTerm::Mixed(g, t, args) => {
                if seen_mixed.insert(*g) {
                    schema.mixed_syms.push(*g);
                }
                for a in args {
                    match a {
                        NTerm::Var(v) => {
                            nvars.insert(*v);
                        }
                        NTerm::Const(c) => {
                            if seen_const.insert(*c) {
                                schema.constants.push(*c);
                            }
                        }
                    }
                }
                cur = t;
            }
        }
    }
}

fn kind_name(functional: bool) -> &'static str {
    if functional {
        "functional"
    } else {
        "relational"
    }
}

// ---------------------------------------------------------------------------
// Display helpers
// ---------------------------------------------------------------------------

fn fmt_fterm(ft: &FTerm, i: &Interner, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    // Iterative renderer. Runs of the temporal successor symbol `+1` are
    // printed as the concrete syntax's postfix sugar (`t+2`, `7`), other
    // applications as prefix `f(…)`; a closer stack keeps it single-pass
    // even for million-deep terms.
    let (steps, end) = ft.decompose();
    let is_plus = |s: &SpineStep| matches!(s, SpineStep::Pure(sym) if i.resolve(sym.sym()) == "+1");

    // Pure number: all steps are +1 over 0.
    if matches!(end, FTerm::Zero) && !steps.is_empty() && steps.iter().all(is_plus) {
        return write!(f, "{}", steps.len());
    }

    let mut closers: Vec<String> = Vec::new();
    let mut idx = 0;
    while idx < steps.len() {
        let run = steps[idx..].iter().take_while(|s| is_plus(s)).count();
        if run > 0 {
            closers.push(format!("+{run}"));
            idx += run;
            continue;
        }
        match &steps[idx] {
            SpineStep::Pure(sym) => {
                write!(f, "{}(", i.resolve(sym.sym()))?;
                closers.push(")".to_string());
            }
            SpineStep::Mixed(g, args) => {
                write!(f, "{}(", i.resolve(g.name))?;
                let mut closer = String::new();
                for a in args {
                    closer.push(',');
                    match a {
                        NTerm::Var(v) => closer.push_str(i.resolve(v.sym())),
                        NTerm::Const(c) => closer.push_str(i.resolve(c.sym())),
                    }
                }
                closer.push(')');
                closers.push(closer);
            }
        }
        idx += 1;
    }
    match end {
        FTerm::Zero => write!(f, "0")?,
        FTerm::Var(v) => write!(f, "{}", i.resolve(v.sym()))?,
        _ => unreachable!("decompose ends at Zero or Var"),
    }
    while let Some(c) = closers.pop() {
        write!(f, "{c}")?;
    }
    Ok(())
}

fn fmt_nterm(n: &NTerm, i: &Interner, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match n {
        NTerm::Var(v) => write!(f, "{}", i.resolve(v.sym())),
        NTerm::Const(c) => write!(f, "{}", i.resolve(c.sym())),
    }
}

/// Renders an atom.
pub fn display_atom<'a>(atom: &'a Atom, interner: &'a Interner) -> impl fmt::Display + 'a {
    struct D<'a>(&'a Atom, &'a Interner);
    impl fmt::Display for D<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let i = self.1;
            write!(f, "{}(", i.resolve(self.0.pred().sym()))?;
            let mut first = true;
            if let Some(ft) = self.0.fterm() {
                fmt_fterm(ft, i, f)?;
                first = false;
            }
            for a in self.0.args() {
                if !first {
                    write!(f, ",")?;
                }
                first = false;
                fmt_nterm(a, i, f)?;
            }
            write!(f, ")")
        }
    }
    D(atom, interner)
}

/// Renders a rule as `body -> head.`
pub fn display_rule<'a>(rule: &'a Rule, interner: &'a Interner) -> impl fmt::Display + 'a {
    struct D<'a>(&'a Rule, &'a Interner);
    impl fmt::Display for D<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for (i, b) in self.0.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", display_atom(b, self.1))?;
            }
            if !self.0.body.is_empty() {
                write!(f, " -> ")?;
            }
            write!(f, "{}.", display_atom(&self.0.head, self.1))
        }
    }
    D(rule, interner)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fx {
        i: Interner,
        meets: Pred,
        next: Pred,
        t: Var,
        x: Var,
        y: Var,
        tony: Cst,
        jan: Cst,
        succ: Func,
    }

    fn fx() -> Fx {
        let mut i = Interner::new();
        Fx {
            meets: Pred(i.intern("Meets")),
            next: Pred(i.intern("Next")),
            t: Var(i.intern("t")),
            x: Var(i.intern("x")),
            y: Var(i.intern("y")),
            tony: Cst(i.intern("tony")),
            jan: Cst(i.intern("jan")),
            succ: Func(i.intern("succ")),
            i,
        }
    }

    /// The paper's introductory rule:
    /// `Meets(t,x), Next(x,y) -> Meets(t+1,y)`.
    fn meets_rule(fx: &Fx) -> Rule {
        Rule::new(
            Atom::Functional {
                pred: fx.meets,
                fterm: FTerm::Pure(fx.succ, Box::new(FTerm::Var(fx.t))),
                args: vec![NTerm::Var(fx.y)],
            },
            vec![
                Atom::Functional {
                    pred: fx.meets,
                    fterm: FTerm::Var(fx.t),
                    args: vec![NTerm::Var(fx.x)],
                },
                Atom::Relational {
                    pred: fx.next,
                    args: vec![NTerm::Var(fx.x), NTerm::Var(fx.y)],
                },
            ],
        )
    }

    fn meets_db(fx: &Fx) -> Database {
        Database {
            facts: vec![
                Atom::Functional {
                    pred: fx.meets,
                    fterm: FTerm::Zero,
                    args: vec![NTerm::Const(fx.tony)],
                },
                Atom::Relational {
                    pred: fx.next,
                    args: vec![NTerm::Const(fx.tony), NTerm::Const(fx.jan)],
                },
                Atom::Relational {
                    pred: fx.next,
                    args: vec![NTerm::Const(fx.jan), NTerm::Const(fx.tony)],
                },
            ],
        }
    }

    #[test]
    fn depth_and_spine() {
        let fx = fx();
        let t = FTerm::Pure(
            fx.succ,
            Box::new(FTerm::Pure(fx.succ, Box::new(FTerm::Var(fx.t)))),
        );
        assert_eq!(t.depth(), 2);
        assert_eq!(t.spine_var(), Some(fx.t));
        assert!(!t.is_ground());
        assert!(t.is_pure());
    }

    #[test]
    fn pure_path_round_trips() {
        let fx = fx();
        let t = FTerm::from_path(&[fx.succ, fx.succ]);
        assert_eq!(t.pure_path().unwrap(), vec![fx.succ, fx.succ]);
        assert!(t.is_ground());
        let v = FTerm::Pure(fx.succ, Box::new(FTerm::Var(fx.t)));
        assert!(v.pure_path().is_none());
    }

    #[test]
    fn schema_infers_meets_example() {
        let fx = fx();
        let mut p = Program::new();
        p.push(meets_rule(&fx));
        let db = meets_db(&fx);
        let schema = Schema::infer(&p, &db, &fx.i).unwrap();
        assert_eq!(schema.pred_count(), 2);
        assert!(schema.sig(fx.meets).functional);
        assert_eq!(schema.sig(fx.meets).extra, 1);
        assert!(!schema.sig(fx.next).functional);
        assert_eq!(schema.pure_syms, vec![fx.succ]);
        assert_eq!(schema.constants, vec![fx.tony, fx.jan]);
        assert_eq!(schema.max_ground_depth, 0);
    }

    #[test]
    fn inconsistent_predicate_rejected() {
        let fx = fx();
        let mut p = Program::new();
        p.push(meets_rule(&fx));
        // Next used as functional elsewhere.
        p.push(Rule::new(
            Atom::Functional {
                pred: fx.next,
                fterm: FTerm::Var(fx.t),
                args: vec![],
            },
            vec![Atom::Functional {
                pred: fx.meets,
                fterm: FTerm::Var(fx.t),
                args: vec![NTerm::Var(fx.x)],
            }],
        ));
        let err = Schema::infer(&p, &Database::new(), &fx.i).unwrap_err();
        assert!(matches!(err, Error::InconsistentPredicate { .. }));
    }

    #[test]
    fn mixed_variable_sorts_rejected() {
        let fx = fx();
        let mut p = Program::new();
        // Meets(x, x): x used as both spine variable and argument.
        p.push(Rule::new(
            Atom::Functional {
                pred: fx.meets,
                fterm: FTerm::Var(fx.x),
                args: vec![NTerm::Var(fx.x)],
            },
            vec![Atom::Functional {
                pred: fx.meets,
                fterm: FTerm::Var(fx.x),
                args: vec![NTerm::Var(fx.x)],
            }],
        ));
        let err = Schema::infer(&p, &Database::new(), &fx.i).unwrap_err();
        assert!(matches!(err, Error::MixedVariableSorts { .. }));
    }

    #[test]
    fn range_restriction_enforced() {
        let fx = fx();
        let mut p = Program::new();
        // P(s) with s not in the body: domain-dependent (§2.3 example).
        p.push(Rule::new(
            Atom::Functional {
                pred: fx.meets,
                fterm: FTerm::Var(fx.t),
                args: vec![NTerm::Const(fx.tony)],
            },
            vec![Atom::Relational {
                pred: fx.next,
                args: vec![NTerm::Const(fx.tony), NTerm::Const(fx.jan)],
            }],
        ));
        let err = Schema::infer(&p, &Database::new(), &fx.i).unwrap_err();
        assert!(matches!(err, Error::NotRangeRestricted { .. }));
    }

    #[test]
    fn non_ground_fact_rejected() {
        let fx = fx();
        let mut db = Database::new();
        let err = db
            .insert(
                Atom::Relational {
                    pred: fx.next,
                    args: vec![NTerm::Var(fx.x), NTerm::Const(fx.jan)],
                },
                &fx.i,
            )
            .unwrap_err();
        assert!(matches!(err, Error::NonGroundFact { .. }));
    }

    #[test]
    fn rule_normality() {
        let fx = fx();
        let r = meets_rule(&fx);
        assert!(r.is_normal());
        // Depth-2 head term: not normal.
        let deep = Rule::new(
            Atom::Functional {
                pred: fx.meets,
                fterm: FTerm::Pure(
                    fx.succ,
                    Box::new(FTerm::Pure(fx.succ, Box::new(FTerm::Var(fx.t)))),
                ),
                args: vec![NTerm::Var(fx.x)],
            },
            vec![Atom::Functional {
                pred: fx.meets,
                fterm: FTerm::Var(fx.t),
                args: vec![NTerm::Var(fx.x)],
            }],
        );
        assert!(!deep.is_normal());
    }

    #[test]
    fn display_round_trip_shapes() {
        let fx = fx();
        let r = meets_rule(&fx);
        let s = display_rule(&r, &fx.i).to_string();
        assert_eq!(s, "Meets(t,x), Next(x,y) -> Meets(succ(t),y).");
    }

    #[test]
    fn ground_depth_recorded() {
        let fx = fx();
        let mut db = Database::new();
        db.insert(
            Atom::Functional {
                pred: fx.meets,
                fterm: FTerm::from_path(&[fx.succ, fx.succ, fx.succ]),
                args: vec![NTerm::Const(fx.tony)],
            },
            &fx.i,
        )
        .unwrap();
        let schema = Schema::infer(&Program::new(), &db, &fx.i).unwrap();
        assert_eq!(schema.max_ground_depth, 3);
    }
}
