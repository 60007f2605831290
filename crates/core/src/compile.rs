//! Compilation of normal programs into star-local Datalog.
//!
//! After normalization (Appendix) and the mixed→pure transformation (§2.4),
//! every rule mentions at most one functional variable `s`, and every
//! functional term in it is `s`, `f(s)` for a pure symbol `f`, a mixed
//! child `g(s, x̄)`, or a ground pure term. Grounding `s := t` therefore
//! touches only the "star" of the node `t` in the term tree — `t` itself,
//! its children, a fixed set of ground nodes, and the non-functional store.
//! The engine exploits this by evaluating each rule as a *function-free
//! Datalog rule* over location-tagged predicates:
//!
//! * `P@here(κ, ā)` — `P(ā)` in the slice of the node of context `κ`,
//! * `P@+f(κ, ā)`   — `P(ā)` in the slice of that node's child `f(t)`,
//! * `P@+g(κ, c̄, ā)` — `P(ā)` in the slice of the child `g[c̄](t)`, the
//!   instance of the mixed symbol `g` at the constants `c̄` (§2.4),
//! * `P@=term(ā)`   — `P(ā)` in the slice of a fixed ground node (depth ≤ c),
//! * plain `R(ā)`   — a non-functional predicate.
//!
//! A mixed child is *lifted*: its arguments `x̄` become the columns after
//! the context, so `At(s, p1), Connected(p1, p2) -> At(move(s, p1, p2), p2)`
//! compiles to the one rule `At@+move(κ, p1, p2, p2) :- At@here(κ, p1),
//! Connected(p1, p2)` where the enumeration of §2.4 has one rule per pair
//! of constants. One relation holds the slices of all of `g`'s instances,
//! and `CompiledProgram::child_loc` and `CompiledProgram::instance`
//! translate between an instance symbol `g[c̄]` and its columns. No rule
//! needs an active-domain relation for the columns: range-restrictedness
//! (§2.3) puts every variable of a head's mixed child in a body atom, and
//! the enumeration of §2.4 ranges over exactly the constants those atoms
//! can bind.
//!
//! The leading *context column* `κ` names the star a row belongs to (a
//! top-region node or a uniform seed; see [`crate::Engine`]). Every
//! `@here`/`@+f` atom of a rule carries the same context variable there,
//! so one database holds the stars of all contexts side by side, a rule
//! instance never mixes two of them, and the fixed-node and relational
//! rows, which carry no context, are stored once and read by every star.
//!
//! [`CompiledProgram`] holds the tagged rules in one plan (*star rules*,
//! which contain the functional variable and fire at every context, then
//! *fixed rules*, which mention only ground nodes and fire once), the
//! database seeds, and the tag maps the engine uses to assemble and read
//! back evaluations.

use crate::error::Result;
use crate::gendb::DataParams;
use crate::program::{Atom, FTerm, NTerm, Schema};
use crate::pure::PureProgram;
use fundb_datalog as dl;
use fundb_term::{
    Cst, Func, FuncOrder, FxHashMap, FxHashSet, Interner, MixedSym, NodeId, Pred, Sym, TermTree,
    Var,
};

/// The variable of the context column. Its index lies past any interned
/// symbol, so it cannot meet a variable of the program.
const CTX_VAR: Var = Var(Sym::PLACEHOLDER);

/// The scope relation `@scope(κ)`: one row per context, read by every star
/// rule of a scoped program (see [`CompiledProgram::scoped`]). Its index
/// lies past any interned symbol, so it cannot meet a predicate of the
/// program.
pub(crate) const SCOPE: Pred = Pred(Sym::PLACEHOLDER);

/// The context-column value of context `id`. Context ids only ever meet
/// other context ids, so they may share indexes with interned constants.
pub(crate) fn ctx_cst(id: usize) -> Cst {
    Cst(Sym::synthetic(
        u32::try_from(id).expect("context id overflow"),
    ))
}

/// Where a functional atom lives relative to the node a rule fires at.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Loc {
    /// At the node itself (`s`).
    Here,
    /// At the child `f(s)` for a pure symbol `f` of the program.
    Child(Func),
    /// At a child `g[c̄](s)` of the mixed symbol `g`, whose constants `c̄`
    /// lead the row after the context column.
    Mixed(MixedSym),
    /// At a fixed ground node of the top region.
    Fixed(NodeId),
}

/// A compiled pure normal program, ready for the engine.
#[derive(Clone)]
pub struct CompiledProgram {
    /// Schema of the pure program.
    pub schema: Schema,
    /// Data-complexity parameters (§2.5).
    pub params: DataParams,
    /// The order of pure function symbols (defines `≺`, §3.4).
    pub funcs: FuncOrder,
    /// `c`: depth of the largest ground functional term.
    pub c: usize,
    /// Term tree holding the ground nodes mentioned by rules and facts.
    pub tree: TermTree,
    rules: Vec<dl::Rule>,
    plan: dl::DeltaPlan,
    /// How many of [`Self::rules`] are star rules.
    star_count: usize,
    /// Whether the star rules end in the scope atom.
    scoped: bool,
    /// Functional database facts: `(node, P, ā)`.
    pub seeds: Vec<(NodeId, Pred, Box<[Cst]>)>,
    /// Relational database facts.
    pub nf_facts: Vec<(Pred, Box<[Cst]>)>,
    tags: FxHashMap<(Pred, Loc), Pred>,
    untag: FxHashMap<Pred, (Pred, Loc)>,
    /// The instances of the lifted mixed symbols: `(g, c̄) → g[c̄]`, and
    /// back.
    instances: FxHashMap<MixedSym, FxHashMap<Box<[Cst]>, Func>>,
    origin: FxHashMap<Func, (MixedSym, Box<[Cst]>)>,
}

impl CompiledProgram {
    /// Compiles a pure normal program. Tag names are interned into
    /// `interner` (they contain `@`, which the concrete syntax forbids, so
    /// they cannot collide with user predicates).
    pub fn compile(pure: &PureProgram, interner: &mut Interner) -> Result<CompiledProgram> {
        assert!(
            pure.program.is_normal(),
            "CompiledProgram::compile requires a normal program; run normalize() first"
        );
        let schema = pure.schema.clone();
        let params = DataParams::of(&schema);
        let funcs = FuncOrder::new(schema.pure_syms.iter().copied());
        let c = schema.max_ground_depth;

        let mut cp = CompiledProgram {
            schema,
            params,
            funcs,
            c,
            tree: TermTree::new(),
            rules: Vec::new(),
            plan: dl::DeltaPlan::default(),
            star_count: 0,
            scoped: false,
            seeds: Vec::new(),
            nf_facts: Vec::new(),
            tags: FxHashMap::default(),
            untag: FxHashMap::default(),
            instances: FxHashMap::default(),
            origin: FxHashMap::default(),
        };

        let mut fixed_rules = Vec::new();
        for rule in &pure.program.rules {
            let has_fvar = !rule.functional_vars().is_empty();
            let head = cp.compile_atom(&rule.head, interner);
            let body = rule
                .body
                .iter()
                .map(|a| cp.compile_atom(a, interner))
                .collect();
            let compiled = dl::Rule::new(head, body);
            if has_fvar {
                cp.rules.push(compiled);
            } else {
                fixed_rules.push(compiled);
            }
        }
        cp.star_count = cp.rules.len();
        let ctx_atoms = cp
            .rules
            .iter()
            .flat_map(|r| &r.body)
            .filter(|a| a.args.first() == Some(&dl::Term::Var(CTX_VAR)))
            .count();
        cp.scoped = cp.star_count > 0 && ctx_atoms >= 2 * cp.star_count;
        if cp.scoped {
            for rule in &mut cp.rules {
                rule.body
                    .push(dl::Atom::new(SCOPE, vec![dl::Term::Var(CTX_VAR)]));
            }
        }
        cp.rules.extend(fixed_rules);
        cp.plan = dl::DeltaPlan::new(&cp.rules);
        let lifted: FxHashSet<MixedSym> = cp
            .tags
            .keys()
            .filter_map(|&(_, loc)| match loc {
                Loc::Mixed(g) => Some(g),
                _ => None,
            })
            .collect();
        for ((g, args), &f) in &pure.sym_map {
            if lifted.contains(g) {
                cp.instances.entry(*g).or_default().insert(args.clone(), f);
                cp.origin.insert(f, (*g, args.clone()));
            }
        }

        // Invariant: `to_pure` has already rejected non-ground facts and
        // instantiated mixed symbols, so every fact below has a pure
        // functional path and constant-only arguments.
        for fact in &pure.db.facts {
            match fact {
                Atom::Functional { pred, fterm, args } => {
                    let path = fterm
                        .pure_path()
                        .expect("facts are ground and pure after to_pure()");
                    let node = cp.tree.intern_path(&path);
                    let consts: Box<[Cst]> = args
                        .iter()
                        .map(|a| a.as_const().expect("facts are ground"))
                        .collect();
                    cp.seeds.push((node, *pred, consts));
                }
                Atom::Relational { pred, args } => {
                    let consts: Box<[Cst]> = args
                        .iter()
                        .map(|a| a.as_const().expect("facts are ground"))
                        .collect();
                    cp.nf_facts.push((*pred, consts));
                }
            }
        }

        Ok(cp)
    }

    /// The tagged rules: the star rules, then the fixed rules.
    pub(crate) fn rules(&self) -> &[dl::Rule] {
        &self.rules
    }

    /// Predicate → (rule, body position) index over [`Self::rules`]: the
    /// positions a semi-naive delta of that predicate can feed.
    pub(crate) fn plan(&self) -> &dl::DeltaPlan {
        &self.plan
    }

    /// Tagged rules containing the functional variable: fire at every
    /// context, which their `@here`/`@+f` atoms carry in their first
    /// column.
    pub fn star_rules(&self) -> &[dl::Rule] {
        &self.rules[..self.star_count]
    }

    /// Tagged rules with no functional variable: fire once, over fixed
    /// nodes and non-functional predicates.
    pub fn fixed_rules(&self) -> &[dl::Rule] {
        &self.rules[self.star_count..]
    }

    /// Whether every star rule ends in the atom [`SCOPE`]`(κ)`: chosen when
    /// the star rules read two or more context atoms on average. A fresh
    /// context's rows then feed a semi-naive round once per context atom
    /// they match, while its scope row, the one new row of a run whose
    /// other rows are marked processed, fires each star rule there once
    /// (see [`crate::engine`]).
    pub(crate) fn scoped(&self) -> bool {
        self.scoped
    }

    /// The tagged predicate for `P` at a location, if the program mentions
    /// that combination.
    pub fn tag_of(&self, pred: Pred, loc: Loc) -> Option<Pred> {
        self.tags.get(&(pred, loc)).copied()
    }

    /// Inverse of the tag maps: `(original predicate, location)` for a
    /// tagged predicate, or `None` for a plain (relational) predicate.
    pub fn untag(&self, tagged: Pred) -> Option<(Pred, Loc)> {
        self.untag.get(&tagged).copied()
    }

    /// The location of the child `f(s)` and the constants that lead its
    /// rows there: `(Mixed(g), c̄)` for an instance `f = g[c̄]` of a lifted
    /// mixed symbol, `(Child(f), [])` otherwise.
    pub(crate) fn child_loc(&self, f: Func) -> (Loc, &[Cst]) {
        match self.origin.get(&f) {
            Some((g, args)) => (Loc::Mixed(*g), args),
            None => (Loc::Child(f), &[]),
        }
    }

    /// Splits the columns after the context of a `Loc::Mixed(g)` row into
    /// the child they name, the instance `g[c̄]` of its leading constants
    /// `c̄`, and the predicate's arguments.
    pub(crate) fn instance<'r>(&self, g: MixedSym, cols: &'r [Cst]) -> (Func, &'r [Cst]) {
        let (lead, args) = cols.split_at(usize::from(g.extra_args));
        let f = self
            .instances
            .get(&g)
            .and_then(|inst| inst.get(lead))
            .expect("the enumeration of §2.4 covers every tuple a lifted rule derives");
        (*f, args)
    }

    /// Renders a tagged rule as `head :- body.`, the context variable as
    /// `κ` and the scope relation as `@scope`.
    pub fn display_rule(&self, rule: &dl::Rule, interner: &Interner) -> String {
        let atom = |a: &dl::Atom| {
            let pred = if a.pred == SCOPE {
                "@scope"
            } else {
                interner.resolve(a.pred.sym())
            };
            let args: Vec<&str> = a
                .args
                .iter()
                .map(|t| match t {
                    dl::Term::Var(v) if *v == CTX_VAR => "κ",
                    dl::Term::Var(v) => interner.resolve(v.sym()),
                    dl::Term::Const(c) => interner.resolve(c.sym()),
                })
                .collect();
            format!("{pred}({})", args.join(","))
        };
        let body: Vec<String> = rule.body.iter().map(atom).collect();
        format!("{} :- {}.", atom(&rule.head), body.join(", "))
    }

    /// All `(pred, node, tag)` fixed-location tags (ground nodes mentioned
    /// in rules).
    pub fn fixed_tags(&self) -> impl Iterator<Item = (Pred, NodeId, Pred)> + '_ {
        self.tags.iter().filter_map(|(&(p, loc), &t)| match loc {
            Loc::Fixed(n) => Some((p, n, t)),
            _ => None,
        })
    }

    fn compile_atom(&mut self, atom: &Atom, interner: &mut Interner) -> dl::Atom {
        let (pred, ctx, columns): (Pred, bool, &[NTerm]) = match atom {
            Atom::Relational { pred, .. } => (*pred, false, &[]),
            Atom::Functional { pred, fterm, .. } => {
                let (loc, columns): (Loc, &[NTerm]) = match fterm {
                    FTerm::Var(_) => (Loc::Here, &[]),
                    FTerm::Pure(f, inner) if matches!(**inner, FTerm::Var(_)) => {
                        (Loc::Child(*f), &[])
                    }
                    FTerm::Mixed(g, inner, args) if matches!(**inner, FTerm::Var(_)) => {
                        (Loc::Mixed(*g), args)
                    }
                    other => {
                        let path = other.pure_path().unwrap_or_else(|| {
                            panic!("non-normal functional term survived normalization")
                        });
                        (Loc::Fixed(self.tree.intern_path(&path)), &[])
                    }
                };
                (
                    self.tag(*pred, loc, interner),
                    !matches!(loc, Loc::Fixed(_)),
                    columns,
                )
            }
        };
        let args = ctx
            .then_some(dl::Term::Var(CTX_VAR))
            .into_iter()
            .chain(columns.iter().chain(atom.args()).map(|a| match a {
                NTerm::Var(v) => dl::Term::Var(*v),
                NTerm::Const(c) => dl::Term::Const(*c),
            }))
            .collect();
        dl::Atom::new(pred, args)
    }

    fn tag(&mut self, pred: Pred, loc: Loc, interner: &mut Interner) -> Pred {
        if let Some(t) = self.tag_of(pred, loc) {
            return t;
        }
        let p = interner.resolve(pred.sym());
        let name = match loc {
            Loc::Here => format!("{p}@here"),
            Loc::Child(f) => format!("{p}@+{}", interner.resolve(f.sym())),
            Loc::Mixed(g) => format!("{p}@+{}", interner.resolve(g.name)),
            // The node index is stable within this compilation.
            Loc::Fixed(n) => format!("{p}@={}", n.index()),
        };
        let t = Pred(interner.fresh(&name));
        self.tags.insert((pred, loc), t);
        self.untag.insert(t, (pred, loc));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Database, Program, Rule};
    use crate::pure::to_pure;
    use fundb_term::Var;

    /// Compiles `P(s) → P(f(s))` with a seed `P(0)`.
    fn simple() -> (Interner, CompiledProgram, Pred, Func) {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let f = Func(i.intern("f"));
        let s = Var(i.intern("s"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Functional {
                pred: p,
                fterm: FTerm::Pure(f, Box::new(FTerm::Var(s))),
                args: vec![],
            },
            vec![Atom::Functional {
                pred: p,
                fterm: FTerm::Var(s),
                args: vec![],
            }],
        ));
        let mut db = Database::new();
        db.facts.push(Atom::Functional {
            pred: p,
            fterm: FTerm::Zero,
            args: vec![],
        });
        let pure = to_pure(&prog, &db, &mut i).unwrap();
        let cp = CompiledProgram::compile(&pure, &mut i).unwrap();
        (i, cp, p, f)
    }

    #[test]
    fn star_rule_gets_here_and_child_tags() {
        let (_, cp, p, f) = simple();
        assert_eq!(cp.star_rules().len(), 1);
        assert!(cp.fixed_rules().is_empty());
        let here = cp.tag_of(p, Loc::Here).unwrap();
        let child = cp.tag_of(p, Loc::Child(f)).unwrap();
        assert_eq!(cp.untag(here), Some((p, Loc::Here)));
        assert_eq!(cp.untag(child), Some((p, Loc::Child(f))));
        let rule = &cp.star_rules()[0];
        assert_eq!(rule.head.pred, child);
        assert_eq!(rule.body[0].pred, here);
        // Both atoms lead with the shared context variable. One context
        // atom per rule leaves the program unscoped.
        let ctx = dl::Term::Var(CTX_VAR);
        assert_eq!(rule.head.args, [ctx]);
        assert_eq!(rule.body, [dl::Atom::new(here, vec![ctx])]);
        assert!(!cp.scoped());
    }

    #[test]
    fn seeds_are_collected_at_nodes() {
        let (_, cp, p, _) = simple();
        assert_eq!(cp.seeds.len(), 1);
        let (node, pred, args) = &cp.seeds[0];
        assert_eq!(*node, cp.tree.root());
        assert_eq!(*pred, p);
        assert!(args.is_empty());
        assert_eq!(cp.c, 0);
    }

    #[test]
    fn ground_terms_become_fixed_tags() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let f = Func(i.intern("f"));
        let s = Var(i.intern("s"));
        // P(f(0)), Q(s) → Q(f(s)).
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Functional {
                pred: q,
                fterm: FTerm::Pure(f, Box::new(FTerm::Var(s))),
                args: vec![],
            },
            vec![
                Atom::Functional {
                    pred: p,
                    fterm: FTerm::from_path(&[f]),
                    args: vec![],
                },
                Atom::Functional {
                    pred: q,
                    fterm: FTerm::Var(s),
                    args: vec![],
                },
            ],
        ));
        let pure = to_pure(&prog, &Database::new(), &mut i).unwrap();
        let cp = CompiledProgram::compile(&pure, &mut i).unwrap();
        assert_eq!(cp.c, 1);
        let fixed: Vec<_> = cp.fixed_tags().collect();
        assert_eq!(fixed.len(), 1);
        assert_eq!(fixed[0].0, p);
        // A fixed-node atom carries no context column.
        let rule = &cp.star_rules()[0];
        assert_eq!(rule.body[0].pred, fixed[0].2);
        assert!(rule.body[0].args.is_empty());
    }

    /// `At(s, p1), Connected(p1, p2) -> At(move(s, p1, p2), p2)` over a
    /// 3-ring: one star rule whose head leads with `move`'s arguments, and
    /// the nine instances `move[Pi,Pj]` of §2.4 map to and from their
    /// columns.
    #[test]
    fn mixed_children_compile_lifted() {
        let mut i = Interner::new();
        let (at, conn) = (Pred(i.intern("At")), Pred(i.intern("Connected")));
        let mv = MixedSym {
            name: i.intern("move"),
            extra_args: 2,
        };
        let (s, p1, p2) = (Var(i.intern("s")), Var(i.intern("p1")), Var(i.intern("p2")));
        let ps: Vec<Cst> = (0..3).map(|k| Cst(i.intern(&format!("P{k}")))).collect();
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Functional {
                pred: at,
                fterm: FTerm::Mixed(
                    mv,
                    Box::new(FTerm::Var(s)),
                    vec![NTerm::Var(p1), NTerm::Var(p2)],
                ),
                args: vec![NTerm::Var(p2)],
            },
            vec![
                Atom::Functional {
                    pred: at,
                    fterm: FTerm::Var(s),
                    args: vec![NTerm::Var(p1)],
                },
                Atom::Relational {
                    pred: conn,
                    args: vec![NTerm::Var(p1), NTerm::Var(p2)],
                },
            ],
        ));
        let mut db = Database::new();
        for k in 0..3 {
            db.facts.push(Atom::Relational {
                pred: conn,
                args: vec![NTerm::Const(ps[k]), NTerm::Const(ps[(k + 1) % 3])],
            });
        }
        let pure = to_pure(&prog, &db, &mut i).unwrap();
        let cp = CompiledProgram::compile(&pure, &mut i).unwrap();
        assert_eq!(cp.funcs.len(), 9);
        assert_eq!(cp.star_rules().len(), 1);
        assert_eq!(
            cp.display_rule(&cp.star_rules()[0], &i),
            "At@+move(κ,p1,p2,p2) :- At@here(κ,p1), Connected(p1,p2)."
        );
        for (&(g, ref args), &f) in &pure.sym_map {
            assert_eq!(cp.child_loc(f), (Loc::Mixed(g), &args[..]));
            assert_eq!(
                cp.instance(g, &[&args[..], &[ps[0]]].concat()),
                (f, &[ps[0]][..])
            );
        }
    }

    #[test]
    fn relational_rules_stay_plain() {
        let mut i = Interner::new();
        let r = Pred(i.intern("R"));
        let t = Pred(i.intern("T"));
        let x = Var(i.intern("x"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Relational {
                pred: t,
                args: vec![NTerm::Var(x)],
            },
            vec![Atom::Relational {
                pred: r,
                args: vec![NTerm::Var(x)],
            }],
        ));
        let pure = to_pure(&prog, &Database::new(), &mut i).unwrap();
        let cp = CompiledProgram::compile(&pure, &mut i).unwrap();
        assert_eq!(cp.fixed_rules().len(), 1);
        assert!(cp.untag(cp.fixed_rules()[0].head.pred).is_none());
    }
}
