//! The mixed→pure function symbol transformation (§2.4).
//!
//! "Take a term `g(s, z̄)` and a vector `ā` of non-functional constants
//! appearing in the database or in the rules. … Create a new unary function
//! symbol `f_ā` and a new instance of every rule `r` in Z where `g(s, z̄)` is
//! replaced by `f_ā(s)` and the occurrences of elements of `z̄` in `r` by the
//! corresponding elements of `ā`." (§2.4)
//!
//! For domain-independent rule sets this transformation is faithful: the
//! number and arity of predicates do not change, the number of new rules is
//! polynomial in the database size, and normality is preserved. The paper's
//! §3.4 list example shows it in action: `ext(s, x)` over `P(a), P(b)`
//! becomes the two unary symbols `exta` and `extb`.
//!
//! [`to_pure`] keeps the paper's symbols and grounds only what must be
//! ground:
//!
//! * **Symbols.** Every instance `g[ā]` of every mixed application is
//!   enumerated, in the order the rule-by-rule enumeration meets it, and
//!   interned under that name. The pure symbols, their order (which defines
//!   `≺`, §3.4), the schema of the enumerated program and hence the
//!   parameters of §2.5 are those of the paper's construction.
//! * **Ground mixed terms.** A mixed application inside a ground term, such
//!   as `ext(0, x)` in §3.4, names a fixed node of depth ≤ `c`: its
//!   variables are enumerated and the node becomes a ground pure term.
//! * **Mixed children.** A mixed child `g(s, x̄)` of the functional
//!   variable is not grounded. The rule keeps it, and the compiler gives it
//!   one location whose leading columns hold `x̄` (see [`crate::compile`]),
//!   so a rule that the enumeration would copy once per `ā` compiles once.
//!   The copies themselves (`PureProgram::enumerated_rules`) are built
//!   only for the naive oracle.

use crate::error::Result;
use crate::program::{Atom, Database, FTerm, NTerm, PredSig, Program, Rule, Schema};
use fundb_term::{Cst, Func, FxHashMap, FxHashSet, Interner, MixedSym, Var};

/// A normal program whose mixed children `g(s, x̄)` are still to be read
/// through their instances, with the pure symbols of §2.4 and the
/// bookkeeping of which symbol instantiates which mixed application.
#[derive(Clone, Debug)]
pub struct PureProgram {
    /// The rules: mixed applications inside ground terms are instantiated,
    /// mixed children `g(s, x̄)` of the functional variable are kept.
    pub program: Program,
    /// The transformed database: every fact is ground and pure.
    pub db: Database,
    /// The schema of the enumerated program of §2.4: its pure symbols
    /// include every instance `g[ā]`, and no mixed symbol remains.
    pub schema: Schema,
    /// `(g, ā) → f_ā` instantiation map.
    pub sym_map: FxHashMap<(MixedSym, Box<[Cst]>), Func>,
    /// The constants the enumeration ranges over: those of the rules and
    /// database before the transformation.
    pub domain: Vec<Cst>,
}

impl PureProgram {
    /// The rules of §2.4 as the paper states them: every rule copied once
    /// per assignment of [`Self::domain`] constants to the variables of its
    /// mixed children, each child `g(s, ā)` replaced by `g[ā](s)`. The
    /// engine reads the lifted rules instead; the naive oracle
    /// ([`crate::BoundedMaterialization`]) grounds these.
    pub(crate) fn enumerated_rules(&self) -> Vec<Rule> {
        let mut rules = Vec::new();
        for rule in &self.program.rules {
            Enumeration::new(&rule.head, &rule.body, false).run(
                &self.domain,
                &mut |g, args| lookup(&self.sym_map, g, args),
                &mut |e| rules.push(e.instance()),
            );
        }
        rules
    }
}

type SymMap = FxHashMap<(MixedSym, Box<[Cst]>), Func>;

/// Applies the mixed→pure transformation to a normal program and database.
/// The `interner` receives the new unary symbol names (`g[a,b]`-style).
///
/// The transformation is database-dependent (it enumerates the constants of
/// rules ∪ database); adding constants later requires re-running it.
pub fn to_pure(program: &Program, db: &Database, interner: &mut Interner) -> Result<PureProgram> {
    let domain = Schema::infer(program, db, interner)?.constants;
    let mut sym_map = SymMap::default();
    let mut schema = SchemaOf::default();

    // Symbols: intern every instance in enumeration order, and take the
    // enumerated program's schema from its rules without building them.
    for rule in &program.rules {
        Enumeration::new(&rule.head, &rule.body, false).run(
            &domain,
            &mut |g, args| intern(&mut sym_map, g, args, interner),
            &mut |e| e.record(&mut schema),
        );
    }
    // A fact is ground: its one instance is the fact with its mixed
    // applications rewritten.
    let mut out_db = Database::new();
    for fact in &db.facts {
        Enumeration::new(fact, &[], false).run(
            &domain,
            &mut |g, args| intern(&mut sym_map, g, args, interner),
            &mut |e| {
                e.record(&mut schema);
                out_db.facts.push(e.instance().head);
            },
        );
    }

    // Rules: only the mixed applications inside ground terms are
    // enumerated.
    let mut rules = Vec::new();
    for rule in &program.rules {
        Enumeration::new(&rule.head, &rule.body, true).run(
            &domain,
            &mut |g, args| lookup(&sym_map, g, args),
            &mut |e| rules.push(e.instance()),
        );
    }

    let out = PureProgram {
        program: Program { rules },
        db: out_db,
        schema: schema.schema,
        sym_map,
        domain,
    };
    debug_assert!(out.program.is_normal() || !program.is_normal());
    Ok(out)
}

/// The instance symbol `g[ā]`, interned under that name on first use.
fn intern(sym_map: &mut SymMap, g: MixedSym, args: &[Cst], interner: &mut Interner) -> Func {
    *sym_map.entry((g, args.into())).or_insert_with(|| {
        let mut name = interner.resolve(g.name).to_string();
        name.push('[');
        for (i, c) in args.iter().enumerate() {
            if i > 0 {
                name.push(',');
            }
            name.push_str(interner.resolve(c.sym()));
        }
        name.push(']');
        Func(interner.intern(&name))
    })
}

/// The instance symbol `g[ā]` that [`to_pure`] interned.
fn lookup(sym_map: &SymMap, g: MixedSym, args: &[Cst]) -> Func {
    *sym_map
        .get(&(g, args.into()))
        .expect("to_pure interns every instance")
}

/// The schema [`Schema::infer`] gives a program, recorded atom by atom in
/// the same first-occurrence order.
#[derive(Default)]
struct SchemaOf {
    schema: Schema,
    funcs: FxHashSet<Func>,
    consts: FxHashSet<Cst>,
}

/// One step of an atom's spine, outermost first.
enum Step<'r> {
    Pure(Func),
    /// The mixed application [`Enumeration::nodes`]`[i]`.
    Node(usize),
    /// A mixed child of the functional variable left lifted.
    Kept(MixedSym, &'r [NTerm]),
}

/// A mixed application being enumerated, and its instance symbol once its
/// arguments are constants.
struct Node<'r> {
    sym: MixedSym,
    args: &'r [NTerm],
    func: Option<Func>,
}

/// The enumeration of §2.4 over one rule: every assignment of domain
/// constants to the variables of its mixed applications, met in the order
/// of the paper's rewriting. That rewriting takes the innermost mixed
/// application of the first atom that has one; if its arguments are
/// constants it replaces every mixed application whose arguments are
/// constants by its instance symbol, and otherwise it copies the rule once
/// per assignment to that application's variables (the first variable
/// varying slowest) and goes on with each copy in turn.
struct Enumeration<'r> {
    /// The rule's atoms, head first.
    atoms: Vec<&'r Atom>,
    /// Per atom, its spine outermost first.
    spines: Vec<Vec<Step<'r>>>,
    nodes: Vec<Node<'r>>,
    /// The current assignment.
    binding: Vec<(Var, Cst)>,
    args: Vec<Cst>,
}

impl<'r> Enumeration<'r> {
    /// Prepares the enumeration of the rule `body → head`. With
    /// `ground_only`, mixed applications on a spine that ends in the
    /// functional variable are kept, not enumerated.
    fn new(head: &'r Atom, body: &'r [Atom], ground_only: bool) -> Self {
        let atoms: Vec<&Atom> = std::iter::once(head).chain(body).collect();
        let mut nodes = Vec::new();
        let spines = atoms
            .iter()
            .map(|atom| {
                let mut steps = Vec::new();
                let Some(ft) = atom.fterm() else {
                    return steps;
                };
                let keep = ground_only && ft.spine_var().is_some();
                let mut cur = ft;
                loop {
                    match cur {
                        FTerm::Zero | FTerm::Var(_) => return steps,
                        FTerm::Pure(f, t) => {
                            steps.push(Step::Pure(*f));
                            cur = t;
                        }
                        FTerm::Mixed(g, t, args) => {
                            steps.push(if keep {
                                Step::Kept(*g, args)
                            } else {
                                nodes.push(Node {
                                    sym: *g,
                                    args,
                                    func: None,
                                });
                                Step::Node(nodes.len() - 1)
                            });
                            cur = t;
                        }
                    }
                }
            })
            .collect();
        Enumeration {
            atoms,
            spines,
            nodes,
            binding: Vec::new(),
            args: Vec::new(),
        }
    }

    fn value(&self, n: &NTerm) -> Option<Cst> {
        match n {
            NTerm::Const(c) => Some(*c),
            NTerm::Var(v) => self.binding.iter().find(|(w, _)| w == v).map(|&(_, c)| c),
        }
    }

    fn subst(&self, n: &NTerm) -> NTerm {
        self.value(n).map_or(*n, NTerm::Const)
    }

    /// Calls `leaf` on every instance: `sym` names the instance symbol of
    /// a mixed application with constant arguments.
    fn run(
        &mut self,
        domain: &[Cst],
        sym: &mut impl FnMut(MixedSym, &[Cst]) -> Func,
        leaf: &mut impl FnMut(&Self),
    ) {
        loop {
            // The innermost pending application of the first atom with one.
            let Some(next) = self.spines.iter().find_map(|spine| {
                spine.iter().rev().find_map(|step| match *step {
                    Step::Node(i) if self.nodes[i].func.is_none() => Some(i),
                    _ => None,
                })
            }) else {
                return leaf(self);
            };
            let mut vars: Vec<Var> = Vec::new();
            for n in self.nodes[next].args {
                if let NTerm::Var(v) = *n {
                    if self.value(n).is_none() && !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
            if vars.is_empty() {
                self.rewrite(sym);
                continue;
            }
            if domain.is_empty() {
                return;
            }
            let saved: Vec<Option<Func>> = self.nodes.iter().map(|n| n.func).collect();
            let base = self.binding.len();
            let mut digits = vec![0; vars.len()];
            loop {
                self.binding.truncate(base);
                self.binding
                    .extend(vars.iter().zip(&digits).map(|(&v, &d)| (v, domain[d])));
                self.run(domain, sym, leaf);
                for (node, &f) in self.nodes.iter_mut().zip(&saved) {
                    node.func = f;
                }
                // Next assignment; the last variable varies fastest.
                let Some(k) = digits.iter().rposition(|&d| d + 1 < domain.len()) else {
                    self.binding.truncate(base);
                    return;
                };
                digits[k] += 1;
                digits[k + 1..].fill(0);
            }
        }
    }

    /// Replaces every pending application whose arguments are constants by
    /// its instance symbol: atoms in order, innermost first.
    fn rewrite(&mut self, sym: &mut impl FnMut(MixedSym, &[Cst]) -> Func) {
        let mut args = std::mem::take(&mut self.args);
        for spine in &self.spines {
            for step in spine.iter().rev() {
                let Step::Node(i) = *step else { continue };
                let node = &self.nodes[i];
                if node.func.is_some() {
                    continue;
                }
                args.clear();
                for n in node.args {
                    match self.value(n) {
                        Some(c) => args.push(c),
                        None => break,
                    }
                }
                if args.len() == node.args.len() {
                    let f = sym(node.sym, &args);
                    self.nodes[i].func = Some(f);
                }
            }
        }
        self.args = args;
    }

    /// The current instance as a rule.
    fn instance(&self) -> Rule {
        let atom = |(atom, spine): (&&Atom, &Vec<Step>)| {
            let args = atom.args().iter().map(|n| self.subst(n)).collect();
            match atom.fterm() {
                None => Atom::Relational {
                    pred: atom.pred(),
                    args,
                },
                Some(ft) => {
                    let end = match ft.spine_var() {
                        Some(v) => FTerm::Var(v),
                        None => FTerm::Zero,
                    };
                    let fterm = spine.iter().rev().fold(end, |t, step| match *step {
                        Step::Pure(f) => FTerm::Pure(f, Box::new(t)),
                        Step::Node(i) => FTerm::Pure(
                            self.nodes[i]
                                .func
                                .expect("an instance has no pending application"),
                            Box::new(t),
                        ),
                        Step::Kept(g, args) => FTerm::Mixed(
                            g,
                            Box::new(t),
                            args.iter().map(|n| self.subst(n)).collect(),
                        ),
                    });
                    Atom::Functional {
                        pred: atom.pred(),
                        fterm,
                        args,
                    }
                }
            }
        };
        let mut atoms = self.atoms.iter().zip(&self.spines).map(atom);
        let head = atoms.next().expect("a rule has a head");
        Rule::new(head, atoms.collect())
    }

    /// Records the current instance's atoms in `schema`, as
    /// [`Schema::infer`] would visit them.
    fn record(&self, out: &mut SchemaOf) {
        let SchemaOf {
            schema,
            funcs,
            consts,
        } = out;
        for (atom, spine) in self.atoms.iter().zip(&self.spines) {
            schema.sigs.entry(atom.pred()).or_insert(PredSig {
                functional: atom.fterm().is_some(),
                extra: atom.args().len(),
            });
            for c in atom.args().iter().filter_map(|n| self.value(n)) {
                if consts.insert(c) {
                    schema.constants.push(c);
                }
            }
            for step in spine {
                let f = match *step {
                    Step::Pure(f) => f,
                    Step::Node(i) => self.nodes[i].func.expect("an instance is pure"),
                    Step::Kept(..) => unreachable!("the symbol pass keeps no application"),
                };
                if funcs.insert(f) {
                    schema.pure_syms.push(f);
                }
            }
            if atom.fterm().is_some_and(|ft| ft.spine_var().is_none()) {
                schema.max_ground_depth = schema.max_ground_depth.max(spine.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_term::Pred;

    /// Builds the paper's §3.4 list-membership example:
    ///
    /// ```text
    /// P(x) → Member(ext(0,x), x).
    /// P(y), Member(s,x) → Member(ext(s,y), y).
    /// P(y), Member(s,x) → Member(ext(s,y), x).
    /// D = { P(a), P(b) }
    /// ```
    pub(crate) fn lists_example(i: &mut Interner) -> (Program, Database) {
        let p = Pred(i.intern("P"));
        let member = Pred(i.intern("Member"));
        let ext = MixedSym {
            name: i.intern("ext"),
            extra_args: 1,
        };
        let s = Var(i.intern("s"));
        let x = Var(i.intern("x"));
        let y = Var(i.intern("y"));
        let a = Cst(i.intern("a"));
        let b = Cst(i.intern("b"));

        let pm = |v: Var| Atom::Relational {
            pred: p,
            args: vec![NTerm::Var(v)],
        };
        let member_at = |ft: FTerm, arg: NTerm| Atom::Functional {
            pred: member,
            fterm: ft,
            args: vec![arg],
        };

        let mut prog = Program::new();
        prog.push(Rule::new(
            member_at(
                FTerm::Mixed(ext, Box::new(FTerm::Zero), vec![NTerm::Var(x)]),
                NTerm::Var(x),
            ),
            vec![pm(x)],
        ));
        prog.push(Rule::new(
            member_at(
                FTerm::Mixed(ext, Box::new(FTerm::Var(s)), vec![NTerm::Var(y)]),
                NTerm::Var(y),
            ),
            vec![pm(y), member_at(FTerm::Var(s), NTerm::Var(x))],
        ));
        prog.push(Rule::new(
            member_at(
                FTerm::Mixed(ext, Box::new(FTerm::Var(s)), vec![NTerm::Var(y)]),
                NTerm::Var(x),
            ),
            vec![pm(y), member_at(FTerm::Var(s), NTerm::Var(x))],
        ));

        let mut db = Database::new();
        db.facts.push(Atom::Relational {
            pred: p,
            args: vec![NTerm::Const(a)],
        });
        db.facts.push(Atom::Relational {
            pred: p,
            args: vec![NTerm::Const(b)],
        });
        (prog, db)
    }

    #[test]
    fn lists_example_becomes_pure() {
        let mut i = Interner::new();
        let (prog, db) = lists_example(&mut i);
        let pure = to_pure(&prog, &db, &mut i).unwrap();
        // Two new symbols: ext[a] and ext[b] (the paper's exta/extb).
        assert_eq!(pure.sym_map.len(), 2);
        assert!(pure.schema.mixed_syms.is_empty());
        assert_eq!(pure.schema.pure_syms.len(), 2);
        // The ground node ext(0,x) is enumerated (x∈{a,b}); the children
        // ext(s,y) stay lifted: 2 + 1 + 1 rules.
        assert_eq!(pure.program.rules.len(), 4);
        assert!(pure.program.is_normal());
        assert!(pure.program.rules[..2]
            .iter()
            .all(|r| r.head.fterm().unwrap().is_pure()));
        assert!(pure.program.rules[2..]
            .iter()
            .all(|r| !r.head.fterm().unwrap().is_pure()));
        // The enumeration of §2.4 doubles the two lifted rules too:
        // 1×2 + 2×2 = 6 rules.
        let enumerated = pure.enumerated_rules();
        assert_eq!(enumerated.len(), 6);
        assert!(enumerated.iter().all(|r| r.head.fterm().unwrap().is_pure()));
    }

    #[test]
    fn substitution_is_applied_throughout_the_rule() {
        // P(y), Member(s,x) → Member(ext(s,y), y): after instantiating y:=a,
        // *both* occurrences of y must be a.
        let mut i = Interner::new();
        let (prog, db) = lists_example(&mut i);
        let pure = to_pure(&prog, &db, &mut i).unwrap();
        for rule in &pure.enumerated_rules() {
            // No variable may appear in a rule if it was an enumerated mixed
            // argument; here simply check: any head functional symbol f=ext[c]
            // implies the head's non-functional argument of the second rule
            // family is the constant c or a body variable x.
            if let Some(FTerm::Pure(f, _)) = rule.head.fterm() {
                let name = i.resolve(f.sym());
                assert!(name == "ext[a]" || name == "ext[b]");
            }
        }
    }

    #[test]
    fn ground_facts_with_mixed_terms_are_rewritten() {
        let mut i = Interner::new();
        let member = Pred(i.intern("Member"));
        let ext = MixedSym {
            name: i.intern("ext"),
            extra_args: 1,
        };
        let a = Cst(i.intern("a"));
        let b = Cst(i.intern("b"));
        // Member(ext(ext(0,a),b), a).
        let t = FTerm::Mixed(
            ext,
            Box::new(FTerm::Mixed(
                ext,
                Box::new(FTerm::Zero),
                vec![NTerm::Const(a)],
            )),
            vec![NTerm::Const(b)],
        );
        let mut db = Database::new();
        db.facts.push(Atom::Functional {
            pred: member,
            fterm: t,
            args: vec![NTerm::Const(a)],
        });
        let pure = to_pure(&Program::new(), &db, &mut i).unwrap();
        let ft = pure.db.facts[0].fterm().unwrap();
        assert!(ft.is_pure());
        assert_eq!(ft.depth(), 2);
        let path = ft.pure_path().unwrap();
        assert_eq!(i.resolve(path[0].sym()), "ext[a]");
        assert_eq!(i.resolve(path[1].sym()), "ext[b]");
    }

    #[test]
    fn pure_programs_pass_through_unchanged() {
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
        let before = prog.clone();
        let pure = to_pure(&prog, &Database::new(), &mut i).unwrap();
        assert_eq!(pure.program, before);
        assert!(pure.sym_map.is_empty());
    }

    /// The symbols are interned in the order of the paper's rule-by-rule
    /// rewriting, which takes the innermost mixed application of the first
    /// atom that has one: here the head's `g(s, x)` is enumerated before
    /// the constant `h(s, a)` of the body is rewritten, so `h[a]` comes
    /// between `g[a]` and `g[b]`, in the interner and in `≺`.
    #[test]
    fn symbols_are_interned_in_enumeration_order() {
        let mut i = Interner::new();
        let (p, q, r) = (
            Pred(i.intern("P")),
            Pred(i.intern("Q")),
            Pred(i.intern("R")),
        );
        let g = MixedSym {
            name: i.intern("g"),
            extra_args: 1,
        };
        let h = MixedSym {
            name: i.intern("h"),
            extra_args: 1,
        };
        let (s, x) = (Var(i.intern("s")), Var(i.intern("x")));
        let (a, b) = (Cst(i.intern("a")), Cst(i.intern("b")));
        // P(s, x), R(h(s, a)) → Q(g(s, x)), with P(0, a), P(0, b).
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Functional {
                pred: q,
                fterm: FTerm::Mixed(g, Box::new(FTerm::Var(s)), vec![NTerm::Var(x)]),
                args: vec![],
            },
            vec![
                Atom::Functional {
                    pred: p,
                    fterm: FTerm::Var(s),
                    args: vec![NTerm::Var(x)],
                },
                Atom::Functional {
                    pred: r,
                    fterm: FTerm::Mixed(h, Box::new(FTerm::Var(s)), vec![NTerm::Const(a)]),
                    args: vec![],
                },
            ],
        ));
        let mut db = Database::new();
        for c in [a, b] {
            db.facts.push(Atom::Functional {
                pred: p,
                fterm: FTerm::Zero,
                args: vec![NTerm::Const(c)],
            });
        }
        let pure = to_pure(&prog, &db, &mut i).unwrap();
        let names: Vec<&str> = pure
            .schema
            .pure_syms
            .iter()
            .map(|f| i.resolve(f.sym()))
            .collect();
        assert_eq!(names, ["g[a]", "h[a]", "g[b]"]);
        let sym = |n: &str| i.get(n).unwrap();
        assert!(sym("g[a]") < sym("h[a]") && sym("h[a]") < sym("g[b]"));
        // The rule stays one rule; its enumeration has one copy per x.
        assert_eq!(pure.program.rules, prog.rules);
        assert_eq!(pure.enumerated_rules().len(), 2);
        // The enumerated copies mention a and b in argument positions only
        // through x's instances: d counts a (from the facts) and b.
        assert_eq!(pure.schema.constants, [a, b]);
    }

    #[test]
    fn repeated_variable_in_mixed_args_instantiated_consistently() {
        // Q(s,x) → P(g(s,x,x)): the two x's must receive the same constant.
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let g = MixedSym {
            name: i.intern("g"),
            extra_args: 2,
        };
        let s = Var(i.intern("s"));
        let x = Var(i.intern("x"));
        let a = Cst(i.intern("a"));
        let b = Cst(i.intern("b"));
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Functional {
                pred: p,
                fterm: FTerm::Mixed(
                    g,
                    Box::new(FTerm::Var(s)),
                    vec![NTerm::Var(x), NTerm::Var(x)],
                ),
                args: vec![],
            },
            vec![Atom::Functional {
                pred: q,
                fterm: FTerm::Var(s),
                args: vec![NTerm::Var(x)],
            }],
        ));
        let mut db = Database::new();
        db.facts.push(Atom::Functional {
            pred: q,
            fterm: FTerm::Zero,
            args: vec![NTerm::Const(a)],
        });
        db.facts.push(Atom::Functional {
            pred: q,
            fterm: FTerm::Zero,
            args: vec![NTerm::Const(b)],
        });
        let pure = to_pure(&prog, &db, &mut i).unwrap();
        // Only diagonal instantiations g[a,a] and g[b,b].
        let names: Vec<String> = pure
            .sym_map
            .values()
            .map(|f| i.resolve(f.sym()).to_string())
            .collect();
        assert_eq!(pure.sym_map.len(), 2);
        assert!(names.contains(&"g[a,a]".to_string()));
        assert!(names.contains(&"g[b,b]".to_string()));
    }
}
