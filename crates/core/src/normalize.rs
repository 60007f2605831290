//! Rule normalization (§2.4 and the paper's Appendix).
//!
//! A rule is *normal* when it contains at most one functional variable and
//! every non-ground functional term has depth ≤ 1. "For every functional
//! rule, there is a set of normal rules (obtained through the introduction of
//! additional predicates and rules) which is equivalent to the original set
//! with respect to the original predicates." (§2.4)
//!
//! The pass applies three rewrites until every rule is normal:
//!
//! 1. **Projection** of extra functional variables: body atoms sharing a
//!    functional variable other than the head's are replaced by a fresh
//!    relational predicate holding their non-functional join variables,
//!    defined by an auxiliary rule (which is then normalized recursively).
//! 2. **Head splitting**: a head `P(outer(w), x̄)` with non-ground `w` of
//!    depth ≥ 1 becomes `body → P↑(w, ȳ)` and `P↑(u, ȳ) → P(outer(u), x̄)`,
//!    peeling one application per step — exactly the Appendix construction.
//! 3. **Body peeling**: a body atom `P(outer(w), x̄)` with non-ground deep
//!    term gets a cached *peel* predicate with the single defining rule
//!    `P(outer(u), z̄) → P▽(u, z̄')`, and the atom is replaced by
//!    `P▽(w, …)`.
//!
//! The transformation is database-independent and preserves
//! range-restrictedness, hence domain independence (§2.4).

use crate::program::{Atom, FTerm, NTerm, Program, Rule, SpineStep};
use fundb_term::{FxHashMap, FxHashSet, Interner, Pred, Var};

/// Key identifying the outermost application of a functional term.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
enum OuterKey {
    Pure(fundb_term::Func),
    Mixed(fundb_term::MixedSym),
}

/// Normalizes a program. Fresh auxiliary predicate and variable names are
/// interned into `interner`. The result is equivalent to the input with
/// respect to the input's predicates.
pub fn normalize(program: &Program, interner: &mut Interner) -> Program {
    let mut out = Program::new();
    let mut peel_cache: FxHashMap<(Pred, OuterKey), Pred> = FxHashMap::default();
    let mut up_origin: FxHashMap<Pred, Pred> = FxHashMap::default();
    let mut worklist: Vec<Rule> = program.rules.clone();
    // Deterministic processing order: FIFO.
    worklist.reverse();

    while let Some(rule) = worklist.pop() {
        if let Some(new_rules) = project_extra_fvars(&rule, interner) {
            for r in new_rules.into_iter().rev() {
                worklist.push(r);
            }
            continue;
        }
        if let Some(new_rules) = split_deep_head(&rule, interner, &mut up_origin) {
            for r in new_rules.into_iter().rev() {
                worklist.push(r);
            }
            continue;
        }
        if let Some(new_rules) = peel_deep_body(&rule, interner, &mut peel_cache) {
            for r in new_rules.into_iter().rev() {
                worklist.push(r);
            }
            continue;
        }
        debug_assert!(rule.is_normal());
        out.push(rule);
    }
    out
}

/// Non-functional variables of an atom sequence, deduplicated in order.
fn nvars_of(atoms: &[&Atom]) -> Vec<Var> {
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    for atom in atoms {
        for v in atom.nvars() {
            if seen.insert(v) {
                out.push(v);
            }
        }
    }
    out
}

/// Rewrite 1: if the rule has more than one functional variable, project one
/// non-head group away. Returns the replacement rules, or `None` if nothing
/// to do.
fn project_extra_fvars(rule: &Rule, interner: &mut Interner) -> Option<Vec<Rule>> {
    let fvars = rule.functional_vars();
    if fvars.len() <= 1 {
        return None;
    }
    let main = rule.head.spine_var();
    // Pick the first functional variable that is not the head's.
    let victim = *fvars.iter().find(|v| Some(**v) != main)?;

    let (group, rest): (Vec<&Atom>, Vec<&Atom>) = rule
        .body
        .iter()
        .partition(|a| a.spine_var() == Some(victim));
    debug_assert!(!group.is_empty(), "functional variable must occur in body");

    let join_vars = nvars_of(&group);
    let aux = Pred(interner.fresh("Proj"));
    let aux_rule = Rule::new(
        Atom::Relational {
            pred: aux,
            args: join_vars.iter().map(|&v| NTerm::Var(v)).collect(),
        },
        group.into_iter().cloned().collect(),
    );
    let mut new_body: Vec<Atom> = rest.into_iter().cloned().collect();
    new_body.push(Atom::Relational {
        pred: aux,
        args: join_vars.iter().map(|&v| NTerm::Var(v)).collect(),
    });
    Some(vec![aux_rule, Rule::new(rule.head.clone(), new_body)])
}

/// Rewrite 2: head functional term non-ground with depth ≥ 2 — peel its
/// outer applications into follow-up rules (the Appendix construction).
/// Peel `i` turns `body → P_i(t_i, ā_i)` into `body → P_{i+1}(t_{i+1},
/// c̄_i)` and `P_{i+1}(u_i, c̄_i) → P_i(outer_i(u_i), ā_i)`, where `t_{i+1}`
/// is `t_i` without its outer application `outer_i` and `c̄_i` carries the
/// variables of `ā_i` and of `outer_i`'s arguments; it repeats while
/// `t_{i+1}` is non-ground with depth ≥ 2. All peels happen in one walk
/// down the spine, so a depth-`k` head costs `O(k)`, and the rules come
/// out in the order peeling one application per pass pops them from the
/// worklist: the last `body → …` rule first, then the follow-ups from the
/// innermost peel out. The new predicates are named after the head's
/// original predicate (`up_origin` maps every minted `P↑` to its `P`), so
/// a head of depth `k` mints `PUp`, `PUp#1`, … rather than names that grow
/// with each peel.
fn split_deep_head(
    rule: &Rule,
    interner: &mut Interner,
    up_origin: &mut FxHashMap<Pred, Pred>,
) -> Option<Vec<Rule>> {
    let Atom::Functional { pred, fterm, args } = &rule.head else {
        return None;
    };
    let (steps, end) = fterm.decompose();
    // ground[i]: whether the term under the first i steps is ground.
    let mut ground = vec![matches!(end, FTerm::Zero); steps.len() + 1];
    for i in (0..steps.len()).rev() {
        ground[i] = ground[i + 1]
            && match &steps[i] {
                SpineStep::Pure(_) => true,
                SpineStep::Mixed(_, nargs) => nargs.iter().all(|n| n.as_const().is_some()),
            };
    }
    let peels = (0..steps.len())
        .take_while(|&i| !ground[i] && steps.len() - i >= 2)
        .count();
    if peels == 0 {
        return None;
    }

    let origin = up_origin.get(pred).copied().unwrap_or(*pred);
    let stem = format!("{}Up", interner_name(interner, origin));
    let mut follow_ups = Vec::with_capacity(peels);
    let (mut head_pred, mut head_args) = (*pred, args.clone());
    let mut seen = FxHashSet::default();
    for step in &steps[..peels] {
        // Variables the follow-up rule needs: head args + the outer
        // application's own non-functional args.
        let outer_nterms: &[NTerm] = match step {
            SpineStep::Pure(_) => &[],
            SpineStep::Mixed(_, nargs) => nargs,
        };
        let mut carried = Vec::new();
        seen.clear();
        for nt in head_args.iter().chain(outer_nterms) {
            if let NTerm::Var(v) = nt {
                if seen.insert(*v) {
                    carried.push(NTerm::Var(*v));
                }
            }
        }
        let up = Pred(interner.fresh(&stem));
        up_origin.insert(up, origin);
        let u = Var(interner.fresh("u@"));
        // P↑(u, carried) → P(outer(u), args)
        let u_term = Box::new(FTerm::Var(u));
        let rebuilt = match step {
            SpineStep::Pure(f) => FTerm::Pure(*f, u_term),
            SpineStep::Mixed(g, nargs) => FTerm::Mixed(*g, u_term, nargs.clone()),
        };
        follow_ups.push(Rule::new(
            Atom::Functional {
                pred: head_pred,
                fterm: rebuilt,
                args: std::mem::replace(&mut head_args, carried.clone()),
            },
            vec![Atom::Functional {
                pred: up,
                fterm: FTerm::Var(u),
                args: carried,
            }],
        ));
        head_pred = up;
    }
    // body → P↑(w, carried), with `w` the term under the peeled steps.
    let inner_end = match end {
        FTerm::Var(v) => FTerm::Var(*v),
        _ => FTerm::Zero,
    };
    let inner = FTerm::rebuild(inner_end, steps.into_iter().skip(peels).rev());
    let mut out = vec![Rule::new(
        Atom::Functional {
            pred: head_pred,
            fterm: inner,
            args: head_args,
        },
        rule.body.clone(),
    )];
    out.extend(follow_ups.into_iter().rev());
    Some(out)
}

/// Rewrite 3: some body atom has a non-ground functional term of depth ≥ 2 —
/// replace it via a cached peel predicate.
fn peel_deep_body(
    rule: &Rule,
    interner: &mut Interner,
    cache: &mut FxHashMap<(Pred, OuterKey), Pred>,
) -> Option<Vec<Rule>> {
    let idx = rule.body.iter().position(|a| {
        a.fterm()
            .is_some_and(|ft| !ft.is_ground() && ft.depth() >= 2)
    })?;
    let Atom::Functional { pred, fterm, args } = &rule.body[idx] else {
        unreachable!("position() matched a functional atom");
    };

    let (key, inner, outer_nterms) = match fterm {
        FTerm::Pure(f, t) => (OuterKey::Pure(*f), (**t).clone(), vec![]),
        FTerm::Mixed(g, t, nargs) => (OuterKey::Mixed(*g), (**t).clone(), nargs.clone()),
        FTerm::Zero | FTerm::Var(_) => unreachable!("depth ≥ 2 term has an application"),
    };

    let mut new_rules = Vec::new();
    let peel = match cache.get(&(*pred, key)) {
        Some(&p) => p,
        None => {
            let p = Pred(interner.fresh(&format!("{}Dn", interner_name(interner, *pred))));
            cache.insert((*pred, key), p);
            // Defining rule: P(outer(u), z̄) → P▽(u, ȳ z̄) with fresh
            // generic variables.
            let u = Var(interner.fresh("u@"));
            let generic = |n: usize, interner: &mut Interner| -> Vec<Var> {
                (0..n).map(|_| Var(interner.fresh("z@"))).collect()
            };
            let arg_vars = generic(args.len(), interner);
            let (body_ft, extra_vars): (FTerm, Vec<Var>) = match key {
                OuterKey::Pure(f) => (FTerm::Pure(f, Box::new(FTerm::Var(u))), vec![]),
                OuterKey::Mixed(g) => {
                    let ys = generic(outer_nterms.len(), interner);
                    (
                        FTerm::Mixed(
                            g,
                            Box::new(FTerm::Var(u)),
                            ys.iter().map(|&v| NTerm::Var(v)).collect(),
                        ),
                        ys,
                    )
                }
            };
            let mut head_args: Vec<NTerm> = extra_vars.iter().map(|&v| NTerm::Var(v)).collect();
            head_args.extend(arg_vars.iter().map(|&v| NTerm::Var(v)));
            let def = Rule::new(
                Atom::Functional {
                    pred: p,
                    fterm: FTerm::Var(u),
                    args: head_args,
                },
                vec![Atom::Functional {
                    pred: *pred,
                    fterm: body_ft,
                    args: arg_vars.iter().map(|&v| NTerm::Var(v)).collect(),
                }],
            );
            new_rules.push(def);
            p
        }
    };

    // Replace the atom: P▽(inner, outer_nterms ++ args).
    let mut new_args = outer_nterms;
    new_args.extend(args.iter().cloned());
    let mut body = rule.body.clone();
    body[idx] = Atom::Functional {
        pred: peel,
        fterm: inner,
        args: new_args,
    };
    new_rules.push(Rule::new(rule.head.clone(), body));
    Some(new_rules)
}

fn interner_name(interner: &Interner, p: Pred) -> String {
    interner.resolve(p.sym()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domaincheck;
    use crate::program::{Database, Schema};
    use fundb_term::{Func, MixedSym};

    struct Fx {
        i: Interner,
        p: Pred,
        q: Pred,
        w: Pred,
        f: Func,
        g: MixedSym,
        s: Var,
        s2: Var,
        x: Var,
    }

    fn fx() -> Fx {
        let mut i = Interner::new();
        Fx {
            p: Pred(i.intern("P")),
            q: Pred(i.intern("Q")),
            w: Pred(i.intern("W")),
            f: Func(i.intern("f")),
            g: MixedSym {
                name: i.intern("g"),
                extra_args: 1,
            },
            s: Var(i.intern("s")),
            s2: Var(i.intern("s2")),
            x: Var(i.intern("x")),
            i,
        }
    }

    fn fat(p: Pred, ft: FTerm, args: Vec<NTerm>) -> Atom {
        Atom::Functional {
            pred: p,
            fterm: ft,
            args,
        }
    }

    #[test]
    fn normal_rules_pass_through() {
        let mut fx = fx();
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(fx.p, FTerm::Pure(fx.f, Box::new(FTerm::Var(fx.s))), vec![]),
            vec![fat(fx.p, FTerm::Var(fx.s), vec![])],
        ));
        let before = prog.clone();
        let normalized = normalize(&prog, &mut fx.i);
        assert_eq!(normalized, before);
    }

    /// The Appendix example shape: `P(s), W(x) → P(g(f(s),x))` becomes a set
    /// of normal rules over fresh predicates.
    #[test]
    fn appendix_example_normalizes() {
        let mut fx = fx();
        let deep = FTerm::Mixed(
            fx.g,
            Box::new(FTerm::Pure(fx.f, Box::new(FTerm::Var(fx.s)))),
            vec![NTerm::Var(fx.x)],
        );
        let rule = Rule::new(
            fat(fx.p, deep, vec![]),
            vec![
                fat(fx.p, FTerm::Var(fx.s), vec![]),
                Atom::Relational {
                    pred: fx.w,
                    args: vec![NTerm::Var(fx.x)],
                },
            ],
        );
        let mut prog = Program::new();
        prog.push(rule);
        let normalized = normalize(&prog, &mut fx.i);
        assert!(normalized.is_normal());
        assert!(normalized.rules.len() >= 2);
        // Normalization preserves range-restrictedness (§2.4).
        domaincheck::check_program(&normalized, &fx.i).unwrap();
        // And the result passes schema validation.
        Schema::infer(&normalized, &Database::new(), &fx.i).unwrap();
    }

    #[test]
    fn deep_body_terms_are_peeled() {
        let mut fx = fx();
        // P(f(f(s))) → Q(s): a backward rule with a deep body term.
        let rule = Rule::new(
            fat(fx.q, FTerm::Var(fx.s), vec![]),
            vec![fat(
                fx.p,
                FTerm::Pure(
                    fx.f,
                    Box::new(FTerm::Pure(fx.f, Box::new(FTerm::Var(fx.s)))),
                ),
                vec![],
            )],
        );
        let mut prog = Program::new();
        prog.push(rule);
        let normalized = normalize(&prog, &mut fx.i);
        assert!(normalized.is_normal());
        domaincheck::check_program(&normalized, &fx.i).unwrap();
    }

    #[test]
    fn peel_predicates_are_cached_across_rules() {
        let mut fx = fx();
        let deep = |s: Var| FTerm::Pure(fx.f, Box::new(FTerm::Pure(fx.f, Box::new(FTerm::Var(s)))));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(fx.q, FTerm::Var(fx.s), vec![]),
            vec![fat(fx.p, deep(fx.s), vec![])],
        ));
        prog.push(Rule::new(
            fat(fx.w, FTerm::Var(fx.s), vec![]),
            vec![fat(fx.p, deep(fx.s), vec![])],
        ));
        let normalized = normalize(&prog, &mut fx.i);
        assert!(normalized.is_normal());
        // One shared peel-definition rule + two rewritten rules.
        assert_eq!(normalized.rules.len(), 3);
    }

    #[test]
    fn extra_functional_variables_are_projected() {
        let mut fx = fx();
        // P(s,x), Q(s2,x) → P(f(s),x): two functional variables.
        let rule = Rule::new(
            fat(
                fx.p,
                FTerm::Pure(fx.f, Box::new(FTerm::Var(fx.s))),
                vec![NTerm::Var(fx.x)],
            ),
            vec![
                fat(fx.p, FTerm::Var(fx.s), vec![NTerm::Var(fx.x)]),
                fat(fx.q, FTerm::Var(fx.s2), vec![NTerm::Var(fx.x)]),
            ],
        );
        let mut prog = Program::new();
        prog.push(rule);
        let normalized = normalize(&prog, &mut fx.i);
        assert!(normalized.is_normal());
        for r in &normalized.rules {
            assert!(r.functional_vars().len() <= 1);
        }
        domaincheck::check_program(&normalized, &fx.i).unwrap();
    }

    #[test]
    fn ground_deep_terms_are_left_alone() {
        let mut fx = fx();
        // Ground terms may be arbitrarily deep in normal rules (§2.4).
        let ground = FTerm::from_path(&[fx.f, fx.f, fx.f]);
        let rule = Rule::new(
            fat(fx.q, FTerm::Var(fx.s), vec![]),
            vec![
                fat(fx.p, ground, vec![]),
                fat(fx.p, FTerm::Var(fx.s), vec![]),
            ],
        );
        let mut prog = Program::new();
        prog.push(rule.clone());
        let normalized = normalize(&prog, &mut fx.i);
        assert_eq!(normalized.rules, vec![rule]);
    }

    #[test]
    fn idempotent_on_normal_programs() {
        let mut fx = fx();
        let deep = FTerm::Mixed(
            fx.g,
            Box::new(FTerm::Pure(fx.f, Box::new(FTerm::Var(fx.s)))),
            vec![NTerm::Var(fx.x)],
        );
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(fx.p, deep, vec![]),
            vec![
                fat(fx.p, FTerm::Var(fx.s), vec![]),
                Atom::Relational {
                    pred: fx.w,
                    args: vec![NTerm::Var(fx.x)],
                },
            ],
        ));
        let n1 = normalize(&prog, &mut fx.i);
        let n2 = normalize(&n1, &mut fx.i);
        assert_eq!(n1, n2);
    }

    /// A head `Q(f(f(f(s))))` is peeled twice; both new predicates are
    /// named after `Q`, not after the previous peel's predicate.
    #[test]
    fn head_splits_are_named_after_the_original_predicate() {
        let mut fx = fx();
        let deep = (0..3).fold(FTerm::Var(fx.s), |t, _| FTerm::Pure(fx.f, Box::new(t)));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(fx.q, deep, vec![]),
            vec![fat(fx.p, FTerm::Var(fx.s), vec![])],
        ));
        let normalized = normalize(&prog, &mut fx.i);
        assert!(normalized.is_normal());
        let mut heads: Vec<&str> = normalized
            .rules
            .iter()
            .map(|r| fx.i.resolve(r.head.pred().sym()))
            .collect();
        heads.sort_unstable();
        assert_eq!(heads, ["Q", "QUp", "QUp#1"]);
    }

    /// A depth-5 head with mixed steps peels into five rules in one walk:
    /// the same rules, in the same order and under the same names, as
    /// peeling one application per pass.
    #[test]
    fn deep_head_peels_in_one_walk() {
        let mut fx = fx();
        let y = Var(fx.i.intern("y"));
        let g = |t: FTerm, v: Var| FTerm::Mixed(fx.g, Box::new(t), vec![NTerm::Var(v)]);
        let f = |t: FTerm| FTerm::Pure(fx.f, Box::new(t));
        // P(s, x), W(y) → Q(f(g(f(g(f(s), y)), x)), x).
        let deep = f(g(f(g(f(FTerm::Var(fx.s)), y)), fx.x));
        let mut prog = Program::new();
        prog.push(Rule::new(
            fat(fx.q, deep, vec![NTerm::Var(fx.x)]),
            vec![
                fat(fx.p, FTerm::Var(fx.s), vec![NTerm::Var(fx.x)]),
                Atom::Relational {
                    pred: fx.w,
                    args: vec![NTerm::Var(y)],
                },
            ],
        ));
        let normalized = normalize(&prog, &mut fx.i);
        let rendered: Vec<String> = normalized
            .rules
            .iter()
            .map(|r| crate::program::display_rule(r, &fx.i).to_string())
            .collect();
        assert_eq!(
            rendered,
            [
                "P(s,x), W(y) -> QUp#3(f(s),x,y).",
                "QUp#3(u@#3,x,y) -> QUp#2(g(u@#3,y),x).",
                "QUp#2(u@#2,x) -> QUp#1(f(u@#2),x).",
                "QUp#1(u@#1,x) -> QUp(g(u@#1,x),x).",
                "QUp(u@,x) -> Q(f(u@),x).",
            ]
        );
        // The names are interned peel by peel, outermost first.
        let syms: Vec<_> = [
            "QUp", "u@", "QUp#1", "u@#1", "QUp#2", "u@#2", "QUp#3", "u@#3",
        ]
        .iter()
        .map(|n| fx.i.get(n).unwrap())
        .collect();
        assert!(syms.windows(2).all(|w| w[0] < w[1]));
    }
}
