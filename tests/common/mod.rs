//! Shared helpers for the cross-crate integration tests: a seeded random
//! program generator used by the differential suites.
//!
//! Different test targets use different subsets of the helpers.
#![allow(dead_code)]

use fundb_core::program::{Atom, Database, FTerm, NTerm, Program, Rule};
use fundb_term::{Cst, Func, Interner, MixedSym, Pred, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for random functional programs.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Number of functional predicates (arity 1 + 1 non-functional arg).
    pub preds: usize,
    /// Number of pure function symbols.
    pub funcs: usize,
    /// Number of constants.
    pub consts: usize,
    /// Number of rules.
    pub rules: usize,
    /// Number of facts.
    pub facts: usize,
    /// Restrict to forward rules (no body atom deeper than the head):
    /// bounded materialization is then exact up to its depth.
    pub forward_only: bool,
    /// Also draw the rule shapes the temporal line treats specially:
    /// functional heads at offset 2 (`f(f(s))`), relational heads (`R(x)`
    /// or `R(C)`) over functional bodies, so the relational store grows
    /// while the line is being computed, and a binary relational atom
    /// `E(x, y)` or `E(y, x)` with `x` bound and `y` free that moves the
    /// head to `y`, so the line probes `E` by one column.
    pub temporal_shapes: bool,
    /// Also draw mixed function symbols (§2.1) at child positions of heads
    /// and bodies: `g(s, x)`, `g(s, C)` with a constant argument,
    /// `h(s, x, x)` with a repeated variable, `h(s, C, x)`, and
    /// `h(s, x, z)`, whose `z` no functional atom binds: the head form
    /// adds a relational `R(z)` to the body, as the ring planner's `p2`
    /// is bound only by `Connected`. Also ground mixed facts such as
    /// `P(g(0, C), C)` and body atoms at the ground mixed node `g(0, x)`,
    /// which the mixed→pure transformation enumerates.
    pub mixed: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            preds: 3,
            funcs: 2,
            consts: 2,
            rules: 4,
            facts: 3,
            forward_only: false,
            temporal_shapes: false,
            mixed: false,
        }
    }
}

/// Everything a differential test needs about a generated instance.
pub struct Generated {
    pub interner: Interner,
    pub program: Program,
    pub db: Database,
    pub preds: Vec<Pred>,
    pub rel: Pred,
    pub funcs: Vec<Func>,
    pub consts: Vec<Cst>,
}

/// Generates a random, validated (range-restricted) functional program.
pub fn random_program(cfg: GenConfig, seed: u64) -> Generated {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut interner = Interner::new();
    let preds: Vec<Pred> = (0..cfg.preds)
        .map(|i| Pred(interner.intern(&format!("P{i}"))))
        .collect();
    let rel = Pred(interner.intern("R"));
    let funcs: Vec<Func> = (0..cfg.funcs)
        .map(|i| Pred(interner.intern(&format!("f{i}"))).0)
        .map(Func)
        .collect();
    let consts: Vec<Cst> = (0..cfg.consts)
        .map(|i| Cst(interner.intern(&format!("C{i}"))))
        .collect();
    let s = Var(interner.intern("s"));
    let x = Var(interner.intern("x"));
    // Interned only under `temporal_shapes`, so other shapes keep their ids.
    let edge = cfg
        .temporal_shapes
        .then(|| (Pred(interner.intern("E")), Var(interner.intern("y"))));
    // Interned only under `mixed`, likewise.
    let mixed = cfg.mixed.then(|| Mixed {
        g: MixedSym {
            name: interner.intern("g"),
            extra_args: 1,
        },
        h: MixedSym {
            name: interner.intern("h"),
            extra_args: 2,
        },
        z: Var(interner.intern("z")),
    });

    let fat = |pred: Pred, ft: FTerm, arg: NTerm| Atom::Functional {
        pred,
        fterm: ft,
        args: vec![arg],
    };

    let mut program = Program::new();
    for _ in 0..cfg.rules {
        // Offsets: body atoms at s (0) or f(s) (1); head likewise, or at
        // f(f(s)) (2) under `temporal_shapes`.
        let head_off = if cfg.temporal_shapes {
            rng.gen_range(0..=2usize)
        } else {
            rng.gen_range(0..=1usize)
        };
        let body_len = rng.gen_range(1..=2usize);
        let mut body = Vec::new();
        let mut body_has_zero = false;
        for _ in 0..body_len {
            let off = if cfg.forward_only {
                rng.gen_range(0..=head_off)
            } else {
                rng.gen_range(0..=1usize)
            };
            if off == 0 {
                body_has_zero = true;
            }
            let ft = if off == 0 {
                FTerm::Var(s)
            } else if let Some(m) = mixed.as_ref().filter(|_| rng.gen_bool(0.5)) {
                m.child(FTerm::Var(s), x, &consts, &mut rng).0
            } else {
                FTerm::Pure(
                    funcs[rng.gen_range(0..funcs.len())],
                    Box::new(FTerm::Var(s)),
                )
            };
            body.push(fat(preds[rng.gen_range(0..preds.len())], ft, NTerm::Var(x)));
        }
        if let Some(m) = mixed.as_ref().filter(|_| rng.gen_bool(0.2)) {
            let ft = FTerm::Mixed(m.g, Box::new(FTerm::Zero), vec![NTerm::Var(x)]);
            body.push(fat(preds[rng.gen_range(0..preds.len())], ft, NTerm::Var(x)));
        }
        // Keep at least one offset-0 atom for forward rules with head 0 so
        // that head variables are bound and the "forward" reading is tight.
        if cfg.forward_only && head_off == 0 && !body_has_zero {
            body.push(fat(
                preds[rng.gen_range(0..preds.len())],
                FTerm::Var(s),
                NTerm::Var(x),
            ));
        }
        // Optionally join a relational atom.
        if rng.gen_bool(0.4) {
            body.push(Atom::Relational {
                pred: rel,
                args: vec![NTerm::Var(x)],
            });
        }
        let mut out = x;
        if let Some((e, y)) = edge.filter(|_| rng.gen_bool(0.4)) {
            let mut args = vec![NTerm::Var(x), NTerm::Var(y)];
            if rng.gen_bool(0.5) {
                args.reverse();
            }
            body.push(Atom::Relational { pred: e, args });
            out = y;
        }
        let head = if cfg.temporal_shapes && rng.gen_bool(0.25) {
            let arg = if rng.gen_bool(0.5) {
                NTerm::Var(out)
            } else {
                NTerm::Const(consts[rng.gen_range(0..consts.len())])
            };
            Atom::Relational {
                pred: rel,
                args: vec![arg],
            }
        } else {
            let mut head_ft = FTerm::Var(s);
            for _ in 0..head_off {
                head_ft = match mixed.as_ref().filter(|_| rng.gen_bool(0.5)) {
                    Some(m) => {
                        let (ft, uses_z) = m.child(head_ft, x, &consts, &mut rng);
                        if uses_z {
                            body.push(Atom::Relational {
                                pred: rel,
                                args: vec![NTerm::Var(m.z)],
                            });
                        }
                        ft
                    }
                    None => FTerm::Pure(funcs[rng.gen_range(0..funcs.len())], Box::new(head_ft)),
                };
            }
            fat(
                preds[rng.gen_range(0..preds.len())],
                head_ft,
                NTerm::Var(out),
            )
        };
        program.push(Rule::new(head, body));
    }

    let mut db = Database::new();
    for _ in 0..cfg.facts {
        let depth = rng.gen_range(0..=1usize);
        let mut ft = FTerm::Zero;
        for _ in 0..depth {
            ft = match mixed.as_ref().filter(|_| rng.gen_bool(0.3)) {
                Some(m) => {
                    let sym = if rng.gen_bool(0.5) { m.g } else { m.h };
                    let args = (0..sym.extra_args)
                        .map(|_| NTerm::Const(consts[rng.gen_range(0..consts.len())]))
                        .collect();
                    FTerm::Mixed(sym, Box::new(ft), args)
                }
                None => FTerm::Pure(funcs[rng.gen_range(0..funcs.len())], Box::new(ft)),
            };
        }
        db.facts.push(Atom::Functional {
            pred: preds[rng.gen_range(0..preds.len())],
            fterm: ft,
            args: vec![NTerm::Const(consts[rng.gen_range(0..consts.len())])],
        });
    }
    db.facts.push(Atom::Relational {
        pred: rel,
        args: vec![NTerm::Const(consts[0])],
    });
    if let Some((e, _)) = edge {
        for _ in 0..cfg.consts {
            let mut edge_const = || NTerm::Const(consts[rng.gen_range(0..consts.len())]);
            db.facts.push(Atom::Relational {
                pred: e,
                args: vec![edge_const(), edge_const()],
            });
        }
    }

    Generated {
        interner,
        program,
        db,
        preds,
        rel,
        funcs,
        consts,
    }
}

/// The mixed symbols of a [`GenConfig::mixed`] program.
struct Mixed {
    /// `g(s, ·)`: one non-functional argument.
    g: MixedSym,
    /// `h(s, ·, ·)`: two.
    h: MixedSym,
    /// The variable that only a mixed argument or a relational atom binds.
    z: Var,
}

impl Mixed {
    /// A mixed application over `inner`, and whether it mentions `z`.
    fn child(&self, inner: FTerm, x: Var, consts: &[Cst], rng: &mut StdRng) -> (FTerm, bool) {
        let c = NTerm::Const(consts[rng.gen_range(0..consts.len())]);
        let (x, z) = (NTerm::Var(x), NTerm::Var(self.z));
        let (sym, args, uses_z) = match rng.gen_range(0..5) {
            0 => (self.g, vec![x], false),
            1 => (self.g, vec![c], false),
            2 => (self.h, vec![x, x], false),
            3 => (self.h, vec![c, x], false),
            _ => (self.h, vec![x, z], true),
        };
        (FTerm::Mixed(sym, Box::new(inner), args), uses_z)
    }
}

/// All symbol paths over `funcs` of length ≤ `depth` (breadth-first).
pub fn all_paths(funcs: &[Func], depth: usize) -> Vec<Vec<Func>> {
    let mut out: Vec<Vec<Func>> = vec![vec![]];
    let mut frontier: Vec<Vec<Func>> = vec![vec![]];
    for _ in 0..depth {
        let mut next = Vec::new();
        for p in &frontier {
            for &f in funcs {
                let mut q = p.clone();
                q.push(f);
                next.push(q);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// A temporal program with a planted periodic core, from
/// [`random_lasso_program`].
pub struct LassoProgram {
    /// The parsed program, database and interner.
    pub ws: fundb_parser::Workspace,
    /// Every functional predicate with its non-functional arity.
    pub fpreds: Vec<(Pred, usize)>,
    /// Every relational predicate (all unary or binary).
    pub rels: Vec<(Pred, usize)>,
    /// Every constant of the program.
    pub consts: Vec<Cst>,
    /// The core's own period: the lasso's λ is a multiple of it.
    pub core_lambda: usize,
    /// The time point of the core's start facts: the lasso's ρ is at
    /// least this.
    pub delay: usize,
}

/// Generates a temporal program whose least fixpoint is a lasso with
/// λ ≥ 2 and ρ > 0: a rotation over `k ∈ 2..=64` constants (λ = k) or a
/// `w ∈ 1..=5`-bit binary counter (λ = 2^w), started by facts at a delay
/// `d ∈ 1..=6`. Relational noise, delayed noise facts and (in about a
/// third of the programs) a backward rule go on top; no noise rule
/// derives a core predicate, so the core's states fix the lower bounds.
pub fn random_lasso_program(seed: u64) -> LassoProgram {
    use std::fmt::Write;
    let mut rng = StdRng::seed_from_u64(seed);
    let delay = rng.gen_range(1..=6usize);
    let mut src = String::new();
    let mut fpreds: Vec<(String, usize)> = Vec::new();
    let mut rels: Vec<(String, usize)> = vec![("R".into(), 1)];
    let mut consts: Vec<String> = (0..3).map(|i| format!("C{i}")).collect();
    // The core: a rotation over `k` constants, or a `bits`-bit counter.
    let bits = if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(1..=5usize)
    };
    let core_lambda = if bits == 0 {
        let k = rng.gen_range(2..=64usize);
        src.push_str("Rot(t, x), Next(x, y) -> Rot(t+1, y).\n");
        writeln!(src, "Rot({delay}, S0).").unwrap();
        for i in 0..k {
            writeln!(src, "Next(S{i}, S{}).", (i + 1) % k).unwrap();
            consts.push(format!("S{i}"));
        }
        fpreds.push(("Rot".into(), 1));
        rels.push(("Next".into(), 2));
        k
    } else {
        // Bit i flips when bits 0..i are all set (B = set, N = clear).
        src.push_str("B0(t) -> N0(t+1).\nN0(t) -> B0(t+1).\n");
        for i in 1..bits {
            let low: Vec<String> = (0..i).map(|j| format!("B{j}(t)")).collect();
            let low = low.join(", ");
            writeln!(src, "{low}, B{i}(t) -> N{i}(t+1).").unwrap();
            writeln!(src, "{low}, N{i}(t) -> B{i}(t+1).").unwrap();
            for j in 0..i {
                writeln!(src, "N{j}(t), B{i}(t) -> B{i}(t+1).").unwrap();
                writeln!(src, "N{j}(t), N{i}(t) -> N{i}(t+1).").unwrap();
            }
        }
        for i in 0..bits {
            writeln!(src, "N{i}({delay}).").unwrap();
            fpreds.push((format!("B{i}"), 0));
            fpreds.push((format!("N{i}"), 0));
        }
        1 << bits
    };
    // An atom of the core at offset `o` (binding `x` for the rotation).
    let core = |o: &str, rng: &mut StdRng| {
        if bits == 0 {
            format!("Rot({o}, x)")
        } else {
            let bit = if rng.gen_bool(0.5) { "B" } else { "N" };
            format!("{bit}{}({o})", rng.gen_range(0..bits))
        }
    };
    // Relational noise: facts over noise and core constants.
    src.push_str("R(C0).\n");
    for _ in 0..rng.gen_range(0..3usize) {
        let c = &consts[rng.gen_range(0..consts.len())];
        writeln!(src, "R({c}).").unwrap();
    }
    // Noise rules on top of the core, and delayed noise facts.
    let mut q = false;
    if rng.gen_bool(0.7) {
        writeln!(src, "{}, R(x) -> Q(t+1, x).", core("t", &mut rng)).unwrap();
        q = true;
    }
    if rng.gen_bool(0.5) {
        let c = &consts[rng.gen_range(0..consts.len())];
        writeln!(src, "Q({}, {c}).", rng.gen_range(0..=delay)).unwrap();
        q = true;
    }
    if q && rng.gen_bool(0.5) {
        src.push_str("Q(t, x) -> Q(t+1, x).\n");
    }
    if rng.gen_bool(0.5) {
        writeln!(src, "{}, R(x) -> R2(x).", core("t", &mut rng)).unwrap();
        rels.push(("R2".into(), 1));
        if q {
            src.push_str("Q(t, x), R2(x) -> Q2(t, x).\n");
            fpreds.push(("Q2".into(), 1));
        }
    }
    if q {
        fpreds.push(("Q".into(), 1));
    }
    if rng.gen_bool(0.35) {
        writeln!(src, "{}, R(x) -> Back(t, x).", core("t+1", &mut rng)).unwrap();
        fpreds.push(("Back".into(), 1));
    }
    let mut ws = fundb_parser::Workspace::new();
    ws.parse(&src)
        .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let interner = &mut ws.interner;
    let fpreds = fpreds
        .iter()
        .map(|(p, a)| (Pred(interner.intern(p)), *a))
        .collect();
    let rels = rels
        .iter()
        .map(|(p, a)| (Pred(interner.intern(p)), *a))
        .collect();
    let consts = consts.iter().map(|c| Cst(interner.intern(c))).collect();
    LassoProgram {
        ws,
        fpreds,
        rels,
        consts,
        core_lambda,
        delay,
    }
}

/// Every tuple of `arity` constants drawn from `consts`.
pub fn tuples(consts: &[Cst], arity: usize) -> Vec<Vec<Cst>> {
    let mut out = vec![vec![]];
    for _ in 0..arity {
        out = out
            .iter()
            .flat_map(|t| {
                consts.iter().map(move |&c| {
                    let mut t = t.clone();
                    t.push(c);
                    t
                })
            })
            .collect();
    }
    out
}
