//! Shared helpers for the cross-crate integration tests: a seeded random
//! program generator used by the differential suites.
//!
//! Different test targets use different subsets of the helpers.
#![allow(dead_code)]

use fundb_core::program::{Atom, Database, FTerm, NTerm, Program, Rule};
use fundb_term::{Cst, Func, Interner, Pred, Var};
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
    /// functional heads at offset 2 (`f(f(s))`), and relational heads
    /// (`R(x)` or `R(C)`) over functional bodies, so the relational store
    /// grows while the line is being computed.
    pub temporal_shapes: bool,
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
            } else {
                FTerm::Pure(
                    funcs[rng.gen_range(0..funcs.len())],
                    Box::new(FTerm::Var(s)),
                )
            };
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
        let head = if cfg.temporal_shapes && rng.gen_bool(0.25) {
            let arg = if rng.gen_bool(0.5) {
                NTerm::Var(x)
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
                head_ft = FTerm::Pure(funcs[rng.gen_range(0..funcs.len())], Box::new(head_ft));
            }
            fat(preds[rng.gen_range(0..preds.len())], head_ft, NTerm::Var(x))
        };
        program.push(Rule::new(head, body));
    }

    let mut db = Database::new();
    for _ in 0..cfg.facts {
        let depth = rng.gen_range(0..=1usize);
        let mut ft = FTerm::Zero;
        for _ in 0..depth {
            ft = FTerm::Pure(funcs[rng.gen_range(0..funcs.len())], Box::new(ft));
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
