//! One-stop facade over the whole pipeline.
//!
//! [`Workspace`] owns an interner, a program, a database and the persistent
//! elaboration state, and exposes the full paper pipeline as one-line
//! methods:
//!
//! ```
//! use fundb_parser::Workspace;
//!
//! let mut ws = Workspace::new();
//! ws.parse(
//!     "Meets(t, x), Next(x, y) -> Meets(t+1, y).
//!      Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
//! ).unwrap();
//! let spec = ws.graph_spec().unwrap();
//! assert!(ws.holds(&spec, "Meets(4, Tony)").unwrap());
//! assert!(!ws.holds(&spec, "Meets(4, Jan)").unwrap());
//! ```

use crate::elaborate::Elaborator;
use crate::syntax::{parse_source, PStatement};
use fundb_core::error::{Error, Result};
use fundb_core::spec_io::pure_path_with_map;
use fundb_core::{
    normalize, to_pure, CompiledProgram, Database, Engine, EqSpec, FTerm, Governor, GraphSpec,
    Program, Query,
};
use fundb_term::{Cst, Func, FxHashMap, Interner, MixedSym};

/// A functional deductive database under construction, with the pipeline
/// attached.
pub struct Workspace {
    /// Symbol interner (shared by everything the workspace builds).
    pub interner: Interner,
    /// The accumulated rules.
    pub program: Program,
    /// The accumulated ground facts.
    pub db: Database,
    /// Queries collected from `?-` statements.
    pub queries: Vec<Query>,
    elaborator: Elaborator,
    /// Mixed→pure symbol instantiations from the last `engine()` /
    /// `graph_spec()` build, used to translate ground mixed terms in later
    /// membership checks.
    sym_map: FxHashMap<(MixedSym, Box<[Cst]>), Func>,
    /// Execution governor installed into every engine this workspace builds
    /// (unlimited by default).
    governor: Governor,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace {
            interner: Interner::new(),
            program: Program::new(),
            db: Database::new(),
            queries: Vec::new(),
            elaborator: Elaborator::new(),
            sym_map: FxHashMap::default(),
            governor: Governor::default(),
        }
    }

    /// Installs an execution governor; every engine built afterwards runs
    /// under its budgets, cancellation token and fault plan.
    pub fn set_governor(&mut self, governor: Governor) {
        self.governor = governor;
    }

    /// The currently installed governor.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Parses a source fragment (rules, facts, declarations, queries) and
    /// appends it. Can be called multiple times.
    pub fn parse(&mut self, src: &str) -> Result<()> {
        let stmts = parse_source(src)?;
        self.elaborator.absorb(&stmts);
        self.elaborator.elaborate(
            &stmts,
            &mut self.interner,
            &mut self.program,
            &mut self.db,
            &mut self.queries,
        )
    }

    /// Builds a solved engine (validate → normalize → pure → compile →
    /// solve).
    pub fn engine(&mut self) -> Result<Engine> {
        let normal = normalize(&self.program, &mut self.interner);
        let pure = to_pure(&normal, &self.db, &mut self.interner)?;
        self.sym_map = pure.sym_map.clone();
        let cp = CompiledProgram::compile(&pure, &mut self.interner)?;
        let mut engine = Engine::new(cp);
        engine.set_governor(self.governor.clone());
        engine.solve()?;
        Ok(engine)
    }

    /// Builds the graph specification (Algorithm Q).
    pub fn graph_spec(&mut self) -> Result<GraphSpec> {
        let mut engine = self.engine()?;
        GraphSpec::from_engine(&mut engine)
    }

    /// Builds a serializable bundle: the graph specification plus the
    /// mixed→pure symbol map (see `fundb_core::spec_io`).
    pub fn spec_bundle(&mut self) -> Result<fundb_core::SpecBundle> {
        let spec = self.graph_spec()?;
        Ok(fundb_core::SpecBundle {
            spec,
            sym_map: self.sym_map.clone(),
        })
    }

    /// Builds the equational specification (§3.5).
    pub fn eq_spec(&mut self) -> Result<EqSpec> {
        Ok(EqSpec::from_graph(&self.graph_spec()?))
    }

    /// Parses a single query (without the `?-`).
    pub fn parse_query(&mut self, src: &str) -> Result<Query> {
        let stmts = parse_source(&format!("?- {src}."))?;
        self.elaborator.absorb(&stmts);
        let PStatement::Query(body) = &stmts[0] else {
            return Err(Error::UnsupportedQuery {
                detail: "expected a query body".into(),
            });
        };
        self.elaborator.query(body, &mut self.interner)
    }

    /// Checks one ground fact, written in concrete syntax, against a graph
    /// specification.
    pub fn holds(&mut self, spec: &GraphSpec, fact: &str) -> Result<bool> {
        let (pred, fterm, args) = self.parse_fact(fact)?;
        match fterm {
            Some(ft) => {
                let Some(path) = pure_path_with_map(&ft, &self.sym_map) else {
                    return Ok(false);
                };
                Ok(spec.holds(pred, &path, &args))
            }
            None => Ok(spec.holds_relational(pred, &args)),
        }
    }

    /// Checks one ground fact against an equational specification.
    pub fn holds_eq(&mut self, eq: &mut EqSpec, fact: &str) -> Result<bool> {
        let (pred, fterm, args) = self.parse_fact(fact)?;
        match fterm {
            Some(ft) => {
                let Some(path) = pure_path_with_map(&ft, &self.sym_map) else {
                    return Ok(false);
                };
                Ok(eq.holds(pred, &path, &args))
            }
            None => Ok(eq.holds_relational(pred, &args)),
        }
    }

    /// Parses one ground fact written in concrete syntax (no trailing `.`)
    /// into its predicate, optional functional term, and constant
    /// arguments — the shape `:retract` needs to address a base fact.
    pub fn parse_fact(
        &mut self,
        fact: &str,
    ) -> Result<(fundb_term::Pred, Option<FTerm>, Vec<Cst>)> {
        let stmts = parse_source(&format!("{fact}."))?;
        let [PStatement::Rule(rule)] = &stmts[..] else {
            return Err(Error::Parse {
                offset: 0,
                detail: "expected a single ground atom".into(),
            });
        };
        if !rule.body.is_empty() {
            return Err(Error::Parse {
                offset: 0,
                detail: "expected a fact, not a rule".into(),
            });
        }
        let atom = self.elaborator.atom(&rule.head, &mut self.interner)?;
        let args: Option<Vec<Cst>> = atom.args().iter().map(|a| a.as_const()).collect();
        let (Some(args), true) = (args, atom.is_ground()) else {
            return Err(Error::NonGroundFact { fact: fact.into() });
        };
        Ok((atom.pred(), atom.fterm().cloned(), args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meets_end_to_end() {
        let mut ws = Workspace::new();
        ws.parse(
            "Meets(t, x), Next(x, y) -> Meets(t+1, y).
             Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
        )
        .unwrap();
        let spec = ws.graph_spec().unwrap();
        assert!(ws.holds(&spec, "Meets(0, Tony)").unwrap());
        assert!(ws.holds(&spec, "Meets(4, Tony)").unwrap());
        assert!(ws.holds(&spec, "Meets(7, Jan)").unwrap());
        assert!(!ws.holds(&spec, "Meets(7, Tony)").unwrap());
        assert!(ws.holds(&spec, "Next(Tony, Jan)").unwrap());
        assert!(!ws.holds(&spec, "Next(Jan, Jan)").unwrap());
    }

    #[test]
    fn lists_example_end_to_end() {
        // §3.4's list-membership example, including mixed ground terms in
        // membership checks.
        let mut ws = Workspace::new();
        ws.parse(
            "P(x) -> Member(ext(0, x), x).
             P(y), Member(s, x) -> Member(ext(s, y), y).
             P(y), Member(s, x) -> Member(ext(s, y), x).
             P(A). P(B).",
        )
        .unwrap();
        let spec = ws.graph_spec().unwrap();
        assert!(ws.holds(&spec, "Member(ext(0, A), A)").unwrap());
        assert!(!ws.holds(&spec, "Member(ext(0, A), B)").unwrap());
        assert!(ws.holds(&spec, "Member(ext(ext(0, A), B), A)").unwrap());
        assert!(ws.holds(&spec, "Member(ext(ext(0, A), B), B)").unwrap());
        assert!(ws
            .holds(&spec, "Member(ext(ext(ext(0, B), A), B), A)")
            .unwrap());
        // An instantiation over an unknown constant is simply false.
        assert!(!ws.holds(&spec, "Member(ext(0, C), C)").unwrap());
    }

    #[test]
    fn eq_spec_round_trip() {
        let mut ws = Workspace::new();
        ws.parse("Even(t) -> Even(t+2).\nEven(0).").unwrap();
        let mut eq = ws.eq_spec().unwrap();
        assert!(ws.holds_eq(&mut eq, "Even(4)").unwrap());
        assert!(!ws.holds_eq(&mut eq, "Even(3)").unwrap());
        assert!(ws.holds_eq(&mut eq, "Even(100)").unwrap());
    }

    #[test]
    fn queries_parse_and_answer() {
        let mut ws = Workspace::new();
        ws.parse(
            "Meets(t, x), Next(x, y) -> Meets(t+1, y).
             Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).",
        )
        .unwrap();
        let spec = ws.graph_spec().unwrap();
        let q = ws.parse_query("Meets(t, x)").unwrap();
        assert!(q.is_uniform());
        let ans = q.answer_incremental(&spec, &ws.interner).unwrap();
        assert!(ans.size() >= 2);
    }

    #[test]
    fn incremental_parse_keeps_kinds() {
        let mut ws = Workspace::new();
        ws.parse("Meets(0, Tony).").unwrap();
        // Second fragment uses Meets with a variable first arg — still
        // functional thanks to the persistent elaborator.
        ws.parse("Meets(t, x) -> Meets(t+1, x).").unwrap();
        let spec = ws.graph_spec().unwrap();
        assert!(ws.holds(&spec, "Meets(9, Tony)").unwrap());
    }

    #[test]
    fn oversized_numerals_are_parse_errors() {
        // Each successor step is one boxed node: these inputs once
        // allocated until the process aborted.
        for src in [
            "P(99999999999999).",
            "N0(t) -> B0(t+19999999999999).\nN0(0).\n",
            "P(0+1048576+1).",
        ] {
            let err = Workspace::new().parse(src).unwrap_err();
            assert!(matches!(err, Error::Parse { .. }), "{src}: {err}");
            assert!(err.to_string().contains("too deep"), "{src}: {err}");
        }
        let mut ws = Workspace::new();
        ws.parse("Even(t) -> Even(t+2).\nEven(0).").unwrap();
        let spec = ws.graph_spec().unwrap();
        let err = ws.holds(&spec, "Even(99999999999999)").unwrap_err();
        assert!(err.to_string().contains("too deep"), "{err}");
        assert!(ws.holds(&spec, "Even(1048576)").unwrap());
    }

    #[test]
    fn non_ground_membership_is_rejected() {
        let mut ws = Workspace::new();
        ws.parse("Even(0).").unwrap();
        let spec = ws.graph_spec().unwrap();
        assert!(ws.holds(&spec, "Even(x)").is_err());
    }
}
