#![warn(missing_docs)]
//! Implementation of the `fundb` command-line driver (testable as a
//! library: [`run`] takes argv and a writer).

pub mod repl;

use fundb_core::{
    analysis, read_spec, spec_io, write_spec, DataParams, IncrementalAnswer, SpecBundle,
};
use fundb_parser::{parse_source, Elaborator, Workspace};
use fundb_term::{Cst, Func, Interner};
use std::io::Write;

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
usage:
  fundb compile <program.fdb> [-o spec.fspec] [--minimize]
  fundb show    <program.fdb | spec.fspec> [--minimize]
  fundb check   <program.fdb | spec.fspec> <fact> [<fact> ...]
  fundb query   <program.fdb> \"<query body>\" [--limit N]
  fundb analyze <program.fdb | spec.fspec>
  fundb explain <program.fdb> <fact> [--depth N]
  fundb repl

Programs use the paper's syntax, e.g.
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
  Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).
Facts and queries are single atoms / conjunctions in the same syntax.";

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: print usage.
    Usage(String),
    /// Operation failed: print the message.
    Failed(String),
}

impl From<fundb_core::Error> for CliError {
    fn from(e: fundb_core::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

/// Entry point; `out` receives the normal output.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    match cmd.as_str() {
        "compile" => compile(rest, out),
        "show" => show(rest, out),
        "check" => check(rest, out),
        "query" => query(rest, out),
        "analyze" => analyze(rest, out),
        "explain" => explain(rest, out),
        "repl" => repl::run_interactive().map_err(CliError::from),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// A loaded target: either compiled from a program or read from a spec file.
struct Target {
    interner: Interner,
    bundle: SpecBundle,
    /// The workspace, when the target was a program (enables queries).
    workspace: Option<Workspace>,
}

fn load_target(path: &str, minimize: bool) -> Result<Target, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))?;
    if bytes.starts_with(&spec_io::SPEC_BIN_MAGIC) {
        let mut interner = Interner::new();
        let mut bundle = spec_io::read_spec_binary(&bytes, &mut interner)?;
        if minimize {
            bundle.spec = bundle.spec.minimized();
        }
        return Ok(Target {
            interner,
            bundle,
            workspace: None,
        });
    }
    let text = String::from_utf8(bytes)
        .map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))?;
    if text.trim_start().starts_with("fundbspec") {
        let mut interner = Interner::new();
        let mut bundle = read_spec(&text, &mut interner)?;
        if minimize {
            bundle.spec = bundle.spec.minimized();
        }
        Ok(Target {
            interner,
            bundle,
            workspace: None,
        })
    } else {
        let mut ws = Workspace::new();
        ws.parse(&text)?;
        let mut bundle = ws.spec_bundle()?;
        if minimize {
            bundle.spec = bundle.spec.minimized();
        }
        Ok(Target {
            interner: ws.interner.clone(),
            bundle,
            workspace: Some(ws),
        })
    }
}

fn split_flag<'a>(args: &'a [String], flag: &str) -> (Vec<&'a String>, bool) {
    let mut rest = Vec::new();
    let mut found = false;
    for a in args {
        if a == flag {
            found = true;
        } else {
            rest.push(a);
        }
    }
    (rest, found)
}

fn compile(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (args, minimize) = split_flag(args, "--minimize");
    let (input, output) = match args.as_slice() {
        [input] => (input.as_str(), None),
        [input, o, path] if *o == "-o" => (input.as_str(), Some(path.as_str())),
        _ => {
            return Err(CliError::Usage(
                "compile: expected <program> [-o out]".into(),
            ))
        }
    };
    let target = load_target(input, minimize)?;
    let text = write_spec(&target.bundle, &target.interner)?;
    match output {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
            writeln!(
                out,
                "wrote {} ({} clusters, {} tuples)",
                path,
                target.bundle.spec.cluster_count(),
                target.bundle.spec.primary_size()
            )?;
        }
        None => write!(out, "{text}")?,
    }
    Ok(())
}

fn show(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (args, minimize) = split_flag(args, "--minimize");
    let [input] = args.as_slice() else {
        return Err(CliError::Usage("show: expected one file".into()));
    };
    let target = load_target(input, minimize)?;
    write!(out, "{}", target.bundle.spec.render(&target.interner))?;
    writeln!(
        out,
        "clusters: {}, edges: {}, primary tuples: {}",
        target.bundle.spec.cluster_count(),
        target.bundle.spec.edge_count(),
        target.bundle.spec.primary_size()
    )?;
    Ok(())
}

fn check(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((input, facts)) = args.split_first() else {
        return Err(CliError::Usage("check: expected <file> <fact>…".into()));
    };
    if facts.is_empty() {
        return Err(CliError::Usage("check: expected at least one fact".into()));
    }
    let mut target = load_target(input, false)?;

    // Build an elaborator whose predicate kinds come from the target: the
    // workspace's when compiled from a program, or reconstructed from the
    // specification's atom vocabulary when loaded from a spec file.
    let mut elaborator = Elaborator::new();
    for (_, pred, _) in target.bundle.spec.atoms.iter() {
        elaborator.force_functional(target.interner.resolve(pred.sym()));
    }

    for fact in facts {
        let holds = check_one(&mut target, &mut elaborator, fact)?;
        writeln!(out, "{fact} -> {holds}")?;
    }
    Ok(())
}

fn check_one(
    target: &mut Target,
    elaborator: &mut Elaborator,
    fact: &str,
) -> Result<bool, CliError> {
    // Prefer the workspace's own elaboration when available (it knows
    // predicate kinds even for predicates with empty extensions).
    if let Some(ws) = target.workspace.as_mut() {
        return Ok(ws.holds(&target.bundle.spec, fact)?);
    }
    let stmts = parse_source(&format!("{fact}."))?;
    elaborator.absorb(&stmts);
    let [fundb_parser::PStatement::Rule(rule)] = &stmts[..] else {
        return Err(CliError::Failed("expected a single ground atom".into()));
    };
    let atom = elaborator.atom(&rule.head, &mut target.interner)?;
    let args: Option<Vec<Cst>> = atom.args().iter().map(|a| a.as_const()).collect();
    let (Some(args), true) = (args, atom.is_ground()) else {
        return Err(CliError::Failed(format!("fact `{fact}` is not ground")));
    };
    match atom.fterm() {
        Some(ft) => {
            let Some(path) = spec_io::pure_path_with_map(ft, &target.bundle.sym_map) else {
                return Ok(false);
            };
            Ok(target.bundle.spec.holds(atom.pred(), &path, &args))
        }
        None => Ok(target.bundle.spec.holds_relational(atom.pred(), &args)),
    }
}

fn query(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut limit = 10usize;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--limit" {
            limit = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| CliError::Usage("--limit needs a number".into()))?;
        } else {
            positional.push(a);
        }
    }
    let [input, body] = positional.as_slice() else {
        return Err(CliError::Usage(
            "query: expected <program> \"<body>\"".into(),
        ));
    };
    let text = std::fs::read_to_string(input)
        .map_err(|e| CliError::Failed(format!("cannot read {input}: {e}")))?;
    let mut ws = Workspace::new();
    ws.parse(&text)?;
    let spec = ws.graph_spec()?;
    let q = ws.parse_query(body)?;
    if q.is_uniform() {
        let ans = q.answer_incremental(&spec, &ws.interner)?;
        writeln!(
            out,
            "incremental answer: {} tuple(s) over the specification",
            ans.size()
        )?;
        let listed = ans.enumerate_terms(&spec, limit);
        write_answer_rows(out, &listed, &ans, &ws.interner)?;
    } else {
        let (ext, qp) =
            q.answer_by_extension(&ws.program.clone(), &ws.db.clone(), &mut ws.interner)?;
        writeln!(
            out,
            "non-uniform query answered by extension: QUERY predicate `{}` in a {}-cluster spec",
            ws.interner.resolve(qp.sym()),
            ext.cluster_count()
        )?;
    }
    Ok(())
}

/// Writes the rows of a uniform query's answer, one per line: `  term:
/// (args)` for each listed functional answer or, when none is listed,
/// `  (args)` for each tuple of a tuple answer. Serves `fundb query` and
/// the REPL, which each print their own header and empty-answer line.
/// Returns the number of rows written.
pub(crate) fn write_answer_rows(
    out: &mut dyn Write,
    listed: &[(Vec<Func>, Vec<Cst>)],
    ans: &IncrementalAnswer,
    interner: &Interner,
) -> std::io::Result<usize> {
    if listed.is_empty() {
        return match ans {
            IncrementalAnswer::Tuples(ts) => write_tuples(out, ts, interner),
            IncrementalAnswer::PerCluster(_) => Ok(0),
        };
    }
    for (path, tuple) in listed {
        let term = render_term_path(path, interner);
        if tuple.is_empty() {
            writeln!(out, "  {term}")?;
        } else {
            writeln!(out, "  {term}: ({})", join_csts(tuple, interner))?;
        }
    }
    Ok(listed.len())
}

/// Writes answer tuples as sorted `  (args)` lines; returns how many.
pub(crate) fn write_tuples<'a>(
    out: &mut dyn Write,
    tuples: impl IntoIterator<Item = &'a Vec<Cst>>,
    interner: &Interner,
) -> std::io::Result<usize> {
    let mut rows: Vec<String> = tuples.into_iter().map(|t| join_csts(t, interner)).collect();
    rows.sort();
    for r in &rows {
        writeln!(out, "  ({r})")?;
    }
    Ok(rows.len())
}

fn join_csts(tuple: &[Cst], interner: &Interner) -> String {
    tuple
        .iter()
        .map(|c| interner.resolve(c.sym()))
        .collect::<Vec<_>>()
        .join(", ")
}

pub(crate) fn render_term_path(path: &[Func], interner: &Interner) -> String {
    if path.is_empty() {
        return "0".to_string();
    }
    // All-temporal paths print as the day number.
    if path.iter().all(|f| interner.resolve(f.sym()) == "+1") {
        return path.len().to_string();
    }
    let mut s = String::new();
    for f in path.iter().rev() {
        s.push_str(interner.resolve(f.sym()));
        s.push('(');
    }
    s.push('0');
    for _ in path {
        s.push(')');
    }
    s
}

fn analyze(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [input] = args else {
        return Err(CliError::Usage("analyze: expected one file".into()));
    };
    let target = load_target(input, false)?;
    let spec = &target.bundle.spec;
    let report = analysis::analyze(spec);
    writeln!(
        out,
        "clusters: {} | successor edges: {} | primary tuples: {}",
        spec.cluster_count(),
        spec.edge_count(),
        spec.primary_size()
    )?;
    match (&report.finite, report.functional_fact_count) {
        (true, Some(n)) => writeln!(out, "least fixpoint: FINITE, {n} functional fact(s)")?,
        _ => writeln!(
            out,
            "least fixpoint: INFINITE (witness cluster {:?}) — a safety-based \
             system [RBS87] would reject queries against it",
            report.infinite_witness
        )?,
    }
    if let Some(ws) = target.workspace {
        // Temporal programs additionally get their lasso parameters.
        let mut ti = ws.interner.clone();
        match fundb_temporal::classify(&ws.program, &ws.db, &ti) {
            fundb_temporal::TemporalClass::NotTemporal => {}
            class => {
                // A program without a function symbol has no `+1` for a
                // lasso to repeat: nothing to report.
                if let Some(t) = fundb_temporal::TemporalSpec::compute(&ws.program, &ws.db, &mut ti)
                    .ok()
                    .filter(|t| t.symbol.is_some())
                {
                    let (a, b) = t.equation();
                    writeln!(
                        out,
                        "temporal ({class:?}): lasso ρ={} λ={}, equational R = {{({a}, {b})}}",
                        t.rho(),
                        t.lambda()
                    )?;
                }
            }
        }
        let normal = fundb_core::normalize(&ws.program.clone(), &mut ws.interner.clone());
        let mut interner = ws.interner.clone();
        if let Ok(pure) = fundb_core::to_pure(&normal, &ws.db, &mut interner) {
            let p = DataParams::of(&pure.schema);
            writeln!(
                out,
                "data parameters (§2.5): s={} k={} d={} c={} m={} gsize={}",
                p.s, p.k, p.d, p.c, p.m, p.gsize
            )?;
            writeln!(
                out,
                "scope bounds: scope~ ≤ {}, scope≅ ≤ {} (Lemma 3.2)",
                clip(p.equivalence_scope_bound()),
                clip(p.congruence_scope_bound())
            )?;
        }
    }
    Ok(())
}

/// `fundb explain <program> <fact> [--depth N]`: a derivation tree for a
/// fact of the (possibly infinite) least fixpoint; see [`explain_fact`].
fn explain(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut depth: Option<usize> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--depth" {
            depth = Some(
                it.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--depth needs a number".into()))?,
            );
        } else {
            positional.push(a);
        }
    }
    let [input, fact] = positional.as_slice() else {
        return Err(CliError::Usage("explain: expected <program> <fact>".into()));
    };
    let text = std::fs::read_to_string(input)
        .map_err(|e| CliError::Failed(format!("cannot read {input}: {e}")))?;
    let mut ws = Workspace::new();
    ws.parse(&text)?;
    explain_fact(&ws, fact, depth, out)
}

/// Writes a derivation tree for `fact` over the program and facts of
/// `ws`, found within a bounded horizon (`depth`, or a few steps past
/// the fact's depth) via the traced materialization. Serves `fundb
/// explain` and the REPL's `:explain`; works on a copy of the
/// workspace's interner, so the workspace is left as it was.
pub fn explain_fact(
    ws: &Workspace,
    fact: &str,
    depth: Option<usize>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut interner = ws.interner.clone();
    let normal = fundb_core::normalize(&ws.program, &mut interner);
    let pure = fundb_core::to_pure(&normal, &ws.db, &mut interner)?;

    // Parse the fact through the workspace's elaboration.
    let stmts = parse_source(&format!("{}.", fact.trim_end_matches('.')))?;
    let [fundb_parser::PStatement::Rule(rule)] = &stmts[..] else {
        return Err(CliError::Failed("expected a single ground atom".into()));
    };
    let mut el = Elaborator::new();
    for (p, sig) in &pure.schema.sigs {
        if sig.functional {
            el.force_functional(interner.resolve(p.sym()));
        }
    }
    let atom = el.atom(&rule.head, &mut interner)?;
    let cst_args: Vec<Cst> = atom
        .args()
        .iter()
        .map(|a| {
            a.as_const()
                .ok_or_else(|| CliError::Failed(format!("fact `{fact}` is not ground")))
        })
        .collect::<Result<_, _>>()?;
    let Some(ft) = atom.fterm() else {
        return Err(CliError::Failed(
            "explain currently supports functional facts".into(),
        ));
    };
    let Some(path) = spec_io::pure_path_with_map(ft, &pure.sym_map) else {
        writeln!(out, "{fact} does not hold (unknown instantiation)")?;
        return Ok(());
    };
    let horizon = depth.unwrap_or_else(|| (path.len() + 4).max(pure.schema.max_ground_depth));
    let mat = fundb_core::BoundedMaterialization::run_traced(&pure, horizon, &mut interner)?;
    match mat.explain(atom.pred(), &path, &cst_args) {
        Some(d) => {
            write!(out, "{}", fundb_datalog::Provenance::render(&d, &interner))?;
        }
        None => writeln!(
            out,
            "no derivation within horizon {horizon} (the fact may not hold, or may need a deeper horizon — try --depth)"
        )?,
    }
    Ok(())
}

fn clip(v: u128) -> String {
    if v == u128::MAX {
        "≥2^127".to_string()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn write_program(dir: &std::path::Path, name: &str, src: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fundb-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Lifting mixed children (§2.4) leaves the data parameters of §2.5
    /// and the scope bounds as the enumeration defines them: `m` counts
    /// the nine instances `move[Pi,Pj]`.
    #[test]
    fn analyze_keeps_the_section_2_5_parameters_of_the_planner() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/programs/planner.fdb"
        );
        let out = run_str(&["analyze", path]).unwrap();
        assert!(
            out.contains("data parameters (§2.5): s=2 k=2 d=3 c=0 m=9 gsize=12\n"),
            "{out}"
        );
        assert!(
            out.contains("scope bounds: scope~ ≤ 4096, scope≅ ≤ 73729 (Lemma 3.2)\n"),
            "{out}"
        );
    }

    const MEETS: &str = "Meets(t, x), Next(x, y) -> Meets(t+1, y).
Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).\n";

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("fundb compile"));
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        assert!(matches!(run_str(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn compile_show_check_round_trip() {
        let dir = tempdir();
        let prog = write_program(&dir, "meets.fdb", MEETS);
        let spec_path = dir.join("meets.fspec").to_string_lossy().into_owned();

        let out = run_str(&["compile", &prog, "-o", &spec_path]).unwrap();
        assert!(out.contains("clusters"));

        // Show works on both the program and the spec file.
        let shown_prog = run_str(&["show", &prog]).unwrap();
        let shown_spec = run_str(&["show", &spec_path]).unwrap();
        assert!(shown_prog.contains("Meets(Tony)"));
        assert!(shown_spec.contains("Meets(Tony)"));

        // Check against the program…
        let out = run_str(&["check", &prog, "Meets(4, Tony)", "Meets(4, Jan)"]).unwrap();
        assert!(out.contains("Meets(4, Tony) -> true"));
        assert!(out.contains("Meets(4, Jan) -> false"));
        // …and against the spec file, with the rules forgotten (§1).
        let out = run_str(&["check", &spec_path, "Meets(5, Jan)", "Next(Tony, Jan)"]).unwrap();
        assert!(out.contains("Meets(5, Jan) -> true"));
        assert!(out.contains("Next(Tony, Jan) -> true"));
    }

    #[test]
    fn query_enumerates() {
        let dir = tempdir();
        let prog = write_program(&dir, "meets2.fdb", MEETS);
        let out = run_str(&["query", &prog, "Meets(t, x)", "--limit", "4"]).unwrap();
        assert!(out.contains("0: (Tony)"));
        assert!(out.contains("1: (Jan)"));
    }

    #[test]
    fn queries_mixing_variable_sorts_are_rejected() {
        let dir = tempdir();
        let prog = write_program(&dir, "meets_sorts.fdb", MEETS);
        for body in ["Meets(t,t)", "Meets(t,x), Next(x,t)"] {
            let err = run_str(&["query", &prog, body]);
            assert!(
                matches!(&err, Err(CliError::Failed(msg))
                    if msg.contains("variable t is used in both functional and non-functional")),
                "{body}: {err:?}"
            );
        }
    }

    #[test]
    fn relational_queries_of_the_wrong_arity_answer_empty() {
        let dir = tempdir();
        let prog = write_program(&dir, "meets_arity.fdb", MEETS);
        for body in ["Next(x)", "Next(x, y, z)"] {
            let out = run_str(&["query", &prog, body]).unwrap();
            assert_eq!(
                out, "incremental answer: 0 tuple(s) over the specification\n",
                "{body}"
            );
        }
        let out = run_str(&["query", &prog, "Next(x, y)"]).unwrap();
        assert!(out.contains("(Tony, Jan)"), "{out}");
    }

    #[test]
    fn analyze_reports_infinity_and_params() {
        let dir = tempdir();
        let prog = write_program(&dir, "meets3.fdb", MEETS);
        let out = run_str(&["analyze", &prog]).unwrap();
        assert!(out.contains("INFINITE"));
        assert!(out.contains("data parameters"));
    }

    #[test]
    fn analyze_reports_no_lasso_without_a_function_symbol() {
        let dir = tempdir();
        let prog = write_program(&dir, "no_symbol.fdb", "P(0). P(t) -> Q(t).\n");
        let out = run_str(&["analyze", &prog]).unwrap();
        assert!(out.contains("successor edges: 0"), "{out}");
        assert!(!out.contains("temporal"), "{out}");
        // A program with `+1` still reports its lasso.
        let prog = write_program(&dir, "with_symbol.fdb", "P(0). P(t) -> P(t+1).\n");
        let out = run_str(&["analyze", &prog]).unwrap();
        assert!(out.contains("temporal (Forward): lasso"), "{out}");
    }

    #[test]
    fn check_mixed_terms_against_spec_file() {
        let dir = tempdir();
        let prog = write_program(
            &dir,
            "lists.fdb",
            "P(x) -> Member(ext(0, x), x).
             P(y), Member(s, x) -> Member(ext(s, y), y).
             P(y), Member(s, x) -> Member(ext(s, y), x).
             P(A). P(B).\n",
        );
        let spec_path = dir.join("lists.fspec").to_string_lossy().into_owned();
        run_str(&["compile", &prog, "-o", &spec_path, "--minimize"]).unwrap();
        let out = run_str(&[
            "check",
            &spec_path,
            "Member(ext(ext(0, A), B), A)",
            "Member(ext(0, A), B)",
        ])
        .unwrap();
        assert!(out.contains("Member(ext(ext(0, A), B), A) -> true"));
        assert!(out.contains("Member(ext(0, A), B) -> false"));
    }

    #[test]
    fn minimize_flag_shrinks() {
        let dir = tempdir();
        let prog = write_program(
            &dir,
            "lists2.fdb",
            "P(x) -> Member(ext(0, x), x).
             P(y), Member(s, x) -> Member(ext(s, y), y).
             P(y), Member(s, x) -> Member(ext(s, y), x).
             P(A). P(B).\n",
        );
        let full = run_str(&["show", &prog]).unwrap();
        let min = run_str(&["show", &prog, "--minimize"]).unwrap();
        assert!(full.contains("clusters: 6"));
        assert!(min.contains("clusters: 4"));
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn explain_renders_a_proof() {
        let dir = std::env::temp_dir().join(format!(
            "fundb-cli-explain-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = dir.join("meets.fdb");
        std::fs::write(
            &prog,
            "Meets(t, x), Next(x, y) -> Meets(t+1, y).
             Meets(0, Tony). Next(Tony, Jan). Next(Jan, Tony).\n",
        )
        .unwrap();
        let prog = prog.to_string_lossy().into_owned();
        let out = run_str(&["explain", &prog, "Meets(2, Tony)"]).unwrap();
        assert!(out.contains("[by rule"), "{out}");
        assert!(out.contains("[given]"), "{out}");
        assert!(out.contains("Meets"), "{out}");
        // Non-facts report no derivation.
        let out = run_str(&["explain", &prog, "Meets(1, Tony)"]).unwrap();
        assert!(out.contains("no derivation"), "{out}");
    }
}
