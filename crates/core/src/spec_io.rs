//! Serialization of graph specifications.
//!
//! The paper stresses that relational specifications are *explicit*: "once
//! it is computed, the original deductive rules may be forgotten" (§1).
//! This module makes that operational — a [`GraphSpec`] can be written to a
//! stable, line-oriented text format and loaded back later (or elsewhere)
//! to answer membership and queries without the rules:
//!
//! ```text
//! fundbspec 1
//! c 0
//! funcs +1
//! mixed ext 1 A ext[A]          # mixed→pure instantiation (optional)
//! node 0 -                      # representative term: path from the root
//! node 1 +1
//! atom 0 Meets Tony             # slice tuple of a node
//! succ 0 +1 1                   # successor mapping
//! nf Next Tony Jan              # relational fact
//! merge +1.+1 0                 # equation: term path ≅ node (the R of §3.5)
//! end
//! ```
//!
//! In the text format symbol names are emitted verbatim, so they must not
//! contain whitespace or `.` — true for everything the parser and the
//! transformations produce (including `ext[A]`-style instantiated symbols
//! and `+1`). [`write_spec`] *validates* this and returns an error rather
//! than emitting a file that would silently re-tokenize differently.
//!
//! Version 2 of the format is binary ([`write_spec_binary`] /
//! [`read_spec_binary`]): a magic-numbered, CRC-guarded container with a
//! length-prefixed string table, so symbol names are unrestricted. Files
//! from a *newer* format version are rejected explicitly instead of being
//! misparsed. [`read_spec_file`] auto-detects which format it is handed.

use crate::error::{Error, Result};
use crate::gendb::AtomInterner;
use crate::graphspec::{GraphSpec, SpecParts};
use crate::state::State;
use fundb_datalog as dl;
use fundb_storage::codec::{crc32c, put_str, put_u32, put_u64, CodecError, Reader};
use fundb_term::{Cst, Func, FxHashMap, Interner, MixedSym, Pred, Sym, TermTree};

/// Magic prefix of binary (version ≥ 2) specification files.
pub const SPEC_BIN_MAGIC: [u8; 8] = *b"FDBSPECB";
/// Newest binary specification format version this build writes and reads.
/// (Version 1 is the line-oriented text format, which has no magic.)
pub const SPEC_BIN_VERSION: u32 = 2;

/// A serializable bundle: the specification plus the mixed→pure symbol map
/// needed to interpret user-facing terms against it.
#[derive(Clone)]
pub struct SpecBundle {
    /// The graph specification.
    pub spec: GraphSpec,
    /// `(g, ā) → f_ā` instantiations (possibly empty).
    pub sym_map: FxHashMap<(MixedSym, Box<[Cst]>), Func>,
}

/// Translates a ground (possibly mixed) functional term into a pure symbol
/// path using a mixed→pure instantiation map. `None` when the term is
/// non-ground or uses an instantiation absent from the map (such terms never
/// occur in the fixpoint, so membership is simply false).
pub fn pure_path_with_map(
    ft: &crate::program::FTerm,
    sym_map: &FxHashMap<(MixedSym, Box<[Cst]>), Func>,
) -> Option<Vec<Func>> {
    use crate::program::{FTerm, SpineStep};
    let (steps, end) = ft.decompose();
    if !matches!(end, FTerm::Zero) {
        return None;
    }
    let mut path = Vec::with_capacity(steps.len());
    for s in steps.into_iter().rev() {
        match s {
            SpineStep::Pure(f) => path.push(f),
            SpineStep::Mixed(g, args) => {
                let consts: Box<[Cst]> = args
                    .into_iter()
                    .map(|a| a.as_const())
                    .collect::<Option<_>>()?;
                path.push(*sym_map.get(&(g, consts))?);
            }
        }
    }
    Some(path)
}

/// The mixed→pure instances in canonical order, sorted by resolved names,
/// so that both writers produce identical bytes for identical bundles
/// regardless of the map's insertion history.
#[allow(clippy::type_complexity)]
fn sorted_mixed<'a>(
    bundle: &'a SpecBundle,
    interner: &Interner,
) -> Vec<(&'a (MixedSym, Box<[Cst]>), &'a Func)> {
    let mut mixed: Vec<_> = bundle.sym_map.iter().collect();
    mixed.sort_by_key(|((g, args), _)| {
        let args: Vec<&str> = args.iter().map(|a| interner.resolve(a.sym())).collect();
        (interner.resolve(g.name), args)
    });
    mixed
}

/// Serializes a specification (and symbol map) to the text format.
///
/// Every symbol name is validated before it is emitted: a name that is
/// empty or contains whitespace or `.` would re-tokenize differently on
/// read (silent corruption), so it is rejected with [`Error::Parse`]
/// instead. Such bundles can still be saved with [`write_spec_binary`],
/// which has no character restrictions.
pub fn write_spec(bundle: &SpecBundle, interner: &Interner) -> Result<String> {
    let spec = &bundle.spec;
    let name = |s: Sym| -> Result<&str> {
        let n = interner.resolve(s);
        if n.is_empty() || n.contains(char::is_whitespace) || n.contains('.') {
            return Err(Error::Parse {
                offset: 0,
                detail: format!(
                    "symbol `{n}` cannot be written in the text spec format \
                     (empty, or contains whitespace or `.`); \
                     use the binary format instead"
                ),
            });
        }
        Ok(n)
    };
    let path_str = |path: &[Func]| -> Result<String> {
        if path.is_empty() {
            Ok("-".to_string())
        } else {
            Ok(path
                .iter()
                .map(|f| name(f.sym()))
                .collect::<Result<Vec<_>>>()?
                .join("."))
        }
    };

    let mut out = String::from("fundbspec 1\n");
    out.push_str(&format!("c {}\n", spec.c));
    out.push_str("funcs");
    for f in spec.funcs.symbols() {
        out.push(' ');
        out.push_str(name(f.sym())?);
    }
    out.push('\n');
    for ((g, args), f) in sorted_mixed(bundle, interner) {
        out.push_str(&format!("mixed {} {}", name(g.name)?, g.extra_args));
        for a in args.iter() {
            out.push(' ');
            out.push_str(name(a.sym())?);
        }
        out.push(' ');
        out.push_str(name(f.sym())?);
        out.push('\n');
    }
    for (i, node) in spec.nodes.iter().enumerate() {
        out.push_str(&format!(
            "node {i} {}\n",
            path_str(&spec.tree.path(node.term))?
        ));
    }
    for (i, node) in spec.nodes.iter().enumerate() {
        for id in node.state.iter() {
            let (p, args) = spec.atoms.resolve(id);
            out.push_str(&format!("atom {i} {}", name(p.sym())?));
            for a in args {
                out.push(' ');
                out.push_str(name(a.sym())?);
            }
            out.push('\n');
        }
    }
    for i in spec.node_ids() {
        for (f, to) in spec.succ_row(i) {
            out.push_str(&format!(
                "succ {} {} {}\n",
                i.index(),
                name(f.sym())?,
                to.index()
            ));
        }
    }
    // By predicate name, as the binary writer does, so the bytes do not
    // depend on the store's hash-map history.
    let mut rels: Vec<(Pred, &dl::Relation)> = spec.nf.iter().collect();
    rels.sort_by_key(|(p, _)| interner.resolve(p.sym()));
    for (p, rel) in rels {
        for row in rel.rows() {
            out.push_str(&format!("nf {}", name(p.sym())?));
            for a in row.iter() {
                out.push(' ');
                out.push_str(name(a.sym())?);
            }
            out.push('\n');
        }
    }
    for m in spec.merges() {
        out.push_str(&format!(
            "merge {} {}\n",
            path_str(&spec.merge_path(m))?,
            m.rep.index()
        ));
    }
    out.push_str("end\n");
    Ok(out)
}

/// Builds the canonical string table of a binary spec: names registered in
/// first-use order, referenced by dense `u32` id.
struct SymTable<'a> {
    interner: &'a Interner,
    ids: FxHashMap<Sym, u32>,
    names: Vec<&'a str>,
}

impl<'a> SymTable<'a> {
    fn new(interner: &'a Interner) -> SymTable<'a> {
        SymTable {
            interner,
            ids: FxHashMap::default(),
            names: Vec::new(),
        }
    }

    fn id(&mut self, s: Sym) -> u32 {
        if let Some(&id) = self.ids.get(&s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(self.interner.resolve(s));
        self.ids.insert(s, id);
        id
    }
}

fn bin_err(detail: impl Into<String>) -> Error {
    Error::Parse {
        offset: 0,
        detail: format!("binary spec: {}", detail.into()),
    }
}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Error {
        bin_err(e.to_string())
    }
}

/// Serializes a specification (and symbol map) to the binary (version 2)
/// format: `FDBSPECB` magic, version, CRC-guarded body with a
/// length-prefixed string table. Unlike the text format there are no
/// restrictions on symbol names, and the output is canonical — the same
/// bundle always encodes to the same bytes.
pub fn write_spec_binary(bundle: &SpecBundle, interner: &Interner) -> Vec<u8> {
    let spec = &bundle.spec;
    let mut table = SymTable::new(interner);
    let mut body = Vec::new();

    put_u64(&mut body, spec.c as u64);

    put_u32(&mut body, spec.funcs.symbols().len() as u32);
    for f in spec.funcs.symbols() {
        put_u32(&mut body, table.id(f.sym()));
    }

    let mixed = sorted_mixed(bundle, interner);
    put_u32(&mut body, mixed.len() as u32);
    for ((g, args), f) in mixed {
        put_u32(&mut body, table.id(g.name));
        body.push(g.extra_args);
        for a in args.iter() {
            put_u32(&mut body, table.id(a.sym()));
        }
        put_u32(&mut body, table.id(f.sym()));
    }

    put_u32(&mut body, spec.nodes.len() as u32);
    for node in &spec.nodes {
        let path = spec.tree.path(node.term);
        put_u32(&mut body, path.len() as u32);
        for f in &path {
            put_u32(&mut body, table.id(f.sym()));
        }
    }

    let mut atom_section = Vec::new();
    let mut atom_count = 0u32;
    for (i, node) in spec.nodes.iter().enumerate() {
        for id in node.state.iter() {
            let (p, args) = spec.atoms.resolve(id);
            put_u32(&mut atom_section, i as u32);
            put_u32(&mut atom_section, table.id(p.sym()));
            put_u32(&mut atom_section, args.len() as u32);
            for a in args {
                put_u32(&mut atom_section, table.id(a.sym()));
            }
            atom_count += 1;
        }
    }
    put_u32(&mut body, atom_count);
    body.extend_from_slice(&atom_section);

    let mut succ_section = Vec::new();
    let mut succ_count = 0u32;
    for i in spec.node_ids() {
        for (f, to) in spec.succ_row(i) {
            put_u32(&mut succ_section, i.index() as u32);
            put_u32(&mut succ_section, table.id(f.sym()));
            put_u32(&mut succ_section, to.index() as u32);
            succ_count += 1;
        }
    }
    put_u32(&mut body, succ_count);
    body.extend_from_slice(&succ_section);

    let mut rels: Vec<(Pred, &dl::Relation)> = spec.nf.iter().collect();
    rels.sort_by_key(|(p, _)| interner.resolve(p.sym()));
    put_u32(&mut body, rels.len() as u32);
    for (p, rel) in rels {
        put_u32(&mut body, table.id(p.sym()));
        put_u32(&mut body, rel.arity() as u32);
        put_u64(&mut body, rel.len() as u64);
        for row in rel.rows() {
            for a in row {
                put_u32(&mut body, table.id(a.sym()));
            }
        }
    }

    put_u32(&mut body, spec.merges().len() as u32);
    for m in spec.merges() {
        let path = spec.merge_path(m);
        put_u32(&mut body, path.len() as u32);
        for f in &path {
            put_u32(&mut body, table.id(f.sym()));
        }
        put_u32(&mut body, m.rep.index() as u32);
    }

    // Assemble: the string table precedes the sections that reference it.
    let mut full_body = Vec::new();
    put_u32(&mut full_body, table.names.len() as u32);
    for name in &table.names {
        put_str(&mut full_body, name);
    }
    full_body.extend_from_slice(&body);

    let mut out = Vec::with_capacity(full_body.len() + 24);
    out.extend_from_slice(&SPEC_BIN_MAGIC);
    put_u32(&mut out, SPEC_BIN_VERSION);
    put_u64(&mut out, full_body.len() as u64);
    put_u32(&mut out, crc32c(&full_body));
    out.extend_from_slice(&full_body);
    out
}

/// Parses the binary (version 2) format back into a [`SpecBundle`].
/// Corruption (bad magic, truncation, CRC mismatch, malformed body)
/// becomes [`Error::Parse`]; a file written by a *newer* format version is
/// rejected explicitly rather than misread.
pub fn read_spec_binary(bytes: &[u8], interner: &mut Interner) -> Result<SpecBundle> {
    let mut r = Reader::new(bytes);
    if r.bytes(8)
        .map_err(|_| bin_err("file too short for header"))?
        != SPEC_BIN_MAGIC
    {
        return Err(bin_err("bad magic (not a binary spec file)"));
    }
    let version = r.u32()?;
    if version > SPEC_BIN_VERSION {
        return Err(bin_err(format!(
            "format version {version} is from a newer build \
             (this build reads ≤ {SPEC_BIN_VERSION})"
        )));
    }
    if version < SPEC_BIN_VERSION {
        return Err(bin_err(format!(
            "format version {version} is not binary (text files have no magic)"
        )));
    }
    let body_len = r.u64()? as usize;
    let crc = r.u32()?;
    let body = r.bytes(body_len).map_err(|_| bin_err("truncated body"))?;
    if !r.is_empty() {
        return Err(bin_err("trailing bytes after body"));
    }
    if crc32c(body) != crc {
        return Err(bin_err("body checksum mismatch (corrupt file)"));
    }

    // Counts below are untrusted (the CRC only guards against accidental
    // corruption), so every pre-allocation is capped by the entries the
    // body could hold at its minimum encoded size per entry.
    let mut r = Reader::new(body);
    let nstrings = r.u32()? as usize;
    let mut syms: Vec<Sym> = Vec::with_capacity(nstrings.min(body.len() / 4 + 1));
    for _ in 0..nstrings {
        syms.push(interner.intern(r.str()?));
    }
    let sym = |id: u32| -> Result<Sym> {
        syms.get(id as usize)
            .copied()
            .ok_or_else(|| bin_err(format!("string table id {id} out of range")))
    };

    let c = r.u64()? as usize;

    let nfuncs = r.u32()? as usize;
    let mut funcs = Vec::with_capacity(nfuncs.min(body.len() / 4 + 1));
    for _ in 0..nfuncs {
        funcs.push(Func(sym(r.u32()?)?));
    }

    let nmixed = r.u32()? as usize;
    let mut sym_map: FxHashMap<(MixedSym, Box<[Cst]>), Func> = FxHashMap::default();
    for _ in 0..nmixed {
        let gname = sym(r.u32()?)?;
        let extra = r.u8()?;
        let args: Box<[Cst]> = (0..extra)
            .map(|_| Ok(Cst(sym(r.u32()?)?)))
            .collect::<Result<_>>()?;
        let f = Func(sym(r.u32()?)?);
        sym_map.insert(
            (
                MixedSym {
                    name: gname,
                    extra_args: extra,
                },
                args,
            ),
            f,
        );
    }

    let nnodes = r.u32()? as usize;
    let mut tree = TermTree::new();
    let mut node_terms = Vec::with_capacity(nnodes.min(body.len() / 4 + 1));
    let mut states = Vec::with_capacity(nnodes.min(body.len() / 4 + 1));
    let mut path_buf: Vec<Func> = Vec::new();
    for _ in 0..nnodes {
        let plen = r.u32()? as usize;
        path_buf.clear();
        for _ in 0..plen {
            path_buf.push(Func(sym(r.u32()?)?));
        }
        node_terms.push(tree.intern_path(&path_buf));
        states.push(State::new());
    }

    let natoms = r.u32()? as usize;
    let mut atoms = AtomInterner::new();
    for _ in 0..natoms {
        let idx = r.u32()? as usize;
        let pred = Pred(sym(r.u32()?)?);
        let argc = r.u32()? as usize;
        let args: Vec<Cst> = (0..argc)
            .map(|_| Ok(Cst(sym(r.u32()?)?)))
            .collect::<Result<_>>()?;
        let id = atoms.intern(pred, &args);
        states
            .get_mut(idx)
            .ok_or_else(|| bin_err("atom refers to an unknown node"))?
            .insert(id);
    }

    let nsucc = r.u32()? as usize;
    let mut edges = Vec::with_capacity(nsucc.min(body.len() / 12 + 1));
    for _ in 0..nsucc {
        let from = r.u32()? as usize;
        let f = Func(sym(r.u32()?)?);
        let to = r.u32()? as usize;
        edges.push((from, f, to));
    }

    let nrels = r.u32()? as usize;
    let mut nf = dl::Database::new();
    let mut row_buf: Vec<Cst> = Vec::new();
    for _ in 0..nrels {
        let pred = Pred(sym(r.u32()?)?);
        let arity = r.u32()? as usize;
        if nf.relation(pred).is_some_and(|rel| rel.arity() != arity) {
            return Err(bin_err("one relational predicate with two arities"));
        }
        let nrows = r.u64()? as usize;
        // A row of no columns takes no bytes, so no truncation ends a
        // huge count of them: refuse it before looping.
        if arity == 0 && nrows > 1 {
            return Err(bin_err("a nullary relation holds at most one row"));
        }
        for _ in 0..nrows {
            row_buf.clear();
            for _ in 0..arity {
                row_buf.push(Cst(sym(r.u32()?)?));
            }
            nf.insert(pred, &row_buf);
        }
    }

    let nmerges = r.u32()? as usize;
    let mut merges = Vec::with_capacity(nmerges.min(body.len() / 8 + 1));
    for _ in 0..nmerges {
        let plen = r.u32()? as usize;
        let path: Vec<Func> = (0..plen)
            .map(|_| Ok(Func(sym(r.u32()?)?)))
            .collect::<Result<_>>()?;
        let rep = r.u32()? as usize;
        merges.push((path, rep));
    }

    if !r.is_empty() {
        return Err(bin_err("trailing bytes inside body"));
    }

    let parts = SpecParts {
        c,
        funcs,
        tree,
        node_terms,
        states,
        edges,
        merges,
        atoms,
        nf,
    };
    let spec = GraphSpec::from_parts(parts).map_err(bin_err)?;
    Ok(SpecBundle { spec, sym_map })
}

/// Parses the text format back into a [`SpecBundle`]. Symbol names are
/// interned into `interner`.
pub fn read_spec(text: &str, interner: &mut Interner) -> Result<SpecBundle> {
    let mut lines = text.lines().enumerate();
    let err = |lineno: usize, detail: &str| Error::Parse {
        offset: lineno,
        detail: format!("spec file line {}: {detail}", lineno + 1),
    };

    let (n0, header) = lines
        .next()
        .ok_or_else(|| err(0, "empty specification file"))?;
    if header.trim() != "fundbspec 1" {
        return Err(err(n0, "expected header `fundbspec 1`"));
    }

    let mut c: Option<usize> = None;
    let mut funcs: Vec<Func> = Vec::new();
    let mut tree = TermTree::new();
    let mut node_terms: Vec<fundb_term::NodeId> = Vec::new();
    let mut states: Vec<State> = Vec::new();
    let mut atoms = AtomInterner::new();
    let mut edges: Vec<(usize, Func, usize)> = Vec::new();
    let mut nf = dl::Database::new();
    let mut merges: Vec<(Vec<Func>, usize)> = Vec::new();
    let mut sym_map: FxHashMap<(MixedSym, Box<[Cst]>), Func> = FxHashMap::default();
    let mut ended = false;

    let parse_path = |tok: &str, interner: &mut Interner| -> Vec<Func> {
        if tok == "-" {
            Vec::new()
        } else {
            tok.split('.').map(|n| Func(interner.intern(n))).collect()
        }
    };

    for (lineno, raw) in lines {
        let mut toks = raw.split_whitespace();
        let Some(kw) = toks.next().filter(|kw| !kw.starts_with('#')) else {
            continue; // blank line or comment
        };
        let rest: Vec<&str> = toks.collect();
        match kw {
            "c" => {
                let v = rest
                    .first()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "malformed `c`"))?;
                c = Some(v);
            }
            "funcs" => {
                funcs = rest.iter().map(|n| Func(interner.intern(n))).collect();
            }
            "mixed" => {
                if rest.len() < 3 {
                    return Err(err(lineno, "malformed `mixed`"));
                }
                let gname = interner.intern(rest[0]);
                let extra_args: u8 = rest[1]
                    .parse()
                    .map_err(|_| err(lineno, "malformed mixed arity"))?;
                let extra = usize::from(extra_args);
                if rest.len() != extra + 3 {
                    return Err(err(lineno, "mixed argument count mismatch"));
                }
                let args: Box<[Cst]> = rest[2..2 + extra]
                    .iter()
                    .map(|n| Cst(interner.intern(n)))
                    .collect();
                let f = Func(interner.intern(rest[2 + extra]));
                sym_map.insert(
                    (
                        MixedSym {
                            name: gname,
                            extra_args,
                        },
                        args,
                    ),
                    f,
                );
            }
            "node" => {
                if rest.len() != 2 {
                    return Err(err(lineno, "malformed `node`"));
                }
                let idx: usize = rest[0]
                    .parse()
                    .map_err(|_| err(lineno, "malformed node index"))?;
                if idx != node_terms.len() {
                    return Err(err(lineno, "nodes must be listed densely in order"));
                }
                let path = parse_path(rest[1], interner);
                node_terms.push(tree.intern_path(&path));
                states.push(State::new());
            }
            "atom" => {
                if rest.len() < 2 {
                    return Err(err(lineno, "malformed `atom`"));
                }
                let idx: usize = rest[0]
                    .parse()
                    .map_err(|_| err(lineno, "malformed atom node index"))?;
                let pred = Pred(interner.intern(rest[1]));
                let args: Vec<Cst> = rest[2..].iter().map(|n| Cst(interner.intern(n))).collect();
                let id = atoms.intern(pred, &args);
                states
                    .get_mut(idx)
                    .ok_or_else(|| err(lineno, "atom refers to an unknown node"))?
                    .insert(id);
            }
            "succ" => {
                if rest.len() != 3 {
                    return Err(err(lineno, "malformed `succ`"));
                }
                let from: usize = rest[0]
                    .parse()
                    .map_err(|_| err(lineno, "malformed succ source"))?;
                let f = Func(interner.intern(rest[1]));
                let to: usize = rest[2]
                    .parse()
                    .map_err(|_| err(lineno, "malformed succ target"))?;
                edges.push((from, f, to));
            }
            "nf" => {
                if rest.is_empty() {
                    return Err(err(lineno, "malformed `nf`"));
                }
                let pred = Pred(interner.intern(rest[0]));
                let row: Vec<Cst> = rest[1..].iter().map(|n| Cst(interner.intern(n))).collect();
                if nf
                    .relation(pred)
                    .is_some_and(|rel| rel.arity() != row.len())
                {
                    return Err(err(lineno, "`nf` predicate used with two arities"));
                }
                nf.insert(pred, &row);
            }
            "merge" => {
                if rest.len() != 2 {
                    return Err(err(lineno, "malformed `merge`"));
                }
                let path = parse_path(rest[0], interner);
                let rep: usize = rest[1]
                    .parse()
                    .map_err(|_| err(lineno, "malformed merge target"))?;
                merges.push((path, rep));
            }
            "end" => {
                ended = true;
                break;
            }
            other => return Err(err(lineno, &format!("unknown keyword `{other}`"))),
        }
    }
    if !ended {
        return Err(Error::Parse {
            offset: 0,
            detail: "specification file missing `end`".into(),
        });
    }
    let c = c.ok_or(Error::Parse {
        offset: 0,
        detail: "specification file missing `c`".into(),
    })?;

    let parts = SpecParts {
        c,
        funcs,
        tree,
        node_terms,
        states,
        edges,
        merges,
        atoms,
        nf,
    };
    let spec = GraphSpec::from_parts(parts).map_err(|detail| Error::Parse {
        offset: 0,
        detail: format!("spec file: {detail}"),
    })?;
    Ok(SpecBundle { spec, sym_map })
}

/// Reads a specification file from disk, auto-detecting the format: files
/// that open with the [`SPEC_BIN_MAGIC`] bytes are parsed as binary
/// (version ≥ 2), anything else as the version-1 text format. I/O failures
/// become [`Error::Io`] and malformed content becomes [`Error::Parse`], so
/// a bad file never aborts the caller (the REPL keeps its session alive).
pub fn read_spec_file(path: &str, interner: &mut Interner) -> Result<SpecBundle> {
    let bytes = std::fs::read(path).map_err(|e| Error::io(path, &e))?;
    if bytes.starts_with(&SPEC_BIN_MAGIC) {
        return read_spec_binary(&bytes, interner);
    }
    let text = String::from_utf8(bytes).map_err(|_| Error::Parse {
        offset: 0,
        detail: format!("{path}: neither a binary spec (no magic) nor UTF-8 text"),
    })?;
    read_spec(&text, interner)
}

/// Writes a specification file to disk in the text format, mapping I/O
/// failures to [`Error::Io`]. Fails without touching the file if the
/// bundle contains symbols the text format cannot carry — use
/// [`write_spec_file_binary`] for those.
pub fn write_spec_file(path: &str, bundle: &SpecBundle, interner: &Interner) -> Result<()> {
    let text = write_spec(bundle, interner)?;
    std::fs::write(path, text).map_err(|e| Error::io(path, &e))
}

/// Writes a specification file to disk in the binary (version 2) format,
/// mapping I/O failures to [`Error::Io`].
pub fn write_spec_file_binary(path: &str, bundle: &SpecBundle, interner: &Interner) -> Result<()> {
    let bytes = write_spec_binary(bundle, interner);
    std::fs::write(path, bytes).map_err(|e| Error::io(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::program::{Atom, Database, FTerm, NTerm, Program, Rule};
    use fundb_term::Var;

    fn meets_spec() -> (Interner, GraphSpec, Pred, Func, Cst, Cst) {
        let mut i = Interner::new();
        let meets = Pred(i.intern("Meets"));
        let next = Pred(i.intern("Next"));
        let succ = Func(i.intern("+1"));
        let (t, x, y) = (Var(i.intern("t")), Var(i.intern("x")), Var(i.intern("y")));
        let (tony, jan) = (Cst(i.intern("Tony")), Cst(i.intern("Jan")));
        let mut prog = Program::new();
        prog.push(Rule::new(
            Atom::Functional {
                pred: meets,
                fterm: FTerm::Pure(succ, Box::new(FTerm::Var(t))),
                args: vec![NTerm::Var(y)],
            },
            vec![
                Atom::Functional {
                    pred: meets,
                    fterm: FTerm::Var(t),
                    args: vec![NTerm::Var(x)],
                },
                Atom::Relational {
                    pred: next,
                    args: vec![NTerm::Var(x), NTerm::Var(y)],
                },
            ],
        ));
        let mut db = Database::new();
        db.facts.push(Atom::Functional {
            pred: meets,
            fterm: FTerm::Zero,
            args: vec![NTerm::Const(tony)],
        });
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(tony), NTerm::Const(jan)],
        });
        db.facts.push(Atom::Relational {
            pred: next,
            args: vec![NTerm::Const(jan), NTerm::Const(tony)],
        });
        let mut engine = Engine::build(&prog, &db, &mut i).unwrap();
        let spec = GraphSpec::from_engine(&mut engine).unwrap();
        (i, spec, meets, succ, tony, jan)
    }

    #[test]
    fn round_trip_preserves_membership_and_render() {
        let (i, spec, meets, succ, tony, jan) = meets_spec();
        let text = write_spec(
            &SpecBundle {
                spec: spec.clone(),
                sym_map: FxHashMap::default(),
            },
            &i,
        )
        .unwrap();
        let mut i2 = Interner::new();
        let bundle = read_spec(&text, &mut i2).unwrap();
        // Resolve symbols in the new interner.
        let meets2 = Pred(i2.get("Meets").unwrap());
        let succ2 = Func(i2.get("+1").unwrap());
        let tony2 = Cst(i2.get("Tony").unwrap());
        let jan2 = Cst(i2.get("Jan").unwrap());
        for n in 0..30usize {
            assert_eq!(
                spec.holds(meets, &vec![succ; n], &[tony]),
                bundle.spec.holds(meets2, &vec![succ2; n], &[tony2]),
                "n={n}"
            );
            assert_eq!(
                spec.holds(meets, &vec![succ; n], &[jan]),
                bundle.spec.holds(meets2, &vec![succ2; n], &[jan2]),
                "n={n}"
            );
        }
        // Rendering (a superset of the structure) is identical.
        assert_eq!(spec.render(&i), bundle.spec.render(&i2));
        // Second round trip is byte-identical (canonical form).
        let text2 = write_spec(&bundle, &i2).unwrap();
        assert_eq!(text, text2);
    }

    #[test]
    fn read_rejects_garbage() {
        let mut i = Interner::new();
        assert!(read_spec("", &mut i).is_err());
        assert!(read_spec("fundbspec 2\nend\n", &mut i).is_err());
        assert!(read_spec("fundbspec 1\nc 0\n", &mut i).is_err()); // no end
        assert!(read_spec("fundbspec 1\nbogus x\nend\n", &mut i).is_err());
        assert!(read_spec("fundbspec 1\nnode 1 -\nend\n", &mut i).is_err()); // non-dense
                                                                             // A mixed symbol's arity is one byte: 256 or more arguments is
                                                                             // refused, not truncated.
        let mixed = |n: usize| {
            format!(
                "fundbspec 1\nc 0\nfuncs +1\nmixed ext {n}{} ext[A]\n\
                 node 0 -\nsucc 0 +1 0\nend\n",
                " A".repeat(n)
            )
        };
        let bundle = read_spec(&mixed(255), &mut i).unwrap();
        assert_eq!(bundle.sym_map.keys().next().unwrap().0.extra_args, 255);
        for n in [256, 257] {
            assert!(read_spec(&mixed(n), &mut i).is_err(), "arity {n}");
        }
    }

    #[test]
    fn mixed_map_round_trips() {
        let mut i = Interner::new();
        let g = MixedSym {
            name: i.intern("ext"),
            extra_args: 1,
        };
        let a = Cst(i.intern("A"));
        let fa = Func(i.intern("ext[A]"));
        let (i_spec, spec, ..) = {
            let (i2, spec, m, s, t, j) = meets_spec();
            (i2, spec, m, s, t, j)
        };
        // Graft the mixed map onto an unrelated spec, re-interning its
        // symbols in that spec's interner for a consistent write.
        let mut i3 = i_spec.clone();
        let g3 = MixedSym {
            name: i3.intern("ext"),
            extra_args: 1,
        };
        let a3 = Cst(i3.intern("A"));
        let fa3 = Func(i3.intern("ext[A]"));
        let mut sym_map = FxHashMap::default();
        sym_map.insert((g3, vec![a3].into_boxed_slice()), fa3);
        let text = write_spec(&SpecBundle { spec, sym_map }, &i3).unwrap();
        let mut i4 = Interner::new();
        let bundle = read_spec(&text, &mut i4).unwrap();
        assert_eq!(bundle.sym_map.len(), 1);
        let g4 = MixedSym {
            name: i4.get("ext").unwrap(),
            extra_args: 1,
        };
        let a4 = Cst(i4.get("A").unwrap());
        let fa4 = Func(i4.get("ext[A]").unwrap());
        assert_eq!(bundle.sym_map[&(g4, vec![a4].into_boxed_slice())], fa4);
        let _ = (g, a, fa);
    }

    #[test]
    fn mixed_lines_do_not_depend_on_the_map_insertion_order() {
        let (mut i, spec, ..) = meets_spec();
        let ext = i.intern("ext");
        let g = MixedSym {
            name: ext,
            extra_args: 1,
        };
        let entries: Vec<_> = (0..200)
            .map(|k| {
                let a = Cst(i.intern(&format!("A{k}")));
                let f = Func(i.intern(&format!("ext[A{k}]")));
                ((g, vec![a].into_boxed_slice()), f)
            })
            .collect();
        let forward: FxHashMap<_, _> = entries.iter().cloned().collect();
        let backward: FxHashMap<_, _> = entries.iter().rev().cloned().collect();
        // The two maps must iterate differently, or this test shows nothing.
        assert!(forward.iter().ne(backward.iter()));
        let bytes = |sym_map| {
            let bundle = SpecBundle {
                spec: spec.clone(),
                sym_map,
            };
            (
                write_spec(&bundle, &i).unwrap(),
                write_spec_binary(&bundle, &i),
            )
        };
        let (text, binary) = bytes(forward);
        assert_eq!(text.matches("\nmixed ").count(), 200);
        assert!(text.contains("mixed ext 1 A0 ext[A0]\nmixed ext 1 A1 ext[A1]\n"));
        assert_eq!((text, binary), bytes(backward));
    }

    #[test]
    fn text_write_rejects_unserializable_symbols_binary_carries_them() {
        let (mut i, mut spec, meets, succ, tony, _) = meets_spec();
        // A predicate name with a space would re-tokenize differently in
        // the text format; writing it used to be an assert (process
        // abort), now it is a reported error.
        let weird = Pred(i.intern("has space"));
        let dotted = Cst(i.intern("a.b"));
        spec.nf.insert(weird, &[dotted]);
        let bundle = SpecBundle {
            spec,
            sym_map: FxHashMap::default(),
        };
        let err = write_spec(&bundle, &i).unwrap_err();
        assert!(
            matches!(&err, Error::Parse { detail, .. } if detail.contains("binary")),
            "unexpected error: {err}"
        );
        // The binary format has no such restriction: full round trip.
        let bytes = write_spec_binary(&bundle, &i);
        let mut i2 = Interner::new();
        let back = read_spec_binary(&bytes, &mut i2).unwrap();
        let weird2 = Pred(i2.get("has space").unwrap());
        let dotted2 = Cst(i2.get("a.b").unwrap());
        assert!(back.spec.nf.contains(weird2, &[dotted2]));
        let meets2 = Pred(i2.get("Meets").unwrap());
        let succ2 = Func(i2.get("+1").unwrap());
        let tony2 = Cst(i2.get("Tony").unwrap());
        for n in 0..20usize {
            assert_eq!(
                bundle.spec.holds(meets, &vec![succ; n], &[tony]),
                back.spec.holds(meets2, &vec![succ2; n], &[tony2]),
                "n={n}"
            );
        }
    }

    #[test]
    fn binary_round_trip_is_canonical_and_auto_detected() {
        let (i, spec, meets, succ, tony, jan) = meets_spec();
        let bundle = SpecBundle {
            spec,
            sym_map: FxHashMap::default(),
        };
        let bytes = write_spec_binary(&bundle, &i);
        let mut i2 = Interner::new();
        let back = read_spec_binary(&bytes, &mut i2).unwrap();
        let meets2 = Pred(i2.get("Meets").unwrap());
        let succ2 = Func(i2.get("+1").unwrap());
        let tony2 = Cst(i2.get("Tony").unwrap());
        let jan2 = Cst(i2.get("Jan").unwrap());
        for n in 0..30usize {
            assert_eq!(
                bundle.spec.holds(meets, &vec![succ; n], &[tony]),
                back.spec.holds(meets2, &vec![succ2; n], &[tony2]),
                "n={n}"
            );
            assert_eq!(
                bundle.spec.holds(meets, &vec![succ; n], &[jan]),
                back.spec.holds(meets2, &vec![succ2; n], &[jan2]),
                "n={n}"
            );
        }
        assert_eq!(bundle.spec.render(&i), back.spec.render(&i2));
        // Canonical: re-encoding from the fresh interner is byte-identical.
        assert_eq!(bytes, write_spec_binary(&back, &i2));

        // read_spec_file auto-detects both formats on disk.
        let dir = std::env::temp_dir().join(format!("fundb-specio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bin_path = dir.join("spec.bin");
        let txt_path = dir.join("spec.txt");
        write_spec_file_binary(bin_path.to_str().unwrap(), &bundle, &i).unwrap();
        write_spec_file(txt_path.to_str().unwrap(), &bundle, &i).unwrap();
        let mut i3 = Interner::new();
        let from_bin = read_spec_file(bin_path.to_str().unwrap(), &mut i3).unwrap();
        let mut i4 = Interner::new();
        let from_txt = read_spec_file(txt_path.to_str().unwrap(), &mut i4).unwrap();
        assert_eq!(from_bin.spec.render(&i3), from_txt.spec.render(&i4));
    }

    #[test]
    fn binary_rejects_corruption_and_future_versions() {
        let (i, spec, ..) = meets_spec();
        let bundle = SpecBundle {
            spec,
            sym_map: FxHashMap::default(),
        };
        let bytes = write_spec_binary(&bundle, &i);

        let mut i2 = Interner::new();
        assert!(read_spec_binary(b"garbage", &mut i2).is_err());
        assert!(read_spec_binary(&bytes[..bytes.len() - 1], &mut i2).is_err());

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        let Err(err) = read_spec_binary(&flipped, &mut i2) else {
            panic!("flipped byte accepted");
        };
        assert!(err.to_string().contains("checksum"), "got: {err}");

        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        let Err(err) = read_spec_binary(&future, &mut i2) else {
            panic!("future version accepted");
        };
        assert!(err.to_string().contains("newer build"), "got: {err}");
    }

    /// A crafted file passes the CRC but claims `u32::MAX` entries in one
    /// section: the reader must return `Err`, not abort on the allocation.
    #[test]
    fn binary_rejects_huge_counts_without_aborting() {
        // Section counts in reading order (`c` is the one u64), each an
        // empty section, then the claimed count at position `huge`.
        let sections = [
            "strings", "c", "funcs", "mixed", "nodes", "atoms", "succ", "rels", "merges",
        ];
        for huge in ["strings", "funcs", "nodes", "merges"] {
            let mut body = Vec::new();
            for &section in &sections {
                if section == huge {
                    put_u32(&mut body, u32::MAX);
                    break;
                }
                if section == "c" {
                    put_u64(&mut body, 0);
                } else {
                    put_u32(&mut body, 0);
                }
            }
            let mut i = Interner::new();
            assert!(
                read_spec_binary(&framed(&body), &mut i).is_err(),
                "{huge}: u32::MAX entries accepted"
            );
        }
        // A nullary relation's rows take no bytes: a huge count of them is
        // refused, not looped over.
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        put_str(&mut body, "P");
        put_u64(&mut body, 0);
        for count in [0, 0, 0, 0, 0, 1, 0, 0] {
            put_u32(&mut body, count); // funcs … rels, then P of arity 0
        }
        put_u64(&mut body, u64::MAX);
        let err = read_spec_binary(&framed(&body), &mut Interner::new())
            .err()
            .unwrap();
        assert!(err.to_string().contains("at most one row"), "{err}");
    }

    /// Wraps a binary spec body in its magic, version, length and CRC.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = SPEC_BIN_MAGIC.to_vec();
        put_u32(&mut out, SPEC_BIN_VERSION);
        put_u64(&mut out, body.len() as u64);
        put_u32(&mut out, crc32c(body));
        out.extend_from_slice(body);
        out
    }

    /// The two-node Even spec (nodes `0` and `+1`, `Even` on node 1) in
    /// the text format, with the given `succ` lines.
    fn even_text(succ: &[&str]) -> String {
        let mut text =
            String::from("fundbspec 1\nc 0\nfuncs +1\nnode 0 -\nnode 1 +1\natom 1 Even\n");
        for line in succ {
            text.push_str(line);
            text.push('\n');
        }
        text.push_str("end\n");
        text
    }

    /// The same spec in the binary format, with the given successor edges
    /// `(from, string id, to)`; string 0 is `+1`, string 1 is `Even`,
    /// string 2 is `g`.
    fn even_binary(succ: &[(u32, u32, u32)]) -> Vec<u8> {
        even_binary_with_rels(succ, &[])
    }

    /// [`even_binary`] plus one relation block per `(pred, row)` entry,
    /// each holding that single row (all as string ids).
    fn even_binary_with_rels(succ: &[(u32, u32, u32)], rels: &[(u32, &[u32])]) -> Vec<u8> {
        let mut body = Vec::new();
        put_u32(&mut body, 3);
        for name in ["+1", "Even", "g"] {
            put_str(&mut body, name);
        }
        put_u64(&mut body, 0); // c
        put_u32(&mut body, 1); // funcs: +1
        put_u32(&mut body, 0);
        put_u32(&mut body, 0); // no mixed symbols
        put_u32(&mut body, 2); // nodes: 0 and +1
        put_u32(&mut body, 0);
        put_u32(&mut body, 1);
        put_u32(&mut body, 0);
        put_u32(&mut body, 1); // atom Even() on node 1
        put_u32(&mut body, 1);
        put_u32(&mut body, 1);
        put_u32(&mut body, 0);
        put_u32(&mut body, succ.len() as u32);
        for &(from, f, to) in succ {
            put_u32(&mut body, from);
            put_u32(&mut body, f);
            put_u32(&mut body, to);
        }
        put_u32(&mut body, rels.len() as u32);
        for &(pred, row) in rels {
            put_u32(&mut body, pred);
            put_u32(&mut body, row.len() as u32);
            put_u64(&mut body, 1);
            for &c in row {
                put_u32(&mut body, c);
            }
        }
        put_u32(&mut body, 0); // no merges
        framed(&body)
    }

    /// One `nf` predicate at two arities used to panic inside the
    /// relational store; every reader now refuses it.
    #[test]
    fn readers_reject_a_predicate_with_two_arities() {
        let mut i = Interner::new();
        let text = "fundbspec 1\nc 0\nfuncs +1\nnode 0 -\natom 0 Meets S0\n\
                    succ 0 +1 0\nnf Next S0 S1\nnf Next S0\nend\n";
        let err = read_spec(text, &mut i).err().unwrap();
        assert!(err.to_string().contains("two arities"), "{err}");
        let bytes = even_binary_with_rels(&[(0, 0, 1), (1, 0, 0)], &[(2, &[]), (2, &[2])]);
        let err = read_spec_binary(&bytes, &mut i).err().unwrap();
        assert!(err.to_string().contains("two arities"), "{err}");
        // The same blocks at one arity are accepted.
        let bytes = even_binary_with_rels(&[(0, 0, 1), (1, 0, 0)], &[(2, &[2]), (2, &[0])]);
        assert_eq!(
            read_spec_binary(&bytes, &mut i)
                .unwrap()
                .spec
                .nf
                .fact_count(),
            2
        );
    }

    #[test]
    fn readers_accept_a_total_successor_table() {
        let mut i = Interner::new();
        let text = read_spec(&even_text(&["succ 0 +1 1", "succ 1 +1 0"]), &mut i).unwrap();
        let binary = read_spec_binary(&even_binary(&[(0, 0, 1), (1, 0, 0)]), &mut i).unwrap();
        let even = Pred(i.get("Even").unwrap());
        let plus = Func(i.get("+1").unwrap());
        for bundle in [text, binary] {
            bundle.spec.validate().unwrap();
            let frozen = bundle.spec.freeze();
            for n in 0..8usize {
                assert_eq!(frozen.holds(even, &vec![plus; n], &[]), n % 2 == 1);
            }
        }
    }

    #[test]
    fn readers_reject_a_missing_successor_edge() {
        // Node 1 has no `+1` successor: loading used to succeed and the
        // first freeze or minimization panicked.
        let mut i = Interner::new();
        let err = read_spec(&even_text(&["succ 0 +1 1"]), &mut i)
            .err()
            .unwrap();
        assert!(err.to_string().contains("no successor"), "{err}");
        let err = read_spec_binary(&even_binary(&[(0, 0, 1)]), &mut i)
            .err()
            .unwrap();
        assert!(err.to_string().contains("no successor"), "{err}");

        let dir = std::env::temp_dir().join(format!("fundb-spec-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("missing.fspec");
        std::fs::write(&text_path, even_text(&["succ 0 +1 1"])).unwrap();
        let bin_path = dir.join("missing.fspec.bin");
        std::fs::write(&bin_path, even_binary(&[(0, 0, 1)])).unwrap();
        for path in [&text_path, &bin_path] {
            assert!(read_spec_file(path.to_str().unwrap(), &mut i).is_err());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readers_reject_a_duplicate_successor_edge() {
        let mut i = Interner::new();
        let text = even_text(&["succ 0 +1 1", "succ 1 +1 0", "succ 1 +1 0"]);
        let err = read_spec(&text, &mut i).err().unwrap();
        assert!(err.to_string().contains("two successors"), "{err}");
        let bytes = even_binary(&[(0, 0, 1), (1, 0, 0), (1, 0, 1)]);
        let err = read_spec_binary(&bytes, &mut i).err().unwrap();
        assert!(err.to_string().contains("two successors"), "{err}");
    }

    #[test]
    fn readers_reject_unknown_symbols_and_nodes_in_edges_and_merges() {
        let mut i = Interner::new();
        for text in [
            even_text(&["succ 0 +1 1", "succ 1 +1 0", "succ 1 g 0"]),
            even_text(&["succ 0 +1 1", "succ 1 +1 7"]),
            even_text(&["succ 0 +1 1", "succ 1 +1 0", "merge +1.+1 9"]),
            even_text(&["succ 0 +1 1", "succ 1 +1 0", "merge +1.g 0"]),
            even_text(&["succ 0 +1 1", "succ 1 +1 0", "merge - 0"]),
            // A node over a symbol outside `funcs`: minimization turned it
            // into a merge over that symbol and panicked.
            even_text(&["succ 0 +1 1", "succ 1 +1 0"]).replace("node 1 +1", "node 1 g"),
        ] {
            assert!(read_spec(&text, &mut i).is_err(), "accepted:\n{text}");
        }
        for edges in [
            &[(0, 0, 1), (1, 0, 0), (1, 2, 0)][..],
            &[(0, 0, 1), (1, 0, 2)],
        ] {
            assert!(read_spec_binary(&even_binary(edges), &mut i).is_err());
        }
    }

    /// `base` plus six one-row relations, added in one order and in its
    /// reverse. The predicate names are chosen so that the two stores
    /// iterate their relations in different orders.
    fn filled_in_either_order(base: &dl::Database, i: &mut Interner) -> [dl::Database; 2] {
        let row = [Cst(i.intern("Tony"))];
        for k in 0..64 {
            let preds: Vec<Pred> = (0..6)
                .map(|j| Pred(i.intern(&format!("R{k}_{j}"))))
                .collect();
            let fill = |preds: &mut dyn Iterator<Item = &Pred>| {
                let mut db = base.clone();
                for &p in preds {
                    db.insert(p, &row);
                }
                db
            };
            let stores = [fill(&mut preds.iter()), fill(&mut preds.iter().rev())];
            let order = |db: &dl::Database| db.iter().map(|(p, _)| p).collect::<Vec<_>>();
            if order(&stores[0]) != order(&stores[1]) {
                return stores;
            }
        }
        panic!("no predicate names whose stores iterate in different orders");
    }

    #[test]
    fn text_bytes_do_not_depend_on_the_store_insertion_order() {
        let (mut i, spec, ..) = meets_spec();
        let [first, second] = filled_in_either_order(&spec.nf, &mut i);
        let text = |nf: dl::Database| {
            let mut bundle = SpecBundle {
                spec: spec.clone(),
                sym_map: FxHashMap::default(),
            };
            bundle.spec.nf = nf;
            (
                write_spec(&bundle, &i).unwrap(),
                write_spec_binary(&bundle, &i),
            )
        };
        let (text1, bytes1) = text(first);
        assert_eq!(text1.matches("\nnf ").count(), 8, "{text1}");
        assert_eq!((text1, bytes1), text(second));
    }
}
