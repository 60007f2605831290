//! Serialization of temporal lasso specifications.
//!
//! The temporal instance of "the rules may be forgotten": a lasso is fully
//! described by its prefix and cycle slices plus the relational store. The
//! format mirrors `fundb_core::spec_io`:
//!
//! ```text
//! fundblasso 1
//! rho 0
//! lambda 2
//! atom p 0 Meets Tony      # prefix slice at position 0
//! atom c 1 Meets Jan       # cycle slice at phase 1
//! nf Next Tony Jan
//! end
//! ```

use crate::line::TemporalClass;
use crate::spec::TemporalSpec;
use fundb_core::error::{Error, Result};
use fundb_core::gendb::AtomInterner;
use fundb_core::state::State;
use fundb_datalog as dl;
use fundb_term::{Cst, Interner, Pred};

/// Serializes a lasso specification.
pub fn write_lasso(spec: &TemporalSpec, interner: &Interner) -> String {
    let name = |s: fundb_term::Sym| -> &str {
        let n = interner.resolve(s);
        assert!(
            !n.contains(char::is_whitespace) && !n.is_empty(),
            "symbol `{n}` is not serializable"
        );
        n
    };
    let mut out = String::from("fundblasso 1\n");
    out.push_str(&format!("rho {}\n", spec.rho()));
    out.push_str(&format!("lambda {}\n", spec.lambda()));
    let mut emit = |tag: char, idx: usize, state: &State| {
        for id in state.iter() {
            let (p, args) = spec.atoms.resolve(id);
            out.push_str(&format!("atom {tag} {idx} {}", name(p.sym())));
            for a in args {
                out.push(' ');
                out.push_str(name(a.sym()));
            }
            out.push('\n');
        }
    };
    for (i, s) in spec.prefix.iter().enumerate() {
        emit('p', i, s);
    }
    for (i, s) in spec.cycle.iter().enumerate() {
        emit('c', i, s);
    }
    // By predicate name, so the bytes do not depend on hash-map history.
    let mut rels: Vec<(Pred, &dl::Relation)> = spec.nf.iter().collect();
    rels.sort_by_key(|(p, _)| interner.resolve(p.sym()));
    for (p, rel) in rels {
        for row in rel.rows() {
            out.push_str(&format!("nf {}", name(p.sym())));
            for a in row.iter() {
                out.push(' ');
                out.push_str(name(a.sym()));
            }
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

/// Parses a lasso specification, interning symbol names into `interner`.
pub fn read_lasso(text: &str, interner: &mut Interner) -> Result<TemporalSpec> {
    let err = |lineno: usize, detail: &str| Error::Parse {
        offset: lineno,
        detail: format!("lasso file line {}: {detail}", lineno + 1),
    };
    let mut lines = text.lines().enumerate();
    let (n0, header) = lines.next().ok_or_else(|| err(0, "empty file"))?;
    if header.trim() != "fundblasso 1" {
        return Err(err(n0, "expected header `fundblasso 1`"));
    }
    let mut rho: Option<usize> = None;
    let mut lambda: Option<usize> = None;
    let mut atoms = AtomInterner::new();
    let mut prefix: Vec<State> = Vec::new();
    let mut cycle: Vec<State> = Vec::new();
    let mut nf = dl::Database::new();
    let mut ended = false;
    // `rho`/`lambda` size the state vectors, so they are capped by the
    // file's length: a short file cannot demand a huge allocation. Empty
    // states are not written out, so a lasso with more empty time points
    // than its file has bytes (say, one fact at a very deep time point) is
    // refused and has to be recomputed from its program instead.
    let length = |lineno: usize, v: &str, what: &str| -> Result<usize> {
        let n: usize = v
            .parse()
            .map_err(|_| err(lineno, &format!("malformed {what}")))?;
        if n > text.len() {
            return Err(err(lineno, &format!("{what} {n} exceeds the file's size")));
        }
        Ok(n)
    };

    for (lineno, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["rho", v] => {
                let n = length(lineno, v, "rho")?;
                rho = Some(n);
                prefix = vec![State::new(); n];
            }
            ["lambda", v] => {
                let n = length(lineno, v, "lambda")?;
                lambda = Some(n);
                cycle = vec![State::new(); n];
            }
            ["atom", tag, idx, pred, args @ ..] => {
                let idx: usize = idx.parse().map_err(|_| err(lineno, "malformed index"))?;
                let pred = Pred(interner.intern(pred));
                let row: Vec<Cst> = args.iter().map(|n| Cst(interner.intern(n))).collect();
                let id = atoms.intern(pred, &row);
                let slot = match *tag {
                    "p" => prefix.get_mut(idx),
                    "c" => cycle.get_mut(idx),
                    _ => return Err(err(lineno, "atom tag must be `p` or `c`")),
                };
                slot.ok_or_else(|| err(lineno, "atom index out of range"))?
                    .insert(id);
            }
            ["nf", pred, args @ ..] => {
                let pred = Pred(interner.intern(pred));
                let row: Vec<Cst> = args.iter().map(|n| Cst(interner.intern(n))).collect();
                if nf
                    .relation(pred)
                    .is_some_and(|rel| rel.arity() != row.len())
                {
                    return Err(err(lineno, "`nf` predicate used with two arities"));
                }
                nf.insert(pred, &row);
            }
            ["end"] => {
                ended = true;
                break;
            }
            _ => return Err(err(lineno, "unknown or malformed line")),
        }
    }
    if !ended {
        return Err(Error::Parse {
            offset: 0,
            detail: "lasso file missing `end`".into(),
        });
    }
    let (Some(_), Some(lambda)) = (rho, lambda) else {
        return Err(Error::Parse {
            offset: 0,
            detail: "lasso file missing rho/lambda".into(),
        });
    };
    if lambda == 0 {
        return Err(Error::Parse {
            offset: 0,
            detail: "lambda must be positive".into(),
        });
    }
    Ok(TemporalSpec {
        prefix,
        cycle,
        atoms,
        nf,
        class: TemporalClass::Forward,
    })
}

/// Reads a lasso file from disk. I/O failures become [`Error::Io`] and
/// malformed content becomes [`Error::Parse`] — never a panic.
pub fn read_lasso_file(path: &str, interner: &mut Interner) -> Result<TemporalSpec> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, &e))?;
    read_lasso(&text, interner)
}

/// Writes a lasso file to disk, mapping I/O failures to [`Error::Io`].
pub fn write_lasso_file(path: &str, spec: &TemporalSpec, interner: &Interner) -> Result<()> {
    let text = write_lasso(spec, interner);
    std::fs::write(path, text).map_err(|e| Error::io(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_parser::Workspace;

    fn scheduler_spec() -> (Interner, TemporalSpec) {
        let mut ws = Workspace::new();
        ws.parse(
            "In(t, g, r1), Rotates(g, r1, r2) -> In(t+1, g, r2).
             In(0, Alpha, Lab).
             Rotates(Alpha, Lab, Aud). Rotates(Alpha, Aud, Lab).",
        )
        .unwrap();
        let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
        (ws.interner, spec)
    }

    #[test]
    fn lasso_round_trips() {
        let (i, spec) = scheduler_spec();
        let text = write_lasso(&spec, &i);
        let mut fresh = Interner::new();
        let loaded = read_lasso(&text, &mut fresh).unwrap();
        assert_eq!(loaded.rho(), spec.rho());
        assert_eq!(loaded.lambda(), spec.lambda());
        let in_pred_old = Pred(i.get("In").unwrap());
        let in_pred_new = Pred(fresh.get("In").unwrap());
        let alpha_old = Cst(i.get("Alpha").unwrap());
        let alpha_new = Cst(fresh.get("Alpha").unwrap());
        let lab_old = Cst(i.get("Lab").unwrap());
        let lab_new = Cst(fresh.get("Lab").unwrap());
        for n in 0..20u64 {
            assert_eq!(
                spec.holds(in_pred_old, n, &[alpha_old, lab_old]),
                loaded.holds(in_pred_new, n, &[alpha_new, lab_new]),
                "n={n}"
            );
        }
        // Canonical: a second round trip is byte-identical.
        assert_eq!(text, write_lasso(&loaded, &fresh));
    }

    #[test]
    fn reader_rejects_malformed_input() {
        let mut i = Interner::new();
        for bad in [
            "",
            "fundblasso 2\nend\n",
            "fundblasso 1\nrho 0\nlambda 1\n", // no end
            "fundblasso 1\nrho 0\nlambda 0\nend\n",
            "fundblasso 1\nrho 0\nlambda 1\natom x 0 P\nend\n",
            "fundblasso 1\nrho 0\nlambda 1\natom c 5 P\nend\n",
            "fundblasso 1\nbogus\nend\n",
            // Lengths far beyond the file: rejected before allocating.
            "fundblasso 1\nrho 18446744073709551615\nlambda 1\nend\n",
            "fundblasso 1\nrho 0\nlambda 18446744073709551615\nend\n",
            "fundblasso 1\nrho 4000000000\nlambda 1\nend\n",
            // One `nf` predicate at two arities.
            "fundblasso 1\nrho 0\nlambda 1\nnf P a\nnf P a b\nend\n",
        ] {
            assert!(read_lasso(bad, &mut i).is_err(), "accepted: {bad:?}");
        }
    }

    /// Mutation fuzz: flipping any single line of a valid file never panics
    /// (it either parses or errors cleanly).
    #[test]
    fn reader_survives_line_mutations() {
        let (i, spec) = scheduler_spec();
        let text = write_lasso(&spec, &i);
        let lines: Vec<&str> = text.lines().collect();
        for k in 0..lines.len() {
            // Drop line k.
            let mutated: String = lines
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != k)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let mut fresh = Interner::new();
            let _ = read_lasso(&mutated, &mut fresh);
            // Duplicate line k.
            let mutated: String = lines
                .iter()
                .enumerate()
                .flat_map(|(j, l)| {
                    if j == k {
                        vec![format!("{l}\n"), format!("{l}\n")]
                    } else {
                        vec![format!("{l}\n")]
                    }
                })
                .collect();
            let mut fresh = Interner::new();
            let _ = read_lasso(&mutated, &mut fresh);
        }
    }

    /// The scheduler's lasso plus six one-row relations, written after
    /// adding them in one order and in its reverse. The predicate names
    /// are chosen so that the two stores iterate their relations in
    /// different orders.
    #[test]
    fn text_bytes_do_not_depend_on_the_store_insertion_order() {
        let (mut i, mut spec) = scheduler_spec();
        let base = spec.nf.clone();
        let row = [Cst(i.intern("Lab"))];
        let order = |db: &dl::Database| db.iter().map(|(p, _)| p).collect::<Vec<_>>();
        for k in 0..64 {
            let mut preds: Vec<Pred> = (0..6)
                .map(|j| Pred(i.intern(&format!("R{k}_{j}"))))
                .collect();
            let mut texts = Vec::new();
            let mut orders = Vec::new();
            for _ in 0..2 {
                spec.nf = base.clone();
                for &p in &preds {
                    spec.nf.insert(p, &row);
                }
                preds.reverse();
                orders.push(order(&spec.nf));
                texts.push(write_lasso(&spec, &i));
            }
            if orders[0] != orders[1] {
                assert_eq!(texts[0], texts[1]);
                return;
            }
        }
        panic!("no predicate names whose stores iterate in different orders");
    }
}
