//! Versioned binary snapshots of the row store.
//!
//! A snapshot is a self-contained image of a durable database at one
//! `RoundCommit` boundary: the file-local symbol table (in id order), the
//! logged rules, every relation's rows in insertion (RowId) order, and
//! the cumulative [`EvalStats`](fundb_datalog::EvalStats) at the boundary.
//! Once a snapshot is durable (written to a temporary file, fsynced, and
//! atomically renamed into place) the WAL it supersedes can be deleted —
//! that is the compaction path.
//!
//! ```text
//! header:  "FDBSNAP1" (8)  version u32 (=1)  seq u64
//! body:    len u64  crc u32  payload (len bytes, crc = CRC-32C of payload)
//! payload: symbols, rules, relations, stats (see `encode_body`)
//! ```
//!
//! Forward compatibility is rejection: a reader presented with a version
//! newer than it understands reports a clean error instead of guessing.

use crate::codec::{crc32c, put_str, put_u32, put_u64, CodecError, Reader};
use crate::wal::{put_atom, read_atom, WireAtom, STAT_FIELDS};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"FDBSNAP1";
/// Current snapshot format version.
pub const SNAP_VERSION: u32 = 1;

/// One relation's rows, in file-local symbol ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireRelation {
    /// File-local id of the predicate symbol.
    pub pred: u32,
    /// Number of columns.
    pub arity: u32,
    /// Number of rows (explicit, so zero-arity relations round-trip).
    pub nrows: u64,
    /// Rows flattened in insertion (RowId) order: row `i` occupies
    /// `rows[i*arity..(i+1)*arity]`.
    pub rows: Vec<u32>,
    /// Asserted (base-fact) bitmap: row `i`'s bit is
    /// `asserted[i/64] >> (i%64) & 1`, `ceil(nrows/64)` words. Loading
    /// replays asserted rows as base facts and the rest as derived, so a
    /// retraction after recovery sees the same self-support set as one
    /// before it.
    pub asserted: Vec<u64>,
}

/// A logged rule, in file-local symbol ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireRule {
    /// The head atom.
    pub head: WireAtom,
    /// The body atoms.
    pub body: Vec<WireAtom>,
}

/// The decoded content of a snapshot file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotData {
    /// The snapshot's sequence number (matches the `NNNNNN` in its file
    /// name and the `base_seq` of the WAL that extends it).
    pub seq: u64,
    /// The file-local symbol table: `symbols[i]` is the string of file id
    /// `i`. Recovery interns these in order, so a fresh interner assigns
    /// identical ids.
    pub symbols: Vec<String>,
    /// The logged rules.
    pub rules: Vec<WireRule>,
    /// Every relation, sorted by predicate file id (deterministic
    /// encoding regardless of hash-map iteration order).
    pub relations: Vec<WireRelation>,
    /// Cumulative [`EvalStats`](fundb_datalog::EvalStats) at the
    /// snapshot boundary, as a wire tuple.
    pub stats: [u64; STAT_FIELDS],
}

fn encode_body(data: &SnapshotData) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, data.symbols.len() as u32);
    for name in &data.symbols {
        put_str(&mut buf, name);
    }
    put_u32(&mut buf, data.rules.len() as u32);
    for rule in &data.rules {
        put_atom(&mut buf, &rule.head);
        put_u32(&mut buf, rule.body.len() as u32);
        for a in &rule.body {
            put_atom(&mut buf, a);
        }
    }
    put_u32(&mut buf, data.relations.len() as u32);
    for rel in &data.relations {
        put_u32(&mut buf, rel.pred);
        put_u32(&mut buf, rel.arity);
        debug_assert_eq!(rel.rows.len() as u64, rel.nrows * rel.arity as u64);
        put_u64(&mut buf, rel.nrows);
        for &c in &rel.rows {
            put_u32(&mut buf, c);
        }
        debug_assert_eq!(rel.asserted.len(), (rel.nrows as usize).div_ceil(64));
        for &w in &rel.asserted {
            put_u64(&mut buf, w);
        }
    }
    for &v in &data.stats {
        put_u64(&mut buf, v);
    }
    buf
}

fn decode_body(seq: u64, body: &[u8]) -> Result<SnapshotData, CodecError> {
    let mut r = Reader::new(body);
    let nsyms = r.u32()? as usize;
    let mut symbols = Vec::with_capacity(nsyms.min(body.len() / 4 + 1));
    for _ in 0..nsyms {
        symbols.push(r.str()?.to_string());
    }
    let nrules = r.u32()? as usize;
    let mut rules = Vec::with_capacity(nrules.min(body.len() / 9 + 1));
    for _ in 0..nrules {
        let head = read_atom(&mut r)?;
        let nbody = r.u32()? as usize;
        let mut rbody = Vec::with_capacity(nbody.min(body.len() / 9 + 1));
        for _ in 0..nbody {
            rbody.push(read_atom(&mut r)?);
        }
        rules.push(WireRule { head, body: rbody });
    }
    let nrels = r.u32()? as usize;
    let mut relations = Vec::with_capacity(nrels.min(body.len() / 16 + 1));
    for _ in 0..nrels {
        let pred = r.u32()?;
        let arity = r.u32()?;
        let nrows = r.u64()?;
        let ncells = (nrows as usize)
            .checked_mul(arity as usize)
            .ok_or(CodecError::BadValue)?;
        let mut rows = Vec::with_capacity(ncells.min(body.len() / 4 + 1));
        for _ in 0..ncells {
            rows.push(r.u32()?);
        }
        let nwords = (nrows as usize).div_ceil(64);
        let mut asserted = Vec::with_capacity(nwords.min(body.len() / 8 + 1));
        for _ in 0..nwords {
            asserted.push(r.u64()?);
        }
        relations.push(WireRelation {
            pred,
            arity,
            nrows,
            rows,
            asserted,
        });
    }
    let mut stats = [0u64; STAT_FIELDS];
    for v in stats.iter_mut() {
        *v = r.u64()?;
    }
    if !r.is_empty() {
        return Err(CodecError::BadValue);
    }
    Ok(SnapshotData {
        seq,
        symbols,
        rules,
        relations,
        stats,
    })
}

/// Writes a snapshot durably: encode, write to `<path>.tmp`, fsync,
/// rename over `path`, and fsync the directory (best effort), so a crash
/// at any point leaves either the old file or the complete new one.
pub fn write_snapshot(path: &Path, data: &SnapshotData) -> io::Result<()> {
    let body = encode_body(data);
    let mut out = Vec::with_capacity(body.len() + 32);
    out.extend_from_slice(&SNAP_MAGIC);
    put_u32(&mut out, SNAP_VERSION);
    put_u64(&mut out, data.seq);
    put_u64(&mut out, body.len() as u64);
    put_u32(&mut out, crc32c(&body));
    out.extend_from_slice(&body);

    let tmp = path.with_extension("tmp");
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&out)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Directory sync makes the rename itself durable; not all
        // filesystems support opening a directory, so failures are
        // tolerated.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads and validates a snapshot file. Bad magic, a version this build
/// does not understand, a length/CRC mismatch, or a malformed body all
/// report [`io::ErrorKind::InvalidData`] — the caller falls back to an
/// older snapshot.
pub fn read_snapshot(path: &Path) -> io::Result<SnapshotData> {
    let data = fs::read(path)?;
    if data.len() < 8 + 4 + 8 + 8 + 4 || data[..8] != SNAP_MAGIC {
        return Err(invalid("not a fundb snapshot (bad magic or truncated)"));
    }
    let mut r = Reader::new(&data[8..]);
    let version = r.u32().map_err(|e| invalid(e.to_string()))?;
    if version > SNAP_VERSION {
        return Err(invalid(format!(
            "snapshot format version {version} is from a newer build (this build reads ≤ {SNAP_VERSION})"
        )));
    }
    if version != SNAP_VERSION {
        return Err(invalid(format!("unknown snapshot version {version}")));
    }
    let seq = r.u64().map_err(|e| invalid(e.to_string()))?;
    let len = r.u64().map_err(|e| invalid(e.to_string()))? as usize;
    let crc = r.u32().map_err(|e| invalid(e.to_string()))?;
    let body = r
        .bytes(len)
        .map_err(|_| invalid("snapshot body truncated"))?;
    if !r.is_empty() {
        return Err(invalid("trailing bytes after snapshot body"));
    }
    if crc32c(body) != crc {
        return Err(invalid("snapshot body checksum mismatch"));
    }
    decode_body(seq, body).map_err(|e| invalid(format!("snapshot body malformed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WireTerm;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fundb-snap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SnapshotData {
        SnapshotData {
            seq: 3,
            symbols: vec!["edge".into(), "path".into(), "a".into(), "b".into()],
            rules: vec![WireRule {
                head: WireAtom {
                    pred: 1,
                    args: vec![WireTerm::Var(2), WireTerm::Var(3)],
                },
                body: vec![WireAtom {
                    pred: 0,
                    args: vec![WireTerm::Var(2), WireTerm::Var(3)],
                }],
            }],
            relations: vec![
                WireRelation {
                    pred: 0,
                    arity: 2,
                    nrows: 1,
                    rows: vec![2, 3],
                    asserted: vec![0b1],
                },
                WireRelation {
                    pred: 1,
                    arity: 2,
                    nrows: 2,
                    rows: vec![2, 3, 3, 2],
                    asserted: vec![0b00],
                },
            ],
            stats: [4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("snapshot.000003");
        write_snapshot(&path, &sample()).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), sample());
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_atom_count_in_a_crc_valid_body_is_rejected() {
        let dir = tmpdir("oversized-atom");
        let path = dir.join("snapshot.000001");
        // No symbols, one rule whose head claims u32::MAX arguments; the
        // CRC is correct, so only the decoder stands between the count
        // and the allocator.
        let mut body = Vec::new();
        put_u32(&mut body, 0);
        put_u32(&mut body, 1);
        put_u32(&mut body, 0);
        put_u32(&mut body, u32::MAX);
        let mut file = Vec::new();
        file.extend_from_slice(&SNAP_MAGIC);
        put_u32(&mut file, SNAP_VERSION);
        put_u64(&mut file, 1);
        put_u64(&mut file, body.len() as u64);
        put_u32(&mut file, crc32c(&body));
        file.extend_from_slice(&body);
        std::fs::write(&path, &file).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_and_future_versions_are_rejected() {
        let dir = tmpdir("reject");
        let path = dir.join("snapshot.000003");
        write_snapshot(&path, &sample()).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flipped body byte → checksum mismatch.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncated body.
        std::fs::write(&path, &good[..good.len() - 2]).unwrap();
        assert!(read_snapshot(&path).is_err());

        // Future version → explicit forward-compat rejection.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("newer build"), "{err}");

        // Wrong magic.
        let mut magic = good.clone();
        magic[0] ^= 0xFF;
        std::fs::write(&path, &magic).unwrap();
        assert!(read_snapshot(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
