//! The append-only write-ahead log, which is also the snapshot format.
//!
//! A log file is a fixed header followed by checksummed, length-prefixed
//! records:
//!
//! ```text
//! header:  "FDBWAL01" (8)  version u32 (=3)  base_seq u64
//! record:  len u32  crc u32  payload (len bytes, crc = CRC-32C of payload)
//! payload: kind u8  kind-specific fields
//! group:   varint pred, arity, count  then count * arity varint cells
//! stats:   varint rounds, derived, join_probes, index_hits, index_misses,
//!          magic_rules, demanded_tuples, retractions, rederived
//! ```
//!
//! `base_seq` names the snapshot the log extends: replaying the log onto
//! snapshot `base_seq` reconstructs the database. Every row the log
//! carries is written as a row *group* by `put_group` and read back by
//! one reader, in file-local symbol ids: a cell takes one byte below id
//! 128 and two below 16,384, and must fit a `u32`. The stats are the
//! cumulative [`EvalStats`]; its always-zero `replans`, `bloom_skips` and
//! `shared_prefix_hits` are not journaled and recover as 0. Record kinds:
//!
//! * `DefSym` (1) — defines file-local symbol id `n` (dense, in order) as
//!   a string, so the recovered interner assigns identical ids when it
//!   starts empty;
//! * `Fact` (2) — inserted base rows, as groups;
//! * `RoundCommit` (3) — a completed-round marker: stats, then zero or
//!   more groups, the rows the round derived in commit order (one frame,
//!   one checksum and one fault point per round). **Recovery replays only
//!   up to the last intact marker**: everything after it (intact or torn)
//!   is truncated, which is what makes recovery land on a completed-round
//!   prefix of the uninterrupted run;
//! * `Rule` (4) — a logged rule definition;
//! * `Note` (5) — an opaque UTF-8 payload for upper layers (the REPL logs
//!   accepted input lines this way);
//! * `Retract` (10) — one completed retraction round: stats, then the
//!   over-delete set (the asserted target first, never empty) and the rows
//!   re-derivation restored, both as groups in execution order, so replay
//!   reproduces the tombstones of the uninterrupted run (every insert
//!   appends, so RowIds follow from record order alone). Like
//!   `RoundCommit` it is a **commit marker**: a crash mid-retraction
//!   leaves no `Retract` record, recovery truncates to the previous
//!   marker, and the retraction simply never happened;
//! * `Seal` (11) — stats; the marker that closes a snapshot.
//!
//! Kinds 6–9 are retired (version 1's row records) and rejected like any
//! unknown kind.
//!
//! A snapshot is a log with base sequence `seq` that rebuilds the store
//! from nothing: `DefSym`s, `Rule`s, `Note`s, the rows in RowId order (a
//! run of base rows in `Fact`s, a run of derived rows in `RoundCommit`s),
//! then one `Seal` at end of file. One frame scan reads both kinds of
//! file.
//!
//! The IO faults of [`FaultPlan`] (`torn_write`, `short_read`,
//! `fsync_fail`, `crash_after_record`) are injected here, at the record
//! granularity the crash-recovery harness enumerates.

use crate::codec::{crc32c, put_str, put_u32, put_u64, put_uv, CodecError, Reader};
use fundb_datalog::{EvalStats, FaultPlan};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"FDBWAL01";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 3;
/// Header length: magic + version + base sequence number.
pub const WAL_HEADER_LEN: u64 = 8 + 4 + 8;

/// Appended bytes buffered in memory before an automatic write-through.
/// A handle allocates its buffer at this size once: regrowing it between
/// the database's own large allocations left a heap layout that slowed
/// the `durable_churn` benchmark's set-up by about 15%.
const FLUSH_THRESHOLD: usize = 256 * 1024;

/// Writes the journaled counters of `s` as varints.
fn put_stats(buf: &mut Vec<u8>, s: &EvalStats) {
    for v in [
        s.rounds,
        s.derived,
        s.join_probes,
        s.index_hits,
        s.index_misses,
        s.magic_rules,
        s.demanded_tuples,
        s.retractions,
        s.rederived,
    ] {
        put_uv(buf, v as u64);
    }
}

/// Inverse of [`put_stats`]; the counters it does not journal read 0.
fn read_stats(r: &mut Reader<'_>) -> Result<EvalStats, CodecError> {
    let mut v = [0usize; 9];
    for x in &mut v {
        *x = usize::try_from(r.uv()?).map_err(|_| CodecError::BadValue)?;
    }
    let [rounds, derived, join_probes, index_hits, index_misses, magic_rules, demanded_tuples, retractions, rederived] =
        v;
    Ok(EvalStats {
        rounds,
        derived,
        join_probes,
        index_hits,
        index_misses,
        magic_rules,
        demanded_tuples,
        retractions,
        rederived,
        ..EvalStats::default()
    })
}

/// One term of a logged rule, in file-local symbol ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireTerm {
    /// A variable.
    Var(u32),
    /// A constant.
    Const(u32),
}

/// One atom of a logged rule, in file-local symbol ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireAtom {
    /// File-local id of the predicate symbol.
    pub pred: u32,
    /// The argument terms.
    pub args: Vec<WireTerm>,
}

/// Rows in file-local ids, in the groups the log writes: each group one
/// predicate and arity, its rows row-major in one cell vector. Flat, so
/// decoding a record allocates per record, not per row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireRows {
    /// `(pred, arity, count)` of each group, in order.
    groups: Vec<(u32, usize, usize)>,
    /// The cells of every group, row-major, in group order.
    cells: Vec<u32>,
}

impl WireRows {
    /// Appends a row: to the last group when it has the same predicate
    /// and arity, else as a new group. A cell-less row always starts a
    /// group, as the log bounds no count of them.
    pub fn push(&mut self, pred: u32, row: &[u32]) {
        match self.groups.last_mut() {
            Some((p, a, n)) if *p == pred && *a == row.len() && !row.is_empty() => *n += 1,
            _ => self.groups.push((pred, row.len(), 1)),
        }
        self.cells.extend_from_slice(row);
    }

    /// The rows in order, as `(pred, cells)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> {
        let mut start = 0;
        self.groups.iter().flat_map(move |&(pred, arity, count)| {
            let cells = &self.cells[start..start + arity * count];
            start += arity * count;
            (0..count).map(move |i| (pred, &cells[i * arity..(i + 1) * arity]))
        })
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.2).sum()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// A decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Defines file-local symbol id `id` (dense, in file order) as `name`.
    DefSym {
        /// The file-local id being defined (must equal the count of
        /// previously defined symbols).
        id: u32,
        /// The symbol's string.
        name: String,
    },
    /// Inserted base rows, in insertion order.
    Fact {
        /// The rows.
        rows: WireRows,
    },
    /// A completed-round marker: the cumulative statistics at a
    /// governor checkpoint boundary, with the round's derived rows fused
    /// into the same record. Recovery replays up to the last one.
    RoundCommit {
        /// Cumulative [`EvalStats`] at the boundary.
        stats: EvalStats,
        /// The rows this round derived, in commit order (relations in
        /// predicate order, rows in insertion order); empty for bare
        /// markers such as base-fact commits.
        rows: WireRows,
    },
    /// A logged rule definition.
    Rule {
        /// The head atom.
        head: WireAtom,
        /// The body atoms.
        body: Vec<WireAtom>,
    },
    /// An opaque UTF-8 payload for upper layers.
    Note {
        /// The payload.
        text: String,
    },
    /// One completed retraction round, recorded as a commit marker (a
    /// crash before this record lands leaves the pre-retraction state).
    /// Replay clears the asserted bit of `deleted[0]` and tombstones the
    /// deleted rows that were not restored, reproducing the tombstones of
    /// the uninterrupted run.
    Retract {
        /// Cumulative [`EvalStats`] after the retraction round.
        stats: EvalStats,
        /// Every row the over-delete pass tombstoned, the retracted fact
        /// first, in discovery order.
        deleted: WireRows,
        /// Rows re-derivation restored in place, in restoration order.
        restored: WireRows,
    },
    /// The marker that closes a snapshot.
    Seal {
        /// Cumulative [`EvalStats`] at the snapshot.
        stats: EvalStats,
    },
}

const KIND_DEFSYM: u8 = 1;
const KIND_FACT: u8 = 2;
const KIND_ROUND_COMMIT: u8 = 3;
pub(crate) const KIND_RULE: u8 = 4;
const KIND_NOTE: u8 = 5;
const KIND_RETRACT: u8 = 10;
const KIND_SEAL: u8 = 11;

fn put_atom(buf: &mut Vec<u8>, atom: &WireAtom) {
    put_u32(buf, atom.pred);
    put_u32(buf, atom.args.len() as u32);
    for a in &atom.args {
        let (tag, id) = match a {
            WireTerm::Var(v) => (0, v),
            WireTerm::Const(c) => (1, c),
        };
        buf.push(tag);
        put_u32(buf, *id);
    }
}

/// Decodes one rule atom. The argument count is untrusted, so the
/// pre-allocation is capped by the arguments the remaining bytes could
/// hold (5 bytes each).
fn read_atom(r: &mut Reader<'_>) -> Result<WireAtom, CodecError> {
    let pred = r.u32()?;
    let n = r.u32()? as usize;
    let mut args = Vec::with_capacity(n.min(r.remaining() / 5 + 1));
    for _ in 0..n {
        let tag = r.u8()?;
        let id = r.u32()?;
        args.push(match tag {
            0 => WireTerm::Var(id),
            1 => WireTerm::Const(id),
            _ => return Err(CodecError::BadValue),
        });
    }
    Ok(WireAtom { pred, args })
}

/// Appends one row group: varint `pred, arity, count`, then the
/// `count * arity` cells (row-major) as varints. The only row writer of
/// the log. Cell-less rows carry no payload to bound a count by, so each
/// goes in a group of its own.
pub(crate) fn put_group(
    buf: &mut Vec<u8>,
    pred: u32,
    arity: usize,
    count: usize,
    cells: impl IntoIterator<Item = u32>,
) {
    let (groups, count) = if arity == 0 { (count, 1) } else { (1, count) };
    for _ in 0..groups {
        put_uv(buf, u64::from(pred));
        put_uv(buf, arity as u64);
        put_uv(buf, count as u64);
    }
    for c in cells {
        put_uv(buf, u64::from(c));
    }
}

/// Writes `rows`, group by group.
fn put_rows(buf: &mut Vec<u8>, rows: &WireRows) {
    let mut start = 0;
    for &(pred, arity, count) in &rows.groups {
        let cells = &rows.cells[start..start + arity * count];
        put_group(buf, pred, arity, count, cells.iter().copied());
        start += cells.len();
    }
}

/// Opens a row record's payload: a `Fact` when `stats` is `None`, else a
/// `RoundCommit` carrying them. Its groups follow.
pub(crate) fn put_row_kind(buf: &mut Vec<u8>, stats: Option<&EvalStats>) {
    match stats {
        None => buf.push(KIND_FACT),
        Some(s) => {
            buf.push(KIND_ROUND_COMMIT);
            put_stats(buf, s);
        }
    }
}

/// A varint that must fit a `u32` (a file-local id).
fn read_id(r: &mut Reader<'_>) -> Result<u32, CodecError> {
    u32::try_from(r.uv()?).map_err(|_| CodecError::BadValue)
}

/// Reads one row group onto `rows`: the only row reader of the log. Every
/// cell takes at least one byte, so a group promising more cells than the
/// payload has left is rejected before anything is allocated for it.
fn read_group(r: &mut Reader<'_>, rows: &mut WireRows) -> Result<(), CodecError> {
    let pred = read_id(r)?;
    let arity = usize::try_from(r.uv()?).map_err(|_| CodecError::BadValue)?;
    let count = usize::try_from(r.uv()?).map_err(|_| CodecError::BadValue)?;
    let fits = count.checked_mul(arity).is_some_and(|n| n <= r.remaining());
    if count == 0 || (arity == 0 && count != 1) || !fits {
        return Err(CodecError::BadValue);
    }
    rows.groups.push((pred, arity, count));
    rows.cells.reserve(count * arity);
    for _ in 0..count * arity {
        rows.cells.push(read_id(r)?);
    }
    Ok(())
}

/// Reads groups until the reader is exhausted.
fn read_rows(r: &mut Reader<'_>) -> Result<WireRows, CodecError> {
    let mut rows = WireRows::default();
    while !r.is_empty() {
        read_group(r, &mut rows)?;
    }
    Ok(rows)
}

impl WalRecord {
    /// Whether this record is a commit marker (`RoundCommit`, `Retract`
    /// or `Seal`), which recovery may truncate to.
    pub fn is_marker(&self) -> bool {
        matches!(
            self,
            WalRecord::RoundCommit { .. } | WalRecord::Retract { .. } | WalRecord::Seal { .. }
        )
    }

    /// Serializes the record payload (kind byte plus fields).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::DefSym { id, name } => {
                buf.push(KIND_DEFSYM);
                put_u32(buf, *id);
                put_str(buf, name);
            }
            WalRecord::Fact { rows } => {
                put_row_kind(buf, None);
                put_rows(buf, rows);
            }
            WalRecord::RoundCommit { stats, rows } => {
                put_row_kind(buf, Some(stats));
                put_rows(buf, rows);
            }
            WalRecord::Retract {
                stats,
                deleted,
                restored,
            } => {
                buf.push(KIND_RETRACT);
                put_stats(buf, stats);
                // The deleted groups are length-prefixed so the decoder
                // knows where the restored groups begin.
                let mut del = Vec::new();
                put_rows(&mut del, deleted);
                put_uv(buf, del.len() as u64);
                buf.extend_from_slice(&del);
                put_rows(buf, restored);
            }
            WalRecord::Rule { head, body } => {
                buf.push(KIND_RULE);
                put_atom(buf, head);
                put_u32(buf, body.len() as u32);
                for a in body {
                    put_atom(buf, a);
                }
            }
            WalRecord::Note { text } => {
                buf.push(KIND_NOTE);
                put_str(buf, text);
            }
            WalRecord::Seal { stats } => {
                buf.push(KIND_SEAL);
                put_stats(buf, stats);
            }
        }
    }

    /// Parses a record payload. Any violation (unknown kind, short field,
    /// bad UTF-8, an id past `u32`, a `Retract` that deletes nothing) is a
    /// [`CodecError`] — during recovery that stops the scan, exactly like
    /// a CRC mismatch.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            KIND_DEFSYM => WalRecord::DefSym {
                id: r.u32()?,
                name: r.str()?.to_string(),
            },
            KIND_FACT => WalRecord::Fact {
                rows: read_rows(&mut r)?,
            },
            KIND_ROUND_COMMIT => WalRecord::RoundCommit {
                stats: read_stats(&mut r)?,
                rows: read_rows(&mut r)?,
            },
            KIND_RETRACT => {
                let stats = read_stats(&mut r)?;
                let dlen = usize::try_from(r.uv()?).map_err(|_| CodecError::BadValue)?;
                let deleted = read_rows(&mut Reader::new(r.bytes(dlen)?))?;
                if deleted.is_empty() {
                    return Err(CodecError::BadValue);
                }
                WalRecord::Retract {
                    stats,
                    deleted,
                    restored: read_rows(&mut r)?,
                }
            }
            KIND_RULE => {
                let head = read_atom(&mut r)?;
                let n = r.u32()? as usize;
                let mut body = Vec::with_capacity(n.min(payload.len() / 9 + 1));
                for _ in 0..n {
                    body.push(read_atom(&mut r)?);
                }
                WalRecord::Rule { head, body }
            }
            KIND_NOTE => WalRecord::Note {
                text: r.str()?.to_string(),
            },
            KIND_SEAL => WalRecord::Seal {
                stats: read_stats(&mut r)?,
            },
            _ => return Err(CodecError::BadValue),
        };
        if !r.is_empty() {
            return Err(CodecError::BadValue);
        }
        Ok(rec)
    }
}

/// Appends a log header extending snapshot `base_seq`.
pub(crate) fn put_header(buf: &mut Vec<u8>, base_seq: u64) {
    buf.extend_from_slice(&WAL_MAGIC);
    put_u32(buf, WAL_VERSION);
    put_u64(buf, base_seq);
}

/// Appends one record frame: the payload `build` writes, behind its
/// length and checksum. A payload too long for the `u32` length field is
/// taken back out and refused.
pub(crate) fn put_frame(buf: &mut Vec<u8>, build: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 8]);
    build(buf);
    let Ok(len) = u32::try_from(buf.len() - start - 8) else {
        buf.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "WAL record payload exceeds u32::MAX bytes",
        ));
    };
    let crc = crc32c(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Lifetime counters of one [`Wal`] handle (since open/create), surfaced
/// by the REPL's `:wal-stats`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended through this handle.
    pub records: u64,
    /// Frame bytes appended (headers included).
    pub bytes: u64,
    /// Commit markers (`RoundCommit` or `Retract`) among the appended
    /// records.
    pub round_commits: u64,
    /// Buffered bytes handed to the OS (`flush` calls that wrote).
    pub flushes: u64,
    /// Durability syncs (`fsync`) completed.
    pub syncs: u64,
}

/// An open, append-only WAL handle.
///
/// Appends buffer in memory and reach the OS on [`flush`](Wal::flush)
/// (automatic past a threshold), so the durability window is "everything
/// flushed"; [`sync`](Wal::sync) additionally fsyncs. The
/// [`FaultPlan`] IO faults are evaluated per handle, counting appended
/// records from 1.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    buf: Vec<u8>,
    fault: FaultPlan,
    /// Records appended through this handle (fault counters key off this).
    appended: u64,
    /// Durability syncs attempted through this handle.
    sync_attempts: u64,
    /// Set once an injected fault killed the handle; every later
    /// operation fails with this message.
    dead: Option<String>,
    stats: WalStats,
}

fn dead_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, msg.to_string())
}

impl Wal {
    /// Creates (truncating) a WAL file whose records extend snapshot
    /// `base_seq`, under the given fault plan.
    pub fn create(path: &Path, base_seq: u64, fault: FaultPlan) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        put_header(&mut header, base_seq);
        file.write_all(&header)?;
        file.flush()?;
        Ok(Wal::over(file, path, fault))
    }

    /// Opens an existing WAL file for appending, validating its header,
    /// and returns the handle plus the header's base sequence number.
    /// Call after [`recover`] has truncated the torn tail.
    pub fn open_append(path: &Path, fault: FaultPlan) -> io::Result<(Wal, u64)> {
        let mut file = OpenOptions::new().read(true).append(true).open(path)?;
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "WAL header truncated"))?;
        let base_seq = check_header(&header)?;
        file.seek(SeekFrom::End(0))?;
        Ok((Wal::over(file, path, fault), base_seq))
    }

    fn over(file: File, path: &Path, fault: FaultPlan) -> Wal {
        Wal {
            file,
            path: path.to_path_buf(),
            buf: Vec::with_capacity(FLUSH_THRESHOLD),
            fault,
            appended: 0,
            sync_attempts: 0,
            dead: None,
            stats: WalStats::default(),
        }
    }

    /// The file this handle appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// This handle's lifetime counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Bytes buffered but not yet handed to the OS.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Appends one record (buffered).
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.append_with(rec.is_marker(), |buf| rec.encode(buf))
    }

    /// Appends a `RoundCommit` marker carrying `stats` and the round's
    /// row groups, written by [`put_group`] (empty for a bare marker) —
    /// the engine sink's path: one frame, one checksum, and one fault
    /// point per round.
    pub(crate) fn append_round_commit(
        &mut self,
        stats: &EvalStats,
        groups: &[u8],
    ) -> io::Result<()> {
        self.append_with(true, |buf| {
            put_row_kind(buf, Some(stats));
            buf.extend_from_slice(groups);
        })
    }

    /// Core append: frames the payload written by `build`, applying the
    /// `crash_after_record` and `torn_write` faults at record granularity.
    fn append_with(&mut self, commit: bool, build: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        if let Some(msg) = &self.dead {
            return Err(dead_err(msg));
        }
        if self
            .fault
            .crash_after_record
            .is_some_and(|limit| self.appended >= limit as u64)
        {
            // A real crash would leave whatever was already handed to the
            // OS; flush so the harness observes exactly that.
            let _ = self.write_through();
            return Err(self.kill("injected crash_after_record fault: WAL handle is dead"));
        }
        let start = self.buf.len();
        put_frame(&mut self.buf, build)?;

        let this_record = self.appended + 1;
        if self.fault.torn_write == Some(this_record as usize) {
            // The record reaches the file only as a prefix, as if the
            // process died mid-write; prior records land intact first.
            let frame = self.buf.split_off(start);
            self.write_through()?;
            let cut = (frame.len() / 2).max(1).min(frame.len() - 1);
            self.file.write_all(&frame[..cut])?;
            let _ = self.file.flush();
            return Err(self.kill("injected torn_write fault: WAL handle is dead"));
        }

        self.appended = this_record;
        self.stats.records += 1;
        self.stats.bytes += (self.buf.len() - start) as u64;
        if commit {
            self.stats.round_commits += 1;
        }
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.write_through()?;
        }
        Ok(())
    }

    /// Marks the handle dead and returns the error every later call gets.
    fn kill(&mut self, msg: &str) -> io::Error {
        self.dead = Some(msg.to_string());
        dead_err(msg)
    }

    fn write_through(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.buf.clear();
        self.stats.flushes += 1;
        Ok(())
    }

    /// Hands every buffered byte to the OS (no fsync). After a successful
    /// flush the appended records survive a process kill, though not
    /// necessarily a power loss.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(msg) = &self.dead {
            return Err(dead_err(msg));
        }
        self.write_through()
    }

    /// Flushes and fsyncs: the full durability barrier. Subject to the
    /// `fsync_fail` fault (which fails the call but leaves the handle
    /// usable — callers decide whether to retry or surface it).
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(msg) = &self.dead {
            return Err(dead_err(msg));
        }
        self.sync_attempts += 1;
        if self.fault.fsync_fail == Some(self.sync_attempts as usize) {
            return Err(io::Error::other("injected fsync_fail fault"));
        }
        self.write_through()?;
        self.file.sync_data()?;
        self.stats.syncs += 1;
        Ok(())
    }
}

fn check_header(header: &[u8]) -> io::Result<u64> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if header.len() < WAL_HEADER_LEN as usize {
        return Err(invalid("WAL header truncated".into()));
    }
    if header[..8] != WAL_MAGIC {
        return Err(invalid("not a fundb WAL file (bad magic)".into()));
    }
    let mut r = Reader::new(&header[8..]);
    let version = r.u32().map_err(|e| invalid(e.to_string()))?;
    if version != WAL_VERSION {
        return Err(invalid(format!(
            "WAL format version {version} is not supported (this build reads {WAL_VERSION})"
        )));
    }
    r.u64().map_err(|e| invalid(e.to_string()))
}

/// What the frame scan found in a log image: the replayable record prefix plus
/// an account of everything past it.
#[derive(Debug)]
pub struct WalScan {
    /// The snapshot sequence number this log extends.
    pub base_seq: u64,
    /// The records up to and including the last intact commit marker —
    /// the completed-round prefix to replay.
    pub records: Vec<WalRecord>,
    /// Intact records *after* the last marker, dropped because their round
    /// never committed.
    pub dropped_records: usize,
    /// Bytes past the last marker: the dropped records plus any torn or
    /// corrupt tail.
    pub truncated_bytes: u64,
}

/// Reads a log image (a WAL or a snapshot): checks the header, decodes
/// records until the first torn, corrupt or malformed frame or the end,
/// and keeps those up to the last intact commit marker. The `short_read`
/// fault makes the scan treat the `N`-th record as cut off by
/// end-of-file.
pub(crate) fn scan(data: &[u8], fault: FaultPlan) -> io::Result<WalScan> {
    let base_seq = check_header(data)?;
    let mut pos = WAL_HEADER_LEN as usize;
    let mut records = Vec::new();
    // Offset just past the last intact commit marker, and its record count.
    let mut marker: (usize, usize) = (pos, 0);
    while pos < data.len() && fault.short_read != Some(records.len() + 1) {
        let mut r = Reader::new(&data[pos..]);
        let (Ok(len), Ok(crc)) = (r.u32(), r.u32()) else {
            break; // torn frame header
        };
        let Ok(payload) = r.bytes(len as usize) else {
            break; // torn payload
        };
        if crc32c(payload) != crc {
            break; // corrupt record
        }
        let Ok(rec) = WalRecord::decode(payload) else {
            break; // CRC-clean but malformed: stop, like corruption
        };
        pos += 8 + payload.len();
        let is_marker = rec.is_marker();
        records.push(rec);
        if is_marker {
            marker = (pos, records.len());
        }
    }
    let (cut_at, keep) = marker;
    let dropped_records = records.len() - keep;
    records.truncate(keep);
    Ok(WalScan {
        base_seq,
        records,
        dropped_records,
        truncated_bytes: (data.len() - cut_at) as u64,
    })
}

/// Scans a WAL file and truncates it to its last intact commit marker
/// (cutting torn/corrupt records and uncommitted tails), returning the
/// replayable prefix.
pub fn recover(path: &Path, fault: FaultPlan) -> io::Result<WalScan> {
    let data = std::fs::read(path)?;
    let scan = scan(&data, fault)?;
    if scan.truncated_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(data.len() as u64 - scan.truncated_bytes)?;
        file.sync_data()?;
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fundb-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rows(list: &[(u32, &[u32])]) -> WireRows {
        let mut rows = WireRows::default();
        for (pred, row) in list {
            rows.push(*pred, row);
        }
        rows
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::DefSym {
                id: 0,
                name: "edge".into(),
            },
            WalRecord::Fact {
                rows: rows(&[(0, &[1, 2]), (0, &[2, 2]), (4, &[])]),
            },
            WalRecord::Rule {
                head: WireAtom {
                    pred: 0,
                    args: vec![WireTerm::Var(3), WireTerm::Const(1)],
                },
                body: vec![WireAtom {
                    pred: 0,
                    args: vec![WireTerm::Var(3), WireTerm::Var(4)],
                }],
            },
            WalRecord::RoundCommit {
                stats: some_stats(),
                rows: rows(&[(0, &[1, 2]), (0, &[2, 5]), (3, &[])]),
            },
            WalRecord::Note {
                text: "p(X) :- q(X).".into(),
            },
            WalRecord::RoundCommit {
                stats: EvalStats::default(),
                rows: WireRows::default(),
            },
        ]
    }

    /// Every journaled counter distinct and nonzero, one past the
    /// one-byte varint range.
    fn some_stats() -> EvalStats {
        EvalStats {
            rounds: 1,
            derived: 2,
            join_probes: 300,
            index_hits: 4,
            index_misses: 5,
            magic_rules: 6,
            demanded_tuples: 7,
            retractions: 11,
            rederived: 12,
            ..EvalStats::default()
        }
    }

    #[test]
    fn records_round_trip_through_files() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.000001");
        let mut wal = Wal::create(&path, 1, FaultPlan::default()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.stats().records, 6);
        assert_eq!(wal.stats().round_commits, 2);
        drop(wal);
        let scan = recover(&path, FaultPlan::default()).unwrap();
        assert_eq!(scan.base_seq, 1);
        assert_eq!(scan.records, sample_records());
        assert_eq!(scan.dropped_records, 0);
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_groups_ride_in_their_round_commit() {
        let dir = tmpdir("groups");
        let path = dir.join("wal.000000");
        let mut wal = Wal::create(&path, 0, FaultPlan::default()).unwrap();
        // The buffer the storage sink builds: one 2-cell group of two rows
        // (ids on both sides of the 1- and 2-byte varint bounds, and the
        // widest id), then two cell-less rows.
        let mut groups = Vec::new();
        put_group(&mut groups, 0, 2, 2, [127, 128, 16_384, u32::MAX]);
        put_group(&mut groups, 3, 0, 2, []);
        let stats = EvalStats {
            rounds: 7,
            ..EvalStats::default()
        };
        wal.append_round_commit(&stats, &groups).unwrap();
        wal.append_round_commit(&stats, &[]).unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.stats().round_commits, 2);
        drop(wal);
        let scan = recover(&path, FaultPlan::default()).unwrap();
        let rows = rows(&[
            (0, &[127, 128]),
            (0, &[16_384, u32::MAX]),
            (3, &[]),
            (3, &[]),
        ]);
        let fused = WalRecord::RoundCommit { stats, rows };
        // The record encoder writes the same bytes as the sink.
        let mut encoded = Vec::new();
        fused.encode(&mut encoded);
        assert_eq!(encoded[1 + 9..], groups[..]);
        let bare = WalRecord::RoundCommit {
            stats,
            rows: WireRows::default(),
        };
        assert_eq!(scan.records, vec![fused, bare]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_retract() -> WalRecord {
        WalRecord::Retract {
            stats: some_stats(),
            deleted: rows(&[(0, &[1, 2]), (1, &[1, 2]), (1, &[1, 5])]),
            restored: rows(&[(1, &[1, 5])]),
        }
    }

    #[test]
    fn retract_records_round_trip_and_commit() {
        let dir = tmpdir("retract");
        let path = dir.join("wal.000000");
        let mut wal = Wal::create(&path, 0, FaultPlan::default()).unwrap();
        // An empty restored list and an arity-0 target must survive the
        // length-prefixed group split too.
        let bare = WalRecord::Retract {
            stats: EvalStats::default(),
            deleted: rows(&[(7, &[])]),
            restored: WireRows::default(),
        };
        wal.append(&sample_retract()).unwrap();
        wal.append(&bare).unwrap();
        // An uncommitted fact after the last Retract marker is dropped.
        wal.append(&WalRecord::Fact {
            rows: rows(&[(0, &[4, 4])]),
        })
        .unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.stats().round_commits, 2, "Retract is a commit marker");
        drop(wal);
        let scan = recover(&path, FaultPlan::default()).unwrap();
        assert_eq!(scan.records, vec![sample_retract(), bare]);
        assert_eq!(scan.dropped_records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_truncates_to_last_marker() {
        let dir = tmpdir("truncate");
        let path = dir.join("wal.000000");
        let mut wal = Wal::create(&path, 0, FaultPlan::default()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        // Uncommitted tail: facts after the final marker must be dropped.
        wal.append(&WalRecord::Fact {
            rows: rows(&[(0, &[9, 9])]),
        })
        .unwrap();
        wal.flush().unwrap();
        drop(wal);
        let len_before = std::fs::metadata(&path).unwrap().len();
        let scan = recover(&path, FaultPlan::default()).unwrap();
        assert_eq!(scan.records, sample_records());
        assert_eq!(scan.dropped_records, 1);
        assert!(scan.truncated_bytes > 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len_before - scan.truncated_bytes
        );
        // Idempotent: a second recovery finds a clean log.
        let again = recover(&path, FaultPlan::default()).unwrap();
        assert_eq!(again.records, sample_records());
        assert_eq!(again.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_atom_count_in_a_crc_valid_rule_stops_the_scan() {
        let dir = tmpdir("oversized-atom");
        let path = dir.join("wal.000000");
        let mut wal = Wal::create(&path, 0, FaultPlan::default()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // A rule record whose head claims u32::MAX arguments, framed with
        // a correct CRC: decoding must fail cleanly, not allocate by the
        // claimed count.
        let mut payload = vec![KIND_RULE];
        put_u32(&mut payload, 0);
        put_u32(&mut payload, u32::MAX);
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32c(&payload));
        frame.extend_from_slice(&payload);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&frame).unwrap();
        drop(file);
        assert!(WalRecord::decode(&payload).is_err());
        let scan = recover(&path, FaultPlan::default()).unwrap();
        assert_eq!(scan.records, sample_records());
        assert_eq!(scan.truncated_bytes, frame.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_cuts_scan_at_previous_marker() {
        let dir = tmpdir("corrupt");
        let path = dir.join("wal.000000");
        let mut wal = Wal::create(&path, 0, FaultPlan::default()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Flip a byte inside the final marker's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = recover(&path, FaultPlan::default()).unwrap();
        assert_eq!(scan.records, sample_records()[..4].to_vec());
        assert_eq!(scan.dropped_records, 1, "the intact Note is dropped too");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_fault_leaves_prefix_and_kills_handle() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.000000");
        let fault = FaultPlan::parse("torn_write:4");
        let mut wal = Wal::create(&path, 0, fault).unwrap();
        let recs = sample_records();
        for rec in &recs[..3] {
            wal.append(rec).unwrap();
        }
        let err = wal.append(&recs[3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // Handle is dead from here on.
        assert!(wal.append(&recs[4]).is_err());
        assert!(wal.flush().is_err());
        drop(wal);
        // No marker ever landed: recovery keeps nothing.
        let scan = recover(&path, FaultPlan::default()).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_record_and_fsync_faults_fire_once_armed() {
        let dir = tmpdir("crash");
        let path = dir.join("wal.000000");
        let fault = FaultPlan::parse("crash_after_record:2,fsync_fail:1");
        let mut wal = Wal::create(&path, 0, fault).unwrap();
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        let err = wal.sync().unwrap_err();
        assert_eq!(err.to_string(), "injected fsync_fail fault");
        wal.sync().unwrap(); // only the 1st sync fails
        wal.append(&recs[1]).unwrap();
        assert_eq!(
            wal.append(&recs[2]).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_read_fault_truncates_scan() {
        let dir = tmpdir("shortread");
        let path = dir.join("wal.000000");
        let mut wal = Wal::create(&path, 0, FaultPlan::default()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Pretend record 5 is cut off: scan keeps records 1..=4 (marker).
        let scan = recover(&path, FaultPlan::parse("short_read:5")).unwrap();
        assert_eq!(scan.records, sample_records()[..4].to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_version_is_rejected() {
        let dir = tmpdir("version");
        let path = dir.join("wal.000000");
        let mut header = Vec::new();
        header.extend_from_slice(&WAL_MAGIC);
        put_u32(&mut header, WAL_VERSION + 1);
        put_u64(&mut header, 0);
        std::fs::write(&path, &header).unwrap();
        let err = recover(&path, FaultPlan::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not supported"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Appends `payload` to a log holding [`sample_records`] as one
    /// CRC-valid record, then checks that recovery stops at the last marker
    /// before it and cuts the record away.
    fn assert_scan_stops_before(tag: &str, payload: &[u8]) {
        let dir = tmpdir(tag);
        let path = dir.join("wal.000000");
        let mut wal = Wal::create(&path, 0, FaultPlan::default()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32c(payload));
        frame.extend_from_slice(payload);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&frame).unwrap();
        drop(file);
        assert!(WalRecord::decode(payload).is_err(), "{tag}: decoded");
        let scan = recover(&path, FaultPlan::default()).unwrap();
        assert_eq!(scan.records, sample_records(), "{tag}");
        assert_eq!(scan.truncated_bytes, frame.len() as u64, "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `RoundCommit` payload (zero stats) followed by `groups`.
    fn round_commit_with(groups: &[u8]) -> Vec<u8> {
        let mut payload = vec![KIND_ROUND_COMMIT];
        payload.extend_from_slice(&[0u8; 9]);
        payload.extend_from_slice(groups);
        payload
    }

    #[test]
    fn cell_above_u32_stops_the_scan() {
        let mut groups = Vec::new();
        for v in [0, 1, 1, 1u64 << 32] {
            put_uv(&mut groups, v);
        }
        assert_scan_stops_before("cell-u32", &round_commit_with(&groups));
        let mut fact = vec![KIND_FACT];
        for v in [u64::from(u32::MAX) + 1, 0, 1] {
            put_uv(&mut fact, v);
        }
        assert_scan_stops_before("pred-u32", &fact);
    }

    #[test]
    fn varint_longer_than_ten_bytes_stops_the_scan() {
        let mut groups = vec![0x80; 11];
        groups.push(0);
        assert_scan_stops_before("long-varint", &round_commit_with(&groups));
    }

    #[test]
    fn group_promising_more_cells_than_the_payload_stops_the_scan() {
        for (tag, arity, count) in [
            ("count-short", 2, 3),
            ("count-max", 1, u64::MAX),
            ("arity-max", u64::MAX, 1),
            ("product-overflow", 1 << 33, 1 << 33),
        ] {
            let mut groups = Vec::new();
            for v in [0, arity, count, 1, 2, 3, 4] {
                put_uv(&mut groups, v);
            }
            assert_scan_stops_before(tag, &round_commit_with(&groups));
        }
    }

    #[test]
    fn cell_less_group_with_count_other_than_one_stops_the_scan() {
        for count in [0, 2, u64::MAX] {
            let mut groups = Vec::new();
            for v in [0, 0, count] {
                put_uv(&mut groups, v);
            }
            assert_scan_stops_before(&format!("arity0-{count}"), &round_commit_with(&groups));
        }
    }

    #[test]
    fn retired_version_one_kinds_stop_the_scan() {
        for kind in 6u8..=9 {
            // Shaped like the version-1 record: stats, then one group.
            let mut payload = round_commit_with(&[0, 1, 1, 4, 0, 0, 0]);
            payload[0] = kind;
            assert_scan_stops_before(&format!("kind{kind}"), &payload);
        }
    }

    /// Versions 1 and 2 alike: an older log is refused whole, never
    /// truncated or started over.
    #[test]
    fn open_refuses_a_version_one_log_and_leaves_it_unchanged() {
        // A version-1 `RoundCommitRows16` record (stats, one u16 group),
        // and a version-2 `Fact` (one one-row group).
        let v1 = [&[9u8][..], &[0u8; 8 * 12], &[0, 1, 1, 4, 0]].concat();
        for (version, payload) in [(1, v1), (2, vec![KIND_FACT, 0, 1, 1, 4])] {
            let dir = tmpdir(&format!("v{version}"));
            let path = dir.join("wal.000000");
            let mut bytes = WAL_MAGIC.to_vec();
            put_u32(&mut bytes, version);
            put_u64(&mut bytes, 0);
            put_u32(&mut bytes, payload.len() as u32);
            put_u32(&mut bytes, crc32c(&payload));
            bytes.extend_from_slice(&payload);
            std::fs::write(&path, &bytes).unwrap();
            let mut interner = fundb_term::Interner::new();
            let err = crate::DurableDb::open(&dir, &mut interner).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("not supported"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn retract_deleting_nothing_stops_the_scan() {
        let mut payload = vec![KIND_RETRACT];
        payload.extend_from_slice(&[0u8; 9]);
        payload.push(0); // an empty deleted list
        assert_scan_stops_before("retract-empty", &payload);
    }

    #[test]
    fn stats_take_one_byte_per_small_counter_and_drop_the_zero_ones() {
        let mut stats = some_stats();
        let mut buf = Vec::new();
        put_stats(&mut buf, &stats);
        assert_eq!(buf.len(), 10, "nine varints, one of them two bytes");
        // The three counters that are always 0 are not journaled.
        stats.replans = 1;
        stats.bloom_skips = 2;
        stats.shared_prefix_hits = 3;
        let mut again = Vec::new();
        put_stats(&mut again, &stats);
        assert_eq!(again, buf);
        assert_eq!(read_stats(&mut Reader::new(&buf)), Ok(some_stats()));
    }
}
