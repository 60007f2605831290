//! The durable database: a [`dl::Database`] whose mutations flow through
//! a [`Wal`], checkpointed by periodic [`snapshot`](DurableDb::snapshot)s,
//! recovered by [`DurableDb::open`] (or the [`OpenDurable`] extension
//! trait, which puts `Database::open_durable` in scope).
//!
//! The recovery invariant: **opening a directory always lands on a
//! completed-round prefix of the uninterrupted history** — the latest
//! valid snapshot plus the WAL tail up to its last intact commit marker,
//! with torn/corrupt/uncommitted records truncated away. A snapshot is a
//! log in the WAL's own format, so one scan reads both files and one
//! replay routine applies their records. Replay re-interns the logged
//! symbol table in file order, so a process that starts with a fresh
//! [`Interner`] reconstructs byte-identical symbol ids, rows, RowIds, and
//! [`dl::EvalStats`].

use crate::wal::{self, Wal, WalRecord, WalStats, WireAtom, WireRows, WireTerm, WAL_HEADER_LEN};
use fundb_datalog as dl;
use fundb_term::{Cst, FxHashSet, Interner, Pred, Sym, Var};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Sentinel in the interner→file id table: not yet logged.
const UNMAPPED: u32 = u32::MAX;

/// Most rows a snapshot puts in one record, which keeps a record of
/// any realistic arity far inside the `u32` frame length.
const SNAPSHOT_RUN_ROWS: usize = 1 << 16;

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot.{seq:06}"))
}

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal.{seq:06}"))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// What [`DurableDb::open`] reconstructed and repaired, for observability
/// (`:wal-stats` in the REPL, assertions in the crash harness).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery started from (0 = none).
    pub snapshot_seq: u64,
    /// Rows loaded from that snapshot.
    pub snapshot_rows: usize,
    /// WAL records replayed (everything up to the last intact marker).
    pub replayed_records: usize,
    /// Rows of the `Fact` and `RoundCommit` records among them.
    pub replayed_facts: usize,
    /// `RoundCommit` markers among them.
    pub replayed_rounds: usize,
    /// `Retract` markers among them.
    pub replayed_retractions: usize,
    /// Intact records dropped because their round never committed.
    pub dropped_records: usize,
    /// Bytes truncated from the WAL (dropped records plus torn tail).
    pub truncated_bytes: u64,
}

/// Puts `Database::open_durable` in scope: the recovery entry point as a
/// method on the type it reconstructs.
pub trait OpenDurable {
    /// Opens (creating if absent) a durable database directory, running
    /// crash recovery: load the latest valid snapshot, replay the WAL
    /// tail to its last intact round marker, truncate the rest.
    fn open_durable(dir: &Path, interner: &mut Interner) -> io::Result<DurableDb>;
}

impl OpenDurable for dl::Database {
    fn open_durable(dir: &Path, interner: &mut Interner) -> io::Result<DurableDb> {
        DurableDb::open(dir, interner)
    }
}

/// The file-local id of `s`, if it has been logged.
fn file_id(to_file: &[u32], s: Sym) -> Option<u32> {
    to_file.get(s.index()).copied().filter(|&f| f != UNMAPPED)
}

fn atom_to_wire(a: &dl::Atom, to_file: &[u32]) -> Option<WireAtom> {
    let pred = file_id(to_file, a.pred.sym())?;
    let args = a.args.iter().map(|t| {
        Some(match t {
            dl::Term::Var(v) => WireTerm::Var(file_id(to_file, v.sym())?),
            dl::Term::Const(c) => WireTerm::Const(file_id(to_file, c.sym())?),
        })
    });
    Some(WireAtom {
        pred,
        args: args.collect::<Option<_>>()?,
    })
}

/// The `Rule` record of `r`.
fn rule_record(r: &dl::Rule, to_file: &[u32]) -> io::Result<WalRecord> {
    let wire = || -> Option<WalRecord> {
        Some(WalRecord::Rule {
            head: atom_to_wire(&r.head, to_file)?,
            body: r
                .body
                .iter()
                .map(|a| atom_to_wire(a, to_file))
                .collect::<Option<_>>()?,
        })
    };
    wire().ok_or_else(|| invalid("rule contains symbols unknown to the interner"))
}

/// The log records of one directory, applied in order: the snapshot's,
/// then the WAL tail's. The one routine that turns records into state.
struct Replay<'a> {
    interner: &'a mut Interner,
    db: dl::Database,
    rules: Vec<dl::Rule>,
    stats: dl::EvalStats,
    from_file: Vec<Sym>,
    notes: Vec<String>,
    /// One row in interner symbols (reused across rows).
    row: Vec<Cst>,
}

impl Replay<'_> {
    fn sym(&self, id: u32) -> io::Result<Sym> {
        self.from_file
            .get(id as usize)
            .copied()
            .ok_or_else(|| invalid(format!("file symbol id {id} is undefined")))
    }

    /// Widens a row's file-local ids into `self.row`; returns its predicate.
    fn load(&mut self, pred: u32, row: &[u32]) -> io::Result<Pred> {
        self.row.clear();
        for &c in row {
            self.row.push(Cst(self.sym(c)?));
        }
        let p = Pred(self.sym(pred)?);
        match self.db.relation(p) {
            Some(rel) if rel.arity() != row.len() => {
                Err(invalid("a predicate logged with two arities"))
            }
            _ => Ok(p),
        }
    }

    /// Inserts rows; like every insert they append, landing on the RowIds
    /// the live run gave them.
    fn insert(&mut self, rows: &WireRows, asserted: bool) -> io::Result<usize> {
        for (pred, row) in rows.iter() {
            let p = self.load(pred, row)?;
            let rel = self.db.relation_mut(p, row.len());
            if asserted {
                rel.insert(&self.row);
            } else {
                rel.insert_derived(&self.row);
            }
        }
        Ok(rows.len())
    }

    /// The stored row a `Retract` record names.
    fn find(&mut self, pred: u32, row: &[u32]) -> io::Result<(Pred, dl::RowId)> {
        let p = self.load(pred, row)?;
        let id = self.db.relation(p).and_then(|r| r.find(&self.row));
        Ok((
            p,
            id.ok_or_else(|| invalid("Retract record names a row the log never inserted"))?,
        ))
    }

    fn atom(&self, a: &WireAtom) -> io::Result<dl::Atom> {
        let mut args = Vec::with_capacity(a.args.len());
        for t in &a.args {
            args.push(match *t {
                WireTerm::Var(v) => dl::Term::Var(Var(self.sym(v)?)),
                WireTerm::Const(c) => dl::Term::Const(Cst(self.sym(c)?)),
            });
        }
        Ok(dl::Atom {
            pred: Pred(self.sym(a.pred)?),
            args,
        })
    }

    /// Applies one record, counting it in `report`.
    fn apply(&mut self, rec: &WalRecord, report: &mut RecoveryReport) -> io::Result<()> {
        match rec {
            WalRecord::DefSym { id, name } => {
                if *id as usize != self.from_file.len() {
                    return Err(invalid(format!(
                        "DefSym id {id} out of order (expected {})",
                        self.from_file.len()
                    )));
                }
                self.from_file.push(self.interner.intern(name));
            }
            WalRecord::Fact { rows } => report.replayed_facts += self.insert(rows, true)?,
            WalRecord::RoundCommit { stats, rows } => {
                // Fused rows belong to the round being committed.
                report.replayed_facts += self.insert(rows, false)?;
                report.replayed_rounds += 1;
                self.stats = *stats;
            }
            WalRecord::Rule { head, body } => {
                let body = body.iter().map(|a| self.atom(a));
                let rule = dl::Rule {
                    head: self.atom(head)?,
                    body: body.collect::<io::Result<_>>()?,
                };
                self.rules.push(rule);
            }
            WalRecord::Note { text } => self.notes.push(text.clone()),
            WalRecord::Retract {
                stats,
                deleted,
                restored,
            } => {
                // Reproduce the retraction round's net effect: clear the
                // target's asserted bit and tombstone the rows it deleted
                // and did not restore, one batch per predicate. A row
                // tombstoned and revived in place ends where it began
                // (same slot, same RowId, same bucket order), so the
                // tombstones and RowIds match the live pass without
                // replaying the round trip.
                let mut rows = deleted.iter();
                let (tp, trow) = rows.next().ok_or_else(|| invalid("empty Retract"))?;
                let (p, id) = self.find(tp, trow)?;
                self.db.relation_mut(p, trow.len()).set_asserted(id, false);
                let kept: FxHashSet<(u32, &[u32])> = restored.iter().collect();
                let mut gone: Vec<(Pred, Vec<dl::RowId>)> = Vec::new();
                let mut skipped = 0usize;
                for (dp, drow) in deleted.iter() {
                    if kept.contains(&(dp, drow)) {
                        skipped += 1;
                        continue;
                    }
                    let (dp, did) = self.find(dp, drow)?;
                    match gone.iter_mut().find(|(gp, _)| *gp == dp) {
                        Some((_, ids)) => ids.push(did),
                        None => gone.push((dp, vec![did])),
                    }
                }
                if skipped != restored.len() {
                    return Err(invalid("Retract record restores a row it did not delete"));
                }
                for (dp, mut ids) in gone {
                    ids.sort_unstable();
                    if ids.windows(2).any(|w| w[0] == w[1]) {
                        return Err(invalid("Retract record deletes a row twice"));
                    }
                    let arity = self.db.relation(dp).map_or(0, |r| r.arity());
                    let rel = self.db.relation_mut(dp, arity);
                    rel.retract_rows(&ids);
                    rel.maybe_resketch();
                }
                report.replayed_retractions += 1;
                self.stats = *stats;
            }
            WalRecord::Seal { stats } => self.stats = *stats,
        }
        Ok(())
    }
}

/// Reads snapshot `seq`: a log extending `seq` that scans whole and ends
/// in its `Seal`. Anything else is `InvalidData`, save a file in the
/// retired `FDBSNAP1` format, which is `Unsupported` so that no fallback
/// skips it.
fn read_snapshot(dir: &Path, seq: u64) -> io::Result<Vec<WalRecord>> {
    let data = fs::read(snapshot_path(dir, seq))?;
    if data.starts_with(b"FDBSNAP1") {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("snapshot.{seq:06} is in the retired FDBSNAP1 format, which this build does not read"),
        ));
    }
    let scan = wal::scan(&data, dl::FaultPlan::default())?;
    match scan.records.last() {
        Some(WalRecord::Seal { .. }) if scan.truncated_bytes == 0 && scan.base_seq == seq => {
            Ok(scan.records)
        }
        _ => Err(invalid(format!(
            "snapshot.{seq:06} is cut short or corrupt"
        ))),
    }
}

/// A durably stored [`dl::Database`] plus its rule log.
///
/// Every mutation goes through the WAL *before* it is applied in memory
/// (`insert`, `log_rule`), or is teed from the engine's deterministic
/// merge (`run`). Durability points are explicit: [`commit`](Self::commit)
/// writes a round marker and flushes, [`sync`](Self::sync) adds an fsync,
/// [`snapshot`](Self::snapshot) rewrites the whole state as a fresh
/// snapshot and compacts the log. Appends between those points buffer in
/// memory, so the crash-durability window is "everything up to the last
/// flush" — and recovery further rolls back to the last round marker.
#[derive(Debug)]
pub struct DurableDb {
    dir: PathBuf,
    fault: dl::FaultPlan,
    seq: u64,
    wal: Wal,
    db: dl::Database,
    rules: Vec<dl::Rule>,
    /// Cumulative stats as of the last round marker written or recovered.
    stats: dl::EvalStats,
    /// Interner sym index → file-local id ([`UNMAPPED`] = not yet logged).
    to_file: Vec<u32>,
    /// File-local id → interner sym.
    from_file: Vec<Sym>,
    /// Interner ids below this have been scanned into `to_file`.
    scanned: usize,
    notes: Vec<String>,
    /// Bytes of the current snapshot plus the WAL as it stood at open or
    /// at the last snapshot: with the WAL's appends since, the length of
    /// the log the next snapshot compacts.
    log_bytes: u64,
    report: RecoveryReport,
}

impl DurableDb {
    /// Opens a durable database directory with the process-wide
    /// (`FUNDB_FAULT`) fault plan. See [`OpenDurable::open_durable`].
    pub fn open(dir: &Path, interner: &mut Interner) -> io::Result<DurableDb> {
        Self::open_with_faults(dir, interner, *dl::FaultPlan::from_env())
    }

    /// [`DurableDb::open`] with an explicit fault plan (the crash harness
    /// arms IO faults programmatically).
    pub fn open_with_faults(
        dir: &Path,
        interner: &mut Interner,
        fault: dl::FaultPlan,
    ) -> io::Result<DurableDb> {
        fs::create_dir_all(dir)?;

        // Enumerate snapshots and logs; clear incomplete temporaries.
        let (mut snaps, mut wals) = (Vec::new(), Vec::new());
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            let seq = |prefix: &str| name.strip_prefix(prefix)?.parse::<u64>().ok();
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(dir.join(&name));
            } else if let Some(seq) = seq("snapshot.") {
                snaps.push(seq);
            } else if let Some(seq) = seq("wal.") {
                wals.push(seq);
            }
        }
        snaps.sort_unstable();

        // The latest valid snapshot wins. A corrupt one gives way to its
        // predecessor (or to none) only while the predecessor's own WAL is
        // still there, as after a crash between writing a snapshot and
        // compacting the generation before it; anything else would
        // silently recover an older state.
        let mut replay = Replay {
            interner,
            db: dl::Database::new(),
            rules: Vec::new(),
            stats: dl::EvalStats::default(),
            from_file: Vec::new(),
            notes: Vec::new(),
            row: Vec::new(),
        };
        let (mut seq, mut log_bytes) = (0, 0);
        for (i, &s) in snaps.iter().enumerate().rev() {
            match read_snapshot(dir, s) {
                Ok(records) => {
                    for rec in &records {
                        replay.apply(rec, &mut RecoveryReport::default())?;
                    }
                    (seq, log_bytes) = (s, fs::metadata(snapshot_path(dir, s))?.len());
                    break;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::InvalidData
                        && wals.contains(&i.checked_sub(1).map_or(0, |j| snaps[j])) => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(w) = wals.iter().find(|&&w| w > seq) {
            return Err(invalid(format!(
                "wal.{w:06} is newer than the snapshot recovery can load ({seq})"
            )));
        }
        let mut report = RecoveryReport {
            snapshot_seq: seq,
            snapshot_rows: replay.db.fact_count(),
            ..RecoveryReport::default()
        };

        // Recover the WAL tail extending this snapshot. A log whose header
        // never fully reached the disk (a crash inside `Wal::create`)
        // holds no commit: start it over.
        let wpath = wal_path(dir, seq);
        if !wpath.exists() || fs::metadata(&wpath)?.len() < WAL_HEADER_LEN {
            Wal::create(&wpath, seq, fault)?;
        } else {
            let scan = wal::recover(&wpath, fault)?;
            if scan.base_seq != seq {
                return Err(invalid(format!(
                    "WAL {} extends snapshot {} but snapshot {seq} was loaded",
                    wpath.display(),
                    scan.base_seq
                )));
            }
            report.dropped_records = scan.dropped_records;
            report.truncated_bytes = scan.truncated_bytes;
            report.replayed_records = scan.records.len();
            for rec in &scan.records {
                replay.apply(rec, &mut report)?;
            }
        }
        let (wal, _base) = Wal::open_append(&wpath, fault)?;
        log_bytes += fs::metadata(&wpath)?.len();
        // Recovery holds generation `seq`: an older one, left by a crash
        // between a snapshot's rename and the compaction after it, is dead.
        for &k in snaps.iter().chain(&wals).filter(|&&k| k < seq) {
            let _ = fs::remove_file(snapshot_path(dir, k));
            let _ = fs::remove_file(wal_path(dir, k));
        }

        let mut to_file = vec![UNMAPPED; replay.interner.len()];
        for (fid, sym) in replay.from_file.iter().enumerate() {
            to_file[sym.index()] = fid as u32;
        }
        Ok(DurableDb {
            dir: dir.to_path_buf(),
            fault,
            seq,
            wal,
            db: replay.db,
            rules: replay.rules,
            stats: replay.stats,
            to_file,
            from_file: replay.from_file,
            scanned: 0,
            notes: replay.notes,
            log_bytes,
            report,
        })
    }

    /// The recovered (and since mutated) in-memory database.
    pub fn database(&self) -> &dl::Database {
        &self.db
    }

    /// The logged rules, in log order.
    pub fn rules(&self) -> &[dl::Rule] {
        &self.rules
    }

    /// Cumulative [`dl::EvalStats`] as of the last committed round.
    pub fn stats(&self) -> dl::EvalStats {
        self.stats
    }

    /// What recovery reconstructed when this handle was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// The notes, in log order: those recovered, then those appended.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The WAL handle's lifetime counters (since open).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// The current snapshot sequence number (0 before any snapshot).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_id(&self, s: Sym) -> io::Result<u32> {
        file_id(&self.to_file, s).ok_or_else(|| {
            invalid("symbol has no logged definition (synthetic, or sync_symbols was skipped)")
        })
    }

    /// Logs `DefSym` records for every interner symbol not yet in the
    /// file's symbol table. Called automatically by every mutating entry
    /// point; idempotent and cheap once caught up.
    pub fn sync_symbols(&mut self, interner: &Interner) -> io::Result<()> {
        if self.to_file.len() < interner.len() {
            self.to_file.resize(interner.len(), UNMAPPED);
        }
        for id in self.scanned..interner.len() {
            if self.to_file[id] != UNMAPPED {
                continue;
            }
            let fid = self.from_file.len() as u32;
            let sym = Sym::synthetic(id as u32);
            self.wal.append(&WalRecord::DefSym {
                id: fid,
                name: interner.resolve(sym).to_string(),
            })?;
            self.to_file[id] = fid;
            self.from_file.push(sym);
        }
        self.scanned = interner.len();
        Ok(())
    }

    /// Inserts a base fact, logging it first (WAL rule: nothing reaches
    /// the in-memory store that is not in the log). Returns whether the
    /// row was new. Not durable until the next [`commit`](Self::commit) /
    /// [`sync`](Self::sync) writes a marker.
    pub fn insert(&mut self, interner: &Interner, pred: Pred, row: &[Cst]) -> io::Result<bool> {
        if self.db.contains(pred, row) {
            return Ok(false);
        }
        self.sync_symbols(interner)?;
        let rows = self.wire_rows([(pred, row)])?;
        self.wal.append(&WalRecord::Fact { rows })?;
        Ok(self.db.insert(pred, row))
    }

    /// `list` in file-local ids.
    fn wire_rows<'r>(
        &self,
        list: impl IntoIterator<Item = (Pred, &'r [Cst])>,
    ) -> io::Result<WireRows> {
        let (mut rows, mut ids) = (WireRows::default(), Vec::new());
        for (p, row) in list {
            ids.clear();
            for c in row {
                ids.push(self.file_id(c.sym())?);
            }
            rows.push(self.file_id(p.sym())?, &ids);
        }
        Ok(rows)
    }

    /// Retracts an asserted base fact with full incremental maintenance
    /// (over-delete + re-derive; see `fundb_datalog::retract`), then logs
    /// the completed round as a `Retract` commit marker and flushes.
    ///
    /// The marker is written *after* the in-memory maintenance because
    /// the over-delete set is only known once the pass has run; since
    /// `Retract` is itself the commit point this preserves the recovery
    /// invariant — a crash before the marker lands truncates to the
    /// previous marker and the retraction simply never happened. If the
    /// append itself fails the in-memory state is ahead of the log;
    /// the caller should treat the handle as poisoned and reopen. A
    /// retraction stopped by the default governor (an ambient fault plan)
    /// was rolled back whole and logs nothing; it surfaces as an IO error.
    pub fn retract_fact(
        &mut self,
        interner: &Interner,
        pred: Pred,
        row: &[Cst],
        plan: &dl::DeltaPlan,
    ) -> io::Result<dl::RetractOutcome> {
        self.sync_symbols(interner)?;
        let outcome = self
            .db
            .retract_fact(pred, row, &self.rules, plan, &dl::Governor::default())
            .map_err(io::Error::other)?;
        if !outcome.found {
            return Ok(outcome);
        }
        self.stats.absorb(outcome.stats);
        let wire_list =
            |list: &[(Pred, Box<[Cst]>)]| self.wire_rows(list.iter().map(|(p, r)| (*p, &r[..])));
        let rec = WalRecord::Retract {
            stats: self.stats,
            deleted: wire_list(&outcome.deleted)?,
            restored: wire_list(&outcome.restored)?,
        };
        self.wal.append(&rec)?;
        self.wal.flush()?;
        Ok(outcome)
    }

    /// Logs a rule definition and adds it to [`rules`](Self::rules).
    pub fn log_rule(&mut self, interner: &Interner, rule: &dl::Rule) -> io::Result<()> {
        self.sync_symbols(interner)?;
        self.wal.append(&rule_record(rule, &self.to_file)?)?;
        self.rules.push(rule.clone());
        Ok(())
    }

    /// Logs an opaque note for upper layers (the REPL's session journal).
    pub fn append_note(&mut self, text: &str) -> io::Result<()> {
        self.wal.append(&WalRecord::Note {
            text: text.to_string(),
        })?;
        self.notes.push(text.to_string());
        Ok(())
    }

    /// Writes a round marker for the current committed state and flushes.
    /// This is the commit point recovery rolls forward to: everything
    /// logged before it (facts, rules, notes) becomes recoverable.
    pub fn commit(&mut self) -> io::Result<()> {
        self.wal.append_round_commit(&self.stats, &[])?;
        self.wal.flush()
    }

    /// [`commit`](Self::commit) plus an fsync durability barrier.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.append_round_commit(&self.stats, &[])?;
        self.wal.sync()
    }

    /// Runs the fixpoint with the WAL attached as the engine's
    /// [`dl::RoundSink`]: every merged row and every completed-round
    /// marker is teed into the log at governor checkpoint boundaries, in
    /// the engine's deterministic merge order — the log bytes are
    /// byte-identical at any thread count. The WAL is flushed when the
    /// run ends; a log failure surfaces as [`dl::EvalError::WalFailed`]
    /// while the in-memory database keeps every completed round.
    pub fn run(
        &mut self,
        interner: &Interner,
        eval: &mut dl::IncrementalEval,
        plan: &dl::DeltaPlan,
    ) -> Result<dl::EvalStats, dl::EvalError> {
        let wal_failed = |e: io::Error| dl::EvalError::WalFailed {
            detail: e.to_string(),
        };
        self.sync_symbols(interner).map_err(wal_failed)?;
        let mut sink = WalSink {
            wal: &mut self.wal,
            to_file: &self.to_file,
            base: self.stats,
            batch: Vec::new(),
            cells: Vec::new(),
            committed: None,
            failed: None,
        };
        let res = eval.run_with_sink(&mut self.db, &self.rules, plan, &mut sink);
        if let Some(total) = sink.committed {
            self.stats = total;
        }
        let flushed = self.wal.flush();
        match res {
            Ok(st) => {
                flushed.map_err(wal_failed)?;
                Ok(st)
            }
            Err(e) => Err(e),
        }
    }

    /// Writes snapshot `seq + 1` of the current state (atomically:
    /// tmp-file, fsync, rename), starts a fresh WAL extending it, and
    /// compacts — the superseded WAL and snapshot are deleted. Acts as a
    /// durability barrier for everything in memory.
    ///
    /// The snapshot is a log that rebuilds this store from nothing: the
    /// symbols, rules and notes, every row in RowId order (a run of base
    /// rows as `Fact`s, a run of derived rows as `RoundCommit`s, at most
    /// 65,536 rows a record),
    /// and a closing `Seal` carrying the cumulative statistics.
    pub fn snapshot(&mut self, interner: &Interner) -> io::Result<u64> {
        self.sync_symbols(interner)?;
        let next = self.seq + 1;

        // Compact away retraction tombstones first, so every row is live
        // and sits at its RowId. A snapshot starts a fresh history, so the
        // renumbering is invisible to recovery.
        self.db.compact();

        // A snapshot is never longer than the log it compacts, so that
        // log's length sizes its buffer once.
        let bound = self.log_bytes + self.wal.stats().bytes;
        let mut buf = Vec::with_capacity(bound as usize);
        wal::put_header(&mut buf, next);
        for (id, &sym) in self.from_file.iter().enumerate() {
            let name = interner.resolve(sym).to_string();
            let rec = WalRecord::DefSym {
                id: id as u32,
                name,
            };
            wal::put_frame(&mut buf, |b| rec.encode(b))?;
        }
        for rule in &self.rules {
            let rec = rule_record(rule, &self.to_file)?;
            wal::put_frame(&mut buf, |b| rec.encode(b))?;
        }
        for text in &self.notes {
            let rec = WalRecord::Note { text: text.clone() };
            wal::put_frame(&mut buf, |b| rec.encode(b))?;
        }
        let mut rels: Vec<(Pred, &dl::Relation)> = self.db.iter().collect();
        rels.sort_unstable_by_key(|(p, _)| p.index());
        let mut cells = Vec::new();
        for (p, rel) in rels {
            let pred = self.file_id(p.sym())?;
            let asserted = |i: usize| rel.is_asserted(dl::RowId(i as u32));
            let mut start = 0;
            while start < rel.len() {
                let base = asserted(start);
                let stop = rel.len().min(start + SNAPSHOT_RUN_ROWS);
                let end = (start..stop).find(|&i| asserted(i) != base);
                let end = end.unwrap_or(stop);
                cells.clear();
                for i in start..end {
                    for c in rel.row(dl::RowId(i as u32)) {
                        cells.push(self.file_id(c.sym())?);
                    }
                }
                let stats = (!base).then_some(&self.stats);
                wal::put_frame(&mut buf, |b| {
                    wal::put_row_kind(b, stats);
                    wal::put_group(b, pred, rel.arity(), end - start, cells.iter().copied());
                })?;
                start = end;
            }
        }
        let seal = WalRecord::Seal { stats: self.stats };
        wal::put_frame(&mut buf, |b| seal.encode(b))?;

        let path = snapshot_path(&self.dir, next);
        let tmp = path.with_extension("tmp");
        {
            let mut file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            file.write_all(&buf)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        // Directory sync makes the rename itself durable; not all
        // filesystems support opening a directory, so failures are
        // tolerated.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }

        // The snapshot is durable: switch logs, then compact.
        self.wal = Wal::create(&wal_path(&self.dir, next), next, self.fault)?;
        self.log_bytes = buf.len() as u64 + WAL_HEADER_LEN;
        let old = self.seq;
        self.seq = next;
        let _ = fs::remove_file(wal_path(&self.dir, old));
        let _ = fs::remove_file(snapshot_path(&self.dir, old));
        Ok(next)
    }
}

/// The engine-facing WAL adapter: buffers row-append failures (the
/// [`dl::RoundSink`] row callbacks are infallible by design) and surfaces
/// them at the next round boundary, where the engine can abort cleanly.
///
/// Rows arrive per relation as contiguous arena slices
/// ([`dl::RoundSink::rows_committed`]); each slice is mapped to file-local
/// ids and written as one row group into the round's batch, which rides
/// inside the round's `RoundCommit` record.
struct WalSink<'a> {
    wal: &'a mut Wal,
    to_file: &'a [u32],
    /// Committed totals at run start; markers carry `base + run` so the
    /// log always holds absolute counters.
    base: dl::EvalStats,
    /// The current round's row groups, written by [`wal::put_group`].
    batch: Vec<u8>,
    /// One slice's cells in file-local ids (reused across calls).
    cells: Vec<u32>,
    /// Totals at the last marker that reached the log.
    committed: Option<dl::EvalStats>,
    failed: Option<String>,
}

impl dl::RoundSink for WalSink<'_> {
    fn rows_committed(&mut self, pred: Pred, arity: usize, count: usize, cells: &[Cst]) {
        if self.failed.is_some() || count == 0 {
            return;
        }
        let to_file = self.to_file;
        self.cells.clear();
        self.cells
            .extend(cells.iter().map_while(|c| file_id(to_file, c.sym())));
        match file_id(to_file, pred.sym()) {
            Some(p) if self.cells.len() == cells.len() => {
                wal::put_group(&mut self.batch, p, arity, count, self.cells.iter().copied())
            }
            _ => self.failed = Some("derived row uses a symbol with no logged definition".into()),
        }
    }

    fn round_committed(&mut self, stats: &dl::EvalStats) -> Result<(), String> {
        let mut total = self.base;
        total.absorb(*stats);
        let res = match self.failed.take() {
            Some(e) => Err(e),
            None => self
                .wal
                .append_round_commit(&total, &self.batch)
                .map_err(|e| e.to_string()),
        };
        self.batch.clear();
        res?;
        self.committed = Some(total);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl::Term;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fundb-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Collects (pred name, row-of-names) pairs sorted by pred name, with
    /// row order preserved (row order == RowId order per relation).
    fn dump(db: &dl::Database, interner: &Interner) -> Vec<(String, Vec<Vec<String>>)> {
        let mut out: Vec<(String, Vec<Vec<String>>)> = db
            .iter()
            .map(|(p, rel)| {
                (
                    interner.resolve(p.sym()).to_string(),
                    rel.rows()
                        .map(|row| {
                            row.iter()
                                .map(|c| interner.resolve(c.sym()).to_string())
                                .collect()
                        })
                        .collect(),
                )
            })
            .collect();
        out.sort();
        out
    }

    fn cst(interner: &mut Interner, s: &str) -> Cst {
        Cst(interner.intern(s))
    }

    fn tc_rules(interner: &mut Interner) -> Vec<dl::Rule> {
        let edge = Pred(interner.intern("edge"));
        let path = Pred(interner.intern("path"));
        let x = Var(interner.intern("X"));
        let y = Var(interner.intern("Y"));
        let z = Var(interner.intern("Z"));
        vec![
            dl::Rule {
                head: dl::Atom {
                    pred: path,
                    args: vec![Term::Var(x), Term::Var(y)],
                },
                body: vec![dl::Atom {
                    pred: edge,
                    args: vec![Term::Var(x), Term::Var(y)],
                }],
            },
            dl::Rule {
                head: dl::Atom {
                    pred: path,
                    args: vec![Term::Var(x), Term::Var(z)],
                },
                body: vec![
                    dl::Atom {
                        pred: edge,
                        args: vec![Term::Var(x), Term::Var(y)],
                    },
                    dl::Atom {
                        pred: path,
                        args: vec![Term::Var(y), Term::Var(z)],
                    },
                ],
            },
        ]
    }

    #[test]
    fn inserts_rules_and_notes_survive_reopen() {
        let dir = tmpdir("reopen");
        let mut interner = Interner::new();
        let edge = Pred(interner.intern("edge"));
        {
            let mut ddb = dl::Database::open_durable(&dir, &mut interner).unwrap();
            let (a, b, c) = (
                cst(&mut interner, "a"),
                cst(&mut interner, "b"),
                cst(&mut interner, "c"),
            );
            assert!(ddb.insert(&interner, edge, &[a, b]).unwrap());
            assert!(!ddb.insert(&interner, edge, &[a, b]).unwrap());
            assert!(ddb.insert(&interner, edge, &[b, c]).unwrap());
            for rule in tc_rules(&mut interner) {
                ddb.log_rule(&interner, &rule).unwrap();
            }
            ddb.append_note("session line one").unwrap();
            ddb.commit().unwrap();
        }
        let expect = {
            let mut fresh = Interner::new();
            let mut ddb = dl::Database::open_durable(&dir, &mut fresh).unwrap();
            assert_eq!(ddb.database().fact_count(), 2);
            assert_eq!(ddb.rules().len(), 2);
            assert_eq!(ddb.notes(), ["session line one"]);
            assert_eq!(ddb.recovery().replayed_rounds, 1);
            assert_eq!(ddb.recovery().dropped_records, 0);
            // Idempotent: reopening again after a clean recovery is a no-op
            // mutation-wise, and further inserts keep working.
            let d = cst(&mut fresh, "d");
            let c = cst(&mut fresh, "c");
            let edge = Pred(fresh.intern("edge"));
            ddb.insert(&fresh, edge, &[c, d]).unwrap();
            ddb.commit().unwrap();
            dump(ddb.database(), &fresh)
        };
        let mut again = Interner::new();
        let ddb = dl::Database::open_durable(&dir, &mut again).unwrap();
        assert_eq!(dump(ddb.database(), &again), expect);
    }

    #[test]
    fn engine_run_recovers_byte_identical_rows_and_stats() {
        let dir = tmpdir("engine");
        let mut interner = Interner::new();
        let (reference, ref_stats) = {
            let mut ddb = dl::Database::open_durable(&dir, &mut interner).unwrap();
            let edge = Pred(interner.intern("edge"));
            let names: Vec<Cst> = (0..24)
                .map(|i| cst(&mut interner, &format!("n{i}")))
                .collect();
            for w in names.windows(2) {
                ddb.insert(&interner, edge, &[w[0], w[1]]).unwrap();
            }
            let rules = tc_rules(&mut interner);
            for rule in &rules {
                ddb.log_rule(&interner, rule).unwrap();
            }
            let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
            let mut eval = dl::IncrementalEval::new().with_threads(2);
            let stats = ddb.run(&interner, &mut eval, &plan).unwrap();
            assert!(stats.derived > 0);
            (dump(ddb.database(), &interner), ddb.stats())
        };
        // Fresh process, fresh interner: recovery must reproduce the same
        // rows in the same per-relation order (RowIds) and the same stats.
        let mut fresh = Interner::new();
        let ddb = dl::Database::open_durable(&dir, &mut fresh).unwrap();
        assert_eq!(dump(ddb.database(), &fresh), reference);
        assert_eq!(ddb.stats(), ref_stats);
        assert!(ddb.recovery().replayed_rounds > 0);
    }

    #[test]
    fn snapshot_compacts_and_later_wal_extends_it() {
        let dir = tmpdir("snapshot");
        let mut interner = Interner::new();
        let edge = Pred(interner.intern("edge"));
        {
            let mut ddb = dl::Database::open_durable(&dir, &mut interner).unwrap();
            let (a, b, c) = (
                cst(&mut interner, "a"),
                cst(&mut interner, "b"),
                cst(&mut interner, "c"),
            );
            ddb.insert(&interner, edge, &[a, b]).unwrap();
            for rule in tc_rules(&mut interner) {
                ddb.log_rule(&interner, &rule).unwrap();
            }
            ddb.commit().unwrap();
            assert_eq!(ddb.snapshot(&interner).unwrap(), 1);
            // Compaction removed the seq-0 generation.
            assert!(!wal_path(&dir, 0).exists());
            // Post-snapshot mutations land in the new WAL.
            ddb.insert(&interner, edge, &[b, c]).unwrap();
            ddb.sync().unwrap();
        }
        let mut fresh = Interner::new();
        let ddb = dl::Database::open_durable(&dir, &mut fresh).unwrap();
        assert_eq!(ddb.recovery().snapshot_seq, 1);
        assert_eq!(ddb.recovery().snapshot_rows, 1);
        assert_eq!(ddb.recovery().replayed_facts, 1);
        assert_eq!(ddb.database().fact_count(), 2);
        assert_eq!(ddb.rules().len(), 2);
    }

    #[test]
    fn retract_fact_survives_reopen_and_snapshot() {
        // Live rows with their RowIds, by predicate name: WAL replay must
        // land every surviving row in the slot the live pass left it in.
        fn slots(db: &dl::Database, interner: &Interner) -> Vec<(String, u32, Vec<String>)> {
            let mut out = Vec::new();
            for (p, rel) in db.iter() {
                for i in 0..rel.len() as u32 {
                    if !rel.is_tombstoned(dl::RowId(i)) {
                        let row = rel.row(dl::RowId(i)).iter();
                        let row = row.map(|c| interner.resolve(c.sym()).to_owned());
                        out.push((interner.resolve(p.sym()).to_owned(), i, row.collect()));
                    }
                }
            }
            out.sort();
            out
        }
        let dir = tmpdir("retract");
        let mut interner = Interner::new();
        let (reference, reference_slots) = {
            let mut ddb = dl::Database::open_durable(&dir, &mut interner).unwrap();
            let edge = Pred(interner.intern("edge"));
            let names: Vec<Cst> = (0..8)
                .map(|i| cst(&mut interner, &format!("n{i}")))
                .collect();
            for w in names.windows(2) {
                ddb.insert(&interner, edge, &[w[0], w[1]]).unwrap();
            }
            // A skip edge gives paths across n3→n4 a second derivation.
            ddb.insert(&interner, edge, &[names[2], names[4]]).unwrap();
            let rules = tc_rules(&mut interner);
            for rule in &rules {
                ddb.log_rule(&interner, rule).unwrap();
            }
            let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
            let mut eval = dl::IncrementalEval::new();
            ddb.run(&interner, &mut eval, &plan).unwrap();
            let out = ddb
                .retract_fact(&interner, edge, &[names[3], names[4]], &plan)
                .unwrap();
            assert!(out.found);
            assert!(out.stats.retractions > 0);
            assert!(!out.restored.is_empty(), "the skip edge keeps paths");
            // Retracting an absent fact logs nothing.
            let miss = ddb
                .retract_fact(&interner, edge, &[names[0], names[7]], &plan)
                .unwrap();
            assert!(!miss.found);
            (
                dump(ddb.database(), &interner),
                slots(ddb.database(), &interner),
            )
        };
        // WAL replay: the Retract marker tombstones the net deletions,
        // landing on the same live rows in the same slots.
        let mut fresh = Interner::new();
        let mut ddb = dl::Database::open_durable(&dir, &mut fresh).unwrap();
        assert_eq!(dump(ddb.database(), &fresh), reference);
        assert_eq!(slots(ddb.database(), &fresh), reference_slots);
        ddb.database().check_invariants().unwrap();
        assert_eq!(ddb.recovery().replayed_retractions, 1);
        assert!(ddb.stats().retractions > 0);
        // Snapshot compacts the tombstones away and records the asserted
        // bitmap; a second recovery goes through the snapshot path.
        ddb.snapshot(&fresh).unwrap();
        drop(ddb);
        let mut again = Interner::new();
        let ddb = dl::Database::open_durable(&dir, &mut again).unwrap();
        assert_eq!(dump(ddb.database(), &again), reference);
        // Asserted bits survived the snapshot: derived path rows must not
        // have become base facts, or later retractions would see a wrong
        // self-support set.
        let path = Pred(again.intern("path"));
        let rel = ddb.database().relation(path).expect("path survives");
        assert!((0..rel.len()).all(|i| !rel.is_asserted(dl::RowId(i as u32))));
        let edge = Pred(again.intern("edge"));
        let rel = ddb.database().relation(edge).expect("edge survives");
        assert!((0..rel.len()).all(|i| rel.is_asserted(dl::RowId(i as u32))));
    }

    #[test]
    fn crash_after_flushed_record_rolls_back_to_last_marker() {
        let dir = tmpdir("crash");
        let mut interner = Interner::new();
        let edge = Pred(interner.intern("edge"));
        let (a, b, c, d) = (
            cst(&mut interner, "a"),
            cst(&mut interner, "b"),
            cst(&mut interner, "c"),
            cst(&mut interner, "d"),
        );
        // Records: DefSym edge,a,b,c,d (1-5), Fact a,b (6), marker (7),
        // Fact c,d (8) — the crash fires on the *next* append, flushing
        // records 1-8 so the file ends in an uncommitted tail.
        let fault = dl::FaultPlan {
            crash_after_record: Some(8),
            ..dl::FaultPlan::default()
        };
        {
            let mut ddb = DurableDb::open_with_faults(&dir, &mut interner, fault).unwrap();
            ddb.insert(&interner, edge, &[a, b]).unwrap();
            ddb.commit().unwrap();
            ddb.insert(&interner, edge, &[c, d]).unwrap();
            let err = ddb.insert(&interner, edge, &[d, a]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        }
        let mut fresh = Interner::new();
        let ddb = dl::Database::open_durable(&dir, &mut fresh).unwrap();
        assert_eq!(ddb.database().fact_count(), 1);
        assert!(ddb.recovery().dropped_records >= 1);
        assert!(ddb.recovery().truncated_bytes > 0);
        let edge = Pred(fresh.intern("edge"));
        let a = cst(&mut fresh, "a");
        let b = cst(&mut fresh, "b");
        assert!(ddb.database().contains(edge, &[a, b]));
    }

    #[test]
    fn idle_runs_append_no_record() {
        let dir = tmpdir("idle");
        let mut interner = Interner::new();
        let edge = Pred(interner.intern("edge"));
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        let (a, b) = (cst(&mut interner, "a"), cst(&mut interner, "b"));
        ddb.insert(&interner, edge, &[a, b]).unwrap();
        for rule in tc_rules(&mut interner) {
            ddb.log_rule(&interner, &rule).unwrap();
        }
        ddb.commit().unwrap();
        let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
        let mut eval = dl::IncrementalEval::new();
        ddb.run(&interner, &mut eval, &plan).unwrap();
        let before = ddb.wal_stats();
        let idle = ddb.run(&interner, &mut eval, &plan).unwrap();
        assert_eq!(idle.rounds, 0);
        assert_eq!(ddb.wal_stats().records, before.records);
        assert_eq!(ddb.wal_stats().bytes, before.bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_failure_during_run_surfaces_as_wal_failed() {
        let dir = tmpdir("walfail");
        let mut interner = Interner::new();
        let edge = Pred(interner.intern("edge"));
        // Arm a torn write deep enough into the record stream that it
        // fires while the engine's derived rows are being teed in.
        let fault = dl::FaultPlan {
            torn_write: Some(22),
            ..dl::FaultPlan::default()
        };
        let mut ddb = DurableDb::open_with_faults(&dir, &mut interner, fault).unwrap();
        let names: Vec<Cst> = (0..6)
            .map(|i| cst(&mut interner, &format!("n{i}")))
            .collect();
        for w in names.windows(2) {
            ddb.insert(&interner, edge, &[w[0], w[1]]).unwrap();
        }
        let rules = tc_rules(&mut interner);
        for rule in &rules {
            ddb.log_rule(&interner, rule).unwrap();
        }
        ddb.commit().unwrap();
        let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
        let mut eval = dl::IncrementalEval::new();
        let err = ddb.run(&interner, &mut eval, &plan).unwrap_err();
        assert!(
            matches!(err, dl::EvalError::WalFailed { .. }),
            "expected WalFailed, got {err:?}"
        );
        // Recovery still lands on a consistent committed prefix: the base
        // facts plus rounds one and two — the torn record was round
        // three's fused marker, so rounds one and two were already
        // durable and round three is gone entirely.
        let mut fresh = Interner::new();
        let ddb = dl::Database::open_durable(&dir, &mut fresh).unwrap();
        assert_eq!(ddb.database().fact_count(), 14);
        assert_eq!(ddb.recovery().replayed_rounds, 3);
        assert_eq!(ddb.stats().rounds, 2);
    }

    /// Everything a reopen must reproduce, by name: per relation the live
    /// rows with their RowIds and asserted bits, then the rules, notes and
    /// statistics.
    type Image = (
        Vec<(String, Vec<(u32, Vec<String>, bool)>)>,
        Vec<String>,
        Vec<String>,
        dl::EvalStats,
    );

    fn image(ddb: &DurableDb, interner: &Interner) -> Image {
        let name = |s: Sym| interner.resolve(s).to_string();
        let mut rels: Vec<_> = ddb
            .database()
            .iter()
            .map(|(p, rel)| {
                let live = (0..rel.len() as u32)
                    .map(dl::RowId)
                    .filter(|&id| !rel.is_tombstoned(id));
                let rows = live.map(|id| {
                    let row = rel.row(id).iter().map(|c| name(c.sym())).collect();
                    (id.0, row, rel.is_asserted(id))
                });
                (name(p.sym()), rows.collect())
            })
            .collect();
        rels.sort();
        let rules = ddb.rules().iter().map(|r| {
            let body = r.body.iter().map(|a| a.display(interner).to_string());
            format!(
                "{} :- {:?}",
                r.head.display(interner),
                body.collect::<Vec<_>>()
            )
        });
        (rels, rules.collect(), ddb.notes().to_vec(), ddb.stats())
    }

    /// A store whose `path` relation mixes runs of base and derived rows,
    /// with a retraction behind it, a note and a rule; returns its
    /// directory and interner, the handle closed.
    fn mixed_store(tag: &str) -> (PathBuf, Interner) {
        let dir = tmpdir(tag);
        let mut interner = Interner::new();
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        let (edge, path) = (Pred(interner.intern("edge")), Pred(interner.intern("path")));
        let n: Vec<Cst> = (0..6)
            .map(|i| cst(&mut interner, &format!("n{i}")))
            .collect();
        for w in n.windows(2) {
            ddb.insert(&interner, edge, &[w[0], w[1]]).unwrap();
        }
        // Asserted and derivable: the retraction below leaves it derived.
        ddb.insert(&interner, path, &[n[0], n[2]]).unwrap();
        for rule in tc_rules(&mut interner) {
            ddb.log_rule(&interner, &rule).unwrap();
        }
        ddb.append_note("line one").unwrap();
        ddb.commit().unwrap();
        let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
        ddb.run(&interner, &mut dl::IncrementalEval::new(), &plan)
            .unwrap();
        let out = ddb
            .retract_fact(&interner, path, &[n[0], n[2]], &plan)
            .unwrap();
        assert!(out.found);
        ddb.insert(&interner, path, &[n[5], n[0]]).unwrap();
        ddb.commit().unwrap();
        (dir, interner)
    }

    #[test]
    fn snapshot_round_trips() {
        let (dir, mut interner) = mixed_store("round-trip");
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        assert_eq!(ddb.notes(), ["line one"]);
        ddb.snapshot(&interner).unwrap();
        let live = image(&ddb, &interner);
        let path = &live.0.iter().find(|(p, _)| p == "path").unwrap().1;
        let bits: Vec<bool> = path.iter().map(|(_, _, asserted)| *asserted).collect();
        assert!(bits.contains(&true) && bits.contains(&false), "{bits:?}");
        assert!(live.3.retractions > 0);
        drop(ddb);
        let mut fresh = Interner::new();
        let ddb = DurableDb::open(&dir, &mut fresh).unwrap();
        assert_eq!(ddb.recovery().snapshot_seq, 1);
        assert_eq!(ddb.recovery().replayed_records, 0);
        assert_eq!(image(&ddb, &fresh), live);
        ddb.database().check_invariants().unwrap();
        assert!(!snapshot_path(&dir, 1).with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn notes_survive_a_snapshot() {
        let dir = tmpdir("notes");
        let mut interner = Interner::new();
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        ddb.append_note("line one").unwrap();
        ddb.commit().unwrap();
        ddb.snapshot(&interner).unwrap();
        ddb.append_note("line two").unwrap();
        ddb.commit().unwrap();
        drop(ddb);
        let ddb = DurableDb::open(&dir, &mut Interner::new()).unwrap();
        assert_eq!(ddb.notes(), ["line one", "line two"]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The only snapshot, corrupt, with the WAL that extends it: recovery
    /// must refuse, not open an empty store beside a log it ignores.
    #[test]
    fn a_corrupt_only_snapshot_is_an_error_and_touches_nothing() {
        let dir = tmpdir("corrupt-only");
        let mut interner = Interner::new();
        let edge = Pred(interner.intern("edge"));
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        let (a, b) = (cst(&mut interner, "a"), cst(&mut interner, "b"));
        ddb.insert(&interner, edge, &[a, b]).unwrap();
        ddb.snapshot(&interner).unwrap();
        ddb.insert(&interner, edge, &[b, a]).unwrap();
        ddb.commit().unwrap();
        drop(ddb);
        let snap = snapshot_path(&dir, 1);
        let mut bytes = fs::read(&snap).unwrap();
        bytes[30] ^= 0x01;
        fs::write(&snap, &bytes).unwrap();
        let err = DurableDb::open(&dir, &mut Interner::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            !wal_path(&dir, 0).exists(),
            "no fresh log beside the old one"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash between writing snapshot 2 and compacting generation 1
    /// leaves both; if snapshot 2 is then corrupt, generation 1 still
    /// holds the whole state, but only while no newer log exists.
    #[test]
    fn a_corrupt_snapshot_falls_back_only_to_a_whole_older_generation() {
        let (dir, mut interner) = mixed_store("fallback");
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        ddb.snapshot(&interner).unwrap();
        let live = dump(ddb.database(), &interner);
        let generation =
            [snapshot_path(&dir, 1), wal_path(&dir, 1)].map(|p| (fs::read(&p).unwrap(), p));
        ddb.snapshot(&interner).unwrap();
        drop(ddb);
        for (bytes, p) in &generation {
            fs::write(p, bytes).unwrap();
        }
        let snap = snapshot_path(&dir, 2);
        let len = fs::metadata(&snap).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&snap)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        let err = DurableDb::open(&dir, &mut Interner::new()).unwrap_err();
        assert!(err.to_string().contains("wal.000002 is newer"), "{err}");
        fs::remove_file(wal_path(&dir, 2)).unwrap();
        let mut fresh = Interner::new();
        let ddb = DurableDb::open(&dir, &mut fresh).unwrap();
        assert_eq!(ddb.recovery().snapshot_seq, 1);
        assert_eq!(dump(ddb.database(), &fresh), live);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash between snapshot 2's rename and the compaction of
    /// generation 1 leaves generation 1's files: the next open recovers
    /// generation 2 and removes them.
    #[test]
    fn open_removes_an_older_generation() {
        let (dir, mut interner) = mixed_store("stale");
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        ddb.snapshot(&interner).unwrap();
        let generation =
            [snapshot_path(&dir, 1), wal_path(&dir, 1)].map(|p| (fs::read(&p).unwrap(), p));
        ddb.snapshot(&interner).unwrap();
        let live = image(&ddb, &interner);
        drop(ddb);
        for (bytes, p) in &generation {
            fs::write(p, bytes).unwrap();
        }
        let mut fresh = Interner::new();
        let ddb = DurableDb::open(&dir, &mut fresh).unwrap();
        assert_eq!(ddb.recovery().snapshot_seq, 2);
        assert_eq!(image(&ddb, &fresh), live);
        for (_, p) in &generation {
            assert!(!p.exists(), "{} is still there", p.display());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every cut and every one-byte flip of a snapshot, a future format
    /// version and the retired `FDBSNAP1` format are refused, never
    /// opened as a smaller store.
    #[test]
    fn corruption_and_future_versions_are_rejected() {
        let (dir, mut interner) = mixed_store("reject");
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        ddb.snapshot(&interner).unwrap();
        drop(ddb);
        let snap = snapshot_path(&dir, 1);
        let good = fs::read(&snap).unwrap();
        let open = |bytes: &[u8]| {
            fs::write(&snap, bytes).unwrap();
            DurableDb::open(&dir, &mut Interner::new())
        };
        for cut in 0..good.len() {
            let err = open(&good[..cut]).map(|_| ()).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: {err}"
            );
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            assert!(open(&bad).is_err(), "byte {i} flipped opened");
        }
        let mut future = good.clone();
        future[8..12].copy_from_slice(&(wal::WAL_VERSION + 1).to_le_bytes());
        let err = open(&future).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("not supported"), "{err}");
        let mut retired = b"FDBSNAP1".to_vec();
        retired.extend_from_slice(&good[8..]);
        let err = open(&retired).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
        for cut in 0..retired.len() {
            assert!(
                open(&retired[..cut]).is_err(),
                "retired cut at {cut} opened"
            );
        }
        for i in 0..retired.len() {
            let mut bad = retired.clone();
            bad[i] ^= 0x20;
            assert!(open(&bad).is_err(), "retired byte {i} flipped opened");
        }
        assert!(open(&good).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A snapshot whose frames carry correct CRCs but hold a rule whose
    /// head claims `u32::MAX` arguments: only the decoder stands between
    /// the count and the allocator, and the snapshot must be refused.
    #[test]
    fn oversized_atom_count_in_a_crc_valid_snapshot_is_rejected() {
        let (dir, mut interner) = mixed_store("oversized-atom");
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        ddb.snapshot(&interner).unwrap();
        drop(ddb);
        let snap = snapshot_path(&dir, 1);
        let good = fs::read(&snap).unwrap();
        let mut payload = vec![wal::KIND_RULE];
        crate::codec::put_u32(&mut payload, 0);
        crate::codec::put_u32(&mut payload, u32::MAX);
        assert!(WalRecord::decode(&payload).is_err());
        let mut bad = good[..WAL_HEADER_LEN as usize].to_vec();
        crate::codec::put_u32(&mut bad, payload.len() as u32);
        crate::codec::put_u32(&mut bad, crate::codec::crc32c(&payload));
        bad.extend_from_slice(&payload);
        bad.extend_from_slice(&good[WAL_HEADER_LEN as usize..]);
        fs::write(&snap, &bad).unwrap();
        let err = DurableDb::open(&dir, &mut Interner::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        fs::write(&snap, &good).unwrap();
        assert!(DurableDb::open(&dir, &mut Interner::new()).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Hostile input: a CRC-clean log that uses one predicate with two
    /// arities is an error, not a panic in the relation's arity check.
    #[test]
    fn a_predicate_logged_with_two_arities_is_an_error() {
        let dir = tmpdir("two-arities");
        fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::create(&wal_path(&dir, 0), 0, dl::FaultPlan::default()).unwrap();
        for (id, name) in ["p", "a"].into_iter().enumerate() {
            let name = name.to_string();
            wal.append(&WalRecord::DefSym {
                id: id as u32,
                name,
            })
            .unwrap();
        }
        let mut rows = WireRows::default();
        rows.push(0, &[1]);
        rows.push(0, &[1, 1]);
        wal.append(&WalRecord::Fact { rows }).unwrap();
        wal.append(&WalRecord::RoundCommit {
            stats: dl::EvalStats::default(),
            rows: WireRows::default(),
        })
        .unwrap();
        wal.flush().unwrap();
        drop(wal);
        let err = DurableDb::open(&dir, &mut Interner::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_longer_than_one_record_round_trips() {
        let dir = tmpdir("long-run");
        let mut interner = Interner::new();
        let p = Pred(interner.intern("p"));
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        let consts: Vec<Cst> = (0..300)
            .map(|k| cst(&mut interner, &format!("c{k}")))
            .collect();
        let rows = consts
            .iter()
            .flat_map(|&a| consts.iter().map(move |&b| [a, b]));
        for row in rows.take(SNAPSHOT_RUN_ROWS + 3) {
            ddb.insert(&interner, p, &row).unwrap();
        }
        ddb.snapshot(&interner).unwrap();
        let live = image(&ddb, &interner);
        drop(ddb);
        let mut fresh = Interner::new();
        let ddb = DurableDb::open(&dir, &mut fresh).unwrap();
        assert_eq!(ddb.recovery().snapshot_rows, SNAPSHOT_RUN_ROWS + 3);
        assert_eq!(image(&ddb, &fresh), live);
        let _ = fs::remove_dir_all(&dir);
    }
}
