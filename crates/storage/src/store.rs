//! The durable database: a [`dl::Database`] whose mutations flow through
//! a [`Wal`], checkpointed by periodic [`snapshot`](DurableDb::snapshot)s,
//! recovered by [`DurableDb::open`] (or the [`OpenDurable`] extension
//! trait, which puts `Database::open_durable` in scope).
//!
//! The recovery invariant: **opening a directory always lands on a
//! completed-round prefix of the uninterrupted history** — the latest
//! valid snapshot plus the WAL tail up to its last intact `RoundCommit`
//! marker, with torn/corrupt/uncommitted records truncated away. Replay
//! re-interns the logged symbol table in file order, so a process that
//! starts with a fresh [`Interner`] reconstructs byte-identical symbol
//! ids, rows, RowIds, and [`dl::EvalStats`].

use crate::codec::put_uv;
use crate::snapshot::{self, SnapshotData, WireRelation, WireRule};
use crate::wal::{
    self, stats_from_wire, stats_to_wire, Wal, WalRecord, WalStats, WireAtom, WireTerm,
};
use fundb_datalog as dl;
use fundb_term::{Cst, Interner, Pred, Sym, Var};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Sentinel in the interner→file id table: not yet logged.
const UNMAPPED: u32 = u32::MAX;

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
    /// `Fact` records among them.
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

fn term_to_wire(t: &dl::Term, to_file: &[u32]) -> Option<WireTerm> {
    let fid = |s: Sym| -> Option<u32> {
        match to_file.get(s.index()) {
            Some(&f) if f != UNMAPPED => Some(f),
            _ => None,
        }
    };
    Some(match t {
        dl::Term::Var(v) => WireTerm::Var(fid(v.sym())?),
        dl::Term::Const(c) => WireTerm::Const(fid(c.sym())?),
    })
}

fn atom_to_wire(a: &dl::Atom, to_file: &[u32]) -> Option<WireAtom> {
    let pred = match to_file.get(a.pred.index()) {
        Some(&f) if f != UNMAPPED => f,
        _ => return None,
    };
    let args = a
        .args
        .iter()
        .map(|t| term_to_wire(t, to_file))
        .collect::<Option<Vec<_>>>()?;
    Some(WireAtom { pred, args })
}

fn rule_to_wire(r: &dl::Rule, to_file: &[u32]) -> Option<WireRule> {
    Some(WireRule {
        head: atom_to_wire(&r.head, to_file)?,
        body: r
            .body
            .iter()
            .map(|a| atom_to_wire(a, to_file))
            .collect::<Option<Vec<_>>>()?,
    })
}

/// Replays one decoded row-group batch (a `Rows` spill or a marker's
/// fused rows) into the database, widening file-local ids back to
/// interner symbols. Returns the number of rows inserted. Rows in these
/// records came from the engine's merge, so they replay as *derived*
/// (always appended, never reclaiming a tombstoned slot) — the same
/// placement the live run used, keeping replayed RowIds byte-identical
/// even when retractions left free-list slots behind.
fn replay_rows(
    db: &mut dl::Database,
    from_file: &[Sym],
    rows: &[(u32, Vec<u32>)],
    row_buf: &mut Vec<Cst>,
) -> io::Result<usize> {
    for (pred, row) in rows {
        let pred = Pred(sym_from_file(from_file, *pred)?);
        row_buf.clear();
        for &c in row {
            row_buf.push(Cst(sym_from_file(from_file, c)?));
        }
        db.insert_derived(pred, row_buf);
    }
    Ok(rows.len())
}

fn sym_from_file(from_file: &[Sym], id: u32) -> io::Result<Sym> {
    from_file
        .get(id as usize)
        .copied()
        .ok_or_else(|| invalid(format!("file symbol id {id} is undefined")))
}

fn atom_from_wire(a: &WireAtom, from_file: &[Sym]) -> io::Result<dl::Atom> {
    let pred = Pred(sym_from_file(from_file, a.pred)?);
    let mut args = Vec::with_capacity(a.args.len());
    for t in &a.args {
        args.push(match t {
            WireTerm::Var(v) => dl::Term::Var(Var(sym_from_file(from_file, *v)?)),
            WireTerm::Const(c) => dl::Term::Const(Cst(sym_from_file(from_file, *c)?)),
        });
    }
    Ok(dl::Atom { pred, args })
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

        // Enumerate snapshots; clear incomplete temporaries.
        let mut snaps: Vec<u64> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(seq) = name
                .strip_prefix("snapshot.")
                .and_then(|s| s.parse::<u64>().ok())
            {
                snaps.push(seq);
            }
        }
        snaps.sort_unstable();

        // Latest valid snapshot wins; a corrupt one falls back to its
        // predecessor, but a snapshot from a *newer build* is a hard
        // error — silently recovering an older state would be data loss.
        let mut loaded: Option<SnapshotData> = None;
        for &seq in snaps.iter().rev() {
            match snapshot::read_snapshot(&snapshot_path(dir, seq)) {
                Ok(d) => {
                    loaded = Some(d);
                    break;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::InvalidData
                        && !e.to_string().contains("newer build") =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }

        let seq = loaded.as_ref().map_or(0, |d| d.seq);
        let mut db = dl::Database::new();
        let mut rules: Vec<dl::Rule> = Vec::new();
        let mut stats = dl::EvalStats::default();
        let mut from_file: Vec<Sym> = Vec::new();
        let mut notes: Vec<String> = Vec::new();
        let mut report = RecoveryReport {
            snapshot_seq: seq,
            ..RecoveryReport::default()
        };

        if let Some(data) = &loaded {
            for name in &data.symbols {
                from_file.push(interner.intern(name));
            }
            for rule in &data.rules {
                rules.push(dl::Rule {
                    head: atom_from_wire(&rule.head, &from_file)?,
                    body: rule
                        .body
                        .iter()
                        .map(|a| atom_from_wire(a, &from_file))
                        .collect::<io::Result<Vec<_>>>()?,
                });
            }
            let mut row_buf: Vec<Cst> = Vec::new();
            for rel in &data.relations {
                let pred = Pred(sym_from_file(&from_file, rel.pred)?);
                let arity = rel.arity as usize;
                for i in 0..rel.nrows as usize {
                    row_buf.clear();
                    for &c in &rel.rows[i * arity..(i + 1) * arity] {
                        row_buf.push(Cst(sym_from_file(&from_file, c)?));
                    }
                    // The asserted bitmap decides base fact vs derived
                    // row — a retraction after recovery must see the
                    // same self-support set as one before it.
                    let base = rel
                        .asserted
                        .get(i / 64)
                        .is_some_and(|w| w >> (i % 64) & 1 == 1);
                    if base {
                        db.insert(pred, &row_buf);
                    } else {
                        db.insert_derived(pred, &row_buf);
                    }
                }
            }
            stats = stats_from_wire(&data.stats);
            report.snapshot_rows = db.fact_count();
        }

        // Recover the WAL tail extending this snapshot.
        let wpath = wal_path(dir, seq);
        if wpath.exists() {
            match wal::recover(&wpath, fault) {
                Ok(scan) => {
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
                    let mut row_buf: Vec<Cst> = Vec::new();
                    for rec in &scan.records {
                        match rec {
                            WalRecord::DefSym { id, name } => {
                                if *id as usize != from_file.len() {
                                    return Err(invalid(format!(
                                        "DefSym id {id} out of order (expected {})",
                                        from_file.len()
                                    )));
                                }
                                from_file.push(interner.intern(name));
                            }
                            WalRecord::Fact { pred, row } => {
                                let pred = Pred(sym_from_file(&from_file, *pred)?);
                                row_buf.clear();
                                for &c in row {
                                    row_buf.push(Cst(sym_from_file(&from_file, c)?));
                                }
                                db.insert(pred, &row_buf);
                                report.replayed_facts += 1;
                            }
                            WalRecord::RoundCommit { stats: w, rows } => {
                                // Fused rows precede their marker's effect:
                                // they belong to the round being committed.
                                report.replayed_facts +=
                                    replay_rows(&mut db, &from_file, rows, &mut row_buf)?;
                                stats = stats_from_wire(w);
                                report.replayed_rounds += 1;
                            }
                            WalRecord::Rule { head, body } => {
                                rules.push(dl::Rule {
                                    head: atom_from_wire(head, &from_file)?,
                                    body: body
                                        .iter()
                                        .map(|a| atom_from_wire(a, &from_file))
                                        .collect::<io::Result<Vec<_>>>()?,
                                });
                            }
                            WalRecord::Note { text } => notes.push(text.clone()),
                            WalRecord::Rows { rows } => {
                                report.replayed_facts +=
                                    replay_rows(&mut db, &from_file, rows, &mut row_buf)?;
                            }
                            WalRecord::Retract {
                                pred,
                                row,
                                stats: w,
                                deleted,
                                restored,
                            } => {
                                // Reproduce the retraction round exactly as
                                // the live pass ran it: clear the target's
                                // asserted bit, tombstone the over-delete
                                // set in discovery order, then revive the
                                // re-derived survivors in restoration
                                // order — same free list, same RowIds.
                                let p = Pred(sym_from_file(&from_file, *pred)?);
                                row_buf.clear();
                                for &c in row {
                                    row_buf.push(Cst(sym_from_file(&from_file, c)?));
                                }
                                let rel = db.relation_mut(p, row_buf.len());
                                let id = rel.find(&row_buf).ok_or_else(|| {
                                    invalid("Retract record names a row the log never inserted")
                                })?;
                                rel.set_asserted(id, false);
                                for (dp, drow) in deleted {
                                    let dp = Pred(sym_from_file(&from_file, *dp)?);
                                    row_buf.clear();
                                    for &c in drow {
                                        row_buf.push(Cst(sym_from_file(&from_file, c)?));
                                    }
                                    db.relation_mut(dp, row_buf.len())
                                        .retract_tuple(&row_buf)
                                        .ok_or_else(|| {
                                            invalid(
                                                "Retract record deletes a row the log never \
                                                 inserted",
                                            )
                                        })?;
                                }
                                for (rp, rrow) in restored {
                                    let rp = Pred(sym_from_file(&from_file, *rp)?);
                                    row_buf.clear();
                                    for &c in rrow {
                                        row_buf.push(Cst(sym_from_file(&from_file, c)?));
                                    }
                                    db.relation_mut(rp, row_buf.len())
                                        .restore_tuple(&row_buf)
                                        .ok_or_else(|| {
                                            invalid(
                                                "Retract record restores a row it did not \
                                                 delete",
                                            )
                                        })?;
                                }
                                for (dp, _) in deleted {
                                    let dp = Pred(sym_from_file(&from_file, *dp)?);
                                    if let Some(rel) = db.relation(dp) {
                                        let arity = rel.arity();
                                        db.relation_mut(dp, arity).maybe_resketch();
                                    }
                                }
                                stats = stats_from_wire(w);
                                report.replayed_retractions += 1;
                            }
                        }
                    }
                }
                // A log whose *header* never made it to disk intact (a
                // crash inside create) carries no committed rounds; start
                // it over. Version mismatches propagate above via the
                // explicit "not supported" error.
                Err(e)
                    if e.kind() == io::ErrorKind::InvalidData
                        && !e.to_string().contains("not supported") =>
                {
                    Wal::create(&wpath, seq, fault)?;
                }
                Err(e) => return Err(e),
            }
        } else {
            Wal::create(&wpath, seq, fault)?;
        }
        let (wal, _base) = Wal::open_append(&wpath, fault)?;

        let mut to_file = vec![UNMAPPED; interner.len()];
        for (fid, sym) in from_file.iter().enumerate() {
            to_file[sym.index()] = fid as u32;
        }

        Ok(DurableDb {
            dir: dir.to_path_buf(),
            fault,
            seq,
            wal,
            db,
            rules,
            stats,
            to_file,
            from_file,
            scanned: 0,
            notes,
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

    /// `Note` records recovered from the log, in order.
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
        match self.to_file.get(s.index()) {
            Some(&f) if f != UNMAPPED => Ok(f),
            _ => Err(invalid(
                "symbol has no logged definition (synthetic, or sync_symbols was skipped)",
            )),
        }
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
        let p = self.file_id(pred.sym())?;
        let mapped: Vec<u32> = row
            .iter()
            .map(|c| self.file_id(c.sym()))
            .collect::<io::Result<_>>()?;
        self.wal.append_fact(p, &mapped)?;
        Ok(self.db.insert(pred, row))
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
    /// the caller should treat the handle as poisoned and reopen.
    pub fn retract_fact(
        &mut self,
        interner: &Interner,
        pred: Pred,
        row: &[Cst],
        plan: &dl::DeltaPlan,
    ) -> io::Result<dl::RetractOutcome> {
        self.sync_symbols(interner)?;
        let outcome = self.db.retract_fact(pred, row, &self.rules, plan);
        if !outcome.found {
            return Ok(outcome);
        }
        self.stats.absorb(outcome.stats);
        let p = self.file_id(pred.sym())?;
        let wire_row = |r: &[Cst]| -> io::Result<Vec<u32>> {
            r.iter().map(|c| self.file_id(c.sym())).collect()
        };
        let wire_list = |list: &[(Pred, Box<[Cst]>)]| -> io::Result<Vec<(u32, Vec<u32>)>> {
            list.iter()
                .map(|(lp, lr)| Ok((self.file_id(lp.sym())?, wire_row(lr)?)))
                .collect()
        };
        let rec = WalRecord::Retract {
            pred: p,
            row: wire_row(row)?,
            stats: stats_to_wire(&self.stats),
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
        let wire = rule_to_wire(rule, &self.to_file)
            .ok_or_else(|| invalid("rule contains symbols unknown to the interner"))?;
        self.wal.append(&WalRecord::Rule {
            head: wire.head,
            body: wire.body,
        })?;
        self.rules.push(rule.clone());
        Ok(())
    }

    /// Logs an opaque note for upper layers (the REPL's session journal).
    pub fn append_note(&mut self, text: &str) -> io::Result<()> {
        self.wal.append(&WalRecord::Note {
            text: text.to_string(),
        })
    }

    /// Writes a round marker for the current committed state and flushes.
    /// This is the commit point recovery rolls forward to: everything
    /// logged before it (facts, rules, notes) becomes recoverable.
    pub fn commit(&mut self) -> io::Result<()> {
        self.wal.append_round_commit(&self.stats)?;
        self.wal.flush()
    }

    /// [`commit`](Self::commit) plus an fsync durability barrier.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.append_round_commit(&self.stats)?;
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
        // Fresh sessions and fresh-interner opens log symbols in interner
        // order, making the file id map an identity — which lets the sink
        // skip per-cell translation. O(symbols), once per run.
        let identity = self.to_file.iter().enumerate().all(|(i, &f)| f == i as u32);
        // File-local ids are dense, so when the whole symbol table fits a
        // u16 the sink halves the log's row payload with 2-byte cells. No
        // symbol can appear mid-run: sync_symbols above fixed the table.
        let narrow = self.from_file.len() <= usize::from(u16::MAX) + 1;
        let mut sink = WalSink {
            wal: &mut self.wal,
            to_file: &self.to_file,
            ident_len: if identity { self.to_file.len() } else { 0 },
            narrow,
            base: self.stats,
            batch: Vec::new(),
            batched: 0,
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
    pub fn snapshot(&mut self, interner: &Interner) -> io::Result<u64> {
        self.sync_symbols(interner)?;
        let next = self.seq + 1;

        // Compact away retraction tombstones first: the snapshot writes
        // `len()` rows from `rows()` (which skips tombstones), so the two
        // must agree. A snapshot starts a fresh history, so the RowId
        // renumbering is invisible to recovery.
        self.db.compact();

        let mut preds: Vec<Pred> = self.db.iter().map(|(p, _)| p).collect();
        preds.sort_unstable_by_key(|p| p.index());
        let mut relations = Vec::with_capacity(preds.len());
        for p in preds {
            let rel = self.db.relation(p).expect("pred came from iter");
            let mut rows = Vec::with_capacity(rel.len() * rel.arity());
            for row in rel.rows() {
                for c in row {
                    rows.push(self.file_id(c.sym())?);
                }
            }
            let mut asserted = vec![0u64; rel.len().div_ceil(64)];
            for i in 0..rel.len() {
                if rel.is_asserted(dl::RowId(i as u32)) {
                    asserted[i / 64] |= 1 << (i % 64);
                }
            }
            relations.push(WireRelation {
                pred: self.file_id(p.sym())?,
                arity: rel.arity() as u32,
                nrows: rel.len() as u64,
                rows,
                asserted,
            });
        }
        let rules = self
            .rules
            .iter()
            .map(|r| {
                rule_to_wire(r, &self.to_file)
                    .ok_or_else(|| invalid("rule contains symbols unknown to the interner"))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let symbols = self
            .from_file
            .iter()
            .map(|s| interner.resolve(*s).to_string())
            .collect();
        let data = SnapshotData {
            seq: next,
            symbols,
            rules,
            relations,
            stats: stats_to_wire(&self.stats),
        };
        snapshot::write_snapshot(&snapshot_path(&self.dir, next), &data)?;

        // The snapshot is durable: switch logs, then compact.
        self.wal = Wal::create(&wal_path(&self.dir, next), next, self.fault)?;
        let old = self.seq;
        self.seq = next;
        let _ = fs::remove_file(wal_path(&self.dir, old));
        let _ = fs::remove_file(snapshot_path(&self.dir, old));
        Ok(next)
    }
}

/// A wide round's row batch is cut into `Rows` records of roughly this
/// many payload bytes, bounding sink memory and keeping the WAL's
/// auto-flush cadence (recovery only commits at markers, so mid-round
/// record boundaries are semantically invisible).
const ROWS_CHUNK: usize = 256 * 1024;

/// The engine-facing WAL adapter: buffers row-append failures (the
/// [`dl::RoundSink`] row callbacks are infallible by design) and surfaces
/// them at the next round boundary, where the engine can abort cleanly.
///
/// Rows arrive per relation as contiguous arena slices
/// ([`dl::RoundSink::rows_committed`]) and are copied into a per-round
/// batch of fixed-width cell groups (`u16` cells when the symbol table
/// fits, else `u32`), fused into the round's `RoundCommit` record at the
/// boundary — one frame, one checksum, and (in the common
/// identity-mapped case) one bounds check per cell is all the steady
/// state costs (the E17 overhead budget).
struct WalSink<'a> {
    wal: &'a mut Wal,
    to_file: &'a [u32],
    /// When the file-local symbol table is an identity prefix of the
    /// interner (every fresh session, and every fresh-interner open),
    /// symbols below this index need no translation and rows can be
    /// copied cell by cell. 0 disables the fast path.
    ident_len: usize,
    /// Emit 2-byte cells (every file-local id fits a `u16`).
    narrow: bool,
    /// Committed totals at run start; markers carry `base + run` so the
    /// log always holds absolute counters.
    base: dl::EvalStats,
    /// Encoded row groups of the current round.
    batch: Vec<u8>,
    /// Rows in `batch`.
    batched: u64,
    /// Totals at the last marker that reached the log.
    committed: Option<dl::EvalStats>,
    failed: Option<String>,
}

impl WalSink<'_> {
    /// Spills the buffered row batch (if any) as one `Rows` record —
    /// only wide rounds that outgrow [`ROWS_CHUNK`] take this path; a
    /// round that fits fuses its batch into the marker instead.
    fn flush_batch(&mut self) -> Result<(), String> {
        if self.batched == 0 {
            return Ok(());
        }
        let res = self.wal.append_rows_raw(&self.batch, self.narrow);
        self.batch.clear();
        self.batched = 0;
        res.map_err(|e| e.to_string())
    }

    fn fail_unmapped(&mut self) {
        self.failed = Some("derived row uses a symbol with no logged definition".into());
    }
}

impl dl::RoundSink for WalSink<'_> {
    fn row_committed(&mut self, pred: Pred, row: &[Cst]) {
        self.rows_committed(pred, row.len(), 1, row);
    }

    fn rows_committed(&mut self, pred: Pred, arity: usize, count: usize, cells: &[Cst]) {
        if self.failed.is_some() || count == 0 {
            return;
        }
        let to_file = self.to_file;
        let fid = |s: Sym| -> Option<u32> {
            match to_file.get(s.index()) {
                Some(&f) if f != UNMAPPED => Some(f),
                _ => None,
            }
        };
        let Some(p) = fid(pred.sym()) else {
            self.fail_unmapped();
            return;
        };
        if arity == 0 {
            // Cell-less rows: one group per row (the decoder's contract).
            for _ in 0..count {
                put_uv(&mut self.batch, u64::from(p));
                put_uv(&mut self.batch, 0);
                put_uv(&mut self.batch, 1);
            }
            self.batched += count as u64;
            return;
        }
        // Cut wide deltas into whole-row groups of at most ~ROWS_CHUNK
        // bytes so a chunk flush never splits a group.
        let cell_bytes = if self.narrow { 2 } else { 4 };
        let per_group = (ROWS_CHUNK / (arity * cell_bytes)).max(1);
        let mut done = 0;
        while done < count {
            let n = per_group.min(count - done);
            put_uv(&mut self.batch, u64::from(p));
            put_uv(&mut self.batch, arity as u64);
            put_uv(&mut self.batch, n as u64);
            let slice = &cells[done * arity..(done + n) * arity];
            self.batch.reserve(slice.len() * cell_bytes);
            if self.ident_len > 0 {
                // Identity-mapped symbols: file id == interner id, so the
                // group body is a straight cell copy.
                for &c in slice {
                    let id = c.index();
                    if id >= self.ident_len {
                        self.fail_unmapped();
                        return;
                    }
                    if self.narrow {
                        self.batch.extend_from_slice(&(id as u16).to_le_bytes());
                    } else {
                        self.batch.extend_from_slice(&(id as u32).to_le_bytes());
                    }
                }
            } else {
                for &c in slice {
                    match fid(c.sym()) {
                        Some(f) if self.narrow => {
                            self.batch.extend_from_slice(&(f as u16).to_le_bytes());
                        }
                        Some(f) => self.batch.extend_from_slice(&f.to_le_bytes()),
                        None => {
                            // A partial group may land in `batch` here;
                            // `round_committed` discards the whole batch
                            // on failure, so it never reaches the log.
                            self.fail_unmapped();
                            return;
                        }
                    }
                }
            }
            self.batched += n as u64;
            done += n;
            if self.batch.len() >= ROWS_CHUNK {
                if let Err(e) = self.flush_batch() {
                    self.failed = Some(e);
                    return;
                }
            }
        }
    }

    fn round_committed(&mut self, stats: &dl::EvalStats) -> Result<(), String> {
        if let Some(e) = self.failed.take() {
            self.batch.clear();
            self.batched = 0;
            return Err(e);
        }
        let mut total = self.base;
        total.absorb(*stats);
        // The round's batch rides inside the marker record: one frame,
        // one checksum, one fault point per round.
        let res = self
            .wal
            .append_round_commit_rows(&total, &self.batch, self.narrow);
        self.batch.clear();
        self.batched = 0;
        res.map_err(|e| e.to_string())?;
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
        let dir = tmpdir("retract");
        let mut interner = Interner::new();
        let reference = {
            let mut ddb = dl::Database::open_durable(&dir, &mut interner).unwrap();
            let edge = Pred(interner.intern("edge"));
            let names: Vec<Cst> = (0..8)
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
            let mut eval = dl::IncrementalEval::new();
            ddb.run(&interner, &mut eval, &plan).unwrap();
            let out = ddb
                .retract_fact(&interner, edge, &[names[3], names[4]], &plan)
                .unwrap();
            assert!(out.found);
            assert!(out.stats.retractions > 0);
            // Retracting an absent fact logs nothing.
            let miss = ddb
                .retract_fact(&interner, edge, &[names[0], names[7]], &plan)
                .unwrap();
            assert!(!miss.found);
            dump(ddb.database(), &interner)
        };
        // WAL replay: the Retract marker re-runs the tombstone/restore
        // sequence, landing on the same live rows in the same order.
        let mut fresh = Interner::new();
        let mut ddb = dl::Database::open_durable(&dir, &mut fresh).unwrap();
        assert_eq!(dump(ddb.database(), &fresh), reference);
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
}
