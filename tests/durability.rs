//! Crash-recovery harness for the durable storage layer (PR 9).
//!
//! The durability contract under test: a crash at *any* byte of the
//! write-ahead log — between records, mid-record (a torn write), or even
//! inside the header — recovers to a **completed-round prefix** of the
//! uninterrupted run, with byte-identical rows, RowIds (per-relation
//! insertion order) and `EvalStats` for every round that had committed.
//!
//! * [`kill_at_every_byte_offset_recovers_completed_round_prefix`] is the
//!   exhaustive harness: it replays recovery for **every** truncation
//!   length of the WAL produced by a snapshot-plus-engine-run workload and
//!   checks the recovered state against an independently recorded
//!   per-round ground truth (a [`dl::RoundSink`] on a plain in-memory
//!   run).
//! * [`wal_bytes_are_identical_across_thread_counts`] pins the log itself
//!   to the determinism contract: the WAL written by a 1/2/4/8-thread run
//!   is byte-for-byte identical, so crash points are comparable across
//!   thread counts.
//! * The proptest drives the `crash_after_record:N` IO fault over the
//!   generated scenario families (PR 6): crash at a random record, at
//!   every thread count, then recover and *resume* — the resumed fixpoint
//!   must answer exactly like the uninterrupted run and like the frozen
//!   specification served from the program text.
//!
//! Regression seeds land in `tests/durability.proptest-regressions`.

use fundb_bench::scenariogen::RELATIONAL_FAMILIES;
use fundb_datalog as dl;
use fundb_parser::Workspace;
use fundb_storage::{DurableDb, WalRecord};
use fundb_term::{Cst, Interner, Pred, Var};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Magic (8) + format version (4) + base sequence (8).
const WAL_HEADER_LEN: usize = 20;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fundb-durability-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Panics unless the store's database passes
/// [`dl::Database::check_invariants`]. Called after every operation on a
/// live store and on every recovered one, so a replay or a failed op that
/// leaves an index out of step with the arena fails where it happens.
fn check(ddb: &DurableDb) {
    if let Err(e) = ddb.database().check_invariants() {
        panic!("store invariants broken: {e}");
    }
}

/// `(pred name, rows-of-names in RowId order)` sorted by predicate name —
/// the interner-independent shape every recovery comparison works over.
type Dump = Vec<(String, Vec<Vec<String>>)>;

fn dump(db: &dl::Database, interner: &Interner) -> Dump {
    let mut out: Dump = db
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

fn sorted(mut d: Dump) -> Dump {
    for (_, rows) in &mut d {
        rows.sort();
    }
    d
}

/// Asserts every relation of `partial` holds a RowId-order prefix of the
/// same relation in `full`.
fn assert_row_prefix(partial: &Dump, full: &Dump, ctx: &str) {
    for (pname, rows) in partial {
        let frows = full
            .iter()
            .find(|(fp, _)| fp == pname)
            .map(|(_, r)| r.as_slice())
            .unwrap_or(&[]);
        assert!(
            rows.len() <= frows.len() && rows.as_slice() == &frows[..rows.len()],
            "{ctx}: recovered rows of {pname} are not a prefix of the full run"
        );
    }
}

fn tc_rules(interner: &mut Interner) -> Vec<dl::Rule> {
    let edge = Pred(interner.intern("edge"));
    let path = Pred(interner.intern("path"));
    let (x, y, z) = (
        Var(interner.intern("X")),
        Var(interner.intern("Y")),
        Var(interner.intern("Z")),
    );
    let at = |p, args: Vec<dl::Term>| dl::Atom { pred: p, args };
    let v = dl::Term::Var;
    vec![
        dl::Rule {
            head: at(path, vec![v(x), v(y)]),
            body: vec![at(edge, vec![v(x), v(y)])],
        },
        dl::Rule {
            head: at(path, vec![v(x), v(z)]),
            body: vec![at(edge, vec![v(x), v(y)]), at(path, vec![v(y), v(z)])],
        },
    ]
}

/// Chain facts `edge(n0,n1) … edge(n{k-1},n{k})` in insertion order.
fn chain_facts(interner: &mut Interner, k: usize) -> Vec<(Pred, Vec<Cst>)> {
    let edge = Pred(interner.intern("edge"));
    let names: Vec<Cst> = (0..=k)
        .map(|i| Cst(interner.intern(&format!("n{i}"))))
        .collect();
    names.windows(2).map(|w| (edge, vec![w[0], w[1]])).collect()
}

/// Every whole record of a WAL image, in log order, with the byte offset
/// just past it (`None` for a payload that does not decode).
fn records(wal: &[u8]) -> Vec<(usize, Option<WalRecord>)> {
    let mut pos = WAL_HEADER_LEN;
    let mut out = Vec::new();
    while pos + 8 <= wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > wal.len() {
            break;
        }
        let payload = &wal[pos + 8..pos + 8 + len];
        pos += 8 + len;
        out.push((pos, WalRecord::decode(payload).ok()));
    }
    out
}

/// Byte offsets just past each intact commit marker — `RoundCommit` or
/// `Retract` (PR 10), both of which recovery may truncate to — of a WAL
/// image.
fn marker_offsets(wal: &[u8]) -> Vec<usize> {
    records(wal)
        .into_iter()
        .filter(|(_, r)| {
            matches!(
                r,
                Some(WalRecord::RoundCommit { .. } | WalRecord::Retract { .. })
            )
        })
        .map(|(end, _)| end)
        .collect()
}

/// Records the deterministic commit sequence of a plain in-memory run:
/// after round `r`, `rounds[r-1]` holds every row committed so far (in
/// merge order) and the run's cumulative stats at that boundary.
#[derive(Default)]
struct Recorder {
    current: Vec<(Pred, Vec<Cst>)>,
    #[allow(clippy::type_complexity)]
    rounds: Vec<(Vec<(Pred, Vec<Cst>)>, dl::EvalStats)>,
}

impl dl::RoundSink for Recorder {
    fn rows_committed(&mut self, pred: Pred, arity: usize, count: usize, cells: &[Cst]) {
        self.current
            .extend((0..count).map(|k| (pred, cells[k * arity..(k + 1) * arity].to_vec())));
    }
    fn round_committed(&mut self, stats: &dl::EvalStats) -> Result<(), String> {
        self.rounds.push((self.current.clone(), *stats));
        Ok(())
    }
}

/// The exhaustive kill-at-every-crash-point harness. One reference durable
/// run produces `snapshot.000001` + `wal.000001` (base facts and rules in
/// the snapshot, every engine round in the WAL). For **every** truncation
/// length of that WAL — including cuts inside the 20-byte header and cuts
/// that tear a record in half — recovery must land exactly on the state
/// after the last wholly-durable round marker, matching an independently
/// recorded per-round ground truth row-for-row (RowIds) and stat-for-stat.
#[test]
fn kill_at_every_byte_offset_recovers_completed_round_prefix() {
    const CHAIN: usize = 8;
    let dir_ref = tmpdir("ref");

    // Reference durable run.
    let mut interner = Interner::new();
    let mut ddb = DurableDb::open(&dir_ref, &mut interner).unwrap();
    for (p, row) in chain_facts(&mut interner, CHAIN) {
        ddb.insert(&interner, p, &row).unwrap();
        check(&ddb);
    }
    let rules = tc_rules(&mut interner);
    for rule in &rules {
        ddb.log_rule(&interner, rule).unwrap();
        check(&ddb);
    }
    ddb.commit().unwrap();
    check(&ddb);
    assert_eq!(ddb.snapshot(&interner).unwrap(), 1);
    check(&ddb);
    let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
    let mut eval = dl::IncrementalEval::new().with_threads(2);
    ddb.run(&interner, &mut eval, &plan).unwrap();
    check(&ddb);
    let full_dump = dump(ddb.database(), &interner);
    drop(ddb);

    // Ground truth: the same workload on a plain in-memory database with a
    // recording sink — per-round cumulative rows and stats.
    let mut truth_int = Interner::new();
    let mut truth_db = dl::Database::new();
    let base_facts = chain_facts(&mut truth_int, CHAIN);
    for (p, row) in &base_facts {
        truth_db.insert(*p, row);
    }
    let truth_rules = tc_rules(&mut truth_int);
    let plan = dl::DeltaPlan::planned(&truth_rules, &truth_db);
    let mut eval = dl::IncrementalEval::new().with_threads(2);
    let mut rec = Recorder::default();
    eval.run_with_sink(&mut truth_db, &truth_rules, &plan, &mut rec)
        .unwrap();

    // Expected state after `m` durable round markers: the snapshot (base
    // facts, m == 0) plus every row of rounds 1..=m in merge order.
    let expect_at = |m: usize| -> (Dump, dl::EvalStats) {
        let mut db = dl::Database::new();
        for (p, row) in &base_facts {
            db.insert(*p, row);
        }
        let stats = if m == 0 {
            dl::EvalStats::default()
        } else {
            let (rows, stats) = &rec.rounds[m - 1];
            for (p, row) in rows {
                db.insert(*p, row);
            }
            *stats
        };
        (dump(&db, &truth_int), stats)
    };

    let wal_bytes = std::fs::read(dir_ref.join("wal.000001")).unwrap();
    let snap_bytes = std::fs::read(dir_ref.join("snapshot.000001")).unwrap();
    let markers = marker_offsets(&wal_bytes);
    assert_eq!(markers.len(), rec.rounds.len(), "one marker per round");
    assert_eq!(
        expect_at(markers.len()).0,
        full_dump,
        "ground-truth recorder disagrees with the durable run"
    );

    let dir_cut = tmpdir("cut");
    for cut in 0..=wal_bytes.len() {
        let _ = std::fs::remove_dir_all(&dir_cut);
        std::fs::create_dir_all(&dir_cut).unwrap();
        std::fs::write(dir_cut.join("snapshot.000001"), &snap_bytes).unwrap();
        std::fs::write(dir_cut.join("wal.000001"), &wal_bytes[..cut]).unwrap();

        let mut fresh = Interner::new();
        let ddb = DurableDb::open(&dir_cut, &mut fresh).unwrap();
        check(&ddb);
        let m = markers.iter().filter(|&&o| o <= cut).count();
        let (want_dump, want_stats) = expect_at(m);
        assert_eq!(
            dump(ddb.database(), &fresh),
            want_dump,
            "cut at byte {cut}/{}: wrong rows after recovery",
            wal_bytes.len()
        );
        assert_eq!(
            ddb.stats(),
            want_stats,
            "cut at byte {cut}: wrong recovered stats"
        );
        if cut >= WAL_HEADER_LEN {
            let last_marker = markers[..m].last().copied().unwrap_or(WAL_HEADER_LEN);
            assert_eq!(
                ddb.recovery().truncated_bytes,
                (cut - last_marker) as u64,
                "cut at byte {cut}: wrong truncation accounting"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_cut);
}

/// The WAL is part of the determinism contract: runs at 1/2/4/8 threads
/// must write byte-for-byte identical logs (same records, same order,
/// same round markers), so a crash point means the same thing at every
/// thread count.
#[test]
fn wal_bytes_are_identical_across_thread_counts() {
    let mut images: Vec<Vec<u8>> = Vec::new();
    for threads in THREADS {
        let dir = tmpdir(&format!("threads{threads}"));
        let mut interner = Interner::new();
        let mut ddb = DurableDb::open(&dir, &mut interner).unwrap();
        for (p, row) in chain_facts(&mut interner, 10) {
            ddb.insert(&interner, p, &row).unwrap();
            check(&ddb);
        }
        for rule in tc_rules(&mut interner) {
            ddb.log_rule(&interner, &rule).unwrap();
            check(&ddb);
        }
        ddb.commit().unwrap();
        check(&ddb);
        let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
        let mut eval = dl::IncrementalEval::new().with_threads(threads);
        ddb.run(&interner, &mut eval, &plan).unwrap();
        check(&ddb);
        drop(ddb);
        images.push(std::fs::read(dir.join("wal.000000")).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (i, img) in images.iter().enumerate().skip(1) {
        assert_eq!(
            img, &images[0],
            "WAL bytes differ between {} and {} threads",
            THREADS[i], THREADS[0]
        );
    }
}

/// The CI crash-recovery matrix test: with an arbitrary IO fault armed
/// process-wide via `FUNDB_FAULT` (torn_write / crash_after_record /
/// fsync_fail / short_read — or none at all), a durable session that dies
/// wherever the fault strikes must (a) fail with clean errors, never a
/// panic or corruption, (b) recover — still under the ambient plan, which
/// for `short_read` degrades the scan itself — to a RowId-order prefix of
/// the uninterrupted run, and (c) reach the uninterrupted fixpoint when
/// the workload is re-applied over a clean handle.
#[test]
fn ambient_io_fault_leaves_recoverable_completed_round_prefix() {
    const CHAIN: usize = 16;

    // Uninterrupted ground truth under an explicitly clean fault plan.
    let dir_full = tmpdir("ambient-full");
    let mut interner = Interner::new();
    let mut ddb =
        DurableDb::open_with_faults(&dir_full, &mut interner, dl::FaultPlan::default()).unwrap();
    for (p, row) in chain_facts(&mut interner, CHAIN) {
        ddb.insert(&interner, p, &row).unwrap();
        check(&ddb);
    }
    let rules = tc_rules(&mut interner);
    for rule in &rules {
        ddb.log_rule(&interner, rule).unwrap();
        check(&ddb);
    }
    ddb.commit().unwrap();
    check(&ddb);
    let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
    let mut eval = dl::IncrementalEval::new().with_threads(2);
    ddb.run(&interner, &mut eval, &plan).unwrap();
    check(&ddb);
    let full_dump = dump(ddb.database(), &interner);
    drop(ddb);
    let _ = std::fs::remove_dir_all(&dir_full);

    // The same workload under the ambient (possibly fault-armed) plan,
    // tolerating a death at any step; `sync` is exercised so `fsync_fail`
    // has something to strike, and its failure is survivable by contract.
    let dir = tmpdir("ambient-crash");
    let ambient = *dl::FaultPlan::from_env();
    let mut crash_int = Interner::new();
    'crashy: {
        let Ok(mut ddb) = DurableDb::open_with_faults(&dir, &mut crash_int, ambient) else {
            break 'crashy;
        };
        check(&ddb);
        for (p, row) in chain_facts(&mut crash_int, CHAIN) {
            let inserted = ddb.insert(&crash_int, p, &row);
            check(&ddb);
            if inserted.is_err() {
                break 'crashy;
            }
        }
        for rule in tc_rules(&mut crash_int) {
            let logged = ddb.log_rule(&crash_int, &rule);
            check(&ddb);
            if logged.is_err() {
                break 'crashy;
            }
        }
        let _ = ddb.sync();
        check(&ddb);
        let committed = ddb.commit();
        check(&ddb);
        if committed.is_err() {
            break 'crashy;
        }
        let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
        let mut eval = dl::IncrementalEval::new().with_threads(2);
        let _ = ddb.run(&crash_int, &mut eval, &plan);
        check(&ddb);
    }

    // Recovery under the ambient plan lands on a completed-round prefix.
    let mut fresh = Interner::new();
    let ddb = DurableDb::open(&dir, &mut fresh).unwrap();
    check(&ddb);
    assert_row_prefix(
        &dump(ddb.database(), &fresh),
        &full_dump,
        "ambient-fault recovery",
    );
    drop(ddb);

    // Re-applying the workload over a clean handle reaches the fixpoint.
    let mut fresh = Interner::new();
    let mut ddb = DurableDb::open_with_faults(&dir, &mut fresh, dl::FaultPlan::default()).unwrap();
    check(&ddb);
    for (p, row) in chain_facts(&mut fresh, CHAIN) {
        ddb.insert(&fresh, p, &row).unwrap();
        check(&ddb);
    }
    if ddb.rules().is_empty() {
        for rule in tc_rules(&mut fresh) {
            ddb.log_rule(&fresh, &rule).unwrap();
            check(&ddb);
        }
    }
    ddb.commit().unwrap();
    check(&ddb);
    let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
    let mut eval = dl::IncrementalEval::new().with_threads(2);
    ddb.run(&fresh, &mut eval, &plan).unwrap();
    check(&ddb);
    assert_eq!(
        sorted(dump(ddb.database(), &fresh)),
        sorted(full_dump),
        "resume after ambient-fault crash missed the fixpoint"
    );
    drop(ddb);
    let _ = std::fs::remove_dir_all(&dir);
}

/// PR 10 churn crash matrix, exhaustive arm: a WAL whose tail is a
/// *retract round* — three `Retract` commit markers after the engine's
/// `RoundCommit`s — is truncated at **every** byte offset, including cuts
/// that tear a `Retract` record in half. Recovery must land exactly on the
/// state after the last wholly-durable marker: an engine round boundary
/// (checked against the recording sink's ground truth) or a completed
/// retraction (checked against the durable state captured right after the
/// op), with byte-identical rows, RowIds and statistics either way.
#[test]
fn crash_at_every_byte_during_retract_round_recovers_completed_prefix() {
    const CHAIN: usize = 8;
    let dir_ref = tmpdir("churn-ref");

    // Reference durable run: snapshot the base, run the engine, then
    // retract three chain edges (middle, head-adjacent, tail).
    let mut interner = Interner::new();
    let mut ddb = DurableDb::open(&dir_ref, &mut interner).unwrap();
    for (p, row) in chain_facts(&mut interner, CHAIN) {
        ddb.insert(&interner, p, &row).unwrap();
        check(&ddb);
    }
    let rules = tc_rules(&mut interner);
    for rule in &rules {
        ddb.log_rule(&interner, rule).unwrap();
        check(&ddb);
    }
    ddb.commit().unwrap();
    check(&ddb);
    assert_eq!(ddb.snapshot(&interner).unwrap(), 1);
    check(&ddb);
    let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
    let mut eval = dl::IncrementalEval::new().with_threads(2);
    ddb.run(&interner, &mut eval, &plan).unwrap();
    check(&ddb);
    let pre_churn_dump = dump(ddb.database(), &interner);

    let edge = Pred(interner.get("edge").unwrap());
    let node = |i: usize, interner: &Interner| Cst(interner.get(&format!("n{i}")).unwrap());
    let mut retract_states: Vec<(Dump, dl::EvalStats)> = Vec::new();
    for (a, b) in [(4usize, 5usize), (1, 2), (CHAIN - 1, CHAIN)] {
        let out = ddb
            .retract_fact(
                &interner,
                edge,
                &[node(a, &interner), node(b, &interner)],
                &plan,
            )
            .unwrap();
        check(&ddb);
        assert!(out.found, "reference retraction of n{a}->n{b} missed");
        retract_states.push((dump(ddb.database(), &interner), ddb.stats()));
    }
    drop(ddb);

    // Ground truth for the engine rounds, exactly as in the byte-kill
    // harness above.
    let mut truth_int = Interner::new();
    let mut truth_db = dl::Database::new();
    let base_facts = chain_facts(&mut truth_int, CHAIN);
    for (p, row) in &base_facts {
        truth_db.insert(*p, row);
    }
    let truth_rules = tc_rules(&mut truth_int);
    let tplan = dl::DeltaPlan::planned(&truth_rules, &truth_db);
    let mut teval = dl::IncrementalEval::new().with_threads(2);
    let mut rec = Recorder::default();
    teval
        .run_with_sink(&mut truth_db, &truth_rules, &tplan, &mut rec)
        .unwrap();

    let wal_bytes = std::fs::read(dir_ref.join("wal.000001")).unwrap();
    let snap_bytes = std::fs::read(dir_ref.join("snapshot.000001")).unwrap();
    let markers = marker_offsets(&wal_bytes);
    assert_eq!(
        markers.len(),
        rec.rounds.len() + retract_states.len(),
        "one marker per engine round plus one per retraction"
    );

    // Expected state after `m` durable markers: engine rounds first, then
    // the captured post-retraction states.
    let expect_at = |m: usize| -> (Dump, dl::EvalStats) {
        if m > rec.rounds.len() {
            return retract_states[m - rec.rounds.len() - 1].clone();
        }
        let mut db = dl::Database::new();
        for (p, row) in &base_facts {
            db.insert(*p, row);
        }
        let stats = if m == 0 {
            dl::EvalStats::default()
        } else {
            let (rows, stats) = &rec.rounds[m - 1];
            for (p, row) in rows {
                db.insert(*p, row);
            }
            *stats
        };
        (dump(&db, &truth_int), stats)
    };
    assert_eq!(
        expect_at(rec.rounds.len()).0,
        pre_churn_dump,
        "ground-truth recorder disagrees with the durable run"
    );

    let dir_cut = tmpdir("churn-cut");
    for cut in 0..=wal_bytes.len() {
        let _ = std::fs::remove_dir_all(&dir_cut);
        std::fs::create_dir_all(&dir_cut).unwrap();
        std::fs::write(dir_cut.join("snapshot.000001"), &snap_bytes).unwrap();
        std::fs::write(dir_cut.join("wal.000001"), &wal_bytes[..cut]).unwrap();

        let mut fresh = Interner::new();
        let ddb = DurableDb::open(&dir_cut, &mut fresh).unwrap();
        check(&ddb);
        let m = markers.iter().filter(|&&o| o <= cut).count();
        let (want_dump, want_stats) = expect_at(m);
        assert_eq!(
            dump(ddb.database(), &fresh),
            want_dump,
            "cut at byte {cut}/{}: wrong rows after churn recovery",
            wal_bytes.len()
        );
        assert_eq!(
            ddb.stats(),
            want_stats,
            "cut at byte {cut}: wrong recovered stats after churn"
        );
    }
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_cut);
}

/// Chain length of the churn workload.
const CHURN_CHAIN: usize = 12;

/// The churn workload on one handle: a chain, the closure rules, a commit
/// and an engine run, then churn — retract two edges, re-insert one,
/// re-run the delta. `None` means an operation failed (the crash).
fn churn_workload(
    dir: &std::path::Path,
    interner: &mut Interner,
    fault: dl::FaultPlan,
) -> Option<Dump> {
    let node = |i: usize, interner: &mut Interner| Cst(interner.intern(&format!("n{i}")));
    let mut ddb = DurableDb::open_with_faults(dir, interner, fault).ok()?;
    check(&ddb);
    for (p, row) in chain_facts(interner, CHURN_CHAIN) {
        let inserted = ddb.insert(interner, p, &row);
        check(&ddb);
        inserted.ok()?;
    }
    let rules = tc_rules(interner);
    if ddb.rules().is_empty() {
        // Rules are all-or-nothing across a crash; re-log only when
        // the crash predated their commit (replay would duplicate).
        for rule in &rules {
            let logged = ddb.log_rule(interner, rule);
            check(&ddb);
            logged.ok()?;
        }
    }
    let committed = ddb.commit();
    check(&ddb);
    committed.ok()?;
    let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
    let mut eval = dl::IncrementalEval::new().with_threads(2);
    let ran = ddb.run(interner, &mut eval, &plan);
    check(&ddb);
    ran.ok()?;
    let edge = Pred(interner.intern("edge"));
    for (a, b) in [(3usize, 4usize), (7, 8)] {
        let t = [node(a, interner), node(b, interner)];
        let retracted = ddb.retract_fact(interner, edge, &t, &plan);
        check(&ddb);
        retracted.ok()?;
    }
    let t = [node(3, interner), node(4, interner)];
    let inserted = ddb.insert(interner, edge, &t);
    check(&ddb);
    inserted.ok()?;
    eval.prime_marks(ddb.database());
    let ran = ddb.run(interner, &mut eval, &plan);
    check(&ddb);
    ran.ok()?;
    Some(dump(ddb.database(), interner))
}

/// The `N` of the CI crash matrix's churn entry, `crash_after_record:N`:
/// the crash refuses the append of 0-based record `N`, which must be the
/// churn workload's first `Retract` record.
const CHURN_CRASH_RECORD: usize = 46;

/// Keeps the churn entry of the CI crash matrix aimed: a change to how
/// many records the engine run writes moves the first `Retract` record,
/// and this test names the new index.
#[test]
fn churn_crash_entry_tears_the_first_retract_record() {
    let dir = tmpdir("churn-records");
    let mut interner = Interner::new();
    churn_workload(&dir, &mut interner, dl::FaultPlan::default())
        .expect("clean churn workload must not fail");
    let wal = std::fs::read(dir.join("wal.000000")).unwrap();
    let first_retract = records(&wal)
        .iter()
        .position(|(_, r)| matches!(r, Some(WalRecord::Retract { .. })))
        .expect("the churn workload logs a retraction");
    assert_eq!(
        first_retract, CHURN_CRASH_RECORD,
        "update `crash_after_record` in the CI crash matrix and CHURN_CRASH_RECORD"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// PR 10 churn entry of the CI crash matrix: the ambient `FUNDB_FAULT`
/// plan strikes a session whose workload *ends in churn* — retractions and
/// a re-insert after the engine run. Wherever the fault lands (possibly
/// inside the retract round): (a) every failure is a clean error, (b)
/// recovery under a clean plan opens without corruption, and (c)
/// re-applying the whole workload over the recovered store reaches the
/// uninterrupted post-churn fixpoint (set-level: a replayed re-insert may
/// re-derive rows in a different order).
#[test]
fn ambient_io_fault_during_churn_recovers_and_resumes() {
    // Uninterrupted ground truth under a clean plan.
    let dir_full = tmpdir("churn-ambient-full");
    let mut interner = Interner::new();
    let full_dump = churn_workload(&dir_full, &mut interner, dl::FaultPlan::default())
        .expect("clean churn workload must not fail");
    let _ = std::fs::remove_dir_all(&dir_full);

    // The same workload under the ambient plan, dying wherever it strikes.
    let dir = tmpdir("churn-ambient-crash");
    let ambient = *dl::FaultPlan::from_env();
    let mut crash_int = Interner::new();
    let _ = churn_workload(&dir, &mut crash_int, ambient);

    // Clean recovery, then replay the workload to the post-churn fixpoint.
    let mut fresh = Interner::new();
    let ddb = DurableDb::open(&dir, &mut fresh).unwrap();
    check(&ddb);
    drop(ddb);
    let mut fresh = Interner::new();
    let resumed = churn_workload(&dir, &mut fresh, dl::FaultPlan::default())
        .expect("resume over a recovered store must not fail");
    assert_eq!(
        sorted(resumed),
        sorted(full_dump),
        "churn resume missed the post-churn fixpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Base facts of a scenario database in a deterministic insertion order
/// (by predicate index, then the relation's own row order).
fn scenario_facts(db: &dl::Database) -> Vec<(Pred, Vec<Cst>)> {
    let mut rels: Vec<(Pred, &dl::Relation)> = db.iter().collect();
    rels.sort_by_key(|(p, _)| p.index());
    rels.iter()
        .flat_map(|(p, rel)| rel.rows().map(move |r| (*p, r.to_vec())))
        .collect()
}

/// Runs the scenario workload against a durable directory, swallowing the
/// injected IO fault wherever it strikes (insert, rule logging, commit, or
/// mid-engine-run) — exactly like a process that dies at that point.
fn run_durable_crashy(
    dir: &std::path::Path,
    interner: &mut Interner,
    facts: &[(Pred, Vec<Cst>)],
    rules: &[dl::Rule],
    threads: usize,
    fault: dl::FaultPlan,
) {
    let Ok(mut ddb) = DurableDb::open_with_faults(dir, interner, fault) else {
        return;
    };
    check(&ddb);
    for (p, row) in facts {
        let inserted = ddb.insert(interner, *p, row);
        check(&ddb);
        if inserted.is_err() {
            return;
        }
    }
    for rule in rules {
        let logged = ddb.log_rule(interner, rule);
        check(&ddb);
        if logged.is_err() {
            return;
        }
    }
    let committed = ddb.commit();
    check(&ddb);
    if committed.is_err() {
        return;
    }
    let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
    let mut eval = dl::IncrementalEval::new().with_threads(threads);
    let _ = ddb.run(interner, &mut eval, &plan);
    check(&ddb);
}

fn holds(db: &dl::Database, interner: &Interner, pname: &str, args: &[String]) -> bool {
    let Some(p) = interner.get(pname) else {
        return false;
    };
    let mut row = Vec::with_capacity(args.len());
    for a in args {
        match interner.get(a) {
            Some(s) => row.push(Cst(s)),
            None => return false,
        }
    }
    db.contains(Pred(p), &row)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Crash-at-record-`k` over the generated scenario families: at every
    /// thread count the crashed log recovers to the **same** state (a
    /// RowId-order prefix of the uninterrupted run), and recover + resume
    /// reaches the uninterrupted fixpoint — answering the scenario's query
    /// workload exactly like the frozen specification served from the
    /// program text.
    #[test]
    fn crash_at_record_k_then_recover_and_resume_matches_uninterrupted(
        family in 0..RELATIONAL_FAMILIES.len(),
        seed in 0u64..(1u64 << 48),
        kseed in any::<u64>(),
    ) {
        let (fname, gen) = RELATIONAL_FAMILIES[family];
        let sc = gen(seed);
        let ctx = format!("{fname}/{seed}");
        let mut interner = sc.interner;
        let facts = scenario_facts(&sc.db);

        // Uninterrupted durable run.
        let dir_full = tmpdir("full");
        let mut ddb = DurableDb::open(&dir_full, &mut interner).unwrap();
        for (p, row) in &facts {
            ddb.insert(&interner, *p, row).unwrap();
            check(&ddb);
        }
        for rule in &sc.rules {
            ddb.log_rule(&interner, rule).unwrap();
            check(&ddb);
        }
        ddb.commit().unwrap();
        check(&ddb);
        let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
        let mut eval = dl::IncrementalEval::new().with_threads(2);
        ddb.run(&interner, &mut eval, &plan).unwrap();
        check(&ddb);
        let full_dump = dump(ddb.database(), &interner);
        let records = ddb.wal_stats().records;
        drop(ddb);
        let _ = std::fs::remove_dir_all(&dir_full);

        // Crash on the append after record k, at every thread count: the
        // recovered states must be identical (the WAL is thread-count
        // deterministic) and each a completed-round prefix of the full run.
        let k = 1 + (kseed % records) as usize;
        let fault = dl::FaultPlan {
            crash_after_record: Some(k),
            ..dl::FaultPlan::default()
        };
        let mut recovered: Option<Dump> = None;
        let mut resume_dir: Option<PathBuf> = None;
        for threads in THREADS {
            let dir = tmpdir("crash");
            let mut crash_int = Interner::new();
            // Re-intern the workload symbols in the same order.
            let mut sc2 = gen(seed);
            std::mem::swap(&mut crash_int, &mut sc2.interner);
            run_durable_crashy(&dir, &mut crash_int, &scenario_facts(&sc2.db), &sc2.rules, threads, fault);

            let mut fresh = Interner::new();
            let ddb = DurableDb::open(&dir, &mut fresh).unwrap();
            check(&ddb);
            let d = dump(ddb.database(), &fresh);
            assert_row_prefix(&d, &full_dump, &format!("{ctx} k={k} t={threads}"));
            match &recovered {
                None => recovered = Some(d),
                Some(first) => prop_assert_eq!(
                    &d, first,
                    "{} k={} t={}: recovery differs across thread counts",
                    &ctx, k, threads
                ),
            }
            drop(ddb);
            if threads == 2 {
                resume_dir = Some(dir);
            } else {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }

        // Recover + resume: a restarting application re-applies its
        // workload (inserts are idempotent; rules are re-logged only if
        // the crash predated their commit) and re-runs the engine — the
        // result must be the uninterrupted fixpoint (same rows as sets;
        // the restart may derive the missing rows in a different order).
        let dir = resume_dir.unwrap();
        let mut sc3 = gen(seed);
        let mut fresh = Interner::new();
        std::mem::swap(&mut fresh, &mut sc3.interner);
        let mut ddb = DurableDb::open(&dir, &mut fresh).unwrap();
        check(&ddb);
        for (p, row) in &scenario_facts(&sc3.db) {
            ddb.insert(&fresh, *p, row).unwrap();
            check(&ddb);
        }
        if ddb.rules().len() < sc3.rules.len() {
            prop_assert_eq!(ddb.rules().len(), 0, "{}: rules must be all-or-nothing", &ctx);
            for rule in &sc3.rules {
                ddb.log_rule(&fresh, rule).unwrap();
                check(&ddb);
            }
        }
        ddb.commit().unwrap();
        check(&ddb);
        let plan = dl::DeltaPlan::planned(ddb.rules(), ddb.database());
        let mut eval = dl::IncrementalEval::new().with_threads(2);
        ddb.run(&fresh, &mut eval, &plan).unwrap();
        check(&ddb);
        prop_assert_eq!(
            sorted(dump(ddb.database(), &fresh)),
            sorted(full_dump.clone()),
            "{} k={}: resume missed the fixpoint",
            &ctx, k
        );

        // The resumed store answers the scenario's query workload exactly
        // like the frozen specification served from the program text.
        let mut ws = Workspace::new();
        ws.parse(&sc.text).unwrap();
        let spec = ws.graph_spec().unwrap();
        let frozen = spec.clone().freeze();
        for (pname, argnames) in &sc.queries {
            let wp = Pred(ws.interner.get(pname).unwrap());
            let wrow: Vec<Cst> = argnames
                .iter()
                .map(|a| Cst(ws.interner.get(a).unwrap()))
                .collect();
            let truth = frozen.holds_relational(wp, &wrow);
            prop_assert_eq!(
                holds(ddb.database(), &fresh, pname, argnames),
                truth,
                "{} k={}: resumed store disagrees with the frozen spec on {}({:?})",
                &ctx, k, pname, argnames
            );
        }
        drop(ddb);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
