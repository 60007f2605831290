//! Durable storage for the datalog engine: an append-only, checksummed
//! write-ahead log of mutations and commit markers, periodic snapshots in
//! the log's own format, and crash recovery that always lands on a
//! **completed-round prefix** of the uninterrupted history.
//!
//! Layers, bottom up:
//!
//! - [`codec`] — little-endian primitives, length-prefixed strings, and
//!   CRC-32C (hardware-accelerated on x86-64), shared by every on-disk format in the workspace.
//! - [`wal`] — the log itself: `FDBWAL01` header, `[len][crc][payload]`
//!   records, buffered appends with explicit flush/fsync points, and one
//!   frame scan that reads a log image up to its last intact commit
//!   marker; [`wal::recover`] truncates a WAL's torn or corrupt tail to
//!   that marker.
//! - [`store`] — [`DurableDb`]: ties a [`fundb_datalog::Database`] to a
//!   WAL + snapshot directory, tees the engine's deterministic merge into
//!   the log via [`fundb_datalog::RoundSink`], writes snapshots (a log
//!   that rebuilds the store from nothing and ends in a `Seal` marker,
//!   written atomically via tmp-file + rename) that let the log be
//!   compacted, and rebuilds byte-identical state (rows, RowIds, asserted
//!   bits, rules, notes, `EvalStats`) on [`DurableDb::open`] by replaying
//!   the snapshot and then the WAL tail through one routine.
//!
//! Crash injection reuses the engine's [`fundb_datalog::FaultPlan`]
//! (`FUNDB_FAULT` knobs `torn_write:N`, `short_read:N`, `fsync_fail:N`,
//! `crash_after_record:N`), so the kill-at-every-crash-point harness can
//! drive both layers from one plan.

#![warn(missing_docs)]

pub mod codec;
pub mod store;
pub mod wal;

pub use store::{DurableDb, OpenDurable, RecoveryReport};
pub use wal::{
    recover, Wal, WalRecord, WalScan, WalStats, WireAtom, WireRows, WireTerm, WAL_VERSION,
};
