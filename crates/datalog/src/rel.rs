//! Relations and databases of constant tuples over a pooled row-store.
//!
//! Tuples live in a [`RowPool`]: a flat `Vec<Cst>` arena where row `i` of an
//! arity-`a` relation occupies `data[i*a .. (i+1)*a]`. Each tuple's constants
//! are stored exactly once; duplicate elimination goes through a
//! hash-of-slice table mapping a row hash to the [`RowId`]s carrying it (the
//! candidate rows are compared against the arena, so no second owned copy of
//! the tuple ever exists), and the per-column indexes keep pushing `u32`
//! row ids.

use fundb_term::{Cst, FxHashMap, FxHasher, Interner, Pred};
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hasher;

/// An owned tuple of constants, used at API boundaries that must carry rows
/// outside a relation (provenance records, staged insertions). Inside a
/// [`Relation`] rows are pooled and only ever borrowed as `&[Cst]`.
pub type Tuple = Box<[Cst]>;

/// Handle to one row of a [`RowPool`] (dense insertion index).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RowId(pub u32);

impl RowId {
    /// The dense index of this row (0-based insertion order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Flat arena of fixed-arity rows: row `i` is `data[i*arity .. (i+1)*arity]`.
#[derive(Clone, Debug, Default)]
pub struct RowPool {
    arity: usize,
    data: Vec<Cst>,
}

impl RowPool {
    /// An empty pool of the given arity.
    pub fn new(arity: usize) -> Self {
        RowPool {
            arity,
            data: Vec::new(),
        }
    }

    /// Number of rows in the pool. Arity-0 rows occupy no arena space, so
    /// for them the count lives in the owning relation and this reports 0.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.arity).unwrap_or(0)
    }

    /// Whether the pool holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes held by the constant arena (the dominant row-store cost; the
    /// governor's byte budget is built on this).
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Cst>()
    }

    /// The row at dense index `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Cst] {
        let a = self.arity;
        &self.data[i * a..i * a + a]
    }

    /// The contiguous cell slice of every row at or after index `from`
    /// (empty for arity-0 pools, whose rows occupy no arena space).
    #[inline]
    pub fn cells_from(&self, from: usize) -> &[Cst] {
        &self.data[(from * self.arity).min(self.data.len())..]
    }

    /// Appends a row, returning its handle. The caller is responsible for
    /// deduplication.
    fn push(&mut self, t: &[Cst], next_id: usize) -> RowId {
        debug_assert_eq!(t.len(), self.arity);
        self.data.extend_from_slice(t);
        RowId(u32::try_from(next_id).expect("relation overflow"))
    }
}

/// Reads bit `i` of a packed word bitmap (absent words read as zero).
#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

/// Writes bit `i` of a packed word bitmap, growing it as needed.
#[inline]
fn bit_set(words: &mut Vec<u64>, i: usize, v: bool) {
    let w = i / 64;
    if words.len() <= w {
        words.resize(w + 1, 0);
    }
    if v {
        words[w] |= 1 << (i % 64);
    } else {
        words[w] &= !(1 << (i % 64));
    }
}

/// Removes the ascending, present `ids` from the ascending `bucket`: one
/// binary search per id and one block move per gap between them, so the
/// whole batch shifts each surviving element at most once.
fn remove_ids(bucket: &mut Vec<u32>, ids: &[u32]) {
    let mut w = bucket.partition_point(|&i| i < ids[0]);
    debug_assert_eq!(bucket.get(w), Some(&ids[0]), "removed ids must be present");
    let mut r = w + 1;
    for &id in &ids[1..] {
        let end = r + bucket[r..].partition_point(|&i| i < id);
        debug_assert_eq!(bucket.get(end), Some(&id), "removed ids must be present");
        bucket.copy_within(r..end, w);
        w += end - r;
        r = end + 1;
    }
    let len = bucket.len();
    bucket.copy_within(r..len, w);
    bucket.truncate(w + len - r);
}

/// Merges the ascending, absent `ids` into the ascending `bucket`: from
/// the largest id down, one binary search and one block move each, so
/// every old element moves at most once.
fn merge_ids(bucket: &mut Vec<u32>, ids: &[u32]) {
    let old = bucket.len();
    if old == 0 || bucket[old - 1] < ids[0] {
        bucket.extend_from_slice(ids);
        return;
    }
    bucket.resize(old + ids.len(), 0);
    let mut hi = old;
    for (j, &id) in ids.iter().enumerate().rev() {
        let pos = bucket[..hi].partition_point(|&i| i < id);
        bucket.copy_within(pos..hi, pos + j + 1);
        bucket[pos + j] = id;
        hi = pos;
    }
}

/// Sorts `(key, id)` pairs and calls `f` once per distinct key with that
/// key's ids in ascending order: the buckets a batch touches, each once.
fn for_each_group<K: Ord + Copy>(
    pairs: &mut [(K, u32)],
    ids: &mut Vec<u32>,
    mut f: impl FnMut(K, &[u32]),
) {
    pairs.sort_unstable();
    let mut rest = &pairs[..];
    while let Some(&(key, _)) = rest.first() {
        let n = rest.iter().take_while(|e| e.0 == key).count();
        ids.clear();
        ids.extend(rest[..n].iter().map(|e| e.1));
        f(key, ids);
        rest = &rest[n..];
    }
}

/// Removes `ids` from `map[key]`, dropping the entry when nothing is
/// left, so distinct-value counts stay exact under deletion.
fn map_remove<K: std::hash::Hash + Eq>(map: &mut FxHashMap<K, Vec<u32>>, key: K, ids: &[u32]) {
    match map.entry(key) {
        Entry::Occupied(mut e) => {
            remove_ids(e.get_mut(), ids);
            if e.get().is_empty() {
                e.remove();
            }
        }
        Entry::Vacant(_) => debug_assert!(false, "removed ids must be in the map"),
    }
}

/// Merges `ids` into `map[key]`, creating the entry if absent; returns
/// the bucket's new length.
fn map_merge<K: std::hash::Hash + Eq>(
    map: &mut FxHashMap<K, Vec<u32>>,
    key: K,
    ids: &[u32],
) -> usize {
    let bucket = map.entry(key).or_default();
    merge_ids(bucket, ids);
    bucket.len()
}

/// Fx hash of a row's constants, used to key the dedup table.
#[inline]
pub(crate) fn hash_row(t: &[Cst]) -> u64 {
    let mut h = FxHasher::default();
    for c in t {
        h.write_usize(c.index());
    }
    h.finish()
}

/// Fx hash of the columns of `row` selected by `sig` (ascending column
/// order), used to key a composite index.
#[inline]
fn hash_sig_cols(row: &[Cst], sig: u64) -> u64 {
    let mut h = FxHasher::default();
    let mut bits = sig;
    while bits != 0 {
        let col = bits.trailing_zeros() as usize;
        h.write_usize(row[col].index());
        bits &= bits - 1;
    }
    h.finish()
}

/// Fx hash of an already-extracted composite key (the bound values in
/// ascending column order). Must agree with [`hash_sig_cols`].
#[inline]
fn hash_key(key: &[Cst]) -> u64 {
    let mut h = FxHasher::default();
    for c in key {
        h.write_usize(c.index());
    }
    h.finish()
}

/// A set-semantics relation of fixed arity.
///
/// Rows are stored once, in insertion order, in a [`RowPool`] (so evaluation
/// is deterministic and semi-naive deltas are contiguous suffixes of the
/// arena). A hash-of-slice table dedups inserts without materializing a
/// second copy, and per-column hash indexes let selections with bound
/// columns avoid full scans.
#[derive(Clone, Debug)]
pub struct Relation {
    pool: RowPool,
    len: usize,
    /// `dedup[hash_row(t)]` = ids of rows hashing to that value; candidates
    /// are confirmed by comparing slices in the pool.
    dedup: FxHashMap<u64, Vec<u32>>,
    /// `index[col][value]` = ids of rows with `row[col] == value`.
    index: Vec<FxHashMap<Cst, Vec<u32>>>,
    /// On-demand composite indexes, keyed by a column-signature bitmask
    /// (bit `i` set = column `i` participates in the key):
    /// `composite[sig][hash of the sig columns]` = ids of matching rows.
    /// Built lazily by [`Relation::ensure_composite`], then maintained
    /// incrementally on insert. Buckets are hash-of-key, so probes must
    /// still confirm the candidate rows (exactly like `dedup`).
    composite: FxHashMap<u64, FxHashMap<u64, Vec<u32>>>,
    /// `max_bucket[col]` = size of the largest bucket in `index[col]`,
    /// maintained on insert. Together with `index[col].len()` (the distinct
    /// value count) this is the per-column statistic the compile-time cost
    /// model in `program.rs` consumes: `rows / distinct` is the uniform
    /// selectivity estimate and `max_bucket` its worst-case (skew) clamp.
    max_bucket: Vec<usize>,
    /// Tombstone bitmap over dense row ids: a set bit marks a retracted
    /// row. Tombstoned rows stay in the arena (RowIds stay stable and
    /// reads stay borrowed slices) but are invisible to scans, selects,
    /// probes, membership, and dumps. A re-asserted equal tuple appends a
    /// fresh row; the tombstoned one is physically dropped only by
    /// [`Relation::compact`].
    tomb: Vec<u64>,
    /// Number of tombstoned rows (`live() == len - dead`).
    dead: usize,
    /// Asserted bitmap: a set bit marks a row inserted as a base (EDB)
    /// fact rather than derived by a rule. Retraction never cascades over
    /// asserted rows — they have support independent of any derivation.
    asserted: Vec<u64>,
    /// Number of [`Relation::compact`] renumberings so far; a moved
    /// value invalidates every row id and low-water mark an evaluator
    /// recorded, forcing the conservative full rescan.
    compactions: u64,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            pool: RowPool::new(arity),
            len: 0,
            dedup: FxHashMap::default(),
            index: (0..arity).map(|_| FxHashMap::default()).collect(),
            composite: FxHashMap::default(),
            max_bucket: vec![0; arity],
            tomb: Vec::new(),
            dead: 0,
            asserted: Vec::new(),
            compactions: 0,
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.pool.arity
    }

    /// The dense high-water mark: the number of arena slots, including
    /// tombstoned ones. Row ids are always `< len()`, and rows appended
    /// after a caller's saved `len()` form the contiguous semi-naive delta
    /// — tombstones never change this. Equal to [`Relation::live`] when
    /// nothing has been retracted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of live (non-tombstoned) tuples.
    #[inline]
    pub fn live(&self) -> usize {
        self.len - self.dead
    }

    /// Number of tombstoned rows still occupying arena slots (dropped by
    /// [`Relation::compact`]).
    #[inline]
    pub fn dead(&self) -> usize {
        self.dead
    }

    /// See the `compactions` field: renumberings so far.
    #[inline]
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether the relation has no live tuples.
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// Whether row `id` is currently tombstoned.
    #[inline]
    pub fn is_tombstoned(&self, id: RowId) -> bool {
        bit_get(&self.tomb, id.index())
    }

    /// Whether row `id` was inserted as a base (asserted) fact.
    #[inline]
    pub fn is_asserted(&self, id: RowId) -> bool {
        bit_get(&self.asserted, id.index())
    }

    /// Number of distinct values in column `col` (the size of its
    /// per-column index — maintained for free on every insert).
    pub fn distinct(&self, col: usize) -> usize {
        self.index[col].len()
    }

    /// Size of the largest per-value bucket in column `col`'s index: the
    /// worst-case number of rows a single-column probe on `col` can return.
    /// Maintained incrementally on insert.
    pub fn max_bucket(&self, col: usize) -> usize {
        self.max_bucket[col]
    }

    /// A point-in-time cardinality snapshot of this relation for the
    /// compile-time cost model.
    ///
    /// Under deletion, `rows` is decremented exactly (it counts live rows)
    /// and `distinct` stays exact (index entries whose bucket empties are
    /// dropped); `max_bucket` is an upper bound — it records the largest
    /// bucket ever held, and retraction does not shrink it until
    /// [`Relation::maybe_resketch`] or [`Relation::compact`] recomputes it.
    pub fn stats(&self) -> RelStats {
        RelStats {
            rows: self.live(),
            distinct: (0..self.arity()).map(|c| self.distinct(c)).collect(),
            max_bucket: self.max_bucket.clone(),
        }
    }

    /// Approximate resident bytes: the arena plus one `u32` posting per row
    /// in the dedup table, each per-column index, and each built composite
    /// index. Hash-map headers and bucket slack are deliberately ignored —
    /// the byte budget needs a monotone, cheap estimate, not an allocator
    /// audit.
    pub fn approx_bytes(&self) -> usize {
        let postings = 1 + self.arity() + self.composite.len();
        self.pool.approx_bytes() + self.len * postings * std::mem::size_of::<u32>()
    }

    /// Inserts a tuple as an asserted (base) fact; returns its handle if
    /// it was new. Like every insert it appends: a tuple whose retracted
    /// row still occupies an arena slot gets a fresh RowId at `len()`, so
    /// rows at or past an evaluator's low-water mark are exactly its
    /// delta. Inserting a tuple that is already live (re)marks it
    /// asserted.
    pub fn insert_row(&mut self, t: &[Cst]) -> Option<RowId> {
        match self.insert_derived_row(t) {
            Some(id) => {
                bit_set(&mut self.asserted, id.index(), true);
                Some(id)
            }
            None => {
                if let Some(id) = self.find(t) {
                    bit_set(&mut self.asserted, id.index(), true);
                }
                None
            }
        }
    }

    /// Inserts a tuple derived by a rule; returns its handle if it was
    /// new. Appends like [`Relation::insert_row`] but leaves the asserted
    /// bit clear: retraction may cascade over derived rows.
    pub fn insert_derived_row(&mut self, t: &[Cst]) -> Option<RowId> {
        assert_eq!(t.len(), self.arity(), "arity mismatch on insert");
        let h = hash_row(t);
        if let Some(bucket) = self.dedup.get(&h) {
            if bucket.iter().any(|&i| self.pool.row(i as usize) == t) {
                return None;
            }
        }
        let id = self.pool.push(t, self.len);
        self.dedup.entry(h).or_default().push(id.0);
        self.len += 1;
        for (col, &v) in t.iter().enumerate() {
            let bucket = self.index[col].entry(v).or_default();
            bucket.push(id.0);
            if bucket.len() > self.max_bucket[col] {
                self.max_bucket[col] = bucket.len();
            }
        }
        for (&sig, map) in &mut self.composite {
            map.entry(hash_sig_cols(t, sig)).or_default().push(id.0);
        }
        Some(id)
    }

    /// Inserts a tuple as an asserted fact; returns `true` if it was new.
    pub fn insert(&mut self, t: &[Cst]) -> bool {
        self.insert_row(t).is_some()
    }

    /// Inserts a derived tuple (see [`Relation::insert_derived_row`]);
    /// returns `true` if it was new.
    pub fn insert_derived(&mut self, t: &[Cst]) -> bool {
        self.insert_derived_row(t).is_some()
    }

    /// The live row equal to `t`, if present.
    pub fn find(&self, t: &[Cst]) -> Option<RowId> {
        if t.len() != self.arity() {
            return None;
        }
        self.dedup
            .get(&hash_row(t))
            .and_then(|b| b.iter().copied().find(|&i| self.pool.row(i as usize) == t))
            .map(RowId)
    }

    /// Sets or clears the asserted (base-fact) bit of row `id`.
    pub fn set_asserted(&mut self, id: RowId, v: bool) {
        bit_set(&mut self.asserted, id.index(), v);
    }

    /// Tombstones the live rows `ids` in one batch: sets their bits, then
    /// visits each dedup, per-column and composite bucket the batch
    /// touches once, removing all of its ids in one pass (dropping
    /// emptied entries so distinct counts stay exact under deletion).
    /// Buckets stay ascending. A bucket costs what one `Vec::remove` from
    /// it would, however many of its ids go.
    pub fn retract_rows(&mut self, ids: &[RowId]) {
        if ids.is_empty() {
            return;
        }
        for &id in ids {
            debug_assert!(id.index() < self.len && !bit_get(&self.tomb, id.index()));
            bit_set(&mut self.tomb, id.index(), true);
        }
        self.dead += ids.len();
        let pool = &self.pool;
        for &id in ids {
            // Rows are distinct, so a dedup bucket with more than one id
            // is a hash collision: rare enough to remove one id at a time.
            map_remove(&mut self.dedup, hash_row(pool.row(id.index())), &[id.0]);
        }
        let mut group = Vec::new();
        let mut hashed: Vec<(u64, u32)> = Vec::new();
        let mut valued: Vec<(Cst, u32)> = Vec::with_capacity(ids.len());
        for (col, index) in self.index.iter_mut().enumerate() {
            valued.clear();
            valued.extend(ids.iter().map(|id| (pool.row(id.index())[col], id.0)));
            for_each_group(&mut valued, &mut group, |v, g| {
                map_remove(index, v, g);
            });
        }
        for (&sig, map) in self.composite.iter_mut() {
            hashed.clear();
            hashed.extend(
                ids.iter()
                    .map(|id| (hash_sig_cols(pool.row(id.index()), sig), id.0)),
            );
            for_each_group(&mut hashed, &mut group, |k, g| {
                map_remove(map, k, g);
            });
        }
    }

    /// Tombstones the live row equal to `t`, if any; returns its id.
    pub fn retract_tuple(&mut self, t: &[Cst]) -> Option<RowId> {
        let id = self.find(t)?;
        self.retract_rows(&[id]);
        Some(id)
    }

    /// Un-tombstones the rows `ids` in place (same RowIds, same arena
    /// slots) in one batch: clears their bits and merges them into every
    /// bucket they belong to, each touched bucket once, so buckets stay
    /// ascending and probe enumeration order is identical to never having
    /// retracted. Only the retraction passes call it: they restore rows
    /// whose consequences the over-delete/re-derive fixpoint already
    /// settles, and rollback returns to a state the evaluator has seen.
    /// The asserted bit is left as-is.
    pub(crate) fn restore_rows(&mut self, ids: &[RowId]) {
        if ids.is_empty() {
            return;
        }
        for &id in ids {
            debug_assert!(bit_get(&self.tomb, id.index()));
            bit_set(&mut self.tomb, id.index(), false);
        }
        self.dead -= ids.len();
        let pool = &self.pool;
        for &id in ids {
            map_merge(&mut self.dedup, hash_row(pool.row(id.index())), &[id.0]);
        }
        let mut group = Vec::new();
        let mut hashed: Vec<(u64, u32)> = Vec::new();
        let mut valued: Vec<(Cst, u32)> = Vec::with_capacity(ids.len());
        for (col, index) in self.index.iter_mut().enumerate() {
            valued.clear();
            valued.extend(ids.iter().map(|id| (pool.row(id.index())[col], id.0)));
            let max = &mut self.max_bucket[col];
            for_each_group(&mut valued, &mut group, |v, g| {
                *max = (*max).max(map_merge(index, v, g));
            });
        }
        for (&sig, map) in self.composite.iter_mut() {
            hashed.clear();
            hashed.extend(
                ids.iter()
                    .map(|id| (hash_sig_cols(pool.row(id.index()), sig), id.0)),
            );
            for_each_group(&mut hashed, &mut group, |k, g| {
                map_merge(map, k, g);
            });
        }
    }

    /// Re-derives the skew statistics once tombstones exceed 25% of the
    /// arena: recomputes `max_bucket` exactly from the live index buckets
    /// (insertion maintains it as a high-water mark, which deletion turns
    /// into an upper bound). Returns whether a recompute happened.
    pub fn maybe_resketch(&mut self) -> bool {
        if self.len == 0 || self.dead * 4 <= self.len {
            return false;
        }
        for col in 0..self.arity() {
            self.max_bucket[col] = self.index[col].values().map(Vec::len).max().unwrap_or(0);
        }
        true
    }

    /// Checks the relation's internal invariants against its arena, the
    /// tombstone bitmap taken as ground truth:
    ///
    /// * `dead` counts exactly the set tombstone bits, all below `len`;
    /// * the dedup table holds exactly the live ids, keyed by row hash;
    /// * every per-column and composite index holds exactly the live ids
    ///   under their column value or key hash, with no empty bucket;
    /// * every bucket above is in ascending id order;
    /// * `max_bucket[col]` bounds the largest bucket of column `col`.
    ///
    /// Returns the first violation found. Costs a rebuild of every index,
    /// so it belongs in tests and debugging sessions, not on a hot path.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn same<K: std::hash::Hash + Eq + fmt::Debug>(
            what: &str,
            got: &FxHashMap<K, Vec<u32>>,
            want: &FxHashMap<K, Vec<u32>>,
        ) -> Result<(), String> {
            if got.len() != want.len() {
                return Err(format!(
                    "{what}: {} buckets, the arena implies {}",
                    got.len(),
                    want.len()
                ));
            }
            for (k, ids) in want {
                match got.get(k) {
                    Some(b) if b == ids => {}
                    Some(b) => return Err(format!("{what}[{k:?}] holds {b:?}, want {ids:?}")),
                    None => return Err(format!("{what}[{k:?}] is missing, want {ids:?}")),
                }
            }
            Ok(())
        }
        let set = (0..self.len).filter(|&i| bit_get(&self.tomb, i)).count();
        if set != self.dead {
            return Err(format!(
                "dead = {}, the bitmap has {set} tombstones",
                self.dead
            ));
        }
        if (self.len..self.tomb.len() * 64).any(|i| bit_get(&self.tomb, i)) {
            return Err(format!(
                "a tombstone bit is set at or past len = {}",
                self.len
            ));
        }
        let live = || (0..self.len).filter(|&i| !bit_get(&self.tomb, i));
        let mut dedup: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for i in live() {
            dedup
                .entry(hash_row(self.pool.row(i)))
                .or_default()
                .push(i as u32);
        }
        same("dedup", &self.dedup, &dedup)?;
        for col in 0..self.arity() {
            let mut index: FxHashMap<Cst, Vec<u32>> = FxHashMap::default();
            for i in live() {
                index
                    .entry(self.pool.row(i)[col])
                    .or_default()
                    .push(i as u32);
            }
            same(&format!("index[{col}]"), &self.index[col], &index)?;
            let widest = index.values().map(Vec::len).max().unwrap_or(0);
            if self.max_bucket[col] < widest {
                return Err(format!(
                    "max_bucket[{col}] = {} under a bucket of {widest}",
                    self.max_bucket[col]
                ));
            }
        }
        for (&sig, map) in &self.composite {
            let mut index: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            for i in live() {
                index
                    .entry(hash_sig_cols(self.pool.row(i), sig))
                    .or_default()
                    .push(i as u32);
            }
            same(&format!("composite[{sig:#b}]"), map, &index)?;
        }
        Ok(())
    }

    /// Every piece of the relation's state rendered in a fixed order
    /// (hash maps sorted by key), so two relations render equal exactly
    /// when their arenas, bitmaps, indexes and statistics are.
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> String {
        fn sorted<K: Ord + Copy + fmt::Debug>(map: &FxHashMap<K, Vec<u32>>) -> Vec<(K, &Vec<u32>)> {
            let mut v: Vec<(K, &Vec<u32>)> = map.iter().map(|(k, b)| (*k, b)).collect();
            v.sort_unstable_by_key(|e| e.0);
            v
        }
        let cells: Vec<usize> = self.pool.data.iter().map(|c| c.index()).collect();
        let mut sigs: Vec<u64> = self.composite.keys().copied().collect();
        sigs.sort_unstable();
        let composite: Vec<_> = sigs
            .iter()
            .map(|s| (s, sorted(&self.composite[s])))
            .collect();
        let index: Vec<_> = self.index.iter().map(sorted).collect();
        let trim = |w: &[u64]| -> Vec<u64> {
            let n = w.iter().rposition(|&x| x != 0).map_or(0, |i| i + 1);
            w[..n].to_vec()
        };
        format!(
            "len {} dead {} cells {cells:?} tomb {:?} asserted {:?} dedup {:?} \
             index {index:?} composite {composite:?} max_bucket {:?} compactions {}",
            self.len,
            self.dead,
            trim(&self.tomb),
            trim(&self.asserted),
            sorted(&self.dedup),
            self.max_bucket,
            self.compactions,
        )
    }

    /// Physically drops tombstoned rows: live rows are renumbered densely
    /// in their existing order and every index (dedup, per-column,
    /// composite) is rebuilt. Row ids change, so the compaction counter is
    /// bumped. Returns `true` if anything was dropped.
    pub fn compact(&mut self) -> bool {
        if self.dead == 0 {
            return false;
        }
        let arity = self.arity();
        let sigs: Vec<u64> = self.composite.keys().copied().collect();
        let mut pool = RowPool::new(arity);
        let mut asserted = Vec::new();
        let mut n = 0usize;
        for i in 0..self.len {
            if bit_get(&self.tomb, i) {
                continue;
            }
            pool.push(self.pool.row(i), n);
            if bit_get(&self.asserted, i) {
                bit_set(&mut asserted, n, true);
            }
            n += 1;
        }
        self.pool = pool;
        self.len = n;
        self.dead = 0;
        self.tomb.clear();
        self.asserted = asserted;
        self.dedup.clear();
        for col in 0..arity {
            self.index[col].clear();
            self.max_bucket[col] = 0;
        }
        self.composite.clear();
        for i in 0..n {
            let t: Vec<Cst> = self.pool.row(i).to_vec();
            self.dedup.entry(hash_row(&t)).or_default().push(i as u32);
            for (col, &v) in t.iter().enumerate() {
                let bucket = self.index[col].entry(v).or_default();
                bucket.push(i as u32);
                if bucket.len() > self.max_bucket[col] {
                    self.max_bucket[col] = bucket.len();
                }
            }
        }
        for sig in sigs {
            self.ensure_composite(sig);
        }
        self.compactions += 1;
        true
    }

    /// Membership test.
    pub fn contains(&self, t: &[Cst]) -> bool {
        if t.len() != self.arity() {
            return false;
        }
        self.dedup
            .get(&hash_row(t))
            .is_some_and(|bucket| bucket.iter().any(|&i| self.row(RowId(i)) == t))
    }

    /// The row carried by a handle.
    #[inline]
    pub fn row(&self, id: RowId) -> &[Cst] {
        debug_assert!(id.index() < self.len);
        self.pool.row(id.index())
    }

    /// All tuples in insertion order.
    pub fn rows(&self) -> Rows<'_> {
        self.rows_range(0, self.len)
    }

    /// Tuples inserted at or after index `from` (the semi-naive delta).
    pub fn rows_from(&self, from: usize) -> Rows<'_> {
        self.rows_range(from, self.len)
    }

    /// The flat cell slice of every tuple at or after index `from` — rows
    /// are contiguous in the arena, `arity` cells each, in insertion
    /// order. The durable-storage sink bulk-copies a round's new rows from
    /// here instead of re-walking them tuple by tuple. Empty for arity-0
    /// relations (their rows occupy no arena space; use
    /// [`Relation::len`]).
    #[inline]
    pub fn cells_from(&self, from: usize) -> &[Cst] {
        self.pool.cells_from(from)
    }

    /// Tuples with dense indexes in `from..to` (a delta chunk), skipping
    /// tombstoned rows. Tombstone-free relations pay nothing for the skip
    /// (the iterator carries an empty bitmap slice).
    pub fn rows_range(&self, from: usize, to: usize) -> Rows<'_> {
        debug_assert!(from <= to && to <= self.len);
        Rows {
            pool: &self.pool,
            next: from,
            end: to,
            tomb: if self.dead == 0 { &[] } else { &self.tomb },
        }
    }

    /// Iterates tuples matching a pattern (`None` = wildcard). Uses the
    /// per-column index of the most selective bound column when there is
    /// one, falling back to a scan otherwise.
    pub fn select<'a, 'p>(&'a self, pattern: &'p [Option<Cst>]) -> Select<'a, 'p> {
        debug_assert_eq!(pattern.len(), self.arity());
        // Pick the bound column with the smallest bucket.
        let best: Option<&[u32]> = pattern
            .iter()
            .enumerate()
            .filter_map(|(col, p)| p.map(|c| self.index[col].get(&c)))
            .map(|bucket| bucket.map_or(&[][..], Vec::as_slice))
            .min_by_key(|b| b.len());
        match best {
            Some(bucket) => Select::Indexed {
                rel: self,
                bucket: bucket.iter(),
                pattern,
            },
            None => Select::Scan {
                rows: self.rows(),
                pattern,
            },
        }
    }

    /// Row ids whose column `col` holds `v` (the always-present per-column
    /// index; an absent value is an empty bucket).
    #[inline]
    pub(crate) fn column_bucket(&self, col: usize, v: Cst) -> &[u32] {
        self.index[col].get(&v).map_or(&[], Vec::as_slice)
    }

    /// Probes the composite index for `sig` at `key_hash`. A built index
    /// with no such key yields an empty bucket.
    #[inline]
    pub(crate) fn composite_probe(&self, sig: u64, key_hash: u64) -> CompositeProbe<'_> {
        if self.covers_all(sig) {
            return CompositeProbe::Bucket(
                self.dedup.get(&key_hash).map_or(&[][..], Vec::as_slice),
            );
        }
        let Some(map) = self.composite.get(&sig) else {
            return CompositeProbe::NotBuilt;
        };
        CompositeProbe::Bucket(map.get(&key_hash).map_or(&[][..], Vec::as_slice))
    }

    /// Whether `sig` binds every column: such a probe is a lookup in the
    /// dedup table, whose row hash is the all-columns key hash.
    #[inline]
    fn covers_all(&self, sig: u64) -> bool {
        sig.count_ones() as usize == self.arity()
    }

    /// Builds the composite index for `sig` if it does not exist yet.
    /// Single-column signatures are served by the always-present per-column
    /// indexes and all-column signatures by the dedup table, so nothing is
    /// built for them. Subsequent inserts maintain the index incrementally.
    pub fn ensure_composite(&mut self, sig: u64) {
        if sig.count_ones() <= 1 || self.covers_all(sig) || self.composite.contains_key(&sig) {
            return;
        }
        let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for i in 0..self.len {
            if self.dead > 0 && bit_get(&self.tomb, i) {
                continue;
            }
            map.entry(hash_sig_cols(self.pool.row(i), sig))
                .or_default()
                .push(i as u32);
        }
        self.composite.insert(sig, map);
    }

    /// Whether the composite index for `sig` has been built.
    pub fn has_composite(&self, sig: u64) -> bool {
        sig.count_ones() <= 1 || self.covers_all(sig) || self.composite.contains_key(&sig)
    }

    /// Answers a bound-column probe: `sig` names the bound columns and
    /// `key` holds their values in ascending column order. Returns the
    /// candidate row ids and whether the index fully covered the bound
    /// columns; candidates must still be confirmed against the key (hash
    /// buckets can collide, and a partial cover filters only one column).
    pub fn probe(&self, sig: u64, key: &[Cst]) -> Probe<'_> {
        debug_assert_eq!(sig.count_ones() as usize, key.len());
        if sig == 0 {
            return Probe::Scan;
        }
        if sig.count_ones() == 1 {
            let col = sig.trailing_zeros() as usize;
            let bucket = self.index[col].get(&key[0]).map_or(&[][..], Vec::as_slice);
            return Probe::Index(bucket);
        }
        if self.covers_all(sig) {
            let bucket = self
                .dedup
                .get(&hash_key(key))
                .map_or(&[][..], Vec::as_slice);
            return Probe::Index(bucket);
        }
        if let Some(map) = self.composite.get(&sig) {
            let bucket = map.get(&hash_key(key)).map_or(&[][..], Vec::as_slice);
            return Probe::Index(bucket);
        }
        // No composite index (immutable caller): fall back to the smallest
        // single-column bucket among the bound columns.
        let mut best: &[u32] = &[];
        let mut best_len = usize::MAX;
        let mut bits = sig;
        let mut ki = 0;
        while bits != 0 {
            let col = bits.trailing_zeros() as usize;
            let bucket = self.index[col].get(&key[ki]).map_or(&[][..], Vec::as_slice);
            if bucket.len() < best_len {
                best = bucket;
                best_len = bucket.len();
            }
            bits &= bits - 1;
            ki += 1;
        }
        Probe::Partial(best)
    }
}

/// Result of [`Relation::composite_probe`]: like the composite arm of
/// [`Relation::probe`], but never falls back to partial single-column
/// buckets (the executor owns that policy).
#[derive(Clone, Debug)]
pub(crate) enum CompositeProbe<'a> {
    /// The composite index for this signature was never built.
    NotBuilt,
    /// Candidate row ids from the hash bucket (possibly empty); they still
    /// need a confirm pass against the actual key.
    Bucket(&'a [u32]),
}

/// Result of [`Relation::probe`]: candidate row ids for a bound-column
/// selection, tagged by how much of the key the index covered.
#[derive(Clone, Debug)]
pub enum Probe<'a> {
    /// All bound columns are covered (per-column index for one bound
    /// column, composite index otherwise); candidates still need a confirm
    /// pass because composite buckets are keyed by hash.
    Index(&'a [u32]),
    /// Only the most selective single bound column filtered the candidates;
    /// the probe must re-check every bound column.
    Partial(&'a [u32]),
    /// No bound columns: the caller scans the relation.
    Scan,
}

/// Iterator over a contiguous range of a relation's rows, skipping
/// tombstoned slots. `tomb` is the empty slice for tombstone-free
/// relations, so the common case stays a branch on an empty-slice check.
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    pool: &'a RowPool,
    next: usize,
    end: usize,
    tomb: &'a [u64],
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Cst];

    #[inline]
    fn next(&mut self) -> Option<&'a [Cst]> {
        while self.next != self.end {
            let i = self.next;
            self.next += 1;
            if !self.tomb.is_empty() && bit_get(self.tomb, i) {
                continue;
            }
            return Some(self.pool.row(i));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        if self.tomb.is_empty() {
            (n, Some(n))
        } else {
            (0, Some(n))
        }
    }
}

fn pattern_matches(row: &[Cst], pattern: &[Option<Cst>]) -> bool {
    row.iter()
        .zip(pattern)
        .all(|(v, p)| p.is_none_or(|c| c == *v))
}

/// Iterator returned by [`Relation::select`]: either walks an index bucket
/// or scans the whole pool, filtering by the pattern either way.
pub enum Select<'a, 'p> {
    /// Walking the bucket of the most selective bound column.
    Indexed {
        /// The relation being selected from.
        rel: &'a Relation,
        /// Remaining row ids in the chosen bucket.
        bucket: std::slice::Iter<'a, u32>,
        /// The selection pattern (`None` = wildcard).
        pattern: &'p [Option<Cst>],
    },
    /// No bound column: full scan.
    Scan {
        /// Remaining rows.
        rows: Rows<'a>,
        /// The selection pattern (`None` = wildcard).
        pattern: &'p [Option<Cst>],
    },
}

impl<'a> Iterator for Select<'a, '_> {
    type Item = &'a [Cst];

    fn next(&mut self) -> Option<&'a [Cst]> {
        match self {
            Select::Indexed {
                rel,
                bucket,
                pattern,
            } => bucket
                .by_ref()
                .map(|&i| rel.row(RowId(i)))
                .find(|row| pattern_matches(row, pattern)),
            Select::Scan { rows, pattern } => {
                rows.by_ref().find(|row| pattern_matches(row, pattern))
            }
        }
    }
}

/// A point-in-time cardinality snapshot of one relation, consumed by the
/// compile-time join cost model in `program.rs`.
///
/// All three statistics are maintained for free by [`Relation::insert_row`]:
/// `rows` is the arena length, `distinct[col]` is the size of the per-column
/// index map, and `max_bucket[col]` is the largest bucket that index has ever
/// held. A snapshot never mutates — plans compiled from it stay fixed for a
/// whole evaluation, which is what keeps parallel runs byte-deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Number of tuples at snapshot time.
    pub rows: usize,
    /// Distinct values per column at snapshot time.
    pub distinct: Vec<usize>,
    /// Largest single-value index bucket per column at snapshot time: the
    /// worst-case fan-out of a one-column probe (skew clamp).
    pub max_bucket: Vec<usize>,
}

/// A database-wide statistics snapshot: one [`RelStats`] per non-empty
/// relation. The cost model treats predicates absent from the snapshot as
/// *cold* and falls back to the greedy boundness order for rules whose
/// bodies it knows nothing about.
#[derive(Clone, Debug, Default)]
pub struct PlanStats {
    per_pred: FxHashMap<Pred, RelStats>,
    total_rows: usize,
}

impl PlanStats {
    /// A snapshot with no statistics at all: every lookup misses, so every
    /// compile falls back to the greedy order.
    pub fn empty() -> PlanStats {
        PlanStats::default()
    }

    /// The snapshot for `p`, if `p` had rows at snapshot time.
    pub fn get(&self, p: Pred) -> Option<&RelStats> {
        self.per_pred.get(&p)
    }

    /// Total rows across all snapshotted relations. Used as the pessimistic
    /// default cardinality for predicates the snapshot knows nothing about
    /// (typically IDB predicates that are empty now but grow during the
    /// run).
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }
}

/// A database: one [`Relation`] per predicate, created on demand.
#[derive(Clone, Default)]
pub struct Database {
    relations: FxHashMap<Pred, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The relation for `p`, creating it (with `arity`) if absent.
    pub fn relation_mut(&mut self, p: Pred, arity: usize) -> &mut Relation {
        let rel = self
            .relations
            .entry(p)
            .or_insert_with(|| Relation::new(arity));
        assert_eq!(rel.arity(), arity, "predicate used with two arities");
        rel
    }

    /// The relation for `p`, if any tuple or declaration created it.
    pub fn relation(&self, p: Pred) -> Option<&Relation> {
        self.relations.get(&p)
    }

    /// Inserts an asserted (base) fact; returns `true` if new.
    pub fn insert(&mut self, p: Pred, t: &[Cst]) -> bool {
        self.relation_mut(p, t.len()).insert(t)
    }

    /// Inserts a rule-derived fact (leaves the asserted bit clear);
    /// returns `true` if new.
    pub fn insert_derived(&mut self, p: Pred, t: &[Cst]) -> bool {
        self.relation_mut(p, t.len()).insert_derived(t)
    }

    /// Compacts every relation (physically dropping tombstoned rows and
    /// rebuilding indexes); returns how many relations changed. Row ids
    /// are renumbered, so snapshot writers must persist in the same pass
    /// to keep on-disk and in-memory ids in lock-step.
    pub fn compact(&mut self) -> usize {
        self.relations
            .values_mut()
            .map(|r| usize::from(r.compact()))
            .sum()
    }

    /// Ensures `p`'s relation (if it exists) has the composite index for
    /// `sig`. Called by the evaluator before each round with the signatures
    /// its compiled programs will probe.
    pub fn ensure_composite(&mut self, p: Pred, sig: u64) {
        if let Some(rel) = self.relations.get_mut(&p) {
            rel.ensure_composite(sig);
        }
    }

    /// Membership test; absent predicates are empty.
    pub fn contains(&self, p: Pred, t: &[Cst]) -> bool {
        self.relations.get(&p).is_some_and(|r| r.contains(t))
    }

    /// Total number of live tuples across relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::live).sum()
    }

    /// Approximate resident bytes across relations (see
    /// [`Relation::approx_bytes`]); checked against the governor's byte
    /// budget at round boundaries.
    pub fn approx_bytes(&self) -> usize {
        self.relations.values().map(Relation::approx_bytes).sum()
    }

    /// Iterates `(predicate, relation)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pred, &Relation)> {
        self.relations.iter().map(|(&p, r)| (p, r))
    }

    /// Snapshots cardinality statistics for every non-empty relation, for
    /// the compile-time cost model ([`crate::DeltaPlan::planned`]). Empty
    /// relations are omitted so the planner treats them as cold rather than
    /// as genuinely-zero-cost (an IDB relation that is empty *now* usually
    /// is not by round two).
    pub fn plan_stats(&self) -> PlanStats {
        let mut per_pred = FxHashMap::default();
        let mut total_rows = 0;
        for (&p, rel) in self.relations.iter() {
            if !rel.is_empty() {
                total_rows += rel.live();
                per_pred.insert(p, rel.stats());
            }
        }
        PlanStats {
            per_pred,
            total_rows,
        }
    }

    /// Checks every relation with [`Relation::check_invariants`]; the
    /// error names the first failing predicate by its symbol index.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut preds: Vec<Pred> = self.relations.keys().copied().collect();
        preds.sort_unstable();
        for p in preds {
            self.relations[&p]
                .check_invariants()
                .map_err(|e| format!("relation #{}: {e}", p.index()))?;
        }
        Ok(())
    }

    /// [`Relation::fingerprint`] of every relation, in predicate order.
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> Vec<(Pred, String)> {
        let mut out: Vec<(Pred, String)> = self
            .relations
            .iter()
            .map(|(&p, r)| (p, r.fingerprint()))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Renders all facts sorted by text, for tests and goldens.
    pub fn dump(&self, interner: &Interner) -> Vec<String> {
        let mut out = Vec::with_capacity(self.fact_count());
        for (p, rel) in self.iter() {
            for row in rel.rows() {
                let args = row
                    .iter()
                    .map(|c| interner.resolve(c.sym()).to_owned())
                    .collect::<Vec<_>>()
                    .join(",");
                out.push(format!("{}({})", interner.resolve(p.sym()), args));
            }
        }
        out.sort_unstable();
        out
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Database({} facts)", self.fact_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csts(i: &mut Interner, names: &[&str]) -> Vec<Cst> {
        names.iter().map(|n| Cst(i.intern(n))).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut i = Interner::new();
        let c = csts(&mut i, &["a", "b"]);
        let mut r = Relation::new(2);
        assert!(r.insert(&c));
        assert!(!r.insert(&c));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&c));
    }

    #[test]
    fn rows_are_pooled_and_addressable() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c"]);
        let mut r = Relation::new(2);
        let id0 = r.insert_row(&[v[0], v[1]]).unwrap();
        let id1 = r.insert_row(&[v[1], v[2]]).unwrap();
        assert!(r.insert_row(&[v[0], v[1]]).is_none());
        assert_eq!(id0, RowId(0));
        assert_eq!(id1, RowId(1));
        assert_eq!(r.row(id1), &[v[1], v[2]]);
        let collected: Vec<&[Cst]> = r.rows().collect();
        assert_eq!(collected, vec![&[v[0], v[1]][..], &[v[1], v[2]][..]]);
    }

    #[test]
    fn arity_zero_rows_dedup() {
        let mut r = Relation::new(0);
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.rows().count(), 1);
        assert_eq!(r.row(RowId(0)), &[] as &[Cst]);
    }

    #[test]
    fn select_filters_by_pattern() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c"]);
        let (a, b, c) = (v[0], v[1], v[2]);
        let mut r = Relation::new(2);
        r.insert(&[a, b]);
        r.insert(&[a, c]);
        r.insert(&[b, c]);
        assert_eq!(r.select(&[Some(a), None]).count(), 2);
        assert_eq!(r.select(&[None, Some(c)]).count(), 2);
        assert_eq!(r.select(&[Some(b), Some(b)]).count(), 0);
        assert_eq!(r.select(&[None, None]).count(), 3);
    }

    #[test]
    fn rows_from_exposes_delta() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b"]);
        let mut r = Relation::new(1);
        r.insert(&[v[0]]);
        let mark = r.len();
        r.insert(&[v[1]]);
        let delta: Vec<&[Cst]> = r.rows_from(mark).collect();
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0][0], v[1]);
    }

    #[test]
    fn rows_range_is_a_chunk() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c", "d"]);
        let mut r = Relation::new(1);
        for &c in &v {
            r.insert(&[c]);
        }
        let chunk: Vec<&[Cst]> = r.rows_range(1, 3).collect();
        assert_eq!(chunk, vec![&[v[1]][..], &[v[2]][..]]);
        assert_eq!(r.rows_range(2, 2).count(), 0);
    }

    /// Resolves a probe to confirmed rows (re-checking the key), in id
    /// order — the test-side equivalent of what the compiled executor does.
    fn probe_rows<'a>(r: &'a Relation, sig: u64, key: &[Cst]) -> Vec<&'a [Cst]> {
        let ids: &[u32] = match r.probe(sig, key) {
            Probe::Index(ids) | Probe::Partial(ids) => ids,
            Probe::Scan => return r.rows().collect(),
        };
        ids.iter()
            .map(|&i| r.row(RowId(i)))
            .filter(|row| {
                let mut bits = sig;
                let mut ki = 0;
                let mut ok = true;
                while bits != 0 {
                    let col = bits.trailing_zeros() as usize;
                    ok &= row[col] == key[ki];
                    bits &= bits - 1;
                    ki += 1;
                }
                ok
            })
            .collect()
    }

    #[test]
    fn composite_probe_answers_multi_column_keys() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c"]);
        let (a, b, c) = (v[0], v[1], v[2]);
        let mut r = Relation::new(3);
        r.insert(&[a, b, c]);
        r.insert(&[a, b, a]);
        r.insert(&[a, c, c]);
        // Without the index, a two-column probe is only partially covered.
        assert!(matches!(r.probe(0b011, &[a, b]), Probe::Partial(_)));
        assert!(matches!(
            r.composite_probe(0b011, hash_key(&[a, b])),
            CompositeProbe::NotBuilt
        ));
        assert_eq!(probe_rows(&r, 0b011, &[a, b]).len(), 2);
        // Build it: the same probe is now fully covered.
        r.ensure_composite(0b011);
        assert!(r.has_composite(0b011));
        assert!(matches!(r.probe(0b011, &[a, b]), Probe::Index(_)));
        assert_eq!(probe_rows(&r, 0b011, &[a, b]).len(), 2);
        match r.composite_probe(0b011, hash_key(&[a, b])) {
            CompositeProbe::Bucket(ids) => assert_eq!(ids.len(), 2),
            other => panic!("expected bucket, got {other:?}"),
        }
        assert_eq!(probe_rows(&r, 0b011, &[b, b]).len(), 0);
        // Columns 0 and 2 (non-adjacent signature).
        r.ensure_composite(0b101);
        assert_eq!(probe_rows(&r, 0b101, &[a, c]).len(), 2);
    }

    #[test]
    fn composite_index_is_maintained_on_insert() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c"]);
        let (a, b, c) = (v[0], v[1], v[2]);
        let mut r = Relation::new(2);
        r.insert(&[a, b]);
        r.ensure_composite(0b11);
        r.insert(&[a, c]);
        r.insert(&[a, b]); // duplicate: must not double-index
        assert_eq!(probe_rows(&r, 0b11, &[a, c]).len(), 1);
        assert_eq!(probe_rows(&r, 0b11, &[a, b]).len(), 1);
    }

    #[test]
    fn single_column_probes_use_column_index() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b"]);
        let mut r = Relation::new(2);
        r.insert(&[v[0], v[1]]);
        r.insert(&[v[1], v[1]]);
        // Column signatures with one bit never build anything...
        r.ensure_composite(0b10);
        assert!(r.has_composite(0b10));
        // ...but are still fully covered probes.
        assert!(matches!(r.probe(0b10, &[v[1]]), Probe::Index(_)));
        assert_eq!(probe_rows(&r, 0b10, &[v[1]]).len(), 2);
        assert!(matches!(r.probe(0, &[]), Probe::Scan));
    }

    #[test]
    fn database_creates_relations_on_demand() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let a = Cst(i.intern("a"));
        let mut db = Database::new();
        assert!(db.relation(p).is_none());
        assert!(db.insert(p, &[a]));
        assert!(db.contains(p, &[a]));
        assert_eq!(db.fact_count(), 1);
    }

    #[test]
    #[should_panic(expected = "two arities")]
    fn arity_conflict_panics() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let a = Cst(i.intern("a"));
        let mut db = Database::new();
        db.insert(p, &[a]);
        db.relation_mut(p, 2);
    }

    #[test]
    fn dump_is_sorted_and_readable() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let v = csts(&mut i, &["b", "a"]);
        let mut db = Database::new();
        db.insert(p, &[v[0]]);
        db.insert(q, &[v[1], v[0]]);
        assert_eq!(db.dump(&i), vec!["P(b)".to_string(), "Q(a,b)".to_string()]);
    }

    #[test]
    fn retract_tombstones_without_moving_rows() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c"]);
        let mut r = Relation::new(1);
        let ids: Vec<RowId> = v.iter().map(|&c| r.insert_row(&[c]).unwrap()).collect();
        let gone = r.retract_tuple(&[v[1]]).unwrap();
        assert_eq!(gone, ids[1]);
        // Dense high-water unchanged; live count and membership down.
        assert_eq!(r.len(), 3);
        assert_eq!(r.live(), 2);
        assert_eq!(r.dead(), 1);
        assert!(!r.contains(&[v[1]]));
        assert!(r.is_tombstoned(ids[1]));
        assert_eq!(r.stats().rows, 2);
        // Iteration, selects and dumps skip the tombstone.
        let live: Vec<&[Cst]> = r.rows().collect();
        assert_eq!(live, vec![&[v[0]][..], &[v[2]][..]]);
        assert_eq!(r.select(&[None]).count(), 2);
        assert_eq!(r.select(&[Some(v[1])]).count(), 0);
        // Retracting again finds nothing.
        assert!(r.retract_tuple(&[v[1]]).is_none());
    }

    #[test]
    fn public_reinsert_of_a_retracted_tuple_appends() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c"]);
        let mut r = Relation::new(1);
        let ids: Vec<RowId> = v.iter().map(|&c| r.insert_row(&[c]).unwrap()).collect();
        r.retract_rows(&[ids[1]]);
        let (len_before, live_before) = (r.len(), r.live());
        // Re-asserting the same tuple appends a fresh row past the old
        // high-water mark, so a semi-naive delta sees it; the tombstoned
        // slot stays dead until `compact`.
        let back = r.insert_row(&[v[1]]).unwrap();
        assert_eq!(back, RowId(len_before as u32));
        assert_eq!(r.len(), len_before + 1);
        assert_eq!(r.live(), live_before + 1);
        assert_eq!(r.dead(), 1);
        assert!(r.is_tombstoned(ids[1]));
        assert!(r.is_asserted(back));
        assert_eq!(r.find(&[v[1]]), Some(back));
        let all: Vec<&[Cst]> = r.rows().collect();
        assert_eq!(all, vec![&[v[0]][..], &[v[2]][..], &[v[1]][..]]);
        r.check_invariants().unwrap();
    }

    #[test]
    fn derived_insert_never_reclaims() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b"]);
        let mut r = Relation::new(1);
        let id = r.insert_row(&[v[0]]).unwrap();
        r.insert_row(&[v[1]]);
        r.retract_rows(&[id]);
        // A derived duplicate of a *tombstoned* tuple must append: round
        // deltas stay contiguous and the WAL's `cells_from` contract
        // holds. The tombstoned slot stays dead.
        let fresh = r.insert_derived_row(&[v[0]]).unwrap();
        assert_eq!(fresh, RowId(2));
        assert!(r.is_tombstoned(id));
        assert!(!r.is_asserted(fresh));
        assert_eq!(r.live(), 2);
    }

    #[test]
    fn restore_revives_in_place_without_epoch_bump() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c"]);
        let mut r = Relation::new(2);
        r.insert(&[v[0], v[1]]);
        let id = r.insert_row(&[v[1], v[2]]).unwrap();
        r.retract_rows(&[id]);
        r.restore_rows(&[id]);
        assert_eq!(r.live(), 2);
        assert_eq!(r.find(&[v[1], v[2]]), Some(id));
        assert_eq!(r.select(&[Some(v[1]), None]).count(), 1);
        r.check_invariants().unwrap();
    }

    #[test]
    fn compact_drops_tombstones_and_rebuilds_indexes() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c", "d"]);
        let mut r = Relation::new(2);
        r.insert(&[v[0], v[1]]);
        r.insert(&[v[1], v[2]]);
        r.insert(&[v[2], v[3]]);
        r.ensure_composite(0b11);
        let compactions = r.compactions();
        r.retract_tuple(&[v[1], v[2]]).unwrap();
        assert!(r.compact());
        assert_eq!(r.len(), 2);
        assert_eq!(r.dead(), 0);
        assert_eq!(r.compactions(), compactions + 1);
        // Survivors are renumbered densely in their old order.
        assert_eq!(r.row(RowId(0)), &[v[0], v[1]]);
        assert_eq!(r.row(RowId(1)), &[v[2], v[3]]);
        // The rebuilt composite index answers exactly.
        match r.composite_probe(0b11, hash_sig_cols(&[v[2], v[3]], 0b11)) {
            CompositeProbe::Bucket(b) => assert_eq!(b, &[1]),
            other => panic!("expected bucket, got {other:?}"),
        }
        // Nothing dead: compact is a no-op.
        assert!(!r.compact());
    }

    #[test]
    fn resketch_triggers_past_quarter_tombstones() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..8).map(|k| format!("c{k}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let v = csts(&mut i, &refs);
        let mut r = Relation::new(2);
        // Column 0 skewed onto one value, so max_bucket is large.
        for &c in &v {
            r.insert(&[v[0], c]);
        }
        assert_eq!(r.max_bucket(0), 8);
        r.retract_tuple(&[v[0], v[0]]).unwrap();
        // 1/8 dead: below threshold, the high-water mark stays stale.
        assert!(!r.maybe_resketch());
        assert_eq!(r.max_bucket(0), 8);
        r.retract_tuple(&[v[0], v[1]]).unwrap();
        r.retract_tuple(&[v[0], v[2]]).unwrap();
        // 3/8 dead (> 25%): recompute makes the skew exact again.
        assert!(r.maybe_resketch());
        assert_eq!(r.max_bucket(0), 5);
    }

    #[test]
    fn database_compact_reports_changed_relations() {
        let mut i = Interner::new();
        let p = Pred(i.intern("P"));
        let q = Pred(i.intern("Q"));
        let v = csts(&mut i, &["a", "b"]);
        let mut db = Database::new();
        db.insert(p, &[v[0]]);
        db.insert(p, &[v[1]]);
        db.insert(q, &[v[0], v[1]]);
        db.relation_mut(p, 1).retract_tuple(&[v[0]]).unwrap();
        assert_eq!(db.compact(), 1);
        assert_eq!(db.fact_count(), 2);
    }

    #[test]
    fn batched_tombstones_keep_every_bucket_exact() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..12).map(|k| format!("c{k}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let v = csts(&mut i, &refs);
        let mut r = Relation::new(3);
        for (k, &c) in v.iter().enumerate() {
            r.insert(&[v[0], c, v[k % 3]]);
        }
        r.ensure_composite(0b101);
        let before = r.fingerprint();
        // Strip most of column 0's single bucket in one batch, out of id
        // order, then revive part of it: buckets stay ascending and exact.
        let gone: Vec<RowId> = [9, 1, 4, 7, 2, 11, 0].map(RowId).to_vec();
        r.retract_rows(&gone);
        r.check_invariants().unwrap();
        assert_eq!(r.live(), 5);
        assert_eq!(r.select(&[Some(v[0]), None, None]).count(), 5);
        r.restore_rows(&[RowId(7), RowId(0)]);
        r.check_invariants().unwrap();
        r.restore_rows(&[RowId(11), RowId(1), RowId(4), RowId(2), RowId(9)]);
        r.check_invariants().unwrap();
        assert_eq!(r.fingerprint(), before);
    }

    #[test]
    fn invariant_checker_reports_a_stale_bucket() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b"]);
        let mut r = Relation::new(2);
        r.insert(&[v[0], v[1]]);
        r.insert(&[v[1], v[1]]);
        r.check_invariants().unwrap();
        r.index[1].get_mut(&v[1]).unwrap().reverse();
        assert!(r.check_invariants().unwrap_err().contains("index[1]"));
        r.index[1].get_mut(&v[1]).unwrap().reverse();
        r.dead = 1;
        assert!(r.check_invariants().unwrap_err().contains("dead"));
    }

    #[test]
    fn all_column_probes_use_the_dedup_table() {
        let mut i = Interner::new();
        let v = csts(&mut i, &["a", "b", "c"]);
        let mut r = Relation::new(2);
        r.insert(&[v[0], v[1]]);
        r.insert(&[v[1], v[2]]);
        r.ensure_composite(0b11);
        assert!(r.has_composite(0b11));
        assert!(r.composite.is_empty(), "no composite index is built");
        assert!(matches!(r.probe(0b11, &[v[1], v[2]]), Probe::Index(ids) if ids == [1]));
        match r.composite_probe(0b11, hash_key(&[v[0], v[1]])) {
            CompositeProbe::Bucket(ids) => assert_eq!(ids, &[0]),
            other => panic!("expected bucket, got {other:?}"),
        }
    }

    #[test]
    fn bucket_merge_and_remove_keep_order() {
        let mut b: Vec<u32> = vec![2, 5, 9, 14, 20];
        merge_ids(&mut b, &[0, 6, 7, 21]);
        assert_eq!(b, [0, 2, 5, 6, 7, 9, 14, 20, 21]);
        remove_ids(&mut b, &[0, 7, 9, 21]);
        assert_eq!(b, [2, 5, 6, 14, 20]);
        remove_ids(&mut b, &[6]);
        merge_ids(&mut b, &[30]);
        assert_eq!(b, [2, 5, 14, 20, 30]);
        remove_ids(&mut b, &[2, 5, 14, 20, 30]);
        assert!(b.is_empty());
    }
}
