//! Tables: slab-stored rows, secondary indexes, planner-driven predicate
//! selection, and the per-table statistics behind the TBLSTATS relation (§6).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use moira_common::errors::{MrError, MrResult};

use crate::plan::{self, Plan, PlanStats};
use crate::query::Pred;
use crate::schema::TableSchema;
use crate::value::{ColType, Symbols, Value};

/// Identifier of a row within one table (stable across updates, reused only
/// after deletion).
pub type RowId = usize;

/// Mutation counters for one table — the raw material of TBLSTATS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Rows appended over the table's lifetime.
    pub appends: u64,
    /// In-place updates.
    pub updates: u64,
    /// Deletions.
    pub deletes: u64,
    /// Unix time of the last append/update/delete.
    pub modtime: i64,
    /// Monotonic mutation generation: bumped exactly once per
    /// append/update/delete, so per-table generations sum to
    /// `Database::mutation_count`. Unlike `modtime` (seconds granularity)
    /// two mutations can never share a generation.
    pub generation: u64,
}

/// One entry of a [`Table::changed_since`] cursor read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowChange {
    /// The row is live and was appended or updated after the cursor.
    /// A reused slot reports as `Upserted` — consumers replace by id.
    Upserted(RowId),
    /// The row was deleted after the cursor and its slot is still free.
    Deleted(RowId),
}

impl RowChange {
    /// The row id the change applies to.
    pub fn id(&self) -> RowId {
        match *self {
            RowChange::Upserted(id) | RowChange::Deleted(id) => id,
        }
    }
}

/// A faithful copy of a table's mutation state, for durable snapshots.
///
/// Unlike the ASCII backup dump (which keeps only live row *values*), an
/// image preserves everything `changed_since` and slot reuse depend on: row
/// ids, per-row generation stamps, tombstones, the free-list *order* (the
/// slab hands slots back LIFO, so order decides which ids future appends
/// get), and the lifetime statistics. Importing an image and replaying the
/// same mutations therefore lands every row in the same slot with the same
/// generation as the original — the property the crash-recovery torture
/// test asserts byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableImage {
    /// Live rows: `(slot id, generation stamp, values)`, in id order.
    pub rows: Vec<(RowId, u64, Vec<Value>)>,
    /// Tombstones: `(slot id, generation of the delete)`.
    pub dead: Vec<(RowId, u64)>,
    /// The free list, bottom of the stack first (appends pop from the end).
    pub free: Vec<RowId>,
    /// Lifetime mutation statistics.
    pub stats: TableStats,
}

/// Cached obs handles for the planner instruments, resolved once when the
/// registry is attached so the hot select path does not look names up.
#[derive(Clone)]
struct PlanObs {
    point: moira_obs::Counter,
    intersect: moira_obs::Counter,
    range: moira_obs::Counter,
    scan: moira_obs::Counter,
    rows_examined: moira_obs::Histo,
}

impl PlanObs {
    fn new(reg: &moira_obs::Registry) -> Self {
        PlanObs {
            point: reg.counter("db.plan.point"),
            intersect: reg.counter("db.plan.intersect"),
            range: reg.counter("db.plan.range"),
            scan: reg.counter("db.plan.scan"),
            rows_examined: reg.histogram("db.select.rows_examined"),
        }
    }
}

impl fmt::Debug for PlanObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PlanObs")
    }
}

/// A table: schema, row slab, secondary indexes, statistics.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Option<Vec<Value>>>,
    /// Parallel to `rows`: the table generation at which each slot last
    /// changed (stamp taken after the bump, so stamps start at 1).
    row_gens: Vec<u64>,
    free: Vec<RowId>,
    live: usize,
    /// Tombstones: slot -> generation of the delete. Cleared when the slab
    /// free-list hands the slot back out, at which point the reused slot
    /// reports as `Upserted` instead.
    dead: BTreeMap<RowId, u64>,
    /// `column index -> value -> row ids`, ids kept sorted within a bucket
    /// so `select` needs no post-sort, `select_one` takes the first
    /// survivor, and `IndexIntersect` merges buckets linearly.
    indexes: BTreeMap<usize, BTreeMap<Value, Vec<RowId>>>,
    /// Case-folded companions for indexed *string* columns:
    /// `column index -> lowercased value -> row ids` (sorted). These serve
    /// the `EqCi`/`LikeCi` predicates (machine and service names), which
    /// would otherwise scan no matter what.
    indexes_ci: BTreeMap<usize, BTreeMap<String, Vec<RowId>>>,
    /// The owning database's string interner (a private one until the table
    /// is attached via [`Table::set_symbols`]).
    symbols: Symbols,
    obs: Option<PlanObs>,
    stats: TableStats,
}

impl Table {
    /// Creates an empty table from a schema.
    pub fn new(schema: TableSchema) -> Self {
        let indexes = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.indexed)
            .map(|(i, _)| (i, BTreeMap::new()))
            .collect();
        let indexes_ci = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.indexed && c.ty == ColType::Str)
            .map(|(i, _)| (i, BTreeMap::new()))
            .collect();
        Table {
            schema,
            rows: Vec::new(),
            row_gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            dead: BTreeMap::new(),
            indexes,
            indexes_ci,
            symbols: Symbols::new(),
            obs: None,
            stats: TableStats::default(),
        }
    }

    /// Points the table at a shared string interner. The database attaches
    /// its per-database [`Symbols`] when the table is created, before any
    /// row exists; already-stored rows are not re-interned.
    pub fn set_symbols(&mut self, symbols: Symbols) {
        self.symbols = symbols;
    }

    /// Attaches an obs registry: plan-choice counters
    /// (`db.plan.{point,intersect,range,scan}`) and the
    /// `db.select.rows_examined` histogram.
    pub fn set_obs(&mut self, reg: &moira_obs::Registry) {
        self.obs = Some(PlanObs::new(reg));
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Mutation statistics.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Current mutation generation (0 for a pristine table).
    pub fn generation(&self) -> u64 {
        self.stats.generation
    }

    /// Every row whose last change is newer than `gen`, in id order.
    ///
    /// Live rows stamped after the cursor report as [`RowChange::Upserted`]
    /// (covering both fresh appends and in-place updates); freed slots whose
    /// delete landed after the cursor report as [`RowChange::Deleted`].
    /// `changed_since(0)` enumerates every live row plus outstanding
    /// tombstones, and `changed_since(self.generation())` is empty.
    pub fn changed_since(&self, gen: u64) -> Vec<RowChange> {
        let mut changes: Vec<RowChange> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(id, row)| row.is_some() && self.row_gens[*id] > gen)
            .map(|(id, _)| RowChange::Upserted(id))
            .collect();
        changes.extend(
            self.dead
                .iter()
                .filter(|&(_, &g)| g > gen)
                .map(|(&id, _)| RowChange::Deleted(id)),
        );
        changes.sort_unstable_by_key(|c| c.id());
        changes
    }

    /// Index of a column; panics on unknown names (schema bugs, not runtime
    /// conditions).
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist in this table.
    pub fn col(&self, name: &str) -> usize {
        self.schema
            .col(name)
            .unwrap_or_else(|| panic!("no column {name} in table {}", self.schema.name))
    }

    fn check_row(&self, row: &[Value]) -> MrResult<()> {
        if row.len() != self.schema.arity() {
            return Err(MrError::Internal);
        }
        for (val, def) in row.iter().zip(&self.schema.columns) {
            if val.col_type() != def.ty {
                return Err(MrError::Internal);
            }
            if def.max_len > 0 {
                if let Value::Str(s) = val {
                    if s.len() > def.max_len {
                        return Err(MrError::ArgTooLong);
                    }
                }
            }
        }
        Ok(())
    }

    fn check_unique(&self, row: &[Value], exempt: Option<RowId>) -> MrResult<()> {
        for (i, def) in self.schema.columns.iter().enumerate() {
            if !def.unique {
                continue;
            }
            if let Some(ids) = self.indexes.get(&i).and_then(|ix| ix.get(&row[i])) {
                if ids.iter().any(|&id| Some(id) != exempt) {
                    return Err(MrError::Exists);
                }
            }
        }
        Ok(())
    }

    fn index_insert(&mut self, id: RowId, row: &[Value]) {
        for (&col, index) in self.indexes.iter_mut() {
            let ids = index.entry(row[col].clone()).or_default();
            if let Err(pos) = ids.binary_search(&id) {
                ids.insert(pos, id);
            }
        }
        for (&col, index) in self.indexes_ci.iter_mut() {
            if let Value::Str(s) = &row[col] {
                let ids = index.entry(s.to_ascii_lowercase()).or_default();
                if let Err(pos) = ids.binary_search(&id) {
                    ids.insert(pos, id);
                }
            }
        }
    }

    fn index_remove(&mut self, id: RowId, row: &[Value]) {
        for (&col, index) in self.indexes.iter_mut() {
            if let Some(ids) = index.get_mut(&row[col]) {
                if let Ok(pos) = ids.binary_search(&id) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    index.remove(&row[col]);
                }
            }
        }
        for (&col, index) in self.indexes_ci.iter_mut() {
            if let Value::Str(s) = &row[col] {
                let folded = s.to_ascii_lowercase();
                if let Some(ids) = index.get_mut(&folded) {
                    if let Ok(pos) = ids.binary_search(&id) {
                        ids.remove(pos);
                    }
                    if ids.is_empty() {
                        index.remove(&folded);
                    }
                }
            }
        }
    }

    /// Appends a row, returning its id.
    ///
    /// Fails with `MR_EXISTS` on unique-column conflicts, `MR_ARG_TOO_LONG`
    /// on over-long strings, and `MR_INTERNAL` on arity or type mismatch.
    pub fn append(&mut self, mut row: Vec<Value>, now: i64) -> MrResult<RowId> {
        self.check_row(&row)?;
        self.check_unique(&row, None)?;
        for v in &mut row {
            self.symbols.intern_value(v);
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.dead.remove(&id);
                id
            }
            None => {
                self.rows.push(None);
                self.row_gens.push(0);
                self.rows.len() - 1
            }
        };
        self.index_insert(id, &row);
        self.rows[id] = Some(row);
        self.live += 1;
        self.stats.appends += 1;
        self.stats.modtime = now;
        self.stats.generation += 1;
        self.row_gens[id] = self.stats.generation;
        Ok(id)
    }

    /// Borrows a live row.
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(id).and_then(|r| r.as_deref())
    }

    /// Chooses an access path for `pred` — see [`crate::plan`].
    pub fn plan(&self, pred: &Pred) -> Plan {
        plan::choose(pred, self)
    }

    /// EXPLAIN: the one-line description of the plan `pred` would run
    /// under, e.g. `IndexPoint(login=kit)` or `Scan`.
    pub fn explain(&self, pred: &Pred) -> String {
        self.plan(pred).describe()
    }

    /// The candidate row ids a plan narrows to, sorted ascending, or `None`
    /// for the scan fallback. Candidates still need predicate evaluation —
    /// a plan only bounds where matches can live.
    fn plan_candidates(&self, plan: &Plan) -> Option<Vec<RowId>> {
        match plan {
            Plan::IndexPoint { col, value, ci } => {
                let c = self.col(col);
                let bucket = if *ci {
                    self.indexes_ci
                        .get(&c)
                        .and_then(|ix| ix.get(value.as_str()))
                } else {
                    self.indexes.get(&c).and_then(|ix| ix.get(value))
                };
                Some(bucket.cloned().unwrap_or_default())
            }
            Plan::IndexIntersect { terms } => {
                let mut merged: Option<Vec<RowId>> = None;
                for (col, value) in terms {
                    let c = self.col(col);
                    let bucket = self
                        .indexes
                        .get(&c)
                        .and_then(|ix| ix.get(value))
                        .map(|ids| ids.as_slice())
                        .unwrap_or(&[]);
                    merged = Some(match merged {
                        None => bucket.to_vec(),
                        Some(prev) => intersect_sorted(&prev, bucket),
                    });
                }
                Some(merged.unwrap_or_default())
            }
            Plan::IndexRange { col, prefix, ci } => {
                let c = self.col(col);
                let mut ids: Vec<RowId> = Vec::new();
                if *ci {
                    if let Some(ix) = self.indexes_ci.get(&c) {
                        for (_, bucket) in range_ci(ix, prefix) {
                            ids.extend_from_slice(bucket);
                        }
                    }
                } else if let Some(ix) = self.indexes.get(&c) {
                    for (_, bucket) in range_cs(ix, prefix) {
                        ids.extend_from_slice(bucket);
                    }
                }
                // Buckets are sorted but interleave across keys.
                ids.sort_unstable();
                Some(ids)
            }
            Plan::Scan => None,
        }
    }

    /// Records the plan choice and the rows actually examined.
    fn note_plan(&self, plan: &Plan, examined: usize) {
        if let Some(obs) = &self.obs {
            match plan {
                Plan::IndexPoint { .. } => obs.point.inc(),
                Plan::IndexIntersect { .. } => obs.intersect.inc(),
                Plan::IndexRange { .. } => obs.range.inc(),
                Plan::Scan => obs.scan.inc(),
            }
            obs.rows_examined.record(examined as u64);
        }
    }

    /// Returns the ids of rows matching a predicate, in id order, through
    /// the planner: an index bucket, a bucket merge, a prefix walk, or the
    /// scan fallback — whichever the cost model picks.
    pub fn select(&self, pred: &Pred) -> Vec<RowId> {
        let col_of = |name: &str| self.col(name);
        let plan = self.plan(pred);
        match self.plan_candidates(&plan) {
            Some(cands) => {
                self.note_plan(&plan, cands.len());
                cands
                    .into_iter()
                    .filter(|&id| self.get(id).is_some_and(|row| pred.eval(row, &col_of)))
                    .collect()
            }
            None => {
                self.note_plan(&plan, self.live);
                self.select_scan(pred)
            }
        }
    }

    /// Forced full-scan evaluation, bypassing the planner — the oracle the
    /// property tests and the bench baseline compare plans against.
    pub fn select_scan(&self, pred: &Pred) -> Vec<RowId> {
        let col_of = |name: &str| self.col(name);
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(id, row)| row.as_ref().filter(|r| pred.eval(r, &col_of)).map(|_| id))
            .collect()
    }

    /// Returns the lowest matching row id, if any, without materializing
    /// the full match set: candidates come sorted from the plan (buckets
    /// are kept sorted), so the first survivor is the minimum; the scan
    /// path stops at the first hit.
    pub fn select_one(&self, pred: &Pred) -> Option<RowId> {
        let col_of = |name: &str| self.col(name);
        let plan = self.plan(pred);
        let mut examined = 0usize;
        let hit = match self.plan_candidates(&plan) {
            Some(cands) => cands.into_iter().find(|&id| {
                examined += 1;
                self.get(id).is_some_and(|row| pred.eval(row, &col_of))
            }),
            None => self.rows.iter().enumerate().find_map(|(id, row)| {
                row.as_ref()
                    .filter(|r| {
                        examined += 1;
                        pred.eval(r, &col_of)
                    })
                    .map(|_| id)
            }),
        };
        self.note_plan(&plan, examined);
        hit
    }

    /// Counts matching rows without materializing ids.
    pub fn count(&self, pred: &Pred) -> usize {
        let col_of = |name: &str| self.col(name);
        let plan = self.plan(pred);
        match self.plan_candidates(&plan) {
            Some(cands) => {
                self.note_plan(&plan, cands.len());
                cands
                    .iter()
                    .filter(|&&id| self.get(id).is_some_and(|row| pred.eval(row, &col_of)))
                    .count()
            }
            None => {
                self.note_plan(&plan, self.live);
                self.rows
                    .iter()
                    .filter(|row| row.as_ref().is_some_and(|r| pred.eval(r, &col_of)))
                    .count()
            }
        }
    }

    /// Updates named columns of a row in place.
    pub fn update(&mut self, id: RowId, changes: &[(&str, Value)], now: i64) -> MrResult<()> {
        let old = self
            .rows
            .get(id)
            .and_then(|r| r.clone())
            .ok_or(MrError::NoMatch)?;
        let mut new = old.clone();
        for (name, value) in changes {
            let col = self.schema.col(name).ok_or(MrError::Internal)?;
            let mut v = value.clone();
            self.symbols.intern_value(&mut v);
            new[col] = v;
        }
        self.check_row(&new)?;
        self.check_unique(&new, Some(id))?;
        self.index_remove(id, &old);
        self.index_insert(id, &new);
        self.rows[id] = Some(new);
        self.stats.updates += 1;
        self.stats.modtime = now;
        self.stats.generation += 1;
        self.row_gens[id] = self.stats.generation;
        Ok(())
    }

    /// Deletes a row.
    pub fn delete(&mut self, id: RowId, now: i64) -> MrResult<()> {
        let old = self
            .rows
            .get(id)
            .and_then(|r| r.clone())
            .ok_or(MrError::NoMatch)?;
        self.index_remove(id, &old);
        self.rows[id] = None;
        self.free.push(id);
        self.live -= 1;
        self.stats.deletes += 1;
        self.stats.modtime = now;
        self.stats.generation += 1;
        self.row_gens[id] = self.stats.generation;
        self.dead.insert(id, self.stats.generation);
        Ok(())
    }

    /// Deletes every row matching the predicate, returning how many went.
    pub fn delete_where(&mut self, pred: &Pred, now: i64) -> usize {
        let ids = self.select(pred);
        let n = ids.len();
        for id in ids {
            let _ = self.delete(id, now);
        }
        n
    }

    /// Iterates `(id, row)` over live rows in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(id, r)| r.as_deref().map(|row| (id, row)))
    }

    /// Exports the table's full mutation state for a durable snapshot.
    pub fn export_image(&self) -> TableImage {
        TableImage {
            rows: self
                .rows
                .iter()
                .enumerate()
                .filter_map(|(id, r)| r.as_ref().map(|row| (id, self.row_gens[id], row.clone())))
                .collect(),
            dead: self.dead.iter().map(|(&id, &g)| (id, g)).collect(),
            free: self.free.clone(),
            stats: self.stats,
        }
    }

    /// Restores the state captured by [`Table::export_image`] into this
    /// (pristine) table: rows land in their original slots with their
    /// original generation stamps, tombstones and free-list order return,
    /// and the statistics resume where they left off.
    ///
    /// Fails with `MR_EXISTS` if the table has ever been mutated, and
    /// `MR_INTERNAL` on arity/type mismatches or ids that overlap between
    /// the live and free sets — a corrupt image must not half-apply.
    pub fn import_image(&mut self, image: &TableImage) -> MrResult<()> {
        if self.stats.generation != 0 || !self.is_empty() {
            return Err(MrError::Exists);
        }
        for (_, _, row) in &image.rows {
            self.check_row(row)?;
        }
        let slab_len = image
            .rows
            .iter()
            .map(|&(id, _, _)| id + 1)
            .chain(image.free.iter().map(|&id| id + 1))
            .max()
            .unwrap_or(0);
        let mut rows: Vec<Option<Vec<Value>>> = vec![None; slab_len];
        let mut row_gens = vec![0u64; slab_len];
        for &(id, gen, ref values) in &image.rows {
            if rows[id].is_some() {
                return Err(MrError::Internal);
            }
            let mut row = values.clone();
            for v in &mut row {
                self.symbols.intern_value(v);
            }
            rows[id] = Some(row);
            row_gens[id] = gen;
        }
        for &(id, gen) in &image.dead {
            if id >= slab_len || rows[id].is_some() {
                return Err(MrError::Internal);
            }
            row_gens[id] = gen;
        }
        for &id in &image.free {
            if id >= slab_len || rows[id].is_some() {
                return Err(MrError::Internal);
            }
        }
        self.rows = rows;
        self.row_gens = row_gens;
        self.free = image.free.clone();
        self.live = image.rows.len();
        self.dead = image.dead.iter().copied().collect();
        self.stats = image.stats;
        // Index from the interned copies so index keys share the row Arcs.
        let inserts: Vec<(RowId, Vec<Value>)> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(id, r)| r.as_ref().map(|row| (id, row.clone())))
            .collect();
        for (id, row) in inserts {
            self.index_insert(id, &row);
        }
        Ok(())
    }

    /// Convenience: the value of `col` in row `id`.
    ///
    /// # Panics
    ///
    /// Panics if the row is dead or the column unknown.
    pub fn cell(&self, id: RowId, col: &str) -> &Value {
        let c = self.col(col);
        &self.get(id).expect("live row")[c]
    }
}

impl PlanStats for Table {
    fn is_indexed(&self, col: &str) -> bool {
        self.schema
            .col(col)
            .is_some_and(|c| self.indexes.contains_key(&c))
    }

    fn has_folded_index(&self, col: &str) -> bool {
        self.schema
            .col(col)
            .is_some_and(|c| self.indexes_ci.contains_key(&c))
    }

    fn bucket_len(&self, col: &str, value: &Value) -> usize {
        self.schema
            .col(col)
            .and_then(|c| self.indexes.get(&c))
            .and_then(|ix| ix.get(value))
            .map_or(0, Vec::len)
    }

    fn folded_bucket_len(&self, col: &str, folded: &str) -> usize {
        self.schema
            .col(col)
            .and_then(|c| self.indexes_ci.get(&c))
            .and_then(|ix| ix.get(folded))
            .map_or(0, Vec::len)
    }

    fn range_len(&self, col: &str, prefix: &str, ci: bool, budget: usize) -> usize {
        let Some(c) = self.schema.col(col) else {
            return 0;
        };
        let mut total = 0usize;
        if ci {
            if let Some(ix) = self.indexes_ci.get(&c) {
                for (_, bucket) in range_ci(ix, prefix) {
                    total += bucket.len();
                    if total >= budget {
                        break;
                    }
                }
            }
        } else if let Some(ix) = self.indexes.get(&c) {
            for (_, bucket) in range_cs(ix, prefix) {
                total += bucket.len();
                if total >= budget {
                    break;
                }
            }
        }
        total
    }

    fn slab_len(&self) -> usize {
        self.rows.len()
    }

    fn live_len(&self) -> usize {
        self.live
    }
}

/// Intersection of two ascending id slices, two-pointer merge.
fn intersect_sorted(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The entries of a case-sensitive string index whose key starts with
/// `prefix`, in key order.
fn range_cs<'a>(
    ix: &'a BTreeMap<Value, Vec<RowId>>,
    prefix: &str,
) -> impl Iterator<Item = (&'a Value, &'a Vec<RowId>)> {
    let start = Bound::Included(Value::Str(prefix.into()));
    let end = match plan::prefix_upper_bound(prefix) {
        Some(upper) => Bound::Excluded(Value::Str(upper.as_str().into())),
        None => Bound::Unbounded,
    };
    ix.range((start, end))
        .filter(|(k, _)| matches!(k, Value::Str(_)))
}

/// The entries of a case-folded index whose (lowercased) key starts with
/// the (lowercased) `prefix`, in key order.
fn range_ci<'a>(
    ix: &'a BTreeMap<String, Vec<RowId>>,
    prefix: &str,
) -> impl Iterator<Item = (&'a String, &'a Vec<RowId>)> {
    let start = Bound::Included(prefix.to_owned());
    let end = match plan::prefix_upper_bound(prefix) {
        Some(upper) => Bound::Excluded(upper),
        None => Bound::Unbounded,
    };
    ix.range((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn users_table() -> Table {
        Table::new(TableSchema::new(
            "users",
            vec![
                ColumnDef::str("login").unique().max_len(8),
                ColumnDef::int("uid").indexed(),
                ColumnDef::boolean("active"),
            ],
        ))
    }

    fn row(login: &str, uid: i64, active: bool) -> Vec<Value> {
        vec![login.into(), uid.into(), active.into()]
    }

    #[test]
    fn append_and_get() {
        let mut t = users_table();
        let id = t.append(row("babette", 6530, true), 100).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap()[0], Value::Str("babette".into()));
        assert_eq!(t.stats().appends, 1);
        assert_eq!(t.stats().modtime, 100);
    }

    #[test]
    fn unique_violation() {
        let mut t = users_table();
        t.append(row("babette", 6530, true), 0).unwrap();
        assert_eq!(
            t.append(row("babette", 6531, true), 0),
            Err(MrError::Exists)
        );
    }

    #[test]
    fn arg_too_long() {
        let mut t = users_table();
        assert_eq!(
            t.append(row("waytoolongname", 1, true), 0),
            Err(MrError::ArgTooLong)
        );
    }

    #[test]
    fn type_mismatch_is_internal() {
        let mut t = users_table();
        let bad = vec![Value::Int(1), Value::Int(2), Value::Bool(true)];
        assert_eq!(t.append(bad, 0), Err(MrError::Internal));
    }

    #[test]
    fn select_by_index_and_scan() {
        let mut t = users_table();
        for i in 0..100 {
            t.append(row(&format!("u{i}"), 6000 + i, i % 2 == 0), 0)
                .unwrap();
        }
        let hits = t.select(&Pred::Eq("uid", 6042.into()));
        assert_eq!(hits.len(), 1);
        assert_eq!(t.cell(hits[0], "login"), &Value::Str("u42".into()));
        // Wildcard forces a scan.
        let scans = t.select(&Pred::Like("login", "u4?".into()));
        assert_eq!(scans.len(), 10);
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = users_table();
        let id = t.append(row("old", 1, true), 0).unwrap();
        t.update(id, &[("login", "new".into()), ("uid", Value::Int(2))], 5)
            .unwrap();
        assert!(t.select(&Pred::Eq("login", "old".into())).is_empty());
        assert_eq!(t.select(&Pred::Eq("login", "new".into())), vec![id]);
        assert_eq!(t.select(&Pred::Eq("uid", 2.into())), vec![id]);
        assert_eq!(t.stats().updates, 1);
        assert_eq!(t.stats().modtime, 5);
    }

    #[test]
    fn update_unique_conflict_leaves_row_unchanged() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.append(row("b", 2, true), 0).unwrap();
        assert_eq!(
            t.update(a, &[("login", "b".into())], 0),
            Err(MrError::Exists)
        );
        assert_eq!(t.cell(a, "login"), &Value::Str("a".into()));
    }

    #[test]
    fn update_to_same_unique_value_allowed() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.update(a, &[("login", "a".into()), ("uid", Value::Int(9))], 0)
            .unwrap();
        assert_eq!(t.cell(a, "uid"), &Value::Int(9));
    }

    #[test]
    fn delete_frees_and_reuses_slots() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.delete(a, 1).unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(a), None);
        assert_eq!(t.delete(a, 1), Err(MrError::NoMatch));
        let b = t.append(row("b", 2, true), 2).unwrap();
        assert_eq!(b, a, "slot reused");
        // The unique value of the deleted row is free again.
        t.append(row("a", 3, true), 3).unwrap();
    }

    #[test]
    fn delete_where_counts() {
        let mut t = users_table();
        for i in 0..10 {
            t.append(row(&format!("u{i}"), i, i % 2 == 0), 0).unwrap();
        }
        let gone = t.delete_where(&Pred::Eq("active", false.into()), 9);
        assert_eq!(gone, 5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.stats().deletes, 5);
    }

    #[test]
    fn select_one_and_count_agree_with_select() {
        let mut t = users_table();
        for i in 0..50 {
            t.append(row(&format!("u{i}"), 6000 + (i % 7), i % 2 == 0), 0)
                .unwrap();
        }
        // Delete a few so the slab has holes and the index buckets shrink.
        for id in t.select(&Pred::Eq("uid", 6003.into())) {
            t.delete(id, 1).unwrap();
        }
        let preds = [
            Pred::True,
            Pred::Eq("uid", 6002.into()),      // indexed column
            Pred::Eq("uid", 9999.into()),      // indexed, no matches
            Pred::Eq("active", true.into()),   // unindexed scan
            Pred::Like("login", "u1?".into()), // wildcard scan
            Pred::Like("login", "zz*".into()), // scan, no matches
        ];
        for pred in &preds {
            let full = t.select(pred);
            assert_eq!(t.select_one(pred), full.first().copied(), "{pred:?}");
            assert_eq!(t.count(pred), full.len(), "{pred:?}");
        }
    }

    #[test]
    fn index_buckets_stay_sorted_across_slot_reuse() {
        let mut t = users_table();
        // Slot 0 freed and reused later: insertion order into the uid-7000
        // bucket is 0, 1, 2, then 0 again — the bucket must come back
        // sorted so select needs no post-sort and select_one takes the
        // first survivor.
        let a = t.append(row("gone", 7000, true), 0).unwrap();
        t.append(row("b", 7000, true), 0).unwrap();
        t.append(row("c", 7000, true), 0).unwrap();
        t.delete(a, 0).unwrap();
        let reused = t.append(row("d", 7000, true), 0).unwrap();
        assert_eq!(reused, a);
        assert_eq!(t.select(&Pred::Eq("uid", 7000.into())), vec![0, 1, 2]);
        assert_eq!(t.select_one(&Pred::Eq("uid", 7000.into())), Some(a));
        assert_eq!(
            t.select_one(&Pred::Eq("uid", 7000.into())),
            t.select(&Pred::Eq("uid", 7000.into())).first().copied()
        );
    }

    fn members_table() -> Table {
        Table::new(TableSchema::new(
            "members",
            vec![
                ColumnDef::int("list_id").indexed(),
                ColumnDef::int("member_id").indexed(),
                ColumnDef::str("tag"),
            ],
        ))
    }

    #[test]
    fn explain_picks_point_range_and_scan() {
        let mut t = users_table();
        for i in 0..200 {
            t.append(row(&format!("u{i}"), 6000 + i, true), 0).unwrap();
        }
        assert_eq!(
            t.explain(&Pred::Eq("uid", 6042.into())),
            "IndexPoint(uid=6042)"
        );
        assert_eq!(
            t.explain(&Pred::Like("login", "u4?".into())),
            "IndexRange(login \"u4*\")"
        );
        // No literal prefix, and no index on `active` — scans.
        assert_eq!(t.explain(&Pred::Like("login", "*4".into())), "Scan");
        assert_eq!(t.explain(&Pred::Eq("active", true.into())), "Scan");
        assert_eq!(t.explain(&Pred::True), "Scan");
    }

    #[test]
    fn range_plan_matches_scan_results() {
        let mut t = users_table();
        for i in 0..300 {
            t.append(row(&format!("u{i}"), 6000 + i, i % 3 == 0), 0)
                .unwrap();
        }
        let pred = Pred::Like("login", "u1*".into());
        assert!(t.explain(&pred).starts_with("IndexRange"));
        let via_plan = t.select(&pred);
        assert_eq!(via_plan, t.select_scan(&pred));
        assert_eq!(via_plan.len(), 111); // u1, u10..u19, u100..u199
        assert_eq!(t.select_one(&pred), via_plan.first().copied());
        assert_eq!(t.count(&pred), via_plan.len());
    }

    #[test]
    fn case_insensitive_predicates_use_folded_index() {
        let mut t = Table::new(TableSchema::new(
            "machine",
            vec![ColumnDef::str("name").unique(), ColumnDef::str("type")],
        ));
        for i in 0..100 {
            t.append(vec![format!("HOST{i}.MIT.EDU").into(), "VAX".into()], 0)
                .unwrap();
        }
        let eq = Pred::EqCi("name", "host42.mit.edu".into());
        assert_eq!(t.explain(&eq), "IndexPoint(name ci=host42.mit.edu)");
        assert_eq!(t.select(&eq), t.select_scan(&eq));
        assert_eq!(t.select(&eq).len(), 1);

        let like = Pred::LikeCi("name", "host9*".into());
        assert_eq!(t.explain(&like), "IndexRange(name ci \"host9*\")");
        assert_eq!(t.select(&like), t.select_scan(&like));
        assert_eq!(t.select(&like).len(), 11); // HOST9, HOST90..HOST99

        // The folded index tracks updates and deletes.
        let id = t.select_one(&eq).unwrap();
        t.update(id, &[("name", "RENAMED.MIT.EDU".into())], 1)
            .unwrap();
        assert!(t.select(&eq).is_empty());
        let renamed = Pred::EqCi("name", "renamed.mit.edu".into());
        assert_eq!(t.select(&renamed), vec![id]);
        t.delete(id, 2).unwrap();
        assert!(t.select(&renamed).is_empty());
    }

    #[test]
    fn conjunction_intersects_two_buckets() {
        let mut t = members_table();
        // 64 lists x 64 members: every bucket holds 64 ids, any pair
        // intersects in exactly one row.
        for list in 0..64 {
            for member in 0..64 {
                t.append(vec![list.into(), member.into(), "m".into()], 0)
                    .unwrap();
            }
        }
        let pred = Pred::And(vec![
            Pred::Eq("list_id", 7.into()),
            Pred::Eq("member_id", 44.into()),
        ]);
        assert_eq!(t.explain(&pred), "IndexIntersect(list_id=7 & member_id=44)");
        assert_eq!(t.select(&pred), t.select_scan(&pred));
        assert_eq!(t.select(&pred).len(), 1);
        assert_eq!(t.count(&pred), 1);
        assert_eq!(t.select_one(&pred), t.select(&pred).first().copied());
    }

    #[test]
    fn tiny_buckets_skip_the_intersect_overhead() {
        let mut t = members_table();
        for member in 0..8 {
            t.append(vec![1.into(), member.into(), "m".into()], 0)
                .unwrap();
        }
        // Both buckets are small — a single point lookup wins.
        let pred = Pred::And(vec![
            Pred::Eq("list_id", 1.into()),
            Pred::Eq("member_id", 3.into()),
        ]);
        assert!(t.explain(&pred).starts_with("IndexPoint"));
        assert_eq!(t.select(&pred), t.select_scan(&pred));
    }

    #[test]
    fn planner_never_changes_results_under_mutation_churn() {
        let mut t = users_table();
        for i in 0..120 {
            t.append(row(&format!("u{i}"), 6000 + (i % 11), i % 2 == 0), 0)
                .unwrap();
        }
        for id in t.select(&Pred::Eq("uid", 6003.into())) {
            t.delete(id, 1).unwrap();
        }
        for i in 0..30 {
            t.append(row(&format!("r{i}"), 6003, true), 2).unwrap();
        }
        let preds = [
            Pred::True,
            Pred::Eq("uid", 6003.into()),
            Pred::And(vec![
                Pred::Eq("uid", 6003.into()),
                Pred::Eq("active", true.into()),
            ]),
            Pred::Like("login", "u1*".into()),
            Pred::Like("login", "r*".into()),
            Pred::Or(vec![
                Pred::Eq("uid", 6001.into()),
                Pred::Eq("uid", 6002.into()),
            ]),
            Pred::Not(Box::new(Pred::Eq("active", true.into()))),
        ];
        for pred in &preds {
            let scan = t.select_scan(pred);
            assert_eq!(t.select(pred), scan, "{pred:?} / {}", t.explain(pred));
            assert_eq!(t.select_one(pred), scan.first().copied(), "{pred:?}");
            assert_eq!(t.count(pred), scan.len(), "{pred:?}");
        }
    }

    #[test]
    fn generation_counts_every_mutation() {
        let mut t = users_table();
        assert_eq!(t.generation(), 0);
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.update(a, &[("uid", Value::Int(2))], 0).unwrap();
        t.delete(a, 0).unwrap();
        assert_eq!(t.generation(), 3);
        let s = t.stats();
        assert_eq!(s.appends + s.updates + s.deletes, s.generation);
    }

    #[test]
    fn changed_since_reports_upserts_and_tombstones() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        let b = t.append(row("b", 2, true), 0).unwrap();
        let cursor = t.generation();
        assert_eq!(t.changed_since(cursor), vec![]);
        t.update(b, &[("uid", Value::Int(9))], 1).unwrap();
        t.delete(a, 1).unwrap();
        let c = t.append(row("c", 3, true), 1).unwrap();
        assert_eq!(c, a, "slot reused");
        // The reused slot reports Upserted, not Deleted: the tombstone is
        // cleared when the free list hands the slot back out.
        assert_eq!(
            t.changed_since(cursor),
            vec![RowChange::Upserted(a), RowChange::Upserted(b)]
        );
        // From zero, every live row is visible.
        assert_eq!(
            t.changed_since(0),
            vec![RowChange::Upserted(a), RowChange::Upserted(b)]
        );
        // At the current generation, nothing.
        assert_eq!(t.changed_since(t.generation()), vec![]);
    }

    #[test]
    fn changed_since_keeps_tombstone_until_reuse() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.append(row("b", 2, true), 0).unwrap();
        let cursor = t.generation();
        t.delete(a, 1).unwrap();
        assert_eq!(t.changed_since(cursor), vec![RowChange::Deleted(a)]);
        // An older cursor sees the delete too; a newer one does not.
        assert_eq!(
            t.changed_since(0),
            vec![RowChange::Deleted(a), RowChange::Upserted(1),]
        );
        assert_eq!(t.changed_since(t.generation()), vec![]);
    }

    #[test]
    fn same_second_mutations_have_distinct_generations() {
        let mut t = users_table();
        // Both writes land in second 100 — modtime cannot tell them apart,
        // generations can.
        t.append(row("a", 1, true), 100).unwrap();
        let g1 = t.generation();
        t.append(row("b", 2, true), 100).unwrap();
        assert_eq!(t.stats().modtime, 100);
        assert_eq!(t.changed_since(g1).len(), 1);
    }

    #[test]
    fn image_round_trip_preserves_slots_gens_and_reuse_order() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 10).unwrap();
        let b = t.append(row("b", 2, false), 11).unwrap();
        t.append(row("c", 3, true), 12).unwrap();
        t.update(b, &[("uid", Value::Int(9))], 13).unwrap();
        t.delete(a, 14).unwrap();
        t.delete(b, 15).unwrap();

        let image = t.export_image();
        let mut back = users_table();
        back.import_image(&image).unwrap();

        assert_eq!(back.export_image(), image);
        assert_eq!(back.stats(), t.stats());
        assert_eq!(back.changed_since(0), t.changed_since(0));
        assert_eq!(back.changed_since(3), t.changed_since(3));
        // Index state survives: lookups and uniqueness behave identically.
        assert_eq!(
            back.select(&Pred::Eq("uid", 3.into())),
            t.select(&Pred::Eq("uid", 3.into()))
        );
        assert_eq!(
            back.append(row("c", 7, true), 16),
            Err(MrError::Exists),
            "unique index restored"
        );
        // Free-list order survives: the next two appends reuse the same
        // slots in the same order on both tables.
        let n1 = t.append(row("x", 20, true), 17).unwrap();
        let n2 = t.append(row("y", 21, true), 17).unwrap();
        assert_eq!(back.append(row("x", 20, true), 17).unwrap(), n1);
        assert_eq!(back.append(row("y", 21, true), 17).unwrap(), n2);
        assert_eq!((n1, n2), (b, a), "LIFO reuse");
    }

    #[test]
    fn import_image_rejects_mutated_table_and_corrupt_images() {
        let mut t = users_table();
        t.append(row("a", 1, true), 0).unwrap();
        let image = t.export_image();
        assert_eq!(t.import_image(&image), Err(MrError::Exists));

        let mut bad = image.clone();
        bad.free.push(0); // overlaps the live row in slot 0
        let mut fresh = users_table();
        assert_eq!(fresh.import_image(&bad), Err(MrError::Internal));

        let mut wrong_arity = image.clone();
        wrong_arity.rows[0].2.pop();
        let mut fresh = users_table();
        assert_eq!(fresh.import_image(&wrong_arity), Err(MrError::Internal));
    }

    #[test]
    fn iter_skips_dead_rows() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.append(row("b", 2, true), 0).unwrap();
        t.delete(a, 0).unwrap();
        let logins: Vec<String> = t.iter().map(|(_, r)| r[0].as_str().to_owned()).collect();
        assert_eq!(logins, vec!["b"]);
    }
}
