//! The host row store: heap tables and SCN-stamped commits.
//!
//! The host database is "the single source of truth" (§3): every change
//! lands here first and stamps its table with the next SCN of the global
//! clock. A table also stamps each chunk of its heap slots — the slots one
//! chunk of RAPID's copy holds — with the SCN of the last change to one of
//! them. Checkpointing (§3.3) compares the table's SCN with the one RAPID
//! holds and, when RAPID is behind, ships the table again: the chunks
//! stamped since RAPID's copy are encoded anew and the rest are shared with
//! that copy.

use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rapid_storage::schema::Schema;
use rapid_storage::scn::{RowChange, Scn, ScnClock};
use rapid_storage::types::Value;
use rapid_storage::DEFAULT_CHUNK_ROWS;

/// A heap table of rows.
#[derive(Debug)]
pub struct HostTable {
    /// Schema.
    pub schema: Schema,
    /// Rows by heap slot (None = deleted slot); a `RowChange` rid indexes
    /// this vector. Slots are never reused.
    rows: Vec<Option<Vec<Value>>>,
    /// SCN of the last committed change.
    pub scn: Scn,
    /// SCN at which the table was created: a copy of an older SCN is a
    /// copy of a table this one replaced.
    pub(crate) created: Scn,
    /// Per chunk of [`DEFAULT_CHUNK_ROWS`] heap slots, the SCN of the last
    /// change to one of them. Never cleared, so a checkpoint that loses a
    /// race loses no change.
    stamps: Vec<Scn>,
}

impl HostTable {
    /// Empty table.
    pub fn new(schema: Schema) -> Self {
        HostTable {
            schema,
            rows: Vec::new(),
            scn: Scn::ZERO,
            created: Scn::ZERO,
            stamps: Vec::new(),
        }
    }

    /// Live rows (skipping deleted slots).
    pub fn scan(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.rows.iter().flatten()
    }

    /// Every heap slot in order: a row, or `None` where one was deleted.
    pub fn slots(&self) -> &[Option<Vec<Value>>] {
        &self.rows
    }

    /// Per chunk of [`DEFAULT_CHUNK_ROWS`] heap slots, the SCN of the last
    /// commit or bulk insert that changed one of them.
    pub(crate) fn stamps(&self) -> &[Scn] {
        &self.stamps
    }

    /// Live row count.
    pub fn row_count(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Whether `changes`, applied in order, each find their slot: an update
    /// or a delete names a slot that holds a row at that point.
    fn lands(&self, changes: &[RowChange]) -> bool {
        let mut len = self.rows.len() as u64;
        let mut deleted = HashSet::new();
        changes.iter().all(|c| match c {
            RowChange::Insert(_) => {
                len += 1;
                true
            }
            RowChange::Update { rid, .. } | RowChange::Delete { rid } => {
                let live = *rid < len
                    && !deleted.contains(rid)
                    && self.rows.get(*rid as usize).is_none_or(Option::is_some);
                if matches!(c, RowChange::Delete { .. }) {
                    deleted.insert(*rid);
                }
                live
            }
        })
    }

    /// Write `row` into heap slot `slot` (one past the end appends) and
    /// stamp its chunk with `scn`.
    fn put(&mut self, slot: usize, row: Option<Vec<Value>>, scn: Scn) {
        match self.rows.get_mut(slot) {
            Some(at) => *at = row,
            None => self.rows.push(row),
        }
        let chunk = slot / DEFAULT_CHUNK_ROWS;
        if self.stamps.len() <= chunk {
            self.stamps.resize(chunk + 1, Scn::ZERO);
        }
        self.stamps[chunk] = scn;
    }

    fn apply(&mut self, change: RowChange, scn: Scn) {
        match change {
            RowChange::Insert(row) => self.put(self.rows.len(), Some(row), scn),
            RowChange::Update { rid, row } => self.put(rid as usize, Some(row), scn),
            RowChange::Delete { rid } => self.put(rid as usize, None, scn),
        }
    }
}

/// The collection of host tables sharing one SCN clock.
#[derive(Debug, Default)]
pub struct RowStore {
    tables: RwLock<HashMap<String, Arc<RwLock<HostTable>>>>,
    clock: ScnClock,
    /// Monotonic counter bumped by every DDL statement (create); plan
    /// caches key their validity on it.
    ddl_epoch: AtomicU64,
}

impl RowStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The SCN clock.
    pub fn clock(&self) -> &ScnClock {
        &self.clock
    }

    /// Create a table (replacing any previous definition). DDL: bumps the
    /// [`ddl_epoch`](Self::ddl_epoch), invalidating cached plans. The table
    /// starts at a fresh SCN, so a replacement is newer than any snapshot of
    /// the table it replaces.
    pub fn create_table(&self, name: &str, schema: Schema) {
        let mut table = HostTable::new(schema);
        table.scn = self.clock.tick();
        table.created = table.scn;
        self.tables
            .write()
            .insert(name.to_string(), Arc::new(RwLock::new(table)));
        self.ddl_epoch.fetch_add(1, Ordering::Release);
    }

    /// The current DDL epoch. Any create since a plan was cached makes
    /// that plan's name resolution stale; caches compare epochs to decide.
    pub fn ddl_epoch(&self) -> u64 {
        self.ddl_epoch.load(Ordering::Acquire)
    }

    /// Handle to a table.
    pub fn table(&self, name: &str) -> Option<Arc<RwLock<HostTable>>> {
        self.tables.read().get(name).cloned()
    }

    /// Table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Land a query's intermediate result (the RAPID operator's fragment
    /// buffers, §3.2) as a table the host executor can scan until the
    /// returned guard drops. Not DDL: no epoch bump, no SCN tick, cached
    /// plans stay valid.
    pub(crate) fn temp_table(
        &self,
        name: String,
        schema: Schema,
        rows: Vec<Vec<Value>>,
    ) -> TempTable<'_> {
        let mut table = HostTable::new(schema);
        table.rows = rows.into_iter().map(Some).collect();
        self.tables
            .write()
            .insert(name.clone(), Arc::new(RwLock::new(table)));
        TempTable { store: self, name }
    }

    /// Commit a batch of changes to one table: applies them to the heap
    /// and stamps the table, and the chunks of the slots it changed, with
    /// the next SCN. `None`, with nothing applied and no SCN ticked, for an
    /// unknown table, when any row is one [`Schema::admits`] refuses, or
    /// when an update or a delete names a slot that holds no row by its
    /// turn in the commit: past the heap, or deleted.
    pub fn commit(&self, table: &str, changes: Vec<RowChange>) -> Option<Scn> {
        let t = self.table(table)?;
        let mut guard = t.write();
        let admitted = changes.iter().all(|c| match c {
            RowChange::Insert(row) | RowChange::Update { row, .. } => guard.schema.admits(row),
            RowChange::Delete { .. } => true,
        });
        if !admitted || !guard.lands(&changes) {
            return None;
        }
        let scn = self.clock.tick();
        for c in changes {
            guard.apply(c, scn);
        }
        guard.scn = scn;
        Some(scn)
    }

    /// Bulk-insert rows (initial population before a RAPID load), stamping
    /// the chunks of their slots with the insert's SCN.
    pub fn bulk_insert(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Option<Scn> {
        let t = self.table(table)?;
        let mut guard = t.write();
        let scn = self.clock.tick();
        for r in rows {
            let slot = guard.rows.len();
            guard.put(slot, Some(r), scn);
        }
        guard.scn = scn;
        Some(scn)
    }
}

/// Removes its [`RowStore::temp_table`] when dropped — on every exit path
/// of the query that landed it.
#[derive(Debug)]
pub(crate) struct TempTable<'a> {
    store: &'a RowStore,
    name: String,
}

impl Drop for TempTable<'_> {
    fn drop(&mut self) {
        self.store.tables.write().remove(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_storage::schema::Field;
    use rapid_storage::types::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ])
    }

    #[test]
    fn create_insert_scan() {
        let s = RowStore::new();
        s.create_table("t", schema());
        s.bulk_insert("t", (0..5).map(|i| vec![Value::Int(i), Value::Int(i * 2)]));
        let t = s.table("t").unwrap();
        assert_eq!(t.read().row_count(), 5);
    }

    #[test]
    fn commit_applies_and_bumps_scn() {
        let s = RowStore::new();
        s.create_table("t", schema());
        let scn1 = s
            .commit(
                "t",
                vec![RowChange::Insert(vec![Value::Int(1), Value::Int(10)])],
            )
            .unwrap();
        let scn2 = s.commit("t", vec![RowChange::Delete { rid: 0 }]).unwrap();
        assert!(scn2 > scn1);
        let t = s.table("t").unwrap();
        assert_eq!(t.read().row_count(), 0);
        assert_eq!(t.read().scn, scn2);
    }

    #[test]
    fn update_rewrites_row() {
        let s = RowStore::new();
        s.create_table("t", schema());
        s.commit(
            "t",
            vec![RowChange::Insert(vec![Value::Int(1), Value::Int(10)])],
        );
        s.commit(
            "t",
            vec![RowChange::Update {
                rid: 0,
                row: vec![Value::Int(1), Value::Int(99)],
            }],
        );
        let t = s.table("t").unwrap();
        let rows: Vec<_> = t.read().scan().cloned().collect();
        assert_eq!(rows[0][1], Value::Int(99));
    }

    #[test]
    fn a_malformed_commit_applies_nothing() {
        // One row of the wrong arity refuses the whole commit, the valid
        // change beside it included.
        let s = RowStore::new();
        s.create_table("t", schema());
        let ok = RowChange::Insert(vec![Value::Int(1), Value::Int(10)]);
        let before = s.clock().current();
        let bad = RowChange::Insert(vec![Value::Int(2)]);
        assert_eq!(s.commit("t", vec![ok.clone(), bad]), None);
        assert_eq!(s.clock().current(), before, "no SCN ticked");
        assert_eq!(s.table("t").unwrap().read().row_count(), 0);
        assert!(s.commit("t", vec![ok]).is_some());
    }

    #[test]
    fn a_change_to_a_slot_that_holds_no_row_refuses_the_commit() {
        // Slots 0..3 hold rows and slot 1 is deleted. An update or delete
        // past the heap, of a deleted slot, or of a slot an earlier change
        // of the same commit deleted, applies nothing and ticks no SCN.
        let s = RowStore::new();
        s.create_table("t", schema());
        s.bulk_insert("t", (0..3).map(|i| vec![Value::Int(i), Value::Int(i)]));
        s.commit("t", vec![RowChange::Delete { rid: 1 }]).unwrap();
        let row = || vec![Value::Int(7), Value::Int(7)];
        let update = |rid| RowChange::Update { rid, row: row() };
        let before = s.clock().current();
        for changes in [
            vec![update(3)],
            vec![RowChange::Delete { rid: 3 }],
            vec![update(1)],
            vec![RowChange::Delete { rid: 1 }],
            vec![RowChange::Delete { rid: 2 }, update(2)],
            vec![
                update(0),
                RowChange::Delete { rid: 2 },
                RowChange::Delete { rid: 2 },
            ],
        ] {
            assert_eq!(s.commit("t", changes.clone()), None, "{changes:?}");
        }
        assert_eq!(s.clock().current(), before, "no SCN ticked");
        let t = s.table("t").unwrap();
        let live: Vec<_> = t.read().scan().cloned().collect();
        assert_eq!(
            live,
            [
                [Value::Int(0), Value::Int(0)],
                [Value::Int(2), Value::Int(2)]
            ]
        );
        // A slot inserted earlier in the same commit holds a row.
        let grown = vec![
            RowChange::Insert(row()),
            update(3),
            RowChange::Delete { rid: 3 },
        ];
        assert!(s.commit("t", grown).is_some());
        assert_eq!(t.read().slots().len(), 4);
    }

    #[test]
    fn a_change_stamps_the_chunk_of_its_slot() {
        let s = RowStore::new();
        s.create_table("t", schema());
        let rows = DEFAULT_CHUNK_ROWS as i64 + 10;
        let loaded = s
            .bulk_insert("t", (0..rows).map(|i| vec![Value::Int(i), Value::Int(i)]))
            .unwrap();
        let t = s.table("t").unwrap();
        assert_eq!(t.read().stamps(), [loaded, loaded]);
        let updated = s
            .commit(
                "t",
                vec![RowChange::Update {
                    rid: 3,
                    row: vec![Value::Int(3), Value::Int(0)],
                }],
            )
            .unwrap();
        assert_eq!(t.read().stamps(), [updated, loaded]);
        let appended = s
            .commit(
                "t",
                vec![RowChange::Insert(vec![Value::Int(-1), Value::Int(0)])],
            )
            .unwrap();
        assert_eq!(t.read().stamps(), [updated, appended]);
        assert!(t.read().created < loaded);
    }

    #[test]
    fn missing_table_commit_is_none() {
        let s = RowStore::new();
        assert!(s.commit("ghost", vec![]).is_none());
    }
}
