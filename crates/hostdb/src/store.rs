//! The host row store: heap tables and SCN-stamped commits.
//!
//! The host database is "the single source of truth" (§3): every change
//! lands here first and stamps its table with the next SCN of the global
//! clock. Checkpointing (§3.3) compares that SCN with the one RAPID holds
//! and ships the whole table again when RAPID is behind.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rapid_storage::schema::Schema;
use rapid_storage::scn::{RowChange, Scn, ScnClock};
use rapid_storage::types::Value;

/// A heap table of rows.
#[derive(Debug)]
pub struct HostTable {
    /// Schema.
    pub schema: Schema,
    /// Rows by heap slot (None = deleted slot); a `RowChange` rid indexes
    /// this vector.
    rows: Vec<Option<Vec<Value>>>,
    /// SCN of the last committed change.
    pub scn: Scn,
}

impl HostTable {
    /// Empty table.
    pub fn new(schema: Schema) -> Self {
        HostTable {
            schema,
            rows: Vec::new(),
            scn: Scn::ZERO,
        }
    }

    /// Live rows (skipping deleted slots).
    pub fn scan(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.rows.iter().flatten()
    }

    /// Live row count.
    pub fn row_count(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    fn apply(&mut self, change: RowChange) {
        match change {
            RowChange::Insert(row) => self.rows.push(Some(row)),
            RowChange::Update { rid, row } => {
                if let Some(slot) = self.rows.get_mut(rid as usize) {
                    *slot = Some(row);
                }
            }
            RowChange::Delete { rid } => {
                if let Some(slot) = self.rows.get_mut(rid as usize) {
                    *slot = None;
                }
            }
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
    /// and stamps the table with the next SCN. `None`, with nothing applied
    /// and no SCN ticked, for an unknown table or when any row is one
    /// [`Schema::admits`] refuses.
    pub fn commit(&self, table: &str, changes: Vec<RowChange>) -> Option<Scn> {
        let t = self.table(table)?;
        let mut guard = t.write();
        let admitted = changes.iter().all(|c| match c {
            RowChange::Insert(row) | RowChange::Update { row, .. } => guard.schema.admits(row),
            RowChange::Delete { .. } => true,
        });
        if !admitted {
            return None;
        }
        let scn = self.clock.tick();
        for c in changes {
            guard.apply(c);
        }
        guard.scn = scn;
        Some(scn)
    }

    /// Bulk-insert rows (initial population before a RAPID load, which
    /// ships the whole table).
    pub fn bulk_insert(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Option<Scn> {
        let t = self.table(table)?;
        let scn = self.clock.tick();
        let mut guard = t.write();
        for r in rows {
            guard.rows.push(Some(r));
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
    fn missing_table_commit_is_none() {
        let s = RowStore::new();
        assert!(s.commit("ghost", vec![]).is_none());
    }
}
