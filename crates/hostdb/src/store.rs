//! The host row store: heap tables, SCN-stamped commits, change journals.
//!
//! The host database is "the single source of truth" (§3): every change
//! lands here first, stamped by the global SCN clock and recorded in the
//! table's in-memory journal for the background checkpointer to ship to
//! RAPID (§3.3).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rapid_storage::schema::Schema;
use rapid_storage::scn::{Journal, RowChange, Scn, ScnClock, UpdateUnit};
use rapid_storage::types::Value;

/// A heap table of rows plus its journal.
#[derive(Debug)]
pub struct HostTable {
    /// Schema.
    pub schema: Schema,
    /// Rows (None = deleted slot).
    rows: Vec<Option<Vec<Value>>>,
    /// Change journal since the last RAPID load.
    pub journal: Journal,
    /// SCN of the last committed change.
    pub scn: Scn,
}

impl HostTable {
    /// Empty table.
    pub fn new(schema: Schema) -> Self {
        HostTable {
            schema,
            rows: Vec::new(),
            journal: Journal::new(),
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

    fn apply(&mut self, change: &RowChange) {
        match change {
            RowChange::Insert(row) => self.rows.push(Some(row.clone())),
            RowChange::Update { rid, row } => {
                if let Some(slot) = self.rows.get_mut(*rid as usize) {
                    *slot = Some(row.clone());
                }
            }
            RowChange::Delete { rid } => {
                if let Some(slot) = self.rows.get_mut(*rid as usize) {
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

    /// Commit a batch of changes to one table: bumps the SCN, applies to
    /// the heap, appends one update unit to the journal.
    pub fn commit(&self, table: &str, changes: Vec<RowChange>) -> Option<Scn> {
        let t = self.table(table)?;
        let scn = self.clock.tick();
        let mut guard = t.write();
        for c in &changes {
            guard.apply(c);
        }
        guard.scn = scn;
        guard.journal.append(UpdateUnit {
            scn,
            expiry: None,
            rows: changes,
        });
        Some(scn)
    }

    /// Bulk-insert without journaling (initial population before any RAPID
    /// load; the subsequent `LOAD` ships the whole table anyway).
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
        assert!(t.read().journal.is_empty(), "bulk load is not journaled");
    }

    #[test]
    fn commit_journals_and_bumps_scn() {
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
        assert_eq!(t.read().journal.len(), 2);
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
    fn missing_table_commit_is_none() {
        let s = RowStore::new();
        assert!(s.commit("ghost", vec![]).is_none());
    }
}
