//! SCNs, update journals and the tracker (§3.3, §4.3).
//!
//! The host database is the single source of truth. Changes it commits are
//! collected in in-memory **journals** as SCN-stamped **update units**; a
//! background *checkpointing* thread ships them to RAPID. A query with SCN
//! `q` is admissible only if every table it touches has been checkpointed
//! up to `q`; the **tracker** then serves a snapshot of each table that
//! includes exactly the units with `scn ≤ q` whose expiration (if any) is
//! `> q`.
//!
//! The tracker materializes snapshots (RAPID-side memory is cheap relative
//! to re-shipping) and caches them per SCN, which also models the paper's
//! observation that "accumulated updates lead to occupied memory by
//! outdated vectors" — [`Tracker::gc_below`] is the reclamation hook.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::table::{Table, TableBuilder};
use crate::types::Value;

/// A system change number: a monotonically increasing logical timestamp.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Scn(pub u64);

impl Scn {
    /// The zero SCN (initial load).
    pub const ZERO: Scn = Scn(0);

    /// The next SCN.
    pub fn next(self) -> Scn {
        Scn(self.0 + 1)
    }
}

impl std::fmt::Display for Scn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scn:{}", self.0)
    }
}

/// A monotonic SCN source shared between the host engine and its sessions.
#[derive(Debug, Default)]
pub struct ScnClock(AtomicU64);

impl ScnClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current SCN without advancing.
    pub fn current(&self) -> Scn {
        Scn(self.0.load(Ordering::SeqCst))
    }

    /// Advance and return the new SCN (a commit).
    pub fn tick(&self) -> Scn {
        Scn(self.0.fetch_add(1, Ordering::SeqCst) + 1)
    }
}

/// One changed row inside an update unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RowChange {
    /// A new row.
    Insert(Vec<Value>),
    /// Replace the row at global offset `rid` (base-table row order).
    Update {
        /// Global row offset in the base table's load order.
        rid: u64,
        /// The full new row.
        row: Vec<Value>,
    },
    /// Delete the row at global offset `rid`.
    Delete {
        /// Global row offset in the base table's load order.
        rid: u64,
    },
}

/// A set of changed rows sharing a commit SCN; may carry an expiration SCN
/// when superseded by a later unit (§4.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateUnit {
    /// Commit SCN of the changes.
    pub scn: Scn,
    /// SCN at which this unit stops being visible (compaction), if any.
    pub expiry: Option<Scn>,
    /// The changed rows.
    pub rows: Vec<RowChange>,
}

impl UpdateUnit {
    /// Whether the unit is visible to a query at `q`.
    pub fn visible_at(&self, q: Scn) -> bool {
        self.scn <= q && self.expiry.is_none_or(|e| e > q)
    }
}

/// The in-memory journal of one table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Journal {
    units: Vec<UpdateUnit>,
    /// Highest SCN checkpointed (shipped) to RAPID.
    checkpointed: Scn,
}

impl Journal {
    /// Empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a unit (host-commit path). Units must arrive in SCN order.
    pub fn append(&mut self, unit: UpdateUnit) {
        if let Some(last) = self.units.last() {
            assert!(unit.scn >= last.scn, "journal units must be SCN-ordered");
        }
        self.units.push(unit);
    }

    /// All units visible at `q`.
    pub fn visible_at(&self, q: Scn) -> impl Iterator<Item = &UpdateUnit> {
        self.units.iter().filter(move |u| u.visible_at(q))
    }

    /// Units pending checkpoint (scn above the checkpointed watermark).
    pub fn pending(&self) -> impl Iterator<Item = &UpdateUnit> {
        let mark = self.checkpointed;
        self.units.iter().filter(move |u| u.scn > mark)
    }

    /// Record that everything up to `scn` has been shipped.
    pub fn mark_checkpointed(&mut self, scn: Scn) {
        self.checkpointed = self.checkpointed.max(scn);
    }

    /// The checkpoint watermark.
    pub fn checkpointed(&self) -> Scn {
        self.checkpointed
    }

    /// Compact the journal (§4.3: "accumulated updates lead to occupied
    /// memory by outdated vectors"): units at or below `watermark` that
    /// have already been checkpointed are merged into one squashed unit
    /// carrying their changes in order, and superseded units get their
    /// expiry stamped. Visibility at any SCN ≥ `watermark` is unchanged.
    pub fn compact(&mut self, watermark: Scn) {
        let cut = watermark.min(self.checkpointed);
        let (old, new): (Vec<UpdateUnit>, Vec<UpdateUnit>) =
            self.units.drain(..).partition(|u| u.scn <= cut);
        if old.len() > 1 {
            let scn = old.last().map_or(Scn::ZERO, |u| u.scn);
            let rows = old.into_iter().flat_map(|u| u.rows).collect();
            self.units.push(UpdateUnit {
                scn,
                expiry: None,
                rows,
            });
        } else {
            self.units.extend(old);
        }
        self.units.extend(new);
        self.units.sort_by_key(|u| u.scn);
    }

    /// Number of units held.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the journal holds no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

/// The RAPID-side tracker: resolves `(base table, journal, SCN)` into a
/// consistent snapshot, caching materialized versions.
#[derive(Debug, Default)]
pub struct Tracker {
    cache: Mutex<BTreeMap<(String, Scn), Arc<Table>>>,
}

impl Tracker {
    /// New tracker with an empty snapshot cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A consistent snapshot of `base` at `q`, applying every visible unit
    /// of `journal`. Cached per `(table, scn)`.
    pub fn snapshot(&self, base: &Table, journal: &Journal, q: Scn) -> Arc<Table> {
        if let Some(hit) = self.cache.lock().get(&(base.name.clone(), q)) {
            return Arc::clone(hit);
        }
        let snap = Arc::new(materialize(base, journal, q));
        self.cache
            .lock()
            .insert((base.name.clone(), q), Arc::clone(&snap));
        snap
    }

    /// Drop cached snapshots older than `scn` (outdated-vector reclamation).
    pub fn gc_below(&self, scn: Scn) {
        self.cache.lock().retain(|(_, s), _| *s >= scn);
    }

    /// Number of cached snapshots.
    pub fn cached(&self) -> usize {
        self.cache.lock().len()
    }
}

/// Apply all journal units visible at `q` to `base`, producing a new table.
fn materialize(base: &Table, journal: &Journal, q: Scn) -> Table {
    // Reconstruct row-major values, apply changes, rebuild.
    let ncols = base.schema.len();
    let mut rows: Vec<Option<Vec<Value>>> = Vec::with_capacity(base.rows());
    let cols: Vec<Vec<i64>> = (0..ncols).map(|c| base.column_i64(c)).collect();
    let nulls: Vec<crate::bitvec::BitVec> = (0..ncols).map(|c| base.column_nulls(c)).collect();
    rows.extend((0..base.rows()).map(|r| {
        let row = (0..ncols)
            .map(|c| {
                if nulls[c].get(r) {
                    Value::Null
                } else {
                    base.decode_value(c, cols[c][r])
                }
            })
            .collect();
        Some(row)
    }));
    for unit in journal.visible_at(q) {
        for change in &unit.rows {
            match change {
                RowChange::Insert(row) => rows.push(Some(row.clone())),
                RowChange::Update { rid, row } => {
                    if let Some(slot) = rows.get_mut(*rid as usize) {
                        *slot = Some(row.clone());
                    }
                }
                RowChange::Delete { rid } => {
                    if let Some(slot) = rows.get_mut(*rid as usize) {
                        *slot = None;
                    }
                }
            }
        }
    }
    let mut b = TableBuilder::new(base.name.clone(), base.schema.clone())
        .partitions(base.partitions.len().max(1));
    b.extend_rows(rows.into_iter().flatten());
    b.finish_at_scn(q.max(base.scn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn base() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..10 {
            b.push_row(vec![Value::Int(i), Value::Int(i * 10)]);
        }
        b.finish()
    }

    #[test]
    fn scn_clock_monotone() {
        let clk = ScnClock::new();
        assert_eq!(clk.current(), Scn(0));
        assert_eq!(clk.tick(), Scn(1));
        assert_eq!(clk.tick(), Scn(2));
        assert_eq!(clk.current(), Scn(2));
    }

    #[test]
    fn visibility_rules() {
        let u = UpdateUnit {
            scn: Scn(5),
            expiry: Some(Scn(9)),
            rows: vec![],
        };
        assert!(!u.visible_at(Scn(4)));
        assert!(u.visible_at(Scn(5)));
        assert!(u.visible_at(Scn(8)));
        assert!(!u.visible_at(Scn(9)));
    }

    #[test]
    fn snapshot_applies_inserts_updates_deletes() {
        let t = base();
        let mut j = Journal::new();
        j.append(UpdateUnit {
            scn: Scn(1),
            expiry: None,
            rows: vec![
                RowChange::Insert(vec![Value::Int(100), Value::Int(1000)]),
                RowChange::Update {
                    rid: 0,
                    row: vec![Value::Int(0), Value::Int(-1)],
                },
                RowChange::Delete { rid: 5 },
            ],
        });
        let tracker = Tracker::new();
        let snap = tracker.snapshot(&t, &j, Scn(1));
        assert_eq!(snap.rows(), 10); // +1 insert, -1 delete
        let keys = snap.column_i64(0);
        assert!(keys.contains(&100));
        assert!(!keys.contains(&5));
        let vals = snap.column_i64(1);
        assert!(vals.contains(&-1));
    }

    #[test]
    fn snapshot_at_earlier_scn_excludes_later_units() {
        let t = base();
        let mut j = Journal::new();
        j.append(UpdateUnit {
            scn: Scn(2),
            expiry: None,
            rows: vec![RowChange::Delete { rid: 0 }],
        });
        let tracker = Tracker::new();
        let snap = tracker.snapshot(&t, &j, Scn(1));
        assert_eq!(snap.rows(), 10, "delete at scn 2 not visible at scn 1");
    }

    #[test]
    fn tracker_caches_and_gcs() {
        let t = base();
        let j = Journal::new();
        let tracker = Tracker::new();
        let a = tracker.snapshot(&t, &j, Scn(1));
        let b = tracker.snapshot(&t, &j, Scn(1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(tracker.cached(), 1);
        tracker.gc_below(Scn(2));
        assert_eq!(tracker.cached(), 0);
    }

    #[test]
    fn journal_checkpoint_watermark() {
        let mut j = Journal::new();
        j.append(UpdateUnit {
            scn: Scn(1),
            expiry: None,
            rows: vec![],
        });
        j.append(UpdateUnit {
            scn: Scn(2),
            expiry: None,
            rows: vec![],
        });
        assert_eq!(j.pending().count(), 2);
        j.mark_checkpointed(Scn(1));
        assert_eq!(j.pending().count(), 1);
    }

    #[test]
    fn compaction_preserves_visibility() {
        let t = base();
        let mut j = Journal::new();
        for i in 1..=6u64 {
            j.append(UpdateUnit {
                scn: Scn(i),
                expiry: None,
                rows: vec![RowChange::Insert(vec![
                    Value::Int(100 + i as i64),
                    Value::Int(0),
                ])],
            });
        }
        j.mark_checkpointed(Scn(4));
        let tracker = Tracker::new();
        let before = tracker.snapshot(&t, &j, Scn(6));
        j.compact(Scn(4));
        assert_eq!(j.len(), 3, "units 1-4 squash into one, 5 and 6 remain");
        let tracker2 = Tracker::new();
        let after = tracker2.snapshot(&t, &j, Scn(6));
        let mut a = before.column_i64(0);
        let mut b = after.column_i64(0);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "compaction must not change visible state");
        // Uncheckpointed units are never compacted away.
        let mut j2 = Journal::new();
        j2.append(UpdateUnit {
            scn: Scn(1),
            expiry: None,
            rows: vec![],
        });
        j2.append(UpdateUnit {
            scn: Scn(2),
            expiry: None,
            rows: vec![],
        });
        j2.compact(Scn(9));
        assert_eq!(j2.len(), 2, "nothing checkpointed, nothing squashed");
    }

    #[test]
    #[should_panic(expected = "SCN-ordered")]
    fn out_of_order_append_panics() {
        let mut j = Journal::new();
        j.append(UpdateUnit {
            scn: Scn(2),
            expiry: None,
            rows: vec![],
        });
        j.append(UpdateUnit {
            scn: Scn(1),
            expiry: None,
            rows: vec![],
        });
    }
}
