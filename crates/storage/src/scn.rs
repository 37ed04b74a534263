//! System change numbers and the row changes a commit carries (§3.3, §4.3).
//!
//! The host database is the single source of truth. A commit applies its
//! [`RowChange`]s to the host row store and stamps the table with a fresh
//! [`Scn`] from the one [`ScnClock`]. A query with SCN `q` is admissible
//! only if RAPID holds every table it touches at `q` or later; checkpointing
//! brings a stale table up to date by rebuilding it from the row store at
//! the host's SCN, and [`crate::table::Table::scn`] records what RAPID holds.
//! No change is replayed onto an earlier snapshot.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::types::Value;

/// A system change number: a monotonically increasing logical timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
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

/// One changed row of a commit.
///
/// A `rid` is the heap slot of the host table: slots are numbered in
/// insertion order, and a delete empties its slot without renumbering the
/// ones after it, so a rid names the same row across deletes. It is not an
/// offset into a RAPID snapshot, which holds only the live rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RowChange {
    /// A new row, in the next heap slot.
    Insert(Vec<Value>),
    /// Replace the row in heap slot `rid`.
    Update {
        /// Heap slot of the host table, stable across deletes.
        rid: u64,
        /// The full new row.
        row: Vec<Value>,
    },
    /// Delete the row in heap slot `rid`.
    Delete {
        /// Heap slot of the host table, stable across deletes.
        rid: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scn_clock_monotone() {
        let clk = ScnClock::new();
        assert_eq!(clk.current(), Scn(0));
        assert_eq!(clk.tick(), Scn(1));
        assert_eq!(clk.tick(), Scn(2));
        assert_eq!(clk.current(), Scn(2));
    }
}
