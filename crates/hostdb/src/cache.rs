//! Server-side prepared-statement / plan cache.
//!
//! The paper's host RDBMS ("System X") keeps compiled cursors server-side
//! so repeated statements skip the SQL front end; this module is that
//! layer for the wire service. The cached artifact is the *logical plan*
//! keyed by statement text; offload decisions and RAPID compilation stay
//! per-execution (they depend on what is loaded on the node right now).
//!
//! An entry is valid while the store's **DDL epoch** is unchanged: the
//! parser reads table and column names and nothing else, and only a
//! `CREATE` can re-bind them. Committed DML leaves every entry valid — the
//! request path checkpoints and compiles against the data each execution
//! sees (see `db`'s request path).
//!
//! Stale entries are dropped and recounted as `invalidations`; the cache
//! is bounded and clears wholesale when full (the workloads this serves
//! re-warm in one round trip per statement).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rapid_qcomp::logical::LogicalPlan;

/// One cached plan plus the DDL epoch it was parsed under.
#[derive(Debug)]
pub struct CachedPlan {
    /// The parsed logical plan.
    pub plan: LogicalPlan,
    /// Store-wide DDL epoch at planning time.
    pub ddl_epoch: u64,
}

/// Cache hit/miss/invalidation counters (monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries dropped because DDL moved the epoch.
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// A bounded statement-text → logical-plan cache with DDL validation.
#[derive(Debug)]
pub struct PlanCache {
    entries: RwLock<HashMap<String, Arc<CachedPlan>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(256)
    }
}

impl PlanCache {
    /// An empty cache bounded at `capacity` entries.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            entries: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Look up `sql`, validating the entry against the current DDL epoch.
    /// A stale entry is removed and counted as an invalidation.
    pub fn lookup(&self, sql: &str, ddl_epoch: u64) -> Option<Arc<CachedPlan>> {
        let hit = self.entries.read().get(sql).cloned();
        let Some(entry) = hit else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if entry.ddl_epoch == ddl_epoch {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(entry)
        } else {
            self.entries.write().remove(sql);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Insert a freshly planned statement.
    pub fn insert(&self, sql: &str, entry: CachedPlan) -> Arc<CachedPlan> {
        let entry = Arc::new(entry);
        let mut map = self.entries.write();
        if map.len() >= self.capacity && !map.contains_key(sql) {
            map.clear(); // bounded: wholesale reset, re-warms on demand
        }
        map.insert(sql.to_string(), Arc::clone(&entry));
        entry
    }

    /// Drop every entry (failure paths, tests).
    pub fn clear(&self) {
        self.entries.write().clear();
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.entries.read().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            pred: None,
            projection: None,
        }
    }

    fn entry(epoch: u64) -> CachedPlan {
        CachedPlan {
            plan: plan(),
            ddl_epoch: epoch,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = PlanCache::new(8);
        assert!(c.lookup("q", 0).is_none());
        c.insert("q", entry(0));
        assert!(c.lookup("q", 0).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.entries), (1, 1, 0, 1));
    }

    #[test]
    fn ddl_epoch_invalidates() {
        let c = PlanCache::new(8);
        c.insert("q", entry(0));
        assert!(c.lookup("q", 1).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn capacity_bound_clears_wholesale() {
        let c = PlanCache::new(2);
        c.insert("a", entry(0));
        c.insert("b", entry(0));
        c.insert("c", entry(0)); // over capacity: reset, then insert
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert!(c.lookup("c", 0).is_some());
    }
}
