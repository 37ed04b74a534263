//! Greedy shrinking of a divergent case.
//!
//! The shrinker repeatedly proposes structurally smaller variants (fewer
//! rows, fewer clauses, fewer select items) and keeps a variant only if it
//! still diverges. Variants that stop parsing or planning simply stop
//! diverging (`run_sql` returns `Err` or all engines error identically),
//! so the shrinker never needs semantic knowledge of which clause depends
//! on which — an invalid proposal rejects itself.

use crate::datagen::TableSpec;
use crate::querygen::QuerySpec;
use crate::runner::run_sql;

/// A complete reproducible case: data plus query.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Tables to create and load.
    pub tables: Vec<TableSpec>,
    /// Query in structural form.
    pub query: QuerySpec,
}

impl FuzzCase {
    /// Rendered SQL.
    pub fn sql(&self) -> String {
        self.query.to_sql()
    }
}

fn diverges(case: &FuzzCase, budget: &mut usize) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    run_sql(&case.tables, &case.sql())
        .ok()
        .and_then(|t| t.divergence())
        .is_some()
}

/// Remove ORDER BY aliases that no longer name a select item.
fn prune_order_by(q: &mut QuerySpec) {
    let aliases: Vec<&String> = q.items.iter().map(|i| &i.alias).collect();
    q.order_by.retain(|(a, _)| aliases.contains(&a));
    if q.order_by.len() != q.items.len() {
        // LIMIT is only deterministic under a full ORDER BY.
        q.limit = None;
    }
}

/// `q` with one clause of one of its selects dropped — LIMIT, ORDER BY,
/// the join, a filter, a group key — or one select item, which goes from
/// every side of a set operation at once.
fn statement_variants(q: &QuerySpec) -> Vec<QuerySpec> {
    let mut out = Vec::new();
    if q.limit.is_some() {
        let mut v = q.clone();
        v.limit = None;
        out.push(v);
    }
    if !q.order_by.is_empty() {
        let mut v = q.clone();
        v.order_by.clear();
        v.limit = None;
        out.push(v);
    }
    if q.join.is_some() {
        let mut v = q.clone();
        v.join = None;
        out.push(v);
    }
    for i in 0..q.filters.len() {
        let mut v = q.clone();
        v.filters.remove(i);
        out.push(v);
    }
    for g in &q.group_by {
        let mut v = q.clone();
        v.group_by.retain(|x| x != g);
        v.items.retain(|it| !(it.grouping && it.sql == *g));
        prune_order_by(&mut v);
        out.push(v);
    }
    if q.items.len() > 1 {
        for i in 0..q.items.len() {
            if q.items[i].grouping {
                continue; // handled with its GROUP BY entry above
            }
            let mut v = q.clone();
            drop_item(&mut v, i);
            out.push(v);
        }
    }
    // The same drops inside the right-hand statement; items went above.
    if let Some((op, right)) = &q.set_op {
        let same_arity = |r: &QuerySpec| r.items.len() == q.items.len();
        for r in statement_variants(right).into_iter().filter(same_arity) {
            let mut v = q.clone();
            v.set_op = Some((op.clone(), Box::new(r)));
            out.push(v);
        }
    }
    out
}

/// Remove select item `i` from `q` and from every statement to its right.
fn drop_item(q: &mut QuerySpec, i: usize) {
    q.items.remove(i);
    prune_order_by(q);
    if let Some((_, right)) = &mut q.set_op {
        drop_item(right, i);
    }
}

/// One row-level drop that `still_diverges` accepts — half a table first,
/// then single rows — or `false` with `tables` as they were.
pub(crate) fn drop_rows(
    tables: &mut Vec<TableSpec>,
    mut still_diverges: impl FnMut(&[TableSpec]) -> bool,
) -> bool {
    for ti in 0..tables.len() {
        let rows = &tables[ti].rows;
        let n = rows.len();
        if n <= 1 {
            continue;
        }
        let halves = [0..n / 2, n / 2..n].map(|half| rows[half].to_vec());
        let all_but_one = (0..n).rev().map(|r| {
            let mut kept = rows.clone();
            kept.remove(r);
            kept
        });
        let candidates: Vec<_> = halves.into_iter().chain(all_but_one).collect();
        for kept in candidates {
            let mut v = tables.clone();
            v[ti].rows = kept;
            if still_diverges(&v) {
                *tables = v;
                return true;
            }
        }
    }
    false
}

/// Greedily minimize a divergent case. `budget` bounds the number of
/// tri-engine executions spent.
pub fn shrink(case: &FuzzCase, mut budget: usize) -> FuzzCase {
    let mut best = case.clone();
    let mut changed = true;
    while changed && budget > 0 {
        changed = false;

        // Clause-level drops, cheapest wins first: a set operation's sides
        // alone, then the clauses of each statement in it.
        let mut clause_variants: Vec<FuzzCase> = Vec::new();
        let with_query = |query: QuerySpec| FuzzCase {
            tables: best.tables.clone(),
            query,
        };
        if let Some((_, right)) = &best.query.set_op {
            let mut left = best.query.clone();
            left.set_op = None;
            clause_variants.push(with_query(left));
            clause_variants.push(with_query((**right).clone()));
        }
        clause_variants.extend(statement_variants(&best.query).into_iter().map(with_query));
        // A join that went takes the right-side table with it once nothing
        // names it.
        for v in &mut clause_variants {
            let sql = v.sql();
            if !sql
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|w| w == "tb")
            {
                v.tables.retain(|t| t.name != "tb");
            }
        }
        for v in clause_variants {
            if diverges(&v, &mut budget) {
                best = v;
                changed = true;
                break;
            }
        }
        if changed {
            continue;
        }

        let query = &best.query;
        changed = drop_rows(&mut best.tables, |tables| {
            let case = FuzzCase {
                tables: tables.to_vec(),
                query: query.clone(),
            };
            diverges(&case, &mut budget)
        });
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::querygen::Item;

    #[test]
    fn a_set_operation_shrinks_side_by_side_and_keeps_its_arity() {
        let side = |a: &str, b: &str, filter: Option<&str>| QuerySpec {
            items: [(a, "c0"), (b, "c1")]
                .map(|(sql, alias)| Item {
                    sql: sql.into(),
                    alias: alias.into(),
                    grouping: false,
                })
                .into(),
            join: None,
            filters: filter.map(String::from).into_iter().collect(),
            group_by: vec![],
            order_by: vec![],
            limit: None,
            set_op: None,
        };
        let mut q = side("ta_k", "ta_a", None);
        q.set_op = Some((
            "UNION".into(),
            Box::new(side("ta_id", "ta_big", Some("ta_k > 1"))),
        ));
        let variants: Vec<String> = statement_variants(&q).iter().map(|v| v.to_sql()).collect();
        assert_eq!(
            variants,
            [
                // An item goes from both sides, ...
                "SELECT ta_a AS c1 FROM ta UNION SELECT ta_big AS c1 FROM ta WHERE ta_k > 1",
                "SELECT ta_k AS c0 FROM ta UNION SELECT ta_id AS c0 FROM ta WHERE ta_k > 1",
                // ... a clause from the side that has it.
                "SELECT ta_k AS c0, ta_a AS c1 FROM ta UNION SELECT ta_id AS c0, ta_big AS c1 FROM ta",
            ]
        );
    }

    #[test]
    fn drop_rows_keeps_only_what_the_divergence_needs() {
        use rapid_storage::types::{DataType, Value};
        let mut tables = vec![TableSpec {
            name: "ta".into(),
            columns: vec![crate::datagen::ColumnSpec {
                name: "ta_id".into(),
                dtype: DataType::Int,
            }],
            rows: (0..9).map(|i| vec![Value::Int(i)]).collect(),
        }];
        // "Diverges" while rows 2 and 7 are both there.
        let needs = |tables: &[TableSpec]| {
            [2, 7]
                .iter()
                .all(|k| tables[0].rows.contains(&vec![Value::Int(*k)]))
        };
        let mut steps = 0;
        while drop_rows(&mut tables, needs) {
            steps += 1;
        }
        assert_eq!(tables[0].rows, [[Value::Int(2)], [Value::Int(7)]]);
        assert!(steps >= 2, "halves cannot split 2 from 7: single rows went");
    }

    #[test]
    fn prune_order_by_clears_limit_when_partial() {
        let mut q = QuerySpec {
            items: vec![
                Item {
                    sql: "ta_a".into(),
                    alias: "c0".into(),
                    grouping: false,
                },
                Item {
                    sql: "ta_k".into(),
                    alias: "c2".into(),
                    grouping: false,
                },
            ],
            join: None,
            filters: vec![],
            group_by: vec![],
            order_by: vec![("c0".into(), false), ("c1".into(), true)],
            limit: Some(3),
            set_op: None,
        };
        prune_order_by(&mut q);
        assert_eq!(q.order_by.len(), 1, "dangling alias c1 dropped");
        assert_eq!(q.limit, None, "partial ORDER BY cannot keep LIMIT");
    }
}
