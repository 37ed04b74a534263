//! Cost-based join-order search (ROADMAP item 2, "Cascades-lite").
//!
//! The seed compiler lowered joins in the order the query declared them
//! (§5.2's "join order already fixed" reading); the only choice it made
//! was the build side of each individual join. This pass rewrites
//! maximal *inner-join chains* of a logical plan before lowering:
//!
//! 1. **Flatten**: consecutive `Join { join_type: Inner }` nodes become a
//!    set of relations (the non-inner-join subtrees, themselves optimized
//!    recursively) plus a set of binary equi-join edges (one per key
//!    pair).
//! 2. **Estimate**: each relation is lowered and run through the
//!    cardinality estimator ([`crate::cost::estimate_node`]), so edge
//!    selectivities come from key NDVs and set sizes from *estimated*
//!    (post-predicate) rather than declared cardinalities. The compiler
//!    prunes columns before this pass, so a relation's row width is the
//!    width that will move, not its table's.
//! 3. **Enumerate**: a DP-over-subsets memo (bushy trees, connected
//!    subsets only — no Cartesian products) minimizes the summed
//!    [`join_cycles`] of every split — a scheme-aware mirror of what
//!    `lower_join` and the simulator will charge, at declared column
//!    widths: the smaller-row side builds, the partition scheme is chosen
//!    from the build size and widest row, and both sides pay the scheme's
//!    partition rounds plus per-row join-kernel cycles. A chain of more
//!    than [`MAX_DP_RELATIONS`] relations keeps its declared order.
//!    Iteration order and tie-breaking are deterministic, so the chosen
//!    plan and the enumeration counters are reproducible — the counters
//!    are gated by `rapid-report gate` (optd-style planning metrics).
//! 4. **Reconstruct**: every edge is applied exactly once, at the lowest
//!    join above both its endpoints (so cyclic join graphs like Q5's
//!    customer–supplier nation edge stay correct). A reordered chain's
//!    columns come out in the new tree's order; every consumer above it
//!    resolves them by name, and the plan root's client, which reads them
//!    by position, is handed them in the declared order by the join that
//!    writes them (the compiler lowers the root against the layout it had
//!    before this pass). A chain a `SetOp` reads by position through
//!    order-preserving operators keeps its declared order.
//!
//! The pass is semantics-preserving for inner joins (commutative and
//! associative over multisets; equi-edges never match NULLs regardless of
//! the level they apply at) and bails to the original tree whenever its
//! preconditions do not hold (duplicate column names across relations,
//! unresolvable keys, self-edges, fewer than three relations).

use rapid_qef::plan::{Catalog, JoinType};
use rapid_qef::primitives::costs;

use crate::compiler::{lower, OutCol};
use crate::cost::{estimate_node, CostParams, NodeEst};
use crate::logical::LogicalPlan;
use crate::partition_opt::{partition_scheme, scheme_cost};

/// Relation count above which a chain keeps its declared order: the DP's
/// memo holds one entry per subset, 2^n of them.
pub const MAX_DP_RELATIONS: usize = 12;

/// Deterministic counters from the join-order search, for planning-cost
/// regression gating (`tpch/q*/optimize/*` in `BENCH_baseline.json`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Relations in the largest inner-join chain considered.
    pub join_relations: u32,
    /// Memo entries materialized across all chains (DP subsets with a
    /// feasible plan).
    pub memo_entries: u64,
    /// Join combinations costed (DP splits).
    pub plans_considered: u64,
    /// Chains whose join order changed from the declared one.
    pub reordered: u32,
}

/// One equi-join edge between two relations of a flattened chain.
#[derive(Debug, Clone)]
struct Edge {
    /// Relation index and column name on one side.
    a: (usize, String),
    /// Relation index and column name on the other side.
    b: (usize, String),
}

/// A flattened chain relation's lowered output columns and cardinality
/// estimate.
struct Rel {
    cols: Vec<OutCol>,
    est: NodeEst,
}

/// Rewrite all maximal inner-join chains of `lp` into cost-chosen orders.
/// The plan comes in by value and is rewritten where it stands: a chain
/// that keeps its declared order — and a plan with no chain at all — is
/// handed back untouched. Returns it with the enumeration counters.
pub fn reorder(
    mut lp: LogicalPlan,
    catalog: &Catalog,
    params: &CostParams,
) -> (LogicalPlan, OptimizeStats) {
    let mut stats = OptimizeStats::default();
    rewrite(&mut lp, catalog, params, &mut stats, false);
    (lp, stats)
}

/// Recursively rewrite in place: inner-join roots become reordered chains,
/// every other node keeps its shape with rewritten children.
///
/// `fixed` tracks whether a `SetOp` reads this node's *column order* (not
/// just its column names): set below a `SetOp` (positional semantics),
/// passed through order-preserving operators (`Filter`/`Sort`/`Limit`/
/// `Window`/outer `Join`), and reset under `Project`/`Aggregate`, which
/// rebuild their output by name. A chain under `fixed` keeps its declared
/// order.
fn rewrite(
    lp: &mut LogicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    stats: &mut OptimizeStats,
    fixed: bool,
) {
    let below = match lp {
        LogicalPlan::Join {
            join_type: JoinType::Inner,
            ..
        } => return reorder_chain(lp, catalog, params, stats, fixed),
        LogicalPlan::Project { .. } | LogicalPlan::Aggregate { .. } => false,
        LogicalPlan::SetOp { .. } => true,
        _ => fixed,
    };
    for child in lp.inputs_mut() {
        rewrite(child, catalog, params, stats, below);
    }
}

/// Visit the relations of the inner-join chain rooted at `lp` — its
/// maximal subtrees that are not inner joins — left to right.
fn each_relation(lp: &mut LogicalPlan, f: &mut impl FnMut(&mut LogicalPlan)) {
    match lp {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            ..
        } => {
            each_relation(left, f);
            each_relation(right, f);
        }
        rel => f(rel),
    }
}

/// Flatten the inner-join chain rooted at `lp` into relations + edges (one
/// per key pair).
fn flatten<'a>(
    lp: &'a LogicalPlan,
    rels: &mut Vec<&'a LogicalPlan>,
    raw_edges: &mut Vec<(&'a str, &'a str)>,
) {
    match lp {
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type: JoinType::Inner,
        } => {
            flatten(left, rels, raw_edges);
            flatten(right, rels, raw_edges);
            raw_edges.extend(
                left_keys
                    .iter()
                    .map(String::as_str)
                    .zip(right_keys.iter().map(String::as_str)),
            );
        }
        rel => rels.push(rel),
    }
}

/// Reorder one inner-join chain in place; the subtree is left as declared
/// (relations rewritten) when any precondition fails or the chosen order
/// is the declared one.
fn reorder_chain(
    lp: &mut LogicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    stats: &mut OptimizeStats,
    fixed: bool,
) {
    // Relations inherit `fixed`: their own layout is still read through
    // the chain's concatenated output.
    each_relation(lp, &mut |rel| rewrite(rel, catalog, params, stats, fixed));
    if fixed {
        return;
    }
    let Some((tree, edges, rels)) = search(lp, catalog, params, stats) else {
        return;
    };
    stats.reordered += 1;

    // Every relation moves into the new tree; the declared skeleton is
    // dropped with the assignment below.
    let mut rel_plans = Vec::with_capacity(rels.len());
    each_relation(lp, &mut |rel| {
        rel_plans.push(std::mem::replace(rel, LogicalPlan::scan("")))
    });
    *lp = build_tree(&tree, &mut rel_plans, &edges);
}

/// Search the join orders of the chain rooted at `lp`. `None` keeps the
/// declared order: a precondition failed, or the search landed on it.
fn search(
    lp: &LogicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    stats: &mut OptimizeStats,
) -> Option<(Tree, Vec<Edge>, Vec<Rel>)> {
    let mut rel_plans = Vec::new();
    let mut raw_edges = Vec::new();
    flatten(lp, &mut rel_plans, &mut raw_edges);

    let n = rel_plans.len();
    // Below 3 relations only the build side can vary, and `lower_join`
    // already picks that; above `MAX_DP_RELATIONS` the memo is too large.
    if !(3..=MAX_DP_RELATIONS).contains(&n) {
        return None;
    }

    // Lower every relation for output names and estimates.
    let rels: Vec<Rel> = rel_plans
        .iter()
        .map(|r| {
            let (plan, cols) = lower(r, catalog, params).ok()?;
            let est = estimate_node(&plan, catalog, params);
            Some(Rel { cols, est })
        })
        .collect::<Option<_>>()?;

    // Global name resolution; bail on duplicates (ambiguous restore).
    let mut by_name: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (ri, r) in rels.iter().enumerate() {
        for c in &r.cols {
            if by_name.insert(c.name.as_str(), ri).is_some() {
                return None;
            }
        }
    }

    let mut edges = Vec::with_capacity(raw_edges.len());
    for (a, b) in raw_edges {
        let (ra, rb) = (*by_name.get(a)?, *by_name.get(b)?);
        if ra == rb {
            return None;
        }
        edges.push(Edge {
            a: (ra, a.to_string()),
            b: (rb, b.to_string()),
        });
    }

    stats.join_relations = stats.join_relations.max(n as u32);

    // Per-edge selectivity from key NDVs (capped by estimated rows).
    let edge_sel: Vec<f64> = edges
        .iter()
        .map(|e| {
            let ndv = |(ri, name): &(usize, String)| -> Option<f64> {
                let r = &rels[*ri];
                let ci = r.cols.iter().position(|c| &c.name == name)?;
                r.est.col_ndv(ci)
            };
            match (ndv(&e.a), ndv(&e.b)) {
                (Some(x), Some(y)) => 1.0 / x.max(y).max(1.0),
                (Some(x), None) | (None, Some(x)) => 1.0 / x.max(1.0),
                (None, None) => {
                    let ra = rels[e.a.0].est.cost.rows;
                    let rb = rels[e.b.0].est.cost.rows;
                    1.0 / ra.max(rb).max(1.0)
                }
            }
        })
        .collect();

    let tree = dp_order(&rels, &edges, &edge_sel, params, stats)?;
    // Bail out unchanged if the search landed on the declared order.
    if is_declared(&tree, lp, &edges, &mut 0) {
        return None;
    }
    Some((tree, edges, rels))
}

/// A join tree over relation indices: leaf or (left, right) pair.
#[derive(Debug, Clone)]
enum Tree {
    Leaf(usize),
    Node(Box<Tree>, Box<Tree>),
}

impl Tree {
    fn mask(&self) -> u32 {
        match self {
            Tree::Leaf(i) => 1u32 << i,
            Tree::Node(l, r) => l.mask() | r.mask(),
        }
    }

    /// Lowest relation index in the tree (deterministic orientation).
    fn min_rel(&self) -> usize {
        self.mask().trailing_zeros() as usize
    }
}

/// Estimated *bytes* of the join of the relations in `mask`: cardinality
/// (product of relation rows times the selectivity of every edge internal
/// to the mask) scaled by the concatenated payload width. Rows alone
/// mislead the search on a DPU: the simulator charges partitioning and
/// DMS transfers by bytes moved, so a small-but-wide dimension join glued
/// on early taxes every later join with its payload. Split-independent,
/// so the memo stores one value per subset.
fn mask_est(mask: u32, rels: &[Rel], edges: &[Edge], edge_sel: &[f64]) -> (f64, f64) {
    let mut rows = 1.0f64;
    let mut width = 0.0f64;
    for (i, r) in rels.iter().enumerate() {
        if mask & (1 << i) != 0 {
            rows *= r.est.cost.rows.max(1.0);
            width += r.est.cost.row_bytes.max(1.0);
        }
    }
    // Edges between the same relation pair are the key columns of ONE
    // composite-key join (e.g. lineitem⋈partsupp on partkey AND
    // suppkey); their selectivities are correlated, not independent, so
    // multiplying them flat undercounts the join by orders of magnitude
    // and makes a non-reducing join look like a great first step. Apply
    // the same exponential backoff as `containment_rows` within each
    // pair (BTreeMap for a deterministic accumulation order), and treat
    // distinct pairs as independent.
    let mut per_pair: std::collections::BTreeMap<(usize, usize), Vec<f64>> =
        std::collections::BTreeMap::new();
    for (e, &s) in edges.iter().zip(edge_sel) {
        if mask & (1 << e.a.0) != 0 && mask & (1 << e.b.0) != 0 {
            let pair = (e.a.0.min(e.b.0), e.a.0.max(e.b.0));
            per_pair.entry(pair).or_default().push(s);
        }
    }
    for sels in per_pair.values_mut() {
        sels.sort_by(|x, y| x.total_cmp(y));
        let mut exp = 1.0f64;
        for &s in sels.iter() {
            rows *= s.powf(exp);
            exp *= 0.5;
        }
    }
    (rows.max(1.0), width.max(1.0))
}

/// Estimated cycles to hash-join two subsets, mirroring `lower_join` and
/// the engine: the smaller-row side builds, the partition scheme is
/// chosen from the build size and the *widest* row, and BOTH sides then
/// stream through that scheme's partition rounds — so a wide build that
/// forces a deeper scheme correctly taxes a large probe, which is the
/// dominant simulator cost the plain bytes objective misses.
///
/// The widths here are the *declared* ones of [`PlanCost::row_bytes`]
/// (8 bytes an Int or Decimal), not the encoded widths `lower_join` caps
/// and prices the scheme it emits with: the search over-prices a wide join
/// by the second round it no longer runs (Q9's `lineitem` probe is costed
/// at 48 bytes a row and a 16-way cap, and runs at 12 and one 32-way
/// round). The prototype of that change (ISSUE 20) also switched the
/// search to encoded widths and measured Q5 −2.5 % and Q10 +0.7 %
/// simulated cycles at sf 0.02; `row_bytes` moreover feeds the
/// host-or-RAPID decision (`offload_secs`), so the search is left alone.
///
/// [`PlanCost::row_bytes`]: crate::cost::PlanCost
fn join_cycles(params: &CostParams, a: (f64, f64), b: (f64, f64)) -> f64 {
    let cm = &params.ctx.cost_model;
    let ((build_rows, build_width), (probe_rows, probe_width)) =
        if a.0 <= b.0 { (a, b) } else { (b, a) };
    let row_bytes = (a.1.max(b.1) as usize).max(8);
    let scheme = partition_scheme(build_rows, row_bytes, row_bytes, &params.ctx);
    let side = |rows: f64, width: f64| {
        let (rows, width) = ((rows as u64).max(1), (width as usize).max(8));
        scheme_cost(cm, rows, width, params.ctx.dmem_bytes, &scheme)
    };
    let partition = side(build_rows, build_width) + side(probe_rows, probe_width);
    let kernels = (build_rows * cm.kernel_cycles(&costs::join_build_per_row())
        + probe_rows
            * (cm.kernel_cycles(&costs::join_probe_per_row())
                + cm.kernel_cycles(&costs::join_probe_per_link())))
        / params.ctx.cores as f64;
    partition + kernels
}

/// Exhaustive DP over connected subsets (bushy, byte-weighted C_out).
fn dp_order(
    rels: &[Rel],
    edges: &[Edge],
    edge_sel: &[f64],
    params: &CostParams,
    stats: &mut OptimizeStats,
) -> Option<Tree> {
    let n = rels.len();
    let full: u32 = (1u32 << n) - 1;

    #[derive(Clone)]
    struct Entry {
        cost: f64,
        split: Option<(u32, u32)>,
    }
    let mut memo: Vec<Option<Entry>> = vec![None; (full as usize) + 1];
    for i in 0..n {
        memo[1 << i] = Some(Entry {
            cost: 0.0,
            split: None,
        });
    }
    let crosses = |sub: u32, comp: u32| -> bool {
        edges.iter().any(|e| {
            let (ma, mb) = (1u32 << e.a.0, 1u32 << e.b.0);
            (sub & ma != 0 && comp & mb != 0) || (sub & mb != 0 && comp & ma != 0)
        })
    };

    // Memoize every subset's (rows, width) estimate up front: the split
    // cost below needs both sides' sizes, not just the union's.
    let est: Vec<(f64, f64)> = (0..=full as usize)
        .map(|m| mask_est(m as u32, rels, edges, edge_sel))
        .collect();

    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let low = mask & mask.wrapping_neg();
        let rest = mask ^ low;
        // Enumerate proper subsets containing the lowest bit (each
        // unordered split visited once), ascending for determinism:
        // `r` walks the subsets of `rest` in increasing numeric order.
        let mut r = 0u32;
        let mut best: Option<Entry> = None;
        loop {
            let sub = low | r;
            let comp = mask ^ sub;
            if comp != 0 {
                if let (Some(a), Some(b)) = (&memo[sub as usize], &memo[comp as usize]) {
                    if crosses(sub, comp) {
                        stats.plans_considered += 1;
                        let cost = a.cost
                            + b.cost
                            + join_cycles(params, est[sub as usize], est[comp as usize]);
                        if best.as_ref().is_none_or(|e| cost < e.cost) {
                            best = Some(Entry {
                                cost,
                                split: Some((sub, comp)),
                            });
                        }
                    }
                }
            }
            if r == rest {
                break;
            }
            r = r.wrapping_sub(rest) & rest;
        }
        if best.is_some() {
            memo[mask as usize] = best;
            stats.memo_entries += 1;
        }
    }

    // The plan of `mask`, or none when no split of it connects (a split's
    // halves always have plans of their own).
    fn extract(mask: u32, memo: &[Option<Entry>]) -> Option<Tree> {
        let e = memo[mask as usize].as_ref()?;
        Some(match e.split {
            None => Tree::Leaf(mask.trailing_zeros() as usize),
            Some((a, b)) => {
                let (l, r) = (extract(a, memo)?, extract(b, memo)?);
                // Deterministic orientation: lowest relation goes left.
                if l.min_rel() <= r.min_rel() {
                    Tree::Node(Box::new(l), Box::new(r))
                } else {
                    Tree::Node(Box::new(r), Box::new(l))
                }
            }
        })
    }
    extract(full, &memo)
}

/// The equi-keys `(left, right)` of a join whose sides cover the relation
/// sets `lm` and `rm`: every edge with one endpoint on each side, in edge
/// order.
fn crossing_keys(lm: u32, rm: u32, edges: &[Edge]) -> impl Iterator<Item = (&str, &str)> {
    edges.iter().filter_map(move |e| {
        let (ma, mb) = (1u32 << e.a.0, 1u32 << e.b.0);
        if lm & ma != 0 && rm & mb != 0 {
            Some((e.a.1.as_str(), e.b.1.as_str()))
        } else if lm & mb != 0 && rm & ma != 0 {
            Some((e.b.1.as_str(), e.a.1.as_str()))
        } else {
            None
        }
    })
}

/// Materialize a `Tree` into `LogicalPlan::Join` nodes, moving each
/// relation out of `rels`. Every edge whose endpoints land on opposite
/// sides of a node is applied at that node (its LCA), so each edge is used
/// exactly once.
fn build_tree(tree: &Tree, rels: &mut [LogicalPlan], edges: &[Edge]) -> LogicalPlan {
    match tree {
        Tree::Leaf(i) => std::mem::replace(&mut rels[*i], LogicalPlan::scan("")),
        Tree::Node(l, r) => {
            let (left_keys, right_keys): (Vec<String>, Vec<String>) =
                crossing_keys(l.mask(), r.mask(), edges)
                    .map(|(lk, rk)| (lk.to_string(), rk.to_string()))
                    .unzip();
            debug_assert!(!left_keys.is_empty(), "split without crossing edge");
            LogicalPlan::Join {
                left: Box::new(build_tree(l, rels, edges)),
                right: Box::new(build_tree(r, rels, edges)),
                left_keys,
                right_keys,
                join_type: JoinType::Inner,
            }
        }
    }
}

/// Whether [`build_tree`] would rebuild the declared chain `lp` as it
/// stands: the relations in their places (`next_rel` counts them off left
/// to right) and every join with the same keys in the same order.
fn is_declared(tree: &Tree, lp: &LogicalPlan, edges: &[Edge], next_rel: &mut usize) -> bool {
    match (tree, lp) {
        (
            Tree::Node(l, r),
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                join_type: JoinType::Inner,
            },
        ) => {
            let declared = left_keys.iter().zip(right_keys);
            crossing_keys(l.mask(), r.mask(), edges)
                .eq(declared.map(|(lk, rk)| (lk.as_str(), rk.as_str())))
                && is_declared(l, left, edges, next_rel)
                && is_declared(r, right, edges, next_rel)
        }
        (
            _,
            LogicalPlan::Join {
                join_type: JoinType::Inner,
                ..
            },
        )
        | (Tree::Node(..), _) => false,
        (Tree::Leaf(i), _) => {
            *next_rel += 1;
            *i == *next_rel - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};
    use std::sync::Arc;

    /// Catalog: two large tables with a low-NDV pair key and a small one
    /// keyed to `big1`'s unique id — the selective join the declared
    /// order does last.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut add = |name: &str, prefix: &str, rows: i64, kmod: i64| {
            let schema = Schema::new(vec![
                Field::new(format!("{prefix}_id"), DataType::Int),
                Field::new(format!("{prefix}_k"), DataType::Int),
            ]);
            let mut b = TableBuilder::new(name, schema);
            for i in 0..rows {
                b.push_row(vec![Value::Int(i), Value::Int(i % kmod)]);
            }
            c.insert(name.into(), Arc::new(b.finish()));
        };
        add("big1", "x", 10_000, 10);
        add("big2", "y", 10_000, 10);
        add("small", "z", 50, 50);
        c
    }

    /// Declared order: the exploding (big1 ⋈ big2) pair first.
    fn chain() -> LogicalPlan {
        LogicalPlan::scan("big1")
            .join(LogicalPlan::scan("big2"), &["x_k"], &["y_k"])
            .join(LogicalPlan::scan("small"), &["x_id"], &["z_id"])
    }

    fn shape(lp: &LogicalPlan) -> String {
        match lp {
            LogicalPlan::Scan { table, .. } => table.clone(),
            LogicalPlan::Join { left, right, .. } => {
                format!("({}⋈{})", shape(left), shape(right))
            }
            LogicalPlan::Project { input, .. } => shape(input),
            _ => "?".into(),
        }
    }

    #[test]
    fn selective_join_moves_first() {
        let cat = catalog();
        let p = CostParams::default();
        let (out, stats) = reorder(chain(), &cat, &p);
        assert_eq!(stats.join_relations, 3);
        assert_eq!(stats.reordered, 1);
        assert!(stats.plans_considered > 0);
        assert!(stats.memo_entries > 0);
        assert_eq!(shape(&out), "((big1⋈small)⋈big2)");
    }

    #[test]
    fn search_is_deterministic() {
        let cat = catalog();
        let p = CostParams::default();
        let (a, sa) = reorder(chain(), &cat, &p);
        let (b, sb) = reorder(chain(), &cat, &p);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn reordering_preserves_output_columns() {
        let cat = catalog();
        let on = CostParams::default();
        let off = CostParams {
            reorder_joins: false,
            ..CostParams::default()
        };
        let c_on = crate::compiler::compile(&chain(), &cat, &on).unwrap();
        let c_off = crate::compiler::compile(&chain(), &cat, &off).unwrap();
        let names = |c: &crate::compiler::Compiled| -> Vec<String> {
            c.output.iter().map(|o| o.name.clone()).collect()
        };
        assert_eq!(names(&c_on), names(&c_off));
        // The reordered chain's top join writes them in the declared order
        // itself: no operator above it restores the layout.
        assert!(matches!(
            c_on.plan,
            rapid_qef::plan::PlanNode::HashJoin { .. }
        ));
        let written: Vec<String> = c_on
            .plan
            .output_meta(&cat)
            .unwrap()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(written, names(&c_off));
    }

    #[test]
    fn disabled_flag_keeps_declared_order() {
        let cat = catalog();
        let off = CostParams {
            reorder_joins: false,
            ..CostParams::default()
        };
        let c = crate::compiler::compile(&chain(), &cat, &off).unwrap();
        assert_eq!(c.optimize, OptimizeStats::default());
    }

    #[test]
    fn duplicate_column_names_bail_to_declared_order() {
        let mut cat = catalog();
        // A second table with big1's exact column names.
        let schema = Schema::new(vec![
            Field::new("x_id", DataType::Int),
            Field::new("x_k", DataType::Int),
        ]);
        let mut b = TableBuilder::new("dup", schema);
        for i in 0..10i64 {
            b.push_row(vec![Value::Int(i), Value::Int(i)]);
        }
        cat.insert("dup".into(), Arc::new(b.finish()));
        let lp = LogicalPlan::scan("big1")
            .join(LogicalPlan::scan("big2"), &["x_k"], &["y_k"])
            .join(LogicalPlan::scan("dup"), &["x_id"], &["x_id"]);
        let (out, stats) = reorder(lp.clone(), &cat, &CostParams::default());
        assert_eq!(stats.reordered, 0);
        assert_eq!(out, lp);
    }

    #[test]
    fn chains_wider_than_the_dp_keep_their_declared_order() {
        let mut cat = Catalog::new();
        let n = MAX_DP_RELATIONS + 1;
        for t in 0..n {
            let schema = Schema::new(vec![Field::new(format!("k{t}"), DataType::Int)]);
            let mut b = TableBuilder::new(format!("t{t}"), schema);
            for i in 0..(4 + t as i64) {
                b.push_row(vec![Value::Int(i)]);
            }
            cat.insert(format!("t{t}"), Arc::new(b.finish()));
        }
        let chain = (1..n).fold(LogicalPlan::scan("t0"), |lp, t| {
            let (l, r) = (format!("k{}", t - 1), format!("k{t}"));
            lp.join(LogicalPlan::scan(&format!("t{t}")), &[&l], &[&r])
        });
        let (out, stats) = reorder(chain.clone(), &cat, &CostParams::default());
        assert_eq!(out, chain);
        assert_eq!(stats.plans_considered, 0);
        assert_eq!(stats.reordered, 0);
    }

    #[test]
    fn two_relation_joins_are_left_alone() {
        let cat = catalog();
        let lp = LogicalPlan::scan("big1").join(LogicalPlan::scan("small"), &["x_id"], &["z_id"]);
        let (out, stats) = reorder(lp.clone(), &cat, &CostParams::default());
        assert_eq!(stats.reordered, 0);
        assert_eq!(out, lp);
    }

    #[test]
    fn cyclic_edges_each_apply_once() {
        // big1–big2 (pair key), big1–small, big2–small: a 3-cycle. Every
        // edge must appear exactly once across the rebuilt join tree.
        let cat = catalog();
        let lp = LogicalPlan::scan("big1")
            .join(LogicalPlan::scan("big2"), &["x_k"], &["y_k"])
            .join(
                LogicalPlan::scan("small"),
                &["x_id", "y_id"],
                &["z_id", "z_k"],
            );
        let (out, stats) = reorder(lp, &cat, &CostParams::default());
        assert_eq!(stats.join_relations, 3);
        fn count_keys(lp: &LogicalPlan) -> usize {
            match lp {
                LogicalPlan::Join {
                    left,
                    right,
                    left_keys,
                    ..
                } => left_keys.len() + count_keys(left) + count_keys(right),
                LogicalPlan::Project { input, .. } => count_keys(input),
                _ => 0,
            }
        }
        assert_eq!(count_keys(&out), 3, "shape: {}", shape(&out));
    }
}
