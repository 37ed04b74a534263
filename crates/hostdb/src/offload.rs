//! The cost-based offload planner (§3.1–§3.2).
//!
//! "The plan generator of System X considers i) full offload: RAPID-only,
//! ii) partial offload: some fragment(s) of the query offloaded or iii) no
//! offload. A fragment of a query is a candidate for offload if a) the
//! relational operators of the fragment are supported in RAPID and b) the
//! relational tables that are required by the operators in the fragment
//! are loaded into RAPID."
//!
//! Every operator this system plans *is* supported in RAPID, so
//! candidacy reduces to table residency; the cost comparison weighs the
//! RAPID execution + result-return estimate (from `rapid-qcomp`'s cost
//! model) against a calibrated per-row cost of the Volcano engine.
//!
//! This module owns compilation: [`compile`] is the only call of the RAPID
//! compiler in hostdb. The request path admits a statement first — every
//! RAPID table it reads is checkpointed to the host's SCN — and then, under
//! one read lock, decides against that catalog and forks the engine, so the
//! plan a full offload's decision compiled is the plan the fork executes
//! (see `db`'s request path).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use rapid_qcomp::cost::CostParams;
use rapid_qcomp::logical::LogicalPlan;
use rapid_qcomp::{CompileError, Compiled};
use rapid_qef::plan::Catalog;

/// What the planner decided for a query: the public summary of an
/// [`OffloadPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum OffloadDecision {
    /// The whole plan runs on RAPID.
    Full,
    /// This many maximal RAPID-resident subtrees run on RAPID; the rest
    /// runs on the host.
    Partial(usize),
    /// Everything runs on the host.
    None(NoOffloadReason),
}

/// Why a query stayed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoOffloadReason {
    /// Some referenced table is not loaded into RAPID.
    TablesNotLoaded,
    /// The host plan was estimated cheaper (small queries lose the
    /// offload round trip).
    HostCheaper,
}

/// Compile `plan` against `catalog` — the one place hostdb runs the RAPID
/// compiler (join-order search, lowering, estimate, verifier gate).
pub(crate) fn compile(
    plan: &LogicalPlan,
    catalog: &Catalog,
    params: &CostParams,
) -> Result<Compiled, CompileError> {
    rapid_qcomp::compile(plan, catalog, params)
}

/// The offload decision with the by-products the executor needs, so nothing
/// the decision worked out is computed again.
#[derive(Debug)]
pub(crate) enum OffloadPlan {
    /// The whole plan runs on RAPID. Carries the compiled plan the decision
    /// costed (or, with the site forced, compiled without costing).
    Full(Compiled),
    /// Each maximal RAPID-resident subtree is a fragment, replaced in
    /// `remainder` by a scan of the temporary table it is named after
    /// (`__rapid_frag_<i>__<n>`, `n` unique per decision so concurrent
    /// queries cannot collide), where the executor lands its result.
    Partial {
        /// The plan with every fragment replaced by its placeholder scan.
        remainder: LogicalPlan,
        /// `(temporary table name, fragment)`, in plan order.
        fragments: Vec<(String, LogicalPlan)>,
    },
    /// Everything runs on the host.
    None(NoOffloadReason),
}

/// Calibration of the host-side (Volcano) cost: seconds per row-operator
/// touch. Interpreted row-at-a-time execution costs on the order of
/// hundreds of nanoseconds per row per operator.
pub const VOLCANO_SECS_PER_ROW_OP: f64 = 250.0e-9;

/// Estimate local (Volcano) execution seconds: every scanned row passes
/// through a handful of operators.
fn estimate_local_secs(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
    fn scanned_rows(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
        let own = match plan {
            LogicalPlan::Scan { table, .. } => catalog.get(table).map_or(0.0, |t| t.rows() as f64),
            _ => 0.0,
        };
        own + plan
            .inputs()
            .map(|child| scanned_rows(child, catalog))
            .sum::<f64>()
    }
    scanned_rows(plan, catalog) * 4.0 * VOLCANO_SECS_PER_ROW_OP
}

/// Tables referenced by a logical plan.
pub fn referenced_tables(plan: &LogicalPlan, out: &mut HashSet<String>) {
    if let LogicalPlan::Scan { table, .. } = plan {
        out.insert(table.clone());
    }
    for child in plan.inputs() {
        referenced_tables(child, out);
    }
}

/// Make the offload decision for a query.
pub fn decide(plan: &LogicalPlan, rapid_catalog: &Catalog, params: &CostParams) -> OffloadDecision {
    let mut tables = HashSet::new();
    referenced_tables(plan, &mut tables);
    match plan_offload(plan, &tables, rapid_catalog, params) {
        OffloadPlan::Full(_) => OffloadDecision::Full,
        OffloadPlan::Partial { fragments, .. } => OffloadDecision::Partial(fragments.len()),
        OffloadPlan::None(why) => OffloadDecision::None(why),
    }
}

/// [`decide`], keeping what the decision computed: the compiled plan of a
/// full offload, the rewritten remainder and fragments of a partial one.
/// `tables` are the plan's [`referenced_tables`].
pub(crate) fn plan_offload(
    plan: &LogicalPlan,
    tables: &HashSet<String>,
    rapid_catalog: &Catalog,
    params: &CostParams,
) -> OffloadPlan {
    let loaded = tables
        .iter()
        .filter(|t| rapid_catalog.contains_key(*t))
        .count();
    if loaded == 0 {
        return OffloadPlan::None(NoOffloadReason::TablesNotLoaded);
    }
    if loaded < tables.len() {
        static DECISION_SEQ: AtomicU64 = AtomicU64::new(0);
        let uniq = DECISION_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut remainder = plan.clone();
        let mut fragments = Vec::new();
        extract_fragments(&mut remainder, rapid_catalog, uniq, &mut fragments);
        return OffloadPlan::Partial {
            remainder,
            fragments,
        };
    }
    // Cost-based full-vs-none.
    match compile(plan, rapid_catalog, params) {
        Ok(compiled) if compiled.cost.offload_secs() < estimate_local_secs(plan, rapid_catalog) => {
            OffloadPlan::Full(compiled)
        }
        Ok(_) => OffloadPlan::None(NoOffloadReason::HostCheaper),
        Err(_) => OffloadPlan::None(NoOffloadReason::TablesNotLoaded),
    }
}

/// Whether every table under `plan` is loaded into RAPID.
fn resident(plan: &LogicalPlan, catalog: &Catalog) -> bool {
    match plan {
        LogicalPlan::Scan { table, .. } => catalog.contains_key(table),
        _ => plan.inputs().all(|child| resident(child, catalog)),
    }
}

/// Move each **maximal** RAPID-resident subtree of `plan` into `fragments`,
/// leaving a placeholder scan of its temporary table behind.
fn extract_fragments(
    plan: &mut LogicalPlan,
    catalog: &Catalog,
    uniq: u64,
    fragments: &mut Vec<(String, LogicalPlan)>,
) {
    if resident(plan, catalog) {
        let name = format!("__rapid_frag_{}__{uniq}", fragments.len());
        let fragment = std::mem::replace(plan, LogicalPlan::scan(&name));
        fragments.push((name, fragment));
        return; // maximal: don't descend
    }
    for child in plan.inputs_mut() {
        extract_fragments(child, catalog, uniq, fragments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_qcomp::logical::LPred;
    use rapid_qef::primitives::filter::CmpOp;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};
    use std::sync::Arc;

    fn catalog(rows: i64) -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..rows {
            b.push_row(vec![Value::Int(i), Value::Int(i)]);
        }
        let mut c = Catalog::new();
        c.insert("t".into(), Arc::new(b.finish()));
        c
    }

    #[test]
    fn big_scans_offload() {
        let cat = catalog(500_000);
        let plan = LogicalPlan::scan_where("t", LPred::cmp("k", CmpOp::Lt, Value::Int(10)));
        assert_eq!(
            decide(&plan, &cat, &CostParams::default()),
            OffloadDecision::Full
        );
    }

    #[test]
    fn tiny_queries_stay_local() {
        let cat = catalog(10);
        let plan = LogicalPlan::scan("t");
        assert_eq!(
            decide(&plan, &cat, &CostParams::default()),
            OffloadDecision::None(NoOffloadReason::HostCheaper)
        );
    }

    #[test]
    fn unloaded_tables_block_full_offload() {
        let cat = catalog(500_000);
        let loaded = LogicalPlan::scan("t");
        let unloaded = LogicalPlan::scan("ghost");
        let join = loaded.join(unloaded, &["k"], &["g"]);
        assert_eq!(
            decide(&join, &cat, &CostParams::default()),
            OffloadDecision::Partial(1),
            "the loaded scan is a fragment"
        );
        let tables = HashSet::from(["t".to_string(), "ghost".to_string()]);
        let OffloadPlan::Partial {
            remainder,
            fragments,
        } = plan_offload(&join, &tables, &cat, &CostParams::default())
        else {
            panic!("expected partial");
        };
        let [(temp, fragment)] = &fragments[..] else {
            panic!("expected one fragment, got {fragments:?}");
        };
        assert_eq!(fragment, &LogicalPlan::scan("t"));
        assert_eq!(
            remainder,
            LogicalPlan::scan(temp).join(LogicalPlan::scan("ghost"), &["k"], &["g"]),
            "the remainder scans the fragment's temp table in its place"
        );
    }

    /// `referenced_tables` recurses through `LogicalPlan::inputs()`: over a
    /// plan holding all nine variants it finds every scanned table.
    #[test]
    fn referenced_tables_sees_under_every_variant() {
        use rapid_qcomp::logical::{LAgg, LExpr, LNamed, LSortKey, LWindowFunc};
        let window = LogicalPlan::Window {
            input: Box::new(LogicalPlan::scan("w").limit(3)),
            partition_by: vec![],
            order_by: vec![],
            func: LWindowFunc::RowNumber,
            name: "rn".into(),
        };
        let agg = LogicalPlan::scan("a")
            .filter(LPred::eq("k", Value::Int(1)))
            .aggregate(
                vec![LNamed::new("k", LExpr::col("k"))],
                vec![LAgg {
                    func: rapid_qef::primitives::agg::AggFunc::Count,
                    input: LExpr::col("k"),
                    name: "n".into(),
                }],
            );
        let plan = LogicalPlan::SetOp {
            left: Box::new(
                agg.join(window, &["k"], &["k"])
                    .project(vec![LNamed::new("k", LExpr::col("k"))])
                    .sort(vec![LSortKey {
                        col: "k".into(),
                        desc: false,
                    }]),
            ),
            right: Box::new(LogicalPlan::scan("s")),
            op: rapid_qef::plan::SetOpKind::Union,
        };
        let mut tables = HashSet::new();
        referenced_tables(&plan, &mut tables);
        let want: HashSet<String> = ["a", "w", "s"].iter().map(|t| t.to_string()).collect();
        assert_eq!(tables, want);
    }

    #[test]
    fn fully_unloaded_is_no_offload() {
        let cat = Catalog::new();
        let plan = LogicalPlan::scan("ghost");
        assert_eq!(
            decide(&plan, &cat, &CostParams::default()),
            OffloadDecision::None(NoOffloadReason::TablesNotLoaded)
        );
    }
}
