//! Execute one SQL case on all three engines and compare.
//!
//! The three engines are the point of the exercise: the host Volcano
//! executor is an independent row-at-a-time implementation, RAPID-on-DPU
//! goes through the offload path onto the simulated accelerator, and
//! RAPID-software runs the same columnar plan on native threads. A query
//! "agrees" when all three produce the same canonical row multiset, or
//! when all three report an error (SQL leaves error *messages* to the
//! implementation, so only the error/success split must match). Anything
//! else — differing rows, or one engine erroring while another returns
//! rows — is a divergence.
//!
//! The native arm holds the same rows in chunks of [`NATIVE_CHUNK_ROWS`]
//! rather than the host's 4,096 slots, so a table of a few hundred rows is
//! several chunks there, and zone maps rule chunks out inside it, not only
//! past its ends: a chunking that changed a result diverges.
//!
//! Panics inside an engine are caught and treated as that engine's error:
//! the fuzzer must keep running, and a panic asymmetry is exactly the kind
//! of bug it exists to find.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hostdb::HostDb;
use rapid_qcomp::CostParams;
use rapid_qef::engine::Engine;
use rapid_qef::exec::ExecContext;
use rapid_qef::trace::MemorySink;
use rapid_storage::table::TableBuilder;

use crate::canonical;
use crate::datagen::TableSpec;

/// What one engine produced for a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOutcome {
    /// Canonical (normalized, sorted) rows.
    Rows(Vec<Vec<String>>),
    /// Error or caught panic text.
    Error(String),
}

impl EngineOutcome {
    pub(crate) fn describe(&self) -> String {
        match self {
            EngineOutcome::Rows(r) => format!("{} rows", r.len()),
            EngineOutcome::Error(e) => format!("error: {e}"),
        }
    }
}

/// The three per-engine outcomes for one case.
#[derive(Debug, Clone)]
pub struct TriOutcome {
    /// Host Volcano executor.
    pub host: EngineOutcome,
    /// RAPID on the simulated DPU.
    pub dpu: EngineOutcome,
    /// RAPID software on native threads.
    pub native: EngineOutcome,
    /// Whether the plan of the RAPID arm declares a join filter.
    pub filtered: bool,
    /// Whether one of them is on a broadcast join.
    pub broadcast_filtered: bool,
    /// Whether a scan of the native arm read fewer chunks than its table
    /// has: its predicate's zone maps ruled the others out.
    pub pruned: bool,
    /// Whether the native arm ran a join or group-by over key ranges of
    /// its tables (`join.ranged`, `groupby.ranged`).
    pub ranged: bool,
    /// Whether one of them was a join that read one input by range and
    /// partitioned the other by its key's value bits: a `join.ranged` stage
    /// beside a partition round of the same node.
    pub one_sided: bool,
    /// Whether a join of the RAPID arm's plan writes fewer columns than its
    /// sides hand it: a key or a column nothing above it reads.
    pub narrowed: bool,
}

impl TriOutcome {
    /// `Some(description)` when the engines disagree.
    pub fn divergence(&self) -> Option<String> {
        use EngineOutcome::*;
        match (&self.host, &self.dpu, &self.native) {
            (Rows(h), Rows(d), Rows(n)) => {
                if h == d && h == n {
                    None
                } else {
                    let mut msg = format!(
                        "row divergence: host={} dpu={} native={}",
                        h.len(),
                        d.len(),
                        n.len()
                    );
                    for (name, rows) in [("host", h), ("dpu", d), ("native", n)] {
                        msg.push_str(&format!("\n  {name}: {:?}", preview(rows)));
                    }
                    Some(msg)
                }
            }
            (Error(_), Error(_), Error(_)) => None,
            _ => Some(format!(
                "error asymmetry: host=[{}] dpu=[{}] native=[{}]",
                self.host.describe(),
                self.dpu.describe(),
                self.native.describe()
            )),
        }
    }
}

/// Rows per chunk of the native arm's tables.
pub const NATIVE_CHUNK_ROWS: usize = 64;

pub(crate) fn preview(rows: &[Vec<String>]) -> Vec<Vec<String>> {
    rows.iter().take(6).cloned().collect()
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// Each table's column names, by table: what the SQL front end resolves
/// names against.
pub(crate) fn schemas(tables: &[TableSpec]) -> HashMap<String, Vec<String>> {
    let columns = |t: &TableSpec| t.columns.iter().map(|c| c.name.clone()).collect();
    tables
        .iter()
        .map(|t| (t.name.clone(), columns(t)))
        .collect()
}

pub(crate) fn guarded(f: impl FnOnce() -> Result<EngineOutcome, String>) -> EngineOutcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => EngineOutcome::Error(e),
        Err(p) => EngineOutcome::Error(format!("panic: {}", panic_text(&*p))),
    }
}

/// Run one SQL statement over the given tables on all three engines.
///
/// `Err` means the case never reached the engines (parse or load failure)
/// and should be counted as skipped, not as agreement.
pub fn run_sql(tables: &[TableSpec], sql: &str) -> Result<TriOutcome, String> {
    let plan = hostdb::sql::parse_sql(sql, &schemas(tables)).map_err(|e| format!("parse: {e}"))?;

    let dpu = ExecContext::dpu().with_cores(4);
    let db = HostDb::new(dpu.clone());
    for t in tables {
        db.create_table(&t.name, t.schema());
        db.bulk_insert(&t.name, t.rows.iter().cloned());
        db.load_into_rapid(&t.name)
            .map_err(|e| format!("load {}: {e}", t.name))?;
    }

    // What the RAPID arm's plan is: compiled for the context it runs on,
    // as the host database compiles it.
    let (filtered, broadcast_filtered, narrowed) = {
        let catalog = db.rapid().read().catalog().clone();
        let compiled = rapid_qcomp::compile(&plan, &catalog, &CostParams::from_exec(&dpu));
        let declares = |broadcast| {
            compiled
                .as_ref()
                .is_ok_and(|c| declares_a_filter(&c.plan, broadcast))
        };
        let narrowed = compiled
            .as_ref()
            .is_ok_and(|c| narrows_a_join(&c.plan, &catalog));
        (declares(false) || declares(true), declares(true), narrowed)
    };
    let host = guarded(|| {
        db.execute_on_host(&plan)
            .map(|q| EngineOutcome::Rows(canonical(&q.rows)))
            .map_err(|e| e.to_string())
    });
    let dpu = guarded(|| {
        db.execute_on_rapid(&plan)
            .map(|q| EngineOutcome::Rows(canonical(&q.rows)))
            .map_err(|e| e.to_string())
    });
    let sink = MemorySink::new();
    let native = guarded(|| {
        let mut engine = Engine::new(ExecContext::native(2).with_trace(Arc::clone(&sink) as _));
        for t in tables {
            let mut b = TableBuilder::new(t.name.clone(), t.schema()).chunk_rows(NATIVE_CHUNK_ROWS);
            b.extend_rows(t.rows.iter().cloned());
            engine.load_table(Arc::new(b.finish()));
        }
        let catalog = engine.catalog();
        let compiled = rapid_qcomp::compile(&plan, catalog, &CostParams::default())
            .map_err(|e| format!("compile: {e}"))?;
        // The compile() gate checked the plan against the costed
        // (DPU-shaped) configuration and this arm executes it under
        // another: the engine checks nothing it is handed, so verify under
        // the context that will run it. A rejection here surfaces as an
        // error asymmetry against the host engine — a verifier false
        // positive is a fuzz finding like any other.
        rapid_verify::check(&compiled.plan, catalog, engine.context())
            .map_err(|e| format!("verify: {e}"))?;
        let (out, _) = engine.execute(&compiled.plan).map_err(|e| e.to_string())?;
        let rows = hostdb::db::decode_batch(&out.batch, &out.meta, engine.catalog());
        Ok(EngineOutcome::Rows(canonical(&rows)))
    });

    let events = sink.take();
    let pruned = events.iter().any(|e| e.scan.is_some_and(|s| s.pruned > 0));
    let ranged = events.iter().any(|e| e.operator.ends_with(".ranged"));
    let one_sided = events.iter().any(|e| {
        e.operator == "join.ranged"
            && events
                .iter()
                .any(|p| p.node_id == e.node_id && p.operator.starts_with("join.partition"))
    });
    Ok(TriOutcome {
        host,
        dpu,
        native,
        filtered,
        broadcast_filtered,
        pruned,
        ranged,
        one_sided,
        narrowed,
    })
}

/// Whether a join of `plan` writes fewer columns than its probe side and,
/// for an inner or outer join, its build side hand it.
fn narrows_a_join(plan: &rapid_qef::plan::PlanNode, catalog: &rapid_qef::plan::Catalog) -> bool {
    let width =
        |plan: &rapid_qef::plan::PlanNode| plan.output_widths(catalog).map_or(0, |w| w.len());
    match plan {
        rapid_qef::plan::PlanNode::HashJoin {
            build,
            probe,
            join_type,
            output,
            ..
        } if output.len() < width(probe) + if join_type.pairs() { width(build) } else { 0 } => true,
        other => other.inputs().any(|input| narrows_a_join(input, catalog)),
    }
}

/// Whether a join of `plan` declares a join filter: a broadcast join, one
/// of no rounds, where `broadcast`, else a partitioned one.
fn declares_a_filter(plan: &rapid_qef::plan::PlanNode, broadcast: bool) -> bool {
    match plan {
        rapid_qef::plan::PlanNode::HashJoin {
            filter: Some(_),
            scheme,
            ..
        } if scheme.is_empty() == broadcast => true,
        other => other
            .inputs()
            .any(|input| declares_a_filter(input, broadcast)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_storage::types::{DataType, Value};

    fn tiny_table() -> Vec<TableSpec> {
        vec![TableSpec {
            name: "ta".into(),
            columns: vec![
                crate::datagen::ColumnSpec {
                    name: "ta_id".into(),
                    dtype: DataType::Int,
                },
                crate::datagen::ColumnSpec {
                    name: "ta_a".into(),
                    dtype: DataType::Int,
                },
            ],
            rows: vec![
                vec![Value::Int(0), Value::Int(5)],
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Int(-3)],
            ],
        }]
    }

    #[test]
    fn agreeing_query_has_no_divergence() {
        let out = run_sql(&tiny_table(), "SELECT ta_id AS c0, ta_a AS c1 FROM ta").unwrap();
        assert!(out.divergence().is_none(), "{:?}", out.divergence());
        match &out.host {
            EngineOutcome::Rows(r) => assert_eq!(r.len(), 3),
            e => panic!("host errored: {e:?}"),
        }
    }

    #[test]
    fn parse_failure_is_a_skip_not_a_divergence() {
        assert!(run_sql(&tiny_table(), "SELEC nonsense").is_err());
    }

    #[test]
    fn unknown_column_errors_on_all_engines_alike() {
        // Resolution failures happen after parsing; every engine must
        // refuse identically, which counts as agreement.
        let out = run_sql(&tiny_table(), "SELECT nope AS c0 FROM ta");
        if let Ok(out) = out {
            assert!(out.divergence().is_none(), "{:?}", out.divergence());
        }
    }
}
