//! Rules, diagnostics and the verification report.
//!
//! Every check the verifier performs is named by a [`Rule`] with a stable
//! id, and [`Rule::ALL`] lists them. Diagnostics carry the rule id, the
//! plan node's pre-order id (the same numbering the engine's tracer
//! assigns, so a diagnostic points at the exact stage an `EXPLAIN ANALYZE`
//! would show) and the operator path from the plan root.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suboptimal but executable (e.g. fewer partitions than cores).
    Warning,
    /// The plan must not execute: it would exceed a hardware budget,
    /// compute a wrong answer, or panic.
    Error,
}

/// Every invariant the verifier checks, named by a stable rule id.
///
/// `S-*` are structural IR rules, `R-*` resource rules from the paper's
/// hardware model (32 KiB DMEM, DMS fan-out), `A-*` accounting rules
/// (declared cost-model parameters vs what the engine executes), `C-*`
/// concurrency rules checked by the schedule interference analyzer over a
/// completed run's placement trace. See README/EXPERIMENTS.md for the rule
/// table with paper justifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Every column reference must be within its input's arity.
    ColBounds,
    /// Join key lists must be non-empty and of equal length.
    JoinArity,
    /// Join keys / set-op columns must agree in type, scale and
    /// dictionary provenance.
    TypeMismatch,
    /// Schema resolution (tables, scan columns) must succeed.
    Schema,
    /// Each stage's DMEM working set must fit the 32 KiB scratchpad at a
    /// >= 64-row vector.
    DmemFit,
    /// Partition fan-outs must be powers of two within the DMS limit.
    FanoutPow2,
    /// A scheme may consume at most 28 hash bits (4 reserved for skew).
    HashBits,
    /// Per-round fan-out is capped by the 16-row minimum DMS burst.
    FanoutBuffer,
    /// The declared tile size must be at least the 64-row minimum vector.
    TileMin,
    /// An on-the-fly group-by must fit its statically-known NDV in DMEM.
    GroupLimit,
    /// A scheme should produce at least one partition per core. A join of
    /// no rounds partitions nothing: it is broadcast to every core.
    SchemeCores,
    /// A join filter only on a partitioned inner or semi join, its size a
    /// power of two of at least a word a round-one partition.
    JoinFilter,
    /// A ranged join or group-by reads key ranges of its inputs' tables:
    /// every input is a scan-fed chain, the one key a column of each
    /// table, and its ranges as many as a scheme within the fan-out cap
    /// makes.
    Ranged,
    /// The happens-before graph over a schedule's placements must be
    /// acyclic (program + resource + admission edges).
    HbCycle,
    /// No two placements may overlap on the single shared DMS engine.
    DmsExcl,
    /// No two placements may hold the same dpCore at the same instant.
    CoreExcl,
    /// Live placements' aggregate DMEM footprint must fit the DPU
    /// (`Σ lanes × dmem_peak ≤ cores × dmem_bytes` at every boundary).
    DmemCap,
    /// Each placement's per-core DMEM peak must fit the query's 32 KiB
    /// scratchpad budget.
    QueryBudget,
    /// A stage must not be dispatched before its program-order
    /// predecessor completes (the lost-wakeup shape).
    LostWakeup,
}

impl Rule {
    /// Every rule, plan rules first: a variant added above belongs here,
    /// and a mutation that trips it in `rapid_report::mutate`.
    pub const ALL: [Rule; 19] = [
        Rule::ColBounds,
        Rule::JoinArity,
        Rule::TypeMismatch,
        Rule::Schema,
        Rule::DmemFit,
        Rule::FanoutPow2,
        Rule::HashBits,
        Rule::FanoutBuffer,
        Rule::TileMin,
        Rule::GroupLimit,
        Rule::SchemeCores,
        Rule::JoinFilter,
        Rule::Ranged,
        Rule::HbCycle,
        Rule::DmsExcl,
        Rule::CoreExcl,
        Rule::DmemCap,
        Rule::QueryBudget,
        Rule::LostWakeup,
    ];

    /// The stable rule id used in diagnostics and documentation.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::ColBounds => "S-COL-BOUNDS",
            Rule::JoinArity => "S-JOIN-ARITY",
            Rule::TypeMismatch => "S-TYPE-MISMATCH",
            Rule::Schema => "S-SCHEMA",
            Rule::DmemFit => "R-DMEM-FIT",
            Rule::FanoutPow2 => "R-FANOUT-POW2",
            Rule::HashBits => "R-HASH-BITS",
            Rule::FanoutBuffer => "R-FANOUT-BUFFER",
            Rule::TileMin => "A-TILE-MIN",
            Rule::GroupLimit => "A-GROUP-LIMIT",
            Rule::SchemeCores => "A-SCHEME-CORES",
            Rule::JoinFilter => "S-JOIN-FILTER",
            Rule::Ranged => "S-RANGED",
            Rule::HbCycle => "C-HB-CYCLE",
            Rule::DmsExcl => "C-DMS-EXCL",
            Rule::CoreExcl => "C-CORE-EXCL",
            Rule::DmemCap => "C-DMEM-CAP",
            Rule::QueryBudget => "C-QUERY-BUDGET",
            Rule::LostWakeup => "C-LOST-WAKEUP",
        }
    }

    /// Severity of a violation of this rule.
    pub fn severity(&self) -> Severity {
        match self {
            Rule::SchemeCores => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Severity (copied from the rule for convenience).
    pub severity: Severity,
    /// Pre-order id of the plan node (the engine tracer's `node_id`).
    pub node_id: usize,
    /// Operator path from the plan root, e.g.
    /// `GroupBy/Map/HashJoin.build/Scan(part)`.
    pub path: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Construct a diagnostic for `rule` at a node.
    pub fn new(rule: Rule, node_id: usize, path: &str, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            severity: rule.severity(),
            node_id,
            path: path.to_string(),
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] node {} at {}: {}",
            self.rule.id(),
            self.node_id,
            self.path,
            self.message
        )
    }
}

/// Resource summary of one engine stage — a task — of the plan's stage list
/// (`rapid_qef::stages`; a node can run several stages, e.g. a join's two
/// partition passes plus the pair-join stage; a scan-fed chain and, where
/// they fit together, the first stage of its consumer are one).
#[derive(Debug, Clone)]
pub struct StageReport {
    /// The stage's id in the list, printed `s<id>` as `EXPLAIN ANALYZE`
    /// and the trace's `entry_id` name it.
    pub entry_id: u32,
    /// Pre-order id of the owning plan node.
    pub node_id: usize,
    /// Operator path from the root.
    pub path: String,
    /// Stage label, matching the engine tracer's operator names
    /// (`scan(t)`, `join.partition-build`, `groupby.consume`, ...): the
    /// task's last operator.
    pub stage: String,
    /// The operators that run in the stage's lanes, scan first, as
    /// `a -> b -> c`: empty for a stage of one operator, which `stage` names.
    pub operators: String,
    /// Fixed state of every operator, charged against DMEM.
    pub state_bytes: usize,
    /// Per-row bytes across the column streams the operators hold a vector
    /// of together.
    pub stream_bytes_per_row: usize,
    /// Tile the engine will run this stage at — the task's one vector size
    /// (configured tile clamped to the working set); `None` when even a
    /// minimum vector does not fit.
    pub effective_tile: Option<usize>,
    /// Whether the fit keeps double buffering.
    pub double_buffered: bool,
    /// DMEM working set at the effective tile.
    pub working_set_bytes: usize,
    /// Partition fan-out per round (partition stages only).
    pub fanouts: Vec<usize>,
    /// Hash bits the scheme consumes (partition stages only).
    pub hash_bits: u32,
    /// Descriptors per loop iteration: one per stream buffer, two buffers a
    /// stream when double-buffered; none where the stage does not fit.
    pub descriptors: usize,
    /// Scan stages only: columns the scan moves, and columns its table has.
    pub scan_columns: Option<(usize, usize)>,
    /// The stage that writes a join's rows only: columns the join writes,
    /// and columns its probe and build sides hand it together.
    pub join_columns: Option<(usize, usize)>,
    /// A ranged join's stages only: on its `join.ranged` stage, which
    /// inputs it reads by range; on the pass of an input it does not, that
    /// the pass routes each row by its key's value bits into the range that
    /// holds it.
    pub ranged: Option<RangeRead>,
}

/// What a ranged join's stage does with its inputs' key ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeRead {
    /// `join.ranged` reads both inputs by range.
    Both,
    /// `join.ranged` reads the build side by range.
    Build,
    /// `join.ranged` reads the probe side by range.
    Probe,
    /// A pass routes its rows by their key's value bits.
    ValueBits,
}

/// The verifier's output: per-stage resource reports plus diagnostics.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// One entry per stage of the plan's stage list, in run order.
    pub stages: Vec<StageReport>,
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// Whether the plan may execute (no error-severity findings).
    pub fn ok(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// One line per error, for embedding in a compile/engine error.
    pub fn error_summary(&self) -> String {
        self.errors()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Render the per-stage DMEM/fan-out table plus diagnostics — the
    /// body of `EXPLAIN VERIFY`.
    pub fn render(&self, dmem_bytes: usize, tile_rows: usize) -> String {
        let mut s = format!("VERIFY (dmem {dmem_bytes} B, tile {tile_rows} rows)\n");
        s.push_str(
            "id   node  stage                    tile    ws-bytes  state  B/row  buf  fanout      desc\n",
        );
        for r in &self.stages {
            let tile = r
                .effective_tile
                .map_or("halt".to_string(), |t| t.to_string());
            let fan = if r.fanouts.is_empty() {
                "-".to_string()
            } else {
                format!(
                    "{}({}b)",
                    r.fanouts
                        .iter()
                        .map(|f| f.to_string())
                        .collect::<Vec<_>>()
                        .join("x"),
                    r.hash_bits
                )
            };
            s.push_str(&format!(
                "{:<5}{:>4}  {:<24} {:>5} {:>10}  {:>5}  {:>5}  {}  {:<10} {:>5}",
                format!("s{}", r.entry_id),
                r.node_id,
                r.stage,
                tile,
                r.working_set_bytes,
                r.state_bytes,
                r.stream_bytes_per_row,
                if r.double_buffered { "2x" } else { "1x" },
                fan,
                r.descriptors,
            ));
            match r.ranged {
                Some(RangeRead::ValueBits) => s.push_str("  by value bits"),
                Some(read) => {
                    let side = match read {
                        RangeRead::Build => "build",
                        RangeRead::Probe => "probe",
                        _ => "both",
                    };
                    s.push_str(&format!("  reads {side} by range"));
                }
                None => {}
            }
            if let Some((written, of)) = r.join_columns {
                s.push_str(&format!("  join cols {written}/{of}"));
            }
            if let Some((moved, of)) = r.scan_columns {
                s.push_str(&format!("  cols {moved}/{of}"));
            }
            if !r.operators.is_empty() {
                s.push_str(&format!("  [{}]", r.operators));
            }
            s.push('\n');
        }
        if self.diagnostics.is_empty() {
            s.push_str("no findings\n");
        } else {
            for d in &self.diagnostics {
                let sev = match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                };
                s.push_str(&format!("{sev}: {d}\n"));
            }
        }
        let errs = self.errors().count();
        let warns = self.diagnostics.len() - errs;
        s.push_str(&format!(
            "{} ({errs} errors, {warns} warnings)\n",
            if errs == 0 { "PASS" } else { "FAIL" }
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let ids: std::collections::HashSet<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), Rule::ALL.len());
        for r in &Rule::ALL {
            let id = r.id();
            assert!(
                id.starts_with("S-")
                    || id.starts_with("R-")
                    || id.starts_with("A-")
                    || id.starts_with("C-")
            );
        }
    }

    #[test]
    fn diagnostic_display_carries_rule_node_and_path() {
        let d = Diagnostic::new(
            Rule::DmemFit,
            3,
            "GroupBy/Scan(lineitem)",
            "working set 40000 B exceeds 32768 B".into(),
        );
        let s = d.to_string();
        assert!(s.contains("[R-DMEM-FIT]"));
        assert!(s.contains("node 3"));
        assert!(s.contains("GroupBy/Scan(lineitem)"));
    }

    #[test]
    fn report_ok_ignores_warnings() {
        let mut r = VerifyReport::default();
        r.diagnostics.push(Diagnostic::new(
            Rule::SchemeCores,
            0,
            "HashJoin",
            "2 < 32".into(),
        ));
        assert!(r.ok());
        r.diagnostics.push(Diagnostic::new(
            Rule::HashBits,
            0,
            "HashJoin",
            "30 > 28".into(),
        ));
        assert!(!r.ok());
        assert_eq!(r.errors().count(), 1);
        let text = r.render(32768, 256);
        assert!(text.contains("FAIL (1 errors, 1 warnings)"));
    }
}
