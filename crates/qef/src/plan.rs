//! The physical query execution plan (QEP).
//!
//! A QEP is a DAG of physical operators produced by the RAPID compiler
//! (`rapid-qcomp`), serialized into the host database's placeholder node
//! (§3.1) and shipped to RAPID nodes for execution — which is why every
//! node here derives `serde`. Column references are positional against the
//! child's output; literals are pre-encoded into the widened physical
//! domain (DSB mantissas, dictionary codes, epoch days) by the compiler.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

use rapid_storage::table::Table;
use rapid_storage::types::DataType;

use crate::error::{QefError, QefResult};
use crate::expr::{Expr, Pred};
use crate::primitives::agg::AggFunc;

/// The catalog RAPID nodes resolve table names against.
pub type Catalog = HashMap<String, Arc<Table>>;

/// Join variants supported (§6.5). The *probe* side is the left/outer
/// input; `Inner`/`LeftOuter` pair probe columns with build columns,
/// `LeftSemi`/`LeftAnti` keep probe columns only — of which a join writes
/// those its `output` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinType {
    /// Matching pairs.
    Inner,
    /// Probe rows with ≥1 match (EXISTS).
    LeftSemi,
    /// Probe rows with no match (NOT EXISTS).
    LeftAnti,
    /// All probe rows; build columns NULL when unmatched.
    LeftOuter,
}

impl JoinType {
    /// Whether a row of the join pairs a probe row with a build row's
    /// columns (inner, outer), rather than keeping a probe row (semi, anti).
    pub fn pairs(self) -> bool {
        matches!(self, JoinType::Inner | JoinType::LeftOuter)
    }
}

/// Which inputs of a partitioned join are read by key range
/// ([`crate::ops::ranges`]): those that scan a table stored in the order of
/// the join's one key. An input that is not runs a partition pass routed by
/// the key's value bits, so that partition `r` holds the keys of range `r`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ByRange {
    /// Neither: the join is broadcast or hash-partitioned.
    #[default]
    Neither,
    /// Both inputs: no partition pass at all.
    Both,
    /// The build side; the probe side is partitioned by value bits.
    Build,
    /// The probe side; the build side is partitioned by value bits.
    Probe,
}

impl ByRange {
    /// Whether input `edge` (0 build, 1 probe) is read by range.
    pub fn reads(self, edge: usize) -> bool {
        match self {
            ByRange::Neither => false,
            ByRange::Both => true,
            ByRange::Build => edge == 0,
            ByRange::Probe => edge == 1,
        }
    }

    /// Whether any input is read by range.
    pub fn any(self) -> bool {
        self != ByRange::Neither
    }

    /// The join that reads by range the inputs `edges` says: `[build,
    /// probe]`.
    pub fn of(edges: [bool; 2]) -> ByRange {
        match edges {
            [false, false] => ByRange::Neither,
            [true, true] => ByRange::Both,
            [true, false] => ByRange::Build,
            [false, true] => ByRange::Probe,
        }
    }
}

/// Group-by execution strategy (§5.4), chosen by the compiler from the
/// group count it can bound.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupStrategy {
    /// High-NDV path: partition by the keys so each core's hash table fits
    /// in DMEM. Carries the fan-out per round of that pass, chosen like a
    /// join's `scheme`.
    Partitioned(Vec<usize>),
    /// The high-NDV path over an input stored in the order of its one key:
    /// as many partitions as the scheme makes, cut as key ranges of the
    /// table instead of hashed, each aggregated and emitted by one lane of
    /// the input's task, with no pass and no merge
    /// ([`PlanNode::ranged_scheme`]).
    Ranged(Vec<usize>),
    /// Low-NDV path: every core aggregates its stream on the fly; a merge
    /// operator combines the per-core tables.
    OnTheFly {
        /// Where every key is a dictionary code or a narrow integer whose
        /// values the compiler knows the range of, one range per key: the
        /// table then finds each group by its slot, the key values shifted
        /// to their fields and ORed ([`crate::ops::groupby::slot_count`]),
        /// instead of hashing them. `None` hashes.
        slots: Option<Vec<KeyRange>>,
    },
}

/// The values a group key takes, `lo..=hi`, as its dictionary or its
/// column's statistics bound them (NULL aside, which every key may be).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyRange {
    /// Least value.
    pub lo: i64,
    /// Greatest value.
    pub hi: i64,
}

/// A sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortKey {
    /// Column position in the input.
    pub col: usize,
    /// Descending order?
    pub desc: bool,
}

/// A named, typed output expression for `Map` nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedExpr {
    /// The expression over the input's columns.
    pub expr: Expr,
    /// Output column name.
    pub name: String,
    /// Logical output type.
    pub dtype: DataType,
    /// DSB scale of the output (decimals).
    pub scale: u8,
    /// Dictionary provenance, set by the compiler when the expression
    /// passes a Varchar column through unchanged.
    #[serde(default)]
    pub dict: Option<(String, usize)>,
}

/// An aggregate specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggSpec {
    /// Function.
    pub func: AggFunc,
    /// Input column position.
    pub col: usize,
}

/// Set operation kinds (§5.4 "set operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SetOpKind {
    /// Distinct union.
    Union,
    /// Distinct intersection.
    Intersect,
    /// Distinct difference (MINUS).
    Minus,
}

/// Window functions supported (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowFunc {
    /// 1-based rank with gaps over the order within the partition.
    Rank,
    /// 1-based dense row number within the partition.
    RowNumber,
    /// Running SUM of a column within the partition, in order.
    RunningSum {
        /// Summed column.
        col: usize,
    },
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanNode {
    /// Leaf: scan a loaded base table, projecting `columns`; `pred`
    /// references the **table schema's** column indices (not projected
    /// positions) and is fused into the scan task with predicate
    /// reordering and late materialization.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Projected column indices (into the table schema).
        columns: Vec<usize>,
        /// Fused filter over table column indices.
        pred: Option<Pred>,
    },
    /// Filter by a predicate over the child's output.
    Filter {
        /// Input plan.
        input: Box<PlanNode>,
        /// Predicate.
        pred: Pred,
    },
    /// Compute expressions; output = exactly `exprs` (use `Expr::Col` to
    /// pass columns through).
    Map {
        /// Input plan.
        input: Box<PlanNode>,
        /// Output expressions.
        exprs: Vec<NamedExpr>,
    },
    /// Hash join (§6): partitioned, or broadcast where the build side's
    /// table fits a dpCore's DMEM. Its rows pair probe columns with build
    /// columns (inner/outer) or keep probe columns (semi/anti); of those it
    /// writes the columns of `output`, in that order, and nothing else.
    HashJoin {
        /// Build (smaller) input.
        build: Box<PlanNode>,
        /// Probe (larger) input.
        probe: Box<PlanNode>,
        /// Key positions in the build output.
        build_keys: Vec<usize>,
        /// Key positions in the probe output.
        probe_keys: Vec<usize>,
        /// Join variant.
        join_type: JoinType,
        /// Partition fan-out per round of both sides' passes, chosen by the
        /// compiler's `partition_opt::partition_scheme`. The engine runs it as
        /// declared. No rounds is a broadcast join: every lane reads the
        /// whole build side, builds its table in the state the probe stage
        /// declares and probes its own rows against it
        /// ([`crate::ops::join::Broadcast`]).
        scheme: Vec<usize>,
        /// The join filter's size in bits, a power of two: a bit array over
        /// the build side's key hashes that round one of the probe side's
        /// pass tests every row against, so a row no build row can match is
        /// never partitioned ([`crate::ops::join_filter`]). Only a
        /// partitioned `Inner` or `LeftSemi` join has one; `None` tests
        /// nothing.
        #[serde(default)]
        filter: Option<usize>,
        /// Which inputs are read by key range: the scheme's partitions are
        /// key ranges of the tables those inputs scan, which are stored in
        /// the order of the one key. Each range's build rows, table and
        /// probe run in one lane of one stage, with no `join.filter` or
        /// `join.pairs` stage; an input not read by range runs one
        /// partition pass that routes each row by its key's value bits into
        /// the range that holds it ([`crate::ops::ranges::Radix`]), and the
        /// lane reads its range's partition. The join filter, where it
        /// declares one, is of `filter` bits a lane, beside the lane's table
        /// ([`PlanNode::ranged_scheme`]).
        #[serde(default)]
        ranged: ByRange,
        /// The columns the join writes, in the order its consumer reads
        /// them: positions in the probe columns followed by the build
        /// columns (inner/outer), or in the probe columns (semi/anti). The
        /// compiler lists what the operators above read and nothing more, so
        /// a key no one reads again — and the other side's equal copy of it
        /// — is neither written nor moved by a partition round above.
        /// Every stage that assembles a join's rows (`join.pairs`,
        /// `join.probe`, `join.ranged`) writes exactly these
        /// ([`join_columns`]).
        output: Vec<usize>,
    },
    /// Group-by + aggregation. Output: keys ++ aggregates.
    GroupBy {
        /// Input plan.
        input: Box<PlanNode>,
        /// Grouping key positions.
        keys: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
        /// Strategy selection.
        strategy: GroupStrategy,
    },
    /// Top-K by sort keys.
    TopK {
        /// Input plan.
        input: Box<PlanNode>,
        /// Ordering.
        order: Vec<SortKey>,
        /// Result size.
        k: usize,
    },
    /// Full sort.
    Sort {
        /// Input plan.
        input: Box<PlanNode>,
        /// Ordering.
        order: Vec<SortKey>,
    },
    /// First `n` rows (in current order).
    Limit {
        /// Input plan.
        input: Box<PlanNode>,
        /// Row cap.
        n: usize,
    },
    /// Distinct set operation over two inputs with identical layouts.
    SetOp {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Operation.
        op: SetOpKind,
    },
    /// Window function; appends one column to the input.
    Window {
        /// Input plan.
        input: Box<PlanNode>,
        /// PARTITION BY key positions.
        partition_by: Vec<usize>,
        /// ORDER BY within the partition.
        order_by: Vec<SortKey>,
        /// The function.
        func: WindowFunc,
    },
}

/// Bytes per value of what an operator computes: `Expr::eval`,
/// `GroupTable::emit` and `window_batch` write i64s.
const COMPUTED_WIDTH: usize = std::mem::size_of::<i64>();

/// [`PlanNode::output_widths`] of a Map of `exprs` over columns of `below`:
/// a bare column is handed on as wide as it came, an expression it computes
/// is written as 8-byte values.
pub fn map_widths(exprs: &[NamedExpr], below: &[usize]) -> QefResult<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e.expr {
            Expr::Col(c) => below.get(c).copied().ok_or(QefError::BadColumn {
                index: c,
                available: below.len(),
            }),
            _ => Ok(COMPUTED_WIDTH),
        })
        .collect()
}

/// The columns `output` lists of a join's paired columns `paired` — probe
/// columns followed, for an inner or outer join, by build columns — in
/// `output`'s order: the one reading of [`PlanNode::HashJoin`]'s `output`
/// that its metadata, its widths and the rows the engine writes all take.
pub fn join_columns<'a, T>(
    output: &'a [usize],
    paired: &'a [T],
) -> QefResult<impl Iterator<Item = &'a T> + 'a> {
    match output.iter().find(|&&c| c >= paired.len()) {
        Some(&c) => Err(QefError::BadColumn {
            index: c,
            available: paired.len(),
        }),
        None => Ok(output.iter().map(|&c| &paired[c])),
    }
}

/// Decode metadata of one output column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColMeta {
    /// Column name.
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
    /// DSB scale (decimals).
    pub scale: u8,
    /// Dictionary provenance `(table, column)` for Varchar columns.
    pub dict: Option<(String, usize)>,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl PlanNode {
    /// Compute the output column metadata of this plan against a catalog.
    pub fn output_meta(&self, catalog: &Catalog) -> QefResult<Vec<ColMeta>> {
        self.output_meta_from(catalog, |edge| {
            self.inputs()
                .nth(edge)
                .map_or_else(|| Ok(Vec::new()), |input| input.output_meta(catalog))
        })
    }

    /// This node's output metadata from its inputs': `input(edge)` is the
    /// metadata of input `edge` in [`inputs`](Self::inputs) order, asked for
    /// where the output is derived from it (not a semi join's build side, not
    /// a set operation's right) and of a Map's input, which its output
    /// replaces, to validate it. The one place column names, aggregate types,
    /// outer-join nullability and dictionary provenance are derived:
    /// [`output_meta`](Self::output_meta) recurses through it, and the
    /// verifier calls it with the metadata its walk already holds.
    pub fn output_meta_from(
        &self,
        catalog: &Catalog,
        mut input: impl FnMut(usize) -> QefResult<Vec<ColMeta>>,
    ) -> QefResult<Vec<ColMeta>> {
        match self {
            PlanNode::Scan { table, columns, .. } => {
                let t = catalog
                    .get(table)
                    .ok_or_else(|| QefError::TableNotLoaded(table.clone()))?;
                columns
                    .iter()
                    .map(|&c| {
                        let f = t.schema.fields.get(c).ok_or(QefError::BadColumn {
                            index: c,
                            available: t.schema.len(),
                        })?;
                        Ok(ColMeta {
                            name: f.name.clone(),
                            dtype: f.dtype,
                            scale: t.scales[c],
                            dict: matches!(f.dtype, DataType::Varchar).then(|| (table.clone(), c)),
                            nullable: f.nullable,
                        })
                    })
                    .collect()
            }
            PlanNode::Filter { .. }
            | PlanNode::TopK { .. }
            | PlanNode::Sort { .. }
            | PlanNode::Limit { .. }
            | PlanNode::SetOp { .. } => input(0),
            PlanNode::Map { exprs, .. } => {
                input(0)?;
                Ok(exprs
                    .iter()
                    .map(|e| ColMeta {
                        name: e.name.clone(),
                        dtype: e.dtype,
                        scale: e.scale,
                        dict: e.dict.clone(),
                        nullable: true,
                    })
                    .collect())
            }
            PlanNode::HashJoin {
                join_type, output, ..
            } => {
                let mut paired = input(1)?;
                match join_type {
                    JoinType::LeftSemi | JoinType::LeftAnti => {}
                    JoinType::Inner => paired.extend(input(0)?),
                    JoinType::LeftOuter => paired.extend(input(0)?.into_iter().map(|mut m| {
                        m.nullable = true;
                        m
                    })),
                }
                join_columns(output, &paired).map(|c| c.cloned().collect())
            }
            PlanNode::GroupBy { keys, aggs, .. } => {
                let im = input(0)?;
                let mut out = Vec::with_capacity(keys.len() + aggs.len());
                for &k in keys {
                    out.push(im.get(k).cloned().ok_or(QefError::BadColumn {
                        index: k,
                        available: im.len(),
                    })?);
                }
                for a in aggs {
                    let src = im.get(a.col).ok_or(QefError::BadColumn {
                        index: a.col,
                        available: im.len(),
                    })?;
                    let (name, dtype, scale) = match a.func {
                        AggFunc::Count => (format!("count_{}", src.name), DataType::Int, 0),
                        AggFunc::Sum => (format!("sum_{}", src.name), src.dtype, src.scale),
                        AggFunc::Avg => (format!("avg_{}", src.name), src.dtype, src.scale),
                        AggFunc::Min => (format!("min_{}", src.name), src.dtype, src.scale),
                        AggFunc::Max => (format!("max_{}", src.name), src.dtype, src.scale),
                    };
                    // Aggregates of dictionary columns keep provenance
                    // (MIN/MAX of a Varchar is still a code).
                    let dict = match a.func {
                        AggFunc::Min | AggFunc::Max => src.dict.clone(),
                        _ => None,
                    };
                    out.push(ColMeta {
                        name,
                        dtype,
                        scale,
                        dict,
                        nullable: true,
                    });
                }
                Ok(out)
            }
            PlanNode::Window { func, .. } => {
                let mut out = input(0)?;
                let (name, dtype, scale) = match func {
                    WindowFunc::Rank => ("rank".to_string(), DataType::Int, 0),
                    WindowFunc::RowNumber => ("row_number".to_string(), DataType::Int, 0),
                    WindowFunc::RunningSum { col } => {
                        let src = out.get(*col).ok_or(QefError::BadColumn {
                            index: *col,
                            available: out.len(),
                        })?;
                        (format!("running_sum_{}", src.name), src.dtype, src.scale)
                    }
                };
                out.push(ColMeta {
                    name,
                    dtype,
                    scale,
                    dict: None,
                    nullable: false,
                });
                Ok(out)
            }
        }
    }

    /// Bytes per value of every output column **as a vector**: what a row
    /// of this node's output costs a DMEM buffer and the DMS, as opposed to
    /// the 8 bytes an Int or Decimal is declared at. A scan hands on the
    /// width its table stores ([`Table::column_width`]); operators that
    /// select, reorder or pair rows (Filter, Sort, TopK, Limit, a Map's bare
    /// [`Expr::Col`], both sides of a join) copy values at the width they
    /// came in; what an operator computes — a Map expression, every
    /// GroupBy output, Window's appended column — it writes as 8-byte
    /// values. A SetOp keeps rows of either input, so a column is as wide
    /// as the wider of the two.
    ///
    /// Compiler, engine and verifier size every buffer of a partition pass
    /// from this one answer, and the batches that reach a pass have exactly
    /// these widths (the engine asserts it in debug builds).
    pub fn output_widths(&self, catalog: &Catalog) -> QefResult<Vec<usize>> {
        let computed = COMPUTED_WIDTH;
        match self {
            PlanNode::Scan { table, columns, .. } => {
                let t = catalog
                    .get(table)
                    .ok_or_else(|| QefError::TableNotLoaded(table.clone()))?;
                columns
                    .iter()
                    .map(|&c| {
                        if c < t.schema.len() {
                            Ok(t.column_width(c))
                        } else {
                            Err(QefError::BadColumn {
                                index: c,
                                available: t.schema.len(),
                            })
                        }
                    })
                    .collect()
            }
            PlanNode::Filter { input, .. }
            | PlanNode::TopK { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. } => input.output_widths(catalog),
            PlanNode::Map { input, exprs } => map_widths(exprs, &input.output_widths(catalog)?),
            PlanNode::HashJoin {
                build,
                probe,
                join_type,
                output,
                ..
            } => {
                let mut paired = probe.output_widths(catalog)?;
                if join_type.pairs() {
                    paired.extend(build.output_widths(catalog)?);
                }
                join_columns(output, &paired).map(|c| c.copied().collect())
            }
            PlanNode::GroupBy { keys, aggs, .. } => Ok(vec![computed; keys.len() + aggs.len()]),
            PlanNode::SetOp { left, right, .. } => {
                let (l, r) = (left.output_widths(catalog)?, right.output_widths(catalog)?);
                Ok(l.iter().zip(&r).map(|(&l, &r)| l.max(r)).collect())
            }
            PlanNode::Window { input, .. } => {
                let mut out = input.output_widths(catalog)?;
                out.push(computed);
                Ok(out)
            }
        }
    }

    /// The node's child plans in the order the engine runs them (build
    /// before probe, left before right) — a pre-order walk through this
    /// numbers nodes the way the tracer does.
    pub fn inputs(&self) -> impl Iterator<Item = &PlanNode> {
        let (first, second) = match self {
            PlanNode::Scan { .. } => (None, None),
            PlanNode::Filter { input, .. }
            | PlanNode::Map { input, .. }
            | PlanNode::GroupBy { input, .. }
            | PlanNode::TopK { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Window { input, .. } => (Some(&**input), None),
            PlanNode::HashJoin { build, probe, .. } => (Some(&**build), Some(&**probe)),
            PlanNode::SetOp { left, right, .. } => (Some(&**left), Some(&**right)),
        };
        first.into_iter().chain(second)
    }

    /// [`inputs`](Self::inputs), to rewrite them in place.
    pub fn inputs_mut(&mut self) -> impl Iterator<Item = &mut PlanNode> {
        let (first, second) = match self {
            PlanNode::Scan { .. } => (None, None),
            PlanNode::Filter { input, .. }
            | PlanNode::Map { input, .. }
            | PlanNode::GroupBy { input, .. }
            | PlanNode::TopK { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Window { input, .. } => (Some(&mut **input), None),
            PlanNode::HashJoin { build, probe, .. } => (Some(&mut **build), Some(&mut **probe)),
            PlanNode::SetOp { left, right, .. } => (Some(&mut **left), Some(&mut **right)),
        };
        first.into_iter().chain(second)
    }

    /// Tables referenced by the plan (for offload admissibility checks).
    pub fn referenced_tables(&self, out: &mut Vec<String>) {
        if let PlanNode::Scan { table, .. } = self {
            out.push(table.clone());
        }
        self.inputs().for_each(|child| child.referenced_tables(out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::Value;

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("price", DataType::Decimal { scale: 2 }),
            Field::new("flag", DataType::Varchar),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..129 {
            b.push_row(vec![
                Value::Int(1),
                Value::Decimal {
                    unscaled: 100_000_001,
                    scale: 2,
                },
                Value::Str(format!("x{i:03}")),
            ]);
        }
        let mut c = Catalog::new();
        c.insert("t".into(), Arc::new(b.finish()));
        c
    }

    #[test]
    fn scan_meta_reflects_schema() {
        let plan = PlanNode::Scan {
            table: "t".into(),
            columns: vec![2, 1],
            pred: None,
        };
        let meta = plan.output_meta(&catalog()).unwrap();
        assert_eq!(meta[0].name, "flag");
        assert_eq!(meta[0].dict, Some(("t".into(), 2)));
        assert_eq!(meta[1].scale, 2);
    }

    #[test]
    fn groupby_meta_types() {
        let plan = PlanNode::GroupBy {
            input: Box::new(PlanNode::Scan {
                table: "t".into(),
                columns: vec![2, 1],
                pred: None,
            }),
            keys: vec![0],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    col: 1,
                },
                AggSpec {
                    func: AggFunc::Count,
                    col: 0,
                },
            ],
            strategy: GroupStrategy::OnTheFly { slots: None },
        };
        let meta = plan.output_meta(&catalog()).unwrap();
        assert_eq!(meta.len(), 3);
        assert_eq!(meta[1].name, "sum_price");
        assert_eq!(meta[1].scale, 2);
        assert_eq!(meta[2].dtype, DataType::Int);
    }

    #[test]
    fn join_meta_concatenates_or_keeps_probe() {
        let scan = PlanNode::Scan {
            table: "t".into(),
            columns: vec![0],
            pred: None,
        };
        let inner = PlanNode::HashJoin {
            build: Box::new(scan.clone()),
            probe: Box::new(scan.clone()),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::Inner,
            scheme: vec![],
            filter: None,
            ranged: ByRange::Neither,
            output: vec![0, 1],
        };
        assert_eq!(inner.output_meta(&catalog()).unwrap().len(), 2);
        let semi = PlanNode::HashJoin {
            build: Box::new(scan.clone()),
            probe: Box::new(scan.clone()),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::LeftSemi,
            scheme: vec![],
            filter: None,
            ranged: ByRange::Neither,
            output: vec![0],
        };
        assert_eq!(semi.output_meta(&catalog()).unwrap().len(), 1);
        let outer = PlanNode::HashJoin {
            build: Box::new(scan.clone()),
            probe: Box::new(scan),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::LeftOuter,
            scheme: vec![],
            filter: None,
            ranged: ByRange::Neither,
            output: vec![0, 1],
        };
        let meta = outer.output_meta(&catalog()).unwrap();
        assert!(meta[1].nullable);
    }

    #[test]
    fn missing_table_is_an_error() {
        let plan = PlanNode::Scan {
            table: "ghost".into(),
            columns: vec![0],
            pred: None,
        };
        assert!(matches!(
            plan.output_meta(&catalog()),
            Err(QefError::TableNotLoaded(t)) if t == "ghost"
        ));
    }

    /// `t` stores k in 1 byte, price in 4 and flag's code in 2 (129
    /// strings: codes 0..=128).
    fn scan_of(columns: &[usize]) -> PlanNode {
        PlanNode::Scan {
            table: "t".into(),
            columns: columns.to_vec(),
            pred: None,
        }
    }

    fn widths(plan: &PlanNode) -> Vec<usize> {
        plan.output_widths(&catalog()).unwrap()
    }

    #[test]
    fn scan_widths_are_the_stored_ones_in_projection_order() {
        assert_eq!(widths(&scan_of(&[0, 1, 2])), [1, 4, 2]);
        assert_eq!(widths(&scan_of(&[2, 0])), [2, 1]);
        let declared: Vec<usize> = scan_of(&[0, 1, 2])
            .output_meta(&catalog())
            .unwrap()
            .iter()
            .map(|m| m.dtype.physical_width())
            .collect();
        assert_eq!(declared, [8, 8, 4], "what no vector of `t` is as wide as");
        assert!(matches!(
            scan_of(&[3]).output_widths(&catalog()),
            Err(QefError::BadColumn {
                index: 3,
                available: 3
            })
        ));
        assert!(matches!(
            PlanNode::Scan {
                table: "ghost".into(),
                columns: vec![0],
                pred: None
            }
            .output_widths(&catalog()),
            Err(QefError::TableNotLoaded(_))
        ));
    }

    #[test]
    fn row_selecting_nodes_pass_widths_through() {
        let input = Box::new(scan_of(&[1, 0]));
        let order = vec![SortKey {
            col: 0,
            desc: false,
        }];
        for plan in [
            PlanNode::Filter {
                input: input.clone(),
                pred: Pred::Const(true),
            },
            PlanNode::Sort {
                input: input.clone(),
                order: order.clone(),
            },
            PlanNode::TopK {
                input: input.clone(),
                order,
                k: 3,
            },
            PlanNode::Limit {
                input: input.clone(),
                n: 3,
            },
        ] {
            assert_eq!(widths(&plan), [4, 1], "{plan:?}");
        }
    }

    #[test]
    fn map_passes_bare_columns_and_computes_at_eight() {
        let named = |expr: Expr| NamedExpr {
            expr,
            name: "e".into(),
            dtype: DataType::Int,
            scale: 0,
            dict: None,
        };
        let map = |exprs: Vec<Expr>| PlanNode::Map {
            input: Box::new(scan_of(&[0, 1, 2])),
            exprs: exprs.into_iter().map(named).collect(),
        };
        let plan = map(vec![
            Expr::Col(2),
            Expr::mul(Expr::Col(0), Expr::Lit(3)),
            Expr::Col(0),
            Expr::Lit(7),
            Expr::Col(0),
        ]);
        assert_eq!(widths(&plan), [2, 8, 1, 8, 1]);
        assert!(matches!(
            map(vec![Expr::Col(5)]).output_widths(&catalog()),
            Err(QefError::BadColumn {
                index: 5,
                available: 3
            })
        ));
    }

    #[test]
    fn join_widths_follow_its_output_layout() {
        let join = |join_type, output: &[usize]| PlanNode::HashJoin {
            build: Box::new(scan_of(&[0, 2])),
            probe: Box::new(scan_of(&[0, 1])),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type,
            scheme: vec![],
            filter: None,
            ranged: ByRange::Neither,
            output: output.to_vec(),
        };
        let every = [0, 1, 2, 3];
        assert_eq!(widths(&join(JoinType::Inner, &every)), [1, 4, 1, 2]);
        assert_eq!(widths(&join(JoinType::LeftOuter, &every)), [1, 4, 1, 2]);
        assert_eq!(widths(&join(JoinType::LeftSemi, &[0, 1])), [1, 4]);
        assert_eq!(widths(&join(JoinType::LeftAnti, &[0, 1])), [1, 4]);
        // The columns it writes, in its order: the build side's code, then
        // the probe side's price; both copies of the key are dead.
        let pruned = join(JoinType::Inner, &[3, 1]);
        assert_eq!(widths(&pruned), [2, 4]);
        let names: Vec<String> = pruned
            .output_meta(&catalog())
            .unwrap()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, ["flag", "price"]);
        for (join_type, output) in [(JoinType::Inner, [4]), (JoinType::LeftSemi, [2])] {
            assert!(matches!(
                join(join_type, &output).output_widths(&catalog()),
                Err(QefError::BadColumn { index, .. }) if index == output[0]
            ));
        }
    }

    #[test]
    fn groupby_and_window_write_eight_byte_values() {
        let group = PlanNode::GroupBy {
            input: Box::new(scan_of(&[2, 1])),
            keys: vec![0],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Min,
                    col: 0,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: 1,
                },
            ],
            strategy: GroupStrategy::OnTheFly { slots: None },
        };
        assert_eq!(widths(&group), [8, 8, 8], "keys are re-emitted widened");
        let window = PlanNode::Window {
            input: Box::new(scan_of(&[0, 1])),
            partition_by: vec![0],
            order_by: vec![],
            func: WindowFunc::RowNumber,
        };
        assert_eq!(widths(&window), [1, 4, 8]);
    }

    #[test]
    fn setop_columns_are_as_wide_as_the_wider_input() {
        let setop = |op| PlanNode::SetOp {
            left: Box::new(scan_of(&[0, 2])),
            right: Box::new(scan_of(&[1, 2])),
            op,
        };
        for op in [SetOpKind::Union, SetOpKind::Intersect, SetOpKind::Minus] {
            assert_eq!(widths(&setop(op)), [4, 2]);
        }
    }

    #[test]
    fn referenced_tables_walks_dag() {
        let scan = |t: &str| PlanNode::Scan {
            table: t.into(),
            columns: vec![0],
            pred: None,
        };
        let plan = PlanNode::HashJoin {
            build: Box::new(scan("a")),
            probe: Box::new(PlanNode::Filter {
                input: Box::new(scan("b")),
                pred: Pred::Const(true),
            }),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::Inner,
            scheme: vec![],
            filter: None,
            ranged: ByRange::Neither,
            output: vec![0, 1],
        };
        let mut tables = Vec::new();
        plan.referenced_tables(&mut tables);
        assert_eq!(tables, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn plan_serde_roundtrip() {
        let plan = PlanNode::TopK {
            input: Box::new(PlanNode::Scan {
                table: "t".into(),
                columns: vec![0, 1],
                pred: None,
            }),
            order: vec![SortKey { col: 1, desc: true }],
            k: 10,
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: PlanNode = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
