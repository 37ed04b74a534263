//! The RAPID cost model (§5.2).
//!
//! "Running on bare-metal without an operating system, RAPID has all the
//! resources under complete control. Hence, the cost model is quite
//! deterministic and accurate. The cost functions take data properties,
//! statistics and various parameters of the physical operators such as
//! vector size, encoding type as input. The total cost of a RAPID operator
//! is analytically modeled on top of data transfer (I/O) and compute cost
//! functions considering the potential overlap."
//!
//! The model here prices each operator with the simulator's per-row kernel
//! costs and DMS transfer rules applied to estimated cardinalities — a scan
//! over the chunks its predicate's zone maps leave it, as the engine reads
//! them (`rapid_qef::ops::filter::ChunkList`), a join
//! the way its scheme runs it: partitioned, both sides through the DMS;
//! ranged, each lane building and probing a key range's rows where its scans
//! left them, and a ranged group-by with no partition pass either; or, with
//! no rounds, broadcast, every lane reading the build side and building the
//! whole table. A join filter is priced as it runs: the share of probe
//! rows it keeps, the rows it drops no longer written (at their stored
//! widths), mapped, gathered or probed, its test a row, and its build — on
//! a partitioned join a `join.filter` stage that reads and hashes the build
//! keys, and every probe lane's read of what it wrote; on a broadcast join a
//! bit set a build row in every lane, beside the table it builds from the
//! same hashes, and nothing read. [`filter_pays`] is the compiler's one rule
//! for declaring one, on a partitioned join or a broadcast one. It is *not*
//! the engine's charging rule: it prices declared column widths rather than
//! stored ones, sums operators one by one rather than per task, and does
//! not model scan access paths or the key pass in which a gathering scan
//! tests a join filter. Measured at sf 0.02
//! on 32 cores, its estimate is 1.22–6.33× the simulated cycles of the
//! eleven TPC-H statements (Q4 1.22, Q9 2.51, Q12 2.77, Q1 2.89, Q18 3.93,
//! Q10 4.30, Q5 5.10, Q3 5.21, Q6 5.58, Q19 5.72, Q14 6.33; geomean 3.78;
//! at sf 0.05 0.97–6.89×, geomean 3.76), every one but Q4 at sf 0.05
//! over-estimated (ROADMAP item 7): it charges a group lookup and an
//! accumulator loop per aggregate where the engine indexes code keys by slot
//! and shares accumulators, computes every Map expression whole, and prices
//! a filtered probe side's scan at every row and column it would stream;
//! `tests/tpch_sql.rs` holds it within 7× either way. The host database
//! reuses it for offload decisions.
//!
//! The estimator prices a plan for the `ExecContext` the plan will run
//! under, the one [`CostParams`] holds: the same cost model, cores, DMEM and
//! tile the engine executes with and the verifier checks against, so the
//! estimated rows are the only input that differs from a run. What the
//! context does not describe — the result link to the host and the fixed
//! cost of an offload — are the constants [`NETWORK_BYTES_PER_SEC`] and
//! [`OFFLOAD_LATENCY_SECS`].

use dpu_sim::clock::SimTime;

use rapid_qef::budget::Deal;
use rapid_qef::exec::ExecContext;
use rapid_qef::ops::filter::ChunkList;
use rapid_qef::ops::join_filter;
use rapid_qef::plan::{Catalog, GroupStrategy, JoinType, PlanNode};
use rapid_qef::primitives::agg::AggFunc;
use rapid_qef::primitives::costs;
use rapid_qef::selectivity::{estimate_selectivity, estimate_selectivity_cols};
use rapid_storage::stats::ColumnStats;

/// Bytes/sec of the result-return link to the host (RDMA over IB, an FDR-
/// class single link).
pub const NETWORK_BYTES_PER_SEC: f64 = 3.0e9;

/// Fixed per-offload latency (round trip, scheduling) in seconds.
pub const OFFLOAD_LATENCY_SECS: f64 = 150.0e-6;

/// What the estimator and the compiler plan for: the context the plan will
/// run under, and whether to search join orders.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// The engine's execution context: the cost model every core charges,
    /// and the cores, DMEM and tile the plan is costed, partitioned and
    /// verified for. A clone of the engine's own shares its `Arc`s.
    pub ctx: ExecContext,
    /// Run the cost-based join-order search during compilation. Off keeps
    /// the declared (SQL-order) join tree — useful for A/B comparisons and
    /// as the differential baseline the reorderer is tested against.
    pub reorder_joins: bool,
}

impl Default for CostParams {
    /// The parameters of the full DPU, [`ExecContext::dpu`].
    fn default() -> Self {
        CostParams::from_exec(&ExecContext::dpu())
    }
}

impl CostParams {
    /// Plan for the context `ctx`, with the join-order search on.
    pub fn from_exec(ctx: &ExecContext) -> CostParams {
        CostParams {
            ctx: ctx.clone(),
            reorder_joins: true,
        }
    }
}

/// An estimated plan cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCost {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output bytes per row.
    pub row_bytes: f64,
    /// Estimated DPU execution seconds.
    pub exec_secs: f64,
}

impl PlanCost {
    /// Estimated bytes of the result.
    pub fn output_bytes(&self) -> f64 {
        self.rows * self.row_bytes
    }

    /// Total offload cost: execution + result transfer + fixed latency — the
    /// quantity the host optimizer compares against local execution (§3.1).
    pub fn offload_secs(&self) -> f64 {
        self.exec_secs + self.output_bytes() / NETWORK_BYTES_PER_SEC + OFFLOAD_LATENCY_SECS
    }
}

/// A node estimate: the cost plus *derived* per-output-column statistics,
/// so predicates and join keys above the leaves are still estimated from
/// data properties rather than fixed constants. `None` marks a computed or
/// otherwise unknown column.
#[derive(Debug, Clone, Default)]
pub struct NodeEst {
    /// The plan-cost triple for this node.
    pub cost: PlanCost,
    /// Statistics per output column, in output order.
    pub cols: Vec<Option<ColumnStats>>,
}

impl NodeEst {
    /// NDV of output column `i`, capped by the estimated row count (a
    /// column cannot have more distinct values than rows reaching it).
    pub fn col_ndv(&self, i: usize) -> Option<f64> {
        let s = self.cols.get(i)?.as_ref()?;
        if s.ndv == 0 {
            return None;
        }
        Some((s.ndv as f64).min(self.cost.rows.max(1.0)))
    }

    fn col_refs(&self) -> Vec<Option<&ColumnStats>> {
        self.cols.iter().map(|c| c.as_ref()).collect()
    }
}

/// Estimate the execution cost of a physical plan against a catalog.
pub fn estimate(plan: &PlanNode, catalog: &Catalog, p: &CostParams) -> PlanCost {
    estimate_node(plan, catalog, p).cost
}

/// Estimated join-output rows from NDV containment: `|L|·|R| / Π max(ndv)`
/// over the key pairs with at least one known NDV; `None` when every pair
/// is unknown (caller falls back to a heuristic).
fn containment_rows(b: &NodeEst, pr: &NodeEst, bk: &[usize], pk: &[usize]) -> Option<f64> {
    let mut divisors: Vec<f64> = Vec::new();
    for (&kb, &kp) in bk.iter().zip(pk.iter()) {
        let nb = b.col_ndv(kb);
        let np = pr.col_ndv(kp);
        let d = match (nb, np) {
            (Some(a), Some(c)) => a.max(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => continue,
        };
        divisors.push(d.max(1.0));
    }
    if divisors.is_empty() {
        return None;
    }
    let cross = b.cost.rows.max(1.0) * pr.cost.rows.max(1.0);
    Some((cross / composite_key_divisor(&mut divisors)).clamp(1.0, cross))
}

/// Combine per-key NDV divisors of a multi-key equi-join under
/// exponential backoff: the most selective key counts in full, the next
/// at the square root, then the fourth root, and so on. Composite keys
/// are rarely independent — `partsupp(ps_partkey, ps_suppkey)` is a
/// compound primary key, so multiplying both divisors undercounts the
/// join of `lineitem` with it by the full suppkey NDV — and backoff is
/// the standard damping between "independent" (too low) and "use only
/// the best key" (too high).
fn composite_key_divisor(divisors: &mut [f64]) -> f64 {
    divisors.sort_by(|x, y| y.total_cmp(x));
    let mut divisor = 1.0f64;
    let mut exp = 1.0f64;
    for &d in divisors.iter() {
        divisor *= d.powf(exp);
        exp *= 0.5;
    }
    divisor.max(1.0)
}

/// Fraction of probe rows with a build-side match, from key-NDV
/// containment: `min(1, ndv(build.k) / ndv(probe.k))` per key pair.
/// `None` when no pair has both NDVs known.
fn semi_match_fraction(b: &NodeEst, pr: &NodeEst, bk: &[usize], pk: &[usize]) -> Option<f64> {
    let mut fracs: Vec<f64> = Vec::new();
    for (&kb, &kp) in bk.iter().zip(pk.iter()) {
        if let (Some(nb), Some(np)) = (b.col_ndv(kb), pr.col_ndv(kp)) {
            fracs.push((nb / np.max(1.0)).min(1.0));
        }
    }
    if fracs.is_empty() {
        return None;
    }
    // Same composite-key backoff as `containment_rows`: most selective
    // key in full, the rest at geometrically decaying exponents.
    fracs.sort_by(|x, y| x.total_cmp(y));
    let mut frac = 1.0f64;
    let mut exp = 1.0f64;
    for &f in &fracs {
        frac *= f.powf(exp);
        exp *= 0.5;
    }
    Some(frac)
}

/// Full estimator: cost plus derived column statistics per node.
pub fn estimate_node(plan: &PlanNode, catalog: &Catalog, p: &CostParams) -> NodeEst {
    let (cm, cores) = (&*p.ctx.cost_model, p.ctx.cores as f64);
    match plan {
        PlanNode::Scan {
            table,
            columns,
            pred,
        } => {
            let Some(t) = catalog.get(table) else {
                return NodeEst::default();
            };
            let rows = t.rows() as f64;
            // What the scan reads: the chunks its predicate's zone maps
            // cannot rule out, as the engine decides it.
            let read = ChunkList::of(pred.as_ref(), &t.chunks).rows() as f64;
            let bytes: f64 = columns
                .iter()
                .map(|&c| t.schema.fields[c].dtype.physical_width() as f64)
                .sum();
            let sel = pred
                .as_ref()
                .map(|pr| estimate_selectivity(pr, &t.stats))
                .unwrap_or(1.0);
            // Transfer: stream the filter column(s) + gather survivors;
            // compute: ~1.5 cy/row filter. Overlap: max of the two.
            let wire = read * bytes / cm.dms_bytes_per_cycle();
            let compute_per_core = read * cm.kernel_cycles(&costs::filter_per_row()) / cores;
            let cycles = wire.max(compute_per_core);
            NodeEst {
                cost: PlanCost {
                    rows: (rows * sel).max(0.0),
                    row_bytes: bytes,
                    exec_secs: SimTime::from_secs(cycles / cm.freq_hz).as_secs(),
                },
                cols: columns
                    .iter()
                    .map(|&c| t.stats.column(c).cloned())
                    .collect(),
            }
        }
        PlanNode::Filter { input, pred } => {
            let c = estimate_node(input, catalog, p);
            let cycles = c.cost.rows * cm.kernel_cycles(&costs::filter_per_row()) / cores;
            // Same estimator as the Scan path, fed the derived stats of
            // whatever feeds this Filter (fixes the flat 0.5).
            let sel = estimate_selectivity_cols(pred, &c.col_refs());
            NodeEst {
                cost: PlanCost {
                    rows: (c.cost.rows * sel).max(0.0),
                    row_bytes: c.cost.row_bytes,
                    exec_secs: c.cost.exec_secs + cycles / cm.freq_hz,
                },
                cols: c.cols,
            }
        }
        PlanNode::Map { input, exprs } => {
            let c = estimate_node(input, catalog, p);
            let cycles =
                c.cost.rows * exprs.len() as f64 * cm.kernel_cycles(&costs::arith_per_row())
                    / cores;
            NodeEst {
                cost: PlanCost {
                    rows: c.cost.rows,
                    row_bytes: exprs.len() as f64 * 8.0,
                    exec_secs: c.cost.exec_secs + cycles / cm.freq_hz,
                },
                cols: exprs
                    .iter()
                    .map(|e| match &e.expr {
                        rapid_qef::expr::Expr::Col(i) => c.cols.get(*i).cloned().flatten(),
                        _ => None,
                    })
                    .collect(),
            }
        }
        PlanNode::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            join_type,
            filter,
            output,
            ..
        } => {
            let b = estimate_node(build, catalog, p);
            let pr = estimate_node(probe, catalog, p);
            let cycles = join_cycles(plan, &b, &pr, *filter, catalog, p);
            let match_frac = semi_match_fraction(&b, &pr, build_keys, probe_keys)
                .unwrap_or(0.5)
                .clamp(0.0, 1.0);
            let inner_rows = containment_rows(&b, &pr, build_keys, probe_keys)
                .unwrap_or_else(|| pr.cost.rows.max(1.0));
            let out_rows = match join_type {
                JoinType::Inner => inner_rows,
                // Every probe row survives an outer join at least once.
                JoinType::LeftOuter => inner_rows.max(pr.cost.rows),
                // Semi and anti partition the probe side: they must sum to
                // the probe row count.
                JoinType::LeftSemi => pr.cost.rows * match_frac,
                JoinType::LeftAnti => pr.cost.rows * (1.0 - match_frac),
            };
            // The columns it writes, of the probe columns followed by the
            // build columns (inner/outer) or of the probe columns (semi/anti):
            // each as many bytes as its side's row holds a column.
            let per_column = |e: &NodeEst| e.cost.row_bytes / e.cols.len().max(1) as f64;
            let (probe_bytes, build_bytes) = (per_column(&pr), per_column(&b));
            let probe_width = pr.cols.len();
            let out_bytes = output
                .iter()
                .map(|&c| match c < probe_width {
                    true => probe_bytes,
                    false => build_bytes,
                })
                .sum();
            let paired: Vec<&Option<ColumnStats>> = match join_type.pairs() {
                true => pr.cols.iter().chain(&b.cols).collect(),
                false => pr.cols.iter().collect(),
            };
            let cols = output
                .iter()
                .map(|&c| paired.get(c).copied().cloned().flatten())
                .collect();
            NodeEst {
                cost: PlanCost {
                    rows: out_rows,
                    row_bytes: out_bytes,
                    exec_secs: b.cost.exec_secs + pr.cost.exec_secs + cycles / cm.freq_hz,
                },
                cols,
            }
        }
        PlanNode::GroupBy {
            input,
            keys,
            aggs,
            strategy,
            ..
        } => {
            let c = estimate_node(input, catalog, p);
            let per_row = cm.kernel_cycles(&costs::group_lookup_per_row())
                + aggs.len() as f64 * cm.kernel_cycles(&costs::grouped_agg_per_row());
            let mut cycles = c.cost.rows * per_row / cores;
            if let GroupStrategy::Partitioned(scheme) = strategy {
                // A pass through the DMS per round to partition by keys.
                cycles +=
                    scheme.len() as f64 * 2.0 * c.cost.output_bytes() / cm.dms_bytes_per_cycle();
            }
            // Group count: product of key NDVs, capped by input rows.
            // Unknown keys contribute no factor (a lower bound); with no
            // known key at all, fall back to the 10% heuristic.
            let mut ndv_prod = 1.0f64;
            let mut any_known = false;
            for &k in keys {
                if let Some(n) = c.col_ndv(k) {
                    any_known = true;
                    ndv_prod *= n;
                }
            }
            let groups = if any_known {
                ndv_prod.min(c.cost.rows).max(1.0)
            } else {
                (c.cost.rows * 0.1).max(1.0)
            };
            let mut cols: Vec<Option<ColumnStats>> = keys
                .iter()
                .map(|&k| c.cols.get(k).cloned().flatten())
                .collect();
            // Derived statistics for aggregate outputs, so predicates
            // above a GroupBy (HAVING-style filters) do not collapse to
            // the blind 0.5 default. MIN/MAX/AVG stay inside the input's
            // observed value range; SUM stretches the quantile bounds by
            // the mean group size (an independence approximation — good
            // enough to tell "sum > 300" from "sum > 3" when group sums
            // concentrate far below the constant); COUNT concentrates at
            // the mean group size.
            let mean_group = (c.cost.rows / groups).max(1.0);
            let scale_i64 = |v: i64, f: f64| -> i64 {
                ((v as f64) * f).clamp(i64::MIN as f64, i64::MAX as f64) as i64
            };
            for a in aggs {
                let derived = c.cols.get(a.col).and_then(|s| s.as_ref()).map(|s| {
                    let mut d = s.clone();
                    d.ndv = d.ndv.clamp(1, groups as u64);
                    d.null_count = 0;
                    match a.func {
                        AggFunc::Min | AggFunc::Max | AggFunc::Avg => {}
                        AggFunc::Sum => {
                            d.min = d.min.map(|v| scale_i64(v, mean_group));
                            d.max = d.max.map(|v| scale_i64(v, mean_group));
                            d.bounds = d.bounds.iter().map(|&v| scale_i64(v, mean_group)).collect();
                        }
                        // COUNT's distribution is the group-size
                        // distribution, which column stats do not carry;
                        // a point mass at the mean group size is closer
                        // than nothing.
                        AggFunc::Count => {
                            let k = mean_group as i64;
                            d.min = Some(1);
                            d.max = Some((2 * k).max(1));
                            d.bounds = vec![k.max(1); d.bounds.len().max(2)];
                            d.non_null = groups as u64;
                        }
                    }
                    d
                });
                cols.push(derived);
            }
            NodeEst {
                cost: PlanCost {
                    rows: groups,
                    row_bytes: (keys.len() + aggs.len()) as f64 * 8.0,
                    exec_secs: c.cost.exec_secs + cycles / cm.freq_hz,
                },
                cols,
            }
        }
        PlanNode::TopK { input, k, .. } => {
            let c = estimate_node(input, catalog, p);
            let cycles = c.cost.rows * cm.kernel_cycles(&costs::topk_per_row()) / cores;
            NodeEst {
                cost: PlanCost {
                    rows: *k as f64,
                    row_bytes: c.cost.row_bytes,
                    exec_secs: c.cost.exec_secs + cycles / cm.freq_hz,
                },
                cols: c.cols,
            }
        }
        PlanNode::Sort { input, .. } => {
            let c = estimate_node(input, catalog, p);
            let cycles =
                c.cost.rows * 4.0 * cm.kernel_cycles(&costs::radix_sort_per_row_per_pass()) / cores;
            NodeEst {
                cost: PlanCost {
                    rows: c.cost.rows,
                    row_bytes: c.cost.row_bytes,
                    exec_secs: c.cost.exec_secs + cycles / cm.freq_hz,
                },
                cols: c.cols,
            }
        }
        PlanNode::Limit { input, n } => {
            let c = estimate_node(input, catalog, p);
            NodeEst {
                cost: PlanCost {
                    rows: (*n as f64).min(c.cost.rows),
                    ..c.cost
                },
                cols: c.cols,
            }
        }
        PlanNode::SetOp { left, right, .. } => {
            let l = estimate_node(left, catalog, p);
            let r = estimate_node(right, catalog, p);
            let cycles =
                (l.cost.rows + r.cost.rows) * cm.kernel_cycles(&costs::group_lookup_per_row());
            let cols = l
                .cols
                .iter()
                .zip(r.cols.iter())
                .map(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => {
                        let mut m = a.clone();
                        m.merge(b);
                        Some(m)
                    }
                    _ => None,
                })
                .collect();
            NodeEst {
                cost: PlanCost {
                    rows: l.cost.rows + r.cost.rows,
                    row_bytes: l.cost.row_bytes,
                    exec_secs: l.cost.exec_secs + r.cost.exec_secs + cycles / cm.freq_hz,
                },
                cols,
            }
        }
        PlanNode::Window { input, .. } => {
            let c = estimate_node(input, catalog, p);
            let cycles = c.cost.rows
                * (cm.kernel_cycles(&costs::group_lookup_per_row())
                    + 2.0 * cm.kernel_cycles(&costs::radix_sort_per_row_per_pass()));
            let mut cols = c.cols;
            cols.push(None);
            NodeEst {
                cost: PlanCost {
                    rows: c.cost.rows,
                    row_bytes: c.cost.row_bytes + 8.0,
                    exec_secs: c.cost.exec_secs + cycles / cm.freq_hz,
                },
                cols,
            }
        }
    }
}

/// The cycles of `join`'s own work over inputs estimated `b` and `pr`, with
/// the join filter `filter` — partition passes or a broadcast, build and
/// probe, and the filter's — as [`estimate_node`] adds them to its inputs'.
/// 0 for any other node.
fn join_cycles(
    join: &PlanNode,
    b: &NodeEst,
    pr: &NodeEst,
    filter: Option<usize>,
    catalog: &Catalog,
    p: &CostParams,
) -> f64 {
    let PlanNode::HashJoin {
        build,
        probe,
        build_keys,
        probe_keys,
        scheme,
        ranged,
        ..
    } = join
    else {
        return 0.0;
    };
    let (cm, cores) = (&*p.ctx.cost_model, p.ctx.cores as f64);
    let match_frac = semi_match_fraction(b, pr, build_keys, probe_keys)
        .unwrap_or(0.5)
        .clamp(0.0, 1.0);
    // A join filter: the share of probe rows round one partitions, or a
    // broadcast join probes, and the test of every probe row. A partitioned
    // join's filter is built by a stage of its own — a lane a slice, each
    // reading its keys from DRAM and hashing them — and read whole by every
    // probe lane; of the rows it drops, a partition pass no longer writes
    // the bytes, at the widths they are stored in, nor maps or gathers
    // them. A broadcast join's lanes each set a bit a build row beside
    // their tables, from the hashes the tables' builds compute, and read
    // nothing.
    let (kept, dropped, filter_wire, filter_compute) = match filter {
        Some(bits) => {
            // A ranged join's lane holds a filter of `bits` bits over its
            // range's build rows alone.
            let ranges = match ranged.any() {
                true => scheme.iter().product::<usize>().max(1) as f64,
                false => 1.0,
            };
            let kept = join_filter::kept_fraction(match_frac, b.cost.rows / ranges, bits);
            let set = cm.kernel_cycles(&costs::join_filter_set_per_row());
            let test = cm.kernel_cycles(&costs::join_filter_test_per_row());
            if scheme.is_empty() {
                (
                    kept,
                    0.0,
                    0.0,
                    b.cost.rows * set + pr.cost.rows * test / cores,
                )
            } else if ranged.any() {
                // A ranged join's lane sets the bits of its range's build
                // rows beside its table and tests its probe rows — where it
                // reads them by range, in its scan's key pass, which gathers
                // no more of the rows it drops.
                let probe_widths = probe.output_widths(catalog).unwrap_or_default();
                let dropped = match ranged.reads(1) {
                    true => (1.0 - kept) * pr.cost.rows * probe_widths.iter().sum::<usize>() as f64,
                    false => 0.0,
                };
                let compute = (b.cost.rows * set + pr.cost.rows * test) / cores;
                (kept, dropped, 0.0, compute)
            } else {
                let dropped_rows = (1.0 - kept) * pr.cost.rows;
                let stored = |plan: &PlanNode| plan.output_widths(catalog).unwrap_or_default();
                let probe_widths = stored(probe);
                // Every lane of the probe side's round one reads it: lanes
                // that read a filter from DRAM own whole tiles.
                let rows = pr.cost.rows.ceil() as usize;
                let deal = Deal::whole_tiles(rows, p.ctx.tile_rows, p.ctx.cores);
                let lanes = deal.lanes.max(1) as f64;
                let read = join_filter::read_cost(cm, bits).cycles;
                let widths = stored(build);
                let key_bytes: usize = build_keys.iter().filter_map(|&k| widths.get(k)).sum();
                let keys = b.cost.rows * key_bytes as f64;
                let wire = (lanes + 1.0) * read + keys / cm.dms_bytes_per_cycle();
                let hashed =
                    build_keys.len() as f64 * cm.kernel_cycles(&costs::hash_per_row_per_key());
                let dropped = dropped_rows * probe_widths.iter().sum::<usize>() as f64;
                let partitioned = 2.0 * cm.kernel_cycles(&costs::partition_map_per_row())
                    + probe_widths.len() as f64 * cm.kernel_cycles(&costs::swpart_gather_per_row());
                let built =
                    b.cost.rows * (hashed + set) / cores.min(join_filter::slices(scheme) as f64);
                let compute = built + (pr.cost.rows * test - dropped_rows * partitioned) / cores;
                (kept, dropped, wire, compute)
            }
        }
        None => (1.0, 0.0, 0.0, 0.0),
    };
    let build_cy = b.cost.rows * cm.kernel_cycles(&costs::join_build_per_row());
    let probe_cy = kept
        * pr.cost.rows
        * (cm.kernel_cycles(&costs::join_probe_per_row())
            + cm.kernel_cycles(&costs::join_probe_per_link()));
    let (wire, compute) = if ranged.any() {
        // Key ranges: each lane reads its range's rows of a side it reads
        // by range once — of the probe side what a filter keeps — and of a
        // side partitioned by value bits the partition its pass wrote (read
        // and written through the DMS), and builds and probes them.
        let moved = |edge: usize, est: &NodeEst| match ranged.reads(edge) {
            true => est.cost.output_bytes(),
            false => 2.0 * est.cost.output_bytes(),
        };
        let read = moved(0, b) + moved(1, pr);
        let wire = (read - dropped) / cm.dms_bytes_per_cycle() + filter_wire;
        (wire, (build_cy + probe_cy) / cores + filter_compute)
    } else if scheme.is_empty() {
        // Broadcast: every lane reads the build side and builds the whole
        // table, then probes its share of rows where they lie.
        let wire = cores * b.cost.output_bytes() / cm.dms_bytes_per_cycle() + filter_wire;
        (wire, build_cy + probe_cy / cores + filter_compute)
    } else {
        // Partition both sides (read+write through the DMS) — of the probe
        // side what a filter keeps — build, probe.
        let part_bytes = b.cost.output_bytes() + pr.cost.output_bytes();
        let wire = (2.0 * part_bytes - dropped) / cm.dms_bytes_per_cycle() + filter_wire;
        (wire, (build_cy + probe_cy) / cores + filter_compute)
    };
    wire.max(compute) + wire.min(compute) * 0.15
}

/// Whether a join filter of `bits` bits makes `join`, partitioned or
/// broadcast, over inputs estimated `build` and `probe`, cheaper: the
/// estimate of the join with it against the estimate without, which differ
/// in the join's own cycles alone — the filter priced as it runs, by a
/// `join.filter` stage and a read in every probe lane where the join is
/// partitioned, or set beside every lane's table where it is broadcast.
pub fn filter_pays(
    join: &PlanNode,
    build: &NodeEst,
    probe: &NodeEst,
    bits: usize,
    catalog: &Catalog,
    p: &CostParams,
) -> bool {
    let with = join_cycles(join, build, probe, Some(bits), catalog, p);
    with < join_cycles(join, build, probe, None, catalog, p)
}

/// Estimated output rows for every node of `plan`, indexed by the
/// engine's pre-order node id (self before children; `HashJoin` recurses
/// build then probe, `SetOp` left then right) — so `out[node_id]` lines
/// up with the `node_id` on trace events for EXPLAIN ANALYZE's Q-error
/// column.
pub fn estimate_rows_per_node(plan: &PlanNode, catalog: &Catalog, p: &CostParams) -> Vec<f64> {
    fn walk(plan: &PlanNode, catalog: &Catalog, p: &CostParams, out: &mut Vec<f64>) {
        out.push(estimate_node(plan, catalog, p).cost.rows);
        plan.inputs().for_each(|child| walk(child, catalog, p, out));
    }
    let mut out = Vec::new();
    walk(plan, catalog, p, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
            b.push_row(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        let mut c = Catalog::new();
        c.insert("t".into(), Arc::new(b.finish()));
        c
    }

    fn scan() -> PlanNode {
        PlanNode::Scan {
            table: "t".into(),
            columns: vec![0, 1],
            pred: None,
        }
    }

    #[test]
    fn bigger_tables_cost_more() {
        let p = CostParams::default();
        let small = estimate(&scan(), &catalog(1000), &p);
        let big = estimate(&scan(), &catalog(100_000), &p);
        assert!(big.exec_secs > small.exec_secs * 10.0);
        assert_eq!(big.rows, 100_000.0);
    }

    #[test]
    fn a_scan_is_priced_at_the_chunks_its_zone_maps_leave_it() {
        use rapid_qef::expr::Pred;
        use rapid_qef::primitives::filter::CmpOp;
        let p = CostParams::default();
        let cat = catalog(100_000);
        let below = |value| PlanNode::Scan {
            table: "t".into(),
            columns: vec![0, 1],
            pred: Some(Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value,
            }),
        };
        // `k` is stored in key order: keys below 1,000 lie in the first of
        // 25 chunks of 4,096 rows, and the scan reads that chunk alone.
        let (few, all) = (
            estimate(&below(1_000), &cat, &p),
            estimate(&below(100_000), &cat, &p),
        );
        let ratio = all.exec_secs / few.exec_secs;
        assert!((ratio - 100_000.0 / 4_096.0).abs() < 1e-3, "{ratio}");
        assert!(
            (few.rows - 1_000.0).abs() < 100.0,
            "the rows are the table's: {}",
            few.rows
        );
        // Nothing ruled out: priced as the whole table, to the bit.
        assert_eq!(all.exec_secs, estimate(&scan(), &cat, &p).exec_secs);
    }

    #[test]
    fn join_costs_more_than_its_scans() {
        let p = CostParams::default();
        let cat = catalog(50_000);
        let join = PlanNode::HashJoin {
            build: Box::new(scan()),
            probe: Box::new(scan()),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::Inner,
            scheme: vec![32],
            filter: None,
            ranged: rapid_qef::plan::ByRange::Neither,
            output: (0..4).collect(),
        };
        let jc = estimate(&join, &cat, &p);
        let sc = estimate(&scan(), &cat, &p);
        assert!(jc.exec_secs > 2.0 * sc.exec_secs);
    }

    #[test]
    fn offload_cost_includes_network_and_latency() {
        let p = CostParams::default();
        let cat = catalog(1000);
        let cost = estimate(&scan(), &cat, &p);
        assert!(cost.offload_secs() > cost.exec_secs + OFFLOAD_LATENCY_SECS - 1e-12);
    }

    #[test]
    fn filter_costs_same_as_pushed_down_scan_pred() {
        // Regression: Filter used a flat 0.5 while the same predicate
        // pushed into the Scan went through the histogram estimator — the
        // two placements must agree on output rows.
        let p = CostParams::default();
        let cat = catalog(10_000);
        let pred = rapid_qef::expr::Pred::CmpConst {
            col: 0,
            op: rapid_qef::primitives::filter::CmpOp::Lt,
            value: 2_500,
        };
        let pushed = PlanNode::Scan {
            table: "t".into(),
            columns: vec![0, 1],
            pred: Some(pred.clone()),
        };
        let standalone = PlanNode::Filter {
            input: Box::new(scan()),
            pred,
        };
        let a = estimate(&pushed, &cat, &p);
        let b = estimate(&standalone, &cat, &p);
        assert!(
            (a.rows - b.rows).abs() < 1e-9,
            "pushed = {}, standalone = {}",
            a.rows,
            b.rows
        );
        // And the estimate tracks the data, not a constant fraction.
        assert!((a.rows - 2_500.0).abs() < 300.0, "rows = {}", a.rows);
    }

    fn join(join_type: JoinType, build_key: usize, probe_key: usize) -> PlanNode {
        PlanNode::HashJoin {
            build: Box::new(scan()),
            probe: Box::new(scan()),
            build_keys: vec![build_key],
            probe_keys: vec![probe_key],
            join_type,
            scheme: vec![32],
            filter: None,
            ranged: rapid_qef::plan::ByRange::Neither,
            output: (0..if join_type.pairs() { 4 } else { 2 }).collect(),
        }
    }

    #[test]
    fn semi_and_anti_estimates_sum_to_probe_rows() {
        let p = CostParams::default();
        let cat = catalog(10_000);
        // Key col 1 has NDV 10 on both sides: high containment, most
        // probe rows match.
        let semi = estimate(&join(JoinType::LeftSemi, 1, 1), &cat, &p);
        let anti = estimate(&join(JoinType::LeftAnti, 1, 1), &cat, &p);
        let probe = estimate(&scan(), &cat, &p);
        assert!(
            (semi.rows + anti.rows - probe.rows).abs() < 1e-6,
            "semi {} + anti {} != probe {}",
            semi.rows,
            anti.rows,
            probe.rows
        );
        assert!(semi.rows > anti.rows, "full-containment semi should win");
    }

    #[test]
    fn inner_join_uses_ndv_containment() {
        let p = CostParams::default();
        let cat = catalog(10_000);
        // Unique key (col 0, ndv = rows) on both sides: |L|·|R|/max(ndv)
        // = rows — a key-key join, not the old bare probe-row passthrough
        // (which this matches) ...
        let pk = estimate(&join(JoinType::Inner, 0, 0), &cat, &p);
        assert!((pk.rows - 10_000.0).abs() < 1.0, "rows = {}", pk.rows);
        // ... while a low-NDV key (col 1, ndv 10) explodes to
        // 10_000 · 10_000 / 10 — the case the old estimate missed by 6
        // orders of magnitude.
        let fanout = estimate(&join(JoinType::Inner, 1, 1), &cat, &p);
        assert!(
            (fanout.rows - 1.0e7).abs() < 1.0e5,
            "rows = {}",
            fanout.rows
        );
    }

    #[test]
    fn inner_join_falls_back_when_both_ndvs_unknown() {
        let p = CostParams::default();
        let cat = catalog(5_000);
        // A computed key column has no derivable stats on either side.
        let computed = |name: &str| PlanNode::Map {
            input: Box::new(scan()),
            exprs: vec![rapid_qef::plan::NamedExpr {
                expr: rapid_qef::expr::Expr::Arith {
                    op: rapid_qef::primitives::arith::ArithOp::Add,
                    a: Box::new(rapid_qef::expr::Expr::Col(0)),
                    b: Box::new(rapid_qef::expr::Expr::Lit(1)),
                },
                name: name.into(),
                dtype: rapid_storage::types::DataType::Int,
                scale: 0,
                dict: None,
            }],
        };
        let j = PlanNode::HashJoin {
            build: Box::new(computed("a")),
            probe: Box::new(computed("b")),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::Inner,
            scheme: vec![32],
            filter: None,
            ranged: rapid_qef::plan::ByRange::Neither,
            output: vec![0, 1],
        };
        let c = estimate(&j, &cat, &p);
        // Old behavior: probe rows.
        assert!((c.rows - 5_000.0).abs() < 1e-6, "rows = {}", c.rows);
    }

    #[test]
    fn groupby_groups_follow_key_ndv() {
        let p = CostParams::default();
        let cat = catalog(10_000);
        let gb = PlanNode::GroupBy {
            input: Box::new(scan()),
            keys: vec![1], // v = i % 10, NDV 10
            aggs: vec![rapid_qef::plan::AggSpec {
                func: rapid_qef::primitives::agg::AggFunc::Count,
                col: 0,
            }],
            strategy: GroupStrategy::OnTheFly { slots: None },
        };
        let c = estimate(&gb, &cat, &p);
        assert!((c.rows - 10.0).abs() < 1e-6, "groups = {}", c.rows);
    }

    #[test]
    fn per_node_estimates_follow_engine_preorder() {
        let p = CostParams::default();
        let cat = catalog(1_000);
        let plan = PlanNode::HashJoin {
            build: Box::new(scan()),
            probe: Box::new(PlanNode::Filter {
                input: Box::new(scan()),
                pred: rapid_qef::expr::Pred::CmpConst {
                    col: 0,
                    op: rapid_qef::primitives::filter::CmpOp::Lt,
                    value: 500,
                },
            }),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::Inner,
            scheme: vec![32],
            filter: None,
            ranged: rapid_qef::plan::ByRange::Neither,
            output: (0..4).collect(),
        };
        let est = estimate_rows_per_node(&plan, &cat, &p);
        // Pre-order: join(0), build scan(1), probe filter(2), its scan(3).
        assert_eq!(est.len(), 4);
        assert_eq!(est[1], 1_000.0);
        assert!((est[2] - 500.0).abs() < 100.0, "filter est = {}", est[2]);
        assert_eq!(est[3], 1_000.0);
    }

    #[test]
    fn groupby_reduces_estimated_rows() {
        let p = CostParams::default();
        let cat = catalog(10_000);
        let gb = PlanNode::GroupBy {
            input: Box::new(scan()),
            keys: vec![1],
            aggs: vec![rapid_qef::plan::AggSpec {
                func: rapid_qef::primitives::agg::AggFunc::Count,
                col: 0,
            }],
            strategy: GroupStrategy::OnTheFly { slots: None },
        };
        let c = estimate(&gb, &cat, &p);
        assert!(c.rows < 10_000.0);
    }
}
