//! # rapid-report — paper figures, verification reports, the CI gate
//!
//! One function per table/figure of the paper's evaluation (§7). Each
//! returns a structured series that `rapid-report figures` prints and the
//! unit tests below pin to the paper's operating points; `EXPERIMENTS.md`
//! records paper-vs-measured for every entry. [`report`] holds the exact
//! (simulated, bit-reproducible) per-query series that `rapid-report gate`
//! checks against `BENCH_baseline.json`. Wall-clock measurement is not
//! done here: that is the repository benchmark in `rapid_bench/`.
//!
//! Two pieces of machinery live here because nothing on the request path
//! runs them: [`hw_partition`], the DMS partition-while-transfer engine that
//! Figure 8 and `examples/dpu_hardware.rs` measure (ROADMAP 1(c) moves it
//! back into `dpu_sim` with its first request-path caller), and [`mutate`],
//! the plan and schedule mutation harnesses behind `rapid-report
//! schedcheck --mutations` and this crate's `mutations` and `schedcheck`
//! tests.
//!
//! | function | reproduces |
//! |---|---|
//! | [`fig08_hw_partitioning`] | Fig 8: DMS hardware-partitioning bandwidth per strategy |
//! | [`fig09_dms_speed`] | Fig 9: DMS read/write bandwidth vs columns × tile × r/rw |
//! | [`filter_microbench`] | §7.2: filter tuples/s/core and 32-core bandwidth |
//! | [`fig10_sw_partitioning`] | Fig 10: software partitioning vs fan-out × tile |
//! | [`fig11_join_build`] | Fig 11: build rows/s vs tile × hash-buckets |
//! | [`fig12_join_probe`] | Fig 12: probe rows/s vs tile × hash-buckets (50 % hit) |
//! | [`fig13_vectorization`] | Fig 13: Q3 join with/without vectorized execution |
//! | [`fig14_perf_per_watt`] | Fig 14: perf/watt RAPID vs System X per query |
//! | [`fig15_offload_fraction`] | Fig 15: elapsed-time % in RAPID per query |
//! | [`fig16_software_only`] | Fig 16: RAPID software vs System X on x86 |
//! | [`ablation_rid_vs_bitvector`] | §5.4's 1/32 representation rule |
//! | [`ablation_skew_resilience`] | §6.4's small/large-skew handling |
//! | [`ablation_hash_vs_sortmerge`] | §6.5: hash join vs the sort-merge join kept here (`mergejoin`) |

#![warn(missing_docs)]

pub mod hw_partition;
mod mergejoin;
pub mod mutate;
pub mod report;
pub mod task_formation;

use std::sync::Arc;

use dpu_sim::clock::{rates, Cycles};
use dpu_sim::dms::engine::DmsEngine;
use dpu_sim::isa::CostModel;
use dpu_sim::power::PowerModel;

use rapid_qcomp::cost::CostParams;
use rapid_qef::actor::run_stage;
use rapid_qef::batch::Batch;
use rapid_qef::engine::Engine;
use rapid_qef::exec::{CoreCtx, ExecContext};
use rapid_qef::ops::join::JoinTable;
use rapid_qef::ops::partition::partition_batches;
use rapid_qef::plan::Catalog;
use rapid_storage::vector::{ColumnData, Vector};

use hostdb::{ExecutionSite, HostDb};

use crate::hw_partition::{HwPartitioner, PartitionStrategy};

/// One measured point of a figure: label + value (+ unit).
#[derive(Debug, Clone)]
pub struct Point {
    /// Series / row label.
    pub label: String,
    /// Measured value.
    pub value: f64,
    /// Unit string for display.
    pub unit: &'static str,
}

impl Point {
    fn new(label: impl Into<String>, value: f64, unit: &'static str) -> Point {
        Point {
            label: label.into(),
            value,
            unit,
        }
    }
}

fn gibps(bytes: u64, cycles: f64) -> f64 {
    let cm = CostModel::default();
    rates::gib_per_sec(bytes, Cycles(cycles).to_time(cm.freq_hz))
}

// ----------------------------------------------------------------- fig 8 --

/// Fig 8: 32-way hardware partitioning bandwidth for every DMS strategy
/// over a 4 × 4-byte-column relation.
pub fn fig08_hw_partitioning(rows: usize) -> Vec<Point> {
    let cm = CostModel::default();
    let strategies: Vec<(&str, PartitionStrategy)> = vec![
        (
            "radix(5 bits)",
            PartitionStrategy::Radix { bits: 5, shift: 0 },
        ),
        ("hash(1 key)", PartitionStrategy::Hash { bits: 5 }),
        ("hash(2 keys)", PartitionStrategy::Hash { bits: 5 }),
        ("hash(4 keys)", PartitionStrategy::Hash { bits: 5 }),
        (
            "range(32)",
            PartitionStrategy::Range {
                bounds: (1..32).map(|i| i * 1000).collect(),
            },
        ),
    ];
    strategies
        .into_iter()
        .map(|(name, s)| {
            let hw = HwPartitioner::new(s, cm.clone()).expect("fan-out 32");
            let cost = hw.partition_cost(rows, 4, 4, 128);
            Point::new(name, gibps(cost.bytes, cost.cycles), "GiB/s")
        })
        .collect()
}

// ----------------------------------------------------------------- fig 9 --

/// Fig 9: DMS read / read+write bandwidth over columns × tile size.
pub fn fig09_dms_speed(rows: usize) -> Vec<Point> {
    let engine = DmsEngine::default();
    let mut out = Vec::new();
    for &cols in &[2usize, 4, 8, 16, 32] {
        for &tile in &[64usize, 128, 256] {
            let r = engine.sequential_read(cols, 4, rows, tile);
            out.push(Point::new(
                format!("{cols}cols_{tile}_r"),
                gibps(r.bytes, r.cycles),
                "GiB/s",
            ));
            let rw = engine.sequential_read_write(cols, 4, rows, tile);
            out.push(Point::new(
                format!("{cols}cols_{tile}_rw"),
                gibps(rw.bytes, rw.cycles),
                "GiB/s",
            ));
        }
    }
    out
}

// ------------------------------------------------------------ §7.2 filter --

/// §7.2: filter throughput — single-core tuples/s (paper: 482 M/s =
/// 1.65 cy/tuple) and the 32-core bandwidth (paper: ~9.6 GB/s).
pub fn filter_microbench(rows: usize) -> Vec<Point> {
    use rapid_qef::primitives::filter::{cmp_const_bv, CmpOp};
    // Single core, full-vector tiles (the filter task's natural shape).
    let ctx = ExecContext::dpu().with_cores(1);
    let mut core = CoreCtx::new(&ctx, 0);
    let tile = 4096usize;
    let mut done = 0usize;
    while done < rows {
        let n = tile.min(rows - done);
        let col = Vector::new(ColumnData::I32((0..n as i32).collect()));
        cmp_const_bv(&mut core, &col, 0..col.len(), CmpOp::Gt, 100);
        core.charge_tile();
        done += n;
    }
    let cy = core.account.compute_cycles().get();
    let cm = CostModel::default();
    let single = rows as f64 / (cy / cm.freq_hz);

    // 32-core bandwidth: every core filters its share of the rows while the
    // DMS streams it in; the stage rule says which of the two binds (the
    // DMS).
    let ctx = ExecContext::dpu();
    let per_core_rows = rows / ctx.cores;
    let transfer = ctx.dms().sequential_read(1, 4, per_core_rows, tile);
    let compute_each = Cycles(cy / rows as f64 * per_core_rows as f64);
    let (_, stage) = run_stage(&ctx, (0..ctx.cores).collect(), |core, _: usize| {
        core.account.charge_compute(compute_each);
        core.charge_dms(&transfer);
        Ok(())
    })
    .expect("a stage that only charges cannot fail");
    let bw = (rows as f64 * 4.0) / stage.sim.as_secs() / 1e9;

    vec![
        Point::new("single-core tuples/s", single, "tuples/s"),
        Point::new("single-core cycles/tuple", cm.freq_hz / single, "cy"),
        Point::new("32-core bandwidth", bw, "GB/s"),
    ]
}

// ---------------------------------------------------------------- fig 10 --

/// Fig 10: software partitioning throughput vs fan-out and input tile
/// size (2 × 4-byte columns, 32 cores).
///
/// Mirrors the paper's micro-benchmark setup: output double-buffering is
/// disabled and per-partition local buffers live in DMEM, so up to the
/// buffer limit (~64-way at 8 B rows in half a 32 KiB DMEM) the DMS only
/// carries the input stream; beyond it, flushed output shares the DDR bus
/// and throughput drops — "software partitioning up to 64-ways is
/// feasible without significant performance drop".
pub fn fig10_sw_partitioning(rows_per_core: usize) -> Vec<Point> {
    let cm = CostModel::default();
    let row_bytes = 8.0; // 2 x 4-byte columns
    let mut out = Vec::new();
    for &tile in &[64usize, 128, 256, 512, 1024] {
        for &fanout in &[2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            let ctx = ExecContext::dpu().with_cores(1).with_tile_rows(tile);
            let mut core = CoreCtx::new(&ctx, 0);
            // The operator consumes one input tile at a time.
            let mut done = 0usize;
            while done < rows_per_core {
                let n = tile.min(rows_per_core - done);
                let batch = Batch::new(vec![
                    Vector::new(ColumnData::I32((done as i32..(done + n) as i32).collect())),
                    Vector::new(ColumnData::I32(vec![7; n])),
                ]);
                partition_batches(&mut core, &[batch], &[0], fanout, 0, tile).expect("partition");
                done += n;
            }
            // Compute side only — the input transfer is the DMS's job.
            let compute = core.account.compute_cycles().get();
            let compute_rate = rows_per_core as f64 / (compute / cm.freq_hz);
            // DMS bound: input stream always; output only when the local
            // buffers (half of DMEM across `fanout` partitions) are too
            // small to hold the run and must flush to DRAM.
            let buf_bytes = (ctx.dmem_bytes / 2) as f64 / fanout as f64;
            let dms_bytes_per_row = if buf_bytes >= 16.0 * row_bytes {
                row_bytes
            } else {
                2.0 * row_bytes
            };
            let dms_bound = cm.dms_bytes_per_sec() / dms_bytes_per_row;
            let dpu_rate = (32.0 * compute_rate).min(dms_bound);
            out.push(Point::new(
                format!("tile{tile}_fanout{fanout}"),
                dpu_rate,
                "rows/s/DPU",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- fig 11 --

/// Rows per DMEM-resident join kernel (one partition after the
/// partitioning stage sizes partitions for the scratchpad).
pub const KERNEL_ROWS: usize = 2048;

/// Fig 11: join build throughput vs tile size × hash-buckets size. Builds
/// run kernel-by-kernel over DMEM-sized partitions, as on the DPU.
pub fn fig11_join_build(rows: usize) -> Vec<Point> {
    let cm = CostModel::default();
    let mut out = Vec::new();
    for &tile in &[64usize, 128, 256, 512, 1024] {
        for &buckets in &[1024usize, 2048, 4096, 8192] {
            let ctx = ExecContext::dpu().with_cores(1).with_tile_rows(tile);
            let mut core = CoreCtx::new(&ctx, 0);
            let mut done = 0usize;
            while done < rows {
                let n = KERNEL_ROWS.min(rows - done);
                let keys = Vector::new(ColumnData::I64((done as i64..(done + n) as i64).collect()));
                let (_t, _s) =
                    JoinTable::build_with_buckets(&mut core, &[&keys], n, false, Some(buckets))
                        .expect("build");
                for _ in 0..n.div_ceil(tile) {
                    core.charge_tile();
                }
                done += n;
            }
            let cy = core.account.elapsed_cycles().get();
            out.push(Point::new(
                format!("tile{tile}_buckets{buckets}"),
                rows as f64 / (cy / cm.freq_hz),
                "rows/s/core",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- fig 12 --

/// Fig 12: join probe throughput vs tile × hash-buckets at 50 % hit rate,
/// reported per 32-core DPU. Probes run against DMEM-sized kernels.
pub fn fig12_join_probe(rows: usize) -> Vec<Point> {
    let cm = CostModel::default();
    let mut out = Vec::new();
    for &tile in &[64usize, 128, 256, 512, 1024] {
        for &buckets in &[1024usize, 2048, 4096, 8192] {
            let ctx = ExecContext::dpu().with_cores(1).with_tile_rows(tile);
            let mut build_core = CoreCtx::new(&ctx, 0);
            let mut probe_core = CoreCtx::new(&ctx, 0);
            let mut done = 0usize;
            while done < rows {
                let n = KERNEL_ROWS.min(rows - done);
                let base = done as i64;
                let bkeys = Vector::new(ColumnData::I64((base..base + n as i64).collect()));
                let (table, _) = JoinTable::build_with_buckets(
                    &mut build_core,
                    &[&bkeys],
                    n,
                    false,
                    Some(buckets),
                )
                .expect("build");
                // 50 % hit: every other probe key exists in the kernel.
                let pkeys = Vector::new(ColumnData::I64(
                    (0..n as i64).map(|i| base + i * 2).collect(),
                ));
                table
                    .probe(&mut probe_core, &[&pkeys], &mut |_, _| {})
                    .expect("probe");
                for _ in 0..n.div_ceil(tile) {
                    probe_core.charge_tile();
                }
                done += n;
            }
            let cy = probe_core.account.elapsed_cycles().get();
            let per_core = rows as f64 / (cy / cm.freq_hz);
            out.push(Point::new(
                format!("tile{tile}_buckets{buckets}"),
                32.0 * per_core,
                "rows/s/DPU",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- fig 13 --

/// Fig 13: the **isolated join operator of TPC-H Q3** with and without
/// vectorized execution — the paper "isolated and ran the join operator
/// of TPC-H Q3": orders (filtered by date) builds, lineitem (filtered by
/// ship date) probes, kernel by kernel.
pub fn fig13_vectorization(catalog: &Catalog) -> Vec<Point> {
    let orders = catalog.get("orders").expect("orders loaded");
    let lineitem = catalog.get("lineitem").expect("lineitem loaded");
    let cutoff = rapid_storage::types::days_from_civil(1995, 3, 15) as i64;
    let odate = orders.schema.index_of("o_orderdate").expect("col");
    let okey = orders.schema.index_of("o_orderkey").expect("col");
    let build_keys: Vec<i64> = orders
        .column_i64(okey)
        .into_iter()
        .zip(orders.column_i64(odate))
        .filter(|&(_, d)| d < cutoff)
        .map(|(k, _)| k)
        .collect();
    let ldate = lineitem.schema.index_of("l_shipdate").expect("col");
    let lkey = lineitem.schema.index_of("l_orderkey").expect("col");
    let probe_keys: Vec<i64> = lineitem
        .column_i64(lkey)
        .into_iter()
        .zip(lineitem.column_i64(ldate))
        .filter(|&(_, d)| d > cutoff)
        .map(|(k, _)| k)
        .collect();

    let cm = CostModel::default();
    let mut points = Vec::new();
    let mut times = Vec::new();
    for (label, vectorized) in [("vectorized", true), ("row-at-a-time", false)] {
        let ctx = ExecContext::dpu().with_cores(1).with_vectorized(vectorized);
        let mut core = CoreCtx::new(&ctx, 0);
        // Kernel-by-kernel over DMEM-sized build partitions, probing the
        // co-partitioned probe keys (hash-partitioned by key).
        let parts = 32usize
            .max(build_keys.len().div_ceil(KERNEL_ROWS))
            .next_power_of_two();
        let mut b_parts: Vec<Vec<i64>> = vec![Vec::new(); parts];
        for &k in &build_keys {
            b_parts[(dpu_sim::crc32::hash_u64(k as u64) as usize) & (parts - 1)].push(k);
        }
        let mut p_parts: Vec<Vec<i64>> = vec![Vec::new(); parts];
        for &k in &probe_keys {
            p_parts[(dpu_sim::crc32::hash_u64(k as u64) as usize) & (parts - 1)].push(k);
        }
        for (b, p) in b_parts.into_iter().zip(p_parts) {
            if b.is_empty() || p.is_empty() {
                continue;
            }
            let bcol = Vector::new(ColumnData::I64(b.clone()));
            let (table, _) = JoinTable::build(&mut core, &[&bcol], b.len(), false).expect("build");
            let pcol = Vector::new(ColumnData::I64(p));
            table
                .probe(&mut core, &[&pcol], &mut |_, _| {})
                .expect("probe");
            core.charge_tile();
        }
        let secs = core.account.compute_cycles().get() / cm.freq_hz;
        times.push(secs);
        points.push(Point::new(format!("{label} time"), secs * 1e3, "ms"));
        let c = core.account.counters();
        let rate = if c.branches == 0 {
            0.0
        } else {
            c.branch_mispredicts as f64 / c.branches as f64
        };
        points.push(Point::new(
            format!("{label} mispredict rate"),
            rate * 100.0,
            "%",
        ));
    }
    points.push(Point::new(
        "vectorization gain",
        (times[1] / times[0] - 1.0) * 100.0,
        "%",
    ));
    points
}

// ----------------------------------------------------- fig 14 / 15 / 16 --

/// Per-query engine timings shared by Figures 14/15/16.
#[derive(Debug, Clone)]
pub struct QueryTimings {
    /// Query name.
    pub name: &'static str,
    /// Simulated seconds on the DPU backend.
    pub dpu_sim_secs: f64,
    /// Wall seconds of RAPID software on the native backend.
    pub rapid_native_secs: f64,
    /// Wall seconds of the host Volcano engine.
    pub host_secs: f64,
    /// Fraction of offloaded elapsed time spent in RAPID (native run).
    pub rapid_fraction: f64,
}

/// Run all eleven queries on all three engines.
pub fn run_tpch_all_engines(
    db: &HostDb,
    catalog: &Catalog,
    native_cores: usize,
) -> Vec<QueryTimings> {
    let params = CostParams::default();
    // DPU-simulated engine.
    let mut dpu = Engine::new(ExecContext::dpu());
    // RAPID software on x86.
    let mut native = Engine::new(ExecContext::native(native_cores));
    for t in catalog.values() {
        dpu.load_table(Arc::clone(t));
        native.load_table(Arc::clone(t));
    }
    let mut out = Vec::new();
    for (name, lp) in tpch::queries::all() {
        let compiled = rapid_qcomp::compile(&lp, catalog, &params).expect("compile");
        let (_, dpu_report) = dpu.execute(&compiled.plan).expect("dpu run");
        // Native: best of 2 runs (first run warms allocator caches).
        let (_, _warm) = native.execute(&compiled.plan).expect("native warm");
        let t0 = std::time::Instant::now();
        let (_, _) = native.execute(&compiled.plan).expect("native run");
        let rapid_native_secs = t0.elapsed().as_secs_f64();
        // Host Volcano.
        let host = db.execute_on_host(&lp).expect("host run");
        // Offload-path fraction through the HostDb (native RAPID inside).
        let offloaded = db.execute_plan(&lp).expect("offload run");
        let rapid_fraction = if offloaded.site == ExecutionSite::Rapid {
            offloaded.rapid_fraction()
        } else {
            0.0
        };
        out.push(QueryTimings {
            name,
            dpu_sim_secs: dpu_report.sim_secs,
            rapid_native_secs,
            host_secs: host.host_secs,
            rapid_fraction,
        });
    }
    out
}

/// Fig 14: performance-per-watt ratio (RAPID DPU vs System X on x86).
pub fn fig14_perf_per_watt(timings: &[QueryTimings]) -> Vec<Point> {
    let p_dpu = PowerModel::dpu().watts;
    let p_x86 = PowerModel::x86_dual_socket().watts;
    let mut out: Vec<Point> = timings
        .iter()
        .map(|t| {
            let ratio = (t.host_secs * p_x86) / (t.dpu_sim_secs * p_dpu);
            Point::new(t.name, ratio, "x perf/watt")
        })
        .collect();
    let geo: f64 = (out.iter().map(|p| p.value.ln()).sum::<f64>() / out.len() as f64).exp();
    out.push(Point::new("geomean", geo, "x perf/watt"));
    out
}

/// Fig 15: percentage of elapsed time spent in RAPID per query.
pub fn fig15_offload_fraction(timings: &[QueryTimings]) -> Vec<Point> {
    let mut out: Vec<Point> = timings
        .iter()
        .map(|t| Point::new(t.name, t.rapid_fraction * 100.0, "% in RAPID"))
        .collect();
    let avg = out.iter().map(|p| p.value).sum::<f64>() / out.len() as f64;
    out.push(Point::new("average", avg, "% in RAPID"));
    out
}

/// Fig 16: RAPID software (native x86) speedup over System X per query.
pub fn fig16_software_only(timings: &[QueryTimings]) -> Vec<Point> {
    let mut out: Vec<Point> = timings
        .iter()
        .map(|t| Point::new(t.name, t.host_secs / t.rapid_native_secs, "x speedup"))
        .collect();
    let geo: f64 = (out.iter().map(|p| p.value.ln()).sum::<f64>() / out.len() as f64).exp();
    out.push(Point::new("geomean", geo, "x speedup"));
    out
}

/// §7.4's attribution: total speedup (DPU vs System X) and the share
/// attributable to hardware (total / software-only).
pub fn attribution(timings: &[QueryTimings]) -> Vec<Point> {
    let geo = |it: &mut dyn Iterator<Item = f64>| -> f64 {
        let v: Vec<f64> = it.collect();
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    };
    let total = geo(&mut timings.iter().map(|t| t.host_secs / t.dpu_sim_secs));
    let sw = geo(&mut timings.iter().map(|t| t.host_secs / t.rapid_native_secs));
    vec![
        Point::new("total speedup (RAPID on DPU vs System X)", total, "x"),
        Point::new("software speedup (RAPID on x86 vs System X)", sw, "x"),
        Point::new("hardware-attributed speedup", total / sw, "x"),
    ]
}

// ------------------------------------------------------------- ablations --

/// Ablation: RID-list vs bit-vector filter representation across
/// selectivities — the 1/32 rule's crossover.
pub fn ablation_rid_vs_bitvector(rows: usize) -> Vec<Point> {
    use rapid_qef::batch::Span;
    use rapid_qef::expr::Pred;
    use rapid_qef::ops::filter::ScanPlan;
    use rapid_qef::primitives::filter::CmpOp;
    use rapid_qef::ra::AccessPath;
    let mut out = Vec::new();
    for &sel_ppm in &[1000usize, 10_000, 31_250, 100_000, 500_000] {
        let sel = sel_ppm as f64 / 1e6;
        let cutoff = (rows as f64 * sel) as i32;
        let chunk = rapid_storage::chunk::Chunk::new(vec![Vector::new(ColumnData::I32(
            (0..rows as i32).collect(),
        ))]);
        let pred = vec![Pred::CmpConst {
            col: 0,
            op: CmpOp::Lt,
            value: cutoff as i64,
        }];
        for (label, forced) in [("rids", 0.001f64), ("bitvec", 0.5f64)] {
            let ctx = ExecContext::dpu().with_cores(1);
            let mut core = CoreCtx::new(&ctx, 0);
            // The selective path with the representation forced, through
            // the downstream gather of one 4-byte column, where the
            // representations actually differ. The difference lives in
            // DMS traffic (descriptor bytes shipped to drive the gather),
            // so report engine-occupancy cycles — on a memory-bound query
            // that is the elapsed time.
            ScanPlan::forced(AccessPath::Gather, &pred, &[0], forced)
                .scan_rows(&mut core, Span::Chunk(&chunk, 0..rows), 4096)
                .expect("scan");
            let cy = core.account.dms_cycles().get();
            out.push(Point::new(
                format!("sel{:.3}%_{label}", sel * 100.0),
                cy,
                "DMS cycles",
            ));
        }
    }
    out
}

/// Ablation: DMEM-resilient join under estimate errors (§6.4). Compares
/// simulated time with a correct estimate, a 4x under-estimate (small
/// skew: graceful DRAM overflow) and heavy-hitter input with flow-join
/// on/off.
pub fn ablation_skew_resilience(rows: usize) -> Vec<Point> {
    let cm = CostModel::default();
    let mut out = Vec::new();
    let run = |keys: Vec<i64>, est: usize, heavy: bool| -> f64 {
        let ctx = ExecContext::dpu().with_cores(1);
        let mut core = CoreCtx::new(&ctx, 0);
        let kcol = Vector::new(ColumnData::I64(keys.clone()));
        let (table, _) = JoinTable::build(&mut core, &[&kcol], est, heavy).expect("build");
        let probe = Vector::new(ColumnData::I64(keys));
        table
            .probe(&mut core, &[&probe], &mut |_, _| {})
            .expect("probe");
        core.account.elapsed_cycles().get() / cm.freq_hz
    };
    let uniform: Vec<i64> = (0..rows as i64).collect();
    out.push(Point::new(
        "uniform, exact estimate",
        run(uniform.clone(), rows, false) * 1e3,
        "ms",
    ));
    out.push(Point::new(
        "uniform, 4x under-estimate (overflow)",
        run(uniform, rows / 4, false) * 1e3,
        "ms",
    ));
    // Heavy hitter: 30 % of rows share one key.
    let mut skewed: Vec<i64> = vec![42; rows * 3 / 10];
    skewed.extend(1000..1000 + (rows as i64 * 7 / 10));
    out.push(Point::new(
        "heavy-hitter, flow-join OFF",
        run(skewed.clone(), rows, false) * 1e3,
        "ms",
    ));
    out.push(Point::new(
        "heavy-hitter, flow-join ON",
        run(skewed, rows, true) * 1e3,
        "ms",
    ));
    out
}

/// Ablation: hash join vs sort-merge join on the same DMEM-sized
/// partitions (§6.5 / the paper's own sort-vs-hash prior work, its ref 5).
pub fn ablation_hash_vs_sortmerge(rows: usize) -> Vec<Point> {
    use mergejoin::merge_join_partition;
    use rapid_qef::plan::JoinType;
    let cm = CostModel::default();
    let mut out = Vec::new();
    let mk = |seed: u64, n: usize| -> Vec<i64> {
        // Deterministic pseudo-random keys: domain 2x the row count for a
        // ~50 % hit rate, spread over a wide value range so the radix sort
        // pays realistic pass counts (join keys are rarely dense).
        (0..n as u64)
            .map(|i| {
                (((i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(seed) >> 16)
                    % (2 * n as u64)) as i64)
                    * 1_000_003
            })
            .collect()
    };
    for (label, presorted) in [("random input", false), ("pre-sorted input", true)] {
        let mut lkeys = mk(7, rows);
        let mut rkeys = mk(13, rows);
        if presorted {
            lkeys.sort_unstable();
            rkeys.sort_unstable();
        }
        // Hash join over DMEM kernels.
        let ctx = ExecContext::dpu().with_cores(1);
        let mut hc = CoreCtx::new(&ctx, 0);
        let mut done = 0usize;
        while done < rows {
            let n = KERNEL_ROWS.min(rows - done);
            let b = Vector::new(ColumnData::I64(rkeys[done..done + n].to_vec()));
            let p = Vector::new(ColumnData::I64(lkeys[done..done + n].to_vec()));
            let (t, _) = JoinTable::build(&mut hc, &[&b], n, false).expect("build");
            t.probe(&mut hc, &[&p], &mut |_, _| {}).expect("probe");
            done += n;
        }
        let hash_ms = hc.account.elapsed_cycles().get() / cm.freq_hz * 1e3;
        // Sort-merge join over the same kernels.
        let mut mc = CoreCtx::new(&ctx, 0);
        let mut done = 0usize;
        while done < rows {
            let n = KERNEL_ROWS.min(rows - done);
            let l = Batch::new(vec![Vector::new(ColumnData::I64(
                lkeys[done..done + n].to_vec(),
            ))]);
            let r = Batch::new(vec![Vector::new(ColumnData::I64(
                rkeys[done..done + n].to_vec(),
            ))]);
            merge_join_partition(&mut mc, &l, &r, 0, 0, JoinType::Inner).expect("merge");
            done += n;
        }
        let merge_ms = mc.account.elapsed_cycles().get() / cm.freq_hz * 1e3;
        out.push(Point::new(format!("{label}: hash join"), hash_ms, "ms"));
        out.push(Point::new(
            format!("{label}: sort-merge join"),
            merge_ms,
            "ms",
        ));
    }
    out
}

// ------------------------------------------------------------- utilities --

/// Build the TPC-H catalog + a host database populated with the same rows.
pub fn setup_tpch(sf: f64, rapid_ctx: ExecContext) -> (HostDb, Catalog) {
    let data = tpch::generate(&tpch::TpchConfig::sf(sf));
    let db = HostDb::new(rapid_ctx);
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    (db, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig08_stays_in_paper_band() {
        for p in fig08_hw_partitioning(1 << 20) {
            assert!(
                (8.0..10.5).contains(&p.value),
                "{}: {} GiB/s",
                p.label,
                p.value
            );
        }
    }

    #[test]
    fn fig09_shape_holds() {
        let pts = fig09_dms_speed(1 << 20);
        let get = |label: &str| {
            pts.iter()
                .find(|p| p.label == label)
                .map(|p| p.value)
                .expect("point exists")
        };
        assert!(
            get("4cols_128_rw") > get("4cols_64_rw"),
            "bigger tiles amortize setup"
        );
        assert!(
            get("2cols_128_r") > get("32cols_128_r"),
            "more columns degrade mildly"
        );
        assert!(get("4cols_128_r") >= 8.3, "near-peak streaming");
    }

    #[test]
    fn filter_hits_calibration() {
        let pts = filter_microbench(1 << 20);
        let single = pts[0].value;
        assert!((4.0e8..5.5e8).contains(&single), "{single} tuples/s");
        let cy = pts[1].value;
        assert!((1.4..1.9).contains(&cy), "{cy} cycles/tuple");
        let bw = pts[2].value;
        assert!((8.5..10.5).contains(&bw), "{bw} GB/s (paper: 9.6)");
    }

    #[test]
    fn fig10_sw_partition_operating_point() {
        let pts = fig10_sw_partitioning(1 << 16);
        let p32 = pts
            .iter()
            .find(|p| p.label == "tile256_fanout32")
            .expect("point");
        assert!(
            (0.6e9..1.4e9).contains(&p32.value),
            "32-way @tile256 = {:.2e} rows/s/DPU (paper ~0.95e9)",
            p32.value
        );
        // Larger tiles help.
        let t64 = pts
            .iter()
            .find(|p| p.label == "tile64_fanout32")
            .expect("point");
        assert!(p32.value >= t64.value);
    }

    #[test]
    fn fig11_build_operating_point_and_flat_buckets() {
        let pts = fig11_join_build(1 << 16);
        let p = pts
            .iter()
            .find(|p| p.label == "tile256_buckets2048")
            .expect("point");
        assert!(
            (38.0e6..60.0e6).contains(&p.value),
            "build = {:.1} M rows/s/core (paper ~46M)",
            p.value / 1e6
        );
        // Hash-buckets size has no effect (DMEM-resident).
        let a = pts
            .iter()
            .find(|p| p.label == "tile256_buckets1024")
            .expect("pt")
            .value;
        let b = pts
            .iter()
            .find(|p| p.label == "tile256_buckets8192")
            .expect("pt")
            .value;
        assert!(
            (a / b - 1.0).abs() < 0.05,
            "buckets sweep should be flat: {a} vs {b}"
        );
        // Tile sweep: 64 -> 1024 improves ~39 %.
        let t64 = pts
            .iter()
            .find(|p| p.label == "tile64_buckets1024")
            .expect("pt")
            .value;
        let t1024 = pts
            .iter()
            .find(|p| p.label == "tile1024_buckets1024")
            .expect("pt")
            .value;
        let gain = t1024 / t64 - 1.0;
        assert!((0.2..0.6).contains(&gain), "tile gain = {gain:.2}");
    }

    #[test]
    fn fig12_probe_band() {
        let pts = fig12_join_probe(1 << 16);
        for p in &pts {
            assert!(
                (0.7e9..1.7e9).contains(&p.value),
                "{}: {:.2e} rows/s/DPU (paper 0.88-1.35e9)",
                p.label,
                p.value
            );
        }
        // Tile 64 -> 1024 improves ~30 %.
        let t64 = pts
            .iter()
            .find(|p| p.label == "tile64_buckets1024")
            .expect("pt")
            .value;
        let t1024 = pts
            .iter()
            .find(|p| p.label == "tile1024_buckets1024")
            .expect("pt")
            .value;
        assert!((0.15..0.5).contains(&(t1024 / t64 - 1.0)));
    }

    #[test]
    fn fig13_vectorization_gain_matches_paper() {
        // Tiny catalog is enough: the gain is a per-row cost ratio.
        let (_db, catalog) = setup_tpch(0.002, ExecContext::native(2));
        let pts = fig13_vectorization(&catalog);
        let gain = pts.last().expect("gain point").value;
        assert!(
            (30.0..60.0).contains(&gain),
            "gain = {gain:.1}% (paper: ~46%)"
        );
        // Branch mispredict rate must drop with vectorization.
        let vec_rate = pts[1].value;
        let row_rate = pts[3].value;
        assert!(vec_rate < row_rate, "mispredicts: {vec_rate} !< {row_rate}");
    }

    #[test]
    fn ablation_rid_wins_when_selective() {
        let pts = ablation_rid_vs_bitvector(1 << 18);
        let get = |l: &str| pts.iter().find(|p| p.label == l).expect("pt").value;
        // At 0.1 % selectivity RIDs must win; at 50 % the bit-vector must.
        assert!(get("sel0.100%_rids") < get("sel0.100%_bitvec"));
        assert!(get("sel50.000%_bitvec") < get("sel50.000%_rids"));
    }

    #[test]
    fn hash_beats_sortmerge_on_random_keys() {
        // The paper's own finding ([5], and why RAPID leads with the hash
        // join): on unsorted inputs hashing wins; when inputs arrive
        // sorted the merge join skips its sort passes and takes the lead —
        // the classic crossover.
        let pts = ablation_hash_vs_sortmerge(1 << 14);
        let get = |l: &str| pts.iter().find(|p| p.label == l).expect("pt").value;
        assert!(
            get("random input: hash join") < get("random input: sort-merge join"),
            "hash should win on random input: {} vs {}",
            get("random input: hash join"),
            get("random input: sort-merge join"),
        );
        assert!(
            get("pre-sorted input: sort-merge join") < get("pre-sorted input: hash join"),
            "merge join should win on pre-sorted input"
        );
    }

    #[test]
    fn ablation_skew_orders_sensibly() {
        let pts = ablation_skew_resilience(1 << 14);
        let v: Vec<f64> = pts.iter().map(|p| p.value).collect();
        // Overflow costs a bit more than exact estimates.
        assert!(v[1] >= v[0] * 0.99, "overflow {} vs exact {}", v[1], v[0]);
        // Flow-join beats degenerate chains on heavy-hitter data.
        assert!(
            v[3] < v[2],
            "flow-join {} should beat chained {}",
            v[3],
            v[2]
        );
    }
}
