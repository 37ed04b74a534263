//! One workload, start to finish, in this process: set-up, reference
//! results, warm-up, the timed blocks, the exact simulated counts and, when
//! asked, the traced block.

use std::path::PathBuf;
use std::time::Instant;

use hostdb::HostDb;
use rapid_qef::exec::ExecContext;

use crate::alloc;
use crate::layers::{exact_pass, traced_pass, ExactTotals, Timed};
use crate::metrics::{Report, Values, END_TO_END, PER_LAYER};
use crate::setup::{build_db, generate, host_rows, process_cpu_secs, SetupPhases};
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted, spread, tail};
use crate::workloads::{attach, Block, Config, Workload};

/// Coverage of an in-process workload outside this band means the layer
/// table does not explain the operation's time.
const COVERAGE_BAND: std::ops::RangeInclusive<f64> = 0.8..=1.2;

pub fn run_workload(name: &'static str, cfg: &Config) -> Result<Report, String> {
    // Set-up, several times over: a later change that moves work into
    // set-up must show, and one sample of seconds-long work is too noisy
    // to show it. Each database is dropped before the next is built.
    // Counted in CPU seconds, and the fastest set-up is reported: the
    // first one pays for fresh pages, and the shared VM's bursts only ever
    // add time, so the minimum repeats where the median drifts.
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut leaked = 0;
    let mut attached: Option<(Box<dyn Workload>, SetupPhases)> = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some((previous, _)) = attached.take() {
            leaked += previous.finish();
        }
        let (t0, cpu0) = (Instant::now(), process_cpu_secs());
        let (db, phases) = build_db(cfg.sf);
        let w = attach(name, db, cfg).ok_or_else(|| format!("unknown workload '{name}'"))?;
        setup_cpu.push(process_cpu_secs() - cpu0);
        setup_wall.push(t0.elapsed().as_secs_f64());
        attached = Some((w, phases));
    }
    let (mut w, phases) = attached.expect("at least one set-up");

    let t0 = Instant::now();
    w.reference();
    let reference_s = t0.elapsed().as_secs_f64();

    let cache_before = w.db().plan_cache_stats();
    let warm_up = w.block(0);
    let (mut block_cpu_ms, mut block_allocs, mut block_alloc_kb) =
        (Vec::new(), Vec::new(), Vec::new());
    let blocks: Vec<Block> = (1..=cfg.blocks)
        .map(|b| {
            let (cpu0, (allocs0, bytes0)) = (process_cpu_secs(), alloc::totals());
            let block = w.block(b);
            let (allocs1, bytes1) = alloc::totals();
            let cpu = process_cpu_secs() - cpu0 - block.oracle_cpu_secs;
            let ops = block.ops.max(1) as f64;
            block_cpu_ms.push(cpu * 1e3 / ops);
            block_allocs.push((allocs1 - allocs0) as f64 / ops);
            block_alloc_kb.push((bytes1 - bytes0) as f64 / 1024.0 / ops);
            block
        })
        .collect();
    let cache_after = w.db().plan_cache_stats();
    let rss_mb = peak_rss_mb()?;

    let groups = w.traced_groups();
    let path = w.path();
    let exact = exact_pass(w.db(), &groups, &path)?;

    let timed_ops: usize = blocks.iter().map(|b| b.ops).sum();
    let block_qps: Vec<f64> = blocks
        .iter()
        .map(|b| b.ops as f64 / b.busy_secs())
        .collect();
    let block_p50: Vec<f64> = blocks
        .iter()
        .filter_map(|b| percentile(&pooled_ms(std::slice::from_ref(b)), 0.50))
        .collect();
    let latencies = pooled_ms(&blocks);
    let p50 = percentile(&latencies, 0.50).ok_or("no operation completed")?;

    let mut e2e = Values::new(&END_TO_END);
    let fastest = sorted(setup_cpu);
    let runner_up = fastest.get(1).unwrap_or(&fastest[0]);
    e2e.set_with_spread("setup_s", fastest[0], (runner_up - fastest[0]) / fastest[0]);
    e2e.set_with_spread(
        "host_allocs_per_op",
        median(&block_allocs),
        spread(&block_allocs),
    );
    e2e.set_with_spread(
        "host_alloc_kb_per_op",
        median(&block_alloc_kb),
        spread(&block_alloc_kb),
    );
    let ops = exact.ops.max(1) as f64;
    e2e.set(
        "sim_cycles_per_op",
        w.sim_cycles_per_op().unwrap_or(exact.sum.sim_cycles / ops),
    );
    e2e.set("sim_dms_bytes_per_op", exact.sum.dms_bytes as f64 / ops);
    e2e.set("peak_rss_mb", rss_mb);

    let attempted = (warm_up.ops + timed_ops) as u64;
    let mut failed = (warm_up.failed + blocks.iter().map(|b| b.failed).sum::<usize>()) as u64;

    let mut per_layer = None;
    if cfg.trace {
        let mut layers = Values::new(&PER_LAYER);
        setup_layers(&phases, cfg, &mut layers);
        exact_layers(&exact, &mut layers);

        let lookups =
            (cache_after.hits - cache_before.hits) + (cache_after.misses - cache_before.misses);
        if lookups > 0 {
            let hits = (cache_after.hits - cache_before.hits) as f64;
            layers.set("hostdb.plan_cache_hit_ratio", hits / lookups as f64);
        }
        let invalidations = cache_after.invalidations - cache_before.invalidations;
        let measured_ops = (warm_up.ops + timed_ops) as f64;
        layers.set(
            "hostdb.plan_cache_invalidations_per_op",
            invalidations as f64 / measured_ops,
        );

        layers.set("loadgen.setup_wall_s", median(&setup_wall));
        layers.set_with_spread(
            "loadgen.cpu_ms_per_op",
            median(&block_cpu_ms),
            spread(&block_cpu_ms),
        );
        layers.set_with_spread("loadgen.wall_qps", median(&block_qps), spread(&block_qps));
        layers.set_with_spread("loadgen.latency_p50_ms", p50, spread(&block_p50));
        if let Some((p, value)) = tail(&latencies) {
            layers.set("loadgen.latency_tail_ms", value);
            layers.set("loadgen.tail_percentile", p * 100.0);
        }
        layers.set("loadgen.samples", latencies.len() as f64);
        let (lo, hi) = block_qps
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &q| (lo.min(q), hi.max(q)));
        layers.set("loadgen.block_qps_spread", hi / lo);
        layers.set("loadgen.reference_s", reference_s);
        if path.wire {
            layers.set("server.latency_growth_ratio", latency_growth(&blocks));
        }

        let mut spans = Spans::default();
        let timed = traced_pass(w.as_mut(), &groups, &path, &mut spans)?;
        spans.validate()?;
        timed_layers(&timed, &exact, &mut layers);
        if let Some(warning) = unattributed(name, path.wire, layers.get("trace.coverage_ratio")) {
            println!("{warning}");
        }
        w.layer_extras(&mut layers);
        write_trace(name, &spans)?;
        per_layer = Some(layers);
    }

    leaked += w.finish();
    failed += leaked;
    if let Some(layers) = &mut per_layer {
        layers.set("loadgen.failed_op_ratio", failed as f64 / attempted as f64);
    }
    Ok(Report {
        attempted,
        failed,
        end_to_end: e2e,
        per_layer,
    })
}

/// The warning line for an in-process workload whose timed layers do not
/// add up to its real path. On a wire workload the remainder is socket and
/// thread hand-off, which no public call brackets.
fn unattributed(name: &str, wire: bool, coverage: f64) -> Option<String> {
    (!wire && !COVERAGE_BAND.contains(&coverage)).then(|| {
        format!(
            "UNATTRIBUTED {name}: the timed layers cover {coverage:.3} of the real path's time \
             (expected {COVERAGE_BAND:?})"
        )
    })
}

/// All call latencies of `blocks` in milliseconds, ascending.
fn pooled_ms(blocks: &[Block]) -> Vec<f64> {
    let all = blocks.iter().flat_map(|b| b.latencies.iter().flatten());
    sorted(all.map(|&ns| ns as f64 / 1e6).collect())
}

/// Median latency of each connection's last tenth of calls over that of
/// its first tenth, on one long-lived engine or server.
fn latency_growth(blocks: &[Block]) -> f64 {
    let conns = blocks.first().map_or(0, |b| b.latencies.len());
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for c in 0..conns {
        let calls: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.latencies[c].iter().map(|&ns| ns as f64))
            .collect();
        let tenth = (calls.len() / 10).max(1).min(calls.len());
        first.extend_from_slice(&calls[..tenth]);
        last.extend_from_slice(&calls[calls.len() - tenth..]);
    }
    match median(&first) {
        m if m > 0.0 => median(&last) / m,
        _ => 0.0,
    }
}

fn setup_layers(phases: &SetupPhases, cfg: &Config, out: &mut Values) {
    out.set("tpch.generate_s", phases.generate_s);
    out.set("hostdb.bulk_insert_s", phases.bulk_insert_s);
    out.set("storage.load_s", phases.load_s);
    let krows = phases.lineitem_rows as f64 / 1e3;
    out.set("storage.load_krows_per_s", krows / phases.load_lineitem_s);
    out.set(
        "storage.bytes_per_row",
        phases.lineitem_bytes as f64 / phases.lineitem_rows as f64,
    );

    // Load all of lineitem and its first half into a scratch database,
    // twice each and keeping the faster: 2.0 means load time is linear.
    let lineitem = generate(cfg.sf).lineitem;
    let rows = host_rows(&lineitem);
    let scratch = HostDb::new(ExecContext::dpu());
    let load = |name: &str, rows: &[Vec<_>]| {
        scratch.create_table(name, lineitem.schema.clone());
        scratch.bulk_insert(name, rows.to_vec());
        let timed = || {
            let t0 = Instant::now();
            scratch
                .load_into_rapid(name)
                .expect("LOAD of lineitem rows");
            t0.elapsed().as_secs_f64()
        };
        timed().min(timed())
    };
    let half = load("half", &rows[..rows.len() / 2]);
    let full = load("full", &rows);
    out.set("storage.load_scaling_ratio", full / half);
}

fn exact_layers(x: &ExactTotals, out: &mut Values) {
    let ops = x.ops.max(1) as f64;
    let s = &x.sum;
    out.set("hostdb.offload_ratio", x.rapid_ops as f64 / ops);
    out.set(
        "qcomp.plans_considered_per_op",
        s.plans_considered as f64 / ops,
    );
    out.set("qcomp.memo_entries_per_op", s.memo_entries as f64 / ops);
    out.set("qef.stages_per_op", s.stages as f64 / ops);
    out.set("qef.tiles_per_op", s.tiles as f64 / ops);
    out.set("qef.result_rows_per_op", s.result_rows as f64 / ops);
    let busy = s.compute_cycles + s.dms_cycles;
    if busy > 0.0 {
        out.set("dpu-sim.compute_cycles_share", s.compute_cycles / busy);
        out.set("dpu-sim.dms_cycles_share", s.dms_cycles / busy);
    }
    out.set(
        "dpu-sim.dms_descriptors_per_op",
        s.dms_descriptors as f64 / ops,
    );
    out.set("dpu-sim.instructions_per_op", s.instructions as f64 / ops);
    out.set("dpu-sim.dmem_peak_bytes", s.dmem_peak as f64);
    out.set("dpu-sim.energy_uj_per_op", s.energy_joules * 1e6 / ops);
    if s.result_rows > 0 {
        out.set(
            "server.wire_bytes_per_row",
            s.row_frame_bytes as f64 / s.result_rows as f64,
        );
    }
    out.set("server.frames_per_op", s.frames as f64 / ops);
}

fn timed_layers(t: &Timed, exact: &ExactTotals, out: &mut Values) {
    out.set("hostdb.parse_us", t.step_mean_ns("hostdb.parse") / 1e3);
    out.set("hostdb.decide_us", t.step_mean_ns("hostdb.decide") / 1e3);
    out.set("hostdb.volcano_us", t.step_mean_ns("hostdb.volcano") / 1e3);
    out.set("hostdb.commit_us", t.step_mean_ns("hostdb.commit") / 1e3);
    // Per commit where the workload writes: the statement after a commit
    // pays for the reload and the others find the table clean.
    let checkpoints = match t.steps.get("hostdb.commit") {
        Some(&(_, commits)) if commits > 0 => commits,
        _ => t.steps.get("hostdb.checkpoint").map_or(1, |s| s.1.max(1)),
    };
    out.set(
        "hostdb.checkpoint_ms",
        t.step_ns("hostdb.checkpoint") as f64 / checkpoints as f64 / 1e6,
    );
    out.set("qcomp.compile_us", t.step_mean_ns("qcomp.compile") / 1e3);
    out.set("verify.check_us", t.step_mean_ns("verify.check") / 1e3);
    out.set("sched.admit_us", t.step_mean_ns("sched.admit") / 1e3);
    out.set("qef.execute_ms", t.step_mean_ns("qef.execute") / 1e6);
    let execute_ns = t.step_ns("qef.execute") as f64;
    if exact.sum.sim_cycles > 0.0 {
        out.set(
            "qef.host_ns_per_sim_cycle",
            execute_ns / exact.sum.sim_cycles,
        );
    }
    if execute_ns > 0.0 {
        out.set("qef.native_over_dpu_ratio", t.native_ns as f64 / execute_ns);
    }
    let per_row = |name: &str, rows: u64| match rows {
        0 => 0.0,
        rows => t.step_ns(name) as f64 / rows as f64,
    };
    out.set(
        "hostdb.decode_ns_per_row",
        per_row("hostdb.decode", t.rows_decoded),
    );
    out.set(
        "server.encode_ns_per_row",
        per_row("server.encode", t.rows_on_wire),
    );
    out.set(
        "server.decode_ns_per_row",
        per_row("server.decode", t.rows_on_wire),
    );

    let real_ns: u64 = t.real.iter().map(|r| r.0).sum();
    if real_ns > 0 {
        out.set("trace.coverage_ratio", t.child_ns as f64 / real_ns as f64);
        out.set("trace.overhead_ratio", t.root_ns as f64 / real_ns as f64);
    }
    let queries: Vec<f64> = t.real.iter().filter(|r| r.1).map(|r| r.0 as f64).collect();
    let in_process: Vec<f64> = t.execute_sql_ns.iter().map(|&ns| ns as f64).collect();
    if !in_process.is_empty() {
        // Wire workloads: the same statements in-process are the floor.
        out.set("hostdb.execute_sql_us", median(&in_process) / 1e3);
        out.set(
            "server.roundtrip_overhead_us",
            (median(&queries) - median(&in_process)) / 1e3,
        );
    } else if t.steps.contains_key("hostdb.parse") {
        // In-process SQL: the real path is `execute_sql` itself.
        out.set("hostdb.execute_sql_us", median(&queries) / 1e3);
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Where build outputs go: the span trees are written beside them.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn write_trace(name: &str, spans: &Spans) -> Result<(), String> {
    let dir = target_dir().join("rapid_bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("trace-{name}.json"));
    std::fs::write(&file, spans.to_json()).map_err(|e| format!("{}: {e}", file.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_outside_the_band_names_the_in_process_workload() {
        assert_eq!(unattributed("tpch_serial", false, 1.0), None);
        assert_eq!(unattributed("tpch_serial", false, 0.8), None);
        let low = unattributed("dml_refresh", false, 0.5).expect("warned");
        assert!(low.starts_with("UNATTRIBUTED dml_refresh"), "{low}");
        assert!(unattributed("sched_batch", false, 1.3).is_some());
        assert_eq!(unattributed("wire_adhoc_wide", true, 0.1), None);
    }

    #[test]
    fn growth_compares_each_connections_last_tenth_with_its_first() {
        let block = |scale: u64| Block {
            latencies: vec![(1..=10).map(|i| i * scale).collect(), vec![5 * scale; 10]],
            ops: 20,
            ..Block::default()
        };
        // Twenty calls a connection, so a tenth is two: connection 0 goes
        // from [1, 2] to [18, 20], connection 1 from [5, 5] to [10, 10].
        let growth = latency_growth(&[block(1), block(2)]);
        assert_eq!(
            growth,
            median(&[18.0, 20.0, 10.0, 10.0]) / median(&[1.0, 2.0, 5.0, 5.0])
        );
        assert_eq!(latency_growth(&[]), 0.0);
    }
}
