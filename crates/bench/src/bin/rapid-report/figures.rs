//! `figures`: regenerate every table and figure of the paper's evaluation.

use std::process::ExitCode;

use rapid_qef::exec::ExecContext;
use rapid_report as bench;

use crate::args::{Args, UsageError};

const SECTIONS: &str =
    "all fig8 fig9 filter fig10 fig11 fig12 fig13 fig14 fig15 fig16 attribution ablations";

fn print_section(title: &str, points: &[bench::Point]) {
    println!("\n=== {title} ===");
    let width = points
        .iter()
        .map(|p| p.label.len())
        .max()
        .unwrap_or(10)
        .max(10);
    for p in points {
        if p.value.abs() >= 1.0e6 {
            println!("  {:width$}  {:>14.3e} {}", p.label, p.value, p.unit);
        } else {
            println!("  {:width$}  {:>14.3} {}", p.label, p.value, p.unit);
        }
    }
}

pub fn run(mut args: Args) -> Result<ExitCode, UsageError> {
    let sf: f64 = args.value("--sf", 0.02)?;
    let mut which: Vec<String> = args
        .positionals()?
        .iter()
        .map(|w| w.to_lowercase())
        .collect();
    if let Some(bad) = which.iter().find(|w| !SECTIONS.split(' ').any(|s| s == *w)) {
        return Err(UsageError(format!(
            "unknown figure '{bad}' (one of: {SECTIONS})"
        )));
    }
    if which.is_empty() {
        which.push("all".into());
    }
    let want = |k: &str| which.iter().any(|w| w == k || w == "all");

    println!("RAPID reproduction — figure harness (TPC-H scale factor {sf})");

    if want("fig8") {
        print_section(
            "Figure 8: hardware-partitioning bandwidth (paper: ~9.3 GiB/s, all strategies)",
            &bench::fig08_hw_partitioning(1 << 22),
        );
    }
    if want("fig9") {
        print_section(
            "Figure 9: DMS read/write bandwidth (paper: >=9 GiB/s at 128-row tiles)",
            &bench::fig09_dms_speed(1 << 22),
        );
    }
    if want("filter") {
        print_section(
            "Filter micro-benchmark (paper: 482 M tuples/s/core, 9.6 GB/s at 32 cores)",
            &bench::filter_microbench(1 << 22),
        );
    }
    if want("fig10") {
        print_section(
            "Figure 10: software partitioning (paper: ~948 M rows/s at 32-way)",
            &bench::fig10_sw_partitioning(1 << 17),
        );
    }
    if want("fig11") {
        print_section(
            "Figure 11: join build (paper: ~46 M rows/s/core at 256-row tiles, +39% at 1024)",
            &bench::fig11_join_build(1 << 17),
        );
    }
    if want("fig12") {
        print_section(
            "Figure 12: join probe at 50% hit (paper: 0.88-1.35 B rows/s/DPU)",
            &bench::fig12_join_probe(1 << 17),
        );
    }

    let needs_tpch = ["fig13", "fig14", "fig15", "fig16", "attribution"]
        .iter()
        .any(|k| want(k));
    if needs_tpch {
        eprintln!("\n[generating TPC-H data at SF {sf} and loading both engines...]");
        let (db, catalog) = bench::setup_tpch(sf, ExecContext::native(num_threads()));
        if want("fig13") {
            print_section(
                "Figure 13: vectorization gain on Q3's join (paper: ~46%)",
                &bench::fig13_vectorization(&catalog),
            );
        }
        let needs_timings = ["fig14", "fig15", "fig16", "attribution"]
            .iter()
            .any(|k| want(k));
        if needs_timings {
            eprintln!("[running all 11 queries on 3 engines...]");
            // RAPID-software runs single-threaded to match the host
            // executor's single query stream (documented in
            // EXPERIMENTS.md): Figure 16 isolates the *software design*
            // difference, not thread counts.
            let timings = bench::run_tpch_all_engines(&db, &catalog, 1);
            if want("fig14") {
                print_section(
                    "Figure 14: performance per watt, RAPID vs System X (paper: 10-25X, avg 15X)",
                    &bench::fig14_perf_per_watt(&timings),
                );
            }
            if want("fig15") {
                print_section(
                    "Figure 15: elapsed-time % in RAPID (paper: avg 97.57%)",
                    &bench::fig15_offload_fraction(&timings),
                );
            }
            if want("fig16") {
                print_section(
                    "Figure 16: RAPID software vs System X on x86 (paper: 1.2-8.5X, avg 2.5X)",
                    &bench::fig16_software_only(&timings),
                );
            }
            if want("attribution") {
                print_section(
                    "Speedup attribution (paper: total 8.5X = software 2.5X x hardware 3.4X)",
                    &bench::attribution(&timings),
                );
            }
        }
    }

    if want("ablations") {
        print_section(
            "Ablation: RID-list vs bit-vector representation (1/32 rule)",
            &bench::ablation_rid_vs_bitvector(1 << 20),
        );
        print_section(
            "Ablation: skew-resilient join (overflow + flow-join)",
            &bench::ablation_skew_resilience(1 << 15),
        );
        print_section(
            "Ablation: hash join vs sort-merge join (the [5] debate)",
            &bench::ablation_hash_vs_sortmerge(1 << 17),
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
