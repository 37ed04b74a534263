//! The benchmark run as its users run it: the built binary, `--quick`
//! sizes. Checks that it prints what `BENCHMARK.json` declares, that the
//! exact metrics repeat bit for bit, and that a wrong result fails the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

use rapid_bench_suite::cli::RUN_SECONDS;
use rapid_bench_suite::json::Json;
use rapid_bench_suite::metrics::{Clock, Def, END_TO_END, PER_LAYER, WORKLOADS};

/// Run the binary; it writes its span trees under the scratch directory
/// `target`, one per test so that tests running side by side do not share
/// a file.
fn bench(target: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rapid_bench"))
        .args(args)
        .env("CARGO_TARGET_DIR", scratch(target))
        .output()
        .expect("the benchmark binary starts")
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn last_line_json(out: &Output) -> Json {
    let text = stdout(out);
    let last = text.lines().last().unwrap_or_default();
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {text}"))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    let items = list.as_arr().expect("a list");
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_program_measures() {
    let declared = benchmark_json();
    assert_eq!(
        names(declared.get("workloads").expect("workloads")),
        WORKLOADS
    );
    assert_eq!(
        declared.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );

    let check = |key: &str, defs: &[Def], bounded: bool| {
        let list = declared.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(list.len(), defs.len(), "{key}");
        for (m, d) in list.iter().zip(defs) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            let bound = m.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
}

/// `workload metric` → `(value, unit)` of every metric line `run` printed,
/// failing on a line printed twice.
fn metric_lines(text: &str) -> BTreeMap<(String, String), (f64, String)> {
    let mut seen = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 4 || !WORKLOADS.contains(&f[0]) {
            continue;
        }
        let value: f64 = f[2]
            .parse()
            .unwrap_or_else(|_| panic!("no value in: {line}"));
        let key = (f[0].to_string(), f[1].to_string());
        assert!(
            seen.insert(key, (value, f[3].to_string())).is_none(),
            "printed twice: {line}"
        );
    }
    seen
}

fn exact_values(file: &Json, workload: &str) -> Vec<(&'static str, u64)> {
    let tables = [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ];
    let mut out = Vec::new();
    for (key, defs) in tables {
        for d in defs.iter().filter(|d| d.clock == Clock::Exact) {
            let m = file
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get(key));
            let value = m
                .and_then(|t| t.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            out.push((
                d.name,
                value
                    .unwrap_or_else(|| panic!("{workload} {}", d.name))
                    .to_bits(),
            ));
        }
    }
    out
}

#[test]
fn run_prints_every_declared_metric_once_and_exact_metrics_repeat() {
    let declared = benchmark_json();
    let run = |seed: &str, file: &str, workload: Option<&str>| {
        let out_path = scratch(file);
        let mut args = vec![
            "run",
            "--seed",
            seed,
            "--quick",
            "--out",
            out_path.to_str().expect("utf-8"),
        ];
        if let Some(w) = workload {
            args.extend(["--workload", w]);
        }
        let out = bench("run", &args);
        assert!(
            out.status.success(),
            "run failed: {}{}",
            stdout(&out),
            String::from_utf8_lossy(&out.stderr)
        );
        let file = std::fs::read_to_string(&out_path).expect("--out file");
        (stdout(&out), Json::parse(&file).expect("--out parses"))
    };
    let (text, first) = run("11", "first.json", None);
    let (_, again) = run("11", "again.json", None);

    let printed = metric_lines(&text);
    for workload in WORKLOADS {
        for key in ["end_to_end", "per_layer"] {
            for m in declared.get(key).and_then(Json::as_arr).expect(key) {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                let (value, printed_unit) = printed
                    .get(&(workload.to_string(), name.to_string()))
                    .unwrap_or_else(|| panic!("{workload} {name} was not printed"));
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert_eq!(printed_unit, unit, "{workload} {name}");
            }
        }
        assert_eq!(
            printed[&(workload.to_string(), "failed".to_string())].0,
            0.0,
            "{workload}"
        );
        for d in &END_TO_END {
            assert!(
                printed[&(workload.to_string(), d.name.to_string())].0 > 0.0,
                "{workload} {}",
                d.name
            );
        }
        assert_eq!(
            exact_values(&first, workload),
            exact_values(&again, workload),
            "{workload}"
        );
    }

    // The seed picks statements, not data: the ad-hoc ranges move with it,
    // the TPC-H plans' simulated counts do not.
    let (_, other) = run("12", "other-tpch.json", Some("tpch_serial"));
    assert_eq!(
        exact_values(&first, "tpch_serial"),
        exact_values(&other, "tpch_serial")
    );
    let (_, other) = run("12", "other-wide.json", Some("wire_adhoc_wide"));
    assert_ne!(
        exact_values(&first, "wire_adhoc_wide"),
        exact_values(&other, "wire_adhoc_wide")
    );

    // The two files of one seed compare clean on every exact metric.
    let compared = bench(
        "run",
        &[
            "compare",
            scratch("first.json").to_str().expect("utf-8"),
            scratch("again.json").to_str().expect("utf-8"),
        ],
    );
    let table = stdout(&compared);
    assert_eq!(
        table.lines().filter(|l| l.contains("sim_")).count(),
        2 * WORKLOADS.len()
    );
    assert!(
        table
            .lines()
            .filter(|l| l.contains("sim_"))
            .all(|l| l.ends_with("unchanged")),
        "{table}"
    );
}

#[test]
fn the_driver_form_prints_one_result_line_and_writes_the_span_tree() {
    for (trace, defs) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let args = [
            "--workload",
            "wire_point_prepared",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ];
        let out = bench("driver", &args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = last_line_json(&out);
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(
            line.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(printed, declared, "--trace {trace}");
    }

    let trace = scratch("driver").join("rapid_bench/trace-wire_point_prepared.json");
    let spans =
        Json::parse(&std::fs::read_to_string(&trace).expect("span tree written")).expect("parses");
    let spans = spans.as_arr().expect("a list of spans");
    assert!(!spans.is_empty());
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64);
    for (i, s) in spans.iter().enumerate() {
        assert!(field(s, "self_ns").expect("self_ns") >= 0.0, "span {i}");
        if let Some(p) = field(s, "parent") {
            let parent = &spans[p as usize];
            assert!((p as usize) < i, "span {i} precedes its parent");
            assert_eq!(field(parent, "op_id"), field(s, "op_id"), "span {i}");
            assert!(
                field(s, "start_ns") >= field(parent, "start_ns"),
                "span {i}"
            );
            assert!(field(s, "end_ns") <= field(parent, "end_ns"), "span {i}");
        }
    }
    let named = |n: &str| {
        spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some(n))
    };
    for layer in [
        "hostdb.decide",
        "sched.admit",
        "server.encode",
        "server.decode",
    ] {
        assert!(named(layer), "no {layer} span on a wire workload");
    }
}

/// A benchmark that cannot fail is not checking.
#[test]
fn a_corrupted_reference_fails_every_workload() {
    for workload in WORKLOADS {
        let out = bench(
            "corrupt",
            &[
                "--workload",
                workload,
                "--seed",
                "3",
                "--quick",
                "--corrupt-reference",
            ],
        );
        assert_eq!(out.status.code(), Some(1), "{workload}");
        let line = last_line_json(&out);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(
            line.get("failed").and_then(Json::as_f64).expect("failed") > 0.0,
            "{workload}"
        );
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--workload", "tpch_serial"],
        &["--workload", "tpch_serial", "--seed", "1", "--frobnicate"],
        &["--workload", "tpch_serial", "--seed", "1", "--trace", "2"],
        &["compare", "only-one.json"],
    ] {
        let out = bench("args", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
}
