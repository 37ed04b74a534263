//! The `rapid-report` command line, driven as a process: every subcommand
//! is reachable, malformed command lines exit 2 naming what was wrong, and
//! `gate` fails by name on a grown or vanished series.

use std::process::{Command, Output};

use rapid_report::report::{load, save};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rapid-report"))
        .args(args)
        .output()
        .expect("spawn rapid-report")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn every_subcommand_runs() {
    let out = run(&["figures", "fig8"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("=== Figure 8"));

    let out = run(&["trace", "--sf", "0.002", "--query", "q6"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).starts_with("{\"query\":\"Q6\""));

    let out = run(&["verify", "--sf", "0.002"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("all plans PASS"));

    let out = run(&[
        "schedcheck",
        "--sf",
        "0.002",
        "--queries",
        "3",
        "--mutations",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("all schedules PASS"));
    assert!(!stdout(&out).contains("SURVIVED"));

    // Declared, stored, needed bytes and bits of a code and a date, and a
    // statement's scan bytes against its floor.
    let out = run(&["widths", "--sf", "0.002"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let row = |prefix: &str| -> Vec<String> {
        let line = text.lines().find(|l| l.starts_with(prefix));
        let line = line.unwrap_or_else(|| panic!("no {prefix} row in:\n{text}"));
        line.split_whitespace().map(String::from).collect()
    };
    assert_eq!(row("lineitem.l_returnflag")[1..5], ["4", "1", "1", "2"]);
    assert_eq!(row("orders.o_orderdate")[1..5], ["4", "2", "2", "12"]);
    let q1: Vec<f64> = row("Q1 ")[1..].iter().map(|v| v.parse().unwrap()).collect();
    let [scans, rows, moved, floor, ratio] = q1[..] else {
        panic!("{q1:?}")
    };
    assert_eq!(scans, 1.0);
    assert!(rows > 0.0 && moved > floor && floor > 0.0, "{q1:?}");
    assert!((ratio - moved / floor).abs() < 0.01, "{q1:?}");
    // `gate` is covered by gate_blesses_passes_and_fails_by_name.
}

#[test]
fn help_lists_every_subcommand() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    for sub in ["figures", "trace", "verify", "schedcheck", "widths", "gate"] {
        assert!(
            stdout(&out).contains(&format!("\n  {sub} ")),
            "--help must list {sub}"
        );
    }
}

#[test]
fn malformed_command_lines_exit_2_naming_the_problem() {
    for (args, needle) in [
        (&["frobnicate"][..], "frobnicate"),
        (&[][..], "missing subcommand"),
        (&["verify", "--sf", "abc"][..], "--sf"),
        (&["figures", "--sf"][..], "--sf"),
        (&["schedcheck", "--queries", "many"][..], "--queries"),
        (&["verify", "--bogus"][..], "--bogus"),
        (&["figures", "fig99"][..], "fig99"),
        (&["trace", "--query", "Q2"][..], "Q2"),
        (&["trace", "Q6"][..], "Q6"),
        (&["widths", "--sf", "abc"][..], "--sf"),
        (&["widths", "Q1"][..], "Q1"),
        (&["gate"][..], "baseline.json"),
        (&["gate", "a.json", "b.json"][..], "baseline.json"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).lines().next().unwrap_or("").contains(needle),
            "{args:?} must name '{needle}': {}",
            stderr(&out)
        );
    }
    // An unreadable baseline is also exit 2, not a gate verdict.
    let out = run(&["gate", "/nonexistent/BENCH_baseline.json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn gate_blesses_passes_and_fails_by_name() {
    let dir = std::env::temp_dir().join(format!("rapid_report_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_scratch.json");
    let file = path.to_str().unwrap();

    let out = run(&["gate", file, "--sf", "0.002", "--bless", "--label", "t"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let blessed = load(&path).unwrap();
    assert_eq!(blessed.benches.len(), 66);
    // A bless is also a point of the trajectory: it lands in the history
    // beside the baseline — after the baseline it replaced, where the
    // history starts here — and the next one after it.
    let history_path = dir.join("BENCH_history.json");
    let history = || -> Vec<Vec<f64>> {
        let text = std::fs::read_to_string(&history_path).unwrap();
        let history: rapid_report::report::History = serde_json::from_str(&text).unwrap();
        assert_eq!(history.entries.len(), 1, "one series");
        let entries = &history.entries["Rust Benchmark"];
        let values = |e: &rapid_report::report::BenchmarkData| {
            assert_eq!(e.benches.len(), 66);
            e.benches.iter().map(|b| b.value).collect()
        };
        entries.iter().map(values).collect()
    };
    let first: Vec<f64> = blessed.benches.iter().map(|b| b.value).collect();
    assert_eq!(
        history(),
        std::slice::from_ref(&first),
        "nothing was replaced"
    );
    let mut older = blessed.clone();
    older.benches[2].value *= 2.0;
    save(&path, &older).unwrap();
    std::fs::remove_file(&history_path).unwrap();
    let out = run(&["gate", file, "--sf", "0.002", "--bless", "--label", "t"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("BENCH_history.json (2 entries)"));
    let replaced: Vec<f64> = older.benches.iter().map(|b| b.value).collect();
    assert_eq!(history(), [replaced.clone(), first.clone()]);
    let out = run(&["gate", file, "--sf", "0.002", "--bless", "--label", "t"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(history(), [replaced, first.clone(), first]);

    let out = run(&["gate", file, "--sf", "0.002"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("66 gated metrics checked"));
    assert!(stdout(&out).contains("66 equal"), "{}", stdout(&out));
    assert!(stdout(&out).contains("gate: PASS"));

    // The run now looks 20 % above one baseline series, and the baseline
    // tracks a series the run no longer produces.
    let mut doctored = blessed.clone();
    let q6 = doctored
        .benches
        .iter_mut()
        .find(|b| b.name == "tpch/q6/execution/cycles")
        .unwrap();
    q6.value /= 1.2;
    let mut vanished = doctored.benches[0].clone();
    vanished.name = "tpch/q2/execution/cycles".to_string();
    doctored.benches.push(vanished);
    save(&path, &doctored).unwrap();

    let out = run(&["gate", file, "--sf", "0.002"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("gate: FAIL tpch/q6/execution/cycles: regression +20.0%"),
        "{text}"
    );
    assert!(
        text.contains("gate: FAIL tpch/q2/execution/cycles: gated metric missing"),
        "{text}"
    );
    assert!(text.contains("gate: 2 failure(s)"), "{text}");
    assert!(text.contains("65 equal"), "{text}");

    // A bless takes a rise only where it is named with a reason, and the
    // reason goes into the history entry.
    let bless = |extra: &[&str]| {
        let mut args = vec!["gate", file, "--sf", "0.002", "--bless", "--label", "t"];
        args.extend_from_slice(extra);
        run(&args)
    };
    let out = bless(&[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("gate: REFUSED tpch/q6/execution/cycles: rose"),
        "{}",
        stdout(&out)
    );
    assert_eq!(
        load(&path).unwrap().benches,
        doctored.benches,
        "nothing written"
    );
    let out = bless(&["--accept", "tpch/q6/execution/cycles=measured again"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let history = std::fs::read_to_string(&history_path).unwrap();
    assert!(
        history.contains("; accepted tpch/q6/execution/cycles: measured again\""),
        "{history}"
    );
    let out = run(&["gate", file, "--sf", "0.002"]);
    assert!(stdout(&out).contains("66 equal"), "{}", stdout(&out));
    // --label and --accept belong to a bless; an --accept needs a reason.
    for args in [
        &["gate", file, "--label", "t"][..],
        &[
            "gate",
            file,
            "--bless",
            "--accept",
            "tpch/q6/execution/cycles",
        ][..],
    ] {
        assert_eq!(run(args).status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
