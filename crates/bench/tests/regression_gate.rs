//! The regression gate, tested against itself: injected regressions must
//! fail naming the offending metric, small drift must pass, the collected
//! series must be bit-identical across two collections, and an entry
//! measured on an uncommitted tree does not claim HEAD as its commit.

use std::path::Path;
use std::process::Command;

use rapid_report::report::{
    collect, commit_info, compare, load, save, Bench, BenchmarkData, CommitInfo, UNCOMMITTED,
};

fn gated(name: &str, value: f64) -> Bench {
    Bench {
        name: name.to_string(),
        value,
        range: "± 0".to_string(),
        unit: "cycles".to_string(),
    }
}

fn data(benches: Vec<Bench>) -> BenchmarkData {
    BenchmarkData {
        commit: CommitInfo::default(),
        date: 0,
        tool: "cargo".to_string(),
        benches,
    }
}

#[test]
fn injected_20pct_regression_fails_naming_the_metric() {
    let baseline = data(vec![
        gated("tpch/q1/execution/cycles", 100_000.0),
        gated("tpch/q6/execution/cycles", 50_000.0),
    ]);
    let mut current = baseline.clone();
    current.benches[1].value = 60_000.0; // +20% on q6 cycles

    let out = compare(&baseline, &current, 0.10);
    assert!(!out.passed());
    assert_eq!(out.checked, 2);
    assert_eq!(out.equal, 1, "q1 is unchanged");
    assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    assert!(
        out.failures[0].contains("tpch/q6/execution/cycles"),
        "failure must name the offending metric: {}",
        out.failures[0]
    );
    assert!(
        out.failures[0].contains("20.0%"),
        "failure must quantify the regression: {}",
        out.failures[0]
    );
}

#[test]
fn sub_tolerance_drift_passes() {
    let baseline = data(vec![
        gated("tpch/q1/execution/cycles", 100_000.0),
        gated("tpch/q1/execution/energy", 2.5),
    ]);
    let mut current = baseline.clone();
    current.benches[0].value = 109_000.0; // +9%: inside the 10% tolerance
    current.benches[1].value = 2.3; // -8%: a small improvement is fine

    let out = compare(&baseline, &current, 0.10);
    assert!(out.passed(), "{:?}", out.failures);
    assert_eq!(out.checked, 2);
    assert_eq!(out.equal, 0, "within tolerance is not the same as equal");
}

#[test]
fn a_series_far_below_its_baseline_fails_asking_for_a_bless() {
    // A stale baseline passes silently otherwise: after a 10x improvement
    // a later 9x regression would still read "below baseline".
    let baseline = data(vec![
        gated("tpch/q9/execution/cycles", 21_950_000.0),
        gated("tpch/q9/execution/dms_bytes", 7_000_000.0),
    ]);
    let mut current = baseline.clone();
    current.benches[0].value = 1_320_000.0; // -94%

    let out = compare(&baseline, &current, 0.10);
    assert!(!out.passed());
    assert_eq!((out.checked, out.equal), (2, 1));
    assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    let f = &out.failures[0];
    assert!(f.contains("tpch/q9/execution/cycles"), "{f}");
    assert!(f.contains("-94.0%") && f.contains("bless"), "{f}");
}

#[test]
fn missing_gated_metric_fails() {
    let baseline = data(vec![
        gated("tpch/q1/execution/cycles", 100_000.0),
        gated("tpch/q3/execution/cycles", 200_000.0),
    ]);
    let current = data(vec![gated("tpch/q1/execution/cycles", 100_000.0)]);

    let out = compare(&baseline, &current, 0.10);
    assert!(!out.passed());
    assert_eq!(out.failures.len(), 1);
    assert!(
        out.failures[0].contains("tpch/q3/execution/cycles") && out.failures[0].contains("missing"),
        "{}",
        out.failures[0]
    );
}

#[test]
fn series_absent_from_the_baseline_are_ignored() {
    let baseline = data(vec![gated("tpch/q1/execution/cycles", 100_000.0)]);
    let mut current = baseline.clone();
    current
        .benches
        .push(gated("tpch/q19/execution/cycles", 1.0e9)); // not in baseline

    let out = compare(&baseline, &current, 0.10);
    assert!(out.passed(), "{:?}", out.failures);
    assert_eq!((out.checked, out.equal), (1, 1));
}

#[test]
fn gate_roundtrips_through_disk_like_ci_does() {
    // The ci.sh flow in miniature: save a baseline, load it back, compare
    // an injected regression against it.
    let baseline = data(vec![gated("tpch/q1/execution/cycles", 100_000.0)]);
    let dir = std::env::temp_dir().join("rapid_gate_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_scratch.json");
    save(&path, &baseline).unwrap();
    let loaded = load(&path).unwrap();
    assert_eq!(loaded.benches, baseline.benches);

    let regressed = data(vec![gated("tpch/q1/execution/cycles", 125_000.0)]);
    let out = compare(&loaded, &regressed, 0.10);
    assert!(!out.passed());
    assert!(out.failures[0].contains("tpch/q1/execution/cycles"));

    let same = compare(&loaded, &baseline, 0.10);
    assert!(same.passed(), "{:?}", same.failures);
    std::fs::remove_file(&path).ok();
}

/// Two consecutive collections must agree bit-for-bit on every series —
/// the property the whole gate rests on.
#[test]
fn deterministic_series_is_bit_identical_across_runs() {
    let a = collect(0.002);
    let b = collect(0.002);

    // 11 queries x 6 series each (4 execution + 2 optimize).
    assert_eq!(a.benches.len(), 66);
    assert_eq!(a.benches, b.benches, "series must be bit-identical");
    assert_eq!(
        serde_json::to_string(&a.benches).unwrap(),
        serde_json::to_string(&b.benches).unwrap()
    );
    let out = compare(&a, &b, 0.0);
    assert_eq!((out.checked, out.equal), (66, 66));
}

/// A bless runs before its change is committed: what it measured is HEAD
/// plus the changes, so its entry must not carry HEAD's id, subject or
/// tree — only name HEAD as the commit it was measured on.
#[test]
fn an_uncommitted_tree_is_not_labelled_as_head() {
    let repo = std::env::temp_dir().join(format!("rapid_bless_label_{}", std::process::id()));
    std::fs::create_dir_all(&repo).unwrap();
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .current_dir(&repo)
            .args(["-c", "user.name=t", "-c", "user.email=t@t"])
            .args(["-c", "commit.gpgsign=false"])
            .args(args)
            .output()
            .expect("git runs");
        assert!(out.status.success(), "git {args:?}: {out:?}");
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    git(&["init", "-q"]);
    std::fs::write(repo.join("engine.rs"), "fn a() {}\n").unwrap();
    git(&["add", "engine.rs"]);
    git(&["commit", "-q", "-m", "the parent"]);
    let head = git(&["rev-parse", "HEAD"]);

    let clean = commit_info(Path::new(&repo));
    assert_eq!(
        (clean.id.as_str(), clean.message.as_str()),
        (head.as_str(), "the parent")
    );
    assert_eq!(clean.tree_id, git(&["rev-parse", "HEAD^{tree}"]));

    std::fs::write(repo.join("engine.rs"), "fn b() {}\n").unwrap();
    let dirty = commit_info(Path::new(&repo));
    assert_eq!(
        (dirty.id.as_str(), dirty.tree_id.as_str()),
        (UNCOMMITTED, UNCOMMITTED)
    );
    assert_eq!(dirty.message, format!("uncommitted changes on {head}"));
    assert!(dirty.timestamp.is_empty());
    std::fs::remove_dir_all(&repo).ok();
}
