//! The regression gate, tested against itself: a rise of one unit must
//! fail naming the offending metric, a fall passes and float noise is no
//! move, a bless takes only what fell and what it is told to accept, the
//! collected series must be bit-identical across two collections, and an
//! entry measured on an uncommitted tree needs a label and does not claim
//! HEAD as its commit.

use std::path::Path;
use std::process::Command;

use rapid_report::report::{
    bless, collect, commit_info, compare, load, save, Bench, BenchmarkData, CommitInfo, UNCOMMITTED,
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
fn a_rise_of_one_unit_fails_naming_the_metric() {
    let baseline = data(vec![
        gated("tpch/q1/execution/cycles", 100_000.0),
        gated("tpch/q10/execution/descriptors", 1_104.0),
    ]);
    let mut current = baseline.clone();
    current.benches[1].value = 1_105.0;

    let out = compare(&baseline, &current);
    assert!(!out.passed());
    assert_eq!((out.checked, out.equal), (2, 1), "q1 is unchanged");
    assert_eq!(out.rose, ["tpch/q10/execution/descriptors"]);
    assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    assert!(
        out.failures[0].contains("tpch/q10/execution/descriptors: regression +0.1% (1104 -> 1105"),
        "failure must name and quantify the rise: {}",
        out.failures[0]
    );
}

#[test]
fn a_fall_passes_and_is_listed() {
    // A 10x improvement passes; it is printed for a bless to take.
    let baseline = data(vec![
        gated("tpch/q9/execution/cycles", 21_950_000.0),
        gated("tpch/q9/execution/dms_bytes", 7_000_000.0),
    ]);
    let mut current = baseline.clone();
    current.benches[0].value = 1_320_000.0; // -94%

    let out = compare(&baseline, &current);
    assert!(out.passed(), "{:?}", out.failures);
    assert_eq!((out.checked, out.equal), (2, 1));
    assert_eq!(out.fell.len(), 1, "{:?}", out.fell);
    assert!(
        out.fell[0].contains("tpch/q9/execution/cycles: fell -94.0%"),
        "{}",
        out.fell[0]
    );
}

#[test]
fn float_noise_is_no_move() {
    // A sum taken in another order moves by an ulp: not a change.
    let baseline = data(vec![gated("tpch/q5/execution/cycles", 145_157.01)]);
    let mut current = baseline.clone();
    current.benches[0].value = f64::from_bits(145_157.01f64.to_bits() + 1);
    let out = compare(&baseline, &current);
    assert!(out.passed(), "{:?}", out.failures);
    assert_eq!((out.equal, out.fell.len()), (0, 0));
}

#[test]
fn missing_gated_metric_fails() {
    let baseline = data(vec![
        gated("tpch/q1/execution/cycles", 100_000.0),
        gated("tpch/q3/execution/cycles", 200_000.0),
    ]);
    let current = data(vec![gated("tpch/q1/execution/cycles", 100_000.0)]);

    let out = compare(&baseline, &current);
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

    let out = compare(&baseline, &current);
    assert!(out.passed(), "{:?}", out.failures);
    assert_eq!((out.checked, out.equal), (1, 1));
}

#[test]
fn a_bless_takes_what_fell_and_a_rise_only_where_it_is_accepted() {
    let baseline = data(vec![
        gated("a", 100.0),
        gated("b", 100.0),
        gated("c", 100.0),
        gated("d", 145_157.01),
    ]);
    let mut current = data(vec![
        gated("a", 90.0),
        gated("b", 101.0),
        gated("c", 100.0),
        gated("d", f64::from_bits(145_157.01f64.to_bits() + 1)),
        gated("e", 7.0),
    ]);
    current.commit.message = "run 9".into();
    let values = |d: &BenchmarkData| d.benches.iter().map(|b| b.value).collect::<Vec<_>>();

    // The rise of b is refused until it is named; nothing is written.
    let refused = bless(Some(&baseline), &current, &[]).unwrap_err();
    assert_eq!(refused.len(), 1, "{refused:?}");
    assert!(refused[0].starts_with("b: rose"), "{refused:?}");
    // Naming a series that did not rise is refused too.
    let wrong = [("a".to_string(), "faster".to_string())];
    let refused = bless(Some(&baseline), &current, &wrong).unwrap_err();
    assert!(refused
        .iter()
        .any(|r| r.starts_with("a: accepted, but it did not rise")));

    let accepted = [("b".to_string(), "one more gather pass".to_string())];
    let blessed = bless(Some(&baseline), &current, &accepted).unwrap();
    // a fell, b is accepted, c is equal, d moved by noise and keeps its
    // value, e is new.
    assert_eq!(values(&blessed), [90.0, 101.0, 100.0, 145_157.01, 7.0]);
    assert_eq!(
        blessed.commit.message,
        "run 9; accepted b: one more gather pass"
    );
    // No baseline yet: everything is taken.
    assert_eq!(
        values(&bless(None, &current, &[]).unwrap()),
        values(&current)
    );
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
    let out = compare(&loaded, &regressed);
    assert!(!out.passed());
    assert!(out.failures[0].contains("tpch/q1/execution/cycles"));

    let same = compare(&loaded, &baseline);
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
    let out = compare(&a, &b);
    assert_eq!((out.checked, out.equal), (66, 66));
}

/// A bless runs before its change is committed: what it measured is HEAD
/// plus the changes, so its entry must not carry HEAD's id, subject or
/// tree. Such an entry needs a label, which it carries as its id, naming
/// HEAD only as the commit it was measured on; without one it is refused.
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

    let clean = commit_info(Path::new(&repo), None).unwrap();
    assert_eq!(
        (clean.id.as_str(), clean.message.as_str()),
        (head.as_str(), "the parent")
    );
    assert_eq!(clean.tree_id, git(&["rev-parse", "HEAD^{tree}"]));
    let named = commit_info(Path::new(&repo), Some("run 7")).unwrap();
    assert_eq!(
        (named.id, named.message),
        (head.clone(), "run 7".to_string())
    );

    std::fs::write(repo.join("engine.rs"), "fn b() {}\n").unwrap();
    let refused = commit_info(Path::new(&repo), None).unwrap_err();
    assert!(
        refused.contains("--label") && refused.contains(&head),
        "{refused}"
    );
    let dirty = commit_info(Path::new(&repo), Some("run 8")).unwrap();
    assert_eq!(
        (dirty.id.as_str(), dirty.tree_id.as_str()),
        ("run 8", UNCOMMITTED)
    );
    assert_eq!(
        dirty.message,
        format!("run 8 (uncommitted changes on {head})")
    );
    assert!(dirty.timestamp.is_empty());
    std::fs::remove_dir_all(&repo).ok();
}
