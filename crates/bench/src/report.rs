//! The exact-series report: `BENCH_baseline.json` emission and the CI
//! regression gate.
//!
//! The on-disk format is exactly one github-action-benchmark
//! `BENCHMARK_DATA` entry (the format optd and risinglight publish for
//! their TPC-H planning/execution series): a `commit` header, a `date`
//! (ms epoch), `tool: "cargo"`, and a flat `benches` array of
//! `{name, value, range, unit}`.
//!
//! A bless also appends the entry to `BENCH_history.json`, the
//! `{"entries": {"Rust Benchmark": [...]}}` file those projects keep: the
//! baseline is the one point the gate compares with, the history every
//! point a PR has blessed, oldest first.
//!
//! Every series here is **exact**: it comes from the simulated DPU (cycle
//! accounts, energy at provisioned power, DMS byte/descriptor counters)
//! or from the join-order search's deterministic counters, so two runs on
//! any machine agree bit-for-bit. The CI gate re-collects them and fails
//! on a move of more than 10 % against the committed baseline — growth is
//! a regression, a fall means the baseline no longer guards the series.
//! Host wall-clock numbers are measured by the repository benchmark
//! (`rapid_bench/`), not here.

use std::io;
use std::path::Path;

use rapid_qcomp::cost::CostParams;
use rapid_qef::exec::ExecContext;

/// One measured series point: `{name, value, range, unit}`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Bench {
    /// Slash-separated series name, e.g. `tpch/q1/execution/cycles`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Spread rendered github-action-benchmark style; always `"± 0"`,
    /// since every series is exact.
    pub range: String,
    /// Unit string: `cycles`, `joules`, `bytes`, `descriptors`, `entries`
    /// (join-order memo size) or `plans` (join orders enumerated).
    pub unit: String,
}

/// `author` / `committer` identity in the commit header.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct GitPerson {
    /// Email address.
    pub email: String,
    /// Display name.
    pub name: String,
    /// Login; unknown offline, kept for format fidelity.
    pub username: String,
}

/// The `commit` header of a `BENCHMARK_DATA` entry.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct CommitInfo {
    /// Commit author.
    pub author: GitPerson,
    /// Commit committer.
    pub committer: GitPerson,
    /// Always true for a single-entry file.
    pub distinct: bool,
    /// Commit hash (`HEAD` at collection time), or [`UNCOMMITTED`].
    pub id: String,
    /// Commit subject line; for an uncommitted tree, the commit it was
    /// measured on.
    pub message: String,
    /// Committer timestamp, ISO-8601; empty for an uncommitted tree.
    pub timestamp: String,
    /// Tree hash, or [`UNCOMMITTED`].
    pub tree_id: String,
    /// Commit URL; empty for a local-only repository.
    pub url: String,
}

/// One `BENCHMARK_DATA` entry — the whole `BENCH_<name>.json` file.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BenchmarkData {
    /// Commit the numbers were collected at.
    pub commit: CommitInfo,
    /// Collection time, milliseconds since the epoch. Informational.
    pub date: u64,
    /// Collector tag; `"cargo"`, matching the exemplar series.
    pub tool: String,
    /// The measured series.
    pub benches: Vec<Bench>,
}

/// A deterministic point: exact value, zero spread.
fn exact(name: String, value: f64, unit: &str) -> Bench {
    Bench {
        name,
        value,
        range: "± 0".to_string(),
        unit: unit.to_string(),
    }
}

/// Compile and run all eleven TPC-H queries on the simulated DPU at
/// scale factor `sf` and return their exact series: per query, the
/// join-order search's memo entries and plans considered, and the
/// execution's simulated cycles, energy joules, DMS bytes and DMS
/// descriptors — bit-identical run to run.
pub fn collect(sf: f64) -> BenchmarkData {
    let (db, _) = crate::setup_tpch(sf, ExecContext::dpu());
    let params = CostParams::default();
    let dpu = db.rapid().read();

    let mut benches = Vec::new();
    for (name, lp) in tpch::queries::all() {
        let q = name.to_lowercase();
        let compiled = rapid_qcomp::compile(&lp, dpu.catalog(), &params).expect("compile");
        benches.push(exact(
            format!("tpch/{q}/optimize/memo"),
            compiled.optimize.memo_entries as f64,
            "entries",
        ));
        benches.push(exact(
            format!("tpch/{q}/optimize/plans"),
            compiled.optimize.plans_considered as f64,
            "plans",
        ));
        let (_, report) = dpu.execute(&compiled.plan).expect("dpu run");
        benches.push(exact(
            format!("tpch/{q}/execution/cycles"),
            report.sim_cycles,
            "cycles",
        ));
        benches.push(exact(
            format!("tpch/{q}/execution/energy"),
            report.energy_joules,
            "joules",
        ));
        benches.push(exact(
            format!("tpch/{q}/execution/dms_bytes"),
            report.dms_bytes as f64,
            "bytes",
        ));
        benches.push(exact(
            format!("tpch/{q}/execution/descriptors"),
            report.dms_descriptors as f64,
            "descriptors",
        ));
    }

    BenchmarkData {
        commit: commit_info(Path::new(".")),
        date: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        tool: "cargo".to_string(),
        benches,
    }
}

/// What [`CommitInfo::id`] and [`CommitInfo::tree_id`] say of a tree that
/// is not a commit yet.
pub const UNCOMMITTED: &str = "uncommitted";

/// Best-effort commit header of the git repository at `repo`; `"unknown"`
/// fields when `git` is unavailable. A tree with changes HEAD does not
/// hold is no commit yet: its header names HEAD only as the parent it was
/// measured on, instead of claiming HEAD's id, subject and time.
pub fn commit_info(repo: &Path) -> CommitInfo {
    let git = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git")
            .current_dir(repo)
            .args(args)
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if s.is_empty() {
            None
        } else {
            Some(s)
        }
    };
    let field = |args: &[&str]| git(args).unwrap_or_else(|| "unknown".to_string());
    let person = GitPerson {
        email: field(&["log", "-1", "--pretty=%ae"]),
        name: field(&["log", "-1", "--pretty=%an"]),
        username: String::new(),
    };
    let head = field(&["rev-parse", "HEAD"]);
    let (id, message, timestamp, tree_id) = if git(&["status", "--porcelain"]).is_some() {
        (
            UNCOMMITTED.to_string(),
            format!("{UNCOMMITTED} changes on {head}"),
            String::new(),
            UNCOMMITTED.to_string(),
        )
    } else {
        (
            head,
            field(&["log", "-1", "--pretty=%s"]),
            field(&["log", "-1", "--pretty=%cI"]),
            field(&["rev-parse", "HEAD^{tree}"]),
        )
    };
    CommitInfo {
        author: person.clone(),
        committer: person,
        distinct: true,
        id,
        message,
        timestamp,
        tree_id,
        url: String::new(),
    }
}

/// Re-indent compact JSON (the vendored `serde_json` has no pretty
/// printer). String-escape aware; two-space indent.
pub fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in json.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                indent(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                indent(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                indent(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out
}

/// Write `data` as pretty JSON + trailing newline.
pub fn save(path: &Path, data: &BenchmarkData) -> io::Result<()> {
    let compact = serde_json::to_string(data).map_err(io::Error::other)?;
    let mut text = pretty(&compact);
    text.push('\n');
    std::fs::write(path, text)
}

/// Load a `BENCH_<name>.json` file.
pub fn load(path: &Path) -> io::Result<BenchmarkData> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(io::Error::other)
}

/// The history file's one series, named as github-action-benchmark names a
/// Rust benchmark's.
const HISTORY_SERIES: &str = "Rust Benchmark";

/// `BENCH_history.json`: every blessed entry, oldest first.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct History {
    /// Entries by series name; this repository has [`HISTORY_SERIES`].
    pub entries: std::collections::BTreeMap<String, Vec<BenchmarkData>>,
}

/// Append `blessed` to the history at `path`. A history that does not exist
/// yet starts with `replaced`, the baseline the bless overwrote: the point
/// before the first one recorded is not lost.
pub fn append_history(
    path: &Path,
    replaced: Option<BenchmarkData>,
    blessed: &BenchmarkData,
) -> io::Result<usize> {
    let mut history = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(io::Error::other)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let mut history = History::default();
            history
                .entries
                .insert(HISTORY_SERIES.to_string(), replaced.into_iter().collect());
            history
        }
        Err(e) => return Err(e),
    };
    let entries = history
        .entries
        .entry(HISTORY_SERIES.to_string())
        .or_default();
    entries.push(blessed.clone());
    let len = entries.len();
    let compact = serde_json::to_string(&history).map_err(io::Error::other)?;
    let mut text = pretty(&compact);
    text.push('\n');
    std::fs::write(path, text)?;
    Ok(len)
}

/// Outcome of one gate comparison.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Baseline series compared.
    pub checked: usize,
    /// Of those, how many the current run reproduced bit-for-bit.
    pub equal: usize,
    /// Human-readable failure lines; empty means the gate passes.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// True when every baseline series stayed within tolerance.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare `current` against every series of `baseline`.
///
/// A series fails when it moved by more than `tolerance` (e.g. `0.10`)
/// from the baseline value in either direction, or when it disappeared
/// from `current`. Growth is a regression. A fall is a stale baseline: it
/// would let a later regression of the same size pass unseen, so it fails
/// too, asking for the baseline to be blessed. Series in `current` that
/// the baseline lacks are ignored — bless the baseline to start tracking
/// them.
pub fn compare(baseline: &BenchmarkData, current: &BenchmarkData, tolerance: f64) -> GateOutcome {
    let mut failures = Vec::new();
    let mut equal = 0usize;
    for base in &baseline.benches {
        let Some(cur) = current.benches.iter().find(|b| b.name == base.name) else {
            failures.push(format!(
                "{}: gated metric missing from current run (baseline {} {})",
                base.name, base.value, base.unit
            ));
            continue;
        };
        equal += usize::from(cur.value == base.value);
        let verdict = if cur.value > base.value * (1.0 + tolerance) {
            "regression"
        } else if cur.value < base.value * (1.0 - tolerance) {
            "stale baseline (bless to keep gating this series)"
        } else {
            continue;
        };
        let pct = if base.value > 0.0 {
            (cur.value / base.value - 1.0) * 100.0
        } else {
            f64::INFINITY
        };
        failures.push(format!(
            "{}: {verdict} {:+.1}% ({} -> {} {}, tolerance {:.0}%)",
            base.name,
            pct,
            base.value,
            cur.value,
            base.unit,
            tolerance * 100.0
        ));
    }
    GateOutcome {
        checked: baseline.benches.len(),
        equal,
        failures,
    }
}
