//! `compare <a.json> <b.json>`: one verdict per workload and end-to-end
//! metric between two result files written by `run --out`.

use crate::json::Json;
use crate::metrics::{Better, Clock, Def, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between a run's own blocks is wider than the bound, so
    /// the two medians cannot be told apart.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the baseline `a`. An exact metric is compared for
/// equality; a host metric moves only beyond its bound, and only when the
/// wider of the two runs' spreads is within that bound.
pub fn verdict(def: &Def, a: f64, b: f64, spread: f64) -> Verdict {
    let worsening = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    } / a.abs().max(f64::MIN_POSITIVE);
    match def.clock {
        Clock::Exact if a == b => Verdict::Unchanged,
        Clock::Exact if worsening > 0.0 => Verdict::Regressed,
        Clock::Exact => Verdict::Improved,
        Clock::Host if spread > def.bound => Verdict::Unresolved,
        Clock::Host if worsening > def.bound => Verdict::Regressed,
        Clock::Host if worsening < -def.bound => Verdict::Improved,
        Clock::Host => Verdict::Unchanged,
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn metric(file: &Json, workload: &str, name: &str) -> Option<(f64, f64)> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)?;
    let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
    Some((m.get("value")?.as_f64()?, spread))
}

/// Every workload × end-to-end metric present in both files.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for def in &END_TO_END {
            if let (Some((va, sa)), Some((vb, sb))) =
                (metric(a, workload, def.name), metric(b, workload, def.name))
            {
                rows.push(Row {
                    workload,
                    metric: def.name,
                    a: va,
                    b: vb,
                    verdict: verdict(def, va, vb, sa.max(sb)),
                });
            }
        }
    }
    rows
}

/// Print the table; the exit code is non-zero when anything regressed or
/// stayed unresolved, or when the files share no metric.
pub fn main(a_path: &str, b_path: &str) -> Result<i32, String> {
    let read = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    if a.get("seed") != b.get("seed") || a.get("quick") != b.get("quick") {
        println!("note: the two files differ in seed or size; exact metrics compare only within one seed");
    }
    let rows = compare(&a, &b);
    for r in &rows {
        println!(
            "{} {} {} -> {} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.verdict.as_str()
        );
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Unresolved))
        .count();
    println!("{} compared, {bad} regressed or unresolved", rows.len());
    Ok(i32::from(bad > 0 || rows.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static Def {
        END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("declared")
    }

    /// A host-clock metric with a tenth as its bound, in either direction.
    fn host(better: Better) -> Def {
        Def {
            name: "host",
            unit: "ms",
            better,
            clock: Clock::Host,
            bound: 0.10,
        }
    }

    #[test]
    fn host_metrics_move_only_beyond_their_bound() {
        let qps = host(Better::Higher);
        assert_eq!(verdict(&qps, 100.0, 80.0, 0.02), Verdict::Regressed);
        assert_eq!(verdict(&qps, 100.0, 95.0, 0.02), Verdict::Unchanged);
        assert_eq!(verdict(&qps, 100.0, 105.0, 0.02), Verdict::Unchanged);
        assert_eq!(verdict(&qps, 100.0, 125.0, 0.02), Verdict::Improved);
        let latency = host(Better::Lower);
        assert_eq!(verdict(&latency, 1.0, 1.2, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&latency, 1.0, 1.05, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(&latency, 1.0, 0.8, 0.0), Verdict::Improved);
    }

    #[test]
    fn a_wide_spread_is_unresolved_whatever_the_medians_say() {
        let qps = host(Better::Higher);
        assert_eq!(verdict(&qps, 100.0, 80.0, 0.15), Verdict::Unresolved);
        assert_eq!(verdict(&qps, 100.0, 100.0, 0.15), Verdict::Unresolved);
    }

    #[test]
    fn any_simulated_delta_is_flagged() {
        let cycles = def("sim_cycles_per_op");
        assert_eq!(verdict(cycles, 1e6, 1e6, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(cycles, 1e6, 1e6 + 1.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(cycles, 1e6, 1e6 - 1.0, 0.0), Verdict::Improved);
    }

    #[test]
    fn files_compare_metric_by_metric() {
        let file = |allocs: f64, cycles: f64| {
            Json::parse(&format!(
                r#"{{"seed": 1, "workloads": {{"tpch_serial": {{"end_to_end": {{
                    "host_allocs_per_op": {{"value": {allocs}, "unit": "count", "spread": 0.01}},
                    "sim_cycles_per_op": {{"value": {cycles}, "unit": "cycles", "spread": 0}}}}}}}}}}"#
            ))
            .expect("valid")
        };
        let rows = compare(&file(10.0, 5.0), &file(12.0, 5.0));
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("host_allocs_per_op", Verdict::Regressed)
        );
        assert_eq!(
            (rows[1].metric, rows[1].verdict),
            ("sim_cycles_per_op", Verdict::Unchanged)
        );
    }
}
