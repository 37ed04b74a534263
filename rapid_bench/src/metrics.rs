//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; the integration test keeps
//! the two in step.

use std::collections::BTreeMap;

use crate::json::quote;

/// The five workloads, in the order they run.
pub const WORKLOADS: [&str; 5] = [
    "tpch_serial",
    "sched_batch",
    "wire_point_prepared",
    "wire_adhoc_wide",
    "dml_refresh",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock, host memory, or a simulated figure that depends on
    /// host thread order: noisy, compared within a bound.
    Host,
    /// The simulated DPU's clock or another count that repeats bit for bit
    /// for one seed: any difference between two commits is a real change.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before the change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> Def {
    Def {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Def {
    e2e(name, unit, better, clock, 0.0)
}

use Better::{Higher, Lower};
use Clock::{Exact, Host};

pub const END_TO_END: [Def; 6] = [
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("host_allocs_per_op", "count", Lower, Host, 0.02),
    e2e("host_alloc_kb_per_op", "KiB", Lower, Host, 0.02),
    e2e("sim_cycles_per_op", "cycles", Lower, Exact, 0.03),
    e2e("sim_dms_bytes_per_op", "bytes", Lower, Exact, 0.03),
    e2e("peak_rss_mb", "MiB", Lower, Host, 0.10),
];

pub const PER_LAYER: [Def; 56] = [
    layer("tpch.generate_s", "s", Lower, Host),
    layer("hostdb.bulk_insert_s", "s", Lower, Host),
    layer("storage.load_s", "s", Lower, Host),
    layer("storage.load_krows_per_s", "krows/s", Higher, Host),
    layer("storage.load_scaling_ratio", "ratio", Lower, Host),
    layer("storage.bytes_per_row", "bytes", Lower, Exact),
    layer("hostdb.parse_us", "us", Lower, Host),
    layer("hostdb.plan_cache_hit_ratio", "ratio", Higher, Exact),
    layer(
        "hostdb.plan_cache_invalidations_per_op",
        "count",
        Lower,
        Exact,
    ),
    layer("hostdb.decide_us", "us", Lower, Host),
    layer("hostdb.offload_ratio", "ratio", Higher, Exact),
    layer("hostdb.decode_ns_per_row", "ns/row", Lower, Host),
    layer("hostdb.execute_sql_us", "us", Lower, Host),
    layer("hostdb.volcano_us", "us", Lower, Host),
    layer("hostdb.commit_us", "us", Lower, Host),
    layer("hostdb.checkpoint_ms", "ms", Lower, Host),
    layer("qcomp.compile_us", "us", Lower, Host),
    layer("qcomp.plans_considered_per_op", "count", Lower, Exact),
    layer("qcomp.memo_entries_per_op", "count", Lower, Exact),
    layer("verify.check_us", "us", Lower, Host),
    layer("qef.execute_ms", "ms", Lower, Host),
    layer("qef.host_ns_per_sim_cycle", "ns", Lower, Host),
    layer("qef.native_over_dpu_ratio", "ratio", Lower, Host),
    layer("qef.stages_per_op", "count", Lower, Exact),
    layer("qef.tiles_per_op", "count", Lower, Exact),
    layer("qef.result_rows_per_op", "count", Lower, Exact),
    layer("dpu-sim.compute_cycles_share", "ratio", Lower, Exact),
    layer("dpu-sim.dms_cycles_share", "ratio", Lower, Exact),
    layer("dpu-sim.dms_descriptors_per_op", "count", Lower, Exact),
    layer("dpu-sim.instructions_per_op", "count", Lower, Exact),
    layer("dpu-sim.dmem_peak_bytes", "bytes", Lower, Exact),
    layer("dpu-sim.energy_uj_per_op", "uJ", Lower, Exact),
    layer("sched.admit_us", "us", Lower, Host),
    layer("sched.core_utilization", "ratio", Higher, Host),
    layer("sched.dms_utilization", "ratio", Higher, Host),
    layer("sched.queued_cycles_per_op", "cycles", Lower, Host),
    layer("sched.batch_over_serial_ratio", "ratio", Lower, Host),
    layer("server.encode_ns_per_row", "ns/row", Lower, Host),
    layer("server.decode_ns_per_row", "ns/row", Lower, Host),
    layer("server.wire_bytes_per_row", "bytes", Lower, Exact),
    layer("server.frames_per_op", "count", Lower, Exact),
    layer("server.roundtrip_overhead_us", "us", Lower, Host),
    layer("server.latency_growth_ratio", "ratio", Lower, Host),
    layer("server.connect_ms", "ms", Lower, Host),
    layer("loadgen.setup_wall_s", "s", Lower, Host),
    layer("loadgen.cpu_ms_per_op", "ms", Lower, Host),
    layer("loadgen.wall_qps", "ops/s", Higher, Host),
    layer("loadgen.latency_p50_ms", "ms", Lower, Host),
    layer("loadgen.latency_tail_ms", "ms", Lower, Host),
    layer("loadgen.tail_percentile", "%", Higher, Exact),
    layer("loadgen.samples", "count", Higher, Exact),
    layer("loadgen.block_qps_spread", "ratio", Lower, Host),
    layer("loadgen.failed_op_ratio", "ratio", Lower, Exact),
    layer("loadgen.reference_s", "s", Lower, Host),
    layer("trace.coverage_ratio", "ratio", Higher, Host),
    layer("trace.overhead_ratio", "ratio", Lower, Host),
];

/// Measured values of one metric table, keyed by declared name. A layer a
/// workload never reaches keeps the value 0.
#[derive(Debug, Clone)]
pub struct Values {
    defs: &'static [Def],
    /// name → (value, spread as a share of the value; 0 when not sampled)
    vals: BTreeMap<&'static str, (f64, f64)>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Values {
        Values {
            defs,
            vals: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_with_spread(name, value, 0.0);
    }

    pub fn set_with_spread(&mut self, name: &'static str, value: f64, spread: f64) {
        assert!(
            self.defs.iter().any(|d| d.name == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.vals.insert(name, (value, spread));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.vals.get(name).map_or(0.0, |v| v.0)
    }

    /// `(definition, value, spread)` for every declared metric, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64, f64)> + '_ {
        self.defs.iter().map(|d| {
            let (v, s) = self.vals.get(d.name).copied().unwrap_or((0.0, 0.0));
            (d, v, s)
        })
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` — the driver's shape.
    pub fn to_json(&self, with_spread: bool) -> String {
        let items: Vec<String> = self
            .iter()
            .map(|(d, v, s)| {
                let spread = if with_spread {
                    format!(", \"spread\": {s}")
                } else {
                    String::new()
                };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}{spread}}}",
                    quote(d.name),
                    quote(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Everything one workload's process reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    /// Present after a traced run.
    pub per_layer: Option<Values>,
}

impl Report {
    /// The driver's result line for one run: end-to-end metrics untraced,
    /// per-layer metrics traced.
    pub fn driver_line(&self) -> String {
        let metrics = self.per_layer.as_ref().unwrap_or(&self.end_to_end);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.to_json(false)
        )
    }

    /// The result-file entry `run` collects from each workload's process.
    pub fn full_json(&self) -> String {
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            self.attempted,
            self.failed,
            self.end_to_end.to_json(true),
            self.per_layer
                .as_ref()
                .map_or("{}".to_string(), |v| v.to_json(false))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound <= setup.bound && d.bound <= 0.25));
    }

    #[test]
    fn unset_layers_read_zero_and_lines_parse() {
        let mut e = Values::new(&END_TO_END);
        e.set_with_spread("host_allocs_per_op", 123.456, 0.02);
        let report = Report {
            attempted: 10,
            failed: 0,
            end_to_end: e,
            per_layer: None,
        };
        let line = Json::parse(&report.driver_line()).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let m = line.get("metrics").expect("metrics");
        assert_eq!(m.as_obj().map(<[_]>::len), Some(END_TO_END.len()));
        assert_eq!(
            m.get("host_allocs_per_op")
                .and_then(|q| q.get("value"))
                .and_then(Json::as_f64),
            Some(123.456)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|q| q.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        let full = Json::parse(&report.full_json()).expect("valid JSON");
        assert_eq!(
            full.get("end_to_end")
                .and_then(|e| e.get("host_allocs_per_op"))
                .and_then(|q| q.get("spread"))
                .and_then(Json::as_f64),
            Some(0.02)
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_a_bug() {
        Values::new(&PER_LAYER).set("qef.execute_msec", 1.0);
    }
}
