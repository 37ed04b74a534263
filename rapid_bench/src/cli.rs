//! The command line.
//!
//! ```text
//! rapid_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rapid_bench run --seed <n> [--workload <name>] [--quick] [--out <file>]
//! rapid_bench compare <a.json> <b.json>
//! ```
//!
//! The first form is the driver contract of `BENCHMARK.json`: one workload
//! in this process, the result as one JSON object on the last line of
//! standard output. `run` starts that form once per workload, each in a
//! process of its own so that `peak_rss_mb` is the workload's alone, and
//! prints every metric as `workload metric value unit`.

use std::collections::HashMap;
use std::process::Command;

use crate::json::{quote, Json};
use crate::metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::run_workload;
use crate::workloads::Config;

/// `run_seconds` of `BENCHMARK.json`: the per-block operation counts are
/// sized so that the timed blocks take about this long on the reference box.
pub const RUN_SECONDS: f64 = 4.0;

const SF: f64 = 0.02;
const BLOCKS: usize = 5;
const SETUPS: usize = 3;

/// `--quick`: small data, one block, a tenth of the operations.
const QUICK_SF: f64 = 0.005;
const QUICK_WORK: f64 = 0.1;

const USAGE: &str = "usage:
  rapid_bench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick]
  rapid_bench run --seed <n> [--workload <name>] [--quick] [--out <file>]
  rapid_bench compare <a.json> <b.json>
workloads: tpch_serial sched_batch wire_point_prepared wire_adhoc_wide dml_refresh";

/// `--key value` options and bare flags.
struct Opts {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String], keys: &[&str], flags: &[&str]) -> Result<Opts, String> {
        let mut out = Opts {
            values: HashMap::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if flags.contains(&arg.as_str()) {
                out.flags.push(arg.clone());
            } else if keys.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.values.insert(arg.clone(), value.clone());
            } else {
                return Err(format!("unknown argument '{arg}'"));
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.values.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {key}: '{v}'")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

pub fn main(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => crate::compare::main(a, b),
            _ => Err("compare takes two result files".into()),
        },
        _ => one_workload(args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("rapid_bench: {e}\n{USAGE}");
        2
    })
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    let known = WORKLOADS.iter().find(|w| **w == name);
    known
        .copied()
        .ok_or_else(|| format!("unknown workload '{name}'"))
}

/// The driver form: one workload here, the result on the last line.
fn one_workload(args: &[String]) -> Result<i32, String> {
    let opts = Opts::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--quick", "--full", "--corrupt-reference"],
    )?;
    let name: String = opts.get("--workload")?.ok_or("--workload is required")?;
    let seed: u64 = opts.get("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = opts.get("--seconds")?.unwrap_or(RUN_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match opts.get::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let quick = opts.flag("--quick");
    let cfg = Config {
        seed,
        sf: if quick { QUICK_SF } else { SF },
        blocks: if quick { 1 } else { BLOCKS },
        work: if quick {
            QUICK_WORK
        } else {
            seconds / RUN_SECONDS
        },
        setups: if quick { 1 } else { SETUPS },
        trace,
        corrupt_reference: opts.flag("--corrupt-reference"),
    };
    let report = run_workload(workload_name(&name)?, &cfg)?;
    // `--full` is how `run` collects both tables from one process.
    if opts.flag("--full") {
        println!("{}", report.full_json());
    } else {
        println!("{}", report.driver_line());
    }
    Ok(i32::from(report.failed > 0))
}

/// Every workload (or the named one), each in a process of its own, traced.
fn run_all(args: &[String]) -> Result<i32, String> {
    let opts = Opts::parse(args, &["--seed", "--workload", "--out"], &["--quick"])?;
    let seed: u64 = opts.get("--seed")?.ok_or("--seed is required")?;
    let quick = opts.flag("--quick");
    let names: Vec<&'static str> = match opts.get::<String>("--workload")? {
        Some(name) => vec![workload_name(&name)?],
        None => WORKLOADS.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut entries = Vec::new();
    let mut any_failed = false;
    for name in names {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--trace",
            "1",
            "--full",
        ]);
        if quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        let result = Json::parse(last)
            .map_err(|e| format!("{name} printed no result ({e}); exit {}", out.status))?;
        for line in lines {
            println!("{line}");
        }
        print_workload(name, &result);
        any_failed |= !out.status.success();
        entries.push(format!("{}: {last}", quote(name)));
    }
    if let Some(path) = opts.get::<String>("--out")? {
        let file = format!(
            "{{\"seed\": {seed}, \"quick\": {quick}, \"workloads\": {{\n{}\n}}}}\n",
            entries.join(",\n")
        );
        std::fs::write(&path, file).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(i32::from(any_failed))
}

/// `workload metric value unit`, one line per declared metric.
fn print_workload(name: &str, result: &Json) {
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!("{name} attempted {} count", count("attempted"));
    println!("{name} failed {} count", count("failed"));
    let table = |defs: &[Def], key: &str| {
        for d in defs {
            let m = result.get(key).and_then(|t| t.get(d.name));
            let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
            let spread = m.and_then(|m| m.get("spread")).and_then(Json::as_f64);
            let spread = spread.map_or(String::new(), |s| format!(" spread={:.1}%", s * 100.0));
            match value {
                Some(v) => println!("{name} {} {v} {}{spread}", d.name, d.unit),
                None => println!("{name} {} missing {}", d.name, d.unit),
            }
        }
    };
    table(&END_TO_END, "end_to_end");
    table(&PER_LAYER, "per_layer");
}
