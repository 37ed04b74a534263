//! Data set-up owned by the benchmark: TPC-H at the generator's fixed seed
//! (the run's `--seed` picks statements and changed rows, not the data, so
//! the simulated counts of the TPC-H plans are the same on every run),
//! copied into the host row store, then `LOAD`ed into RAPID. Each phase is
//! timed on its own so the traced run can attribute `setup_s`.

use std::sync::Arc;
use std::time::Instant;

use hostdb::HostDb;
use rapid_qef::exec::ExecContext;
use rapid_storage::table::Table;
use rapid_storage::types::Value;

/// Wall seconds of each set-up phase, plus the sizes the layer metrics need.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupPhases {
    pub generate_s: f64,
    /// Decoding generated columns into host rows (the benchmark's own glue).
    pub rows_s: f64,
    pub bulk_insert_s: f64,
    pub load_s: f64,
    pub load_lineitem_s: f64,
    pub lineitem_rows: usize,
    pub lineitem_bytes: usize,
}

/// Decode a generated columnar table back into the rows the host store keeps.
pub fn host_rows(t: &Table) -> Vec<Vec<Value>> {
    let ncols = t.schema.len();
    let cols: Vec<Vec<i64>> = (0..ncols).map(|c| t.column_i64(c)).collect();
    let nulls: Vec<_> = (0..ncols).map(|c| t.column_nulls(c)).collect();
    (0..t.rows())
        .map(|r| {
            (0..ncols)
                .map(|c| {
                    if nulls[c].get(r) {
                        Value::Null
                    } else {
                        t.decode_value(c, cols[c][r])
                    }
                })
                .collect()
        })
        .collect()
}

pub fn generate(sf: f64) -> tpch::TpchData {
    tpch::generate(&tpch::TpchConfig::sf(sf))
}

/// CPU seconds (user and system, every thread, exited ones included) this
/// process has used so far. On this shared two-core VM a fixed loop's wall
/// time swings by a fifth from one second to the next while its CPU time
/// holds within a few percent, so host cost is counted on this clock.
pub fn process_cpu_secs() -> f64 {
    /// `USER_HZ`: the unit of the times in `/proc/<pid>/stat`, fixed by the ABI.
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields are counted after the parenthesised command name, which may
    // itself hold spaces: state is field 3, utime 14, stime 15.
    let after_comm = &stat[stat.rfind(')').expect("comm in stat") + 2..];
    let ticks = |field: usize| -> f64 {
        let f = after_comm.split(' ').nth(field - 3);
        f.and_then(|t| t.parse().ok())
            .expect("utime and stime in stat")
    };
    (ticks(14) + ticks(15)) / TICKS_PER_SEC
}

/// Generate, insert and load all eight tables into a fresh database on the
/// simulated DPU.
pub fn build_db(sf: f64) -> (Arc<HostDb>, SetupPhases) {
    let mut ph = SetupPhases::default();
    let t0 = Instant::now();
    let data = generate(sf);
    ph.generate_s = t0.elapsed().as_secs_f64();

    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        let t0 = Instant::now();
        let rows = host_rows(t);
        ph.rows_s += t0.elapsed().as_secs_f64();

        db.create_table(&t.name, t.schema.clone());
        let t0 = Instant::now();
        db.bulk_insert(&t.name, rows);
        ph.bulk_insert_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        db.load_into_rapid(&t.name)
            .expect("LOAD of a generated table");
        let load = t0.elapsed().as_secs_f64();
        ph.load_s += load;
        if t.name == "lineitem" {
            ph.load_lineitem_s = load;
        }
    }
    let rapid = db.rapid().read();
    let lineitem = &rapid.catalog()["lineitem"];
    ph.lineitem_rows = lineitem.rows();
    ph.lineitem_bytes = lineitem.size_bytes();
    drop(rapid);
    (Arc::new(db), ph)
}
