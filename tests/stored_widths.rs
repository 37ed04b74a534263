//! Columns are stored at the width their values need: dictionary codes at
//! 1, 2 or 4 bytes by the size of the dictionary, dates at 1, 2 or 4 by
//! their range. On tables on each side of every boundary — 128 and 129
//! strings, 32,768 and 32,769, days inside and outside the `i16` range, with
//! NULLs — Volcano, the native engine and the simulated DPU return the same
//! rows for every predicate form over codes and dates, grouping, ordering, a
//! LEFT JOIN whose build side leaves most partitions empty and a result with
//! no rows. And a commit that takes a dictionary past 128 strings and a date
//! past 2059-09-18 widens both columns at the next reload, where every entry
//! point — `execute_sql`, `execute_batch`, a prepared statement on the wire
//! — admits the statement, reloading the table, before it compiles it.

use std::collections::HashMap;
use std::sync::Arc;

use hostdb::db::decode_batch;
use hostdb::{BatchQuery, ExecutionSite, HostDb};
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::{Catalog, PlanNode};
use rapid::sched::SchedConfig;
use rapid::server::{Client, Server, ServerConfig};
use rapid::storage::schema::{Field, Schema};
use rapid::storage::scn::RowChange;
use rapid::storage::types::{parse_date, DataType, Value};
use rapid_fuzz::canonical;

/// `(table, distinct strings, rows, first and last day, stored widths of the
/// code and the date)`.
type Class = (&'static str, i64, i64, [&'static str; 2], (usize, usize));

/// Codes are 0..n-1: one byte holds 128 strings, two 32,768. Day −32,768 is
/// 1880-04-14, day 32,767 2059-09-18.
const CLASSES: [Class; 4] = [
    ("w1", 128, 1_000, ["1969-08-26", "1970-05-08"], (1, 1)),
    ("w2", 129, 1_000, ["1880-04-14", "2059-09-18"], (2, 2)),
    (
        "w2max",
        32_768,
        33_000,
        ["1969-08-25", "1970-05-08"],
        (2, 2),
    ),
    ("w4", 32_769, 33_000, ["1880-04-13", "2059-09-19"], (4, 4)),
];

fn day(date: &str) -> i32 {
    parse_date(date).expect("date")
}

fn string(i: i64) -> String {
    format!("v{i:05}")
}

/// `{t}(id, s, d, k)`: row `i < n` holds the i-th string, the rest a third
/// NULL and the others strings again; the first two rows hold the first and
/// last day, then every 19th row a NULL and the others days in between; `k`
/// is `id` for five rows and NULL elsewhere. `p(pid)` is 0..300.
fn db() -> HostDb {
    let db = HostDb::new(ExecContext::dpu());
    for (table, distinct, rows, [first, last], _) in CLASSES {
        db.create_table(
            table,
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::nullable("s", DataType::Varchar),
                Field::nullable("d", DataType::Date),
                Field::nullable("k", DataType::Int),
            ]),
        );
        let (lo, hi) = (day(first) as i64, day(last) as i64);
        db.bulk_insert(
            table,
            (0..rows).map(|i| {
                let s = match i {
                    _ if i < distinct => Value::Str(string(i)),
                    _ if i % 3 == 0 => Value::Null,
                    _ => Value::Str(string(i % distinct)),
                };
                let d = match i {
                    0 => Value::Date(lo as i32),
                    1 => Value::Date(hi as i32),
                    _ if i % 19 == 7 => Value::Null,
                    _ => Value::Date((lo + (i * 7_919) % (hi - lo + 1)) as i32),
                };
                let k = if i < 5 { Value::Int(i) } else { Value::Null };
                vec![Value::Int(i), s, d, k]
            }),
        );
        db.load_into_rapid(table).expect("load");
    }
    db.create_table("p", Schema::new(vec![Field::new("pid", DataType::Int)]));
    db.bulk_insert("p", (0..300).map(|i| vec![Value::Int(i)]));
    db.load_into_rapid("p").expect("load");
    db
}

fn schemas_of(db: &HostDb) -> HashMap<String, Vec<String>> {
    db.store()
        .table_names()
        .into_iter()
        .map(|name| {
            let table = db.store().table(&name).expect("listed table");
            let cols = table
                .read()
                .schema
                .fields
                .iter()
                .map(|f| f.name.clone())
                .collect();
            (name, cols)
        })
        .collect()
}

fn engine(catalog: &Catalog, ctx: ExecContext) -> Engine {
    let mut engine = Engine::new(ctx);
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    engine
}

/// The statement's rows on Volcano, on the DPU and on the native engine
/// (the last two run one compiled plan).
fn three_ways(db: &HostDb, sql: &str) -> [Vec<Vec<Value>>; 3] {
    let plan = hostdb::parse_sql(sql, &schemas_of(db)).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let host = db.execute_on_host(&plan).expect(sql).rows;
    let catalog = db.rapid().read().catalog().clone();
    let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default()).expect(sql);
    let [dpu, native] = [ExecContext::dpu(), ExecContext::native(4)].map(|ctx| {
        let engine = engine(&catalog, ctx);
        let (out, _) = engine.execute(&compiled.plan).expect(sql);
        decode_batch(&out.batch, &out.meta, engine.catalog())
    });
    [host, dpu, native]
}

/// The partitions the first hash join of `sql`'s compiled plan declares.
fn compiled_join_partitions(db: &HostDb, sql: &str) -> usize {
    let plan = hostdb::parse_sql(sql, &schemas_of(db)).expect(sql);
    let catalog = db.rapid().read().catalog().clone();
    let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default()).expect(sql);
    fn find(node: &PlanNode) -> Option<usize> {
        match node {
            PlanNode::HashJoin { scheme, .. } => Some(scheme.iter().product()),
            _ => node.inputs().find_map(find),
        }
    }
    find(&compiled.plan).expect("a hash join")
}

#[test]
fn engines_agree_on_codes_and_dates_of_every_width() {
    let db = db();
    let catalog = db.rapid().read().catalog().clone();
    for (t, n, _, [first, last], (code_width, date_width)) in CLASSES {
        let table = &catalog[t];
        assert_eq!(
            (table.column_width(1), table.column_width(2)),
            (code_width, date_width),
            "{t}"
        );
        let top = string(n - 1);
        let unordered = [
            // Equality, at a low code and at the highest one.
            format!("SELECT id, d FROM {t} WHERE s = 'v00100'"),
            format!("SELECT id, d FROM {t} WHERE s = '{top}'"),
            // Ranges: codes follow string order at every width.
            format!("SELECT id, s FROM {t} WHERE s > '{}'", string(n - 3)),
            format!("SELECT id FROM {t} WHERE s BETWEEN 'v00010' AND 'v00020'"),
            format!("SELECT id, d FROM {t} WHERE d >= DATE '{last}'"),
            format!("SELECT id FROM {t} WHERE d <= DATE '{first}' OR d > DATE '1970-03-01'"),
            format!("SELECT COUNT(*) AS n FROM {t} WHERE d < DATE '1970-01-01'"),
            // IN with strings inside and outside the dictionary, LIKE.
            format!("SELECT id, s FROM {t} WHERE s IN ('v00001', '{top}', 'v99999', 'absent')"),
            format!("SELECT COUNT(*) AS n FROM {t} WHERE s LIKE 'v0001%'"),
            // A literal the dictionary lacks: `<>` keeps every non-NULL row.
            format!("SELECT COUNT(*) AS n FROM {t} WHERE s <> 'absent'"),
            format!("SELECT COUNT(*) AS n FROM {t} WHERE s = 'absent'"),
            // Grouping on a code and on a date.
            format!("SELECT s, COUNT(*) AS n, MIN(d) AS lo, MAX(d) AS hi FROM {t} GROUP BY s"),
            format!("SELECT d, COUNT(*) AS n FROM {t} WHERE id < 500 GROUP BY d"),
            // Build columns padded with NULLs at their stored widths.
            format!("SELECT pid, s, d FROM p LEFT JOIN {t} ON pid = k"),
            // No rows: the result still has the statement's columns.
            format!("SELECT s, d FROM {t} WHERE id < 0"),
        ];
        for sql in &unordered {
            let [host, dpu, native] = three_ways(&db, sql);
            assert_eq!(canonical(&dpu), canonical(&host), "{sql}: DPU vs Volcano");
            assert_eq!(native, dpu, "{sql}: native vs DPU");
        }
        let ordered = [
            format!("SELECT s, d, id FROM {t} WHERE id < 300 ORDER BY s DESC, id"),
            format!("SELECT d, id FROM {t} WHERE d >= DATE '{first}' ORDER BY d, id LIMIT 20"),
            format!("SELECT id, s FROM {t} WHERE s >= 'v00100' ORDER BY s, id LIMIT 5"),
        ];
        for sql in &ordered {
            let [host, dpu, native] = three_ways(&db, sql);
            assert!(!dpu.is_empty(), "{sql}");
            assert_eq!(dpu, host, "{sql}: DPU vs Volcano, in order");
            assert_eq!(native, dpu, "{sql}: native vs DPU");
        }

        // The join pads 295 probe rows, most of them in build partitions
        // with no row at all.
        let join = &unordered[13];
        let [_, dpu, _] = three_ways(&db, join);
        assert_eq!(dpu.len(), 300, "{join}");
        let padded = dpu.iter().filter(|r| r[1] == Value::Null).count();
        assert_eq!(padded, 295, "{join}");
        assert!(compiled_join_partitions(&db, join) > 5, "{join}");
        let [_, dpu, _] = three_ways(&db, &unordered[14]);
        assert!(dpu.is_empty());
    }
}

/// `tags(id, tag, day)`: 20,000 rows over 128 strings — one byte of code —
/// and days of the 1990s: two bytes.
fn tags() -> HostDb {
    let db = HostDb::new(ExecContext::dpu().with_cores(4));
    db.create_table(
        "tags",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("tag", DataType::Varchar),
            Field::new("day", DataType::Date),
        ]),
    );
    db.bulk_insert(
        "tags",
        (0..20_000i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Str(format!("t{:03}", i % 128)),
                Value::Date(day("1995-01-01") + (i % 1_000) as i32),
            ]
        }),
    );
    db.load_into_rapid("tags").expect("load");
    db
}

/// Stored widths of `tag` and `day` in RAPID's copy of `tags`.
fn widths(db: &HostDb) -> (usize, usize) {
    let rapid = db.rapid().read();
    let t = &rapid.catalog()["tags"];
    (t.column_width(1), t.column_width(2))
}

/// The 129th string sorts before all 128, so every code moves up by one,
/// and the new day is past what two bytes hold.
fn commit_widening_row(db: &HostDb) {
    db.commit(
        "tags",
        vec![RowChange::Insert(vec![
            Value::Int(100_000),
            Value::Str("a-new".into()),
            Value::Date(day("2059-09-19")),
        ])],
    )
    .expect("commit");
}

const BY_TAG: &str = "SELECT id, day FROM tags WHERE tag = 't100' OR tag = 'a-new'";

fn on_volcano(db: &HostDb) -> Vec<Vec<String>> {
    let plan = hostdb::parse_sql(BY_TAG, &schemas_of(db)).expect("parse");
    canonical(&db.execute_on_host(&plan).expect("volcano").rows)
}

#[test]
fn a_commit_that_widens_codes_and_dates_is_recompiled_on_every_entry_point() {
    // execute_sql: admission reloads the one-byte table at two bytes with
    // every code moved, and the offload decision compiles against that.
    let db = tags();
    let before = db.execute_sql(BY_TAG).expect("serial");
    assert_eq!(
        before.site,
        ExecutionSite::Rapid,
        "must take the offload path"
    );
    assert_eq!(canonical(&before.rows), on_volcano(&db));
    assert_eq!(widths(&db), (1, 2));
    commit_widening_row(&db);
    let after = db.execute_sql(BY_TAG).expect("serial after commit");
    assert_eq!(after.site, ExecutionSite::Rapid);
    assert_eq!(
        widths(&db),
        (2, 4),
        "reloaded at the widths the values need"
    );
    assert_eq!(after.rows.len(), before.rows.len() + 1);
    assert_eq!(canonical(&after.rows), on_volcano(&db));

    // execute_batch.
    let db = tags();
    commit_widening_row(&db);
    let out = db.execute_batch(&[BatchQuery::new(BY_TAG)], SchedConfig::default());
    let r = out
        .results
        .into_iter()
        .next()
        .expect("one slot")
        .expect("batch");
    assert_eq!(r.site, ExecutionSite::Rapid);
    assert_eq!(widths(&db), (2, 4));
    assert_eq!(canonical(&r.rows), on_volcano(&db));

    // A prepared statement on the wire, planned and run before the commit.
    let db = Arc::new(tags());
    let server =
        Server::start(Arc::clone(&db), ServerConfig::default(), ("127.0.0.1", 0)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let stmt = client.prepare(BY_TAG).expect("prepare");
    let before = client.execute(stmt).expect("execute");
    assert_eq!(before.site, "Rapid");
    commit_widening_row(&db);
    let after = client.execute(stmt).expect("execute after commit");
    assert_eq!(after.site, "Rapid");
    assert_eq!(widths(&db), (2, 4));
    assert_eq!(after.rows.len(), before.rows.len() + 1);
    assert_eq!(canonical(&after.rows), on_volcano(&db));
    client.bye().expect("bye");
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}
