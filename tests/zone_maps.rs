//! Zone maps, end to end: `orders` and `lineitem` loaded in key order and
//! again in a shuffled slot order answer the same range, point, `IN`,
//! `IS NULL` and `OR` statements as the host engine, and the clustered load
//! reads fewer chunks — the shuffled one reads every chunk, slower and not
//! wrong. After a commit a range statement still finds every row, and the
//! chunks the commit did not touch keep their vectors and zone maps.

use std::collections::HashMap;
use std::sync::Arc;

use hostdb::sql::parse_sql;
use hostdb::{ExecutionSite, HostDb};
use rapid::qef::exec::ExecContext;
use rapid::storage::scn::RowChange;
use rapid::storage::table::{Table, TableBuilder};
use rapid::storage::types::Value;

const SEED: u64 = 20_261_018;

/// A small seeded generator: the statements' literals and the shuffle.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// The rows of `t` in slot order.
fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    let cols: Vec<Vec<i64>> = (0..t.schema.len()).map(|c| t.column_i64(c)).collect();
    let nulls: Vec<_> = (0..t.schema.len()).map(|c| t.column_nulls(c)).collect();
    (0..t.rows())
        .map(|r| {
            (0..t.schema.len())
                .map(|c| match nulls[c].get(r) {
                    true => Value::Null,
                    false => t.decode_value(c, cols[c][r]),
                })
                .collect()
        })
        .collect()
}

/// `t` with its rows dealt to the heap slots in a seeded random order.
fn shuffled(t: &Table) -> Table {
    let mut rows = rows_of(t);
    let mut rng = Lcg(SEED);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut b = TableBuilder::new(t.name.clone(), t.schema.clone()).chunk_rows(t.chunk_rows);
    b.extend_rows(rows);
    b.finish()
}

/// A host database holding `orders` and `lineitem` at sf 0.01, in key
/// order or shuffled, loaded into RAPID.
fn load(shuffle: bool) -> HostDb {
    let data = tpch::generate(&tpch::TpchConfig {
        scale_factor: 0.01,
        seed: SEED,
        chunk_rows: rapid::storage::DEFAULT_CHUNK_ROWS,
    });
    let db = HostDb::new(ExecContext::dpu().with_cores(8));
    for t in [&data.orders, &data.lineitem] {
        match shuffle {
            true => db.import_table(&shuffled(t)),
            false => db.import_table(t),
        }
        .expect("load");
    }
    db
}

/// Seeded statements on the two key columns — ranges, points, `IN` lists,
/// `IS NULL` and `OR`, with keys inside the tables and past them — and
/// whether their keys rule out a chunk of a table in key order. `IS NULL`
/// is a `NOT`, which rules out nothing, and an `OR` of the two ends of the
/// keys covers every chunk between them.
fn statements() -> Vec<(String, bool)> {
    let mut rng = Lcg(SEED ^ 0x5A5A);
    let mut key = |n: u64| rng.below(n) as i64 + 1;
    let orders = "SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE";
    let lineitem = "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem WHERE";
    let mut out = Vec::new();
    for _ in 0..3 {
        let (lo, point, a, b) = (key(15_000), key(15_000), key(15_000), key(15_000));
        out.extend([
            (
                format!("{orders} o_orderkey >= {lo} AND o_orderkey < {}", lo + 700),
                true,
            ),
            (format!("{orders} o_orderkey = {point}"), true),
            (
                format!("{orders} o_orderkey IN ({a}, {}, {})", a + 3, a + 9),
                true,
            ),
            (
                format!("{orders} o_orderkey IS NULL OR o_orderkey = {point}"),
                false,
            ),
            (
                format!(
                    "{orders} o_orderkey IS NOT NULL AND o_orderkey < {}",
                    lo / 8
                ),
                true,
            ),
            (
                format!(
                    "{orders} o_orderkey = {a} OR o_orderkey BETWEEN {a} AND {}",
                    a + 50
                ),
                true,
            ),
            (
                format!(
                    "{orders} o_orderkey < {} OR o_orderkey > {}",
                    a / 20,
                    15_000 - b / 20
                ),
                false,
            ),
            (
                format!("{lineitem} l_orderkey BETWEEN {lo} AND {}", lo + 90),
                true,
            ),
            (
                format!("{lineitem} l_orderkey = {point} OR l_orderkey IN ({a}, {b})"),
                false,
            ),
        ]);
    }
    out.push((format!("{orders} o_orderkey > 100000"), true));
    out
}

fn schemas(db: &HostDb) -> HashMap<String, Vec<String>> {
    let engine = db.rapid().read();
    engine
        .catalog()
        .iter()
        .map(|(name, t)| {
            let names = t.schema.fields.iter().map(|f| f.name.clone()).collect();
            (name.clone(), names)
        })
        .collect()
}

/// `rows` in one canonical form — a decimal and an integer of the same
/// value print alike — sorted.
fn sorted(rows: &[Vec<Value>]) -> Vec<String> {
    let rows = rapid_fuzz::canonical(rows);
    rows.iter().map(|r| r.join(" ")).collect()
}

/// The rows `sql` returns on RAPID, sorted and checked against the host
/// engine's, and the chunks its scans did not read.
fn run(db: &HostDb, sql: &str) -> (Vec<String>, u32) {
    let analysis = db.explain_analyze(sql).expect("explain analyze");
    assert_eq!(analysis.result.site, ExecutionSite::Rapid, "{sql}");
    let plan = parse_sql(sql, &schemas(db)).expect("parse");
    let host = db.execute_on_host(&plan).expect("host");
    let rows = sorted(&analysis.result.rows);
    assert_eq!(
        rows,
        sorted(&host.rows),
        "{sql}: RAPID and the host disagree"
    );
    let pruned = analysis
        .events
        .iter()
        .filter_map(|e| e.scan)
        .map(|s| s.pruned);
    (rows, pruned.sum())
}

#[test]
fn a_clustered_load_reads_fewer_chunks_for_the_same_rows() {
    let (clustered, scattered) = (load(false), load(true));
    let (mut pruned, mut answered) = (0, 0);
    for (sql, prunes) in statements() {
        let (rows, skipped) = run(&clustered, &sql);
        let (same, none) = run(&scattered, &sql);
        assert_eq!(rows, same, "{sql}: the shuffled load returns other rows");
        answered += usize::from(!rows.is_empty());
        pruned += skipped;
        // Past every key both loads read nothing: an empty run.
        if sql.ends_with("> 100000") {
            assert_eq!((skipped, none), (4, 4), "{sql}");
            continue;
        }
        assert_eq!(none, 0, "{sql}: the shuffled load reads every chunk");
        assert!(!prunes || skipped > 0, "{sql}: nothing pruned");
    }
    assert!(answered >= 20, "only {answered} statements found rows");
    assert!(pruned > 40, "{pruned} chunks pruned");
    // The point statement reads one chunk of `orders`' four.
    let (_, skipped) = run(
        &clustered,
        "SELECT o_totalprice FROM orders WHERE o_orderkey = 4711",
    );
    assert_eq!(skipped, 3);
    let text = clustered
        .explain_analyze("SELECT o_totalprice FROM orders WHERE o_orderkey = 4711")
        .expect("explain")
        .text;
    assert!(text.contains("passes=2 chunks=1/4"), "{text}");
}

#[test]
fn after_a_commit_a_range_still_finds_every_row() {
    let db = load(false);
    let orders = |db: &HostDb| -> Arc<Table> {
        Arc::clone(db.rapid().read().catalog().get("orders").expect("orders"))
    };
    let before = orders(&db);
    let rows = rows_of(&before);
    // Key 0 is below chunk 0's minimum and lands in the next heap slot, in
    // the last chunk; slot 5,000 (key 5,001) is deleted and slot 5,100 (key
    // 5,101) loses its price, both in chunk 1. Chunks 0 and 2 are untouched.
    let mut inserted = rows[0].clone();
    inserted[0] = Value::Int(0);
    let mut priceless = rows[5_100].clone();
    priceless[3] = Value::Null;
    db.commit(
        "orders",
        vec![
            RowChange::Insert(inserted),
            RowChange::Delete { rid: 5_000 },
            RowChange::Update {
                rid: 5_100,
                row: priceless,
            },
        ],
    )
    .expect("commit");
    let select = "SELECT o_orderkey, o_totalprice FROM orders WHERE";
    let (low, _) = run(&db, &format!("{select} o_orderkey < 3"));
    assert_eq!(low.len(), 3, "keys 0, 1 and 2: {low:?}");
    let (around, skipped) = run(&db, &format!("{select} o_orderkey BETWEEN 4990 AND 5110"));
    assert_eq!(around.len(), 120, "key 5,001 is gone");
    assert!(
        around.iter().any(|r| r == "n:5101.000000 NULL"),
        "{around:?}"
    );
    // Chunk 1 holds keys 4,097..8,192, but key 0 stretched the last chunk's
    // zone map over 0..15,000: the scan reads chunk 1 and the stretched
    // chunk 3, and chunks 0 and 2 are ruled out. The list of chunks skips
    // chunk 2, which lies between the two; the stretched one is slower to
    // read, not wrong.
    assert_eq!(skipped, 2);
    let after = orders(&db);
    assert_eq!(after.chunks[3].zone(0).range, Some((0, 15_000)));
    for k in 0..4 {
        let untouched = k == 0 || k == 2;
        assert_eq!(
            after.chunks[k].shares_vectors(&before.chunks[k]),
            untouched,
            "chunk {k}"
        );
    }
    assert!(std::ptr::eq(
        after.chunks[2].zone(0),
        before.chunks[2].zone(0)
    ));
}
