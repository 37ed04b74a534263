//! Property-based consistency under updates: after any sequence of
//! commits, an offloaded query must see exactly the same state the host
//! row store sees (§3.3's transactional guarantee).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use hostdb::db::decode_batch;
use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::storage::chunk::Chunk;
use rapid::storage::schema::{Field, Schema};
use rapid::storage::scn::RowChange;
use rapid::storage::table::{Table, TableBuilder};
use rapid::storage::types::{DataType, Value};
use rapid::storage::DEFAULT_CHUNK_ROWS;

/// Partitions of every table a checkpoint ships.
const PARTITIONS: usize = 4;

#[derive(Debug, Clone)]
enum Dml {
    Insert { k: i64, v: i64 },
    Update { rid: u16, v: i64 },
    Delete { rid: u16 },
}

fn arb_dml() -> impl Strategy<Value = Dml> {
    prop_oneof![
        (20_000i64..30_000, -500i64..500).prop_map(|(k, v)| Dml::Insert { k, v }),
        (any::<u16>(), -500i64..500).prop_map(|(rid, v)| Dml::Update { rid, v }),
        any::<u16>().prop_map(|rid| Dml::Delete { rid }),
    ]
}

/// `t(k, v, tag)`: `tag` is one of three strings, or NULL on every seventh
/// row.
fn tagged_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
        Field::nullable("tag", DataType::Varchar),
    ])
}

fn tagged_row(k: i64, v: i64) -> Vec<Value> {
    let tag = match k % 7 {
        0 => Value::Null,
        m => Value::Str(["red", "green", "blue"][m as usize % 3].into()),
    };
    vec![Value::Int(k), Value::Int(v), tag]
}

/// `t` holding `tagged_row(i, 3i)` for `i` in `0..rows`, loaded into RAPID.
fn tagged(rows: i64) -> HostDb {
    let db = HostDb::new(ExecContext::dpu().with_cores(2));
    db.create_table("t", tagged_schema());
    db.bulk_insert("t", (0..rows).map(|i| tagged_row(i, i * 3)));
    db.load_into_rapid("t").expect("load");
    db
}

/// The table RAPID holds as `t`.
fn rapid_t(db: &HostDb) -> Arc<Table> {
    Arc::clone(db.rapid().read().catalog().get("t").expect("t loaded"))
}

/// Chunk `k` of a shipped table: chunks go round-robin over partitions.
fn chunk(table: &Table, k: usize) -> &Chunk {
    &table.partitions[k % PARTITIONS].chunks[k / PARTITIONS]
}

/// The rows of `chunk`, decoded through `table`'s encodings.
fn decoded(table: &Table, chunk: &Chunk) -> Vec<Vec<Value>> {
    (0..chunk.rows())
        .map(|i| {
            (0..table.schema.len())
                .map(|c| match chunk.vector(c).get(i) {
                    Some(v) => table.decode_value(c, v),
                    None => Value::Null,
                })
                .collect()
        })
        .collect()
}

/// What a checkpoint must have shipped: chunk `k` of RAPID's `t` holds the
/// host's live rows of heap slots `[k × DEFAULT_CHUNK_ROWS, (k + 1) ×
/// DEFAULT_CHUNK_ROWS)`; its chunks, encodings and statistics are those of a
/// full rebuild of the heap; and every chunk no commit in `touched` changed
/// is `previous`'s own.
fn assert_shipped(db: &HostDb, previous: &Table, touched: &HashSet<usize>) -> Arc<Table> {
    let table = rapid_t(db);
    let host = db.store().table("t").expect("t");
    let host = host.read();
    assert_eq!(table.scn, host.scn, "RAPID is at the host's SCN");
    let slots = host.slots().chunks(DEFAULT_CHUNK_ROWS);
    assert_eq!(table.chunks().count(), slots.len());
    for (k, slots) in slots.enumerate() {
        let live: Vec<Vec<Value>> = slots.iter().flatten().cloned().collect();
        assert_eq!(decoded(&table, chunk(&table, k)), live, "chunk {k}");
        let kept =
            k < previous.chunks().count() && chunk(&table, k).shares_vectors(chunk(previous, k));
        assert_eq!(kept, !touched.contains(&k), "chunk {k} shared");
    }
    let full = TableBuilder::over_slots("t", host.schema.clone(), host.slots())
        .partitions(PARTITIONS)
        .finish_at_scn(host.scn);
    assert_eq!(
        table.partitions, full.partitions,
        "chunks of a full rebuild"
    );
    assert_eq!(table.scales, full.scales, "scales of a full rebuild");
    assert_eq!(dict_values(&table), dict_values(&full), "dictionaries");
    assert_eq!(table.stats, full.stats, "statistics of a full rebuild");
    table
}

/// The strings of each column's dictionary, in code order.
fn dict_values(table: &Table) -> Vec<Option<&[String]>> {
    table
        .dicts
        .iter()
        .map(|d| d.as_ref().map(|d| d.values()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn offloaded_queries_see_every_commit(
        base_rows in 10_000usize..12_500,
        dml in proptest::collection::vec(arb_dml(), 0..20),
        checkpoint_after in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let mut db = tagged(base_rows as i64);
        let mut previous = rapid_t(&db);
        let mut touched = HashSet::new();
        let mut heap = base_rows;
        for (i, op) in dml.iter().enumerate() {
            let (slot, change) = match *op {
                Dml::Insert { k, v } => (heap, RowChange::Insert(tagged_row(k, v))),
                Dml::Update { rid, v } => {
                    let rid = rid as usize % heap;
                    (rid, RowChange::Update { rid: rid as u64, row: tagged_row(rid as i64, v) })
                }
                Dml::Delete { rid } => {
                    let rid = rid as usize % heap;
                    (rid, RowChange::Delete { rid: rid as u64 })
                }
            };
            let inserts = matches!(change, RowChange::Insert(_));
            // An update or delete of a deleted slot is refused whole.
            if db.commit("t", vec![change]).is_some() {
                touched.insert(slot / DEFAULT_CHUNK_ROWS);
                heap += usize::from(inserts);
            }
            // Sometimes checkpoint eagerly, sometimes let admission do it.
            if checkpoint_after[i] {
                db.checkpoint("t").expect("checkpoint");
                previous = assert_shipped(&db, &previous, &touched);
                touched.clear();
            }
        }

        // Ground truth from the row store.
        let table = db.store().table("t").expect("t");
        let (expect_n, expect_sum) = {
            let guard = table.read();
            let mut n = 0i64;
            let mut sum = 0i64;
            for row in guard.scan() {
                n += 1;
                if let Value::Int(v) = row[1] {
                    sum += v;
                }
            }
            (n, sum)
        };

        // Offloaded query (forced to RAPID: admission must checkpoint any
        // remaining lag).
        db.force_site = Some(hostdb::ExecutionSite::Rapid);
        let r = db.execute_sql("SELECT COUNT(*) AS n, SUM(v) AS s FROM t").expect("query");
        prop_assert_eq!(r.rows[0][0].clone(), Value::Int(expect_n));
        if expect_n > 0 {
            prop_assert_eq!(r.rows[0][1].clone(), Value::Int(expect_sum));
        }
        assert_shipped(&db, &previous, &touched);
    }
}

/// The statement's rows on Volcano, on the DPU and on the native engine
/// (the last two run one compiled plan).
fn three_ways(db: &HostDb, sql: &str) -> [Vec<Vec<Value>>; 3] {
    let schemas: HashMap<String, Vec<String>> = [(
        "t".to_string(),
        vec!["k".to_string(), "v".to_string(), "tag".to_string()],
    )]
    .into();
    let plan = hostdb::parse_sql(sql, &schemas).expect(sql);
    let host = db.execute_on_host(&plan).expect(sql).rows;
    let catalog = db.rapid().read().catalog().clone();
    let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default()).expect(sql);
    let [dpu, native] = [ExecContext::dpu(), ExecContext::native(4)].map(|ctx| {
        let mut engine = Engine::new(ctx);
        engine.load_table(Arc::clone(&catalog["t"]));
        let (out, _) = engine.execute(&compiled.plan).expect(sql);
        decode_batch(&out.batch, &out.meta, engine.catalog())
    });
    [host, dpu, native]
}

#[test]
fn a_chunk_whose_rows_are_all_deleted_ships_empty_and_every_engine_agrees() {
    // 10,000 rows are three chunks; the second loses all 4,096 of its rows
    // in one commit and stays in place, empty, so the third keeps its slots.
    let db = tagged(10_000);
    let loaded = rapid_t(&db);
    let second = DEFAULT_CHUNK_ROWS as u64..2 * DEFAULT_CHUNK_ROWS as u64;
    let deletes = second.map(|rid| RowChange::Delete { rid }).collect();
    db.commit("t", deletes).expect("commit");
    db.checkpoint("t").expect("checkpoint");
    let table = assert_shipped(&db, &loaded, &HashSet::from([1]));
    assert!(chunk(&table, 1).is_empty());
    assert_eq!(table.rows(), 10_000 - DEFAULT_CHUNK_ROWS);

    let sql = "SELECT tag, COUNT(*) AS n, SUM(v) AS s, MIN(k) AS lo, MAX(k) AS hi \
               FROM t WHERE k >= 4000 AND k < 8500 GROUP BY tag ORDER BY tag";
    let [host, dpu, native] = three_ways(&db, sql);
    assert_eq!(dpu, host, "Dpu");
    assert_eq!(native, host, "Native");
    let total: i64 = host
        .iter()
        .map(|r| r[1].to_string().parse::<i64>().expect("count"))
        .sum();
    assert_eq!(total, 96 + 308, "k 4000..4096 and 8192..8500");
}

#[test]
fn a_string_the_dictionary_lacks_or_no_row_holds_takes_the_full_build() {
    let db = tagged(10_000);
    let loaded = rapid_t(&db);
    let mut row = tagged_row(20_000, 1);
    row[2] = Value::Str("amber".into());
    db.commit("t", vec![RowChange::Insert(row)])
        .expect("commit");
    db.checkpoint("t").expect("checkpoint");
    let every = (0..3).collect();
    let table = assert_shipped(&db, &loaded, &every);
    let dict = table.dicts[2].as_ref().expect("tag dictionary");
    assert_eq!(dict.values(), ["amber", "blue", "green", "red"]);
    assert!(
        dict.values().windows(2).all(|w| w[0] < w[1]),
        "derived afresh, in string order"
    );
    let [host, dpu, native] = three_ways(&db, "SELECT k FROM t WHERE tag < 'b'");
    assert_eq!(host, [[Value::Int(20_000)]]);
    assert_eq!((dpu, native), (host.clone(), host));

    // Deleting the one row that holds "amber" leaves a string in the
    // dictionary no row holds: that takes the full build too, and the
    // codes are the three strings' again.
    db.commit("t", vec![RowChange::Delete { rid: 10_000 }])
        .expect("commit");
    db.checkpoint("t").expect("checkpoint");
    let table = assert_shipped(&db, &table, &every);
    let dict = table.dicts[2].as_ref().expect("tag dictionary");
    assert_eq!(dict.values(), ["blue", "green", "red"]);
    let [host, dpu, native] = three_ways(&db, "SELECT k FROM t WHERE tag < 'b'");
    assert!(host.is_empty());
    assert_eq!((dpu, native), (host.clone(), host));
}

#[test]
fn a_recreated_table_derives_its_encodings_afresh() {
    // The replacement holds only "green": sharing the predecessor's
    // encodings would keep its three strings in the dictionary.
    let db = tagged(10_000);
    let old = rapid_t(&db);
    db.create_table("t", tagged_schema());
    db.bulk_insert("t", (0..5_000).map(|i| tagged_row(i * 7 + 1, i)));
    db.load_into_rapid("t").expect("reload");
    let table = assert_shipped(&db, &old, &(0..3).collect());
    assert_eq!(table.rows(), 5_000);
    assert_eq!(table.dicts[2].as_ref().expect("tag").values(), ["green"]);
}

/// A two-column table `t(k, v)` holding `(i, f(i))` for `i` in `0..n`,
/// loaded into RAPID.
fn loaded(n: i64, f: impl Fn(i64) -> i64) -> HostDb {
    let db = HostDb::new(ExecContext::dpu().with_cores(2));
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    );
    db.bulk_insert("t", (0..n).map(|i| vec![Value::Int(i), Value::Int(f(i))]));
    db.load_into_rapid("t").expect("load");
    db
}

#[test]
fn a_checkpoint_with_no_new_commit_ships_nothing() {
    // RAPID is behind the host only after a commit: the first query ships
    // the table at the commit's SCN, and the second, with nothing committed
    // in between, runs on the very same table.
    let db = loaded(100, |i| i);
    db.commit("t", vec![RowChange::Delete { rid: 5 }]);

    let a = db.execute_sql("SELECT COUNT(*) AS n FROM t").expect("q1");
    let ptr1 = std::sync::Arc::as_ptr(db.rapid().read().catalog().get("t").expect("t"));
    let b = db.execute_sql("SELECT COUNT(*) AS n FROM t").expect("q2");
    let ptr2 = std::sync::Arc::as_ptr(db.rapid().read().catalog().get("t").expect("t"));
    assert_eq!(a.rows, b.rows);
    assert_eq!(ptr1, ptr2, "no rebuild without new commits");
}

#[test]
fn a_malformed_commit_is_refused_and_rapid_keeps_serving() {
    // A row the table cannot store would fail the next checkpoint's build,
    // and with it every offloaded query on the table. The commit is refused
    // instead, whole, before it reaches the row store.
    let mut db = loaded(10, |i| i);
    let scn = db.store().clock().current();
    let refused = db.commit("t", vec![RowChange::Insert(vec![Value::Int(10)])]);
    db.force_site = Some(hostdb::ExecutionSite::Rapid);
    let r = db
        .execute_sql("SELECT COUNT(*) AS n FROM t")
        .expect("query");
    assert_eq!(r.rows[0][0], Value::Int(10));
    assert_eq!(refused, None);
    assert_eq!(db.store().clock().current(), scn, "no SCN ticked");
}

#[test]
fn an_update_after_a_delete_lands_on_its_heap_slot() {
    // Rid 5 is heap slot 5 of the host table. After rid 2 is deleted and
    // checkpointed, RAPID's table holds k = 6 at offset 5: replaying the
    // update there, as a replay onto the previous snapshot would, rewrites
    // the wrong row.
    let mut db = loaded(10, |i| i);
    db.commit("t", vec![RowChange::Delete { rid: 2 }]);
    db.checkpoint("t").expect("checkpoint");
    db.commit(
        "t",
        vec![RowChange::Update {
            rid: 5,
            row: vec![Value::Int(5), Value::Int(500)],
        }],
    );
    db.force_site = Some(hostdb::ExecutionSite::Rapid);
    let r = db
        .execute_sql("SELECT k, v FROM t WHERE k >= 5 AND k <= 6 ORDER BY k")
        .expect("query");
    assert_eq!(r.site, hostdb::ExecutionSite::Rapid);
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(5), Value::Int(500)],
            vec![Value::Int(6), Value::Int(6)],
        ]
    );
}

#[test]
fn pinned_regression_duplicate_key_inserts_between_checkpoints() {
    // Pinned from tests/update_consistency.proptest-regressions: three
    // inserts of the same key with a checkpoint between the second and
    // third once produced a wrong SUM through the offload path. The shim
    // proptest runner does not replay regression files, so the case is
    // kept alive here verbatim.
    let mut db = HostDb::new(ExecContext::dpu().with_cores(2));
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    );
    db.bulk_insert(
        "t",
        (0..1i64).map(|i| vec![Value::Int(i), Value::Int(i * 3)]),
    );
    db.load_into_rapid("t").expect("load");

    let dml = [(1000i64, 0i64), (1000, 0), (1000, -5)];
    let checkpoint_after = [false, true, false];
    for ((k, v), ckpt) in dml.iter().zip(checkpoint_after) {
        db.commit(
            "t",
            vec![RowChange::Insert(vec![Value::Int(*k), Value::Int(*v)])],
        );
        if ckpt {
            db.checkpoint("t").expect("checkpoint");
        }
    }
    db.force_site = Some(hostdb::ExecutionSite::Rapid);
    let r = db
        .execute_sql("SELECT COUNT(*) AS n, SUM(v) AS s FROM t")
        .expect("query");
    assert_eq!(r.rows[0][0], Value::Int(4), "count");
    assert_eq!(r.rows[0][1], Value::Int(-5), "sum");
}
