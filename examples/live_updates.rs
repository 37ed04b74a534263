//! Consistent query execution under updates (§3.3, §4.3): a commit lands
//! in the host row store and moves its table to a new SCN; a checkpoint,
//! run by a query's admission check or by the background checkpointer,
//! ships the table to RAPID from the row store at that SCN — the chunks
//! the commit touched encoded anew, the rest shared with RAPID's copy — so
//! every offloaded query sees exactly the data its SCN entitles it to.
//!
//! ```text
//! cargo run --release --example live_updates
//! ```

use std::time::Duration;

use hostdb::HostDb;
use rapid_qef::exec::ExecContext;
use rapid_storage::schema::{Field, Schema};
use rapid_storage::scn::RowChange;
use rapid_storage::types::{DataType, Value};

fn main() {
    let mut db = HostDb::new(ExecContext::dpu());
    db.create_table(
        "inventory",
        Schema::new(vec![
            Field::new("sku", DataType::Int),
            Field::new("stock", DataType::Int),
            Field::new("warehouse", DataType::Varchar),
        ]),
    );
    db.bulk_insert(
        "inventory",
        (0..50_000i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(100 + i % 37),
                Value::Str(["FRA", "IAD", "SIN"][(i % 3) as usize].to_string()),
            ]
        }),
    );
    db.load_into_rapid("inventory").expect("load");
    println!(
        "loaded 50,000 rows into RAPID at {}",
        db.rapid().read().catalog()["inventory"].scn
    );

    let total = |db: &HostDb| {
        let r = db
            .execute_sql("SELECT SUM(stock) AS s, COUNT(*) AS n FROM inventory")
            .expect("query");
        (r.rows[0][0].clone(), r.rows[0][1].clone(), r.site)
    };
    let (s0, n0, site) = total(&db);
    println!("baseline: stock={s0} rows={n0} (ran on {site:?})");

    // --- Commit changes: the table moves to a fresh SCN ------------------
    let scn = db
        .commit(
            "inventory",
            vec![
                RowChange::Insert(vec![
                    Value::Int(999_001),
                    Value::Int(5000),
                    Value::Str("FRA".into()),
                ]),
                RowChange::Update {
                    rid: 0,
                    row: vec![Value::Int(0), Value::Int(0), Value::Str("FRA".into())],
                },
                RowChange::Delete { rid: 1 },
            ],
        )
        .expect("commit");
    println!("\ncommitted 1 insert, 1 update, 1 delete at {scn}");

    // The very next query's admission check sees the host table is ahead of
    // the RAPID snapshot and checkpoints before executing (§3.3).
    let (s1, n1, site) = total(&db);
    println!("after commit: stock={s1} rows={n1} (ran on {site:?}) — changes visible");

    // --- Background checkpointing ----------------------------------------
    db.start_checkpointer(Duration::from_millis(20));
    for i in 0..5 {
        db.commit(
            "inventory",
            vec![RowChange::Insert(vec![
                Value::Int(999_100 + i),
                Value::Int(1),
                Value::Str("SIN".into()),
            ])],
        );
    }
    std::thread::sleep(Duration::from_millis(200));
    let rapid_rows = db.rapid().read().catalog()["inventory"].rows();
    println!("\nbackground checkpointer shipped the 5 inserts: RAPID now holds {rapid_rows} rows");

    let r = db
        .execute_sql(
            "SELECT warehouse, COUNT(*) AS skus, SUM(stock) AS stock \
             FROM inventory GROUP BY warehouse ORDER BY warehouse",
        )
        .expect("final");
    println!("\nfinal per-warehouse state (on {:?}):", r.site);
    for row in &r.rows {
        println!(
            "  {:<4} skus={:<7} stock={}",
            row[0].to_string(),
            row[1].to_string(),
            row[2]
        );
    }
}
