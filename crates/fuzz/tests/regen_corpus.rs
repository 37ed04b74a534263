//! Regenerates the committed replay corpus under `fuzz/corpus/`.
//!
//! Each entry pins one divergence class the differential fuzzer (or a
//! differential audit done alongside it) forced out of the engines,
//! minimized to the smallest SQL + data that still exercised the bug.
//! The normal corpus replay test (`tests/differential_fuzz.rs`) loads
//! these files from disk; this test re-writes them from source so the
//! format always matches the current serde layout.
//!
//! Run with `REGEN_CORPUS=1 cargo test -p rapid-fuzz --test regen_corpus`
//! after adding an entry; without the env var it only checks that every
//! entry replays cleanly.

use rapid_fuzz::corpus::{self, CorpusEntry};
use rapid_fuzz::datagen::{ColumnSpec, TableSpec};
use rapid_fuzz::runner::run_sql;
use rapid_storage::types::{DataType, Value};

fn col(name: &str, dtype: DataType) -> ColumnSpec {
    ColumnSpec {
        name: name.into(),
        dtype,
    }
}

fn i(v: i64) -> Value {
    Value::Int(v)
}

fn s(v: &str) -> Value {
    Value::Str(v.into())
}

fn dec2(unscaled: i64) -> Value {
    Value::Decimal { unscaled, scale: 2 }
}

/// Every committed repro, in one place.
fn entries() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "empty-input-global-aggregate".into(),
            note: "Ungrouped aggregate over empty input: the host emitted the mandatory \
                   single row (COUNT 0, others NULL) while both columnar engines emitted \
                   zero rows because no group was ever upserted. Fixed by synthesizing the \
                   implicit global group in exec_groupby (GroupTable::force_global_group)."
                .into(),
            seed: None,
            sql: "SELECT COUNT(*) AS c0, MIN(ta_id) AS c1, SUM(ta_id) AS c2 FROM ta \
                  WHERE ta_big <= -9223372036854775807"
                .into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![col("ta_id", DataType::Int), col("ta_big", DataType::Int)],
                rows: vec![vec![i(1), i(5)], vec![i(2), i(0)]],
            }],
        },
        CorpusEntry {
            name: "neq-string-literal-absent-from-dict".into(),
            note: "`ta_s <> 'grapefruit'` with 'grapefruit' absent from the dictionary \
                   compiled to Pred::Const(true), which let NULL rows through; SQL \
                   three-valued comparison requires NULL <> x to be UNKNOWN (row dropped). \
                   Fixed by compiling the absent-literal case to Pred::NotNull."
                .into(),
            seed: None,
            sql: "SELECT ta_k AS c0 FROM ta WHERE ta_s <> 'grapefruit'".into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![col("ta_k", DataType::Int), col("ta_s", DataType::Varchar)],
                rows: vec![
                    vec![i(1), s("apple")],
                    vec![i(2), Value::Null],
                    vec![i(3), s("pear")],
                ],
            }],
        },
        CorpusEntry {
            name: "neq-int-literal-outside-encoding".into(),
            note: "Same class as the dictionary case, on the numeric path: a `<>` literal \
                   that cannot be represented in the column's narrowed encoding used to \
                   compile to Pred::Const(true) and leak NULL rows."
                .into(),
            seed: None,
            sql: "SELECT ta_id AS c0 FROM ta WHERE ta_a <> 12345".into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![col("ta_id", DataType::Int), col("ta_a", DataType::Int)],
                rows: vec![vec![i(1), i(1)], vec![i(2), Value::Null], vec![i(3), i(2)]],
            }],
        },
        CorpusEntry {
            name: "left-outer-join-null-pad-variant".into(),
            note: "Partitioned LEFT OUTER JOIN: partitions with an empty build side padded \
                   the build columns with I64 NULL vectors while matched partitions \
                   gathered the build table's narrowed variants (dictionary codes here), \
                   so concatenating partition outputs panicked with a column variant \
                   mismatch. Fixed by padding with each build column's physical prototype."
                .into(),
            seed: Some(0x99164271ed5fe3b5),
            sql: "SELECT tb_s AS c0 FROM ta LEFT JOIN tb ON ta_k = tb_k".into(),
            tables: vec![
                TableSpec {
                    name: "ta".into(),
                    columns: vec![col("ta_k", DataType::Int)],
                    rows: vec![
                        vec![i(0)],
                        vec![i(1)],
                        vec![i(2)],
                        vec![i(3)],
                        vec![i(4)],
                        vec![i(5)],
                        vec![i(6)],
                        vec![Value::Null],
                    ],
                },
                TableSpec {
                    name: "tb".into(),
                    columns: vec![col("tb_k", DataType::Int), col("tb_s", DataType::Varchar)],
                    rows: vec![
                        vec![i(0), s("apple")],
                        vec![i(1), s("banana")],
                        vec![i(1), Value::Null],
                    ],
                },
            ],
        },
        CorpusEntry {
            name: "left-outer-join-grouped-agg-over-pad".into(),
            note: "The same pad-variant panic reached through GROUP BY: aggregating \
                   SUM(tb_v) over the NULL-padded right side of a LEFT JOIN crashed both \
                   columnar engines while the host returned the grouped rows."
                .into(),
            seed: Some(0x2ca91442046c2ced),
            sql: "SELECT ta_big AS c0, COUNT(ta_id) AS c1, SUM(tb_v) AS c2 FROM ta \
                  LEFT JOIN tb ON ta_k = tb_k GROUP BY ta_big"
                .into(),
            tables: vec![
                TableSpec {
                    name: "ta".into(),
                    columns: vec![
                        col("ta_id", DataType::Int),
                        col("ta_k", DataType::Int),
                        col("ta_big", DataType::Int),
                    ],
                    rows: vec![
                        vec![i(1), i(0), i(i64::MAX)],
                        vec![i(2), i(3), i(i64::MIN)],
                        vec![i(3), i(5), i(0)],
                        vec![i(4), Value::Null, i(i64::MAX)],
                    ],
                },
                TableSpec {
                    name: "tb".into(),
                    columns: vec![
                        col("tb_k", DataType::Int),
                        col("tb_v", DataType::Decimal { scale: 2 }),
                    ],
                    rows: vec![vec![i(0), dec2(150)], vec![i(0), dec2(-25)]],
                },
            ],
        },
        CorpusEntry {
            name: "order-by-nulls-last-extremes".into(),
            note: "ORDER BY with NULLs next to i64 extremes: NULLs must sort after every \
                   value (NULLS LAST) in both directions, including past i64::MAX, and \
                   LIMIT must cut after that placement. Pinned while fixing the radix \
                   sort's order key and the host comparator to agree."
                .into(),
            seed: None,
            sql: "SELECT ta_big AS c0 FROM ta ORDER BY c0 ASC LIMIT 3".into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![col("ta_id", DataType::Int), col("ta_big", DataType::Int)],
                rows: vec![
                    vec![i(1), i(i64::MAX)],
                    vec![i(2), Value::Null],
                    vec![i(3), i(i64::MIN)],
                    vec![i(4), i(3)],
                    vec![i(5), Value::Null],
                ],
            }],
        },
        CorpusEntry {
            name: "like-underscore-and-suffix".into(),
            note: "LIKE patterns beyond prefix%/%substring%: `_` wildcards and mixed \
                   `%`/`_` shapes must agree with the general matcher on every engine \
                   (case-sensitive, NULL never matches)."
                .into(),
            seed: None,
            sql: "SELECT ta_s AS c0 FROM ta WHERE ta_s LIKE 'a_b%'".into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![col("ta_id", DataType::Int), col("ta_s", DataType::Varchar)],
                rows: vec![
                    vec![i(1), s("a_b")],
                    vec![i(2), s("axb")],
                    vec![i(3), s("ab")],
                    vec![i(4), s("a_bcd")],
                    vec![i(5), s("aXbY")],
                    vec![i(6), Value::Null],
                    vec![i(7), s("Axb")],
                ],
            }],
        },
        CorpusEntry {
            name: "avg-rounds-half-away-from-zero".into(),
            note: "AVG of integers produces a scale-6 decimal; the quotient must round \
                   half away from zero identically on all engines, including for \
                   negative repeating decimals like -2/3."
                .into(),
            seed: None,
            sql: "SELECT AVG(ta_a) AS c0, COUNT(*) AS c1 FROM ta".into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![col("ta_id", DataType::Int), col("ta_a", DataType::Int)],
                rows: vec![
                    vec![i(1), i(-1)],
                    vec![i(2), i(-1)],
                    vec![i(3), i(0)],
                    vec![i(4), Value::Null],
                ],
            }],
        },
        CorpusEntry {
            name: "having-over-a-group-by-without-groups".into(),
            note: "An on-the-fly GROUP BY that no row reached emitted a batch with no rows \
                   and no columns, and the HAVING filter above it failed with `column \
                   index 1 out of range (0 columns)` on both columnar engines while the \
                   host returned its rows. Found as soon as the generator drew `col IN \
                   (SELECT k ... GROUP BY k HAVING agg > n)`; no SQL reached the shape \
                   before. Fixed by emitting no batch at all, as the partitioned strategy \
                   always did."
                .into(),
            seed: Some(0x140a2a6532ad071a),
            sql: "SELECT ta_id AS c0 FROM ta WHERE ta_k IN (SELECT tb_id FROM tb \
                  WHERE tb_s LIKE '_' GROUP BY tb_id HAVING SUM(tb_k) <= -1)"
                .into(),
            tables: vec![
                TableSpec {
                    name: "ta".into(),
                    columns: vec![col("ta_id", DataType::Int), col("ta_k", DataType::Int)],
                    rows: vec![vec![i(0), i(1)], vec![i(1), Value::Null]],
                },
                TableSpec {
                    name: "tb".into(),
                    columns: vec![
                        col("tb_id", DataType::Int),
                        col("tb_k", DataType::Int),
                        col("tb_s", DataType::Varchar),
                    ],
                    rows: vec![vec![i(1), i(-2), s("pear")]],
                },
            ],
        },
        CorpusEntry {
            name: "arithmetic-over-aggregates-without-groups".into(),
            note: "The same column-less batch under the `Project` that a select item \
                   computed from two aggregates lowers to: `column index 0 out of range \
                   (0 columns)` on both columnar engines, zero rows on the host."
                .into(),
            seed: Some(0x2c22742c2d7c88fe),
            sql: "SELECT ta_k AS c0, MIN(ta_id) * MAX(ta_a) AS c1 FROM ta \
                  WHERE ta_id BETWEEN -36 AND -4 GROUP BY ta_k"
                .into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![
                    col("ta_id", DataType::Int),
                    col("ta_k", DataType::Int),
                    col("ta_a", DataType::Int),
                ],
                rows: vec![vec![i(0), i(1), Value::Null]],
            }],
        },
        CorpusEntry {
            name: "window-over-an-empty-input".into(),
            note: "The first window function the grammar emitted over a WHERE that keeps \
                   no row: the engine concatenated no batches into a column-less one, \
                   appended the window column to it and failed the Map above with `column \
                   index 2 out of range (1 columns)`; zero rows on the host. Fixed by \
                   handing on no batch, as every other operator does for no rows."
                .into(),
            seed: Some(0xc7070103f072756b),
            sql: "SELECT ROW_NUMBER() OVER (PARTITION BY ta_k ORDER BY ta_k, ta_id) AS c2 \
                  FROM ta WHERE ta_k BETWEEN 27 AND 38"
                .into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![col("ta_id", DataType::Int), col("ta_k", DataType::Int)],
                rows: vec![vec![i(0), i(3)]],
            }],
        },
        CorpusEntry {
            name: "rank-null-keys-are-peers".into(),
            note: "RANK() over rows whose ORDER BY key is NULL: the columnar engines rank \
                   them 1, 1 (rows the window order leaves equal are peers), the host's \
                   Volcano oracle 1, 2 — its tie test asked `compare`, which has no answer \
                   for NULLs, instead of the comparator it had just sorted by. Fixed in the \
                   oracle."
                .into(),
            seed: Some(0x47610f5d893ae116),
            sql: "SELECT RANK() OVER (ORDER BY ta_big) AS c1 FROM ta".into(),
            tables: vec![TableSpec {
                name: "ta".into(),
                columns: vec![col("ta_id", DataType::Int), col("ta_big", DataType::Int)],
                rows: vec![vec![i(0), Value::Null], vec![i(2), Value::Null]],
            }],
        },
    ]
}

/// Every entry must replay divergence-free against the current engines;
/// with `REGEN_CORPUS=1` the files are (re)written first.
#[test]
fn corpus_entries_are_current_and_clean() {
    let regen = std::env::var("REGEN_CORPUS").is_ok();
    let dir = corpus::corpus_dir();
    for entry in entries() {
        if regen {
            let path = corpus::save(&dir, &entry);
            eprintln!("wrote {path:?}");
        }
        let out = run_sql(&entry.tables, &entry.sql)
            .unwrap_or_else(|e| panic!("{}: does not reach the engines: {e}", entry.name));
        assert!(
            out.divergence().is_none(),
            "{}: diverges:\n{}",
            entry.name,
            out.divergence().unwrap()
        );
    }
}
