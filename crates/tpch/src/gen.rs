//! Deterministic TPC-H-style data generation.
//!
//! Cardinalities follow the spec per scale factor: supplier 10k·SF,
//! customer 150k·SF, part 200k·SF, partsupp 4/part, orders 1.5M·SF,
//! lineitem 1–7 per order (~4 average), nation 25, region 5. Value
//! domains (dates 1992–1998, quantities 1–50, discounts 0–0.10, taxes
//! 0–0.08, the flag/status/priority/mode/segment pools) also follow the
//! spec, so query selectivities land where the paper's do.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rapid_storage::schema::{Field, Schema};
use rapid_storage::table::{Table, TableBuilder};
use rapid_storage::types::{days_from_civil, DataType, Value};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Scale factor (1.0 = the spec's SF1; default 0.01 for laptop runs).
    pub scale_factor: f64,
    /// RNG seed (tables derive per-table seeds from it).
    pub seed: u64,
    /// Rows per chunk.
    pub chunk_rows: usize,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 0.01,
            seed: 42,
            chunk_rows: 4096,
        }
    }
}

impl TpchConfig {
    /// A config with the given scale factor.
    pub fn sf(scale_factor: f64) -> Self {
        TpchConfig {
            scale_factor,
            ..Default::default()
        }
    }

    fn count(&self, base: u64) -> u64 {
        ((base as f64 * self.scale_factor).round() as u64).max(1)
    }
}

/// All eight generated tables.
#[derive(Debug)]
pub struct TpchData {
    /// REGION (5 rows).
    pub region: Table,
    /// NATION (25 rows).
    pub nation: Table,
    /// SUPPLIER (10k·SF).
    pub supplier: Table,
    /// CUSTOMER (150k·SF).
    pub customer: Table,
    /// PART (200k·SF).
    pub part: Table,
    /// PARTSUPP (4 per part).
    pub partsupp: Table,
    /// ORDERS (1.5M·SF).
    pub orders: Table,
    /// LINEITEM (~4 per order).
    pub lineitem: Table,
}

impl TpchData {
    /// Tables as (name, table) pairs for catalog loading.
    pub fn tables(&self) -> Vec<&Table> {
        vec![
            &self.region,
            &self.nation,
            &self.supplier,
            &self.customer,
            &self.part,
            &self.partsupp,
            &self.orders,
            &self.lineitem,
        ]
    }

    /// Total rows across tables.
    pub fn total_rows(&self) -> usize {
        self.tables().iter().map(|t| t.rows()).sum()
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["AIR", "AIR REG", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"];
const INSTRUCTIONS: [&str; 4] = [
    "COLLECT COD",
    "DELIVER IN PERSON",
    "NONE",
    "TAKE BACK RETURN",
];
const CONTAINERS: [&str; 8] = [
    "SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX", "LG CASE", "LG BOX",
];
const BRANDS: [&str; 5] = ["Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45"];
const TYPE_P1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_P2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_P3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const COLORS: [&str; 10] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "blanched",
    "blue",
    "green",
    "navy",
    "red",
];

const START_DATE: (i32, u32, u32) = (1992, 1, 1);
const END_DATE: (i32, u32, u32) = (1998, 8, 2);

fn date_range() -> (i32, i32) {
    (
        days_from_civil(START_DATE.0, START_DATE.1, START_DATE.2),
        days_from_civil(END_DATE.0, END_DATE.1, END_DATE.2),
    )
}

fn dec(unscaled: i64) -> Value {
    Value::Decimal { unscaled, scale: 2 }
}

/// Every table's columns, in table order. The one list of them: `generate`
/// builds its schemas from it and [`crate::queries`] binds its SQL against
/// it.
pub(crate) const TABLES: [(&str, &[(&str, DataType)]); 8] = {
    use DataType::{Date, Int, Varchar};
    const MONEY: DataType = DataType::Decimal { scale: 2 };
    [
        ("region", &[("r_regionkey", Int), ("r_name", Varchar)]),
        (
            "nation",
            &[
                ("n_nationkey", Int),
                ("n_name", Varchar),
                ("n_regionkey", Int),
            ],
        ),
        (
            "supplier",
            &[
                ("s_suppkey", Int),
                ("s_name", Varchar),
                ("s_nationkey", Int),
                ("s_acctbal", MONEY),
            ],
        ),
        (
            "customer",
            &[
                ("c_custkey", Int),
                ("c_name", Varchar),
                ("c_nationkey", Int),
                ("c_phone", Varchar),
                ("c_acctbal", MONEY),
                ("c_mktsegment", Varchar),
            ],
        ),
        (
            "part",
            &[
                ("p_partkey", Int),
                ("p_name", Varchar),
                ("p_brand", Varchar),
                ("p_type", Varchar),
                ("p_size", Int),
                ("p_container", Varchar),
                ("p_retailprice", MONEY),
            ],
        ),
        (
            "partsupp",
            &[
                ("ps_partkey", Int),
                ("ps_suppkey", Int),
                ("ps_availqty", Int),
                ("ps_supplycost", MONEY),
            ],
        ),
        (
            "orders",
            &[
                ("o_orderkey", Int),
                ("o_custkey", Int),
                ("o_orderstatus", Varchar),
                ("o_totalprice", MONEY),
                ("o_orderdate", Date),
                ("o_orderpriority", Varchar),
                ("o_shippriority", Int),
            ],
        ),
        (
            "lineitem",
            &[
                ("l_orderkey", Int),
                ("l_partkey", Int),
                ("l_suppkey", Int),
                ("l_linenumber", Int),
                ("l_quantity", MONEY),
                ("l_extendedprice", MONEY),
                ("l_discount", MONEY),
                ("l_tax", MONEY),
                ("l_returnflag", Varchar),
                ("l_linestatus", Varchar),
                ("l_shipdate", Date),
                ("l_commitdate", Date),
                ("l_receiptdate", Date),
                ("l_shipinstruct", Varchar),
                ("l_shipmode", Varchar),
            ],
        ),
    ]
};

fn schema(table: &str) -> Schema {
    let (_, columns) = TABLES
        .iter()
        .find(|(name, _)| *name == table)
        .expect("one of the eight tables");
    Schema::new(
        columns
            .iter()
            .map(|&(name, dtype)| Field::new(name, dtype))
            .collect(),
    )
}

/// Build `table` from `rows`, in their order, at the configured chunk size.
fn build(cfg: &TpchConfig, table: &str, rows: impl IntoIterator<Item = Vec<Value>>) -> Table {
    let mut b = TableBuilder::new(table, schema(table)).chunk_rows(cfg.chunk_rows);
    b.extend_rows(rows);
    b.finish()
}

/// Generate all tables.
pub fn generate(cfg: &TpchConfig) -> TpchData {
    // region
    let region = {
        let rows = REGIONS
            .iter()
            .enumerate()
            .map(|(i, r)| vec![Value::Int(i as i64), Value::Str(r.to_string())]);
        build(cfg, "region", rows)
    };

    // nation
    let nation = {
        let rows = NATIONS.iter().enumerate().map(|(i, (n, r))| {
            vec![
                Value::Int(i as i64),
                Value::Str(n.to_string()),
                Value::Int(*r),
            ]
        });
        build(cfg, "nation", rows)
    };

    // supplier
    let n_supp = cfg.count(10_000);
    let supplier = {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5100);
        let rows = (0..n_supp).map(|i| {
            vec![
                Value::Int(i as i64 + 1),
                Value::Str(format!("Supplier#{:09}", i + 1)),
                Value::Int(rng.gen_range(0..25)),
                dec(rng.gen_range(-99999..999999)),
            ]
        });
        build(cfg, "supplier", rows)
    };

    // customer
    let n_cust = cfg.count(150_000);
    let customer = {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC057);
        let rows = (0..n_cust).map(|i| {
            let nat = rng.gen_range(0..25i64);
            vec![
                Value::Int(i as i64 + 1),
                Value::Str(format!("Customer#{:09}", i + 1)),
                Value::Int(nat),
                Value::Str(format!("{}-{:03}-{:07}", 10 + nat, i % 1000, i)),
                dec(rng.gen_range(-99999..999999)),
                Value::Str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_string()),
            ]
        });
        build(cfg, "customer", rows)
    };

    // part
    let n_part = cfg.count(200_000);
    let part = {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9A27);
        let rows = (0..n_part).map(|i| {
            let c1 = COLORS[rng.gen_range(0..COLORS.len())];
            let c2 = COLORS[rng.gen_range(0..COLORS.len())];
            let ptype = format!(
                "{} {} {}",
                TYPE_P1[rng.gen_range(0..TYPE_P1.len())],
                TYPE_P2[rng.gen_range(0..TYPE_P2.len())],
                TYPE_P3[rng.gen_range(0..TYPE_P3.len())]
            );
            vec![
                Value::Int(i as i64 + 1),
                Value::Str(format!("{c1} {c2}")),
                Value::Str(BRANDS[rng.gen_range(0..BRANDS.len())].to_string()),
                Value::Str(ptype),
                Value::Int(rng.gen_range(1..=50)),
                Value::Str(CONTAINERS[rng.gen_range(0..CONTAINERS.len())].to_string()),
                dec(90000 + (i as i64 % 200) * 100),
            ]
        });
        build(cfg, "part", rows)
    };

    // partsupp: 4 suppliers per part.
    let partsupp = {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9A5B);
        let mut rows = Vec::with_capacity(n_part as usize * 4);
        for i in 0..n_part {
            for j in 0..4u64 {
                let supp = (i + j * (n_supp / 4).max(1)) % n_supp + 1;
                rows.push(vec![
                    Value::Int(i as i64 + 1),
                    Value::Int(supp as i64),
                    Value::Int(rng.gen_range(1..10_000)),
                    dec(rng.gen_range(100..100_000)),
                ]);
            }
        }
        build(cfg, "partsupp", rows)
    };

    // orders + lineitem generated together (lineitem derives from orders).
    let n_orders = cfg.count(1_500_000);
    let (lo, hi) = date_range();
    let mut orows = Vec::with_capacity(n_orders as usize);
    let mut lrows = Vec::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x02DE);
    for o in 0..n_orders {
        let orderdate = rng.gen_range(lo..hi - 151);
        let nlines = rng.gen_range(1..=7u32);
        let custkey = rng.gen_range(1..=n_cust) as i64;
        let mut total = 0i64;
        for line in 0..nlines {
            let qty = rng.gen_range(1..=50i64);
            let partkey = rng.gen_range(1..=n_part) as i64;
            let suppkey = ((partkey as u64 - 1 + (line as u64 % 4) * (n_supp / 4).max(1)) % n_supp
                + 1) as i64;
            let price_per = 90_000 + (partkey % 200) * 100; // mirrors p_retailprice
            let extended = qty * price_per;
            let discount = rng.gen_range(0..=10i64); // 0.00-0.10
            let tax = rng.gen_range(0..=8i64);
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = orderdate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            let returnflag = if receiptdate <= days_from_civil(1995, 6, 17) {
                ["R", "A"][rng.gen_range(0..2)]
            } else {
                "N"
            };
            let linestatus = if shipdate > days_from_civil(1995, 6, 17) {
                "O"
            } else {
                "F"
            };
            total += extended;
            lrows.push(vec![
                Value::Int(o as i64 + 1),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(line as i64 + 1),
                Value::Decimal {
                    unscaled: qty * 100,
                    scale: 2,
                },
                dec(extended),
                Value::Decimal {
                    unscaled: discount,
                    scale: 2,
                },
                Value::Decimal {
                    unscaled: tax,
                    scale: 2,
                },
                Value::Str(returnflag.to_string()),
                Value::Str(linestatus.to_string()),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                Value::Str(INSTRUCTIONS[rng.gen_range(0..INSTRUCTIONS.len())].to_string()),
                Value::Str(SHIPMODES[rng.gen_range(0..SHIPMODES.len())].to_string()),
            ]);
        }
        orows.push(vec![
            Value::Int(o as i64 + 1),
            Value::Int(custkey),
            Value::Str(if rng.gen_bool(0.5) { "O" } else { "F" }.to_string()),
            dec(total),
            Value::Date(orderdate),
            Value::Str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_string()),
            Value::Int(rng.gen_range(0..1i64)), // o_shippriority: always 0 per spec
        ]);
    }
    let orders = build(cfg, "orders", orows);
    let lineitem = build(cfg, "lineitem", lrows);

    TpchData {
        region,
        nation,
        supplier,
        customer,
        part,
        partsupp,
        orders,
        lineitem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchData {
        generate(&TpchConfig {
            scale_factor: 0.001,
            seed: 7,
            chunk_rows: 512,
        })
    }

    #[test]
    fn cardinalities_follow_scale_factor() {
        let d = tiny();
        assert_eq!(d.region.rows(), 5);
        assert_eq!(d.nation.rows(), 25);
        assert_eq!(d.supplier.rows(), 10);
        assert_eq!(d.customer.rows(), 150);
        assert_eq!(d.part.rows(), 200);
        assert_eq!(d.partsupp.rows(), 800);
        assert_eq!(d.orders.rows(), 1500);
        // ~4 lineitems per order.
        let l = d.lineitem.rows() as f64 / d.orders.rows() as f64;
        assert!((3.0..5.0).contains(&l), "lines/order = {l}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.lineitem.rows(), b.lineitem.rows());
        assert_eq!(a.lineitem.column_i64(5), b.lineitem.column_i64(5));
        assert_eq!(a.orders.column_i64(4), b.orders.column_i64(4));
    }

    #[test]
    fn foreign_keys_are_valid() {
        let d = tiny();
        let n_cust = d.customer.rows() as i64;
        for ck in d.orders.column_i64(1) {
            assert!(ck >= 1 && ck <= n_cust);
        }
        let n_orders = d.orders.rows() as i64;
        for ok in d.lineitem.column_i64(0) {
            assert!(ok >= 1 && ok <= n_orders);
        }
        let n_part = d.part.rows() as i64;
        for pk in d.lineitem.column_i64(1) {
            assert!(pk >= 1 && pk <= n_part);
        }
    }

    #[test]
    fn lineitem_partsupp_pairs_exist() {
        use std::collections::HashSet;
        let d = tiny();
        let ps: HashSet<(i64, i64)> = d
            .partsupp
            .column_i64(0)
            .into_iter()
            .zip(d.partsupp.column_i64(1))
            .collect();
        let lp = d.lineitem.column_i64(1);
        let ls = d.lineitem.column_i64(2);
        for (p, s) in lp.into_iter().zip(ls) {
            assert!(ps.contains(&(p, s)), "lineitem ({p},{s}) not in partsupp");
        }
    }

    #[test]
    fn dates_in_spec_window_and_ordered() {
        let d = tiny();
        let (lo, hi) = date_range();
        let ship = d.lineitem.column_i64(10);
        let receipt = d.lineitem.column_i64(12);
        for (s, r) in ship.iter().zip(&receipt) {
            assert!(*s >= lo as i64 && *r <= (hi + 160) as i64);
            assert!(r > s, "receipt after ship");
        }
    }

    #[test]
    fn dsb_minimal_common_scales() {
        let d = tiny();
        // Quantities are whole numbers: the minimal common DSB scale is 0
        // and the mantissas are the values themselves.
        let qcol = d.lineitem.schema.index_of("l_quantity").unwrap();
        assert_eq!(d.lineitem.scales[qcol], 0);
        for q in d.lineitem.column_i64(qcol) {
            assert!((1..=50).contains(&q));
        }
        // Discounts need two fractional digits (0.01 granularity).
        let dcol = d.lineitem.schema.index_of("l_discount").unwrap();
        assert_eq!(d.lineitem.scales[dcol], 2);
    }

    #[test]
    fn string_dictionaries_are_spec_pools() {
        let d = tiny();
        let seg = d.customer.schema.index_of("c_mktsegment").unwrap();
        let dict = d.customer.dicts[seg].as_ref().unwrap();
        assert!(dict.len() <= 5);
        assert!(dict.code_of("BUILDING").is_some());
        let rf = d.lineitem.schema.index_of("l_returnflag").unwrap();
        let dict = d.lineitem.dicts[rf].as_ref().unwrap();
        assert!(dict.len() <= 3);
    }
}
