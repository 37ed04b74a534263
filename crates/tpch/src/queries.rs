//! The paper's "representative half" of TPC-H as SQL:
//! Q1, Q3, Q4, Q5, Q6, Q9, Q10, Q12, Q14, Q18, Q19.
//!
//! Parameters are the spec's validation defaults. The statements enter the
//! way any statement does — through the host database's SQL front end,
//! which pushes single-table predicates into the scans and keeps joins in
//! FROM order; the RAPID compiler then prunes columns, orders the joins and
//! makes the physical decisions. The text fixes what the front end leaves
//! alone and the simulated series depend on: FROM order is the order the
//! join search numbers its relations in, and an `Aggregate` emits group
//! keys before aggregates whatever order the select list has.

use rapid_qcomp::logical::LogicalPlan;

/// The eleven statements by name.
pub const STATEMENTS: [(&str, &str); 11] = [
    // Pricing summary report: a scan-heavy, low-NDV aggregation.
    (
        "Q1",
        "SELECT l_returnflag, l_linestatus,
                SUM(l_quantity) AS sum_qty,
                SUM(l_extendedprice) AS sum_base_price,
                SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
                SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
                AVG(l_quantity) AS avg_qty,
                AVG(l_extendedprice) AS avg_price,
                AVG(l_discount) AS avg_disc,
                COUNT(l_orderkey) AS count_order
         FROM lineitem
         WHERE l_shipdate <= DATE '1998-09-02'
         GROUP BY l_returnflag, l_linestatus
         ORDER BY l_returnflag, l_linestatus",
    ),
    // Shipping priority: 3-way join + top-10.
    (
        "Q3",
        "SELECT l_orderkey, o_orderdate, o_shippriority,
                SUM(l_extendedprice * (1 - l_discount)) AS revenue
         FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
         WHERE c_mktsegment = 'BUILDING'
           AND o_orderdate < DATE '1995-03-15'
           AND l_shipdate > DATE '1995-03-15'
         GROUP BY l_orderkey, o_orderdate, o_shippriority
         ORDER BY revenue DESC, o_orderdate
         LIMIT 10",
    ),
    // Order priority checking: date-windowed semi-join.
    (
        "Q4",
        "SELECT o_orderpriority, COUNT(o_orderkey) AS order_count
         FROM orders SEMI JOIN lineitem ON o_orderkey = l_orderkey
         WHERE o_orderdate >= DATE '1993-07-01'
           AND o_orderdate < DATE '1993-10-01'
           AND l_commitdate < l_receiptdate
         GROUP BY o_orderpriority
         ORDER BY o_orderpriority",
    ),
    // Local supplier volume: 6-way join with a two-column key pair.
    (
        "Q5",
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
         FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              JOIN nation ON s_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
         WHERE r_name = 'ASIA'
           AND o_orderdate >= DATE '1994-01-01'
           AND o_orderdate < DATE '1995-01-01'
         GROUP BY n_name
         ORDER BY revenue DESC",
    ),
    // Forecasting revenue change: the pure filter+aggregate query.
    (
        "Q6",
        "SELECT SUM(l_extendedprice * l_discount) AS revenue
         FROM lineitem
         WHERE l_shipdate >= DATE '1994-01-01'
           AND l_shipdate < DATE '1995-01-01'
           AND l_discount BETWEEN 0.05 AND 0.07
           AND l_quantity < 24",
    ),
    // Product type profit: 6-way join with a 2-key partsupp join and
    // EXTRACT(YEAR).
    (
        "Q9",
        "SELECT n_name AS nation, EXTRACT(YEAR FROM o_orderdate) AS o_year,
                SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity)
                    AS sum_profit
         FROM lineitem
              JOIN part ON l_partkey = p_partkey
              JOIN supplier ON l_suppkey = s_suppkey
              JOIN partsupp ON l_partkey = ps_partkey AND l_suppkey = ps_suppkey
              JOIN orders ON l_orderkey = o_orderkey
              JOIN nation ON s_nationkey = n_nationkey
         WHERE p_name LIKE '%green%'
         GROUP BY n_name, EXTRACT(YEAR FROM o_orderdate)
         ORDER BY nation, o_year DESC",
    ),
    // Returned item reporting: join + group-by + top-20.
    (
        "Q10",
        "SELECT c_custkey, c_name, c_acctbal, c_phone, n_name,
                SUM(l_extendedprice * (1 - l_discount)) AS revenue
         FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              JOIN nation ON c_nationkey = n_nationkey
         WHERE l_returnflag = 'R'
           AND o_orderdate >= DATE '1993-10-01'
           AND o_orderdate < DATE '1994-01-01'
         GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name
         ORDER BY revenue DESC
         LIMIT 20",
    ),
    // Shipping modes and order priority: join + conditional sums.
    (
        "Q12",
        "SELECT l_shipmode,
                SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
                         THEN 1 ELSE 0 END) AS high_line_count,
                SUM(CASE WHEN NOT (o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH')
                         THEN 1 ELSE 0 END) AS low_line_count
         FROM lineitem JOIN orders ON l_orderkey = o_orderkey
         WHERE l_shipmode IN ('MAIL', 'SHIP')
           AND l_commitdate < l_receiptdate
           AND l_shipdate < l_commitdate
           AND l_receiptdate >= DATE '1994-01-01'
           AND l_receiptdate < DATE '1995-01-01'
         GROUP BY l_shipmode
         ORDER BY l_shipmode",
    ),
    // Promotion effect: join + conditional-sum ratio.
    (
        "Q14",
        "SELECT 100 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                               THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
                    / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
         FROM lineitem JOIN part ON l_partkey = p_partkey
         WHERE l_shipdate >= DATE '1995-09-01'
           AND l_shipdate < DATE '1995-10-01'",
    ),
    // Large volume customers: aggregate-filter-semijoin (the IN subquery
    // with HAVING) + top-100.
    (
        "Q18",
        "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
                SUM(l_quantity) AS sum_qty
         FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
         WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                              GROUP BY l_orderkey HAVING SUM(l_quantity) > 300)
         GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
         ORDER BY o_totalprice DESC, o_orderdate
         LIMIT 100",
    ),
    // Discounted revenue: disjunctive multi-attribute predicate over a join
    // (the OR-of-ANDs stress test).
    (
        "Q19",
        "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
         FROM lineitem JOIN part ON l_partkey = p_partkey
         WHERE l_shipmode IN ('AIR', 'AIR REG')
           AND l_shipinstruct = 'DELIVER IN PERSON'
           AND (   (p_brand = 'Brand#12'
                    AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
                    AND l_quantity BETWEEN 1 AND 11
                    AND p_size BETWEEN 1 AND 5)
                OR (p_brand = 'Brand#23'
                    AND p_container IN ('MED BAG', 'MED BOX')
                    AND l_quantity BETWEEN 10 AND 20
                    AND p_size BETWEEN 1 AND 10)
                OR (p_brand = 'Brand#34'
                    AND p_container IN ('LG CASE', 'LG BOX')
                    AND l_quantity BETWEEN 20 AND 30
                    AND p_size BETWEEN 1 AND 15))",
    ),
];

/// All eleven queries with their names, parsed against the generator's
/// schemas.
pub fn all() -> Vec<(&'static str, LogicalPlan)> {
    let table_columns = crate::gen::TABLES
        .iter()
        .map(|(table, columns)| {
            let names = columns.iter().map(|(name, _)| name.to_string()).collect();
            (table.to_string(), names)
        })
        .collect();
    STATEMENTS
        .iter()
        .map(|&(name, sql)| {
            let plan = hostdb::parse_sql(sql, &table_columns)
                .unwrap_or_else(|e| panic!("{name} is in the supported grammar: {e}"));
            (name, plan)
        })
        .collect()
}
