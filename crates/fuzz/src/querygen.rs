//! Seeded random SQL generation over the fuzz tables.
//!
//! The generator is shaped so that any divergence it produces is a real
//! engine bug, not an artifact of under-specified SQL semantics:
//!
//! * SUM/AVG draw only from bounded-magnitude columns — summing the
//!   boundary column `ta_big` would make overflow depend on the (engine-
//!   specific) accumulation order, which is not a divergence.
//! * Arithmetic expressions carry a conservative magnitude bound through
//!   generation, so products and sums stay far from `i64` overflow at the
//!   DSB mantissa level in every engine.
//! * `ORDER BY` always lists **all** output aliases, so `LIMIT` selects a
//!   well-defined multiset even though engines break ties differently.
//! * Division is only by non-zero integer literals.
//! * Joins are equi-joins on integer key columns (per-table string
//!   dictionaries are not reconciled across tables).
//!
//! The boundary column `ta_big` still flows through comparisons, MIN/MAX,
//! COUNT, GROUP BY keys and ORDER BY — everywhere it cannot create
//! order-dependent overflow.
//!
//! The host oracle runs a statement as written while the compiler narrows
//! every scan to the columns the statement reads, so three shapes are
//! drawn on purpose: select lists over a strict subset of a table's
//! columns (every projection query: at most four of `ta`'s seven),
//! aggregates that are `COUNT(*)` alone and so name no column at all, and
//! joins whose select list names only one side, leaving the other to
//! contribute its key and nothing else.
//!
//! Two shapes go through the front end's subquery and computed-aggregate
//! lowering: a `col IN (SELECT k FROM t [WHERE p] [GROUP BY k HAVING agg >
//! n])` conjunct — over `tb`, or over `ta` again so the key names collide —
//! and a select item that is arithmetic over two aggregates, division by an
//! aggregate included (every engine refuses a zero divisor, which is
//! agreement).
//!
//! Window functions and set operations ship, so both are drawn. A
//! projection query may carry `RANK() / ROW_NUMBER() / SUM(col) OVER
//! (PARTITION BY ... ORDER BY ...)` items; the window's ORDER BY ends in
//! the row ids of the FROM shape whenever ties would let engines number or
//! accumulate rows differently (always, except for some `RANK()`s, where
//! peers share a rank). A set operation joins two or three projection
//! queries of equal arity whose items agree position by position in type,
//! scale and dictionary — a string position is `ta_s` on every side, as
//! joins are on integer keys — while the widths the values are stored in
//! differ freely. Each side is a statement of its own (the grammar binds
//! ORDER BY and LIMIT to the select they follow).

use rapid_storage::types::civil_from_days;
use serde::{Deserialize, Serialize};

use crate::rng::Rng;

/// One select item: an expression and its output alias.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Item {
    /// Expression SQL (also the literal GROUP BY text for grouping items).
    pub sql: String,
    /// Output alias (`c0`, `c1`, …).
    pub alias: String,
    /// Whether this item is a group key (its SQL appears in GROUP BY).
    pub grouping: bool,
}

/// A generated query in structural form, so the shrinker can drop parts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Select items in order.
    pub items: Vec<Item>,
    /// Full join clause (e.g. `LEFT JOIN tb ON ta_k = tb_k`), if any.
    pub join: Option<String>,
    /// WHERE conjuncts (AND-ed).
    pub filters: Vec<String>,
    /// GROUP BY expressions (literal text of the grouping items).
    pub group_by: Vec<String>,
    /// ORDER BY over output aliases with per-key DESC flags.
    pub order_by: Vec<(String, bool)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// `UNION`, `INTERSECT` or `MINUS`, and the statement on its right:
    /// projection items of this one's arity and types.
    pub set_op: Option<(String, Box<QuerySpec>)>,
}

impl QuerySpec {
    /// Render to SQL.
    pub fn to_sql(&self) -> String {
        let mut s = String::from("SELECT ");
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{} AS {}", it.sql, it.alias));
        }
        s.push_str(" FROM ta");
        if let Some(j) = &self.join {
            s.push(' ');
            s.push_str(j);
        }
        if !self.filters.is_empty() {
            s.push_str(" WHERE ");
            s.push_str(&self.filters.join(" AND "));
        }
        if !self.group_by.is_empty() {
            s.push_str(" GROUP BY ");
            s.push_str(&self.group_by.join(", "));
        }
        if !self.order_by.is_empty() {
            s.push_str(" ORDER BY ");
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|(a, d)| if *d { format!("{a} DESC") } else { a.clone() })
                .collect();
            s.push_str(&keys.join(", "));
        }
        if let Some(n) = self.limit {
            s.push_str(&format!(" LIMIT {n}"));
        }
        if let Some((op, right)) = &self.set_op {
            s.push_str(&format!(" {op} {}", right.to_sql()));
        }
        s
    }
}

/// A bounded-magnitude numeric column visible to expression generation.
#[derive(Clone, Copy)]
struct NumCol {
    name: &'static str,
    /// Conservative bound on |value|.
    vbound: f64,
    /// Decimal scale.
    scale: u32,
}

/// What the current FROM/JOIN shape makes visible.
struct Env {
    nums: Vec<NumCol>,
    strs: Vec<&'static str>,
    dates: Vec<&'static str>,
    bigs: Vec<&'static str>,
}

impl Env {
    fn new(tb_visible: bool) -> Env {
        let mut nums = vec![
            NumCol {
                name: "ta_id",
                vbound: 40.0,
                scale: 0,
            },
            NumCol {
                name: "ta_k",
                vbound: 4.0,
                scale: 0,
            },
            NumCol {
                name: "ta_a",
                vbound: 1.0e6,
                scale: 0,
            },
            NumCol {
                name: "ta_b",
                vbound: 100.0,
                scale: 2,
            },
        ];
        let mut strs = vec!["ta_s"];
        if tb_visible {
            nums.push(NumCol {
                name: "tb_id",
                vbound: 30.0,
                scale: 0,
            });
            nums.push(NumCol {
                name: "tb_k",
                vbound: 4.0,
                scale: 0,
            });
            nums.push(NumCol {
                name: "tb_v",
                vbound: 50.0,
                scale: 2,
            });
            strs.push("tb_s");
        }
        Env {
            nums,
            strs,
            dates: vec!["ta_d"],
            bigs: vec!["ta_big"],
        }
    }

    /// `tb`'s columns alone: the select list of a join that ignores `ta`.
    /// Dates and the boundary column live on `ta`, so there are none.
    fn tb_only() -> Env {
        let both = Env::new(true);
        let of_tb = |name: &str| name.starts_with("tb_");
        Env {
            nums: both.nums.into_iter().filter(|c| of_tb(c.name)).collect(),
            strs: both.strs.into_iter().filter(|s| of_tb(s)).collect(),
            dates: Vec::new(),
            bigs: Vec::new(),
        }
    }

    /// Every visible column name.
    fn columns(&self) -> Vec<&'static str> {
        let mut pool: Vec<&str> = self.nums.iter().map(|c| c.name).collect();
        pool.extend(&self.strs);
        pool.extend(&self.dates);
        pool.extend(&self.bigs);
        pool
    }
}

/// An expression with its magnitude bookkeeping.
struct GenExpr {
    sql: String,
    vbound: f64,
    scale: u32,
}

/// Keep DSB mantissas well clear of i64 range in every engine.
const MANTISSA_LIMIT: f64 = 1.0e15;

fn mantissa(vbound: f64, scale: u32) -> f64 {
    vbound * 10f64.powi(scale as i32)
}

fn dec_literal(rng: &mut Rng) -> GenExpr {
    let unscaled = rng.range_i64(-999, 999);
    let a = unscaled.abs();
    GenExpr {
        sql: format!(
            "{}{}.{:02}",
            if unscaled < 0 { "-" } else { "" },
            a / 100,
            a % 100
        ),
        vbound: 10.0,
        scale: 2,
    }
}

fn num_atom(rng: &mut Rng, env: &Env) -> GenExpr {
    let roll = rng.below(100);
    if roll < 60 {
        let c = rng.pick(&env.nums);
        GenExpr {
            sql: c.name.into(),
            vbound: c.vbound,
            scale: c.scale,
        }
    } else if roll < 85 {
        let v = rng.range_i64(-20, 20);
        GenExpr {
            sql: format!("{v}"),
            vbound: 20.0,
            scale: 0,
        }
    } else {
        dec_literal(rng)
    }
}

/// A scale-0 atom (for CASE branches, which must agree on scale).
fn int_atom(rng: &mut Rng, env: &Env) -> GenExpr {
    let ints: Vec<NumCol> = env.nums.iter().copied().filter(|c| c.scale == 0).collect();
    if rng.chance(50) {
        let c = *rng.pick(&ints);
        GenExpr {
            sql: c.name.into(),
            vbound: c.vbound,
            scale: 0,
        }
    } else {
        let v = rng.range_i64(-20, 20);
        GenExpr {
            sql: format!("{v}"),
            vbound: 20.0,
            scale: 0,
        }
    }
}

fn num_expr(rng: &mut Rng, env: &Env, depth: u32) -> GenExpr {
    if depth == 0 || rng.chance(40) {
        return num_atom(rng, env);
    }
    match rng.below(5) {
        0 | 1 => {
            // Add / Sub.
            let l = num_expr(rng, env, depth - 1);
            let r = num_expr(rng, env, depth - 1);
            let scale = l.scale.max(r.scale);
            let vbound = l.vbound + r.vbound;
            if mantissa(vbound, scale) > MANTISSA_LIMIT {
                return num_atom(rng, env);
            }
            let op = if rng.chance(50) { "+" } else { "-" };
            GenExpr {
                sql: format!("({} {op} {})", l.sql, r.sql),
                vbound,
                scale,
            }
        }
        2 => {
            // Mul: scales add at the mantissa level.
            let l = num_expr(rng, env, depth - 1);
            let r = num_expr(rng, env, depth - 1);
            let scale = l.scale + r.scale;
            let vbound = l.vbound * r.vbound;
            if scale > 6 || mantissa(vbound, scale) > MANTISSA_LIMIT {
                return num_atom(rng, env);
            }
            GenExpr {
                sql: format!("({} * {})", l.sql, r.sql),
                vbound,
                scale,
            }
        }
        3 => {
            // Div by a non-zero integer literal; output scale widens to 6.
            let l = num_expr(rng, env, depth - 1);
            let d = rng.range_i64(1, 9);
            let d = if rng.chance(30) { -d } else { d };
            if mantissa(l.vbound, 6) > MANTISSA_LIMIT {
                return num_atom(rng, env);
            }
            GenExpr {
                sql: format!("({} / {d})", l.sql),
                vbound: l.vbound,
                scale: 6,
            }
        }
        _ => {
            // CASE: both branches scale-0 atoms so the output type is
            // unambiguous; the predicate reuses the WHERE generator.
            let p = simple_pred(rng, env, 0);
            let t = int_atom(rng, env);
            let e = int_atom(rng, env);
            GenExpr {
                sql: format!("CASE WHEN {p} THEN {} ELSE {} END", t.sql, e.sql),
                vbound: t.vbound.max(e.vbound),
                scale: 0,
            }
        }
    }
}

/// LIKE pattern pool: repeated `%`, bare `_`, leading/trailing wildcards,
/// wildcard-literal interleavings, and exact strings (some containing the
/// metacharacters as data).
const LIKE_PATTERNS: [&str; 16] = [
    "%", "%%", "", "a%", "%e", "%an%", "gr_pe%", "_", "____", "%a_", "_a%", "ap%le", "%p%l%",
    "a%e", "apple", "a_b",
];

fn date_literal(rng: &mut Rng) -> String {
    let days = rng.range_i64(7_300, 22_000) as i32;
    let (y, m, d) = civil_from_days(days);
    format!("DATE '{y:04}-{m:02}-{d:02}'")
}

fn cmp_op(rng: &mut Rng) -> &'static str {
    ["=", "<>", "<", "<=", ">", ">="][rng.below(6) as usize]
}

/// One predicate; `depth` allows limited OR/NOT nesting.
fn simple_pred(rng: &mut Rng, env: &Env, depth: u32) -> String {
    if depth > 0 && rng.chance(20) {
        let a = simple_pred(rng, env, depth - 1);
        return if rng.chance(50) {
            let b = simple_pred(rng, env, depth - 1);
            format!("({a} OR {b})")
        } else {
            format!("NOT ({a})")
        };
    }
    // Dates, the boundary column and the slot-ordered key are `ta`'s: their
    // predicate kinds come last and are not drawn for a `tb`-only scope.
    let has_ta = !env.dates.is_empty();
    match rng.below(if has_ta { 9 } else { 6 }) {
        0 => {
            // Numeric column vs literal (decimal columns get decimal or
            // deliberately mis-scaled literals to exercise boundary
            // rounding in the compiler).
            let c = rng.pick(&env.nums);
            if c.scale > 0 {
                let lit = match rng.below(3) {
                    0 => dec_literal(rng).sql,
                    1 => format!("{}", rng.range_i64(-90, 90)),
                    _ => {
                        let u = rng.range_i64(-9999, 9999);
                        let a = u.abs();
                        format!(
                            "{}{}.{:03}",
                            if u < 0 { "-" } else { "" },
                            a / 1000,
                            a % 1000
                        )
                    }
                };
                format!("{} {} {lit}", c.name, cmp_op(rng))
            } else {
                format!("{} {} {}", c.name, cmp_op(rng), rng.range_i64(-50, 50))
            }
        }
        1 => {
            // Same-scale column-vs-column compare (includes the boundary
            // column — comparisons never do arithmetic).
            let mut pool: Vec<&str> = env
                .nums
                .iter()
                .filter(|c| c.scale == 0)
                .map(|c| c.name)
                .collect();
            pool.extend(env.bigs.iter().copied());
            let a = *rng.pick(&pool);
            let b = *rng.pick(&pool);
            format!("{a} {} {b}", cmp_op(rng))
        }
        2 => {
            // BETWEEN on int / decimal / date (sometimes empty-range).
            match rng.below(if has_ta { 3 } else { 2 }) {
                0 => {
                    let c = rng
                        .pick(&env.nums.iter().filter(|c| c.scale == 0).collect::<Vec<_>>())
                        .name;
                    let mut lo = rng.range_i64(-40, 40);
                    let mut hi = rng.range_i64(-40, 40);
                    if lo > hi && rng.chance(80) {
                        std::mem::swap(&mut lo, &mut hi);
                    }
                    format!("{c} BETWEEN {lo} AND {hi}")
                }
                1 => {
                    let c = rng
                        .pick(&env.nums.iter().filter(|c| c.scale > 0).collect::<Vec<_>>())
                        .name;
                    let (a, b) = (dec_literal(rng).sql, dec_literal(rng).sql);
                    format!("{c} BETWEEN {a} AND {b}")
                }
                _ => {
                    let d = *rng.pick(&env.dates);
                    format!(
                        "{d} BETWEEN {} AND {}",
                        date_literal(rng),
                        date_literal(rng)
                    )
                }
            }
        }
        3 => {
            // IN lists.
            if rng.chance(50) {
                let c = rng
                    .pick(&env.nums.iter().filter(|c| c.scale == 0).collect::<Vec<_>>())
                    .name;
                let vals: Vec<String> = (0..rng.range_i64(1, 4))
                    .map(|_| format!("{}", rng.range_i64(-10, 10)))
                    .collect();
                format!("{c} IN ({})", vals.join(", "))
            } else {
                let c = *rng.pick(&env.strs);
                let vals: Vec<String> = (0..rng.range_i64(1, 3))
                    .map(|_| format!("'{}'", rng.pick(&crate::datagen::STRING_POOL)))
                    .collect();
                format!("{c} IN ({})", vals.join(", "))
            }
        }
        4 => {
            let c = *rng.pick(&env.strs);
            format!("{c} LIKE '{}'", rng.pick(&LIKE_PATTERNS))
        }
        5 => {
            let c = *rng.pick(&env.strs);
            format!(
                "{c} {} '{}'",
                ["=", "<>", "<", ">="][rng.below(4) as usize],
                rng.pick(&crate::datagen::STRING_POOL)
            )
        }
        6 => {
            // Boundary column vs extreme literal (the SQL lexer parses
            // i64::MAX but not i64::MIN's magnitude, so the pool stays
            // within ±i64::MAX).
            let c = *rng.pick(&env.bigs);
            let lit = *rng.pick(&[
                i64::MAX,
                -i64::MAX,
                1_000_000_000_000_000_000,
                -1_000_000_000_000_000_000,
                -1,
                0,
                1,
            ]);
            format!("{c} {} {lit}", cmp_op(rng))
        }
        7 => {
            let d = *rng.pick(&env.dates);
            format!("{d} {} {}", cmp_op(rng), date_literal(rng))
        }
        _ => {
            // `ta_id` is the heap slot, so a range or a point on it lies in
            // few chunks: zone maps rule the others out, and every chunk
            // where the literals lie past its rows.
            let mut id = || rng.range_i64(-20, crate::datagen::MAX_TA_ROWS as i64 + 20);
            let (a, b) = (id(), id());
            match rng.below(3) {
                0 => format!("ta_id {} {a}", cmp_op(rng)),
                1 => format!("ta_id BETWEEN {a} AND {}", a + rng.range_i64(0, 80)),
                _ => format!("ta_id IN ({a}, {b})"),
            }
        }
    }
}

fn aggregate(rng: &mut Rng, env: &Env) -> String {
    match rng.below(6) {
        0 => "COUNT(*)".into(),
        1 => format!("COUNT({})", rng.pick(&env.columns())),
        2 | 3 => {
            // SUM/AVG only over bounded columns: never `ta_big`.
            let c = rng.pick(&env.nums).name;
            let f = if rng.chance(50) { "SUM" } else { "AVG" };
            format!("{f}({c})")
        }
        _ => {
            let mut pool: Vec<&str> = env.nums.iter().map(|c| c.name).collect();
            pool.extend(env.dates.iter().copied());
            pool.extend(env.bigs.iter().copied());
            let f = if rng.chance(50) { "MIN" } else { "MAX" };
            format!("{f}({})", rng.pick(&pool))
        }
    }
}

/// Rows an aggregate can see at most: all of `ta` joined to all of `tb`.
const MAX_ROWS: f64 = (crate::datagen::MAX_TA_ROWS * crate::datagen::MAX_TB_ROWS) as f64;

/// Aggregates over one input: two or more of SUM, AVG and COUNT of a
/// bounded expression — which a group table folds into one accumulator —
/// and now and then the sum of that expression times another, which holds
/// it whole, so a Map computes it once for both.
fn shared_aggregates(rng: &mut Rng, env: &Env) -> Vec<String> {
    let summable = |e: &GenExpr| mantissa(e.vbound * MAX_ROWS, e.scale) <= MANTISSA_LIMIT;
    let mut input = num_expr(rng, env, 2);
    if !summable(&input) {
        input = num_atom(rng, env);
    }
    let mut calls: Vec<String> = ["SUM", "AVG", "COUNT"]
        .iter()
        .map(|f| format!("{f}({})", input.sql))
        .collect();
    rng.shuffle(&mut calls);
    calls.truncate(2 + rng.below(2) as usize);
    let factor = int_atom(rng, env);
    let larger = GenExpr {
        sql: format!("({} * {})", input.sql, factor.sql),
        vbound: input.vbound * factor.vbound,
        scale: input.scale,
    };
    if rng.chance(60) && summable(&larger) {
        calls.push(format!("SUM({})", larger.sql));
    }
    calls
}

/// An aggregate call with its magnitude bookkeeping: `COUNT(*)`, or
/// SUM/MIN/MAX over a bounded column.
fn bounded_aggregate(rng: &mut Rng, env: &Env) -> GenExpr {
    let c = rng.pick(&env.nums);
    match rng.below(4) {
        0 => GenExpr {
            sql: "COUNT(*)".into(),
            vbound: MAX_ROWS,
            scale: 0,
        },
        1 | 2 => GenExpr {
            sql: format!("SUM({})", c.name),
            vbound: c.vbound * MAX_ROWS,
            scale: c.scale,
        },
        _ => GenExpr {
            sql: format!("{}({})", if rng.chance(50) { "MIN" } else { "MAX" }, c.name),
            vbound: c.vbound,
            scale: c.scale,
        },
    }
}

/// A select item computed from two aggregates; an operator whose result
/// could leave the safe mantissa range yields to `+`.
fn aggregate_arith(rng: &mut Rng, env: &Env) -> String {
    let mut l = bounded_aggregate(rng, env);
    let r = bounded_aggregate(rng, env);
    if rng.chance(30) {
        let factor = rng.range_i64(2, 100);
        l.sql = format!("{factor} * {}", l.sql);
        l.vbound *= factor as f64;
    }
    let op = match rng.below(4) {
        0 if mantissa(l.vbound * r.vbound, l.scale + r.scale) <= MANTISSA_LIMIT => "*",
        // Division widens the output scale to 6.
        1 if mantissa(l.vbound, 6) <= MANTISSA_LIMIT => "/",
        2 => "-",
        _ => "+",
    };
    format!("{} {op} {}", l.sql, r.sql)
}

/// `key IN (SELECT k FROM t ...)` with `key` an integer key of `env`'s
/// scope and `t` either table — `ta` again makes the inner names the
/// outer's.
fn in_subquery(rng: &mut Rng, env: &Env) -> String {
    let keys: Vec<&str> = ["ta_k", "ta_id", "tb_k", "tb_id"]
        .into_iter()
        .filter(|k| env.nums.iter().any(|c| c.name == *k))
        .collect();
    let (table, inner) = if rng.chance(50) {
        ("ta", Env::new(false))
    } else {
        ("tb", Env::tb_only())
    };
    let k = format!("{table}_{}", if rng.chance(70) { "k" } else { "id" });
    let mut sub = format!("SELECT {k} FROM {table}");
    if rng.chance(40) {
        sub.push_str(&format!(" WHERE {}", simple_pred(rng, &inner, 0)));
    }
    if rng.chance(60) {
        let agg = bounded_aggregate(rng, &inner).sql;
        let n = rng.range_i64(-3, 6);
        sub.push_str(&format!(" GROUP BY {k} HAVING {agg} {} {n}", cmp_op(rng)));
    }
    format!("{} IN ({sub})", rng.pick(&keys))
}

/// `RANK() | ROW_NUMBER() | SUM(col) OVER (PARTITION BY ... ORDER BY ...)`
/// over the columns of `env`, the FROM shape. ROW_NUMBER and the running
/// SUM number and accumulate row by row, so their order must be total: it
/// ends in the shape's row ids, as does every other RANK's.
fn window_item(rng: &mut Rng, env: &Env) -> String {
    let func = match rng.below(3) {
        0 => "RANK()".to_string(),
        1 => "ROW_NUMBER()".to_string(),
        _ => format!("SUM({})", rng.pick(&env.nums).name),
    };
    let mut columns = env.columns();
    rng.shuffle(&mut columns);
    let partition_by = columns[..rng.below(3) as usize].join(", ");
    rng.shuffle(&mut columns);
    let mut order_by: Vec<String> = columns[..1 + rng.below(2) as usize]
        .iter()
        .map(|c| format!("{c}{}", if rng.chance(40) { " DESC" } else { "" }))
        .collect();
    if func != "RANK()" || rng.chance(50) {
        for id in ["ta_id", "tb_id"] {
            let in_scope = env.nums.iter().any(|c| c.name == id);
            if in_scope && !order_by.iter().any(|k| k.starts_with(id)) {
                order_by.push(id.into());
            }
        }
    }
    let mut over = String::new();
    if !partition_by.is_empty() {
        over.push_str(&format!("PARTITION BY {partition_by} "));
    }
    format!("{func} OVER ({over}ORDER BY {})", order_by.join(", "))
}

/// What one position of a set operation holds on every side: values that
/// compare the same in every engine whichever side they came from.
#[derive(Clone, Copy)]
enum SetOpClass {
    /// An integer: a column of any stored width, a literal, or a sum.
    Int,
    /// A two-digit decimal column.
    Dec,
    /// `ta_d`.
    Date,
    /// `ta_s`: one dictionary on every side.
    Str,
}

fn set_op_item(rng: &mut Rng, env: &Env, class: SetOpClass) -> String {
    let of_scale = |scale: u32| -> Vec<&'static str> {
        let at_scale = env.nums.iter().filter(|c| c.scale == scale);
        at_scale.map(|c| c.name).collect()
    };
    match class {
        SetOpClass::Int => {
            let mut pool = of_scale(0);
            pool.extend(&env.bigs);
            match rng.below(10) {
                0..=6 => (*rng.pick(&pool)).into(),
                7 => format!("{}", rng.range_i64(-20, 20)),
                _ => {
                    let (l, r) = (int_atom(rng, env), int_atom(rng, env));
                    format!("({} + {})", l.sql, r.sql)
                }
            }
        }
        SetOpClass::Dec => (*rng.pick(&of_scale(2))).into(),
        SetOpClass::Date => "ta_d".into(),
        SetOpClass::Str => "ta_s".into(),
    }
}

/// Generate one query over the standard `ta`/`tb` tables: a select, or now
/// and then a set operation over two or three of them.
pub fn gen_query(rng: &mut Rng) -> QuerySpec {
    if !rng.chance(12) {
        return gen_select(rng, None);
    }
    let classes: Vec<SetOpClass> = (0..1 + rng.below(3))
        .map(|_| match rng.below(10) {
            0..=5 => SetOpClass::Int,
            6 | 7 => SetOpClass::Dec,
            8 => SetOpClass::Date,
            _ => SetOpClass::Str,
        })
        .collect();
    // Built from the rightmost side: `a OP b OP c` renders as it nests.
    let mut query = gen_select(rng, Some(&classes));
    for _ in 0..if rng.chance(25) { 2 } else { 1 } {
        let mut left = gen_select(rng, Some(&classes));
        let op = *rng.pick(&["UNION", "INTERSECT", "MINUS", "EXCEPT"]);
        left.set_op = Some((op.into(), Box::new(query)));
        query = left;
    }
    query
}

/// One select statement; with `set_op_classes`, a projection whose items
/// are of those classes in that order.
fn gen_select(rng: &mut Rng, set_op_classes: Option<&[SetOpClass]>) -> QuerySpec {
    // FROM shape.
    let join = if rng.chance(50) {
        let kind = match rng.below(100) {
            0..=39 => "JOIN",
            40..=64 => "LEFT JOIN",
            65..=84 => "SEMI JOIN",
            _ => "ANTI JOIN",
        };
        // `ta_id = tb_k` is selective: a few of `ta`'s distinct ids find
        // one of `tb`'s few keys, so inner and semi joins of it filter
        // their probe side.
        let on = match rng.below(100) {
            0..=29 => "ta_k = tb_k",
            30..=49 => "ta_id = tb_id",
            _ => "ta_id = tb_k",
        };
        Some((kind, format!("{kind} tb ON {on}")))
    } else {
        None
    };
    let tb_visible = matches!(join, Some(("JOIN" | "LEFT JOIN", _)));
    let env = Env::new(tb_visible);
    // Predicates on semi/anti-join results may only mention the left side,
    // which `Env::new(false)` already guarantees.

    // A join that emits both sides sometimes gets a select list naming only
    // one of them; WHERE still sees both.
    let select_env = if !tb_visible || rng.chance(70) {
        Env::new(tb_visible)
    } else if rng.chance(50) {
        Env::new(false)
    } else {
        Env::tb_only()
    };
    // `COUNT(*)` alone, or one to three aggregates, some of them computed
    // from two.
    let aggregates = |rng: &mut Rng| -> Vec<String> {
        if rng.chance(20) {
            return vec!["COUNT(*)".into()];
        }
        if rng.chance(20) {
            return shared_aggregates(rng, &select_env);
        }
        (0..1 + rng.below(3))
            .map(|_| {
                if rng.chance(15) {
                    aggregate_arith(rng, &select_env)
                } else {
                    aggregate(rng, &select_env)
                }
            })
            .collect()
    };

    // Select shape.
    let mut items: Vec<Item> = Vec::new();
    let mut group_by: Vec<String> = Vec::new();
    let mut alias = 0usize;
    let mut next_alias = || {
        let a = format!("c{alias}");
        alias += 1;
        a
    };

    if let Some(classes) = set_op_classes {
        // One side of a set operation: `ta` is in every FROM shape.
        for class in classes {
            items.push(Item {
                sql: set_op_item(rng, &env, *class),
                alias: next_alias(),
                grouping: false,
            });
        }
    } else if rng.chance(40) {
        // Grouped aggregation, over keys whose values span a few codes or
        // integers (`ta_k`, `ta_s`, `ta_id`, the years of `ta_d`, `tb_*`)
        // — a table indexed by slot — or too many for one (`ta_a`, `ta_d`,
        // `ta_big`), NULLs among them.
        let visible = select_env.columns();
        let year = "EXTRACT(YEAR FROM ta_d)";
        let mut keys: Vec<&str> = [
            "ta_k", "ta_s", "ta_d", "ta_big", "ta_id", "ta_a", year, "tb_k", "tb_s", "tb_id",
        ]
        .into_iter()
        .filter(|k| visible.contains(k) || (*k == year && visible.contains(&"ta_d")))
        .collect();
        rng.shuffle(&mut keys);
        keys.truncate(1 + rng.below(2) as usize);
        for k in &keys {
            items.push(Item {
                sql: (*k).into(),
                alias: next_alias(),
                grouping: true,
            });
            group_by.push((*k).into());
        }
        for sql in aggregates(rng) {
            items.push(Item {
                sql,
                alias: next_alias(),
                grouping: false,
            });
        }
    } else if rng.chance(35) {
        // Ungrouped aggregation (single output row).
        for sql in aggregates(rng) {
            items.push(Item {
                sql,
                alias: next_alias(),
                grouping: false,
            });
        }
    } else {
        // Projection query, one in four with window functions among its
        // items.
        let windows = rng.chance(25);
        for _ in 0..1 + rng.below(4) {
            let sql = match rng.below(if select_env.dates.is_empty() { 85 } else { 100 }) {
                _ if windows && rng.chance(50) => window_item(rng, &env),
                0..=44 => (*rng.pick(&select_env.columns())).into(),
                45..=84 => num_expr(rng, &select_env, 2).sql,
                _ => format!("EXTRACT(YEAR FROM {})", rng.pick(&select_env.dates)),
            };
            items.push(Item {
                sql,
                alias: next_alias(),
                grouping: false,
            });
        }
    }

    // WHERE.
    let mut filters: Vec<String> = (0..rng.below(4))
        .map(|_| simple_pred(rng, &env, 1))
        .collect();
    if rng.chance(15) {
        filters.push(in_subquery(rng, &env));
    }

    // ORDER BY all aliases (deterministic LIMIT), sometimes neither.
    let (order_by, limit) = if rng.chance(70) {
        let mut aliases: Vec<String> = items.iter().map(|i| i.alias.clone()).collect();
        rng.shuffle(&mut aliases);
        let order: Vec<(String, bool)> = aliases.into_iter().map(|a| (a, rng.chance(50))).collect();
        let limit = if rng.chance(50) {
            Some(1 + rng.below(12) as usize)
        } else {
            None
        };
        (order, limit)
    } else {
        (Vec::new(), None)
    };

    QuerySpec {
        items,
        join: join.map(|(_, j)| j),
        filters,
        group_by,
        order_by,
        limit,
        set_op: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_deterministic_per_seed() {
        let a = gen_query(&mut Rng::new(99));
        let b = gen_query(&mut Rng::new(99));
        assert_eq!(a.to_sql(), b.to_sql());
    }

    #[test]
    fn renders_every_clause_eventually() {
        // join, where, group, order, limit, case, IN subquery (plain and
        // with HAVING), arithmetic over aggregates, the three window
        // functions, the three set operations and a chain of two
        let mut saw = [false; 16];
        for seed in 0..300 {
            let q = gen_query(&mut Rng::new(seed));
            let sql = q.to_sql();
            saw[0] |= q.join.is_some();
            saw[1] |= !q.filters.is_empty();
            saw[2] |= !q.group_by.is_empty();
            saw[3] |= !q.order_by.is_empty();
            saw[4] |= q.limit.is_some();
            saw[5] |= sql.contains("CASE WHEN");
            saw[6] |= sql.contains("IN (SELECT") && !sql.contains("HAVING");
            saw[7] |= sql.contains("IN (SELECT") && sql.contains("HAVING");
            let calls =
                |i: &Item| ["SUM(", "COUNT(", "MIN(", "MAX("].map(|f| i.sql.matches(f).count());
            saw[8] |= q.items.iter().any(|i| calls(i).iter().sum::<usize>() == 2);
            for (i, func) in ["RANK() OVER", "ROW_NUMBER() OVER", ") OVER (PARTITION BY"]
                .into_iter()
                .enumerate()
            {
                saw[9 + i] |= sql.contains(func);
            }
            for (i, op) in [" UNION ", " INTERSECT ", " MINUS "]
                .into_iter()
                .enumerate()
            {
                saw[12 + i] |= sql.contains(op);
            }
            saw[15] |= q.set_op.as_ref().is_some_and(|(_, r)| r.set_op.is_some());
        }
        assert!(saw.iter().all(|s| *s), "clause coverage: {saw:?}");
    }

    /// Group-bys over keys a table indexes by slot and keys it hashes, and
    /// aggregates that share one input — some inside a larger one — come up.
    #[test]
    fn draws_shared_inputs_and_keys_under_and_over_the_slot_limit() {
        // Keys of a few values, of too many, and SUM/AVG/COUNT of one input
        // with the input again inside a larger one.
        let mut saw = [false; 4];
        for seed in 0..400 {
            let q = gen_query(&mut Rng::new(seed));
            saw[0] |= q
                .group_by
                .iter()
                .any(|k| k.starts_with("EXTRACT") || k == "ta_id");
            saw[1] |= q.group_by.iter().any(|k| k == "ta_a" || k == "ta_big");
            let inputs: Vec<&str> = q
                .items
                .iter()
                .filter_map(|i| {
                    ["SUM(", "AVG(", "COUNT("]
                        .iter()
                        .find_map(|f| i.sql.strip_prefix(f))
                })
                .filter_map(|rest| rest.strip_suffix(')'))
                .collect();
            let shared = inputs
                .iter()
                .enumerate()
                .any(|(i, a)| inputs[..i].contains(a));
            saw[2] |= !q.group_by.is_empty() && shared;
            let inside = |a: &&str| inputs.iter().any(|b| b.len() > a.len() && b.contains(*a));
            saw[3] |= inputs
                .iter()
                .filter(|a| !a.is_empty() && *a != &"*")
                .any(inside);
        }
        assert!(saw.iter().all(|s| *s), "coverage: {saw:?}");
    }

    /// The shapes aimed at the compiler's column pruning all come up, and
    /// the one-sided select lists really are one-sided.
    #[test]
    fn draws_the_column_pruning_shapes() {
        let mut saw = [false; 4]; // COUNT(*) alone, join naming ta only, tb only, strict subset
        let ta_columns = Env::new(false).columns();
        for seed in 0..400 {
            let q = gen_query(&mut Rng::new(seed));
            let select: String = q.items.iter().map(|i| format!("{} ", i.sql)).collect();
            let names = |table: &str| select.contains(table);
            let emits_both = q
                .join
                .as_ref()
                .is_some_and(|j| j.starts_with("JOIN") || j.starts_with("LEFT JOIN"));
            saw[0] |= q.items.len() == 1 && q.items[0].sql == "COUNT(*)";
            saw[1] |= emits_both && names("ta_") && !names("tb_");
            saw[2] |= emits_both && names("tb_") && !names("ta_");
            let named = ta_columns.iter().filter(|c| names(c)).count();
            saw[3] |= q.join.is_none() && 0 < named && named < ta_columns.len();
        }
        assert!(saw.iter().all(|s| *s), "shape coverage: {saw:?}");
    }

    /// Every side of a set operation is a projection of the same arity,
    /// and a string position is the same column on every side.
    #[test]
    fn set_operation_sides_agree_position_by_position() {
        let mut seen = 0;
        for seed in 0..400 {
            let q = gen_query(&mut Rng::new(seed));
            let mut side = &q;
            while let Some((_, right)) = &side.set_op {
                seen += 1;
                assert_eq!(right.items.len(), q.items.len(), "seed {seed}");
                assert!(right.group_by.is_empty() && side.group_by.is_empty());
                for (l, r) in q.items.iter().zip(&right.items) {
                    assert_eq!(l.sql == "ta_s", r.sql == "ta_s", "seed {seed}");
                    assert_eq!(l.sql == "ta_d", r.sql == "ta_d", "seed {seed}");
                }
                side = right;
            }
        }
        assert!(seen > 20, "only {seen} set operations in 400 queries");
    }

    /// ROW_NUMBER and the running SUM always order by the row ids of their
    /// FROM shape last: no ties for engines to break differently.
    #[test]
    fn row_by_row_windows_order_totally() {
        let mut seen = 0;
        for seed in 0..400 {
            let q = gen_query(&mut Rng::new(seed));
            let both = q
                .join
                .as_ref()
                .is_some_and(|j| j.starts_with("JOIN") || j.starts_with("LEFT JOIN"));
            for it in q.items.iter().filter(|i| i.sql.contains(" OVER (")) {
                if it.sql.starts_with("RANK()") {
                    continue;
                }
                seen += 1;
                let order = it.sql.split("ORDER BY ").nth(1).expect("an ORDER BY");
                assert!(order.contains("ta_id"), "seed {seed}: {}", it.sql);
                assert_eq!(order.contains("tb_id"), both, "seed {seed}: {}", it.sql);
            }
        }
        assert!(seen > 20, "only {seen} row-by-row windows in 400 queries");
    }

    #[test]
    fn group_items_literally_match_group_by() {
        for seed in 0..200 {
            let q = gen_query(&mut Rng::new(seed));
            for it in q.items.iter().filter(|i| i.grouping) {
                assert!(q.group_by.contains(&it.sql));
            }
        }
    }

    #[test]
    fn limit_only_with_full_order_by() {
        for seed in 0..200 {
            let q = gen_query(&mut Rng::new(seed));
            if q.limit.is_some() {
                assert_eq!(q.order_by.len(), q.items.len());
            }
        }
    }
}
