//! A compact SQL front end: lexer, parser and planner producing the
//! logical plans that both the Volcano engine and the RAPID compiler
//! consume.
//!
//! Supported surface (enough for the TPC-H subset and the examples):
//!
//! ```sql
//! statement := select [(UNION | INTERSECT | MINUS | EXCEPT) select]... [;]
//! select    := SELECT expr [AS alias], ...
//!              FROM t [JOIN u ON t.a = u.b [AND t.c = u.d]]...
//!                     [SEMI JOIN ...] [ANTI JOIN ...] [LEFT JOIN ...]
//!              [WHERE pred]
//!              [GROUP BY expr, ...] [HAVING pred]
//!              [ORDER BY expr [DESC], ...] [LIMIT n]
//! ```
//!
//! Expressions: `+ - * /`, comparisons, `AND/OR/NOT`, `BETWEEN`, `IN
//! (...)`, `IS [NOT] NULL`, `LIKE 'pattern'` (`%` and `_`; a pattern with
//! neither is `=`), `CASE WHEN ... THEN ... ELSE ... END`, `EXTRACT(YEAR
//! FROM x)`, `DATE 'yyyy-mm-dd'`, decimal and integer literals, strings
//! with `''` for a quote, `SUM/MIN/MAX/COUNT/AVG` and arithmetic over them
//! (`100 * SUM(a) / SUM(b)`), and the window functions `RANK() /
//! ROW_NUMBER() / SUM(col) OVER (...)`. An aggregate call in HAVING need
//! not be in the select list.
//!
//! One subquery form: `col IN (select)` as a top-level WHERE conjunct,
//! where the inner `select` has one select item and no ORDER BY or LIMIT.
//! There are no derived tables in FROM, no EXISTS and no correlation.
//!
//! Planning applies the host-side logical optimizations the paper assumes:
//! single-table WHERE conjuncts are pushed into the scans, and a
//! `col IN (select)` conjunct becomes a left-semi join directly above the
//! scan of `col`'s table; joins stay in FROM order (left-deep); aggregate
//! queries lower to `Aggregate(+Having)`, with a `Project` on top when a
//! select item computes over aggregates or HAVING needed one of its own.
//! Set operators split the token stream at parenthesis depth 0.

use std::collections::HashMap;

use rapid_qcomp::logical::{LAgg, LExpr, LNamed, LPred, LSortKey, LWindowFunc, LogicalPlan};
use rapid_qef::plan::{JoinType, SetOpKind};
use rapid_qef::primitives::agg::AggFunc;
use rapid_qef::primitives::arith::ArithOp;
use rapid_qef::primitives::filter::CmpOp;
use rapid_storage::types::{parse_date, Value};

/// SQL front-end errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError(pub String);

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL error: {}", self.0)
    }
}

impl std::error::Error for SqlError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SqlError> {
    Err(SqlError(msg.into()))
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Dec(i64, u8),
    Str(String),
    Sym(char),
    Le,
    Ge,
    Ne,
    Eof,
}

fn lex(input: &str) -> Result<Vec<Tok>, SqlError> {
    let mut out = Vec::new();
    let b: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                i += 1;
            }
            out.push(Tok::Ident(b[start..i].iter().collect()));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            if i < b.len() && b[i] == '.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                i += 1;
                let frac_start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let whole: String = b[start..i].iter().filter(|&&c| c != '.').collect();
                let scale = (i - frac_start) as u8;
                let unscaled: i64 = whole.parse().map_err(|_| SqlError("bad decimal".into()))?;
                out.push(Tok::Dec(unscaled, scale));
            } else {
                let s: String = b[start..i].iter().collect();
                out.push(Tok::Int(
                    s.parse().map_err(|_| SqlError("bad integer".into()))?,
                ));
            }
        } else if c == '\'' {
            i += 1;
            let mut text = String::new();
            loop {
                match b.get(i) {
                    None => return err("unterminated string literal"),
                    // `''` inside a literal is one quote.
                    Some('\'') if b.get(i + 1) == Some(&'\'') => {
                        text.push('\'');
                        i += 2;
                    }
                    Some('\'') => break,
                    Some(&c) => {
                        text.push(c);
                        i += 1;
                    }
                }
            }
            out.push(Tok::Str(text));
            i += 1;
        } else if c == '<' && i + 1 < b.len() && b[i + 1] == '=' {
            out.push(Tok::Le);
            i += 2;
        } else if c == '>' && i + 1 < b.len() && b[i + 1] == '=' {
            out.push(Tok::Ge);
            i += 2;
        } else if i + 1 < b.len()
            && ((c == '<' && b[i + 1] == '>') || (c == '!' && b[i + 1] == '='))
        {
            out.push(Tok::Ne);
            i += 2;
        } else if "(),=<>*+-/;".contains(c) {
            out.push(Tok::Sym(c));
            i += 1;
        } else {
            return err(format!("unexpected character '{c}'"));
        }
    }
    Ok(out)
}

// ------------------------------------------------------------------ AST --

#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Col(String),
    Lit(Value),
    Bin(ArithOp, Box<Ast>, Box<Ast>),
    Cmp(CmpOp, Box<Ast>, Box<Ast>),
    And(Vec<Ast>),
    Or(Vec<Ast>),
    Not(Box<Ast>),
    Between(Box<Ast>, Value, Value),
    InList(Box<Ast>, Vec<Value>),
    /// `expr IN (SELECT ...)`.
    InSubquery(Box<Ast>, Box<SelectStmt>),
    Like(Box<Ast>, String),
    /// `expr IS NULL`.
    IsNull(Box<Ast>),
    Case(Box<Ast>, Box<Ast>, Box<Ast>),
    Year(Box<Ast>),
    Agg(AggFunc, Box<Ast>),
    Star, // COUNT(*)
    /// `RANK()/ROW_NUMBER()/SUM(col) OVER (PARTITION BY ... ORDER BY ...)`.
    Window {
        func: LWindowFunc,
        partition_by: Vec<String>,
        order_by: Vec<(String, bool)>,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct JoinClause {
    table: String,
    on: Vec<(String, String)>,
    join_type: JoinType,
}

#[derive(Debug, Clone, PartialEq)]
struct SelectStmt {
    items: Vec<(Ast, Option<String>)>,
    from: String,
    joins: Vec<JoinClause>,
    where_: Option<Ast>,
    group_by: Vec<Ast>,
    having: Option<Ast>,
    order_by: Vec<(Ast, bool)>,
    limit: Option<usize>,
}

// --------------------------------------------------------------- parser --

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        self.toks.get(self.pos).unwrap_or(&Tok::Eof)
    }

    fn next(&mut self) -> Tok {
        let t = self.peek().clone();
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn peek_kw(&self, word: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(word))
    }

    fn kw(&mut self, word: &str) -> bool {
        let found = self.peek_kw(word);
        if found {
            self.next();
        }
        found
    }

    fn expect_kw(&mut self, word: &str) -> Result<(), SqlError> {
        if self.kw(word) {
            Ok(())
        } else {
            err(format!("expected {word}, found {:?}", self.peek()))
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), SqlError> {
        if *self.peek() == Tok::Sym(c) {
            self.next();
            Ok(())
        } else {
            err(format!("expected '{c}', found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Tok::Ident(s) => Ok(unqualify(&s)),
            t => err(format!("expected identifier, found {t:?}")),
        }
    }

    /// One `SELECT`, up to the first token that cannot continue it: the
    /// caller checks for the end of input, or for the `)` of a subquery.
    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            let e = self.expr()?;
            let alias = if self.kw("AS") {
                Some(self.ident()?)
            } else if let Tok::Ident(s) = self.peek() {
                // Bare alias, unless it's a clause keyword.
                if !is_keyword(s) {
                    Some(self.ident()?)
                } else {
                    None
                }
            } else {
                None
            };
            items.push((e, alias));
            if *self.peek() == Tok::Sym(',') {
                self.next();
            } else {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.ident()?;
        let mut joins = Vec::new();
        loop {
            let join_type = if self.kw("SEMI") {
                self.expect_kw("JOIN")?;
                JoinType::LeftSemi
            } else if self.kw("ANTI") {
                self.expect_kw("JOIN")?;
                JoinType::LeftAnti
            } else if self.kw("LEFT") {
                let _ = self.kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinType::LeftOuter
            } else if self.kw("JOIN") || {
                if self.kw("INNER") {
                    self.expect_kw("JOIN")?;
                    true
                } else {
                    false
                }
            } {
                JoinType::Inner
            } else {
                break;
            };
            let table = self.ident()?;
            self.expect_kw("ON")?;
            let mut on = Vec::new();
            loop {
                let l = self.ident()?;
                self.expect_sym('=')?;
                let r = self.ident()?;
                on.push((l, r));
                if !self.kw("AND") {
                    break;
                }
            }
            joins.push(JoinClause {
                table,
                on,
                join_type,
            });
        }
        let where_ = if self.kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if *self.peek() == Tok::Sym(',') {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let having = if self.kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.expr()?;
                let desc = if self.kw("DESC") {
                    true
                } else {
                    let _ = self.kw("ASC");
                    false
                };
                order_by.push((e, desc));
                if *self.peek() == Tok::Sym(',') {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let limit = if self.kw("LIMIT") {
            match self.next() {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                t => return err(format!("expected LIMIT count, found {t:?}")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            joins,
            where_,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// expr := or_term
    fn expr(&mut self) -> Result<Ast, SqlError> {
        let mut terms = vec![self.and_term()?];
        while self.kw("OR") {
            terms.push(self.and_term()?);
        }
        Ok(match <[Ast; 1]>::try_from(terms) {
            Ok([only]) => only,
            Err(terms) => Ast::Or(terms),
        })
    }

    fn and_term(&mut self) -> Result<Ast, SqlError> {
        let mut terms = vec![self.not_term()?];
        while self.kw("AND") {
            terms.push(self.not_term()?);
        }
        Ok(match <[Ast; 1]>::try_from(terms) {
            Ok([only]) => only,
            Err(terms) => Ast::And(terms),
        })
    }

    fn not_term(&mut self) -> Result<Ast, SqlError> {
        if self.kw("NOT") {
            Ok(Ast::Not(Box::new(self.not_term()?)))
        } else {
            self.predicate()
        }
    }

    /// predicate := additive [cmp additive | BETWEEN v AND v | IN (v, ...)
    ///              | IN (select) | LIKE 's' | IS [NOT] NULL]
    fn predicate(&mut self) -> Result<Ast, SqlError> {
        let left = self.additive()?;
        let op = match self.peek() {
            Tok::Sym('=') => Some(CmpOp::Eq),
            Tok::Sym('<') => Some(CmpOp::Lt),
            Tok::Sym('>') => Some(CmpOp::Gt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Ge => Some(CmpOp::Ge),
            Tok::Ne => Some(CmpOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.additive()?;
            return Ok(Ast::Cmp(op, Box::new(left), Box::new(right)));
        }
        if self.kw("BETWEEN") {
            let lo = self.literal()?;
            self.expect_kw("AND")?;
            let hi = self.literal()?;
            return Ok(Ast::Between(Box::new(left), lo, hi));
        }
        if self.kw("IN") {
            self.expect_sym('(')?;
            if self.peek_kw("SELECT") {
                let sub = self.select()?;
                self.expect_sym(')')?;
                return Ok(Ast::InSubquery(Box::new(left), Box::new(sub)));
            }
            let mut vals = Vec::new();
            loop {
                vals.push(self.literal()?);
                if *self.peek() == Tok::Sym(',') {
                    self.next();
                } else {
                    break;
                }
            }
            self.expect_sym(')')?;
            return Ok(Ast::InList(Box::new(left), vals));
        }
        if self.kw("LIKE") {
            match self.next() {
                Tok::Str(p) => return Ok(Ast::Like(Box::new(left), p)),
                t => return err(format!("expected LIKE pattern, found {t:?}")),
            }
        }
        if self.kw("IS") {
            let negated = self.kw("NOT");
            self.expect_kw("NULL")?;
            let is_null = Ast::IsNull(Box::new(left));
            return Ok(match negated {
                true => Ast::Not(Box::new(is_null)),
                false => is_null,
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Ast, SqlError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Sym('+') => ArithOp::Add,
                Tok::Sym('-') => ArithOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.multiplicative()?;
            left = Ast::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Ast, SqlError> {
        let mut left = self.atom()?;
        loop {
            let op = match self.peek() {
                Tok::Sym('*') => ArithOp::Mul,
                Tok::Sym('/') => ArithOp::Div,
                _ => break,
            };
            self.next();
            let right = self.atom()?;
            left = Ast::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn literal(&mut self) -> Result<Value, SqlError> {
        match self.next() {
            Tok::Int(v) => Ok(Value::Int(v)),
            Tok::Dec(u, s) => Ok(Value::Decimal {
                unscaled: u,
                scale: s,
            }),
            Tok::Str(s) => Ok(Value::Str(s)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("DATE") => match self.next() {
                Tok::Str(d) => parse_date(&d)
                    .map(Value::Date)
                    .ok_or_else(|| SqlError(format!("bad date '{d}'"))),
                t => err(format!("expected date string, found {t:?}")),
            },
            Tok::Sym('-') => match self.literal()? {
                Value::Int(v) => Ok(Value::Int(-v)),
                Value::Decimal { unscaled, scale } => Ok(Value::Decimal {
                    unscaled: -unscaled,
                    scale,
                }),
                v => err(format!("cannot negate {v}")),
            },
            t => err(format!("expected literal, found {t:?}")),
        }
    }

    fn atom(&mut self) -> Result<Ast, SqlError> {
        match self.peek().clone() {
            Tok::Sym('(') => {
                self.next();
                let e = self.expr()?;
                self.expect_sym(')')?;
                Ok(e)
            }
            Tok::Sym('*') => {
                self.next();
                Ok(Ast::Star)
            }
            Tok::Sym('-') | Tok::Int(_) | Tok::Dec(..) | Tok::Str(_) => {
                Ok(Ast::Lit(self.literal()?))
            }
            Tok::Ident(word) => {
                // Aggregates / functions / DATE literal / column.
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    "SUM" | "MIN" | "MAX" | "COUNT" | "AVG" => {
                        self.next();
                        self.expect_sym('(')?;
                        let inner = self.expr()?;
                        self.expect_sym(')')?;
                        let f = match upper.as_str() {
                            "SUM" => AggFunc::Sum,
                            "MIN" => AggFunc::Min,
                            "MAX" => AggFunc::Max,
                            "AVG" => AggFunc::Avg,
                            _ => AggFunc::Count,
                        };
                        if self.kw("OVER") {
                            if f != AggFunc::Sum {
                                return err("only SUM(col) is supported as a window aggregate");
                            }
                            let Ast::Col(col) = inner else {
                                return err("window SUM takes a plain column");
                            };
                            let (partition_by, order_by) = self.over_clause()?;
                            return Ok(Ast::Window {
                                func: LWindowFunc::RunningSum { col },
                                partition_by,
                                order_by,
                            });
                        }
                        Ok(Ast::Agg(f, Box::new(inner)))
                    }
                    "RANK" | "ROW_NUMBER" => {
                        self.next();
                        self.expect_sym('(')?;
                        self.expect_sym(')')?;
                        self.expect_kw("OVER")?;
                        let (partition_by, order_by) = self.over_clause()?;
                        let func = if upper == "RANK" {
                            LWindowFunc::Rank
                        } else {
                            LWindowFunc::RowNumber
                        };
                        Ok(Ast::Window {
                            func,
                            partition_by,
                            order_by,
                        })
                    }
                    "CASE" => {
                        self.next();
                        self.expect_kw("WHEN")?;
                        let p = self.expr()?;
                        self.expect_kw("THEN")?;
                        let t = self.expr()?;
                        self.expect_kw("ELSE")?;
                        let e = self.expr()?;
                        self.expect_kw("END")?;
                        Ok(Ast::Case(Box::new(p), Box::new(t), Box::new(e)))
                    }
                    "EXTRACT" => {
                        self.next();
                        self.expect_sym('(')?;
                        self.expect_kw("YEAR")?;
                        self.expect_kw("FROM")?;
                        let e = self.expr()?;
                        self.expect_sym(')')?;
                        Ok(Ast::Year(Box::new(e)))
                    }
                    "DATE" => Ok(Ast::Lit(self.literal()?)),
                    _ => {
                        self.next();
                        Ok(Ast::Col(unqualify(&word)))
                    }
                }
            }
            t => err(format!("unexpected token {t:?}")),
        }
    }
}

/// An `OVER (...)` clause: partition-by columns + `(column, descending)`
/// order-by pairs.
type OverClause = (Vec<String>, Vec<(String, bool)>);

impl Parser<'_> {
    /// `( [PARTITION BY col, ...] [ORDER BY col [DESC], ...] )`
    fn over_clause(&mut self) -> Result<OverClause, SqlError> {
        self.expect_sym('(')?;
        let mut partition_by = Vec::new();
        if self.kw("PARTITION") {
            self.expect_kw("BY")?;
            loop {
                partition_by.push(self.ident()?);
                if *self.peek() == Tok::Sym(',') {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let col = self.ident()?;
                let desc = if self.kw("DESC") {
                    true
                } else {
                    let _ = self.kw("ASC");
                    false
                };
                order_by.push((col, desc));
                if *self.peek() == Tok::Sym(',') {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect_sym(')')?;
        Ok((partition_by, order_by))
    }
}

fn unqualify(s: &str) -> String {
    s.rsplit('.').next().unwrap_or(s).to_string()
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s.to_ascii_uppercase().as_str(),
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "JOIN"
            | "SEMI"
            | "ANTI"
            | "LEFT"
            | "INNER"
            | "ON"
            | "AND"
            | "OR"
            | "AS"
            | "DESC"
            | "ASC"
            | "BY"
            | "THEN"
            | "ELSE"
            | "END"
            | "WHEN"
    )
}

// -------------------------------------------------------------- planner --

/// Expression rendering for implicit output names.
fn ast_name(a: &Ast) -> String {
    match a {
        Ast::Col(c) => c.clone(),
        Ast::Agg(f, inner) => format!("{f:?}_{}", ast_name(inner)).to_lowercase(),
        Ast::Star => "star".into(),
        Ast::Year(e) => format!("year_{}", ast_name(e)),
        _ => "expr".into(),
    }
}

fn to_lexpr(a: &Ast) -> Result<LExpr, SqlError> {
    match a {
        Ast::Col(c) => Ok(LExpr::Col(c.clone())),
        Ast::Lit(v) => Ok(LExpr::Lit(v.clone())),
        Ast::Bin(op, l, r) => Ok(LExpr::Bin {
            op: *op,
            a: Box::new(to_lexpr(l)?),
            b: Box::new(to_lexpr(r)?),
        }),
        Ast::Year(e) => Ok(LExpr::Year(Box::new(to_lexpr(e)?))),
        Ast::Case(p, t, e) => Ok(LExpr::Case {
            pred: Box::new(to_lpred(p)?),
            then: Box::new(to_lexpr(t)?),
            els: Box::new(to_lexpr(e)?),
        }),
        other => err(format!("expected scalar expression, found {other:?}")),
    }
}

fn to_lpred(a: &Ast) -> Result<LPred, SqlError> {
    match a {
        Ast::Cmp(op, l, r) => Ok(LPred::Cmp {
            left: to_lexpr(l)?,
            op: *op,
            right: to_lexpr(r)?,
        }),
        Ast::And(ps) => Ok(LPred::And(
            ps.iter().map(to_lpred).collect::<Result<_, _>>()?,
        )),
        Ast::Or(ps) => Ok(LPred::Or(
            ps.iter().map(to_lpred).collect::<Result<_, _>>()?,
        )),
        Ast::Not(p) => Ok(LPred::Not(Box::new(to_lpred(p)?))),
        Ast::Between(e, lo, hi) => match e.as_ref() {
            Ast::Col(c) => Ok(LPred::Between {
                col: c.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
            }),
            _ => err("BETWEEN requires a column"),
        },
        Ast::InList(e, vals) => match e.as_ref() {
            Ast::Col(c) => Ok(LPred::InList {
                col: c.clone(),
                values: vals.clone(),
            }),
            _ => err("IN requires a column"),
        },
        Ast::Like(e, pattern) => match e.as_ref() {
            Ast::Col(c) => Ok(like_to_pred(c, pattern)),
            _ => err("LIKE requires a column"),
        },
        Ast::IsNull(e) => match e.as_ref() {
            Ast::Col(c) => Ok(LPred::IsNull { col: c.clone() }),
            _ => err("IS NULL requires a column"),
        },
        Ast::InSubquery(..) => err("IN (SELECT ...) must be a top-level WHERE conjunct"),
        other => err(format!("expected predicate, found {other:?}")),
    }
}

fn like_to_pred(col: &str, pattern: &str) -> LPred {
    // A pattern without wildcards is an equality; every other one reaches
    // the compiler verbatim, which picks its shape against the dictionary.
    if !pattern.contains(['%', '_']) {
        return LPred::eq(col, Value::Str(pattern.into()));
    }
    LPred::Like {
        col: col.into(),
        pattern: pattern.into(),
    }
}

/// Columns referenced by an AST node (a subquery's columns are its own
/// scope and do not count).
fn ast_columns(a: &Ast, out: &mut Vec<String>) {
    match a {
        Ast::Col(c) => out.push(c.clone()),
        Ast::Bin(_, l, r) | Ast::Cmp(_, l, r) => {
            ast_columns(l, out);
            ast_columns(r, out);
        }
        Ast::And(ps) | Ast::Or(ps) => ps.iter().for_each(|p| ast_columns(p, out)),
        Ast::Not(p) | Ast::Year(p) | Ast::Agg(_, p) | Ast::IsNull(p) => ast_columns(p, out),
        Ast::Between(e, _, _) | Ast::InList(e, _) | Ast::InSubquery(e, _) | Ast::Like(e, _) => {
            ast_columns(e, out)
        }
        Ast::Case(p, t, e) => {
            ast_columns(p, out);
            ast_columns(t, out);
            ast_columns(e, out);
        }
        Ast::Lit(_) | Ast::Star | Ast::Window { .. } => {}
    }
}

fn contains_agg(a: &Ast) -> bool {
    match a {
        Ast::Agg(..) => true,
        Ast::Bin(_, l, r) | Ast::Cmp(_, l, r) => contains_agg(l) || contains_agg(r),
        Ast::And(ps) | Ast::Or(ps) => ps.iter().any(contains_agg),
        Ast::Not(p) | Ast::Year(p) => contains_agg(p),
        Ast::Case(p, t, e) => contains_agg(p) || contains_agg(t) || contains_agg(e),
        _ => false,
    }
}

/// Set operators, loosest-binding first.
const SET_OPS: [(&str, SetOpKind); 4] = [
    ("UNION", SetOpKind::Union),
    ("INTERSECT", SetOpKind::Intersect),
    ("MINUS", SetOpKind::Minus),
    ("EXCEPT", SetOpKind::Minus),
];

/// Parse SQL into a logical plan, given each table's column names (for
/// predicate pushdown and join-side resolution).
pub fn parse_sql(
    sql: &str,
    table_columns: &HashMap<String, Vec<String>>,
) -> Result<LogicalPlan, SqlError> {
    let toks = lex(sql)?;
    // A trailing `;` ends the statement.
    let toks = toks.strip_suffix(&[Tok::Sym(';')]).unwrap_or(&toks);
    statement(toks, table_columns)
}

/// `select [setop select]...`: a set operator outside every parenthesis
/// splits the tokens, each side is a full statement, and sides must have
/// equal arity (checked at compile).
fn statement(
    toks: &[Tok],
    table_columns: &HashMap<String, Vec<String>>,
) -> Result<LogicalPlan, SqlError> {
    for (kw, op) in SET_OPS {
        let mut depth = 0usize;
        for (i, t) in toks.iter().enumerate() {
            match t {
                Tok::Sym('(') => depth += 1,
                Tok::Sym(')') => depth = depth.saturating_sub(1),
                Tok::Ident(word) if depth == 0 && word.eq_ignore_ascii_case(kw) => {
                    return Ok(LogicalPlan::SetOp {
                        left: Box::new(statement(&toks[..i], table_columns)?),
                        right: Box::new(statement(&toks[i + 1..], table_columns)?),
                        op,
                    });
                }
                _ => {}
            }
        }
    }
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.select()?;
    if *p.peek() != Tok::Eof {
        return err(format!("trailing tokens: {:?}", p.peek()));
    }
    plan(&stmt, table_columns)
}

/// Strip a leading `EXPLAIN ANALYZE` prefix (case-insensitive), returning
/// the statement to instrument, or `None` when the prefix is absent.
/// `EXPLAIN` without `ANALYZE` is not recognised — the engine only renders
/// executed plans (there is no cost-only explain surface).
pub fn strip_explain_analyze(sql: &str) -> Option<&str> {
    let rest = strip_keyword(sql.trim_start(), "EXPLAIN")?;
    strip_keyword(rest.trim_start(), "ANALYZE")
}

/// Strip a leading `EXPLAIN VERIFY` prefix (case-insensitive), returning
/// the statement to verify, or `None` when the prefix is absent.
/// `EXPLAIN VERIFY` compiles the statement and runs the static plan
/// verifier over it — per-stage DMEM/fan-out/descriptor accounting plus
/// rule-id diagnostics — without executing it.
pub fn strip_explain_verify(sql: &str) -> Option<&str> {
    let rest = strip_keyword(sql.trim_start(), "EXPLAIN")?;
    strip_keyword(rest.trim_start(), "VERIFY")
}

/// Strip one leading keyword at a word boundary, case-insensitively.
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    if s.len() < kw.len() || !s[..kw.len()].eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &s[kw.len()..];
    match rest.chars().next() {
        Some(c) if c.is_alphanumeric() || c == '_' => None,
        _ => Some(rest),
    }
}

/// The output name of `e`: the alias of the select item it is, if it is
/// one and has one, else a rendering of the expression.
fn output_name(stmt: &SelectStmt, e: &Ast) -> String {
    let item = stmt.items.iter().find(|(item, _)| item == e);
    item.and_then(|(_, alias)| alias.clone())
        .unwrap_or_else(|| ast_name(e))
}

fn plan(
    stmt: &SelectStmt,
    table_columns: &HashMap<String, Vec<String>>,
) -> Result<LogicalPlan, SqlError> {
    let (mut node, projection) = plan_unprojected(stmt, table_columns)?;
    if let Some(exprs) = projection {
        node = node.project(exprs);
    }

    // ORDER BY / LIMIT (names resolve against the output).
    if !stmt.order_by.is_empty() {
        let keys = stmt
            .order_by
            .iter()
            .map(|(e, desc)| {
                let name = match e {
                    Ast::Col(c) => c.clone(),
                    other => output_name(stmt, other),
                };
                LSortKey {
                    col: name,
                    desc: *desc,
                }
            })
            .collect();
        node = node.sort(keys);
    }
    if let Some(n) = stmt.limit {
        node = node.limit(n);
    }
    Ok(node)
}

/// A planned `col IN (select)`: `col` semi-joins `key` of `right`.
#[derive(Clone)]
struct SemiJoin {
    col: String,
    right: LogicalPlan,
    key: String,
}

/// Plan the inner `select` of a `col IN (select)` conjunct.
fn in_subquery(
    left: &Ast,
    sub: &SelectStmt,
    table_columns: &HashMap<String, Vec<String>>,
) -> Result<SemiJoin, SqlError> {
    let Ast::Col(col) = left else {
        return err("IN (SELECT ...) requires a column on its left");
    };
    let [(item, _)] = &sub.items[..] else {
        return err("an IN subquery selects exactly one item");
    };
    if !sub.order_by.is_empty() || sub.limit.is_some() {
        return err("an IN subquery takes no ORDER BY or LIMIT");
    }
    let (node, projection) = plan_unprojected(sub, table_columns)?;
    let (right, key) = match projection {
        None => (node, output_name(sub, item)),
        Some(exprs) => match &exprs[..] {
            // The semi join reads nothing but its key: a projection that
            // only names a column is not materialised.
            [LNamed {
                expr: LExpr::Col(source),
                ..
            }] => (node, source.clone()),
            _ => (node.project(exprs), output_name(sub, item)),
        },
    };
    Ok(SemiJoin {
        col: col.clone(),
        right,
        key,
    })
}

/// FROM, WHERE, window items, GROUP BY and HAVING of one `SELECT`: the plan
/// below its select list, and the projection that produces the select list
/// from it (`None` when the plan's output already is the select list).
fn plan_unprojected(
    stmt: &SelectStmt,
    table_columns: &HashMap<String, Vec<String>>,
) -> Result<(LogicalPlan, Option<Vec<LNamed>>), SqlError> {
    // Which table owns each column (TPC-H prefixes make names unique).
    let col_table = |c: &str| -> Option<&str> {
        std::iter::once(&stmt.from)
            .chain(stmt.joins.iter().map(|j| &j.table))
            .find(|t| {
                table_columns
                    .get(t.as_str())
                    .is_some_and(|cols| cols.iter().any(|x| x == c))
            })
            .map(String::as_str)
    };

    // Split WHERE conjuncts: single-table ones push into scans, and
    // `col IN (select)` becomes a semi join on the scan of `col`'s table.
    let mut scan_preds: HashMap<String, Vec<LPred>> = HashMap::new();
    let mut scan_semis: HashMap<String, Vec<SemiJoin>> = HashMap::new();
    let mut residual: Vec<LPred> = Vec::new();
    if let Some(w) = &stmt.where_ {
        let conjuncts = match w {
            Ast::And(ps) => &ps[..],
            other => std::slice::from_ref(other),
        };
        for c in conjuncts {
            if let Ast::InSubquery(left, sub) = c {
                let semi = in_subquery(left, sub, table_columns)?;
                let Some(table) = col_table(&semi.col) else {
                    return err(format!("no FROM table has column '{}'", semi.col));
                };
                scan_semis.entry(table.to_string()).or_default().push(semi);
                continue;
            }
            let mut cols = Vec::new();
            ast_columns(c, &mut cols);
            let tables: Vec<&str> = {
                let mut ts: Vec<&str> = cols.iter().filter_map(|c| col_table(c)).collect();
                ts.sort_unstable();
                ts.dedup();
                ts
            };
            let lp = to_lpred(c)?;
            if tables.len() == 1 && cols.iter().all(|c| col_table(c).is_some()) {
                scan_preds
                    .entry(tables[0].to_string())
                    .or_default()
                    .push(lp);
            } else {
                residual.push(lp);
            }
        }
    }

    let scan_for = |t: &str| -> Result<LogicalPlan, SqlError> {
        if !table_columns.contains_key(t) {
            return err(format!("unknown table '{t}'"));
        }
        let preds = scan_preds.get(t).cloned().unwrap_or_default();
        let mut scan = LogicalPlan::Scan {
            table: t.to_string(),
            pred: match <[LPred; 1]>::try_from(preds) {
                Ok([only]) => Some(only),
                Err(preds) if preds.is_empty() => None,
                Err(preds) => Some(LPred::And(preds)),
            },
            projection: None,
        };
        for semi in scan_semis.get(t).into_iter().flatten().cloned() {
            scan = LogicalPlan::Join {
                left: Box::new(scan),
                right: Box::new(semi.right),
                left_keys: vec![semi.col],
                right_keys: vec![semi.key],
                join_type: JoinType::LeftSemi,
            };
        }
        Ok(scan)
    };

    // Left-deep join tree in FROM order.
    let mut node = scan_for(&stmt.from)?;
    for j in &stmt.joins {
        let right = scan_for(&j.table)?;
        // Keys: the side owning each ON column decides left vs right.
        let mut lk = Vec::new();
        let mut rk = Vec::new();
        for (a, b) in &j.on {
            let a_right = table_columns
                .get(&j.table)
                .is_some_and(|cols| cols.iter().any(|c| c == a));
            let (l, r) = if a_right {
                (b.clone(), a.clone())
            } else {
                (a.clone(), b.clone())
            };
            lk.push(l);
            rk.push(r);
        }
        node = LogicalPlan::Join {
            left: Box::new(node),
            right: Box::new(right),
            left_keys: lk,
            right_keys: rk,
            join_type: j.join_type,
        };
    }
    for r in residual {
        node = node.filter(r);
    }

    // Window functions: each window item appends a Window node under the
    // item's alias; the final projection then selects it by that name (two
    // items may be the same function over the same window).
    let window_name = |alias: &Option<String>| alias.clone().unwrap_or_else(|| "window".into());
    for (e, alias) in &stmt.items {
        if let Ast::Window {
            func,
            partition_by,
            order_by,
        } = e
        {
            node = LogicalPlan::Window {
                input: Box::new(node),
                partition_by: partition_by.clone(),
                order_by: order_by
                    .iter()
                    .map(|(c, d)| LSortKey {
                        col: c.clone(),
                        desc: *d,
                    })
                    .collect(),
                func: func.clone(),
                name: window_name(alias),
            };
        }
    }

    // Aggregation?
    let has_agg = stmt.items.iter().any(|(e, _)| contains_agg(e)) || !stmt.group_by.is_empty();
    if !has_agg {
        // Plain projection; window items project their appended column.
        let exprs = stmt
            .items
            .iter()
            .map(|(e, alias)| {
                if let Ast::Window { .. } = e {
                    let name = window_name(alias);
                    return Ok(LNamed::new(&name, LExpr::Col(name.clone())));
                }
                Ok(LNamed::new(
                    &alias.clone().unwrap_or_else(|| ast_name(e)),
                    to_lexpr(e)?,
                ))
            })
            .collect::<Result<Vec<_>, SqlError>>()?;
        return Ok((node, Some(exprs)));
    }

    let mut out = AggOutputs::default();
    let mut group = Vec::with_capacity(stmt.group_by.len());
    for g in &stmt.group_by {
        let name = output_name(stmt, g);
        group.push(LNamed::new(&name, to_lexpr(g)?));
        out.names.push((g, name));
    }
    // The `Aggregate` emits group keys, then aggregates: first the calls
    // that are select items, under the item's name, then the ones only a
    // computed select item or HAVING makes. A select item that is a key or
    // a call is in place already; a computed one, or a call without an item
    // to go by, asks for a `Project` on top.
    let item_name =
        |(e, alias): &(Ast, Option<String>)| alias.clone().unwrap_or_else(|| ast_name(e));
    for item in &stmt.items {
        if let (e @ Ast::Agg(f, inner), _) = item {
            out.push(e, *f, inner, item_name(item))?;
        }
    }
    let listed = out.aggs.len();
    let mut select_list = Vec::with_capacity(stmt.items.len());
    let mut computed = false;
    for item in &stmt.items {
        let e = &item.0;
        select_list.push(match out.name_of(e) {
            Some(_) if matches!(e, Ast::Agg(..)) => {
                let name = item_name(item);
                LNamed::new(&name, LExpr::Col(name.clone()))
            }
            Some(group_key) => LNamed::new(group_key, LExpr::col(group_key)),
            None if contains_agg(e) => {
                computed = true;
                LNamed::new(&item_name(item), to_lexpr(&out.over_outputs(e)?)?)
            }
            None => return err(format!("non-aggregated select item {e:?} not in GROUP BY")),
        });
    }
    let having = match &stmt.having {
        Some(h) => Some(to_lpred(&out.over_outputs(h)?)?),
        None => None,
    };
    let hidden = out.aggs.len() > listed;
    node = LogicalPlan::Aggregate {
        input: Box::new(node),
        group_by: group,
        aggs: out.aggs,
    };
    if let Some(h) = having {
        node = node.filter(h);
    }
    Ok((node, (computed || hidden).then_some(select_list)))
}

/// What the `Aggregate` of one `SELECT` emits: the lowered aggregate calls,
/// and the output name each group key and each distinct call goes by.
#[derive(Default)]
struct AggOutputs<'a> {
    aggs: Vec<LAgg>,
    names: Vec<(&'a Ast, String)>,
}

impl<'a> AggOutputs<'a> {
    fn name_of(&self, source: &Ast) -> Option<&str> {
        let (_, name) = self.names.iter().find(|(e, _)| *e == source)?;
        Some(name)
    }

    /// Lower the aggregate call `call` = `f(inner)` under `name`.
    fn push(
        &mut self,
        call: &'a Ast,
        f: AggFunc,
        inner: &Ast,
        name: String,
    ) -> Result<(), SqlError> {
        let input = match (f, inner) {
            // COUNT(*) counts rows, so its input must never be NULL — a
            // literal 1, not a group key (keys can be NULL and their group
            // still counts every row).
            (AggFunc::Count, Ast::Star) => LExpr::int(1),
            _ => to_lexpr(inner)?,
        };
        if self.name_of(call).is_none() {
            self.names.push((call, name.clone()));
        }
        self.aggs.push(LAgg {
            func: f,
            input,
            name,
        });
        Ok(())
    }

    /// `a` over the `Aggregate`'s output: every group key and aggregate
    /// call in it becomes a reference to its output column. A call that has
    /// none yet (HAVING's own, or one inside a computed select item) is
    /// lowered under a generated name.
    fn over_outputs(&mut self, a: &'a Ast) -> Result<Ast, SqlError> {
        if let Some(name) = self.name_of(a) {
            return Ok(Ast::Col(name.to_string()));
        }
        let mut boxed = |x: &'a Ast| self.over_outputs(x).map(Box::new);
        Ok(match a {
            Ast::Agg(f, inner) => {
                let name = format!("__agg{}", self.aggs.len());
                self.push(a, *f, inner, name.clone())?;
                Ast::Col(name)
            }
            Ast::Bin(op, l, r) => Ast::Bin(*op, boxed(l)?, boxed(r)?),
            Ast::Cmp(op, l, r) => Ast::Cmp(*op, boxed(l)?, boxed(r)?),
            Ast::Not(p) => Ast::Not(boxed(p)?),
            Ast::Year(e) => Ast::Year(boxed(e)?),
            Ast::Case(p, t, e) => Ast::Case(boxed(p)?, boxed(t)?, boxed(e)?),
            Ast::And(ps) | Ast::Or(ps) => {
                let ps = ps
                    .iter()
                    .map(|p| self.over_outputs(p))
                    .collect::<Result<_, _>>()?;
                if matches!(a, Ast::And(_)) {
                    Ast::And(ps)
                } else {
                    Ast::Or(ps)
                }
            }
            other => other.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schemas() -> HashMap<String, Vec<String>> {
        let mut m = HashMap::new();
        m.insert(
            "lineitem".to_string(),
            [
                "l_orderkey",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_shipdate",
                "l_shipmode",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        m.insert(
            "orders".to_string(),
            ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        m
    }

    #[test]
    fn simple_projection() {
        let p = parse_sql("SELECT l_orderkey, l_quantity FROM lineitem", &schemas()).unwrap();
        let LogicalPlan::Project { exprs, .. } = p else {
            panic!("{p:?}")
        };
        assert_eq!(exprs.len(), 2);
        assert_eq!(exprs[0].name, "l_orderkey");
    }

    #[test]
    fn where_pushdown_into_scan() {
        let p = parse_sql(
            "SELECT l_orderkey FROM lineitem WHERE l_quantity < 24 AND l_shipdate >= DATE '1994-01-01'",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Scan {
            pred: Some(LPred::And(ps)),
            ..
        } = *input
        else {
            panic!("pushdown failed: {input:?}")
        };
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn is_null_and_is_not_null_push_into_the_scan() {
        let p = parse_sql(
            "SELECT l_orderkey FROM lineitem WHERE l_quantity IS NULL OR l_discount IS NOT NULL",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Scan { pred, .. } = *input else {
            panic!("pushdown failed: {input:?}")
        };
        let is_null = |col: &str| LPred::IsNull { col: col.into() };
        assert_eq!(
            pred,
            Some(LPred::Or(vec![
                is_null("l_quantity"),
                LPred::Not(Box::new(is_null("l_discount")))
            ]))
        );
        let bad = "SELECT l_orderkey FROM lineitem WHERE l_quantity + 1 IS NULL";
        assert!(parse_sql(bad, &schemas()).is_err());
    }

    #[test]
    fn join_with_on_keys_either_order() {
        let p = parse_sql(
            "SELECT o_orderkey FROM orders JOIN lineitem ON l_orderkey = o_orderkey",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Join {
            left_keys,
            right_keys,
            ..
        } = *input
        else {
            panic!()
        };
        assert_eq!(left_keys, vec!["o_orderkey"]);
        assert_eq!(right_keys, vec!["l_orderkey"]);
    }

    #[test]
    fn aggregate_with_group_and_having_and_order() {
        let p = parse_sql(
            "SELECT l_shipmode, SUM(l_quantity) AS total FROM lineitem \
             GROUP BY l_shipmode HAVING SUM(l_quantity) > 10 \
             ORDER BY total DESC LIMIT 5",
            &schemas(),
        )
        .unwrap();
        // Limit(Sort(Filter(Aggregate))).
        let LogicalPlan::Limit { input, n: 5 } = p else {
            panic!("{p:?}")
        };
        let LogicalPlan::Sort { input, order } = *input else {
            panic!()
        };
        assert!(order[0].desc);
        assert_eq!(order[0].col, "total");
        let LogicalPlan::Filter { pred, .. } = *input else {
            panic!()
        };
        // HAVING rewrote SUM(...) to the alias.
        assert_eq!(pred, LPred::cmp("total", CmpOp::Gt, Value::Int(10)));
    }

    #[test]
    fn count_star_and_case() {
        let p = parse_sql(
            "SELECT o_orderpriority, COUNT(*) AS n, \
             SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) AS urgent \
             FROM orders GROUP BY o_orderpriority",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Aggregate { aggs, .. } = p else {
            panic!()
        };
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].name, "n");
        assert!(matches!(aggs[1].input, LExpr::Case { .. }));
    }

    #[test]
    fn semi_join_syntax() {
        let p = parse_sql(
            "SELECT o_orderkey FROM orders SEMI JOIN lineitem ON o_orderkey = l_orderkey",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Join { join_type, .. } = *input else {
            panic!()
        };
        assert_eq!(join_type, JoinType::LeftSemi);
    }

    #[test]
    fn like_patterns() {
        let s = schemas();
        let scan_pred = |pattern: &str| {
            let sql = format!("SELECT l_orderkey FROM lineitem WHERE l_shipmode LIKE '{pattern}'");
            let LogicalPlan::Project { input, .. } = parse_sql(&sql, &s).unwrap() else {
                panic!()
            };
            let LogicalPlan::Scan {
                pred: Some(pred), ..
            } = *input
            else {
                panic!()
            };
            pred
        };
        for pattern in ["AIR%", "%IR%"] {
            assert_eq!(
                scan_pred(pattern),
                LPred::Like {
                    col: "l_shipmode".into(),
                    pattern: pattern.into(),
                }
            );
        }
        assert_eq!(
            scan_pred("AIR"),
            LPred::eq("l_shipmode", Value::Str("AIR".into()))
        );
    }

    #[test]
    fn decimal_and_date_literals() {
        let p = parse_sql(
            "SELECT l_orderkey FROM lineitem WHERE l_discount BETWEEN 0.05 AND 0.07",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Scan {
            pred: Some(LPred::Between { lo, hi, .. }),
            ..
        } = *input
        else {
            panic!()
        };
        assert_eq!(
            lo,
            Value::Decimal {
                unscaled: 5,
                scale: 2
            }
        );
        assert_eq!(
            hi,
            Value::Decimal {
                unscaled: 7,
                scale: 2
            }
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_sql("SELECT FROM", &schemas()).is_err());
        assert!(parse_sql("SELECT x FROM ghost", &schemas()).is_err());
        assert!(parse_sql("SELECT l_orderkey FROM lineitem WHERE", &schemas()).is_err());
        assert!(
            parse_sql(
                "SELECT l_orderkey, SUM(l_quantity) FROM lineitem",
                &schemas()
            )
            .is_err(),
            "non-grouped column with aggregate"
        );
    }

    #[test]
    fn qualified_names_unqualify() {
        let p = parse_sql("SELECT lineitem.l_orderkey FROM lineitem", &schemas()).unwrap();
        let LogicalPlan::Project { exprs, .. } = p else {
            panic!()
        };
        assert_eq!(exprs[0].expr, LExpr::col("l_orderkey"));
    }

    #[test]
    fn trailing_semicolon_ends_the_statement() {
        let with = parse_sql("SELECT l_orderkey FROM lineitem;", &schemas()).unwrap();
        let without = parse_sql("SELECT l_orderkey FROM lineitem", &schemas()).unwrap();
        assert_eq!(with, without);
        assert!(parse_sql("SELECT l_orderkey FROM lineitem; SELECT 1", &schemas()).is_err());
    }

    #[test]
    fn doubled_quote_is_one_quote() {
        let p = parse_sql(
            "SELECT l_orderkey FROM lineitem WHERE l_shipmode = 'it''s' AND l_quantity < 2",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Scan {
            pred: Some(LPred::And(ps)),
            ..
        } = *input
        else {
            panic!("{input:?}")
        };
        assert_eq!(ps[0], LPred::eq("l_shipmode", Value::Str("it's".into())));
    }

    #[test]
    fn arithmetic_over_aggregates_projects_above_the_aggregate() {
        let p = parse_sql(
            "SELECT l_shipmode, 100 * SUM(l_discount) / SUM(l_quantity) AS ratio, \
             SUM(l_quantity) AS qty FROM lineitem GROUP BY l_shipmode",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, exprs } = p else {
            panic!("{p:?}")
        };
        let LogicalPlan::Aggregate { aggs, .. } = *input else {
            panic!("{input:?}")
        };
        // SUM(l_quantity) is lowered once, under the name its own select
        // item gives it; SUM(l_discount) has no item to go by.
        let names: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["qty", "__agg1"]);
        assert_eq!(
            exprs.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["l_shipmode", "ratio", "qty"]
        );
        let hundred_times = LExpr::bin(ArithOp::Mul, LExpr::int(100), LExpr::col("__agg1"));
        assert_eq!(
            exprs[1].expr,
            LExpr::bin(ArithOp::Div, hundred_times, LExpr::col("qty"))
        );
    }

    #[test]
    fn having_may_call_an_aggregate_the_select_list_does_not() {
        let p = parse_sql(
            "SELECT l_shipmode FROM lineitem GROUP BY l_shipmode HAVING SUM(l_quantity) > 300",
            &schemas(),
        )
        .unwrap();
        // The hidden aggregate is projected away again.
        let LogicalPlan::Project { input, exprs } = p else {
            panic!("{p:?}")
        };
        assert_eq!(exprs, [LNamed::new("l_shipmode", LExpr::col("l_shipmode"))]);
        let LogicalPlan::Filter { input, pred } = *input else {
            panic!("{input:?}")
        };
        assert_eq!(pred, LPred::cmp("__agg0", CmpOp::Gt, Value::Int(300)));
        assert!(matches!(*input, LogicalPlan::Aggregate { ref aggs, .. } if aggs.len() == 1));
    }

    #[test]
    fn in_subquery_is_a_semi_join_on_the_owning_scan() {
        let p = parse_sql(
            "SELECT l_orderkey FROM lineitem JOIN orders ON l_orderkey = o_orderkey \
             WHERE o_custkey < 10 AND o_orderkey IN \
             (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > 300)",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Join { right, .. } = *input else {
            panic!()
        };
        let LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type: JoinType::LeftSemi,
        } = *right
        else {
            panic!("{right:?}")
        };
        assert!(
            matches!(*left, LogicalPlan::Scan { ref table, pred: Some(_), .. } if table == "orders")
        );
        // Only the key is read, so the subquery's select list is not built.
        assert!(matches!(*right, LogicalPlan::Filter { .. }), "{right:?}");
        assert_eq!(
            (left_keys, right_keys),
            (
                vec!["o_orderkey".to_string()],
                vec!["l_orderkey".to_string()]
            )
        );

        for unsupported in [
            "SELECT l_orderkey FROM lineitem WHERE NOT l_orderkey IN (SELECT o_orderkey FROM orders)",
            "SELECT l_orderkey FROM lineitem WHERE l_orderkey IN (SELECT o_orderkey, o_custkey FROM orders)",
            "SELECT l_orderkey FROM lineitem WHERE l_orderkey IN (SELECT o_orderkey FROM orders LIMIT 3)",
            "SELECT l_orderkey FROM lineitem WHERE o_orderkey IN (SELECT o_orderkey FROM orders)",
        ] {
            assert!(parse_sql(unsupported, &schemas()).is_err(), "{unsupported}");
        }
    }
}

#[cfg(test)]
mod window_setop_tests {
    use super::*;

    fn schemas() -> HashMap<String, Vec<String>> {
        let mut m = HashMap::new();
        m.insert(
            "emp".to_string(),
            ["id", "dept", "salary"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        m
    }

    #[test]
    fn rank_over_clause() {
        let p = parse_sql(
            "SELECT id, RANK() OVER (PARTITION BY dept ORDER BY salary DESC) AS r FROM emp",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, exprs } = p else {
            panic!("{p:?}")
        };
        assert_eq!(exprs[1].name, "r");
        let LogicalPlan::Window {
            partition_by,
            order_by,
            func,
            name,
            ..
        } = *input
        else {
            panic!()
        };
        assert_eq!(partition_by, vec!["dept"]);
        assert!(order_by[0].desc);
        assert_eq!(func, LWindowFunc::Rank);
        assert_eq!(name, "r");
    }

    #[test]
    fn the_same_window_twice_is_two_columns() {
        let p = parse_sql(
            "SELECT ROW_NUMBER() OVER (ORDER BY id) AS a, ROW_NUMBER() OVER (ORDER BY id) AS b \
             FROM emp ORDER BY b",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Sort { input, .. } = p else {
            panic!("{p:?}")
        };
        let LogicalPlan::Project { exprs, .. } = *input else {
            panic!()
        };
        let names: Vec<&str> = exprs.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(exprs[1].expr, LExpr::Col("b".into()));
    }

    #[test]
    fn running_sum_over() {
        let p = parse_sql(
            "SELECT id, SUM(salary) OVER (ORDER BY id) AS cume FROM emp",
            &schemas(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Window {
            func, partition_by, ..
        } = *input
        else {
            panic!()
        };
        assert_eq!(
            func,
            LWindowFunc::RunningSum {
                col: "salary".into()
            }
        );
        assert!(partition_by.is_empty());
    }

    #[test]
    fn union_minus_intersect() {
        for (kw, op) in [
            ("UNION", rapid_qef::plan::SetOpKind::Union),
            ("INTERSECT", rapid_qef::plan::SetOpKind::Intersect),
            ("MINUS", rapid_qef::plan::SetOpKind::Minus),
            ("EXCEPT", rapid_qef::plan::SetOpKind::Minus),
        ] {
            let sql = format!(
                "SELECT id FROM emp WHERE salary > 100 {kw} SELECT id FROM emp WHERE dept = 1"
            );
            let p = parse_sql(&sql, &schemas()).unwrap();
            let LogicalPlan::SetOp {
                op: got,
                left,
                right,
            } = p
            else {
                panic!("{kw}")
            };
            assert_eq!(got, op, "{kw}");
            assert!(matches!(*left, LogicalPlan::Project { .. }));
            assert!(matches!(*right, LogicalPlan::Project { .. }));
        }
    }

    #[test]
    fn set_operators_split_on_tokens_outside_parentheses() {
        let mut m = schemas();
        m.insert("t".to_string(), vec!["s".to_string()]);
        let p = parse_sql("SELECT id FROM emp\nUNION\nSELECT dept FROM emp", &m).unwrap();
        assert!(matches!(p, LogicalPlan::SetOp { .. }), "{p:?}");
        // A set operator inside a subquery is not the outer statement's.
        let inner =
            "SELECT id FROM emp WHERE id IN (SELECT dept FROM emp UNION SELECT id FROM emp)";
        let e = parse_sql(inner, &m).unwrap_err();
        assert!(e.0.contains("expected ')'"), "{e}");
    }

    #[test]
    fn union_keyword_inside_string_is_literal() {
        let mut m = schemas();
        m.insert("t".to_string(), vec!["s".to_string()]);
        let p = parse_sql("SELECT s FROM t WHERE s = 'credit union club'", &m).unwrap();
        assert!(matches!(p, LogicalPlan::Project { .. }), "no set-op split");
    }

    #[test]
    fn explain_analyze_prefix_strips() {
        assert_eq!(
            strip_explain_analyze("EXPLAIN ANALYZE SELECT 1"),
            Some(" SELECT 1")
        );
        assert_eq!(
            strip_explain_analyze("  explain   Analyze\nSELECT id FROM emp"),
            Some("\nSELECT id FROM emp")
        );
        // EXPLAIN alone, a non-boundary, or no prefix: not recognised.
        assert_eq!(strip_explain_analyze("EXPLAIN SELECT 1"), None);
        assert_eq!(strip_explain_analyze("EXPLAINANALYZE SELECT 1"), None);
        assert_eq!(strip_explain_analyze("SELECT 'EXPLAIN ANALYZE'"), None);
    }

    #[test]
    fn explain_verify_prefix_strips() {
        assert_eq!(
            strip_explain_verify("EXPLAIN VERIFY SELECT 1"),
            Some(" SELECT 1")
        );
        assert_eq!(
            strip_explain_verify("  explain verify\nSELECT id FROM emp"),
            Some("\nSELECT id FROM emp")
        );
        assert_eq!(strip_explain_verify("EXPLAIN ANALYZE SELECT 1"), None);
        assert_eq!(strip_explain_verify("EXPLAIN SELECT 1"), None);
        assert_eq!(strip_explain_verify("EXPLAINVERIFY SELECT 1"), None);
    }
}
