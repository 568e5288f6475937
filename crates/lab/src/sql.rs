//! The warehouse's SQL subset: lexer, AST, and recursive-descent parser.
//!
//! Grammar (keywords and identifiers are case-insensitive; string
//! literals are single-quoted with `''` escaping a quote):
//!
//! ```text
//! query      := SELECT items FROM ident
//!               (WHERE expr)?
//!               (GROUP BY ident ("," ident)*)?
//!               (ORDER BY key (ASC|DESC)? ("," key (ASC|DESC)?)*)?
//!               (LIMIT integer)?
//! items      := "*" | item ("," item)*
//! item       := ident | agg "(" (ident | "*") ")"
//! agg        := count | min | max | avg | sum      ("*" only for count)
//! key        := item                               (no "*")
//! expr       := and_expr (OR and_expr)*
//! and_expr   := factor (AND factor)*
//! factor     := NOT factor | "(" expr ")" | comparison
//! comparison := operand (= | != | <> | < | <= | > | >=) operand
//!             | operand IS (NOT)? NULL
//! operand    := ident | number | 'string' | true | false | null
//! ```
//!
//! The parser is hand-rolled: a flat token list, a cursor, and errors
//! that carry the byte offset of the offending token so
//! `rsls-run --query` can exit nonzero with a pointed message instead of
//! a stack trace.

use crate::table::Datum;

/// A parse-time failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    /// What went wrong, in one sentence.
    pub message: String,
    /// Byte offset into the query text (end of input if exhausted).
    pub offset: usize,
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SqlError {}

/// One lexical token, tagged with its byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq)]
struct Tok {
    kind: TokKind,
    offset: usize,
}

/// Token payloads. Identifiers arrive lowercased (the language is
/// case-insensitive); string literals keep their exact text.
#[derive(Debug, Clone, PartialEq)]
enum TokKind {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Aggregate functions the subset supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row (or non-NULL value) count.
    Count,
    /// Smallest value, by the SQL comparison order.
    Min,
    /// Largest value.
    Max,
    /// Arithmetic mean of non-NULL numeric values.
    Avg,
    /// Sum of non-NULL numeric values.
    Sum,
}

impl AggFunc {
    /// The function's lowercase SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
            AggFunc::Sum => "sum",
        }
    }

    fn from_name(name: &str) -> Option<AggFunc> {
        match name {
            "count" => Some(AggFunc::Count),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "avg" => Some(AggFunc::Avg),
            "sum" => Some(AggFunc::Sum),
            _ => None,
        }
    }
}

/// One item of the `SELECT` list (or an `ORDER BY` key).
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`: every column of the source table.
    Star,
    /// A plain column reference.
    Column(String),
    /// An aggregate call; `arg` is `None` for `count(*)`.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// The aggregated column (`None` only for `count(*)`).
        arg: Option<String>,
    },
}

impl SelectItem {
    /// The output-column name this item projects to (`avg(energy)`,
    /// `count(*)`, or the bare column name) — also the name `ORDER BY`
    /// keys are matched against.
    pub fn output_name(&self) -> String {
        match self {
            SelectItem::Star => "*".to_string(),
            SelectItem::Column(c) => c.clone(),
            SelectItem::Agg { func, arg } => {
                format!("{}({})", func.name(), arg.as_deref().unwrap_or("*"))
            }
        }
    }
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A comparison operand: a column reference or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Column reference, resolved against the table at evaluation time.
    Column(String),
    /// Literal value.
    Lit(Datum),
}

/// A boolean `WHERE` expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical conjunction (binds tighter than `OR`).
    And(Box<Expr>, Box<Expr>),
    /// Logical negation (binds tighter than `AND`).
    Not(Box<Expr>),
    /// Binary comparison; a comparison involving `NULL` is false.
    Cmp(Operand, CmpOp, Operand),
    /// `IS NULL` / `IS NOT NULL` — the only way to match `NULL`.
    IsNull {
        /// The tested operand.
        operand: Operand,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

/// One `ORDER BY` key: an output column (or aggregate) plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// What to sort by (never [`SelectItem::Star`]).
    pub item: SelectItem,
    /// True for `DESC`.
    pub desc: bool,
}

/// A parsed query, ready for [`crate::exec::execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The `SELECT` list.
    pub items: Vec<SelectItem>,
    /// The `FROM` table (view) name.
    pub table: String,
    /// The `WHERE` clause, if any.
    pub filter: Option<Expr>,
    /// `GROUP BY` columns, in clause order.
    pub group_by: Vec<String>,
    /// `ORDER BY` keys, in clause order.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT` row bound, if any.
    pub limit: Option<usize>,
}

/// Parses a full query.
pub fn parse(text: &str) -> Result<Query, SqlError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        end: text.len(),
    };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parses a bare boolean filter expression — the `WHERE`-clause
/// sublanguage `compare` uses to name its A and B row sets.
pub fn parse_filter(text: &str) -> Result<Expr, SqlError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        end: text.len(),
    };
    let e = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

fn lex(text: &str) -> Result<Vec<Tok>, SqlError> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let offset = i;
        let mut push = |kind: TokKind| toks.push(Tok { kind, offset });
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'(' => {
                push(TokKind::LParen);
                i += 1;
            }
            b')' => {
                push(TokKind::RParen);
                i += 1;
            }
            b',' => {
                push(TokKind::Comma);
                i += 1;
            }
            b'*' => {
                push(TokKind::Star);
                i += 1;
            }
            b'=' => {
                push(TokKind::Eq);
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(TokKind::Ne);
                    i += 2;
                } else {
                    return Err(SqlError {
                        message: "expected `!=`".to_string(),
                        offset,
                    });
                }
            }
            b'<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    push(TokKind::Le);
                    i += 2;
                }
                Some(&b'>') => {
                    push(TokKind::Ne);
                    i += 2;
                }
                _ => {
                    push(TokKind::Lt);
                    i += 1;
                }
            },
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(TokKind::Ge);
                    i += 2;
                } else {
                    push(TokKind::Gt);
                    i += 1;
                }
            }
            b'\'' => {
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    match bytes.get(j) {
                        Some(&b'\'') => {
                            if bytes.get(j + 1) == Some(&b'\'') {
                                s.push('\'');
                                j += 2;
                            } else {
                                j += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            // Strings are sliced on byte boundaries of
                            // quote characters, so this always lands on
                            // a char boundary for valid UTF-8 input.
                            let rest = &text[j..];
                            let Some(ch) = rest.chars().next() else {
                                return Err(SqlError {
                                    message: "unterminated string literal".to_string(),
                                    offset,
                                });
                            };
                            s.push(ch);
                            j += ch.len_utf8();
                        }
                        None => {
                            return Err(SqlError {
                                message: "unterminated string literal".to_string(),
                                offset,
                            });
                        }
                    }
                }
                push(TokKind::Str(s));
                i = j;
            }
            b'0'..=b'9' | b'-' | b'.' => {
                if c == b'-'
                    && !bytes
                        .get(i + 1)
                        .is_some_and(|b| b.is_ascii_digit() || *b == b'.')
                {
                    return Err(SqlError {
                        message: "`-` must introduce a numeric literal".to_string(),
                        offset,
                    });
                }
                let mut j = i + 1;
                let mut is_float = c == b'.';
                while let Some(&b) = bytes.get(j) {
                    match b {
                        b'0'..=b'9' => j += 1,
                        b'.' | b'e' | b'E' => {
                            is_float = true;
                            j += 1;
                        }
                        b'+' | b'-' if matches!(bytes.get(j - 1), Some(b'e') | Some(b'E')) => {
                            j += 1;
                        }
                        _ => break,
                    }
                }
                let lit = &text[i..j];
                let kind = if is_float {
                    match lit.parse::<f64>() {
                        Ok(f) => TokKind::Float(f),
                        Err(_) => {
                            return Err(SqlError {
                                message: format!("malformed number `{lit}`"),
                                offset,
                            });
                        }
                    }
                } else {
                    match lit.parse::<i64>() {
                        Ok(n) => TokKind::Int(n),
                        Err(_) => {
                            return Err(SqlError {
                                message: format!("malformed number `{lit}`"),
                                offset,
                            });
                        }
                    }
                };
                push(kind);
                i = j;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut j = i + 1;
                while bytes
                    .get(j)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    j += 1;
                }
                push(TokKind::Ident(text[i..j].to_ascii_lowercase()));
                i = j;
            }
            _ => {
                return Err(SqlError {
                    message: format!(
                        "unexpected character `{}`",
                        text[i..].chars().next().unwrap_or('?')
                    ),
                    offset,
                });
            }
        }
    }
    Ok(toks)
}

/// Cursor over the token list.
struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    end: usize,
}

impl Parser {
    fn offset(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |t| t.offset)
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError {
            message: message.into(),
            offset: self.offset(),
        }
    }

    fn peek(&self) -> Option<&TokKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<TokKind> {
        let kind = self.toks.get(self.pos).map(|t| t.kind.clone());
        if kind.is_some() {
            self.pos += 1;
        }
        kind
    }

    /// Consumes the keyword `kw` if it is next; false otherwise.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(TokKind::Ident(w)) if w == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", kw.to_uppercase())))
        }
    }

    fn expect_kind(&mut self, kind: &TokKind, what: &str) -> Result<(), SqlError> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_end(&self) -> Result<(), SqlError> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.err("unexpected trailing input"))
        }
    }

    /// A non-keyword identifier (column or table name).
    fn ident(&mut self, what: &str) -> Result<String, SqlError> {
        match self.peek() {
            Some(TokKind::Ident(w)) if !is_keyword(w) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn query(&mut self) -> Result<Query, SqlError> {
        self.expect_kw("select")?;
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !matches!(self.peek(), Some(TokKind::Comma)) {
                break;
            }
            self.pos += 1;
        }
        self.expect_kw("from")?;
        let table = self.ident("table name")?;
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.ident("GROUP BY column")?);
                if !matches!(self.peek(), Some(TokKind::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let item = self.select_item()?;
                if item == SelectItem::Star {
                    return Err(self.err("`*` is not an ORDER BY key"));
                }
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { item, desc });
                if !matches!(self.peek(), Some(TokKind::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Some(TokKind::Int(n)) if n >= 0 => Some(n as usize),
                _ => {
                    return Err(SqlError {
                        message: "LIMIT takes a non-negative integer".to_string(),
                        offset: self
                            .toks
                            .get(self.pos.saturating_sub(1))
                            .map_or(self.end, |t| t.offset),
                    });
                }
            }
        } else {
            None
        };
        Ok(Query {
            items,
            table,
            filter,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if matches!(self.peek(), Some(TokKind::Star)) {
            self.pos += 1;
            return Ok(SelectItem::Star);
        }
        let word = match self.peek() {
            Some(TokKind::Ident(w)) => w.clone(),
            _ => return Err(self.err("expected column, aggregate, or `*`")),
        };
        if let Some(func) = AggFunc::from_name(&word) {
            if self.toks.get(self.pos + 1).map(|t| &t.kind) == Some(&TokKind::LParen) {
                self.pos += 2;
                let arg = if matches!(self.peek(), Some(TokKind::Star)) {
                    if func != AggFunc::Count {
                        return Err(self.err(format!(
                            "`{}(*)` is not supported — name a column",
                            func.name()
                        )));
                    }
                    self.pos += 1;
                    None
                } else {
                    Some(self.ident("aggregate argument column")?)
                };
                self.expect_kind(&TokKind::RParen, "`)`")?;
                return Ok(SelectItem::Agg { func, arg });
            }
        }
        if is_keyword(&word) {
            return Err(self.err(format!("`{word}` is a keyword, not a column")));
        }
        self.pos += 1;
        Ok(SelectItem::Column(word))
    }

    fn expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.factor()?;
        while self.eat_kw("and") {
            let right = self.factor()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("not") {
            return Ok(Expr::Not(Box::new(self.factor()?)));
        }
        if matches!(self.peek(), Some(TokKind::LParen)) {
            self.pos += 1;
            let inner = self.expr()?;
            self.expect_kind(&TokKind::RParen, "`)`")?;
            return Ok(inner);
        }
        let left = self.operand()?;
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                operand: left,
                negated,
            });
        }
        let op = match self.peek() {
            Some(TokKind::Eq) => CmpOp::Eq,
            Some(TokKind::Ne) => CmpOp::Ne,
            Some(TokKind::Lt) => CmpOp::Lt,
            Some(TokKind::Le) => CmpOp::Le,
            Some(TokKind::Gt) => CmpOp::Gt,
            Some(TokKind::Ge) => CmpOp::Ge,
            _ => return Err(self.err("expected a comparison operator or `IS`")),
        };
        self.pos += 1;
        let right = self.operand()?;
        Ok(Expr::Cmp(left, op, right))
    }

    fn operand(&mut self) -> Result<Operand, SqlError> {
        match self.peek() {
            Some(TokKind::Int(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(Operand::Lit(Datum::Int(n)))
            }
            Some(TokKind::Float(f)) => {
                let f = *f;
                self.pos += 1;
                Ok(Operand::Lit(Datum::Float(f)))
            }
            Some(TokKind::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Operand::Lit(Datum::Str(s)))
            }
            Some(TokKind::Ident(w)) if w == "true" => {
                self.pos += 1;
                Ok(Operand::Lit(Datum::Bool(true)))
            }
            Some(TokKind::Ident(w)) if w == "false" => {
                self.pos += 1;
                Ok(Operand::Lit(Datum::Bool(false)))
            }
            Some(TokKind::Ident(w)) if w == "null" => {
                self.pos += 1;
                Ok(Operand::Lit(Datum::Null))
            }
            Some(TokKind::Ident(w)) if !is_keyword(w) => {
                let w = w.clone();
                self.pos += 1;
                Ok(Operand::Column(w))
            }
            _ => Err(self.err("expected a column or literal")),
        }
    }
}

/// Reserved words that can never be column or table names.
fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "select"
            | "from"
            | "where"
            | "group"
            | "by"
            | "order"
            | "limit"
            | "and"
            | "or"
            | "not"
            | "is"
            | "null"
            | "true"
            | "false"
            | "asc"
            | "desc"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_acceptance_query() {
        let q = parse("SELECT scheme, avg(energy) FROM runs GROUP BY scheme ORDER BY avg(energy)")
            .unwrap();
        assert_eq!(q.table, "runs");
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.items[1].output_name(), "avg(energy)");
        assert_eq!(q.group_by, vec!["scheme"]);
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].desc);
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let e = parse_filter("a = 1 OR b = 2 AND c = 3").unwrap();
        match e {
            Expr::Or(_, right) => assert!(matches!(*right, Expr::And(_, _))),
            other => panic!("expected OR at the root, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let e = parse("SELECT FROM runs").unwrap_err();
        assert_eq!(e.offset, 7);
        assert!(parse("SELECT x FROM").is_err());
        assert!(parse("SELECT x FROM runs LIMIT nope").is_err());
        assert!(parse_filter("scheme = 'unterminated").is_err());
        assert!(parse("SELECT sum(*) FROM runs").is_err());
        assert!(parse("SELECT x FROM runs trailing").is_err());
    }

    #[test]
    fn lexes_edge_cases() {
        let q = parse("select x from t where s = 'it''s' and n <= -1.5e-3 and m <> 2").unwrap();
        let Some(Expr::And(_, _)) = q.filter else {
            panic!("expected AND filter");
        };
        let q2 = parse("SELECT X FROM T WHERE Y IS NOT NULL").unwrap();
        assert_eq!(q2.table, "t");
    }
}
