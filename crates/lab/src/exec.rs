//! Query evaluation over warehouse tables.
//!
//! Execution is deliberately boring — filter, group, aggregate, sort,
//! limit, project — with every step deterministic: rows are visited in
//! the table's canonical ingest order, groups are formed first-seen and
//! then sorted by key under [`Datum::total_order`], aggregate
//! accumulation folds in row order, and `ORDER BY` uses a stable sort.
//! The same warehouse therefore always yields byte-identical results
//! for the same query, which is the invariant `rsls-serve`'s `/query`
//! ETags certify.

use serde_json::{Serialize, Writer};

use crate::sql::{AggFunc, CmpOp, Expr, Operand, Query, SelectItem};
use crate::table::{Datum, Table};
use crate::LabError;

/// The rows and column names a query produced.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (`scheme`, `avg(energy)`, …).
    pub columns: Vec<String>,
    /// Result rows, in final (ordered, limited) order.
    pub rows: Vec<Vec<Datum>>,
}

/// Canonical JSON form: `{"columns":[…],"rows":[[…],…]}`.
impl Serialize for QueryResult {
    fn serialize(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("columns", &self.columns);
            w.field("rows", &self.rows);
        });
    }
}

impl QueryResult {
    /// Canonical JSON text — byte-deterministic for a given result.
    pub fn to_canonical_json(&self) -> String {
        Writer::compact().render(self)
    }

    /// Fixed-width text table for terminal output.
    pub fn render_table(&self) -> String {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Datum::display).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, (c, w)) in self.columns.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{c:<w$}"));
        }
        out.push('\n');
        for row in &cells {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:<w$}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Runs `query` against `table` (already resolved from the `FROM`
/// clause by the caller).
pub fn execute(table: &Table, query: &Query) -> Result<QueryResult, LabError> {
    let filtered = filter_rows(table, query.filter.as_ref())?;
    let aggregated = !query.group_by.is_empty()
        || query
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Agg { .. }));
    let mut result = if aggregated {
        execute_grouped(table, query, &filtered)?
    } else {
        execute_plain(table, query, &filtered)?
    };
    if let Some(limit) = query.limit {
        result.rows.truncate(limit);
    }
    Ok(result)
}

/// Whether one row satisfies a boolean filter expression — the hook
/// [`crate::compare`] slices row sets with.
pub fn row_matches(table: &Table, row: &[Datum], expr: &Expr) -> Result<bool, LabError> {
    eval_expr(table, row, expr)
}

/// Evaluates the `WHERE` clause over every row, in table order.
fn filter_rows<'t>(
    table: &'t Table,
    filter: Option<&Expr>,
) -> Result<Vec<&'t Vec<Datum>>, LabError> {
    let mut kept = Vec::new();
    for row in &table.rows {
        let keep = match filter {
            Some(expr) => eval_expr(table, row, expr)?,
            None => true,
        };
        if keep {
            kept.push(row);
        }
    }
    Ok(kept)
}

fn eval_expr(table: &Table, row: &[Datum], expr: &Expr) -> Result<bool, LabError> {
    match expr {
        Expr::Or(a, b) => Ok(eval_expr(table, row, a)? || eval_expr(table, row, b)?),
        Expr::And(a, b) => Ok(eval_expr(table, row, a)? && eval_expr(table, row, b)?),
        Expr::Not(inner) => Ok(!eval_expr(table, row, inner)?),
        Expr::Cmp(left, op, right) => {
            let l = resolve(table, row, left)?;
            let r = resolve(table, row, right)?;
            Ok(match op {
                CmpOp::Eq => l.sql_eq(&r),
                CmpOp::Ne => !l.is_null() && !r.is_null() && !l.sql_eq(&r),
                CmpOp::Lt => l.sql_cmp(&r) == Some(std::cmp::Ordering::Less),
                CmpOp::Le => matches!(
                    l.sql_cmp(&r),
                    Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
                ),
                CmpOp::Gt => l.sql_cmp(&r) == Some(std::cmp::Ordering::Greater),
                CmpOp::Ge => matches!(
                    l.sql_cmp(&r),
                    Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal)
                ),
            })
        }
        Expr::IsNull { operand, negated } => {
            let v = resolve(table, row, operand)?;
            Ok(v.is_null() != *negated)
        }
    }
}

fn resolve(table: &Table, row: &[Datum], operand: &Operand) -> Result<Datum, LabError> {
    match operand {
        Operand::Lit(d) => Ok(d.clone()),
        Operand::Column(name) => match table.column_index(name) {
            Some(i) => Ok(row[i].clone()),
            None => Err(unknown_column(table, name)),
        },
    }
}

fn unknown_column(table: &Table, name: &str) -> LabError {
    LabError::Eval(format!(
        "unknown column `{name}` in table `{}` (columns: {})",
        table.name,
        table.columns.join(", ")
    ))
}

/// Non-aggregated path: project, then order by source-row keys, then
/// (in [`execute`]) limit.
fn execute_plain(
    table: &Table,
    query: &Query,
    rows: &[&Vec<Datum>],
) -> Result<QueryResult, LabError> {
    // Expand `*` and resolve projection indices up front.
    let mut columns = Vec::new();
    let mut indices = Vec::new();
    for item in &query.items {
        match item {
            SelectItem::Star => {
                for (i, c) in table.columns.iter().enumerate() {
                    columns.push(c.clone());
                    indices.push(i);
                }
            }
            SelectItem::Column(name) => match table.column_index(name) {
                Some(i) => {
                    columns.push(name.clone());
                    indices.push(i);
                }
                None => return Err(unknown_column(table, name)),
            },
            SelectItem::Agg { .. } => {
                return Err(LabError::Eval(
                    "aggregate reached the non-aggregated path".to_string(),
                ));
            }
        }
    }
    // ORDER BY keys may name any table column, selected or not.
    let mut order_indices = Vec::new();
    for key in &query.order_by {
        match &key.item {
            SelectItem::Column(name) => match table.column_index(name) {
                Some(i) => order_indices.push((i, key.desc)),
                None => return Err(unknown_column(table, name)),
            },
            other => {
                return Err(LabError::Eval(format!(
                    "ORDER BY `{}` requires GROUP BY or an aggregate query",
                    other.output_name()
                )));
            }
        }
    }
    let mut ordered: Vec<&Vec<Datum>> = rows.to_vec();
    if !order_indices.is_empty() {
        ordered.sort_by(|a, b| compare_keyed(a, b, &order_indices));
    }
    let rows = ordered
        .iter()
        .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
        .collect();
    Ok(QueryResult { columns, rows })
}

/// Aggregated path: group in first-seen order, sort groups by key,
/// fold aggregates in row order, then order by output columns.
fn execute_grouped(
    table: &Table,
    query: &Query,
    rows: &[&Vec<Datum>],
) -> Result<QueryResult, LabError> {
    let mut key_indices = Vec::new();
    for name in &query.group_by {
        match table.column_index(name) {
            Some(i) => key_indices.push(i),
            None => return Err(unknown_column(table, name)),
        }
    }
    // Validate the projection: plain columns must be grouped on.
    for item in &query.items {
        match item {
            SelectItem::Star => {
                return Err(LabError::Eval(
                    "`SELECT *` cannot be combined with GROUP BY or aggregates".to_string(),
                ));
            }
            SelectItem::Column(name) => {
                if !query.group_by.contains(name) {
                    return Err(LabError::Eval(format!(
                        "column `{name}` must appear in GROUP BY to be selected alongside aggregates"
                    )));
                }
                if table.column_index(name).is_none() {
                    return Err(unknown_column(table, name));
                }
            }
            SelectItem::Agg {
                arg: Some(name), ..
            } => {
                if table.column_index(name).is_none() {
                    return Err(unknown_column(table, name));
                }
            }
            SelectItem::Agg { arg: None, .. } => {}
        }
    }

    // Group rows (first-seen order, linear key match — group counts are
    // small), then sort groups by key for output determinism.
    let mut groups: Vec<(Vec<Datum>, Vec<&Vec<Datum>>)> = Vec::new();
    for row in rows {
        let key: Vec<Datum> = key_indices.iter().map(|&i| row[i].clone()).collect();
        match groups.iter_mut().find(|(k, _)| keys_match(k, &key)) {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    // A global aggregate (no GROUP BY) always yields exactly one row,
    // even over zero input rows: `count(*)` is 0, the rest NULL.
    if key_indices.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    groups.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_order(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let columns: Vec<String> = query.items.iter().map(SelectItem::output_name).collect();
    let mut out_rows = Vec::new();
    for (key, members) in &groups {
        let mut out = Vec::new();
        for item in &query.items {
            match item {
                SelectItem::Column(name) => {
                    let ki = query.group_by.iter().position(|g| g == name).unwrap_or(0);
                    out.push(key[ki].clone());
                }
                SelectItem::Agg { func, arg } => {
                    out.push(aggregate(table, members, *func, arg.as_deref())?);
                }
                SelectItem::Star => {}
            }
        }
        out_rows.push(out);
    }

    // ORDER BY keys must name output columns (grouped column or an
    // aggregate that appears in the SELECT list).
    let mut order_indices = Vec::new();
    for okey in &query.order_by {
        let name = okey.item.output_name();
        match columns.iter().position(|c| *c == name) {
            Some(i) => order_indices.push((i, okey.desc)),
            None => {
                return Err(LabError::Eval(format!(
                    "ORDER BY key `{name}` must appear in the SELECT list of an aggregated query"
                )));
            }
        }
    }
    if !order_indices.is_empty() {
        out_rows.sort_by(|a, b| compare_keyed(a, b, &order_indices));
    }
    Ok(QueryResult {
        columns,
        rows: out_rows,
    })
}

/// Grouping key equality: exact cell equality including `NULL = NULL`
/// (grouping collects NULLs together, unlike `WHERE` equality).
fn keys_match(a: &[Datum], b: &[Datum]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.total_order(y) == std::cmp::Ordering::Equal)
}

/// Lexicographic multi-key comparison with per-key direction.
fn compare_keyed(a: &[Datum], b: &[Datum], keys: &[(usize, bool)]) -> std::cmp::Ordering {
    for &(i, desc) in keys {
        let ord = a[i].total_order(&b[i]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Folds one aggregate over a group's rows, in row order. `NULL`
/// cells are skipped; an aggregate over no values is `NULL` (except
/// `count`, which is 0).
fn aggregate(
    table: &Table,
    rows: &[&Vec<Datum>],
    func: AggFunc,
    arg: Option<&str>,
) -> Result<Datum, LabError> {
    let idx = match arg {
        Some(name) => match table.column_index(name) {
            Some(i) => Some(i),
            None => return Err(unknown_column(table, name)),
        },
        None => None,
    };
    let values = || {
        rows.iter()
            .filter_map(|row| idx.map(|i| &row[i]))
            .filter(|d| !d.is_null())
    };
    match func {
        AggFunc::Count => match idx {
            None => Ok(Datum::Int(rows.len() as i64)),
            Some(_) => Ok(Datum::Int(values().count() as i64)),
        },
        AggFunc::Min => Ok(values()
            .cloned()
            .reduce(|best, v| {
                if v.total_order(&best) == std::cmp::Ordering::Less {
                    v
                } else {
                    best
                }
            })
            .unwrap_or(Datum::Null)),
        AggFunc::Max => Ok(values()
            .cloned()
            .reduce(|best, v| {
                if v.total_order(&best) == std::cmp::Ordering::Greater {
                    v
                } else {
                    best
                }
            })
            .unwrap_or(Datum::Null)),
        AggFunc::Sum => sum_values(values(), func),
        AggFunc::Avg => {
            let count = values().count();
            if count == 0 {
                return Ok(Datum::Null);
            }
            match sum_values(values(), func)? {
                Datum::Int(n) => Ok(Datum::Float(n as f64 / count as f64)),
                Datum::Float(f) => Ok(Datum::Float(f / count as f64)),
                other => Ok(other),
            }
        }
    }
}

/// Sums numeric values in row order: all-integer input stays `Int`
/// (falling back to `Float` on overflow), any float makes it `Float`,
/// a non-numeric value is an error, and no values is `NULL`.
fn sum_values<'a>(
    values: impl Iterator<Item = &'a Datum>,
    func: AggFunc,
) -> Result<Datum, LabError> {
    let mut int_sum: i64 = 0;
    let mut float_sum: f64 = 0.0;
    let mut as_float = false;
    let mut any = false;
    for v in values {
        any = true;
        match v {
            Datum::Int(n) => {
                if as_float {
                    float_sum += *n as f64;
                } else {
                    match int_sum.checked_add(*n) {
                        Some(s) => int_sum = s,
                        None => {
                            as_float = true;
                            float_sum = int_sum as f64 + *n as f64;
                        }
                    }
                }
            }
            Datum::Float(f) => {
                if !as_float {
                    as_float = true;
                    float_sum = int_sum as f64;
                }
                float_sum += *f;
            }
            other => {
                return Err(LabError::Eval(format!(
                    "{}() over non-numeric value {}",
                    func.name(),
                    other.display()
                )));
            }
        }
    }
    if !any {
        Ok(Datum::Null)
    } else if as_float {
        Ok(Datum::Float(float_sum))
    } else {
        Ok(Datum::Int(int_sum))
    }
}
