//! The warehouse's relational primitives: typed cells and tables.
//!
//! Everything the SQL engine evaluates over is a [`Table`]: a named
//! list of columns plus rows of [`Datum`] cells. Cells are dynamically
//! typed (the object store's JSON is), with an explicit [`Datum::Null`]
//! for provenance fields that predate their introduction — tolerant
//! ingest maps *missing* to *NULL*, never to a parse failure.
//!
//! Ordering is total and deterministic: `NULL` sorts first, then
//! booleans, then numbers (cross-type `Int`/`Float` by value, ties
//! broken by IEEE total order), then strings — so `ORDER BY` over any
//! column mix is stable and byte-reproducible.

use std::cmp::Ordering;

use serde_json::{Deserialize, Error, Number, Parser, Serialize, Value, Writer};

/// One cell of a warehouse table.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// Absent value (e.g. a provenance field older stores never wrote).
    Null,
    /// Boolean (e.g. `converged`).
    Bool(bool),
    /// Integer (counters, ranks, iterations).
    Int(i64),
    /// Floating-point measurement (energy, time, residual).
    Float(f64),
    /// Text (scheme labels, unit names, content hashes).
    Str(String),
}

impl Datum {
    /// The cell's numeric value, when it has one (`Int` or `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::Int(n) => Some(*n as f64),
            Datum::Float(f) => Some(*f),
            Datum::Null | Datum::Bool(_) | Datum::Str(_) => None,
        }
    }

    /// Whether this cell is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// SQL equality: `NULL` equals nothing (including `NULL`); numbers
    /// compare by value across `Int`/`Float`.
    pub fn sql_eq(&self, other: &Datum) -> bool {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => false,
            (Datum::Bool(a), Datum::Bool(b)) => a == b,
            (Datum::Str(a), Datum::Str(b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }

    /// SQL ordering comparison for `<`/`<=`/`>`/`>=`: `None` when the
    /// operands are incomparable (either is `NULL`, or the types mix
    /// non-numerically) — an incomparable `WHERE` comparison is false.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            (Datum::Str(a), Datum::Str(b)) => Some(a.cmp(b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Some(a.total_cmp(&b)),
                _ => None,
            },
        }
    }

    /// Total deterministic order for `ORDER BY` and `GROUP BY` keys:
    /// `NULL < Bool < numbers < Str`, each type ordered internally
    /// (floats by IEEE total order, so even NaN sorts stably).
    pub fn total_order(&self, other: &Datum) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Null => 0,
                Datum::Bool(_) => 1,
                Datum::Int(_) | Datum::Float(_) => 2,
                Datum::Str(_) => 3,
            }
        }
        match (self, other) {
            (Datum::Null, Datum::Null) => Ordering::Equal,
            (Datum::Bool(a), Datum::Bool(b)) => a.cmp(b),
            (Datum::Str(a), Datum::Str(b)) => a.cmp(b),
            (Datum::Int(a), Datum::Int(b)) => a.cmp(b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.total_cmp(&b),
                _ => rank(self).cmp(&rank(other)),
            },
        }
    }

    /// Tolerant conversion from object-store JSON: anything the
    /// warehouse cannot type (arrays, objects) reads as `NULL` rather
    /// than failing the row.
    pub fn from_json(v: &Value) -> Datum {
        match v {
            Value::Null | Value::Array(_) | Value::Object(_) => Datum::Null,
            Value::Bool(b) => Datum::Bool(*b),
            Value::UInt(n) => Datum::from_number(Number::UInt(*n)),
            Value::Int(n) => Datum::from_number(Number::Int(*n)),
            Value::Float(f) => Datum::from_number(Number::Float(*f)),
            Value::Str(s) => Datum::Str(s.clone()),
        }
    }

    /// The numeric cell for a JSON number: integral while it fits `i64`.
    fn from_number(n: Number) -> Datum {
        match n {
            Number::UInt(n) => i64::try_from(n).map_or(Datum::Float(n as f64), Datum::Int),
            Number::Int(n) => Datum::Int(n),
            Number::Float(f) => Datum::Float(f),
        }
    }

    /// Human-oriented rendering for scoreboards and tables.
    pub fn display(&self) -> String {
        match self {
            Datum::Null => "NULL".to_string(),
            Datum::Bool(b) => b.to_string(),
            Datum::Int(n) => n.to_string(),
            Datum::Float(f) => format!("{f:?}"),
            Datum::Str(s) => s.clone(),
        }
    }
}

/// Canonical JSON form of a cell: `Int` stays integral, floats keep the
/// vendored writer's deterministic `{:?}` formatting.
impl Serialize for Datum {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Datum::Null => w.null(),
            Datum::Bool(b) => w.bool(*b),
            Datum::Int(n) => w.int(*n),
            Datum::Float(f) => w.float(*f),
            Datum::Str(s) => w.str(s),
        }
    }
}

/// Reads the next JSON value straight into the cell [`Datum::from_json`]
/// gives for it, without the tree in between: arrays and objects are
/// walked (so malformed ones still fail the document) and read `NULL`.
impl Deserialize for Datum {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        Ok(match p.peek() {
            Some(b'"') => Datum::Str(p.string()?.into_owned()),
            Some(b't' | b'f') => Datum::Bool(p.boolean()?),
            Some(b'n' | b'[' | b'{') => {
                p.skip()?;
                Datum::Null
            }
            _ => Datum::from_number(p.number()?),
        })
    }
}

/// A named in-memory relation: column names plus rows of cells. Every
/// row has exactly `columns.len()` cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// View name the SQL `FROM` clause resolves (`runs`, `units`, …).
    pub name: String,
    /// Column names, in projection order.
    pub columns: Vec<String>,
    /// Row data, in the view's canonical (ingest) order.
    pub rows: Vec<Vec<Datum>>,
}

impl Table {
    /// An empty table with the given shape.
    pub fn new(name: &str, columns: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Index of `column`, if the table has it.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_never_equals_and_never_orders() {
        assert!(!Datum::Null.sql_eq(&Datum::Null));
        assert!(!Datum::Null.sql_eq(&Datum::Int(0)));
        assert!(Datum::Null.sql_cmp(&Datum::Int(0)).is_none());
        assert!(Datum::Null.is_null());
    }

    #[test]
    fn numbers_compare_across_int_and_float() {
        assert!(Datum::Int(2).sql_eq(&Datum::Float(2.0)));
        assert_eq!(
            Datum::Int(1).sql_cmp(&Datum::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Datum::Float(3.0).total_order(&Datum::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn total_order_ranks_types_deterministically() {
        let mut cells = vec![
            Datum::Str("a".into()),
            Datum::Int(1),
            Datum::Null,
            Datum::Bool(true),
            Datum::Float(0.5),
        ];
        cells.sort_by(|a, b| a.total_order(b));
        assert_eq!(
            cells,
            vec![
                Datum::Null,
                Datum::Bool(true),
                Datum::Float(0.5),
                Datum::Int(1),
                Datum::Str("a".into()),
            ]
        );
    }

    #[test]
    fn json_round_trip_is_type_preserving() {
        let round_trip =
            |d: Datum| serde_json::from_str::<Datum>(&serde_json::to_string(&d).unwrap()).unwrap();
        for d in [
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(-3),
            Datum::Int(7),
            Datum::Float(1.25),
            Datum::Float(2.0),
            Datum::Str("a\"b".into()),
        ] {
            assert_eq!(round_trip(d.clone()), d);
        }
        assert_eq!(Datum::from_json(&Value::Array(vec![])), Datum::Null);
    }

    #[test]
    fn direct_decode_matches_the_tree_decode() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-0",
            "7",
            "-7",
            "9223372036854775807",
            "9223372036854775808",
            "18446744073709551615",
            "-9223372036854775808",
            "1.0",
            "-0.0",
            "1e300",
            "2E-3",
            r#""""#,
            r#""LI (CG)-DVFS""#,
            r#""esc \" \\ \n \u00e9 é""#,
            "[]",
            r#"[1,"a",{"b":null}]"#,
            r#"{"a":[1,2]}"#,
        ] {
            let direct: Datum = serde_json::from_str(text).unwrap();
            let tree = Datum::from_json(&serde_json::parse_value(text).unwrap());
            match (&direct, &tree) {
                (Datum::Float(a), Datum::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(direct, tree, "{text}"),
            }
        }
        for bad in [
            "",
            "nul",
            "[1,",
            r#"{"a":}"#,
            r#""open"#,
            "18446744073709551616",
        ] {
            assert!(serde_json::from_str::<Datum>(bad).is_err(), "{bad}");
            assert!(serde_json::parse_value(bad).is_err(), "{bad}");
        }
    }
}
