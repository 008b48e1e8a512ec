//! A small CSV loader so relational sources can be fed from files (used by
//! the `medmaker` CLI).
//!
//! Format: the header row declares `column:type` pairs (`string`,
//! `integer`, `real`, `boolean`); subsequent rows hold values. Empty cells
//! are NULL. Cells may be double-quoted; `""` inside quotes escapes a
//! quote. No external dependencies.

use crate::error::{DbError, Result};
use crate::schema::Schema;
use crate::table::Table;
use crate::types::{ColType, Datum};

/// Parse a whole CSV document into a table named `name`.
pub fn load_csv(name: &str, text: &str) -> Result<Table> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| DbError::NoSuchColumn {
        table: name.to_string(),
        column: "<empty csv: missing header>".to_string(),
    })?;

    let mut columns: Vec<(String, ColType)> = Vec::new();
    for field in split_row(header) {
        let (col, ty) = field.split_once(':').ok_or_else(|| DbError::NoSuchColumn {
            table: name.to_string(),
            column: format!("header field '{field}' lacks ':type'"),
        })?;
        let ty = match ty.trim() {
            "string" | "str" => ColType::Str,
            "integer" | "int" => ColType::Int,
            "real" | "float" => ColType::Real,
            "boolean" | "bool" => ColType::Bool,
            other => {
                return Err(DbError::NoSuchColumn {
                    table: name.to_string(),
                    column: format!("unknown type '{other}' for column '{col}'"),
                })
            }
        };
        columns.push((col.trim().to_string(), ty));
    }
    let refs: Vec<(&str, ColType)> = columns.iter().map(|(c, t)| (c.as_str(), *t)).collect();
    let schema = Schema::new(name, &refs)?;
    let mut table = Table::new(schema);

    for line in lines {
        let cells = split_row(line);
        let mut row: Vec<Datum> = Vec::with_capacity(columns.len());
        for (i, (_, ty)) in columns.iter().enumerate() {
            let raw = cells.get(i).map(|s| s.as_str()).unwrap_or("");
            if raw.is_empty() {
                row.push(Datum::Null);
                continue;
            }
            let datum = match ty {
                ColType::Str => Datum::str(raw),
                ColType::Int => raw
                    .parse::<i64>()
                    .map(Datum::Int)
                    .map_err(|_| bad_cell(name, raw, "integer"))?,
                // `inf` and `NaN` parse as f64 but print as no OEM reader
                // accepts, so a real cell must be finite.
                ColType::Real => raw
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite())
                    .map(Datum::real)
                    .ok_or_else(|| bad_cell(name, raw, "real"))?,
                ColType::Bool => match raw {
                    "true" | "1" => Datum::Bool(true),
                    "false" | "0" => Datum::Bool(false),
                    _ => return Err(bad_cell(name, raw, "boolean")),
                },
            };
            row.push(datum);
        }
        table.insert(row)?;
    }
    Ok(table)
}

fn bad_cell(table: &str, raw: &str, expected: &str) -> DbError {
    DbError::NoSuchColumn {
        table: table.to_string(),
        column: format!("cell '{raw}' is not a valid {expected}"),
    }
}

/// Split one CSV row on commas, honoring double quotes.
fn split_row(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut cur).trim().to_string());
            }
            c => cur.push(c),
        }
    }
    out.push(cur.trim().to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_typed_rows() {
        let t = load_csv(
            "student",
            "first_name:string,last_name:string,year:integer\n\
             Nick,Naive,3\n\
             Ann,Able,1\n",
        )
        .unwrap();
        assert_eq!(t.schema().name(), "student");
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0)[2], Datum::Int(3));
    }

    #[test]
    fn empty_cells_are_null() {
        let t = load_csv("p", "name:string,email:string\nA,\nB,b@x\n").unwrap();
        assert!(t.row(0)[1].is_null());
        assert_eq!(t.row(1)[1], Datum::str("b@x"));
    }

    #[test]
    fn quoted_cells_with_commas_and_quotes() {
        let t = load_csv(
            "p",
            "name:string,quote:string\n\"Chung, Joe\",\"he said \"\"hi\"\"\"\n",
        )
        .unwrap();
        assert_eq!(t.row(0)[0], Datum::str("Chung, Joe"));
        assert_eq!(t.row(0)[1], Datum::str("he said \"hi\""));
    }

    #[test]
    fn all_types_parse() {
        let t = load_csv("x", "s:string,i:int,r:real,b:bool\ntxt,7,2.5,true\n").unwrap();
        assert_eq!(t.row(0)[1], Datum::Int(7));
        assert_eq!(t.row(0)[2], Datum::real(2.5));
        assert_eq!(t.row(0)[3], Datum::Bool(true));
    }

    #[test]
    fn errors_are_informative() {
        assert!(load_csv("x", "").is_err());
        assert!(load_csv("x", "name\nA\n").is_err()); // no :type
        assert!(load_csv("x", "n:int\nnotanint\n").is_err());
        assert!(load_csv("x", "b:bool\nmaybe\n").is_err());
        assert!(load_csv("x", "n:frobnicate\n1\n").is_err());
    }

    #[test]
    fn non_finite_reals_are_refused() {
        for raw in ["inf", "-inf", "NaN", "infinity", "1e999"] {
            let err = load_csv("x", &format!("r:real\n{raw}\n")).unwrap_err();
            assert!(
                err.to_string().contains("is not a valid real"),
                "{raw}: {err}"
            );
        }
        let t = load_csv("x", "r:real\n-0.0\n1e300\n").unwrap();
        assert_eq!(t.row(0)[0], Datum::real(-0.0));
        assert_eq!(t.row(1)[0], Datum::real(1e300));
    }

    #[test]
    fn blank_lines_skipped() {
        let t = load_csv("x", "\nn:int\n\n1\n\n2\n").unwrap();
        assert_eq!(t.len(), 2);
    }
}
