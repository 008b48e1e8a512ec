//! Binding tables — the tuples that "flow" along the arcs of a physical
//! datamerge graph (§3.4, Figure 3.6).
//!
//! "Typically, the tuples of the tables carry bindings for the logical
//! datamerge program variables." A table has named columns (the variables)
//! and rows of [`BoundValue`]s referencing the mediator's memory.

use engine::bindings::{Bindings, BoundValue};
use oem::{ObjectStore, Symbol};
use std::fmt::Write;

/// A table of variable bindings.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BindingTable {
    /// Column names (one per variable).
    pub cols: Vec<Symbol>,
    /// Rows of bound values, parallel to `cols`.
    pub rows: Vec<Vec<BoundValue>>,
}

impl BindingTable {
    /// An empty table with the given columns.
    pub fn new(cols: Vec<Symbol>) -> BindingTable {
        BindingTable {
            cols,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Convert a row to a [`Bindings`] environment: one map, each column
    /// extending it in place.
    pub fn row_bindings(&self, i: usize) -> Bindings {
        let mut b = Bindings::new();
        for (c, v) in self.cols.iter().zip(&self.rows[i]) {
            let consistent = b.bind_mut(*c, v.clone());
            assert!(consistent, "table rows are internally consistent");
        }
        b
    }
}

/// Render a table's header in the style of Figure 3.6's tables: one line
/// of variable names.
pub fn render_header(cols: &[Symbol]) -> String {
    let header: Vec<String> = cols.iter().map(|c| c.as_str()).collect();
    format!("| {} |\n", header.join(" | "))
}

/// Render rows (no header), one line per tuple. Object values render as
/// their oid in `store`; sets render their members. The executor appends
/// each emitted batch to a node's table render as it flows past.
pub fn render_rows(rows: &[Vec<BoundValue>], store: &ObjectStore) -> String {
    let mut out = String::new();
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| render_value(v, store)).collect();
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    }
    out
}

/// Rough resident size of one row in bytes: atoms count their inline
/// `Value` footprint, object references a machine word, object sets their
/// id vector. Deliberately cheap — used for the `peak_bytes_resident`
/// metric, not for allocation decisions.
pub fn approx_row_bytes(row: &[BoundValue]) -> u64 {
    row.iter()
        .map(|v| match v {
            BoundValue::Atom(_) => 24,
            BoundValue::Obj(_) => 8,
            BoundValue::ObjSet(ids) => 24 + 8 * ids.len() as u64,
        })
        .sum()
}

/// Rough resident size of a batch of rows, in bytes.
pub fn approx_batch_bytes(rows: &[Vec<BoundValue>]) -> u64 {
    rows.iter().map(|r| approx_row_bytes(r)).sum()
}

fn render_value(v: &BoundValue, store: &ObjectStore) -> String {
    match v {
        BoundValue::Atom(a) => a.render_atomic(),
        BoundValue::Obj(id) => match store.try_get(*id) {
            Some(_) => format!("x{}", store.oid_display(*id)),
            None => format!("{id}"),
        },
        BoundValue::ObjSet(ids) => {
            let parts: Vec<String> = ids
                .iter()
                .map(|id| match store.try_get(*id) {
                    Some(_) => {
                        let c = oem::printer::compact(store, *id);
                        if c.chars().count() > 60 {
                            let short: String = c.chars().take(60).collect();
                            format!("{short}…")
                        } else {
                            c
                        }
                    }
                    None => format!("{id}"),
                })
                .collect();
            format!("{{{}}}", parts.join(" "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::{sym, Value};

    fn atom(v: i64) -> BoundValue {
        BoundValue::Atom(Value::Int(v))
    }

    #[test]
    fn row_bindings_bind_every_column() {
        let mut t = BindingTable::new(vec![sym("A"), sym("B")]);
        t.rows.push(vec![atom(1), atom(2)]);
        assert_eq!(t.len(), 1);
        let back = t.row_bindings(0);
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(sym("A")), Some(&atom(1)));
        assert_eq!(back.get(sym("B")), Some(&atom(2)));
    }

    #[test]
    fn render_shows_values() {
        let store = ObjectStore::new();
        let rows = vec![vec![BoundValue::Atom(Value::str("Joe Chung"))]];
        let s = render_header(&[sym("N")]) + &render_rows(&rows, &store);
        assert!(s.contains("| N |"));
        assert!(s.contains("'Joe Chung'"));
    }
}
