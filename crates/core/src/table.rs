//! Binding tables — the tuples that "flow" along the arcs of a physical
//! datamerge graph (§3.4, Figure 3.6).
//!
//! "Typically, the tuples of the tables carry bindings for the logical
//! datamerge program variables." A table has named columns (the variables)
//! and rows of [`BoundValue`]s referencing the mediator's memory.

use engine::bindings::{Bindings, BoundValue};
use oem::store::FxHasher;
use oem::{ObjectStore, Symbol};
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::Write;
use std::hash::BuildHasherDefault;

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

/// Rough resident size of a batch of rows in bytes: a cell holding an atom
/// or an object set counts 24, an object reference a machine word, and
/// every object set its ids once, however many rows share it (rows share
/// one `Arc<[ObjId]>` where they were crossed or joined with one row).
/// Deliberately cheap — used for the `peak_bytes_resident` metric, not for
/// allocation decisions.
pub fn approx_batch_bytes(rows: &[Vec<BoundValue>]) -> u64 {
    thread_local! {
        /// The addresses of the sets the batch has counted, kept between
        /// calls so that measuring allocates nothing.
        static COUNTED: RefCell<HashSet<usize, BuildHasherDefault<FxHasher>>> =
            RefCell::default();
    }
    COUNTED.with_borrow_mut(|counted| {
        counted.clear();
        (rows.iter().flatten())
            .map(|v| match v {
                BoundValue::Atom(_) => 24,
                BoundValue::Obj(_) => 8,
                BoundValue::ObjSet(ids) => {
                    // One address is one allocation (`Arc::ptr_eq`).
                    let first = counted.insert(ids.as_ptr() as usize);
                    24 + if first { 8 * ids.len() as u64 } else { 0 }
                }
            })
            .sum()
    })
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
    fn a_set_rows_share_counts_its_ids_once() {
        let set =
            |n: u32| -> std::sync::Arc<[oem::ObjId]> { (0..n).map(oem::ObjId::from_raw).collect() };
        // Two rows of their own sets: 24 + 8·n each, as before sharing.
        let own = [
            vec![BoundValue::ObjSet(set(3))],
            vec![BoundValue::ObjSet(set(3))],
        ];
        assert_eq!(approx_batch_bytes(&own), 2 * (24 + 24));
        // Three rows sharing a set of 3 (the last holds it twice), one of
        // them also a set of 2: six cells of 24, and each set's ids once.
        let (a, b) = (set(3), set(2));
        let rows = [
            vec![BoundValue::ObjSet(a.clone()), atom(1)],
            vec![BoundValue::ObjSet(a.clone()), BoundValue::ObjSet(b.clone())],
            vec![BoundValue::ObjSet(a.clone()), BoundValue::ObjSet(a.clone())],
        ];
        assert_eq!(approx_batch_bytes(&rows), 6 * 24 + 8 * 3 + 8 * 2);
        // What one batch shared is forgotten by the next.
        assert_eq!(approx_batch_bytes(&rows[..1]), 2 * 24 + 8 * 3);
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
