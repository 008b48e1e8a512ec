//! Selection and projection with index-aware access paths.

use crate::error::{DbError, Result};
use crate::pred::{CmpOp, InCondition, Predicate};
use crate::table::Table;
use crate::types::{ColType, Datum};

/// Evaluate `SELECT * FROM table WHERE pred`, returning row ids.
///
/// Access path: if some equality condition has a hash index, probe the
/// most selective such index and post-filter. An indexed `IN` condition
/// is batch-probed — one lookup per listed value, candidate lists
/// unioned — and competes with the equality probes on candidate count.
/// Otherwise scan.
pub fn select(table: &Table, pred: &Predicate) -> Result<Vec<usize>> {
    // Resolve column names up front (and error on unknown columns).
    let mut resolved: Vec<(usize, CmpOp, &Datum)> = Vec::with_capacity(pred.conditions.len());
    for c in &pred.conditions {
        resolved.push((resolve_column(table, &c.column)?, c.op, &c.value));
    }
    let mut resolved_in: Vec<(usize, &InCondition)> = Vec::with_capacity(pred.in_conditions.len());
    for c in &pred.in_conditions {
        resolved_in.push((resolve_column(table, &c.column)?, c));
    }
    // `col IN ()` matches nothing; short-circuit after column validation.
    if resolved_in.iter().any(|(_, c)| c.values().is_empty()) {
        return Ok(Vec::new());
    }

    // Choose the best indexed equality condition (fewest candidate rows).
    let mut best: Option<(usize, &[usize])> = None;
    for (i, (col, op, value)) in resolved.iter().enumerate() {
        if *op == CmpOp::Eq {
            if let Some(rids) = index_probe(table, *col, value) {
                if best.is_none_or(|(_, b)| rids.len() < b.len()) {
                    best = Some((i, rids));
                }
            }
        }
    }
    // Batch-probe indexed IN conditions: the union of the per-value
    // candidate lists, deduplicated, in ascending rid order.
    let mut best_in: Option<Vec<usize>> = None;
    for (col, c) in &resolved_in {
        let mut union: Vec<usize> = Vec::new();
        let mut probed = true;
        for value in c.values() {
            match index_probe(table, *col, value) {
                Some(rids) => union.extend_from_slice(rids),
                None => {
                    probed = false;
                    break;
                }
            }
        }
        if probed {
            union.sort_unstable();
            union.dedup();
            if best_in.as_ref().is_none_or(|b| union.len() < b.len()) {
                best_in = Some(union);
            }
        }
    }

    let matches_row = |rid: usize| -> bool {
        let row = table.row(rid);
        resolved
            .iter()
            .all(|(col, op, value)| op.eval(row[*col].compare(value)))
            && resolved_in.iter().all(|(col, c)| c.matches(&row[*col]))
    };

    // Pick the narrower candidate set; post-filter re-checks everything.
    let candidates: Option<Vec<usize>> = match (best, best_in) {
        (Some((_, eq)), Some(inn)) if inn.len() < eq.len() => Some(inn),
        (Some((_, eq)), _) => Some(eq.to_vec()),
        (None, inn) => inn,
    };
    let out = match candidates {
        Some(candidates) => candidates.into_iter().filter(|&r| matches_row(r)).collect(),
        None => table
            .iter()
            .map(|(rid, _)| rid)
            .filter(|&r| matches_row(r))
            .collect(),
    };
    Ok(out)
}

/// The rows the index on `col` lists for `value`, compared as the scan
/// compares. [`Datum::compare`] promotes between int and real while the
/// index is keyed by representation, so a number probing a column of the
/// other numeric type is converted to the column's type first. `None`
/// leaves the condition to the scan: without an index, and for a real
/// that is no int the index could hold exactly (a fraction, or a
/// magnitude of 2^53 and up, where several ints equal one real).
fn index_probe<'t>(table: &'t Table, col: usize, value: &Datum) -> Option<&'t [usize]> {
    let key = match (table.schema().column_type(col), value) {
        (Some(ColType::Real), Datum::Int(i)) => Datum::real(*i as f64),
        (Some(ColType::Int), Datum::RealBits(bits)) => {
            let x = f64::from_bits(*bits);
            if x.fract() != 0.0 || x.abs() >= 2f64.powi(53) {
                return None;
            }
            Datum::Int(x as i64)
        }
        _ => return table.index_lookup(col, value),
    };
    table.index_lookup(col, &key)
}

fn resolve_column(table: &Table, column: &str) -> Result<usize> {
    table
        .schema()
        .column_index(column)
        .ok_or_else(|| DbError::NoSuchColumn {
            table: table.schema().name().to_string(),
            column: column.to_string(),
        })
}

/// Evaluate `SELECT cols FROM table WHERE pred`. `columns = None` selects
/// every column in schema order.
pub fn select_project(
    table: &Table,
    pred: &Predicate,
    columns: Option<&[&str]>,
) -> Result<Vec<Vec<Datum>>> {
    let rids = select(table, pred)?;
    let cols: Vec<usize> =
        match columns {
            None => (0..table.schema().arity()).collect(),
            Some(names) => {
                let mut out = Vec::with_capacity(names.len());
                for n in names {
                    out.push(table.schema().column_index(n).ok_or_else(|| {
                        DbError::NoSuchColumn {
                            table: table.schema().name().to_string(),
                            column: n.to_string(),
                        }
                    })?);
                }
                out
            }
        };
    Ok(rids
        .into_iter()
        .map(|rid| {
            let row = table.row(rid);
            cols.iter().map(|&c| row[c].clone()).collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::Condition;
    use crate::schema::Schema;
    use crate::types::ColType;

    fn employees() -> Table {
        let schema = Schema::new(
            "employee",
            &[
                ("first_name", ColType::Str),
                ("last_name", ColType::Str),
                ("title", ColType::Str),
                ("reports_to", ColType::Str),
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.insert_all([
            vec![
                "Joe".into(),
                "Chung".into(),
                "professor".into(),
                "John Hennessy".into(),
            ],
            vec![
                "Ann".into(),
                "Able".into(),
                "lecturer".into(),
                "Joe Chung".into(),
            ],
            vec![
                "Bob".into(),
                "Busy".into(),
                "professor".into(),
                "John Hennessy".into(),
            ],
        ])
        .unwrap();
        t
    }

    #[test]
    fn full_scan_select() {
        let t = employees();
        let rids = select(
            &t,
            &Predicate::of(vec![Condition::eq("title", "professor")]),
        )
        .unwrap();
        assert_eq!(rids, vec![0, 2]);
    }

    #[test]
    fn empty_predicate_selects_all() {
        let t = employees();
        assert_eq!(select(&t, &Predicate::all()).unwrap().len(), 3);
    }

    #[test]
    fn indexed_select_same_answer_as_scan() {
        let mut t = employees();
        let pred = Predicate::of(vec![
            Condition::eq("title", "professor"),
            Condition::eq("last_name", "Chung"),
        ]);
        let scan = select(&t, &pred).unwrap();
        t.create_index("last_name").unwrap();
        t.create_index("title").unwrap();
        let indexed = select(&t, &pred).unwrap();
        assert_eq!(scan, indexed);
        assert_eq!(indexed, vec![0]);
    }

    #[test]
    fn indexed_numeric_probes_compare_as_the_scan_does() {
        // 3 is 3.0 to `Datum::compare`, whichever side is the column.
        let schema = Schema::new("m", &[("i", ColType::Int), ("r", ColType::Real)]).unwrap();
        let mut t = Table::new(schema);
        t.insert_all([
            vec![3.into(), 3.0.into()],
            vec![4.into(), 3.5.into()],
            vec![3.into(), 4.0.into()],
        ])
        .unwrap();
        let preds = [
            Predicate::of(vec![Condition::eq("r", 3)]),
            Predicate::all().and_in(InCondition::of("r", [3, 4, 5])),
            Predicate::of(vec![Condition::eq("i", 3.0)]),
            Predicate::all().and_in(InCondition::of("i", [3.0, 9.0])),
            // No int is 3.5: nothing matches, by either path.
            Predicate::of(vec![Condition::eq("i", 3.5)]),
            Predicate::all().and_in(InCondition::of("i", [3.5, 4.0])),
        ];
        let expected = [vec![0], vec![0, 2], vec![0, 2], vec![0, 2], vec![], vec![1]];
        let scans: Vec<_> = preds.iter().map(|p| select(&t, p).unwrap()).collect();
        assert_eq!(scans, expected);
        t.create_index("i").unwrap();
        t.create_index("r").unwrap();
        let indexed: Vec<_> = preds.iter().map(|p| select(&t, p).unwrap()).collect();
        assert_eq!(indexed, scans);
    }

    #[test]
    fn projection() {
        let t = employees();
        let rows = select_project(
            &t,
            &Predicate::of(vec![Condition::eq("last_name", "Chung")]),
            Some(&["first_name", "title"]),
        )
        .unwrap();
        assert_eq!(rows, vec![vec![Datum::str("Joe"), Datum::str("professor")]]);
    }

    #[test]
    fn project_all_columns() {
        let t = employees();
        let rows = select_project(&t, &Predicate::all(), None).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn unknown_column_errors() {
        let t = employees();
        assert!(select(&t, &Predicate::of(vec![Condition::eq("nope", 1)])).is_err());
        assert!(select_project(&t, &Predicate::all(), Some(&["nope"])).is_err());
    }

    #[test]
    fn range_predicates() {
        let schema = Schema::new("s", &[("name", ColType::Str), ("year", ColType::Int)]).unwrap();
        let mut t = Table::new(schema);
        t.insert_all([
            vec!["a".into(), 1.into()],
            vec!["b".into(), 3.into()],
            vec!["c".into(), 5.into()],
        ])
        .unwrap();
        let rids = select(
            &t,
            &Predicate::of(vec![Condition::cmp("year", CmpOp::Ge, 3)]),
        )
        .unwrap();
        assert_eq!(rids, vec![1, 2]);
    }

    #[test]
    fn type_mismatch_condition_is_false_not_error() {
        let t = employees();
        let rids = select(&t, &Predicate::of(vec![Condition::eq("title", 3)])).unwrap();
        assert!(rids.is_empty());
    }

    #[test]
    fn in_predicate_scan() {
        let t = employees();
        let pred = Predicate::all().and_in(InCondition::of("last_name", ["Chung", "Busy"]));
        assert_eq!(select(&t, &pred).unwrap(), vec![0, 2]);
    }

    #[test]
    fn in_predicate_batch_probes_the_index() {
        let mut t = employees();
        let pred = Predicate::all().and_in(InCondition::of("last_name", ["Busy", "Chung", "Nope"]));
        let scan = select(&t, &pred).unwrap();
        t.create_index("last_name").unwrap();
        let indexed = select(&t, &pred).unwrap();
        // Same rows, ascending rid order, despite the probe order.
        assert_eq!(scan, indexed);
        assert_eq!(indexed, vec![0, 2]);
    }

    #[test]
    fn in_predicate_combines_with_equality_conditions() {
        let mut t = employees();
        t.create_index("title").unwrap();
        t.create_index("last_name").unwrap();
        let pred = Predicate::of(vec![Condition::eq("title", "professor")])
            .and_in(InCondition::of("last_name", ["Able", "Busy"]));
        // The IN probe (1 candidate) is narrower than the title probe (2).
        assert_eq!(select(&t, &pred).unwrap(), vec![2]);
    }

    #[test]
    fn in_predicate_dedups_repeated_values() {
        let mut t = employees();
        t.create_index("title").unwrap();
        let pred = Predicate::all().and_in(InCondition::of("title", ["professor", "professor"]));
        assert_eq!(select(&t, &pred).unwrap(), vec![0, 2]);
    }

    #[test]
    fn large_in_list_over_an_unindexed_column_is_one_lookup_per_row() {
        // 10,000 rows against 10,000 listed values, half of them in the
        // table: walking the list for every row is 7.5 x 10^7 comparisons
        // (half a second of this suite, unoptimized); a lookup per row is
        // 10^4.
        const N: i64 = 10_000;
        let schema = Schema::new("t", &[("id", ColType::Int)]).unwrap();
        let mut t = Table::new(schema);
        t.insert_all((0..N).map(|i| vec![i.into()])).unwrap();
        let pred = Predicate::all().and_in(InCondition::of("id", (0..N).map(|i| i * 2)));
        let rids = select(&t, &pred).unwrap();
        assert_eq!(rids.len(), (N / 2) as usize);
        assert!(rids.iter().all(|r| r % 2 == 0));
    }

    #[test]
    fn empty_in_list_matches_nothing() {
        let t = employees();
        let pred = Predicate::all().and_in(InCondition::of("title", Vec::<&str>::new()));
        assert!(select(&t, &pred).unwrap().is_empty());
        // ...but an unknown column still errors, even with an empty list.
        let bad = Predicate::all().and_in(InCondition::of("nope", Vec::<&str>::new()));
        assert!(select(&t, &bad).is_err());
    }
}
