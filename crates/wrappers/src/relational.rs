//! The relational source wrapper.
//!
//! "A wrapper, named cs, exports this information as a set of OEM objects
//! ... Notice how the schema information has now been incorporated into the
//! individual OEM objects" (§2, Figure 2.2): every row of relation `R`
//! becomes a top-level OEM object labeled `R` whose subobjects are the
//! row's non-null columns.
//!
//! Query evaluation pushes equality conditions down to the relational
//! engine ("push selections down", §3.3): constant-valued subpatterns with
//! constant labels translate to [`minidb`] predicates, and only the
//! surviving rows are materialized as OEM objects before generic MSL
//! matching finishes the job (label variables, shared variables, rest
//! variables).
//!
//! A variable restricted to a value set (`one_of`, the batched form of a
//! parameterized query — see [`crate::api::ValueSets`]) pushes down the
//! same way: `<last_name LN>` with `LN` one of twenty names becomes one
//! `last_name IN (…)` that batch-probes the column's index, and a restricted
//! label variable narrows the candidate relations.
//!
//! A label *variable* in the top-level pattern position ranges over the
//! relations of the catalog — that is how the paper's `<R {...}>@cs`
//! pattern binds `R` to `employee`/`student`, turning schema into data
//! (schematic discrepancy, §2).

use crate::api::{own_patterns, ExtractVar, Rows, SourceStats, ValueSets, Wrapper, WrapperError};
use crate::capabilities::Capabilities;
use crate::eval::HeadRows;
use crate::metrics::{WrapperCounters, WrapperMetrics};
use minidb::{Catalog, Condition, Datum, InCondition, Predicate, Table, TableStats};
use msl::{PatValue, Pattern, Rule, SetElem, Term};
use oem::{ObjectStore, Symbol, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A relational database behind an OEM wrapper.
pub struct RelationalWrapper {
    name: Symbol,
    catalog: Catalog,
    caps: Capabilities,
    counters: WrapperCounters,
}

impl RelationalWrapper {
    /// Wrap `catalog` under source name `name`. Relational sources have a
    /// regular structure, so label variables are supported (they enumerate
    /// relations/columns) but wildcards are not — the engine's query
    /// surface has no recursive search.
    pub fn new(name: &str, catalog: Catalog) -> RelationalWrapper {
        let mut caps = Capabilities::full();
        caps.wildcards = false;
        // The engine probes hash indexes (or small tables) per call.
        caps.parameterized_cheap = true;
        RelationalWrapper {
            name: Symbol::intern(name),
            catalog,
            caps,
            counters: WrapperCounters::new(),
        }
    }

    /// Replace the capability profile (for capability-restriction studies).
    pub fn with_capabilities(mut self, caps: Capabilities) -> RelationalWrapper {
        self.caps = caps;
        self
    }

    /// This source taking one value per parameter
    /// ([`Capabilities::without_parameterized_sets`]): §3.4's node then
    /// sends it one query per binding tuple.
    pub fn without_parameterized_sets(mut self) -> RelationalWrapper {
        self.caps.parameterized_sets = false;
        self
    }

    /// The wrapped catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (schema-evolution demos).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Candidate tables for a top-level pattern: the named one, or all
    /// that a label variable may take.
    fn candidate_tables(&self, pattern: &Pattern, sets: &ValueSets) -> Vec<&Table> {
        match &pattern.label {
            Term::Const(v) => (v.as_str_sym())
                .and_then(|s| self.catalog.table(&s.as_str()).ok())
                .into_iter()
                .collect(),
            Term::Var(v) => self
                .catalog
                .tables()
                .filter(|t| sets.allows(*v, &Value::str(t.schema().name())))
                .collect(),
            Term::Param(_) | Term::Func(..) => Vec::new(),
        }
    }

    /// Conditions pushable to the engine: subpatterns with a constant
    /// label (a column name) and either a constant value (equality) or a
    /// variable restricted to a value set (`IN`). Returns `None` if some
    /// pushable condition references a column the table lacks — the
    /// pattern can never match a row of that table.
    fn pushdown(table: &Table, pattern: &Pattern, sets: &ValueSets) -> Option<Predicate> {
        let schema = table.schema();
        // A required column that is absent means no row matches.
        let column = |label: &Value| -> Option<String> {
            let name = label.as_str_sym()?.as_str();
            schema.column_index(&name)?;
            Some(name)
        };
        let mut pred = Predicate::all();
        if let PatValue::Set(sp) = &pattern.value {
            for e in &sp.elements {
                let SetElem::Pattern(sub) = e else { continue };
                let (Term::Const(label), PatValue::Term(value)) = (&sub.label, &sub.value) else {
                    continue;
                };
                match value {
                    Term::Const(value) => {
                        pred = pred.and(Condition::eq(&column(label)?, value_to_datum(value)?));
                    }
                    Term::Var(v) => {
                        if let Some(listed) = sets.values(*v) {
                            let listed = listed.filter_map(value_to_datum);
                            pred = pred.and_in(InCondition::of(&column(label)?, listed));
                        }
                    }
                    Term::Param(_) | Term::Func(..) => {}
                }
            }
        }
        Some(pred)
    }

    /// Materialize row `rid` of `t` as a top-level OEM object labelled
    /// `table` whose subobjects take the labels `cols` (the table's name
    /// and column names, interned once per query). Memoized per query so a
    /// row referenced by several tail patterns is built once.
    fn materialize_row(
        t: &Table,
        table: Symbol,
        cols: &[Symbol],
        rid: usize,
        store: &mut ObjectStore,
        memo: &mut HashMap<(Symbol, usize), oem::ObjId>,
    ) -> oem::ObjId {
        if let Some(&done) = memo.get(&(table, rid)) {
            return done;
        }
        let row = t.row(rid);
        let mut kids = Vec::with_capacity(row.len());
        for (d, &col) in row.iter().zip(cols) {
            if d.is_null() {
                continue; // NULL ⇒ absent subobject (OEM irregularity)
            }
            kids.push(store.insert_auto(col, datum_to_value(d)));
        }
        let top = store.insert_auto(table, Value::Set(kids));
        store.add_top(top);
        memo.insert((table, rid), top);
        top
    }
}

/// OEM value → relational datum (for pushdown). Sets cannot be compared.
pub fn value_to_datum(v: &Value) -> Option<Datum> {
    Some(match v {
        Value::Str(s) => Datum::Str(s.as_str()),
        Value::Int(i) => Datum::Int(*i),
        Value::RealBits(b) => Datum::RealBits(*b),
        Value::Bool(b) => Datum::Bool(*b),
        Value::Set(_) => return None,
    })
}

/// Relational datum → OEM value. `Null` has no OEM equivalent (callers skip
/// null columns).
pub fn datum_to_value(d: &Datum) -> Value {
    match d {
        Datum::Str(s) => Value::str(s),
        Datum::Int(i) => Value::Int(*i),
        Datum::RealBits(b) => Value::RealBits(*b),
        Datum::Bool(b) => Value::Bool(*b),
        Datum::Null => unreachable!("null columns are skipped"),
    }
}

impl Wrapper for RelationalWrapper {
    fn name(&self) -> Symbol {
        self.name
    }

    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn stats(&self) -> Option<SourceStats> {
        // Relational engines know their statistics (§3.5's easy branch).
        let mut label_counts: BTreeMap<Symbol, usize> = BTreeMap::new();
        let mut eq_selectivity: BTreeMap<Symbol, f64> = BTreeMap::new();
        let mut total = 0usize;
        for t in self.catalog.tables() {
            let stats = TableStats::compute(t);
            total += stats.row_count;
            label_counts.insert(Symbol::intern(t.schema().name()), stats.row_count);
            for (i, col) in t.schema().column_names().enumerate() {
                let sel = if stats.distinct[i] > 0 {
                    1.0 / stats.distinct[i] as f64
                } else {
                    1.0
                };
                // If two tables share a column name keep the larger
                // (more conservative) selectivity.
                eq_selectivity
                    .entry(Symbol::intern(col))
                    .and_modify(|s| *s = s.max(sel))
                    .or_insert(sel);
            }
        }
        Some(SourceStats {
            top_level_count: total,
            label_counts,
            eq_selectivity,
        })
    }

    fn metrics(&self) -> Option<WrapperMetrics> {
        Some(self.counters.snapshot())
    }

    fn schema_summary(&self) -> Option<crate::summary::SchemaSummary> {
        Some(crate::summary::SchemaSummary::from_catalog(&self.catalog))
    }

    fn query(&self, q: &Rule) -> Result<ObjectStore, WrapperError> {
        let (view, rows) = self.evaluate(q)?;
        let out = rows.construct(self.name, &q.head, &view)?;
        self.counters.objects_exported(out.top_level().len());
        Ok(out)
    }

    fn query_rows(&self, q: &Rule, vars: &[ExtractVar]) -> Result<Rows, WrapperError> {
        let (view, rows) = self.evaluate(q)?;
        let rows = rows.extract(Arc::new(view), vars)?;
        self.counters.objects_exported(rows.rows.len());
        Ok(rows)
    }
}

impl RelationalWrapper {
    /// The one evaluator behind both answers: materialize, per tail
    /// pattern, only the rows surviving pushdown, then finish with generic
    /// MSL matching over that view — the store the rows point into.
    fn evaluate(&self, q: &Rule) -> Result<(ObjectStore, HeadRows), WrapperError> {
        self.counters.query_received();
        if let Err(e) = self.caps.check_query(q) {
            self.counters.capability_rejected();
            return Err(WrapperError::Unsupported(e));
        }
        let (patterns, sets) = own_patterns(self.name, &self.caps, q)?;
        let mut view = ObjectStore::with_oid_prefix(&format!("{}_t", self.name));
        let mut memo: HashMap<(Symbol, usize), oem::ObjId> = HashMap::new();
        for pattern in &patterns {
            for t in self.candidate_tables(pattern, &sets) {
                let Some(pred) = Self::pushdown(t, pattern, &sets) else {
                    continue;
                };
                let rids =
                    minidb::select(t, &pred).map_err(|e| WrapperError::BadQuery(e.to_string()))?;
                let label = Symbol::intern(t.schema().name());
                let cols: Vec<Symbol> = t.schema().column_names().map(Symbol::intern).collect();
                for rid in rids {
                    Self::materialize_row(t, label, &cols, rid, &mut view, &mut memo);
                }
            }
        }
        let rows = HeadRows::eval(&view, None, &patterns, &sets, &q.head)?;
        Ok((view, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{ColType, Schema, Table};
    use msl::parse_query;
    use oem::printer::compact;
    use oem::sym;

    /// The paper's cs source: employee + student (§2, Figure 2.2).
    fn cs() -> RelationalWrapper {
        let mut catalog = Catalog::new();
        let mut employee = Table::new(
            Schema::new(
                "employee",
                &[
                    ("first_name", ColType::Str),
                    ("last_name", ColType::Str),
                    ("title", ColType::Str),
                    ("reports_to", ColType::Str),
                ],
            )
            .unwrap(),
        );
        employee
            .insert_all([vec![
                "Joe".into(),
                "Chung".into(),
                "professor".into(),
                "John Hennessy".into(),
            ]])
            .unwrap();
        let mut student = Table::new(
            Schema::new(
                "student",
                &[
                    ("first_name", ColType::Str),
                    ("last_name", ColType::Str),
                    ("year", ColType::Int),
                ],
            )
            .unwrap(),
        );
        student
            .insert_all([vec!["Nick".into(), "Naive".into(), 3.into()]])
            .unwrap();
        catalog.add_table(employee).unwrap();
        catalog.add_table(student).unwrap();
        RelationalWrapper::new("cs", catalog)
    }

    #[test]
    fn exports_rows_as_figure_2_2_objects() {
        let w = cs();
        let q = parse_query("X :- X:<employee {}>@cs").unwrap();
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        assert_eq!(
            compact(&res, res.top_level()[0]),
            "<employee {<first_name 'Joe'> <last_name 'Chung'> <title 'professor'> \
             <reports_to 'John Hennessy'>}>"
        );
    }

    #[test]
    fn label_variable_ranges_over_relations() {
        // The MS1 pattern <R {<first_name FN> <last_name LN> | Rest2}>@cs:
        // R binds to relation names — data in the mediator, schema here.
        let w = cs();
        let q = parse_query(
            "<row {<rel R> <fn FN> <ln LN>}> :- \
             <R {<first_name FN> <last_name LN> | Rest2}>@cs",
        )
        .unwrap();
        let res = w.query(&q).unwrap();
        let printed: Vec<String> = res.top_level().iter().map(|&t| compact(&res, t)).collect();
        assert_eq!(printed.len(), 2);
        assert!(printed.iter().any(|s| s.contains("<rel 'employee'>")
            && s.contains("<fn 'Joe'>")
            && s.contains("<ln 'Chung'>")));
        assert!(printed
            .iter()
            .any(|s| s.contains("<rel 'student'>") && s.contains("<fn 'Nick'>")));
    }

    #[test]
    fn qcs_parameter_style_query() {
        // Qc2 of §3.4: fixed relation + last/first name conditions.
        let w = cs();
        let q = parse_query(
            "<bind_for_Rest2 Rest2> :- \
             <employee {<last_name 'Chung'> <first_name 'Joe'> | Rest2}>@cs",
        )
        .unwrap();
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        let printed = compact(&res, res.top_level()[0]);
        assert!(printed.contains("<title 'professor'>"), "{printed}");
        assert!(
            printed.contains("<reports_to 'John Hennessy'>"),
            "{printed}"
        );
        assert!(!printed.contains("first_name"), "{printed}");
    }

    #[test]
    fn condition_on_missing_column_matches_nothing() {
        let w = cs();
        let q = parse_query("X :- X:<employee {<year 3>}>@cs").unwrap();
        assert!(w.query(&q).unwrap().top_level().is_empty());
    }

    #[test]
    fn pushdown_filters_rows() {
        let w = cs();
        // 'student' with year 3 exists; year 4 does not.
        let hit = parse_query("X :- X:<student {<year 3>}>@cs").unwrap();
        assert_eq!(w.query(&hit).unwrap().top_level().len(), 1);
        let miss = parse_query("X :- X:<student {<year 4>}>@cs").unwrap();
        assert!(w.query(&miss).unwrap().top_level().is_empty());
    }

    #[test]
    fn value_sets_push_down_and_narrow_the_relations() {
        use crate::api::one_of;
        let w = cs();
        let mut q =
            parse_query("<row {<rel R> <ln LN> <rest Rest2>}> :- <R {<last_name LN> | Rest2}>@cs")
                .unwrap();
        let names = ["Chung", "Naive", "Nobody"].map(Value::str);
        q.tail.push(one_of(sym("LN"), names));
        let both: Vec<String> = {
            let res = w.query(&q).unwrap();
            res.top_level().iter().map(|&t| compact(&res, t)).collect()
        };
        assert_eq!(both.len(), 2, "{both:?}");
        assert!(both[0].contains("<rel 'employee'>") && both[0].contains("<ln 'Chung'>"));
        assert!(both[1].contains("<rel 'student'>") && both[1].contains("<ln 'Naive'>"));
        // A restricted label variable leaves one candidate relation.
        q.tail.push(one_of(sym("R"), [Value::str("student")]));
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        assert_eq!(compact(&res, res.top_level()[0]), both[1]);
        // A source taking one value per parameter refuses the query.
        let strict = cs().without_parameterized_sets();
        assert!(matches!(
            strict.query(&q),
            Err(WrapperError::Unsupported(_))
        ));
        assert_eq!(strict.metrics().unwrap().capability_rejections, 1);
    }

    #[test]
    fn integer_value_set_meets_a_real_column() {
        let mut catalog = Catalog::new();
        let mut t = Table::new(
            Schema::new("grade", &[("who", ColType::Str), ("gpa", ColType::Real)]).unwrap(),
        );
        t.insert_all([
            vec!["A".into(), 3.0.into()],
            vec!["B".into(), 3.5.into()],
            vec!["C".into(), 4.0.into()],
        ])
        .unwrap();
        catalog.add_table(t).unwrap();
        let w = RelationalWrapper::new("src", catalog);
        let mut q = parse_query("<out {<who W> <g G>}> :- <grade {<who W> <gpa G>}>@src").unwrap();
        q.tail.push(crate::api::one_of(
            sym("G"),
            [Value::Int(3), Value::Int(4), Value::Int(5)],
        ));
        let res = w.query(&q).unwrap();
        let printed: Vec<String> = res.top_level().iter().map(|&t| compact(&res, t)).collect();
        // 3 is 3.0, as in `<gpa 3>`; the answer names the value asked for.
        assert_eq!(
            printed,
            ["<out {<who 'A'> <g 3>}>", "<out {<who 'C'> <g 4>}>"]
        );
    }

    #[test]
    fn nulls_become_absent_subobjects() {
        let mut catalog = Catalog::new();
        let mut t = Table::new(
            Schema::new("person", &[("name", ColType::Str), ("email", ColType::Str)]).unwrap(),
        );
        t.insert(vec!["A".into(), Datum::Null]).unwrap();
        t.insert(vec!["B".into(), "b@x".into()]).unwrap();
        catalog.add_table(t).unwrap();
        let w = RelationalWrapper::new("src", catalog);
        let q = parse_query("X :- X:<person {<email E>}>@src").unwrap();
        // Only B has an email subobject.
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        assert!(compact(&res, res.top_level()[0]).contains("'B'"));
    }

    #[test]
    fn stats_reported() {
        let w = cs();
        let s = w.stats().unwrap();
        assert_eq!(s.top_level_count, 2);
        assert_eq!(s.label_counts.get(&sym("employee")), Some(&1));
        assert_eq!(s.label_counts.get(&sym("student")), Some(&1));
        assert!(s.eq_selectivity.contains_key(&sym("last_name")));
    }

    #[test]
    fn wildcards_rejected() {
        let w = cs();
        let q = parse_query("X :- X:<employee {* <title T>}>@cs").unwrap();
        assert!(matches!(w.query(&q), Err(WrapperError::Unsupported(_))));
    }

    #[test]
    fn metrics_count_traffic() {
        let w = cs();
        let q = parse_query("X :- X:<employee {}>@cs").unwrap();
        w.query(&q).unwrap();
        let rejected = parse_query("X :- X:<employee {* <title T>}>@cs").unwrap();
        w.query(&rejected).unwrap_err();
        let m = w.metrics().unwrap();
        assert_eq!(m.queries_received, 2);
        assert_eq!(m.objects_exported, 1);
        assert_eq!(m.capability_rejections, 1);
    }

    #[test]
    fn schema_evolution_new_column_flows_through() {
        // Adding a 'birthday' column requires no wrapper/mediator change:
        // it simply appears as one more subobject.
        let mut catalog = Catalog::new();
        let mut t = Table::new(
            Schema::new(
                "employee",
                &[
                    ("first_name", ColType::Str),
                    ("last_name", ColType::Str),
                    ("birthday", ColType::Str),
                ],
            )
            .unwrap(),
        );
        t.insert(vec!["Joe".into(), "Chung".into(), "1970-01-01".into()])
            .unwrap();
        catalog.add_table(t).unwrap();
        let w = RelationalWrapper::new("cs", catalog);
        let q = parse_query("<out {Rest}> :- <employee {<first_name 'Joe'> | Rest}>@cs").unwrap();
        let res = w.query(&q).unwrap();
        let printed = compact(&res, res.top_level()[0]);
        assert!(printed.contains("<birthday '1970-01-01'>"), "{printed}");
    }
}
