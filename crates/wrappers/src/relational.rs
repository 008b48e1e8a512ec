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
//! constant labels translate to [`minidb`] predicates, and the rows that
//! survive are answered one of two ways.
//!
//! - A query with one tail pattern of the flat row shape,
//!   `<L {<c1 t1> … <cn tn> | Rest}>` — `L` a constant or a variable, each
//!   `ci` a constant column name, each `ti` a constant or a variable, and
//!   an optional `Rest` without conditions — binds straight from the
//!   tuples. A row whose named column is NULL or absent, or whose values
//!   disagree with a constant or a repeated variable, binds nothing; the
//!   rest holds the row's other non-null columns, and those are the only
//!   objects built. The mediator's queries to `cs` have this shape.
//! - Every other query (an object variable, a nested or label-variable
//!   subpattern, rest conditions, several tail patterns) materializes the
//!   surviving rows as OEM objects and finishes with generic MSL matching
//!   ([`crate::eval`]). What that gives is the answer the tuple path must
//!   give too, row for row.
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
use crate::eval::{head_vars, HeadRows};
use crate::metrics::{WrapperCounters, WrapperMetrics};
use engine::bindings::BoundValue;
use engine::matcher::atomic_eq;
use minidb::{Catalog, Condition, Datum, InCondition, Predicate, Table, TableStats};
use msl::{Head, PatValue, Pattern, Rule, SetElem, Term};
use oem::{ObjectStore, Symbol, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

/// A relational database behind an OEM wrapper.
pub struct RelationalWrapper {
    name: Symbol,
    catalog: Catalog,
    caps: Capabilities,
    counters: WrapperCounters,
    /// By table name, the cells of each table the tuple path has read;
    /// emptied by [`RelationalWrapper::catalog_mut`].
    cells: Mutex<HashMap<String, Arc<Cells>>>,
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
            cells: Mutex::default(),
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

    /// Mutable catalog access (schema-evolution demos). The next query
    /// sees every change made through it.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.cells
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        &mut self.catalog
    }

    /// The cells of `t`, made on the first query that reads it.
    fn cells(&self, t: &Table) -> Arc<Cells> {
        let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(done) = cells.get(t.schema().name()) {
            return Arc::clone(done);
        }
        let made = Arc::new(Cells::of(t));
        cells.insert(t.schema().name().to_string(), Arc::clone(&made));
        made
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

    /// Per candidate table of `pattern`, the rows that survive pushdown.
    fn selected(
        &self,
        pattern: &Pattern,
        sets: &ValueSets,
    ) -> Result<Vec<(&Table, Vec<usize>)>, WrapperError> {
        let mut out = Vec::new();
        for t in self.candidate_tables(pattern, sets) {
            let Some(pred) = Self::pushdown(t, pattern, sets) else {
                continue;
            };
            let rids =
                minidb::select(t, &pred).map_err(|e| WrapperError::BadQuery(e.to_string()))?;
            out.push((t, rids));
        }
        Ok(out)
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
            // NULL ⇒ absent subobject (OEM irregularity)
            if let Some(value) = datum_to_value(d) {
                kids.push(store.insert_auto(col, value));
            }
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

/// Relational datum → OEM value. `Null` has no OEM equivalent: a NULL
/// column is an absent subobject.
pub fn datum_to_value(d: &Datum) -> Option<Value> {
    Some(match d {
        Datum::Str(s) => Value::str(s),
        Datum::Int(i) => Value::Int(*i),
        Datum::RealBits(b) => Value::RealBits(*b),
        Datum::Bool(b) => Value::Bool(*b),
        Datum::Null => return None,
    })
}

/// One table's cells as OEM values, each string interned once: what the
/// tuple path binds from.
struct Cells {
    /// The table's name, the label of its rows.
    label: Symbol,
    /// Its column names, the labels of a row's subobjects.
    columns: Vec<Symbol>,
    /// Row by row, one per column; `None` for NULL.
    values: Vec<Option<Value>>,
}

impl Cells {
    fn of(t: &Table) -> Cells {
        Cells {
            label: Symbol::intern(t.schema().name()),
            columns: t.schema().column_names().map(Symbol::intern).collect(),
            values: t
                .iter()
                .flat_map(|(_, row)| row.iter().map(datum_to_value))
                .collect(),
        }
    }

    fn row(&self, rid: usize) -> &[Option<Value>] {
        let width = self.columns.len();
        &self.values[rid * width..][..width]
    }
}

/// Where the tuple path reads a term: a constant, or the `n`th variable
/// of [`FlatRow::vars`].
#[derive(Clone, Copy)]
enum Slot<'q> {
    Const(&'q Value),
    Var(usize),
}

/// A tail pattern of the flat row shape (see the module docs), compiled
/// for a query whose head it binds every variable of.
struct FlatRow<'q> {
    /// The variables of the label and the named columns, each once, in
    /// the order they are first bound.
    vars: Vec<Symbol>,
    label: Slot<'q>,
    /// Per subpattern, the column it names and what its value must be.
    named: Vec<(Symbol, Slot<'q>)>,
    /// Per head variable, its variable in `vars`, or `None` for the rest.
    head: Vec<Option<usize>>,
}

impl<'q> FlatRow<'q> {
    /// `pattern` compiled, if it has the flat row shape and binds every
    /// variable of `head`; `None` otherwise.
    fn compile(pattern: &'q Pattern, head: &[Symbol]) -> Option<FlatRow<'q>> {
        let PatValue::Set(sp) = &pattern.value else {
            return None;
        };
        if pattern.obj_var.is_some() || pattern.oid.is_some() || pattern.typ.is_some() {
            return None;
        }
        let mut vars = Vec::new();
        let mut slot = |t: &'q Term| match t {
            Term::Const(c) => Some(Slot::Const(c)),
            Term::Var(v) => Some(Slot::Var(match vars.iter().position(|w| w == v) {
                Some(i) => i,
                None => {
                    vars.push(*v);
                    vars.len() - 1
                }
            })),
            Term::Param(_) | Term::Func(..) => None,
        };
        let label = slot(&pattern.label)?;
        let mut named = Vec::with_capacity(sp.elements.len());
        for e in &sp.elements {
            let SetElem::Pattern(sub) = e else {
                return None;
            };
            let (Term::Const(column), PatValue::Term(value), None, None, None) =
                (&sub.label, &sub.value, sub.obj_var, &sub.oid, &sub.typ)
            else {
                return None;
            };
            named.push((column.as_str_sym()?, slot(value)?));
        }
        let rest = match &sp.rest {
            Some(r) if !r.conditions.is_empty() || vars.contains(&r.var) => return None,
            Some(r) => Some(r.var),
            None => None,
        };
        let head = (head.iter())
            .map(|h| match vars.iter().position(|v| v == h) {
                Some(i) => Some(Some(i)),
                None => (rest == Some(*h)).then_some(None),
            })
            .collect::<Option<_>>()?;
        Some(FlatRow {
            vars,
            label,
            named,
            head,
        })
    }

    /// Bind `value` at `slot`: a constant or a bound variable must equal
    /// it; an unbound variable is the next of `vals`.
    fn unify(slot: Slot<'_>, value: &Value, vals: &mut Vec<Value>) -> bool {
        match slot {
            Slot::Const(c) => atomic_eq(c, value),
            Slot::Var(i) if i < vals.len() => atomic_eq(&vals[i], value),
            Slot::Var(_) => {
                vals.push(value.clone());
                true
            }
        }
    }

    /// The head rows of the rows `rids` of `cells`, in order; `at` holds
    /// the column index of each named column. Rest members are built into
    /// `store`.
    fn rows(
        &self,
        cells: &Cells,
        at: &[usize],
        rids: &[usize],
        sets: &ValueSets,
        store: &mut ObjectStore,
        out: &mut Vec<Vec<BoundValue>>,
    ) {
        let wants_rest = self.head.contains(&None);
        let mut vals = Vec::with_capacity(self.vars.len());
        let mut rest = Vec::new();
        for &rid in rids {
            let row = cells.row(rid);
            vals.clear();
            let bound = Self::unify(self.label, &Value::Str(cells.label), &mut vals)
                && self.named.iter().zip(at).all(|(&(_, slot), &c)| {
                    row[c]
                        .as_ref()
                        .is_some_and(|v| Self::unify(slot, v, &mut vals))
                });
            if !bound || !sets.admit_atoms(&self.vars, &mut vals) {
                continue;
            }
            rest.clear();
            if wants_rest {
                for (c, v) in row.iter().enumerate() {
                    if let Some(v) = v.as_ref().filter(|_| !at.contains(&c)) {
                        rest.push(store.insert_auto(cells.columns[c], v.clone()));
                    }
                }
            }
            let head = self.head.iter().map(|h| match h {
                Some(i) => BoundValue::Atom(vals[*i].clone()),
                None => BoundValue::ObjSet(rest.as_slice().into()),
            });
            out.push(head.collect());
        }
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
    /// The one evaluator behind both answers: the head rows of `q`, over
    /// the store their object ids point into. A query of one flat row
    /// pattern binds from the tuples ([`RelationalWrapper::tuple_rows`]);
    /// any other is materialized and matched.
    fn evaluate(&self, q: &Rule) -> Result<(ObjectStore, HeadRows), WrapperError> {
        self.counters.query_received();
        if let Err(e) = self.caps.check_query(q) {
            self.counters.capability_rejected();
            return Err(WrapperError::Unsupported(e));
        }
        let (patterns, sets) = own_patterns(self.name, &self.caps, q)?;
        let vars = head_vars(&q.head);
        if let [pattern] = patterns[..] {
            if let Some(flat) = FlatRow::compile(pattern, &vars) {
                return self.tuple_rows(pattern, &flat, &sets, vars);
            }
        }
        self.materialized_rows(&patterns, &sets, &q.head)
    }

    /// The flat row pattern `flat` of `pattern`, bound row by row from the
    /// tuples that survive pushdown, in (table, row) order. Only the rest
    /// members are built, into the returned store.
    fn tuple_rows(
        &self,
        pattern: &Pattern,
        flat: &FlatRow<'_>,
        sets: &ValueSets,
        vars: Vec<Symbol>,
    ) -> Result<(ObjectStore, HeadRows), WrapperError> {
        let mut view = ObjectStore::with_oid_prefix(&format!("{}_t", self.name));
        let mut rows = Vec::new();
        for (t, rids) in self.selected(pattern, sets)? {
            let cells = self.cells(t);
            // A column the table lacks is never matched.
            let Some(at) = (flat.named.iter())
                .map(|(column, _)| cells.columns.iter().position(|c| c == column))
                .collect::<Option<Vec<usize>>>()
            else {
                continue;
            };
            flat.rows(&cells, &at, &rids, sets, &mut view, &mut rows);
        }
        Ok((view, HeadRows::new(vars, rows)))
    }

    /// Materialize, per tail pattern, only the rows surviving pushdown,
    /// then finish with generic MSL matching over that view — the store
    /// the rows point into.
    fn materialized_rows(
        &self,
        patterns: &[&Pattern],
        sets: &ValueSets,
        head: &Head,
    ) -> Result<(ObjectStore, HeadRows), WrapperError> {
        let mut view = ObjectStore::with_oid_prefix(&format!("{}_t", self.name));
        let mut memo: HashMap<(Symbol, usize), oem::ObjId> = HashMap::new();
        for pattern in patterns {
            for (t, rids) in self.selected(pattern, sets)? {
                let label = Symbol::intern(t.schema().name());
                let cols: Vec<Symbol> = t.schema().column_names().map(Symbol::intern).collect();
                for rid in rids {
                    Self::materialize_row(t, label, &cols, rid, &mut view, &mut memo);
                }
            }
        }
        let rows = HeadRows::eval(&view, None, patterns, sets, head)?;
        Ok((view, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{ColType, Schema, Table};
    use msl::{parse_query, TailItem};
    use oem::printer::compact;
    use oem::sym;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn a_null_datum_has_no_value() {
        assert_eq!(datum_to_value(&Datum::Null), None);
        assert_eq!(datum_to_value(&Datum::Int(3)), Some(Value::Int(3)));
        assert_eq!(datum_to_value(&"x".into()), Some(Value::str("x")));
        assert_eq!(
            datum_to_value(&3.5.into()),
            Some(Value::RealBits(3.5f64.to_bits()))
        );
    }

    #[test]
    fn a_column_named_twice_binds_both_terms() {
        // The matcher lets two subpatterns match one subobject, so a
        // column named twice is one column, read twice, on both paths.
        let w = cs();
        let q = parse_query(
            "<out {<a A> <b B>}> :- <employee {<last_name A> <last_name B> | Rest}>@cs",
        )
        .unwrap();
        let res = w.query(&q).unwrap();
        let printed: Vec<String> = res.top_level().iter().map(|&t| compact(&res, t)).collect();
        assert_eq!(printed, ["<out {<a 'Chung'> <b 'Chung'>}>"]);
        let (patterns, sets) = own_patterns(w.name, &w.caps, &q).unwrap();
        let (view, rows) = w.materialized_rows(&patterns, &sets, &q.head).unwrap();
        let oracle = rows.construct(w.name, &q.head, &view).unwrap();
        assert_eq!(compact(&oracle, oracle.top_level()[0]), printed[0]);
    }

    #[test]
    fn the_next_query_sees_a_change_made_through_catalog_mut() {
        let mut w = cs();
        let q = parse_query("<out {<ln LN> <rest Rest>}> :- <employee {<last_name LN> | Rest}>@cs")
            .unwrap();
        let printed = |w: &RelationalWrapper| -> Vec<String> {
            let res = w.query(&q).unwrap();
            res.top_level().iter().map(|&t| compact(&res, t)).collect()
        };
        assert_eq!(printed(&w).len(), 1);
        // A new row: the table's cells were made by the first query.
        let employee = w.catalog_mut().table_mut("employee").unwrap();
        employee
            .insert(vec!["Ann".into(), "Lee".into(), "dean".into(), Datum::Null])
            .unwrap();
        let rows = printed(&w);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert_eq!(
            rows[1],
            "<out {<ln 'Lee'> <rest {<first_name 'Ann'> <title 'dean'>}>}>"
        );
        // A new column: the catalog replaced whole.
        let mut wider = Table::new(
            Schema::new(
                "employee",
                &[
                    ("first_name", ColType::Str),
                    ("last_name", ColType::Str),
                    ("office", ColType::Int),
                ],
            )
            .unwrap(),
        );
        wider
            .insert(vec!["Joe".into(), "Chung".into(), 402.into()])
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add_table(wider).unwrap();
        *w.catalog_mut() = catalog;
        assert_eq!(
            printed(&w),
            ["<out {<ln 'Chung'> <rest {<first_name 'Joe'> <office 402>}>}>"]
        );
    }

    /// A random catalog of up to three tables over the columns `a`, `b`
    /// and `c`, which tables share under different types: strings, ints
    /// and reals from small domains, so that `3` meets `3.0`, with NULL
    /// cells and some columns indexed.
    fn random_catalog(rng: &mut StdRng) -> Catalog {
        let mut catalog = Catalog::new();
        for name in ["t0", "t1", "t2"].into_iter().take(rng.gen_range(1..4)) {
            let mut columns = Vec::new();
            for c in ["a", "b", "c"] {
                if rng.gen_bool(0.8) {
                    let types = [ColType::Str, ColType::Int, ColType::Real];
                    columns.push((c, types[rng.gen_range(0..3)]));
                }
            }
            if rng.gen_bool(0.3) {
                columns.reverse();
            }
            let mut t = Table::new(Schema::new(name, &columns).unwrap());
            for _ in 0..rng.gen_range(0..10) {
                let row = columns.iter().map(|&(_, ty)| match ty {
                    _ if rng.gen_bool(0.2) => Datum::Null,
                    ColType::Str => ["x", "y", "3"][rng.gen_range(0..3)].into(),
                    ColType::Int => Datum::Int(rng.gen_range(1..5)),
                    _ => [1.0, 3.0, 3.5][rng.gen_range(0..3)].into(),
                });
                let row = row.collect();
                t.insert(row).unwrap();
            }
            for (c, _) in &columns {
                if rng.gen_bool(0.3) {
                    t.create_index(c).unwrap();
                }
            }
            catalog.add_table(t).unwrap();
        }
        catalog
    }

    /// A random one-pattern query over [`random_catalog`]'s tables and its
    /// extraction variables: a constant or variable label, up to three
    /// subpatterns naming a column (or the missing `m`, or one twice) with
    /// a constant or a possibly repeated variable, a rest variable or
    /// none, sometimes an object variable, `one_of` value sets, and a
    /// carrier head over some of the variables.
    fn random_query(rng: &mut StdRng) -> (Rule, Vec<ExtractVar>) {
        let consts = ["'x'", "'y'", "'3'", "1", "3", "4", "3.0", "3.5", "'t1'"];
        let pick = |rng: &mut StdRng, xs: &[&'static str]| xs[rng.gen_range(0..xs.len())];
        let label = pick(rng, &["'t0'", "'t1'", "'t9'", "L", "L"]);
        let mut vars: Vec<&str> = Vec::new();
        if label == "L" {
            vars.push("L");
        }
        let mut subs = Vec::new();
        for _ in 0..rng.gen_range(0..4) {
            let column = pick(rng, &["a", "b", "c", "a", "b", "c", "m"]);
            let value = if rng.gen_bool(0.25) {
                pick(rng, &consts)
            } else {
                pick(rng, &["X", "Y", "X", "Y", "L"])
            };
            if value.starts_with(char::is_uppercase) && !vars.contains(&value) {
                vars.push(value);
            }
            subs.push(format!("<{column} {value}>"));
        }
        let rest = rng.gen_bool(0.5);
        if rest {
            vars.push("Rest");
        }
        let object = rng.gen_bool(0.15);
        if object {
            vars.push("P");
        }
        let tail = format!(
            "{}<{label} {{{}{}}}>@src",
            if object { "P:" } else { "" },
            subs.join(" "),
            if rest { " | Rest" } else { "" }
        );
        let mut exported = vars.clone();
        exported.retain(|_| rng.gen_bool(0.8));
        let carriers: Vec<String> = (exported.iter())
            .map(|&v| match v {
                "P" => "<bind_for_P {P}>".to_string(),
                v => format!("<bind_for_{v} {v}>"),
            })
            .collect();
        let mut q = parse_query(&format!(
            "<bind_for_src {{{}}}> :- {tail}",
            carriers.join(" ")
        ))
        .unwrap();
        for _ in 0..rng.gen_range(0..3) {
            let Some(&var) = vars.get(rng.gen_range(0..vars.len().max(1))) else {
                break;
            };
            let mut listed = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let text = format!("X :- <x {}>@s", pick(rng, &consts));
                let q = parse_query(&text).unwrap();
                let TailItem::Match { pattern, .. } = &q.tail[0] else {
                    unreachable!()
                };
                let PatValue::Term(Term::Const(v)) = &pattern.value else {
                    unreachable!()
                };
                listed.push(v.clone());
            }
            q.tail.push(crate::api::one_of(sym(var), listed));
        }
        let extract = (exported.iter())
            .map(|&v| ExtractVar {
                var: sym(v),
                kind: if v == "P" {
                    crate::api::VarKind::Object
                } else {
                    crate::api::VarKind::Scalar
                },
            })
            .collect();
        (q, extract)
    }

    /// A row answer as text, each object printed in its own store.
    fn rows_text(rows: &Rows) -> Vec<String> {
        let object = |id| compact(&rows.store, id);
        (rows.rows.iter().flatten())
            .map(|v| match v {
                BoundValue::Atom(a) => format!("{a:?}"),
                BoundValue::Obj(id) => object(*id),
                BoundValue::ObjSet(ids) => {
                    let members: Vec<String> = ids.iter().map(|&id| object(id)).collect();
                    format!("{{{}}}", members.join(" "))
                }
            })
            .chain(rows.rows.iter().map(|r| format!("/{}", r.len())))
            .collect()
    }

    #[test]
    fn the_tuple_path_answers_as_matching_the_materialized_rows() {
        let mut rng = StdRng::seed_from_u64(40);
        let (mut flat, mut answered) = (0, 0);
        for _ in 0..300 {
            let w = RelationalWrapper::new("src", random_catalog(&mut rng));
            for _ in 0..10 {
                let (q, vars) = random_query(&mut rng);
                let oracle = || {
                    let (patterns, sets) = own_patterns(w.name, &w.caps, &q)?;
                    w.materialized_rows(&patterns, &sets, &q.head)
                };
                let query = w.query(&q).map(|a| oem::printer::print_store(&a));
                let want = oracle().and_then(|(view, rows)| rows.construct(w.name, &q.head, &view));
                assert_eq!(query, want.map(|a| oem::printer::print_store(&a)), "{q}");
                let rows = w.query_rows(&q, &vars).map(|r| rows_text(&r));
                let want = oracle().and_then(|(view, rows)| rows.extract(Arc::new(view), &vars));
                assert_eq!(rows, want.map(|r| rows_text(&r)), "{q}");
                let TailItem::Match { pattern, .. } = &q.tail[0] else {
                    unreachable!()
                };
                if FlatRow::compile(pattern, &head_vars(&q.head)).is_some() {
                    flat += 1;
                    answered += usize::from(rows.is_ok_and(|r| !r.is_empty()));
                }
            }
        }
        // Most queries take the tuple path, and many of those answer.
        assert!(flat > 2000 && answered > 300, "{flat} {answered}");
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
