//! Generic MSL query evaluation over one object store.
//!
//! Both concrete wrappers reduce to this routine: match the query's tail
//! patterns against (a materialized view of) the source, project each
//! solution onto the head variables as a row, and eliminate duplicate rows
//! (§2 footnote 3). [`crate::Wrapper::query`] constructs one result object
//! per row; [`crate::Wrapper::query_rows`] hands the rows over as they
//! are, over the source's own objects.
//!
//! A query may restrict variables to value sets (`one_of`, see
//! [`crate::api::ValueSets`]): membership is tested as each pattern's
//! matches arrive, so a query for twenty names is one pass over the source
//! that keeps twenty names' objects — not twenty passes.
//!
//! Given the value index a [`crate::semistructured::SemiStructuredSource`]
//! keeps, a pattern that names a child's value (`<person {<name 'Joe
//! Chung'>}>`, or `<name N>` with `N` bound by an earlier pattern) is
//! matched against the index's candidates only, in `top_level()` order, so
//! the answer is the scan's byte for byte. Without one every pattern
//! scans: [`answer_msl_query`] is that reference.

use crate::api::{
    construct_answer, own_patterns, ExtractVar, Rows, ValueSets, VarKind, WrapperError,
};
use crate::capabilities::Capabilities;
use crate::index::ValueIndex;
use engine::bindings::{Bindings, BoundValue};
use engine::matcher::match_each;
use msl::{Head, Pattern, Rule};
use oem::{ObjectStore, Symbol};
use std::sync::Arc;

/// Evaluate `q` against `store` and construct its head objects into a
/// fresh result store (top-level). `name` is the answering source (used
/// for `@source` validation and the result oid prefix), `caps` what it
/// declared (a value set is only evaluated for a source that accepts one).
pub fn answer_msl_query(
    name: Symbol,
    caps: &Capabilities,
    store: &ObjectStore,
    q: &Rule,
) -> Result<ObjectStore, WrapperError> {
    let (patterns, sets) = own_patterns(name, caps, q)?;
    HeadRows::eval(store, None, &patterns, &sets, &q.head)?.construct(name, &q.head, store)
}

/// The evaluator every wrapper ends in: the values of a query's head
/// variables, one row per solution, over the store the query was matched
/// against.
pub(crate) struct HeadRows {
    /// The head's variables, each once, in order of appearance.
    vars: Vec<Symbol>,
    /// Distinct rows of `vars`, first occurrences in solution order.
    rows: Vec<Vec<BoundValue>>,
}

impl HeadRows {
    /// Join `patterns` left to right over `store`, narrowed by `index`
    /// (built over `store`) where a pattern allows, and project each
    /// solution onto the head variables (§2 footnote 3) straight into its
    /// row; then eliminate duplicate rows.
    pub(crate) fn eval(
        store: &ObjectStore,
        index: Option<&ValueIndex>,
        patterns: &[&Pattern],
        sets: &ValueSets,
        head: &Head,
    ) -> Result<HeadRows, WrapperError> {
        let mut all = Vec::new();
        head.collect_vars(&mut all);
        let mut vars: Vec<Symbol> = Vec::with_capacity(all.len());
        for v in all {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let mut rows = Vec::new();
        let mut unbound = None;
        let mut emit = |b: &mut Bindings| {
            let mut row = Vec::with_capacity(vars.len());
            for &v in &vars {
                let Some(value) = b.get(v) else {
                    unbound = Some(v);
                    return;
                };
                row.push(value.clone());
            }
            rows.push(row);
        };
        join(
            store,
            index,
            patterns,
            sets,
            &mut Bindings::new(),
            &mut emit,
        );
        if let Some(v) = unbound {
            return Err(WrapperError::Construct(
                engine::ConstructError::UnboundVariable(v).to_string(),
            ));
        }
        Ok(HeadRows {
            vars,
            rows: dedup_rows(rows),
        })
    }

    /// The answer [`crate::Wrapper::query`] returns: `head` constructed
    /// once per row.
    pub(crate) fn construct(
        &self,
        name: Symbol,
        head: &Head,
        store: &ObjectStore,
    ) -> Result<ObjectStore, WrapperError> {
        construct_answer(name, head, &self.vars, store, &self.rows)
    }

    /// The rows [`crate::Wrapper::query_rows`] returns: each extraction
    /// variable's column, over `store` itself. The head is the carrier
    /// set of `vars` the planner sends (see [`crate::api`]), so a row is
    /// one answer object and each value what its carrier holds. A
    /// variable the head does not export, or one bound in a form its
    /// carrier does not read back, is an error.
    pub(crate) fn extract(
        self,
        store: Arc<ObjectStore>,
        vars: &[ExtractVar],
    ) -> Result<Rows, WrapperError> {
        let columns = (vars.iter())
            .map(|v| {
                (self.vars.iter().position(|&h| h == v.var)).ok_or_else(|| {
                    WrapperError::BadQuery(format!("the head does not export {}", v.var))
                })
            })
            .collect::<Result<Vec<usize>, _>>()?;
        for row in &self.rows {
            for (&c, v) in columns.iter().zip(vars) {
                if !matches!(
                    (&row[c], v.kind),
                    (BoundValue::Obj(_), VarKind::Object)
                        | (BoundValue::Atom(_) | BoundValue::ObjSet(_), VarKind::Scalar)
                ) {
                    return Err(WrapperError::Construct(format!(
                        "{} is bound in a form its {:?} carrier does not hold",
                        v.var, v.kind
                    )));
                }
            }
        }
        let rows = if columns.iter().copied().eq(0..self.vars.len()) {
            self.rows
        } else {
            let pick = |row: &Vec<BoundValue>| columns.iter().map(|&c| row[c].clone()).collect();
            self.rows.iter().map(pick).collect()
        };
        Ok(Rows { rows, store })
    }
}

/// Match `patterns` left to right, each against the top-level objects (or
/// the index's candidates for it), handing every admitted solution of the
/// last to `emit`.
fn join(
    store: &ObjectStore,
    index: Option<&ValueIndex>,
    patterns: &[&Pattern],
    sets: &ValueSets,
    b: &mut Bindings,
    emit: &mut dyn FnMut(&mut Bindings),
) {
    let Some((pat, later)) = patterns.split_first() else {
        return emit(b);
    };
    let mut displaced = Vec::new();
    let mut step = |b: &mut Bindings| {
        if sets.admit_mut(b, &mut displaced) {
            join(store, index, later, sets, b, emit);
        }
        for (var, found) in displaced.drain(..).rev() {
            b.replace(var, found);
        }
    };
    let top = store.top_level();
    match index.and_then(|index| index.candidates(pat, b)) {
        Some(hits) => {
            let ids = hits.iter().map(|h| top[h.pos as usize]);
            match_each(store, ids, pat, b, &mut step)
        }
        None => match_each(store, top.iter().copied(), pat, b, &mut step),
    }
}

/// Keep the first occurrence of every row, in order.
fn dedup_rows(rows: Vec<Vec<BoundValue>>) -> Vec<Vec<BoundValue>> {
    if rows.len() < 2 {
        return rows;
    }
    let first: Vec<bool> = {
        let mut seen = std::collections::HashSet::with_capacity(rows.len());
        rows.iter().map(|r| seen.insert(r)).collect()
    };
    rows.into_iter()
        .zip(first)
        .filter_map(|(r, first)| first.then_some(r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_query;
    use oem::parser::parse_store;
    use oem::printer::compact;
    use oem::sym;

    #[test]
    fn answers_and_dedups() {
        let store = parse_store(
            "<&p1, person, set, {<&n1, name, 'A'> <&d1, dept, 'CS'>}>
             <&p2, person, set, {<&n2, name, 'A'> <&d2, dept, 'CS'>}>
             <&p3, person, set, {<&n3, name, 'B'> <&d3, dept, 'EE'>}>",
        )
        .unwrap();
        // Two persons named A produce ONE result (duplicate elimination on
        // projected bindings).
        let q = parse_query("<out {<who N>}> :- <person {<name N> <dept 'CS'>}>@src").unwrap();
        let res = answer_msl_query(sym("src"), &Capabilities::full(), &store, &q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        assert_eq!(compact(&res, res.top_level()[0]), "<out {<who 'A'>}>");
    }

    #[test]
    fn value_sets_restrict_in_one_pass() {
        let store = parse_store(
            "<&p1, person, set, {<&n1, name, 'A'> <&y1, year, 3>}>
             <&p2, person, set, {<&n2, name, 'B'> <&y2, year, 3.0>}>
             <&p3, person, set, {<&n3, name, 'C'> <&y3, year, 4>}>",
        )
        .unwrap();
        let q = parse_query(
            "<out {<who N> <y Y>}> :- <person {<name N> <year Y>}>@src \
             AND one_of(N, 'B', 'C', 'Z') AND one_of(Y, 3)",
        )
        .unwrap();
        let res = answer_msl_query(sym("src"), &Capabilities::full(), &store, &q).unwrap();
        // B's 3.0 is the listed 3; C's year and A's name are not listed.
        let printed: Vec<String> = res.top_level().iter().map(|&t| compact(&res, t)).collect();
        assert_eq!(printed, ["<out {<who 'B'> <y 3>}>"]);
        // The same query at a source that takes one value per parameter.
        let err =
            answer_msl_query(sym("src"), &Capabilities::restricted(), &store, &q).unwrap_err();
        assert!(matches!(err, WrapperError::Unsupported(_)), "{err}");
    }

    #[test]
    fn empty_result_is_empty_store() {
        let store = parse_store("<&p1, person, set, {<&n1, name, 'A'>}>").unwrap();
        let q = parse_query("X :- X:<person {<name 'Z'>}>@src").unwrap();
        let res = answer_msl_query(sym("src"), &Capabilities::full(), &store, &q).unwrap();
        assert!(res.top_level().is_empty());
    }
}
