//! Generic MSL query evaluation over one object store.
//!
//! Both concrete wrappers reduce to this routine: match the query's tail
//! patterns against (a materialized view of) the source, project the
//! bindings onto the head variables, eliminate duplicates (§2 footnote 3),
//! and construct one result object per surviving binding.
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

use crate::api::{own_patterns, ValueSets, WrapperError};
use crate::capabilities::Capabilities;
use crate::index::ValueIndex;
use engine::bindings::{dedup_bindings, Bindings};
use engine::construct::Constructor;
use engine::matcher::{match_objects, match_top_level};
use msl::{Pattern, Rule};
use oem::{ObjectStore, Symbol};

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
    answer_patterns(name, store, None, &patterns, &sets, q)
}

/// [`answer_msl_query`] over an already validated query, narrowed by
/// `index` (built over `store`) where a pattern allows.
pub(crate) fn answer_patterns(
    name: Symbol,
    store: &ObjectStore,
    index: Option<&ValueIndex>,
    patterns: &[&Pattern],
    sets: &ValueSets,
    q: &Rule,
) -> Result<ObjectStore, WrapperError> {
    // Join the tail patterns left to right.
    let mut states = vec![Bindings::new()];
    for pat in patterns {
        let mut next = Vec::new();
        for b in &states {
            let matches = match index.and_then(|index| index.candidates(pat, b)) {
                Some(hits) => {
                    let top = store.top_level();
                    match_objects(store, hits.iter().map(|h| top[h.pos as usize]), pat, b)
                }
                None => match_top_level(store, pat, b),
            };
            next.extend(matches.into_iter().filter_map(|m| sets.admit(m)));
        }
        states = next;
        if states.is_empty() {
            break;
        }
    }

    // Project onto the head variables, then eliminate duplicate bindings.
    let mut head_vars = Vec::new();
    q.head.collect_vars(&mut head_vars);
    for b in &mut states {
        b.retain(&head_vars);
    }
    let surviving = dedup_bindings(states);

    // Construct results.
    let mut out = ObjectStore::with_oid_prefix(&format!("{name}_r"));
    let mut ctor = Constructor::new(store);
    for b in &surviving {
        ctor.construct_head(&q.head, b, &mut out)
            .map_err(|e| WrapperError::Construct(e.to_string()))?;
    }
    Ok(out)
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
