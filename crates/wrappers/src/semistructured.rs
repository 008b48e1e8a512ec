//! The semi-structured source wrapper.
//!
//! Wraps a native [`ObjectStore`] — irregular objects with no schema, like
//! the paper's university "whois" facility (Figure 2.3). Evaluation is
//! full MSL pattern matching, optionally restricted by a
//! [`Capabilities`] profile (e.g. "cannot evaluate conditions on `year`",
//! the §3.5 example). A pattern naming a child's value
//! (`<person {<name 'Joe Chung'>}>`) takes its candidates from a value
//! index over the top-level objects' atomic children, built by the first
//! query that can use it and dropped by [`SemiStructuredSource::store_mut`];
//! any other pattern is one pass over the store. A query restricting
//! variables to value sets (`one_of`, [`crate::api::ValueSets`]) is tested
//! as matches arrive, in the same pass.

use crate::api::{own_patterns, ExtractVar, Rows, SourceStats, Wrapper, WrapperError};
use crate::capabilities::Capabilities;
use crate::eval::HeadRows;
use crate::index::{can_narrow, ValueIndex};
use crate::metrics::{WrapperCounters, WrapperMetrics};
use msl::Rule;
use oem::{ObjectStore, Symbol};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A source holding OEM objects directly.
pub struct SemiStructuredSource {
    name: Symbol,
    /// Shared with the row answers ([`Rows`]) whose ids point into it.
    store: Arc<ObjectStore>,
    caps: Capabilities,
    provide_stats: bool,
    counters: WrapperCounters,
    /// Built on first use, never in [`SemiStructuredSource::new`]: a
    /// source asked once pays for it only if it is asked a lookup.
    index: OnceLock<ValueIndex>,
}

/// Alias used throughout docs/tests.
pub type SemiStructuredWrapper = SemiStructuredSource;

impl SemiStructuredSource {
    /// A fully-capable source named `name` over `store`. By default it
    /// provides **no** statistics — the paper treats that as the common
    /// case for loosely structured facilities (§3.5).
    pub fn new(name: &str, store: ObjectStore) -> SemiStructuredSource {
        SemiStructuredSource {
            name: Symbol::intern(name),
            store: Arc::new(store),
            caps: Capabilities::full(),
            provide_stats: false,
            counters: WrapperCounters::new(),
            index: OnceLock::new(),
        }
    }

    /// Replace the capability profile.
    pub fn with_capabilities(mut self, caps: Capabilities) -> SemiStructuredSource {
        self.caps = caps;
        self
    }

    /// This source taking one value per parameter
    /// ([`Capabilities::without_parameterized_sets`]): §3.4's node then
    /// sends it one query per binding tuple.
    pub fn without_parameterized_sets(mut self) -> SemiStructuredSource {
        self.caps.parameterized_sets = false;
        self
    }

    /// Make the wrapper compute and expose statistics.
    pub fn with_stats(mut self) -> SemiStructuredSource {
        self.provide_stats = true;
        self
    }

    /// Direct access to the underlying store (tests, experiments).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Mutable access (schema-evolution demos add attributes at runtime).
    /// Drops the value index; the next lookup rebuilds it. Row answers
    /// handed out earlier keep the store they were read from.
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        self.index.take();
        Arc::make_mut(&mut self.store)
    }

    fn index(&self) -> &ValueIndex {
        self.index.get_or_init(|| ValueIndex::build(&self.store))
    }

    fn compute_stats(&self) -> SourceStats {
        let mut label_counts: BTreeMap<Symbol, usize> = BTreeMap::new();
        for &t in self.store.top_level() {
            *label_counts.entry(self.store.get(t).label).or_insert(0) += 1;
        }
        // Uniform assumption: an equality condition on label l keeps
        // 1/distinct(l) of the objects, values compared as the matcher
        // compares them.
        let eq_selectivity = self
            .index()
            .distinct_values()
            .into_iter()
            .map(|(l, n)| (l, 1.0 / n as f64))
            .collect();
        SourceStats {
            top_level_count: self.store.top_level().len(),
            label_counts,
            eq_selectivity,
        }
    }
}

impl Wrapper for SemiStructuredSource {
    fn name(&self) -> Symbol {
        self.name
    }

    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn stats(&self) -> Option<SourceStats> {
        if self.provide_stats {
            Some(self.compute_stats())
        } else {
            None
        }
    }

    fn metrics(&self) -> Option<WrapperMetrics> {
        Some(self.counters.snapshot())
    }

    fn schema_summary(&self) -> Option<crate::summary::SchemaSummary> {
        Some(crate::summary::SchemaSummary::from_store(&self.store))
    }

    fn query(&self, q: &Rule) -> Result<ObjectStore, WrapperError> {
        let result = self
            .evaluate(q)?
            .construct(self.name, &q.head, &self.store)?;
        self.counters.objects_exported(result.top_level().len());
        Ok(result)
    }

    fn query_rows(&self, q: &Rule, vars: &[ExtractVar]) -> Result<Rows, WrapperError> {
        let rows = self.evaluate(q)?.extract(Arc::clone(&self.store), vars)?;
        self.counters.objects_exported(rows.rows.len());
        Ok(rows)
    }
}

impl SemiStructuredSource {
    /// The one evaluator behind both answers: validate `q` against the
    /// capability profile, then match it, through the value index where a
    /// pattern names a child's value.
    fn evaluate(&self, q: &Rule) -> Result<HeadRows, WrapperError> {
        self.counters.query_received();
        if let Err(e) = self.caps.check_query(q) {
            self.counters.capability_rejected();
            return Err(WrapperError::Unsupported(e));
        }
        let (patterns, sets) = own_patterns(self.name, &self.caps, q)?;
        let index = can_narrow(&patterns).then(|| self.index());
        HeadRows::eval(&self.store, index, &patterns, &sets, &q.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_query;
    use oem::parser::parse_store;
    use oem::printer::compact;
    use oem::sym;

    fn whois() -> SemiStructuredSource {
        let store = parse_store(
            "<&p1, person, set, {&n1,&d1,&rel1,&elm1}>
               <&n1, name, string, 'Joe Chung'>
               <&d1, dept, string, 'CS'>
               <&rel1, relation, string, 'employee'>
               <&elm1, e_mail, string, 'chung@cs'>
             <&p2, person, set, {&n2,&d2,&rel2,&y2}>
               <&n2, name, string, 'Nick Naive'>
               <&d2, dept, string, 'CS'>
               <&rel2, relation, string, 'student'>
               <&y2, year, integer, 3>",
        )
        .unwrap();
        SemiStructuredSource::new("whois", store)
    }

    #[test]
    fn answers_qw_style_queries() {
        // Qw from §3.4 (with its rest-variable condition).
        let w = whois();
        let q = parse_query(
            "<bind_for_whois {<bind_for_N N> <bind_for_R R> <bind_for_Rest1 Rest1>}> :- \
             <person {<name N> <dept 'CS'> <relation R> | Rest1:{<year 3>}}>@whois",
        )
        .unwrap();
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        let top = res.top_level()[0];
        let printed = compact(&res, top);
        assert!(printed.contains("<bind_for_N 'Nick Naive'>"), "{printed}");
        assert!(printed.contains("<bind_for_R 'student'>"), "{printed}");
        assert!(printed.contains("<year 3>"), "{printed}");
    }

    #[test]
    fn capability_restriction_rejects() {
        let w = whois().with_capabilities(Capabilities::full().without_condition_on(sym("year")));
        let q = parse_query("X :- X:<person {<name N> | R:{<year 3>}}>@whois").unwrap();
        let err = w.query(&q).unwrap_err();
        assert!(matches!(err, WrapperError::Unsupported(_)));
        // Without the year condition the source still answers.
        let ok = parse_query("X :- X:<person {<name N>}>@whois").unwrap();
        assert_eq!(w.query(&ok).unwrap().top_level().len(), 2);
    }

    #[test]
    fn stats_disabled_by_default() {
        let w = whois();
        assert!(w.stats().is_none());
        let w = whois().with_stats();
        let s = w.stats().unwrap();
        assert_eq!(s.top_level_count, 2);
        assert_eq!(s.label_counts.get(&sym("person")), Some(&2));
        // Two distinct names → selectivity 1/2.
        assert!((s.selectivity(sym("name")) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stats_count_numerically_equal_values_once() {
        let store = parse_store(
            "<&p1, person, set, {<&y1, year, 3>}>
             <&p2, person, set, {<&y2, year, 3.0>}>",
        )
        .unwrap();
        let s = SemiStructuredSource::new("whois", store)
            .with_stats()
            .stats()
            .unwrap();
        // The matcher takes 3 for 3.0: one value, selectivity 1.
        assert!((s.selectivity(sym("year")) - 1.0).abs() < 1e-9);
        assert_eq!(s.top_level_count, 2);
        assert_eq!(s.label_counts.get(&sym("person")), Some(&2));
    }

    #[test]
    fn store_mut_drops_the_index() {
        let mut w = whois();
        let q = parse_query("X :- X:<person {<e_mail 'nick@cs'>}>@whois").unwrap();
        assert!(w.query(&q).unwrap().top_level().is_empty());
        assert!(w.index.get().is_some(), "the lookup built the index");
        let store = w.store_mut();
        let nick = store.by_oid(sym("p2")).unwrap();
        let e_mail = store.atom("e_mail", "nick@cs");
        store.add_child(nick, e_mail).unwrap();
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        let printed = compact(&res, res.top_level()[0]);
        assert!(printed.contains("<name 'Nick Naive'>"), "{printed}");
    }

    #[test]
    fn metrics_count_queries_exports_and_rejections() {
        let w = whois().with_capabilities(Capabilities::full().without_condition_on(sym("year")));
        let ok = parse_query("X :- X:<person {<name N>}>@whois").unwrap();
        let bad = parse_query("X :- X:<person {<name N> | R:{<year 3>}}>@whois").unwrap();
        assert_eq!(
            w.metrics().unwrap(),
            crate::metrics::WrapperMetrics::default()
        );
        w.query(&ok).unwrap();
        w.query(&bad).unwrap_err();
        let m = w.metrics().unwrap();
        assert_eq!(m.queries_received, 2);
        assert_eq!(m.objects_exported, 2); // the ok query matched 2 people
        assert_eq!(m.capability_rejections, 1);
    }

    #[test]
    fn object_variable_query_returns_whole_objects() {
        let w = whois();
        let q = parse_query("JC :- JC:<person {<name 'Joe Chung'>}>@whois").unwrap();
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        let printed = compact(&res, res.top_level()[0]);
        assert!(printed.contains("<e_mail 'chung@cs'>"), "{printed}");
    }

    #[test]
    fn rows_are_read_by_name_from_the_carrier_head() {
        let w = whois();
        use crate::api::VarKind;
        use engine::bindings::BoundValue;
        let var = |v: &str, kind| ExtractVar { var: sym(v), kind };
        let q = parse_query(
            "<bind_for_whois {<bind_for_N N> <bind_for_P {P}>}> :- \
             P:<person {<name N> <relation 'student'>}>@whois",
        )
        .unwrap();
        let vars = [var("P", VarKind::Object), var("N", VarKind::Scalar)];
        let rows = w.query_rows(&q, &vars).unwrap();
        let [row] = &rows.rows[..] else {
            panic!("one student: {rows:?}")
        };
        let [BoundValue::Obj(p), BoundValue::Atom(n)] = &row[..] else {
            panic!("an object and an atom: {row:?}")
        };
        assert_eq!(
            compact(&rows.store, *p),
            compact(&w.store, w.store.top_level()[1])
        );
        assert_eq!(n, &oem::Value::str("Nick Naive"));
        // A variable the head does not export, and one its carrier would
        // not hold in that form, are refused rather than guessed at.
        let err = w.query_rows(&q, &[var("Y", VarKind::Scalar)]).unwrap_err();
        assert!(matches!(err, WrapperError::BadQuery(_)), "{err}");
        let err = w.query_rows(&q, &[var("N", VarKind::Object)]).unwrap_err();
        assert!(matches!(err, WrapperError::Construct(_)), "{err}");
    }
}
