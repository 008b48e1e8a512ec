//! The wrapper interface.
//!
//! A wrapper accepts an MSL query — a single rule whose tail patterns refer
//! to this source — and returns an [`ObjectStore`] whose top-level objects
//! are the constructed results. This mirrors the paper's architecture: the
//! MSI's query and parameterized-query nodes send source queries like `Qw`
//! and `Qcs` (§3.4) and receive OEM objects back.

use crate::capabilities::Capabilities;
use engine::bindings::{Bindings, BoundValue};
use engine::matcher::{atomic_eq, atomic_key};
use msl::{Rule, TailItem, Term};
use oem::{ObjectStore, Symbol, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Errors a wrapper can raise.
///
/// The paper's §3.5 concedes that sources are autonomous: some refuse
/// query features ([`WrapperError::Unsupported`]), and — in any deployment
/// beyond the paper's demo — some are intermittently unreachable or slow.
/// The *transient* variants ([`WrapperError::Unavailable`],
/// [`WrapperError::Timeout`]) tell the mediator that retrying may succeed;
/// the datamerge engine's retry policy acts only on those (see
/// [`WrapperError::is_transient`]).
#[derive(Clone, PartialEq, Debug)]
pub enum WrapperError {
    /// The query uses a feature this source does not support (§3.5). The
    /// planner reacts by keeping the condition in the mediator (client-side
    /// filter).
    Unsupported(String),
    /// The query was malformed for this wrapper (e.g. referencing another
    /// source, or a non-pattern tail).
    BadQuery(String),
    /// Construction of result objects failed.
    Construct(String),
    /// The source is unreachable (down, refusing connections). Transient:
    /// a later attempt may succeed.
    Unavailable(String),
    /// The source did not answer within its deadline. Transient: a later
    /// attempt may succeed.
    Timeout(String),
}

impl WrapperError {
    /// Whether the failure is transient — i.e. retrying the same query
    /// against the same source may succeed. Permanent errors (unsupported
    /// features, malformed queries, construction bugs) never are.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            WrapperError::Unavailable(_) | WrapperError::Timeout(_)
        )
    }
}

impl fmt::Display for WrapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapperError::Unsupported(msg) => write!(f, "unsupported by source: {msg}"),
            WrapperError::BadQuery(msg) => write!(f, "bad wrapper query: {msg}"),
            WrapperError::Construct(msg) => write!(f, "result construction failed: {msg}"),
            WrapperError::Unavailable(msg) => write!(f, "source unavailable: {msg}"),
            WrapperError::Timeout(msg) => write!(f, "source timed out: {msg}"),
        }
    }
}

impl std::error::Error for WrapperError {}

/// Statistics a wrapper may expose to the mediator's cost-based optimizer.
/// "When the wrappers do not provide cost and statistics information ...
/// the optimizer has to rely on ad-hoc heuristics" (§3.5) — hence
/// `Wrapper::stats` returns an `Option`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SourceStats {
    /// Number of top-level objects.
    pub top_level_count: usize,
    /// Top-level objects per top-level label.
    pub label_counts: BTreeMap<Symbol, usize>,
    /// Estimated selectivity of an equality condition on a subobject with
    /// the given label (1/distinct under the uniform assumption).
    pub eq_selectivity: BTreeMap<Symbol, f64>,
}

impl SourceStats {
    /// Top-level objects with the given label (or all, for a label that is
    /// a variable at planning time).
    pub fn count_for_label(&self, label: Option<Symbol>) -> usize {
        match label {
            Some(l) => self.label_counts.get(&l).copied().unwrap_or(0),
            None => self.top_level_count,
        }
    }

    /// Selectivity of an equality condition on subobject label `l`
    /// (defaults to 0.1 when unknown — a conventional guess).
    pub fn selectivity(&self, l: Symbol) -> f64 {
        self.eq_selectivity.get(&l).copied().unwrap_or(0.1)
    }
}

/// A source of OEM objects that answers MSL queries.
pub trait Wrapper: Send + Sync {
    /// The source's name (`cs`, `whois`, ...). Queries may reference it in
    /// `@source` annotations.
    fn name(&self) -> Symbol;

    /// What this source can evaluate.
    fn capabilities(&self) -> &Capabilities;

    /// Cost/statistics information, if the wrapper provides any.
    fn stats(&self) -> Option<SourceStats> {
        None
    }

    /// A snapshot of this wrapper's own traffic counters (see
    /// [`crate::metrics`]). `None` for uninstrumented wrappers.
    fn metrics(&self) -> Option<crate::metrics::WrapperMetrics> {
        None
    }

    /// A shape summary of this source's exported objects (labels and value
    /// types), for the mediator's whole-spec static analysis. `None` for
    /// sources whose shape is unknown — the analysis then assumes nothing
    /// about them.
    ///
    /// A *closed* summary (or closed level of one) is a promise that holds
    /// for as long as the wrapper is registered: every label the source
    /// exports there is listed, with its value type, and a child marked
    /// [`crate::LabelSummary::at_most_one`] never occurs twice in one
    /// parent. The planner drops chains on it without calling the source —
    /// a condition whose type conflicts with the summary, a label the
    /// summary lacks, and a rest condition asking for a second child the
    /// pattern already matched. A source whose shape can change under a
    /// live mediator returns an open summary or `None`.
    fn schema_summary(&self) -> Option<crate::summary::SchemaSummary> {
        None
    }

    /// Answer an MSL query. Tail `Match` items must refer to this source
    /// (their `@source` annotation equal to `self.name()` or absent);
    /// external predicates are not evaluated by wrappers — except the
    /// reserved [`ONE_OF`], which a source declaring
    /// [`Capabilities::parameterized_sets`] must honour.
    fn query(&self, q: &Rule) -> Result<ObjectStore, WrapperError>;
}

/// The reserved tail predicate that carries a value set into a source
/// query: `one_of(V, v1, v2, …)` restricts variable `V` to the listed
/// atomic values, compared as the matcher compares (3 is 3.0). Only a
/// source declaring [`Capabilities::parameterized_sets`] accepts it.
pub const ONE_OF: &str = "one_of";

/// The tail item `one_of(var, values…)`.
pub fn one_of(var: Symbol, values: impl IntoIterator<Item = Value>) -> TailItem {
    TailItem::External {
        name: Symbol::intern(ONE_OF),
        args: std::iter::once(Term::Var(var))
            .chain(values.into_iter().map(Term::Const))
            .collect(),
    }
}

/// The value sets of one source query: which variables its `one_of` items
/// restrict, and to what.
#[derive(Default, Debug)]
pub struct ValueSets {
    /// Per restricted variable, the listed values under their
    /// [`atomic_key`]s.
    sets: Vec<(Symbol, HashMap<Value, Vec<Value>>)>,
}

impl ValueSets {
    /// The listed values of `var`, if the query restricts it.
    pub fn values(&self, var: Symbol) -> Option<impl Iterator<Item = &Value>> {
        let (_, set) = self.sets.iter().find(|(v, _)| *v == var)?;
        Some(set.values().flatten())
    }

    /// May `var` take `value`? Always, when the query does not restrict it.
    pub fn allows(&self, var: Symbol, value: &Value) -> bool {
        self.sets
            .iter()
            .filter(|(v, _)| *v == var)
            .all(|(_, set)| listed(set, value).is_some())
    }

    /// Keep `b` if every restricted variable it binds holds a listed
    /// value, rebound to the listed value it equals: a 3.0 found for a
    /// listed 3 must then deduplicate with a 3 found elsewhere, as it would
    /// in the answer to the query for that one value.
    pub fn admit(&self, mut b: Bindings) -> Option<Bindings> {
        for (var, set) in &self.sets {
            let found = match b.get(*var) {
                Some(BoundValue::Atom(found)) => found,
                Some(_) => return None,
                None => continue, // bound by a later pattern
            };
            let want = listed(set, found)?;
            if want != found {
                let want = BoundValue::Atom(want.clone());
                let others: Vec<Symbol> = b.variables().into_iter().filter(|v| v != var).collect();
                b = b.project(&others).bind(*var, want)?;
            }
        }
        Some(b)
    }
}

fn listed<'s>(set: &'s HashMap<Value, Vec<Value>>, value: &Value) -> Option<&'s Value> {
    set.get(&atomic_key(value))?
        .iter()
        .find(|l| atomic_eq(l, value))
}

/// Shared validation helper: split a query into this wrapper's match
/// patterns and its value sets, rejecting foreign and unsupported shapes.
/// A `one_of` item is only taken from a source whose `caps` declare
/// [`Capabilities::parameterized_sets`] — a wrapper that ignored it would
/// answer for values nobody asked about.
pub fn own_patterns<'q>(
    name: Symbol,
    caps: &Capabilities,
    q: &'q Rule,
) -> Result<(Vec<&'q msl::Pattern>, ValueSets), WrapperError> {
    let mut out = Vec::new();
    let mut sets = ValueSets::default();
    for item in &q.tail {
        match item {
            TailItem::Match { pattern, source } => {
                if let Some(s) = source {
                    if *s != name {
                        return Err(WrapperError::BadQuery(format!(
                            "query references source '{s}' but was sent to '{name}'"
                        )));
                    }
                }
                out.push(pattern);
            }
            TailItem::External { name: pred, args } if pred.as_str() == ONE_OF => {
                if !caps.parameterized_sets {
                    return Err(WrapperError::Unsupported(
                        crate::capabilities::CapViolation::ValueSet.to_string(),
                    ));
                }
                let Some((Term::Var(var), values)) = args.split_first() else {
                    return Err(WrapperError::BadQuery(
                        "one_of restricts a variable: one_of(V, v1, v2, …)".into(),
                    ));
                };
                let mut set: HashMap<Value, Vec<Value>> = HashMap::new();
                for value in values {
                    match value {
                        Term::Const(v) if v.is_atomic() => {
                            set.entry(atomic_key(v)).or_default().push(v.clone())
                        }
                        other => {
                            return Err(WrapperError::BadQuery(format!(
                                "one_of lists atomic constants, not {}",
                                msl::printer::term(other, true)
                            )))
                        }
                    }
                }
                sets.sets.push((*var, set));
            }
            TailItem::External { name: pred, .. } => {
                return Err(WrapperError::BadQuery(format!(
                    "wrappers do not evaluate external predicates ({pred})"
                )));
            }
        }
    }
    if out.is_empty() {
        return Err(WrapperError::BadQuery("query has no match patterns".into()));
    }
    if !sets.sets.is_empty() {
        let mut bound = Vec::new();
        for p in &out {
            p.collect_vars(&mut bound);
        }
        if let Some((var, _)) = sets.sets.iter().find(|(v, _)| !bound.contains(v)) {
            return Err(WrapperError::BadQuery(format!(
                "one_of restricts {var}, which no pattern binds"
            )));
        }
    }
    Ok((out, sets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_query;
    use oem::sym;

    #[test]
    fn own_patterns_accepts_own_and_unannotated() {
        let q = parse_query("X :- X:<person {<name N>}>@whois AND <dept {<x X2>}>").unwrap();
        let (pats, sets) = own_patterns(sym("whois"), &Capabilities::full(), &q).unwrap();
        assert_eq!(pats.len(), 2);
        assert!(sets.values(sym("N")).is_none());
    }

    #[test]
    fn own_patterns_rejects_foreign_source() {
        let q = parse_query("X :- X:<person {}>@cs").unwrap();
        let err = own_patterns(sym("whois"), &Capabilities::full(), &q).unwrap_err();
        assert!(matches!(err, WrapperError::BadQuery(_)));
    }

    #[test]
    fn own_patterns_rejects_externals() {
        let q = parse_query("X :- X:<p {<n N>}>@s AND ge(N, 3)").unwrap();
        assert!(own_patterns(sym("s"), &Capabilities::full(), &q).is_err());
    }

    #[test]
    fn one_of_is_taken_only_with_the_bit() {
        let mut q = parse_query("X :- X:<p {<n N>}>@s").unwrap();
        q.tail
            .push(one_of(sym("N"), [Value::Int(3), Value::str("a")]));
        assert_eq!(
            msl::printer::rule(&q),
            "X :- X:<p {<n N>}>@s\n    AND one_of(N, 3, 'a')"
        );
        let (pats, sets) = own_patterns(sym("s"), &Capabilities::full(), &q).unwrap();
        assert_eq!(pats.len(), 1);
        assert_eq!(sets.values(sym("N")).unwrap().count(), 2);
        // Membership compares as the matcher does, and an unrestricted
        // variable may take anything.
        assert!(sets.allows(sym("N"), &Value::real(3.0)));
        assert!(!sets.allows(sym("N"), &Value::str("3")));
        assert!(sets.allows(sym("M"), &Value::str("3")));
        let err = own_patterns(sym("s"), &Capabilities::restricted(), &q).unwrap_err();
        assert!(matches!(err, WrapperError::Unsupported(_)), "{err}");
        // The first argument is the variable; the rest are constants.
        let bad = parse_query("X :- X:<p {<n N>}>@s AND one_of(3, N)").unwrap();
        let err = own_patterns(sym("s"), &Capabilities::full(), &bad).unwrap_err();
        assert!(matches!(err, WrapperError::BadQuery(_)), "{err}");
    }

    #[test]
    fn admit_rebinds_to_the_listed_value() {
        let mut q = parse_query("X :- X:<p {<n N>}>@s").unwrap();
        q.tail.push(one_of(sym("N"), [Value::Int(3)]));
        let (_, sets) = own_patterns(sym("s"), &Capabilities::full(), &q).unwrap();
        let bind = |v: Value| {
            Bindings::new()
                .bind(sym("N"), BoundValue::Atom(v))
                .unwrap()
                .bind(sym("M"), BoundValue::Atom(Value::str("kept")))
                .unwrap()
        };
        let found = sets.admit(bind(Value::real(3.0))).unwrap();
        assert_eq!(found, bind(Value::Int(3)));
        assert!(sets.admit(bind(Value::Int(4))).is_none());
        // Not bound yet: a later pattern may still bind it.
        assert_eq!(sets.admit(Bindings::new()), Some(Bindings::new()));
    }

    #[test]
    fn transience_classification() {
        assert!(WrapperError::Unavailable("down".into()).is_transient());
        assert!(WrapperError::Timeout("slow".into()).is_transient());
        assert!(!WrapperError::Unsupported("year".into()).is_transient());
        assert!(!WrapperError::BadQuery("x".into()).is_transient());
        assert!(!WrapperError::Construct("x".into()).is_transient());
        let shown = WrapperError::Unavailable("whois down".into()).to_string();
        assert!(shown.contains("unavailable"), "{shown}");
        let shown = WrapperError::Timeout("80ms > 50ms".into()).to_string();
        assert!(shown.contains("timed out"), "{shown}");
    }

    #[test]
    fn stats_defaults() {
        let s = SourceStats {
            top_level_count: 10,
            label_counts: [(sym("person"), 7)].into_iter().collect(),
            eq_selectivity: [(sym("name"), 0.02)].into_iter().collect(),
        };
        assert_eq!(s.count_for_label(Some(sym("person"))), 7);
        assert_eq!(s.count_for_label(Some(sym("robot"))), 0);
        assert_eq!(s.count_for_label(None), 10);
        assert!((s.selectivity(sym("name")) - 0.02).abs() < 1e-12);
        assert!((s.selectivity(sym("zzz")) - 0.1).abs() < 1e-12);
    }
}
