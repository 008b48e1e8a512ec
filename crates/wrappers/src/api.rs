//! The wrapper interface.
//!
//! A wrapper accepts an MSL query — a single rule whose tail patterns refer
//! to this source — and returns an [`ObjectStore`] whose top-level objects
//! are the constructed results. This mirrors the paper's architecture: the
//! MSI's query and parameterized-query nodes send source queries like `Qw`
//! and `Qcs` (§3.4) and receive OEM objects back.
//!
//! ## Answers as rows
//!
//! The queries the mediator's planner sends export variable bindings: the
//! head `<bind_for_whois {<bind_for_N N> <bind_for_Rest1 Rest1>}>` builds
//! one *carrier* subobject per variable, labelled `bind_for_<var>`
//! ([`carrier_label`]), and the datamerge engine reads each variable's
//! binding back out of it. [`Wrapper::query_rows`] asks for those bindings
//! directly: one [`Rows`] row per answer object, one value per
//! [`ExtractVar`] in order, over the store its object ids point into. The
//! provided method builds the answer and reads the carriers in place
//! ([`read_carriers`]); a wrapper that evaluates into bindings anyway
//! overrides it and never builds the carrier objects, and its
//! [`Wrapper::query`] is the same rows constructed through
//! [`construct_answer`]. The two forms agree value for value: what a
//! carrier holds is what the row holds.

use crate::capabilities::Capabilities;
use engine::bindings::{Bindings, BoundValue};
use engine::construct::Constructor;
use engine::matcher::{atomic_eq, atomic_key};
use msl::{Head, Rule, TailItem, Term};
use oem::{ObjId, ObjectStore, Symbol, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

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

    /// Answer a query whose head is the carrier set of `vars` (see the
    /// module docs) as rows of those variables' values: what
    /// [`read_carriers`] reads out of [`Wrapper::query`]'s answer, row for
    /// row and in order. The provided method does exactly that, for any
    /// head; a wrapper may override it to skip building the carriers, as
    /// long as the rows stay the same. An override reads each variable's
    /// binding by name, so it may refuse a head that does not export
    /// every one of `vars`.
    fn query_rows(&self, q: &Rule, vars: &[ExtractVar]) -> Result<Rows, WrapperError> {
        let answer = self.query(q)?;
        let rows = read_carriers(&answer, answer.top_level(), vars)?;
        Ok(Rows {
            rows,
            store: Arc::new(answer),
        })
    }
}

/// How a variable's binding is recovered from its `bind_for_<var>`
/// carrier in a source answer object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// Atomic carrier → atom binding; set carrier → object-set binding
    /// (rest variables and set-valued value variables). The head exports
    /// it as `<bind_for_V V>`.
    Scalar,
    /// The variable was an object variable (`X:`); its carrier is a
    /// singleton set holding the object itself, `<bind_for_X {X}>`.
    Object,
}

/// A variable extracted from source answers.
#[derive(Clone, PartialEq, Debug)]
pub struct ExtractVar {
    /// The variable's name.
    pub var: Symbol,
    /// How its binding is recovered from the carrier subobject.
    pub kind: VarKind,
}

/// A source answer as binding rows: per answer object, the values of the
/// extraction variables in order. Atoms are values; an object variable
/// holds an [`BoundValue::Obj`] and a set variable an
/// [`BoundValue::ObjSet`], whose ids point into `store` — the source's own
/// objects, or the answer [`Wrapper::query`] built. Sets list their
/// members in the carrier's order.
#[derive(Clone)]
pub struct Rows {
    /// One row per answer object, in the answer's order.
    pub rows: Vec<Vec<BoundValue>>,
    /// The store the rows' object ids point into.
    pub store: Arc<ObjectStore>,
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rows")
            .field("rows", &self.rows)
            .field("store_objects", &self.store.len())
            .finish()
    }
}

/// Label of the subobject that carries `var`'s binding in a source answer.
/// Formats and interns: resolve it once per answer, not once per object.
pub fn carrier_label(var: Symbol) -> Symbol {
    Symbol::intern(&format!("bind_for_{var}"))
}

/// The child of `root` labelled `label`: the carrier, named by
/// [`carrier_label`], of one variable's binding in a source answer object.
fn find_carrier(store: &ObjectStore, root: ObjId, label: Symbol) -> Option<ObjId> {
    store
        .children(root)
        .iter()
        .copied()
        .find(|&c| store.get(c).label == label)
}

/// The carrier reader: the rows of `vars` the answer objects `roots` of
/// `store` carry, read in place — nothing is copied, the rows' object ids
/// are `store`'s. An object variable takes the first member of its
/// carrier, any other variable the carrier's atom or its members.
pub fn read_carriers(
    store: &ObjectStore,
    roots: &[ObjId],
    vars: &[ExtractVar],
) -> Result<Vec<Vec<BoundValue>>, WrapperError> {
    let carriers: Vec<Symbol> = vars.iter().map(|v| carrier_label(v.var)).collect();
    let mut rows = Vec::with_capacity(roots.len());
    for &root in roots {
        let mut row = Vec::with_capacity(vars.len());
        for (v, &label) in vars.iter().zip(&carriers) {
            let Some(carrier) = find_carrier(store, root, label) else {
                return Err(WrapperError::Construct(format!(
                    "source result lacks the {label} carrier object"
                )));
            };
            row.push(match (&store.get(carrier).value, v.kind) {
                (Value::Set(kids), VarKind::Object) => match kids.first() {
                    Some(&first) => BoundValue::Obj(first),
                    None => {
                        return Err(WrapperError::Construct(format!(
                            "empty carrier for object variable {}",
                            v.var
                        )))
                    }
                },
                (Value::Set(kids), VarKind::Scalar) => BoundValue::ObjSet(kids.as_slice().into()),
                (atomic, _) => BoundValue::Atom(atomic.clone()),
            });
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Construct `head` once per row of `vars` over `store`, into a fresh
/// answer store whose generated oids carry `name`: what a wrapper's
/// [`Wrapper::query`] returns, and what the mediator's answer cache keeps
/// for a row answer.
pub fn construct_answer(
    name: Symbol,
    head: &Head,
    vars: &[Symbol],
    store: &ObjectStore,
    rows: &[Vec<BoundValue>],
) -> Result<ObjectStore, WrapperError> {
    let mut out = ObjectStore::with_oid_prefix(&format!("{name}_r"));
    let mut ctor = Constructor::new(store);
    for row in rows {
        let mut b = Bindings::new();
        for (&var, value) in vars.iter().zip(row) {
            b.bind_mut(var, value.clone());
        }
        ctor.construct_head(head, &b, &mut out)
            .map_err(|e| WrapperError::Construct(e.to_string()))?;
    }
    Ok(out)
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
        self.admit_mut(&mut b, &mut Vec::new()).then_some(b)
    }

    /// [`ValueSets::admit`] in place: `false` rejects `b`; otherwise each
    /// rebound variable's found value is pushed on `displaced`, for the
    /// caller to put back (a rejected `b` may have some rebound too).
    pub fn admit_mut(&self, b: &mut Bindings, displaced: &mut Vec<(Symbol, BoundValue)>) -> bool {
        for (var, set) in &self.sets {
            let found = match b.get(*var) {
                Some(BoundValue::Atom(found)) => found,
                Some(_) => return false,
                None => continue, // bound by a later pattern
            };
            let Some(want) = listed(set, found) else {
                return false;
            };
            if want != found {
                let want = BoundValue::Atom(want.clone());
                displaced.extend(b.replace(*var, want).map(|old| (*var, old)));
            }
        }
        true
    }

    /// [`ValueSets::admit_mut`] for a solution of one pattern that binds
    /// `vars` to the atoms `vals` and any other variable to a set: `false`
    /// rejects it, otherwise each restricted atom is rebound to the listed
    /// value it equals.
    pub(crate) fn admit_atoms(&self, vars: &[Symbol], vals: &mut [Value]) -> bool {
        for (var, set) in &self.sets {
            let Some(i) = vars.iter().position(|v| v == var) else {
                return false;
            };
            let Some(want) = listed(set, &vals[i]) else {
                return false;
            };
            vals[i] = want.clone();
        }
        true
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
    fn the_carrier_reader_refuses_what_it_cannot_read() {
        let mut answer = ObjectStore::new();
        let atom = answer.atom("bind_for_N", "n");
        let empty = answer.set("bind_for_X", vec![]);
        let top = answer.set("bind_for_s", vec![atom, empty]);
        answer.add_top(top);
        let var = |v: &str, kind| ExtractVar { var: sym(v), kind };
        let read = |v: ExtractVar| read_carriers(&answer, &[top], &[v]);
        assert_eq!(
            read(var("N", VarKind::Scalar)).unwrap(),
            [[BoundValue::Atom(Value::str("n"))]]
        );
        assert_eq!(
            read(var("X", VarKind::Scalar)).unwrap(),
            [[BoundValue::ObjSet(Arc::new([]))]]
        );
        // An answer without the carrier cannot be attributed to a binding.
        let err = read(var("Y", VarKind::Scalar)).unwrap_err();
        assert!(matches!(err, WrapperError::Construct(_)), "{err}");
        assert!(
            err.to_string().contains("lacks the bind_for_Y carrier"),
            "{err}"
        );
        // An object variable's carrier holds the object.
        let err = read(var("X", VarKind::Object)).unwrap_err();
        assert!(matches!(err, WrapperError::Construct(_)), "{err}");
        assert!(
            err.to_string()
                .contains("empty carrier for object variable X"),
            "{err}"
        );
    }

    /// A source whose every answer object lacks its carriers.
    struct Bare(Capabilities);

    impl Wrapper for Bare {
        fn name(&self) -> Symbol {
            sym("s")
        }
        fn capabilities(&self) -> &Capabilities {
            &self.0
        }
        fn query(&self, _: &Rule) -> Result<ObjectStore, WrapperError> {
            let mut answer = ObjectStore::new();
            let top = answer.set("bind_for_s", vec![]);
            answer.add_top(top);
            Ok(answer)
        }
    }

    #[test]
    fn the_provided_rows_refuse_an_answer_without_its_carrier() {
        let q = parse_query("<bind_for_s {<bind_for_Y Y>}> :- <p {<y Y>}>@s").unwrap();
        let vars = [ExtractVar {
            var: sym("Y"),
            kind: VarKind::Scalar,
        }];
        let err = Bare(Capabilities::full())
            .query_rows(&q, &vars)
            .unwrap_err();
        assert!(
            err.to_string().contains("lacks the bind_for_Y carrier"),
            "{err}"
        );
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
