//! Source query capabilities.
//!
//! §3.5: "the limited query capabilities of the underlying sources may
//! prohibit even simple algebraic optimizations ... For example, the source
//! whois may not be able to evaluate the condition on 'year' that appears
//! in Qw." This module lets a wrapper declare what it can evaluate; the
//! mediator's planner checks queries against the declaration and keeps
//! unsupported conditions on its own side (a client-side filter), the
//! resolution sketched in the capabilities-based-rewriting companion paper
//! \[PGH\].
//!
//! Checks report **all** violations of a query as structured
//! [`CapViolation`] values (not just the first), so the mediator's lint
//! can surface every capability problem in one pass.
//!
//! One declaration is about volume rather than expressiveness:
//! [`Capabilities::parameterized_sets`] says the source accepts a *set* of
//! values where a `$param` stood, so the parameterized-query node can ship
//! a whole batch of tuples in one call. The set travels inside the query as
//! the reserved tail predicate `one_of(V, v1, v2, …)` (see
//! [`crate::api::one_of`]); a source without the bit refuses it.

use msl::{PatValue, Pattern, Rule, SetElem, TailItem, Term};
use oem::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// What query features a source supports.
#[derive(Clone, PartialEq, Debug)]
pub struct Capabilities {
    /// Variables allowed in label positions (schema retrieval)?
    pub label_variables: bool,
    /// Wildcard (any-depth) subpatterns?
    pub wildcards: bool,
    /// Conditions attached to rest variables (`| Rest:{<year 3>}`)?
    pub rest_conditions: bool,
    /// Subobject labels on which this source cannot evaluate *any*
    /// condition (value constants or bound variables). Conditions on these
    /// labels must stay in the mediator.
    pub unsupported_condition_labels: BTreeSet<Symbol>,
    /// Subobject labels on which every query **must** carry a condition
    /// (a constant or `$param` value). Models form-based facilities that
    /// refuse to enumerate their contents — e.g. a whois front-end whose
    /// form requires a name to search for (the binding-pattern
    /// restrictions of Békés & Szeredi's integration system). Empty for
    /// ordinary sources.
    pub required_condition_labels: BTreeSet<Symbol>,
    /// Accepts parameterized (per-tuple) queries from the datamerge
    /// engine's parameterized-query node?
    pub parameterized: bool,
    /// Are parameterized lookups *cheap* (index-backed, sub-linear) rather
    /// than scan-per-call? The optimizer uses this as the per-call cost
    /// signal §3.5 says wrappers rarely provide: a bind join into a
    /// scan-based source costs a full scan per outer tuple.
    pub parameterized_cheap: bool,
    /// Accepts a *set* of values where a `$param` stood — the query then
    /// carries `one_of(V, v1, v2, …)` tail items ([`crate::api::one_of`])
    /// and the answer exports `V` beside the other variables? With it the
    /// parameterized-query node pays one round-trip per batch of tuples
    /// instead of one per tuple.
    pub parameterized_sets: bool,
}

/// One violation of a source's declared capabilities, found in a query.
///
/// [`CapViolation::compensable`] distinguishes violations the mediator can
/// repair by stripping the condition into a client-side filter (§3.5's
/// `year` example) from those that make the pattern unanswerable outright.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CapViolation {
    /// A variable in a label position at a source without label-variable
    /// (schema query) support.
    LabelVariable {
        /// The offending label variable.
        var: Symbol,
    },
    /// A wildcard (any-depth) subpattern at a source without wildcard
    /// support.
    Wildcard,
    /// A condition attached to a rest variable at a source that cannot
    /// evaluate rest conditions.
    RestConditions,
    /// A condition (constant- or parameter-valued subpattern) on a label
    /// the source refuses to filter on. Compensable: the planner strips
    /// the condition and the mediator post-filters.
    ConditionLabel {
        /// The label the source cannot filter on.
        label: Symbol,
    },
    /// The query carries no condition on a label the source requires one
    /// on (a form-based source's mandatory input field).
    MissingRequiredCondition {
        /// The label that must be bound.
        label: Symbol,
    },
    /// A `one_of` value set at a source that takes one value per
    /// parameter ([`Capabilities::parameterized_sets`] is off).
    ValueSet,
}

impl CapViolation {
    /// Can the mediator repair this violation with a client-side filter?
    pub fn compensable(&self) -> bool {
        matches!(self, CapViolation::ConditionLabel { .. })
    }
}

impl fmt::Display for CapViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapViolation::LabelVariable { var } => write!(
                f,
                "label variables not supported by this source (schema query on '{var}')"
            ),
            CapViolation::Wildcard => {
                f.write_str("wildcard subpatterns not supported by this source")
            }
            CapViolation::RestConditions => {
                f.write_str("rest-variable conditions not supported by this source")
            }
            CapViolation::ConditionLabel { label } => {
                write!(f, "source cannot evaluate conditions on '{label}'")
            }
            CapViolation::MissingRequiredCondition { label } => {
                write!(f, "source requires a bound condition on '{label}'")
            }
            CapViolation::ValueSet => {
                f.write_str("value sets (one_of) not supported by this source")
            }
        }
    }
}

impl Default for Capabilities {
    fn default() -> Capabilities {
        Capabilities::full()
    }
}

impl Capabilities {
    /// A fully capable source.
    pub fn full() -> Capabilities {
        Capabilities {
            label_variables: true,
            wildcards: true,
            rest_conditions: true,
            unsupported_condition_labels: BTreeSet::new(),
            required_condition_labels: BTreeSet::new(),
            parameterized: true,
            parameterized_cheap: false,
            parameterized_sets: true,
        }
    }

    /// A deliberately restricted profile: no wildcards, no label variables,
    /// one value per parameter. Typical of a form-based facility like the
    /// paper's whois.
    pub fn restricted() -> Capabilities {
        Capabilities {
            label_variables: false,
            wildcards: false,
            rest_conditions: true,
            unsupported_condition_labels: BTreeSet::new(),
            required_condition_labels: BTreeSet::new(),
            parameterized: true,
            parameterized_cheap: false,
            parameterized_sets: false,
        }
    }

    /// Mark a subobject label as un-filterable at this source.
    pub fn without_condition_on(mut self, label: Symbol) -> Capabilities {
        self.unsupported_condition_labels.insert(label);
        self
    }

    /// Require every query to carry a condition on `label` (a mandatory
    /// form field).
    pub fn with_required_condition_on(mut self, label: Symbol) -> Capabilities {
        self.required_condition_labels.insert(label);
        self
    }

    /// Take one value per parameter: §3.4's parameterized-query node then
    /// sends this source one query per binding tuple, as the paper has it.
    pub fn without_parameterized_sets(mut self) -> Capabilities {
        self.parameterized_sets = false;
        self
    }

    /// All capability violations in a whole query, in pattern order.
    pub fn query_violations(&self, q: &Rule) -> Vec<CapViolation> {
        let mut out = Vec::new();
        for item in &q.tail {
            match item {
                TailItem::Match { pattern, .. } => self.collect_pattern(pattern, true, &mut out),
                TailItem::External { name, .. }
                    if !self.parameterized_sets && name.as_str() == crate::api::ONE_OF =>
                {
                    out.push(CapViolation::ValueSet)
                }
                // Any other predicate is not a question of capability:
                // `own_patterns` refuses it as a malformed source query.
                TailItem::External { .. } => {}
            }
        }
        out
    }

    /// All capability violations in one pattern. `top` marks a top-level
    /// pattern, where required-condition labels are enforced.
    pub fn pattern_violations(&self, p: &Pattern, top: bool) -> Vec<CapViolation> {
        let mut out = Vec::new();
        self.collect_pattern(p, top, &mut out);
        out
    }

    /// Check a whole query. `Err(reasons)` lists **every** violation,
    /// separated by `"; "`.
    pub fn check_query(&self, q: &Rule) -> Result<(), String> {
        render_violations(self.query_violations(q))
    }

    /// Check one pattern (recursively). `top` marks the top-level pattern,
    /// whose label is the "relation" position — label variables there are
    /// judged by the same switch.
    pub fn check_pattern(&self, p: &Pattern, top: bool) -> Result<(), String> {
        render_violations(self.pattern_violations(p, top))
    }

    fn collect_pattern(&self, p: &Pattern, top: bool, out: &mut Vec<CapViolation>) {
        if !self.label_variables {
            if let Term::Var(v) = &p.label {
                out.push(CapViolation::LabelVariable { var: *v });
            }
        }
        if let PatValue::Set(sp) = &p.value {
            for e in &sp.elements {
                match e {
                    SetElem::Pattern(inner) => {
                        self.collect_condition_label(inner, out);
                        self.collect_pattern(inner, false, out);
                    }
                    SetElem::Wildcard(inner) => {
                        if !self.wildcards {
                            out.push(CapViolation::Wildcard);
                        }
                        self.collect_condition_label(inner, out);
                        self.collect_pattern(inner, false, out);
                    }
                    SetElem::Var(_) => {}
                }
            }
            if let Some(rest) = &sp.rest {
                for c in &rest.conditions {
                    // A condition the source cannot evaluate by label gets
                    // stripped into a client-side filter before the source
                    // ever sees it, so report only the (compensable)
                    // condition-label violation for it.
                    if let Some(label) = self.unsupported_condition_label(c) {
                        out.push(CapViolation::ConditionLabel { label });
                    } else if !self.rest_conditions {
                        out.push(CapViolation::RestConditions);
                    }
                    self.collect_pattern(c, false, out);
                }
            }
        }
        if top {
            for &label in &self.required_condition_labels {
                if !pattern_has_condition_on(p, label) {
                    out.push(CapViolation::MissingRequiredCondition { label });
                }
            }
        }
    }

    /// A *condition* is a subpattern whose value is a constant or `$param`
    /// (it filters). Sources can refuse conditions on specific labels.
    fn collect_condition_label(&self, p: &Pattern, out: &mut Vec<CapViolation>) {
        if let Some(label) = self.unsupported_condition_label(p) {
            out.push(CapViolation::ConditionLabel { label });
        }
    }

    /// If `p` is a condition whose label this source cannot filter on, the
    /// label.
    fn unsupported_condition_label(&self, p: &Pattern) -> Option<Symbol> {
        condition_label(p).filter(|sym| self.unsupported_condition_labels.contains(sym))
    }

    /// Can a query with top-level pattern `p` meet a required condition on
    /// `label`? Either `p` carries one ([`pattern_has_condition_on`]), or
    /// this source takes parameterized queries and a subpattern of `p` — a
    /// set element or a rest condition — holds, under `label`, a variable
    /// `bound` accepts: a bind join then fills it with a `$param`. The one
    /// answer the answerability analysis (`E302`), chain pruning and the
    /// planner's join ordering share.
    pub fn condition_fillable(
        &self,
        p: &Pattern,
        label: Symbol,
        bound: impl Fn(Symbol) -> bool,
    ) -> bool {
        pattern_has_condition_on(p, label)
            || self.parameterized
                && subpatterns(p).any(|c| {
                    matches!(&c.label, Term::Const(v) if v.as_str_sym() == Some(label))
                        && matches!(&c.value, PatValue::Term(Term::Var(v)) if bound(*v))
                })
    }
}

/// If `p` is a condition (constant- or parameter-valued subpattern) with a
/// constant label, that label.
pub fn condition_label(p: &Pattern) -> Option<Symbol> {
    let is_condition = matches!(&p.value, PatValue::Term(Term::Const(_) | Term::Param(_)));
    if !is_condition {
        return None;
    }
    let Term::Const(v) = &p.label else {
        return None;
    };
    v.as_str_sym()
}

/// Does the top-level pattern `p` carry a condition on `label`, either as
/// an explicit subpattern or as a rest condition?
pub fn pattern_has_condition_on(p: &Pattern, label: Symbol) -> bool {
    subpatterns(p).any(|c| condition_label(c) == Some(label))
}

/// The direct subpatterns of `p`: its set elements (wildcards included),
/// then its rest conditions. Empty for an atomic-valued pattern.
pub fn subpatterns(p: &Pattern) -> impl Iterator<Item = &Pattern> {
    let (elements, rest) = match &p.value {
        PatValue::Set(sp) => (&sp.elements[..], sp.rest.as_ref()),
        PatValue::Term(_) => (&[][..], None),
    };
    let elements = elements.iter().filter_map(|e| match e {
        SetElem::Pattern(inner) | SetElem::Wildcard(inner) => Some(inner),
        SetElem::Var(_) => None,
    });
    elements.chain(rest.into_iter().flat_map(|r| r.conditions.iter()))
}

fn render_violations(violations: Vec<CapViolation>) -> Result<(), String> {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_query;
    use oem::sym;

    #[test]
    fn full_capabilities_accept_everything() {
        let c = Capabilities::full();
        let q = parse_query("X :- X:<V {* <year 3> | R:{<gpa 4>}}>@s").unwrap();
        c.check_query(&q).unwrap();
        assert!(c.query_violations(&q).is_empty());
    }

    #[test]
    fn restricted_rejects_wildcards_and_label_vars() {
        let c = Capabilities::restricted();
        let wild = parse_query("X :- X:<p {* <year 3>}>@s").unwrap();
        assert!(c.check_query(&wild).is_err());
        let labelvar = parse_query("X :- X:<V {}>@s").unwrap();
        assert!(c.check_query(&labelvar).is_err());
        let nested_labelvar = parse_query("X :- X:<p {<L V>}>@s").unwrap();
        assert!(c.check_query(&nested_labelvar).is_err());
    }

    #[test]
    fn unsupported_condition_labels() {
        // The paper's example: whois cannot evaluate the 'year' condition.
        let c = Capabilities::full().without_condition_on(sym("year"));
        let q = parse_query("X :- X:<person {<year 3>}>@whois").unwrap();
        let err = c.check_query(&q).unwrap_err();
        assert!(err.contains("year"), "{err}");
        // Retrieving year values (no condition) is still fine.
        let retrieve = parse_query("X :- X:<person {<year Y>}>@whois").unwrap();
        c.check_query(&retrieve).unwrap();
        // The condition hidden inside rest conditions is also caught (Qw!).
        let qw = parse_query("X :- X:<person {<name N> | R:{<year 3>}}>@whois").unwrap();
        assert!(c.check_query(&qw).is_err());
    }

    #[test]
    fn all_violations_are_collected_not_just_the_first() {
        let c = Capabilities::restricted().without_condition_on(sym("year"));
        let q = parse_query("X :- X:<V {<L W> <year 3> | R:{<gpa 4>}}>@s").unwrap();
        let vs = c.query_violations(&q);
        assert_eq!(
            vs,
            vec![
                CapViolation::LabelVariable { var: sym("V") },
                CapViolation::LabelVariable { var: sym("L") },
                CapViolation::ConditionLabel { label: sym("year") },
            ],
            "{vs:?}"
        );
        // restricted() still supports rest conditions, so <gpa 4> is fine.
        let err = c.check_query(&q).unwrap_err();
        assert!(
            err.contains("'V'") && err.contains("'L'") && err.contains("year"),
            "{err}"
        );
        assert!(vs[2].compensable() && !vs[0].compensable());
    }

    #[test]
    fn strippable_rest_condition_is_only_a_condition_label_violation() {
        // Without rest-condition support, a rest condition the planner
        // would strip anyway (unsupported label) reports as compensable.
        let mut c = Capabilities::full().without_condition_on(sym("year"));
        c.rest_conditions = false;
        let q = parse_query("X :- X:<person {<name N> | R:{<year 3> <gpa 4>}}>@s").unwrap();
        let vs = c.query_violations(&q);
        assert_eq!(
            vs,
            vec![
                CapViolation::ConditionLabel { label: sym("year") },
                CapViolation::RestConditions,
            ]
        );
    }

    #[test]
    fn value_sets_need_the_bit() {
        let q = parse_query("X :- X:<person {<name N>}>@s AND one_of(N, 'A', 'B')").unwrap();
        Capabilities::full().check_query(&q).unwrap();
        for caps in [
            Capabilities::restricted(),
            Capabilities::full().without_parameterized_sets(),
        ] {
            assert_eq!(caps.query_violations(&q), vec![CapViolation::ValueSet]);
            assert!(!CapViolation::ValueSet.compensable());
            let err = caps.check_query(&q).unwrap_err();
            assert!(err.contains("one_of"), "{err}");
        }
    }

    #[test]
    fn required_condition_labels() {
        let c = Capabilities::restricted().with_required_condition_on(sym("name"));
        // Enumerating the form-based source without a name is refused...
        let enumerate = parse_query("X :- X:<person {<dept 'CS'>}>@whois").unwrap();
        let err = c.check_query(&enumerate).unwrap_err();
        assert!(
            err.contains("requires a bound condition on 'name'"),
            "{err}"
        );
        // ...a constant condition satisfies it...
        let by_const = parse_query("X :- X:<person {<name 'Joe Chung'>}>@whois").unwrap();
        c.check_query(&by_const).unwrap();
        // ...and so does a $param slot (bind-join parameterization) or a
        // rest condition.
        let by_param = parse_query("X :- X:<person {<name $n>}>@whois").unwrap();
        c.check_query(&by_param).unwrap();
        let by_rest = parse_query("X :- X:<person {<dept D> | R:{<name 'Joe'>}}>@whois").unwrap();
        c.check_query(&by_rest).unwrap();
        // A free variable on the label does not count as a condition.
        let free = parse_query("X :- X:<person {<name N>}>@whois").unwrap();
        assert!(c.check_query(&free).is_err());
    }

    #[test]
    fn a_bound_variable_fills_a_required_condition() {
        let c = Capabilities::restricted().with_required_condition_on(sym("name"));
        let name = sym("name");
        let top = |q: &str| match parse_query(q).unwrap().tail.remove(0) {
            TailItem::Match { pattern, .. } => pattern,
            TailItem::External { .. } => unreachable!(),
        };
        let by_const = top("X :- X:<person {<name 'Joe'>}>@s");
        assert!(c.condition_fillable(&by_const, name, |_| false));
        // A set element or a rest condition, once its variable is bound.
        for q in [
            "X :- X:<person {<name N>}>@s",
            "X :- X:<person {<dept D> | R:{<name N>}}>@s",
        ] {
            let p = top(q);
            assert!(!c.condition_fillable(&p, name, |_| false), "{q}");
            assert!(c.condition_fillable(&p, name, |v| v == sym("N")), "{q}");
            // Not at a source that takes no parameterized queries.
            let mut fixed = c.clone();
            fixed.parameterized = false;
            assert!(!fixed.condition_fillable(&p, name, |_| true), "{q}");
        }
        // A bound variable under another label fills nothing.
        let other = top("X :- X:<person {<dept N>}>@s");
        assert!(!c.condition_fillable(&other, name, |_| true));
    }
}
