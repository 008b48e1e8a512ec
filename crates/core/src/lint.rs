//! Mediator-level lints.
//!
//! [`msl::lint`] checks everything decidable from the specification text
//! alone. This module adds the passes that need the mediator's context:
//!
//! * **Capability feasibility** (§3.5): each tail pattern is checked
//!   against the registered source's declared [`Capabilities`]. Violations
//!   the mediator can repair by keeping a client-side filter (conditions on
//!   labels the source cannot evaluate — the paper's `year` example) are
//!   warnings (`W201`); violations the planner would reject outright
//!   (label variables, wildcards, rest-variable conditions at sources
//!   without those features) are errors (`E202`).
//! * **Redundant rules** (§3.2): rules that are duplicates up to variable
//!   renaming (`W103`) or whose head is contained in an earlier rule's
//!   head over an identical tail (`W104`), using the same containment test
//!   the view expander applies to prune non-minimal unifiers.
//!
//! [`crate::analysis::analyze_spec`] runs them, with the text-only lints
//! and specflow, over the one parse of a specification.

use crate::analysis::SourceInfo;
use engine::containment::contained_in;
use engine::unify::Unifier;
use msl::diag::{codes, Diagnostic, Span};
use msl::{Head, Rule, Spec, SpecSpans, TailItem, VisitMut};
use oem::Symbol;
use std::collections::BTreeMap;

/// Every [`msl::lint`] pass plus the mediator-level capability and
/// redundancy passes, unsorted. `mediator` is the mediator's own name
/// (self-references in recursive specifications are answered by
/// expansion, not by a source, so they are skipped). Sources absent from
/// `sources` are skipped — [`crate::Mediator::new`] rejects unknown
/// sources before checking, and `medmaker check` may simply have no
/// sources to check against.
pub(crate) fn lint_spec_with_sources(
    spec: &Spec,
    spans: &SpecSpans,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
) -> Vec<Diagnostic> {
    let mut out = msl::lint::lint_spec(spec, spans);
    capability_lints(spec, spans, mediator, sources, &mut out);
    redundancy_lints(spec, spans, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Capability feasibility (§3.5)
// ---------------------------------------------------------------------------

fn capability_lints(
    spec: &Spec,
    spans: &SpecSpans,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
    out: &mut Vec<Diagnostic>,
) {
    for (ri, rule) in spec.rules.iter().enumerate() {
        for (ti, item) in rule.tail.iter().enumerate() {
            let TailItem::Match {
                pattern,
                source: Some(src),
            } = item
            else {
                continue;
            };
            if *src == mediator {
                continue;
            }
            let Some(info) = sources.get(src) else {
                continue;
            };
            let span = spans.tail_item(ri, ti);
            for v in info.caps.pattern_violations(pattern, true) {
                if let Some(d) = violation_diag(&v, *src, span) {
                    out.push(d);
                }
            }
        }
    }
}

/// Render one structured [`CapViolation`] as a lint finding, with the
/// planner's compensation semantics folded in: a condition the planner
/// would strip into a client-side filter ([`CapViolation::compensable`])
/// is a warning (`W201`); anything that would survive stripping and still
/// violate the declaration is an error (`E202`). Missing *required*
/// conditions are not reported per pattern — the planner can often satisfy
/// them with a bind join, so the answerability analysis (`E302`) owns that
/// judgement at the view level.
fn violation_diag(v: &wrappers::CapViolation, src: Symbol, span: Span) -> Option<Diagnostic> {
    use wrappers::CapViolation;
    Some(match v {
        CapViolation::ConditionLabel { label } => Diagnostic::warning(
            codes::CAPABILITY_COMPENSATED,
            span,
            format!(
                "source '{src}' cannot evaluate conditions on '{label}'; \
                 the mediator will fetch unfiltered objects and apply a \
                 client-side filter"
            ),
        )
        .with_help(
            "expect a full retrieval from this source for every query \
             through this rule",
        ),
        CapViolation::LabelVariable { var } => Diagnostic::error(
            codes::CAPABILITY_UNANSWERABLE,
            span,
            format!(
                "source '{src}' does not support label variables; \
                 the schema query on '{var}' cannot be answered"
            ),
        )
        .with_help("replace the label variable with a constant label"),
        CapViolation::Wildcard => Diagnostic::error(
            codes::CAPABILITY_UNANSWERABLE,
            span,
            format!(
                "source '{src}' does not support wildcard \
                 (any-depth) subpatterns"
            ),
        )
        .with_help("anchor the subpattern at a fixed path"),
        CapViolation::RestConditions => Diagnostic::error(
            codes::CAPABILITY_UNANSWERABLE,
            span,
            format!(
                "source '{src}' does not support conditions on rest \
                 variables"
            ),
        )
        .with_help("move the condition into the explicit subpattern list"),
        // Specification rules carry no value sets: only the datamerge
        // engine writes `one_of` into a source query.
        CapViolation::MissingRequiredCondition { .. } | CapViolation::ValueSet => return None,
    })
}

// ---------------------------------------------------------------------------
// Redundant rules (§3.2 containment)
// ---------------------------------------------------------------------------

fn redundancy_lints(spec: &Spec, spans: &SpecSpans, out: &mut Vec<Diagnostic>) {
    let canon: Vec<Rule> = spec.rules.iter().map(canonical).collect();
    let u = Unifier::default();
    // Each rule is reported at most once, against its first match.
    let mut flagged = vec![false; canon.len()];
    for i in 1..canon.len() {
        for j in 0..i {
            if flagged[i] {
                break;
            }
            if canon[i] == canon[j] {
                flagged[i] = true;
                out.push(
                    Diagnostic::warning(
                        codes::DUPLICATE_RULE,
                        spans.rule(i),
                        format!(
                            "rule is a duplicate of rule {} (identical up to \
                             variable renaming)",
                            j + 1
                        ),
                    )
                    .with_help(
                        "MSL semantics are set-oriented; the duplicate \
                         contributes no additional objects",
                    ),
                );
                continue;
            }
            if canon[i].tail != canon[j].tail {
                continue;
            }
            let (Head::Pattern(hi), Head::Pattern(hj)) = (&canon[i].head, &canon[j].head) else {
                continue;
            };
            // Identical tails bind identically; if one head's pattern is
            // contained in the other's, the narrower rule is subsumed.
            if contained_in(hi, hj, &u) && !flagged[i] {
                flagged[i] = true;
                out.push(subsumed(spans.rule(i), j + 1));
            } else if contained_in(hj, hi, &u) && !flagged[j] {
                flagged[j] = true;
                out.push(subsumed(spans.rule(j), i + 1));
            }
        }
    }
}

fn subsumed(span: Span, by_rule: usize) -> Diagnostic {
    Diagnostic::warning(
        codes::SUBSUMED_RULE,
        span,
        format!(
            "rule is subsumed by rule {by_rule}: the tails are identical and \
             this rule's head pattern is contained in that rule's head (§3.2)"
        ),
    )
    .with_help("every query this rule helps answer is already answered by the subsuming rule")
}

/// Rename a rule's variables to a canonical sequence (`__c0`, `__c1`, ...)
/// in order of first occurrence **in the tail** (range restriction
/// guarantees every head variable also occurs in the tail, so tail order
/// covers them all; head-first order would let two rules with identical
/// tails but different heads canonicalize their shared tail differently).
fn canonical(rule: &Rule) -> Rule {
    let mut map: BTreeMap<Symbol, Symbol> = BTreeMap::new();
    for v in rule.tail_variables().into_iter().chain(rule.variables()) {
        let next = map.len();
        map.entry(v)
            .or_insert_with(|| Symbol::intern(&format!("__c{next}")));
    }
    let mut out = rule.clone();
    out.visit_mut(&mut |slot| {
        if let Some(v) = slot.var() {
            *v = map[&*v];
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;
    use wrappers::Capabilities;

    fn caps_for(src: &str, caps: Capabilities) -> BTreeMap<Symbol, SourceInfo> {
        let info = SourceInfo {
            caps,
            summary: None,
        };
        [(sym(src), info)].into()
    }

    /// Parse `text` and lint it against `sources`, sorted as the analysis
    /// reports it.
    fn lint_text(text: &str, sources: &BTreeMap<Symbol, SourceInfo>) -> Vec<Diagnostic> {
        let (spec, spans) = msl::parse_spec_spanned(text).unwrap();
        let mut diags = lint_spec_with_sources(&spec, &spans, sym("med"), sources);
        msl::diag::sort(&mut diags);
        diags
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_spec_with_capable_source_has_no_diagnostics() {
        let diags = lint_text(
            "<v {<n N>}> :- <person {<name N>}>@src",
            &caps_for("src", Capabilities::full()),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unsupported_condition_label_is_compensated_warning() {
        // The paper's whois/year example: answerable, but only by a
        // client-side filter.
        let diags = lint_text(
            "<v {<n N>}> :- <person {<name N> <year 3>}>@whois",
            &caps_for(
                "whois",
                Capabilities::full().without_condition_on(sym("year")),
            ),
        );
        assert_eq!(codes_of(&diags), vec![codes::CAPABILITY_COMPENSATED]);
        let d = &diags[0];
        assert!(!d.is_error());
        assert!(d.message.contains("year"), "{}", d.message);
        assert!(d.message.contains("client-side"), "{}", d.message);
        assert!(!d.span.is_empty());
    }

    #[test]
    fn condition_inside_rest_is_also_compensated() {
        let diags = lint_text(
            "<v {<n N> R}> :- <person {<name N> | R:{<year 3>}}>@whois",
            &caps_for(
                "whois",
                Capabilities::full().without_condition_on(sym("year")),
            ),
        );
        assert_eq!(codes_of(&diags), vec![codes::CAPABILITY_COMPENSATED]);
    }

    #[test]
    fn label_variable_at_incapable_source_is_error() {
        let diags = lint_text(
            "<v {<l L> <x X>}> :- <person {<L X>}>@whois",
            &caps_for("whois", Capabilities::restricted()),
        );
        assert_eq!(codes_of(&diags), vec![codes::CAPABILITY_UNANSWERABLE]);
        assert!(diags[0].is_error());
        assert!(
            diags[0].message.contains("label variables"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn wildcard_at_incapable_source_is_error() {
        let diags = lint_text(
            "<v {<y Y>}> :- <p {* <year Y>}>@s",
            &caps_for("s", Capabilities::restricted()),
        );
        assert_eq!(codes_of(&diags), vec![codes::CAPABILITY_UNANSWERABLE]);
        assert!(
            diags[0].message.contains("wildcard"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn retrieval_rest_condition_without_support_is_error() {
        let mut c = Capabilities::full();
        c.rest_conditions = false;
        // `<year Y>` inside the rest spec is a retrieval, not a strippable
        // condition — the source would have to evaluate it.
        let diags = lint_text(
            "<v {<n N> <y Y> R}> :- <p {<n N> | R:{<year Y>}}>@s",
            &caps_for("s", c),
        );
        assert_eq!(codes_of(&diags), vec![codes::CAPABILITY_UNANSWERABLE]);
        assert!(diags[0].message.contains("rest"), "{}", diags[0].message);
    }

    #[test]
    fn strippable_rest_condition_without_support_is_only_a_warning() {
        let mut c = Capabilities::full().without_condition_on(sym("year"));
        c.rest_conditions = false;
        // The year condition is stripped into a client-side filter before
        // the source sees the query, so no error.
        let diags = lint_text(
            "<v {<n N> R}> :- <p {<n N> | R:{<year 3>}}>@s",
            &caps_for("s", c),
        );
        assert_eq!(codes_of(&diags), vec![codes::CAPABILITY_COMPENSATED]);
    }

    #[test]
    fn self_references_and_unknown_sources_are_skipped() {
        let diags = lint_text(
            "<anc {<of X> <is Y>}> :- <parent {<of X> <is Y>}>@src\n\
             <anc {<of X> <is Z>}> :- <parent {<of X> <is Y>}>@src \
             AND <anc {<of Y> <is Z>}>@med",
            &BTreeMap::new(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn duplicate_rule_up_to_renaming_flagged() {
        let diags = lint_text(
            "<v {<n N>}> :- <person {<name N>}>@s\n\
             <v {<n M>}> :- <person {<name M>}>@s",
            &BTreeMap::new(),
        );
        assert_eq!(codes_of(&diags), vec![codes::DUPLICATE_RULE]);
        assert!(diags[0].message.contains("rule 1"), "{}", diags[0].message);
        assert!(!diags[0].span.is_empty());
    }

    #[test]
    fn subsumed_rule_flagged_whichever_order() {
        // Second rule's head is strictly narrower over the same tail.
        // (The narrow rule also earns a W102 for its now-unused `N`; this
        // test only cares about the redundancy finding.)
        fn subsumed_of(spec: &str) -> Vec<Diagnostic> {
            let diags = lint_text(spec, &BTreeMap::new());
            diags
                .into_iter()
                .filter(|d| d.code == codes::SUBSUMED_RULE)
                .collect()
        }
        let diags = subsumed_of(
            "<v {<n N>}> :- <person {<name N>}>@s\n\
             <v {<n 'Joe'>}> :- <person {<name N>}>@s",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("rule 1"), "{}", diags[0].message);

        // Same spec, rules swapped: the narrower (now first) rule is the
        // one reported, as subsumed by rule 2.
        let diags = subsumed_of(
            "<v {<n 'Joe'>}> :- <person {<name N>}>@s\n\
             <v {<n N>}> :- <person {<name N>}>@s",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("rule 2"), "{}", diags[0].message);
    }

    #[test]
    fn different_tails_are_not_redundant() {
        let diags = lint_text(
            "<v {<n N>}> :- <person {<name N>}>@s\n\
             <v {<n N>}> :- <employee {<name N>}>@s",
            &BTreeMap::new(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn ms1_is_clean_under_scenario_capabilities() {
        let whois = wrappers::scenario::whois_wrapper();
        let cs = wrappers::scenario::cs_wrapper();
        let sources = [
            (sym("whois"), SourceInfo::of_wrapper(&whois)),
            (sym("cs"), SourceInfo::of_wrapper(&cs)),
        ]
        .into();
        let diags = lint_text(wrappers::scenario::MS1, &sources);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
