//! The View Expander & Algebraic Optimizer (§3.2–3.3).
//!
//! "The VE&AO matches the query against the mediator specification rules
//! and rewrites the query so that references to the virtual mediator
//! objects are replaced by references to source objects." Two steps:
//!
//! 1. match each mediator-targeted query condition against every rule head
//!    (after renaming apart, footnote 7), producing **unifiers**;
//! 2. for every combination of unifiers (one per condition), emit a logical
//!    datamerge rule — head from the transformed query head, tail from the
//!    conjunction of the transformed rule tails (plus pass-through items).
//!
//! Condition pushdown falls out of the unifier machinery: a mapping
//! `Rest1 ↦ {<year 3>}` attaches `<year 3>` to the tail's `| Rest1`,
//! merging with any conditions already present (§3.3).

use crate::error::{MedError, Result};
use crate::logical::LogicalProgram;
use crate::spec::MediatorSpec;
use engine::subst::{subst, Subst};
use engine::unify::{unify_query_with_head, Unifier, UnifyMode};
use msl::rename::{rename_rule, Renamer};
use msl::{Head, PatValue, Pattern, RestSpec, Rule, SetElem, SetPattern, TailItem, Term};
use oem::Symbol;

/// Expand `query` against `spec`, producing the logical datamerge program.
///
/// Query `Match` items annotated with the mediator's name (or with no
/// annotation) are expanded; items naming other sources and external
/// predicates pass through to the datamerge rules unchanged (modulo
/// substitution).
pub fn expand(query: &Rule, spec: &MediatorSpec, mode: UnifyMode) -> Result<LogicalProgram> {
    if spec.is_recursive() {
        return Err(MedError::Expansion(format!(
            "specification of '{}' is recursive; use fixpoint evaluation",
            spec.name
        )));
    }

    // One expansion state per combination of per-condition choices.
    #[derive(Clone)]
    struct St {
        subst: Subst,
        tail: Vec<TailItem>,
        unifiers: Vec<Unifier>,
    }
    let mut states = vec![St {
        subst: Subst::new(),
        tail: Vec::new(),
        unifiers: Vec::new(),
    }];

    let mut renamer = Renamer::new();
    for item in &query.tail {
        let mut next: Vec<St> = Vec::new();
        match item {
            TailItem::Match { pattern, source }
                if source.is_none() || *source == Some(spec.name) =>
            {
                for rule in &spec.spec.rules {
                    let fresh = rename_rule(rule, &renamer.fresh());
                    let Head::Pattern(head_pat) = &fresh.head else {
                        continue; // specification heads are patterns
                    };
                    for u in unify_query_with_head(pattern, head_pat, mode) {
                        for st in &states {
                            let Some(merged) = merge_substs(&st.subst, &u.subst) else {
                                continue;
                            };
                            let mut tail = st.tail.clone();
                            for t in &fresh.tail {
                                tail.push(attach_rest_conds(t, &u));
                            }
                            let mut unifiers = st.unifiers.clone();
                            unifiers.push(u.clone());
                            next.push(St {
                                subst: merged,
                                tail,
                                unifiers,
                            });
                        }
                    }
                }
            }
            other => {
                for st in &states {
                    let mut st2 = st.clone();
                    st2.tail.push(other.clone());
                    next.push(st2);
                }
            }
        }
        states = next;
        if states.is_empty() {
            return Ok(LogicalProgram::default());
        }
    }

    // Build one datamerge rule per surviving state.
    let mut program = LogicalProgram::default();
    for st in states {
        let head = transform_head(&query.head, &st.subst, &st.unifiers)?;
        let tail: Vec<TailItem> = st.tail.iter().map(|t| subst(t, &st.subst)).collect();
        let rule = Rule { head, tail };
        // Dedup identical rules (different choices can coincide).
        if !program.rules.contains(&rule) {
            program.rules.push(rule);
            program.unifiers.push(st.unifiers);
        }
    }
    Ok(program)
}

/// Merge two substitutions, unifying on conflicts (two conditions can bind
/// the same query variable to different rule variables — those rule
/// variables must then be identified).
fn merge_substs(a: &Subst, b: &Subst) -> Option<Subst> {
    let mut out = a.clone();
    for (v, t) in b {
        let existing = out.get(v).cloned();
        match existing {
            None => {
                out.insert(*v, t.clone());
            }
            Some(e) => {
                out = unify_into(&e, t, out)?;
            }
        }
    }
    Some(out)
}

fn unify_into(a: &Term, b: &Term, mut s: Subst) -> Option<Subst> {
    let ra = subst(a, &s);
    let rb = subst(b, &s);
    match (&ra, &rb) {
        (Term::Const(x), Term::Const(y)) => {
            if engine::matcher::atomic_eq(x, y) {
                Some(s)
            } else {
                None
            }
        }
        (Term::Var(v), Term::Var(w)) if v == w => Some(s),
        (Term::Var(v), other) => {
            s.insert(*v, other.clone());
            Some(s)
        }
        (other, Term::Var(w)) => {
            s.insert(*w, other.clone());
            Some(s)
        }
        (Term::Func(f, fa), Term::Func(g, ga)) if f == g && fa.len() == ga.len() => {
            let mut cur = s;
            for (x, y) in fa.iter().zip(ga) {
                cur = unify_into(x, y, cur)?;
            }
            Some(cur)
        }
        _ => None,
    }
}

/// Attach a unifier's rest-condition mappings to the rest variables of a
/// tail item ("mappings of the form Rest1 ↦ {<year 3>} cause the attachment
/// of the conditions ... to the specified variable", §3.3).
fn attach_rest_conds(item: &TailItem, u: &Unifier) -> TailItem {
    match item {
        TailItem::External { .. } => item.clone(),
        TailItem::Match { pattern, source } => TailItem::Match {
            pattern: attach_to_pattern(pattern, u),
            source: *source,
        },
    }
}

fn attach_to_pattern(p: &Pattern, u: &Unifier) -> Pattern {
    let value = match &p.value {
        PatValue::Term(t) => PatValue::Term(t.clone()),
        PatValue::Set(sp) => {
            let elements = sp
                .elements
                .iter()
                .map(|e| match e {
                    SetElem::Pattern(q) => SetElem::Pattern(attach_to_pattern(q, u)),
                    SetElem::Wildcard(q) => SetElem::Wildcard(attach_to_pattern(q, u)),
                    SetElem::Var(v) => SetElem::Var(*v),
                })
                .collect();
            let rest = sp.rest.as_ref().map(|r| {
                let mut conditions = r.conditions.clone();
                // Merge the pushed conditions with any the rest variable
                // already carries.
                for c in u.rest_conds_for(r.var) {
                    if !conditions.contains(c) {
                        conditions.push(c.clone());
                    }
                }
                RestSpec {
                    var: r.var,
                    conditions,
                }
            });
            PatValue::Set(SetPattern { elements, rest })
        }
    };
    Pattern {
        obj_var: p.obj_var,
        oid: p.oid.clone(),
        label: p.label.clone(),
        typ: p.typ.clone(),
        value,
    }
}

/// Transform the query head into the datamerge rule head, resolving object
/// variable definitions ("the rule head is formed by applying the unifier
/// to the query head", §3.2).
fn transform_head(head: &Head, s: &Subst, unifiers: &[Unifier]) -> Result<Head> {
    match head {
        Head::Var(v) => {
            for u in unifiers {
                if let Some(def) = u.obj_def(*v) {
                    return Ok(Head::Pattern(subst(def, s)));
                }
            }
            Err(MedError::Expansion(format!(
                "query head variable {v} has no definition (missing '{v}:' in the tail?)"
            )))
        }
        Head::Pattern(p) => Ok(Head::Pattern(splice_defs(&subst(p, s), unifiers))),
    }
}

/// Splice value/rest definitions into a constructed head pattern: a set
/// element `V` whose definition is known expands to the defining elements.
fn splice_defs(p: &Pattern, unifiers: &[Unifier]) -> Pattern {
    let value = match &p.value {
        PatValue::Term(Term::Var(v)) => {
            let def = unifiers.iter().find_map(|u| {
                u.value_defs
                    .iter()
                    .find(|(var, _)| var == v)
                    .map(|(_, d)| d.clone())
            });
            match def {
                Some(d) => d,
                None => p.value.clone(),
            }
        }
        PatValue::Set(sp) => {
            let mut elements: Vec<SetElem> = Vec::new();
            for e in sp.elements.iter() {
                match e {
                    SetElem::Var(v) => {
                        let rest_def = unifiers.iter().find_map(|u| {
                            u.rest_defs
                                .iter()
                                .find(|(var, _)| var == v)
                                .map(|(_, elems)| elems.clone())
                        });
                        match rest_def {
                            Some(elems) => elements.extend(elems),
                            None => elements.push(e.clone()),
                        }
                    }
                    SetElem::Pattern(q) => {
                        elements.push(SetElem::Pattern(splice_defs(q, unifiers)))
                    }
                    SetElem::Wildcard(q) => {
                        elements.push(SetElem::Wildcard(splice_defs(q, unifiers)))
                    }
                }
            }
            PatValue::Set(SetPattern {
                elements,
                rest: sp.rest.clone(),
            })
        }
        other => other.clone(),
    };
    Pattern {
        obj_var: None,
        oid: p.oid.clone(),
        label: p.label.clone(),
        typ: p.typ.clone(),
        value,
    }
}

/// Render a unifier the way the paper writes them: mappings `v ↦ t`, then
/// definitions `v ⇒ structure`. Expansion keeps unifiers as data; this
/// runs only where one is presented ([`LogicalProgram::unifier_note`]).
pub fn render_unifier(u: &Unifier) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut mappings: Vec<(Symbol, String)> = u
        .subst
        .iter()
        .map(|(v, t)| (*v, msl::printer::term(t, true)))
        .collect();
    mappings.sort_by(|(a, _), (b, _)| a.cmp_str(b));
    for (v, t) in mappings {
        parts.push(format!("{v} -> {t}"));
    }
    for (v, conds) in &u.rest_conds {
        let cs: Vec<String> = conds.iter().map(msl::printer::pattern).collect();
        parts.push(format!("{v} -> {{{}}}", cs.join(" ")));
    }
    for (v, def) in &u.obj_defs {
        parts.push(format!("{v} => {}", msl::printer::pattern(def)));
    }
    format!("[ {} ]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_query;
    use wrappers::scenario::MS1;

    fn med() -> MediatorSpec {
        MediatorSpec::parse("med", MS1).unwrap()
    }

    #[test]
    fn q1_expands_to_r2() {
        // §3.1: Q1 expands to the datamerge rule R2.
        let q = parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap();
        let program = expand(&q, &med(), UnifyMode::Minimal).unwrap();
        assert_eq!(program.len(), 1);
        let printed = msl::printer::rule(&program.rules[0]);
        // Head: full cs_person structure with the name instantiated.
        assert!(
            printed.starts_with("<cs_person {<name 'Joe Chung'> <rel R_r1> Rest1_r1 Rest2_r1}>"),
            "{printed}"
        );
        // Tail: whois + cs patterns and the decomp call, with N replaced.
        assert!(printed.contains(
            "<person {<name 'Joe Chung'> <dept 'CS'> <relation R_r1> | Rest1_r1}>@whois"
        ));
        assert!(printed.contains("<R_r1 {<first_name FN_r1> <last_name LN_r1> | Rest2_r1}>@cs"));
        assert!(printed.contains("decomp('Joe Chung', LN_r1, FN_r1)"));
        // The unifier note matches θ1's shape.
        assert!(program.unifier_note(0).contains("'Joe Chung'"));
        assert!(program.unifier_note(0).contains("JC =>"));
    }

    #[test]
    fn year_query_expands_to_q3_q4() {
        // §3.3: the year-3 query yields two rules (push into Rest1 / Rest2).
        let q = parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let program = expand(&q, &med(), UnifyMode::Minimal).unwrap();
        assert_eq!(program.len(), 2);
        let printed: Vec<String> = program.rules.iter().map(msl::printer::rule).collect();
        let into_rest1 = printed
            .iter()
            .any(|r| r.contains("| Rest1_r1:{<year 3>}}>@whois"));
        let into_rest2 = printed
            .iter()
            .any(|r| r.contains("| Rest2_r1:{<year 3>}}>@cs"));
        assert!(into_rest1, "{printed:?}");
        assert!(into_rest2, "{printed:?}");
    }

    #[test]
    fn unmatchable_query_gives_empty_program() {
        let q = parse_query("X :- X:<professor {<name N>}>@med").unwrap();
        let program = expand(&q, &med(), UnifyMode::Minimal).unwrap();
        assert!(program.is_empty());
    }

    #[test]
    fn pass_through_externals_and_other_sources() {
        let q = parse_query(
            "S :- S:<cs_person {<name N>}>@med AND <person {<name N>}>@whois AND ge(N, 'A')",
        )
        .unwrap();
        let program = expand(&q, &med(), UnifyMode::Minimal).unwrap();
        assert_eq!(program.len(), 1);
        let printed = msl::printer::rule(&program.rules[0]);
        // The direct whois condition and the builtin survive; N is unified
        // with the rule's renamed N.
        assert!(printed.contains("ge(N_r1, 'A')"), "{printed}");
        assert!(
            printed.matches("@whois").count() == 2,
            "direct source condition must pass through: {printed}"
        );
    }

    #[test]
    fn multi_condition_query_identifies_shared_vars() {
        // Both conditions target the view; N is shared, so the two rule
        // instances' name variables must be identified.
        let q = parse_query(
            "<out {<n N>}> :- <cs_person {<name N> <rel 'employee'>}>@med \
             AND <cs_person {<name N> <rel 'student'>}>@med",
        )
        .unwrap();
        let program = expand(&q, &med(), UnifyMode::Minimal).unwrap();
        assert_eq!(program.len(), 1);
        let printed = msl::printer::rule(&program.rules[0]);
        // Exactly one name variable should appear in both whois patterns.
        assert_eq!(printed.matches("@whois").count(), 2, "{printed}");
        let n_vars: std::collections::HashSet<&str> = printed
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .filter(|w| w.starts_with("N_r"))
            .collect();
        assert_eq!(n_vars.len(), 1, "{printed}");
    }

    #[test]
    fn recursive_spec_is_refused_here() {
        let spec = MediatorSpec::parse(
            "m",
            "<anc {<of X> <is Y>}> :- <parent {<of X> <is Y>}>@src\n\
             <anc {<of X> <is Z>}> :- <parent {<of X> <is Y>}>@src \
             AND <anc {<of Y> <is Z>}>@m",
        )
        .unwrap();
        let q = parse_query("X :- X:<anc {}>@m").unwrap();
        assert!(matches!(
            expand(&q, &spec, UnifyMode::Minimal),
            Err(MedError::Expansion(_))
        ));
    }

    #[test]
    fn pushed_conditions_merge_with_existing_rest_conditions() {
        // §3.3: "If Rest1 has already some conditions S associated with it,
        // VE&AO would merge S with the <year 3> condition." Build a spec
        // whose rule tail already constrains Rest1, then push another
        // condition into it.
        let spec = MediatorSpec::parse(
            "m",
            "<v {<name N> Rest1}> :- <person {<name N> | Rest1:{<dept 'CS'>}}>@whois",
        )
        .unwrap();
        let q = parse_query("S :- S:<v {<year 3>}>@m").unwrap();
        let program = expand(&q, &spec, UnifyMode::Minimal).unwrap();
        assert_eq!(program.len(), 1);
        let printed = msl::printer::rule(&program.rules[0]);
        assert!(
            printed.contains("Rest1_r1:{<dept 'CS'> <year 3>}"),
            "conditions must merge: {printed}"
        );
    }

    #[test]
    fn query_against_unannotated_condition_targets_mediator() {
        // Clients may omit @med when talking to the mediator directly.
        let q = parse_query("S :- S:<cs_person {<year 3>}>").unwrap();
        let program = expand(&q, &med(), UnifyMode::Minimal).unwrap();
        assert_eq!(program.len(), 2);
    }

    #[test]
    fn empty_set_query_matches_any_view_object() {
        let q = parse_query("S :- S:<cs_person {}>@med").unwrap();
        let program = expand(&q, &med(), UnifyMode::Minimal).unwrap();
        assert_eq!(program.len(), 1);
        assert!(program.unifier_note(0).contains("S =>"));
    }

    #[test]
    fn multi_rule_spec_unions_expansions() {
        let spec = MediatorSpec::parse(
            "m",
            "<person {<name N> <from 'a'>}> :- <p {<name N>}>@a\n\
             <person {<name N> <from 'b'>}> :- <q {<name N>}>@b",
        )
        .unwrap();
        let q = parse_query("X :- X:<person {<name 'Z'>}>@m").unwrap();
        let program = expand(&q, &spec, UnifyMode::Minimal).unwrap();
        assert_eq!(program.len(), 2);
    }
}
