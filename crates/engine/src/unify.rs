//! Query-condition vs. rule-head unification (§3.2).
//!
//! "When the VE&AO matches a query condition with a rule head it generates
//! all unifiers θ such that (1) applying the mappings makes the transformed
//! query condition *contained* in the transformed rule head, and (2) there
//! is a *definition* for every object, value, or rest variable that appears
//! in the query head and also appears in the query tail preceding a ':'."
//!
//! A [`Unifier`] therefore carries:
//! * **mappings** (`↦`) — an ordinary first-order substitution over the
//!   (renamed-apart) variables of query and rule, plus *rest-condition
//!   mappings* like `Rest1 ↦ {<year 3>}` that attach query conditions to a
//!   set-valued variable of the head (§3.3: conditions pushed into `Rest1`
//!   or `Rest2` produce the two unifiers τ1 and τ2);
//! * **definitions** (`⇒`) — for query object variables (`JC ⇒
//!   <cs_person {...}>`), for query value variables that meet a head set,
//!   and for query rest variables (bound to the head elements the query
//!   did not mention).
//!
//! [`unify_query_with_head`] enumerates *all* unifiers. With
//! [`UnifyMode::Minimal`], a query subpattern is pushed into a set-valued
//! variable only when it unifies with no explicit head subpattern — this is
//! the presentation the paper uses for Q1/θ1; `Exhaustive` (the default
//! used by the planner) also considers pushes that overlap explicit
//! subpatterns, which is required for completeness when source objects may
//! repeat a label.

use crate::subst::{subst, Subst};
use msl::{PatValue, Pattern, SetElem, SetPattern, Term};
use oem::Symbol;
use std::collections::HashMap;

/// How aggressively to enumerate pushes into set-valued variables.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UnifyMode {
    /// Enumerate every containment-preserving unifier (sound + complete).
    #[default]
    Exhaustive,
    /// Push a query subpattern into a set variable only if it unifies with
    /// no explicit head subpattern (the paper's worked presentation).
    Minimal,
}

/// The result of matching one query condition against one rule head.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Unifier {
    /// Mappings `v ↦ term` (already fully resolved — no chains).
    pub subst: Subst,
    /// Rest-condition mappings `SetVar ↦ {pattern, ...}`: conditions the
    /// view expander must attach to the corresponding rest variable in the
    /// rule tail.
    pub rest_conds: Vec<(Symbol, Vec<Pattern>)>,
    /// Definitions for query object variables: `JC ⇒ <cs_person {...}>`.
    pub obj_defs: Vec<(Symbol, Pattern)>,
    /// Definitions for query value variables that met a head set value.
    pub value_defs: Vec<(Symbol, PatValue)>,
    /// Definitions for query rest variables: the head elements the query
    /// left unmatched (they become the "rest" of the view object).
    pub rest_defs: Vec<(Symbol, Vec<SetElem>)>,
}

impl Unifier {
    /// Look up the definition of a query object variable.
    pub fn obj_def(&self, var: Symbol) -> Option<&Pattern> {
        self.obj_defs
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, p)| p)
    }

    /// The rest conditions attached to a given set variable.
    pub fn rest_conds_for(&self, var: Symbol) -> &[Pattern] {
        self.rest_conds
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, c)| c.as_slice())
            .unwrap_or(&[])
    }
}

/// Internal enumeration state.
#[derive(Clone, Default)]
struct St {
    subst: Subst,
    rest_conds: HashMap<Symbol, Vec<Pattern>>,
    obj_defs: Vec<(Symbol, Pattern)>,
    value_defs: Vec<(Symbol, PatValue)>,
    rest_defs: Vec<(Symbol, Vec<SetElem>)>,
}

/// Enumerate all unifiers between a query condition pattern and a rule
/// head pattern. Both must be renamed apart beforehand
/// (see [`msl::rename::rename_rule`]).
pub fn unify_query_with_head(query: &Pattern, head: &Pattern, mode: UnifyMode) -> Vec<Unifier> {
    let states = unify_pattern(query, head, St::default(), mode);
    let mut out: Vec<Unifier> = Vec::new();
    for st in states {
        let u = finalize(st, head);
        if !out.contains(&u) {
            out.push(u);
        }
    }
    out
}

fn finalize(mut st: St, _head: &Pattern) -> Unifier {
    // Fully apply the substitution to stored defs and rest conditions so
    // downstream consumers never see unresolved chains — including inside
    // the substitution itself (K ↦ pid(N), N ↦ 'Ann' becomes
    // K ↦ pid('Ann')).
    let snapshot = st.subst.clone();
    for term in st.subst.values_mut() {
        *term = subst(term, &snapshot);
    }
    let s = &st.subst;
    let mut rest_conds: Vec<(Symbol, Vec<Pattern>)> = st
        .rest_conds
        .into_iter()
        .map(|(v, conds)| (v, conds.iter().map(|c| subst(c, s)).collect()))
        .collect();
    // HashMap iteration order is nondeterministic; canonicalize so that
    // unifier lists (and the plans derived from them) are stable.
    rest_conds.sort_by(|(a, _), (b, _)| a.cmp_str(b));
    let obj_defs = st
        .obj_defs
        .into_iter()
        .map(|(v, p)| (v, subst(&p, s)))
        .collect();
    let value_defs = st
        .value_defs
        .into_iter()
        .map(|(v, pv)| (v, subst(&pv, s)))
        .collect();
    let rest_defs = st
        .rest_defs
        .into_iter()
        .map(|(v, elems)| (v, elems.iter().map(|e| subst(e, s)).collect()))
        .collect();
    Unifier {
        subst: st.subst,
        rest_conds,
        obj_defs,
        value_defs,
        rest_defs,
    }
}

fn unify_pattern(q: &Pattern, h: &Pattern, st: St, mode: UnifyMode) -> Vec<St> {
    // Labels.
    let Some(st) = unify_terms(&q.label, &h.label, st) else {
        return Vec::new();
    };

    // Oids: mediator-generated oids are arbitrary, so a query oid term can
    // only be constrained when the head declares one (e.g. a semantic oid).
    let st = match (&q.oid, &h.oid) {
        (None, _) => Some(st),
        (Some(qt), Some(ht)) => unify_terms(qt, ht, st),
        (Some(Term::Var(_)), None) => Some(st), // unconstrained generated oid
        (Some(_), None) => None,                // cannot constrain a generated oid with a constant
    };
    let Some(st) = st else { return Vec::new() };

    // Types: checkable only when the head declares one; a query type
    // variable against an undeclared head type stays unconstrained.
    let st = match (&q.typ, &h.typ) {
        (None, _) => Some(st),
        (Some(qt), Some(ht)) => unify_terms(qt, ht, st),
        (Some(Term::Var(_)), None) => Some(st),
        (Some(_), None) => match &h.value {
            // The head value's shape implies the type.
            PatValue::Set(_) => unify_terms(q.typ.as_ref().unwrap(), &Term::str("set"), st),
            PatValue::Term(Term::Const(v)) => unify_terms(
                q.typ.as_ref().unwrap(),
                &Term::str(v.oem_type().keyword()),
                st,
            ),
            _ => None,
        },
    };
    let Some(mut st) = st else { return Vec::new() };

    // Query object variable: record its definition (the head structure).
    if let Some(ov) = q.obj_var {
        let mut def = h.clone();
        def.obj_var = None;
        st.obj_defs.push((ov, def));
    }

    // Values.
    match (&q.value, &h.value) {
        (PatValue::Term(qt), PatValue::Term(ht)) => match unify_terms(qt, ht, st) {
            Some(st) => vec![st],
            None => Vec::new(),
        },
        (PatValue::Term(Term::Var(v)), PatValue::Set(hsp)) => {
            // Value variable meets a constructed set: definition.
            st.value_defs.push((*v, PatValue::Set(hsp.clone())));
            vec![st]
        }
        (PatValue::Term(_), PatValue::Set(_)) => Vec::new(),
        (PatValue::Set(_), PatValue::Term(_)) => Vec::new(),
        (PatValue::Set(qsp), PatValue::Set(hsp)) => unify_sets(qsp, hsp, st, mode),
    }
}

fn unify_sets(qsp: &SetPattern, hsp: &SetPattern, st: St, mode: UnifyMode) -> Vec<St> {
    // Indices of explicit head subpatterns and names of head set variables.
    let head_pats: Vec<(usize, &Pattern)> = hsp
        .elements
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            SetElem::Pattern(p) => Some((i, p)),
            _ => None,
        })
        .collect();
    let head_setvars: Vec<Symbol> = hsp
        .elements
        .iter()
        .filter_map(|e| match e {
            SetElem::Var(v) => Some(*v),
            _ => None,
        })
        .collect();

    // State during element placement: (St, consumed head indices).
    let mut states: Vec<(St, Vec<usize>)> = vec![(st, Vec::new())];

    for qe in &qsp.elements {
        let mut next: Vec<(St, Vec<usize>)> = Vec::new();
        match qe {
            SetElem::Pattern(qp) | SetElem::Wildcard(qp) => {
                let is_wildcard = matches!(qe, SetElem::Wildcard(_));
                for (st, consumed) in &states {
                    let mut unified_somewhere = false;
                    // (a) unify with an explicit head subpattern.
                    for (idx, hp) in &head_pats {
                        for st2 in unify_pattern(qp, hp, st.clone(), mode) {
                            unified_somewhere = true;
                            let mut c = consumed.clone();
                            if !c.contains(idx) {
                                c.push(*idx);
                            }
                            next.push((st2, c));
                        }
                    }
                    // (b) push into a head set-valued variable.
                    let push_allowed = match mode {
                        UnifyMode::Exhaustive => true,
                        UnifyMode::Minimal => !unified_somewhere,
                    };
                    if push_allowed {
                        for sv in &head_setvars {
                            let mut st2 = st.clone();
                            // A pushed wildcard keeps its any-depth
                            // semantics within the rest set.
                            let cond = if is_wildcard {
                                // Represent as a pattern condition; depth
                                // semantics are preserved by the tail's
                                // wildcard expansion at the source.
                                qp.clone()
                            } else {
                                qp.clone()
                            };
                            st2.rest_conds.entry(*sv).or_default().push(cond);
                            next.push((st2, consumed.clone()));
                        }
                    }
                }
            }
            SetElem::Var(v) => {
                // A query set variable can only map onto a head set
                // variable wholesale.
                for (st, consumed) in &states {
                    for sv in &head_setvars {
                        let mut st2 = st.clone();
                        match st2.subst.get(v) {
                            Some(Term::Var(existing)) if existing == sv => {
                                next.push((st2, consumed.clone()));
                            }
                            Some(_) => {}
                            None => {
                                st2.subst.insert(*v, Term::Var(*sv));
                                next.push((st2, consumed.clone()));
                            }
                        }
                    }
                }
            }
        }
        states = next;
        if states.is_empty() {
            return Vec::new();
        }
    }

    // Query rest variable: defined as the head elements not consumed.
    let mut out = Vec::new();
    for (mut st, consumed) in states {
        if let Some(rest) = &qsp.rest {
            let leftover: Vec<SetElem> = hsp
                .elements
                .iter()
                .enumerate()
                .filter(|(i, e)| !consumed.contains(i) || matches!(e, SetElem::Var(_)))
                .map(|(_, e)| e.clone())
                .collect();
            st.rest_defs.push((rest.var, leftover));
            // Rest conditions of the query are pushed like ordinary
            // elements would be — attach each to every set variable
            // (enumerated) or unify with leftover explicit patterns.
            if !rest.conditions.is_empty() {
                let mut cond_states = vec![st];
                for cond in &rest.conditions {
                    let mut next = Vec::new();
                    for cs in &cond_states {
                        for sv in &head_setvars {
                            let mut st2 = cs.clone();
                            st2.rest_conds.entry(*sv).or_default().push(cond.clone());
                            next.push(st2);
                        }
                        for (i, e) in hsp.elements.iter().enumerate() {
                            if consumed.contains(&i) {
                                continue;
                            }
                            if let SetElem::Pattern(hp) = e {
                                next.extend(unify_pattern(cond, hp, cs.clone(), mode));
                            }
                        }
                    }
                    cond_states = next;
                }
                out.extend(cond_states);
                continue;
            }
        }
        out.push(st);
    }
    out
}

/// First-order unification of two terms under a shared substitution.
fn unify_terms(a: &Term, b: &Term, mut st: St) -> Option<St> {
    let ra = subst(a, &st.subst);
    let rb = subst(b, &st.subst);
    match (&ra, &rb) {
        (Term::Const(x), Term::Const(y)) => {
            if crate::matcher::atomic_eq(x, y) {
                Some(st)
            } else {
                None
            }
        }
        (Term::Var(v), Term::Var(w)) if v == w => Some(st),
        (Term::Var(v), other) => {
            st.subst.insert(*v, other.clone());
            Some(st)
        }
        (other, Term::Var(w)) => {
            st.subst.insert(*w, other.clone());
            Some(st)
        }
        (Term::Func(f, fa), Term::Func(g, ga)) => {
            if f != g || fa.len() != ga.len() {
                return None;
            }
            let mut cur = st;
            for (x, y) in fa.iter().zip(ga) {
                cur = unify_terms(x, y, cur)?;
            }
            Some(cur)
        }
        // Parameters are runtime slots; they never unify statically.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::{parse_query, parse_rule, Head, TailItem};
    use oem::sym;

    fn ms1_head() -> Pattern {
        let rule = parse_rule(
            "<cs_person {<name N> <rel R> Rest1 Rest2}> :- \
             <person {<name N>}>@whois",
        )
        .unwrap();
        match rule.head {
            Head::Pattern(p) => p,
            _ => panic!(),
        }
    }

    fn query_pattern(src: &str) -> Pattern {
        let q = parse_query(src).unwrap();
        match q.tail.into_iter().next().unwrap() {
            TailItem::Match { pattern, .. } => pattern,
            _ => panic!(),
        }
    }

    #[test]
    fn theta1_for_q1() {
        // Q1: JC :- JC:<cs_person {<name 'Joe Chung'>}>@med
        // θ1 = [ N ↦ 'Joe Chung',
        //        JC ⇒ <cs_person {<name 'Joe Chung'> <rel R> Rest1 Rest2}> ]
        let q = query_pattern("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med");
        let unifiers = unify_query_with_head(&q, &ms1_head(), UnifyMode::Minimal);
        assert_eq!(unifiers.len(), 1);
        let u = &unifiers[0];
        assert_eq!(u.subst.get(&sym("N")), Some(&Term::str("Joe Chung")));
        assert!(u.rest_conds.is_empty());

        let def = u.obj_def(sym("JC")).expect("JC has a definition");
        let printed = msl::printer::pattern(def);
        assert_eq!(
            printed,
            "<cs_person {<name 'Joe Chung'> <rel R> Rest1 Rest2}>"
        );
    }

    #[test]
    fn tau1_tau2_for_year_query() {
        // S :- S:<cs_person {<year 3>}>@med  — <year 3> can go into Rest1
        // or Rest2 (§3.3), yielding exactly τ1 and τ2.
        let q = query_pattern("S :- S:<cs_person {<year 3>}>@med");
        let unifiers = unify_query_with_head(&q, &ms1_head(), UnifyMode::Minimal);
        assert_eq!(unifiers.len(), 2);
        let targets: Vec<Symbol> = unifiers.iter().map(|u| u.rest_conds[0].0).collect();
        assert!(targets.contains(&sym("Rest1")));
        assert!(targets.contains(&sym("Rest2")));
        for u in &unifiers {
            assert_eq!(u.rest_conds.len(), 1);
            let conds = &u.rest_conds[0].1;
            assert_eq!(conds.len(), 1);
            assert_eq!(msl::printer::pattern(&conds[0]), "<year 3>");
            // Definition of S carries the full head structure.
            let def = u.obj_def(sym("S")).unwrap();
            assert_eq!(
                msl::printer::pattern(def),
                "<cs_person {<name N> <rel R> Rest1 Rest2}>"
            );
        }
    }

    #[test]
    fn exhaustive_mode_also_pushes_unifiable_conditions() {
        // In exhaustive mode, <name 'Joe Chung'> can unify with <name N>
        // (1 unifier) or be pushed into Rest1 / Rest2 (2 more).
        let q = query_pattern("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med");
        let unifiers = unify_query_with_head(&q, &ms1_head(), UnifyMode::Exhaustive);
        assert_eq!(unifiers.len(), 3);
    }

    #[test]
    fn label_mismatch_no_unifier() {
        let q = query_pattern("X :- X:<other_view {<name N>}>@med");
        assert!(unify_query_with_head(&q, &ms1_head(), UnifyMode::Exhaustive).is_empty());
    }

    #[test]
    fn variable_label_in_query_unifies() {
        // Schema-exploration query: what does the view export?
        let q = query_pattern("X :- X:<V {}>@med");
        let unifiers = unify_query_with_head(&q, &ms1_head(), UnifyMode::Minimal);
        assert_eq!(unifiers.len(), 1);
        assert_eq!(
            unifiers[0].subst.get(&sym("V")),
            Some(&Term::str("cs_person"))
        );
    }

    #[test]
    fn two_conditions_enumerate_product() {
        // Two unmatched conditions, two set vars: 4 placements.
        let q = query_pattern("S :- S:<cs_person {<year 3> <gpa 4>}>@med");
        let unifiers = unify_query_with_head(&q, &ms1_head(), UnifyMode::Minimal);
        assert_eq!(unifiers.len(), 4);
    }

    #[test]
    fn value_constant_condition_binds_head_var() {
        let q = query_pattern("S :- S:<cs_person {<rel 'employee'>}>@med");
        let unifiers = unify_query_with_head(&q, &ms1_head(), UnifyMode::Minimal);
        assert_eq!(unifiers.len(), 1);
        assert_eq!(
            unifiers[0].subst.get(&sym("R")),
            Some(&Term::str("employee"))
        );
    }

    #[test]
    fn no_setvars_means_unmatchable_condition_fails() {
        let head = match parse_rule("<v {<a A>}> :- <s {<a A>}>@x").unwrap().head {
            Head::Pattern(p) => p,
            _ => panic!(),
        };
        let q = query_pattern("X :- X:<v {<b B>}>@med");
        assert!(unify_query_with_head(&q, &head, UnifyMode::Exhaustive).is_empty());
    }

    #[test]
    fn query_rest_var_gets_definition() {
        let q = query_pattern("X :- X:<cs_person {<name N1> | QR}>@med");
        let unifiers = unify_query_with_head(&q, &ms1_head(), UnifyMode::Minimal);
        assert_eq!(unifiers.len(), 1);
        let u = &unifiers[0];
        let (v, elems) = &u.rest_defs[0];
        assert_eq!(*v, sym("QR"));
        // Leftover: <rel R>, Rest1, Rest2 (the matched <name N> is consumed).
        assert_eq!(elems.len(), 3);
    }

    #[test]
    fn semantic_oid_unification() {
        let head = match parse_rule("<pid(N) v {<name N>}> :- <s {<name N>}>@x")
            .unwrap()
            .head
        {
            Head::Pattern(p) => p,
            _ => panic!(),
        };
        let q = query_pattern("X :- <K v {<name 'Ann'>}>@med");
        let unifiers = unify_query_with_head(&q, &head, UnifyMode::Minimal);
        assert_eq!(unifiers.len(), 1);
        // K maps to the instantiated semantic oid pid('Ann').
        assert_eq!(
            unifiers[0].subst.get(&sym("K")),
            Some(&Term::Func(sym("pid"), vec![Term::str("Ann")]))
        );
    }

    #[test]
    fn nested_set_patterns_unify() {
        let head = match parse_rule("<v {<addr {<city C>}>}> :- <s {<addr {<city C>}>}>@x")
            .unwrap()
            .head
        {
            Head::Pattern(p) => p,
            _ => panic!(),
        };
        let q = query_pattern("X :- X:<v {<addr {<city 'Palo Alto'>}>}>@med");
        let unifiers = unify_query_with_head(&q, &head, UnifyMode::Minimal);
        assert_eq!(unifiers.len(), 1);
        assert_eq!(
            unifiers[0].subst.get(&sym("C")),
            Some(&Term::str("Palo Alto"))
        );
    }
}
