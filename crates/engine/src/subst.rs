//! Substitution: applying variable→term maps and parameter values to MSL
//! structures. Used by the view expander (applying unifiers, §3.2) and by
//! the datamerge engine's parameterized-query nodes (filling `$R`, `$LN`,
//! `$FN` slots in `Qcs`, §3.4).

use msl::{Head, PatValue, Pattern, RestSpec, Rule, SetElem, SetPattern, TailItem, Term};
use oem::Symbol;
use std::collections::HashMap;

/// A variable→term substitution.
pub type Subst = HashMap<Symbol, Term>;

/// Apply a substitution to a term. Unmapped variables stay variables.
pub fn subst_term(t: &Term, s: &Subst) -> Term {
    if s.is_empty() {
        return t.clone();
    }
    match t {
        Term::Var(v) => match s.get(v) {
            Some(mapped) => subst_term(mapped, s),
            None => t.clone(),
        },
        Term::Func(f, args) => Term::Func(*f, args.iter().map(|a| subst_term(a, s)).collect()),
        Term::Const(_) | Term::Param(_) => t.clone(),
    }
}

/// Apply a substitution to a pattern.
pub fn subst_pattern(p: &Pattern, s: &Subst) -> Pattern {
    // The unifier applies plenty of empty substitutions (rules without
    // shared variables); skip the recursive rebuild for those.
    if s.is_empty() {
        return p.clone();
    }
    Pattern {
        obj_var: p.obj_var,
        oid: p.oid.as_ref().map(|t| subst_term(t, s)),
        label: subst_term(&p.label, s),
        typ: p.typ.as_ref().map(|t| subst_term(t, s)),
        value: subst_pat_value(&p.value, s),
    }
}

/// Apply a substitution to a pattern value.
pub fn subst_pat_value(v: &PatValue, s: &Subst) -> PatValue {
    match v {
        PatValue::Term(t) => PatValue::Term(subst_term(t, s)),
        PatValue::Set(sp) => PatValue::Set(subst_set_pattern(sp, s)),
    }
}

/// Apply a substitution to a set pattern.
pub fn subst_set_pattern(sp: &SetPattern, s: &Subst) -> SetPattern {
    SetPattern {
        elements: sp
            .elements
            .iter()
            .map(|e| match e {
                SetElem::Pattern(p) => SetElem::Pattern(subst_pattern(p, s)),
                SetElem::Wildcard(p) => SetElem::Wildcard(subst_pattern(p, s)),
                SetElem::Var(v) => SetElem::Var(*v),
            })
            .collect(),
        rest: sp.rest.as_ref().map(|r| RestSpec {
            var: r.var,
            conditions: r.conditions.iter().map(|c| subst_pattern(c, s)).collect(),
        }),
    }
}

/// Apply a substitution to a whole rule.
pub fn subst_rule(r: &Rule, s: &Subst) -> Rule {
    if s.is_empty() {
        return r.clone();
    }
    Rule {
        head: match &r.head {
            Head::Var(v) => Head::Var(*v),
            Head::Pattern(p) => Head::Pattern(subst_pattern(p, s)),
        },
        tail: r.tail.iter().map(|t| subst_tail_item(t, s)).collect(),
    }
}

/// Apply a substitution to a tail item.
pub fn subst_tail_item(t: &TailItem, s: &Subst) -> TailItem {
    match t {
        TailItem::Match { pattern, source } => TailItem::Match {
            pattern: subst_pattern(pattern, s),
            source: *source,
        },
        TailItem::External { name, args } => TailItem::External {
            name: *name,
            args: args.iter().map(|a| subst_term(a, s)).collect(),
        },
    }
}

/// Replace `$name` parameters with terms: constants instantiate a
/// parameterized query for one tuple (§3.4), variables turn it back into
/// the query over all tuples. Missing parameters are left in place so
/// callers can detect under-instantiation.
pub fn fill_params_term(t: &Term, params: &Subst) -> Term {
    match t {
        Term::Param(p) => match params.get(p) {
            Some(filled) => filled.clone(),
            None => t.clone(),
        },
        Term::Func(f, args) => Term::Func(
            *f,
            args.iter().map(|a| fill_params_term(a, params)).collect(),
        ),
        _ => t.clone(),
    }
}

/// Fill parameters throughout a pattern.
pub fn fill_params_pattern(p: &Pattern, params: &Subst) -> Pattern {
    Pattern {
        obj_var: p.obj_var,
        oid: p.oid.as_ref().map(|t| fill_params_term(t, params)),
        label: fill_params_term(&p.label, params),
        typ: p.typ.as_ref().map(|t| fill_params_term(t, params)),
        value: match &p.value {
            PatValue::Term(t) => PatValue::Term(fill_params_term(t, params)),
            PatValue::Set(sp) => PatValue::Set(SetPattern {
                elements: sp
                    .elements
                    .iter()
                    .map(|e| match e {
                        SetElem::Pattern(q) => SetElem::Pattern(fill_params_pattern(q, params)),
                        SetElem::Wildcard(q) => SetElem::Wildcard(fill_params_pattern(q, params)),
                        SetElem::Var(v) => SetElem::Var(*v),
                    })
                    .collect(),
                rest: sp.rest.as_ref().map(|r| RestSpec {
                    var: r.var,
                    conditions: r
                        .conditions
                        .iter()
                        .map(|c| fill_params_pattern(c, params))
                        .collect(),
                }),
            }),
        },
    }
}

/// Fill parameters throughout a rule.
pub fn fill_params_rule(r: &Rule, params: &Subst) -> Rule {
    if params.is_empty() {
        return r.clone();
    }
    Rule {
        head: match &r.head {
            Head::Var(v) => Head::Var(*v),
            Head::Pattern(p) => Head::Pattern(fill_params_pattern(p, params)),
        },
        tail: r
            .tail
            .iter()
            .map(|t| match t {
                TailItem::Match { pattern, source } => TailItem::Match {
                    pattern: fill_params_pattern(pattern, params),
                    source: *source,
                },
                TailItem::External { name, args } => TailItem::External {
                    name: *name,
                    args: args.iter().map(|a| fill_params_term(a, params)).collect(),
                },
            })
            .collect(),
    }
}

/// Does the structure still contain any `$param` slots?
pub fn has_params_pattern(p: &Pattern) -> bool {
    fn term_has(t: &Term) -> bool {
        match t {
            Term::Param(_) => true,
            Term::Func(_, args) => args.iter().any(term_has),
            _ => false,
        }
    }
    fn value_has(v: &PatValue) -> bool {
        match v {
            PatValue::Term(t) => term_has(t),
            PatValue::Set(sp) => {
                sp.elements.iter().any(|e| match e {
                    SetElem::Pattern(q) | SetElem::Wildcard(q) => has_params_pattern(q),
                    SetElem::Var(_) => false,
                }) || sp
                    .rest
                    .as_ref()
                    .is_some_and(|r| r.conditions.iter().any(has_params_pattern))
            }
        }
    }
    p.oid.as_ref().is_some_and(term_has)
        || term_has(&p.label)
        || p.typ.as_ref().is_some_and(term_has)
        || value_has(&p.value)
}

/// Turn the atomic bindings of `b` into a substitution (object and set
/// bindings have no term form and are skipped). Used to push already-bound
/// variables into source queries as constants.
pub fn bindings_to_subst(b: &crate::bindings::Bindings) -> Subst {
    let mut s = Subst::with_capacity(b.len());
    for (var, val) in b.iter() {
        if let crate::bindings::BoundValue::Atom(v) = val {
            s.insert(var, Term::Const(v.clone()));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_rule;
    use msl::printer;
    use oem::sym;

    #[test]
    fn subst_chases_chains() {
        let mut s = Subst::new();
        s.insert(sym("A"), Term::var("B"));
        s.insert(sym("B"), Term::str("x"));
        assert_eq!(subst_term(&Term::var("A"), &s), Term::str("x"));
    }

    #[test]
    fn subst_rule_rewrites_tail() {
        // θ1 of §3.2: N ↦ 'Joe Chung' applied to the MS1 tail.
        let rule = parse_rule(
            "<cs_person {<name N> <rel R> Rest1 Rest2}> :- \
             <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois \
             AND decomp(N, LN, FN)",
        )
        .unwrap();
        let mut s = Subst::new();
        s.insert(sym("N"), Term::str("Joe Chung"));
        let out = subst_rule(&rule, &s);
        let printed = printer::rule(&out);
        assert!(printed.contains("<name 'Joe Chung'>"), "{printed}");
        assert!(printed.contains("decomp('Joe Chung', LN, FN)"), "{printed}");
        assert!(!printed.contains("<name N>"));
    }

    #[test]
    fn fill_params_instantiates_qcs() {
        // Qcs with R='employee', LN='Chung', FN='Joe' becomes Qc2.
        let qcs = parse_rule(
            "<bind_for_Rest2 Rest2> :- <$R {<last_name $LN> <first_name $FN> | Rest2}>@cs",
        )
        .unwrap();
        let mut params = Subst::new();
        params.insert(sym("R"), Term::str("employee"));
        params.insert(sym("LN"), Term::str("Chung"));
        params.insert(sym("FN"), Term::str("Joe"));
        let filled = fill_params_rule(&qcs, &params);
        let printed = printer::rule(&filled);
        assert!(printed.contains("<employee {"), "{printed}");
        assert!(printed.contains("<last_name 'Chung'>"), "{printed}");
        assert!(printed.contains("<first_name 'Joe'>"), "{printed}");
        if let msl::Head::Pattern(p) = &filled.head {
            assert!(!has_params_pattern(p));
        }
    }

    #[test]
    fn missing_params_left_in_place() {
        let pat = match parse_rule("X :- <$R {<a $B>}>@s").unwrap().tail.remove(0) {
            msl::TailItem::Match { pattern, .. } => pattern,
            _ => panic!(),
        };
        let mut params = Subst::new();
        params.insert(sym("R"), Term::str("emp"));
        let filled = fill_params_pattern(&pat, &params);
        assert!(has_params_pattern(&filled));
        assert_eq!(filled.label, Term::str("emp"));
    }

    #[test]
    fn rest_conditions_substituted() {
        let rule = parse_rule("X :- X:<p {<a A> | R:{<year Y>}}>@s").unwrap();
        let mut s = Subst::new();
        s.insert(sym("Y"), Term::int(3));
        let out = subst_rule(&rule, &s);
        let printed = printer::rule(&out);
        assert!(printed.contains("R:{<year 3>}"), "{printed}");
    }
}
