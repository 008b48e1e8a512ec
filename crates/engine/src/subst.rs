//! Substitution: applying variable→term maps and parameter values to MSL
//! structures. Used by the view expander (applying unifiers, §3.2) and by
//! the datamerge engine's parameterized-query nodes (filling `$R`, `$LN`,
//! `$FN` slots in `Qcs`, §3.4).

use msl::{Slot, Term, VisitMut};
use oem::Symbol;
use std::collections::HashMap;

/// A variable→term substitution.
pub type Subst = HashMap<Symbol, Term>;

/// Apply a substitution to a term, pattern, tail item, rule or any other
/// [`VisitMut`] structure. A mapped variable is replaced by its image with
/// the substitution applied again, so chains resolve; unmapped variables,
/// and the symbol-only positions (object, set-element and rest
/// variables), stay as they are.
pub fn subst<T: VisitMut + Clone>(x: &T, s: &Subst) -> T {
    map_leaves(x, s, |t| {
        t.as_var().and_then(|v| s.get(&v)).map(|m| subst(m, s))
    })
}

/// Replace `$name` parameters with terms: constants instantiate a
/// parameterized query for one tuple (§3.4), variables turn it back into
/// the query over all tuples. Missing parameters are left in place so
/// callers can detect under-instantiation.
pub fn fill_params<T: VisitMut + Clone>(x: &T, params: &Subst) -> T {
    map_leaves(x, params, |t| match t {
        Term::Param(p) => params.get(p).cloned(),
        _ => None,
    })
}

/// A copy of `x` with every leaf term that `f` maps replaced by its image.
/// The unifier applies plenty of empty substitutions (rules without shared
/// variables), so an empty `map` skips the walk.
fn map_leaves<T: VisitMut + Clone>(x: &T, map: &Subst, f: impl Fn(&Term) -> Option<Term>) -> T {
    let mut out = x.clone();
    if !map.is_empty() {
        out.visit_mut(&mut |slot| {
            if let Slot::Term(t) = slot {
                if let Some(image) = f(t) {
                    *t = image;
                }
            }
        });
    }
    out
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
        assert_eq!(subst(&Term::var("A"), &s), Term::str("x"));
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
        let out = subst(&rule, &s);
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
        let printed = printer::rule(&fill_params(&qcs, &params));
        assert_eq!(
            printed,
            "<bind_for_Rest2 Rest2> :- \
             <employee {<last_name 'Chung'> <first_name 'Joe'> | Rest2}>@cs"
        );
    }

    #[test]
    fn missing_params_left_in_place() {
        let rule = parse_rule("X :- <$R {<a $B>}>@s").unwrap();
        let mut params = Subst::new();
        params.insert(sym("R"), Term::str("emp"));
        let printed = printer::rule(&fill_params(&rule, &params));
        assert_eq!(printed, "X :- <emp {<a $B>}>@s");
    }

    #[test]
    fn rest_conditions_substituted() {
        let rule = parse_rule("X :- X:<p {<a A> | R:{<year Y>}}>@s").unwrap();
        let mut s = Subst::new();
        s.insert(sym("Y"), Term::int(3));
        let out = subst(&rule, &s);
        let printed = printer::rule(&out);
        assert!(printed.contains("R:{<year 3>}"), "{printed}");
    }
}
