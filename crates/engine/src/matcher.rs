//! Matching MSL patterns against OEM object structures.
//!
//! "Intuitively, we may think of the process of 'creating' the virtual
//! objects of the mediator as pattern matching. First, we match the
//! patterns that appear in the tail against the object structure ...,
//! trying to bind the variables to object components" (§2).
//!
//! Matching is **open**: an object may have more subobjects than the
//! pattern mentions — that is how MSL tolerates structure irregularities
//! and schema evolution. A rest variable (`| Rest`) captures exactly the
//! subobjects not consumed by the explicit subpatterns of its set pattern.
//! All alternative matchings are enumerated (a subpattern may be satisfied
//! by several subobjects); callers deduplicate solutions per MSL's
//! set-oriented semantics.

use crate::bindings::{dedup_bindings, Bindings, BoundValue};
use msl::{PatValue, Pattern, SetElem, SetPattern, Term};
use oem::{path, ObjId, ObjectStore, Value};
use std::collections::BTreeSet;

/// Match `pat` against the object `id` in `store`, extending `base`.
/// Returns every consistent binding (empty vector = no match).
pub fn match_pattern(
    store: &ObjectStore,
    id: ObjId,
    pat: &Pattern,
    base: &Bindings,
) -> Vec<Bindings> {
    let obj = store.get(id);

    // Constant-field pre-checks reject before any allocation — the
    // overwhelmingly common outcome when scanning a candidate set is a
    // label mismatch, which must not cost a clone of the base bindings.
    if let Term::Const(c) = &pat.label {
        if !atomic_eq(c, &Value::Str(obj.label)) {
            return Vec::new();
        }
    }
    if let Some(Term::Const(c)) = &pat.oid {
        // Only a string equals an oid; looking it up interns nothing.
        if !matches!(c, Value::Str(s) if store.by_oid(*s) == Some(id)) {
            return Vec::new();
        }
    }
    if let PatValue::Term(Term::Const(c)) = &pat.value {
        if !atomic_eq(c, &obj.value) {
            return Vec::new();
        }
    }

    // One clone of the base; every field below extends it in place.
    let mut b = base.clone();

    // Object variable: X:<...> binds X to the object itself.
    if let Some(ov) = pat.obj_var {
        if !b.bind_mut(ov, BoundValue::Obj(id)) {
            return Vec::new();
        }
    }

    // Oid field: variables bind to the oid as a string value; a constant
    // was checked above.
    if let Some(oid_term) = pat.oid.as_ref().filter(|t| !matches!(t, Term::Const(_))) {
        if !unify_term_value(oid_term, &Value::Str(store.oid(id)), &mut b) {
            return Vec::new();
        }
    }

    // Label field: labels are matched as string values so that the same
    // variable can bind a label here and a value elsewhere (schematic
    // discrepancy, §2).
    if !unify_term_value(&pat.label, &Value::Str(obj.label), &mut b) {
        return Vec::new();
    }

    // Type field.
    if let Some(typ_term) = &pat.typ {
        let tv = Value::str(obj.oem_type().keyword());
        if !unify_term_value(typ_term, &tv, &mut b) {
            return Vec::new();
        }
    }

    // Value field.
    match (&pat.value, &obj.value) {
        (PatValue::Term(t), Value::Set(children)) => {
            // A variable in value position binds the set of subobjects.
            match t {
                Term::Var(v) => {
                    if b.bind_mut(*v, BoundValue::ObjSet(children.clone())) {
                        vec![b]
                    } else {
                        Vec::new()
                    }
                }
                _ => Vec::new(),
            }
        }
        (PatValue::Term(t), atomic) => {
            if unify_term_value(t, atomic, &mut b) {
                vec![b]
            } else {
                Vec::new()
            }
        }
        (PatValue::Set(sp), Value::Set(children)) => match_set(store, id, children, sp, &b),
        (PatValue::Set(_), _) => Vec::new(),
    }
}

/// Match a set pattern against the children of an object.
fn match_set(
    store: &ObjectStore,
    parent: ObjId,
    children: &[ObjId],
    sp: &SetPattern,
    base: &Bindings,
) -> Vec<Bindings> {
    // Each state: bindings so far + the set of child indices consumed by
    // explicit subpatterns (needed to compute the rest).
    let mut states: Vec<(Bindings, BTreeSet<usize>)> = vec![(base.clone(), BTreeSet::new())];

    for elem in &sp.elements {
        let mut next_states = Vec::new();
        for (b, consumed) in &states {
            match elem {
                SetElem::Pattern(p) => {
                    for (i, &c) in children.iter().enumerate() {
                        for nb in match_pattern(store, c, p, b) {
                            let mut nc = consumed.clone();
                            nc.insert(i);
                            next_states.push((nb, nc));
                        }
                    }
                }
                SetElem::Wildcard(p) => {
                    // Any object strictly below the parent, at any depth.
                    // Wildcard matches do not consume direct children, so
                    // they do not affect the rest variable.
                    for d in path::descendants(store, parent).skip(1) {
                        for nb in match_pattern(store, d, p, b) {
                            next_states.push((nb, consumed.clone()));
                        }
                    }
                }
                SetElem::Var(v) => {
                    // A set-valued variable: its bound contents must all be
                    // present among the children; they are consumed.
                    let Some(BoundValue::ObjSet(ids)) = b.get(*v) else {
                        // Unbound set variables cannot be matched against
                        // data (they only make sense in rule heads).
                        continue;
                    };
                    let mut nc = consumed.clone();
                    let mut ok = true;
                    for idv in ids {
                        match children.iter().position(|c| c == idv) {
                            Some(i) => {
                                nc.insert(i);
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        next_states.push((b.clone(), nc));
                    }
                }
            }
        }
        states = next_states;
        if states.is_empty() {
            return Vec::new();
        }
    }

    // Rest variable: binds the unconsumed children; attached conditions
    // must each be satisfied by some object in the rest.
    let mut out = Vec::new();
    'state: for (b, consumed) in states {
        match &sp.rest {
            None => out.push(b),
            Some(rest) => {
                let rest_ids: Vec<ObjId> = children
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !consumed.contains(i))
                    .map(|(_, &c)| c)
                    .collect();
                let Some(with_rest) = b.bind(rest.var, BoundValue::ObjSet(rest_ids.clone())) else {
                    continue 'state;
                };
                // Conditions pushed into the rest (§3.3): each must match
                // some member of the rest set.
                let mut cond_states = vec![with_rest];
                for cond in &rest.conditions {
                    // Var-free flat conditions bind nothing, so they
                    // collapse to a membership test: the state either
                    // survives unchanged or dies. (The recursive path
                    // would yield one identical state per witness; callers
                    // deduplicate, so only the multiplicity differs.)
                    if let Some(flat) = crate::batch::FlatCond::compile(cond) {
                        if rest_ids.iter().any(|&rid| flat.matches(store, rid)) {
                            continue;
                        }
                        continue 'state;
                    }
                    let mut next = Vec::new();
                    for cb in &cond_states {
                        for &rid in &rest_ids {
                            next.extend(match_pattern(store, rid, cond, cb));
                        }
                    }
                    cond_states = next;
                    if cond_states.is_empty() {
                        continue 'state;
                    }
                }
                out.extend(cond_states);
            }
        }
    }
    out
}

/// Unify a term with an atomic OEM value, extending `b` in place. Returns
/// `false` (bindings possibly left partially extended — callers discard on
/// failure) when the term cannot unify.
fn unify_term_value(term: &Term, value: &Value, b: &mut Bindings) -> bool {
    match term {
        Term::Const(c) => atomic_eq(c, value),
        Term::Var(v) => match b.get(*v) {
            Some(BoundValue::Atom(existing)) => atomic_eq(existing, value),
            Some(_) => false,
            None => b.bind_mut(*v, BoundValue::Atom(value.clone())),
        },
        // Parameters must be substituted before matching; function terms
        // never match data.
        Term::Param(_) | Term::Func(..) => false,
    }
}

/// Atomic equality with numeric promotion (3 matches 3.0).
pub fn atomic_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Interned: equal symbols iff equal strings, no interner read.
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => a == b || a.compare_atomic(b) == Some(std::cmp::Ordering::Equal),
    }
}

/// A hashable stand-in for an atomic value under [`atomic_eq`]: values that
/// compare equal share a key (numbers are keyed by their `f64` view, `-0.0`
/// as `0.0`). Unequal values may share one too — integers beyond 2^53 —
/// so a key hit is a candidate to confirm with [`atomic_eq`].
pub fn atomic_key(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::real(*i as f64 + 0.0),
        Value::RealBits(b) => Value::real(f64::from_bits(*b) + 0.0),
        other => other.clone(),
    }
}

/// Match a pattern against every top-level object of a store. Solutions
/// are deduplicated.
///
/// ```
/// use engine::bindings::Bindings;
/// let store = oem::parser::parse_store(
///     "<&p, person, set, {<&n, name, 'Ann'>}>",
/// ).unwrap();
/// let query = msl::parse_query("X :- <person {<name N>}>@s").unwrap();
/// let msl::TailItem::Match { pattern, .. } = &query.tail[0] else { unreachable!() };
/// let solutions = engine::match_top_level(&store, pattern, &Bindings::new());
/// assert_eq!(solutions.len(), 1);
/// ```
pub fn match_top_level(store: &ObjectStore, pat: &Pattern, base: &Bindings) -> Vec<Bindings> {
    match_objects(store, store.top_level().iter().copied(), pat, base)
}

/// Match a pattern against the objects `ids`, in order. Solutions are
/// deduplicated (keep-first), so a subsequence of `top_level()` holding
/// every object that matches gives [`match_top_level`]'s answer.
pub fn match_objects(
    store: &ObjectStore,
    ids: impl IntoIterator<Item = ObjId>,
    pat: &Pattern,
    base: &Bindings,
) -> Vec<Bindings> {
    let mut out = Vec::new();
    for id in ids {
        out.extend(match_pattern(store, id, pat, base));
    }
    dedup_bindings(out)
}

/// Match a conjunction of patterns against one store (each pattern against
/// the store's top-level objects), threading bindings left to right.
pub fn match_tail_patterns(
    store: &ObjectStore,
    patterns: &[&Pattern],
    base: &Bindings,
) -> Vec<Bindings> {
    let mut states = vec![base.clone()];
    for pat in patterns {
        let mut next = Vec::new();
        for b in &states {
            next.extend(match_top_level(store, pat, b));
        }
        states = next;
        if states.is_empty() {
            break;
        }
    }
    dedup_bindings(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_query;
    use msl::TailItem;
    use oem::parser::parse_store;
    use oem::{sym, Symbol};

    /// The whois source of Figure 2.3.
    fn whois() -> ObjectStore {
        parse_store(
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
        .unwrap()
    }

    fn tail_pattern(query: &str) -> Pattern {
        let q = parse_query(query).unwrap();
        match q.tail.into_iter().next().unwrap() {
            TailItem::Match { pattern, .. } => pattern,
            _ => panic!("expected match item"),
        }
    }

    fn atom(b: &Bindings, var: &str) -> Value {
        b.get(sym(var)).unwrap().as_atom().unwrap().clone()
    }

    #[test]
    fn paper_binding_bw1() {
        // Matching MS1's whois pattern produces the paper's b_w1 binding:
        // N='Joe Chung', R='employee', Rest1={e_mail object}.
        let store = whois();
        let pat = tail_pattern("X :- <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 2);

        let joe = sols
            .iter()
            .find(|b| atom(b, "N") == Value::str("Joe Chung"))
            .expect("b_w1 exists");
        assert_eq!(atom(joe, "R"), Value::str("employee"));
        let rest = joe.get(sym("Rest1")).unwrap().as_obj_set().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(store.get(rest[0]).label, sym("e_mail"));

        // b_w2: Nick, student, Rest1 = {year object}.
        let nick = sols
            .iter()
            .find(|b| atom(b, "N") == Value::str("Nick Naive"))
            .expect("b_w2 exists");
        assert_eq!(atom(nick, "R"), Value::str("student"));
        let rest = nick.get(sym("Rest1")).unwrap().as_obj_set().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(store.get(rest[0]).label, sym("year"));
    }

    #[test]
    fn label_variable_binds_schema_information() {
        // Variables in label position retrieve schema information (§2,
        // "Other Features").
        let store = whois();
        let pat = tail_pattern("X :- <person {<L V>}>@whois");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        let labels: std::collections::HashSet<Value> = sols.iter().map(|b| atom(b, "L")).collect();
        assert!(labels.contains(&Value::str("name")));
        assert!(labels.contains(&Value::str("e_mail")));
        assert!(labels.contains(&Value::str("year")));
    }

    #[test]
    fn irregular_structure_tolerated() {
        // &p2 has no e_mail; a pattern requiring one matches only &p1 —
        // with no "erroneous or unexpected results".
        let store = whois();
        let pat = tail_pattern("X :- <person {<e_mail E>}>@whois");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(atom(&sols[0], "E"), Value::str("chung@cs"));
    }

    #[test]
    fn rest_can_be_empty() {
        let store = parse_store("<&p, person, set, {<&n, name, 'A'>}>").unwrap();
        let pat = tail_pattern("X :- <person {<name N> | Rest}>@s");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols[0].get(sym("Rest")).unwrap(),
            &BoundValue::ObjSet(vec![])
        );
    }

    #[test]
    fn rest_conditions_filter() {
        // Qw pushes <year 3> into Rest1: only Nick matches.
        let store = whois();
        let pat = tail_pattern(
            "X :- <person {<name N> <dept 'CS'> <relation R> | Rest1:{<year 3>}}>@whois",
        );
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(atom(&sols[0], "N"), Value::str("Nick Naive"));
    }

    #[test]
    fn object_variable_binds_object() {
        let store = whois();
        let pat = tail_pattern("X :- X:<person {<name 'Joe Chung'>}>@whois");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 1);
        let id = sols[0].get(sym("X")).unwrap().as_obj().unwrap();
        assert_eq!(store.oid(id), sym("p1"));
    }

    #[test]
    fn oid_field_matches_as_string() {
        let store = whois();
        let pat = tail_pattern("X :- <Oid name 'Joe Chung'>@whois");
        // names are not top-level; match against all objects directly.
        let mut sols = Vec::new();
        for id in store.ids() {
            sols.extend(match_pattern(&store, id, &pat, &Bindings::new()));
        }
        assert_eq!(sols.len(), 1);
        assert_eq!(atom(&sols[0], "Oid"), Value::str("n1"));
    }

    #[test]
    fn oid_constant_matches_explicit_and_generated_oids() {
        let mut store = parse_store("<&n1, name, 'Ann'>").unwrap();
        store.atom("name", "Bob");
        for (oid, want) in [("n1", Some("Ann")), ("x1", Some("Bob")), ("x01", None)] {
            let pat = tail_pattern(&format!("X :- <'{oid}' name N>@s"));
            let names: Vec<Value> = store
                .ids()
                .flat_map(|id| match_pattern(&store, id, &pat, &Bindings::new()))
                .map(|b| atom(&b, "N"))
                .collect();
            assert_eq!(
                names,
                want.into_iter().map(Value::str).collect::<Vec<_>>(),
                "{oid}"
            );
        }
    }

    #[test]
    fn type_field_matching() {
        let store = whois();
        let pat = tail_pattern("X :- <person {<Oid year T 3>}>@whois");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(atom(&sols[0], "T"), Value::str("integer"));
    }

    #[test]
    fn numeric_promotion_in_value_match() {
        let store = parse_store("<&p, reading, set, {<&v, val, 3.0>}>").unwrap();
        let pat = tail_pattern("X :- <reading {<val 3>}>@s");
        assert_eq!(match_top_level(&store, &pat, &Bindings::new()).len(), 1);
    }

    #[test]
    fn wildcard_matches_at_depth() {
        let store =
            parse_store("<&p, person, set, {<&a, affil, set, {<&g, grp, set, {<&y, year, 3>}>}>}>")
                .unwrap();
        // Direct pattern fails (year is 3 levels down) ...
        let direct = tail_pattern("X :- <person {<year 3>}>@s");
        assert!(match_top_level(&store, &direct, &Bindings::new()).is_empty());
        // ... wildcard succeeds.
        let wild = tail_pattern("X :- <person {* <year Y>}>@s");
        let sols = match_top_level(&store, &wild, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(atom(&sols[0], "Y"), Value::Int(3));
    }

    #[test]
    fn wildcard_does_not_consume_rest() {
        let store = parse_store("<&p, person, set, {<&y, year, 3>}>").unwrap();
        let pat = tail_pattern("X :- <person {* <year 3> | Rest}>@s");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 1);
        // year object is still in the rest: wildcard matched it at depth 1
        // but wildcards do not consume.
        let rest = sols[0].get(sym("Rest")).unwrap().as_obj_set().unwrap();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn multiple_matches_enumerated() {
        let store =
            parse_store("<&p, person, set, {<&c1, child, 'Ann'> <&c2, child, 'Bob'>}>").unwrap();
        let pat = tail_pattern("X :- <person {<child C>}>@s");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn shared_variable_constrains_across_subpatterns() {
        let store = parse_store(
            "<&p, pair, set, {<&a, left, 'x'> <&b, right, 'x'>}>
             <&q, pair, set, {<&c, left, 'x'> <&d, right, 'y'>}>",
        )
        .unwrap();
        let pat = tail_pattern("X :- <pair {<left V> <right V>}>@s");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(atom(&sols[0], "V"), Value::str("x"));
    }

    #[test]
    fn value_variable_binds_subobject_set() {
        let store = whois();
        let pat = tail_pattern("X :- <person V>@whois");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        assert_eq!(sols.len(), 2);
        for s in &sols {
            assert!(s.get(sym("V")).unwrap().as_obj_set().unwrap().len() >= 4);
        }
    }

    #[test]
    fn set_pattern_against_atomic_value_fails() {
        let store = parse_store("<&n, name, 'Joe'>").unwrap();
        let pat = tail_pattern("X :- <name {<x 1>}>@s");
        assert!(match_top_level(&store, &pat, &Bindings::new()).is_empty());
    }

    #[test]
    fn cyclic_data_terminates() {
        let mut store = ObjectStore::new();
        let a = store
            .insert(sym("a"), sym("node"), Value::Set(vec![]))
            .unwrap();
        let b = store
            .insert(sym("b"), sym("node"), Value::Set(vec![a]))
            .unwrap();
        store.add_child(a, b).unwrap();
        store.add_top(a);
        let pat = tail_pattern("X :- <node {* <node V>}>@s");
        let sols = match_top_level(&store, &pat, &Bindings::new());
        // Both nodes are descendants of a (cycle), each binds V to a set.
        assert!(!sols.is_empty());
    }

    #[test]
    fn match_tail_patterns_joins_within_store() {
        let store = parse_store(
            "<&e1, emp, set, {<&n1, name, 'A'> <&m1, mgr, 'B'>}>
             <&e2, emp, set, {<&n2, name, 'B'> <&m2, mgr, 'C'>}>",
        )
        .unwrap();
        // Find employee X whose manager is also an employee.
        let p1 = tail_pattern("X :- <emp {<name N> <mgr M>}>@s");
        let p2 = tail_pattern("X :- <emp {<name M>}>@s");
        let sols = match_tail_patterns(&store, &[&p1, &p2], &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(atom(&sols[0], "N"), Value::str("A"));
        assert_eq!(atom(&sols[0], "M"), Value::str("B"));
    }

    #[test]
    fn bound_base_bindings_constrain() {
        let store = whois();
        let pat = tail_pattern("X :- <person {<name N>}>@whois");
        let base = Bindings::new()
            .bind(
                Symbol::intern("N"),
                BoundValue::Atom(Value::str("Nick Naive")),
            )
            .unwrap();
        let sols = match_top_level(&store, &pat, &base);
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn atomic_key_agrees_with_atomic_eq() {
        let values = [
            Value::Int(3),
            Value::real(3.0),
            Value::real(2.5),
            Value::Int(0),
            Value::real(-0.0),
            Value::str("3"),
            Value::str("3.0"),
            Value::str("Joe Chung"),
            Value::str("joe chung"),
            Value::str(""),
            Value::Bool(true),
            Value::real(f64::NAN),
        ];
        for a in &values {
            for b in &values {
                // Equal values share a key; among these (no integer beyond
                // 2^53) a shared key also means equal.
                assert_eq!(
                    atomic_key(a) == atomic_key(b),
                    atomic_eq(a, b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}
