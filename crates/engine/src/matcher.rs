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
use oem::{path, ObjId, ObjectStore, Symbol, Value};
use std::sync::Arc;

// ---- the depth-first kernel ----------------------------------------------
//
// One search extends one `Bindings` in place. Every binding it makes is
// recorded on a trail and taken back when the search backtracks, so a
// solution costs no clone until its sink copies what it needs. A set
// pattern records the children its subpatterns consumed as a bitmask, one
// word per 64 children; the rest variable binds the unmarked ones.
// Solutions arrive in the order the element-by-element enumeration lists
// them: by the first element's choice, then the second's, and so on.

/// What a search calls with each solution. It may extend the bindings,
/// and must take back what it added before it returns.
type Cont<'c> = dyn FnMut(&mut Bindings, &mut Vec<Symbol>) + 'c;

/// Match `pat` against each object of `ids` in order, extending `b` in
/// place, and hand every solution to `sink`. The sink may extend the
/// bindings (a join matching its next pattern does) if it takes the
/// extension back before it returns; `b` is as it was when this returns.
pub fn match_each(
    store: &ObjectStore,
    ids: impl IntoIterator<Item = ObjId>,
    pat: &Pattern,
    b: &mut Bindings,
    sink: &mut dyn FnMut(&mut Bindings),
) {
    let mut trail = Vec::new();
    for id in ids {
        match_obj(store, id, pat, b, &mut trail, &mut |b, _| sink(b));
    }
}

/// Match `pat` against the object `id` in `store`, extending `base`.
/// Returns every consistent binding (empty vector = no match).
pub fn match_pattern(
    store: &ObjectStore,
    id: ObjId,
    pat: &Pattern,
    base: &Bindings,
) -> Vec<Bindings> {
    let mut out = Vec::new();
    match_each(store, [id], pat, &mut base.clone(), &mut |s| {
        out.push(s.clone())
    });
    out
}

fn match_obj(
    store: &ObjectStore,
    id: ObjId,
    pat: &Pattern,
    b: &mut Bindings,
    trail: &mut Vec<Symbol>,
    k: &mut Cont<'_>,
) {
    let obj = store.get(id);

    // Constant-field pre-checks reject before any binding is made: the
    // overwhelmingly common outcome when scanning a candidate set is a
    // label mismatch.
    if let Term::Const(c) = &pat.label {
        if !atomic_eq(c, &Value::Str(obj.label)) {
            return;
        }
    }
    if let Some(Term::Const(c)) = &pat.oid {
        // Only a string equals an oid; looking it up interns nothing.
        if !matches!(c, Value::Str(s) if store.by_oid(*s) == Some(id)) {
            return;
        }
    }
    if let PatValue::Term(Term::Const(c)) = &pat.value {
        if !atomic_eq(c, &obj.value) {
            return;
        }
    }

    let mark = trail.len();
    // Object variable: X:<...> binds X to the object itself. Oid field:
    // variables bind to the oid as a string value; a constant was checked
    // above. Label field: labels are matched as string values so that the
    // same variable can bind a label here and a value elsewhere (schematic
    // discrepancy, §2).
    let fields =
        pat.obj_var
            .is_none_or(|ov| b.bind_trailed(ov, BoundValue::Obj(id), trail))
            && pat
                .oid
                .as_ref()
                .filter(|t| !matches!(t, Term::Const(_)))
                .is_none_or(|t| unify_term_value(t, &Value::Str(store.oid(id)), b, trail))
            && unify_term_value(&pat.label, &Value::Str(obj.label), b, trail)
            && pat.typ.as_ref().is_none_or(|t| {
                unify_term_value(t, &Value::str(obj.oem_type().keyword()), b, trail)
            });
    if fields {
        match (&pat.value, &obj.value) {
            // A variable in value position binds the set of subobjects.
            (PatValue::Term(Term::Var(v)), Value::Set(children)) => {
                if b.bind_trailed(*v, BoundValue::ObjSet(children.as_slice().into()), trail) {
                    k(b, trail);
                }
            }
            (PatValue::Term(_), Value::Set(_)) => {}
            (PatValue::Term(t), atomic) => {
                if unify_term_value(t, atomic, b, trail) {
                    k(b, trail);
                }
            }
            (PatValue::Set(sp), Value::Set(children)) => {
                let mut word = [0u64];
                let mut words = Vec::new();
                let consumed: &mut [u64] = if children.len() <= 64 {
                    &mut word
                } else {
                    words.resize(children.len().div_ceil(64), 0);
                    &mut words
                };
                let set = SetMatch {
                    store,
                    parent: id,
                    children,
                    sp,
                };
                set.elements(0, consumed, b, trail, k);
            }
            (PatValue::Set(_), _) => {}
        }
    }
    b.undo(trail, mark);
}

/// A set pattern being matched against the children of `parent`.
struct SetMatch<'a> {
    store: &'a ObjectStore,
    parent: ObjId,
    children: &'a [ObjId],
    sp: &'a SetPattern,
}

impl SetMatch<'_> {
    /// Match the elements from `ei` on, then the rest.
    fn elements(
        &self,
        ei: usize,
        consumed: &mut [u64],
        b: &mut Bindings,
        trail: &mut Vec<Symbol>,
        k: &mut Cont<'_>,
    ) {
        let Some(elem) = self.sp.elements.get(ei) else {
            return self.rest(consumed, b, trail, k);
        };
        match elem {
            SetElem::Pattern(p) => {
                for (i, &c) in self.children.iter().enumerate() {
                    let (w, bit) = (i / 64, 1u64 << (i % 64));
                    match_obj(self.store, c, p, b, trail, &mut |b, trail| {
                        let before = consumed[w];
                        consumed[w] |= bit;
                        self.elements(ei + 1, consumed, b, trail, k);
                        consumed[w] = before;
                    });
                }
            }
            SetElem::Wildcard(p) => {
                // Any object strictly below the parent, at any depth.
                // Wildcard matches do not consume direct children, so they
                // do not affect the rest variable.
                for d in path::descendants(self.store, self.parent).skip(1) {
                    match_obj(self.store, d, p, b, trail, &mut |b, trail| {
                        self.elements(ei + 1, consumed, b, trail, k)
                    });
                }
            }
            SetElem::Var(v) => {
                // A set-valued variable: its bound contents must all be
                // present among the children; they are consumed. Unbound
                // set variables cannot be matched against data (they only
                // make sense in rule heads).
                let Some(BoundValue::ObjSet(ids)) = b.get(*v) else {
                    return;
                };
                let saved = consumed.to_vec();
                for idv in ids.iter() {
                    let Some(i) = self.children.iter().position(|c| c == idv) else {
                        consumed.copy_from_slice(&saved);
                        return;
                    };
                    consumed[i / 64] |= 1 << (i % 64);
                }
                self.elements(ei + 1, consumed, b, trail, k);
                consumed.copy_from_slice(&saved);
            }
        }
    }

    /// Rest variable: binds the unconsumed children; attached conditions
    /// must each be satisfied by some object in the rest.
    fn rest(&self, consumed: &[u64], b: &mut Bindings, trail: &mut Vec<Symbol>, k: &mut Cont<'_>) {
        let Some(rest) = &self.sp.rest else {
            return k(b, trail);
        };
        // Counted first, so the shared set is allocated once at its size.
        let mut unconsumed = (self.children.iter().enumerate())
            .filter(|(i, _)| consumed[i / 64] & (1 << (i % 64)) == 0)
            .map(|(_, &c)| c);
        let taken: u32 = consumed.iter().map(|w| w.count_ones()).sum();
        let rest_ids: Arc<[ObjId]> = (0..self.children.len() - taken as usize)
            .map(|_| unconsumed.next().expect("counted above"))
            .collect();
        let mark = trail.len();
        if b.bind_trailed(rest.var, BoundValue::ObjSet(Arc::clone(&rest_ids)), trail) {
            conditions(self.store, &rest_ids, &rest.conditions, b, trail, k);
        }
        b.undo(trail, mark);
    }
}

/// Conditions pushed into a rest (§3.3): each must match some member of
/// the rest set, in the order listed.
fn conditions(
    store: &ObjectStore,
    rest_ids: &[ObjId],
    conds: &[Pattern],
    b: &mut Bindings,
    trail: &mut Vec<Symbol>,
    k: &mut Cont<'_>,
) {
    let Some((cond, later)) = conds.split_first() else {
        return k(b, trail);
    };
    // Var-free flat conditions bind nothing, so they collapse to a
    // membership test: the search goes on once, or stops. (Enumerating
    // would yield one identical solution per witness; callers deduplicate,
    // so only the multiplicity differs.)
    if let Some(flat) = crate::batch::FlatCond::compile(cond) {
        if rest_ids.iter().any(|&rid| flat.matches(store, rid)) {
            conditions(store, rest_ids, later, b, trail, k);
        }
        return;
    }
    for &rid in rest_ids {
        match_obj(store, rid, cond, b, trail, &mut |b, trail| {
            conditions(store, rest_ids, later, b, trail, k)
        });
    }
}

/// Unify a term with an atomic OEM value, extending `b` in place and
/// recording a fresh binding on `trail`.
fn unify_term_value(term: &Term, value: &Value, b: &mut Bindings, trail: &mut Vec<Symbol>) -> bool {
    match term {
        Term::Const(c) => atomic_eq(c, value),
        Term::Var(v) => match b.get(*v) {
            Some(BoundValue::Atom(existing)) => atomic_eq(existing, value),
            Some(_) => false,
            None => b.bind_trailed(*v, BoundValue::Atom(value.clone()), trail),
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
    match_each(store, ids, pat, &mut base.clone(), &mut |s| {
        out.push(s.clone())
    });
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
            &BoundValue::ObjSet(Arc::new([]))
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
