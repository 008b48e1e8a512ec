//! The set-valued form of a parameterized query.
//!
//! §3.4's parameterized-query node fills `Qcs`'s `$R`, `$LN`, `$FN` slots
//! from one binding tuple and sends the result; a source that declares
//! [`wrappers::Capabilities::parameterized_sets`] can take a whole batch of
//! tuples in one call instead. The batch travels inside the query: every
//! `$V` becomes the variable `V`, restricted by `one_of(V, v1, v2, …)` to
//! the distinct values the batch holds for it and exported through a
//! `bind_for_V` carrier, so each row of the answer says which tuple it
//! belongs to. This module builds that query and splits its rows; the
//! operator that decides when to send one lives in [`crate::exec`].
//!
//! Per-variable sets describe a *superset* of the tuples: asking for
//! (`Ann`, `Able`) and (`Bob`, `Busy`) also admits an (`Ann`, `Busy`).
//! [`split_answer`] drops rows of combinations nobody asked for.

use crate::graph::carrier_label;
use engine::bindings::BoundValue;
use engine::matcher::{atomic_eq, atomic_key};
use engine::subst::{fill_params_rule, Subst};
use msl::{Head, PatValue, Pattern, Rule, SetElem, Term};
use oem::{copy, ObjectStore, Symbol, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wrappers::api::construct_answer;
use wrappers::{ExtractVar, Rows};

/// `query` with every `$V` of `params` turned into the variable `V` and
/// `<bind_for_V V>` added to its head — the set-valued query less its
/// `one_of` items. `None` if the head is not the planner's
/// `<bind_for_src {…}>` shape.
pub(crate) fn template(query: &Rule, params: &[Symbol]) -> Option<Rule> {
    let as_vars: Subst = params.iter().map(|p| (*p, Term::Var(*p))).collect();
    let mut rule = fill_params_rule(query, &as_vars);
    let Head::Pattern(Pattern {
        value: PatValue::Set(head),
        ..
    }) = &mut rule.head
    else {
        return None;
    };
    head.elements.extend(params.iter().map(|p| {
        SetElem::Pattern(Pattern::lv(
            Term::Const(Value::Str(carrier_label(*p))),
            PatValue::Term(Term::Var(*p)),
        ))
    }));
    Some(rule)
}

/// The [`template`] restricted to `tuples`: one `one_of` per parameter,
/// listing the distinct values the tuples hold for it.
pub(crate) fn restrict(template: &Rule, params: &[Symbol], tuples: &[&[Value]]) -> Rule {
    let mut rule = template.clone();
    for (k, p) in params.iter().enumerate() {
        let mut seen = HashSet::new();
        let values = tuples.iter().map(|t| &t[k]).filter(|v| seen.insert(*v));
        rule.tail.push(wrappers::api::one_of(*p, values.cloned()));
    }
    rule
}

/// Split the rows of a set-valued query's answer into one answer per
/// requested tuple, each holding the rows the query filled with that tuple
/// would have returned: the rows whose parameter columns — the ones after
/// the first `kept` — equal the tuple (as the matcher compares: 3 is 3.0),
/// in the answer's order, less those columns. A tuple the source found
/// nothing for gets no rows. Every part shares the answer's store.
pub(crate) fn split_answer(answer: &Rows, kept: usize, tuples: &[&[Value]]) -> Vec<Rows> {
    let mut wanted: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (ti, t) in tuples.iter().enumerate() {
        wanted
            .entry(t.iter().map(atomic_key).collect())
            .or_default()
            .push(ti);
    }
    let mut out: Vec<Vec<Vec<BoundValue>>> = vec![Vec::new(); tuples.len()];
    for row in &answer.rows {
        let (own, params) = row.split_at(kept);
        let Some(found) = params
            .iter()
            .map(BoundValue::as_atom)
            .collect::<Option<Vec<&Value>>>()
        else {
            continue; // a parameter bound to an object matches no tuple
        };
        let key: Vec<Value> = found.iter().map(|v| atomic_key(v)).collect();
        let Some(candidates) = wanted.get(&key) else {
            continue; // a combination of listed values nobody asked for
        };
        for &ti in candidates {
            let asked = tuples[ti].iter().zip(&found);
            if asked.into_iter().all(|(want, got)| atomic_eq(want, got)) {
                out[ti].push(own.to_vec());
            }
        }
    }
    out.into_iter()
        .map(|rows| Rows {
            rows,
            store: Arc::clone(&answer.store),
        })
        .collect()
}

/// The store the answer cache files for one tuple's `part` of a split
/// answer: `query`, the set-valued query filled with that tuple, has its
/// head constructed once per row as for a lone answer, and each answer
/// object is then copied out child by child — depth-first, an object
/// before its children, the answer object after them. That is the order
/// a copy out of the set-valued answer's own objects numbers oids in, so
/// the entry's text does not depend on whether the tuple travelled alone
/// or in a batch. `None` if the rows cannot build the head.
pub(crate) fn part_store(
    source: Symbol,
    query: &Rule,
    vars: &[ExtractVar],
    part: &Rows,
) -> Option<ObjectStore> {
    let names: Vec<Symbol> = vars.iter().map(|v| v.var).collect();
    let built = construct_answer(source, &query.head, &names, &part.store, &part.rows).ok()?;
    let mut store = ObjectStore::with_oid_prefix(&format!("{source}_r"));
    let mut map = HashMap::new();
    for &top in built.top_level() {
        let kids = copy::deep_copy_all_into(&built, built.children(top), &mut store, &mut map);
        let copied = store.insert_auto(built.get(top).label, Value::Set(kids));
        store.add_top(copied);
    }
    Some(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_rule;
    use oem::printer::compact;
    use oem::sym;
    use wrappers::scenario::cs_wrapper;
    use wrappers::{VarKind, Wrapper};

    fn qcs() -> Rule {
        parse_rule(
            "<bind_for_cs {<bind_for_Rest2 Rest2>}> :- \
             <$R {<first_name $FN> <last_name $LN> | Rest2}>@cs",
        )
        .unwrap()
    }

    #[test]
    fn template_and_restriction_print_as_msl() {
        let params = [sym("R"), sym("FN"), sym("LN")];
        let template = template(&qcs(), &params).unwrap();
        let joe = ["employee", "Joe", "Chung"].map(Value::str);
        let nick = ["student", "Nick", "Naive"].map(Value::str);
        let ann = ["student", "Ann", "Naive"].map(Value::str);
        let q = restrict(&template, &params, &[&joe, &nick, &ann]);
        assert_eq!(
            msl::printer::rule(&q).replace("\n    ", " "),
            "<bind_for_cs {<bind_for_Rest2 Rest2> <bind_for_R R> <bind_for_FN FN> \
             <bind_for_LN LN>}> :- <R {<first_name FN> <last_name LN> | Rest2}>@cs \
             AND one_of(R, 'employee', 'student') AND one_of(FN, 'Joe', 'Nick', 'Ann') \
             AND one_of(LN, 'Chung', 'Naive')"
        );
        // A head that is not a carrier set has nowhere to export to.
        let odd = parse_rule("X :- X:<$R {}>@cs").unwrap();
        assert!(super::template(&odd, &[sym("R")]).is_none());
    }

    /// Each row of `answer` as text: atoms rendered, objects printed.
    fn print(answer: &Rows) -> Vec<String> {
        let store = &answer.store;
        let value = |v: &BoundValue| match v {
            BoundValue::Atom(a) => a.render_atomic(),
            BoundValue::Obj(id) => compact(store, *id),
            BoundValue::ObjSet(ids) => ids.iter().map(|&id| compact(store, id)).collect(),
        };
        let row = |r: &Vec<BoundValue>| r.iter().map(value).collect::<Vec<_>>().join(" | ");
        answer.rows.iter().map(row).collect()
    }

    #[test]
    fn split_equals_the_per_tuple_answers() {
        let cs = cs_wrapper();
        let params = [sym("R"), sym("FN"), sym("LN")];
        let scalar = |v: &str| ExtractVar {
            var: sym(v),
            kind: VarKind::Scalar,
        };
        let vars = [scalar("Rest2")];
        let carried = ["Rest2", "R", "FN", "LN"].map(scalar);
        let tuples: Vec<Vec<Value>> = [
            ["employee", "Joe", "Chung"],
            ["student", "Nick", "Naive"],
            // Listed values, but not this combination: the per-variable
            // sets over-fetch Joe Chung for it and the split drops him.
            ["student", "Joe", "Chung"],
            ["student", "No", "Body"],
        ]
        .iter()
        .map(|t| t.iter().map(|s| Value::str(s)).collect())
        .collect();
        let asked: Vec<&[Value]> = tuples.iter().map(Vec::as_slice).collect();
        let batched = restrict(&template(&qcs(), &params).unwrap(), &params, &asked);
        let answer = cs.query_rows(&batched, &carried).unwrap();
        assert_eq!(answer.rows.len(), 2, "one round-trip, both people");
        let parts = split_answer(&answer, vars.len(), &asked);
        for (tuple, part) in tuples.iter().zip(&parts) {
            let filled: Subst = params
                .iter()
                .zip(tuple)
                .map(|(p, v)| (*p, Term::Const(v.clone())))
                .collect();
            let alone = cs
                .query_rows(&fill_params_rule(&qcs(), &filled), &vars)
                .unwrap();
            assert_eq!(print(part), print(&alone), "{tuple:?}");
        }
        assert!(parts[2].rows.is_empty() && parts[3].rows.is_empty());
    }

    #[test]
    fn split_compares_as_the_matcher_does() {
        // The source answers with its own 3.0 for a requested 3; both a
        // requested 3 and a requested 3.0 own that row.
        let answer = Rows {
            rows: vec![vec![
                BoundValue::Atom(Value::str("t")),
                BoundValue::Atom(Value::real(3.0)),
            ]],
            store: Arc::new(oem::ObjectStore::new()),
        };
        let tuples = [[Value::Int(3)], [Value::real(3.0)], [Value::str("3")]];
        let asked: Vec<&[Value]> = tuples.iter().map(|t| t.as_slice()).collect();
        let parts = split_answer(&answer, 1, &asked);
        let sizes: Vec<usize> = parts.iter().map(|p| p.rows.len()).collect();
        assert_eq!(sizes, [1, 1, 0]);
        assert_eq!(print(&parts[0]), ["'t'"]);
    }

    #[test]
    fn a_tuple_entry_numbers_oids_as_a_copy_out_of_the_batch() {
        let cs = cs_wrapper();
        let params = [sym("R"), sym("FN"), sym("LN")];
        let scalar = |v: &str| ExtractVar {
            var: sym(v),
            kind: VarKind::Scalar,
        };
        let vars = [scalar("Rest2")];
        let carried = ["Rest2", "R", "FN", "LN"].map(scalar);
        let tuples =
            [["employee", "Joe", "Chung"], ["student", "Nick", "Naive"]].map(|t| t.map(Value::str));
        let asked: Vec<&[Value]> = tuples.iter().map(|t| t.as_slice()).collect();
        let batched = restrict(&template(&qcs(), &params).unwrap(), &params, &asked);
        let answer = cs.query_rows(&batched, &carried).unwrap();
        let parts = split_answer(&answer, vars.len(), &asked);
        let filed: Vec<String> = (tuples.iter().zip(&parts))
            .map(|(tuple, part)| {
                let filled: Subst = (params.iter().zip(tuple))
                    .map(|(p, v)| (*p, Term::Const(v.clone())))
                    .collect();
                let query = fill_params_rule(&qcs(), &filled);
                let store = part_store(sym("cs"), &query, &vars, part).unwrap();
                oem::printer::print_store(&store)
            })
            .collect();
        // The entry text, warm-tier record included, of each tuple.
        assert_eq!(
            filed,
            [
                "<&cs_r4, bind_for_cs, set, {&cs_r1}>\n  \
                 <&cs_r1, bind_for_Rest2, set, {&cs_r2,&cs_r3}>\n    \
                 <&cs_r2, title, string, 'professor'>\n    \
                 <&cs_r3, reports_to, string, 'John Hennessy'>\n",
                "<&cs_r3, bind_for_cs, set, {&cs_r1}>\n  \
                 <&cs_r1, bind_for_Rest2, set, {&cs_r2}>\n    \
                 <&cs_r2, year, integer, 3>\n",
            ]
        );
    }
}
