//! The set-valued form of a parameterized query.
//!
//! §3.4's parameterized-query node fills `Qcs`'s `$R`, `$LN`, `$FN` slots
//! from one binding tuple and sends the result; a source that declares
//! [`wrappers::Capabilities::parameterized_sets`] can take a whole batch of
//! tuples in one call instead. The batch travels inside the query: every
//! `$V` becomes the variable `V`, restricted by `one_of(V, v1, v2, …)` to
//! the distinct values the batch holds for it and exported through a
//! `bind_for_V` carrier, so the answer says which tuple each object
//! belongs to. This module builds that query and splits its answer; the
//! operator that decides when to send one lives in [`crate::exec`].
//!
//! Per-variable sets describe a *superset* of the tuples: asking for
//! (`Ann`, `Able`) and (`Bob`, `Busy`) also admits an (`Ann`, `Busy`).
//! [`split_answer`] drops objects of combinations nobody asked for.

use crate::error::{MedError, Result};
use crate::graph::{carrier_label, find_carrier};
use engine::matcher::{atomic_eq, atomic_key};
use engine::subst::{fill_params_rule, Subst};
use msl::{Head, PatValue, Pattern, Rule, SetElem, Term};
use oem::{copy, ObjId, ObjectStore, Symbol, Value};
use std::collections::{HashMap, HashSet};

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

/// Split the answer to a set-valued query into one store per requested
/// tuple, each holding what the query filled with that tuple would have
/// returned: the objects whose carriers equal the tuple (as the matcher
/// compares: 3 is 3.0), in the answer's order, less the carriers. A tuple
/// the source found nothing for gets an empty store.
pub(crate) fn split_answer(
    answer: &ObjectStore,
    source: Symbol,
    params: &[Symbol],
    tuples: &[&[Value]],
) -> Result<Vec<ObjectStore>> {
    let carriers: Vec<Symbol> = params.iter().map(|p| carrier_label(*p)).collect();
    let mut wanted: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (ti, t) in tuples.iter().enumerate() {
        wanted
            .entry(t.iter().map(atomic_key).collect())
            .or_default()
            .push(ti);
    }
    // Each store with the old-id → new-id map of what it has copied, so
    // objects shared between a tuple's results stay shared.
    let mut out: Vec<(ObjectStore, HashMap<ObjId, ObjId>)> = tuples
        .iter()
        .map(|_| {
            (
                ObjectStore::with_oid_prefix(&format!("{source}_r")),
                HashMap::new(),
            )
        })
        .collect();
    for &top in answer.top_level() {
        let kids = answer.children(top);
        let mut found: Vec<&Value> = Vec::with_capacity(carriers.len());
        for label in &carriers {
            let carrier = find_carrier(answer, top, *label).ok_or_else(|| {
                MedError::Wrapper(format!("source result lacks the {label} carrier object"))
            })?;
            found.push(&answer.get(carrier).value);
        }
        let key: Vec<Value> = found.iter().map(|v| atomic_key(v)).collect();
        let Some(candidates) = wanted.get(&key) else {
            continue; // a combination of listed values nobody asked for
        };
        let own: Vec<ObjId> = kids
            .iter()
            .copied()
            .filter(|&k| !carriers.contains(&answer.get(k).label))
            .collect();
        for &ti in candidates {
            let asked = tuples[ti].iter().zip(&found);
            if !asked.into_iter().all(|(want, got)| atomic_eq(want, got)) {
                continue;
            }
            let (store, map) = &mut out[ti];
            let copied = copy::deep_copy_all_into(answer, &own, store, map);
            let result = store.insert_auto(answer.get(top).label, Value::Set(copied));
            store.add_top(result);
        }
    }
    Ok(out.into_iter().map(|(store, _)| store).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::parse_rule;
    use oem::printer::compact;
    use oem::sym;
    use wrappers::scenario::cs_wrapper;
    use wrappers::Wrapper;

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

    #[test]
    fn split_equals_the_per_tuple_answers() {
        let cs = cs_wrapper();
        let params = [sym("R"), sym("FN"), sym("LN")];
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
        let answer = cs.query(&batched).unwrap();
        assert_eq!(answer.top_level().len(), 2, "one round-trip, both people");
        let stores = split_answer(&answer, sym("cs"), &params, &asked).unwrap();
        for (tuple, store) in tuples.iter().zip(&stores) {
            let filled: Subst = params
                .iter()
                .zip(tuple)
                .map(|(p, v)| (*p, Term::Const(v.clone())))
                .collect();
            let alone = cs.query(&fill_params_rule(&qcs(), &filled)).unwrap();
            let print = |s: &ObjectStore| -> Vec<String> {
                s.top_level().iter().map(|&t| compact(s, t)).collect()
            };
            assert_eq!(print(store), print(&alone), "{tuple:?}");
        }
        assert!(stores[2].top_level().is_empty() && stores[3].top_level().is_empty());
    }

    #[test]
    fn split_compares_as_the_matcher_does() {
        // The source answers with its own 3.0 for a requested 3; both a
        // requested 3 and a requested 3.0 own that object.
        let mut answer = ObjectStore::new();
        let kept = answer.atom("bind_for_T", "t");
        let carrier = answer.insert_auto(sym("bind_for_Y"), Value::real(3.0));
        let top = answer.set("bind_for_s", vec![kept, carrier]);
        answer.add_top(top);
        let tuples = [[Value::Int(3)], [Value::real(3.0)], [Value::str("3")]];
        let asked: Vec<&[Value]> = tuples.iter().map(|t| t.as_slice()).collect();
        let stores = split_answer(&answer, sym("s"), &[sym("Y")], &asked).unwrap();
        let sizes: Vec<usize> = stores.iter().map(|s| s.top_level().len()).collect();
        assert_eq!(sizes, [1, 1, 0]);
        assert_eq!(
            compact(&stores[0], stores[0].top_level()[0]),
            "<bind_for_s {<bind_for_T 't'>}>"
        );
        // An answer without the carrier cannot be attributed to a tuple.
        let mut bare = ObjectStore::new();
        let top = bare.set("bind_for_s", vec![]);
        bare.add_top(top);
        assert!(split_answer(&bare, sym("s"), &[sym("Y")], &asked).is_err());
    }
}
