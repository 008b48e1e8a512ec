//! Property-based tests (proptest) over the core data structures and
//! invariants:
//!
//! * OEM printer/parser round-trip, finite reals bit for bit;
//! * structural equality is an equivalence relation consistent with
//!   fingerprints; deep copies are structurally equal; dedup is idempotent;
//! * binding lists dedup keep-first, and `Bindings::retain` is `project`;
//! * MSL printer/parser round-trip over generated rules;
//! * matcher invariants: openness (extra subobjects never remove
//!   solutions) and the rest-variable partition property;
//! * a bind join that ships its tuples as value sets answers with the
//!   bytes of one that ships them one by one;
//! * pruning the chains the sources' summaries prove empty never changes
//!   a lookup's answer;
//! * the semi-structured source's value index answers like a scan;
//! * the answer cache's query shape is equal exactly where the printed
//!   canonical key is, and an exact hit serves what containment would.

mod common;

use engine::bindings::{Bindings, BoundValue};
use engine::matcher::match_top_level;
use msl::{Head, PatValue, Pattern, RestSpec, Rule, SetElem, SetPattern, TailItem, Term};
use oem::{ObjectBuilder, ObjectStore, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators

fn arb_label() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "person", "name", "dept", "year", "e_mail", "relation", "group", "title",
    ])
    .prop_map(|s| s.to_string())
}

fn arb_atom() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-z]{1,8}".prop_map(|s| Value::str(&s)),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000i32..1000).prop_map(|i| Value::real(i as f64 / 8.0)),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// A tree-shaped OEM builder of bounded depth/width.
fn arb_builder() -> impl Strategy<Value = ObjectBuilder> {
    let leaf = (arb_label(), arb_atom()).prop_map(|(l, v)| ObjectBuilder::atom_obj(l.as_str(), v));
    leaf.prop_recursive(3, 24, 4, |inner| {
        (arb_label(), prop::collection::vec(inner, 0..4)).prop_map(|(l, kids)| {
            let mut b = ObjectBuilder::set(l.as_str());
            for k in kids {
                b = b.child(k);
            }
            b
        })
    })
}

fn arb_store() -> impl Strategy<Value = ObjectStore> {
    prop::collection::vec(arb_builder(), 1..5).prop_map(|builders| {
        let mut store = ObjectStore::new();
        for b in builders {
            b.build_top(&mut store);
        }
        store
    })
}

/// A store with structural duplicates, sharing and a cycle, and a list of
/// its objects (repeats included) to deduplicate: every structure is built
/// one to three times, `links` make a top-level set share an existing
/// object, `back` closes one cycle from a set under a top-level object back
/// to it, and `picks` choose the roots.
fn arb_dedup_case() -> impl Strategy<Value = (ObjectStore, Vec<oem::ObjId>)> {
    (
        prop::collection::vec((arb_builder(), 1usize..4), 1..5),
        prop::collection::vec((0usize..64, 0usize..64), 0..4),
        (0usize..64, 0usize..64),
        prop::collection::vec(0usize..64, 9..25),
    )
        .prop_map(|(builders, links, back, picks)| {
            let mut store = ObjectStore::new();
            for (b, copies) in builders {
                for _ in 0..copies {
                    b.clone().build_top(&mut store);
                }
            }
            let tops = store.top_level().to_vec();
            let sets: Vec<oem::ObjId> = tops
                .iter()
                .copied()
                .filter(|&t| store.get(t).value.as_set().is_some())
                .collect();
            if !sets.is_empty() {
                for (p, c) in links {
                    let child = oem::ObjId::from_raw((c % store.len()) as u32);
                    store.add_child(sets[p % sets.len()], child).unwrap();
                }
                let top = sets[back.0 % sets.len()];
                let under: Vec<oem::ObjId> = oem::path::descendants(&store, top)
                    .filter(|&d| store.get(d).value.as_set().is_some())
                    .collect();
                store.add_child(under[back.1 % under.len()], top).unwrap();
            }
            let roots = picks
                .iter()
                .map(|&p| oem::ObjId::from_raw((p % store.len()) as u32))
                .collect();
            (store, roots)
        })
}

/// Keep-first duplicate elimination by pairwise comparison.
fn dedup_by_brute_force(store: &ObjectStore, roots: &[oem::ObjId]) -> Vec<oem::ObjId> {
    let mut kept: Vec<oem::ObjId> = Vec::new();
    for &r in roots {
        if !kept.iter().any(|&k| oem::eq::struct_eq(store, k, r)) {
            kept.push(r);
        }
    }
    kept
}

fn arb_binding_var() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["N", "R", "Rest", "X", "Y"])
}

/// A binding of a few variables to atoms, objects and object sets drawn
/// from small pools, so that equal bindings recur.
fn arb_bindings() -> impl Strategy<Value = Bindings> {
    let id = (0u32..3).prop_map(oem::ObjId::from_raw);
    let value = prop_oneof![
        (0i64..3).prop_map(|i| BoundValue::Atom(Value::Int(i))),
        id.clone().prop_map(BoundValue::Obj),
        prop::collection::vec(id, 0..3).prop_map(|ids| BoundValue::ObjSet(ids.into())),
    ];
    prop::collection::vec((arb_binding_var(), value), 0..4).prop_map(|pairs| {
        let mut b = Bindings::new();
        for (var, v) in pairs {
            b.bind_mut(oem::sym(var), v);
        }
        b
    })
}

// ---------------------------------------------------------------------
// OEM properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oem_print_parse_roundtrip(store in arb_store()) {
        let text = oem::printer::print_store(&store);
        let reparsed = oem::parser::parse_store(&text).unwrap();
        prop_assert_eq!(store.top_level().len(), reparsed.top_level().len());
        for (&a, &b) in store.top_level().iter().zip(reparsed.top_level()) {
            prop_assert!(oem::eq::struct_eq_cross(&store, a, &reparsed, b));
        }
    }

    /// Every finite real atom reads back bit for bit from its printed text.
    #[test]
    fn finite_reals_print_and_parse_bit_for_bit(bits in prop::collection::vec(any::<u64>(), 0..8)) {
        let mut reals = vec![-0.0, 5e-324, 1e300, 2.5];
        reals.extend(bits.into_iter().map(f64::from_bits).filter(|x| x.is_finite()));
        let mut store = ObjectStore::new();
        let kids = reals.iter().map(|&x| store.atom("r", x)).collect();
        let top = store.set("reals", kids);
        store.add_top(top);
        let text = oem::printer::print_store(&store);
        let back = oem::parser::parse_store(&text).unwrap();
        let read: Vec<Option<u64>> = back
            .children(back.top_level()[0])
            .iter()
            .map(|&c| back.get(c).value.as_real().map(f64::to_bits))
            .collect();
        let want: Vec<Option<u64>> = reals.iter().map(|x| Some(x.to_bits())).collect();
        prop_assert_eq!(read, want, "{}", text);
    }

    #[test]
    fn struct_eq_reflexive_and_fingerprint_consistent(store in arb_store()) {
        for &t in store.top_level() {
            prop_assert!(oem::eq::struct_eq(&store, t, t));
        }
        // Any two tops: equal fingerprints whenever structurally equal.
        for &a in store.top_level() {
            for &b in store.top_level() {
                if oem::eq::struct_eq(&store, a, b) {
                    prop_assert_eq!(
                        oem::eq::fingerprint(&store, a),
                        oem::eq::fingerprint(&store, b)
                    );
                    // Symmetry.
                    prop_assert!(oem::eq::struct_eq(&store, b, a));
                }
            }
        }
    }

    #[test]
    fn deep_copy_is_structurally_equal(store in arb_store()) {
        let mut dst = ObjectStore::with_oid_prefix("c");
        let roots = oem::copy::copy_top_level(&store, &mut dst);
        for (&orig, &copied) in store.top_level().iter().zip(&roots) {
            prop_assert!(oem::eq::struct_eq_cross(&store, orig, &dst, copied));
        }
    }

    #[test]
    fn dedup_is_idempotent_and_duplicate_free(store in arb_store()) {
        let once = oem::eq::dedup_structural(&store, store.top_level());
        let twice = oem::eq::dedup_structural(&store, &once);
        prop_assert_eq!(once.clone(), twice);
        for (i, &a) in once.iter().enumerate() {
            for &b in &once[i + 1..] {
                prop_assert!(!oem::eq::struct_eq(&store, a, b));
            }
        }
    }

    /// Dedup keeps exactly the first of each class, in input order — on
    /// root lists whose base colors differ pairwise (returned without
    /// refinement; only ever a short prefix here) and on lists where some
    /// share one.
    #[test]
    fn dedup_is_brute_force_keep_first(case in arb_dedup_case(), prefix in 2usize..9) {
        let (store, roots) = case;
        for roots in [&roots[..prefix], &roots[..]] {
            prop_assert_eq!(
                oem::eq::dedup_structural(&store, roots),
                dedup_by_brute_force(&store, roots),
                "roots={:?}", roots
            );
        }
    }

    /// Binding-list dedup keeps exactly the first of each binding, in input
    /// order.
    #[test]
    fn dedup_bindings_is_brute_force_keep_first(
        pool in prop::collection::vec(arb_bindings(), 1..5),
        picks in prop::collection::vec(0usize..8, 0..16),
    ) {
        let list: Vec<Bindings> = picks.iter().map(|&p| pool[p % pool.len()].clone()).collect();
        let mut kept: Vec<Bindings> = Vec::new();
        for b in &list {
            if !kept.contains(b) {
                kept.push(b.clone());
            }
        }
        prop_assert_eq!(engine::bindings::dedup_bindings(list), kept);
    }

    #[test]
    fn retain_is_project(
        b in arb_bindings(),
        vars in prop::collection::vec(arb_binding_var(), 0..4),
    ) {
        let vars: Vec<oem::Symbol> = vars.into_iter().map(oem::sym).collect();
        let mut kept = b.clone();
        kept.retain(&vars);
        prop_assert_eq!(kept, b.project(&vars));
    }

    #[test]
    fn descendants_terminate_and_cover(store in arb_store()) {
        let reachable = oem::path::reachable_from_top(&store);
        // Tree stores reach every object exactly once.
        prop_assert_eq!(reachable.len(), store.len());
    }
}

// ---------------------------------------------------------------------
// MSL round-trip

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop::sample::select(vec!["N", "R", "Y", "Value1"]).prop_map(Term::var),
        arb_atom().prop_map(Term::Const),
    ]
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let simple =
        (arb_label(), arb_term()).prop_map(|(l, t)| Pattern::lv(Term::str(&l), PatValue::Term(t)));
    simple.prop_recursive(2, 12, 3, |inner| {
        (
            arb_label(),
            prop::collection::vec(inner.prop_map(SetElem::Pattern), 0..3),
            prop::option::of(prop::sample::select(vec!["Rest", "Rest1"])),
        )
            .prop_map(|(l, elems, rest)| Pattern {
                obj_var: None,
                oid: None,
                label: Term::str(&l),
                typ: None,
                value: PatValue::Set(SetPattern {
                    elements: elems,
                    rest: rest.map(|r| RestSpec::bare(oem::sym(r))),
                }),
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn msl_print_parse_roundtrip(pat in arb_pattern(), ext in any::<bool>()) {
        let mut vars = Vec::new();
        pat.collect_vars(&mut vars);
        let mut tail = vec![TailItem::Match {
            pattern: {
                let mut p = pat.clone();
                p.obj_var = Some(oem::sym("X"));
                p
            },
            source: Some(oem::sym("src")),
        }];
        if ext {
            tail.push(TailItem::External {
                name: oem::sym("ge"),
                args: vec![Term::int(1), Term::int(2)],
            });
        }
        let rule = Rule { head: Head::Var(oem::sym("X")), tail };
        let printed = msl::printer::rule(&rule);
        let reparsed = msl::parse_rule(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        prop_assert_eq!(rule, reparsed, "printed: {}", printed);
    }
}

// ---------------------------------------------------------------------
// Matcher invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Open matching: adding an unrelated extra subobject to every matched
    /// object never removes solutions.
    #[test]
    fn matching_is_open(names in prop::collection::vec("[a-z]{1,6}", 1..6)) {
        let mut store = ObjectStore::new();
        for n in &names {
            ObjectBuilder::set("person").atom("name", n.as_str()).build_top(&mut store);
        }
        let q = msl::parse_query("X :- X:<person {<name N>}>@s").unwrap();
        let TailItem::Match { pattern, .. } = &q.tail[0] else { unreachable!() };
        let before = match_top_level(&store, pattern, &Bindings::new()).len();

        // Evolve: every person gains an extra attribute.
        let tops = store.top_level().to_vec();
        for t in tops {
            let extra = store.atom("extra", 1i64);
            store.add_child(t, extra).unwrap();
        }
        let after = match_top_level(&store, pattern, &Bindings::new()).len();
        prop_assert_eq!(before, after);
    }

    /// Rest partition: |matched children| + |rest| == |children| for a
    /// single-subpattern match, and the rest never contains the matched
    /// child.
    #[test]
    fn rest_partition(extra in prop::collection::vec(("[a-z]{1,5}", -50i64..50), 0..5)) {
        let mut store = ObjectStore::new();
        let mut b = ObjectBuilder::set("person").atom("name", "target");
        for (l, v) in &extra {
            b = b.atom(l.as_str(), *v);
        }
        b.build_top(&mut store);

        let q = msl::parse_query("X :- X:<person {<name N> | Rest}>@s").unwrap();
        let TailItem::Match { pattern, .. } = &q.tail[0] else { unreachable!() };
        let sols = match_top_level(&store, pattern, &Bindings::new());
        // `name` can only match the single name subobject (labels of the
        // extras are lowercase a-z but could coincidentally be "name" —
        // allow >= 1 solutions, and check the invariant for each).
        prop_assert!(!sols.is_empty());
        let total_children = store.children(store.top_level()[0]).len();
        for s in &sols {
            let Some(BoundValue::ObjSet(rest)) = s.get(oem::sym("Rest")) else {
                return Err(TestCaseError::fail("Rest not bound to a set"));
            };
            prop_assert_eq!(rest.len(), total_children - 1);
        }
    }

    /// Duplicate elimination of solutions: matching a store whose objects
    /// repeat yields deduplicated binding sets.
    #[test]
    fn solutions_deduplicated(n_copies in 1usize..5) {
        let mut store = ObjectStore::new();
        for _ in 0..n_copies {
            ObjectBuilder::set("person").atom("name", "same").build_top(&mut store);
        }
        let q = msl::parse_query("X :- <person {<name N>}>@s").unwrap();
        let TailItem::Match { pattern, .. } = &q.tail[0] else { unreachable!() };
        let sols = match_top_level(&store, pattern, &Bindings::new());
        // All copies bind N to the same value: one solution.
        prop_assert_eq!(sols.len(), 1);
    }
}

// ---------------------------------------------------------------------
// LOREL front end

fn arb_lorel_query() -> impl Strategy<Value = String> {
    let label = prop::sample::select(vec!["cs_person", "book", "person"]);
    let attr = prop::sample::select(vec!["name", "year", "rel", "title"]);
    let op = prop::sample::select(vec!["=", "!=", "<", "<=", ">", ">="]);
    let lit = prop_oneof![
        (0i64..100).prop_map(|i| i.to_string()),
        "[a-z]{1,6}".prop_map(|s| format!("'{s}'")),
    ];
    (
        prop::collection::vec(attr.clone(), 1..3),
        label,
        prop::collection::vec((attr, op, lit), 0..3),
    )
        .prop_map(|(sels, label, conds)| {
            let sel: Vec<String> = sels.iter().map(|a| format!("P.{a}")).collect();
            let mut q = format!("select {} from {label} P", sel.join(", "));
            if !conds.is_empty() {
                let cs: Vec<String> = conds
                    .iter()
                    .map(|(a, o, l)| format!("P.{a} {o} {l}"))
                    .collect();
                q.push_str(&format!(" where {}", cs.join(" and ")));
            }
            q
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated LOREL query compiles to VALID MSL whose printed form
    /// re-parses to the same rule.
    #[test]
    fn lorel_compiles_to_valid_roundtrippable_msl(q in arb_lorel_query()) {
        let rule = lorel::to_msl(&q, "med")
            .unwrap_or_else(|e| panic!("compile failed for {q}: {e}"));
        msl::validate::validate_rule(&rule, &[])
            .unwrap_or_else(|e| panic!("invalid MSL for {q}: {e}"));
        let printed = msl::printer::rule(&rule);
        let reparsed = msl::parse_rule(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed for {q}: {e}\n{printed}"));
        prop_assert_eq!(rule, reparsed);
    }

    /// Running a generated LOREL query against the paper mediator never
    /// errors (empty results are fine).
    #[test]
    fn lorel_queries_execute(q in arb_lorel_query()) {
        use std::sync::Arc;
        use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
        let med = medmaker::Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            medmaker::externals::standard_registry(),
        ).unwrap();
        let rule = lorel::to_msl(&q, "med").unwrap();
        let out = med.query_rule(&rule);
        prop_assert!(out.is_ok(), "query {} failed: {:?}", q, out.err());
    }
}

// ---------------------------------------------------------------------
// Fuzz-shaped robustness: arbitrary input must error, never panic.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn msl_parser_never_panics(input in ".{0,120}") {
        let _ = msl::parse_rule(&input);
        let _ = msl::parse_spec(&input);
    }

    #[test]
    fn oem_parser_never_panics(input in ".{0,120}") {
        let _ = oem::parser::parse_store(&input);
    }

    #[test]
    fn lorel_never_panics(input in ".{0,120}") {
        let _ = lorel::to_msl(&input, "med");
    }

    /// Structured-ish garbage: random MSL-flavored token soup.
    #[test]
    fn msl_token_soup_never_panics(parts in prop::collection::vec(
        prop::sample::select(vec![
            "<", ">", "{", "}", ":-", "|", "@", "X", "name", "'v'", "3", "*",
            "AND", "(", ")", ",", "$P", "Rest:",
        ]),
        0..30,
    )) {
        let input = parts.join(" ");
        let _ = msl::parse_rule(&input);
    }
}

// ---------------------------------------------------------------------
// Value sets: a batch of parameter tuples in one call

/// Join keys from a domain small enough that tuples repeat, miss, and hit
/// listed values in combinations nobody asked for — and where the integer
/// 1, the real 1.0 and the string '1' all occur.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::Int),
        (0i32..5).prop_map(|i| Value::real(i as f64 / 2.0)),
        prop::sample::select(vec!["a", "b", "1"]).prop_map(Value::str),
    ]
}

/// The printed answer to the whole `hit` view over `probes` ⋈ `items`, the
/// rows its parameterized node extracted and the round-trips it took, with
/// both sources accepting value sets or not. `None` when the mediator
/// refuses the spec because the stores' key types can never join (`E301`:
/// say, only strings under `a` and only numbers under `k1`).
fn bind_join_answer(
    spec: &str,
    probes: &[(Value, Value)],
    items: &[(Value, Value, i64)],
    value_sets: bool,
) -> Option<(String, usize, usize)> {
    use medmaker::{Mediator, MediatorOptions};
    use std::sync::Arc;
    use wrappers::{SemiStructuredWrapper, Wrapper};
    let mut probe_store = ObjectStore::with_oid_prefix("p");
    for (a, b) in probes {
        ObjectBuilder::set("probe")
            .atom("a", a.clone())
            .atom("b", b.clone())
            .build_top(&mut probe_store);
    }
    let mut item_store = ObjectStore::with_oid_prefix("i");
    for (k1, k2, payload) in items {
        ObjectBuilder::set("item")
            .atom("k1", k1.clone())
            .atom("k2", k2.clone())
            .atom("payload", *payload)
            .build_top(&mut item_store);
    }
    let source = |name: &str, store: ObjectStore| -> Arc<dyn Wrapper> {
        let w = SemiStructuredWrapper::new(name, store);
        if value_sets {
            Arc::new(w)
        } else {
            Arc::new(w.without_parameterized_sets())
        }
    };
    let med = Mediator::new_with_options(
        "m",
        spec,
        vec![source("probes", probe_store), source("items", item_store)],
        medmaker::externals::standard_registry(),
        MediatorOptions {
            planner: medmaker::planner::PlannerOptions {
                prefer_bind_join: Some(true),
                ..Default::default()
            },
            learn_stats: false,
            batch_size: 5,
            ..Default::default()
        },
    );
    let med = match med {
        Ok(med) => med,
        Err(medmaker::MedError::Lint(e)) if e.iter().all(|d| d.code == "E301") => return None,
        Err(e) => panic!("{e}"),
    };
    let out = med
        .query_rule(&msl::parse_query("H :- H:<hit {}>@m").unwrap())
        .unwrap();
    let extracted = out
        .trace
        .nodes()
        .filter(|n| n.op == "parameterized query")
        .map(|n| n.metrics.bindings_produced)
        .sum();
    Some((
        oem::printer::print_store(&out.results),
        extracted,
        out.trace.total_source_calls(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the stores hold: the rows a set-valued call yields, split
    /// by tuple, are the rows of the per-tuple calls in the same order —
    /// so the printed answers are equal — with the join carrying object
    /// sets (`Rest`) or atoms only (where the source's own duplicate
    /// elimination decides how many rows a tuple gets).
    #[test]
    fn value_sets_answer_like_one_call_per_tuple(
        probes in prop::collection::vec((arb_key(), arb_key()), 0..12),
        items in prop::collection::vec((arb_key(), arb_key(), 0i64..3), 0..12),
    ) {
        for spec in [
            "<hit {<a A> <b B> Rest}> :- <probe {<a A> <b B>}>@probes \
             AND <item {<k1 A> <k2 B> | Rest}>@items",
            "<hit {<a A> <p P>}> :- <probe {<a A>}>@probes \
             AND <item {<k1 A> <payload P>}>@items",
        ] {
            let per_tuple = bind_join_answer(spec, &probes, &items, false);
            let batched = bind_join_answer(spec, &probes, &items, true);
            prop_assert_eq!(per_tuple.is_some(), batched.is_some(), "spec={}", spec);
            let (Some((per_tuple, rows, calls)), Some((batched, batched_rows, batched_calls))) =
                (per_tuple, batched)
            else {
                continue;
            };
            prop_assert_eq!(&batched, &per_tuple, "spec={}", spec);
            prop_assert_eq!(batched_rows, rows, "spec={}", spec);
            prop_assert!(batched_calls <= calls, "{} > {}", batched_calls, calls);
        }
    }
}

// ---------------------------------------------------------------------
// The answer cache's value index: a probe narrowed to the index's candidates
// returns the rows of a scan over the whole entry, in the same order

/// The payloads a lookup of `<item {<k1 a> <k2 b> <payload P>}>` gets
/// from `cache`, where a `None` pin leaves the key a variable.
fn pinned_payloads(
    cache: &medmaker::AnswerCache,
    a: Option<&Value>,
    b: Option<&Value>,
) -> Option<Vec<BoundValue>> {
    use engine::subst::{fill_params_rule, Subst};
    use medmaker::graph::{ExtractVar, VarKind};
    let template =
        msl::parse_rule("<bind_for_s {<bind_for_P P>}> :- <item {<k1 $A> <k2 $B> <payload P>}>@s")
            .unwrap();
    let term = |pin: Option<&Value>, var: &str| match pin {
        Some(v) => Term::Const(v.clone()),
        None => Term::Var(oem::sym(var)),
    };
    let pins: Subst = [(oem::sym("A"), term(a, "A")), (oem::sym("B"), term(b, "B"))]
        .into_iter()
        .collect();
    let vars = [ExtractVar {
        var: oem::sym("P"),
        kind: VarKind::Scalar,
    }];
    let query = fill_params_rule(&template, &pins);
    let shape = medmaker::cache::QueryShape::of(&query);
    let (rows, _) = cache.lookup(
        oem::sym("s"),
        &query,
        &shape,
        &vars,
        &mut ObjectStore::new(),
    )?;
    Some(rows.into_iter().map(|mut row| row.remove(0)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same probes against a resident entry (indexed on first use) and
    /// against a cache that can only read the entry off disk (capacity 0:
    /// nothing is ever promoted, every hit scans), and against the list
    /// filtered by hand with the matcher's equality.
    #[test]
    fn indexed_probes_return_the_scanned_rows_in_order(
        items in prop::collection::vec((arb_key(), arb_key()), 0..24),
        probes in prop::collection::vec(
            (any::<bool>(), arb_key(), any::<bool>(), arb_key()), 1..16),
    ) {
        use engine::matcher::atomic_eq;
        use medmaker::graph::{ExtractVar, VarKind};
        use medmaker::{AnswerCache, CacheOptions};
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "medmaker-pin-index-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |capacity| CacheOptions {
            enabled: true,
            capacity,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };

        let whole = msl::parse_rule(
            "<bind_for_s {<bind_for_A A> <bind_for_B B> <bind_for_P P>}> :- \
             <item {<k1 A> <k2 B> <payload P>}>@s",
        )
        .unwrap();
        let exported: Vec<ExtractVar> = ["A", "B", "P"]
            .iter()
            .map(|v| ExtractVar { var: oem::sym(v), kind: VarKind::Scalar })
            .collect();
        let answer = wrappers::Rows {
            rows: items
                .iter()
                .enumerate()
                .map(|(i, (k1, k2))| {
                    [k1.clone(), k2.clone(), Value::Int(i as i64)]
                        .map(BoundValue::Atom)
                        .to_vec()
                })
                .collect(),
            store: std::sync::Arc::new(ObjectStore::new()),
        };
        let resident = AnswerCache::new(opts(4));
        resident.insert_rows(
            oem::sym("s"),
            &whole,
            &medmaker::cache::QueryShape::of(&whole),
            &exported,
            &answer,
        );
        let on_disk = AnswerCache::new(opts(0));

        for (pin_a, a, pin_b, b) in &probes {
            let (a, b) = (pin_a.then_some(a), pin_b.then_some(b));
            let by_hand: Vec<BoundValue> = items
                .iter()
                .enumerate()
                .filter(|(_, (k1, k2))| {
                    a.is_none_or(|a| atomic_eq(a, k1)) && b.is_none_or(|b| atomic_eq(b, k2))
                })
                .map(|(i, _)| BoundValue::Atom(Value::Int(i as i64)))
                .collect();
            let indexed = pinned_payloads(&resident, a, b);
            prop_assert_eq!(indexed.as_ref(), Some(&by_hand), "a={:?} b={:?}", a, b);
            prop_assert_eq!(pinned_payloads(&on_disk, a, b), indexed, "a={:?} b={:?}", a, b);
        }
        let (hot, cold) = (resident.counters(), on_disk.counters());
        prop_assert_eq!((hot.warm_hits, hot.misses), (0, 0));
        prop_assert_eq!((cold.warm_hits, cold.promotions), (probes.len(), 0));
        // The scan looks at every object every time; the index at each
        // object once per pinned variable, then at candidates only.
        prop_assert_eq!(cold.objects_examined, probes.len() * items.len());
        prop_assert!(hot.objects_examined <= cold.objects_examined + 2 * items.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// The answer cache's query shape: equal exactly where the printed
// canonical key is, and an exact hit serves what containment would

/// Source-query rules over `arb_pattern`: one or two tail patterns, some
/// under a rest variable with conditions, maybe an external predicate, and
/// a head that is either a bare object variable or the carrier head the
/// planner builds, one `bind_for_<var>` label per variable.
fn arb_source_rule() -> impl Strategy<Value = Rule> {
    let tail = (
        arb_pattern(),
        prop::collection::vec(arb_pattern(), 0..3),
        prop::sample::select(vec!["s", "t"]),
    );
    (
        prop::collection::vec(tail, 1..3),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(tails, carriers, external)| {
            let mut tail: Vec<TailItem> = tails
                .into_iter()
                .map(|(pattern, conditions, source)| {
                    let pattern = if conditions.is_empty() {
                        pattern
                    } else {
                        Pattern::lv(
                            Term::str("item"),
                            PatValue::Set(SetPattern {
                                elements: vec![SetElem::Pattern(pattern)],
                                rest: Some(RestSpec {
                                    var: oem::sym("Rest2"),
                                    conditions,
                                }),
                            }),
                        )
                    };
                    TailItem::Match {
                        pattern,
                        source: Some(oem::sym(source)),
                    }
                })
                .collect();
            if external {
                tail.push(TailItem::External {
                    name: oem::sym("ge"),
                    args: vec![Term::var("N"), Term::int(3)],
                });
            }
            let mut rule = Rule {
                head: Head::Var(oem::sym("X")),
                tail,
            };
            if carriers {
                let elements = (rule.variables().iter())
                    .map(|v| {
                        let label = Term::str(&format!("bind_for_{v}"));
                        SetElem::Pattern(Pattern::lv(label, PatValue::Term(Term::Var(*v))))
                    })
                    .collect();
                rule.head = Head::Pattern(Pattern::lv(
                    Term::str("bind_for_s"),
                    PatValue::Set(SetPattern {
                        elements,
                        rest: None,
                    }),
                ));
            } else if let Some(TailItem::Match { pattern, .. }) = rule.tail.first_mut() {
                pattern.obj_var = Some(oem::sym("X"));
            }
            rule
        })
}

/// A copy of a rule with every variable renamed (its `bind_for_<var>`
/// labels along with it), and, when `shuffle`, its set members, rest
/// conditions and tail items reordered; `seed` picks both.
struct Variant {
    names: std::collections::HashMap<oem::Symbol, oem::Symbol>,
    seed: u64,
    shuffle: bool,
}

impl Variant {
    fn of(rule: &Rule, seed: u64, shuffle: bool) -> Rule {
        // The new names are a permutation of the old ones, drawn first, so
        // one seed renames alike whether or not it also reorders.
        let mut v = Variant {
            names: Default::default(),
            seed: seed | 1,
            shuffle: true,
        };
        let mut to = rule.variables();
        v.reorder(&mut to);
        v.names = (rule.variables().into_iter().zip(to))
            .map(|(var, to)| (var, oem::sym(&format!("Z{to}"))))
            .collect();
        v.shuffle = shuffle;
        let mut out = rule.clone();
        match &mut out.head {
            Head::Var(x) => *x = v.names[x],
            Head::Pattern(p) => v.pattern(p),
        }
        for t in &mut out.tail {
            match t {
                TailItem::Match { pattern, .. } => v.pattern(pattern),
                TailItem::External { args, .. } => args.iter_mut().for_each(|a| v.term(a)),
            }
        }
        v.reorder(&mut out.tail);
        out
    }

    fn reorder<T>(&mut self, items: &mut [T]) {
        if !self.shuffle {
            return;
        }
        for i in (1..items.len()).rev() {
            // xorshift64
            self.seed ^= self.seed << 13;
            self.seed ^= self.seed >> 7;
            self.seed ^= self.seed << 17;
            items.swap(i, (self.seed % (i as u64 + 1)) as usize);
        }
    }

    fn term(&mut self, t: &mut Term) {
        match t {
            Term::Var(x) => *x = self.names[x],
            Term::Const(Value::Str(s)) => {
                let carried = (s.as_str().strip_prefix("bind_for_"))
                    .and_then(|var| self.names.get(&oem::sym(var)).copied());
                if let Some(var) = carried {
                    *s = oem::sym(&format!("bind_for_{var}"));
                }
            }
            Term::Func(_, args) => args.iter_mut().for_each(|a| self.term(a)),
            Term::Const(_) | Term::Param(_) => {}
        }
    }

    fn pattern(&mut self, p: &mut Pattern) {
        if let Some(x) = &mut p.obj_var {
            *x = self.names[x];
        }
        self.term(&mut p.label);
        match &mut p.value {
            PatValue::Term(t) => self.term(t),
            PatValue::Set(sp) => {
                for e in &mut sp.elements {
                    match e {
                        SetElem::Pattern(q) | SetElem::Wildcard(q) => self.pattern(q),
                        SetElem::Var(x) => *x = self.names[x],
                    }
                }
                self.reorder(&mut sp.elements);
                if let Some(r) = &mut sp.rest {
                    r.var = self.names[&r.var];
                    r.conditions.iter_mut().for_each(|c| self.pattern(c));
                    self.reorder(&mut r.conditions);
                }
            }
        }
    }
}

/// Whether two rules' shapes are equal, and whether their printed
/// canonical keys are.
fn shape_and_key_agree(a: &Rule, b: &Rule) -> (bool, bool) {
    use medmaker::cache::{canonical_key, QueryShape};
    (
        QueryShape::of(a) == QueryShape::of(b),
        canonical_key(a) == canonical_key(b),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shape is the printed key without the printing: over generated
    /// source queries, their renamed and reordered copies, and the same
    /// query comparing `year` with `3`, `3.0` and `'3'`; and over a fixed
    /// pair that prints three fields alike, `<oid a, label b, 'c'>` and
    /// `<label a, type b, 'c'>`.
    #[test]
    fn shapes_are_equal_exactly_when_canonical_keys_are(
        a in arb_source_rule(),
        b in arb_source_rule(),
        seed in any::<u64>(),
    ) {
        let three_fields = |oid: Option<&str>, label: &str, typ: Option<&str>| Rule {
            head: Head::Var(oem::sym("X")),
            tail: vec![TailItem::Match {
                pattern: Pattern {
                    obj_var: Some(oem::sym("X")),
                    oid: oid.map(Term::str),
                    label: Term::str(label),
                    typ: typ.map(Term::str),
                    value: PatValue::Term(Term::str("c")),
                },
                source: Some(oem::sym("s")),
            }],
        };
        let with_oid = three_fields(Some("a"), "b", None);
        let with_type = three_fields(None, "a", Some("b"));
        prop_assert_eq!(shape_and_key_agree(&with_oid, &with_type), (false, false));
        prop_assert_eq!(shape_and_key_agree(&a, &a), (true, true));
        let renamed = Variant::of(&a, seed, false);
        prop_assert_eq!(shape_and_key_agree(&a, &renamed), (true, true), "{}", renamed);
        let reordered = Variant::of(&a, seed, true);
        let (shape, key) = shape_and_key_agree(&a, &reordered);
        prop_assert_eq!(shape, key, "{}\n{}", a, reordered);
        let (shape, key) = shape_and_key_agree(&a, &b);
        prop_assert_eq!(shape, key, "{}\n{}", a, b);
        let typed: Vec<Rule> = [Value::Int(3), Value::real(3.0), Value::str("3")]
            .into_iter()
            .map(|year| {
                let mut rule = a.clone();
                rule.tail.push(TailItem::Match {
                    pattern: Pattern::lv(Term::str("year"), PatValue::Term(Term::Const(year))),
                    source: Some(oem::sym("s")),
                });
                rule
            })
            .collect();
        for (i, x) in typed.iter().enumerate() {
            for (j, y) in typed.iter().enumerate() {
                prop_assert_eq!(shape_and_key_agree(x, y), (i == j, i == j), "{}\n{}", x, y);
            }
        }
    }

    /// An exact hit maps the query onto the entry by zipping the two
    /// shapes' variables; the warm tier serves the same entry through the
    /// containment mapping. Over renamed, reordered copies of a cached
    /// query, both return the same rows.
    #[test]
    fn exact_hits_serve_what_the_containment_mapping_serves(
        present in prop::collection::vec(any::<bool>(), 4..5),
        pins in prop::collection::vec(prop::option::of(arb_key()), 4..5),
        rows in prop::collection::vec(prop::collection::vec(arb_key(), 5..6), 0..12),
        seed in any::<u64>(),
    ) {
        use medmaker::cache::{canonical_key, QueryShape};
        use medmaker::graph::{ExtractVar, VarKind};
        use medmaker::{AnswerCache, CacheHit, CacheOptions};
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "medmaker-shape-zip-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |capacity| CacheOptions {
            enabled: true,
            capacity,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };

        // `<item {<k1 A1> <k2 3> ... <payload P>}>`: a variable or a pinned
        // constant under each label, every variable exported.
        let mut members = vec!["<payload P>".to_string()];
        let mut exported = vec!["P".to_string()];
        let labels = ["k1", "k2", "k3", "k4"];
        let listed = labels.iter().zip(&pins).zip(&present).filter(|(_, &p)| p);
        for (i, ((label, pin), _)) in listed.enumerate() {
            match pin {
                Some(value) => members.push(format!("<{label} {}>", value.render_atomic())),
                None => {
                    members.push(format!("<{label} A{i}>"));
                    exported.push(format!("A{i}"));
                }
            }
        }
        let carriers: Vec<String> =
            exported.iter().map(|v| format!("<bind_for_{v} {v}>")).collect();
        let whole = msl::parse_rule(&format!(
            "<bind_for_s {{{}}}> :- <item {{{}}}>@s",
            carriers.join(" "),
            members.join(" ")
        ))
        .unwrap();
        let extract = |names: &[String]| -> Vec<ExtractVar> {
            names
                .iter()
                .map(|v| ExtractVar { var: oem::sym(v), kind: VarKind::Scalar })
                .collect()
        };
        let answer = wrappers::Rows {
            rows: rows
                .iter()
                .map(|row| row[..exported.len()].iter().cloned().map(BoundValue::Atom).collect())
                .collect(),
            store: std::sync::Arc::new(ObjectStore::new()),
        };
        let resident = AnswerCache::new(opts(4));
        resident.insert_rows(
            oem::sym("s"),
            &whole,
            &QueryShape::of(&whole),
            &extract(&exported),
            &answer,
        );
        let on_disk = AnswerCache::new(opts(0));

        // The probe: renamed, its members reordered but its head's kept
        // (so its shape is the entry's), its columns asked for in another
        // order.
        let probe = Variant::of(&whole, seed, true);
        let probe = Rule { head: Variant::of(&whole, seed, false).head, ..probe };
        prop_assert_eq!(canonical_key(&probe), canonical_key(&whole));
        let mut asked: Vec<String> = probe.variables().iter().map(oem::Symbol::as_str).collect();
        let turn = seed as usize % asked.len();
        asked.rotate_left(turn);
        let vars = extract(&asked);
        let shape = QueryShape::of(&probe);
        let lookup = |cache: &AnswerCache| {
            cache.lookup(oem::sym("s"), &probe, &shape, &vars, &mut ObjectStore::new())
        };
        let zipped = lookup(&resident);
        let mapped = lookup(&on_disk);
        prop_assert_eq!(zipped.as_ref().map(|(_, kind)| *kind), Some(CacheHit::Exact));
        prop_assert_eq!(mapped.as_ref().map(|(_, kind)| *kind), Some(CacheHit::Exact));
        prop_assert_eq!(zipped.map(|(rows, _)| rows), mapped.map(|(rows, _)| rows));
        prop_assert_eq!(on_disk.counters().warm_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Pruning: a chain the sources' summaries prove empty would have built
// nothing, so dropping it never changes a lookup's answer

/// Labels a generated lookup asks `cs_person` for: whois-only ones that
/// only some persons carry (`e_mail`, `nickname`), cs-only columns
/// (`title`, `reports_to`), `year` (only `student` rows and some whois
/// persons), the view head's own (`name`, `rel`) and two no source carries.
const LOOKUP_LABELS: &[&str] = &[
    "e_mail",
    "nickname",
    "title",
    "reports_to",
    "year",
    "name",
    "rel",
    "salary",
    "nmae",
];

/// The constant a lookup on `label` compares with: shaped like what the
/// workload stores for person `i` (`kind` 0), a string nobody holds (1),
/// the integer `i` (2), a student's year as a real (3: `3.0` equals an
/// integer `3` to the matcher, so an integer label must not prune it), or
/// the second `name` / `e_mail` a repeating person carries (5; other labels
/// as 0).
fn lookup_constant(label: &str, i: usize, kind: u8) -> Value {
    use wrappers::workload::PersonWorkload;
    match kind {
        5 => match label {
            "name" => Value::str(&PersonWorkload::alias_of(i)),
            "e_mail" => Value::str(&format!("alias{i}@cs")),
            _ => lookup_constant(label, i, 0),
        },
        0 => match label {
            "e_mail" => Value::str(&format!("p{i}@cs")),
            "nickname" => Value::str(&format!("nick{i}")),
            "title" => Value::str("professor"),
            "reports_to" => Value::str("John Hennessy"),
            "year" => Value::Int((i % 5 + 1) as i64),
            "name" => Value::str(&PersonWorkload::full_name_of(i)),
            "rel" => Value::str(if i.is_multiple_of(2) {
                "student"
            } else {
                "employee"
            }),
            _ => Value::str(&format!("x{i}")),
        },
        1 => Value::str("nobody"),
        2 => Value::Int(i as i64),
        _ => Value::real((i % 5 + 1) as f64),
    }
}

/// MS1 over `workload`, pruning or not, with the cache off or on.
fn lookup_mediator(
    workload: &wrappers::workload::PersonWorkload,
    prune: bool,
    cache: bool,
) -> medmaker::Mediator {
    use medmaker::{CacheOptions, Mediator, MediatorOptions};
    use std::sync::Arc;
    let (whois, cs) = workload.build();
    Mediator::new_with_options(
        "m",
        wrappers::scenario::MS1,
        vec![Arc::new(whois), Arc::new(cs)],
        medmaker::externals::standard_registry(),
        MediatorOptions {
            planner: medmaker::planner::PlannerOptions {
                prune_infeasible: prune,
                ..Default::default()
            },
            // The same plan every time, so the same print order.
            learn_stats: false,
            cache: if cache {
                CacheOptions::enabled()
            } else {
                CacheOptions::default()
            },
            ..Default::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `<cs_person {<L C>}>` and `<cs_person {<L V>}>` over a generated
    /// workload print the same bytes planned with pruning and without it,
    /// with the cache off and on (asked twice: the second answer comes
    /// from the cache), and hold the objects the naive evaluator builds
    /// from every expanded rule (in its own order). Both sources hold
    /// students and employees (overlap above the student fraction), and
    /// some stores lack `e_mail` or `nickname` altogether. Every label but
    /// `year` prunes at least one chain; `year` with an integer, a real or
    /// a variable prunes none. Whois's students carry the year cs holds for
    /// them, so a wrongly pruned `Rest2:{<year …>}` chain shows in that
    /// count rather than in the answer.
    ///
    /// Some workloads give persons a second `name` and `e_mail`. A `name`
    /// lookup's `Rest1:{<name …>}@whois` chain — the condition pushed past
    /// the `<name N>` that already took one name — is pruned exactly when
    /// no person holds two, and a lookup of a second name finds its person
    /// through that chain alone.
    #[test]
    fn pruned_lookups_answer_like_unpruned_and_naive(
        seed in any::<u64>(),
        n in 5usize..16,
        overlap in 0.6f64..1.0,
        student_fraction in 0.2f64..0.55,
        irregularity in 0.0f64..1.0,
        repeated in prop::sample::select(vec![0.0, 0.3]),
        // `name` half the time on top: its whois chain is the one repeats
        // decide.
        label in prop_oneof![
            prop::sample::select(vec!["name"]),
            prop::sample::select(LOOKUP_LABELS.to_vec()),
        ],
        pick in 0usize..32,
        kind in 0u8..6,
    ) {
        use medmaker::naive::{eval_program, SourceRef};
        use std::sync::Arc;
        use wrappers::Wrapper;
        let workload = wrappers::workload::PersonWorkload {
            n_whois: n,
            overlap,
            irregularity,
            student_fraction,
            repeated,
            seed,
        };
        let constant = (kind != 4).then(|| lookup_constant(label, pick % (n + 2), kind));
        let cond = match &constant {
            Some(c) => msl::printer::term(&Term::Const(c.clone()), true),
            None => "V".to_string(),
        };
        let query = msl::parse_query(&format!("P :- P:<cs_person {{<{label} {cond}>}}>@m")).unwrap();
        // The answer, and how many chains ran.
        let run = |med: &medmaker::Mediator| {
            let out = med.query_rule(&query).unwrap();
            (out.results, out.trace.rules.len())
        };

        let unpruned = lookup_mediator(&workload, false, false);
        let (expected, expanded) = run(&unpruned);
        let rules = unpruned.expand(&query).unwrap().rules;
        prop_assert_eq!(expanded, rules.len());
        let (whois, cs) = workload.build();
        let sources: Vec<Arc<dyn Wrapper>> = vec![Arc::new(whois), Arc::new(cs)];
        let resolve = |name: oem::Symbol| {
            sources.iter().find(|w| w.name() == name).map(SourceRef::Wrapper)
        };
        let naive = eval_program(&rules, &resolve, &medmaker::externals::standard_registry())
            .unwrap();
        prop_assert!(common::same_objects(&naive, &expected), "naive differs on <{} {}>", label, cond);

        // Which names the whois persons hold.
        let store = workload.whois_store();
        let names = |t| {
            let kids = store.children(t).iter().map(|&c| store.get(c));
            kids.filter(|o| o.label == oem::sym("name")).map(|o| o.value.clone()).collect::<Vec<_>>()
        };
        let persons: Vec<Vec<Value>> = store.top_level().iter().map(|&t| names(t)).collect();
        let repeats = persons.iter().any(|p| p.len() > 1);
        if label == "name" && kind == 5 {
            // A second name: its person, when cs holds it too.
            let i = pick % (n + 2);
            let held = persons.iter().any(|p| p.contains(constant.as_ref().unwrap()));
            let in_cs = i < (overlap * n as f64) as usize;
            prop_assert_eq!(expected.top_level().len(), usize::from(held && in_cs), "<name {}>", cond);
        }

        let expected = oem::printer::print_store(&expected);
        let mut pruned = 0;
        for (prune, cache) in [(true, false), (false, true), (true, true)] {
            let med = lookup_mediator(&workload, prune, cache);
            for pass in 0..if cache { 2 } else { 1 } {
                let (answer, chains) = run(&med);
                prop_assert_eq!(
                    oem::printer::print_store(&answer), expected.clone(),
                    "<{} {}> prune={} cache={} pass={}", label, cond, prune, cache, pass
                );
                if prune {
                    pruned = expanded - chains;
                } else {
                    prop_assert_eq!(chains, expanded);
                }
            }
        }
        if label == "year" && !matches!(constant, Some(Value::Str(_))) {
            prop_assert_eq!(pruned, 0);
        } else if label == "name" && matches!(constant, None | Some(Value::Str(_))) {
            // `Rest2:{<name …>}@cs` always; `Rest1:{<name …>}@whois` unless
            // some person holds two names.
            prop_assert_eq!(pruned, if repeats { 1 } else { 2 }, "<name {}>", cond);
        } else {
            prop_assert!(pruned >= 1, "nothing pruned for <{} {}>", label, cond);
        }
    }
}

// ---------------------------------------------------------------------
// The semi-structured source's value index: a lookup narrowed to the
// index's candidates answers with the bytes of a scan over every object

/// Child values where numbers the matcher equates recur in both kinds
/// (`3` and `3.0`, `0` and `-0.0`), next to a string spelled like one.
fn arb_index_atom() -> impl Strategy<Value = Value> {
    prop::sample::select(vec![
        Value::Int(3),
        Value::real(3.0),
        Value::Int(0),
        Value::real(-0.0),
        Value::real(0.5),
        Value::str("3"),
        Value::str("a"),
        Value::str("b"),
        Value::Bool(true),
    ])
}

/// Up to nine top-level objects, `person` or `group`: a set of up to five
/// children from three labels (so a label repeats within an object), each
/// an atom or a set holding one `year` atom; or an atom itself. `shared`
/// make a set also hold a child another object holds.
fn arb_indexed_store() -> impl Strategy<Value = ObjectStore> {
    let child = (
        prop::sample::select(vec!["name", "year", "tag"]),
        arb_index_atom(),
        prop::sample::select(vec![false, false, false, true]),
    );
    let top = (
        prop::sample::select(vec!["person", "group"]),
        prop::option::of(prop::collection::vec(child, 0..6)),
        arb_index_atom(),
    );
    (
        prop::collection::vec(top, 0..10),
        prop::collection::vec((0usize..64, 0usize..64), 0..4),
    )
        .prop_map(|(tops, shared)| {
            let mut store = ObjectStore::new();
            for (label, children, atom) in tops {
                let top = match children {
                    Some(children) => {
                        let ids = children
                            .into_iter()
                            .map(|(label, value, nested)| {
                                let atom = store.atom(if nested { "year" } else { label }, value);
                                if nested {
                                    store.set(label, vec![atom])
                                } else {
                                    atom
                                }
                            })
                            .collect();
                        store.set(label, ids)
                    }
                    None => store.atom(label, atom),
                };
                store.add_top(top);
            }
            let tops = store.top_level().to_vec();
            let sets: Vec<oem::ObjId> = tops
                .iter()
                .copied()
                .filter(|&t| store.get(t).value.as_set().is_some())
                .collect();
            let children: Vec<oem::ObjId> = sets
                .iter()
                .flat_map(|&t| store.children(t).to_vec())
                .collect();
            if !children.is_empty() {
                for (p, c) in shared {
                    let child = children[c % children.len()];
                    store.add_child(sets[p % sets.len()], child).unwrap();
                }
            }
            store
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lookups on constants the store holds (or a numerically equal one
    /// of the other kind), next to patterns the index cannot narrow —
    /// label variables, wildcards, a top label variable, a value variable
    /// — rest conditions, and a second pattern narrowed by a variable the
    /// first binds: the source answers each twice (the index built by the
    /// first lookup, then read) with the bytes of the unindexed scan.
    #[test]
    fn indexed_lookups_answer_like_a_scan(
        store in arb_indexed_store(),
        picks in (0usize..64, 0usize..64),
        from_pool in prop::sample::select(vec![false, false, true]),
        pooled in arb_index_atom(),
        top in prop::sample::select(vec!["person", "group"]),
    ) {
        use wrappers::{Capabilities, SemiStructuredWrapper, Wrapper};
        // The store's atomic children, as (label, value).
        let held: Vec<(String, Value)> = store
            .top_level()
            .iter()
            .flat_map(|&t| store.children(t).iter().map(|&c| store.get(c)))
            .filter(|o| o.value.is_atomic())
            .map(|o| (o.label.as_str(), o.value.clone()))
            .collect();
        let pick = |i: usize| {
            held.get(i % held.len().max(1))
                .cloned()
                .unwrap_or_else(|| ("name".to_string(), Value::str("a")))
        };
        let (l1, c1) = pick(picks.0);
        let (l2, c2) = pick(picks.1);
        let c2 = if from_pool { pooled } else { c2 };
        let c1 = msl::printer::term(&Term::Const(c1), true);
        let c2 = msl::printer::term(&Term::Const(c2), true);
        let queries = [
            format!("X :- X:<{top} {{<{l1} {c1}>}}>@s"),
            format!("X :- X:<{top} {{<{l1} {c1}> <{l2} {c2}>}}>@s"),
            format!("<out {{<v V>}}> :- <{top} {{<{l1} {c1}> <{l2} V>}}>@s"),
            format!("<out {{<l L>}}> :- <{top} {{<L {c1}>}}>@s"),
            format!("<out {{<l L> <v V>}}> :- <{top} {{<{l1} {c1}> <L V>}}>@s"),
            format!("X :- X:<{top} {{* <year {c2}>}}>@s"),
            format!("X :- X:<{top} {{* <year {c2}> <{l1} {c1}>}}>@s"),
            format!("X :- X:<T {{<{l1} {c1}>}}>@s"),
            format!("<out {{<v V>}}> :- <{top} V>@s"),
            format!("<out {{<v V> R}}> :- <{top} {{<{l1} V> | R:{{<{l2} {c2}>}}}}>@s"),
            format!("X :- X:<{top} {{<{l1} {c1}> | R:{{<{l2} {c2}>}}}}>@s"),
            format!(
                "<pair {{<v V> <w W>}}> :- <{top} {{<{l1} V>}}>@s \
                 AND <T {{<{l2} V> <L W>}}>@s"
            ),
            format!(
                "<pair {{X Y}}> :- X:<{top} {{<{l1} {c1}> <{l2} V>}}>@s \
                 AND Y:<group {{<{l1} V>}}>@s"
            ),
        ];
        let source = SemiStructuredWrapper::new("s", store.clone());
        let printed = |answer: Result<ObjectStore, wrappers::WrapperError>| {
            answer.map(|a| oem::printer::print_store(&a))
        };
        for q in &queries {
            let rule = msl::parse_query(q).unwrap();
            let scan = printed(wrappers::eval::answer_msl_query(
                oem::sym("s"),
                &Capabilities::full(),
                &store,
                &rule,
            ));
            prop_assert!(scan.is_ok(), "{}: {:?}", q, scan);
            if q.starts_with("X :- X:<T ") && !held.is_empty() {
                // A constant the store holds, under any top label: a hit.
                prop_assert!(scan.as_ref().unwrap().contains('<'), "{} missed", q);
            }
            for pass in 0..2 {
                prop_assert_eq!(&printed(source.query(&rule)), &scan, "{} pass={}", q, pass);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Row answers: a wrapper that answers in rows (`Wrapper::query_rows`)
// returns what the carrier reader reads out of its constructed answer

/// The rows the provided `query_rows` would return: the carrier reader
/// over the constructed answer.
fn carrier_rows(
    w: &dyn wrappers::Wrapper,
    q: &Rule,
    vars: &[wrappers::ExtractVar],
) -> Result<wrappers::Rows, wrappers::WrapperError> {
    let answer = w.query(q)?;
    let rows = wrappers::api::read_carriers(&answer, answer.top_level(), vars)?;
    Ok(wrappers::Rows {
        rows,
        store: std::sync::Arc::new(answer),
    })
}

/// Do two row answers hold the same rows, in the same order? Atoms compare
/// as the matcher compares them; objects, each in its own store,
/// structurally.
fn same_rows(a: &wrappers::Rows, b: &wrappers::Rows) -> bool {
    let same_obj =
        |x: &oem::ObjId, y: &oem::ObjId| oem::eq::struct_eq_cross(&a.store, *x, &b.store, *y);
    let same = |x: &BoundValue, y: &BoundValue| match (x, y) {
        (BoundValue::Atom(x), BoundValue::Atom(y)) => engine::matcher::atomic_eq(x, y),
        (BoundValue::Obj(x), BoundValue::Obj(y)) => same_obj(x, y),
        (BoundValue::ObjSet(xs), BoundValue::ObjSet(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| same_obj(x, y))
        }
        _ => false,
    };
    a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| same(x, y)))
}

/// A source, a query sent to it, and its extraction variables (`true`
/// for an object variable).
type RowQuery = (&'static str, String, Vec<(&'static str, bool)>);

/// The source queries the planner sends MS1's sources, as (source, query,
/// extraction variables; `O` marks an object variable): the scan's two,
/// a name lookup, a pushed-down rest condition, the label variable `R`
/// restricted by a value set, and value sets mixing `3` and `3.0`; then
/// two a lower mediator answers as a source.
fn row_queries(name: &str) -> Vec<RowQuery> {
    let whois_scan = "<bind_for_whois {<bind_for_N N> <bind_for_R R> <bind_for_Rest1 Rest1>}> :- \
         <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois";
    vec![
        ("whois", whois_scan.to_string(), vec![("N", false), ("R", false), ("Rest1", false)]),
        (
            "cs",
            "<bind_for_cs {<bind_for_FN FN> <bind_for_LN LN> <bind_for_R R> <bind_for_Rest2 Rest2>}> \
             :- <R {<first_name FN> <last_name LN> | Rest2}>@cs"
                .to_string(),
            vec![("FN", false), ("LN", false), ("R", false), ("Rest2", false)],
        ),
        (
            "whois",
            format!(
                "<bind_for_whois {{<bind_for_R R> <bind_for_Rest1 Rest1>}}> :- \
                 <person {{<name '{name}'> <dept 'CS'> <relation R> | Rest1}}>@whois"
            ),
            vec![("R", false), ("Rest1", false)],
        ),
        (
            "whois",
            format!("<bind_for_whois {{<bind_for_P {{P}}>}}> :- P:<person {{<name '{name}'>}}>@whois"),
            vec![("P", true)],
        ),
        (
            "whois",
            "<bind_for_whois {<bind_for_N N> <bind_for_R R> <bind_for_Rest1 Rest1>}> :- \
             <person {<name N> <dept 'CS'> <relation R> | Rest1:{<year 3>}}>@whois"
                .to_string(),
            vec![("N", false), ("R", false), ("Rest1", false)],
        ),
        (
            "cs",
            "<bind_for_cs {<bind_for_Rest2 Rest2> <bind_for_R R> <bind_for_LN LN>}> :- \
             <R {<last_name LN> | Rest2}>@cs AND one_of(R, 'student')"
                .to_string(),
            vec![("Rest2", false), ("R", false), ("LN", false)],
        ),
        (
            "whois",
            "<bind_for_whois {<bind_for_N N> <bind_for_Y Y>}> :- \
             <person {<name N> <year Y>}>@whois AND one_of(Y, 3, 3.0, 4)"
                .to_string(),
            vec![("N", false), ("Y", false)],
        ),
        (
            "cs",
            "<bind_for_cs {<bind_for_FN FN> <bind_for_Y Y> <bind_for_S {S}>}> :- \
             S:<student {<first_name FN> <year Y>}>@cs AND one_of(Y, 3.0, 3, 2)"
                .to_string(),
            vec![("FN", false), ("Y", false), ("S", true)],
        ),
        (
            "med",
            "<bind_for_med {<bind_for_N N> <bind_for_R R>}> :- <cs_person {<name N> <rel R>}>@med"
                .to_string(),
            vec![("N", false), ("R", false)],
        ),
        (
            "med",
            "<bind_for_med {<bind_for_N N> <bind_for_Y Y>}> :- <cs_person {<name N> <year Y>}>@med"
                .to_string(),
            vec![("N", false), ("Y", false)],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over generated workloads, every source — whois, cs, each behind a
    /// fault injector that injects nothing, and a mediator over both used
    /// as a source — answers each query the planner sends it with the
    /// rows the carrier reader reads out of its constructed answer: same
    /// length, same order, equal atoms and structurally equal objects.
    #[test]
    fn row_answers_are_the_carrier_readers_rows(
        seed in any::<u64>(),
        n in 1usize..60,
        irregularity in 0.0f64..1.0,
        repeated in prop::sample::select(vec![0.0, 0.3]),
        pick in 0usize..64,
    ) {
        use std::sync::Arc;
        use wrappers::{ExtractVar, FaultInjectingWrapper, FaultPlan, VarKind, Wrapper};
        let workload = wrappers::workload::PersonWorkload {
            n_whois: n,
            irregularity,
            repeated,
            seed,
            ..Default::default()
        };
        let (whois, cs) = workload.build();
        let (whois, cs): (Arc<dyn Wrapper>, Arc<dyn Wrapper>) = (Arc::new(whois), Arc::new(cs));
        let med = medmaker::Mediator::new(
            "med",
            wrappers::scenario::MS1,
            vec![Arc::clone(&whois), Arc::clone(&cs)],
            medmaker::externals::standard_registry(),
        )
        .unwrap();
        let faultless = |w: &Arc<dyn Wrapper>| -> Arc<dyn Wrapper> {
            Arc::new(FaultInjectingWrapper::new(Arc::clone(w), FaultPlan::none()))
        };
        let sources: Vec<(&str, Arc<dyn Wrapper>)> = vec![
            ("whois", Arc::clone(&whois)),
            ("cs", Arc::clone(&cs)),
            ("whois", faultless(&whois)),
            ("cs", faultless(&cs)),
            ("med", Arc::new(med)),
        ];
        let name = wrappers::workload::PersonWorkload::full_name_of(pick % (n + 1));
        for (source, query, vars) in row_queries(&name) {
            let q = msl::parse_rule(&query).unwrap();
            let vars: Vec<ExtractVar> = vars
                .iter()
                .map(|&(v, object)| ExtractVar {
                    var: oem::sym(v),
                    kind: if object { VarKind::Object } else { VarKind::Scalar },
                })
                .collect();
            for (_, w) in sources.iter().filter(|(s, _)| *s == source) {
                let expected = carrier_rows(w.as_ref(), &q, &vars).unwrap();
                let rows = w.query_rows(&q, &vars).unwrap();
                prop_assert!(same_rows(&rows, &expected), "{}", query);
            }
        }
    }
}

/// The golden answers (`tests/golden_answers.rs`) hold at every batch
/// size, cache off and on: however many rows an answer is absorbed in at
/// a time, the bytes are the same.
#[test]
fn golden_answers_hold_at_every_batch_size() {
    use medmaker::{CacheOptions, Mediator, MediatorOptions};
    use std::sync::Arc;
    const GOLDEN: &str = include_str!("golden/person_200_seed_11.txt");
    let queries = [
        ("scan", "P :- P:<cs_person {}>@med"),
        (
            "point.msl.3",
            "P :- P:<cs_person {<name 'First3 Last3'>}>@med",
        ),
        (
            "point.msl.42",
            "P :- P:<cs_person {<name 'First42 Last42'>}>@med",
        ),
        ("rel", "P :- P:<cs_person {<rel 'student'>}>@med"),
        ("year", "S :- S:<cs_person {<year 3>}>@med"),
    ];
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    for batch_size in [1, 7, 1024] {
        for cache in [false, true] {
            let (whois, cs) = wrappers::workload::PersonWorkload {
                n_whois: 200,
                seed: 11,
                ..Default::default()
            }
            .build();
            let med = Mediator::new_with_options(
                "med",
                wrappers::scenario::MS1,
                vec![Arc::new(whois), Arc::new(cs)],
                medmaker::externals::standard_registry(),
                MediatorOptions {
                    learn_stats: false,
                    batch_size,
                    cache: if cache {
                        CacheOptions::enabled()
                    } else {
                        CacheOptions::default()
                    },
                    ..MediatorOptions::default()
                },
            )
            .unwrap();
            let modes: &[&str] = if cache {
                &["cache-on", "cache-on-again"]
            } else {
                &["cache-off"]
            };
            for mode in modes {
                for (name, text) in queries {
                    let results = med
                        .query_rule(&msl::parse_query(text).unwrap())
                        .unwrap()
                        .results;
                    let printed = oem::printer::print_store(&results);
                    let line = format!(
                        "{mode} {name} {} {:016x}",
                        results.top_level().len(),
                        fnv1a(printed.as_bytes())
                    );
                    assert!(
                        GOLDEN.lines().any(|l| l == line),
                        "batch size {batch_size}: {line} is not golden"
                    );
                }
            }
        }
    }
}
