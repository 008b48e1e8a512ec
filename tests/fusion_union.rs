//! Object fusion via semantic object-ids (§2 "Other Features" / [PGM]):
//! union-style views where objects appearing in either source are merged
//! into one view object — the fix for the med view's "apparent limitation"
//! of only covering people in both sources.

use medmaker::Mediator;
use oem::printer::compact;
use std::sync::Arc;
use wrappers::scenario::{cs_wrapper, whois_wrapper};
use wrappers::workload::PersonWorkload;
use wrappers::SemiStructuredWrapper;

const UNION_SPEC: &str = "\
<person_id(N) all_person {<name N> <in_whois 'yes'> Rest}> :-
    <person {<name N> | Rest}>@whois
<person_id(N) all_person {<name N> <in_cs 'yes'> Rest2}> :-
    <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN)

decomp(bound, free, free) by name_to_lnfn
decomp(free, bound, bound) by lnfn_to_name
";

fn union_mediator() -> Mediator {
    Mediator::new(
        "m",
        UNION_SPEC,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
}

#[test]
fn union_view_fuses_per_person() {
    let res = union_mediator()
        .query_text("P :- P:<all_person {}>@m")
        .unwrap();
    // Joe and Nick each appear in both sources → exactly 2 fused objects.
    assert_eq!(res.top_level().len(), 2);
    for &t in res.top_level() {
        let printed = compact(&res, t);
        assert!(printed.contains("<in_whois 'yes'>"), "{printed}");
        assert!(printed.contains("<in_cs 'yes'>"), "{printed}");
    }
}

#[test]
fn union_view_keeps_single_source_objects() {
    // Add a whois-only person; the union view must include them unfused.
    let mut store = wrappers::scenario::whois_store();
    oem::ObjectBuilder::set("person")
        .atom("name", "Wanda Whoisonly")
        .atom("dept", "CS")
        .build_top(&mut store);
    let med = Mediator::new(
        "m",
        UNION_SPEC,
        vec![
            Arc::new(SemiStructuredWrapper::new("whois", store)),
            Arc::new(cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let res = med.query_text("P :- P:<all_person {}>@m").unwrap();
    assert_eq!(res.top_level().len(), 3);
    let wanda = res
        .top_level()
        .iter()
        .map(|&t| compact(&res, t))
        .find(|p| p.contains("Wanda"))
        .expect("whois-only person present");
    assert!(wanda.contains("<in_whois 'yes'>"));
    assert!(!wanda.contains("<in_cs 'yes'>"));
}

#[test]
fn fused_object_count_follows_overlap() {
    // n whois persons, overlap fraction also in cs, plus the same number of
    // cs-only persons: union = n + cs_only.
    for overlap in [0.0, 0.25, 0.5, 1.0] {
        let w = PersonWorkload {
            n_whois: 16,
            overlap,
            irregularity: 0.2,
            student_fraction: 0.5,
            repeated: 0.0,
            seed: 3,
        };
        let (whois, cs) = w.build();
        let med = Mediator::new(
            "m",
            UNION_SPEC,
            vec![Arc::new(whois), Arc::new(cs)],
            medmaker::externals::standard_registry(),
        )
        .unwrap();
        let res = med.query_text("P :- P:<all_person {}>@m").unwrap();
        let cs_only = (overlap * 16.0) as usize;
        assert_eq!(
            res.top_level().len(),
            16 + cs_only,
            "overlap {overlap}: union must be whois ∪ cs-only"
        );
    }
}

#[test]
fn fusion_is_deterministic_and_idempotent() {
    let med = union_mediator();
    let a = med.query_text("P :- P:<all_person {}>@m").unwrap();
    let b = med.query_text("P :- P:<all_person {}>@m").unwrap();
    assert_eq!(a.top_level().len(), b.top_level().len());
    for (&x, &y) in a.top_level().iter().zip(b.top_level()) {
        assert!(oem::eq::struct_eq_cross(&a, x, &b, y));
    }
}

#[test]
fn semantic_oid_queryable() {
    // Querying one fused person by name returns the merged object.
    let res = union_mediator()
        .query_text("P :- P:<all_person {<name 'Joe Chung'>}>@m")
        .unwrap();
    assert_eq!(res.top_level().len(), 1);
    let printed = compact(&res, res.top_level()[0]);
    assert!(printed.contains("<title 'professor'>"), "{printed}");
    assert!(printed.contains("<e_mail 'chung@cs'>"), "{printed}");
}
