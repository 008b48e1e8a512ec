//! Shaping a query interns nothing: the process-wide interner never frees
//! what it holds, so a key that interned per query would grow a resident
//! mediator without bound.
//!
//! Lives in its own test binary: the check compares the interner's size
//! before and after, which any test interning on another thread would
//! disturb.

use medmaker::cache::QueryShape;
use oem::Symbol;

#[test]
fn shaping_distinct_queries_interns_nothing() {
    // Distinct constants in value and label position, carrier labels of
    // the rule's own variables, and `bind_for_` labels of no variable.
    let rules: Vec<msl::Rule> = (0..1_000)
        .map(|i| {
            msl::parse_rule(&format!(
                "<bind_for_q{i} {{<bind_for_N N> <bind_for_Rest1 {{Rest1}}>}}> :- \
                 <person {{<name N> <dept 'D{i}'> <year {i}> <bind_for_x{i} {i}.5> | Rest1}}>@whois"
            ))
            .unwrap()
        })
        .collect();
    let before = Symbol::interned();
    let shapes: Vec<QueryShape> = rules.iter().map(QueryShape::of).collect();
    assert_eq!(Symbol::interned(), before);
    assert_eq!(shapes[0].vars().len(), 2);
    assert!(shapes.windows(2).all(|w| w[0] != w[1]));
}
