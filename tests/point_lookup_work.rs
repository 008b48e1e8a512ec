//! The work of MS1's point lookup by name, counted in its trace. The
//! constant name is all `decomp(bound, free, free)` needs, so the chain
//! calls it before any source: cs is asked for the one person that name
//! splits into, and whois for the one person it names. Two source calls
//! and at most two source rows per lookup, whatever the sources' sizes,
//! with the built-in statistics (nothing learned) and the cache off; the
//! answer is the naive evaluator's.

mod common;

use medmaker::naive::{eval_program, SourceRef};
use medmaker::{Mediator, MediatorOptions};
use std::sync::Arc;
use wrappers::scenario::MS1;
use wrappers::workload::PersonWorkload;
use wrappers::Wrapper;

/// The source operators, as EXPLAIN ANALYZE names them.
const SOURCE_OPS: [&str; 3] = ["query", "parameterized query", "hash join"];

fn lookup_does_constant_work(n: usize) {
    let workload = PersonWorkload {
        n_whois: n,
        seed: 11,
        ..PersonWorkload::default()
    };
    let (whois, cs) = workload.build();
    let sources: Vec<Arc<dyn Wrapper>> = vec![Arc::new(whois), Arc::new(cs)];
    let med = Mediator::new_with_options(
        "med",
        MS1,
        sources.clone(),
        medmaker::externals::standard_registry(),
        MediatorOptions {
            learn_stats: false,
            ..MediatorOptions::default()
        },
    )
    .unwrap();
    let resolve = |name: oem::Symbol| {
        (sources.iter())
            .find(|w| w.name() == name)
            .map(SourceRef::Wrapper)
    };
    // cs holds the first half of whois's people: each of these names is in
    // both sources. The naive evaluator joins every whois person with every
    // cs row, so it checks the first answer only.
    for (k, i) in [0, 7, n / 2 - 1].into_iter().enumerate() {
        let name = PersonWorkload::full_name_of(i);
        let text = format!("P :- P:<cs_person {{<name '{name}'>}}>@med");
        let (report, trace) = med.explain_analyze(&text).unwrap();
        assert_eq!(trace.total_source_calls(), 2, "n = {n}:\n{report}");
        let source_rows: usize = (trace.nodes())
            .filter(|t| SOURCE_OPS.contains(&t.op.as_str()))
            .map(|t| t.metrics.bindings_produced)
            .sum();
        assert!(source_rows <= 2, "n = {n}: {source_rows} rows\n{report}");

        let query = msl::parse_query(&text).unwrap();
        let planned = med.query_rule(&query).unwrap().results;
        assert_eq!(planned.top_level().len(), 1, "n = {n}:\n{report}");
        if k > 0 {
            continue;
        }
        let rules = med.expand(&query).unwrap().rules;
        let naive =
            eval_program(&rules, &resolve, &medmaker::externals::standard_registry()).unwrap();
        assert!(
            common::same_objects(&planned, &naive),
            "n = {n}: planned\n{}naive\n{}",
            oem::printer::print_store(&planned),
            oem::printer::print_store(&naive)
        );
    }
}

#[test]
fn a_lookup_among_200_people_asks_each_source_for_one_row() {
    lookup_does_constant_work(200);
}

#[test]
fn a_lookup_among_1000_people_asks_each_source_for_one_row() {
    lookup_does_constant_work(1000);
}
