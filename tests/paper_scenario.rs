//! End-to-end reproduction of the paper's worked artifacts (cross-crate
//! integration). The per-figure experiment binaries print these; here they
//! are asserted.

use engine::unify::UnifyMode;
use medmaker::{Mediator, MediatorOptions};
use oem::printer::compact;
use oem::sym;
use std::sync::Arc;
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
use wrappers::Wrapper;

fn med() -> Mediator {
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
}

fn med_minimal() -> Mediator {
    med().with_options(MediatorOptions {
        unify_mode: UnifyMode::Minimal,
        ..Default::default()
    })
}

/// Like [`med_minimal`], but pinned to bind joins and to sources that
/// take one value per parameter. The Fig 3.6 row-count tests below
/// document the paper's presentation, where the inner whois group runs
/// as a per-tuple parameterized query; the cost model legitimately
/// prefers a single-scan hash join for whois once it prices round-trips,
/// so the paper shape is only stable with `prefer_bind_join` forced —
/// and §3.4's node sends one query per binding tuple, which a source
/// accepting value sets would not be sent.
fn med_paper_shape() -> Mediator {
    paper_shape(false)
}

fn paper_shape(value_sets: bool) -> Mediator {
    let (mut whois, mut cs) = (whois_wrapper(), cs_wrapper());
    if !value_sets {
        whois = whois.without_parameterized_sets();
        cs = cs.without_parameterized_sets();
    }
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois), Arc::new(cs)],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(MediatorOptions {
        unify_mode: UnifyMode::Minimal,
        planner: medmaker::planner::PlannerOptions {
            prefer_bind_join: Some(true),
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Figure 2.4: Q1 produces the combined Joe Chung object.
#[test]
fn figure_2_4_combined_object() {
    let res = med()
        .query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        .unwrap();
    assert_eq!(res.top_level().len(), 1);
    let printed = compact(&res, res.top_level()[0]);
    assert_eq!(
        printed,
        "<cs_person {<name 'Joe Chung'> <rel 'employee'> <e_mail 'chung@cs'> \
         <title 'professor'> <reports_to 'John Hennessy'>}>"
    );
}

/// §3.1/§3.2: Q1 expands to exactly one datamerge rule (R2) under the
/// paper's minimal presentation, with θ1's mapping and definition.
#[test]
fn theta1_and_r2() {
    let med = med_minimal();
    let q = msl::parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap();
    let program = med.expand(&q).unwrap();
    assert_eq!(program.len(), 1);
    let note = program.unifier_note(0);
    assert!(note.contains("N_r1 -> 'Joe Chung'"), "{note}");
    assert!(note.contains("JC =>"), "{note}");
    let rule = msl::printer::rule(&program.rules[0]);
    assert!(rule.contains("decomp('Joe Chung', LN_r1, FN_r1)"), "{rule}");
}

/// §3.3: the year query expands to exactly two rules (τ1 into Rest1 at
/// whois, τ2 into Rest2 at cs) and returns Nick Naive.
#[test]
fn tau_rules_and_nick() {
    let med = med_minimal();
    let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
    let program = med.expand(&q).unwrap();
    assert_eq!(program.len(), 2);

    let res = med.query_text("S :- S:<cs_person {<year 3>}>@med").unwrap();
    assert_eq!(res.top_level().len(), 1);
    let printed = compact(&res, res.top_level()[0]);
    assert!(printed.contains("'Nick Naive'"));
    // The year subobject appears once despite arriving from both rests.
    assert_eq!(printed.matches("<year 3>").count(), 1, "{printed}");
}

/// The integrated view contains exactly the people present in BOTH sources
/// (§2: "it only includes information for people that appear in both cs
/// and whois").
#[test]
fn intersection_semantics() {
    let res = med().query_text("P :- P:<cs_person {}>@med").unwrap();
    assert_eq!(res.top_level().len(), 2);
    let names: Vec<String> = res.top_level().iter().map(|&t| compact(&res, t)).collect();
    assert!(names.iter().any(|n| n.contains("'Joe Chung'")));
    assert!(names.iter().any(|n| n.contains("'Nick Naive'")));
}

/// Schematic discrepancy: R binds 'employee' (a whois VALUE) and selects
/// the employee TABLE at cs. Querying on rel pins the relation.
#[test]
fn schematic_discrepancy_bridge() {
    let res = med()
        .query_text("P :- P:<cs_person {<rel 'employee'>}>@med")
        .unwrap();
    assert_eq!(res.top_level().len(), 1);
    assert!(compact(&res, res.top_level()[0]).contains("'Joe Chung'"));
}

/// Schema evolution: adding a birthday subobject to whois flows through
/// Rest1 without touching MS1.
#[test]
fn schema_evolution_via_rest() {
    let mut whois = whois_wrapper();
    let p1 = whois.store().by_oid(sym("p1")).unwrap();
    let bday = whois.store_mut().atom("birthday", "1961-04-12");
    whois.store_mut().add_child(p1, bday).unwrap();

    let med = Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let res = med
        .query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        .unwrap();
    assert!(compact(&res, res.top_level()[0]).contains("<birthday '1961-04-12'>"));
}

/// Dropping e_mail from whois likewise shrinks the view, with no errors.
#[test]
fn schema_evolution_attribute_dropped() {
    let mut store = wrappers::scenario::whois_store();
    // Rebuild p1 without the e_mail subobject.
    let p1 = store.by_oid(sym("p1")).unwrap();
    let kids: Vec<_> = store
        .children(p1)
        .iter()
        .copied()
        .filter(|&c| store.get(c).label != sym("e_mail"))
        .collect();
    *store.get_mut(p1).value.as_set_mut().unwrap() = kids;

    let med = Mediator::new(
        "med",
        MS1,
        vec![
            Arc::new(wrappers::SemiStructuredWrapper::new("whois", store)),
            Arc::new(cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let res = med
        .query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        .unwrap();
    let printed = compact(&res, res.top_level()[0]);
    assert!(!printed.contains("e_mail"), "{printed}");
    assert!(printed.contains("<title 'professor'>"), "{printed}");
}

/// Queries against the mediator can mix view conditions with direct source
/// conditions and built-in comparisons.
#[test]
fn mixed_query() {
    let res = med()
        .query_text("S :- S:<cs_person {<name N> <year Y>}>@med AND ge(Y, 3) AND lt(Y, 4)")
        .unwrap();
    assert_eq!(res.top_level().len(), 1);
    assert!(compact(&res, res.top_level()[0]).contains("'Nick Naive'"));
}

/// An unsatisfiable query returns an empty store, not an error.
#[test]
fn empty_result() {
    let res = med()
        .query_text("X :- X:<cs_person {<name 'Santa'>}>@med")
        .unwrap();
    assert!(res.top_level().is_empty());
}

/// A query for a label the view does not export is empty too.
#[test]
fn wrong_view_label_empty() {
    let res = med().query_text("X :- X:<robot {}>@med").unwrap();
    assert!(res.top_level().is_empty());
}

/// The mediator is itself a Wrapper: Figure 1.1's stacking.
#[test]
fn mediator_stacks_as_source() {
    let lower: Arc<dyn Wrapper> = Arc::new(med());
    let upper = Mediator::new(
        "dir",
        "<entry {<n N>}> :- <cs_person {<name N>}>@med",
        vec![lower],
        medmaker::ExternalRegistry::new(),
    )
    .unwrap();
    let res = upper.query_text("X :- X:<entry {}>@dir").unwrap();
    assert_eq!(res.top_level().len(), 2);
}

/// The instrumented Figure 3.6 run (`experiments analyze`): per-node
/// observed row counts for the Q1 chain. decomp turns the constant name
/// into a first and last name before any source is asked; the cs query
/// they bind finds Joe Chung alone; the parameterized whois query and
/// duplicate elimination each pass that one row to the constructor.
#[test]
fn analyze_q1_per_node_row_counts() {
    let med = med_paper_shape();
    let (report, trace) = med
        .explain_analyze("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        .unwrap();
    assert_eq!(trace.rules.len(), 1);
    let nodes = &trace.rules[0].nodes;
    let observed: Vec<(&str, usize, usize)> = nodes
        .iter()
        .map(|n| (n.op.as_str(), n.metrics.rows_in, n.metrics.rows_out))
        .collect();
    assert_eq!(
        observed,
        vec![
            ("external pred", 1, 1),
            ("parameterized query", 1, 1),
            ("parameterized query", 1, 1),
            ("dup elim", 1, 1),
        ],
        "{report}"
    );
    // One round-trip per source, timing on every node, one result object.
    assert_eq!(trace.calls(sym("cs")), 1);
    assert_eq!(trace.calls(sym("whois")), 1);
    assert_eq!(trace.rules[0].constructed, 1);
    assert_eq!(trace.result_count, 1);
    assert!(
        report.contains("[external pred] decomp('Joe Chung', LN_r1, FN_r1)\n  rows: 1 in -> 1 out"),
        "{report}"
    );
    assert!(report.contains("=== totals ==="), "{report}");
}

/// The τ1/τ2 pushdown chains of the year query, node by node: τ1 keeps the
/// year condition in the whois query (paper's Q3 shape, both per-tuple
/// probes filtered down to Nick), τ2 pushes it into cs's student table
/// (Q4 shape, one row end to end).
#[test]
fn analyze_tau_chains_per_node_row_counts() {
    let med = med_paper_shape();
    let (per_tuple_report, trace) = med
        .explain_analyze("S :- S:<cs_person {<year 3>}>@med")
        .unwrap();
    assert_eq!(trace.rules.len(), 2);
    let rows = |ri: usize| -> Vec<(usize, usize)> {
        trace.rules[ri]
            .nodes
            .iter()
            .map(|n| (n.metrics.rows_in, n.metrics.rows_out))
            .collect()
    };
    // τ1: cs fetch (2 people) → decomp → 2 whois probes with the year
    // condition pushed, only Nick's succeeds → dedup.
    assert_eq!(rows(0), vec![(1, 2), (2, 2), (2, 1), (1, 1)], "{trace:?}");
    // τ2: year pushed into cs (1 student row) → decomp → whois probe → dedup.
    assert_eq!(rows(1), vec![(1, 1), (1, 1), (1, 1), (1, 1)], "{trace:?}");
    // The whois parameterized query of τ1 memoizes nothing here: two
    // distinct name/relation tuples mean two source round-trips.
    assert_eq!(trace.rules[0].nodes[2].metrics.source_calls, 2);
    assert!(
        per_tuple_report.contains("source calls: 2 ") && !per_tuple_report.contains("tuples)"),
        "{per_tuple_report}"
    );
    assert_eq!(trace.result_count, 1);

    // Against sources that accept value sets the same rows flow through
    // the same nodes; the two tuples share one round-trip.
    let (report, batched) = paper_shape(true)
        .explain_analyze("S :- S:<cs_person {<year 3>}>@med")
        .unwrap();
    for ri in 0..2 {
        let got: Vec<(usize, usize)> = batched.rules[ri]
            .nodes
            .iter()
            .map(|n| (n.metrics.rows_in, n.metrics.rows_out))
            .collect();
        assert_eq!(got, rows(ri), "{report}");
    }
    let probe = &batched.rules[0].nodes[2].metrics;
    assert_eq!((probe.source_calls, probe.tuples_sent), (1, 2), "{report}");
    assert!(report.contains("source calls: 1 (2 tuples)"), "{report}");
    assert_eq!(batched.result_count, 1);
}

/// A trace produced through the mediator survives the JSON export format
/// unchanged (the `--trace-json` path).
#[test]
fn query_trace_json_round_trip() {
    use serde::{Deserialize, Serialize};
    let med = med_minimal();
    let (_, trace) = med
        .explain_analyze("S :- S:<cs_person {<year 3>}>@med")
        .unwrap();
    let json = serde_json::to_string_pretty(&trace.to_value()).unwrap();
    let back =
        medmaker::metrics::QueryTrace::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
    assert_eq!(back, trace);
}

/// Querying the mediator twice gives structurally identical results
/// (determinism).
#[test]
fn deterministic_results() {
    let m = med();
    let a = m.query_text("P :- P:<cs_person {}>@med").unwrap();
    let b = m.query_text("P :- P:<cs_person {}>@med").unwrap();
    assert_eq!(a.top_level().len(), b.top_level().len());
    for (&x, &y) in a.top_level().iter().zip(b.top_level()) {
        assert!(oem::eq::struct_eq_cross(&a, x, &b, y));
    }
}
