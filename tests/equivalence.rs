//! Plan-strategy equivalence: whatever the optimizer chooses — bind join
//! or hash join, pushdown on or off, statistics on or off, minimal or
//! exhaustive unification — the answer must be the same set of objects.
//! The optimized pipeline is also checked against the naive evaluator.

mod common;

use common::same_objects;
use engine::unify::UnifyMode;
use medmaker::naive::{eval_rule, SourceRef};
use medmaker::planner::PlannerOptions;
use medmaker::{Mediator, MediatorOptions};
use oem::{ObjectStore, Symbol};
use std::collections::HashMap;
use std::sync::Arc;
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
use wrappers::workload::PersonWorkload;
use wrappers::Wrapper;

const QUERIES: &[&str] = &[
    "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
    "S :- S:<cs_person {<year 3>}>@med",
    "P :- P:<cs_person {}>@med",
    "P :- P:<cs_person {<rel 'student'>}>@med",
    "<out {<n N> <r R>}> :- <cs_person {<name N> <rel R>}>@med",
];

fn paper_mediator(options: MediatorOptions) -> Mediator {
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(options)
}

fn options_matrix() -> Vec<MediatorOptions> {
    let mut out = Vec::new();
    for unify_mode in [UnifyMode::Minimal, UnifyMode::Exhaustive] {
        for pushdown in [true, false] {
            for bind in [None, Some(true), Some(false)] {
                for use_stats in [true, false] {
                    out.push(MediatorOptions {
                        planner: PlannerOptions {
                            pushdown,
                            prefer_bind_join: bind,
                            dedup: true,
                            use_stats,
                            ..Default::default()
                        },
                        unify_mode,
                        ..Default::default()
                    });
                }
            }
        }
    }
    out
}

#[test]
fn all_strategies_agree_on_paper_queries() {
    for q in QUERIES {
        let baseline = paper_mediator(MediatorOptions::default())
            .query_text(q)
            .unwrap();
        for (i, opts) in options_matrix().into_iter().enumerate() {
            let res = paper_mediator(opts).query_text(q).unwrap();
            assert!(
                same_objects(&baseline, &res),
                "strategy #{i} diverged on query {q}: {} vs {} objects",
                baseline.top_level().len(),
                res.top_level().len()
            );
        }
    }
}

#[test]
fn all_strategies_agree_on_scaled_workload() {
    let workload = PersonWorkload {
        n_whois: 40,
        overlap: 0.5,
        irregularity: 0.4,
        student_fraction: 0.5,
        repeated: 0.0,
        seed: 7,
    };
    let build = |opts: MediatorOptions| {
        let (whois, cs) = workload.build();
        Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois), Arc::new(cs)],
            medmaker::externals::standard_registry(),
        )
        .unwrap()
        .with_options(opts)
    };
    let q = "P :- P:<cs_person {}>@med";
    let baseline = build(MediatorOptions::default()).query_text(q).unwrap();
    assert_eq!(baseline.top_level().len(), 20); // overlap 0.5 of 40
    for opts in options_matrix() {
        let res = build(opts.clone()).query_text(q).unwrap();
        assert!(
            same_objects(&baseline, &res),
            "strategy {opts:?} diverged on the scaled workload"
        );
    }
}

#[test]
fn optimized_pipeline_matches_naive_evaluator() {
    // Evaluate the MS1 rule directly (no view expansion/planning) and
    // compare with the full pipeline's whole-view answer.
    let rule = msl::parse_rule(
        "<cs_person {<name N> <rel R> Rest1 Rest2}> :- \
         <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois \
         AND <R {<first_name FN> <last_name LN> | Rest2}>@cs \
         AND decomp(N, LN, FN)",
    )
    .unwrap();
    let mut wrappers_map: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
    wrappers_map.insert(oem::sym("whois"), Arc::new(whois_wrapper()));
    wrappers_map.insert(oem::sym("cs"), Arc::new(cs_wrapper()));
    let registry = medmaker::externals::standard_registry();
    let resolve = |name: Symbol| wrappers_map.get(&name).map(SourceRef::Wrapper);
    let mut naive_results = ObjectStore::new();
    eval_rule(&rule, &resolve, &registry, &mut naive_results).unwrap();

    let optimized = paper_mediator(MediatorOptions::default())
        .query_text("P :- P:<cs_person {}>@med")
        .unwrap();
    assert!(
        same_objects(&naive_results, &optimized),
        "naive ({}) vs optimized ({})",
        naive_results.top_level().len(),
        optimized.top_level().len()
    );
}

#[test]
fn capability_restricted_source_same_answers() {
    use wrappers::Capabilities;
    let q = "S :- S:<cs_person {<year 3>}>@med";
    let baseline = paper_mediator(MediatorOptions::default())
        .query_text(q)
        .unwrap();

    let restricted = Mediator::new(
        "med",
        MS1,
        vec![
            Arc::new(
                whois_wrapper()
                    .with_capabilities(Capabilities::full().without_condition_on(oem::sym("year"))),
            ),
            Arc::new(cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let res = restricted.query_text(q).unwrap();
    assert!(same_objects(&baseline, &res));
}

#[test]
fn learned_stats_do_not_change_answers() {
    let med = paper_mediator(MediatorOptions::default());
    let q = "P :- P:<cs_person {}>@med";
    let first = med.query_text(q).unwrap();
    // Re-run several times; learned observations may flip join orders.
    for _ in 0..3 {
        let again = med.query_text(q).unwrap();
        assert!(same_objects(&first, &again));
    }
}
