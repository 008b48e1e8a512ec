//! The cost model over the paper's MS1 workload. The answer must not
//! depend on how the optimizer joined the sources or how the plan was run:
//! every cell of the join-method × parallel × batch-size matrix returns
//! byte-identical results. And the estimates stay as close to the observed
//! cardinalities as they were measured to be.

use engine::unify::UnifyMode;
use medmaker::planner::PlannerOptions;
use medmaker::MediatorOptions;
use medmaker_bench::paper_mediator_with;
use oem::printer::print_store;

const QUERIES: [&str; 3] = [
    "S :- S:<cs_person {<year 3>}>@med",
    "P :- P:<cs_person {}>@med",
    "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
];

#[test]
fn answers_identical_across_join_method_and_execution_matrix() {
    let mut reference: Option<Vec<String>> = None;
    // Cost-chosen, forced bind joins, forced hash joins.
    for prefer_bind_join in [None, Some(true), Some(false)] {
        for parallel in [false, true] {
            // MS1's tables fit any default-sized batch; one row per batch
            // is the size that pipelines every join order.
            for batch_size in [1, 1024] {
                let med = paper_mediator_with(MediatorOptions {
                    planner: PlannerOptions {
                        prefer_bind_join,
                        ..Default::default()
                    },
                    parallel,
                    batch_size,
                    unify_mode: UnifyMode::Minimal,
                    ..Default::default()
                });
                let answers: Vec<String> = QUERIES
                    .iter()
                    .map(|q| print_store(&med.query_text(q).unwrap()))
                    .collect();
                match &reference {
                    None => reference = Some(answers),
                    Some(want) => assert_eq!(
                        want, &answers,
                        "prefer_bind_join={prefer_bind_join:?} parallel={parallel} \
                         batch_size={batch_size} changed the answer"
                    ),
                }
            }
        }
    }
}

/// The cost model's cardinality drift, `mean |log2((rows_out+1)/(est+1))|`
/// over every estimated plan node, on three pinned workloads run by one
/// mediator each: the Fig 3.6 replay, a flaky whois (latency and periodic
/// failures, retried on virtual time) and a fully-cached replay. The
/// drift is deterministic: 0.6034 on all three, and the gate is that
/// number rounded up.
#[test]
fn cardinality_drift_stays_within_the_measured_bound() {
    use medmaker::{CacheOptions, FaultOptions, Mediator, RetryPolicy};
    use medmaker_bench::registry;
    use std::sync::Arc;
    use wrappers::fault::{FaultInjectingWrapper, FaultPlan, VirtualClock};
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
    use wrappers::Wrapper;

    let base = || MediatorOptions {
        trace: true,
        unify_mode: UnifyMode::Minimal,
        ..Default::default()
    };
    let clock = Arc::new(VirtualClock::new());
    let flaky_whois: Arc<dyn Wrapper> = Arc::new(
        FaultInjectingWrapper::new(
            Arc::new(whois_wrapper()),
            FaultPlan::none().fail_every(3).latency_ms(5),
        )
        .with_virtual_clock(clock.clone()),
    );
    let workloads = [
        ("fig36", paper_mediator_with(base())),
        (
            "fault",
            Mediator::new(
                "med",
                MS1,
                vec![flaky_whois, Arc::new(cs_wrapper())],
                registry(),
            )
            .unwrap()
            .with_options(MediatorOptions {
                fault: FaultOptions {
                    retry: RetryPolicy::retries(3),
                    ..Default::default()
                }
                .on_virtual_time(clock),
                ..base()
            }),
        ),
        (
            "cache",
            paper_mediator_with(MediatorOptions {
                cache: CacheOptions::enabled(),
                ..base()
            }),
        ),
    ];
    // Each query repeats so the §3.5 feedback loop has observations to
    // converge on; the cached replay is all hits from its second run on.
    let queries = [0, 1, 2, 0, 1, 0].map(|i| QUERIES[i]);
    for (workload, med) in workloads {
        let drift: Vec<f64> = queries
            .iter()
            .flat_map(|q| {
                let out = med.query_rule(&msl::parse_query(q).unwrap()).unwrap();
                out.trace
                    .nodes()
                    .filter(|n| n.metrics.has_estimate())
                    .map(|n| {
                        ((n.metrics.rows_out as f64 + 1.0) / (n.metrics.est_rows + 1.0))
                            .log2()
                            .abs()
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let mean = drift.iter().sum::<f64>() / drift.len() as f64;
        assert_eq!(drift.len(), 36, "{workload}");
        assert!(mean <= 0.61, "{workload}: drift {mean:.3}");
    }
}
