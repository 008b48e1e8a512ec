//! The answer must not depend on how the optimizer joined the sources or
//! how the plan was run: every cell of the join-method × parallel ×
//! batch-size matrix returns byte-identical results for the paper's MS1
//! workload.

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
