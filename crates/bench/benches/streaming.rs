//! What bounding the batches costs: the chain pipeline at batch sizes 64
//! and 1024 against an unbounded batch (whole tables between operators) on
//! a scaled §2 person workload. Answers are byte-identical at every batch
//! size (tests/streaming_equivalence.rs); this bench tracks end-to-end
//! wall time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use medmaker::{Mediator, MediatorOptions};
use std::sync::Arc;
use wrappers::scenario::MS1;
use wrappers::workload::PersonWorkload;

fn build(n: usize, batch_size: usize) -> Mediator {
    let (whois, cs) = PersonWorkload::sized(n).build();
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois), Arc::new(cs)],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(MediatorOptions {
        batch_size,
        learn_stats: false, // keep plans stable across iterations
        ..Default::default()
    })
}

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    let n = 600usize;
    // An open scan (whole view) and a selective year query: the scan is
    // extraction-heavy, the year query filter-heavy.
    for q in [
        "P :- P:<cs_person {}>@med",
        "S :- S:<cs_person {<year 3>}>@med",
    ] {
        let label = if q.contains("year") { "year" } else { "scan" };
        let expect = build(n, usize::MAX)
            .query_text(q)
            .unwrap()
            .top_level()
            .len();
        for (name, batch) in [("unbounded", usize::MAX), ("b64", 64), ("b1024", 1024)] {
            let med = build(n, batch);
            group.bench_with_input(BenchmarkId::new(label, name), &(), |b, _| {
                b.iter(|| {
                    let res = med.query_text(q).unwrap();
                    assert_eq!(res.top_level().len(), expect);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
