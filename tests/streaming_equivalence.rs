//! Executor differential guard, on every workload shape — parameterized
//! chains, open scans, rest-condition filters, external predicates,
//! multi-rule fusion — over `MS1` and the two-rule [`UNION_SPEC`]:
//!
//! (a) the batch size is invisible: `print_store` is byte-identical across
//!     batch sizes, sequential and parallel execution, cache hits, and
//!     Partial-mode degradation (with equal completeness sections).
//!     MSL's set-oriented semantics (§3.2) make pipelining invisible;
//!     these tests keep it that way;
//! (b) the planned answer is structurally equal to what the naive
//!     evaluator ([`medmaker::naive::eval_program`]) computes from the
//!     same logical datamerge program. The oracle shares no operator,
//!     fetch or extraction code with the pipeline.
//!
//! (c) what a round-trip carries is invisible too: against sources that
//!     accept value sets the parameterized node sends a batch of tuples
//!     per call, and the bytes are those of one call per tuple — on
//!     fixtures built to make the two differ if anything leaks (repeated
//!     tuples, tuples nobody matches, listed values in combinations nobody
//!     asked for, an integer meeting a real column, a label parameter).
//!
//! (d) where an answer comes from is invisible as well: a bind join whose
//!     every tuple is served by filtering a cached table through its pin
//!     index prints the bytes of one that asked the sources, and so does
//!     a restarted mediator answered from the warm tier on disk.
//!
//! (e) what batching buys against slow sources, in injected sleep: the
//!     first answer sooner, and with value sets one call per refill.
//!
//! `MediatorOptions::streaming = false` means `batch_size = usize::MAX`
//! and nothing else; the test names still say "materialized" for that
//! whole-table setting.

mod common;

use common::same_objects;
use medmaker::naive::{eval_program, SourceRef};
use medmaker::{FaultOptions, Mediator, MediatorOptions, OnSourceFailure};
use oem::Symbol;
use proptest::prelude::*;
use std::sync::Arc;
use wrappers::fault::{FaultInjectingWrapper, FaultPlan};
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
use wrappers::Wrapper;

/// Multi-rule view fused by a semantic oid: one chain per source, so the
/// parallel merge path is exercised with more than one chain, and the
/// oracle must fuse across rules.
const UNION_SPEC: &str = "\
<person_id(N) all_person {<name N> <src 'whois'> Rest}> :-
    <person {<name N> | Rest}>@whois
<person_id(N) all_person {<name N> <src 'cs'> <first FN> <last LN> Rest2}> :-
    <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN)

decomp(bound, free, free) by name_to_lnfn
decomp(free, bound, bound) by lnfn_to_name
";

const BATCH_SIZES: [usize; 5] = [1, 7, 512, 4096, usize::MAX];

fn mediator(spec: &str, options: MediatorOptions) -> Mediator {
    Mediator::new(
        "m",
        spec,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(options)
}

fn batched(batch_size: usize) -> MediatorOptions {
    MediatorOptions {
        batch_size,
        ..Default::default()
    }
}

/// Whole tables between operators, spelled the way the frozen benchmark
/// spells it.
fn whole_tables() -> MediatorOptions {
    MediatorOptions {
        streaming: false,
        ..Default::default()
    }
}

/// Run a query and render the whole answer store — oids included. The
/// constructor assigns result oids from the merged tables in a fixed
/// order, so equal executions print byte-identically.
fn answer(med: &Mediator, query: &str) -> String {
    let res = med.query_text(query).unwrap();
    oem::printer::print_store(&res)
}

/// Assertion (b): the planned answer to `query` equals the naive
/// evaluation of the same expanded program.
fn assert_matches_naive(med: &Mediator, query: &str) {
    let sources: Vec<Arc<dyn Wrapper>> = vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())];
    assert_matches_naive_over(med, &sources, query);
}

/// [`assert_matches_naive`] for a mediator over `sources`.
fn assert_matches_naive_over(med: &Mediator, sources: &[Arc<dyn Wrapper>], query: &str) {
    let q = msl::parse_query(query).unwrap();
    let planned = med.query_rule(&q).unwrap().results;
    let resolve = |name: Symbol| {
        sources
            .iter()
            .find(|w| w.name() == name)
            .map(SourceRef::Wrapper)
    };
    let naive = eval_program(
        &med.expand(&q).unwrap().rules,
        &resolve,
        &medmaker::externals::standard_registry(),
    )
    .unwrap();
    assert!(
        same_objects(&planned, &naive),
        "query={query}: planned {} objects vs naive {}\nplanned:\n{}naive:\n{}",
        planned.top_level().len(),
        naive.top_level().len(),
        oem::printer::print_store(&planned),
        oem::printer::print_store(&naive),
    );
}

/// The workload matrix: every plan-node shape the executor has.
const QUERIES: &[&str] = &[
    // Parameterized chain (Qwhois → decomp → Qcs), the paper's walkthrough.
    "JC :- JC:<cs_person {<name 'Joe Chung'>}>@m",
    // Open scan: whole view, every person crossed with their cs relation.
    "P :- P:<cs_person {}>@m",
    // Projection head over the view.
    "<roster {<person N> <as R>}> :- <cs_person {<name N> <rel R>}>@m",
    // Rest-condition filter (the vectorized batch-kernel path).
    "S :- S:<cs_person {<name N> | R:{<year 3>}}>@m",
    // External predicate mid-chain.
    "<o {<n N>}> :- <cs_person {<name N>}>@m AND eq(N, N)",
];

/// The fusion view's one query: both rules contribute to every object.
const UNION_QUERY: &str = "P :- P:<all_person {}>@m";

#[test]
fn streaming_matches_materialized_on_every_workload() {
    let whole = mediator(MS1, whole_tables());
    for q in QUERIES {
        let expected = answer(&whole, q);
        for &batch in &BATCH_SIZES {
            for parallel in [false, true] {
                let med = mediator(
                    MS1,
                    MediatorOptions {
                        parallel,
                        ..batched(batch)
                    },
                );
                assert_eq!(
                    answer(&med, q),
                    expected,
                    "batch={batch} parallel={parallel} query={q}"
                );
            }
        }
        assert_matches_naive(&whole, q);
    }
}

#[test]
fn streaming_matches_materialized_on_multi_rule_fusion() {
    let whole = mediator(UNION_SPEC, whole_tables());
    let expected = answer(&whole, UNION_QUERY);
    for &batch in &BATCH_SIZES {
        // Sequential and parallel execution must both agree with the
        // whole-table run (and therefore with each other).
        let sequential = mediator(UNION_SPEC, batched(batch));
        assert_eq!(answer(&sequential, UNION_QUERY), expected, "batch={batch}");
        let parallel = mediator(
            UNION_SPEC,
            MediatorOptions {
                parallel: true,
                ..batched(batch)
            },
        );
        assert_eq!(
            answer(&parallel, UNION_QUERY),
            expected,
            "parallel batch={batch}"
        );
    }
    // Two rules, one constructor: the oracle fuses per semantic oid too.
    assert_matches_naive(&whole, UNION_QUERY);
}

#[test]
fn streaming_records_first_answer_and_bounded_batches() {
    let med = mediator(MS1, batched(2));
    let q = msl::parse_query("P :- P:<cs_person {}>@m").unwrap();
    let outcome = med.query_rule(&q).unwrap();
    assert!(outcome.trace.first_rows_ns > 0, "TTFA must be recorded");
    assert!(
        outcome.trace.peak_batch_rows <= 2,
        "no node may hold more than one batch: peak {}",
        outcome.trace.peak_batch_rows
    );
    assert!(outcome.trace.peak_bytes_resident > 0);
    // `streaming = false` is `batch_size = usize::MAX` and nothing else:
    // both hold whole tables, so the same peak, no lower than the
    // bounded one.
    let whole = mediator(MS1, whole_tables()).query_rule(&q).unwrap();
    let unbounded = mediator(MS1, batched(usize::MAX)).query_rule(&q).unwrap();
    assert_eq!(whole.trace.peak_batch_rows, unbounded.trace.peak_batch_rows);
    assert!(whole.trace.peak_batch_rows >= outcome.trace.peak_batch_rows);
    assert!(whole.trace.first_rows_ns > 0);
}

#[test]
fn streaming_matches_materialized_in_partial_mode() {
    // cs is down: the cs chain drops, the whois chain still answers —
    // identically at every batch size, with the same completeness
    // annotations. (No naive counterpart: the oracle has no Partial mode;
    // `tests/fault_tolerance.rs` asserts the degraded answers explicitly.)
    let build = |options: MediatorOptions| {
        let down: Arc<dyn Wrapper> = Arc::new(FaultInjectingWrapper::new(
            Arc::new(cs_wrapper()),
            FaultPlan::always_down(),
        ));
        Mediator::new(
            "m",
            UNION_SPEC,
            vec![Arc::new(whois_wrapper()), down],
            medmaker::externals::standard_registry(),
        )
        .unwrap()
        .with_options(MediatorOptions {
            fault: FaultOptions {
                on_source_failure: OnSourceFailure::Partial,
                ..Default::default()
            },
            ..options
        })
    };
    let q = msl::parse_query(UNION_QUERY).unwrap();
    let whole = build(whole_tables()).query_rule(&q).unwrap();
    assert!(!whole.trace.completeness.is_complete());
    assert!(!whole.results.top_level().is_empty(), "whois side answers");
    for &batch in &BATCH_SIZES {
        for parallel in [false, true] {
            let out = build(MediatorOptions {
                parallel,
                ..batched(batch)
            })
            .query_rule(&q)
            .unwrap();
            assert_eq!(
                oem::printer::print_store(&out.results),
                oem::printer::print_store(&whole.results),
                "batch={batch} parallel={parallel}"
            );
            assert_eq!(
                out.trace.completeness.skipped_chains,
                whole.trace.completeness.skipped_chains
            );
            assert_eq!(
                out.trace.completeness.sources_failed,
                whole.trace.completeness.sources_failed
            );
        }
    }
}

#[test]
fn streaming_matches_materialized_on_cache_hits() {
    let dir = std::env::temp_dir().join(format!("medmaker-streaming-warm-{}", std::process::id()));
    let build = |spec: &str, options: MediatorOptions| {
        mediator(
            spec,
            MediatorOptions {
                cache: medmaker::CacheOptions {
                    cache_dir: Some(dir.clone()),
                    ..medmaker::CacheOptions::enabled()
                },
                ..options
            },
        )
    };
    for (spec, queries) in [(MS1, QUERIES), (UNION_SPEC, &[UNION_QUERY][..])] {
        for q in queries {
            let uncached = answer(&mediator(spec, MediatorOptions::default()), q);
            for &batch in &BATCH_SIZES {
                // The first run populates the cache; the second is served
                // from it (cached rows enter the pipeline fully extracted);
                // a restarted, parallel mediator is served from the warm
                // tier on disk.
                let _ = std::fs::remove_dir_all(&dir);
                let med = build(spec, batched(batch));
                assert_eq!(answer(&med, q), uncached, "cold batch={batch} query={q}");
                assert_eq!(answer(&med, q), uncached, "warm batch={batch} query={q}");
                assert_matches_naive(&med, q);
                drop(med);
                let restarted = build(
                    spec,
                    MediatorOptions {
                        parallel: true,
                        ..batched(batch)
                    },
                );
                assert_eq!(
                    answer(&restarted, q),
                    uncached,
                    "restarted batch={batch} query={q}"
                );
                assert!(restarted.cache_counters().warm_hits > 0, "query={q}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// MS1 over a crowd: whois persons whose (relation, first, last) tuples
/// repeat, match nothing, or share their values with cs rows in other
/// combinations — `(employee, Ann, Busy)` and `(student, Ann, Able)` are
/// in cs and asked for by nobody, so per-variable value sets fetch them
/// and the split must drop them. Two cs rows answer `(employee, Ann,
/// Able)`.
fn crowd(value_sets: bool) -> Vec<Arc<dyn Wrapper>> {
    use minidb::{Catalog, ColType, Schema, Table};
    use oem::ObjectBuilder;
    let mut whois = oem::ObjectStore::with_oid_prefix("w");
    for (name, relation, year) in [
        ("Ann Able", "employee", None),
        ("Bob Busy", "employee", None),
        ("Ann Able", "employee", None),
        ("No Body", "employee", None),
        ("Nick Naive", "student", Some(3)),
        ("Cy Cool", "student", Some(4)),
        ("No Body", "student", Some(3)),
    ] {
        let mut person = ObjectBuilder::set("person")
            .atom("name", name)
            .atom("dept", "CS")
            .atom("relation", relation);
        if let Some(year) = year {
            person = person.atom("year", year as i64);
        }
        person.build_top(&mut whois);
    }
    let names = [("first_name", ColType::Str), ("last_name", ColType::Str)];
    let mut employee = Table::new(
        Schema::new("employee", &[names[0], names[1], ("title", ColType::Str)]).unwrap(),
    );
    employee
        .insert_all([
            vec!["Ann".into(), "Able".into(), "professor".into()],
            vec!["Ann".into(), "Busy".into(), "dean".into()],
            vec!["Bob".into(), "Busy".into(), "lecturer".into()],
            vec!["Ann".into(), "Able".into(), "adjunct".into()],
        ])
        .unwrap();
    employee.create_index("last_name").unwrap();
    let mut student =
        Table::new(Schema::new("student", &[names[0], names[1], ("year", ColType::Int)]).unwrap());
    student
        .insert_all([
            vec!["Nick".into(), "Naive".into(), 3.into()],
            vec!["Ann".into(), "Able".into(), 1.into()],
            vec!["Cy".into(), "Cool".into(), 4.into()],
        ])
        .unwrap();
    // An integer parameter meets a real column here (GRADED_SPEC).
    let mut grade = Table::new(
        Schema::new("grade", &[("level", ColType::Real), ("gpa", ColType::Real)]).unwrap(),
    );
    grade
        .insert_all([
            vec![3.0.into(), 3.5.into()],
            vec![4.0.into(), 3.9.into()],
            vec![5.0.into(), 2.0.into()],
        ])
        .unwrap();
    let mut catalog = Catalog::new();
    for t in [employee, student, grade] {
        catalog.add_table(t).unwrap();
    }
    let mut whois = wrappers::SemiStructuredWrapper::new("whois", whois);
    let mut cs = wrappers::RelationalWrapper::new("cs", catalog);
    if !value_sets {
        whois = whois.without_parameterized_sets();
        cs = cs.without_parameterized_sets();
    }
    vec![Arc::new(whois), Arc::new(cs)]
}

/// A numeric join: whois years are integers, cs levels reals. (The head
/// leaves `Y` out: which side's 3 represents it depends on the join order.)
const GRADED_SPEC: &str = "\
<graded {<name N> <gpa G>}> :-
    <person {<name N> <year Y>}>@whois
    AND <grade {<level Y> <gpa G>}>@cs
";

#[test]
fn value_sets_match_one_call_per_tuple() {
    let build = |spec: &str, value_sets: bool, batch_size: usize| {
        Mediator::new_with_options(
            "m",
            spec,
            crowd(value_sets),
            medmaker::externals::standard_registry(),
            MediatorOptions {
                planner: medmaker::planner::PlannerOptions {
                    prefer_bind_join: Some(true),
                    ..Default::default()
                },
                learn_stats: false,
                batch_size,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let run = |med: &Mediator, q: &str| {
        let out = med.query_rule(&msl::parse_query(q).unwrap()).unwrap();
        // Round-trips of the parameterized nodes, and the tuples in them.
        let (mut calls, mut sent) = (0, 0);
        for n in out.trace.nodes().filter(|n| n.op == "parameterized query") {
            calls += n.metrics.source_calls;
            sent += n.metrics.tuples_sent;
        }
        (oem::printer::print_store(&out.results), calls, sent)
    };
    let mut saved = 0;
    for (spec, queries) in [
        (
            MS1,
            &[
                "P :- P:<cs_person {}>@m",
                "S :- S:<cs_person {<rel 'student'>}>@m",
                "S :- S:<cs_person {<year 3>}>@m",
                "<o {<n N> <t T>}> :- <cs_person {<name N> <title T>}>@m",
            ][..],
        ),
        (GRADED_SPEC, &["G :- G:<graded {}>@m"][..]),
    ] {
        for q in queries {
            let per_tuple = build(spec, false, usize::MAX);
            let (expected, calls, sent) = run(&per_tuple, q);
            assert!(!expected.is_empty(), "query={q} answers something");
            assert!(sent > 0 && sent == calls, "query={q}: one tuple a call");
            assert_matches_naive_over(&per_tuple, &crowd(false), q);
            for batch in [1, 2, 7, 1024] {
                assert_eq!(run(&build(spec, false, batch), q).0, expected);
                let (answer, batched_calls, batched_sent) = run(&build(spec, true, batch), q);
                assert_eq!(answer, expected, "value sets, batch={batch} query={q}");
                // The same tuples went out, in no more calls; one row per
                // refill has nothing to batch.
                assert_eq!(batched_sent, sent, "batch={batch} query={q}");
                assert!(batched_calls <= calls, "batch={batch} query={q}");
                if batch == 1 {
                    assert_eq!(batched_calls, calls, "query={q}");
                }
                saved += calls - batched_calls;
            }
            assert_matches_naive_over(&build(spec, true, 1024), &crowd(true), q);
        }
    }
    assert!(saved > 0, "some run must have sent a value set");
}

/// MS1 plus a view of the cs tables as they are: asking for it leaves the
/// whole of cs in the answer cache, under a query that exports `R`, `FN`
/// and `LN` — the three parameters MS1's bind join then pins per tuple.
const ROSTER_SPEC: &str = "\
<cs_person {<name N> <rel R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN)

<cs_row {<rel R> <first FN> <last LN> Rest2}> :-
    <R {<first_name FN> <last_name LN> | Rest2}>@cs

decomp(bound, free, free) by name_to_lnfn
decomp(free, bound, bound) by lnfn_to_name
decomp(bound, bound, bound) by check_name_lnfn
";

/// Sixty whois persons over a cs roster that misses every seventh of
/// them, lists every fifth twice, and files some under the other relation.
fn roster() -> Vec<Arc<dyn Wrapper>> {
    use oem::ObjectBuilder;
    let mut whois = oem::ObjectStore::with_oid_prefix("w");
    let mut cs = oem::ObjectStore::with_oid_prefix("c");
    for i in 0..60 {
        let (first, last) = (format!("F{}", i % 12), format!("L{i}"));
        let relation = if i % 3 == 0 { "student" } else { "employee" };
        ObjectBuilder::set("person")
            .atom("name", format!("{first} {last}").as_str())
            .atom("dept", "CS")
            .atom("relation", relation)
            .atom("office", i as i64)
            .build_top(&mut whois);
        if i % 7 == 0 {
            continue;
        }
        let filed = if i % 11 == 0 { "student" } else { relation };
        for copy in 0..1 + usize::from(i % 5 == 0) {
            ObjectBuilder::set(filed)
                .atom("first_name", first.as_str())
                .atom("last_name", last.as_str())
                .atom("badge", (100 * copy + i) as i64)
                .build_top(&mut cs);
        }
    }
    vec![
        Arc::new(wrappers::SemiStructuredWrapper::new("whois", whois)),
        Arc::new(wrappers::SemiStructuredWrapper::new("cs", cs)),
    ]
}

#[test]
fn bind_join_over_a_cached_table_matches_the_sources() {
    let build = |cache: bool, batch_size: usize| {
        Mediator::new_with_options(
            "m",
            ROSTER_SPEC,
            roster(),
            medmaker::externals::standard_registry(),
            MediatorOptions {
                planner: medmaker::planner::PlannerOptions {
                    prefer_bind_join: Some(true),
                    ..Default::default()
                },
                cache: if cache {
                    medmaker::CacheOptions::enabled()
                } else {
                    Default::default()
                },
                learn_stats: false,
                batch_size,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let view = "P :- P:<cs_person {}>@m";
    let expected = answer(&build(false, usize::MAX), view);
    assert!(expected.matches("cs_person").count() > 40, "{expected}");
    for batch in [1, 7, 1024] {
        let med = build(true, batch);
        answer(&med, "T :- T:<cs_row {}>@m");
        let primed = med.cache_counters();
        let out = med.query_rule(&msl::parse_query(view).unwrap()).unwrap();
        assert_eq!(
            oem::printer::print_store(&out.results),
            expected,
            "batch={batch}"
        );
        // Every tuple of the parameterized node was a pinned probe of the
        // cached cs table, and cs was not called again.
        let node = out
            .trace
            .nodes()
            .find(|n| n.op == "parameterized query")
            .expect("a bind join");
        assert_eq!(node.metrics.rows_in, 60, "batch={batch}");
        assert_eq!(node.metrics.source_calls, 0, "batch={batch}");
        assert!(node.metrics.containment_hits >= 50, "batch={batch}");
        // One index build looks at each of the 62 cs rows once, however
        // many variables (R, FN, LN) are pinned, then each probe looks at
        // the rows of one last name: 122 in all, where a scan per tuple
        // makes it 60 x 62.
        let c = med.cache_counters();
        let examined = c.objects_examined - primed.objects_examined;
        let cs_rows = 60 - 9 + 11;
        assert!(
            examined <= 3 * cs_rows + 2 * node.metrics.containment_hits,
            "batch={batch}: examined {examined}"
        );
        assert_matches_naive_over(&med, &roster(), view);
    }
}

/// The open scan over 400 people with 2 ms injected on every round-trip to
/// either source, bind join pinned, so the inner side pays it per call.
/// Against sources taking one value per parameter, a batch of 32 brings
/// the first answer after about one batch of round-trips where an
/// unbounded batch brings it with the last; against sources taking value
/// sets, each refill of the parameterized node is one call. The clock
/// read here times sleep the test injected itself, not the host.
#[test]
fn slow_sources_answer_sooner_in_batches_and_in_fewer_calls_with_value_sets() {
    use std::time::Instant;
    use wrappers::workload::PersonWorkload;

    const N: usize = 400;
    const LATENCY_MS: u64 = 2;
    const BATCH: usize = 32;
    let run = |batch_size: usize, value_sets: bool| {
        let (mut whois, mut cs) = PersonWorkload::sized(N).build();
        if !value_sets {
            whois = whois.without_parameterized_sets();
            cs = cs.without_parameterized_sets();
        }
        let slow = |w: Arc<dyn Wrapper>| -> Arc<dyn Wrapper> {
            Arc::new(FaultInjectingWrapper::new(
                w,
                FaultPlan::none().latency_ms(LATENCY_MS),
            ))
        };
        let med = Mediator::new_with_options(
            "med",
            MS1,
            vec![slow(Arc::new(whois)), slow(Arc::new(cs))],
            medmaker::externals::standard_registry(),
            MediatorOptions {
                planner: medmaker::planner::PlannerOptions {
                    prefer_bind_join: Some(true),
                    ..Default::default()
                },
                batch_size,
                learn_stats: false,
                ..Default::default()
            },
        )
        .unwrap();
        let start = Instant::now();
        let outcome = med
            .query_rule(&msl::parse_query("P :- P:<cs_person {}>@med").unwrap())
            .unwrap();
        // Every round-trip really waited.
        let (wall, calls) = (start.elapsed(), outcome.trace.total_source_calls());
        assert!(
            wall.as_millis() as u64 >= calls as u64 * LATENCY_MS,
            "batch={batch_size} value_sets={value_sets}: {calls} round-trips in {wall:?}"
        );
        assert!(outcome.trace.first_rows_ns > 0);
        outcome
    };
    let unbounded = run(usize::MAX, false);
    let bounded = run(BATCH, false);
    let sets_unbounded = run(usize::MAX, true);
    let sets_bounded = run(BATCH, true);

    let answer = oem::printer::print_store(&unbounded.results);
    for other in [&bounded, &sets_unbounded, &sets_bounded] {
        assert_eq!(oem::printer::print_store(&other.results), answer);
    }
    // One tuple a call: the inner side is called per tuple, batched or not.
    let calls = bounded.trace.total_source_calls();
    assert_eq!(calls, unbounded.trace.total_source_calls());
    assert_eq!(calls, N + 1, "one outer scan, then one call per row");
    let speedup = unbounded.trace.first_rows_ns as f64 / bounded.trace.first_rows_ns as f64;
    assert!(speedup >= 2.0, "first answer only {speedup:.2}x sooner");
    for b in [&bounded, &sets_bounded] {
        assert_eq!(b.trace.peak_batch_rows, BATCH);
    }
    assert_eq!(unbounded.trace.peak_batch_rows, N);
    // Value sets: one call for the outer side, one per refill of the inner.
    assert_eq!(sets_unbounded.trace.total_source_calls(), 2);
    assert_eq!(
        sets_bounded.trace.total_source_calls(),
        1 + N.div_ceil(BATCH)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch size is invisible: any size from one row up produces the
    /// same bytes as whole tables.
    #[test]
    fn any_batch_size_is_equivalent(batch in 1i64..4097) {
        let whole = mediator(MS1, whole_tables());
        let med = mediator(MS1, batched(batch as usize));
        let q = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@m";
        prop_assert_eq!(answer(&med, q), answer(&whole, q));
    }
}
