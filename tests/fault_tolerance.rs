//! The fault matrix: {cs down, whois down, whois flaky-then-recovers,
//! slow source past its deadline} × {retry on/off} × {Fail/Partial},
//! asserting result sets, completeness annotations, and retry counters
//! against the seeded fault plans exactly. Every scenario runs on virtual
//! time (injected clock + sleeper) — the whole suite finishes without a
//! single real sleep, and every fault plan is deterministic.
//!
//! The last section runs the matrix's cs column again for a bind join that
//! ships its tuples as value sets: a batch is one call to every decorator
//! on the way to the source, one attempt to the retry policy, and — once
//! answered — twenty per-tuple cache entries.

use medmaker::exec::ExecOutcome;
use medmaker::{FaultOptions, MedError, Mediator, MediatorOptions, OnSourceFailure, RetryPolicy};
use oem::sym;
use std::sync::Arc;
use wrappers::fault::{FaultInjectingWrapper, FaultPlan, VirtualClock};
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
use wrappers::Wrapper;

/// The fusion union view: one rule per source, fused by the semantic oid
/// `person_id(N)`. Losing one source degrades the answer (the other rule
/// still fires); this is where Partial mode is visible as a non-empty,
/// incomplete result.
const UNION_SPEC: &str = "\
<person_id(N) all_person {<name N> <src 'whois'> Rest}> :-
    <person {<name N> | Rest}>@whois
<person_id(N) all_person {<name N> <src 'cs'> <first FN> <last LN> Rest2}> :-
    <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN)

decomp(bound, free, free) by name_to_lnfn
decomp(free, bound, bound) by lnfn_to_name
";

/// A test fixture: both paper sources behind fault injectors on a shared
/// virtual clock, queried through the full `Mediator` pipeline (so the
/// `MediatorOptions::fault` plumbing is what's under test).
struct Rig {
    med: Mediator,
    whois: Arc<FaultInjectingWrapper>,
    cs: Arc<FaultInjectingWrapper>,
}

fn rig(spec: &str, whois_plan: FaultPlan, cs_plan: FaultPlan, fault: FaultOptions) -> Rig {
    let clock = Arc::new(VirtualClock::new());
    let whois = Arc::new(
        FaultInjectingWrapper::new(Arc::new(whois_wrapper()), whois_plan)
            .with_virtual_clock(clock.clone()),
    );
    let cs = Arc::new(
        FaultInjectingWrapper::new(Arc::new(cs_wrapper()), cs_plan)
            .with_virtual_clock(clock.clone()),
    );
    let med = Mediator::new(
        "m",
        spec,
        vec![
            whois.clone() as Arc<dyn Wrapper>,
            cs.clone() as Arc<dyn Wrapper>,
        ],
        medmaker::externals::standard_registry(),
    )
    .expect("spec parses")
    .with_options(MediatorOptions {
        trace: true,
        fault: fault.on_virtual_time(clock),
        ..Default::default()
    });
    Rig { med, whois, cs }
}

fn union_query(r: &Rig) -> medmaker::Result<ExecOutcome> {
    let q = msl::parse_query("P :- P:<all_person {}>@m").unwrap();
    r.med.query_rule(&q)
}

fn partial() -> FaultOptions {
    FaultOptions {
        on_source_failure: OnSourceFailure::Partial,
        ..Default::default()
    }
}

/// Names of the top-level result objects' `src` children, to tell whois
/// contributions from cs contributions.
fn srcs_in(results: &oem::ObjectStore) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for &t in results.top_level() {
        let printed = oem::printer::compact(results, t);
        if printed.contains("<src 'whois'>") {
            out.push("whois".to_string());
        }
        if printed.contains("<src 'cs'>") {
            out.push("cs".to_string());
        }
    }
    out.sort();
    out.dedup();
    out
}

// ---- whois down ---------------------------------------------------------

#[test]
fn whois_down_fail_mode_errors_without_retrying() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::always_down(),
        FaultPlan::none(),
        FaultOptions::default(),
    );
    let err = union_query(&r).err().expect("must fail closed");
    match err {
        MedError::SourceUnavailable { source, .. } => assert_eq!(source, "whois"),
        other => panic!("expected SourceUnavailable, got {other}"),
    }
    // Retry is off: exactly one call reached the source.
    assert_eq!(r.whois.calls_seen(), 1);
    assert_eq!(r.whois.metrics().unwrap().faults_injected, 1);
}

#[test]
fn whois_down_fail_mode_retries_then_errors() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::always_down(),
        FaultPlan::none(),
        FaultOptions {
            retry: RetryPolicy::retries(2),
            ..Default::default()
        },
    );
    let err = union_query(&r).err().expect("must still fail closed");
    assert!(matches!(err, MedError::SourceUnavailable { .. }));
    // 1 initial attempt + 2 retries, all faulted, matching the plan.
    assert_eq!(r.whois.calls_seen(), 3);
    assert_eq!(r.whois.metrics().unwrap().faults_injected, 3);
}

#[test]
fn whois_down_partial_mode_returns_the_cs_side() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::always_down(),
        FaultPlan::none(),
        partial(),
    );
    let outcome = union_query(&r).expect("partial mode degrades, not fails");
    assert_eq!(outcome.results.top_level().len(), 2, "cs-only Joe and Nick");
    assert_eq!(srcs_in(&outcome.results), ["cs"]);
    let c = &outcome.trace.completeness;
    assert!(!c.is_complete());
    assert!(c.sources_failed.contains_key(&sym("whois")));
    assert!(!c.sources_failed.contains_key(&sym("cs")));
    assert_eq!(c.skipped_chains.len(), 1, "only the whois chain dropped");
    assert!(c.sources_ok.contains(&sym("cs")));
}

#[test]
fn whois_down_partial_mode_with_retries_counts_every_attempt() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::always_down(),
        FaultPlan::none(),
        FaultOptions {
            retry: RetryPolicy::retries(2),
            on_source_failure: OnSourceFailure::Partial,
            ..Default::default()
        },
    );
    let outcome = union_query(&r).expect("partial mode degrades, not fails");
    assert_eq!(outcome.results.top_level().len(), 2);
    // The failed chain's counters still land in the trace: 2 re-attempts,
    // 3 transient failures observed — exactly the seeded plan.
    assert_eq!(outcome.trace.retries_for(sym("whois")), 2);
    assert_eq!(outcome.trace.failures_for(sym("whois")), 3);
    assert_eq!(r.whois.calls_seen(), 3);
}

// ---- cs down (the matrix is symmetric in the source) --------------------

#[test]
fn cs_down_fail_mode_errors() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::none(),
        FaultPlan::always_down(),
        FaultOptions::default(),
    );
    let err = union_query(&r).err().expect("must fail closed");
    match err {
        MedError::SourceUnavailable { source, .. } => assert_eq!(source, "cs"),
        other => panic!("expected SourceUnavailable, got {other}"),
    }
    assert_eq!(r.cs.calls_seen(), 1);
    assert_eq!(r.cs.metrics().unwrap().faults_injected, 1);
}

#[test]
fn cs_down_partial_mode_returns_the_whois_side() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::none(),
        FaultPlan::always_down(),
        partial(),
    );
    let outcome = union_query(&r).expect("partial mode degrades, not fails");
    assert_eq!(outcome.results.top_level().len(), 2, "whois-only Joe, Nick");
    assert_eq!(srcs_in(&outcome.results), ["whois"]);
    let c = &outcome.trace.completeness;
    assert!(!c.is_complete());
    assert!(c.sources_failed.contains_key(&sym("cs")));
    assert!(c.sources_ok.contains(&sym("whois")));
}

// ---- flaky-then-recovers ------------------------------------------------

#[test]
fn flaky_whois_recovers_under_retry_in_both_modes() {
    // Two retries spend the whole budget; three leave one unspent, and
    // retrying stops at the first success all the same.
    for fault in [
        FaultOptions {
            retry: RetryPolicy::retries(2),
            ..Default::default()
        },
        FaultOptions {
            retry: RetryPolicy::retries(2),
            on_source_failure: OnSourceFailure::Partial,
            ..Default::default()
        },
        FaultOptions {
            retry: RetryPolicy::retries(3),
            ..Default::default()
        },
    ] {
        let r = rig(
            UNION_SPEC,
            FaultPlan::none().fail_first(2),
            FaultPlan::none(),
            fault,
        );
        let outcome = union_query(&r).expect("third attempt succeeds");
        assert_eq!(outcome.results.top_level().len(), 2);
        // Both sources contributed: the objects fused.
        assert_eq!(srcs_in(&outcome.results), ["cs", "whois"]);
        assert!(outcome.trace.completeness.is_complete());
        // Counters match the plan: 2 injected faults, 2 re-attempts, the
        // 3rd call went through.
        assert_eq!(outcome.trace.retries_for(sym("whois")), 2);
        assert_eq!(outcome.trace.failures_for(sym("whois")), 2);
        assert_eq!(outcome.trace.retries_for(sym("cs")), 0);
        assert_eq!(r.whois.calls_seen(), 3);
        assert_eq!(r.whois.metrics().unwrap().faults_injected, 2);
    }
}

#[test]
fn flaky_whois_without_retry_fails_or_degrades() {
    // Retry off, Fail mode: the first injected fault ends the query.
    let r = rig(
        UNION_SPEC,
        FaultPlan::none().fail_first(2),
        FaultPlan::none(),
        FaultOptions::default(),
    );
    assert!(union_query(&r).is_err());
    assert_eq!(r.whois.calls_seen(), 1);

    // Retry off, Partial mode: the whois chain is dropped on its single
    // failed attempt; no second call is ever made.
    let r = rig(
        UNION_SPEC,
        FaultPlan::none().fail_first(2),
        FaultPlan::none(),
        partial(),
    );
    let outcome = union_query(&r).expect("degrades");
    assert_eq!(srcs_in(&outcome.results), ["cs"]);
    assert_eq!(outcome.trace.retries_for(sym("whois")), 0);
    assert_eq!(outcome.trace.failures_for(sym("whois")), 1);
    assert_eq!(r.whois.calls_seen(), 1);
}

// ---- slow source past its deadline --------------------------------------

#[test]
fn slow_whois_past_deadline_is_discarded_in_partial_mode() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::none().latency_ms(80),
        FaultPlan::none(),
        FaultOptions {
            source_deadline_ms: Some(50),
            on_source_failure: OnSourceFailure::Partial,
            ..Default::default()
        },
    );
    let outcome = union_query(&r).expect("degrades");
    assert_eq!(srcs_in(&outcome.results), ["cs"]);
    let c = &outcome.trace.completeness;
    assert!(!c.is_complete());
    assert!(c.sources_failed[&sym("whois")].contains("deadline"));
    assert_eq!(outcome.trace.failures_for(sym("whois")), 1);
}

#[test]
fn slow_whois_past_deadline_fails_in_fail_mode_even_with_retry() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::none().latency_ms(80),
        FaultPlan::none(),
        FaultOptions {
            retry: RetryPolicy::retries(1),
            source_deadline_ms: Some(50),
            ..Default::default()
        },
    );
    let err = union_query(&r).err().expect("every attempt is too slow");
    match &err {
        MedError::SourceUnavailable { source, reason } => {
            assert_eq!(source, "whois");
            assert!(reason.contains("deadline"), "{reason}");
        }
        other => panic!("expected SourceUnavailable, got {other}"),
    }
    // The timeout is transient, so the retry budget was spent: 2 attempts.
    assert_eq!(r.whois.calls_seen(), 2);
}

#[test]
fn slow_source_within_deadline_is_unaffected() {
    let r = rig(
        UNION_SPEC,
        FaultPlan::none().latency_ms(20),
        FaultPlan::none(),
        FaultOptions {
            source_deadline_ms: Some(50),
            ..Default::default()
        },
    );
    let outcome = union_query(&r).expect("20ms < 50ms deadline");
    assert_eq!(outcome.results.top_level().len(), 2);
    assert!(outcome.trace.completeness.is_complete());
    assert_eq!(outcome.trace.failures_for(sym("whois")), 0);
}

// ---- MS1: every chain needs both sources --------------------------------

#[test]
fn ms1_with_whois_down_partial_is_empty_but_not_an_error() {
    // In MS1 every cs_person chain joins whois with cs, so losing whois in
    // Partial mode legitimately drops every chain: the answer is empty but
    // the query does NOT error — and the trace says why it is empty.
    let r = rig(MS1, FaultPlan::always_down(), FaultPlan::none(), partial());
    let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@m").unwrap();
    let outcome = r.med.query_rule(&q).expect("empty, not an error");
    assert_eq!(outcome.results.top_level().len(), 0);
    let c = &outcome.trace.completeness;
    assert!(!c.is_complete());
    assert!(c.sources_failed.contains_key(&sym("whois")));
    assert_eq!(
        c.skipped_chains.len(),
        outcome.trace.rules.len(),
        "every chain needed whois"
    );
    // Fail mode on the same rig setup errors instead.
    let r = rig(
        MS1,
        FaultPlan::always_down(),
        FaultPlan::none(),
        FaultOptions::default(),
    );
    assert!(r.med.query_rule(&q).is_err());
}

// ---- deterministic seeded flakiness -------------------------------------

#[test]
fn seeded_flaky_plan_is_reproducible_across_runs() {
    // The same seed must produce the same fault sequence, so two identical
    // runs agree call for call — the whole matrix stays deterministic.
    let plan_a = FaultPlan::none().flaky(0.5, 42);
    let plan_b = FaultPlan::none().flaky(0.5, 42);
    let seq_a: Vec<bool> = (0..32).map(|i| plan_a.injects_fault(i)).collect();
    let seq_b: Vec<bool> = (0..32).map(|i| plan_b.injects_fault(i)).collect();
    assert_eq!(seq_a, seq_b);
    assert!(seq_a.iter().any(|&f| f), "p=0.5 over 32 calls injects some");
    assert!(!seq_a.iter().all(|&f| f), "...but not all");
    // A different seed gives a different sequence.
    let plan_c = FaultPlan::none().flaky(0.5, 43);
    let seq_c: Vec<bool> = (0..32).map(|i| plan_c.injects_fault(i)).collect();
    assert_ne!(seq_a, seq_c);
}

// ---- value sets: one batch is one call ------------------------------------

use medmaker::CacheOptions;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A decorator that forwards everything and does its work in `query`
/// (the shape of the benchmark's timing wrapper): whatever a batch needs
/// must travel inside the `Rule`.
struct Counting {
    inner: Arc<dyn Wrapper>,
    calls: AtomicUsize,
}

impl Wrapper for Counting {
    fn name(&self) -> oem::Symbol {
        self.inner.name()
    }
    fn capabilities(&self) -> &wrappers::Capabilities {
        self.inner.capabilities()
    }
    fn stats(&self) -> Option<wrappers::SourceStats> {
        self.inner.stats()
    }
    fn metrics(&self) -> Option<wrappers::WrapperMetrics> {
        self.inner.metrics()
    }
    fn schema_summary(&self) -> Option<wrappers::SchemaSummary> {
        self.inner.schema_summary()
    }
    fn query(&self, q: &msl::Rule) -> Result<oem::ObjectStore, wrappers::WrapperError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.query(q)
    }
}

/// The benchmark's `slow_source` fixture on virtual time: 40 whois
/// persons, 20 of them students, the bind join pinned; each source sits
/// behind a fault injector behind a [`Counting`] decorator.
struct Fanout {
    med: Mediator,
    whois: Arc<FaultInjectingWrapper>,
    cs: Arc<FaultInjectingWrapper>,
    cs_counted: Arc<Counting>,
    cs_source: Arc<dyn Wrapper>,
}

const STUDENTS: &str = "P :- P:<cs_person {<rel 'student'>}>@m";

fn fanout(value_sets: bool, cs_plan: FaultPlan, fault: FaultOptions, cache: bool) -> Fanout {
    let (mut whois, mut cs) = wrappers::workload::PersonWorkload::sized(40).build();
    if !value_sets {
        whois = whois.without_parameterized_sets();
        cs = cs.without_parameterized_sets();
    }
    let clock = Arc::new(VirtualClock::new());
    let cs_source: Arc<dyn Wrapper> = Arc::new(cs);
    let cs_counted = Arc::new(Counting {
        inner: cs_source.clone(),
        calls: AtomicUsize::new(0),
    });
    let cs = Arc::new(
        FaultInjectingWrapper::new(cs_counted.clone(), cs_plan).with_virtual_clock(clock.clone()),
    );
    let whois = Arc::new(
        FaultInjectingWrapper::new(Arc::new(whois), FaultPlan::none())
            .with_virtual_clock(clock.clone()),
    );
    let med = Mediator::new(
        "m",
        MS1,
        vec![
            whois.clone() as Arc<dyn Wrapper>,
            cs.clone() as Arc<dyn Wrapper>,
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(MediatorOptions {
        planner: medmaker::planner::PlannerOptions {
            prefer_bind_join: Some(true),
            ..Default::default()
        },
        learn_stats: false,
        fault: fault.on_virtual_time(clock),
        cache: if cache {
            CacheOptions::enabled()
        } else {
            CacheOptions::default()
        },
        ..Default::default()
    });
    Fanout {
        med,
        whois,
        cs,
        cs_counted,
        cs_source,
    }
}

fn students(f: &Fanout) -> medmaker::Result<ExecOutcome> {
    f.med.query_rule(&msl::parse_query(STUDENTS).unwrap())
}

#[test]
fn a_value_set_is_one_call_to_every_decorator() {
    // One chain runs: MS1's `<rel 'student'>` lookup also expands into a
    // chain asking whois's `Rest1` and one asking cs's `Rest2` for a `rel`
    // subobject, and neither source has such a label, so both are pruned.
    // One tuple a call: 1 whois + 20 cs round-trips, all of cs's the
    // parameterized node's.
    let per_tuple = fanout(false, FaultPlan::none(), FaultOptions::default(), false);
    let expected = students(&per_tuple).unwrap();
    assert_eq!(expected.results.top_level().len(), 20);
    assert_eq!(
        (per_tuple.whois.calls_seen(), per_tuple.cs.calls_seen()),
        (1, 20)
    );
    // Value sets: the twenty tuples ride in one query, and the injector,
    // the decorator below it, the source itself and the trace each count
    // it once.
    let f = fanout(true, FaultPlan::none(), FaultOptions::default(), false);
    let out = students(&f).unwrap();
    assert_eq!(
        oem::printer::print_store(&out.results),
        oem::printer::print_store(&expected.results)
    );
    assert_eq!((f.whois.calls_seen(), f.cs.calls_seen()), (1, 1));
    assert_eq!(f.cs_counted.calls.load(Ordering::Relaxed), 1);
    assert_eq!(f.cs_source.metrics().unwrap().queries_received, 1);
    assert_eq!(out.trace.calls(sym("cs")), 1);
    assert_eq!(out.trace.latency_calls.get(&sym("cs")), Some(&1));
    let node = out
        .trace
        .nodes()
        .find(|n| n.metrics.tuples_sent > 1)
        .expect("a node sent a value set");
    assert_eq!(
        (node.metrics.source_calls, node.metrics.tuples_sent),
        (1, 20)
    );
    // §3.5 observations stay "rows per bound tuple": one per tuple, each
    // with its own student.
    let per_tuple_obs = out
        .trace
        .observations
        .iter()
        .filter(|o| o.source == sym("cs") && o.count == 1)
        .count();
    assert!(per_tuple_obs >= 20, "{:?}", out.trace.observations);
}

#[test]
fn a_failed_batch_is_retried_as_one_attempt() {
    let healthy = fanout(true, FaultPlan::none(), FaultOptions::default(), false);
    let expected = oem::printer::print_store(&students(&healthy).unwrap().results);
    // cs refuses its first call — the value set — and answers the retry.
    let retrying = FaultOptions {
        retry: RetryPolicy::retries(1),
        ..Default::default()
    };
    let f = fanout(true, FaultPlan::none().fail_first(1), retrying, false);
    let out = students(&f).unwrap();
    assert_eq!(oem::printer::print_store(&out.results), expected);
    assert_eq!(out.trace.retries_for(sym("cs")), 1);
    assert_eq!(out.trace.failures_for(sym("cs")), 1);
    assert_eq!(out.trace.calls(sym("cs")), 1, "a retried call is one call");
    // The chains asking for a `rel` subobject are pruned (see above).
    assert_eq!(f.cs.calls_seen(), 2, "1 refused + its retry");
    assert!(out.trace.completeness.is_complete());
}

#[test]
fn a_batch_that_stays_failed_fails_like_a_tuple() {
    let retrying = |mode: OnSourceFailure| FaultOptions {
        retry: RetryPolicy::retries(2),
        on_source_failure: mode,
        ..Default::default()
    };
    // Fail mode: the query errors.
    let f = fanout(
        true,
        FaultPlan::always_down(),
        retrying(OnSourceFailure::Fail),
        false,
    );
    match students(&f).err().expect("cs is down") {
        MedError::SourceUnavailable { source, .. } => assert_eq!(source, "cs"),
        other => panic!("expected SourceUnavailable, got {other}"),
    }
    assert_eq!(f.cs_counted.calls.load(Ordering::Relaxed), 0);
    // Partial mode: every chain of MS1 needs cs, so each is dropped — the
    // one holding the batch like the others, after three attempts at one
    // query.
    let f = fanout(
        true,
        FaultPlan::always_down(),
        retrying(OnSourceFailure::Partial),
        false,
    );
    let out = students(&f).unwrap();
    assert!(out.results.top_level().is_empty());
    assert!(out
        .trace
        .completeness
        .sources_failed
        .contains_key(&sym("cs")));
    let batch = out
        .trace
        .nodes()
        .find(|n| n.metrics.tuples_sent > 1)
        .expect("a node sent a value set");
    assert_eq!(
        (batch.metrics.source_calls, batch.metrics.tuples_sent),
        (1, 20)
    );
    assert_eq!(f.cs.calls_seen(), 3 * out.trace.calls(sym("cs")));
    assert_eq!(out.trace.failures_for(sym("cs")), f.cs.calls_seen());
}

#[test]
fn a_batch_fills_the_cache_tuple_by_tuple() {
    let f = fanout(true, FaultPlan::none(), FaultOptions::default(), true);
    let cold = students(&f).unwrap();
    assert_eq!((f.whois.calls_seen(), f.cs.calls_seen()), (1, 1));
    // Twenty lookups missed and shared one round-trip.
    let node = cold
        .trace
        .nodes()
        .find(|n| n.metrics.tuples_sent > 1)
        .expect("a node sent a value set");
    assert_eq!(
        (node.metrics.cache_misses, node.metrics.source_calls),
        (20, 1)
    );
    // Again: every source query — each tuple's among them — is resident.
    let warm = students(&f).unwrap();
    assert_eq!(warm.trace.total_source_calls(), 0);
    assert_eq!((f.whois.calls_seen(), f.cs.calls_seen()), (1, 1));
    assert_eq!(
        oem::printer::print_store(&warm.results),
        oem::printer::print_store(&cold.results)
    );
    // One of the twenty on its own: decomp binds its cs query from the
    // constant name, so that query is the filled query the batch was
    // split into, an exact hit.
    let name = wrappers::workload::PersonWorkload::full_name_of(3);
    let one = format!("P :- P:<cs_person {{<name '{name}'> <rel 'student'>}}>@m");
    let one = msl::parse_query(&one).unwrap();
    let out = f.med.query_rule(&one).unwrap();
    assert_eq!(out.results.top_level().len(), 1);
    let node = out
        .trace
        .nodes()
        .find(|n| n.op == "parameterized query")
        .expect("the point query binds into cs");
    assert_eq!(
        (node.metrics.cache_hits, node.metrics.source_calls),
        (1, 0),
        "{node:?}"
    );
}

#[test]
fn a_source_taking_one_value_refuses_a_value_set() {
    /// A hand-written wrapper over the library's evaluator that never
    /// heard of value sets: its profile says so.
    struct Plain {
        caps: wrappers::Capabilities,
        store: oem::ObjectStore,
    }
    impl Wrapper for Plain {
        fn name(&self) -> oem::Symbol {
            sym("whois")
        }
        fn capabilities(&self) -> &wrappers::Capabilities {
            &self.caps
        }
        fn query(&self, q: &msl::Rule) -> Result<oem::ObjectStore, wrappers::WrapperError> {
            wrappers::eval::answer_msl_query(self.name(), &self.caps, &self.store, q)
        }
    }
    let plain = Plain {
        caps: wrappers::Capabilities::full().without_parameterized_sets(),
        store: wrappers::scenario::whois_store(),
    };
    let mut q = msl::parse_query("P :- P:<person {<name N>}>@whois").unwrap();
    plain.query(&q).unwrap();
    q.tail.push(wrappers::api::one_of(
        sym("N"),
        [oem::Value::str("Joe Chung")],
    ));
    // Never both people, which ignoring the restriction would return.
    match plain.query(&q) {
        Err(wrappers::WrapperError::Unsupported(why)) => assert!(why.contains("one_of"), "{why}"),
        other => panic!("expected Unsupported, got {:?}", other.map(|s| s.len())),
    }
    // The mediator reads the profile and never sends it one.
    let f = fanout(false, FaultPlan::none(), FaultOptions::default(), false);
    let out = students(&f).unwrap();
    assert!(out
        .trace
        .nodes()
        .all(|n| n.metrics.tuples_sent <= n.metrics.source_calls));
}
