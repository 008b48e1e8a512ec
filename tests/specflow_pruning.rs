//! Planner-integrated answerability: the optimizer prunes rule chains the
//! whole-spec analysis proves empty, the pruned chain count is pinned, and
//! the answers are byte-identical with pruning on and off (only provably
//! empty chains are ever dropped). What the analysis accepts, the planner
//! runs, and the answer is the naive evaluator's.

mod common;

use medmaker::planner::{plan, PlanContext, PlannerOptions};
use medmaker::stats::StatsCache;
use medmaker::{Mediator, MediatorOptions};
use std::collections::HashMap;
use std::sync::Arc;
use wrappers::{SemiStructuredWrapper, Wrapper};

/// Two sources whose `item.val` types disagree: `nums` holds integers,
/// `words` holds strings. Each view rule alone is clean; only a query
/// constant can make one of the expanded chains provably empty.
const SPEC: &str = "\
<v {<x X> <from F>}> :- <item {<val X>}>@nums AND <tag {<of F>}>@nums
<v {<x X> <from F>}> :- <item {<val X>}>@words AND <tag {<of F>}>@words
";

fn source(name: &str, oem_text: &str) -> Arc<dyn Wrapper> {
    let store = oem::parser::parse_store(oem_text).unwrap();
    Arc::new(SemiStructuredWrapper::new(name, store))
}

fn sources() -> Vec<Arc<dyn Wrapper>> {
    vec![
        source(
            "nums",
            "<&i1, item, set, {<&v1, val, 7>}>\n\
             <&t1, tag, set, {<&o1, of, 'nums'>}>\n",
        ),
        source(
            "words",
            "<&i2, item, set, {<&v2, val, 'seven'>}>\n\
             <&t2, tag, set, {<&o2, of, 'words'>}>\n",
        ),
    ]
}

fn mediator(prune: bool) -> Mediator {
    Mediator::new(
        "med",
        SPEC,
        sources(),
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(MediatorOptions {
        planner: PlannerOptions {
            prune_infeasible: prune,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// The query's constant `'seven'` conflicts with `nums`'s integer `val`
/// summary once expanded into the first chain.
const QUERY: &str = "A :- A:<v {<x 'seven'>}>@med";

#[test]
fn planner_prunes_exactly_the_provably_empty_chain() {
    let med = mediator(true);
    let query = msl::parse_query(QUERY).unwrap();
    let program = med.expand(&query).unwrap();
    assert_eq!(program.rules.len(), 2, "both view rules expand");

    let source_map: HashMap<oem::Symbol, Arc<dyn Wrapper>> =
        sources().into_iter().map(|w| (w.name(), w)).collect();
    let registry = medmaker::externals::standard_registry();
    let stats = StatsCache::new();

    // With the analysis wired in, exactly the nums-chain is pruned.
    let ctx = PlanContext {
        sources: &source_map,
        registry: &registry,
        stats: &stats,
        options: &PlannerOptions::default(),
        analysis: med.analysis(),
    };
    let physical = plan(&program, &ctx).unwrap();
    assert_eq!(physical.pruned.len(), 1, "{:?}", physical.pruned);
    assert_eq!(physical.rules.len(), 1);
    assert!(
        physical.pruned[0].contains("nums") || physical.pruned[0].contains("val"),
        "{:?}",
        physical.pruned
    );

    // With pruning off, both chains survive.
    let no_prune = PlannerOptions {
        prune_infeasible: false,
        ..Default::default()
    };
    let ctx = PlanContext {
        sources: &source_map,
        registry: &registry,
        stats: &stats,
        options: &no_prune,
        analysis: med.analysis(),
    };
    let physical = plan(&program, &ctx).unwrap();
    assert!(physical.pruned.is_empty());
    assert_eq!(physical.rules.len(), 2);
}

#[test]
fn answers_are_byte_identical_with_pruning_on_and_off() {
    let with = mediator(true).query_text(QUERY).unwrap();
    let without = mediator(false).query_text(QUERY).unwrap();
    let render = |s: &oem::ObjectStore| oem::printer::print_store(s);
    assert_eq!(render(&with), render(&without));
    // And the surviving chain actually answers: one object from `words`.
    assert_eq!(with.top_level().len(), 1);
    assert!(render(&with).contains("'seven'"));
    assert!(render(&with).contains("'words'"));
}

#[test]
fn unconstrained_query_prunes_nothing() {
    let med = mediator(true);
    let all = med.query_text("A :- A:<v {}>@med").unwrap();
    // Both chains are feasible without the conflicting constant: both
    // sources answer.
    assert_eq!(all.top_level().len(), 2);
}

/// The planned answer to `query` over `spec`, which must hold the objects
/// the naive evaluator builds from the same expanded rules. `bind` pins
/// the join kind (`None`: the cost model's choice).
fn answer_like_naive(
    spec: &str,
    sources: Vec<Arc<dyn Wrapper>>,
    query: &str,
    bind: Option<bool>,
) -> oem::ObjectStore {
    use medmaker::naive::{eval_program, SourceRef};
    let options = MediatorOptions {
        planner: PlannerOptions {
            prefer_bind_join: bind,
            ..Default::default()
        },
        ..Default::default()
    };
    let registry = medmaker::externals::standard_registry();
    let med = Mediator::new_with_options("med", spec, sources.clone(), registry, options).unwrap();
    let q = msl::parse_query(query).unwrap();
    let planned = med.query_rule(&q).unwrap().results;
    let resolve = |name: oem::Symbol| {
        sources
            .iter()
            .find(|w| w.name() == name)
            .map(SourceRef::Wrapper)
    };
    let rules = med.expand(&q).unwrap().rules;
    let naive = eval_program(&rules, &resolve, &medmaker::externals::standard_registry()).unwrap();
    let render = |s: &oem::ObjectStore| oem::printer::print_store(s);
    assert!(
        common::same_objects(&planned, &naive),
        "{query}: planned\n{}naive\n{}",
        render(&planned),
        render(&naive)
    );
    planned
}

#[test]
fn integers_and_reals_compare_as_the_matcher_compares_them() {
    // `3` and `3.0` are equal to the matcher, so neither the pruning of a
    // real constant on an integer label nor a join of an integer with a
    // real may call them apart.
    let ints = || source("a", "<&p1, p, set, {<&k1, k, 3>}>\n");
    let mixed = || {
        source(
            "a",
            "<&p1, p, set, {<&k1, k, 3>}>\n<&p2, p, set, {<&k2, k, 4.5>}>\n",
        )
    };
    let reals = || source("b", "<&q1, q, set, {<&k3, k, 3.0>}>\n");
    let view = "<v {<k K>}> :- <p {<k K>}>@a\n";
    for a in [ints(), mixed()] {
        let answer = answer_like_naive(view, vec![a], "X :- X:<v {<k 3.0>}>@med", None);
        assert_eq!(answer.top_level().len(), 1);
    }
    // Probed by a bind join, and as the key of a hash join.
    let join = "<w {<k K>}> :- <p {<k K>}>@a AND <q {<k K>}>@b\n";
    for bind in [Some(true), Some(false)] {
        let answer = answer_like_naive(join, vec![ints(), reals()], "X :- X:<w {}>@med", bind);
        assert_eq!(answer.top_level().len(), 1, "bind join: {bind:?}");
    }
}

#[test]
fn a_second_name_is_found_through_the_whois_rest_chain_alone() {
    // Every whois person carries a second name, so whois's summary claims
    // nothing for `name` and `Rest1:{<name 'Alias3'>}@whois` is planned: it
    // is the one chain that finds person 3 by that name (decomp cannot
    // split 'Alias3', so the chain binding `<name N>` to it builds nothing).
    use wrappers::workload::PersonWorkload;
    let workload = PersonWorkload {
        n_whois: 10,
        repeated: 1.0,
        ..PersonWorkload::default()
    };
    let sources = || -> Vec<Arc<dyn Wrapper>> {
        let (whois, cs) = workload.build();
        vec![Arc::new(whois), Arc::new(cs)]
    };
    let query = "P :- P:<cs_person {<name 'Alias3'>}>@med";
    let planned = answer_like_naive(wrappers::scenario::MS1, sources(), query, None);
    let printed = oem::printer::print_store(&planned);
    assert_eq!(planned.top_level().len(), 1, "{printed}");
    assert!(printed.contains("'First3 Last3'"), "{printed}");
    let run = |prune_infeasible| {
        let options = MediatorOptions {
            planner: PlannerOptions {
                prune_infeasible,
                ..Default::default()
            },
            ..Default::default()
        };
        let registry = medmaker::externals::standard_registry();
        let med = Mediator::new_with_options(
            "med",
            wrappers::scenario::MS1,
            sources(),
            registry,
            options,
        );
        med.unwrap()
            .query_rule(&msl::parse_query(query).unwrap())
            .unwrap()
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(oem::printer::print_store(&on.results), printed);
    assert_eq!(oem::printer::print_store(&off.results), printed);
    // Only `Rest2:{<name …>}@cs` is pruned.
    assert_eq!((on.trace.rules.len(), off.trace.rules.len()), (2, 3));
}

#[test]
fn a_bound_rest_condition_fills_a_required_condition() {
    // `form` answers only queries that name a person. The rule names one
    // in a rest condition, from `roster`'s member: the analysis accepts it
    // (no E302) and the planner reaches `form` by bind join through it.
    let roster = source(
        "roster",
        "<&m1, member, set, {<&w1, who, 'Ann'>}>\n<&m2, member, set, {<&w2, who, 'Bob'>}>\n",
    );
    let store = oem::parser::parse_store(
        "<&p1, person, set, {<&n1, name, 'Ann'>, <&d1, dept, 'CS'>}>\n\
         <&p2, person, set, {<&n2, name, 'Cy'>, <&d2, dept, 'EE'>}>\n",
    )
    .unwrap();
    let caps = wrappers::Capabilities::restricted().with_required_condition_on(oem::sym("name"));
    let form: Arc<dyn Wrapper> =
        Arc::new(SemiStructuredWrapper::new("form", store).with_capabilities(caps));
    let spec = "<v {<n N> <d D> R}> :- <member {<who N>}>@roster \
                AND <person {<dept D> | R:{<name N>}}>@form\n";
    let answer = answer_like_naive(spec, vec![roster, form], "X :- X:<v {}>@med", None);
    let printed = oem::printer::print_store(&answer);
    assert_eq!(answer.top_level().len(), 1, "{printed}");
    assert!(
        printed.contains("'Ann'") && printed.contains("'CS'"),
        "{printed}"
    );
}
