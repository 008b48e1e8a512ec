//! `experiments` — regenerates every figure and worked artifact of the
//! MedMaker paper (see DESIGN.md §3 for the index and EXPERIMENTS.md for
//! the recorded outcomes) and asserts each one in counts: objects, rows,
//! source round-trips, cache hits, byte identity. It writes no file and,
//! `streaming` aside, reads no clock: time is `BENCHMARK.json`'s to measure.
//!
//! Usage: `cargo run -p medmaker-bench --bin experiments -- <id|all>`
//! where `<id>` is one of: architecture fig22 fig23 ms1 bindings fig24
//! pipeline theta1 pushdown fig36 schema_query wildcard fusion recursion
//! dupelim capabilities stats analyze prune lorel faults cache cache_tiered
//! cost streaming serve

use engine::bindings::Bindings;
use engine::matcher::match_top_level;
use engine::unify::UnifyMode;
use medmaker::exec::{execute, ExecOptions};
use medmaker::planner::{plan, PlanContext, PlannerOptions};
use medmaker::spec::MediatorSpec;
use medmaker::stats::StatsCache;
use medmaker::{explain, Mediator, MediatorOptions};
use medmaker_bench::{paper_mediator, paper_mediator_with, registry};
use msl::TailItem;
use oem::printer::{compact, print_store};
use oem::sym;
use std::collections::HashMap;
use std::sync::Arc;
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1, WHOIS_OEM};
use wrappers::{Capabilities, Wrapper};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    let experiments: Vec<(&str, fn())> = vec![
        ("architecture", architecture),
        ("fig22", fig22),
        ("fig23", fig23),
        ("ms1", ms1),
        ("bindings", bindings),
        ("fig24", fig24),
        ("pipeline", pipeline),
        ("theta1", theta1),
        ("pushdown", pushdown),
        ("fig36", fig36),
        ("schema_query", schema_query),
        ("wildcard", wildcard),
        ("fusion", fusion),
        ("recursion", recursion),
        ("dupelim", dupelim),
        ("capabilities", capabilities),
        ("stats", stats),
        ("analyze", analyze),
        ("prune", prune),
        ("lorel", lorel_frontend),
        ("faults", faults),
        ("cache", cache),
        ("cache_tiered", cache_tiered),
        ("cost", cost),
        ("streaming", streaming),
        ("serve", serve),
    ];
    let mut ran = false;
    for (name, f) in &experiments {
        if all || which == *name {
            println!("\n################ experiment: {name} ################");
            f();
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown experiment '{which}'");
        eprintln!(
            "available: all {}",
            experiments
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }
}

/// Footnote 4: the LOREL end-user language, compiled to MSL.
fn lorel_frontend() {
    let med = paper_mediator();
    for q in [
        "select * from cs_person P where P.name = 'Joe Chung'",
        "select P.name from cs_person P where P.year >= 3",
    ] {
        let rule = lorel::to_msl(q, "med").unwrap();
        println!("LOREL: {q}");
        println!("  MSL: {}", msl::printer::rule(&rule));
        let res = med.query_rule(&rule).unwrap().results;
        println!("  -> {} object(s)", res.top_level().len());
        assert_eq!(res.top_level().len(), 1);
    }
    println!(
        "[ok] the end-user language of footnote 4 compiles to MSL; equality \
         conditions inline into patterns so pushdown still applies"
    );
}

/// Figure 1.1: sources → wrappers → mediators → (stacked) mediators.
fn architecture() {
    let lower = Arc::new(paper_mediator());
    println!("wrappers: cs (relational engine), whois (semi-structured store)");
    println!("mediator 'med' integrates both; a second mediator stacks on top:");
    let upper = Mediator::new(
        "directory",
        "<staff {<who N> <status R>}> :- <cs_person {<name N> <rel R>}>@med",
        vec![lower],
        registry(),
    )
    .expect("stacked spec valid");
    let res = upper
        .query_text("X :- X:<staff {}>@directory")
        .expect("stacked query runs");
    print!("{}", print_store(&res));
    println!("[ok] applications can query mediators that query mediators (Fig 1.1)");
}

/// Figure 2.2: the OEM export of the relational cs source.
fn fig22() {
    let cs = cs_wrapper();
    for rel in ["employee", "student"] {
        let q = msl::parse_query(&format!("X :- X:<{rel} {{}}>@cs")).unwrap();
        let res = cs.query(&q).unwrap();
        print!("{}", print_store(&res));
    }
    println!("[ok] each row exports as a top-level OEM object labeled by its relation");
}

/// Figure 2.3: the whois object structure.
fn fig23() {
    let store = wrappers::scenario::whois_store();
    print!("{}", print_store(&store));
    println!("(source text)\n{WHOIS_OEM}");
    println!(
        "[ok] note the irregularity: &p1 has an e_mail subobject, &p2 does not; \
         &p2 carries year (correction: the paper's figure omits &y2 from &p2's \
         set value, but its own Fig 3.6 run requires it)"
    );
}

/// MS1 parses, validates, and round-trips.
fn ms1() {
    let spec = MediatorSpec::parse("med", MS1).unwrap();
    println!("{}", spec.to_text());
    let again = MediatorSpec::parse("med", &spec.to_text()).unwrap();
    assert_eq!(spec.spec, again.spec);
    println!("[ok] MS1 parses, validates, and round-trips through the printer");
}

/// §2's worked bindings b_w1, b_w2 (whois) and b_c1 (cs).
fn bindings() {
    let store = wrappers::scenario::whois_store();
    let q = msl::parse_query("X :- <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois")
        .unwrap();
    let TailItem::Match { pattern, .. } = &q.tail[0] else {
        unreachable!()
    };
    println!("matching the MS1 whois pattern against Figure 2.3:");
    for b in match_top_level(&store, pattern, &Bindings::new()) {
        println!("  {b}");
    }
    println!(
        "[ok] b_w1 binds N='Joe Chung', R='employee', Rest1={{e_mail}}; \
         b_w2 binds N='Nick Naive', R='student', Rest1={{year}}"
    );

    let cs = cs_wrapper();
    let q = msl::parse_query(
        "<b {<bind_R R> <bind_FN FN> <bind_LN LN> <bind_Rest2 Rest2>}> :- \
         <R {<first_name FN> <last_name LN> | Rest2}>@cs",
    )
    .unwrap();
    let res = cs.query(&q).unwrap();
    println!("matching the MS1 cs pattern against Figure 2.2:");
    for &t in res.top_level() {
        println!("  {}", compact(&res, t));
    }
    println!("[ok] b_c1 binds R='employee', FN='Joe', LN='Chung', Rest2={{title, reports_to}}");
}

/// Figure 2.4: the integrated cs_person object for Joe Chung.
fn fig24() {
    let med = paper_mediator();
    let res = med
        .query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        .unwrap();
    print!("{}", print_store(&res));
    let printed = compact(&res, res.top_level()[0]);
    for frag in [
        "<name 'Joe Chung'>",
        "<rel 'employee'>",
        "<e_mail 'chung@cs'>",
        "<title 'professor'>",
        "<reports_to 'John Hennessy'>",
    ] {
        assert!(printed.contains(frag), "missing {frag}");
    }
    println!("[ok] exactly the paper's combined object (modulo generated oids)");
}

/// Figure 2.5: the three-stage MSI pipeline, traced.
fn pipeline() {
    let med = paper_mediator_with(MediatorOptions {
        trace: true,
        unify_mode: UnifyMode::Minimal,
        ..Default::default()
    });
    let q = msl::parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap();
    println!("stage 1 — View Expander & Algebraic Optimizer:");
    let program = med.expand(&q).unwrap();
    print!("{}", explain::render_logical(&program));
    println!("stage 2+3 — optimizer + datamerge engine (traced):");
    let outcome = med.query_rule(&q).unwrap();
    for (i, rule) in outcome.trace.rules.iter().enumerate() {
        println!("  rule R{}:", i + 1);
        for t in &rule.nodes {
            println!("    [{}] {} -> {} rows", t.op, t.detail, t.metrics.rows_out);
        }
    }
    println!("[ok] VE&AO -> cost-based optimizer -> datamerge engine (Fig 2.5)");
}

/// θ1 and R2 (§3.1–3.2): the unifier for Q1 and the logical datamerge rule.
fn theta1() {
    let med = paper_mediator_with(MediatorOptions {
        unify_mode: UnifyMode::Minimal,
        ..Default::default()
    });
    let q = msl::parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap();
    let program = med.expand(&q).unwrap();
    assert_eq!(program.len(), 1);
    println!("unifier θ1: {}", program.unifier_notes[0]);
    println!("logical datamerge rule (paper's R2):");
    println!("  {}", msl::printer::rule(&program.rules[0]));
    println!("[ok] one unifier: N ↦ 'Joe Chung' plus the JC ⇒ definition");
}

/// τ1/τ2 and Q3/Q4 (§3.3): pushdown into Rest1 or Rest2.
fn pushdown() {
    let med = paper_mediator_with(MediatorOptions {
        unify_mode: UnifyMode::Minimal,
        ..Default::default()
    });
    let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
    let program = med.expand(&q).unwrap();
    assert_eq!(program.len(), 2);
    for (i, (r, note)) in program.rules.iter().zip(&program.unifier_notes).enumerate() {
        println!("τ{} : {note}", i + 1);
        println!("(Q{}) {}", i + 3, msl::printer::rule(r));
    }
    println!("[ok] <year 3> pushes into Rest1 (whois) or Rest2 (cs): two rules");
}

/// Figure 3.6: the physical datamerge graph + the tables of a sample run.
fn fig36() {
    let med = MediatorSpec::parse("med", MS1).unwrap();
    let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
    let program = medmaker::veao::expand(&q, &med, UnifyMode::Minimal).unwrap();
    let reg = registry();
    let stats = StatsCache::new();
    let mut srcs: HashMap<oem::Symbol, Arc<dyn Wrapper>> = HashMap::new();
    srcs.insert(sym("whois"), Arc::new(whois_wrapper()));
    srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
    let options = PlannerOptions::default();
    let ctx = PlanContext {
        sources: &srcs,
        registry: &reg,
        stats: &stats,
        options: &options,
        analysis: None,
    };
    let physical = plan(&program, &ctx).unwrap();
    println!("{}", explain::render_plan(&physical));
    let outcome = execute(
        &physical,
        &srcs,
        &reg,
        &ExecOptions {
            trace: true,
            parallel: false,
            ..Default::default()
        },
    )
    .unwrap();
    println!("{}", explain::render_execution(&physical, &outcome));
    println!(
        "[ok] query -> extract -> decomp -> parameterized query -> construct, \
         with binding tables at every arc (Fig 3.6); the run returns Nick Naive"
    );
}

/// Schema retrieval: variables in label positions (§2 "Other Features").
fn schema_query() {
    let med = paper_mediator();
    let res = med
        .query_text("<view_label {<is L>}> :- <L {}>@med")
        .unwrap();
    print!("{}", print_store(&res));
    let whois = whois_wrapper();
    let q = msl::parse_query("<label {<is L>}> :- <person {<L V>}>@whois").unwrap();
    let res = whois.query(&q).unwrap();
    print!("{}", print_store(&res));
    println!("[ok] label variables retrieve schema information from views and sources");
}

/// Wildcards: any-depth search (§2 "Other Features").
fn wildcard() {
    let store = wrappers::workload::deep_store(3, 4);
    let src = wrappers::SemiStructuredWrapper::new("deep", store);
    let q = msl::parse_query("<hit {<y Y>}> :- <person {* <year Y>}>@deep").unwrap();
    let res = src.query(&q).unwrap();
    print!("{}", print_store(&res));
    println!("[ok] <year Y> found 4 levels deep without a path");
}

/// Semantic oids / object fusion (§2 "Other Features" + \[PGM\]).
fn fusion() {
    let spec = "\
<person_id(N) all_person {<name N> <src 'whois'> Rest}> :-
    <person {<name N> | Rest}>@whois
<person_id(N) all_person {<name N> <src 'cs'> <first FN> <last LN> Rest2}> :-
    <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN)

decomp(bound, free, free) by name_to_lnfn
decomp(free, bound, bound) by lnfn_to_name
";
    let med = Mediator::new(
        "m",
        spec,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        registry(),
    )
    .unwrap();
    let res = med.query_text("P :- P:<all_person {}>@m").unwrap();
    print!("{}", print_store(&res));
    assert_eq!(res.top_level().len(), 2, "Joe and Nick fuse across sources");
    println!(
        "[ok] the union view contains ONE object per person, fusing whois and cs \
         contributions via the semantic oid person_id(N) — fixing §2's 'apparent \
         limitation' (the intersection-only med view)"
    );
}

/// Recursive views (footnote 4).
fn recursion() {
    let mut s = oem::ObjectStore::new();
    for (of, is) in [("a", "b"), ("b", "c"), ("c", "d")] {
        oem::ObjectBuilder::set("parent")
            .atom("of", of)
            .atom("is", is)
            .build_top(&mut s);
    }
    let src: Arc<dyn Wrapper> = Arc::new(wrappers::SemiStructuredWrapper::new("src", s));
    let med = Mediator::new(
        "m",
        "<anc {<of X> <is Y>}> :- <parent {<of X> <is Y>}>@src\n\
         <anc {<of X> <is Z>}> :- <parent {<of X> <is Y>}>@src AND <anc {<of Y> <is Z>}>@m",
        vec![src],
        registry(),
    )
    .unwrap();
    let res = med.query_text("X :- X:<anc {}>@m").unwrap();
    print!("{}", print_store(&res));
    assert_eq!(res.top_level().len(), 6);
    println!("[ok] transitive closure of a 3-edge chain: 6 ancestor pairs (fixpoint)");
}

/// Duplicate elimination (footnote 9: MSL semantics require it; the
/// paper's own implementation lacked it — ours provides it).
fn dupelim() {
    let store = wrappers::workload::duplicated_store(3, 4);
    let src: Arc<dyn Wrapper> = Arc::new(wrappers::SemiStructuredWrapper::new("dups", store));
    let med = Mediator::new(
        "m",
        "<unique_person {<name N>}> :- <person {<name N>}>@dups",
        vec![src],
        registry(),
    )
    .unwrap();
    let res = med.query_text("P :- P:<unique_person {}>@m").unwrap();
    print!("{}", print_store(&res));
    assert_eq!(res.top_level().len(), 3);
    println!("[ok] 12 source objects (3 logical x 4 copies) -> 3 view objects");
}

/// Capability restrictions (§3.5): whois cannot evaluate 'year'.
fn capabilities() {
    let restricted_whois =
        whois_wrapper().with_capabilities(Capabilities::full().without_condition_on(sym("year")));
    let med = Mediator::new(
        "med",
        MS1,
        vec![Arc::new(restricted_whois), Arc::new(cs_wrapper())],
        registry(),
    )
    .unwrap()
    .with_options(MediatorOptions {
        trace: true,
        unify_mode: UnifyMode::Minimal,
        ..Default::default()
    });
    let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
    let outcome = med.query_rule(&q).unwrap();
    println!("result objects:");
    print!("{}", print_store(&outcome.results));
    assert_eq!(outcome.results.top_level().len(), 1);
    let filter_used = outcome.trace.nodes().any(|t| t.op == "filter");
    assert!(filter_used, "a client-side filter must appear in the trace");
    println!(
        "[ok] the year condition stayed in the mediator as a filter node; \
         the answer is unchanged"
    );
}

/// Learned statistics (§3.5): the optimizer builds its own statistics
/// database from the results of previous queries.
fn stats() {
    let med = paper_mediator();
    println!(
        "before any query: knows(whois) = {}",
        med.stats_snapshot().knows(sym("whois"))
    );
    med.query_text("P :- P:<cs_person {}>@med").unwrap();
    let snap = med.stats_snapshot();
    println!(
        "after one query:  knows(whois) = {}, observed person count = {}",
        snap.knows(sym("whois")),
        snap.base_count(sym("whois"), Some(sym("person")))
    );
    assert!(snap.knows(sym("whois")));
    println!("[ok] observations feed the optimizer's statistics cache");
}

/// EXPLAIN ANALYZE over the Figure 3.6 run: the paper annotates the arcs of
/// the datamerge graph with the binding tables that flowed; our instrumented
/// run annotates every node with its observed rows-in/rows-out, source
/// round-trips, and wall time, next to the optimizer's estimates.
fn analyze() {
    let med = paper_mediator_with(MediatorOptions {
        unify_mode: UnifyMode::Minimal,
        ..Default::default()
    });
    let (report, trace) = med
        .explain_analyze("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        .unwrap();
    print!("{report}");
    assert_eq!(trace.result_count, 1);
    // The single chain narrows to one row: the outer cs fetch finds both
    // people, decomp + the name condition keep Joe Chung, and every node
    // after that flows exactly one row into the constructor.
    let nodes: Vec<_> = trace.nodes().collect();
    assert_eq!(nodes.first().unwrap().metrics.rows_out, 2, "{nodes:?}");
    assert!(
        nodes.iter().skip(1).all(|n| n.metrics.rows_out == 1),
        "{nodes:?}"
    );
    assert_eq!(trace.calls(sym("whois")), 1);
    assert_eq!(trace.calls(sym("cs")), 1);
    println!("wrapper-side counters:");
    for (name, m) in med.wrapper_metrics() {
        println!(
            "  {name}: {} queries, {} objects exported, {} capability rejections",
            m.queries_received, m.objects_exported, m.capability_rejections
        );
    }
    println!("[ok] every node annotated with observed cardinality and timing");
}

/// Chains the sources' own schemas prove empty: VE&AO (§3.2) rewrites a
/// name lookup into one rule per place the condition can land — MS1's head,
/// whois's `Rest1`, cs's `Rest2`. cs exports rows whose subobjects are
/// exactly its columns, none of them `name` (§2); no whois person holds a
/// second `name` for `Rest1` to find past the one `<name N>` took. The
/// planner drops both rules before any source is called. Counted against
/// the same mediator with pruning off (statistics not learned, so both plan
/// alike): fewer round-trips, the same bytes.
fn prune() {
    use wrappers::workload::PersonWorkload;
    let build = |prune_infeasible: bool| {
        let (whois, cs) = PersonWorkload::sized(200).build();
        Mediator::new_with_options(
            "med",
            MS1,
            vec![Arc::new(whois), Arc::new(cs)],
            registry(),
            MediatorOptions {
                planner: PlannerOptions {
                    prune_infeasible,
                    ..Default::default()
                },
                learn_stats: false,
                ..Default::default()
            },
        )
        .unwrap()
    };
    // Per source, in name order: (round-trips, objects exported).
    let traffic = |med: &Mediator| -> Vec<(usize, usize)> {
        med.wrapper_metrics()
            .into_iter()
            .map(|(_, m)| (m.queries_received, m.objects_exported))
            .collect()
    };
    // (name, answers, [cs, whois] traffic pruning on, the same pruning off):
    // the dead chains ask cs once and whois once, and neither has anything
    // for them.
    let expected = [
        (
            "Joe Chung".to_string(),
            0,
            [(0, 0), (1, 0)],
            [(1, 0), (2, 0)],
        ),
        (
            PersonWorkload::full_name_of(3),
            1,
            [(1, 200), (1, 1)],
            [(2, 200), (2, 1)],
        ),
    ];
    let reasons = [
        "source 'whois' holds at most one 'name' under 'person', and the pattern already \
         matches it",
        "source 'cs' produces no subobject labeled 'name' here",
    ];
    for (name, answers, with, without) in expected {
        let text = format!("P :- P:<cs_person {{<name '{name}'>}}>@med");
        let (on, off) = (build(true), build(false));
        let q = msl::parse_query(&text).unwrap();
        assert_eq!(on.expand(&q).unwrap().rules.len(), 3, "{text}");
        let explained = on.explain_text(&text, false).unwrap();
        let pruned: Vec<&str> = explained
            .lines()
            .filter_map(|l| l.trim().strip_prefix("[pruned] "))
            .collect();
        assert_eq!(pruned, reasons, "{explained}");
        let (a, b) = (on.query_rule(&q).unwrap(), off.query_rule(&q).unwrap());
        assert_eq!(
            print_store(&a.results),
            print_store(&b.results),
            "{text}: byte-identical answers"
        );
        assert_eq!(a.results.top_level().len(), answers, "{text}");
        assert_eq!((a.trace.rules.len(), b.trace.rules.len()), (1, 3));
        assert_eq!(
            (traffic(&on), traffic(&off)),
            (with.to_vec(), without.to_vec())
        );
        println!("{text}: 3 rules, 2 pruned, {answers} object(s)");
        for reason in &pruned {
            println!("  pruned: {reason}");
        }
        println!(
            "  (round-trips, objects exported) cs, whois: pruning on {with:?}, off {without:?}"
        );
    }
    println!(
        "[ok] the rules asking cs for a `name` column and whois for a second `name` \
         are pruned before any source is called; one cs and one whois round-trip \
         fewer, byte-identical answers"
    );
}

/// Fault tolerance: the Figure 3.6 scenario re-run with the whois source
/// down. Fail mode reports the dead source as an error; `--partial` mode
/// degrades — rule chains that need whois are dropped and the cs-side
/// answer still comes back, annotated incomplete. A third run shows the
/// retry policy riding out a flaky source (all on virtual time: no sleeps).
fn faults() {
    use medmaker::{FaultOptions, OnSourceFailure, RetryPolicy};
    use wrappers::fault::{FaultInjectingWrapper, FaultPlan};

    // The fusion union view (one rule per source) is where degradation is
    // visible: with whois dead, the cs rule alone still answers.
    let union_spec = "\
<person_id(N) all_person {<name N> <src 'whois'> Rest}> :-
    <person {<name N> | Rest}>@whois
<person_id(N) all_person {<name N> <src 'cs'> <first FN> <last LN> Rest2}> :-
    <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN)

decomp(bound, free, free) by name_to_lnfn
decomp(free, bound, bound) by lnfn_to_name
";
    let build = |plan: FaultPlan, fault: FaultOptions| {
        let whois: Arc<dyn Wrapper> =
            Arc::new(FaultInjectingWrapper::new(Arc::new(whois_wrapper()), plan));
        Mediator::new(
            "m",
            union_spec,
            vec![whois, Arc::new(cs_wrapper())],
            registry(),
        )
        .unwrap()
        .with_options(MediatorOptions {
            trace: true,
            fault,
            ..Default::default()
        })
    };
    let q = msl::parse_query("P :- P:<all_person {}>@m").unwrap();

    println!("whois down, fail mode (the default): the query fails closed");
    let med = build(FaultPlan::always_down(), FaultOptions::default());
    let err = med.query_rule(&q).err().expect("dead source must error");
    println!("  error: {err}");
    assert!(matches!(err, medmaker::MedError::SourceUnavailable { .. }));

    println!("whois down, --partial: the cs side of the union still answers");
    let med = build(
        FaultPlan::always_down(),
        FaultOptions {
            on_source_failure: OnSourceFailure::Partial,
            ..Default::default()
        },
    );
    let outcome = med.query_rule(&q).unwrap();
    print!("{}", print_store(&outcome.results));
    assert_eq!(
        outcome.results.top_level().len(),
        2,
        "Joe and Nick from cs alone"
    );
    let printed = print_store(&outcome.results);
    assert!(printed.contains("'cs'"), "cs contributions survive");
    assert!(!printed.contains("'whois'"), "no whois contribution");
    let c = &outcome.trace.completeness;
    assert!(!c.is_complete());
    assert!(c.sources_failed.contains_key(&sym("whois")));
    println!(
        "  completeness: PARTIAL — failed: {:?}, {} chain(s) dropped",
        c.sources_failed.keys().collect::<Vec<_>>(),
        c.skipped_chains.len()
    );

    println!("whois flaky (first 2 calls fail), --retries 3: full answer returns");
    let clock = Arc::new(wrappers::fault::VirtualClock::new());
    let med = build(
        FaultPlan::none().fail_first(2),
        FaultOptions {
            retry: RetryPolicy::retries(3),
            ..Default::default()
        }
        .on_virtual_time(clock),
    );
    let outcome = med.query_rule(&q).unwrap();
    assert_eq!(outcome.results.top_level().len(), 2, "fused answer is back");
    assert!(outcome.trace.completeness.is_complete());
    assert_eq!(outcome.trace.retries_for(sym("whois")), 2);
    println!(
        "  retries: whois={}, failed attempts: whois={} (virtual time, no sleeping)",
        outcome.trace.retries_for(sym("whois")),
        outcome.trace.failures_for(sym("whois"))
    );
    println!(
        "[ok] fail mode surfaces the dead source; --partial degrades to the \
         cs-only answer with the trace naming what's missing; bounded retry \
         rides out transient faults"
    );
}

/// Source-answer cache: the Figure 3.6 workload replayed N times against
/// twin mediators — cache off (the seed behavior: every iteration pays
/// full round-trips) and cache on (iteration 1 fills the cache, every
/// later iteration is answered without touching a source). Also shows a
/// containment hit: a name-pinned query served by locally filtering the
/// cached answer to the broad view query — and that such a probe examines
/// as many cached objects as it returns, at either of two table sizes.
fn cache() {
    use medmaker::CacheOptions;

    const N: usize = 10;
    let opts = |cache: CacheOptions| MediatorOptions {
        // A frozen plan across iterations makes round-trip counts
        // comparable; Minimal mode is the paper's Fig 3.6 presentation.
        learn_stats: false,
        unify_mode: UnifyMode::Minimal,
        cache,
        ..Default::default()
    };
    let off = paper_mediator_with(opts(CacheOptions::default()));
    let on = paper_mediator_with(opts(CacheOptions::enabled()));
    let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();

    let mut calls_off = Vec::new();
    let mut calls_on = Vec::new();
    for i in 0..N {
        let a = off.query_rule(&q).unwrap();
        let b = on.query_rule(&q).unwrap();
        assert_eq!(
            print_store(&a.results),
            print_store(&b.results),
            "iteration {i}: cache-on answer must be byte-identical"
        );
        calls_off.push(a.trace.total_source_calls());
        calls_on.push(b.trace.total_source_calls());
    }
    println!("round-trips per iteration, cache off: {calls_off:?}");
    println!("round-trips per iteration, cache on:  {calls_on:?}");
    assert!(calls_on[0] > 0, "iteration 1 must pay the cold round-trips");
    assert!(
        calls_on.iter().skip(1).all(|&c| c == 0),
        "iterations 2..N are served entirely from the cache: {calls_on:?}"
    );
    let total_off: usize = calls_off.iter().sum();
    let total_on: usize = calls_on.iter().sum();
    assert!(
        total_off >= 5 * total_on,
        "expected >=5x round-trip reduction, got {total_off} vs {total_on}"
    );

    // Containment: warm with the broad view query, then pin the name —
    // the narrower answer is filtered locally from the cached broad one.
    // Fetch-all plans keep whois an outer (pushdown) query: with bind
    // joins the pinned query collapses to an exact repeat instead.
    let med = paper_mediator_with(MediatorOptions {
        planner: PlannerOptions {
            prefer_bind_join: Some(false),
            ..Default::default()
        },
        ..opts(CacheOptions::enabled())
    });
    med.query_text("P :- P:<cs_person {}>@med").unwrap();
    let narrow = med
        .query_rule(&msl::parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap())
        .unwrap();
    let containment = narrow
        .trace
        .containment_hits
        .get(&sym("whois"))
        .copied()
        .unwrap_or(0);
    assert_eq!(narrow.trace.calls(sym("whois")), 0, "no whois round-trip");
    assert!(containment >= 1, "{:?}", narrow.trace.containment_hits);
    println!(
        "containment: name-pinned query served from the broad cached answer \
         ({containment} containment hit(s), 0 whois round-trips)"
    );

    // Shape: a pinned containment hit costs what it returns, not what the
    // entry holds. The whole person table is cached at two sizes; the
    // same PROBES name-pinned queries are then answered from it. The
    // first builds the entry's index over every object, each later one
    // looks at the object it returns — the same count at both sizes.
    const PEOPLE: usize = 100;
    const PROBES: usize = 50;
    let mut per_probe = Vec::new();
    for size in [PEOPLE, 2 * PEOPLE] {
        let build = |cache: CacheOptions| {
            let (whois, _) = wrappers::workload::PersonWorkload::sized(size).build();
            Mediator::new(
                "m",
                "<p {<n N> <r R>}> :- <person {<name N> <relation R>}>@whois",
                vec![Arc::new(whois)],
                registry(),
            )
            .unwrap()
            .with_options(opts(cache))
        };
        let (off, on) = (
            build(CacheOptions::default()),
            build(CacheOptions::enabled()),
        );
        let table = on.query_text("X :- X:<p {}>@m").unwrap();
        assert_eq!(table.top_level().len(), size);
        let probe = |i: usize| {
            let name = wrappers::workload::PersonWorkload::full_name_of(i);
            let q = msl::parse_query(&format!("X :- X:<p {{<n '{name}'>}}>@m")).unwrap();
            let served = on.query_rule(&q).unwrap();
            assert_eq!(
                served.trace.total_source_calls(),
                0,
                "{name}: no round-trip"
            );
            assert_eq!(
                print_store(&served.results),
                print_store(&off.query_rule(&q).unwrap().results),
                "{name}: byte-identical to the cache-off twin"
            );
        };
        let examined = || on.cache_counters().objects_examined;
        probe(size - 1);
        let built = examined();
        assert!(built >= size, "the first pinned probe indexes the entry");
        for i in 0..PROBES {
            probe(i);
        }
        let c = on.cache_counters();
        assert_eq!((c.containment_hits, c.misses), (PROBES + 1, 1));
        println!(
            "pinned probes over a cached table of {size}: the first examined {built} objects \
             (index build), the next {PROBES} examined {} in all",
            examined() - built
        );
        per_probe.push((examined() - built) as f64 / PROBES as f64);
    }
    assert_eq!(
        per_probe[0], per_probe[1],
        "objects examined per pinned probe must not grow with the entry"
    );
    assert!(per_probe[0] <= 2.0, "{per_probe:?}");

    println!(
        "[ok] repeated Fig 3.6 workload collapses from {total_off} to {total_on} \
         source round-trips ({:.1}x) with byte-identical answers; a pinned \
         containment probe examines {} object(s) whether the cached table \
         holds {PEOPLE} or {}",
        total_off as f64 / total_on as f64,
        per_probe[0],
        2 * PEOPLE
    );
}

/// Tiered persistent answer cache, four scenarios.
///
/// 1. **Restart warmth** — the Fig 3.6 workload across 10 process
///    "restarts" (a fresh mediator per restart). Memory-only caching
///    pays the cold round-trips on every restart; with `--cache-dir`
///    only the first restart touches a source — everything after is
///    served from the warm tier on disk (>=5x fewer round-trips).
/// 2. **Cost-aware eviction** — a capacity-constrained hot tier (2
///    slots, 4 distinct queries) under a skewed access pattern:
///    cost-aware keeps the frequently-hit entry resident and pays
///    strictly fewer source calls than oldest-first eviction did on the
///    same workload (that count is a literal below; the FIFO policy
///    itself is retired).
/// 3. **Scoped delta selectivity** — a label-scoped `SourceDelta`
///    invalidates only the cached answers whose label footprint
///    intersects it; sibling entries over the same source keep serving.
/// 4. **Byte identity** — the same query answered through
///    tiers-on/tiers-off x unbounded/default batch x parallel returns
///    byte-identical stores, warm-tier round-trips included.
fn cache_tiered() {
    use medmaker::{CacheOptions, SourceDelta};
    use std::path::PathBuf;
    use wrappers::workload::PersonWorkload;

    const RESTARTS: usize = 10;
    const Q: &str = "S :- S:<cs_person {<year 3>}>@med";
    let dir = std::env::temp_dir().join(format!("medmaker-bench-tiered-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let tiered_opts = |cache_dir: Option<PathBuf>, capacity: usize| MediatorOptions {
        learn_stats: false,
        unify_mode: UnifyMode::Minimal,
        cache: CacheOptions {
            enabled: true,
            capacity,
            cache_dir,
            ..Default::default()
        },
        ..Default::default()
    };

    // 1 — restart warmth. Each iteration is one process lifetime: build
    // a mediator, answer the Fig 3.6 query, exit. The memory-only twin
    // forgets everything at every restart; the tiered twin reopens the
    // warm directory and never touches a source again.
    let q = msl::parse_query(Q).unwrap();
    let mut cold_calls = Vec::new();
    let mut warm_calls = Vec::new();
    let mut expected = String::new();
    for restart in 0..RESTARTS {
        let cold = paper_mediator_with(tiered_opts(None, 64));
        let warm = paper_mediator_with(tiered_opts(Some(dir.clone()), 64));
        let a = cold.query_rule(&q).unwrap();
        let b = warm.query_rule(&q).unwrap();
        assert_eq!(
            print_store(&a.results),
            print_store(&b.results),
            "restart {restart}: warm-tier answer must be byte-identical"
        );
        expected = print_store(&a.results);
        cold_calls.push(a.trace.total_source_calls());
        warm_calls.push(b.trace.total_source_calls());
    }
    let cold_total: usize = cold_calls.iter().sum();
    let warm_total: usize = warm_calls.iter().sum();
    println!("round-trips per restart, memory-only: {cold_calls:?}");
    println!("round-trips per restart, --cache-dir: {warm_calls:?}");
    assert!(
        warm_calls.iter().skip(1).all(|&c| c == 0),
        "restarts 2..N must be served from the warm tier: {warm_calls:?}"
    );
    assert!(
        cold_total >= 5 * warm_total,
        "expected >=5x fewer round-trips across restarts, got {cold_total} vs {warm_total}"
    );
    // Deterministic counts, 30 -> 3, as PR 10 measured them.
    assert!(
        warm_total <= 3,
        "warm-restart round-trips {warm_total} regressed past 3 (cold {cold_total})"
    );
    let reduction = cold_total as f64 / warm_total.max(1) as f64;

    // 2 — cost-aware eviction under capacity-constrained skew. Four
    // name-pinned queries compete for a 2-slot hot shard; query A is
    // touched every other access. Cost-aware eviction learns A's hit
    // rate and keeps it resident; oldest-first evicted it whenever it was
    // oldest and paid 18 source calls on this workload — PR 10's
    // measurement of the FIFO policy, which PR 14 retired.
    const OLDEST_FIRST_CALLS: usize = 18;
    let names: Vec<String> = (0..4).map(PersonWorkload::full_name_of).collect();
    let skewed: Vec<&str> = (0..12)
        .flat_map(|round| [names[0].as_str(), names[1 + round % 3].as_str()])
        .collect();
    let (whois, _) = PersonWorkload::sized(8).build();
    let eviction_med = Mediator::new(
        "m",
        "<p {<n N> <r R>}> :- <person {<name N> <relation R>}>@whois",
        vec![Arc::new(whois)],
        registry(),
    )
    .unwrap()
    .with_options(tiered_opts(None, 2));
    let mut cost_aware_calls = 0;
    for name in &skewed {
        let rule = msl::parse_query(&format!("X :- X:<p {{<n '{name}'>}}>@m")).unwrap();
        let out = eviction_med.query_rule(&rule).unwrap();
        assert_eq!(out.results.top_level().len(), 1, "{name} must resolve");
        cost_aware_calls += out.trace.total_source_calls();
    }
    println!(
        "skewed workload ({} accesses, capacity 2): cost-aware {cost_aware_calls} \
         source calls, oldest-first paid {OLDEST_FIRST_CALLS}",
        skewed.len()
    );
    assert!(
        cost_aware_calls < OLDEST_FIRST_CALLS,
        "cost-aware eviction must beat the recorded oldest-first count on \
         skew: {cost_aware_calls} vs {OLDEST_FIRST_CALLS}"
    );
    // 13 is what cost-aware eviction paid when PR 10 introduced it.
    assert!(
        cost_aware_calls <= 13,
        "cost-aware source calls {cost_aware_calls} regressed past 13"
    );

    // 3 — scoped delta selectivity. Two views over whois with disjoint
    // label footprints (no rest variables, so no wildcard): a delta
    // scoped to <dept> drops only the dept-reading entry.
    let med = Mediator::new(
        "m",
        "<by_dept {<n N> <d D>}> :- <person {<name N> <dept D>}>@whois\n\
         <by_rel {<n N> <r R>}> :- <person {<name N> <relation R>}>@whois",
        vec![Arc::new(whois_wrapper())],
        registry(),
    )
    .unwrap()
    .with_options(tiered_opts(None, 64));
    let dept_q = msl::parse_query("X :- X:<by_dept {}>@m").unwrap();
    let rel_q = msl::parse_query("X :- X:<by_rel {}>@m").unwrap();
    med.query_rule(&dept_q).unwrap();
    med.query_rule(&rel_q).unwrap();
    let invalidated = med.apply_delta(&SourceDelta::labels(sym("whois"), [sym("dept")]));
    let dept_again = med.query_rule(&dept_q).unwrap();
    let rel_again = med.query_rule(&rel_q).unwrap();
    println!(
        "label-scoped delta <dept>@whois: {invalidated} entry dropped; re-run \
         round-trips: by_dept {} (refetch), by_rel {} (still cached)",
        dept_again.trace.total_source_calls(),
        rel_again.trace.total_source_calls()
    );
    assert_eq!(invalidated, 1, "exactly the dept-reading entry drops");
    assert!(
        dept_again.trace.total_source_calls() > 0,
        "scoped view refetches"
    );
    assert_eq!(
        rel_again.trace.total_source_calls(),
        0,
        "the sibling entry must keep serving"
    );

    // 4 — byte identity across execution modes, warm tier included. The
    // tiered runs reuse the restart directory, so the second one answers
    // from disk.
    let modes: Vec<(&str, MediatorOptions)> = vec![
        (
            "tiers-off unbounded batch",
            MediatorOptions {
                learn_stats: false,
                unify_mode: UnifyMode::Minimal,
                batch_size: usize::MAX,
                ..Default::default()
            },
        ),
        (
            "tiers-off",
            MediatorOptions {
                learn_stats: false,
                unify_mode: UnifyMode::Minimal,
                ..Default::default()
            },
        ),
        (
            "tiered unbounded batch",
            MediatorOptions {
                batch_size: usize::MAX,
                ..tiered_opts(Some(dir.clone()), 64)
            },
        ),
        ("tiered (warm)", tiered_opts(Some(dir.clone()), 64)),
        (
            "tiered parallel",
            MediatorOptions {
                parallel: true,
                ..tiered_opts(Some(dir.clone()), 64)
            },
        ),
    ];
    for (label, options) in modes {
        let med = paper_mediator_with(options);
        let out = med.query_rule(&q).unwrap();
        assert_eq!(
            print_store(&out.results),
            expected,
            "{label}: answer must be byte-identical"
        );
    }
    println!("byte identity: 5 execution modes returned the same store");

    std::fs::remove_dir_all(&dir).ok();
    println!(
        "[ok] warm restarts cut {cold_total} round-trips to {warm_total} \
         ({reduction:.1}x); cost-aware eviction paid {cost_aware_calls} source \
         calls on skew; a <dept>-scoped delta dropped exactly 1 entry"
    );
}

/// The cost model's cardinality drift on three pinned workloads — the
/// Fig 3.6 replay, a flaky-whois run (injected latency and periodic
/// failures, retried on virtual time) and a fully-cached replay — each
/// run by one mediator. Scores `mean |log2((rows_out+1)/(est+1))|` over
/// every estimated plan node; the drift must stay within what PR 9
/// measured for the model.
fn cost() {
    use medmaker::metrics::QueryTrace;
    use medmaker::{CacheOptions, FaultOptions, RetryPolicy};
    use wrappers::fault::{FaultInjectingWrapper, FaultPlan, VirtualClock};

    // Mean absolute log2 cardinality drift across a trace's estimated
    // nodes (sentinel and filter-only estimates excluded by
    // `has_estimate`). +1 keeps empty tables finite.
    fn node_drifts(trace: &QueryTrace) -> Vec<f64> {
        trace
            .rules
            .iter()
            .flat_map(|r| &r.nodes)
            .filter(|n| n.metrics.has_estimate())
            .map(|n| {
                ((n.metrics.rows_out as f64 + 1.0) / (n.metrics.est_rows + 1.0))
                    .log2()
                    .abs()
            })
            .collect()
    }
    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    }

    let base_opts = || MediatorOptions {
        trace: true,
        unify_mode: UnifyMode::Minimal,
        ..Default::default()
    };
    // Fresh mediator per workload: each lives with its own feedback loop.
    let build = |workload: &str| -> Mediator {
        match workload {
            "fig36" => paper_mediator_with(base_opts()),
            "fault" => {
                let clock = Arc::new(VirtualClock::new());
                let whois: Arc<dyn Wrapper> = Arc::new(
                    FaultInjectingWrapper::new(
                        Arc::new(whois_wrapper()),
                        FaultPlan::none().fail_every(3).latency_ms(5),
                    )
                    .with_virtual_clock(clock.clone()),
                );
                Mediator::new("med", MS1, vec![whois, Arc::new(cs_wrapper())], registry())
                    .unwrap()
                    .with_options(MediatorOptions {
                        fault: FaultOptions {
                            retry: RetryPolicy::retries(3),
                            ..Default::default()
                        }
                        .on_virtual_time(clock),
                        ..base_opts()
                    })
            }
            "cache" => paper_mediator_with(MediatorOptions {
                cache: CacheOptions::enabled(),
                ..base_opts()
            }),
            other => panic!("unknown workload {other}"),
        }
    };
    // Pinned query mixes. Each repeats so the §3.5 feedback loop has
    // observations to converge on; the cache workload is 100% hits from
    // iteration 2 on (cardinality learning must continue regardless).
    let queries: Vec<&str> = vec![
        "S :- S:<cs_person {<year 3>}>@med",
        "P :- P:<cs_person {}>@med",
        "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
        "S :- S:<cs_person {<year 3>}>@med",
        "P :- P:<cs_person {}>@med",
        "S :- S:<cs_person {<year 3>}>@med",
    ];

    for workload in ["fig36", "fault", "cache"] {
        let med = build(workload);
        let mut drift = Vec::new();
        for q in &queries {
            let out = med.query_rule(&msl::parse_query(q).unwrap()).unwrap();
            drift.extend(node_drifts(&out.trace));
        }
        let m = mean(&drift);
        println!(
            "{workload:>6}: mean |log2 drift| {m:.3}  ({} estimated nodes)",
            drift.len()
        );
        // Drift is deterministic: PR 9 measured 0.6034 on all three
        // workloads; the gate is that number rounded up.
        assert!(m <= 0.61, "{workload}: drift {m:.3} regressed past 0.61");
    }
    println!("[ok] cost-model drift stays within 0.61 on all three workloads");
}

/// Bounded batches against slow sources: an open scan over the scaled
/// person view with 2 ms injected latency per round-trip on *both*
/// sources (the shape of real network wrappers), so whichever source the
/// optimizer puts on the inner side of the bind join pays it.
///
/// Two runs against sources that take one value per parameter (§3.4's
/// node: one query per binding tuple) show pipelining. With an unbounded
/// batch every operator hands on its whole table, so the first answer
/// arrives with the last round-trip; with a batch of 32 the pipeline
/// surfaces the first rows after about one batch of round-trips and no
/// operator holds more than one batch.
///
/// Two more against sources that accept value sets show what a
/// round-trip then carries: each refill of the parameterized node sends
/// its distinct tuples in one call, so 400 tuples cost 1 call unbounded
/// and ceil(400 / 32) = 13 at batch 32 — and the answers are the bytes
/// the per-tuple runs printed.
///
/// This is the one experiment that reads a clock, because what it times
/// is sleep it injected itself (at least 802 of some 866 ms per per-tuple
/// run), not the host: `wall >= source_calls x 2 ms`, the first answer at
/// least 2x sooner at batch 32, and peak resident 32 against 400 rows. The
/// host's speed is `BENCHMARK.json`'s (`exec.first_rows_ms`,
/// `exec.peak_batch_rows`).
fn streaming() {
    use std::time::Instant;
    use wrappers::fault::{FaultInjectingWrapper, FaultPlan};
    use wrappers::workload::PersonWorkload;

    const N: usize = 400;
    const LATENCY_MS: u64 = 2;
    const BATCH: usize = 32;
    let build = |batch_size: usize, value_sets: bool| {
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
        Mediator::new(
            "med",
            MS1,
            vec![slow(Arc::new(whois)), slow(Arc::new(cs))],
            registry(),
        )
        .unwrap()
        .with_options(MediatorOptions {
            planner: PlannerOptions {
                // Bind joins make the inner source a parameterized
                // query: per tuple the latency cost is proportional to
                // the rows consumed, so pipelining is visible in
                // time-to-first-answer.
                prefer_bind_join: Some(true),
                ..Default::default()
            },
            batch_size,
            learn_stats: false,
            ..Default::default()
        })
    };
    let q = msl::parse_query("P :- P:<cs_person {}>@med").unwrap();

    let run = |label: &str, batch_size: usize, value_sets: bool| {
        let med = build(batch_size, value_sets);
        let start = Instant::now();
        let outcome = med.query_rule(&q).unwrap();
        let wall = start.elapsed();
        let calls = outcome.trace.total_source_calls();
        let per_source: Vec<String> = outcome
            .trace
            .source_calls
            .iter()
            .map(|(s, n)| format!("{s}: {n}"))
            .collect();
        println!(
            "{label}: wall {:.1} ms, first answer {:.1} ms, peak {} rows \
             (~{} bytes), {calls} source round-trips ({})",
            wall.as_secs_f64() * 1e3,
            outcome.trace.first_rows_ns as f64 / 1e6,
            outcome.trace.peak_batch_rows,
            outcome.trace.peak_bytes_resident,
            per_source.join(", ")
        );
        // Every round-trip really waited: if the plan stops calling the
        // slow side as often as it reports, the latency floor gives it away.
        assert!(
            wall.as_millis() as u64 >= calls as u64 * LATENCY_MS,
            "{label}: {calls} round-trips at {LATENCY_MS} ms each cannot \
             finish in {} ms",
            wall.as_millis()
        );
        outcome
    };
    let unbounded = run("one tuple a call, unbounded batch", usize::MAX, false);
    let bounded = run("one tuple a call, batch 32       ", BATCH, false);
    let sets_unbounded = run("value sets, unbounded batch      ", usize::MAX, true);
    let sets_bounded = run("value sets, batch 32             ", BATCH, true);

    let answer = print_store(&unbounded.results);
    for other in [&bounded, &sets_unbounded, &sets_bounded] {
        assert_eq!(
            print_store(&other.results),
            answer,
            "neither the batch size nor what a call carries may change the answer"
        );
    }
    let calls = bounded.trace.total_source_calls();
    assert_eq!(calls, unbounded.trace.total_source_calls());
    assert!(
        calls > N / 2,
        "the per-tuple side must be called per tuple, got {calls} round-trips"
    );
    assert!(unbounded.trace.first_rows_ns > 0 && bounded.trace.first_rows_ns > 0);
    let speedup = unbounded.trace.first_rows_ns as f64 / bounded.trace.first_rows_ns as f64;
    assert!(
        speedup >= 2.0,
        "expected >=2x time-to-first-answer, got {speedup:.2}x \
         ({} ns vs {} ns)",
        unbounded.trace.first_rows_ns,
        bounded.trace.first_rows_ns
    );
    for b in [&bounded, &sets_bounded] {
        assert!(
            b.trace.peak_batch_rows <= BATCH,
            "no operator may hold more than one batch: peak {}",
            b.trace.peak_batch_rows
        );
    }
    assert!(
        unbounded.trace.peak_batch_rows >= 4 * bounded.trace.peak_batch_rows,
        "an unbounded batch holds whole tables ({} rows) — the bounded \
         peak {} should be far below",
        unbounded.trace.peak_batch_rows,
        bounded.trace.peak_batch_rows
    );
    // One call for the outer side, one per refill of the inner.
    assert_eq!(sets_unbounded.trace.total_source_calls(), 2);
    assert_eq!(
        sets_bounded.trace.total_source_calls(),
        1 + N.div_ceil(BATCH)
    );

    println!(
        "[ok] first answer {speedup:.1}x sooner at batch {BATCH}; peak resident \
         {} rows vs {} unbounded; {calls} round-trips become {} with value sets \
         ({} unbounded), byte-identical answers",
        bounded.trace.peak_batch_rows,
        unbounded.trace.peak_batch_rows,
        sets_bounded.trace.total_source_calls(),
        sets_unbounded.trace.total_source_calls()
    );
}

/// The resident server vs per-process mediation: the Fig 3.6 workload
/// repeated x10. A one-shot CLI run pays spec parse + lint + analysis +
/// a cold cache on every query; `medmaker serve` pays them once, so
/// iterations 2..N are served from the resident answer cache with zero
/// source round-trips — over a real loopback socket, full wire protocol
/// included. Counts only: what a served query costs in time is the
/// `served_http` workload of `BENCHMARK.json`.
fn serve() {
    use medmaker::CacheOptions;
    use medmaker_server::{Server, ServerOptions};
    use serde::Value;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    const N: usize = 10;
    const Q: &str = "S :- S:<cs_person {<year 3>}>@med";
    let opts = || MediatorOptions {
        learn_stats: false,
        unify_mode: UnifyMode::Minimal,
        cache: CacheOptions::enabled(),
        ..Default::default()
    };

    // Per-process baseline: a fresh mediator per query, the way one-shot
    // CLI runs work. Every iteration repeats construction and the cold
    // round-trips.
    let q = msl::parse_query(Q).unwrap();
    let mut oneshot_calls = Vec::new();
    let mut expected = String::new();
    for _ in 0..N {
        let med = paper_mediator_with(opts());
        let out = med.query_rule(&q).unwrap();
        oneshot_calls.push(out.trace.total_source_calls());
        expected = print_store(&out.results);
    }

    // Resident server: one mediator behind `medmaker serve`, queried over
    // a real loopback connection with the HTTP wire protocol.
    let handle = Server::start(
        Arc::new(paper_mediator_with(opts())),
        ServerOptions::default(),
    )
    .unwrap();
    let body = format!("{{\"query\": \"{Q}\"}}");
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for i in 0..N {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "iteration {i}: {reply}");
        // The served bytes must match the one-shot runs exactly.
        let body = reply.split_once("\r\n\r\n").unwrap().1;
        let v: Value = serde_json::from_str(body.trim()).unwrap();
        let answer = v.get("answer").and_then(|a| a.as_str()).unwrap();
        assert_eq!(answer, expected, "iteration {i}: resident answer drifted");
    }
    let service = Arc::clone(handle.service());
    let executions = service.metrics().executions();
    // Every request after the first is answered from the resident cache:
    // N requests, but cold source traffic only once.
    let cache = service.mediator().cache_counters();
    handle.shutdown();

    let total_oneshot: usize = oneshot_calls.iter().sum();
    println!("one-shot: {total_oneshot} source round-trips");
    println!(
        "resident: {executions} executions, {} cache hits",
        cache.hits
    );
    assert_eq!(
        executions as usize, N,
        "every request executes (sequential arrivals never coalesce)"
    );
    assert!(
        cache.hits as usize >= N - 1,
        "iterations 2..N must be served from the resident cache: {} hits",
        cache.hits
    );
    assert!(
        total_oneshot >= N * oneshot_calls[0],
        "every one-shot run pays cold round-trips"
    );
    println!(
        "[ok] resident serve amortizes startup and source round-trips: \
         {total_oneshot} one-shot round-trips vs cold-once resident ({} cache hits)",
        cache.hits
    );
}
