//! `experiments` — regenerates every figure and worked artifact of the
//! MedMaker paper (see DESIGN.md §3 for the index and EXPERIMENTS.md for
//! the recorded outcomes) and asserts each one in counts: objects, rows,
//! source round-trips, byte identity. It writes no file and reads no
//! clock: time is `BENCHMARK.json`'s to measure.
//!
//! Usage: `cargo run -p medmaker-bench --bin experiments -- <id|all>`
//! where `<id>` is one of: architecture fig22 fig23 ms1 bindings fig24
//! pipeline theta1 pushdown fig36 schema_query wildcard fusion recursion
//! dupelim capabilities stats analyze prune lorel

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
    println!("unifier θ1: {}", program.unifier_note(0));
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
    for (i, r) in program.rules.iter().enumerate() {
        println!("τ{} : {}", i + 1, program.unifier_note(i));
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
    // The single chain is one row from end to end: decomp turns the
    // constant name into cs's first and last name before any source is
    // asked, the cs query they bind finds Joe Chung alone, and every node
    // after it flows exactly that row into the constructor.
    let nodes: Vec<_> = trace.nodes().collect();
    assert_eq!(nodes.first().unwrap().op, "external pred", "{nodes:?}");
    assert!(nodes.iter().all(|n| n.metrics.rows_out == 1), "{nodes:?}");
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
            [(1, 0), (0, 0)],
            [(2, 0), (1, 0)],
        ),
        (
            PersonWorkload::full_name_of(3),
            1,
            [(1, 1), (1, 1)],
            [(2, 1), (2, 1)],
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
