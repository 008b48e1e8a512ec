//! Plan and execution rendering — regenerates the paper's Figure 3.6
//! presentation: the physical datamerge graph with the tables that flowed
//! during a sample run.

use crate::exec::ExecOutcome;
use crate::graph::{Node, PhysicalPlan};
use crate::logical::LogicalProgram;
use oem::Symbol;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Render a logical program the way §3.2 presents it.
pub fn render_logical(program: &LogicalProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Logical datamerge program ({} rules):", program.len());
    for (i, (r, note)) in program.rules.iter().zip(&program.unifier_notes).enumerate() {
        let _ = writeln!(out, "  (R{}) {}", i + 1, msl::printer::rule(r));
        if !note.is_empty() {
            let _ = writeln!(out, "       unifier: {note}");
        }
    }
    out
}

/// Render a physical plan as a per-rule chain of operators (Figure 3.6's
/// graph, flattened), then one `[pruned]` line per chain the analysis
/// proved empty.
pub fn render_plan(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    for (i, rule) in plan.rules.iter().enumerate() {
        let _ = writeln!(out, "Datamerge graph for rule R{}:", i + 1);
        for node in &rule.nodes {
            let _ = writeln!(out, "  [{}] {}", node.op_name(), summarize(node));
        }
        let _ = writeln!(
            out,
            "  [constructor] cp = {}",
            msl::printer::head(&rule.head)
        );
    }
    for reason in &plan.pruned {
        let _ = writeln!(out, "  [pruned] {reason}");
    }
    if plan.dedup_results {
        let _ = writeln!(out, "  [result dup elim] structural");
    }
    out
}

/// Render a traced execution: each node with the table it emitted — the
/// rectangles of Figure 3.6.
pub fn render_execution(plan: &PhysicalPlan, outcome: &ExecOutcome) -> String {
    let mut out = String::new();
    for (i, (rule, trace)) in plan.rules.iter().zip(&outcome.trace.rules).enumerate() {
        let _ = writeln!(out, "=== rule R{} ===", i + 1);
        for t in &trace.nodes {
            let _ = writeln!(out, "[{}] {}", t.op, t.detail);
            let _ = writeln!(out, "  rows out: {}", t.metrics.rows_out);
            for line in t.table.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        let _ = writeln!(out, "[constructor] {}", msl::printer::head(&rule.head));
    }
    let _ = writeln!(out, "=== result objects ===");
    out.push_str(&oem::printer::print_store(&outcome.results));
    out
}

/// Render the executed plan EXPLAIN ANALYZE-style: every node annotated
/// with its observed row counts, the optimizer's estimate (and the drift
/// between the two), source round-trips, bindings produced, dedup hits,
/// and per-node wall time, then the pruned chains' reasons, followed by
/// mediator-level totals.
pub fn render_analyze(plan: &PhysicalPlan, outcome: &ExecOutcome) -> String {
    use crate::metrics::format_ns;
    let trace = &outcome.trace;
    let mut out = String::new();
    if !trace.query.is_empty() {
        let _ = writeln!(out, "EXPLAIN ANALYZE  {}", trace.query);
    }
    for (i, (rule, rt)) in plan.rules.iter().zip(&trace.rules).enumerate() {
        let _ = writeln!(out, "=== rule R{} ({}) ===", i + 1, format_ns(rt.wall_ns));
        if let Some(err) = &rt.error {
            let _ = writeln!(out, "[chain dropped] {err}");
        }
        for t in &rt.nodes {
            let m = &t.metrics;
            let _ = writeln!(out, "[{}] {}", t.op, t.detail);
            let mut line = format!("  rows: {} in -> {} out", m.rows_in, m.rows_out);
            // `has_estimate` gates out the planner's "unknown" sentinels
            // (f64::MAX scores from NaN statistics) and non-finite noise:
            // `(est 17976931348623157…)` helps nobody.
            if m.has_estimate() {
                line.push_str(&format!("  (est {:.1}", m.est_rows));
                match m.drift() {
                    Some(d) => line.push_str(&format!(", drift {d:.2}x)")),
                    None => line.push(')'),
                }
            }
            let _ = writeln!(out, "{line}");
            // Cost-model breakdown, when the model priced this node with a
            // source call (external predicates and client-side filters
            // carry rows only). The same sentinel rule as for row
            // estimates applies per component.
            let sane = |v: f64| v.is_finite() && v < crate::cost::SENTINEL_THRESHOLD;
            if (m.est_cpu_rows > 0.0 || m.est_net_ms > 0.0 || m.est_mem_rows > 0.0)
                && sane(m.est_cpu_rows)
                && sane(m.est_net_ms)
                && sane(m.est_mem_rows)
            {
                let mut cost = format!(
                    "  cost: cpu {:.1} rows, net {:.2} ms, mem {:.1} rows",
                    m.est_cpu_rows, m.est_net_ms, m.est_mem_rows
                );
                if let Some(d) = m.net_drift() {
                    cost.push_str(&format!("  (net drift {d:.2}x)"));
                }
                let _ = writeln!(out, "{cost}");
            }
            let mut extras: Vec<String> = Vec::new();
            if m.tuples_sent > m.source_calls {
                // A parameterized node whose calls carried value sets.
                extras.push(format!(
                    "source calls: {} ({} tuples)",
                    m.source_calls, m.tuples_sent
                ));
            } else if m.source_calls > 0 {
                extras.push(format!("source calls: {}", m.source_calls));
            }
            for (label, n) in [
                ("bindings", m.bindings_produced),
                ("dedup hits", m.dedup_hits),
                ("cache hits", m.cache_hits),
                ("containment hits", m.containment_hits),
                ("cache misses", m.cache_misses),
            ] {
                if n > 0 {
                    extras.push(format!("{label}: {n}"));
                }
            }
            extras.push(format!("time: {}", format_ns(m.wall_ns)));
            let _ = writeln!(out, "  {}", extras.join("   "));
        }
        let _ = writeln!(
            out,
            "[constructor] {}  -> {} object(s)",
            msl::printer::head(&rule.head),
            rt.constructed
        );
    }
    for reason in &plan.pruned {
        let _ = writeln!(out, "[pruned] {reason}");
    }
    let _ = writeln!(out, "=== totals ===");
    let _ = writeln!(
        out,
        "result objects: {} (dedup removed {})",
        trace.result_count, trace.result_dedup_removed
    );
    for (label, counts) in [
        ("source calls", &trace.source_calls),
        ("cache hits", &trace.cache_hits),
        ("containment hits", &trace.containment_hits),
        ("cache misses", &trace.cache_misses),
    ] {
        per_source_line(&mut out, label, counts);
    }
    // The byte figure is a process-wide gauge (what the shared cache
    // holds after this query); evictions are this query's own delta.
    // Labeled apart so a resident mediator's reports don't read as if
    // one request cached everything — see DESIGN.md §10.
    if trace.bytes_cached > 0 || trace.cache_evictions > 0 {
        let _ = writeln!(
            out,
            "cache: {} bytes held (process-wide), {} evictions (this query)",
            trace.bytes_cached, trace.cache_evictions
        );
    }
    // Warm-tier lines only appear when a disk tier is configured and
    // actually did something — memory-only runs stay byte-identical.
    if trace.cache_warm_hits > 0 || trace.cache_demotions > 0 {
        let _ = writeln!(
            out,
            "cache warm tier: {} disk hits, {} demotions (this query)",
            trace.cache_warm_hits, trace.cache_demotions
        );
    }
    if trace.warm_bytes_cached > 0 {
        let _ = writeln!(
            out,
            "cache warm tier: {} bytes live on disk (process-wide)",
            trace.warm_bytes_cached
        );
    }
    per_source_line(&mut out, "retries", &trace.retries);
    per_source_line(&mut out, "failed attempts", &trace.failures);
    let c = &trace.completeness;
    if c.is_complete() {
        let _ = writeln!(out, "completeness: complete");
    } else {
        let failed: Vec<String> = c
            .sources_failed
            .iter()
            .map(|(s, why)| format!("{s} ({why})"))
            .collect();
        let skipped: Vec<String> = c
            .skipped_chains
            .iter()
            .map(|i| format!("R{}", i + 1))
            .collect();
        let _ = writeln!(
            out,
            "completeness: PARTIAL — failed sources: {}; dropped chains: {}",
            if failed.is_empty() {
                "none".to_string()
            } else {
                failed.join(", ")
            },
            if skipped.is_empty() {
                "none".to_string()
            } else {
                skipped.join(", ")
            },
        );
    }
    // Memory/latency profile of the execution: the largest batch any node
    // held, and the time at which the first answer rows surfaced.
    let _ = writeln!(
        out,
        "peak resident: {} rows / ~{} bytes",
        trace.peak_batch_rows, trace.peak_bytes_resident
    );
    if trace.first_rows_ns > 0 {
        let _ = writeln!(out, "first answer: {}", format_ns(trace.first_rows_ns));
    }
    let _ = writeln!(out, "wall time: {}", format_ns(trace.wall_ns));
    out
}

/// One totals line of per-source counts, `label: source=n source=n`;
/// nothing when no source has a count.
fn per_source_line(out: &mut String, label: &str, counts: &BTreeMap<Symbol, usize>) {
    if !counts.is_empty() {
        let each: Vec<String> = counts.iter().map(|(s, n)| format!("{s}={n}")).collect();
        let _ = writeln!(out, "{label}: {}", each.join(" "));
    }
}

fn summarize(node: &Node) -> String {
    match node {
        Node::Query { source, query, .. } => {
            format!("@{source}  {}", msl::printer::rule(query))
        }
        Node::ParamQuery {
            source,
            query,
            params,
            ..
        } => {
            let ps: Vec<String> = params.iter().map(|p| format!("${p}")).collect();
            format!(
                "@{source}  params [{}]  {}",
                ps.join(", "),
                msl::printer::rule(query)
            )
        }
        Node::ExternalPred { pred, args, .. } => {
            let rendered: Vec<String> = args.iter().map(|a| msl::printer::term(a, true)).collect();
            format!("{pred}({})", rendered.join(", "))
        }
        Node::RestFilter { var, condition } => {
            format!("{var} must contain {}", msl::printer::pattern(condition))
        }
        Node::HashJoin {
            source, join_vars, ..
        } => {
            let vs: Vec<String> = join_vars.iter().map(|v| v.as_str()).collect();
            format!("fetch @{source}, join on [{}]", vs.join(", "))
        }
        Node::DupElim { vars } => {
            let vs: Vec<String> = vars.iter().map(|v| v.as_str()).collect();
            format!("project [{}], dedup", vs.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use crate::externals::standard_registry;
    use crate::planner::{plan, PlanContext, PlannerOptions};
    use crate::spec::MediatorSpec;
    use crate::stats::StatsCache;
    use crate::veao::expand;
    use engine::unify::UnifyMode;
    use oem::sym;
    use std::collections::HashMap;
    use std::sync::Arc;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
    use wrappers::Wrapper;

    #[test]
    fn summaries_cover_every_node_kind() {
        use crate::graph::{ExtractVar, Node, VarKind};
        use msl::{PatValue, Pattern, Term};
        let q = msl::parse_rule("X :- X:<p {}>@s").unwrap();
        let nodes = [
            Node::Query {
                source: sym("s"),
                query: q.clone(),
                vars: vec![ExtractVar {
                    var: sym("V"),
                    kind: VarKind::Scalar,
                }],
            },
            Node::ParamQuery {
                source: sym("s"),
                query: q.clone(),
                params: vec![sym("P")],
                vars: vec![],
            },
            Node::ExternalPred {
                pred: sym("decomp"),
                args: vec![Term::var("N")],
                new_vars: vec![],
            },
            Node::RestFilter {
                var: sym("Rest"),
                condition: Pattern::lv(Term::str("year"), PatValue::Term(Term::int(3))),
            },
            Node::HashJoin {
                source: sym("s"),
                query: q,
                vars: vec![],
                join_vars: vec![sym("K")],
            },
            Node::DupElim {
                vars: vec![sym("V")],
            },
        ];
        let rendered = render_plan(&crate::graph::PhysicalPlan {
            rules: vec![crate::graph::RulePlan {
                nodes: nodes.to_vec(),
                estimates: Vec::new(),
                head: msl::Head::Var(sym("X")),
            }],
            dedup_results: true,
            pruned: Vec::new(),
        });
        for frag in [
            "[query]",
            "[parameterized query]",
            "params [$P]",
            "[external pred]",
            "decomp(N)",
            "[filter]",
            "Rest must contain <year 3>",
            "[hash join]",
            "join on [K]",
            "[dup elim]",
            "project [V], dedup",
            "[result dup elim] structural",
        ] {
            assert!(rendered.contains(frag), "missing {frag} in:\n{rendered}");
        }
    }

    #[test]
    fn figure_3_6_walkthrough_renders() {
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let logical = render_logical(&program);
        assert!(logical.contains("(R1)"));
        assert!(logical.contains("(R2)"));

        let registry = standard_registry();
        let stats = StatsCache::new();
        let mut srcs: HashMap<oem::Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(sym("whois"), Arc::new(whois_wrapper()));
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let physical = plan(&program, &ctx).unwrap();
        let rendered = render_plan(&physical);
        assert!(rendered.contains("[query]"), "{rendered}");
        assert!(rendered.contains("[external pred]"), "{rendered}");
        assert!(rendered.contains("[constructor]"), "{rendered}");

        let outcome = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                trace: true,
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        let walk = render_execution(&physical, &outcome);
        assert!(walk.contains("=== rule R1 ==="), "{walk}");
        assert!(walk.contains("rows out"), "{walk}");
        assert!(walk.contains("'Nick Naive'"), "{walk}");
        assert!(walk.contains("=== result objects ==="), "{walk}");
    }

    #[test]
    fn analyze_annotates_every_node_with_metrics() {
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let mut srcs: HashMap<oem::Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(sym("whois"), Arc::new(whois_wrapper()));
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let physical = plan(&program, &ctx).unwrap();
        let outcome = execute(&physical, &srcs, &registry, &ExecOptions::default()).unwrap();
        let report = render_analyze(&physical, &outcome);
        // One "rows: N in -> M out" annotation per executed node.
        let annotated = report.matches("rows: ").count();
        let executed: usize = outcome.trace.rules.iter().map(|r| r.nodes.len()).sum();
        assert_eq!(annotated, executed, "{report}");
        // Estimates from the planner appear with drift where observed > 0.
        assert!(report.contains("(est "), "{report}");
        assert!(report.contains("drift "), "{report}");
        // Per-node and total accounting are rendered.
        assert!(report.contains("source calls: "), "{report}");
        assert!(report.contains("time: "), "{report}");
        assert!(report.contains("=== totals ==="), "{report}");
        assert!(report.contains("wall time: "), "{report}");
        assert!(report.contains("result objects: "), "{report}");
        // Residency/latency profile: peak always renders; the first-answer
        // line appears because this query produced rows.
        assert!(report.contains("peak resident: "), "{report}");
        assert!(report.contains("first answer: "), "{report}");
        // A clean run is reported complete, with no retry/failure lines —
        // and with the cache off, no cache lines either.
        assert!(report.contains("completeness: complete"), "{report}");
        assert!(!report.contains("retries: "), "{report}");
        assert!(!report.contains("failed attempts: "), "{report}");
        assert!(!report.contains("cache"), "{report}");
    }

    #[test]
    fn analyze_hides_sentinel_estimates_and_shows_cost_breakdown() {
        // Three nodes: a sentinel estimate (NaN statistics scored as
        // f64::MAX), a NaN estimate, and a real multi-objective estimate.
        // The first two must render without any `(est …, drift …)`
        // annotation; the third gets both the estimate and the per-
        // component cost line with net drift.
        use crate::metrics::{NodeMetrics, NodeTrace, QueryTrace, RuleTrace};
        let node = |est_rows: f64, cpu: f64, net: f64, mem: f64, calls: usize| NodeTrace {
            op: "query".into(),
            detail: "@s".into(),
            metrics: NodeMetrics {
                rows_in: 1,
                rows_out: 5,
                source_calls: calls,
                wall_ns: 2_000_000, // 2ms observed
                est_rows,
                est_cpu_rows: cpu,
                est_net_ms: net,
                est_mem_rows: mem,
                ..Default::default()
            },
            table: String::new(),
        };
        let plan = crate::graph::PhysicalPlan {
            rules: vec![crate::graph::RulePlan {
                nodes: Vec::new(),
                estimates: Vec::new(),
                head: msl::Head::Var(sym("X")),
            }],
            dedup_results: false,
            pruned: Vec::new(),
        };
        let outcome = ExecOutcome {
            results: oem::ObjectStore::new(),
            trace: QueryTrace {
                rules: vec![RuleTrace {
                    nodes: vec![
                        node(f64::MAX, f64::MAX, f64::MAX, f64::MAX, 1),
                        node(f64::NAN, f64::NAN, f64::NAN, f64::NAN, 1),
                        node(4.0, 10.0, 1.0, 8.0, 1),
                    ],
                    ..Default::default()
                }],
                ..Default::default()
            },
        };
        let report = render_analyze(&plan, &outcome);
        assert_eq!(
            report.matches("(est ").count(),
            1,
            "sentinel/NaN estimates must not render: {report}"
        );
        assert_eq!(report.matches("cost: ").count(), 1, "{report}");
        assert!(report.contains("(est 4.0, drift 1.25x)"), "{report}");
        assert!(
            report.contains("cost: cpu 10.0 rows, net 1.00 ms, mem 8.0 rows"),
            "{report}"
        );
        assert!(report.contains("(net drift 2.00x)"), "{report}");
        assert!(!report.contains("inf"), "{report}");
        assert!(!report.contains("NaN"), "{report}");
    }

    #[test]
    fn analyze_report_is_pinned_byte_for_byte() {
        // Golden: a hand-built outcome with fixed timings that reaches
        // every line `render_analyze` can print — a bind join whose calls
        // carried value sets, dedup hits, the cache / containment / miss
        // counters per node and per source, both warm-tier lines, retries,
        // failed attempts, a dropped chain and a PARTIAL verdict —
        // compared as one string. Every other test here is a `contains`.
        use crate::metrics::{Completeness, NodeMetrics, NodeTrace, QueryTrace, RuleTrace};
        // Fresh names interned in this order: per-source maps iterate in
        // symbol order, which is interning order.
        let (a, b) = (sym("golden_alpha"), sym("golden_beta"));
        let node = |op: &str, detail: &str, metrics: NodeMetrics| NodeTrace {
            op: op.into(),
            detail: detail.into(),
            metrics,
            table: String::new(),
        };
        let rule_plan = || crate::graph::RulePlan {
            nodes: Vec::new(),
            estimates: Vec::new(),
            head: msl::Head::Var(sym("X")),
        };
        let plan = crate::graph::PhysicalPlan {
            rules: vec![rule_plan(), rule_plan()],
            dedup_results: true,
            pruned: Vec::new(),
        };
        let counts = |pairs: &[(oem::Symbol, usize)]| pairs.iter().copied().collect();
        let outcome = ExecOutcome {
            results: oem::ObjectStore::new(),
            trace: QueryTrace {
                query: "X :- X:<p {}>@med".into(),
                rules: vec![
                    RuleTrace {
                        nodes: vec![
                            node(
                                "query",
                                "@golden_alpha: Q",
                                NodeMetrics {
                                    rows_in: 1,
                                    rows_out: 4,
                                    bindings_produced: 4,
                                    source_calls: 1,
                                    wall_ns: 2_000_000,
                                    est_rows: 4.0,
                                    est_cpu_rows: 10.0,
                                    est_net_ms: 1.0,
                                    est_mem_rows: 8.0,
                                    cache_misses: 1,
                                    peak_batch_rows: 4,
                                    peak_bytes_resident: 96,
                                    ..Default::default()
                                },
                            ),
                            node(
                                "parameterized query",
                                "@golden_beta: P",
                                NodeMetrics {
                                    rows_in: 4,
                                    rows_out: 3,
                                    bindings_produced: 3,
                                    source_calls: 2,
                                    tuples_sent: 4,
                                    wall_ns: 12_345,
                                    est_rows: 6.0,
                                    cache_hits: 1,
                                    containment_hits: 2,
                                    cache_misses: 4,
                                    peak_batch_rows: 3,
                                    peak_bytes_resident: 72,
                                    ..Default::default()
                                },
                            ),
                            node(
                                "dup elim",
                                "project [X]",
                                NodeMetrics {
                                    rows_in: 3,
                                    rows_out: 2,
                                    dedup_hits: 1,
                                    wall_ns: 950,
                                    ..Default::default()
                                },
                            ),
                        ],
                        constructed: 2,
                        wall_ns: 2_500_000,
                        error: None,
                    },
                    RuleTrace {
                        nodes: vec![node(
                            "query",
                            "@golden_beta: Q2",
                            NodeMetrics {
                                rows_in: 1,
                                wall_ns: 3_200_000_000,
                                ..Default::default()
                            },
                        )],
                        constructed: 0,
                        wall_ns: 3_300_000_000,
                        error: Some("source 'golden_beta' unavailable: down".into()),
                    },
                ],
                source_calls: counts(&[(a, 1), (b, 2)]),
                retries: counts(&[(b, 2)]),
                failures: counts(&[(a, 1), (b, 3)]),
                completeness: Completeness {
                    sources_ok: vec![a],
                    sources_failed: [(b, "down".to_string())].into_iter().collect(),
                    skipped_chains: vec![1],
                },
                cache_hits: counts(&[(b, 1)]),
                containment_hits: counts(&[(b, 2)]),
                cache_misses: counts(&[(a, 1), (b, 4)]),
                bytes_cached: 512,
                cache_evictions: 1,
                cache_warm_hits: 2,
                cache_demotions: 3,
                warm_bytes_cached: 256,
                result_count: 2,
                result_dedup_removed: 1,
                wall_ns: 3_400_000_000,
                first_rows_ns: 42_000,
                peak_batch_rows: 4,
                peak_bytes_resident: 96,
                ..Default::default()
            },
        };
        let expected = [
            "EXPLAIN ANALYZE  X :- X:<p {}>@med",
            "=== rule R1 (2.50ms) ===",
            "[query] @golden_alpha: Q",
            "  rows: 1 in -> 4 out  (est 4.0, drift 1.00x)",
            "  cost: cpu 10.0 rows, net 1.00 ms, mem 8.0 rows  (net drift 2.00x)",
            "  source calls: 1   bindings: 4   cache misses: 1   time: 2.00ms",
            "[parameterized query] @golden_beta: P",
            "  rows: 4 in -> 3 out  (est 6.0, drift 0.50x)",
            "  source calls: 2 (4 tuples)   bindings: 3   cache hits: 1   containment hits: 2   cache misses: 4   time: 12.3µs",
            "[dup elim] project [X]",
            "  rows: 3 in -> 2 out",
            "  dedup hits: 1   time: 950ns",
            "[constructor] X  -> 2 object(s)",
            "=== rule R2 (3.30s) ===",
            "[chain dropped] source 'golden_beta' unavailable: down",
            "[query] @golden_beta: Q2",
            "  rows: 1 in -> 0 out",
            "  time: 3.20s",
            "[constructor] X  -> 0 object(s)",
            "=== totals ===",
            "result objects: 2 (dedup removed 1)",
            "source calls: golden_alpha=1 golden_beta=2",
            "cache hits: golden_beta=1",
            "containment hits: golden_beta=2",
            "cache misses: golden_alpha=1 golden_beta=4",
            "cache: 512 bytes held (process-wide), 1 evictions (this query)",
            "cache warm tier: 2 disk hits, 3 demotions (this query)",
            "cache warm tier: 256 bytes live on disk (process-wide)",
            "retries: golden_beta=2",
            "failed attempts: golden_alpha=1 golden_beta=3",
            "completeness: PARTIAL — failed sources: golden_beta (down); dropped chains: R2",
            "peak resident: 4 rows / ~96 bytes",
            "first answer: 42.0µs",
            "wall time: 3.40s",
        ]
        .map(|line| format!("{line}\n"))
        .concat();
        assert_eq!(render_analyze(&plan, &outcome), expected);
    }

    #[test]
    fn both_renderers_name_the_pruned_chain() {
        // The point query expands to three rules. The one asking a whois
        // person for a second `name` and the one asking cs's rows for a
        // `name` column are proved empty and printed as such.
        let med = crate::Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            standard_registry(),
        )
        .unwrap();
        let pruned_lines = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| l.contains("[pruned]"))
                .map(|l| l.trim().to_string())
                .collect()
        };
        let expected = [
            "[pruned] source 'whois' holds at most one 'name' under 'person', and the \
             pattern already matches it",
            "[pruned] source 'cs' produces no subobject labeled 'name' here",
        ];
        let point = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med";
        let plan_text = med.explain_text(point, false).unwrap();
        assert!(plan_text.contains("(R3)"), "{plan_text}");
        assert_eq!(pruned_lines(&plan_text), expected, "{plan_text}");
        assert!(!plan_text.contains("rule R2"), "{plan_text}");
        assert!(!plan_text.contains("rule R3"), "{plan_text}");
        let (report, trace) = med.explain_analyze(point).unwrap();
        assert_eq!(pruned_lines(&report), expected, "{report}");
        assert_eq!((trace.rules.len(), trace.result_count), (1, 1));
        // Nothing pruned, nothing printed.
        let year = "S :- S:<cs_person {<year 3>}>@med";
        assert!(pruned_lines(&med.explain_text(year, false).unwrap()).is_empty());
        assert!(pruned_lines(&med.explain_analyze(year).unwrap().0).is_empty());
    }

    #[test]
    fn analyze_renders_cache_counters_when_cache_is_on() {
        use crate::cache::{AnswerCache, CacheOptions};
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let mut srcs: HashMap<oem::Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(sym("whois"), Arc::new(whois_wrapper()));
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let physical = plan(&program, &ctx).unwrap();
        let cache = Arc::new(AnswerCache::new(CacheOptions::enabled()));
        let opts = ExecOptions {
            cache: Some(Arc::clone(&cache)),
            ..Default::default()
        };
        // First run warms the cache (all misses)...
        let cold = execute(&physical, &srcs, &registry, &opts).unwrap();
        let cold_report = render_analyze(&physical, &cold);
        assert!(cold_report.contains("cache misses: "), "{cold_report}");
        // ...the second run is served from it.
        let warm = execute(&physical, &srcs, &registry, &opts).unwrap();
        let report = render_analyze(&physical, &warm);
        assert!(report.contains("cache hits: "), "{report}");
        assert!(report.contains("bytes held"), "{report}");
        assert_eq!(warm.trace.total_source_calls(), 0, "{report}");
        // Memory-only cache: the warm-tier lines must not appear.
        assert!(!report.contains("warm tier"), "{report}");
    }

    #[test]
    fn analyze_renders_warm_tier_counters_when_tiered() {
        use crate::cache::{AnswerCache, CacheOptions};
        let dir =
            std::env::temp_dir().join(format!("medmaker-explain-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let mut srcs: HashMap<oem::Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(sym("whois"), Arc::new(whois_wrapper()));
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let physical = plan(&program, &ctx).unwrap();
        let tiered = CacheOptions {
            enabled: true,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };
        // Warm the disk tier, then simulate a restart with a fresh cache
        // over the same directory: hits come off disk and the analyze
        // report says so.
        {
            let cache = Arc::new(AnswerCache::new(tiered.clone()));
            let opts = ExecOptions {
                cache: Some(cache),
                ..Default::default()
            };
            execute(&physical, &srcs, &registry, &opts).unwrap();
        }
        let cache = Arc::new(AnswerCache::new(tiered));
        let opts = ExecOptions {
            cache: Some(cache),
            ..Default::default()
        };
        let warm = execute(&physical, &srcs, &registry, &opts).unwrap();
        let report = render_analyze(&physical, &warm);
        assert!(report.contains("cache warm tier: "), "{report}");
        assert!(report.contains("disk hits"), "{report}");
        assert!(report.contains("bytes live on disk"), "{report}");
        assert!(warm.trace.cache_warm_hits > 0, "{report}");
        assert_eq!(warm.trace.total_source_calls(), 0, "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_renders_partial_run_with_failed_source() {
        use crate::retry::{FaultOptions, OnSourceFailure};
        use wrappers::{FaultInjectingWrapper, FaultPlan};
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let mut srcs: HashMap<oem::Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(
            sym("whois"),
            Arc::new(FaultInjectingWrapper::new(
                Arc::new(whois_wrapper()),
                FaultPlan::always_down(),
            )),
        );
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let physical = plan(&program, &ctx).unwrap();
        let outcome = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                fault: FaultOptions {
                    on_source_failure: OnSourceFailure::Partial,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let report = render_analyze(&physical, &outcome);
        assert!(report.contains("completeness: PARTIAL"), "{report}");
        assert!(report.contains("whois"), "{report}");
        assert!(report.contains("[chain dropped]"), "{report}");
        assert!(report.contains("failed attempts: whois="), "{report}");
    }
}
