//! The traced run: the same stream, with the benchmark timing its own
//! calls into each layer, and the per-layer metrics computed from those
//! spans and from counters the program already keeps.
//!
//! With the cache off the mediator is driven stage by stage, through the
//! same public functions `Mediator::query_rule` calls. With the cache on
//! the stages share state only the mediator holds, so it is driven whole
//! and split into parse / `query_rule` / print, with the wrappers timed
//! underneath and the cache read through its counters.

use crate::catalog::PER_LAYER;
use crate::client;
use crate::drive::{churn_delta, closed_loop, over_http, Answered, Cursor, Tally};
use crate::stats::{mean, median, percentile};
use crate::trace::{Span, SpanLog};
use crate::workload::{Fixture, Kind, Query, Reference, Stream};
use medmaker::exec::{execute, ExecOptions};
use medmaker::externals::{standard_registry, ExternalRegistry};
use medmaker::metrics::QueryTrace;
use medmaker::planner::{plan, PlanContext};
use medmaker::stats::SharedStats;
use medmaker::{CacheCounters, QueryLimits};
use oem::printer::print_store;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts taken per operation next to its spans.
#[derive(Default)]
struct Extras {
    ops: u64,
    rules_out: u64,
    first_rows_ns: u64,
    peak_batch_rows: usize,
    answer_bytes: u64,
    answer_objects: u64,
    /// Plan shapes seen per query class.
    plans: BTreeMap<&'static str, BTreeSet<String>>,
    invalidate_ms: Vec<f64>,
}

impl Extras {
    fn note(&mut self, q: &Query, trace: &QueryTrace, answer: &str, objects: usize) {
        self.ops += 1;
        self.first_rows_ns += trace.first_rows_ns;
        self.peak_batch_rows = self.peak_batch_rows.max(trace.peak_batch_rows);
        self.answer_bytes += answer.len() as u64;
        self.answer_objects += objects as u64;
        // The operators of every chain, in plan order: the shape a
        // learned statistic can flip. Constants are not part of it.
        let shape: Vec<String> = trace
            .rules
            .iter()
            .map(|r| {
                r.nodes
                    .iter()
                    .map(|n| n.op.as_str())
                    .collect::<Vec<_>>()
                    .join(">")
            })
            .collect();
        self.plans
            .entry(q.class)
            .or_default()
            .insert(shape.join(" | "));
    }
}

/// The state the staged driver keeps where `Mediator` keeps its own:
/// the external registry and the learned statistics.
struct Staged {
    registry: ExternalRegistry,
    stats: SharedStats,
}

impl Staged {
    /// Start from what the fixture's mediator knows at construction.
    fn new(fixture: &Fixture) -> Staged {
        Staged {
            registry: standard_registry(),
            stats: SharedStats::new(fixture.mediator.stats_snapshot()),
        }
    }
}

/// One query, stage by stage: what `Mediator::query_rule` does with the
/// cache off, each stage in its own span.
fn staged_op(
    fixture: &Fixture,
    staged: &Staged,
    log: &SpanLog,
    extras: &RefCell<Extras>,
    op: u64,
    q: &Query,
) -> Answered {
    let started = Instant::now();
    let answer = log.span(op, "query", || -> Result<(String, usize), String> {
        let med = &fixture.mediator;
        let rule = log.span(
            op,
            if q.lorel {
                "lorel.compile"
            } else {
                "msl.parse"
            },
            || {
                let rule = q.to_rule()?;
                msl::validate::validate_rule(&rule, &med.spec().spec.externals)
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>(rule)
            },
        )?;
        let program = log
            .span(op, "veao.expand", || med.expand(&rule))
            .map_err(|e| e.to_string())?;
        let physical = log
            .span(op, "planner.plan", || {
                let stats = staged.stats.read();
                plan(
                    &program,
                    &PlanContext {
                        sources: &fixture.sources,
                        registry: &staged.registry,
                        stats: &stats,
                        options: &fixture.options.planner,
                        analysis: med.analysis(),
                    },
                )
            })
            .map_err(|e| e.to_string())?;
        let options = ExecOptions {
            trace: fixture.options.trace,
            parallel: fixture.options.parallel,
            fault: fixture.options.fault.clone(),
            cache: None,
            streaming: fixture.options.streaming,
            batch_size: fixture.options.batch_size,
            param_memo: None,
        };
        let outcome = log
            .span(op, "exec.execute", || {
                execute(&physical, &fixture.sources, &staged.registry, &options)
            })
            .map_err(|e| e.to_string())?;
        if fixture.options.learn_stats {
            staged.stats.record_trace(&outcome.trace);
        }
        let text = log.span(op, "oem.print", || print_store(&outcome.results));
        let objects = outcome.results.top_level().len();
        let mut extras = extras.borrow_mut();
        extras.rules_out += program.rules.len() as u64;
        extras.note(q, &outcome.trace, &text, objects);
        Ok((text, objects))
    });
    Answered {
        latency: started.elapsed(),
        answer,
    }
}

/// One query through `Mediator::query_rule`, split into parse, mediator
/// and print.
fn split_op(
    fixture: &Fixture,
    log: &SpanLog,
    extras: &RefCell<Extras>,
    op: u64,
    q: &Query,
) -> Answered {
    let started = Instant::now();
    let answer = log.span(op, "query", || -> Result<(String, usize), String> {
        let rule = log.span(
            op,
            if q.lorel {
                "lorel.compile"
            } else {
                "msl.parse"
            },
            || q.to_rule(),
        )?;
        let outcome = log
            .span(op, "mediator.query_rule", || {
                fixture.mediator.query_rule(&rule)
            })
            .map_err(|e| e.to_string())?;
        let text = log.span(op, "oem.print", || print_store(&outcome.results));
        let objects = outcome.results.top_level().len();
        extras.borrow_mut().note(q, &outcome.trace, &text, objects);
        Ok((text, objects))
    });
    Answered {
        latency: started.elapsed(),
        answer,
    }
}

/// One query over HTTP, with the wire phases recorded as spans.
fn wire_op(fixture: &Fixture, log: &SpanLog, op: u64, q: &Query) -> Answered {
    let (answered, exchange) = over_http(fixture, q);
    if let Some(x) = exchange {
        log.record(op, "query", "", x.started, x.done);
        log.record(op, "server.connect", "query", x.started, x.connected);
        log.record(op, "server.ttfb", "query", x.connected, x.first_byte);
        log.record(op, "server.read", "query", x.first_byte, x.done);
    }
    answered
}

/// `QueryService::run` called in process: the server's work without the
/// wire.
fn service_op(fixture: &Fixture, log: &SpanLog, op: u64, q: &Query) -> Answered {
    let service = fixture
        .server
        .as_ref()
        .expect("served workload has a server")
        .service();
    let started = Instant::now();
    let reply = log.span(op, "server.run", || {
        service.run(&q.text, &QueryLimits::default())
    });
    Answered {
        latency: started.elapsed(),
        answer: match reply.error {
            None => Ok((reply.answer, reply.objects)),
            Some(e) => Err(e),
        },
    }
}

/// Counter readings taken where a traced phase starts and ends.
struct Counters {
    cache: CacheCounters,
    whois: wrappers::WrapperMetrics,
    cs: wrappers::WrapperMetrics,
    shed: u64,
    coalesced: u64,
}

impl Counters {
    fn read(fixture: &Fixture) -> Counters {
        let by_name = |name: &str| {
            fixture
                .mediator
                .wrapper_metrics()
                .into_iter()
                .find(|(n, _)| n.as_str() == name)
                .map(|(_, m)| m)
                .unwrap_or_default()
        };
        let metrics = fixture.server.as_ref().map(|s| s.service().metrics());
        Counters {
            cache: fixture.mediator.cache_counters(),
            whois: by_name("whois"),
            cs: by_name("cs"),
            shed: metrics.map_or(0, |m| m.shed()),
            coalesced: metrics.map_or(0, |m| m.coalesced()),
        }
    }
}

/// Whether the layer behind per-layer metric `name` runs, and can be seen
/// from outside, on `kind`. Served queries hand back no `QueryTrace`, and
/// a cached mediator cannot be driven stage by stage.
fn applies(name: &str, kind: Kind) -> bool {
    const STAGED_ONLY: [&str; 5] = [
        "veao.expand_us",
        "veao.rules_out",
        "planner.plan_us",
        "exec.execute_ms",
        "exec.self_ms",
    ];
    match name.split('.').next() {
        Some("server") => kind == Kind::ServedHttp,
        Some("cache") => kind.cached(),
        Some("lorel") => kind == Kind::PointCold,
        Some("msl" | "oem" | "veao" | "planner" | "exec") => {
            kind != Kind::ServedHttp && !(kind.cached() && STAGED_ONLY.contains(&name))
        }
        _ => true,
    }
}

/// Totals over the spans of a traced phase.
struct SpanTotals {
    /// Nanoseconds and count per span name.
    by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Nanoseconds the wrappers took, by the span that called them.
    wrappers_under: BTreeMap<&'static str, u64>,
    /// Every duration (ms) of the spans whose median is reported.
    durations: BTreeMap<&'static str, Vec<f64>>,
}

impl SpanTotals {
    fn of(spans: &[Span]) -> SpanTotals {
        let mut totals = SpanTotals {
            by_name: BTreeMap::new(),
            wrappers_under: BTreeMap::new(),
            durations: BTreeMap::new(),
        };
        for s in spans {
            let e = totals.by_name.entry(s.name).or_default();
            e.0 += s.ns();
            e.1 += 1;
            if s.name.starts_with("wrappers.") {
                *totals.wrappers_under.entry(s.parent).or_default() += s.ns();
            }
            if matches!(s.name, "query" | "server.run") {
                let ms = s.ns() as f64 / 1e6;
                totals.durations.entry(s.name).or_default().push(ms);
            }
        }
        totals
    }

    /// All time in spans called `name`, ms.
    fn total_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.0 as f64 / 1e6)
    }

    /// Mean duration of the spans called `name`, µs (not every query has
    /// one: only some are LOREL, only some go over the wire).
    fn mean_us(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(ns, n)) if n > 0 => ns as f64 / 1e3 / n as f64,
            _ => 0.0,
        }
    }

    /// All wrapper time spent under spans called `parent`, ms.
    fn wrappers_under_ms(&self, parent: &str) -> f64 {
        self.wrappers_under
            .get(parent)
            .map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// Median duration of the spans called `name`, ms.
    fn p50_ms(&self, name: &str) -> f64 {
        let mut v = self.durations.get(name).cloned().unwrap_or_default();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.5)
    }
}

/// Every per-layer metric that comes from spans and counters. Times are
/// means per query, counts are per query.
fn layer_values(
    kind: Kind,
    totals: &SpanTotals,
    extras: &Extras,
    before: &Counters,
    after: &Counters,
    queries: f64,
) -> BTreeMap<&'static str, f64> {
    let per_query_ms = |name: &str| totals.total_ms(name) / queries;
    let ops = extras.ops.max(1) as f64;
    let cache = |f: fn(&CacheCounters) -> usize| (f(&after.cache) - f(&before.cache)) as f64;
    let lookups = cache(|c| c.hits) + cache(|c| c.containment_hits) + cache(|c| c.misses);
    let whois_calls = (after.whois.queries_received - before.whois.queries_received) as f64;
    let cs_calls = (after.cs.queries_received - before.cs.queries_received) as f64;
    let exported = (after.whois.objects_exported - before.whois.objects_exported
        + after.cs.objects_exported
        - before.cs.objects_exported) as f64;
    let inside_mediator = if kind == Kind::ServedHttp {
        totals.mean_us("server.run") / 1e3
    } else if kind.cached() {
        per_query_ms("mediator.query_rule")
    } else {
        per_query_ms("veao.expand") + per_query_ms("planner.plan") + per_query_ms("exec.execute")
    };
    let distinct_plans = extras.plans.values().map(BTreeSet::len).max().unwrap_or(0);
    BTreeMap::from([
        ("msl.parse_us", totals.mean_us("msl.parse")),
        ("lorel.compile_us", totals.mean_us("lorel.compile")),
        ("veao.expand_us", totals.mean_us("veao.expand")),
        ("veao.rules_out", extras.rules_out as f64 / ops),
        ("planner.plan_us", totals.mean_us("planner.plan")),
        ("planner.distinct_plans", distinct_plans as f64),
        ("mediator.query_rule_ms", inside_mediator),
        ("mediator.new_ms", 0.0),
        ("exec.execute_ms", per_query_ms("exec.execute")),
        (
            "exec.self_ms",
            per_query_ms("exec.execute") - totals.wrappers_under_ms("exec.execute") / queries,
        ),
        (
            "exec.first_rows_ms",
            extras.first_rows_ns as f64 / 1e6 / ops,
        ),
        ("exec.peak_batch_rows", extras.peak_batch_rows as f64),
        (
            "wrappers.source_calls_per_query",
            (whois_calls + cs_calls) / queries,
        ),
        ("wrappers.whois.calls", whois_calls / queries),
        ("wrappers.whois.busy_ms", per_query_ms("wrappers.whois")),
        ("wrappers.cs.calls", cs_calls / queries),
        ("wrappers.cs.busy_ms", per_query_ms("wrappers.cs")),
        (
            "wrappers.objects_per_answer",
            exported / extras.answer_objects.max(1) as f64,
        ),
        (
            "cache.hit_ratio",
            (cache(|c| c.hits) + cache(|c| c.containment_hits)) / lookups.max(1.0),
        ),
        (
            "cache.containment_hits_per_query",
            cache(|c| c.containment_hits) / queries,
        ),
        ("cache.evictions", cache(|c| c.evictions) / queries),
        ("cache.demotions", cache(|c| c.demotions) / queries),
        ("cache.warm_hits", cache(|c| c.warm_hits) / queries),
        ("cache.warm_bytes", after.cache.warm_bytes as f64),
        ("cache.bytes_cached", after.cache.bytes_cached as f64),
        ("cache.invalidate_ms", mean(&extras.invalidate_ms)),
        ("oem.print_ms", totals.mean_us("oem.print") / 1e3),
        ("oem.answer_bytes", extras.answer_bytes as f64 / ops),
        ("server.run_ms", totals.mean_us("server.run") / 1e3),
        (
            "server.wire_overhead_ms",
            totals.p50_ms("query") - totals.p50_ms("server.run"),
        ),
        ("server.connect_us", totals.mean_us("server.connect")),
        ("server.ttfb_ms", totals.mean_us("server.ttfb") / 1e3),
        ("server.read_ms", totals.mean_us("server.read") / 1e3),
        ("server.shed", (after.shed - before.shed) as f64 / queries),
        (
            "server.coalesced",
            (after.coalesced - before.coalesced) as f64 / queries,
        ),
        ("server.line_rtt_ms", 0.0),
        ("bench.window_p50_ms", 0.0),
        ("bench.window_p90_ms", 0.0),
        ("bench.window_per_s", 0.0),
        ("bench.trace_overhead_pct", 0.0),
    ])
}

/// What a traced phase produced.
pub struct Traced {
    /// Operations and failures, as in an untraced phase.
    pub tally: Tally,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Per-layer metric values by name, every name of the catalog.
    pub values: BTreeMap<&'static str, f64>,
    /// Metrics whose layer did not run on this workload (reported as 0).
    pub not_applicable: BTreeSet<&'static str>,
    /// Mean self time per query by layer, ms, largest first.
    pub self_time: Vec<(&'static str, f64)>,
    /// Median latency of the traced operations, ms.
    pub p50_ms: f64,
}

/// Drive `fixture` (built with timed wrappers recording into `log`) for
/// `warmup` untimed and then `length` traced, and compute the per-layer
/// metrics. `mediator.new_ms` and the `bench.*` metrics are left at 0 for
/// the caller, who knows the set-up cost and the untraced window. A
/// metric whose layer does not run on the workload is 0 and listed in
/// `not_applicable`.
pub fn traced_run(
    fixture: &Fixture,
    stream: &Stream,
    refs: &[Reference],
    log: &Arc<SpanLog>,
    warmup: Duration,
    length: Duration,
) -> Traced {
    let kind = fixture.kind;
    let extras = RefCell::new(Extras::default());
    let staged = Staged::new(fixture);
    let mut cursor = Cursor::new(0, 1);
    let mut in_process = |length: Duration| {
        closed_loop(
            stream,
            refs,
            &mut cursor,
            length,
            |op, q| match kind {
                Kind::ServedHttp => service_op(fixture, log, op, q),
                k if k.cached() => split_op(fixture, log, &extras, op, q),
                _ => staged_op(fixture, &staged, log, &extras, op, q),
            },
            |sent, tally| {
                if let Some(ms) = churn_delta(fixture, sent, tally) {
                    extras.borrow_mut().invalidate_ms.push(ms);
                }
            },
        )
    };
    in_process(warmup);
    log.drain();
    extras.take();
    let before = Counters::read(fixture);
    let mut tally;
    let mut line_rtt_ms = Vec::new();
    if kind == Kind::ServedHttp {
        // A quarter of the window in process, the rest over the wire by
        // one client, then a few line-protocol exchanges.
        tally = in_process(length / 4);
        let mut wire_cursor = Cursor::new(1, 1);
        tally.merge(closed_loop(
            stream,
            refs,
            &mut wire_cursor,
            length - length / 4,
            |op, q| wire_op(fixture, log, op + (1 << 32), q),
            |_, _| {},
        ));
        let addr = fixture
            .server
            .as_ref()
            .expect("served workload has a server")
            .addr();
        let texts: Vec<&str> = stream
            .queries
            .iter()
            .take(8)
            .map(|q| q.text.as_str())
            .collect();
        match client::line_round_trips(addr, &texts) {
            Ok(times) => line_rtt_ms = times,
            Err(e) => {
                tally.attempted += 1;
                tally.failed += 1;
                tally
                    .first_failure
                    .get_or_insert(format!("line protocol: {e}"));
            }
        }
    } else {
        tally = in_process(length);
    }
    let after = Counters::read(fixture);
    let spans = log.drain();
    let extras = extras.into_inner();
    let totals = SpanTotals::of(&spans);
    let queries = tally.samples.len().max(1) as f64;
    let mut values = layer_values(kind, &totals, &extras, &before, &after, queries);
    values.insert("server.line_rtt_ms", median(&line_rtt_ms));
    debug_assert_eq!(values.len(), PER_LAYER.len());
    let not_applicable: BTreeSet<&'static str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|name| !applies(name, kind))
        .collect();
    for name in &not_applicable {
        values.insert(name, 0.0);
    }

    // Self time per query by layer: a span's time minus its children's.
    let per_query = |name: &str| totals.total_ms(name) / queries;
    let mut self_time = vec![
        (
            "msl+lorel (parse, compile)",
            per_query("msl.parse") + per_query("lorel.compile"),
        ),
        ("veao (expand)", per_query("veao.expand")),
        ("planner (plan)", per_query("planner.plan")),
        ("exec (datamerge operators)", values["exec.self_ms"]),
        (
            "mediator whole (cache, plan, exec)",
            per_query("mediator.query_rule")
                - totals.wrappers_under_ms("mediator.query_rule") / queries,
        ),
        (
            "wrappers (scan or wait)",
            per_query("wrappers.whois") + per_query("wrappers.cs"),
        ),
        ("oem (print)", per_query("oem.print")),
        ("server in process (run)", values["server.run_ms"]),
        (
            "server wire (accept, queue, socket)",
            values["server.connect_us"] / 1e3 + values["server.ttfb_ms"] + values["server.read_ms"]
                - values["server.run_ms"],
        ),
    ];
    self_time.retain(|(_, ms)| *ms > 0.0);
    self_time.sort_by(|a, b| b.1.total_cmp(&a.1));
    let p50_ms = totals.p50_ms("query");

    Traced {
        tally,
        spans,
        values,
        not_applicable,
        self_time,
        p50_ms,
    }
}
