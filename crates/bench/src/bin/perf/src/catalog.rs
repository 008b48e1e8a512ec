//! The benchmark's vocabulary, declared once: every workload with its
//! one-line reason and every metric with unit, direction and bound.
//! `BENCHMARK.json` at the repository root repeats it for the driver; a
//! unit test keeps the two equal.

use std::fmt::Write;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported number.
pub struct Metric {
    /// Name, as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// value may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// End-to-end metrics: what a user sees. Per-layer metrics: the
    /// end-to-end metric the layer should move, and where.
    pub note: &'static str,
}

/// One workload.
pub struct WorkloadInfo {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it is in the set.
    pub why: &'static str,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The workloads, each in its own process.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "point_cold",
        why: "n=1000, cache off, defaults: one-object lookups over 64 names, every 8th as LOREL. The unindexed source scans dominate, then exec; parse, VE&AO and planning stay under 1%; cache and server are idle",
    },
    WorkloadInfo {
        name: "scan_join",
        why: "n=1000, cache off: the whole view, 500 objects per answer. Source export and the datamerge operators (join, decomp, dup-elim, construction) share the time; the printer adds 5%, the front half nothing",
    },
    WorkloadInfo {
        name: "slow_source",
        why: "n=40, cache off, 1 ms real latency per source call, bind join pinned: 23 round-trips per query, so source wait dominates as against remote sources, and CPU work does not show",
    },
    WorkloadInfo {
        name: "cache_replay",
        why: "n=500, cache on (capacity 64, memory), defaults incl. learning, Zipf over 64 names that fit: the resident read path, whose time goes to containment probes once learning has flipped the plan",
    },
    WorkloadInfo {
        name: "cache_churn",
        why: "n=1000, capacity 8 per shard, warm tier on disk, no learning, Zipf over 100 names that do not fit, a scoped delta every 200 ops: inserts, demotion, promotion, invalidation",
    },
    WorkloadInfo {
        name: "served_http",
        why: "n=200, cache primed over 32 names that fit, no learning, two closed-loop clients POST /query on loopback, one connection per request: execution takes 0.5 ms, accept and wire the rest",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// What a user of the mediator sees; reported by every untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "query_p50_ms",
        "ms",
        Lower,
        0.25,
        "median latency of one query, text in to printed answer bytes out, in the run's quietest block",
    ),
    e2e(
        "query_p90_ms",
        "ms",
        Lower,
        0.25,
        "90th percentile latency of one query in the run's quietest block",
    ),
    e2e(
        "queries_per_s",
        "1/s",
        Higher,
        0.25,
        "queries completed per second in the run's quietest block, closed loop",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.15,
        "VmHWM of the workload's process, read before a rehearsal builds a second fixture",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "data generation, wrappers, Mediator::new, server start, cache priming; quickest of several",
    ),
];

/// One layer each; reported by a traced run (`--trace 1`). A layer that
/// does not run on a workload reports 0 there and is listed as n/a.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "msl.parse_us",
        "us",
        Lower,
        "query_p50_ms on point_cold (expected under 1%)",
    ),
    layer(
        "lorel.compile_us",
        "us",
        Lower,
        "query_p50_ms on point_cold (expected under 1%)",
    ),
    layer("veao.expand_us", "us", Lower, "query_p50_ms on point_cold"),
    layer(
        "veao.rules_out",
        "count",
        Lower,
        "query_p50_ms on point_cold",
    ),
    layer("planner.plan_us", "us", Lower, "query_p50_ms on point_cold"),
    layer(
        "planner.distinct_plans",
        "count",
        Lower,
        "query_p90_ms and queries_per_s on cache_replay (above 1: learning flipped the plan)",
    ),
    layer(
        "mediator.query_rule_ms",
        "ms",
        Lower,
        "query_p50_ms everywhere: all time inside the mediator",
    ),
    layer(
        "mediator.new_ms",
        "ms",
        Lower,
        "setup_s everywhere: what every one-shot CLI run pays",
    ),
    layer(
        "exec.execute_ms",
        "ms",
        Lower,
        "query_p50_ms and queries_per_s on scan_join; flat on slow_source and served_http",
    ),
    layer(
        "exec.self_ms",
        "ms",
        Lower,
        "query_p50_ms and queries_per_s on scan_join (execute minus wrapper time)",
    ),
    layer(
        "exec.first_rows_ms",
        "ms",
        Lower,
        "peak_rss_mb on scan_join",
    ),
    layer(
        "exec.peak_batch_rows",
        "count",
        Lower,
        "peak_rss_mb on scan_join",
    ),
    layer(
        "wrappers.source_calls_per_query",
        "1/query",
        Lower,
        "query_p50_ms on slow_source; the paper's own currency (3.5)",
    ),
    layer(
        "wrappers.whois.calls",
        "1/query",
        Lower,
        "query_p50_ms on slow_source",
    ),
    layer(
        "wrappers.whois.busy_ms",
        "ms",
        Lower,
        "query_p50_ms on slow_source (wait) and point_cold (scan)",
    ),
    layer(
        "wrappers.cs.calls",
        "1/query",
        Lower,
        "query_p50_ms on slow_source",
    ),
    layer(
        "wrappers.cs.busy_ms",
        "ms",
        Lower,
        "query_p50_ms on slow_source (wait) and point_cold (scan)",
    ),
    layer(
        "wrappers.objects_per_answer",
        "ratio",
        Lower,
        "query_p50_ms on point_cold and scan_join: objects exported per answer object",
    ),
    layer(
        "cache.hit_ratio",
        "ratio",
        Higher,
        "query_p90_ms and queries_per_s on cache_replay",
    ),
    layer(
        "cache.containment_hits_per_query",
        "1/query",
        Lower,
        "query_p90_ms and queries_per_s on cache_replay",
    ),
    layer(
        "cache.evictions",
        "1/query",
        Lower,
        "query_p90_ms on cache_churn",
    ),
    layer(
        "cache.demotions",
        "1/query",
        Lower,
        "query_p90_ms on cache_churn: hot-tier losers that stay on disk",
    ),
    layer(
        "cache.warm_hits",
        "1/query",
        Higher,
        "query_p90_ms on cache_churn",
    ),
    layer(
        "cache.warm_bytes",
        "bytes",
        Lower,
        "peak_rss_mb and disk use on cache_churn",
    ),
    layer(
        "cache.bytes_cached",
        "bytes",
        Lower,
        "peak_rss_mb on cache_churn and cache_replay",
    ),
    layer(
        "cache.invalidate_ms",
        "ms",
        Lower,
        "query_p90_ms on cache_churn",
    ),
    layer("oem.print_ms", "ms", Lower, "query_p50_ms on scan_join"),
    layer(
        "oem.answer_bytes",
        "bytes",
        Lower,
        "query_p50_ms on scan_join",
    ),
    layer(
        "server.run_ms",
        "ms",
        Lower,
        "query_p50_ms on served_http: QueryService::run in process",
    ),
    layer(
        "server.wire_overhead_ms",
        "ms",
        Lower,
        "query_p50_ms and queries_per_s on served_http: client p50 minus in-process p50",
    ),
    layer(
        "server.connect_us",
        "us",
        Lower,
        "query_p50_ms on served_http",
    ),
    layer(
        "server.ttfb_ms",
        "ms",
        Lower,
        "query_p50_ms on served_http: request written to first reply byte",
    ),
    layer(
        "server.read_ms",
        "ms",
        Lower,
        "query_p50_ms on served_http: first reply byte to end of stream",
    ),
    layer(
        "server.shed",
        "1/query",
        Lower,
        "queries_per_s on served_http",
    ),
    layer(
        "server.coalesced",
        "1/query",
        Higher,
        "queries_per_s on served_http",
    ),
    layer(
        "server.line_rtt_ms",
        "ms",
        Lower,
        "informational: one line-protocol exchange on a persistent connection",
    ),
    layer(
        "bench.window_p50_ms",
        "ms",
        Lower,
        "query_p50_ms with the host's noise left in: median over a whole untraced window",
    ),
    layer(
        "bench.window_p90_ms",
        "ms",
        Lower,
        "query_p90_ms with the host's noise left in; a rare stall of the program shows only here",
    ),
    layer(
        "bench.window_per_s",
        "1/s",
        Higher,
        "queries_per_s with the host's noise left in: completions per second of a whole window",
    ),
    layer(
        "bench.trace_overhead_pct",
        "%",
        Lower,
        "traced against untraced whole-window p50 of the same run",
    ),
];

/// Look a workload up by name.
#[cfg(test)]
pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Look an end-to-end metric up by name.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `perf list`: every workload and every metric.
pub fn list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workloads ({RUN_SECONDS} s window each):");
    for w in WORKLOADS {
        let _ = writeln!(out, "  {:<14} {}", w.name, w.why);
    }
    let _ = writeln!(out, "end-to-end metrics (every workload, untraced run):");
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "  {:<34} {:<8} {:<7} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0),
            m.note
        );
    }
    let _ = writeln!(
        out,
        "per-layer metrics (traced run; note = what it should move):"
    );
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<34} {:<8} {:<7} {}",
            m.name,
            m.unit,
            m.better.word(),
            m.note
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or("")
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalog() {
        let json = benchmark_json();
        assert_eq!(
            json.get("run_seconds").and_then(Value::as_i64),
            Some(RUN_SECONDS as i64)
        );
        let workloads = json.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(field(j, "name"), m.name);
                assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(field(j, "better"), m.better.word(), "{}", m.name);
                assert_eq!(
                    j.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn list_names_everything() {
        let text = list();
        for w in WORKLOADS {
            assert!(text.contains(w.name) && text.contains(w.why));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(text.contains(m.name), "{}", m.name);
        }
    }
}
