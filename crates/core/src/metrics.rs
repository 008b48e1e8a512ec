//! Per-query execution telemetry for the datamerge engine.
//!
//! The paper sketches a feedback loop in §3.5: the MSI "tries to build its
//! own statistics database that is based on results of previous queries".
//! Closing that loop requires seeing what a query actually did — so every
//! datamerge node records a [`NodeMetrics`] while it runs, the chains are
//! collected into [`RuleTrace`]s, and the whole execution into one
//! [`QueryTrace`]. The trace is what `EXPLAIN ANALYZE` renders (observed
//! cardinalities next to the optimizer's estimates), what `--trace-json`
//! exports, and what [`crate::stats::StatsCache::record_trace`] learns
//! cardinalities from.
//!
//! Counters are collected unconditionally — they are cheap (integer adds
//! plus one `Instant` pair per node). Only the rendered binding tables
//! (the Figure 3.6 rectangles) are gated behind
//! [`crate::exec::ExecOptions::trace`], because rendering copies the table
//! contents into strings.
//!
//! Each record is declared **once**, through `record!`: the declaration
//! is the struct, its JSON form (DESIGN.md §6 has the schema and a worked
//! example; the vendored `serde` is a value model without derives) and its
//! `FIELDS` list, so a new counter is one line here plus its increment.

use oem::Symbol;
use std::collections::BTreeMap;

/// One field of a metrics record, as its declaration states it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Field {
    /// The struct field's name, which is also its JSON key.
    pub name: &'static str,
    /// `None` for a key every trace carries: its absence is a parse
    /// error. `Some(what)` for a key that came with `what`: a trace
    /// exported before then lacks it and reads as the type's default.
    pub absent_before: Option<&'static str>,
}

/// Declare a metrics record once. Per field: doc comment, name, type, and
/// after the `=` either `required` or `before "X"` — "absent before X,
/// read as the default" — then `[per_source]` for a map of per-source
/// counts (a JSON object keyed by source name). Emitted: the `pub`
/// struct, `Serialize` (keys in declaration order), `Deserialize` (a
/// missing `required` key is an error) and `FIELDS`. A trailing
/// `per_source fold: NAME;` adds a method NAME summing another record's
/// per-source maps into this one's.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident : $ty:ty = $presence:ident $($before:literal)? $([$codec:ident])?
            ),* $(,)?
        }
        $(per_source fold: $fold:ident;)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// The record's fields — its JSON keys — in declaration order.
            pub const FIELDS: &'static [Field] = &[
                $( Field {
                    name: stringify!($field),
                    absent_before: record!(@before $presence $($before)?),
                }, )*
            ];
        }

        impl serde::Serialize for $name {
            fn to_value(&self) -> serde::Value {
                serde::object([
                    $( (stringify!($field), record!(@to $([$codec])? self.$field)), )*
                ])
            }
        }

        impl serde::Deserialize for $name {
            fn from_value(v: &serde::Value) -> std::result::Result<$name, serde::Error> {
                Ok($name {
                    $( $field: match v.get(stringify!($field)) {
                        Some(x) => record!(@from $([$codec])? x).map_err(|e| {
                            serde::Error::custom(format!(
                                concat!("field `", stringify!($field), "`: {}"),
                                e
                            ))
                        })?,
                        None => record!(@absent $presence stringify!($field)),
                    }, )*
                })
            }
        }

        record!(@fold $name [$($fold)?] $( $field $([$codec])? )*);
    };
    (@before required) => { None };
    (@before before $what:literal) => { Some($what) };
    (@absent required $key:expr) => {
        return Err(serde::Error::custom(format!("missing field `{}`", $key)))
    };
    (@absent before $key:expr) => { Default::default() };
    (@to [per_source] $map:expr) => {
        serde::Value::Object($map.iter().map(|(s, n)| (s.as_str(), n.to_value())).collect())
    };
    (@to $value:expr) => { $value.to_value() };
    (@from [per_source] $v:expr) => { per_source_from_value($v) };
    (@from $v:expr) => { serde::Deserialize::from_value($v) };
    (@fold $name:ident [] $($fields:tt)*) => {};
    (@fold $name:ident [$fold:ident] $( $field:ident $([$codec:ident])? )*) => {
        impl $name {
            /// Add `other`'s per-source counts to this record's, source by
            /// source, in every map the declaration marks `[per_source]`.
            pub fn $fold(&mut self, other: &$name) {
                $($( record!(@sum [$codec] self.$field, other.$field); )?)*
            }
        }
    };
    (@sum [per_source] $into:expr, $from:expr) => {
        for (source, n) in &$from {
            *$into.entry(*source).or_insert(0) += n;
        }
    };
}

/// A `[per_source]` map back from its JSON object.
fn per_source_from_value(
    v: &serde::Value,
) -> std::result::Result<BTreeMap<Symbol, usize>, serde::Error> {
    let pairs = v
        .as_object()
        .ok_or_else(|| serde::Error::custom("expected an object of per-source counts"))?;
    pairs
        .iter()
        .map(|(source, n)| Ok((Symbol::intern(source), serde::Deserialize::from_value(n)?)))
        .collect()
}

record! {
    /// Counters one datamerge node records during execution (DESIGN.md
    /// §6.1 tabulates unit and emitting operators per counter).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct NodeMetrics {
        /// Rows in the binding table flowing *into* the node.
        rows_in: usize = required,
        /// Rows in the binding table the node emitted.
        rows_out: usize = required,
        /// Binding rows extracted from source results or produced by external
        /// predicates. Zero for pure filters; for a parameterized query,
        /// memoized parameter tuples produce no new bindings.
        bindings_produced: usize = required,
        /// Source round-trips this node performed (bind-join vs hash-join cost
        /// accounting).
        source_calls: usize = required,
        /// Parameter tuples those round-trips carried (parameterized query
        /// nodes only): equal to `source_calls` when every call asked about
        /// one tuple, larger when calls carried value sets.
        tuples_sent: usize = before "set-valued bind joins",
        /// Rows removed by duplicate elimination (dup-elim nodes only).
        dedup_hits: usize = required,
        /// Wall-clock time spent executing the node, in nanoseconds.
        wall_ns: u64 = required,
        /// The optimizer's estimated output cardinality for this node, in rows
        /// (what `EXPLAIN ANALYZE` prints next to `rows_out` as drift).
        est_rows: f64 = required,
        /// The cost model's estimated locally-processed rows for this node
        /// (0 when the scalar model planned, or for pure filter nodes).
        est_cpu_rows: f64 = before "the multi-objective cost model",
        /// The cost model's estimated round-trip milliseconds for this node
        /// (0 for nodes that never contact a source).
        est_net_ms: f64 = before "the multi-objective cost model",
        /// The cost model's estimated resident rows for this node (hash-join
        /// build sides, copied source answers; 0 when unknown).
        est_mem_rows: f64 = before "the multi-objective cost model",
        /// Source queries this node served from the answer cache by exact
        /// canonical-key match (zero when the cache is off).
        cache_hits: usize = before "the answer cache",
        /// Source queries served by filtering a broader cached answer through
        /// the containment probe (zero when the cache is off).
        containment_hits: usize = before "the answer cache",
        /// Source queries that consulted the answer cache and fell through to
        /// a round-trip (zero when the cache is off).
        cache_misses: usize = before "the answer cache",
        /// Largest binding batch the node held at once: the biggest batch it
        /// emitted, bounded by [`crate::exec::ExecOptions::batch_size`].
        peak_batch_rows: usize = before "streaming execution",
        /// Approximate bytes of the largest resident batch (same resolution as
        /// `peak_batch_rows`; see `crate::table::approx_batch_bytes`).
        peak_bytes_resident: u64 = before "streaming execution",
    }
}

impl NodeMetrics {
    /// Whether the node carries a usable row estimate. The planner
    /// sanitizes degenerate (NaN) statistics to an `f64::MAX` sentinel to
    /// keep join ordering deterministic; that sentinel — like any
    /// non-finite value — is *no estimate*, not a huge one.
    pub fn has_estimate(&self) -> bool {
        self.est_rows.is_finite()
            && self.est_rows > 0.0
            && self.est_rows < crate::cost::SENTINEL_THRESHOLD
    }

    /// Observed-over-estimated cardinality: > 1 means the optimizer
    /// underestimated, < 1 overestimated. `None` when no estimate exists
    /// (including the NaN-sanitized `f64::MAX` sentinel, which would
    /// otherwise render as meaningless `drift 0.00x`).
    pub fn drift(&self) -> Option<f64> {
        if self.has_estimate() {
            Some(self.rows_out as f64 / self.est_rows)
        } else {
            None
        }
    }

    /// Observed-over-estimated network time: node wall milliseconds over
    /// the cost model's estimated round-trip milliseconds. Only meaningful
    /// for nodes that contacted a source under the multi-objective model.
    pub fn net_drift(&self) -> Option<f64> {
        if self.source_calls > 0 && self.est_net_ms.is_finite() && self.est_net_ms > 0.0 {
            Some(self.wall_ns as f64 / 1e6 / self.est_net_ms)
        } else {
            None
        }
    }
}

record! {
    /// One node's trace entry: identity, counters, and (when table tracing is
    /// on) the emitted binding table rendered in Figure 3.6 style.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct NodeTrace {
        /// Operator name (`query`, `parameterized query`, `external pred`,
        /// `filter`, `hash join`, `dup elim`).
        op: String = required,
        /// Human-readable operator summary (source, query text, predicate...),
        /// rendered only for a reader: on a traced run, and by EXPLAIN
        /// ANALYZE. Empty otherwise.
        detail: String = required,
        /// The counters recorded while the node ran.
        metrics: NodeMetrics = required,
        /// The emitted binding table, rendered; empty unless
        /// [`crate::exec::ExecOptions::trace`] was set.
        table: String = required,
    }
}

record! {
    /// The trace of one rule chain (one Figure 3.6 column), bottom-up.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct RuleTrace {
        /// Per-node entries in execution order.
        nodes: Vec<NodeTrace> = required,
        /// Result objects the constructor built from this chain's final table.
        constructed: usize = required,
        /// Wall-clock time of the whole chain, in nanoseconds.
        wall_ns: u64 = required,
        /// Why this chain produced nothing, when it failed and Partial mode
        /// dropped it (`None` for chains that ran to completion).
        error: Option<String> = before "the fault-tolerance layer",
    }
}

/// Which sources answered and which chains survived — the trace section
/// that distinguishes a complete answer from a degraded one. Only
/// meaningful under `OnSourceFailure::Partial`; in `Fail` mode a source
/// failure aborts the query before any trace is returned.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Completeness {
    /// Sources that answered at least one query successfully.
    pub sources_ok: Vec<Symbol>,
    /// Sources that stayed failed, with the last error observed.
    pub sources_failed: BTreeMap<Symbol, String>,
    /// Plan indices of the rule chains dropped because of failed sources.
    pub skipped_chains: Vec<usize>,
}

impl Completeness {
    /// Whether the answer is complete: no source failed, no chain dropped.
    pub fn is_complete(&self) -> bool {
        self.sources_failed.is_empty() && self.skipped_chains.is_empty()
    }
}

record! {
    /// One observed source-query cardinality — the §3.5 feedback signal
    /// consumed by [`crate::stats::StatsCache::record_trace`].
    #[derive(Clone, Debug, PartialEq)]
    pub struct Observation {
        /// The source the query was sent to.
        source: Symbol = required,
        /// The first tail pattern's top-level label (`None` = label variable).
        label: Option<Symbol> = required,
        /// Top-level objects in the source's answer.
        count: usize = required,
    }
}

record! {
    /// Everything one query execution recorded: per-rule node traces,
    /// statistics observations, per-source call counts, and result totals.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct QueryTrace {
        /// The query text, filled in by [`crate::Mediator::query_rule`] with
        /// [`crate::MediatorOptions::trace`] on and by
        /// [`crate::Mediator::explain_analyze`]; empty otherwise.
        query: String = required,
        /// One trace per rule chain, in plan order.
        rules: Vec<RuleTrace> = required,
        /// Observed source cardinalities, in execution order.
        observations: Vec<Observation> = required,
        /// Total queries sent to each source across all chains.
        source_calls: BTreeMap<Symbol, usize> = required [per_source],
        /// Retries performed per source (re-attempts beyond each call's first
        /// try, summed across all chains). Empty when nothing was retried.
        retries: BTreeMap<Symbol, usize> = before "the fault-tolerance layer" [per_source],
        /// Failed attempts per source (transient errors observed, including
        /// the ones later retries recovered from). Empty when nothing failed.
        failures: BTreeMap<Symbol, usize> = before "the fault-tolerance layer" [per_source],
        /// Total round-trip milliseconds per source across this query's
        /// *successful* calls, measured on the executor's injectable clock.
        /// Cache and memo hits contribute nothing — latency statistics must
        /// reflect what talking to the source actually costs.
        latency_ms: BTreeMap<Symbol, usize> = before "the multi-objective cost model" [per_source],
        /// Successful calls contributing to `latency_ms`, per source (the
        /// divisor for a mean; kept separate so EWMAs blend means, not sums).
        latency_calls: BTreeMap<Symbol, usize> = before "the multi-objective cost model" [per_source],
        /// Which sources answered and which chains were dropped (Partial
        /// mode); `Completeness::default()` — trivially complete — otherwise.
        completeness: Completeness = before "the fault-tolerance layer",
        /// Exact answer-cache hits per source. Empty when the cache is off.
        cache_hits: BTreeMap<Symbol, usize> = before "the answer cache" [per_source],
        /// Containment-probe cache hits per source. Empty when the cache is
        /// off.
        containment_hits: BTreeMap<Symbol, usize> = before "the answer cache" [per_source],
        /// Answer-cache misses per source (lookups that paid a round-trip).
        /// Empty when the cache is off.
        cache_misses: BTreeMap<Symbol, usize> = before "the answer cache" [per_source],
        /// Approximate bytes held by the answer cache after this query
        /// (printed-form size of the cached answers; 0 when the cache is
        /// off). A **process-wide gauge**, not attributable to this query:
        /// under a shared mediator it reflects every query served so far.
        bytes_cached: u64 = before "the answer cache",
        /// Answer-cache entries evicted **during this query** (capacity, TTL
        /// or explicit invalidation). A per-request delta — summing it over
        /// requests gives the cache's lifetime eviction count, so a shared
        /// mediator's metrics never double-count.
        cache_evictions: usize = before "the answer cache",
        /// Cache hits served from the warm (disk) tier during this query — a
        /// subset of the hit counts above, and a per-request delta like
        /// `cache_evictions`. 0 without a `--cache-dir`.
        cache_warm_hits: usize = before "the tiered cache",
        /// Hot-tier entries demoted to warm-only residence during this query
        /// (a per-request delta). With no warm tier configured, overflow is
        /// an eviction instead and this stays 0.
        cache_demotions: usize = before "the tiered cache",
        /// Live bytes indexed by the warm (disk) tier after this query — a
        /// **process-wide gauge** like `bytes_cached`, not attributable to
        /// this query. 0 without a `--cache-dir`.
        warm_bytes_cached: u64 = before "the tiered cache",
        /// Top-level result objects after construction and result dedup.
        result_count: usize = required,
        /// Top-level objects removed by final structural dedup across rules.
        result_dedup_removed: usize = required,
        /// Wall-clock time of the whole execution, in nanoseconds.
        wall_ns: u64 = required,
        /// Nanoseconds from execution start until the first answer rows
        /// surfaced at the merge sink (time-to-first-answer): the first
        /// non-empty batch emitted by a chain that ultimately succeeded. 0 when
        /// no rows were produced.
        first_rows_ns: u64 = before "streaming execution",
        /// Largest binding batch any node held at once, across all chains
        /// (max over the per-node `peak_batch_rows`).
        peak_batch_rows: usize = before "streaming execution",
        /// Approximate bytes of the largest resident batch across all chains.
        peak_bytes_resident: u64 = before "streaming execution",
    }
    per_source fold: add_per_source;
}

impl QueryTrace {
    /// All node traces across every rule, in execution order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeTrace> {
        self.rules.iter().flat_map(|r| r.nodes.iter())
    }

    /// Queries sent to `source` (0 when it was never contacted).
    pub fn calls(&self, source: Symbol) -> usize {
        self.source_calls.get(&source).copied().unwrap_or(0)
    }

    /// Total queries sent to all sources.
    pub fn total_source_calls(&self) -> usize {
        self.source_calls.values().sum()
    }

    /// Retries performed against `source` (0 when never retried).
    pub fn retries_for(&self, source: Symbol) -> usize {
        self.retries.get(&source).copied().unwrap_or(0)
    }

    /// Failed attempts observed against `source` (0 when it never failed).
    pub fn failures_for(&self, source: Symbol) -> usize {
        self.failures.get(&source).copied().unwrap_or(0)
    }

    /// Answer-cache hits (exact + containment) for `source`.
    pub fn cache_hits_for(&self, source: Symbol) -> usize {
        self.cache_hits.get(&source).copied().unwrap_or(0)
            + self.containment_hits.get(&source).copied().unwrap_or(0)
    }

    /// Total answer-cache hits across all sources (exact + containment).
    pub fn total_cache_hits(&self) -> usize {
        self.cache_hits.values().sum::<usize>() + self.containment_hits.values().sum::<usize>()
    }

    /// Total answer-cache misses across all sources.
    pub fn total_cache_misses(&self) -> usize {
        self.cache_misses.values().sum()
    }
}

/// Render a nanosecond count the way `EXPLAIN ANALYZE` prints timings.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// `Completeness` keeps a hand-written pair: `complete` is derived, and
// `sources_failed` maps to strings, not counts.

impl serde::Serialize for Completeness {
    fn to_value(&self) -> serde::Value {
        let failed = serde::Value::Object(
            self.sources_failed
                .iter()
                .map(|(s, msg)| (s.as_str(), msg.to_value()))
                .collect(),
        );
        serde::object([
            ("complete", self.is_complete().to_value()),
            ("sources_ok", self.sources_ok.to_value()),
            ("sources_failed", failed),
            ("skipped_chains", self.skipped_chains.to_value()),
        ])
    }
}

impl serde::Deserialize for Completeness {
    fn from_value(v: &serde::Value) -> std::result::Result<Completeness, serde::Error> {
        let failed_v = v
            .get("sources_failed")
            .ok_or_else(|| serde::Error::custom("missing field `sources_failed`"))?;
        let serde::Value::Object(pairs) = failed_v else {
            return Err(serde::Error::custom("`sources_failed` must be an object"));
        };
        let mut sources_failed = BTreeMap::new();
        for (k, msg) in pairs {
            sources_failed.insert(Symbol::intern(k), String::from_value(msg)?);
        }
        Ok(Completeness {
            sources_ok: serde::field(v, "sources_ok")?,
            sources_failed,
            skipped_chains: serde::field(v, "skipped_chains")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;
    use serde::{Deserialize, Serialize};

    fn sample() -> QueryTrace {
        QueryTrace {
            query: "S :- S:<cs_person {<year 3>}>@med".to_string(),
            rules: vec![RuleTrace {
                nodes: vec![NodeTrace {
                    op: "query".to_string(),
                    detail: "@whois: ...".to_string(),
                    metrics: NodeMetrics {
                        rows_in: 1,
                        rows_out: 2,
                        bindings_produced: 2,
                        source_calls: 1,
                        tuples_sent: 20,
                        dedup_hits: 0,
                        wall_ns: 12_345,
                        est_rows: 10.0,
                        est_cpu_rows: 12.0,
                        est_net_ms: 1.5,
                        est_mem_rows: 10.0,
                        cache_hits: 1,
                        containment_hits: 1,
                        cache_misses: 1,
                        peak_batch_rows: 2,
                        peak_bytes_resident: 48,
                    },
                    table: "| 1 | 'Joe Chung' |".to_string(),
                }],
                constructed: 2,
                wall_ns: 20_000,
                error: None,
            }],
            observations: vec![
                Observation {
                    source: sym("whois"),
                    label: Some(sym("person")),
                    count: 2,
                },
                Observation {
                    source: sym("cs"),
                    label: None,
                    count: 3,
                },
            ],
            source_calls: [(sym("whois"), 1), (sym("cs"), 2)].into_iter().collect(),
            retries: [(sym("whois"), 2)].into_iter().collect(),
            failures: [(sym("whois"), 2)].into_iter().collect(),
            latency_ms: [(sym("whois"), 6), (sym("cs"), 2)].into_iter().collect(),
            latency_calls: [(sym("whois"), 1), (sym("cs"), 2)].into_iter().collect(),
            completeness: Completeness {
                sources_ok: vec![sym("cs"), sym("whois")],
                sources_failed: BTreeMap::new(),
                skipped_chains: Vec::new(),
            },
            cache_hits: [(sym("cs"), 1)].into_iter().collect(),
            containment_hits: [(sym("whois"), 1)].into_iter().collect(),
            cache_misses: [(sym("whois"), 1), (sym("cs"), 1)].into_iter().collect(),
            bytes_cached: 512,
            cache_evictions: 1,
            cache_warm_hits: 1,
            cache_demotions: 1,
            warm_bytes_cached: 256,
            result_count: 1,
            result_dedup_removed: 1,
            wall_ns: 99_000,
            first_rows_ns: 42_000,
            peak_batch_rows: 2,
            peak_bytes_resident: 48,
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let trace = sample();
        let text = serde_json::to_string_pretty(&trace).unwrap();
        let parsed: QueryTrace = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, trace);
        // The schema names of DESIGN.md §6 are all present.
        for key in [
            "\"query\"",
            "\"rules\"",
            "\"nodes\"",
            "\"metrics\"",
            "\"rows_in\"",
            "\"rows_out\"",
            "\"bindings_produced\"",
            "\"source_calls\"",
            "\"tuples_sent\"",
            "\"dedup_hits\"",
            "\"wall_ns\"",
            "\"est_rows\"",
            "\"est_cpu_rows\"",
            "\"est_net_ms\"",
            "\"est_mem_rows\"",
            "\"latency_ms\"",
            "\"latency_calls\"",
            "\"observations\"",
            "\"result_count\"",
            "\"result_dedup_removed\"",
            "\"retries\"",
            "\"failures\"",
            "\"completeness\"",
            "\"sources_ok\"",
            "\"sources_failed\"",
            "\"skipped_chains\"",
            "\"cache_hits\"",
            "\"containment_hits\"",
            "\"cache_misses\"",
            "\"bytes_cached\"",
            "\"cache_evictions\"",
            "\"cache_warm_hits\"",
            "\"cache_demotions\"",
            "\"warm_bytes_cached\"",
            "\"first_rows_ns\"",
            "\"peak_batch_rows\"",
            "\"peak_bytes_resident\"",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    /// The keys of a JSON object, in the order they were written.
    fn keys(v: &serde::Value) -> Vec<&str> {
        let pairs = v.as_object().expect("a JSON object");
        pairs.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn json_key_sequences_are_pinned() {
        // Golden: the exact keys, in order, of every record of the trace
        // schema. A consumer diffing two `--trace-json` files sees a
        // reordering as a change; adding a counter appends to one of
        // these lists and nowhere else in this test.
        let trace = sample();
        let rule = &trace.rules[0];
        let node = &rule.nodes[0];
        assert_eq!(
            keys(&node.metrics.to_value()),
            [
                "rows_in",
                "rows_out",
                "bindings_produced",
                "source_calls",
                "tuples_sent",
                "dedup_hits",
                "wall_ns",
                "est_rows",
                "est_cpu_rows",
                "est_net_ms",
                "est_mem_rows",
                "cache_hits",
                "containment_hits",
                "cache_misses",
                "peak_batch_rows",
                "peak_bytes_resident",
            ]
        );
        assert_eq!(keys(&node.to_value()), ["op", "detail", "metrics", "table"]);
        assert_eq!(
            keys(&rule.to_value()),
            ["nodes", "constructed", "wall_ns", "error"]
        );
        assert_eq!(
            keys(&trace.observations[0].to_value()),
            ["source", "label", "count"]
        );
        assert_eq!(
            keys(&trace.completeness.to_value()),
            ["complete", "sources_ok", "sources_failed", "skipped_chains"]
        );
        assert_eq!(
            keys(&trace.to_value()),
            [
                "query",
                "rules",
                "observations",
                "source_calls",
                "retries",
                "failures",
                "latency_ms",
                "latency_calls",
                "completeness",
                "cache_hits",
                "containment_hits",
                "cache_misses",
                "bytes_cached",
                "cache_evictions",
                "cache_warm_hits",
                "cache_demotions",
                "warm_bytes_cached",
                "result_count",
                "result_dedup_removed",
                "wall_ns",
                "first_rows_ns",
                "peak_batch_rows",
                "peak_bytes_resident",
            ]
        );
        // A per-source map is an object keyed by source name.
        let calls = trace.to_value();
        let mut sources = keys(calls.get("source_calls").unwrap());
        sources.sort_unstable();
        assert_eq!(sources, ["cs", "whois"]);
    }

    /// `v` without its key `name`.
    fn without(v: &serde::Value, name: &str) -> serde::Value {
        let pairs = v.as_object().expect("a JSON object");
        serde::Value::Object(pairs.iter().filter(|(k, _)| k != name).cloned().collect())
    }

    /// The back-compat table of one record, one row per declared field.
    /// An optional field's key removed: the record parses, the field
    /// reads `absent` (what the type defaults to, as JSON) and is written
    /// back, nothing else changed. A required field's key removed: an
    /// error that names the key.
    fn check_presence_table<R>(fields: &[Field], sample: &R, absent: &dyn Fn(&str) -> serde::Value)
    where
        R: Serialize + Deserialize + std::fmt::Debug,
    {
        let full = sample.to_value();
        assert_eq!(
            keys(&full),
            fields.iter().map(|f| f.name).collect::<Vec<_>>()
        );
        for field in fields {
            let parsed = R::from_value(&without(&full, field.name));
            match field.absent_before {
                Some(_) => {
                    let back = parsed.expect(field.name).to_value();
                    assert_eq!(keys(&back), keys(&full), "{} is written back", field.name);
                    assert_eq!(back.get(field.name), Some(&absent(field.name)));
                    assert_eq!(without(&back, field.name), without(&full, field.name));
                }
                None => {
                    let err = parsed.expect_err(field.name).to_string();
                    assert!(err.contains(&format!("`{}`", field.name)), "{err}");
                }
            }
        }
    }

    #[test]
    fn old_traces_parse_field_by_field() {
        // Driven by `FIELDS`, so a field declared tomorrow is covered
        // without a test of its own. Each of the five stories this
        // replaces is a set of rows here — a trace from before
        //   streaming: NodeMetrics peak_batch_rows, peak_bytes_resident,
        //     tuples_sent; QueryTrace first_rows_ns, peak_batch_rows,
        //     peak_bytes_resident
        //   fault tolerance: QueryTrace retries, failures, completeness
        //     (and RuleTrace error, which no story removed)
        //   the cache: NodeMetrics cache_hits, containment_hits,
        //     cache_misses; QueryTrace the same three maps, bytes_cached,
        //     cache_evictions
        //   tiering: QueryTrace cache_warm_hits, cache_demotions,
        //     warm_bytes_cached
        //   the cost model: NodeMetrics est_cpu_rows, est_net_ms,
        //     est_mem_rows; QueryTrace latency_ms, latency_calls
        // — and every required key's removal is an error, which none
        // of them checked.
        fn default_of<R: Default + Serialize>() -> impl Fn(&str) -> serde::Value {
            let v = R::default().to_value();
            move |name| v.get(name).expect("a declared key").clone()
        }
        let trace = sample();
        let rule = &trace.rules[0];
        let node = &rule.nodes[0];
        check_presence_table(
            NodeMetrics::FIELDS,
            &node.metrics,
            &default_of::<NodeMetrics>(),
        );
        check_presence_table(NodeTrace::FIELDS, node, &default_of::<NodeTrace>());
        check_presence_table(RuleTrace::FIELDS, rule, &default_of::<RuleTrace>());
        check_presence_table(QueryTrace::FIELDS, &trace, &default_of::<QueryTrace>());
        // `Observation` declares no optional field, so nothing is asked.
        check_presence_table(Observation::FIELDS, &trace.observations[0], &|name| {
            panic!("{name} is required")
        });
        assert!(NodeTrace::FIELDS.iter().all(|f| f.absent_before.is_none()));
        assert_eq!(
            QueryTrace::FIELDS[4],
            Field {
                name: "retries",
                absent_before: Some("the fault-tolerance layer"),
            }
        );

        // The oldest trace there can be: every optional key gone at every
        // level at once. The per-field rows compose.
        fn strip(v: &serde::Value, fields: &[Field]) -> serde::Value {
            let optional = fields.iter().filter(|f| f.absent_before.is_some());
            optional.fold(v.clone(), |v, f| without(&v, f.name))
        }
        fn map_array(v: &mut serde::Value, key: &str, f: &dyn Fn(&serde::Value) -> serde::Value) {
            let serde::Value::Object(pairs) = v else {
                panic!("expected an object");
            };
            let slot = &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1;
            *slot = serde::Value::Array(slot.as_array().expect(key).iter().map(f).collect());
        }
        let mut oldest = strip(&trace.to_value(), QueryTrace::FIELDS);
        map_array(&mut oldest, "rules", &|rule| {
            let mut rule = strip(rule, RuleTrace::FIELDS);
            map_array(&mut rule, "nodes", &|node| {
                let metrics = strip(node.get("metrics").unwrap(), NodeMetrics::FIELDS);
                let mut node = node.clone();
                if let serde::Value::Object(pairs) = &mut node {
                    pairs.iter_mut().find(|(k, _)| k == "metrics").unwrap().1 = metrics;
                }
                node
            });
            rule
        });
        let parsed = QueryTrace::from_value(&oldest).unwrap();
        assert_eq!(parsed.query, trace.query);
        assert_eq!(parsed.source_calls, trace.source_calls);
        assert!(parsed.completeness.is_complete());
        assert_eq!(parsed.total_cache_hits() + parsed.total_cache_misses(), 0);
        assert!(parsed.latency_ms.is_empty() && parsed.retries.is_empty());
        assert_eq!((parsed.first_rows_ns, parsed.cache_warm_hits), (0, 0));
        let m = &parsed.rules[0].nodes[0].metrics;
        assert_eq!((m.rows_out, m.est_rows), (2, 10.0));
        assert_eq!((m.tuples_sent, m.cache_hits, m.peak_batch_rows), (0, 0, 0));
        assert_eq!(
            (m.est_cpu_rows, m.est_net_ms, m.est_mem_rows),
            (0.0, 0.0, 0.0)
        );
        assert_eq!(keys(&parsed.to_value()), keys(&trace.to_value()));
    }

    #[test]
    fn sentinel_and_non_finite_estimates_have_no_drift() {
        // The planner sanitizes NaN statistics to f64::MAX for ordering
        // determinism; that sentinel must not divide into a "drift 0.00x".
        let mut m = NodeMetrics {
            rows_out: 5,
            est_rows: f64::MAX,
            ..Default::default()
        };
        assert!(!m.has_estimate());
        assert_eq!(m.drift(), None);
        m.est_rows = f64::NAN;
        assert_eq!(m.drift(), None);
        m.est_rows = f64::INFINITY;
        assert_eq!(m.drift(), None);
        m.est_rows = 2.5;
        assert!(m.has_estimate());
        assert!((m.drift().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn net_drift_needs_source_calls_and_an_estimate() {
        let mut m = NodeMetrics {
            source_calls: 1,
            wall_ns: 3_000_000, // 3 ms
            est_net_ms: 2.0,
            ..Default::default()
        };
        assert!((m.net_drift().unwrap() - 1.5).abs() < 1e-12);
        m.source_calls = 0;
        assert_eq!(m.net_drift(), None);
        m.source_calls = 1;
        m.est_net_ms = 0.0;
        assert_eq!(m.net_drift(), None);
    }

    #[test]
    fn degraded_completeness_round_trips() {
        let mut trace = sample();
        trace.completeness = Completeness {
            sources_ok: vec![sym("cs")],
            sources_failed: [(sym("whois"), "source unavailable: down".to_string())]
                .into_iter()
                .collect(),
            skipped_chains: vec![0],
        };
        trace.rules[0].error = Some("source 'whois' unavailable: down".to_string());
        assert!(!trace.completeness.is_complete());
        let text = serde_json::to_string(&trace).unwrap();
        assert!(text.contains("\"complete\":false"), "{text}");
        let parsed: QueryTrace = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.retries_for(sym("whois")), 2);
        assert_eq!(parsed.failures_for(sym("whois")), 2);
        assert_eq!(parsed.retries_for(sym("cs")), 0);
        assert_eq!(parsed.failures_for(sym("cs")), 0);
    }

    #[test]
    fn none_label_round_trips_as_null() {
        let trace = sample();
        let text = serde_json::to_string(&trace.observations[1].to_value()).unwrap();
        assert!(text.contains("\"label\":null"), "{text}");
        let parsed = Observation::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed.label, None);
    }

    #[test]
    fn accessors() {
        let trace = sample();
        assert_eq!(trace.nodes().count(), 1);
        assert_eq!(trace.calls(sym("cs")), 2);
        assert_eq!(trace.calls(sym("nowhere")), 0);
        assert_eq!(trace.total_source_calls(), 3);
        let m = &trace.rules[0].nodes[0].metrics;
        assert!((m.drift().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(NodeMetrics::default().drift(), None);
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert_eq!(format_ns(950), "950ns");
        assert_eq!(format_ns(1_500), "1.5µs");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_200_000_000), "3.20s");
    }
}
