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
//! The JSON schema (see DESIGN.md §6 for the worked example) follows the
//! `oem::json` conventions: hand-written [`serde::Serialize`] /
//! [`serde::Deserialize`] impls over the vendored value model, so a trace
//! round-trips through `serde_json` without derives.

use oem::Symbol;
use std::collections::BTreeMap;

/// Counters one datamerge node records during execution.
///
/// | counter             | unit  | emitted by                              |
/// |---------------------|-------|-----------------------------------------|
/// | `rows_in`           | rows  | every node                              |
/// | `rows_out`          | rows  | every node                              |
/// | `bindings_produced` | rows  | query, param. query, hash join, ext. pred |
/// | `source_calls`      | calls | query, param. query, hash join          |
/// | `tuples_sent`       | tuples | param. query                           |
/// | `dedup_hits`        | rows  | dup elim                                |
/// | `wall_ns`           | ns    | every node                              |
/// | `est_rows`          | rows  | every node (from the optimizer)         |
/// | `cache_hits`        | hits  | query, param. query, hash join (cache on) |
/// | `containment_hits`  | hits  | query, param. query, hash join (cache on) |
/// | `cache_misses`      | calls | query, param. query, hash join (cache on) |
/// | `peak_batch_rows`   | rows  | every node                              |
/// | `peak_bytes_resident` | bytes | every node                            |
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeMetrics {
    /// Rows in the binding table flowing *into* the node.
    pub rows_in: usize,
    /// Rows in the binding table the node emitted.
    pub rows_out: usize,
    /// Binding rows extracted from source results or produced by external
    /// predicates. Zero for pure filters; for a parameterized query,
    /// memoized parameter tuples produce no new bindings.
    pub bindings_produced: usize,
    /// Source round-trips this node performed (bind-join vs hash-join cost
    /// accounting).
    pub source_calls: usize,
    /// Parameter tuples those round-trips carried (parameterized query
    /// nodes only): equal to `source_calls` when every call asked about
    /// one tuple, larger when calls carried value sets.
    pub tuples_sent: usize,
    /// Rows removed by duplicate elimination (dup-elim nodes only).
    pub dedup_hits: usize,
    /// Wall-clock time spent executing the node, in nanoseconds.
    pub wall_ns: u64,
    /// The optimizer's estimated output cardinality for this node, in rows
    /// (what `EXPLAIN ANALYZE` prints next to `rows_out` as drift).
    pub est_rows: f64,
    /// The cost model's estimated locally-processed rows for this node
    /// (0 when the scalar model planned, or for pure filter nodes).
    pub est_cpu_rows: f64,
    /// The cost model's estimated round-trip milliseconds for this node
    /// (0 for nodes that never contact a source).
    pub est_net_ms: f64,
    /// The cost model's estimated resident rows for this node (hash-join
    /// build sides, copied source answers; 0 when unknown).
    pub est_mem_rows: f64,
    /// Source queries this node served from the answer cache by exact
    /// canonical-key match (zero when the cache is off).
    pub cache_hits: usize,
    /// Source queries served by filtering a broader cached answer through
    /// the containment probe (zero when the cache is off).
    pub containment_hits: usize,
    /// Source queries that consulted the answer cache and fell through to
    /// a round-trip (zero when the cache is off).
    pub cache_misses: usize,
    /// Largest binding batch the node held at once: the biggest batch it
    /// emitted, bounded by [`crate::exec::ExecOptions::batch_size`].
    pub peak_batch_rows: usize,
    /// Approximate bytes of the largest resident batch (same resolution as
    /// `peak_batch_rows`; see `crate::table::approx_row_bytes`).
    pub peak_bytes_resident: u64,
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

/// One node's trace entry: identity, counters, and (when table tracing is
/// on) the emitted binding table rendered in Figure 3.6 style.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeTrace {
    /// Operator name (`query`, `parameterized query`, `external pred`,
    /// `filter`, `hash join`, `dup elim`).
    pub op: String,
    /// Human-readable operator summary (source, query text, predicate...).
    pub detail: String,
    /// The counters recorded while the node ran.
    pub metrics: NodeMetrics,
    /// The emitted binding table, rendered; empty unless
    /// [`crate::exec::ExecOptions::trace`] was set.
    pub table: String,
}

/// The trace of one rule chain (one Figure 3.6 column), bottom-up.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuleTrace {
    /// Per-node entries in execution order.
    pub nodes: Vec<NodeTrace>,
    /// Result objects the constructor built from this chain's final table.
    pub constructed: usize,
    /// Wall-clock time of the whole chain, in nanoseconds.
    pub wall_ns: u64,
    /// Why this chain produced nothing, when it failed and Partial mode
    /// dropped it (`None` for chains that ran to completion).
    pub error: Option<String>,
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

/// One observed source-query cardinality — the §3.5 feedback signal
/// consumed by [`crate::stats::StatsCache::record_trace`].
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// The source the query was sent to.
    pub source: Symbol,
    /// The first tail pattern's top-level label (`None` = label variable).
    pub label: Option<Symbol>,
    /// Top-level objects in the source's answer.
    pub count: usize,
}

/// Everything one query execution recorded: per-rule node traces,
/// statistics observations, per-source call counts, and result totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryTrace {
    /// The query text (filled in by [`crate::Mediator::query_rule`];
    /// empty when the engine is driven directly).
    pub query: String,
    /// One trace per rule chain, in plan order.
    pub rules: Vec<RuleTrace>,
    /// Observed source cardinalities, in execution order.
    pub observations: Vec<Observation>,
    /// Total queries sent to each source across all chains.
    pub source_calls: BTreeMap<Symbol, usize>,
    /// Retries performed per source (re-attempts beyond each call's first
    /// try, summed across all chains). Empty when nothing was retried.
    pub retries: BTreeMap<Symbol, usize>,
    /// Failed attempts per source (transient errors observed, including
    /// the ones later retries recovered from). Empty when nothing failed.
    pub failures: BTreeMap<Symbol, usize>,
    /// Total round-trip milliseconds per source across this query's
    /// *successful* calls, measured on the executor's injectable clock.
    /// Cache and memo hits contribute nothing — latency statistics must
    /// reflect what talking to the source actually costs.
    pub latency_ms: BTreeMap<Symbol, usize>,
    /// Successful calls contributing to `latency_ms`, per source (the
    /// divisor for a mean; kept separate so EWMAs blend means, not sums).
    pub latency_calls: BTreeMap<Symbol, usize>,
    /// Which sources answered and which chains were dropped (Partial
    /// mode); `Completeness::default()` — trivially complete — otherwise.
    pub completeness: Completeness,
    /// Exact answer-cache hits per source. Empty when the cache is off.
    pub cache_hits: BTreeMap<Symbol, usize>,
    /// Containment-probe cache hits per source. Empty when the cache is
    /// off.
    pub containment_hits: BTreeMap<Symbol, usize>,
    /// Answer-cache misses per source (lookups that paid a round-trip).
    /// Empty when the cache is off.
    pub cache_misses: BTreeMap<Symbol, usize>,
    /// Approximate bytes held by the answer cache after this query
    /// (printed-form size of the cached answers; 0 when the cache is
    /// off). A **process-wide gauge**, not attributable to this query:
    /// under a shared mediator it reflects every query served so far.
    pub bytes_cached: u64,
    /// Answer-cache entries evicted **during this query** (capacity, TTL
    /// or explicit invalidation). A per-request delta — summing it over
    /// requests gives the cache's lifetime eviction count, so a shared
    /// mediator's metrics never double-count.
    pub cache_evictions: usize,
    /// Cache hits served from the warm (disk) tier during this query — a
    /// subset of the hit counts above, and a per-request delta like
    /// `cache_evictions`. 0 without a `--cache-dir`.
    pub cache_warm_hits: usize,
    /// Hot-tier entries demoted to warm-only residence during this query
    /// (a per-request delta). With no warm tier configured, overflow is
    /// an eviction instead and this stays 0.
    pub cache_demotions: usize,
    /// Live bytes indexed by the warm (disk) tier after this query — a
    /// **process-wide gauge** like `bytes_cached`, not attributable to
    /// this query. 0 without a `--cache-dir`.
    pub warm_bytes_cached: u64,
    /// Top-level result objects after construction and result dedup.
    pub result_count: usize,
    /// Top-level objects removed by final structural dedup across rules.
    pub result_dedup_removed: usize,
    /// Wall-clock time of the whole execution, in nanoseconds.
    pub wall_ns: u64,
    /// Nanoseconds from execution start until the first answer rows
    /// surfaced at the merge sink (time-to-first-answer): the first
    /// non-empty batch emitted by a chain that ultimately succeeded. 0 when
    /// no rows were produced.
    pub first_rows_ns: u64,
    /// Largest binding batch any node held at once, across all chains
    /// (max over the per-node `peak_batch_rows`).
    pub peak_batch_rows: usize,
    /// Approximate bytes of the largest resident batch across all chains.
    pub peak_bytes_resident: u64,
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

// ---- JSON (serde) impls — the QueryTrace schema of DESIGN.md §6 ---------

impl serde::Serialize for NodeMetrics {
    fn to_value(&self) -> serde::Value {
        serde::object([
            ("rows_in", self.rows_in.to_value()),
            ("rows_out", self.rows_out.to_value()),
            ("bindings_produced", self.bindings_produced.to_value()),
            ("source_calls", self.source_calls.to_value()),
            ("tuples_sent", self.tuples_sent.to_value()),
            ("dedup_hits", self.dedup_hits.to_value()),
            ("wall_ns", self.wall_ns.to_value()),
            ("est_rows", self.est_rows.to_value()),
            ("est_cpu_rows", self.est_cpu_rows.to_value()),
            ("est_net_ms", self.est_net_ms.to_value()),
            ("est_mem_rows", self.est_mem_rows.to_value()),
            ("cache_hits", self.cache_hits.to_value()),
            ("containment_hits", self.containment_hits.to_value()),
            ("cache_misses", self.cache_misses.to_value()),
            ("peak_batch_rows", self.peak_batch_rows.to_value()),
            ("peak_bytes_resident", self.peak_bytes_resident.to_value()),
        ])
    }
}

/// Read an optional numeric field, defaulting when absent (traces
/// exported before the field existed must still parse).
fn optional_count(v: &serde::Value, name: &str) -> std::result::Result<usize, serde::Error> {
    match v.get(name) {
        Some(n) => <usize as serde::Deserialize>::from_value(n),
        None => Ok(0),
    }
}

/// [`optional_count`] for `u64` fields.
fn optional_u64(v: &serde::Value, name: &str) -> std::result::Result<u64, serde::Error> {
    match v.get(name) {
        Some(n) => <u64 as serde::Deserialize>::from_value(n),
        None => Ok(0),
    }
}

/// [`optional_count`] for `f64` fields (cost-component estimates absent
/// in traces exported before the multi-objective cost model).
fn optional_f64(v: &serde::Value, name: &str) -> std::result::Result<f64, serde::Error> {
    match v.get(name) {
        Some(n) => <f64 as serde::Deserialize>::from_value(n),
        None => Ok(0.0),
    }
}

impl serde::Deserialize for NodeMetrics {
    fn from_value(v: &serde::Value) -> std::result::Result<NodeMetrics, serde::Error> {
        Ok(NodeMetrics {
            rows_in: serde::field(v, "rows_in")?,
            rows_out: serde::field(v, "rows_out")?,
            bindings_produced: serde::field(v, "bindings_produced")?,
            source_calls: serde::field(v, "source_calls")?,
            dedup_hits: serde::field(v, "dedup_hits")?,
            wall_ns: serde::field(v, "wall_ns")?,
            est_rows: serde::field(v, "est_rows")?,
            // Absent in traces exported before the multi-objective model.
            est_cpu_rows: optional_f64(v, "est_cpu_rows")?,
            est_net_ms: optional_f64(v, "est_net_ms")?,
            est_mem_rows: optional_f64(v, "est_mem_rows")?,
            // Absent in traces exported before the answer cache.
            cache_hits: optional_count(v, "cache_hits")?,
            containment_hits: optional_count(v, "containment_hits")?,
            cache_misses: optional_count(v, "cache_misses")?,
            // Absent in traces exported before streaming execution.
            peak_batch_rows: optional_count(v, "peak_batch_rows")?,
            peak_bytes_resident: optional_u64(v, "peak_bytes_resident")?,
            // Absent in traces exported before set-valued bind joins.
            tuples_sent: optional_count(v, "tuples_sent")?,
        })
    }
}

impl serde::Serialize for NodeTrace {
    fn to_value(&self) -> serde::Value {
        serde::object([
            ("op", self.op.to_value()),
            ("detail", self.detail.to_value()),
            ("metrics", self.metrics.to_value()),
            ("table", self.table.to_value()),
        ])
    }
}

impl serde::Deserialize for NodeTrace {
    fn from_value(v: &serde::Value) -> std::result::Result<NodeTrace, serde::Error> {
        Ok(NodeTrace {
            op: serde::field(v, "op")?,
            detail: serde::field(v, "detail")?,
            metrics: serde::field(v, "metrics")?,
            table: serde::field(v, "table")?,
        })
    }
}

impl serde::Serialize for RuleTrace {
    fn to_value(&self) -> serde::Value {
        serde::object([
            ("nodes", self.nodes.to_value()),
            ("constructed", self.constructed.to_value()),
            ("wall_ns", self.wall_ns.to_value()),
            ("error", self.error.to_value()),
        ])
    }
}

impl serde::Deserialize for RuleTrace {
    fn from_value(v: &serde::Value) -> std::result::Result<RuleTrace, serde::Error> {
        Ok(RuleTrace {
            nodes: serde::field(v, "nodes")?,
            constructed: serde::field(v, "constructed")?,
            wall_ns: serde::field(v, "wall_ns")?,
            // Absent in traces exported before the fault-tolerance layer.
            error: match v.get("error") {
                Some(e) => Option::<String>::from_value(e)?,
                None => None,
            },
        })
    }
}

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

impl serde::Serialize for Observation {
    fn to_value(&self) -> serde::Value {
        serde::object([
            ("source", self.source.to_value()),
            ("label", self.label.to_value()),
            ("count", self.count.to_value()),
        ])
    }
}

impl serde::Deserialize for Observation {
    fn from_value(v: &serde::Value) -> std::result::Result<Observation, serde::Error> {
        Ok(Observation {
            source: serde::field(v, "source")?,
            label: serde::field(v, "label")?,
            count: serde::field(v, "count")?,
        })
    }
}

/// Serialize a per-source counter map as a JSON object keyed by source
/// name; BTreeMap iteration keeps the key order deterministic.
fn counter_map_to_value(map: &BTreeMap<Symbol, usize>) -> serde::Value {
    serde::Value::Object(
        map.iter()
            .map(|(s, n)| (s.as_str(), serde::Serialize::to_value(n)))
            .collect(),
    )
}

/// The inverse of [`counter_map_to_value`], for the named field of `v`.
/// A missing field reads as empty (traces exported before the
/// fault-tolerance layer lack `retries`/`failures`).
fn counter_map_field(
    v: &serde::Value,
    name: &str,
    required: bool,
) -> std::result::Result<BTreeMap<Symbol, usize>, serde::Error> {
    let Some(field_v) = v.get(name) else {
        if required {
            return Err(serde::Error::custom(format!("missing field `{name}`")));
        }
        return Ok(BTreeMap::new());
    };
    let serde::Value::Object(pairs) = field_v else {
        return Err(serde::Error::custom(format!("`{name}` must be an object")));
    };
    let mut map = BTreeMap::new();
    for (k, n) in pairs {
        map.insert(
            Symbol::intern(k),
            <usize as serde::Deserialize>::from_value(n)?,
        );
    }
    Ok(map)
}

impl serde::Serialize for QueryTrace {
    fn to_value(&self) -> serde::Value {
        serde::object([
            ("query", self.query.to_value()),
            ("rules", self.rules.to_value()),
            ("observations", self.observations.to_value()),
            ("source_calls", counter_map_to_value(&self.source_calls)),
            ("retries", counter_map_to_value(&self.retries)),
            ("failures", counter_map_to_value(&self.failures)),
            ("latency_ms", counter_map_to_value(&self.latency_ms)),
            ("latency_calls", counter_map_to_value(&self.latency_calls)),
            ("completeness", self.completeness.to_value()),
            ("cache_hits", counter_map_to_value(&self.cache_hits)),
            (
                "containment_hits",
                counter_map_to_value(&self.containment_hits),
            ),
            ("cache_misses", counter_map_to_value(&self.cache_misses)),
            ("bytes_cached", self.bytes_cached.to_value()),
            ("cache_evictions", self.cache_evictions.to_value()),
            ("cache_warm_hits", self.cache_warm_hits.to_value()),
            ("cache_demotions", self.cache_demotions.to_value()),
            ("warm_bytes_cached", self.warm_bytes_cached.to_value()),
            ("result_count", self.result_count.to_value()),
            ("result_dedup_removed", self.result_dedup_removed.to_value()),
            ("wall_ns", self.wall_ns.to_value()),
            ("first_rows_ns", self.first_rows_ns.to_value()),
            ("peak_batch_rows", self.peak_batch_rows.to_value()),
            ("peak_bytes_resident", self.peak_bytes_resident.to_value()),
        ])
    }
}

impl serde::Deserialize for QueryTrace {
    fn from_value(v: &serde::Value) -> std::result::Result<QueryTrace, serde::Error> {
        Ok(QueryTrace {
            query: serde::field(v, "query")?,
            rules: serde::field(v, "rules")?,
            observations: serde::field(v, "observations")?,
            source_calls: counter_map_field(v, "source_calls", true)?,
            retries: counter_map_field(v, "retries", false)?,
            failures: counter_map_field(v, "failures", false)?,
            // Absent in traces exported before the multi-objective model.
            latency_ms: counter_map_field(v, "latency_ms", false)?,
            latency_calls: counter_map_field(v, "latency_calls", false)?,
            completeness: match v.get("completeness") {
                Some(c) => Completeness::from_value(c)?,
                None => Completeness::default(),
            },
            // Absent in traces exported before the answer cache.
            cache_hits: counter_map_field(v, "cache_hits", false)?,
            containment_hits: counter_map_field(v, "containment_hits", false)?,
            cache_misses: counter_map_field(v, "cache_misses", false)?,
            bytes_cached: match v.get("bytes_cached") {
                Some(n) => <u64 as serde::Deserialize>::from_value(n)?,
                None => 0,
            },
            cache_evictions: optional_count(v, "cache_evictions")?,
            // Absent in traces exported before the tiered cache.
            cache_warm_hits: optional_count(v, "cache_warm_hits")?,
            cache_demotions: optional_count(v, "cache_demotions")?,
            warm_bytes_cached: optional_u64(v, "warm_bytes_cached")?,
            result_count: serde::field(v, "result_count")?,
            result_dedup_removed: serde::field(v, "result_dedup_removed")?,
            wall_ns: serde::field(v, "wall_ns")?,
            // Absent in traces exported before streaming execution.
            first_rows_ns: optional_u64(v, "first_rows_ns")?,
            peak_batch_rows: optional_count(v, "peak_batch_rows")?,
            peak_bytes_resident: optional_u64(v, "peak_bytes_resident")?,
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

    #[test]
    fn old_traces_without_streaming_fields_still_parse() {
        // A trace exported before streaming execution lacks the
        // time-to-first-answer and peak-residency fields everywhere, and
        // the tuples-per-call counter that came later still.
        let mut trace = sample();
        trace.first_rows_ns = 0;
        trace.peak_batch_rows = 0;
        trace.peak_bytes_resident = 0;
        let m = &mut trace.rules[0].nodes[0].metrics;
        m.peak_batch_rows = 0;
        m.peak_bytes_resident = 0;
        m.tuples_sent = 0;
        let mut v = trace.to_value();
        let drop_streaming_keys = |v: &mut serde::Value| {
            if let serde::Value::Object(pairs) = v {
                pairs.retain(|(k, _)| {
                    !matches!(
                        &**k,
                        "first_rows_ns" | "peak_batch_rows" | "peak_bytes_resident" | "tuples_sent"
                    )
                });
            }
        };
        drop_streaming_keys(&mut v);
        if let serde::Value::Object(pairs) = &mut v {
            let rules = &mut pairs.iter_mut().find(|(k, _)| k == "rules").unwrap().1;
            if let serde::Value::Array(rules) = rules {
                for rule in rules {
                    if let serde::Value::Object(rp) = rule {
                        let nodes = &mut rp.iter_mut().find(|(k, _)| k == "nodes").unwrap().1;
                        if let serde::Value::Array(nodes) = nodes {
                            for node in nodes {
                                if let serde::Value::Object(np) = node {
                                    let metrics =
                                        &mut np.iter_mut().find(|(k, _)| k == "metrics").unwrap().1;
                                    drop_streaming_keys(metrics);
                                }
                            }
                        }
                    }
                }
            }
        }
        let parsed = QueryTrace::from_value(&v).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.first_rows_ns, 0);
    }

    #[test]
    fn old_traces_without_fault_fields_still_parse() {
        // A trace exported before the fault-tolerance layer lacks
        // `retries`/`failures`/`completeness` and per-rule `error`.
        let mut trace = sample();
        trace.retries.clear();
        trace.failures.clear();
        trace.completeness = Completeness::default();
        let mut v = trace.to_value();
        if let serde::Value::Object(pairs) = &mut v {
            pairs.retain(|(k, _)| !matches!(&**k, "retries" | "failures" | "completeness"));
        }
        let parsed = QueryTrace::from_value(&v).unwrap();
        assert_eq!(parsed, trace);
        assert!(parsed.completeness.is_complete());
    }

    #[test]
    fn old_traces_without_cache_fields_still_parse() {
        // A trace exported before the answer cache lacks the cache counter
        // maps and the per-node cache counters.
        let mut trace = sample();
        trace.cache_hits.clear();
        trace.containment_hits.clear();
        trace.cache_misses.clear();
        trace.bytes_cached = 0;
        trace.cache_evictions = 0;
        let m = &mut trace.rules[0].nodes[0].metrics;
        m.cache_hits = 0;
        m.containment_hits = 0;
        m.cache_misses = 0;
        let mut v = trace.to_value();
        let drop_cache_keys = |v: &mut serde::Value| {
            if let serde::Value::Object(pairs) = v {
                pairs.retain(|(k, _)| {
                    !matches!(
                        &**k,
                        "cache_hits"
                            | "containment_hits"
                            | "cache_misses"
                            | "bytes_cached"
                            | "cache_evictions"
                    )
                });
            }
        };
        drop_cache_keys(&mut v);
        fn field_mut<'a>(v: &'a mut serde::Value, name: &str) -> &'a mut serde::Value {
            let serde::Value::Object(pairs) = v else {
                panic!("expected object");
            };
            &mut pairs
                .iter_mut()
                .find(|(k, _)| k == name)
                .expect("field present in sample trace")
                .1
        }
        fn elems_mut(v: &mut serde::Value) -> &mut Vec<serde::Value> {
            let serde::Value::Array(items) = v else {
                panic!("expected array");
            };
            items
        }
        for rule in elems_mut(field_mut(&mut v, "rules")) {
            for node in elems_mut(field_mut(rule, "nodes")) {
                drop_cache_keys(field_mut(node, "metrics"));
            }
        }
        let parsed = QueryTrace::from_value(&v).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.total_cache_hits(), 0);
        assert_eq!(parsed.total_cache_misses(), 0);
    }

    #[test]
    fn old_traces_without_tier_fields_still_parse() {
        // A trace exported before the tiered cache lacks the warm-tier
        // deltas and gauge; they must default to zero.
        let mut trace = sample();
        trace.cache_warm_hits = 0;
        trace.cache_demotions = 0;
        trace.warm_bytes_cached = 0;
        let mut v = trace.to_value();
        if let serde::Value::Object(pairs) = &mut v {
            pairs.retain(|(k, _)| {
                !matches!(
                    &**k,
                    "cache_warm_hits" | "cache_demotions" | "warm_bytes_cached"
                )
            });
        }
        let parsed = QueryTrace::from_value(&v).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.cache_warm_hits, 0);
    }

    #[test]
    fn old_traces_without_cost_fields_still_parse() {
        // A trace exported before the multi-objective cost model lacks the
        // per-component estimates and the per-source latency maps.
        let mut trace = sample();
        trace.latency_ms.clear();
        trace.latency_calls.clear();
        let m = &mut trace.rules[0].nodes[0].metrics;
        m.est_cpu_rows = 0.0;
        m.est_net_ms = 0.0;
        m.est_mem_rows = 0.0;
        let mut v = trace.to_value();
        let drop_cost_keys = |v: &mut serde::Value| {
            if let serde::Value::Object(pairs) = v {
                pairs.retain(|(k, _)| {
                    !matches!(
                        &**k,
                        "est_cpu_rows"
                            | "est_net_ms"
                            | "est_mem_rows"
                            | "latency_ms"
                            | "latency_calls"
                    )
                });
            }
        };
        drop_cost_keys(&mut v);
        if let serde::Value::Object(pairs) = &mut v {
            let rules = &mut pairs.iter_mut().find(|(k, _)| k == "rules").unwrap().1;
            if let serde::Value::Array(rules) = rules {
                for rule in rules {
                    if let serde::Value::Object(rp) = rule {
                        let nodes = &mut rp.iter_mut().find(|(k, _)| k == "nodes").unwrap().1;
                        if let serde::Value::Array(nodes) = nodes {
                            for node in nodes {
                                if let serde::Value::Object(np) = node {
                                    let metrics =
                                        &mut np.iter_mut().find(|(k, _)| k == "metrics").unwrap().1;
                                    drop_cost_keys(metrics);
                                }
                            }
                        }
                    }
                }
            }
        }
        let parsed = QueryTrace::from_value(&v).unwrap();
        assert_eq!(parsed, trace);
        assert!(parsed.latency_ms.is_empty());
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
