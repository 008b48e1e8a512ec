//! The optimizer's statistics cache (§3.5).
//!
//! Three tiers, in decreasing trust:
//! 1. statistics **observed** from results of previous queries sent to the
//!    same source ("tries to build its own statistics database that is
//!    based on results of previous queries");
//! 2. statistics **provided** by the wrapper;
//! 3. ad-hoc **defaults**.

use msl::{PatValue, Pattern, SetElem, Term};
use oem::Symbol;
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use wrappers::SourceStats;

/// Default guesses when nothing is known.
const DEFAULT_TOP_COUNT: f64 = 1000.0;
const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;

/// Selectivity charged per shared (equi-join) variable — both between
/// patterns of one source group and between groups in the planner's join
/// enumeration. The same default as an equality condition: a join *is* an
/// equality.
pub const JOIN_EQ_SELECTIVITY: f64 = DEFAULT_EQ_SELECTIVITY;

/// Exponentially-weighted moving average factor for observations.
const EWMA: f64 = 0.5;

/// Assumed round-trip latency for a source that has never been measured,
/// in milliseconds (one "unit" of network cost).
pub const DEFAULT_LATENCY_MS: f64 = 1.0;

/// Floor on the expected per-call cost: even a fully-cached source keeps
/// an epsilon so network cost never compares as exactly free.
const MIN_CALL_MS: f64 = 0.01;

/// Per-source *runtime* statistics learned from executed traces — the
/// non-cardinality half of the feedback loop. All three are EWMAs
/// (factor 0.5, matching the cardinality loop), `None` until first
/// observed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RuntimeStats {
    /// Mean round-trip milliseconds per successful source call.
    pub latency_ms: Option<f64>,
    /// Failed attempts / total attempts (retries included).
    pub failure_rate: Option<f64>,
    /// Answer-cache hits / (hits + misses) for this source.
    pub hit_rate: Option<f64>,
}

/// Per-source statistics, merged from wrapper-provided numbers and
/// observed query results.
#[derive(Default, Debug, Clone)]
pub struct StatsCache {
    provided: HashMap<Symbol, SourceStats>,
    /// (source, top-level label) → EWMA of observed result counts.
    observed: HashMap<(Symbol, Option<Symbol>), f64>,
    /// source → latency / failure / cache-hit EWMAs.
    runtime: HashMap<Symbol, RuntimeStats>,
}

impl StatsCache {
    /// Empty cache.
    pub fn new() -> StatsCache {
        StatsCache::default()
    }

    /// Install wrapper-provided statistics for a source.
    pub fn provide(&mut self, source: Symbol, stats: SourceStats) {
        self.provided.insert(source, stats);
    }

    /// Record the observed result count of a query against `source` whose
    /// top-level pattern had the given label (None = label variable).
    pub fn record(&mut self, source: Symbol, label: Option<Symbol>, count: usize) {
        let e = self.observed.entry((source, label)).or_insert(count as f64);
        *e = EWMA * count as f64 + (1.0 - EWMA) * *e;
    }

    /// Fold every source observation of an executed query's trace into the
    /// EWMA tables — the §3.5 feedback loop. The mediator calls this once
    /// per executed query, so each `Observation` carried by the trace
    /// contributes exactly one [`StatsCache::record`]. Beyond
    /// cardinalities, the trace's fault and cache counters feed the
    /// per-source [`RuntimeStats`] the cost model prices network with:
    /// measured round-trip latency, failure rate (retries included) and
    /// answer-cache hit rate.
    pub fn record_trace(&mut self, trace: &crate::metrics::QueryTrace) {
        for o in &trace.observations {
            self.record(o.source, o.label, o.count);
        }
        // Latency: mean milliseconds per successful call this query.
        for (&source, &total_ms) in &trace.latency_ms {
            let samples = trace.latency_calls.get(&source).copied().unwrap_or(0);
            if samples > 0 {
                let mean = total_ms as f64 / samples as f64;
                let rt = self.runtime.entry(source).or_default();
                let prev = rt.latency_ms.unwrap_or(mean);
                rt.latency_ms = Some(EWMA * mean + (1.0 - EWMA) * prev);
            }
        }
        // Failure rate: failed attempts over total attempts (each call is
        // one attempt plus its retries). Sources that were called and
        // never failed push the rate toward zero.
        for (&source, &calls) in &trace.source_calls {
            let retries = trace.retries.get(&source).copied().unwrap_or(0);
            let failures = trace.failures.get(&source).copied().unwrap_or(0);
            let attempts = calls + retries;
            if attempts > 0 {
                let sample = (failures.min(attempts)) as f64 / attempts as f64;
                let rt = self.runtime.entry(source).or_default();
                let prev = rt.failure_rate.unwrap_or(sample);
                rt.failure_rate = Some(EWMA * sample + (1.0 - EWMA) * prev);
            }
        }
        // Cache hit rate: how often this source's answers came for free.
        let hit_sources: std::collections::BTreeSet<Symbol> = trace
            .cache_hits
            .keys()
            .chain(trace.containment_hits.keys())
            .chain(trace.cache_misses.keys())
            .copied()
            .collect();
        for source in hit_sources {
            let hits = trace.cache_hits.get(&source).copied().unwrap_or(0)
                + trace.containment_hits.get(&source).copied().unwrap_or(0);
            let misses = trace.cache_misses.get(&source).copied().unwrap_or(0);
            if hits + misses > 0 {
                let sample = hits as f64 / (hits + misses) as f64;
                let rt = self.runtime.entry(source).or_default();
                let prev = rt.hit_rate.unwrap_or(sample);
                rt.hit_rate = Some(EWMA * sample + (1.0 - EWMA) * prev);
            }
        }
    }

    /// The learned runtime statistics for a source (all `None` when the
    /// source was never executed under tracing).
    pub fn runtime(&self, source: Symbol) -> RuntimeStats {
        self.runtime.get(&source).copied().unwrap_or_default()
    }

    /// Expected cost of one round-trip to `source`, in milliseconds: the
    /// measured latency EWMA inflated by the expected attempt count under
    /// the observed failure rate, discounted by the observed answer-cache
    /// hit probability. A cached source is nearly free; a flaky one is
    /// expensive. Floored at a small epsilon so network never compares as
    /// exactly free.
    pub fn per_call_cost_ms(&self, source: Symbol) -> f64 {
        let rt = self.runtime(source);
        let latency = rt.latency_ms.unwrap_or(DEFAULT_LATENCY_MS).max(MIN_CALL_MS);
        // Expected attempts under independent failures: 1 / (1 - p),
        // capped (a breaker/retry policy bounds real attempts anyway).
        let fail = rt.failure_rate.unwrap_or(0.0).clamp(0.0, 0.9);
        let attempts = (1.0 / (1.0 - fail)).min(10.0);
        let hit = rt.hit_rate.unwrap_or(0.0).clamp(0.0, 1.0);
        (latency * attempts * (1.0 - hit)).max(MIN_CALL_MS)
    }

    /// The answer-cache's value-score inputs for `source`:
    /// `(unit_cost_ms, hit_seed)`. The unit cost is the observed per-call
    /// latency EWMA (default when unmeasured), the hit seed is the
    /// source's cache hit-rate EWMA clamped away from zero so a cold
    /// entry still has some value.
    pub fn value_inputs(&self, source: Symbol) -> (f64, f64) {
        let rt = self.runtime(source);
        (
            rt.latency_ms.unwrap_or(DEFAULT_LATENCY_MS).max(MIN_CALL_MS),
            rt.hit_rate.unwrap_or(0.25).clamp(0.05, 1.0),
        )
    }

    /// Estimated number of top-level objects matching a bare label at a
    /// source.
    pub fn base_count(&self, source: Symbol, label: Option<Symbol>) -> f64 {
        if let Some(obs) = self.observed.get(&(source, label)) {
            return *obs;
        }
        if let Some(p) = self.provided.get(&source) {
            return p.count_for_label(label) as f64;
        }
        DEFAULT_TOP_COUNT
    }

    /// Selectivity of an equality condition on subobject label `l`.
    pub fn selectivity(&self, source: Symbol, l: Symbol) -> f64 {
        if let Some(p) = self.provided.get(&source) {
            return p.selectivity(l);
        }
        DEFAULT_EQ_SELECTIVITY
    }

    /// Does the cache have real (non-default) information for a source?
    pub fn knows(&self, source: Symbol) -> bool {
        self.provided.contains_key(&source) || self.observed.keys().any(|(s, _)| *s == source)
    }

    /// Estimate the result cardinality of matching `pattern` against
    /// `source`: base count for the top-level label, discounted by the
    /// selectivity of each constant-valued subcondition.
    pub fn estimate_pattern(&self, source: Symbol, pattern: &Pattern) -> f64 {
        let label = match &pattern.label {
            Term::Const(v) => v.as_str_sym(),
            _ => None,
        };
        let mut est = self.base_count(source, label);
        for (l, _) in condition_labels(pattern) {
            est *= self.selectivity(source, l);
        }
        est.max(0.01)
    }

    /// Estimate for a group of patterns at one source. Per-pattern
    /// estimates multiply (a cross product), but every variable a pattern
    /// *shares* with an earlier pattern of the group is an equi-join
    /// constraint, not a free cross — each shared variable discounts the
    /// pattern's contribution by the default equality selectivity (a plain
    /// product would wildly overestimate same-source joins).
    pub fn estimate_group(&self, source: Symbol, patterns: &[&Pattern]) -> f64 {
        let mut est = 1.0;
        let mut seen: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
        for p in patterns {
            let mut vars = Vec::new();
            p.collect_vars(&mut vars);
            let uniq: std::collections::HashSet<Symbol> = vars.into_iter().collect();
            let shared = uniq.iter().filter(|v| seen.contains(*v)).count();
            est *=
                self.estimate_pattern(source, p) * JOIN_EQ_SELECTIVITY.powi(shared.min(127) as i32);
            seen.extend(uniq);
        }
        est.max(0.01)
    }
}

/// Concurrency-safe owner of the mediator's learned statistics.
///
/// The EWMA observation feed (§3.5) was the last piece of per-query state
/// that mutated through a bare lock at the [`crate::mediator::Mediator`]
/// call sites; a resident server folds traces from many threads at once,
/// so the lock discipline and the lifetime observation counter live here
/// instead. Planning takes the read side ([`SharedStats::read`]); each
/// executed query folds its trace exactly once through
/// [`SharedStats::record_trace`], which also bumps a process-wide counter
/// the server exposes on `/metrics`.
#[derive(Debug, Default)]
pub struct SharedStats {
    inner: RwLock<StatsCache>,
    /// Lifetime count of observations folded in — not queries: one query
    /// can carry several per-source observations.
    observations: AtomicU64,
}

impl SharedStats {
    /// Wrap a seeded cache (wrapper-provided statistics installed).
    pub fn new(seed: StatsCache) -> SharedStats {
        SharedStats {
            inner: RwLock::new(seed),
            observations: AtomicU64::new(0),
        }
    }

    /// Read access for planning. Concurrent queries plan under shared
    /// read locks; only trace folding takes the write side, briefly.
    pub fn read(&self) -> RwLockReadGuard<'_, StatsCache> {
        self.inner.read()
    }

    /// Fold one executed query's trace into the EWMA tables (the §3.5
    /// feedback loop) and count its observations. Call exactly once per
    /// executed query.
    pub fn record_trace(&self, trace: &crate::metrics::QueryTrace) {
        self.observations
            .fetch_add(trace.observations.len() as u64, Ordering::Relaxed);
        self.inner.write().record_trace(trace);
    }

    /// Clone of the current cache (experiments, snapshots).
    pub fn snapshot(&self) -> StatsCache {
        self.inner.read().clone()
    }

    /// Lifetime count of observations folded in across all queries.
    pub fn observations(&self) -> u64 {
        self.observations.load(Ordering::Relaxed)
    }
}

/// The labels of constant-valued subconditions of a pattern, including
/// those attached to rest variables. Used both for cost estimation and for
/// the paper's "most conditions" join-order heuristic.
pub fn condition_labels(pattern: &Pattern) -> Vec<(Symbol, bool)> {
    let mut out = Vec::new();
    if let PatValue::Set(sp) = &pattern.value {
        for e in &sp.elements {
            let (SetElem::Pattern(p) | SetElem::Wildcard(p)) = e else {
                continue;
            };
            if matches!(&p.value, PatValue::Term(Term::Const(_) | Term::Param(_))) {
                if let Term::Const(v) = &p.label {
                    if let Some(l) = v.as_str_sym() {
                        out.push((l, true));
                    }
                }
            }
            out.extend(condition_labels(p));
        }
        if let Some(rest) = &sp.rest {
            for c in &rest.conditions {
                if matches!(&c.value, PatValue::Term(Term::Const(_) | Term::Param(_))) {
                    if let Term::Const(v) = &c.label {
                        if let Some(l) = v.as_str_sym() {
                            out.push((l, true));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msl::{parse_query, TailItem};
    use oem::sym;

    fn pat(src: &str) -> Pattern {
        match parse_query(src).unwrap().tail.remove(0) {
            TailItem::Match { pattern, .. } => pattern,
            _ => panic!(),
        }
    }

    #[test]
    fn defaults_when_unknown() {
        let c = StatsCache::new();
        assert_eq!(
            c.base_count(sym("s"), Some(sym("person"))),
            DEFAULT_TOP_COUNT
        );
        assert_eq!(c.selectivity(sym("s"), sym("name")), DEFAULT_EQ_SELECTIVITY);
        assert!(!c.knows(sym("s")));
    }

    #[test]
    fn provided_stats_used() {
        let mut c = StatsCache::new();
        c.provide(
            sym("s"),
            SourceStats {
                top_level_count: 100,
                label_counts: [(sym("person"), 80)].into_iter().collect(),
                eq_selectivity: [(sym("name"), 0.0125)].into_iter().collect(),
            },
        );
        assert_eq!(c.base_count(sym("s"), Some(sym("person"))), 80.0);
        let p = pat("X :- <person {<name 'Joe'>}>@s");
        let est = c.estimate_pattern(sym("s"), &p);
        assert!((est - 1.0).abs() < 1e-9, "{est}");
        assert!(c.knows(sym("s")));
    }

    #[test]
    fn observations_override_provided() {
        let mut c = StatsCache::new();
        c.provide(
            sym("s"),
            SourceStats {
                top_level_count: 100,
                label_counts: [(sym("person"), 80)].into_iter().collect(),
                eq_selectivity: Default::default(),
            },
        );
        c.record(sym("s"), Some(sym("person")), 10);
        assert_eq!(c.base_count(sym("s"), Some(sym("person"))), 10.0);
        // EWMA blends subsequent observations.
        c.record(sym("s"), Some(sym("person")), 20);
        assert_eq!(c.base_count(sym("s"), Some(sym("person"))), 15.0);
    }

    #[test]
    fn record_trace_feeds_every_observation() {
        use crate::metrics::{Observation, QueryTrace};
        let mut c = StatsCache::new();
        let trace = QueryTrace {
            observations: vec![
                Observation {
                    source: sym("s"),
                    label: Some(sym("person")),
                    count: 10,
                },
                Observation {
                    source: sym("s"),
                    label: Some(sym("person")),
                    count: 20,
                },
                Observation {
                    source: sym("t"),
                    label: None,
                    count: 4,
                },
            ],
            ..Default::default()
        };
        c.record_trace(&trace);
        // Two observations of the same key blend via EWMA: 10 then 20 → 15.
        assert_eq!(c.base_count(sym("s"), Some(sym("person"))), 15.0);
        assert_eq!(c.base_count(sym("t"), None), 4.0);
        assert!(c.knows(sym("t")));
    }

    #[test]
    fn estimate_group_multiplies() {
        let mut c = StatsCache::new();
        c.provide(
            sym("s"),
            SourceStats {
                top_level_count: 100,
                label_counts: [(sym("person"), 100)].into_iter().collect(),
                eq_selectivity: [(sym("name"), 0.01)].into_iter().collect(),
            },
        );
        let p1 = pat("X :- <person {<name 'a'>}>@s");
        let p2 = pat("X :- <person {}>@s");
        let est = c.estimate_group(sym("s"), &[&p1, &p2]);
        // 100 * 0.01 = 1 for the conditioned pattern, * 100 for the other.
        assert!((est - 100.0).abs() < 1e-9, "{est}");
    }

    #[test]
    fn estimates_never_hit_zero() {
        let mut c = StatsCache::new();
        c.provide(
            sym("s"),
            SourceStats {
                top_level_count: 0,
                label_counts: Default::default(),
                eq_selectivity: Default::default(),
            },
        );
        let p = pat("X :- <person {<name 'a'>}>@s");
        assert!(c.estimate_pattern(sym("s"), &p) > 0.0);
    }

    #[test]
    fn shared_variables_discount_group_estimates() {
        let mut c = StatsCache::new();
        c.provide(
            sym("s"),
            SourceStats {
                top_level_count: 200,
                label_counts: [(sym("person"), 100), (sym("emp"), 100)]
                    .into_iter()
                    .collect(),
                eq_selectivity: Default::default(),
            },
        );
        // Both patterns bind N: the second is an equi-join on N, not a
        // free cross product.
        let p1 = pat("X :- <person {<name N>}>@s");
        let p2 = pat("X :- <emp {<name N>}>@s");
        let naive = c.estimate_pattern(sym("s"), &p1) * c.estimate_pattern(sym("s"), &p2);
        let joined = c.estimate_group(sym("s"), &[&p1, &p2]);
        assert_eq!(naive, 100.0 * 100.0);
        assert!(
            (joined - naive * JOIN_EQ_SELECTIVITY).abs() < 1e-9,
            "{joined}"
        );
        // Disjoint variables keep the plain product.
        let p3 = pat("X :- <emp {<name M>}>@s");
        assert_eq!(
            c.estimate_group(sym("s"), &[&p1, &p3]),
            c.estimate_pattern(sym("s"), &p1) * c.estimate_pattern(sym("s"), &p3)
        );
    }

    #[test]
    fn record_trace_learns_runtime_stats() {
        let mut c = StatsCache::new();
        assert_eq!(c.runtime(sym("s")), RuntimeStats::default());
        let t1 = crate::metrics::QueryTrace {
            latency_ms: [(sym("s"), 8)].into_iter().collect(),
            latency_calls: [(sym("s"), 2)].into_iter().collect(),
            source_calls: [(sym("s"), 2)].into_iter().collect(),
            retries: [(sym("s"), 2)].into_iter().collect(),
            failures: [(sym("s"), 2)].into_iter().collect(),
            cache_hits: [(sym("s"), 3)].into_iter().collect(),
            cache_misses: [(sym("s"), 1)].into_iter().collect(),
            ..Default::default()
        };
        c.record_trace(&t1);
        let rt = c.runtime(sym("s"));
        // First samples seed the EWMAs directly: mean latency 8ms/2 calls,
        // 2 failures over 2+2 attempts, 3 hits over 4 lookups.
        assert_eq!(rt.latency_ms, Some(4.0));
        assert_eq!(rt.failure_rate, Some(0.5));
        assert_eq!(rt.hit_rate, Some(0.75));
        // A clean fast query halves the distance toward its sample.
        let t2 = crate::metrics::QueryTrace {
            latency_ms: [(sym("s"), 2)].into_iter().collect(),
            latency_calls: [(sym("s"), 1)].into_iter().collect(),
            source_calls: [(sym("s"), 1)].into_iter().collect(),
            ..Default::default()
        };
        c.record_trace(&t2);
        let rt = c.runtime(sym("s"));
        assert_eq!(rt.latency_ms, Some(3.0));
        assert_eq!(rt.failure_rate, Some(0.25));
        // No cache traffic this query: hit rate EWMA untouched.
        assert_eq!(rt.hit_rate, Some(0.75));
    }

    #[test]
    fn per_call_cost_prices_failures_and_cache() {
        let mut c = StatsCache::new();
        // Unmeasured source: one default latency unit.
        assert_eq!(c.per_call_cost_ms(sym("s")), DEFAULT_LATENCY_MS);
        // 4ms latency, 50% failures (expected 2 attempts), 75% cache
        // hits: 4 * 2 * 0.25 = 2ms expected per call.
        c.record_trace(&crate::metrics::QueryTrace {
            latency_ms: [(sym("s"), 4)].into_iter().collect(),
            latency_calls: [(sym("s"), 1)].into_iter().collect(),
            source_calls: [(sym("s"), 1)].into_iter().collect(),
            retries: [(sym("s"), 1)].into_iter().collect(),
            failures: [(sym("s"), 1)].into_iter().collect(),
            cache_hits: [(sym("s"), 3)].into_iter().collect(),
            cache_misses: [(sym("s"), 1)].into_iter().collect(),
            ..Default::default()
        });
        assert_eq!(c.per_call_cost_ms(sym("s")), 2.0);
        // A fully-cached source floors at an epsilon, never exactly free.
        c.record_trace(&crate::metrics::QueryTrace {
            cache_hits: [(sym("t"), 5)].into_iter().collect(),
            ..Default::default()
        });
        assert_eq!(c.runtime(sym("t")).hit_rate, Some(1.0));
        assert_eq!(c.per_call_cost_ms(sym("t")), MIN_CALL_MS);
    }
}
