//! Server-wide metrics, served on `GET /metrics`.
//!
//! Two strictly separated scopes (the per-request vs process-wide split
//! of DESIGN.md §11):
//!
//! * **Request-scoped counters** fold once per reply — every requester
//!   counts, including coalesced followers and shed requests.
//! * **Execution-scoped counters** fold once per leader execution from
//!   the query's [`medmaker::metrics::QueryTrace`] — real source
//!   traffic, never multiplied by coalescing. Eviction counts use the
//!   trace's per-request delta, so their sum equals the cache's lifetime
//!   total.
//!
//! Process-wide **gauges** (cache bytes/hit counters, learned-statistics
//! observations) are not accumulated here at all: the snapshot reads
//! them live off the [`medmaker::Mediator`].

use crate::service::{QueryReply, ReplyStatus};
use medmaker::Mediator;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters shared by every connection thread.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    queries_total: AtomicU64,
    queries_ok: AtomicU64,
    queries_bad: AtomicU64,
    queries_failed: AtomicU64,
    queries_shed: AtomicU64,
    queries_coalesced: AtomicU64,
    objects_returned: AtomicU64,
    truncated_replies: AtomicU64,
    partial_replies: AtomicU64,
    elapsed_us_total: AtomicU64,
    executions: AtomicU64,
    source_calls: AtomicU64,
    cache_hits: AtomicU64,
    containment_hits: AtomicU64,
    retries: AtomicU64,
    cache_evictions: AtomicU64,
    cache_warm_hits: AtomicU64,
    cache_demotions: AtomicU64,
    invalidations: AtomicU64,
    entries_invalidated: AtomicU64,
}

impl ServerMetrics {
    /// Fold one reply's request-scoped counters (called for every
    /// requester — leaders, followers, sheds, parse failures).
    pub fn record_reply(&self, reply: &QueryReply) {
        self.queries_total.fetch_add(1, Ordering::Relaxed);
        let bucket = match reply.status {
            ReplyStatus::Ok => &self.queries_ok,
            ReplyStatus::BadQuery => &self.queries_bad,
            ReplyStatus::Failed => &self.queries_failed,
            ReplyStatus::Shed => &self.queries_shed,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        if reply.coalesced {
            self.queries_coalesced.fetch_add(1, Ordering::Relaxed);
        }
        if reply.truncated {
            self.truncated_replies.fetch_add(1, Ordering::Relaxed);
        }
        if reply.partial.is_some() {
            self.partial_replies.fetch_add(1, Ordering::Relaxed);
        }
        self.objects_returned
            .fetch_add(reply.objects as u64, Ordering::Relaxed);
        self.elapsed_us_total
            .fetch_add(reply.elapsed_us, Ordering::Relaxed);
    }

    /// Fold one execution's trace totals (called once per leader; cache
    /// evictions are the trace's per-request delta).
    pub fn record_trace(&self, trace: &medmaker::metrics::QueryTrace) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        self.source_calls
            .fetch_add(trace.total_source_calls() as u64, Ordering::Relaxed);
        self.cache_hits.fetch_add(
            trace.cache_hits.values().map(|n| *n as u64).sum(),
            Ordering::Relaxed,
        );
        self.containment_hits.fetch_add(
            trace.containment_hits.values().map(|n| *n as u64).sum(),
            Ordering::Relaxed,
        );
        self.retries.fetch_add(
            trace.retries.values().map(|n| *n as u64).sum(),
            Ordering::Relaxed,
        );
        self.cache_evictions
            .fetch_add(trace.cache_evictions as u64, Ordering::Relaxed);
        self.cache_warm_hits
            .fetch_add(trace.cache_warm_hits as u64, Ordering::Relaxed);
        self.cache_demotions
            .fetch_add(trace.cache_demotions as u64, Ordering::Relaxed);
    }

    /// Fold one `POST /invalidate` call that dropped `entries` cached
    /// answers.
    pub fn record_invalidation(&self, entries: usize) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.entries_invalidated
            .fetch_add(entries as u64, Ordering::Relaxed);
    }

    /// Executions run so far (excludes coalesced followers and sheds).
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.queries_shed.load(Ordering::Relaxed)
    }

    /// Requests answered by coalescing onto another execution so far.
    pub fn coalesced(&self) -> u64 {
        self.queries_coalesced.load(Ordering::Relaxed)
    }

    /// The `/metrics` document: `server` (accumulated per-request and
    /// per-execution counters) and `mediator` (live process-wide gauges).
    pub fn snapshot(&self, mediator: &Mediator, uptime_ms: u64) -> serde::Value {
        let n = |a: &AtomicU64| serde::Value::Int(a.load(Ordering::Relaxed) as i64);
        let elapsed_us = self.elapsed_us_total.load(Ordering::Relaxed) as i64;
        let cache = mediator.cache_counters();
        serde::Value::Object(vec![
            ("uptime_ms".to_string(), serde::Value::Int(uptime_ms as i64)),
            (
                "server".to_string(),
                serde::Value::Object(vec![
                    ("queries_total".to_string(), n(&self.queries_total)),
                    ("queries_ok".to_string(), n(&self.queries_ok)),
                    ("queries_bad_query".to_string(), n(&self.queries_bad)),
                    ("queries_failed".to_string(), n(&self.queries_failed)),
                    ("queries_shed".to_string(), n(&self.queries_shed)),
                    ("queries_coalesced".to_string(), n(&self.queries_coalesced)),
                    ("objects_returned".to_string(), n(&self.objects_returned)),
                    ("truncated_replies".to_string(), n(&self.truncated_replies)),
                    ("partial_replies".to_string(), n(&self.partial_replies)),
                    // Derived, so that replies of a fraction of a
                    // millisecond each still add up.
                    (
                        "elapsed_ms_total".to_string(),
                        serde::Value::Int(elapsed_us / 1000),
                    ),
                    (
                        "elapsed_us_total".to_string(),
                        serde::Value::Int(elapsed_us),
                    ),
                    ("executions".to_string(), n(&self.executions)),
                    ("source_calls".to_string(), n(&self.source_calls)),
                    ("cache_hits".to_string(), n(&self.cache_hits)),
                    ("containment_hits".to_string(), n(&self.containment_hits)),
                    ("retries".to_string(), n(&self.retries)),
                    ("cache_evictions".to_string(), n(&self.cache_evictions)),
                    ("cache_warm_hits".to_string(), n(&self.cache_warm_hits)),
                    ("cache_demotions".to_string(), n(&self.cache_demotions)),
                    ("invalidations".to_string(), n(&self.invalidations)),
                    (
                        "entries_invalidated".to_string(),
                        n(&self.entries_invalidated),
                    ),
                ]),
            ),
            (
                "mediator".to_string(),
                serde::Value::Object(vec![
                    (
                        "cache_hits".to_string(),
                        serde::Value::Int(cache.hits as i64),
                    ),
                    (
                        "cache_misses".to_string(),
                        serde::Value::Int(cache.misses as i64),
                    ),
                    (
                        "cache_evictions".to_string(),
                        serde::Value::Int(cache.evictions as i64),
                    ),
                    (
                        "cache_bytes".to_string(),
                        serde::Value::Int(cache.bytes_cached as i64),
                    ),
                    (
                        "cache_warm_hits".to_string(),
                        serde::Value::Int(cache.warm_hits as i64),
                    ),
                    (
                        "cache_objects_examined".to_string(),
                        serde::Value::Int(cache.objects_examined as i64),
                    ),
                    (
                        "cache_warm_entries".to_string(),
                        serde::Value::Int(cache.warm_entries as i64),
                    ),
                    (
                        "cache_warm_bytes".to_string(),
                        serde::Value::Int(cache.warm_bytes as i64),
                    ),
                    (
                        "cache_demotions".to_string(),
                        serde::Value::Int(cache.demotions as i64),
                    ),
                    (
                        "cache_promotions".to_string(),
                        serde::Value::Int(cache.promotions as i64),
                    ),
                    (
                        "cache_compactions".to_string(),
                        serde::Value::Int(cache.compactions as i64),
                    ),
                    (
                        "stats_observations".to_string(),
                        serde::Value::Int(mediator.stats_observations() as i64),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};

    fn ms1() -> Mediator {
        Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            medmaker::externals::standard_registry(),
        )
        .unwrap()
    }

    #[test]
    fn metrics_key_sequences_are_pinned() {
        // Golden: the `/metrics` document's keys, in order. Dashboards key
        // on these names; a rename or a dropped gauge must show up here.
        fn keys(v: &serde::Value) -> Vec<&str> {
            let pairs = v.as_object().expect("a JSON object");
            pairs.iter().map(|(k, _)| k.as_str()).collect()
        }
        let snapshot = ServerMetrics::default().snapshot(&ms1(), 7);
        assert_eq!(keys(&snapshot), ["uptime_ms", "server", "mediator"]);
        assert_eq!(
            keys(snapshot.get("server").unwrap()),
            [
                "queries_total",
                "queries_ok",
                "queries_bad_query",
                "queries_failed",
                "queries_shed",
                "queries_coalesced",
                "objects_returned",
                "truncated_replies",
                "partial_replies",
                "elapsed_ms_total",
                "elapsed_us_total",
                "executions",
                "source_calls",
                "cache_hits",
                "containment_hits",
                "retries",
                "cache_evictions",
                "cache_warm_hits",
                "cache_demotions",
                "invalidations",
                "entries_invalidated",
            ]
        );
        assert_eq!(
            keys(snapshot.get("mediator").unwrap()),
            [
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "cache_bytes",
                "cache_warm_hits",
                "cache_objects_examined",
                "cache_warm_entries",
                "cache_warm_bytes",
                "cache_demotions",
                "cache_promotions",
                "cache_compactions",
                "stats_observations",
            ]
        );
    }

    #[test]
    fn an_execution_folds_its_trace_totals_once() {
        use medmaker::metrics::QueryTrace;
        use oem::sym;
        let counts = |pairs: &[(&str, usize)]| pairs.iter().map(|(s, n)| (sym(s), *n)).collect();
        let trace = QueryTrace {
            source_calls: counts(&[("whois", 2), ("cs", 3)]),
            cache_hits: counts(&[("cs", 7)]),
            containment_hits: counts(&[("whois", 11), ("cs", 13)]),
            retries: counts(&[("whois", 17)]),
            cache_evictions: 19,
            cache_warm_hits: 23,
            cache_demotions: 29,
            ..Default::default()
        };
        let metrics = ServerMetrics::default();
        metrics.record_trace(&trace);
        metrics.record_trace(&trace);
        metrics.record_invalidation(31);
        let snapshot = metrics.snapshot(&ms1(), 0);
        let server = snapshot.get("server").expect("server section");
        for (name, want) in [
            ("executions", 2),
            ("source_calls", 10),
            ("cache_hits", 14),
            ("containment_hits", 48),
            ("retries", 34),
            ("cache_evictions", 38),
            ("cache_warm_hits", 46),
            ("cache_demotions", 58),
            ("invalidations", 1),
            ("entries_invalidated", 31),
            ("queries_total", 0),
        ] {
            assert_eq!(
                server.get(name).and_then(|v| v.as_i64()),
                Some(want),
                "{name}"
            );
        }
        assert_eq!(metrics.executions(), 2);
    }

    #[test]
    fn sub_millisecond_replies_add_up_in_the_snapshot() {
        let med = ms1();
        let metrics = ServerMetrics::default();
        let reply = QueryReply {
            status: ReplyStatus::Ok,
            answer: String::new(),
            objects: 0,
            total_objects: 0,
            truncated: false,
            partial: None,
            error: None,
            coalesced: false,
            elapsed_us: 300,
        };
        assert_eq!(reply.elapsed_ms(), 0);
        for _ in 0..10 {
            metrics.record_reply(&reply);
        }
        let snapshot = metrics.snapshot(&med, 0);
        let server = snapshot.get("server").expect("server section");
        let field = |name: &str| server.get(name).and_then(|v| v.as_i64());
        assert_eq!(field("queries_total"), Some(10));
        assert_eq!(field("elapsed_us_total"), Some(3000));
        assert_eq!(field("elapsed_ms_total"), Some(3));
    }
}
