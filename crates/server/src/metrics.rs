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
use medmaker::metrics::QueryTrace;
use medmaker::Mediator;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One row per counter of `/metrics`' `server` section, in the order
/// served: the atomic's field name, the JSON key(s) it is served under
/// (`KEY / N` serves the count divided by N) and, for an execution-scoped
/// counter, `<- |trace| …`: what one execution's trace adds to it.
/// Emitted: the struct, `rows` and [`ServerMetrics::record_trace`].
macro_rules! counters {
    ($( $field:ident: $($key:literal $(/ $per:literal)?),+ $(<- $fold:expr)?; )*) => {
        /// Atomic counters shared by every connection thread.
        #[derive(Debug, Default)]
        pub struct ServerMetrics {
            $( $field: AtomicU64, )*
        }

        impl ServerMetrics {
            /// Every `server.*` key with its current value, in order.
            fn rows(&self) -> Vec<(&'static str, u64)> {
                vec![ $($( ($key, self.$field.load(Relaxed) $(/ $per)?), )+)* ]
            }

            /// Fold one execution's trace totals (called once per leader; cache
            /// evictions are the trace's per-request delta).
            pub fn record_trace(&self, trace: &QueryTrace) {
                $($(
                    let fold: fn(&QueryTrace) -> usize = $fold;
                    self.$field.fetch_add(fold(trace) as u64, Relaxed);
                )?)*
            }
        }
    };
}

/// The total of one per-source count map.
fn total(counts: &BTreeMap<oem::Symbol, usize>) -> usize {
    counts.values().sum()
}

counters! {
    queries_total: "queries_total";
    queries_ok: "queries_ok";
    queries_bad: "queries_bad_query";
    queries_failed: "queries_failed";
    queries_shed: "queries_shed";
    queries_coalesced: "queries_coalesced";
    objects_returned: "objects_returned";
    truncated_replies: "truncated_replies";
    partial_replies: "partial_replies";
    // The milliseconds are derived, so that replies of a fraction of a
    // millisecond each still add up.
    elapsed_us_total: "elapsed_ms_total" / 1000, "elapsed_us_total";
    executions: "executions" <- |_| 1;
    source_calls: "source_calls" <- |t| t.total_source_calls();
    cache_hits: "cache_hits" <- |t| total(&t.cache_hits);
    containment_hits: "containment_hits" <- |t| total(&t.containment_hits);
    retries: "retries" <- |t| total(&t.retries);
    cache_evictions: "cache_evictions" <- |t| t.cache_evictions;
    cache_warm_hits: "cache_warm_hits" <- |t| t.cache_warm_hits;
    cache_demotions: "cache_demotions" <- |t| t.cache_demotions;
    invalidations: "invalidations";
    entries_invalidated: "entries_invalidated";
}

impl ServerMetrics {
    /// Fold one reply's request-scoped counters (called for every
    /// requester — leaders, followers, sheds, parse failures).
    pub fn record_reply(&self, reply: &QueryReply) {
        self.queries_total.fetch_add(1, Relaxed);
        let bucket = match reply.status {
            ReplyStatus::Ok => &self.queries_ok,
            ReplyStatus::BadQuery => &self.queries_bad,
            ReplyStatus::Failed => &self.queries_failed,
            ReplyStatus::Shed => &self.queries_shed,
        };
        bucket.fetch_add(1, Relaxed);
        if reply.coalesced {
            self.queries_coalesced.fetch_add(1, Relaxed);
        }
        if reply.truncated {
            self.truncated_replies.fetch_add(1, Relaxed);
        }
        if reply.partial.is_some() {
            self.partial_replies.fetch_add(1, Relaxed);
        }
        self.objects_returned
            .fetch_add(reply.objects as u64, Relaxed);
        self.elapsed_us_total.fetch_add(reply.elapsed_us, Relaxed);
    }

    /// Fold one `POST /invalidate` call that dropped `entries` cached
    /// answers.
    pub fn record_invalidation(&self, entries: usize) {
        self.invalidations.fetch_add(1, Relaxed);
        self.entries_invalidated.fetch_add(entries as u64, Relaxed);
    }

    /// Executions run so far (excludes coalesced followers and sheds).
    pub fn executions(&self) -> u64 {
        self.executions.load(Relaxed)
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.queries_shed.load(Relaxed)
    }

    /// Requests answered by coalescing onto another execution so far.
    pub fn coalesced(&self) -> u64 {
        self.queries_coalesced.load(Relaxed)
    }

    /// The `/metrics` document: `server` (accumulated per-request and
    /// per-execution counters) and `mediator` (live process-wide gauges:
    /// the cache's own listing, then the learned-statistics count).
    pub fn snapshot(&self, mediator: &Mediator, uptime_ms: u64) -> serde::Value {
        let gauges = mediator.cache_counters().metrics();
        let gauges = gauges.into_iter().map(|(key, n)| (key, n as u64));
        let learned = ("stats_observations", mediator.stats_observations());
        serde::object([
            ("uptime_ms", serde::Value::Int(uptime_ms as i64)),
            ("server", section(self.rows())),
            ("mediator", section(gauges.chain([learned]))),
        ])
    }
}

/// One section of the `/metrics` document: an object of integer counts.
fn section(rows: impl IntoIterator<Item = (&'static str, u64)>) -> serde::Value {
    let pairs = rows.into_iter();
    serde::Value::Object(
        pairs
            .map(|(key, n)| (key.to_string(), serde::Value::Int(n as i64)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};

    /// The keys of a JSON object, in the order they were written.
    fn keys(v: &serde::Value) -> Vec<&str> {
        let pairs = v.as_object().expect("a JSON object");
        pairs.iter().map(|(k, _)| k.as_str()).collect()
    }

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
                "cache_containment_hits",
                "cache_misses",
                "cache_evictions",
                "cache_bytes",
                "cache_entries",
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
    fn docs_name_every_declared_metric() {
        // DESIGN.md §6.1 / §6.2 / §11.5 and docs/OPERATIONS.md restate
        // the declarations; this holds them to it (the shape of `perf`'s
        // catalog ↔ BENCHMARK.json test). A counter added to a `record!`,
        // to `counters!` or to `CacheCounters::metrics` fails here until
        // the two files name it.
        use medmaker::metrics::{
            Field, NodeMetrics, NodeTrace, Observation, QueryTrace, RuleTrace,
        };
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |file: &str| std::fs::read_to_string(format!("{root}/{file}")).expect(file);
        let design = read("DESIGN.md");
        let operations = read("docs/OPERATIONS.md");
        let between = |text: &str, from: &str, to: &str| -> String {
            let start = text.find(from).unwrap_or_else(|| panic!("no {from:?}"));
            let len = text[start..]
                .find(to)
                .unwrap_or_else(|| panic!("no {to:?}"));
            text[start..start + len].to_string()
        };

        // §6.1: one table per record, one row per field, in order, an
        // optional field's row saying what it is absent before.
        let records: [(&str, &[Field]); 5] = [
            ("NodeMetrics", NodeMetrics::FIELDS),
            ("NodeTrace", NodeTrace::FIELDS),
            ("RuleTrace", RuleTrace::FIELDS),
            ("Observation", Observation::FIELDS),
            ("QueryTrace", QueryTrace::FIELDS),
        ];
        let taxonomy = between(&design, "### 6.1 Metric taxonomy", "### 6.2");
        for (record, fields) in records {
            let heading = format!("#### `{record}`");
            let table = taxonomy.lines().skip_while(|l| !l.starts_with(&heading));
            let table = table.skip(1).take_while(|l| !l.starts_with("#### "));
            let rows: Vec<&str> = table.filter(|l| l.starts_with("| `")).collect();
            let named: Vec<&str> = rows
                .iter()
                .map(|r| r[3..].split('`').next().unwrap())
                .collect();
            let declared: Vec<&str> = fields.iter().map(|f| f.name).collect();
            assert_eq!(named, declared, "DESIGN.md §6.1, the `{record}` table");
            for (row, field) in rows.iter().zip(fields) {
                let says = row
                    .split("absent before ")
                    .nth(1)
                    .map(|rest| rest.trim_end_matches(" |"));
                assert_eq!(
                    says, field.absent_before,
                    "DESIGN.md §6.1, `{record}`.`{}`",
                    field.name
                );
            }
        }

        // §6.2: the sample is a whole trace — every key of every record.
        let sample = between(&design, "### 6.2 QueryTrace JSON schema", "### 6.3");
        let sample = between(&sample, "```json\n", "\n```").replacen("```json\n", "", 1);
        let sample: serde::Value = serde_json::from_str(&sample).expect("§6.2's sample is JSON");
        let first =
            |v: &serde::Value, key: &str| v.get(key).unwrap().as_array().unwrap()[0].clone();
        let rule = first(&sample, "rules");
        let node = first(&rule, "nodes");
        for ((record, fields), v) in records.iter().zip([
            node.get("metrics").unwrap().clone(),
            node,
            rule,
            first(&sample, "observations"),
            sample.clone(),
        ]) {
            let declared: Vec<&str> = fields.iter().map(|f| f.name).collect();
            assert_eq!(keys(&v), declared, "DESIGN.md §6.2, the `{record}` object");
        }
        let parsed: QueryTrace = serde::Deserialize::from_value(&sample).expect("§6.2 parses");
        assert_eq!(parsed.result_count, 1);

        // §11.5 and the operations guide name every `/metrics` key.
        let snapshot = ServerMetrics::default().snapshot(&ms1(), 0);
        let serving = between(&design, "### 11.5", "### 11.6");
        let monitoring = between(&operations, "## Monitoring", "## Stopping");
        for section in ["server", "mediator"] {
            for key in keys(snapshot.get(section).unwrap()) {
                let quoted = format!("`{key}`");
                assert!(
                    serving.contains(&quoted),
                    "DESIGN.md §11.5 lacks {section}.{key}"
                );
                assert!(
                    monitoring.contains(&quoted),
                    "OPERATIONS.md lacks {section}.{key}"
                );
            }
        }
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
