//! The protocol-independent query service.
//!
//! Both wire protocols (HTTP and line, [`crate::http`] / [`crate::proto`])
//! funnel into [`QueryService::run`], which implements the serving
//! semantics documented in DESIGN.md §11:
//!
//! 1. **Coalescing** — an arriving query joins an identical in-flight one
//!    (same query shape *and* same limits) as a follower and shares the
//!    leader's rendered answer bytes, paying zero executions.
//! 2. **Admission control** — leaders pass a gate bounding concurrent
//!    executions (`workers`) with a bounded wait queue (`queue`); a full
//!    queue sheds the request ([`ReplyStatus::Shed`] → HTTP 503).
//! 3. **Limits** — per-request [`QueryLimits`] merge over the server's
//!    defaults and map onto the mediator's execution options.
//! 4. **Metrics** — request-scoped counters fold on every reply;
//!    execution-scoped trace totals fold once per leader, so coalesced
//!    followers never double-count source traffic.

use crate::metrics::ServerMetrics;
use medmaker::cache::QueryShape;
use medmaker::{Mediator, QueryLimits};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyStatus {
    /// Executed (or coalesced onto an execution) and answered.
    Ok,
    /// The query text did not parse or validate (HTTP 400).
    BadQuery,
    /// Execution failed — e.g. a source stayed down in Fail mode
    /// (HTTP 500).
    Failed,
    /// Shed by admission control: all workers busy and the wait queue
    /// full (HTTP 503). The client should retry later.
    Shed,
}

impl ReplyStatus {
    /// The wire-level status token (JSON `status` field).
    pub fn token(&self) -> &'static str {
        match self {
            ReplyStatus::Ok => "ok",
            ReplyStatus::BadQuery => "bad_query",
            ReplyStatus::Failed => "failed",
            ReplyStatus::Shed => "busy",
        }
    }
}

/// One request's outcome, shared byte-for-byte between a coalescing
/// leader and its followers (only [`QueryReply::coalesced`] and
/// [`QueryReply::elapsed_us`] are per-requester).
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// Outcome class (drives the HTTP status code).
    pub status: ReplyStatus,
    /// The printed OEM answer ([`oem::printer::print_store`] bytes —
    /// exactly what a one-shot CLI run prints), possibly truncated to
    /// [`QueryLimits::max_rows`] top-level objects.
    pub answer: String,
    /// Top-level objects in [`QueryReply::answer`].
    pub objects: usize,
    /// Top-level objects the query actually produced (≥ `objects` when
    /// truncated).
    pub total_objects: usize,
    /// Whether `answer` was cut to the row cap.
    pub truncated: bool,
    /// Partial-mode degradation summary (`None` when complete): the
    /// failed sources and dropped chain count.
    pub partial: Option<String>,
    /// Error message for `BadQuery` / `Failed` / `Shed`.
    pub error: Option<String>,
    /// Whether this requester shared another request's execution.
    pub coalesced: bool,
    /// Wall-clock time this requester waited, in microseconds (a reply
    /// from the cache takes a fraction of a millisecond).
    pub elapsed_us: u64,
}

impl QueryReply {
    /// [`QueryReply::elapsed_us`] in whole milliseconds, as the wire's
    /// `elapsed_ms` reports it.
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_us / 1000
    }

    fn empty(status: ReplyStatus, error: Option<String>, started: Instant) -> QueryReply {
        QueryReply {
            status,
            answer: String::new(),
            objects: 0,
            total_objects: 0,
            truncated: false,
            partial: None,
            error,
            coalesced: false,
            elapsed_us: started.elapsed().as_micros() as u64,
        }
    }
}

/// Recover a poisoned std lock: queries are pure `Result`-returning work,
/// but a panicking thread must not wedge the whole server.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------
// Admission gate

/// Bounded-concurrency gate: at most `workers` requests execute, at most
/// `queue` more wait; anything beyond is shed immediately. This is the
/// admission-control state machine of DESIGN.md §11 — a request is
/// *running*, *waiting*, or *shed*, and coalesced followers bypass the
/// gate entirely (they consume no execution slot).
struct Gate {
    workers: usize,
    queue: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
}

impl Gate {
    fn new(workers: usize, queue: usize) -> Gate {
        Gate {
            workers: workers.max(1),
            queue,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    /// Acquire an execution slot, waiting in the bounded queue if all
    /// workers are busy. Returns `false` (shed) when the queue is full.
    fn enter(&self) -> bool {
        let mut s = lock(&self.state);
        if s.running < self.workers {
            s.running += 1;
            return true;
        }
        if s.waiting >= self.queue {
            return false;
        }
        s.waiting += 1;
        while s.running >= self.workers {
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        s.waiting -= 1;
        s.running += 1;
        true
    }

    fn exit(&self) {
        lock(&self.state).running -= 1;
        self.cv.notify_one();
    }
}

// ---------------------------------------------------------------------
// In-flight coalescing

/// One in-flight execution: followers block on the condvar until the
/// leader publishes the reply.
struct Slot {
    done: Mutex<Option<QueryReply>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> QueryReply {
        let mut g = lock(&self.done);
        while g.is_none() {
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        g.as_ref().expect("published").clone()
    }

    fn publish(&self, reply: QueryReply) {
        *lock(&self.done) = Some(reply);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// The service

/// A resident [`Mediator`] behind admission control and coalescing.
/// Shared (`Arc`) across every connection thread; all state is internally
/// synchronized.
pub struct QueryService {
    mediator: Arc<Mediator>,
    gate: Gate,
    inflight: Mutex<HashMap<(QueryShape, QueryLimits), Arc<Slot>>>,
    metrics: ServerMetrics,
    default_limits: QueryLimits,
    started: Instant,
}

impl QueryService {
    /// Wrap a mediator with `workers` execution slots, a wait queue of
    /// `queue`, and default per-request limits.
    pub fn new(
        mediator: Arc<Mediator>,
        workers: usize,
        queue: usize,
        default_limits: QueryLimits,
    ) -> QueryService {
        QueryService {
            mediator,
            gate: Gate::new(workers, queue),
            inflight: Mutex::new(HashMap::new()),
            metrics: ServerMetrics::default(),
            default_limits,
            started: Instant::now(),
        }
    }

    /// The served mediator (for process-wide gauges).
    pub fn mediator(&self) -> &Mediator {
        &self.mediator
    }

    /// Request- and execution-scoped counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Milliseconds since the service was built.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The full `/metrics` snapshot: server counters plus the mediator's
    /// process-wide gauges.
    pub fn metrics_snapshot(&self) -> serde::Value {
        self.metrics.snapshot(&self.mediator, self.uptime_ms())
    }

    /// Apply a change report against the resident mediator's cache (the
    /// `POST /invalidate` backend): drops matching answer-cache entries
    /// in both tiers. Returns the number of distinct cached answers dropped.
    pub fn invalidate(&self, delta: &medmaker::SourceDelta) -> usize {
        let n = self.mediator.apply_delta(delta);
        self.metrics.record_invalidation(n);
        n
    }

    /// Serve one query: parse, coalesce-or-lead, admit, execute, render.
    /// Never panics and never blocks longer than the execution it joins.
    pub fn run(&self, query_text: &str, limits: &QueryLimits) -> QueryReply {
        let started = Instant::now();
        let limits = QueryLimits {
            deadline_ms: limits.deadline_ms.or(self.default_limits.deadline_ms),
            max_rows: limits.max_rows.or(self.default_limits.max_rows),
            batch_size: limits.batch_size.or(self.default_limits.batch_size),
        };
        let rule = match msl::parse_query(query_text) {
            Ok(r) => r,
            Err(e) => {
                let reply = QueryReply::empty(ReplyStatus::BadQuery, Some(e.to_string()), started);
                self.metrics.record_reply(&reply);
                return reply;
            }
        };
        // Coalescing identity: the query's shape (variable names and
        // condition order normalized away) and its limits — different
        // limits never share an execution.
        let key = (QueryShape::of(&rule), limits.clone());
        let (slot, leader) = {
            let mut map = lock(&self.inflight);
            match map.get(&key) {
                Some(s) => (Arc::clone(s), false),
                None => {
                    let s = Arc::new(Slot::new());
                    map.insert(key.clone(), Arc::clone(&s));
                    (s, true)
                }
            }
        };
        if !leader {
            let mut reply = slot.wait();
            reply.coalesced = true;
            reply.elapsed_us = started.elapsed().as_micros() as u64;
            self.metrics.record_reply(&reply);
            return reply;
        }
        let reply = if self.gate.enter() {
            let r = self.execute(&rule, &limits, started);
            self.gate.exit();
            r
        } else {
            // A shed leader sheds its followers too: they arrived while
            // the queue was full.
            QueryReply::empty(
                ReplyStatus::Shed,
                Some("admission queue full".to_string()),
                started,
            )
        };
        // Publish before unregistering: followers that already hold the
        // slot wake with the reply; the map entry disappears for new
        // arrivals.
        slot.publish(reply.clone());
        lock(&self.inflight).remove(&key);
        self.metrics.record_reply(&reply);
        reply
    }

    fn execute(&self, rule: &msl::Rule, limits: &QueryLimits, started: Instant) -> QueryReply {
        let outcome = match self.mediator.query_rule_with(rule, limits) {
            Ok(o) => o,
            Err(e) => {
                return QueryReply::empty(ReplyStatus::Failed, Some(e.to_string()), started);
            }
        };
        self.metrics.record_trace(&outcome.trace);
        let total = outcome.results.top_level().len();
        let (answer, objects, truncated) = match limits.max_rows {
            Some(max) if total > max => (
                oem::printer::print_store_limit(&outcome.results, max),
                max,
                true,
            ),
            _ => (oem::printer::print_store(&outcome.results), total, false),
        };
        let completeness = &outcome.trace.completeness;
        let partial = if completeness.is_complete() {
            None
        } else {
            let failed: Vec<String> = completeness
                .sources_failed
                .iter()
                .map(|(s, why)| format!("{s} ({why})"))
                .collect();
            Some(format!(
                "failed sources: {}; {} chain(s) dropped",
                failed.join(", "),
                completeness.skipped_chains.len()
            ))
        };
        QueryReply {
            status: ReplyStatus::Ok,
            answer,
            objects,
            total_objects: total,
            truncated,
            partial,
            error: None,
            coalesced: false,
            elapsed_us: started.elapsed().as_micros() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};

    fn service(workers: usize, queue: usize) -> QueryService {
        let med = Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            medmaker::externals::standard_registry(),
        )
        .unwrap();
        QueryService::new(Arc::new(med), workers, queue, QueryLimits::default())
    }

    #[test]
    fn answers_match_direct_mediator_output() {
        let svc = service(2, 4);
        let q = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med";
        let reply = svc.run(q, &QueryLimits::default());
        assert_eq!(reply.status, ReplyStatus::Ok, "{:?}", reply.error);
        let direct = svc
            .mediator()
            .query_rule(&msl::parse_query(q).unwrap())
            .unwrap();
        assert_eq!(reply.answer, oem::printer::print_store(&direct.results));
        assert_eq!(reply.objects, 1);
        assert!(!reply.truncated && !reply.coalesced);
    }

    #[test]
    fn bad_query_is_reported_not_executed() {
        let svc = service(2, 4);
        let reply = svc.run("this is not msl", &QueryLimits::default());
        assert_eq!(reply.status, ReplyStatus::BadQuery);
        assert!(reply.error.is_some());
        assert_eq!(svc.metrics().executions(), 0);
    }

    #[test]
    fn row_cap_truncates_to_a_prefix() {
        let svc = service(2, 4);
        let q = "P :- P:<cs_person {}>@med";
        let full = svc.run(q, &QueryLimits::default());
        assert_eq!(full.total_objects, 2);
        let capped = svc.run(
            q,
            &QueryLimits {
                max_rows: Some(1),
                ..Default::default()
            },
        );
        assert!(capped.truncated);
        assert_eq!(capped.objects, 1);
        assert_eq!(capped.total_objects, 2);
        assert!(
            full.answer.starts_with(&capped.answer),
            "capped answer must be a byte prefix of the full one"
        );
    }

    #[test]
    fn gate_sheds_beyond_workers_plus_queue() {
        // workers=1, queue=0: while one request executes, any second
        // request is shed immediately.
        let gate = Gate::new(1, 0);
        assert!(gate.enter());
        assert!(!gate.enter(), "queue of 0 must shed the second entrant");
        gate.exit();
        assert!(gate.enter());
        gate.exit();
    }

    #[test]
    fn gate_queue_admits_after_a_worker_frees() {
        let gate = Arc::new(Gate::new(1, 1));
        assert!(gate.enter());
        let g2 = Arc::clone(&gate);
        let waiter = thread::spawn(move || {
            let admitted = g2.enter();
            if admitted {
                g2.exit();
            }
            admitted
        });
        // Give the waiter time to park in the queue, then free the slot.
        thread::sleep(Duration::from_millis(50));
        gate.exit();
        assert!(waiter.join().unwrap(), "queued request must be admitted");
    }

    #[test]
    fn identical_concurrent_queries_coalesce_to_one_execution() {
        // A wrapper that counts queries and holds each one long enough
        // for the other client threads to arrive and coalesce.
        struct SlowWrapper {
            inner: wrappers::SemiStructuredWrapper,
            calls: AtomicUsize,
        }
        impl wrappers::Wrapper for SlowWrapper {
            fn name(&self) -> oem::Symbol {
                self.inner.name()
            }
            fn capabilities(&self) -> &wrappers::Capabilities {
                self.inner.capabilities()
            }
            fn query(&self, q: &msl::Rule) -> Result<oem::ObjectStore, wrappers::WrapperError> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(150));
                self.inner.query(q)
            }
        }
        let store = oem::parser::parse_store("<&p1, person, set, {<&n1, name, 'Ann'>}>").unwrap();
        let slow = Arc::new(SlowWrapper {
            inner: wrappers::SemiStructuredWrapper::new("src", store),
            calls: AtomicUsize::new(0),
        });
        let counter: Arc<SlowWrapper> = Arc::clone(&slow);
        let med = Mediator::new(
            "m",
            "<v {<n N>}> :- <person {<name N>}>@src",
            vec![slow],
            medmaker::externals::standard_registry(),
        )
        .unwrap();
        let svc = Arc::new(QueryService::new(
            Arc::new(med),
            4,
            16,
            QueryLimits::default(),
        ));
        const K: usize = 6;
        let mut handles = Vec::new();
        for _ in 0..K {
            let svc = Arc::clone(&svc);
            handles.push(thread::spawn(move || {
                svc.run("X :- X:<v {}>@m", &QueryLimits::default())
            }));
        }
        let replies: Vec<QueryReply> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let answers: Vec<&str> = replies.iter().map(|r| r.answer.as_str()).collect();
        assert!(replies.iter().all(|r| r.status == ReplyStatus::Ok));
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "shared bytes");
        // Exactly one source round-trip set: the leader's.
        assert_eq!(counter.calls.load(Ordering::SeqCst), 1);
        assert_eq!(svc.metrics().executions(), 1);
        assert!(replies.iter().filter(|r| r.coalesced).count() >= K - 1);
    }

    #[test]
    fn different_limits_do_not_coalesce() {
        let svc = service(4, 16);
        let q = "P :- P:<cs_person {}>@med";
        let a = svc.run(q, &QueryLimits::default());
        let b = svc.run(
            q,
            &QueryLimits {
                max_rows: Some(1),
                ..Default::default()
            },
        );
        assert!(!a.truncated && b.truncated);
        assert_eq!(svc.metrics().executions(), 2);
    }
}
