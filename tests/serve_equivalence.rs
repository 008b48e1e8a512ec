//! Resident-server differential guard: `medmaker serve` must be
//! answer-invisible. N concurrent loopback clients — over either wire
//! protocol — get byte-identical answers to a one-shot mediator run of
//! the same query, across executor modes (sequential streaming, parallel
//! streaming, Partial-mode degradation). On top of that, the serving
//! semantics of DESIGN.md §11 are pinned end-to-end over real sockets:
//! identical concurrent queries coalesce onto exactly one source
//! round-trip set, sequential repeats are answered from the resident
//! answer cache, and a saturated admission gate sheds with HTTP 503 /
//! line-protocol `BUSY`.

use medmaker::{FaultOptions, Mediator, MediatorOptions, OnSourceFailure};
use medmaker_server::{Server, ServerHandle, ServerOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use wrappers::fault::{FaultInjectingWrapper, FaultPlan};
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
use wrappers::Wrapper;

/// The workload: every plan-node shape, same set the streaming guard uses.
const QUERIES: &[&str] = &[
    "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
    "P :- P:<cs_person {}>@med",
    "<roster {<person N> <as R>}> :- <cs_person {<name N> <rel R>}>@med",
    "S :- S:<cs_person {<name N> | R:{<year 3>}}>@med",
    "<o {<n N>}> :- <cs_person {<name N>}>@med AND eq(N, N)",
];

fn paper_mediator(options: MediatorOptions) -> Mediator {
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(options)
}

/// cs is permanently down; Partial mode keeps the whois chains.
fn partial_mediator() -> Mediator {
    let down: Arc<dyn Wrapper> = Arc::new(FaultInjectingWrapper::new(
        Arc::new(cs_wrapper()),
        FaultPlan::always_down(),
    ));
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois_wrapper()), down],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(MediatorOptions {
        fault: FaultOptions {
            on_source_failure: OnSourceFailure::Partial,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn start(med: Mediator, workers: usize, queue: usize) -> ServerHandle {
    Server::start(
        Arc::new(med),
        ServerOptions {
            workers,
            queue,
            ..Default::default()
        },
    )
    .unwrap()
}

/// One-shot oracle: what a fresh CLI run prints for this query.
fn one_shot(med: &Mediator, query: &str) -> String {
    oem::printer::print_store(&med.query_text(query).unwrap())
}

/// Line-protocol client: send one query, return (header, answer bytes).
fn line_query(addr: std::net::SocketAddr, query: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(format!("{query}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(s);
    let mut head = String::new();
    reader.read_line(&mut head).unwrap();
    let head = head.trim_end().to_string();
    if !head.starts_with("OK") {
        return (head, String::new());
    }
    let mut answer = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line == ".\n" {
            break;
        }
        answer.push_str(&line);
    }
    (head, answer)
}

/// HTTP client: POST /query, return (status line, JSON body text).
fn http_query(addr: std::net::SocketAddr, query: &str) -> (String, String) {
    let body = format!(
        "{{\"query\": {}}}",
        serde_json::to_string(&serde::Value::Str(query.to_string())).unwrap()
    );
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    let status = head.lines().next().unwrap().to_string();
    (status, body.to_string())
}

/// The `answer` string field of a /query JSON reply.
fn json_answer(body: &str) -> String {
    let v: serde::Value = serde_json::from_str(body.trim()).unwrap();
    v.get("answer")
        .and_then(|a| a.as_str())
        .unwrap()
        .to_string()
}

#[test]
fn concurrent_clients_match_one_shot_runs() {
    // (mode name, resident mediator, one-shot oracle) — the oracle is a
    // separate instance so the resident one's cross-query state cannot
    // leak into the expectation.
    let modes: Vec<(&str, Mediator, Mediator)> = vec![
        (
            "sequential",
            paper_mediator(MediatorOptions::default()),
            paper_mediator(MediatorOptions::default()),
        ),
        (
            "parallel",
            paper_mediator(MediatorOptions {
                parallel: true,
                ..Default::default()
            }),
            paper_mediator(MediatorOptions {
                parallel: true,
                ..Default::default()
            }),
        ),
    ];
    for (mode, resident, oracle) in modes {
        let expected: Vec<String> = QUERIES.iter().map(|q| one_shot(&oracle, q)).collect();
        let handle = start(resident, 4, 64);
        let addr = handle.addr();
        let mut clients = Vec::new();
        for round in 0..2usize {
            for (i, q) in QUERIES.iter().enumerate() {
                let expected = expected[i].clone();
                let q = q.to_string();
                clients.push(thread::spawn(move || {
                    // Alternate protocols so both wire formats are held to
                    // the same bytes.
                    let got = if (round + i) % 2 == 0 {
                        line_query(addr, &q).1
                    } else {
                        let (status, body) = http_query(addr, &q);
                        assert!(status.contains("200"), "{status}: {body}");
                        json_answer(&body)
                    };
                    (q, expected, got)
                }));
            }
        }
        for c in clients {
            let (q, expected, got) = c.join().unwrap();
            assert_eq!(got, expected, "mode={mode} query={q}");
        }
        handle.shutdown();
    }
}

#[test]
fn partial_mode_answers_match_and_are_flagged() {
    let expected = {
        let oracle = partial_mediator();
        one_shot(&oracle, "P :- P:<cs_person {}>@med")
    };
    let handle = start(partial_mediator(), 4, 64);
    let (head, answer) = line_query(handle.addr(), "P :- P:<cs_person {}>@med");
    assert!(
        head.ends_with("PARTIAL"),
        "header must flag degradation: {head}"
    );
    assert_eq!(
        answer, expected,
        "degraded answers must match one-shot runs"
    );
    let (status, body) = http_query(handle.addr(), "P :- P:<cs_person {}>@med");
    assert!(status.contains("200"), "{status}");
    assert_eq!(json_answer(&body), expected);
    assert!(body.contains("\"partial\": \"failed sources:"), "{body}");
    handle.shutdown();
}

#[test]
fn sequential_requests_are_served_from_the_resident_cache() {
    // Fig 3.6's query ten times: every one-shot run builds a mediator and
    // pays the cold round-trips; the resident one pays them once and
    // answers every later request from its cache, with the same bytes.
    const N: usize = 10;
    const Q: &str = "S :- S:<cs_person {<year 3>}>@med";
    let options = || MediatorOptions {
        learn_stats: false,
        unify_mode: engine::unify::UnifyMode::Minimal,
        cache: medmaker::CacheOptions::enabled(),
        ..Default::default()
    };
    let q = msl::parse_query(Q).unwrap();
    let cold = paper_mediator(options()).query_rule(&q).unwrap();
    assert_eq!(cold.trace.total_source_calls(), 3);
    let expected = oem::printer::print_store(&cold.results);
    let handle = start(paper_mediator(options()), 4, 64);
    for i in 0..N {
        let (status, body) = http_query(handle.addr(), Q);
        assert!(status.contains("200"), "{status}: {body}");
        assert_eq!(json_answer(&body), expected, "request {i}");
    }
    let service = Arc::clone(handle.service());
    // Sequential arrivals never coalesce: every request executes.
    assert_eq!(service.metrics().executions() as usize, N);
    // Requests 2..N hit the cache once per round-trip the first paid.
    let c = service.mediator().cache_counters();
    assert_eq!((c.misses, c.hits), (3, 3 * (N - 1)), "{c:?}");
    handle.shutdown();
}

/// Counts calls and holds each one so concurrent clients pile up.
struct SlowWrapper {
    inner: wrappers::SemiStructuredWrapper,
    calls: AtomicUsize,
    hold: Duration,
}

impl Wrapper for SlowWrapper {
    fn name(&self) -> oem::Symbol {
        self.inner.name()
    }
    fn capabilities(&self) -> &wrappers::Capabilities {
        self.inner.capabilities()
    }
    fn query(&self, q: &msl::Rule) -> Result<oem::ObjectStore, wrappers::WrapperError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        thread::sleep(self.hold);
        self.inner.query(q)
    }
}

fn slow_mediator(hold: Duration) -> (Mediator, Arc<SlowWrapper>) {
    let store = oem::parser::parse_store("<&p1, person, set, {<&n1, name, 'Ann'>}>").unwrap();
    let slow = Arc::new(SlowWrapper {
        inner: wrappers::SemiStructuredWrapper::new("src", store),
        calls: AtomicUsize::new(0),
        hold,
    });
    let med = Mediator::new(
        "m",
        "<v {<n N>}> :- <person {<name N>}>@src",
        vec![Arc::clone(&slow) as Arc<dyn Wrapper>],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    (med, slow)
}

#[test]
fn identical_concurrent_clients_coalesce_over_the_wire() {
    let (med, counter) = slow_mediator(Duration::from_millis(300));
    let handle = start(med, 4, 16);
    let addr = handle.addr();
    const K: usize = 6;
    let mut clients = Vec::new();
    for _ in 0..K {
        clients.push(thread::spawn(move || http_query(addr, "X :- X:<v {}>@m")));
    }
    let replies: Vec<(String, String)> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let answers: Vec<String> = replies
        .iter()
        .map(|(status, body)| {
            assert!(status.contains("200"), "{status}: {body}");
            json_answer(body)
        })
        .collect();
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "shared bytes");
    // The pin: K clients, exactly one set of source round-trips.
    assert_eq!(counter.calls.load(Ordering::SeqCst), 1);
    let coalesced = replies
        .iter()
        .filter(|(_, body)| body.contains("\"coalesced\": true"))
        .count();
    assert!(coalesced >= K - 1, "{coalesced} of {K} marked coalesced");
    handle.shutdown();
}

#[test]
fn saturated_gate_sheds_with_503_and_busy() {
    // One worker, no queue: while the slow query executes, any *distinct*
    // query (distinct — identical ones would coalesce, not shed) is shed.
    let (med, _) = slow_mediator(Duration::from_millis(700));
    let handle = start(med, 1, 0);
    let addr = handle.addr();
    let blocker = thread::spawn(move || http_query(addr, "X :- X:<v {}>@m"));
    thread::sleep(Duration::from_millis(150)); // let the blocker enter the gate
    let (status, body) = http_query(addr, "Y :- Y:<v {<n 'Ann'>}>@m");
    assert!(status.contains("503"), "expected 503, got {status}: {body}");
    assert!(body.contains("\"busy\""), "{body}");
    let (head, _) = line_query(addr, "Z :- Z:<v {<n 'Nobody'>}>@m");
    assert!(head.starts_with("BUSY"), "expected BUSY, got {head}");
    // The blocker itself completes normally once its execution finishes.
    let (status, body) = blocker.join().unwrap();
    assert!(status.contains("200"), "{status}: {body}");
    handle.shutdown();
}
