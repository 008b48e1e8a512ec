//! # medmaker-server — the resident mediator query service
//!
//! `medmaker serve` keeps one [`medmaker::Mediator`] alive and answers
//! many queries concurrently over TCP, so the answer cache, learned
//! statistics, and circuit breakers amortize across queries instead of
//! dying with each process. The wire protocols
//! and operational behavior are specified in DESIGN.md §11 and
//! docs/OPERATIONS.md; in short:
//!
//! * **HTTP/1.1** (hand-rolled, [`http`]): `POST /query` with a JSON
//!   body, `GET /metrics`, `GET /healthz`.
//! * **Line protocol** ([`proto`]): one MSL query per line, answers
//!   terminated by a `.` line. Both protocols share one port — the first
//!   line of each connection is sniffed.
//! * **The wire costs what the kernel charges**: the acceptor blocks in
//!   `accept` (shutdown wakes it with a connection to its own address),
//!   every reply is one `write` on a `TCP_NODELAY` socket, and every line
//!   read is bounded ([`proto::MAX_LINE`], [`http::MAX_HEADER`]).
//! * **Admission control + coalescing** ([`service`]): bounded
//!   concurrent executions, bounded wait queue, 503/`BUSY` sheds beyond
//!   that, and identical in-flight queries share one execution.
//!
//! ```no_run
//! use medmaker::{Mediator, QueryLimits};
//! use medmaker_server::{Server, ServerOptions};
//! use std::sync::Arc;
//! use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
//!
//! let med = Mediator::new(
//!     "med",
//!     MS1,
//!     vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
//!     medmaker::externals::standard_registry(),
//! ).unwrap();
//! let handle = Server::start(Arc::new(med), ServerOptions::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! // ... handle.shutdown() on SIGTERM ...
//! ```

#![warn(missing_docs)]

pub mod http;
mod line;
pub mod metrics;
pub mod proto;
pub mod service;
pub mod signal;

pub use service::{QueryReply, QueryService, ReplyStatus};

use line::Line;
use medmaker::{Mediator, QueryLimits};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How the daemon listens and admits work.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Bind address; port 0 picks a free port (default `127.0.0.1:0`).
    pub addr: String,
    /// Concurrent query executions (default 4).
    pub workers: usize,
    /// Requests allowed to wait for a worker before sheds begin
    /// (default 64).
    pub queue: usize,
    /// Open connections beyond which new ones are refused with 503
    /// (default 256).
    pub max_connections: usize,
    /// Limits applied to requests that don't carry their own.
    pub default_limits: QueryLimits,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 64,
            max_connections: 256,
            default_limits: QueryLimits::default(),
        }
    }
}

/// The daemon. [`Server::start`] binds, spawns the acceptor, and returns
/// a [`ServerHandle`] for address lookup and shutdown.
pub struct Server;

/// A running server: inspect its address and service, shut it down.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<QueryService>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `options.addr` and serve `mediator` until
    /// [`ServerHandle::shutdown`]. Connection handling runs on one thread
    /// per connection; query execution concurrency is bounded by the
    /// admission gate, not by connection count.
    pub fn start(mediator: Arc<Mediator>, options: ServerOptions) -> Result<ServerHandle, String> {
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))?;
        let service = Arc::new(QueryService::new(
            mediator,
            options.workers,
            options.queue,
            options.default_limits.clone(),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let active = Arc::clone(&active);
            let max_connections = options.max_connections;
            thread::spawn(move || accept_loop(listener, service, stop, active, max_connections))
        };
        Ok(ServerHandle {
            addr,
            service,
            stop,
            active,
            acceptor: Some(acceptor),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Where a connection from this process reaches the listener: the
    /// bound address, or loopback on the bound port when the listener is
    /// bound to every interface (`0.0.0.0` / `::` is no destination).
    fn wake_addr(&self) -> SocketAddr {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        addr
    }

    /// The shared service — metrics and the resident mediator.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Graceful shutdown: stop accepting, then wait up to ~2 s for open
    /// connections to finish their current request. In-flight queries
    /// complete; idle connections are abandoned to their read timeout.
    ///
    /// The acceptor is blocked in `accept`, so after raising `stop` this
    /// connects to the listener to wake it. If that connection cannot be
    /// made the acceptor is left detached rather than joined: it exits at
    /// the next arrival, and shutdown never waits on one.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            if TcpStream::connect_timeout(&self.wake_addr(), Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
        for _ in 0..200 {
            if self.active.load(Ordering::SeqCst) == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<QueryService>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    max_connections: usize,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // `accept` blocks; shutdown wakes it by connecting.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if active.load(Ordering::SeqCst) >= max_connections {
                    let _ = http::write_response(
                        &mut stream,
                        503,
                        "text/plain",
                        b"too many connections\n",
                        &[("Retry-After", "1")],
                    );
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let active = Arc::clone(&active);
                thread::spawn(move || {
                    let _ = handle_connection(stream, &service, &stop);
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // A real failure (EMFILE, ENOMEM, ...): back off, don't spin.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serve one connection: sniff the first line, then speak HTTP (one
/// exchange, `Connection: close`) or the line protocol (many queries)
/// accordingly.
fn handle_connection(
    stream: TcpStream,
    service: &QueryService,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    // Replies are whole buffers; none should wait for the peer's ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Outlives the loop body: a line the idle timeout interrupts is
    // resumed, not dropped. Bounded by `MAX_LINE`.
    let mut line = Vec::new();
    loop {
        match line::read_capped(&mut reader, &mut line, proto::MAX_LINE) {
            Ok(Line::Eof) => break, // client closed
            Ok(Line::Complete) => {}
            Ok(Line::TooLong) => {
                writer.write_all(b"ERR line too long\n")?;
                writer.shutdown(Shutdown::Write)?;
                line::skip(&mut reader);
                break;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle read timeout: drop the connection once shutdown is
                // requested, otherwise keep waiting for the next query.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        match std::str::from_utf8(&line) {
            Ok(text) => {
                let first = text.trim_end_matches(['\r', '\n']);
                if http::is_request_line(first) {
                    handle_http(first, &mut reader, &mut writer, service)?;
                    break; // every HTTP response closes the connection
                }
                if !first.is_empty() {
                    let reply = service.run(first, &QueryLimits::default());
                    proto::write_reply(&mut writer, &reply)?;
                }
            }
            Err(_) => writer.write_all(b"ERR line is not UTF-8\n")?,
        }
        line.clear();
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Route one HTTP exchange.
fn handle_http(
    first_line: &str,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    service: &QueryService,
) -> std::io::Result<()> {
    let request = match http::read_request(first_line, reader) {
        Ok(r) => r,
        Err(e) => {
            return http::write_response(
                writer,
                400,
                "text/plain",
                format!("{e}\n").as_bytes(),
                &[],
            );
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => http::write_response(writer, 200, "text/plain", b"ok\n", &[]),
        ("GET", "/metrics") => {
            let body = serde_json::to_string_pretty(&service.metrics_snapshot())
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            http::write_response(
                writer,
                200,
                "application/json",
                format!("{body}\n").as_bytes(),
                &[],
            )
        }
        ("POST", "/query") => {
            let (query, limits) = match parse_query_body(&request.body) {
                Ok(p) => p,
                Err(e) => {
                    let body = format!("{{\"status\":\"bad_query\",\"error\":{}}}\n", json_str(&e));
                    return http::write_response(
                        writer,
                        400,
                        "application/json",
                        body.as_bytes(),
                        &[],
                    );
                }
            };
            let reply = service.run(&query, &limits);
            let status = match reply.status {
                ReplyStatus::Ok => 200,
                ReplyStatus::BadQuery => 400,
                ReplyStatus::Failed => 500,
                ReplyStatus::Shed => 503,
            };
            let body = serde_json::to_string_pretty(&reply_value(&reply))
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            let retry: &[(&str, &str)] = if status == 503 {
                &[("Retry-After", "1")]
            } else {
                &[]
            };
            http::write_response(
                writer,
                status,
                "application/json",
                format!("{body}\n").as_bytes(),
                retry,
            )
        }
        ("POST", "/invalidate") => {
            let delta = match parse_invalidate_body(&request.body) {
                Ok(d) => d,
                Err(e) => {
                    let body = format!("{{\"error\":{}}}\n", json_str(&e));
                    return http::write_response(
                        writer,
                        400,
                        "application/json",
                        body.as_bytes(),
                        &[],
                    );
                }
            };
            let n = service.invalidate(&delta);
            let body = format!(
                "{{\"source\":{},\"invalidated\":{n}}}\n",
                json_str(&delta.source.as_str())
            );
            http::write_response(writer, 200, "application/json", body.as_bytes(), &[])
        }
        ("POST" | "GET", _) => http::write_response(writer, 404, "text/plain", b"not found\n", &[]),
        _ => http::write_response(writer, 405, "text/plain", b"method not allowed\n", &[]),
    }
}

/// Parse the `POST /query` JSON body:
/// `{"query": "...", "deadline_ms"?: n, "max_rows"?: n, "batch_size"?: n}`.
fn parse_query_body(body: &[u8]) -> Result<(String, QueryLimits), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let query = v
        .get("query")
        .and_then(|q| q.as_str())
        .ok_or("missing string field 'query'")?
        .to_string();
    let uint = |field: &str| -> Result<Option<u64>, String> {
        match v.get(field) {
            None | Some(serde::Value::Null) => Ok(None),
            Some(x) => x
                .as_i64()
                .filter(|n| *n >= 0)
                .map(|n| Some(n as u64))
                .ok_or_else(|| format!("field '{field}' must be a non-negative integer")),
        }
    };
    let limits = QueryLimits {
        deadline_ms: uint("deadline_ms")?,
        max_rows: uint("max_rows")?.map(|n| n as usize),
        batch_size: match uint("batch_size")? {
            Some(0) => return Err("field 'batch_size' must be at least 1".to_string()),
            other => other.map(|n| n as usize),
        },
    };
    Ok((query, limits))
}

/// Parse the `POST /invalidate` JSON body:
/// `{"source": "...", "labels"?: ["l", ...], "keys"?: ["k", ...]}`.
/// No labels and no keys means whole-source invalidation.
fn parse_invalidate_body(body: &[u8]) -> Result<medmaker::SourceDelta, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let source = v
        .get("source")
        .and_then(|s| s.as_str())
        .ok_or("missing string field 'source'")?;
    let strings = |field: &str| -> Result<Vec<String>, String> {
        match v.get(field) {
            None | Some(serde::Value::Null) => Ok(Vec::new()),
            Some(serde::Value::Array(items)) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("field '{field}' must hold strings"))
                })
                .collect(),
            Some(_) => Err(format!("field '{field}' must be an array of strings")),
        }
    };
    let mut delta = medmaker::SourceDelta::whole(oem::Symbol::intern(source));
    delta.labels = strings("labels")?
        .into_iter()
        .map(|l| oem::Symbol::intern(&l))
        .collect();
    delta.keys = strings("keys")?.into_iter().collect();
    Ok(delta)
}

/// The JSON document for one reply (the HTTP response body).
fn reply_value(reply: &QueryReply) -> serde::Value {
    let opt_str = |s: &Option<String>| match s {
        Some(s) => serde::Value::Str(s.clone()),
        None => serde::Value::Null,
    };
    serde::Value::Object(vec![
        (
            "status".to_string(),
            serde::Value::Str(reply.status.token().to_string()),
        ),
        (
            "objects".to_string(),
            serde::Value::Int(reply.objects as i64),
        ),
        (
            "total_objects".to_string(),
            serde::Value::Int(reply.total_objects as i64),
        ),
        ("truncated".to_string(), serde::Value::Bool(reply.truncated)),
        ("partial".to_string(), opt_str(&reply.partial)),
        ("coalesced".to_string(), serde::Value::Bool(reply.coalesced)),
        (
            "elapsed_ms".to_string(),
            serde::Value::Int(reply.elapsed_ms() as i64),
        ),
        (
            "elapsed_us".to_string(),
            serde::Value::Int(reply.elapsed_us as i64),
        ),
        (
            "answer".to_string(),
            serde::Value::Str(reply.answer.clone()),
        ),
        ("error".to_string(), opt_str(&reply.error)),
    ])
}

/// JSON-escape a string (for hand-built error bodies).
fn json_str(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_string()))
        .unwrap_or_else(|_| "\"error\"".to_string())
}

#[cfg(test)]
pub(crate) mod testing {
    /// A writer that counts the `write` calls it receives — what a socket
    /// would see as separate segments.
    #[derive(Default)]
    pub struct CountingWriter {
        pub writes: usize,
        pub bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};

    fn start_paper_server() -> ServerHandle {
        let med = Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            medmaker::externals::standard_registry(),
        )
        .unwrap();
        Server::start(Arc::new(med), ServerOptions::default()).unwrap()
    }

    fn http_roundtrip(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let h = start_paper_server();
        let res = http_roundtrip(h.addr(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(res.starts_with("HTTP/1.1 200 OK"), "{res}");
        assert!(res.ends_with("ok\n"), "{res}");
        let res = http_roundtrip(h.addr(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(res.contains("\"queries_total\""), "{res}");
        assert!(res.contains("\"stats_observations\""), "{res}");
        h.shutdown();
    }

    #[test]
    fn http_query_executes_and_unknown_path_404s() {
        let h = start_paper_server();
        let body = r#"{"query": "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med"}"#;
        let req = format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let res = http_roundtrip(h.addr(), &req);
        assert!(res.starts_with("HTTP/1.1 200 OK"), "{res}");
        assert!(res.contains("\"status\": \"ok\""), "{res}");
        assert!(res.contains("Joe Chung"), "{res}");
        let res = http_roundtrip(h.addr(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(res.starts_with("HTTP/1.1 404"), "{res}");
        h.shutdown();
    }

    #[test]
    fn line_protocol_answers_many_queries_per_connection() {
        let h = start_paper_server();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"P :- P:<cs_person {}>@med\nnot msl\n")
            .unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut head = String::new();
        reader.read_line(&mut head).unwrap();
        assert_eq!(head, "OK 2 2\n");
        let mut body_lines = 0;
        loop {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            if l == ".\n" {
                break;
            }
            body_lines += 1;
        }
        assert!(body_lines > 0);
        let mut err = String::new();
        reader.read_line(&mut err).unwrap();
        assert!(err.starts_with("ERR "), "{err}");
        h.shutdown();
    }

    #[test]
    fn cache_hit_ratio_reads_off_metrics_over_live_socket() {
        // `mediator.cache_hits` counts exact-key hits only; without
        // `cache_containment_hits` beside it the ratio an operator computes
        // is far too low exactly when the cache works best. Prime the
        // whole view, then ask for a slice of it: the slice's source
        // queries are narrower than what is cached, so they are
        // containment hits. One tuple a batch keeps every round-trip to
        // one lookup, which lets the trace side of `/metrics` count the
        // lookups independently of the cache's own counters.
        let med = Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            medmaker::externals::standard_registry(),
        )
        .unwrap()
        .with_options(medmaker::MediatorOptions {
            cache: medmaker::CacheOptions::enabled(),
            learn_stats: false,
            ..Default::default()
        });
        let h = Server::start(Arc::new(med), ServerOptions::default()).unwrap();
        // Run `query`, then scrape: (hits, containment hits, misses) as
        // the cache counts them, and the lookups the executions made.
        let scrape_after = |query: &str| -> ([i64; 3], i64) {
            let body = format!(r#"{{"query": "{query}", "batch_size": 1}}"#);
            let res = http_roundtrip(
                h.addr(),
                &format!(
                    "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                ),
            );
            assert!(res.starts_with("HTTP/1.1 200 OK"), "{res}");
            let metrics = http_roundtrip(h.addr(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
            let json = metrics.split("\r\n\r\n").nth(1).expect("body");
            let v: serde::Value = serde_json::from_str(json.trim()).unwrap();
            let read = |section: &str, key: &str| -> i64 {
                let n = v
                    .get(section)
                    .and_then(|s| s.get(key))
                    .and_then(|n| n.as_i64());
                n.unwrap_or_else(|| panic!("{section}.{key} missing: {metrics}"))
            };
            let cache = ["cache_hits", "cache_containment_hits", "cache_misses"];
            let served = read("server", "cache_hits") + read("server", "containment_hits");
            (
                cache.map(|key| read("mediator", key)),
                served + read("server", "source_calls"),
            )
        };
        let ([hits, primed_containment, misses], lookups) =
            scrape_after("P :- P:<cs_person {}>@med");
        assert!(misses > 0, "a cold cache misses");
        assert_eq!(hits + primed_containment + misses, lookups);
        let ([hits, containment, misses], lookups) =
            scrape_after("S :- S:<cs_person {<year 3>}>@med");
        assert!(
            containment > primed_containment,
            "the slice is filtered out of the cached whole: {containment}"
        );
        assert_eq!(hits + containment + misses, lookups);
        h.shutdown();
    }

    #[test]
    fn invalidate_endpoint_makes_the_next_query_refetch_over_live_socket() {
        // A resident mediator with the cache on: the first query pays
        // round-trips and fills the answer cache, a repeat pays none, and
        // after `POST /invalidate` the repeat goes back to the source.
        // Learning is off so every repeat runs the same plan.
        let med = Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            medmaker::externals::standard_registry(),
        )
        .unwrap()
        .with_options(medmaker::MediatorOptions {
            cache: medmaker::CacheOptions::enabled(),
            learn_stats: false,
            ..Default::default()
        });
        let h = Server::start(Arc::new(med), ServerOptions::default()).unwrap();
        let body = r#"{"query": "S :- S:<cs_person {<year 3>}>@med"}"#;
        let query_req = format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        // Run the query, then read the lifetime `server.source_calls`.
        let calls_after_query = || -> (i64, String) {
            let res = http_roundtrip(h.addr(), &query_req);
            assert!(res.starts_with("HTTP/1.1 200 OK"), "{res}");
            let metrics = http_roundtrip(h.addr(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
            let json = metrics.split("\r\n\r\n").nth(1).expect("body");
            let v: serde::Value = serde_json::from_str(json.trim()).unwrap();
            let server = v.get("server").expect("server section");
            let calls = server.get("source_calls").unwrap().as_i64().unwrap();
            (calls, metrics)
        };
        let (cold, metrics) = calls_after_query();
        assert!(cold > 0, "the first query pays round-trips: {metrics}");
        let (warm, metrics) = calls_after_query();
        assert_eq!(warm, cold, "a repeat is served from the cache: {metrics}");
        // Whole-source invalidation of the bind-join target.
        let inv = r#"{"source": "whois"}"#;
        let inv_req = format!(
            "POST /invalidate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{inv}",
            inv.len()
        );
        let res = http_roundtrip(h.addr(), &inv_req);
        assert!(res.starts_with("HTTP/1.1 200 OK"), "{res}");
        assert!(res.contains("\"invalidated\":"), "{res}");
        let (after, metrics) = calls_after_query();
        assert!(
            after > warm,
            "the repeat after an invalidation must re-fetch: {metrics}"
        );
        assert!(metrics.contains("\"invalidations\": 1"), "{metrics}");
        // A key-scoped delta that names nothing cached drops nothing.
        let inv = r#"{"source": "whois", "labels": [], "keys": ["no such key"]}"#;
        let inv_req = format!(
            "POST /invalidate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{inv}",
            inv.len()
        );
        let res = http_roundtrip(h.addr(), &inv_req);
        assert!(res.starts_with("HTTP/1.1 200 OK"), "{res}");
        let (unchanged, metrics) = calls_after_query();
        assert_eq!(unchanged, after, "nothing was dropped: {metrics}");
        h.shutdown();
    }

    #[test]
    fn invalidate_body_parses_scopes_and_rejects_garbage() {
        let d = parse_invalidate_body(br#"{"source": "whois"}"#).unwrap();
        assert!(d.is_unscoped());
        assert_eq!(d.source.as_str(), "whois");
        let d =
            parse_invalidate_body(br#"{"source": "whois", "labels": ["dept"], "keys": ["K1"]}"#)
                .unwrap();
        assert!(!d.is_unscoped());
        assert_eq!(d.labels.len(), 1);
        assert_eq!(d.keys.len(), 1);
        assert!(parse_invalidate_body(b"{}").is_err());
        assert!(parse_invalidate_body(br#"{"source": "s", "labels": [1]}"#).is_err());
        assert!(parse_invalidate_body(b"not json").is_err());
    }

    #[test]
    fn bad_json_body_is_a_400() {
        let h = start_paper_server();
        let body = "not json";
        let req = format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let res = http_roundtrip(h.addr(), &req);
        assert!(res.starts_with("HTTP/1.1 400"), "{res}");
        h.shutdown();
    }

    #[test]
    fn parse_query_body_reads_limits() {
        let (q, limits) = parse_query_body(
            br#"{"query": "X :- X:<v {}>@m", "deadline_ms": 100, "max_rows": 5, "batch_size": 2}"#,
        )
        .unwrap();
        assert_eq!(q, "X :- X:<v {}>@m");
        assert_eq!(limits.deadline_ms, Some(100));
        assert_eq!(limits.max_rows, Some(5));
        assert_eq!(limits.batch_size, Some(2));
        assert!(parse_query_body(b"{}").is_err());
        assert!(parse_query_body(br#"{"query": "q", "batch_size": 0}"#).is_err());
        assert!(parse_query_body(br#"{"query": "q", "max_rows": -1}"#).is_err());
    }
}
