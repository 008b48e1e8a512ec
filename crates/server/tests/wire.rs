//! The wire layer over real sockets on `127.0.0.1:0`: what a connection
//! costs (an exchange is bounded by the kernel's price, not by a polling
//! acceptor or a delayed ACK), that shutdown cannot hang on the blocking
//! `accept`, that no line is read without a bound, and that hostile or
//! half-finished peers end in an error reply or a closed connection —
//! never a panic, a hung handler or a leaked connection slot.
//!
//! Timing assertions are on medians, so one host stall cannot fail them,
//! and the tests of this file run one at a time so they do not time each
//! other.

use medmaker::Mediator;
use medmaker_server::{Server, ServerHandle, ServerOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};

const JOE: &str = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med";
const HEALTHZ: &str = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";

/// Held by every test: the timing tests must not share the two cores
/// with a test that pushes a megabyte through loopback.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn paper_mediator() -> Mediator {
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
}

fn start(options: ServerOptions) -> ServerHandle {
    Server::start(Arc::new(paper_mediator()), options).unwrap()
}

/// A client socket that fails a test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// One HTTP exchange on a fresh connection, read to end of stream.
fn http(addr: SocketAddr, request: &str) -> String {
    let mut s = connect(addr);
    s.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

fn post_query(query: &str) -> String {
    let body = format!("{{\"query\": \"{query}\"}}");
    format!(
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Read one line-protocol response block; returns its head line and the
/// answer lines before the `.` terminator.
fn read_block(reader: &mut impl BufRead) -> (String, Vec<String>) {
    let mut head = String::new();
    reader.read_line(&mut head).unwrap();
    let mut body = Vec::new();
    if head.starts_with("OK ") {
        loop {
            let mut l = String::new();
            assert!(reader.read_line(&mut l).unwrap() > 0, "block cut short");
            if l == ".\n" {
                break;
            }
            body.push(l);
        }
    }
    (head, body)
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

// ---------------------------------------------------------------------
// What a connection costs

#[test]
fn an_http_exchange_does_not_wait_for_a_polling_acceptor() {
    let _serial = serial();
    let h = start(ServerOptions::default());
    let times: Vec<Duration> = (0..41)
        .map(|_| {
            let started = Instant::now();
            let res = http(h.addr(), HEALTHZ);
            assert!(res.starts_with("HTTP/1.1 200 OK"), "{res}");
            started.elapsed()
        })
        .collect();
    let p50 = median(times);
    assert!(
        p50 < Duration::from_millis(2),
        "median /healthz exchange took {p50:?}"
    );
    h.shutdown();
}

#[test]
fn a_line_protocol_exchange_does_not_wait_for_a_delayed_ack() {
    let _serial = serial();
    let h = start(ServerOptions::default());
    let mut s = connect(h.addr());
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let times: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            s.write_all(format!("{JOE}\n").as_bytes()).unwrap();
            let (head, body) = read_block(&mut reader);
            assert_eq!(head, "OK 1 1\n");
            assert!(body.concat().contains("Joe Chung"));
            started.elapsed()
        })
        .collect();
    let p50 = median(times);
    assert!(
        p50 < Duration::from_millis(10),
        "median line-protocol exchange took {p50:?}"
    );
    drop((s, reader)); // or shutdown waits out its drain for this idle connection
    h.shutdown();
}

#[test]
fn shutdown_wakes_the_blocked_acceptor_and_closes_the_listener() {
    let _serial = serial();
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let h = start(ServerOptions {
            addr: bind.to_string(),
            ..Default::default()
        });
        let port = h.addr().port();
        let loopback = SocketAddr::from(([127, 0, 0, 1], port));
        assert!(http(loopback, HEALTHZ).starts_with("HTTP/1.1 200 OK"));
        let started = Instant::now();
        h.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "{bind}: shutdown took {took:?}"
        );
        assert!(
            TcpStream::connect(loopback).is_err(),
            "{bind}: still listening after shutdown"
        );
    }
}

// ---------------------------------------------------------------------
// Bounded reads

#[test]
fn an_over_long_line_is_refused_and_the_server_keeps_serving() {
    let _serial = serial();
    let h = start(ServerOptions::default());
    let mut s = connect(h.addr());
    let mut reader = BufReader::new(s.try_clone().unwrap());
    // The server may answer before it has been sent everything, so write
    // from a second thread and do not insist that every byte is taken.
    let writer = std::thread::spawn(move || {
        let mut line = vec![b'x'; (1 << 20) + 1];
        line.push(b'\n');
        let _ = s.write_all(&line);
        s
    });
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply == "ERR line too long\n",
        "{}",
        reply.chars().take(80).collect::<String>()
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "the connection must close after the refusal"
    );
    drop(writer.join().unwrap());
    let res = http(h.addr(), &post_query(JOE));
    assert!(res.contains("Joe Chung"), "{res}");
    h.shutdown();
}

// ---------------------------------------------------------------------
// Hardening: hostile and half-finished peers

#[test]
fn a_half_closed_client_still_reads_its_whole_reply() {
    let _serial = serial();
    let h = start(ServerOptions::default());
    let mut s = connect(h.addr());
    s.write_all(format!("{JOE}\n").as_bytes()).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("OK 1 1\n"), "{out}");
    assert!(out.contains("Joe Chung") && out.ends_with(".\n"), "{out}");

    let mut s = connect(h.addr());
    s.write_all(post_query(JOE).as_bytes()).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    let (head, body) = out.split_once("\r\n\r\n").unwrap();
    assert!(
        head.contains(&format!("Content-Length: {}", body.len())),
        "{out}"
    );
    assert!(body.contains("Joe Chung"), "{out}");
    h.shutdown();
}

#[test]
fn a_client_that_leaves_mid_reply_frees_its_connection_slot() {
    let _serial = serial();
    // 500 objects, one connection slot: if the abandoned handler did not
    // finish and give its slot back, every later connection would be
    // refused with 503.
    let people: String = (0..500)
        .map(|i| format!("<&p{i}, person, set, {{<&n{i}, name, 'Person {i}'>}}>\n"))
        .collect();
    let store = oem::parser::parse_store(&people).unwrap();
    let med = Mediator::new(
        "m",
        "<v {<n N>}> :- <person {<name N>}>@src",
        vec![Arc::new(wrappers::SemiStructuredWrapper::new("src", store))],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let h = Server::start(
        Arc::new(med),
        ServerOptions {
            max_connections: 1,
            ..Default::default()
        },
    )
    .unwrap();
    for request in [
        "X :- X:<v {}>@m\n".to_string(),
        post_query("X :- X:<v {}>@m"),
    ] {
        let mut s = connect(h.addr());
        s.write_all(request.as_bytes()).unwrap();
        drop(s);
        let res = served_once_the_slot_is_free(h.addr());
        assert!(res.contains("\"objects\": 500"), "{res}");
    }
    h.shutdown();
}

/// `POST /query` for the whole view, retried while the single connection
/// slot is still held by the previous connection's handler.
fn served_once_the_slot_is_free(addr: SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut s = connect(addr);
        let mut res = String::new();
        // A refused connection is closed without reading the request, so
        // the write or the read may see a reset; that is a refusal too.
        let answered = s
            .write_all(post_query("X :- X:<v {}>@m").as_bytes())
            .and_then(|_| s.read_to_string(&mut res))
            .is_ok();
        if answered && res.starts_with("HTTP/1.1 200 OK") {
            return res;
        }
        assert!(
            Instant::now() < deadline,
            "the slot never came back; last reply: {res}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn garbage_ends_in_an_error_or_a_close_and_the_server_keeps_serving() {
    let _serial = serial();
    let h = start(ServerOptions::default());

    // A line of non-UTF-8 bytes.
    let mut s = connect(h.addr());
    s.write_all(b"\xff\xfe\x80 not text\n").unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    assert!(out.is_empty() || out.starts_with(b"ERR "), "{out:?}");

    // A request line followed by headers that are not headers.
    let mut s = connect(h.addr());
    s.write_all(b"POST /query HTTP/1.1\r\n\x00\xff\xfe garbage\r\nContent-Length: many\r\n\r\n")
        .unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    assert!(
        out.is_empty() || out.starts_with(b"HTTP/1.1 400"),
        "{out:?}"
    );

    // Headers that never end.
    let mut s = connect(h.addr());
    s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let _ = s.write_all(&vec![b'h'; 64 << 10]);
    let _ = s.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    assert!(
        out.is_empty() || out.starts_with(b"HTTP/1.1 400"),
        "{out:?}"
    );

    assert!(http(h.addr(), HEALTHZ).starts_with("HTTP/1.1 200 OK"));
    h.shutdown();
}

#[test]
fn connections_beyond_the_cap_are_refused_with_503() {
    let _serial = serial();
    let h = start(ServerOptions {
        max_connections: 1,
        ..Default::default()
    });
    // Hold the only slot: once the reply is read the connection counts.
    let mut holder = connect(h.addr());
    let mut reader = BufReader::new(holder.try_clone().unwrap());
    holder.write_all(format!("{JOE}\n").as_bytes()).unwrap();
    assert_eq!(read_block(&mut reader).0, "OK 1 1\n");
    // The refusal is written at accept, before any request is read.
    let mut refused = String::new();
    connect(h.addr()).read_to_string(&mut refused).unwrap();
    assert!(
        refused.starts_with("HTTP/1.1 503 Service Unavailable"),
        "{refused}"
    );
    assert!(refused.contains("Retry-After: 1"), "{refused}");
    assert!(refused.ends_with("too many connections\n"), "{refused}");
    drop((holder, reader));
    h.shutdown();
}
