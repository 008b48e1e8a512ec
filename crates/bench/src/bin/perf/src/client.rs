//! The wire side of `served_http`: a client that does what a user's would.
//! One connection per request, because the server closes after each reply.

use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No exchange on loopback should take this long; a stuck one fails the
/// operation and leaves the run able to end.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The instants one HTTP exchange passed through.
pub struct Exchange {
    /// Before `connect`.
    pub started: Instant,
    /// Connection established.
    pub connected: Instant,
    /// First byte of the reply read (the request is written by then).
    pub first_byte: Instant,
    /// End of stream: the whole reply is in `reply`.
    pub done: Instant,
    /// The raw HTTP reply.
    pub reply: Vec<u8>,
}

/// The bytes of `POST /query` for one query text.
pub fn query_request(text: &str) -> Vec<u8> {
    let body = serde_json::to_string(&serde::object([("query", Value::Str(text.to_string()))]))
        .expect("a string serializes");
    format!(
        "POST /query HTTP/1.1\r\nHost: perf\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Send one request on a fresh connection and read the reply to the end.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<Exchange> {
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(request)?;
    let mut reply = vec![0u8; 1];
    stream.read_exact(&mut reply)?;
    let first_byte = Instant::now();
    stream.read_to_end(&mut reply)?;
    let done = Instant::now();
    Ok(Exchange {
        started,
        connected,
        first_byte,
        done,
        reply,
    })
}

/// The printed answer and object count inside an HTTP reply to
/// `POST /query`; an error for anything but `200` with status `ok`
/// (a shed request is a refusal, and counts as failed).
pub fn decode_reply(reply: &[u8]) -> Result<(String, usize), String> {
    let text = std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "reply has no header end".to_string())?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.1 200") {
        return Err(format!("server said `{status_line}`"));
    }
    let v: Value = serde_json::from_str(body.trim()).map_err(|e| format!("reply body: {e}"))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("reply status {:?}", v.get("status")));
    }
    if v.get("truncated").and_then(Value::as_bool) == Some(true) {
        return Err("answer truncated".to_string());
    }
    let answer = v
        .get("answer")
        .and_then(Value::as_str)
        .ok_or_else(|| "reply has no answer".to_string())?;
    let objects = v.get("objects").and_then(Value::as_i64).unwrap_or(-1);
    Ok((answer.to_string(), objects.max(0) as usize))
}

/// Send `queries` one after the other over one line-protocol connection;
/// returns the round-trip time of each exchange in milliseconds.
pub fn line_round_trips(addr: SocketAddr, queries: &[&str]) -> std::io::Result<Vec<f64>> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut times = Vec::with_capacity(queries.len());
    for q in queries {
        let started = Instant::now();
        stream.write_all(format!("{q}\n").as_bytes())?;
        let mut head = String::new();
        reader.read_line(&mut head)?;
        if !head.starts_with("OK ") {
            return Err(std::io::Error::other(format!(
                "line protocol said `{}`",
                head.trim()
            )));
        }
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 || line == ".\n" {
                break;
            }
        }
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_carries_escaped_query_and_length() {
        let req = String::from_utf8(query_request("P :- P:<a {<n 'x \"y\"'>}>@med")).unwrap();
        let (head, body) = req.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /query HTTP/1.1\r\n"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        let v: Value = serde_json::from_str(body).unwrap();
        assert_eq!(
            v.get("query").and_then(Value::as_str),
            Some("P :- P:<a {<n 'x \"y\"'>}>@med")
        );
    }

    #[test]
    fn decode_accepts_ok_and_rejects_the_rest() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"status\": \"ok\", \"objects\": 2, \"truncated\": false, \"answer\": \"<a 1>\\n\"}\n";
        assert_eq!(decode_reply(ok), Ok(("<a 1>\n".to_string(), 2)));
        let shed = b"HTTP/1.1 503 Service Unavailable\r\n\r\n{\"status\": \"shed\"}";
        assert!(decode_reply(shed).unwrap_err().contains("503"));
        let failed = b"HTTP/1.1 200 OK\r\n\r\n{\"status\": \"failed\", \"answer\": \"\"}";
        assert!(decode_reply(failed).is_err());
        assert!(decode_reply(b"garbage").is_err());
    }
}
