//! A minimal HTTP/1.1 server side — just enough for the three endpoints
//! of DESIGN.md §11, hand-rolled because the workspace vendors all
//! dependencies offline.
//!
//! Supported subset: one request per connection (every response carries
//! `Connection: close`), headers up to 8 KiB — checked as the bytes
//! arrive, so an endless header line is refused at the limit, not once
//! it is in memory — and bodies up to 1 MiB declared by
//! `Content-Length`. A response is assembled in one buffer and handed
//! to the socket whole, so head and body never travel as separate small
//! segments. No chunked encoding, no keep-alive, no TLS — the daemon is
//! meant to sit behind localhost or a trusted reverse proxy (see
//! docs/OPERATIONS.md).

use crate::line::{read_capped, Line};
use std::io::{BufRead, Write};

/// Largest accepted request body (1 MiB) — queries are small; anything
/// bigger is a client bug or abuse.
pub const MAX_BODY: usize = 1 << 20;
/// Largest accepted header section (8 KiB).
pub const MAX_HEADER: usize = 8 << 10;

/// A parsed request: method, path, and raw body bytes.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path only; no query-string splitting).
    pub path: String,
    /// Raw body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

/// Does this first line look like an HTTP request? Used by the protocol
/// sniffer: connections whose first line is not an HTTP request line are
/// served the newline-delimited line protocol instead.
pub fn is_request_line(line: &str) -> bool {
    let Some((method, rest)) = line.split_once(' ') else {
        return false;
    };
    matches!(
        method,
        "GET" | "POST" | "HEAD" | "PUT" | "DELETE" | "OPTIONS" | "PATCH"
    ) && rest.contains(" HTTP/1.")
}

/// Parse a request whose first line has already been read (by the
/// protocol sniffer); reads the remaining headers and body from `reader`.
pub fn read_request(first_line: &str, reader: &mut impl BufRead) -> Result<Request, String> {
    let mut parts = first_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts
        .next()
        .ok_or("request line without a path")?
        .to_string();
    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    let mut line = Vec::new();
    loop {
        line.clear();
        match read_capped(reader, &mut line, MAX_HEADER - header_bytes) {
            Ok(Line::Complete) => {}
            Ok(Line::Eof) => return Err("connection closed inside headers".to_string()),
            Ok(Line::TooLong) => return Err("header section too large".to_string()),
            Err(e) => return Err(format!("reading headers: {e}")),
        }
        header_bytes += line.len();
        let line = std::str::from_utf8(&line)
            .map_err(|_| "header line is not UTF-8".to_string())?
            .trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length '{}'", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("reading body: {e}"))?;
    Ok(Request { method, path, body })
}

/// Write a complete response with `Connection: close` and an exact
/// `Content-Length` — head and body in one `write` — then flush.
pub fn write_response(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let mut response = Vec::with_capacity(128 + body.len());
    write!(response, "HTTP/1.1 {status} {reason}\r\n")?;
    write!(response, "Content-Type: {content_type}\r\n")?;
    write!(response, "Content-Length: {}\r\n", body.len())?;
    write!(response, "Connection: close\r\n")?;
    for (name, value) in extra_headers {
        write!(response, "{name}: {value}\r\n")?;
    }
    write!(response, "\r\n")?;
    response.extend_from_slice(body);
    out.write_all(&response)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn sniffs_http_request_lines() {
        assert!(is_request_line("GET /healthz HTTP/1.1"));
        assert!(is_request_line("POST /query HTTP/1.0"));
        assert!(!is_request_line("X :- X:<v {}>@m"));
        assert!(!is_request_line("GETTING STARTED"));
        assert!(!is_request_line(""));
    }

    #[test]
    fn parses_request_with_body() {
        let raw = "Host: localhost\r\nContent-Length: 5\r\n\r\nhello";
        let mut reader = BufReader::new(raw.as_bytes());
        let req = read_request("POST /query HTTP/1.1", &mut reader).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_request_without_body() {
        let raw = "Host: localhost\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let req = read_request("GET /metrics HTTP/1.1", &mut reader).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_bad_content_length_and_oversize_bodies() {
        let mut r = BufReader::new("Content-Length: nope\r\n\r\n".as_bytes());
        assert!(read_request("POST / HTTP/1.1", &mut r).is_err());
        let huge = format!("Content-Length: {}\r\n\r\n", MAX_BODY + 1);
        let mut r = BufReader::new(huge.as_bytes());
        assert!(read_request("POST / HTTP/1.1", &mut r).is_err());
    }

    #[test]
    fn header_limit_applies_before_a_line_is_in_memory() {
        // A header line that never ends is refused at the limit...
        let endless = vec![b'x'; 4 * MAX_HEADER];
        let mut r = BufReader::new(&endless[..]);
        let err = read_request("GET / HTTP/1.1", &mut r).unwrap_err();
        assert_eq!(err, "header section too large");
        // ...and so is a section of many short lines that adds up past it.
        let many = "X-Pad: 0123456789\r\n".repeat(MAX_HEADER / 19 + 1) + "\r\n";
        let mut r = BufReader::new(many.as_bytes());
        let err = read_request("GET / HTTP/1.1", &mut r).unwrap_err();
        assert_eq!(err, "header section too large");
        let mut r = BufReader::new(&b"X-Bad: \xff\xfe\r\n\r\n"[..]);
        assert!(read_request("GET / HTTP/1.1", &mut r).is_err());
    }

    #[test]
    fn response_leaves_in_one_write() {
        let mut out = crate::testing::CountingWriter::default();
        let body = vec![b'a'; 100_000];
        write_response(&mut out, 200, "text/plain", &body, &[("Retry-After", "1")]).unwrap();
        assert_eq!(out.writes, 1);
        assert!(out.bytes.ends_with(&body));
    }

    #[test]
    fn response_has_exact_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"ok\n", &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok\n"), "{text}");
    }

    #[test]
    fn response_can_carry_extra_headers() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            b"{}",
            &[("Retry-After", "1")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("HTTP/1.1 503 Service Unavailable"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
    }
}
