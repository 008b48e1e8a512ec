//! Bounded line reading, shared by the protocol sniffer, the line
//! protocol and the HTTP header parser: no peer can make the server hold
//! more than the caller's byte limit for one line.

use std::io::{BufRead, ErrorKind};

/// How [`read_capped`] stopped.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Line {
    /// `buf` holds a whole line: it ends in `\n`, or the stream ended
    /// after an unterminated last line.
    Complete,
    /// End of stream with nothing buffered.
    Eof,
    /// The line would pass the limit. `buf` keeps what was read so far
    /// and the rest of the line is still unread ([`skip`] discards it).
    TooLong,
}

/// Append to `buf` up to and including the next `\n`, holding at most
/// `cap` bytes (terminator included). A read error — a read timeout
/// among them — leaves what already arrived in `buf`, so calling again
/// with the same `buf` resumes the line instead of losing its head.
pub(crate) fn read_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<Line> {
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                Line::Eof
            } else {
                Line::Complete
            });
        }
        let newline = available.iter().position(|b| *b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if buf.len() + take > cap {
            return Ok(Line::TooLong);
        }
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            return Ok(Line::Complete);
        }
    }
}

/// Discard the rest of the current line (through `\n`, end of stream or
/// the first read error) without storing it. Closing a socket that has
/// unread input sends a reset, which may overtake the reply just written;
/// the handler calls this after refusing an over-long line so that its
/// `ERR` arrives.
pub(crate) fn skip(reader: &mut impl BufRead) {
    loop {
        let (take, done) = match reader.fill_buf() {
            Ok([]) => return,
            Ok(bytes) => match bytes.iter().position(|b| *b == b'\n') {
                Some(i) => (i + 1, true),
                None => (bytes.len(), false),
            },
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        reader.consume(take);
        if done {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::{BufReader, Read};

    /// A reader that plays back a script of chunks and errors.
    struct Script(VecDeque<std::io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(chunk)) => {
                    out[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    #[test]
    fn a_line_split_by_a_read_timeout_comes_back_whole() {
        let mut reader = BufReader::new(Script(VecDeque::from([
            Ok(b"JC :- ".to_vec()),
            Err(ErrorKind::TimedOut.into()),
            Ok(b"JC:<cs_person {}>@med\nnext".to_vec()),
        ])));
        let mut buf = Vec::new();
        let err = read_capped(&mut reader, &mut buf, 64).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert_eq!(buf, b"JC :- ");
        assert_eq!(
            read_capped(&mut reader, &mut buf, 64).unwrap(),
            Line::Complete
        );
        assert_eq!(buf, b"JC :- JC:<cs_person {}>@med\n");
        // The unterminated tail is a line too, then the stream ends.
        buf.clear();
        assert_eq!(
            read_capped(&mut reader, &mut buf, 64).unwrap(),
            Line::Complete
        );
        assert_eq!(buf, b"next");
        buf.clear();
        assert_eq!(read_capped(&mut reader, &mut buf, 64).unwrap(), Line::Eof);
    }

    #[test]
    fn the_limit_counts_the_terminator_and_holds_across_chunks() {
        let mut buf = Vec::new();
        let mut fits = BufReader::new(&b"abc\nrest"[..]);
        assert_eq!(read_capped(&mut fits, &mut buf, 4).unwrap(), Line::Complete);
        assert_eq!(buf, b"abc\n");

        buf.clear();
        let mut over = BufReader::new(&b"abcd\nrest\n"[..]);
        assert_eq!(read_capped(&mut over, &mut buf, 4).unwrap(), Line::TooLong);
        assert!(buf.len() <= 4);
        skip(&mut over);
        buf.clear();
        assert_eq!(read_capped(&mut over, &mut buf, 8).unwrap(), Line::Complete);
        assert_eq!(buf, b"rest\n");

        // No newline ever: memory stops at the limit however the bytes
        // are chunked.
        buf.clear();
        let mut endless = BufReader::with_capacity(3, &[b'x'; 100][..]);
        assert_eq!(
            read_capped(&mut endless, &mut buf, 10).unwrap(),
            Line::TooLong
        );
        assert!(buf.len() <= 10);
        skip(&mut endless);
        buf.clear();
        assert_eq!(read_capped(&mut endless, &mut buf, 10).unwrap(), Line::Eof);
    }
}
