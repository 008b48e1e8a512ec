//! The newline-delimited line protocol.
//!
//! A connection whose first line is not an HTTP request line speaks this
//! protocol: every line the client sends is one MSL query, and each gets
//! exactly one response block. Many queries may be sent over one
//! connection. The full grammar, with examples, is in DESIGN.md §11.3.
//!
//! Responses:
//!
//! ```text
//! OK <objects> <total_objects> [TRUNCATED] [PARTIAL]
//! <printed OEM answer, zero or more lines>
//! .
//! ```
//!
//! for success — the terminator line is a single `.` — and a single line
//!
//! ```text
//! ERR <message>
//! BUSY <message>
//! ```
//!
//! for failures and admission-control sheds respectively. Messages are
//! collapsed to one line. Blank request lines are ignored. A response
//! block is assembled in one buffer and handed to the socket whole: head,
//! answer and terminator sent as three small segments would each wait on
//! the peer's delayed ACK.
//!
//! A request line may be at most [`MAX_LINE`] bytes; a longer one is
//! answered `ERR line too long` and the connection is closed.

use crate::service::{QueryReply, ReplyStatus};
use std::io::Write;

/// Largest accepted request line, newline included (1 MiB — the size a
/// query may have over HTTP, [`crate::http::MAX_BODY`]).
pub const MAX_LINE: usize = crate::http::MAX_BODY;

/// Collapse an error message to a single line.
fn one_line(msg: &str) -> String {
    msg.replace(['\r', '\n'], "; ")
}

/// Write one response block for `reply` — in one `write` — then flush.
pub fn write_reply(out: &mut impl Write, reply: &QueryReply) -> std::io::Result<()> {
    let block = match reply.status {
        ReplyStatus::Ok => {
            let mut block = format!("OK {} {}", reply.objects, reply.total_objects);
            if reply.truncated {
                block.push_str(" TRUNCATED");
            }
            if reply.partial.is_some() {
                block.push_str(" PARTIAL");
            }
            block.push('\n');
            block.push_str(&reply.answer);
            if !reply.answer.is_empty() && !reply.answer.ends_with('\n') {
                block.push('\n');
            }
            block.push_str(".\n");
            block
        }
        ReplyStatus::Shed => format!(
            "BUSY {}\n",
            one_line(reply.error.as_deref().unwrap_or("admission queue full"))
        ),
        ReplyStatus::BadQuery | ReplyStatus::Failed => format!(
            "ERR {}\n",
            one_line(reply.error.as_deref().unwrap_or("query failed"))
        ),
    };
    out.write_all(block.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_reply(answer: &str, objects: usize, total: usize) -> QueryReply {
        QueryReply {
            status: ReplyStatus::Ok,
            answer: answer.to_string(),
            objects,
            total_objects: total,
            truncated: objects < total,
            partial: None,
            error: None,
            coalesced: false,
            elapsed_us: 0,
        }
    }

    #[test]
    fn ok_block_is_head_answer_terminator() {
        let mut out = Vec::new();
        write_reply(&mut out, &ok_reply("<&p1, person, set, {}>\n", 1, 1)).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "OK 1 1\n<&p1, person, set, {}>\n.\n"
        );
    }

    #[test]
    fn every_reply_leaves_in_one_write() {
        let mut bad = ok_reply("", 0, 0);
        bad.status = ReplyStatus::BadQuery;
        for reply in [ok_reply("<&p1, person, set, {}>\n", 1, 1), bad] {
            let mut out = crate::testing::CountingWriter::default();
            write_reply(&mut out, &reply).unwrap();
            assert_eq!(out.writes, 1, "{:?}", reply.status);
        }
    }

    #[test]
    fn truncation_and_errors_are_flagged() {
        let mut out = Vec::new();
        write_reply(&mut out, &ok_reply("x\n", 1, 5)).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("OK 1 5 TRUNCATED\n"));

        let mut out = Vec::new();
        let mut shed = ok_reply("", 0, 0);
        shed.status = ReplyStatus::Shed;
        shed.error = Some("admission queue full".to_string());
        write_reply(&mut out, &shed).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "BUSY admission queue full\n"
        );

        let mut out = Vec::new();
        let mut bad = ok_reply("", 0, 0);
        bad.status = ReplyStatus::BadQuery;
        bad.error = Some("multi\nline".to_string());
        write_reply(&mut out, &bad).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "ERR multi; line\n");
    }
}
