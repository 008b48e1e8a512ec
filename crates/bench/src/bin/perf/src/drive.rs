//! The closed loop: each client sends its next query only after the
//! previous answer is complete, because callers of a mediator wait for it.
//! Every answer is checked against the reference before it counts.

use crate::client;
use crate::stats::percentile;
use crate::workload::{Fixture, Kind, Query, Reference, Stream, DELTA_EVERY};
use medmaker::SourceDelta;
use oem::printer::print_store;
use oem::sym;
use std::time::{Duration, Instant};

/// One completed operation of a window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time, nanoseconds after the window opened.
    pub end_ns: u64,
    /// Latency, nanoseconds.
    pub latency_ns: u64,
}

/// What one phase (warm-up or window) of one client did.
#[derive(Default, Debug)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Errors, refusals and answers that differ from the reference.
    pub failed: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// Correct operations.
    pub samples: Vec<Sample>,
}

impl Tally {
    /// Fold another client's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.samples.extend(other.samples);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// An answer as the user receives it, with the time it took to arrive.
pub struct Answered {
    /// Query text in to answer bytes out.
    pub latency: Duration,
    /// The printed answer and its object count, or why there is none.
    pub answer: Result<(String, usize), String>,
}

/// A client's place in the stream. Client `c` of `k` sends operations
/// `c, c + k, c + 2k, ...`, so that together they send the stream once.
pub struct Cursor {
    next: usize,
    stride: usize,
    /// Operations sent so far by this client.
    pub sent: u64,
}

impl Cursor {
    /// The cursor of client `client` among `clients`.
    pub fn new(client: usize, clients: usize) -> Cursor {
        Cursor {
            next: client,
            stride: clients,
            sent: 0,
        }
    }
}

/// Send queries from `cursor` on, one at a time, until `length` has passed.
/// `op` performs one query and times it; `after` runs untimed after each
/// checked answer (the place for `cache_churn`'s deltas).
pub fn closed_loop(
    stream: &Stream,
    refs: &[Reference],
    cursor: &mut Cursor,
    length: Duration,
    mut op: impl FnMut(u64, &Query) -> Answered,
    mut after: impl FnMut(u64, &mut Tally),
) -> Tally {
    let mut tally = Tally::default();
    let opened = Instant::now();
    while opened.elapsed() < length {
        let q = stream.ops[cursor.next % stream.ops.len()];
        cursor.next += cursor.stride;
        cursor.sent += 1;
        tally.attempted += 1;
        let answered = op(cursor.sent, &stream.queries[q]);
        let end_ns = opened.elapsed().as_nanos() as u64;
        match answered.answer {
            Ok((text, objects)) if Reference::of(&text, objects) == refs[q] => {
                tally.samples.push(Sample {
                    end_ns,
                    latency_ns: answered.latency.as_nanos() as u64,
                });
            }
            Ok((_, objects)) => tally.fail(format!(
                "`{}`: answer differs from the reference ({objects} objects, expected {})",
                stream.queries[q].text, refs[q].objects
            )),
            Err(e) => tally.fail(format!("`{}`: {e}", stream.queries[q].text)),
        }
        after(cursor.sent, &mut tally);
    }
    tally
}

/// One query through the public entry points a program embedding the
/// mediator calls: parse, `Mediator::query_rule`, print.
pub fn in_process(fixture: &Fixture, q: &Query) -> Answered {
    let started = Instant::now();
    let answer = q.to_rule().and_then(|rule| {
        let out = fixture
            .mediator
            .query_rule(&rule)
            .map_err(|e| e.to_string())?;
        Ok((print_store(&out.results), out.results.top_level().len()))
    });
    Answered {
        latency: started.elapsed(),
        answer,
    }
}

/// One query over HTTP on loopback, and the instants the exchange passed
/// through when it completed. The clock stops when the reply's last byte
/// has arrived; decoding the JSON around the answer is the client's own
/// work and is left out.
pub fn over_http(fixture: &Fixture, q: &Query) -> (Answered, Option<client::Exchange>) {
    let addr = fixture
        .server
        .as_ref()
        .expect("served workload has a server")
        .addr();
    match client::exchange(addr, &client::query_request(&q.text)) {
        Ok(x) => {
            let answered = Answered {
                latency: x.done - x.started,
                answer: client::decode_reply(&x.reply),
            };
            (answered, Some(x))
        }
        Err(e) => {
            let answered = Answered {
                latency: Duration::ZERO,
                answer: Err(format!("wire: {e}")),
            };
            (answered, None)
        }
    }
}

/// `cache_churn` only: after every [`DELTA_EVERY`]th operation, report that
/// whois objects labelled `e_mail` changed. MS1's whois query has a rest
/// variable, so every whois answer must go, while the cs shard must stay.
/// Returns the milliseconds `apply_delta` took, when it ran.
pub fn churn_delta(fixture: &Fixture, sent: u64, tally: &mut Tally) -> Option<f64> {
    if fixture.kind != Kind::CacheChurn || !sent.is_multiple_of(DELTA_EVERY) {
        return None;
    }
    let delta = SourceDelta::labels(sym("whois"), [sym("e_mail")]);
    let started = Instant::now();
    let dropped = fixture.mediator.apply_delta(&delta);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let left = fixture.mediator.cache_counters().entries;
    if dropped == 0 || left == 0 {
        tally.fail(format!(
            "scoped delta dropped {dropped} answers and left {left}; it must drop some, not all"
        ));
    }
    Some(ms)
}

/// Drive `fixture` untraced for `length`, one thread per cursor: one
/// client in process, or as many HTTP clients as the machine has
/// processors (at most two).
pub fn drive(
    fixture: &Fixture,
    stream: &Stream,
    refs: &[Reference],
    cursors: &mut [Cursor],
    length: Duration,
) -> Tally {
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = cursors
            .iter_mut()
            .map(|cursor| {
                scope.spawn(move || {
                    closed_loop(
                        stream,
                        refs,
                        cursor,
                        length,
                        |_, q| match fixture.kind {
                            Kind::ServedHttp => over_http(fixture, q).0,
                            _ => in_process(fixture, q),
                        },
                        |sent, tally| {
                            churn_delta(fixture, sent, tally);
                        },
                    )
                })
            })
            .collect();
        for c in clients {
            total.merge(c.join().expect("client thread panicked"));
        }
    });
    total
}

/// The cursors of the clients `kind` is driven by on this machine: one in
/// process, or as many HTTP clients as there are processors (at most two).
pub fn cursors(kind: Kind) -> Vec<Cursor> {
    let clients = if kind == Kind::ServedHttp {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2)
    } else {
        1
    };
    (0..clients).map(|c| Cursor::new(c, clients)).collect()
}

/// The end-to-end timings of one window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timings {
    /// Median latency over the quietest block, ms.
    pub p50_ms: f64,
    /// 90th percentile latency over the quietest block, ms.
    pub p90_ms: f64,
    /// Completed operations per second over the quietest block.
    pub per_s: f64,
    /// Median latency over the whole window, ms: the machine's noise
    /// included.
    pub window_p50_ms: f64,
    /// 90th percentile latency over the whole window, ms.
    pub window_p90_ms: f64,
    /// Completed operations per second of the whole window.
    pub window_per_s: f64,
}

/// Summarise a window. Every run of `block` consecutive completions is a
/// block; each block has its own p50, p90 and completion rate (completions
/// between its first and last one, per second). The end-to-end timings
/// are the best value over all blocks: the lowest p50, the lowest p90 and
/// the highest rate, each wherever it was seen.
///
/// A neighbour on the shared host only ever adds time, for milliseconds
/// or for tens of seconds, so the quietest stretch of a run is what
/// repeats between runs of one program. Percentiles over the whole window
/// measure the host as much as the program; they are kept beside the
/// others for the record.
pub fn summarise(samples: &[Sample], block: usize, window: Duration) -> Timings {
    let mut samples = samples.to_vec();
    samples.sort_by_key(|s| s.end_ns);
    let ms = |s: &Sample| s.latency_ns as f64 / 1e6;
    let mut all: Vec<f64> = samples.iter().map(ms).collect();
    all.sort_by(f64::total_cmp);
    let mut t = Timings {
        p50_ms: f64::INFINITY,
        p90_ms: f64::INFINITY,
        per_s: 0.0,
        window_p50_ms: percentile(&all, 0.50),
        window_p90_ms: percentile(&all, 0.90),
        window_per_s: samples.len() as f64 / window.as_secs_f64(),
    };
    let block = block.clamp(2, samples.len().max(2));
    let mut sorted = Vec::with_capacity(block);
    for b in samples.windows(block) {
        sorted.clear();
        sorted.extend(b.iter().map(ms));
        sorted.sort_by(f64::total_cmp);
        t.p50_ms = t.p50_ms.min(percentile(&sorted, 0.50));
        t.p90_ms = t.p90_ms.min(percentile(&sorted, 0.90));
        let span_ns = b[block - 1].end_ns - b[0].end_ns;
        if span_ns > 0 {
            t.per_s = t.per_s.max((block - 1) as f64 / (span_ns as f64 / 1e9));
        }
    }
    if samples.len() < block {
        // Fewer than two completions make no block: the window is all
        // there is.
        (t.p50_ms, t.p90_ms, t.per_s) = (t.window_p50_ms, t.window_p90_ms, t.window_per_s);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_ms: u64, latency_ms: u64) -> Sample {
        Sample {
            end_ns: end_ms * 1_000_000,
            latency_ns: latency_ms * 1_000_000,
        }
    }

    #[test]
    fn summary_is_the_quietest_block() {
        // A minute of back-to-back 100 ms operations, but for one quiet
        // stretch of ten that take 60 ms; every seventh of the others is
        // disturbed (400 ms). Blocks of 8.
        let mut samples = Vec::new();
        let mut now = 0;
        for i in 0..600u64 {
            let latency = match i {
                300..=309 => 60,
                _ if i % 7 == 3 => 400,
                _ => 100,
            };
            now += latency;
            samples.push(sample(now, latency));
        }
        let t = summarise(&samples, 8, Duration::from_secs(60));
        assert_eq!((t.p50_ms, t.p90_ms), (60.0, 60.0));
        assert!((t.per_s - 1000.0 / 60.0).abs() < 1e-9, "{t:?}");
        // The whole window sees the disturbance.
        assert_eq!((t.window_p50_ms, t.window_p90_ms), (100.0, 400.0));
        assert_eq!(t.window_per_s, 10.0);
        // Completion order, not the order the clients' tallies were merged in.
        samples.reverse();
        assert_eq!(summarise(&samples, 8, Duration::from_secs(60)), t);
    }

    #[test]
    fn summary_survives_few_samples_and_none() {
        let t = summarise(&[sample(10, 4), sample(20, 6)], 8, Duration::from_secs(2));
        assert_eq!((t.p50_ms, t.p90_ms, t.per_s), (4.0, 6.0, 100.0));
        let t = summarise(&[sample(10, 4)], 8, Duration::from_secs(2));
        assert_eq!((t.p50_ms, t.p90_ms, t.per_s), (4.0, 4.0, 0.5));
        let t = summarise(&[], 8, Duration::from_secs(2));
        assert_eq!((t.p50_ms, t.p90_ms, t.per_s), (0.0, 0.0, 0.0));
    }

    #[test]
    fn closed_loop_checks_every_answer() {
        let stream = Stream {
            queries: vec![
                Query {
                    text: "a".into(),
                    lorel: false,
                    class: "t",
                },
                Query {
                    text: "b".into(),
                    lorel: false,
                    class: "t",
                },
            ],
            ops: vec![0, 1],
        };
        let refs = [Reference::of("A", 1), Reference::of("B", 2)];
        let mut cursor = Cursor::new(0, 1);
        let mut deltas = 0;
        let tally = closed_loop(
            &stream,
            &refs,
            &mut cursor,
            Duration::from_millis(30),
            |n, q| Answered {
                latency: Duration::from_millis(1),
                // Every third answer to "b" is wrong; every fifth query errs.
                answer: match (q.text.as_str(), n) {
                    (_, n) if n % 5 == 0 => Err("boom".into()),
                    ("b", n) if n % 3 == 0 => Ok(("B".into(), 3)),
                    ("a", _) => Ok(("A".into(), 1)),
                    _ => Ok(("B".into(), 2)),
                },
            },
            |_, _| deltas += 1,
        );
        assert!(tally.attempted >= 10, "{tally:?}");
        assert_eq!(tally.attempted, cursor.sent);
        assert_eq!(deltas, tally.attempted);
        assert_eq!(tally.attempted, tally.failed + tally.samples.len() as u64);
        assert!(tally.failed >= 2);
        assert!(tally.first_failure.is_some());
    }
}
