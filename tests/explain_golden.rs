//! Golden EXPLAIN: every text the mediator presents for a fixed query set
//! over a generated 200-person workload — EXPLAIN with and without its
//! traced run, the EXPLAIN ANALYZE report, and the `query` and `detail`
//! fields of the JSON trace — pinned byte for byte, with only the
//! wall-time figures masked. A change to where or when that text is
//! rendered must leave every byte of it as it is.

use medmaker::{Mediator, MediatorOptions};
use serde::Serialize;
use std::sync::Arc;
use wrappers::scenario::MS1;
use wrappers::workload::PersonWorkload;

const GOLDEN: &str = include_str!("golden/explain_person_200_seed_11.txt");

/// `(name, lorel, text)`: a point lookup in MSL and in LOREL, the scan,
/// and the year query (two chains, nothing pruned).
const QUERIES: &[(&str, bool, &str)] = &[
    (
        "point.msl",
        false,
        "P :- P:<cs_person {<name 'First3 Last3'>}>@med",
    ),
    (
        "point.lorel",
        true,
        "select * from cs_person P where P.name = 'First3 Last3'",
    ),
    ("scan", false, "P :- P:<cs_person {}>@med"),
    ("year", false, "S :- S:<cs_person {<year 3>}>@med"),
];

fn mediator() -> Mediator {
    let (whois, cs) = PersonWorkload {
        n_whois: 200,
        seed: 11,
        ..PersonWorkload::default()
    }
    .build();
    Mediator::new_with_options(
        "med",
        MS1,
        vec![Arc::new(whois), Arc::new(cs)],
        medmaker::externals::standard_registry(),
        MediatorOptions {
            // Learned latencies would move the cost estimates the report
            // prints from one run to the next.
            learn_stats: false,
            ..MediatorOptions::default()
        },
    )
    .unwrap()
}

/// Replace every wall-time figure of an EXPLAIN ANALYZE report with `T`:
/// the durations `format_ns` prints (`950ns`, `12.3µs`, `2.50ms`,
/// `3.20s`, bare or in parentheses) and the net drift, which divides a
/// wall time by an estimate.
fn mask_times(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    for line in report.lines() {
        let words: Vec<String> = line
            .split(' ')
            .map(|w| {
                let open = if w.starts_with('(') { "(" } else { "" };
                let close = if w.ends_with(')') { ")" } else { "" };
                let core = w.trim_start_matches('(').trim_end_matches(')');
                if is_duration(core) {
                    format!("{open}T{close}")
                } else {
                    w.to_string()
                }
            })
            .collect();
        let mut line = words.join(" ");
        if let Some(at) = line.find("(net drift ") {
            let end = line[at..].find(')').map_or(line.len(), |e| at + e + 1);
            line.replace_range(at..end, "(net drift T)");
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn is_duration(w: &str) -> bool {
    ["ns", "µs", "ms", "s"].iter().any(|unit| {
        w.strip_suffix(unit)
            .is_some_and(|n| !n.is_empty() && n.chars().all(|c| c.is_ascii_digit() || c == '.'))
    })
}

fn section(out: &mut String, name: &str, view: &str, text: &str) {
    out.push_str(&format!("=== {name} {view} ===\n{text}"));
    if !text.ends_with('\n') {
        out.push('\n');
    }
}

fn explained() -> String {
    let med = mediator();
    let mut out = String::new();
    for (name, lorel, text) in QUERIES {
        let text = if *lorel {
            msl::printer::rule(&lorel::to_msl(text, "med").unwrap())
        } else {
            text.to_string()
        };
        section(
            &mut out,
            name,
            "plan",
            &med.explain_text(&text, false).unwrap(),
        );
        section(
            &mut out,
            name,
            "run",
            &med.explain_text(&text, true).unwrap(),
        );
        let (report, trace) = med.explain_analyze(&text).unwrap();
        section(&mut out, name, "analyze", &mask_times(&report));
        let json = trace.to_value();
        let mut fields = format!(
            "query: {}\n",
            json.get("query").and_then(|q| q.as_str()).unwrap()
        );
        for rule in json.get("rules").and_then(|r| r.as_array()).unwrap() {
            for node in rule.get("nodes").and_then(|n| n.as_array()).unwrap() {
                let detail = node.get("detail").and_then(|d| d.as_str()).unwrap();
                fields.push_str(&format!("detail: {detail}\n"));
            }
        }
        section(&mut out, name, "trace-json", &fields);
    }
    out
}

#[test]
fn masking_hides_only_wall_times() {
    assert_eq!(
        mask_times("=== rule R1 (2.50ms) ===\n  bindings: 4   time: 950ns\n"),
        "=== rule R1 (T) ===\n  bindings: 4   time: T\n"
    );
    assert_eq!(
        mask_times("  cost: cpu 10.0 rows, net 1.00 ms, mem 8.0 rows  (net drift 2.00x)\n"),
        "  cost: cpu 10.0 rows, net 1.00 ms, mem 8.0 rows  (net drift T)\n"
    );
    assert_eq!(
        mask_times("first answer: 42.0µs\nwall time: 3.40s\n"),
        "first answer: T\nwall time: T\n"
    );
}

#[test]
fn explain_texts_match_the_golden_file() {
    let actual = explained();
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "EXPLAIN text changed at line {}:\n  golden: {:?}\n  actual: {:?}\nactual:\n{actual}",
            first + 1,
            GOLDEN.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}
