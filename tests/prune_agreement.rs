//! The planner's feasibility check and the text presented for it agree.
//!
//! Over the `tests/specs/*.msl` fixtures and over MS1 expansions of drawn
//! lookups on generated `PersonWorkload`s — a constant, a label variable,
//! a rest condition, a label no source holds — three things must hold:
//!
//! * the rules the plan prunes are exactly the rules
//!   `SpecAnalysis::rule_infeasible` finds a reason for, in order, and
//!   EXPLAIN prints exactly those reasons;
//! * each reason reads as pinned in `tests/golden/prune_reasons.txt`;
//! * `medmaker check`'s rendered diagnostics for each fixture read as
//!   pinned there too.
//!
//! A failure prints the whole actual text after `actual:`; when a change
//! to that text is intended, that block is the new golden file.

use medmaker::analysis::check_text;
use medmaker::{Mediator, MediatorOptions, SourceInfo};
use oem::sym;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use wrappers::workload::PersonWorkload;
use wrappers::{Capabilities, SemiStructuredWrapper, Wrapper};

const GOLDEN: &str = include_str!("golden/prune_reasons.txt");

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/specs")
}

/// The source a fixture is checked against: `src.oem` as `src`, or as a
/// form-style `form` for `unanswerable.msl`.
fn fixture_source(file: &str) -> Arc<dyn Wrapper> {
    let text = std::fs::read_to_string(specs_dir().join("src.oem")).unwrap();
    let store = oem::parser::parse_store(&text).unwrap();
    if file == "unanswerable.msl" {
        let caps = Capabilities::full().with_required_condition_on(sym("name"));
        Arc::new(SemiStructuredWrapper::new("form", store).with_capabilities(caps))
    } else {
        Arc::new(SemiStructuredWrapper::new("src", store))
    }
}

fn reason_of(analysis: &medmaker::analysis::SpecAnalysis, rule: &msl::Rule) -> Option<String> {
    analysis.rule_infeasible(rule).map(|r| r.to_string())
}

/// Every fixture rule's reason, then every rendered diagnostic.
fn fixture_lines(out: &mut String) {
    let mut files: Vec<String> = std::fs::read_dir(specs_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".msl"))
        .collect();
    files.sort();
    for file in files {
        let text = std::fs::read_to_string(specs_dir().join(&file)).unwrap();
        let source = fixture_source(&file);
        let infos: BTreeMap<_, _> = [(source.name(), SourceInfo::of_wrapper(source.as_ref()))]
            .into_iter()
            .collect();
        let (spec, diags, analysis) = check_text(&text, "med", &infos).unwrap();
        for (i, rule) in spec.rules.iter().enumerate() {
            let reason = reason_of(&analysis, rule);
            out.push_str(&format!(
                "spec {file} R{}: {}\n",
                i + 1,
                reason.as_deref().unwrap_or("-")
            ));
        }
        for d in &diags {
            for line in d.render(&text).lines() {
                out.push_str(&format!("check {file}: {line}\n"));
            }
        }
    }
}

/// The labels a drawn lookup asks for: what cs_person's sources hold, and
/// two they do not.
const LABELS: &[&str] = &[
    "name", "rel", "year", "e_mail", "nickname", "title", "salary", "nmae",
];

/// A drawn lookup: `P :- P:<cs_person {…}>@m` with a constant condition,
/// a label variable, a rest condition, or a label no source holds.
fn draw_query(rng: &mut impl Rng, n: usize) -> String {
    let i = rng.gen_range(0..n + 2);
    // `name` half the time: its whois chain is the one a repeated name
    // keeps alive.
    let label = if rng.gen_range(0..2u32) == 0 {
        "name"
    } else {
        LABELS[rng.gen_range(0..LABELS.len())]
    };
    let constant = match rng.gen_range(0..4u32) {
        0 => format!("'{}'", PersonWorkload::full_name_of(i)),
        1 => format!("{}", i % 5 + 1),
        2 => format!("{}.0", i % 5 + 1),
        _ => format!("'{}'", PersonWorkload::alias_of(i)),
    };
    let cond = match rng.gen_range(0..4u32) {
        0 => format!("<{label} {constant}>"),
        1 => format!("<L {constant}>"),
        2 => format!("<name N> | R:{{<{label} {constant}>}}"),
        _ => format!(
            "<{} {constant}>",
            ["salary", "nmae"][rng.gen_range(0..2usize)]
        ),
    };
    format!("P :- P:<cs_person {{{cond}}}>@m")
}

fn lookup_lines(out: &mut String) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(32);
    for case in 0..64 {
        let n = rng.gen_range(5..16usize);
        let workload = PersonWorkload {
            n_whois: n,
            overlap: rng.gen_range(0.6..1.0),
            irregularity: rng.gen_range(0.0..1.0),
            student_fraction: rng.gen_range(0.2..0.55),
            repeated: if rng.gen_range(0..2u32) == 0 {
                0.0
            } else {
                0.3
            },
            seed: rng.gen_range(0..1_000_000u64),
        };
        let text = draw_query(&mut rng, n);
        let (whois, cs) = workload.build();
        let med = Mediator::new_with_options(
            "m",
            wrappers::scenario::MS1,
            vec![Arc::new(whois), Arc::new(cs)],
            medmaker::externals::standard_registry(),
            MediatorOptions {
                learn_stats: false,
                ..Default::default()
            },
        )
        .unwrap();
        let query = msl::parse_query(&text).unwrap();
        let program = med.expand(&query).unwrap();
        let analysis = med.analysis().unwrap();
        let reasons: Vec<Option<String>> = program
            .rules
            .iter()
            .map(|r| reason_of(analysis, r))
            .collect();
        // The plan prunes exactly those rules, and EXPLAIN says why.
        let explained = med.explain_text(&text, false).unwrap();
        let printed: Vec<&str> = explained
            .lines()
            .filter_map(|l| l.trim().strip_prefix("[pruned] "))
            .collect();
        let found: Vec<&str> = reasons.iter().flatten().map(String::as_str).collect();
        assert_eq!(printed, found, "case {case}: {text}\n{explained}");
        let kept = reasons.iter().filter(|r| r.is_none()).count();
        assert_eq!(
            explained.matches("Datamerge graph for rule").count(),
            kept,
            "case {case}: {text}\n{explained}"
        );
        out.push_str(&format!(
            "lookup {case} n={n} repeated={} {text}\n",
            workload.repeated
        ));
        for (i, reason) in reasons.iter().enumerate() {
            out.push_str(&format!(
                "  R{}: {}\n",
                i + 1,
                reason.as_deref().unwrap_or("-")
            ));
        }
    }
}

#[test]
fn pruned_rules_and_their_reasons_match_the_golden_file() {
    let mut actual = String::new();
    fixture_lines(&mut actual);
    lookup_lines(&mut actual);
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "prune reasons changed at line {}:\n  golden: {:?}\n  actual: {:?}\nactual:\n{actual}",
            first + 1,
            GOLDEN.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}
