//! Diagnostic-stability regressions: the presentation order produced by
//! [`msl::diag::sort`] is part of the tooling contract (lint/check output,
//! JSON reports, CI gates) and must not drift.

use msl::diag::{self, codes, Diagnostic, Span};

fn sp(start: usize) -> Span {
    Span {
        start,
        end: start + 1,
    }
}

#[test]
fn sort_orders_errors_first_then_span_then_code() {
    let mut diags = vec![
        Diagnostic::warning(codes::UNKNOWN_LABEL, sp(5), "w301 at 5"),
        Diagnostic::error(codes::TYPE_MISMATCH, sp(40), "e301 at 40"),
        Diagnostic::warning(codes::DEAD_VIEW, sp(5), "w302 at 5"),
        Diagnostic::error(codes::UNANSWERABLE_VIEW, sp(10), "e302 at 10"),
        Diagnostic::error(codes::TYPE_MISMATCH, sp(10), "e301 at 10"),
        Diagnostic::warning(codes::UNKNOWN_LABEL, sp(2), "w301 at 2"),
    ];
    diag::sort(&mut diags);
    let order: Vec<(&str, usize)> = diags.iter().map(|d| (d.code, d.span.start)).collect();
    assert_eq!(
        order,
        vec![
            ("E301", 10),
            ("E302", 10),
            ("E301", 40),
            ("W301", 2),
            ("W301", 5),
            ("W302", 5),
        ]
    );
}

#[test]
fn sort_is_idempotent() {
    let mut once = vec![
        Diagnostic::warning(codes::DEAD_VIEW, sp(7), "w"),
        Diagnostic::error(codes::TYPE_MISMATCH, sp(3), "e"),
        Diagnostic::warning(codes::UNKNOWN_LABEL, sp(7), "w"),
    ];
    diag::sort(&mut once);
    let mut twice = once.clone();
    diag::sort(&mut twice);
    let key = |ds: &[Diagnostic]| -> Vec<(&str, usize)> {
        ds.iter().map(|d| (d.code, d.span.start)).collect()
    };
    assert_eq!(key(&once), key(&twice));
}

#[test]
fn specflow_codes_follow_the_lint_numbering_scheme() {
    // E3xx/W3xx is the whole-spec analysis band; the constants must stay
    // stable because CI and editors match on them.
    assert_eq!(codes::TYPE_MISMATCH, "E301");
    assert_eq!(codes::UNANSWERABLE_VIEW, "E302");
    assert_eq!(codes::UNKNOWN_LABEL, "W301");
    assert_eq!(codes::DEAD_VIEW, "W302");
    assert_eq!(codes::CONSUMED_REST_LABEL, "W303");
}
