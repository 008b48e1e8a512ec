//! Diagnostics for the `speclint` static-analysis pass.
//!
//! Unlike [`crate::error::MslError`], which models the fail-fast front-end
//! errors (lexing and parsing stop at the first problem), a [`Diagnostic`]
//! is one finding out of many: the lint passes walk the whole specification
//! and report **every** defect in a single run, so a spec author fixes a
//! broken spec in one edit-compile cycle instead of one defect per cycle.
//!
//! Each diagnostic carries a stable machine-readable `code` (`E...` for
//! errors that make the spec unusable, `W...` for warnings the mediator can
//! live with), a byte-offset [`Span`] into the original source text, a
//! human message and an optional `help` suggestion.

use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// First byte covered by the span.
    pub start: usize,
    /// One past the last byte covered by the span.
    pub end: usize,
}

impl Span {
    /// The span `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn join(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Is this the default empty span (no location information)?
    pub fn is_empty(&self) -> bool {
        self.start == 0 && self.end == 0
    }
}

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// The mediator can compensate or the spec is merely suspicious;
    /// construction proceeds.
    Warning,
    /// The spec is unusable as written; `Mediator::new` refuses it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One lint finding.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `"E014"`. See [`codes`].
    pub code: &'static str,
    /// Whether the finding blocks mediator construction.
    pub severity: Severity,
    /// Byte range in the source this finding points at. The default span
    /// means "whole spec" (e.g. for an empty specification).
    pub span: Span,
    /// Human-readable description of the finding.
    pub message: String,
    /// An optional suggestion for fixing the problem.
    pub help: Option<String>,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// A warning-severity finding.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a fix suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Is this an error-severity finding?
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Render with a source excerpt and caret underline:
    ///
    /// ```text
    /// error[E005] at 3:5: external predicate frob has no declaration
    ///   | <x Y> :- frob(Y)
    ///   |           ^^^^^^^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        if self.span.is_empty() {
            out.push_str(&format!(
                "{}[{}]: {}",
                self.severity, self.code, self.message
            ));
        } else {
            let (line, col) = line_col(source, self.span.start);
            out.push_str(&format!(
                "{}[{}] at {}:{}: {}",
                self.severity, self.code, line, col, self.message
            ));
            if let Some((excerpt, underline)) = excerpt_line(source, self.span) {
                out.push_str(&format!("\n  | {excerpt}\n  | {underline}"));
            }
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n  = help: {help}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// 1-based (line, column) of a byte offset. Columns count characters, like
/// [`crate::error::Pos`].
pub fn line_col(source: &str, byte: usize) -> (usize, usize) {
    let byte = byte.min(source.len());
    let mut line = 1;
    let mut col = 1;
    for (off, c) in source.char_indices() {
        if off >= byte {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// The source line containing `span.start` plus a caret underline covering
/// the intersection of the span with that line.
fn excerpt_line(source: &str, span: Span) -> Option<(String, String)> {
    if span.start > source.len() {
        return None;
    }
    let line_start = source[..span.start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = source[line_start..]
        .find('\n')
        .map_or(source.len(), |i| line_start + i);
    let line = &source[line_start..line_end];
    let hl_start = span.start - line_start;
    let hl_end = span
        .end
        .min(line_end)
        .saturating_sub(line_start)
        .max(hl_start);
    let mut underline = String::new();
    for (off, c) in line.char_indices() {
        if off < hl_start {
            underline.push(if c == '\t' { '\t' } else { ' ' });
        } else if off < hl_end || off == hl_start {
            underline.push('^');
        } else {
            break;
        }
    }
    Some((line.to_string(), underline))
}

/// Sort diagnostics for stable presentation: errors first, then by source
/// position, then by code.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.span.start.cmp(&b.span.start))
            .then(a.code.cmp(b.code))
    });
}

/// The registry of diagnostic codes, with the lint that produces each.
/// `DESIGN.md` documents every code with its paper reference.
pub mod codes {
    /// Specification has no rules at all.
    pub const EMPTY_SPEC: &str = "E001";
    /// Head variable does not occur in the tail (range restriction).
    pub const RANGE_RESTRICTION: &str = "E002";
    /// `Head::Var` with no defining `V:` occurrence in the tail.
    pub const UNDEFINED_HEAD_OBJ_VAR: &str = "E003";
    /// Built-in comparison predicate used with the wrong arity.
    pub const BUILTIN_ARITY: &str = "E004";
    /// External predicate used but never declared.
    pub const UNDECLARED_EXTERNAL: &str = "E005";
    /// External predicate used with an arity that matches no declaration.
    pub const EXTERNAL_ARITY: &str = "E006";
    /// Rest variable (`| R`) in a rule head.
    pub const REST_IN_HEAD: &str = "E007";
    /// Parameter `$X` in a rule head.
    pub const PARAM_IN_HEAD: &str = "E008";
    /// Function term outside a head oid position.
    pub const FUNC_MISPLACED: &str = "E009";
    /// Wildcard subpattern in a rule head.
    pub const WILDCARD_IN_HEAD: &str = "E010";
    /// External declaration with an empty adornment.
    pub const EMPTY_ADORNMENT: &str = "E011";
    /// Conflicting arities declared for the same external predicate.
    pub const CONFLICTING_ARITIES: &str = "E012";
    /// External declaration shadows a built-in comparison predicate.
    pub const BUILTIN_SHADOWED: &str = "E013";
    /// No sideways-information-passing order satisfies any declared
    /// adornment of some external predicate (§3.4).
    pub const ADORNMENT_INFEASIBLE: &str = "E014";
    /// Source cannot answer the pattern and the mediator cannot compensate
    /// (§3.5).
    pub const CAPABILITY_UNANSWERABLE: &str = "E202";
    /// Condition conjunction can never be satisfied (e.g. `eq(V,3) AND
    /// gt(V,5)`); the rule always produces the empty set.
    pub const UNSATISFIABLE_CONDITIONS: &str = "W101";
    /// A tail variable bound once and never used.
    pub const UNUSED_TAIL_VAR: &str = "W102";
    /// Two rules are identical up to variable renaming.
    pub const DUPLICATE_RULE: &str = "W103";
    /// A rule is subsumed by an earlier rule.
    pub const SUBSUMED_RULE: &str = "W104";
    /// Source cannot evaluate a condition; the mediator compensates by
    /// post-filtering (§3.5).
    pub const CAPABILITY_COMPENSATED: &str = "W201";
    /// A join variable has incompatible inferred types across its
    /// occurrences (meet = ⊥), so the join is provably empty (specflow).
    pub const TYPE_MISMATCH: &str = "E301";
    /// No bound/free adornment of an exported view is feasible given the
    /// registered source capabilities: the view's answerability matrix is
    /// empty (specflow).
    pub const UNANSWERABLE_VIEW: &str = "E302";
    /// A condition or pattern names a label no source schema produces
    /// (specflow; the help carries a did-you-mean hint when a close label
    /// exists).
    pub const UNKNOWN_LABEL: &str = "W301";
    /// A view has no possible derivation: every defining rule references an
    /// internal view that is itself underivable — undefined, or recursive
    /// with no base case (specflow).
    pub const DEAD_VIEW: &str = "W302";
    /// A rest condition asks for a second child with a label the same set
    /// pattern already matches, at a source whose closed summary holds at
    /// most one such child per parent (specflow).
    pub const CONSUMED_REST_LABEL: &str = "W303";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_basics() {
        let src = "ab\ncd\nef";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 1), (1, 2));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 7), (3, 2));
        assert_eq!(line_col(src, 100), (3, 3));
    }

    #[test]
    fn render_includes_excerpt_and_caret() {
        let src = "<x Y> :- frob(Y)";
        let d = Diagnostic::error(
            codes::UNDECLARED_EXTERNAL,
            Span::new(9, 16),
            "no declaration",
        );
        let r = d.render(src);
        assert!(r.contains("error[E005] at 1:10"), "{r}");
        assert!(r.contains("<x Y> :- frob(Y)"), "{r}");
        assert!(r.contains("^^^^^^^"), "{r}");
    }

    #[test]
    fn render_without_span_or_with_help() {
        let d =
            Diagnostic::error(codes::EMPTY_SPEC, Span::default(), "empty").with_help("add a rule");
        let r = d.render("");
        assert!(r.contains("error[E001]: empty"), "{r}");
        assert!(r.contains("help: add a rule"), "{r}");
    }

    #[test]
    fn sort_orders_errors_first_then_position() {
        let mut diags = vec![
            Diagnostic::warning("W102", Span::new(5, 6), "w"),
            Diagnostic::error("E005", Span::new(9, 10), "e2"),
            Diagnostic::error("E002", Span::new(1, 2), "e1"),
        ];
        sort(&mut diags);
        assert_eq!(diags[0].code, "E002");
        assert_eq!(diags[1].code, "E005");
        assert_eq!(diags[2].code, "W102");
    }

    #[test]
    fn span_join() {
        assert_eq!(Span::new(3, 7).join(Span::new(1, 5)), Span::new(1, 7));
    }

    #[test]
    fn multiline_excerpt_restricts_to_first_line() {
        let src = "a :- b\nsecond";
        let d = Diagnostic::warning("W103", Span::new(0, 13), "dup");
        let r = d.render(src);
        assert!(r.contains("a :- b"), "{r}");
        assert!(!r.contains("second\n  |"), "{r}");
    }
}
