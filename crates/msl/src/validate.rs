//! Semantic validation of MSL rules and specifications.
//!
//! This module is now a thin compatibility wrapper over the collect-all
//! lint engine in [`crate::lint`]: it runs the same passes and surfaces
//! the **first error-level** diagnostic as an [`MslError::Validate`],
//! preserving the historical fail-fast API and error messages. Callers
//! that want every finding (with codes, severities and spans) should call
//! [`crate::lint::lint_spec`] or [`crate::lint::lint_source`] directly.

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::error::{MslError, Result};
use oem::Symbol;
use std::sync::OnceLock;

/// Built-in comparison predicates, available without declaration.
pub const BUILTIN_PREDICATES: &[(&str, usize)] = &[
    ("eq", 2),
    ("neq", 2),
    ("lt", 2),
    ("le", 2),
    ("gt", 2),
    ("ge", 2),
];

/// Is `name` a built-in comparison predicate?
pub fn is_builtin(name: Symbol) -> bool {
    static BUILTINS: OnceLock<Vec<Symbol>> = OnceLock::new();
    BUILTINS
        .get_or_init(|| {
            BUILTIN_PREDICATES
                .iter()
                .map(|(n, _)| Symbol::intern(n))
                .collect()
        })
        .contains(&name)
}

fn first_error(diags: Vec<Diagnostic>) -> Result<()> {
    match diags.into_iter().find(|d| d.is_error()) {
        Some(d) => Err(MslError::Validate(d.message)),
        None => Ok(()),
    }
}

/// Validate a single rule against the (possibly empty) set of external
/// declarations in scope. Fails on the first error-level lint finding.
pub fn validate_rule(rule: &Rule, externals: &[ExternalDecl]) -> Result<()> {
    first_error(crate::lint::lint_rule(rule, externals))
}

/// Validate a whole specification. Fails on the first error-level lint
/// finding; warnings (unused variables, unsatisfiable conditions, ...) are
/// ignored here.
pub fn validate_spec(spec: &Spec) -> Result<()> {
    first_error(crate::lint::lint_spec(
        spec,
        &crate::parser::SpecSpans::default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_rule, parse_spec};

    fn ok_rule(src: &str) {
        let r = parse_rule(src).unwrap();
        validate_rule(&r, &[]).unwrap();
    }

    fn bad_rule(src: &str) -> String {
        let r = parse_rule(src).unwrap();
        validate_rule(&r, &[]).unwrap_err().to_string()
    }

    #[test]
    fn valid_rules_pass() {
        ok_rule("<out {<name N>}> :- <person {<name N>}>@whois");
        ok_rule("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med");
        ok_rule("<out {<v V>}> :- <p {<a V>}>@s AND ge(V, 3)");
        ok_rule("<person_id(N) out {<name N>}> :- <person {<name N>}>@s");
    }

    #[test]
    fn range_restriction_enforced() {
        let msg = bad_rule("<out {<name N> <x Y>}> :- <person {<name N>}>@whois");
        assert!(msg.contains("Y"), "{msg}");
    }

    #[test]
    fn head_obj_var_needs_definition() {
        // X appears in the tail as a plain value variable, not as `X:`.
        let msg = bad_rule("X :- <person {<name X>}>@whois");
        assert!(msg.contains("defining"), "{msg}");
    }

    #[test]
    fn builtin_arity_checked() {
        let msg = bad_rule("S :- S:<p {<y Y>}>@s AND ge(Y)");
        assert!(msg.contains("2 arguments"), "{msg}");
    }

    #[test]
    fn undeclared_external_rejected() {
        let msg = bad_rule("<o {<n N> <l L> <f F>}> :- <p {<n N>}>@s AND decomp(N, L, F)");
        assert!(msg.contains("no declaration"), "{msg}");
    }

    #[test]
    fn declared_external_accepted() {
        let spec = parse_spec(
            "<o {<l L> <f F>}> :- <p {<n N>}>@s AND decomp(N, L, F)\n\
             decomp(bound, free, free) by name_to_lnfn",
        )
        .unwrap();
        validate_spec(&spec).unwrap();
    }

    #[test]
    fn external_arity_mismatch_rejected() {
        let spec = parse_spec(
            "<o {<l L>}> :- <p {<n N>}>@s AND decomp(N, L)\n\
             decomp(bound, free, free) by name_to_lnfn",
        )
        .unwrap();
        let msg = validate_spec(&spec).unwrap_err().to_string();
        assert!(msg.contains("declared with 3"), "{msg}");
    }

    #[test]
    fn rest_in_head_rejected() {
        let msg = bad_rule("<o {<n N> | R}> :- <p {<n N> | R}>@s");
        assert!(msg.contains("rest variable"), "{msg}");
    }

    #[test]
    fn params_in_head_rejected() {
        let msg = bad_rule("<o {<n $P>}> :- <p {<n $P>}>@s");
        assert!(msg.contains("parameter"), "{msg}");
    }

    #[test]
    fn func_term_in_tail_rejected() {
        let msg = bad_rule("<o {<n N>}> :- <f(N) p {<n N>}>@s");
        assert!(msg.contains("function term"), "{msg}");
    }

    #[test]
    fn wildcard_in_head_rejected() {
        let msg = bad_rule("<o {* <n N>}> :- <p {<n N>}>@s");
        assert!(msg.contains("wildcard"), "{msg}");
    }

    #[test]
    fn empty_spec_rejected() {
        let spec = parse_spec("decomp(bound, free) by f").unwrap();
        assert!(validate_spec(&spec).is_err());
    }

    #[test]
    fn conflicting_external_arities_rejected() {
        let spec = parse_spec(
            "<o {<n N>}> :- <p {<n N>}>@s\n\
             d(bound, free) by f1\n\
             d(bound) by f2",
        )
        .unwrap();
        let msg = validate_spec(&spec).unwrap_err().to_string();
        assert!(msg.contains("conflicting"), "{msg}");
    }

    #[test]
    fn builtin_shadowing_declaration_rejected() {
        let spec = parse_spec(
            "<o {<n N>}> :- <p {<n N>}>@s\n\
             lt(bound, free) by my_lt",
        )
        .unwrap();
        let msg = validate_spec(&spec).unwrap_err().to_string();
        assert!(msg.contains("shadows"), "{msg}");
    }

    #[test]
    fn adornment_infeasible_spec_rejected() {
        let spec = parse_spec(
            "<o {<f F>}> :- <p {<n N>}>@s AND decomp(L, F)\n\
             decomp(bound, free) by f",
        )
        .unwrap();
        let msg = validate_spec(&spec).unwrap_err().to_string();
        assert!(msg.contains("never be evaluated"), "{msg}");
    }

    #[test]
    fn ms1_validates() {
        let spec = parse_spec(
            "<cs_person {<name N> <rel R> Rest1 Rest2}> :- \
             <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois \
             AND <R {<first_name FN> <last_name LN> | Rest2}>@cs \
             AND decomp(N, LN, FN)\n\
             decomp(bound, free, free) by name_to_lnfn\n\
             decomp(free, bound, bound) by lnfn_to_name",
        )
        .unwrap();
        validate_spec(&spec).unwrap();
    }
}
