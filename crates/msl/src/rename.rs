//! Renaming rules apart.
//!
//! "Before we match a query with one or more rules we must rename the
//! variables that appear in the query and the rules, so that no two rules,
//! or a query and a rule have identically named variables" (§3.2,
//! footnote 7). [`rename_rule`] appends a suffix to every variable of a
//! rule; the view expander uses a fresh suffix per (query, rule) pairing.

use crate::ast::{Rule, VisitMut};
use oem::Symbol;

/// Rename every variable of `rule` by appending `suffix`.
pub fn rename_rule(rule: &Rule, suffix: &str) -> Rule {
    let mut out = rule.clone();
    out.visit_mut(&mut |slot| {
        if let Some(v) = slot.var() {
            *v = Symbol::intern(&format!("{v}{suffix}"));
        }
    });
    out
}

/// A counter handing out fresh rename suffixes (`_r1`, `_r2`, ...).
#[derive(Default, Debug)]
pub struct Renamer {
    counter: u64,
}

impl Renamer {
    /// A new renamer starting at `_r1`.
    pub fn new() -> Renamer {
        Renamer::default()
    }

    /// The next fresh suffix.
    pub fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("_r{}", self.counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Head;
    use crate::parser::parse_rule;
    use oem::sym;
    use std::collections::HashSet;

    #[test]
    fn all_variables_renamed() {
        let r = parse_rule(
            "<cs_person {<name N> <rel R> Rest1}> :- \
             <person {<name N> <relation R> | Rest1}>@whois AND decomp(N, LN, FN)",
        )
        .unwrap();
        let renamed = rename_rule(&r, "_r1");
        let orig: HashSet<_> = r.variables().into_iter().collect();
        for v in renamed.variables() {
            assert!(!orig.contains(&v), "variable {v} was not renamed");
            assert!(v.as_str().ends_with("_r1"));
        }
        assert_eq!(renamed.variables().len(), r.variables().len());
    }

    #[test]
    fn constants_params_and_sources_untouched() {
        let r = parse_rule("<o {<n $P>}> :- <p {<dept 'CS'> <n $P>}>@whois").unwrap();
        let renamed = rename_rule(&r, "_r9");
        let printed = crate::printer::rule(&renamed);
        assert!(printed.contains("'CS'"));
        assert!(printed.contains("$P"));
        assert!(printed.contains("@whois"));
    }

    #[test]
    fn func_term_args_renamed_but_name_kept() {
        let r = parse_rule("<person_id(N) o {<n N>}> :- <p {<n N>}>@s").unwrap();
        let renamed = rename_rule(&r, "_z");
        let printed = crate::printer::rule(&renamed);
        assert!(printed.contains("person_id(N_z)"), "{printed}");
    }

    #[test]
    fn renamer_is_fresh() {
        let mut r = Renamer::new();
        assert_ne!(r.fresh(), r.fresh());
    }

    #[test]
    fn obj_vars_and_rest_conditions_renamed() {
        let r = parse_rule("X :- X:<p {<a A> | R:{<y Y>}}>@s").unwrap();
        let renamed = rename_rule(&r, "_q");
        assert_eq!(renamed.head, Head::Var(sym("X_q")));
        let printed = crate::printer::rule(&renamed);
        assert!(printed.contains("X_q:<"));
        assert!(printed.contains("| R_q:{<y Y_q>}"), "{printed}");
    }
}
