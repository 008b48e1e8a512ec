//! The paper's running example, exactly as in §2:
//!
//! * the relational `cs` source — `employee(first_name, last_name, title,
//!   reports_to)` and `student(first_name, last_name, year)` (Figure 2.2);
//! * the semi-structured `whois` source (Figure 2.3);
//! * the `MS1` mediator specification text;
//! * the pure name-conversion functions behind the `decomp` external
//!   predicate.
//!
//! One documented correction: Figure 2.3 lists `<&y2, year, integer, 3>`
//! under `&p2` but omits `&y2` from `&p2`'s set value — an inconsistency in
//! the paper (its own Figure 3.6 run requires Nick's `year` to be a
//! subobject of `&p2`). We include `&y2` in the set.

use crate::relational::RelationalWrapper;
use crate::semistructured::SemiStructuredSource;
use minidb::{Catalog, ColType, Schema, Table};
use oem::parser::parse_store;
use oem::ObjectStore;

/// The MS1 mediator specification (§2), verbatim in our concrete syntax.
pub const MS1: &str = "\
<cs_person {<name N> <rel R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN)

decomp(bound, free, free) by name_to_lnfn
decomp(free, bound, bound) by lnfn_to_name
decomp(bound, bound, bound) by check_name_lnfn
";

/// The OEM object structure of the whois wrapper (Figure 2.3).
pub const WHOIS_OEM: &str = "\
<&p1, person, set, {&n1,&d1,&rel1,&elm1}>
  <&n1, name, string, 'Joe Chung'>
  <&d1, dept, string, 'CS'>
  <&rel1, relation, string, 'employee'>
  <&elm1, e_mail, string, 'chung@cs'>
<&p2, person, set, {&n2,&d2,&rel2,&y2}>
  <&n2, name, string, 'Nick Naive'>
  <&d2, dept, string, 'CS'>
  <&rel2, relation, string, 'student'>
  <&y2, year, integer, 3>
";

/// The whois object store (Figure 2.3).
pub fn whois_store() -> ObjectStore {
    parse_store(WHOIS_OEM).expect("figure 2.3 parses")
}

/// The whois wrapper. Full capabilities by default; §3.5-style
/// restrictions are layered on in the experiments.
pub fn whois_wrapper() -> SemiStructuredSource {
    SemiStructuredSource::new("whois", whois_store())
}

/// The relational catalog behind the cs wrapper (§2's two schemas with the
/// rows the paper's bindings imply: b_c1 binds Rest2 to title/reports_to of
/// Joe Chung; Qc1 finds student Nick Naive).
pub fn cs_catalog() -> Catalog {
    let mut catalog = Catalog::new();

    let mut employee = Table::new(
        Schema::new(
            "employee",
            &[
                ("first_name", ColType::Str),
                ("last_name", ColType::Str),
                ("title", ColType::Str),
                ("reports_to", ColType::Str),
            ],
        )
        .expect("employee schema"),
    );
    employee
        .insert(vec![
            "Joe".into(),
            "Chung".into(),
            "professor".into(),
            "John Hennessy".into(),
        ])
        .expect("employee row");

    let mut student = Table::new(
        Schema::new(
            "student",
            &[
                ("first_name", ColType::Str),
                ("last_name", ColType::Str),
                ("year", ColType::Int),
            ],
        )
        .expect("student schema"),
    );
    student
        .insert(vec!["Nick".into(), "Naive".into(), 3.into()])
        .expect("student row");

    catalog.add_table(employee).expect("add employee");
    catalog.add_table(student).expect("add student");
    catalog
}

/// The cs wrapper (Figure 2.2's exporter).
pub fn cs_wrapper() -> RelationalWrapper {
    RelationalWrapper::new("cs", cs_catalog())
}

/// `name_to_lnfn`: decompose a full name into (last, first), both slices
/// of `full`. The paper's convention: 'Joe Chung' ⇒ LN='Chung', FN='Joe'.
pub fn name_to_lnfn(full: &str) -> Option<(&str, &str)> {
    let idx = full.rfind(' ')?;
    let (first, last) = full.split_at(idx);
    let first = first.trim();
    let last = last.trim();
    if first.is_empty() || last.is_empty() {
        return None;
    }
    Some((last, first))
}

/// `lnfn_to_name`: compose (last, first) into a full name.
pub fn lnfn_to_name(last: &str, first: &str) -> String {
    format!("{first} {last}")
}

/// `check_name_lnfn`: all-bound check (§2 footnote 2).
pub fn check_name_lnfn(full: &str, last: &str, first: &str) -> bool {
    name_to_lnfn(full)
        .map(|(l, f)| l == last && f == first)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Wrapper;
    use msl::parse_query;
    use oem::printer::print_store;
    use oem::sym;

    #[test]
    fn whois_matches_figure_2_3() {
        let store = whois_store();
        store.validate().unwrap();
        assert_eq!(store.top_level().len(), 2);
        let printed = print_store(&store);
        assert!(printed.contains("<&n1, name, string, 'Joe Chung'>"));
        assert!(printed.contains("<&y2, year, integer, 3>"));
    }

    #[test]
    fn cs_exports_figure_2_2_shape() {
        let w = cs_wrapper();
        let q = parse_query("X :- X:<employee {}>@cs").unwrap();
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
        let q = parse_query("X :- X:<student {}>@cs").unwrap();
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 1);
    }

    #[test]
    fn ms1_parses_and_validates() {
        let spec = msl::parse_spec(MS1).unwrap();
        msl::validate::validate_spec(&spec).unwrap();
        assert_eq!(spec.rules.len(), 1);
        assert_eq!(spec.externals.len(), 3);
        assert_eq!(spec.rules[0].sources(), vec![sym("whois"), sym("cs")]);
    }

    #[test]
    fn decomp_functions() {
        assert_eq!(name_to_lnfn("Joe Chung"), Some(("Chung", "Joe")));
        assert_eq!(lnfn_to_name("Chung", "Joe"), "Joe Chung");
        assert!(check_name_lnfn("Joe Chung", "Chung", "Joe"));
        assert!(!check_name_lnfn("Joe Chung", "Chung", "Bob"));
        assert_eq!(name_to_lnfn("Cher"), None);
        // Multi-part first names split at the last space.
        assert_eq!(
            name_to_lnfn("John von Neumann"),
            Some(("Neumann", "John von"))
        );
    }
}
