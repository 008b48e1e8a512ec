//! Synthetic workload generators for tests, examples and benchmarks.
//!
//! The paper has no quantitative evaluation; these generators drive the
//! performance-characterization suite (EXPERIMENTS.md): scalable versions
//! of the §2 scenario with controllable size, source overlap, and
//! structural irregularity.

use crate::relational::RelationalWrapper;
use crate::semistructured::SemiStructuredSource;
use minidb::{Catalog, ColType, Schema, Table};
use oem::{ObjectBuilder, ObjectStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the scalable two-source person scenario.
#[derive(Clone, Debug)]
pub struct PersonWorkload {
    /// Number of persons in the whois source.
    pub n_whois: usize,
    /// Fraction of whois persons that also appear in the cs database
    /// (controls join selectivity and fusion overlap).
    pub overlap: f64,
    /// Probability that a whois person carries an extra irregular
    /// attribute (and that e_mail is missing) — structure irregularity.
    pub irregularity: f64,
    /// Fraction of persons that are students (the rest are employees).
    pub student_fraction: f64,
    /// Probability that a whois person carries a second `name`
    /// (`Alias{i}`) and a second `e_mail` — repeated labels, so that no
    /// schema summary may claim "at most one" of either.
    pub repeated: f64,
    /// RNG seed (generation is deterministic given the config).
    pub seed: u64,
}

impl Default for PersonWorkload {
    fn default() -> PersonWorkload {
        PersonWorkload {
            n_whois: 100,
            overlap: 0.5,
            irregularity: 0.3,
            student_fraction: 0.5,
            repeated: 0.0,
            seed: 42,
        }
    }
}

impl PersonWorkload {
    /// Convenience: a workload of size `n` with default knobs.
    pub fn sized(n: usize) -> PersonWorkload {
        PersonWorkload {
            n_whois: n,
            ..PersonWorkload::default()
        }
    }

    /// First/last name of person `i` (unique, deterministic).
    pub fn name_of(i: usize) -> (String, String) {
        (format!("First{i}"), format!("Last{i}"))
    }

    /// Full name of person `i`.
    pub fn full_name_of(i: usize) -> String {
        let (f, l) = Self::name_of(i);
        format!("{f} {l}")
    }

    /// The second name person `i` carries when it repeats its labels.
    pub fn alias_of(i: usize) -> String {
        format!("Alias{i}")
    }

    /// Generate the whois store.
    pub fn whois_store(&self) -> ObjectStore {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // A stream of its own, so `repeated` leaves every other draw as is.
        let mut repeats = StdRng::seed_from_u64(!self.seed);
        let mut store = ObjectStore::with_oid_prefix("w");
        for i in 0..self.n_whois {
            let is_student = (i as f64) < self.student_fraction * self.n_whois as f64;
            let mut b = ObjectBuilder::set("person")
                .atom("name", Self::full_name_of(i).as_str())
                .atom("dept", "CS")
                .atom("relation", if is_student { "student" } else { "employee" });
            let irregular = rng.gen_bool(self.irregularity.clamp(0.0, 1.0));
            if !irregular {
                b = b.atom("e_mail", format!("p{i}@cs").as_str());
            } else {
                // Irregular persons carry a source-specific extra attribute.
                b = b.atom("nickname", format!("nick{i}").as_str());
            }
            if is_student {
                b = b.atom("year", ((i % 5) + 1) as i64);
            }
            if repeats.gen_bool(self.repeated.clamp(0.0, 1.0)) {
                b = b
                    .atom("name", Self::alias_of(i).as_str())
                    .atom("e_mail", format!("alias{i}@cs").as_str());
            }
            b.build_top(&mut store);
        }
        store
    }

    /// Generate the cs catalog: the first `overlap * n_whois` persons, plus
    /// the same number again of cs-only persons (so the join is selective
    /// on both sides).
    pub fn cs_catalog(&self) -> Catalog {
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
        let overlapping = (self.overlap.clamp(0.0, 1.0) * self.n_whois as f64) as usize;
        let add = |i: usize, is_student: bool, employee: &mut Table, student: &mut Table| {
            let (f, l) = Self::name_of(i);
            if is_student {
                student
                    .insert(vec![f.into(), l.into(), (((i % 5) + 1) as i64).into()])
                    .expect("student row");
            } else {
                employee
                    .insert(vec![
                        f.into(),
                        l.into(),
                        "professor".into(),
                        "John Hennessy".into(),
                    ])
                    .expect("employee row");
            }
        };
        for i in 0..overlapping {
            let is_student = (i as f64) < self.student_fraction * self.n_whois as f64;
            add(i, is_student, &mut employee, &mut student);
        }
        // cs-only persons (ids beyond the whois range).
        for j in 0..overlapping {
            let i = self.n_whois + j;
            add(i, j % 2 == 0, &mut employee, &mut student);
        }
        let _ = employee.create_index("last_name");
        let _ = student.create_index("last_name");
        catalog.add_table(employee).expect("add employee");
        catalog.add_table(student).expect("add student");
        catalog
    }

    /// Both wrappers, ready to register with a mediator.
    pub fn build(&self) -> (SemiStructuredSource, RelationalWrapper) {
        (
            SemiStructuredSource::new("whois", self.whois_store()),
            RelationalWrapper::new("cs", self.cs_catalog()),
        )
    }
}

/// A deeply nested store for wildcard-search studies: a chain of `depth`
/// nested `group` objects under each of `n_top` top-level `person` objects,
/// with a `<year i%5+1>` leaf at the bottom.
pub fn deep_store(n_top: usize, depth: usize) -> ObjectStore {
    let mut store = ObjectStore::with_oid_prefix("d");
    for i in 0..n_top {
        let mut inner = ObjectBuilder::set("group").atom("year", ((i % 5) + 1) as i64);
        for _ in 1..depth {
            inner = ObjectBuilder::set("group").child(inner);
        }
        ObjectBuilder::set("person")
            .atom("name", format!("P{i}").as_str())
            .child(inner)
            .build_top(&mut store);
    }
    store
}

/// A store whose top-level objects contain `dup_factor` structural copies
/// of each logical person — for duplicate-elimination studies (paper
/// footnote 9).
pub fn duplicated_store(n_logical: usize, dup_factor: usize) -> ObjectStore {
    let mut store = ObjectStore::with_oid_prefix("dup");
    for i in 0..n_logical {
        for _ in 0..dup_factor.max(1) {
            ObjectBuilder::set("person")
                .atom("name", PersonWorkload::full_name_of(i).as_str())
                .atom("dept", "CS")
                .build_top(&mut store);
        }
    }
    store
}

/// Two bibliographic sources (the paper's §1 motivating application):
/// `lib1` exports `book` objects with `author` as 'First Last'; `lib2`
/// exports `article` objects with separate `last`/`first` subobjects and
/// occasional extra attributes. `shared` titles appear in both.
pub fn bibliography_sources(
    n_each: usize,
    shared: usize,
    seed: u64,
) -> (SemiStructuredSource, SemiStructuredSource) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s1 = ObjectStore::with_oid_prefix("b");
    let mut s2 = ObjectStore::with_oid_prefix("a");
    let shared = shared.min(n_each);
    for i in 0..n_each {
        let title = format!("Title {i}");
        ObjectBuilder::set("book")
            .atom("title", title.as_str())
            .atom("author", PersonWorkload::full_name_of(i).as_str())
            .atom("publisher", "CSP")
            .build_top(&mut s1);
    }
    for i in 0..n_each {
        // The first `shared` titles overlap with lib1.
        let id = if i < shared { i } else { n_each + i };
        let title = format!("Title {id}");
        let (f, l) = PersonWorkload::name_of(id);
        let mut b = ObjectBuilder::set("article")
            .atom("title", title.as_str())
            .child(
                ObjectBuilder::set("author")
                    .atom("last", l.as_str())
                    .atom("first", f.as_str()),
            );
        if rng.gen_bool(0.4) {
            b = b.atom("venue", "ICDE");
        }
        b.build_top(&mut s2);
    }
    (
        SemiStructuredSource::new("lib1", s1),
        SemiStructuredSource::new("lib2", s2),
    )
}

/// An electronic-mail source (the paper's §1 motivating example of
/// semi-structured data: "objects have some well defined 'fields' such as
/// the destination and source addresses, but there are others that vary
/// from one mailer to another").
///
/// Every message has `from`/`to`; `subject`, `cc`, `priority` and nested
/// `attachment` objects appear probabilistically.
pub fn email_store(n: usize, seed: u64) -> ObjectStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ObjectStore::with_oid_prefix("msg");
    for i in 0..n {
        let mut b = ObjectBuilder::set("message")
            .atom("from", format!("user{}@cs", i % 7).as_str())
            .atom("to", format!("user{}@cs", (i + 1) % 7).as_str());
        if rng.gen_bool(0.8) {
            b = b.atom("subject", format!("Re: meeting {i}").as_str());
        }
        if rng.gen_bool(0.3) {
            b = b.atom("cc", format!("user{}@cs", (i + 2) % 7).as_str());
        }
        if rng.gen_bool(0.2) {
            b = b.atom("priority", "urgent");
        }
        if rng.gen_bool(0.25) {
            b = b.child(
                ObjectBuilder::set("attachment")
                    .atom("filename", format!("paper{i}.ps").as_str())
                    .atom("bytes", ((i as i64) + 1) * 1024),
            );
        }
        b.build_top(&mut store);
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;

    #[test]
    fn person_workload_sizes() {
        let w = PersonWorkload {
            n_whois: 50,
            overlap: 0.4,
            ..PersonWorkload::default()
        };
        let store = w.whois_store();
        assert_eq!(store.top_level().len(), 50);
        let catalog = w.cs_catalog();
        let total: usize = catalog.tables().map(|t| t.len()).sum();
        assert_eq!(total, 40); // 20 overlapping + 20 cs-only
    }

    #[test]
    fn generation_is_deterministic() {
        let w = PersonWorkload::sized(30);
        let a = oem::printer::print_store(&w.whois_store());
        let b = oem::printer::print_store(&w.whois_store());
        assert_eq!(a, b);
    }

    #[test]
    fn irregularity_zero_means_regular() {
        let w = PersonWorkload {
            n_whois: 20,
            irregularity: 0.0,
            ..PersonWorkload::default()
        };
        let store = w.whois_store();
        for &t in store.top_level() {
            let labels: Vec<_> = store
                .children(t)
                .iter()
                .map(|&c| store.get(c).label)
                .collect();
            assert!(labels.contains(&sym("e_mail")));
            assert!(!labels.contains(&sym("nickname")));
        }
    }

    #[test]
    fn repeated_adds_a_second_name_and_e_mail_and_nothing_else() {
        let labels_of = |repeated| {
            let store = PersonWorkload {
                n_whois: 30,
                repeated,
                ..PersonWorkload::default()
            }
            .whois_store();
            let labels = |t| store.children(t).iter().map(|&c| store.get(c).label);
            let persons = store.top_level().iter().map(|&t| labels(t).collect());
            persons.collect::<Vec<Vec<_>>>()
        };
        let (plain, doubled) = (labels_of(0.0), labels_of(1.0));
        for (p, d) in plain.iter().zip(&doubled) {
            assert_eq!(p.iter().filter(|&&l| l == sym("name")).count(), 1);
            // The same irregular draws, then the two repeats appended.
            assert_eq!(&d[..p.len()], &p[..]);
            assert_eq!(&d[p.len()..], &[sym("name"), sym("e_mail")]);
        }
    }

    #[test]
    fn deep_store_depth() {
        let store = deep_store(3, 5);
        assert_eq!(store.top_level().len(), 3);
        // person → group^5 (year leaf inside the innermost group).
        assert_eq!(oem::path::depth(&store, store.top_level()[0]), 7);
    }

    #[test]
    fn duplicated_store_counts() {
        let store = duplicated_store(4, 3);
        assert_eq!(store.top_level().len(), 12);
        let unique = oem::eq::dedup_structural(&store, store.top_level());
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn email_store_irregular() {
        let store = email_store(40, 9);
        assert_eq!(store.top_level().len(), 40);
        // Every message has from/to; not every message has a subject.
        let mut with_subject = 0;
        for &t in store.top_level() {
            let labels: Vec<_> = store
                .children(t)
                .iter()
                .map(|&c| store.get(c).label)
                .collect();
            assert!(labels.contains(&sym("from")));
            assert!(labels.contains(&sym("to")));
            if labels.contains(&sym("subject")) {
                with_subject += 1;
            }
        }
        assert!(with_subject > 0 && with_subject < 40);
    }

    #[test]
    fn bibliography_overlap() {
        let (l1, l2) = bibliography_sources(10, 4, 7);
        assert_eq!(l1.store().top_level().len(), 10);
        assert_eq!(l2.store().top_level().len(), 10);
    }
}
