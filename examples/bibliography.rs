//! The paper's §1 motivating application: a mediator for Computer Science
//! publications over heterogeneous bibliographic sources.
//!
//! "Users accessing the mediator would see a single collection of
//! materials, with, for example, duplicates removed and inconsistencies
//! resolved (e.g., all authors names would be in the format last name,
//! first name)."
//!
//! Source `lib1` exports `book` objects with a combined `author` string;
//! source `lib2` exports `article` objects with nested last/first author
//! subobjects. The mediator exports a unified `publication` view with
//! normalized `last name, first name` authors; **semantic object-ids** fuse
//! entries that appear in both sources, and MSL's duplicate elimination
//! removes exact duplicates.
//!
//! Run with: `cargo run --example bibliography`

use medmaker::Mediator;
use msl::Adornment;
use oem::Value;
use std::sync::Arc;
use wrappers::workload::bibliography_sources;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two small sources with 3 shared titles.
    let (lib1, lib2) = bibliography_sources(6, 3, 2024);

    // Rule 1: books from lib1 — split 'First Last' and re-compose as
    // 'Last, First' via external predicates.
    // Rule 2: articles from lib2 — their authors are already split.
    // Both rules give the publication the semantic oid pub_id(Title), so a
    // title known to both sources becomes ONE fused object carrying the
    // union of the attributes.
    let spec = "\
<pub_id(T) publication {<title T> <author A> <kind 'book'> Rest}> :-
    <book {<title T> <author Full> | Rest}>@lib1
    AND decomp(Full, LN, FN)
    AND compose_lnf(LN, FN, A)

<pub_id(T) publication {<title T> <author A> <kind 'article'> Rest}> :-
    <article {<title T> <author {<last LN> <first FN>}> | Rest}>@lib2
    AND compose_lnf(LN, FN, A)

decomp(bound, free, free) by name_to_lnfn
compose_lnf(bound, bound, free) by last_comma_first
";

    // decomp comes from the standard registry; compose_lnf is custom.
    let mut registry = medmaker::externals::standard_registry();
    registry.register(
        "compose_lnf",
        "last_comma_first",
        vec![Adornment::Bound, Adornment::Bound, Adornment::Free],
        |inputs, out| {
            let (Some(ln), Some(fn_)) = (inputs[0].as_str_sym(), inputs[1].as_str_sym()) else {
                return 0;
            };
            out.push(Value::str(&format!("{ln}, {fn_}")));
            1
        },
    );

    let med = Mediator::new("bib", spec, vec![Arc::new(lib1), Arc::new(lib2)], registry)?;

    println!("=== the unified publication view ===");
    let res = med.query_text("P :- P:<publication {}>@bib")?;
    print!("{}", oem::printer::print_store(&res));
    println!("\n{} publications total.", res.top_level().len());
    println!("Shared titles are FUSED: they carry both <kind 'book'> and <kind 'article'>.");

    println!("\n=== one specific publication ===");
    let res = med.query_text("P :- P:<publication {<title 'Title 1'>}>@bib")?;
    print!("{}", oem::printer::print_store(&res));
    Ok(())
}
