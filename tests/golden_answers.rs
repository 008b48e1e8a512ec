//! Golden answers: the printed answers to a fixed query set over a
//! generated 200-person workload, pinned by digest so that a change to how
//! objects are stored, copied, deduplicated or printed shows as a changed
//! byte and not only as a changed count.
//!
//! The set runs on a mediator with the cache off, then on one with the
//! cache on, twice (the second pass is served from the cache). Each line of
//! `tests/golden/person_200_seed_11.txt` is
//! `<mode> <query> <top-level objects> <FNV-1a 64 of the printed answer>`.

use medmaker::{CacheOptions, Mediator, MediatorOptions};
use std::sync::Arc;
use wrappers::scenario::MS1;
use wrappers::workload::PersonWorkload;

const GOLDEN: &str = include_str!("golden/person_200_seed_11.txt");

/// `(name, lorel, text)`: `scan`, two point lookups in MSL, one in LOREL,
/// `rel` and `year`. (At this size every person both sources hold is a
/// student, so `rel` prints what `scan` prints — by a different plan.)
const QUERIES: &[(&str, bool, &str)] = &[
    ("scan", false, "P :- P:<cs_person {}>@med"),
    (
        "point.msl.3",
        false,
        "P :- P:<cs_person {<name 'First3 Last3'>}>@med",
    ),
    (
        "point.msl.42",
        false,
        "P :- P:<cs_person {<name 'First42 Last42'>}>@med",
    ),
    (
        "point.lorel.57",
        true,
        "select * from cs_person P where P.name = 'First57 Last57'",
    ),
    ("rel", false, "P :- P:<cs_person {<rel 'student'>}>@med"),
    ("year", false, "S :- S:<cs_person {<year 3>}>@med"),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mediator(cache: CacheOptions) -> Mediator {
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
            // Learning may change the plan between runs, and with it the
            // order objects are printed in.
            learn_stats: false,
            cache,
            ..MediatorOptions::default()
        },
    )
    .unwrap()
}

fn answer_lines(mode: &str, med: &Mediator, out: &mut String) {
    for (name, lorel, text) in QUERIES {
        let rule = if *lorel {
            lorel::to_msl(text, "med").unwrap()
        } else {
            msl::parse_query(text).unwrap()
        };
        let results = med.query_rule(&rule).unwrap().results;
        let printed = oem::printer::print_store(&results);
        out.push_str(&format!(
            "{mode} {name} {} {:016x}\n",
            results.top_level().len(),
            fnv1a(printed.as_bytes())
        ));
    }
}

#[test]
fn printed_answers_match_the_golden_digests() {
    let mut actual = String::new();
    answer_lines("cache-off", &mediator(CacheOptions::default()), &mut actual);
    let cached = mediator(CacheOptions::enabled());
    answer_lines("cache-on", &cached, &mut actual);
    answer_lines("cache-on-again", &cached, &mut actual);
    assert_eq!(actual, GOLDEN, "printed answers changed; actual:\n{actual}");
}
