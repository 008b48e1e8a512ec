//! Allocation budget of the answer cache's paths: heap allocations and
//! bytes allocated per query, counted by a std-only `#[global_allocator]`,
//! for nine cases over MS1 and a 200-person workload:
//!
//! - `control`: a cache-off MSL point lookup;
//! - `exact`: the same lookup repeated, served by exact hits;
//! - `pinned`: a lookup whose two source queries are each served by a
//!   containment hit in the cached scan's answer (cs's pins the names
//!   decomp made, whois's the name);
//! - `warm`: the first lookup after a reopen, served off the warm tier;
//! - `insert`: a first lookup that misses and files its answers;
//! - `scan`: the cache-off scan `P :- P:<cs_person {}>@med`;
//! - `print`: `print_store` of the scan's answer;
//! - `lorel`: the cache-off point lookup written in LOREL, compiled per
//!   query;
//! - `served`: one `QueryService::run` reply to a point lookup the primed
//!   cache answers, as `served_http` serves it: parse, coalescing key,
//!   execution and the printed answer.
//!
//! Each line of `tests/golden/alloc_budget.txt` is
//! `<case> <allocations per query> <bytes per query>`, the most of 12 runs
//! at the commit that blessed it. A count may not rise above its line by
//! more than counts spread between runs, nor fall more than 2 % below it:
//! the budget is a ratchet, and a change that lowers a count re-blesses
//! its line, so the room it made cannot hide a later rise. Every
//! measurement runs in the one test of this file, so no other test's
//! thread allocates meanwhile.

use medmaker::{CacheCounters, CacheOptions, Mediator, MediatorOptions, QueryLimits};
use medmaker_server::{QueryService, ReplyStatus};
use msl::Rule;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wrappers::fault::VirtualClock;
use wrappers::scenario::MS1;
use wrappers::workload::PersonWorkload;

const BUDGET: &str = include_str!("golden/alloc_budget.txt");

/// How far a count may exceed its budget line and not have risen: the
/// spread of a count between runs of one build. Some maps iterate in
/// per-process hash order, and the order moves a vector's growth by an
/// allocation or a few bytes per query.
const SLACK_ALLOCATIONS: u64 = 1;
const SLACK_BYTES: u64 = 8;

/// How far, in percent of its line, a count may fall below it before the
/// line must be re-blessed; never less than the slack.
const FALL_PERCENT: u64 = 2;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and the bytes it asks
/// for (a reallocation counts as one allocation of its new size).
struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, which
// meets `GlobalAlloc`'s contract; the counting beside it touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
            parallel: false,
            learn_stats: false,
            cache,
            ..MediatorOptions::default()
        },
    )
    .unwrap()
}

/// A cache on a virtual clock, so the write-through's insert times are
/// fixed; on disk under `dir` when given.
fn cache(dir: Option<PathBuf>) -> CacheOptions {
    CacheOptions {
        clock: Some(Arc::new(VirtualClock::new())),
        cache_dir: dir,
        ..CacheOptions::enabled()
    }
}

fn point(i: usize) -> Rule {
    msl::parse_query(&point_text(i)).unwrap()
}

fn point_text(i: usize) -> String {
    format!("P :- P:<cs_person {{<name 'First{i} Last{i}'>}}>@med")
}

fn lorel_point(i: usize) -> String {
    format!("select * from cs_person P where P.name = 'First{i} Last{i}'")
}

fn scan() -> Rule {
    msl::parse_query("P :- P:<cs_person {}>@med").unwrap()
}

/// Allocations and bytes counted so far.
fn counted() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations and bytes per item of running `one` on each of `items`.
fn per_item<T>(items: &[T], mut one: impl FnMut(&T)) -> (u64, u64) {
    let (a0, b0) = counted();
    items.iter().for_each(&mut one);
    let (a1, b1) = counted();
    let n = items.len() as u64;
    ((a1 - a0) / n, (b1 - b0) / n)
}

/// Allocations and bytes per query of running `queries` on `med`, answers
/// dropped included.
fn per_query(med: &Mediator, queries: &[Rule]) -> (u64, u64) {
    per_item(queries, |q| drop(med.query_rule(q).unwrap()))
}

/// The same, for LOREL texts compiled against `med` inside the count.
fn per_lorel_query(med: &Mediator, texts: &[String]) -> (u64, u64) {
    per_item(texts, |t| {
        drop(med.query_rule(&lorel::to_msl(t, "med").unwrap()).unwrap())
    })
}

/// The same, for replies of `service` to MSL texts.
fn per_reply(service: &QueryService, texts: &[String]) -> (u64, u64) {
    per_item(texts, |t| {
        let reply = service.run(t, &QueryLimits::default());
        assert_eq!(reply.status, ReplyStatus::Ok, "{:?}", reply.error);
        assert_eq!(reply.objects, 1, "{t}");
    })
}

/// The counters `run` moved on `med`'s cache.
fn moved(med: &Mediator, run: impl FnOnce()) -> CacheCounters {
    let before = med.cache_counters();
    run();
    let after = med.cache_counters();
    CacheCounters {
        hits: after.hits - before.hits,
        containment_hits: after.containment_hits - before.containment_hits,
        misses: after.misses - before.misses,
        warm_hits: after.warm_hits - before.warm_hits,
        ..CacheCounters::default()
    }
}

#[test]
fn cache_paths_allocate_within_the_budget() {
    // Lookups of people both sources hold: cs holds the first half of
    // whois's 200 people, so each of these lookups answers one object.
    // `others` names people `lookups` does not.
    let names: Vec<usize> = (0..100).step_by(5).collect();
    let lookups: Vec<Rule> = names.iter().map(|&i| point(i)).collect();
    let others: Vec<Rule> = names.iter().map(|&i| point(i + 2)).collect();
    let mut measured = Vec::new();
    let mut measure = |case, med: &Mediator, queries: &[Rule]| {
        let mut cost = (0, 0);
        let counts = moved(med, || cost = per_query(med, queries));
        measured.push((case, cost));
        counts
    };

    let med = mediator(CacheOptions::default());
    for q in lookups.iter().chain(&others) {
        // The warm-up: interned symbols, lazy indexes.
        let answer = med.query_rule(q).unwrap().results;
        assert_eq!(answer.top_level().len(), 1, "{q}");
    }
    measure("control", &med, &lookups);
    let cold = med;

    let med = mediator(cache(None));
    per_query(&med, &lookups); // the first pass files every answer
    let c = measure("exact", &med, &lookups);
    assert_eq!((c.containment_hits, c.misses), (0, 0), "{c:?}");

    let med = mediator(cache(None));
    per_query(&med, &[scan()]);
    per_query(&med, &lookups);
    let c = measure("pinned", &med, &others);
    assert_eq!(
        (c.containment_hits, c.misses),
        (2 * others.len(), 0),
        "{c:?}"
    );

    // The warm tier lives in a relative directory, so its paths are as
    // long in every checkout.
    let tmp = std::env::temp_dir().join(format!("medmaker-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_current_dir(&tmp).unwrap();
    let warm = PathBuf::from("warm");
    per_query(&mediator(cache(Some(warm.clone()))), &lookups);
    let med = mediator(cache(Some(warm)));
    let c = measure("warm", &med, &lookups);
    assert!(c.warm_hits >= lookups.len() && c.misses == 0, "{c:?}");
    std::env::set_current_dir(std::env::temp_dir()).unwrap();
    let _ = std::fs::remove_dir_all(&tmp);

    let med = mediator(cache(None));
    per_query(&med, &lookups);
    let c = measure("insert", &med, &others);
    assert!(c.misses >= others.len(), "{c:?}");

    let scans = [scan(), scan(), scan()];
    per_query(&cold, &scans[..1]);
    measure("scan", &cold, &scans);
    let answer = cold.query_rule(&scans[0]).unwrap().results;
    let (a0, b0) = counted();
    let text = oem::printer::print_store(&answer);
    let (a1, b1) = counted();
    assert_eq!(text.matches("\n<&").count() + 1, answer.top_level().len());
    measured.push(("print", (a1 - a0, b1 - b0)));

    let texts: Vec<String> = names.iter().map(|&i| lorel_point(i)).collect();
    per_lorel_query(&cold, &texts);
    measured.push(("lorel", per_lorel_query(&cold, &texts)));

    let texts: Vec<String> = names.iter().map(|&i| point_text(i)).collect();
    let service = QueryService::new(
        Arc::new(mediator(cache(None))),
        1,
        0,
        QueryLimits::default(),
    );
    per_reply(&service, &texts); // primes the cache, as `served_http` does
    measured.push(("served", per_reply(&service, &texts)));

    let actual: String = measured
        .iter()
        .map(|(case, (allocs, bytes))| format!("{case} {allocs} {bytes}\n"))
        .collect();
    let budget: Vec<(&str, u64, u64)> = BUDGET
        .lines()
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            (f[0], f[1].parse().unwrap(), f[2].parse().unwrap())
        })
        .collect();
    assert_eq!(budget.len(), measured.len(), "one budget line per case");
    // The lowest count that keeps its line: 2 % below it, or the slack.
    let floor = |line: u64, slack: u64| line - (line * FALL_PERCENT / 100).max(slack).min(line);
    for ((case, (allocs, bytes)), (name, max_allocs, max_bytes)) in measured.iter().zip(&budget) {
        assert_eq!(case, name);
        assert!(
            *allocs <= max_allocs + SLACK_ALLOCATIONS && *bytes <= max_bytes + SLACK_BYTES,
            "{case} rose above its budget {max_allocs} {max_bytes}; actual:\n{actual}"
        );
        assert!(
            *allocs >= floor(*max_allocs, SLACK_ALLOCATIONS)
                && *bytes >= floor(*max_bytes, SLACK_BYTES),
            "{case} fell more than {FALL_PERCENT} % below its budget {max_allocs} {max_bytes}: \
             re-bless tests/golden/alloc_budget.txt (the most of 12 runs); actual:\n{actual}"
        );
    }
}
