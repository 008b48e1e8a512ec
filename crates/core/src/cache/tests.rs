//! Facade tests: canonicalization, containment soundness, tier behavior,
//! delta invalidation, crash recovery, and byte accounting.

use super::*;
use crate::graph::VarKind;
use msl::parse_rule;
use oem::printer::compact;
use oem::{sym, ObjectBuilder};
use wrappers::fault::VirtualClock;

fn q(src: &str) -> Rule {
    parse_rule(src).unwrap()
}

impl AnswerCache {
    /// File `answer`, given as the store a source built for `query`,
    /// through the entry constructor every insert goes through.
    fn insert(&self, source: Symbol, query: &Rule, vars: &[ExtractVar], answer: &ObjectStore) {
        if self.enabled_for(source) && self.opts.capacity > 0 {
            self.insert_store(source, query, QueryShape::of(query), vars, answer.clone());
        }
    }

    /// [`AnswerCache::lookup`] under `query`'s own shape.
    fn probe(
        &self,
        source: Symbol,
        query: &Rule,
        vars: &[ExtractVar],
        memory: &mut ObjectStore,
    ) -> Option<(Vec<Vec<BoundValue>>, CacheHit)> {
        self.lookup(source, query, &QueryShape::of(query), vars, memory)
    }
}

/// The shape the planner's `build_source_query` emits for a whois
/// fetch extracting `name` (scalar) and the rest set.
fn whois_query(name_var: &str, rest_var: &str) -> Rule {
    q(&format!(
        "<bind_for_whois {{<bind_for_{name_var} {name_var}> <bind_for_{rest_var} {{{rest_var}}}>}}> :- \
         <person {{<name {name_var}> <dept 'CS'> | {rest_var}}}>@whois"
    ))
}

fn whois_answer(names: &[(&str, &[(&str, &str)])]) -> ObjectStore {
    // One bind_for_whois object per person: an atomic name carrier
    // and a set carrier holding the rest subobjects.
    let mut s = ObjectStore::with_oid_prefix("whois_r");
    for (name, rest) in names {
        let name_c = s.atom("bind_for_N", *name);
        let rest_kids: Vec<oem::ObjId> = rest.iter().map(|(l, v)| s.atom(*l, *v)).collect();
        let rest_c = s.set("bind_for_Rest1", rest_kids);
        let top = s.set("bind_for_whois", vec![name_c, rest_c]);
        s.add_top(top);
    }
    s
}

fn extract_nr() -> Vec<ExtractVar> {
    vec![
        ExtractVar {
            var: sym("N"),
            kind: VarKind::Scalar,
        },
        ExtractVar {
            var: sym("Rest1"),
            kind: VarKind::Scalar,
        },
    ]
}

#[test]
fn canonical_key_normalizes_renaming_and_order() {
    let a = q("<bind_for_whois {<bind_for_N N>}> :- <person {<name N> <dept 'CS'>}>@whois");
    let b = q("<bind_for_whois {<bind_for_X X>}> :- <person {<dept 'CS'> <name X>}>@whois");
    assert_eq!(canonical_key(&a), canonical_key(&b));
}

#[test]
fn canonical_key_distinguishes_different_constants() {
    let a = q("<b {<bind_for_N N>}> :- <person {<name N> <dept 'CS'>}>@whois");
    let b = q("<b {<bind_for_N N>}> :- <person {<name N> <dept 'EE'>}>@whois");
    assert_ne!(canonical_key(&a), canonical_key(&b));
}

#[test]
fn canonical_key_tracks_carrier_labels() {
    // Same tail, but extracting different variables → different keys.
    let a = q("<b {<bind_for_N N>}> :- <person {<name N> <year Y>}>@whois");
    let b = q("<b {<bind_for_Y Y>}> :- <person {<name N> <year Y>}>@whois");
    assert_ne!(canonical_key(&a), canonical_key(&b));
}

#[test]
fn exact_hit_serves_identical_rows_under_renamed_vars() {
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[
        ("Joe Chung", &[("relation", "employee")]),
        ("Nick Naive", &[("relation", "student")]),
    ]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );

    // The same logical query with renamed variables.
    let renamed = q("<bind_for_whois {<bind_for_X X> <bind_for_R2 {R2}>}> :- \
         <person {<name X> <dept 'CS'> | R2}>@whois");
    let vars = vec![
        ExtractVar {
            var: sym("X"),
            kind: VarKind::Scalar,
        },
        ExtractVar {
            var: sym("R2"),
            kind: VarKind::Scalar,
        },
    ];
    let mut memory = ObjectStore::new();
    let (rows, kind) = cache
        .probe(sym("whois"), &renamed, &vars, &mut memory)
        .expect("exact hit");
    assert_eq!(kind, CacheHit::Exact);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], BoundValue::Atom(Value::str("Joe Chung")));
    let c = cache.counters();
    assert_eq!((c.hits, c.containment_hits, c.misses), (1, 0, 0));
}

#[test]
fn containment_hit_filters_by_pinned_constant() {
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[
        ("Joe Chung", &[("relation", "employee")]),
        ("Nick Naive", &[("relation", "student")]),
    ]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );

    // Narrower query: the name is pinned to a constant.
    let narrow = q("<bind_for_whois {<bind_for_Rest1 {Rest1}>}> :- \
         <person {<name 'Joe Chung'> <dept 'CS'> | Rest1}>@whois");
    let vars = vec![ExtractVar {
        var: sym("Rest1"),
        kind: VarKind::Scalar,
    }];
    let mut memory = ObjectStore::new();
    let (rows, kind) = cache
        .probe(sym("whois"), &narrow, &vars, &mut memory)
        .expect("containment hit");
    assert_eq!(kind, CacheHit::Containment);
    assert_eq!(rows.len(), 1, "only Joe survives the filter");
    let BoundValue::ObjSet(ids) = &rows[0][0] else {
        panic!("rest carrier must be a set");
    };
    assert_eq!(ids.len(), 1);
    assert_eq!(memory.get(ids[0]).label, sym("relation"));
}

#[test]
fn hits_copy_the_sets_an_entry_shares_and_leave_it_as_filed() {
    // An entry's rows share their object sets with every row a hit
    // serves. Absorbing a served row must copy such a set before it
    // renames its ids into chain memory: the entry's own sets keep
    // naming the entry's store, so a later hit serves the same bytes.
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[
        (
            "Joe Chung",
            &[("relation", "employee"), ("e_mail", "chung@cs")],
        ),
        ("Nick Naive", &[("relation", "student")]),
    ]);
    let source = sym("whois");
    cache.insert(source, &whois_query("N", "Rest1"), &extract_nr(), &answer);
    let filed = || -> Vec<Vec<BoundValue>> {
        let inner = cache.inner.lock();
        inner.hot.shard(source).unwrap()[0].answer.rows.rows.clone()
    };
    let before = filed();

    // Each hit into a chain memory of its own, printed there.
    let serve = |query: &Rule, vars: &[ExtractVar], kind: CacheHit| -> Vec<String> {
        let mut memory = ObjectStore::with_oid_prefix("m");
        // Chain memory already holds objects, so a copy's id differs
        // from the id it was copied from.
        ObjectBuilder::set("filler")
            .atom("a", 1)
            .atom("b", 2)
            .build_top(&mut memory);
        let (rows, hit) = cache.probe(source, query, vars, &mut memory).unwrap();
        assert_eq!(hit, kind);
        (rows.iter().flatten())
            .map(|v| match v {
                BoundValue::ObjSet(ids) => {
                    let members: Vec<String> = ids.iter().map(|&id| compact(&memory, id)).collect();
                    members.join(" ")
                }
                other => other.to_string(),
            })
            .collect()
    };
    let exact = serve(&whois_query("N", "Rest1"), &extract_nr(), CacheHit::Exact);
    assert_eq!(
        exact,
        [
            "'Joe Chung'",
            "<relation 'employee'> <e_mail 'chung@cs'>",
            "'Nick Naive'",
            "<relation 'student'>"
        ]
    );
    let pinned = q("<bind_for_whois {<bind_for_Rest1 {Rest1}>}> :- \
         <person {<name 'Joe Chung'> <dept 'CS'> | Rest1}>@whois");
    let rest = [ExtractVar {
        var: sym("Rest1"),
        kind: VarKind::Scalar,
    }];
    let contained = serve(&pinned, &rest, CacheHit::Containment);
    assert_eq!(contained, exact[1..2]);
    let again = serve(&whois_query("N", "Rest1"), &extract_nr(), CacheHit::Exact);
    assert_eq!(again, exact);

    let after = filed();
    assert_eq!(after, before);
    let inner = cache.inner.lock();
    let store = &inner.hot.shard(source).unwrap()[0].answer.rows.store;
    let labels: Vec<String> = (after.iter().flatten())
        .filter_map(BoundValue::as_obj_set)
        .flatten()
        .map(|&id| store.get(id).label.to_string())
        .collect();
    assert_eq!(labels, ["relation", "e_mail", "relation"]);
}

#[test]
fn containment_hit_filters_by_extra_rest_condition() {
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[
        ("Joe Chung", &[("relation", "employee")]),
        ("Nick Naive", &[("relation", "student")]),
    ]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );

    // Narrower query: a condition pushed into the rest variable.
    let narrow = q(
        "<bind_for_whois {<bind_for_N N> <bind_for_Rest1 {Rest1}>}> :- \
         <person {<name N> <dept 'CS'> | Rest1:{<relation 'student'>}}>@whois",
    );
    let mut memory = ObjectStore::new();
    let (rows, kind) = cache
        .probe(sym("whois"), &narrow, &extract_nr(), &mut memory)
        .expect("containment hit");
    assert_eq!(kind, CacheHit::Containment);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], BoundValue::Atom(Value::str("Nick Naive")));
}

#[test]
fn rest_condition_sharing_a_query_variable_is_not_served() {
    // <person {<name N> ... | R:{<boss N>}}>: the condition's N is the
    // same variable the query binds to the name. Serving from the
    // broad entry would filter each row by "rest has *any* boss"
    // instead of "rest has a boss equal to this row's name" — a
    // superset. The probe must reject, not serve wrongly.
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[
        ("Joe Chung", &[("boss", "John Hennessy")]),
        ("John Hennessy", &[("boss", "John Hennessy")]),
    ]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );
    let narrow = q(
        "<bind_for_whois {<bind_for_N N> <bind_for_Rest1 {Rest1}>}> :- \
         <person {<name N> <dept 'CS'> | Rest1:{<boss N>}}>@whois",
    );
    let mut memory = ObjectStore::new();
    assert!(
        cache
            .probe(sym("whois"), &narrow, &extract_nr(), &mut memory)
            .is_none(),
        "a shared-variable rest condition must miss, never serve a superset"
    );
    assert_eq!(cache.counters().misses, 1);
}

#[test]
fn rest_conditions_sharing_a_variable_are_not_served() {
    // Two extra conditions sharing X: the live matcher requires the
    // SAME X to satisfy both; independent filtering would accept a
    // row where different members satisfy each. Must reject.
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[("Joe Chung", &[("proj", "tsimmis"), ("backup", "lore")])]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );
    let narrow = q(
        "<bind_for_whois {<bind_for_N N> <bind_for_Rest1 {Rest1}>}> :- \
         <person {<name N> <dept 'CS'> | Rest1:{<proj X> <backup X>}}>@whois",
    );
    let mut memory = ObjectStore::new();
    assert!(cache
        .probe(sym("whois"), &narrow, &extract_nr(), &mut memory)
        .is_none());
}

#[test]
fn rest_condition_with_local_variable_is_served() {
    // A condition variable used nowhere else binds freely row-by-row
    // in the live matcher too, so local filtering is sound.
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[
        ("Joe Chung", &[("relation", "employee")]),
        ("Terry Torres", &[("office", "B1")]),
    ]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );
    let narrow = q(
        "<bind_for_whois {<bind_for_N N> <bind_for_Rest1 {Rest1}>}> :- \
         <person {<name N> <dept 'CS'> | Rest1:{<relation R>}}>@whois",
    );
    let mut memory = ObjectStore::new();
    let (rows, kind) = cache
        .probe(sym("whois"), &narrow, &extract_nr(), &mut memory)
        .expect("a purely local condition variable is servable");
    assert_eq!(kind, CacheHit::Containment);
    assert_eq!(rows.len(), 1, "only Joe has a relation member");
    assert_eq!(rows[0][0], BoundValue::Atom(Value::str("Joe Chung")));
}

#[test]
fn broader_query_never_served_from_narrower_entry() {
    let cache = AnswerCache::new(CacheOptions::enabled());
    // Cache the NARROW query (name pinned)...
    let narrow = q("<bind_for_whois {<bind_for_Rest1 {Rest1}>}> :- \
         <person {<name 'Joe Chung'> <dept 'CS'> | Rest1}>@whois");
    let vars = vec![ExtractVar {
        var: sym("Rest1"),
        kind: VarKind::Scalar,
    }];
    let answer = whois_answer(&[("Joe Chung", &[("relation", "employee")])]);
    cache.insert(sym("whois"), &narrow, &vars, &answer);
    // ... and probe with the broad one: must miss (a constant does
    // not cover a variable).
    let mut memory = ObjectStore::new();
    assert!(cache
        .probe(
            sym("whois"),
            &whois_query("N", "Rest1"),
            &extract_nr(),
            &mut memory
        )
        .is_none());
    assert_eq!(cache.counters().misses, 1);
}

#[test]
fn extra_tail_pattern_is_not_containment() {
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[("Joe Chung", &[("relation", "employee")])]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );
    // A second tail pattern the cached query never had: no reuse.
    let two_tails = q("<bind_for_whois {<bind_for_N N>}> :- \
         <person {<name N> <dept 'CS'> | Rest1}>@whois AND <dept {<head N>}>@whois");
    let vars = vec![ExtractVar {
        var: sym("N"),
        kind: VarKind::Scalar,
    }];
    let mut memory = ObjectStore::new();
    assert!(cache
        .probe(sym("whois"), &two_tails, &vars, &mut memory)
        .is_none());
}

#[test]
fn capacity_evicts_oldest_and_counts() {
    let cache = AnswerCache::new(CacheOptions {
        enabled: true,
        capacity: 2,
        ..Default::default()
    });
    let answer = whois_answer(&[("Joe Chung", &[])]);
    for dept in ["'A'", "'B'", "'C'"] {
        let query = q(&format!(
            "<b {{<bind_for_N N>}}> :- <person {{<name N> <dept {dept}>}}>@whois"
        ));
        cache.insert(
            sym("whois"),
            &query,
            &[ExtractVar {
                var: sym("N"),
                kind: VarKind::Scalar,
            }],
            &answer,
        );
    }
    let c = cache.counters();
    assert_eq!(c.entries, 2);
    assert_eq!(c.evictions, 1);
    assert!(c.bytes_cached > 0);
    assert_eq!(cache.entry_count(sym("whois")), 2);
}

#[test]
fn ttl_expires_on_the_virtual_clock() {
    let clock = Arc::new(VirtualClock::new());
    let cache = AnswerCache::new(CacheOptions {
        enabled: true,
        ttl_ms: Some(100),
        clock: Some(clock.clone()),
        ..Default::default()
    });
    let answer = whois_answer(&[("Joe Chung", &[("relation", "employee")])]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );
    let mut memory = ObjectStore::new();
    assert!(cache
        .probe(
            sym("whois"),
            &whois_query("N", "Rest1"),
            &extract_nr(),
            &mut memory
        )
        .is_some());
    clock.advance(101);
    assert!(
        cache
            .probe(
                sym("whois"),
                &whois_query("N", "Rest1"),
                &extract_nr(),
                &mut memory
            )
            .is_none(),
        "entry must expire after the TTL"
    );
    let c = cache.counters();
    assert_eq!(c.evictions, 1);
    assert_eq!(c.entries, 0);
    assert_eq!(c.bytes_cached, 0);
}

#[test]
fn failed_source_embargoes_entries_unless_stale_ok() {
    let answer = whois_answer(&[("Joe Chung", &[("relation", "employee")])]);
    for stale_ok in [false, true] {
        let cache = AnswerCache::new(CacheOptions {
            enabled: true,
            stale_ok,
            ..Default::default()
        });
        cache.insert(
            sym("whois"),
            &whois_query("N", "Rest1"),
            &extract_nr(),
            &answer,
        );
        cache.mark_failed(sym("whois"));
        let mut memory = ObjectStore::new();
        let served = cache
            .probe(
                sym("whois"),
                &whois_query("N", "Rest1"),
                &extract_nr(),
                &mut memory,
            )
            .is_some();
        assert_eq!(served, stale_ok, "stale_ok={stale_ok}");
        // Recovery lifts the embargo either way.
        cache.mark_ok(sym("whois"));
        assert!(cache
            .probe(
                sym("whois"),
                &whois_query("N", "Rest1"),
                &extract_nr(),
                &mut memory
            )
            .is_some());
    }
}

#[test]
fn invalidate_source_drops_the_shard() {
    let cache = AnswerCache::new(CacheOptions::enabled());
    let answer = whois_answer(&[("Joe Chung", &[])]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );
    assert_eq!(cache.entry_count(sym("whois")), 1);
    cache.invalidate_source(sym("whois"));
    assert_eq!(cache.entry_count(sym("whois")), 0);
    let c = cache.counters();
    assert_eq!(c.evictions, 1);
    assert_eq!(c.bytes_cached, 0);
    let mut memory = ObjectStore::new();
    assert!(cache
        .probe(
            sym("whois"),
            &whois_query("N", "Rest1"),
            &extract_nr(),
            &mut memory
        )
        .is_none());
}

#[test]
fn disabled_sources_are_never_cached() {
    let cache = AnswerCache::new(CacheOptions {
        enabled: true,
        disabled_sources: [sym("whois")].into_iter().collect(),
        ..Default::default()
    });
    assert!(!cache.enabled_for(sym("whois")));
    assert!(cache.enabled_for(sym("cs")));
    let answer = whois_answer(&[("Joe Chung", &[])]);
    cache.insert(
        sym("whois"),
        &whois_query("N", "Rest1"),
        &extract_nr(),
        &answer,
    );
    assert_eq!(cache.entry_count(sym("whois")), 0);
}

// ---- tiered-store tests ---------------------------------------------

/// A fresh (pre-cleaned) per-test cache directory.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medmaker-cache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiered_opts(dir: &std::path::Path) -> CacheOptions {
    CacheOptions {
        enabled: true,
        cache_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

/// A one-extraction query distinguished by its dept constant.
fn dept_query(dept: &str) -> Rule {
    q(&format!(
        "<b {{<bind_for_N N>}}> :- <person {{<name N> <dept '{dept}'>}}>@whois"
    ))
}

fn extract_n() -> Vec<ExtractVar> {
    vec![ExtractVar {
        var: sym("N"),
        kind: VarKind::Scalar,
    }]
}

/// An answer with `rows` atomic name carriers.
fn n_answer(rows: usize) -> ObjectStore {
    let mut s = ObjectStore::with_oid_prefix("whois_r");
    for i in 0..rows {
        let name_c = s.atom("bind_for_N", format!("P{i}").as_str());
        let top = s.set("bind_for_whois", vec![name_c]);
        s.add_top(top);
    }
    s
}

fn lookup_names(cache: &AnswerCache, query: &Rule) -> Option<Vec<BoundValue>> {
    let mut memory = ObjectStore::new();
    cache
        .probe(sym("whois"), query, &extract_n(), &mut memory)
        .map(|(rows, _)| rows.into_iter().map(|mut r| r.remove(0)).collect())
}

#[test]
fn warm_tier_survives_reopen() {
    let dir = tmp_dir("reopen");
    {
        let cache = AnswerCache::new(tiered_opts(&dir));
        cache.insert(sym("whois"), &dept_query("CS"), &extract_n(), &n_answer(2));
    }
    // A brand-new process image: nothing hot, everything on disk.
    let cache = AnswerCache::new(tiered_opts(&dir));
    assert_eq!(cache.entry_count(sym("whois")), 0);
    let rows = lookup_names(&cache, &dept_query("CS")).expect("served from the warm tier");
    assert_eq!(
        rows,
        vec![
            BoundValue::Atom(Value::str("P0")),
            BoundValue::Atom(Value::str("P1")),
        ]
    );
    let c = cache.counters();
    assert_eq!((c.hits, c.warm_hits, c.promotions), (1, 1, 1));
    // The promotion made it hot: the next lookup stays in memory.
    assert!(lookup_names(&cache, &dept_query("CS")).is_some());
    let c = cache.counters();
    assert_eq!((c.hits, c.warm_hits), (2, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn demoted_entries_stay_servable_from_warm() {
    let dir = tmp_dir("demote");
    let cache = AnswerCache::new(CacheOptions {
        capacity: 1,
        ..tiered_opts(&dir)
    });
    cache.insert(sym("whois"), &dept_query("A"), &extract_n(), &n_answer(1));
    cache.insert(sym("whois"), &dept_query("B"), &extract_n(), &n_answer(1));
    let c = cache.counters();
    assert_eq!((c.demotions, c.evictions, c.entries), (1, 0, 1));
    // The demoted entry is gone from memory but still serves from disk
    // (and promotes back, demoting the other).
    assert!(lookup_names(&cache, &dept_query("A")).is_some());
    let c = cache.counters();
    assert_eq!((c.warm_hits, c.promotions, c.demotions), (1, 1, 2));
    assert_eq!(c.bytes_cached, cache.hot_resident_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cost_aware_eviction_keeps_the_hitter() {
    // No warm tier: eviction is terminal, making the policy observable.
    let cache = AnswerCache::new(CacheOptions {
        enabled: true,
        capacity: 2,
        ..Default::default()
    });
    cache.insert(sym("whois"), &dept_query("A"), &extract_n(), &n_answer(1));
    cache.insert(sym("whois"), &dept_query("B"), &extract_n(), &n_answer(1));
    // A hit raises A's per-entry EWMA above B's.
    assert!(lookup_names(&cache, &dept_query("A")).is_some());
    cache.insert(sym("whois"), &dept_query("C"), &extract_n(), &n_answer(1));
    assert!(
        lookup_names(&cache, &dept_query("B")).is_none(),
        "the never-hit entry is the lowest value and must go"
    );
    assert!(lookup_names(&cache, &dept_query("A")).is_some());
    assert!(lookup_names(&cache, &dept_query("C")).is_some());
}

#[test]
fn scoped_label_delta_invalidates_only_matching_entries() {
    let dir = tmp_dir("delta-label");
    let person = dept_query("CS");
    let dept = q("<b {<bind_for_N N>}> :- <dept {<head N>}>@whois");
    {
        let cache = AnswerCache::new(tiered_opts(&dir));
        cache.insert(sym("whois"), &person, &extract_n(), &n_answer(1));
        cache.insert(sym("whois"), &dept, &extract_n(), &n_answer(1));
        let n = cache.apply_delta(&SourceDelta::labels(sym("whois"), [sym("head")]));
        assert_eq!(n, 1, "only the dept query mentions the changed label");
        assert!(
            lookup_names(&cache, &person).is_some(),
            "unaffected entry still hits"
        );
        assert!(lookup_names(&cache, &dept).is_none());
        assert_eq!(cache.counters().evictions, 1);
    }
    // The tombstone keeps the invalidation durable across reopen.
    let cache = AnswerCache::new(tiered_opts(&dir));
    assert!(lookup_names(&cache, &person).is_some());
    assert!(lookup_names(&cache, &dept).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_scoped_delta_invalidates_exact_keys_only() {
    let cache = AnswerCache::new(CacheOptions::enabled());
    let a = dept_query("A");
    let b = dept_query("B");
    cache.insert(sym("whois"), &a, &extract_n(), &n_answer(1));
    cache.insert(sym("whois"), &b, &extract_n(), &n_answer(1));
    let n = cache.apply_delta(&SourceDelta::keys(sym("whois"), [canonical_key(&a)]));
    assert_eq!(n, 1);
    assert!(lookup_names(&cache, &a).is_none());
    assert!(lookup_names(&cache, &b).is_some());
}

#[test]
fn scoped_delta_leaves_the_failure_embargo_intact() {
    let cache = AnswerCache::new(CacheOptions::enabled());
    cache.insert(sym("whois"), &dept_query("A"), &extract_n(), &n_answer(1));
    cache.mark_failed(sym("whois"));
    cache.apply_delta(&SourceDelta::labels(sym("whois"), [sym("nosuch")]));
    assert_eq!(cache.entry_count(sym("whois")), 1);
    assert!(
        lookup_names(&cache, &dept_query("A")).is_none(),
        "a data change is not a recovery: the kept entry stays unserved"
    );
    // An unscoped delta is whole-source invalidation and lifts it.
    cache.apply_delta(&SourceDelta::whole(sym("whois")));
    cache.insert(sym("whois"), &dept_query("A"), &extract_n(), &n_answer(1));
    assert!(lookup_names(&cache, &dept_query("A")).is_some());
}

#[test]
fn whole_source_invalidation_survives_reopen() {
    let dir = tmp_dir("invalidate-reopen");
    {
        let cache = AnswerCache::new(tiered_opts(&dir));
        cache.insert(sym("whois"), &dept_query("A"), &extract_n(), &n_answer(1));
        assert_eq!(cache.invalidate_source(sym("whois")), 1);
    }
    let cache = AnswerCache::new(tiered_opts(&dir));
    assert!(lookup_names(&cache, &dept_query("A")).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_record_recovers_to_the_valid_prefix() {
    let dir = tmp_dir("torn");
    {
        let cache = AnswerCache::new(tiered_opts(&dir));
        cache.insert(sym("whois"), &dept_query("A"), &extract_n(), &n_answer(1));
        cache.insert(sym("whois"), &dept_query("B"), &extract_n(), &n_answer(3));
    }
    // Injected crash mid-append: shear bytes off the final record.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("one segment written");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

    let cache = AnswerCache::new(tiered_opts(&dir));
    let stats = cache.warm_stats().expect("warm tier open");
    assert_eq!(stats.torn_segments, 1);
    assert_eq!(
        stats.entries, 1,
        "only the checksummed-valid entry survives"
    );
    assert!(
        lookup_names(&cache, &dept_query("B")).is_none(),
        "the torn record must not be served"
    );
    let recovered = lookup_names(&cache, &dept_query("A")).expect("valid prefix serves");

    // Byte-identical to a cold run: a fresh memory-only cache fed the
    // same answer serves the same rows.
    let cold = AnswerCache::new(CacheOptions::enabled());
    cold.insert(sym("whois"), &dept_query("A"), &extract_n(), &n_answer(1));
    assert_eq!(recovered, lookup_names(&cold, &dept_query("A")).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_segment_header_is_skipped_whole() {
    let dir = tmp_dir("badheader");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-00000042.seg"), b"not a segment at all").unwrap();
    let cache = AnswerCache::new(tiered_opts(&dir));
    let stats = cache.warm_stats().expect("warm tier open");
    assert_eq!(stats.corrupt_segments, 1);
    assert_eq!(stats.entries, 0);
    // The tier still works for fresh traffic.
    cache.insert(sym("whois"), &dept_query("A"), &extract_n(), &n_answer(1));
    assert!(lookup_names(&cache, &dept_query("A")).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_drops_lowest_value_past_budget() {
    let dir = tmp_dir("compact");
    let cache = AnswerCache::new(CacheOptions {
        // Tiny budget: inserting a handful of answers overflows it and
        // triggers auto-compaction on the write path.
        warm_bytes: 600,
        ..tiered_opts(&dir)
    });
    for i in 0..6 {
        cache.insert(
            sym("whois"),
            &dept_query(&format!("D{i}")),
            &extract_n(),
            &n_answer(2),
        );
    }
    // The last one is the hitter: promote its value above the rest.
    assert!(lookup_names(&cache, &dept_query("D5")).is_some());
    cache.insert(sym("whois"), &dept_query("D6"), &extract_n(), &n_answer(2));
    let c = cache.counters();
    assert!(c.compactions >= 1, "budget overflow must compact: {c:?}");
    let stats = cache.warm_stats().unwrap();
    assert!(
        stats.disk_bytes <= 600 + 200,
        "compaction must shrink the log near the budget, got {stats:?}"
    );
    assert!(stats.entries < 7, "the lowest-value entries were dropped");
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a, 64 bits.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn warm_segments_keep_their_bytes() {
    // The rows of two MS1 source queries, a whois point lookup and the cs
    // scan, filed on a virtual clock with no statistics wired, so every
    // field of every record is fixed.
    let dir = tmp_dir("format");
    let cache = AnswerCache::new(CacheOptions {
        clock: Some(Arc::new(VirtualClock::new())),
        ..tiered_opts(&dir)
    });
    let whois = wrappers::scenario::whois_wrapper();
    let cs = wrappers::scenario::cs_wrapper();
    let filed: [(&str, &dyn wrappers::Wrapper, &str, &[&str]); 2] = [
        (
            "whois",
            &whois,
            "<bind_for_whois {<bind_for_R R> <bind_for_Rest1 Rest1>}> :- \
             <person {<name 'Joe Chung'> <dept 'CS'> <relation R> | Rest1}>@whois",
            &["R", "Rest1"],
        ),
        (
            "cs",
            &cs,
            "<bind_for_cs {<bind_for_R R> <bind_for_FN FN> <bind_for_LN LN> \
             <bind_for_Rest2 Rest2>}> :- <R {<first_name FN> <last_name LN> | Rest2}>@cs",
            &["R", "FN", "LN", "Rest2"],
        ),
    ];
    for (source, wrapper, query, vars) in filed {
        let (query, vars) = (q(query), scalars(vars));
        let rows = wrapper.query_rows(&query, &vars).unwrap();
        cache.insert_rows(sym(source), &query, &QueryShape::of(&query), &vars, &rows);
    }
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let bytes: Vec<u8> = segments
        .iter()
        .flat_map(|p| std::fs::read(p).unwrap())
        .collect();
    assert_eq!(format!("{:016x}", fnv1a(&bytes)), "3ec86cfd196fabdc");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- byte-accounting property test -----------------------------------

/// The `bytes_cached` gauge must equal the sum of hot-resident entry
/// sizes after every operation — inserts, replacements, hits with
/// promotion/demotion, scoped and unscoped invalidation, TTL expiry —
/// with and without the warm tier. Deterministic LCG, no dependencies.
#[test]
fn byte_gauge_tracks_resident_entries_exactly() {
    let mut seed: u64 = 0x243F_6A88_85A3_08D3;
    let mut rnd = move |bound: usize| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as usize) % bound
    };
    for tiered in [false, true] {
        let dir = tmp_dir(if tiered { "gauge-tiered" } else { "gauge-mem" });
        let clock = Arc::new(VirtualClock::new());
        let cache = AnswerCache::new(CacheOptions {
            enabled: true,
            capacity: 3,
            ttl_ms: Some(500),
            clock: Some(clock.clone()),
            cache_dir: tiered.then(|| dir.clone()),
            warm_bytes: 4096,
            ..Default::default()
        });
        let queries: Vec<Rule> = (0..8).map(|i| dept_query(&format!("D{i}"))).collect();
        for step in 0..400 {
            let op = rnd(100);
            if op < 50 {
                let i = rnd(8);
                cache.insert(
                    sym("whois"),
                    &queries[i],
                    &extract_n(),
                    &n_answer(1 + rnd(3)),
                );
            } else if op < 80 {
                let _ = lookup_names(&cache, &queries[rnd(8)]);
            } else if op < 88 {
                let i = rnd(8);
                cache.apply_delta(&SourceDelta::keys(
                    sym("whois"),
                    [canonical_key(&queries[i])],
                ));
            } else if op < 94 {
                cache.invalidate_source(sym("whois"));
            } else {
                clock.advance(rnd(700) as u64);
            }
            assert_eq!(
                cache.counters().bytes_cached,
                cache.hot_resident_bytes(),
                "gauge drifted at step {step} (tiered={tiered})"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- pinned probes and the carrier index -----------------------------

/// The whole `person` table as the planner would fetch it: name and year
/// exported as atoms, the rest as a set.
fn people_query() -> Rule {
    q(
        "<bind_for_whois {<bind_for_N N> <bind_for_Y Y> <bind_for_Rest1 {Rest1}>}> :- \
         <person {<name N> <year Y> | Rest1}>@whois",
    )
}

fn scalars(vars: &[&str]) -> Vec<ExtractVar> {
    vars.iter()
        .map(|v| ExtractVar {
            var: sym(v),
            kind: VarKind::Scalar,
        })
        .collect()
}

fn extract_nyr() -> Vec<ExtractVar> {
    scalars(&["N", "Y", "Rest1"])
}

/// Cache `answer` as the answer to [`people_query`].
fn cache_people(cache: &AnswerCache, answer: &ObjectStore) {
    cache.insert(sym("whois"), &people_query(), &extract_nyr(), answer);
}

/// One object per `(name, year, relation)`.
fn people_answer(people: impl IntoIterator<Item = (String, Value, &'static str)>) -> ObjectStore {
    let mut s = ObjectStore::with_oid_prefix("whois_r");
    for (name, year, relation) in people {
        let name_c = s.atom("bind_for_N", name.as_str());
        let year_c = s.insert_auto(sym("bind_for_Y"), year);
        let relation = s.atom("relation", relation);
        let rest_c = s.set("bind_for_Rest1", vec![relation]);
        let top = s.set("bind_for_whois", vec![name_c, year_c, rest_c]);
        s.add_top(top);
    }
    s
}

/// 200 people; every tenth shares the name `Twin`, years cycle through
/// five reals, relations alternate.
fn two_hundred() -> ObjectStore {
    people_answer((0..200).map(|i| {
        let name = if i % 10 == 0 {
            "Twin".to_string()
        } else {
            format!("P{i}")
        };
        let relation = if i % 2 == 0 { "student" } else { "employee" };
        (name, Value::real((i % 5) as f64), relation)
    }))
}

/// A query narrower than [`people_query`]: `name` and `year` are MSL
/// terms (a variable or a constant), `rest` an optional condition block.
fn narrow_people(name: &str, year: &str, rest: &str) -> (Rule, Vec<ExtractVar>) {
    let mut head = String::new();
    let mut vars = Vec::new();
    for term in [name, year] {
        if term == "N" || term == "Y" {
            head.push_str(&format!("<bind_for_{term} {term}> "));
            vars.push(term);
        }
    }
    vars.push("Rest1");
    let query = q(&format!(
        "<bind_for_whois {{{head}<bind_for_Rest1 {{Rest1}}>}}> :- \
         <person {{<name {name}> <year {year}> | Rest1{rest}}}>@whois"
    ));
    (query, scalars(&vars))
}

/// What [`serve`] keeps, extracted.
type Served = Option<Vec<Vec<BoundValue>>>;

/// [`serve`] over the entry made of `answer` for `narrow`, its rows
/// absorbed: scanning every row, and narrowed by the entry's value index
/// to the shortest posting list among the probe's pins (`None` where the
/// entry refuses them). Each absorption gets a fresh memory, so equal rows
/// hold equal object ids.
fn serve_both_ways(
    answer: &ObjectStore,
    narrow: &Rule,
    vars: &[ExtractVar],
) -> (Served, Served, usize) {
    let extract = extract_nyr();
    let m = specialize_match_rule(narrow, &people_query()).expect("contained");
    let cached = CachedAnswer::new(answer.clone(), &extract).expect("every carrier read");
    let rows = |kept: Rows| absorb_all(&kept.store, kept.rows, &mut ObjectStore::new());
    let (mut scan_examined, mut built, mut examined) = (0, 0, 0);
    let scanned = serve(&extract, &cached, None, &m, vars, &mut scan_examined).map(rows);
    assert!(!m.sigma.is_empty(), "the probe pins a variable");
    let index = cached.index(&extract, &mut built);
    let indexed = serve(&extract, &cached, Some(index), &m, vars, &mut examined).map(rows);
    (scanned, indexed, examined)
}

#[test]
fn pinned_probes_return_what_the_scan_returns() {
    let answer = two_hundred();
    // (name, year, rest, rows expected, objects the narrowed call visits)
    let cases = [
        ("'P17'", "Y", "", 1, 1),
        ("'Twin'", "Y", "", 20, 20),
        // An Int pin finds the Real carriers it equals: 40 of 200.
        ("N", "3", "", 40, 40),
        // Two pins: the shorter list (the name's) is visited, the σ
        // filter tests the year on it.
        ("'Twin'", "0", "", 20, 20),
        ("'P17'", "3", "", 0, 1),
        // A pin plus a rest condition.
        ("'Twin'", "Y", ":{<relation 'student'>}", 20, 20),
        ("'P17'", "Y", ":{<relation 'student'>}", 0, 1),
        // A value nobody holds: no rows, and still an answer.
        ("'Nobody'", "Y", "", 0, 0),
    ];
    for (name, year, rest, rows, visited) in cases {
        let (narrow, vars) = narrow_people(name, year, rest);
        let (scanned, indexed, examined) = serve_both_ways(&answer, &narrow, &vars);
        let case = format!("name {name} year {year} rest {rest}");
        assert_eq!(scanned.as_ref().map(Vec::len), Some(rows), "{case}");
        assert_eq!(indexed, scanned, "{case}");
        assert_eq!(examined, visited, "{case}");
    }
}

#[test]
fn integers_sharing_an_index_key_are_told_apart() {
    // 2^53 and 2^53 + 1 have the same f64 view, hence the same key.
    let (a, b) = (9_007_199_254_740_992_i64, 9_007_199_254_740_993_i64);
    assert_eq!(
        engine::matcher::atomic_key(&Value::Int(a)),
        engine::matcher::atomic_key(&Value::Int(b))
    );
    let answer = people_answer([
        ("A".to_string(), Value::Int(a), "student"),
        ("B".to_string(), Value::Int(b), "student"),
    ]);
    let (narrow, vars) = narrow_people("N", &b.to_string(), "");
    let (scanned, indexed, examined) = serve_both_ways(&answer, &narrow, &vars);
    let rows = indexed.expect("served");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], BoundValue::Atom(Value::str("B")));
    assert_eq!(Some(rows), scanned);
    assert_eq!(examined, 2, "both share the key; atomic_eq keeps one");
}

#[test]
fn non_atomic_pinned_column_refuses_the_probe() {
    let mut answer = two_hundred();
    let kid = answer.atom("alias", "Zed");
    let name_c = answer.set("bind_for_N", vec![kid]);
    let year_c = answer.insert_auto(sym("bind_for_Y"), Value::real(9.0));
    let rest_c = answer.set("bind_for_Rest1", vec![]);
    let top = answer.set("bind_for_whois", vec![name_c, year_c, rest_c]);
    answer.add_top(top);

    // P17 itself is a well-formed row; the entry still refuses, because
    // it cannot tell what the odd row's name is.
    let (narrow, vars) = narrow_people("'P17'", "Y", "");
    let (scanned, indexed, _) = serve_both_ways(&answer, &narrow, &vars);
    assert!(scanned.is_none() && indexed.is_none());
    let cache = AnswerCache::new(CacheOptions::enabled());
    cache_people(&cache, &answer);
    let mut memory = ObjectStore::new();
    for _ in 0..2 {
        assert!(cache
            .probe(sym("whois"), &narrow, &vars, &mut memory)
            .is_none());
    }
    assert_eq!(cache.counters().misses, 2);
    assert_eq!(memory.len(), 0, "a refused probe copies nothing");
    // The year column is all atoms, so a probe pinning only it is served.
    let (by_year, vars) = narrow_people("N", "1", "");
    assert!(cache
        .probe(sym("whois"), &by_year, &vars, &mut memory)
        .is_some());
}

#[test]
fn an_answer_the_carrier_reader_rejects_is_never_cached() {
    // One object lacks the name carrier: no row can be read for it.
    let mut without = two_hundred();
    let year_c = without.insert_auto(sym("bind_for_Y"), Value::real(9.0));
    let rest_c = without.set("bind_for_Rest1", vec![]);
    let top = without.set("bind_for_whois", vec![year_c, rest_c]);
    without.add_top(top);
    let cache = AnswerCache::new(CacheOptions::enabled());
    cache_people(&cache, &without);
    assert_eq!(cache.entry_count(sym("whois")), 0);
    assert_eq!(cache.counters().bytes_cached, 0);
    let (by_year, vars) = narrow_people("N", "1", "");
    assert!(cache
        .probe(sym("whois"), &by_year, &vars, &mut ObjectStore::new())
        .is_none());
}

/// The `Y` and rest-relation a pinned lookup of `name` returns, per row.
fn lookup_person(cache: &AnswerCache, name: &str) -> Option<Vec<(Value, String)>> {
    let (narrow, vars) = narrow_people(&format!("'{name}'"), "Y", "");
    let mut memory = ObjectStore::new();
    let (rows, kind) = cache.probe(sym("whois"), &narrow, &vars, &mut memory)?;
    assert_eq!(kind, CacheHit::Containment);
    Some(
        rows.into_iter()
            .map(|row| {
                let (BoundValue::Atom(year), BoundValue::ObjSet(rest)) = (&row[0], &row[1]) else {
                    panic!("unexpected row shape {row:?}");
                };
                (year.clone(), oem::printer::compact(&memory, rest[0]))
            })
            .collect(),
    )
}

#[test]
fn a_pinned_probe_costs_what_it_returns() {
    // The same probes over an entry of 250 and of 500 objects: the first
    // builds the index over every object, each later one examines what it
    // returns, whatever the entry holds. The unindexed scan examined
    // size x size.
    let mut per_probe = Vec::new();
    for size in [250, 500] {
        let cache = AnswerCache::new(CacheOptions::enabled());
        let answer = people_answer(
            (0..size).map(|i| (format!("P{i}"), Value::real((i % 7) as f64), "student")),
        );
        cache_people(&cache, &answer);
        let probe = |i: usize| {
            let rows = lookup_person(&cache, &format!("P{i}")).expect("served");
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].0, Value::real((i % 7) as f64));
        };
        probe(size - 1);
        let built = cache.counters().objects_examined;
        assert!(
            (size..=size + 1).contains(&built),
            "the first pinned probe indexes the entry: examined {built}"
        );
        for i in 0..size - 1 {
            probe(i);
        }
        let c = cache.counters();
        assert_eq!((c.containment_hits, c.misses), (size, 0));
        assert!(
            c.objects_examined <= size + 2 * size,
            "examined {}",
            c.objects_examined
        );
        per_probe.push((c.objects_examined - built) as f64 / (size - 1) as f64);
    }
    assert_eq!(per_probe[0], per_probe[1], "{per_probe:?}");
    assert!(per_probe[0] <= 2.0, "{per_probe:?}");
}

/// Ten people, all born in `year`, with `relation`.
fn ten_people(year: f64, relation: &'static str) -> ObjectStore {
    people_answer((0..10).map(|i| (format!("P{i}"), Value::real(year), relation)))
}

fn student(year: f64) -> Vec<(Value, String)> {
    vec![(Value::real(year), "<relation 'student'>".to_string())]
}

#[test]
fn the_index_never_outlives_the_answer_it_was_built_over() {
    // Replacement under the same canonical key.
    let cache = AnswerCache::new(CacheOptions::enabled());
    cache_people(&cache, &ten_people(1.0, "student"));
    assert_eq!(lookup_person(&cache, "P3"), Some(student(1.0)));
    // The new answer holds P3 elsewhere (P0..P2 are gone) and changed.
    let moved = people_answer(
        (3..10)
            .rev()
            .map(|i| (format!("P{i}"), Value::real(2.0), "student")),
    );
    cache_people(&cache, &moved);
    assert_eq!(lookup_person(&cache, "P3"), Some(student(2.0)));
    assert_eq!(lookup_person(&cache, "P0"), Some(vec![]));

    // A delta whose footprint matches drops entry and index together.
    assert_eq!(
        cache.apply_delta(&SourceDelta::labels(sym("whois"), [sym("year")])),
        1
    );
    assert_eq!(lookup_person(&cache, "P3"), None);
    cache_people(&cache, &ten_people(3.0, "student"));
    assert_eq!(lookup_person(&cache, "P3"), Some(student(3.0)));

    // TTL expiry on the virtual clock.
    let clock = Arc::new(VirtualClock::new());
    let cache = AnswerCache::new(CacheOptions {
        enabled: true,
        ttl_ms: Some(100),
        clock: Some(clock.clone()),
        ..Default::default()
    });
    cache_people(&cache, &ten_people(4.0, "student"));
    assert_eq!(lookup_person(&cache, "P3"), Some(student(4.0)));
    clock.advance(101);
    assert_eq!(lookup_person(&cache, "P3"), None);
    cache_people(&cache, &moved);
    assert_eq!(lookup_person(&cache, "P3"), Some(student(2.0)));
}

#[test]
fn a_promoted_entry_is_indexed_on_its_next_pinned_probe() {
    let dir = tmp_dir("pin-promote");
    let cache = AnswerCache::new(CacheOptions {
        capacity: 1,
        ..tiered_opts(&dir)
    });
    cache_people(&cache, &ten_people(5.0, "student"));
    assert_eq!(lookup_person(&cache, "P3"), Some(student(5.0)));
    // Another entry takes the only hot slot: the table demotes, and the
    // index built a line ago goes with the resident copy.
    let small = dept_query("EE");
    cache.insert(sym("whois"), &small, &extract_n(), &n_answer(1));
    assert_eq!(cache.counters().demotions, 1);
    // (A small answer outscores a large one; drop it so the table can
    // come back and stay.)
    cache.apply_delta(&SourceDelta::keys(sym("whois"), [canonical_key(&small)]));
    let examined = |cache: &AnswerCache| cache.counters().objects_examined;
    // Served off disk: re-read and scanned, all ten objects.
    let before = examined(&cache);
    assert_eq!(lookup_person(&cache, "P4"), Some(student(5.0)));
    let c = cache.counters();
    assert_eq!((c.warm_hits, c.promotions), (1, 1));
    assert_eq!(examined(&cache) - before, 10);
    // Hot again: this probe builds the index (ten) and visits one...
    let before = examined(&cache);
    assert_eq!(lookup_person(&cache, "P5"), Some(student(5.0)));
    assert_eq!(examined(&cache) - before, 10 + 1);
    // ...and the next visits one.
    let before = examined(&cache);
    assert_eq!(lookup_person(&cache, "P6"), Some(student(5.0)));
    assert_eq!(examined(&cache) - before, 1);
    assert_eq!(cache.counters().warm_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
