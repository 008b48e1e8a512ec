//! Breadth coverage of public API corners that the scenario-driven tests
//! don't reach: renderers, stats accessors, GC, JSON round-trips through
//! the umbrella crate, and cross-crate type conversions.

use oem::{ObjectBuilder, ObjectStore, OemType, Value};

#[test]
fn oem_object_line_forms() {
    let mut s = ObjectStore::new();
    let n = ObjectBuilder::atom_obj("name", "Joe")
        .oid("&n1")
        .build(&mut s);
    let p = ObjectBuilder::set("person")
        .oid("&p1")
        .child_ref(n)
        .build(&mut s);
    assert_eq!(
        oem::printer::object_line(&s, n),
        "<&n1, name, string, 'Joe'>"
    );
    assert_eq!(
        oem::printer::object_line(&s, p),
        "<&p1, person, set, {&n1}>"
    );
}

#[test]
fn oem_types_and_values_cohere() {
    for (v, t) in [
        (Value::str("x"), OemType::Str),
        (Value::Int(1), OemType::Int),
        (Value::real(0.5), OemType::Real),
        (Value::Bool(true), OemType::Bool),
        (Value::empty_set(), OemType::Set),
    ] {
        assert_eq!(v.oem_type(), t);
        assert_eq!(OemType::from_keyword(t.keyword()), Some(t));
    }
}

#[test]
fn gc_composes_with_query_results() {
    // Query results hold only constructed objects; gc is a no-op on them.
    let med = medmaker::Mediator::new(
        "med",
        wrappers::scenario::MS1,
        vec![
            std::sync::Arc::new(wrappers::scenario::whois_wrapper()),
            std::sync::Arc::new(wrappers::scenario::cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let res = med.query_text("P :- P:<cs_person {}>@med").unwrap();
    let compacted = oem::path::gc(&res);
    assert_eq!(compacted.top_level().len(), res.top_level().len());
    for (&a, &b) in res.top_level().iter().zip(compacted.top_level()) {
        assert!(oem::eq::struct_eq_cross(&res, a, &compacted, b));
    }
}

#[test]
fn json_roundtrip_of_query_results() {
    let med = medmaker::Mediator::new(
        "med",
        wrappers::scenario::MS1,
        vec![
            std::sync::Arc::new(wrappers::scenario::whois_wrapper()),
            std::sync::Arc::new(wrappers::scenario::cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let res = med
        .query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        .unwrap();
    let exported = oem::json::export(&res);
    let imported = oem::json::import(&exported).unwrap();
    assert!(oem::eq::struct_eq_cross(
        &res,
        res.top_level()[0],
        &imported,
        imported.top_level()[0],
    ));
}

#[test]
fn minidb_public_surface() {
    use minidb::{CmpOp, ColType, Condition, Predicate, Schema, Table, TableStats};
    let mut t =
        Table::new(Schema::new("s", &[("name", ColType::Str), ("year", ColType::Int)]).unwrap());
    t.insert_all([vec!["a".into(), 1.into()], vec!["b".into(), 2.into()]])
        .unwrap();
    let stats = TableStats::compute(&t);
    assert_eq!(stats.row_count, 2);
    let pred = Predicate::of(vec![Condition::cmp("year", CmpOp::Ge, 2)]);
    assert_eq!(pred.to_string(), "year >= 2");
    let rows = minidb::select_project(&t, &pred, Some(&["name"])).unwrap();
    assert_eq!(rows, vec![vec![minidb::Datum::str("b")]]);
}

#[test]
fn wrapper_stats_surface() {
    use wrappers::Wrapper;
    let cs = wrappers::scenario::cs_wrapper();
    let stats = cs.stats().unwrap();
    assert_eq!(stats.top_level_count, 2);
    assert!(stats.selectivity(oem::sym("last_name")) <= 1.0);
    assert!(cs.capabilities().parameterized_cheap);
    assert!(cs.capabilities().parameterized_sets);
    let whois = wrappers::scenario::whois_wrapper();
    assert!(!whois.capabilities().parameterized_cheap);
    assert!(whois.capabilities().parameterized_sets);
    // A form takes one value per field; so does a mediator used as a source.
    assert!(!wrappers::Capabilities::restricted().parameterized_sets);
    let caps = wrappers::Capabilities::full().without_parameterized_sets();
    assert!(!caps.parameterized_sets && caps.parameterized);
}

#[test]
fn engine_bindings_display_and_projection() {
    use engine::bindings::{Bindings, BoundValue};
    let b = Bindings::new()
        .bind(oem::sym("N"), BoundValue::Atom(Value::str("x")))
        .unwrap();
    assert!(format!("{b}").contains("N -> 'x'"));
    assert_eq!(b.project(&[]).len(), 0);
    assert_eq!(b.variables(), vec![oem::sym("N")]);
}

#[test]
fn msl_display_chain() {
    let spec = msl::parse_spec("<v {<n N>}> :- <p {<n N>}>@s\nd(bound, free) by f").unwrap();
    let text = spec.to_string();
    assert!(text.contains(":-"));
    assert!(text.contains("d(bound, free) by f"));
    // Round-trips.
    assert_eq!(msl::parse_spec(&text).unwrap(), spec);
}

#[test]
fn lorel_error_displays() {
    let e = lorel::to_msl("select", "m").unwrap_err();
    assert!(e.to_string().contains("LOREL"));
    let e = lorel::to_msl("select Z.x from p P", "m").unwrap_err();
    assert!(matches!(e, lorel::LorelError::Compile(_)));
}

#[test]
fn mediator_explain_without_run() {
    let med = medmaker::Mediator::new(
        "med",
        wrappers::scenario::MS1,
        vec![
            std::sync::Arc::new(wrappers::scenario::whois_wrapper()),
            std::sync::Arc::new(wrappers::scenario::cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let text = med
        .explain_text("P :- P:<cs_person {}>@med", false)
        .unwrap();
    assert!(text.contains("Logical datamerge program"));
    assert!(text.contains("Datamerge graph"));
    assert!(!text.contains("=== result objects ==="));
}

#[test]
fn symbol_interning_stable_across_crates() {
    // The same string interned from different crate contexts is one symbol.
    let a = oem::sym("cross_crate_symbol");
    let b = oem::Symbol::intern("cross_crate_symbol");
    assert_eq!(a, b);
    assert_eq!(a.index(), b.index());
}

#[test]
fn benchmark_struct_literals_still_build() {
    // crates/bench/src/bin/perf (frozen between `benchmark` PRs, and built
    // as its own package outside this workspace) drives the mediator stage
    // by stage and builds `PlanContext` and `ExecOptions` by full struct
    // literal — no `..Default::default()`. Adding, renaming or removing a
    // field of either breaks it; this case breaks first, inside tier-1.
    use medmaker::exec::{execute, ExecOptions};
    use medmaker::planner::{plan, PlanContext};
    use std::sync::Arc;
    let sources: Vec<Arc<dyn wrappers::Wrapper>> = vec![
        Arc::new(wrappers::scenario::whois_wrapper()),
        Arc::new(wrappers::scenario::cs_wrapper()),
    ];
    let registry = medmaker::externals::standard_registry();
    let med =
        medmaker::Mediator::new("med", wrappers::scenario::MS1, sources.clone(), registry).unwrap();
    let options = medmaker::MediatorOptions::default();
    let sources: std::collections::HashMap<_, _> =
        sources.into_iter().map(|w| (w.name(), w)).collect();
    let registry = medmaker::externals::standard_registry();
    let stats = medmaker::stats::SharedStats::new(med.stats_snapshot());
    let rule = msl::parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap();
    let program = med.expand(&rule).unwrap();
    let physical = {
        let stats = stats.read();
        plan(
            &program,
            &PlanContext {
                sources: &sources,
                registry: &registry,
                stats: &stats,
                options: &options.planner,
                analysis: med.analysis(),
            },
        )
        .unwrap()
    };
    let exec_options = ExecOptions {
        trace: options.trace,
        parallel: options.parallel,
        fault: options.fault.clone(),
        cache: None,
        streaming: options.streaming,
        batch_size: options.batch_size,
        param_memo: None,
    };
    let outcome = execute(&physical, &sources, &registry, &exec_options).unwrap();
    stats.record_trace(&outcome.trace);
    assert_eq!(outcome.results.top_level().len(), 1);
}
