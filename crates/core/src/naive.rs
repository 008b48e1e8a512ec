//! A direct (non-optimized) rule evaluator, and the differential oracle
//! for the datamerge engine.
//!
//! It shares no operator, fetch or extraction code with [`crate::exec`]:
//! whatever the planner and the pipeline do to a logical datamerge program,
//! [`eval_program`] over the same rules must produce the same objects
//! (`tests/streaming_equivalence.rs`, `tests/equivalence.rs`). The
//! recursion module also uses it — fixpoint iteration re-evaluates rules
//! against a changing materialized view, where plan caching buys nothing.
//!
//! Strategy per rule: evaluate tail items left to right. A `Match` item
//! against a wrapper fetches the matching objects (with already-bound
//! atomic variables substituted — a poor man's pushdown), copies them into
//! a local evaluation store, and re-matches locally to extend bindings.
//! External predicates evaluate through the registry.

use crate::error::{MedError, Result};
use crate::externals::ExternalRegistry;
use engine::bindings::{dedup_bindings, Bindings};
use engine::construct::Constructor;
use engine::matcher::match_top_level;
use engine::subst::{bindings_to_subst, subst};
use msl::{Head, Pattern, Rule, TailItem};
use oem::{copy, eq::dedup_structural, ObjectStore, Symbol};
use std::collections::HashMap;
use std::sync::Arc;
use wrappers::Wrapper;

/// Where a tail item's objects come from: a wrapper, or a materialized
/// store (the view under fixpoint construction).
pub enum SourceRef<'a> {
    /// A live source wrapper.
    Wrapper(&'a Arc<dyn Wrapper>),
    /// An already-materialized store.
    Store(&'a ObjectStore),
}

/// Resolve tail sources by name.
pub type Resolver<'a> = dyn Fn(Symbol) -> Option<SourceRef<'a>> + 'a;

/// Evaluate one rule, constructing its head objects into `results`.
/// Returns the number of bindings that survived duplicate elimination.
pub fn eval_rule(
    rule: &Rule,
    resolve: &Resolver<'_>,
    registry: &ExternalRegistry,
    results: &mut ObjectStore,
) -> Result<usize> {
    let mut eval_store = ObjectStore::with_oid_prefix("n");
    let surviving = rule_bindings(rule, resolve, registry, &mut eval_store)?;
    let mut ctor = Constructor::new(&eval_store);
    for b in &surviving {
        ctor.construct_head(&rule.head, b, results)?;
    }
    Ok(surviving.len())
}

/// Evaluate a whole logical datamerge program (`Mediator::expand`'s
/// rules) to its answer: one evaluation store and one [`Constructor`]
/// across all rules, so semantic oids fuse across rules exactly as §2
/// prescribes, then structural duplicate elimination over the result.
pub fn eval_program(
    rules: &[Rule],
    resolve: &Resolver<'_>,
    registry: &ExternalRegistry,
) -> Result<ObjectStore> {
    let mut eval_store = ObjectStore::with_oid_prefix("n");
    let per_rule: Vec<Vec<Bindings>> = rules
        .iter()
        .map(|rule| rule_bindings(rule, resolve, registry, &mut eval_store))
        .collect::<Result<_>>()?;
    let mut results = ObjectStore::with_oid_prefix("cp");
    let mut ctor = Constructor::new(&eval_store);
    for (rule, bindings) in rules.iter().zip(&per_rule) {
        for b in bindings {
            ctor.construct_head(&rule.head, b, &mut results)?;
        }
    }
    let unique = dedup_structural(&results, results.top_level());
    results.set_top_level(unique);
    Ok(results)
}

/// Evaluate a rule's tail left to right and return the head-variable
/// bindings that survive projection and duplicate elimination. Wrapper
/// fetches land in `eval_store`, which is what construction must read;
/// bindings matched against a [`SourceRef::Store`] reference that store's
/// ids instead, so store-backed sources go through [`eval_rule_with_view`].
fn rule_bindings(
    rule: &Rule,
    resolve: &Resolver<'_>,
    registry: &ExternalRegistry,
    eval_store: &mut ObjectStore,
) -> Result<Vec<Bindings>> {
    let mut states = vec![Bindings::new()];

    for item in &rule.tail {
        let mut next = Vec::new();
        match item {
            TailItem::Match { pattern, source } => {
                let Some(src) = source else {
                    return Err(MedError::Planning(
                        "naive evaluation requires annotated sources".into(),
                    ));
                };
                let Some(sref) = resolve(*src) else {
                    return Err(MedError::UnknownSource(src.as_str()));
                };
                for b in &states {
                    let bound = subst(pattern, &bindings_to_subst(b));
                    match &sref {
                        SourceRef::Store(store) => {
                            for nb in match_top_level(store, &bound, &Bindings::new()) {
                                // Rebind against the *original* pattern so
                                // variables already bound in `b` merge.
                                if let Some(merged) = b.merge(&nb) {
                                    next.push(merged);
                                }
                            }
                        }
                        SourceRef::Wrapper(w) => {
                            let fetched = fetch_matching(w, &bound, eval_store)?;
                            for root in fetched {
                                for nb in engine::matcher::match_pattern(
                                    eval_store,
                                    root,
                                    &bound,
                                    &Bindings::new(),
                                ) {
                                    if let Some(merged) = b.merge(&nb) {
                                        next.push(merged);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            TailItem::External { name, args } => {
                for b in &states {
                    next.extend(registry.evaluate(*name, args, b)?);
                }
            }
        }
        states = next;
        if states.is_empty() {
            return Ok(Vec::new());
        }
    }

    // Project + dedup per MSL semantics.
    let mut head_vars = Vec::new();
    rule.head.collect_vars(&mut head_vars);
    Ok(dedup_bindings(
        states.iter().map(|b| b.project(&head_vars)).collect(),
    ))
}

/// Fetch objects matching `pattern` from a wrapper into `eval_store`,
/// returning the copied roots.
fn fetch_matching(
    wrapper: &Arc<dyn Wrapper>,
    pattern: &Pattern,
    eval_store: &mut ObjectStore,
) -> Result<Vec<oem::ObjId>> {
    // Ask for whole matching objects via a fresh object variable.
    let hv = Symbol::intern("Fetch_H");
    let mut p = pattern.clone();
    p.obj_var = Some(hv);
    let q = Rule {
        head: Head::Var(hv),
        tail: vec![TailItem::Match {
            pattern: p,
            source: Some(wrapper.name()),
        }],
    };
    let result = wrapper.query(&q)?;
    Ok(copy::deep_copy_all(&result, result.top_level(), eval_store))
}

/// Evaluate `rule` with the *view* under fixpoint construction exposed as
/// one more source, copied into the eval store so every binding references
/// one arena. It is the entry point the recursion module uses.
pub fn eval_rule_with_view(
    rule: &Rule,
    wrappers: &HashMap<Symbol, Arc<dyn Wrapper>>,
    view_name: Symbol,
    view: &ObjectStore,
    registry: &ExternalRegistry,
    results: &mut ObjectStore,
) -> Result<usize> {
    // Expose the current materialization as one more wrapper: matched view
    // objects then flow through the same copy-into-eval-store path as any
    // other source, so every binding references one arena.
    let mut snapshot = ObjectStore::with_oid_prefix("v");
    copy::copy_top_level(view, &mut snapshot);
    let view_wrapper: Arc<dyn Wrapper> = Arc::new(wrappers::SemiStructuredWrapper::new(
        &view_name.as_str(),
        snapshot,
    ));
    let mut all: HashMap<Symbol, Arc<dyn Wrapper>> = wrappers.clone();
    all.insert(view_name, view_wrapper);
    let resolve =
        |name: Symbol| -> Option<SourceRef<'_>> { all.get(&name).map(SourceRef::Wrapper) };
    eval_rule(rule, &resolve, registry, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::externals::standard_registry;
    use msl::parse_rule;
    use oem::printer::compact;
    use oem::sym;
    use wrappers::scenario::{cs_wrapper, whois_wrapper};

    fn wrappers_map() -> HashMap<Symbol, Arc<dyn Wrapper>> {
        let mut m: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        m.insert(sym("whois"), Arc::new(whois_wrapper()));
        m.insert(sym("cs"), Arc::new(cs_wrapper()));
        m
    }

    #[test]
    fn naive_evaluates_ms1_rule() {
        let rule = parse_rule(
            "<cs_person {<name N> <rel R> Rest1 Rest2}> :- \
             <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois \
             AND <R {<first_name FN> <last_name LN> | Rest2}>@cs \
             AND decomp(N, LN, FN)",
        )
        .unwrap();
        let wrappers = wrappers_map();
        let registry = standard_registry();
        let resolve = |name: Symbol| wrappers.get(&name).map(SourceRef::Wrapper);
        let mut results = ObjectStore::with_oid_prefix("cp");
        let n = eval_rule(&rule, &resolve, &registry, &mut results).unwrap();
        assert_eq!(n, 2); // Joe and Nick both appear in both sources
        let printed: Vec<String> = results
            .top_level()
            .iter()
            .map(|&t| compact(&results, t))
            .collect();
        assert!(printed.iter().any(|p| p.contains("'Joe Chung'")
            && p.contains("<title 'professor'>")
            && p.contains("<e_mail 'chung@cs'>")));
        assert!(printed
            .iter()
            .any(|p| p.contains("'Nick Naive'") && p.contains("<year 3>")));
    }

    #[test]
    fn eval_rule_with_view_reads_materialized_store() {
        // A rule over the view itself (one recursion step).
        let mut view = ObjectStore::new();
        oem::ObjectBuilder::set("anc")
            .atom("of", "a")
            .atom("is", "b")
            .build_top(&mut view);

        let rule = parse_rule("<grand {<of X> <is Y>}> :- <anc {<of X> <is Y>}>@m").unwrap();
        let wrappers = wrappers_map();
        let registry = standard_registry();
        let mut results = ObjectStore::new();
        let n = eval_rule_with_view(&rule, &wrappers, sym("m"), &view, &registry, &mut results)
            .unwrap();
        assert_eq!(n, 1);
        assert!(compact(&results, results.top_level()[0]).contains("<of 'a'>"));
    }
}
