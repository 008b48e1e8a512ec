//! The mediator runtime — the full MSI pipeline behind one `query()` call
//! (Figure 2.5).
//!
//! A [`Mediator`] also implements [`wrappers::Wrapper`], so mediators can
//! serve as sources of other mediators — stacking exactly as in the
//! TSIMMIS architecture of Figure 1.1.

use crate::analysis::{analyze_spec, SourceInfo, SpecAnalysis};
use crate::cache::{AnswerCache, CacheCounters, CacheOptions, SourceDelta};
use crate::error::{MedError, Result};
use crate::exec::{execute, ExecOptions, ExecOutcome};
use crate::externals::ExternalRegistry;
use crate::graph::PhysicalPlan;
use crate::logical::LogicalProgram;
use crate::planner::{plan, PlanContext, PlannerOptions};
use crate::recursion::materialize_fixpoint;
use crate::spec::MediatorSpec;
use crate::stats::{SharedStats, StatsCache};
use crate::veao::expand;
use engine::unify::UnifyMode;
use msl::Rule;
use oem::{ObjectStore, Symbol};
use std::collections::HashMap;
use std::sync::Arc;
use wrappers::{Capabilities, SourceStats, Wrapper, WrapperError};

/// Mediator-level options. None of them changes how a specification is
/// checked: [`Mediator::new`] always runs every static pass.
#[derive(Clone, Debug)]
pub struct MediatorOptions {
    /// Options forwarded to the cost-based optimizer.
    pub planner: PlannerOptions,
    /// Unifier enumeration mode. `Exhaustive` (default) is complete;
    /// `Minimal` reproduces the paper's worked expansions.
    pub unify_mode: UnifyMode,
    /// Record per-node execution traces (explain): the binding tables,
    /// each node's detail and the trace's query text. Off, a query
    /// renders none of that text.
    pub trace: bool,
    /// Execute independent rule chains on separate threads.
    pub parallel: bool,
    /// Learn statistics from observed query results (§3.5).
    pub learn_stats: bool,
    /// Fault policy applied to every source call: retries, deadlines,
    /// circuit breaking, and Fail/Partial degradation.
    pub fault: crate::retry::FaultOptions,
    /// Source-answer cache configuration. Disabled by default: without
    /// `--cache` every query pays its round-trips, exactly as before the
    /// cache existed.
    pub cache: CacheOptions,
    /// Forwarded to [`ExecOptions::streaming`]: `false` is equivalent to
    /// `batch_size = usize::MAX`. The default is `true`; the field goes
    /// with the next `benchmark` PR that stops naming it.
    pub streaming: bool,
    /// Rows per batch flowing between operators
    /// ([`ExecOptions::batch_size`]).
    pub batch_size: usize,
}

/// Per-query resource limits, applied on top of a mediator's standing
/// [`MediatorOptions`] by [`Mediator::query_rule_with`]. `None` fields
/// inherit the mediator's configuration. The serving layer uses these to
/// cap what any single request may cost a shared mediator; see
/// DESIGN.md §10. Equal limits and an equal query shape
/// ([`crate::cache::QueryShape`]) are what lets the server coalesce two
/// in-flight requests into one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct QueryLimits {
    /// Per-source-call deadline in milliseconds, mapped onto
    /// [`crate::retry::FaultOptions::source_deadline_ms`] for this query
    /// only. When the mediator already has a standing deadline, the
    /// tighter of the two applies. This bounds each source round-trip,
    /// not the whole query: a query of `k` source calls can take up to
    /// `k × deadline_ms` before its slowest call trips.
    pub deadline_ms: Option<u64>,
    /// Cap on top-level answer objects returned to the client. Enforced
    /// where answers are rendered (the server truncates the printed
    /// answer and marks it truncated) — execution itself is not cut
    /// short, so a capped answer is a prefix of the full one. Carried
    /// here so the cap participates in coalescing identity.
    pub max_rows: Option<usize>,
    /// Rows per batch for this query only ([`ExecOptions::batch_size`]);
    /// bounds the query's peak resident rows per operator.
    pub batch_size: Option<usize>,
}

impl Default for MediatorOptions {
    fn default() -> MediatorOptions {
        MediatorOptions {
            planner: PlannerOptions::default(),
            unify_mode: UnifyMode::Exhaustive,
            trace: false,
            parallel: false,
            learn_stats: true,
            fault: crate::retry::FaultOptions::default(),
            cache: CacheOptions::default(),
            streaming: true,
            batch_size: ExecOptions::default().batch_size,
        }
    }
}

/// A declaratively-specified mediator.
///
/// ```
/// use medmaker::Mediator;
/// use std::sync::Arc;
/// use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
///
/// let med = Mediator::new(
///     "med",
///     MS1,
///     vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
///     medmaker::externals::standard_registry(),
/// ).unwrap();
/// let results = med
///     .query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
///     .unwrap();
/// assert_eq!(results.top_level().len(), 1);
/// ```
pub struct Mediator {
    spec: MediatorSpec,
    sources: HashMap<Symbol, Arc<dyn Wrapper>>,
    registry: ExternalRegistry,
    options: MediatorOptions,
    stats: Arc<SharedStats>,
    caps: Capabilities,
    lint_warnings: Vec<msl::Diagnostic>,
    /// Whole-spec analysis result ([`crate::analysis`]), computed at
    /// construction. The planner consults it to prune provably-empty
    /// chains.
    analysis: SpecAnalysis,
    /// The source-answer cache: the one place a source answer outlives
    /// the execution that fetched it. Rebuilt by
    /// [`Mediator::with_options`] so a reconfigured cache starts cold.
    cache: Arc<AnswerCache>,
}

impl Mediator {
    /// Build a mediator from a specification text, sources and an external
    /// function registry.
    pub fn new(
        name: &str,
        spec_text: &str,
        sources: Vec<Arc<dyn Wrapper>>,
        registry: ExternalRegistry,
    ) -> Result<Mediator> {
        Mediator::new_with_options(
            name,
            spec_text,
            sources,
            registry,
            MediatorOptions::default(),
        )
    }

    /// Like [`Mediator::new`], but with an explicit option set.
    pub fn new_with_options(
        name: &str,
        spec_text: &str,
        sources: Vec<Arc<dyn Wrapper>>,
        registry: ExternalRegistry,
        options: MediatorOptions,
    ) -> Result<Mediator> {
        let (parsed, spans) = msl::parse_spec_spanned(spec_text)?;
        let spec = MediatorSpec {
            name: Symbol::intern(name),
            spec: parsed,
        };
        spec.check_registry(&registry)?;
        let mut map = HashMap::new();
        for s in sources {
            map.insert(s.name(), s);
        }
        // Every referenced source must be present, except the mediator
        // itself (recursive specifications).
        for s in spec.sources() {
            if s != spec.name && !map.contains_key(&s) {
                return Err(MedError::UnknownSource(s.as_str()));
            }
        }
        // Every static pass (§3.4, §3.5), once over the one parse. An
        // error-level finding means some rule can never be answered: the
        // specification is rejected with every error. Warnings are kept
        // for [`Mediator::lint_warnings`].
        let infos = map
            .iter()
            .map(|(n, w)| (*n, SourceInfo::of_wrapper(w.as_ref())))
            .collect();
        let (analysis, diags) = analyze_spec(&spec.spec, &spans, spec.name, &infos);
        if diags.iter().any(|d| d.is_error()) {
            let errors = diags.into_iter().filter(|d| d.is_error());
            return Err(MedError::Lint(errors.collect()));
        }
        // Seed the statistics cache with whatever the wrappers offer.
        let mut stats = StatsCache::new();
        for (name, w) in &map {
            if let Some(s) = w.stats() {
                stats.provide(*name, s);
            }
        }
        // What this mediator supports as a *source*: full MSL matching on
        // virtual objects except wildcards (any-depth search cannot be
        // pushed through view expansion soundly — see veao docs), one
        // value per parameter (`one_of` is not a predicate a specification
        // declares, so the view expander would refuse it).
        let mut caps = Capabilities::full().without_parameterized_sets();
        caps.wildcards = false;
        let stats = Arc::new(SharedStats::new(stats));
        let cache = Arc::new(AnswerCache::with_stats(
            options.cache.clone(),
            Some(Arc::clone(&stats)),
        ));
        Ok(Mediator {
            spec,
            sources: map,
            registry,
            options,
            stats,
            caps,
            lint_warnings: diags,
            analysis,
            cache,
        })
    }

    /// Warning-level speclint findings recorded while building the
    /// mediator (capability compensations, redundant rules, unused
    /// variables, ...). Error-level findings reject construction with
    /// [`MedError::Lint`].
    pub fn lint_warnings(&self) -> &[msl::Diagnostic] {
        &self.lint_warnings
    }

    /// Replace the option set. The answer cache is rebuilt from the new
    /// [`MediatorOptions::cache`] configuration, starting cold.
    pub fn with_options(mut self, options: MediatorOptions) -> Mediator {
        self.cache = Arc::new(AnswerCache::with_stats(
            options.cache.clone(),
            Some(Arc::clone(&self.stats)),
        ));
        self.options = options;
        self
    }

    /// The whole-spec analysis result. Always `Some`: every mediator is
    /// analyzed at construction. (An `Option` because
    /// [`PlanContext::analysis`] is one.)
    pub fn analysis(&self) -> Option<&SpecAnalysis> {
        Some(&self.analysis)
    }

    /// Drop every cached source answer for `source` — the explicit
    /// invalidation hook for when a source is known to have changed.
    /// Clears the answer cache's hot and warm tiers, so the next query
    /// pays fresh round-trips to that source. Returns the number of
    /// distinct cached answers dropped.
    pub fn invalidate_source(&self, source: Symbol) -> usize {
        self.cache.invalidate_source(source)
    }

    /// Apply a scoped change report from a wrapper: only cache entries
    /// whose query could have observed the changed objects are dropped
    /// (see [`SourceDelta`] for the matching rules; an unscoped delta is
    /// whole-source invalidation). Returns the number of distinct cached
    /// answers dropped.
    pub fn apply_delta(&self, delta: &SourceDelta) -> usize {
        self.cache.apply_delta(delta)
    }

    /// Snapshot of the answer cache's lifetime counters (hits, misses,
    /// evictions, bytes). All zeros while the cache is disabled.
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// The cache handle handed to the executor: `Some` only when caching
    /// is enabled, so a disabled cache stays entirely off the query path.
    fn exec_cache(&self) -> Option<Arc<AnswerCache>> {
        if self.options.cache.enabled {
            Some(Arc::clone(&self.cache))
        } else {
            None
        }
    }

    /// Lifetime count of statistics observations folded into the learned
    /// EWMA tables (§3.5), across every query this mediator has served.
    /// One executed query can contribute several per-source
    /// observations; cache hits contribute none. Serves `/metrics`.
    pub fn stats_observations(&self) -> u64 {
        self.stats.observations()
    }

    /// The mediator's specification.
    pub fn spec(&self) -> &MediatorSpec {
        &self.spec
    }

    /// Run an MSL query (text form) through the full pipeline.
    pub fn query_text(&self, text: &str) -> Result<ObjectStore> {
        let rule = msl::parse_query(text)?;
        self.query_rule(&rule).map(|o| o.results)
    }

    /// Run a parsed query, returning the full execution outcome (results,
    /// traces, observations).
    pub fn query_rule(&self, query: &Rule) -> Result<ExecOutcome> {
        self.query_rule_with(query, &QueryLimits::default())
    }

    /// Like [`Mediator::query_rule`], with per-query resource limits
    /// layered over the mediator's standing options. This is the serving
    /// layer's entry point: many threads call it concurrently against
    /// one resident mediator (`&self`), sharing the answer cache, learned
    /// statistics, and circuit breakers. `max_rows` is carried but not
    /// enforced here — see [`QueryLimits::max_rows`].
    pub fn query_rule_with(&self, query: &Rule, limits: &QueryLimits) -> Result<ExecOutcome> {
        msl::validate::validate_rule(query, &self.spec.spec.externals)?;

        let mut outcome = if self.spec.is_recursive() {
            self.query_recursive(query)?
        } else {
            let (_, outcome) =
                self.plan_and_run(query, self.options.trace, self.options.parallel, limits)?;
            outcome
        };
        if self.options.trace {
            outcome.trace.query = msl::printer::rule(query);
        }
        Ok(outcome)
    }

    /// Plan an expanded query against the statistics learned so far.
    fn plan_program(&self, program: &LogicalProgram) -> Result<PhysicalPlan> {
        let stats = self.stats.read();
        let ctx = PlanContext {
            sources: &self.sources,
            registry: &self.registry,
            stats: &stats,
            options: &self.options.planner,
            analysis: Some(&self.analysis),
        };
        plan(program, &ctx)
    }

    /// Execute a physical plan under the standing options. `trace`,
    /// `parallel` and `limits` are the three values the entry points
    /// differ in.
    fn execute_plan(
        &self,
        physical: &PhysicalPlan,
        trace: bool,
        parallel: bool,
        limits: &QueryLimits,
    ) -> Result<ExecOutcome> {
        let mut fault = self.options.fault.clone();
        if let Some(d) = limits.deadline_ms {
            fault.source_deadline_ms = Some(match fault.source_deadline_ms {
                Some(standing) => standing.min(d),
                None => d,
            });
        }
        execute(
            physical,
            &self.sources,
            &self.registry,
            &ExecOptions {
                trace,
                parallel,
                fault,
                cache: self.exec_cache(),
                param_memo: None,
                streaming: self.options.streaming,
                batch_size: limits.batch_size.unwrap_or(self.options.batch_size),
            },
        )
    }

    /// Expand, plan and execute a validated non-recursive query and, with
    /// `learn_stats` on, feed its observations back into the statistics
    /// cache. The trace carries no query text: the callers that present
    /// it stamp it.
    fn plan_and_run(
        &self,
        query: &Rule,
        trace: bool,
        parallel: bool,
        limits: &QueryLimits,
    ) -> Result<(PhysicalPlan, ExecOutcome)> {
        let physical = self.plan_program(&self.expand(query)?)?;
        let outcome = self.execute_plan(&physical, trace, parallel, limits)?;
        if self.options.learn_stats {
            self.stats.record_trace(&outcome.trace);
        }
        Ok((physical, outcome))
    }

    /// View expansion only (used by explain and the experiments).
    pub fn expand(&self, query: &Rule) -> Result<LogicalProgram> {
        expand(query, &self.spec, self.options.unify_mode)
    }

    /// Recursive path: materialize the view to fixpoint, then answer the
    /// query against the materialization.
    fn query_recursive(&self, query: &Rule) -> Result<ExecOutcome> {
        let (view, _iters) = materialize_fixpoint(&self.spec, &self.sources, &self.registry)?;
        let view_wrapper = wrappers::SemiStructuredWrapper::new(&self.spec.name.as_str(), view);
        let results = view_wrapper.query(query)?;
        let trace = crate::metrics::QueryTrace {
            result_count: results.top_level().len(),
            ..Default::default()
        };
        Ok(ExecOutcome { results, trace })
    }

    /// A snapshot of the learned statistics (experiments).
    pub fn stats_snapshot(&self) -> StatsCache {
        self.stats.snapshot()
    }

    /// Full EXPLAIN: render the logical datamerge program, the physical
    /// plan, and (when `run` is true) a traced execution with the binding
    /// tables that flowed between nodes — the Figure 3.6 presentation.
    pub fn explain_text(&self, text: &str, run: bool) -> Result<String> {
        use std::fmt::Write;
        let query = msl::parse_query(text)?;
        msl::validate::validate_rule(&query, &self.spec.spec.externals)?;
        if self.spec.is_recursive() {
            return Ok(format!(
                "specification of '{}' is recursive: evaluated by fixpoint \
                 materialization (up to {} iterations), then matched directly",
                self.spec.name,
                crate::recursion::MAX_ITERATIONS
            ));
        }
        let program = self.expand(&query)?;
        let mut out = String::new();
        out.push_str(&crate::explain::render_logical(&program));
        let physical = self.plan_program(&program)?;
        let _ = writeln!(out);
        out.push_str(&crate::explain::render_plan(&physical));
        if run {
            let outcome = self.execute_plan(&physical, true, false, &QueryLimits::default())?;
            let _ = writeln!(out);
            out.push_str(&crate::explain::render_execution(&physical, &outcome));
        }
        Ok(out)
    }

    /// EXPLAIN ANALYZE: execute the query and render the physical plan with
    /// observed per-node cardinalities, timings and source round-trips next
    /// to the optimizer's estimates. Returns the rendered report together
    /// with the raw [`crate::metrics::QueryTrace`] (for JSON export).
    ///
    /// Like [`Mediator::query_rule`], a run with `learn_stats` on feeds the
    /// trace's observations back into the statistics cache.
    pub fn explain_analyze(&self, text: &str) -> Result<(String, crate::metrics::QueryTrace)> {
        let query = msl::parse_query(text)?;
        msl::validate::validate_rule(&query, &self.spec.spec.externals)?;
        if self.spec.is_recursive() {
            let mut outcome = self.query_rule(&query)?;
            outcome.trace.query = msl::printer::rule(&query);
            let report = format!(
                "specification of '{}' is recursive: evaluated by fixpoint \
                 materialization, no per-node datamerge metrics\n\
                 result objects: {}\n",
                self.spec.name, outcome.trace.result_count
            );
            return Ok((report, outcome.trace));
        }
        let (physical, mut outcome) = self.plan_and_run(
            &query,
            false,
            self.options.parallel,
            &QueryLimits::default(),
        )?;
        // The run was untraced: the text the report and the returned
        // trace present is rendered here, from the query and the plan.
        outcome.trace.query = msl::printer::rule(&query);
        crate::exec::fill_details(&physical, &mut outcome.trace);
        let report = crate::explain::render_analyze(&physical, &outcome);
        Ok((report, outcome.trace))
    }

    /// Snapshot of every source wrapper's own counters (queries received,
    /// objects exported, capability rejections), for wrappers that are
    /// instrumented. Sorted by source name for stable output.
    pub fn wrapper_metrics(&self) -> Vec<(Symbol, wrappers::WrapperMetrics)> {
        let mut out: Vec<(Symbol, wrappers::WrapperMetrics)> = self
            .sources
            .iter()
            .filter_map(|(name, w)| w.metrics().map(|m| (*name, m)))
            .collect();
        out.sort_by(|(a, _), (b, _)| a.cmp_str(b));
        out
    }
}

impl Wrapper for Mediator {
    fn name(&self) -> Symbol {
        self.spec.name
    }

    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn stats(&self) -> Option<SourceStats> {
        None // virtual views: cardinalities unknown until queried
    }

    fn query(&self, q: &Rule) -> std::result::Result<ObjectStore, WrapperError> {
        // Queries arriving from an upper mediator name this mediator as
        // their source; our own pipeline expects that too, so pass through.
        // A dead downstream source stays transient through the stack: the
        // upper mediator's own retry/Partial policy can act on it.
        self.query_rule(q).map(|o| o.results).map_err(|e| match e {
            MedError::SourceUnavailable { .. } => WrapperError::Unavailable(e.to_string()),
            other => WrapperError::BadQuery(other.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::externals::standard_registry;
    use oem::printer::compact;
    use oem::sym;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};

    pub fn paper_mediator() -> Mediator {
        Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            standard_registry(),
        )
        .unwrap()
    }

    #[test]
    fn paper_mediator_has_no_lint_warnings() {
        assert!(paper_mediator().lint_warnings().is_empty());
    }

    #[test]
    fn adornment_infeasible_spec_rejected_at_construction() {
        // `decomp` only binds L,F from a bound N, but no tail pattern
        // binds its first argument (§3.4).
        let err = Mediator::new(
            "med",
            "<o {<f F>}> :- <p {<n N>}>@whois AND decomp(L, F)\n\
             decomp(bound, free) by name_to_lnfn",
            vec![Arc::new(whois_wrapper())],
            standard_registry(),
        )
        .err()
        .expect("infeasible spec must be rejected");
        assert!(err.to_string().contains("never be evaluated"), "{err}");
    }

    #[test]
    fn capability_unanswerable_spec_rejected_at_construction() {
        // A wildcard pattern against a source that declares no wildcard
        // support: the planner could never send this query anywhere.
        let whois = whois_wrapper().with_capabilities(Capabilities::restricted());
        let err = Mediator::new(
            "med",
            "<v {<y Y>}> :- <person {* <year Y>}>@whois",
            vec![Arc::new(whois)],
            standard_registry(),
        )
        .err()
        .expect("unanswerable spec must be rejected");
        let MedError::Lint(diags) = err else {
            panic!("expected MedError::Lint, got {err}");
        };
        assert!(diags.iter().all(|d| d.is_error()));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, msl::diag::codes::CAPABILITY_UNANSWERABLE);
    }

    #[test]
    fn compensated_conditions_surface_as_warnings() {
        // §3.5's example: whois cannot filter on year, the mediator
        // compensates — the mediator is built, with a recorded warning.
        let whois = whois_wrapper()
            .with_capabilities(Capabilities::full().without_condition_on(sym("year")));
        let med = Mediator::new(
            "med",
            "<v {<n N>}> :- <person {<name N> <year 2>}>@whois",
            vec![Arc::new(whois)],
            standard_registry(),
        )
        .unwrap();
        let warns = med.lint_warnings();
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].code, msl::diag::codes::CAPABILITY_COMPENSATED);
        assert!(warns[0].message.contains("year"), "{}", warns[0].message);
    }

    #[test]
    fn q1_end_to_end() {
        let med = paper_mediator();
        let results = med
            .query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
            .unwrap();
        assert_eq!(results.top_level().len(), 1);
        let printed = compact(&results, results.top_level()[0]);
        assert!(printed.contains("<title 'professor'>"), "{printed}");
    }

    #[test]
    fn whole_view_lists_both_people() {
        let med = paper_mediator();
        let results = med.query_text("P :- P:<cs_person {}>@med").unwrap();
        assert_eq!(results.top_level().len(), 2);
    }

    #[test]
    fn exhaustive_mode_is_still_correct_on_q1() {
        // Exhaustive unification explores extra unifiers; duplicate
        // elimination collapses their results back to the same answer.
        let med = paper_mediator();
        let results = med
            .query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
            .unwrap();
        assert_eq!(results.top_level().len(), 1);
    }

    #[test]
    fn unknown_source_rejected_at_construction() {
        let res = Mediator::new(
            "m",
            "<v {<a A>}> :- <p {<a A>}>@missing",
            vec![],
            standard_registry(),
        );
        assert!(matches!(res.err(), Some(MedError::UnknownSource(_))));
    }

    #[test]
    fn mediators_stack() {
        // An upper mediator over `med`, renaming cs_person to staff.
        let lower = Arc::new(paper_mediator());
        let upper = Mediator::new(
            "top",
            "<staff {<who N>}> :- <cs_person {<name N>}>@med",
            vec![lower],
            standard_registry(),
        )
        .unwrap();
        let results = upper.query_text("X :- X:<staff {}>@top").unwrap();
        assert_eq!(results.top_level().len(), 2);
        let printed: Vec<String> = results
            .top_level()
            .iter()
            .map(|&t| compact(&results, t))
            .collect();
        assert!(
            printed.iter().any(|p| p.contains("'Joe Chung'")),
            "{printed:?}"
        );
    }

    #[test]
    fn recursive_mediator_answers_queries() {
        let mut s = ObjectStore::new();
        for (of, is) in [("a", "b"), ("b", "c")] {
            oem::ObjectBuilder::set("parent")
                .atom("of", of)
                .atom("is", is)
                .build_top(&mut s);
        }
        let src: Arc<dyn Wrapper> = Arc::new(wrappers::SemiStructuredWrapper::new("src", s));
        let med = Mediator::new(
            "m",
            "<anc {<of X> <is Y>}> :- <parent {<of X> <is Y>}>@src\n\
             <anc {<of X> <is Z>}> :- <parent {<of X> <is Y>}>@src \
             AND <anc {<of Y> <is Z>}>@m",
            vec![src],
            standard_registry(),
        )
        .unwrap();
        let results = med.query_text("X :- X:<anc {<of 'a'>}>@m").unwrap();
        assert_eq!(results.top_level().len(), 2); // a→b, a→c
    }

    #[test]
    fn learn_stats_off_keeps_cache_empty() {
        let med = paper_mediator().with_options(MediatorOptions {
            learn_stats: false,
            ..Default::default()
        });
        med.query_text("P :- P:<cs_person {}>@med").unwrap();
        // Wrapper-provided stats (cs) are still there, but no observations
        // accumulate for whois.
        assert!(!med.stats_snapshot().knows(sym("whois")));
    }

    #[test]
    fn parallel_option_works_through_mediator() {
        let med = paper_mediator().with_options(MediatorOptions {
            parallel: true,
            ..Default::default()
        });
        let res = med.query_text("S :- S:<cs_person {<year 3>}>@med").unwrap();
        assert_eq!(res.top_level().len(), 1);
    }

    #[test]
    fn trace_option_populates_traces() {
        let med = paper_mediator().with_options(MediatorOptions {
            trace: true,
            ..Default::default()
        });
        let q = msl::parse_query("P :- P:<cs_person {}>@med").unwrap();
        let out = med.query_rule(&q).unwrap();
        assert!(out.trace.rules.iter().any(|r| !r.nodes.is_empty()));
        assert!(out.trace.nodes().all(|t| !t.table.is_empty()));
        assert_eq!(out.trace.query, msl::printer::rule(&q));
    }

    #[test]
    fn ewma_updates_exactly_once_per_query() {
        // Minimal mode expands the year-3 query into exactly the paper's
        // two rules, both with cs outer and whois inner. Sequential
        // execution observes cs: [2, 1] and whois (per bind-join call):
        // [0, 1, 1]. One record_trace per query gives EWMA chains
        //   cs    2 → 2.0,  1 → 1.5
        //   whois 0 → 0.0,  1 → 0.5,  1 → 0.75
        // A mediator that recorded the trace twice would replay the blend
        // and land on cs = 1.25, whois = 0.84375 instead. (Forcing bind
        // joins pins the plan shape the expected chains assume; the
        // property under test is once-per-query recording.)
        let med = paper_mediator().with_options(MediatorOptions {
            unify_mode: UnifyMode::Minimal,
            planner: crate::planner::PlannerOptions {
                prefer_bind_join: Some(true),
                ..Default::default()
            },
            ..Default::default()
        });
        med.query_text("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let snap = med.stats_snapshot();
        assert_eq!(
            snap.base_count(sym("cs"), None),
            1.5,
            "trace must be recorded exactly once"
        );
        assert_eq!(
            snap.base_count(sym("whois"), Some(sym("person"))),
            0.75,
            "trace must be recorded exactly once"
        );
    }

    #[test]
    fn explain_analyze_reports_and_round_trips() {
        use serde::{Deserialize, Serialize};
        let med = paper_mediator();
        let (report, trace) = med
            .explain_analyze("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
            .unwrap();
        assert!(report.contains("EXPLAIN ANALYZE"), "{report}");
        assert!(report.contains("rows: "), "{report}");
        assert!(report.contains("=== totals ==="), "{report}");
        assert_eq!(trace.result_count, 1);
        // The trace survives a JSON round trip unchanged.
        let json = serde_json::to_string_pretty(&trace.to_value()).unwrap();
        let back =
            crate::metrics::QueryTrace::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn wrapper_metrics_accumulate_across_queries() {
        let med = paper_mediator();
        med.query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
            .unwrap();
        let metrics = med.wrapper_metrics();
        assert_eq!(metrics.len(), 2, "{metrics:?}");
        for (name, m) in &metrics {
            assert!(m.queries_received >= 1, "{name}: {m:?}");
            assert!(m.objects_exported >= 1, "{name}: {m:?}");
            assert_eq!(m.capability_rejections, 0, "{name}: {m:?}");
        }
    }

    #[test]
    fn stats_learned_across_queries() {
        let med = paper_mediator();
        assert!(!med.stats_snapshot().knows(sym("whois")));
        med.query_text("P :- P:<cs_person {}>@med").unwrap();
        assert!(med.stats_snapshot().knows(sym("whois")));
    }

    // ---- answer cache ----------------------------------------------------

    fn cache_test_options(cache: CacheOptions) -> MediatorOptions {
        // learn_stats off keeps the plan identical across iterations so
        // round-trip counts compare cleanly.
        MediatorOptions {
            learn_stats: false,
            cache,
            ..Default::default()
        }
    }

    #[test]
    fn cache_off_is_exactly_seed_behavior() {
        // Guard for the default path: with the cache disabled, repeated
        // queries pay identical round-trips and produce byte-identical
        // answers — exactly the pre-cache behavior.
        let q = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med";
        let off = paper_mediator().with_options(cache_test_options(CacheOptions::default()));
        let a = off.query_rule(&msl::parse_query(q).unwrap()).unwrap();
        let b = off.query_rule(&msl::parse_query(q).unwrap()).unwrap();
        assert_eq!(a.trace.source_calls, b.trace.source_calls);
        assert!(a.trace.total_source_calls() > 0);
        assert_eq!(
            oem::printer::print_store(&a.results),
            oem::printer::print_store(&b.results)
        );
        assert_eq!(off.cache_counters().hits + off.cache_counters().misses, 0);
    }

    #[test]
    fn cache_on_and_off_agree_and_warm_runs_skip_sources() {
        // (query, unify mode, round-trips of a cache-off run, of the cold
        // cache-on run): the point lookup, and Fig 3.6's year query in the
        // paper's presentation.
        let cases = [
            (
                "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
                UnifyMode::Exhaustive,
                2,
                2,
            ),
            (
                "S :- S:<cs_person {<year 3>}>@med",
                UnifyMode::Minimal,
                4,
                3,
            ),
        ];
        for (q, unify_mode, uncached, cold_calls) in cases {
            let q = msl::parse_query(q).unwrap();
            let options = |cache| MediatorOptions {
                unify_mode,
                ..cache_test_options(cache)
            };
            let off = paper_mediator().with_options(options(CacheOptions::default()));
            let on = paper_mediator().with_options(options(CacheOptions::enabled()));
            let baseline = off.query_rule(&q).unwrap();
            let expected = oem::printer::print_store(&baseline.results);
            let cold = on.query_rule(&q).unwrap();
            // Iteration 1 pays round-trips; the cache may already dedup
            // duplicate source queries across a run's chains, but never
            // adds calls — and the answer bytes are identical.
            assert_eq!(
                (
                    baseline.trace.total_source_calls(),
                    cold.trace.total_source_calls()
                ),
                (uncached, cold_calls),
                "{q:?}: off={:?} on={:?}",
                baseline.trace.source_calls,
                cold.trace.source_calls
            );
            assert_eq!(oem::printer::print_store(&cold.results), expected);
            // Iterations 2..10 are answered entirely from the cache, same
            // bytes, while the cache-off twin pays the baseline every time.
            for _ in 1..10 {
                let again = off.query_rule(&q).unwrap();
                assert_eq!(again.trace.source_calls, baseline.trace.source_calls);
                let warm = on.query_rule(&q).unwrap();
                assert_eq!(
                    warm.trace.total_source_calls(),
                    0,
                    "{:?}",
                    warm.trace.source_calls
                );
                assert_eq!(oem::printer::print_store(&warm.results), expected);
            }
            assert_eq!(on.cache_counters().misses, cold_calls);

            // Ten restarts: a memory-only cache pays the cold round-trips
            // every time; over one warm directory only the first does,
            // every later restart is served from disk.
            let dir = std::env::temp_dir().join(format!(
                "medmaker-mediator-restart-{}-{unify_mode:?}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            for restart in 0..10 {
                let memory = paper_mediator().with_options(options(CacheOptions::enabled()));
                let tiered = paper_mediator().with_options(options(CacheOptions {
                    cache_dir: Some(dir.clone()),
                    ..CacheOptions::enabled()
                }));
                let warm_calls = if restart == 0 { cold_calls } else { 0 };
                for (med, want) in [(memory, cold_calls), (tiered, warm_calls)] {
                    let out = med.query_rule(&q).unwrap();
                    assert_eq!(out.trace.total_source_calls(), want, "restart {restart}");
                    assert_eq!(oem::printer::print_store(&out.results), expected);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn cost_aware_eviction_keeps_the_hitter_resident_under_skew() {
        // Four name-pinned lookups share a 2-slot shard; the first is
        // asked every other time. Cost-aware eviction keeps it resident
        // and pays 13 source calls; oldest-first eviction (retired) paid
        // 18 on the same sequence.
        use wrappers::workload::PersonWorkload;
        let (whois, _) = PersonWorkload::sized(8).build();
        let med = Mediator::new(
            "m",
            "<p {<n N> <r R>}> :- <person {<name N> <relation R>}>@whois",
            vec![Arc::new(whois)],
            standard_registry(),
        )
        .unwrap()
        .with_options(cache_test_options(CacheOptions {
            capacity: 2,
            ..CacheOptions::enabled()
        }));
        let names: Vec<String> = (0..4).map(PersonWorkload::full_name_of).collect();
        let mut calls = 0;
        for round in 0..12 {
            for name in [&names[0], &names[1 + round % 3]] {
                let q = msl::parse_query(&format!("X :- X:<p {{<n '{name}'>}}>@m")).unwrap();
                let out = med.query_rule(&q).unwrap();
                assert_eq!(out.results.top_level().len(), 1, "{name}");
                calls += out.trace.total_source_calls();
            }
        }
        assert!(calls <= 13, "{calls} source calls");
    }

    #[test]
    fn invalidate_source_forces_refetch() {
        let q = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med";
        let med = paper_mediator().with_options(cache_test_options(CacheOptions::enabled()));
        med.query_text(q).unwrap();
        let warm = med.query_rule(&msl::parse_query(q).unwrap()).unwrap();
        assert_eq!(warm.trace.total_source_calls(), 0);
        // Drop whois: the next query must go back to that source (and
        // only that source — the cs answer is still cached).
        med.invalidate_source(sym("whois"));
        let after = med.query_rule(&msl::parse_query(q).unwrap()).unwrap();
        assert!(
            after.trace.calls(sym("whois")) > 0,
            "{:?}",
            after.trace.source_calls
        );
        assert_eq!(
            after.trace.calls(sym("cs")),
            0,
            "{:?}",
            after.trace.source_calls
        );
    }

    /// Cache options for the year-3 query with the bind join pinned: two
    /// chains that each probe whois by the names cs returned.
    fn bind_join_cache_options(cache: CacheOptions) -> MediatorOptions {
        MediatorOptions {
            planner: crate::planner::PlannerOptions {
                prefer_bind_join: Some(true),
                ..Default::default()
            },
            ..cache_test_options(cache)
        }
    }

    #[test]
    fn invalidation_makes_a_cached_bind_join_pay_its_round_trips_again() {
        let q = msl::parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let med = paper_mediator().with_options(bind_join_cache_options(CacheOptions::enabled()));
        let cold = med.query_rule(&q).unwrap();
        let whois_calls = cold.trace.calls(sym("whois"));
        assert!(whois_calls > 0, "{:?}", cold.trace.source_calls);
        let invalidations: [&dyn Fn() -> usize; 3] = [
            &|| med.invalidate_source(sym("whois")),
            &|| med.apply_delta(&SourceDelta::whole(sym("whois"))),
            &|| med.apply_delta(&SourceDelta::labels(sym("whois"), [sym("relation")])),
        ];
        for invalidate in invalidations {
            let warm = med.query_rule(&q).unwrap();
            assert_eq!(
                warm.trace.total_source_calls(),
                0,
                "{:?}",
                warm.trace.source_calls
            );
            assert!(invalidate() > 0);
            // The per-tuple whois answers are gone with nothing beside
            // the cache to serve them; cs is still cached.
            let after = med.query_rule(&q).unwrap();
            assert_eq!(
                (
                    after.trace.calls(sym("whois")),
                    after.trace.calls(sym("cs"))
                ),
                (whois_calls, 0),
                "{:?}",
                after.trace.source_calls
            );
        }
    }

    #[test]
    fn query_limits_preserve_answers_and_differ_in_equality() {
        let q = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med";
        let med = paper_mediator();
        let rule = msl::parse_query(q).unwrap();
        let base = med.query_rule(&rule).unwrap();
        let limited = med
            .query_rule_with(
                &rule,
                &QueryLimits {
                    deadline_ms: Some(5_000),
                    max_rows: Some(10),
                    batch_size: Some(1),
                },
            )
            .unwrap();
        assert_eq!(
            oem::printer::print_store(&base.results),
            oem::printer::print_store(&limited.results)
        );
        // Different limits must not coalesce to one execution: the
        // server's coalescing key tells them apart.
        assert_ne!(
            QueryLimits::default(),
            QueryLimits {
                max_rows: Some(10),
                ..Default::default()
            }
        );
    }

    #[test]
    fn cache_hits_feed_cardinality_observations() {
        // A cache hit serves rows the source once actually returned for
        // this query — a real cardinality sample. The seed skipped the
        // observation entirely, starving §3.5 learning on cache-heavy
        // workloads; now a fully-cached run still carries observations.
        let med = paper_mediator().with_options(MediatorOptions {
            cache: CacheOptions::enabled(),
            ..Default::default()
        });
        assert_eq!(med.stats_observations(), 0);
        // Two warm-ups: the first learns statistics, which can change the
        // second run's plan (and issue genuinely new source queries).
        med.query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
            .unwrap();
        med.query_text("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
            .unwrap();
        let warmed = med.stats_observations();
        assert!(warmed > 0, "real source traffic must be observed");
        // The fully-cached run pays zero round-trips yet keeps observing.
        let served = med
            .query_rule(&msl::parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap())
            .unwrap();
        assert_eq!(
            served.trace.total_source_calls(),
            0,
            "{:?}",
            served.trace.source_calls
        );
        assert!(
            med.stats_observations() > warmed,
            "cached answers must still feed cardinality learning \
             ({warmed} before, {} after)",
            med.stats_observations()
        );
    }

    #[test]
    fn cached_hits_do_not_feed_latency_learning() {
        // Round-trip accounting must see only real source traffic: a hit
        // pays no call, so it must not touch the latency/failure EWMAs —
        // only the cardinality feed (see
        // `cache_hits_feed_cardinality_observations`).
        let q = "P :- P:<cs_person {}>@med";
        let med = paper_mediator().with_options(MediatorOptions {
            cache: CacheOptions::enabled(),
            ..Default::default()
        });
        // Two warm-up runs: the first learns statistics, which can change
        // the second run's plan (and issue genuinely new source queries).
        med.query_text(q).unwrap();
        med.query_text(q).unwrap();
        let learned = med.stats_snapshot();
        let served = med.query_rule(&msl::parse_query(q).unwrap()).unwrap();
        assert_eq!(
            served.trace.total_source_calls(),
            0,
            "{:?}",
            served.trace.source_calls
        );
        assert!(
            served.trace.latency_ms.is_empty() && served.trace.latency_calls.is_empty(),
            "a fully-cached run must record no latency samples: {:?}",
            served.trace.latency_calls
        );
        let after = med.stats_snapshot();
        for src in [sym("whois"), sym("cs")] {
            assert_eq!(
                after.runtime(src).latency_ms,
                learned.runtime(src).latency_ms,
                "{src:?}: cached run must not move the latency EWMA"
            );
            assert_eq!(
                after.runtime(src).failure_rate,
                learned.runtime(src).failure_rate,
                "{src:?}: cached run must not move the failure EWMA"
            );
        }
    }

    #[test]
    fn fully_cached_workload_keeps_learning_cardinalities() {
        // The satellite regression: a 100%-hit workload (same query
        // replayed under a warm cache) must keep the §3.5 cardinality
        // EWMA alive — observation counts grow every run and the learned
        // base count converges on the cached answer's row count.
        let q = "P :- P:<cs_person {}>@med";
        let med = paper_mediator().with_options(MediatorOptions {
            cache: CacheOptions::enabled(),
            ..Default::default()
        });
        // Two warm-ups: the first learns statistics (possibly replanning
        // the second), the second fills the cache for the settled plan.
        med.query_text(q).unwrap();
        med.query_text(q).unwrap();
        let mut last = med.stats_observations();
        let mut cached_count = None;
        for _ in 0..5 {
            let out = med.query_rule(&msl::parse_query(q).unwrap()).unwrap();
            assert_eq!(
                out.trace.total_source_calls(),
                0,
                "workload must be 100% hits: {:?}",
                out.trace.source_calls
            );
            let now = med.stats_observations();
            assert!(now > last, "each cached run must observe ({last} → {now})");
            last = now;
            cached_count = out
                .trace
                .observations
                .iter()
                .find(|o| o.source == sym("whois") && o.label == Some(sym("person")))
                .map(|o| o.count as f64);
        }
        // Each cached run replays the same known cardinality, so five EWMA
        // folds converge onto it (within 2⁻⁵ of the initial gap).
        let c = cached_count.expect("cached runs must observe whois/person");
        let whois = med
            .stats_snapshot()
            .base_count(sym("whois"), Some(sym("person")));
        assert!(
            (whois - c).abs() < 0.1,
            "cardinality EWMA should converge on the cached count {c}, got {whois}"
        );
    }
}
