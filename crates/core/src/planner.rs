//! The cost-based optimizer (§3.4–3.5).
//!
//! Turns each logical datamerge rule into a physical chain:
//!
//! * groups the tail's match items by source;
//! * orders the groups by **join enumeration** over a multi-objective
//!   [`CostEstimate`] (rows / cpu / net / memory, collapsed by
//!   [`CostEstimate::total`]): exhaustive enumeration of every feasible
//!   order for small rule bodies (up to `EXHAUSTIVE_LIMIT` = 6 groups),
//!   greedy cheapest-next above it. The `net` component prices
//!   round-trips with the measured per-source latency, failure-rate and
//!   cache-hit EWMAs ([`crate::stats::StatsCache::per_call_cost_ms`]);
//! * chooses, for every non-outer group, between a **parameterized query**
//!   (bind join, the plan of Figure 3.6) and a **fetch + hash join**;
//! * pushes every condition the source can evaluate; conditions a source
//!   *cannot* evaluate (capability restrictions, §3.5) are stripped from
//!   the source query and kept as client-side filters;
//! * places external-predicate calls at the earliest point where an
//!   implementation is callable (§2's adornments);
//! * appends duplicate elimination per MSL's semantics (footnote 9).

use crate::cost::CostEstimate;
use crate::error::{MedError, Result};
use crate::externals::ExternalRegistry;
use crate::graph::{ExtractVar, Node, PhysicalPlan, RulePlan, VarKind};
use crate::logical::LogicalProgram;
use crate::stats::{StatsCache, JOIN_EQ_SELECTIVITY};
use engine::subst::{subst_pattern, Subst};
use msl::{Head, PatValue, Pattern, RestSpec, Rule, SetElem, SetPattern, TailItem, Term};
use oem::{Symbol, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wrappers::Wrapper;

/// Planner knobs (ablations + experiments).
#[derive(Clone, Debug)]
pub struct PlannerOptions {
    /// Push source-evaluable conditions into source queries (the "push
    /// selections down" optimization, §3.3). Disabling keeps every
    /// condition in the mediator — the ablation baseline.
    pub pushdown: bool,
    /// `Some(true)` forces bind joins, `Some(false)` forces hash joins,
    /// `None` decides by cost.
    pub prefer_bind_join: Option<bool>,
    /// Apply duplicate elimination (MSL semantics; the paper's original
    /// implementation omitted it, fn. 9).
    pub dedup: bool,
    /// Price plans with the provided and learned statistics; otherwise
    /// with the built-in defaults only.
    pub use_stats: bool,
    /// Prune chains [`crate::analysis::SpecAnalysis::rule_infeasible`]
    /// proves empty (type-mismatched joins, labels a closed summary lacks,
    /// unsatisfiable required conditions) instead of executing them.
    /// Requires [`PlanContext::analysis`]; pruning never changes answers,
    /// only skips provably-empty work.
    pub prune_infeasible: bool,
}

/// Rule bodies with at most this many source groups are ordered by
/// exhaustive enumeration; larger bodies fall back to the greedy
/// cheapest-next heuristic.
const EXHAUSTIVE_LIMIT: usize = 6;

impl Default for PlannerOptions {
    fn default() -> PlannerOptions {
        PlannerOptions {
            pushdown: true,
            prefer_bind_join: None,
            dedup: true,
            use_stats: true,
            prune_infeasible: true,
        }
    }
}

/// Everything the planner consults.
pub struct PlanContext<'a> {
    /// The registered source wrappers, by name.
    pub sources: &'a HashMap<Symbol, Arc<dyn Wrapper>>,
    /// External predicate implementations (for placement feasibility).
    pub registry: &'a ExternalRegistry,
    /// Cardinality statistics (provided + learned, §3.5).
    pub stats: &'a StatsCache,
    /// Planner knobs.
    pub options: &'a PlannerOptions,
    /// The whole-spec analysis, when the mediator ran one — enables
    /// infeasible-chain pruning.
    pub analysis: Option<&'a crate::analysis::SpecAnalysis>,
}

/// Plan a whole logical program. When an analysis is available and
/// [`PlannerOptions::prune_infeasible`] is on, chains the analysis proves
/// empty are dropped up front (recorded in [`PhysicalPlan::pruned`]).
pub fn plan(program: &LogicalProgram, ctx: &PlanContext) -> Result<PhysicalPlan> {
    let mut rules = Vec::with_capacity(program.rules.len());
    let mut pruned = Vec::new();
    for rule in &program.rules {
        if ctx.options.prune_infeasible {
            if let Some(analysis) = ctx.analysis {
                if let Some(reason) = analysis.rule_infeasible(rule) {
                    pruned.push(reason);
                    continue;
                }
            }
        }
        rules.push(plan_rule(rule, ctx)?);
    }
    Ok(PhysicalPlan {
        rules,
        dedup_results: ctx.options.dedup,
        pruned,
    })
}

struct Group {
    source: Symbol,
    patterns: Vec<Pattern>,
    /// Required condition labels no pattern satisfies on its own — the
    /// planner must order this group after one that binds the condition
    /// variable and reach it by bind join ($param fills the condition).
    missing_required: Vec<Symbol>,
}

/// A condition stripped out of a source query, to be applied client-side.
enum ClientFilter {
    /// `var = value` on a freshly introduced retrieval variable.
    ValueEq { var: Symbol, value: Value },
    /// The object-set bound to `var` must contain a member matching the
    /// condition.
    Rest { var: Symbol, condition: Pattern },
}

/// A rule body ready for join ordering: its source groups with the
/// conditions stripped out of each, its external-predicate calls, and the
/// variables later steps need extracted.
struct Body {
    processed: Vec<(Group, Vec<ClientFilter>)>,
    externals: Vec<(Symbol, Vec<Term>)>,
    needed: HashSet<Symbol>,
}

fn prepare_body(rule: &Rule, ctx: &PlanContext) -> Result<Body> {
    // ---- partition the tail --------------------------------------------
    let mut groups: Vec<Group> = Vec::new();
    let mut externals: Vec<(Symbol, Vec<Term>)> = Vec::new();
    for item in &rule.tail {
        match item {
            TailItem::Match { pattern, source } => {
                let Some(src) = source else {
                    return Err(MedError::Planning(
                        "datamerge rule has an unannotated match item".into(),
                    ));
                };
                if !ctx.sources.contains_key(src) {
                    return Err(MedError::UnknownSource(src.as_str()));
                }
                match groups.iter_mut().find(|g| g.source == *src) {
                    Some(g) => g.patterns.push(pattern.clone()),
                    None => groups.push(Group {
                        source: *src,
                        patterns: vec![pattern.clone()],
                        missing_required: Vec::new(),
                    }),
                }
            }
            TailItem::External { name, args } => externals.push((*name, args.clone())),
        }
    }

    // ---- capability handling / pushdown --------------------------------
    let mut fresh_counter = 0usize;
    let mut processed: Vec<(Group, Vec<ClientFilter>)> = Vec::new();
    for g in groups {
        let wrapper = &ctx.sources[&g.source];
        let caps = wrapper.capabilities();
        let mut filters: Vec<ClientFilter> = Vec::new();
        let patterns: Vec<Pattern> = g
            .patterns
            .iter()
            .map(|p| {
                strip_conditions(
                    p,
                    &|cond: &Pattern| {
                        if !ctx.options.pushdown {
                            return true; // ablation: strip everything
                        }
                        match &cond.label {
                            Term::Const(v) => v
                                .as_str_sym()
                                .is_some_and(|l| caps.unsupported_condition_labels.contains(&l)),
                            _ => false,
                        }
                    },
                    &mut fresh_counter,
                    &mut filters,
                )
            })
            .collect();
        // After stripping, the source must accept what remains. A missing
        // *required* condition is not fatal here: the planner can still
        // satisfy it by bind join (a `$param` fills the condition), so it
        // is recorded and resolved during join ordering instead.
        let mut missing_required: Vec<Symbol> = Vec::new();
        for p in &patterns {
            for v in caps.pattern_violations(p, true) {
                match v {
                    wrappers::CapViolation::MissingRequiredCondition { label } => {
                        if !missing_required.contains(&label) {
                            missing_required.push(label);
                        }
                    }
                    other => {
                        return Err(MedError::Planning(format!(
                            "source '{}': {other}",
                            g.source
                        )))
                    }
                }
            }
        }
        processed.push((
            Group {
                source: g.source,
                patterns,
                missing_required,
            },
            filters,
        ));
    }

    // ---- variable bookkeeping -------------------------------------------
    // "Needed" variables must be extracted from source results: head vars,
    // external-predicate arguments, client-filter vars, and join/param vars
    // (shared between groups).
    let mut head_vars = Vec::new();
    rule.head.collect_vars(&mut head_vars);
    let mut needed: HashSet<Symbol> = head_vars.iter().copied().collect();
    for (_, args) in &externals {
        let mut vs = Vec::new();
        for a in args {
            a.collect_vars(&mut vs);
        }
        needed.extend(vs);
    }
    for (_, filters) in &processed {
        for f in filters {
            match f {
                ClientFilter::ValueEq { var, .. } => {
                    needed.insert(*var);
                }
                ClientFilter::Rest { var, .. } => {
                    needed.insert(*var);
                }
            }
        }
    }
    // Vars shared between groups are join/param variables → needed.
    {
        let mut seen_in: HashMap<Symbol, usize> = HashMap::new();
        for (g, _) in &processed {
            let mut vs = Vec::new();
            for p in &g.patterns {
                p.collect_vars(&mut vs);
            }
            let uniq: HashSet<Symbol> = vs.into_iter().collect();
            for v in uniq {
                *seen_in.entry(v).or_insert(0) += 1;
            }
        }
        for (v, n) in seen_in {
            if n > 1 {
                needed.insert(v);
            }
        }
    }
    Ok(Body {
        processed,
        externals,
        needed,
    })
}

fn plan_rule(rule: &Rule, ctx: &PlanContext) -> Result<RulePlan> {
    let Body {
        processed,
        externals,
        needed,
    } = prepare_body(rule, ctx)?;

    // ---- join order ------------------------------------------------------
    // Pick the evaluation order by simulating candidate prefixes with the
    // same cost model the chain builder prices nodes with, so the scores
    // that chose the order are exactly the estimates EXPLAIN renders.
    // Orders that cannot fill a group's required conditions are skipped.
    let model = CostModel::new(ctx);
    let order = choose_join_order(&processed, &externals, &needed, &model)?;
    let mut slots: Vec<Option<(Group, Vec<ClientFilter>)>> =
        processed.into_iter().map(Some).collect();
    let processed: Vec<(Group, Vec<ClientFilter>)> = order
        .iter()
        .map(|&i| slots[i].take().expect("join order is a permutation"))
        .collect();

    // ---- build the chain ---------------------------------------------------
    // `estimates` stays parallel to `nodes`: every push into one is paired
    // with a push into the other, so EXPLAIN ANALYZE can line the cost
    // model's guess up against what actually flowed through each node.
    let mut nodes: Vec<Node> = Vec::new();
    let mut estimates: Vec<CostEstimate> = Vec::new();
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut placed_ext = vec![false; externals.len()];
    let mut running_est: f64 = 1.0;

    let place_externals = |nodes: &mut Vec<Node>,
                           estimates: &mut Vec<CostEstimate>,
                           cur_est: f64,
                           bound: &mut HashSet<Symbol>,
                           placed: &mut Vec<bool>,
                           ctx: &PlanContext| {
        loop {
            let mut progressed = false;
            for (i, (pred, args)) in externals.iter().enumerate() {
                if placed[i] || !callable_static(*pred, args, bound, ctx.registry) {
                    continue;
                }
                let mut vs = Vec::new();
                for a in args {
                    a.collect_vars(&mut vs);
                }
                let new_vars: Vec<Symbol> = vs.into_iter().filter(|v| !bound.contains(v)).collect();
                bound.extend(new_vars.iter().copied());
                nodes.push(Node::ExternalPred {
                    pred: *pred,
                    args: args.clone(),
                    new_vars,
                });
                estimates.push(CostEstimate::rows_only(cur_est));
                placed[i] = true;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    };

    for (gi, (group, filters)) in processed.iter().enumerate() {
        let wrapper = &ctx.sources[&group.source];
        let caps = wrapper.capabilities();

        // Variables of this group.
        let mut gvars = Vec::new();
        for p in &group.patterns {
            p.collect_vars(&mut gvars);
        }
        let gvars_set: HashSet<Symbol> = gvars.iter().copied().collect();
        let obj_vars = object_vars(&group.patterns);

        // Parameterizable vars: already bound, occur in term positions.
        let param_vars: Vec<Symbol> = if gi == 0 {
            Vec::new()
        } else {
            term_position_vars(&group.patterns)
                .into_iter()
                .filter(|v| bound.contains(v))
                .collect()
        };

        // Extraction: group vars that are needed downstream and not already
        // bound (params are in the table).
        let extract: Vec<ExtractVar> = gvars_set
            .iter()
            .filter(|v| needed.contains(v) && !bound.contains(v))
            .map(|v| ExtractVar {
                var: *v,
                kind: if obj_vars.contains(v) {
                    VarKind::Object
                } else {
                    VarKind::Scalar
                },
            })
            .collect();
        let mut extract = extract;
        extract.sort_by_key(|e| e.var.as_str());

        // A group with unmet required conditions (a form-based source's
        // mandatory field) is only evaluable as a bind join whose `$param`
        // slots fill those conditions; `assess` refuses it otherwise.
        let (step_est, use_bind) = model
            .assess(
                group,
                caps,
                &param_vars,
                &gvars_set,
                &bound,
                running_est,
                gi == 0,
            )
            .ok_or_else(|| unfillable_order_error(group))?;
        running_est = step_est.rows_out;

        if gi == 0 {
            let query = build_source_query(group.source, &group.patterns, &extract, &[]);
            nodes.push(Node::Query {
                source: group.source,
                query,
                vars: extract.clone(),
            });
        } else if use_bind {
            let query = build_source_query(group.source, &group.patterns, &extract, &param_vars);
            nodes.push(Node::ParamQuery {
                source: group.source,
                query,
                params: param_vars.clone(),
                vars: extract.clone(),
            });
        } else {
            // Fetch the group and hash-join on the shared bound vars.
            let join_vars: Vec<Symbol> = {
                let mut jv: Vec<Symbol> = gvars_set
                    .iter()
                    .filter(|v| bound.contains(v))
                    .copied()
                    .collect();
                jv.sort_by_key(|v| v.as_str());
                jv
            };
            // Inner extraction must include the join vars.
            let mut inner_extract = extract.clone();
            for v in &join_vars {
                if !inner_extract.iter().any(|e| e.var == *v) {
                    inner_extract.push(ExtractVar {
                        var: *v,
                        kind: if obj_vars.contains(v) {
                            VarKind::Object
                        } else {
                            VarKind::Scalar
                        },
                    });
                }
            }
            inner_extract.sort_by_key(|e| e.var.as_str());
            let query = build_source_query(group.source, &group.patterns, &inner_extract, &[]);
            nodes.push(Node::HashJoin {
                source: group.source,
                query,
                vars: inner_extract,
                join_vars,
            });
        }
        estimates.push(step_est);
        bound.extend(extract.iter().map(|e| e.var));
        bound.extend(param_vars.iter().copied());

        // Client-side filters for what the source could not evaluate.
        for f in filters {
            match f {
                ClientFilter::ValueEq { var, value } => nodes.push(Node::ExternalPred {
                    pred: Symbol::intern("eq"),
                    args: vec![Term::Var(*var), Term::Const(value.clone())],
                    new_vars: Vec::new(),
                }),
                ClientFilter::Rest { var, condition } => nodes.push(Node::RestFilter {
                    var: *var,
                    condition: condition.clone(),
                }),
            }
            estimates.push(CostEstimate::rows_only(running_est));
        }

        place_externals(
            &mut nodes,
            &mut estimates,
            running_est,
            &mut bound,
            &mut placed_ext,
            ctx,
        );
    }

    // Last chance for stragglers (e.g. all-bound checks).
    place_externals(
        &mut nodes,
        &mut estimates,
        running_est,
        &mut bound,
        &mut placed_ext,
        ctx,
    );
    if let Some(i) = placed_ext.iter().position(|p| !p) {
        return Err(MedError::Planning(format!(
            "external predicate {} is not callable in any placement \
             (no implementation matches the available bindings)",
            externals[i].0
        )));
    }

    if ctx.options.dedup {
        let mut hv = Vec::new();
        rule.head.collect_vars(&mut hv);
        let mut seen = HashSet::new();
        hv.retain(|v| seen.insert(*v));
        nodes.push(Node::DupElim { vars: hv });
        estimates.push(CostEstimate::rows_only(running_est));
    }

    Ok(RulePlan {
        nodes,
        estimates,
        head: rule.head.clone(),
    })
}

/// The shared error for a group whose required conditions (a form-based
/// source's mandatory field) no evaluation order can fill via `$param`.
fn unfillable_order_error(group: &Group) -> MedError {
    MedError::Planning(format!(
        "source '{}' requires a bound condition on '{}', and no \
         evaluation order can supply one",
        group.source, group.missing_required[0]
    ))
}

impl Group {
    /// Can the group be queried with `$param` slots for `params`: does
    /// every pattern meet every required condition, by itself or through
    /// a slot ([`wrappers::Capabilities::condition_fillable`])?
    fn fillable_by(&self, caps: &wrappers::Capabilities, params: &[Symbol]) -> bool {
        self.patterns.iter().all(|p| {
            self.missing_required
                .iter()
                .all(|&label| caps.condition_fillable(p, label, |v| params.contains(&v)))
        })
    }
}

/// The multi-objective cost model. One instance prices both the
/// enumerator's simulated steps and the chain builder's final per-node
/// estimates, so the scores that choose the join order are exactly the
/// numbers `EXPLAIN ANALYZE` renders drift against.
struct CostModel<'a, 'b> {
    ctx: &'b PlanContext<'a>,
    /// Fallback estimates for sources with no provided/learned statistics.
    defaults: StatsCache,
}

impl<'a, 'b> CostModel<'a, 'b> {
    fn new(ctx: &'b PlanContext<'a>) -> CostModel<'a, 'b> {
        CostModel {
            ctx,
            defaults: StatsCache::new(),
        }
    }

    /// Estimated result rows of the group's own patterns
    /// ([`StatsCache::estimate_group`], shared-variable discounts
    /// included).
    fn group_rows(&self, group: &Group) -> f64 {
        let pr: Vec<&Pattern> = group.patterns.iter().collect();
        if self.ctx.options.use_stats && self.ctx.stats.knows(group.source) {
            self.ctx.stats.estimate_group(group.source, &pr)
        } else {
            self.defaults.estimate_group(group.source, &pr)
        }
    }

    /// Priced milliseconds per round trip to the source: the measured
    /// latency EWMA marked up by the failure rate and discounted by the
    /// observed cache-hit probability (§3.5's per-call cost signal).
    fn per_call_ms(&self, source: Symbol) -> f64 {
        if self.ctx.options.use_stats {
            self.ctx.stats.per_call_cost_ms(source)
        } else {
            crate::stats::DEFAULT_LATENCY_MS
        }
    }

    /// Price `group` as the next step of a chain: `running` rows flow in
    /// and `bound` variables are available. Returns the step's cost
    /// breakdown and whether a bind join was chosen; `None` when the step
    /// is infeasible at this position (required conditions no `$param`
    /// can fill yet).
    #[allow(clippy::too_many_arguments)]
    fn assess(
        &self,
        group: &Group,
        caps: &wrappers::Capabilities,
        param_vars: &[Symbol],
        gvars: &HashSet<Symbol>,
        bound: &HashSet<Symbol>,
        running: f64,
        first: bool,
    ) -> Option<(CostEstimate, bool)> {
        if !group.fillable_by(caps, param_vars) {
            return None;
        }
        let forced_bind = !group.missing_required.is_empty();
        let rows_g = self.group_rows(group);
        let per_call = self.per_call_ms(group.source);
        if first {
            // One fetch: every group row crosses the wire, is scanned
            // once, and flows on.
            return Some((
                CostEstimate {
                    rows_out: rows_g,
                    cpu: rows_g,
                    net: per_call,
                    memory: rows_g,
                },
                false,
            ));
        }
        let shared = gvars.iter().filter(|v| bound.contains(*v)).count();
        // Floored at one row: observed cardinalities for inner groups are
        // fed by per-probe bind-join calls, so they already reflect the
        // join condition — multiplying the equi-join selectivity back in
        // would compound the discount below anything a join that runs at
        // all actually emits.
        let rows_out =
            (running * rows_g * JOIN_EQ_SELECTIVITY.powi(shared.min(127) as i32)).max(1.0);
        // Bind join: one parameterized call per outer row; only the
        // matching rows come back, so state is output-sized. Hash join:
        // one fetch, but the whole group crosses the wire, resides in the
        // hash table, and is scanned.
        let bind = CostEstimate {
            rows_out,
            cpu: running + rows_out,
            net: running.max(1.0).ceil() * per_call,
            memory: rows_out,
        };
        let hash = CostEstimate {
            rows_out,
            cpu: running + rows_g + rows_out,
            net: per_call,
            memory: rows_g + running,
        };
        let bind_possible = !param_vars.is_empty() && caps.parameterized;
        let use_bind = forced_bind
            || bind_possible
                && match self.ctx.options.prefer_bind_join {
                    Some(b) => b,
                    None => bind.total() <= hash.total(),
                };
        Some((if use_bind { bind } else { hash }, use_bind))
    }
}

/// Simulated execution state for join-order search. Stepping a group
/// mirrors exactly what the chain builder will do for that prefix: bind
/// the group's needed variables and `$param`s, then run the
/// external-predicate placement fixpoint (externals bind variables too,
/// which can make later groups' bind joins feasible).
#[derive(Clone)]
struct OrderSim<'a, 'b> {
    model: &'b CostModel<'a, 'b>,
    processed: &'b [(Group, Vec<ClientFilter>)],
    externals: &'b [(Symbol, Vec<Term>)],
    needed: &'b HashSet<Symbol>,
    bound: HashSet<Symbol>,
    placed: Vec<bool>,
    running: f64,
    first: bool,
}

impl<'a, 'b> OrderSim<'a, 'b> {
    fn new(
        model: &'b CostModel<'a, 'b>,
        processed: &'b [(Group, Vec<ClientFilter>)],
        externals: &'b [(Symbol, Vec<Term>)],
        needed: &'b HashSet<Symbol>,
    ) -> OrderSim<'a, 'b> {
        OrderSim {
            model,
            processed,
            externals,
            needed,
            bound: HashSet::new(),
            placed: vec![false; externals.len()],
            running: 1.0,
            first: true,
        }
    }

    /// Take group `i` as the next step; returns its weighted cost, or
    /// `None` when the group is infeasible at this position.
    fn step(&mut self, i: usize) -> Option<f64> {
        let ctx = self.model.ctx;
        let (group, _) = &self.processed[i];
        let caps = ctx.sources[&group.source].capabilities();
        let mut gv = Vec::new();
        for p in &group.patterns {
            p.collect_vars(&mut gv);
        }
        let gvars: HashSet<Symbol> = gv.into_iter().collect();
        let param_vars: Vec<Symbol> = if self.first {
            Vec::new()
        } else {
            term_position_vars(&group.patterns)
                .into_iter()
                .filter(|v| self.bound.contains(v))
                .collect()
        };
        let (est, _) = self.model.assess(
            group,
            caps,
            &param_vars,
            &gvars,
            &self.bound,
            self.running,
            self.first,
        )?;
        let cost = est.total();
        self.running = est.rows_out;
        self.first = false;
        self.bound
            .extend(gvars.iter().filter(|v| self.needed.contains(*v)).copied());
        self.bound.extend(param_vars);
        loop {
            let mut progressed = false;
            for (k, (pred, args)) in self.externals.iter().enumerate() {
                if self.placed[k] || !callable_static(*pred, args, &self.bound, ctx.registry) {
                    continue;
                }
                let mut vs = Vec::new();
                for a in args {
                    a.collect_vars(&mut vs);
                }
                self.bound.extend(vs);
                self.placed[k] = true;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        Some(cost)
    }
}

/// Pick the evaluation order of the rule's source groups, as indices into
/// `processed`. Errors when a group's required conditions cannot be
/// filled under any order.
fn choose_join_order(
    processed: &[(Group, Vec<ClientFilter>)],
    externals: &[(Symbol, Vec<Term>)],
    needed: &HashSet<Symbol>,
    model: &CostModel,
) -> Result<Vec<usize>> {
    let n = processed.len();
    if n <= 1 {
        return Ok((0..n).collect());
    }
    let sim = OrderSim::new(model, processed, externals, needed);
    let order = if n <= EXHAUSTIVE_LIMIT {
        exhaustive_order(&sim, n)
    } else {
        greedy_order(sim, n)
    };
    order.ok_or_else(|| {
        let offender = processed
            .iter()
            .map(|(g, _)| g)
            .find(|g| !g.missing_required.is_empty())
            .expect("an order search only fails over unfillable required conditions");
        unfillable_order_error(offender)
    })
}

/// Score every feasible permutation, keeping the strictly-cheapest one.
/// Ties keep the first (lexicographically-smallest) order found, so equal
/// costs never make planning order-dependent. Prefixes already at or
/// above the best score are pruned (step costs are non-negative).
fn exhaustive_order(sim: &OrderSim, n: usize) -> Option<Vec<usize>> {
    fn search(
        sim: &OrderSim,
        score: f64,
        used: &mut Vec<bool>,
        prefix: &mut Vec<usize>,
        best: &mut Option<(f64, Vec<usize>)>,
    ) {
        if let Some((best_score, _)) = best {
            if score >= *best_score {
                return;
            }
        }
        if prefix.len() == used.len() {
            *best = Some((score, prefix.clone()));
            return;
        }
        for i in 0..used.len() {
            if used[i] {
                continue;
            }
            let mut next = sim.clone();
            let Some(cost) = next.step(i) else { continue };
            used[i] = true;
            prefix.push(i);
            search(&next, score + cost, used, prefix, best);
            prefix.pop();
            used[i] = false;
        }
    }
    let mut best = None;
    search(sim, 0.0, &mut vec![false; n], &mut Vec::new(), &mut best);
    best.map(|(_, order)| order)
}

/// Greedy cheapest-next: at each position take the feasible group with
/// the lowest incremental weighted cost (first index wins ties).
fn greedy_order(mut sim: OrderSim, n: usize) -> Option<Vec<usize>> {
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    for _ in 0..n {
        let mut best: Option<(f64, usize, OrderSim)> = None;
        for (i, &taken) in used.iter().enumerate() {
            if taken {
                continue;
            }
            let mut next = sim.clone();
            if let Some(cost) = next.step(i) {
                if best.as_ref().is_none_or(|(bc, _, _)| cost < *bc) {
                    best = Some((cost, i, next));
                }
            }
        }
        let (_, i, next) = best?;
        sim = next;
        used[i] = true;
        order.push(i);
    }
    Some(order)
}

/// Is the external predicate callable given the statically-known bound
/// variables?
fn callable_static(
    pred: Symbol,
    args: &[Term],
    bound: &HashSet<Symbol>,
    registry: &ExternalRegistry,
) -> bool {
    let bound: Vec<bool> = args
        .iter()
        .map(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
            _ => false,
        })
        .collect();
    registry.resolve(pred, args, &bound).is_ok()
}

/// Object variables appearing anywhere in the patterns.
fn object_vars(patterns: &[Pattern]) -> HashSet<Symbol> {
    fn walk(p: &Pattern, out: &mut HashSet<Symbol>) {
        if let Some(v) = p.obj_var {
            out.insert(v);
        }
        if let PatValue::Set(sp) = &p.value {
            for e in &sp.elements {
                if let SetElem::Pattern(q) | SetElem::Wildcard(q) = e {
                    walk(q, out);
                }
            }
            if let Some(r) = &sp.rest {
                for c in &r.conditions {
                    walk(c, out);
                }
            }
        }
    }
    let mut out = HashSet::new();
    for p in patterns {
        walk(p, &mut out);
    }
    out
}

/// Variables in *term* positions (oid/label/type/value slots) — the ones a
/// parameterized query can substitute.
fn term_position_vars(patterns: &[Pattern]) -> Vec<Symbol> {
    fn walk(p: &Pattern, out: &mut Vec<Symbol>) {
        for t in [Some(&p.label), p.oid.as_ref(), p.typ.as_ref()]
            .into_iter()
            .flatten()
        {
            t.collect_vars(out);
        }
        match &p.value {
            PatValue::Term(t) => t.collect_vars(out),
            PatValue::Set(sp) => {
                for e in &sp.elements {
                    if let SetElem::Pattern(q) | SetElem::Wildcard(q) = e {
                        walk(q, out);
                    }
                }
                if let Some(r) = &sp.rest {
                    for c in &r.conditions {
                        walk(c, out);
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for p in patterns {
        walk(p, &mut out);
    }
    let mut seen = HashSet::new();
    out.retain(|v| seen.insert(*v));
    out
}

/// Build the bind_for-style source query: head
/// `<bind_for_<src> { <bind_for_V V> ... }>`, tail = the group's patterns,
/// with `params` turned into `$param` slots (§3.4's Qw/Qcs shapes).
fn build_source_query(
    source: Symbol,
    patterns: &[Pattern],
    extract: &[ExtractVar],
    params: &[Symbol],
) -> Rule {
    let mut elements: Vec<SetElem> = Vec::new();
    for e in extract {
        let carrier = crate::graph::carrier_label(e.var);
        let inner = match e.kind {
            VarKind::Scalar => Pattern::lv(
                Term::Const(Value::Str(carrier)),
                PatValue::Term(Term::Var(e.var)),
            ),
            VarKind::Object => Pattern::lv(
                Term::Const(Value::Str(carrier)),
                PatValue::Set(SetPattern {
                    elements: vec![SetElem::Var(e.var)],
                    rest: None,
                }),
            ),
        };
        elements.push(SetElem::Pattern(inner));
    }
    let head = Head::Pattern(Pattern::lv(
        Term::Const(Value::Str(Symbol::intern(&format!("bind_for_{source}")))),
        PatValue::Set(SetPattern {
            elements,
            rest: None,
        }),
    ));

    // Parameterize: replace bound vars with $param slots.
    let subst: Subst = params.iter().map(|v| (*v, Term::Param(*v))).collect();
    let tail = patterns
        .iter()
        .map(|p| TailItem::Match {
            pattern: subst_pattern(p, &subst),
            source: Some(source),
        })
        .collect();
    Rule { head, tail }
}

/// Strip conditions selected by `should_strip` out of a pattern, emitting
/// client-side filters. Constant-valued subpatterns become
/// variable-valued retrievals plus an equality filter; rest-variable
/// conditions move to [`ClientFilter::Rest`].
fn strip_conditions(
    p: &Pattern,
    should_strip: &dyn Fn(&Pattern) -> bool,
    fresh: &mut usize,
    filters: &mut Vec<ClientFilter>,
) -> Pattern {
    let value = match &p.value {
        PatValue::Term(t) => PatValue::Term(t.clone()),
        PatValue::Set(sp) => {
            let mut elements = Vec::with_capacity(sp.elements.len());
            for e in &sp.elements {
                match e {
                    SetElem::Pattern(q) => {
                        let mut q2 = strip_conditions(q, should_strip, fresh, filters);
                        if matches!(&q2.value, PatValue::Term(Term::Const(_))) && should_strip(&q2)
                        {
                            if let PatValue::Term(Term::Const(v)) = q2.value.clone() {
                                *fresh += 1;
                                let var = Symbol::intern(&format!("StripV{fresh}"));
                                q2.value = PatValue::Term(Term::Var(var));
                                filters.push(ClientFilter::ValueEq { var, value: v });
                            }
                        }
                        elements.push(SetElem::Pattern(q2));
                    }
                    SetElem::Wildcard(q) => {
                        elements.push(SetElem::Wildcard(q.clone()));
                    }
                    SetElem::Var(v) => elements.push(SetElem::Var(*v)),
                }
            }
            let rest = sp.rest.as_ref().map(|r| {
                let mut kept = Vec::new();
                for c in &r.conditions {
                    if should_strip(c) {
                        filters.push(ClientFilter::Rest {
                            var: r.var,
                            condition: c.clone(),
                        });
                    } else {
                        kept.push(c.clone());
                    }
                }
                RestSpec {
                    var: r.var,
                    conditions: kept,
                }
            });
            PatValue::Set(SetPattern { elements, rest })
        }
    };
    Pattern {
        obj_var: p.obj_var,
        oid: p.oid.clone(),
        label: p.label.clone(),
        typ: p.typ.clone(),
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::externals::standard_registry;
    use crate::spec::MediatorSpec;
    use crate::veao::expand;
    use engine::unify::UnifyMode;
    use msl::parse_query;
    use oem::sym;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
    use wrappers::Capabilities;

    fn sources() -> HashMap<Symbol, Arc<dyn Wrapper>> {
        let mut m: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        m.insert(sym("whois"), Arc::new(whois_wrapper()));
        m.insert(sym("cs"), Arc::new(cs_wrapper()));
        m
    }

    fn plan_query(query: &str, options: PlannerOptions) -> PhysicalPlan {
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = parse_query(query).unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let srcs = sources();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        plan(&program, &ctx).unwrap()
    }

    #[test]
    fn q1_plan_matches_figure_3_6_shape() {
        // Query → ExternalPred(decomp) → ParamQuery → DupElim, plus the
        // constructor held in RulePlan::head. (Figure 3.6 splits query and
        // extractor; our Query node fuses them.)
        let plan = plan_query(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions::default(),
        );
        assert_eq!(plan.rules.len(), 1);
        let ops: Vec<&str> = plan.rules[0].nodes.iter().map(|n| n.op_name()).collect();
        assert_eq!(
            ops,
            vec!["query", "external pred", "parameterized query", "dup elim"],
            "{ops:?}"
        );
        // The outer query goes to whois (3 conditions vs cs's 0, and no
        // decomp inputs are available before whois runs).
        let Node::Query { source, query, .. } = &plan.rules[0].nodes[0] else {
            panic!()
        };
        assert_eq!(*source, sym("whois"));
        let qtext = msl::printer::rule(query);
        assert!(qtext.contains("bind_for_whois"), "{qtext}");
        assert!(qtext.contains("<dept 'CS'>"), "{qtext}");

        // The parameterized query carries $ slots for R, LN, FN.
        let Node::ParamQuery {
            source,
            params,
            query,
            ..
        } = &plan.rules[0].nodes[2]
        else {
            panic!()
        };
        assert_eq!(*source, sym("cs"));
        let qtext = msl::printer::rule(query);
        let mut ps: Vec<String> = params.iter().map(|p| p.as_str()).collect();
        ps.sort();
        assert_eq!(ps.len(), 3, "{ps:?} in {qtext}");
        assert!(qtext.contains("$"), "{qtext}");
    }

    #[test]
    fn nan_producing_stats_keep_join_order_deterministic() {
        // A wrapper computing selectivity as 0.0/0.0 hands the optimizer a
        // NaN. The join-order comparator must stay total (NaN ⇒ f64::MAX,
        // unknown sorts last) — planning must neither panic nor depend on
        // the input position of the groups.
        use wrappers::SourceStats;
        let mut stats = StatsCache::new();
        for src in ["whois", "cs"] {
            stats.provide(
                sym(src),
                SourceStats {
                    top_level_count: 5,
                    label_counts: [(sym("person"), 5), (sym("R"), 5)].into_iter().collect(),
                    eq_selectivity: [
                        (sym("name"), f64::NAN),
                        (sym("dept"), f64::NAN),
                        (sym("relation"), f64::NAN),
                    ]
                    .into_iter()
                    .collect(),
                },
            );
        }
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let srcs = sources();
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let order = |p: &PhysicalPlan| -> Vec<String> {
            p.rules[0]
                .nodes
                .iter()
                .filter_map(|n| match n {
                    Node::Query { source, .. }
                    | Node::ParamQuery { source, .. }
                    | Node::HashJoin { source, .. } => Some(source.as_str()),
                    _ => None,
                })
                .collect()
        };
        let first = order(&plan(&program, &ctx).unwrap());
        for _ in 0..10 {
            assert_eq!(order(&plan(&program, &ctx).unwrap()), first);
        }
    }

    #[test]
    fn forced_hash_join() {
        let plan = plan_query(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions {
                prefer_bind_join: Some(false),
                ..Default::default()
            },
        );
        let ops: Vec<&str> = plan.rules[0].nodes.iter().map(|n| n.op_name()).collect();
        assert!(ops.contains(&"hash join"), "{ops:?}");
        assert!(!ops.contains(&"parameterized query"), "{ops:?}");
    }

    #[test]
    fn dedup_omitted_when_disabled() {
        let plan = plan_query(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions {
                dedup: false,
                ..Default::default()
            },
        );
        let ops: Vec<&str> = plan.rules[0].nodes.iter().map(|n| n.op_name()).collect();
        assert!(!ops.contains(&"dup elim"));
        assert!(!plan.dedup_results);
    }

    #[test]
    fn pushdown_ablation_strips_conditions() {
        let plan = plan_query(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions {
                pushdown: false,
                ..Default::default()
            },
        );
        let nodes = &plan.rules[0].nodes;
        // The whois query must no longer contain the 'CS' constant...
        let Node::Query { query, .. } = &nodes[0] else {
            panic!()
        };
        let qtext = msl::printer::rule(query);
        assert!(!qtext.contains("'CS'"), "{qtext}");
        // ...and eq-filters appear client-side.
        let eq_filters = nodes
            .iter()
            .filter(|n| matches!(n, Node::ExternalPred { pred, .. } if *pred == sym("eq")))
            .count();
        assert!(eq_filters >= 2, "expected stripped filters, got {nodes:?}");
    }

    #[test]
    fn capability_restriction_inserts_rest_filter() {
        // whois cannot evaluate 'year' conditions: the Q3-style rule keeps
        // <year 3> in the mediator as a RestFilter.
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(
            sym("whois"),
            Arc::new(
                whois_wrapper()
                    .with_capabilities(Capabilities::full().without_condition_on(sym("year"))),
            ),
        );
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let plan = plan(&program, &ctx).unwrap();
        // One of the two rules (the push-into-Rest1 one) gets a RestFilter.
        let has_rest_filter = plan.rules.iter().flat_map(|r| &r.nodes).any(
            |n| matches!(n, Node::RestFilter { var, .. } if var.as_str().starts_with("Rest1")),
        );
        assert!(has_rest_filter, "{plan:?}");
        // And the whois query no longer carries the year condition.
        for r in &plan.rules {
            for n in &r.nodes {
                if let Node::Query { source, query, .. } = n {
                    if *source == sym("whois") {
                        assert!(!msl::printer::rule(query).contains("<year 3>"));
                    }
                }
            }
        }
    }

    #[test]
    fn scan_based_inner_prefers_hash_join() {
        // whois (2000 rows) answers parameterized queries by scanning, so
        // whenever whois is inner the planner must choose a hash join
        // rather than per-tuple scans — under the multi-objective model
        // the bind join's `net` (one priced round-trip per outer row)
        // dwarfs the hash join's single fetch.
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = parse_query("P :- P:<cs_person {}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let mut stats = StatsCache::new();
        // Provide stats for both sources so ordering is cardinality-based.
        stats.provide(
            sym("cs"),
            wrappers::SourceStats {
                top_level_count: 80,
                label_counts: Default::default(),
                eq_selectivity: Default::default(),
            },
        );
        stats.provide(
            sym("whois"),
            wrappers::SourceStats {
                top_level_count: 2000,
                label_counts: [(sym("person"), 2000)].into_iter().collect(),
                eq_selectivity: Default::default(),
            },
        );
        let srcs = sources();
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let plan = plan(&program, &ctx).unwrap();
        let nodes = &plan.rules[0].nodes;
        let whois_bind_joined = nodes
            .iter()
            .any(|n| matches!(n, Node::ParamQuery { source, .. } if *source == sym("whois")));
        assert!(
            !whois_bind_joined,
            "scan-based whois must never be bind-joined: {nodes:?}"
        );
    }

    /// The first source exhaustive and greedy search each pick for the
    /// program's first rule.
    fn searched_first_sources(program: &LogicalProgram, ctx: &PlanContext) -> [Symbol; 2] {
        let body = prepare_body(&program.rules[0], ctx).unwrap();
        let model = CostModel::new(ctx);
        let sim = OrderSim::new(&model, &body.processed, &body.externals, &body.needed);
        let n = body.processed.len();
        let first = |order: Option<Vec<usize>>| body.processed[order.unwrap()[0]].0.source;
        [
            first(exhaustive_order(&sim, n)),
            first(greedy_order(sim.clone(), n)),
        ]
    }

    #[test]
    fn shared_variable_discount_flips_join_order() {
        // Two whois patterns share X, so the whois group is an equi-join
        // (50 × 50 × 0.1 = 250 rows), not a cross product (2500). A plain
        // product would rank whois *larger* than cs (300) and start with
        // cs; the discounted estimate ranks whois smaller, and both
        // searches start there.
        let spec = "<v {<x X> <y Y>}> :- <a {<x X> <y Y>}>@whois \
                    AND <b {<x X>}>@whois AND <c {<y Y>}>@cs";
        let med = MediatorSpec::parse("med", spec).unwrap();
        let q = parse_query("V :- V:<v {}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let mut stats = StatsCache::new();
        stats.provide(
            sym("whois"),
            wrappers::SourceStats {
                top_level_count: 100,
                label_counts: [(sym("a"), 50), (sym("b"), 50)].into_iter().collect(),
                eq_selectivity: Default::default(),
            },
        );
        stats.provide(
            sym("cs"),
            wrappers::SourceStats {
                top_level_count: 300,
                label_counts: [(sym("c"), 300)].into_iter().collect(),
                eq_selectivity: Default::default(),
            },
        );
        let srcs = sources();
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        assert_eq!(
            searched_first_sources(&program, &ctx),
            [sym("whois"), sym("whois")]
        );
        let plan = plan(&program, &ctx).unwrap();
        let Node::Query { source, .. } = &plan.rules[0].nodes[0] else {
            panic!("expected a query first: {:?}", plan.rules[0].nodes)
        };
        assert_eq!(*source, sym("whois"));
    }

    #[test]
    fn equal_cost_orders_tie_break_on_input_order() {
        // Two indistinguishable groups (same wrapper, same stats): every
        // join order costs the same. Both enumerators must settle the tie
        // on input position — first spec order, then its mirror — and do
        // so identically on every replan.
        let registry = standard_registry();
        let mut stats = StatsCache::new();
        for src in ["s1", "s2"] {
            stats.provide(
                sym(src),
                wrappers::SourceStats {
                    top_level_count: 100,
                    label_counts: [(sym("p"), 100)].into_iter().collect(),
                    eq_selectivity: Default::default(),
                },
            );
        }
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(sym("s1"), Arc::new(cs_wrapper()));
        srcs.insert(sym("s2"), Arc::new(cs_wrapper()));
        for (spec, want_first) in [
            ("<v {<x X>}> :- <p {<x X>}>@s1 AND <p {<x X>}>@s2", "s1"),
            ("<v {<x X>}> :- <p {<x X>}>@s2 AND <p {<x X>}>@s1", "s2"),
        ] {
            let med = MediatorSpec::parse("med", spec).unwrap();
            let q = parse_query("V :- V:<v {}>@med").unwrap();
            let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
            let options = PlannerOptions::default();
            let ctx = PlanContext {
                sources: &srcs,
                registry: &registry,
                stats: &stats,
                options: &options,
                analysis: None,
            };
            for _ in 0..5 {
                assert_eq!(
                    searched_first_sources(&program, &ctx),
                    [sym(want_first), sym(want_first)],
                    "both searches must keep the input order on ties"
                );
            }
        }
    }

    #[test]
    fn indexed_inner_prefers_bind_join() {
        // The reverse shape: whois outer (selective conditions), cs inner.
        // cs answers parameterized lookups via indexes → bind join.
        let plan = plan_query(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions::default(),
        );
        let nodes = &plan.rules[0].nodes;
        assert!(
            nodes.iter().any(|n| matches!(
                n,
                Node::ParamQuery { source, .. } if *source == sym("cs")
            )),
            "{nodes:?}"
        );
    }

    #[test]
    fn unknown_source_is_an_error() {
        let med = MediatorSpec::parse("med", "<v {<a A>}> :- <p {<a A>}>@nowhere").unwrap();
        let q = parse_query("X :- X:<v {}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let srcs = sources();
        let options = PlannerOptions::default();
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        assert!(matches!(
            plan(&program, &ctx),
            Err(MedError::UnknownSource(_))
        ));
    }
}
