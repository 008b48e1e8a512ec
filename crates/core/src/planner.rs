//! The cost-based optimizer (§3.4–3.5).
//!
//! Turns each logical datamerge rule into a physical chain:
//!
//! * groups the tail's match items by source, pushing every condition the
//!   source can evaluate; conditions a source *cannot* evaluate
//!   (capability restrictions, §3.5) are stripped from the source query
//!   and kept as client-side filters;
//! * starts every chain with the external-predicate calls its constants
//!   alone make callable (`Chain::start`): a point lookup's
//!   `decomp('Joe Chung', LN, FN)` runs before any source and binds the
//!   first source query;
//! * walks a chain one group at a time with a single step (`Chain::step`).
//!   A step picks the group's `$param` variables, prices the group with
//!   the multi-objective [`CostEstimate`] (rows / cpu / net / memory,
//!   collapsed by [`CostEstimate::total`]), chooses between a
//!   **parameterized query** (bind join, the plan of Figure 3.6) and a
//!   **fetch + hash join**, binds the group's variables, and places every
//!   external-predicate call that has become callable (§2's adornments).
//!   The `net` component prices round-trips with the measured per-source
//!   latency, failure-rate and cache-hit EWMAs
//!   ([`crate::stats::StatsCache::per_call_cost_ms`]);
//! * orders the groups by stepping candidate orders and summing their
//!   weighted costs: every feasible order for small rule bodies (up to
//!   `EXHAUSTIVE_LIMIT` = 6 groups), greedy cheapest-next above it;
//! * steps the chosen order once more and emits, per step, its source
//!   node, the group's client-side filters and the placed external calls,
//!   so the estimates that chose the order are the ones EXPLAIN renders;
//! * appends duplicate elimination per MSL's semantics (footnote 9).

use crate::cost::CostEstimate;
use crate::error::{MedError, Result};
use crate::externals::ExternalRegistry;
use crate::graph::{ExtractVar, Node, PhysicalPlan, RulePlan, VarKind};
use crate::logical::LogicalProgram;
use crate::stats::{StatsCache, JOIN_EQ_SELECTIVITY};
use engine::subst::{subst, Subst};
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

/// One source's share of a rule body, with what join ordering reads of it
/// computed once.
struct Group {
    source: Symbol,
    /// The source's match patterns, stripped of what it cannot evaluate.
    patterns: Vec<Pattern>,
    /// The stripped conditions, applied client-side after the group.
    filters: Vec<ClientFilter>,
    /// Required condition labels no pattern satisfies on its own — the
    /// planner must order this group after one that binds the condition
    /// variable and reach it by bind join ($param fills the condition).
    missing_required: Vec<Symbol>,
    /// Every variable of the patterns.
    vars: HashSet<Symbol>,
    /// The object variables among them.
    object_vars: HashSet<Symbol>,
    /// The variables in term positions, first occurrence first: the ones
    /// a `$param` slot can fill.
    term_vars: Vec<Symbol>,
}

/// A condition stripped out of a source query, to be applied client-side.
enum ClientFilter {
    /// `var = value` on a freshly introduced retrieval variable.
    ValueEq { var: Symbol, value: Value },
    /// The object-set bound to `var` must contain a member matching the
    /// condition.
    Rest { var: Symbol, condition: Pattern },
}

/// A rule body ready for join ordering: its source groups, its
/// external-predicate calls, and the variables later steps need
/// extracted.
struct Body {
    groups: Vec<Group>,
    externals: Vec<(Symbol, Vec<Term>)>,
    needed: HashSet<Symbol>,
}

fn prepare_body(rule: &Rule, ctx: &PlanContext) -> Result<Body> {
    // ---- partition the tail --------------------------------------------
    let mut by_source: Vec<(Symbol, Vec<Pattern>)> = Vec::new();
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
                match by_source.iter_mut().find(|(s, _)| s == src) {
                    Some((_, patterns)) => patterns.push(pattern.clone()),
                    None => by_source.push((*src, vec![pattern.clone()])),
                }
            }
            TailItem::External { name, args } => externals.push((*name, args.clone())),
        }
    }

    // ---- capability handling / pushdown --------------------------------
    let mut fresh_counter = 0usize;
    let mut groups: Vec<Group> = Vec::with_capacity(by_source.len());
    for (source, patterns) in by_source {
        let wrapper = &ctx.sources[&source];
        let caps = wrapper.capabilities();
        let mut filters: Vec<ClientFilter> = Vec::new();
        let patterns: Vec<Pattern> = patterns
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
                    other => return Err(MedError::Planning(format!("source '{source}': {other}"))),
                }
            }
        }
        let mut vars = Vec::new();
        for p in &patterns {
            p.collect_vars(&mut vars);
        }
        groups.push(Group {
            source,
            vars: vars.into_iter().collect(),
            object_vars: object_vars(&patterns),
            term_vars: term_position_vars(&patterns),
            patterns,
            filters,
            missing_required,
        });
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
    for g in &groups {
        needed.extend(g.filters.iter().map(|f| match f {
            ClientFilter::ValueEq { var, .. } | ClientFilter::Rest { var, .. } => *var,
        }));
    }
    // Vars shared between groups are join/param variables → needed.
    let mut seen_in: HashMap<Symbol, usize> = HashMap::new();
    for g in &groups {
        for &v in &g.vars {
            *seen_in.entry(v).or_insert(0) += 1;
        }
    }
    needed.extend(seen_in.into_iter().filter(|&(_, n)| n > 1).map(|(v, _)| v));
    Ok(Body {
        groups,
        externals,
        needed,
    })
}

fn plan_rule(rule: &Rule, ctx: &PlanContext) -> Result<RulePlan> {
    let body = prepare_body(rule, ctx)?;

    // ---- join order ------------------------------------------------------
    // Candidate orders are scored by the same step the chain is built
    // with, so the scores that chose the order are exactly the estimates
    // EXPLAIN renders. Orders that cannot fill a group's required
    // conditions are skipped.
    let model = CostModel::new(ctx);
    let order = choose_join_order(&body, &model)?;

    // ---- build the chain ---------------------------------------------------
    // `estimates` stays parallel to `nodes`: every push into one is paired
    // with a push into the other, so EXPLAIN ANALYZE can line the cost
    // model's guess up against what actually flowed through each node.
    let mut nodes: Vec<Node> = Vec::new();
    let mut estimates: Vec<CostEstimate> = Vec::new();
    let (mut chain, seeded) = Chain::start(&body, ctx.registry);
    push_externals(&mut nodes, &mut estimates, &body, seeded, &chain);
    for i in order {
        let group = &body.groups[i];
        // Extraction: group vars that are needed downstream and not already
        // bound (params are in the table).
        let extract = group.extract_vars(|v| body.needed.contains(v) && !chain.bound.contains(v));
        // A group with unmet required conditions (a form-based source's
        // mandatory field) is only evaluable as a bind join whose `$param`
        // slots fill those conditions; the step refuses it otherwise.
        let step = chain
            .step(&body, &model, i)
            .ok_or_else(|| unfillable_order_error(group))?;
        let node = match step.access {
            Access::Fetch => Node::Query {
                source: group.source,
                query: build_source_query(group.source, &group.patterns, &extract, &[]),
                vars: extract,
            },
            Access::Bind => Node::ParamQuery {
                source: group.source,
                query: build_source_query(
                    group.source,
                    &group.patterns,
                    &extract,
                    &step.param_vars,
                ),
                params: step.param_vars,
                vars: extract,
            },
            Access::Hash => {
                // Fetch the group and hash-join on the vars bound before it.
                // Externals bind only needed vars, which the step has
                // already bound from the group, so the group's vars bound
                // now are exactly its extracted vars and its join vars.
                let vars = group.extract_vars(|v| chain.bound.contains(v));
                let join_vars = vars
                    .iter()
                    .map(|e| e.var)
                    .filter(|v| !extract.iter().any(|e| e.var == *v))
                    .collect();
                Node::HashJoin {
                    source: group.source,
                    query: build_source_query(group.source, &group.patterns, &vars, &[]),
                    vars,
                    join_vars,
                }
            }
        };
        nodes.push(node);
        estimates.push(step.est);

        // Client-side filters for what the source could not evaluate.
        for f in &group.filters {
            nodes.push(match f {
                ClientFilter::ValueEq { var, value } => Node::ExternalPred {
                    pred: Symbol::intern("eq"),
                    args: vec![Term::Var(*var), Term::Const(value.clone())],
                    new_vars: Vec::new(),
                },
                ClientFilter::Rest { var, condition } => Node::RestFilter {
                    var: *var,
                    condition: condition.clone(),
                },
            });
            estimates.push(CostEstimate::rows_only(chain.running));
        }
        push_externals(&mut nodes, &mut estimates, &body, step.externals, &chain);
    }

    if let Some(i) = chain.placed.iter().position(|p| !p) {
        return Err(MedError::Planning(format!(
            "external predicate {} is not callable in any placement \
             (no implementation matches the available bindings)",
            body.externals[i].0
        )));
    }

    if ctx.options.dedup {
        let mut hv = Vec::new();
        rule.head.collect_vars(&mut hv);
        let mut seen = HashSet::new();
        hv.retain(|v| seen.insert(*v));
        nodes.push(Node::DupElim { vars: hv });
        estimates.push(CostEstimate::rows_only(chain.running));
    }

    Ok(RulePlan {
        nodes,
        estimates,
        head: rule.head.clone(),
    })
}

/// Emit an external-predicate node per placed call, each estimated at the
/// chain's running rows.
fn push_externals(
    nodes: &mut Vec<Node>,
    estimates: &mut Vec<CostEstimate>,
    body: &Body,
    placed: Vec<(usize, Vec<Symbol>)>,
    chain: &Chain,
) {
    for (k, new_vars) in placed {
        let (pred, args) = &body.externals[k];
        nodes.push(Node::ExternalPred {
            pred: *pred,
            args: args.clone(),
            new_vars,
        });
        estimates.push(CostEstimate::rows_only(chain.running));
    }
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

    /// The group's variables `keep` selects, as extraction slots sorted by
    /// name.
    fn extract_vars(&self, keep: impl Fn(&Symbol) -> bool) -> Vec<ExtractVar> {
        let mut out: Vec<ExtractVar> = self
            .vars
            .iter()
            .filter(|v| keep(v))
            .map(|&var| ExtractVar {
                var,
                kind: if self.object_vars.contains(&var) {
                    VarKind::Object
                } else {
                    VarKind::Scalar
                },
            })
            .collect();
        out.sort_by(|a, b| a.var.cmp_str(&b.var));
        out
    }
}

/// The multi-objective cost model. One instance prices every chain step,
/// the join-order search's and the chain builder's alike, so the scores
/// that choose the join order are exactly the numbers `EXPLAIN ANALYZE`
/// renders drift against.
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

    /// Price `group` as the next step of `chain`, with `$param` slots for
    /// `param_vars`. Returns the step's cost breakdown and how the group is
    /// reached; `None` when the step is infeasible at this position
    /// (required conditions no `$param` can fill yet).
    fn assess(
        &self,
        group: &Group,
        chain: &Chain,
        param_vars: &[Symbol],
    ) -> Option<(CostEstimate, Access)> {
        let caps = self.ctx.sources[&group.source].capabilities();
        if !group.fillable_by(caps, param_vars) {
            return None;
        }
        let forced_bind = !group.missing_required.is_empty();
        let rows_g = self.group_rows(group);
        let per_call = self.per_call_ms(group.source);
        let shared = group
            .vars
            .iter()
            .filter(|v| chain.bound.contains(*v))
            .count();
        if chain.first && shared == 0 {
            // One fetch: every group row crosses the wire, is scanned
            // once, and flows on (crossed with the chain's one seed row).
            return Some((
                CostEstimate {
                    rows_out: rows_g,
                    cpu: rows_g,
                    net: per_call,
                    memory: rows_g,
                },
                Access::Fetch,
            ));
        }
        let running = chain.running;
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
        Some(if use_bind {
            (bind, Access::Bind)
        } else {
            (hash, Access::Hash)
        })
    }
}

/// A chain's state between steps: the variables bound so far, which
/// externals are placed, the rows flowing out of the last step, and
/// whether no group has been taken yet. [`Chain::start`] makes one; the
/// join-order search clones it to try a prefix, and the chain builder
/// steps one copy through the chosen order.
#[derive(Clone)]
struct Chain {
    bound: HashSet<Symbol>,
    placed: Vec<bool>,
    running: f64,
    first: bool,
}

/// How a step reaches its group's source.
enum Access {
    /// One plain fetch: a first group that shares no bound variable.
    Fetch,
    /// A parameterized query per outer `$param` tuple (bind join).
    Bind,
    /// One fetch, hash-joined on the variables bound before the group.
    Hash,
}

/// What taking one group as a chain's next step decided.
struct Step {
    est: CostEstimate,
    access: Access,
    /// The group's bound term-position variables, filled by `$param` slots.
    param_vars: Vec<Symbol>,
    /// The externals placed after the group, as indices into
    /// `Body::externals`, each with the variables it newly binds.
    externals: Vec<(usize, Vec<Symbol>)>,
}

impl Chain {
    /// A chain before its first group, with every external that is
    /// callable from the rule's constants alone already placed, so its
    /// outputs are bound before any source is asked (a point lookup's
    /// `decomp('Joe Chung', LN, FN)` binds cs's names). Returns the chain
    /// and those externals, each with the variables it binds.
    fn start(body: &Body, registry: &ExternalRegistry) -> (Chain, Vec<(usize, Vec<Symbol>)>) {
        let mut chain = Chain {
            bound: HashSet::new(),
            placed: vec![false; body.externals.len()],
            running: 1.0,
            first: true,
        };
        let seeded = chain.place_externals(body, registry);
        (chain, seeded)
    }

    /// Take group `i` of `body` as the next step: choose its `$param`
    /// variables, price it, bind the group's needed variables, then place
    /// every external that has become callable (externals bind variables
    /// too, which can make later groups' bind joins feasible). `None`, with
    /// the chain unchanged, when the group is infeasible at this position.
    fn step(&mut self, body: &Body, model: &CostModel, i: usize) -> Option<Step> {
        let group = &body.groups[i];
        let param_vars: Vec<Symbol> = group
            .term_vars
            .iter()
            .copied()
            .filter(|v| self.bound.contains(v))
            .collect();
        let (est, access) = model.assess(group, self, &param_vars)?;
        self.running = est.rows_out;
        self.first = false;
        // `$param` variables are bound already, so binding the group's
        // needed variables binds everything a later step can join on.
        self.bound
            .extend(group.vars.iter().filter(|v| body.needed.contains(*v)));
        let externals = self.place_externals(body, model.ctx.registry);
        Some(Step {
            est,
            access,
            param_vars,
            externals,
        })
    }

    /// The external-placement fixpoint: place every unplaced external that
    /// is callable with the bound variables, bind its arguments, and repeat
    /// until none is left callable. Returns what was placed, in order.
    fn place_externals(
        &mut self,
        body: &Body,
        registry: &ExternalRegistry,
    ) -> Vec<(usize, Vec<Symbol>)> {
        let mut placed = Vec::new();
        loop {
            let before = placed.len();
            for (k, (pred, args)) in body.externals.iter().enumerate() {
                if self.placed[k] || !callable_static(*pred, args, &self.bound, registry) {
                    continue;
                }
                let mut new_vars = Vec::new();
                for a in args {
                    a.collect_vars(&mut new_vars);
                }
                new_vars.retain(|v| !self.bound.contains(v));
                self.bound.extend(new_vars.iter().copied());
                self.placed[k] = true;
                placed.push((k, new_vars));
            }
            if placed.len() == before {
                return placed;
            }
        }
    }
}

/// Pick the evaluation order of the rule's source groups, as indices into
/// `body.groups`. Errors when a group's required conditions cannot be
/// filled under any order.
fn choose_join_order(body: &Body, model: &CostModel) -> Result<Vec<usize>> {
    let n = body.groups.len();
    if n <= 1 {
        return Ok((0..n).collect());
    }
    let order = if n <= EXHAUSTIVE_LIMIT {
        exhaustive_order(body, model)
    } else {
        greedy_order(body, model)
    };
    order.ok_or_else(|| {
        let offender = body
            .groups
            .iter()
            .find(|g| !g.missing_required.is_empty())
            .expect("an order search only fails over unfillable required conditions");
        unfillable_order_error(offender)
    })
}

/// Score every feasible permutation, keeping the strictly-cheapest one.
/// Ties keep the first (lexicographically-smallest) order found, so equal
/// costs never make planning order-dependent. Prefixes already at or
/// above the best score are pruned (step costs are non-negative).
fn exhaustive_order(body: &Body, model: &CostModel) -> Option<Vec<usize>> {
    fn search(
        body: &Body,
        model: &CostModel,
        chain: &Chain,
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
            let mut next = chain.clone();
            let Some(step) = next.step(body, model, i) else {
                continue;
            };
            used[i] = true;
            prefix.push(i);
            search(
                body,
                model,
                &next,
                score + step.est.total(),
                used,
                prefix,
                best,
            );
            prefix.pop();
            used[i] = false;
        }
    }
    let mut best = None;
    let (chain, _) = Chain::start(body, model.ctx.registry);
    let mut used = vec![false; body.groups.len()];
    search(
        body,
        model,
        &chain,
        0.0,
        &mut used,
        &mut Vec::new(),
        &mut best,
    );
    best.map(|(_, order)| order)
}

/// Greedy cheapest-next: at each position take the feasible group with
/// the lowest incremental weighted cost (first index wins ties).
fn greedy_order(body: &Body, model: &CostModel) -> Option<Vec<usize>> {
    let n = body.groups.len();
    let (mut chain, _) = Chain::start(body, model.ctx.registry);
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    for _ in 0..n {
        let mut best: Option<(f64, usize, Chain)> = None;
        for (i, &taken) in used.iter().enumerate() {
            if taken {
                continue;
            }
            let mut next = chain.clone();
            if let Some(step) = next.step(body, model, i) {
                let cost = step.est.total();
                if best.as_ref().is_none_or(|(bc, _, _)| cost < *bc) {
                    best = Some((cost, i, next));
                }
            }
        }
        let (_, i, next) = best?;
        chain = next;
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
    let as_params: Subst = params.iter().map(|v| (*v, Term::Param(*v))).collect();
    let tail = patterns
        .iter()
        .map(|p| TailItem::Match {
            pattern: subst(p, &as_params),
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

    /// The source each source node of `nodes` asks, in chain order.
    fn sources_asked(nodes: &[Node]) -> Vec<Symbol> {
        nodes
            .iter()
            .filter_map(|n| match n {
                Node::Query { source, .. }
                | Node::ParamQuery { source, .. }
                | Node::HashJoin { source, .. } => Some(*source),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn figure_3_6_shape_when_decomp_reads_whois() {
        // Query → ExternalPred(decomp) → ParamQuery → DupElim, plus the
        // constructor held in RulePlan::head. (Figure 3.6 splits query and
        // extractor; our Query node fuses them.) An e-mail lookup names no
        // person, so decomp's input N comes from whois. Its first rule
        // pushes the condition into whois's Rest1.
        let plan = plan_query(
            "P :- P:<cs_person {<e_mail 'chung@cs'>}>@med",
            PlannerOptions::default(),
        );
        assert_eq!(plan.rules.len(), 2);
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
        assert!(qtext.contains("<e_mail 'chung@cs'>"), "{qtext}");

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
    fn point_lookup_calls_decomp_before_any_source() {
        // Q1 names its person: decomp('Joe Chung', LN, FN) is callable from
        // the constant alone, so the chain starts with it, and the cs query
        // it binds is the first source node (a bind join on the seed row).
        // With the built-in statistics cs is estimated at 10 rows, so whois
        // is fetched once and hash-joined on R.
        let plan = plan_query(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions::default(),
        );
        assert_eq!(plan.rules.len(), 1);
        let nodes = &plan.rules[0].nodes;
        let ops: Vec<&str> = nodes.iter().map(|n| n.op_name()).collect();
        assert_eq!(
            ops,
            vec![
                "external pred",
                "parameterized query",
                "hash join",
                "dup elim"
            ],
            "{ops:?}"
        );
        let Node::ExternalPred { args, new_vars, .. } = &nodes[0] else {
            panic!()
        };
        assert_eq!(args[0], Term::Const(Value::Str(sym("Joe Chung"))));
        assert_eq!(new_vars, &[sym("LN_r1"), sym("FN_r1")]);
        let Node::ParamQuery { params, .. } = &nodes[1] else {
            panic!()
        };
        assert_eq!(params, &[sym("FN_r1"), sym("LN_r1")]);
        let Node::HashJoin { join_vars, .. } = &nodes[2] else {
            panic!()
        };
        assert_eq!(join_vars, &[sym("R_r1")]);
        assert_eq!(sources_asked(nodes), [sym("cs"), sym("whois")]);
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
        let order = |p: &PhysicalPlan| sources_asked(&p.rules[0].nodes);
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
        let whois = nodes.iter().find_map(|n| match n {
            Node::Query { source, query, .. }
            | Node::ParamQuery { source, query, .. }
            | Node::HashJoin { source, query, .. }
                if *source == sym("whois") =>
            {
                Some(query)
            }
            _ => None,
        });
        let qtext = msl::printer::rule(whois.expect("a whois node"));
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
        let first = |order: Option<Vec<usize>>| body.groups[order.unwrap()[0]].source;
        [
            first(exhaustive_order(&body, &model)),
            first(greedy_order(&body, &model)),
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

    /// Step every order of the first rule's groups through `Chain::step`,
    /// the way a regret check judges a plan, and assert that `plan` keeps
    /// the order with the least summed cost among the feasible ones, the
    /// earliest on ties, and prices its source nodes with those steps.
    /// Returns how many orders were feasible.
    fn assert_plan_keeps_the_cheapest_order(program: &LogicalProgram, ctx: &PlanContext) -> usize {
        fn orders(n: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if prefix.len() == n {
                out.push(prefix.clone());
            }
            for i in 0..n {
                if prefix.contains(&i) {
                    continue;
                }
                prefix.push(i);
                orders(n, prefix, out);
                prefix.pop();
            }
        }
        let body = prepare_body(&program.rules[0], ctx).unwrap();
        let model = CostModel::new(ctx);
        let mut all = Vec::new();
        orders(body.groups.len(), &mut Vec::new(), &mut all);
        let mut feasible = 0;
        let mut cheapest: Option<(f64, Vec<usize>)> = None;
        for order in all {
            let (mut chain, _) = Chain::start(&body, ctx.registry);
            let Some(cost) = order.iter().try_fold(0.0, |sum, &i| {
                Some(sum + chain.step(&body, &model, i)?.est.total())
            }) else {
                continue;
            };
            feasible += 1;
            if cheapest.as_ref().is_none_or(|(least, _)| cost < *least) {
                cheapest = Some((cost, order));
            }
        }
        let (least, want) = cheapest.expect("some order is feasible");

        let plan = plan(program, ctx).unwrap();
        let rule = &plan.rules[0];
        let mut kept = Vec::new();
        let mut priced = 0.0;
        for (node, est) in rule.nodes.iter().zip(&rule.estimates) {
            if let Node::Query { source, .. }
            | Node::ParamQuery { source, .. }
            | Node::HashJoin { source, .. } = node
            {
                kept.push(
                    body.groups
                        .iter()
                        .position(|g| g.source == *source)
                        .unwrap(),
                );
                priced += est.total();
            }
        }
        assert_eq!(
            kept, want,
            "plan kept {kept:?}; the cheapest order is {want:?}"
        );
        assert_eq!(priced, least);
        feasible
    }

    #[test]
    fn plan_keeps_the_cheapest_stepped_order() {
        // Q1: whois and cs, joined through decomp.
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med").unwrap();
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
        assert_eq!(assert_plan_keeps_the_cheapest_order(&program, &ctx), 2);

        // Three match items over two sources, and three sources of
        // different sizes; then two indistinguishable sources, where every
        // order ties and the input order must win.
        let mut stats = StatsCache::new();
        for (src, rows) in [
            ("whois", 100),
            ("cs", 300),
            ("s1", 100),
            ("s2", 1000),
            ("s3", 10),
            ("s4", 100),
        ] {
            stats.provide(
                sym(src),
                wrappers::SourceStats {
                    top_level_count: rows,
                    label_counts: [(sym("a"), 50), (sym("b"), 50), (sym("c"), rows)]
                        .into_iter()
                        .collect(),
                    eq_selectivity: Default::default(),
                },
            );
        }
        let mut srcs = sources();
        for src in ["s1", "s2", "s3", "s4"] {
            srcs.insert(sym(src), Arc::new(cs_wrapper()));
        }
        for (spec, orders) in [
            (
                "<v {<x X> <y Y>}> :- <a {<x X> <y Y>}>@whois \
                 AND <b {<x X>}>@whois AND <c {<y Y>}>@cs",
                2,
            ),
            (
                "<v {<x X> <y Y>}> :- <c {<x X>}>@s1 \
                 AND <c {<x X> <y Y>}>@s2 AND <c {<y Y>}>@s3",
                6,
            ),
            ("<v {<x X>}> :- <c {<x X>}>@s4 AND <c {<x X>}>@s1", 2),
        ] {
            let med = MediatorSpec::parse("med", spec).unwrap();
            let q = parse_query("V :- V:<v {}>@med").unwrap();
            let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
            let ctx = PlanContext {
                sources: &srcs,
                registry: &registry,
                stats: &stats,
                options: &options,
                analysis: None,
            };
            assert_eq!(
                assert_plan_keeps_the_cheapest_order(&program, &ctx),
                orders,
                "{spec}"
            );
        }
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
