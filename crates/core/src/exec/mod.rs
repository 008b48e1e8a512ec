//! The datamerge engine (§3.4).
//!
//! "The datamerge engine executes the graph in a bottom-up fashion":
//! source results are placed in the mediator's memory, binding tables flow
//! from node to node, and the constructor creates the final result objects.
//!
//! There is one executor and it works in two phases: every rule chain
//! runs into a memory of its own, then one constructor builds the result
//! objects from each chain's final table and that chain's memory, so
//! semantic oids fuse across chains.
//!
//! Each rule chain runs as a pull pipeline of bounded binding batches
//! ([`ExecOptions::batch_size`] rows at most): query ops yield rows as
//! extraction proceeds, filter/join/external ops consume and emit
//! incrementally, and only genuine pipeline breakers accumulate — the
//! dup-elim seen-set, a hash join's build side, the final answer sink.
//! §3.2's semantics are set-oriented and order-insensitive, so the batch
//! size never changes an answer; the differential oracle for that claim is
//! [`crate::naive`], which shares no operator, fetch or extraction code
//! with this module.
//!
//! §3.4's parameterized-query node sends its source one query per binding
//! tuple. Against a source that accepts value sets
//! ([`wrappers::Capabilities::parameterized_sets`]) the op sends one per
//! *input batch* instead — `fetch`'s `ParamSource::prefetch`, with the
//! `valueset` module beside it — and files the answer per tuple, so memo,
//! cache and statistics cannot tell the difference; any other source keeps
//! the per-tuple path.
//!
//! Every op records a [`crate::metrics::NodeMetrics`] while it runs —
//! rows in/out, source round-trips, timing — into a per-query
//! [`QueryTrace`]; with [`ExecOptions::trace`] enabled the emitted binding
//! tables are additionally rendered, which is how the Figure 3.6
//! walkthrough is regenerated.

mod absorb;
mod fetch;
mod ops;

use crate::cache::AnswerCache;
use crate::error::{MedError, Result};
use crate::externals::ExternalRegistry;
use crate::graph::{ExtractVar, Node, PhysicalPlan, RulePlan};
use crate::metrics::{NodeTrace, QueryTrace, RuleTrace};
use crate::retry::{CircuitBreaker, FaultOptions, OnSourceFailure, Sleeper, ThreadSleeper};
use crate::table::BindingTable;
use engine::bindings::BoundValue;
use engine::construct::Constructor;
use msl::Rule;
use oem::{ObjectStore, Symbol, Value};
use ops::{build_ops, pull, Batch};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use wrappers::fault::{Clock, SystemClock};
use wrappers::{Rows, Wrapper};

pub(crate) use absorb::absorb_all;

/// Execution options.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Render the binding table every node emits, and the node's source
    /// query or operation, into its trace entry (Figure 3.6's rectangles).
    /// Counters and timings are collected regardless — only text is
    /// costly enough to gate.
    pub trace: bool,
    /// Execute the per-rule chains on separate threads (`std::thread::scope`).
    /// The chains of a logical program are independent until construction,
    /// so this is safe for any plan — construction is sequential and one
    /// constructor serves every chain, preserving cross-rule semantic-oid
    /// fusion.
    pub parallel: bool,
    /// What to do when a source misbehaves: retry policy, per-source
    /// deadline, circuit breaker, and the Fail/Partial degradation mode.
    pub fault: FaultOptions,
    /// The mediator's source-answer cache, when enabled. Shared across
    /// parallel chains (and across queries — the [`crate::Mediator`] owns
    /// it) behind the cache's internal lock.
    pub cache: Option<Arc<AnswerCache>>,
    /// `false` is equivalent to `batch_size = usize::MAX`: the same
    /// pipeline with whole tables flowing between operators. The default
    /// is `true`. The field carries no other meaning and goes with the
    /// next `benchmark` PR that stops naming it
    /// (`crates/bench/src/bin/perf` builds this struct by full literal).
    pub streaming: bool,
    /// Upper bound on rows per batch flowing between operators. Clamped to
    /// at least 1.
    pub batch_size: usize,
    /// `None`, which is what [`crate::Mediator`] always passes, makes the
    /// execution build its own [`ParamMemo`]; a `Some` is used in its
    /// place. Nothing sets it: like `streaming`, the field goes with the
    /// next `benchmark` PR that stops naming it.
    pub param_memo: Option<Arc<ParamMemo>>,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            trace: false,
            parallel: false,
            fault: FaultOptions::default(),
            cache: None,
            streaming: true,
            batch_size: 1024,
            param_memo: None,
        }
    }
}

/// Key of the parameterized-query memo: the unfilled query's id
/// ([`ParamMemo::query_id`]) and the bound parameter tuple.
type ParamMemoKey = (usize, Vec<Value>);

/// One memo slot per parameter tuple. The slot's own lock is held across
/// the fetch — chains racing on the *same* tuple block and then reuse the
/// one answer — while the map lock is released before any I/O, so
/// distinct tuples and distinct sources fetch concurrently. A failed
/// fetch leaves the slot empty; the next chain to need the tuple retries.
type ParamSlot = Arc<Mutex<Option<Arc<Rows>>>>;

/// The parameterized-query memo of one execution: the answers to bound
/// parameter tuples its chains have already fetched, keyed by the
/// unfilled query at its source and the tuple. Chains that fill the same parameterized query
/// with the same tuple pay one round-trip between them, in sequence or in
/// parallel. It is dropped with the execution: between queries a source
/// answer lives in the [`AnswerCache`] and nowhere else.
#[derive(Debug, Default)]
pub struct ParamMemo {
    /// Every `(source, unfilled query)` a slot was asked for; its position
    /// is its id. Nodes whose source and query are structurally equal
    /// share one id, so they share slots.
    queries: Mutex<Vec<(Symbol, Rule)>>,
    slots: Mutex<HashMap<ParamMemoKey, ParamSlot>>,
}

impl ParamMemo {
    /// The id of the parameterized `query` at `source`, assigned on first
    /// sight.
    fn query_id(&self, source: Symbol, query: &Rule) -> usize {
        let mut queries = self.queries.lock();
        match queries.iter().position(|(s, q)| *s == source && q == query) {
            Some(id) => id,
            None => {
                queries.push((source, query.clone()));
                queries.len() - 1
            }
        }
    }

    /// The slot for `key`, created empty if absent. Only the map lock is
    /// held here; callers lock the returned slot across their fetch.
    fn slot(&self, key: ParamMemoKey) -> ParamSlot {
        Arc::clone(self.slots.lock().entry(key).or_default())
    }
}

/// Per-execution fault machinery, shared by every chain (the circuit
/// breaker must see failures across parallel chains).
struct FaultRuntime {
    opts: FaultOptions,
    circuit: CircuitBreaker,
    sleeper: Arc<dyn Sleeper>,
    clock: Arc<dyn Clock>,
}

impl FaultRuntime {
    fn new(opts: &FaultOptions) -> FaultRuntime {
        FaultRuntime {
            opts: opts.clone(),
            circuit: CircuitBreaker::new(opts.circuit_threshold),
            sleeper: opts
                .sleeper
                .clone()
                .unwrap_or_else(|| Arc::new(ThreadSleeper)),
            clock: opts
                .clock
                .clone()
                .unwrap_or_else(|| Arc::new(SystemClock::new())),
        }
    }
}

/// Everything one chain shares with its environment: sources, externals,
/// fault machinery, shared memo/cache, tracing flag.
struct ChainCtx<'a> {
    sources: &'a HashMap<Symbol, Arc<dyn Wrapper>>,
    registry: &'a ExternalRegistry,
    fault: &'a FaultRuntime,
    /// Parameterized-query answers shared across every chain of this
    /// execution (same lock pattern as the circuit breaker): chains
    /// sending the same bound tuple to the same source pay one
    /// round-trip, not one each. It ends with the execution.
    param_memo: &'a ParamMemo,
    cache: Option<&'a AnswerCache>,
    trace_on: bool,
}

/// A query a node sends: the source it goes to, the query, and the
/// variables each answer row binds.
#[derive(Clone, Copy)]
struct SourceQuery<'q> {
    source: Symbol,
    query: &'q Rule,
    vars: &'q [ExtractVar],
}

/// Everything the pulls of one chain share.
struct StreamEnv<'a, 'b> {
    memory: &'a mut ObjectStore,
    ctx: &'a ChainCtx<'b>,
    stats: &'a mut ChainStats,
    /// Rows per batch, at least 1.
    batch: usize,
    /// Index of the op whose source went unavailable, with the error. The
    /// chain is dead: the driver stops pulling and discards all rows.
    failed: Option<(usize, MedError)>,
}

/// Execution result.
pub struct ExecOutcome {
    /// Constructed result objects (top-level).
    pub results: ObjectStore,
    /// Everything the execution recorded: per-rule node traces, statistics
    /// observations (§3.5), per-source call counts, result totals.
    pub trace: QueryTrace,
}

/// Per-chain fault and feedback accounting, folded into the query's trace
/// even when the chain itself fails (the retry counters of a chain that
/// exhausted its policy are part of the evidence).
#[derive(Default)]
struct ChainStats {
    /// The chain's share of the [`QueryTrace`]: its observations and its
    /// per-source counts. Latency covers *successful* round-trips only, the
    /// planner's latency-EWMA feed; cache hits never touch it: a
    /// served-from-cache answer says nothing about how slow the source is.
    trace: QueryTrace,
    sources_ok: BTreeSet<Symbol>,
}

/// Everything one chain produced. Its memory stays its own: construction
/// reads the final table's objects straight out of it.
struct ChainOutcome {
    table: BindingTable,
    memory: ObjectStore,
    trace: RuleTrace,
    stats: ChainStats,
    /// `Some` when a source stayed failed and the chain was abandoned —
    /// Partial mode drops just this chain, Fail mode aborts the query.
    failed: Option<MedError>,
}

/// Execute one rule chain as a pull-based pipeline of bounded batches.
///
/// `emit` receives each final batch as it surfaces, taking ownership — the
/// returned outcome's table carries the final columns but no rows; the
/// caller reattaches what it accumulated. On a mid-chain source failure
/// the caller must discard everything emitted: a failed chain yields no
/// rows.
fn run_chain(
    rule_plan: &RulePlan,
    ctx: &ChainCtx<'_>,
    batch_size: usize,
    emit: &mut dyn FnMut(Batch),
) -> Result<ChainOutcome> {
    let chain_start = Instant::now();
    let mut memory = ObjectStore::with_oid_prefix("x");
    let mut stats = ChainStats::default();
    let mut ops = build_ops(rule_plan)?;
    let last = ops.len() - 1;
    let failed;
    {
        let mut env = StreamEnv {
            memory: &mut memory,
            ctx,
            stats: &mut stats,
            batch: batch_size.max(1),
            failed: None,
        };
        while let Some(batch) = pull(&mut ops, last, &mut env)? {
            emit(batch);
            if env.failed.is_some() {
                break;
            }
        }
        failed = env.failed.take();
    }
    let failed_idx = failed.as_ref().map(|(i, _)| *i);
    let failed_err = failed.map(|(_, e)| e);
    let mut nodes = Vec::with_capacity(rule_plan.nodes.len());
    let mut prev_incl = ops[0].meter.wall_ns_inclusive;
    for (k, op) in ops.iter_mut().enumerate().skip(1) {
        let node = &rule_plan.nodes[k - 1];
        let excl = op.meter.wall_ns_inclusive.saturating_sub(prev_incl);
        prev_incl = op.meter.wall_ns_inclusive;
        let est = rule_plan.estimates.get(k - 1).copied().unwrap_or_default();
        let mut metrics = std::mem::take(&mut op.meter.metrics);
        let rows_out = metrics.rows_out;
        if matches!(node, Node::DupElim { .. }) {
            metrics.dedup_hits = metrics.rows_in.saturating_sub(rows_out);
        }
        metrics.wall_ns = excl;
        metrics.est_rows = est.rows_out;
        metrics.est_cpu_rows = est.cpu;
        metrics.est_net_ms = est.net;
        metrics.est_mem_rows = est.memory;
        nodes.push(NodeTrace {
            op: node.op_name().to_string(),
            detail: if ctx.trace_on {
                node_detail(node)
            } else {
                String::new()
            },
            metrics,
            table: if ctx.trace_on {
                format!(
                    "{}{}",
                    crate::table::render_header(&op.out_cols),
                    std::mem::take(&mut op.meter.rendered)
                )
            } else {
                String::new()
            },
        });
        // Nothing flows past the first op that emitted no rows, and the
        // trace stops there too.
        if rows_out == 0 || failed_idx == Some(k) {
            break;
        }
    }
    let final_cols = ops[last].out_cols.clone();
    Ok(ChainOutcome {
        table: BindingTable::new(final_cols),
        memory,
        trace: RuleTrace {
            nodes,
            constructed: 0, // filled in during the construction phase
            wall_ns: chain_start.elapsed().as_nanos() as u64,
            error: failed_err.as_ref().map(|e| e.to_string()),
        },
        stats,
        failed: failed_err,
    })
}

/// Execute a physical plan.
pub fn execute(
    plan: &PhysicalPlan,
    sources: &HashMap<Symbol, Arc<dyn Wrapper>>,
    registry: &ExternalRegistry,
    opts: &ExecOptions,
) -> Result<ExecOutcome> {
    let exec_start = Instant::now();
    let fault = FaultRuntime::new(&opts.fault);
    // Cache counters are process-wide and monotone; snapshot now so the
    // trace can report this query's eviction *delta* rather than the
    // cache's lifetime total (a resident mediator serves many queries).
    let counters_before = opts.cache.as_ref().map(|c| c.counters());
    let local_memo;
    let param_memo: &ParamMemo = match &opts.param_memo {
        Some(m) => m.as_ref(),
        None => {
            local_memo = ParamMemo::default();
            &local_memo
        }
    };
    let ctx = ChainCtx {
        sources,
        registry,
        fault: &fault,
        param_memo,
        cache: opts.cache.as_deref(),
        trace_on: opts.trace,
    };
    // Phase 1: run every rule chain (optionally in parallel — chains are
    // independent; "the datamerge engine executes the graph in a bottom-up
    // fashion" per chain). Chains surface their first batches while slower
    // chains (or slower sources within a chain) are still running; the
    // time-to-first-answer is recorded off the emit path.
    // `streaming = false` asks for whole tables between operators.
    let batch_size = if opts.streaming {
        opts.batch_size
    } else {
        usize::MAX
    };
    let mut first_rows_ns: u64 = 0;
    // Hand a finished chain the rows it emitted and keep the earliest
    // first-answer time. A failed chain yields no rows and earns no
    // first-answer credit: everything it emitted is discarded.
    let mut settle = |res: Result<ChainOutcome>, rows: Vec<Vec<BoundValue>>, first: u64| {
        let mut outcome = res?;
        if outcome.failed.is_none() {
            outcome.table.rows = rows;
            if first > 0 && (first_rows_ns == 0 || first < first_rows_ns) {
                first_rows_ns = first;
            }
        }
        Ok(outcome)
    };
    let chains: Vec<Result<ChainOutcome>> = if opts.parallel && plan.rules.len() > 1 {
        // Every chain sends its batches into one bounded channel; the sink
        // (this thread) accumulates rows per chain, so first answers
        // surface before slow sources finish rather than after a
        // whole-table join at the end of each thread.
        let n = plan.rules.len();
        let (results, rows_acc, firsts) = std::thread::scope(|scope| {
            let ctx = &ctx;
            let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, Batch)>(n.max(2) * 2);
            let handles: Vec<_> = plan
                .rules
                .iter()
                .enumerate()
                .map(|(ci, rule_plan)| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        let mut emit = |batch: Batch| {
                            // A hung-up receiver only means the scope is
                            // unwinding; dropping the batch is fine.
                            let _ = tx.send((ci, batch));
                        };
                        run_chain(rule_plan, ctx, batch_size, &mut emit)
                    })
                })
                .collect();
            drop(tx);
            let mut rows_acc: Vec<Vec<Vec<BoundValue>>> = vec![Vec::new(); n];
            let mut firsts: Vec<u64> = vec![0; n];
            for (ci, batch) in rx.iter() {
                if firsts[ci] == 0 && !batch.is_empty() {
                    firsts[ci] = exec_start.elapsed().as_nanos() as u64;
                }
                rows_acc[ci].extend(batch);
            }
            let results: Vec<Result<ChainOutcome>> = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(outcome) => outcome,
                    // A panicking chain must not abort the whole
                    // process: surface the payload as a MedError.
                    // NB: deref the Box first — coercing `&Box<dyn Any>`
                    // would downcast against the box, not the payload.
                    Err(payload) => Err(MedError::ChainPanic(panic_message(&*payload))),
                })
                .collect();
            (results, rows_acc, firsts)
        });
        results
            .into_iter()
            .zip(rows_acc)
            .zip(firsts)
            .map(|((res, rows), first)| settle(res, rows, first))
            .collect()
    } else {
        plan.rules
            .iter()
            .map(|rule_plan| {
                let mut rows: Vec<Vec<BoundValue>> = Vec::new();
                let mut first: u64 = 0;
                let mut emit = |batch: Batch| {
                    if first == 0 && !batch.is_empty() {
                        first = exec_start.elapsed().as_nanos() as u64;
                    }
                    rows.extend(batch);
                };
                let res = run_chain(rule_plan, &ctx, batch_size, &mut emit);
                settle(res, rows, first)
            })
            .collect()
    };

    // Fold every chain's accounting into the trace. A failed chain aborts
    // the query in Fail mode; in Partial mode it is dropped and recorded
    // in the trace's completeness section.
    let partial = opts.fault.on_source_failure == OnSourceFailure::Partial;
    let mut trace = QueryTrace::default();
    let mut sources_ok: BTreeSet<Symbol> = BTreeSet::new();
    // (final table, the memory its object ids live in, its rule plan, its
    // index in trace.rules)
    let mut final_tables: Vec<(BindingTable, ObjectStore, &RulePlan, usize)> = Vec::new();
    for (idx, (chain, rule_plan)) in chains.into_iter().zip(&plan.rules).enumerate() {
        let chain = match chain {
            Ok(chain) => chain,
            Err(e @ MedError::ChainPanic(_)) if partial => {
                trace.rules.push(RuleTrace {
                    error: Some(e.to_string()),
                    ..RuleTrace::default()
                });
                trace.completeness.skipped_chains.push(idx);
                continue;
            }
            Err(e) => return Err(e),
        };
        // Runs for failed chains too — the retries a dead source consumed
        // are part of the evidence.
        trace.add_per_source(&chain.stats.trace);
        trace.observations.extend(chain.stats.trace.observations);
        sources_ok.extend(chain.stats.sources_ok);
        trace.rules.push(chain.trace);
        if let Some(err) = chain.failed {
            if !partial {
                return Err(err);
            }
            if let MedError::SourceUnavailable { source, reason } = &err {
                trace
                    .completeness
                    .sources_failed
                    .insert(Symbol::intern(source), reason.clone());
            }
            trace.completeness.skipped_chains.push(idx);
            continue;
        }
        final_tables.push((chain.table, chain.memory, rule_plan, trace.rules.len() - 1));
    }
    trace.completeness.sources_ok = sources_ok
        .into_iter()
        .filter(|s| !trace.completeness.sources_failed.contains_key(s))
        .collect();

    // Phase 2: construction — one constructor for the whole plan, so
    // semantic oids fuse across rules, reading each chain's objects out of
    // that chain's own memory. `ti` addresses the chain's entry in
    // trace.rules, which is NOT the positional index when Partial mode
    // skipped chains.
    let mut results = ObjectStore::with_oid_prefix("cp");
    {
        let nothing = ObjectStore::new();
        let mut ctor = Constructor::new(&nothing);
        for (table, memory, rule_plan, ti) in &final_tables {
            ctor.read_from(memory);
            for i in 0..table.len() {
                let b = table.row_bindings(i);
                ctor.construct_head(&rule_plan.head, &b, &mut results)?;
            }
            trace.rules[*ti].constructed = table.len();
        }
    }

    // MSL duplicate elimination across rule outputs.
    if plan.dedup_results {
        let tops = results.top_level().to_vec();
        let before = tops.len();
        let unique = oem::eq::dedup_structural(&results, &tops);
        trace.result_dedup_removed = before - unique.len();
        results.set_top_level(unique);
    }
    trace.result_count = results.top_level().len();
    trace.wall_ns = exec_start.elapsed().as_nanos() as u64;
    trace.first_rows_ns = first_rows_ns;
    let (mut peak_rows, mut peak_bytes) = (0usize, 0u64);
    for rule in &trace.rules {
        for node in &rule.nodes {
            peak_rows = peak_rows.max(node.metrics.peak_batch_rows);
            peak_bytes = peak_bytes.max(node.metrics.peak_bytes_resident);
        }
    }
    trace.peak_batch_rows = peak_rows;
    trace.peak_bytes_resident = peak_bytes;
    if let Some(cache) = &opts.cache {
        let c = cache.counters();
        // `bytes_cached`/`warm_bytes_cached` are process-wide gauges
        // (bytes the shared cache holds right now); the eviction and
        // tier counters are this query's deltas, so per-request traces
        // do not re-report lifetime totals under a resident mediator.
        let before = counters_before.unwrap_or(c);
        trace.bytes_cached = c.bytes_cached as u64;
        trace.warm_bytes_cached = c.warm_bytes as u64;
        trace.cache_evictions = c.evictions.saturating_sub(before.evictions);
        trace.cache_warm_hits = c.warm_hits.saturating_sub(before.warm_hits);
        trace.cache_demotions = c.demotions.saturating_sub(before.demotions);
    }

    Ok(ExecOutcome { results, trace })
}

/// Render a panic payload (from a joined chain thread) as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fill each traced node's `detail` from the plan it ran — what an
/// untraced execution leaves empty. Node traces are a prefix of their
/// chain's plan nodes, and chains keep their plan positions.
pub(crate) fn fill_details(plan: &PhysicalPlan, trace: &mut QueryTrace) {
    for (rule_plan, rule) in plan.rules.iter().zip(&mut trace.rules) {
        for (node, t) in rule_plan.nodes.iter().zip(&mut rule.nodes) {
            t.detail = node_detail(node);
        }
    }
}

fn node_detail(node: &Node) -> String {
    match node {
        Node::Query { source, query, .. } => {
            format!("@{source}: {}", msl::printer::rule(query))
        }
        Node::ParamQuery { source, query, .. } => {
            format!("@{source}: {}", msl::printer::rule(query))
        }
        Node::ExternalPred { pred, args, .. } => {
            let rendered: Vec<String> = args.iter().map(|a| msl::printer::term(a, true)).collect();
            format!("{pred}({})", rendered.join(", "))
        }
        Node::RestFilter { var, condition } => {
            format!("{var} contains {}", msl::printer::pattern(condition))
        }
        Node::HashJoin {
            source, join_vars, ..
        } => {
            let vars: Vec<String> = join_vars.iter().map(|v| v.as_str()).collect();
            format!("@{source} on [{}]", vars.join(", "))
        }
        Node::DupElim { vars } => {
            let vars: Vec<String> = vars.iter().map(|v| v.as_str()).collect();
            format!("project [{}]", vars.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::externals::standard_registry;
    use crate::graph::VarKind;
    use crate::planner::{plan, PlanContext, PlannerOptions};
    use crate::spec::MediatorSpec;
    use crate::stats::StatsCache;
    use crate::veao::expand;
    use engine::unify::UnifyMode;
    use msl::parse_query;
    use oem::printer::compact;
    use oem::sym;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
    use wrappers::WrapperError;

    fn sources() -> HashMap<Symbol, Arc<dyn Wrapper>> {
        let mut m: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        m.insert(sym("whois"), Arc::new(whois_wrapper()));
        m.insert(sym("cs"), Arc::new(cs_wrapper()));
        m
    }

    fn run(query: &str, options: PlannerOptions) -> ExecOutcome {
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
        let plan = plan(&program, &ctx).unwrap();
        execute(
            &plan,
            &srcs,
            &registry,
            &ExecOptions {
                trace: true,
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn q1_produces_figure_2_4_object() {
        // The end-to-end Q1 run must produce the paper's combined object:
        // <cs_person {<name 'Joe Chung'> <rel 'employee'>
        //             <e_mail 'chung@cs'> <title 'professor'>
        //             <reports_to 'John Hennessy'>}>
        let out = run(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions::default(),
        );
        assert_eq!(out.results.top_level().len(), 1);
        let printed = compact(&out.results, out.results.top_level()[0]);
        for frag in [
            "<name 'Joe Chung'>",
            "<rel 'employee'>",
            "<e_mail 'chung@cs'>",
            "<title 'professor'>",
            "<reports_to 'John Hennessy'>",
        ] {
            assert!(printed.contains(frag), "missing {frag} in {printed}");
        }
        assert!(printed.starts_with("<cs_person {"), "{printed}");
    }

    #[test]
    fn year_query_returns_nick() {
        // §3.3's query: 3rd-year students known to both sources.
        let out = run(
            "S :- S:<cs_person {<year 3>}>@med",
            PlannerOptions::default(),
        );
        assert_eq!(out.results.top_level().len(), 1);
        let printed = compact(&out.results, out.results.top_level()[0]);
        assert!(printed.contains("'Nick Naive'"), "{printed}");
        assert!(printed.contains("<rel 'student'>"), "{printed}");
        assert!(printed.contains("<year 3>"), "{printed}");
    }

    #[test]
    fn hash_join_and_bind_join_agree() {
        let q = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med";
        let a = run(
            q,
            PlannerOptions {
                prefer_bind_join: Some(true),
                ..Default::default()
            },
        );
        let b = run(
            q,
            PlannerOptions {
                prefer_bind_join: Some(false),
                ..Default::default()
            },
        );
        assert_eq!(a.results.top_level().len(), b.results.top_level().len());
        let pa = compact(&a.results, a.results.top_level()[0]);
        let pb = compact(&b.results, b.results.top_level()[0]);
        // Oids differ; structure must not.
        assert!(
            oem::eq::struct_eq_cross(
                &a.results,
                a.results.top_level()[0],
                &b.results,
                b.results.top_level()[0]
            ),
            "{pa} vs {pb}"
        );
    }

    #[test]
    fn pushdown_off_agrees_with_pushdown_on() {
        let q = "S :- S:<cs_person {<year 3>}>@med";
        let on = run(q, PlannerOptions::default());
        let off = run(
            q,
            PlannerOptions {
                pushdown: false,
                ..Default::default()
            },
        );
        assert_eq!(on.results.top_level().len(), off.results.top_level().len());
    }

    #[test]
    fn traces_show_tables() {
        let out = run(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions::default(),
        );
        let trace = &out.trace.rules[0].nodes;
        assert!(trace.iter().any(|t| t.op == "query"));
        let qtrace = trace.iter().find(|t| t.op == "query").unwrap();
        assert!(qtrace.detail.contains("@whois"), "{}", qtrace.detail);
        assert!(qtrace.table.contains("employee") || qtrace.table.contains("'employee'"));
    }

    #[test]
    fn observations_recorded() {
        let out = run(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions::default(),
        );
        assert!(out
            .trace
            .observations
            .iter()
            .any(|o| o.source == sym("whois") && o.label == Some(sym("person"))));
        assert!(out.trace.calls(sym("whois")) >= 1);
        assert!(out.trace.calls(sym("cs")) >= 1);
    }

    #[test]
    fn node_metrics_collected_even_without_table_tracing() {
        // Counters/timings are unconditional; only the rendered tables are
        // gated behind ExecOptions::trace.
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
        let physical = plan(&program, &ctx).unwrap();
        let out = execute(&physical, &srcs, &registry, &ExecOptions::default()).unwrap();
        assert!(!out.trace.rules.is_empty());
        // The outer whois query: 1 row in (unit), 1 Joe Chung row out, one
        // source round-trip, a positive estimate from the optimizer.
        let first = &out.trace.rules[0].nodes[0];
        assert_eq!(first.op, "query");
        assert_eq!(first.metrics.rows_in, 1);
        assert_eq!(first.metrics.rows_out, 1);
        assert_eq!(first.metrics.source_calls, 1);
        assert_eq!(first.metrics.bindings_produced, 1);
        assert!(first.metrics.est_rows > 0.0, "{:?}", first.metrics);
        // Per-node call counters agree with the per-source totals.
        let node_total: usize = out.trace.nodes().map(|t| t.metrics.source_calls).sum();
        assert_eq!(node_total, out.trace.total_source_calls());
        assert_eq!(out.trace.result_count, out.results.top_level().len());
    }

    #[test]
    fn param_query_memoizes_repeated_tuples() {
        // A workload where many whois persons share the same relation: the
        // parameterized cs query for a repeated (R, LN, FN) tuple is sent
        // once. Build a store with duplicate persons to force repeats.
        use oem::ObjectBuilder;
        let mut store = oem::ObjectStore::new();
        for _ in 0..4 {
            ObjectBuilder::set("person")
                .atom("name", "Joe Chung")
                .atom("dept", "CS")
                .atom("relation", "employee")
                .build_top(&mut store);
        }
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(
            sym("whois"),
            Arc::new(wrappers::SemiStructuredWrapper::new("whois", store)),
        );
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = parse_query("P :- P:<cs_person {}>@med").unwrap();
        let program = expand(&q, &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let options = PlannerOptions {
            prefer_bind_join: Some(true),
            ..Default::default()
        };
        let ctx = PlanContext {
            sources: &srcs,
            registry: &registry,
            stats: &stats,
            options: &options,
            analysis: None,
        };
        let physical = plan(&program, &ctx).unwrap();
        let out = execute(&physical, &srcs, &registry, &ExecOptions::default()).unwrap();
        // 4 identical outer tuples → 1 memoized cs call (plus none other).
        assert_eq!(
            out.trace.calls(sym("cs")),
            1,
            "{:?}",
            out.trace.source_calls
        );
        // All four duplicates collapse to one result object.
        assert_eq!(out.results.top_level().len(), 1);
    }

    #[test]
    fn trace_off_keeps_tables_empty() {
        let out = run(
            "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med",
            PlannerOptions::default(),
        );
        // run() traces; spot-check the inverse through execute directly.
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = parse_query("P :- P:<cs_person {}>@med").unwrap();
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
        let physical = plan(&program, &ctx).unwrap();
        let quiet = execute(&physical, &srcs, &registry, &ExecOptions::default()).unwrap();
        assert!(quiet.trace.nodes().all(|t| t.table.is_empty()));
        // ...but the metrics are still there.
        assert!(quiet.trace.nodes().any(|t| t.metrics.rows_out > 0));
        let _ = out;
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        // The year query has two chains (τ1/τ2); run them on threads.
        let med = MediatorSpec::parse("med", MS1).unwrap();
        let q = parse_query("S :- S:<cs_person {<year 3>}>@med").unwrap();
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
        let physical = plan(&program, &ctx).unwrap();
        let seq = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                trace: false,
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        let par = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                trace: false,
                parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.results.top_level().len(), par.results.top_level().len());
        for (&a, &b) in seq.results.top_level().iter().zip(par.results.top_level()) {
            assert!(oem::eq::struct_eq_cross(&seq.results, a, &par.results, b));
        }
        // Source-call accounting merges across chains in both modes.
        assert_eq!(seq.trace.source_calls, par.trace.source_calls);
    }

    #[test]
    fn empty_chain_short_circuits() {
        let out = run(
            "JC :- JC:<cs_person {<name 'Nobody'>}>@med",
            PlannerOptions::default(),
        );
        assert!(out.results.top_level().is_empty());
        // cs should never be contacted: the whois result was empty.
        assert_eq!(out.trace.calls(sym("cs")), 0);
    }

    #[test]
    fn a_hand_built_join_missing_its_key_is_an_error_not_a_panic() {
        // The hash join's key `N` is not among the variables its query
        // extracts: planning never builds this, a hand-built plan can.
        let scalar = |v: &str| ExtractVar {
            var: sym(v),
            kind: VarKind::Scalar,
        };
        let plan = PhysicalPlan {
            rules: vec![RulePlan {
                nodes: vec![
                    Node::Query {
                        source: sym("whois"),
                        query: msl::parse_rule(
                            "<bind_for_whois {<bind_for_N N>}> :- <person {<name N>}>@whois",
                        )
                        .unwrap(),
                        vars: vec![scalar("N")],
                    },
                    Node::HashJoin {
                        source: sym("cs"),
                        query: msl::parse_rule(
                            "<bind_for_cs {<bind_for_FN FN>}> :- <R {<first_name FN>}>@cs",
                        )
                        .unwrap(),
                        vars: vec![scalar("FN")],
                        join_vars: vec![sym("N")],
                    },
                ],
                estimates: Vec::new(),
                head: msl::parse_rule("<x {<n N>}> :- <p {<n N>}>@s")
                    .unwrap()
                    .head,
            }],
            ..PhysicalPlan::default()
        };
        let err = execute(
            &plan,
            &sources(),
            &standard_registry(),
            &ExecOptions::default(),
        )
        .err()
        .expect("the plan cannot run");
        assert!(
            matches!(&err, MedError::Planning(m) if m.contains("join variable N")),
            "{err}"
        );
    }

    #[test]
    fn dup_elim_drops_rows_equal_after_projection() {
        // `A` holds two `k`s, each met once at `t`: the joined rows differ
        // in K until the projection onto the head's N. The final
        // structural dedup would hide a DupElim that kept them; its own
        // counters do not.
        let source = |name: &str, text: &str| -> Arc<dyn Wrapper> {
            let store = oem::parser::parse_store(text).unwrap();
            Arc::new(wrappers::SemiStructuredWrapper::new(name, store))
        };
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(
            sym("s"),
            source(
                "s",
                "<&a1, p, set, {<&n1, n, 'A'> <&k1, k, 1>}>
                 <&a2, p, set, {<&n2, n, 'A'> <&k2, k, 2>}>",
            ),
        );
        srcs.insert(
            sym("t"),
            source(
                "t",
                "<&b1, q, set, {<&j1, k, 1>}> <&b2, q, set, {<&j2, k, 2>}>",
            ),
        );
        let (_, physical) = expand_and_plan(
            "<who {<n N>}> :- <p {<n N> <k K>}>@s AND <q {<k K>}>@t",
            "W :- W:<who {}>@med",
            &srcs,
            &PlannerOptions::default(),
        );
        let out = execute(
            &physical,
            &srcs,
            &standard_registry(),
            &ExecOptions::default(),
        )
        .unwrap();
        let dup_elim = out.trace.rules[0].nodes.last().unwrap();
        assert_eq!(dup_elim.op, "dup elim");
        assert_eq!(
            (dup_elim.metrics.rows_in, dup_elim.metrics.rows_out),
            (2, 1)
        );
        assert_eq!(out.trace.result_dedup_removed, 0);
        assert_eq!(out.results.top_level().len(), 1);
    }

    #[test]
    fn a_join_fanning_out_past_the_batch_carries_the_rest() {
        // One `p` meets three `q`s on K. At batch size 1 the hash join
        // makes three rows from its one input row: the two past the cap
        // wait in its carry and surface on the next pulls.
        let source = |name: &str, text: &str| -> Arc<dyn Wrapper> {
            let store = oem::parser::parse_store(text).unwrap();
            Arc::new(wrappers::SemiStructuredWrapper::new(name, store))
        };
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(sym("s"), source("s", "<&a1, p, set, {<&k1, k, 1>}>"));
        srcs.insert(
            sym("t"),
            source(
                "t",
                "<&b1, q, set, {<&j1, k, 1> <&m1, m, 'x'>}>
                 <&b2, q, set, {<&j2, k, 1> <&m2, m, 'y'>}>
                 <&b3, q, set, {<&j3, k, 1> <&m3, m, 'z'>}>",
            ),
        );
        let scalar = |v: &str| ExtractVar {
            var: sym(v),
            kind: VarKind::Scalar,
        };
        let rule_plan = RulePlan {
            nodes: vec![
                Node::Query {
                    source: sym("s"),
                    query: msl::parse_rule("<bind_for_s {<bind_for_K K>}> :- <p {<k K>}>@s")
                        .unwrap(),
                    vars: vec![scalar("K")],
                },
                Node::HashJoin {
                    source: sym("t"),
                    query: msl::parse_rule(
                        "<bind_for_t {<bind_for_K K> <bind_for_M M>}> :- <q {<k K> <m M>}>@t",
                    )
                    .unwrap(),
                    vars: vec![scalar("K"), scalar("M")],
                    join_vars: vec![sym("K")],
                },
            ],
            estimates: Vec::new(),
            head: msl::parse_rule("<x {<m M>}> :- <q {<m M>}>@t")
                .unwrap()
                .head,
        };
        for batch_size in [1, 7, 1024] {
            let (outcome, rows) = run_one_chain(&rule_plan, &srcs, batch_size);
            let mut ms: Vec<String> = rows.iter().map(|r| r[1].to_string()).collect();
            ms.sort();
            assert_eq!(ms, ["'x'", "'y'", "'z'"], "batch size {batch_size}");
            let join = &outcome.trace.nodes[1].metrics;
            assert_eq!(
                (join.rows_in, join.rows_out, join.peak_batch_rows),
                (1, 3, batch_size.min(3)),
                "batch size {batch_size}"
            );
        }
    }

    #[test]
    fn hash_join_confirms_what_the_index_folds() {
        // `3` meets `3.0`. 2^53 and 2^53 + 1 fold to one key but are not
        // equal, so they do not meet. The three `q`s that meet `3` come out
        // in extraction order. A bind join asks `t` for each key and must
        // agree, object for object.
        let source = |name: &str, text: &str| -> Arc<dyn Wrapper> {
            let store = oem::parser::parse_store(text).unwrap();
            Arc::new(wrappers::SemiStructuredWrapper::new(name, store))
        };
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(
            sym("s"),
            source(
                "s",
                "<&a1, p, set, {<&k1, k, 3>}>
                 <&a2, p, set, {<&k2, k, 9007199254740992>}>",
            ),
        );
        srcs.insert(
            sym("t"),
            source(
                "t",
                "<&b1, q, set, {<&j1, k, 3.0> <&m1, m, 'x'>}>
                 <&b2, q, set, {<&j2, k, 9007199254740993> <&m2, m, 'y'>}>
                 <&b3, q, set, {<&j3, k, 3> <&m3, m, 'z'>}>
                 <&b4, q, set, {<&j4, k, 3.0> <&m4, m, 'w'>}>",
            ),
        );
        let answers = |bind: bool, op: &str| {
            let (_, physical) = expand_and_plan(
                "<x {<k K> <m M>}> :- <p {<k K>}>@s AND <q {<k K> <m M>}>@t",
                "X :- X:<x {}>@med",
                &srcs,
                &PlannerOptions {
                    prefer_bind_join: Some(bind),
                    ..Default::default()
                },
            );
            let ops: Vec<&str> = (physical.rules[0].nodes.iter())
                .map(|n| n.op_name())
                .collect();
            assert!(ops.contains(&op), "{ops:?}");
            let out = execute(
                &physical,
                &srcs,
                &standard_registry(),
                &ExecOptions::default(),
            )
            .unwrap();
            (out.results.top_level().iter())
                .map(|&id| compact(&out.results, id))
                .collect::<Vec<String>>()
        };
        let hash = answers(false, "hash join");
        assert_eq!(
            hash,
            [
                "<x {<k 3> <m 'x'>}>",
                "<x {<k 3> <m 'z'>}>",
                "<x {<k 3> <m 'w'>}>"
            ]
        );
        assert_eq!(hash, answers(true, "parameterized query"));
    }

    // ---- in-place extraction ---------------------------------------------

    /// The logical program and physical plan of `query` against the
    /// mediator `spec` over `srcs`.
    fn expand_and_plan(
        spec: &str,
        query: &str,
        srcs: &HashMap<Symbol, Arc<dyn Wrapper>>,
        options: &PlannerOptions,
    ) -> (Vec<Rule>, PhysicalPlan) {
        let med = MediatorSpec::parse("med", spec).unwrap();
        let program = expand(&parse_query(query).unwrap(), &med, UnifyMode::Minimal).unwrap();
        let registry = standard_registry();
        let stats = StatsCache::new();
        let ctx = PlanContext {
            sources: srcs,
            registry: &registry,
            stats: &stats,
            options,
            analysis: None,
        };
        let physical = plan(&program, &ctx).unwrap();
        (program.rules, physical)
    }

    /// Run one chain on its own, returning its outcome and emitted rows.
    fn run_one_chain(
        rule_plan: &RulePlan,
        srcs: &HashMap<Symbol, Arc<dyn Wrapper>>,
        batch_size: usize,
    ) -> (ChainOutcome, Vec<Vec<BoundValue>>) {
        let registry = standard_registry();
        let fault = FaultRuntime::new(&FaultOptions::default());
        let param_memo = ParamMemo::default();
        let ctx = ChainCtx {
            sources: srcs,
            registry: &registry,
            fault: &fault,
            param_memo: &param_memo,
            cache: None,
            trace_on: false,
        };
        let mut rows = Vec::new();
        let outcome = run_chain(rule_plan, &ctx, batch_size, &mut |b| rows.extend(b)).unwrap();
        (outcome, rows)
    }

    #[test]
    fn rows_binding_only_atoms_copy_nothing_into_chain_memory() {
        let srcs = sources();
        let (_, physical) = expand_and_plan(
            "<who {<name N> <rel R>}> :- <person {<name N> <relation R>}>@whois",
            "W :- W:<who {}>@med",
            &srcs,
            &PlannerOptions::default(),
        );
        assert_eq!(physical.rules.len(), 1);
        for batch_size in [1, 1024] {
            let (outcome, rows) = run_one_chain(&physical.rules[0], &srcs, batch_size);
            assert!(!rows.is_empty());
            assert!(rows.iter().flatten().all(|v| v.as_atom().is_some()));
            // Neither the answer's roots nor its carriers were copied.
            assert_eq!(outcome.memory.len(), 0, "batch size {batch_size}");
        }
    }

    #[test]
    fn an_object_two_rows_share_is_copied_once() {
        // Two persons share one `dept` object, so the whois answer's two
        // roots share the rest object both `Rest` carriers hold.
        let mut store = ObjectStore::new();
        let dept = store.atom("dept", "CS");
        for name in ["Ann", "Bob"] {
            let n = store.atom("name", name);
            let person = store.set("person", vec![n, dept]);
            store.add_top(person);
        }
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(
            sym("whois"),
            Arc::new(wrappers::SemiStructuredWrapper::new("whois", store)),
        );
        let (rules, physical) = expand_and_plan(
            "<who {<name N> Rest}> :- <person {<name N> | Rest}>@whois",
            "W :- W:<who {}>@med",
            &srcs,
            &PlannerOptions::default(),
        );
        // A rest-only specialization, served out of the unrestricted answer.
        let (_, dept_cs) = expand_and_plan(
            "<who {<name N> Rest}> :- <person {<name N> | Rest}>@whois",
            "W :- W:<who {<dept 'CS'>}>@med",
            &srcs,
            &PlannerOptions::default(),
        );
        let registry = standard_registry();
        let run = |physical: &PhysicalPlan, opts: &ExecOptions| {
            let out = execute(physical, &srcs, &registry, opts).unwrap();
            oem::printer::print_store(&out.results)
        };
        let printed = |opts: &ExecOptions| run(&physical, opts);
        let cache_off = printed(&ExecOptions::default());
        let dept_cs_off = run(&dept_cs, &ExecOptions::default());
        let resolve = |name: Symbol| srcs.get(&name).map(crate::naive::SourceRef::Wrapper);
        let naive = crate::naive::eval_program(&rules, &resolve, &registry).unwrap();
        let sorted = |s: &ObjectStore| {
            let mut all: Vec<String> = s.top_level().iter().map(|&t| compact(s, t)).collect();
            all.sort();
            all
        };
        let planned = execute(&physical, &srcs, &registry, &ExecOptions::default()).unwrap();
        assert_eq!(sorted(&planned.results), sorted(&naive));
        for batch_size in [1, 7, 1024] {
            let (outcome, rows) = run_one_chain(&physical.rules[0], &srcs, batch_size);
            assert_eq!(rows.len(), 2);
            // The rest variable's column (expansion renames the variable).
            let rest = rows[0]
                .iter()
                .position(|v| v.as_obj_set().is_some())
                .unwrap();
            let [a, b] = [&rows[0][rest], &rows[1][rest]].map(|v| v.as_obj_set().unwrap());
            assert_eq!(
                a, b,
                "batch size {batch_size}: one memory id for the shared object"
            );
            assert_eq!(outcome.memory.len(), 1);
            let opts = ExecOptions {
                batch_size,
                ..Default::default()
            };
            assert_eq!(printed(&opts), cache_off, "batch size {batch_size}");
            // A cache hit is extracted by the same code as a live answer,
            // through one old-id → new-id map per served answer, so it
            // keeps the sharing and prints the cache-off bytes: an exact
            // hit, a containment hit, and a warm hit after a restart.
            let cache = Arc::new(AnswerCache::new(CacheOptions::enabled()));
            let opts = ExecOptions {
                batch_size,
                ..cache_opts(&cache)
            };
            for _ in 0..2 {
                let out = execute(&physical, &srcs, &registry, &opts).unwrap();
                assert_eq!(sorted(&out.results), sorted(&naive));
                let printed = oem::printer::print_store(&out.results);
                assert_eq!(printed, cache_off, "batch size {batch_size}");
            }
            assert_eq!(cache.counters().hits, 1, "batch size {batch_size}");
            assert_eq!(run(&dept_cs, &opts), dept_cs_off, "batch size {batch_size}");
            assert_eq!(cache.counters().containment_hits, 1);
            let dir = std::env::temp_dir().join(format!(
                "medmaker-exec-{}-shared-{batch_size}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let tiered = || {
                Arc::new(AnswerCache::new(CacheOptions {
                    cache_dir: Some(dir.clone()),
                    ..CacheOptions::enabled()
                }))
            };
            run(&physical, &cache_opts(&tiered()));
            let restarted = tiered();
            let opts = ExecOptions {
                batch_size,
                ..cache_opts(&restarted)
            };
            assert_eq!(printed(&opts), cache_off, "batch size {batch_size}");
            assert_eq!(restarted.counters().warm_hits, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // ---- fault tolerance -------------------------------------------------

    use crate::retry::{OnSourceFailure, RetryPolicy};
    use wrappers::{Capabilities, FaultInjectingWrapper, FaultPlan};

    /// A wrapper that panics on every query — the regression fixture for
    /// the parallel-mode `.expect("chain thread panicked")` bug.
    struct PanickingWrapper {
        caps: Capabilities,
    }

    impl Wrapper for PanickingWrapper {
        fn name(&self) -> Symbol {
            sym("whois")
        }
        fn capabilities(&self) -> &Capabilities {
            &self.caps
        }
        fn query(&self, _q: &Rule) -> std::result::Result<ObjectStore, wrappers::WrapperError> {
            panic!("wrapper exploded")
        }
    }

    fn planned(query: &str, srcs: &HashMap<Symbol, Arc<dyn Wrapper>>) -> PhysicalPlan {
        planned_with(query, srcs, &PlannerOptions::default())
    }

    fn planned_with(
        query: &str,
        srcs: &HashMap<Symbol, Arc<dyn Wrapper>>,
        options: &PlannerOptions,
    ) -> PhysicalPlan {
        expand_and_plan(MS1, query, srcs, options).1
    }

    /// The whole view with the bind join pinned (whois outer, one cs
    /// probe per person), and the same plan with its one chain run twice:
    /// two chains that send the same bound tuples to the same source.
    fn bind_join_once_and_twice(
        srcs: &HashMap<Symbol, Arc<dyn Wrapper>>,
    ) -> (PhysicalPlan, PhysicalPlan) {
        let options = PlannerOptions {
            prefer_bind_join: Some(true),
            ..Default::default()
        };
        let once = planned_with("P :- P:<cs_person {}>@med", srcs, &options);
        assert_eq!(once.rules.len(), 1);
        let mut twice = once.clone();
        twice.rules.push(once.rules[0].clone());
        (once, twice)
    }

    fn faulty_sources(
        plan: FaultPlan,
    ) -> (
        HashMap<Symbol, Arc<dyn Wrapper>>,
        Arc<FaultInjectingWrapper>,
    ) {
        let whois = Arc::new(FaultInjectingWrapper::new(Arc::new(whois_wrapper()), plan));
        let mut m: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        m.insert(sym("whois"), whois.clone());
        m.insert(sym("cs"), Arc::new(cs_wrapper()));
        (m, whois)
    }

    #[test]
    fn panicking_chain_is_an_error_not_an_abort() {
        // Before the fix, a panicking chain thread took the whole process
        // down through `.expect("chain thread panicked")`.
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(
            sym("whois"),
            Arc::new(PanickingWrapper {
                caps: Capabilities::full(),
            }),
        );
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        // The year query expands to two chains — the parallel path runs.
        let physical = planned("S :- S:<cs_person {<year 3>}>@med", &srcs);
        assert!(physical.rules.len() > 1, "need the parallel path");
        let registry = standard_registry();
        let err = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                parallel: true,
                ..Default::default()
            },
        )
        .err()
        .expect("panicking chain must fail the query");
        let MedError::ChainPanic(msg) = err else {
            panic!("expected ChainPanic, got {err}");
        };
        assert!(msg.contains("wrapper exploded"), "{msg}");
    }

    #[test]
    fn panicking_chain_in_partial_mode_drops_the_chain() {
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(
            sym("whois"),
            Arc::new(PanickingWrapper {
                caps: Capabilities::full(),
            }),
        );
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let physical = planned("S :- S:<cs_person {<year 3>}>@med", &srcs);
        let registry = standard_registry();
        let out = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                parallel: true,
                fault: crate::retry::FaultOptions {
                    on_source_failure: OnSourceFailure::Partial,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // Every chain needs whois, so the degraded answer is empty — but
        // the query did not error, and the trace says what was dropped.
        assert!(out.results.top_level().is_empty());
        assert!(!out.trace.completeness.is_complete());
        assert_eq!(
            out.trace.completeness.skipped_chains.len(),
            physical.rules.len()
        );
        // Plan/trace alignment survives the skipped chains.
        assert_eq!(out.trace.rules.len(), physical.rules.len());
        assert!(out.trace.rules.iter().all(|r| r.error.is_some()));
    }

    #[test]
    fn retry_recovers_a_flaky_source_and_counts_attempts() {
        // whois fails its first 2 calls, then recovers; 2 retries allowed.
        let (srcs, whois) = faulty_sources(FaultPlan::none().fail_first(2));
        let physical = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let registry = standard_registry();
        let out = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                fault: crate::retry::FaultOptions {
                    retry: RetryPolicy::retries(2),
                    sleeper: Some(Arc::new(crate::retry::VirtualSleeper(Arc::new(
                        wrappers::VirtualClock::new(),
                    )))),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // The answer is the normal Q1 answer — retries were invisible to
        // the result, visible in the trace.
        assert_eq!(out.results.top_level().len(), 1);
        assert_eq!(out.trace.retries_for(sym("whois")), 2);
        assert_eq!(out.trace.failures_for(sym("whois")), 2);
        assert_eq!(out.trace.retries_for(sym("cs")), 0);
        assert_eq!(whois.calls_seen(), 3, "2 failures + 1 success");
        assert!(out.trace.completeness.is_complete());
        // The fault injector's own counter agrees with the plan.
        assert_eq!(whois.metrics().unwrap().faults_injected, 2);
    }

    #[test]
    fn exhausted_retries_fail_the_query_in_fail_mode() {
        let (srcs, whois) = faulty_sources(FaultPlan::always_down());
        let physical = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let registry = standard_registry();
        let err = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                fault: crate::retry::FaultOptions {
                    retry: RetryPolicy::retries(2),
                    sleeper: Some(Arc::new(crate::retry::VirtualSleeper(Arc::new(
                        wrappers::VirtualClock::new(),
                    )))),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .err()
        .expect("dead source must fail the query in Fail mode");
        let MedError::SourceUnavailable { source, reason } = err else {
            panic!("expected SourceUnavailable, got {err}");
        };
        assert_eq!(source, "whois");
        assert!(reason.contains("unavailable"), "{reason}");
        assert_eq!(whois.calls_seen(), 3, "1 try + 2 retries");
    }

    #[test]
    fn deadline_discards_a_too_slow_answer() {
        // whois answers, but 80 virtual ms late against a 50ms deadline.
        let clock = Arc::new(wrappers::VirtualClock::new());
        let whois = Arc::new(
            FaultInjectingWrapper::new(Arc::new(whois_wrapper()), FaultPlan::none().latency_ms(80))
                .with_virtual_clock(Arc::clone(&clock)),
        );
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(sym("whois"), whois);
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let physical = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let registry = standard_registry();
        let out = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                fault: crate::retry::FaultOptions {
                    source_deadline_ms: Some(50),
                    on_source_failure: OnSourceFailure::Partial,
                    ..Default::default()
                }
                .on_virtual_time(clock),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.results.top_level().is_empty());
        let why = out
            .trace
            .completeness
            .sources_failed
            .get(&sym("whois"))
            .expect("whois must be recorded as failed");
        assert!(why.contains("deadline"), "{why}");
        assert_eq!(out.trace.failures_for(sym("whois")), 1);
    }

    #[test]
    fn a_sub_millisecond_call_is_measured_as_one_millisecond() {
        // Every reading is 300µs after the one before, so each source call
        // lasts 0.3 ms: two truncated millisecond readings would make it
        // 0 ms or 1 ms by where the ticks fell.
        struct Ticking(std::sync::atomic::AtomicU64);
        impl Clock for Ticking {
            fn now_ms(&self) -> u64 {
                self.now_us() / 1000
            }
            fn now_us(&self) -> u64 {
                self.0.fetch_add(300, std::sync::atomic::Ordering::Relaxed)
            }
        }
        let srcs = sources();
        let physical = planned("P :- P:<cs_person {}>@med", &srcs);
        let out = execute(
            &physical,
            &srcs,
            &standard_registry(),
            &ExecOptions {
                fault: FaultOptions {
                    clock: Some(Arc::new(Ticking(Default::default()))),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        for source in [sym("whois"), sym("cs")] {
            let calls = out.trace.latency_calls[&source];
            assert!(calls > 0, "{source} was called");
            assert_eq!(
                out.trace.latency_ms[&source], calls,
                "{source}: 1 ms a call"
            );
        }
    }

    // ---- answer cache ----------------------------------------------------

    use crate::cache::{AnswerCache, CacheOptions};

    fn cache_opts(cache: &Arc<AnswerCache>) -> ExecOptions {
        ExecOptions {
            cache: Some(Arc::clone(cache)),
            ..Default::default()
        }
    }

    #[test]
    fn repeat_query_is_served_entirely_from_cache() {
        let srcs = sources();
        let physical = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let registry = standard_registry();
        let cache = Arc::new(AnswerCache::new(CacheOptions::enabled()));
        let cold = execute(&physical, &srcs, &registry, &cache_opts(&cache)).unwrap();
        assert!(cold.trace.total_source_calls() > 0);
        assert_eq!(cold.trace.total_cache_hits(), 0);
        assert_eq!(
            cold.trace.total_cache_misses(),
            cold.trace.total_source_calls()
        );
        let warm = execute(&physical, &srcs, &registry, &cache_opts(&cache)).unwrap();
        // Iteration 2: every source query answered from the cache.
        assert_eq!(
            warm.trace.total_source_calls(),
            0,
            "{:?}",
            warm.trace.source_calls
        );
        assert_eq!(
            warm.trace.total_cache_hits(),
            cold.trace.total_source_calls()
        );
        // ...and the answer is structurally identical.
        assert_eq!(
            cold.results.top_level().len(),
            warm.results.top_level().len()
        );
        for (&a, &b) in cold
            .results
            .top_level()
            .iter()
            .zip(warm.results.top_level())
        {
            assert!(oem::eq::struct_eq_cross(&cold.results, a, &warm.results, b));
        }
    }

    #[test]
    fn containment_probe_serves_narrow_query_from_broad_answer() {
        let srcs = sources();
        let registry = standard_registry();
        let cache = Arc::new(AnswerCache::new(CacheOptions::enabled()));
        // Warm with the whole view: whois answers the broad (unpinned)
        // person query.
        let broad = planned("P :- P:<cs_person {}>@med", &srcs);
        execute(&broad, &srcs, &registry, &cache_opts(&cache)).unwrap();
        // The Joe Chung query's whois source query pins the name — the
        // broad cached answer contains it; no whois round-trip.
        let narrow = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let out = execute(&narrow, &srcs, &registry, &cache_opts(&cache)).unwrap();
        assert_eq!(
            out.trace.calls(sym("whois")),
            0,
            "{:?}",
            out.trace.source_calls
        );
        assert!(
            out.trace
                .containment_hits
                .get(&sym("whois"))
                .copied()
                .unwrap_or(0)
                >= 1,
            "{:?}",
            out.trace.containment_hits
        );
        // The filtered answer is exactly the direct answer.
        let direct = execute(&narrow, &srcs, &registry, &ExecOptions::default()).unwrap();
        assert_eq!(
            out.results.top_level().len(),
            direct.results.top_level().len()
        );
        for (&a, &b) in out
            .results
            .top_level()
            .iter()
            .zip(direct.results.top_level())
        {
            assert!(oem::eq::struct_eq_cross(
                &out.results,
                a,
                &direct.results,
                b
            ));
        }
    }

    #[test]
    fn cache_off_run_reports_no_cache_counters() {
        let srcs = sources();
        let physical = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let registry = standard_registry();
        let out = execute(&physical, &srcs, &registry, &ExecOptions::default()).unwrap();
        assert!(out.trace.cache_hits.is_empty());
        assert!(out.trace.containment_hits.is_empty());
        assert!(out.trace.cache_misses.is_empty());
        assert_eq!(out.trace.bytes_cached, 0);
        assert!(out.trace.nodes().all(|t| t.metrics.cache_misses == 0));
    }

    #[test]
    fn flaky_source_populates_cache_exactly_once() {
        // whois fails twice, then answers: the retried success must land
        // in the cache exactly once, and the next execution serves it.
        let (srcs, whois) = faulty_sources(FaultPlan::none().fail_first(2));
        let physical = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let registry = standard_registry();
        let cache = Arc::new(AnswerCache::new(CacheOptions::enabled()));
        let opts = ExecOptions {
            fault: crate::retry::FaultOptions {
                retry: RetryPolicy::retries(2),
                sleeper: Some(Arc::new(crate::retry::VirtualSleeper(Arc::new(
                    wrappers::VirtualClock::new(),
                )))),
                ..Default::default()
            },
            cache: Some(Arc::clone(&cache)),
            ..Default::default()
        };
        let out = execute(&physical, &srcs, &registry, &opts).unwrap();
        assert_eq!(out.results.top_level().len(), 1);
        assert_eq!(whois.calls_seen(), 3, "2 failures + 1 success");
        assert_eq!(cache.entry_count(sym("whois")), 1, "exactly one entry");
        let warm = execute(&physical, &srcs, &registry, &opts).unwrap();
        assert_eq!(warm.results.top_level().len(), 1);
        assert_eq!(whois.calls_seen(), 3, "second run must not touch whois");
    }

    #[test]
    fn deadline_failed_answer_is_never_cached() {
        // whois answers 80 virtual ms late against a 50ms deadline: the
        // answer is discarded AND must not be cached for later queries.
        let clock = Arc::new(wrappers::VirtualClock::new());
        let whois = Arc::new(
            FaultInjectingWrapper::new(Arc::new(whois_wrapper()), FaultPlan::none().latency_ms(80))
                .with_virtual_clock(Arc::clone(&clock)),
        );
        let mut srcs: HashMap<Symbol, Arc<dyn Wrapper>> = HashMap::new();
        srcs.insert(sym("whois"), whois);
        srcs.insert(sym("cs"), Arc::new(cs_wrapper()));
        let physical = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let registry = standard_registry();
        let cache = Arc::new(AnswerCache::new(CacheOptions::enabled()));
        let out = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                fault: crate::retry::FaultOptions {
                    source_deadline_ms: Some(50),
                    on_source_failure: OnSourceFailure::Partial,
                    ..Default::default()
                }
                .on_virtual_time(clock),
                cache: Some(Arc::clone(&cache)),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.results.top_level().is_empty());
        assert_eq!(
            cache.entry_count(sym("whois")),
            0,
            "late answer must not be cached"
        );
    }

    #[test]
    fn cached_answers_embargoed_while_source_is_down() {
        // Warm the cache while whois is healthy, then take it down: the
        // cache must NOT mask the outage (no --cache-stale-ok).
        let (srcs, whois) = faulty_sources(FaultPlan::none().fail_every(2));
        let physical = planned("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med", &srcs);
        let registry = standard_registry();
        let cache = Arc::new(AnswerCache::new(CacheOptions::enabled()));
        // Call 1 succeeds (fail_every(2) fails calls 2, 4, ...): cached.
        let opts = ExecOptions {
            fault: crate::retry::FaultOptions {
                on_source_failure: OnSourceFailure::Partial,
                ..Default::default()
            },
            cache: Some(Arc::clone(&cache)),
            ..Default::default()
        };
        let ok = execute(&physical, &srcs, &registry, &opts).unwrap();
        assert_eq!(ok.results.top_level().len(), 1);
        assert_eq!(cache.entry_count(sym("whois")), 1);
        // Simulate the outage being observed: once the executor sees the
        // failure, cached whois answers are embargoed...
        cache.mark_failed(sym("whois"));
        let down = execute(&physical, &srcs, &registry, &opts).unwrap();
        // ...so the query went back to the source (which failed — call 2),
        // and the chain degraded instead of serving stale data.
        assert!(down.results.top_level().is_empty());
        assert!(whois.calls_seen() >= 2);
        // A stale-ok cache serves through the outage instead.
        let stale = Arc::new(AnswerCache::new(CacheOptions {
            enabled: true,
            stale_ok: true,
            ..Default::default()
        }));
        let warm_opts = ExecOptions {
            cache: Some(Arc::clone(&stale)),
            ..opts.clone()
        };
        let ok2 = execute(&physical, &srcs, &registry, &warm_opts).unwrap();
        assert_eq!(ok2.results.top_level().len(), 1);
        stale.mark_failed(sym("whois"));
        let served = execute(&physical, &srcs, &registry, &warm_opts).unwrap();
        assert_eq!(
            served.results.top_level().len(),
            1,
            "stale_ok serves through outage"
        );
    }

    #[test]
    fn per_execution_param_memo_dedups_across_chains() {
        // Identical bound tuples are fetched once per execution, even in
        // parallel mode — the execution's memo extends the per-chain one.
        let srcs = sources();
        let registry = standard_registry();
        let (once, twice) = bind_join_once_and_twice(&srcs);
        let one = execute(&once, &srcs, &registry, &ExecOptions::default()).unwrap();
        let seq = execute(&twice, &srcs, &registry, &ExecOptions::default()).unwrap();
        let par = execute(
            &twice,
            &srcs,
            &registry,
            &ExecOptions {
                parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(one.trace.calls(sym("cs")) > 0);
        assert_eq!(seq.trace.calls(sym("cs")), one.trace.calls(sym("cs")));
        // Sequential and parallel must agree call-for-call: the memo is
        // shared per-execution, not per-thread.
        assert_eq!(seq.trace.source_calls, par.trace.source_calls);
        assert_eq!(seq.results.top_level().len(), par.results.top_level().len());
    }

    /// A source that answers only once two callers have asked, so that
    /// two parallel chains leave their first node together.
    struct Rendezvous {
        inner: Arc<dyn Wrapper>,
        both_asked: std::sync::Barrier,
    }

    impl Wrapper for Rendezvous {
        fn name(&self) -> Symbol {
            self.inner.name()
        }
        fn capabilities(&self) -> &Capabilities {
            self.inner.capabilities()
        }
        fn query(&self, q: &Rule) -> std::result::Result<ObjectStore, WrapperError> {
            self.both_asked.wait();
            self.inner.query(q)
        }
    }

    #[test]
    fn per_execution_param_memo_dedups_across_parallel_chains_with_the_cache_on() {
        // Two chains that reach a tuple together both miss the empty
        // cache; the slot lock makes the second wait for the first's
        // round-trip instead of paying its own, and a miss is counted per
        // round-trip. One row per batch keeps the node on one call per
        // tuple.
        let mut srcs = sources();
        let registry = standard_registry();
        let (once, twice) = bind_join_once_and_twice(&srcs);
        let per_tuple = ExecOptions {
            batch_size: 1,
            ..Default::default()
        };
        let one = execute(&once, &srcs, &registry, &per_tuple).unwrap();
        let tuples = one.trace.calls(sym("cs"));
        assert!(tuples > 1, "{:?}", one.trace.source_calls);
        let whois = srcs.remove(&sym("whois")).unwrap();
        srcs.insert(
            sym("whois"),
            Arc::new(Rendezvous {
                inner: whois,
                both_asked: std::sync::Barrier::new(2),
            }),
        );
        let cache = Arc::new(AnswerCache::new(CacheOptions::enabled()));
        let par = execute(
            &twice,
            &srcs,
            &registry,
            &ExecOptions {
                parallel: true,
                cache: Some(Arc::clone(&cache)),
                ..per_tuple
            },
        )
        .unwrap();
        assert_eq!(par.trace.calls(sym("whois")), 2);
        assert_eq!(par.trace.calls(sym("cs")), tuples);
        assert_eq!(par.trace.cache_misses.get(&sym("cs")), Some(&tuples));
        assert_eq!(par.results.top_level().len(), one.results.top_level().len());
    }

    #[test]
    fn circuit_breaker_stops_hammering_a_dead_source() {
        let (srcs, whois) = faulty_sources(FaultPlan::always_down());
        // Two chains, each would try whois; threshold 2 trips during the
        // first chain's retries, the second chain short-circuits.
        let physical = planned("S :- S:<cs_person {<year 3>}>@med", &srcs);
        let registry = standard_registry();
        let out = execute(
            &physical,
            &srcs,
            &registry,
            &ExecOptions {
                fault: crate::retry::FaultOptions {
                    retry: RetryPolicy::retries(5),
                    circuit_threshold: 2,
                    on_source_failure: OnSourceFailure::Partial,
                    sleeper: Some(Arc::new(crate::retry::VirtualSleeper(Arc::new(
                        wrappers::VirtualClock::new(),
                    )))),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // The breaker capped the damage: 2 attempts, not 6 per chain.
        assert_eq!(whois.calls_seen(), 2, "circuit must open after 2");
        assert_eq!(out.trace.failures_for(sym("whois")), 2);
        assert!(!out.trace.completeness.is_complete());
    }
}
