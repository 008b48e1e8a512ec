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
//! *input batch* instead — `prefetch_tuples` here, the `valueset` module
//! beside it — and files the answer per tuple, so memo, cache and
//! statistics cannot tell the difference; any other source keeps the
//! per-tuple path.
//!
//! Every op records a [`crate::metrics::NodeMetrics`] while it runs —
//! rows in/out, source round-trips, timing — into a per-query
//! [`QueryTrace`]; with [`ExecOptions::trace`] enabled the emitted binding
//! tables are additionally rendered, which is how the Figure 3.6
//! walkthrough is regenerated.

use crate::cache::{AnswerCache, CacheHit};
use crate::error::{MedError, Result};
use crate::externals::{Callee, ExternalRegistry};
use crate::graph::{ExtractVar, Node, PhysicalPlan, RulePlan, VarKind};
use crate::metrics::{NodeMetrics, NodeTrace, Observation, QueryTrace, RuleTrace};
use crate::retry::{CircuitBreaker, FaultOptions, OnSourceFailure, Sleeper, ThreadSleeper};
use crate::table::BindingTable;
use crate::valueset;
use engine::bindings::{Bindings, BoundValue};
use engine::construct::Constructor;
use engine::matcher::{atomic_eq, atomic_key};
use engine::subst::{fill_params_rule, Subst};
use msl::{Rule, TailItem, Term};
use oem::{copy, ObjId, ObjectStore, Symbol, Value};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use wrappers::fault::{Clock, SystemClock};
use wrappers::{Rows, Wrapper, WrapperError};

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

// ---- the chain pipeline (pull-based bounded batches) --------------------
//
// Every batch size produces byte-identical answers: construction copies
// what the final table references in row order, so the order in which
// objects arrived in a chain's memory is invisible to the result.

/// A batch of binding rows flowing between pipeline ops. Ops never emit
/// empty batches; a `None` pull result means permanently exhausted.
type Batch = Vec<Vec<BoundValue>>;

/// Extracted rows for one parameter tuple, shared between the memo table
/// and the cursor currently crossing them.
type MemoRows = std::rc::Rc<Vec<Vec<BoundValue>>>;

/// What one op accumulates across pulls.
#[derive(Default)]
struct OpMeter {
    /// The counters the op's trace entry will report, incremented in
    /// place; `wall_ns`, the estimates and `dedup_hits` are filled in
    /// when the chain ends.
    metrics: NodeMetrics,
    /// Inclusive wall time: every nanosecond spent inside this op's pull,
    /// including time spent pulling upstream. The chain is linear and only
    /// the next op pulls this one, so the trace recovers each op's
    /// exclusive time as `inclusive[i] - inclusive[i-1]`.
    wall_ns_inclusive: u64,
    /// Incrementally rendered output rows (trace mode only); the header is
    /// prepended at trace build, so the concatenation equals a one-shot
    /// render of the whole table.
    rendered: String,
}

/// A partially-absorbed source answer: rows already absorbed into chain
/// memory, plus the not-yet-absorbed remainder of the wrapper's rows.
struct ExtSource {
    ext: Vec<Vec<BoundValue>>,
    /// `Some` while answer rows remain: the rows, the cursor into them,
    /// and the answer's one old-id → new-id map through which every chunk
    /// is absorbed, so an object shared across rows or chunks is copied
    /// once.
    rest: Option<(Rows, usize, HashMap<ObjId, ObjId>)>,
}

impl ExtSource {
    fn from_rows(rows: Vec<Vec<BoundValue>>) -> ExtSource {
        ExtSource {
            ext: rows,
            rest: None,
        }
    }

    fn from_answer(answer: Rows) -> ExtSource {
        ExtSource {
            ext: Vec::new(),
            rest: Some((answer, 0, HashMap::new())),
        }
    }

    fn fully_extracted(&self) -> bool {
        self.rest.is_none()
    }

    /// Absorb up to `n` more answer rows into `ext`.
    fn extract_more(&mut self, memory: &mut ObjectStore, counters: &mut NodeMetrics, n: usize) {
        let Some((answer, cursor, map)) = &mut self.rest else {
            return;
        };
        let end = cursor.saturating_add(n.max(1)).min(answer.rows.len());
        counters.bindings_produced += end - *cursor;
        for row in &mut answer.rows[*cursor..end] {
            let row = std::mem::take(row);
            self.ext.push(absorb(&answer.store, row, memory, map));
        }
        *cursor = end;
        if *cursor >= answer.rows.len() {
            self.rest = None;
        }
    }
}

/// Probe the answer cache for `query`. A hit's rows are absorbed into
/// `memory` and it counts as an exact or containment hit. Its
/// row count is a real cardinality the source once returned for this
/// query, so it *is* recorded as a §3.5 observation — otherwise a
/// cache-heavy workload starves the EWMA feed. What a hit must never feed
/// is the round-trip accounting (source_calls, latency, failures): serving
/// from cache says nothing about the source's speed or health.
fn cache_probe(
    source: Symbol,
    query: &Rule,
    vars: &[ExtractVar],
    memory: &mut ObjectStore,
    ctx: &ChainCtx<'_>,
    stats: &mut ChainStats,
    counters: &mut NodeMetrics,
) -> Option<Vec<Vec<BoundValue>>> {
    let cache = ctx.cache.filter(|c| c.enabled_for(source))?;
    let (rows, kind) = cache.lookup(source, query, vars, memory)?;
    match kind {
        CacheHit::Exact => {
            counters.cache_hits += 1;
            *stats.trace.cache_hits.entry(source).or_insert(0) += 1;
        }
        CacheHit::Containment => {
            counters.containment_hits += 1;
            *stats.trace.containment_hits.entry(source).or_insert(0) += 1;
        }
    }
    stats.trace.observations.push(Observation {
        source,
        label: query_label(query),
        count: rows.len(),
    });
    counters.bindings_produced += rows.len();
    Some(rows)
}

/// Resolve a non-parameterized source query to an [`ExtSource`]. Cache
/// hits arrive fully absorbed; a fresh round-trip keeps the answer's rows
/// so they are absorbed chunk by chunk as downstream ops pull.
fn open_ext_source(
    source: Symbol,
    query: &Rule,
    vars: &[ExtractVar],
    memory: &mut ObjectStore,
    ctx: &ChainCtx<'_>,
    stats: &mut ChainStats,
    counters: &mut NodeMetrics,
) -> Result<ExtSource> {
    if let Some(rows) = cache_probe(source, query, vars, memory, ctx, stats, counters) {
        return Ok(ExtSource::from_rows(rows));
    }
    let answer = fetch_rows(source, query, vars, 0, ctx, stats, counters)?;
    Ok(ExtSource::from_answer(answer))
}

/// The inner-side state a hash join builds on first input.
struct JoinBuild {
    /// Join key → indices into `rows`, in extraction order.
    index: HashMap<Vec<BoundValue>, Vec<usize>>,
    rows: Vec<Vec<BoundValue>>,
    outer_key_idx: Vec<usize>,
}

/// Per-node pipeline state. Lifetimes borrow the plan.
enum OpKind<'p> {
    /// The unit table as a stream: one empty row, once.
    Unit { emitted: bool },
    Query {
        source: Symbol,
        query: &'p Rule,
        vars: &'p [ExtractVar],
        /// `None` until the first non-empty input batch — an empty
        /// upstream never pays the round-trip.
        src: Option<ExtSource>,
        /// Input rows waiting to be crossed with the extraction.
        pending: std::collections::VecDeque<Vec<BoundValue>>,
        /// The input row currently being crossed, with its cursor into
        /// the extracted rows.
        cur: Option<(Vec<BoundValue>, usize)>,
    },
    ParamQuery {
        source: Symbol,
        query: &'p Rule,
        params: &'p [Symbol],
        vars: &'p [ExtractVar],
        /// [`set_valued_form`] of `query`, worked out by the first input
        /// batch that holds two new tuples ([`prefetch_tuples`]): `Some`
        /// sends such a batch in one call, `None` keeps §3.4's one query
        /// per tuple.
        batch: std::cell::OnceCell<Option<Box<Rule>>>,
        /// `query`'s [`ParamMemo::query_id`], the part of a memo key every
        /// tuple of this node has in common; filled by the first tuple that
        /// needs a slot (one the answer cache does not serve).
        query_id: std::cell::OnceCell<usize>,
        /// Per-chain tuple memo; `Rc` so repeated tuples share one
        /// extraction (the cross-chain memo lives in [`ChainCtx`]).
        memo: HashMap<Vec<Value>, MemoRows>,
        pending: std::collections::VecDeque<Vec<BoundValue>>,
        cur: Option<(Vec<BoundValue>, MemoRows, usize)>,
        /// Parameter column positions, resolved on the first row: a
        /// missing parameter is an execution error, not a plan-build one.
        param_idx: Option<Vec<usize>>,
    },
    External {
        pred: Symbol,
        args: &'p [Term],
        new_vars: &'p [Symbol],
        /// Where each argument's value comes from in a row.
        arg_src: Vec<ArgSrc<'p>>,
        /// Per new variable, the argument position it is read from.
        new_pos: Vec<Option<usize>>,
        /// The implementation resolved for each bound/free mask met so
        /// far: a column can hold an atom in one row and an object in
        /// another.
        resolved: Vec<(Vec<bool>, Callee)>,
    },
    RestFilter {
        var: Symbol,
        condition: &'p msl::Pattern,
        /// Column of `var`, resolved on the first non-empty batch.
        idx: Option<usize>,
        /// Compiled flat condition when the pattern is a constant
        /// label/value pair — the whole batch then runs through the
        /// columnar equality kernel instead of per-row matching.
        flat: Option<engine::batch::FlatCond>,
    },
    HashJoin {
        source: Symbol,
        query: &'p Rule,
        vars: &'p [ExtractVar],
        join_vars: &'p [Symbol],
        inner_key_idx: Vec<usize>,
        keep_inner: Vec<usize>,
        /// `None` until the first non-empty input batch.
        build: Option<JoinBuild>,
    },
    DupElim {
        /// Projection column positions (vars ∩ input columns, vars order).
        proj: Vec<usize>,
        /// Pipeline breaker: rows ever emitted, for first-occurrence dedup
        /// across batches.
        seen: std::collections::HashSet<Vec<BoundValue>>,
    },
}

/// Where an external predicate's argument comes from in an input row.
enum ArgSrc<'p> {
    /// A constant of the call.
    Const(&'p Value),
    /// An input column: its atom, or nothing when it holds an object.
    Col(usize),
    /// A variable the row does not bind, at the first position it takes.
    Unbound(usize),
    /// A term no row can give a value.
    Other,
}

/// One op in a chain pipeline. `ops[0]` is the synthetic unit
/// source; `ops[k]` executes `rule_plan.nodes[k - 1]`.
struct OpState<'p> {
    in_cols: Vec<Symbol>,
    out_cols: Vec<Symbol>,
    meter: OpMeter,
    /// Output rows produced beyond the batch cap, drained by later pulls.
    carry: std::collections::VecDeque<Vec<BoundValue>>,
    /// The op returned `None`; every later pull is terminal.
    exhausted: bool,
    /// Upstream returned `None`.
    upstream_done: bool,
    kind: OpKind<'p>,
}

/// Everything the pulls of one chain share.
struct StreamEnv<'a, 'b> {
    memory: &'a mut ObjectStore,
    ctx: &'a ChainCtx<'b>,
    stats: &'a mut ChainStats,
    batch: usize,
    /// Index of the op whose source went unavailable, with the error. The
    /// chain is dead: the driver stops pulling and discards all rows.
    failed: Option<(usize, MedError)>,
}

/// Build the op pipeline for one rule plan. Each op's output columns are
/// its input columns followed by the variables the node newly binds;
/// dup-elim instead projects onto its variable list.
fn build_ops(rule_plan: &RulePlan) -> Result<Vec<OpState<'_>>> {
    let mut ops: Vec<OpState<'_>> = Vec::with_capacity(rule_plan.nodes.len() + 1);
    ops.push(OpState {
        in_cols: Vec::new(),
        out_cols: Vec::new(),
        meter: OpMeter::default(),
        carry: std::collections::VecDeque::new(),
        exhausted: false,
        upstream_done: false,
        kind: OpKind::Unit { emitted: false },
    });
    for node in &rule_plan.nodes {
        let in_cols = ops.last().expect("unit op present").out_cols.clone();
        let (out_cols, kind): (Vec<Symbol>, OpKind<'_>) = match node {
            Node::Query {
                source,
                query,
                vars,
            } => (
                in_cols
                    .iter()
                    .copied()
                    .chain(vars.iter().map(|v| v.var))
                    .collect(),
                OpKind::Query {
                    source: *source,
                    query,
                    vars,
                    src: None,
                    pending: std::collections::VecDeque::new(),
                    cur: None,
                },
            ),
            Node::ParamQuery {
                source,
                query,
                params,
                vars,
            } => (
                in_cols
                    .iter()
                    .copied()
                    .chain(vars.iter().map(|v| v.var))
                    .collect(),
                OpKind::ParamQuery {
                    source: *source,
                    query,
                    params,
                    vars,
                    batch: std::cell::OnceCell::new(),
                    query_id: std::cell::OnceCell::new(),
                    memo: HashMap::new(),
                    pending: std::collections::VecDeque::new(),
                    cur: None,
                    param_idx: None,
                },
            ),
            Node::ExternalPred {
                pred,
                args,
                new_vars,
            } => (
                in_cols
                    .iter()
                    .copied()
                    .chain(new_vars.iter().copied())
                    .collect(),
                OpKind::External {
                    pred: *pred,
                    args,
                    new_vars,
                    arg_src: (args.iter().enumerate())
                        .map(|(k, t)| match t {
                            Term::Const(c) => ArgSrc::Const(c),
                            Term::Var(v) => match in_cols.iter().position(|c| c == v) {
                                Some(ci) => ArgSrc::Col(ci),
                                None => {
                                    ArgSrc::Unbound(args.iter().position(|a| a == t).unwrap_or(k))
                                }
                            },
                            _ => ArgSrc::Other,
                        })
                        .collect(),
                    new_pos: (new_vars.iter())
                        .map(|v| args.iter().position(|a| *a == Term::Var(*v)))
                        .collect(),
                    resolved: Vec::new(),
                },
            ),
            Node::RestFilter { var, condition } => (
                in_cols.clone(),
                OpKind::RestFilter {
                    var: *var,
                    condition,
                    idx: None,
                    flat: engine::batch::FlatCond::compile(condition),
                },
            ),
            Node::HashJoin {
                source,
                query,
                vars,
                join_vars,
            } => {
                let inner_key_idx: Vec<usize> = join_vars
                    .iter()
                    .map(|v| {
                        vars.iter().position(|e| e.var == *v).ok_or_else(|| {
                            MedError::Planning(format!(
                                "join variable {v} missing from the @{source} extraction"
                            ))
                        })
                    })
                    .collect::<Result<_>>()?;
                let keep_inner: Vec<usize> = (0..vars.len())
                    .filter(|i| !inner_key_idx.contains(i))
                    .collect();
                (
                    in_cols
                        .iter()
                        .copied()
                        .chain(keep_inner.iter().map(|&i| vars[i].var))
                        .collect(),
                    OpKind::HashJoin {
                        source: *source,
                        query,
                        vars,
                        join_vars,
                        inner_key_idx,
                        keep_inner,
                        build: None,
                    },
                )
            }
            Node::DupElim { vars } => {
                let proj: Vec<usize> = vars
                    .iter()
                    .filter_map(|v| in_cols.iter().position(|c| c == v))
                    .collect();
                let out_cols: Vec<Symbol> = vars
                    .iter()
                    .filter(|v| in_cols.contains(v))
                    .copied()
                    .collect();
                (
                    out_cols,
                    OpKind::DupElim {
                        proj,
                        seen: std::collections::HashSet::new(),
                    },
                )
            }
        };
        ops.push(OpState {
            in_cols,
            out_cols,
            meter: OpMeter::default(),
            carry: std::collections::VecDeque::new(),
            exhausted: false,
            upstream_done: false,
            kind,
        });
    }
    Ok(ops)
}

/// Pull the next batch from `ops[i]`, with per-op bookkeeping (inclusive
/// wall time, rows out, peak residency, incremental table rendering).
fn pull(ops: &mut [OpState<'_>], i: usize, env: &mut StreamEnv<'_, '_>) -> Result<Option<Batch>> {
    let start = Instant::now();
    let out = pull_inner(ops, i, env);
    let op = &mut ops[i];
    op.meter.wall_ns_inclusive += start.elapsed().as_nanos() as u64;
    if let Ok(Some(batch)) = &out {
        let m = &mut op.meter.metrics;
        m.rows_out += batch.len();
        m.peak_batch_rows = m.peak_batch_rows.max(batch.len());
        m.peak_bytes_resident = m
            .peak_bytes_resident
            .max(crate::table::approx_batch_bytes(batch));
        if env.ctx.trace_on {
            op.meter
                .rendered
                .push_str(&crate::table::render_rows(batch, env.memory));
        }
    }
    out
}

fn pull_inner(
    ops: &mut [OpState<'_>],
    i: usize,
    env: &mut StreamEnv<'_, '_>,
) -> Result<Option<Batch>> {
    if ops[i].exhausted {
        return Ok(None);
    }
    let cap = env.batch.max(1);
    // Drain overflow from an earlier pull before producing anything new.
    if !ops[i].carry.is_empty() {
        let n = ops[i].carry.len().min(cap);
        return Ok(Some(ops[i].carry.drain(..n).collect()));
    }
    let (head, tail) = ops.split_at_mut(i);
    let op = &mut tail[0];
    let out: Option<Batch> = match &mut op.kind {
        OpKind::Unit { emitted } => {
            if *emitted {
                None
            } else {
                *emitted = true;
                Some(vec![Vec::new()])
            }
        }
        OpKind::Query {
            source,
            query,
            vars,
            src,
            pending,
            cur,
        } => {
            let mut out: Batch = Vec::new();
            'fill: while out.len() < cap {
                if cur.is_none() {
                    match pending.pop_front() {
                        Some(row) => *cur = Some((row, 0)),
                        None => {
                            if op.upstream_done {
                                break 'fill;
                            }
                            match pull(head, i - 1, env)? {
                                Some(batch) => {
                                    op.meter.metrics.rows_in += batch.len();
                                    pending.extend(batch);
                                }
                                None => op.upstream_done = true,
                            }
                            continue 'fill;
                        }
                    }
                }
                if src.is_none() {
                    match open_ext_source(
                        *source,
                        query,
                        vars,
                        env.memory,
                        env.ctx,
                        env.stats,
                        &mut op.meter.metrics,
                    ) {
                        Ok(s) => *src = Some(s),
                        Err(e @ MedError::SourceUnavailable { .. }) => {
                            env.failed = Some((i, e));
                            break 'fill;
                        }
                        Err(e) => return Err(e),
                    }
                }
                let s = src.as_mut().expect("source opened above");
                let (row, idx) = cur.as_mut().expect("current row ensured above");
                while *idx >= s.ext.len() && !s.fully_extracted() {
                    s.extract_more(env.memory, &mut op.meter.metrics, cap);
                }
                if *idx >= s.ext.len() {
                    *cur = None; // row fully crossed with the extraction
                    continue 'fill;
                }
                while *idx < s.ext.len() && out.len() < cap {
                    out.push(widened(row, s.ext[*idx].iter().cloned()));
                    *idx += 1;
                }
            }
            if env.failed.is_some() || out.is_empty() {
                None
            } else {
                Some(out)
            }
        }
        OpKind::ParamQuery {
            source,
            query,
            params,
            vars,
            batch,
            query_id,
            memo,
            pending,
            cur,
            param_idx,
        } => {
            let mut out: Batch = Vec::new();
            'fill: while out.len() < cap {
                if cur.is_none() {
                    let Some(row) = pending.pop_front() else {
                        if op.upstream_done {
                            break 'fill;
                        }
                        match pull(head, i - 1, env)? {
                            Some(rows) => {
                                op.meter.metrics.rows_in += rows.len();
                                if param_idx.is_none() {
                                    let idx: Vec<usize> = params
                                        .iter()
                                        .map(|p| {
                                            op.in_cols.iter().position(|c| c == p).ok_or_else(
                                                || {
                                                    MedError::Planning(format!(
                                                        "parameter {p} missing from table"
                                                    ))
                                                },
                                            )
                                        })
                                        .collect::<Result<_>>()?;
                                    *param_idx = Some(idx);
                                }
                                match prefetch_tuples(
                                    *source,
                                    query,
                                    batch,
                                    query_id,
                                    params,
                                    vars,
                                    param_idx.as_ref().expect("resolved above"),
                                    &rows,
                                    memo,
                                    env,
                                    &mut op.meter.metrics,
                                ) {
                                    Ok(()) => {}
                                    Err(e @ MedError::SourceUnavailable { .. }) => {
                                        env.failed = Some((i, e));
                                        break 'fill;
                                    }
                                    Err(e) => return Err(e),
                                }
                                pending.extend(rows);
                            }
                            None => op.upstream_done = true,
                        }
                        continue 'fill;
                    };
                    let idxs = param_idx.as_ref().expect("resolved with the first batch");
                    // A non-atomic parameter cannot parameterize the query:
                    // the row yields nothing.
                    let Some(key) = param_tuple(&row, idxs) else {
                        continue 'fill;
                    };
                    let ext = match memo.get(&key) {
                        Some(e) => std::rc::Rc::clone(e),
                        None => {
                            let filled = fill_tuple(query, params, &key);
                            let e = match run_and_extract(
                                *source,
                                &filled,
                                vars,
                                env.memory,
                                env.ctx,
                                env.stats,
                                &mut op.meter.metrics,
                                Some(&|| {
                                    shared_key(env.ctx.param_memo, *source, query, query_id, &key)
                                }),
                            ) {
                                Ok(e) => std::rc::Rc::new(e),
                                Err(e @ MedError::SourceUnavailable { .. }) => {
                                    env.failed = Some((i, e));
                                    break 'fill;
                                }
                                Err(e) => return Err(e),
                            };
                            memo.insert(key, std::rc::Rc::clone(&e));
                            e
                        }
                    };
                    *cur = Some((row, ext, 0));
                }
                let (row, ext, idx) = cur.as_mut().expect("current row ensured above");
                if *idx >= ext.len() {
                    *cur = None;
                    continue 'fill;
                }
                while *idx < ext.len() && out.len() < cap {
                    out.push(widened(row, ext[*idx].iter().cloned()));
                    *idx += 1;
                }
            }
            if env.failed.is_some() || out.is_empty() {
                None
            } else {
                Some(out)
            }
        }
        OpKind::External {
            pred,
            args,
            new_vars,
            arg_src,
            new_pos,
            resolved,
        } => {
            let mut out: Batch = Vec::new();
            let registry = env.ctx.registry;
            let mut values: Vec<Option<Value>> = Vec::with_capacity(args.len());
            while out.is_empty() {
                if op.upstream_done {
                    break;
                }
                match pull(head, i - 1, env)? {
                    None => op.upstream_done = true,
                    Some(batch) => {
                        op.meter.metrics.rows_in += batch.len();
                        let mut produced = 0usize;
                        for row in &batch {
                            values.clear();
                            values.extend(arg_src.iter().map(|src| match src {
                                ArgSrc::Const(c) => Some((*c).clone()),
                                ArgSrc::Col(ci) => row[*ci].as_atom().cloned(),
                                ArgSrc::Unbound(_) | ArgSrc::Other => None,
                            }));
                            let same_mask = |(mask, _): &&(Vec<bool>, Callee)| {
                                mask.iter().copied().eq(values.iter().map(Option::is_some))
                            };
                            let callee = match resolved.iter().find(same_mask) {
                                Some(&(_, callee)) => callee,
                                None => {
                                    let mask: Vec<bool> =
                                        values.iter().map(Option::is_some).collect();
                                    let callee = registry.resolve(*pred, args, &mask)?;
                                    resolved.push((mask, callee));
                                    callee
                                }
                            };
                            'answer: for full in registry.call(callee, *pred, args, &values)? {
                                // A produced value must agree with a column
                                // holding an object (never) and with the
                                // variable's first position.
                                for (k, src) in arg_src.iter().enumerate() {
                                    let agrees = match src {
                                        ArgSrc::Col(_) => values[k].is_some(),
                                        ArgSrc::Unbound(first) => full[k] == full[*first],
                                        ArgSrc::Const(_) | ArgSrc::Other => true,
                                    };
                                    if !agrees {
                                        continue 'answer;
                                    }
                                }
                                let mut r = Vec::with_capacity(row.len() + new_vars.len());
                                r.extend_from_slice(row);
                                for (v, pos) in new_vars.iter().zip(new_pos.iter()) {
                                    let Some(pos) = pos else {
                                        return Err(MedError::External(format!(
                                            "{pred} did not bind {v} as planned"
                                        )));
                                    };
                                    r.push(BoundValue::Atom(full[*pos].clone()));
                                }
                                if out.len() < cap {
                                    out.push(r);
                                } else {
                                    op.carry.push_back(r);
                                }
                                produced += 1;
                            }
                        }
                        if !new_vars.is_empty() {
                            op.meter.metrics.bindings_produced += produced;
                        }
                    }
                }
            }
            if out.is_empty() {
                None
            } else {
                Some(out)
            }
        }
        OpKind::RestFilter {
            var,
            condition,
            idx,
            flat,
        } => {
            let mut out: Batch = Vec::new();
            while out.is_empty() {
                if op.upstream_done {
                    break;
                }
                match pull(head, i - 1, env)? {
                    None => op.upstream_done = true,
                    Some(batch) => {
                        op.meter.metrics.rows_in += batch.len();
                        let ci = match *idx {
                            Some(ci) => ci,
                            None => {
                                let ci =
                                    op.in_cols.iter().position(|c| c == var).ok_or_else(|| {
                                        MedError::Planning(format!(
                                            "filter variable {var} missing from table"
                                        ))
                                    })?;
                                *idx = Some(ci);
                                ci
                            }
                        };
                        match flat {
                            Some(f) => {
                                // Vectorized: one condition across the whole
                                // batch over columnar member views. Rows whose
                                // cell is not an object set keep no members
                                // and therefore drop — same as the per-row
                                // path skipping them.
                                let sets: Vec<&[oem::ObjId]> = batch
                                    .iter()
                                    .map(|row| row[ci].as_obj_set().unwrap_or(&[]))
                                    .collect();
                                let keep = f.filter_batch(env.memory, &sets);
                                for (row, k) in batch.iter().zip(keep) {
                                    if k {
                                        out.push(row.clone());
                                    }
                                }
                            }
                            None => {
                                for row in &batch {
                                    let BoundValue::ObjSet(ids) = &row[ci] else {
                                        continue;
                                    };
                                    let passes = ids.iter().any(|&id| {
                                        !engine::matcher::match_pattern(
                                            env.memory,
                                            id,
                                            condition,
                                            &Bindings::new(),
                                        )
                                        .is_empty()
                                    });
                                    if passes {
                                        out.push(row.clone());
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if out.is_empty() {
                None
            } else {
                Some(out)
            }
        }
        OpKind::HashJoin {
            source,
            query,
            vars,
            join_vars,
            inner_key_idx,
            keep_inner,
            build,
        } => {
            let mut out: Batch = Vec::new();
            'fill: while out.is_empty() {
                if op.upstream_done {
                    break;
                }
                match pull(head, i - 1, env)? {
                    None => op.upstream_done = true,
                    Some(batch) => {
                        op.meter.metrics.rows_in += batch.len();
                        if build.is_none() {
                            // First non-empty input: fetch and index the
                            // whole inner side — the probe needs all of it,
                            // so the build side is a pipeline breaker.
                            let extracted = match run_and_extract(
                                *source,
                                query,
                                vars,
                                env.memory,
                                env.ctx,
                                env.stats,
                                &mut op.meter.metrics,
                                None,
                            ) {
                                Ok(e) => e,
                                Err(e @ MedError::SourceUnavailable { .. }) => {
                                    env.failed = Some((i, e));
                                    break 'fill;
                                }
                                Err(e) => return Err(e),
                            };
                            let mut index: HashMap<Vec<BoundValue>, Vec<usize>> =
                                HashMap::with_capacity(extracted.len());
                            for (ri, row) in extracted.iter().enumerate() {
                                index
                                    .entry(join_key(row, inner_key_idx).collect())
                                    .or_default()
                                    .push(ri);
                            }
                            let outer_key_idx: Vec<usize> = join_vars
                                .iter()
                                .map(|v| {
                                    op.in_cols.iter().position(|c| c == v).ok_or_else(|| {
                                        MedError::Planning(format!(
                                            "join variable {v} missing from table"
                                        ))
                                    })
                                })
                                .collect::<Result<_>>()?;
                            *build = Some(JoinBuild {
                                index,
                                rows: extracted,
                                outer_key_idx,
                            });
                        }
                        let jb = build.as_ref().expect("build side indexed above");
                        let mut key = Vec::with_capacity(jb.outer_key_idx.len());
                        for row in &batch {
                            key.clear();
                            key.extend(join_key(row, &jb.outer_key_idx));
                            if let Some(matches) = jb.index.get(key.as_slice()) {
                                for &ri in matches {
                                    let inner = &jb.rows[ri];
                                    let confirmed = jb
                                        .outer_key_idx
                                        .iter()
                                        .zip(inner_key_idx.iter())
                                        .all(|(&o, &k)| same_value(&row[o], &inner[k]));
                                    if !confirmed {
                                        continue;
                                    }
                                    let r =
                                        widened(row, keep_inner.iter().map(|&k| inner[k].clone()));
                                    if out.len() < cap {
                                        out.push(r);
                                    } else {
                                        op.carry.push_back(r);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if env.failed.is_some() || out.is_empty() {
                None
            } else {
                Some(out)
            }
        }
        OpKind::DupElim { proj, seen } => {
            let mut out: Batch = Vec::new();
            while out.is_empty() {
                if op.upstream_done {
                    break;
                }
                match pull(head, i - 1, env)? {
                    None => op.upstream_done = true,
                    Some(batch) => {
                        op.meter.metrics.rows_in += batch.len();
                        for row in &batch {
                            let projected: Vec<BoundValue> =
                                proj.iter().map(|&k| row[k].clone()).collect();
                            if seen.insert(projected.clone()) {
                                out.push(projected);
                            }
                        }
                    }
                }
            }
            if out.is_empty() {
                None
            } else {
                Some(out)
            }
        }
    };
    if out.is_none() && op.carry.is_empty() {
        op.exhausted = true;
    }
    Ok(out)
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

/// A hash-join key over the columns `idx`: atoms by [`atomic_key`], so
/// `3` and `3.0` share one. Unequal integers past 2^53 can share one too,
/// so a hit is a candidate to confirm with [`same_value`].
fn join_key<'a>(row: &'a [BoundValue], idx: &'a [usize]) -> impl Iterator<Item = BoundValue> + 'a {
    idx.iter().map(|&k| match &row[k] {
        BoundValue::Atom(v) => BoundValue::Atom(atomic_key(v)),
        other => other.clone(),
    })
}

/// `row` followed by `tail`, allocated once at its final width.
fn widened(row: &[BoundValue], tail: impl ExactSizeIterator<Item = BoundValue>) -> Vec<BoundValue> {
    let mut r = Vec::with_capacity(row.len() + tail.len());
    r.extend_from_slice(row);
    r.extend(tail);
    r
}

/// Do two join values match as the matcher compares them?
fn same_value(a: &BoundValue, b: &BoundValue) -> bool {
    match (a, b) {
        (BoundValue::Atom(x), BoundValue::Atom(y)) => atomic_eq(x, y),
        _ => a == b,
    }
}

/// One source call under the fault policy: circuit-breaker check, bounded
/// retries with exponential backoff on transient errors, and a per-call
/// deadline measured on the injectable clock. Retry/failure counts land in
/// `stats`; an exhausted policy (or open circuit) becomes
/// [`MedError::SourceUnavailable`].
fn query_with_retry(
    wrapper: &Arc<dyn Wrapper>,
    source: Symbol,
    query: &Rule,
    vars: &[ExtractVar],
    ctx: &ChainCtx<'_>,
    stats: &mut ChainStats,
) -> Result<Rows> {
    let rt = ctx.fault;
    if rt.circuit.is_open(source) {
        return Err(MedError::SourceUnavailable {
            source: source.as_str(),
            reason: format!(
                "circuit open after {} consecutive failures",
                rt.opts.circuit_threshold
            ),
        });
    }
    let max_attempts = rt.opts.retry.max_attempts.max(1);
    let mut last_err: Option<WrapperError> = None;
    for attempt in 0..max_attempts {
        if attempt > 0 {
            rt.sleeper.sleep_ms(rt.opts.retry.backoff_ms(attempt - 1));
            *stats.trace.retries.entry(source).or_insert(0) += 1;
        }
        let started = rt.clock.now_us();
        let mut outcome = wrapper.query_rows(query, vars);
        // Whole milliseconds, rounded up. Truncating two millisecond
        // readings would measure a sub-millisecond call as 0 or 1 by where
        // the ticks fell, and the latency the planner learns from it would
        // tip the plan one way or the other from run to run.
        let elapsed = rt.clock.now_us().saturating_sub(started).div_ceil(1000);
        if let Some(deadline) = rt.opts.source_deadline_ms {
            if outcome.is_ok() && elapsed > deadline {
                // The source did answer, but too late: a mediator serving
                // interactive queries treats the answer as missed.
                outcome = Err(WrapperError::Timeout(format!(
                    "{elapsed}ms > {deadline}ms deadline"
                )));
            }
        }
        match outcome {
            Ok(result) => {
                *stats.trace.latency_ms.entry(source).or_insert(0) += elapsed as usize;
                *stats.trace.latency_calls.entry(source).or_insert(0) += 1;
                rt.circuit.record_success(source);
                stats.sources_ok.insert(source);
                return Ok(result);
            }
            Err(e) if e.is_transient() => {
                *stats.trace.failures.entry(source).or_insert(0) += 1;
                let opened = rt.circuit.record_failure(source);
                last_err = Some(e);
                if opened {
                    break; // no point retrying a tripped source
                }
            }
            // Permanent errors (unsupported, malformed, construction) are
            // not retried: the same query would fail the same way.
            Err(e) => return Err(e.into()),
        }
    }
    Err(MedError::SourceUnavailable {
        source: source.as_str(),
        reason: last_err
            .map(|e| e.to_string())
            .unwrap_or_else(|| "no attempts permitted".to_string()),
    })
}

/// Send a query to a source and absorb its rows ([`absorb_all`]) — the
/// all-at-once form the hash-join build side and parameterized queries
/// need. Of the answer (§3.4: "the result of Qw is placed in the
/// mediator's memory") only the objects bound to object and set variables
/// enter the chain's memory. The answer cache (when enabled) intercepts
/// the round-trip, see [`cache_probe`].
#[allow(clippy::too_many_arguments)]
fn run_and_extract(
    source: Symbol,
    query: &Rule,
    vars: &[ExtractVar],
    memory: &mut ObjectStore,
    ctx: &ChainCtx<'_>,
    stats: &mut ChainStats,
    counters: &mut NodeMetrics,
    shared_key: Option<&dyn Fn() -> ParamMemoKey>,
) -> Result<Vec<Vec<BoundValue>>> {
    if let Some(rows) = cache_probe(source, query, vars, memory, ctx, stats, counters) {
        return Ok(rows);
    }
    // Parameterized queries consult the execution's memo: a sibling chain
    // may already have fetched this exact tuple. Only the tuple's own
    // slot lock is held across the fetch — chains after the same tuple
    // wait for the one round-trip; everything else proceeds.
    let answer = match shared_key {
        Some(shared_key) => {
            let slot = ctx.param_memo.slot(shared_key());
            let mut filled = slot.lock();
            let answer = match &mut *filled {
                Some(answer) => Arc::clone(answer),
                empty => {
                    let answer = fetch_rows(source, query, vars, 1, ctx, stats, counters)?;
                    Arc::clone(empty.insert(Arc::new(answer)))
                }
            };
            drop(filled);
            absorb_all(&answer.store, answer.rows.iter().cloned(), memory)
        }
        None => {
            let answer = fetch_rows(source, query, vars, 0, ctx, stats, counters)?;
            absorb_all(&answer.store, answer.rows, memory)
        }
    };
    counters.bindings_produced += answer.len();
    Ok(answer)
}

/// The [`ParamMemo`] key of `tuple` under the parameterized `query`, whose
/// id `query_id` keeps for the operator's lifetime.
fn shared_key(
    memo: &ParamMemo,
    source: Symbol,
    query: &Rule,
    query_id: &std::cell::OnceCell<usize>,
    tuple: &[Value],
) -> ParamMemoKey {
    let id = *query_id.get_or_init(|| memo.query_id(source, query));
    (id, tuple.to_vec())
}

/// The atomic parameter values of `row`, or `None` if some parameter
/// column holds an object or a set.
fn param_tuple(row: &[BoundValue], idxs: &[usize]) -> Option<Vec<Value>> {
    idxs.iter()
        .map(|&ci| row[ci].as_atom().cloned())
        .collect::<Option<Vec<_>>>()
}

/// `query` with its `$param` slots filled from `tuple` (§3.4: `Qcs`
/// instantiated into `Qc2`).
fn fill_tuple(query: &Rule, params: &[Symbol], tuple: &[Value]) -> Rule {
    let consts: Subst = params
        .iter()
        .zip(tuple)
        .map(|(p, v)| (*p, Term::Const(v.clone())))
        .collect();
    fill_params_rule(query, &consts)
}

/// The form of a parameterized `query` that takes a set of values per
/// `$param` ([`valueset::template`]), if `source` accepts value sets and
/// can evaluate that form. Whatever its profile refuses of it — the set
/// itself, the label variable a label `$param` turns into, a mandatory
/// form field left to a variable — keeps the node on one query per tuple.
fn set_valued_form(
    source: Symbol,
    query: &Rule,
    params: &[Symbol],
    ctx: &ChainCtx<'_>,
) -> Option<Box<Rule>> {
    let caps = ctx.sources.get(&source)?.capabilities();
    if !caps.parameterized_sets {
        return None;
    }
    let template = valueset::template(query, params)?;
    caps.check_query(&template)
        .is_ok()
        .then(|| Box::new(template))
}

/// Answer the distinct parameter tuples of a fresh input batch that this
/// chain has not seen, leaving their rows in `memo` for the row loop. Each
/// tuple is looked up exactly as it would be alone — the answer cache
/// under its own filled query, then its slot in the execution's memo —
/// and what is still open goes to the source in **one** round-trip: a
/// set-valued query ([`valueset`]) for two or more tuples, the plain
/// filled query for one.
/// The answer is filed per tuple (memo slot, cache entry, §3.5
/// observation), so later reuse finds the keys a per-tuple fetch would
/// have left; the set-valued query itself is never cached. A batch with
/// fewer than two new tuples, or for a source that takes one value per
/// parameter, is left to the row loop.
#[allow(clippy::too_many_arguments)]
fn prefetch_tuples(
    source: Symbol,
    query: &Rule,
    batch: &std::cell::OnceCell<Option<Box<Rule>>>,
    query_id: &std::cell::OnceCell<usize>,
    params: &[Symbol],
    vars: &[ExtractVar],
    idxs: &[usize],
    rows: &[Vec<BoundValue>],
    memo: &mut HashMap<Vec<Value>, MemoRows>,
    env: &mut StreamEnv<'_, '_>,
    counters: &mut NodeMetrics,
) -> Result<()> {
    let mut tuples: Vec<Vec<Value>> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
    for tuple in rows.iter().filter_map(|row| param_tuple(row, idxs)) {
        if !memo.contains_key(&tuple) && seen.insert(tuple.clone()) {
            tuples.push(tuple);
        }
    }
    if tuples.len() < 2 {
        return Ok(());
    }
    let ctx = env.ctx;
    let Some(template) = batch.get_or_init(|| set_valued_form(source, query, params, ctx)) else {
        return Ok(());
    };
    let mut open: Vec<(Vec<Value>, Rule)> = Vec::new();
    for tuple in tuples {
        let filled = fill_tuple(query, params, &tuple);
        match cache_probe(source, &filled, vars, env.memory, ctx, env.stats, counters) {
            Some(rows) => {
                memo.insert(tuple, std::rc::Rc::new(rows));
            }
            None => open.push((tuple, filled)),
        }
    }
    // Every open tuple's slot is held across the fetch, as a lone tuple's
    // is. Locking in one global order (the rendered tuple) keeps two
    // parallel chains that batch overlapping tuples from deadlocking.
    let slots: Vec<_> = open
        .iter()
        .map(|(tuple, _)| {
            ctx.param_memo
                .slot(shared_key(ctx.param_memo, source, query, query_id, tuple))
        })
        .collect();
    let mut order: Vec<usize> = (0..open.len()).collect();
    order.sort_by_cached_key(|&k| -> Vec<String> {
        open[k].0.iter().map(Value::render_atomic).collect()
    });
    let mut held: Vec<_> = slots.iter().map(|_| None).collect();
    for k in order {
        held[k] = Some(slots[k].lock());
    }
    let mut fetch: Vec<usize> = Vec::new();
    for (k, (tuple, _)) in open.iter().enumerate() {
        let slot = held[k].as_deref().expect("every slot locked above");
        match slot.clone() {
            Some(answer) => {
                held[k] = None;
                counters.bindings_produced += answer.rows.len();
                let rows = absorb_all(&answer.store, answer.rows.iter().cloned(), env.memory);
                memo.insert(tuple.clone(), std::rc::Rc::new(rows));
            }
            None => fetch.push(k),
        }
    }
    let answers: Vec<Rows> = match fetch[..] {
        [] => return Ok(()),
        [k] => vec![fetch_rows(
            source, &open[k].1, vars, 1, ctx, env.stats, counters,
        )?],
        _ => {
            let asked: Vec<&[Value]> = fetch.iter().map(|&k| open[k].0.as_slice()).collect();
            let batched = valueset::restrict(template, params, &asked);
            // The batched query exports each parameter after the node's own
            // variables, so its answer says which tuple each row belongs to.
            let carried: Vec<ExtractVar> = (vars.iter().cloned())
                .chain(params.iter().map(|&var| ExtractVar {
                    var,
                    kind: VarKind::Scalar,
                }))
                .collect();
            let answer = call_source(
                source,
                &batched,
                &carried,
                asked.len(),
                ctx,
                env.stats,
                counters,
            )?;
            let answers = valueset::split_answer(&answer, vars.len(), &asked);
            for (&k, answer) in fetch.iter().zip(&answers) {
                record_answer(source, &open[k].1, vars, answer, ctx, env.stats);
            }
            answers
        }
    };
    for (k, answer) in fetch.into_iter().zip(answers) {
        let answer = Arc::new(answer);
        let mut slot = held[k].take().expect("an open tuple's slot is still held");
        *slot = Some(Arc::clone(&answer));
        drop(slot);
        counters.bindings_produced += answer.rows.len();
        let rows = absorb_all(&answer.store, answer.rows.iter().cloned(), env.memory);
        memo.insert(open[k].0.clone(), std::rc::Rc::new(rows));
    }
    Ok(())
}

/// One round-trip under the fault policy, counted once whatever it
/// carries: `tuples` says how many parameter tuples ride in `query` (0
/// for an unparameterized one). Failures mark the source in the cache so
/// stale answers are embargoed.
fn call_source(
    source: Symbol,
    query: &Rule,
    vars: &[ExtractVar],
    tuples: usize,
    ctx: &ChainCtx<'_>,
    stats: &mut ChainStats,
    counters: &mut NodeMetrics,
) -> Result<Rows> {
    let wrapper = ctx
        .sources
        .get(&source)
        .ok_or_else(|| MedError::UnknownSource(source.as_str()))?;
    *stats.trace.source_calls.entry(source).or_insert(0) += 1;
    counters.source_calls += 1;
    counters.tuples_sent += tuples;
    // A cache miss is a lookup that ended in a round-trip, counted here
    // rather than at lookup time: a tuple a sibling chain already fetched
    // pays no fetch and must not inflate the trace's miss counters. Every
    // tuple of a set-valued query was looked up on its own.
    if ctx.cache.is_some_and(|c| c.enabled_for(source)) {
        let lookups = tuples.max(1);
        counters.cache_misses += lookups;
        *stats.trace.cache_misses.entry(source).or_insert(0) += lookups;
    }
    let outcome = query_with_retry(wrapper, source, query, vars, ctx, stats);
    if let Some(cache) = ctx.cache {
        match &outcome {
            Ok(_) => cache.mark_ok(source),
            Err(_) => cache.mark_failed(source),
        }
    }
    outcome
}

/// File a fresh answer to `query`: into the answer cache, and as a §3.5
/// observation. Only an answer that survived retries AND its deadline
/// gets here: `query_with_retry` converts a too-late Ok into a Timeout.
/// One tuple's rows of a split set-valued answer are filed like a lone
/// answer, so its entry does not depend on how the tuple travelled.
fn record_answer(
    source: Symbol,
    query: &Rule,
    vars: &[ExtractVar],
    answer: &Rows,
    ctx: &ChainCtx<'_>,
    stats: &mut ChainStats,
) {
    if let Some(cache) = ctx.cache {
        cache.insert_rows(source, query, vars, answer);
    }
    // Keyed by the first tail pattern's label.
    stats.trace.observations.push(Observation {
        source,
        label: query_label(query),
        count: answer.rows.len(),
    });
}

/// The round-trip for one query: [`call_source`], then [`record_answer`].
fn fetch_rows(
    source: Symbol,
    query: &Rule,
    vars: &[ExtractVar],
    tuples: usize,
    ctx: &ChainCtx<'_>,
    stats: &mut ChainStats,
    counters: &mut NodeMetrics,
) -> Result<Rows> {
    let answer = call_source(source, query, vars, tuples, ctx, stats, counters)?;
    record_answer(source, query, vars, &answer, ctx, stats);
    Ok(answer)
}

/// The first tail pattern's constant label — the key §3.5 cardinality
/// observations are filed under.
fn query_label(query: &Rule) -> Option<Symbol> {
    query.tail.iter().find_map(|t| match t {
        TailItem::Match { pattern, .. } => match &pattern.label {
            Term::Const(v) => v.as_str_sym(),
            _ => None,
        },
        _ => None,
    })
}

/// Absorb an answer's rows into chain memory: [`absorb`] through one
/// old-id → new-id map for all of them, so an object two rows bind is
/// copied into `memory` once. Every answer enters a chain this way — a
/// live one, a memo slot's, a split tuple's, a cache hit's.
pub(crate) fn absorb_all(
    store: &ObjectStore,
    rows: impl IntoIterator<Item = Vec<BoundValue>>,
    memory: &mut ObjectStore,
) -> Vec<Vec<BoundValue>> {
    let mut map = HashMap::new();
    rows.into_iter()
        .map(|row| absorb(store, row, memory, &mut map))
        .collect()
}

/// One answer row into chain memory: the objects an object or set
/// variable binds are deep-copied out of `store` through `map`, the
/// answer's persistent old-id → new-id map, and the row now names the
/// copies; atoms stay as they are.
fn absorb(
    store: &ObjectStore,
    mut row: Vec<BoundValue>,
    memory: &mut ObjectStore,
    map: &mut HashMap<ObjId, ObjId>,
) -> Vec<BoundValue> {
    for value in &mut row {
        let ids = match value {
            BoundValue::Atom(_) => continue,
            BoundValue::Obj(id) => std::slice::from_mut(id),
            BoundValue::ObjSet(ids) => ids.as_mut_slice(),
        };
        for id in ids {
            *id = copy::deep_copy_into(store, *id, memory, map);
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::externals::standard_registry;
    use crate::planner::{plan, PlanContext, PlannerOptions};
    use crate::spec::MediatorSpec;
    use crate::stats::StatsCache;
    use crate::veao::expand;
    use engine::unify::UnifyMode;
    use msl::parse_query;
    use oem::printer::compact;
    use oem::sym;
    use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};

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
