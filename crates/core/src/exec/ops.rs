//! The chain pipeline's operators and the one pull loop that drives them.

use super::absorb::ExtSource;
use super::fetch::{open_ext_source, ParamSource};
use super::{SourceQuery, StreamEnv};
use crate::error::{MedError, Result};
use crate::externals::{CallBuffers, Callee};
use crate::graph::{Node, RulePlan};
use crate::metrics::NodeMetrics;
use engine::bindings::{Bindings, BoundValue};
use engine::matcher::{atomic_eq, atomic_key};
use msl::Term;
use oem::store::FxHasher;
use oem::{ObjectStore, Symbol, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

// ---- the chain pipeline (pull-based bounded batches) --------------------
//
// Every batch size produces byte-identical answers: construction copies
// what the final table references in row order, so the order in which
// objects arrived in a chain's memory is invisible to the result.

/// A batch of binding rows flowing between pipeline ops. Ops never emit
/// empty batches; a `None` pull result means permanently exhausted.
pub(super) type Batch = Vec<Vec<BoundValue>>;

/// Extracted rows for one parameter tuple, shared between the memo table
/// and the cursor currently crossing them.
pub(super) type MemoRows = Rc<Vec<Vec<BoundValue>>>;

/// What one op accumulates across pulls.
#[derive(Default)]
pub(super) struct OpMeter {
    /// The counters the op's trace entry will report, incremented in
    /// place; `wall_ns`, the estimates and `dedup_hits` are filled in
    /// when the chain ends.
    pub(super) metrics: NodeMetrics,
    /// Inclusive wall time: every nanosecond spent inside this op's pull,
    /// including time spent pulling upstream. The chain is linear and only
    /// the next op pulls this one, so the trace recovers each op's
    /// exclusive time as `inclusive[i] - inclusive[i-1]`.
    pub(super) wall_ns_inclusive: u64,
    /// Incrementally rendered output rows (trace mode only); the header is
    /// prepended at trace build, so the concatenation equals a one-shot
    /// render of the whole table.
    pub(super) rendered: String,
}

/// Row numbers filed by a hash of some of the row's columns, no column
/// copied: `heads` maps a hash to the row filed under it last, and
/// `next[r]` leads from row `r` to the one filed before it under the same
/// hash. Rows that share a hash are candidates, for the caller to compare.
#[derive(Default)]
struct HashChains {
    heads: HashMap<u64, usize>,
    next: Vec<Option<usize>>,
}

impl HashChains {
    /// File row `r` under `hash`, ahead of the rows filed there before.
    fn file(&mut self, r: usize, hash: u64) {
        if self.next.len() <= r {
            self.next.resize(r + 1, None);
        }
        self.next[r] = self.heads.insert(hash, r);
    }

    /// The rows filed under `hash`, the last filed first.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.heads.get(&hash).copied(), |&r| self.next[r])
    }
}

/// The inner side a hash join fetches and indexes on its first input.
struct JoinBuild {
    /// `rows` by [`join_hash`] of their key columns, filed last to first
    /// so that each chain runs in extraction order.
    index: HashChains,
    rows: Vec<Vec<BoundValue>>,
}

impl JoinBuild {
    /// Absorb all of `src` and index it on the columns `key_idx`.
    fn new(
        mut src: ExtSource,
        key_idx: &[usize],
        memory: &mut ObjectStore,
        counters: &mut NodeMetrics,
    ) -> JoinBuild {
        src.extract_more(memory, counters, usize::MAX);
        let rows = src.into_ext();
        let mut index = HashChains::default();
        for (ri, row) in rows.iter().enumerate().rev() {
            index.file(ri, join_hash(row, key_idx));
        }
        JoinBuild { index, rows }
    }
}

/// The cursor of a query op: input rows waiting to be crossed with
/// extracted rows, and the row being crossed — with its own rows (a
/// parameterized query's rows for the row's tuple) or, when `None`, the
/// rows of the op's one extraction — and the position reached in them.
#[derive(Default)]
struct Crossing {
    pending: VecDeque<Vec<BoundValue>>,
    cur: Option<(Vec<BoundValue>, Option<MemoRows>, usize)>,
}

impl Crossing {
    /// Append the current row widened by each of its rows from the cursor
    /// on (`shared` when it has none of its own) while `out` holds fewer
    /// than `cap` rows. A row already crossed to the end leaves.
    fn cross(&mut self, shared: &[Vec<BoundValue>], out: &mut Batch, cap: usize) {
        let Some((row, own, idx)) = &mut self.cur else {
            return;
        };
        let ext = own.as_deref().map_or(shared, Vec::as_slice);
        if *idx >= ext.len() {
            self.cur = None;
            return;
        }
        while *idx < ext.len() && out.len() < cap {
            out.push(widened(row, ext[*idx].iter().cloned()));
            *idx += 1;
        }
    }
}

/// Where a step puts its rows: the batch the pull returns, up to `cap`
/// rows, and past it the op's carry.
struct Sink<'c> {
    out: Batch,
    carry: &'c mut VecDeque<Vec<BoundValue>>,
    cap: usize,
}

impl Sink<'_> {
    fn push(&mut self, row: Vec<BoundValue>) {
        if self.out.len() < self.cap {
            self.out.push(row);
        } else {
            self.carry.push_back(row);
        }
    }

    fn full(&self) -> bool {
        self.out.len() >= self.cap
    }
}

/// Per-node pipeline state. Lifetimes borrow the plan. Every column an op
/// reads was resolved when the pipeline was built.
enum OpKind<'p> {
    /// The unit table as a stream: one empty row, once.
    Unit { emitted: bool },
    Query {
        q: SourceQuery<'p>,
        /// `None` until the first input row — an empty upstream never
        /// pays the round-trip.
        src: Option<ExtSource>,
        crossing: Crossing,
    },
    ParamQuery {
        p: ParamSource<'p>,
        /// Per-chain tuple memo; `Rc` so repeated tuples share one
        /// extraction (the cross-chain memo lives in [`super::ChainCtx`]).
        memo: HashMap<Vec<Value>, MemoRows>,
        crossing: Crossing,
    },
    External {
        pred: Symbol,
        args: &'p [Term],
        /// Where each argument's value comes from in a row.
        arg_src: Vec<ArgSrc<'p>>,
        /// Per new variable, the argument position it is read from.
        new_pos: Vec<usize>,
        /// The implementation resolved for each bound/free mask met so
        /// far: a column can hold an atom in one row and an object in
        /// another.
        resolved: Vec<(Vec<bool>, Callee)>,
        /// Kept from one row to the next: the row's argument values and
        /// the call's buffers.
        values: Vec<Option<Value>>,
        buf: CallBuffers,
    },
    RestFilter {
        /// Column of the rest variable.
        idx: usize,
        condition: &'p msl::Pattern,
        /// Compiled flat condition when the pattern is a constant
        /// label/value pair — the whole batch then runs through the
        /// columnar equality kernel instead of per-row matching.
        flat: Option<engine::batch::FlatCond>,
    },
    HashJoin {
        q: SourceQuery<'p>,
        inner_key_idx: Vec<usize>,
        outer_key_idx: Vec<usize>,
        keep_inner: Vec<usize>,
        /// `None` until the first input batch.
        build: Option<JoinBuild>,
    },
    DupElim {
        /// Projection column positions (vars ∩ input columns, vars order).
        proj: Vec<usize>,
        /// Pipeline breaker: the rows ever emitted, for first-occurrence
        /// dedup across batches — their values one row after another in
        /// `kept`, `proj.len()` each, filed in `seen` by [`row_hash`].
        seen: HashChains,
        kept: Vec<BoundValue>,
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

impl OpKind<'_> {
    /// Does the op fill its batch up to the cap? A query op crosses rows
    /// and does; every other op returns as soon as it has any rows.
    fn fills(&self) -> bool {
        matches!(self, OpKind::Query { .. } | OpKind::ParamQuery { .. })
    }

    /// The op's own work: the rows it makes from one input batch, or with
    /// `None` from its cursor alone.
    fn step(
        &mut self,
        input: Option<Batch>,
        sink: &mut Sink<'_>,
        env: &mut StreamEnv<'_, '_>,
        counters: &mut NodeMetrics,
    ) -> Result<()> {
        match self {
            OpKind::Unit { emitted } => {
                if !*emitted {
                    *emitted = true;
                    sink.push(Vec::new());
                }
            }
            OpKind::Query { q, src, crossing } => {
                if let Some(batch) = input {
                    crossing.pending.extend(batch);
                }
                while !sink.full() {
                    let idx = match &crossing.cur {
                        Some((_, _, idx)) => *idx,
                        None => {
                            let Some(row) = crossing.pending.pop_front() else {
                                break;
                            };
                            crossing.cur = Some((row, None, 0));
                            0
                        }
                    };
                    let s = match src {
                        Some(s) => s,
                        None => src.insert(open_ext_source(*q, env, counters)?),
                    };
                    while idx >= s.ext().len() && s.extract_more(env.memory, counters, sink.cap) {}
                    crossing.cross(s.ext(), &mut sink.out, sink.cap);
                }
            }
            OpKind::ParamQuery { p, memo, crossing } => {
                if let Some(batch) = input {
                    p.prefetch(&batch, memo, env, counters)?;
                    crossing.pending.extend(batch);
                }
                while !sink.full() {
                    if crossing.cur.is_none() {
                        let Some(row) = crossing.pending.pop_front() else {
                            break;
                        };
                        // A non-atomic parameter cannot parameterize the
                        // query: the row yields nothing.
                        let Some(tuple) = p.tuple(&row) else {
                            continue;
                        };
                        let rows = match memo.entry(tuple) {
                            Entry::Occupied(e) => Rc::clone(e.get()),
                            Entry::Vacant(e) => {
                                let rows = Rc::new(p.run_and_extract(e.key(), env, counters)?);
                                Rc::clone(e.insert(rows))
                            }
                        };
                        crossing.cur = Some((row, Some(rows), 0));
                    }
                    crossing.cross(&[], &mut sink.out, sink.cap);
                }
            }
            OpKind::External {
                pred,
                args,
                arg_src,
                new_pos,
                resolved,
                values,
                buf,
            } => {
                let Some(batch) = input else {
                    return Ok(());
                };
                let registry = env.ctx.registry;
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
                            let mask: Vec<bool> = values.iter().map(Option::is_some).collect();
                            let callee = registry.resolve(*pred, args, &mask)?;
                            resolved.push((mask, callee));
                            callee
                        }
                    };
                    buf.tuples.clear();
                    let n = registry.call(callee, *pred, args, values, buf)?;
                    'answer: for full in buf.first(n, args.len()) {
                        // A produced value must agree with a column holding
                        // an object (never) and with the variable's first
                        // position.
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
                        let new = new_pos
                            .iter()
                            .map(|&pos| BoundValue::Atom(full[pos].clone()));
                        sink.push(widened(row, new));
                        produced += 1;
                    }
                }
                if !new_pos.is_empty() {
                    counters.bindings_produced += produced;
                }
            }
            OpKind::RestFilter {
                idx,
                condition,
                flat,
            } => {
                let Some(batch) = input else {
                    return Ok(());
                };
                let ci = *idx;
                match flat {
                    Some(f) => {
                        // Vectorized: one condition across the whole batch
                        // over columnar member views. Rows whose cell is
                        // not an object set keep no members and therefore
                        // drop — same as the per-row path skipping them.
                        let sets: Vec<&[oem::ObjId]> = batch
                            .iter()
                            .map(|row| row[ci].as_obj_set().unwrap_or(&[]))
                            .collect();
                        let keep = f.filter_batch(env.memory, &sets);
                        for (row, k) in batch.into_iter().zip(keep) {
                            if k {
                                sink.push(row);
                            }
                        }
                    }
                    None => {
                        for row in batch {
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
                                sink.push(row);
                            }
                        }
                    }
                }
            }
            OpKind::HashJoin {
                q,
                inner_key_idx,
                outer_key_idx,
                keep_inner,
                build,
            } => {
                let Some(batch) = input else {
                    return Ok(());
                };
                // The probe needs the whole inner side, so the build side
                // is a pipeline breaker, fetched on the first input.
                let jb = match build {
                    Some(jb) => jb,
                    None => {
                        let src = open_ext_source(*q, env, counters)?;
                        build.insert(JoinBuild::new(src, inner_key_idx, env.memory, counters))
                    }
                };
                for row in &batch {
                    // A shared hash is a candidate: values that match share
                    // a key and so a hash, and `same_value` confirms it.
                    for ri in jb.index.chain(join_hash(row, outer_key_idx)) {
                        let inner = &jb.rows[ri];
                        let confirmed = (outer_key_idx.iter().zip(inner_key_idx.iter()))
                            .all(|(&o, &k)| same_value(&row[o], &inner[k]));
                        if confirmed {
                            sink.push(widened(row, keep_inner.iter().map(|&k| inner[k].clone())));
                        }
                    }
                }
            }
            OpKind::DupElim { proj, seen, kept } => {
                let Some(batch) = input else {
                    return Ok(());
                };
                let width = proj.len();
                for row in &batch {
                    let hash = row_hash(row, proj);
                    let same = |r: usize| {
                        let earlier = &kept[r * width..(r + 1) * width];
                        earlier.iter().zip(proj.iter()).all(|(v, &k)| *v == row[k])
                    };
                    if seen.chain(hash).any(same) {
                        continue;
                    }
                    seen.file(seen.next.len(), hash);
                    kept.extend(proj.iter().map(|&k| row[k].clone()));
                    sink.push(proj.iter().map(|&k| row[k].clone()).collect());
                }
            }
        }
        Ok(())
    }
}

/// One op in a chain pipeline. `ops[0]` is the synthetic unit
/// source; `ops[k]` executes `rule_plan.nodes[k - 1]`.
pub(super) struct OpState<'p> {
    pub(super) out_cols: Vec<Symbol>,
    pub(super) meter: OpMeter,
    /// Output rows produced beyond the batch cap, drained by later pulls.
    carry: VecDeque<Vec<BoundValue>>,
    /// The op returned `None`; every later pull is terminal.
    exhausted: bool,
    /// Upstream returned `None`; the unit op has none.
    upstream_done: bool,
    kind: OpKind<'p>,
}

impl<'p> OpState<'p> {
    fn new(out_cols: Vec<Symbol>, kind: OpKind<'p>) -> OpState<'p> {
        OpState {
            out_cols,
            meter: OpMeter::default(),
            carry: VecDeque::new(),
            exhausted: false,
            upstream_done: matches!(kind, OpKind::Unit { .. }),
            kind,
        }
    }
}

/// Build the op pipeline for one rule plan, resolving every column an op
/// reads: a variable the plan expects and its input lacks is a planning
/// error here, before any source is asked. Each op's output columns are
/// its input columns followed by the variables the node newly binds;
/// dup-elim instead projects onto its variable list.
pub(super) fn build_ops(rule_plan: &RulePlan) -> Result<Vec<OpState<'_>>> {
    let mut ops: Vec<OpState<'_>> = Vec::with_capacity(rule_plan.nodes.len() + 1);
    ops.push(OpState::new(Vec::new(), OpKind::Unit { emitted: false }));
    for node in &rule_plan.nodes {
        let cols: &[Symbol] = ops.last().map_or(&[], |op| &op.out_cols);
        let column = |v: &Symbol, what: &str| {
            (cols.iter().position(|c| c == v))
                .ok_or_else(|| MedError::Planning(format!("{what} {v} missing from table")))
        };
        let (out_cols, kind) = match node {
            Node::Query {
                source,
                query,
                vars,
            } => (
                widen(cols, vars.iter().map(|v| v.var)),
                OpKind::Query {
                    q: SourceQuery {
                        source: *source,
                        query,
                        vars,
                    },
                    src: None,
                    crossing: Crossing::default(),
                },
            ),
            Node::ParamQuery {
                source,
                query,
                params,
                vars,
            } => {
                let q = SourceQuery {
                    source: *source,
                    query,
                    vars,
                };
                let idx = (params.iter())
                    .map(|p| column(p, "parameter"))
                    .collect::<Result<_>>()?;
                (
                    widen(cols, vars.iter().map(|v| v.var)),
                    OpKind::ParamQuery {
                        p: ParamSource::new(q, params, idx),
                        memo: HashMap::new(),
                        crossing: Crossing::default(),
                    },
                )
            }
            Node::ExternalPred {
                pred,
                args,
                new_vars,
            } => (
                widen(cols, new_vars.iter().copied()),
                OpKind::External {
                    pred: *pred,
                    args,
                    arg_src: (args.iter().enumerate())
                        .map(|(k, t)| match t {
                            Term::Const(c) => ArgSrc::Const(c),
                            Term::Var(v) => match cols.iter().position(|c| c == v) {
                                Some(ci) => ArgSrc::Col(ci),
                                None => {
                                    ArgSrc::Unbound(args.iter().position(|a| a == t).unwrap_or(k))
                                }
                            },
                            _ => ArgSrc::Other,
                        })
                        .collect(),
                    new_pos: (new_vars.iter())
                        .map(|v| {
                            (args.iter().position(|a| *a == Term::Var(*v))).ok_or_else(|| {
                                MedError::External(format!("{pred} did not bind {v} as planned"))
                            })
                        })
                        .collect::<Result<_>>()?,
                    resolved: Vec::new(),
                    values: Vec::with_capacity(args.len()),
                    buf: CallBuffers::default(),
                },
            ),
            Node::RestFilter { var, condition } => (
                cols.to_vec(),
                OpKind::RestFilter {
                    idx: column(var, "filter variable")?,
                    condition,
                    flat: engine::batch::FlatCond::compile(condition),
                },
            ),
            Node::HashJoin {
                source,
                query,
                vars,
                join_vars,
            } => {
                let inner_key_idx: Vec<usize> = (join_vars.iter())
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
                    widen(cols, keep_inner.iter().map(|&i| vars[i].var)),
                    OpKind::HashJoin {
                        q: SourceQuery {
                            source: *source,
                            query,
                            vars,
                        },
                        outer_key_idx: (join_vars.iter())
                            .map(|v| column(v, "join variable"))
                            .collect::<Result<_>>()?,
                        inner_key_idx,
                        keep_inner,
                        build: None,
                    },
                )
            }
            Node::DupElim { vars } => (
                vars.iter().filter(|v| cols.contains(v)).copied().collect(),
                OpKind::DupElim {
                    proj: (vars.iter())
                        .filter_map(|v| cols.iter().position(|c| c == v))
                        .collect(),
                    seen: HashChains::default(),
                    kept: Vec::new(),
                },
            ),
        };
        ops.push(OpState::new(out_cols, kind));
    }
    Ok(ops)
}

/// `cols` followed by `new`.
fn widen(cols: &[Symbol], new: impl Iterator<Item = Symbol>) -> Vec<Symbol> {
    cols.iter().copied().chain(new).collect()
}

/// Pull the next batch from `ops[i]`, with per-op bookkeeping (inclusive
/// wall time, rows out, peak residency, incremental table rendering).
pub(super) fn pull(
    ops: &mut [OpState<'_>],
    i: usize,
    env: &mut StreamEnv<'_, '_>,
) -> Result<Option<Batch>> {
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

/// The one loop every op shares. Overflow from an earlier pull drains
/// first. Otherwise the op's step runs on its cursor, then on each
/// upstream batch in turn, until it has a full batch (an op that
/// [`OpKind::fills`]) or any rows (every other op), or upstream ends. A
/// source the step finds unavailable kills the chain: `env.failed` names
/// the op, and from then on no op returns rows.
fn pull_inner(
    ops: &mut [OpState<'_>],
    i: usize,
    env: &mut StreamEnv<'_, '_>,
) -> Result<Option<Batch>> {
    let (head, tail) = ops.split_at_mut(i);
    let op = &mut tail[0];
    if op.exhausted {
        return Ok(None);
    }
    let cap = env.batch;
    if !op.carry.is_empty() {
        let n = op.carry.len().min(cap);
        return Ok(Some(op.carry.drain(..n).collect()));
    }
    let fills = op.kind.fills();
    let mut sink = Sink {
        out: Batch::new(),
        carry: &mut op.carry,
        cap,
    };
    let mut input = None;
    loop {
        match op
            .kind
            .step(input.take(), &mut sink, env, &mut op.meter.metrics)
        {
            Ok(()) => {}
            Err(e @ MedError::SourceUnavailable { .. }) => {
                env.failed = Some((i, e));
                break;
            }
            Err(e) => return Err(e),
        }
        if sink.full() || (!fills && !sink.out.is_empty()) || op.upstream_done {
            break;
        }
        match pull(head, i - 1, env)? {
            Some(batch) => {
                op.meter.metrics.rows_in += batch.len();
                input = Some(batch);
            }
            None => op.upstream_done = true,
        }
    }
    let out = Some(sink.out).filter(|out| env.failed.is_none() && !out.is_empty());
    if out.is_none() && op.carry.is_empty() {
        op.exhausted = true;
    }
    Ok(out)
}

/// The hash of a join key over the columns `idx`, read in place: atoms by
/// [`atomic_key`], so `3` and `3.0` hash alike. Unequal integers past 2^53
/// share a key too, so a hit is a candidate to confirm with
/// [`same_value`].
fn join_hash(row: &[BoundValue], idx: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &k in idx {
        match &row[k] {
            BoundValue::Atom(v) => atomic_key(v).hash(&mut h),
            other => other.hash(&mut h),
        }
    }
    h.finish()
}

/// The hash of `row`'s columns `idx`, read in place, for rows compared
/// value for value.
fn row_hash(row: &[BoundValue], idx: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    idx.iter().for_each(|&k| row[k].hash(&mut h));
    h.finish()
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
