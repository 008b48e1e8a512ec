//! Source round-trips: the cache probe, the fault policy, the
//! parameterized-query memo and value-set batching.

use super::absorb::{absorb_all, ExtSource};
use super::ops::{Batch, MemoRows};
use super::{ChainCtx, ParamMemoKey, SourceQuery, StreamEnv};
use crate::cache::CacheHit;
use crate::error::{MedError, Result};
use crate::graph::{ExtractVar, VarKind};
use crate::metrics::{NodeMetrics, Observation};
use crate::valueset;
use engine::bindings::BoundValue;
use engine::subst::{fill_params_rule, Subst};
use msl::{Rule, TailItem, Term};
use oem::{ObjectStore, Symbol, Value};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use wrappers::{Rows, Wrapper, WrapperError};

/// Probe the answer cache for `q`. A hit's rows are absorbed into chain
/// memory and it counts as an exact or containment hit. Its
/// row count is a real cardinality the source once returned for this
/// query, so it *is* recorded as a §3.5 observation — otherwise a
/// cache-heavy workload starves the EWMA feed. What a hit must never feed
/// is the round-trip accounting (source_calls, latency, failures): serving
/// from cache says nothing about the source's speed or health.
fn cache_probe(
    q: SourceQuery<'_>,
    env: &mut StreamEnv<'_, '_>,
    counters: &mut NodeMetrics,
) -> Option<Batch> {
    let cache = env.ctx.cache.filter(|c| c.enabled_for(q.source))?;
    let (rows, kind) = cache.lookup(q.source, q.query, q.vars, env.memory)?;
    let trace = &mut env.stats.trace;
    let (node, per_source) = match kind {
        CacheHit::Exact => (&mut counters.cache_hits, &mut trace.cache_hits),
        CacheHit::Containment => (&mut counters.containment_hits, &mut trace.containment_hits),
    };
    *node += 1;
    *per_source.entry(q.source).or_insert(0) += 1;
    trace.observations.push(Observation {
        source: q.source,
        label: query_label(q.query),
        count: rows.len(),
    });
    counters.bindings_produced += rows.len();
    Some(rows)
}

/// Resolve a source query to an [`ExtSource`]: how a query op and a hash
/// join's build side open their source. Cache hits arrive fully absorbed;
/// a fresh round-trip keeps the answer's rows so they are absorbed chunk
/// by chunk as downstream ops pull.
pub(super) fn open_ext_source(
    q: SourceQuery<'_>,
    env: &mut StreamEnv<'_, '_>,
    counters: &mut NodeMetrics,
) -> Result<ExtSource> {
    if let Some(rows) = cache_probe(q, env, counters) {
        return Ok(ExtSource::from_rows(rows));
    }
    Ok(ExtSource::from_answer(fetch_rows(q, 0, env, counters)?))
}

/// One source call under the fault policy: circuit-breaker check, bounded
/// retries with exponential backoff on transient errors, and a per-call
/// deadline measured on the injectable clock. Retry/failure counts land in
/// the chain's stats; an exhausted policy (or open circuit) becomes
/// [`MedError::SourceUnavailable`].
fn query_with_retry(
    wrapper: &Arc<dyn Wrapper>,
    q: SourceQuery<'_>,
    env: &mut StreamEnv<'_, '_>,
) -> Result<Rows> {
    let rt = env.ctx.fault;
    let stats = &mut *env.stats;
    let source = q.source;
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
        let mut outcome = wrapper.query_rows(q.query, q.vars);
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

/// A parameterized-query node's side of its source (§3.4's `Qcs`): the
/// query with its `$param` slots, where each parameter is read in an
/// input row, and what the node's first tuples work out about the query.
pub(super) struct ParamSource<'p> {
    q: SourceQuery<'p>,
    params: &'p [Symbol],
    /// Each parameter's column in the op's input rows.
    idx: Vec<usize>,
    /// [`ParamSource::set_valued_form`] of the query, worked out by the
    /// first input batch that holds two new tuples
    /// ([`ParamSource::prefetch`]): `Some` sends such a batch in one call,
    /// `None` keeps §3.4's one query per tuple.
    batch: OnceCell<Option<Box<Rule>>>,
    /// The query's [`super::ParamMemo::query_id`], the part of a memo key
    /// every tuple of this node has in common; filled by the first tuple
    /// that needs a slot (one the answer cache does not serve).
    query_id: OnceCell<usize>,
}

impl<'p> ParamSource<'p> {
    pub(super) fn new(q: SourceQuery<'p>, params: &'p [Symbol], idx: Vec<usize>) -> Self {
        ParamSource {
            q,
            params,
            idx,
            batch: OnceCell::new(),
            query_id: OnceCell::new(),
        }
    }

    /// The atomic parameter values of `row`, or `None` if some parameter
    /// column holds an object or a set.
    pub(super) fn tuple(&self, row: &[BoundValue]) -> Option<Vec<Value>> {
        self.idx
            .iter()
            .map(|&ci| row[ci].as_atom().cloned())
            .collect()
    }

    /// The query with its `$param` slots filled from `tuple` (§3.4: `Qcs`
    /// instantiated into `Qc2`).
    fn fill(&self, tuple: &[Value]) -> Rule {
        let consts: Subst = (self.params.iter().zip(tuple))
            .map(|(p, v)| (*p, Term::Const(v.clone())))
            .collect();
        fill_params_rule(self.q.query, &consts)
    }

    /// The [`super::ParamMemo`] key of `tuple`.
    fn shared_key(&self, ctx: &ChainCtx<'_>, tuple: &[Value]) -> ParamMemoKey {
        let memo = ctx.param_memo;
        let id = *self
            .query_id
            .get_or_init(|| memo.query_id(self.q.source, self.q.query));
        (id, tuple.to_vec())
    }

    /// The rows of one tuple, absorbed into chain memory — §3.4's one query
    /// per tuple. Of the answer ("the result of Qw is placed in the
    /// mediator's memory") only the objects bound to object and set
    /// variables enter the chain's memory. The answer cache under the
    /// filled query comes first, then the execution's memo: a sibling chain
    /// may already have fetched this exact tuple. Only the tuple's own
    /// slot lock is held across the fetch — chains after the same tuple
    /// wait for the one round-trip; everything else proceeds.
    pub(super) fn run_and_extract(
        &self,
        tuple: &[Value],
        env: &mut StreamEnv<'_, '_>,
        counters: &mut NodeMetrics,
    ) -> Result<Batch> {
        let filled = self.fill(tuple);
        let q = SourceQuery {
            query: &filled,
            ..self.q
        };
        if let Some(rows) = cache_probe(q, env, counters) {
            return Ok(rows);
        }
        let slot = env.ctx.param_memo.slot(self.shared_key(env.ctx, tuple));
        let mut held = slot.lock();
        let answer = match &mut *held {
            Some(answer) => Arc::clone(answer),
            empty => Arc::clone(empty.insert(Arc::new(fetch_rows(q, 1, env, counters)?))),
        };
        drop(held);
        Ok(absorb_counted(&answer, env.memory, counters))
    }

    /// The form of the query that takes a set of values per `$param`
    /// ([`valueset::template`]), if the source accepts value sets and
    /// can evaluate that form. Whatever its profile refuses of it — the set
    /// itself, the label variable a label `$param` turns into, a mandatory
    /// form field left to a variable — keeps the node on one query per
    /// tuple.
    fn set_valued_form(&self, ctx: &ChainCtx<'_>) -> Option<Box<Rule>> {
        let caps = ctx.sources.get(&self.q.source)?.capabilities();
        if !caps.parameterized_sets {
            return None;
        }
        let template = valueset::template(self.q.query, self.params)?;
        caps.check_query(&template)
            .is_ok()
            .then(|| Box::new(template))
    }

    /// Answer the distinct parameter tuples of a fresh input batch that
    /// this chain has not seen, leaving their rows in `memo` for the row
    /// loop. Each tuple is looked up exactly as it would be alone — the
    /// answer cache under its own filled query, then its slot in the
    /// execution's memo — and what is still open goes to the source in
    /// **one** round-trip: a set-valued query ([`valueset`]) for two or
    /// more tuples, the plain filled query for one.
    /// The answer is filed per tuple (memo slot, cache entry, §3.5
    /// observation), so later reuse finds the keys a per-tuple fetch would
    /// have left; the set-valued query itself is never cached. A batch with
    /// fewer than two new tuples, or for a source that takes one value per
    /// parameter, is left to the row loop.
    pub(super) fn prefetch(
        &self,
        rows: &[Vec<BoundValue>],
        memo: &mut HashMap<Vec<Value>, MemoRows>,
        env: &mut StreamEnv<'_, '_>,
        counters: &mut NodeMetrics,
    ) -> Result<()> {
        let mut tuples: Vec<Vec<Value>> = Vec::new();
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        for tuple in rows.iter().filter_map(|row| self.tuple(row)) {
            if !memo.contains_key(&tuple) && seen.insert(tuple.clone()) {
                tuples.push(tuple);
            }
        }
        if tuples.len() < 2 {
            return Ok(());
        }
        let ctx = env.ctx;
        let Some(template) = self.batch.get_or_init(|| self.set_valued_form(ctx)) else {
            return Ok(());
        };
        let mut open: Vec<(Vec<Value>, Rule)> = Vec::new();
        for tuple in tuples {
            let filled = self.fill(&tuple);
            let q = SourceQuery {
                query: &filled,
                ..self.q
            };
            match cache_probe(q, env, counters) {
                Some(rows) => {
                    memo.insert(tuple, Rc::new(rows));
                }
                None => open.push((tuple, filled)),
            }
        }
        // Every open tuple's slot is held across the fetch, as a lone
        // tuple's is. Locking in one global order (the rendered tuple)
        // keeps two parallel chains that batch overlapping tuples from
        // deadlocking.
        let slots: Vec<_> = (open.iter())
            .map(|(tuple, _)| ctx.param_memo.slot(self.shared_key(ctx, tuple)))
            .collect();
        let mut order: Vec<usize> = (0..open.len()).collect();
        order.sort_by_cached_key(|&k| -> Vec<String> {
            open[k].0.iter().map(Value::render_atomic).collect()
        });
        let mut held: Vec<_> = order.into_iter().map(|k| (k, slots[k].lock())).collect();
        held.sort_by_key(|&(k, _)| k);
        // A slot a sibling chain filled meanwhile is read; the rest are
        // fetched, their slots still held.
        let mut fetch = Vec::new();
        for (k, slot) in held {
            match slot.clone() {
                Some(answer) => {
                    drop(slot);
                    let rows = absorb_counted(&answer, env.memory, counters);
                    memo.insert(open[k].0.clone(), Rc::new(rows));
                }
                None => fetch.push((k, slot)),
            }
        }
        let tuple_query = |k: usize| SourceQuery {
            query: &open[k].1,
            ..self.q
        };
        let answers: Vec<Rows> = match fetch[..] {
            [] => return Ok(()),
            [(k, _)] => vec![fetch_rows(tuple_query(k), 1, env, counters)?],
            _ => {
                let asked: Vec<&[Value]> =
                    fetch.iter().map(|(k, _)| open[*k].0.as_slice()).collect();
                let batched = valueset::restrict(template, self.params, &asked);
                // The batched query exports each parameter after the
                // node's own variables, so its answer says which tuple each
                // row belongs to.
                let carried: Vec<ExtractVar> = (self.q.vars.iter().cloned())
                    .chain(self.params.iter().map(|&var| ExtractVar {
                        var,
                        kind: VarKind::Scalar,
                    }))
                    .collect();
                let q = SourceQuery {
                    source: self.q.source,
                    query: &batched,
                    vars: &carried,
                };
                let answer = call_source(q, asked.len(), env, counters)?;
                let answers = valueset::split_answer(&answer, self.q.vars.len(), &asked);
                for ((k, _), answer) in fetch.iter().zip(&answers) {
                    record_answer(tuple_query(*k), answer, env);
                }
                answers
            }
        };
        for ((k, mut slot), answer) in fetch.into_iter().zip(answers) {
            let answer = Arc::new(answer);
            *slot = Some(Arc::clone(&answer));
            drop(slot);
            let rows = absorb_counted(&answer, env.memory, counters);
            memo.insert(open[k].0.clone(), Rc::new(rows));
        }
        Ok(())
    }
}

/// A shared answer's rows absorbed into chain memory ([`absorb_all`] over
/// copies of them), counted as bindings the node produced.
fn absorb_counted(answer: &Rows, memory: &mut ObjectStore, counters: &mut NodeMetrics) -> Batch {
    counters.bindings_produced += answer.rows.len();
    absorb_all(&answer.store, answer.rows.iter().cloned(), memory)
}

/// One round-trip under the fault policy, counted once whatever it
/// carries: `tuples` says how many parameter tuples ride in the query (0
/// for an unparameterized one). Failures mark the source in the cache so
/// stale answers are embargoed.
fn call_source(
    q: SourceQuery<'_>,
    tuples: usize,
    env: &mut StreamEnv<'_, '_>,
    counters: &mut NodeMetrics,
) -> Result<Rows> {
    let ctx = env.ctx;
    let source = q.source;
    let wrapper =
        (ctx.sources.get(&source)).ok_or_else(|| MedError::UnknownSource(source.as_str()))?;
    *env.stats.trace.source_calls.entry(source).or_insert(0) += 1;
    counters.source_calls += 1;
    counters.tuples_sent += tuples;
    // A cache miss is a lookup that ended in a round-trip, counted here
    // rather than at lookup time: a tuple a sibling chain already fetched
    // pays no fetch and must not inflate the trace's miss counters. Every
    // tuple of a set-valued query was looked up on its own.
    if ctx.cache.is_some_and(|c| c.enabled_for(source)) {
        let lookups = tuples.max(1);
        counters.cache_misses += lookups;
        *env.stats.trace.cache_misses.entry(source).or_insert(0) += lookups;
    }
    let outcome = query_with_retry(wrapper, q, env);
    if let Some(cache) = ctx.cache {
        match &outcome {
            Ok(_) => cache.mark_ok(source),
            Err(_) => cache.mark_failed(source),
        }
    }
    outcome
}

/// File a fresh answer to `q`: into the answer cache, and as a §3.5
/// observation. Only an answer that survived retries AND its deadline
/// gets here: `query_with_retry` converts a too-late Ok into a Timeout.
/// One tuple's rows of a split set-valued answer are filed like a lone
/// answer, so its entry does not depend on how the tuple travelled.
fn record_answer(q: SourceQuery<'_>, answer: &Rows, env: &mut StreamEnv<'_, '_>) {
    if let Some(cache) = env.ctx.cache {
        cache.insert_rows(q.source, q.query, q.vars, answer);
    }
    // Keyed by the first tail pattern's label.
    env.stats.trace.observations.push(Observation {
        source: q.source,
        label: query_label(q.query),
        count: answer.rows.len(),
    });
}

/// The round-trip for one query: [`call_source`], then [`record_answer`].
fn fetch_rows(
    q: SourceQuery<'_>,
    tuples: usize,
    env: &mut StreamEnv<'_, '_>,
    counters: &mut NodeMetrics,
) -> Result<Rows> {
    let answer = call_source(q, tuples, env, counters)?;
    record_answer(q, &answer, env);
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
