//! Source-answer cache: containment-aware, tiered reuse of wrapper answers.
//!
//! MedMaker's MSI design (§3.4–3.6) makes source round-trips the dominant
//! cost of both the fetch-and-join and parameterized-query strategies.
//! The [`AnswerCache`] keeps the rows of every source answer the executor
//! receives, keyed by a *canonicalized* form of the query (variable names
//! normalized, conditions sorted) — its [`QueryShape`] in memory, its
//! printed [`canonical_key`] on disk — and serves repeats without touching
//! the source.
//!
//! Lookup goes beyond exact repetition: a **containment probe** (§3.2's
//! query-containment notion, see [`engine::containment`]) finds a cached
//! query that is *more general* than the incoming one — same shape, but
//! with a variable where the new query pins a constant, or without a rest
//! condition the new query adds. The cached answer is then filtered
//! locally, `wrappers/eval.rs`-style, against the extra constants and
//! conditions instead of paying a round-trip.
//!
//! An entry's rows are read once, by the carrier reader, out of the answer
//! store the query's `bind_for_*` head builds over the live rows
//! (`hot::CachedAnswer::new`); the insert prints that store once for the
//! entry's size and its warm-tier text. A warm hit makes its entry the
//! same way, from the store it parses off disk. After that nothing reads
//! a carrier: a hit runs `serve` — the one loop both tiers run — over
//! those rows: pins compare a column's atom ([`atomic_eq`]), rest filters
//! match a column's object set, and the kept rows are projected onto the
//! new query's columns. A probe that pins nothing (an exact repeat, a
//! rest-only specialization) visits every row; a probe that pins
//! variables to constants asks the hot entry's [`wrappers::ValueIndex`] —
//! built over the atom columns by the first pinned probe, owned by the
//! entry and dropped with it — for the rows listed under a pinned value,
//! and runs the same checks on those only, in the answer's order. The
//! executor absorbs the kept rows exactly as it absorbs a live answer's:
//! one old-id → new-id map per served answer, so an object two rows share
//! is copied once and a hit prints the bytes a round-trip would. A bind
//! join over a cached table is made of pinned probes, one per tuple, each
//! costing what it returns. [`CacheCounters::objects_examined`] counts the
//! rows visited.
//!
//! Keys are computed over the *post-capability-strip* node queries (the
//! planner already removed conditions the source cannot evaluate), so the
//! cache never conflates what the source was actually asked with what the
//! mediator filters afterwards.
//!
//! Soundness rule: a probe that meets *any* structural surprise — a
//! pinned variable the cached query never exported or that some row of
//! the answer holds no atom for (anywhere in the entry, not only among
//! the rows the probe would return), a rest condition over a column that
//! holds no object set, a rest condition referencing a variable the query
//! binds elsewhere (local filtering cannot thread bindings the way the
//! live matcher does), mismatched extraction kinds — rejects the entry
//! and falls back to a miss. A containment false-positive can never serve
//! a wrong answer; the worst case is a redundant round-trip.
//!
//! ## Tiers
//!
//! The store is split in two (submodules [`hot`] and [`warm`]):
//!
//! * the **hot tier** holds recently useful answers in memory, each with
//!   its value index once a pinned probe has built it, evicted cost-aware past
//!   capacity (value score = source latency × per-entry hit EWMA over
//!   bytes, ties oldest-first);
//! * the **warm tier** (enabled by [`CacheOptions::cache_dir`]) is an
//!   append-only checksummed disk log that every insert writes through,
//!   so hot-tier losers *demote* (drop from memory, stay on disk) instead
//!   of vanishing, and a restarted process reopens yesterday's answers
//!   without re-paying the source round-trips. A warm hit re-reads and
//!   re-verifies the record, makes an entry of the store it parses the way
//!   an insert does, serves it unindexed and *promotes* it back to hot.
//!
//! Invalidation is tiered too: beyond whole-source
//! ([`AnswerCache::invalidate_source`]), a scoped [`SourceDelta`]
//! ([`AnswerCache::apply_delta`]) drops only entries whose canonical key
//! or label footprint ([`keyidx`]) could touch the changed objects; warm
//! removals are made durable with tombstone records so they survive a
//! restart.
//!
//! Fault interaction: once the executor reports a source failed
//! ([`AnswerCache::mark_failed`]), cached answers for that source are
//! *not* served (the cache must not mask an outage behind stale data)
//! unless [`CacheOptions::stale_ok`] opts into stale serving. A later
//! success ([`AnswerCache::mark_ok`]) lifts the embargo.
//!
//! Statistics interaction: a hit carries a *known* result cardinality, so
//! the executor records it as a §3.5 observation exactly like a live
//! answer — a fully-cached workload keeps refining the optimizer's row
//! estimates. What a hit must **never** feed is the round-trip
//! accounting: no `source_calls`, no latency samples, no failure-rate
//! samples. The cost model's `net` component prices what talking to the
//! source costs; serving from memory says nothing about that, and
//! zero-cost samples would starve latency learning. The dependency runs
//! the *other* way: eviction reads the per-source latency EWMA from
//! [`crate::stats`] (snapshotted at insert, outside the cache lock) to
//! price what an entry saves.

pub mod hot;
pub mod keyidx;
pub mod shape;
pub mod warm;

pub use keyidx::{rule_labels, LabelFootprint, SourceDelta};
pub use shape::QueryShape;
pub use warm::{CompactStats, WarmStats, WarmTier};

use crate::exec::absorb_all;
use crate::graph::ExtractVar;
use crate::stats::SharedStats;
use engine::bindings::{Bindings, BoundValue};
use engine::matcher::{atomic_eq, match_pattern};
use hot::{CachedAnswer, ColumnIndex, HotTier};
use msl::{Head, PatValue, Pattern, Rule, SetElem, SetPattern, TailItem, Term};
use oem::{ObjectStore, Symbol, Value};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use wrappers::api::construct_answer;
use wrappers::fault::{Clock, SystemClock};
use wrappers::Rows;

/// Configuration of the source-answer cache. Carried in
/// [`crate::MediatorOptions`]; disabled by default so a mediator without
/// `--cache` behaves exactly like the seed (every query pays its
/// round-trips, statistics learn from every call).
#[derive(Clone)]
pub struct CacheOptions {
    /// Master switch; `false` (default) keeps the cache completely out of
    /// the execution path.
    pub enabled: bool,
    /// Maximum cached answers per source shard of the hot tier; the
    /// lowest-value entry is evicted when a shard overflows.
    pub capacity: usize,
    /// Time-to-live per entry in milliseconds, measured on [`Self::clock`];
    /// `None` means entries never expire. Applies to both tiers.
    pub ttl_ms: Option<u64>,
    /// Serve cached answers even for a source currently marked failed
    /// (the `--cache-stale-ok` escape hatch). Default `false`: a failed
    /// source's entries are embargoed until it answers again.
    pub stale_ok: bool,
    /// Sources excluded from caching (always fetched live).
    pub disabled_sources: BTreeSet<Symbol>,
    /// Injectable clock for TTL measurement; `None` =
    /// [`wrappers::fault::SystemClock`]. Share a
    /// [`wrappers::fault::VirtualClock`] with [`crate::retry::FaultOptions`]
    /// to run expiry on virtual time in tests.
    pub clock: Option<Arc<dyn Clock>>,
    /// Directory of the warm on-disk tier (`--cache-dir`). `None`
    /// (default) keeps the cache memory-only, exactly like the seed. When
    /// set, every insert writes through to disk and the cache survives
    /// process restarts. An unopenable directory degrades to memory-only
    /// rather than failing the mediator.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget of the warm tier (`--cache-warm-bytes`). When the
    /// segment files outgrow it, compaction rewrites live entries in
    /// value order and drops the lowest-value ones past the budget.
    pub warm_bytes: u64,
}

/// Default warm-tier byte budget: 64 MiB.
pub const DEFAULT_WARM_BYTES: u64 = 64 << 20;

impl Default for CacheOptions {
    fn default() -> CacheOptions {
        CacheOptions {
            enabled: false,
            capacity: 64,
            ttl_ms: None,
            stale_ok: false,
            disabled_sources: BTreeSet::new(),
            clock: None,
            cache_dir: None,
            warm_bytes: DEFAULT_WARM_BYTES,
        }
    }
}

impl CacheOptions {
    /// An enabled cache with the default capacity and no TTL.
    pub fn enabled() -> CacheOptions {
        CacheOptions {
            enabled: true,
            ..Default::default()
        }
    }
}

impl fmt::Debug for CacheOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheOptions")
            .field("enabled", &self.enabled)
            .field("capacity", &self.capacity)
            .field("ttl_ms", &self.ttl_ms)
            .field("stale_ok", &self.stale_ok)
            .field("disabled_sources", &self.disabled_sources)
            .field("clock", &self.clock.as_ref().map(|_| "<injected>"))
            .field("cache_dir", &self.cache_dir)
            .field("warm_bytes", &self.warm_bytes)
            .finish()
    }
}

/// How a lookup was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheHit {
    /// The canonicalized query matched a cached key exactly.
    Exact,
    /// A more general cached query contained the new one; the cached
    /// answer was filtered locally.
    Containment,
}

/// A snapshot of the cache's lifetime counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheCounters {
    /// Exact-key lookup hits (either tier).
    pub hits: usize,
    /// Containment-probe hits (served by filtering a broader answer).
    pub containment_hits: usize,
    /// Lookups that had to fall through to the source.
    pub misses: usize,
    /// Entries removed from the cache entirely: capacity pressure with no
    /// warm tier, TTL expiry, invalidation, compaction drops.
    pub evictions: usize,
    /// Approximate bytes resident in the hot tier (printed-form size).
    pub bytes_cached: usize,
    /// Entries currently resident in the hot tier.
    pub entries: usize,
    /// Hits served off the warm disk tier (each also counts in
    /// [`Self::hits`] or [`Self::containment_hits`]).
    pub warm_hits: usize,
    /// Hot-tier losers dropped from memory but still durable on disk.
    pub demotions: usize,
    /// Warm entries copied back into the hot tier on a warm hit.
    pub promotions: usize,
    /// Warm-tier compaction runs.
    pub compactions: usize,
    /// Entries currently live in the warm tier's index.
    pub warm_entries: usize,
    /// Live answer bytes in the warm tier (garbage excluded).
    pub warm_bytes: usize,
    /// Cached rows, one per top-level object of an entry's answer, looked
    /// at to answer lookups: every row a hit or a refused entry was
    /// filtered over, plus every row an index build visited. Per pinned
    /// containment hit it stays near the number of rows returned,
    /// whatever the entry holds.
    pub objects_examined: usize,
}

impl CacheCounters {
    /// Every counter beside the key `GET /metrics` serves it under
    /// (`mediator.*`), in the order served. The one listing of those
    /// names: a counter added to the struct is exported by adding it here.
    pub fn metrics(&self) -> [(&'static str, usize); 13] {
        [
            ("cache_hits", self.hits),
            ("cache_containment_hits", self.containment_hits),
            ("cache_misses", self.misses),
            ("cache_evictions", self.evictions),
            ("cache_bytes", self.bytes_cached),
            ("cache_entries", self.entries),
            ("cache_warm_hits", self.warm_hits),
            ("cache_objects_examined", self.objects_examined),
            ("cache_warm_entries", self.warm_entries),
            ("cache_warm_bytes", self.warm_bytes),
            ("cache_demotions", self.demotions),
            ("cache_promotions", self.promotions),
            ("cache_compactions", self.compactions),
        ]
    }
}

/// One cached source answer (hot tier).
pub(crate) struct Entry {
    /// The query's structural key: what probes and replacement compare.
    shape: QueryShape,
    /// The original (post-strip) source query, for containment probes.
    query: Rule,
    /// The variables the cached query exports: the answer's columns.
    extract: Vec<ExtractVar>,
    /// Label footprint of the query, for delta-driven invalidation.
    footprint: LabelFootprint,
    /// The answer's rows, and their value index once built.
    answer: CachedAnswer,
    /// Insertion time on the cache clock, for TTL expiry.
    inserted_ms: u64,
    /// Size of the answer's printed store, for accounting.
    size_bytes: usize,
    /// Source per-call latency EWMA at insert (ms): what a miss would
    /// re-pay. Snapshotted outside the cache lock.
    unit_cost_ms: f64,
    /// Per-entry hit EWMA, seeded from the source's hit rate and raised
    /// toward 1 on every hit this entry serves.
    hit_boost: f64,
}

impl Entry {
    /// Value score: expected ms saved per resident byte. The cost-aware
    /// eviction victim is the minimum of this across the shard.
    fn value_score(&self) -> f64 {
        self.unit_cost_ms * self.hit_boost / self.size_bytes.max(1) as f64
    }
}

#[derive(Default)]
struct CacheInner {
    /// The in-memory tier.
    hot: HotTier,
    /// The disk tier, when [`CacheOptions::cache_dir`] is set and opened.
    warm: Option<WarmTier>,
    /// Sources currently embargoed after an observed failure.
    failed: BTreeSet<Symbol>,
    /// The lifetime counters. The gauges read off the tiers (`entries`,
    /// `warm_entries`, `warm_bytes`) stay 0 here; [`AnswerCache::counters`]
    /// fills them in.
    counts: CacheCounters,
}

impl CacheInner {
    /// Put `entry` into the hot tier, replacing its key, and settle the
    /// byte gauge. Entries evicted past `capacity` demote when the warm
    /// tier holds them and are gone otherwise.
    fn admit(&mut self, source: Symbol, entry: Entry, capacity: usize) {
        let size = entry.size_bytes;
        let (freed, evicted) = self.hot.insert(source, entry, capacity);
        let evicted_bytes: usize = evicted.iter().map(|e| e.size_bytes).sum();
        if self.warm.is_some() {
            self.counts.demotions += evicted.len();
        } else {
            self.counts.evictions += evicted.len();
        }
        self.counts.bytes_cached = self.counts.bytes_cached + size - freed - evicted_bytes;
    }
}

/// The mediator-level source-answer cache. One instance lives on a
/// [`crate::Mediator`] and persists across queries; the executor shares
/// it across parallel chains behind this struct's internal lock (the same
/// pattern as [`crate::retry::CircuitBreaker`]).
pub struct AnswerCache {
    opts: CacheOptions,
    clock: Arc<dyn Clock>,
    /// Mediator statistics, when wired ([`AnswerCache::with_stats`]):
    /// the source of eviction value-score inputs. Read *before* taking
    /// [`Self::inner`]'s lock — the two locks never nest.
    stats: Option<Arc<SharedStats>>,
    inner: Mutex<CacheInner>,
}

impl fmt::Debug for AnswerCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counters();
        f.debug_struct("AnswerCache")
            .field("opts", &self.opts)
            .field("counters", &c)
            .finish()
    }
}

impl AnswerCache {
    /// Build a cache from options with no statistics wired: eviction
    /// value scores fall back to the default latency and hit seed. The
    /// clock defaults to [`wrappers::fault::SystemClock`] when not
    /// injected.
    pub fn new(opts: CacheOptions) -> AnswerCache {
        AnswerCache::with_stats(opts, None)
    }

    /// Build a cache wired to the mediator's runtime statistics, so
    /// cost-aware eviction prices entries by the observed per-call
    /// latency of their source. Opens the warm tier when
    /// [`CacheOptions::cache_dir`] is set (an unopenable directory
    /// degrades to memory-only).
    pub fn with_stats(opts: CacheOptions, stats: Option<Arc<SharedStats>>) -> AnswerCache {
        let clock = opts
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(SystemClock::new()));
        let warm = if opts.enabled {
            opts.cache_dir
                .as_ref()
                .and_then(|dir| WarmTier::open(dir).ok())
        } else {
            None
        };
        AnswerCache {
            opts,
            clock,
            stats,
            inner: Mutex::new(CacheInner {
                warm,
                ..Default::default()
            }),
        }
    }

    /// Whether the cache participates in calls to `source`.
    pub fn enabled_for(&self, source: Symbol) -> bool {
        self.opts.enabled && !self.opts.disabled_sources.contains(&source)
    }

    /// Value-score inputs for a fresh entry of `source`:
    /// `(unit_cost_ms, hit_boost seed)`. Reads the stats lock, so must be
    /// called before taking the cache lock.
    fn value_inputs(&self, source: Symbol) -> (f64, f64) {
        match &self.stats {
            Some(stats) => stats.read().value_inputs(source),
            None => (crate::stats::DEFAULT_LATENCY_MS, 0.25),
        }
    }

    /// Look up an answer for `query`, whose shape is `shape`, against
    /// `source`. On a hit, the rows of `vars` the cached answer serves are
    /// absorbed into `memory` as the executor absorbs every answer's rows.
    ///
    /// The hot tier is probed first (an equal shape, then containment,
    /// newest first); on a hot miss the warm tier's index is probed by the
    /// printed key the same way, the winning record re-read and
    /// re-checksummed off disk, and the entry promoted back into the hot
    /// tier.
    pub fn lookup(
        &self,
        source: Symbol,
        query: &Rule,
        shape: &QueryShape,
        vars: &[ExtractVar],
        memory: &mut ObjectStore,
    ) -> Option<(Vec<Vec<BoundValue>>, CacheHit)> {
        let (rows, kind) = self.lookup_rows(source, query, shape, vars)?;
        Some((absorb_all(&rows.store, rows.rows, memory), kind))
    }

    /// [`AnswerCache::lookup`] up to the rows, over the cached store.
    fn lookup_rows(
        &self,
        source: Symbol,
        query: &Rule,
        shape: &QueryShape,
        vars: &[ExtractVar],
    ) -> Option<(Rows, CacheHit)> {
        if !self.enabled_for(source) {
            return None;
        }
        let now = self.clock.now_ms();
        let inner = &mut *self.inner.lock();
        if inner.failed.contains(&source) && !self.opts.stale_ok {
            // An observed outage embargoes the shard: serving would mask
            // the failure behind data of unknown staleness.
            inner.counts.misses += 1;
            return None;
        }
        self.expire(inner, source, now);

        // Hot probe: an equal shape first, then containment (newest first).
        let mut hot_hit: Option<(usize, Rows, CacheHit)> = None;
        let examined = &mut inner.counts.objects_examined;
        if let Some(shard) = inner.hot.shard(source) {
            'probe: for kind in [CacheHit::Exact, CacheHit::Containment] {
                for (i, entry) in shard.iter().enumerate().rev() {
                    let exact = entry.shape == *shape;
                    if exact != (kind == CacheHit::Exact) {
                        continue;
                    }
                    // An equal shape maps onto the entry by zipping the
                    // two variable lists, and pins nothing.
                    let m = if exact {
                        Mapping::zip(shape, &entry.shape)
                    } else {
                        let Some(m) = specialize_match_rule(query, &entry.query) else {
                            continue;
                        };
                        m
                    };
                    // A probe that pins variables visits only the rows the
                    // entry's index lists under a pinned value.
                    let index =
                        (!m.sigma.is_empty()).then(|| entry.answer.index(&entry.extract, examined));
                    let Some(rows) =
                        serve(&entry.extract, &entry.answer, index, &m, vars, examined)
                    else {
                        continue;
                    };
                    hot_hit = Some((i, rows, kind));
                    break 'probe;
                }
            }
        }
        if let Some((i, rows, kind)) = hot_hit {
            match kind {
                CacheHit::Exact => inner.counts.hits += 1,
                CacheHit::Containment => inner.counts.containment_hits += 1,
            }
            if let Some(shard) = inner.hot.shard_mut(source) {
                let e = &mut shard[i];
                e.hit_boost = 0.5 * e.hit_boost + 0.5;
            }
            return Some((rows, kind));
        }

        // Warm probe.
        let mut warm_hit: Option<(String, CachedAnswer, Rows, CacheHit)> = None;
        if let Some(warm) = &inner.warm {
            if let Some(shard) = warm.entries(source) {
                // The warm tier files its records under the printed key.
                let key = canonical_key(query);
                let order = shard
                    .keys()
                    .filter(|k| **k == key)
                    .chain(shard.keys().filter(|k| **k != key));
                for k in order {
                    let we = &shard[k];
                    if let Some(ttl) = self.opts.ttl_ms {
                        if now.saturating_sub(we.inserted_ms) > ttl {
                            continue; // expired on disk; reaped by expire()
                        }
                    }
                    let Some(m) = specialize_match_rule(query, &we.query) else {
                        continue;
                    };
                    // Disk gate: re-read and re-verify the checksum; a
                    // record gone bad since open is a miss, never an error.
                    let Some(answer) = warm
                        .read_answer(we)
                        .and_then(|store| CachedAnswer::new(store, &we.extract))
                    else {
                        continue;
                    };
                    // Nothing resident to index: the rows were just read.
                    let examined = &mut inner.counts.objects_examined;
                    let Some(rows) = serve(&we.extract, &answer, None, &m, vars, examined) else {
                        continue;
                    };
                    let kind = if we.key == key {
                        CacheHit::Exact
                    } else {
                        CacheHit::Containment
                    };
                    warm_hit = Some((k.clone(), answer, rows, kind));
                    break;
                }
            }
        }
        if let Some((k, answer, rows, kind)) = warm_hit {
            match kind {
                CacheHit::Exact => inner.counts.hits += 1,
                CacheHit::Containment => inner.counts.containment_hits += 1,
            }
            inner.counts.warm_hits += 1;
            if self.opts.capacity == 0 {
                return Some((rows, kind));
            }
            // Promote: refresh the hit EWMA and move the entry into the
            // hot tier (keeping its original insert time for TTL).
            let entry = {
                let warm = inner.warm.as_mut().expect("warm tier present on warm hit");
                let we = warm.entry_mut(source, &k).expect("warm entry present");
                we.hit_boost = 0.5 * we.hit_boost + 0.5;
                Entry {
                    shape: QueryShape::of(&we.query),
                    query: we.query.clone(),
                    extract: we.extract.clone(),
                    footprint: we.footprint.clone(),
                    answer,
                    inserted_ms: we.inserted_ms,
                    size_bytes: we.size_bytes,
                    unit_cost_ms: we.unit_cost_ms,
                    hit_boost: we.hit_boost,
                }
            };
            inner.counts.promotions += 1;
            inner.admit(source, entry, self.opts.capacity);
            return Some((rows, kind));
        }

        inner.counts.misses += 1;
        None
    }

    /// Cache a freshly fetched answer to `query`, whose shape is `shape`,
    /// given as rows. The entry is made from the store `query`'s head
    /// builds over them — constructed once per row, as the wrapper's own
    /// [`wrappers::Wrapper::query`] builds it — so its size and its
    /// warm-tier text are a stored answer's. Replaces an existing entry of
    /// the same shape; evicts the shard's lowest-value entry past capacity
    /// (losers demote when a warm tier is configured). With a warm tier
    /// the answer is also written through to disk under the printed key,
    /// and compaction runs when the segments outgrow the byte budget.
    pub fn insert_rows(
        &self,
        source: Symbol,
        query: &Rule,
        shape: &QueryShape,
        vars: &[ExtractVar],
        rows: &Rows,
    ) {
        if !self.enabled_for(source) || self.opts.capacity == 0 {
            return;
        }
        let names: Vec<Symbol> = vars.iter().map(|v| v.var).collect();
        // A head the rows cannot rebuild is not cached: a later miss only
        // costs a round-trip.
        if let Ok(answer) = construct_answer(source, &query.head, &names, &rows.store, &rows.rows) {
            self.insert_store(source, query, shape.clone(), vars, answer);
        }
    }

    /// File `answer`, the store a source's answer to `query` was built
    /// into, as an entry ([`CachedAnswer::new`]). The store's printed
    /// length is the entry's size; with a warm tier, its text is the
    /// record written through.
    fn insert_store(
        &self,
        source: Symbol,
        query: &Rule,
        shape: QueryShape,
        vars: &[ExtractVar],
        answer: ObjectStore,
    ) {
        let Some(answer) = CachedAnswer::new(answer, vars) else {
            return;
        };
        let store = &answer.rows.store;
        let record = (self.inner.lock().warm.is_some())
            .then(|| (canonical_key(query), oem::printer::print_store(store)));
        let size_bytes = match &record {
            Some((_, text)) => text.len(),
            None => oem::printer::printed_len(store),
        };
        let (unit_cost_ms, hit_boost) = self.value_inputs(source);
        let inserted_ms = self.clock.now_ms();
        let inner = &mut *self.inner.lock();
        if let (Some(warm), Some((key, text))) = (&mut inner.warm, &record) {
            // Write-through. Warm I/O errors degrade the tier (the entry
            // just won't survive a restart), never the query.
            let _ = warm.append(
                source,
                key,
                query,
                vars,
                inserted_ms,
                unit_cost_ms,
                hit_boost,
                text,
            );
            if warm.disk_bytes() > self.opts.warm_bytes {
                if let Ok(st) = warm.compact(self.opts.warm_bytes) {
                    inner.counts.compactions += 1;
                    inner.counts.evictions += st.dropped;
                }
            }
        }
        let entry = Entry {
            shape,
            query: query.clone(),
            extract: vars.to_vec(),
            footprint: rule_labels(query),
            answer,
            inserted_ms,
            size_bytes,
            unit_cost_ms,
            hit_boost,
        };
        inner.admit(source, entry, self.opts.capacity);
    }

    /// Record that `source` failed its fault policy: its cached answers
    /// are embargoed until [`AnswerCache::mark_ok`] (unless
    /// [`CacheOptions::stale_ok`]).
    pub fn mark_failed(&self, source: Symbol) {
        self.inner.lock().failed.insert(source);
    }

    /// Record that `source` answered successfully, lifting any embargo.
    pub fn mark_ok(&self, source: Symbol) {
        self.inner.lock().failed.remove(&source);
    }

    /// Drop every cached answer for `source` in both tiers (counted as
    /// evictions, one per distinct key) and lift any failure embargo. The
    /// explicit invalidation hook behind
    /// [`crate::Mediator::invalidate_source`]. Warm removal is made
    /// durable with a whole-source tombstone. Returns the number of
    /// distinct keys invalidated.
    pub fn invalidate_source(&self, source: Symbol) -> usize {
        let inner = &mut *self.inner.lock();
        let mut keys: BTreeSet<String> = BTreeSet::new();
        if let Some(shard) = inner.hot.shard(source) {
            keys.extend(shard.iter().map(|e| canonical_key(&e.query)));
        }
        let (_, freed) = inner.hot.remove_source(source);
        inner.counts.bytes_cached -= freed;
        if let Some(warm) = &mut inner.warm {
            if let Some(shard) = warm.entries(source) {
                keys.extend(shard.keys().cloned());
            }
            warm.remove_source(source);
            let _ = warm.append_tombstone(source, None);
        }
        inner.counts.evictions += keys.len();
        inner.failed.remove(&source);
        keys.len()
    }

    /// Apply a change feed entry: drop only cache entries whose canonical
    /// key or label footprint could have observed the changed objects
    /// ([`SourceDelta::matches`]). An unscoped delta falls back to
    /// [`AnswerCache::invalidate_source`] (and lifts the embargo like
    /// it); a scoped one leaves any failure embargo intact — it reports a
    /// data change, not a recovery. Warm removals are tombstoned so they
    /// survive restart. Returns the number of distinct keys invalidated.
    pub fn apply_delta(&self, delta: &SourceDelta) -> usize {
        if delta.is_unscoped() {
            return self.invalidate_source(delta.source);
        }
        let source = delta.source;
        let inner = &mut *self.inner.lock();
        let mut keys: BTreeSet<String> = BTreeSet::new();
        let (_, freed) = inner.hot.retain(source, |e| {
            let key = canonical_key(&e.query);
            let stale = delta.matches(&key, &e.footprint);
            if stale {
                keys.insert(key);
            }
            !stale
        });
        inner.counts.bytes_cached -= freed;
        if let Some(warm) = &mut inner.warm {
            warm.retain(source, |e| {
                let stale = delta.matches(&e.key, &e.footprint);
                if stale {
                    keys.insert(e.key.clone());
                }
                !stale
            });
            for key in &keys {
                let _ = warm.append_tombstone(source, Some(key));
            }
        }
        inner.counts.evictions += keys.len();
        keys.len()
    }

    /// Snapshot the lifetime counters.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.inner.lock();
        debug_assert_eq!(
            inner.counts.bytes_cached,
            inner.hot.resident_bytes(),
            "the bytes gauge must track hot-resident entries exactly"
        );
        let (warm_entries, warm_bytes) = match &inner.warm {
            Some(warm) => {
                let s = warm.stats();
                (s.entries, s.live_bytes as usize)
            }
            None => (0, 0),
        };
        CacheCounters {
            entries: inner.hot.entry_count(),
            warm_entries,
            warm_bytes,
            ..inner.counts
        }
    }

    /// Warm-tier operational stats, when a warm tier is open.
    pub fn warm_stats(&self) -> Option<WarmStats> {
        self.inner.lock().warm.as_ref().map(|w| w.stats())
    }

    /// Entries currently resident in the hot tier for `source` (tests
    /// and diagnostics).
    pub fn entry_count(&self, source: Symbol) -> usize {
        self.inner.lock().hot.shard(source).map_or(0, |s| s.len())
    }

    /// Ground truth for the byte-accounting property test: the sum of
    /// hot-resident entry sizes, which `bytes_cached` must equal exactly.
    #[cfg(test)]
    fn hot_resident_bytes(&self) -> usize {
        self.inner.lock().hot.resident_bytes()
    }

    /// Drop the expired entries of one source in both tiers (TTL),
    /// counting evictions once per logical entry (hot entries are
    /// write-through copies of warm ones, so the larger tier's count is
    /// the logical count).
    fn expire(&self, inner: &mut CacheInner, source: Symbol, now: u64) {
        let Some(ttl) = self.opts.ttl_ms else {
            return;
        };
        let (hot_n, freed) = inner
            .hot
            .retain(source, |e| now.saturating_sub(e.inserted_ms) <= ttl);
        inner.counts.bytes_cached -= freed;
        let mut warm_n = 0;
        if let Some(warm) = &mut inner.warm {
            (warm_n, _) = warm.retain(source, |e| now.saturating_sub(e.inserted_ms) <= ttl);
        }
        inner.counts.evictions += hot_n.max(warm_n);
    }
}

// ---- canonicalization ---------------------------------------------------

/// The cache key of a source query: conditions sorted structurally and
/// every variable renamed positionally, then printed. Two source queries
/// that differ only in variable names or condition order share a key.
/// The warm tier files its records under it; probes compare the
/// [`QueryShape`], which is equal exactly where this text is.
pub fn canonical_key(query: &Rule) -> String {
    let vars: HashSet<Symbol> = query.variables().into_iter().collect();
    let mut rule = query.clone();
    // Pass 1: sort set elements / rest conditions / tail items by their
    // variable-masked printed form, bottom-up, so condition order cannot
    // influence the key (renaming below is positional over this order).
    if let Head::Pattern(p) = &mut rule.head {
        sort_pattern(p, &vars);
    }
    for t in &mut rule.tail {
        if let TailItem::Match { pattern, .. } = t {
            sort_pattern(pattern, &vars);
        }
    }
    rule.tail.sort_by_cached_key(|t| {
        let mut t = t.clone();
        rename_tail_item(&mut t, &vars, &mut |_| Symbol::intern("MASKED"));
        match t {
            TailItem::Match { pattern, source } => format!(
                "m:{}@{}",
                msl::printer::pattern(&pattern),
                source.map(|s| s.as_str()).unwrap_or_default()
            ),
            TailItem::External { name, args } => {
                let args: Vec<String> = args.iter().map(|a| msl::printer::term(a, true)).collect();
                format!("e:{name}({})", args.join(","))
            }
        }
    });
    // Pass 2: rename every variable (and the `bind_for_<var>` carrier
    // labels that embed one) to CV0, CV1, ... in traversal order.
    let mut names: HashMap<Symbol, Symbol> = HashMap::new();
    let mut rename = |v: Symbol| {
        let next = names.len();
        *names
            .entry(v)
            .or_insert_with(|| Symbol::intern(&format!("CV{next}")))
    };
    match &mut rule.head {
        Head::Var(v) => *v = rename(*v),
        Head::Pattern(p) => rename_pattern(p, &vars, &mut rename),
    }
    for t in &mut rule.tail {
        rename_tail_item(t, &vars, &mut rename);
    }
    msl::printer::rule(&rule)
}

/// Sort `p`'s set elements and rest conditions by their masked printed
/// form, innermost sets first.
fn sort_pattern(p: &mut Pattern, vars: &HashSet<Symbol>) {
    let PatValue::Set(sp) = &mut p.value else {
        return;
    };
    for e in &mut sp.elements {
        if let SetElem::Pattern(q) | SetElem::Wildcard(q) = e {
            sort_pattern(q, vars);
        }
    }
    sp.elements.sort_by_cached_key(|e| match e {
        SetElem::Pattern(q) => format!("p:{}", masked(q, vars)),
        SetElem::Wildcard(q) => format!("w:{}", masked(q, vars)),
        SetElem::Var(_) => "v:".to_string(),
    });
    if let Some(r) = &mut sp.rest {
        for c in &mut r.conditions {
            sort_pattern(c, vars);
        }
        r.conditions.sort_by_cached_key(|c| masked(c, vars));
    }
}

/// `p` printed with every variable, and every carrier label of one,
/// masked.
fn masked(p: &Pattern, vars: &HashSet<Symbol>) -> String {
    let mut p = p.clone();
    rename_pattern(&mut p, vars, &mut |_| Symbol::intern("MASKED"));
    msl::printer::pattern(&p)
}

/// Rewrite a `bind_for_<var>` carrier-label constant through `f` when its
/// suffix is one of the rule's variables. The planner embeds extraction
/// variable names in these labels, so key normalization must follow them.
/// The suffix is compared by text, so a label of no variable interns
/// nothing.
fn map_bind_for(
    value: &Value,
    vars: &HashSet<Symbol>,
    f: &mut impl FnMut(Symbol) -> Symbol,
) -> Option<Value> {
    let Value::Str(s) = value else { return None };
    let var = s.with_str(|text| {
        let suffix = text.strip_prefix("bind_for_")?;
        vars.iter().copied().find(|v| v.with_str(|v| v == suffix))
    })?;
    Some(Value::str(&format!("bind_for_{}", f(var))))
}

/// Rewrite every variable of `t` through `f`, carrier labels included.
fn rename_term(t: &mut Term, vars: &HashSet<Symbol>, f: &mut impl FnMut(Symbol) -> Symbol) {
    match t {
        Term::Var(v) => *v = f(*v),
        Term::Const(c) => {
            if let Some(mapped) = map_bind_for(c, vars, f) {
                *c = mapped;
            }
        }
        Term::Param(_) => {}
        Term::Func(_, args) => args.iter_mut().for_each(|a| rename_term(a, vars, f)),
    }
}

/// Rewrite every variable of `p` through `f`, in traversal order. A
/// pattern with a type and no oid would print like one with an oid and
/// no type; it is given the oid `$`, which no parsed rule holds.
fn rename_pattern(p: &mut Pattern, vars: &HashSet<Symbol>, f: &mut impl FnMut(Symbol) -> Symbol) {
    if let Some(v) = &mut p.obj_var {
        *v = f(*v);
    }
    if p.oid.is_none() && p.typ.is_some() {
        p.oid = Some(Term::Param(Symbol::intern("")));
    }
    if let Some(t) = &mut p.oid {
        rename_term(t, vars, f);
    }
    rename_term(&mut p.label, vars, f);
    if let Some(t) = &mut p.typ {
        rename_term(t, vars, f);
    }
    match &mut p.value {
        PatValue::Term(t) => rename_term(t, vars, f),
        PatValue::Set(sp) => {
            for e in &mut sp.elements {
                match e {
                    SetElem::Pattern(q) | SetElem::Wildcard(q) => rename_pattern(q, vars, f),
                    SetElem::Var(v) => *v = f(*v),
                }
            }
            if let Some(r) = &mut sp.rest {
                r.var = f(r.var);
                for c in &mut r.conditions {
                    rename_pattern(c, vars, f);
                }
            }
        }
    }
}

fn rename_tail_item(
    t: &mut TailItem,
    vars: &HashSet<Symbol>,
    f: &mut impl FnMut(Symbol) -> Symbol,
) {
    match t {
        TailItem::Match { pattern, .. } => rename_pattern(pattern, vars, f),
        TailItem::External { args, .. } => args.iter_mut().for_each(|a| rename_term(a, vars, f)),
    }
}

// ---- containment probe --------------------------------------------------

/// How a cached (more general) query maps onto a new (more specific) one.
#[derive(Clone, Default)]
struct Mapping {
    /// Cached variable → new-query variable (bijective).
    rho: HashMap<Symbol, Symbol>,
    /// Inverse of `rho`, enforcing injectivity.
    rho_inv: HashMap<Symbol, Symbol>,
    /// Cached variable → constant the new query pins it to.
    sigma: HashMap<Symbol, Value>,
    /// Rest conditions the new query adds under a cached rest variable:
    /// the carrier set must contain a member matching each of these.
    extra_rest: Vec<(Symbol, Pattern)>,
}

impl Mapping {
    /// The mapping between two queries of one shape: their variables,
    /// zipped in the order the shape numbers them.
    fn zip(new: &QueryShape, cached: &QueryShape) -> Mapping {
        let pairs = new.vars().iter().zip(cached.vars());
        Mapping {
            rho_inv: pairs.map(|(&n, &c)| (n, c)).collect(),
            ..Mapping::default()
        }
    }

    fn bind_var(&mut self, cached: Symbol, new: Symbol) -> bool {
        if self.sigma.contains_key(&cached) {
            return false;
        }
        match (self.rho.get(&cached), self.rho_inv.get(&new)) {
            (Some(&n), Some(&c)) => n == new && c == cached,
            (None, None) => {
                self.rho.insert(cached, new);
                self.rho_inv.insert(new, cached);
                true
            }
            _ => false,
        }
    }

    fn bind_const(&mut self, cached: Symbol, value: &Value) -> bool {
        if self.rho.contains_key(&cached) {
            return false;
        }
        match self.sigma.get(&cached) {
            Some(existing) => atomic_eq(existing, value),
            None => {
                self.sigma.insert(cached, value.clone());
                true
            }
        }
    }
}

/// Does the cached query contain the new one, and how? `None` when the
/// probe cannot *prove* containment (the sound default).
fn specialize_match_rule(new: &Rule, cached: &Rule) -> Option<Mapping> {
    if new.tail.len() != cached.tail.len() {
        return None;
    }
    let mut m = Mapping::default();
    // Tails are matched pairwise in order: the planner emits source-query
    // tails deterministically, and the probe only needs to catch the
    // common specialization cases — order permutations across tail items
    // simply miss.
    for (tn, tc) in new.tail.iter().zip(&cached.tail) {
        match (tn, tc) {
            (
                TailItem::Match {
                    pattern: pn,
                    source: sn,
                },
                TailItem::Match {
                    pattern: pc,
                    source: sc,
                },
            ) => {
                if sn != sc || !specialize_pattern(pn, pc, &mut m) {
                    return None;
                }
            }
            // Source queries carry no external predicates; anything else
            // is out of scope for the probe.
            _ => return None,
        }
    }
    if !extra_rest_vars_are_local(&m, new) {
        return None;
    }
    Some(m)
}

/// `serve()` evaluates each extra rest condition independently with empty
/// bindings, so a condition variable is only constrained *within* that
/// condition (`match_pattern` threads bindings inside one pattern). The
/// live matcher instead threads bindings across all elements and
/// conditions of the query: a variable the query binds elsewhere — in a
/// set element, the head, or another rest condition — would constrain the
/// condition there but not here, and the hit could return a superset of
/// the correct answer. Containment is therefore rejected unless every
/// variable of every extra condition occurs *only* inside that condition.
fn extra_rest_vars_are_local(m: &Mapping, new: &Rule) -> bool {
    if m.extra_rest.is_empty() {
        return true;
    }
    // Every occurrence of every variable, with repeats.
    let mut everywhere = Vec::new();
    new.head.collect_vars(&mut everywhere);
    new.tail
        .iter()
        .for_each(|t| t.collect_vars(&mut everywhere));
    let count = |vars: &[Symbol], v: Symbol| vars.iter().filter(|&&w| w == v).count();
    m.extra_rest.iter().all(|(_, cond)| {
        let mut here = Vec::new();
        cond.collect_vars(&mut here);
        (here.iter()).all(|&v| count(&here, v) == count(&everywhere, v))
    })
}

/// Match a new pattern against a cached (candidate-general) one,
/// extending `m`. True iff every object matching `pn` also matches `pc`
/// under the recorded variable specializations.
fn specialize_pattern(pn: &Pattern, pc: &Pattern, m: &mut Mapping) -> bool {
    match (pn.obj_var, pc.obj_var) {
        (None, None) => {}
        (Some(vn), Some(vc)) => {
            if !m.bind_var(vc, vn) {
                return false;
            }
        }
        _ => return false,
    }
    match (&pn.oid, &pc.oid) {
        (None, None) => {}
        (Some(tn), Some(tc)) => {
            if !specialize_term(tn, tc, m) {
                return false;
            }
        }
        _ => return false,
    }
    if !specialize_term(&pn.label, &pc.label, m) {
        return false;
    }
    match (&pn.typ, &pc.typ) {
        (None, None) => {}
        (Some(tn), Some(tc)) => {
            if !specialize_term(tn, tc, m) {
                return false;
            }
        }
        _ => return false,
    }
    match (&pn.value, &pc.value) {
        (PatValue::Term(tn), PatValue::Term(tc)) => specialize_term(tn, tc, m),
        (PatValue::Set(sn), PatValue::Set(sc)) => specialize_set(sn, sc, m),
        _ => false,
    }
}

fn specialize_term(tn: &Term, tc: &Term, m: &mut Mapping) -> bool {
    match (tn, tc) {
        (Term::Var(vn), Term::Var(vc)) => m.bind_var(*vc, *vn),
        (Term::Const(k), Term::Var(vc)) => m.bind_const(*vc, k),
        (Term::Const(a), Term::Const(b)) => atomic_eq(a, b),
        (Term::Param(a), Term::Param(b)) => a == b,
        (Term::Func(fa, aa), Term::Func(fb, ab)) => {
            fa == fb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| specialize_term(x, y, m))
        }
        // A cached constant cannot cover a new variable (§3.2: a constant
        // only covers an equal constant).
        _ => false,
    }
}

/// Set patterns: every cached element must generalize a distinct new
/// element, and vice versa (a perfect matching, found by backtracking —
/// the sets are tiny). Leftover *rest conditions* of the new query are
/// legal: they become local filters over the cached rest carrier.
fn specialize_set(sn: &SetPattern, sc: &SetPattern, m: &mut Mapping) -> bool {
    if sn.elements.len() != sc.elements.len() {
        return false;
    }
    let mut used = vec![false; sn.elements.len()];
    if !match_distinct(&sc.elements, &sn.elements, &mut used, m, &specialize_elem) {
        return false;
    }
    match (&sn.rest, &sc.rest) {
        (None, None) => true,
        // Cached rest with no conditions does not restrict the answer; a
        // new query without the rest variable asks for the same objects.
        (None, Some(rc)) => rc.conditions.is_empty(),
        (Some(_), None) => false,
        (Some(rn), Some(rc)) => {
            if !m.bind_var(rc.var, rn.var) {
                return false;
            }
            // Each cached condition must generalize a distinct new one;
            // unmatched new conditions become local rest filters.
            let mut used = vec![false; rn.conditions.len()];
            if !match_distinct(
                &rc.conditions,
                &rn.conditions,
                &mut used,
                m,
                &specialize_pattern,
            ) {
                return false;
            }
            for (i, cond) in rn.conditions.iter().enumerate() {
                if !used[i] {
                    m.extra_rest.push((rc.var, cond.clone()));
                }
            }
            true
        }
    }
}

/// A set member of the new query against one of the cached query's.
fn specialize_elem(en: &SetElem, ec: &SetElem, m: &mut Mapping) -> bool {
    match (en, ec) {
        (SetElem::Pattern(pn), SetElem::Pattern(pc))
        | (SetElem::Wildcard(pn), SetElem::Wildcard(pc)) => specialize_pattern(pn, pc, m),
        (SetElem::Var(vn), SetElem::Var(vc)) => m.bind_var(*vc, *vn),
        _ => false,
    }
}

/// Backtracking match of each cached member onto a distinct new one
/// through `specialize`, marking which new members were consumed.
fn match_distinct<T>(
    cached: &[T],
    new: &[T],
    used: &mut [bool],
    m: &mut Mapping,
    specialize: &impl Fn(&T, &T, &mut Mapping) -> bool,
) -> bool {
    let Some((first, rest)) = cached.split_first() else {
        return true;
    };
    for (j, n) in new.iter().enumerate() {
        if used[j] {
            continue;
        }
        let snapshot = m.clone();
        if specialize(n, first, m) {
            used[j] = true;
            if match_distinct(rest, new, used, m, specialize) {
                return true;
            }
            used[j] = false;
        }
        *m = snapshot;
    }
    false
}

// ---- serving ------------------------------------------------------------

/// Filter a cached answer through the mapping: the rows it keeps for the
/// new query, in the answer's order, each holding the new query's
/// columns. `None` on any structural surprise — the caller treats that as
/// "this entry cannot serve the query", and nothing has been copied.
/// Tier-agnostic: hot and warm hits pass an entry's answer alike.
///
/// With an `index` over `answer`, only the shortest posting list among the
/// pins is visited, and each pin is still confirmed with [`atomic_eq`]
/// (unequal values can share a key). Without one every row is visited.
/// Each row visited adds one to `examined`.
fn serve(
    extract: &[ExtractVar],
    answer: &CachedAnswer,
    index: Option<&ColumnIndex>,
    m: &Mapping,
    vars: &[ExtractVar],
    examined: &mut usize,
) -> Option<Rows> {
    let column = |var: Symbol| extract.iter().position(|e| e.var == var);
    // Every variable the new query extracts must map onto one the cached
    // answer exported, with the same kind.
    let columns = vars
        .iter()
        .map(|v| column(*m.rho_inv.get(&v.var)?).filter(|&c| extract[c].kind == v.kind))
        .collect::<Option<Vec<_>>>()?;
    // Every pinned variable and rest-filter variable must be a column.
    let pins: Vec<(usize, &Value)> = m
        .sigma
        .iter()
        .map(|(pinned, value)| Some((column(*pinned)?, value)))
        .collect::<Option<_>>()?;
    let rest_filters: Vec<(usize, &Pattern)> = m
        .extra_rest
        .iter()
        .map(|(rest_var, cond)| Some((column(*rest_var)?, cond)))
        .collect::<Option<_>>()?;
    let Rows { rows, store } = &answer.rows;
    let (mut listed, mut every);
    let visit: &mut dyn Iterator<Item = usize> = match index {
        // A posting list holds every row the σ filter keeps only if every
        // row holds an atom in the pinned column.
        Some(index) => {
            if !pins.iter().all(|&(c, _)| index.atoms[c]) {
                return None;
            }
            let lists = pins
                .iter()
                .map(|&(c, value)| index.values.positions(extract[c].var, value));
            listed = lists.min_by_key(ExactSizeIterator::len)?;
            &mut listed
        }
        None => {
            every = 0..rows.len();
            &mut every
        }
    };
    // Every row visited is kept when no filter can drop one: an exact
    // repeat, or pins the index already narrowed to. Size for them then.
    let all_kept = rest_filters.is_empty() && (pins.is_empty() || index.is_some());
    let mut kept = Vec::with_capacity(if all_kept { visit.size_hint().0 } else { 0 });
    for row in visit.map(|pos| &rows[pos]) {
        *examined += 1;
        // σ filter: a pinned column must hold exactly the pinned constant.
        let mut keep = true;
        for &(c, value) in &pins {
            let BoundValue::Atom(atom) = &row[c] else {
                return None; // non-atomic pin: cannot filter
            };
            keep &= atomic_eq(atom, value);
        }
        // Rest filters: some member of the column's set must match each
        // extra condition (`wrappers/eval.rs`-style tail matching, the
        // same semantics as the executor's RestFilter node; sound under
        // empty bindings because the probe rejected non-local variables).
        for &(c, cond) in &rest_filters {
            if !keep {
                break;
            }
            let BoundValue::ObjSet(ids) = &row[c] else {
                return None;
            };
            keep = ids
                .iter()
                .any(|&id| !match_pattern(store, id, cond, &Bindings::new()).is_empty());
        }
        if keep {
            kept.push(columns.iter().map(|&c| row[c].clone()).collect());
        }
    }
    Some(Rows {
        rows: kept,
        store: Arc::clone(store),
    })
}

#[cfg(test)]
mod tests;
