//! Source-answer cache: containment-aware, tiered reuse of wrapper answers.
//!
//! Every mediator query used to re-fetch from the wrapped sources cold,
//! even though MedMaker's MSI design (§3.4–3.6) makes source round-trips
//! the dominant cost of both the fetch-and-join and parameterized-query
//! strategies. The [`AnswerCache`] keeps the wrapper's exported
//! `ObjectStore` answer for every source query the executor sends, keyed
//! by a *canonicalized* form of the query (variable names normalized,
//! conditions sorted), and serves repeats without touching the source.
//!
//! Lookup goes beyond exact repetition: a **containment probe** (§3.2's
//! query-containment notion, see [`engine::containment`]) finds a cached
//! query that is *more general* than the incoming one — same shape, but
//! with a variable where the new query pins a constant, or without a rest
//! condition the new query adds. The cached answer is then filtered
//! locally, `wrappers/eval.rs`-style, against the extra constants and
//! conditions instead of paying a round-trip.
//!
//! A hit is served in two steps. `serve` — the one loop both tiers run —
//! decides which of the cached answer's objects the new query keeps, and
//! visits as few as it can prove sufficient: a probe that pins nothing
//! (an exact repeat, a rest-only specialization) visits the whole answer;
//! a probe that pins variables to constants asks the hot entry's
//! [`wrappers::ValueIndex`] — built by the first pinned probe, owned by
//! the entry and dropped with it — for the objects listed under a pinned
//! value, and runs the same checks on those only, in the answer's order.
//! The carrier reader ([`wrappers::api::read_carriers`]) then reads the
//! kept objects' rows in place, and the executor absorbs them exactly as
//! it absorbs a live answer's rows: one old-id → new-id map per served
//! answer, so an object two rows share is copied once and a hit prints
//! the bytes a round-trip would. A bind join over a cached table is
//! made of pinned probes, one per tuple; before the index each cost as
//! much as the table is long. [`CacheCounters::objects_examined`] counts
//! the visits.
//!
//! Keys are computed over the *post-capability-strip* node queries (the
//! planner already removed conditions the source cannot evaluate), so the
//! cache never conflates what the source was actually asked with what the
//! mediator filters afterwards.
//!
//! Soundness rule: a probe that meets *any* structural surprise — a
//! pinned variable the cached query never exported or that some object
//! of the answer carries no atom for (anywhere in the entry, not only
//! among the objects the probe would return), a rest condition whose
//! carrier is missing, a rest condition referencing a variable the
//! query binds elsewhere (local filtering cannot thread bindings the way
//! the live matcher does), mismatched extraction kinds — rejects the
//! entry and falls back to a miss. A containment false-positive can never
//! serve a wrong answer; the worst case is a redundant round-trip.
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
//!   without re-paying the source round-trips. A warm hit re-reads,
//!   re-verifies and *promotes* the entry back to hot; the store it
//!   filters was parsed a moment ago and is scanned, not indexed.
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
//! source costs; serving from memory says nothing about that, and before
//! this rule cache-heavy workloads starved latency learning with
//! zero-cost samples. The dependency runs the *other* way now: eviction
//! reads the per-source latency EWMA from [`crate::stats`] (snapshotted
//! at insert, outside the cache lock) to price what an entry saves.

pub mod hot;
pub mod keyidx;
pub mod warm;

pub use keyidx::{rule_labels, LabelFootprint, SourceDelta};
pub use warm::{CompactStats, WarmStats, WarmTier};

use crate::exec::absorb_all;
use crate::graph::{carrier_label, find_carrier, ExtractVar, VarKind};
use crate::stats::SharedStats;
use engine::bindings::{Bindings, BoundValue};
use engine::matcher::{atomic_eq, match_pattern};
use hot::{CachedAnswer, HotTier};
use msl::{Head, PatValue, Pattern, RestSpec, Rule, SetElem, SetPattern, TailItem, Term};
use oem::{ObjId, ObjectStore, Symbol, Value};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use wrappers::api::{construct_answer, read_carriers, Rows};
use wrappers::fault::{Clock, SystemClock};
use wrappers::ValueIndex;

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
    /// Top-level cached objects looked at to answer lookups: every object
    /// a hit or a refused entry was filtered over, plus every object an
    /// index build visited. Per pinned containment hit it stays near the
    /// number of rows returned, whatever the entry holds.
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
    /// Canonical key — the printed canonicalized query.
    key: String,
    /// The original (post-strip) source query, for containment probes.
    query: Rule,
    /// The variables the cached answer's `bind_for_*` carriers export.
    extract: Vec<ExtractVar>,
    /// Label footprint of the query, for delta-driven invalidation.
    footprint: LabelFootprint,
    /// The wrapper's exported answer, as returned, and its value index.
    answer: CachedAnswer,
    /// Insertion time on the cache clock, for TTL expiry.
    inserted_ms: u64,
    /// Approximate size of the answer (printed form), for accounting.
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

    /// Look up an answer for `query` against `source`. On a hit, the
    /// rows of `vars` the cached answer serves are read out of its kept
    /// objects' carriers in place, over the cached store, exactly as a
    /// live answer's carriers are read, and absorbed into `memory` as the
    /// executor absorbs every answer's rows.
    ///
    /// The hot tier is probed first (exact keys, then containment,
    /// newest first); on a hot miss the warm tier's index is probed the
    /// same way, the winning record re-read and re-checksummed off disk,
    /// and the entry promoted back into the hot tier.
    pub fn lookup(
        &self,
        source: Symbol,
        query: &Rule,
        vars: &[ExtractVar],
        memory: &mut ObjectStore,
    ) -> Option<(Vec<Vec<BoundValue>>, CacheHit)> {
        let (rows, kind) = self.lookup_rows(source, query, vars)?;
        Some((absorb_all(&rows.store, rows.rows, memory), kind))
    }

    /// [`AnswerCache::lookup`] up to the rows, over the cached store.
    fn lookup_rows(
        &self,
        source: Symbol,
        query: &Rule,
        vars: &[ExtractVar],
    ) -> Option<(Rows, CacheHit)> {
        if !self.enabled_for(source) {
            return None;
        }
        let key = canonical_key(query);
        let now = self.clock.now_ms();
        let inner = &mut *self.inner.lock();
        if inner.failed.contains(&source) && !self.opts.stale_ok {
            // An observed outage embargoes the shard: serving would mask
            // the failure behind data of unknown staleness.
            inner.counts.misses += 1;
            return None;
        }
        self.expire(inner, source, now);

        // Hot probe: exact keys first (newest first), then containment.
        let mut hot_hit: Option<(usize, Rows, CacheHit)> = None;
        let examined = &mut inner.counts.objects_examined;
        if let Some(shard) = inner.hot.shard(source) {
            'probe: for kind in [CacheHit::Exact, CacheHit::Containment] {
                for (i, entry) in shard.iter().enumerate().rev() {
                    if (entry.key == key) != (kind == CacheHit::Exact) {
                        continue;
                    }
                    let Some(m) = specialize_match_rule(query, &entry.query) else {
                        continue;
                    };
                    // A probe that pins variables visits only the objects
                    // the entry's index lists under a pinned value.
                    let index = (!m.sigma.is_empty()).then(|| entry.answer.index(examined));
                    let answer = entry.answer.store();
                    let Some(rows) = serve(&entry.extract, answer, index, &m, vars, examined)
                        .and_then(|kept| kept.rows(answer))
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
        let mut warm_hit: Option<(String, Rows, CacheHit)> = None;
        if let Some(warm) = &inner.warm {
            if let Some(shard) = warm.entries(source) {
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
                    let Some(store) = warm.read_answer(we) else {
                        continue;
                    };
                    let store = Arc::new(store);
                    // Nothing resident to index: the store was just re-read.
                    let examined = &mut inner.counts.objects_examined;
                    let Some(rows) = serve(&we.extract, &store, None, &m, vars, examined)
                        .and_then(|kept| kept.rows(&store))
                    else {
                        continue;
                    };
                    let kind = if we.key == key {
                        CacheHit::Exact
                    } else {
                        CacheHit::Containment
                    };
                    warm_hit = Some((k.clone(), rows, kind));
                    break;
                }
            }
        }
        if let Some((k, rows, kind)) = warm_hit {
            match kind {
                CacheHit::Exact => inner.counts.hits += 1,
                CacheHit::Containment => inner.counts.containment_hits += 1,
            }
            inner.counts.warm_hits += 1;
            if self.opts.capacity == 0 {
                return Some((rows, kind));
            }
            // Promote: refresh the hit EWMA and copy the entry back into
            // the hot tier (keeping its original insert time for TTL).
            let entry = {
                let warm = inner.warm.as_mut().expect("warm tier present on warm hit");
                let we = warm.entry_mut(source, &k).expect("warm entry present");
                we.hit_boost = 0.5 * we.hit_boost + 0.5;
                Entry {
                    key: k,
                    query: we.query.clone(),
                    extract: we.extract.clone(),
                    footprint: we.footprint.clone(),
                    answer: CachedAnswer::new(Arc::clone(&rows.store)),
                    inserted_ms: we.inserted_ms,
                    size_bytes: we.size_bytes,
                    unit_cost_ms: we.unit_cost_ms,
                    hit_boost: we.hit_boost,
                }
            };
            let size = entry.size_bytes;
            let (freed, evicted) = inner.hot.insert(source, entry, self.opts.capacity);
            let evicted_bytes: usize = evicted.iter().map(|e| e.size_bytes).sum();
            inner.counts.promotions += 1;
            inner.counts.demotions += evicted.len(); // warm is present: losers demote
            inner.counts.bytes_cached = inner.counts.bytes_cached + size - freed - evicted_bytes;
            return Some((rows, kind));
        }

        inner.counts.misses += 1;
        None
    }

    /// Cache a freshly fetched answer given as rows: the answer store it
    /// keeps is built from them — `query`'s head constructed once per row,
    /// as the wrapper's own [`wrappers::Wrapper::query`] builds it — so
    /// the entry holds the bytes a stored answer would.
    pub fn insert_rows(&self, source: Symbol, query: &Rule, vars: &[ExtractVar], rows: &Rows) {
        if !self.enabled_for(source) || self.opts.capacity == 0 {
            return;
        }
        let names: Vec<Symbol> = vars.iter().map(|v| v.var).collect();
        // A head the rows cannot rebuild is not cached: a later miss only
        // costs a round-trip.
        if let Ok(answer) = construct_answer(source, &query.head, &names, &rows.store, &rows.rows) {
            self.insert_store(source, query, vars, answer);
        }
    }

    /// Cache a freshly fetched answer, given as the store to keep: the
    /// executor files one tuple's part of a split set-valued answer this
    /// way (numbered as a copy out of the batch), and a lone answer through
    /// [`AnswerCache::insert_rows`]. Replaces an existing entry with the
    /// same canonical key; evicts the shard's lowest-value entry past
    /// capacity (losers demote when a warm tier is configured). With a
    /// warm tier the answer is also written through to disk, and
    /// compaction runs when the segments outgrow the byte budget.
    pub fn insert(&self, source: Symbol, query: &Rule, vars: &[ExtractVar], answer: &ObjectStore) {
        if !self.enabled_for(source) || self.opts.capacity == 0 {
            return;
        }
        self.insert_store(source, query, vars, answer.clone());
    }

    fn insert_store(&self, source: Symbol, query: &Rule, vars: &[ExtractVar], answer: ObjectStore) {
        let key = canonical_key(query);
        let answer_text = oem::printer::print_store(&answer);
        let size_bytes = answer_text.len();
        let (unit_cost_ms, hit_boost) = self.value_inputs(source);
        let inserted_ms = self.clock.now_ms();
        let entry = Entry {
            key: key.clone(),
            query: query.clone(),
            extract: vars.to_vec(),
            footprint: rule_labels(query),
            answer: CachedAnswer::new(Arc::new(answer)),
            inserted_ms,
            size_bytes,
            unit_cost_ms,
            hit_boost,
        };
        let inner = &mut *self.inner.lock();
        let (freed, evicted) = inner.hot.insert(source, entry, self.opts.capacity);
        let evicted_bytes: usize = evicted.iter().map(|e| e.size_bytes).sum();
        if inner.warm.is_some() {
            inner.counts.demotions += evicted.len();
        } else {
            inner.counts.evictions += evicted.len();
        }
        inner.counts.bytes_cached = inner.counts.bytes_cached + size_bytes - freed - evicted_bytes;
        if let Some(warm) = &mut inner.warm {
            // Write-through. Warm I/O errors degrade the tier (the entry
            // just won't survive a restart), never the query.
            let _ = warm.append(
                source,
                &key,
                query,
                vars,
                inserted_ms,
                unit_cost_ms,
                hit_boost,
                &answer_text,
            );
            if warm.disk_bytes() > self.opts.warm_bytes {
                if let Ok(st) = warm.compact(self.opts.warm_bytes) {
                    inner.counts.compactions += 1;
                    inner.counts.evictions += st.dropped;
                }
            }
        }
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
            keys.extend(shard.iter().map(|e| e.key.clone()));
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
            let stale = delta.matches(&e.key, &e.footprint);
            if stale {
                keys.insert(e.key.clone());
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
        let (hot_n, freed) = inner.hot.expire(source, ttl, now);
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
pub fn canonical_key(query: &Rule) -> String {
    msl::printer::rule(&canonical_rule(query))
}

/// The canonicalized form behind [`canonical_key`].
fn canonical_rule(query: &Rule) -> Rule {
    let vars: HashSet<Symbol> = query.variables().into_iter().collect();
    let mut rule = query.clone();
    // Pass 1: sort set elements / rest conditions / tail items by their
    // variable-masked printed form, bottom-up, so condition order cannot
    // influence the key (renaming below is positional over this order).
    sort_head(&mut rule.head, &vars);
    for t in &mut rule.tail {
        sort_tail_item(t, &vars);
    }
    rule.tail
        .sort_by_cached_key(|t| masked_print_tail(t, &vars));
    // Pass 2: rename every variable (and the `bind_for_<var>` carrier
    // labels that embed one) to CV0, CV1, ... in traversal order.
    let mut namer = Namer {
        vars,
        map: HashMap::new(),
    };
    rename_head(&mut rule.head, &mut namer);
    for t in &mut rule.tail {
        rename_tail_item(t, &mut namer);
    }
    rule
}

struct Namer {
    vars: HashSet<Symbol>,
    map: HashMap<Symbol, Symbol>,
}

impl Namer {
    fn rename(&mut self, v: Symbol) -> Symbol {
        let next = self.map.len();
        *self
            .map
            .entry(v)
            .or_insert_with(|| Symbol::intern(&format!("CV{next}")))
    }
}

/// Rewrite a `bind_for_<var>` carrier-label constant through `f` when its
/// suffix is one of the rule's variables. The planner embeds extraction
/// variable names in these labels, so key normalization must follow them.
fn map_bind_for(
    value: &Value,
    vars: &HashSet<Symbol>,
    f: &mut impl FnMut(Symbol) -> Symbol,
) -> Option<Value> {
    let Value::Str(s) = value else { return None };
    let text = s.as_str();
    let suffix = text.strip_prefix("bind_for_")?;
    let sym = Symbol::intern(suffix);
    if !vars.contains(&sym) {
        return None;
    }
    Some(Value::str(&format!("bind_for_{}", f(sym))))
}

fn sort_head(head: &mut Head, vars: &HashSet<Symbol>) {
    if let Head::Pattern(p) = head {
        sort_pattern(p, vars);
    }
}

fn sort_tail_item(t: &mut TailItem, vars: &HashSet<Symbol>) {
    if let TailItem::Match { pattern, .. } = t {
        sort_pattern(pattern, vars);
    }
}

fn sort_pattern(p: &mut Pattern, vars: &HashSet<Symbol>) {
    if let PatValue::Set(sp) = &mut p.value {
        for e in &mut sp.elements {
            if let SetElem::Pattern(q) | SetElem::Wildcard(q) = e {
                sort_pattern(q, vars);
            }
        }
        sp.elements
            .sort_by_cached_key(|e| masked_print_elem(e, vars));
        if let Some(r) = &mut sp.rest {
            for c in &mut r.conditions {
                sort_pattern(c, vars);
            }
            r.conditions
                .sort_by_cached_key(|c| masked_print_pattern(c, vars));
        }
    }
}

fn masked_print_pattern(p: &Pattern, vars: &HashSet<Symbol>) -> String {
    let mut mask = |_: Symbol| Symbol::intern("MASKED");
    msl::printer::pattern(&map_pattern(p, vars, &mut mask))
}

fn masked_print_elem(e: &SetElem, vars: &HashSet<Symbol>) -> String {
    match e {
        SetElem::Pattern(p) => format!("p:{}", masked_print_pattern(p, vars)),
        SetElem::Wildcard(p) => format!("w:{}", masked_print_pattern(p, vars)),
        SetElem::Var(_) => "v:".to_string(),
    }
}

fn masked_print_tail(t: &TailItem, vars: &HashSet<Symbol>) -> String {
    let mut mask = |_: Symbol| Symbol::intern("MASKED");
    match t {
        TailItem::Match { pattern, source } => format!(
            "m:{}@{}",
            msl::printer::pattern(&map_pattern(pattern, vars, &mut mask)),
            source.map(|s| s.as_str().to_string()).unwrap_or_default()
        ),
        TailItem::External { name, args } => {
            let args: Vec<String> = args
                .iter()
                .map(|a| msl::printer::term(&map_term(a, vars, &mut mask), true))
                .collect();
            format!("e:{name}({})", args.join(","))
        }
    }
}

fn map_term(t: &Term, vars: &HashSet<Symbol>, f: &mut impl FnMut(Symbol) -> Symbol) -> Term {
    match t {
        Term::Var(v) => Term::Var(f(*v)),
        Term::Const(v) => match map_bind_for(v, vars, f) {
            Some(mapped) => Term::Const(mapped),
            None => t.clone(),
        },
        Term::Param(p) => Term::Param(*p),
        Term::Func(name, args) => {
            Term::Func(*name, args.iter().map(|a| map_term(a, vars, f)).collect())
        }
    }
}

fn map_pattern(
    p: &Pattern,
    vars: &HashSet<Symbol>,
    f: &mut impl FnMut(Symbol) -> Symbol,
) -> Pattern {
    Pattern {
        obj_var: p.obj_var.map(&mut *f),
        oid: p.oid.as_ref().map(|t| map_term(t, vars, f)),
        label: map_term(&p.label, vars, f),
        typ: p.typ.as_ref().map(|t| map_term(t, vars, f)),
        value: match &p.value {
            PatValue::Term(t) => PatValue::Term(map_term(t, vars, f)),
            PatValue::Set(sp) => PatValue::Set(SetPattern {
                elements: sp
                    .elements
                    .iter()
                    .map(|e| match e {
                        SetElem::Pattern(q) => SetElem::Pattern(map_pattern(q, vars, f)),
                        SetElem::Wildcard(q) => SetElem::Wildcard(map_pattern(q, vars, f)),
                        SetElem::Var(v) => SetElem::Var(f(*v)),
                    })
                    .collect(),
                rest: sp.rest.as_ref().map(|r| RestSpec {
                    var: f(r.var),
                    conditions: r
                        .conditions
                        .iter()
                        .map(|c| map_pattern(c, vars, f))
                        .collect(),
                }),
            }),
        },
    }
}

fn rename_term(t: &mut Term, namer: &mut Namer) {
    let vars = namer.vars.clone();
    *t = map_term(t, &vars, &mut |v| namer.rename(v));
}

fn rename_pattern(p: &mut Pattern, namer: &mut Namer) {
    let vars = namer.vars.clone();
    *p = map_pattern(p, &vars, &mut |v| namer.rename(v));
}

fn rename_head(head: &mut Head, namer: &mut Namer) {
    match head {
        Head::Var(v) => *v = namer.rename(*v),
        Head::Pattern(p) => rename_pattern(p, namer),
    }
}

fn rename_tail_item(t: &mut TailItem, namer: &mut Namer) {
    match t {
        TailItem::Match { pattern, .. } => rename_pattern(pattern, namer),
        TailItem::External { args, .. } => {
            for a in args {
                rename_term(a, namer);
            }
        }
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
    let mut rule_counts: HashMap<Symbol, usize> = HashMap::new();
    count_vars_head(&new.head, &mut rule_counts);
    for t in &new.tail {
        count_vars_tail(t, &mut rule_counts);
    }
    for (_, cond) in &m.extra_rest {
        let mut cond_counts: HashMap<Symbol, usize> = HashMap::new();
        count_vars_pattern(cond, &mut cond_counts);
        for (v, n) in &cond_counts {
            if rule_counts.get(v) != Some(n) {
                return false;
            }
        }
    }
    true
}

fn count_vars_term(t: &Term, counts: &mut HashMap<Symbol, usize>) {
    match t {
        Term::Var(v) => *counts.entry(*v).or_insert(0) += 1,
        Term::Const(_) | Term::Param(_) => {}
        Term::Func(_, args) => {
            for a in args {
                count_vars_term(a, counts);
            }
        }
    }
}

fn count_vars_pattern(p: &Pattern, counts: &mut HashMap<Symbol, usize>) {
    if let Some(v) = p.obj_var {
        *counts.entry(v).or_insert(0) += 1;
    }
    if let Some(t) = &p.oid {
        count_vars_term(t, counts);
    }
    count_vars_term(&p.label, counts);
    if let Some(t) = &p.typ {
        count_vars_term(t, counts);
    }
    match &p.value {
        PatValue::Term(t) => count_vars_term(t, counts),
        PatValue::Set(sp) => {
            for e in &sp.elements {
                match e {
                    SetElem::Pattern(q) | SetElem::Wildcard(q) => count_vars_pattern(q, counts),
                    SetElem::Var(v) => *counts.entry(*v).or_insert(0) += 1,
                }
            }
            if let Some(r) = &sp.rest {
                *counts.entry(r.var).or_insert(0) += 1;
                for c in &r.conditions {
                    count_vars_pattern(c, counts);
                }
            }
        }
    }
}

fn count_vars_head(head: &Head, counts: &mut HashMap<Symbol, usize>) {
    match head {
        Head::Var(v) => *counts.entry(*v).or_insert(0) += 1,
        Head::Pattern(p) => count_vars_pattern(p, counts),
    }
}

fn count_vars_tail(t: &TailItem, counts: &mut HashMap<Symbol, usize>) {
    match t {
        TailItem::Match { pattern, .. } => count_vars_pattern(pattern, counts),
        TailItem::External { args, .. } => {
            for a in args {
                count_vars_term(a, counts);
            }
        }
    }
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
    if !match_elements(&sn.elements, &sc.elements, m) {
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
            if !match_conditions(&rc.conditions, &rn.conditions, &mut used, 0, m) {
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

/// Backtracking perfect matching of new elements onto cached elements.
fn match_elements(new: &[SetElem], cached: &[SetElem], m: &mut Mapping) -> bool {
    fn go(
        i: usize,
        new: &[SetElem],
        cached: &[SetElem],
        used: &mut [bool],
        m: &mut Mapping,
    ) -> bool {
        if i == cached.len() {
            return true;
        }
        for (j, en) in new.iter().enumerate() {
            if used[j] {
                continue;
            }
            let snapshot = m.clone();
            let ok = match (en, &cached[i]) {
                (SetElem::Pattern(pn), SetElem::Pattern(pc)) => specialize_pattern(pn, pc, m),
                (SetElem::Wildcard(pn), SetElem::Wildcard(pc)) => specialize_pattern(pn, pc, m),
                (SetElem::Var(vn), SetElem::Var(vc)) => m.bind_var(*vc, *vn),
                _ => false,
            };
            if ok {
                used[j] = true;
                if go(i + 1, new, cached, used, m) {
                    return true;
                }
                used[j] = false;
            }
            *m = snapshot;
        }
        false
    }
    let mut used = vec![false; new.len()];
    go(0, new, cached, &mut used, m)
}

/// Backtracking match of cached rest conditions onto distinct new ones,
/// marking which new conditions were consumed.
fn match_conditions(
    cached: &[Pattern],
    new: &[Pattern],
    used: &mut [bool],
    i: usize,
    m: &mut Mapping,
) -> bool {
    if i == cached.len() {
        return true;
    }
    for (j, cn) in new.iter().enumerate() {
        if used[j] {
            continue;
        }
        let snapshot = m.clone();
        if specialize_pattern(cn, &cached[i], m) {
            used[j] = true;
            if match_conditions(cached, new, used, i + 1, m) {
                return true;
            }
            used[j] = false;
        }
        *m = snapshot;
    }
    false
}

// ---- serving ------------------------------------------------------------

/// What [`serve`] keeps of a cached answer.
struct Kept {
    /// The entry's variables to extract, one per variable the new query
    /// extracts.
    vars: Vec<ExtractVar>,
    /// The roots to extract them from, in the answer's order.
    roots: Vec<ObjId>,
}

impl Kept {
    /// The kept rows, read out of `answer`'s carriers in place as a live
    /// answer's are. `serve` checked every carrier the reader reads.
    fn rows(&self, answer: &Arc<ObjectStore>) -> Option<Rows> {
        Some(Rows {
            rows: read_carriers(answer, &self.roots, &self.vars).ok()?,
            store: Arc::clone(answer),
        })
    }
}

/// Filter a cached answer through the mapping: the objects it keeps for
/// the new query, after checking every carrier their extraction will
/// read. `None` on any structural surprise — the caller treats that as
/// "this entry cannot serve the query", and nothing has been copied; on
/// the live path an empty object-variable carrier raises the error it
/// always did. Tier-agnostic: the hot path passes the resident answer,
/// the warm path the store it just re-read off disk.
///
/// With an `index` over `answer`, only the shortest posting list among the
/// pins is visited, and each pin is still confirmed with [`atomic_eq`]
/// (unequal values can share a key). Without one every object is visited.
/// Each object visited adds one to `examined`.
fn serve(
    extract: &[ExtractVar],
    answer: &ObjectStore,
    index: Option<&ValueIndex>,
    m: &Mapping,
    vars: &[ExtractVar],
    examined: &mut usize,
) -> Option<Kept> {
    // Carrier labels are resolved here, once per call: formatting and
    // interning one per object is what used to dominate a pinned probe.
    let exported = |var: Symbol| extract.iter().find(|e| e.var == var);
    // Every variable the new query extracts must map onto one the cached
    // answer exported, with the same kind.
    let entry_vars = vars
        .iter()
        .map(|v| {
            exported(*m.rho_inv.get(&v.var)?)
                .filter(|e| e.kind == v.kind)
                .cloned()
        })
        .collect::<Option<Vec<_>>>()?;
    let carriers: Vec<(Symbol, VarKind)> = entry_vars
        .iter()
        .map(|e| (carrier_label(e.var), e.kind))
        .collect();
    // Every pinned variable and rest-filter variable must have a carrier.
    let carrier_of = |var: Symbol| exported(var).map(|e| carrier_label(e.var));
    let pins: Vec<(Symbol, &Value)> = m
        .sigma
        .iter()
        .map(|(pinned, value)| Some((carrier_of(*pinned)?, value)))
        .collect::<Option<_>>()?;
    let rest_filters: Vec<(Symbol, &Pattern)> = m
        .extra_rest
        .iter()
        .map(|(rest_var, cond)| Some((carrier_of(*rest_var)?, cond)))
        .collect::<Option<_>>()?;
    let tops = answer.top_level();
    let visit: Box<dyn Iterator<Item = usize>> = match index {
        // A posting list holds every object the σ filter keeps only if
        // each object holds its pinned carrier once, as an atom.
        Some(index) => {
            if !pins.iter().all(|&(label, _)| index.holds_one_atom(label)) {
                return None;
            }
            let lists = pins
                .iter()
                .map(|&(label, value)| index.positions(label, value));
            Box::new(lists.min_by_key(ExactSizeIterator::len)?)
        }
        None => Box::new(0..tops.len()),
    };
    let mut roots = Vec::new();
    for top in visit.map(|pos| tops[pos]) {
        *examined += 1;
        // σ filter: the carrier for a pinned variable must hold exactly
        // the pinned constant.
        let mut keep = true;
        for &(label, value) in &pins {
            match &answer.get(find_carrier(answer, top, label)?).value {
                Value::Set(_) => return None, // non-atomic pin: cannot filter
                atomic => keep &= atomic_eq(atomic, value),
            }
        }
        // Rest filters: some member of the carrier set must match each
        // extra condition (`wrappers/eval.rs`-style tail matching, the
        // same semantics as the executor's RestFilter node; sound under
        // empty bindings because the probe rejected non-local variables).
        for &(label, cond) in &rest_filters {
            if !keep {
                break;
            }
            let Value::Set(ids) = &answer.get(find_carrier(answer, top, label)?).value else {
                return None;
            };
            keep = ids
                .iter()
                .any(|&id| !match_pattern(answer, id, cond, &Bindings::new()).is_empty());
        }
        if !keep {
            continue;
        }
        // What extraction reads: every carrier, an object variable's
        // non-empty.
        for &(label, kind) in &carriers {
            let carrier = &answer.get(find_carrier(answer, top, label)?).value;
            if let (Value::Set(kids), VarKind::Object) = (carrier, kind) {
                kids.first()?;
            }
        }
        roots.push(top);
    }
    Some(Kept {
        vars: entry_vars,
        roots,
    })
}

#[cfg(test)]
mod tests;
