//! The hot tier: in-memory per-source shards with cost-aware eviction.
//!
//! This is the seed cache's store, factored out of the facade and taught
//! a better eviction policy. Each source keeps a `Vec` of entries in
//! insertion order (oldest first); lookups probe exact keys before
//! containment candidates, newest first, exactly as before.
//!
//! **Eviction** past the per-source capacity is where the tiers earn
//! their keep: the entry with the lowest *value score* goes — what one
//! byte of this entry saves per unit time:
//! `unit_cost_ms × hit_boost / size_bytes`, where `unit_cost_ms` is the
//! source's observed per-call latency EWMA (snapshotted from
//! [`crate::stats`] at insert) and `hit_boost` is a per-entry hit EWMA
//! (seeded from the source's hit-rate EWMA, raised toward 1 on every hit
//! this entry serves). Big answers from cheap sources that nobody re-asks
//! go first; small answers from slow sources that keep hitting stay. Ties
//! fall back to oldest-first, so with no signal (equal sizes, no hits,
//! unmeasured source) eviction is plain first-in, first-out.
//!
//! When a warm tier is configured, the evicted loser **demotes** (the
//! caller drops it from memory knowing the warm tier already holds it)
//! instead of vanishing; without one it is simply gone.
//!
//! **Pinned probes** are what a resident answer is indexed for. A
//! containment hit that pins a variable (`<name 'Joe Chung'>` against the
//! cached `<name N>`) wants the few objects whose `bind_for_N` carrier
//! holds that value, not a walk over the whole answer, so each entry's
//! `CachedAnswer` keeps a [`ValueIndex`] over its store: the one the
//! semi-structured source narrows lookups with, keyed by the same
//! [`engine::matcher::atomic_key`]. The first probe that pins anything
//! builds it, looking at each object once, and it lives in the same struct
//! as the store it describes: whatever replaces, evicts, expires or
//! invalidates the entry drops both, and there is no second invalidation
//! path to forget.

use super::Entry;
use oem::{ObjectStore, Symbol};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use wrappers::ValueIndex;

/// A resident answer with the value index built over it, once a probe
/// has asked for one.
pub(crate) struct CachedAnswer {
    store: Arc<ObjectStore>,
    index: OnceCell<ValueIndex>,
}

impl CachedAnswer {
    pub(crate) fn new(store: Arc<ObjectStore>) -> CachedAnswer {
        CachedAnswer {
            store,
            index: OnceCell::new(),
        }
    }

    /// The wrapper's exported answer, as returned.
    pub(crate) fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The value index over the store's top-level objects, built on the
    /// first call, which adds the objects it looks at to `examined`.
    pub(crate) fn index(&self, examined: &mut usize) -> &ValueIndex {
        self.index.get_or_init(|| {
            *examined += self.store.top_level().len();
            ValueIndex::build(&self.store)
        })
    }
}

/// The in-memory tier: per-source shards of cached entries.
#[derive(Default)]
pub struct HotTier {
    /// Per-source shards, each in insertion order (oldest first).
    pub(crate) shards: BTreeMap<Symbol, Vec<Entry>>,
}

impl HotTier {
    /// The shard for `source`, if any.
    pub(crate) fn shard(&self, source: Symbol) -> Option<&Vec<Entry>> {
        self.shards.get(&source)
    }

    /// Mutable shard access (hit bookkeeping).
    pub(crate) fn shard_mut(&mut self, source: Symbol) -> Option<&mut Vec<Entry>> {
        self.shards.get_mut(&source)
    }

    /// Resident entries across all shards.
    pub(crate) fn entry_count(&self) -> usize {
        self.shards.values().map(Vec::len).sum()
    }

    /// Insert `entry`, replacing any same-key entry, then evict the
    /// lowest value scores down to `capacity`, ties oldest-first. Returns
    /// `(freed_bytes_of_replaced, evicted_entries)`: the caller settles
    /// the byte gauge and decides whether evicted losers demote (warm
    /// tier) or vanish.
    pub(crate) fn insert(
        &mut self,
        source: Symbol,
        entry: Entry,
        capacity: usize,
    ) -> (usize, Vec<Entry>) {
        let shard = self.shards.entry(source).or_default();
        let mut freed = 0;
        if let Some(pos) = shard.iter().position(|e| e.key == entry.key) {
            freed += shard.remove(pos).size_bytes;
        }
        shard.push(entry);
        let mut evicted = Vec::new();
        while shard.len() > capacity {
            // Lowest value first; stable min so ties evict the oldest.
            let mut victim = 0;
            for (i, e) in shard.iter().enumerate() {
                if e.value_score() < shard[victim].value_score() {
                    victim = i;
                }
            }
            evicted.push(shard.remove(victim));
        }
        (freed, evicted)
    }

    /// Drop expired entries of one shard; returns `(count, freed_bytes)`.
    pub(crate) fn expire(&mut self, source: Symbol, ttl_ms: u64, now: u64) -> (usize, usize) {
        let Some(shard) = self.shards.get_mut(&source) else {
            return (0, 0);
        };
        let before = shard.len();
        let mut freed = 0;
        shard.retain(|e| {
            let live = now.saturating_sub(e.inserted_ms) <= ttl_ms;
            if !live {
                freed += e.size_bytes;
            }
            live
        });
        (before - shard.len(), freed)
    }

    /// Remove a whole source shard; returns `(count, freed_bytes)`.
    pub(crate) fn remove_source(&mut self, source: Symbol) -> (usize, usize) {
        match self.shards.remove(&source) {
            Some(shard) => (
                shard.len(),
                shard.iter().map(|e| e.size_bytes).sum::<usize>(),
            ),
            None => (0, 0),
        }
    }

    /// Drop every entry of `source` failing `keep`; returns
    /// `(count, freed_bytes)`.
    pub(crate) fn retain(
        &mut self,
        source: Symbol,
        mut keep: impl FnMut(&Entry) -> bool,
    ) -> (usize, usize) {
        let Some(shard) = self.shards.get_mut(&source) else {
            return (0, 0);
        };
        let before = shard.len();
        let mut freed = 0;
        shard.retain(|e| {
            let k = keep(e);
            if !k {
                freed += e.size_bytes;
            }
            k
        });
        if shard.is_empty() {
            self.shards.remove(&source);
        }
        (
            before - self.shards.get(&source).map_or(0, |s| s.len()),
            freed,
        )
    }

    /// Sum of resident entry sizes (the ground truth the `bytes_cached`
    /// gauge must track exactly; see the accounting property test).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.shards
            .values()
            .flat_map(|s| s.iter())
            .map(|e| e.size_bytes)
            .sum()
    }
}
