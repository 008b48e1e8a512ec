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
//! `CachedAnswer` keeps, per pinned variable, a map from the carrier's
//! [`atomic_key`] to the positions in `top_level()` that hold it. The map
//! is built by the first probe that pins that variable and lives in the
//! same struct as the store it describes: whatever replaces, evicts,
//! expires or invalidates the entry drops both, and there is no second
//! invalidation path to forget.

use super::{find_carrier, Entry};
use crate::graph::carrier_label;
use engine::matcher::atomic_key;
use oem::{ObjectStore, Symbol, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A resident answer with the indexes built over it so far.
pub(crate) struct CachedAnswer {
    store: Arc<ObjectStore>,
    /// Pinned variable → [`atomic_key`] of its carrier → ascending
    /// positions in `store.top_level()`. `None` for a variable some
    /// object carries no atom for: the entry refuses every probe that
    /// pins it.
    by_pin: HashMap<Symbol, Option<HashMap<Value, Vec<usize>>>>,
}

impl CachedAnswer {
    pub(crate) fn new(store: Arc<ObjectStore>) -> CachedAnswer {
        CachedAnswer {
            store,
            by_pin: HashMap::new(),
        }
    }

    /// The wrapper's exported answer, as returned.
    pub(crate) fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Build the index of every variable `pins` pins that has none yet.
    /// Returns the number of top-level objects the builds looked at (0
    /// when there was nothing to do).
    pub(crate) fn index_pins(&mut self, pins: &HashMap<Symbol, Value>) -> usize {
        let store = &*self.store;
        let mut looked_at = 0;
        for &var in pins.keys() {
            self.by_pin.entry(var).or_insert_with(|| {
                let label = carrier_label(var);
                store.top_level().iter().enumerate().try_fold(
                    HashMap::<Value, Vec<usize>>::new(),
                    |mut index, (pos, &top)| {
                        looked_at += 1;
                        match &store.get(find_carrier(store, top, label)?).value {
                            Value::Set(_) => None,
                            atom => {
                                index.entry(atomic_key(atom)).or_default().push(pos);
                                Some(index)
                            }
                        }
                    },
                )
            });
        }
        looked_at
    }

    /// The objects a probe pinning each variable of `pins` to its value
    /// can return, as ascending positions in `top_level()`: the shortest
    /// of the pins' lists, every one of which holds all the objects whose
    /// carrier equals the pinned value. They are candidates to confirm
    /// with [`engine::matcher::atomic_eq`], pin by pin, since unequal
    /// values can share a key. `None` when the entry cannot answer the
    /// probe: for one of the variables some object lacks the carrier or
    /// holds a set there (or [`Self::index_pins`] has not run), or `pins`
    /// is empty.
    pub(crate) fn candidates(&self, pins: &HashMap<Symbol, Value>) -> Option<&[usize]> {
        let mut shortest: Option<&[usize]> = None;
        for (var, value) in pins {
            let index = self.by_pin.get(var)?.as_ref()?;
            let listed = index.get(&atomic_key(value)).map_or(&[][..], Vec::as_slice);
            if shortest.is_none_or(|s| listed.len() < s.len()) {
                shortest = Some(listed);
            }
        }
        shortest
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

    /// Mutable shard access (probing builds indexes; hit bookkeeping).
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
