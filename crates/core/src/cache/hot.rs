//! The hot tier: in-memory per-source shards with cost-aware eviction.
//!
//! Each source keeps a `Vec` of entries in insertion order (oldest
//! first); lookups probe an equal shape before containment candidates,
//! newest first.
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
//! **An entry holds rows.** `CachedAnswer::new` makes an entry's answer
//! out of the answer store it was built from, once: the carrier reader
//! reads one row per top-level object. The rows point into that store,
//! which the entry owns; no hit reads a carrier again.
//!
//! **Pinned probes** are what a resident answer is indexed for. A
//! containment hit that pins a variable (`<name 'Joe Chung'>` against the
//! cached `<name N>`) wants the few rows whose `N` column holds that
//! value, not a walk over the whole answer, so each entry can keep a
//! [`ValueIndex`] over its atom columns: the one the semi-structured
//! source narrows lookups with, keyed by the same
//! [`engine::matcher::atomic_key`], a column's variable standing for the
//! label. The first probe that pins anything builds it, looking at each
//! row once, and it lives in the same struct as the rows it describes:
//! whatever replaces, evicts, expires or invalidates the entry drops both,
//! and there is no second invalidation path to forget.

use super::Entry;
use crate::graph::ExtractVar;
use engine::bindings::BoundValue;
use oem::{ObjectStore, Symbol};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use wrappers::api::read_carriers;
use wrappers::{Rows, ValueIndex};

/// A cached answer as rows, with the index built over them once a probe
/// has asked for one.
pub(crate) struct CachedAnswer {
    /// One row per top-level object of the entry's own answer store, in
    /// order; object ids point into that store.
    pub(crate) rows: Rows,
    index: OnceCell<ColumnIndex>,
}

/// The index of a cached answer's atom columns.
pub(crate) struct ColumnIndex {
    /// The rows' atoms, each column labelled by its variable.
    pub(crate) values: ValueIndex,
    /// Per column: whether every row holds an atom there. Only then does
    /// `values` list every row under the one value it holds there.
    pub(crate) atoms: Vec<bool>,
}

impl CachedAnswer {
    /// The answer `store` carries for `extract`: one row per top-level
    /// object, read by the carrier reader. `None` when the reader rejects
    /// an object; such an answer is never cached.
    pub(crate) fn new(store: ObjectStore, extract: &[ExtractVar]) -> Option<CachedAnswer> {
        let rows = read_carriers(&store, store.top_level(), extract).ok()?;
        Some(CachedAnswer {
            rows: Rows {
                rows,
                store: Arc::new(store),
            },
            index: OnceCell::new(),
        })
    }

    /// The index over the atom columns, each labelled by its variable in
    /// `extract`; built on the first call, which adds the rows it looks at
    /// to `examined`.
    pub(crate) fn index(&self, extract: &[ExtractVar], examined: &mut usize) -> &ColumnIndex {
        self.index.get_or_init(|| {
            let rows = &self.rows.rows;
            *examined += rows.len();
            let cells = rows.iter().enumerate().flat_map(|(pos, row)| {
                (row.iter().zip(extract))
                    .filter_map(move |(cell, e)| Some((pos, e.var, cell.as_atom()?)))
            });
            ColumnIndex {
                values: ValueIndex::from_triples(cells),
                atoms: (0..extract.len())
                    .map(|c| rows.iter().all(|row| matches!(row[c], BoundValue::Atom(_))))
                    .collect(),
            }
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

    /// Insert `entry`, replacing any entry of its shape, then evict the
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
        if let Some(pos) = shard.iter().position(|e| e.shape == entry.shape) {
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
