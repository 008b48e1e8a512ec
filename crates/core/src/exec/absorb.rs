//! How a source answer's rows enter a chain's memory.

use crate::metrics::NodeMetrics;
use engine::bindings::BoundValue;
use oem::copy::{self, IdMap};
use oem::ObjectStore;
use std::sync::Arc;
use wrappers::Rows;

/// A source answer absorbed into chain memory as downstream ops pull:
/// its rows, of which those before `absorbed` name chain memory, each
/// absorbed in place.
pub(super) struct ExtSource {
    rows: Vec<Vec<BoundValue>>,
    absorbed: usize,
    /// While rows remain to absorb: the answer's store, and its one
    /// old-id → new-id map through which every chunk is absorbed, so an
    /// object shared across rows or chunks is copied once.
    rest: Option<(Arc<ObjectStore>, IdMap)>,
}

impl ExtSource {
    /// Rows already in chain memory (a cache hit's).
    pub(super) fn from_rows(rows: Vec<Vec<BoundValue>>) -> ExtSource {
        ExtSource {
            absorbed: rows.len(),
            rows,
            rest: None,
        }
    }

    /// A fresh answer, none of whose rows is absorbed yet.
    pub(super) fn from_answer(answer: Rows) -> ExtSource {
        ExtSource {
            rows: answer.rows,
            absorbed: 0,
            rest: Some((answer.store, IdMap::default())),
        }
    }

    /// The rows absorbed so far.
    pub(super) fn ext(&self) -> &[Vec<BoundValue>] {
        &self.rows[..self.absorbed]
    }

    /// The absorbed rows, taken whole.
    pub(super) fn into_ext(mut self) -> Vec<Vec<BoundValue>> {
        self.rows.truncate(self.absorbed);
        self.rows
    }

    /// Absorb up to `n` more answer rows; `false` when every row was
    /// already absorbed.
    pub(super) fn extract_more(
        &mut self,
        memory: &mut ObjectStore,
        counters: &mut NodeMetrics,
        n: usize,
    ) -> bool {
        let Some((store, map)) = &mut self.rest else {
            return false;
        };
        let end = self.absorbed.saturating_add(n.max(1)).min(self.rows.len());
        counters.bindings_produced += end - self.absorbed;
        for row in &mut self.rows[self.absorbed..end] {
            *row = absorb(store, std::mem::take(row), memory, map);
        }
        self.absorbed = end;
        if end == self.rows.len() {
            self.rest = None;
        }
        true
    }
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
    let mut map = IdMap::default();
    rows.into_iter()
        .map(|row| absorb(store, row, memory, &mut map))
        .collect()
}

/// One answer row into chain memory: the objects an object or set
/// variable binds are deep-copied out of `store` through `map`, the
/// answer's persistent old-id → new-id map, and the row now names the
/// copies; atoms stay as they are. A set only this row holds is rewritten
/// in place; one shared with another row, as a cache entry's are, is
/// copied first.
fn absorb(
    store: &ObjectStore,
    mut row: Vec<BoundValue>,
    memory: &mut ObjectStore,
    map: &mut IdMap,
) -> Vec<BoundValue> {
    for value in &mut row {
        let ids = match value {
            BoundValue::Atom(_) => continue,
            BoundValue::Obj(id) => std::slice::from_mut(id),
            BoundValue::ObjSet(ids) => Arc::make_mut(ids),
        };
        for id in ids {
            *id = copy::deep_copy_into(store, *id, memory, map);
        }
    }
    row
}
