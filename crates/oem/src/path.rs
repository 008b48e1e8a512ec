//! Traversal over OEM graphs.
//!
//! Supports the paper's **wildcard** feature (§2, "Other Features of the
//! Mediator Specification Language"): searching for objects "at any level in
//! the object structure of the source, without need to specify the entire
//! path to the desired object". All traversals are cycle-safe.

use crate::store::{ObjId, ObjectStore};
use crate::symbol::Symbol;
use std::collections::HashSet;

/// Breadth-first iterator over an object and all objects reachable from it.
/// Each object is yielded at most once even in the presence of sharing or
/// cycles.
pub struct Descendants<'a> {
    store: &'a ObjectStore,
    queue: std::collections::VecDeque<ObjId>,
    seen: HashSet<ObjId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = ObjId;

    fn next(&mut self) -> Option<ObjId> {
        let id = self.queue.pop_front()?;
        for &c in self.store.children(id) {
            if self.seen.insert(c) {
                self.queue.push_back(c);
            }
        }
        Some(id)
    }
}

/// All objects reachable from `root` (including `root` itself), BFS order.
pub fn descendants(store: &ObjectStore, root: ObjId) -> Descendants<'_> {
    let mut seen = HashSet::new();
    seen.insert(root);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(root);
    Descendants { store, queue, seen }
}

/// All objects reachable from any top-level object, BFS order, each once.
pub fn reachable_from_top(store: &ObjectStore) -> Vec<ObjId> {
    let mut seen = HashSet::new();
    let mut queue: std::collections::VecDeque<ObjId> = std::collections::VecDeque::new();
    for &t in store.top_level() {
        if seen.insert(t) {
            queue.push_back(t);
        }
    }
    let mut out = Vec::new();
    while let Some(id) = queue.pop_front() {
        out.push(id);
        for &c in store.children(id) {
            if seen.insert(c) {
                queue.push_back(c);
            }
        }
    }
    out
}

/// Wildcard search: every object with label `label` reachable from `root`
/// at **any** depth (including `root`).
pub fn find_by_label(store: &ObjectStore, root: ObjId, label: Symbol) -> Vec<ObjId> {
    descendants(store, root)
        .filter(|&id| store.get(id).label == label)
        .collect()
}

/// Wildcard search from the top-level objects of the whole store.
pub fn find_by_label_anywhere(store: &ObjectStore, label: Symbol) -> Vec<ObjId> {
    reachable_from_top(store)
        .into_iter()
        .filter(|&id| store.get(id).label == label)
        .collect()
}

/// Follow a label path from `root`: `path(["person", "name"])` returns every
/// `name` child of every `person` child of `root`'s children... The empty
/// path returns `root` itself.
pub fn follow_path(store: &ObjectStore, root: ObjId, path: &[Symbol]) -> Vec<ObjId> {
    let mut frontier = vec![root];
    for &step in path {
        let mut next = Vec::new();
        for id in frontier {
            for &c in store.children(id) {
                if store.get(c).label == step {
                    next.push(c);
                }
            }
        }
        frontier = next;
    }
    frontier
}

/// Depth of the object graph under `root` (1 for an atomic root). Cycles
/// count each object once along any path.
pub fn depth(store: &ObjectStore, root: ObjId) -> usize {
    fn go(store: &ObjectStore, id: ObjId, on_path: &mut HashSet<ObjId>) -> usize {
        if !on_path.insert(id) {
            return 0; // back-edge: do not recurse
        }
        let d = store
            .children(id)
            .iter()
            .map(|&c| go(store, c, on_path))
            .max()
            .unwrap_or(0);
        on_path.remove(&id);
        d + 1
    }
    go(store, root, &mut HashSet::new())
}

/// Does any path from `root` return to an already-visited object?
pub fn has_cycle(store: &ObjectStore, root: ObjId) -> bool {
    fn go(
        store: &ObjectStore,
        id: ObjId,
        on_path: &mut HashSet<ObjId>,
        done: &mut HashSet<ObjId>,
    ) -> bool {
        if done.contains(&id) {
            return false;
        }
        if !on_path.insert(id) {
            return true;
        }
        for &c in store.children(id) {
            if go(store, c, on_path, done) {
                return true;
            }
        }
        on_path.remove(&id);
        done.insert(id);
        false
    }
    go(store, root, &mut HashSet::new(), &mut HashSet::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ObjectBuilder;
    use crate::sym;
    use crate::value::Value;

    fn sample() -> (ObjectStore, ObjId) {
        let mut s = ObjectStore::new();
        let root = ObjectBuilder::set("person")
            .atom("name", "Joe")
            .child(
                ObjectBuilder::set("affiliations")
                    .child(ObjectBuilder::set("group").atom("name", "db"))
                    .child(ObjectBuilder::set("group").atom("name", "ai")),
            )
            .build_top(&mut s);
        (s, root)
    }

    #[test]
    fn descendants_visits_all_once() {
        let (s, root) = sample();
        let all: Vec<_> = descendants(&s, root).collect();
        assert_eq!(all.len(), s.len());
        assert_eq!(all[0], root);
    }

    #[test]
    fn wildcard_find_by_label() {
        let (s, root) = sample();
        // "name" objects appear at depth 2 and depth 4.
        let names = find_by_label(&s, root, sym("name"));
        assert_eq!(names.len(), 3);
        let groups = find_by_label(&s, root, sym("group"));
        assert_eq!(groups.len(), 2);
        assert!(find_by_label(&s, root, sym("missing")).is_empty());
    }

    #[test]
    fn follow_path_steps() {
        let (s, root) = sample();
        let names = follow_path(&s, root, &[sym("affiliations"), sym("group"), sym("name")]);
        assert_eq!(names.len(), 2);
        assert_eq!(follow_path(&s, root, &[]), vec![root]);
        assert!(follow_path(&s, root, &[sym("nope")]).is_empty());
    }

    #[test]
    fn depth_and_cycles() {
        let (s, root) = sample();
        assert_eq!(depth(&s, root), 4);
        assert!(!has_cycle(&s, root));

        let mut c = ObjectStore::new();
        let a = c
            .insert(sym("&a"), sym("node"), Value::Set(vec![]))
            .unwrap();
        let b = c
            .insert(sym("&b"), sym("node"), Value::Set(vec![a]))
            .unwrap();
        c.add_child(a, b).unwrap();
        assert!(has_cycle(&c, a));
        // Cycle-safe: must terminate.
        assert_eq!(descendants(&c, a).count(), 2);
        assert!(depth(&c, a) >= 2);
    }

    #[test]
    fn reachable_from_top_ignores_garbage() {
        let mut s = ObjectStore::new();
        let kept = s.atom("name", "x");
        let top = s.set("person", vec![kept]);
        s.add_top(top);
        let _orphan = s.atom("junk", 1i64);
        assert_eq!(reachable_from_top(&s).len(), 2);
    }

    #[test]
    fn shared_subobject_visited_once() {
        let mut s = ObjectStore::new();
        let shared = s.atom("addr", "Gates");
        let p1 = s.set("person", vec![shared]);
        let p2 = s.set("person", vec![shared]);
        s.add_top(p1);
        s.add_top(p2);
        assert_eq!(reachable_from_top(&s).len(), 3);
    }
}

/// Garbage-collect a store: rebuild it keeping only objects reachable from
/// the top level. Returns the new store (ids are re-issued; oids are
/// preserved). The mediator uses this to compact its working memory after
/// large intermediate results.
pub fn gc(store: &ObjectStore) -> ObjectStore {
    let mut out = ObjectStore::new();
    let mut map: std::collections::HashMap<ObjId, ObjId> = std::collections::HashMap::new();
    // First pass: create all reachable objects (sets empty).
    let reachable = reachable_from_top(store);
    for &id in &reachable {
        let obj = store.get(id);
        let value = match &obj.value {
            crate::value::Value::Set(_) => crate::value::Value::Set(Vec::new()),
            atomic => atomic.clone(),
        };
        let new = out
            .insert(store.oid(id), obj.label, value)
            .expect("oids unique within the source store");
        map.insert(id, new);
    }
    // Second pass: wire children.
    for &id in &reachable {
        if let Some(children) = store.get(id).value.as_set() {
            let kids: Vec<ObjId> = children.iter().map(|c| map[c]).collect();
            *out.get_mut(map[&id]).value.as_set_mut().unwrap() = kids;
        }
    }
    for &t in store.top_level() {
        out.add_top(map[&t]);
    }
    out
}

#[cfg(test)]
mod gc_tests {
    use super::*;
    use crate::builder::ObjectBuilder;

    #[test]
    fn gc_drops_garbage_keeps_structure() {
        let mut s = ObjectStore::new();
        let keep = ObjectBuilder::set("person")
            .atom("name", "A")
            .build_top(&mut s);
        let _garbage1 = s.atom("junk", 1i64);
        let _garbage2 = s.set("orphan", vec![]);
        assert_eq!(s.len(), 4);
        let compacted = gc(&s);
        assert_eq!(compacted.len(), 2);
        assert_eq!(compacted.top_level().len(), 1);
        assert!(crate::eq::struct_eq_cross(
            &s,
            keep,
            &compacted,
            compacted.top_level()[0]
        ));
        compacted.validate().unwrap();
    }

    #[test]
    fn gc_preserves_sharing_and_cycles() {
        let mut s = ObjectStore::new();
        let a = s
            .insert(
                crate::sym("a"),
                crate::sym("node"),
                crate::Value::Set(vec![]),
            )
            .unwrap();
        let b = s
            .insert(
                crate::sym("b"),
                crate::sym("node"),
                crate::Value::Set(vec![a]),
            )
            .unwrap();
        s.add_child(a, b).unwrap();
        s.add_top(a);
        let g = gc(&s);
        g.validate().unwrap();
        let ga = g.by_oid(crate::sym("a")).unwrap();
        let gb = g.by_oid(crate::sym("b")).unwrap();
        assert_eq!(g.children(ga), &[gb]);
        assert_eq!(g.children(gb), &[ga]);
    }
}
