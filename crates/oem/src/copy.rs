//! Deep copies between object stores.
//!
//! The datamerge engine "places results in the mediator's memory" (§3.4):
//! objects returned by a wrapper live in the wrapper's result store and are
//! copied into the mediator's store before further processing. Copies
//! preserve sharing and cycles (the old-id → new-id map doubles as the
//! visited set) and generate fresh oids in the destination, since oids from
//! different sources may collide.

use crate::store::{FxHasher, ObjId, ObjectStore};
use crate::value::Value;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// An old-id → new-id map, hashed with one multiply per id: ids are
/// integers local to the process, and no client chooses them.
pub type IdMap = HashMap<ObjId, ObjId, BuildHasherDefault<FxHasher>>;

/// Copy the structures rooted at `roots` from `src` into `dst`.
///
/// Returns the ids of the copied roots in `dst`. Oids are regenerated with
/// `dst`'s generator; sharing is preserved, within a structure and across
/// the roots.
pub fn deep_copy_all(src: &ObjectStore, roots: &[ObjId], dst: &mut ObjectStore) -> Vec<ObjId> {
    let mut map = IdMap::default();
    roots
        .iter()
        .map(|&r| copy_rec(src, r, dst, &mut map))
        .collect()
}

/// Copy the structure rooted at `root` from `src` into `dst`, reusing (and
/// extending) a caller-held old-id → new-id map: the id of its copy in
/// `dst`.
///
/// This is the incremental form of [`deep_copy_all`]: a consumer can copy
/// a result store root by root, passing the same `map` each time, and
/// objects shared *across* roots are still copied exactly once.
pub fn deep_copy_into(
    src: &ObjectStore,
    root: ObjId,
    dst: &mut ObjectStore,
    map: &mut IdMap,
) -> ObjId {
    copy_rec(src, root, dst, map)
}

/// Copy every top-level structure of `src` into `dst`, marking the copies
/// top-level in `dst`.
pub fn copy_top_level(src: &ObjectStore, dst: &mut ObjectStore) -> Vec<ObjId> {
    let roots = deep_copy_all(src, src.top_level(), dst);
    for &r in &roots {
        dst.add_top(r);
    }
    roots
}

fn copy_rec(src: &ObjectStore, id: ObjId, dst: &mut ObjectStore, map: &mut IdMap) -> ObjId {
    if let Some(&done) = map.get(&id) {
        return done;
    }
    let obj = src.get(id);
    match obj.value.as_set() {
        None => {
            let new = dst.insert_auto(obj.label, obj.value.clone());
            map.insert(id, new);
            new
        }
        Some(children) => {
            // Insert a placeholder first so that cycles terminate, then fill
            // in children.
            let new = dst.insert_auto(obj.label, Value::Set(Vec::new()));
            map.insert(id, new);
            let kids: Vec<ObjId> = children
                .iter()
                .map(|&c| copy_rec(src, c, dst, map))
                .collect();
            *dst.get_mut(new).value.as_set_mut().unwrap() = kids;
            new
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ObjectBuilder;
    use crate::eq::struct_eq_cross;
    use crate::sym;

    #[test]
    fn copy_preserves_structure() {
        let mut src = ObjectStore::new();
        let root = ObjectBuilder::set("person")
            .atom("name", "Joe Chung")
            .atom("dept", "CS")
            .build_top(&mut src);

        let mut dst = ObjectStore::with_oid_prefix("m");
        let copied = deep_copy_all(&src, &[root], &mut dst)[0];
        assert!(struct_eq_cross(&src, root, &dst, copied));
        assert_eq!(dst.oid(copied), sym("m1"));
    }

    #[test]
    fn copy_preserves_sharing() {
        let mut src = ObjectStore::new();
        let shared = src.atom("addr", "Gates");
        let a = src.set("person", vec![shared]);
        let b = src.set("person", vec![shared]);
        src.add_top(a);
        src.add_top(b);

        let mut dst = ObjectStore::new();
        let roots = copy_top_level(&src, &mut dst);
        assert_eq!(roots.len(), 2);
        assert_eq!(dst.children(roots[0])[0], dst.children(roots[1])[0]);
        // 2 persons + 1 shared address = 3 objects, not 4.
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.top_level(), &roots[..]);
    }

    #[test]
    fn copy_handles_cycles() {
        let mut src = ObjectStore::new();
        let a = src
            .insert(sym("&a"), sym("node"), crate::Value::Set(vec![]))
            .unwrap();
        let b = src
            .insert(sym("&b"), sym("node"), crate::Value::Set(vec![a]))
            .unwrap();
        src.add_child(a, b).unwrap();

        let mut dst = ObjectStore::new();
        let ca = deep_copy_all(&src, &[a], &mut dst)[0];
        let cb = dst.children(ca)[0];
        assert_eq!(dst.children(cb), &[ca]);
        dst.validate().unwrap();
    }

    #[test]
    fn copy_regenerates_colliding_oids() {
        let mut src = ObjectStore::new();
        src.insert(sym("&same"), sym("x"), crate::Value::Int(1))
            .unwrap();
        let mut dst = ObjectStore::new();
        dst.insert(sym("&same"), sym("y"), crate::Value::Int(2))
            .unwrap();
        let root = src.by_oid(sym("&same")).unwrap();
        let copied = deep_copy_all(&src, &[root], &mut dst)[0];
        assert_ne!(dst.oid(copied), sym("&same"));
        dst.validate().unwrap();
    }
}
