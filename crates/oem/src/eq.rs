//! Structural (oid-insensitive) equality and fingerprints.
//!
//! MSL semantics call for duplicate elimination over OEM objects (§2,
//! footnote 3 and footnote 9 of the paper — the original implementation
//! lacked it; ours provides it). Two objects are *structurally equal* when
//! they have the same label and equal values, where set values are compared
//! as multisets of structurally-equal subobjects. Object-ids are ignored:
//! they carry identity, not information.
//!
//! Equality is defined coinductively so that shared and cyclic structures
//! compare correctly (bisimulation): a pair of objects currently being
//! compared is assumed equal if revisited.
//!
//! [`fingerprint`] computes an order-independent hash consistent with
//! structural equality (equal structures always produce equal fingerprints;
//! collisions are resolved by [`struct_eq`]). It uses a bounded number of
//! color-refinement rounds, so it is also well-defined on cyclic data. The
//! rounds run over the reachable set laid out in arrays: objects numbered
//! densely, children as slices of one vector, two color vectors swapped
//! between rounds. [`fingerprint`] and [`struct_eq_cross`] compare colors
//! of separate refinements, so they always run every round.
//!
//! [`dedup_structural`] refines only what base colors (label and atomic
//! value or child count) leave open. Roots whose base color no other root
//! shares are kept as they are; if every root that shares one is an atom,
//! label and value decide; otherwise one refinement of all the roots stops
//! at the first round that tells the distinct roots apart. Each exit is
//! exact: equal structures share a color after every round, and every
//! dropped root is confirmed equal to a kept one.

use crate::store::{FxMap, FxSet, ObjId, ObjectStore};
use crate::value::Value;

const ROUNDS: usize = 8;

#[inline]
fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn atom_hash(v: &Value) -> u64 {
    match v {
        Value::Str(s) => mix(0x51 ^ (s.index() as u64) << 1),
        Value::Int(i) => mix(0x17 ^ (*i as u64)),
        Value::RealBits(b) => mix(0x29 ^ *b),
        Value::Bool(b) => mix(0x33 ^ (*b as u64)),
        Value::Set(_) => unreachable!("atom_hash on set"),
    }
}

/// The color of an object before refinement: its label and atomic value,
/// or its label and number of children. Structurally equal objects always
/// share it.
fn base_color(store: &ObjectStore, id: ObjId) -> u64 {
    let obj = store.get(id);
    let label_h = mix((obj.label.index() as u64) ^ 0xABCD);
    match &obj.value {
        Value::Set(children) => mix(label_h ^ 0x5E7 ^ mix(children.len() as u64)),
        atomic => mix(label_h ^ atom_hash(atomic)),
    }
}

/// Fingerprints of every object reachable from some roots.
struct Fingerprints {
    /// Object → its position in `colors`; the roots come first, in order.
    index: FxMap<ObjId, u32>,
    colors: Vec<u64>,
}

impl Fingerprints {
    fn of(&self, id: ObjId) -> u64 {
        self.colors[self.index[&id] as usize]
    }
}

/// Color refinement over the objects reachable from `roots`: `ROUNDS`
/// rounds, or with `early` only until the distinct roots' colors are
/// pairwise distinct.
fn refine(store: &ObjectStore, roots: &[ObjId], early: bool) -> Fingerprints {
    // Number the reachable set breadth-first; the children of node `i` are
    // `kids[offsets[i]..offsets[i + 1]]`, as node numbers.
    let mut index: FxMap<ObjId, u32> = FxMap::default();
    let mut nodes: Vec<ObjId> = Vec::new();
    let mut number = |id: ObjId, nodes: &mut Vec<ObjId>| {
        *index.entry(id).or_insert_with(|| {
            nodes.push(id);
            nodes.len() as u32 - 1
        })
    };
    for &r in roots {
        number(r, &mut nodes);
    }
    let distinct_roots = nodes.len();
    let mut offsets: Vec<usize> = vec![0];
    let mut kids: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < nodes.len() {
        for &c in store.children(nodes[i]) {
            kids.push(number(c, &mut nodes));
        }
        offsets.push(kids.len());
        i += 1;
    }

    let mut colors: Vec<u64> = nodes.iter().map(|&id| base_color(store, id)).collect();
    let mut next = vec![0; colors.len()];
    let mut sorted = Vec::new();
    for _ in 0..ROUNDS {
        for (n, slot) in next.iter_mut().enumerate() {
            // Commutative combine (wrapping add of mixed colors) keeps the
            // fingerprint order-independent over set members.
            let acc = kids[offsets[n]..offsets[n + 1]]
                .iter()
                .fold(0u64, |acc, &k| acc.wrapping_add(mix(colors[k as usize])));
            *slot = mix(colors[n] ^ acc.rotate_left(17));
        }
        std::mem::swap(&mut colors, &mut next);
        if early {
            sorted.clear();
            sorted.extend_from_slice(&colors[..distinct_roots]);
            sorted.sort_unstable();
            if sorted.windows(2).all(|w| w[0] != w[1]) {
                break;
            }
        }
    }
    Fingerprints { index, colors }
}

/// The fingerprint of a single structure.
pub fn fingerprint(store: &ObjectStore, root: ObjId) -> u64 {
    refine(store, &[root], false).colors[0]
}

/// Structural equality within one store.
pub fn struct_eq(store: &ObjectStore, a: ObjId, b: ObjId) -> bool {
    struct_eq_cross(store, a, store, b)
}

/// Structural equality across two stores.
pub fn struct_eq_cross(sa: &ObjectStore, a: ObjId, sb: &ObjectStore, b: ObjId) -> bool {
    let fpa = refine(sa, &[a], false);
    let fpb = refine(sb, &[b], false);
    eq_rec(sa, a, sb, b, &fpa, &fpb, &mut FxSet::default())
}

#[allow(clippy::too_many_arguments)]
fn eq_rec(
    sa: &ObjectStore,
    a: ObjId,
    sb: &ObjectStore,
    b: ObjId,
    fpa: &Fingerprints,
    fpb: &Fingerprints,
    assumed: &mut FxSet<(ObjId, ObjId)>,
) -> bool {
    if fpa.of(a) != fpb.of(b) {
        return false;
    }
    if !assumed.insert((a, b)) {
        // Already comparing this pair along the current path: coinductive
        // success (bisimulation).
        return true;
    }
    let oa = sa.get(a);
    let ob = sb.get(b);
    let result = oa.label == ob.label
        && match (&oa.value, &ob.value) {
            (Value::Set(ca), Value::Set(cb)) => {
                ca.len() == cb.len() && multiset_match(sa, ca, sb, cb, fpa, fpb, assumed)
            }
            (va, vb) => va == vb,
        };
    if !result {
        assumed.remove(&(a, b));
    }
    result
}

/// Multiset matching of children: bucket by fingerprint, then find a perfect
/// matching within each bucket by backtracking (buckets are almost always
/// singletons; ties only arise among structurally equal — or hash-colliding
/// — siblings).
#[allow(clippy::too_many_arguments)]
fn multiset_match(
    sa: &ObjectStore,
    ca: &[ObjId],
    sb: &ObjectStore,
    cb: &[ObjId],
    fpa: &Fingerprints,
    fpb: &Fingerprints,
    assumed: &mut FxSet<(ObjId, ObjId)>,
) -> bool {
    let mut buckets_a: FxMap<u64, Vec<ObjId>> = FxMap::default();
    for &x in ca {
        buckets_a.entry(fpa.of(x)).or_default().push(x);
    }
    let mut buckets_b: FxMap<u64, Vec<ObjId>> = FxMap::default();
    for &y in cb {
        buckets_b.entry(fpb.of(y)).or_default().push(y);
    }
    if buckets_a.len() != buckets_b.len() {
        return false;
    }
    for (fp, xs) in &buckets_a {
        let Some(ys) = buckets_b.get(fp) else {
            return false;
        };
        if xs.len() != ys.len() {
            return false;
        }
        if !match_bucket(sa, xs, sb, ys, fpa, fpb, assumed) {
            return false;
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn match_bucket(
    sa: &ObjectStore,
    xs: &[ObjId],
    sb: &ObjectStore,
    ys: &[ObjId],
    fpa: &Fingerprints,
    fpb: &Fingerprints,
    assumed: &mut FxSet<(ObjId, ObjId)>,
) -> bool {
    fn go(
        sa: &ObjectStore,
        xs: &[ObjId],
        sb: &ObjectStore,
        remaining: &mut Vec<ObjId>,
        idx: usize,
        fpa: &Fingerprints,
        fpb: &Fingerprints,
        assumed: &mut FxSet<(ObjId, ObjId)>,
    ) -> bool {
        if idx == xs.len() {
            return true;
        }
        for j in 0..remaining.len() {
            let y = remaining[j];
            if eq_rec(sa, xs[idx], sb, y, fpa, fpb, assumed) {
                remaining.swap_remove(j);
                if go(sa, xs, sb, remaining, idx + 1, fpa, fpb, assumed) {
                    return true;
                }
                remaining.push(y);
            }
        }
        false
    }
    let mut remaining = ys.to_vec();
    go(sa, xs, sb, &mut remaining, 0, fpa, fpb, assumed)
}

/// Remove structural duplicates from a list of roots, keeping the first
/// occurrence of each equivalence class. This is the duplicate elimination
/// of MSL's semantics.
pub fn dedup_structural(store: &ObjectStore, roots: &[ObjId]) -> Vec<ObjId> {
    // Structurally equal objects share a base color, so a list whose base
    // colors differ pairwise holds no duplicate. Most of the constructor's
    // per-set calls end here.
    let mut by_color: Vec<(u64, usize)> = roots
        .iter()
        .enumerate()
        .map(|(i, &r)| (base_color(store, r), i))
        .collect();
    by_color.sort_unstable();
    let shared = || by_color.chunk_by(|a, b| a.0 == b.0).filter(|g| g.len() > 1);
    if shared().next().is_none() {
        return roots.to_vec();
    }
    // Atoms are equal exactly when label and value are, so if only atoms
    // share base colors, no refinement is needed. Otherwise every
    // comparison reads one refinement, so all compare colors of one round;
    // equal structures share a color after every round, so stopping once
    // the roots separate loses no duplicate.
    let atomic = |&(_, i): &(u64, usize)| store.get(roots[i]).value.is_atomic();
    let fps = if shared().flatten().all(atomic) {
        None
    } else {
        let fps = refine(store, roots, true);
        for (color, i) in &mut by_color {
            *color = fps.of(roots[*i]);
        }
        by_color.sort_unstable();
        Some(fps)
    };
    let same = |a: ObjId, b: ObjId| match &fps {
        Some(fps) => eq_rec(store, a, store, b, fps, fps, &mut FxSet::default()),
        None => {
            let (x, y) = (store.get(a), store.get(b));
            x.label == y.label && x.value == y.value
        }
    };
    // Each color's group is in root order: a root goes when an earlier
    // kept one equals it.
    let mut keep = vec![true; roots.len()];
    for group in by_color.chunk_by(|a, b| a.0 == b.0) {
        for (k, &(_, i)) in group.iter().enumerate() {
            keep[i] = !group[..k]
                .iter()
                .any(|&(_, j)| keep[j] && same(roots[j], roots[i]));
        }
    }
    roots
        .iter()
        .zip(keep)
        .filter_map(|(&r, k)| k.then_some(r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ObjectBuilder;
    use crate::sym;

    fn person(store: &mut ObjectStore, name: &str, dept: &str) -> ObjId {
        ObjectBuilder::set("person")
            .atom("name", name)
            .atom("dept", dept)
            .build(store)
    }

    #[test]
    fn equal_structures_different_oids() {
        let mut s = ObjectStore::new();
        let a = person(&mut s, "Joe", "CS");
        let b = person(&mut s, "Joe", "CS");
        assert_ne!(s.oid(a), s.oid(b));
        assert!(struct_eq(&s, a, b));
        assert_eq!(fingerprint(&s, a), fingerprint(&s, b));
    }

    #[test]
    fn order_of_subobjects_is_irrelevant() {
        let mut s = ObjectStore::new();
        let a = ObjectBuilder::set("person")
            .atom("name", "Joe")
            .atom("dept", "CS")
            .build(&mut s);
        let b = ObjectBuilder::set("person")
            .atom("dept", "CS")
            .atom("name", "Joe")
            .build(&mut s);
        assert!(struct_eq(&s, a, b));
        assert_eq!(fingerprint(&s, a), fingerprint(&s, b));
    }

    #[test]
    fn different_values_unequal() {
        let mut s = ObjectStore::new();
        let a = person(&mut s, "Joe", "CS");
        let b = person(&mut s, "Joe", "EE");
        assert!(!struct_eq(&s, a, b));
    }

    #[test]
    fn different_labels_unequal() {
        let mut s = ObjectStore::new();
        let a = s.atom("name", "Joe");
        let b = s.atom("fullname", "Joe");
        assert!(!struct_eq(&s, a, b));
    }

    #[test]
    fn multiset_semantics() {
        let mut s = ObjectStore::new();
        // {x, x, y} vs {x, y, y} — same length, different multisets.
        let a = ObjectBuilder::set("s")
            .atom("v", 1i64)
            .atom("v", 1i64)
            .atom("v", 2i64)
            .build(&mut s);
        let b = ObjectBuilder::set("s")
            .atom("v", 1i64)
            .atom("v", 2i64)
            .atom("v", 2i64)
            .build(&mut s);
        assert!(!struct_eq(&s, a, b));
    }

    #[test]
    fn nested_equality() {
        let mut s = ObjectStore::new();
        let mk = |s: &mut ObjectStore| {
            ObjectBuilder::set("person")
                .atom("name", "Joe")
                .child(ObjectBuilder::set("affil").atom("group", "db"))
                .build(s)
        };
        let a = mk(&mut s);
        let b = mk(&mut s);
        assert!(struct_eq(&s, a, b));
    }

    #[test]
    fn cross_store_equality() {
        let mut s1 = ObjectStore::new();
        let mut s2 = ObjectStore::with_oid_prefix("zz");
        let a = person(&mut s1, "Joe", "CS");
        let b = person(&mut s2, "Joe", "CS");
        assert!(struct_eq_cross(&s1, a, &s2, b));
    }

    #[test]
    fn cyclic_bisimulation() {
        // Two 1-cycles are bisimilar; a 1-cycle and a 2-cycle of identical
        // nodes are also bisimilar under coinductive equality.
        let mut s = ObjectStore::new();
        let a = s
            .insert(sym("&a"), sym("node"), crate::Value::Set(vec![]))
            .unwrap();
        s.add_child(a, a).unwrap();
        let b = s
            .insert(sym("&b"), sym("node"), crate::Value::Set(vec![]))
            .unwrap();
        s.add_child(b, b).unwrap();
        assert!(struct_eq(&s, a, b));

        let c = s
            .insert(sym("&c"), sym("node"), crate::Value::Set(vec![]))
            .unwrap();
        let d = s
            .insert(sym("&d"), sym("node"), crate::Value::Set(vec![c]))
            .unwrap();
        s.add_child(c, d).unwrap();
        assert!(struct_eq(&s, a, c));
    }

    #[test]
    fn dedup_keeps_first_of_each_class() {
        let mut s = ObjectStore::new();
        let a = person(&mut s, "Joe", "CS");
        let b = person(&mut s, "Joe", "CS");
        let c = person(&mut s, "Nick", "CS");
        let out = dedup_structural(&s, &[a, b, c]);
        assert_eq!(out, vec![a, c]);
    }

    #[test]
    fn dedup_empty_and_singleton() {
        let mut s = ObjectStore::new();
        assert!(dedup_structural(&s, &[]).is_empty());
        let a = person(&mut s, "Joe", "CS");
        assert_eq!(dedup_structural(&s, &[a]), vec![a]);
    }

    #[test]
    fn shared_vs_copied_subobject_equal() {
        // A set containing the same subobject twice (shared) equals a set
        // containing two structurally identical copies.
        let mut s = ObjectStore::new();
        let shared = s.atom("v", 7i64);
        let a = s.set("s", vec![shared, shared]);
        let x1 = s.atom("v", 7i64);
        let x2 = s.atom("v", 7i64);
        let b = s.set("s", vec![x1, x2]);
        assert!(struct_eq(&s, a, b));
    }
}
