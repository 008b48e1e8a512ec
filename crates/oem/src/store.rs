//! The object arena.
//!
//! An [`ObjectStore`] owns a collection of OEM objects. Objects refer to
//! their subobjects through [`ObjId`] indices into the arena, which makes
//! arbitrary graphs — shared subobjects, even cycles — representable without
//! reference counting.
//!
//! Each store also tracks its **top-level objects**: the leftmost-indented
//! objects of the paper's figures, which are the default entry points for
//! queries ("for performance reasons clients query object structures
//! starting, by default, from the top-level objects", §1.1).
//!
//! Object-ids come in two kinds. An explicit oid (`&p1` in a source file,
//! a semantic oid) is an interned [`Symbol`]. The oids the store makes up
//! for the objects the mediator creates — "for the object-ids, any
//! arbitrary unique strings can be used" (§2) — are numbers: the `n`-th
//! prints as the store's prefix followed by `n` (`x3`, `cp12`), and is
//! interned only if someone asks for it as a [`Symbol`] ([`ObjectStore::oid`]).

use crate::error::{OemError, Result};
use crate::symbol::Symbol;
use crate::value::{OemType, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Index of an object within one [`ObjectStore`].
///
/// `ObjId`s are only meaningful relative to the store that issued them;
/// [`crate::copy::deep_copy_all`] translates between stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ObjId(u32);

#[cfg(feature = "serde")]
impl serde::Serialize for ObjId {
    fn to_value(&self) -> serde::Value {
        serde::Value::Int(self.0 as i64)
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for ObjId {
    fn from_value(v: &serde::Value) -> std::result::Result<ObjId, serde::Error> {
        let raw: u32 = serde::Deserialize::from_value(v)?;
        Ok(ObjId(raw))
    }
}

impl ObjId {
    /// Construct from a raw index. Intended for tests and serialization.
    pub fn from_raw(raw: u32) -> ObjId {
        ObjId(raw)
    }

    /// The raw index.
    pub fn raw(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The Fx hash (rustc's): one rotate, xor and multiply per word. Keys here
/// are object ids and fingerprints, and the cache's query shapes hash their
/// tokens with it once each; none is a key an adversary floods a map with,
/// so SipHash's collision resistance buys nothing.
#[derive(Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    // An enum's discriminant, as `derive(Hash)` writes it: one word.
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`FxHasher`].
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` hashed by [`FxHasher`].
pub(crate) type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// An object's id as its store holds it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Oid {
    /// An explicit oid, e.g. `p1` of `<&p1, person, set, {...}>`.
    Named(Symbol),
    /// The `n`-th oid the store generated; prints as the store's prefix
    /// followed by `n`. Only [`ObjectStore::oid`] and
    /// [`ObjectStore::oid_display`] can spell it.
    Gen(u64),
}

/// One OEM object: `<oid, label, type, value>`. The type is implied by the
/// value and available via [`OemObject::oem_type`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OemObject {
    /// The object-id, e.g. `&p1`. Unique within a store; read it as text
    /// through [`ObjectStore::oid`] or [`ObjectStore::oid_display`].
    pub oid: Oid,
    /// The descriptive label, e.g. `person`.
    pub label: Symbol,
    /// The value: atomic, or a set of subobject ids.
    pub value: Value,
}

impl OemObject {
    /// The OEM type of this object.
    pub fn oem_type(&self) -> OemType {
        self.value.oem_type()
    }
}

/// An object's oid as text, written without interning it
/// ([`ObjectStore::oid_display`]).
pub struct OidDisplay<'a> {
    prefix: &'a str,
    oid: Oid,
}

impl OidDisplay<'_> {
    /// Write the oid to `out`: a named one as its symbol, a generated one
    /// as the store's prefix followed by its number.
    pub(crate) fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self.oid {
            Oid::Named(s) => s.with_str(|s| out.write_str(s)),
            Oid::Gen(n) => {
                out.write_str(self.prefix)?;
                crate::value::write_decimal(out, n)
            }
        }
    }
}

impl fmt::Display for OidDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// An arena of OEM objects plus the list of top-level entry points.
///
/// ```
/// use oem::{ObjectStore, Value, sym};
/// let mut store = ObjectStore::new();
/// let name = store.atom("name", "Joe Chung");
/// let person = store.set("person", vec![name]);
/// store.add_top(person);
/// assert_eq!(store.top_level(), &[person]);
/// assert_eq!(store.get(name).value, Value::str("Joe Chung"));
/// assert_eq!(store.children(person), &[name]);
/// assert_eq!(store.oid(person), sym("x2"));
/// ```
#[derive(Default, Clone)]
pub struct ObjectStore {
    slots: Vec<OemObject>,
    top: Vec<ObjId>,
    /// `is_top[i]`: is object `i` in `top`? Grown by `add_top` on demand.
    is_top: Vec<bool>,
    /// Explicit oids only; generated ones are found through `gen_ids`.
    by_oid: HashMap<Symbol, ObjId>,
    /// The objects with generated oids, in generation order — so in
    /// ascending order of their number.
    gen_ids: Vec<ObjId>,
    /// Numbers not yet generated whose printed name an explicit oid
    /// already took; generation skips them.
    reserved: BTreeSet<u64>,
    /// The last number generated (`&x1`, `&x2`, ... by default).
    gen_counter: u64,
    /// Prefix used for generated oids; the paper's mediator memory uses
    /// `x`-prefixed addresses (Fig 3.6), wrappers use source-specific ones.
    gen_prefix: String,
}

impl ObjectStore {
    /// An empty store with the default `&x` oid generator.
    pub fn new() -> ObjectStore {
        ObjectStore::with_oid_prefix("x")
    }

    /// An empty store whose generated oids use the given prefix, e.g.
    /// `with_oid_prefix("cp")` generates `&cp1`, `&cp2`, ...
    pub fn with_oid_prefix(prefix: &str) -> ObjectStore {
        ObjectStore {
            gen_prefix: prefix.to_string(),
            ..ObjectStore::default()
        }
    }

    /// Number of objects in the arena.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The next number to generate: one past the last, skipping numbers
    /// whose name an explicit oid took.
    fn next_gen(&mut self) -> u64 {
        self.gen_counter += 1;
        while self.reserved.remove(&self.gen_counter) {
            self.gen_counter += 1;
        }
        self.gen_counter
    }

    /// `n` if `name` is how this store prints its `n`-th generated oid.
    fn gen_number(&self, name: &str) -> Option<u64> {
        let digits = name.strip_prefix(self.gen_prefix.as_str())?;
        if digits.is_empty()
            || digits.starts_with('0')
            || !digits.bytes().all(|b| b.is_ascii_digit())
        {
            return None;
        }
        digits.parse().ok()
    }

    /// The object whose generated oid is number `n`.
    fn gen_id(&self, n: u64) -> Option<ObjId> {
        let oid = |id: &ObjId| self.slots[id.0 as usize].oid;
        let i = self.gen_ids.partition_point(|id| oid(id) < Oid::Gen(n));
        self.gen_ids
            .get(i)
            .copied()
            .filter(|id| oid(id) == Oid::Gen(n))
    }

    fn push(&mut self, oid: Oid, label: Symbol, value: Value) -> ObjId {
        let id = ObjId(self.slots.len() as u32);
        self.slots.push(OemObject { oid, label, value });
        id
    }

    /// Insert an object with an explicit oid.
    ///
    /// Errors with [`OemError::DuplicateOid`] if the oid is already taken —
    /// by an explicit oid or by the printed name of a generated one —
    /// object-ids carry identity, so silently overwriting would corrupt the
    /// graph.
    pub fn insert(&mut self, oid: Symbol, label: Symbol, value: Value) -> Result<ObjId> {
        let number = oid.with_str(|s| self.gen_number(s));
        if self.by_oid.contains_key(&oid) || number.is_some_and(|n| self.gen_id(n).is_some()) {
            return Err(OemError::DuplicateOid(oid.as_str()));
        }
        if let Some(n) = number.filter(|&n| n > self.gen_counter) {
            self.reserved.insert(n);
        }
        let id = self.push(Oid::Named(oid), label, value);
        self.by_oid.insert(oid, id);
        Ok(id)
    }

    /// Insert an object with a generated oid.
    pub fn insert_auto(&mut self, label: Symbol, value: Value) -> ObjId {
        let n = self.next_gen();
        let id = self.push(Oid::Gen(n), label, value);
        self.gen_ids.push(id);
        id
    }

    /// Insert an atomic object with a generated oid.
    pub fn atom(&mut self, label: impl Into<Symbol>, value: impl Into<Value>) -> ObjId {
        let v = value.into();
        debug_assert!(v.is_atomic(), "atom() requires an atomic value");
        self.insert_auto(label.into(), v)
    }

    /// Insert a set object (with the given children) and a generated oid.
    pub fn set(&mut self, label: impl Into<Symbol>, children: Vec<ObjId>) -> ObjId {
        self.insert_auto(label.into(), Value::Set(children))
    }

    /// Flag `id` as top-level; `false` if it already was.
    fn mark_top(&mut self, id: ObjId) -> bool {
        let i = id.0 as usize;
        if i >= self.is_top.len() {
            self.is_top.resize(self.slots.len().max(i + 1), false);
        }
        !std::mem::replace(&mut self.is_top[i], true)
    }

    /// Mark an object as top-level. Idempotent.
    pub fn add_top(&mut self, id: ObjId) {
        if self.mark_top(id) {
            self.top.push(id);
        }
    }

    /// The top-level objects, in insertion order.
    pub fn top_level(&self) -> &[ObjId] {
        &self.top
    }

    /// Replace the top-level list (e.g. after duplicate elimination). Ids
    /// must belong to this store.
    pub fn set_top_level(&mut self, tops: Vec<ObjId>) {
        debug_assert!(tops.iter().all(|t| self.try_get(*t).is_some()));
        self.is_top.clear();
        for &t in &tops {
            self.mark_top(t);
        }
        self.top = tops;
    }

    /// Fetch an object. Panics on a foreign/forged id (ids are only created
    /// by this store, so this indicates a logic error, not bad data).
    pub fn get(&self, id: ObjId) -> &OemObject {
        &self.slots[id.0 as usize]
    }

    /// Mutable access to an object.
    pub fn get_mut(&mut self, id: ObjId) -> &mut OemObject {
        &mut self.slots[id.0 as usize]
    }

    /// Checked fetch.
    pub fn try_get(&self, id: ObjId) -> Option<&OemObject> {
        self.slots.get(id.0 as usize)
    }

    /// The oid of an object as a symbol. A generated oid is interned here,
    /// on first request; to print one, [`ObjectStore::oid_display`] does
    /// without.
    pub fn oid(&self, id: ObjId) -> Symbol {
        match self.get(id).oid {
            Oid::Named(s) => s,
            Oid::Gen(n) => Symbol::intern(&format!("{}{n}", self.gen_prefix)),
        }
    }

    /// The oid of an object, for printing.
    pub fn oid_display(&self, id: ObjId) -> OidDisplay<'_> {
        OidDisplay {
            prefix: &self.gen_prefix,
            oid: self.get(id).oid,
        }
    }

    /// Look up an object by its oid — explicit, or a generated one by its
    /// printed name.
    pub fn by_oid(&self, oid: Symbol) -> Option<ObjId> {
        if let Some(&id) = self.by_oid.get(&oid) {
            return Some(id);
        }
        oid.with_str(|s| self.gen_number(s))
            .and_then(|n| self.gen_id(n))
    }

    /// Iterate over every object id in the arena.
    pub fn ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        (0..self.slots.len() as u32).map(ObjId)
    }

    /// Iterate `(id, object)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &OemObject)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjId(i as u32), o))
    }

    /// The children of an object (empty slice for atomic objects).
    pub fn children(&self, id: ObjId) -> &[ObjId] {
        self.get(id).value.as_set().unwrap_or(&[])
    }

    /// Append a child to a set object.
    ///
    /// Errors with [`OemError::NotASet`] when the target is atomic.
    pub fn add_child(&mut self, parent: ObjId, child: ObjId) -> Result<()> {
        match self.get_mut(parent).value.as_set_mut() {
            Some(ids) => {
                if !ids.contains(&child) {
                    ids.push(child);
                }
                Ok(())
            }
            None => Err(OemError::NotASet(self.oid_display(parent).to_string())),
        }
    }

    /// Validate internal consistency: every child reference resolves, and
    /// the oid index is exact. Used by tests and after deserialization.
    pub fn validate(&self) -> Result<()> {
        for (id, obj) in self.iter() {
            if let Some(children) = obj.value.as_set() {
                for c in children {
                    if self.try_get(*c).is_none() {
                        return Err(OemError::DanglingRef {
                            parent: self.oid_display(id).to_string(),
                            child: c.raw(),
                        });
                    }
                }
            }
            let indexed = match obj.oid {
                Oid::Named(s) => {
                    self.by_oid.get(&s) == Some(&id)
                        && s.with_str(|s| self.gen_number(s))
                            .is_none_or(|n| self.gen_id(n).is_none())
                }
                Oid::Gen(n) => self.gen_id(n) == Some(id),
            };
            if !indexed {
                return Err(OemError::CorruptOidIndex(self.oid_display(id).to_string()));
            }
        }
        for t in &self.top {
            if self.try_get(*t).is_none() {
                return Err(OemError::DanglingRef {
                    parent: "<top>".to_string(),
                    child: t.raw(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ObjectStore({} objects, {} top-level)",
            self.slots.len(),
            self.top.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym;

    #[test]
    fn insert_and_get() {
        let mut s = ObjectStore::new();
        let id = s
            .insert(sym("&n1"), sym("name"), Value::str("Joe Chung"))
            .unwrap();
        let obj = s.get(id);
        assert_eq!(obj.label, sym("name"));
        assert_eq!(obj.value, Value::str("Joe Chung"));
        assert_eq!(obj.oem_type(), OemType::Str);
        assert_eq!(s.by_oid(sym("&n1")), Some(id));
    }

    #[test]
    fn duplicate_oid_rejected() {
        let mut s = ObjectStore::new();
        s.insert(sym("&a"), sym("x"), Value::Int(1)).unwrap();
        let err = s.insert(sym("&a"), sym("y"), Value::Int(2)).unwrap_err();
        assert!(matches!(err, OemError::DuplicateOid(_)));
    }

    #[test]
    fn generated_oids_are_fresh() {
        let mut s = ObjectStore::new();
        // Pre-claim the oid the generator would produce first.
        s.insert(sym("x1"), sym("a"), Value::Int(1)).unwrap();
        let id = s.atom("b", 2i64);
        assert_ne!(s.oid(id), sym("x1"));
    }

    #[test]
    fn oid_prefix() {
        let mut s = ObjectStore::with_oid_prefix("cp");
        let id = s.atom("name", "Joe");
        assert_eq!(s.oid(id), sym("cp1"));
    }

    #[test]
    fn top_level_tracking() {
        let mut s = ObjectStore::new();
        let a = s.atom("name", "Joe");
        let p = s.set("person", vec![a]);
        s.add_top(p);
        s.add_top(p); // idempotent
        assert_eq!(s.top_level(), &[p]);
        assert_eq!(s.children(p), &[a]);
        assert!(s.children(a).is_empty());
    }

    #[test]
    fn add_child_to_atom_fails() {
        let mut s = ObjectStore::new();
        let a = s.atom("name", "Joe");
        let b = s.atom("dept", "CS");
        assert!(matches!(s.add_child(a, b), Err(OemError::NotASet(_))));
    }

    #[test]
    fn add_child_dedupes() {
        let mut s = ObjectStore::new();
        let a = s.atom("name", "Joe");
        let p = s.set("person", vec![]);
        s.add_child(p, a).unwrap();
        s.add_child(p, a).unwrap();
        assert_eq!(s.children(p), &[a]);
    }

    #[test]
    fn cycles_are_representable() {
        // <&a, node, set, {&b}>  <&b, node, set, {&a}>
        let mut s = ObjectStore::new();
        let a = s
            .insert(sym("&a"), sym("node"), Value::Set(vec![]))
            .unwrap();
        let b = s
            .insert(sym("&b"), sym("node"), Value::Set(vec![a]))
            .unwrap();
        s.add_child(a, b).unwrap();
        assert_eq!(s.children(a), &[b]);
        assert_eq!(s.children(b), &[a]);
        s.validate().unwrap();
    }

    #[test]
    fn validate_catches_dangling() {
        let mut s = ObjectStore::new();
        let bogus = ObjId::from_raw(42);
        s.insert(sym("&p"), sym("person"), Value::Set(vec![bogus]))
            .unwrap();
        assert!(matches!(s.validate(), Err(OemError::DanglingRef { .. })));
    }

    #[test]
    fn the_nth_generated_oid_prints_as_prefix_and_n() {
        let mut s = ObjectStore::with_oid_prefix("w_r");
        let ids: Vec<ObjId> = (0..12).map(|i| s.atom("n", i as i64)).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.oid_display(id).to_string(), format!("w_r{}", i + 1));
            assert_eq!(s.oid(id), sym(&format!("w_r{}", i + 1)));
        }
        s.validate().unwrap();
    }

    #[test]
    fn an_explicit_name_ahead_of_generation_is_skipped() {
        let mut s = ObjectStore::new();
        let explicit = s.insert(sym("x3"), sym("a"), Value::Int(0)).unwrap();
        let gen: Vec<ObjId> = (0..4).map(|i| s.atom("n", i as i64)).collect();
        let names: Vec<String> = gen.iter().map(|&g| s.oid_display(g).to_string()).collect();
        assert_eq!(names, ["x1", "x2", "x4", "x5"]);
        assert_eq!(s.by_oid(sym("x3")), Some(explicit));
        assert_eq!(s.by_oid(sym("x4")), Some(gen[2]));
        s.validate().unwrap();
    }

    #[test]
    fn an_explicit_name_a_generated_oid_holds_is_a_duplicate() {
        let mut s = ObjectStore::new();
        for i in 0..3 {
            s.atom("n", i as i64);
        }
        let err = s.insert(sym("x3"), sym("a"), Value::Int(0)).unwrap_err();
        assert!(matches!(err, OemError::DuplicateOid(ref o) if o == "x3"));
        // Not a generated spelling of 3, so free.
        s.insert(sym("x03"), sym("a"), Value::Int(0)).unwrap();
        s.validate().unwrap();
    }

    #[test]
    fn by_oid_finds_generated_objects_by_printed_name_only() {
        let mut s = ObjectStore::new();
        let a = s.atom("n", 0i64);
        let b = s.atom("n", 1i64);
        assert_eq!(s.by_oid(sym("x1")), Some(a));
        assert_eq!(s.by_oid(sym("x2")), Some(b));
        for unused in ["x3", "x0", "x01", "x02", "x", "x+1", "y1", "1"] {
            assert_eq!(s.by_oid(sym(unused)), None, "{unused}");
        }
    }

    /// Explicit names, one of them the spelling of a number generation has
    /// not reached, generated oids, and sharing.
    fn mixed() -> ObjectStore {
        let mut s = ObjectStore::new();
        let name = s.insert(sym("n1"), sym("name"), Value::str("Ann")).unwrap();
        let year = s.atom("year", 3i64);
        let ahead = s.insert(sym("x4"), sym("dept"), Value::str("CS")).unwrap();
        for _ in 0..3 {
            let p = s.set("person", vec![name, year, ahead]);
            s.add_top(p);
        }
        s
    }

    #[test]
    fn mixed_stores_validate_copy_and_round_trip() {
        let s = mixed();
        s.validate().unwrap();
        let names: Vec<String> = s.ids().map(|id| s.oid_display(id).to_string()).collect();
        assert_eq!(names, ["n1", "x1", "x4", "x2", "x3", "x5"]);

        let mut copy = ObjectStore::with_oid_prefix("x");
        let roots = crate::copy::copy_top_level(&s, &mut copy);
        copy.validate().unwrap();

        let text = crate::printer::print_store(&s);
        let parsed = crate::parser::parse_store(&text).unwrap();
        parsed.validate().unwrap();
        assert_eq!(crate::printer::print_store(&parsed), text);

        let imported = crate::json::import(&crate::json::export(&s)).unwrap();
        assert_eq!(crate::printer::print_store(&imported), text);
        for id in s.ids() {
            assert_eq!(
                imported.by_oid(s.oid(id)).map(|i| imported.oid(i)),
                Some(s.oid(id))
            );
        }
        for (&a, &b) in s.top_level().iter().zip(&roots) {
            assert!(crate::eq::struct_eq_cross(&s, a, &copy, b));
        }
    }

    #[test]
    fn set_top_level_resets_membership() {
        let mut s = ObjectStore::new();
        let a = s.atom("n", 0i64);
        let b = s.atom("n", 1i64);
        s.add_top(a);
        s.add_top(b);
        s.set_top_level(vec![b]);
        s.add_top(b);
        s.add_top(a);
        assert_eq!(s.top_level(), &[b, a]);
    }

    #[test]
    fn iteration_covers_all() {
        let mut s = ObjectStore::new();
        for i in 0..5 {
            s.atom("n", i as i64);
        }
        assert_eq!(s.ids().count(), 5);
        assert_eq!(s.iter().count(), 5);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }
}
