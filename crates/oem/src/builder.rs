//! Fluent construction of nested OEM structures.
//!
//! ```
//! use oem::{ObjectBuilder, ObjectStore};
//!
//! let mut store = ObjectStore::new();
//! let joe = ObjectBuilder::set("person")
//!     .oid("&p1")
//!     .atom("name", "Joe Chung")
//!     .atom("dept", "CS")
//!     .child(ObjectBuilder::set("affiliations").atom("group", "db"))
//!     .build_top(&mut store);
//! assert_eq!(store.get(joe).label, oem::sym("person"));
//! assert_eq!(store.children(joe).len(), 3);
//! ```

use crate::store::{ObjId, ObjectStore};
use crate::symbol::Symbol;
use crate::value::Value;

/// A detached OEM structure under construction. Call
/// [`ObjectBuilder::build`] (or [`build_top`](ObjectBuilder::build_top)) to
/// insert it into a store.
#[derive(Clone, Debug)]
pub struct ObjectBuilder {
    oid: Option<Symbol>,
    label: Symbol,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    Atom(Value),
    Set(Vec<ObjectBuilder>),
    /// A reference to an object that already exists in the target store
    /// (for building shared/cyclic structure).
    Existing(ObjId),
}

impl ObjectBuilder {
    /// Start an atomic object.
    pub fn atom_obj(label: impl Into<Symbol>, value: impl Into<Value>) -> ObjectBuilder {
        let v = value.into();
        assert!(v.is_atomic(), "atom_obj requires an atomic value");
        ObjectBuilder {
            oid: None,
            label: label.into(),
            kind: Kind::Atom(v),
        }
    }

    /// Start a set object with no children yet.
    pub fn set(label: impl Into<Symbol>) -> ObjectBuilder {
        ObjectBuilder {
            oid: None,
            label: label.into(),
            kind: Kind::Set(Vec::new()),
        }
    }

    /// Give the object an explicit oid (with or without the `&` sigil —
    /// the sigil is stripped, matching the textual syntax).
    pub fn oid(mut self, oid: &str) -> ObjectBuilder {
        let trimmed = oid.strip_prefix('&').unwrap_or(oid);
        self.oid = Some(Symbol::intern(trimmed));
        self
    }

    /// Add an atomic subobject. Panics if this builder is atomic.
    pub fn atom(self, label: impl Into<Symbol>, value: impl Into<Value>) -> ObjectBuilder {
        self.child(ObjectBuilder::atom_obj(label, value))
    }

    /// Add a subobject built by another builder. Panics if this builder is
    /// atomic.
    pub fn child(mut self, child: ObjectBuilder) -> ObjectBuilder {
        match &mut self.kind {
            Kind::Set(children) => children.push(child),
            _ => panic!("cannot add subobjects to an atomic object"),
        }
        self
    }

    /// Add a reference to an object that already exists in the target store
    /// (enables shared subobjects).
    pub fn child_ref(mut self, id: ObjId) -> ObjectBuilder {
        match &mut self.kind {
            Kind::Set(children) => children.push(ObjectBuilder {
                oid: None,
                label: Symbol::intern(""),
                kind: Kind::Existing(id),
            }),
            _ => panic!("cannot add subobjects to an atomic object"),
        }
        self
    }

    /// Insert the structure into `store`, returning the root's id.
    pub fn build(self, store: &mut ObjectStore) -> ObjId {
        match self.kind {
            Kind::Existing(id) => id,
            Kind::Atom(v) => match self.oid {
                Some(oid) => store
                    .insert(oid, self.label, v)
                    .expect("builder oid must be fresh in the target store"),
                None => store.insert_auto(self.label, v),
            },
            Kind::Set(children) => {
                let ids: Vec<ObjId> = children.into_iter().map(|c| c.build(store)).collect();
                match self.oid {
                    Some(oid) => store
                        .insert(oid, self.label, Value::Set(ids))
                        .expect("builder oid must be fresh in the target store"),
                    None => store.insert_auto(self.label, Value::Set(ids)),
                }
            }
        }
    }

    /// Insert and mark the root as a top-level object.
    pub fn build_top(self, store: &mut ObjectStore) -> ObjId {
        let id = self.build(store);
        store.add_top(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym;

    #[test]
    fn nested_build() {
        let mut s = ObjectStore::new();
        let p = ObjectBuilder::set("person")
            .atom("name", "Joe Chung")
            .child(
                ObjectBuilder::set("affiliations")
                    .atom("group", "db")
                    .atom("group", "ai"),
            )
            .build_top(&mut s);
        assert_eq!(s.top_level(), &[p]);
        let kids = s.children(p);
        assert_eq!(kids.len(), 2);
        assert_eq!(s.get(kids[0]).label, sym("name"));
        assert_eq!(s.children(kids[1]).len(), 2);
    }

    #[test]
    fn explicit_oids_with_and_without_sigil() {
        let mut s = ObjectStore::new();
        let a = ObjectBuilder::atom_obj("name", "Joe")
            .oid("&n1")
            .build(&mut s);
        let b = ObjectBuilder::atom_obj("name", "Tom")
            .oid("n2")
            .build(&mut s);
        assert_eq!(s.oid(a), sym("n1"));
        assert_eq!(s.oid(b), sym("n2"));
        assert_eq!(s.by_oid(sym("n1")), Some(a));
    }

    #[test]
    fn shared_subobject_via_child_ref() {
        let mut s = ObjectStore::new();
        let addr = s.atom("address", "Gates 434");
        let p1 = ObjectBuilder::set("person")
            .atom("name", "A")
            .child_ref(addr)
            .build_top(&mut s);
        let p2 = ObjectBuilder::set("person")
            .atom("name", "B")
            .child_ref(addr)
            .build_top(&mut s);
        assert_eq!(s.children(p1)[1], s.children(p2)[1]);
    }

    #[test]
    #[should_panic(expected = "atomic")]
    fn adding_child_to_atom_panics() {
        let _ = ObjectBuilder::atom_obj("name", "x").atom("y", 1i64);
    }
}
