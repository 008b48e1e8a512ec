//! # OEM — the Object Exchange Model
//!
//! This crate implements the self-describing data model of the TSIMMIS
//! project, as defined in Papakonstantinou, Garcia-Molina & Widom (ICDE '95)
//! and used as the substrate of the MedMaker mediation system (ICDE '96).
//!
//! Every OEM object is a quadruple `<object-id, label, type, value>`:
//!
//! ```text
//! <&p1, person, set, {&n1,&d1,&rel1,&elm1}>
//!   <&n1, name,     string, 'Joe Chung'>
//!   <&d1, dept,     string, 'CS'>
//!   <&rel1, relation, string, 'employee'>
//!   <&elm1, e_mail, string, 'chung@cs'>
//! ```
//!
//! * the **object-id** links objects to their subobjects and carries object
//!   identity (sharing and even cycles are representable);
//! * the **label** is a string meaningful to the application — OEM is
//!   *self-describing*: there is no schema, every object carries its own;
//! * the **type** is either atomic (`string`, `integer`, `real`, `boolean`)
//!   or `set`, in which case the value is a set of subobject ids.
//!
//! ## Representation
//!
//! Graph-shaped data is awkward under Rust ownership, so objects live in an
//! arena, the [`ObjectStore`], and reference each other through plain
//! [`ObjId`] indices. Labels, oids and string atoms are interned in a global
//! [`Symbol`] table so that objects can be copied between stores cheaply
//! (the mediator copies wrapper results "into the mediator's memory", §3.4
//! of the MedMaker paper).
//!
//! ## Modules
//!
//! * [`symbol`] — global string interner.
//! * [`value`] — atomic values, types, and the `set` value.
//! * [`store`] — the arena; object creation, lookup, top-level objects.
//! * [`builder`] — fluent construction of nested structures.
//! * [`parser`] — the textual syntax used throughout the paper's figures.
//! * [`printer`] — renders stores back in the figures' indented style.
//! * [`path`] — traversal: children, descendants, wildcard label search.
//! * [`copy`] — deep copies between stores, preserving sharing and cycles.
//! * [`eq`] — structural (oid-insensitive) equality and fingerprints, used
//!   for duplicate elimination per MSL semantics.

#![warn(missing_docs)]

pub mod builder;
pub mod copy;
pub mod eq;
pub mod error;
#[cfg(feature = "serde")]
pub mod json;
pub mod parser;
pub mod path;
pub mod printer;
pub mod store;
pub mod symbol;
pub mod value;

pub use builder::ObjectBuilder;
pub use error::{OemError, Result};
pub use store::{ObjId, ObjectStore, OemObject, Oid};
pub use symbol::Symbol;
pub use value::{OemType, Value};

/// Convenience: intern a string as a [`Symbol`].
pub fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}
