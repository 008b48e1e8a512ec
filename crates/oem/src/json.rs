//! Serde-friendly export/import of OEM stores (feature `serde`).
//!
//! Used by tools and tests that want machine-readable snapshots of
//! experiment outputs. The representation is a flat list of objects —
//! `{oid, label, value}` with set values as oid-reference lists — plus the
//! top-level oid list, so sharing and cycles survive the round trip.

use crate::error::{OemError, Result};
use crate::store::{ObjId, ObjectStore};
use crate::symbol::Symbol;
use crate::value::Value;

/// One exported object.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonObject {
    /// The object id.
    pub oid: Symbol,
    /// The object's label.
    pub label: Symbol,
    /// The object's value.
    pub value: JsonValue,
}

/// An exported value. Serialized in adjacently-tagged form,
/// `{"type": <oem keyword>, "v": <payload>}`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A string atom.
    Str(String),
    /// An integer atom.
    Int(i64),
    /// A real atom.
    Real(f64),
    /// A boolean atom.
    Bool(bool),
    /// Subobject references by oid.
    Set(Vec<Symbol>),
}

/// A whole exported store.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct JsonStore {
    /// Every exported object, subobjects included.
    pub objects: Vec<JsonObject>,
    /// Oids of the store's top-level objects, in answer order.
    pub top_level: Vec<Symbol>,
}

impl serde::Serialize for JsonObject {
    fn to_value(&self) -> serde::Value {
        serde::object([
            ("oid", self.oid.to_value()),
            ("label", self.label.to_value()),
            ("value", self.value.to_value()),
        ])
    }
}

impl serde::Deserialize for JsonObject {
    fn from_value(v: &serde::Value) -> std::result::Result<JsonObject, serde::Error> {
        Ok(JsonObject {
            oid: serde::field(v, "oid")?,
            label: serde::field(v, "label")?,
            value: serde::field(v, "value")?,
        })
    }
}

impl serde::Serialize for JsonValue {
    fn to_value(&self) -> serde::Value {
        let (tag, payload) = match self {
            JsonValue::Str(s) => ("string", s.to_value()),
            JsonValue::Int(i) => ("integer", i.to_value()),
            JsonValue::Real(x) => ("real", x.to_value()),
            JsonValue::Bool(b) => ("boolean", b.to_value()),
            JsonValue::Set(oids) => ("set", oids.to_value()),
        };
        serde::object([("type", tag.into()), ("v", payload)])
    }
}

impl serde::Deserialize for JsonValue {
    fn from_value(v: &serde::Value) -> std::result::Result<JsonValue, serde::Error> {
        let tag: String = serde::field(v, "type")?;
        Ok(match tag.as_str() {
            "string" => JsonValue::Str(serde::field(v, "v")?),
            "integer" => JsonValue::Int(serde::field(v, "v")?),
            "real" => JsonValue::Real(serde::field(v, "v")?),
            "boolean" => JsonValue::Bool(serde::field(v, "v")?),
            "set" => JsonValue::Set(serde::field(v, "v")?),
            other => return Err(serde::Error::custom(format!("unknown value tag '{other}'"))),
        })
    }
}

impl serde::Serialize for JsonStore {
    fn to_value(&self) -> serde::Value {
        serde::object([
            ("objects", self.objects.to_value()),
            ("top_level", self.top_level.to_value()),
        ])
    }
}

impl serde::Deserialize for JsonStore {
    fn from_value(v: &serde::Value) -> std::result::Result<JsonStore, serde::Error> {
        Ok(JsonStore {
            objects: serde::field(v, "objects")?,
            top_level: serde::field(v, "top_level")?,
        })
    }
}

/// Export a store.
pub fn export(store: &ObjectStore) -> JsonStore {
    let objects = store
        .iter()
        .map(|(id, obj)| JsonObject {
            oid: store.oid(id),
            label: obj.label,
            value: match &obj.value {
                Value::Str(s) => JsonValue::Str(s.as_str()),
                Value::Int(i) => JsonValue::Int(*i),
                Value::RealBits(b) => JsonValue::Real(f64::from_bits(*b)),
                Value::Bool(b) => JsonValue::Bool(*b),
                Value::Set(kids) => JsonValue::Set(kids.iter().map(|&k| store.oid(k)).collect()),
            },
        })
        .collect();
    let top_level = store.top_level().iter().map(|&t| store.oid(t)).collect();
    JsonStore { objects, top_level }
}

/// Import a previously exported store.
pub fn import(json: &JsonStore) -> Result<ObjectStore> {
    let mut store = ObjectStore::new();
    // Pass 1: create objects (sets start empty).
    let mut ids: Vec<ObjId> = Vec::with_capacity(json.objects.len());
    for obj in &json.objects {
        let value = match &obj.value {
            JsonValue::Str(s) => Value::str(s),
            JsonValue::Int(i) => Value::Int(*i),
            JsonValue::Real(x) => Value::real(*x),
            JsonValue::Bool(b) => Value::Bool(*b),
            JsonValue::Set(_) => Value::Set(Vec::new()),
        };
        ids.push(store.insert(obj.oid, obj.label, value)?);
    }
    // Pass 2: resolve set members.
    for (obj, &id) in json.objects.iter().zip(&ids) {
        if let JsonValue::Set(kids) = &obj.value {
            let resolved: Vec<ObjId> = kids
                .iter()
                .map(|k| {
                    store
                        .by_oid(*k)
                        .ok_or_else(|| OemError::UnresolvedOid(k.as_str()))
                })
                .collect::<Result<_>>()?;
            *store.get_mut(id).value.as_set_mut().unwrap() = resolved;
        }
    }
    for t in &json.top_level {
        let id = store
            .by_oid(*t)
            .ok_or_else(|| OemError::UnresolvedOid(t.as_str()))?;
        store.add_top(id);
    }
    store.validate()?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ObjectBuilder;
    use crate::sym;

    fn sample() -> ObjectStore {
        let mut s = ObjectStore::new();
        let shared = s.atom("addr", "Gates");
        let p1 = ObjectBuilder::set("person")
            .atom("name", "Joe Chung")
            .atom("year", 3i64)
            .atom("gpa", 3.9)
            .atom("active", true)
            .build(&mut s);
        s.add_child(p1, shared).unwrap();
        s.add_top(p1);
        let p2 = s.set("person", vec![shared]);
        s.add_top(p2);
        s
    }

    #[test]
    fn roundtrip_preserves_structure_and_sharing() {
        let store = sample();
        let exported = export(&store);
        let text = serde_json::to_string_pretty(&exported).unwrap();
        let parsed: JsonStore = serde_json::from_str(&text).unwrap();
        let imported = import(&parsed).unwrap();
        assert_eq!(imported.len(), store.len());
        assert_eq!(imported.top_level().len(), 2);
        for (&a, &b) in store.top_level().iter().zip(imported.top_level()) {
            assert!(crate::eq::struct_eq_cross(&store, a, &imported, b));
        }
        // Sharing preserved: both persons reference the same address object.
        let t0 = imported.top_level()[0];
        let t1 = imported.top_level()[1];
        let addr0 = imported
            .children(t0)
            .iter()
            .copied()
            .find(|&c| imported.get(c).label == sym("addr"))
            .unwrap();
        assert!(imported.children(t1).contains(&addr0));
    }

    #[test]
    fn cycles_roundtrip() {
        let mut s = ObjectStore::new();
        let a = s.insert(sym("a"), sym("node"), Value::Set(vec![])).unwrap();
        let b = s
            .insert(sym("b"), sym("node"), Value::Set(vec![a]))
            .unwrap();
        s.add_child(a, b).unwrap();
        s.add_top(a);
        let imported = import(&export(&s)).unwrap();
        let ia = imported.by_oid(sym("a")).unwrap();
        let ib = imported.by_oid(sym("b")).unwrap();
        assert_eq!(imported.children(ia), &[ib]);
        assert_eq!(imported.children(ib), &[ia]);
    }

    #[test]
    fn dangling_reference_rejected() {
        let bad = JsonStore {
            objects: vec![JsonObject {
                oid: sym("x"),
                label: sym("s"),
                value: JsonValue::Set(vec![sym("missing")]),
            }],
            top_level: vec![sym("x")],
        };
        assert!(matches!(import(&bad), Err(OemError::UnresolvedOid(_))));
    }
}
