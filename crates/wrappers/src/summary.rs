//! Per-source shape summaries for whole-spec static analysis (specflow).
//!
//! A [`SchemaSummary`] describes the *shape* of the objects a source
//! exports: which top-level labels exist, which subobject labels each can
//! contain, and a value type per label drawn from a small flat lattice
//! `⊥ < int/real/string/bool/oid/object < ⊤`. Relational wrappers derive
//! summaries from their [`minidb::Catalog`] schemas (exact and closed);
//! semi-structured wrappers derive them from the current store contents
//! (exact for the data seen now). The mediator's analysis passes propagate
//! these summaries through MSL rule bodies to infer view schemas, detect
//! provably-empty joins and flag conditions on labels no source produces.

use minidb::{Catalog, ColType};
use oem::{ObjId, ObjectStore, Symbol, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Depth to which [`SchemaSummary::from_store`] explores nested sets.
/// Beyond it the summary marks the level [`LabelSummary::open`], which the
/// analysis treats as "anything may be below here".
const STORE_DEPTH_CAP: usize = 6;

/// The value-type lattice: `⊥` below the atomic/object types, `⊤` above
/// them. The types are incomparable except `int < real`: the matcher equates
/// `3` with `3.0`, so an integer can meet a real.
///
/// `join` is used when *building* summaries (a label holding both a string
/// and an integer across objects summarizes to `⊤` — semi-structured
/// irregularity, §2 of the paper); `meet` is used when *checking* joins (two
/// occurrences of one variable with meet `⊥` can never bind the same value).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValueType {
    /// No possible value (empty).
    Bottom,
    /// An atomic integer.
    Int,
    /// An atomic real.
    Real,
    /// An atomic string.
    Str,
    /// An atomic boolean.
    Bool,
    /// An object identity (oid position).
    Oid,
    /// A set of subobjects.
    Object,
    /// Any value at all.
    Top,
}

impl ValueType {
    /// Least upper bound.
    pub fn join(self, other: ValueType) -> ValueType {
        match (self, other) {
            (a, b) if a == b => a,
            (ValueType::Bottom, b) => b,
            (a, ValueType::Bottom) => a,
            (ValueType::Int, ValueType::Real) | (ValueType::Real, ValueType::Int) => {
                ValueType::Real
            }
            _ => ValueType::Top,
        }
    }

    /// Greatest lower bound.
    pub fn meet(self, other: ValueType) -> ValueType {
        match (self, other) {
            (a, b) if a == b => a,
            (ValueType::Top, b) => b,
            (a, ValueType::Top) => a,
            (ValueType::Int, ValueType::Real) | (ValueType::Real, ValueType::Int) => ValueType::Int,
            _ => ValueType::Bottom,
        }
    }

    /// Can a single value inhabit both types? (`meet ≠ ⊥`.)
    pub fn compatible(self, other: ValueType) -> bool {
        self.meet(other) != ValueType::Bottom
    }

    /// The type of a concrete OEM value.
    pub fn of_value(v: &Value) -> ValueType {
        match v {
            Value::Str(_) => ValueType::Str,
            Value::Int(_) => ValueType::Int,
            Value::RealBits(_) => ValueType::Real,
            Value::Bool(_) => ValueType::Bool,
            Value::Set(_) => ValueType::Object,
        }
    }

    /// The type of a relational column.
    pub fn of_coltype(t: ColType) -> ValueType {
        match t {
            ColType::Str => ValueType::Str,
            ColType::Int => ValueType::Int,
            ColType::Real => ValueType::Real,
            ColType::Bool => ValueType::Bool,
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValueType::Bottom => "none",
            ValueType::Int => "integer",
            ValueType::Real => "real",
            ValueType::Str => "string",
            ValueType::Bool => "boolean",
            ValueType::Oid => "oid",
            ValueType::Object => "object",
            ValueType::Top => "any",
        })
    }
}

/// What is known about the objects carrying one label.
#[derive(Clone, PartialEq, Debug)]
pub struct LabelSummary {
    /// Join of the value types seen (or declared) under this label.
    pub value_type: ValueType,
    /// Known subobject labels, for set-valued objects.
    pub children: BTreeMap<Symbol, LabelSummary>,
    /// When `true`, `children` may be incomplete (depth cap reached, or the
    /// shape is not fully known); absence of a label then proves nothing.
    pub open: bool,
    /// A claim about this summary as a *child* of its parent: every parent
    /// object holds at most one subobject with this label. `false` claims
    /// nothing. It binds only under a closed parent, as `children` does.
    pub at_most_one: bool,
}

impl LabelSummary {
    /// A leaf summary for an atomic type.
    pub fn atomic(t: ValueType) -> LabelSummary {
        LabelSummary {
            value_type: t,
            children: BTreeMap::new(),
            open: false,
            at_most_one: false,
        }
    }

    /// The empty (bottom) summary, ready to be joined into.
    pub fn bottom() -> LabelSummary {
        LabelSummary::atomic(ValueType::Bottom)
    }

    /// A set-valued summary with the given known children, closed.
    pub fn object(children: BTreeMap<Symbol, LabelSummary>) -> LabelSummary {
        LabelSummary {
            value_type: ValueType::Object,
            children,
            open: false,
            at_most_one: false,
        }
    }
}

/// Shape summary of one source: its known top-level labels.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SchemaSummary {
    /// Top-level label → summary of the objects carrying it.
    pub labels: BTreeMap<Symbol, LabelSummary>,
    /// When `true`, `labels` may be incomplete and absence proves nothing.
    pub open: bool,
}

impl SchemaSummary {
    /// The summary of a relational catalog: one top-level (set-valued)
    /// label per table, one atomic child per column, each claiming
    /// [`LabelSummary::at_most_one`] (a row has one subobject per non-NULL
    /// column). Exact and closed — relational sources export precisely
    /// their schema. Closed is a promise (see
    /// [`crate::Wrapper::schema_summary`]): the planner prunes chains asking
    /// for a table or column not listed here, so the catalog must not gain
    /// one while the wrapper is registered.
    pub fn from_catalog(catalog: &Catalog) -> SchemaSummary {
        let mut labels = BTreeMap::new();
        for table in catalog.tables() {
            let schema = table.schema();
            let children = schema
                .columns()
                .map(|(name, ty)| {
                    let column = LabelSummary {
                        at_most_one: true,
                        ..LabelSummary::atomic(ValueType::of_coltype(ty))
                    };
                    (Symbol::intern(name), column)
                })
                .collect();
            labels.insert(
                Symbol::intern(schema.name()),
                LabelSummary::object(children),
            );
        }
        SchemaSummary {
            labels,
            open: false,
        }
    }

    /// The summary of a semi-structured store's current contents: every
    /// top-level object contributes its label, value type and (recursively,
    /// to a depth cap) its subobject labels. Closed with respect to the
    /// data the source holds *now* — except that a store that is empty
    /// right now summarizes as *open* (its future shape is unknown, so
    /// absence proves nothing). A child label claims
    /// [`LabelSummary::at_most_one`] when no object of its parent's label,
    /// anywhere in the store, holds two children with that label.
    ///
    /// Closed is a promise (see [`crate::Wrapper::schema_summary`]) that
    /// the planner prunes chains on, and the multiplicity claim is exactly
    /// as durable. It holds for a
    /// [`crate::semistructured::SemiStructuredSource`]: once registered
    /// with a mediator, behind an `Arc<dyn Wrapper>`, nothing can reach its
    /// store mutably. A wrapper whose store can change while it is
    /// registered must not return this summary as is.
    pub fn from_store(store: &ObjectStore) -> SchemaSummary {
        let mut labels = BTreeMap::new();
        for &t in store.top_level() {
            add_object(&mut labels, store, t, STORE_DEPTH_CAP, false);
        }
        SchemaSummary {
            open: labels.is_empty(),
            labels,
        }
    }

    /// The summary for `label`, if known.
    pub fn label(&self, label: Symbol) -> Option<&LabelSummary> {
        self.labels.get(&label)
    }
}

/// Join object `id` into `map`. A label first seen as a child (`child`)
/// starts out claiming at most one per parent; its parent withdraws the
/// claim on holding two.
fn add_object(
    map: &mut BTreeMap<Symbol, LabelSummary>,
    store: &ObjectStore,
    id: ObjId,
    depth: usize,
    child: bool,
) {
    let obj = store.get(id);
    let entry = map.entry(obj.label).or_insert_with(|| LabelSummary {
        at_most_one: child,
        ..LabelSummary::bottom()
    });
    entry.value_type = entry.value_type.join(ValueType::of_value(&obj.value));
    if matches!(obj.value, Value::Set(_)) {
        if depth == 0 {
            entry.open = true;
        } else {
            let mut seen = BTreeSet::new();
            for &c in store.children(id) {
                add_object(&mut entry.children, store, c, depth - 1, true);
                let label = store.get(c).label;
                if !seen.insert(label) {
                    entry
                        .children
                        .get_mut(&label)
                        .expect("just added")
                        .at_most_one = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::parser::parse_store;
    use oem::sym;

    #[test]
    fn lattice_laws() {
        use ValueType::*;
        assert_eq!(Int.join(Int), Int);
        assert_eq!(Int.join(Str), Top);
        assert_eq!(Bottom.join(Real), Real);
        assert_eq!(Int.meet(Int), Int);
        assert_eq!(Int.meet(Str), Bottom);
        assert_eq!(Top.meet(Oid), Oid);
        assert!(Int.compatible(Top));
        assert!(!Int.compatible(Str));
        // 3 = 3.0 to the matcher: int < real.
        assert_eq!(Int.meet(Real), Int);
        assert_eq!(Real.meet(Int), Int);
        assert_eq!(Int.join(Real), Real);
        assert!(Real.compatible(Int));
        assert_eq!(Object.to_string(), "object");
    }

    #[test]
    fn catalog_summary_is_exact_and_closed() {
        let summary = SchemaSummary::from_catalog(&crate::scenario::cs_catalog());
        assert!(!summary.open);
        let student = summary.label(sym("student")).unwrap();
        assert_eq!(student.value_type, ValueType::Object);
        assert!(!student.open);
        assert_eq!(
            student.children.get(&sym("year")).unwrap().value_type,
            ValueType::Int
        );
        assert_eq!(
            student.children.get(&sym("last_name")).unwrap().value_type,
            ValueType::Str
        );
        assert!(!student.children.contains_key(&sym("title")));
        let employee = summary.label(sym("employee")).unwrap();
        assert_eq!(employee.children.len(), 4);
        // One subobject per column; a table is no one's child.
        assert!(employee.children.values().all(|c| c.at_most_one));
        assert!(!employee.at_most_one);
    }

    #[test]
    fn at_most_one_is_derived_from_every_object() {
        // The first person holds one name, the second two: a claim read
        // off the first object alone would be wrong.
        let store = parse_store(
            "<&p1, person, set, {&n1,&d1}>
               <&n1, name, string, 'Joe'>
               <&d1, dept, string, 'CS'>
             <&p2, person, set, {&n2,&a2,&d2}>
               <&n2, name, string, 'Nick'>
               <&a2, name, string, 'Nicky'>
               <&d2, dept, string, 'CS'>",
        )
        .unwrap();
        let summary = SchemaSummary::from_store(&store);
        let person = summary.label(sym("person")).unwrap();
        assert!(!person.children[&sym("name")].at_most_one);
        assert!(person.children[&sym("dept")].at_most_one);
        // Top-level objects repeat their label freely.
        assert!(!person.at_most_one);
    }

    #[test]
    fn store_summary_joins_irregular_values() {
        let store = parse_store(
            "<&p1, person, set, {&n1,&y1}>
               <&n1, name, string, 'Joe'>
               <&y1, year, integer, 3>
             <&p2, person, set, {&n2,&y2}>
               <&n2, name, string, 'Nick'>
               <&y2, year, string, 'senior'>",
        )
        .unwrap();
        let summary = SchemaSummary::from_store(&store);
        let person = summary.label(sym("person")).unwrap();
        assert_eq!(person.value_type, ValueType::Object);
        let name = person.children.get(&sym("name")).unwrap();
        assert_eq!(name.value_type, ValueType::Str);
        // Irregular: year is integer in one object, string in another.
        let year = person.children.get(&sym("year")).unwrap();
        assert_eq!(year.value_type, ValueType::Top);
        assert!(summary.label(sym("robot")).is_none());
    }

    #[test]
    fn whois_scenario_summary() {
        let summary = SchemaSummary::from_store(crate::scenario::whois_wrapper().store());
        let person = summary.label(sym("person")).unwrap();
        for label in ["name", "dept", "relation", "e_mail"] {
            assert_eq!(
                person.children.get(&sym(label)).unwrap().value_type,
                ValueType::Str,
                "{label}"
            );
        }
        assert_eq!(
            person.children.get(&sym("year")).unwrap().value_type,
            ValueType::Int
        );
    }
}
