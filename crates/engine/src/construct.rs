//! Constructing OEM objects from rule heads and bindings.
//!
//! "For each set of matching bindings from the tail patterns, we
//! conceptually create an object in the med view. ... When variables that
//! have been bound to sets appear inside curly braces in a rule head, the
//! first level of their contents is 'flattened out' and included in the set
//! value. ... The types are simply set to the types of the bound variables.
//! For the object-ids, any arbitrary unique strings can be used." (§2)
//!
//! **Semantic object-ids** (head oid = a function term `f(X,...)`) give the
//! constructed object an identity with "meaning beyond the mediator call":
//! two constructions with the same semantic oid **fuse** — their subobject
//! sets are unioned. This is the object-fusion mechanism of §2 "Other
//! Features" (detailed in the companion paper \[PGM\]).

use crate::bindings::{Bindings, BoundValue};
use msl::{Head, PatValue, Pattern, SetElem, Term};
use oem::{ObjId, ObjectStore, Symbol, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Errors during head instantiation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConstructError {
    /// A head variable had no binding (validation should prevent this).
    UnboundVariable(Symbol),
    /// A term that must be an atomic string (e.g. a label) resolved to
    /// something else.
    NotAString(String),
    /// A parameter slot survived to construction time.
    UnresolvedParam(Symbol),
    /// The head shape was not constructible (e.g. a wildcard element).
    BadHead(String),
    /// An attempt to fuse an atomic object with different values.
    FusionConflict(String),
}

impl fmt::Display for ConstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstructError::UnboundVariable(v) => write!(f, "unbound head variable {v}"),
            ConstructError::NotAString(t) => write!(f, "expected an atomic string, found {t}"),
            ConstructError::UnresolvedParam(p) => write!(f, "unresolved parameter ${p}"),
            ConstructError::BadHead(msg) => write!(f, "unconstructible head: {msg}"),
            ConstructError::FusionConflict(msg) => write!(f, "fusion conflict: {msg}"),
        }
    }
}

impl std::error::Error for ConstructError {}

/// The label of an object built for a head that is a bare variable bound to
/// an atom or a set, interned once.
fn result_label() -> Symbol {
    static RESULT: OnceLock<Symbol> = OnceLock::new();
    *RESULT.get_or_init(|| Symbol::intern("result"))
}

/// A constructor instantiates rule heads into a destination store,
/// remembering semantic oids so repeated constructions fuse.
pub struct Constructor<'a> {
    /// Store the bindings' object ids refer to (the mediator's memory).
    pub src: &'a ObjectStore,
    /// Copy map shared across constructions from one `src`, so shared
    /// source objects stay shared in the output.
    copy_map: HashMap<ObjId, ObjId>,
    /// Semantic oid → already-constructed object.
    fused: HashMap<Symbol, ObjId>,
}

impl<'a> Constructor<'a> {
    /// A constructor reading bound objects from `src`.
    pub fn new(src: &'a ObjectStore) -> Constructor<'a> {
        Constructor {
            src,
            copy_map: HashMap::new(),
            fused: HashMap::new(),
        }
    }

    /// Read bound objects from `src` from now on. Objects already
    /// constructed keep their semantic oids, so heads built from different
    /// stores still fuse; only the copy map, whose keys are ids of the
    /// previous store, starts over.
    pub fn read_from(&mut self, src: &'a ObjectStore) {
        self.src = src;
        self.copy_map.clear();
    }

    /// Instantiate a rule head under one binding, adding the object(s) to
    /// `dst` as top-level objects. Returns the root id.
    pub fn construct_head(
        &mut self,
        head: &Head,
        b: &Bindings,
        dst: &mut ObjectStore,
    ) -> Result<ObjId, ConstructError> {
        let id = match head {
            Head::Var(v) => match b.get(*v) {
                Some(BoundValue::Obj(src_id)) => self.copy_obj(*src_id, dst),
                Some(BoundValue::Atom(value)) => dst.insert_auto(result_label(), value.clone()),
                Some(BoundValue::ObjSet(ids)) => {
                    let kids: Vec<ObjId> = ids.iter().map(|&i| self.copy_obj(i, dst)).collect();
                    dst.insert_auto(result_label(), Value::Set(kids))
                }
                None => return Err(ConstructError::UnboundVariable(*v)),
            },
            Head::Pattern(p) => self.construct_pattern(p, b, dst)?,
        };
        dst.add_top(id);
        Ok(id)
    }

    /// Instantiate one head pattern under a binding.
    pub fn construct_pattern(
        &mut self,
        p: &Pattern,
        b: &Bindings,
        dst: &mut ObjectStore,
    ) -> Result<ObjId, ConstructError> {
        let label = self.resolve_string(&p.label, b)?;

        // Semantic oid?
        let semantic_oid = match &p.oid {
            Some(Term::Func(f, args)) => {
                let mut parts = Vec::with_capacity(args.len());
                for a in args {
                    parts.push(self.resolve_atom(a, b)?.render_atomic());
                }
                Some(Symbol::intern(&format!("{f}({})", parts.join(","))))
            }
            Some(Term::Const(Value::Str(s))) => Some(*s),
            Some(Term::Var(v)) => match b.get(*v) {
                Some(BoundValue::Atom(Value::Str(s))) => Some(*s),
                Some(other) => return Err(ConstructError::NotAString(format!("{other:?}"))),
                None => None, // unconstrained: generate
            },
            Some(Term::Param(p)) => return Err(ConstructError::UnresolvedParam(*p)),
            Some(Term::Const(other)) => {
                return Err(ConstructError::NotAString(other.render_atomic()))
            }
            None => None,
        };

        let value = self.construct_value(&p.value, b, dst)?;

        match semantic_oid {
            None => Ok(dst.insert_auto(label, value)),
            Some(oid) => {
                if let Some(&existing) = self.fused.get(&oid) {
                    // Fuse: union subobject sets (atomic fusion requires
                    // equal values).
                    return self.fuse_into(existing, label, value, dst, oid);
                }
                // The oid may also collide with an unrelated object in dst;
                // fall back to a generated oid in that case (oids are
                // arbitrary unless semantic).
                let id = match dst.insert(oid, label, value.clone()) {
                    Ok(id) => id,
                    Err(_) => dst.insert_auto(label, value),
                };
                self.fused.insert(oid, id);
                Ok(id)
            }
        }
    }

    fn fuse_into(
        &mut self,
        existing: ObjId,
        label: Symbol,
        value: Value,
        dst: &mut ObjectStore,
        oid: Symbol,
    ) -> Result<ObjId, ConstructError> {
        let obj = dst.get(existing);
        if obj.label != label {
            return Err(ConstructError::FusionConflict(format!(
                "semantic oid {oid} used with labels '{}' and '{label}'",
                obj.label
            )));
        }
        match (obj.value.clone(), value) {
            (Value::Set(_), Value::Set(new_kids)) => {
                // Union children, dropping structural duplicates.
                for k in new_kids {
                    let duplicate = dst
                        .children(existing)
                        .iter()
                        .any(|&c| c == k || oem::eq::struct_eq(dst, c, k));
                    if !duplicate {
                        dst.add_child(existing, k).expect("fusion target is a set");
                    }
                }
                Ok(existing)
            }
            (old, new) if old == new => Ok(existing),
            (old, new) => Err(ConstructError::FusionConflict(format!(
                "semantic oid {oid} constructed with conflicting atomic values \
                 {old:?} and {new:?}"
            ))),
        }
    }

    fn construct_value(
        &mut self,
        v: &PatValue,
        b: &Bindings,
        dst: &mut ObjectStore,
    ) -> Result<Value, ConstructError> {
        match v {
            PatValue::Term(t) => match t {
                Term::Const(c) => Ok(c.clone()),
                Term::Var(var) => match b.get(*var) {
                    Some(BoundValue::Atom(c)) => Ok(c.clone()),
                    Some(BoundValue::ObjSet(ids)) => {
                        let kids: Vec<ObjId> = ids.iter().map(|&i| self.copy_obj(i, dst)).collect();
                        Ok(Value::Set(kids))
                    }
                    Some(BoundValue::Obj(id)) => {
                        // A whole object in value position: splice its value.
                        let copied = self.copy_obj(*id, dst);
                        Ok(dst.get(copied).value.clone())
                    }
                    None => Err(ConstructError::UnboundVariable(*var)),
                },
                Term::Param(p) => Err(ConstructError::UnresolvedParam(*p)),
                Term::Func(..) => Err(ConstructError::BadHead(
                    "function term in value position".into(),
                )),
            },
            PatValue::Set(sp) => {
                if sp.rest.is_some() {
                    return Err(ConstructError::BadHead(
                        "rest variable in a head set pattern".into(),
                    ));
                }
                let mut kids: Vec<ObjId> = Vec::new();
                for e in &sp.elements {
                    match e {
                        SetElem::Pattern(inner) => {
                            kids.push(self.construct_pattern(inner, b, dst)?);
                        }
                        SetElem::Var(v) => match b.get(*v) {
                            // Set-bound variables are flattened one level
                            // (§2, "Creation of the Virtual Objects").
                            Some(BoundValue::ObjSet(ids)) => {
                                for &i in ids {
                                    kids.push(self.copy_obj(i, dst));
                                }
                            }
                            Some(BoundValue::Obj(id)) => {
                                kids.push(self.copy_obj(*id, dst));
                            }
                            Some(BoundValue::Atom(a)) => {
                                return Err(ConstructError::BadHead(format!(
                                    "variable {v} is bound to atom {} but used as a \
                                     subobject",
                                    a.render_atomic()
                                )))
                            }
                            None => return Err(ConstructError::UnboundVariable(*v)),
                        },
                        SetElem::Wildcard(_) => {
                            return Err(ConstructError::BadHead(
                                "wildcard in a head set pattern".into(),
                            ))
                        }
                    }
                }
                // OEM sets have set semantics: structurally duplicate
                // subobjects collapse (e.g. a `year` object arriving from
                // both sources' rest variables appears once).
                let kids = oem::eq::dedup_structural(dst, &kids);
                Ok(Value::Set(kids))
            }
        }
    }

    fn resolve_string(&self, t: &Term, b: &Bindings) -> Result<Symbol, ConstructError> {
        match self.resolve_atom(t, b)? {
            Value::Str(s) => Ok(s),
            other => Err(ConstructError::NotAString(other.render_atomic())),
        }
    }

    fn resolve_atom(&self, t: &Term, b: &Bindings) -> Result<Value, ConstructError> {
        match t {
            Term::Const(c) => Ok(c.clone()),
            Term::Var(v) => match b.get(*v) {
                Some(BoundValue::Atom(c)) => Ok(c.clone()),
                Some(other) => Err(ConstructError::NotAString(format!("{other:?}"))),
                None => Err(ConstructError::UnboundVariable(*v)),
            },
            Term::Param(p) => Err(ConstructError::UnresolvedParam(*p)),
            Term::Func(..) => Err(ConstructError::NotAString("function term".into())),
        }
    }

    fn copy_obj(&mut self, src_id: ObjId, dst: &mut ObjectStore) -> ObjId {
        // A persistent copy map (across every construction this Constructor
        // performs) keeps source-side sharing — including interior sharing
        // between different bindings — shared in the output, and makes
        // cycles terminate.
        if let Some(&done) = self.copy_map.get(&src_id) {
            return done;
        }
        let obj = self.src.get(src_id);
        match obj.value.as_set() {
            None => {
                let new = dst.insert_auto(obj.label, obj.value.clone());
                self.copy_map.insert(src_id, new);
                new
            }
            Some(children) => {
                let new = dst.insert_auto(obj.label, Value::Set(Vec::new()));
                self.copy_map.insert(src_id, new);
                let kids: Vec<ObjId> = children.iter().map(|&c| self.copy_obj(c, dst)).collect();
                *dst.get_mut(new).value.as_set_mut().unwrap() = kids;
                new
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_top_level;
    use msl::{parse_rule, TailItem};
    use oem::parser::parse_store;
    use oem::printer::compact;
    use oem::sym;

    fn src_store() -> ObjectStore {
        parse_store(
            "<&p1, person, set, {&n1,&r1,&e1}>
               <&n1, name, string, 'Joe Chung'>
               <&r1, relation, string, 'employee'>
               <&e1, e_mail, string, 'chung@cs'>",
        )
        .unwrap()
    }

    #[test]
    fn construct_paper_style_head() {
        // Head <cs_person {<name N> <rel R> Rest1}> under b_w1-ish bindings.
        let src = src_store();
        let rule = parse_rule(
            "<cs_person {<name N> <rel R> Rest1}> :- \
             <person {<name N> <relation R> | Rest1}>@whois",
        )
        .unwrap();
        let tail_pat = match &rule.tail[0] {
            TailItem::Match { pattern, .. } => pattern,
            _ => panic!(),
        };
        let bindings = match_top_level(&src, tail_pat, &Bindings::new());
        assert_eq!(bindings.len(), 1);

        let mut dst = ObjectStore::with_oid_prefix("cp");
        let mut ctor = Constructor::new(&src);
        let id = ctor
            .construct_head(&rule.head, &bindings[0], &mut dst)
            .unwrap();
        assert_eq!(
            compact(&dst, id),
            "<cs_person {<name 'Joe Chung'> <rel 'employee'> <e_mail 'chung@cs'>}>"
        );
        assert_eq!(dst.top_level(), &[id]);
    }

    #[test]
    fn head_var_copies_whole_object() {
        let src = src_store();
        let rule = parse_rule("X :- X:<person {<name N>}>@whois").unwrap();
        let tail_pat = match &rule.tail[0] {
            TailItem::Match { pattern, .. } => pattern,
            _ => panic!(),
        };
        let bindings = match_top_level(&src, tail_pat, &Bindings::new());
        let mut dst = ObjectStore::new();
        let mut ctor = Constructor::new(&src);
        let id = ctor
            .construct_head(&rule.head, &bindings[0], &mut dst)
            .unwrap();
        assert!(oem::eq::struct_eq_cross(&src, src.top_level()[0], &dst, id));
    }

    #[test]
    fn semantic_oids_fuse_subobjects() {
        let src = src_store();
        let mut dst = ObjectStore::new();
        let mut ctor = Constructor::new(&src);

        let head = match parse_rule("<pid(N) out {<name N> <src S>}> :- <p {<x N>}>@s")
            .unwrap()
            .head
        {
            msl::Head::Pattern(p) => p,
            _ => panic!(),
        };
        let b1 = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::str("Ann")))
            .unwrap()
            .bind(sym("S"), BoundValue::Atom(Value::str("whois")))
            .unwrap();
        let b2 = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::str("Ann")))
            .unwrap()
            .bind(sym("S"), BoundValue::Atom(Value::str("cs")))
            .unwrap();
        let id1 = ctor.construct_pattern(&head, &b1, &mut dst).unwrap();
        let id2 = ctor.construct_pattern(&head, &b2, &mut dst).unwrap();
        assert_eq!(id1, id2, "same semantic oid must fuse");
        // Fused object has name + both src subobjects (name deduplicated).
        assert_eq!(dst.children(id1).len(), 3);

        let b3 = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::str("Bob")))
            .unwrap()
            .bind(sym("S"), BoundValue::Atom(Value::str("cs")))
            .unwrap();
        let id3 = ctor.construct_pattern(&head, &b3, &mut dst).unwrap();
        assert_ne!(id1, id3, "different semantic oids stay separate");
    }

    #[test]
    fn fusion_conflict_on_labels() {
        let src = ObjectStore::new();
        let mut dst = ObjectStore::new();
        let mut ctor = Constructor::new(&src);
        let h1 = match parse_rule("<k(N) a {<n N>}> :- <p {<n N>}>@s")
            .unwrap()
            .head
        {
            msl::Head::Pattern(p) => p,
            _ => panic!(),
        };
        let h2 = match parse_rule("<k(N) b {<n N>}> :- <p {<n N>}>@s")
            .unwrap()
            .head
        {
            msl::Head::Pattern(p) => p,
            _ => panic!(),
        };
        let b = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::str("x")))
            .unwrap();
        ctor.construct_pattern(&h1, &b, &mut dst).unwrap();
        let err = ctor.construct_pattern(&h2, &b, &mut dst).unwrap_err();
        assert!(matches!(err, ConstructError::FusionConflict(_)));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let src = ObjectStore::new();
        let mut dst = ObjectStore::new();
        let mut ctor = Constructor::new(&src);
        let head = match parse_rule("<out {<n N>}> :- <p {<n N>}>@s").unwrap().head {
            msl::Head::Pattern(p) => p,
            _ => panic!(),
        };
        let err = ctor
            .construct_pattern(&head, &Bindings::new(), &mut dst)
            .unwrap_err();
        assert_eq!(err, ConstructError::UnboundVariable(sym("N")));
    }

    #[test]
    fn shared_source_objects_stay_shared() {
        let mut src = ObjectStore::new();
        let shared = src.atom("addr", "Gates");
        let p1 = src.set("person", vec![shared]);
        let p2 = src.set("person", vec![shared]);
        src.add_top(p1);
        src.add_top(p2);

        let mut dst = ObjectStore::new();
        let mut ctor = Constructor::new(&src);
        let rule = parse_rule("X :- X:<person {}>@s").unwrap();
        let tail_pat = match &rule.tail[0] {
            TailItem::Match { pattern, .. } => pattern,
            _ => panic!(),
        };
        for b in match_top_level(&src, tail_pat, &Bindings::new()) {
            ctor.construct_head(&rule.head, &b, &mut dst).unwrap();
        }
        // 2 persons + 1 shared address object.
        assert_eq!(dst.len(), 3);
    }

    #[test]
    fn atoms_and_sets_in_head_values() {
        let src = ObjectStore::new();
        let mut dst = ObjectStore::new();
        let mut ctor = Constructor::new(&src);
        let head = match parse_rule("<out {<a 1> <b {<c 'x'>}>}> :- <p {<q Q>}>@s")
            .unwrap()
            .head
        {
            msl::Head::Pattern(p) => p,
            _ => panic!(),
        };
        let id = ctor
            .construct_pattern(&head, &Bindings::new(), &mut dst)
            .unwrap();
        assert_eq!(compact(&dst, id), "<out {<a 1> <b {<c 'x'>}>}>");
    }
}
