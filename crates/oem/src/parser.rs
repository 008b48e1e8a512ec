//! Parser for the textual OEM syntax used throughout the paper's figures:
//!
//! ```text
//! <&p1, person, set, {&n1,&d1,&rel1,&elm1}>
//!   <&n1, name, string, 'Joe Chung'>
//!   <&d1, dept, string, 'CS'>
//!   <&rel1, relation, string, 'employee'>
//!   <&elm1, e_mail, string, 'chung@cs'>
//! ;
//! ```
//!
//! Accepted extensions beyond the figures:
//! * the type field may be omitted (inferred from the value);
//! * set members may be inline object literals instead of oid references;
//! * oids may be omitted on inline objects (fresh ones are generated);
//! * commas between set members are optional (the figures omit them after
//!   objects but use them between oid references);
//! * `;` is an ignorable separator.
//!
//! Forward references are allowed — figures list parents before children —
//! and resolution happens after the whole input is read. Objects that are
//! never referenced as a subobject become **top-level** objects, exactly as
//! in the figures where top-level objects are the leftmost-indented ones.

use crate::error::{OemError, Result};
use crate::store::{ObjId, ObjectStore};
use crate::symbol::Symbol;
use crate::value::{OemType, Value};
use std::collections::{HashMap, HashSet};

/// Parse OEM text into a fresh store.
pub fn parse_store(input: &str) -> Result<ObjectStore> {
    let mut store = ObjectStore::new();
    parse_into(input, &mut store)?;
    Ok(store)
}

/// Parse OEM text into an existing store; returns the top-level ids added.
pub fn parse_into(input: &str, store: &mut ObjectStore) -> Result<Vec<ObjId>> {
    let mut p = Parser::new(input);
    let mut entries = Vec::new();
    loop {
        p.skip_ws_and_semis();
        if p.at_end() {
            break;
        }
        entries.push(p.object()?);
    }
    link(entries, store)
}

// ---------------------------------------------------------------------
// Raw parse tree

struct RawObject {
    oid: Option<String>,
    label: String,
    declared_type: Option<OemType>,
    value: RawValue,
    line: usize,
    col: usize,
}

enum RawValue {
    Atom(Value),
    Set(Vec<RawMember>),
}

enum RawMember {
    Ref(String),
    Inline(RawObject),
}

// ---------------------------------------------------------------------
// Linking

fn link(entries: Vec<RawObject>, store: &mut ObjectStore) -> Result<Vec<ObjId>> {
    struct Flat {
        id: ObjId,
        members: Option<Vec<FlatMember>>,
    }
    enum FlatMember {
        Ref(String),
        Direct(ObjId),
    }

    let mut named: HashMap<String, ObjId> = HashMap::new();
    let mut flats: Vec<Flat> = Vec::new();
    let mut outer: Vec<ObjId> = Vec::new();

    // Pass 1: create every object; sets start empty.
    fn insert_one(
        obj: RawObject,
        store: &mut ObjectStore,
        named: &mut HashMap<String, ObjId>,
        flats: &mut Vec<Flat>,
    ) -> Result<ObjId> {
        let label = Symbol::intern(&obj.label);
        let (value, members) = match obj.value {
            RawValue::Atom(v) => {
                if let Some(t) = obj.declared_type {
                    if t != v.oem_type() {
                        return Err(OemError::Parse {
                            msg: format!(
                                "declared type '{}' does not match value of type '{}'",
                                t.keyword(),
                                v.oem_type().keyword()
                            ),
                            line: obj.line,
                            col: obj.col,
                        });
                    }
                }
                (v, None)
            }
            RawValue::Set(members) => {
                if let Some(t) = obj.declared_type {
                    if t != OemType::Set {
                        return Err(OemError::Parse {
                            msg: format!("declared type '{}' but value is a set", t.keyword()),
                            line: obj.line,
                            col: obj.col,
                        });
                    }
                }
                (Value::Set(Vec::new()), Some(members))
            }
        };
        let id = match &obj.oid {
            Some(oid) => {
                let s = Symbol::intern(oid);
                store.insert(s, label, value).map_err(|e| match e {
                    OemError::DuplicateOid(o) => OemError::Parse {
                        msg: format!("duplicate object-id &{o}"),
                        line: obj.line,
                        col: obj.col,
                    },
                    other => other,
                })?
            }
            None => store.insert_auto(label, value),
        };
        if let Some(oid) = obj.oid {
            named.insert(oid, id);
        }
        let flat_members = match members {
            None => None,
            Some(ms) => {
                let mut fm = Vec::with_capacity(ms.len());
                for m in ms {
                    match m {
                        RawMember::Ref(r) => fm.push(FlatMember::Ref(r)),
                        RawMember::Inline(inner) => {
                            let cid = insert_one(inner, store, named, flats)?;
                            fm.push(FlatMember::Direct(cid));
                        }
                    }
                }
                Some(fm)
            }
        };
        flats.push(Flat {
            id,
            members: flat_members,
        });
        Ok(id)
    }

    for obj in entries {
        let id = insert_one(obj, store, &mut named, &mut flats)?;
        outer.push(id);
    }

    // Pass 2: resolve references and record which ids are referenced.
    let mut referenced: HashSet<ObjId> = HashSet::new();
    for flat in &flats {
        let Some(members) = &flat.members else {
            continue;
        };
        let mut kids: Vec<ObjId> = Vec::with_capacity(members.len());
        for m in members {
            let cid = match m {
                FlatMember::Direct(id) => *id,
                FlatMember::Ref(name) => *named
                    .get(name)
                    .ok_or_else(|| OemError::UnresolvedOid(name.clone()))?,
            };
            referenced.insert(cid);
            kids.push(cid);
        }
        *store.get_mut(flat.id).value.as_set_mut().unwrap() = kids;
    }

    // Top-level: outer entries that nobody references.
    let tops: Vec<ObjId> = outer
        .into_iter()
        .filter(|id| !referenced.contains(id))
        .collect();
    for &t in &tops {
        store.add_top(t);
    }
    Ok(tops)
}

// ---------------------------------------------------------------------
// Character-level parser

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    _input: &'a str,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            _input: input,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(OemError::Parse {
            msg: msg.into(),
            line: self.line,
            col: self.col,
        })
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                // Line comments, for test fixtures.
                Some('/') if self.chars.get(self.pos + 1) == Some(&'/') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn skip_ws_and_semis(&mut self) {
        loop {
            self.skip_ws();
            if self.peek() == Some(';') || self.peek() == Some(',') {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: char) -> Result<()> {
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            self.err(format!(
                "expected '{c}', found {}",
                self.peek()
                    .map_or("end of input".to_string(), |x| format!("'{x}'"))
            ))
        }
    }

    fn ident(&mut self) -> Result<String> {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '@' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if s.is_empty() {
            self.err("expected an identifier")
        } else {
            Ok(s)
        }
    }

    /// `<oid?, label, type?, value>`
    fn object(&mut self) -> Result<RawObject> {
        let (line, col) = (self.line, self.col);
        self.expect('<')?;
        self.skip_ws();

        // Optional oid.
        let oid = if self.peek() == Some('&') {
            self.bump();
            Some(self.ident()?)
        } else {
            None
        };
        self.skip_ws();
        if oid.is_some() {
            self.expect(',')?;
            self.skip_ws();
        }

        let label = self.ident()?;
        self.skip_ws();
        self.expect(',')?;
        self.skip_ws();

        // Either "type, value" or just "value". Try to read an identifier
        // and see whether it is a type keyword followed by a comma.
        let declared_type;
        let value;
        if self.peek() == Some('{') {
            declared_type = None;
            value = RawValue::Set(self.set_members()?);
        } else if self.peek() == Some('\'') {
            declared_type = None;
            value = RawValue::Atom(Value::Str(Symbol::intern(&self.quoted()?)));
        } else if self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+')
        {
            declared_type = None;
            value = RawValue::Atom(self.number()?);
        } else {
            // An identifier: a type keyword (followed by a comma) or a bare
            // boolean value.
            let word = self.ident()?;
            self.skip_ws();
            if self.peek() == Some(',') {
                let Some(t) = OemType::from_keyword(&word) else {
                    return self.err(format!("unknown type keyword '{word}'"));
                };
                declared_type = Some(t);
                self.bump(); // ','
                self.skip_ws();
                value = self.value()?;
            } else {
                match word.as_str() {
                    "true" => {
                        declared_type = None;
                        value = RawValue::Atom(Value::Bool(true));
                    }
                    "false" => {
                        declared_type = None;
                        value = RawValue::Atom(Value::Bool(false));
                    }
                    _ => return self.err(format!("unexpected bare word '{word}'")),
                }
            }
        }
        self.skip_ws();
        self.expect('>')?;
        Ok(RawObject {
            oid,
            label,
            declared_type,
            value,
            line,
            col,
        })
    }

    fn value(&mut self) -> Result<RawValue> {
        match self.peek() {
            Some('{') => Ok(RawValue::Set(self.set_members()?)),
            Some('\'') => Ok(RawValue::Atom(Value::Str(Symbol::intern(&self.quoted()?)))),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                Ok(RawValue::Atom(self.number()?))
            }
            Some(c) if c.is_alphabetic() => {
                let word = self.ident()?;
                match word.as_str() {
                    "true" => Ok(RawValue::Atom(Value::Bool(true))),
                    "false" => Ok(RawValue::Atom(Value::Bool(false))),
                    _ => self.err(format!("expected a value, found '{word}'")),
                }
            }
            _ => self.err("expected a value"),
        }
    }

    fn set_members(&mut self) -> Result<Vec<RawMember>> {
        self.expect('{')?;
        let mut members = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(',') {
                self.bump();
                continue;
            }
            match self.peek() {
                Some('}') => {
                    self.bump();
                    return Ok(members);
                }
                Some('&') => {
                    self.bump();
                    members.push(RawMember::Ref(self.ident()?));
                }
                Some('<') => {
                    members.push(RawMember::Inline(self.object()?));
                }
                Some(c) => return self.err(format!("unexpected '{c}' in set value")),
                None => return self.err("unterminated set value"),
            }
        }
    }

    fn quoted(&mut self) -> Result<String> {
        self.expect('\'')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string literal"),
                Some('\\') => match self.bump() {
                    Some('\'') => s.push('\''),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some(c) => return self.err(format!("unknown escape '\\{c}'")),
                    None => return self.err("unterminated escape"),
                },
                Some('\'') => return Ok(s),
                Some(c) => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let mut s = String::new();
        if matches!(self.peek(), Some('-') | Some('+')) {
            s.push(self.bump().unwrap());
        }
        let mut is_real = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.bump();
            } else if c == '.' && !is_real {
                is_real = true;
                s.push(c);
                self.bump();
            } else if (c == 'e' || c == 'E') && !s.is_empty() {
                is_real = true;
                s.push(c);
                self.bump();
                if matches!(self.peek(), Some('-') | Some('+')) {
                    s.push(self.bump().unwrap());
                }
            } else {
                break;
            }
        }
        if is_real {
            // A literal past f64's range parses as infinite, which no
            // printed store can hold.
            match s.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::real(x)),
                _ => self.err(format!("bad real literal '{s}'")),
            }
        } else {
            s.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| self.err(format!("bad integer literal '{s}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym;

    #[test]
    fn parse_figure_2_3_style() {
        let text = "
<&p1, person, set, {&n1,&d1,&rel1,&elm1}>
  <&n1, name, string, 'Joe Chung'>
  <&d1, dept, string, 'CS'>
  <&rel1, relation, string, 'employee'>
  <&elm1, e_mail, string, 'chung@cs'>
<&p2, person, set, {&n2,&d2,&rel2}>
  <&n2, name, string, 'Nick Naive'>
  <&d2, dept, string, 'CS'>
  <&rel2, relation, string, 'student'>
  <&y2, year, integer, 3>
;
";
        let store = parse_store(text).unwrap();
        store.validate().unwrap();
        // &y2 is defined but never referenced: it is its own top-level
        // object (as in the paper, where it is listed but &p2's set does
        // not include it).
        assert_eq!(store.len(), 10);
        let p1 = store.by_oid(sym("p1")).unwrap();
        assert_eq!(store.children(p1).len(), 4);
        let tops = store.top_level();
        assert_eq!(tops.len(), 3); // p1, p2, y2
    }

    #[test]
    fn forward_references_resolve() {
        let text = "<&a, s, set, {&b}> <&b, v, integer, 1>";
        let store = parse_store(text).unwrap();
        let a = store.by_oid(sym("a")).unwrap();
        let b = store.by_oid(sym("b")).unwrap();
        assert_eq!(store.children(a), &[b]);
        assert_eq!(store.top_level(), &[a]);
    }

    #[test]
    fn inline_nested_objects() {
        let text = "<person, {<name, 'Joe'> <dept, 'CS'>}>";
        let store = parse_store(text).unwrap();
        assert_eq!(store.top_level().len(), 1);
        let p = store.top_level()[0];
        assert_eq!(store.get(p).label, sym("person"));
        assert_eq!(store.children(p).len(), 2);
    }

    #[test]
    fn type_field_optional_and_checked() {
        let ok = parse_store("<&a, year, integer, 3>").unwrap();
        let a = ok.by_oid(sym("a")).unwrap();
        assert_eq!(ok.get(a).value, Value::Int(3));

        let err = parse_store("<&a, year, string, 3>").unwrap_err();
        assert!(matches!(err, OemError::Parse { .. }));
    }

    #[test]
    fn all_atomic_types() {
        let store = parse_store(
            "<a, 'x'> <b, 42> <c, -7> <d, 2.5> <e, 1.0e3> <f, true> <g, boolean, false>",
        )
        .unwrap();
        let vals: Vec<Value> = store.iter().map(|(_, o)| o.value.clone()).collect();
        assert!(vals.contains(&Value::str("x")));
        assert!(vals.contains(&Value::Int(42)));
        assert!(vals.contains(&Value::Int(-7)));
        assert!(vals.contains(&Value::real(2.5)));
        assert!(vals.contains(&Value::real(1000.0)));
        assert!(vals.contains(&Value::Bool(true)));
        assert!(vals.contains(&Value::Bool(false)));
    }

    #[test]
    fn string_escapes() {
        let store = parse_store(r"<a, 'O\'Neil \\ line\n'>").unwrap();
        let (_, obj) = store.iter().next().unwrap();
        assert_eq!(obj.value, Value::str("O'Neil \\ line\n"));
    }

    #[test]
    fn non_finite_real_is_a_bad_literal() {
        let err = parse_store("<&a, x, real, 1e999>").unwrap_err();
        assert!(
            err.to_string().contains("bad real literal '1e999'"),
            "{err}"
        );
        assert!(parse_store("<&a, x, real, -1e999>").is_err());
        assert!(parse_store("<&a, x, real, 1e300>").is_ok());
    }

    #[test]
    fn unresolved_reference_is_an_error() {
        let err = parse_store("<&a, s, set, {&missing}>").unwrap_err();
        assert!(matches!(err, OemError::UnresolvedOid(_)));
    }

    #[test]
    fn duplicate_oid_is_an_error() {
        let err = parse_store("<&a, x, 1> <&a, y, 2>").unwrap_err();
        assert!(matches!(err, OemError::Parse { .. }));
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = parse_store("<&a, x, 1>\n  <&b, !>").unwrap_err();
        match err {
            OemError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn comments_and_separators() {
        let store = parse_store("// header\n<&a, x, 1>; <&b, y, 2>,").unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn shared_subobject_in_text() {
        let text = "<&p1, person, set, {&addr}> <&p2, person, set, {&addr}> <&addr, address, string, 'Gates'>";
        let store = parse_store(text).unwrap();
        let p1 = store.by_oid(sym("p1")).unwrap();
        let p2 = store.by_oid(sym("p2")).unwrap();
        assert_eq!(store.children(p1), store.children(p2));
        assert_eq!(store.top_level().len(), 2);
    }

    #[test]
    fn cyclic_text() {
        let store = parse_store("<&a, node, set, {&b}> <&b, node, set, {&a}>").unwrap();
        store.validate().unwrap();
        // Both referenced → no top-level objects.
        assert!(store.top_level().is_empty());
    }

    #[test]
    fn empty_input_is_empty_store() {
        let store = parse_store("  \n ; \n").unwrap();
        assert!(store.is_empty());
    }
}
