//! OEM values and types.
//!
//! A value is either atomic (`string`, `integer`, `real`, `boolean`) or a
//! `set` of subobject references. The paper's figures use exactly these
//! types (e.g. `<&y2, year, integer, 3>`).

use crate::store::ObjId;
use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::fmt;

/// The type tag of an OEM object, as written in the third field of the
/// textual syntax: `<&12, department, string, 'CS'>`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OemType {
    /// `string`
    Str,
    /// `integer`
    Int,
    /// `real`
    Real,
    /// `boolean`
    Bool,
    /// `set` — the value is a set of subobject ids.
    Set,
}

impl OemType {
    /// The keyword used in the textual syntax.
    pub fn keyword(&self) -> &'static str {
        match self {
            OemType::Str => "string",
            OemType::Int => "integer",
            OemType::Real => "real",
            OemType::Bool => "boolean",
            OemType::Set => "set",
        }
    }

    /// Parse a type keyword. Accepts the long names used in the paper plus
    /// common abbreviations (`int`, `str`, `bool`).
    pub fn from_keyword(kw: &str) -> Option<OemType> {
        Some(match kw {
            "string" | "str" => OemType::Str,
            "integer" | "int" => OemType::Int,
            "real" | "float" | "double" => OemType::Real,
            "boolean" | "bool" => OemType::Bool,
            "set" => OemType::Set,
            _ => return None,
        })
    }
}

impl fmt::Display for OemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for OemType {
    fn to_value(&self) -> serde::Value {
        serde::Value::from(self.keyword())
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for OemType {
    fn from_value(v: &serde::Value) -> std::result::Result<OemType, serde::Error> {
        let kw = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected OEM type keyword"))?;
        OemType::from_keyword(kw)
            .ok_or_else(|| serde::Error::custom(format!("unknown OEM type keyword '{kw}'")))
    }
}

/// The value of an OEM object.
///
/// `Real` is stored as raw bits so that `Value` can implement `Eq`/`Hash`
/// (needed by duplicate elimination); use [`Value::real`] and
/// [`Value::as_real`] for the numeric view. Strings are interned
/// [`Symbol`]s.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// An atomic string, e.g. `'Joe Chung'`.
    Str(Symbol),
    /// An atomic integer, e.g. `3`.
    Int(i64),
    /// An atomic real, stored as IEEE-754 bits.
    RealBits(u64),
    /// An atomic boolean.
    Bool(bool),
    /// A set of subobjects, e.g. `{&n1,&d1}`. Order is preserved for
    /// printing, but set semantics (duplicate elimination, containment)
    /// ignore it.
    Set(Vec<ObjId>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Symbol::intern(s))
    }

    /// Construct a real value from an `f64`.
    pub fn real(x: f64) -> Value {
        Value::RealBits(x.to_bits())
    }

    /// Construct an empty set value.
    pub fn empty_set() -> Value {
        Value::Set(Vec::new())
    }

    /// The OEM type of this value.
    pub fn oem_type(&self) -> OemType {
        match self {
            Value::Str(_) => OemType::Str,
            Value::Int(_) => OemType::Int,
            Value::RealBits(_) => OemType::Real,
            Value::Bool(_) => OemType::Bool,
            Value::Set(_) => OemType::Set,
        }
    }

    /// Is this an atomic (non-set) value?
    pub fn is_atomic(&self) -> bool {
        !matches!(self, Value::Set(_))
    }

    /// The numeric view of a real value.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::RealBits(b) => Some(f64::from_bits(*b)),
            _ => None,
        }
    }

    /// The string symbol, if this is a string value.
    pub fn as_str_sym(&self) -> Option<Symbol> {
        match self {
            Value::Str(s) => Some(*s),
            _ => None,
        }
    }

    /// The integer, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The subobject ids, if this is a set value.
    pub fn as_set(&self) -> Option<&[ObjId]> {
        match self {
            Value::Set(ids) => Some(ids),
            _ => None,
        }
    }

    /// Mutable subobject ids, if this is a set value.
    pub fn as_set_mut(&mut self) -> Option<&mut Vec<ObjId>> {
        match self {
            Value::Set(ids) => Some(ids),
            _ => None,
        }
    }

    /// Compare two *atomic* values numerically / lexicographically.
    ///
    /// Cross-type numeric comparison (`Int` vs `Real`) promotes to `f64`.
    /// Non-comparable combinations (e.g. a string against an integer, or
    /// anything involving a set) return `None` — MSL predicates over such
    /// pairs simply fail rather than erroring, mirroring the "no erroneous
    /// or unexpected results on irregular data" stance of the paper.
    pub fn compare_atomic(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => {
                if a == b {
                    Some(Ordering::Equal)
                } else {
                    a.with_str(|sa| b.with_str(|sb| sa.partial_cmp(sb)))
                }
            }
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::RealBits(_), Value::RealBits(_))
            | (Value::Int(_), Value::RealBits(_))
            | (Value::RealBits(_), Value::Int(_)) => {
                let fa = self.to_f64()?;
                let fb = other.to_f64()?;
                fa.partial_cmp(&fb)
            }
            _ => None,
        }
    }

    fn to_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::RealBits(b) => Some(f64::from_bits(*b)),
            _ => None,
        }
    }

    /// Render an atomic value in the textual syntax (`'CS'`, `3`, `2.5`,
    /// `true`). Panics on sets — callers render sets structurally.
    pub fn render_atomic(&self) -> String {
        let mut out = String::new();
        let _ = self.write_atomic(&mut out);
        out
    }

    /// Write [`Value::render_atomic`]'s text to `out`, piece by piece: a
    /// string is quoted with `\` and `'` escaped, a real that is a whole
    /// number keeps one decimal (`3.0`). Panics on sets.
    pub fn write_atomic<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Value::Str(s) => s.with_str(|v| {
                out.write_char('\'')?;
                let mut rest = v;
                while let Some(at) = rest.find(['\\', '\'']) {
                    out.write_str(&rest[..at])?;
                    out.write_char('\\')?;
                    out.write_str(&rest[at..=at])?;
                    rest = &rest[at + 1..];
                }
                out.write_str(rest)?;
                out.write_char('\'')
            }),
            Value::Int(i) => {
                if *i < 0 {
                    out.write_char('-')?;
                }
                write_decimal(out, i.unsigned_abs())
            }
            Value::RealBits(b) => {
                let x = f64::from_bits(*b);
                if x == x.trunc() && x.is_finite() {
                    write!(out, "{x:.1}")
                } else {
                    write!(out, "{x}")
                }
            }
            Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Value::Set(_) => panic!("render_atomic called on a set value"),
        }
    }
}

/// Write `n` in decimal, without the formatting machinery.
pub(crate) fn write_decimal<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::str(&s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::real(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Value {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_of_values() {
        assert_eq!(Value::str("CS").oem_type(), OemType::Str);
        assert_eq!(Value::Int(3).oem_type(), OemType::Int);
        assert_eq!(Value::real(2.5).oem_type(), OemType::Real);
        assert_eq!(Value::Bool(true).oem_type(), OemType::Bool);
        assert_eq!(Value::empty_set().oem_type(), OemType::Set);
    }

    #[test]
    fn type_keywords_roundtrip() {
        for t in [
            OemType::Str,
            OemType::Int,
            OemType::Real,
            OemType::Bool,
            OemType::Set,
        ] {
            assert_eq!(OemType::from_keyword(t.keyword()), Some(t));
        }
        assert_eq!(OemType::from_keyword("int"), Some(OemType::Int));
        assert_eq!(OemType::from_keyword("frobnicate"), None);
    }

    #[test]
    fn string_equality_via_interning() {
        assert_eq!(Value::str("Joe Chung"), Value::str("Joe Chung"));
        assert_ne!(Value::str("Joe Chung"), Value::str("Nick Naive"));
    }

    #[test]
    fn compare_numeric_promotion() {
        assert_eq!(
            Value::Int(3).compare_atomic(&Value::real(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).compare_atomic(&Value::real(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::real(4.0).compare_atomic(&Value::Int(3)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn compare_strings_lexicographic() {
        assert_eq!(
            Value::str("abc").compare_atomic(&Value::str("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("same").compare_atomic(&Value::str("same")),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn incomparable_pairs_return_none() {
        assert_eq!(Value::str("3").compare_atomic(&Value::Int(3)), None);
        assert_eq!(Value::Bool(true).compare_atomic(&Value::Int(1)), None);
        assert_eq!(Value::empty_set().compare_atomic(&Value::Int(1)), None);
    }

    #[test]
    fn render_atomic_forms() {
        assert_eq!(Value::str("CS").render_atomic(), "'CS'");
        assert_eq!(Value::Int(3).render_atomic(), "3");
        assert_eq!(Value::real(2.5).render_atomic(), "2.5");
        assert_eq!(Value::real(2.0).render_atomic(), "2.0");
        assert_eq!(Value::Bool(false).render_atomic(), "false");
    }

    #[test]
    fn render_escapes_quotes() {
        assert_eq!(Value::str("O'Neil").render_atomic(), "'O\\'Neil'");
        assert_eq!(Value::str("\\'x\\").render_atomic(), "'\\\\\\'x\\\\'");
        assert_eq!(Value::Int(i64::MIN).render_atomic(), i64::MIN.to_string());
        assert_eq!(Value::Int(0).render_atomic(), "0");
    }

    #[test]
    fn real_equality_is_bitwise() {
        assert_eq!(Value::real(1.5), Value::real(1.5));
        // NaN == NaN under bitwise semantics (needed for Hash/Eq coherence).
        assert_eq!(Value::real(f64::NAN), Value::real(f64::NAN));
    }

    #[test]
    fn set_accessors() {
        let mut v = Value::Set(vec![ObjId::from_raw(0), ObjId::from_raw(1)]);
        assert_eq!(v.as_set().unwrap().len(), 2);
        v.as_set_mut().unwrap().push(ObjId::from_raw(2));
        assert_eq!(v.as_set().unwrap().len(), 3);
        assert!(!v.is_atomic());
    }
}
