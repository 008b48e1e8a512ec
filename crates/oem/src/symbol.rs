//! Global string interner.
//!
//! Labels, object-ids, variable names and string atoms all flow between the
//! MSL front end, the matching engine, wrappers and the datamerge engine.
//! Interning them once in a process-wide table makes every comparison an
//! integer compare and lets objects be copied between [`crate::ObjectStore`]s
//! without re-hashing strings.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned string. Cheap to copy, hash and compare.
///
/// Two `Symbol`s are equal iff the strings they intern are equal. The
/// interner is global and append-only; symbols are never freed (acceptable
/// for a query processor whose vocabulary is bounded by the data it touches).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    /// Interned strings, each stored once and leaked: the interner is
    /// append-only and never frees, so a `&'static str` can leave the lock.
    strings: Vec<&'static str>,
    lookup: HashMap<&'static str, u32>,
}

static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();

fn interner() -> &'static RwLock<Interner> {
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            strings: Vec::with_capacity(1024),
            lookup: HashMap::with_capacity(1024),
        })
    })
}

impl Symbol {
    /// Intern `s`, returning its unique symbol.
    pub fn intern(s: &str) -> Symbol {
        // Fast path: the symbol already exists.
        {
            let guard = interner().read();
            if let Some(&id) = guard.lookup.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.lookup.get(s) {
            return Symbol(id);
        }
        let id = guard.strings.len() as u32;
        let leaked: &'static str = Box::leak(s.into());
        guard.strings.push(leaked);
        guard.lookup.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string, as an owned `String`. Symbol-to-symbol
    /// comparisons never need this.
    pub fn as_str(&self) -> String {
        self.with_str(str::to_string)
    }

    /// Run `f` over the interned string without allocating. The read lock
    /// is released before `f` runs, so `f` may itself use the interner:
    /// nested reads with a writer queued between them would deadlock.
    pub fn with_str<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        let s: &'static str = interner().read().strings[self.0 as usize];
        f(s)
    }

    /// Compare two symbols by the strings they intern, without allocating
    /// (`Ord` on `Symbol` compares interning order instead).
    pub fn cmp_str(&self, other: &Symbol) -> std::cmp::Ordering {
        self.with_str(|a| other.with_str(|b| a.cmp(b)))
    }

    /// The raw interner index. Only meaningful within this process.
    pub fn index(&self) -> u32 {
        self.0
    }

    /// How many strings the process has interned so far. The interner
    /// never frees one, so this only grows.
    pub fn interned() -> usize {
        interner().read().strings.len()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| f.write_str(s))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| write!(f, "Symbol({s:?})"))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for Symbol {
    fn to_value(&self) -> serde::Value {
        self.with_str(|s| serde::Value::from(s))
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for Symbol {
    fn from_value(v: &serde::Value) -> std::result::Result<Symbol, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected string symbol"))?;
        Ok(Symbol::intern(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("person");
        let b = Symbol::intern("person");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("employee"), Symbol::intern("student"));
    }

    #[test]
    fn roundtrip() {
        let s = Symbol::intern("Joe Chung");
        assert_eq!(s.as_str(), "Joe Chung");
        s.with_str(|v| assert_eq!(v, "Joe Chung"));
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::intern("dept");
        assert_eq!(format!("{s}"), "dept");
        assert_eq!(format!("{s:?}"), "Symbol(\"dept\")");
    }

    #[test]
    fn empty_string_is_internable() {
        let s = Symbol::intern("");
        assert_eq!(s.as_str(), "");
        assert_eq!(s, Symbol::intern(""));
    }

    #[test]
    fn unicode_strings() {
        let s = Symbol::intern("Ψάρι—魚");
        assert_eq!(s.as_str(), "Ψάρι—魚");
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "x".into();
        let b: Symbol = String::from("x").into();
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| Symbol::intern(&format!("concurrent-{}", (i + t) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must agree on the symbol for each string.
        for i in 0..50 {
            let expect = Symbol::intern(&format!("concurrent-{i}"));
            for syms in &all {
                assert!(syms.contains(&expect));
            }
        }
    }
}
