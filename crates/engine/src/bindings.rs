//! Variable binding environments.
//!
//! Matching a tail pattern against a source produces a *binding* of the
//! pattern's variables to object components (§2). A variable can bind to:
//!
//! * an **atomic value** — including labels: "we were able simultaneously
//!   to bind variable R to a value in whois and a label in cs" — labels
//!   bind as string values so the two occurrences agree;
//! * an **object** — via the `X:<...>` object-variable syntax;
//! * a **set of objects** — rest variables like `Rest1`, which bind "to the
//!   remaining subobjects".

use oem::{ObjId, Symbol, Value};
use std::fmt;
use std::sync::Arc;

/// What a variable is bound to.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BoundValue {
    /// An atomic value (string, integer, real, boolean). Labels and type
    /// keywords bind as strings.
    Atom(Value),
    /// A whole object (object variables `X:`).
    Obj(ObjId),
    /// A set of objects (rest variables and set-valued variables). Kept
    /// sorted so that equal sets compare equal. Shared: cloning a row
    /// that binds a set bumps a reference count and copies no id.
    ObjSet(Arc<[ObjId]>),
}

impl BoundValue {
    /// Normalize: `ObjSet` contents are sorted and deduplicated. A set
    /// already so is returned as it is, still shared.
    pub fn normalized(self) -> BoundValue {
        match self {
            BoundValue::ObjSet(ids) if !ids.windows(2).all(|w| w[0] < w[1]) => {
                let mut ids = ids.to_vec();
                ids.sort_unstable();
                ids.dedup();
                BoundValue::ObjSet(ids.into())
            }
            other => other,
        }
    }

    /// The atomic value, if this is an atom binding.
    pub fn as_atom(&self) -> Option<&Value> {
        match self {
            BoundValue::Atom(v) => Some(v),
            _ => None,
        }
    }

    /// The object id, if this is an object binding.
    pub fn as_obj(&self) -> Option<ObjId> {
        match self {
            BoundValue::Obj(id) => Some(*id),
            _ => None,
        }
    }

    /// The object set, if this is a set binding.
    pub fn as_obj_set(&self) -> Option<&[ObjId]> {
        match self {
            BoundValue::ObjSet(ids) => Some(ids),
            _ => None,
        }
    }
}

impl fmt::Display for BoundValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundValue::Atom(v) => v.write_atomic(f),
            BoundValue::Obj(id) => write!(f, "{id}"),
            BoundValue::ObjSet(ids) => {
                write!(f, "{{")?;
                for (i, id) in ids.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{id}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// An immutable-by-convention map from variables to bound values: a
/// vector of pairs kept sorted by variable, each variable once. The sorted
/// order is the canonical one (needed for duplicate elimination of
/// solutions and for deterministic plans), so equal bindings compare, hash
/// and print alike whatever order their variables were bound in. Lookups
/// binary-search; a solution binds a handful of variables, so an insert's
/// shift is a short copy.
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct Bindings {
    vars: Vec<(Symbol, BoundValue)>,
}

impl Bindings {
    /// The empty binding.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Is nothing bound?
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Where `var` is, or where it would be inserted.
    fn find(&self, var: Symbol) -> Result<usize, usize> {
        self.vars.binary_search_by(|(v, _)| v.cmp(&var))
    }

    /// Look up a variable.
    pub fn get(&self, var: Symbol) -> Option<&BoundValue> {
        self.find(var).ok().map(|i| &self.vars[i].1)
    }

    /// Is the variable bound?
    pub fn contains(&self, var: Symbol) -> bool {
        self.find(var).is_ok()
    }

    /// Bind `var` to `value`, returning the extended bindings — or `None`
    /// if `var` is already bound to a *different* value (bindings must
    /// agree, §2: "the two bindings agree on the values assigned to common
    /// variables").
    #[must_use]
    pub fn bind(&self, var: Symbol, value: BoundValue) -> Option<Bindings> {
        let mut next = self.clone();
        next.bind_mut(var, value).then_some(next)
    }

    /// In-place variant of [`Bindings::bind`]: extend `self` with
    /// `var = value`, returning `false` (and leaving `self` unchanged) if
    /// `var` is already bound to a different value. Lets hot matcher loops
    /// clone a base binding once and extend it field by field instead of
    /// cloning the whole map per field.
    pub fn bind_mut(&mut self, var: Symbol, value: BoundValue) -> bool {
        let value = value.normalized();
        match self.find(var) {
            Ok(i) => self.vars[i].1 == value,
            Err(i) => {
                self.vars.insert(i, (var, value));
                true
            }
        }
    }

    /// [`Bindings::bind_mut`] for a depth-first search: a fresh binding is
    /// recorded on `trail`, so [`Bindings::undo`] can take it back when the
    /// search backtracks.
    pub fn bind_trailed(
        &mut self,
        var: Symbol,
        value: BoundValue,
        trail: &mut Vec<Symbol>,
    ) -> bool {
        let before = self.len();
        let agrees = self.bind_mut(var, value);
        if self.len() > before {
            trail.push(var);
        }
        agrees
    }

    /// Unbind every variable `trail` recorded after its first `mark`
    /// entries.
    pub fn undo(&mut self, trail: &mut Vec<Symbol>, mark: usize) {
        for var in trail.drain(mark..) {
            if let Ok(i) = self.find(var) {
                self.vars.remove(i);
            }
        }
    }

    /// Rebind an already bound `var` to `value`, returning what it held.
    pub fn replace(&mut self, var: Symbol, value: BoundValue) -> Option<BoundValue> {
        let value = value.normalized();
        match self.find(var) {
            Ok(i) => Some(std::mem::replace(&mut self.vars[i].1, value)),
            Err(i) => {
                self.vars.insert(i, (var, value));
                None
            }
        }
    }

    /// Merge two bindings, failing if they disagree on a common variable.
    /// This is the binding-match step of §2: a whois binding matches a cs
    /// binding if they agree on the shared variables.
    #[must_use]
    pub fn merge(&self, other: &Bindings) -> Option<Bindings> {
        let mut out = self.clone();
        let agree = other
            .iter()
            .all(|(var, val)| out.bind_mut(var, val.clone()));
        agree.then_some(out)
    }

    /// Project onto a set of variables (used before duplicate elimination:
    /// "we first project the bindings of the variables of the tail into
    /// bindings of the variables that appear in the head", §2 footnote 3).
    pub fn project(&self, vars: &[Symbol]) -> Bindings {
        let mut out = self.clone();
        out.retain(vars);
        out
    }

    /// [`Bindings::project`] in place: drop every variable not in `vars`.
    pub fn retain(&mut self, vars: &[Symbol]) {
        self.vars.retain(|(v, _)| vars.contains(v));
    }

    /// Iterate over (variable, value) pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &BoundValue)> {
        self.vars.iter().map(|(k, v)| (*k, v))
    }

    /// The bound variables in canonical order.
    pub fn variables(&self) -> Vec<Symbol> {
        self.vars.iter().map(|(k, _)| *k).collect()
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (var, val)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{var} -> {val}")?;
        }
        write!(f, "]")
    }
}

/// Eliminate duplicate binding sets, preserving first-occurrence order.
/// Hash-based: linear in the input (the paper's dedup semantics applied to
/// potentially large intermediate solution sets). First occurrences are
/// marked over borrowed bindings, so no binding is cloned.
pub fn dedup_bindings(list: Vec<Bindings>) -> Vec<Bindings> {
    let first: Vec<bool> = {
        let mut seen: std::collections::HashSet<&Bindings> =
            std::collections::HashSet::with_capacity(list.len());
        list.iter().map(|b| seen.insert(b)).collect()
    };
    list.into_iter()
        .zip(first)
        .filter_map(|(b, first)| first.then_some(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;

    #[test]
    fn bind_and_get() {
        let b = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::str("Joe Chung")))
            .unwrap();
        assert_eq!(
            b.get(sym("N")),
            Some(&BoundValue::Atom(Value::str("Joe Chung")))
        );
        assert!(b.contains(sym("N")));
        assert!(!b.contains(sym("M")));
    }

    #[test]
    fn rebinding_same_value_ok_different_fails() {
        let b = Bindings::new()
            .bind(sym("R"), BoundValue::Atom(Value::str("employee")))
            .unwrap();
        assert!(b
            .bind(sym("R"), BoundValue::Atom(Value::str("employee")))
            .is_some());
        assert!(b
            .bind(sym("R"), BoundValue::Atom(Value::str("student")))
            .is_none());
    }

    #[test]
    fn merge_agreeing_bindings() {
        // The paper's b_w1 / b_c1 example: both bind R to 'employee'.
        let bw = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::str("Joe Chung")))
            .unwrap()
            .bind(sym("R"), BoundValue::Atom(Value::str("employee")))
            .unwrap();
        let bc = Bindings::new()
            .bind(sym("R"), BoundValue::Atom(Value::str("employee")))
            .unwrap()
            .bind(sym("FN"), BoundValue::Atom(Value::str("Joe")))
            .unwrap();
        let merged = bw.merge(&bc).unwrap();
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn merge_disagreeing_bindings_fails() {
        let bw = Bindings::new()
            .bind(sym("R"), BoundValue::Atom(Value::str("employee")))
            .unwrap();
        let bc = Bindings::new()
            .bind(sym("R"), BoundValue::Atom(Value::str("student")))
            .unwrap();
        assert!(bw.merge(&bc).is_none());
    }

    #[test]
    fn objset_normalization() {
        let a = BoundValue::ObjSet([3, 1, 3].map(ObjId::from_raw).into()).normalized();
        let sorted: Arc<[ObjId]> = [1, 3].map(ObjId::from_raw).into();
        let b = BoundValue::ObjSet(Arc::clone(&sorted)).normalized();
        assert_eq!(a, b);
        // A sorted set stays the one shared allocation.
        let BoundValue::ObjSet(kept) = b else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&kept, &sorted));

        // bind() normalizes automatically, so binding orders agree.
        let b1 = Bindings::new()
            .bind(
                sym("Rest"),
                BoundValue::ObjSet([2, 1].map(ObjId::from_raw).into()),
            )
            .unwrap();
        let b2 = b1.bind(
            sym("Rest"),
            BoundValue::ObjSet([1, 2].map(ObjId::from_raw).into()),
        );
        assert!(b2.is_some());
    }

    #[test]
    fn projection() {
        let b = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::str("x")))
            .unwrap()
            .bind(sym("R"), BoundValue::Atom(Value::str("y")))
            .unwrap();
        let p = b.project(&[sym("N"), sym("Missing")]);
        assert_eq!(p.len(), 1);
        assert!(p.contains(sym("N")));
    }

    #[test]
    fn dedup() {
        let b1 = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::Int(1)))
            .unwrap();
        let b2 = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::Int(1)))
            .unwrap();
        let b3 = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::Int(2)))
            .unwrap();
        let out = dedup_bindings(vec![b1.clone(), b2, b3.clone()]);
        assert_eq!(out, vec![b1, b3]);
    }

    #[test]
    fn bindings_bound_in_any_order_are_equal_and_hash_alike() {
        use std::hash::{BuildHasher, RandomState};
        let pairs = [
            (sym("Zeta"), BoundValue::Atom(Value::Int(1))),
            (sym("Alpha"), BoundValue::Obj(ObjId::from_raw(2))),
            (sym("Mu"), BoundValue::Atom(Value::str("m"))),
        ];
        let mut forward = Bindings::new();
        for (v, val) in &pairs {
            assert!(forward.bind_mut(*v, val.clone()));
        }
        let mut backward = Bindings::new();
        for (v, val) in pairs.iter().rev() {
            backward = backward.bind(*v, val.clone()).unwrap();
        }
        let mut trailed = Bindings::new();
        let mut trail = Vec::new();
        for i in [1, 0, 2] {
            let (v, val) = &pairs[i];
            assert!(trailed.bind_trailed(*v, val.clone(), &mut trail));
        }
        assert_eq!(forward, backward);
        assert_eq!(forward, trailed);
        let state = RandomState::new();
        assert_eq!(state.hash_one(&forward), state.hash_one(&backward));
        assert_eq!(forward.to_string(), backward.to_string());
        let mut canonical = forward.variables();
        canonical.sort();
        assert_eq!(forward.variables(), canonical);
        for (v, val) in &pairs {
            assert_eq!(backward.get(*v), Some(val));
        }
        trailed.undo(&mut trail, 1);
        assert_eq!(trailed.variables(), vec![sym("Alpha")]);
    }

    #[test]
    fn display_forms() {
        let b = Bindings::new()
            .bind(sym("N"), BoundValue::Atom(Value::str("Joe")))
            .unwrap()
            .bind(sym("X"), BoundValue::Obj(ObjId::from_raw(4)))
            .unwrap();
        let s = format!("{b}");
        assert!(s.contains("N -> 'Joe'"));
        assert!(s.contains("X -> #4"));
    }
}
