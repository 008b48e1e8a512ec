//! A value index over a store's top-level objects.
//!
//! A lookup such as `<person {<name 'Joe Chung'> <dept 'CS'>}>` can only
//! match a top-level object holding a `name` child equal to
//! `'Joe Chung'`. The index maps each (child label, [`atomic_key`] of the
//! child's value) to the ascending positions in `top_level()` of the
//! objects holding such a child, so the matcher confirms those candidates
//! instead of scanning every object. Set-valued children are not indexed.
//!
//! It is one flat sorted vector searched with `partition_point`: smaller
//! than a map of posting lists, and a posting list is a slice of it.
//!
//! The answer cache indexes the atom columns of a cached answer's rows
//! through the same builder ([`ValueIndex::from_triples`]), a column's
//! variable standing for the label.

use engine::bindings::{Bindings, BoundValue};
use engine::matcher::atomic_key;
use msl::{PatValue, Pattern, SetElem, Term};
use oem::{ObjectStore, Symbol, Value};
use std::collections::BTreeMap;

/// An atomic value under [`atomic_key`], in a form that sorts: a string by
/// its symbol, a number by the bits of its key real (so `3` and `3.0`
/// share one), a boolean by itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Key {
    Bool(bool),
    Num(u64),
    Str(Symbol),
}

impl Key {
    /// The key of an atomic value; `None` for a set.
    fn of(v: &Value) -> Option<Key> {
        if !v.is_atomic() {
            return None;
        }
        Some(match atomic_key(v) {
            Value::Str(s) => Key::Str(s),
            Value::RealBits(bits) => Key::Num(bits),
            Value::Bool(b) => Key::Bool(b),
            // `atomic_key` keys every number as a real.
            Value::Int(_) | Value::Set(_) => unreachable!("atomic_key({v:?})"),
        })
    }
}

/// One top-level object holding a child `label` whose value has `key`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Posting {
    label: Symbol,
    key: Key,
    /// The object's position in `top_level()`.
    pub(crate) pos: u32,
}

/// The value index of one store (see the module docs).
pub struct ValueIndex {
    /// Sorted by (label, key, position), without repeats.
    postings: Vec<Posting>,
}

impl ValueIndex {
    /// Index every atomic child of every top-level object of `store`.
    pub fn build(store: &ObjectStore) -> ValueIndex {
        let tops = store.top_level().iter().enumerate();
        ValueIndex::from_triples(tops.flat_map(|(pos, &top)| {
            store.children(top).iter().map(move |&c| {
                let child = store.get(c);
                (pos, child.label, &child.value)
            })
        }))
    }

    /// Index `(position, label, value)` triples, each saying the object at
    /// `position` holds `value` under `label`. Sets are not indexed.
    pub fn from_triples<'a, I>(triples: I) -> ValueIndex
    where
        I: Iterator<Item = (usize, Symbol, &'a Value)> + Clone,
    {
        let keyed = triples.filter_map(|(pos, label, value)| {
            let pos = u32::try_from(pos).expect("positions fit a u32, as object ids do");
            Some(Posting {
                label,
                key: Key::of(value)?,
                pos,
            })
        });
        // Sized once: growing by doubling would hold two copies at a time.
        let mut postings = Vec::with_capacity(keyed.clone().count());
        postings.extend(keyed);
        postings.sort_unstable();
        postings.dedup();
        ValueIndex { postings }
    }

    /// The ascending positions in `top_level()` of the objects holding a
    /// child `label` whose value may equal `value` (a candidate to confirm
    /// with [`engine::matcher::atomic_eq`]: unequal values can share a
    /// key). Empty for a set.
    pub fn positions(
        &self,
        label: Symbol,
        value: &Value,
    ) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.postings(label, value).iter().map(|p| p.pos as usize)
    }

    /// The objects holding a child `label` whose value may equal `value`,
    /// in `top_level()` order. Unequal values can share a key (integers
    /// beyond 2^53), so these are candidates for the matcher to confirm.
    fn postings(&self, label: Symbol, value: &Value) -> &[Posting] {
        let Some(key) = Key::of(value) else {
            return &[];
        };
        let lo = self
            .postings
            .partition_point(|p| (p.label, p.key) < (label, key));
        let len = self.postings[lo..].partition_point(|p| (p.label, p.key) == (label, key));
        &self.postings[lo..lo + len]
    }

    /// The fewest candidates the index gives for matching `pat` under `b`:
    /// the shortest posting list among `pat`'s probes whose value is a
    /// constant or a variable `b` binds to an atom. `None` when there is no
    /// such probe, and every top-level object is a candidate.
    pub(crate) fn candidates(&self, pat: &Pattern, b: &Bindings) -> Option<&[Posting]> {
        probes(pat)
            .filter_map(|(label, value)| match value {
                Term::Const(c) => Some(self.postings(label, c)),
                Term::Var(v) => match b.get(*v) {
                    Some(BoundValue::Atom(a)) => Some(self.postings(label, a)),
                    _ => None,
                },
                Term::Param(_) | Term::Func(..) => None,
            })
            .min_by_key(|list| list.len())
    }

    /// Distinct values per child label, values compared as the matcher
    /// compares them (`3` is `3.0`).
    pub(crate) fn distinct_values(&self) -> BTreeMap<Symbol, usize> {
        let mut out = BTreeMap::new();
        for run in self
            .postings
            .chunk_by(|a, b| (a.label, a.key) == (b.label, b.key))
        {
            *out.entry(run[0].label).or_insert(0) += 1;
        }
        out
    }
}

/// Whether [`ValueIndex::candidates`] can narrow some pattern of a query
/// whose patterns are matched left to right: one has a probe whose value
/// is a constant or a variable an earlier pattern binds.
pub(crate) fn can_narrow(patterns: &[&Pattern]) -> bool {
    let mut bound = Vec::new();
    patterns.iter().any(|pat| {
        let narrows = probes(pat).any(|(_, value)| match value {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
            Term::Param(_) | Term::Func(..) => false,
        });
        pat.collect_vars(&mut bound);
        narrows
    })
}

/// The children a match of `pat` must hold, as (label, value term): the
/// set pattern's direct element patterns with a constant string label and
/// an atomic value term. Wildcards, label variables and set values give
/// none.
fn probes(pat: &Pattern) -> impl Iterator<Item = (Symbol, &Term)> {
    let elements = match &pat.value {
        PatValue::Set(sp) => &sp.elements[..],
        PatValue::Term(_) => &[],
    };
    elements.iter().filter_map(|e| match e {
        SetElem::Pattern(Pattern {
            label: Term::Const(Value::Str(label)),
            value: PatValue::Term(value),
            ..
        }) => Some((*label, value)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::parser::parse_store;
    use oem::sym;

    fn positions(list: &[Posting]) -> Vec<u32> {
        list.iter().map(|p| p.pos).collect()
    }

    #[test]
    fn postings_are_ascending_unique_and_numerically_keyed() {
        let store = parse_store(
            "<&a, person, set, {<&a1, year, 3> <&a2, year, 3.0> <&a3, name, 'A'>}>
             <&b, person, 'atomic'>
             <&c, person, set, {<&c1, year, 4> <&c2, year, 3> <&c3, tag, set, {}>}>
             <&d, person, set, {<&d1, flag, true> <&d2, zero, -0.0>}>",
        )
        .unwrap();
        let index = ValueIndex::build(&store);
        // Two `year 3` children of &a give one posting; &c's second year.
        assert_eq!(
            positions(index.postings(sym("year"), &Value::real(3.0))),
            [0, 2]
        );
        assert_eq!(positions(index.postings(sym("year"), &Value::Int(4))), [2]);
        assert_eq!(
            positions(index.postings(sym("name"), &Value::str("A"))),
            [0]
        );
        assert_eq!(
            positions(index.postings(sym("flag"), &Value::Bool(true))),
            [3]
        );
        assert_eq!(positions(index.postings(sym("zero"), &Value::Int(0))), [3]);
        assert!(index.postings(sym("name"), &Value::str("B")).is_empty());
        assert!(index.postings(sym("tag"), &Value::empty_set()).is_empty());
        let distinct = index.distinct_values();
        assert_eq!(distinct.get(&sym("year")), Some(&2));
        assert_eq!(distinct.get(&sym("tag")), None);
    }

    #[test]
    fn candidates_take_the_shortest_usable_probe() {
        let store = parse_store(
            "<&a, person, set, {<&a1, name, 'A'> <&a2, dept, 'CS'>}>
             <&b, person, set, {<&b1, name, 'B'> <&b2, dept, 'CS'>}>",
        )
        .unwrap();
        let index = ValueIndex::build(&store);
        let pattern = |q: &str| match msl::parse_query(q).unwrap().tail.remove(0) {
            msl::TailItem::Match { pattern, .. } => pattern,
            _ => unreachable!(),
        };
        let found = |q: &str, b: &Bindings| index.candidates(&pattern(q), b).map(positions);
        let none = Bindings::new();
        assert_eq!(
            found("X :- <person {<dept 'CS'> <name 'B'>}>@s", &none),
            Some(vec![1])
        );
        assert_eq!(found("X :- <person {<dept 'EE'>}>@s", &none), Some(vec![]));
        // Unbound variables, label variables and wildcards narrow nothing.
        for q in [
            "X :- <person {<name N>}>@s",
            "X :- <person {<L 'A'>}>@s",
            "X :- <person {* <name 'A'>}>@s",
            "X :- <person V>@s",
        ] {
            assert_eq!(found(q, &none), None, "{q}");
        }
        let bound = none
            .bind(sym("N"), BoundValue::Atom(Value::str("A")))
            .unwrap();
        assert_eq!(found("X :- <person {<name N>}>@s", &bound), Some(vec![0]));
    }

    #[test]
    fn can_narrow_needs_a_constant_or_an_earlier_binding() {
        let patterns = |q: &str| -> Vec<Pattern> {
            msl::parse_query(q)
                .unwrap()
                .tail
                .into_iter()
                .filter_map(|item| match item {
                    msl::TailItem::Match { pattern, .. } => Some(pattern),
                    _ => None,
                })
                .collect()
        };
        let narrows = |q: &str| can_narrow(&patterns(q).iter().collect::<Vec<_>>());
        assert!(narrows("X :- <person {<name 'A'>}>@s"));
        assert!(!narrows("X :- <person {<name N>}>@s"));
        assert!(!narrows(
            "X :- <person {<name N>}>@s AND <dept {<head M>}>@s"
        ));
        assert!(narrows(
            "X :- <person {<name N>}>@s AND <dept {<head N>}>@s"
        ));
    }
}
