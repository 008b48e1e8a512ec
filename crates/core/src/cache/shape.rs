//! The structural key of a source query: what the hot tier's probes and
//! the server's coalescing compare.
//!
//! A [`QueryShape`] is the canonical rule behind [`super::canonical_key`]
//! kept as tokens instead of text: a pre-order walk of the rule in which
//! set elements, rest conditions and tail items are sorted by a structural
//! order with variables masked, and every variable — and every
//! `bind_for_<var>` carrier label that embeds one — is numbered by its
//! first occurrence. Constants keep their value type, so `3`, `3.0` and
//! `'3'` shape apart. The walk prints nothing and interns nothing; the
//! tokens are hashed once, and shapes compare by hash, then by tokens.
//!
//! Two rules have equal shapes exactly when their canonical keys are equal
//! text, except in corners no planned query reaches, where the shape is the
//! finer of the two: a constant `'bind_for_CV0'` against a carrier renamed
//! to it, and reals that print alike (`NaN` payloads).
//!
//! Equal shapes mean the two queries differ only in variable names and in
//! the order of their sets and conjuncts, so zipping their
//! [`QueryShape::vars`] maps one onto the other. The order the tokens sort
//! by follows the interner's numbering, so a shape means nothing outside the
//! process that made it; the warm tier stores the printed key.

use msl::{Head, PatValue, Pattern, Rule, SetElem, TailItem, Term};
use oem::store::FxHasher;
use oem::{Symbol, Value};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// One node of the walk. Each token says which optional fields and how
/// many children follow it, so no token sequence is a prefix of another
/// rule's.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
enum Tok {
    /// A pattern; an object variable, an oid and a type follow it (before
    /// and after its label) when flagged.
    Pattern {
        obj_var: bool,
        oid: bool,
        typ: bool,
    },
    /// A set value of `elements` members, then, with `rest`, the rest
    /// variable and that many conditions.
    Set {
        elements: u32,
        rest: Option<u32>,
    },
    /// `*` before a set member's pattern.
    Wildcard,
    /// A variable: its index among the rule's variables while the walk
    /// sorts, its position in [`QueryShape::vars`] once done.
    Var(u32),
    /// A `bind_for_<var>` carrier label, numbered like its variable.
    Carrier(u32),
    Str(Symbol),
    Int(i64),
    Real(u64),
    Bool(bool),
    Param(Symbol),
    /// A function term and its arity.
    Func(Symbol, u32),
    /// A tail match against a source.
    Match(Option<Symbol>),
    /// An external predicate and its arity.
    External(Symbol, u32),
}

/// A source query's canonical structure; see the module documentation.
#[derive(Clone, Debug)]
pub struct QueryShape {
    hash: u64,
    toks: Box<[Tok]>,
    vars: Box<[Symbol]>,
}

impl PartialEq for QueryShape {
    fn eq(&self, other: &QueryShape) -> bool {
        self.hash == other.hash && self.toks == other.toks
    }
}

impl Eq for QueryShape {}

impl Hash for QueryShape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl QueryShape {
    /// The shape of `query`, in one walk.
    pub fn of(query: &Rule) -> QueryShape {
        let mut names = Vec::with_capacity(16);
        query.head.collect_vars(&mut names);
        query.tail.iter().for_each(|t| t.collect_vars(&mut names));
        // Keep first occurrences only: a carrier label is matched against
        // each name by text.
        let mut kept = 0;
        for i in 0..names.len() {
            if !names[..kept].contains(&names[i]) {
                names[kept] = names[i];
                kept += 1;
            }
        }
        names.truncate(kept);
        let mut walk = Walk {
            names: &names,
            toks: Vec::with_capacity(64),
            starts: Vec::new(),
            order: Vec::new(),
            moved: Vec::new(),
        };
        match &query.head {
            Head::Var(v) => walk.var(*v),
            Head::Pattern(p) => walk.pattern(p),
        }
        for t in &query.tail {
            walk.starts.push(walk.toks.len());
            match t {
                TailItem::Match { pattern, source } => {
                    walk.toks.push(Tok::Match(*source));
                    walk.pattern(pattern);
                }
                TailItem::External { name, args } => {
                    walk.toks.push(Tok::External(*name, args.len() as u32));
                    args.iter().for_each(|a| walk.term(a));
                }
            }
        }
        walk.sort_from(0);
        // Number the variables by first occurrence in the sorted walk.
        let mut toks = walk.toks;
        let mut number = vec![u32::MAX; names.len()];
        let mut vars = Vec::new();
        for tok in &mut toks {
            if let Tok::Var(i) | Tok::Carrier(i) = tok {
                let n = &mut number[*i as usize];
                if *n == u32::MAX {
                    *n = vars.len() as u32;
                    vars.push(names[*i as usize]);
                }
                *i = *n;
            }
        }
        let mut hasher = FxHasher::default();
        toks.hash(&mut hasher);
        QueryShape {
            hash: hasher.finish(),
            toks: toks.into_boxed_slice(),
            vars: vars.into_boxed_slice(),
        }
    }

    /// The query's variables, numbered as the shape numbers them: two
    /// equal shapes' lists, zipped, map one query's variables onto the
    /// other's.
    pub fn vars(&self) -> &[Symbol] {
        &self.vars
    }
}

/// The walk's state: the rule's variables (with repeats, first occurrence
/// counts), the tokens so far, and scratch reused by every sort.
struct Walk<'n> {
    names: &'n [Symbol],
    toks: Vec<Tok>,
    /// Where each member of the sets being walked starts, innermost last.
    starts: Vec<usize>,
    order: Vec<usize>,
    moved: Vec<Tok>,
}

impl Walk<'_> {
    fn index(&self, v: Symbol) -> u32 {
        self.names.iter().position(|&n| n == v).unwrap_or(0) as u32
    }

    fn var(&mut self, v: Symbol) {
        let i = self.index(v);
        self.toks.push(Tok::Var(i));
    }

    fn term(&mut self, t: &Term) {
        let tok = match t {
            Term::Var(v) => Tok::Var(self.index(*v)),
            Term::Const(Value::Str(s)) => match self.carrier(*s) {
                Some(i) => Tok::Carrier(i),
                None => Tok::Str(*s),
            },
            Term::Const(Value::Int(i)) => Tok::Int(*i),
            Term::Const(Value::RealBits(b)) => Tok::Real(*b),
            Term::Const(Value::Bool(b)) => Tok::Bool(*b),
            // No parsed rule holds a set constant; it shapes as `{}`.
            Term::Const(Value::Set(_)) => Tok::Set {
                elements: 0,
                rest: None,
            },
            Term::Param(p) => Tok::Param(*p),
            Term::Func(f, args) => {
                self.toks.push(Tok::Func(*f, args.len() as u32));
                args.iter().for_each(|a| self.term(a));
                return;
            }
        };
        self.toks.push(tok);
    }

    /// The variable a `bind_for_<var>` label embeds, when `<var>` is one of
    /// the rule's: matched by text, so nothing is interned.
    fn carrier(&self, s: Symbol) -> Option<u32> {
        s.with_str(|text| {
            let suffix = text.strip_prefix("bind_for_")?;
            let i = self
                .names
                .iter()
                .position(|n| n.with_str(|n| n == suffix))?;
            Some(i as u32)
        })
    }

    fn pattern(&mut self, p: &Pattern) {
        self.toks.push(Tok::Pattern {
            obj_var: p.obj_var.is_some(),
            oid: p.oid.is_some(),
            typ: p.typ.is_some(),
        });
        if let Some(v) = p.obj_var {
            self.var(v);
        }
        if let Some(t) = &p.oid {
            self.term(t);
        }
        self.term(&p.label);
        if let Some(t) = &p.typ {
            self.term(t);
        }
        let sp = match &p.value {
            PatValue::Term(t) => return self.term(t),
            PatValue::Set(sp) => sp,
        };
        self.toks.push(Tok::Set {
            elements: sp.elements.len() as u32,
            rest: sp.rest.as_ref().map(|r| r.conditions.len() as u32),
        });
        let base = self.starts.len();
        for e in &sp.elements {
            self.starts.push(self.toks.len());
            match e {
                SetElem::Pattern(q) => self.pattern(q),
                SetElem::Wildcard(q) => {
                    self.toks.push(Tok::Wildcard);
                    self.pattern(q);
                }
                SetElem::Var(v) => self.var(*v),
            }
        }
        self.sort_from(base);
        if let Some(r) = &sp.rest {
            self.var(r.var);
            for c in &r.conditions {
                self.starts.push(self.toks.len());
                self.pattern(c);
            }
            self.sort_from(base);
        }
    }

    /// Sort the members that start at `starts[base..]` and end with the
    /// tokens, stably, by their masked tokens; then forget them.
    fn sort_from(&mut self, base: usize) {
        let Walk {
            toks,
            starts,
            order,
            moved,
            ..
        } = self;
        let members = &starts[base..];
        if members.len() > 1 {
            let end = toks.len();
            let span = |k: usize| members[k]..members.get(k + 1).copied().unwrap_or(end);
            order.clear();
            order.extend(0..members.len());
            order.sort_by(|&a, &b| masked_cmp(&toks[span(a)], &toks[span(b)]));
            if order.iter().enumerate().any(|(i, &k)| i != k) {
                moved.clear();
                for &k in order.iter() {
                    moved.extend_from_slice(&toks[span(k)]);
                }
                toks[members[0]..].copy_from_slice(moved.as_slice());
            }
        }
        starts.truncate(base);
    }
}

/// Token order with every variable and carrier label alike: the order
/// `canonical_key` sorts by its variable-masked text, up to which of two
/// unequal members comes first.
fn masked_cmp(a: &[Tok], b: &[Tok]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = match (x, y) {
            (Tok::Var(_), Tok::Var(_)) | (Tok::Carrier(_), Tok::Carrier(_)) => Ordering::Equal,
            _ => x.cmp(y),
        };
        if o.is_ne() {
            return o;
        }
    }
    a.len().cmp(&b.len())
}
