//! The MSL abstract syntax tree.

use oem::{Symbol, Value};

/// A term: anything that can fill a pattern field or a predicate argument.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable (identifier starting with an uppercase letter), e.g. `N`.
    Var(Symbol),
    /// An atomic constant: `'Joe Chung'`, `3`, `2.5`, `true`, or a bare
    /// lowercase identifier in label/type position (e.g. `person`), which is
    /// represented as a string constant.
    Const(Value),
    /// A parameter slot `$R` of a parameterized query (§3.4, `Qcs`).
    Param(Symbol),
    /// A function term `f(X, Y)` — a **semantic object-id** in a rule head's
    /// oid position, used for object fusion.
    Func(Symbol, Vec<Term>),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Shorthand for a string constant.
    pub fn str(s: &str) -> Term {
        Term::Const(Value::str(s))
    }

    /// Shorthand for an integer constant.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// Is this term a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self {
            Term::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// The constant value, if this is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Collect every variable occurring in this term into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::Func(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Term::Const(_) | Term::Param(_) => {}
        }
    }
}

/// An object pattern `<oid label type value>` with optional object-variable
/// annotation `X:<...>`.
#[derive(Clone, PartialEq, Debug)]
pub struct Pattern {
    /// `X:` prefix — binds the matched object itself.
    pub obj_var: Option<Symbol>,
    /// The object-id field; `None` means "don't care" (§2: a missing oid in
    /// a tail pattern means we do not care about the source's oids; in a
    /// head pattern, that the mediator may generate arbitrary ones).
    pub oid: Option<Term>,
    /// The label field.
    pub label: Term,
    /// The optional type field.
    pub typ: Option<Term>,
    /// The value field.
    pub value: PatValue,
}

impl Pattern {
    /// A pattern with just label and value (the common 2-field form).
    pub fn lv(label: Term, value: PatValue) -> Pattern {
        Pattern {
            obj_var: None,
            oid: None,
            label,
            typ: None,
            value,
        }
    }

    /// Collect every variable occurring anywhere in the pattern.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        if let Some(v) = self.obj_var {
            out.push(v);
        }
        if let Some(t) = &self.oid {
            t.collect_vars(out);
        }
        self.label.collect_vars(out);
        if let Some(t) = &self.typ {
            t.collect_vars(out);
        }
        self.value.collect_vars(out);
    }
}

/// The value field of a pattern.
#[derive(Clone, PartialEq, Debug)]
pub enum PatValue {
    /// An atomic constant or a variable.
    Term(Term),
    /// A set pattern `{...}` possibly with a rest variable.
    Set(SetPattern),
}

impl PatValue {
    /// Collect variables.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            PatValue::Term(t) => t.collect_vars(out),
            PatValue::Set(sp) => sp.collect_vars(out),
        }
    }

    /// Shorthand: an empty set pattern `{}` with no rest.
    pub fn empty_set() -> PatValue {
        PatValue::Set(SetPattern {
            elements: Vec::new(),
            rest: None,
        })
    }
}

/// A set pattern `{elem elem ... | Rest}`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SetPattern {
    /// The explicit member patterns before `|`.
    pub elements: Vec<SetElem>,
    /// The rest variable after `|`, if any.
    pub rest: Option<RestSpec>,
}

impl SetPattern {
    /// Collect variables.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        for e in &self.elements {
            e.collect_vars(out);
        }
        if let Some(r) = &self.rest {
            out.push(r.var);
            for c in &r.conditions {
                c.collect_vars(out);
            }
        }
    }
}

/// One element of a set pattern.
#[derive(Clone, PartialEq, Debug)]
pub enum SetElem {
    /// A subobject pattern `<name N>`.
    Pattern(Pattern),
    /// A set-valued variable, e.g. `Rest1` appearing inside the head's
    /// braces — its contents are flattened into the constructed set (§2,
    /// "Creation of the Virtual Objects").
    Var(Symbol),
    /// A wildcard subpattern `* <year 3>`: matches when some object at
    /// **any depth** below this object matches the pattern (§2, "Other
    /// Features").
    Wildcard(Pattern),
}

impl SetElem {
    /// Collect variables.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            SetElem::Pattern(p) | SetElem::Wildcard(p) => p.collect_vars(out),
            SetElem::Var(v) => out.push(*v),
        }
    }
}

/// A rest variable with optional attached conditions:
/// `Rest1` or `Rest1:{<year 3>}` (used by the view expander when pushing
/// conditions into rest variables, §3.3).
#[derive(Clone, PartialEq, Debug)]
pub struct RestSpec {
    /// The rest variable binding the remaining subobjects.
    pub var: Symbol,
    /// Conditions some member of the rest must satisfy.
    pub conditions: Vec<Pattern>,
}

impl RestSpec {
    /// A bare rest variable with no conditions.
    pub fn bare(var: Symbol) -> RestSpec {
        RestSpec {
            var,
            conditions: Vec::new(),
        }
    }
}

/// One conjunct of a rule tail.
#[derive(Clone, PartialEq, Debug)]
pub enum TailItem {
    /// Match a pattern against a source (or against the top-level result
    /// when `source` is `None`): `<person {...}>@whois`.
    Match {
        /// The pattern to match.
        pattern: Pattern,
        /// The source it is matched against, from the `@source` annotation.
        source: Option<Symbol>,
    },
    /// An external predicate atom `decomp(N, LN, FN)` — includes the
    /// built-in comparison predicates `eq/neq/lt/le/gt/ge`.
    External {
        /// The predicate name.
        name: Symbol,
        /// Its argument terms.
        args: Vec<Term>,
    },
}

impl TailItem {
    /// Collect variables.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            TailItem::Match { pattern, .. } => pattern.collect_vars(out),
            TailItem::External { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }
}

/// A rule head: either an object variable (query form `JC :- JC:<...>`,
/// which materializes whatever the variable binds to) or a constructed
/// pattern.
#[derive(Clone, PartialEq, Debug)]
pub enum Head {
    /// A bare object variable: the rule exports matched objects verbatim.
    Var(Symbol),
    /// A construction pattern building new objects.
    Pattern(Pattern),
}

impl Head {
    /// Collect variables.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Head::Var(v) => out.push(*v),
            Head::Pattern(p) => p.collect_vars(out),
        }
    }
}

/// A rule `head :- tail1 AND tail2 AND ...`. Queries are rules too (§3.1:
/// "we use MSL as our query language").
#[derive(Clone, PartialEq, Debug)]
pub struct Rule {
    /// What the rule constructs.
    pub head: Head,
    /// The conjuncts that must hold.
    pub tail: Vec<TailItem>,
}

impl Rule {
    /// All variables of the rule, in first-occurrence order, deduplicated.
    pub fn variables(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.head.collect_vars(&mut out);
        for t in &self.tail {
            t.collect_vars(&mut out);
        }
        let mut seen = std::collections::HashSet::new();
        out.retain(|v| seen.insert(*v));
        out
    }

    /// Variables occurring in the tail only.
    pub fn tail_variables(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for t in &self.tail {
            t.collect_vars(&mut out);
        }
        let mut seen = std::collections::HashSet::new();
        out.retain(|v| seen.insert(*v));
        out
    }

    /// The sources referenced by the tail, in order, deduplicated.
    pub fn sources(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for t in &self.tail {
            if let TailItem::Match {
                source: Some(s), ..
            } = t
            {
                if seen.insert(*s) {
                    out.push(*s);
                }
            }
        }
        out
    }
}

/// Whether an argument position of an external function implementation
/// expects a bound input or produces a free output (§2, "External
/// Predicates": `name_to_lnfn` is callable with the first parameter bound,
/// returning the other two).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Adornment {
    /// The argument must be bound when the predicate is called.
    Bound,
    /// The argument may be free; the call binds it.
    Free,
}

/// One declaration line `decomp(bound, free, free) by name_to_lnfn`.
#[derive(Clone, PartialEq, Debug)]
pub struct ExternalDecl {
    /// The predicate the declaration is for.
    pub pred: Symbol,
    /// Bound/free pattern per argument position.
    pub adornment: Vec<Adornment>,
    /// The host function implementing this adornment.
    pub func: Symbol,
}

/// A full mediator specification: rules plus external declarations.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Spec {
    /// The mediator's rules.
    pub rules: Vec<Rule>,
    /// External-predicate declarations.
    pub externals: Vec<ExternalDecl>,
}

impl Spec {
    /// External declarations grouped by predicate name.
    pub fn externals_for(&self, pred: Symbol) -> Vec<&ExternalDecl> {
        self.externals.iter().filter(|d| d.pred == pred).collect()
    }
}

/// One mutable position that [`VisitMut::visit_mut`] yields.
pub enum Slot<'a> {
    /// A position that holds only a variable: an object variable, a head
    /// variable, a set-element variable or a rest variable.
    Var(&'a mut Symbol),
    /// A leaf term (`Var`, `Const` or `Param`). A `Func` is not yielded;
    /// the walk descends into its arguments.
    Term(&'a mut Term),
}

impl<'a> Slot<'a> {
    /// The variable at this slot: a symbol-only position or a `Term::Var`
    /// leaf.
    pub fn var(self) -> Option<&'a mut Symbol> {
        match self {
            Slot::Var(v) | Slot::Term(Term::Var(v)) => Some(v),
            Slot::Term(_) => None,
        }
    }
}

/// The one in-place walk over an MSL structure's variables and leaf terms.
/// Renaming apart, substitution, parameter filling and cache-key
/// canonicalization are each a closure over it.
///
/// The order is a format: object variable, oid, label, type, value; in a
/// set, the elements, then the rest variable and its conditions; a rule's
/// head, then its tail items in order. It is the order of `collect_vars`,
/// and the cache's warm tier numbers variables in it. A term the closure
/// writes is not walked again.
pub trait VisitMut {
    /// Call `f` on every slot of `self`, in order.
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F);
}

impl VisitMut for Term {
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F) {
        match self {
            Term::Func(_, args) => args.iter_mut().for_each(|a| a.visit_mut(f)),
            leaf => f(Slot::Term(leaf)),
        }
    }
}

impl VisitMut for Pattern {
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F) {
        self.obj_var.iter_mut().for_each(|v| f(Slot::Var(v)));
        self.oid.iter_mut().for_each(|t| t.visit_mut(f));
        self.label.visit_mut(f);
        self.typ.iter_mut().for_each(|t| t.visit_mut(f));
        self.value.visit_mut(f);
    }
}

impl VisitMut for PatValue {
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F) {
        match self {
            PatValue::Term(t) => t.visit_mut(f),
            PatValue::Set(sp) => sp.visit_mut(f),
        }
    }
}

impl VisitMut for SetPattern {
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F) {
        self.elements.iter_mut().for_each(|e| e.visit_mut(f));
        if let Some(r) = &mut self.rest {
            f(Slot::Var(&mut r.var));
            r.conditions.iter_mut().for_each(|c| c.visit_mut(f));
        }
    }
}

impl VisitMut for SetElem {
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F) {
        match self {
            SetElem::Pattern(p) | SetElem::Wildcard(p) => p.visit_mut(f),
            SetElem::Var(v) => f(Slot::Var(v)),
        }
    }
}

impl VisitMut for TailItem {
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F) {
        match self {
            TailItem::Match { pattern, .. } => pattern.visit_mut(f),
            TailItem::External { args, .. } => args.iter_mut().for_each(|a| a.visit_mut(f)),
        }
    }
}

impl VisitMut for Head {
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F) {
        match self {
            Head::Var(v) => f(Slot::Var(v)),
            Head::Pattern(p) => p.visit_mut(f),
        }
    }
}

impl VisitMut for Rule {
    fn visit_mut<F: FnMut(Slot<'_>)>(&mut self, f: &mut F) {
        self.head.visit_mut(f);
        self.tail.iter_mut().for_each(|t| t.visit_mut(f));
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::printer::term(self, true))
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::printer::pattern(self))
    }
}

impl std::fmt::Display for Head {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::printer::head(self))
    }
}

impl std::fmt::Display for TailItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::printer::tail_item(self))
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::printer::rule(self))
    }
}

impl std::fmt::Display for Spec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::printer::spec(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;

    fn name_pattern() -> Pattern {
        Pattern::lv(Term::str("name"), PatValue::Term(Term::var("N")))
    }

    #[test]
    fn collect_vars_over_nested_pattern() {
        let p = Pattern {
            obj_var: Some(sym("X")),
            oid: Some(Term::Func(sym("f"), vec![Term::var("K")])),
            label: Term::var("L"),
            typ: None,
            value: PatValue::Set(SetPattern {
                elements: vec![SetElem::Pattern(name_pattern()), SetElem::Var(sym("Rest1"))],
                rest: Some(RestSpec {
                    var: sym("Rest2"),
                    conditions: vec![Pattern::lv(
                        Term::str("year"),
                        PatValue::Term(Term::var("Y")),
                    )],
                }),
            }),
        };
        let mut vars = Vec::new();
        p.collect_vars(&mut vars);
        assert_eq!(
            vars,
            vec![
                sym("X"),
                sym("K"),
                sym("L"),
                sym("N"),
                sym("Rest1"),
                sym("Rest2"),
                sym("Y")
            ]
        );
    }

    #[test]
    fn visit_mut_yields_variables_in_collect_vars_order() {
        // The rule of `cache::tests::canonical_key_numbers_variables_in_field_order`.
        let mut rule = crate::parse_rule(
            "<f(K) L T {<n N> S}> :- \
             X:<g(K, M) L T {<name N> S | R:{<year Y>}}>@s AND ext(N, Z)",
        )
        .unwrap();
        let mut collected = Vec::new();
        rule.head.collect_vars(&mut collected);
        rule.tail
            .iter()
            .for_each(|t| t.collect_vars(&mut collected));
        let mut visited = Vec::new();
        rule.visit_mut(&mut |slot| visited.extend(slot.var().map(|v| *v)));
        assert_eq!(visited, collected);
        assert_eq!(visited.len(), 16);
    }

    #[test]
    fn rule_variables_dedup() {
        let rule = Rule {
            head: Head::Pattern(Pattern::lv(
                Term::str("out"),
                PatValue::Term(Term::var("N")),
            )),
            tail: vec![
                TailItem::Match {
                    pattern: name_pattern(),
                    source: Some(sym("whois")),
                },
                TailItem::External {
                    name: sym("decomp"),
                    args: vec![Term::var("N"), Term::var("LN"), Term::var("FN")],
                },
            ],
        };
        assert_eq!(rule.variables(), vec![sym("N"), sym("LN"), sym("FN")]);
        assert_eq!(rule.sources(), vec![sym("whois")]);
    }

    #[test]
    fn term_helpers() {
        assert!(Term::var("X").is_var());
        assert_eq!(Term::var("X").as_var(), Some(sym("X")));
        assert_eq!(Term::str("a").as_const(), Some(&Value::str("a")));
        assert_eq!(Term::int(3), Term::Const(Value::Int(3)));
    }

    #[test]
    fn display_impls_route_through_printer() {
        let rule = crate::parse_rule("X :- X:<person {<name N>}>@whois").unwrap();
        assert_eq!(rule.to_string(), "X :- X:<person {<name N>}>@whois");
        assert_eq!(Term::var("N").to_string(), "N");
        assert_eq!(Term::str("Joe").to_string(), "'Joe'");
    }

    #[test]
    fn spec_externals_for_groups() {
        let spec = Spec {
            rules: vec![],
            externals: vec![
                ExternalDecl {
                    pred: sym("decomp"),
                    adornment: vec![Adornment::Bound, Adornment::Free, Adornment::Free],
                    func: sym("name_to_lnfn"),
                },
                ExternalDecl {
                    pred: sym("decomp"),
                    adornment: vec![Adornment::Free, Adornment::Bound, Adornment::Bound],
                    func: sym("lnfn_to_name"),
                },
                ExternalDecl {
                    pred: sym("other"),
                    adornment: vec![Adornment::Bound],
                    func: sym("g"),
                },
            ],
        };
        assert_eq!(spec.externals_for(sym("decomp")).len(), 2);
        assert_eq!(spec.externals_for(sym("other")).len(), 1);
        assert!(spec.externals_for(sym("missing")).is_empty());
    }
}
