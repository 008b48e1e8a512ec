//! Type/shape inference over rule bodies (specflow passes 2 and 3a).
//!
//! Walks every tail pattern against the referenced source's
//! [`SchemaSummary`] (or, for self-references, the referenced view's
//! inferred schema), recording a typed *occurrence* for every variable
//! position. From the occurrences:
//!
//! * a rule's **variable types** are the meet of each variable's
//!   occurrence types — a meet of `⊥` means two occurrences can never bind
//!   the same value, i.e. the join is provably empty (`E301`);
//! * the **view schema** of a rule's head is built by substituting the
//!   inferred variable types into the head pattern, then joining the
//!   contributions of all rules defining the view (fixpoint over the SCC
//!   DAG for recursive specifications);
//! * conditions and subpatterns on labels that a *closed* summary does not
//!   contain can never match (`W301`, with a did-you-mean hint), and
//!   constants whose type is incompatible with the label's value type are
//!   provably-empty conditions (`E301`);
//! * a rest condition on a label the same set pattern already matches, at a
//!   source whose closed summary holds at most one such child per parent,
//!   can never match either (`W303`).
//!
//! Occurrences and findings are data. A finding's message is its
//! `Display`, rendered only where it is presented — the spec-level check
//! and EXPLAIN's `[pruned]` lines — and did-you-mean help is worked out
//! for the spec-level check alone, so the planner's per-query walk
//! formats nothing.

use super::depgraph::ViewGraph;
use super::SourceInfo;
use msl::diag::{codes, Diagnostic, Span};
use msl::{Head, PatValue, Pattern, Rule, SetElem, SetPattern, Spec, SpecSpans, TailItem, Term};
use oem::Symbol;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use wrappers::{LabelSummary, ValueType};

/// Maximum nesting depth of inferred view schemas (prevents unbounded
/// growth for recursive specifications that nest on every unfolding).
const SCHEMA_DEPTH_CAP: usize = 6;

/// Maximum pattern nesting depth the walker follows.
const WALK_DEPTH_CAP: usize = 8;

/// Fixpoint iteration cap per SCC (belt and braces — the depth cap already
/// bounds the lattice height).
const FIXPOINT_CAP: usize = 16;

/// Where a tail pattern is matched — what a finding names it by.
#[derive(Clone, Copy, Debug)]
pub(super) enum Place {
    /// No source annotation: nothing is known there.
    Unknown,
    /// A self-reference: the mediator's own views.
    Mediator(Symbol),
    /// A registered source.
    Source(Symbol),
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Place::Unknown => Ok(()),
            Place::Mediator(s) => write!(f, "this mediator ('{s}')"),
            Place::Source(s) => write!(f, "source '{s}'"),
        }
    }
}

/// A pattern's label as a finding names it: `'l'` for a constant,
/// `this label` otherwise.
#[derive(Clone, Copy, Debug)]
pub(super) struct LabelName(Option<Symbol>);

impl fmt::Display for LabelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(l) => write!(f, "'{l}'"),
            None => f.write_str("this label"),
        }
    }
}

/// The position a variable occurs in.
#[derive(Clone, Copy, Debug)]
pub(super) enum Position {
    Label,
    Object,
    Oid,
    Value(LabelName),
}

/// One typed occurrence of a variable in a rule tail.
#[derive(Clone, Copy, Debug)]
pub(super) struct Occurrence {
    var: Symbol,
    ty: ValueType,
    position: Position,
    place: Place,
}

/// `type (where)`, as an E301 join conflict names each side — e.g.
/// `integer (value of 'year' at source 'cs')`.
impl fmt::Display for Occurrence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ty, place) = (self.ty, self.place);
        match self.position {
            Position::Label => write!(f, "{ty} (label position at {place})"),
            Position::Object => write!(f, "{ty} (object matched at {place})"),
            Position::Oid => write!(f, "{ty} (oid position at {place})"),
            Position::Value(label) => write!(f, "{ty} (value of {label} at {place})"),
        }
    }
}

/// What the walk proves about a rule, as data. [`fmt::Display`] renders
/// the message `medmaker check` and EXPLAIN print for it; nothing else
/// formats it.
#[derive(Clone, Copy, Debug)]
pub(super) enum Finding {
    /// `E301`: a constant of a type the label's values never have.
    ConstantType {
        label: LabelName,
        place: Place,
        constant: ValueType,
        held: ValueType,
    },
    /// `E301`: a set pattern under a label holding atomic values.
    SetOnAtomic {
        label: LabelName,
        place: Place,
        held: ValueType,
    },
    /// `E301`: two occurrences of one variable whose types never meet.
    JoinConflict {
        first: Occurrence,
        second: Occurrence,
    },
    /// `W301`: a label a closed summary lacks.
    UnknownLabel {
        label: Symbol,
        place: Place,
        top: bool,
    },
    /// `W303`: a rest condition asking for a second child a closed
    /// summary holds at most one of.
    ConsumedRest {
        label: Symbol,
        place: Place,
        parent: LabelName,
    },
}

impl Finding {
    fn code(&self) -> &'static str {
        match self {
            Finding::ConstantType { .. }
            | Finding::SetOnAtomic { .. }
            | Finding::JoinConflict { .. } => codes::TYPE_MISMATCH,
            Finding::UnknownLabel { .. } => codes::UNKNOWN_LABEL,
            Finding::ConsumedRest { .. } => codes::CONSUMED_REST_LABEL,
        }
    }

    fn is_error(&self) -> bool {
        self.code() == codes::TYPE_MISMATCH
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::ConstantType {
                label,
                place,
                constant,
                held,
            } => write!(
                f,
                "condition on {label} compares a constant of type {constant}, but {place} \
                 holds {held} values there — it can never match"
            ),
            Finding::SetOnAtomic { label, place, held } => write!(
                f,
                "pattern expects subobjects under {label}, but {place} holds atomic {held} \
                 values there — it can never match"
            ),
            Finding::JoinConflict { first, second } => write!(
                f,
                "join variable '{}' has incompatible types: {first} and {second}",
                first.var
            ),
            Finding::UnknownLabel {
                label,
                place,
                top: true,
            } => write!(f, "{place} produces no top-level object labeled '{label}'"),
            Finding::UnknownLabel { label, place, .. } => {
                write!(f, "{place} produces no subobject labeled '{label}' here")
            }
            Finding::ConsumedRest {
                label,
                place,
                parent,
            } => write!(
                f,
                "{place} holds at most one '{label}' under {parent}, and the pattern \
                 already matches it"
            ),
        }
    }
}

/// A finding where the walk made it, with `check`'s did-you-mean help.
struct Found {
    finding: Finding,
    span: Span,
    help: Option<String>,
}

impl Found {
    fn into_diagnostic(self) -> Diagnostic {
        let (code, message) = (self.finding.code(), self.finding.to_string());
        let d = if self.finding.is_error() {
            Diagnostic::error(code, self.span, message)
        } else {
            Diagnostic::warning(code, self.span, message)
        };
        match self.help {
            Some(help) => d.with_help(help),
            None => d,
        }
    }
}

/// The pseudo-object a top-level pattern is matched in: its children are
/// a source's top-level labels, or the mediator's views.
#[derive(Clone, Debug)]
struct Top {
    object: LabelSummary,
    /// What a top-level label variable ranges over: every child, joined.
    any_child: LabelSummary,
}

impl Top {
    fn new(object: LabelSummary) -> Top {
        Top {
            any_child: any_child(&object),
            object,
        }
    }

    /// The views' pseudo-object. Whether all views are known is the
    /// dead-view pass's business; here absence proves nothing.
    fn views(views: &BTreeMap<Symbol, LabelSummary>) -> Top {
        Top::new(LabelSummary {
            open: true,
            ..LabelSummary::object(views.clone())
        })
    }
}

/// The join of every child of `parent`: what a label variable under it
/// ranges over.
fn any_child(parent: &LabelSummary) -> LabelSummary {
    let mut merged = LabelSummary::bottom();
    merged.open = parent.open;
    for ls in parent.children.values() {
        merged = join_label(merged, ls);
    }
    merged
}

/// The contexts rule tails are walked in, built once and borrowed by
/// every walk: one [`Top`] per source that exports a summary, one for the
/// mediator's views.
#[derive(Clone, Debug)]
pub(super) struct Tops {
    sources: BTreeMap<Symbol, Top>,
    views: Top,
}

impl Tops {
    pub(super) fn new(
        sources: &BTreeMap<Symbol, SourceInfo>,
        views: &BTreeMap<Symbol, LabelSummary>,
    ) -> Tops {
        let sources = sources
            .iter()
            .filter_map(|(s, info)| {
                let sum = info.summary.as_ref()?;
                let object = LabelSummary {
                    open: sum.open,
                    ..LabelSummary::object(sum.labels.clone())
                };
                Some((*s, Top::new(object)))
            })
            .collect();
        Tops {
            sources,
            views: Top::views(views),
        }
    }
}

/// Walks rule tails against summaries, collecting typed occurrences and
/// findings.
struct Walker<'a> {
    tops: &'a Tops,
    mediator: Symbol,
    occurrences: Vec<Occurrence>,
    findings: Vec<Found>,
    /// Work out did-you-mean help for unknown labels: only `check`
    /// presents it.
    hints: bool,
    span: Span,
}

impl<'a> Walker<'a> {
    fn new(tops: &'a Tops, mediator: Symbol, hints: bool) -> Walker<'a> {
        Walker {
            tops,
            mediator,
            occurrences: Vec::new(),
            findings: Vec::new(),
            hints,
            span: Span::default(),
        }
    }

    fn occ(&mut self, var: Symbol, ty: ValueType, position: Position, place: Place) {
        if ty != ValueType::Top {
            self.occurrences.push(Occurrence {
                var,
                ty,
                position,
                place,
            });
        }
    }

    fn found(&mut self, finding: Finding, help: Option<String>) {
        self.findings.push(Found {
            finding,
            span: self.span,
            help,
        });
    }

    fn walk_rule(&mut self, rule: &Rule, spans: Option<(&SpecSpans, usize)>) {
        let tops = self.tops;
        for (ti, item) in rule.tail.iter().enumerate() {
            let TailItem::Match { pattern, source } = item else {
                continue;
            };
            self.span = spans.map(|(s, ri)| s.tail_item(ri, ti)).unwrap_or_default();
            // The "parent" context the top-level pattern is matched in.
            let (place, top) = match source {
                None => (Place::Unknown, None),
                Some(s) if *s == self.mediator => (Place::Mediator(*s), Some(&tops.views)),
                Some(s) => (Place::Source(*s), tops.sources.get(s)),
            };
            self.walk_pattern(
                pattern,
                top.map(|t| &t.object),
                top.map(|t| &t.any_child),
                place,
                true,
                WALK_DEPTH_CAP,
            );
        }
    }

    /// Walk one pattern whose enclosing object is described by `parent`
    /// (`None` when nothing is known about the context). `parent_any` is
    /// [`any_child`] of `parent` when already known.
    fn walk_pattern<'p>(
        &mut self,
        p: &Pattern,
        parent: Option<&'p LabelSummary>,
        parent_any: Option<&'p LabelSummary>,
        place: Place,
        top: bool,
        depth: usize,
    ) {
        if depth == 0 {
            return;
        }
        // The label position: resolve this pattern's own context from the
        // parent's children, noting labels a closed parent lacks.
        let ctx: Option<Cow<'p, LabelSummary>> = match &p.label {
            Term::Const(v) => match (v.as_str_sym(), parent) {
                (Some(l), Some(par)) => match par.children.get(&l) {
                    Some(ls) => Some(Cow::Borrowed(ls)),
                    None => {
                        if !par.open {
                            self.unknown_label(l, par, place, top);
                        }
                        None
                    }
                },
                _ => None,
            },
            Term::Var(v) => {
                self.occ(*v, ValueType::Str, Position::Label, place);
                // A label variable ranges over every known sibling label.
                parent.map(|par| match parent_any {
                    Some(any) => Cow::Borrowed(any),
                    None => Cow::Owned(any_child(par)),
                })
            }
            Term::Param(_) | Term::Func(..) => None,
        };
        let ctx = ctx.filter(|c| c.value_type != ValueType::Bottom);

        if let Some(v) = p.obj_var {
            if let Some(c) = &ctx {
                self.occ(v, c.value_type, Position::Object, place);
            }
        }
        if let Some(Term::Var(v)) = &p.oid {
            self.occ(*v, ValueType::Oid, Position::Oid, place);
        }

        let label = LabelName(const_label(p));
        match &p.value {
            PatValue::Term(Term::Var(v)) => {
                if let Some(c) = &ctx {
                    self.occ(*v, c.value_type, Position::Value(label), place);
                }
            }
            PatValue::Term(Term::Const(c)) => {
                if let Some(cx) = &ctx {
                    let constant = ValueType::of_value(c);
                    if !constant.compatible(cx.value_type) {
                        let held = cx.value_type;
                        self.found(
                            Finding::ConstantType {
                                label,
                                place,
                                constant,
                                held,
                            },
                            None,
                        );
                    }
                }
            }
            PatValue::Term(_) => {}
            PatValue::Set(sp) => {
                if let Some(cx) = &ctx {
                    if !ValueType::Object.compatible(cx.value_type) {
                        let held = cx.value_type;
                        self.found(Finding::SetOnAtomic { label, place, held }, None);
                    }
                }
                let inner_parent = ctx.as_deref();
                for e in &sp.elements {
                    match e {
                        SetElem::Pattern(inner) => {
                            self.walk_pattern(inner, inner_parent, None, place, false, depth - 1);
                        }
                        // Wildcards match at any depth: no schema claims.
                        SetElem::Wildcard(inner) => {
                            self.walk_pattern(inner, None, None, place, false, depth - 1);
                        }
                        SetElem::Var(_) => {}
                    }
                }
                if let Some(rest) = &sp.rest {
                    for cond in &rest.conditions {
                        if let Some(l) = const_label(cond) {
                            self.consumed_rest_label(l, sp, inner_parent, place, label);
                        }
                        self.walk_pattern(cond, inner_parent, None, place, false, depth - 1);
                    }
                }
            }
        }
    }

    fn unknown_label(&mut self, label: Symbol, parent: &LabelSummary, place: Place, top: bool) {
        let help = if self.hints {
            did_you_mean(&label.as_str(), parent.children.keys().map(|k| k.as_str()))
                .map(|best| format!("did you mean '{best}'?"))
        } else {
            None
        };
        self.found(Finding::UnknownLabel { label, place, top }, help);
    }

    /// `W303`: a rest condition on label `l` needs a second `l` child when
    /// an explicit element of the same set already matches one (a rest
    /// holds only the children no element consumed), so it never matches
    /// where the closed context `ctx` holds at most one `l` per parent.
    /// Wildcards consume nothing and a label variable may match another
    /// child, so only a constant-labelled element counts.
    fn consumed_rest_label(
        &mut self,
        l: Symbol,
        sp: &SetPattern,
        ctx: Option<&LabelSummary>,
        place: Place,
        parent: LabelName,
    ) {
        let Some(cx) = ctx.filter(|c| !c.open) else {
            return;
        };
        let at_most_one = cx.children.get(&l).is_some_and(|c| c.at_most_one);
        let matched = sp.elements.iter().any(|e| match e {
            SetElem::Pattern(inner) => const_label(inner) == Some(l),
            SetElem::Wildcard(_) | SetElem::Var(_) => false,
        });
        if at_most_one && matched {
            self.found(
                Finding::ConsumedRest {
                    label: l,
                    place,
                    parent,
                },
                None,
            );
        }
    }
}

/// The label of `p`, when it is a constant.
fn const_label(p: &Pattern) -> Option<Symbol> {
    match &p.label {
        Term::Const(v) => v.as_str_sym(),
        _ => None,
    }
}

/// The inferred type of each variable: the meet of its occurrence types.
fn var_types(occurrences: &[Occurrence]) -> BTreeMap<Symbol, ValueType> {
    let mut out = BTreeMap::new();
    for o in occurrences {
        let t = out.entry(o.var).or_insert(ValueType::Top);
        *t = t.meet(o.ty);
    }
    out
}

/// The first pair of occurrences of one variable whose types are
/// incompatible, if any, as an `E301` finding.
fn first_conflict(occurrences: &[Occurrence]) -> Option<Finding> {
    let mut running: BTreeMap<Symbol, (ValueType, Occurrence)> = BTreeMap::new();
    for &o in occurrences {
        match running.get(&o.var) {
            None => {
                running.insert(o.var, (o.ty, o));
            }
            Some(&(ty, prev)) => {
                let met = ty.meet(o.ty);
                if met == ValueType::Bottom {
                    return Some(Finding::JoinConflict {
                        first: prev,
                        second: o,
                    });
                }
                // Remember the occurrence that narrowed the type, so the
                // eventual conflict names the informative pair.
                let witness = if met == ty { prev } else { o };
                running.insert(o.var, (met, witness));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// View-schema inference (pass 2)
// ---------------------------------------------------------------------------

/// Infer a schema for every view by fixpoint over the SCC DAG.
pub fn infer_view_schemas(
    spec: &Spec,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
    graph: &ViewGraph,
) -> BTreeMap<Symbol, LabelSummary> {
    let mut schemas: BTreeMap<Symbol, LabelSummary> = BTreeMap::new();
    let mut tops = Tops::new(sources, &schemas);
    for scc in &graph.sccs {
        for _ in 0..FIXPOINT_CAP {
            let mut changed = false;
            for &v in scc {
                let mut joined = LabelSummary::bottom();
                for &ri in &graph.views[&v] {
                    let rule = &spec.rules[ri];
                    let mut w = Walker::new(&tops, mediator, false);
                    w.walk_rule(rule, None);
                    let types = var_types(&w.occurrences);
                    if let Head::Pattern(p) = &rule.head {
                        let contrib = head_value_summary(p, &types);
                        joined = join_label(joined, &contrib);
                    }
                }
                truncate(&mut joined, SCHEMA_DEPTH_CAP);
                if schemas.get(&v) != Some(&joined) {
                    schemas.insert(v, joined);
                    tops.views = Top::views(&schemas);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    schemas
}

/// The summary of the object a head pattern constructs, with inferred
/// variable types substituted in.
fn head_value_summary(p: &Pattern, types: &BTreeMap<Symbol, ValueType>) -> LabelSummary {
    match &p.value {
        PatValue::Term(Term::Var(v)) => {
            LabelSummary::atomic(types.get(v).copied().unwrap_or(ValueType::Top))
        }
        PatValue::Term(Term::Const(c)) => LabelSummary::atomic(ValueType::of_value(c)),
        PatValue::Term(_) => LabelSummary::atomic(ValueType::Top),
        PatValue::Set(sp) => {
            let mut out = LabelSummary::object(BTreeMap::new());
            for e in &sp.elements {
                match e {
                    SetElem::Pattern(inner) | SetElem::Wildcard(inner) => match &inner.label {
                        Term::Const(v) => match v.as_str_sym() {
                            Some(l) => {
                                let child = head_value_summary(inner, types);
                                let merged = match out.children.remove(&l) {
                                    Some(prev) => join_label(prev, &child),
                                    None => child,
                                };
                                out.children.insert(l, merged);
                            }
                            None => out.open = true,
                        },
                        // A label variable or spliced set variable may add
                        // arbitrary labels: the constructed object is open.
                        _ => out.open = true,
                    },
                    SetElem::Var(_) => out.open = true,
                }
            }
            if sp.rest.is_some() {
                out.open = true;
            }
            out
        }
    }
}

/// Pointwise join of two label summaries (union of children, join of value
/// types, or of openness, and of the "at most one" claims).
pub fn join_label(mut a: LabelSummary, b: &LabelSummary) -> LabelSummary {
    a.value_type = a.value_type.join(b.value_type);
    a.open |= b.open;
    a.at_most_one &= b.at_most_one;
    for (l, cb) in &b.children {
        let merged = match a.children.remove(l) {
            Some(ca) => join_label(ca, cb),
            None => cb.clone(),
        };
        a.children.insert(*l, merged);
    }
    a
}

/// Cap a summary's nesting depth, marking truncated levels open.
fn truncate(s: &mut LabelSummary, depth: usize) {
    if depth == 0 {
        if !s.children.is_empty() {
            s.children.clear();
            s.open = true;
        }
        return;
    }
    for c in s.children.values_mut() {
        truncate(c, depth - 1);
    }
}

// ---------------------------------------------------------------------------
// Per-rule diagnostics (pass 3a)
// ---------------------------------------------------------------------------

/// Emit `W301`/`W303`/`E301` diagnostics for every rule: unknown labels,
/// rest conditions on a label already matched, provably-empty conditions,
/// and type-mismatched join variables.
pub fn rule_diagnostics(
    spec: &Spec,
    spans: &SpecSpans,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
    view_schemas: &BTreeMap<Symbol, LabelSummary>,
    out: &mut Vec<Diagnostic>,
) {
    let tops = Tops::new(sources, view_schemas);
    for (ri, rule) in spec.rules.iter().enumerate() {
        let mut w = Walker::new(&tops, mediator, true);
        w.walk_rule(rule, Some((spans, ri)));
        out.extend(w.findings.into_iter().map(Found::into_diagnostic));
        if let Some(conflict) = first_conflict(&w.occurrences) {
            out.push(
                Diagnostic::error(codes::TYPE_MISMATCH, spans.rule(ri), conflict.to_string())
                    .with_help(
                        "the two occurrences can never bind the same value, so this \
                         rule never produces results",
                    ),
            );
        }
    }
}

/// Planner-facing variant: does this (logical, post-expansion) rule
/// provably match nothing at its sources? Returns the finding that proves
/// it, as data: a type conflict (`E301`), a label the rule requires that a
/// *closed* summary lacks (`W301`) — a closed summary lists every label
/// its source exports, so a pattern, set element or rest condition on any
/// other label never matches — or a rest condition asking for a second
/// child the summary holds at most one of (`W303`). At the spec level
/// `W301` and `W303` stay warnings. Nothing is formatted here.
pub(super) fn rule_type_conflict(rule: &Rule, mediator: Symbol, tops: &Tops) -> Option<Finding> {
    let mut w = Walker::new(tops, mediator, false);
    w.walk_rule(rule, None);
    let mut findings = w.findings.iter().map(|f| f.finding);
    if let Some(error) = findings.clone().find(Finding::is_error) {
        return Some(error);
    }
    first_conflict(&w.occurrences).or_else(|| {
        findings.find(|f| {
            matches!(
                f,
                Finding::UnknownLabel { .. } | Finding::ConsumedRest { .. }
            )
        })
    })
}

// ---------------------------------------------------------------------------
// Did-you-mean
// ---------------------------------------------------------------------------

/// The closest candidate within an edit-distance budget of `target`
/// (at most 1 for short names, 2 for longer ones).
pub fn did_you_mean(target: &str, candidates: impl Iterator<Item = String>) -> Option<String> {
    let budget = if target.chars().count() <= 4 { 1 } else { 2 };
    candidates
        .filter_map(|c| {
            let d = levenshtein(target, &c);
            (d > 0 && d <= budget).then_some((d, c))
        })
        .min()
        .map(|(_, c)| c)
}

/// Optimal-string-alignment edit distance over characters: insert, delete,
/// substitute, and transpose adjacent characters each cost 1 (typos like
/// `nmae` → `name` are distance 1).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut rows: Vec<Vec<usize>> = vec![(0..=b.len()).collect()];
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let mut d = (rows[i][j] + usize::from(ca != cb))
                .min(rows[i][j + 1] + 1)
                .min(row[j] + 1);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                d = d.min(rows[i - 1][j - 1] + 1);
            }
            row.push(d);
        }
        rows.push(row);
    }
    rows[a.len()][b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;

    fn scenario_sources() -> BTreeMap<Symbol, SourceInfo> {
        let whois = wrappers::scenario::whois_wrapper();
        let cs = wrappers::scenario::cs_wrapper();
        [
            (sym("whois"), SourceInfo::of_wrapper(&whois)),
            (sym("cs"), SourceInfo::of_wrapper(&cs)),
        ]
        .into_iter()
        .collect()
    }

    /// [`rule_type_conflict`] of a rule text, rendered.
    fn conflict(text: &str, sources: &BTreeMap<Symbol, SourceInfo>) -> Option<String> {
        let tops = Tops::new(sources, &BTreeMap::new());
        rule_type_conflict(&msl::parse_rule(text).unwrap(), sym("med"), &tops)
            .map(|f| f.to_string())
    }

    fn analyze(text: &str) -> (Vec<Diagnostic>, BTreeMap<Symbol, LabelSummary>) {
        let (spec, spans) = msl::parse_spec_spanned(text).unwrap();
        let sources = scenario_sources();
        let graph = ViewGraph::build(&spec, sym("med"));
        let schemas = infer_view_schemas(&spec, sym("med"), &sources, &graph);
        let mut diags = Vec::new();
        rule_diagnostics(&spec, &spans, sym("med"), &sources, &schemas, &mut diags);
        (diags, schemas)
    }

    #[test]
    fn ms1_is_clean_and_typed() {
        let (diags, schemas) = analyze(wrappers::scenario::MS1);
        assert!(diags.is_empty(), "{diags:?}");
        let cs_person = schemas.get(&sym("cs_person")).unwrap();
        assert_eq!(cs_person.value_type, ValueType::Object);
        assert!(cs_person.open, "Rest splices make the view open");
        assert_eq!(
            cs_person.children.get(&sym("name")).unwrap().value_type,
            ValueType::Str
        );
        assert_eq!(
            cs_person.children.get(&sym("rel")).unwrap().value_type,
            ValueType::Str
        );
    }

    #[test]
    fn type_mismatched_join_is_e301() {
        // year is an integer at both sources; name/first_name are strings.
        let (diags, _) = analyze(
            "<v {<a A>}> :- <person {<name A>}>@whois \
              AND <student {<year A>}>@cs\n",
        );
        let e: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::TYPE_MISMATCH)
            .collect();
        assert_eq!(e.len(), 1, "{diags:?}");
        assert!(e[0].message.contains("'A'"), "{}", e[0].message);
        assert!(e[0].message.contains("string") && e[0].message.contains("integer"));
    }

    #[test]
    fn impossible_constant_condition_is_e301() {
        let (diags, _) = analyze("<v {<n N>}> :- <student {<year 'three'> <first_name N>}>@cs\n");
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::TYPE_MISMATCH && d.message.contains("never match")),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_label_gets_did_you_mean() {
        let (diags, _) = analyze("<v {<n N>}> :- <person {<nmae N>}>@whois\n");
        let w: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::UNKNOWN_LABEL)
            .collect();
        assert_eq!(w.len(), 1, "{diags:?}");
        assert!(
            w[0].help.as_deref().unwrap().contains("'name'"),
            "{:?}",
            w[0]
        );
    }

    #[test]
    fn unknown_top_level_label_flagged() {
        let (diags, _) = analyze("<v {<n N>}> :- <persom {<name N>}>@whois\n");
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::UNKNOWN_LABEL && d.message.contains("top-level")),
            "{diags:?}"
        );
    }

    #[test]
    fn label_variables_and_open_summaries_make_no_claims() {
        // R ranges over cs tables; first_name exists in both — no W301.
        let (diags, _) =
            analyze("<v {<f F>}> :- <R {<first_name F>}>@cs AND <person {<relation R>}>@whois\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a_label_a_closed_summary_lacks_proves_a_rule_empty() {
        let mut sources = scenario_sources();
        let empty = wrappers::SemiStructuredWrapper::new("blank", oem::ObjectStore::new());
        sources.insert(sym("blank"), SourceInfo::of_wrapper(&empty));
        sources.insert(
            sym("dark"),
            SourceInfo {
                caps: wrappers::Capabilities::full(),
                summary: None,
            },
        );
        let reason = |text: &str| conflict(text, &sources);
        // A rest condition, a set element and a top-level pattern.
        assert_eq!(
            reason("X :- X:<R {<first_name F> | Rest2:{<name 'Joe'>}}>@cs").as_deref(),
            Some("source 'cs' produces no subobject labeled 'name' here")
        );
        assert_eq!(
            reason("X :- X:<person {<title T>}>@whois").as_deref(),
            Some("source 'whois' produces no subobject labeled 'title' here")
        );
        assert_eq!(
            reason("X :- X:<persom {}>@whois").as_deref(),
            Some("source 'whois' produces no top-level object labeled 'persom'")
        );
        // A type conflict keeps its own reason.
        assert!(reason("X :- X:<student {<year 'three'> <nmae N>}>@cs")
            .unwrap()
            .contains("never match"));
        // No claim: a label variable over the union of cs's tables (only
        // `student` has `year`), a wildcard, an open summary, no summary.
        for text in [
            "X :- X:<R {<first_name F> | Rest2:{<year 3>}}>@cs",
            "X :- X:<person {* <title T>}>@whois",
            "X :- X:<person {<title T>}>@blank",
            "X :- X:<person {<title T>}>@dark",
        ] {
            assert_eq!(reason(text), None, "{text}");
        }
    }

    #[test]
    fn a_second_child_a_closed_summary_holds_at_most_one_of_proves_a_rule_empty() {
        let sources = scenario_sources();
        let reason = |text: &str| conflict(text, &sources);
        assert_eq!(
            reason("X :- X:<person {<name N> <dept 'CS'> | Rest1:{<name 'Joe Chung'>}}>@whois")
                .as_deref(),
            Some(
                "source 'whois' holds at most one 'name' under 'person', and the pattern \
                 already matches it"
            )
        );
        // Every cs table holds one first_name per row.
        assert!(reason("X :- X:<R {<first_name F> | Rest2:{<first_name 'Joe'>}}>@cs").is_some());
        // No claim: a rest label the pattern does not match, a wildcard or a
        // label variable in place of the explicit element.
        for text in [
            "X :- X:<person {<name N> | Rest1:{<dept 'CS'>}}>@whois",
            "X :- X:<person {* <name N> | Rest1:{<name 'Joe Chung'>}}>@whois",
            "X :- X:<person {<L N> | Rest1:{<name 'Joe Chung'>}}>@whois",
        ] {
            assert_eq!(reason(text), None, "{text}");
        }
    }

    #[test]
    fn a_view_claims_no_multiplicity() {
        // `v` is closed, but its head builds two `name`s per object.
        let (diags, schemas) = analyze(
            "<v {<name A> <name B>}> :- <person {<name A> <dept B>}>@whois\n\
             <w {<n N>}> :- <v {<name N> | R:{<name 'CS'>}}>@med\n",
        );
        assert!(!schemas[&sym("v")].open);
        assert!(
            diags.iter().all(|d| d.code != codes::CONSUMED_REST_LABEL),
            "{diags:?}"
        );
    }

    #[test]
    fn join_label_ands_at_most_one() {
        let one = |at_most_one| LabelSummary {
            at_most_one,
            ..LabelSummary::atomic(ValueType::Str)
        };
        assert!(join_label(one(true), &one(true)).at_most_one);
        assert!(!join_label(one(true), &one(false)).at_most_one);
        assert!(!join_label(one(false), &one(true)).at_most_one);
        // A child one side lacks keeps the other side's claim: a closed
        // parent without it holds none.
        let parent = |child| LabelSummary::object([(sym("name"), child)].into_iter().collect());
        let joined = join_label(parent(one(true)), &LabelSummary::object(BTreeMap::new()));
        assert!(joined.children[&sym("name")].at_most_one);
        let joined = join_label(parent(one(true)), &parent(one(false)));
        assert!(!joined.children[&sym("name")].at_most_one);
    }

    #[test]
    fn view_schema_flows_through_self_reference() {
        let (diags, schemas) = analyze(
            "<base {<y Y>}> :- <student {<year Y>}>@cs\n\
             <top {<z Z>}> :- <base {<y Z>}>@med\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(
            schemas.get(&sym("top")).unwrap().children[&sym("z")].value_type,
            ValueType::Int
        );
    }

    #[test]
    fn did_you_mean_budget() {
        let cands = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            did_you_mean("nmae", cands(&["name", "dept"]).into_iter()),
            Some("name".to_string())
        );
        assert_eq!(
            did_you_mean("zzz", cands(&["name", "dept"]).into_iter()),
            None
        );
        // Exact matches are not suggestions.
        assert_eq!(did_you_mean("name", cands(&["name"]).into_iter()), None);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }
}
