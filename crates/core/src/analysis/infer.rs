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

use super::depgraph::ViewGraph;
use super::SourceInfo;
use msl::diag::{codes, Diagnostic, Span};
use msl::{Head, PatValue, Pattern, Rule, SetElem, SetPattern, Spec, SpecSpans, TailItem, Term};
use oem::Symbol;
use std::collections::BTreeMap;
use wrappers::{LabelSummary, ValueType};

/// Maximum nesting depth of inferred view schemas (prevents unbounded
/// growth for recursive specifications that nest on every unfolding).
const SCHEMA_DEPTH_CAP: usize = 6;

/// Maximum pattern nesting depth the walker follows.
const WALK_DEPTH_CAP: usize = 8;

/// Fixpoint iteration cap per SCC (belt and braces — the depth cap already
/// bounds the lattice height).
const FIXPOINT_CAP: usize = 16;

/// One typed occurrence of a variable in a rule tail.
#[derive(Clone, Debug)]
struct Occurrence {
    var: Symbol,
    ty: ValueType,
    /// Where the type came from, for E301 messages — e.g. "value of
    /// 'year' at source 'cs'".
    what: String,
}

/// Walks rule tails against summaries, collecting occurrences and
/// (optionally) label/constant diagnostics.
struct Walker<'a> {
    sources: &'a BTreeMap<Symbol, SourceInfo>,
    views: &'a BTreeMap<Symbol, LabelSummary>,
    mediator: Symbol,
    occurrences: Vec<Occurrence>,
    diags: Option<&'a mut Vec<Diagnostic>>,
    span: Span,
}

impl<'a> Walker<'a> {
    fn new(
        sources: &'a BTreeMap<Symbol, SourceInfo>,
        views: &'a BTreeMap<Symbol, LabelSummary>,
        mediator: Symbol,
        diags: Option<&'a mut Vec<Diagnostic>>,
    ) -> Walker<'a> {
        Walker {
            sources,
            views,
            mediator,
            occurrences: Vec::new(),
            diags,
            span: Span::default(),
        }
    }

    fn occ(&mut self, var: Symbol, ty: ValueType, what: String) {
        if ty != ValueType::Top {
            self.occurrences.push(Occurrence { var, ty, what });
        }
    }

    fn push_diag(&mut self, d: Diagnostic) {
        if let Some(out) = self.diags.as_deref_mut() {
            out.push(d);
        }
    }

    fn walk_rule(&mut self, rule: &Rule, spans: Option<(&SpecSpans, usize)>) {
        for (ti, item) in rule.tail.iter().enumerate() {
            let TailItem::Match { pattern, source } = item else {
                continue;
            };
            self.span = spans.map(|(s, ri)| s.tail_item(ri, ti)).unwrap_or_default();
            // Resolve the "parent" context the top-level pattern is matched
            // in: a pseudo-object whose children are the source's top-level
            // labels (or the mediator's views, for self-references).
            let (src_desc, parent) = match source {
                None => (String::new(), None),
                Some(s) if *s == self.mediator => (
                    format!("this mediator ('{s}')"),
                    Some(LabelSummary {
                        // Whether all views are known is the dead-view
                        // pass's business; here absence proves nothing.
                        open: true,
                        ..LabelSummary::object(self.views.clone())
                    }),
                ),
                Some(s) => match self.sources.get(s).and_then(|i| i.summary.clone()) {
                    Some(sum) => (
                        format!("source '{s}'"),
                        Some(LabelSummary {
                            open: sum.open,
                            ..LabelSummary::object(sum.labels)
                        }),
                    ),
                    None => (format!("source '{s}'"), None),
                },
            };
            self.walk_pattern(pattern, parent.as_ref(), &src_desc, true, WALK_DEPTH_CAP);
        }
    }

    /// Walk one pattern whose enclosing object is described by `parent`
    /// (`None` when nothing is known about the context).
    fn walk_pattern(
        &mut self,
        p: &Pattern,
        parent: Option<&LabelSummary>,
        src: &str,
        top: bool,
        depth: usize,
    ) {
        if depth == 0 {
            return;
        }
        // The label position: resolve this pattern's own context from the
        // parent's children, diagnosing labels a closed parent lacks.
        let ctx: Option<LabelSummary> = match &p.label {
            Term::Const(v) => match v.as_str_sym() {
                Some(l) => match parent {
                    Some(par) => match par.children.get(&l) {
                        Some(ls) => Some(ls.clone()),
                        None => {
                            if !par.open {
                                self.unknown_label(l, par, src, top);
                            }
                            None
                        }
                    },
                    None => None,
                },
                None => None,
            },
            Term::Var(v) => {
                self.occ(*v, ValueType::Str, format!("label position at {src}"));
                // A label variable ranges over every known sibling label.
                parent.map(|par| {
                    let mut merged = LabelSummary::bottom();
                    merged.open = par.open;
                    for ls in par.children.values() {
                        merged = join_label(merged, ls);
                    }
                    merged
                })
            }
            Term::Param(_) | Term::Func(..) => None,
        };
        let ctx = ctx.filter(|c| c.value_type != ValueType::Bottom);

        if let Some(v) = p.obj_var {
            if let Some(c) = &ctx {
                self.occ(v, c.value_type, format!("object matched at {src}"));
            }
        }
        if let Some(Term::Var(v)) = &p.oid {
            self.occ(*v, ValueType::Oid, format!("oid position at {src}"));
        }

        let label_desc =
            const_label(p).map_or_else(|| "this label".to_string(), |l| format!("'{l}'"));

        match &p.value {
            PatValue::Term(Term::Var(v)) => {
                if let Some(c) = &ctx {
                    self.occ(*v, c.value_type, format!("value of {label_desc} at {src}"));
                }
            }
            PatValue::Term(Term::Const(c)) => {
                if let Some(cx) = &ctx {
                    let vt = ValueType::of_value(c);
                    if !vt.compatible(cx.value_type) {
                        let d = Diagnostic::error(
                            codes::TYPE_MISMATCH,
                            self.span,
                            format!(
                                "condition on {label_desc} compares a constant of type \
                                 {vt}, but {src} holds {} values there — it can never match",
                                cx.value_type
                            ),
                        );
                        self.push_diag(d);
                    }
                }
            }
            PatValue::Term(_) => {}
            PatValue::Set(sp) => {
                if let Some(cx) = &ctx {
                    if !ValueType::Object.compatible(cx.value_type) {
                        let d = Diagnostic::error(
                            codes::TYPE_MISMATCH,
                            self.span,
                            format!(
                                "pattern expects subobjects under {label_desc}, but {src} \
                                 holds atomic {} values there — it can never match",
                                cx.value_type
                            ),
                        );
                        self.push_diag(d);
                    }
                }
                let inner_parent = ctx.as_ref();
                for e in &sp.elements {
                    match e {
                        SetElem::Pattern(inner) => {
                            self.walk_pattern(inner, inner_parent, src, false, depth - 1);
                        }
                        // Wildcards match at any depth: no schema claims.
                        SetElem::Wildcard(inner) => {
                            self.walk_pattern(inner, None, src, false, depth - 1);
                        }
                        SetElem::Var(_) => {}
                    }
                }
                if let Some(rest) = &sp.rest {
                    for cond in &rest.conditions {
                        if let Some(l) = const_label(cond) {
                            self.consumed_rest_label(l, sp, ctx.as_ref(), src, &label_desc);
                        }
                        self.walk_pattern(cond, inner_parent, src, false, depth - 1);
                    }
                }
            }
        }
    }

    fn unknown_label(&mut self, l: Symbol, parent: &LabelSummary, src: &str, top: bool) {
        let message = if top {
            format!("{src} produces no top-level object labeled '{l}'")
        } else {
            format!("{src} produces no subobject labeled '{l}' here")
        };
        let mut d = Diagnostic::warning(codes::UNKNOWN_LABEL, self.span, message);
        if let Some(best) = did_you_mean(&l.as_str(), parent.children.keys().map(|k| k.as_str())) {
            d = d.with_help(format!("did you mean '{best}'?"));
        }
        self.push_diag(d);
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
        src: &str,
        parent_desc: &str,
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
            let message = format!(
                "{src} holds at most one '{l}' under {parent_desc}, and the pattern \
                 already matches it"
            );
            self.push_diag(Diagnostic::warning(
                codes::CONSUMED_REST_LABEL,
                self.span,
                message,
            ));
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
/// incompatible, if any.
fn first_conflict(occurrences: &[Occurrence]) -> Option<(Occurrence, Occurrence)> {
    let mut running: BTreeMap<Symbol, (ValueType, &Occurrence)> = BTreeMap::new();
    for o in occurrences {
        match running.get(&o.var) {
            None => {
                running.insert(o.var, (o.ty, o));
            }
            Some(&(ty, prev)) => {
                let met = ty.meet(o.ty);
                if met == ValueType::Bottom {
                    return Some((prev.clone(), o.clone()));
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
    for scc in &graph.sccs {
        for _ in 0..FIXPOINT_CAP {
            let mut changed = false;
            for &v in scc {
                let mut joined = LabelSummary::bottom();
                for &ri in &graph.views[&v] {
                    let rule = &spec.rules[ri];
                    let mut w = Walker::new(sources, &schemas, mediator, None);
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
    for (ri, rule) in spec.rules.iter().enumerate() {
        let mut diags = Vec::new();
        let mut w = Walker::new(sources, view_schemas, mediator, Some(&mut diags));
        w.walk_rule(rule, Some((spans, ri)));
        let occurrences = std::mem::take(&mut w.occurrences);
        out.append(&mut diags);
        if let Some((a, b)) = first_conflict(&occurrences) {
            out.push(
                Diagnostic::error(
                    codes::TYPE_MISMATCH,
                    spans.rule(ri),
                    format!(
                        "join variable '{}' has incompatible types: {} ({}) and {} ({})",
                        a.var, a.ty, a.what, b.ty, b.what
                    ),
                )
                .with_help(
                    "the two occurrences can never bind the same value, so this \
                     rule never produces results",
                ),
            );
        }
    }
}

/// Planner-facing variant: does this (logical, post-expansion) rule
/// provably match nothing at its sources? Returns the reason: a type
/// conflict (`E301`), a label the rule requires that a *closed* summary
/// lacks (`W301`'s message) — a closed summary lists every label its
/// source exports, so a pattern, set element or rest condition on any
/// other label never matches — or a rest condition asking for a second
/// child the summary holds at most one of (`W303`'s message). At the spec
/// level `W301` and `W303` stay warnings.
pub fn rule_type_conflict(
    rule: &Rule,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
) -> Option<String> {
    let empty_views = BTreeMap::new();
    let mut diags = Vec::new();
    let mut w = Walker::new(sources, &empty_views, mediator, Some(&mut diags));
    w.walk_rule(rule, None);
    let occurrences = std::mem::take(&mut w.occurrences);
    if let Some(d) = diags.iter().find(|d| d.is_error()) {
        return Some(d.message.clone());
    }
    if let Some((a, b)) = first_conflict(&occurrences) {
        return Some(format!(
            "join variable '{}' has incompatible types: {} ({}) and {} ({})",
            a.var, a.ty, a.what, b.ty, b.what
        ));
    }
    diags
        .into_iter()
        .find(|d| [codes::UNKNOWN_LABEL, codes::CONSUMED_REST_LABEL].contains(&d.code))
        .map(|d| d.message)
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
        let reason =
            |text: &str| rule_type_conflict(&msl::parse_rule(text).unwrap(), sym("med"), &sources);
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
        let reason =
            |text: &str| rule_type_conflict(&msl::parse_rule(text).unwrap(), sym("med"), &sources);
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
