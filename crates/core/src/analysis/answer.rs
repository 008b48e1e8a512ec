//! Per-view answerability matrices (specflow pass 3c) and the planner's
//! satisfiability probe.
//!
//! A view's **attributes** are the constant labels its head pattern
//! exposes directly. For every bound/free adornment of those attributes
//! (client binds a subset by putting conditions on them), the matrix
//! records whether *some* defining rule admits an evaluation order — a
//! sideways-information-passing fixpoint in which a source match becomes
//! queryable once every [`Capabilities::required_condition_labels`] entry
//! is satisfied by a constant, a `$param`, or an already-bound variable
//! (bind-join), internal view references consult the callee's matrix, and
//! external predicates follow their declared adornments. An **empty**
//! matrix means no adornment at all is answerable: `E302`.
//!
//! [`rule_unsatisfiable`] runs the same simulation on a single logical
//! (post-expansion) rule with nothing bound — the planner prunes chains it
//! rejects, since no join order could ever query their sources.

use super::depgraph::ViewGraph;
use super::SourceInfo;
use msl::diag::{codes, Diagnostic};
use msl::{Adornment, ExternalDecl, Pattern, Rule, Spec, SpecSpans, TailItem, Term};
use oem::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use wrappers::capabilities::subpatterns;
use wrappers::Capabilities;

/// At most this many head attributes participate in a matrix (2^8 masks).
const ATTR_CAP: usize = 8;

/// Which bound/free adornments of a view's head attributes are answerable.
#[derive(Clone, Debug)]
pub struct AnswerMatrix {
    attributes: Vec<Symbol>,
    feasible: BTreeSet<u32>,
}

impl AnswerMatrix {
    /// The head attributes the adornments range over, in mask-bit order.
    pub fn attributes(&self) -> &[Symbol] {
        &self.attributes
    }

    /// No adornment is answerable: the view is statically unanswerable.
    pub fn is_empty(&self) -> bool {
        self.feasible.is_empty()
    }

    /// Is the adornment that binds exactly the attributes in `mask`
    /// answerable? Feasibility is monotone in the bound set, so any
    /// feasible sub-adornment answers for its supersets too.
    pub fn is_feasible(&self, mask: u32) -> bool {
        self.feasible.iter().any(|&m| m & !mask == 0)
    }

    /// The adornment string for `mask`: one `b`/`f` per attribute.
    pub fn adornment(&self, mask: u32) -> String {
        (0..self.attributes.len())
            .map(|i| if mask & (1 << i) != 0 { 'b' } else { 'f' })
            .collect()
    }

    /// Every feasible adornment, rendered (`"bf"`-style), for reports.
    pub fn feasible_adornments(&self) -> Vec<String> {
        self.feasible.iter().map(|&m| self.adornment(m)).collect()
    }
}

// ---------------------------------------------------------------------------
// The SIP simulation
// ---------------------------------------------------------------------------

enum Pending<'a> {
    Source {
        source: Symbol,
        pattern: &'a Pattern,
    },
    SelfRef {
        view: Symbol,
        pattern: &'a Pattern,
    },
    External {
        name: Symbol,
        args: &'a [Term],
    },
}

/// Simulate sideways information passing over one rule tail starting from
/// `seed` bound variables. `self_callable` judges internal view
/// references. `Ok` returns the final bound set; `Err` explains the first
/// source or view reference no evaluation order can reach.
fn simulate(
    rule: &Rule,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
    externals: &[ExternalDecl],
    seed: BTreeSet<Symbol>,
    self_callable: &dyn Fn(Symbol, &Pattern, &BTreeSet<Symbol>) -> bool,
) -> Result<BTreeSet<Symbol>, String> {
    let mut bound = seed;
    let mut pending: Vec<Pending<'_>> = Vec::new();
    for item in &rule.tail {
        match item {
            TailItem::Match { pattern, source } => match source {
                Some(s) if *s == mediator => match &pattern.label {
                    Term::Const(v) => match v.as_str_sym() {
                        Some(w) => pending.push(Pending::SelfRef { view: w, pattern }),
                        // Odd label constant: nothing to check.
                        None => bind_pattern(pattern, &mut bound),
                    },
                    // Schema query over all views: conservatively callable.
                    _ => bind_pattern(pattern, &mut bound),
                },
                Some(s) if sources.contains_key(s) => pending.push(Pending::Source {
                    source: *s,
                    pattern,
                }),
                // Unknown or unspecified source: nothing is declared about
                // it, so assume it answers (lint reports unknown sources).
                _ => bind_pattern(pattern, &mut bound),
            },
            TailItem::External { name, args } => {
                pending.push(Pending::External { name: *name, args })
            }
        }
    }

    loop {
        let before = pending.len();
        pending.retain(|p| {
            let evaluable = match p {
                Pending::Source { source, pattern } => {
                    source_queryable(&sources[source], pattern, &bound)
                }
                Pending::SelfRef { view, pattern } => self_callable(*view, pattern, &bound),
                Pending::External { name, args } => {
                    external_callable(*name, args, externals, &bound)
                }
            };
            if evaluable {
                match p {
                    Pending::Source { pattern, .. } | Pending::SelfRef { pattern, .. } => {
                        bind_pattern(pattern, &mut bound)
                    }
                    Pending::External { args, .. } => {
                        for a in *args {
                            let mut vars = Vec::new();
                            a.collect_vars(&mut vars);
                            bound.extend(vars);
                        }
                    }
                }
            }
            !evaluable
        });
        if pending.len() == before {
            break;
        }
    }

    for p in &pending {
        match p {
            Pending::Source { source, pattern } => {
                let caps = &sources[source].caps;
                for &label in &caps.required_condition_labels {
                    if caps.condition_fillable(pattern, label, |v| bound.contains(&v)) {
                        continue;
                    }
                    let how = if caps.condition_fillable(pattern, label, |_| true) {
                        "no evaluation order binds it"
                    } else {
                        "no pattern in this rule can supply one"
                    };
                    return Err(format!(
                        "source '{source}' requires a bound condition on '{label}', but {how}"
                    ));
                }
                // Blocked for a reason we did not model; be conservative.
                return Err(format!("source '{source}' cannot be queried by this rule"));
            }
            Pending::SelfRef { view, .. } => {
                return Err(format!(
                    "internal view '{view}' needs more bound attributes than this \
                     rule can supply"
                ));
            }
            // Uncallable externals are E014's province (msl lint), not an
            // answerability failure.
            Pending::External { .. } => {}
        }
    }
    Ok(bound)
}

fn bind_pattern(p: &Pattern, bound: &mut BTreeSet<Symbol>) {
    let mut vars = Vec::new();
    p.collect_vars(&mut vars);
    bound.extend(vars);
}

/// Can this source be queried with this pattern given the bound set? Every
/// required condition label must be fillable.
fn source_queryable(info: &SourceInfo, pattern: &Pattern, bound: &BTreeSet<Symbol>) -> bool {
    let caps = &info.caps;
    caps.required_condition_labels
        .iter()
        .all(|&label| caps.condition_fillable(pattern, label, |v| bound.contains(&v)))
}

/// Local adornment check, mirroring msl's E014 rules: `eq` is BB/BF/FB,
/// the other comparisons need both sides bound, declared externals follow
/// their declarations.
fn external_callable(
    name: Symbol,
    args: &[Term],
    externals: &[ExternalDecl],
    bound: &BTreeSet<Symbol>,
) -> bool {
    let term_bound = |t: &Term| -> bool {
        fn go(t: &Term, bound: &BTreeSet<Symbol>) -> bool {
            match t {
                Term::Var(v) => bound.contains(v),
                Term::Const(_) | Term::Param(_) => true,
                Term::Func(_, args) => args.iter().all(|a| go(a, bound)),
            }
        }
        go(t, bound)
    };
    let adornments: Vec<Vec<Adornment>> = if msl::validate::is_builtin(name) {
        use Adornment::{Bound, Free};
        if name == Symbol::intern("eq") {
            vec![vec![Bound, Bound], vec![Bound, Free], vec![Free, Bound]]
        } else {
            vec![vec![Bound, Bound]]
        }
    } else {
        externals
            .iter()
            .filter(|d| d.pred == name && d.adornment.len() == args.len())
            .map(|d| d.adornment.clone())
            .collect()
    };
    adornments.iter().any(|ad| {
        ad.iter()
            .zip(args.iter())
            .all(|(a, arg)| *a == Adornment::Free || term_bound(arg))
    })
}

// ---------------------------------------------------------------------------
// Matrices per view
// ---------------------------------------------------------------------------

/// The union of constant labels the view's head patterns expose directly,
/// capped at [`ATTR_CAP`].
fn view_attributes(spec: &Spec, rules: &[usize]) -> Vec<Symbol> {
    let mut attrs: BTreeSet<Symbol> = BTreeSet::new();
    for &ri in rules {
        if let msl::Head::Pattern(p) = &spec.rules[ri].head {
            for c in subpatterns(p) {
                if let Term::Const(v) = &c.label {
                    if let Some(l) = v.as_str_sym() {
                        attrs.insert(l);
                    }
                }
            }
        }
    }
    // Symbols order by intern id; sort by name so mask-bit positions are
    // deterministic across runs.
    let mut attrs: Vec<Symbol> = attrs.into_iter().collect();
    attrs.sort_by(|a, b| a.cmp_str(b));
    attrs.truncate(ATTR_CAP);
    attrs
}

/// The variables a client binds by putting conditions on the attributes in
/// `mask`: all variables of the matching head subpatterns.
fn head_bound_vars(rule: &Rule, attributes: &[Symbol], mask: u32) -> BTreeSet<Symbol> {
    let mut seed = BTreeSet::new();
    let msl::Head::Pattern(p) = &rule.head else {
        return seed;
    };
    for (i, &attr) in attributes.iter().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        for c in subpatterns(p) {
            if matches!(&c.label, Term::Const(v) if v.as_str_sym() == Some(attr)) {
                bind_pattern(c, &mut seed);
            }
        }
    }
    seed
}

/// Compute every view's answerability matrix in SCC order, reporting
/// `E302` for views whose matrix is empty.
pub fn view_matrices(
    spec: &Spec,
    spans: &SpecSpans,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
    graph: &ViewGraph,
    out: &mut Vec<Diagnostic>,
) -> BTreeMap<Symbol, AnswerMatrix> {
    let mut matrices: BTreeMap<Symbol, AnswerMatrix> = BTreeMap::new();
    // A view answers any pattern, so it reads conditions like a source
    // that takes parameterized queries.
    let view_caps = Capabilities::full();
    for scc in &graph.sccs {
        let in_scc: BTreeSet<Symbol> = scc.iter().copied().collect();
        for &v in scc {
            let rules = &graph.views[&v];
            let attributes = view_attributes(spec, rules);
            // Judge internal references by the callee's finished matrix;
            // callees inside the same SCC (recursion) and undefined views
            // (the dead-view pass reports those) are assumed callable.
            let self_callable = |w: Symbol, pattern: &Pattern, bound: &BTreeSet<Symbol>| -> bool {
                match matrices.get(&w) {
                    Some(m) => {
                        let induced: u32 = m
                            .attributes
                            .iter()
                            .enumerate()
                            .filter(|&(_, &a)| {
                                view_caps.condition_fillable(pattern, a, |v| bound.contains(&v))
                            })
                            .map(|(i, _)| 1u32 << i)
                            .sum();
                        m.is_feasible(induced)
                    }
                    None => in_scc.contains(&w) || !graph.views.contains_key(&w),
                }
            };
            let mut feasible = BTreeSet::new();
            let mut reason = None;
            for mask in 0..(1u32 << attributes.len()) {
                let ok = rules.iter().any(|&ri| {
                    let rule = &spec.rules[ri];
                    let seed = head_bound_vars(rule, &attributes, mask);
                    match simulate(
                        rule,
                        mediator,
                        sources,
                        &spec.externals,
                        seed,
                        &self_callable,
                    ) {
                        Ok(_) => true,
                        Err(e) => {
                            reason.get_or_insert(e);
                            false
                        }
                    }
                });
                if ok {
                    feasible.insert(mask);
                }
            }
            let m = AnswerMatrix {
                attributes,
                feasible,
            };
            if m.is_empty() {
                let mut d = Diagnostic::error(
                    codes::UNANSWERABLE_VIEW,
                    spans.rule(rules[0]),
                    format!(
                        "view '{v}' is statically unanswerable: no bound/free \
                         combination of its attributes yields an evaluable plan"
                    ),
                );
                if let Some(r) = reason.take() {
                    d = d.with_help(r);
                }
                out.push(d);
            }
            matrices.insert(v, m);
        }
    }
    matrices
}

/// Planner-facing probe: can any evaluation order of this logical rule
/// query all its sources with nothing bound up front? Internal references
/// are assumed callable (expansion resolves them before planning). Returns
/// the reason when provably not — the chain is dead and gets pruned.
pub fn rule_unsatisfiable(
    rule: &Rule,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
) -> Option<String> {
    let callable = |_: Symbol, _: &Pattern, _: &BTreeSet<Symbol>| true;
    simulate(rule, mediator, sources, &[], BTreeSet::new(), &callable).err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;

    fn form_whois() -> BTreeMap<Symbol, SourceInfo> {
        // whois as a form-based facility: a name must be supplied.
        let whois = wrappers::scenario::whois_wrapper();
        let mut info = SourceInfo::of_wrapper(&whois);
        info.caps = Capabilities::restricted().with_required_condition_on(sym("name"));
        let cs = wrappers::scenario::cs_wrapper();
        [
            (sym("whois"), info),
            (sym("cs"), SourceInfo::of_wrapper(&cs)),
        ]
        .into_iter()
        .collect()
    }

    fn matrices(
        text: &str,
        sources: &BTreeMap<Symbol, SourceInfo>,
    ) -> (BTreeMap<Symbol, AnswerMatrix>, Vec<Diagnostic>) {
        let (spec, spans) = msl::parse_spec_spanned(text).unwrap();
        let graph = ViewGraph::build(&spec, sym("med"));
        let mut diags = Vec::new();
        let m = view_matrices(&spec, &spans, sym("med"), sources, &graph, &mut diags);
        (m, diags)
    }

    #[test]
    fn unrestricted_sources_answer_every_adornment() {
        let whois = wrappers::scenario::whois_wrapper();
        let sources: BTreeMap<Symbol, SourceInfo> =
            [(sym("whois"), SourceInfo::of_wrapper(&whois))].into();
        let (m, diags) = matrices(
            "<v {<n N> <d D>}> :- <person {<name N> <dept D>}>@whois\n",
            &sources,
        );
        assert!(diags.is_empty(), "{diags:?}");
        let v = &m[&sym("v")];
        assert_eq!(v.attributes(), [sym("d"), sym("n")]);
        assert_eq!(v.feasible_adornments().len(), 4);
        assert!(v.is_feasible(0));
    }

    #[test]
    fn required_condition_restricts_the_matrix() {
        let (m, diags) = matrices(
            "<v {<n N> <d D>}> :- <person {<name N> <dept D>}>@whois\n",
            &form_whois(),
        );
        assert!(diags.is_empty(), "{diags:?}");
        let v = &m[&sym("v")];
        // attributes sorted: d (bit 0), n (bit 1) — only n-bound masks work.
        assert!(!v.is_feasible(0b00));
        assert!(!v.is_feasible(0b01));
        assert!(v.is_feasible(0b10));
        assert!(v.is_feasible(0b11));
        assert_eq!(v.feasible_adornments(), vec!["fb", "bb"]);
    }

    #[test]
    fn view_with_no_way_to_bind_is_e302() {
        let (m, diags) = matrices(
            "<depts {<d D>}> :- <person {<dept D>}>@whois\n",
            &form_whois(),
        );
        assert!(m[&sym("depts")].is_empty());
        let e: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::UNANSWERABLE_VIEW)
            .collect();
        assert_eq!(e.len(), 1, "{diags:?}");
        assert!(
            e[0].help.as_deref().unwrap().contains("'name'"),
            "{:?}",
            e[0]
        );
    }

    #[test]
    fn sip_through_another_source_satisfies_requirements() {
        // cs enumerates freely and binds F, which parameterizes whois.
        let (m, diags) = matrices(
            "<v {<f F> <d D>}> :- <student {<first_name F>}>@cs AND \
             <person {<name F> <dept D>}>@whois\n",
            &form_whois(),
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert!(m[&sym("v")].is_feasible(0));
    }

    #[test]
    fn callee_matrix_restricts_caller() {
        let (m, diags) = matrices(
            "<people {<n N> <d D>}> :- <person {<name N> <dept D>}>@whois\n\
             <alldepts {<d D>}> :- <people {<n N> <d D>}>@med\n",
            &form_whois(),
        );
        // people is answerable when n is bound, so no E302 there — but
        // alldepts can never bind n, so it inherits unanswerability.
        assert!(!m[&sym("people")].is_empty());
        assert!(m[&sym("alldepts")].is_empty());
        let e: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::UNANSWERABLE_VIEW)
            .collect();
        assert_eq!(e.len(), 1, "{diags:?}");
        assert!(e[0].message.contains("alldepts"));
    }

    #[test]
    fn rule_unsatisfiable_probe() {
        let sources = form_whois();
        let dead = msl::parse_query("X :- X:<person {<dept 'CS'>}>@whois").unwrap();
        let reason = rule_unsatisfiable(&dead, sym("med"), &sources).unwrap();
        assert!(reason.contains("'name'"), "{reason}");
        let alive = msl::parse_query("X :- X:<person {<name 'Joe Chung'>}>@whois").unwrap();
        assert!(rule_unsatisfiable(&alive, sym("med"), &sources).is_none());
        let chained =
            msl::parse_query("X :- <student {<first_name F>}>@cs AND X:<person {<name F>}>@whois")
                .unwrap();
        assert!(rule_unsatisfiable(&chained, sym("med"), &sources).is_none());
    }
}
