//! specflow — whole-spec dataflow and type analysis.
//!
//! The paper's central claim is that mediators are *declarative
//! specifications*; this module takes that literally and analyzes a full
//! MSL spec **as a program** before any source is contacted. Where the
//! lints check each rule in isolation, specflow works
//! interprocedurally over the **view dependency graph** (head view →
//! views/sources referenced in tails, SCC-condensed for recursion) in four
//! cooperating passes:
//!
//! 1. **Schema summaries** ([`wrappers::summary`]): each registered source
//!    exports a shape summary — known labels plus a value type per label
//!    from the lattice `⊥ < int/real/string/bool/oid/object < ⊤` — derived
//!    from relational catalogs or semi-structured store contents.
//! 2. **Type/shape inference** (`infer`): summaries are propagated
//!    through rule bodies into view heads by fixpoint over the SCC DAG,
//!    yielding an inferred [`wrappers::LabelSummary`] for every view.
//! 3. **Cross-rule diagnostics**: type-mismatched join variables whose
//!    occurrences have meet `⊥` (`E301` — the join is provably empty),
//!    conditions/patterns on labels no source produces (`W301`, with a
//!    did-you-mean edit-distance hint), rest conditions asking for a second
//!    child a source holds at most one of (`W303`), dead views that can
//!    never derive an object (`W302`), and statically unanswerable views
//!    whose answerability matrix is empty (`E302`).
//! 4. **Planner integration** (`infer`, `answer`): the planner consults
//!    [`SpecAnalysis::rule_infeasible`] to prune provably-empty chains (a
//!    type conflict, a label a closed summary lacks, a second child it
//!    holds at most one of) and capability-infeasible ones before
//!    execution.
//!
//! The per-view **answerability matrix** records which bound/free
//! adornments of a view's attributes are feasible given the sources'
//! declared [`Capabilities`] — in particular their
//! `required_condition_labels` (form-based sources that refuse to
//! enumerate, after Békés & Szeredi's binding-pattern restrictions).
//!
//! [`analyze_spec`] is the one way a specification gets checked: it runs
//! the lints and specflow once over one parse. [`check_text`] (what
//! `medmaker check SPEC` runs) parses and calls it; so does
//! [`crate::Mediator::new`], always, which rejects a specification with
//! any error-level finding as one [`crate::MedError::Lint`] carrying every
//! error, and keeps the rest as [`crate::Mediator::lint_warnings`].

mod answer;
mod depgraph;
mod infer;

pub use answer::AnswerMatrix;

use msl::diag::Diagnostic;
use msl::{Spec, SpecSpans};
use oem::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use wrappers::{Capabilities, LabelSummary, SchemaSummary, Wrapper};

/// What the analysis knows about one registered source: its declared
/// capabilities and (optionally) its shape summary.
#[derive(Clone, Debug)]
pub struct SourceInfo {
    /// The source's declared capabilities.
    pub caps: Capabilities,
    /// The source's shape summary, if it exports one.
    pub summary: Option<SchemaSummary>,
}

impl SourceInfo {
    /// Extract capabilities and summary from a wrapper.
    pub fn of_wrapper(w: &dyn Wrapper) -> SourceInfo {
        SourceInfo {
            caps: w.capabilities().clone(),
            summary: w.schema_summary(),
        }
    }
}

/// The result of analyzing a whole specification: inferred view schemas,
/// liveness, and per-view answerability matrices. The planner keeps one of
/// these around to prune infeasible chains.
#[derive(Clone, Debug)]
pub struct SpecAnalysis {
    /// The mediator's own name (self-references in rule tails).
    pub mediator: Symbol,
    /// Inferred schema for every view (head label), from pass 2.
    pub view_schemas: BTreeMap<Symbol, LabelSummary>,
    /// Views that can never derive an object (pass 3's `W302`).
    pub dead_views: BTreeSet<Symbol>,
    /// Per-view answerability matrices (pass 3's `E302` when empty).
    pub matrices: BTreeMap<Symbol, AnswerMatrix>,
    /// What we know about each registered source.
    sources: BTreeMap<Symbol, SourceInfo>,
    /// The sources' top-level contexts, built once for every
    /// [`SpecAnalysis::rule_infeasible`] walk to borrow.
    tops: infer::Tops,
}

/// Why the planner dropped a chain without running it, kept as data:
/// [`fmt::Display`] renders the reason EXPLAIN prints, and only a reader
/// of the plan pays for it.
#[derive(Clone, Debug)]
pub struct PruneReason(Why);

#[derive(Clone, Debug)]
enum Why {
    /// A type conflict, a label a closed summary lacks, or a second child
    /// it holds at most one of.
    Shape(infer::Finding),
    /// Required conditions no evaluation order can satisfy.
    Unsatisfiable(String),
}

impl fmt::Display for PruneReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Why::Shape(finding) => finding.fmt(f),
            Why::Unsatisfiable(reason) => f.write_str(reason),
        }
    }
}

impl SpecAnalysis {
    /// What the analysis knows about source `s`.
    pub fn source(&self, s: Symbol) -> Option<&SourceInfo> {
        self.sources.get(&s)
    }

    /// If this (logical, post-expansion) rule provably produces nothing —
    /// a type conflict against the source summaries, a label a closed
    /// summary lacks, a rest condition asking for a second child a closed
    /// summary holds at most one of, or a source whose required conditions
    /// no evaluation order can satisfy — the reason. The planner prunes
    /// such chains.
    pub fn rule_infeasible(&self, rule: &msl::Rule) -> Option<PruneReason> {
        if let Some(finding) = infer::rule_type_conflict(rule, self.mediator, &self.tops) {
            return Some(PruneReason(Why::Shape(finding)));
        }
        answer::rule_unsatisfiable(rule, self.mediator, &self.sources)
            .map(|reason| PruneReason(Why::Unsatisfiable(reason)))
    }
}

/// Check a parsed specification: every static pass, each run once — the
/// text-only lints ([`msl::lint`]), the mediator's capability and
/// redundancy lints and specflow. Returns the analysis result and every
/// finding, sorted for presentation. [`check_text`] and
/// [`crate::Mediator::new`] both check a specification through here.
pub fn analyze_spec(
    spec: &Spec,
    spans: &SpecSpans,
    mediator: Symbol,
    sources: &BTreeMap<Symbol, SourceInfo>,
) -> (SpecAnalysis, Vec<Diagnostic>) {
    let mut diags = crate::lint::lint_spec_with_sources(spec, spans, mediator, sources);

    // Pass 1+2: propagate source summaries through the SCC-condensed view
    // dependency graph to infer every view's schema.
    let graph = depgraph::ViewGraph::build(spec, mediator);
    let view_schemas = infer::infer_view_schemas(spec, mediator, sources, &graph);

    // Pass 3a: per-rule type and label diagnostics against summaries and
    // the inferred view schemas.
    infer::rule_diagnostics(spec, spans, mediator, sources, &view_schemas, &mut diags);

    // Pass 3b: derivational liveness — dead views.
    let dead_views = graph.dead_views(spec, spans, &mut diags);

    // Pass 3c: answerability matrices per view.
    let matrices = answer::view_matrices(spec, spans, mediator, sources, &graph, &mut diags);
    msl::diag::sort(&mut diags);

    (
        SpecAnalysis {
            mediator,
            view_schemas,
            dead_views,
            matrices,
            sources: sources.clone(),
            tops: infer::Tops::new(sources, &BTreeMap::new()),
        },
        diags,
    )
}

/// Parse a specification text once and check it ([`analyze_spec`]) —
/// what `medmaker check` runs. Lexer/parser failures abort and are
/// returned as `Err`.
pub fn check_text(
    text: &str,
    mediator: &str,
    sources: &BTreeMap<Symbol, SourceInfo>,
) -> Result<(Spec, Vec<Diagnostic>, SpecAnalysis), msl::MslError> {
    let (spec, spans) = msl::parse_spec_spanned(text)?;
    let (analysis, diags) = analyze_spec(&spec, &spans, Symbol::intern(mediator), sources);
    Ok((spec, diags, analysis))
}
