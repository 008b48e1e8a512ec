//! The physical datamerge graph (§3.4, Figure 3.6).
//!
//! "This graph specifies the queries to be sent to the sources as well as
//! the mechanics for constructing the query result from the results
//! received from the sources." Our graphs are chains of nodes per logical
//! rule — exactly the shape of Figure 3.6 — executed bottom-up by the
//! datamerge engine with a [`crate::table::BindingTable`] flowing between
//! nodes.

use msl::{Head, Pattern, Rule, Term};
use oem::Symbol;

/// The `bind_for_*` convention the planner's source queries export their
/// bindings through, and the carrier reader, live with the wrapper
/// interface ([`wrappers::api`]).
pub use wrappers::api::{carrier_label, find_carrier, ExtractVar, VarKind};

/// One operator of the datamerge graph.
#[derive(Clone, Debug)]
pub enum Node {
    /// Send a fixed query to a source once; for every result object,
    /// extract `vars` and emit one output row per (input row × result
    /// binding). Subsumes the paper's *query* + *extractor* node pair
    /// (the extraction pattern `epw` is implied by the `bind_for_*` head
    /// the planner generated).
    Query {
        /// The source the query is sent to.
        source: Symbol,
        /// The `bind_for_*`-headed source query (§3.4's Qw shape).
        query: Rule,
        /// Variables extracted from each result object.
        vars: Vec<ExtractVar>,
    },
    /// For each input row, instantiate `$param` slots from the row and send
    /// the query; extend the row with the extracted `vars` (the paper's
    /// *parameterized query* node, e.g. `Qcs`).
    ParamQuery {
        /// The source the per-row queries are sent to.
        source: Symbol,
        /// The source query with `$param` slots (§3.4's Qcs shape).
        query: Rule,
        /// Table columns substituted into the `$param` slots.
        params: Vec<Symbol>,
        /// Variables extracted from each result object.
        vars: Vec<ExtractVar>,
    },
    /// Invoke an external predicate per row (the paper's *external pred*
    /// node). `new_vars` are the variables it may bind; with none, the node
    /// is a pure filter.
    ExternalPred {
        /// The predicate's name.
        pred: Symbol,
        /// Its arguments (variables or constants).
        args: Vec<Term>,
        /// Variables the call may bind (empty for a pure filter).
        new_vars: Vec<Symbol>,
    },
    /// Client-side filter: keep rows where the object-set in `var` has a
    /// member matching `condition` — used when a source cannot evaluate a
    /// condition itself (§3.5, the whois/year example).
    RestFilter {
        /// The rest variable holding the object-set to probe.
        var: Symbol,
        /// The condition some member must match.
        condition: Pattern,
    },
    /// Fetch the source group once, then hash-join it with the incoming
    /// table on `join_vars` (the fetch-and-join alternative to a bind
    /// join). Join keys compare [`engine::BoundValue`]s: atomic values
    /// compare by value; object/set values compare by identity in mediator
    /// memory, so cross-source joins should always go through atomic
    /// variables (cross-source object identity is meaningless in OEM —
    /// object fusion via semantic oids is the mechanism for identifying
    /// objects across sources).
    HashJoin {
        /// The source whose whole group is fetched once.
        source: Symbol,
        /// The unparameterized fetch query.
        query: Rule,
        /// Variables extracted from each fetched object.
        vars: Vec<ExtractVar>,
        /// The equi-join key columns.
        join_vars: Vec<Symbol>,
    },
    /// Project onto `vars` and eliminate duplicate rows (MSL's duplicate
    /// elimination, §2 footnote 3 / footnote 9).
    DupElim {
        /// The projection columns (the rule's head variables).
        vars: Vec<Symbol>,
    },
}

impl Node {
    /// Short operator name for plan rendering.
    pub fn op_name(&self) -> &'static str {
        match self {
            Node::Query { .. } => "query",
            Node::ParamQuery { .. } => "parameterized query",
            Node::ExternalPred { .. } => "external pred",
            Node::RestFilter { .. } => "filter",
            Node::HashJoin { .. } => "hash join",
            Node::DupElim { .. } => "dup elim",
        }
    }

    /// Variables this node adds to the flowing table.
    pub fn added_vars(&self) -> Vec<Symbol> {
        match self {
            Node::Query { vars, .. }
            | Node::ParamQuery { vars, .. }
            | Node::HashJoin { vars, .. } => vars.iter().map(|v| v.var).collect(),
            Node::ExternalPred { new_vars, .. } => new_vars.clone(),
            Node::RestFilter { .. } | Node::DupElim { .. } => Vec::new(),
        }
    }
}

/// The plan for one logical datamerge rule: a chain of nodes feeding a
/// constructor.
#[derive(Clone, Debug)]
pub struct RulePlan {
    /// The chain's operators, in bottom-up execution order.
    pub nodes: Vec<Node>,
    /// The optimizer's estimated per-node cost breakdown
    /// ([`crate::cost::CostEstimate`]: output rows, local cpu rows,
    /// round-trip milliseconds, resident rows), parallel to `nodes`.
    /// Filter and dup-elim nodes carry the running row estimate of the
    /// group they follow with zero cost components; under the scalar
    /// baseline model only `rows_out` is populated. `EXPLAIN ANALYZE`
    /// renders these next to the observed counters so estimate-vs-actual
    /// drift is visible per component.
    pub estimates: Vec<crate::cost::CostEstimate>,
    /// The constructor node's pattern `cp(...)` (§3.4).
    pub head: Head,
}

/// The full physical plan: one chain per logical rule; results are unioned
/// and (optionally) structurally deduplicated.
#[derive(Clone, Debug, Default)]
pub struct PhysicalPlan {
    /// One chain per logical datamerge rule.
    pub rules: Vec<RulePlan>,
    /// Apply final structural duplicate elimination across rule outputs.
    pub dedup_results: bool,
    /// Chains the planner pruned because static analysis proved them empty
    /// or capability-infeasible — one reason per pruned logical rule, kept
    /// as data until EXPLAIN prints it.
    pub pruned: Vec<crate::analysis::PruneReason>,
}

impl PhysicalPlan {
    /// Total node count (for plan-shape assertions in tests).
    pub fn node_count(&self) -> usize {
        self.rules.iter().map(|r| r.nodes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;

    #[test]
    fn node_metadata() {
        let n = Node::ExternalPred {
            pred: sym("decomp"),
            args: vec![Term::var("N"), Term::var("LN"), Term::var("FN")],
            new_vars: vec![sym("LN"), sym("FN")],
        };
        assert_eq!(n.op_name(), "external pred");
        assert_eq!(n.added_vars(), vec![sym("LN"), sym("FN")]);

        let f = Node::RestFilter {
            var: sym("Rest1"),
            condition: msl::Pattern::lv(Term::str("year"), msl::PatValue::Term(Term::int(3))),
        };
        assert_eq!(f.op_name(), "filter");
        assert!(f.added_vars().is_empty());
    }
}
