//! The logical datamerge program (§3.2).
//!
//! "The result is a *logical datamerge program* that is a set of MSL rules
//! specifying the result." One rule per unifier combination; the paper's
//! examples are R2 (for Q1) and the two-rule program Q3/Q4 (for the year-3
//! query).

use engine::unify::Unifier;
use msl::Rule;
use std::fmt;

/// The output of view expansion.
#[derive(Clone, Debug, Default)]
pub struct LogicalProgram {
    /// One datamerge rule per unifier combination.
    pub rules: Vec<Rule>,
    /// The unifiers that justified each rule, one per expanded query
    /// condition (same order as `rules`). Kept as data: only a reader of
    /// [`LogicalProgram::unifier_note`] pays for rendering them.
    pub unifiers: Vec<Vec<Unifier>>,
}

impl LogicalProgram {
    /// Is the program empty (the query cannot be satisfied by the view)?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// The unifiers behind rule `i`, rendered the way the paper writes
    /// them and joined by `; ` — empty when the program records none for
    /// that rule. Used by `explain` and the θ1/τ1/τ2 experiments.
    pub fn unifier_note(&self, i: usize) -> String {
        let notes: Vec<String> = self
            .unifiers
            .get(i)
            .into_iter()
            .flatten()
            .map(crate::veao::render_unifier)
            .collect();
        notes.join("; ")
    }
}

impl fmt::Display for LogicalProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            writeln!(f, "(R{}) {}", i + 1, msl::printer::rule(r))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_numbers_rules() {
        let p = LogicalProgram {
            rules: vec![
                msl::parse_rule("X :- X:<a {}>@s").unwrap(),
                msl::parse_rule("Y :- Y:<b {}>@t").unwrap(),
            ],
            unifiers: Vec::new(),
        };
        let s = p.to_string();
        assert!(s.contains("(R1)"));
        assert!(s.contains("(R2)"));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.unifier_note(1), "");
    }
}
