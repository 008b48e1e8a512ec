//! MSI error type.

use std::fmt;

/// Result alias.
pub type Result<T> = std::result::Result<T, MedError>;

/// Everything that can go wrong between receiving MSL text and returning
/// result objects.
#[derive(Clone, PartialEq, Debug)]
pub enum MedError {
    /// MSL front-end failure (lexing/parsing/validation).
    Msl(String),
    /// The query mentions a source the mediator does not know.
    UnknownSource(String),
    /// View expansion failed (no rule head matches, bad query shape, ...).
    Expansion(String),
    /// Planning failed (capability dead-end, unsupported feature).
    Planning(String),
    /// A wrapper refused or failed a query at runtime.
    Wrapper(String),
    /// An external predicate could not be evaluated (no callable
    /// implementation for the available bindings).
    External(String),
    /// The specification failed mediator-level static analysis
    /// (speclint): carries every error-level diagnostic.
    Lint(Vec<msl::Diagnostic>),
    /// Result construction failed.
    Construct(String),
    /// The recursive fixpoint did not converge within the iteration bound.
    FixpointDiverged(usize),
    /// A source stayed failed after the retry policy was exhausted (or its
    /// circuit breaker was open). In `OnSourceFailure::Fail` mode this
    /// aborts the query; in `Partial` mode it is caught per chain.
    SourceUnavailable {
        /// The failed source's name.
        source: String,
        /// The last transient error observed.
        reason: String,
    },
    /// A rule chain's worker thread panicked (parallel mode). Carries the
    /// panic payload when it was a string.
    ChainPanic(String),
}

impl fmt::Display for MedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MedError::Msl(m) => write!(f, "MSL error: {m}"),
            MedError::UnknownSource(s) => write!(f, "unknown source '{s}'"),
            MedError::Expansion(m) => write!(f, "view expansion failed: {m}"),
            MedError::Planning(m) => write!(f, "planning failed: {m}"),
            MedError::Wrapper(m) => write!(f, "wrapper error: {m}"),
            MedError::External(m) => write!(f, "external predicate error: {m}"),
            MedError::Lint(diags) => {
                let msgs: Vec<String> = diags
                    .iter()
                    .map(|d| format!("[{}] {}", d.code, d.message))
                    .collect();
                write!(f, "specification rejected by speclint: {}", msgs.join("; "))
            }
            MedError::Construct(m) => write!(f, "construction error: {m}"),
            MedError::FixpointDiverged(n) => {
                write!(f, "recursive view did not converge within {n} iterations")
            }
            MedError::SourceUnavailable { source, reason } => {
                write!(f, "source '{source}' unavailable: {reason}")
            }
            MedError::ChainPanic(m) => write!(f, "chain thread panicked: {m}"),
        }
    }
}

impl std::error::Error for MedError {}

impl From<msl::MslError> for MedError {
    fn from(e: msl::MslError) -> MedError {
        MedError::Msl(e.to_string())
    }
}

impl From<wrappers::WrapperError> for MedError {
    fn from(e: wrappers::WrapperError) -> MedError {
        MedError::Wrapper(e.to_string())
    }
}

impl From<engine::ConstructError> for MedError {
    fn from(e: engine::ConstructError) -> MedError {
        MedError::Construct(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: MedError = msl::MslError::Validate("bad".into()).into();
        assert!(e.to_string().contains("bad"));
        let e: MedError = wrappers::WrapperError::Unsupported("year".into()).into();
        assert!(e.to_string().contains("year"));
        assert!(MedError::FixpointDiverged(100).to_string().contains("100"));
        let e = MedError::SourceUnavailable {
            source: "whois".into(),
            reason: "connection refused".into(),
        };
        assert!(e.to_string().contains("whois"), "{e}");
        assert!(e.to_string().contains("connection refused"), "{e}");
        let e = MedError::ChainPanic("boom".into());
        assert!(e.to_string().contains("boom"), "{e}");
    }
}
