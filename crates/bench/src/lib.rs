//! Shared harness helpers for the figure-reproduction experiments (the
//! `experiments` binary and `tests/cost_model.rs`). Nothing here is timed:
//! wall-clock numbers come from `BENCHMARK.json` and the stand-alone
//! package under `src/bin/perf/`.

#![warn(missing_docs)]

use medmaker::{ExternalRegistry, Mediator, MediatorOptions};
use std::sync::Arc;
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};

/// The paper's `med` mediator over the paper's exact sources.
pub fn paper_mediator() -> Mediator {
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .expect("paper scenario is valid")
}

/// The paper's mediator with explicit options.
pub fn paper_mediator_with(options: MediatorOptions) -> Mediator {
    paper_mediator().with_options(options)
}

/// A fresh standard registry (decomp).
pub fn registry() -> ExternalRegistry {
    medmaker::externals::standard_registry()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_builds() {
        let med = paper_mediator();
        let res = med.query_text("P :- P:<cs_person {}>@med").unwrap();
        assert_eq!(res.top_level().len(), 2);
    }
}
