//! Multi-objective plan cost.
//!
//! The system measures more than cardinality — per-source round-trip
//! latency and failure rates ([`crate::retry`]), cache hit probability
//! ([`crate::cache`]) — so a plan's cost is a vector, not a number:
//!
//! * `rows_out` — estimated binding rows the step emits (the EWMA
//!   cardinality feed of §3.5, with same-source joins discounted for
//!   shared variables);
//! * `cpu` — rows the mediator touches locally (scans, probes, joins);
//! * `net` — expected milliseconds spent on source round-trips:
//!   `calls × latency × retry-inflation × (1 − cache-hit-rate)` — a
//!   cached source is nearly free, a flaky one is expensive;
//! * `memory` — rows materialized in mediator memory (hash-join build
//!   sides, copied source answers).
//!
//! [`CostEstimate::total`] collapses the vector to a scalar, with one
//! fixed set of weights, for comparing candidate join orders; the
//! components survive alongside the chosen plan (`RulePlan::estimates` →
//! `NodeMetrics`) so `EXPLAIN ANALYZE` can report drift per component,
//! not just on row counts.

/// One step's (or one whole order's) estimated cost, by component.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostEstimate {
    /// Estimated binding rows flowing out of the step.
    pub rows_out: f64,
    /// Estimated rows the mediator processes locally (probe + extract).
    pub cpu: f64,
    /// Estimated milliseconds spent on source round-trips.
    pub net: f64,
    /// Estimated rows resident in mediator memory for the step.
    pub memory: f64,
}

impl CostEstimate {
    /// A cardinality-only estimate, for steps that make no source call
    /// (external predicates, client-side filters): the other components
    /// are unknown and render as absent.
    pub fn rows_only(rows_out: f64) -> CostEstimate {
        CostEstimate {
            rows_out,
            ..Default::default()
        }
    }

    /// Whether the row estimate is usable for drift reporting: finite and
    /// not the planner's "unknown" sentinel.
    pub fn has_rows(&self) -> bool {
        self.rows_out.is_finite() && self.rows_out > 0.0 && self.rows_out < SENTINEL_THRESHOLD
    }

    /// Component-wise sum (accumulating a whole join order).
    pub fn add(&self, other: &CostEstimate) -> CostEstimate {
        CostEstimate {
            rows_out: other.rows_out, // the running cardinality, not a sum
            cpu: self.cpu + other.cpu,
            net: self.net + other.net,
            memory: self.memory + other.memory,
        }
    }

    /// Weighted scalar total for order comparison. NaN (degenerate
    /// statistics) sanitizes to `f64::MAX` so comparisons stay total and
    /// join ordering deterministic (the PR 3 NaN pin).
    pub fn total(&self) -> f64 {
        let w = WEIGHTS;
        let t = self.rows_out * w.rows + self.cpu * w.cpu + self.net * w.net + self.memory * w.mem;
        if t.is_nan() {
            f64::MAX
        } else {
            t
        }
    }
}

/// Estimates at or above this are treated as "no estimate" — the planner
/// sanitizes NaN scores to `f64::MAX`, and dividing observed rows by that
/// sentinel would render as meaningless `drift 0.00x` noise.
pub const SENTINEL_THRESHOLD: f64 = f64::MAX / 2.0;

/// Relative weights collapsing a [`CostEstimate`] to one comparable
/// number. A row of intermediate result is the unit; a millisecond of
/// round-trip is priced like a row (both are what the user waits on);
/// local row handling and resident memory cost a fraction of that.
struct Weights {
    rows: f64,
    cpu: f64,
    net: f64,
    mem: f64,
}

const WEIGHTS: Weights = Weights {
    rows: 1.0,
    cpu: 0.01,
    net: 1.0,
    mem: 0.005,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_total_combines_components() {
        let e = CostEstimate {
            rows_out: 10.0,
            cpu: 100.0,
            net: 2.0,
            memory: 200.0,
        };
        let t = e.total();
        assert!((t - (10.0 + 1.0 + 2.0 + 1.0)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn nan_totals_sanitize_to_max() {
        let e = CostEstimate {
            rows_out: f64::NAN,
            ..Default::default()
        };
        assert_eq!(e.total(), f64::MAX);
        assert!(!e.has_rows());
    }

    #[test]
    fn sentinel_rows_are_not_estimates() {
        assert!(!CostEstimate::rows_only(f64::MAX).has_rows());
        assert!(!CostEstimate::rows_only(0.0).has_rows());
        assert!(CostEstimate::rows_only(2.0).has_rows());
    }
}
