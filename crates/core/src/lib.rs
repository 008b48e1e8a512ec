//! # medmaker — the Mediator Specification Interpreter (MSI)
//!
//! The runtime component of MedMaker (§3, Figure 2.5). A mediator is
//! declared by an MSL specification; at query time the MSI processes a
//! query through a three-stage pipeline:
//!
//! 1. the **View Expander & Algebraic Optimizer** ([`veao`]) matches the
//!    query against the specification's rule heads, producing a *logical
//!    datamerge program* — MSL rules over the sources, with every pushable
//!    condition pushed (§3.2–3.3);
//! 2. the **cost-based optimizer** ([`planner`]) turns each logical rule
//!    into a *physical datamerge graph*: query / extractor / external-
//!    predicate / parameterized-query / constructor nodes (§3.4–3.5),
//!    choosing join order and access strategy from source statistics
//!    ([`stats`]) and capabilities;
//! 3. the **datamerge engine** ([`exec`]) executes the graph bottom-up,
//!    flowing binding tables between nodes and constructing the result
//!    objects in the mediator's memory.
//!
//! [`mediator::Mediator`] ties the pipeline together and itself implements
//! [`wrappers::Wrapper`], so mediators stack above other mediators exactly
//! as in Figure 1.1. [`recursion`] adds fixpoint evaluation for recursive
//! views (footnote 4), and [`externals`] hosts the external-predicate
//! function registry (§2).
//!
//! Execution is observable end to end: every run produces a
//! [`metrics::QueryTrace`] of per-node counters and timings ([`metrics`]),
//! rendered by [`explain::render_analyze`] (EXPLAIN ANALYZE) and fed back
//! into the learned statistics of [`stats`] (§3.5).
//!
//! Execution is also fault-tolerant: source calls run under a retry /
//! deadline / circuit-breaker policy ([`retry`]), and in
//! [`retry::OnSourceFailure::Partial`] mode a dead source drops only the
//! rule chains that need it — the answer degrades instead of failing
//! closed, with the trace's `completeness` section naming what's missing.

#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod cost;
pub mod error;
pub mod exec;
pub mod explain;
pub mod externals;
pub mod graph;
mod lint;
pub mod logical;
pub mod mediator;
pub mod metrics;
pub mod naive;
pub mod planner;
pub mod recursion;
pub mod retry;
pub mod spec;
pub mod stats;
pub mod table;
mod valueset;
pub mod veao;

pub use analysis::{AnswerMatrix, SourceInfo, SpecAnalysis};
pub use cache::{
    AnswerCache, CacheCounters, CacheHit, CacheOptions, SourceDelta, WarmStats, WarmTier,
};
pub use error::{MedError, Result};
pub use externals::ExternalRegistry;
pub use mediator::{Mediator, MediatorOptions, QueryLimits};
pub use retry::{FaultOptions, OnSourceFailure, RetryPolicy};
pub use spec::MediatorSpec;
