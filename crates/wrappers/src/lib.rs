//! # wrappers — sources and their OEM wrappers
//!
//! "Wrappers convert data from each source into a common model ... The
//! wrappers also provide a common query language for extracting
//! information" (§1, Figure 1.1). This crate provides:
//!
//! * [`api`] — the [`api::Wrapper`] trait every source implements: accept
//!   an MSL query, return constructed OEM objects; advertise
//!   [`capabilities::Capabilities`] and optional [`api::SourceStats`].
//! * [`capabilities`] — which query features a source supports (§3.5's
//!   "limited query capabilities of the underlying sources"), and whether
//!   it accepts a *set* of values where a `$param` stood
//!   ([`api::one_of`], [`api::ValueSets`]).
//! * [`eval`] — the generic evaluator both shipped wrappers end in.
//! * [`fault`] — fault injection: [`fault::FaultInjectingWrapper`]
//!   decorates any wrapper with a deterministic [`fault::FaultPlan`]
//!   (fail-first-N, fail-every-Kth, seeded flakiness, injected latency),
//!   plus the [`fault::Clock`] abstraction that lets latency and deadlines
//!   run on virtual time in tests.
//! * [`metrics`] — wrapper-side instrumentation: per-wrapper counters
//!   (queries received, objects exported, capability rejections) exposed
//!   through [`api::Wrapper::metrics`].
//! * [`relational`] — wraps a [`minidb`] catalog: every row is exported as
//!   a top-level OEM object labeled by its relation name (Figure 2.2),
//!   with equality conditions and value sets pushed down to the
//!   relational engine.
//! * [`semistructured`] — wraps a native [`oem::ObjectStore`] (the paper's
//!   "whois" facility, Figure 2.3), evaluating full MSL patterns; a lookup
//!   on a child's value confirms only the candidates of a value index.
//! * [`scenario`] — the paper's exact `cs` and `whois` sources plus the
//!   MS1 specification text.
//! * [`summary`] — per-source shape summaries ([`summary::SchemaSummary`])
//!   exported through [`api::Wrapper::schema_summary`] for the mediator's
//!   whole-spec static analysis (specflow).
//! * [`workload`] — synthetic source generators for tests and benchmarks.

#![warn(missing_docs)]

pub mod api;
pub mod capabilities;
pub mod eval;
pub mod fault;
mod index;
pub mod metrics;
pub mod relational;
pub mod scenario;
pub mod semistructured;
pub mod summary;
pub mod workload;

pub use api::{ExtractVar, Rows, SourceStats, VarKind, Wrapper, WrapperError};
pub use capabilities::{CapViolation, Capabilities};
pub use fault::{Clock, FaultInjectingWrapper, FaultKind, FaultPlan, SystemClock, VirtualClock};
pub use index::ValueIndex;
pub use metrics::{WrapperCounters, WrapperMetrics};
pub use relational::RelationalWrapper;
pub use semistructured::SemiStructuredWrapper;
pub use summary::{LabelSummary, SchemaSummary, ValueType};
