//! # engine — MSL pattern matching and unification over OEM
//!
//! This crate implements the two matching processes at the heart of
//! MedMaker:
//!
//! 1. **Pattern-vs-data matching** ([`matcher`]): MSL tail patterns are
//!    matched against the object structure of a source, binding variables
//!    to "object components" (§2 of the paper). This powers wrappers and
//!    the datamerge engine's extractor nodes.
//! 2. **Pattern-vs-pattern unification** ([`unify`]): query conditions are
//!    matched against mediator rule *heads*, producing **unifiers** —
//!    mappings (`↦`) and definitions (`⇒`) — used by the View Expander &
//!    Algebraic Optimizer (§3.2). This includes enumerating placements of
//!    query conditions into set-valued "rest" variables (the τ1/τ2
//!    ambiguity of §3.3).
//!
//! Supporting modules: [`bindings`] (variable environments), [`subst`]
//! (substitution application), [`containment`] (the containment check that
//! justifies each unifier).

#![warn(missing_docs)]

pub mod batch;
pub mod bindings;
pub mod construct;
pub mod containment;
pub mod matcher;
pub mod subst;
pub mod unify;

pub use batch::FlatCond;
pub use bindings::{Bindings, BoundValue};
pub use construct::{ConstructError, Constructor};
pub use matcher::{match_objects, match_pattern, match_tail_patterns, match_top_level};
pub use unify::{unify_query_with_head, Unifier};
