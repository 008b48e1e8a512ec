//! # MSL — the Mediator Specification Language
//!
//! The declarative language of MedMaker (§1.2, §2 of the paper). An MSL
//! *specification* is a set of rules plus declarations of external
//! predicates; an MSL *query* is a single rule evaluated against a mediator
//! or a source. The paper's running example MS1:
//!
//! ```text
//! <cs_person {<name N> <rel R> Rest1 Rest2}> :-
//!     <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
//!     AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
//!     AND decomp(N, LN, FN)
//!
//! decomp(bound, free, free) by name_to_lnfn
//! decomp(free, bound, bound) by lnfn_to_name
//! ```
//!
//! Patterns take the form `<object-id label type value>`; dropping one field
//! drops the type, dropping two drops the type and the object-id (§2).
//! Variables start with an uppercase letter. `X:<...>` binds the object
//! variable `X` to the matched object itself. `| Rest` binds the remaining
//! subobjects; `| Rest:{<year 3>}` additionally constrains them. `@source`
//! names the source a pattern is matched against. `$X` is a parameter slot
//! in parameterized queries (§3.4's `Qcs`). A `*` before a subobject
//! pattern is the **wildcard**: the pattern may match at any depth (§2,
//! "Other Features"). Head object-ids may be function terms `f(X,...)` —
//! **semantic object-ids** used for object fusion.
//!
//! Modules: [`ast`], [`lexer`], [`parser`], [`printer`], [`validate`],
//! [`rename`], [`error`].

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod error;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod printer;
pub mod rename;
pub mod validate;

pub use ast::{
    Adornment, ExternalDecl, Head, PatValue, Pattern, RestSpec, Rule, SetElem, SetPattern, Slot,
    Spec, TailItem, Term, VisitMut,
};
pub use diag::{Diagnostic, Severity, Span};
pub use error::{MslError, Result};
pub use parser::{parse_query, parse_rule, parse_spec, parse_spec_spanned, RuleSpans, SpecSpans};
