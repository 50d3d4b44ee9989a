#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

//! The Globus Resource Specification Language (RSL) and the InfoGram
//! xRSL extensions.
//!
//! RSL "makes it possible to quickly and uniformly specify jobs to be run
//! as part of a Globus enabled Grid" (§2 of the paper). A specification is
//! a list of parenthesized `attribute op value` relations, optionally
//! combined with the boolean operators `&` (conjunction), `|`
//! (disjunction) and `+` (multi-request):
//!
//! ```text
//! &(executable=/bin/date)(arguments=-u)(count=2)
//! (info=memory)(info=cpu)
//! +(&(executable=a.out))(&(executable=b.out))
//! ```
//!
//! The InfoGram paper extends RSL with the tags `schema`, `info`,
//! `filter`, `response`, `performance`, `quality`, and `format` (§6.6),
//! plus the planned `timeout`/`action` pair — "we call the result xRSL".
//! The [`xrsl`] module gives a typed view over a parsed specification that
//! extracts those tags and classifies the request as a job submission, an
//! information query, or both.
//!
//! Values support quoting (`"..."`, `'...'`, with doubled-quote escapes),
//! implicit sequences (`(arguments=-l -a)`), explicit sub-sequences,
//! variable references (`$(HOME)`), string concatenation (`#`), and
//! variable definition via the classic `rslsubstitution` attribute;
//! [`XrslRequest::from_text`] resolves them before it extracts a request.
//! Nesting is bounded (64 levels of `(`) and so is what variables expand
//! to (64 KiB), so no text can exhaust the parser's stack or the heap.

pub mod ast;
pub mod parser;
pub mod subst;
pub mod token;
pub mod xrsl;

pub use ast::{BoolOp, RelOp, Relation, Spec, Value};
pub use parser::{parse, ParseError};
pub use subst::{substitute, SubstError};
pub use xrsl::{
    InfoSelector, JobRequest, JobType, OutputFormat, RequestAction, RequestKind, ResponseMode,
    TimeoutAction, XrslError, XrslRequest,
};
