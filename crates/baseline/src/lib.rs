//! Baseline learners the paper compares GenLink against.
//!
//! * [`expression`] / [`carvalho`] — a re-implementation of the genetic
//!   programming approach of de Carvalho et al. (TKDE 2012) as described in
//!   Section 4 of the GenLink paper: candidate solutions are mathematical
//!   expression trees over pre-supplied `<attribute, similarity function>`
//!   pairs combined with `+`, `−`, `*`, `/`, `exp` and constants.  The
//!   approach cannot express data transformations, which is exactly the gap
//!   the Cora experiment of the paper exposes.
//! * [`static_rules`] — simple hand-written rules (exact match on a key
//!   property) used as sanity baselines in the examples and experiments.

#![warn(unreachable_pub)]

pub mod carvalho;
pub mod expression;
pub mod static_rules;

pub use carvalho::{CarvalhoConfig, CarvalhoLearner, CarvalhoOutcome};
pub use expression::{AttributePair, Expression};
pub use static_rules::exact_match_rule;
