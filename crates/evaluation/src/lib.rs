//! Evaluation of linkage rules: confusion matrices, F-measure, Matthews
//! correlation coefficient, scoring a rule against reference links, and run
//! summaries.
//!
//! The paper evaluates learned rules with the F-measure on the reference links
//! (training and validation folds of a 2-fold cross validation, averaged over
//! 10 runs; the fold loop lives in the `exp` experiment binary) and uses the
//! Matthews correlation coefficient (MCC) as the fitness measure of the
//! genetic search (Section 5.2).

#![warn(unreachable_pub)]

pub mod confusion;
pub mod protocol;
pub mod summary;

pub use confusion::ConfusionMatrix;
pub use protocol::{
    evaluate_compiled, evaluate_compiled_stats, evaluate_rule, evaluate_rule_on_links,
};
pub use summary::Summary;
