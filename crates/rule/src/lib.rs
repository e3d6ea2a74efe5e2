//! Expressive linkage rule representation (Section 3 of the paper).
//!
//! A linkage rule is a strongly typed operator tree built from four operators:
//!
//! * **Property operator** — retrieves all values of a property of an entity,
//! * **Transformation operator** — transforms the values of child value
//!   operators with a transformation function; transformations may be nested
//!   into chains,
//! * **Comparison operator** — evaluates the similarity of two entities based
//!   on two value operators, a distance measure and a threshold,
//! * **Aggregation operator** — combines the scores of several similarity
//!   operators with an aggregation function and per-operator weights;
//!   aggregations may be nested, which makes the representation non-linear.
//!
//! The rule assigns a similarity in `[0, 1]` to every entity pair; pairs with
//! a similarity of at least `0.5` are considered links (Definition 3).
//!
//! Besides the representation itself this crate provides evaluation
//! ([`LinkageRule::evaluate`]), index-based tree navigation used by the
//! genetic operators ([`navigate`]), a textual DSL with parser and printer
//! ([`dsl`]), an ASCII tree renderer used to regenerate the paper's rule
//! figures ([`render`]), and structural statistics ([`stats`]).

pub mod aggregation;
pub mod builder;
pub mod compiled;
pub mod dsl;
pub mod indexing;
pub mod navigate;
pub mod operators;
pub mod render;
pub mod rule;
pub mod stats;
pub mod tokens;

pub use aggregation::AggregationFunction;
pub use builder::{aggregation, compare, property, transform, RuleBuilder};
pub use compiled::{
    BoundSide, ChainValues, ColumnMemo, CompiledChain, CompiledRule, DistanceColumn, DistanceKey,
    EvalStats, PinnedValueCache, ValueCache,
};
pub use dsl::{parse_rule, print_rule, DslError};
pub use indexing::{IndexedComparison, IndexingPlan, PlanNode};
pub use operators::{
    Aggregation, Comparison, PropertyOperator, SimilarityOperator, TransformationOperator,
    ValueOperator,
};
pub use render::render_rule;
pub use rule::{LinkageRule, LINK_THRESHOLD};
pub use stats::RuleStats;

// Re-export the function enums so downstream crates only need `linkdisc-rule`.
pub use linkdisc_similarity::DistanceFunction;
pub use linkdisc_transform::TransformFunction;
