//! Structural statistics of linkage rules.
//!
//! Section 6.2 of the paper reports the size of learned rules (e.g. for
//! DBpediaDrugBank: "the generated linkage rules on average only use 5.6
//! comparisons and 3.2 transformations"); these statistics are what the
//! experiment harness aggregates.

use crate::rule::LinkageRule;

/// Structural statistics of a linkage rule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuleStats {
    /// Total number of operators of any kind.
    pub operators: usize,
    /// Number of comparison operators.
    pub comparisons: usize,
    /// Number of aggregation operators.
    pub aggregations: usize,
    /// Number of transformation operators.
    pub transformations: usize,
    /// Depth of the similarity-operator tree.
    pub depth: usize,
    /// Whether the rule nests aggregations (is non-linear).
    pub non_linear: bool,
    /// Whether the rule uses any transformation.
    pub uses_transformations: bool,
}

impl RuleStats {
    /// Computes the statistics of a rule.
    pub fn of(rule: &LinkageRule) -> Self {
        match rule.root() {
            None => RuleStats::default(),
            Some(root) => RuleStats {
                operators: root.operator_count(),
                comparisons: root.comparison_count(),
                aggregations: root.aggregation_count(),
                transformations: root.transformation_count(),
                depth: root.depth(),
                non_linear: root.has_nested_aggregation(),
                uses_transformations: root.has_transformations(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::AggregationFunction;
    use crate::operators::{SimilarityOperator, ValueOperator};
    use linkdisc_similarity::DistanceFunction;
    use linkdisc_transform::TransformFunction;

    fn sample_rule() -> LinkageRule {
        LinkageRule::new(SimilarityOperator::aggregation(
            AggregationFunction::Min,
            vec![
                SimilarityOperator::comparison(
                    ValueOperator::transformation(
                        TransformFunction::LowerCase,
                        vec![ValueOperator::property("label")],
                    ),
                    ValueOperator::property("name"),
                    DistanceFunction::Levenshtein,
                    1.0,
                ),
                SimilarityOperator::aggregation(
                    AggregationFunction::Max,
                    vec![SimilarityOperator::comparison(
                        ValueOperator::property("date"),
                        ValueOperator::property("date"),
                        DistanceFunction::Date,
                        30.0,
                    )],
                ),
            ],
        ))
    }

    #[test]
    fn stats_count_every_operator_kind() {
        let stats = sample_rule().stats();
        assert_eq!(stats.comparisons, 2);
        assert_eq!(stats.aggregations, 2);
        assert_eq!(stats.transformations, 1);
        assert_eq!(stats.operators, 2 + 2 + 1 + 4);
        assert_eq!(stats.depth, 3);
        assert!(stats.non_linear);
        assert!(stats.uses_transformations);
    }

    #[test]
    fn stats_of_empty_rule_are_zero() {
        let stats = LinkageRule::empty().stats();
        assert_eq!(stats, RuleStats::default());
    }
}
