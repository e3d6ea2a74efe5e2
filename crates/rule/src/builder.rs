//! Ergonomic constructors for linkage rules.
//!
//! Examples and tests build rules by hand (as a rule author would in Silk);
//! these helpers keep that concise:
//!
//! ```
//! use linkdisc_rule::{aggregation, compare, property, transform, AggregationFunction,
//!                     DistanceFunction, TransformFunction, LinkageRule};
//!
//! let rule: LinkageRule = aggregation(
//!     AggregationFunction::Min,
//!     vec![
//!         compare(
//!             transform(TransformFunction::LowerCase, vec![property("label")]),
//!             transform(TransformFunction::LowerCase, vec![property("rdfs:label")]),
//!             DistanceFunction::Levenshtein,
//!             1.0,
//!         ),
//!         compare(property("point"), property("coord"), DistanceFunction::Geographic, 50.0),
//!     ],
//! )
//! .into();
//! assert_eq!(rule.operator_count(), 9);
//! ```

use linkdisc_similarity::DistanceFunction;
use linkdisc_transform::TransformFunction;

use crate::aggregation::AggregationFunction;
use crate::operators::{SimilarityOperator, ValueOperator};

/// Creates a property operator.
pub fn property(name: impl Into<String>) -> ValueOperator {
    ValueOperator::property(name)
}

/// Creates a transformation operator.
pub fn transform(function: TransformFunction, inputs: Vec<ValueOperator>) -> ValueOperator {
    ValueOperator::transformation(function, inputs)
}

/// Creates a comparison operator with weight 1.
pub fn compare(
    source: ValueOperator,
    target: ValueOperator,
    function: DistanceFunction,
    threshold: f64,
) -> SimilarityOperator {
    SimilarityOperator::comparison(source, target, function, threshold)
}

/// Creates an aggregation operator with weight 1.
pub fn aggregation(
    function: AggregationFunction,
    operators: Vec<SimilarityOperator>,
) -> SimilarityOperator {
    SimilarityOperator::aggregation(function, operators)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::LinkageRule;

    #[test]
    fn free_function_builders_compose() {
        let op = aggregation(
            AggregationFunction::Max,
            vec![compare(
                transform(TransformFunction::Tokenize, vec![property("title")]),
                property("name"),
                DistanceFunction::Jaccard,
                0.4,
            )],
        );
        let rule: LinkageRule = op.into();
        assert!(rule.stats().uses_transformations);
    }
}
