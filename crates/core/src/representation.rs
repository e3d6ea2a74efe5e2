//! Linkage-rule representation restrictions (Section 6.3, Table 13).
//!
//! The paper measures the contribution of its expressive representation by
//! also learning rules under three restricted representations that correspond
//! to common approaches from the record-linkage literature:
//!
//! * **Boolean** — threshold-based boolean classifiers (Definition 10): a
//!   single `min`/`max` aggregation of comparisons, no transformations.
//! * **Linear** — linear classifiers (Definition 9): a single weighted-mean
//!   aggregation of comparisons, no transformations.
//! * **Non-linear** — nested aggregations allowed, but still no
//!   transformations.
//! * **Full** — the complete representation of Section 3.
//!
//! A restriction is *enforced* on every generated or recombined rule: the
//! random-rule generator only draws allowed shapes, and [`RepresentationMode::enforce`]
//! normalises crossover products back into the restricted space (stripping
//! transformations, flattening nested aggregations and rewriting disallowed
//! aggregation functions).

use linkdisc_rule::{
    Aggregation, AggregationFunction, LinkageRule, SimilarityOperator, ValueOperator,
};

/// The four representations compared in Table 13 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RepresentationMode {
    /// Threshold-based boolean classifiers without transformations.
    Boolean,
    /// Linear classifiers without transformations.
    Linear,
    /// Non-linear classifiers without transformations.
    NonLinear,
    /// The full expressivity of Section 3 (default).
    #[default]
    Full,
}

impl RepresentationMode {
    /// All representations in the order of Table 13.
    pub const ALL: [RepresentationMode; 4] = [
        RepresentationMode::Boolean,
        RepresentationMode::Linear,
        RepresentationMode::NonLinear,
        RepresentationMode::Full,
    ];

    /// Display name as used in Table 13.
    pub fn name(&self) -> &'static str {
        match self {
            RepresentationMode::Boolean => "Boolean",
            RepresentationMode::Linear => "Linear",
            RepresentationMode::NonLinear => "Non-linear",
            RepresentationMode::Full => "Full",
        }
    }

    /// Whether transformation operators may appear in rules.
    pub fn allows_transformations(&self) -> bool {
        matches!(self, RepresentationMode::Full)
    }

    /// Whether aggregations may be nested.
    fn allows_nested_aggregations(&self) -> bool {
        matches!(
            self,
            RepresentationMode::NonLinear | RepresentationMode::Full
        )
    }

    /// The aggregation functions available under this representation.
    pub fn allowed_aggregations(&self) -> &'static [AggregationFunction] {
        match self {
            RepresentationMode::Boolean => &[AggregationFunction::Min, AggregationFunction::Max],
            RepresentationMode::Linear => &[AggregationFunction::WeightedMean],
            RepresentationMode::NonLinear | RepresentationMode::Full => &[
                AggregationFunction::Min,
                AggregationFunction::Max,
                AggregationFunction::WeightedMean,
            ],
        }
    }

    /// Returns `true` if the rule already satisfies this representation.
    pub fn permits(&self, rule: &LinkageRule) -> bool {
        let Some(root) = rule.root() else { return true };
        if !self.allows_transformations() && root.has_transformations() {
            return false;
        }
        if !self.allows_nested_aggregations() && root.has_nested_aggregation() {
            return false;
        }
        root.aggregations()
            .iter()
            .all(|a| self.allowed_aggregations().contains(&a.function))
    }

    /// Normalises a rule into this representation:
    ///
    /// * transformations are stripped (each transformation is replaced by its
    ///   first property descendant),
    /// * nested aggregations are flattened into their parent,
    /// * disallowed aggregation functions are replaced by the first allowed
    ///   one.
    pub fn enforce(&self, rule: &mut LinkageRule) {
        let Some(root) = rule.root_mut() else { return };
        if !self.allows_transformations() {
            root.for_each_value_root_mut(&mut |value| {
                if let Some(property) = first_property(value) {
                    *value = ValueOperator::property(property);
                }
            });
        }
        if !self.allows_nested_aggregations() {
            flatten(root);
        }
        rewrite_aggregation_functions(root, self.allowed_aggregations());
    }
}

impl std::fmt::Display for RepresentationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The name of the first property operator below a value operator.
fn first_property(value: &ValueOperator) -> Option<String> {
    match value {
        ValueOperator::Property(p) => Some(p.property.clone()),
        ValueOperator::Transformation(t) => t.inputs.iter().find_map(first_property),
    }
}

/// Splices the comparisons of nested aggregations into the root aggregation.
fn flatten(root: &mut SimilarityOperator) {
    if let SimilarityOperator::Aggregation(aggregation) = root {
        let mut flat = Vec::new();
        collect_comparisons(aggregation, &mut flat);
        aggregation.operators = flat;
    }
}

fn collect_comparisons(aggregation: &Aggregation, out: &mut Vec<SimilarityOperator>) {
    for operator in &aggregation.operators {
        match operator {
            SimilarityOperator::Comparison(_) => out.push(operator.clone()),
            SimilarityOperator::Aggregation(nested) => collect_comparisons(nested, out),
        }
    }
}

fn rewrite_aggregation_functions(node: &mut SimilarityOperator, allowed: &[AggregationFunction]) {
    if let SimilarityOperator::Aggregation(aggregation) = node {
        if !allowed.contains(&aggregation.function) {
            aggregation.function = allowed[0];
        }
        for child in &mut aggregation.operators {
            rewrite_aggregation_functions(child, allowed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_rule::{
        aggregation, compare, property, transform, DistanceFunction, TransformFunction,
    };

    fn complex_rule() -> LinkageRule {
        aggregation(
            AggregationFunction::WeightedMean,
            vec![
                compare(
                    transform(TransformFunction::LowerCase, vec![property("label")]),
                    property("name"),
                    DistanceFunction::Levenshtein,
                    1.0,
                ),
                aggregation(
                    AggregationFunction::Max,
                    vec![
                        compare(
                            property("date"),
                            property("released"),
                            DistanceFunction::Date,
                            30.0,
                        ),
                        compare(
                            property("director"),
                            property("director"),
                            DistanceFunction::Jaccard,
                            0.5,
                        ),
                    ],
                ),
            ],
        )
        .into()
    }

    #[test]
    fn full_mode_permits_everything() {
        assert!(RepresentationMode::Full.permits(&complex_rule()));
        let mut rule = complex_rule();
        RepresentationMode::Full.enforce(&mut rule);
        assert_eq!(rule, complex_rule());
    }

    #[test]
    fn boolean_mode_strips_transformations_and_nesting() {
        let mut rule = complex_rule();
        assert!(!RepresentationMode::Boolean.permits(&rule));
        RepresentationMode::Boolean.enforce(&mut rule);
        assert!(RepresentationMode::Boolean.permits(&rule));
        let stats = rule.stats();
        assert_eq!(stats.transformations, 0);
        assert!(!stats.non_linear);
        assert_eq!(stats.comparisons, 3);
        // wmean is not a boolean aggregation; it must have been rewritten
        assert!(rule.root().unwrap().aggregations().iter().all(|a| matches!(
            a.function,
            AggregationFunction::Min | AggregationFunction::Max
        )));
    }

    #[test]
    fn linear_mode_forces_weighted_mean() {
        let mut rule = complex_rule();
        RepresentationMode::Linear.enforce(&mut rule);
        assert!(RepresentationMode::Linear.permits(&rule));
        assert!(rule
            .root()
            .unwrap()
            .aggregations()
            .iter()
            .all(|a| a.function == AggregationFunction::WeightedMean));
        assert!(!rule.stats().non_linear);
        assert_eq!(rule.stats().transformations, 0);
    }

    #[test]
    fn non_linear_mode_keeps_nesting_but_strips_transformations() {
        let mut rule = complex_rule();
        RepresentationMode::NonLinear.enforce(&mut rule);
        assert!(RepresentationMode::NonLinear.permits(&rule));
        assert!(rule.stats().non_linear);
        assert_eq!(rule.stats().transformations, 0);
    }

    #[test]
    fn enforcement_preserves_properties() {
        let mut rule = complex_rule();
        RepresentationMode::Boolean.enforce(&mut rule);
        let (source, _) = rule.root().unwrap().properties();
        assert!(source.contains(&"label"));
        assert!(source.contains(&"date"));
    }

    #[test]
    fn empty_rule_is_always_permitted() {
        let mut rule = LinkageRule::empty();
        for mode in RepresentationMode::ALL {
            assert!(mode.permits(&rule));
            mode.enforce(&mut rule);
        }
    }

    #[test]
    fn names_match_table_13() {
        let names: Vec<&str> = RepresentationMode::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["Boolean", "Linear", "Non-linear", "Full"]);
    }
}
