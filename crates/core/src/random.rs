//! Random linkage-rule generation (Section 5.1 of the paper).
//!
//! A random rule consists of a random aggregation and up to two comparisons.
//! Each comparison draws a property pair from the pre-generated compatible
//! list (or from all property pairs under the "random" seeding strategy); with
//! a probability of 50% a random transformation is appended to each property.
//! Random rules stay deliberately small — the genetic operators grow bigger
//! trees where the data requires it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use linkdisc_rule::{
    DistanceFunction, LinkageRule, SimilarityOperator, TransformFunction, ValueOperator,
};

use crate::representation::RepresentationMode;
use crate::seeding::CompatiblePair;

/// Parameters of the random-rule generator.
#[derive(Debug, Clone)]
pub struct RandomRuleGenerator {
    /// The property pairs comparisons are drawn from.
    pub pairs: Vec<CompatiblePair>,
    /// The representation the generated rules must adhere to.
    pub representation: RepresentationMode,
    /// Probability of appending a random transformation to each property
    /// (paper: 50%).
    pub transformation_probability: f64,
    /// Maximum number of comparisons in an initial rule (paper: 2).
    pub max_comparisons: usize,
    /// Distance functions a comparison may use when it does not inherit the
    /// function of its compatible pair.
    pub distance_functions: Vec<DistanceFunction>,
    /// Transformation functions available to the generator.
    pub transform_functions: Vec<TransformFunction>,
}

impl RandomRuleGenerator {
    /// Creates a generator with the paper's defaults over the given pairs.
    pub fn new(pairs: Vec<CompatiblePair>, representation: RepresentationMode) -> Self {
        RandomRuleGenerator {
            pairs,
            representation,
            transformation_probability: 0.5,
            max_comparisons: 2,
            distance_functions: DistanceFunction::PAPER.to_vec(),
            transform_functions: TransformFunction::PAPER.to_vec(),
        }
    }

    /// Generates a random linkage rule.
    ///
    /// If no property pairs are available the empty rule is returned (the
    /// learner treats that as a degenerate individual with fitness −∞).
    pub fn generate(&self, rng: &mut StdRng) -> LinkageRule {
        if self.pairs.is_empty() {
            return LinkageRule::empty();
        }
        let comparison_count = rng.gen_range(1..=self.max_comparisons.max(1));
        let comparisons: Vec<SimilarityOperator> = (0..comparison_count)
            .map(|_| self.random_comparison(rng))
            .collect();
        let mut rule = if comparisons.len() == 1 && rng.gen_bool(0.5) {
            // a single comparison may stand alone as the rule root
            LinkageRule::new(comparisons.into_iter().next().expect("one comparison"))
        } else {
            let function = *self
                .representation
                .allowed_aggregations()
                .choose(rng)
                .expect("at least one aggregation function");
            LinkageRule::new(SimilarityOperator::aggregation(function, comparisons))
        };
        self.representation.enforce(&mut rule);
        rule
    }

    /// Generates a random comparison over a random compatible pair.
    ///
    /// Pairs are drawn with a probability proportional to their seeding
    /// support (plus a floor so unsupported pairs — and the uniform "random"
    /// strategy of Table 14, where every support is zero — remain reachable).
    /// Wide data sets produce many weakly supported filler pairs; favouring
    /// well-supported pairs keeps the initial population focused without
    /// excluding anything.
    fn random_comparison(&self, rng: &mut StdRng) -> SimilarityOperator {
        let pair = self
            .pairs
            .choose_weighted(rng, |p| p.support + 0.05)
            .expect("pairs are not empty");
        let function = if rng.gen_bool(0.5) {
            pair.function
        } else {
            *self
                .distance_functions
                .choose(rng)
                .unwrap_or(&pair.function)
        };
        let threshold = self.random_threshold(function, rng);
        let source = self.random_value_operator(&pair.source_property, rng);
        let target = self.random_value_operator(&pair.target_property, rng);
        let mut comparison = SimilarityOperator::comparison(source, target, function, threshold);
        if self.representation == RepresentationMode::Linear
            || self.representation == RepresentationMode::Full
        {
            comparison.set_weight(rng.gen_range(1..=4));
        }
        comparison
    }

    /// Draws a random threshold for the given measure, centred on its default.
    fn random_threshold(&self, function: DistanceFunction, rng: &mut StdRng) -> f64 {
        let default = function.default_threshold();
        let max = function.max_threshold();
        let factor: f64 = rng.gen_range(0.25..=2.0);
        (default * factor).clamp(0.0, max)
    }

    /// A random value operator over the given property, optionally wrapped in
    /// a random transformation.
    fn random_value_operator(&self, property: &str, rng: &mut StdRng) -> ValueOperator {
        let base = ValueOperator::property(property);
        if self.representation.allows_transformations()
            && !self.transform_functions.is_empty()
            && rng.gen_bool(self.transformation_probability)
        {
            let function = *self
                .transform_functions
                .choose(rng)
                .expect("transform functions are not empty");
            // `concatenate` needs two inputs to be meaningful; fall back to a
            // single-input transformation for the initial population.
            if function.is_multi_input() {
                ValueOperator::transformation(TransformFunction::LowerCase, vec![base])
            } else {
                ValueOperator::transformation(function, vec![base])
            }
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pairs() -> Vec<CompatiblePair> {
        vec![
            CompatiblePair {
                source_property: "label".into(),
                target_property: "name".into(),
                function: DistanceFunction::Levenshtein,
                support: 1.0,
            },
            CompatiblePair {
                source_property: "point".into(),
                target_property: "coord".into(),
                function: DistanceFunction::Geographic,
                support: 0.8,
            },
        ]
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn generated_rules_are_small_and_well_typed() {
        let generator = RandomRuleGenerator::new(pairs(), RepresentationMode::Full);
        let mut rng = rng(1);
        for _ in 0..200 {
            let rule = generator.generate(&mut rng);
            let stats = rule.stats();
            assert!(!rule.is_empty());
            assert!(
                stats.comparisons >= 1 && stats.comparisons <= 2,
                "{stats:?}"
            );
            assert!(stats.aggregations <= 1);
            assert!(stats.depth <= 2);
        }
    }

    #[test]
    fn generated_rules_only_use_known_properties() {
        let generator = RandomRuleGenerator::new(pairs(), RepresentationMode::Full);
        let mut rng = rng(2);
        for _ in 0..100 {
            let rule = generator.generate(&mut rng);
            let (source, target) = rule.root().unwrap().properties();
            for p in source {
                assert!(p == "label" || p == "point");
            }
            for p in target {
                assert!(p == "name" || p == "coord");
            }
        }
    }

    #[test]
    fn transformations_appear_roughly_half_the_time() {
        let generator = RandomRuleGenerator::new(pairs(), RepresentationMode::Full);
        let mut rng = rng(3);
        let mut with_transformations = 0;
        let total = 400;
        for _ in 0..total {
            if generator.generate(&mut rng).stats().uses_transformations {
                with_transformations += 1;
            }
        }
        // each rule has 2-4 property slots, each transformed with p=0.5, so a
        // large majority of rules should carry at least one transformation,
        // but far from all of them
        assert!(with_transformations > total / 2, "{with_transformations}");
        assert!(with_transformations < total, "{with_transformations}");
    }

    #[test]
    fn restricted_representations_are_respected() {
        let mut rng = rng(4);
        for mode in [
            RepresentationMode::Boolean,
            RepresentationMode::Linear,
            RepresentationMode::NonLinear,
        ] {
            let generator = RandomRuleGenerator::new(pairs(), mode);
            for _ in 0..100 {
                let rule = generator.generate(&mut rng);
                assert!(mode.permits(&rule), "{mode} violated by {rule:?}");
                assert_eq!(rule.stats().transformations, 0);
            }
        }
    }

    #[test]
    fn no_pairs_yield_the_empty_rule() {
        let generator = RandomRuleGenerator::new(vec![], RepresentationMode::Full);
        assert!(generator.generate(&mut rng(5)).is_empty());
    }

    #[test]
    fn thresholds_stay_within_bounds() {
        let generator = RandomRuleGenerator::new(pairs(), RepresentationMode::Full);
        let mut rng = rng(6);
        for _ in 0..200 {
            for function in DistanceFunction::ALL {
                let threshold = generator.random_threshold(function, &mut rng);
                assert!(threshold >= 0.0);
                assert!(threshold <= function.max_threshold());
            }
        }
    }
}
