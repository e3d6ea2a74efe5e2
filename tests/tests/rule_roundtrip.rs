//! Cross-crate invariants of the rule representation: learned rules round-trip
//! through the DSL and evaluate identically, and their scores stay in [0, 1].

use genlink::{GenLink, GenLinkConfig};
use linkdisc_datasets::DatasetKind;
use linkdisc_entity::{EntityPair, ResolvedReferenceLinks};
use linkdisc_rule::{parse_rule, print_rule, render_rule};
use proptest::prelude::*;

fn learned_rule(seed: u64) -> (linkdisc_datasets::Dataset, linkdisc_rule::LinkageRule) {
    let dataset = DatasetKind::Restaurant.generate(0.2, seed);
    let mut config = GenLinkConfig::fast();
    config.gp.population_size = 50;
    config.gp.max_iterations = 8;
    let outcome =
        GenLink::new(config).learn(&dataset.source, &dataset.target, &dataset.links, seed);
    (dataset, outcome.rule)
}

#[test]
fn learned_rules_round_trip_through_the_dsl() {
    for seed in [1u64, 2, 3] {
        let (dataset, rule) = learned_rule(seed);
        let text = print_rule(&rule);
        let parsed = parse_rule(&text).unwrap_or_else(|e| panic!("cannot parse {text}: {e}"));
        assert_eq!(parsed, rule, "round trip changed the rule for seed {seed}");
        // and the re-parsed rule evaluates identically on every reference pair
        let resolved =
            ResolvedReferenceLinks::resolve(&dataset.links, &dataset.source, &dataset.target);
        for pair in resolved.positive().iter().chain(resolved.negative()) {
            assert_eq!(rule.evaluate(pair), parsed.evaluate(pair));
        }
    }
}

#[test]
fn learned_rules_render_without_panicking() {
    let (_, rule) = learned_rule(4);
    let rendered = render_rule(&rule);
    assert!(rendered.contains("Comparison"));
    assert!(rendered.lines().count() >= 3);
}

#[test]
fn rule_scores_stay_in_the_unit_interval() {
    let (dataset, rule) = learned_rule(5);
    for source_entity in dataset.source.entities().iter().take(20) {
        for target_entity in dataset.target.entities().iter().take(20) {
            let score = rule.evaluate(&EntityPair::new(source_entity, target_entity));
            assert!((0.0..=1.0).contains(&score), "score {score} out of range");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The DSL grammar accepts what the printer produces for a variety of
    /// hand-built rules (weights, nesting, every function name, a non-ASCII
    /// property name).
    #[test]
    fn printed_rules_parse_back(
        threshold in 0.0f64..10.0,
        weight in 1u32..9,
        distance_index in 0usize..9,
        transform_index in 0usize..9,
        aggregation_index in 0usize..3,
    ) {
        use linkdisc_rule::{aggregation, compare, property, transform,
                            AggregationFunction, DistanceFunction, TransformFunction, LinkageRule};
        let distance = DistanceFunction::ALL[distance_index];
        let transformation = TransformFunction::ALL[transform_index];
        let aggregation_function = AggregationFunction::ALL[aggregation_index];
        let mut comparison = compare(
            transform(transformation, vec![property("source property")]),
            property("ziel:straße café"),
            distance,
            threshold,
        );
        comparison.set_weight(weight);
        let rule: LinkageRule = aggregation(aggregation_function, vec![comparison]).into();
        let text = print_rule(&rule);
        let parsed = parse_rule(&text).unwrap();
        prop_assert_eq!(parsed, rule);
    }
}
