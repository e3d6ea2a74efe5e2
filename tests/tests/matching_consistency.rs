//! Consistency between the matching engine and brute-force rule evaluation,
//! and between the engine's output and the reference links of a dataset.

use genlink::{GenLink, GenLinkConfig};
use linkdisc_datasets::DatasetKind;
use linkdisc_entity::EntityPair;
use linkdisc_matching::{MatchingEngine, MatchingOptions};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, LinkageRule,
    SimilarityOperator, TransformFunction,
};
use std::collections::HashSet;

fn title_rule() -> LinkageRule {
    compare(
        transform(TransformFunction::LowerCase, vec![property("movie:title")]),
        transform(TransformFunction::LowerCase, vec![property("rdfs:label")]),
        DistanceFunction::Levenshtein,
        0.5,
    )
    .into()
}

#[test]
fn engine_without_blocking_agrees_with_brute_force() {
    let dataset = DatasetKind::LinkedMdb.generate(0.3, 3);
    let rule = title_rule();
    let report = MatchingEngine::new(rule.clone())
        .with_options(MatchingOptions {
            use_blocking: false,
            threads: 2,
            ..MatchingOptions::default()
        })
        .run(&dataset.source, &dataset.target);
    let mut expected = HashSet::new();
    for source_entity in dataset.source.entities() {
        for target_entity in dataset.target.entities() {
            if rule.is_link(&EntityPair::new(source_entity, target_entity)) {
                expected.insert((
                    source_entity.id().to_string(),
                    target_entity.id().to_string(),
                ));
            }
        }
    }
    let produced: HashSet<(String, String)> = report
        .links
        .iter()
        .map(|l| (l.source.clone(), l.target.clone()))
        .collect();
    assert_eq!(produced, expected);
    assert_eq!(report.evaluated_pairs, report.cross_product);
}

#[test]
fn blocking_is_lossless_and_adds_no_links() {
    let dataset = DatasetKind::Restaurant.generate(0.3, 5);
    let rule: LinkageRule = compare(
        transform(TransformFunction::LowerCase, vec![property("name")]),
        transform(TransformFunction::LowerCase, vec![property("name")]),
        DistanceFunction::Levenshtein,
        0.5,
    )
    .into();
    let full = MatchingEngine::new(rule.clone())
        .with_options(MatchingOptions {
            use_blocking: false,
            ..MatchingOptions::default()
        })
        .run(&dataset.source, &dataset.target);
    let blocked = MatchingEngine::new(rule).run(&dataset.source, &dataset.target);
    let full_set: HashSet<_> = full
        .links
        .iter()
        .map(|l| (l.source.clone(), l.target.clone()))
        .collect();
    let blocked_set: HashSet<_> = blocked
        .links
        .iter()
        .map(|l| (l.source.clone(), l.target.clone()))
        .collect();
    assert!(blocked_set.is_subset(&full_set));
    // MultiBlock candidate generation is lossless by construction, so the
    // indexed run reproduces the exhaustive link set exactly
    assert_eq!(blocked_set, full_set);
    assert!(blocked.evaluated_pairs <= full.evaluated_pairs);
}

#[test]
fn engine_recovers_most_reference_links_with_a_good_rule() {
    // titles alone are ambiguous on LinkedMDB (same title, different year), so
    // the rule combines the title with the release date — the shape of the
    // manually written rule the paper describes for this data set
    let dataset = DatasetKind::LinkedMdb.generate(0.4, 9);
    let mut title = compare(
        transform(TransformFunction::LowerCase, vec![property("movie:title")]),
        transform(TransformFunction::LowerCase, vec![property("rdfs:label")]),
        DistanceFunction::Levenshtein,
        0.5,
    );
    title.set_weight(2);
    let date = compare(
        property("movie:initial_release_date"),
        property("dbpedia:released"),
        DistanceFunction::Date,
        400.0,
    );
    let rule: LinkageRule = linkdisc_rule::aggregation(
        linkdisc_rule::AggregationFunction::WeightedMean,
        vec![title, date],
    )
    .into();
    let report = MatchingEngine::new(rule)
        .with_options(MatchingOptions {
            best_match_only: true,
            ..MatchingOptions::default()
        })
        .run(&dataset.source, &dataset.target);
    let produced: HashSet<(String, String)> = report
        .links
        .iter()
        .map(|l| (l.source.clone(), l.target.clone()))
        .collect();
    let recovered = dataset
        .links
        .positive()
        .iter()
        .filter(|l| produced.contains(&(l.source.clone(), l.target.clone())))
        .count();
    let recall = recovered as f64 / dataset.links.positive().len() as f64;
    assert!(recall > 0.8, "recall was {recall}");
}

fn fuzzy(name: &str, function: TransformFunction, threshold: f64) -> SimilarityOperator {
    compare(
        transform(function, vec![property(name)]),
        transform(function, vec![property(name)]),
        DistanceFunction::Levenshtein,
        threshold,
    )
}

/// Indexed matching links exactly what the exhaustive run links while
/// scoring under 5% of the cross product, on three hand-written rules: fuzzy
/// Cora titles (typos leave no exact token to block on), Restaurant's
/// name ∧ phone conjunction (the plan intersects two leaves), and phones
/// through `digitsOnly` (a quarter of the true matches share no raw token, so
/// only an index over the transformed values keeps them).  A rule the learner
/// produced on Restaurant must be lossless too; how well it prunes depends on
/// what the learner converged to, so its fraction is not bounded.
#[test]
fn indexed_matching_is_lossless_and_prunes_the_cross_product() {
    let learned = {
        let dataset = DatasetKind::Restaurant.generate(0.5, 42);
        let mut config = GenLinkConfig::fast();
        config.gp.population_size = 60;
        config.gp.max_iterations = 10;
        let outcome =
            GenLink::new(config).learn(&dataset.source, &dataset.target, &dataset.links, 42);
        (dataset, outcome.rule, None)
    };
    let rows = [
        (
            DatasetKind::Cora.generate(0.25, 42),
            fuzzy("title", TransformFunction::LowerCase, 3.0).into(),
            Some(0.05),
        ),
        (
            DatasetKind::Restaurant.generate(1.0, 42),
            aggregation(
                AggregationFunction::Min,
                vec![
                    fuzzy("name", TransformFunction::LowerCase, 2.0),
                    fuzzy("phone", TransformFunction::DigitsOnly, 1.0),
                ],
            )
            .into(),
            Some(0.05),
        ),
        (
            DatasetKind::Restaurant.generate(1.0, 7),
            fuzzy("phone", TransformFunction::DigitsOnly, 1.0).into(),
            Some(0.05),
        ),
        learned,
    ];
    for (dataset, rule, max_fraction) in rows {
        let printed = linkdisc_rule::print_rule(&rule);
        let exhaustive = MatchingEngine::new(rule.clone())
            .with_options(MatchingOptions {
                use_blocking: false,
                ..MatchingOptions::default()
            })
            .run(&dataset.source, &dataset.target);
        let indexed = MatchingEngine::new(rule).run(&dataset.source, &dataset.target);
        assert!(!exhaustive.links.is_empty(), "{printed} linked nothing");
        assert_eq!(indexed.links, exhaustive.links, "{printed}");
        let fraction = indexed.evaluated_pairs as f64 / indexed.cross_product as f64;
        if let Some(max_fraction) = max_fraction {
            assert!(
                fraction < max_fraction,
                "{printed} scored {fraction:.3} of the pairs"
            );
        }
    }
}
