//! Seeding of the initial population (Section 5.1 of the paper).
//!
//! GenLink does not start from a completely random population.  To shrink the
//! search space — which explodes when the data sets have many properties or
//! follow different schemata — it first builds a list of *compatible property
//! pairs*: pairs of a source property and a target property that hold similar
//! values on the positively linked entities (Algorithm 2).  Random rules are
//! then built over those pairs only.
//!
//! The experiment of Table 14 compares this seeding against fully random
//! property selection; both strategies are available here.

use linkdisc_entity::normalized_tokens;
use linkdisc_entity::{DataSource, EntityPair, ReferenceLinks};
use linkdisc_similarity::{levenshtein_bounded, DistanceFunction};

/// A pair of properties that hold similar values, together with the distance
/// measure under which they were found to be similar.
#[derive(Debug, Clone, PartialEq)]
pub struct CompatiblePair {
    /// Property of the source data set.
    pub source_property: String,
    /// Property of the target data set.
    pub target_property: String,
    /// The distance measure under which similar tokens were found.
    pub function: DistanceFunction,
    /// Fraction of the inspected positive links for which the pair matched;
    /// not part of the paper's algorithm, but useful for diagnostics and kept
    /// deterministic.
    pub support: f64,
}

/// Configuration of the compatible-property search (Algorithm 2).
#[derive(Debug, Clone)]
pub struct SeedingConfig {
    /// Distance measures probed.  The paper's experiments "only used the
    /// levenshtein distance with a threshold of 1".
    pub functions: Vec<DistanceFunction>,
    /// The distance threshold `θ_d`.
    pub threshold: f64,
    /// Maximum number of positive links inspected (Algorithm 2 walks all
    /// positive links; large data sets make that quadratic in the number of
    /// properties, so the search can be capped — 100 links are plenty to find
    /// every compatible pair in practice).
    pub max_links: usize,
}

impl Default for SeedingConfig {
    fn default() -> Self {
        SeedingConfig {
            functions: vec![DistanceFunction::Levenshtein],
            threshold: 1.0,
            max_links: 100,
        }
    }
}

/// Finds compatible property pairs (Algorithm 2 of the paper).
///
/// For every positive reference link and every pair `(p_i, p_j)` of a source
/// and a target property, the property values are lower-cased and tokenized;
/// if any distance measure of `config.functions` finds two tokens within
/// `config.threshold`, the pair `(p_i, p_j, f^d)` is added to the result.
pub fn find_compatible_properties(
    source: &DataSource,
    target: &DataSource,
    links: &ReferenceLinks,
    config: &SeedingConfig,
) -> Vec<CompatiblePair> {
    compatible_properties_by(source, target, links, config, |function, a, b| {
        any_within(function, a, b, config.threshold)
    })
}

/// Whether some value of `a` and some value of `b` are strictly within
/// `threshold` of each other under `function`.  The algorithm asks "is there
/// one", not "what is the minimum": Levenshtein stops at the first pair the
/// banded kernel accepts and never looks beyond the band.
fn any_within(function: DistanceFunction, a: &[String], b: &[String], threshold: f64) -> bool {
    match function {
        DistanceFunction::Levenshtein => {
            // integer distances: d < θ ⟺ d ≤ ⌈θ⌉ − 1 (nothing is within a
            // threshold that is ≤ 0 or NaN)
            let bound = threshold.ceil() - 1.0;
            let within = |va, vb| levenshtein_bounded(va, vb, bound.min(1e9) as usize).is_some();
            bound >= 0.0 && a.iter().any(|va| b.iter().any(|vb| within(va, vb)))
        }
        _ => function.evaluate(a, b) < threshold,
    }
}

/// Algorithm 2 with the similarity test left to the caller:
/// `similar(function, values of p_i, values of p_j)` is asked once for the
/// token view and, if that fails, once for the lower-cased full values.
fn compatible_properties_by(
    source: &DataSource,
    target: &DataSource,
    links: &ReferenceLinks,
    config: &SeedingConfig,
    similar: impl Fn(DistanceFunction, &[String], &[String]) -> bool,
) -> Vec<CompatiblePair> {
    let source_properties = source.schema().properties();
    let target_properties = target.schema().properties();
    let mut match_counts = vec![
        vec![vec![0usize; config.functions.len()]; target_properties.len()];
        source_properties.len()
    ];
    let mut inspected = 0usize;

    for link in links.positive().iter().take(config.max_links) {
        let Some(pair) = EntityPair::resolve(link, source, target) else {
            continue;
        };
        inspected += 1;
        // pre-normalise every property of both entities once per link; the
        // token view serves string measures, the lower-cased full values keep
        // structured measures (numeric, geographic, date) meaningful
        let lower = |values: &[String]| -> Vec<String> {
            values.iter().map(|v| v.to_lowercase()).collect()
        };
        let source_tokens: Vec<(Vec<String>, Vec<String>)> = (0..source_properties.len())
            .map(|i| {
                let values = pair.source.values_at(i);
                (normalized_tokens(values), lower(values))
            })
            .collect();
        let target_tokens: Vec<(Vec<String>, Vec<String>)> = (0..target_properties.len())
            .map(|j| {
                let values = pair.target.values_at(j);
                (normalized_tokens(values), lower(values))
            })
            .collect();
        for (i, (tokens_a, values_a)) in source_tokens.iter().enumerate() {
            if tokens_a.is_empty() {
                continue;
            }
            for (j, (tokens_b, values_b)) in target_tokens.iter().enumerate() {
                if tokens_b.is_empty() {
                    continue;
                }
                for (k, &function) in config.functions.iter().enumerate() {
                    if similar(function, tokens_a, tokens_b)
                        || similar(function, values_a, values_b)
                    {
                        match_counts[i][j][k] += 1;
                    }
                }
            }
        }
    }

    let mut pairs = Vec::new();
    if inspected == 0 {
        return pairs;
    }
    for (i, by_target) in match_counts.iter().enumerate() {
        for (j, by_function) in by_target.iter().enumerate() {
            for (k, &count) in by_function.iter().enumerate() {
                if count > 0 {
                    pairs.push(CompatiblePair {
                        source_property: source_properties[i].clone(),
                        target_property: target_properties[j].clone(),
                        function: config.functions[k],
                        support: count as f64 / inspected as f64,
                    });
                }
            }
        }
    }
    // most-supported pairs first so that diagnostics (and ties broken by the
    // random generator) favour strongly compatible properties
    pairs.sort_by(|a, b| {
        b.support
            .total_cmp(&a.support)
            .then_with(|| a.source_property.cmp(&b.source_property))
            .then_with(|| a.target_property.cmp(&b.target_property))
    });
    pairs
}

/// Builds the exhaustive list of property pairs (every source property crossed
/// with every target property) — the "Random" strategy of Table 14.
pub fn all_property_pairs(source: &DataSource, target: &DataSource) -> Vec<CompatiblePair> {
    let mut pairs = Vec::new();
    for source_property in source.schema().properties() {
        for target_property in target.schema().properties() {
            pairs.push(CompatiblePair {
                source_property: source_property.clone(),
                target_property: target_property.clone(),
                function: DistanceFunction::Levenshtein,
                support: 0.0,
            });
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::{DataSourceBuilder, ReferenceLinksBuilder};

    /// The example of Figure 3 of the paper: two entities whose `label`
    /// properties hold similar values and whose `point`/`coord` properties
    /// hold identical values.
    fn figure3_sources() -> (DataSource, DataSource, ReferenceLinks) {
        let source = DataSourceBuilder::new("A", ["label", "point", "population"])
            .entity(
                "a1",
                [
                    ("label", "Berlin"),
                    ("point", "52.52 13.40"),
                    ("population", "3500000"),
                ],
            )
            .unwrap()
            .build();
        let target = DataSourceBuilder::new("B", ["label", "coord", "founded"])
            .entity(
                "b1",
                [
                    ("label", "berlin"),
                    ("coord", "52.52 13.40"),
                    ("founded", "1237"),
                ],
            )
            .unwrap()
            .build();
        let links = ReferenceLinksBuilder::new().positive("a1", "b1").build();
        (source, target, links)
    }

    #[test]
    fn finds_label_and_coordinate_pairs() {
        let (source, target, links) = figure3_sources();
        let pairs = find_compatible_properties(&source, &target, &links, &SeedingConfig::default());
        let keys: Vec<(&str, &str)> = pairs
            .iter()
            .map(|p| (p.source_property.as_str(), p.target_property.as_str()))
            .collect();
        assert!(keys.contains(&("label", "label")));
        assert!(keys.contains(&("point", "coord")));
        // population vs founded hold dissimilar numbers and must not pair up
        assert!(!keys.contains(&("population", "founded")));
    }

    #[test]
    fn geographic_function_detects_coordinates_when_probed() {
        let (source, target, links) = figure3_sources();
        let config = SeedingConfig {
            functions: vec![DistanceFunction::Levenshtein, DistanceFunction::Geographic],
            threshold: 1.0,
            max_links: 100,
        };
        let pairs = find_compatible_properties(&source, &target, &links, &config);
        assert!(pairs.iter().any(|p| p.source_property == "point"
            && p.target_property == "coord"
            && p.function == DistanceFunction::Geographic));
    }

    #[test]
    fn no_positive_links_means_no_pairs() {
        let (source, target, _) = figure3_sources();
        let pairs = find_compatible_properties(
            &source,
            &target,
            &ReferenceLinks::default(),
            &SeedingConfig::default(),
        );
        assert!(pairs.is_empty());
    }

    #[test]
    fn unresolvable_links_are_skipped() {
        let (source, target, _) = figure3_sources();
        let links = ReferenceLinksBuilder::new().positive("ghost", "b1").build();
        let pairs = find_compatible_properties(&source, &target, &links, &SeedingConfig::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn support_reflects_match_frequency() {
        let source = DataSourceBuilder::new("A", ["name"])
            .entity("a1", [("name", "alpha")])
            .unwrap()
            .entity("a2", [("name", "beta")])
            .unwrap()
            .build();
        let target = DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "alpha")])
            .unwrap()
            .entity("b2", [("name", "something else")])
            .unwrap()
            .build();
        let links = ReferenceLinksBuilder::new()
            .positive("a1", "b1")
            .positive("a2", "b2")
            .build();
        let pairs = find_compatible_properties(&source, &target, &links, &SeedingConfig::default());
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].support - 0.5).abs() < 1e-12);
    }

    #[test]
    fn existence_test_finds_the_pairs_the_minimum_distance_found() {
        // the reference is the seeding this one replaced: the unbanded
        // minimum over the whole cross product, compared to the threshold
        let functions = vec![DistanceFunction::Levenshtein, DistanceFunction::Numeric];
        let mut pairs_seen = 0;
        for kind in linkdisc_datasets::DatasetKind::ALL {
            for seed in [1, 42, 977] {
                let dataset = kind.generate(0.02, seed);
                for threshold in [0.0, 0.5, 1.0, 1.5, 2.0, -1.0, f64::NAN, f64::INFINITY] {
                    let config = SeedingConfig {
                        functions: functions.clone(),
                        threshold,
                        max_links: 4,
                    };
                    let found = find_compatible_properties(
                        &dataset.source,
                        &dataset.target,
                        &dataset.links,
                        &config,
                    );
                    let expected = compatible_properties_by(
                        &dataset.source,
                        &dataset.target,
                        &dataset.links,
                        &config,
                        |function, a, b| function.evaluate(a, b) < threshold,
                    );
                    assert_eq!(found, expected, "{kind} seed {seed} at θ = {threshold}");
                    pairs_seen += found.len();
                }
            }
        }
        assert!(
            pairs_seen > 100,
            "only {pairs_seen} compatible pairs compared"
        );
    }

    #[test]
    fn all_property_pairs_is_the_cross_product() {
        let (source, target, _) = figure3_sources();
        let pairs = all_property_pairs(&source, &target);
        assert_eq!(pairs.len(), 9);
    }

    #[test]
    fn result_is_deterministic() {
        let (source, target, links) = figure3_sources();
        let a = find_compatible_properties(&source, &target, &links, &SeedingConfig::default());
        let b = find_compatible_properties(&source, &target, &links, &SeedingConfig::default());
        assert_eq!(a, b);
    }
}
