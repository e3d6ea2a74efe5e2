//! Scoring rules against reference links: the tree walk, the compiled plan,
//! and links given as identifiers.

use linkdisc_entity::{DataSource, ReferenceLinks, ResolvedReferenceLinks};
use linkdisc_rule::{CompiledRule, EvalStats, LinkageRule, ValueCache, LINK_THRESHOLD};

use crate::confusion::ConfusionMatrix;

/// Scores a rule against already-resolved reference links by walking the
/// operator tree per pair.  This is the reference oracle; the learning loop
/// runs [`evaluate_compiled`] instead.
pub fn evaluate_rule(rule: &LinkageRule, links: &ResolvedReferenceLinks<'_>) -> ConfusionMatrix {
    let mut matrix = ConfusionMatrix::default();
    for pair in links.positive() {
        matrix.record_positive(rule.is_link(pair));
    }
    for pair in links.negative() {
        matrix.record_negative(rule.is_link(pair));
    }
    matrix
}

/// Scores a compiled evaluation plan against resolved reference links,
/// memoizing transformation outputs per entity in `cache`.  Produces exactly
/// the matrix of [`evaluate_rule`] on the original rule.
pub fn evaluate_compiled<'e>(
    compiled: &CompiledRule,
    links: &ResolvedReferenceLinks<'e>,
    cache: &ValueCache<'e>,
) -> ConfusionMatrix {
    let mut stats = EvalStats::default();
    evaluate_compiled_stats(compiled, links, cache, &mut stats)
}

/// [`evaluate_compiled`] accumulating short-circuit counters into `stats`.
///
/// Pairs run through the score-bounded evaluator against the link threshold:
/// only the classification is consumed here, and the bounded contract makes
/// `score ≥ threshold` agree bit-for-bit with exhaustive evaluation, so the
/// matrix is identical to [`evaluate_rule`]'s while most non-links stop at
/// their first decisive comparison.
pub fn evaluate_compiled_stats<'e>(
    compiled: &CompiledRule,
    links: &ResolvedReferenceLinks<'e>,
    cache: &ValueCache<'e>,
    stats: &mut EvalStats,
) -> ConfusionMatrix {
    let mut matrix = ConfusionMatrix::default();
    for pair in links.positive() {
        let score = compiled.evaluate_bounded_two_stats(
            pair.source,
            pair.target,
            cache,
            cache,
            LINK_THRESHOLD,
            stats,
        );
        matrix.record_positive(score >= LINK_THRESHOLD);
    }
    for pair in links.negative() {
        let score = compiled.evaluate_bounded_two_stats(
            pair.source,
            pair.target,
            cache,
            cache,
            LINK_THRESHOLD,
            stats,
        );
        matrix.record_negative(score >= LINK_THRESHOLD);
    }
    matrix
}

/// Scores a rule against reference links given as identifiers, resolving them
/// against the two data sources first.
pub fn evaluate_rule_on_links(
    rule: &LinkageRule,
    links: &ReferenceLinks,
    source: &DataSource,
    target: &DataSource,
) -> ConfusionMatrix {
    let resolved = ResolvedReferenceLinks::resolve(links, source, target);
    evaluate_rule(rule, &resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::{DataSourceBuilder, Link, ReferenceLinks};
    use linkdisc_rule::{compare, property, DistanceFunction};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paired_sources(n: usize) -> (DataSource, DataSource, ReferenceLinks) {
        let mut a = DataSourceBuilder::new("A", ["label"]);
        let mut b = DataSourceBuilder::new("B", ["label"]);
        let mut positives = Vec::new();
        for i in 0..n {
            a = a
                .entity(format!("a{i}"), [("label", format!("item {i}").as_str())])
                .unwrap();
            b = b
                .entity(format!("b{i}"), [("label", format!("item {i}").as_str())])
                .unwrap();
            positives.push(Link::new(format!("a{i}"), format!("b{i}")));
        }
        let mut rng = StdRng::seed_from_u64(5);
        let links = ReferenceLinks::with_generated_negatives(positives, &mut rng);
        (a.build(), b.build(), links)
    }

    fn exact_label_rule() -> LinkageRule {
        compare(
            property("label"),
            property("label"),
            DistanceFunction::Equality,
            0.5,
        )
        .into()
    }

    #[test]
    fn perfect_rule_scores_one() {
        let (a, b, links) = paired_sources(20);
        let matrix = evaluate_rule_on_links(&exact_label_rule(), &links, &a, &b);
        assert_eq!(matrix.f_measure(), 1.0);
        assert_eq!(matrix.mcc(), 1.0);
        assert_eq!(matrix.total(), links.len());
    }

    #[test]
    fn empty_rule_scores_zero_f1() {
        let (a, b, links) = paired_sources(10);
        let matrix = evaluate_rule_on_links(&LinkageRule::empty(), &links, &a, &b);
        assert_eq!(matrix.f_measure(), 0.0);
        assert_eq!(matrix.true_negatives, links.negative().len());
    }

    #[test]
    fn always_link_rule_has_zero_mcc() {
        // a rule with threshold so large everything matches
        let (a, b, links) = paired_sources(10);
        let rule: LinkageRule = compare(
            property("label"),
            property("label"),
            DistanceFunction::Levenshtein,
            1000.0,
        )
        .into();
        let matrix = evaluate_rule_on_links(&rule, &links, &a, &b);
        assert_eq!(matrix.recall(), 1.0);
        assert!(matrix.false_positives > 0);
        assert_eq!(matrix.mcc(), 0.0);
    }
}
