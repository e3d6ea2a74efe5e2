//! The linkage rule itself: a (possibly empty) similarity-operator tree.

use linkdisc_entity::EntityPair;

use crate::operators::SimilarityOperator;
use crate::stats::RuleStats;

/// Entity pairs with a similarity of at least this value are links
/// (Definition 3 of the paper).
pub const LINK_THRESHOLD: f64 = 0.5;

/// A linkage rule `l : A × B → [0, 1]`.
///
/// The empty rule (no root operator) assigns similarity `0` to every pair and
/// therefore links nothing; it only appears as a degenerate individual during
/// the genetic search.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkageRule {
    root: Option<SimilarityOperator>,
}

impl LinkageRule {
    /// Creates a rule from a root similarity operator.
    pub fn new(root: SimilarityOperator) -> Self {
        LinkageRule { root: Some(root) }
    }

    /// Creates the empty rule.
    pub fn empty() -> Self {
        LinkageRule { root: None }
    }

    /// The root operator, if the rule is non-empty.
    pub fn root(&self) -> Option<&SimilarityOperator> {
        self.root.as_ref()
    }

    /// Mutable access to the root operator.
    pub fn root_mut(&mut self) -> Option<&mut SimilarityOperator> {
        self.root.as_mut()
    }

    /// Replaces the root operator and returns the previous one.
    pub fn replace_root(&mut self, root: SimilarityOperator) -> Option<SimilarityOperator> {
        self.root.replace(root)
    }

    /// Returns `true` if the rule has no operators.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Evaluates the rule on an entity pair, yielding a similarity in `[0, 1]`.
    pub fn evaluate(&self, pair: &EntityPair<'_>) -> f64 {
        match &self.root {
            Some(root) => root.evaluate(pair).clamp(0.0, 1.0),
            None => 0.0,
        }
    }

    /// Returns `true` if the rule considers the pair a link (score ≥ 0.5).
    pub fn is_link(&self, pair: &EntityPair<'_>) -> bool {
        self.evaluate(pair) >= LINK_THRESHOLD
    }

    /// Total number of operators; the basis of the parsimony pressure
    /// `fitness = MCC − 0.05 · operatorcount` (Section 5.2).
    pub fn operator_count(&self) -> usize {
        self.root
            .as_ref()
            .map_or(0, SimilarityOperator::operator_count)
    }

    /// Structural statistics of this rule.
    pub fn stats(&self) -> RuleStats {
        RuleStats::of(self)
    }
}

impl From<SimilarityOperator> for LinkageRule {
    fn from(root: SimilarityOperator) -> Self {
        LinkageRule::new(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::AggregationFunction;
    use crate::operators::ValueOperator;
    use linkdisc_entity::EntityBuilder;
    use linkdisc_similarity::DistanceFunction;

    fn label_rule() -> LinkageRule {
        LinkageRule::new(SimilarityOperator::comparison(
            ValueOperator::property("label"),
            ValueOperator::property("label"),
            DistanceFunction::Levenshtein,
            1.0,
        ))
    }

    #[test]
    fn empty_rule_links_nothing() {
        let rule = LinkageRule::empty();
        let a = EntityBuilder::new("a")
            .value("label", "x")
            .build_with_own_schema();
        let b = EntityBuilder::new("b")
            .value("label", "x")
            .build_with_own_schema();
        assert!(rule.is_empty());
        assert_eq!(rule.evaluate(&EntityPair::new(&a, &b)), 0.0);
        assert!(!rule.is_link(&EntityPair::new(&a, &b)));
        assert_eq!(rule.operator_count(), 0);
    }

    #[test]
    fn exact_match_yields_full_similarity() {
        let rule = label_rule();
        let a = EntityBuilder::new("a")
            .value("label", "Berlin")
            .build_with_own_schema();
        let b = EntityBuilder::new("b")
            .value("label", "Berlin")
            .build_with_own_schema();
        assert_eq!(rule.evaluate(&EntityPair::new(&a, &b)), 1.0);
        assert!(rule.is_link(&EntityPair::new(&a, &b)));
    }

    #[test]
    fn half_similarity_is_still_a_link() {
        // distance 1 with threshold 2 -> similarity 0.5 which is exactly the
        // linking threshold of Definition 3
        let rule = LinkageRule::new(SimilarityOperator::comparison(
            ValueOperator::property("label"),
            ValueOperator::property("label"),
            DistanceFunction::Levenshtein,
            2.0,
        ));
        let a = EntityBuilder::new("a")
            .value("label", "Berlin")
            .build_with_own_schema();
        let b = EntityBuilder::new("b")
            .value("label", "berlin")
            .build_with_own_schema();
        let pair = EntityPair::new(&a, &b);
        assert!((rule.evaluate(&pair) - 0.5).abs() < 1e-12);
        assert!(rule.is_link(&pair));
    }

    #[test]
    fn replace_root_swaps_the_tree() {
        let mut rule = LinkageRule::empty();
        assert!(rule
            .replace_root(label_rule().root().unwrap().clone())
            .is_none());
        assert_eq!(rule.operator_count(), 3);
        let previous = rule.replace_root(SimilarityOperator::aggregation(
            AggregationFunction::Max,
            vec![],
        ));
        assert!(previous.is_some());
        assert_eq!(rule.operator_count(), 1);
    }

    #[test]
    fn stats_shortcut_matches_manual_counts() {
        let rule = label_rule();
        let stats = rule.stats();
        assert_eq!(stats.operators, rule.operator_count());
        assert_eq!(stats.comparisons, 1);
    }
}
