//! Lowering linkage rules into MultiBlock indexing plans.
//!
//! A rule does not only *evaluate* entity pairs — it also tells us which
//! pairs can possibly link.  A pair links when the root score reaches the
//! link threshold, and every operator propagates that requirement down the
//! tree:
//!
//! * a **comparison** scores `1 − d/θ`, so a required similarity `s` becomes
//!   a *distance bound* `d ≤ θ·(1 − s)` on its (transformed) value chains —
//!   exactly the bound the measure's block keys
//!   ([`DistanceFunction::probe_keys_into`]) guarantee overlap for,
//! * a **`min` aggregation** (conjunction) passes only if *every* child
//!   passes, so its candidates are the **intersection** of the children's
//!   candidate sets,
//! * a **`max` aggregation** (disjunction) passes if *any* child passes:
//!   the **union**,
//! * a **weighted mean** with total weight `W` can only reach `s` if every
//!   child `i` individually reaches `s_i = 1 − W·(1 − s)/w_i` (all other
//!   children scoring a perfect 1 is the best case), so each child is
//!   lowered at its own required similarity and the results are
//!   **intersected**.  Children whose `s_i` drops to 0 or below cannot
//!   prune anything and drop out of the intersection.
//!
//! The lowering is *conservative*: a [`PlanNode`] may admit extra candidate
//! pairs (the rule evaluation rejects them), but it never excludes a pair the
//! rule would link — the losslessness argument is spelled out per node in
//! DESIGN.md ("Candidate generation").  Measures that cannot prune at their
//! derived bound (e.g. Jaccard at bound ≥ 1, see
//! [`DistanceFunction::can_prune`]) lower to [`PlanNode::All`], which makes
//! the enclosing operators fall back appropriately — in the worst case the
//! whole plan is `All` and the engine evaluates the full cross product, the
//! same behaviour as disabling blocking.

use std::sync::Arc;

use linkdisc_entity::Schema;
use linkdisc_similarity::{BlockKey, DistanceFunction, ProbeKeys};

use crate::compiled::CompiledChain;
use crate::operators::{Aggregation, Comparison, SimilarityOperator, ValueOperator};
use crate::rule::LinkageRule;

/// Absolute slack subtracted from derived child requirements so that
/// floating-point rounding in the weighted-mean evaluation can never tip a
/// true link just outside its derived bound.  Widening a bound only admits
/// extra candidates.
const REQUIRED_SLACK: f64 = 1e-9;

/// One comparison of the rule that participates in indexing: its two
/// compiled value chains and the distance bound derived from the link
/// threshold.
#[derive(Debug, Clone)]
pub struct IndexedComparison {
    /// The source-side value chain, compiled against the source schema.
    pub source: CompiledChain,
    /// The target-side value chain, compiled against the target schema.
    pub target: CompiledChain,
    /// The distance measure of the comparison.
    pub function: DistanceFunction,
    /// Derived distance bound: pairs farther apart than this cannot reach
    /// their required similarity, so they need not become candidates.
    pub bound: f64,
    /// Human-readable description (for block statistics and reports).
    pub label: String,
}

impl IndexedComparison {
    /// The block keys a target with these (transformed) values is stored
    /// under, at this comparison's measure and bound.
    pub fn index_keys_into(&self, values: &[String], keys: &mut Vec<BlockKey>) {
        self.function.index_keys_into(values, self.bound, keys);
    }

    /// What a source with these (transformed) values looks up: groups of
    /// key units, each with the number of units a target within the bound
    /// may miss.
    pub fn probe_keys_into(&self, values: &[String], probe: &mut ProbeKeys) {
        self.function.probe_keys_into(values, self.bound, probe);
    }

    /// The identity of the *target-side leaf index* this comparison needs:
    /// `(target chain hash, measure, bound bucket)`.  Two comparisons with
    /// equal keys index any fixed target entity set identically — same
    /// transformed values (structural chain hash), same key scheme (measure)
    /// and same key derivation (the measure's
    /// [`DistanceFunction::key_bound_bucket`] guarantees identical block
    /// keys across the bucket) — so their inverted indexes are
    /// interchangeable and can be shared across the rules of a generation.
    /// The source side does not participate: it only affects probing, not
    /// index contents.
    pub fn leaf_reuse_key(&self) -> (u64, DistanceFunction, u64) {
        (
            self.target.structural_hash(),
            self.function,
            self.function.key_bound_bucket(self.bound),
        )
    }
}

/// A node of the candidate-generation plan.
///
/// After lowering, `All` and `Nothing` only occur at the root —
/// intersections and unions absorb or drop them during construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNode {
    /// Every pair is a candidate (the rule cannot be pruned by indexing).
    All,
    /// No pair can reach the link threshold (e.g. an empty aggregation).
    Nothing,
    /// Candidates whose block keys satisfy the probe of one comparison
    /// (index into [`IndexingPlan::comparisons`]).
    Leaf(usize),
    /// Pairs that are candidates of *every* child (`min` / weighted mean).
    Intersect(Vec<PlanNode>),
    /// Pairs that are candidates of *any* child (`max`).
    Union(Vec<PlanNode>),
}

/// A linkage rule lowered into a candidate-generation plan: the comparisons
/// to index and the set algebra combining their candidate sets.
#[derive(Debug, Clone)]
pub struct IndexingPlan {
    comparisons: Vec<IndexedComparison>,
    root: PlanNode,
}

impl IndexingPlan {
    /// Lowers a rule into an indexing plan against the two source schemas.
    /// `link_threshold` is the similarity a pair must reach to be reported as
    /// a link (0.5 per Definition 3 of the paper).
    pub fn lower(
        rule: &LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
        link_threshold: f64,
    ) -> Self {
        let mut plan = IndexingPlan {
            comparisons: Vec::new(),
            root: PlanNode::Nothing,
        };
        plan.root = match rule.root() {
            // the empty rule scores every pair 0; it links pairs only when
            // the threshold is ≤ 0 (in which case *everything* links)
            None => {
                if link_threshold <= 0.0 {
                    PlanNode::All
                } else {
                    PlanNode::Nothing
                }
            }
            Some(root) => plan.lower_operator(root, link_threshold, source_schema, target_schema),
        };
        plan
    }

    /// The indexed comparisons, referenced by [`PlanNode::Leaf`] indices.
    pub fn comparisons(&self) -> &[IndexedComparison] {
        &self.comparisons
    }

    /// The root of the candidate-set algebra.
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// `true` when the plan cannot prune anything and the engine should fall
    /// back to the exhaustive cross product.
    pub fn is_exhaustive(&self) -> bool {
        self.root == PlanNode::All
    }

    /// `true` when no pair can reach the link threshold at all.
    pub fn is_empty_result(&self) -> bool {
        self.root == PlanNode::Nothing
    }

    /// Drops comparisons the root can never reference.  A degenerate root
    /// (`All` from a non-prunable branch of a union, or `Nothing`) leaves
    /// already-lowered sibling comparisons in the table; executors that
    /// index every comparison eagerly (the serving `LinkService`) would
    /// otherwise build dead leaf indexes.
    pub fn canonicalized(mut self) -> Self {
        if matches!(self.root, PlanNode::All | PlanNode::Nothing) {
            self.comparisons.clear();
        }
        self
    }

    fn lower_operator(
        &mut self,
        operator: &SimilarityOperator,
        required: f64,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
    ) -> PlanNode {
        // similarities live in [0, 1]: a requirement above 1 is unsatisfiable
        // and a requirement of 0 or below is satisfied by every pair
        if required > 1.0 {
            return PlanNode::Nothing;
        }
        if required <= 0.0 {
            return PlanNode::All;
        }
        match operator {
            SimilarityOperator::Comparison(c) => {
                self.lower_comparison(c, required, source_schema, target_schema)
            }
            SimilarityOperator::Aggregation(a) => {
                self.lower_aggregation(a, required, source_schema, target_schema)
            }
        }
    }

    fn lower_comparison(
        &mut self,
        comparison: &Comparison,
        required: f64,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
    ) -> PlanNode {
        // similarity ≥ s  ⟺  1 − d/θ ≥ s  ⟺  d ≤ θ·(1 − s);
        // θ = 0 degenerates to "exact match" (bound 0), matching
        // `threshold_similarity`
        let threshold = comparison.threshold.max(0.0);
        let bound = threshold * (1.0 - required);
        if !comparison.function.can_prune(bound) {
            return PlanNode::All;
        }
        let label = format!(
            "{}({} ~ {}) d≤{:.4}",
            comparison.function.name(),
            value_chain_label(&comparison.source),
            value_chain_label(&comparison.target),
            bound
        );
        let index = self.comparisons.len();
        self.comparisons.push(IndexedComparison {
            source: CompiledChain::compile(&comparison.source, source_schema),
            target: CompiledChain::compile(&comparison.target, target_schema),
            function: comparison.function,
            bound,
            label,
        });
        PlanNode::Leaf(index)
    }

    fn lower_aggregation(
        &mut self,
        aggregation: &Aggregation,
        required: f64,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
    ) -> PlanNode {
        use crate::aggregation::AggregationFunction;
        // an empty aggregation always scores 0, below the (positive) requirement
        if aggregation.operators.is_empty() {
            return PlanNode::Nothing;
        }
        match aggregation.function {
            AggregationFunction::Min => {
                let children = aggregation
                    .operators
                    .iter()
                    .map(|child| self.lower_operator(child, required, source_schema, target_schema))
                    .collect();
                intersect(children)
            }
            AggregationFunction::Max => {
                let children = aggregation
                    .operators
                    .iter()
                    .map(|child| self.lower_operator(child, required, source_schema, target_schema))
                    .collect();
                union(children)
            }
            AggregationFunction::WeightedMean => {
                // weights are clamped to ≥ 1 exactly like
                // `AggregationFunction::evaluate` does
                let total: f64 = aggregation
                    .operators
                    .iter()
                    .map(|child| child.weight().max(1) as f64)
                    .sum();
                let children = aggregation
                    .operators
                    .iter()
                    .map(|child| {
                        let weight = child.weight().max(1) as f64;
                        // best case for child i: every other child scores 1,
                        // so w·s_i + (W − w) ≥ s·W must still hold
                        let child_required =
                            1.0 - total * (1.0 - required) / weight - REQUIRED_SLACK;
                        self.lower_operator(child, child_required, source_schema, target_schema)
                    })
                    .collect();
                intersect(children)
            }
        }
    }
}

/// Combines child candidate sets that must *all* contain a pair.  `All`
/// children never exclude anything and drop out; a `Nothing` child makes the
/// whole conjunction unsatisfiable.
fn intersect(children: Vec<PlanNode>) -> PlanNode {
    if children.contains(&PlanNode::Nothing) {
        return PlanNode::Nothing;
    }
    let mut kept: Vec<PlanNode> = children
        .into_iter()
        .filter(|c| *c != PlanNode::All)
        .collect();
    match kept.len() {
        0 => PlanNode::All,
        1 => kept.pop().expect("one child"),
        _ => PlanNode::Intersect(kept),
    }
}

/// Combines child candidate sets of which *any* may contain a pair.  An
/// `All` child admits everything; `Nothing` children contribute nothing.
fn union(children: Vec<PlanNode>) -> PlanNode {
    if children.contains(&PlanNode::All) {
        return PlanNode::All;
    }
    let mut kept: Vec<PlanNode> = children
        .into_iter()
        .filter(|c| *c != PlanNode::Nothing)
        .collect();
    match kept.len() {
        0 => PlanNode::Nothing,
        1 => kept.pop().expect("one child"),
        _ => PlanNode::Union(kept),
    }
}

/// Short textual form of a value chain for statistics labels, e.g.
/// `lowerCase(title)`.
fn value_chain_label(operator: &ValueOperator) -> String {
    match operator {
        ValueOperator::Property(p) => p.property.clone(),
        ValueOperator::Transformation(t) => {
            let inputs: Vec<String> = t.inputs.iter().map(value_chain_label).collect();
            format!("{}({})", t.function.name(), inputs.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{aggregation, compare, property, transform};
    use crate::AggregationFunction;
    use linkdisc_transform::TransformFunction;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(["label", "year"]))
    }

    fn lev(threshold: f64) -> SimilarityOperator {
        compare(
            property("label"),
            property("label"),
            DistanceFunction::Levenshtein,
            threshold,
        )
    }

    fn num(threshold: f64) -> SimilarityOperator {
        compare(
            property("year"),
            property("year"),
            DistanceFunction::Numeric,
            threshold,
        )
    }

    #[test]
    fn comparison_bound_is_threshold_times_headroom() {
        let rule: LinkageRule = lev(4.0).into();
        let plan = IndexingPlan::lower(&rule, &schema(), &schema(), 0.5);
        assert_eq!(*plan.root(), PlanNode::Leaf(0));
        assert!((plan.comparisons()[0].bound - 2.0).abs() < 1e-9);
        // a stricter link threshold tightens the bound
        let strict = IndexingPlan::lower(&rule, &schema(), &schema(), 0.75);
        assert!((strict.comparisons()[0].bound - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_intersects_and_max_unions() {
        let conjunction: LinkageRule =
            aggregation(AggregationFunction::Min, vec![lev(2.0), num(10.0)]).into();
        let plan = IndexingPlan::lower(&conjunction, &schema(), &schema(), 0.5);
        assert_eq!(
            *plan.root(),
            PlanNode::Intersect(vec![PlanNode::Leaf(0), PlanNode::Leaf(1)])
        );
        let disjunction: LinkageRule =
            aggregation(AggregationFunction::Max, vec![lev(2.0), num(10.0)]).into();
        let plan = IndexingPlan::lower(&disjunction, &schema(), &schema(), 0.5);
        assert_eq!(
            *plan.root(),
            PlanNode::Union(vec![PlanNode::Leaf(0), PlanNode::Leaf(1)])
        );
    }

    #[test]
    fn weighted_mean_requires_each_child_individually() {
        let mut heavy = lev(2.0);
        heavy.set_weight(3);
        let light = num(10.0);
        let rule: LinkageRule =
            aggregation(AggregationFunction::WeightedMean, vec![heavy, light]).into();
        let plan = IndexingPlan::lower(&rule, &schema(), &schema(), 0.5);
        // W = 4; heavy child: s = 1 − 4·0.5/3 = 1/3 → bound 2·(2/3);
        // light child: s = 1 − 4·0.5/1 = −1 → cannot prune, drops out
        assert_eq!(*plan.root(), PlanNode::Leaf(0));
        assert!((plan.comparisons()[0].bound - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn equal_weight_mean_children_both_constrain() {
        let rule: LinkageRule =
            aggregation(AggregationFunction::WeightedMean, vec![lev(2.0), num(10.0)]).into();
        let plan = IndexingPlan::lower(&rule, &schema(), &schema(), 0.75);
        // W = 2, s_child = 1 − 2·0.25 = 0.5 → both children index at half
        // their threshold
        assert_eq!(
            *plan.root(),
            PlanNode::Intersect(vec![PlanNode::Leaf(0), PlanNode::Leaf(1)])
        );
        assert!((plan.comparisons()[0].bound - 1.0).abs() < 1e-6);
        assert!((plan.comparisons()[1].bound - 5.0).abs() < 1e-6);
    }

    #[test]
    fn non_prunable_measures_lower_to_all() {
        // Jaro at threshold 2 and link threshold 0.5: bound = 2·0.5 = 1, at
        // which every pair is admitted and no key scheme can rule anything out
        let loose_jaro = || {
            compare(
                property("label"),
                property("label"),
                DistanceFunction::Jaro,
                2.0,
            )
        };
        let rule: LinkageRule = loose_jaro().into();
        let plan = IndexingPlan::lower(&rule, &schema(), &schema(), 0.5);
        assert!(plan.is_exhaustive());
        // under a conjunction the non-prunable child simply drops out
        let mixed: LinkageRule =
            aggregation(AggregationFunction::Min, vec![lev(2.0), loose_jaro()]).into();
        let plan = IndexingPlan::lower(&mixed, &schema(), &schema(), 0.5);
        assert_eq!(*plan.root(), PlanNode::Leaf(0));
        // ... while under a disjunction it makes the whole plan exhaustive
        let either: LinkageRule =
            aggregation(AggregationFunction::Max, vec![lev(2.0), loose_jaro()]).into();
        let plan = IndexingPlan::lower(&either, &schema(), &schema(), 0.5);
        assert!(plan.is_exhaustive());
    }

    #[test]
    fn degenerate_thresholds_lower_to_all_or_nothing() {
        let rule: LinkageRule = lev(2.0).into();
        assert!(IndexingPlan::lower(&rule, &schema(), &schema(), 0.0).is_exhaustive());
        assert!(IndexingPlan::lower(&rule, &schema(), &schema(), 1.5).is_empty_result());
        assert!(
            IndexingPlan::lower(&LinkageRule::empty(), &schema(), &schema(), 0.5).is_empty_result()
        );
        assert!(
            IndexingPlan::lower(&LinkageRule::empty(), &schema(), &schema(), 0.0).is_exhaustive()
        );
    }

    #[test]
    fn empty_aggregations_poison_conjunctions_but_not_disjunctions() {
        let empty_min = aggregation(AggregationFunction::Min, vec![]);
        let conjunction: LinkageRule =
            aggregation(AggregationFunction::Min, vec![lev(2.0), empty_min.clone()]).into();
        let plan = IndexingPlan::lower(&conjunction, &schema(), &schema(), 0.5);
        assert!(plan.is_empty_result());
        let disjunction: LinkageRule =
            aggregation(AggregationFunction::Max, vec![lev(2.0), empty_min]).into();
        let plan = IndexingPlan::lower(&disjunction, &schema(), &schema(), 0.5);
        assert_eq!(*plan.root(), PlanNode::Leaf(0));
    }

    #[test]
    fn leaf_reuse_keys_identify_interchangeable_target_indexes() {
        let plan_for = |threshold: f64| {
            let rule: LinkageRule = lev(threshold).into();
            IndexingPlan::lower(&rule, &schema(), &schema(), 0.5)
        };
        // thresholds 2.0 and 3.0 derive bounds 1.0 and 1.5 — one Levenshtein
        // edit-budget bucket — while 6.0 (bound 3.0) keys differently
        let a = plan_for(2.0).comparisons()[0].leaf_reuse_key();
        let b = plan_for(3.0).comparisons()[0].leaf_reuse_key();
        let c = plan_for(6.0).comparisons()[0].leaf_reuse_key();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // a different target chain breaks sharing even at an equal bound
        let other_chain: LinkageRule = compare(
            property("label"),
            transform(TransformFunction::LowerCase, vec![property("label")]),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let plan = IndexingPlan::lower(&other_chain, &schema(), &schema(), 0.5);
        assert_ne!(plan.comparisons()[0].leaf_reuse_key(), a);
        // ... and so does a different measure over the same chain
        let jaccard: LinkageRule = compare(
            property("label"),
            property("label"),
            DistanceFunction::Jaccard,
            0.5,
        )
        .into();
        let plan = IndexingPlan::lower(&jaccard, &schema(), &schema(), 0.5);
        assert_ne!(plan.comparisons()[0].leaf_reuse_key().1, a.1);
    }

    #[test]
    fn labels_show_transform_chains() {
        let rule: LinkageRule = compare(
            transform(TransformFunction::LowerCase, vec![property("label")]),
            property("label"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let plan = IndexingPlan::lower(&rule, &schema(), &schema(), 0.5);
        assert!(plan.comparisons()[0].label.contains("lowerCase(label)"));
        assert!(plan.comparisons()[0].label.starts_with("levenshtein"));
    }

    #[test]
    fn nested_aggregations_compose() {
        // max(min(lev, num), lev2) → Union(Intersect(l0, l1), l2)
        let rule: LinkageRule = aggregation(
            AggregationFunction::Max,
            vec![
                aggregation(AggregationFunction::Min, vec![lev(2.0), num(10.0)]),
                lev(4.0),
            ],
        )
        .into();
        let plan = IndexingPlan::lower(&rule, &schema(), &schema(), 0.5);
        assert_eq!(
            *plan.root(),
            PlanNode::Union(vec![
                PlanNode::Intersect(vec![PlanNode::Leaf(0), PlanNode::Leaf(1)]),
                PlanNode::Leaf(2),
            ])
        );
    }
}
