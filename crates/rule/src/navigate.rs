//! Index-based tree navigation used by the genetic operators.
//!
//! The specialized crossover operators of GenLink (Section 5.3) need to pick
//! "a random comparison", "a random aggregation", "a random transformation" or
//! "a random aggregation-or-comparison" in a rule, inspect it, and possibly
//! replace it.  All of that is provided here through *pre-order indices*: each
//! node kind is numbered 0..count in depth-first order, and accessors either
//! return a reference to the `i`-th node of that kind or apply a closure to it.
//!
//! Index-based access keeps the borrow checker happy (only one path into the
//! tree is borrowed at a time) and makes random selection trivial: draw an
//! index uniformly from `0..count`.

use crate::operators::{
    Aggregation, Comparison, SimilarityOperator, TransformationOperator, ValueOperator,
};

// ---------------------------------------------------------------------------
// similarity-operator navigation
// ---------------------------------------------------------------------------

impl SimilarityOperator {
    /// Number of similarity operators (comparisons and aggregations) in this
    /// subtree, including the node itself.
    pub fn similarity_node_count(&self) -> usize {
        match self {
            SimilarityOperator::Comparison(_) => 1,
            SimilarityOperator::Aggregation(a) => {
                1 + a
                    .operators
                    .iter()
                    .map(SimilarityOperator::similarity_node_count)
                    .sum::<usize>()
            }
        }
    }

    /// Returns the `index`-th similarity operator in pre-order.
    pub fn similarity_node(&self, index: usize) -> Option<&SimilarityOperator> {
        if index == 0 {
            return Some(self);
        }
        match self {
            SimilarityOperator::Comparison(_) => None,
            SimilarityOperator::Aggregation(a) => {
                let mut remaining = index - 1;
                for child in &a.operators {
                    let count = child.similarity_node_count();
                    if remaining < count {
                        return child.similarity_node(remaining);
                    }
                    remaining -= count;
                }
                None
            }
        }
    }

    /// Replaces the `index`-th similarity operator (pre-order) with
    /// `replacement`, returning the removed subtree.  Replacing index 0
    /// replaces the whole tree.
    pub fn replace_similarity_node(
        &mut self,
        index: usize,
        replacement: SimilarityOperator,
    ) -> Option<SimilarityOperator> {
        if index == 0 {
            return Some(std::mem::replace(self, replacement));
        }
        match self {
            SimilarityOperator::Comparison(_) => None,
            SimilarityOperator::Aggregation(a) => {
                let mut remaining = index - 1;
                for child in &mut a.operators {
                    let count = child.similarity_node_count();
                    if remaining < count {
                        return child.replace_similarity_node(remaining, replacement);
                    }
                    remaining -= count;
                }
                None
            }
        }
    }

    /// Returns the `index`-th comparison (pre-order).
    #[cfg(test)]
    fn comparison_at(&self, index: usize) -> Option<&Comparison> {
        self.comparisons().into_iter().nth(index)
    }

    /// All comparisons in pre-order.
    pub fn comparisons(&self) -> Vec<&Comparison> {
        let mut result = Vec::new();
        self.collect_comparisons(&mut result);
        result
    }

    fn collect_comparisons<'a>(&'a self, out: &mut Vec<&'a Comparison>) {
        match self {
            SimilarityOperator::Comparison(c) => out.push(c),
            SimilarityOperator::Aggregation(a) => {
                for child in &a.operators {
                    child.collect_comparisons(out);
                }
            }
        }
    }

    /// Applies `f` to the `index`-th comparison (pre-order).  Returns `true`
    /// if the comparison existed.
    pub fn with_comparison_mut<F: FnOnce(&mut Comparison)>(&mut self, index: usize, f: F) -> bool {
        fn walk<F: FnOnce(&mut Comparison)>(
            node: &mut SimilarityOperator,
            remaining: &mut usize,
            f: F,
        ) -> Option<F> {
            match node {
                SimilarityOperator::Comparison(c) => {
                    if *remaining == 0 {
                        f(c);
                        None
                    } else {
                        *remaining -= 1;
                        Some(f)
                    }
                }
                SimilarityOperator::Aggregation(a) => {
                    let mut f = Some(f);
                    for child in &mut a.operators {
                        if let Some(pending) = f.take() {
                            f = walk(child, remaining, pending);
                        } else {
                            break;
                        }
                    }
                    f
                }
            }
        }
        let mut remaining = index;
        walk(self, &mut remaining, f).is_none()
    }

    /// Returns the `index`-th aggregation (pre-order).
    #[cfg(test)]
    fn aggregation_node(&self, index: usize) -> Option<&Aggregation> {
        self.aggregations().into_iter().nth(index)
    }

    /// All aggregations in pre-order.
    pub fn aggregations(&self) -> Vec<&Aggregation> {
        let mut result = Vec::new();
        self.collect_aggregations(&mut result);
        result
    }

    fn collect_aggregations<'a>(&'a self, out: &mut Vec<&'a Aggregation>) {
        if let SimilarityOperator::Aggregation(a) = self {
            out.push(a);
            for child in &a.operators {
                child.collect_aggregations(out);
            }
        }
    }

    /// Applies `f` to the `index`-th aggregation (pre-order).  Returns `true`
    /// if the aggregation existed.
    pub fn with_aggregation_mut<F: FnOnce(&mut Aggregation)>(
        &mut self,
        index: usize,
        f: F,
    ) -> bool {
        fn walk<F: FnOnce(&mut Aggregation)>(
            node: &mut SimilarityOperator,
            remaining: &mut usize,
            f: F,
        ) -> Option<F> {
            match node {
                SimilarityOperator::Comparison(_) => Some(f),
                SimilarityOperator::Aggregation(a) => {
                    if *remaining == 0 {
                        f(a);
                        return None;
                    }
                    *remaining -= 1;
                    let mut f = Some(f);
                    for child in &mut a.operators {
                        if let Some(pending) = f.take() {
                            f = walk(child, remaining, pending);
                        } else {
                            break;
                        }
                    }
                    f
                }
            }
        }
        let mut remaining = index;
        walk(self, &mut remaining, f).is_none()
    }

    /// Applies `f` to the `index`-th similarity node (pre-order).
    pub fn with_similarity_node_mut<F: FnOnce(&mut SimilarityOperator)>(
        &mut self,
        index: usize,
        f: F,
    ) -> bool {
        fn walk<F: FnOnce(&mut SimilarityOperator)>(
            node: &mut SimilarityOperator,
            remaining: &mut usize,
            f: F,
        ) -> Option<F> {
            if *remaining == 0 {
                f(node);
                return None;
            }
            *remaining -= 1;
            match node {
                SimilarityOperator::Comparison(_) => Some(f),
                SimilarityOperator::Aggregation(a) => {
                    let mut f = Some(f);
                    for child in &mut a.operators {
                        if let Some(pending) = f.take() {
                            f = walk(child, remaining, pending);
                        } else {
                            break;
                        }
                    }
                    f
                }
            }
        }
        let mut remaining = index;
        walk(self, &mut remaining, f).is_none()
    }

    /// All transformation operators anywhere below this similarity operator,
    /// in pre-order (source value trees before target value trees).
    pub fn transformations(&self) -> Vec<&TransformationOperator> {
        let mut result = Vec::new();
        self.collect_transformations(&mut result);
        result
    }

    fn collect_transformations<'a>(&'a self, out: &mut Vec<&'a TransformationOperator>) {
        match self {
            SimilarityOperator::Comparison(c) => {
                c.source.collect_transformations(out);
                c.target.collect_transformations(out);
            }
            SimilarityOperator::Aggregation(a) => {
                for child in &a.operators {
                    child.collect_transformations(out);
                }
            }
        }
    }

    /// Applies `f` to the `index`-th value operator that is a transformation.
    pub fn with_transformation_mut<F: FnOnce(&mut TransformationOperator)>(
        &mut self,
        index: usize,
        f: F,
    ) -> bool {
        fn walk_value<F: FnOnce(&mut TransformationOperator)>(
            node: &mut ValueOperator,
            remaining: &mut usize,
            f: F,
        ) -> Option<F> {
            match node {
                ValueOperator::Property(_) => Some(f),
                ValueOperator::Transformation(t) => {
                    if *remaining == 0 {
                        f(t);
                        return None;
                    }
                    *remaining -= 1;
                    let mut f = Some(f);
                    for child in &mut t.inputs {
                        if let Some(pending) = f.take() {
                            f = walk_value(child, remaining, pending);
                        } else {
                            break;
                        }
                    }
                    f
                }
            }
        }
        fn walk_sim<F: FnOnce(&mut TransformationOperator)>(
            node: &mut SimilarityOperator,
            remaining: &mut usize,
            f: F,
        ) -> Option<F> {
            match node {
                SimilarityOperator::Comparison(c) => {
                    let f = walk_value(&mut c.source, remaining, f)?;
                    walk_value(&mut c.target, remaining, f)
                }
                SimilarityOperator::Aggregation(a) => {
                    let mut f = Some(f);
                    for child in &mut a.operators {
                        if let Some(pending) = f.take() {
                            f = walk_sim(child, remaining, pending);
                        } else {
                            break;
                        }
                    }
                    f
                }
            }
        }
        let mut remaining = index;
        walk_sim(self, &mut remaining, f).is_none()
    }

    /// Applies `f` to every value operator root (the source/target slots of
    /// every comparison).  Used to attach or strip transformations.
    pub fn for_each_value_root_mut<F: FnMut(&mut ValueOperator)>(&mut self, f: &mut F) {
        match self {
            SimilarityOperator::Comparison(c) => {
                f(&mut c.source);
                f(&mut c.target);
            }
            SimilarityOperator::Aggregation(a) => {
                for child in &mut a.operators {
                    child.for_each_value_root_mut(f);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// value-operator navigation
// ---------------------------------------------------------------------------

impl ValueOperator {
    /// All transformation operators in this value subtree, pre-order.
    pub fn transformations(&self) -> Vec<&TransformationOperator> {
        let mut result = Vec::new();
        self.collect_transformations(&mut result);
        result
    }

    pub(crate) fn collect_transformations<'a>(&'a self, out: &mut Vec<&'a TransformationOperator>) {
        if let ValueOperator::Transformation(t) = self {
            out.push(t);
            for child in &t.inputs {
                child.collect_transformations(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::AggregationFunction;
    use linkdisc_similarity::DistanceFunction;
    use linkdisc_transform::TransformFunction;

    fn sample() -> SimilarityOperator {
        SimilarityOperator::aggregation(
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
                    vec![
                        SimilarityOperator::comparison(
                            ValueOperator::property("date"),
                            ValueOperator::transformation(
                                TransformFunction::Tokenize,
                                vec![ValueOperator::property("released")],
                            ),
                            DistanceFunction::Date,
                            30.0,
                        ),
                        SimilarityOperator::comparison(
                            ValueOperator::property("director"),
                            ValueOperator::property("director"),
                            DistanceFunction::Jaccard,
                            0.5,
                        ),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn node_counts_are_consistent() {
        let tree = sample();
        assert_eq!(tree.similarity_node_count(), 5);
        assert_eq!(tree.comparisons().len(), 3);
        assert_eq!(tree.aggregations().len(), 2);
        assert_eq!(tree.transformations().len(), 2);
    }

    #[test]
    fn preorder_indexing_is_stable() {
        let tree = sample();
        assert!(matches!(
            tree.similarity_node(0),
            Some(SimilarityOperator::Aggregation(_))
        ));
        assert!(matches!(
            tree.similarity_node(1),
            Some(SimilarityOperator::Comparison(_))
        ));
        assert!(matches!(
            tree.similarity_node(2),
            Some(SimilarityOperator::Aggregation(_))
        ));
        assert!(matches!(
            tree.similarity_node(3),
            Some(SimilarityOperator::Comparison(_))
        ));
        assert!(matches!(
            tree.similarity_node(4),
            Some(SimilarityOperator::Comparison(_))
        ));
        assert!(tree.similarity_node(5).is_none());
        assert_eq!(
            tree.comparison_at(0).unwrap().function,
            DistanceFunction::Levenshtein
        );
        assert_eq!(
            tree.comparison_at(1).unwrap().function,
            DistanceFunction::Date
        );
        assert_eq!(
            tree.comparison_at(2).unwrap().function,
            DistanceFunction::Jaccard
        );
        assert!(tree.comparison_at(3).is_none());
    }

    #[test]
    fn with_comparison_mut_targets_the_right_node() {
        let mut tree = sample();
        assert!(tree.with_comparison_mut(1, |c| c.threshold = 99.0));
        assert_eq!(tree.comparison_at(1).unwrap().threshold, 99.0);
        assert_eq!(tree.comparison_at(0).unwrap().threshold, 1.0);
        assert!(!tree.with_comparison_mut(7, |c| c.threshold = 0.0));
    }

    #[test]
    fn with_aggregation_mut_targets_the_right_node() {
        let mut tree = sample();
        assert!(tree.with_aggregation_mut(1, |a| a.function = AggregationFunction::WeightedMean));
        assert_eq!(
            tree.aggregation_node(1).unwrap().function,
            AggregationFunction::WeightedMean
        );
        assert_eq!(
            tree.aggregation_node(0).unwrap().function,
            AggregationFunction::Min
        );
        assert!(!tree.with_aggregation_mut(2, |_| {}));
    }

    #[test]
    fn with_transformation_mut_targets_the_right_node() {
        let mut tree = sample();
        assert!(tree.with_transformation_mut(1, |t| t.function = TransformFunction::Stem));
        assert_eq!(tree.transformations()[1].function, TransformFunction::Stem);
        assert_eq!(
            tree.transformations()[0].function,
            TransformFunction::LowerCase
        );
        assert!(!tree.with_transformation_mut(2, |_| {}));
    }

    #[test]
    fn replace_similarity_node_swaps_subtrees() {
        let mut tree = sample();
        let replacement = SimilarityOperator::comparison(
            ValueOperator::property("x"),
            ValueOperator::property("y"),
            DistanceFunction::Equality,
            0.5,
        );
        let removed = tree.replace_similarity_node(2, replacement).unwrap();
        assert!(matches!(removed, SimilarityOperator::Aggregation(_)));
        assert_eq!(tree.similarity_node_count(), 3);
        assert_eq!(tree.comparisons().len(), 2);
    }

    #[test]
    fn replace_root_via_index_zero() {
        let mut tree = sample();
        let replacement = SimilarityOperator::comparison(
            ValueOperator::property("x"),
            ValueOperator::property("y"),
            DistanceFunction::Equality,
            0.5,
        );
        tree.replace_similarity_node(0, replacement).unwrap();
        assert_eq!(tree.similarity_node_count(), 1);
    }

    #[test]
    fn out_of_range_replacement_returns_none() {
        let mut tree = sample();
        let replacement = SimilarityOperator::comparison(
            ValueOperator::property("x"),
            ValueOperator::property("y"),
            DistanceFunction::Equality,
            0.5,
        );
        assert!(tree.replace_similarity_node(99, replacement).is_none());
        assert_eq!(tree.similarity_node_count(), 5);
    }

    #[test]
    fn for_each_value_root_visits_every_comparison_side() {
        let mut tree = sample();
        let mut count = 0;
        tree.for_each_value_root_mut(&mut |_| count += 1);
        assert_eq!(count, 6);
    }
}
