//! Mathematical expression trees over `<attribute, similarity>` pairs —
//! the genome of the Carvalho et al. baseline.

use linkdisc_entity::EntityPair;
use linkdisc_similarity::DistanceFunction;
use rand::rngs::StdRng;
use rand::Rng;

/// A pre-supplied `<attribute, similarity function>` pair (the "evidence" the
/// Carvalho approach combines).  The similarity of a pair of entities under
/// this evidence is `1 − d/θ_max` clipped to `[0, 1]`, i.e. a normalised
/// similarity without a learnable threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributePair {
    /// Property of the source entity.
    pub source_property: String,
    /// Property of the target entity.
    pub target_property: String,
    /// The similarity function applied to the values.
    pub function: DistanceFunction,
}

impl AttributePair {
    /// The normalised similarity of an entity pair under this evidence.
    ///
    /// The values are compared *as they are*: the Carvalho et al. approach
    /// combines pre-supplied similarity functions but — unlike GenLink —
    /// cannot express data transformations such as lower-casing, which is the
    /// expressivity gap the paper's Cora experiment exposes.
    pub fn similarity(&self, pair: &EntityPair<'_>) -> f64 {
        let source_values = pair.source.values(&self.source_property);
        let target_values = pair.target.values(&self.target_property);
        self.function.similarity(
            source_values,
            target_values,
            self.function.default_threshold(),
        )
    }
}

/// A mathematical expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// A numeric constant.
    Constant(f64),
    /// The similarity of one evidence pair (index into the evidence list).
    Evidence(usize),
    /// Sum of two sub-expressions.
    Add(Box<Expression>, Box<Expression>),
    /// Difference of two sub-expressions.
    Subtract(Box<Expression>, Box<Expression>),
    /// Product of two sub-expressions.
    Multiply(Box<Expression>, Box<Expression>),
    /// Protected division (yields 1 when the divisor is close to zero, the
    /// usual GP convention).
    Divide(Box<Expression>, Box<Expression>),
    /// `e^x` of a sub-expression, clamped to avoid overflow.
    Exp(Box<Expression>),
}

impl Expression {
    /// Evaluates the expression for one entity pair given the evidence list.
    pub fn evaluate(&self, pair: &EntityPair<'_>, evidence: &[AttributePair]) -> f64 {
        match self {
            Expression::Constant(value) => *value,
            Expression::Evidence(index) => evidence
                .get(*index)
                .map(|e| e.similarity(pair))
                .unwrap_or(0.0),
            Expression::Add(a, b) => a.evaluate(pair, evidence) + b.evaluate(pair, evidence),
            Expression::Subtract(a, b) => a.evaluate(pair, evidence) - b.evaluate(pair, evidence),
            Expression::Multiply(a, b) => a.evaluate(pair, evidence) * b.evaluate(pair, evidence),
            Expression::Divide(a, b) => {
                let divisor = b.evaluate(pair, evidence);
                if divisor.abs() < 1e-9 {
                    1.0
                } else {
                    a.evaluate(pair, evidence) / divisor
                }
            }
            Expression::Exp(inner) => inner.evaluate(pair, evidence).clamp(-20.0, 20.0).exp(),
        }
    }

    /// Number of nodes in the expression tree.
    pub fn node_count(&self) -> usize {
        match self {
            Expression::Constant(_) | Expression::Evidence(_) => 1,
            Expression::Add(a, b)
            | Expression::Subtract(a, b)
            | Expression::Multiply(a, b)
            | Expression::Divide(a, b) => 1 + a.node_count() + b.node_count(),
            Expression::Exp(inner) => 1 + inner.node_count(),
        }
    }

    /// Depth of the expression tree.
    pub fn depth(&self) -> usize {
        match self {
            Expression::Constant(_) | Expression::Evidence(_) => 1,
            Expression::Add(a, b)
            | Expression::Subtract(a, b)
            | Expression::Multiply(a, b)
            | Expression::Divide(a, b) => 1 + a.depth().max(b.depth()),
            Expression::Exp(inner) => 1 + inner.depth(),
        }
    }

    /// Generates a random expression of at most `max_depth` levels over
    /// `evidence_count` evidence pairs.
    pub fn random(evidence_count: usize, max_depth: usize, rng: &mut StdRng) -> Expression {
        if max_depth <= 1 || rng.gen_bool(0.3) {
            // leaf: evidence with 80% probability, constant otherwise
            if evidence_count > 0 && rng.gen_bool(0.8) {
                Expression::Evidence(rng.gen_range(0..evidence_count))
            } else {
                Expression::Constant((rng.gen_range(0..20) as f64) / 10.0)
            }
        } else {
            let left = Box::new(Expression::random(evidence_count, max_depth - 1, rng));
            let right = Box::new(Expression::random(evidence_count, max_depth - 1, rng));
            match rng.gen_range(0..5) {
                0 => Expression::Add(left, right),
                1 => Expression::Subtract(left, right),
                2 => Expression::Multiply(left, right),
                3 => Expression::Divide(left, right),
                _ => Expression::Exp(left),
            }
        }
    }

    /// Returns the `index`-th node (pre-order).
    pub fn node(&self, index: usize) -> Option<&Expression> {
        fn walk<'a>(node: &'a Expression, remaining: &mut usize) -> Option<&'a Expression> {
            if *remaining == 0 {
                return Some(node);
            }
            *remaining -= 1;
            match node {
                Expression::Constant(_) | Expression::Evidence(_) => None,
                Expression::Add(a, b)
                | Expression::Subtract(a, b)
                | Expression::Multiply(a, b)
                | Expression::Divide(a, b) => walk(a, remaining).or_else(|| walk(b, remaining)),
                Expression::Exp(inner) => walk(inner, remaining),
            }
        }
        let mut remaining = index;
        walk(self, &mut remaining)
    }

    /// Replaces the `index`-th node (pre-order) with `replacement`.
    fn replace_node(&mut self, index: usize, replacement: Expression) -> bool {
        fn walk(
            node: &mut Expression,
            remaining: &mut usize,
            replacement: Expression,
        ) -> Option<Expression> {
            if *remaining == 0 {
                *node = replacement;
                return None;
            }
            *remaining -= 1;
            match node {
                Expression::Constant(_) | Expression::Evidence(_) => Some(replacement),
                Expression::Add(a, b)
                | Expression::Subtract(a, b)
                | Expression::Multiply(a, b)
                | Expression::Divide(a, b) => match walk(a, remaining, replacement) {
                    Some(r) => walk(b, remaining, r),
                    None => None,
                },
                Expression::Exp(inner) => walk(inner, remaining, replacement),
            }
        }
        let mut remaining = index;
        walk(self, &mut remaining, replacement).is_none()
    }

    /// Subtree crossover: replaces a random node of `self` with a random
    /// subtree of `other`.
    pub fn crossover(&self, other: &Expression, rng: &mut StdRng) -> Expression {
        let mut child = self.clone();
        let donor_index = rng.gen_range(0..other.node_count());
        let donor = other.node(donor_index).expect("index within count").clone();
        let target_index = rng.gen_range(0..child.node_count());
        child.replace_node(target_index, donor);
        child
    }

    /// Renders the expression as an infix string (for logs and experiments).
    pub fn render(&self, evidence: &[AttributePair]) -> String {
        match self {
            Expression::Constant(value) => format!("{value}"),
            Expression::Evidence(index) => evidence
                .get(*index)
                .map(|e| {
                    format!(
                        "{}({},{})",
                        e.function.name(),
                        e.source_property,
                        e.target_property
                    )
                })
                .unwrap_or_else(|| format!("evidence#{index}")),
            Expression::Add(a, b) => format!("({} + {})", a.render(evidence), b.render(evidence)),
            Expression::Subtract(a, b) => {
                format!("({} - {})", a.render(evidence), b.render(evidence))
            }
            Expression::Multiply(a, b) => {
                format!("({} * {})", a.render(evidence), b.render(evidence))
            }
            Expression::Divide(a, b) => {
                format!("({} / {})", a.render(evidence), b.render(evidence))
            }
            Expression::Exp(inner) => format!("exp({})", inner.render(evidence)),
        }
    }

    /// Builds the default evidence list for two schemas: every compatible
    /// property pair found by GenLink-style seeding would be better, but the
    /// Carvalho approach pre-supplies pairs manually; we approximate that by
    /// pairing every source property with every target property under the
    /// string measures.
    pub fn default_evidence(
        source_properties: &[String],
        target_properties: &[String],
    ) -> Vec<AttributePair> {
        let mut evidence = Vec::new();
        for source in source_properties {
            for target in target_properties {
                for function in [
                    DistanceFunction::Levenshtein,
                    DistanceFunction::Jaro,
                    DistanceFunction::Jaccard,
                ] {
                    evidence.push(AttributePair {
                        source_property: source.clone(),
                        target_property: target.clone(),
                        function,
                    });
                }
            }
        }
        evidence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::EntityBuilder;
    use rand::SeedableRng;

    fn evidence() -> Vec<AttributePair> {
        vec![
            AttributePair {
                source_property: "label".into(),
                target_property: "name".into(),
                function: DistanceFunction::Levenshtein,
            },
            AttributePair {
                source_property: "year".into(),
                target_property: "released".into(),
                function: DistanceFunction::Jaro,
            },
        ]
    }

    fn pair<'a>(a: &'a linkdisc_entity::Entity, b: &'a linkdisc_entity::Entity) -> EntityPair<'a> {
        EntityPair::new(a, b)
    }

    #[test]
    fn evidence_similarity_is_high_for_matching_values() {
        let a = EntityBuilder::new("a")
            .value("label", "Berlin")
            .build_with_own_schema();
        let exact = EntityBuilder::new("b")
            .value("name", "Berlin")
            .build_with_own_schema();
        assert_eq!(evidence()[0].similarity(&pair(&a, &exact)), 1.0);
        let c = EntityBuilder::new("c")
            .value("name", "a completely different value")
            .build_with_own_schema();
        assert!(evidence()[0].similarity(&pair(&a, &c)) < 0.5);
        // unlike GenLink the baseline cannot normalise letter case, so a case
        // difference already costs similarity
        let cased = EntityBuilder::new("d")
            .value("name", "berlin")
            .build_with_own_schema();
        assert!(evidence()[0].similarity(&pair(&a, &cased)) < 1.0);
    }

    #[test]
    fn arithmetic_evaluation() {
        let a = EntityBuilder::new("a")
            .value("label", "x")
            .build_with_own_schema();
        let b = EntityBuilder::new("b")
            .value("name", "x")
            .build_with_own_schema();
        let p = pair(&a, &b);
        let e = evidence();
        let expression = Expression::Add(
            Box::new(Expression::Evidence(0)),
            Box::new(Expression::Constant(0.5)),
        );
        assert!((expression.evaluate(&p, &e) - 1.5).abs() < 1e-9);
        let product = Expression::Multiply(
            Box::new(Expression::Constant(2.0)),
            Box::new(Expression::Constant(3.0)),
        );
        assert_eq!(product.evaluate(&p, &e), 6.0);
        let division_by_zero = Expression::Divide(
            Box::new(Expression::Constant(5.0)),
            Box::new(Expression::Constant(0.0)),
        );
        assert_eq!(division_by_zero.evaluate(&p, &e), 1.0);
        let exp = Expression::Exp(Box::new(Expression::Constant(0.0)));
        assert_eq!(exp.evaluate(&p, &e), 1.0);
    }

    #[test]
    fn exp_is_clamped() {
        let a = EntityBuilder::new("a").build_with_own_schema();
        let b = EntityBuilder::new("b").build_with_own_schema();
        let huge = Expression::Exp(Box::new(Expression::Constant(1e9)));
        assert!(huge.evaluate(&pair(&a, &b), &[]).is_finite());
    }

    #[test]
    fn random_expressions_respect_depth_and_node_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let expression = Expression::random(4, 4, &mut rng);
            assert!(expression.depth() <= 4);
            assert!(expression.node_count() >= 1);
        }
    }

    #[test]
    fn node_access_and_replacement() {
        let expression = Expression::Add(
            Box::new(Expression::Evidence(0)),
            Box::new(Expression::Constant(1.0)),
        );
        assert_eq!(expression.node_count(), 3);
        assert!(matches!(expression.node(0), Some(Expression::Add(_, _))));
        assert!(matches!(expression.node(1), Some(Expression::Evidence(0))));
        assert!(matches!(expression.node(2), Some(Expression::Constant(_))));
        assert!(expression.node(3).is_none());
        let mut copy = expression.clone();
        assert!(copy.replace_node(2, Expression::Evidence(1)));
        assert!(matches!(copy.node(2), Some(Expression::Evidence(1))));
        assert!(!copy.replace_node(9, Expression::Constant(0.0)));
    }

    #[test]
    fn crossover_produces_valid_trees() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Expression::random(3, 4, &mut rng);
        let b = Expression::random(3, 4, &mut rng);
        for _ in 0..50 {
            let child = a.crossover(&b, &mut rng);
            assert!(child.node_count() >= 1);
        }
    }

    #[test]
    fn render_is_readable() {
        let expression = Expression::Multiply(
            Box::new(Expression::Evidence(0)),
            Box::new(Expression::Constant(2.0)),
        );
        let text = expression.render(&evidence());
        assert_eq!(text, "(levenshtein(label,name) * 2)");
    }

    #[test]
    fn default_evidence_covers_the_cross_product() {
        let evidence =
            Expression::default_evidence(&["a".to_string(), "b".to_string()], &["x".to_string()]);
        assert_eq!(evidence.len(), 2 * 3);
    }
}
