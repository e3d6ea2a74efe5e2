//! Evaluation protocols: scoring rules against reference links and the
//! repeated 2-fold cross validation of Section 6.1.

use linkdisc_entity::{DataSource, ReferenceLinks, ResolvedReferenceLinks};
use linkdisc_rule::{CompiledRule, EvalStats, LinkageRule, ValueCache, LINK_THRESHOLD};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::confusion::ConfusionMatrix;
use crate::summary::Summary;

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

/// The result of evaluating one learned rule on one fold.
#[derive(Debug, Clone)]
pub struct FoldResult {
    /// Quality on the training links.
    pub training: ConfusionMatrix,
    /// Quality on the held-out validation links.
    pub validation: ConfusionMatrix,
    /// Wall-clock seconds spent learning.
    pub seconds: f64,
    /// The rule that was learned on this fold.
    pub rule: LinkageRule,
}

/// Repeated k-fold cross validation (the paper uses 10 runs of 2 folds).
///
/// The learner is abstracted as a closure so the same protocol drives GenLink,
/// its ablated variants and the Carvalho-style baseline.
#[derive(Debug, Clone, Copy)]
pub struct CrossValidation {
    /// Number of folds (2 in the paper).
    pub folds: usize,
    /// Number of repetitions (10 in the paper).
    pub runs: usize,
    /// Base random seed; run `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for CrossValidation {
    fn default() -> Self {
        CrossValidation {
            folds: 2,
            runs: 10,
            seed: 42,
        }
    }
}

impl CrossValidation {
    /// Runs the protocol.  For every run the reference links are shuffled and
    /// split into `folds` folds; each fold is held out once while the learner
    /// is trained on the remaining folds.
    ///
    /// `learn(train_links, run_seed)` must return the learned rule.
    pub fn run<F>(
        &self,
        source: &DataSource,
        target: &DataSource,
        links: &ReferenceLinks,
        mut learn: F,
    ) -> CrossValidationResult
    where
        F: FnMut(&ReferenceLinks, u64) -> LinkageRule,
    {
        let mut fold_results = Vec::new();
        for run in 0..self.runs {
            let run_seed = self.seed + run as u64;
            let mut rng = StdRng::seed_from_u64(run_seed);
            let folds = links.split_folds(self.folds, &mut rng);
            for held_out in 0..folds.len() {
                let train = ReferenceLinks::merge(
                    folds
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != held_out)
                        .map(|(_, f)| f),
                );
                let validation = &folds[held_out];
                let start = std::time::Instant::now();
                let rule = learn(&train, run_seed);
                let seconds = start.elapsed().as_secs_f64();
                fold_results.push(FoldResult {
                    training: evaluate_rule_on_links(&rule, &train, source, target),
                    validation: evaluate_rule_on_links(&rule, validation, source, target),
                    seconds,
                    rule,
                });
            }
        }
        CrossValidationResult {
            folds: fold_results,
        }
    }
}

/// All fold results of a cross-validation run plus aggregate summaries.
#[derive(Debug, Clone)]
pub struct CrossValidationResult {
    /// One entry per (run, fold) combination.
    pub folds: Vec<FoldResult>,
}

impl CrossValidationResult {
    /// Mean and standard deviation of the training F1.
    pub fn training_f1(&self) -> Summary {
        Summary::of(self.folds.iter().map(|f| f.training.f_measure()))
    }

    /// Mean and standard deviation of the validation F1.
    pub fn validation_f1(&self) -> Summary {
        Summary::of(self.folds.iter().map(|f| f.validation.f_measure()))
    }

    /// Mean and standard deviation of the learning time in seconds.
    pub fn seconds(&self) -> Summary {
        Summary::of(self.folds.iter().map(|f| f.seconds))
    }
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

    #[test]
    fn cross_validation_aggregates_runs_and_folds() {
        let (a, b, links) = paired_sources(16);
        let cv = CrossValidation {
            folds: 2,
            runs: 3,
            seed: 1,
        };
        let mut calls = 0;
        let result = cv.run(&a, &b, &links, |train, _seed| {
            calls += 1;
            // the training fold never holds all links
            assert!(train.len() < links.len());
            assert!(!train.positive().is_empty());
            exact_label_rule()
        });
        assert_eq!(calls, 6);
        assert_eq!(result.folds.len(), 6);
        assert_eq!(result.training_f1().mean, 1.0);
        assert_eq!(result.validation_f1().mean, 1.0);
        assert!(result.seconds().mean >= 0.0);
    }
}
