//! The GenLink learner facade (Algorithm 1 of the paper).

use rand::rngs::StdRng;
use rand::SeedableRng;

use linkdisc_entity::{DataSource, ReferenceLinks, ResolvedReferenceLinks};
use linkdisc_evaluation::ConfusionMatrix;
use linkdisc_gp::{Evolution, IterationStats, Pipeline, PipelineReport, Population};
use linkdisc_rule::LinkageRule;

use crate::config::{GenLinkConfig, LearningMode, SeedingStrategy};
use crate::fitness::FitnessFunction;
use crate::problem::GenLinkProblem;
use crate::random::RandomRuleGenerator;
use crate::seeding::{all_property_pairs, find_compatible_properties, CompatiblePair};

/// The result of one GenLink learning run.
#[derive(Debug, Clone)]
pub struct LearnOutcome {
    /// The best linkage rule of the final population by fitness — after an
    /// early stop, the fittest of the rules that reached the target
    /// F-measure.
    pub rule: LinkageRule,
    /// Per-iteration statistics, starting with the initial population
    /// (iteration 0).  These drive the learning-curve tables of the paper.
    pub history: Vec<IterationStats>,
    /// Number of breeding iterations that were executed.
    pub iterations: usize,
    /// Whether the run stopped early because a rule reached the target
    /// F-measure on the training links.
    pub stopped_early: bool,
    /// Mean F-measure of the *initial* population (the quantity compared in
    /// the seeding experiment, Table 14).
    pub initial_mean_f_measure: f64,
    /// Confusion matrix of the returned rule on the training links.
    pub training: ConfusionMatrix,
    /// The compatible property pairs the initial population was built from.
    pub compatible_pairs: Vec<CompatiblePair>,
    /// Throughput report of the steady-state pipeline (`None` when the
    /// generational loop ran).
    pub pipeline: Option<PipelineReport>,
}

/// The GenLink learning algorithm.
///
/// A learner is cheap to construct and stateless between runs; the same
/// learner can be reused for several data sets.
#[derive(Debug, Clone, Default)]
pub struct GenLink {
    config: GenLinkConfig,
}

impl GenLink {
    /// Creates a learner with the given configuration.
    pub fn new(config: GenLinkConfig) -> Self {
        config.validate();
        GenLink { config }
    }

    /// The configuration of this learner.
    pub fn config(&self) -> &GenLinkConfig {
        &self.config
    }

    /// Learns a linkage rule from the training reference links.
    ///
    /// `seed` makes the run reproducible: the same seed, data and
    /// configuration yield the same rule.
    pub fn learn(
        &self,
        source: &DataSource,
        target: &DataSource,
        training: &ReferenceLinks,
        seed: u64,
    ) -> LearnOutcome {
        self.learn_with_observer(source, target, training, seed, |_| {})
    }

    /// Learns a linkage rule, invoking `observer` with the statistics of the
    /// initial population (iteration 0) and of every subsequent iteration.
    pub fn learn_with_observer<F>(
        &self,
        source: &DataSource,
        target: &DataSource,
        training: &ReferenceLinks,
        seed: u64,
        mut observer: F,
    ) -> LearnOutcome
    where
        F: FnMut(&IterationStats),
    {
        self.learn_with_rule_observer(source, target, training, seed, |stats, _| observer(stats))
    }

    /// Learns a linkage rule, invoking `observer` with the per-iteration
    /// statistics *and* the currently best rule (by fitness) of the
    /// population.  The experiment harness uses this to evaluate the
    /// intermediate rules on the held-out validation links, which is how the
    /// learning-curve tables (Tables 7–12 of the paper) report F1 per
    /// iteration.
    pub fn learn_with_rule_observer<F>(
        &self,
        source: &DataSource,
        target: &DataSource,
        training: &ReferenceLinks,
        seed: u64,
        mut observer: F,
    ) -> LearnOutcome
    where
        F: FnMut(&IterationStats, &LinkageRule),
    {
        self.config.validate();
        let compatible_pairs = self.property_pairs(source, target, training);
        let resolved = ResolvedReferenceLinks::resolve(training, source, target);
        let fitness = FitnessFunction::new(&resolved, self.config.parsimony);

        let mut generator =
            RandomRuleGenerator::new(compatible_pairs.clone(), self.config.representation);
        generator.transformation_probability = self.config.transformation_probability;
        generator.max_comparisons = self.config.max_initial_comparisons;
        generator.distance_functions = self.config.distance_functions.clone();
        generator.transform_functions = self.config.transform_functions.clone();

        let problem = GenLinkProblem::new(
            fitness.clone(),
            generator,
            self.config.crossover_operators.clone(),
            self.config.representation,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let observe = |stats: &IterationStats, population: &Population<LinkageRule>| {
            match population.best() {
                Some(best) => observer(stats, &best.genome),
                None => observer(stats, &LinkageRule::empty()),
            }
        };
        let (result, report) = match self.config.mode {
            LearningMode::Generational => {
                let evolution = Evolution::new(&problem, self.config.gp);
                (evolution.run_with_observer(&mut rng, observe), None)
            }
            LearningMode::SteadyState => {
                let pipeline = Pipeline::new(&problem, self.config.gp);
                let outcome = pipeline.run_with_observer(&mut rng, observe);
                (outcome.result, Some(outcome.report))
            }
        };

        let rule = result.best.genome.clone();
        LearnOutcome {
            training: fitness.confusion(&rule),
            initial_mean_f_measure: result
                .history
                .first()
                .map(|s| s.mean_f_measure)
                .unwrap_or(0.0),
            rule,
            iterations: result.iterations,
            stopped_early: result.stopped_early,
            history: result.history,
            compatible_pairs,
            pipeline: report,
        }
    }

    /// The property pairs the initial population draws from, according to the
    /// configured seeding strategy.  An empty compatible-pair list (which can
    /// happen on tiny or extremely noisy link sets) falls back to the full
    /// cross product so the learner always has something to work with.
    fn property_pairs(
        &self,
        source: &DataSource,
        target: &DataSource,
        training: &ReferenceLinks,
    ) -> Vec<CompatiblePair> {
        match self.config.seeding {
            SeedingStrategy::Random => all_property_pairs(source, target),
            SeedingStrategy::Seeded => {
                let pairs = find_compatible_properties(
                    source,
                    target,
                    training,
                    &self.config.seeding_config,
                );
                if pairs.is_empty() {
                    all_property_pairs(source, target)
                } else {
                    pairs
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenLinkConfig;
    use crate::representation::RepresentationMode;
    use linkdisc_entity::{DataSourceBuilder, Link};
    use linkdisc_evaluation::evaluate_rule_on_links;
    use rand::Rng;

    /// A small two-schema data set with case noise: source labels are mixed
    /// case, target names are lower case, plus a numeric year property.
    fn noisy_sources(n: usize) -> (DataSource, DataSource, ReferenceLinks) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut source = DataSourceBuilder::new("A", ["title", "year"]);
        let mut target = DataSourceBuilder::new("B", ["name", "released"]);
        let mut positives = Vec::new();
        for i in 0..n {
            let title = format!("The Example Movie {i}");
            let year = format!("{}", 1960 + (i % 50));
            source = source
                .entity(
                    format!("a{i}"),
                    [("title", title.as_str()), ("year", year.as_str())],
                )
                .unwrap();
            let noisy_title = if rng.gen_bool(0.5) {
                title.to_uppercase()
            } else {
                title.to_lowercase()
            };
            target = target
                .entity(
                    format!("b{i}"),
                    [("name", noisy_title.as_str()), ("released", year.as_str())],
                )
                .unwrap();
            positives.push(Link::new(format!("a{i}"), format!("b{i}")));
        }
        let links = ReferenceLinks::with_generated_negatives(positives, &mut rng);
        (source.build(), target.build(), links)
    }

    fn fast_config() -> GenLinkConfig {
        let mut config = GenLinkConfig::fast();
        config.gp.threads = 1;
        config.gp.max_iterations = 15;
        config.gp.population_size = 60;
        config
    }

    #[test]
    fn learns_an_accurate_rule_on_noisy_titles() {
        let (source, target, links) = noisy_sources(30);
        let outcome = GenLink::new(fast_config()).learn(&source, &target, &links, 3);
        assert!(
            outcome.training.f_measure() > 0.9,
            "training F1 was {}",
            outcome.training.f_measure()
        );
        assert!(!outcome.rule.is_empty());
        assert!(!outcome.history.is_empty());
        assert_eq!(outcome.history[0].iteration, 0);
        // the learned rule must reference existing properties of both schemata
        let (source_props, target_props) = outcome.rule.root().unwrap().properties();
        for p in source_props {
            assert!(source.schema().contains(p), "unknown source property {p}");
        }
        for p in target_props {
            assert!(target.schema().contains(p), "unknown target property {p}");
        }
    }

    #[test]
    fn learning_is_reproducible_for_a_fixed_seed() {
        let (source, target, links) = noisy_sources(20);
        let learner = GenLink::new(fast_config());
        let first = learner.learn(&source, &target, &links, 7);
        let second = learner.learn(&source, &target, &links, 7);
        assert_eq!(first.rule, second.rule);
        assert_eq!(first.history.len(), second.history.len());
    }

    #[test]
    fn observer_reports_monotone_iterations() {
        let (source, target, links) = noisy_sources(15);
        let mut iterations = Vec::new();
        let outcome =
            GenLink::new(fast_config()).learn_with_observer(&source, &target, &links, 1, |stats| {
                iterations.push(stats.iteration)
            });
        assert_eq!(iterations.first(), Some(&0));
        assert!(iterations.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(iterations.len(), outcome.history.len());
    }

    #[test]
    fn restricted_representation_is_respected_end_to_end() {
        let (source, target, links) = noisy_sources(15);
        let config = fast_config().with_representation(RepresentationMode::Boolean);
        let outcome = GenLink::new(config).learn(&source, &target, &links, 5);
        assert!(RepresentationMode::Boolean.permits(&outcome.rule));
        assert_eq!(outcome.rule.stats().transformations, 0);
    }

    #[test]
    fn learned_rule_generalises_to_unseen_links() {
        let (source, target, links) = noisy_sources(40);
        let mut rng = StdRng::seed_from_u64(11);
        let (train, validation) = links.split_train_validation(0.5, &mut rng);
        let outcome = GenLink::new(fast_config()).learn(&source, &target, &train, 13);
        let matrix = evaluate_rule_on_links(&outcome.rule, &validation, &source, &target);
        assert!(
            matrix.f_measure() > 0.8,
            "validation F1 was {}",
            matrix.f_measure()
        );
    }

    #[test]
    fn compatible_pairs_are_reported() {
        let (source, target, links) = noisy_sources(10);
        let outcome = GenLink::new(fast_config()).learn(&source, &target, &links, 2);
        assert!(!outcome.compatible_pairs.is_empty());
        assert!(outcome
            .compatible_pairs
            .iter()
            .any(|p| p.source_property == "title" && p.target_property == "name"));
    }

    #[test]
    fn caches_save_evaluations_across_generations() {
        let (source, target, links) = noisy_sources(20);
        let mut config = fast_config();
        // never stop early, so later generations re-breed rules that were
        // already scored and the fitness cache must absorb them (elites are
        // carried over with their evaluation and never reach the cache)
        config.gp.stop_f_measure = 2.0;
        let outcome = GenLink::new(config).learn(&source, &target, &links, 9);
        let last = outcome
            .history
            .last()
            .and_then(|stats| stats.cache)
            .expect("GenLink reports cache statistics");
        assert!(
            last.fitness_hits > 0,
            "re-bred duplicate offspring must hit the fitness cache: {last:?}"
        );
        assert!(last.fitness_misses > 0);
        assert!(last.fitness_entries as u64 <= last.fitness_misses);
        assert!(
            last.distance_misses > 0 && last.distance_hits > 0,
            "distance memo never filled or never reused: {last:?}"
        );
        // cumulative counters grow monotonically over the run
        let mut previous_hits = 0;
        for stats in &outcome.history {
            let cache = stats.cache.expect("every iteration carries stats");
            assert!(cache.fitness_hits >= previous_hits);
            previous_hits = cache.fitness_hits;
        }
    }

    #[test]
    fn steady_state_mode_learns_and_reports_throughput() {
        let (source, target, links) = noisy_sources(25);
        let mut config = fast_config().steady_state();
        // never stop early so the pipeline spends its whole budget
        config.gp.stop_f_measure = 2.0;
        config.gp.max_iterations = 8;
        let outcome = GenLink::new(config).learn(&source, &target, &links, 17);
        assert!(
            outcome.training.f_measure() > 0.9,
            "steady-state training F1 was {}",
            outcome.training.f_measure()
        );
        let report = outcome.pipeline.expect("steady state reports throughput");
        assert!(report.evaluations > 0);
        assert!(report.evaluations_per_second() > 0.0);
        // window snapshots carry the per-phase timers
        let phases = outcome
            .history
            .last()
            .and_then(|stats| stats.phases)
            .expect("GenLink reports phase timers");
        assert!(phases.score_s > 0.0);
    }

    #[test]
    fn steady_state_mode_is_reproducible_and_evaluator_invariant() {
        let (source, target, links) = noisy_sources(20);
        let mut config = fast_config().steady_state();
        config.gp.max_iterations = 8;
        let one = GenLink::new(config.clone()).learn(&source, &target, &links, 23);
        config.gp.threads = 3;
        let three = GenLink::new(config).learn(&source, &target, &links, 23);
        assert_eq!(one.rule, three.rule);
        assert_eq!(one.history.len(), three.history.len());
        for (a, b) in one.history.iter().zip(&three.history) {
            assert_eq!(a.best_fitness, b.best_fitness);
            assert_eq!(a.mean_fitness, b.mean_fitness);
        }
    }
}
