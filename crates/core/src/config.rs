//! Configuration of the GenLink learner.

use linkdisc_gp::{GpConfig, Replacement};
use linkdisc_similarity::DistanceFunction;
use linkdisc_transform::TransformFunction;

use crate::fitness::ParsimonyModel;
use crate::operators::CrossoverOperator;
use crate::representation::RepresentationMode;
use crate::seeding::SeedingConfig;

/// How the initial population selects property pairs (Table 14 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedingStrategy {
    /// Pre-select compatible property pairs from the positive reference links
    /// (Algorithm 2) — the GenLink default.
    #[default]
    Seeded,
    /// Draw property pairs uniformly from the full cross product of source and
    /// target properties (the "Random" column of Table 14).
    Random,
}

impl SeedingStrategy {
    /// Display name as used in Table 14.
    pub fn name(&self) -> &'static str {
        match self {
            SeedingStrategy::Seeded => "Seeded",
            SeedingStrategy::Random => "Random",
        }
    }
}

/// How the learner schedules breeding and evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LearningMode {
    /// The generational loop of Algorithm 1: breed a full generation, score
    /// it as one batch, repeat.  This is the paper's algorithm and the
    /// bit-exact reference.
    #[default]
    Generational,
    /// The asynchronous steady-state pipeline: offspring are bred one at a
    /// time, scored by a pool of evaluator workers and folded back under a
    /// replacement rule, with no generation barrier.  Deterministic at any
    /// evaluator count.  Spends the same evaluation budget as the
    /// generational loop (`population_size * max_iterations`) unless
    /// overridden.
    SteadyState(SteadyStateConfig),
}

/// Knobs of the steady-state pipeline (`0` always means "derive a default").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateConfig {
    /// Offspring in flight before a result must be folded back (0 = derived,
    /// see `linkdisc_gp::PipelineConfig::lookahead`).
    pub lookahead: usize,
    /// Folds per statistics window (0 = population size, the moral
    /// equivalent of a generation).
    pub window: usize,
    /// Total evaluation budget (0 = `population_size * max_iterations`, the
    /// generational loop's budget — which keeps quality comparisons fair).
    pub evaluations: usize,
    /// How the offspring's victim is chosen (default: reverse tournament of
    /// the GP tournament size).
    pub replacement: Option<Replacement>,
    /// Number of island subpopulations (1 = one panmictic population).
    pub islands: usize,
    /// Evaluations per island between migrations (0 = derived per-island
    /// population size).
    pub migration_interval: usize,
    /// Individuals copied along the ring at each migration.
    pub migrants: usize,
}

impl Default for SteadyStateConfig {
    fn default() -> Self {
        SteadyStateConfig {
            lookahead: 0,
            window: 0,
            evaluations: 0,
            replacement: None,
            islands: 1,
            migration_interval: 0,
            migrants: 2,
        }
    }
}

impl SteadyStateConfig {
    /// Checks the steady-state knobs for consistency against the GP
    /// parameters; panics with a clear message on nonsensical values.
    pub fn validate(&self, gp: &GpConfig) {
        assert!(self.islands > 0, "at least one island is required");
        assert!(
            gp.population_size.is_multiple_of(self.islands),
            "population size must split evenly across islands"
        );
    }
}

/// Full configuration of a GenLink learning run.
///
/// The defaults reproduce Table 4 of the paper (population 500, 50 iterations,
/// tournament size 5, 75% crossover, 25% mutation, stop at F1 = 1.0) together
/// with the full rule representation, the specialized crossover operators and
/// seeded initialisation.
#[derive(Debug, Clone)]
pub struct GenLinkConfig {
    /// The generic GP parameters (Table 4).
    pub gp: GpConfig,
    /// The rule representation the learner may use (Table 13 ablation).
    pub representation: RepresentationMode,
    /// The crossover operators the learner may apply (Table 15 ablation).
    pub crossover_operators: Vec<CrossoverOperator>,
    /// How the initial population is seeded (Table 14 ablation).
    pub seeding: SeedingStrategy,
    /// Parameters of the compatible-property search (Algorithm 2).
    pub seeding_config: SeedingConfig,
    /// The parsimony pressure of the fitness function.
    pub parsimony: ParsimonyModel,
    /// Probability of appending a transformation to a property of a random
    /// rule (Section 5.1: 50%).
    pub transformation_probability: f64,
    /// Maximum number of comparisons in an initial random rule (Section 5.1:
    /// "up to two comparisons").
    pub max_initial_comparisons: usize,
    /// Distance functions available to the learner (Table 2).
    pub distance_functions: Vec<DistanceFunction>,
    /// Transformation functions available to the learner (Table 1).
    pub transform_functions: Vec<TransformFunction>,
    /// How breeding and evaluation are scheduled: the paper's generational
    /// loop (the default) or the asynchronous steady-state pipeline.  Both
    /// are deterministic; the generational loop is the bit-exact reference.
    pub mode: LearningMode,
}

impl Default for GenLinkConfig {
    fn default() -> Self {
        GenLinkConfig {
            gp: GpConfig::default(),
            representation: RepresentationMode::Full,
            crossover_operators: CrossoverOperator::SPECIALIZED.to_vec(),
            seeding: SeedingStrategy::Seeded,
            seeding_config: SeedingConfig::default(),
            parsimony: ParsimonyModel::default(),
            transformation_probability: 0.5,
            max_initial_comparisons: 2,
            distance_functions: DistanceFunction::PAPER.to_vec(),
            transform_functions: TransformFunction::PAPER.to_vec(),
            mode: LearningMode::default(),
        }
    }
}

impl GenLinkConfig {
    /// A configuration with the paper's parameters (same as `default`).
    pub fn paper() -> Self {
        GenLinkConfig::default()
    }

    /// A fast configuration for tests, examples and quick experiments: smaller
    /// population and fewer iterations, otherwise identical behaviour.
    pub fn fast() -> Self {
        GenLinkConfig {
            gp: GpConfig {
                population_size: 80,
                max_iterations: 20,
                ..GpConfig::default()
            },
            ..GenLinkConfig::default()
        }
    }

    /// Restricts the learner to a representation (for the Table 13 ablation).
    pub fn with_representation(mut self, representation: RepresentationMode) -> Self {
        self.representation = representation;
        self
    }

    /// Restricts the learner to a crossover operator set (Table 15 ablation).
    pub fn with_crossover_operators(mut self, operators: Vec<CrossoverOperator>) -> Self {
        self.crossover_operators = operators;
        self
    }

    /// Selects the seeding strategy (Table 14 ablation).
    pub fn with_seeding(mut self, seeding: SeedingStrategy) -> Self {
        self.seeding = seeding;
        self
    }

    /// Switches the learner to the steady-state pipeline with default knobs.
    pub fn steady_state(mut self) -> Self {
        self.mode = LearningMode::SteadyState(SteadyStateConfig::default());
        self
    }

    /// Selects the learning mode explicitly.
    pub fn with_mode(mut self, mode: LearningMode) -> Self {
        self.mode = mode;
        self
    }

    /// Checks the configuration for consistency; panics with a clear message
    /// on nonsensical values.  Called by the learner.
    pub fn validate(&self) {
        self.gp.validate();
        assert!(
            !self.crossover_operators.is_empty(),
            "at least one crossover operator is required"
        );
        assert!(
            (0.0..=1.0).contains(&self.transformation_probability),
            "transformation_probability must lie in [0, 1]"
        );
        assert!(
            self.max_initial_comparisons >= 1,
            "initial rules need at least one comparison"
        );
        assert!(
            !self.distance_functions.is_empty(),
            "at least one distance function is required"
        );
        if let LearningMode::SteadyState(steady) = &self.mode {
            steady.validate(&self.gp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = GenLinkConfig::default();
        assert_eq!(config.gp.population_size, 500);
        assert_eq!(config.gp.max_iterations, 50);
        assert_eq!(config.representation, RepresentationMode::Full);
        assert_eq!(config.crossover_operators.len(), 6);
        assert_eq!(config.seeding, SeedingStrategy::Seeded);
        assert!((config.transformation_probability - 0.5).abs() < 1e-12);
        assert_eq!(config.max_initial_comparisons, 2);
        assert_eq!(config.distance_functions.len(), 5);
        assert_eq!(config.transform_functions.len(), 4);
        config.validate();
    }

    #[test]
    fn builders_adjust_single_aspects() {
        let config = GenLinkConfig::fast()
            .with_representation(RepresentationMode::Linear)
            .with_crossover_operators(CrossoverOperator::SUBTREE_ONLY.to_vec())
            .with_seeding(SeedingStrategy::Random);
        assert_eq!(config.representation, RepresentationMode::Linear);
        assert_eq!(config.crossover_operators, vec![CrossoverOperator::Subtree]);
        assert_eq!(config.seeding, SeedingStrategy::Random);
        config.validate();
    }

    #[test]
    #[should_panic(expected = "crossover operator")]
    fn empty_operator_set_is_rejected() {
        GenLinkConfig::default()
            .with_crossover_operators(vec![])
            .validate();
    }

    #[test]
    fn seeding_strategy_names() {
        assert_eq!(SeedingStrategy::Seeded.name(), "Seeded");
        assert_eq!(SeedingStrategy::Random.name(), "Random");
    }

    #[test]
    fn steady_state_mode_validates() {
        let config = GenLinkConfig::fast().steady_state();
        assert!(matches!(config.mode, LearningMode::SteadyState(_)));
        config.validate();
    }

    #[test]
    #[should_panic(expected = "split evenly")]
    fn uneven_island_split_is_rejected() {
        let mut config = GenLinkConfig::fast();
        config.gp.population_size = 81;
        config.mode = LearningMode::SteadyState(SteadyStateConfig {
            islands: 4,
            ..SteadyStateConfig::default()
        });
        config.validate();
    }
}
