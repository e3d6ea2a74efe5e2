//! Generic genetic-programming scaffolding.
//!
//! GenLink (Section 5 of the paper) is a genetic programming algorithm with a
//! specific genome (linkage rules), specific crossover operators and a
//! specific fitness function.  Everything that is *not* specific to linkage
//! rules lives in this crate so that the Carvalho-style baseline can reuse the
//! same machinery:
//!
//! * [`Problem`] — the abstraction a concrete GP problem implements (random
//!   genome generation, crossover, fitness evaluation),
//! * [`GpConfig`] — population size, iteration limit, crossover/mutation
//!   probabilities, tournament size and stop condition (Table 4): the one
//!   configuration of both schedules below,
//! * [`Evolution`] — the generational loop of Algorithm 1 including
//!   headless-chicken mutation, tournament selection, optional elitism and
//!   parallel fitness evaluation,
//! * [`Pipeline`] — the steady-state schedule: the same breeding kernel and
//!   evaluation budget, with offspring streamed through a pool of evaluator
//!   workers instead of scored a generation at a time,
//! * [`FitnessCache`] — memoized evaluations of genomes bred more than once,
//! * [`Population`] / [`Individual`] — evaluated candidate solutions,
//! * [`IterationStats`] — per-iteration statistics used by the experiment
//!   harness to regenerate the learning-curve tables (Tables 7–12).

#![warn(unreachable_pub)]

pub mod cache;
pub mod evolution;
pub mod pipeline;
pub mod population;
pub mod selection;

pub use cache::{CacheStats, FitnessCache};
pub use evolution::{
    EvalCounters, Evolution, EvolutionResult, IterationStats, PhaseAccumulator, PhaseTimers,
};
pub use pipeline::{Pipeline, PipelineOutcome, PipelineReport};
pub use population::{Evaluated, Individual, Population};
pub use selection::{reverse_tournament_select, tournament_select};

use rand::rngs::StdRng;

// Re-exported so GP users keep one import for the engine's thread knobs.
pub use linkdisc_util::{parallel_ordered_map, resolve_threads};

/// A genetic-programming problem definition.
///
/// The engine is deterministic given the seed of the `StdRng` it is driven
/// with; all randomness flows through the methods' `rng` parameter.
pub trait Problem: Sync {
    /// The genome type being evolved (a linkage rule, an expression tree, …).
    type Genome: Clone + Send + Sync;

    /// Generates a random genome (used for the initial population and for
    /// headless-chicken mutation).
    fn random_genome(&self, rng: &mut StdRng) -> Self::Genome;

    /// Recombines two genomes into a new one.  Implementations typically pick
    /// one of several crossover operators at random.
    fn crossover(
        &self,
        first: &Self::Genome,
        second: &Self::Genome,
        rng: &mut StdRng,
    ) -> Self::Genome;

    /// Evaluates a genome, returning its fitness and its F-measure on the
    /// training links (the F-measure drives the stop condition).
    fn evaluate(&self, genome: &Self::Genome) -> Evaluated;

    /// Evaluates one generation's genomes on up to `threads` workers
    /// (0 = all cores), returning evaluations **in genome order**.
    ///
    /// The generational engine scores every generation (and both engines
    /// their starting population) through this entry point, so a problem can
    /// amortise per-batch setup across the whole batch — GenLink deduplicates
    /// genomes against its fitness cache, compiles the distinct rules and
    /// measures each distance column the run has not seen yet once before
    /// fanning the actual scoring out.  Implementations must be
    /// **deterministic and thread-count invariant**: the same genomes yield
    /// the same evaluations at every `threads` value (evaluation takes no
    /// RNG, so the default chunked map satisfies this for any deterministic
    /// [`Problem::evaluate`]).
    fn evaluate_batch(&self, genomes: &[Self::Genome], threads: usize) -> Vec<Evaluated> {
        parallel_ordered_map(genomes, threads, |genome| self.evaluate(genome))
    }

    /// Cumulative cache statistics of the problem's evaluation pipeline, if
    /// it maintains caches.  The engine snapshots this after every iteration
    /// into [`IterationStats::cache`].
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Cumulative per-phase timers of the problem's evaluation pipeline, if
    /// it times its phases.  The engine snapshots this after every iteration
    /// (or steady-state window) into [`IterationStats::phases`].
    fn phase_timers(&self) -> Option<PhaseTimers> {
        None
    }

    /// Cumulative short-circuit and kernel-dispatch counters of the
    /// problem's evaluation pipeline, if it tracks them.  The engine
    /// snapshots this after every iteration into [`IterationStats::eval`].
    fn eval_counters(&self) -> Option<EvalCounters> {
        None
    }
}

/// The parameters of the genetic search (Table 4 of the paper), for either
/// schedule: [`Evolution`] and [`Pipeline`] take nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Number of individuals in the population (paper: 500).
    pub population_size: usize,
    /// Maximum number of iterations (paper: 50).  The steady-state pipeline
    /// spends the same budget: `population_size × max_iterations`
    /// evaluations.
    pub max_iterations: usize,
    /// Tournament size of the selection method (paper: 5).
    pub tournament_size: usize,
    /// Probability that an offspring is produced by crossing a selected
    /// individual with a freshly generated random genome — headless-chicken
    /// mutation (paper: 25%).  Every other offspring recombines two selected
    /// individuals, so the paper's crossover probability (75%) is
    /// `1 − mutation_probability`.
    pub mutation_probability: f64,
    /// Stop as soon as one individual reaches this F-measure on the training
    /// links (paper: 1.0).
    pub stop_f_measure: f64,
    /// Number of best individuals copied unchanged into the next generation.
    /// The paper's pseudocode does not keep elites; Silk's implementation
    /// preserves the best individual, which we follow by default (set to 0 for
    /// the literal Algorithm 1).  Generational only: the pipeline's
    /// replacement never lets an offspring displace a fitter individual.
    pub elitism: usize,
    /// Number of worker threads for fitness evaluation (0 = use all cores);
    /// the pipeline's evaluator count.  Never changes a run's trajectory.
    pub threads: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            population_size: 500,
            max_iterations: 50,
            tournament_size: 5,
            mutation_probability: 0.25,
            stop_f_measure: 1.0,
            elitism: 1,
            threads: 0,
        }
    }
}

impl GpConfig {
    /// A small configuration for unit tests and examples that need to finish
    /// in milliseconds rather than minutes.
    pub fn small() -> Self {
        GpConfig {
            population_size: 40,
            max_iterations: 15,
            ..GpConfig::default()
        }
    }

    /// Validates the configuration, panicking with a clear message on
    /// nonsensical parameters.  Called by [`Evolution::new`] and
    /// [`Pipeline::new`].
    pub fn validate(&self) {
        assert!(self.population_size > 0, "population_size must be positive");
        assert!(self.tournament_size > 0, "tournament_size must be positive");
        assert!(
            (0.0..=1.0).contains(&self.mutation_probability),
            "mutation_probability must lie in [0, 1]"
        );
        assert!(
            self.elitism <= self.population_size,
            "elitism cannot exceed the population size"
        );
    }
}

/// The toy problem both engines' unit tests evolve.
#[cfg(test)]
pub(crate) mod testing {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::{Evaluated, EvolutionResult, Problem};

    /// Genomes are integer vectors, fitness is one minus the normalised
    /// distance to a target vector, crossover is uniform recombination.
    pub(crate) struct TargetVector {
        pub(crate) target: Vec<i32>,
    }

    impl Problem for TargetVector {
        type Genome = Vec<i32>;

        fn random_genome(&self, rng: &mut StdRng) -> Vec<i32> {
            (0..self.target.len())
                .map(|_| rng.gen_range(0..10))
                .collect()
        }

        fn crossover(&self, a: &Vec<i32>, b: &Vec<i32>, rng: &mut StdRng) -> Vec<i32> {
            a.iter()
                .zip(b.iter())
                .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
                .collect()
        }

        fn evaluate(&self, genome: &Vec<i32>) -> Evaluated {
            let distance: i32 = genome
                .iter()
                .zip(self.target.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            let max_distance = (10 * self.target.len()) as f64;
            let quality = 1.0 - distance as f64 / max_distance;
            Evaluated {
                fitness: quality,
                f_measure: if distance == 0 { 1.0 } else { quality },
            }
        }
    }

    pub(crate) fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The final population's genomes, in population order.
    pub(crate) fn genomes(result: &EvolutionResult<Vec<i32>>) -> Vec<Vec<i32>> {
        result
            .population
            .individuals()
            .iter()
            .map(|i| i.genome.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table_4() {
        let config = GpConfig::default();
        assert_eq!(config.population_size, 500);
        assert_eq!(config.max_iterations, 50);
        assert_eq!(config.tournament_size, 5);
        assert!((config.mutation_probability - 0.25).abs() < 1e-12);
        assert_eq!(config.stop_f_measure, 1.0);
        config.validate();
    }

    #[test]
    fn small_config_is_valid() {
        GpConfig::small().validate();
    }

    #[test]
    #[should_panic(expected = "population_size")]
    fn zero_population_is_rejected() {
        GpConfig {
            population_size: 0,
            ..GpConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "elitism")]
    fn excessive_elitism_is_rejected() {
        GpConfig {
            population_size: 10,
            elitism: 11,
            ..GpConfig::default()
        }
        .validate();
    }
}
