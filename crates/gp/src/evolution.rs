//! The evolution loop (Algorithm 1 of the paper), parallel and
//! deterministic.
//!
//! Both per-generation stages run on [`crate::resolve_threads`] workers and
//! are **bit-identical across thread counts** — the same seed produces the
//! same run at 1, 2 or 64 threads:
//!
//! * **Breeding** — each offspring is bred from its own RNG stream, seeded
//!   by one `u64` drawn from the master RNG.  The per-offspring seeds depend
//!   only on the master seed (never on scheduling), each stream's draws
//!   (selection, operator choice, mutation coin) are confined to its
//!   offspring, and the offspring are reduced in index order.
//! * **Evaluation** — [`Problem::evaluate_batch`] scores the generation and
//!   returns evaluations in genome order; evaluation takes no RNG, so
//!   determinism only requires the problem's evaluation to be a pure
//!   function of the genome (the GenLink problem's caches are pure memos).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::population::{Individual, Population};
use crate::selection::tournament_select;
use crate::{parallel_ordered_map, GpConfig, Problem};

/// Cumulative per-phase wall time of the evaluation pipeline, in seconds.
///
/// Compile / bind / score are **busy** seconds summed across every thread
/// that worked in the phase (they can exceed the run's wall clock on
/// multi-core); idle is the time evaluator workers spent blocked waiting for
/// work (always `0.0` in generational mode, whose workers live only for the
/// span of a fan-out).  The difference between two consecutive iterations'
/// timers attributes that generation's cost to its phases — turning the old
/// single opaque speedup number into per-stage evidence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimers {
    /// Seconds spent compiling rules into evaluation plans.
    pub compile_s: f64,
    /// Seconds spent on everything a rule needs before it can be scored
    /// (GenLink: value columns for missing distance columns, and those
    /// columns — so this phase includes measuring, and the first
    /// generation's share of it is the largest).
    pub bind_s: f64,
    /// Seconds spent scoring prepared genomes against the reference pool.
    pub score_s: f64,
    /// Seconds evaluator workers spent blocked waiting for work (steady-state
    /// pipeline only).
    pub idle_s: f64,
}

impl PhaseTimers {
    /// Total accounted busy seconds (idle excluded).
    pub fn busy_s(&self) -> f64 {
        self.compile_s + self.bind_s + self.score_s
    }
}

/// Thread-safe accumulator behind [`PhaseTimers`]: phases are recorded as
/// atomic nanosecond counters so any number of evaluator workers can add
/// durations without a lock.
#[derive(Debug, Default)]
pub struct PhaseAccumulator {
    compile_ns: AtomicU64,
    bind_ns: AtomicU64,
    score_ns: AtomicU64,
    idle_ns: AtomicU64,
}

impl PhaseAccumulator {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds time spent compiling rules.
    pub fn add_compile(&self, elapsed: Duration) {
        self.compile_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds time spent getting compiled rules ready to be scored.
    pub fn add_bind(&self, elapsed: Duration) {
        self.bind_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds time spent scoring genomes.
    pub fn add_score(&self, elapsed: Duration) {
        self.score_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds time a worker spent blocked waiting for work.
    pub fn add_idle(&self, elapsed: Duration) {
        self.idle_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The cumulative timers as seconds.
    pub fn snapshot(&self) -> PhaseTimers {
        PhaseTimers {
            compile_s: self.compile_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            bind_s: self.bind_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            score_s: self.score_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            idle_s: self.idle_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// Cumulative evaluation-path counters of a problem: score-bounded
/// short-circuiting plus similarity-kernel dispatch.  Like
/// [`crate::CacheStats`], values are cumulative over the run — the delta of
/// two consecutive iterations attributes work to one generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Entity pairs scored through the bounded evaluator.
    pub pairs: u64,
    /// The subset of `pairs` that stopped before visiting every comparison.
    pub pairs_short_circuited: u64,
    /// Comparison operators actually evaluated.
    pub comparisons_evaluated: u64,
    /// Comparison operators skipped by score-bounded short-circuiting.
    pub comparisons_skipped: u64,
    /// Similarity-kernel calls answered by a fast path (bit-parallel
    /// Levenshtein, byte Jaro, sorted-id token merge).
    pub kernel_fast_path: u64,
    /// Similarity-kernel calls that fell back to a reference implementation.
    pub kernel_fallback: u64,
}

impl EvalCounters {
    /// Fraction of comparison operators skipped (`0.0` before any pair).
    pub fn skip_rate(&self) -> f64 {
        let total = self.comparisons_evaluated + self.comparisons_skipped;
        if total == 0 {
            0.0
        } else {
            self.comparisons_skipped as f64 / total as f64
        }
    }
}

/// Per-iteration statistics, reported to observers and collected in the
/// result history.  The experiment harness turns these into the
/// learning-curve tables (Tables 7–12 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration number; `0` describes the initial population.
    pub iteration: usize,
    /// Highest fitness in the population.
    pub best_fitness: f64,
    /// Mean fitness of the population.
    pub mean_fitness: f64,
    /// Highest training F-measure in the population.
    pub best_f_measure: f64,
    /// Mean training F-measure of the population.
    pub mean_f_measure: f64,
    /// Seconds elapsed since the start of the run (cumulative, like the
    /// "Time in s" column of the paper's tables).  Time spent inside the
    /// run's observer is not counted, so an observer that scores the best
    /// rule at every checkpoint does not show up as learning time.
    pub elapsed_seconds: f64,
    /// Cumulative cache statistics of the problem's evaluation pipeline
    /// (`None` for problems without caches).  The difference between two
    /// consecutive iterations gives the evaluations saved in that
    /// generation.
    pub cache: Option<crate::CacheStats>,
    /// Cumulative per-phase timers of the problem's evaluation pipeline
    /// (`None` for problems that do not time their phases).  The difference
    /// between two consecutive iterations attributes that generation's cost
    /// to compile / index / score / idle.
    pub phases: Option<PhaseTimers>,
    /// Cumulative short-circuit and kernel-dispatch counters of the
    /// problem's evaluation pipeline (`None` for problems without them).
    pub eval: Option<EvalCounters>,
}

impl IterationStats {
    /// Snapshots `population` and the problem's cumulative counters.
    /// `engine` holds the timers of an engine that runs its own evaluator
    /// workers (the pipeline): their idle time is added to the problem's
    /// phases, and they stand in for the phases of a problem that keeps
    /// none.
    pub(crate) fn capture<P: Problem>(
        problem: &P,
        iteration: usize,
        population: &Population<P::Genome>,
        start: &Instant,
        engine: Option<PhaseTimers>,
    ) -> Self {
        let phases = match (problem.phase_timers(), engine) {
            (Some(mut timers), Some(engine)) => {
                timers.idle_s += engine.idle_s;
                Some(timers)
            }
            (None, Some(engine)) => Some(PhaseTimers {
                idle_s: engine.idle_s,
                score_s: engine.score_s,
                ..PhaseTimers::default()
            }),
            (timers, None) => timers,
        };
        IterationStats {
            iteration,
            best_fitness: population.best().map(|i| i.fitness()).unwrap_or(0.0),
            mean_fitness: population.mean_fitness(),
            best_f_measure: population
                .best_by_f_measure()
                .map(|i| i.evaluation.f_measure)
                .unwrap_or(0.0),
            mean_f_measure: population.mean_f_measure(),
            elapsed_seconds: start.elapsed().as_secs_f64(),
            cache: problem.cache_stats(),
            phases,
            eval: problem.eval_counters(),
        }
    }
}

/// The result of an evolution run.
#[derive(Debug, Clone)]
pub struct EvolutionResult<G> {
    /// The individual the run returns: the fittest of the final population
    /// or, when the run stopped early, the fittest of those whose F-measure
    /// met the target — so the stop condition and the answer agree.
    pub best: Individual<G>,
    /// The final population.
    pub population: Population<G>,
    /// Statistics of every iteration, starting with iteration 0.
    pub history: Vec<IterationStats>,
    /// Number of breeding iterations that were executed.
    pub iterations: usize,
    /// Whether the run stopped because the F-measure target was reached.
    pub stopped_early: bool,
}

impl<G: Clone> EvolutionResult<G> {
    /// The result of a finished run, with its best individual picked out.
    pub(crate) fn new(
        population: Population<G>,
        history: Vec<IterationStats>,
        iterations: usize,
        stopped_early: bool,
        stop_f_measure: f64,
    ) -> Self {
        let best = population
            .individuals()
            .iter()
            .filter(|i| !stopped_early || i.evaluation.f_measure >= stop_f_measure)
            .max_by(|a, b| a.fitness().total_cmp(&b.fitness()))
            .cloned()
            .expect("population is never empty, and an early stop met the target");
        EvolutionResult {
            best,
            population,
            history,
            iterations,
            stopped_early,
        }
    }
}

/// The generic evolution engine.
pub struct Evolution<'a, P: Problem> {
    problem: &'a P,
    config: GpConfig,
}

impl<'a, P: Problem> Evolution<'a, P> {
    /// Creates an engine for a problem; panics on an invalid configuration.
    pub fn new(problem: &'a P, config: GpConfig) -> Self {
        config.validate();
        Evolution { problem, config }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &GpConfig {
        &self.config
    }

    /// Runs the evolution to completion.
    pub fn run(&self, rng: &mut StdRng) -> EvolutionResult<P::Genome> {
        self.run_with_observer(rng, |_, _| {})
    }

    /// Runs the evolution, invoking `observer` after the initial population
    /// has been evaluated (iteration 0) and after every breeding iteration.
    pub fn run_with_observer<F>(
        &self,
        rng: &mut StdRng,
        mut observer: F,
    ) -> EvolutionResult<P::Genome>
    where
        F: FnMut(&IterationStats, &Population<P::Genome>),
    {
        let mut start = Instant::now();
        let mut population = start_population(self.problem, &self.config, rng);
        let mut history = Vec::with_capacity(self.config.max_iterations + 1);
        let mut record = |iteration: usize, population: &Population<P::Genome>| {
            let stats = IterationStats::capture(self.problem, iteration, population, &start, None);
            let observing = Instant::now();
            observer(&stats, population);
            start += observing.elapsed();
            history.push(stats);
        };
        record(0, &population);

        let mut iterations = 0;
        let mut stopped_early = false;
        for iteration in 1..=self.config.max_iterations {
            if reached_target(&population, &self.config) {
                stopped_early = true;
                break;
            }
            let offspring = self.breed(&population, rng);
            let mut next = score(self.problem, offspring, self.config.threads);
            // elitism: carry over the best individuals unchanged
            let elites = population.elites(self.config.elitism);
            if !elites.is_empty() {
                let keep = next.len().saturating_sub(elites.len());
                next.truncate(keep);
                next.extend(elites);
            }
            population = Population::new(next);
            iterations = iteration;
            record(iteration, &population);
        }
        if !stopped_early {
            stopped_early = reached_target(&population, &self.config)
                && iterations < self.config.max_iterations;
        }
        EvolutionResult::new(
            population,
            history,
            iterations,
            stopped_early,
            self.config.stop_f_measure,
        )
    }

    /// Breeds a full new generation (the inner `while` of Algorithm 1) in
    /// parallel: per offspring, select two rules, select a crossover
    /// operator (inside [`Problem::crossover`]), and with the mutation
    /// probability cross the first parent with a random genome instead of
    /// the second parent (headless-chicken mutation).
    ///
    /// Each offspring is bred from its **own RNG stream** seeded by one draw
    /// from the master RNG (see the module docs), so the generation is a
    /// pure function of the master seed regardless of how many workers breed
    /// it, and the result vector is in offspring order.
    fn breed(&self, population: &Population<P::Genome>, rng: &mut StdRng) -> Vec<P::Genome> {
        let seeds: Vec<u64> = (0..self.config.population_size)
            .map(|_| rng.gen())
            .collect();
        parallel_ordered_map(&seeds, self.config.threads, |&seed| {
            let mut stream = StdRng::seed_from_u64(seed);
            breed_offspring(
                self.problem,
                population.individuals(),
                self.config.tournament_size,
                self.config.mutation_probability,
                &mut stream,
            )
        })
    }
}

/// Generates the starting population — `population_size` draws of
/// [`Problem::random_genome`] from the master RNG — and scores it as one
/// batch.  Both engines start here, so one seed gives them the same scored
/// population.
pub(crate) fn start_population<P: Problem>(
    problem: &P,
    config: &GpConfig,
    rng: &mut StdRng,
) -> Population<P::Genome> {
    let genomes = (0..config.population_size)
        .map(|_| problem.random_genome(rng))
        .collect();
    Population::new(score(problem, genomes, config.threads))
}

/// Scores genomes through [`Problem::evaluate_batch`], preserving their
/// order.
fn score<P: Problem>(
    problem: &P,
    genomes: Vec<P::Genome>,
    threads: usize,
) -> Vec<Individual<P::Genome>> {
    let evaluations = problem.evaluate_batch(&genomes, threads);
    // a short vector would silently shrink the population via zip below
    assert_eq!(
        evaluations.len(),
        genomes.len(),
        "evaluate_batch must return one evaluation per genome"
    );
    genomes
        .into_iter()
        .zip(evaluations)
        .map(|(genome, evaluation)| Individual::new(genome, evaluation))
        .collect()
}

/// The stop condition: some individual reaches the target F-measure.
pub(crate) fn reached_target<G>(population: &Population<G>, config: &GpConfig) -> bool {
    population
        .best_by_f_measure()
        .is_some_and(|i| i.evaluation.f_measure >= config.stop_f_measure)
}

/// Breeds one offspring from a window of evaluated individuals: select two
/// parents by tournament, and with the mutation probability cross the first
/// parent with a random genome instead of the second parent
/// (headless-chicken mutation, Section 5.2 of the paper).
///
/// This is the single breeding kernel shared by the generational engine
/// (whose window is always the whole population) and the steady-state
/// pipeline (whose window is the live population with a bounded lag).  The
/// draw sequence — two tournaments, one coin, then the crossover's own draws
/// — is part of the determinism contract: both engines produce identical
/// offspring from identical windows and RNG streams.
pub fn breed_offspring<P: Problem>(
    problem: &P,
    window: &[Individual<P::Genome>],
    tournament_size: usize,
    mutation_probability: f64,
    rng: &mut StdRng,
) -> P::Genome {
    let first = tournament_select(window, tournament_size, rng);
    let second = tournament_select(window, tournament_size, rng);
    let p: f64 = rng.gen();
    if p < mutation_probability {
        let random = problem.random_genome(rng);
        problem.crossover(&first.genome, &random, rng)
    } else {
        problem.crossover(&first.genome, &second.genome, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{genomes, rng, TargetVector};
    use crate::{Evaluated, Pipeline};

    #[test]
    fn evolution_improves_fitness() {
        let problem = TargetVector {
            target: vec![3, 7, 1, 9, 4],
        };
        let config = GpConfig {
            population_size: 60,
            max_iterations: 30,
            threads: 1,
            ..GpConfig::default()
        };
        let result = Evolution::new(&problem, config).run(&mut rng(11));
        let initial = result.history.first().unwrap().best_fitness;
        let final_ = result.history.last().unwrap().best_fitness;
        assert!(final_ >= initial);
        assert!(final_ > 0.9, "final fitness was {final_}");
        assert_eq!(result.population.len(), 60);
    }

    #[test]
    fn stop_condition_halts_the_run_early() {
        let problem = TargetVector { target: vec![5, 5] };
        let config = GpConfig {
            population_size: 80,
            max_iterations: 200,
            threads: 1,
            ..GpConfig::default()
        };
        let result = Evolution::new(&problem, config).run(&mut rng(3));
        assert!(result.stopped_early);
        assert!(result.iterations < 200);
        assert_eq!(result.best.evaluation.f_measure, 1.0);
    }

    /// Three genomes whose fitness and F-measure disagree: the fittest
    /// (0) misses the F-measure target that a less fit one (1) meets.
    struct Disagreeing;

    impl Problem for Disagreeing {
        type Genome = usize;

        fn random_genome(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(0..3)
        }

        fn crossover(&self, first: &usize, _: &usize, _: &mut StdRng) -> usize {
            *first
        }

        fn evaluate(&self, genome: &usize) -> Evaluated {
            let (fitness, f_measure) = [(0.9, 0.8), (0.7, 1.0), (0.3, 0.5)][*genome];
            Evaluated { fitness, f_measure }
        }
    }

    /// A run that stops because some individual met `stop_f_measure`
    /// returns an individual that met it — the fittest of those — in both
    /// schedules, not the population's fittest.
    #[test]
    fn an_early_stop_returns_an_individual_that_met_the_target() {
        let config = GpConfig {
            population_size: 20,
            max_iterations: 5,
            threads: 1,
            ..GpConfig::default()
        };
        let start = start_population(&Disagreeing, &config, &mut rng(7));
        let genomes: Vec<usize> = start.individuals().iter().map(|i| i.genome).collect();
        assert!(genomes.contains(&0) && genomes.contains(&1), "{genomes:?}");
        let generational = Evolution::new(&Disagreeing, config).run(&mut rng(7));
        let steady = Pipeline::new(&Disagreeing, config).run(&mut rng(7)).result;
        for result in [generational, steady] {
            assert!(result.stopped_early);
            assert_eq!(result.population.best().unwrap().genome, 0);
            assert!(result.best.evaluation.f_measure >= config.stop_f_measure);
            assert_eq!(result.best.genome, 1);
        }
    }

    #[test]
    fn observer_sees_every_iteration_starting_at_zero() {
        let problem = TargetVector {
            target: vec![1, 2, 3],
        };
        let config = GpConfig {
            population_size: 20,
            max_iterations: 5,
            stop_f_measure: 2.0, // never reached -> run all iterations
            threads: 1,
            ..GpConfig::default()
        };
        let mut seen = Vec::new();
        let result =
            Evolution::new(&problem, config).run_with_observer(&mut rng(1), |stats, population| {
                seen.push(stats.iteration);
                assert_eq!(population.len(), 20);
            });
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(result.history.len(), 6);
        assert!(!result.stopped_early);
        // elapsed time is monotonically non-decreasing
        for pair in result.history.windows(2) {
            assert!(pair[1].elapsed_seconds >= pair[0].elapsed_seconds);
        }
    }

    #[test]
    fn elapsed_time_excludes_the_observer() {
        let problem = TargetVector { target: vec![1, 2] };
        let config = GpConfig {
            population_size: 10,
            max_iterations: 3,
            stop_f_measure: 2.0,
            threads: 1,
            ..GpConfig::default()
        };
        let mut last = f64::NAN;
        Evolution::new(&problem, config).run_with_observer(&mut rng(1), |stats, _| {
            last = stats.elapsed_seconds;
            std::thread::sleep(std::time::Duration::from_millis(100));
        });
        assert!(
            last < 0.1,
            "{last} s counted after three 100 ms observer calls"
        );
    }

    #[test]
    fn parallel_and_sequential_runs_are_bit_identical() {
        let problem = TargetVector { target: vec![2; 8] };
        let sequential = GpConfig {
            population_size: 50,
            max_iterations: 8,
            threads: 1,
            ..GpConfig::default()
        };
        let result_seq = Evolution::new(&problem, sequential).run(&mut rng(9));
        for threads in [2, 4, 7] {
            let parallel = GpConfig {
                threads,
                ..sequential
            };
            let result_par = Evolution::new(&problem, parallel).run(&mut rng(9));
            // per-offspring RNG streams + ordered reduction: breeding *and*
            // evaluation are pure functions of the seed, so the entire run —
            // every genome, every statistic — is thread-count invariant
            assert_eq!(result_seq.history.len(), result_par.history.len());
            for (a, b) in result_seq.history.iter().zip(result_par.history.iter()) {
                assert_eq!(a.best_fitness, b.best_fitness, "threads={threads}");
                assert_eq!(a.mean_fitness, b.mean_fitness, "threads={threads}");
            }
            assert_eq!(result_seq.best.genome, result_par.best.genome);
            assert_eq!(
                genomes(&result_seq),
                genomes(&result_par),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn elitism_never_loses_the_best_individual() {
        let problem = TargetVector {
            target: vec![4, 4, 4, 4],
        };
        let config = GpConfig {
            population_size: 30,
            max_iterations: 12,
            elitism: 1,
            stop_f_measure: 2.0,
            threads: 1,
            ..GpConfig::default()
        };
        let result = Evolution::new(&problem, config).run(&mut rng(5));
        let mut best_so_far = f64::MIN;
        for stats in &result.history {
            assert!(
                stats.best_fitness >= best_so_far - 1e-12,
                "best fitness regressed: {} < {best_so_far}",
                stats.best_fitness
            );
            best_so_far = best_so_far.max(stats.best_fitness);
        }
    }
}
