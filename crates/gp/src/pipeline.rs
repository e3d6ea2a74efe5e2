//! Steady-state evolution as a breeder → evaluator-pool → collector
//! pipeline, deterministic at any evaluator count.
//!
//! The generational engine ([`crate::Evolution`]) synchronises twice per
//! generation: every offspring must be bred before any is evaluated, and
//! every evaluation must finish before the next generation breeds.  On a
//! fitness function as lopsided as GenLink's — a handful of deep rules cost
//! as much as the rest of the generation combined — the barrier leaves
//! evaluator threads idle while the stragglers finish.  The steady-state
//! pipeline removes the barrier: offspring stream through a bounded work
//! channel into a pool of evaluator workers, and scored genomes fold back
//! into the live population one at a time.
//!
//! # One configuration
//!
//! The pipeline takes the generational engine's [`GpConfig`] and derives
//! everything else from it:
//!
//! * **Budget:** `population_size × max_iterations` evaluations, the
//!   generational loop's.
//! * **Fold:** a scored offspring displaces the least fit of
//!   `tournament_size` uniformly drawn members (a reverse tournament, the
//!   mirror of parent selection), and only if it is at least as fit — so
//!   the best individual is never lost.
//! * **Lookahead:** at most `min(16, population_size)` offspring in flight.
//! * **Window:** one window per `population_size` folds, the steady-state
//!   analogue of a generation.
//! * **Evaluators:** `threads` workers.
//!
//! # Determinism
//!
//! Steady-state evolution is normally nondeterministic — whichever offspring
//! finishes evaluation first is folded first, so the population trajectory
//! depends on scheduling.  This pipeline is instead **bit-identical at any
//! evaluator count**, preserving the engine's thread-count-invariance
//! contract, by fixing the *fold order* rather than the *completion order*:
//!
//! * One coordinator (the calling thread) interleaves breeding and
//!   collecting on a strict schedule: breed offspring `n` from the current
//!   population, then fold the result of offspring `n − L` (`L` = the
//!   lookahead).  A reorder buffer holds results that finished out of order
//!   until their sequence number comes up.
//! * Therefore the population state at breed(`n`) is always "after folds
//!   `0 ‥ n−1−L`" — a pure function of the seed, never of scheduling.  Up to
//!   `L + 1` offspring are in flight through the evaluators at once; the
//!   evaluators' only effect on the trajectory is *when* results become
//!   available, never *which* population an offspring was bred from.  `L`
//!   is a constant, never a function of the evaluator count, which would
//!   put scheduling back into the trajectory.
//! * Breeding draws a per-offspring RNG stream seed from the master RNG
//!   (exactly like the generational engine); replacement draws come from a
//!   separate stream seeded by one master draw, so the two sequences cannot
//!   interleave differently across runs.
//!
//! The cost of determinism is bounded staleness: offspring `n` is bred from
//! a population that lags the "fold frontier" by at most `L` folds — a
//! smaller version of the whole generation of staleness generational
//! evolution pays.
//!
//! At every window boundary the pipeline snapshots an [`IterationStats`] and
//! checks the stop condition, so the learning-curve history stays comparable
//! with the generational loop's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Instant;

use linkdisc_util::channel;

use crate::evolution::{breed_offspring, reached_target, start_population, PhaseAccumulator};
use crate::population::{Individual, Population};
use crate::selection::reverse_tournament_select;
use crate::{resolve_threads, EvolutionResult, GpConfig, IterationStats, Problem};

/// The most offspring in flight through the evaluators (clamped to the
/// population size).  A constant — never a function of the evaluator count —
/// so that changing the evaluator count cannot change the trajectory.
const LOOKAHEAD: usize = 16;

/// Throughput report of a pipeline run, alongside the quality result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Fitness evaluations actually dispatched (≤ the budget when the stop
    /// condition fired).
    pub evaluations: usize,
    /// Wall-clock seconds of the steady-state phase (excludes the initial
    /// population's evaluation).
    pub wall_s: f64,
    /// Seconds evaluator workers spent evaluating, summed across workers.
    pub busy_s: f64,
    /// Seconds evaluator workers spent blocked waiting for work, summed
    /// across workers.
    pub idle_s: f64,
    /// Resolved evaluator worker count.
    pub evaluators: usize,
}

impl PipelineReport {
    /// Evaluations per wall-clock second (0 on a degenerate run).
    pub fn evaluations_per_second(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.evaluations as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Fraction of evaluator capacity spent evaluating: `busy / (evaluators
    /// × wall)`, in `[0, 1]` up to timer noise.
    pub fn utilization(&self) -> f64 {
        let capacity = self.evaluators as f64 * self.wall_s;
        if capacity > 0.0 {
            self.busy_s / capacity
        } else {
            0.0
        }
    }
}

/// A pipeline run's quality result plus its throughput report.
#[derive(Debug, Clone)]
pub struct PipelineOutcome<G> {
    /// The evolution result, shaped exactly like the generational engine's
    /// (history entries are window snapshots; `iterations` counts completed
    /// windows).
    pub result: EvolutionResult<G>,
    /// Throughput and utilization of the steady-state phase.
    pub report: PipelineReport,
}

/// The steady-state evolution engine.  Construct with the same problem and
/// [`GpConfig`] as [`crate::Evolution`]; [`Pipeline::run`] mirrors
/// `Evolution::run` in shape and determinism but streams evaluations instead
/// of stepping generations.
pub struct Pipeline<'a, P: Problem> {
    problem: &'a P,
    config: GpConfig,
}

impl<'a, P: Problem> Pipeline<'a, P> {
    /// Creates an engine for a problem; panics on an invalid configuration.
    pub fn new(problem: &'a P, config: GpConfig) -> Self {
        config.validate();
        Pipeline { problem, config }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &GpConfig {
        &self.config
    }

    /// Runs the pipeline to completion.
    pub fn run(&self, rng: &mut StdRng) -> PipelineOutcome<P::Genome> {
        self.run_with_observer(rng, |_, _| {})
    }

    /// Runs the pipeline, invoking `observer` after the initial population
    /// has been evaluated (iteration 0) and after every completed window.
    /// With `max_iterations = 0` the run returns the scored initial
    /// population, like the generational loop.
    pub fn run_with_observer<F>(
        &self,
        rng: &mut StdRng,
        mut observer: F,
    ) -> PipelineOutcome<P::Genome>
    where
        F: FnMut(&IterationStats, &Population<P::Genome>),
    {
        let config = &self.config;
        let mut start = Instant::now();
        let timers = PhaseAccumulator::new();
        let mut population = start_population(self.problem, config, rng);
        let mut history = Vec::with_capacity(config.max_iterations + 1);
        let mut record = |iteration: usize, population: &Population<P::Genome>| {
            let own = Some(timers.snapshot());
            let stats = IterationStats::capture(self.problem, iteration, population, &start, own);
            let observing = Instant::now();
            observer(&stats, population);
            start += observing.elapsed();
            history.push(stats);
        };
        record(0, &population);

        let budget = config.population_size * config.max_iterations;
        let window = config.population_size;
        let lookahead = LOOKAHEAD.min(config.population_size);
        let evaluators = resolve_threads(config.threads).max(1);
        let mut windows = 0usize;
        let mut bred = 0usize;
        let mut stopped = budget > 0 && reached_target(&population, config);
        let steady_start = Instant::now();
        if budget > 0 && !stopped {
            // Victim draws come from their own stream so the breeding
            // sequence and the replacement sequence cannot interleave
            // differently between runs.
            let mut replace_rng = StdRng::seed_from_u64(rng.gen());
            std::thread::scope(|scope| {
                // Work channel capacity covers the full lookahead so the
                // coordinator's sends only block when every in-flight slot is
                // genuinely queued; results are unbounded (at most
                // lookahead + 1 are ever outstanding).
                let (work_tx, work_rx) = channel::bounded::<(u64, P::Genome)>(lookahead + 1);
                let (result_tx, result_rx) = mpsc::channel::<Scored<P::Genome>>();
                for _ in 0..evaluators {
                    let (work, results) = (work_rx.clone(), result_tx.clone());
                    let timers = &timers;
                    scope.spawn(move || evaluate_until_closed(self.problem, work, results, timers));
                }
                drop(work_rx);
                drop(result_tx);

                // Results that finished out of order, held until their
                // sequence number comes up.
                let mut reorder: BTreeMap<u64, Individual<P::Genome>> = BTreeMap::new();
                // Folds the result of offspring `folds`; returns whether it
                // closed a window on which the stop condition holds.
                let mut fold_next = |population: &mut Population<P::Genome>, folds: &mut usize| {
                    let offspring = loop {
                        if let Some(offspring) = reorder.remove(&(*folds as u64)) {
                            break offspring;
                        }
                        let (seq, offspring) = result_rx
                            .recv()
                            .expect("evaluator workers exited prematurely");
                        reorder.insert(seq, offspring);
                    };
                    let victim = reverse_tournament_select(
                        population.individuals(),
                        config.tournament_size,
                        &mut replace_rng,
                    );
                    if offspring.fitness() >= population.individuals()[victim].fitness() {
                        population.replace(victim, offspring);
                    }
                    *folds += 1;
                    if !folds.is_multiple_of(window) {
                        return false;
                    }
                    windows += 1;
                    record(windows, population);
                    reached_target(population, config)
                };

                let mut folds = 0usize;
                while bred < budget && !stopped {
                    // breed offspring `bred` from the current population
                    // (which lags the fold frontier by at most `lookahead`)
                    let mut stream = StdRng::seed_from_u64(rng.gen());
                    let offspring = breed_offspring(
                        self.problem,
                        population.individuals(),
                        config.tournament_size,
                        config.mutation_probability,
                        &mut stream,
                    );
                    if work_tx.send((bred as u64, offspring)).is_err() {
                        break; // every evaluator died — nothing left to do
                    }
                    bred += 1;
                    // fold the result of offspring `bred - 1 - lookahead`
                    if bred > lookahead {
                        stopped = fold_next(&mut population, &mut folds);
                    }
                }
                drop(work_tx); // close: workers drain the queue and exit

                // drain the in-flight tail (unless stopping discarded it)
                while !stopped && folds < bred {
                    stopped = fold_next(&mut population, &mut folds);
                }
            });
        }
        let wall_s = steady_start.elapsed().as_secs_f64();
        let own = timers.snapshot();
        PipelineOutcome {
            result: EvolutionResult::new(
                population,
                history,
                windows,
                stopped,
                config.stop_f_measure,
            ),
            report: PipelineReport {
                evaluations: bred,
                wall_s,
                busy_s: own.busy_s(),
                idle_s: own.idle_s,
                evaluators,
            },
        }
    }
}

/// An evaluated offspring tagged with its breeding sequence number.
type Scored<G> = (u64, Individual<G>);

/// One evaluator worker: scores the genomes it receives until the work
/// channel closes, timing its waits as idle and its evaluations as score.
fn evaluate_until_closed<P: Problem>(
    problem: &P,
    work: channel::Receiver<(u64, P::Genome)>,
    results: mpsc::Sender<Scored<P::Genome>>,
    timers: &PhaseAccumulator,
) {
    loop {
        let wait = Instant::now();
        let next = work.recv();
        timers.add_idle(wait.elapsed());
        let Some((seq, genome)) = next else {
            return;
        };
        let busy = Instant::now();
        let evaluation = problem.evaluate(&genome);
        timers.add_score(busy.elapsed());
        if results
            .send((seq, Individual::new(genome, evaluation)))
            .is_err()
        {
            return; // collector stopped listening (early stop)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{genomes, rng, TargetVector};
    use crate::Evolution;

    fn config(population: usize, max_iterations: usize) -> GpConfig {
        GpConfig {
            population_size: population,
            max_iterations,
            stop_f_measure: 2.0, // never reached unless a test lowers it
            threads: 1,
            ..GpConfig::default()
        }
    }

    /// Runs `config` at 1, 2, 4 and 7 evaluators and asserts every run walks
    /// the same trajectory and ends in the same population.
    fn assert_evaluator_invariant(problem: &TargetVector, base: GpConfig, seed: u64) {
        let reference = Pipeline::new(problem, base).run(&mut rng(seed));
        for threads in [2, 4, 7] {
            let parallel = GpConfig { threads, ..base };
            let outcome = Pipeline::new(problem, parallel).run(&mut rng(seed));
            assert_eq!(reference.result.history.len(), outcome.result.history.len());
            for (a, b) in reference
                .result
                .history
                .iter()
                .zip(outcome.result.history.iter())
            {
                assert_eq!(a.best_fitness, b.best_fitness, "evaluators={threads}");
                assert_eq!(a.mean_fitness, b.mean_fitness, "evaluators={threads}");
            }
            assert_eq!(reference.result.best.genome, outcome.result.best.genome);
            assert_eq!(
                genomes(&reference.result),
                genomes(&outcome.result),
                "evaluators={threads}"
            );
            assert_eq!(reference.report.evaluations, outcome.report.evaluations);
        }
    }

    #[test]
    fn steady_state_improves_fitness() {
        let problem = TargetVector {
            target: vec![3, 7, 1, 9, 4],
        };
        let outcome = Pipeline::new(&problem, config(60, 30)).run(&mut rng(11));
        let initial = outcome.result.history.first().unwrap().best_fitness;
        let final_ = outcome.result.history.last().unwrap().best_fitness;
        assert!(final_ >= initial);
        assert!(final_ > 0.9, "final fitness was {final_}");
        assert_eq!(outcome.result.population.len(), 60);
        assert_eq!(outcome.report.evaluations, 60 * 30);
    }

    #[test]
    fn elapsed_time_excludes_the_observer() {
        let problem = TargetVector { target: vec![1, 2] };
        let mut last = f64::NAN;
        Pipeline::new(&problem, config(10, 3)).run_with_observer(&mut rng(1), |stats, _| {
            last = stats.elapsed_seconds;
            std::thread::sleep(std::time::Duration::from_millis(100));
        });
        assert!(
            last < 0.1,
            "{last} s counted after three 100 ms observer calls"
        );
    }

    #[test]
    fn pipeline_is_bit_identical_across_evaluator_counts() {
        let problem = TargetVector { target: vec![2; 8] };
        assert_evaluator_invariant(&problem, config(50, 8), 9);
    }

    #[test]
    fn a_population_below_the_lookahead_spends_its_budget_at_any_evaluator_count() {
        // 8 individuals clamp the lookahead to 8: every fold of the first
        // window drains offspring bred from the starting population
        let problem = TargetVector {
            target: vec![1, 8, 3],
        };
        let small = config(8, 10);
        let outcome = Pipeline::new(&problem, small).run(&mut rng(4));
        assert_eq!(outcome.report.evaluations, 8 * 10);
        assert_eq!(outcome.result.iterations, 10);
        assert_eq!(outcome.result.history.len(), 11);
        assert_eq!(outcome.result.population.len(), 8);
        assert_evaluator_invariant(&problem, small, 4);
    }

    #[test]
    fn replacement_never_degrades_the_best() {
        let problem = TargetVector {
            target: vec![4, 4, 4, 4],
        };
        let outcome = Pipeline::new(&problem, config(30, 12)).run(&mut rng(5));
        let mut best_so_far = f64::MIN;
        for stats in &outcome.result.history {
            assert!(
                stats.best_fitness >= best_so_far - 1e-12,
                "best fitness regressed: {} < {best_so_far}",
                stats.best_fitness
            );
            best_so_far = best_so_far.max(stats.best_fitness);
        }
    }

    #[test]
    fn windows_mark_boundaries() {
        let problem = TargetVector {
            target: vec![1, 2, 3],
        };
        let mut seen = Vec::new();
        let outcome = Pipeline::new(&problem, config(20, 5)).run_with_observer(
            &mut rng(1),
            |stats, population| {
                seen.push(stats.iteration);
                assert_eq!(population.len(), 20);
            },
        );
        // one stats entry per completed window plus the initial snapshot
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(outcome.result.iterations, 5);
        // phase timers flow into the history (idle is measured even when
        // score is nearly instant)
        assert!(outcome.result.history.last().unwrap().phases.is_some());
    }

    #[test]
    fn stop_condition_halts_and_discards_in_flight_work() {
        let problem = TargetVector { target: vec![5, 5] };
        let mut config = config(80, 200);
        config.stop_f_measure = 1.0;
        let outcome = Pipeline::new(&problem, config).run(&mut rng(3));
        assert!(outcome.result.stopped_early);
        assert!(outcome.report.evaluations < 80 * 200);
        assert_eq!(outcome.result.best.evaluation.f_measure, 1.0);
    }

    #[test]
    fn from_gp_matches_the_generational_budget() {
        let problem = TargetVector { target: vec![7; 3] };
        let gp = GpConfig {
            population_size: 24,
            max_iterations: 6,
            stop_f_measure: 2.0,
            threads: 1,
            ..GpConfig::default()
        };
        let outcome = Pipeline::new(&problem, gp).run(&mut rng(2));
        // population × max_iterations evaluations, one window per population
        assert_eq!(outcome.report.evaluations, 24 * 6);
        assert_eq!(outcome.result.iterations, 6);
        assert_eq!(outcome.report.evaluators, 1);
    }

    #[test]
    fn zero_iterations_return_the_scored_start_population_on_both_engines() {
        let problem = TargetVector { target: vec![3; 4] };
        let config = config(12, 0);
        let generational = Evolution::new(&problem, config).run(&mut rng(8));
        let steady = Pipeline::new(&problem, config).run(&mut rng(8));
        for result in [&generational, &steady.result] {
            assert_eq!(result.population.len(), 12);
            assert_eq!(result.iterations, 0);
            assert_eq!(result.history.len(), 1);
            assert!(!result.stopped_early);
        }
        // one seed, one start: both engines return the same scored population
        assert_eq!(genomes(&generational), genomes(&steady.result));
        assert_eq!(
            generational.history[0].mean_fitness,
            steady.result.history[0].mean_fitness
        );
        assert_eq!(steady.report.evaluations, 0);
    }
}
