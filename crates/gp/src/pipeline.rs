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
//! into the live population one at a time under a replacement rule.
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
//!   population, then fold the result of offspring `n − L` (`L` =
//!   [`PipelineConfig::lookahead`]).  A reorder buffer holds results that
//!   finished out of order until their sequence number comes up.
//! * Therefore the population state at breed(`n`) is always "after folds
//!   `0 ‥ n−1−L`" — a pure function of the seed, never of scheduling.  Up to
//!   `L + 1` offspring are in flight through the evaluators at once; the
//!   evaluators' only effect on the trajectory is *when* results become
//!   available, never *which* population an offspring was bred from.
//! * Breeding draws a per-offspring RNG stream seed from the master RNG
//!   (exactly like the generational engine); replacement draws come from a
//!   separate stream seeded by one master draw, so the two sequences cannot
//!   interleave differently across runs.
//!
//! The cost of determinism is bounded staleness: offspring `n` is bred from
//! a population that lags the "fold frontier" by at most `L` folds.  That is
//! the same currency generational evolution pays (a whole generation of
//! staleness) — here the lag is smaller and tunable.
//!
//! # Windows
//!
//! Without generations there are no natural reporting or resource-scoping
//! boundaries, so the pipeline manufactures them: every
//! [`PipelineConfig::window`] folds it calls [`Problem::on_window`], snapshots
//! an [`IterationStats`] and checks the stop condition.  With the default
//! window of one population size, a window is the moral equivalent of a
//! generation and the learning-curve history stays comparable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Instant;

use linkdisc_util::channel;

use crate::evolution::{breed_offspring, PhaseAccumulator, PhaseTimers};
use crate::population::{Evaluated, Individual, Population};
use crate::selection::reverse_tournament_select;
use crate::{resolve_threads, EvolutionResult, GpConfig, IterationStats, Problem};

/// Lookahead used when [`PipelineConfig::lookahead`] is 0 (derived).  A
/// constant — never a function of the evaluator count — so that changing the
/// evaluator count cannot change the trajectory.
const DEFAULT_LOOKAHEAD: usize = 16;

/// How a scored offspring is folded back into the population.  In either
/// case the offspring only displaces the victim if its fitness is at least
/// the victim's, so the population never gets worse and the best individual
/// is implicitly elitist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Displace the globally least-fit member (ties → lowest index).
    /// Strongest selection pressure; no RNG draws.
    Worst,
    /// Displace the least fit of `k` uniformly drawn members (reverse
    /// tournament) — the replacement mirror of tournament selection, keeping
    /// selection pressure comparable to the generational engine's.
    WorstOfTournament(usize),
}

/// Parameters of the steady-state pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Number of individuals in the live population.
    pub population_size: usize,
    /// Total fitness evaluations to spend (the steady-state analogue of
    /// `population_size × max_iterations`).
    pub evaluations: usize,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// Probability of headless-chicken mutation per offspring.
    pub mutation_probability: f64,
    /// Stop as soon as one individual reaches this F-measure (checked at
    /// window boundaries).
    pub stop_f_measure: f64,
    /// Replacement rule for folding scored offspring back in.
    pub replacement: Replacement,
    /// Maximum number of offspring in flight through the evaluators: the
    /// result of offspring `n` is folded after offspring `n + lookahead` is
    /// bred.  `0` derives a fixed default (16, clamped to the population
    /// size) — deliberately **not** a function of the evaluator count, which
    /// would break bit-identity across evaluator counts.
    pub lookahead: usize,
    /// Folds between window boundaries (stats snapshot, stop check,
    /// [`Problem::on_window`]).  `0` derives the population size, making a
    /// window the moral equivalent of a generation.
    pub window: usize,
    /// Number of evaluator worker threads (0 = all cores).  Changing this
    /// changes throughput, never the trajectory.
    pub evaluators: usize,
}

impl PipelineConfig {
    /// Derives a pipeline configuration spending the same evaluation budget
    /// as a generational run of `config`: `population_size ×
    /// max_iterations` evaluations, the same tournament size, mutation
    /// probability and stop condition, reverse-tournament replacement of the
    /// same size, and derived lookahead/window defaults.
    pub fn from_gp(config: &GpConfig) -> Self {
        PipelineConfig {
            population_size: config.population_size,
            evaluations: config.population_size * config.max_iterations,
            tournament_size: config.tournament_size,
            mutation_probability: config.mutation_probability,
            stop_f_measure: config.stop_f_measure,
            replacement: Replacement::WorstOfTournament(config.tournament_size),
            lookahead: 0,
            window: 0,
            evaluators: config.threads,
        }
    }

    /// Validates the configuration, panicking with a clear message on
    /// nonsensical parameters.  Called by [`Pipeline::new`].
    pub fn validate(&self) {
        assert!(self.population_size > 0, "population_size must be positive");
        assert!(self.evaluations > 0, "evaluations must be positive");
        assert!(self.tournament_size > 0, "tournament_size must be positive");
        assert!(
            (0.0..=1.0).contains(&self.mutation_probability),
            "mutation_probability must lie in [0, 1]"
        );
        if let Replacement::WorstOfTournament(k) = self.replacement {
            assert!(k > 0, "replacement tournament size must be positive");
        }
    }

    pub(crate) fn effective_lookahead(&self) -> usize {
        if self.lookahead == 0 {
            DEFAULT_LOOKAHEAD.min(self.population_size)
        } else {
            self.lookahead
        }
    }

    pub(crate) fn effective_window(&self) -> usize {
        if self.window == 0 {
            self.population_size
        } else {
            self.window
        }
    }
}

/// Throughput report of a pipeline run, alongside the quality result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Fitness evaluations actually dispatched (≤ the configured budget when
    /// the stop condition fired).
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

/// What one [`Pipeline::advance`] call did.
pub(crate) struct AdvanceOutcome {
    /// Offspring bred and dispatched (evaluations spent).
    pub evaluations: usize,
    /// Results folded back into the population (< `evaluations` when the
    /// stop condition discarded in-flight offspring).
    pub folds: usize,
    /// Whether a window boundary requested a stop.
    pub stopped: bool,
}

/// The steady-state evolution engine.  Construct with the same problem as
/// [`crate::Evolution`]; [`Pipeline::run`] mirrors `Evolution::run` in shape
/// and determinism but streams evaluations instead of stepping generations.
pub struct Pipeline<'a, P: Problem> {
    problem: &'a P,
    config: PipelineConfig,
}

impl<'a, P: Problem> Pipeline<'a, P> {
    /// Creates an engine for a problem; panics on an invalid configuration.
    pub fn new(problem: &'a P, config: PipelineConfig) -> Self {
        config.validate();
        Pipeline { problem, config }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the pipeline to completion.
    pub fn run(&self, rng: &mut StdRng) -> PipelineOutcome<P::Genome> {
        self.run_with_observer(rng, |_, _| {})
    }

    /// Runs the pipeline, invoking `observer` after the initial population
    /// has been evaluated (iteration 0) and after every completed window.
    pub fn run_with_observer<F>(
        &self,
        rng: &mut StdRng,
        mut observer: F,
    ) -> PipelineOutcome<P::Genome>
    where
        F: FnMut(&IterationStats, &Population<P::Genome>),
    {
        let start = Instant::now();
        let timers = PhaseAccumulator::new();
        let genomes = self
            .problem
            .initial_population(self.config.population_size, rng);
        let evaluations = self
            .problem
            .evaluate_batch(&genomes, self.config.evaluators);
        assert_eq!(
            evaluations.len(),
            genomes.len(),
            "evaluate_batch must return one evaluation per genome"
        );
        let mut population = Population::new(
            genomes
                .into_iter()
                .zip(evaluations)
                .map(|(genome, evaluation)| Individual::new(genome, evaluation))
                .collect(),
        );

        let mut history = Vec::new();
        let stats = self.stats(0, &population, &start, &timers);
        observer(&stats, &population);
        history.push(stats);

        let mut windows = 0usize;
        let mut stopped_early = self.reached_target(&population);
        let mut spent = 0usize;
        let steady_start = Instant::now();
        if !stopped_early {
            let outcome = self.advance(
                &mut population,
                rng,
                self.config.evaluations,
                &timers,
                0,
                |population| {
                    windows += 1;
                    let stats = self.stats(windows, population, &start, &timers);
                    observer(&stats, population);
                    history.push(stats);
                    self.reached_target(population)
                },
            );
            spent = outcome.evaluations;
            stopped_early = outcome.stopped;
        }
        let wall_s = steady_start.elapsed().as_secs_f64();

        let best = population
            .best()
            .cloned()
            .expect("population is never empty");
        let own = timers.snapshot();
        PipelineOutcome {
            result: EvolutionResult {
                best,
                population,
                history,
                iterations: windows,
                stopped_early,
            },
            report: PipelineReport {
                evaluations: spent,
                wall_s,
                busy_s: own.busy_s(),
                idle_s: own.idle_s,
                evaluators: resolve_threads(self.config.evaluators).max(1),
            },
        }
    }

    /// Runs `evaluations` steady-state folds against an existing evaluated
    /// population — the resumable core shared by [`Pipeline::run`] and the
    /// island model (which advances each island one migration epoch at a
    /// time).
    ///
    /// `fold_base` is the number of folds this population has already
    /// absorbed in earlier calls, keeping window boundaries aligned across
    /// calls.  `on_boundary` runs at every window boundary (after
    /// [`Problem::on_window`]) and returns `true` to stop; in-flight
    /// offspring are then discarded (deterministically — the stop decision
    /// itself only depends on fold order).
    pub(crate) fn advance<F>(
        &self,
        population: &mut Population<P::Genome>,
        rng: &mut StdRng,
        evaluations: usize,
        timers: &PhaseAccumulator,
        fold_base: usize,
        mut on_boundary: F,
    ) -> AdvanceOutcome
    where
        F: FnMut(&Population<P::Genome>) -> bool,
    {
        if evaluations == 0 {
            return AdvanceOutcome {
                evaluations: 0,
                folds: 0,
                stopped: false,
            };
        }
        // Replacement draws come from their own stream so the breeding
        // sequence and the replacement sequence cannot interleave
        // differently between runs.
        let mut replace_rng = StdRng::seed_from_u64(rng.gen());
        let lookahead = self.config.effective_lookahead();
        let window = self.config.effective_window();
        let evaluators = resolve_threads(self.config.evaluators).max(1);

        std::thread::scope(|scope| {
            // Work channel capacity covers the full lookahead so the
            // coordinator's sends only block when every in-flight slot is
            // genuinely queued; results are unbounded (at most lookahead + 1
            // are ever outstanding).
            let (work_tx, work_rx) = channel::bounded::<(u64, P::Genome)>(lookahead + 1);
            let (result_tx, result_rx) = mpsc::channel::<(u64, P::Genome, Evaluated)>();
            for _ in 0..evaluators {
                let work_rx = work_rx.clone();
                let result_tx = result_tx.clone();
                let problem = self.problem;
                scope.spawn(move || loop {
                    let wait = Instant::now();
                    let Some((seq, genome)) = work_rx.recv() else {
                        timers.add_idle(wait.elapsed());
                        break;
                    };
                    timers.add_idle(wait.elapsed());
                    let busy = Instant::now();
                    let evaluation = problem.evaluate(&genome);
                    timers.add_score(busy.elapsed());
                    if result_tx.send((seq, genome, evaluation)).is_err() {
                        break; // collector stopped listening (early stop)
                    }
                });
            }
            drop(work_rx);
            drop(result_tx);

            // Results that finished out of order, held until their sequence
            // number comes up.
            let mut reorder: BTreeMap<u64, (P::Genome, Evaluated)> = BTreeMap::new();
            let take = |reorder: &mut BTreeMap<u64, (P::Genome, Evaluated)>, seq: u64| loop {
                if let Some(result) = reorder.remove(&seq) {
                    return result;
                }
                let (s, genome, evaluation) = result_rx
                    .recv()
                    .expect("evaluator workers exited prematurely");
                reorder.insert(s, (genome, evaluation));
            };

            let mut bred = 0usize;
            let mut folds = 0usize;
            let mut stopped = false;
            let fold = |population: &mut Population<P::Genome>,
                        genome: P::Genome,
                        evaluation: Evaluated,
                        replace_rng: &mut StdRng,
                        folds: &mut usize| {
                let victim = match self.config.replacement {
                    Replacement::Worst => population
                        .individuals()
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.fitness().total_cmp(&b.1.fitness()))
                        .map(|(index, _)| index)
                        .expect("population is never empty"),
                    Replacement::WorstOfTournament(k) => {
                        reverse_tournament_select(population.individuals(), k, replace_rng)
                    }
                };
                if evaluation.fitness >= population.individuals()[victim].fitness() {
                    population.replace(victim, Individual::new(genome, evaluation));
                }
                *folds += 1;
                if (fold_base + *folds).is_multiple_of(window) {
                    self.problem.on_window();
                    return true; // boundary reached
                }
                false
            };

            while bred < evaluations && !stopped {
                // breed offspring `bred` from the current population (which
                // lags the fold frontier by at most `lookahead`)
                let seed: u64 = rng.gen();
                let mut stream = StdRng::seed_from_u64(seed);
                let offspring = breed_offspring(
                    self.problem,
                    population.individuals(),
                    self.config.tournament_size,
                    self.config.mutation_probability,
                    &mut stream,
                );
                if work_tx.send((bred as u64, offspring)).is_err() {
                    break; // every evaluator died — nothing left to do
                }
                bred += 1;
                // fold the result of offspring `bred - 1 - lookahead`
                if bred > lookahead {
                    let (genome, evaluation) = take(&mut reorder, folds as u64);
                    if fold(population, genome, evaluation, &mut replace_rng, &mut folds)
                        && on_boundary(population)
                    {
                        stopped = true;
                    }
                }
            }
            drop(work_tx); // close: workers drain the queue and exit

            // drain the in-flight tail (unless stopping discarded it)
            while !stopped && folds < bred {
                let (genome, evaluation) = take(&mut reorder, folds as u64);
                if fold(population, genome, evaluation, &mut replace_rng, &mut folds)
                    && on_boundary(population)
                {
                    stopped = true;
                }
            }

            AdvanceOutcome {
                evaluations: bred,
                folds,
                stopped,
            }
        })
    }

    pub(crate) fn reached_target(&self, population: &Population<P::Genome>) -> bool {
        population
            .best_by_f_measure()
            .map(|i| i.evaluation.f_measure >= self.config.stop_f_measure)
            .unwrap_or(false)
    }

    pub(crate) fn stats(
        &self,
        iteration: usize,
        population: &Population<P::Genome>,
        start: &Instant,
        timers: &PhaseAccumulator,
    ) -> IterationStats {
        let own = timers.snapshot();
        // the problem times compile/index/score inside its evaluation; the
        // pipeline only adds what the problem cannot see — worker idle time
        let phases = match self.problem.phase_timers() {
            Some(mut problem_timers) => {
                problem_timers.idle_s += own.idle_s;
                Some(problem_timers)
            }
            None => Some(PhaseTimers {
                idle_s: own.idle_s,
                score_s: own.score_s,
                ..PhaseTimers::default()
            }),
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
            cache: self.problem.cache_stats(),
            phases,
            eval: self.problem.eval_counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The toy problem from the generational tests: integer-vector genomes,
    /// fitness = negated distance to a target, uniform recombination — plus
    /// an `on_window` call counter to observe window boundaries.
    struct TargetVector {
        target: Vec<i32>,
        windows: AtomicUsize,
    }

    impl TargetVector {
        fn new(target: Vec<i32>) -> Self {
            TargetVector {
                target,
                windows: AtomicUsize::new(0),
            }
        }
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

        fn on_window(&self) {
            self.windows.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn config(population: usize, evaluations: usize) -> PipelineConfig {
        PipelineConfig {
            population_size: population,
            evaluations,
            tournament_size: 5,
            mutation_probability: 0.25,
            stop_f_measure: 2.0, // never reached unless a test lowers it
            replacement: Replacement::WorstOfTournament(5),
            lookahead: 0,
            window: 0,
            evaluators: 1,
        }
    }

    #[test]
    fn steady_state_improves_fitness() {
        let problem = TargetVector::new(vec![3, 7, 1, 9, 4]);
        let outcome = Pipeline::new(&problem, config(60, 60 * 30)).run(&mut rng(11));
        let initial = outcome.result.history.first().unwrap().best_fitness;
        let final_ = outcome.result.history.last().unwrap().best_fitness;
        assert!(final_ >= initial);
        assert!(final_ > 0.9, "final fitness was {final_}");
        assert_eq!(outcome.result.population.len(), 60);
        assert_eq!(outcome.report.evaluations, 60 * 30);
    }

    #[test]
    fn pipeline_is_bit_identical_across_evaluator_counts() {
        let problem = TargetVector::new(vec![2; 8]);
        let base = config(50, 50 * 8);
        let reference = Pipeline::new(&problem, base).run(&mut rng(9));
        for evaluators in [2, 4, 7] {
            let parallel = PipelineConfig { evaluators, ..base };
            let outcome = Pipeline::new(&problem, parallel).run(&mut rng(9));
            assert_eq!(reference.result.history.len(), outcome.result.history.len());
            for (a, b) in reference
                .result
                .history
                .iter()
                .zip(outcome.result.history.iter())
            {
                assert_eq!(a.best_fitness, b.best_fitness, "evaluators={evaluators}");
                assert_eq!(a.mean_fitness, b.mean_fitness, "evaluators={evaluators}");
            }
            assert_eq!(reference.result.best.genome, outcome.result.best.genome);
            let genomes = |r: &EvolutionResult<Vec<i32>>| -> Vec<Vec<i32>> {
                r.population
                    .individuals()
                    .iter()
                    .map(|i| i.genome.clone())
                    .collect()
            };
            assert_eq!(
                genomes(&reference.result),
                genomes(&outcome.result),
                "evaluators={evaluators}"
            );
        }
    }

    #[test]
    fn replacement_never_degrades_the_best() {
        let problem = TargetVector::new(vec![4, 4, 4, 4]);
        let outcome = Pipeline::new(&problem, config(30, 30 * 12)).run(&mut rng(5));
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
    fn windows_mark_boundaries_and_call_on_window() {
        let problem = TargetVector::new(vec![1, 2, 3]);
        let mut seen = Vec::new();
        let outcome = Pipeline::new(&problem, config(20, 20 * 5)).run_with_observer(
            &mut rng(1),
            |stats, population| {
                seen.push(stats.iteration);
                assert_eq!(population.len(), 20);
            },
        );
        // one stats entry per completed window plus the initial snapshot
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(outcome.result.iterations, 5);
        assert_eq!(problem.windows.load(Ordering::Relaxed), 5);
        // phase timers flow into the history (idle is measured even when
        // score is nearly instant)
        assert!(outcome.result.history.last().unwrap().phases.is_some());
    }

    #[test]
    fn stop_condition_halts_and_discards_in_flight_work() {
        let problem = TargetVector::new(vec![5, 5]);
        let mut config = config(80, 80 * 200);
        config.stop_f_measure = 1.0;
        let outcome = Pipeline::new(&problem, config).run(&mut rng(3));
        assert!(outcome.result.stopped_early);
        assert!(outcome.report.evaluations < 80 * 200);
        assert_eq!(outcome.result.best.evaluation.f_measure, 1.0);
    }

    #[test]
    fn explicit_lookahead_and_window_are_honoured() {
        let problem = TargetVector::new(vec![6; 4]);
        let mut small = config(24, 120);
        small.lookahead = 3;
        small.window = 40;
        let outcome = Pipeline::new(&problem, small).run(&mut rng(21));
        // 120 folds / window 40 = 3 boundaries + initial snapshot
        assert_eq!(outcome.result.history.len(), 4);
        assert_eq!(problem.windows.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn from_gp_matches_the_generational_budget() {
        let gp = GpConfig {
            population_size: 120,
            max_iterations: 25,
            ..GpConfig::default()
        };
        let derived = PipelineConfig::from_gp(&gp);
        derived.validate();
        assert_eq!(derived.evaluations, 120 * 25);
        assert_eq!(derived.population_size, 120);
        assert_eq!(
            derived.replacement,
            Replacement::WorstOfTournament(gp.tournament_size)
        );
        assert_eq!(derived.effective_window(), 120);
    }

    #[test]
    #[should_panic(expected = "evaluations")]
    fn zero_budget_is_rejected() {
        let problem = TargetVector::new(vec![1]);
        let _ = Pipeline::new(&problem, config(10, 0));
    }
}
