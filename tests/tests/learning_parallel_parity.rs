//! Parallel-learning determinism: the same seed, data and configuration
//! produce the same `LearnOutcome` at every thread count.
//!
//! The evolution loop breeds each offspring from its own RNG stream (seeded
//! by one master-RNG draw) and scores generations through an
//! order-preserving batch evaluator, so neither breeding nor evaluation can
//! observe thread scheduling.  These tests pin that guarantee end-to-end
//! through the GenLink learner on a real dataset, across sequential (1),
//! parallel (2, 4) and oversubscribed (host cores + 3) configurations.

use genlink::{GenLink, GenLinkConfig, LearnOutcome, LearningMode, SteadyStateConfig};
use linkdisc_datasets::DatasetKind;

fn parity_config(threads: usize) -> GenLinkConfig {
    let mut config = GenLinkConfig::fast();
    config.gp.population_size = 60;
    config.gp.max_iterations = 8;
    // never stop early: every run executes the same number of generations
    // even if a perfect rule appears, exercising elitism + cache interplay
    config.gp.stop_f_measure = 2.0;
    config.gp.threads = threads;
    config
}

/// One iteration's semantic statistics, bit-exact (fitness and F-measure
/// fields as raw bits).
type IterationPrint = (usize, u64, u64, u64, u64);

/// Everything observable about a learning run except wall-clock times and
/// the cache occupancy counters that legitimately depend on interleaving
/// (concurrent value-cache misses may both compute; the *results* cannot
/// differ, only the bookkeeping).
fn fingerprint(outcome: &LearnOutcome) -> (String, Vec<IterationPrint>, usize, bool) {
    let history = outcome
        .history
        .iter()
        .map(|stats| {
            (
                stats.iteration,
                stats.best_fitness.to_bits(),
                stats.mean_fitness.to_bits(),
                stats.best_f_measure.to_bits(),
                stats.mean_f_measure.to_bits(),
            )
        })
        .collect();
    (
        format!("{:?}", outcome.rule),
        history,
        outcome.iterations,
        outcome.stopped_early,
    )
}

#[test]
fn learning_is_bit_identical_across_thread_counts() {
    let dataset = DatasetKind::Restaurant.generate(0.25, 7);
    let oversubscribed = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        + 3;
    let mut reference = None;
    for threads in [1, 2, 4, oversubscribed] {
        let outcome = GenLink::new(parity_config(threads)).learn(
            &dataset.source,
            &dataset.target,
            &dataset.links,
            42,
        );
        assert_eq!(
            outcome.history.len(),
            9,
            "iteration 0 plus 8 generations at {threads} threads"
        );
        let print = fingerprint(&outcome);
        match &reference {
            None => reference = Some(print),
            Some(expected) => {
                assert_eq!(
                    expected.0, print.0,
                    "learned rule diverged at {threads} threads"
                );
                assert_eq!(
                    expected.1, print.1,
                    "iteration history diverged at {threads} threads"
                );
                assert_eq!(expected.2, print.2);
                assert_eq!(expected.3, print.3);
            }
        }
    }
}

#[test]
fn steady_state_learning_is_bit_identical_across_evaluator_counts() {
    // same contract as the generational loop, but for the asynchronous
    // pipeline: the coordinator's strict breed/fold schedule makes the
    // trajectory a pure function of the seed at any evaluator count
    let dataset = DatasetKind::Restaurant.generate(0.25, 7);
    let oversubscribed = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        + 3;
    let mut reference = None;
    for threads in [1, 2, 4, oversubscribed] {
        let config = parity_config(threads).steady_state();
        let outcome =
            GenLink::new(config).learn(&dataset.source, &dataset.target, &dataset.links, 42);
        assert_eq!(
            outcome.history.len(),
            9,
            "window 0 plus 8 full windows at {threads} evaluators"
        );
        assert!(
            outcome.pipeline.is_some(),
            "steady-state runs report throughput"
        );
        let print = fingerprint(&outcome);
        match &reference {
            None => reference = Some(print),
            Some(expected) => {
                assert_eq!(
                    expected.0, print.0,
                    "learned rule diverged at {threads} evaluators"
                );
                assert_eq!(
                    expected.1, print.1,
                    "window history diverged at {threads} evaluators"
                );
                assert_eq!(expected.2, print.2);
                assert_eq!(expected.3, print.3);
            }
        }
    }
}

#[test]
fn island_migrant_sequence_is_identical_across_evaluator_counts() {
    let dataset = DatasetKind::Restaurant.generate(0.2, 11);
    let mut reference = None;
    for threads in [1, 3] {
        let mut config = parity_config(threads);
        config.mode = LearningMode::SteadyState(SteadyStateConfig {
            islands: 4,
            migrants: 1,
            ..SteadyStateConfig::default()
        });
        let outcome =
            GenLink::new(config).learn(&dataset.source, &dataset.target, &dataset.links, 13);
        assert!(
            !outcome.migrations.is_empty(),
            "a full island run must migrate"
        );
        // the ring topology is honoured on every logged migration
        for record in &outcome.migrations {
            assert_eq!(record.to, (record.from + 1) % 4);
        }
        let print = (fingerprint(&outcome), outcome.migrations.clone());
        match &reference {
            None => reference = Some(print),
            Some(expected) => {
                assert_eq!(
                    expected.1, print.1,
                    "migrant sequence diverged at {threads} evaluators"
                );
                assert_eq!(
                    expected.0, print.0,
                    "outcome diverged at {threads} evaluators"
                );
            }
        }
    }
}

#[test]
fn deterministic_cache_counters_are_thread_count_invariant() {
    // fitness-cache and distance-memo counters are resolved on one thread per
    // generation by design, so unlike the column memos' they must agree too
    let dataset = DatasetKind::Restaurant.generate(0.2, 3);
    let mut reference = None;
    for threads in [1, 2, 4] {
        let outcome = GenLink::new(parity_config(threads)).learn(
            &dataset.source,
            &dataset.target,
            &dataset.links,
            5,
        );
        let counters: Vec<(u64, u64, u64, u64)> = outcome
            .history
            .iter()
            .map(|stats| {
                let cache = stats.cache.expect("GenLink reports cache stats");
                (
                    cache.fitness_hits,
                    cache.fitness_misses,
                    cache.distance_hits,
                    cache.distance_misses,
                )
            })
            .collect();
        let last = counters.last().expect("non-empty history");
        assert!(last.0 > 0, "elites must hit the fitness cache: {last:?}");
        assert!(
            last.2 > last.3 && last.3 > 0,
            "offspring must score from their parents' distance columns: {last:?}"
        );
        match &reference {
            None => reference = Some(counters),
            Some(expected) => assert_eq!(expected, &counters, "threads={threads}"),
        }
    }
}
