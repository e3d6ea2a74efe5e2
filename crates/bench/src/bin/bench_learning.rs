//! Learning-subsystem benchmark: parallel GP learning, with results emitted
//! to `BENCH_learning.json`.
//!
//! The paper's headline numbers (Tables 7–12) are *learning-time* numbers,
//! so this benchmark gates the learning path the way `bench_serving` gates
//! the serving path.  Measurements over a multi-comparison workload (the
//! restaurant dataset, whose learned rules conjoin name/phone/address
//! comparisons):
//!
//! 1. **Parallel speedup** — one full learning run at 1 thread versus 4
//!    threads (fresh learner and caches per run; fixed iteration count so
//!    both runs do identical work).  Gate (enforced only when the host has
//!    ≥ 4 cores, as CI does): **speedup ≥ 2x**.
//! 2. **Determinism** — the 1-thread and 4-thread runs must learn the
//!    *same rule* with the *same iteration history* (always enforced; this
//!    is the bit-identical-parallelism contract of the evolution loop).
//! 3. **Fitness cost** — `fitness_us_per_rule`: busy microseconds (compile +
//!    bind + score) per distinct rule the 1-thread run evaluated.  Reported,
//!    not gated: it is the number to watch when the evaluator or the
//!    binding of rules to the reference pool changes.
//! 4. **Steady-state pipeline** — the asynchronous pipeline spends the same
//!    evaluation budget as the generational loop.  Gates: the pipeline is
//!    deterministic across evaluator counts (always enforced); its training
//!    F1 lands within 0.05 of the generational run's (always enforced —
//!    quality at equal budget); its evaluation throughput reaches ≥ 1.5x
//!    the generational loop's (enforced only on hosts with ≥ 4 cores,
//!    where the barrier-free schedule can actually overlap work).
//!    Reported either way: evaluations/s, worker utilization and the
//!    per-phase (compile / bind / score / idle) seconds.
//!
//! Also reported: wall-clock per generation at each thread count and the
//! fitness-cache hit rate, for the learning-curve context.
//!
//! Environment: `GENLINK_BENCH_LEARNING_OUT` (output path, default
//! `BENCH_learning.json`).

use std::time::Instant;

use genlink::{GenLink, GenLinkConfig, LearnOutcome};
use linkdisc_datasets::DatasetKind;

const SPEEDUP_GATE: f64 = 2.0;
const PIPELINE_THROUGHPUT_GATE: f64 = 1.5;
const QUALITY_TOLERANCE: f64 = 0.05;
const PARALLEL_THREADS: usize = 4;
const REPETITIONS: usize = 2;
const ITERATIONS: usize = 6;
const SEED: u64 = 42;

fn config(threads: usize) -> GenLinkConfig {
    let mut config = GenLinkConfig::paper();
    config.gp.population_size = 150;
    config.gp.max_iterations = ITERATIONS;
    // fixed work: never stop early, so every run breeds and scores the same
    // number of generations
    config.gp.stop_f_measure = 2.0;
    config.gp.threads = threads;
    config
}

struct Measured {
    outcome: LearnOutcome,
    total_s: f64,
    per_generation_ms: f64,
}

/// Best-of-N learning runs of one configuration (fresh learner and caches
/// per run, so no run inherits another's memoized work).
fn learn(dataset: &linkdisc_datasets::Dataset, configuration: GenLinkConfig) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..REPETITIONS {
        let learner = GenLink::new(configuration.clone());
        let start = Instant::now();
        let outcome = learner.learn(&dataset.source, &dataset.target, &dataset.links, SEED);
        let total_s = start.elapsed().as_secs_f64();
        let generations = outcome.history.len().saturating_sub(1).max(1);
        let run = Measured {
            per_generation_ms: outcome
                .history
                .last()
                .map(|s| s.elapsed_seconds * 1e3 / generations as f64)
                .unwrap_or(0.0),
            outcome,
            total_s,
        };
        if best.as_ref().is_none_or(|b| run.total_s < b.total_s) {
            best = Some(run);
        }
    }
    best.expect("at least one repetition")
}

/// The thread-count-invariant fingerprint of a run: the learned rule and
/// the semantic per-iteration statistics (times excluded).
fn fingerprint(outcome: &LearnOutcome) -> (String, Vec<(u64, u64, u64, u64)>) {
    (
        format!("{:?}", outcome.rule),
        outcome
            .history
            .iter()
            .map(|s| {
                (
                    s.best_fitness.to_bits(),
                    s.mean_fitness.to_bits(),
                    s.best_f_measure.to_bits(),
                    s.mean_f_measure.to_bits(),
                )
            })
            .collect(),
    )
}

fn main() {
    let out_path = std::env::var("GENLINK_BENCH_LEARNING_OUT")
        .unwrap_or_else(|_| "BENCH_learning.json".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("=== learning benchmark ({cores} cores) ===\n");
    let mut failures: Vec<String> = Vec::new();

    let dataset = DatasetKind::Restaurant.generate(1.0, SEED);
    let stats = dataset.statistics();
    println!(
        "workload: restaurant |A|={} |B|={} |R+|={} |R-|={}, population {}, {} iterations\n",
        stats.source_entities,
        stats.target_entities,
        stats.positive_links,
        stats.negative_links,
        config(1).gp.population_size,
        ITERATIONS
    );

    // 1. + 2. parallel speedup with a determinism gate ----------------------
    let sequential = learn(&dataset, config(1));
    let parallel = learn(&dataset, config(PARALLEL_THREADS));
    let speedup = sequential.total_s / parallel.total_s;
    let speedup_enforced = cores >= PARALLEL_THREADS;
    println!("--- parallel learning (best of {REPETITIONS}) ---");
    println!(
        "1 thread:  {:8.2} s total, {:7.1} ms/generation",
        sequential.total_s, sequential.per_generation_ms
    );
    println!(
        "{PARALLEL_THREADS} threads: {:8.2} s total, {:7.1} ms/generation",
        parallel.total_s, parallel.per_generation_ms
    );
    println!(
        "speedup: {speedup:.2}x (gate ≥ {SPEEDUP_GATE}x, {})",
        if speedup_enforced {
            "enforced"
        } else {
            "reported only — host has fewer than 4 cores"
        }
    );
    if speedup_enforced && speedup < SPEEDUP_GATE {
        failures.push(format!(
            "parallel learning speedup {speedup:.2}x < {SPEEDUP_GATE}x on {PARALLEL_THREADS} threads"
        ));
    }
    let identical = fingerprint(&sequential.outcome) == fingerprint(&parallel.outcome);
    println!("bit-identical outcome across thread counts: {identical}");
    if !identical {
        failures.push("parallel run diverged from the sequential run".to_string());
    }
    println!();

    // 3. fitness cost per distinct rule ---------------------------------------
    let last = sequential.outcome.history.last();
    let cache = last.and_then(|s| s.cache).unwrap_or_default();
    let fitness_busy_s = last.and_then(|s| s.phases).unwrap_or_default().busy_s();
    let fitness_us_per_rule = fitness_busy_s * 1e6 / cache.fitness_misses.max(1) as f64;
    println!("--- fitness cost ---");
    println!(
        "{} distinct rules evaluated in {fitness_busy_s:.3} s busy: {fitness_us_per_rule:.1} µs/rule; \
         fitness cache {:.0}% hit rate",
        cache.fitness_misses,
        cache.fitness_hit_rate() * 100.0
    );
    println!();

    // 4. steady-state pipeline ----------------------------------------------
    let steady_seq = learn(&dataset, config(1).steady_state());
    let steady_par = learn(&dataset, config(PARALLEL_THREADS).steady_state());
    let steady_identical = fingerprint(&steady_seq.outcome) == fingerprint(&steady_par.outcome);
    let report = steady_par
        .outcome
        .pipeline
        .expect("steady-state runs report throughput");
    let budget = config(1).gp.population_size * ITERATIONS;
    // generational throughput over the same budget at the same thread count
    let generational_eps = budget as f64 / parallel.total_s;
    let steady_eps = budget as f64 / steady_par.total_s;
    let throughput_ratio = steady_eps / generational_eps;
    let throughput_enforced = cores >= PARALLEL_THREADS;
    let generational_f1 = sequential.outcome.training.f_measure();
    let steady_f1 = steady_seq.outcome.training.f_measure();
    let quality_gap = (generational_f1 - steady_f1).abs();
    let phases = steady_par
        .outcome
        .history
        .last()
        .and_then(|s| s.phases)
        .unwrap_or_default();
    println!("--- steady-state pipeline (same {budget}-evaluation budget) ---");
    println!(
        "1 evaluator:  {:8.2} s total;  {PARALLEL_THREADS} evaluators: {:8.2} s total",
        steady_seq.total_s, steady_par.total_s
    );
    println!(
        "pipeline: {:.0} evals/s, {:.0}% worker utilization; phases: \
         compile {:.2}s, bind {:.2}s, score {:.2}s, idle {:.2}s",
        report.evaluations_per_second(),
        report.utilization() * 100.0,
        phases.compile_s,
        phases.bind_s,
        phases.score_s,
        phases.idle_s
    );
    println!("deterministic across evaluator counts: {steady_identical}");
    if !steady_identical {
        failures.push("steady-state run diverged across evaluator counts".to_string());
    }
    println!(
        "throughput vs generational: {throughput_ratio:.2}x \
         (gate ≥ {PIPELINE_THROUGHPUT_GATE}x, {})",
        if throughput_enforced {
            "enforced"
        } else {
            "reported only — host has fewer than 4 cores"
        }
    );
    if throughput_enforced && throughput_ratio < PIPELINE_THROUGHPUT_GATE {
        failures.push(format!(
            "steady-state throughput {throughput_ratio:.2}x < {PIPELINE_THROUGHPUT_GATE}x \
             the generational loop's"
        ));
    }
    println!(
        "quality at budget: generational F1 {generational_f1:.3}, steady-state F1 {steady_f1:.3} \
         (gap {quality_gap:.3}, gate ≤ {QUALITY_TOLERANCE})"
    );
    if quality_gap > QUALITY_TOLERANCE {
        failures.push(format!(
            "steady-state training F1 {steady_f1:.3} strayed more than {QUALITY_TOLERANCE} \
             from the generational {generational_f1:.3} at the same budget"
        ));
    }
    println!();

    let json = format!(
        "{{\n  \"host_cores\": {cores},\n  \"workload\": {{\n    \"dataset\": \"restaurant\",\n    \"source_entities\": {},\n    \"target_entities\": {},\n    \"positive_links\": {},\n    \"negative_links\": {},\n    \"population\": {},\n    \"iterations\": {ITERATIONS}\n  }},\n  \"parallel_learning\": {{\n    \"learn_t1_s\": {:.3},\n    \"learn_t{PARALLEL_THREADS}_s\": {:.3},\n    \"per_generation_t1_ms\": {:.1},\n    \"per_generation_t{PARALLEL_THREADS}_ms\": {:.1},\n    \"speedup\": {speedup:.2},\n    \"speedup_gate\": {SPEEDUP_GATE},\n    \"gate_enforced\": {speedup_enforced},\n    \"bit_identical\": {identical}\n  }},\n  \"fitness_us_per_rule\": {fitness_us_per_rule:.1},\n  \"fitness_cache\": {{\n    \"hits\": {},\n    \"misses\": {},\n    \"hit_rate\": {:.4}\n  }},\n  \"steady_state\": {{\n    \"budget_evaluations\": {budget},\n    \"learn_t1_s\": {:.3},\n    \"learn_t{PARALLEL_THREADS}_s\": {:.3},\n    \"evaluations_per_second\": {:.1},\n    \"worker_utilization\": {:.4},\n    \"phase_compile_s\": {:.3},\n    \"phase_bind_s\": {:.3},\n    \"phase_score_s\": {:.3},\n    \"phase_idle_s\": {:.3},\n    \"deterministic\": {steady_identical},\n    \"throughput_vs_generational\": {throughput_ratio:.2},\n    \"throughput_gate\": {PIPELINE_THROUGHPUT_GATE},\n    \"throughput_gate_enforced\": {throughput_enforced},\n    \"generational_f1\": {generational_f1:.4},\n    \"steady_state_f1\": {steady_f1:.4},\n    \"quality_gap\": {quality_gap:.4},\n    \"quality_tolerance\": {QUALITY_TOLERANCE}\n  }}\n}}\n",
        stats.source_entities,
        stats.target_entities,
        stats.positive_links,
        stats.negative_links,
        config(1).gp.population_size,
        sequential.total_s,
        parallel.total_s,
        sequential.per_generation_ms,
        parallel.per_generation_ms,
        cache.fitness_hits,
        cache.fitness_misses,
        cache.fitness_hit_rate(),
        steady_seq.total_s,
        steady_par.total_s,
        report.evaluations_per_second(),
        report.utilization(),
        phases.compile_s,
        phases.bind_s,
        phases.score_s,
        phases.idle_s,
    );
    std::fs::write(&out_path, &json).expect("cannot write benchmark output");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    println!("all learning gates passed");
}
