//! Experiment harness: shared machinery for regenerating every table and
//! figure of the paper.
//!
//! Each table/figure has a dedicated binary in `src/bin/` (see DESIGN.md for
//! the experiment index); this library holds the pieces they share:
//!
//! * [`ExperimentSettings`] — scale/run/iteration knobs, read from environment
//!   variables so the same binaries can run a quick smoke configuration or the
//!   full paper-sized configuration,
//! * [`learning_curve`] — the repeated 2-fold cross-validation protocol that
//!   produces the per-iteration "Time / Train F1 / Val F1" rows of Tables
//!   7–12,
//! * `run_carvalho_baseline` — the same protocol for the Carvalho-style GP
//!   baseline,
//! * small table-printing helpers so every binary reports in the paper's
//!   "mean (σ)" format.

#![warn(unreachable_pub)]

use std::collections::BTreeMap;

use genlink::{GenLink, GenLinkConfig};
use linkdisc_baseline::{CarvalhoConfig, CarvalhoLearner};
use linkdisc_datasets::Dataset;
use linkdisc_entity::ReferenceLinks;
use linkdisc_evaluation::{evaluate_rule_on_links, Summary};
use linkdisc_rule::LinkageRule;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Knobs of an experiment run, read from the environment:
///
/// | variable            | meaning                              | default |
/// |----------------------|--------------------------------------|---------|
/// | `GENLINK_SCALE`      | dataset scale (1.0 = paper size)     | 0.15    |
/// | `GENLINK_RUNS`       | cross-validation repetitions         | 2       |
/// | `GENLINK_POPULATION` | GP population size                   | 150     |
/// | `GENLINK_ITERATIONS` | GP iterations                        | 25      |
/// | `GENLINK_SEED`       | base random seed                     | 42      |
///
/// `GENLINK_PAPER=1` switches to the full paper configuration
/// (scale 1.0, 10 runs, population 500, 50 iterations); expect hours of
/// runtime for the complete suite in that mode.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSettings {
    /// Dataset scale relative to the paper's sizes.
    pub scale: f64,
    /// Number of cross-validation repetitions (paper: 10).
    pub runs: usize,
    /// Population size (paper: 500).
    pub population: usize,
    /// Maximum GP iterations (paper: 50).
    pub iterations: usize,
    /// Base random seed.
    pub seed: u64,
}

impl Default for ExperimentSettings {
    fn default() -> Self {
        ExperimentSettings {
            scale: 0.15,
            runs: 2,
            population: 150,
            iterations: 25,
            seed: 42,
        }
    }
}

impl ExperimentSettings {
    /// Reads the settings from the environment (see the type-level table).
    pub fn from_env() -> Self {
        let mut settings = ExperimentSettings::default();
        if std::env::var("GENLINK_PAPER")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            settings = ExperimentSettings {
                scale: 1.0,
                runs: 10,
                population: 500,
                iterations: 50,
                seed: 42,
            };
        }
        let read = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<f64>().ok());
        if let Some(value) = read("GENLINK_SCALE") {
            settings.scale = value;
        }
        if let Some(value) = read("GENLINK_RUNS") {
            settings.runs = value as usize;
        }
        if let Some(value) = read("GENLINK_POPULATION") {
            settings.population = value as usize;
        }
        if let Some(value) = read("GENLINK_ITERATIONS") {
            settings.iterations = value as usize;
        }
        if let Some(value) = read("GENLINK_SEED") {
            settings.seed = value as u64;
        }
        settings
    }

    /// A GenLink configuration with these settings applied on top of the
    /// paper defaults.
    pub fn genlink_config(&self) -> GenLinkConfig {
        let mut config = GenLinkConfig::paper();
        config.gp.population_size = self.population;
        config.gp.max_iterations = self.iterations;
        config
    }

    /// A Carvalho baseline configuration with comparable search effort.
    pub fn carvalho_config(&self) -> CarvalhoConfig {
        let mut config = CarvalhoConfig::default();
        config.gp.population_size = self.population;
        config.gp.max_iterations = self.iterations;
        config
    }

    /// The iteration checkpoints reported in the learning-curve tables.
    pub fn checkpoints(&self) -> Vec<usize> {
        let mut checkpoints: Vec<usize> = [0usize, 1, 5, 10, 20, 25, 30, 40, 50]
            .into_iter()
            .filter(|&c| c <= self.iterations)
            .collect();
        if !checkpoints.contains(&self.iterations) {
            checkpoints.push(self.iterations);
        }
        checkpoints
    }

    /// Prints the settings header every experiment binary starts with.
    pub fn print_header(&self, experiment: &str) {
        println!("=== {experiment} ===");
        println!(
            "settings: scale={}, runs={}x2-fold CV, population={}, iterations={}, seed={}",
            self.scale, self.runs, self.population, self.iterations, self.seed
        );
        println!();
    }
}

/// One checkpoint row of a learning-curve table.
#[derive(Debug, Clone)]
pub struct CurveRow {
    /// Iteration number.
    pub iteration: usize,
    /// Cumulative learning time in seconds.
    pub seconds: Summary,
    /// F-measure of the best rule on the training links.
    pub training_f1: Summary,
    /// F-measure of the best rule on the validation links.
    pub validation_f1: Summary,
    /// Cumulative fitness evaluations answered by the cross-generation
    /// cache up to this iteration (evaluations saved).
    pub evaluations_saved: Summary,
    /// Cumulative fitness-cache hit rate up to this iteration.
    pub cache_hit_rate: Summary,
    /// Cumulative share of the evaluated rules' comparisons scored from a
    /// distance column an earlier rule measured.
    pub distance_hit_rate: Summary,
    /// Cumulative seconds spent compiling rules.
    pub compile_s: Summary,
    /// Cumulative seconds spent getting compiled rules ready to be scored:
    /// value columns for missing distance columns, and measuring those.
    pub bind_s: Summary,
    /// Cumulative seconds spent scoring prepared rules.
    pub score_s: Summary,
    /// Cumulative fraction of comparisons the score-bounded evaluator
    /// skipped (short-circuit rate of the lazy evaluation path).
    pub skip_rate: Summary,
}

/// The outcome of a learning-curve experiment.
#[derive(Debug, Clone)]
pub struct CurveResult {
    /// One row per reported iteration checkpoint.
    pub rows: Vec<CurveRow>,
    /// One example rule that reached the best validation F1 (for Figures 7/8).
    pub best_rule: LinkageRule,
    /// Structural statistics summaries of the final rules (comparisons and
    /// transformations, reported for DBpediaDrugBank in Section 6.2).
    pub final_comparisons: Summary,
    /// Mean number of transformations in the final rules.
    pub final_transformations: Summary,
}

/// Runs the paper's evaluation protocol for GenLink on one dataset:
/// `runs` repetitions of a 2-fold cross validation, recording train/validation
/// F1 of the best rule at every checkpoint iteration.
pub fn learning_curve(
    dataset: &Dataset,
    config: &GenLinkConfig,
    settings: &ExperimentSettings,
) -> CurveResult {
    let checkpoints = settings.checkpoints();
    #[derive(Default)]
    struct CheckpointAccumulator {
        seconds: Vec<f64>,
        training: Vec<f64>,
        validation: Vec<f64>,
        saved: Vec<f64>,
        hit_rate: Vec<f64>,
        distance_hit_rate: Vec<f64>,
        compile: Vec<f64>,
        bind: Vec<f64>,
        score: Vec<f64>,
        skipped: Vec<f64>,
    }
    let mut per_checkpoint: BTreeMap<usize, CheckpointAccumulator> = BTreeMap::new();
    let mut best_rule = LinkageRule::empty();
    let mut best_validation = -1.0f64;
    let mut final_comparisons = Vec::new();
    let mut final_transformations = Vec::new();

    let learner = GenLink::new(config.clone());
    for run in 0..settings.runs {
        let run_seed = settings.seed + run as u64;
        let mut rng = StdRng::seed_from_u64(run_seed);
        let folds = dataset.links.split_folds(2, &mut rng);
        for held_out in 0..folds.len() {
            let train = ReferenceLinks::merge(
                folds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != held_out)
                    .map(|(_, f)| f),
            );
            let validation = &folds[held_out];
            let outcome = learner.learn_with_rule_observer(
                &dataset.source,
                &dataset.target,
                &train,
                run_seed,
                |stats, rule| {
                    if !checkpoints.contains(&stats.iteration) {
                        return;
                    }
                    let train_matrix =
                        evaluate_rule_on_links(rule, &train, &dataset.source, &dataset.target);
                    let val_matrix =
                        evaluate_rule_on_links(rule, validation, &dataset.source, &dataset.target);
                    let entry = per_checkpoint.entry(stats.iteration).or_default();
                    entry.seconds.push(stats.elapsed_seconds);
                    entry.training.push(train_matrix.f_measure());
                    entry.validation.push(val_matrix.f_measure());
                    let cache = stats.cache.unwrap_or_default();
                    entry.saved.push(cache.fitness_hits as f64);
                    entry.hit_rate.push(cache.fitness_hit_rate());
                    entry.distance_hit_rate.push(cache.distance_hit_rate());
                    let phases = stats.phases.unwrap_or_default();
                    entry.compile.push(phases.compile_s);
                    entry.bind.push(phases.bind_s);
                    entry.score.push(phases.score_s);
                    entry
                        .skipped
                        .push(stats.eval.map(|e| e.skip_rate()).unwrap_or(0.0));
                },
            );
            // when the run stops early, later checkpoints keep the final value
            let last_iteration = outcome.history.last().map(|s| s.iteration).unwrap_or(0);
            let last_seconds = outcome
                .history
                .last()
                .map(|s| s.elapsed_seconds)
                .unwrap_or(0.0);
            let last_cache = outcome
                .history
                .last()
                .and_then(|s| s.cache)
                .unwrap_or_default();
            let last_phases = outcome
                .history
                .last()
                .and_then(|s| s.phases)
                .unwrap_or_default();
            let last_skip = outcome
                .history
                .last()
                .and_then(|s| s.eval)
                .map(|e| e.skip_rate())
                .unwrap_or(0.0);
            let final_train =
                evaluate_rule_on_links(&outcome.rule, &train, &dataset.source, &dataset.target);
            let final_val =
                evaluate_rule_on_links(&outcome.rule, validation, &dataset.source, &dataset.target);
            for &checkpoint in checkpoints.iter().filter(|&&c| c > last_iteration) {
                let entry = per_checkpoint.entry(checkpoint).or_default();
                entry.seconds.push(last_seconds);
                entry.training.push(final_train.f_measure());
                entry.validation.push(final_val.f_measure());
                entry.saved.push(last_cache.fitness_hits as f64);
                entry.hit_rate.push(last_cache.fitness_hit_rate());
                entry.distance_hit_rate.push(last_cache.distance_hit_rate());
                entry.compile.push(last_phases.compile_s);
                entry.bind.push(last_phases.bind_s);
                entry.score.push(last_phases.score_s);
                entry.skipped.push(last_skip);
            }
            if final_val.f_measure() > best_validation {
                best_validation = final_val.f_measure();
                best_rule = outcome.rule.clone();
            }
            let stats = outcome.rule.stats();
            final_comparisons.push(stats.comparisons as f64);
            final_transformations.push(stats.transformations as f64);
        }
    }

    let rows = per_checkpoint
        .into_iter()
        .map(|(iteration, acc)| CurveRow {
            iteration,
            seconds: Summary::of(acc.seconds),
            training_f1: Summary::of(acc.training),
            validation_f1: Summary::of(acc.validation),
            evaluations_saved: Summary::of(acc.saved),
            cache_hit_rate: Summary::of(acc.hit_rate),
            distance_hit_rate: Summary::of(acc.distance_hit_rate),
            compile_s: Summary::of(acc.compile),
            bind_s: Summary::of(acc.bind),
            score_s: Summary::of(acc.score),
            skip_rate: Summary::of(acc.skipped),
        })
        .collect();
    CurveResult {
        rows,
        best_rule,
        final_comparisons: Summary::of(final_comparisons),
        final_transformations: Summary::of(final_transformations),
    }
}

/// The train/validation F1 of the Carvalho-style baseline under the same
/// protocol (only the final values are reported, matching the "Ref." rows of
/// Tables 7 and 8).
fn run_carvalho_baseline(
    dataset: &Dataset,
    config: &CarvalhoConfig,
    settings: &ExperimentSettings,
) -> (Summary, Summary) {
    let learner = CarvalhoLearner::new(config.clone());
    let mut train_scores = Vec::new();
    let mut validation_scores = Vec::new();
    for run in 0..settings.runs {
        let run_seed = settings.seed + run as u64;
        let mut rng = StdRng::seed_from_u64(run_seed);
        let folds = dataset.links.split_folds(2, &mut rng);
        for held_out in 0..folds.len() {
            let train = ReferenceLinks::merge(
                folds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != held_out)
                    .map(|(_, f)| f),
            );
            let validation = &folds[held_out];
            let outcome = learner.learn(&dataset.source, &dataset.target, &train, run_seed);
            train_scores.push(
                outcome
                    .evaluate_on_links(&train, &dataset.source, &dataset.target)
                    .f_measure(),
            );
            validation_scores.push(
                outcome
                    .evaluate_on_links(validation, &dataset.source, &dataset.target)
                    .f_measure(),
            );
        }
    }
    (Summary::of(train_scores), Summary::of(validation_scores))
}

/// Prints a learning-curve table in the shape of Tables 7–12, extended with
/// the cumulative per-phase cost split (compile / bind / score seconds).
fn print_curve_table(title: &str, result: &CurveResult) {
    println!("{title}");
    println!(
        "{:<6} {:>16} {:>16} {:>16} {:>12} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "Iter.",
        "Time in s (σ)",
        "Train. F1 (σ)",
        "Val. F1 (σ)",
        "Evals saved",
        "Hit rate",
        "Dist. hit",
        "Compile",
        "Bind",
        "Score",
        "Skipped"
    );
    for row in &result.rows {
        println!(
            "{:<6} {:>16} {:>16} {:>16} {:>12} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8}",
            row.iteration,
            format!("{:.1} ({:.1})", row.seconds.mean, row.seconds.std_dev),
            row.training_f1.paper_format(),
            row.validation_f1.paper_format(),
            format!("{:.0}", row.evaluations_saved.mean),
            format!("{:.0}%", row.cache_hit_rate.mean * 100.0),
            format!("{:.0}%", row.distance_hit_rate.mean * 100.0),
            format!("{:.2}s", row.compile_s.mean),
            format!("{:.2}s", row.bind_s.mean),
            format!("{:.2}s", row.score_s.mean),
            format!("{:.0}%", row.skip_rate.mean * 100.0)
        );
    }
    println!();
}

/// Prints a reference row (an external system's published F1).
fn print_reference_row(system: &str, f1: f64) {
    println!("{:<20} F1 = {:.3} (published reference value)", system, f1);
}

/// The full driver behind the per-dataset experiment binaries (Tables 7–12):
/// generates the dataset, runs the GenLink learning curve, optionally runs the
/// Carvalho baseline under the same protocol, prints published reference
/// values, and renders the best learned rule (Figures 7/8-style output when
/// `show_rule` is set).
pub fn run_dataset_experiment(
    kind: linkdisc_datasets::DatasetKind,
    table: &str,
    run_carvalho: bool,
    references: &[(&str, f64)],
    show_rule: bool,
) {
    let settings = ExperimentSettings::from_env();
    settings.print_header(table);
    let dataset = kind.generate(settings.scale, settings.seed);
    let stats = dataset.statistics();
    println!(
        "dataset {}: |A|={} |B|={} |R+|={} |R-|={} ({} + {} properties)",
        stats.name,
        stats.source_entities,
        stats.target_entities,
        stats.positive_links,
        stats.negative_links,
        stats.source_properties,
        stats.target_properties
    );
    println!();

    let config = settings.genlink_config();
    let result = learning_curve(&dataset, &config, &settings);
    print_curve_table(&format!("GenLink on {}", kind.name()), &result);
    println!(
        "final rules: {} comparisons, {} transformations (mean over folds)",
        result.final_comparisons.paper_format(),
        result.final_transformations.paper_format()
    );
    println!();

    if run_carvalho {
        let (train, validation) =
            run_carvalho_baseline(&dataset, &settings.carvalho_config(), &settings);
        println!(
            "Carvalho-style GP baseline: Train. F1 = {}, Val. F1 = {}",
            train.paper_format(),
            validation.paper_format()
        );
        println!();
    }
    if !references.is_empty() {
        println!("published reference systems (paper values, not re-run):");
        for (system, f1) in references {
            print_reference_row(system, *f1);
        }
        println!();
    }
    if show_rule {
        println!("best learned rule (highest validation F1):");
        println!("{}", linkdisc_rule::render_rule(&result.best_rule));
        println!("DSL: {}", linkdisc_rule::print_rule(&result.best_rule));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_datasets::DatasetKind;

    fn tiny_settings() -> ExperimentSettings {
        ExperimentSettings {
            scale: 0.05,
            runs: 1,
            population: 30,
            iterations: 4,
            seed: 1,
        }
    }

    #[test]
    fn settings_checkpoints_include_zero_and_last() {
        let settings = tiny_settings();
        let checkpoints = settings.checkpoints();
        assert_eq!(checkpoints.first(), Some(&0));
        assert_eq!(checkpoints.last(), Some(&4));
    }

    #[test]
    fn learning_curve_produces_rows_for_every_checkpoint() {
        let settings = tiny_settings();
        let dataset = DatasetKind::Restaurant.generate(settings.scale, settings.seed);
        let mut config = settings.genlink_config();
        config.gp.threads = 1;
        let result = learning_curve(&dataset, &config, &settings);
        assert_eq!(result.rows.len(), settings.checkpoints().len());
        for row in &result.rows {
            assert!(row.training_f1.mean >= 0.0 && row.training_f1.mean <= 1.0);
            assert!(row.validation_f1.count == 2, "2 folds expected");
        }
        // quality improves (or at least does not collapse) over iterations
        let first = result.rows.first().unwrap().training_f1.mean;
        let last = result.rows.last().unwrap().training_f1.mean;
        assert!(
            last >= first - 0.05,
            "training F1 regressed from {first} to {last}"
        );
        assert!(!result.best_rule.is_empty());
        // the phase split attributes where the learning time went
        let final_row = result.rows.last().unwrap();
        assert!(
            final_row.score_s.mean > 0.0,
            "phase timers must attribute scoring cost"
        );
    }

    #[test]
    fn carvalho_baseline_runs_under_the_same_protocol() {
        let settings = tiny_settings();
        let dataset = DatasetKind::Restaurant.generate(settings.scale, settings.seed);
        let mut config = settings.carvalho_config();
        config.gp.threads = 1;
        config.gp.population_size = 30;
        config.gp.max_iterations = 4;
        let (train, validation) = run_carvalho_baseline(&dataset, &config, &settings);
        assert_eq!(train.count, 2);
        assert!(train.mean >= 0.0 && train.mean <= 1.0);
        assert!(validation.mean >= 0.0 && validation.mean <= 1.0);
    }

    #[test]
    fn env_overrides_are_applied() {
        std::env::set_var("GENLINK_SCALE", "0.5");
        std::env::set_var("GENLINK_RUNS", "3");
        let settings = ExperimentSettings::from_env();
        assert!((settings.scale - 0.5).abs() < 1e-12);
        assert_eq!(settings.runs, 3);
        std::env::remove_var("GENLINK_SCALE");
        std::env::remove_var("GENLINK_RUNS");
    }
}
