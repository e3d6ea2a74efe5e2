//! `exp`: regenerates the tables and figures of the paper.
//!
//! `exp <table>...` prints the named tables in turn.  `TABLES` below maps
//! each name to the table or figure it reproduces; `exp` with no name, or an
//! unknown one, prints that list and exits with status 2.
//!
//! Every F-measure comes from the paper's protocol (Section 6.1): repeated
//! 2-fold cross validation, run by one fold loop (`for_each_fold`) for the
//! GenLink learning curves and the Carvalho et al. baseline alike.  The
//! settings come from the environment (see `Settings`), so the same tables
//! run at a quick smoke size or at the paper's.

use std::collections::BTreeMap;
use std::process::exit;
use std::str::FromStr;

use genlink::seeding::SeedingConfig;
use genlink::{
    find_compatible_properties, CrossoverOperator, GenLink, GenLinkConfig, IterationStats,
    RepresentationMode, SeedingStrategy,
};
use linkdisc_baseline::{CarvalhoConfig, CarvalhoLearner};
use linkdisc_datasets::{Dataset, DatasetKind};
use linkdisc_entity::{DataSourceBuilder, ReferenceLinks, ReferenceLinksBuilder};
use linkdisc_evaluation::{evaluate_rule_on_links, Summary};
use linkdisc_rule::{parse_rule, print_rule, render_rule, LinkageRule, RuleStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a table name prints.
#[derive(Clone, Copy)]
enum Table {
    Params,
    Datasets,
    Figures,
    Curve(CurveTable),
    Representations,
    Seeding,
    Crossover,
}

/// A learning-curve table of one dataset (Tables 7–12).
#[derive(Clone, Copy)]
struct CurveTable {
    kind: DatasetKind,
    /// Whether the Carvalho et al. baseline runs under the same protocol.
    carvalho: bool,
    /// Published F1 of other systems, quoted rather than re-run.
    references: &'static [(&'static str, f64)],
    /// Whether to print the best learned rule (Figures 7/8).
    show_rule: bool,
}

/// Every table: its name, the title it prints (the table or figure of the
/// paper it reproduces), and what it prints.
const TABLES: &[(&str, &str, Table)] = &[
    ("params", "Table 4: Parameters", Table::Params),
    ("datasets", "Tables 5 & 6: Datasets", Table::Datasets),
    ("figures", "Figures 1-6", Table::Figures),
    (
        "cora",
        "Table 7: Cora",
        Table::Curve(CurveTable {
            kind: DatasetKind::Cora,
            carvalho: true,
            references: &[("Carvalho et al. (paper)", 0.910)],
            show_rule: true,
        }),
    ),
    (
        "restaurant",
        "Table 8: Restaurant",
        Table::Curve(CurveTable {
            kind: DatasetKind::Restaurant,
            carvalho: true,
            references: &[("Carvalho et al. (paper)", 0.980)],
            show_rule: false,
        }),
    ),
    (
        "sider",
        "Table 9: SiderDrugBank",
        Table::Curve(CurveTable {
            kind: DatasetKind::SiderDrugBank,
            carvalho: false,
            references: &[
                ("ObjectCoref (OAEI 2010)", 0.464),
                ("RiMOM (OAEI 2010)", 0.504),
            ],
            show_rule: false,
        }),
    ),
    (
        "nyt",
        "Table 10: NYT",
        Table::Curve(CurveTable {
            kind: DatasetKind::Nyt,
            carvalho: false,
            references: &[
                ("AgreementMaker (OAEI 2011)", 0.69),
                ("SEREMI (OAEI 2011)", 0.68),
                ("Zhishi.links (OAEI 2011)", 0.92),
            ],
            show_rule: false,
        }),
    ),
    (
        "linkedmdb",
        "Table 11: LinkedMDB",
        Table::Curve(CurveTable {
            kind: DatasetKind::LinkedMdb,
            carvalho: false,
            references: &[],
            show_rule: true,
        }),
    ),
    (
        "dbpedia-drugbank",
        "Table 12: DBpediaDrugBank",
        Table::Curve(CurveTable {
            kind: DatasetKind::DbpediaDrugBank,
            carvalho: false,
            references: &[],
            show_rule: true,
        }),
    ),
    (
        "representations",
        "Table 13: Representations (validation F1 at the last checkpoint)",
        Table::Representations,
    ),
    (
        "seeding",
        "Table 14: Seeding (mean F1 of the initial population)",
        Table::Seeding,
    ),
    (
        "crossover",
        "Table 15: Crossover operators (validation F1)",
        Table::Crossover,
    ),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = |name: &String| TABLES.iter().find(|(known, ..)| known == name);
    let tables: Option<Vec<_>> = names.iter().map(known).collect();
    let Some(tables) = tables.filter(|tables| !tables.is_empty()) else {
        if let Some(name) = names.iter().find(|name| known(name).is_none()) {
            eprintln!("exp: unknown table `{name}`");
        }
        eprintln!("usage: exp <table>...\n\ntables:");
        for (name, title, _) in TABLES {
            eprintln!("  {name:<18} {title}");
        }
        exit(2);
    };
    let lookup = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    let settings = Settings::from_lookup(lookup).unwrap_or_else(|error| {
        eprintln!("exp: {error}");
        exit(2);
    });
    let s = settings;
    for &(_, title, table) in tables {
        if !matches!(table, Table::Figures) {
            println!("=== {title} ===");
            println!(
                "settings: scale={}, runs={}x2-fold CV, population={}, iterations={}, seed={}\n",
                s.scale, s.runs, s.population, s.iterations, s.seed
            );
        }
        match table {
            Table::Params => params(&settings),
            Table::Datasets => datasets(&settings),
            Table::Figures => figures(),
            Table::Curve(table) => curve_table(&table, &settings),
            Table::Representations => representations(&settings),
            Table::Seeding => seeding(&settings),
            Table::Crossover => crossover(&settings),
        }
    }
}

/// Knobs of an experiment run, each read from its environment variable.
/// `GENLINK_PAPER=1` switches the defaults to the paper's configuration
/// (scale 1.0, 10 runs, population 500, 50 iterations); expect hours of
/// runtime for the complete suite in that mode.
#[derive(Debug, Clone, Copy)]
struct Settings {
    /// `GENLINK_SCALE`: dataset scale, finite and > 0 (1.0 = paper size;
    /// default 0.15).
    scale: f64,
    /// `GENLINK_RUNS`: cross-validation repetitions, ≥ 1 (default 2).
    runs: usize,
    /// `GENLINK_POPULATION`: GP population size, ≥ 1 (default 150).
    population: usize,
    /// `GENLINK_ITERATIONS`: maximum GP iterations (default 25).
    iterations: usize,
    /// `GENLINK_SEED`: base random seed (default 42).
    seed: u64,
}

impl Settings {
    /// Reads the settings through `lookup` (the environment, in `main`).  A
    /// value that does not parse as its type, or is out of range, is an
    /// error naming its variable.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Settings, String> {
        let (scale, runs, population, iterations) = match lookup("GENLINK_PAPER").as_deref() {
            Some("1") => (1.0, 10, 500, 50),
            _ => (0.15, 2, 150, 25),
        };
        let var = |name| lookup(name).map(|text| (name, text));
        let positive = |s: &f64| s.is_finite() && *s > 0.0;
        Ok(Settings {
            scale: parse(var("GENLINK_SCALE"), scale, positive)?,
            runs: parse(var("GENLINK_RUNS"), runs, |&n| n >= 1)?,
            population: parse(var("GENLINK_POPULATION"), population, |&n| n >= 1)?,
            iterations: parse(var("GENLINK_ITERATIONS"), iterations, |_| true)?,
            seed: parse(var("GENLINK_SEED"), 42, |_| true)?,
        })
    }

    /// A GenLink configuration with these settings applied on top of the
    /// paper defaults.
    fn genlink_config(&self) -> GenLinkConfig {
        let mut config = GenLinkConfig::paper();
        config.gp.population_size = self.population;
        config.gp.max_iterations = self.iterations;
        config
    }

    /// The iteration checkpoints reported in the learning-curve tables.
    fn checkpoints(&self) -> Vec<usize> {
        let mut checkpoints: Vec<usize> = [0usize, 1, 5, 10, 20, 25, 30, 40, 50]
            .into_iter()
            .filter(|&c| c <= self.iterations)
            .collect();
        if !checkpoints.contains(&self.iterations) {
            checkpoints.push(self.iterations);
        }
        checkpoints
    }
}

/// The value of a `(name, text)` variable, or `default` when it is unset.
/// Text that does not parse as `T`, or a value failing `valid`, is an error
/// naming the variable.
fn parse<T: FromStr>(
    var: Option<(&str, String)>,
    default: T,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some((name, text)) = var else {
        return Ok(default);
    };
    let error = || format!("{name}={text:?} is out of range or not a number");
    text.parse().ok().filter(valid).ok_or_else(error)
}

/// The paper's protocol (Section 6.1): `settings.runs` repetitions of a
/// 2-fold cross validation.  Run `r` splits `links` with seed `seed + r`;
/// each fold is held out once while `learn(training, validation, run_seed)`
/// trains on the others.
fn for_each_fold(
    links: &ReferenceLinks,
    settings: &Settings,
    mut learn: impl FnMut(&ReferenceLinks, &ReferenceLinks, u64),
) {
    for run in 0..settings.runs {
        let run_seed = settings.seed + run as u64;
        let folds = links.split_folds(2, &mut StdRng::seed_from_u64(run_seed));
        for (held_out, validation) in folds.iter().enumerate() {
            let others = folds.iter().enumerate().filter(|&(i, _)| i != held_out);
            let training = ReferenceLinks::merge(others.map(|(_, fold)| fold));
            learn(&training, validation, run_seed);
        }
    }
}

/// One fold's values in one row of a learning-curve table: the F1 of the
/// best rule on the training and validation links, and the run's cumulative
/// statistics up to the row's iteration.
struct Sample {
    training: f64,
    validation: f64,
    stats: IterationStats,
}

/// Mean and σ of one column over a checkpoint's samples.
fn column(samples: &[Sample], value: impl Fn(&Sample) -> f64) -> Summary {
    Summary::of(samples.iter().map(value))
}

/// The outcome of a learning-curve experiment.
struct Curve {
    /// Each checkpoint iteration's samples, one per fold.
    rows: BTreeMap<usize, Vec<Sample>>,
    /// A returned rule with the best validation F1 (for Figures 7/8).
    best_rule: LinkageRule,
    /// The shape of each fold's returned rule.
    final_rules: Vec<RuleStats>,
}

/// Runs GenLink under the paper's protocol on one dataset, recording the
/// training and validation F1 of the best rule at every checkpoint.  After
/// an early stop, later checkpoints repeat the last iteration's statistics
/// with the rule the run returned.
fn learning_curve(dataset: &Dataset, config: &GenLinkConfig, settings: &Settings) -> Curve {
    let checkpoints = settings.checkpoints();
    let learner = GenLink::new(config.clone());
    let (source, target) = (&dataset.source, &dataset.target);
    let mut rows: BTreeMap<usize, Vec<Sample>> = BTreeMap::new();
    let (mut best_rule, mut best_validation) = (LinkageRule::empty(), -1.0f64);
    let mut final_rules = Vec::new();
    for_each_fold(&dataset.links, settings, |training, validation, seed| {
        let f1 = |rule: &LinkageRule| {
            let on = |links| evaluate_rule_on_links(rule, links, source, target).f_measure();
            (on(training), on(validation))
        };
        let mut push = |iteration, stats: &IterationStats, f1| {
            let (training, validation) = f1;
            let stats = *stats;
            let sample = Sample {
                training,
                validation,
                stats,
            };
            rows.entry(iteration).or_default().push(sample);
        };
        let outcome =
            learner.learn_with_rule_observer(source, target, training, seed, |stats, rule| {
                if checkpoints.contains(&stats.iteration) {
                    push(stats.iteration, stats, f1(rule));
                }
            });
        let last = outcome.history.last().expect("an initial population");
        let returned = f1(&outcome.rule);
        for &checkpoint in checkpoints.iter().filter(|&&c| c > last.iteration) {
            push(checkpoint, last, returned);
        }
        if returned.1 > best_validation {
            (best_rule, best_validation) = (outcome.rule.clone(), returned.1);
        }
        final_rules.push(outcome.rule.stats());
    });
    Curve {
        rows,
        best_rule,
        final_rules,
    }
}

/// The training and validation F1 of the Carvalho-style baseline under the
/// same protocol and search effort (only the final values, like the "Ref."
/// rows of Tables 7 and 8).
fn carvalho_baseline(dataset: &Dataset, settings: &Settings) -> (Summary, Summary) {
    let mut config = CarvalhoConfig::default();
    config.gp.population_size = settings.population;
    config.gp.max_iterations = settings.iterations;
    let learner = CarvalhoLearner::new(config);
    let (source, target) = (&dataset.source, &dataset.target);
    let (mut training_f1, mut validation_f1) = (Vec::new(), Vec::new());
    for_each_fold(&dataset.links, settings, |training, validation, seed| {
        let outcome = learner.learn(source, target, training, seed);
        let on = |links| outcome.evaluate_on_links(links, source, target).f_measure();
        training_f1.push(on(training));
        validation_f1.push(on(validation));
    });
    (Summary::of(training_f1), Summary::of(validation_f1))
}

/// One learning-curve table (Tables 7–12): the dataset, the GenLink curve
/// with its cumulative cost split (compile / bind / score seconds), the
/// Carvalho baseline and the best learned rule when the table asks for
/// them, and the published reference values.
fn curve_table(table: &CurveTable, settings: &Settings) {
    let dataset = table.kind.generate(settings.scale, settings.seed);
    let stats = dataset.statistics();
    println!(
        "dataset {}: |A|={} |B|={} |R+|={} |R-|={} ({} + {} properties)\n",
        stats.name,
        stats.source_entities,
        stats.target_entities,
        stats.positive_links,
        stats.negative_links,
        stats.source_properties,
        stats.target_properties
    );

    let curve = learning_curve(&dataset, &settings.genlink_config(), settings);
    println!("GenLink on {}", table.kind.name());
    println!(
        "Iter.     Time in s (σ)    Train. F1 (σ)      Val. F1 (σ)  Evals saved  \
         Hit rate  Dist. hit  Compile     Bind    Score  Skipped"
    );
    for (iteration, samples) in &curve.rows {
        let mean =
            |value: &dyn Fn(&IterationStats) -> f64| column(samples, |s| value(&s.stats)).mean;
        let cache = |s: &IterationStats| s.cache.unwrap_or_default();
        let phases = |s: &IterationStats| s.phases.unwrap_or_default();
        let seconds = column(samples, |s| s.stats.elapsed_seconds);
        println!(
            "{:<6} {:>16} {:>16} {:>16} {:>12} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8}",
            iteration,
            format!("{:.1} ({:.1})", seconds.mean, seconds.std_dev),
            column(samples, |s| s.training).paper_format(),
            column(samples, |s| s.validation).paper_format(),
            format!("{:.0}", mean(&|s| cache(s).fitness_hits as f64)),
            format!("{:.0}%", mean(&|s| cache(s).fitness_hit_rate()) * 100.0),
            format!("{:.0}%", mean(&|s| cache(s).distance_hit_rate()) * 100.0),
            format!("{:.2}s", mean(&|s| phases(s).compile_s)),
            format!("{:.2}s", mean(&|s| phases(s).bind_s)),
            format!("{:.2}s", mean(&|s| phases(s).score_s)),
            format!(
                "{:.0}%",
                mean(&|s| s.eval.map_or(0.0, |e| e.skip_rate())) * 100.0
            )
        );
    }
    let shapes = &curve.final_rules;
    println!(
        "\nfinal rules: {} comparisons, {} transformations (mean over folds)\n",
        Summary::of(shapes.iter().map(|s| s.comparisons as f64)).paper_format(),
        Summary::of(shapes.iter().map(|s| s.transformations as f64)).paper_format()
    );

    if table.carvalho {
        let (training, validation) = carvalho_baseline(&dataset, settings);
        let (training, validation) = (training.paper_format(), validation.paper_format());
        println!("Carvalho-style GP baseline: Train. F1 = {training}, Val. F1 = {validation}\n");
    }
    if !table.references.is_empty() {
        println!("published reference systems (paper values, not re-run):");
        for (system, f1) in table.references {
            println!("{system:<20} F1 = {f1:.3} (published reference value)");
        }
        println!();
    }
    if table.show_rule {
        println!("best learned rule (highest validation F1):");
        println!("{}", render_rule(&curve.best_rule));
        println!("DSL: {}", print_rule(&curve.best_rule));
    }
}

/// Table 4: the GP parameters used in all experiments.
fn params(settings: &Settings) {
    let gp = settings.genlink_config().gp;
    println!("{:<28} Value", "Parameter");
    println!("{:<28} {}", "Population size", gp.population_size);
    println!("{:<28} {}", "Maximum iterations", gp.max_iterations);
    println!("{:<28} Tournament selection", "Selection method");
    println!("{:<28} {}", "Tournament size", gp.tournament_size);
    let crossover = (1.0 - gp.mutation_probability) * 100.0;
    println!("{:<28} {crossover:.0}%", "Probability of crossover");
    let mutation = gp.mutation_probability * 100.0;
    println!("{:<28} {mutation:.0}%", "Probability of mutation");
    let stop = gp.stop_f_measure;
    println!("{:<28} F-measure = {stop:.1}\n", "Stop condition");
    println!(
        "(paper values: population 500, 50 iterations, tournament 5, 75%/25%, stop at F1 = 1.0; \
         set GENLINK_PAPER=1 to run every experiment with them)"
    );
}

/// Tables 5 and 6: dataset sizes, reference-link counts, property counts and
/// property coverage of the six (synthetic) evaluation data sets.
fn datasets(settings: &Settings) {
    println!(
        "Dataset                 |A|      |B|     |R+|     |R-|     |A.P|   |B.P|    C_A    C_B"
    );
    for kind in DatasetKind::ALL {
        let stats = kind.generate(settings.scale, settings.seed).statistics();
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>8}   {:>7} {:>7} {:>6.1} {:>6.1}",
            stats.name,
            stats.source_entities,
            stats.target_entities,
            stats.positive_links,
            stats.negative_links,
            stats.source_properties,
            stats.target_properties,
            stats.source_coverage,
            stats.target_coverage
        );
    }
    println!("\n(paper sizes are reached with GENLINK_SCALE=1.0 / GENLINK_PAPER=1)");
}

/// Figures 1–6: the rule grammar (Figure 1), the example city rule
/// (Figure 2), the compatible-property discovery example (Figure 3) and one
/// child of each of three crossover operators (Figures 4–6).
fn figures() {
    println!("=== Figure 1: linkage rule structure ===");
    println!("Aggregation  ::= aggregation_function(weight, Similarity+)");
    println!("Similarity   ::= Aggregation | Comparison");
    println!("Comparison   ::= distance_function(threshold, weight, Value, Value)");
    println!("Value        ::= Transformation | Property");
    println!("Transformation ::= transformation_function(Value+)   (nestable into chains)");
    println!("Property     ::= property name of the source or target schema\n");

    println!("=== Figure 2: example linkage rule for interlinking cities ===");
    let rule = |dsl| parse_rule(dsl).expect("a figure's rule parses");
    let figure2 = rule(
        r#"(min (compare levenshtein 1 (lowerCase (property "label")) (lowerCase (property "rdfs:label")))
                (compare geographic 50 (property "point") (property "coord")))"#,
    );
    println!("{}", render_rule(&figure2));
    println!("DSL: {}\n", print_rule(&figure2));

    println!("=== Figure 3: finding compatible properties ===");
    let values = [
        ("label", "Berlin"),
        ("point", "52.52 13.40"),
        ("population", "3500000"),
    ];
    let source = DataSourceBuilder::new("A", ["label", "point", "population"]).entity("a1", values);
    let values = [
        ("label", "berlin"),
        ("coord", "52.52 13.40"),
        ("founded", "1237"),
    ];
    let target = DataSourceBuilder::new("B", ["label", "coord", "founded"]).entity("b1", values);
    let valid = "one entity per source, so no duplicate id";
    let (source, target) = (source.expect(valid).build(), target.expect(valid).build());
    let links = ReferenceLinksBuilder::new().positive("a1", "b1").build();
    let seeding = SeedingConfig::default();
    for pair in find_compatible_properties(&source, &target, &links, &seeding) {
        let (source, target) = (&pair.source_property, &pair.target_property);
        println!("  ({source}, {target}, {})", pair.function);
    }
    println!();

    let rule_a = rule(
        r#"(min (compare jaccard 0.4 (tokenize (property "label")) (property "name"))
                (compare date 30 (property "date") (property "released")))"#,
    );
    let rule_b = rule(
        r#"(wmean (compare levenshtein 2 (tokenize (stem (property "title"))) (property "label"))
                  (compare geographic 50 (property "point") (property "coord")))"#,
    );
    let mut rng = StdRng::seed_from_u64(7);
    for (figure, operator) in [
        (4, CrossoverOperator::Operators),
        (5, CrossoverOperator::Aggregation),
        (6, CrossoverOperator::Transformation),
    ] {
        println!("=== Figure {figure}: {} crossover ===", operator.name());
        println!("parent 1:\n{}", render_rule(&rule_a));
        println!("parent 2:\n{}", render_rule(&rule_b));
        let child = operator.apply(&rule_a, &rule_b, &mut rng);
        println!("child:\n{}\n", render_rule(&child));
    }
}

/// Table 13: validation F1 at the last checkpoint under the four rule
/// representations (Boolean / Linear / Non-linear / Full).
fn representations(settings: &Settings) {
    println!("Dataset               Boolean     Linear    Nonlin.       Full");
    for kind in DatasetKind::ALL {
        let dataset = kind.generate(settings.scale, settings.seed);
        print!("{:<18}", kind.name());
        for mode in RepresentationMode::ALL {
            let config = settings.genlink_config().with_representation(mode);
            let curve = learning_curve(&dataset, &config, settings);
            let (_, last) = curve.rows.last_key_value().expect("a curve has a row");
            let f1 = column(last, |s| s.validation).mean;
            print!(" {:>10}", format!("{f1:.3}"));
        }
        println!();
    }
    println!(
        "\nexpected shape (paper Table 13): Full >= Non-linear >= Linear/Boolean on every dataset,"
    );
    println!("with the largest gains from transformations on the noisy Cora/Restaurant data.");
}

/// Table 14: mean F-measure of the *initial* population with random vs.
/// seeded (compatible-property) generation.
fn seeding(settings: &Settings) {
    println!("{:<18} {:>16} {:>16}", "Dataset", "Random", "Seeded");
    for kind in DatasetKind::ALL {
        let dataset = kind.generate(settings.scale, settings.seed);
        let (source, target) = (&dataset.source, &dataset.target);
        print!("{:<18}", kind.name());
        for strategy in [SeedingStrategy::Random, SeedingStrategy::Seeded] {
            let mut config = settings.genlink_config().with_seeding(strategy);
            // only the initial population matters for this experiment
            config.gp.max_iterations = 0;
            let learner = GenLink::new(config);
            let initial_f1 = (0..settings.runs.max(2)).map(|run| {
                let seed = settings.seed + run as u64;
                learner
                    .learn(source, target, &dataset.links, seed)
                    .initial_mean_f_measure
            });
            print!(" {:>16}", Summary::of(initial_f1).paper_format());
        }
        println!();
    }
    println!(
        "\nexpected shape (paper Table 14): seeding matters little for the few-property datasets"
    );
    println!("(Cora, Restaurant) and improves the initial population considerably for the");
    println!("many-property Linked Data datasets (NYT, LinkedMDB, DBpediaDrugbank).");
}

/// Table 15: specialized crossover operators vs. plain subtree crossover,
/// validation F1 after 10 and after 25 iterations, both read from one curve
/// per (dataset, operator set).
fn crossover(settings: &Settings) {
    let mut checkpoints = vec![10, 25];
    checkpoints.retain(|&c| c <= settings.iterations);
    let mut config = settings.genlink_config();
    config.gp.max_iterations = checkpoints.last().copied().unwrap_or(0);
    let subtree: &[_] = &CrossoverOperator::SUBTREE_ONLY;
    let curves: Vec<[Curve; 2]> = (DatasetKind::ALL.iter())
        .filter(|_| !checkpoints.is_empty())
        .map(|kind| {
            let dataset = kind.generate(settings.scale, settings.seed);
            [subtree, &CrossoverOperator::SPECIALIZED].map(|operators| {
                let config = config.clone().with_crossover_operators(operators.to_vec());
                learning_curve(&dataset, &config, settings)
            })
        })
        .collect();
    for checkpoint in checkpoints {
        println!("-- after {checkpoint} iterations --");
        println!("Dataset                  Subtree C.     Our Approach");
        for (kind, curves) in DatasetKind::ALL.iter().zip(&curves) {
            let [subtree, ours] = curves
                .each_ref()
                .map(|curve| column(&curve.rows[&checkpoint], |s| s.validation).paper_format());
            println!("{:<18} {subtree:>16} {ours:>16}", kind.name());
        }
        println!();
    }
    println!("expected shape (paper Table 15): the specialized operators match or beat subtree");
    println!("crossover on every dataset, with the largest margins on NYT and SiderDrugbank.");
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Settings = Settings {
        scale: 0.05,
        runs: 1,
        population: 30,
        iterations: 4,
        seed: 1,
    };

    #[test]
    fn settings_checkpoints_include_zero_and_last() {
        let checkpoints = TINY.checkpoints();
        assert_eq!(checkpoints.first(), Some(&0));
        assert_eq!(checkpoints.last(), Some(&4));
    }

    #[test]
    fn learning_curve_produces_rows_for_every_checkpoint() {
        let dataset = DatasetKind::Restaurant.generate(TINY.scale, TINY.seed);
        let mut config = TINY.genlink_config();
        config.gp.threads = 1;
        let curve = learning_curve(&dataset, &config, &TINY);
        assert_eq!(curve.rows.len(), TINY.checkpoints().len());
        for samples in curve.rows.values() {
            let training = column(samples, |s| s.training).mean;
            assert!((0.0..=1.0).contains(&training));
            let folds = column(samples, |s| s.validation).count;
            assert_eq!(folds, 2, "2 folds expected");
        }
        // quality improves (or at least does not collapse) over iterations
        let (first, last) = (&curve.rows[&0], &curve.rows[&4]);
        let (first, last) = (column(first, |s| s.training), column(last, |s| s.training));
        assert!(
            last.mean >= first.mean - 0.05,
            "training F1 fell: {first} → {last}"
        );
        assert!(!curve.best_rule.is_empty());
        // the phase split attributes where the learning time went
        let score = column(&curve.rows[&4], |s| s.stats.phases.unwrap().score_s).mean;
        assert!(score > 0.0, "phase timers must attribute scoring cost");
    }

    #[test]
    fn carvalho_baseline_runs_under_the_same_protocol() {
        let dataset = DatasetKind::Restaurant.generate(TINY.scale, TINY.seed);
        let (training, validation) = carvalho_baseline(&dataset, &TINY);
        assert_eq!(training.count, 2);
        assert!((0.0..=1.0).contains(&training.mean));
        assert!((0.0..=1.0).contains(&validation.mean));
    }

    #[test]
    fn cross_validation_aggregates_runs_and_folds() {
        let links = DatasetKind::Restaurant.generate(0.05, 1).links;
        let (settings, mut calls) = (Settings { runs: 3, ..TINY }, 0);
        for_each_fold(&links, &settings, |training, validation, seed| {
            calls += 1;
            assert!((1..=3).contains(&seed));
            // the training fold never holds all links; with the held-out fold
            // it holds each link once
            assert!(training.len() < links.len());
            assert!(!training.positive().is_empty());
            assert_eq!(training.len() + validation.len(), links.len());
        });
        assert_eq!(calls, 6);
    }

    /// The settings read from `vars` in place of the environment.
    fn settings(vars: &[(&str, &str)]) -> Result<Settings, String> {
        Settings::from_lookup(|name| {
            let value = vars.iter().find(|(known, _)| *known == name);
            value.map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn env_overrides_are_applied() {
        let base = settings(&[]).unwrap();
        assert_eq!((base.scale, base.runs, base.seed), (0.15, 2, 42));
        let paper = settings(&[("GENLINK_PAPER", "1")]).unwrap();
        assert_eq!((paper.runs, paper.population), (10, 500));
        let set = settings(&[("GENLINK_SCALE", "0.5"), ("GENLINK_RUNS", "3")]).unwrap();
        assert_eq!((set.scale, set.runs, set.population), (0.5, 3, 150));
    }

    #[test]
    fn bad_settings_are_errors_naming_their_variable() {
        for (name, value) in [
            ("GENLINK_RUNS", "-3"),
            ("GENLINK_RUNS", "0"),
            ("GENLINK_RUNS", "2.0"),
            ("GENLINK_POPULATION", "0"),
            ("GENLINK_SCALE", "abc"),
            ("GENLINK_SCALE", "0"),
            ("GENLINK_SCALE", "inf"),
            ("GENLINK_ITERATIONS", "-1"),
            ("GENLINK_SEED", ""),
        ] {
            let error = settings(&[(name, value)]).unwrap_err();
            assert!(error.starts_with(&format!("{name}=")), "{error}");
        }
    }
}
