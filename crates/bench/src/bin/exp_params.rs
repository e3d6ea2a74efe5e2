//! Table 4: the GP parameters used in all experiments.

use linkdisc_bench::ExperimentSettings;

fn main() {
    let settings = ExperimentSettings::from_env();
    settings.print_header("Table 4: Parameters");
    let config = settings.genlink_config();
    println!("{:<28} Value", "Parameter");
    println!("{:<28} {}", "Population size", config.gp.population_size);
    println!("{:<28} {}", "Maximum iterations", config.gp.max_iterations);
    println!("{:<28} Tournament selection", "Selection method");
    println!("{:<28} {}", "Tournament size", config.gp.tournament_size);
    println!(
        "{:<28} {:.0}%",
        "Probability of crossover",
        (1.0 - config.gp.mutation_probability) * 100.0
    );
    println!(
        "{:<28} {:.0}%",
        "Probability of mutation",
        config.gp.mutation_probability * 100.0
    );
    println!(
        "{:<28} F-measure = {:.1}",
        "Stop condition", config.gp.stop_f_measure
    );
    println!();
    println!(
        "(paper values: population 500, 50 iterations, tournament 5, 75%/25%, stop at F1 = 1.0; \
         set GENLINK_PAPER=1 to run every experiment with them)"
    );
}
