//! Tournament selection.
//!
//! The paper chooses tournament selection (tournament size 5, Table 4) because
//! it "has been shown to produce strong results in a variety of GP systems and
//! is easy to parallelize" (Section 5.2).

use rand::Rng;

use crate::population::Individual;

/// Selects one individual by tournament: `tournament_size` individuals are
/// drawn uniformly with replacement from the slice and the fittest of them
/// wins.
///
/// A generational tournament always sees a whole, barrier-synchronised
/// population.  The steady-state breeder instead tournaments over whatever
/// window of evaluated individuals it currently holds: the live population
/// with a bounded lag (offspring still in flight through the evaluators have
/// not been folded in yet).  Selection itself is indifferent — it draws
/// uniformly from the slice it is given — so both modes share this one
/// implementation.
///
/// Panics if the slice is empty.
pub fn tournament_select<'a, G, R: Rng>(
    individuals: &'a [Individual<G>],
    tournament_size: usize,
    rng: &mut R,
) -> &'a Individual<G> {
    assert!(
        !individuals.is_empty(),
        "cannot select from an empty population"
    );
    let mut best = &individuals[rng.gen_range(0..individuals.len())];
    for _ in 1..tournament_size.max(1) {
        let candidate = &individuals[rng.gen_range(0..individuals.len())];
        if candidate.fitness() > best.fitness() {
            best = candidate;
        }
    }
    best
}

/// Selects the **victim** of a replacement tournament: `tournament_size`
/// individuals are drawn uniformly with replacement and the *least* fit of
/// them loses, returning its index into the slice.  This is the replacement
/// counterpart of [`tournament_select`] — the steady-state collector
/// uses it to decide which member an incoming offspring displaces.
///
/// Panics if the slice is empty.
pub fn reverse_tournament_select<G, R: Rng>(
    individuals: &[Individual<G>],
    tournament_size: usize,
    rng: &mut R,
) -> usize {
    assert!(
        !individuals.is_empty(),
        "cannot select from an empty population"
    );
    let mut worst = rng.gen_range(0..individuals.len());
    for _ in 1..tournament_size.max(1) {
        let candidate = rng.gen_range(0..individuals.len());
        if individuals[candidate].fitness() < individuals[worst].fitness() {
            worst = candidate;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Evaluated, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(fitnesses: &[f64]) -> Population<usize> {
        Population::new(
            fitnesses
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    Individual::new(
                        i,
                        Evaluated {
                            fitness: f,
                            f_measure: f,
                        },
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn single_individual_is_always_selected() {
        let population = population(&[0.3]);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(
                tournament_select(population.individuals(), 5, &mut rng).genome,
                0
            );
        }
    }

    #[test]
    fn selection_prefers_fitter_individuals() {
        let population = population(&[0.1, 0.2, 0.3, 0.9, 0.4, 0.5]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut wins = [0usize; 6];
        for _ in 0..2000 {
            wins[tournament_select(population.individuals(), 5, &mut rng).genome] += 1;
        }
        // the fittest individual (index 3) must win by far the most tournaments
        let best_wins = wins[3];
        for (i, &w) in wins.iter().enumerate() {
            if i != 3 {
                assert!(best_wins > w, "index 3 won {best_wins}, index {i} won {w}");
            }
        }
        // and the least fit individual should rarely win
        assert!(wins[0] < 100);
    }

    #[test]
    fn tournament_of_size_one_is_uniform_selection() {
        let population = population(&[0.1, 0.9]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut low = 0;
        for _ in 0..1000 {
            if tournament_select(population.individuals(), 1, &mut rng).genome == 0 {
                low += 1;
            }
        }
        // roughly half of the selections should pick the weaker individual
        assert!((350..=650).contains(&low), "low selected {low} times");
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        let population: Population<usize> = Population::new(vec![]);
        let mut rng = StdRng::seed_from_u64(0);
        tournament_select(population.individuals(), 5, &mut rng);
    }

    #[test]
    fn windowed_selection_only_sees_the_window() {
        let population = population(&[0.1, 0.2, 0.3, 0.9, 0.4, 0.5]);
        let mut rng = StdRng::seed_from_u64(5);
        // a window excluding the fittest individual can never select it
        let window = &population.individuals()[..3];
        for _ in 0..200 {
            let selected = tournament_select(window, 4, &mut rng);
            assert!(selected.genome < 3, "selected outside the window");
        }
    }

    #[test]
    fn reverse_tournament_prefers_the_weakest() {
        let population = population(&[0.1, 0.2, 0.3, 0.9, 0.4, 0.5]);
        let mut rng = StdRng::seed_from_u64(13);
        let mut losses = [0usize; 6];
        for _ in 0..2000 {
            losses[reverse_tournament_select(population.individuals(), 5, &mut rng)] += 1;
        }
        // the weakest individual (index 0) must lose by far the most
        for (i, &l) in losses.iter().enumerate() {
            if i != 0 {
                assert!(
                    losses[0] > l,
                    "index 0 lost {}, index {i} lost {l}",
                    losses[0]
                );
            }
        }
        // and the fittest should essentially never be the victim
        assert!(losses[3] < 20);
    }
}
