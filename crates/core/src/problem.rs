//! The [`linkdisc_gp::Problem`] implementation that ties together the random
//! rule generator, the specialized crossover operators and the MCC fitness.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use linkdisc_gp::{CacheStats, EvalCounters, Evaluated, FitnessCache, PhaseTimers, Problem};
use linkdisc_rule::LinkageRule;
use linkdisc_util::parallel_ordered_map;

use crate::fitness::FitnessFunction;
use crate::operators::CrossoverOperator;
use crate::random::RandomRuleGenerator;
use crate::representation::RepresentationMode;

/// The GenLink learning problem over one training link set.
///
/// Evaluations are memoized across generations in a [`FitnessCache`] keyed
/// by the rule's canonical hash: an offspring that re-breeds a rule already
/// scored this run (identical parents, a no-op recombination, a repeated
/// donation) is looked up, not scored again.  Elites never get here — the
/// generational engine carries them over with their evaluation — so the
/// cache's hits are all such duplicates.
pub struct GenLinkProblem<'a> {
    fitness: FitnessFunction<'a>,
    generator: RandomRuleGenerator,
    crossover_operators: Vec<CrossoverOperator>,
    representation: RepresentationMode,
    cache: FitnessCache<LinkageRule>,
}

impl<'a> GenLinkProblem<'a> {
    /// Creates the problem from its parts.
    pub fn new(
        fitness: FitnessFunction<'a>,
        generator: RandomRuleGenerator,
        crossover_operators: Vec<CrossoverOperator>,
        representation: RepresentationMode,
    ) -> Self {
        assert!(
            !crossover_operators.is_empty(),
            "at least one crossover operator is required"
        );
        GenLinkProblem {
            fitness,
            generator,
            crossover_operators,
            representation,
            cache: FitnessCache::new(),
        }
    }

    /// The random rule generator (exposed for the seeding experiment, which
    /// inspects the initial population directly).
    pub fn generator(&self) -> &RandomRuleGenerator {
        &self.generator
    }
}

impl Problem for GenLinkProblem<'_> {
    type Genome = LinkageRule;

    fn random_genome(&self, rng: &mut StdRng) -> LinkageRule {
        self.generator.generate(rng)
    }

    fn crossover(
        &self,
        first: &LinkageRule,
        second: &LinkageRule,
        rng: &mut StdRng,
    ) -> LinkageRule {
        let operator = self
            .crossover_operators
            .choose(rng)
            .expect("operator set is not empty");
        let mut child = operator.apply(first, second, rng);
        // keep the offspring inside the configured representation (no-op for
        // the full representation)
        self.representation.enforce(&mut child);
        child
    }

    fn evaluate(&self, genome: &LinkageRule) -> Evaluated {
        self.cache
            .get_or_insert_with(genome.canonical_hash(), genome, || {
                self.fitness.evaluate(genome)
            })
    }

    /// Batched, generation-at-a-time evaluation:
    ///
    /// 1. **sequential** — every genome is resolved against the
    ///    cross-generation fitness cache and deduplicated, so each
    ///    *distinct new* rule is evaluated exactly once and the fitness-cache
    ///    counters are deterministic across thread counts;
    /// 2. **parallel** — the distinct rules are prepared (compiled, and the
    ///    distance columns the run has not measured yet filled over the
    ///    reference pool — see [`FitnessFunction::prepare_batch`]) and scored
    ///    on `threads` workers with an ordered reduction;
    /// 3. **sequential** — results are memoized and fanned back out to the
    ///    input order (duplicates count as fitness-cache hits, exactly as
    ///    they would scoring one by one).
    ///
    /// Evaluation is a pure function of the genome, so the returned vector
    /// is bit-identical at every thread count.
    fn evaluate_batch(&self, genomes: &[LinkageRule], threads: usize) -> Vec<Evaluated> {
        /// Where genome `i` gets its evaluation from.
        enum Source {
            Cached(Evaluated),
            /// Index into `distinct`; `first` marks the occurrence that
            /// introduced the entry (later ones are cache hits).
            Computed {
                distinct: usize,
                first: bool,
            },
        }
        let mut distinct: Vec<(u64, &LinkageRule)> = Vec::new();
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut sources: Vec<Source> = Vec::with_capacity(genomes.len());
        for genome in genomes {
            let hash = genome.canonical_hash();
            if let Some(evaluation) = self.cache.get(hash, genome) {
                sources.push(Source::Cached(evaluation));
                continue;
            }
            let bucket = by_hash.entry(hash).or_default();
            match bucket.iter().find(|&&at| distinct[at].1 == genome).copied() {
                Some(at) => sources.push(Source::Computed {
                    distinct: at,
                    first: false,
                }),
                None => {
                    bucket.push(distinct.len());
                    sources.push(Source::Computed {
                        distinct: distinct.len(),
                        first: true,
                    });
                    distinct.push((hash, genome));
                }
            }
        }
        let rules: Vec<&LinkageRule> = distinct.iter().map(|&(_, genome)| genome).collect();
        let prepared = self.fitness.prepare_batch(&rules, threads);
        // parallel scoring with ordered reduction
        let inputs: Vec<usize> = (0..distinct.len()).collect();
        let evaluations = parallel_ordered_map(&inputs, threads, |&at| {
            self.fitness
                .evaluate_prepared(distinct[at].1, &prepared[at])
        });
        // memoize (one miss per distinct rule, like the sequential path)
        for ((hash, genome), &evaluation) in distinct.iter().zip(&evaluations) {
            self.cache.get_or_insert_with(*hash, genome, || evaluation);
        }
        sources
            .into_iter()
            .enumerate()
            .map(|(at, source)| match source {
                Source::Cached(evaluation) => evaluation,
                Source::Computed {
                    distinct: entry,
                    first,
                } => {
                    if first {
                        evaluations[entry]
                    } else {
                        // an intra-batch duplicate is a cache hit, exactly
                        // as when scoring one by one (hash reused from the
                        // dedup pass)
                        self.cache
                            .get(distinct[entry].0, &genomes[at])
                            .expect("memoized just above")
                    }
                }
            })
            .collect()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        let columns = self.fitness.column_stats();
        Some(CacheStats {
            fitness_hits: self.cache.hits(),
            fitness_misses: self.cache.misses(),
            fitness_entries: self.cache.len(),
            distance_hits: columns.distance_hits,
            distance_misses: columns.distance_misses,
        })
    }

    fn phase_timers(&self) -> Option<PhaseTimers> {
        Some(self.fitness.phase_timers())
    }

    fn eval_counters(&self) -> Option<EvalCounters> {
        let eval = self.fitness.eval_stats();
        let kernels = self.fitness.kernel_delta();
        Some(EvalCounters {
            pairs: eval.pairs,
            pairs_short_circuited: eval.pairs_short_circuited,
            comparisons_evaluated: eval.comparisons_evaluated,
            comparisons_skipped: eval.comparisons_skipped,
            kernel_fast_path: kernels.fast_path_hits(),
            kernel_fallback: kernels.fallback_hits(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::ParsimonyModel;
    use crate::seeding::CompatiblePair;
    use linkdisc_entity::{DataSourceBuilder, Link, ReferenceLinks, ResolvedReferenceLinks};
    use linkdisc_rule::DistanceFunction;
    use rand::SeedableRng;

    fn pairs() -> Vec<CompatiblePair> {
        vec![CompatiblePair {
            source_property: "label".into(),
            target_property: "label".into(),
            function: DistanceFunction::Levenshtein,
            support: 1.0,
        }]
    }

    #[test]
    fn problem_generates_crosses_and_evaluates() {
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "x")])
            .unwrap()
            .build();
        let target = DataSourceBuilder::new("B", ["label"])
            .entity("b1", [("label", "x")])
            .unwrap()
            .entity("b2", [("label", "completely different")])
            .unwrap()
            .build();
        let links = ReferenceLinks::new(vec![Link::new("a1", "b1")], vec![Link::new("a1", "b2")]);
        let resolved = ResolvedReferenceLinks::resolve(&links, &source, &target);
        let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
        let generator = RandomRuleGenerator::new(pairs(), RepresentationMode::Full);
        let problem = GenLinkProblem::new(
            fitness,
            generator,
            CrossoverOperator::SPECIALIZED.to_vec(),
            RepresentationMode::Full,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let a = problem.random_genome(&mut rng);
        let b = problem.random_genome(&mut rng);
        let child = problem.crossover(&a, &b, &mut rng);
        assert!(!child.is_empty());
        let evaluated = problem.evaluate(&child);
        assert!(evaluated.fitness <= 1.0);
        assert!((0.0..=1.0).contains(&evaluated.f_measure));
    }

    #[test]
    fn restricted_problem_never_produces_forbidden_rules() {
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "x")])
            .unwrap()
            .build();
        let target = source.clone();
        let links = ReferenceLinks::new(vec![Link::new("a1", "a1")], vec![]);
        let resolved = ResolvedReferenceLinks::resolve(&links, &source, &target);
        let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
        let generator = RandomRuleGenerator::new(pairs(), RepresentationMode::Boolean);
        let problem = GenLinkProblem::new(
            fitness,
            generator,
            CrossoverOperator::SPECIALIZED.to_vec(),
            RepresentationMode::Boolean,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut rules: Vec<LinkageRule> =
            (0..20).map(|_| problem.random_genome(&mut rng)).collect();
        for _ in 0..100 {
            let a = rules[rng.gen_range(0..rules.len())].clone();
            let b = rules[rng.gen_range(0..rules.len())].clone();
            let child = problem.crossover(&a, &b, &mut rng);
            assert!(RepresentationMode::Boolean.permits(&child), "{child:?}");
            rules.push(child);
        }
    }

    /// A small two-source fixture plus rules sharing one comparison chain.
    fn shared_chain_fixture() -> (
        linkdisc_entity::DataSource,
        linkdisc_entity::DataSource,
        Vec<LinkageRule>,
    ) {
        let mut a = DataSourceBuilder::new("A", ["label"]);
        let mut b = DataSourceBuilder::new("B", ["label"]);
        for i in 0..8 {
            a = a
                .entity(format!("a{i}"), [("label", format!("entity {i}").as_str())])
                .unwrap();
            b = b
                .entity(format!("b{i}"), [("label", format!("entity {i}").as_str())])
                .unwrap();
        }
        let lev = |threshold: f64| -> LinkageRule {
            linkdisc_rule::compare(
                linkdisc_rule::property("label"),
                linkdisc_rule::property("label"),
                DistanceFunction::Levenshtein,
                threshold,
            )
            .into()
        };
        (a.build(), b.build(), vec![lev(2.0), lev(3.0), lev(6.0)])
    }

    #[test]
    fn batch_results_are_thread_count_invariant_and_order_preserving() {
        let (source, target, rules) = shared_chain_fixture();
        let links = ReferenceLinks::new(
            vec![Link::new("a0", "b0")],
            vec![Link::new("a0", "b5"), Link::new("a2", "b7")],
        );
        let resolved = ResolvedReferenceLinks::resolve(&links, &source, &target);
        // a batch with duplicates, in scrambled order
        let mut batch = rules.clone();
        batch.push(rules[0].clone());
        batch.push(rules[2].clone());
        let mut reference: Option<Vec<Evaluated>> = None;
        for threads in [1, 2, 4] {
            let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
            let problem = GenLinkProblem::new(
                fitness,
                RandomRuleGenerator::new(pairs(), RepresentationMode::Full),
                CrossoverOperator::SPECIALIZED.to_vec(),
                RepresentationMode::Full,
            );
            let result = problem.evaluate_batch(&batch, threads);
            assert_eq!(result[0], result[3], "duplicates score identically");
            assert_eq!(result[2], result[4]);
            // batched evaluation equals one-by-one evaluation
            for (rule, evaluation) in batch.iter().zip(&result) {
                assert_eq!(problem.evaluate(rule), *evaluation);
            }
            // the three distinct rules share one comparison under three
            // thresholds: measured once, at every thread count
            let cache = problem.cache_stats().unwrap();
            assert_eq!((cache.distance_hits, cache.distance_misses), (2, 1));
            match &reference {
                None => reference = Some(result),
                Some(expected) => assert_eq!(expected, &result, "threads={threads}"),
            }
        }
    }

    use rand::Rng;

    #[test]
    #[should_panic(expected = "crossover operator")]
    fn empty_operator_set_is_rejected() {
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "x")])
            .unwrap()
            .build();
        let links = ReferenceLinks::new(vec![], vec![]);
        let resolved = ResolvedReferenceLinks::resolve(&links, &source, &source);
        let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
        let generator = RandomRuleGenerator::new(pairs(), RepresentationMode::Full);
        GenLinkProblem::new(fitness, generator, vec![], RepresentationMode::Full);
    }
}
