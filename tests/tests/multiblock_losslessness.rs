//! Property test: MultiBlock candidate generation is lossless.
//!
//! For random rules (drawn from the same generator the GP learner uses, so
//! transforms, all distance measures and nested aggregations are exercised)
//! over random noisy datasets:
//!
//! 1. the candidate set of every source entity is a **superset of its true
//!    matches** under the rule (pairs the full cross product links are never
//!    pruned), and
//! 2. the engine's indexed run produces **exactly** the links of the
//!    exhaustive run,
//! 3. whatever the index leaves out — posting lists a leaf's probe does not
//!    scan, children a conjunction **stops** before (at query time) or never
//!    **builds** (the engine's staged build) — it only ever admits extra
//!    candidates: the index's candidates cover the plan's set algebra over
//!    *the targets within each comparison's distance bound* (the contract;
//!    which block keys a probe looks up is mechanism), and the engine's
//!    links — ids and score bits — equal the exhaustive run's at every
//!    thread count and chunk size, with the built/skipped leaves and the
//!    evaluation counters identical across thread counts.

use genlink::random::RandomRuleGenerator;
use genlink::seeding::SeedingConfig;
use genlink::{find_compatible_properties, RepresentationMode};
use linkdisc_datasets::DatasetKind;
use linkdisc_entity::Entity;
use linkdisc_entity::EntityPair;
use linkdisc_matching::{MatchingEngine, MatchingOptions, MatchingReport, MultiBlockIndex};
use linkdisc_rule::{IndexingPlan, LinkageRule, PlanNode, ValueCache};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

fn random_rules(kind: DatasetKind, scale: f64, seed: u64, count: usize) -> RuleWorkload {
    // the paper's initial rules: at most two comparisons
    random_rules_up_to(kind, scale, seed, count, 2)
}

fn random_rules_up_to(
    kind: DatasetKind,
    scale: f64,
    seed: u64,
    count: usize,
    max_comparisons: usize,
) -> RuleWorkload {
    let dataset = kind.generate(scale, seed);
    let pairs = find_compatible_properties(
        &dataset.source,
        &dataset.target,
        &dataset.links,
        &SeedingConfig::default(),
    );
    assert!(!pairs.is_empty(), "seeding found no compatible properties");
    let mut generator = RandomRuleGenerator::new(pairs, RepresentationMode::Full);
    generator.max_comparisons = max_comparisons;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(991));
    let rules = (0..count).map(|_| generator.generate(&mut rng)).collect();
    RuleWorkload { dataset, rules }
}

struct RuleWorkload {
    dataset: linkdisc_datasets::Dataset,
    rules: Vec<LinkageRule>,
}

/// Direct superset check against the index: every pair the rule links must
/// survive candidate generation.
fn assert_candidates_cover_links(workload: &RuleWorkload, link_threshold: f64) {
    for rule in &workload.rules {
        let plan = IndexingPlan::lower(
            rule,
            workload.dataset.source.schema(),
            workload.dataset.target.schema(),
            link_threshold,
        );
        let cache = ValueCache::new();
        let index =
            MultiBlockIndex::build_slice(plan, workload.dataset.target.entities(), &cache, 0);
        for source_entity in workload.dataset.source.entities() {
            let candidates = index.candidate_positions(source_entity, &cache);
            for (position, target_entity) in workload.dataset.target.entities().iter().enumerate() {
                let score = rule.evaluate(&EntityPair::new(source_entity, target_entity));
                if score >= link_threshold {
                    assert!(
                        candidates.binary_search(&position).is_ok(),
                        "true match {} -> {} (score {score:.4} ≥ {link_threshold}) was pruned \
                         by rule {}",
                        source_entity.id(),
                        target_entity.id(),
                        linkdisc_rule::print_rule(rule),
                    );
                }
            }
        }
    }
}

/// End-to-end check through the engine: indexed and exhaustive runs agree
/// exactly (same links, same scores).
fn assert_engine_paths_agree(workload: &RuleWorkload, link_threshold: f64) {
    for rule in &workload.rules {
        let blocked = MatchingEngine::new(rule.clone())
            .with_options(MatchingOptions {
                threads: 2,
                link_threshold,
                ..MatchingOptions::default()
            })
            .run(&workload.dataset.source, &workload.dataset.target);
        let full = MatchingEngine::new(rule.clone())
            .with_options(MatchingOptions {
                use_blocking: false,
                threads: 2,
                link_threshold,
                ..MatchingOptions::default()
            })
            .run(&workload.dataset.source, &workload.dataset.target);
        assert_eq!(
            blocked.links,
            full.links,
            "indexed and exhaustive links diverge for rule {}",
            linkdisc_rule::print_rule(rule),
        );
        assert!(blocked.evaluated_pairs <= full.evaluated_pairs);
    }
}

#[test]
fn multiblock_candidates_cover_all_true_matches() {
    for seed in 0..4 {
        let workload = random_rules(DatasetKind::Restaurant, 0.08, seed, 6);
        assert_candidates_cover_links(&workload, 0.5);
    }
    for seed in 0..2 {
        let workload = random_rules(DatasetKind::Cora, 0.04, seed, 6);
        assert_candidates_cover_links(&workload, 0.5);
    }
}

#[test]
fn indexed_and_exhaustive_links_are_identical() {
    for seed in 0..4 {
        let workload = random_rules(DatasetKind::Restaurant, 0.08, seed, 6);
        assert_engine_paths_agree(&workload, 0.5);
    }
    for seed in 0..2 {
        let workload = random_rules(DatasetKind::LinkedMdb, 0.05, seed, 4);
        assert_engine_paths_agree(&workload, 0.5);
    }
}

#[test]
fn losslessness_holds_for_non_default_link_thresholds() {
    let workload = random_rules(DatasetKind::Restaurant, 0.08, 11, 5);
    for link_threshold in [0.3, 0.7, 0.9] {
        assert_candidates_cover_links(&workload, link_threshold);
        assert_engine_paths_agree(&workload, link_threshold);
    }
}

/// The plan's set algebra, evaluated in full and independently of the index:
/// a target is a leaf candidate iff its chain values are within the
/// comparison's distance bound of the source's under the measure itself;
/// intersections intersect, unions unite, nothing stops.
fn full_algebra<'e>(
    plan: &IndexingPlan,
    node: &PlanNode,
    source: &'e Entity,
    targets: &'e [Entity],
    cache: &ValueCache<'e>,
) -> BTreeSet<usize> {
    match node {
        PlanNode::All => (0..targets.len()).collect(),
        PlanNode::Nothing => BTreeSet::new(),
        PlanNode::Leaf(leaf) => {
            let comparison = &plan.comparisons()[*leaf];
            let probing = comparison.source.values(source, cache);
            (0..targets.len())
                .filter(|&position| {
                    let values = comparison.target.values(&targets[position], cache);
                    comparison.function.evaluate(&probing, &values) <= comparison.bound
                })
                .collect()
        }
        PlanNode::Intersect(children) => children
            .iter()
            .map(|child| full_algebra(plan, child, source, targets, cache))
            .reduce(|a, b| &a & &b)
            .expect("intersections have children"),
        PlanNode::Union(children) => children
            .iter()
            .flat_map(|child| full_algebra(plan, child, source, targets, cache))
            .collect(),
    }
}

/// `(source, target, score bits)` of every link, in report order.
fn link_bits(report: &MatchingReport) -> Vec<(&str, &str, u64)> {
    report
        .links
        .iter()
        .map(|link| {
            (
                link.source.as_str(),
                link.target.as_str(),
                link.score.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 3 of the module docs, over random GP rules (up to four
    /// comparisons, so conjunctions have siblings to leave out) × Cora and
    /// Restaurant.
    #[test]
    fn stopping_and_staging_only_ever_admit_extra_candidates(
        seed in 0u64..1_000_000,
        cora in 0u8..2,
    ) {
        let workload = if cora == 1 {
            random_rules_up_to(DatasetKind::Cora, 0.04, seed, 3, 4)
        } else {
            random_rules_up_to(DatasetKind::Restaurant, 0.08, seed, 3, 4)
        };
        let (source, target) = (&workload.dataset.source, &workload.dataset.target);
        for rule in &workload.rules {
            // a stopped (fully built) index covers the set algebra over the
            // targets within each comparison's bound
            let plan = IndexingPlan::lower(rule, source.schema(), target.schema(), 0.5);
            let cache = ValueCache::new();
            let index = MultiBlockIndex::build_slice(plan.clone(), target.entities(), &cache, 0);
            for entity in source.entities() {
                let reference = full_algebra(&plan, plan.root(), entity, target.entities(), &cache);
                let stopped: BTreeSet<usize> =
                    index.candidate_positions(entity, &cache).into_iter().collect();
                prop_assert!(
                    stopped.is_superset(&reference),
                    "{} lost candidates under {}", entity.id(), linkdisc_rule::print_rule(rule)
                );
            }
            // the engine (staged build + stop) links exactly what the
            // exhaustive run links, however the job is cut
            let run = |use_blocking, threads, chunk_size| {
                MatchingEngine::new(rule.clone())
                    .with_options(MatchingOptions {
                        use_blocking,
                        threads,
                        chunk_size,
                        ..MatchingOptions::default()
                    })
                    .run(source, target)
            };
            let full = run(false, 2, 0);
            for chunk_size in [1, 7, 64] {
                let sequential = run(true, 1, chunk_size);
                prop_assert_eq!(
                    link_bits(&sequential), link_bits(&full),
                    "chunk size {} under {}", chunk_size, linkdisc_rule::print_rule(rule)
                );
                prop_assert!(sequential.links.len() <= sequential.evaluated_pairs);
                prop_assert!(sequential.evaluated_pairs <= full.evaluated_pairs);
                for threads in [2, 4] {
                    let parallel = run(true, threads, chunk_size);
                    prop_assert_eq!(link_bits(&parallel), link_bits(&full));
                    // what was built, what was consulted and what was
                    // evaluated do not depend on the thread count
                    prop_assert_eq!(&parallel.comparison_stats, &sequential.comparison_stats);
                    prop_assert_eq!(parallel.eval_stats, sequential.eval_stats);
                    prop_assert_eq!(parallel.evaluated_pairs, sequential.evaluated_pairs);
                }
            }
        }
    }
}
