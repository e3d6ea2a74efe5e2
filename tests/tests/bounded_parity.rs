//! Property-based parity for the score-bounded evaluator: short-circuit
//! evaluation never changes a classification, and every pair that classifies
//! as a link scores bit-identically to exhaustive evaluation.
//!
//! The bounded contract (see `crates/rule/src/compiled.rs` and DESIGN.md) is
//! that `evaluate_bounded(pair, cache, θ)` returns an upper bound of the
//! exhaustive score which is *exact* whenever it lands at or above θ.  Scores
//! are therefore allowed to differ only for pairs both sides classify as
//! "no link" — which is precisely what these tests pin down over random
//! GP-shaped rules on the Cora and Restaurant datasets.
//!
//! The compiled plan has one evaluator, so the exhaustive side of every
//! comparison here is the independent reference: the tree walk
//! `LinkageRule::evaluate`.  The last property pins the evaluator's second
//! value provider — bound sides, filled in one pass over each side with no
//! cache and read by position — to its first, the `(entity, ValueCache)` path, bit for
//! bit and counter for counter.  The tests after it pin the evaluator's
//! other way of scoring a comparison — one division over a distance column
//! measured once per distinct `(source chain, target chain, measure, band)`
//! and shared by every rule of a learning run through one
//! `ReferenceColumns` memo — to the kernel path, the same way.

use genlink::random::RandomRuleGenerator;
use genlink::seeding::SeedingConfig;
use genlink::{
    find_compatible_properties, CompatiblePair, CrossoverOperator, FitnessFunction, ParsimonyModel,
    RepresentationMode,
};
use linkdisc_datasets::DatasetKind;
use linkdisc_entity::{
    DataSource, DataSourceBuilder, Entity, EntityBuilder, EntityPair, Link, ReferenceLinks,
    ResolvedReferenceLinks, Schema,
};
use linkdisc_evaluation::{evaluate_compiled, evaluate_compiled_stats, evaluate_rule};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, ColumnStats, CompiledRule,
    DistanceColumn, DistanceFunction, EvalStats, LinkageRule, ReferenceColumns, TransformFunction,
    ValueCache, LINK_THRESHOLD,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Compatible pairs over the Cora schema, mirroring `compiled_parity.rs` so
/// the rule sample exercises every distance function the generator offers.
fn cora_pairs() -> Vec<CompatiblePair> {
    let functions = [
        DistanceFunction::Levenshtein,
        DistanceFunction::Jaccard,
        DistanceFunction::Numeric,
        DistanceFunction::Date,
        DistanceFunction::Dice,
        DistanceFunction::Equality,
    ];
    ["title", "author", "venue", "date"]
        .iter()
        .enumerate()
        .map(|(i, property)| CompatiblePair {
            source_property: property.to_string(),
            target_property: property.to_string(),
            function: functions[i % functions.len()],
            support: 0.5,
        })
        .collect()
}

#[test]
fn bounded_classification_matches_exhaustive_on_1000_cora_combinations() {
    let dataset = DatasetKind::Cora.generate(0.1, 17);
    let source_entities = dataset.source.entities();
    let target_entities = dataset.target.entities();
    let resolved = linkdisc_entity::ResolvedReferenceLinks::resolve(
        &dataset.links,
        &dataset.source,
        &dataset.target,
    );
    let positives = resolved.positive();
    assert!(!positives.is_empty());

    let mut generator = RandomRuleGenerator::new(cora_pairs(), RepresentationMode::Full);
    generator.transformation_probability = 0.6;
    let mut rng = StdRng::seed_from_u64(90125);

    let cache = ValueCache::new();
    let mut stats = EvalStats::default();
    let mut combinations = 0usize;
    let mut links = 0usize;
    for rule_index in 0..60 {
        // every third rule is a crossover offspring of two random rules, so
        // the sample includes deeper aggregation trees (the only place
        // short-circuiting can fire) than the generator alone produces
        let rule: LinkageRule = if rule_index % 3 == 2 {
            let a = generator.generate(&mut rng);
            let b = generator.generate(&mut rng);
            let operator =
                CrossoverOperator::SPECIALIZED[rule_index % CrossoverOperator::SPECIALIZED.len()];
            operator.apply(&a, &b, &mut rng)
        } else {
            generator.generate(&mut rng)
        };
        let compiled =
            CompiledRule::compile(&rule, dataset.source.schema(), dataset.target.schema());
        for pair_index in 0..20 {
            // half resolved matches, half random cross-product pairs, so both
            // the link and the (prunable) no-link paths are exercised
            let pair = if pair_index % 2 == 0 {
                positives[rng.gen_range(0..positives.len())]
            } else {
                EntityPair::new(
                    &source_entities[rng.gen_range(0..source_entities.len())],
                    &target_entities[rng.gen_range(0..target_entities.len())],
                )
            };
            let exhaustive = rule.evaluate(&pair);
            let bounded = compiled.evaluate_bounded_two_stats(
                pair.source,
                pair.target,
                &cache,
                &cache,
                LINK_THRESHOLD,
                &mut stats,
            );
            // classification is identical...
            assert_eq!(
                exhaustive >= LINK_THRESHOLD,
                bounded >= LINK_THRESHOLD,
                "classification flipped for {rule:?} on ({}, {}): exhaustive {exhaustive} vs bounded {bounded}",
                pair.source.id(),
                pair.target.id(),
            );
            // ...the bounded score never underestimates...
            assert!(
                bounded >= exhaustive,
                "bounded score {bounded} below exhaustive {exhaustive} for {rule:?}"
            );
            // ...and every link scores bit-for-bit like the exhaustive path
            if bounded >= LINK_THRESHOLD {
                assert_eq!(
                    exhaustive.to_bits(),
                    bounded.to_bits(),
                    "linked score not exact for {rule:?} on ({}, {})",
                    pair.source.id(),
                    pair.target.id(),
                );
                links += 1;
            }
            combinations += 1;
        }
    }
    assert!(combinations >= 1000, "only {combinations} combinations");
    assert!(
        links > 50,
        "only {links} links exercised the exactness path"
    );
    assert_eq!(stats.pairs, combinations as u64);
    assert!(
        stats.comparisons_skipped > 0,
        "the random-rule sample never short-circuited — pruning is dead"
    );
    assert!(stats.comparisons_evaluated > 0);
}

#[test]
fn disabled_bound_reproduces_exhaustive_bit_for_bit() {
    // θ = -∞ leaves nothing to decide early, so the bounded evaluator must
    // reproduce the tree walk everywhere, not merely agree with it at the
    // threshold — this is what makes `CompiledRule::evaluate` exact
    let dataset = DatasetKind::Restaurant.generate(0.2, 5);
    let source_entities = dataset.source.entities();
    let target_entities = dataset.target.entities();
    let mut generator = RandomRuleGenerator::new(cora_restaurant_pairs(), RepresentationMode::Full);
    generator.transformation_probability = 0.5;
    let mut rng = StdRng::seed_from_u64(7);
    let cache = ValueCache::new();
    for _ in 0..40 {
        let rule = generator.generate(&mut rng);
        let compiled =
            CompiledRule::compile(&rule, dataset.source.schema(), dataset.target.schema());
        for _ in 0..10 {
            let pair = EntityPair::new(
                &source_entities[rng.gen_range(0..source_entities.len())],
                &target_entities[rng.gen_range(0..target_entities.len())],
            );
            let exhaustive = rule.evaluate(&pair);
            let bounded = compiled.evaluate_bounded(&pair, &cache, f64::NEG_INFINITY);
            assert_eq!(
                exhaustive.to_bits(),
                bounded.to_bits(),
                "θ=-∞ diverged for {rule:?}"
            );
            assert_eq!(
                exhaustive.to_bits(),
                compiled.evaluate(&pair, &cache).to_bits(),
                "evaluate is the bounded walk at θ=-∞"
            );
        }
    }
}

/// Compatible pairs over the Restaurant schema (name/address/city/type).
fn cora_restaurant_pairs() -> Vec<CompatiblePair> {
    let functions = [
        DistanceFunction::Levenshtein,
        DistanceFunction::Jaccard,
        DistanceFunction::JaroWinkler,
        DistanceFunction::Dice,
    ];
    ["name", "address", "city", "type"]
        .iter()
        .enumerate()
        .map(|(i, property)| CompatiblePair {
            source_property: property.to_string(),
            target_property: property.to_string(),
            function: functions[i % functions.len()],
            support: 0.5,
        })
        .collect()
}

#[test]
fn bounded_confusion_matrices_match_oracle_on_restaurant_links() {
    let dataset = DatasetKind::Restaurant.generate(0.2, 5);
    let resolved = linkdisc_entity::ResolvedReferenceLinks::resolve(
        &dataset.links,
        &dataset.source,
        &dataset.target,
    );
    let mut generator = RandomRuleGenerator::new(cora_restaurant_pairs(), RepresentationMode::Full);
    generator.transformation_probability = 0.5;
    let mut rng = StdRng::seed_from_u64(11);
    let cache = ValueCache::new();
    let mut stats = EvalStats::default();
    for _ in 0..25 {
        let rule = generator.generate(&mut rng);
        let compiled =
            CompiledRule::compile(&rule, dataset.source.schema(), dataset.target.schema());
        let oracle = evaluate_rule(&rule, &resolved);
        let bounded = evaluate_compiled_stats(&compiled, &resolved, &cache, &mut stats);
        assert_eq!(oracle, bounded, "matrices diverged for {rule:?}");
        // evaluate_compiled now routes through the bounded path too
        assert_eq!(oracle, evaluate_compiled(&compiled, &resolved, &cache));
    }
    assert!(stats.pairs > 0);
    assert!(
        stats.skip_rate() > 0.0,
        "reference-link scoring never short-circuited"
    );
}

#[test]
fn learned_restaurant_rule_short_circuits_without_changing_links() {
    // end-to-end: learn a rule the way the experiments do, then check the
    // bounded evaluator agrees with the exhaustive one on every pair of the
    // full cross product while skipping a meaningful share of comparisons
    let dataset = DatasetKind::Restaurant.generate(0.1, 3);
    let config = genlink::GenLinkConfig {
        gp: {
            let mut gp = genlink::GenLinkConfig::paper().gp;
            gp.population_size = 40;
            gp.max_iterations = 6;
            gp.threads = 1;
            gp
        },
        ..genlink::GenLinkConfig::paper()
    };
    let learner = genlink::GenLink::new(config);
    let outcome = learner.learn(&dataset.source, &dataset.target, &dataset.links, 42);
    let rule = &outcome.rule;
    assert!(!rule.is_empty(), "learning produced an empty rule");
    let compiled = CompiledRule::compile(rule, dataset.source.schema(), dataset.target.schema());
    let cache = ValueCache::new();
    let mut stats = EvalStats::default();
    let mut links = 0usize;
    for source in dataset.source.entities() {
        for target in dataset.target.entities() {
            let pair = EntityPair::new(source, target);
            let exhaustive = rule.evaluate(&pair);
            let bounded = compiled.evaluate_bounded_two_stats(
                source,
                target,
                &cache,
                &cache,
                LINK_THRESHOLD,
                &mut stats,
            );
            assert_eq!(exhaustive >= LINK_THRESHOLD, bounded >= LINK_THRESHOLD);
            if bounded >= LINK_THRESHOLD {
                assert_eq!(exhaustive.to_bits(), bounded.to_bits());
                links += 1;
            }
        }
    }
    assert!(links > 0, "the learned rule linked nothing");
    // learned rules aggregate several comparisons, so the cross product —
    // overwhelmingly non-matches — must short-circuit often; how often is
    // pinned over a whole learning run by prefix_probing_serving's
    // `a_warm_bounded_sweep_of_a_learned_rule_does_not_allocate`, this only
    // pins the mechanism
    if compiled.comparison_count() > 1 {
        assert!(
            stats.comparisons_skipped > 0,
            "no comparison skipped across the whole cross product"
        );
    }
}

/// One side's entities for the bound-evaluation property: `values[i]` holds
/// the `name` / `tags` / `year` value sets of entity `i` (any of them may be
/// empty), and the last entity follows a schema of its own — other property
/// order, one property missing — so the plan resolves it by name.
fn side(prefix: &str, schema: &Arc<Schema>, values: &[Vec<Vec<String>>]) -> Vec<Entity> {
    let mut entities: Vec<Entity> = values
        .iter()
        .enumerate()
        .map(|(i, sets)| {
            EntityBuilder::new(format!("{prefix}{i}"))
                .values("name", sets[0].clone())
                .values("tags", sets[1].clone())
                .values("year", sets[2].clone())
                .build(schema.clone())
        })
        .collect();
    entities.push(
        EntityBuilder::new(format!("{prefix}-foreign"))
            .value("year", "1999")
            .value("extra", "x")
            .values("name", ["Ab c", "b"])
            .build_with_own_schema(),
    );
    entities
}

/// Nested chains sharing one intermediate slot: `lowerCase(name)` is read as
/// values, tokenized into a Jaccard slot (ids beside values), punctuation-
/// stripped, and concatenated with `year` — so the bind computes the
/// intermediate cell once per entity and feeds four outputs from it, on both
/// sides.
fn nested_chain_rule() -> LinkageRule {
    let lower = || transform(TransformFunction::LowerCase, vec![property("name")]);
    let tokens = || transform(TransformFunction::Tokenize, vec![lower()]);
    aggregation(
        AggregationFunction::WeightedMean,
        vec![
            compare(lower(), lower(), DistanceFunction::Levenshtein, 2.0),
            compare(tokens(), tokens(), DistanceFunction::Jaccard, 0.8),
            compare(
                transform(TransformFunction::StripPunctuation, vec![lower()]),
                tokens(),
                DistanceFunction::Equality,
                0.5,
            ),
            compare(
                transform(
                    TransformFunction::Concatenate,
                    vec![lower(), property("year")],
                ),
                transform(
                    TransformFunction::Concatenate,
                    vec![tokens(), property("year")],
                ),
                DistanceFunction::Dice,
                0.9,
            ),
        ],
    )
    .into()
}

/// The edges of the one-pass bind: a concatenation of a property with one
/// that is empty on some entities and missing on the foreign one (`tags`),
/// or missing from the schema; one rule reading both `lowerCase(name)` and
/// `tokenize(lowerCase(name))`; and one property read directly and through
/// a transformation, on the same side.
fn one_pass_edge_rules() -> Vec<LinkageRule> {
    use TransformFunction::{Concatenate, LowerCase, StripPunctuation, Tokenize};
    let lower = || transform(LowerCase, vec![property("name")]);
    let tokens = || transform(Tokenize, vec![lower()]);
    vec![
        compare(
            transform(Concatenate, vec![property("name"), property("tags")]),
            transform(Concatenate, vec![property("missing"), property("year")]),
            DistanceFunction::Levenshtein,
            3.0,
        )
        .into(),
        aggregation(
            AggregationFunction::Max,
            vec![
                compare(lower(), lower(), DistanceFunction::Levenshtein, 1.0),
                compare(tokens(), tokens(), DistanceFunction::Dice, 0.7),
            ],
        )
        .into(),
        aggregation(
            AggregationFunction::WeightedMean,
            vec![
                compare(
                    property("name"),
                    lower(),
                    DistanceFunction::Levenshtein,
                    2.0,
                ),
                compare(lower(), property("name"), DistanceFunction::Jaccard, 0.6),
                compare(
                    property("tags"),
                    transform(StripPunctuation, vec![property("tags")]),
                    DistanceFunction::Equality,
                    0.5,
                ),
            ],
        )
        .into(),
    ]
}

proptest! {
    /// Bound evaluation *is* `evaluate_bounded_two_stats`: same score bits
    /// and same `EvalStats` for every pair, at the link threshold and at
    /// θ = -∞, over random rules whose comparisons share chains within and
    /// across sides (few properties, up to four comparisons, Jaccard/Dice
    /// slots next to value slots), one rule of nested chains over a shared
    /// intermediate slot and the one-pass bind's edge rules, entities with
    /// empty value sets and a foreign-schema entity per side.  The bound
    /// sides are filled in one pass and never see the cache the reference
    /// side reads.  Last, a bind through a partially warm pool memo — the
    /// intermediate column held, the output column not — scores the same.
    #[test]
    fn bound_evaluation_equals_cached_evaluation(
        sources in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec("[a-cA-C ]{0,5}", 0..3), 3..4),
            1..5,
        ),
        targets in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec("[a-cA-C ]{0,5}", 0..3), 3..4),
            1..5,
        ),
        seed in 0u64..1_000_000,
    ) {
        let schema = Arc::new(Schema::new(["name", "tags", "year"]));
        let sources = side("s", &schema, &sources);
        let targets = side("t", &schema, &targets);
        let functions = [
            DistanceFunction::Levenshtein,
            DistanceFunction::Jaccard,
            DistanceFunction::Dice,
            DistanceFunction::Equality,
            DistanceFunction::Jaccard,
            DistanceFunction::Numeric,
        ];
        // same-property and cross-property pairs, so a chain such as
        // lowerCase(name) is read by several comparisons, as values and as ids
        let pairs: Vec<CompatiblePair> = [
            ("name", "name"),
            ("name", "tags"),
            ("tags", "tags"),
            ("tags", "name"),
            ("name", "name"),
            ("year", "year"),
        ]
        .iter()
        .zip(functions)
        .map(|(&(source, target), function)| CompatiblePair {
            source_property: source.to_string(),
            target_property: target.to_string(),
            function,
            support: 0.5,
        })
        .collect();
        let mut generator = RandomRuleGenerator::new(pairs, RepresentationMode::Full);
        generator.transformation_probability = 0.6;
        generator.max_comparisons = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let cache = ValueCache::new();
        let mut rules: Vec<LinkageRule> = (0..4)
            .map(|round| {
                if round % 2 == 1 {
                    let (a, b) = (generator.generate(&mut rng), generator.generate(&mut rng));
                    CrossoverOperator::SPECIALIZED[round].apply(&a, &b, &mut rng)
                } else {
                    generator.generate(&mut rng)
                }
            })
            .collect();
        rules.push(nested_chain_rule());
        rules.extend(one_pass_edge_rules());
        for rule in &rules {
            let compiled = CompiledRule::compile(rule, &schema, &schema);
            let bound_sources = compiled.bind_source(sources.iter());
            let bound_targets = compiled.bind_target(targets.iter());
            for threshold in [LINK_THRESHOLD, f64::NEG_INFINITY] {
                for (s, source) in sources.iter().enumerate() {
                    for (t, target) in targets.iter().enumerate() {
                        let (mut cached_stats, mut bound_stats) =
                            (EvalStats::default(), EvalStats::default());
                        let cached = compiled.evaluate_bounded_two_stats(
                            source, target, &cache, &cache, threshold, &mut cached_stats,
                        );
                        let bound = compiled.evaluate_bound_stats(
                            &bound_sources, s, &bound_targets, t, threshold, &mut bound_stats,
                        );
                        prop_assert_eq!(
                            cached.to_bits(),
                            bound.to_bits(),
                            "{:?} on ({}, {}) at {}", rule, source.id(), target.id(), threshold
                        );
                        prop_assert_eq!(cached_stats, bound_stats);
                        if threshold == f64::NEG_INFINITY {
                            let pair = EntityPair::new(source, target);
                            prop_assert_eq!(bound.to_bits(), rule.evaluate(&pair).to_bits());
                        }
                    }
                }
            }
        }

        // a pool over the same cross product, warmed with lowerCase(name)
        // alone: tokenize(lowerCase(name)) then binds through it from the
        // held intermediate column, computing only its output's values and ids
        let pool = ReferenceColumns::new(
            sources.iter().flat_map(|s| targets.iter().map(move |t| (s, t))),
            ReferenceColumns::CELLS,
        );
        let lower = || transform(TransformFunction::LowerCase, vec![property("name")]);
        let tokens = || transform(TransformFunction::Tokenize, vec![lower()]);
        let warm: LinkageRule = compare(lower(), lower(), DistanceFunction::Levenshtein, 2.0).into();
        pool.distance_columns(&CompiledRule::compile(&warm, &schema, &schema));
        let partial: LinkageRule = compare(tokens(), tokens(), DistanceFunction::Jaccard, 0.8).into();
        let compiled = CompiledRule::compile(&partial, &schema, &schema);
        let columns = pool.distance_columns(&compiled);
        let stats = pool.stats();
        prop_assert_eq!((stats.values_held, stats.values_computed), (6, 6), "{:?}", stats);
        for threshold in [LINK_THRESHOLD, f64::NEG_INFINITY] {
            for (pair, &(s, t)) in pool.pairs().iter().enumerate() {
                let (mut cached_stats, mut column_stats) =
                    (EvalStats::default(), EvalStats::default());
                let cached = compiled.evaluate_bounded_two_stats(
                    &sources[s as usize], &targets[t as usize], &cache, &cache, threshold,
                    &mut cached_stats,
                );
                let measured =
                    compiled.evaluate_columns_stats(&columns, pair, threshold, &mut column_stats);
                prop_assert_eq!(cached.to_bits(), measured.to_bits(), "pair {} at {}", pair, threshold);
                prop_assert_eq!(cached_stats, column_stats);
            }
        }
    }
}

/// Asserts that scoring `rule` from distance columns measured through
/// `pool`'s memo *is* `evaluate_bound_stats` on every pair of the pool
/// (sides bound without a memo): score bits and `EvalStats` field for field,
/// at the link threshold and at `lo = −∞`.  Returns the number of pairs
/// scoring at or above the link threshold.
fn assert_columns_score_like_bound_sides(rule: &LinkageRule, pool: &ReferenceColumns) -> usize {
    let (sources, targets) = (pool.sources(), pool.targets());
    let schema = |entities: &[&Entity]| entities[0].schema().clone();
    let compiled = CompiledRule::compile(rule, &schema(sources), &schema(targets));
    let bound_sources = compiled.bind_source(sources.iter().copied());
    let bound_targets = compiled.bind_target(targets.iter().copied());
    let columns: Vec<DistanceColumn> = (0..compiled.comparison_count() as usize)
        .map(|comparison| pool.measure(&compiled, comparison))
        .collect();
    assert_eq!(columns.len(), compiled.distance_keys().count());
    let mut links = 0;
    for lo in [LINK_THRESHOLD, f64::NEG_INFINITY] {
        for (pair, &(s, t)) in pool.pairs().iter().enumerate() {
            let (s, t) = (s as usize, t as usize);
            let (mut bound_stats, mut column_stats) = (EvalStats::default(), EvalStats::default());
            let bound = compiled.evaluate_bound_stats(
                &bound_sources,
                s,
                &bound_targets,
                t,
                lo,
                &mut bound_stats,
            );
            let measured = compiled.evaluate_columns_stats(&columns, pair, lo, &mut column_stats);
            assert_eq!(
                bound.to_bits(),
                measured.to_bits(),
                "{rule:?} on ({}, {}) at lo = {lo}: kernels {bound}, columns {measured}",
                sources[s].id(),
                targets[t].id(),
            );
            assert_eq!(bound_stats, column_stats, "{rule:?} at lo = {lo}");
            if lo == LINK_THRESHOLD && measured >= LINK_THRESHOLD {
                links += 1;
            }
        }
    }
    links
}

/// A pool over up to `limit` positive and `limit` negative pairs of a
/// resolved link set.
fn pool<'a>(resolved: &ResolvedReferenceLinks<'a>, limit: usize) -> ReferenceColumns<'a> {
    let positive = resolved.positive().iter().take(limit);
    let pairs = positive.chain(resolved.negative().iter().take(limit));
    ReferenceColumns::new(
        pairs.map(|pair| (pair.source, pair.target)),
        ReferenceColumns::CELLS,
    )
}

/// Asserts that a memo transformed every chain once: no drop, and as many
/// value columns computed as it holds.
fn assert_each_chain_computed_once(stats: ColumnStats, what: &str) {
    assert_eq!(stats.drops, 0, "{what}: {stats:?}");
    assert!(stats.values_held > 0, "{what}: {stats:?}");
    assert_eq!(
        stats.values_computed, stats.values_held as u64,
        "{what}: a chain was transformed twice: {stats:?}"
    );
}

/// GP-shaped rules over `pairs` drawing on **every** measure: random rules
/// of up to four comparisons, and — two in three — offspring of the
/// specialised crossover operators, which is where shared chains, nested
/// chains (transformation crossover) and foreign thresholds (function
/// crossover keeps the donor's: a Date's 100 on a Levenshtein) come from.
fn gp_rules(pairs: Vec<CompatiblePair>, count: usize, seed: u64) -> Vec<LinkageRule> {
    let mut generator = RandomRuleGenerator::new(pairs, RepresentationMode::Full);
    generator.transformation_probability = 0.6;
    generator.max_comparisons = 4;
    generator.distance_functions = DistanceFunction::ALL.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rules: Vec<LinkageRule> = Vec::with_capacity(count);
    while rules.len() < count {
        let rule = if rules.len().is_multiple_of(3) || rules.len() < 2 {
            generator.generate(&mut rng)
        } else {
            let a = &rules[rng.gen_range(0..rules.len())];
            let b = &rules[rng.gen_range(0..rules.len())];
            let operator =
                CrossoverOperator::SPECIALIZED[rules.len() % CrossoverOperator::SPECIALIZED.len()];
            operator.apply(a, b, &mut rng)
        };
        if !rule.is_empty() {
            rules.push(rule);
        }
    }
    rules
}

#[test]
fn distance_columns_score_like_kernels_over_random_gp_rules() {
    let mut rules_checked = 0;
    let mut links = 0;
    let mut measures = std::collections::HashSet::new();
    for (kind, scale) in [
        (DatasetKind::Cora, 0.04),
        (DatasetKind::Restaurant, 0.5),
        (DatasetKind::SiderDrugBank, 0.08),
    ] {
        let dataset = kind.generate(scale, 29);
        let resolved =
            ResolvedReferenceLinks::resolve(&dataset.links, &dataset.source, &dataset.target);
        let pool = pool(&resolved, 24);
        // seeded pairs cycle through every measure so each is the pair's own
        // function somewhere, beside the generator's uniform draw
        let mut compatible = find_compatible_properties(
            &dataset.source,
            &dataset.target,
            &dataset.links,
            &SeedingConfig::default(),
        );
        assert!(!compatible.is_empty(), "{kind}: nothing to seed from");
        for (i, pair) in compatible.iter_mut().enumerate() {
            pair.function = DistanceFunction::ALL[i % DistanceFunction::ALL.len()];
        }
        let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
        for rule in gp_rules(compatible, 110, 4711) {
            links += assert_columns_score_like_bound_sides(&rule, &pool);
            // the learner's path end to end: memoized columns, shared
            // across the rules of this loop, against the tree walk
            assert_eq!(
                fitness.confusion(&rule),
                fitness.confusion_tree_walk(&rule),
                "{kind}: {rule:?}"
            );
            let root = rule.root().expect("non-empty rule");
            measures.extend(root.comparisons().iter().map(|c| c.function));
            rules_checked += 1;
        }
        let stats = fitness.column_stats();
        assert!(
            stats.distance_hits > stats.distance_misses,
            "{kind}: crossover offspring must reuse their parents' columns: {stats:?}"
        );
        // a chain is transformed once per run, however many rules and
        // comparisons read it — in the fitness function's memo and in this
        // loop's own
        assert_each_chain_computed_once(stats, &format!("{kind} fitness"));
        assert_each_chain_computed_once(pool.stats(), &format!("{kind} pool"));
    }
    assert!(rules_checked >= 300, "only {rules_checked} rules");
    assert!(links > 300, "only {links} linked pairs exercised exactness");
    assert_eq!(
        measures.len(),
        DistanceFunction::ALL.len(),
        "measures never drawn: {measures:?}"
    );
}

/// Two single-property sources for the hand-built distance-column cases.
/// Source values by entity: an exact and a one-edit spelling, a pure-ASCII
/// value eleven edits from its partner, a non-ASCII value (the reference-DP
/// fallback) one edit from its partner, an empty value set, a 60-character
/// value fifty-one edits from its partner.
fn adversarial_sources() -> (DataSource, DataSource, ReferenceLinks) {
    let long = "x".repeat(60);
    let long_partner = format!("{}{}", "x".repeat(9), "y".repeat(51));
    let mut a = DataSourceBuilder::new("A", ["name"]);
    let mut b = DataSourceBuilder::new("B", ["name"]);
    let rows: [(&[&str], &[&str]); 8] = [
        (&["abcd", "kitten"], &["sitting", "abcd"]),
        (&["abcdefgh"], &["abcdxyzh"]),
        (&["abcdefghijk"], &["zzzzzzzzzzz"]),
        (&["naïve café"], &["naive café"]),
        (&[], &["anything"]),
        (&["something"], &[]),
        (&[long.as_str()], &[long_partner.as_str()]),
        (&["abcdefghij"], &["0123456789"]),
    ];
    let mut positives = Vec::new();
    for (i, (source, target)) in rows.iter().enumerate() {
        a = a
            .entity(format!("a{i}"), source.iter().map(|v| ("name", *v)))
            .unwrap();
        b = b
            .entity(format!("b{i}"), target.iter().map(|v| ("name", *v)))
            .unwrap();
        positives.push(Link::new(format!("a{i}"), format!("b{i}")));
    }
    let negatives = (0..rows.len())
        .map(|i| Link::new(format!("a{i}"), format!("b{}", (i + 3) % rows.len())))
        .collect();
    (
        a.build(),
        b.build(),
        ReferenceLinks::new(positives, negatives),
    )
}

#[test]
fn distance_columns_survive_adversarial_thresholds_and_values() {
    let (source, target, links) = adversarial_sources();
    let resolved = ResolvedReferenceLinks::resolve(&links, &source, &target);
    let pool = pool(&resolved, usize::MAX);
    assert_eq!(pool.pairs().len(), 16);
    let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
    // thresholds on both sides of the band switch at ⌊θ⌋ = 10, distances
    // exactly on a threshold (3 at θ = 3, 10 at θ = 10, 51 at θ = 51, 0 at
    // θ ≤ 0), and the degenerate ones
    let thresholds = [
        -1.0,
        0.0,
        0.5,
        1.0,
        3.0,
        3.999,
        10.0,
        10.5,
        11.0,
        12.0,
        51.0,
        1e12,
        f64::INFINITY,
        f64::NAN,
    ];
    let lower = || transform(TransformFunction::LowerCase, vec![property("name")]);
    for function in DistanceFunction::ALL {
        for threshold in thresholds {
            let single: LinkageRule =
                compare(property("name"), property("name"), function, threshold).into();
            // the same comparison beside a sibling that shares its column
            // under another threshold, under each aggregation
            for aggregate in [
                AggregationFunction::Min,
                AggregationFunction::Max,
                AggregationFunction::WeightedMean,
            ] {
                let nested: LinkageRule = aggregation(
                    aggregate,
                    vec![
                        compare(property("name"), property("name"), function, threshold),
                        compare(property("name"), property("name"), function, 2.0),
                        compare(
                            lower(),
                            property("name"),
                            DistanceFunction::Levenshtein,
                            threshold,
                        ),
                    ],
                )
                .into();
                for rule in [&single, &nested] {
                    assert_columns_score_like_bound_sides(rule, &pool);
                    assert_eq!(
                        fitness.confusion(rule),
                        fitness.confusion_tree_walk(rule),
                        "{function} at θ = {threshold}: {rule:?}"
                    );
                }
            }
        }
    }
    // the whole grid read: one column per measure and source chain, plus the
    // unbanded Levenshtein ones of the thresholds past the band
    let stats = fitness.column_stats();
    assert_eq!(
        stats.distance_misses,
        DistanceFunction::ALL.len() as u64 + 3,
        "{stats:?}"
    );
    assert_each_chain_computed_once(stats, "fitness");
    assert_each_chain_computed_once(pool.stats(), "pool");
}

/// A pool of Cora links and a population's worth of rules over it.
fn memo_fixture() -> (linkdisc_datasets::Dataset, Vec<LinkageRule>) {
    let dataset = DatasetKind::Cora.generate(0.03, 5);
    let compatible = find_compatible_properties(
        &dataset.source,
        &dataset.target,
        &dataset.links,
        &SeedingConfig::default(),
    );
    (dataset, gp_rules(compatible, 60, 99))
}

#[test]
fn a_memo_dropped_mid_run_changes_no_fitness() {
    let (dataset, rules) = memo_fixture();
    let resolved =
        ResolvedReferenceLinks::resolve(&dataset.links, &dataset.source, &dataset.target);
    let roomy = FitnessFunction::new(&resolved, ParsimonyModel::default());
    let expected: Vec<_> = rules.iter().map(|rule| roomy.evaluate(rule)).collect();
    let roomy = roomy.column_stats();
    assert_eq!(roomy.drops, 0, "{roomy:?}");
    // room for three distance columns, and for none: the memo is dropped
    // wholesale again and again — in the middle of batches, and between the
    // value columns of one bind
    for cells in [3 * resolved.len(), 0] {
        let tight = FitnessFunction::with_memo_cells(&resolved, ParsimonyModel::default(), cells);
        // one by one (the steady-state path) ...
        let one_by_one: Vec<_> = rules.iter().map(|rule| tight.evaluate(rule)).collect();
        assert_eq!(expected, one_by_one, "{cells} cells");
        // ... and a generation at a time, on one and on several threads
        let batch: Vec<&LinkageRule> = rules.iter().collect();
        for threads in [1, 3] {
            for generation in batch.chunks(20) {
                let prepared = tight.prepare_batch(generation, threads);
                for (rule, prepared) in generation.iter().zip(&prepared) {
                    let at = rules.iter().position(|known| known == *rule).unwrap();
                    assert_eq!(
                        tight.evaluate_prepared(rule, prepared),
                        expected[at],
                        "{cells} cells, {threads} threads"
                    );
                }
            }
        }
        let stats = tight.column_stats();
        assert!(
            stats.values_computed > roomy.values_computed
                && stats.distance_misses > 3 * roomy.distance_misses,
            "{cells} cells never dropped: {stats:?} against {roomy:?}"
        );
    }
}

#[test]
fn two_threads_missing_on_one_key_measure_twice_never_differently() {
    let (dataset, rules) = memo_fixture();
    let resolved =
        ResolvedReferenceLinks::resolve(&dataset.links, &dataset.source, &dataset.target);
    for rule in rules.iter().take(12) {
        let comparisons = rule.root().unwrap().comparisons().len() as u64;
        let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
        let start = std::sync::Barrier::new(2);
        let evaluate = || {
            start.wait();
            fitness.evaluate(rule)
        };
        let (first, second) = std::thread::scope(|scope| {
            let other = scope.spawn(evaluate);
            (evaluate(), other.join().unwrap())
        });
        assert_eq!(first, second);
        assert_eq!(
            fitness.confusion(rule),
            fitness.confusion_tree_walk(rule),
            "{rule:?}"
        );
        // every request is a hit or a miss, and at least one thread measured
        let stats = fitness.column_stats();
        let (hits, misses) = (stats.distance_hits, stats.distance_misses);
        assert_eq!(hits + misses, 3 * comparisons);
        assert!(misses >= 1 && misses <= 2 * comparisons, "{misses} misses");
    }
}
