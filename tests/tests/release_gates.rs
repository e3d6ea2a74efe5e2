//! Timing claims, each checked as a ratio of two wall-clock measurements on
//! the same host.  Every test is `#[ignore]`d: a debug build says nothing
//! about speed.  Run them in release:
//!
//! ```text
//! cargo test --release -p linkdisc-tests --test release_gates -- --ignored
//! ```
//!
//! Each side of a ratio is the best of three timed rounds, and each test
//! prints its reading.  The contracts behind these claims (equal links,
//! bit-identical scores, recovery == rebuild) are tier-1 tests elsewhere;
//! whole-job performance is measured by `linkbench` under `benchmark/`.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use genlink::random::RandomRuleGenerator;
use genlink::seeding::SeedingConfig;
use genlink::{find_compatible_properties, RepresentationMode};
use linkdisc_datasets::{Dataset, DatasetKind};
use linkdisc_entity::{Entity, ResolvedReferenceLinks};
use linkdisc_evaluation::{evaluate_compiled, evaluate_rule};
use linkdisc_gp::{Evaluated, FitnessCache};
use linkdisc_matching::{
    DurabilityOptions, DurableService, LinkService, MatchingEngine, MatchingOptions,
    ServiceOptions, ShardedService,
};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, CompiledRule, DistanceFunction,
    LinkageRule, SimilarityOperator, TransformFunction, ValueCache,
};
use linkdisc_similarity::{
    jaccard_distance, jaccard_ids, levenshtein_bounded, levenshtein_bounded_reference,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Held for the whole of each test, so no two timed tests compete for cores.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What `work` returns and the seconds it took.  The result is dropped
/// outside the timer.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = work();
    (result, start.elapsed().as_secs_f64())
}

/// Seconds `work` takes.
fn time(work: impl FnOnce()) -> f64 {
    timed(work).1
}

/// The fastest of three rounds, each returning the seconds it timed.
fn best_of_3(mut round: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| round()).fold(f64::INFINITY, f64::min)
}

/// Asserts `slow / fast >= at_least` and prints the reading.
fn assert_speedup(claim: &str, slow: f64, fast: f64, at_least: f64) {
    let speedup = slow / fast;
    println!("{claim}: {speedup:.2}x (≥ {at_least}x)");
    assert!(speedup >= at_least, "{claim}: {speedup:.2}x < {at_least}x");
}

fn fuzzy(name: &str, function: TransformFunction, threshold: f64) -> SimilarityOperator {
    compare(
        transform(function, vec![property(name)]),
        transform(function, vec![property(name)]),
        DistanceFunction::Levenshtein,
        threshold,
    )
}

fn name_and_phone(function: AggregationFunction) -> LinkageRule {
    aggregation(
        function,
        vec![
            fuzzy("name", TransformFunction::LowerCase, 2.0),
            fuzzy("phone", TransformFunction::DigitsOnly, 1.0),
        ],
    )
    .into()
}

/// 2,000 random pairs of Cora titles (both sides): medium-length strings with
/// realistic overlap.
fn title_pairs(cora: &Dataset) -> (Vec<&str>, Vec<(usize, usize)>) {
    let titles: Vec<&str> = cora
        .source
        .entities()
        .iter()
        .chain(cora.target.entities())
        .filter_map(|entity| entity.first_value("title"))
        .collect();
    let mut rng = StdRng::seed_from_u64(99);
    let pairs = (0..2000)
        .map(|_| {
            (
                rng.gen_range(0..titles.len()),
                rng.gen_range(0..titles.len()),
            )
        })
        .collect();
    (titles, pairs)
}

/// A population of 120 random rules, drawn like the learner's initial
/// population, scored three times over (as elitism and duplicate offspring
/// rescore genomes across generations) on Cora ×0.25's reference pairs: the
/// compiled evaluator behind the fitness cache beats the tree walk 3×.
#[test]
#[ignore]
fn compiled_and_cached_scoring_is_three_times_the_tree_walk() {
    let _serial = serial();
    let cora = DatasetKind::Cora.generate(0.25, 42);
    let resolved = ResolvedReferenceLinks::resolve(&cora.links, &cora.source, &cora.target);
    let pairs = find_compatible_properties(
        &cora.source,
        &cora.target,
        &cora.links,
        &SeedingConfig::default(),
    );
    let generator = RandomRuleGenerator::new(pairs, RepresentationMode::Full);
    let mut rng = StdRng::seed_from_u64(7);
    let population: Vec<LinkageRule> = (0..120).map(|_| generator.generate(&mut rng)).collect();
    let tree_walk = best_of_3(|| {
        time(|| {
            for _ in 0..3 {
                for rule in &population {
                    std::hint::black_box(evaluate_rule(rule, &resolved));
                }
            }
        })
    });
    let (source_schema, target_schema) = (cora.source.schema(), cora.target.schema());
    let cached = best_of_3(|| {
        let (fitness, values) = (FitnessCache::new(), ValueCache::new());
        time(|| {
            for _ in 0..3 {
                for rule in &population {
                    fitness.get_or_insert_with(rule.canonical_hash(), rule, || {
                        let compiled = CompiledRule::compile(rule, source_schema, target_schema);
                        let matrix = evaluate_compiled(&compiled, &resolved, &values);
                        Evaluated {
                            fitness: matrix.mcc(),
                            f_measure: matrix.f_measure(),
                        }
                    });
                }
            }
        })
    });
    assert_speedup(
        "compiled + fitness cache vs tree walk",
        tree_walk,
        cached,
        3.0,
    );
}

/// Bounded Levenshtein (bound 10) on Cora titles: the bit-parallel kernel
/// beats the banded dynamic program 3×.
#[test]
#[ignore]
fn bit_parallel_levenshtein_is_three_times_the_banded_dp() {
    let _serial = serial();
    let cora = DatasetKind::Cora.generate(0.25, 42);
    let (titles, pairs) = title_pairs(&cora);
    let time_kernel = |kernel: fn(&str, &str, usize) -> Option<usize>| {
        best_of_3(|| {
            time(|| {
                for _ in 0..5 {
                    for &(a, b) in &pairs {
                        std::hint::black_box(kernel(
                            std::hint::black_box(titles[a]),
                            std::hint::black_box(titles[b]),
                            10,
                        ));
                    }
                }
            })
        })
    };
    let banded = time_kernel(levenshtein_bounded_reference);
    let kernel = time_kernel(levenshtein_bounded);
    assert_speedup("Myers Levenshtein vs banded DP", banded, kernel, 3.0);
}

/// Jaccard over the whitespace tokens of Cora titles: merging sorted token
/// ids beats building `HashSet`s 2×.
#[test]
#[ignore]
fn sorted_id_jaccard_is_twice_the_hash_set() {
    let _serial = serial();
    let cora = DatasetKind::Cora.generate(0.25, 42);
    let (titles, pairs) = title_pairs(&cora);
    let tokens: Vec<Vec<String>> = titles
        .iter()
        .map(|title| title.split_whitespace().map(str::to_string).collect())
        .collect();
    let mut interned: HashMap<&str, u32> = HashMap::new();
    let ids: Vec<Vec<u32>> = tokens
        .iter()
        .map(|tokens| {
            let mut ids: Vec<u32> = tokens
                .iter()
                .map(|token| {
                    let next = interned.len() as u32;
                    *interned.entry(token).or_insert(next)
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();
    let time_pairs = |distance: &dyn Fn(usize, usize) -> f64| {
        best_of_3(|| {
            time(|| {
                for _ in 0..5 {
                    for &(a, b) in &pairs {
                        std::hint::black_box(distance(a, b));
                    }
                }
            })
        })
    };
    let hash_set = time_pairs(&|a, b| jaccard_distance(&tokens[a], &tokens[b]));
    let merge = time_pairs(&|a, b| jaccard_ids(&ids[a], &ids[b]));
    assert_speedup("sorted-id Jaccard vs HashSet", hash_set, merge, 2.0);
}

/// A durable Cora service that acknowledged 48 churn ops (96 logged epochs),
/// then crashed, recovers from its checkpoint and log faster than a rebuild
/// that re-derives the index and re-applies the churn.  Recovery writes a
/// fresh checkpoint, so every round first recreates the crashed directory,
/// outside the timer, and checks that the timed recovery replayed the log.
#[test]
#[ignore]
fn wal_recovery_is_faster_than_a_rebuild() {
    let _serial = serial();
    let cora = DatasetKind::Cora.generate(1.0, 42);
    let rule = || LinkageRule::from(fuzzy("title", TransformFunction::LowerCase, 3.0));
    let victims = &cora.target.entities()[..16];
    let dir = std::env::temp_dir().join(format!("linkdisc-release-gates-{}", std::process::id()));
    let crash = || {
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = DurableService::create(
            &dir,
            rule(),
            cora.source.schema(),
            &cora.target,
            ServiceOptions::default(),
            DurabilityOptions::default(),
        )
        .unwrap();
        for victim in victims.iter().cycle().take(48) {
            assert!(durable.remove(victim.id()).unwrap());
            durable.insert(victim).unwrap();
        }
    };
    let mut recovered = None;
    let recover = best_of_3(|| {
        crash();
        let ((service, report), seconds) = timed(|| {
            DurableService::recover(
                &dir,
                rule(),
                cora.source.schema(),
                DurabilityOptions::default(),
            )
            .unwrap()
        });
        assert_eq!(report.replayed_epochs, 96);
        recovered = Some(service);
        seconds
    });
    let mut rebuilt = None;
    let rebuild = best_of_3(|| {
        let (service, seconds) = timed(|| {
            let mut service = LinkService::build(
                rule(),
                cora.source.schema(),
                &cora.target,
                ServiceOptions::default(),
            )
            .unwrap();
            for victim in victims.iter().cycle().take(48) {
                assert!(service.remove(victim.id()));
                service.insert(victim).unwrap();
            }
            service
        });
        rebuilt = Some(service);
        seconds
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        recovered.unwrap().writer().stats(),
        rebuilt.unwrap().writer().stats()
    );
    assert_speedup("WAL recovery vs rebuild", rebuild, recover, 1.0);
}

/// Registering three rules onto a Restaurant service that already serves
/// their comparisons (the leaves come from the pool) is faster than building
/// one service per rule.
#[test]
#[ignore]
fn warm_rule_registration_is_faster_than_independent_services() {
    let _serial = serial();
    let data = DatasetKind::Restaurant.generate(1.0, 42);
    let (schema, target) = (data.source.schema(), &data.target);
    let family: [(&str, LinkageRule); 3] = [
        (
            "name",
            fuzzy("name", TransformFunction::LowerCase, 2.0).into(),
        ),
        (
            "phone",
            fuzzy("phone", TransformFunction::DigitsOnly, 1.0).into(),
        ),
        ("fallback", name_and_phone(AggregationFunction::Max)),
    ];
    let build = |rule: &LinkageRule| {
        LinkService::build(rule.clone(), schema, target, ServiceOptions::default()).unwrap()
    };
    let warm = best_of_3(|| {
        let mut service = build(&name_and_phone(AggregationFunction::Min));
        let seconds = time(|| {
            for (name, rule) in &family {
                service.register_rule(name, rule.clone()).unwrap();
            }
        });
        assert!(service.writer().leaf_pool_stats().hits > 0);
        seconds
    });
    let independent = best_of_3(|| {
        time(|| {
            for (_, rule) in &family {
                std::hint::black_box(build(rule));
            }
        })
    });
    assert_speedup(
        "warm registration vs independent services",
        independent,
        warm,
        1.0,
    );
}

/// Restaurant ×10 (4,256 × 4,256) under the name ∧ phone conjunction: the
/// indexed run links exactly what the exhaustive run links and scores under
/// 5% of the cross product.  A correctness check, but its exhaustive pass is
/// too slow for a debug build.
#[test]
#[ignore]
fn restaurant_x10_conjunction_is_lossless_and_prunes() {
    let _serial = serial();
    let data = DatasetKind::Restaurant.generate(10.0, 42);
    let rule = name_and_phone(AggregationFunction::Min);
    let exhaustive = MatchingEngine::new(rule.clone())
        .with_options(MatchingOptions {
            use_blocking: false,
            ..MatchingOptions::default()
        })
        .run(&data.source, &data.target);
    let indexed = MatchingEngine::new(rule).run(&data.source, &data.target);
    assert!(!exhaustive.links.is_empty());
    assert_eq!(indexed.links, exhaustive.links);
    let fraction = indexed.evaluated_pairs as f64 / indexed.cross_product as f64;
    println!("evaluated fraction: {fraction:.5}");
    assert!(fraction < 0.05, "{fraction}");
}

/// Cora ×1 (1,886 × 1,886) under the dense rule `max(lev(lowerCase title)
/// θ3, min(jaccard(tokens author) θ0.4, lev(lowerCase venue) θ2))`, one
/// thread: the blocked job — index build, probes and scoring of the fifth of
/// the cross product the union keeps — finds the exhaustive job's links at
/// least 4× faster.
#[test]
#[ignore]
fn blocked_cora_matching_is_four_times_the_exhaustive_run() {
    let _serial = serial();
    let data = DatasetKind::Cora.generate(1.0, 42);
    let authors = || {
        transform(
            TransformFunction::Tokenize,
            vec![transform(
                TransformFunction::LowerCase,
                vec![property("author")],
            )],
        )
    };
    let rule: LinkageRule = aggregation(
        AggregationFunction::Max,
        vec![
            fuzzy("title", TransformFunction::LowerCase, 3.0),
            aggregation(
                AggregationFunction::Min,
                vec![
                    compare(authors(), authors(), DistanceFunction::Jaccard, 0.4),
                    fuzzy("venue", TransformFunction::LowerCase, 2.0),
                ],
            ),
        ],
    )
    .into();
    let job = |use_blocking: bool| {
        let engine = MatchingEngine::new(rule.clone()).with_options(MatchingOptions {
            use_blocking,
            threads: 1,
            ..MatchingOptions::default()
        });
        let mut links = Vec::new();
        let seconds = best_of_3(|| {
            let (report, seconds) = timed(|| engine.run(&data.source, &data.target));
            links = report.links;
            seconds
        });
        (links, seconds)
    };
    let (exhaustive, exhaustive_s) = job(false);
    let (blocked, blocked_s) = job(true);
    assert!(!exhaustive.is_empty());
    assert_eq!(blocked, exhaustive);
    println!(
        "Cora ×1 dense rule: blocked {:.1} ms, exhaustive {:.1} ms",
        blocked_s * 1e3,
        exhaustive_s * 1e3
    );
    assert_speedup(
        "blocked vs exhaustive Cora ×1 matching",
        exhaustive_s,
        blocked_s,
        4.0,
    );
}

/// Remove/re-insert churn over 64 Restaurant entities, eight rounds, one
/// writer thread per shard: four shards sustain twice the writer ops/s of
/// one.
#[test]
#[ignore]
fn four_shard_writers_outpace_one_shard_twice() {
    let _serial = serial();
    let data = DatasetKind::Restaurant.generate(1.0, 42);
    let victims = &data.target.entities()[..64];
    let rule: LinkageRule = compare(
        property("phone"),
        property("phone"),
        DistanceFunction::Equality,
        0.5,
    )
    .into();
    let churn = |shards: usize| {
        best_of_3(|| {
            let service = ShardedService::build(
                rule.clone(),
                data.source.schema(),
                &data.target,
                shards,
                ServiceOptions::default(),
            )
            .unwrap();
            let router = service.router();
            let (writers, _reader) = service.split();
            time(|| {
                std::thread::scope(|scope| {
                    for (shard, mut writer) in writers.into_iter().enumerate() {
                        let mine: Vec<&Entity> = victims
                            .iter()
                            .filter(|victim| router.route(victim.id()) == shard)
                            .collect();
                        scope.spawn(move || {
                            for _ in 0..8 {
                                for victim in &mine {
                                    assert!(writer.remove(victim.id()));
                                    writer.insert(victim).unwrap();
                                }
                            }
                        });
                    }
                })
            })
        })
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let claim = format!("4-shard vs 1-shard writer ops/s on {cores} cores");
    assert_speedup(&claim, churn(1), churn(4), 2.0);
}
