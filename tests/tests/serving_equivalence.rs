//! Property test: the serving subsystem is equivalent to the batch path.
//!
//! For random rules (drawn from the same generator the GP learner uses)
//! over noisy datasets, three layers of equivalence must hold:
//!
//! 1. **Chunked == batch** — the engine's chunked runs produce exactly the
//!    batch links (ids and score bits) at every target and source chunk
//!    size: candidate generation is lossless on every partition of the
//!    target and the rule is the final filter.  `evaluated_pairs` is a cost, not a
//!    result — a conjunction stops where its chunk's posting statistics say
//!    scoring is cheaper than pruning — so it is only bounded, not equal,
//! 2. **Incremental == batch build** — a `LinkService` populated by any
//!    interleaving of chunked ingestion, removes and re-inserts answers
//!    every query exactly like a service batch-built from the same final
//!    entity set, with identical (exact) index statistics,
//! 3. **Service == engine** — the per-entity `ServiceReader::query` results,
//!    concatenated over all source entities, are the batch
//!    `MatchingEngine` link set.

use genlink::random::RandomRuleGenerator;
use genlink::seeding::SeedingConfig;
use genlink::{find_compatible_properties, RepresentationMode};
use linkdisc_datasets::DatasetKind;
use linkdisc_matching::{LinkService, MatchingEngine, MatchingOptions, ScoredLink, ServiceOptions};
use linkdisc_rule::LinkageRule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct RuleWorkload {
    dataset: linkdisc_datasets::Dataset,
    rules: Vec<LinkageRule>,
}

fn random_rules(kind: DatasetKind, scale: f64, seed: u64, count: usize) -> RuleWorkload {
    let dataset = kind.generate(scale, seed);
    let pairs = find_compatible_properties(
        &dataset.source,
        &dataset.target,
        &dataset.links,
        &SeedingConfig::default(),
    );
    assert!(!pairs.is_empty(), "seeding found no compatible properties");
    let generator = RandomRuleGenerator::new(pairs, RepresentationMode::Full);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(4177));
    let rules = (0..count).map(|_| generator.generate(&mut rng)).collect();
    RuleWorkload { dataset, rules }
}

fn sort_links(mut links: Vec<ScoredLink>) -> Vec<ScoredLink> {
    links.sort_by(|a, b| {
        a.source
            .cmp(&b.source)
            .then_with(|| b.score.total_cmp(&a.score))
            .then_with(|| a.target.cmp(&b.target))
    });
    links
}

/// Chunked engine runs — the target alone, or both sides — must link
/// exactly what the batch run links.  The contract: links and scores are chunking- and thread-invariant;
/// `evaluated_pairs` is a cost and is only thread-invariant (posting
/// statistics, and with them the point where a conjunction stops pruning,
/// are per chunk) — across chunkings it stays within `links ≤ evaluated
/// pairs ≤ cross product`.
fn assert_chunked_matches_batch(workload: &RuleWorkload) {
    for rule in &workload.rules {
        let batch = MatchingEngine::new(rule.clone())
            .with_options(MatchingOptions {
                threads: 2,
                ..MatchingOptions::default()
            })
            .run(&workload.dataset.source, &workload.dataset.target);
        // (source chunk size, target chunk size); 0 = the whole source
        for (source_chunk_size, chunk_size) in [(0, 1), (0, 7), (0, 64), (1, 7), (7, 7)] {
            let chunked = MatchingEngine::new(rule.clone())
                .with_options(MatchingOptions {
                    threads: 2,
                    chunk_size,
                    source_chunk_size,
                    ..MatchingOptions::default()
                })
                .run(&workload.dataset.source, &workload.dataset.target);
            let at = format!(
                "source chunk size {source_chunk_size}, chunk size {chunk_size}, rule {}",
                linkdisc_rule::print_rule(rule),
            );
            assert_eq!(chunked.links, batch.links, "links diverge at {at}");
            assert!(
                chunked.links.len() <= chunked.evaluated_pairs
                    && chunked.evaluated_pairs <= chunked.cross_product,
                "evaluated pairs out of bounds at {at}"
            );
            assert_eq!(
                chunked.chunks,
                workload.dataset.target.len().div_ceil(chunk_size),
                "each target chunk is indexed once at {at}"
            );
            assert!(chunked.peak_chunk_entities <= chunk_size, "{at}");
            if source_chunk_size > 0 {
                assert!(
                    chunked.peak_source_chunk_entities <= source_chunk_size,
                    "{at}"
                );
            }
            assert_eq!(chunked.source_entities, workload.dataset.source.len());
            assert_eq!(chunked.target_entities, workload.dataset.target.len());
        }
    }
}

/// A `LinkService` built incrementally — chunked ingestion interleaved with
/// removes and re-inserts in a seed-driven order — must be query-equivalent
/// to one batch-built from the final entity set, with identical statistics.
fn assert_incremental_matches_batch_build(workload: &RuleWorkload, seed: u64) {
    let source = &workload.dataset.source;
    let target = &workload.dataset.target;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(271));
    for rule in &workload.rules {
        let batch = LinkService::build(
            rule.clone(),
            source.schema(),
            target,
            ServiceOptions::default(),
        )
        .unwrap();
        let mut service = LinkService::empty(
            rule.clone(),
            source.schema(),
            target.schema(),
            ServiceOptions::default(),
        );
        // ingest in random-sized chunks, occasionally removing an
        // already-ingested entity to be re-inserted later
        let mut pending_reinserts = Vec::new();
        let mut cursor = 0;
        while cursor < target.len() {
            let span = rng.gen_range(1..=16).min(target.len() - cursor);
            service
                .ingest(&target.entities()[cursor..cursor + span])
                .unwrap();
            cursor += span;
            if rng.gen_bool(0.4) {
                let victim = &target.entities()[rng.gen_range(0..cursor)];
                if service.remove(victim.id()) {
                    pending_reinserts.push(victim);
                }
            }
        }
        for entity in pending_reinserts {
            service.insert(entity).unwrap();
        }
        assert_eq!(service.writer().len(), target.len());
        assert_eq!(
            service.writer().stats(),
            batch.writer().stats(),
            "index statistics diverge for rule {}",
            linkdisc_rule::print_rule(rule),
        );
        for entity in source.entities() {
            assert_eq!(
                service.reader().query(entity),
                batch.reader().query(entity),
                "query {} diverges for rule {}",
                entity.id(),
                linkdisc_rule::print_rule(rule),
            );
        }
    }
}

/// Single-entity queries, concatenated over the whole source, must
/// reproduce the batch engine's link set.
fn assert_service_matches_engine(workload: &RuleWorkload) {
    let source = &workload.dataset.source;
    let target = &workload.dataset.target;
    for rule in &workload.rules {
        let engine_links = MatchingEngine::new(rule.clone())
            .with_options(MatchingOptions {
                threads: 2,
                ..MatchingOptions::default()
            })
            .run(source, target)
            .links;
        let service = LinkService::build(
            rule.clone(),
            source.schema(),
            target,
            ServiceOptions::default(),
        )
        .unwrap();
        let service_links = sort_links(
            source
                .entities()
                .iter()
                .flat_map(|entity| service.reader().query(entity))
                .collect(),
        );
        assert_eq!(
            service_links,
            engine_links,
            "service and engine links diverge for rule {}",
            linkdisc_rule::print_rule(rule),
        );
    }
}

#[test]
fn chunked_runs_are_equivalent_to_batch_runs() {
    for seed in 0..3 {
        let workload = random_rules(DatasetKind::Restaurant, 0.08, seed, 5);
        assert_chunked_matches_batch(&workload);
    }
    let workload = random_rules(DatasetKind::Cora, 0.04, 1, 4);
    assert_chunked_matches_batch(&workload);
}

#[test]
fn incremental_ingestion_is_equivalent_to_batch_builds() {
    for seed in 0..3 {
        let workload = random_rules(DatasetKind::Restaurant, 0.08, seed, 5);
        assert_incremental_matches_batch_build(&workload, seed);
    }
    let workload = random_rules(DatasetKind::LinkedMdb, 0.05, 2, 4);
    assert_incremental_matches_batch_build(&workload, 2);
}

#[test]
fn service_queries_reproduce_engine_links() {
    for seed in 0..3 {
        let workload = random_rules(DatasetKind::Restaurant, 0.08, seed, 5);
        assert_service_matches_engine(&workload);
    }
    let workload = random_rules(DatasetKind::Cora, 0.04, 3, 4);
    assert_service_matches_engine(&workload);
}
