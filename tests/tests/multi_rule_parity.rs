//! Property test: a multi-rule `LinkService` is observationally identical
//! to independent single-rule services — the shared leaf pool and the
//! one-store registry are pure optimisations.
//!
//! For random GP-generated rules over noisy datasets:
//!
//! 1. **N-rule == N singles** — an N-rule service fed by a seed-driven
//!    churn script answers `query_rule` for every registered name with
//!    exactly (bit-identical scores) the links of a single-rule service
//!    fed the same script, and `query_committee` merges those per-rule
//!    answers exactly,
//! 2. **Snapshots round-trip** — saving the multi-rule service and
//!    restoring it against a shuffled catalog reproduces every answer,
//!    and re-saving reproduces the bytes,
//! 3. **Register → deregister → re-register** is equivalent to never
//!    having dropped the rule: the re-registered rule answers like a
//!    service batch-built from the final entity set, and the leaf pool
//!    returns to its pre-drop footprint.

use genlink::random::RandomRuleGenerator;
use genlink::seeding::SeedingConfig;
use genlink::{find_compatible_properties, RepresentationMode};
use linkdisc_datasets::DatasetKind;
use linkdisc_matching::{CommitteeLink, LinkService, ScoredLink, ServiceOptions, DEFAULT_RULE};
use linkdisc_rule::LinkageRule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

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
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(9341));
    let rules = (0..count).map(|_| generator.generate(&mut rng)).collect();
    RuleWorkload { dataset, rules }
}

/// A replayable churn script: the same ops drive the multi-rule service
/// and every independent single-rule shadow.
#[derive(Clone)]
enum ChurnOp {
    Ingest(usize, usize),
    Remove(usize),
    Insert(usize),
}

fn churn_script(target_len: usize, seed: u64) -> Vec<ChurnOp> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(613));
    let mut ops = Vec::new();
    let mut pending = Vec::new();
    let mut cursor = 0;
    while cursor < target_len {
        let span = rng.gen_range(1..=16).min(target_len - cursor);
        ops.push(ChurnOp::Ingest(cursor, cursor + span));
        cursor += span;
        if rng.gen_bool(0.4) {
            let victim = rng.gen_range(0..cursor);
            if !pending.contains(&victim) {
                ops.push(ChurnOp::Remove(victim));
                pending.push(victim);
            }
        }
    }
    for victim in pending {
        ops.push(ChurnOp::Insert(victim));
    }
    ops
}

fn apply_churn(service: &mut LinkService, target: &linkdisc_entity::DataSource, ops: &[ChurnOp]) {
    for op in ops {
        match op {
            ChurnOp::Ingest(from, to) => {
                service.ingest(&target.entities()[*from..*to]).unwrap();
            }
            ChurnOp::Remove(i) => {
                assert!(service.remove(target.entities()[*i].id()));
            }
            ChurnOp::Insert(i) => {
                service.insert(&target.entities()[*i]).unwrap();
            }
        }
    }
}

/// Registry names: the construction rule keeps `DEFAULT_RULE`, the rest
/// are registered under `rule-<i>`.
fn names(count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            if i == 0 {
                DEFAULT_RULE.to_string()
            } else {
                format!("rule-{i}")
            }
        })
        .collect()
}

/// The committee answer recomputed from per-rule results, accumulating
/// score sums in registration order exactly as the service does — so the
/// mean is bit-identical, not merely close.
fn expected_committee(
    source: &linkdisc_entity::Entity,
    per_rule: &[Vec<ScoredLink>],
) -> Vec<CommitteeLink> {
    let mut tally: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for links in per_rule {
        for link in links {
            let entry = tally.entry(link.target.as_str()).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += link.score;
        }
    }
    let committee = per_rule.len();
    let mut links: Vec<CommitteeLink> = tally
        .into_iter()
        .map(|(target, (votes, score_sum))| CommitteeLink {
            source: source.id().to_string(),
            target: target.to_string(),
            votes,
            committee,
            mean_score: score_sum / votes as f64,
        })
        .collect();
    links.sort_by(|a, b| {
        b.votes
            .cmp(&a.votes)
            .then_with(|| b.mean_score.total_cmp(&a.mean_score))
            .then_with(|| a.target.cmp(&b.target))
    });
    links
}

fn snapshot_bytes(service: &LinkService) -> Vec<u8> {
    let mut bytes = Vec::new();
    service.save_snapshot(&mut bytes).unwrap();
    bytes
}

fn assert_multi_matches_singles(workload: &RuleWorkload, seed: u64) {
    let source = &workload.dataset.source;
    let target = &workload.dataset.target;
    let names = names(workload.rules.len());
    let ops = churn_script(target.len(), seed);

    let mut multi = LinkService::empty(
        workload.rules[0].clone(),
        source.schema(),
        target.schema(),
        ServiceOptions::default(),
    );
    for (name, rule) in names.iter().zip(&workload.rules).skip(1) {
        multi.register_rule(name, rule.clone()).unwrap();
    }
    let mut singles: Vec<LinkService> = workload
        .rules
        .iter()
        .map(|rule| {
            LinkService::empty(
                rule.clone(),
                source.schema(),
                target.schema(),
                ServiceOptions::default(),
            )
        })
        .collect();

    apply_churn(&mut multi, target, &ops);
    for single in &mut singles {
        apply_churn(single, target, &ops);
    }
    assert_eq!(multi.writer().len(), target.len());

    for entity in source.entities() {
        let per_rule: Vec<Vec<ScoredLink>> = singles
            .iter()
            .map(|single| single.reader().query(entity))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                multi.reader().query_rule(name, entity).as_ref(),
                Some(&per_rule[i]),
                "rule {name} diverges from its single-rule service on query {}",
                entity.id(),
            );
        }
        assert_eq!(
            multi.reader().query(entity),
            per_rule[0],
            "the default-rule path diverges on query {}",
            entity.id(),
        );
        assert_eq!(
            multi.reader().query_committee(entity),
            expected_committee(entity, &per_rule),
            "the committee merge diverges on query {}",
            entity.id(),
        );
    }

    // snapshots: restore against a *reversed* catalog (resolution is by
    // canonical hash, order and naming of the catalog must not matter),
    // then re-save — the bytes must round-trip exactly
    let bytes = snapshot_bytes(&multi);
    let catalog: Vec<(String, LinkageRule)> = names
        .iter()
        .zip(&workload.rules)
        .rev()
        .map(|(name, rule)| (format!("catalog-{name}"), rule.clone()))
        .collect();
    let restored = LinkService::restore_with_rules(&catalog, source.schema(), &bytes[..]).unwrap();
    assert_eq!(restored.writer().rule_names(), names);
    for entity in source.entities() {
        for name in &names {
            assert_eq!(
                restored.reader().query_rule(name, entity),
                multi.reader().query_rule(name, entity),
                "restored service diverges for rule {name} on query {}",
                entity.id(),
            );
        }
    }
    assert_eq!(
        snapshot_bytes(&restored),
        bytes,
        "snapshot bytes must round-trip bit-identically"
    );
}

fn assert_reregistration_is_lossless(workload: &RuleWorkload, seed: u64) {
    let source = &workload.dataset.source;
    let target = &workload.dataset.target;
    let extra = &workload.rules[1];
    let ops = churn_script(target.len(), seed);

    let mut service = LinkService::empty(
        workload.rules[0].clone(),
        source.schema(),
        target.schema(),
        ServiceOptions::default(),
    );
    apply_churn(&mut service, target, &ops);
    service.register_rule("extra", extra.clone()).unwrap();
    let footprint = service.writer().leaf_pool_stats();

    let before: Vec<Vec<ScoredLink>> = source
        .entities()
        .iter()
        .map(|entity| service.reader().query_rule("extra", entity).unwrap())
        .collect();

    service.deregister_rule("extra").unwrap();
    assert!(service
        .reader()
        .query_rule("extra", &source.entities()[0])
        .is_none());
    assert!(
        service.writer().leaf_pool_stats().refs <= footprint.refs,
        "deregistration must release the rule's leaf references"
    );

    service.register_rule("extra", extra.clone()).unwrap();
    let rebuilt = service.writer().leaf_pool_stats();
    assert_eq!(
        (rebuilt.entries, rebuilt.refs),
        (footprint.entries, footprint.refs),
        "re-registration must restore the exact leaf-pool footprint"
    );
    for (entity, expected) in source.entities().iter().zip(&before) {
        assert_eq!(
            service.reader().query_rule("extra", entity).as_ref(),
            Some(expected),
            "re-registered rule diverges on query {}",
            entity.id(),
        );
    }

    // ... and the re-registered service still answers like a batch build
    let batch = LinkService::build(
        extra.clone(),
        source.schema(),
        target,
        ServiceOptions::default(),
    )
    .unwrap();
    for entity in source.entities() {
        assert_eq!(
            service.reader().query_rule("extra", entity).unwrap(),
            batch.reader().query(entity),
            "re-registered rule diverges from a batch build on query {}",
            entity.id(),
        );
    }
}

#[test]
fn multi_rule_service_matches_independent_single_rule_services() {
    for seed in 0..3 {
        let workload = random_rules(DatasetKind::Restaurant, 0.08, seed, 4);
        assert_multi_matches_singles(&workload, seed);
    }
    let workload = random_rules(DatasetKind::Cora, 0.04, 5, 3);
    assert_multi_matches_singles(&workload, 5);
}

#[test]
fn reregistering_a_rule_is_lossless() {
    for seed in 0..2 {
        let workload = random_rules(DatasetKind::Restaurant, 0.08, seed, 2);
        assert_reregistration_is_lossless(&workload, seed);
    }
    let workload = random_rules(DatasetKind::Cora, 0.04, 7, 2);
    assert_reregistration_is_lossless(&workload, 7);
}
