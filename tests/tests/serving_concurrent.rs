//! Stress and property tests for the concurrent, persistent serving layer.
//!
//! 1. **Linearizable-to-epochs reads** — reader threads query while a
//!    `ServiceWriter` churns inserts and removes.  The op sequence is first
//!    replayed sequentially to record, per published epoch version, the
//!    expected result of every probe query; the concurrent run then asserts
//!    that *every* observed `(version, result)` pair matches the recorded
//!    expectation — i.e. each read equals the result against some epoch the
//!    writer actually published, never a torn in-between state.
//! 2. **Restore == rebuild** — for random rules (the GP generator) over
//!    Restaurant and Cora, a snapshot round-trip reproduces the service
//!    bit-identically: stats, free-list discipline, every query result, and
//!    equal behaviour under further mutation.
//! 3. **Cross-shard linearizability replay** — one writer thread per shard
//!    churns concurrently with reader threads querying through a
//!    `ShardedReader`.  Routing is a pure function of the id, so each
//!    shard's op subsequence (and hence its epoch chain) is identical to a
//!    sequential replay; every observed per-shard `(version, result)` pair
//!    must equal the sequentially recorded expectation, and each reader's
//!    pinned version per shard never goes backwards — mutations become
//!    visible in acknowledgement order within a shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use genlink::random::RandomRuleGenerator;
use genlink::seeding::SeedingConfig;
use genlink::{find_compatible_properties, RepresentationMode};
use linkdisc_datasets::DatasetKind;
use linkdisc_entity::Entity;
use linkdisc_matching::{
    CandidateScratch, LinkService, ServiceOptions, ServiceWriter, ShardSlot, ShardedScratch,
    ShardedService,
};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, LinkageRule,
    TransformFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn restaurant_rule() -> LinkageRule {
    aggregation(
        AggregationFunction::Min,
        vec![
            compare(
                transform(TransformFunction::LowerCase, vec![property("name")]),
                transform(TransformFunction::LowerCase, vec![property("name")]),
                DistanceFunction::Levenshtein,
                2.0,
            ),
            compare(
                transform(TransformFunction::DigitsOnly, vec![property("phone")]),
                transform(TransformFunction::DigitsOnly, vec![property("phone")]),
                DistanceFunction::Levenshtein,
                1.0,
            ),
        ],
    )
    .into()
}

/// One writer op of the churn script: remove an entity or re-insert it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Remove(usize),
    Insert(usize),
}

/// A deterministic remove/re-insert script over the target entities.
fn churn_script(target_len: usize, ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut removed: Vec<usize> = Vec::new();
    let mut script = Vec::with_capacity(ops);
    for _ in 0..ops {
        let reinsert = !removed.is_empty() && (removed.len() > target_len / 3 || rng.gen_bool(0.5));
        if reinsert {
            let at = rng.gen_range(0..removed.len());
            script.push(Op::Insert(removed.swap_remove(at)));
        } else {
            let entity = rng.gen_range(0..target_len);
            if removed.contains(&entity) {
                script.push(Op::Insert(
                    removed.swap_remove(removed.iter().position(|&e| e == entity).unwrap()),
                ));
            } else {
                removed.push(entity);
                script.push(Op::Remove(entity));
            }
        }
    }
    script
}

fn apply(writer: &mut ServiceWriter, target: &[Entity], op: Op) {
    match op {
        Op::Remove(at) => {
            assert!(writer.remove(target[at].id()));
        }
        Op::Insert(at) => {
            writer.insert(&target[at]).unwrap();
        }
    }
}

/// The probe fingerprint of one epoch: sorted `(position, score bits)` per
/// probe entity.
fn fingerprint(
    reader: &linkdisc_matching::ServiceReader,
    probes: &[&Entity],
    scratch: &mut CandidateScratch,
) -> (u64, Vec<Vec<(u32, u64)>>) {
    let mut results = Vec::with_capacity(probes.len());
    let mut version = None;
    let mut hits: Vec<(u32, f64)> = Vec::new();
    for probe in probes {
        let seen = reader.query_with(probe, scratch, &mut hits);
        // all probes of one fingerprint must run against one epoch; retry
        // handled by the caller comparing versions
        version.get_or_insert(seen);
        assert_eq!(version, Some(seen), "caller must re-probe on epoch change");
        let mut sorted: Vec<(u32, u64)> = hits
            .iter()
            .map(|&(position, score)| (position, score.to_bits()))
            .collect();
        sorted.sort_unstable();
        results.push(sorted);
    }
    (version.unwrap(), results)
}

#[test]
fn concurrent_reads_always_equal_some_published_epoch() {
    let dataset = DatasetKind::Restaurant.generate(0.25, 9);
    let rule = restaurant_rule();
    let target = dataset.target.entities().to_vec();
    let script = churn_script(target.len(), 120, 77);
    let probes: Vec<&Entity> = dataset.source.entities().iter().take(12).collect();

    // pass 1 — sequential replay: record the expected probe results per
    // epoch version (version v is published by op v; version 0 is the build)
    let mut expected: HashMap<u64, Vec<Vec<(u32, u64)>>> = HashMap::new();
    {
        let (mut writer, reader) = LinkService::build(
            rule.clone(),
            dataset.source.schema(),
            &dataset.target,
            ServiceOptions::default(),
        )
        .unwrap()
        .split();
        let mut scratch = CandidateScratch::new();
        let (version, results) = fingerprint(&reader, &probes, &mut scratch);
        expected.insert(version, results);
        for &op in &script {
            apply(&mut writer, &target, op);
            let (version, results) = fingerprint(&reader, &probes, &mut scratch);
            assert_eq!(version as usize, expected.len());
            expected.insert(version, results);
        }
    }
    assert_eq!(expected.len(), script.len() + 1);

    // pass 2 — the same script under concurrent readers: every observed
    // (version, results) pair must equal the sequential expectation
    let (mut writer, reader) = LinkService::build(
        rule,
        dataset.source.schema(),
        &dataset.target,
        ServiceOptions::default(),
    )
    .unwrap()
    .split();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader_index in 0..3 {
            let reader = reader.clone();
            let stop = &stop;
            let expected = &expected;
            let probes = &probes;
            scope.spawn(move || {
                let mut scratch = CandidateScratch::new();
                let mut hits: Vec<(u32, f64)> = Vec::new();
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) || observations == 0 {
                    for probe in probes.iter() {
                        // version is (re-)read per query: each individual
                        // result must match that query's epoch
                        let version = reader.query_with(probe, &mut scratch, &mut hits);
                        let mut sorted: Vec<(u32, u64)> = hits
                            .iter()
                            .map(|&(position, score)| (position, score.to_bits()))
                            .collect();
                        sorted.sort_unstable();
                        let epoch = expected.get(&version).unwrap_or_else(|| {
                            panic!("reader {reader_index} saw unpublished version {version}")
                        });
                        let probe_at = probes.iter().position(|p| p.id() == probe.id()).unwrap();
                        assert_eq!(
                            sorted,
                            epoch[probe_at],
                            "reader {reader_index} diverged from epoch {version} on {}",
                            probe.id()
                        );
                        observations += 1;
                    }
                }
            });
        }
        for &op in &script {
            apply(&mut writer, &target, op);
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(writer.version(), script.len() as u64);
}

#[test]
fn cross_shard_reads_always_equal_that_shards_published_epochs() {
    const SHARDS: usize = 3;
    let dataset = DatasetKind::Restaurant.generate(0.25, 9);
    let rule = restaurant_rule();
    let target = dataset.target.entities().to_vec();
    let script = churn_script(target.len(), 120, 4242);
    let probes: Vec<&Entity> = dataset.source.entities().iter().take(12).collect();
    let op_index = |op: Op| match op {
        Op::Remove(at) | Op::Insert(at) => at,
    };

    // pass 1 — sequential replay: per shard, record the expected per-probe
    // fingerprint at every epoch version that shard will ever publish.
    // Each op touches exactly one shard and bumps only that shard's version.
    // per shard: epoch version -> per-probe (position, score bits) fingerprints
    type EpochFingerprints = HashMap<u64, Vec<Vec<(u32, u64)>>>;
    let mut expected: Vec<EpochFingerprints> = vec![HashMap::new(); SHARDS];
    let router = {
        let service = ShardedService::build(
            rule.clone(),
            dataset.source.schema(),
            &dataset.target,
            SHARDS,
            ServiceOptions::default(),
        )
        .unwrap();
        let router = service.router();
        let (mut writers, reader) = service.split();
        let mut scratch = CandidateScratch::new();
        for (shard, slot) in expected.iter_mut().enumerate() {
            let (version, results) = fingerprint(reader.shard(shard), &probes, &mut scratch);
            assert_eq!(version, 0, "a fresh shard starts at version 0");
            slot.insert(version, results);
        }
        for &op in &script {
            let shard = router.route(target[op_index(op)].id());
            apply(&mut writers[shard], &target, op);
            let (version, results) = fingerprint(reader.shard(shard), &probes, &mut scratch);
            assert_eq!(
                version as usize,
                expected[shard].len(),
                "one publication per op on the routed shard"
            );
            expected[shard].insert(version, results);
        }
        router
    };
    assert_eq!(
        expected.iter().map(HashMap::len).sum::<usize>(),
        script.len() + SHARDS
    );

    // pass 2 — the same script with one writer thread per shard, racing
    // reader threads.  Per-shard op subsequences are identical to pass 1
    // (routing is a pure function of the id), so each shard steps through
    // exactly the recorded epochs — in whatever global interleaving.
    let service = ShardedService::build(
        rule,
        dataset.source.schema(),
        &dataset.target,
        SHARDS,
        ServiceOptions::default(),
    )
    .unwrap();
    let (writers, reader) = service.split();
    let mut per_shard_ops: Vec<Vec<Op>> = vec![Vec::new(); SHARDS];
    for &op in &script {
        per_shard_ops[router.route(target[op_index(op)].id())].push(op);
    }
    let per_shard_counts: Vec<usize> = per_shard_ops.iter().map(Vec::len).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader_index in 0..3 {
            let reader = reader.clone();
            let stop = &stop;
            let expected = &expected;
            let probes = &probes;
            scope.spawn(move || {
                let mut scratch = ShardedScratch::new();
                let mut hits: Vec<(ShardSlot, f64)> = Vec::new();
                let mut last_seen = [0u64; SHARDS];
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) || observations == 0 {
                    for (probe_at, probe) in probes.iter().enumerate() {
                        reader.query_with(probe, &mut scratch, &mut hits);
                        for shard in 0..SHARDS {
                            let version = scratch.versions()[shard];
                            assert!(
                                version >= last_seen[shard],
                                "reader {reader_index}: shard {shard} epoch went backwards \
                                 ({} then {version})",
                                last_seen[shard]
                            );
                            last_seen[shard] = version;
                            let mut sorted: Vec<(u32, u64)> = hits
                                .iter()
                                .filter(|(slot, _)| slot.shard as usize == shard)
                                .map(|&(slot, score)| (slot.position, score.to_bits()))
                                .collect();
                            sorted.sort_unstable();
                            let epoch = expected[shard].get(&version).unwrap_or_else(|| {
                                panic!(
                                    "reader {reader_index} saw unpublished version {version} \
                                     on shard {shard}"
                                )
                            });
                            assert_eq!(
                                sorted,
                                epoch[probe_at],
                                "reader {reader_index} diverged from shard {shard} \
                                 epoch {version} on {}",
                                probe.id()
                            );
                        }
                        observations += 1;
                    }
                }
            });
        }
        let writer_handles: Vec<_> = writers
            .into_iter()
            .zip(per_shard_ops)
            .map(|(mut writer, ops)| {
                let target = &target;
                scope.spawn(move || {
                    for &op in &ops {
                        apply(&mut writer, target, op);
                    }
                    writer.version()
                })
            })
            .collect();
        let final_versions: Vec<u64> = writer_handles
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect();
        stop.store(true, Ordering::Relaxed);
        for (shard, version) in final_versions.iter().enumerate() {
            assert_eq!(
                *version as usize, per_shard_counts[shard],
                "shard {shard} must publish once per op"
            );
        }
    });
}

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
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(90210));
    let rules = (0..count).map(|_| generator.generate(&mut rng)).collect();
    RuleWorkload { dataset, rules }
}

/// Snapshot round-trips must reproduce the service bit-identically: stats,
/// slot discipline, every query, and identical behaviour under further
/// mutation.
fn assert_restore_equals_rebuild(workload: &RuleWorkload, churn_seed: u64) {
    let dataset = &workload.dataset;
    let target = dataset.target.entities().to_vec();
    for rule in &workload.rules {
        let mut service = LinkService::build(
            rule.clone(),
            dataset.source.schema(),
            &dataset.target,
            ServiceOptions::default(),
        )
        .unwrap();
        // churn before saving so tombstones and recycled slots are covered
        for &op in &churn_script(target.len(), 30, churn_seed) {
            match op {
                Op::Remove(at) => {
                    service.remove(target[at].id());
                }
                Op::Insert(at) => {
                    service.insert(&target[at]).unwrap();
                }
            }
        }
        let mut bytes = Vec::new();
        service.save_snapshot(&mut bytes).unwrap();
        let mut restored =
            LinkService::restore(rule.clone(), dataset.source.schema(), &bytes[..]).unwrap();
        let label = linkdisc_rule::print_rule(rule);
        assert_eq!(restored.writer().len(), service.writer().len(), "{label}");
        assert_eq!(
            restored.writer().stats(),
            service.writer().stats(),
            "{label}"
        );
        assert_eq!(
            restored.writer().store().free_slots(),
            service.writer().store().free_slots(),
            "{label}"
        );
        for entity in dataset.source.entities() {
            assert_eq!(
                restored.reader().query(entity),
                service.reader().query(entity),
                "{label} on {}",
                entity.id()
            );
        }
        // the two services keep agreeing under identical further mutation
        for &op in &churn_script(target.len(), 12, churn_seed ^ 0xabcd) {
            let (a, b) = match op {
                Op::Remove(at) => {
                    let id = target[at].id();
                    (service.remove(id), restored.remove(id))
                }
                Op::Insert(at) => (
                    service.insert(&target[at]).is_ok(),
                    restored.insert(&target[at]).is_ok(),
                ),
            };
            assert_eq!(a, b, "{label}");
        }
        assert_eq!(
            restored.writer().stats(),
            service.writer().stats(),
            "{label}"
        );
        for entity in dataset.source.entities().iter().take(20) {
            assert_eq!(
                restored.reader().query(entity),
                service.reader().query(entity),
                "{label}"
            );
        }
    }
}

#[test]
fn restore_equals_rebuild_on_random_restaurant_rules() {
    for seed in 0..3u64 {
        let workload = random_rules(DatasetKind::Restaurant, 0.08, seed, 5);
        assert_restore_equals_rebuild(&workload, seed.wrapping_add(31));
    }
}

#[test]
fn restore_equals_rebuild_on_random_cora_rules() {
    let workload = random_rules(DatasetKind::Cora, 0.04, 5, 4);
    assert_restore_equals_rebuild(&workload, 47);
}
