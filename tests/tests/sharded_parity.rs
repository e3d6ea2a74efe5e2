//! Parity of the sharded serving store with the unsharded one: the router
//! sends every id to exactly one stable shard, `shards = 1` is
//! byte-identical to the unsharded path (snapshots, versions, recovery),
//! `shards = N` answers every query identically on real datasets, the
//! parallel batch ingest is invariant in the worker thread count, and one
//! script — registry operations included — leaves in-memory and durable
//! shards byte-identical.

use std::path::PathBuf;

use linkdisc_datasets::DatasetKind;
use linkdisc_entity::{Entity, EntityError};
use linkdisc_matching::{
    DurabilityOptions, DurableError, DurableService, RegistryError, RuleServingStats,
    ServiceOptions, ServiceWriter, Shard, ShardRouter, ShardedService,
};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, LinkageRule,
    TransformFunction,
};

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

fn cora_rule() -> LinkageRule {
    compare(
        transform(TransformFunction::LowerCase, vec![property("title")]),
        transform(TransformFunction::LowerCase, vec![property("title")]),
        DistanceFunction::Levenshtein,
        3.0,
    )
    .into()
}

/// Single-threaded build so snapshots are comparable across runs without
/// depending on the host's core count.
fn options() -> ServiceOptions {
    ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("linkdisc-sharded-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn snapshot(writer: &ServiceWriter) -> Vec<u8> {
    let mut bytes = Vec::new();
    writer.save_snapshot(&mut bytes).unwrap();
    bytes
}

/// Deterministic churn over the target ids: remove a stride of entities,
/// re-insert every other one (slot recycling), then batch-ingest the rest
/// back.
fn churn_ops(removes: usize) -> Vec<(u8, usize)> {
    let mut ops: Vec<(u8, usize)> = (0..removes).map(|at| (0, at)).collect();
    ops.extend((0..removes).step_by(2).map(|at| (1, at)));
    ops.push((2, removes));
    ops
}

/// [`churn_ops`] followed by a duplicate ingest, the three registry
/// operations (each also once where it must fail) and churn under the
/// extra rule.
fn churn_and_registry_ops(removes: usize) -> Vec<(u8, usize)> {
    let mut ops = churn_ops(removes);
    ops.extend([
        (3, 4),
        (4, 0),
        (4, 0),
        (0, removes + 1),
        (1, removes + 1),
        (5, 0),
        (0, removes + 2),
        (6, 0),
        (6, 0),
        (1, removes + 2),
    ]);
    ops
}

const EXTRA_RULE: &str = "phone";

fn phone_rule(bound: f64) -> LinkageRule {
    compare(
        transform(TransformFunction::DigitsOnly, vec![property("phone")]),
        transform(TransformFunction::DigitsOnly, vec![property("phone")]),
        DistanceFunction::Levenshtein,
        bound,
    )
    .into()
}

/// The failure behind an error, with the durable wrapper taken off so the
/// two shard kinds' errors compare equal.
trait Cause {
    fn cause(&self) -> String;
}

impl Cause for EntityError {
    fn cause(&self) -> String {
        self.to_string()
    }
}

impl Cause for RegistryError {
    fn cause(&self) -> String {
        self.to_string()
    }
}

impl Cause for DurableError {
    fn cause(&self) -> String {
        match self {
            DurableError::Entity(err) => err.to_string(),
            DurableError::Registry(err) => err.to_string(),
            other => panic!("unexpected durable failure: {other}"),
        }
    }
}

/// Applies one scripted op: 0 removes, 1 inserts, 2 batch-ingests the
/// re-insert leftovers of [`churn_ops`], 3 re-ingests served ids (must fail
/// and publish nothing), 4/5/6 register / replace / deregister
/// [`EXTRA_RULE`].
fn apply_sharded<W: Shard>(
    service: &mut ShardedService<W>,
    target: &[Entity],
    op: (u8, usize),
) -> Result<(), String>
where
    W::Error: Cause,
    W::RegistryError: Cause,
{
    let entity_op = |err: W::Error| err.cause();
    let registry_op = |err: W::RegistryError| err.cause();
    match op {
        (0, at) => {
            assert!(service.remove(target[at].id()).map_err(entity_op)?);
        }
        (1, at) => {
            service.insert(&target[at]).map_err(entity_op)?;
        }
        (2, removes) => {
            let leftovers: Vec<Entity> = (0..removes)
                .skip(1)
                .step_by(2)
                .map(|at| target[at].clone())
                .collect();
            assert_eq!(
                service.ingest(&leftovers).map_err(entity_op)?,
                leftovers.len()
            );
        }
        (3, count) => {
            let versions = service.versions();
            let len = service.len();
            let err = service
                .ingest(&target[..count])
                .expect_err("re-ingesting served ids must fail");
            assert_eq!(service.versions(), versions, "no shard may publish");
            assert_eq!(service.len(), len, "nothing may be applied");
            return Err(entity_op(err));
        }
        (4, _) => service
            .register_rule(EXTRA_RULE, phone_rule(1.0))
            .map_err(registry_op)?,
        (5, _) => service
            .replace_rule(EXTRA_RULE, phone_rule(0.0))
            .map_err(registry_op)?,
        (_, _) => service.deregister_rule(EXTRA_RULE).map_err(registry_op)?,
    }
    Ok(())
}

fn shard_snapshots<W: Shard>(service: &ShardedService<W>) -> Vec<Vec<u8>> {
    service
        .shards()
        .iter()
        .map(|shard| snapshot(shard.writer()))
        .collect()
}

fn apply_plain(writer: &mut ServiceWriter, target: &[Entity], op: (u8, usize)) {
    match op {
        (0, at) => assert!(writer.remove(target[at].id())),
        (1, at) => {
            writer.insert(&target[at]).unwrap();
        }
        (_, removes) => {
            let leftovers: Vec<Entity> = (0..removes)
                .skip(1)
                .step_by(2)
                .map(|at| target[at].clone())
                .collect();
            assert_eq!(writer.ingest(&leftovers).unwrap(), leftovers.len());
        }
    }
}

#[test]
fn every_id_maps_to_exactly_one_shard_and_routing_is_stable() {
    let dataset = DatasetKind::Restaurant.generate(0.2, 11);
    for shards in [1, 2, 4, 7] {
        let router = ShardRouter::new(shards);
        for entity in dataset.target.entities() {
            let routed = router.route(entity.id());
            assert!(routed < shards, "route must land inside the shard range");
            // a fresh router with the same count agrees: routing is a pure
            // function of (id, shards), never of construction history
            assert_eq!(ShardRouter::new(shards).route(entity.id()), routed);
        }
    }
}

#[test]
fn routing_is_stable_across_insert_remove_and_recycle() {
    let dataset = DatasetKind::Restaurant.generate(0.25, 3);
    let target = dataset.target.entities().to_vec();
    let mut service = ShardedService::build(
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        4,
        options(),
    )
    .unwrap();
    let router = service.router();
    let homes: Vec<usize> = target.iter().map(|e| router.route(e.id())).collect();

    for round in 0..3 {
        for (at, entity) in target.iter().enumerate().take(10) {
            assert!(service.remove(entity.id()).unwrap(), "round {round}");
            // after the remove, no shard serves the id
            assert!(!service.contains(entity.id()));
            let slot = service.insert(entity).unwrap();
            assert_eq!(
                slot.shard as usize, homes[at],
                "recycled insert must land on the same shard"
            );
            assert!(service.contains(entity.id()));
        }
    }
    // every served id is found in exactly one shard
    let reader = service.reader();
    for (at, entity) in target.iter().enumerate() {
        let holding: Vec<usize> = (0..4)
            .filter(|&shard| {
                let shard_reader = reader.shard(shard);
                (0..shard_reader.len() as u32 + 16)
                    .filter_map(|position| shard_reader.at(position))
                    .any(|held| held.id() == entity.id())
            })
            .collect();
        assert_eq!(holding, vec![homes[at]], "entity {}", entity.id());
    }
}

#[test]
fn one_shard_is_byte_identical_to_the_unsharded_writer() {
    let dataset = DatasetKind::Restaurant.generate(0.25, 7);
    let target = dataset.target.entities().to_vec();
    let mut sharded = ShardedService::build(
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        1,
        options(),
    )
    .unwrap();
    let mut plain = ServiceWriter::build(
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        options(),
    )
    .unwrap();
    assert_eq!(
        snapshot(&sharded.shards()[0]),
        snapshot(&plain),
        "construction must be identical"
    );
    for &op in &churn_ops(12) {
        apply_sharded(&mut sharded, &target, op).unwrap();
        apply_plain(&mut plain, &target, op);
        assert_eq!(
            snapshot(&sharded.shards()[0]),
            snapshot(&plain),
            "snapshots diverged after op {op:?}"
        );
        assert_eq!(sharded.versions(), vec![plain.version()]);
    }
    for probe in dataset.source.entities().iter().take(20) {
        assert_eq!(sharded.query(probe), plain.reader().query(probe));
    }
}

#[test]
fn sharded_queries_equal_unsharded_on_restaurant_and_cora() {
    let workloads = [
        (DatasetKind::Restaurant, restaurant_rule(), 0.3, 5),
        (DatasetKind::Cora, cora_rule(), 0.05, 17),
    ];
    for (kind, rule, scale, seed) in workloads {
        let dataset = kind.generate(scale, seed);
        let target = dataset.target.entities().to_vec();
        for shards in [2, 4] {
            let mut unsharded = ShardedService::build(
                rule.clone(),
                dataset.source.schema(),
                &dataset.target,
                1,
                options(),
            )
            .unwrap();
            let mut sharded = ShardedService::build(
                rule.clone(),
                dataset.source.schema(),
                &dataset.target,
                shards,
                options(),
            )
            .unwrap();
            assert_eq!(sharded.len(), unsharded.len());
            for probe in dataset.source.entities() {
                assert_eq!(
                    sharded.query(probe),
                    unsharded.query(probe),
                    "{kind:?} shards={shards} probe={}",
                    probe.id()
                );
            }
            // …and still equal after identical churn on both
            for &op in &churn_ops(8) {
                apply_sharded(&mut sharded, &target, op).unwrap();
                apply_sharded(&mut unsharded, &target, op).unwrap();
            }
            for probe in dataset.source.entities().iter().take(30) {
                assert_eq!(
                    sharded.query(probe),
                    unsharded.query(probe),
                    "{kind:?} shards={shards} post-churn probe={}",
                    probe.id()
                );
            }
        }
    }
}

#[test]
fn parallel_ingest_is_invariant_in_the_thread_count() {
    let dataset = DatasetKind::Restaurant.generate(0.3, 29);
    let mut per_thread_snapshots: Vec<Vec<Vec<u8>>> = Vec::new();
    for threads in [1, 2, 8] {
        let mut service = ShardedService::empty(
            restaurant_rule(),
            dataset.source.schema(),
            dataset.target.schema(),
            4,
            ServiceOptions {
                threads,
                ..ServiceOptions::default()
            },
        );
        assert_eq!(
            service.ingest(dataset.target.entities()).unwrap(),
            dataset.target.len()
        );
        per_thread_snapshots.push(service.shards().iter().map(snapshot).collect());
    }
    assert_eq!(
        per_thread_snapshots[0], per_thread_snapshots[1],
        "1 vs 2 ingest threads"
    );
    assert_eq!(
        per_thread_snapshots[1], per_thread_snapshots[2],
        "2 vs 8 ingest threads"
    );
}

#[test]
fn sharded_durable_round_trip_recovers_every_shard() {
    let dataset = DatasetKind::Restaurant.generate(0.25, 13);
    let target = dataset.target.entities().to_vec();
    let dir = fresh_dir("roundtrip");
    let mut durable = ShardedService::create(
        &dir,
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        3,
        options(),
        DurabilityOptions::default(),
    )
    .unwrap();
    assert!(
        matches!(
            ShardedService::create(
                &dir,
                restaurant_rule(),
                dataset.source.schema(),
                &dataset.target,
                3,
                options(),
                DurabilityOptions::default(),
            ),
            Err(linkdisc_matching::DurableError::AlreadyDurable(_))
        ),
        "creating over existing shard state must be refused"
    );
    for entity in target.iter().take(8) {
        assert!(durable.remove(entity.id()).unwrap());
    }
    let reinserts: Vec<Entity> = (0..8).step_by(2).map(|at| target[at].clone()).collect();
    assert_eq!(durable.ingest(&reinserts).unwrap(), reinserts.len());
    let live: Vec<Vec<u8>> = durable
        .shards()
        .iter()
        .map(|shard| snapshot(shard.writer()))
        .collect();
    drop(durable); // crash

    let (recovered, reports) = ShardedService::recover(
        &dir,
        restaurant_rule(),
        dataset.source.schema(),
        DurabilityOptions::default(),
    )
    .unwrap();
    assert_eq!(reports.len(), 3, "one recovery report per shard");
    let replayed: u64 = reports.iter().map(|report| report.replayed_epochs).sum();
    // 8 removes + per-shard ingest records (one per shard the batch touched)
    assert!(replayed >= 8, "acknowledged epochs replay: {reports:?}");
    let back: Vec<Vec<u8>> = recovered
        .shards()
        .iter()
        .map(|shard| snapshot(shard.writer()))
        .collect();
    assert_eq!(live, back, "recovered shards must match the live state");

    // the recovered store keeps serving and mutating
    let reader = recovered.reader();
    let in_memory = ShardedService::build(
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        3,
        options(),
    )
    .map(|mut service| {
        for entity in target.iter().take(8) {
            assert!(service.remove(entity.id()).unwrap());
        }
        service.ingest(&reinserts).unwrap();
        service
    })
    .unwrap();
    for probe in dataset.source.entities().iter().take(25) {
        assert_eq!(reader.query(probe), in_memory.query(probe));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shard_durable_recovery_is_byte_identical_to_unsharded() {
    let dataset = DatasetKind::Restaurant.generate(0.2, 19);
    let target = dataset.target.entities().to_vec();
    let sharded_dir = fresh_dir("one-shard");
    let plain_dir = fresh_dir("plain");

    let mut sharded = ShardedService::create(
        &sharded_dir,
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        1,
        options(),
        DurabilityOptions::default(),
    )
    .unwrap();
    let mut plain = DurableService::create(
        &plain_dir,
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        options(),
        DurabilityOptions::default(),
    )
    .unwrap();
    for entity in target.iter().take(6) {
        assert!(sharded.remove(entity.id()).unwrap());
        assert!(plain.remove(entity.id()).unwrap());
    }
    drop(sharded);
    drop(plain); // crash both

    let (sharded_back, reports) = ShardedService::recover(
        &sharded_dir,
        restaurant_rule(),
        dataset.source.schema(),
        DurabilityOptions::default(),
    )
    .unwrap();
    let (plain_back, plain_report) = DurableService::recover(
        &plain_dir,
        restaurant_rule(),
        dataset.source.schema(),
        DurabilityOptions::default(),
    )
    .unwrap();
    assert_eq!(reports, vec![plain_report], "identical recovery reports");
    assert_eq!(
        snapshot(sharded_back.shards()[0].writer()),
        snapshot(plain_back.writer()),
        "one-shard recovery must be byte-identical to the unsharded service"
    );
    let _ = std::fs::remove_dir_all(&sharded_dir);
    let _ = std::fs::remove_dir_all(&plain_dir);
}

#[test]
fn one_script_leaves_in_memory_and_durable_shards_identical() {
    let dataset = DatasetKind::Restaurant.generate(0.25, 23);
    let target = dataset.target.entities().to_vec();
    let catalog = vec![
        ("default".to_string(), restaurant_rule()),
        ("loose".to_string(), phone_rule(1.0)),
        ("strict".to_string(), phone_rule(0.0)),
    ];
    for shards in [1, 3] {
        let dir = fresh_dir(&format!("twins-{shards}"));
        let mut memory = ShardedService::build(
            restaurant_rule(),
            dataset.source.schema(),
            &dataset.target,
            shards,
            options(),
        )
        .unwrap();
        let mut durable = ShardedService::create(
            &dir,
            restaurant_rule(),
            dataset.source.schema(),
            &dataset.target,
            shards,
            options(),
            DurabilityOptions::default(),
        )
        .unwrap();
        assert_eq!(shard_snapshots(&memory), shard_snapshots(&durable));
        let mut failures = 0;
        for &op in &churn_and_registry_ops(8) {
            let outcome = apply_sharded(&mut memory, &target, op);
            assert_eq!(
                apply_sharded(&mut durable, &target, op),
                outcome,
                "shards={shards} op {op:?}: outcomes differ"
            );
            failures += usize::from(outcome.is_err());
            assert_eq!(
                shard_snapshots(&memory),
                shard_snapshots(&durable),
                "shards={shards} op {op:?}: snapshots differ"
            );
            assert_eq!(
                memory.versions(),
                durable.versions(),
                "shards={shards} op {op:?}"
            );
        }
        assert_eq!(
            failures, 3,
            "the duplicate ingest and two registry misuses fail"
        );
        let live = shard_snapshots(&durable);
        drop(durable); // crash

        let (recovered, reports) = ShardedService::recover_with_rules(
            &dir,
            &catalog,
            dataset.source.schema(),
            DurabilityOptions::default(),
        )
        .unwrap();
        assert_eq!(reports.len(), shards);
        assert_eq!(
            shard_snapshots(&recovered),
            live,
            "shards={shards}: recovery"
        );
        assert_eq!(shard_snapshots(&recovered), shard_snapshots(&memory));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sharded_rule_stats_sum_every_counter_across_shards() {
    let dataset = DatasetKind::Restaurant.generate(0.25, 31);
    let service = ShardedService::build(
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        3,
        options(),
    )
    .unwrap();
    let reader = service.reader();
    for probe in dataset.source.entities().iter().take(25) {
        reader.query(probe);
    }
    let merged = reader.rule_stats();
    assert_eq!(merged.len(), 1);
    for stats in &merged {
        let per_shard: Vec<RuleServingStats> = (0..3)
            .map(|shard| {
                reader
                    .shard(shard)
                    .rule_stats()
                    .into_iter()
                    .find(|entry| entry.rule == stats.rule)
                    .expect("registries are identical across shards")
            })
            .collect();
        let sum = |field: fn(&RuleServingStats) -> u64| per_shard.iter().map(field).sum::<u64>();
        assert_eq!(stats.queries, sum(|s| s.queries), "queries");
        assert_eq!(stats.candidates, sum(|s| s.candidates), "candidates");
        assert_eq!(
            stats.pairs_short_circuited,
            sum(|s| s.pairs_short_circuited),
            "pairs_short_circuited"
        );
        assert_eq!(
            stats.comparisons_evaluated,
            sum(|s| s.comparisons_evaluated),
            "comparisons_evaluated"
        );
        assert_eq!(
            stats.comparisons_skipped,
            sum(|s| s.comparisons_skipped),
            "comparisons_skipped"
        );
        assert_eq!(stats.leaf_hits, sum(|s| s.leaf_hits), "leaf_hits");
        assert_eq!(stats.leaf_misses, sum(|s| s.leaf_misses), "leaf_misses");
        assert_eq!(stats.queries, 75, "every query reaches every shard");
        let evaluating = per_shard
            .iter()
            .filter(|s| s.comparisons_evaluated > 0)
            .count();
        assert!(
            evaluating > 1,
            "the workload must evaluate on several shards"
        );
    }
}
