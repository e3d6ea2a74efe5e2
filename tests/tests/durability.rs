//! Recovery semantics of the crash-safe serving layer, without fault
//! injection: these tests damage the on-disk files directly (truncation,
//! bit flips, deleted checkpoints) and assert the documented damage model —
//! torn tails are tolerated, bit rot surfaces as a typed error naming the
//! salvageable prefix, a corrupt checkpoint falls back one generation, and
//! a clean recovery is bit-identical to a sequential rebuild.
//!
//! (The kill-at-every-failpoint harness lives in the matching crate's
//! `fault_injection` test, behind the `failpoints` feature.)

use std::path::{Path, PathBuf};

use genlink::random::RandomRuleGenerator;
use genlink::seeding::SeedingConfig;
use genlink::{find_compatible_properties, RepresentationMode};
use linkdisc_datasets::DatasetKind;
use linkdisc_entity::Entity;
use linkdisc_matching::{
    DurabilityOptions, DurableService, RecoveryError, ServiceOptions, ServiceWriter,
};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, LinkageRule,
    TransformFunction,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Single-threaded build so snapshots are comparable across runs without
/// depending on the host's core count.
fn options() -> ServiceOptions {
    ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("linkdisc-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The newest `wal-*.log` in a durable directory.
fn newest_wal(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_str().unwrap();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .collect();
    wals.sort();
    wals.pop().expect("a durable directory always has a log")
}

fn newest_checkpoint(dir: &Path) -> PathBuf {
    let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_str().unwrap();
            name.starts_with("checkpoint-") && name.ends_with(".snap")
        })
        .collect();
    checkpoints.sort();
    checkpoints.pop().expect("a checkpoint exists")
}

fn snapshot(writer: &ServiceWriter) -> Vec<u8> {
    let mut bytes = Vec::new();
    writer.save_snapshot(&mut bytes).unwrap();
    bytes
}

/// A deterministic churn script over the target ids: remove the first
/// `removes` entities, then re-insert every other one (slot recycling).
fn churn(removes: usize) -> Vec<(bool, usize)> {
    let mut script: Vec<(bool, usize)> = (0..removes).map(|at| (false, at)).collect();
    script.extend((0..removes).step_by(2).map(|at| (true, at)));
    script
}

fn apply_durable(service: &mut DurableService, target: &[Entity], op: (bool, usize)) {
    match op {
        (false, at) => {
            assert!(service.remove(target[at].id()).unwrap());
        }
        (true, at) => {
            service.insert(&target[at]).unwrap();
        }
    }
}

fn apply_plain(writer: &mut ServiceWriter, target: &[Entity], op: (bool, usize)) {
    match op {
        (false, at) => {
            assert!(writer.remove(target[at].id()));
        }
        (true, at) => {
            writer.insert(&target[at]).unwrap();
        }
    }
}

#[test]
fn recovery_is_bit_identical_to_a_sequential_rebuild() {
    let dataset = DatasetKind::Restaurant.generate(0.25, 9);
    let target = dataset.target.entities().to_vec();
    let script = churn(12);
    let dir = fresh_dir("replay");

    let mut service = DurableService::create(
        &dir,
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        options(),
        DurabilityOptions::default(),
    )
    .unwrap();
    assert!(
        matches!(
            DurableService::create(
                &dir,
                restaurant_rule(),
                dataset.source.schema(),
                &dataset.target,
                options(),
                DurabilityOptions::default(),
            ),
            Err(linkdisc_matching::DurableError::AlreadyDurable(_))
        ),
        "creating over existing durable state must be refused"
    );
    for &op in &script {
        apply_durable(&mut service, &target, op);
    }
    let live = snapshot(service.writer());
    drop(service); // crash

    // the oracle: a fresh writer applying the same acknowledged sequence
    let mut shadow = ServiceWriter::build(
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        options(),
    )
    .unwrap();
    for &op in &script {
        apply_plain(&mut shadow, &target, op);
    }
    assert_eq!(live, snapshot(&shadow), "durable writer drifted from plain");

    let (recovered, report) = DurableService::recover(
        &dir,
        restaurant_rule(),
        dataset.source.schema(),
        DurabilityOptions::default(),
    )
    .unwrap();
    assert_eq!(report.replayed_epochs, script.len() as u64);
    assert_eq!(report.fallback_generations, 0);
    assert_eq!(report.torn_tail_bytes, 0);
    assert_eq!(
        snapshot(recovered.writer()),
        snapshot(&shadow),
        "recovered state must be bit-identical to the sequential rebuild"
    );
    // and behaviourally identical: every probe query agrees
    let reader = recovered.reader();
    let shadow_reader = shadow.reader();
    for probe in dataset.source.entities().iter().take(20) {
        assert_eq!(reader.query(probe), shadow_reader.query(probe));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovering_an_empty_directory_is_a_typed_error() {
    let dir = fresh_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let dataset = DatasetKind::Restaurant.generate(0.1, 3);
    let outcome = DurableService::recover(
        &dir,
        restaurant_rule(),
        dataset.source.schema(),
        DurabilityOptions::default(),
    );
    assert!(matches!(outcome, Err(RecoveryError::NoCheckpoint(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_log_tails_are_tolerated_at_every_cut() {
    let dataset = DatasetKind::Restaurant.generate(0.15, 5);
    let target = dataset.target.entities().to_vec();
    let script = churn(4);
    let dir = fresh_dir("torn-base");

    // build the baseline: a durable run plus the oracle snapshot after
    // every prefix of the script
    let mut oracle = Vec::new();
    {
        let mut service = DurableService::create(
            &dir,
            restaurant_rule(),
            dataset.source.schema(),
            &dataset.target,
            options(),
            DurabilityOptions::default(),
        )
        .unwrap();
        let mut shadow = ServiceWriter::build(
            restaurant_rule(),
            dataset.source.schema(),
            &dataset.target,
            options(),
        )
        .unwrap();
        oracle.push(snapshot(&shadow));
        for &op in &script {
            apply_durable(&mut service, &target, op);
            apply_plain(&mut shadow, &target, op);
            oracle.push(snapshot(&shadow));
        }
    }

    let wal = newest_wal(&dir);
    let bytes = std::fs::read(&wal).unwrap();
    let work = fresh_dir("torn-cut");
    // cut the log at every byte of its back half: recovery must never
    // panic, never error, and always land on some acknowledged prefix
    let mut prefixes_seen = std::collections::HashSet::new();
    for cut in (bytes.len() / 2..=bytes.len()).rev() {
        copy_dir(&dir, &work);
        let cut_wal = newest_wal(&work);
        std::fs::write(&cut_wal, &bytes[..cut]).unwrap();
        let (recovered, report) = DurableService::recover(
            &work,
            restaurant_rule(),
            dataset.source.schema(),
            DurabilityOptions::default(),
        )
        .unwrap_or_else(|err| panic!("cut at {cut}/{} must recover: {err}", bytes.len()));
        let got = snapshot(recovered.writer());
        let matched = oracle
            .iter()
            .position(|expected| *expected == got)
            .unwrap_or_else(|| panic!("cut at {cut} recovered to a state outside the history"));
        assert_eq!(
            report.replayed_epochs, matched as u64,
            "cut at {cut}: replay count must match the recovered prefix"
        );
        prefixes_seen.insert(matched);
    }
    assert!(
        prefixes_seen.len() > 2,
        "the cuts must actually produce different acknowledged prefixes"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn mid_log_bit_flips_surface_as_typed_errors_never_panics() {
    let dataset = DatasetKind::Restaurant.generate(0.15, 6);
    let target = dataset.target.entities().to_vec();
    let script = churn(6);
    let dir = fresh_dir("flip-base");
    {
        let mut service = DurableService::create(
            &dir,
            restaurant_rule(),
            dataset.source.schema(),
            &dataset.target,
            options(),
            DurabilityOptions::default(),
        )
        .unwrap();
        for &op in &script {
            apply_durable(&mut service, &target, op);
        }
    }
    let wal = newest_wal(&dir);
    let bytes = std::fs::read(&wal).unwrap();
    let work = fresh_dir("flip-work");
    for at in (0..bytes.len()).step_by(13) {
        for bit in [0, 5] {
            copy_dir(&dir, &work);
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            std::fs::write(newest_wal(&work), &flipped).unwrap();
            let outcome = DurableService::recover(
                &work,
                restaurant_rule(),
                dataset.source.schema(),
                DurabilityOptions::default(),
            );
            // every byte of the log is covered by a check: a flip may never
            // be absorbed silently
            match outcome {
                Err(
                    RecoveryError::CorruptLog { .. }
                    | RecoveryError::CorruptCheckpoint { .. }
                    | RecoveryError::Mismatch(_),
                ) => {}
                Err(other) => panic!("flip at {at}.{bit}: unexpected error class {other}"),
                Ok(_) => panic!("flip at {at} bit {bit} was silently absorbed"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_corrupt_latest_checkpoint_falls_back_one_generation() {
    let dataset = DatasetKind::Restaurant.generate(0.15, 7);
    let target = dataset.target.entities().to_vec();
    let script = churn(10);
    let dir = fresh_dir("fallback");
    // a tiny budget forces several compactions, so the directory holds a
    // current and a previous generation
    let budget = DurabilityOptions {
        log_budget_bytes: 512,
    };
    let generations = {
        let mut service = DurableService::create(
            &dir,
            restaurant_rule(),
            dataset.source.schema(),
            &dataset.target,
            options(),
            budget,
        )
        .unwrap();
        for &op in &script {
            apply_durable(&mut service, &target, op);
        }
        service.generation()
    };
    assert!(generations >= 2, "the budget must have forced compactions");

    // rot the newest checkpoint: recovery falls back to the previous
    // generation and replays its logs forward — losing nothing
    let checkpoint = newest_checkpoint(&dir);
    let mut bytes = std::fs::read(&checkpoint).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    std::fs::write(&checkpoint, &bytes).unwrap();

    let (recovered, report) =
        DurableService::recover(&dir, restaurant_rule(), dataset.source.schema(), budget).unwrap();
    assert_eq!(report.fallback_generations, 1);

    let mut shadow = ServiceWriter::build(
        restaurant_rule(),
        dataset.source.schema(),
        &dataset.target,
        options(),
    )
    .unwrap();
    for &op in &script {
        apply_plain(&mut shadow, &target, op);
    }
    assert_eq!(
        snapshot(recovered.writer()),
        snapshot(&shadow),
        "fallback recovery must still reproduce every acknowledged epoch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_matches_rebuild_for_random_learned_rule_shapes() {
    let dataset = DatasetKind::Restaurant.generate(0.15, 11);
    let target = dataset.target.entities().to_vec();
    let pairs = find_compatible_properties(
        &dataset.source,
        &dataset.target,
        &dataset.links,
        &SeedingConfig::default(),
    );
    assert!(!pairs.is_empty(), "seeding found no compatible properties");
    let generator = RandomRuleGenerator::new(pairs, RepresentationMode::Full);
    for seed in [21u64, 22] {
        let mut rng = StdRng::seed_from_u64(seed);
        let rule = generator.generate(&mut rng);
        let dir = fresh_dir(&format!("random-{seed}"));
        let script = churn(8);
        {
            let mut service = match DurableService::create(
                &dir,
                rule.clone(),
                dataset.source.schema(),
                &dataset.target,
                options(),
                DurabilityOptions::default(),
            ) {
                Ok(service) => service,
                // a degenerate random rule (no indexable comparison) is not
                // this test's concern
                Err(err) => panic!("create failed for seed {seed}: {err}"),
            };
            for &op in &script {
                apply_durable(&mut service, &target, op);
            }
        }
        let (recovered, _) = DurableService::recover(
            &dir,
            rule.clone(),
            dataset.source.schema(),
            DurabilityOptions::default(),
        )
        .unwrap();
        let mut shadow =
            ServiceWriter::build(rule, dataset.source.schema(), &dataset.target, options())
                .unwrap();
        for &op in &script {
            apply_plain(&mut shadow, &target, op);
        }
        assert_eq!(
            snapshot(recovered.writer()),
            snapshot(&shadow),
            "seed {seed}: recovery must equal rebuild"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovering_with_the_wrong_rule_is_a_mismatch() {
    let dataset = DatasetKind::Restaurant.generate(0.1, 8);
    let dir = fresh_dir("wrong-rule");
    {
        DurableService::create(
            &dir,
            restaurant_rule(),
            dataset.source.schema(),
            &dataset.target,
            options(),
            DurabilityOptions::default(),
        )
        .unwrap();
    }
    let other: LinkageRule = compare(
        property("name"),
        property("name"),
        DistanceFunction::Jaccard,
        0.4,
    )
    .into();
    let outcome = DurableService::recover(
        &dir,
        other,
        dataset.source.schema(),
        DurabilityOptions::default(),
    );
    assert!(matches!(outcome, Err(RecoveryError::Mismatch(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint written before the block-key scheme changed (snapshot format
/// version 2) must stop recovery with a typed error: falling back to an older
/// generation cannot help, and replaying the log onto stale keys would serve
/// wrong candidates.
#[test]
fn recovering_a_version_2_checkpoint_is_a_mismatch() {
    let dataset = DatasetKind::Restaurant.generate(0.1, 8);
    let dir = fresh_dir("stale-version");
    {
        let mut service = DurableService::create(
            &dir,
            restaurant_rule(),
            dataset.source.schema(),
            &dataset.target,
            options(),
            DurabilityOptions::default(),
        )
        .unwrap();
        assert!(service.remove(dataset.target.entities()[0].id()).unwrap());
    }
    let checkpoint = newest_checkpoint(&dir);
    let mut bytes = std::fs::read(&checkpoint).unwrap();
    assert_eq!(
        bytes[8..12],
        linkdisc_matching::SNAPSHOT_VERSION.to_le_bytes()
    );
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&checkpoint, &bytes).unwrap();
    let outcome = DurableService::recover(
        &dir,
        restaurant_rule(),
        dataset.source.schema(),
        DurabilityOptions::default(),
    );
    match outcome {
        Err(RecoveryError::Mismatch(why)) => assert!(why.contains("version 2"), "{why}"),
        Err(other) => panic!("expected a format mismatch, got {other}"),
        Ok(_) => panic!("a service was built on a version-2 checkpoint"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
