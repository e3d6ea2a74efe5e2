//! The on-disk formats, pinned byte for byte: the FNV-1a 64 digest of a
//! snapshot and of a write-ahead log, each produced by a fixed script.
//!
//! A refactor of either codec must leave these digests alone. A deliberate
//! format change bumps the format version (`SNAPSHOT_VERSION` in
//! `persist.rs`, `WAL_VERSION` in `wal.rs`) and re-records the digest here
//! in the same change: run this test, and copy the digest its failure
//! message prints.

use std::path::PathBuf;

use linkdisc_datasets::DatasetKind;
use linkdisc_matching::{DurabilityOptions, DurableService, LinkService, ServiceOptions};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, LinkageRule,
    TransformFunction,
};

/// FNV-1a 64 over a byte slice (the digest the formats use for their own
/// checksums, written out here so the goldens do not depend on the code
/// they pin).
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn name_rule() -> LinkageRule {
    compare(
        transform(TransformFunction::LowerCase, vec![property("name")]),
        transform(TransformFunction::LowerCase, vec![property("name")]),
        DistanceFunction::Levenshtein,
        2.0,
    )
    .into()
}

fn name_and_phone_rule() -> LinkageRule {
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

fn phone_rule() -> LinkageRule {
    compare(
        property("phone"),
        property("phone"),
        DistanceFunction::Levenshtein,
        1.0,
    )
    .into()
}

fn options() -> ServiceOptions {
    ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    }
}

#[test]
fn a_two_rule_restaurant_snapshot_keeps_its_bytes() {
    let dataset = DatasetKind::Restaurant.generate(0.05, 7);
    let mut service = LinkService::build(
        name_rule(),
        dataset.source.schema(),
        &dataset.target,
        options(),
    )
    .unwrap();
    service
        .register_rule("both", name_and_phone_rule())
        .unwrap();
    service.remove(dataset.target.entities()[0].id());
    let mut bytes = Vec::new();
    service.save_snapshot(&mut bytes).unwrap();
    let digest = fnv64(&bytes);
    assert_eq!(
        (bytes.len(), digest),
        (SNAPSHOT_LEN, SNAPSHOT_DIGEST),
        "snapshot bytes changed: got length {} digest {digest:#018x}",
        bytes.len()
    );
}

#[test]
fn a_scripted_write_ahead_log_keeps_its_bytes() {
    let dataset = DatasetKind::Restaurant.generate(0.05, 7);
    let target = dataset.target.entities();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("linkdisc-format-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut service = DurableService::create_empty(
        &dir,
        name_rule(),
        dataset.source.schema(),
        dataset.target.schema(),
        options(),
        DurabilityOptions::default(),
    )
    .unwrap();
    service.insert(&target[0]).unwrap();
    assert!(service.remove(target[0].id()).unwrap());
    service.ingest(&target[0..6]).unwrap();
    service
        .register_rule("both", name_and_phone_rule())
        .unwrap();
    service.replace_rule("both", phone_rule()).unwrap();
    assert_eq!(service.generation(), 0, "the script never compacts");
    drop(service);
    let bytes = std::fs::read(dir.join("wal-00000000.log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let digest = fnv64(&bytes);
    assert_eq!(
        (bytes.len(), digest),
        (WAL_LEN, WAL_DIGEST),
        "log bytes changed: got length {} digest {digest:#018x}",
        bytes.len()
    );
}

// Recorded with SNAPSHOT_VERSION 3 and WAL_VERSION 2. A format change bumps
// its version and its digest together, never one without the other.
const SNAPSHOT_LEN: usize = 20_779;
const SNAPSHOT_DIGEST: u64 = 0x2258_c607_ed45_bce3;
const WAL_LEN: usize = 1_137;
const WAL_DIGEST: u64 = 0x07ad_f55c_00ce_69a7;
