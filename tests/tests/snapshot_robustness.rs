//! Hostile-input robustness of the snapshot codec: `LinkService::restore`
//! fed truncated, bit-flipped and length-field-inflated snapshots must
//! always return a `SnapshotError` — never panic, and never allocate
//! unboundedly on the say-so of a corrupt length prefix (the reader caps
//! preallocation and fills strings in bounded chunks).
//!
//! The allocation claim is enforced for real: this test binary installs a
//! counting global allocator and asserts the high-water mark of every
//! hostile restore stays far below what the corrupt length fields demand.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use linkdisc_datasets::DatasetKind;
use linkdisc_matching::{LinkService, ServiceOptions};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, LinkageRule,
    TransformFunction,
};
use proptest::prelude::*;

struct CountingAllocator;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(now, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Upper bound on the allocation high-water mark any hostile restore may
/// reach.  Generous (the valid snapshot is well under 8 MiB; concurrent
/// tests in this binary share the counter) yet far below the gigabytes a
/// trusted corrupt length field would demand.
const ALLOC_CEILING: usize = 64 << 20;

fn rule() -> LinkageRule {
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

struct Fixture {
    dataset: linkdisc_datasets::Dataset,
    bytes: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = DatasetKind::Restaurant.generate(0.15, 4);
        let service = LinkService::build(
            rule(),
            dataset.source.schema(),
            &dataset.target,
            ServiceOptions::default(),
        )
        .unwrap();
        let mut bytes = Vec::new();
        service.save_snapshot(&mut bytes).unwrap();
        Fixture { dataset, bytes }
    })
}

/// Restores hostile bytes, asserting clean typed failure and a bounded
/// allocation high-water mark.
fn assert_rejected(bytes: &[u8], what: &str) {
    let fixture = fixture();
    let baseline = CURRENT.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let outcome = LinkService::restore(rule(), fixture.dataset.source.schema(), bytes);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(
        outcome.is_err(),
        "{what}: hostile snapshot must be rejected"
    );
    assert!(
        peak < ALLOC_CEILING,
        "{what}: restore allocated {peak} bytes on hostile input"
    );
}

#[test]
fn the_pristine_snapshot_restores() {
    let fixture = fixture();
    let restored =
        LinkService::restore(rule(), fixture.dataset.source.schema(), &fixture.bytes[..]).unwrap();
    assert_eq!(restored.len(), fixture.dataset.target.entities().len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every proper prefix fails cleanly (a snapshot, unlike the log, has
    /// no tolerated torn state: it is written to a tmp file and renamed).
    #[test]
    fn truncated_snapshots_error_cleanly(fraction in 0usize..10_000) {
        let bytes = &fixture().bytes;
        let cut = fraction * bytes.len() / 10_000;
        assert_rejected(&bytes[..cut], &format!("truncated to {cut}"));
    }

    /// A single flipped bit anywhere is detected — every byte sits under
    /// the magic check, the version compare, or the payload checksum.
    #[test]
    fn bit_flipped_snapshots_error_cleanly(fraction in 0usize..10_000, bit in 0usize..8) {
        let bytes = &fixture().bytes;
        let at = fraction * (bytes.len() - 1) / 10_000;
        let mut hostile = bytes.clone();
        hostile[at] ^= 1 << bit;
        assert_rejected(&hostile, &format!("bit {bit} flipped at {at}"));
    }

    /// Inflated length prefixes (the classic decompression-bomb shape) are
    /// rejected without honouring the demanded allocation: u32 fields
    /// overwritten with up-to-4GiB values cost at most a bounded chunk.
    #[test]
    fn inflated_length_fields_error_cleanly(
        fraction in 0usize..10_000,
        huge_index in 0usize..4,
    ) {
        let bytes = &fixture().bytes;
        let at = fraction * (bytes.len() - 4) / 10_000;
        let huge: u32 = [u32::MAX, i32::MAX as u32, 1 << 24, 0xdead_beef][huge_index];
        let mut hostile = bytes.clone();
        hostile[at..at + 4].copy_from_slice(&huge.to_le_bytes());
        // key bytes are arbitrary: where the four bytes already read `huge`
        // the overwrite changes nothing, and the pristine snapshot is
        // (rightly) accepted
        if hostile != *bytes {
            assert_rejected(&hostile, &format!("u32 {huge:#x} written at {at}"));
        }
    }

    /// Truncation and inflation combined: a huge length prefix right at
    /// the cut can demand far more than the remaining input holds.
    #[test]
    fn truncated_and_inflated_snapshots_error_cleanly(fraction in 0usize..10_000) {
        let bytes = &fixture().bytes;
        let cut = (fraction * bytes.len() / 10_000).max(16);
        let mut hostile = bytes[..cut].to_vec();
        let at = cut - 4;
        hostile[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_rejected(&hostile, &format!("cut {cut} with inflated tail"));
    }
}
