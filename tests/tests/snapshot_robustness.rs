//! Hostile-input robustness of the snapshot codec: `LinkService::restore`
//! fed truncated, bit-flipped and length-field-inflated snapshots must
//! always return a `SnapshotError` — never panic, and never allocate
//! unboundedly on the say-so of a corrupt length prefix.  Restore decodes
//! the bytes in memory and checks the payload checksum before decoding, so
//! such damage stops at the checksum; the forged cases re-seal the checksum
//! after mutating the payload, so they reach the decoder's own validation
//! (a count or length is refused unless the bytes it claims remain, every
//! position and table index is range-checked).
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

/// FNV-1a 64, the snapshot's payload checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Restores forged bytes (checksum intact), asserting a typed error or a
/// service that answers queries, and a bounded allocation high-water mark.
fn assert_restores_or_errors(bytes: &[u8], what: &str) {
    let fixture = fixture();
    let baseline = CURRENT.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let outcome = LinkService::restore(rule(), fixture.dataset.source.schema(), bytes);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    if let Ok(service) = outcome {
        for entity in fixture.dataset.source.entities().iter().take(8) {
            service.reader().query(entity);
        }
    }
    assert!(
        peak < ALLOC_CEILING,
        "{what}: restore allocated {peak} bytes on forged input"
    );
}

#[test]
fn the_pristine_snapshot_restores() {
    let fixture = fixture();
    let restored =
        LinkService::restore(rule(), fixture.dataset.source.schema(), &fixture.bytes[..]).unwrap();
    assert_eq!(
        restored.writer().len(),
        fixture.dataset.target.entities().len()
    );
}

/// A little-endian reader over the documented snapshot layout, enough to
/// find the block records of the leaf pool.
struct Walk<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Walk<'_> {
    fn u32(&mut self) -> usize {
        let value = u32::from_le_bytes(self.bytes[self.at..self.at + 4].try_into().unwrap());
        self.at += 4;
        value as usize
    }

    fn skip(&mut self, n: usize) {
        self.at += n;
    }

    fn str(&mut self) {
        let len = self.u32();
        self.skip(len);
    }

    /// The byte ranges of every leaf's block records, leaf by leaf.
    fn block_records(mut self) -> Vec<Vec<std::ops::Range<usize>>> {
        self.skip(12); // magic, version
        for _ in 0..self.u32() {
            self.str(); // rule name
            self.skip(8); // canonical hash
        }
        self.skip(8); // link threshold
        let properties = self.u32();
        for _ in 0..properties {
            self.str();
        }
        self.skip(4); // slot_len
        for _ in 0..self.u32() {
            self.str(); // string table
        }
        for _ in 0..self.u32() {
            self.skip(4); // position
            self.str(); // id
            for _ in 0..properties {
                let values = self.u32();
                self.skip(4 * values);
            }
        }
        let free = self.u32();
        self.skip(4 * free);
        let mut leaves = Vec::new();
        for _ in 0..self.u32() {
            self.skip(8); // chain hash
            self.str(); // measure
            self.skip(8 + 4); // bound bucket, indexed entities
            let blocks = (0..self.u32())
                .map(|_| {
                    let start = self.at;
                    self.skip(8);
                    let postings = self.u32();
                    self.skip(4 * postings);
                    start..self.at
                })
                .collect();
            leaves.push(blocks);
        }
        assert_eq!(
            self.at,
            self.bytes.len() - 8,
            "the walk ends at the checksum"
        );
        leaves
    }
}

/// Re-seals the FNV-64 trailer over a forged payload.
fn reseal(bytes: &mut [u8]) {
    const HEADER: usize = 12;
    let trailer = bytes.len() - 8;
    let checksum = fnv64(&bytes[HEADER..trailer]);
    bytes[trailer..].copy_from_slice(&checksum.to_le_bytes());
}

/// A leaf's block records must list their keys strictly ascending: two
/// records swapped, or one record repeated in place of its neighbour (which
/// would otherwise overwrite the earlier list silently), are rejected with a
/// typed error, checksum intact.
#[test]
fn block_records_out_of_key_order_are_rejected() {
    let bytes = &fixture().bytes;
    let leaves = Walk { bytes, at: 0 }.block_records();
    assert_eq!(leaves.len(), 2);
    for blocks in &leaves {
        assert!(blocks.len() >= 2);
        for pair in [0, blocks.len() / 2, blocks.len() - 2] {
            let (a, b) = (blocks[pair].clone(), blocks[pair + 1].clone());
            let mut swapped = bytes[..a.start].to_vec();
            swapped.extend_from_slice(&bytes[b.clone()]);
            swapped.extend_from_slice(&bytes[a.clone()]);
            swapped.extend_from_slice(&bytes[b.end..]);
            reseal(&mut swapped);
            assert_rejected(
                &swapped,
                &format!("block records {pair} and {} swapped", pair + 1),
            );
            let mut repeated = bytes[..b.start].to_vec();
            repeated.extend_from_slice(&bytes[a.clone()]);
            repeated.extend_from_slice(&bytes[b.end..]);
            reseal(&mut repeated);
            assert_rejected(&repeated, &format!("block record {pair} repeated"));
        }
    }
    // the walk itself is sound: re-sealing the untouched bytes restores
    let mut pristine = bytes.clone();
    reseal(&mut pristine);
    assert_eq!(&pristine, bytes);
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

    /// Forged snapshots: one payload byte mutated, or a u32 field inflated,
    /// and the FNV-64 trailer re-sealed over the forged payload.
    #[test]
    fn forged_snapshots_restore_or_error_cleanly(fraction in 0usize..10_000, forge in 0usize..6) {
        const HEADER: usize = 12;
        let bytes = &fixture().bytes;
        let trailer = bytes.len() - 8;
        let at = HEADER + fraction * (trailer - HEADER - 4) / 10_000;
        let mut hostile = bytes.clone();
        match forge {
            0..=2 => hostile[at] ^= [0x01, 0x80, 0xff][forge],
            _ => {
                let huge: u32 = [u32::MAX, 1 << 24, 0xdead_beef][forge - 3];
                hostile[at..at + 4].copy_from_slice(&huge.to_le_bytes());
            }
        }
        let checksum = fnv64(&hostile[HEADER..trailer]);
        hostile[trailer..].copy_from_slice(&checksum.to_le_bytes());
        assert_restores_or_errors(&hostile, &format!("forgery {forge} at {at}"));
    }
}
