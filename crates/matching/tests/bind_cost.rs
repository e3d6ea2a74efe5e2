//! What binding costs the batch engine, per side: the layer under the index
//! build, the probes and the pair scoring of a matching job, which all read
//! the bound columns.  On the shape of the benchmark's sparse job —
//! Restaurant ×100 (42,560 × 42,560), seed 42, `min(lev(lowerCase name) θ2,
//! lev(digitsOnly phone) θ1)` — it prints, per side, the bind's and the
//! drop's milliseconds (median of five rounds) and their allocations and
//! frees per transformed value.  Run with `cargo test -p linkdisc-matching
//! --release --test bind_cost -- --ignored --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use linkdisc_datasets::DatasetKind;
use linkdisc_entity::DataSource;
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, BoundSide, CompiledChain,
    CompiledRule, DistanceFunction, LinkageRule, TransformFunction,
};

struct CountingAllocator;

thread_local! {
    /// Allocations (reallocations included) performed by the current thread.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Frees performed by the current thread.
    static THREAD_FREES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCATIONS.with(|tally| tally.set(tally.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        THREAD_FREES.with(|tally| tally.set(tally.get() + 1));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCATIONS.with(|tally| tally.set(tally.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `(allocations, frees)` so far on this thread.
fn counted() -> (u64, u64) {
    (
        THREAD_ALLOCATIONS.with(Cell::get),
        THREAD_FREES.with(Cell::get),
    )
}

/// The two chains the rule reads, on either side.
const CHAINS: [(&str, TransformFunction); 2] = [
    ("name", TransformFunction::LowerCase),
    ("phone", TransformFunction::DigitsOnly),
];

fn rule() -> LinkageRule {
    let comparisons = CHAINS
        .iter()
        .zip([2.0, 1.0])
        .map(|(&(name, function), threshold)| {
            compare(
                transform(function, vec![property(name)]),
                transform(function, vec![property(name)]),
                DistanceFunction::Levenshtein,
                threshold,
            )
        })
        .collect();
    aggregation(AggregationFunction::Min, comparisons).into()
}

/// The values of every chain the rule reads on a bound side: one per input
/// value, each chain mapping values one to one.
fn transformed_values(bound: &BoundSide, side: &DataSource) -> u64 {
    CHAINS
        .iter()
        .map(|&(name, function)| {
            let chain = transform(function, vec![property(name)]);
            let hash = CompiledChain::compile(&chain, side.schema()).structural_hash();
            let column = bound.values_of(hash).expect("a chain the rule reads");
            column.iter().map(<[String]>::len).sum::<usize>() as u64
        })
        .sum()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
#[ignore = "attribution tool; run explicitly in release mode"]
fn bind_cost() {
    let data = DatasetKind::Restaurant.generate(100.0, 42);
    let compiled = CompiledRule::compile(&rule(), data.source.schema(), data.target.schema());
    for (label, side, is_target) in [
        ("source", &data.source, false),
        ("target", &data.target, true),
    ] {
        let (mut bind_ms, mut drop_ms) = (Vec::new(), Vec::new());
        let mut counts = (0, 0, 0);
        for _ in 0..5 {
            let (allocations, _) = counted();
            let start = Instant::now();
            let bound = if is_target {
                compiled.bind_target(side.entities().iter())
            } else {
                compiled.bind_source(side.entities().iter())
            };
            bind_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let allocations = counted().0 - allocations;
            let values = transformed_values(&bound, side);
            let (_, frees) = counted();
            let start = Instant::now();
            drop(bound);
            drop_ms.push(start.elapsed().as_secs_f64() * 1e3);
            counts = (values, allocations, counted().1 - frees);
        }
        let (values, allocations, frees) = counts;
        println!(
            "{label}: {} entities, {values} transformed values; bind {:.1} ms, drop {:.1} ms \
             (median of 5); {allocations} allocations ({:.3} per value), {frees} frees ({:.3} \
             per value)",
            side.len(),
            median(bind_ms),
            median(drop_ms),
            allocations as f64 / values as f64,
            frees as f64 / values as f64,
        );
        assert!(allocations <= values + 64 && frees <= values + 64);
    }
}
