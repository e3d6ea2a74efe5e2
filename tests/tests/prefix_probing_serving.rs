//! The serving path *reaches* prefix probing and stays allocation-free: a
//! name-only Levenshtein rule on Restaurant — the skewed leaf, thousands of
//! look-alike names per block, that the benchmark's serving rules avoid by
//! anchoring on the phone leaf — answered by a `LinkService`
//!
//! * performs **0 heap allocations per query** once its scratch is warm
//!   (counted for real: this test binary installs a counting allocator with
//!   a per-thread tally),
//! * scores at most **a fifth** of the candidates that admitting every
//!   target sharing *any* block key with the probe would, and
//! * links exactly what the batch engine links.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use linkdisc_datasets::DatasetKind;
use linkdisc_matching::{CandidateScratch, LinkService, MatchingEngine, ServiceOptions};
use linkdisc_rule::{compare, property, DistanceFunction, IndexingPlan, LinkageRule};
use linkdisc_similarity::BlockKey;

struct CountingAllocator;

thread_local! {
    /// Allocations performed by the current thread (other tests of this
    /// binary allocate on theirs).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCATIONS.with(|tally| tally.set(tally.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCATIONS.with(|tally| tally.set(tally.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Transform-free, so the query entity's values are borrowed straight out of
/// the entity: bound 1, edit budget 1, positional 6-grams.
fn name_only_rule() -> LinkageRule {
    compare(
        property("name"),
        property("name"),
        DistanceFunction::Levenshtein,
        2.0,
    )
    .into()
}

#[test]
fn a_name_only_query_probes_a_prefix_without_allocating() {
    let data = DatasetKind::Restaurant.generate(4.0, 42);
    let (source, target) = (&data.source, &data.target);
    let rule = name_only_rule();
    let service = LinkService::build(
        rule.clone(),
        source.schema(),
        target,
        ServiceOptions::default(),
    )
    .unwrap();

    // links == the batch engine's, query by query
    let batch = MatchingEngine::new(rule.clone()).run(source, target);
    let served: Vec<_> = source
        .entities()
        .iter()
        .flat_map(|entity| service.query(entity))
        .collect();
    let sorted = |mut links: Vec<linkdisc_matching::ScoredLink>| {
        links.sort_by(|a, b| (&a.source, &a.target).cmp(&(&b.source, &b.target)));
        links
    };
    assert!(!batch.links.is_empty());
    assert_eq!(sorted(served), sorted(batch.links));

    // 0 allocations per query on the hot path, after two warm-up passes
    let mut scratch = CandidateScratch::new();
    let mut hits: Vec<(u32, f64)> = Vec::new();
    for _ in 0..2 {
        for entity in source.entities() {
            service.query_with(entity, &mut scratch, &mut hits);
        }
    }
    let candidates_before = service.rule_stats()[0].candidates;
    let allocations_before = THREAD_ALLOCATIONS.with(Cell::get);
    for entity in source.entities() {
        service.query_with(entity, &mut scratch, &mut hits);
    }
    let allocations = THREAD_ALLOCATIONS.with(Cell::get) - allocations_before;
    let candidates = service.rule_stats()[0].candidates - candidates_before;
    assert_eq!(
        allocations,
        0,
        "{} queries allocated on the hot path",
        source.len()
    );

    // what any-shared-key admission would hand the rule: every target one
    // of whose index keys is among the probe's keys, flattened
    let plan = IndexingPlan::lower(&rule, source.schema(), target.schema(), 0.5);
    let comparison = &plan.comparisons()[0];
    let name = target.schema().index_of("name").expect("a name property");
    let mut postings: HashMap<BlockKey, Vec<usize>> = HashMap::new();
    for (position, entity) in target.entities().iter().enumerate() {
        let keys = comparison
            .function
            .index_keys(entity.values_at(name), comparison.bound);
        for key in keys {
            postings.entry(key).or_default().push(position);
        }
    }
    let mut any_shared_key = 0usize;
    let mut seen = vec![usize::MAX; target.len()];
    for (query, entity) in source.entities().iter().enumerate() {
        let probe = comparison
            .function
            .probe_keys(entity.values_at(name), comparison.bound);
        for position in probe
            .keys()
            .iter()
            .filter_map(|key| postings.get(key))
            .flatten()
        {
            any_shared_key += usize::from(std::mem::replace(&mut seen[*position], query) != query);
        }
    }
    assert!(
        candidates as usize * 5 <= any_shared_key,
        "{candidates} candidates against {any_shared_key} sharing any key"
    );
    assert!(
        candidates as usize >= source.len() / 2,
        "probing found too little"
    );
}
