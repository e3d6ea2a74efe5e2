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
//!
//! The same allocator gates the batch engine's bind (one allocation per
//! transformed value, one free each on drop), and counts none at all on
//! reader threads while writers churn the store, or in a warm bounded sweep
//! of a learned rule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Barrier;

use genlink::{GenLink, GenLinkConfig};
use linkdisc_datasets::DatasetKind;
use linkdisc_entity::Entity;
use linkdisc_matching::{
    CandidateScratch, LinkService, MatchingEngine, ServiceOptions, ShardSlot, ShardedScratch,
    ShardedService,
};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, CompiledChain, CompiledRule,
    DistanceFunction, EvalStats, IndexingPlan, LinkageRule, TransformFunction, ValueCache,
    LINK_THRESHOLD,
};
use linkdisc_similarity::BlockKey;

struct CountingAllocator;

thread_local! {
    /// Allocations (reallocations included) performed by the current thread
    /// (other tests of this binary allocate on theirs).
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

/// Allocations `query` makes on this thread over one pass of `queries`,
/// after two uncounted passes have grown every pooled buffer to its
/// steady-state size.
fn warm_allocations(queries: &[Entity], mut query: impl FnMut(&Entity)) -> u64 {
    for _ in 0..2 {
        queries.iter().for_each(&mut query);
    }
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    queries.iter().for_each(&mut query);
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

/// Transform-free: every phone value is borrowed straight out of the entity.
fn equality_rule() -> LinkageRule {
    compare(
        property("phone"),
        property("phone"),
        DistanceFunction::Equality,
        0.5,
    )
    .into()
}

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
    let candidates_before = service.writer().rule_stats()[0].candidates;
    let served: Vec<_> = source
        .entities()
        .iter()
        .flat_map(|entity| service.reader().query(entity))
        .collect();
    let candidates = service.writer().rule_stats()[0].candidates - candidates_before;
    let sorted = |mut links: Vec<linkdisc_matching::ScoredLink>| {
        links.sort_by(|a, b| (&a.source, &a.target).cmp(&(&b.source, &b.target)));
        links
    };
    assert!(!batch.links.is_empty());
    assert_eq!(sorted(served), sorted(batch.links));

    // 0 allocations per query on the hot path, here and for the
    // transform-free equality rule
    let phone = LinkService::build(
        equality_rule(),
        source.schema(),
        target,
        ServiceOptions::default(),
    )
    .unwrap();
    for reader in [service.reader(), phone.reader()] {
        let mut scratch = CandidateScratch::new();
        let mut hits: Vec<(u32, f64)> = Vec::new();
        let allocations = warm_allocations(source.entities(), |entity| {
            reader.query_with(entity, &mut scratch, &mut hits);
        });
        assert_eq!(allocations, 0, "{} queries allocated", source.len());
    }

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

/// The benchmark's sparse matching rule: `min(lev(lowerCase name) θ2,
/// lev(digitsOnly phone) θ1)`.
fn name_and_phone_rule() -> LinkageRule {
    let fuzzy = |name: &str, function, threshold| {
        compare(
            transform(function, vec![property(name)]),
            transform(function, vec![property(name)]),
            DistanceFunction::Levenshtein,
            threshold,
        )
    };
    aggregation(
        AggregationFunction::Min,
        vec![
            fuzzy("name", TransformFunction::LowerCase, 2.0),
            fuzzy("phone", TransformFunction::DigitsOnly, 1.0),
        ],
    )
    .into()
}

#[test]
fn binding_allocates_once_per_transformed_value() {
    let data = DatasetKind::Restaurant.generate(4.0, 42);
    let target = &data.target;
    let rule = name_and_phone_rule();
    let compiled = CompiledRule::compile(&rule, data.source.schema(), target.schema());
    let counted = || {
        (
            THREAD_ALLOCATIONS.with(Cell::get),
            THREAD_FREES.with(Cell::get),
        )
    };
    let (allocations_before, _) = counted();
    let bound = compiled.bind_target(target.entities().iter());
    let allocations = counted().0 - allocations_before;
    // one output value per input value: every name lower-cased, every phone
    // reduced to its digits
    let transformed: usize = [
        ("name", TransformFunction::LowerCase),
        ("phone", TransformFunction::DigitsOnly),
    ]
    .into_iter()
    .map(|(name, function)| {
        let chain =
            CompiledChain::compile(&transform(function, vec![property(name)]), target.schema());
        let column = bound
            .values_of(chain.structural_hash())
            .expect("a read chain");
        column.iter().map(<[String]>::len).sum::<usize>()
    })
    .sum();
    let (_, frees_before) = counted();
    drop(bound);
    let frees = counted().1 - frees_before;
    println!(
        "binding {} entities: {transformed} transformed values, {allocations} allocations \
         ({:.3} per value), {frees} frees on drop",
        target.len(),
        allocations as f64 / transformed as f64,
    );
    assert!(transformed >= 2 * target.len(), "{transformed} values");
    let budget = transformed as u64 + 64;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {transformed} transformed values"
    );
    assert!(
        frees <= budget,
        "{frees} frees for {transformed} transformed values"
    );
}

/// Reader threads query on a warm scratch without allocating while the
/// writers remove and re-insert served entities, publishing an epoch per op
/// — unsharded, and merged across four shards' epoch chains.
#[test]
fn readers_do_not_allocate_while_writers_churn() {
    let data = DatasetKind::Restaurant.generate(1.0, 42);
    let (source, target) = (data.source.entities(), &data.target);
    let victims = &target.entities()[..64];
    let (mut writer, reader) = LinkService::build(
        equality_rule(),
        data.source.schema(),
        target,
        ServiceOptions::default(),
    )
    .unwrap()
    .split();
    let mut scratch = CandidateScratch::new();
    let mut hits: Vec<(u32, f64)> = Vec::new();
    let allocations = allocations_under_churn(
        source,
        move |entity| {
            reader.query_with(entity, &mut scratch, &mut hits);
        },
        victims,
        |victim| {
            assert!(writer.remove(victim.id()));
            writer.insert(victim).unwrap();
        },
    );
    assert_eq!(allocations, 0, "unsharded readers allocated under churn");

    let sharded = ShardedService::build(
        equality_rule(),
        data.source.schema(),
        target,
        4,
        ServiceOptions::default(),
    )
    .unwrap();
    let router = sharded.router();
    let (mut writers, reader) = sharded.split();
    let mut scratch = ShardedScratch::new();
    let mut hits: Vec<(ShardSlot, f64)> = Vec::new();
    let allocations = allocations_under_churn(
        source,
        move |entity| {
            reader.query_with(entity, &mut scratch, &mut hits);
        },
        victims,
        |victim| {
            let writer = &mut writers[router.route(victim.id())];
            assert!(writer.remove(victim.id()));
            writer.insert(victim).unwrap();
        },
    );
    assert_eq!(allocations, 0, "sharded readers allocated under churn");
}

/// Allocations a reader thread makes running `query` over ten passes of
/// `queries`, after two warm-up passes.  Each counted pass starts together
/// with a burst of 40 ops in which this thread removes and re-inserts the
/// next victims, so every pass overlaps a writer publishing epochs.
fn allocations_under_churn(
    queries: &[Entity],
    mut query: impl FnMut(&Entity) + Send,
    victims: &[Entity],
    mut churn: impl FnMut(&Entity),
) -> u64 {
    let round = Barrier::new(2);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            for _ in 0..2 {
                queries.iter().for_each(&mut query);
            }
            let before = THREAD_ALLOCATIONS.with(Cell::get);
            for _ in 0..10 {
                round.wait();
                queries.iter().for_each(&mut query);
            }
            THREAD_ALLOCATIONS.with(Cell::get) - before
        });
        let mut victims = victims.iter().cycle();
        for _ in 0..10 {
            round.wait();
            victims.by_ref().take(40).for_each(&mut churn);
        }
        reader.join().unwrap()
    })
}

/// A bounded sweep of a learned multi-comparison rule over the Restaurant
/// cross product allocates nothing once its value cache is warm.  The
/// learning run itself — the random initial population (up to four
/// comparisons per rule, the multi-comparison shape of the paper's Figure 7),
/// crossover offspring and converged elites, each scored on every reference
/// pair — skips more than a fifth of its comparisons.  The run is seeded, so
/// the rate is exact: 6,348 of 21,164 (30%).
#[test]
fn a_warm_bounded_sweep_of_a_learned_rule_does_not_allocate() {
    let data = DatasetKind::Restaurant.generate(0.2, 3);
    let mut config = GenLinkConfig::paper();
    config.gp.population_size = 200;
    config.gp.max_iterations = 6;
    config.gp.threads = 1;
    config.max_initial_comparisons = 4;
    let outcome = GenLink::new(config).learn(&data.source, &data.target, &data.links, 42);
    let eval = outcome
        .history
        .last()
        .and_then(|stats| stats.eval)
        .expect("the GenLink problem reports eval counters");
    assert!(eval.skip_rate() > 0.20, "{eval:?}");
    let compiled = CompiledRule::compile(&outcome.rule, data.source.schema(), data.target.schema());
    let cache = ValueCache::new();
    let mut stats = EvalStats::default();
    let mut sweep = || {
        for source in data.source.entities() {
            for target in data.target.entities() {
                compiled.evaluate_bounded_two_stats(
                    source,
                    target,
                    &cache,
                    &cache,
                    LINK_THRESHOLD,
                    &mut stats,
                );
            }
        }
    };
    sweep();
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    sweep();
    let allocations = THREAD_ALLOCATIONS.with(Cell::get) - before;
    assert!(stats.comparisons_skipped > 0, "{stats:?}");
    assert_eq!(allocations, 0, "the warm sweep allocated");
}
