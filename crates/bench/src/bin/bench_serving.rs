//! Serving-subsystem benchmark: sharded index build, single-entity query
//! latency, hot-path allocation behaviour, streaming peak memory, concurrent
//! reader/writer throughput and snapshot persistence, with results emitted
//! to `BENCH_serving.json`.
//!
//! Measurements and gates:
//!
//! 1. **Sharded build** — `MultiBlockIndex::build_slice` over the largest
//!    workload (full-scale Cora, transform + q-gram keys), single-threaded
//!    versus 4 workers, each run against a fresh `ValueCache` so every
//!    build does the same work.  Gate (enforced only when the host has ≥ 4
//!    cores, as CI does): **speedup ≥ 2x**.
//! 2. **Query latency** — a `LinkService` over the restaurant conjunction
//!    rule answering one `query` per source entity; mean/p50/p99 µs.
//! 3. **Query allocations** — the `query_with` hot path on a transform-free
//!    rule, counted with a wrapping global allocator in steady state.
//!    Gate: **0 allocations per query**.
//! 4. **Streaming peak memory** — the engine's chunked run versus the batch
//!    run on Cora: identical links (gate) with only `chunk_size` target
//!    entities resident at a time; plus a byte-budgeted run
//!    (`chunk_bytes`) reporting the realized peak-resident bytes.
//! 5. **Concurrent serving** — reader-throughput scaling (aggregate
//!    queries/s at 4 reader threads over 1; gate ≥ 2x when the host has
//!    ≥ 4 cores) and a churn workload: reader threads querying while a
//!    `ServiceWriter` alternates removes and re-inserts.  Gates (always):
//!    **0 allocations per query on the reader threads during churn**
//!    (counted by a thread-local allocator tally, so the writer's
//!    allocations do not pollute the reader measurement) and reader
//!    results matching the final state after the writer settles.
//! 6. **Snapshot persistence** — `save_snapshot` / `restore` round-trip on
//!    the Cora service: restore must be **bit-identical to the fresh
//!    build** (stats and per-entity query results — gate) with save/load
//!    wall times and the restore-vs-build speedup reported.
//! 7. **Crash recovery** — a `DurableService` over Cora acknowledges a
//!    churn workload, "crashes" (is dropped), and is recovered from its
//!    checkpoint plus write-ahead log tail.  Gates (always): **recovery
//!    faster than a full rebuild** that re-derives the index and re-applies
//!    the churn, and **recovered state identical to the rebuilt state**
//!    (stats and per-entity query results).
//! 8. **Sharded churn** — the same remove/re-insert workload against a
//!    `ShardedService`: one writer thread per shard versus the single
//!    unsharded writer, with reader threads merging per-shard epochs the
//!    whole time.  Gates: **writer ops/s ≥ 2x with 4 shards** (enforced
//!    only on a ≥ 4-core host; recorded otherwise), **0 allocations per
//!    query on the reader threads under multi-shard churn** (always), and
//!    **sharded query results equal to unsharded** on Restaurant and Cora
//!    (always).
//! 9. **Dual-side streaming** — `run_dual_stream` over Cora with both
//!    sides chunked (block-nested-loop: the target re-streams once per
//!    source chunk).  Gates (always): **links bit-equal to the batch run**
//!    and **peak resident entities < 0.25x of source + target**.
//! 10. **Multi-rule serving** — a rule family registered onto one service
//!     (shared leaf pool) versus one independent service per rule: leaf
//!     share ratio, warm-registration time versus the per-rule rebuild, and
//!     construction allocation footprint.  Gates (always): **leaf share >
//!     0**, **warm registration faster than the rebuild**, and **multi-rule
//!     answers equal to the independent services'**.
//!
//! Environment: `GENLINK_BENCH_SERVING_OUT` (output path, default
//! `BENCH_serving.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use linkdisc_datasets::{Dataset, DatasetKind};
use linkdisc_entity::{ChunkedSliceSource, ChunkedVecStream, Entity};
use linkdisc_matching::{
    CandidateScratch, DurabilityOptions, DurableService, LinkService, MatchingEngine,
    MatchingOptions, MultiBlockIndex, ServiceOptions, ServiceReader, ShardSlot, ShardedScratch,
    ShardedService,
};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, IndexingPlan,
    LinkageRule, TransformFunction, ValueCache,
};

/// Passthrough allocator that counts allocations — globally and per thread
/// — so the zero-allocation claims of the serving hot path are *measured*,
/// not asserted.  The thread-local tally lets the churn workload gate the
/// reader threads while the writer allocates freely next to them.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes handed out — a construction-cost proxy for the
/// multi-rule workload (retained index structures dominate, so cumulative
/// allocation tracks the footprint of what was built).
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations performed by the current thread (`Cell<u64>` has no
    /// destructor, so the thread-local stays accessible for the whole
    /// thread lifetime, allocator callbacks included).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|tally| tally.set(tally.get() + 1));
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        BYTES_ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const BUILD_SPEEDUP_GATE: f64 = 2.0;
const BUILD_THREADS: usize = 4;
const BUILD_REPETITIONS: usize = 3;
const STREAM_CHUNK: usize = 256;
const STREAM_BYTE_BUDGET: usize = 256 * 1024;
const READER_SCALING_GATE: f64 = 2.0;
const READER_THREADS: usize = 4;
const READER_PASSES: usize = 30;
const CHURN_OPS: usize = 400;
const RECOVERY_CHURN: usize = 48;
const SHARD_COUNT: usize = 4;
const SHARDED_WRITER_GATE: f64 = 2.0;
const SHARDED_CHURN_ROUNDS: usize = 8;
const SHARDED_CHURN_VICTIMS: usize = 64;
const DUAL_PEAK_GATE: f64 = 0.25;

fn cora_rule() -> LinkageRule {
    compare(
        transform(TransformFunction::LowerCase, vec![property("title")]),
        transform(TransformFunction::LowerCase, vec![property("title")]),
        DistanceFunction::Levenshtein,
        3.0,
    )
    .into()
}

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

/// Transform-free rule for the allocation measurements: raw property values
/// are borrowed straight out of the entity, so a steady-state query touches
/// no allocator at all.
fn equality_rule() -> LinkageRule {
    compare(
        property("phone"),
        property("phone"),
        DistanceFunction::Equality,
        0.5,
    )
    .into()
}

/// The multi-rule family: every comparison below also appears in
/// `restaurant_rule`, so a warm registration onto a service already serving
/// the conjunction re-uses pooled leaves instead of building indexes —
/// exactly the structural overlap a GP population exhibits.
fn name_only_rule() -> LinkageRule {
    compare(
        transform(TransformFunction::LowerCase, vec![property("name")]),
        transform(TransformFunction::LowerCase, vec![property("name")]),
        DistanceFunction::Levenshtein,
        2.0,
    )
    .into()
}

fn phone_only_rule() -> LinkageRule {
    compare(
        transform(TransformFunction::DigitsOnly, vec![property("phone")]),
        transform(TransformFunction::DigitsOnly, vec![property("phone")]),
        DistanceFunction::Levenshtein,
        1.0,
    )
    .into()
}

/// Disjunctive fallback (`Max` keeps each child's required similarity, so
/// both children key the same leaves the conjunction built).
fn fallback_rule() -> LinkageRule {
    aggregation(
        AggregationFunction::Max,
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

/// Best-of-N wall time of one index build with a fresh cache per run (a
/// shared cache would hand later runs memoized transforms and undercount).
fn build_ms(dataset: &Dataset, rule: &LinkageRule, threads: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BUILD_REPETITIONS {
        let cache = ValueCache::new();
        let plan = IndexingPlan::lower(rule, dataset.source.schema(), dataset.target.schema(), 0.5);
        let start = Instant::now();
        let index = MultiBlockIndex::build_slice(plan, dataset.target.entities(), &cache, threads);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert!(index.target_len() == dataset.target.len());
        best = best.min(elapsed);
    }
    best
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// Aggregate reader throughput (queries/s): `threads` cloned readers each
/// run `passes` full passes over the query entities.
fn reader_throughput(reader: &ServiceReader, queries: &[Entity], threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let reader = reader.clone();
            scope.spawn(move || {
                let mut scratch = CandidateScratch::new();
                let mut hits: Vec<(u32, f64)> = Vec::new();
                for _ in 0..READER_PASSES {
                    for entity in queries {
                        reader.query_with(entity, &mut scratch, &mut hits);
                    }
                }
            });
        }
    });
    (threads * READER_PASSES * queries.len()) as f64 / start.elapsed().as_secs_f64()
}

/// What the churn workload measured.
struct ChurnOutcome {
    reader_queries: u64,
    reader_allocations: u64,
    writer_ops: usize,
    writer_ops_per_s: f64,
}

/// Two reader threads query (hot path, thread-local allocation tally) while
/// the writer alternates remove/re-insert over a rotating slice of served
/// entities.  Returns reader totals and writer throughput.
fn churn(dataset: &Dataset, rule: LinkageRule) -> ChurnOutcome {
    let (mut writer, reader) = LinkService::build(
        rule,
        dataset.source.schema(),
        &dataset.target,
        ServiceOptions::default(),
    )
    .unwrap()
    .split();
    let queries: Vec<Entity> = dataset.source.entities().to_vec();
    let victims: Vec<Entity> = dataset.target.entities().iter().take(64).cloned().collect();
    let stop = AtomicBool::new(false);
    let total_queries = AtomicU64::new(0);
    let total_allocations = AtomicU64::new(0);
    let mut writer_ops = 0usize;
    let mut writer_elapsed = 0.0f64;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let reader = reader.clone();
            let queries = &queries;
            let stop = &stop;
            let total_queries = &total_queries;
            let total_allocations = &total_allocations;
            scope.spawn(move || {
                let mut scratch = CandidateScratch::new();
                let mut hits: Vec<(u32, f64)> = Vec::new();
                // warm every pooled buffer (and this thread's evaluation
                // scratch) before counting
                for _ in 0..2 {
                    for entity in queries.iter() {
                        reader.query_with(entity, &mut scratch, &mut hits);
                    }
                }
                let before = thread_allocations();
                let mut queries_run = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for entity in queries.iter() {
                        reader.query_with(entity, &mut scratch, &mut hits);
                        queries_run += 1;
                    }
                }
                total_allocations.fetch_add(thread_allocations() - before, Ordering::Relaxed);
                total_queries.fetch_add(queries_run, Ordering::Relaxed);
            });
        }
        // churn: remove and re-insert a rotating victim; every op publishes
        // a fresh epoch the readers pick up mid-flight
        let start = Instant::now();
        for op in 0..CHURN_OPS {
            let victim = &victims[op % victims.len()];
            assert!(writer.remove(victim.id()));
            writer.insert(victim).unwrap();
            writer_ops += 2;
        }
        writer_elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
    });
    ChurnOutcome {
        reader_queries: total_queries.load(Ordering::Relaxed),
        reader_allocations: total_allocations.load(Ordering::Relaxed),
        writer_ops,
        writer_ops_per_s: writer_ops as f64 / writer_elapsed,
    }
}

/// What the sharded churn workload measured.
struct ShardedChurnOutcome {
    writer_ops: usize,
    writer_ops_per_s: f64,
    reader_queries: u64,
    reader_allocations: u64,
}

/// The churn workload against a `ShardedService`: one writer thread per
/// shard alternates remove/re-insert over the victims routed to it, while
/// two reader threads merge per-shard epochs on the allocation-counted hot
/// path.  Every shard count churns the identical victim set for the same
/// number of rounds, so writer ops/s are comparable across shard counts.
fn sharded_churn(dataset: &Dataset, rule: LinkageRule, shards: usize) -> ShardedChurnOutcome {
    let service = ShardedService::build(
        rule,
        dataset.source.schema(),
        &dataset.target,
        shards,
        ServiceOptions::default(),
    )
    .unwrap();
    let router = service.router();
    let queries: Vec<Entity> = dataset.source.entities().to_vec();
    let victims: Vec<Entity> = dataset
        .target
        .entities()
        .iter()
        .take(SHARDED_CHURN_VICTIMS)
        .cloned()
        .collect();
    let (writers, reader) = service.split();
    let stop = AtomicBool::new(false);
    let total_queries = AtomicU64::new(0);
    let total_allocations = AtomicU64::new(0);
    let mut writer_ops = 0usize;
    let mut writer_elapsed = 0.0f64;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let reader = reader.clone();
            let queries = &queries;
            let stop = &stop;
            let total_queries = &total_queries;
            let total_allocations = &total_allocations;
            scope.spawn(move || {
                let mut scratch = ShardedScratch::new();
                let mut hits: Vec<(ShardSlot, f64)> = Vec::new();
                // warm the per-shard scratches and the hit buffer before
                // counting
                for _ in 0..2 {
                    for entity in queries.iter() {
                        reader.query_with(entity, &mut scratch, &mut hits);
                    }
                }
                let before = thread_allocations();
                let mut queries_run = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for entity in queries.iter() {
                        reader.query_with(entity, &mut scratch, &mut hits);
                        queries_run += 1;
                    }
                }
                total_allocations.fetch_add(thread_allocations() - before, Ordering::Relaxed);
                total_queries.fetch_add(queries_run, Ordering::Relaxed);
            });
        }
        // one writer thread per shard; disjoint routing means no
        // coordination of any kind between them
        let start = Instant::now();
        let handles: Vec<_> = writers
            .into_iter()
            .enumerate()
            .map(|(shard, mut writer)| {
                let mine: Vec<Entity> = victims
                    .iter()
                    .filter(|victim| router.route(victim.id()) == shard)
                    .cloned()
                    .collect();
                scope.spawn(move || {
                    let mut ops = 0usize;
                    for _ in 0..SHARDED_CHURN_ROUNDS {
                        for victim in &mine {
                            assert!(writer.remove(victim.id()));
                            writer.insert(victim).unwrap();
                            ops += 2;
                        }
                    }
                    ops
                })
            })
            .collect();
        for handle in handles {
            writer_ops += handle.join().unwrap();
        }
        writer_elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
    });
    ShardedChurnOutcome {
        writer_ops,
        writer_ops_per_s: writer_ops as f64 / writer_elapsed,
        reader_queries: total_queries.load(Ordering::Relaxed),
        reader_allocations: total_allocations.load(Ordering::Relaxed),
    }
}

/// True when a `ShardedService` over `shards` shards answers every source
/// query identically to the unsharded service.
fn sharded_equals_unsharded(dataset: &Dataset, rule: LinkageRule, shards: usize) -> bool {
    let unsharded = LinkService::build(
        rule.clone(),
        dataset.source.schema(),
        &dataset.target,
        ServiceOptions::default(),
    )
    .unwrap();
    let sharded = ShardedService::build(
        rule,
        dataset.source.schema(),
        &dataset.target,
        shards,
        ServiceOptions::default(),
    )
    .unwrap();
    dataset
        .source
        .entities()
        .iter()
        .all(|entity| sharded.query(entity) == unsharded.reader().query(entity))
}

fn main() {
    let out_path = std::env::var("GENLINK_BENCH_SERVING_OUT")
        .unwrap_or_else(|_| "BENCH_serving.json".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("=== serving benchmark ({cores} cores) ===\n");
    let mut failures: Vec<String> = Vec::new();

    // 1. sharded build ------------------------------------------------------
    let cora = DatasetKind::Cora.generate(1.0, 42);
    let rule = cora_rule();
    println!(
        "--- sharded index build (cora, |B|={} entities) ---",
        cora.target.len()
    );
    let t1_ms = build_ms(&cora, &rule, 1);
    let t4_ms = build_ms(&cora, &rule, BUILD_THREADS);
    let speedup = t1_ms / t4_ms;
    let build_gate_enforced = cores >= BUILD_THREADS;
    println!("1 thread:  {t1_ms:9.1} ms (best of {BUILD_REPETITIONS})");
    println!("{BUILD_THREADS} threads: {t4_ms:9.1} ms (best of {BUILD_REPETITIONS})");
    println!(
        "speedup: {speedup:.2}x (gate ≥ {BUILD_SPEEDUP_GATE}x, {})",
        if build_gate_enforced {
            "enforced"
        } else {
            "reported only — host has fewer than 4 cores"
        }
    );
    if build_gate_enforced && speedup < BUILD_SPEEDUP_GATE {
        failures.push(format!(
            "sharded build speedup {speedup:.2}x < {BUILD_SPEEDUP_GATE}x on {BUILD_THREADS} threads"
        ));
    }
    println!();

    // 2. query latency ------------------------------------------------------
    let restaurant = DatasetKind::Restaurant.generate(1.0, 42);
    let service = LinkService::build(
        restaurant_rule(),
        restaurant.source.schema(),
        &restaurant.target,
        ServiceOptions::default(),
    )
    .unwrap();
    // warm caches and pools, then measure
    for entity in restaurant.source.entities() {
        service.reader().query(entity);
    }
    let mut latencies_us: Vec<f64> = Vec::with_capacity(restaurant.source.len());
    let mut links_found = 0usize;
    for entity in restaurant.source.entities() {
        let start = Instant::now();
        let links = service.reader().query(entity);
        latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        links_found += links.len();
    }
    latencies_us.sort_by(f64::total_cmp);
    let mean_us = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
    let p50_us = percentile(&latencies_us, 0.50);
    let p99_us = percentile(&latencies_us, 0.99);
    println!("--- single-entity query latency (restaurant conjunction) ---");
    println!(
        "{} queries over {} served entities: mean {mean_us:.1} µs, p50 {p50_us:.1} µs, \
         p99 {p99_us:.1} µs, {links_found} links",
        restaurant.source.len(),
        service.writer().len()
    );
    println!();

    // 3. hot-path allocations ----------------------------------------------
    let flat_service = LinkService::build(
        equality_rule(),
        restaurant.source.schema(),
        &restaurant.target,
        ServiceOptions::default(),
    )
    .unwrap();
    let mut scratch = CandidateScratch::new();
    let mut hits: Vec<(u32, f64)> = Vec::new();
    // two warm-up passes grow every pooled buffer to its steady-state size
    for _ in 0..2 {
        for entity in restaurant.source.entities() {
            flat_service
                .reader()
                .query_with(entity, &mut scratch, &mut hits);
        }
    }
    let queries = restaurant.source.len() as u64;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for entity in restaurant.source.entities() {
        flat_service
            .reader()
            .query_with(entity, &mut scratch, &mut hits);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let allocations_per_query = allocations as f64 / queries as f64;
    println!("--- hot-path allocations (transform-free rule, steady state) ---");
    println!("{queries} queries: {allocations} allocations ({allocations_per_query:.3} per query)");
    if allocations != 0 {
        failures.push(format!(
            "hot query path allocated {allocations} times over {queries} queries (gate: 0)"
        ));
    }
    println!();

    // 4. streaming peak memory ---------------------------------------------
    let batch = MatchingEngine::new(rule.clone()).run(&cora.source, &cora.target);
    let streamed = MatchingEngine::new(rule.clone())
        .with_options(MatchingOptions {
            chunk_size: STREAM_CHUNK,
            ..MatchingOptions::default()
        })
        .run(&cora.source, &cora.target);
    let links_match = streamed.links == batch.links;
    let peak_fraction = streamed.peak_chunk_entities as f64 / streamed.target_entities as f64;
    println!("--- streaming ingestion (cora, chunk size {STREAM_CHUNK}) ---");
    println!(
        "{} chunks, peak {} of {} target entities resident ({:.1}%), links match batch: \
         {links_match}",
        streamed.chunks,
        streamed.peak_chunk_entities,
        streamed.target_entities,
        peak_fraction * 100.0
    );
    if !links_match {
        failures.push("streamed links diverge from the batch run".to_string());
    }
    // byte-budgeted chunking: residency tracks the budget, not an entity count
    let budgeted = MatchingEngine::new(rule)
        .with_options(MatchingOptions {
            chunk_bytes: STREAM_BYTE_BUDGET,
            ..MatchingOptions::default()
        })
        .run(&cora.source, &cora.target);
    let budget_links_match = budgeted.links == batch.links;
    println!(
        "byte budget {} KiB: {} chunks, peak {} entities / {} KiB resident, links match batch: \
         {budget_links_match}",
        STREAM_BYTE_BUDGET / 1024,
        budgeted.chunks,
        budgeted.peak_chunk_entities,
        budgeted.peak_chunk_bytes / 1024,
    );
    if !budget_links_match {
        failures.push("byte-budgeted links diverge from the batch run".to_string());
    }
    println!();

    // 5. concurrent serving -------------------------------------------------
    println!("--- concurrent serving (restaurant conjunction) ---");
    let (concurrent_writer, concurrent_reader) = LinkService::build(
        restaurant_rule(),
        restaurant.source.schema(),
        &restaurant.target,
        ServiceOptions::default(),
    )
    .unwrap()
    .split();
    let queries_slice: Vec<Entity> = restaurant.source.entities().to_vec();
    // warm the shared transform cache once so scaling measures query work,
    // not first-touch memoization
    reader_throughput(&concurrent_reader, &queries_slice, 1);
    let tp1 = reader_throughput(&concurrent_reader, &queries_slice, 1);
    let tp4 = reader_throughput(&concurrent_reader, &queries_slice, READER_THREADS);
    let reader_scaling = tp4 / tp1;
    let scaling_enforced = cores >= READER_THREADS;
    drop(concurrent_writer);
    println!(
        "reader throughput: {:.0} q/s x1, {:.0} q/s x{READER_THREADS} ({reader_scaling:.2}x, \
         gate ≥ {READER_SCALING_GATE}x, {})",
        tp1,
        tp4,
        if scaling_enforced {
            "enforced"
        } else {
            "reported only — host has fewer than 4 cores"
        }
    );
    if scaling_enforced && reader_scaling < READER_SCALING_GATE {
        failures.push(format!(
            "reader throughput scaling {reader_scaling:.2}x < {READER_SCALING_GATE}x \
             on {READER_THREADS} threads"
        ));
    }
    let churned = churn(&restaurant, equality_rule());
    let churn_allocations_per_query =
        churned.reader_allocations as f64 / churned.reader_queries.max(1) as f64;
    println!(
        "churn: writer {:.0} ops/s over {} ops; readers ran {} queries with {} allocations \
         ({churn_allocations_per_query:.4}/query, gate 0)",
        churned.writer_ops_per_s,
        churned.writer_ops,
        churned.reader_queries,
        churned.reader_allocations
    );
    if churned.reader_allocations != 0 {
        failures.push(format!(
            "reader hot path allocated {} times under writer churn (gate: 0)",
            churned.reader_allocations
        ));
    }
    println!();

    // 6. snapshot persistence -----------------------------------------------
    println!("--- snapshot persistence (cora) ---");
    let build_start = Instant::now();
    let cora_service = LinkService::build(
        cora_rule(),
        cora.source.schema(),
        &cora.target,
        ServiceOptions::default(),
    )
    .unwrap();
    let service_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let mut snapshot_bytes: Vec<u8> = Vec::new();
    let save_start = Instant::now();
    cora_service.save_snapshot(&mut snapshot_bytes).unwrap();
    let save_ms = save_start.elapsed().as_secs_f64() * 1e3;
    let restore_start = Instant::now();
    let restored = LinkService::restore(cora_rule(), cora.source.schema(), &snapshot_bytes[..])
        .expect("snapshot written moments ago restores");
    let restore_ms = restore_start.elapsed().as_secs_f64() * 1e3;
    let restore_speedup = service_build_ms / restore_ms;
    let mut restore_identical = restored.writer().stats() == cora_service.writer().stats();
    for entity in cora.source.entities() {
        if restored.reader().query(entity) != cora_service.reader().query(entity) {
            restore_identical = false;
            break;
        }
    }
    println!(
        "build {service_build_ms:.1} ms, save {save_ms:.1} ms ({} KiB), restore {restore_ms:.1} \
         ms ({restore_speedup:.1}x faster than build), restore identical to build: \
         {restore_identical}",
        snapshot_bytes.len() / 1024
    );
    if !restore_identical {
        failures.push("restored service diverges from the fresh build".to_string());
    }
    println!();

    // 7. crash recovery ------------------------------------------------------
    println!("--- crash recovery (cora, write-ahead log replay) ---");
    let recovery_dir =
        std::env::temp_dir().join(format!("genlink-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&recovery_dir);
    let mut durable = DurableService::create(
        &recovery_dir,
        cora_rule(),
        cora.source.schema(),
        &cora.target,
        ServiceOptions::default(),
        DurabilityOptions::default(),
    )
    .expect("fresh durable directory");
    let recovery_victims: Vec<Entity> = cora.target.entities().iter().take(16).cloned().collect();
    for op in 0..RECOVERY_CHURN {
        let victim = &recovery_victims[op % recovery_victims.len()];
        assert!(durable.remove(victim.id()).expect("logged remove"));
        durable.insert(victim).expect("logged insert");
    }
    let acked_epochs = durable.seq();
    let wal_bytes = durable.log_bytes();
    drop(durable); // the crash: only fsynced bytes survive
    let recover_start = Instant::now();
    let (recovered, report) = DurableService::recover(
        &recovery_dir,
        cora_rule(),
        cora.source.schema(),
        DurabilityOptions::default(),
    )
    .expect("recovery restores the checkpoint and replays the log tail");
    let recover_ms = recover_start.elapsed().as_secs_f64() * 1e3;
    // the alternative a crash leaves without a log: re-derive the whole
    // index from the dataset and re-apply the churn
    let rebuild_start = Instant::now();
    let mut rebuilt = LinkService::build(
        cora_rule(),
        cora.source.schema(),
        &cora.target,
        ServiceOptions::default(),
    )
    .unwrap();
    for op in 0..RECOVERY_CHURN {
        let victim = &recovery_victims[op % recovery_victims.len()];
        assert!(rebuilt.remove(victim.id()));
        rebuilt.insert(victim).unwrap();
    }
    let rebuild_ms = rebuild_start.elapsed().as_secs_f64() * 1e3;
    let recovery_speedup = rebuild_ms / recover_ms;
    let recovered_reader = recovered.reader();
    let mut recovered_identical = recovered.writer().stats() == rebuilt.writer().stats();
    for entity in cora.source.entities() {
        if recovered_reader.query(entity) != rebuilt.reader().query(entity) {
            recovered_identical = false;
            break;
        }
    }
    println!(
        "{acked_epochs} acknowledged epochs ({} KiB log), recover {recover_ms:.1} ms \
         (checkpoint gen {} + {} replayed), rebuild {rebuild_ms:.1} ms \
         ({recovery_speedup:.1}x, gate > 1x), recovered identical to rebuilt: \
         {recovered_identical}",
        wal_bytes / 1024,
        report.checkpoint_generation,
        report.replayed_epochs
    );
    if recovery_speedup <= 1.0 {
        failures.push(format!(
            "log replay recovery ({recover_ms:.1} ms) is not faster than a full rebuild \
             ({rebuild_ms:.1} ms)"
        ));
    }
    if !recovered_identical {
        failures.push("recovered service diverges from the sequential rebuild".to_string());
    }
    drop(recovered_reader);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&recovery_dir);
    println!();

    // 8. sharded churn --------------------------------------------------------
    println!("--- sharded churn (restaurant, {SHARD_COUNT} shards) ---");
    let unsharded_churn = sharded_churn(&restaurant, equality_rule(), 1);
    let sharded_churned = sharded_churn(&restaurant, equality_rule(), SHARD_COUNT);
    let writer_speedup = sharded_churned.writer_ops_per_s / unsharded_churn.writer_ops_per_s;
    let sharded_gate_enforced = cores >= SHARD_COUNT;
    println!(
        "writer: {:.0} ops/s x1 shard, {:.0} ops/s x{SHARD_COUNT} shards over {} ops \
         ({writer_speedup:.2}x, gate ≥ {SHARDED_WRITER_GATE}x, {})",
        unsharded_churn.writer_ops_per_s,
        sharded_churned.writer_ops_per_s,
        sharded_churned.writer_ops,
        if sharded_gate_enforced {
            "enforced"
        } else {
            "reported only — host has fewer than 4 cores"
        }
    );
    if sharded_gate_enforced && writer_speedup < SHARDED_WRITER_GATE {
        failures.push(format!(
            "sharded writer throughput {writer_speedup:.2}x < {SHARDED_WRITER_GATE}x \
             with {SHARD_COUNT} shards"
        ));
    }
    let sharded_allocations_per_query =
        sharded_churned.reader_allocations as f64 / sharded_churned.reader_queries.max(1) as f64;
    println!(
        "readers merged {} queries across {SHARD_COUNT} epoch chains with {} allocations \
         ({sharded_allocations_per_query:.4}/query, gate 0)",
        sharded_churned.reader_queries, sharded_churned.reader_allocations
    );
    if sharded_churned.reader_allocations != 0 {
        failures.push(format!(
            "sharded reader hot path allocated {} times under multi-shard churn (gate: 0)",
            sharded_churned.reader_allocations
        ));
    }
    let restaurant_parity = sharded_equals_unsharded(&restaurant, restaurant_rule(), SHARD_COUNT);
    let cora_parity = sharded_equals_unsharded(&cora, cora_rule(), SHARD_COUNT);
    println!(
        "sharded == unsharded query results: restaurant {restaurant_parity}, cora {cora_parity}"
    );
    if !restaurant_parity {
        failures.push("sharded restaurant queries diverge from unsharded".to_string());
    }
    if !cora_parity {
        failures.push("sharded cora queries diverge from unsharded".to_string());
    }
    println!();

    // 9. dual-side streaming --------------------------------------------------
    let dual_source_chunk = (cora.source.len() / 8).max(1);
    let dual_target_chunk = (cora.target.len() / 8).max(1);
    println!(
        "--- dual-side streaming (cora, source chunk {dual_source_chunk}, target chunk \
         {dual_target_chunk}) ---"
    );
    let mut dual_source = ChunkedVecStream::new(
        "cora-queries",
        cora.source.schema().clone(),
        cora.source
            .entities()
            .chunks(dual_source_chunk)
            .map(|chunk| chunk.to_vec())
            .collect(),
    );
    let mut dual_target = ChunkedSliceSource::new(
        "cora-targets",
        cora.target.schema().clone(),
        cora.target
            .entities()
            .chunks(dual_target_chunk)
            .map(|chunk| chunk.to_vec())
            .collect(),
    );
    let dual_start = Instant::now();
    let dual = MatchingEngine::new(cora_rule())
        .with_options(MatchingOptions {
            chunk_size: dual_target_chunk,
            source_chunk_size: dual_source_chunk,
            ..MatchingOptions::default()
        })
        .run_dual_stream(&mut dual_source, &mut dual_target);
    let dual_ms = dual_start.elapsed().as_secs_f64() * 1e3;
    let dual_links_match = dual.links == batch.links;
    let dual_peak = dual.peak_source_chunk_entities + dual.peak_chunk_entities;
    let dual_total = dual.source_entities + dual.target_entities;
    let dual_peak_fraction = dual_peak as f64 / dual_total as f64;
    println!(
        "{} source chunks x {} target passes in {dual_ms:.1} ms; peak resident {} + {} of \
         {} + {} entities ({:.1}%, gate < {:.0}%), links match batch: {dual_links_match}",
        dual.source_chunks,
        dual.source_chunks,
        dual.peak_source_chunk_entities,
        dual.peak_chunk_entities,
        dual.source_entities,
        dual.target_entities,
        dual_peak_fraction * 100.0,
        DUAL_PEAK_GATE * 100.0
    );
    if !dual_links_match {
        failures.push("dual-streamed links diverge from the batch run".to_string());
    }
    if dual_peak_fraction >= DUAL_PEAK_GATE {
        failures.push(format!(
            "dual-stream peak residency {dual_peak_fraction:.3} is not under {DUAL_PEAK_GATE}"
        ));
    }
    println!();

    // 10. multi-rule serving --------------------------------------------------
    println!("--- multi-rule serving (restaurant, shared leaf pool) ---");
    let registry: Vec<(&str, LinkageRule)> = vec![
        ("name-only", name_only_rule()),
        ("phone-only", phone_only_rule()),
        ("fallback", fallback_rule()),
    ];
    // one store, one leaf pool: build under the conjunction, then register
    // the family warm
    let multi_bytes_before = BYTES_ALLOCATED.load(Ordering::Relaxed);
    let mut multi = LinkService::build(
        restaurant_rule(),
        restaurant.source.schema(),
        &restaurant.target,
        ServiceOptions::default(),
    )
    .unwrap();
    let warm_start = Instant::now();
    for (name, rule) in &registry {
        multi.register_rule(name, rule.clone()).unwrap();
    }
    let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    let multi_bytes = BYTES_ALLOCATED.load(Ordering::Relaxed) - multi_bytes_before;
    let pool = multi.writer().leaf_pool_stats();
    let leaf_share = pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64;
    // the alternative: one whole service per rule (the base conjunction
    // included), each building every leaf from scratch
    let independent_bytes_before = BYTES_ALLOCATED.load(Ordering::Relaxed);
    let cold_start = Instant::now();
    let singles: Vec<LinkService> = std::iter::once(restaurant_rule())
        .chain(registry.iter().map(|(_, rule)| rule.clone()))
        .map(|rule| {
            LinkService::build(
                rule,
                restaurant.source.schema(),
                &restaurant.target,
                ServiceOptions::default(),
            )
            .unwrap()
        })
        .collect();
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    let independent_bytes = BYTES_ALLOCATED.load(Ordering::Relaxed) - independent_bytes_before;
    // the per-rule rebuild the warm path replaces: everything but the base
    let cold_register_ms = cold_ms * registry.len() as f64 / singles.len() as f64;
    let bytes_ratio = multi_bytes as f64 / independent_bytes.max(1) as f64;
    let mut multi_equals_singles = true;
    for entity in restaurant.source.entities() {
        if multi.reader().query(entity) != singles[0].reader().query(entity) {
            multi_equals_singles = false;
        }
        for ((name, _), single) in registry.iter().zip(&singles[1..]) {
            if multi.reader().query_rule(name, entity) != Some(single.reader().query(entity)) {
                multi_equals_singles = false;
            }
        }
    }
    println!(
        "{} rules over one store: {} pooled leaves serve {} plan slots \
         ({} hits / {} misses, leaf share {:.0}%, gate > 0)",
        multi.writer().rule_count(),
        pool.entries,
        pool.refs,
        pool.hits,
        pool.misses,
        leaf_share * 100.0
    );
    println!(
        "warm registration of {} rules: {warm_ms:.2} ms vs {cold_register_ms:.1} ms \
         rebuilding them as independent services ({:.1}x, gate: warm faster)",
        registry.len(),
        cold_register_ms / warm_ms.max(1e-6)
    );
    println!(
        "construction footprint: {} KiB allocated for the multi-rule service vs {} KiB \
         for {} independent services ({:.2}x)",
        multi_bytes / 1024,
        independent_bytes / 1024,
        singles.len(),
        bytes_ratio
    );
    println!("multi-rule answers equal independent single-rule answers: {multi_equals_singles}");
    if pool.hits == 0 {
        failures
            .push("multi-rule registration shared no leaves (gate: leaf share > 0)".to_string());
    }
    if warm_ms >= cold_register_ms {
        failures.push(format!(
            "warm registration ({warm_ms:.2} ms) is not faster than rebuilding independent \
             services ({cold_register_ms:.1} ms)"
        ));
    }
    if !multi_equals_singles {
        failures.push("multi-rule answers diverge from independent services".to_string());
    }
    println!();

    let json = format!(
        "{{\n  \"host_cores\": {cores},\n  \"sharded_build\": {{\n    \"workload\": \"cora\",\n    \"target_entities\": {},\n    \"build_t1_ms\": {t1_ms:.1},\n    \"build_t{BUILD_THREADS}_ms\": {t4_ms:.1},\n    \"speedup\": {speedup:.2},\n    \"speedup_gate\": {BUILD_SPEEDUP_GATE},\n    \"gate_enforced\": {build_gate_enforced}\n  }},\n  \"query_latency\": {{\n    \"workload\": \"restaurant\",\n    \"queries\": {},\n    \"served_entities\": {},\n    \"mean_us\": {mean_us:.1},\n    \"p50_us\": {p50_us:.1},\n    \"p99_us\": {p99_us:.1},\n    \"links_found\": {links_found}\n  }},\n  \"query_allocations\": {{\n    \"rule\": \"equality(phone)\",\n    \"queries\": {queries},\n    \"allocations\": {allocations},\n    \"allocations_per_query\": {allocations_per_query:.4},\n    \"gate\": 0\n  }},\n  \"streaming\": {{\n    \"workload\": \"cora\",\n    \"chunk_size\": {STREAM_CHUNK},\n    \"chunks\": {},\n    \"peak_resident_target_entities\": {},\n    \"target_entities\": {},\n    \"peak_resident_fraction\": {peak_fraction:.4},\n    \"links_match_batch\": {links_match},\n    \"byte_budget\": {STREAM_BYTE_BUDGET},\n    \"byte_budget_chunks\": {},\n    \"byte_budget_peak_entities\": {},\n    \"byte_budget_peak_bytes\": {},\n    \"byte_budget_links_match\": {budget_links_match}\n  }},\n  \"concurrent\": {{\n    \"workload\": \"restaurant\",\n    \"reader_throughput_t1_qps\": {tp1:.0},\n    \"reader_throughput_t{READER_THREADS}_qps\": {tp4:.0},\n    \"reader_scaling\": {reader_scaling:.2},\n    \"reader_scaling_gate\": {READER_SCALING_GATE},\n    \"scaling_gate_enforced\": {scaling_enforced},\n    \"churn_writer_ops\": {},\n    \"churn_writer_ops_per_s\": {:.0},\n    \"churn_reader_queries\": {},\n    \"churn_reader_allocations\": {},\n    \"churn_allocations_per_query\": {churn_allocations_per_query:.4},\n    \"churn_allocation_gate\": 0\n  }},\n  \"snapshot\": {{\n    \"workload\": \"cora\",\n    \"service_build_ms\": {service_build_ms:.1},\n    \"save_ms\": {save_ms:.1},\n    \"restore_ms\": {restore_ms:.1},\n    \"restore_speedup_vs_build\": {restore_speedup:.1},\n    \"snapshot_bytes\": {},\n    \"restore_identical_to_build\": {restore_identical}\n  }},\n  \"recovery\": {{\n    \"workload\": \"cora\",\n    \"acked_epochs\": {acked_epochs},\n    \"wal_bytes\": {wal_bytes},\n    \"checkpoint_generation\": {},\n    \"replayed_epochs\": {},\n    \"recover_ms\": {recover_ms:.1},\n    \"rebuild_ms\": {rebuild_ms:.1},\n    \"recovery_speedup_vs_rebuild\": {recovery_speedup:.1},\n    \"speedup_gate\": 1.0,\n    \"recovered_identical_to_rebuilt\": {recovered_identical}\n  }},\n  \"sharded_churn\": {{\n    \"workload\": \"restaurant\",\n    \"rule\": \"equality(phone)\",\n    \"shards\": {SHARD_COUNT},\n    \"writer_ops\": {},\n    \"writer_ops_per_s_1_shard\": {:.0},\n    \"writer_ops_per_s_{SHARD_COUNT}_shards\": {:.0},\n    \"writer_speedup\": {writer_speedup:.2},\n    \"writer_speedup_gate\": {SHARDED_WRITER_GATE},\n    \"writer_gate_enforced\": {sharded_gate_enforced},\n    \"reader_queries\": {},\n    \"reader_allocations\": {},\n    \"reader_allocations_per_query\": {sharded_allocations_per_query:.4},\n    \"reader_allocation_gate\": 0,\n    \"sharded_equals_unsharded_restaurant\": {restaurant_parity},\n    \"sharded_equals_unsharded_cora\": {cora_parity}\n  }},\n  \"dual_stream\": {{\n    \"workload\": \"cora\",\n    \"source_chunk_size\": {dual_source_chunk},\n    \"target_chunk_size\": {dual_target_chunk},\n    \"source_chunks\": {},\n    \"peak_source_entities\": {},\n    \"peak_target_entities\": {},\n    \"source_entities\": {},\n    \"target_entities\": {},\n    \"peak_resident_fraction\": {dual_peak_fraction:.4},\n    \"peak_fraction_gate\": {DUAL_PEAK_GATE},\n    \"run_ms\": {dual_ms:.1},\n    \"links_match_batch\": {dual_links_match}\n  }},\n  \"multi_rule\": {{\n    \"workload\": \"restaurant\",\n    \"rules\": {},\n    \"leaf_pool_entries\": {},\n    \"leaf_pool_refs\": {},\n    \"leaf_pool_hits\": {},\n    \"leaf_pool_misses\": {},\n    \"leaf_share\": {leaf_share:.4},\n    \"leaf_share_gate\": \"> 0\",\n    \"warm_register_ms\": {warm_ms:.3},\n    \"cold_rebuild_ms\": {cold_register_ms:.3},\n    \"warm_speedup\": {:.1},\n    \"multi_service_alloc_bytes\": {multi_bytes},\n    \"independent_services_alloc_bytes\": {independent_bytes},\n    \"alloc_bytes_ratio\": {bytes_ratio:.3},\n    \"multi_equals_independent\": {multi_equals_singles}\n  }}\n}}\n",
        cora.target.len(),
        restaurant.source.len(),
        restaurant.target.len(),
        streamed.chunks,
        streamed.peak_chunk_entities,
        streamed.target_entities,
        budgeted.chunks,
        budgeted.peak_chunk_entities,
        budgeted.peak_chunk_bytes,
        churned.writer_ops,
        churned.writer_ops_per_s,
        churned.reader_queries,
        churned.reader_allocations,
        snapshot_bytes.len(),
        report.checkpoint_generation,
        report.replayed_epochs,
        sharded_churned.writer_ops,
        unsharded_churn.writer_ops_per_s,
        sharded_churned.writer_ops_per_s,
        sharded_churned.reader_queries,
        sharded_churned.reader_allocations,
        dual.source_chunks,
        dual.peak_source_chunk_entities,
        dual.peak_chunk_entities,
        dual.source_entities,
        dual.target_entities,
        multi.writer().rule_count(),
        pool.entries,
        pool.refs,
        pool.hits,
        pool.misses,
        cold_register_ms / warm_ms.max(1e-6),
    );
    std::fs::write(&out_path, &json).expect("cannot write benchmark output");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    println!("all serving gates passed");
}
